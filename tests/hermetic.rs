//! Hermetic-build guard: every dependency in every workspace manifest
//! must resolve inside the repository, so `cargo build --release
//! --offline && cargo test -q --offline` succeeds from a scrubbed
//! `CARGO_HOME` with no crate registry at all.
//!
//! The rule is structural, not behavioral: each dependency entry is
//! either a `path = "..."` table or `{ workspace = true }` inheriting a
//! path entry from the root manifest. Registry (`version`-only) and
//! `git` specifications are rejected by name, which keeps the failure
//! message actionable when someone adds a crate.

use std::path::{Path, PathBuf};

/// Repository root, resolved from the bench crate this test is
/// registered under.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every manifest in the workspace: the root plus one per crate.
fn manifests() -> Vec<PathBuf> {
    let root = repo_root();
    let mut found = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    let entries = std::fs::read_dir(&crates).expect("crates/ directory exists");
    for entry in entries {
        let manifest = entry
            .expect("readable crates/ entry")
            .path()
            .join("Cargo.toml");
        if manifest.is_file() {
            found.push(manifest);
        }
    }
    found.sort();
    found
}

/// A dependency section header: `[dependencies]`, `[dev-dependencies]`,
/// `[build-dependencies]`, `[workspace.dependencies]`, or the expanded
/// per-dependency form `[dependencies.<name>]`.
fn is_dep_section(header: &str) -> bool {
    let h = header.trim();
    h.ends_with("dependencies]") || h.contains("dependencies.")
}

/// One dependency entry found in a manifest: its name and the inline
/// specification text to validate.
struct DepEntry {
    manifest: String,
    name: String,
    spec: String,
}

/// Line-level scan of a manifest for dependency entries. The workspace
/// only uses inline `name = { ... }` tables, but the expanded
/// `[dependencies.name]` form is collected too so a future rewrite
/// cannot slip past the guard.
fn collect_deps(path: &Path) -> Vec<DepEntry> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let manifest = path.display().to_string();
    let mut deps = Vec::new();
    let mut in_dep_section = false;
    let mut expanded: Option<DepEntry> = None;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            if let Some(entry) = expanded.take() {
                deps.push(entry);
            }
            in_dep_section = is_dep_section(line);
            if in_dep_section && line.contains("dependencies.") {
                let name = line
                    .trim_matches(['[', ']'])
                    .rsplit('.')
                    .next()
                    .unwrap_or("")
                    .to_string();
                expanded = Some(DepEntry {
                    manifest: manifest.clone(),
                    name,
                    spec: String::new(),
                });
            }
            continue;
        }
        if !in_dep_section {
            continue;
        }
        if let Some(entry) = expanded.as_mut() {
            entry.spec.push_str(line);
            entry.spec.push(' ');
        } else if let Some((name, spec)) = line.split_once('=') {
            deps.push(DepEntry {
                manifest: manifest.clone(),
                name: name.trim().to_string(),
                spec: spec.trim().to_string(),
            });
        }
    }
    if let Some(entry) = expanded.take() {
        deps.push(entry);
    }
    deps
}

/// The dependency resolves inside the repository.
fn is_hermetic(spec: &str, in_workspace_root: bool) -> bool {
    if spec.contains("git") || spec.contains("registry") {
        return false;
    }
    if spec.contains("path") {
        return true;
    }
    // `workspace = true` inherits the root entry, which the root-manifest
    // pass verifies is itself a path dependency.
    !in_workspace_root && spec.contains("workspace") && spec.contains("true")
}

#[test]
fn every_dependency_is_a_workspace_path() {
    let found = manifests();
    // The walker itself is under test: the workspace has the root
    // manifest plus six crates, and silently scanning fewer would turn
    // this guard into a no-op.
    assert!(
        found.len() >= 7,
        "expected the root + >= 6 crate manifests, found {}: {found:?}",
        found.len()
    );
    let mut total = 0;
    let mut offenders = Vec::new();
    for path in &found {
        let in_workspace_root = path.parent().map(Path::new) == Some(&repo_root())
            || !path.starts_with(repo_root().join("crates"));
        for dep in collect_deps(path) {
            total += 1;
            if !is_hermetic(&dep.spec, in_workspace_root) {
                offenders.push(format!(
                    "{}: `{} = {}` does not resolve in-repo",
                    dep.manifest,
                    dep.name,
                    dep.spec.trim()
                ));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "non-hermetic dependencies (add crates as in-workspace path deps \
         or vendor the code):\n{}",
        offenders.join("\n")
    );
    // Every crate depends on at least one sibling, so an empty scan means
    // the parser broke, not that the workspace is dependency-free.
    assert!(
        total >= 10,
        "only {total} dependency entries found — parser broken?"
    );
}

/// Registry packages carry `source = "registry+..."` (and a checksum),
/// git packages `source = "git+..."`; path packages carry neither.
fn assert_lockfile_is_path_only(lock: &Path) {
    let text =
        std::fs::read_to_string(lock).unwrap_or_else(|e| panic!("reading {}: {e}", lock.display()));
    let sourced: Vec<&str> = text
        .lines()
        .filter(|l| l.trim_start().starts_with("source ="))
        .collect();
    assert!(
        sourced.is_empty(),
        "{} references external package sources:\n{}",
        lock.display(),
        sourced.join("\n")
    );
    assert!(
        text.contains("[[package]]"),
        "{} lists no packages — parser broken?",
        lock.display()
    );
}

#[test]
fn lockfile_contains_no_registry_packages() {
    assert_lockfile_is_path_only(&repo_root().join("Cargo.lock"));
}

/// The benchmark package (`crates/bench/examples/benchmark`) is a
/// workspace of its own with its own lock file, so the workspace scan
/// above never sees it; it must be just as hermetic: every dependency a
/// `path` entry (it has no workspace table to inherit from) and no
/// sourced package in its lock file.
#[test]
fn benchmark_package_is_hermetic() {
    let dir = repo_root().join("crates/bench/examples/benchmark");
    let deps = collect_deps(&dir.join("Cargo.toml"));
    assert!(
        deps.len() >= 4,
        "expected the benchmark's path deps on the workspace crates, found {}",
        deps.len()
    );
    let offenders: Vec<String> = deps
        .iter()
        .filter(|dep| !is_hermetic(&dep.spec, true))
        .map(|dep| format!("`{} = {}`", dep.name, dep.spec.trim()))
        .collect();
    assert!(
        offenders.is_empty(),
        "benchmark dependencies must be path entries:\n{}",
        offenders.join("\n")
    );
    assert_lockfile_is_path_only(&dir.join("Cargo.lock"));
}
