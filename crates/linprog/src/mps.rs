//! MPS interchange format: read and write linear programs in the classic
//! fixed-field MPS dialect (ROWS / COLUMNS / RHS / BOUNDS sections).
//!
//! This makes the solver instantly testable against any external LP tool
//! and lets the bench harness dump LP-HTA relaxations for offline
//! inspection. Only the features the rest of the crate can express are
//! supported: minimization, `N`/`L`/`G`/`E` rows, and `UP`/`LO`/`FX`/`BV`
//! bounds.

use crate::error::LpError;
use crate::problem::{ConstraintSense, LpProblem};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Serializes a problem to MPS text.
///
/// Row `i` is named `R{i}`, the objective row `COST`, and column `j`
/// `X{j}` — names round-trip through [`parse_mps`].
pub fn write_mps(lp: &LpProblem, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "NAME          {name}");
    let _ = writeln!(out, "ROWS");
    let _ = writeln!(out, " N  COST");
    for (i, c) in lp.constraints().iter().enumerate() {
        let tag = match c.sense {
            ConstraintSense::Le => 'L',
            ConstraintSense::Ge => 'G',
            ConstraintSense::Eq => 'E',
        };
        let _ = writeln!(out, " {tag}  R{i}");
    }

    let _ = writeln!(out, "COLUMNS");
    for j in 0..lp.num_vars() {
        let cj = lp.objective()[j];
        if cj != 0.0 {
            let _ = writeln!(out, "    X{j}  COST  {cj}");
        }
        for (i, c) in lp.constraints().iter().enumerate() {
            for &(col, a) in &c.terms {
                if col == j && a != 0.0 {
                    let _ = writeln!(out, "    X{j}  R{i}  {a}");
                }
            }
        }
    }

    let _ = writeln!(out, "RHS");
    for (i, c) in lp.constraints().iter().enumerate() {
        if c.rhs != 0.0 {
            let _ = writeln!(out, "    RHS  R{i}  {}", c.rhs);
        }
    }

    let _ = writeln!(out, "BOUNDS");
    for (j, b) in lp.bounds().iter().enumerate() {
        if b.lower == b.upper {
            let _ = writeln!(out, " FX BND  X{j}  {}", b.lower);
            continue;
        }
        if b.lower != 0.0 {
            let _ = writeln!(out, " LO BND  X{j}  {}", b.lower);
        }
        if b.upper.is_finite() {
            let _ = writeln!(out, " UP BND  X{j}  {}", b.upper);
        }
    }
    let _ = writeln!(out, "ENDATA");
    out
}

/// Parses MPS text into a problem.
///
/// # Errors
///
/// Returns [`LpError::NumericalFailure`] with a description when the
/// input is not well-formed MPS (unknown row, bad number, missing
/// sections).
pub fn parse_mps(text: &str) -> Result<LpProblem, LpError> {
    let bad = |_why: &'static str| LpError::NumericalFailure("malformed MPS input");

    #[derive(Clone, Copy, PartialEq)]
    enum Section {
        None,
        Rows,
        Columns,
        Rhs,
        Bounds,
    }

    let mut section = Section::None;
    let mut objective_row: Option<String> = None;
    // name -> (sense, order index)
    let mut rows: HashMap<String, (ConstraintSense, usize)> = HashMap::new();
    let mut row_order: Vec<String> = Vec::new();
    // column name -> order index
    let mut cols: HashMap<String, usize> = HashMap::new();
    let mut col_order: Vec<String> = Vec::new();
    // (col, row) -> coeff ; objective separately
    let mut entries: HashMap<(usize, usize), f64> = HashMap::new();
    let mut objective: HashMap<usize, f64> = HashMap::new();
    let mut rhs: HashMap<usize, f64> = HashMap::new();
    // bounds to apply after sizes are known
    let mut bounds: Vec<(String, usize, f64)> = Vec::new();

    for raw in text.lines() {
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        if !raw.starts_with(' ') {
            let mut words = line.split_whitespace();
            match words.next() {
                Some("NAME") => continue,
                Some("ROWS") => section = Section::Rows,
                Some("COLUMNS") => section = Section::Columns,
                Some("RHS") => section = Section::Rhs,
                Some("BOUNDS") => section = Section::Bounds,
                Some("RANGES") => return Err(bad("RANGES not supported")),
                Some("ENDATA") => break,
                _ => return Err(bad("unknown section")),
            }
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match section {
            Section::None => return Err(bad("data before any section")),
            Section::Rows => {
                let [tag, name] = fields.as_slice() else {
                    return Err(bad("ROWS line needs two fields"));
                };
                match *tag {
                    "N" => objective_row = Some((*name).to_string()),
                    "L" | "G" | "E" => {
                        let sense = match *tag {
                            "L" => ConstraintSense::Le,
                            "G" => ConstraintSense::Ge,
                            _ => ConstraintSense::Eq,
                        };
                        rows.insert((*name).to_string(), (sense, row_order.len()));
                        row_order.push((*name).to_string());
                    }
                    _ => return Err(bad("unknown row tag")),
                }
            }
            Section::Columns => {
                if fields.len() < 3 || fields.len().is_multiple_of(2) {
                    return Err(bad("COLUMNS line needs col + (row, value) pairs"));
                }
                let col_name = fields[0];
                let col = *cols.entry(col_name.to_string()).or_insert_with(|| {
                    col_order.push(col_name.to_string());
                    col_order.len() - 1
                });
                for pair in fields[1..].chunks(2) {
                    let value: f64 = pair[1].parse().map_err(|_| bad("bad number"))?;
                    if Some(pair[0]) == objective_row.as_deref() {
                        *objective.entry(col).or_insert(0.0) += value;
                    } else {
                        let &(_, r) = rows.get(pair[0]).ok_or(bad("unknown row"))?;
                        *entries.entry((col, r)).or_insert(0.0) += value;
                    }
                }
            }
            Section::Rhs => {
                if fields.len() < 3 || fields.len().is_multiple_of(2) {
                    return Err(bad("RHS line needs set + (row, value) pairs"));
                }
                for pair in fields[1..].chunks(2) {
                    let value: f64 = pair[1].parse().map_err(|_| bad("bad number"))?;
                    let &(_, r) = rows.get(pair[0]).ok_or(bad("unknown row"))?;
                    rhs.insert(r, value);
                }
            }
            Section::Bounds => {
                let [tag, _set, col_name, rest @ ..] = fields.as_slice() else {
                    return Err(bad("BOUNDS line too short"));
                };
                let col = *cols.get(*col_name).ok_or(bad("unknown column"))?;
                let value = match (*tag, rest) {
                    ("BV", _) => 1.0,
                    (_, [v]) => v.parse().map_err(|_| bad("bad bound"))?,
                    _ => return Err(bad("bound needs a value")),
                };
                bounds.push(((*tag).to_string(), col, value));
            }
        }
    }

    if objective_row.is_none() {
        return Err(bad("missing N row"));
    }
    if col_order.is_empty() {
        return Err(bad("no columns"));
    }

    let mut lp = LpProblem::new(col_order.len());
    let mut c = vec![0.0; col_order.len()];
    for (col, v) in objective {
        c[col] = v;
    }
    lp.set_objective(c)?;
    for (r, name) in row_order.iter().enumerate() {
        let (sense, _) = rows[name];
        let terms: Vec<(usize, f64)> = entries
            .iter()
            .filter(|((_, row), _)| *row == r)
            .map(|((col, _), v)| (*col, *v))
            .collect();
        lp.add_constraint(terms, sense, rhs.get(&r).copied().unwrap_or(0.0))?;
    }
    for (tag, col, value) in bounds {
        let current = lp.bounds()[col];
        match tag.as_str() {
            "UP" => lp.set_bounds(col, current.lower, value)?,
            "LO" => lp.set_bounds(col, value, current.upper)?,
            "FX" => lp.set_bounds(col, value, value)?,
            "BV" => lp.set_bounds(col, 0.0, 1.0)?,
            _ => return Err(bad("unknown bound tag")),
        }
    }
    Ok(lp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::solve_simplex;

    fn toy() -> LpProblem {
        let mut lp = LpProblem::new(2);
        lp.set_objective(vec![-1.0, -2.0]).unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, 4.0)
            .unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintSense::Ge, -2.0)
            .unwrap();
        lp.set_bounds(0, 0.0, 3.0).unwrap();
        lp.set_bounds(1, 0.5, 3.0).unwrap();
        lp
    }

    #[test]
    fn round_trip_preserves_optimum() {
        let lp = toy();
        let text = write_mps(&lp, "TOY");
        let parsed = parse_mps(&text).unwrap();
        let a = solve_simplex(&lp).unwrap();
        let b = solve_simplex(&parsed).unwrap();
        assert!(
            (a.objective - b.objective).abs() < 1e-9,
            "{} vs {}",
            a.objective,
            b.objective
        );
    }

    #[test]
    fn writes_all_sections() {
        let text = write_mps(&toy(), "TOY");
        for section in ["NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"] {
            assert!(text.contains(section), "missing {section}");
        }
        assert!(text.contains(" L  R0"));
        assert!(text.contains(" G  R1"));
    }

    #[test]
    fn parses_hand_written_mps() {
        let text = "\
NAME          SAMPLE
ROWS
 N  COST
 L  LIM1
 E  EQ1
COLUMNS
    X0  COST  1.0  LIM1  1.0
    X1  COST  2.0  LIM1  1.0
    X1  EQ1  1.0
RHS
    RHS  LIM1  10.0  EQ1  3.0
BOUNDS
 UP BND  X0  8.0
ENDATA
";
        let lp = parse_mps(text).unwrap();
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 2);
        let sol = solve_simplex(&lp).unwrap();
        // min x0 + 2 x1 with x1 = 3 fixed by EQ1, x0 >= 0 → 6.
        assert!((sol.objective - 6.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_mps("garbage\n").is_err());
        assert!(
            parse_mps("ROWS\n L  R0\nENDATA\n").is_err(),
            "no N row / columns"
        );
        let unknown_row = "\
NAME X
ROWS
 N  COST
COLUMNS
    X0  NOPE  1.0
ENDATA
";
        assert!(parse_mps(unknown_row).is_err());
    }

    #[test]
    fn binary_bound_is_unit_box() {
        let text = "\
NAME B
ROWS
 N  COST
 L  R0
COLUMNS
    X0  COST  -1.0  R0  1.0
RHS
    RHS  R0  9.0
BOUNDS
 BV BND  X0
ENDATA
";
        let lp = parse_mps(text).unwrap();
        let sol = solve_simplex(&lp).unwrap();
        assert!((sol.objective - (-1.0)).abs() < 1e-9);
    }
}
