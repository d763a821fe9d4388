//! The work-stealing parallel map behind every fan-out in the workspace.
//!
//! [`par_map_result`] runs one independent job per item and collects the
//! results in input order:
//!
//! * lock-free result collection — each item writes its result exactly
//!   once into its pre-allocated slot, no lock on the hot path;
//! * failures are values — an `Err` from the job, or a worker *panic*
//!   converted to [`AssignError::Worker`], aborts the remaining work and
//!   is returned instead of tearing down the process.
//!
//! This is the workspace's one thread pool: the LP solver is serial, so
//! [`set_threads`]/[`threads`] size every parallel region there is
//! (resolution order: explicit `set_threads`, the `DSMEC_THREADS`
//! environment variable, then the machine's available parallelism).

use dsmec_core::error::AssignError;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Minimum projected *remaining* work (ns) before a map spawns worker
/// threads. The map measures its first `min(2, len)` items on the
/// calling thread and extrapolates from the **max** per-item time; below
/// this floor the spawn + join overhead (~tens of µs per thread) would
/// dominate, so it finishes serially instead. Keeps cheap sweeps —
/// fig6b's division-only points most visibly — from paying for
/// parallelism they cannot amortize. Probing two items (not one) matters
/// for heterogeneous batches: the first item's time absorbs cache-miss
/// and lazy-init cost and can be unrepresentatively *cheap* when the
/// expensive state is built lazily elsewhere, which used to pin
/// expensive-tailed batches to the calling thread.
const SPAWN_FLOOR_NS: u128 = 200_000;

/// How many leading items the adaptive probe times on the calling thread.
const PROBE_ITEMS: usize = 2;

/// Locks ignoring std poisoning: the failure slot stays consistent even if
/// a recording thread dies, because `record` only ever writes a complete
/// `(index, error)` pair.
fn lock_failure<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
thread_local! {
    /// Parallel regions that spawned workers, counted on the calling
    /// thread: tests observe the spawn decision itself, not which thread
    /// happened to claim each item.
    static SPAWNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// 0 = "not explicitly configured": fall back to the environment / CPU.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// `DSMEC_THREADS` (a positive integer; `0` counts as 1, anything
/// unparsable is ignored), else the machine's available parallelism.
/// Resolved once per process.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("DSMEC_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Sets the worker-thread count of the parallel maps. `0` restores the
/// default resolution.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The worker-thread count the parallel maps will use.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// One pre-allocated result slot per item; each slot is written exactly
/// once, by whichever worker claimed that item's index.
struct Slots<R>(Vec<UnsafeCell<Option<R>>>);

// Safety: a slot is only accessed by the single worker that claimed its
// index from the shared atomic counter, and ownership of the whole vector
// returns to the caller only after the thread scope joins.
unsafe impl<R: Send> Sync for Slots<R> {}

impl<R> Slots<R> {
    fn new(n: usize) -> Self {
        Slots((0..n).map(|_| UnsafeCell::new(None)).collect())
    }

    /// # Safety
    ///
    /// `i` must have been claimed exclusively by the calling worker.
    unsafe fn fill(&self, i: usize, value: R) {
        *self.0[i].get() = Some(value);
    }

    fn drain(self) -> Vec<R> {
        self.0
            .into_iter()
            .map(|c| c.into_inner().expect("every slot filled"))
            .collect()
    }
}

/// Parallel map preserving input order. Results land lock-free in
/// pre-allocated slots; work is distributed through a shared atomic index
/// so fast workers steal whatever is left.
///
/// Granularity is adaptive: the first `min(2, len)` items run (and are
/// timed) on the calling thread, and worker threads are spawned only when
/// the remaining work projected from the *slowest* probe item clears
/// `SPAWN_FLOOR_NS` — cheap sweeps finish serially rather than paying
/// spawn/join overhead per point, while a cheap first item cannot mask an
/// expensive tail.
///
/// The first failure — an `Err` from `f` or a worker panic, converted to
/// [`AssignError::Worker`] — stops new items from being claimed and is
/// returned. Items are claimed in increasing index order and an abort
/// only stops *new* claims, so every item before a failing one still
/// runs to completion; keeping the failure with the smallest index
/// therefore returns the first failure in input order, whatever the
/// thread count.
///
/// # Errors
///
/// Returns the first failure in input order, as described above.
pub fn par_map_result<T, R>(
    items: &[T],
    f: impl Fn(&T) -> Result<R, AssignError> + Sync,
) -> Result<Vec<R>, AssignError>
where
    T: Sync,
    R: Send,
{
    let n = items.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = threads().min(n);
    let slots = Slots::new(n);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let failure: Mutex<Option<(usize, AssignError)>> = Mutex::new(None);

    let record = |i: usize, e: AssignError| {
        let mut guard = lock_failure(&failure);
        match &*guard {
            Some((j, _)) if *j <= i => {}
            _ => *guard = Some((i, e)),
        }
        abort.store(true, Ordering::Relaxed);
    };
    let run_item = |i: usize| {
        match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
            // Safety: index `i` was claimed exclusively by the caller.
            Ok(Ok(r)) => unsafe { slots.fill(i, r) },
            Ok(Err(e)) => record(i, e),
            // `&*payload` reborrows the payload itself: `&payload`
            // would coerce the Box into `dyn Any` and make every
            // downcast miss.
            Err(payload) => record(i, AssignError::Worker(panic_message(&*payload))),
        }
    };
    let work = || {
        loop {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            run_item(i);
        }
        // Join-point flush: a scope's implicit join does not wait for TLS
        // destructors, so the exit-flush backstop can land *after* the
        // sweep snapshots its metrics. Flushing at the end of the worker
        // closure (this also runs on the calling thread) makes everything
        // recorded here visible once the scope returns.
        mec_obs::flush_current_thread();
    };
    if workers <= 1 {
        work();
    } else {
        // Probe: the first min(2, n) items on the calling thread, timed
        // individually; spawn only when the tail projected from the
        // slowest probe clears the floor, so a cheap first item (or one
        // whose cost hides in another item's lazy init) cannot keep an
        // expensive batch serial.
        let probes = PROBE_ITEMS.min(n);
        let mut worst: u128 = 0;
        for i in 0..probes {
            let probe = Instant::now();
            run_item(i);
            worst = worst.max(probe.elapsed().as_nanos());
        }
        let projected = worst.saturating_mul((n - probes) as u128);
        next.store(probes, Ordering::Relaxed);
        if projected < SPAWN_FLOOR_NS {
            work();
        } else {
            #[cfg(test)]
            SPAWNS.with(|n| n.set(n.get() + 1));
            std::thread::scope(|scope| {
                // The borrow is load-bearing: the same closure runs on N threads.
                #[allow(clippy::needless_borrows_for_generic_args)]
                for _ in 1..workers {
                    scope.spawn(&work);
                }
                work();
            });
        }
    }

    if let Some((_, e)) = failure
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        return Err(e);
    }
    Ok(slots.drain())
}

/// Serializes tests that mutate the process-global thread count.
#[cfg(test)]
pub(crate) static THREADS_TEST_LOCK: Mutex<()> = Mutex::new(());

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_result_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map_result(&items, |&i| Ok(i * 2)).unwrap();
        assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        let empty: Vec<usize> = vec![];
        assert!(par_map_result(&empty, |&i: &usize| Ok(i))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn par_map_result_collects_ok() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map_result(&items, |&i| Ok(i + 1));
        assert_eq!(out.unwrap(), (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_result_surfaces_first_error() {
        let items: Vec<usize> = (0..64).collect();
        let out = par_map_result(&items, |&i| {
            if i == 7 {
                Err(AssignError::InvalidInput(format!("bad item {i}")))
            } else {
                Ok(i)
            }
        });
        let err = out.unwrap_err();
        assert!(err.to_string().contains("bad item 7"), "{err}");
    }

    #[test]
    fn par_map_result_converts_panics() {
        let items: Vec<usize> = (0..32).collect();
        let out = par_map_result(&items, |&i| {
            if i == 3 {
                panic!("worker exploded on {i}");
            }
            Ok(i)
        });
        match out {
            Err(AssignError::Worker(msg)) => assert!(msg.contains("worker exploded"), "{msg}"),
            other => panic!("expected Worker error, got {other:?}"),
        }
    }

    /// Spins for roughly `us` microseconds; makes a test item expensive
    /// enough that the adaptive probe chooses the spawning path.
    fn busy_wait(us: u64) {
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_micros(us) {
            std::hint::spin_loop();
        }
    }

    /// The join-point flush contract: metrics and flight-recorder events
    /// staged on `par_map_result` workers are visible in a snapshot taken right
    /// after the call returns, and worker `sweep/point`-style spans link
    /// to the coordinating thread's span via the explicit parent id.
    #[test]
    fn par_map_result_flushes_worker_metrics_at_the_join_point() {
        let _t = THREADS_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let _o = mec_obs::TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        mec_obs::reset();
        mec_obs::set_enabled(true);
        mec_obs::set_events(true);
        set_threads(4);

        let sweep = mec_obs::span("par_test/sweep");
        let parent = mec_obs::current_span_id();
        let items: Vec<usize> = (0..16).collect();
        // Each point outlasts the spawn floor so workers really spawn and
        // the join-point flush (not serial fallback) is what's under test.
        let out = par_map_result(&items, |&i| {
            let _g = mec_obs::span_with_parent("par_test/point", parent);
            busy_wait(60);
            Ok(i * 3)
        })
        .unwrap();
        sweep.finish();
        let snap = mec_obs::snapshot();

        set_threads(0);
        mec_obs::set_events(false);
        mec_obs::set_enabled(false);
        mec_obs::reset();

        assert_eq!(out[7], 21);
        // Every point is visible immediately after the join — no
        // reliance on the racy thread-exit flush.
        assert_eq!(snap.span("par_test/point").map(|s| s.count), Some(16));
        let sweep_ev = snap
            .events
            .iter()
            .find(|e| e.name == "par_test/sweep")
            .expect("sweep event recorded");
        let points: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.name == "par_test/point")
            .collect();
        assert_eq!(points.len(), 16);
        assert!(
            points.iter().all(|p| p.parent == sweep_ev.id),
            "worker spans link to the coordinator's span"
        );
        assert!(snap.counter("obs/flush").unwrap_or(0) >= 1);
    }

    /// Below the spawn floor the map finishes on the calling thread: no
    /// worker threads appear even with a multi-thread setting.
    #[test]
    fn cheap_maps_stay_on_the_calling_thread() {
        let _t = THREADS_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_threads(4);
        let main_id = std::thread::current().id();
        let items: Vec<usize> = (0..8).collect();
        let ids = par_map_result(&items, |_| Ok(std::thread::current().id()));
        set_threads(0);
        assert!(ids.unwrap().iter().all(|id| *id == main_id));
    }

    /// A cheap first item must not keep a heterogeneous batch serial: the
    /// probe takes the max over min(2, len) items, so a batch whose tail
    /// is expensive clears the spawn floor and spawns workers. (A
    /// single-item probe projected the whole batch from the cheap head
    /// and stayed serial.) The spawn is observed directly: on a loaded
    /// host the calling thread may drain every item before a spawned
    /// worker gets to claim one.
    #[test]
    fn heterogeneous_batches_spawn_despite_a_cheap_first_item() {
        let _t = THREADS_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_threads(4);
        let spawns = || SPAWNS.with(std::cell::Cell::get);
        let items: Vec<usize> = (0..16).collect();
        let heavy_tail = |&i: &usize| {
            if i > 0 {
                busy_wait(300);
            }
            i
        };
        let before = spawns();
        let out = par_map_result(&items, |i| Ok(heavy_tail(i)));
        let after = spawns();
        set_threads(0);
        assert_eq!(out.unwrap(), items);
        assert_eq!(
            after,
            before + 1,
            "expensive tail behind a cheap probe item must spawn workers"
        );
    }

    #[test]
    fn thread_config_round_trips() {
        let _guard = THREADS_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0); // restore default resolution
        assert_eq!(threads(), default_threads());
        assert!(threads() >= 1);
    }

    /// The thread count lives here, not in `linprog`: a batch of LP solves
    /// fanned out with `par_map_result` leaves the setting intact, and its results
    /// are bit-identical for any thread count.
    #[test]
    fn thread_setting_round_trips_through_linprog() {
        use linprog::{ConstraintSense, LpProblem};
        let _guard = THREADS_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let caps: Vec<f64> = (1..=8).map(|k| k as f64 * 0.75).collect();
        let solve_all = || {
            par_map_result(&caps, |&cap| {
                // minimize -x - 2y  subject to  x + y <= cap,  0 <= x,y <= 3
                let mut lp = LpProblem::new(2);
                lp.set_objective(vec![-1.0, -2.0]).unwrap();
                lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintSense::Le, cap)
                    .unwrap();
                lp.set_bounds(0, 0.0, 3.0).unwrap();
                lp.set_bounds(1, 0.0, 3.0).unwrap();
                let sol = linprog::solve(&lp).unwrap();
                assert!(sol.is_optimal());
                Ok((
                    sol.objective.to_bits(),
                    sol.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ))
            })
            .unwrap()
        };
        set_threads(2);
        assert_eq!(threads(), 2);
        let two = solve_all();
        assert_eq!(threads(), 2, "solving must not disturb the thread setting");
        set_threads(1);
        assert_eq!(threads(), 1);
        assert_eq!(solve_all(), two);
        set_threads(0);
        assert!(threads() >= 1);
    }
}
