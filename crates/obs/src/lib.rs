//! # mec-obs — zero-dependency tracing and metrics
//!
//! The observability substrate for the workspace: span timers, monotonic
//! counters, last-write-wins gauges, log-bucketed value histograms, and
//! an opt-in **flight recorder** of individual span events, aggregated
//! per metric name and exportable as deterministic JSON (via `djson`).
//! std-only, consistent with the hermetic workspace — no crate registry
//! required.
//!
//! ## Design
//!
//! Recording must be cheap enough to sit inside the LP pivot loop and the
//! DTA greedy rounds, and must not serialize the sweep engine's worker
//! threads. Three mechanisms deliver that:
//!
//! * a process-global **enabled flag** ([`set_enabled`]) read with one
//!   relaxed atomic load — when tracing is off (the default), every
//!   recording call is a branch and nothing else;
//! * **thread-local staging**: [`span`], [`counter_add`], and [`observe`]
//!   write into an uncontended per-thread store, so `par_map_result` workers
//!   never touch a shared lock on the hot path;
//! * a **global registry** guarded by one mutex that staging stores merge
//!   into when their thread exits or when [`flush_current_thread`] is
//!   called explicitly — which the sweep engine's workers do at the end
//!   of their closure, and [`snapshot`] does before capture, so a
//!   snapshot taken mid-run from a long-lived thread never silently
//!   misses that thread's own staged data. Each merge of a non-empty
//!   store bumps the `obs/flush` counter.
//!
//! The thread-exit flush is a *backstop*, not a synchronization point:
//! it runs from a TLS destructor, and `std::thread::scope`'s implicit
//! join only waits for the spawned closure to return — not for the
//! thread's TLS destructors — so a snapshot taken right after a scope
//! can race with a scoped worker's exit flush. Threads joined through
//! `JoinHandle::join` are safe (the underlying `pthread_join` waits for
//! full thread termination). Scoped workers that must be visible at the
//! join point therefore call [`flush_current_thread`] as the last thing
//! in their closure, which is what `mec_bench::par::par_map_result` does.
//!
//! ## Flight recorder (span events)
//!
//! Aggregates say *that* a phase is slow; the flight recorder says *where
//! the wall-clock goes*. When events are switched on ([`set_events`], off
//! by default), every span additionally records one timestamped event —
//! name, span id, parent span id, thread id, start/end nanoseconds on a
//! shared monotonic epoch — into a **bounded per-thread ring**
//! ([`set_event_capacity`]); on overflow the oldest events are dropped
//! and the `obs/events/dropped` counter incremented, while the aggregates
//! stay exact. Parent linkage comes from a thread-local span stack;
//! [`span_with_parent`] links a span to an explicit parent on *another*
//! thread, which is how `sweep/point` spans on `par_map_result` workers attach
//! to the experiment span on the coordinating thread. The events land in
//! the [`TraceSnapshot`] (schema v2, `"events"` key — see DESIGN.md §7)
//! and feed the offline `dsmec trace` analysis: self-time tables, the
//! critical path, flamegraph folded stacks, and the regression gate.
//!
//! ## Interval snapshots (the live telemetry plane)
//!
//! [`snapshot`] is cumulative: it reports everything since the last
//! [`reset`], which suits post-mortem traces but not a long-running
//! `dsmec serve` session that wants *rates*. [`snapshot_interval`]
//! closes one **window**: it flushes the calling thread, computes the
//! delta of every counter and histogram against a per-metric cumulative
//! baseline kept since the previous tick, advances the baselines, and
//! returns an [`IntervalSnapshot`] — delta counters (plus the running
//! totals), current gauge values, and windowed histograms with
//! nearest-rank p50/p95/p99 derived from fixed power-of-two log buckets
//! ([`HIST_BUCKETS`] of them, bounds `2^-30 … 2^33`). The cumulative
//! snapshot is untouched: taking interval snapshots never perturbs
//! [`snapshot`]'s output, only reads it.
//!
//! ## Naming convention
//!
//! Metric names are static, `/`-separated paths: `layer/component/metric`
//! (e.g. `linprog/simplex/pivots`, `lp_hta/relaxation`,
//! `dta/greedy/rounds`). Snapshots sort by name, so related metrics list
//! together and output is deterministic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod snapshot;

pub use snapshot::{
    BucketCount, CounterStat, CounterWindow, GaugeStat, HistogramStat, HistogramWindow,
    IntervalSnapshot, SpanEvent, SpanStat, TraceSnapshot, SCHEMA_VERSION,
};

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-global switch; recording calls are no-ops while it is false.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-global switch for the flight recorder (span events). Only
/// consulted while [`ENABLED`] is set.
static EVENTS: AtomicBool = AtomicBool::new(false);

/// Ring capacity for staged span events, per store.
static EVENT_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_EVENT_CAPACITY);

/// Span ids are process-unique and never reused; 0 means "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Small dense thread ids for the trace (std's `ThreadId` is opaque).
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// Monotonic epoch all event timestamps are offsets from.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The global registry every staging store merges into.
static GLOBAL: Mutex<Store> = Mutex::new(Store::new());

/// Per-metric cumulative baselines behind [`snapshot_interval`]. Locked
/// strictly after [`GLOBAL`] (the only place both are held).
static INTERVAL: Mutex<IntervalBaseline> = Mutex::new(IntervalBaseline::new());

/// Global sequence for gauge writes: [`Store::absorb`] keeps the entry
/// with the larger sequence, so "last write wins" holds across the
/// thread-local staging stores regardless of merge order.
static GAUGE_SEQ: AtomicU64 = AtomicU64::new(1);

/// Default per-store bound on staged span events (see
/// [`set_event_capacity`]).
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// Turns recording on or off process-wide. Off (the default) makes every
/// recording call a single relaxed load; already-recorded data is kept
/// until [`reset`].
pub fn set_enabled(on: bool) {
    if on {
        // Anchor the event epoch before the first timestamp is taken.
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is currently enabled.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the flight recorder (per-span events) on or off. Off by default:
/// events cost one ring write per span plus ~48 bytes each, so they are
/// opt-in on top of [`set_enabled`]. Has no effect while recording as a
/// whole is disabled.
pub fn set_events(on: bool) {
    EVENTS.store(on, Ordering::Relaxed);
}

/// Whether span events are currently being recorded.
#[must_use]
pub fn events_enabled() -> bool {
    enabled() && EVENTS.load(Ordering::Relaxed)
}

/// Bounds the number of staged span events per store (per thread, and for
/// the merged global registry). On overflow the oldest events are dropped
/// and counted under `obs/events/dropped`. A capacity of 0 keeps the
/// recorder effectively off even when [`set_events`] is on.
pub fn set_event_capacity(capacity: usize) {
    EVENT_CAPACITY.store(capacity, Ordering::Relaxed);
}

/// The current per-store event-ring capacity.
#[must_use]
pub fn event_capacity() -> usize {
    EVENT_CAPACITY.load(Ordering::Relaxed)
}

/// Nanoseconds since the process-wide trace epoch.
fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    /// Dense per-thread id, assigned on first use.
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);

    /// Stack of open span ids on this thread — the parent of a new span
    /// is the top of this stack (or 0 at top level).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// This thread's dense trace id.
fn thread_id() -> u64 {
    THREAD_ID.try_with(|&id| id).unwrap_or(0)
}

/// The id of the innermost span currently open on this thread, or 0.
/// Capture this before fanning work out to other threads and pass it to
/// [`span_with_parent`] so worker spans link back across the thread
/// boundary.
#[must_use]
pub fn current_span_id() -> u64 {
    SPAN_STACK
        .try_with(|s| s.borrow().last().copied().unwrap_or(0))
        .unwrap_or(0)
}

/// Per-span aggregate while recording (not yet exported).
#[derive(Debug, Clone, Copy)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl SpanAgg {
    fn one(ns: u64) -> Self {
        SpanAgg {
            count: 1,
            total_ns: ns,
            min_ns: ns,
            max_ns: ns,
        }
    }

    fn merge(&mut self, other: &SpanAgg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Number of fixed log-spaced histogram buckets. Bucket `i` covers
/// `(2^(i-31), 2^(i-30)]`; bucket 0 additionally absorbs everything at or
/// below `2^-30` (including zero and negatives) and the last bucket
/// absorbs everything above `2^32` — so the covered span `2^-30 … 2^33`
/// holds every value the workspace observes (nanoseconds-as-ms up to
/// item counts) with ≤ 2× relative quantile error.
pub const HIST_BUCKETS: usize = 64;

/// Exponent of bucket 0's upper bound: `2^BUCKET_MIN_EXP`.
const BUCKET_MIN_EXP: i32 = -30;

/// The bucket index for one observed value. Pure bit manipulation on the
/// IEEE-754 exponent — no libm calls — so the mapping is bit-identical
/// on every platform and thread count.
fn bucket_index(value: f64) -> usize {
    if value <= 0.0 {
        return 0;
    }
    let bits = value.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    if biased == 0 {
        return 0; // subnormal: far below the smallest bucket bound
    }
    let exp = biased - 1023; // floor(log2(value))
    let exact_pow2 = bits & ((1u64 << 52) - 1) == 0;
    let idx = exp - BUCKET_MIN_EXP + i32::from(!exact_pow2);
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    {
        idx.clamp(0, (HIST_BUCKETS - 1) as i32) as usize
    }
}

/// The inclusive upper bound of bucket `index`: `2^(BUCKET_MIN_EXP + i)`.
#[allow(clippy::cast_sign_loss)]
fn bucket_upper(index: usize) -> f64 {
    let exp = BUCKET_MIN_EXP + i32::try_from(index).unwrap_or(0);
    f64::from_bits(((exp + 1023) as u64) << 52)
}

/// Nearest-rank percentile over bucket counts: walk the cumulative
/// counts to the bucket holding rank `ceil(p/100 · count)` and report
/// its upper bound, clamped into the observed `[min, max]` so quantiles
/// of a window never leave the range actually seen (and single-value
/// histograms are exact).
fn bucket_percentile(buckets: &[u64; HIST_BUCKETS], count: u64, min: f64, max: f64, p: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    #[allow(clippy::cast_possible_truncation)]
    let rank = ((p / 100.0) * count as f64)
        .ceil()
        .max(1.0)
        .min(count as f64) as u64;
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return bucket_upper(i).clamp(min, max);
        }
    }
    max
}

/// Per-histogram aggregate while recording.
#[derive(Debug, Clone, Copy)]
struct HistAgg {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; HIST_BUCKETS],
}

impl HistAgg {
    fn one(value: f64) -> Self {
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[bucket_index(value)] = 1;
        HistAgg {
            count: 1,
            sum: value,
            min: value,
            max: value,
            buckets,
        }
    }

    fn merge(&mut self, other: &HistAgg) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    fn percentile(&self, p: f64) -> f64 {
        bucket_percentile(&self.buckets, self.count, self.min, self.max, p)
    }
}

/// One gauge cell: the value of the most recent [`gauge_set`] (by the
/// global write sequence, not merge order).
#[derive(Debug, Clone, Copy)]
struct GaugeCell {
    seq: u64,
    value: f64,
}

/// One flight-recorder record: a finished span occurrence.
#[derive(Debug, Clone, Copy)]
struct EventRec {
    name: &'static str,
    id: u64,
    parent: u64,
    thread: u64,
    start_ns: u64,
    end_ns: u64,
}

/// One store of aggregated metrics and staged events — used both
/// per-thread (staging) and globally (registry). Keys are `&'static str`
/// so the hot path never allocates for a name.
#[derive(Debug)]
struct Store {
    spans: BTreeMap<&'static str, SpanAgg>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, GaugeCell>,
    hists: BTreeMap<&'static str, HistAgg>,
    /// Flight-recorder ring: bounded by [`event_capacity`], oldest
    /// dropped first.
    events: VecDeque<EventRec>,
    /// Events evicted from the ring (surfaced as `obs/events/dropped`).
    events_dropped: u64,
    /// Explicit non-empty flushes merged in (surfaced as `obs/flush`).
    flushes: u64,
}

impl Store {
    const fn new() -> Self {
        Store {
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            events: VecDeque::new(),
            events_dropped: 0,
            flushes: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.events.is_empty()
            && self.events_dropped == 0
    }

    fn record_span(&mut self, name: &'static str, ns: u64) {
        match self.spans.get_mut(name) {
            Some(agg) => agg.merge(&SpanAgg::one(ns)),
            None => {
                self.spans.insert(name, SpanAgg::one(ns));
            }
        }
    }

    fn record_counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn record_gauge(&mut self, name: &'static str, cell: GaugeCell) {
        match self.gauges.get_mut(name) {
            Some(mine) if mine.seq >= cell.seq => {}
            Some(mine) => *mine = cell,
            None => {
                self.gauges.insert(name, cell);
            }
        }
    }

    fn record_hist(&mut self, name: &'static str, value: f64) {
        match self.hists.get_mut(name) {
            Some(agg) => agg.merge(&HistAgg::one(value)),
            None => {
                self.hists.insert(name, HistAgg::one(value));
            }
        }
    }

    /// Pushes one event, evicting the oldest past `cap`.
    fn record_event(&mut self, rec: EventRec, cap: usize) {
        if cap == 0 {
            self.events_dropped += 1;
            return;
        }
        self.events.push_back(rec);
        while self.events.len() > cap {
            self.events.pop_front();
            self.events_dropped += 1;
        }
    }

    /// Merges `other` into `self`, leaving `other` empty. The merged
    /// event ring keeps the same bound, evicting earliest-merged first.
    fn absorb(&mut self, other: &mut Store) {
        for (name, agg) in std::mem::take(&mut other.spans) {
            match self.spans.get_mut(name) {
                Some(mine) => mine.merge(&agg),
                None => {
                    self.spans.insert(name, agg);
                }
            }
        }
        for (name, delta) in std::mem::take(&mut other.counters) {
            *self.counters.entry(name).or_insert(0) += delta;
        }
        for (name, cell) in std::mem::take(&mut other.gauges) {
            self.record_gauge(name, cell);
        }
        for (name, agg) in std::mem::take(&mut other.hists) {
            match self.hists.get_mut(name) {
                Some(mine) => mine.merge(&agg),
                None => {
                    self.hists.insert(name, agg);
                }
            }
        }
        self.events.append(&mut other.events);
        self.events_dropped += std::mem::take(&mut other.events_dropped);
        self.flushes += std::mem::take(&mut other.flushes);
        let cap = event_capacity();
        while self.events.len() > cap {
            self.events.pop_front();
            self.events_dropped += 1;
        }
    }
}

/// Thread-local staging store; its `Drop` flushes whatever the thread
/// recorded into the global registry, so short-lived `par_map_result` workers
/// contribute without ever locking mid-sweep.
struct Staging(RefCell<Store>);

impl Drop for Staging {
    fn drop(&mut self) {
        let store = self.0.get_mut();
        if !store.is_empty() {
            let mut global = lock_global();
            global.absorb(store);
            if enabled() {
                global.flushes += 1;
            }
        }
    }
}

thread_local! {
    static STAGING: Staging = const { Staging(RefCell::new(Store::new())) };
}

/// Locks the registry ignoring poisoning: aggregates stay consistent
/// because every write is a complete merge.
fn lock_global() -> std::sync::MutexGuard<'static, Store> {
    GLOBAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Cumulative values at the close of the previous interval tick, per
/// metric. [`snapshot_interval`] subtracts these from the current global
/// aggregates to window the stream, then advances them.
struct IntervalBaseline {
    /// Ticks taken since the last [`reset`]; the next snapshot's
    /// `interval` index.
    ticks: u64,
    counters: BTreeMap<&'static str, u64>,
    /// Per-histogram `(count, sum, buckets)` at the previous tick.
    hists: BTreeMap<&'static str, (u64, f64, [u64; HIST_BUCKETS])>,
    /// Baselines of the self-diagnostic registry fields.
    flushes: u64,
    events_dropped: u64,
}

impl IntervalBaseline {
    const fn new() -> Self {
        IntervalBaseline {
            ticks: 0,
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            flushes: 0,
            events_dropped: 0,
        }
    }
}

impl std::fmt::Debug for IntervalBaseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntervalBaseline")
            .field("ticks", &self.ticks)
            .field("counters", &self.counters.len())
            .field("hists", &self.hists.len())
            .finish_non_exhaustive()
    }
}

fn lock_interval() -> std::sync::MutexGuard<'static, IntervalBaseline> {
    INTERVAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn with_staging(f: impl FnOnce(&mut Store)) {
    // Access during thread teardown (after the staging store was dropped
    // and flushed) falls through to the global registry directly.
    let mut f = Some(f);
    let done = STAGING.try_with(|s| {
        (f.take().expect("first call"))(&mut s.0.borrow_mut());
    });
    if done.is_err() {
        if let Some(f) = f.take() {
            f(&mut lock_global());
        }
    }
}

/// Times a region: records elapsed wall time under `name` when the
/// returned guard drops, plus one flight-recorder event when events are
/// on (parented to the innermost open span on this thread). Inert (no
/// clock read) while recording is disabled at entry.
///
/// ```
/// let _g = mec_obs::span("lp_hta/relaxation");
/// // ... timed work ...
/// ```
#[must_use = "the span measures until the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, None)
}

/// Like [`span`], but links the event to an explicit `parent` span id
/// instead of this thread's innermost open span — the cross-thread edge
/// for fan-out workers. Capture the parent on the coordinating thread
/// with [`current_span_id`] before spawning. With events off this is
/// exactly [`span`].
#[must_use = "the span measures until the guard drops"]
pub fn span_with_parent(name: &'static str, parent: u64) -> SpanGuard {
    open_span(name, Some(parent))
}

fn open_span(name: &'static str, parent: Option<u64>) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            start: None,
            event: None,
        };
    }
    let event = if events_enabled() {
        let parent = parent.unwrap_or_else(current_span_id);
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let _ = SPAN_STACK.try_with(|s| s.borrow_mut().push(id));
        Some(OpenEvent {
            id,
            parent,
            thread: thread_id(),
            start_ns: now_ns(),
        })
    } else {
        None
    };
    SpanGuard {
        name,
        start: Some(Instant::now()),
        event,
    }
}

/// The flight-recorder half of a live span.
#[derive(Debug)]
struct OpenEvent {
    id: u64,
    parent: u64,
    thread: u64,
    start_ns: u64,
}

/// Live span timer returned by [`span`]; see there.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    event: Option<OpenEvent>,
}

impl SpanGuard {
    /// Ends the span now instead of at scope end.
    pub fn finish(self) {
        drop(self);
    }

    /// The flight-recorder id of this span (0 when events are off).
    /// Pass to [`span_with_parent`] on another thread to nest under it.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.event.as_ref().map_or(0, |e| e.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let event = self.event.take();
            if let Some(ev) = &event {
                // Unwind this span from the stack; `rposition` tolerates
                // out-of-order finishes of sibling guards.
                let _ = SPAN_STACK.try_with(|s| {
                    let mut stack = s.borrow_mut();
                    if let Some(pos) = stack.iter().rposition(|&id| id == ev.id) {
                        stack.remove(pos);
                    }
                });
            }
            with_staging(|s| {
                s.record_span(self.name, ns);
                if let Some(ev) = event {
                    s.record_event(
                        EventRec {
                            name: self.name,
                            id: ev.id,
                            parent: ev.parent,
                            thread: ev.thread,
                            start_ns: ev.start_ns,
                            end_ns: ev.start_ns.saturating_add(ns),
                        },
                        event_capacity(),
                    );
                }
            });
        }
    }
}

/// Adds `delta` to the monotonic counter `name` (no-op while disabled).
pub fn counter_add(name: &'static str, delta: u64) {
    if enabled() && delta > 0 {
        with_staging(|s| s.record_counter(name, delta));
    }
}

/// Records one observation of `value` in the histogram `name` (no-op
/// while disabled). Non-finite values are dropped — the JSON export
/// could not represent them anyway.
pub fn observe(name: &'static str, value: f64) {
    if enabled() && value.is_finite() {
        with_staging(|s| s.record_hist(name, value));
    }
}

/// Sets the gauge `name` to `value`, last write wins (no-op while
/// disabled; non-finite values are dropped like [`observe`]). "Last" is
/// decided by a process-global write sequence, so the winner is the most
/// recent *call* even when several threads' staging stores merge into
/// the registry out of order. Gauges report instantaneous state — queue
/// depth, an SLO rate — and appear in both [`snapshot`] and
/// [`snapshot_interval`] at their current value (never windowed).
pub fn gauge_set(name: &'static str, value: f64) {
    if enabled() && value.is_finite() {
        let seq = GAUGE_SEQ.fetch_add(1, Ordering::Relaxed);
        with_staging(|s| s.record_gauge(name, GaugeCell { seq, value }));
    }
}

/// Merges the calling thread's staged metrics and events into the global
/// registry. Worker threads flush automatically on exit; long-lived
/// threads — the main thread between sweeps, the `par_map_result` caller at its
/// join point — call this (or [`snapshot`], which flushes first) so a
/// mid-run snapshot does not silently miss their staged data. Each merge
/// of a non-empty store is counted under `obs/flush`.
pub fn flush_current_thread() {
    let _ = STAGING.try_with(|s| {
        let mut staged = s.0.borrow_mut();
        if !staged.is_empty() {
            let mut global = lock_global();
            global.absorb(&mut staged);
            if enabled() {
                global.flushes += 1;
            }
        }
    });
}

/// Clears the global registry, the calling thread's staging store, and
/// the interval baselines behind [`snapshot_interval`] (the next tick is
/// interval 0 again). Metrics still staged on *other* live threads
/// survive and merge on their next flush.
///
/// The calling thread's staged store is **discarded, not flushed**: a
/// reset between two back-to-back serve sessions in one process must not
/// leak the first session's staged epoch counters into the second
/// session's registry via a later flush. (Regression-tested below —
/// clearing only the global registry would do exactly that.)
pub fn reset() {
    let _ = STAGING.try_with(|s| {
        *s.0.borrow_mut() = Store::new();
    });
    *lock_global() = Store::new();
    *lock_interval() = IntervalBaseline::new();
}

/// Flushes the calling thread and returns the merged aggregates plus any
/// flight-recorder events, sorted by metric name / event start time
/// (deterministic output for caching and tests).
#[must_use]
pub fn snapshot() -> TraceSnapshot {
    flush_current_thread();
    let global = lock_global();
    let mut counters: Vec<CounterStat> = global
        .counters
        .iter()
        .map(|(&name, &value)| CounterStat {
            name: name.to_string(),
            value,
        })
        .collect();
    // Self-diagnostics join the regular counters so drops and flush
    // activity are visible in every export.
    if global.events_dropped > 0 {
        counters.push(CounterStat {
            name: "obs/events/dropped".to_string(),
            value: global.events_dropped,
        });
    }
    if global.flushes > 0 {
        counters.push(CounterStat {
            name: "obs/flush".to_string(),
            value: global.flushes,
        });
    }
    counters.sort_by(|a, b| a.name.cmp(&b.name));
    let mut events: Vec<SpanEvent> = global
        .events
        .iter()
        .map(|e| SpanEvent {
            name: e.name.to_string(),
            id: e.id,
            parent: e.parent,
            thread: e.thread,
            start_ns: e.start_ns,
            end_ns: e.end_ns,
        })
        .collect();
    events.sort_by_key(|e| (e.start_ns, e.id));
    TraceSnapshot {
        version: SCHEMA_VERSION,
        spans: global
            .spans
            .iter()
            .map(|(&name, agg)| SpanStat {
                name: name.to_string(),
                count: agg.count,
                total_ns: agg.total_ns,
                min_ns: agg.min_ns,
                max_ns: agg.max_ns,
            })
            .collect(),
        counters,
        gauges: global
            .gauges
            .iter()
            .map(|(&name, cell)| GaugeStat {
                name: name.to_string(),
                value: cell.value,
            })
            .collect(),
        histograms: global
            .hists
            .iter()
            .map(|(&name, agg)| HistogramStat {
                name: name.to_string(),
                count: agg.count,
                sum: agg.sum,
                min: agg.min,
                max: agg.max,
                p50: agg.percentile(50.0),
                p95: agg.percentile(95.0),
                p99: agg.percentile(99.0),
            })
            .collect(),
        events,
    }
}

/// Closes one telemetry window: flushes the calling thread, computes the
/// delta of every counter and histogram against the baselines stored at
/// the previous tick, advances the baselines, and returns the window.
/// Gauges report their current value. The cumulative registry (and thus
/// [`snapshot`]) is read, never modified, so interval ticks cannot
/// disturb a trace being recorded alongside them.
///
/// Windowed histogram `min`/`max` are bucket-bound estimates tightened
/// by the cumulative extremes (exact per-window extremes would need
/// per-window state on the hot path); the percentiles are nearest-rank
/// over the window's bucket deltas, clamped into that range.
#[must_use]
pub fn snapshot_interval() -> IntervalSnapshot {
    flush_current_thread();
    let global = lock_global();
    let mut base = lock_interval();
    let interval = base.ticks;
    base.ticks += 1;

    let mut counters: Vec<CounterWindow> = Vec::with_capacity(global.counters.len() + 2);
    for (&name, &total) in &global.counters {
        let prev = base.counters.insert(name, total).unwrap_or(0);
        counters.push(CounterWindow {
            name: name.to_string(),
            total,
            delta: total.saturating_sub(prev),
        });
    }
    if global.flushes > 0 {
        counters.push(CounterWindow {
            name: "obs/flush".to_string(),
            total: global.flushes,
            delta: global.flushes.saturating_sub(base.flushes),
        });
        base.flushes = global.flushes;
    }
    if global.events_dropped > 0 {
        counters.push(CounterWindow {
            name: "obs/events/dropped".to_string(),
            total: global.events_dropped,
            delta: global.events_dropped.saturating_sub(base.events_dropped),
        });
        base.events_dropped = global.events_dropped;
    }
    counters.sort_by(|a, b| a.name.cmp(&b.name));

    let gauges: Vec<GaugeStat> = global
        .gauges
        .iter()
        .map(|(&name, cell)| GaugeStat {
            name: name.to_string(),
            value: cell.value,
        })
        .collect();

    let mut histograms: Vec<HistogramWindow> = Vec::with_capacity(global.hists.len());
    for (&name, agg) in &global.hists {
        let (prev_count, prev_sum, prev_buckets) = base
            .hists
            .insert(name, (agg.count, agg.sum, agg.buckets))
            .unwrap_or((0, 0.0, [0u64; HIST_BUCKETS]));
        let count = agg.count.saturating_sub(prev_count);
        let mut buckets = [0u64; HIST_BUCKETS];
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = agg.buckets[i].saturating_sub(prev_buckets[i]);
        }
        // Window extremes: bucket bounds of the occupied range, tightened
        // by the cumulative extremes (which bound every window).
        let first = buckets.iter().position(|&c| c > 0);
        let last = buckets.iter().rposition(|&c| c > 0);
        let (min, max) = match (first, last) {
            (Some(f), Some(l)) => {
                let lower = if f == 0 { 0.0 } else { bucket_upper(f - 1) };
                (lower.max(agg.min), bucket_upper(l).min(agg.max))
            }
            _ => (0.0, 0.0),
        };
        histograms.push(HistogramWindow {
            name: name.to_string(),
            total_count: agg.count,
            count,
            sum: agg.sum - prev_sum,
            min,
            max,
            p50: bucket_percentile(&buckets, count, min, max, 50.0),
            p95: bucket_percentile(&buckets, count, min, max, 95.0),
            p99: bucket_percentile(&buckets, count, min, max, 99.0),
            buckets: sparse_buckets(&buckets),
        });
    }

    IntervalSnapshot {
        interval,
        counters,
        gauges,
        histograms,
    }
}

/// Compresses a window's bucket counts to the Prometheus `le` form:
/// cumulative counts at each *occupied* bucket's upper bound (ascending
/// bounds, non-decreasing counts; the implicit `+Inf` bucket is the
/// window count itself).
fn sparse_buckets(buckets: &[u64; HIST_BUCKETS]) -> Vec<BucketCount> {
    let mut out = Vec::new();
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c > 0 {
            cum += c;
            out.push(BucketCount {
                le: bucket_upper(i),
                count: cum,
            });
        }
    }
    out
}

/// Serializes tests that toggle the process-global registry. Exposed so
/// downstream crates' tests can share the same exclusion.
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        reset();
        set_enabled(true);
        set_events(false);
        set_event_capacity(DEFAULT_EVENT_CAPACITY);
        guard
    }

    /// Counters recorded by the instrumentation under test, without the
    /// `obs/*` self-diagnostics.
    fn user_counters(snap: &TraceSnapshot) -> Vec<(String, u64)> {
        snap.counters
            .iter()
            .filter(|c| !c.name.starts_with("obs/"))
            .map(|c| (c.name.clone(), c.value))
            .collect()
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _x = exclusive();
        set_enabled(false);
        let g = span("test/span");
        drop(g);
        counter_add("test/counter", 5);
        observe("test/hist", 1.0);
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.events.is_empty());
        assert!(snap.is_empty());
    }

    #[test]
    fn spans_counters_histograms_aggregate() {
        let _x = exclusive();
        for _ in 0..3 {
            let _g = span("test/phase");
        }
        counter_add("test/items", 2);
        counter_add("test/items", 3);
        counter_add("test/zero", 0); // dropped: delta 0 records nothing
        observe("test/size", 4.0);
        observe("test/size", 6.0);
        observe("test/nan", f64::NAN); // dropped: non-finite

        let snap = snapshot();
        assert_eq!(snap.spans.len(), 1);
        let s = &snap.spans[0];
        assert_eq!((s.name.as_str(), s.count), ("test/phase", 3));
        assert!(s.min_ns <= s.max_ns && s.total_ns >= s.max_ns);
        assert_eq!(user_counters(&snap), vec![("test/items".to_string(), 5)]);
        assert_eq!(snap.counter("test/items"), Some(5));
        assert_eq!(snap.counter("test/zero"), None);
        assert_eq!(snap.histograms.len(), 1);
        let h = &snap.histograms[0];
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 10.0, 4.0, 6.0));
        // Events stay off unless opted in.
        assert!(snap.events.is_empty());
    }

    #[test]
    fn worker_threads_flush_on_exit() {
        let _x = exclusive();
        // `thread::spawn` + `join`, not `thread::scope`: only a real
        // join waits for TLS destructors, which is where the exit flush
        // runs (see the module docs on the scoped-thread caveat).
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    counter_add("test/worker", i + 1);
                    let _g = span("test/worker_span");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        // No explicit flush by the workers: their staging stores flushed
        // when the threads exited.
        let snap = snapshot();
        assert_eq!(snap.counter("test/worker"), Some(1 + 2 + 3 + 4));
        assert_eq!(snap.span("test/worker_span").map(|s| s.count), Some(4));
        // Four worker flushes are visible in the diagnostics (plus
        // possibly this thread's own).
        assert!(snap.counter("obs/flush").unwrap_or(0) >= 4);
    }

    #[test]
    fn flush_current_thread_makes_midrun_data_visible() {
        let _x = exclusive();
        counter_add("test/staged", 7);
        // Peek at the registry *without* snapshot's implicit flush: the
        // data is still thread-local.
        assert_eq!(lock_global().counters.get("test/staged"), None);
        flush_current_thread();
        assert_eq!(lock_global().counters.get("test/staged"), Some(&7));
        let snap = snapshot();
        assert_eq!(snap.counter("test/staged"), Some(7));
        assert!(snap.counter("obs/flush").unwrap_or(0) >= 1);
    }

    #[test]
    fn reset_clears_everything() {
        let _x = exclusive();
        counter_add("test/c", 1);
        let _ = span("test/s");
        set_events(true);
        drop(span("test/e"));
        reset();
        set_events(false);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let _x = exclusive();
        counter_add("test/b", 1);
        counter_add("test/a", 1);
        counter_add("test/c", 1);
        let names: Vec<String> = snapshot()
            .counters
            .into_iter()
            .map(|c| c.name)
            .filter(|n| !n.starts_with("obs/"))
            .collect();
        assert_eq!(names, ["test/a", "test/b", "test/c"]);
    }

    #[test]
    fn events_record_nesting_on_one_thread() {
        let _x = exclusive();
        set_events(true);
        {
            let outer = span("test/outer");
            assert_eq!(current_span_id(), outer.id());
            let inner = span("test/inner");
            assert_eq!(current_span_id(), inner.id());
            inner.finish();
            assert_eq!(current_span_id(), outer.id());
        }
        assert_eq!(current_span_id(), 0);
        let snap = snapshot();
        assert_eq!(snap.events.len(), 2);
        let outer = snap.events.iter().find(|e| e.name == "test/outer").unwrap();
        let inner = snap.events.iter().find(|e| e.name == "test/inner").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.thread, outer.thread);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns >= inner.start_ns);
        // Aggregates record the same two spans.
        assert_eq!(snap.span("test/outer").map(|s| s.count), Some(1));
        assert_eq!(snap.span("test/inner").map(|s| s.count), Some(1));
    }

    #[test]
    fn events_link_across_threads_with_explicit_parent() {
        let _x = exclusive();
        set_events(true);
        let sweep = span("test/sweep");
        let parent = current_span_id();
        assert_eq!(parent, sweep.id());
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(move || {
                    {
                        let _point = span_with_parent("test/point", parent);
                        let _leaf = span("test/leaf"); // nests under point via the stack
                    }
                    // Scoped workers flush explicitly — the scope's
                    // implicit join does not wait for the exit flush.
                    flush_current_thread();
                });
            }
        });
        sweep.finish();
        let snap = snapshot();
        let sweep_ev = snap.events.iter().find(|e| e.name == "test/sweep").unwrap();
        let points: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.name == "test/point")
            .collect();
        assert_eq!(points.len(), 3);
        for p in &points {
            assert_eq!(p.parent, sweep_ev.id, "worker span links to coordinator");
            assert_ne!(p.thread, sweep_ev.thread);
        }
        for leaf in snap.events.iter().filter(|e| e.name == "test/leaf") {
            assert!(
                points.iter().any(|p| p.id == leaf.parent),
                "leaf nests under its own thread's point span"
            );
        }
    }

    #[test]
    fn event_ring_overflow_drops_oldest_but_keeps_aggregates_exact() {
        let _x = exclusive();
        set_events(true);
        set_event_capacity(4);
        for _ in 0..10 {
            drop(span("test/ring"));
        }
        let snap = snapshot();
        set_event_capacity(DEFAULT_EVENT_CAPACITY);
        // The ring kept the newest 4; 6 were evicted and counted.
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.counter("obs/events/dropped"), Some(6));
        let ids: Vec<u64> = snap.events.iter().map(|e| e.id).collect();
        let max_id = *ids.iter().max().unwrap();
        assert!(
            ids.iter().all(|&id| id > max_id - 4),
            "oldest events dropped first: {ids:?}"
        );
        // Aggregates are exempt from the bound.
        assert_eq!(snap.span("test/ring").map(|s| s.count), Some(10));
    }

    #[test]
    fn zero_capacity_drops_every_event() {
        let _x = exclusive();
        set_events(true);
        set_event_capacity(0);
        drop(span("test/none"));
        let snap = snapshot();
        set_event_capacity(DEFAULT_EVENT_CAPACITY);
        assert!(snap.events.is_empty());
        assert_eq!(snap.counter("obs/events/dropped"), Some(1));
        assert_eq!(snap.span("test/none").map(|s| s.count), Some(1));
    }

    #[test]
    fn bucket_index_is_exact_exponent_math() {
        // Powers of two land in the bucket they bound; anything strictly
        // above spills into the next one.
        assert_eq!(bucket_upper(bucket_index(1.0)), 1.0);
        assert_eq!(bucket_upper(bucket_index(2.0)), 2.0);
        assert_eq!(bucket_upper(bucket_index(2.0000001)), 4.0);
        assert_eq!(bucket_upper(bucket_index(50.0)), 64.0);
        // Zero, negatives and subnormals collapse into bucket 0; huge
        // values saturate into the last bucket.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.5), 0);
        assert_eq!(bucket_index(f64::MIN_POSITIVE / 2.0), 0);
        assert_eq!(bucket_index(1e300), HIST_BUCKETS - 1);
        // The covered range is 2^-30 .. 2^33.
        assert_eq!(bucket_upper(0), 2.0f64.powi(-30));
        assert_eq!(bucket_upper(HIST_BUCKETS - 1), 2.0f64.powi(33));
    }

    #[test]
    fn histogram_percentiles_are_nearest_rank_over_buckets() {
        let _x = exclusive();
        for v in 1..=100 {
            observe("test/latency", f64::from(v));
        }
        let snap = snapshot();
        let h = snap.histogram("test/latency").unwrap();
        assert_eq!(h.count, 100);
        // Rank 50 lands in (32, 64]; the bucket bound is the estimate.
        assert_eq!(h.p50, 64.0);
        // Ranks 95 and 99 land in (64, 128], clamped to the observed max.
        assert_eq!(h.p95, 100.0);
        assert_eq!(h.p99, 100.0);
        // A single-valued histogram is exact at every percentile.
        observe("test/single", 7.25);
        let snap = snapshot();
        let h = snap.histogram("test/single").unwrap();
        assert_eq!((h.p50, h.p95, h.p99), (7.25, 7.25, 7.25));
    }

    #[test]
    fn gauges_are_last_write_wins_across_threads() {
        let _x = exclusive();
        gauge_set("test/depth", 3.0);
        gauge_set("test/depth", 8.0);
        gauge_set("test/nan", f64::NAN); // dropped: non-finite
        let snap = snapshot();
        assert_eq!(snap.gauge("test/depth"), Some(8.0));
        assert_eq!(snap.gauge("test/nan"), None);

        // A worker's earlier write must not clobber the coordinator's
        // later one, no matter when the worker's staging store merges:
        // the worker writes first but its exit flush lands after the
        // main thread's own write below.
        std::thread::spawn(|| gauge_set("test/order", 1.0))
            .join()
            .expect("worker");
        gauge_set("test/order", 2.0);
        assert_eq!(snapshot().gauge("test/order"), Some(2.0));

        // Out-of-order merge, tested on the store level: the staging
        // store holding the *older* write merges last and must lose.
        let mut registry = Store::new();
        let mut late_flusher = Store::new();
        late_flusher.record_gauge("g", GaugeCell { seq: 1, value: 1.0 });
        registry.record_gauge("g", GaugeCell { seq: 2, value: 2.0 });
        registry.absorb(&mut late_flusher);
        assert_eq!(registry.gauges.get("g").map(|c| c.value), Some(2.0));
    }

    #[test]
    fn interval_snapshots_window_counters_and_histograms() {
        let _x = exclusive();
        counter_add("test/items", 5);
        observe("test/ms", 4.0);
        observe("test/ms", 4.0);
        let w0 = snapshot_interval();
        assert_eq!(w0.interval, 0);
        let c = w0.counter("test/items").unwrap();
        assert_eq!((c.total, c.delta), (5, 5));
        let h = w0.histogram("test/ms").unwrap();
        assert_eq!((h.total_count, h.count, h.sum), (2, 2, 8.0));
        assert_eq!((h.p50, h.p95), (4.0, 4.0));
        assert_eq!(h.buckets.len(), 1);
        assert_eq!((h.buckets[0].le, h.buckets[0].count), (4.0, 2));

        // Second window: only the new activity shows as delta, totals
        // keep accumulating, and an idle histogram windows to zero.
        counter_add("test/items", 3);
        gauge_set("test/depth", 9.0);
        let w1 = snapshot_interval();
        assert_eq!(w1.interval, 1);
        let c = w1.counter("test/items").unwrap();
        assert_eq!((c.total, c.delta), (8, 3));
        assert_eq!(w1.gauge("test/depth"), Some(9.0));
        let h = w1.histogram("test/ms").unwrap();
        assert_eq!((h.total_count, h.count, h.sum), (2, 0, 0.0));
        assert!(h.buckets.is_empty());
        assert_eq!((h.p50, h.p95, h.p99), (0.0, 0.0, 0.0));

        // The cumulative snapshot never noticed the interval ticks.
        let snap = snapshot();
        assert_eq!(snap.counter("test/items"), Some(8));
        assert_eq!(snap.histogram("test/ms").map(|h| h.count), Some(2));
    }

    /// The regression the reset fix guards: staged (unflushed) metrics on
    /// the calling thread and the interval baselines must both die with
    /// `reset()`, or a second serve session in the same process inherits
    /// the first one's epoch counters and tick numbering.
    #[test]
    fn reset_drains_staged_state_and_interval_baselines() {
        let _x = exclusive();
        counter_add("test/session", 5); // staged, deliberately unflushed
        let _ = snapshot_interval(); // tick 0: baseline now holds the 5
        reset();
        // Staged data must not resurface via a later flush…
        flush_current_thread();
        assert_eq!(snapshot().counter("test/session"), None);
        // …and the interval plane restarts from tick 0 with no baseline:
        // a fresh 2 reads as delta 2, not as a negative delta or a
        // continuation of the old tick sequence.
        counter_add("test/session", 2);
        let w = snapshot_interval();
        assert_eq!(w.interval, 0);
        let c = w.counter("test/session").unwrap();
        assert_eq!((c.total, c.delta), (2, 2));
    }
}
