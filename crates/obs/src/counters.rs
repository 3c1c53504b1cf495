//! The always-on kernel counter registry.
//!
//! One process-wide table of relaxed atomic counters ([`Counter`]) and
//! last-value gauges ([`Gauge`]). Kernels record events with
//! [`Registry::incr`] / [`Registry::add`] / [`Registry::store`];
//! analysis code takes [`Snapshot`]s and diffs them around a workload:
//!
//! ```
//! use aarray_obs::{counters, Counter};
//!
//! let before = aarray_obs::snapshot();
//! counters().incr(Counter::FusedTraversals);
//! counters().add(Counter::FusedLanes, 7);
//! let delta = aarray_obs::snapshot().since(&before);
//! assert_eq!(delta.get(Counter::FusedTraversals), 1);
//! assert_eq!(delta.get(Counter::FusedLanes), 7);
//! println!("{}", delta);
//! ```
//!
//! All operations are `Ordering::Relaxed`: the registry observes
//! monotone event totals, never synchronizes data, so no fence is
//! needed and the cost is a single uncontended atomic RMW (~1–5 ns).
//! Counts from concurrently running work interleave — diff-based
//! assertions should use `>=` unless the process is otherwise quiet.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone event counters, one per kernel decision the execution
/// layer can take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// `KeySet::intersect` served by the shared-`Arc` identity path.
    IntersectArcIdentity,
    /// `KeySet::intersect` served by the contiguous-prefix path
    /// (subsumes equal-but-distinct storage).
    IntersectPrefix,
    /// `KeySet::intersect` short-circuited by disjoint key ranges.
    IntersectDisjointRange,
    /// `KeySet::intersect` fell through to the general merge walk.
    IntersectMerge,
    /// A plan's symbolic pattern was computed (cold `OnceLock`).
    PlanSymbolicMiss,
    /// A plan execute reused the memoized symbolic pattern.
    PlanSymbolicHit,
    /// A plan laid out its edge-major gather of `Eout` at construction
    /// (it replaced the plan's transpose; the name stays).
    PlanTransposeBuilt,
    /// A plan execute was served by the plan's gathered rows (work a
    /// planless `transpose().matmul(..)` would redo).
    PlanTransposeReused,
    /// Serial kernel chosen by the flops-based dispatch.
    DispatchSerial,
    /// Row-parallel kernel chosen by the flops-based dispatch.
    DispatchParallel,
    /// One-pair SpGEMM runs (the one-pass SPA kernel).
    KernelSpa,
    /// One-pair SpGEMM ran row-parallel.
    KernelParallel,
    /// Fused multi-semiring numeric traversals executed.
    FusedTraversals,
    /// Total accumulator lanes across fused traversals.
    FusedLanes,
    /// Fused traversals that ran row-parallel.
    FusedParallel,
    /// Cumulative `⊗`-term count of executed products (where the
    /// dispatch estimate was computed).
    FlopsTotal,
    /// An observability/dispatch environment variable was set but
    /// unparsable; the documented default was used instead (warned once
    /// per variable on stderr).
    EnvParseError,
    /// Lanes an incremental refresh brought current by replaying its
    /// pending batches' delta products, one per lane and refresh. Each
    /// batch folds into the lane's values in place, or merges into the
    /// whole lane when it brings a key or an entry the lane lacks, or a
    /// sum equal to the pair's zero.
    IncrementalApply,
    /// Incremental update degraded to a full rebuild (non-associative
    /// `⊕`, or a batch that violated the append-only key contract).
    IncrementalFallback,
    /// Edge batches appended through an `IncidenceBuilder`.
    IncrementalBatches,
    /// Edges appended across all batches.
    IncrementalEdges,
    /// Delta SpGEMM traversals executed (one per refresh that took the
    /// incremental path, covering all fused lanes).
    DeltaTraversals,
    /// Thread-pool chunks run by a pool worker.
    PoolTasksLocal,
    /// Thread-pool chunks run by the submitting thread on the region it
    /// fanned out. Every chunk is claimed from one shared cursor, so
    /// this is the submitter's share of a fanned-out stage; the name is
    /// that of a work-stealing pool, where the submitter steals from
    /// the one worker deque of a 2-thread pool.
    PoolTasksStolen,
    /// Work executed inline on the submitting thread without the pool:
    /// parallel stages that ran as one chunk on the caller (pool size
    /// ≤ 1, one item, or a stage nested in a chunk) plus serial
    /// kernel/fused traversals that never consulted the pool at all.
    /// Nonzero here is the proof that single-thread runs did real work
    /// even when `pool.tasks-local` stays 0.
    PoolTasksInline,
    /// `KeyDict::intern_sorted` resolved a key already in the
    /// dictionary.
    InternHit,
    /// `KeyDict::intern_sorted` assigned a fresh id (dictionary grew).
    InternMiss,
    /// `KeySet::intersect` ran the integer rank-merge walk (same
    /// dictionary, zero string comparisons).
    IntersectIdSpace,
    /// `KeySet::from_sorted_unique` received keys that were not sorted
    /// and deduplicated, and repaired them (contract violation by the
    /// caller; warned once on stderr).
    KeysSortRepair,
}

/// Last-value gauges (stores, not sums).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// The flops estimate that drove the most recent dispatch decision.
    DispatchLastFlops,
    /// The parallel-dispatch flops threshold in effect at the most
    /// recent decision.
    DispatchThreshold,
    /// Size of the rayon pool observed at the most recent parallel
    /// kernel (threads, including the submitting one).
    PoolThreads,
    /// Heap bytes held by the process-global key dictionary (interned
    /// strings plus id tables), published after each growth.
    InternDictBytes,
}

const N_COUNTERS: usize = Counter::KeysSortRepair as usize + 1;
const N_GAUGES: usize = Gauge::InternDictBytes as usize + 1;

/// Every counter with its report label, in display order.
pub const COUNTER_NAMES: [(Counter, &str); N_COUNTERS] = [
    (Counter::IntersectArcIdentity, "intersect.arc-identity"),
    (Counter::IntersectPrefix, "intersect.prefix"),
    (Counter::IntersectDisjointRange, "intersect.disjoint-range"),
    (Counter::IntersectMerge, "intersect.merge"),
    (Counter::PlanSymbolicMiss, "plan.symbolic-miss"),
    (Counter::PlanSymbolicHit, "plan.symbolic-hit"),
    (Counter::PlanTransposeBuilt, "plan.transpose-built"),
    (Counter::PlanTransposeReused, "plan.transpose-reused"),
    (Counter::DispatchSerial, "dispatch.serial"),
    (Counter::DispatchParallel, "dispatch.parallel"),
    (Counter::KernelSpa, "kernel.spa"),
    (Counter::KernelParallel, "kernel.parallel"),
    (Counter::FusedTraversals, "fused.traversals"),
    (Counter::FusedLanes, "fused.lanes"),
    (Counter::FusedParallel, "fused.parallel"),
    (Counter::FlopsTotal, "flops.total"),
    (Counter::EnvParseError, "env.parse-error"),
    (Counter::IncrementalApply, "incremental.apply"),
    (Counter::IncrementalFallback, "incremental.fallback"),
    (Counter::IncrementalBatches, "incremental.batches"),
    (Counter::IncrementalEdges, "incremental.edges"),
    (Counter::DeltaTraversals, "delta.traversals"),
    (Counter::PoolTasksLocal, "pool.tasks-local"),
    (Counter::PoolTasksStolen, "pool.tasks-stolen"),
    (Counter::PoolTasksInline, "pool.tasks-inline"),
    (Counter::InternHit, "intern.hits"),
    (Counter::InternMiss, "intern.misses"),
    (Counter::IntersectIdSpace, "intersect.id-space"),
    (Counter::KeysSortRepair, "keys.sort-repair"),
];

/// Every gauge with its report label, in display order.
pub const GAUGE_NAMES: [(Gauge, &str); N_GAUGES] = [
    (Gauge::DispatchLastFlops, "dispatch.last-flops"),
    (Gauge::DispatchThreshold, "dispatch.threshold"),
    (Gauge::PoolThreads, "pool.threads"),
    (Gauge::InternDictBytes, "intern.dict-bytes"),
];

/// The process-wide counter table. Obtain via [`counters`].
pub struct Registry {
    cells: [AtomicU64; N_COUNTERS],
    gauges: [AtomicU64; N_GAUGES],
}

impl Registry {
    const fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the arrays element-wise.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Registry {
            cells: [ZERO; N_COUNTERS],
            gauges: [ZERO; N_GAUGES],
        }
    }

    /// Increment `c` by one.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.cells[c as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Increment `c` by `n`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.cells[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Store `v` into gauge `g` (last write wins).
    #[inline]
    pub fn store(&self, g: Gauge, v: u64) {
        self.gauges[g as usize].store(v, Ordering::Relaxed);
    }

    /// Current value of counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.cells[c as usize].load(Ordering::Relaxed)
    }

    /// Current value of gauge `g`.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].load(Ordering::Relaxed)
    }

    /// Capture every counter and gauge.
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        for i in 0..N_COUNTERS {
            s.counters[i] = self.cells[i].load(Ordering::Relaxed);
        }
        for i in 0..N_GAUGES {
            s.gauges[i] = self.gauges[i].load(Ordering::Relaxed);
        }
        s
    }

    /// Zero every counter and gauge. Counts recorded by concurrently
    /// running threads between the constituent stores may survive;
    /// prefer snapshot diffs for measurements.
    pub fn reset(&self) {
        for c in &self.cells {
            c.store(0, Ordering::Relaxed);
        }
        for g in &self.gauges {
            g.store(0, Ordering::Relaxed);
        }
    }
}

static REGISTRY: Registry = Registry::new();

/// The process-wide [`Registry`].
#[inline]
pub fn counters() -> &'static Registry {
    &REGISTRY
}

/// Record a failed environment-variable parse: bumps
/// [`Counter::EnvParseError`] and emits a stderr warning **once** per
/// call site — `once` is a `static AtomicBool` owned by the caller, one
/// per variable, so repeated re-reads of the same bad value stay quiet
/// after the first report while the counter keeps the true event count.
pub fn env_parse_error(
    once: &'static std::sync::atomic::AtomicBool,
    var: &str,
    raw: &str,
    fallback: &str,
) {
    counters().incr(Counter::EnvParseError);
    if !once.swap(true, Ordering::Relaxed) {
        eprintln!(
            "aarray: warning: ignoring unparsable {}={:?}; using {}",
            var, raw, fallback
        );
    }
}

/// Shorthand for `counters().snapshot()`.
pub fn snapshot() -> Snapshot {
    REGISTRY.snapshot()
}

/// A point-in-time copy of the registry — also the *diff* type
/// ([`Snapshot::since`]) and the report type (`Display`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    counters: [u64; N_COUNTERS],
    gauges: [u64; N_GAUGES],
}

// Manual: `[u64; N]` only derives `Default` up to N = 32 on this
// toolchain, and the counter table has outgrown that.
impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            counters: [0; N_COUNTERS],
            gauges: [0; N_GAUGES],
        }
    }
}

impl Snapshot {
    /// Value of counter `c` in this snapshot.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Value of gauge `g` in this snapshot.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Counter-wise difference `self − earlier` (saturating, so a
    /// concurrent [`Registry::reset`] cannot underflow). Gauges carry
    /// over from `self` — they are last-values, not sums.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut d = self.clone();
        for i in 0..N_COUNTERS {
            d.counters[i] = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        d
    }

    /// Sum of all counters (total recorded events; gauges excluded).
    pub fn total_events(&self) -> u64 {
        self.counters.iter().sum()
    }

    /// Difference `self − earlier` packaged for display: rendering
    /// skips zero-delta counters and gauges unless `full` is set, so a
    /// figure's delta shows only the events it actually caused.
    pub fn diff(&self, earlier: &Snapshot, full: bool) -> SnapshotDiff {
        SnapshotDiff {
            delta: self.since(earlier),
            full,
        }
    }
}

/// A displayable [`Snapshot::diff`]: the same numbers as
/// [`Snapshot::since`], rendered name-sorted and (unless `full`)
/// without zero-delta entries.
#[derive(Clone, Debug)]
pub struct SnapshotDiff {
    /// The counter-wise delta (gauges carried from the later snapshot).
    pub delta: Snapshot,
    full: bool,
}

impl fmt::Display for SnapshotDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_registry(f, &self.delta, self.full)
    }
}

/// Shared renderer: name-sorted counters then gauges, optionally
/// eliding zero entries.
fn write_registry(f: &mut fmt::Formatter<'_>, snap: &Snapshot, full: bool) -> fmt::Result {
    writeln!(f, "counter registry")?;
    let mut counters: Vec<(&str, u64)> = COUNTER_NAMES
        .iter()
        .map(|&(c, name)| (name, snap.get(c)))
        .collect();
    counters.sort_by_key(|&(name, _)| name);
    let mut shown = 0usize;
    for (name, v) in counters {
        if full || v != 0 {
            writeln!(f, "  {:<26} {:>12}", name, v)?;
            shown += 1;
        }
    }
    let mut gauges: Vec<(&str, u64)> = GAUGE_NAMES
        .iter()
        .map(|&(g, name)| (name, snap.gauge(g)))
        .collect();
    gauges.sort_by_key(|&(name, _)| name);
    for (name, v) in gauges {
        if full || v != 0 {
            writeln!(f, "  {:<26} {:>12}  (gauge)", name, v)?;
            shown += 1;
        }
    }
    if shown == 0 {
        writeln!(f, "  (no nonzero entries)")?;
    }
    Ok(())
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_registry(f, self, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_add_and_diff() {
        let before = snapshot();
        counters().incr(Counter::IntersectMerge);
        counters().add(Counter::FlopsTotal, 41);
        counters().incr(Counter::FlopsTotal);
        let delta = snapshot().since(&before);
        assert_eq!(delta.get(Counter::IntersectMerge), 1);
        assert_eq!(delta.get(Counter::FlopsTotal), 42);
        assert!(delta.total_events() >= 43);
    }

    #[test]
    fn gauges_store_last_value() {
        counters().store(Gauge::DispatchLastFlops, 7);
        counters().store(Gauge::DispatchLastFlops, 9);
        assert_eq!(snapshot().gauge(Gauge::DispatchLastFlops), 9);
    }

    #[test]
    fn display_lists_every_counter() {
        let report = snapshot().to_string();
        for (_, name) in COUNTER_NAMES {
            assert!(report.contains(name), "report missing {}", name);
        }
        assert!(report.contains("dispatch.threshold"));
    }

    #[test]
    fn diff_saturates_instead_of_underflowing() {
        let mut later = Snapshot::default();
        let mut earlier = Snapshot::default();
        later.counters[0] = 1;
        earlier.counters[0] = 5;
        assert_eq!(later.since(&earlier).counters[0], 0);
    }

    #[test]
    fn names_are_in_enum_order() {
        for (i, (c, _)) in COUNTER_NAMES.iter().enumerate() {
            assert_eq!(*c as usize, i, "COUNTER_NAMES[{}] out of order", i);
        }
    }

    #[test]
    fn display_is_name_sorted() {
        let report = snapshot().to_string();
        let lines: Vec<&str> = report
            .lines()
            .skip(1)
            .filter(|l| !l.contains("(gauge)"))
            .map(|l| l.trim_start())
            .collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted, "counters must render name-sorted");
    }

    #[test]
    fn diff_skips_zero_deltas_unless_full() {
        let before = snapshot();
        counters().incr(Counter::PlanTransposeBuilt);
        let after = snapshot();
        let compact = after.diff(&before, false).to_string();
        assert!(compact.contains("plan.transpose-built"), "{}", compact);
        // Pin a counter this test binary never touches: with a
        // process-quiet registry its delta is zero and must be elided.
        let d = after.since(&before);
        if d.get(Counter::DeltaTraversals) == 0 {
            assert!(!compact.contains("delta.traversals"), "{}", compact);
        }
        let full = after.diff(&before, true).to_string();
        for (_, name) in COUNTER_NAMES {
            assert!(full.contains(name), "full diff missing {}", name);
        }
    }

    #[test]
    fn env_parse_error_counts_every_event_and_warns_once() {
        use std::sync::atomic::AtomicBool;
        static ONCE: AtomicBool = AtomicBool::new(false);
        let before = snapshot();
        env_parse_error(&ONCE, "AARRAY_TEST_VAR", "128k", "the default");
        env_parse_error(&ONCE, "AARRAY_TEST_VAR", "128k", "the default");
        let delta = snapshot().since(&before);
        assert!(delta.get(Counter::EnvParseError) >= 2);
        assert!(ONCE.load(Ordering::Relaxed), "warning flag must latch");
    }

    #[test]
    fn all_zero_diff_renders_placeholder() {
        let s = Snapshot::default();
        let compact = s.diff(&Snapshot::default(), false).to_string();
        assert!(compact.contains("(no nonzero entries)"), "{}", compact);
    }
}
