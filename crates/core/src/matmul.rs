//! Array multiplication `C = A ⊕.⊗ B` (Definition I.3) with key
//! alignment.
//!
//! The paper's definition assumes `A : K1 × K3` and `B : K3 × K2` share
//! the inner key set. In practice (D4M semantics) the two arrays may
//! carry different inner key sets; multiplication aligns them on the
//! **intersection**, because a key absent from one side contributes
//! only zero terms (`x ⊗ 0 = 0` under condition (c)), which are
//! `⊕`-identities in the fold. The fold over the aligned inner keys
//! runs in ascending key order, left-associated — see `aarray-sparse`.

use crate::array::AArray;
use aarray_algebra::{BinaryOp, OpPair, Value};
use aarray_obs::{
    counters, histograms, journal, Counter, EventKind, Gauge, Hist, OpKind, OpToken, Stage,
};
use aarray_sparse::{spgemm, spgemm_flops, spgemm_parallel};
use std::sync::atomic::{AtomicU64, Ordering};

/// How much multiply-add work a product must involve before the
/// row-parallel kernel is used, unless overridden (see
/// [`parallel_flops_threshold`]). Gating on the [`spgemm_flops`]
/// estimate (the exact number of `⊗` terms the kernel will fold)
/// rather than on operand nnz matters for skewed workloads: a
/// large-nnz `A` against a nearly-empty `B` does almost no work per
/// row and loses more to thread fan-out than it gains, while two
/// modest hyper-sparse operands with dense overlap can merit the
/// parallel path well before either crosses an nnz bar. The parallel
/// path is additionally skipped entirely when rayon has a single
/// worker thread (single-core hosts), where fan-out is pure overhead.
pub const DEFAULT_PARALLEL_FLOPS_THRESHOLD: u64 = 1 << 17;

/// Name of the environment variable overriding the parallel-dispatch
/// flops threshold (a plain `u64`; unset falls back to
/// [`DEFAULT_PARALLEL_FLOPS_THRESHOLD`], an unparsable value does too
/// but is reported — one-time stderr warning plus
/// `Counter::EnvParseError` — instead of being silently absorbed).
pub const PAR_FLOPS_THRESHOLD_ENV: &str = "AARRAY_PAR_FLOPS_THRESHOLD";

/// Cached threshold value, valid only while [`PAR_FLOPS_CACHED`] is 1.
///
/// Set/unset is encoded in a separate flag rather than a `u64::MAX`
/// sentinel: every `u64` is a legitimate threshold (`u64::MAX` means
/// "never parallelize"), so no in-band value can mean "re-read the
/// environment" without making that threshold unpinnable.
static PAR_FLOPS_THRESHOLD: AtomicU64 = AtomicU64::new(0);

/// 0 = cache empty (read the environment on next use), 1 = cached.
static PAR_FLOPS_CACHED: AtomicU64 = AtomicU64::new(0);

/// Parse the threshold override. `Ok` for unset (the default) or a
/// valid `u64`; `Err(raw)` when the variable is set but unparsable
/// (e.g. `"128k"`, negative, trailing junk) so the caller can report
/// the bad value before falling back.
fn parse_threshold(raw: Option<String>) -> Result<u64, String> {
    match raw {
        None => Ok(DEFAULT_PARALLEL_FLOPS_THRESHOLD),
        Some(s) => s.trim().parse().map_err(|_| s),
    }
}

fn threshold_from_env() -> u64 {
    parse_threshold(std::env::var(PAR_FLOPS_THRESHOLD_ENV).ok()).unwrap_or_else(|raw| {
        static WARNED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
        aarray_obs::env_parse_error(
            &WARNED,
            PAR_FLOPS_THRESHOLD_ENV,
            &raw,
            "the default threshold",
        );
        DEFAULT_PARALLEL_FLOPS_THRESHOLD
    })
}

/// The parallel-dispatch flops threshold in effect: the
/// `AARRAY_PAR_FLOPS_THRESHOLD` environment variable if set and
/// parsable, else [`DEFAULT_PARALLEL_FLOPS_THRESHOLD`]. Read once and
/// cached; [`set_parallel_flops_threshold`] overrides or invalidates
/// the cache.
pub fn parallel_flops_threshold() -> u64 {
    if PAR_FLOPS_CACHED.load(Ordering::Acquire) == 1 {
        return PAR_FLOPS_THRESHOLD.load(Ordering::Relaxed);
    }
    let t = threshold_from_env();
    PAR_FLOPS_THRESHOLD.store(t, Ordering::Relaxed);
    PAR_FLOPS_CACHED.store(1, Ordering::Release);
    t
}

/// Override the parallel-dispatch flops threshold for this process
/// (`Some(t)` — any `u64`, including `u64::MAX`, which pins "never
/// parallelize"), or drop back to the environment/default (`None`).
/// A tuning hook for embedders and tests; thread-safe.
pub fn set_parallel_flops_threshold(t: Option<u64>) {
    match t {
        Some(t) => {
            PAR_FLOPS_THRESHOLD.store(t, Ordering::Relaxed);
            PAR_FLOPS_CACHED.store(1, Ordering::Release);
        }
        None => PAR_FLOPS_CACHED.store(0, Ordering::Release),
    }
}

/// Pure form of the dispatch predicate, for callers that pin an
/// explicit threshold (tests, what-if tuning).
pub fn would_parallelize(flops: u64, threshold: u64, nthreads: usize) -> bool {
    nthreads > 1 && flops >= threshold
}

/// Fold the thread pool's task accounting into the obs registry: the
/// pool size visible from this thread ([`Gauge::PoolThreads`]) and,
/// since the last drain, the chunks pool workers ran
/// ([`Counter::PoolTasksLocal`]), the chunks submitters ran on their
/// own fanned-out stages ([`Counter::PoolTasksStolen`]) and the stages
/// that ran inline on the caller ([`Counter::PoolTasksInline`]). The
/// stub's drain is an atomic swap, so concurrent callers partition the
/// counts exactly — nothing is double-reported or lost. Called after
/// every numeric pass that may have fanned out, and exported as
/// [`publish_pool_stats`](crate::publish_pool_stats) so a live sampler
/// can bridge pending tallies into frames mid-workload: the registry
/// is cumulative and shared, so publishing early steals nothing from
/// the workload's own post-mortem drain.
pub(crate) fn record_pool_stats() {
    let c = counters();
    c.store(Gauge::PoolThreads, rayon::current_num_threads() as u64);
    let (local, stolen, inline) = rayon::take_task_stats();
    if local > 0 {
        c.add(Counter::PoolTasksLocal, local);
    }
    if stolen > 0 {
        c.add(Counter::PoolTasksStolen, stolen);
    }
    if inline > 0 {
        c.add(Counter::PoolTasksInline, inline);
    }
}

/// Public bridge for live samplers: fold any pending thread-pool task
/// tallies into the shared counter registry *now*, so a concurrently
/// captured [`aarray_obs::ObsReport`] sees up-to-date `pool.tasks-*`
/// counters mid-workload. Safe to call from any thread at any
/// frequency — the drain is an exact atomic swap and the registry is
/// cumulative, so this never double-counts and never takes counts
/// away from the workload's own post-pass drains.
pub fn publish_pool_stats() {
    record_pool_stats();
}

/// Shared parallel-dispatch decision for [`AArray::matmul`] and
/// [`crate::plan::MatmulPlan`]. Takes the flops estimate lazily so the
/// `O(nnz)` estimate is never computed on single-threaded hosts, where
/// the answer is always "serial". Every decision is recorded in the
/// [`aarray_obs`] registry: which branch won
/// ([`Counter::DispatchSerial`] / [`Counter::DispatchParallel`]) and —
/// when the estimate was computed — the flops value and threshold that
/// drove it ([`Gauge::DispatchLastFlops`] / [`Gauge::DispatchThreshold`]).
pub(crate) fn should_parallelize(flops: impl FnOnce() -> u64) -> bool {
    let threshold = parallel_flops_threshold();
    let mut estimate = 0;
    let parallel = if rayon::current_num_threads() > 1 {
        let f = flops();
        estimate = f;
        counters().store(Gauge::DispatchLastFlops, f);
        counters().store(Gauge::DispatchThreshold, threshold);
        histograms().record(Hist::DispatchFlops, f);
        f >= threshold
    } else {
        // Single worker: always serial, estimate never computed —
        // the journal record carries 0 flops for this fast path.
        false
    };
    counters().incr(if parallel {
        Counter::DispatchParallel
    } else {
        Counter::DispatchSerial
    });
    journal().record(
        if parallel {
            EventKind::DispatchParallel
        } else {
            EventKind::DispatchSerial
        },
        estimate,
        threshold,
    );
    parallel
}

impl<V: Value> AArray<V> {
    /// `self ⊕.⊗ other`, aligning `self`'s column keys with `other`'s
    /// row keys on their intersection.
    ///
    /// The result has `self`'s row keys and `other`'s column keys —
    /// for `E1ᵀ (⊕.⊗) E2` that is exactly "row keys taken from the
    /// column keys of E1 and column keys taken from the column keys of
    /// E2" (Figure 3's caption).
    pub fn matmul<A, M>(&self, other: &AArray<V>, pair: &OpPair<V, A, M>) -> AArray<V>
    where
        A: BinaryOp<V>,
        M: BinaryOp<V>,
    {
        let mut op = OpToken::begin_if_root(OpKind::Matmul);
        // Fast path: identical inner key sets need no realignment.
        let (lhs, rhs);
        let aligned;
        if self.col_keys() == other.row_keys() {
            lhs = self.csr();
            rhs = other.csr();
        } else {
            let (_, left_idx, right_idx) = self.col_keys().intersect(other.row_keys());
            aligned = (
                self.csr().select_cols(&left_idx),
                other.csr().select_rows(&right_idx),
            );
            lhs = &aligned.0;
            rhs = &aligned.1;
        }

        let big = should_parallelize(|| spgemm_flops(lhs, rhs));
        let rows = lhs.nrows() as u64;
        journal().begin(Stage::Numeric, rows);
        let data = if big {
            spgemm_parallel(lhs, rhs, pair)
        } else {
            spgemm(lhs, rhs, pair)
        };
        journal().end(Stage::Numeric, rows);
        record_pool_stats();

        if let Some(t) = op.as_mut() {
            // The dispatch fast path may have skipped the estimate;
            // the ledger recomputes it so the record always carries the
            // op's real work figure (ledger ops are rare relative to
            // the O(flops) kernel they describe).
            t.set_flops(spgemm_flops(lhs, rhs));
            t.set_out_nnz(data.nnz() as u64);
            t.set_lanes(1);
            t.set_dispatch(big, rayon::current_num_threads() as u64);
        }
        let result = AArray::from_parts(self.row_keys().clone(), other.col_keys().clone(), data);
        if let Some(t) = op {
            t.finish();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarray_algebra::pairs::{MaxMin, PlusTimes};
    use aarray_algebra::values::nat::Nat;

    fn pt() -> PlusTimes<Nat> {
        PlusTimes::new()
    }

    #[test]
    fn multiply_with_shared_inner_keys() {
        let pair = pt();
        // E: edges × vertices (incidence-like).
        let a = AArray::from_triples(&pair, [("x", "k1", Nat(2)), ("x", "k2", Nat(3))]);
        let b = AArray::from_triples(&pair, [("k1", "y", Nat(5)), ("k2", "y", Nat(7))]);
        let c = a.matmul(&b, &pair);
        assert_eq!(c.get("x", "y"), Some(&Nat(31)));
        assert_eq!(c.row_keys().keys(), &["x"]);
        assert_eq!(c.col_keys().keys(), &["y"]);
    }

    #[test]
    fn multiply_aligns_on_key_intersection() {
        let pair = pt();
        // a's columns {k1, k2, k3}; b's rows {k2, k3, k4}: align {k2, k3}.
        let a = AArray::from_triples(
            &pair,
            [
                ("r", "k1", Nat(100)),
                ("r", "k2", Nat(2)),
                ("r", "k3", Nat(3)),
            ],
        );
        let b = AArray::from_triples(
            &pair,
            [
                ("k2", "c", Nat(10)),
                ("k3", "c", Nat(10)),
                ("k4", "c", Nat(100)),
            ],
        );
        let c = a.matmul(&b, &pair);
        // Only k2, k3 contribute: 2·10 + 3·10 = 50.
        assert_eq!(c.get("r", "c"), Some(&Nat(50)));
    }

    #[test]
    fn disjoint_inner_keys_give_empty_product() {
        let pair = pt();
        let a = AArray::from_triples(&pair, [("r", "k1", Nat(1))]);
        let b = AArray::from_triples(&pair, [("q9", "c", Nat(1))]);
        let c = a.matmul(&b, &pair);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.shape(), (1, 1));
    }

    #[test]
    fn max_min_matmul() {
        let pair = MaxMin::<Nat>::new();
        let a = AArray::from_triples(&pair, [("r", "k1", Nat(3)), ("r", "k2", Nat(9))]);
        let b = AArray::from_triples(&pair, [("k1", "c", Nat(8)), ("k2", "c", Nat(4))]);
        let c = a.matmul(&b, &pair);
        // max(min(3,8), min(9,4)) = max(3,4) = 4.
        assert_eq!(c.get("r", "c"), Some(&Nat(4)));
    }

    #[test]
    fn auto_parallel_path_matches_serial_under_a_multithread_pool() {
        // Force a 2-worker rayon pool (works even on single-core hosts)
        // and a product heavy enough to cross PARALLEL_FLOPS_THRESHOLD,
        // so the automatic parallel branch actually executes; the result
        // must equal the serial kernel's bit-for-bit. The serial side
        // runs in a 1-worker pool, where dispatch always picks the
        // serial kernel whatever the threshold.
        let pair = pt();
        let n = 200usize;
        let per_row = 100usize;
        let mut t1 = Vec::new();
        let mut t2 = Vec::new();
        let mut x = 7u64;
        for r in 0..n {
            for _ in 0..per_row {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                t1.push((
                    format!("r{:04}", r),
                    format!("k{:04}", (x >> 33) % 400),
                    Nat(x % 9 + 1),
                ));
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                t2.push((
                    format!("k{:04}", (x >> 33) % 400),
                    format!("c{:04}", x % 50),
                    Nat(x % 7 + 1),
                ));
            }
        }
        let a = AArray::from_triples(&pair, t1);
        let b = AArray::from_triples(&pair, t2);
        assert_eq!(
            a.col_keys(),
            b.row_keys(),
            "inner keys must coincide so the flops estimate below is \
             computed on the operands the kernel actually sees"
        );
        assert!(
            spgemm_flops(a.csr(), b.csr()) >= DEFAULT_PARALLEL_FLOPS_THRESHOLD,
            "must cross the dispatch threshold"
        );

        let pool = |threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
        };
        let serial = pool(1).install(|| a.matmul(&b, &pair));
        let parallel = pool(2).install(|| a.matmul(&b, &pair));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn dispatch_gates_on_work_not_operand_size() {
        // Skewed workload: a huge-nnz lhs against a nearly-empty rhs.
        // The old `max(nnz) >= 1<<14` gate fanned out here despite the
        // product folding only a handful of terms; the flops estimate
        // sees the real work and stays serial.
        let pair = pt();
        let mut t1 = Vec::new();
        let mut x = 3u64;
        for r in 0..220usize {
            for _ in 0..100usize {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                t1.push((
                    format!("r{:04}", r),
                    format!("k{:04}", (x >> 33) % 400),
                    Nat(x % 9 + 1),
                ));
            }
        }
        let a = AArray::from_triples(&pair, t1);
        let b = AArray::from_triples(&pair, [("k0000", "c0", Nat(1))]);
        assert!(a.nnz() >= 1 << 14, "lhs alone crossed the old nnz gate");
        let (_, li, ri) = a.col_keys().intersect(b.row_keys());
        let flops = spgemm_flops(&a.csr().select_cols(&li), &b.csr().select_rows(&ri));
        assert!(
            flops < DEFAULT_PARALLEL_FLOPS_THRESHOLD,
            "the product itself is tiny ({} terms)",
            flops
        );
        // Pin the threshold explicitly: the global one may be briefly
        // overridden by the env-var test running concurrently.
        assert!(!would_parallelize(
            flops,
            DEFAULT_PARALLEL_FLOPS_THRESHOLD,
            8
        ));
    }

    #[test]
    fn threshold_env_override_forces_both_branches() {
        // The env var is read through parallel_flops_threshold(); force
        // a re-read around each setting, then restore the default so
        // concurrently running tests see a sane global afterwards.
        std::env::set_var(PAR_FLOPS_THRESHOLD_ENV, "1");
        set_parallel_flops_threshold(None);
        assert_eq!(parallel_flops_threshold(), 1);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let before = aarray_obs::snapshot();
        // 10 flops ≥ threshold 1 under a 2-thread pool: parallel branch.
        assert!(pool.install(|| should_parallelize(|| 10)));
        std::env::set_var(PAR_FLOPS_THRESHOLD_ENV, "1000000000000");
        set_parallel_flops_threshold(None);
        assert_eq!(parallel_flops_threshold(), 1_000_000_000_000);
        // Same flops under a huge threshold: serial branch.
        assert!(!pool.install(|| should_parallelize(|| 10)));
        let delta = aarray_obs::snapshot().since(&before);
        assert!(delta.get(aarray_obs::Counter::DispatchParallel) >= 1);
        assert!(delta.get(aarray_obs::Counter::DispatchSerial) >= 1);
        // The driving flops value was recorded (concurrent tests may
        // overwrite the last-value gauge, but never with zero).
        assert!(delta.gauge(aarray_obs::Gauge::DispatchLastFlops) > 0);

        // Unparsable value: documented default, plus the parse error is
        // *reported* — counted in the registry (warning text is covered
        // by the obsctl e2e suite, which owns a quiet stderr).
        let before = aarray_obs::snapshot();
        std::env::set_var(PAR_FLOPS_THRESHOLD_ENV, "128k");
        set_parallel_flops_threshold(None);
        assert_eq!(parallel_flops_threshold(), DEFAULT_PARALLEL_FLOPS_THRESHOLD);
        let delta = aarray_obs::snapshot().since(&before);
        assert!(
            delta.get(aarray_obs::Counter::EnvParseError) >= 1,
            "unparsable threshold must bump env.parse-error"
        );

        // Regression (former u64::MAX unset-sentinel): a pinned
        // `u64::MAX` threshold must survive an env change + re-reads,
        // not silently decay into "unset, re-read the environment".
        std::env::set_var(PAR_FLOPS_THRESHOLD_ENV, "1");
        set_parallel_flops_threshold(Some(u64::MAX));
        assert_eq!(parallel_flops_threshold(), u64::MAX);
        std::env::set_var(PAR_FLOPS_THRESHOLD_ENV, "7");
        assert_eq!(
            parallel_flops_threshold(),
            u64::MAX,
            "explicit pin must shadow the environment until unset"
        );
        set_parallel_flops_threshold(None);
        assert_eq!(parallel_flops_threshold(), 7, "None drops back to env");

        std::env::remove_var(PAR_FLOPS_THRESHOLD_ENV);
        set_parallel_flops_threshold(Some(DEFAULT_PARALLEL_FLOPS_THRESHOLD));
        assert_eq!(parallel_flops_threshold(), DEFAULT_PARALLEL_FLOPS_THRESHOLD);
    }

    #[test]
    fn unparsable_env_threshold_falls_back_to_default() {
        // Parse-failure path, tested without touching the process env
        // (the env-mutating test above must stay the only one).
        assert_eq!(
            parse_threshold(Some("not-a-number".into())),
            Err("not-a-number".into())
        );
        assert_eq!(parse_threshold(Some("128k".into())), Err("128k".into()));
        assert_eq!(parse_threshold(Some("-3".into())), Err("-3".into()));
        assert_eq!(
            parse_threshold(Some("42 junk".into())),
            Err("42 junk".into())
        );
        assert_eq!(parse_threshold(None), Ok(DEFAULT_PARALLEL_FLOPS_THRESHOLD));
        assert_eq!(parse_threshold(Some(" 42 ".into())), Ok(42));
        assert_eq!(
            parse_threshold(Some(u64::MAX.to_string())),
            Ok(u64::MAX),
            "u64::MAX is a legitimate, pinnable threshold"
        );
    }
}
