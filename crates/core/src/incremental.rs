//! Incremental adjacency maintenance: append edge batches to a growing
//! incidence pair and keep cached adjacency arrays current without
//! recomputing `Eᵀout ⊕.⊗ Ein` from scratch.
//!
//! # The update formula, and why it collapses
//!
//! For an appended batch `ΔE`, the exact update is
//! `A' = A ⊕ (ΔEᵀout·Ein ⊕ Eᵀout·ΔEin ⊕ ΔEᵀout·ΔEin)`. The cross terms
//! contract over the *edge-key* dimension, and an appended batch shares
//! no edge key with the prior incidence (duplicate edge keys are
//! rejected), so both cross products are structurally empty. What
//! remains is one batch-local product per `⊕.⊗` lane —
//! [`aarray_sparse::spgemm_delta::spgemm_delta`] computes all lanes in
//! a single fused traversal — followed by one union `⊕`-merge per lane
//! ([`AArray::ewise_add_dyn`]), which also grows the vertex key sets.
//!
//! # When the incremental result is bit-identical
//!
//! A from-scratch rebuild folds each output entry left-associated over
//! **all** edge keys ascending. The incremental path folds the old
//! edges first (that fold is the cached entry) and the batch edges
//! after. The two agree exactly when
//!
//! 1. `⊕` is associative — witnessed by the
//!    [`aarray_algebra::AssociativePlus`] capability, surfaced at
//!    runtime as [`DynOpPair::plus_associative`]; and
//! 2. batch edge keys sort strictly **after** every existing edge key,
//!    so "old fold, then batch fold" is the ascending fold order.
//!
//! (Pruned zeros cannot break this: zero is the `⊕`-identity, so a
//! pruned partial fold re-enters the continued fold as a no-op.)
//!
//! Lanes whose `⊕` is not associative — e.g. `+.×` over floating-point
//! `NN`, the paper's Figure 3 headline pair — and refreshes crossing an
//! out-of-order batch degrade to a **counted full rebuild**
//! ([`Counter::IncrementalFallback`]): correctness never depends on the
//! fast path applying, only latency does.
//!
//! ```
//! use aarray_core::incremental::{AdjacencyView, IncidenceBuilder};
//! use aarray_core::prelude::*;
//!
//! let pair = PlusTimes::<Nat>::new();
//! let eout = AArray::from_triples(&pair, [("e01", "alice", Nat(1))]);
//! let ein = AArray::from_triples(&pair, [("e01", "bob", Nat(1))]);
//! let mut builder = IncidenceBuilder::new(eout, ein).unwrap();
//! let mut view = AdjacencyView::new(&builder, vec![&pair]);
//!
//! let d_out = AArray::from_triples(&pair, [("e02", "bob", Nat(1))]);
//! let d_in = AArray::from_triples(&pair, [("e02", "carol", Nat(1))]);
//! builder.append_batch(d_out, d_in).unwrap();
//! view.refresh(&builder);
//! assert_eq!(view.lane(0).get("bob", "carol"), Some(&Nat(1)));
//! ```

use crate::array::AArray;
use crate::incidence::adjacency_plan;
use crate::keys::KeySet;
use crate::matmul::{parallel_flops_threshold, would_parallelize};
use aarray_algebra::dynpair::DynOpPair;
use aarray_algebra::Value;
use aarray_obs::{counters, histograms, journal, Counter, EventKind, Hist, OpKind, OpToken, Stage};
use aarray_sparse::spgemm_delta::spgemm_delta;
use aarray_sparse::Csr;
use std::fmt;
use std::sync::OnceLock;

/// Why an appended batch was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// The out- and in-blocks disagree on the batch's edge keys. Both
    /// must be `Δedges × vertices` over the same edge-key rows.
    EdgeKeysMismatch,
    /// The batch stores no entries: nothing to append.
    EmptyBatch,
    /// A batch edge key already exists in the builder. Edge keys name
    /// edges; appending one twice would silently `⊕`-merge two distinct
    /// edges into one.
    DuplicateEdgeKey(String),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::EdgeKeysMismatch => {
                write!(f, "batch out/in blocks disagree on edge keys")
            }
            BatchError::EmptyBatch => write!(f, "batch stores no entries"),
            BatchError::DuplicateEdgeKey(k) => {
                write!(f, "batch edge key {:?} already appended", k)
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// What [`IncidenceBuilder::append_batch`] did with an accepted batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchKind {
    /// Batch edge keys sort strictly after all existing edge keys: the
    /// batch is logged and eligible for incremental view refresh.
    Ordered,
    /// Batch edge keys interleave with existing ones. The cumulative
    /// incidence is still correct, but ascending-fold order can no
    /// longer be decomposed as "old, then new", so views crossing this
    /// batch must fully rebuild.
    OutOfOrder,
}

/// One logged append. Together with the initial pair, the logged
/// blocks are the storage of the cumulative incidence.
struct LogEntry<V: Value> {
    d_out: AArray<V>,
    d_in: AArray<V>,
    /// Whether the batch was [`BatchKind::Ordered`]. Views whose
    /// refresh crosses an out-of-order entry cannot replay deltas and
    /// must rebuild.
    ordered: bool,
}

/// A cumulative incidence pair `(Eout, Ein)`.
type Pair<V> = (AArray<V>, AArray<V>);

/// A growing incidence pair `(Eout, Ein)` accepting appended edge
/// batches, with a generation counter for staleness tracking.
///
/// Both arrays are `edges × vertices` (Definition I.4 orientation) and
/// always share their edge-key row set. The builder is pair-agnostic,
/// like [`AArray`] itself: values are stored as given and only
/// interpreted when a view multiplies them under concrete `⊕.⊗` lanes.
///
/// The appended blocks are the storage: an ordered append is a push
/// onto the batch log, and the stacked cumulative pair is built only
/// when something reads it (see [`IncidenceBuilder::eout`]).
pub struct IncidenceBuilder<V: Value> {
    /// The stacked cumulative pair as of `log[..base_len]`.
    base: Pair<V>,
    base_len: usize,
    /// `base` plus the pending blocks `log[base_len..]`, stacked on
    /// first read. Only `append_batch` changes the log, and it first
    /// takes a filled cache as the new `base`.
    cache: OnceLock<Pair<V>>,
    /// `log[g]` records the append that produced generation `g + 1`.
    log: Vec<LogEntry<V>>,
    /// Row keys of the block holding the largest edge key: the ordered
    /// check of the next batch runs against these alone.
    last_rows: KeySet,
    n_edges: usize,
}

impl<V: Value> IncidenceBuilder<V> {
    /// Start from an initial incidence pair (generation 0). Fails with
    /// [`BatchError::EdgeKeysMismatch`] if the two arrays disagree on
    /// their edge-key rows.
    pub fn new(eout: AArray<V>, ein: AArray<V>) -> Result<Self, BatchError> {
        if eout.row_keys() != ein.row_keys() {
            return Err(BatchError::EdgeKeysMismatch);
        }
        Ok(IncidenceBuilder {
            last_rows: eout.row_keys().clone(),
            n_edges: eout.row_keys().len(),
            base: (eout, ein),
            base_len: 0,
            cache: OnceLock::new(),
            log: Vec::new(),
        })
    }

    /// The cumulative out-incidence `Eout` (edges × out-vertices).
    ///
    /// The first read after ordered appends stacks the pending blocks
    /// onto the last stacked pair, `O(total nnz)` once; later reads
    /// until the next append are free.
    pub fn eout(&self) -> &AArray<V> {
        &self.cumulative().0
    }

    /// The cumulative in-incidence `Ein` (edges × in-vertices); built
    /// as [`IncidenceBuilder::eout`] is.
    pub fn ein(&self) -> &AArray<V> {
        &self.cumulative().1
    }

    /// The builder's generation: 0 at construction, +1 per accepted
    /// batch. Views and plans stamped with an older generation are
    /// stale.
    pub fn generation(&self) -> u64 {
        self.log.len() as u64
    }

    /// Number of edges (rows) accumulated so far.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Append an edge batch `(ΔEout, ΔEin)`, both `Δedges × vertices`
    /// over the same fresh edge keys. Vertex columns not seen before
    /// grow the cumulative key sets (union growth).
    ///
    /// Returns how the batch was classified: [`BatchKind::Ordered`]
    /// batches are eligible for incremental view refresh; accepted
    /// [`BatchKind::OutOfOrder`] batches force crossing views to
    /// rebuild (see the module docs for why fold order matters).
    ///
    /// An ordered batch costs `O(batch)`: it is checked against the
    /// block holding the largest edge key and pushed onto the log. An
    /// out-of-order batch may collide with any earlier edge key, so it
    /// is stacked with the whole incidence at once, `O(total nnz)`; the
    /// stacking finds collisions, and the barrier refresh that follows
    /// reads the result without building again.
    pub fn append_batch(
        &mut self,
        d_out: AArray<V>,
        d_in: AArray<V>,
    ) -> Result<BatchKind, BatchError> {
        if d_out.row_keys() != d_in.row_keys() {
            return Err(BatchError::EdgeKeysMismatch);
        }
        if d_out.row_keys().is_empty() {
            return Err(BatchError::EmptyBatch);
        }
        // A pair some reader stacked covers the whole log: keep it as
        // the base so later builds only extend it.
        if let Some(built) = self.cache.take() {
            self.base = built;
            self.base_len = self.log.len();
        }
        let batch_keys = d_out.row_keys();
        // Integer-space ordering check: no string materialization.
        let ordered = batch_keys.all_after(&self.last_rows);
        if ordered {
            self.last_rows = batch_keys.clone();
        } else {
            let (pair, max_block) = {
                let mut blocks = self.pending_blocks();
                blocks.push((&d_out, &d_in));
                stack_blocks(&blocks)?
            };
            if max_block == self.log.len() - self.base_len + 1 {
                self.last_rows = batch_keys.clone();
            }
            self.base = pair;
            self.base_len = self.log.len() + 1;
        }

        let n_batch_edges = batch_keys.len();
        counters().incr(Counter::IncrementalBatches);
        counters().add(Counter::IncrementalEdges, n_batch_edges as u64);
        histograms().record(Hist::DeltaBatchEdges, n_batch_edges as u64);
        self.n_edges += n_batch_edges;
        self.log.push(LogEntry {
            d_out,
            d_in,
            ordered,
        });
        Ok(if ordered {
            BatchKind::Ordered
        } else {
            BatchKind::OutOfOrder
        })
    }

    /// The stacked base followed by the pending logged blocks.
    fn pending_blocks(&self) -> Vec<(&AArray<V>, &AArray<V>)> {
        std::iter::once((&self.base.0, &self.base.1))
            .chain(
                self.log[self.base_len..]
                    .iter()
                    .map(|e| (&e.d_out, &e.d_in)),
            )
            .collect()
    }

    /// The cumulative pair, stacking pending blocks on first read.
    fn cumulative(&self) -> &Pair<V> {
        if self.base_len == self.log.len() {
            return &self.base;
        }
        self.cache.get_or_init(|| {
            stack_blocks(&self.pending_blocks())
                .expect("logged blocks have disjoint edge keys")
                .0
        })
    }

    /// The logged batches appended after `since_generation`, or `None`
    /// if an out-of-order barrier lies in that range (replay is then
    /// impossible and the caller must rebuild).
    fn deltas_since(&self, since_generation: u64) -> Option<Vec<(&AArray<V>, &AArray<V>)>> {
        self.log[since_generation as usize..]
            .iter()
            .map(|e| e.ordered.then_some((&e.d_out, &e.d_in)))
            .collect()
    }
}

/// Stack incidence blocks with pairwise disjoint edge keys into one
/// pair over the union key sets, returning it with the index of the
/// block that holds the largest edge key. Fails with
/// [`BatchError::DuplicateEdgeKey`], naming a key of the last block,
/// if the edge keys are not disjoint — only a candidate batch can
/// collide, and it is passed last.
fn stack_blocks<V: Value>(
    blocks: &[(&AArray<V>, &AArray<V>)],
) -> Result<(Pair<V>, usize), BatchError> {
    let row_sets: Vec<&KeySet> = blocks.iter().map(|(o, _)| o.row_keys()).collect();
    let (rows, row_maps) = KeySet::union_many(&row_sets);
    let last = blocks.len() - 1;
    if rows.len() < row_sets.iter().map(|k| k.len()).sum() {
        let mut claimed = vec![false; rows.len()];
        for &d in row_maps[..last].iter().flatten() {
            claimed[d] = true;
        }
        let j = row_maps[last]
            .iter()
            .position(|&d| claimed[d])
            .expect("a collision involves the last block");
        return Err(BatchError::DuplicateEdgeKey(
            row_sets[last].key(j).to_string(),
        ));
    }
    // Every union row is exactly one block row: record which.
    let mut src = vec![(0usize, 0usize); rows.len()];
    for (b, map) in row_maps.iter().enumerate() {
        for (r, &d) in map.iter().enumerate() {
            src[d] = (b, r);
        }
    }
    let max_block = src.last().map_or(0, |&(b, _)| b);
    let outs: Vec<&AArray<V>> = blocks.iter().map(|(o, _)| *o).collect();
    let ins: Vec<&AArray<V>> = blocks.iter().map(|(_, i)| *i).collect();
    let pair = (
        stack_side(&outs, &rows, &src),
        stack_side(&ins, &rows, &src),
    );
    Ok((pair, max_block))
}

/// One side of [`stack_blocks`]: row `d` of the result is row
/// `src[d].1` of block `src[d].0`, columns remapped into the union
/// column keys. Column maps are strictly increasing, so rows stay
/// sorted and the CSR is assembled directly, with no COO staging.
fn stack_side<V: Value>(blocks: &[&AArray<V>], rows: &KeySet, src: &[(usize, usize)]) -> AArray<V> {
    let col_sets: Vec<&KeySet> = blocks.iter().map(|a| a.col_keys()).collect();
    let (cols, col_maps) = KeySet::union_many(&col_sets);
    let nnz = blocks.iter().map(|a| a.nnz()).sum();
    let mut indptr = Vec::with_capacity(rows.len() + 1);
    indptr.push(0usize);
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    for &(b, r) in src {
        let (ci, vals) = blocks[b].csr().row(r);
        let col_map = &col_maps[b];
        indices.extend(ci.iter().map(|&c| col_map[c as usize] as u32));
        values.extend(vals.iter().cloned());
        indptr.push(indices.len());
    }
    let data = Csr::from_parts(rows.len(), cols.len(), indptr, indices, values);
    AArray::from_parts(rows.clone(), cols, data)
}

/// How one [`AdjacencyView::refresh`] brought the view current.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshReport {
    /// Lanes updated by delta replay (`A ⊕ ΔA` per pending batch).
    pub incremental_lanes: usize,
    /// Lanes recomputed from the cumulative incidence (fallback).
    pub rebuilt_lanes: usize,
    /// Pending batches replayed on the incremental lanes.
    pub batches_applied: usize,
}

impl RefreshReport {
    /// Whether the refresh did any work at all.
    pub fn did_work(&self) -> bool {
        self.incremental_lanes > 0 || self.rebuilt_lanes > 0
    }
}

/// Cached adjacency arrays `A_p = Eᵀout ⊕_p.⊗_p Ein` for `K` lanes,
/// kept current against an [`IncidenceBuilder`] by incremental delta
/// application where sound and counted full rebuild where not.
pub struct AdjacencyView<'p, V: Value> {
    pairs: Vec<&'p dyn DynOpPair<V>>,
    lanes: Vec<AArray<V>>,
    /// Builder generation the cached lanes reflect.
    generation: u64,
}

impl<'p, V: Value> AdjacencyView<'p, V> {
    /// Build all lanes from scratch via one fused
    /// [`crate::plan::MatmulPlan`] traversal, stamped with the
    /// builder's current generation.
    pub fn new(builder: &IncidenceBuilder<V>, pairs: Vec<&'p dyn DynOpPair<V>>) -> Self {
        let lanes = rebuild_lanes(builder, &pairs);
        AdjacencyView {
            pairs,
            lanes,
            generation: builder.generation(),
        }
    }

    /// The cached adjacency array of lane `i` (same order as the pair
    /// slice given at construction).
    pub fn lane(&self, i: usize) -> &AArray<V> {
        &self.lanes[i]
    }

    /// Number of `⊕.⊗` lanes.
    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The builder generation the cached lanes reflect.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the view lags the builder.
    pub fn is_stale(&self, builder: &IncidenceBuilder<V>) -> bool {
        self.generation != builder.generation()
    }

    /// Bring every lane up to the builder's generation.
    ///
    /// Lanes whose `⊕` is associative ([`DynOpPair::plus_associative`])
    /// replay the pending ordered batches: one fused
    /// [`spgemm_delta`] traversal per batch feeding those lanes
    /// (row-parallel only when the batch product's flops pass the
    /// planner's dispatch threshold), then a
    /// union `⊕`-merge per lane ([`Counter::IncrementalApply`], one
    /// [`OpKind::DeltaApply`] ledger record). All other lanes —
    /// non-associative `⊕`, or any refresh crossing an out-of-order
    /// batch — are recomputed from the cumulative incidence in one fused
    /// rebuild traversal ([`Counter::IncrementalFallback`], one
    /// [`OpKind::Rebuild`] ledger record).
    pub fn refresh(&mut self, builder: &IncidenceBuilder<V>) -> RefreshReport {
        if !self.is_stale(builder) {
            return RefreshReport::default();
        }
        let mut report = RefreshReport::default();

        let deltas = builder.deltas_since(self.generation);
        let (inc_idx, reb_idx): (Vec<usize>, Vec<usize>) = match &deltas {
            // No barrier in range: associative-⊕ lanes replay deltas.
            Some(_) => (0..self.pairs.len()).partition(|&i| self.pairs[i].plus_associative()),
            // Barrier: nobody can replay.
            None => (Vec::new(), (0..self.pairs.len()).collect()),
        };

        if !inc_idx.is_empty() {
            let mut op = OpToken::begin_if_root(OpKind::DeltaApply);
            let batches = deltas.as_ref().expect("checked above");
            let inc_pairs: Vec<&dyn DynOpPair<V>> =
                inc_idx.iter().map(|&i| self.pairs[i]).collect();
            journal().begin(Stage::DeltaApply, inc_idx.len() as u64);
            let (threshold, threads) = (parallel_flops_threshold(), rayon::current_num_threads());
            let mut any_parallel = false;
            for (d_out, d_in) in batches {
                // Same gate as the planner's, on the flops the batch's
                // gather counts: a small batch stays serial.
                let delta_csrs = spgemm_delta(d_out.csr(), d_in.csr(), &inc_pairs, |flops| {
                    let parallel = would_parallelize(flops, threshold, threads);
                    any_parallel |= parallel;
                    parallel
                });
                for (&lane, delta_csr) in inc_idx.iter().zip(delta_csrs) {
                    let delta = AArray::from_parts(
                        d_out.col_keys().clone(),
                        d_in.col_keys().clone(),
                        delta_csr,
                    );
                    self.lanes[lane] = self.lanes[lane].ewise_add_dyn(&delta, self.pairs[lane]);
                }
                report.batches_applied += 1;
            }
            journal().end(Stage::DeltaApply, inc_idx.len() as u64);
            crate::publish_pool_stats();
            journal().record(
                EventKind::DeltaApply,
                inc_idx.len() as u64,
                report.batches_applied as u64,
            );
            counters().add(Counter::IncrementalApply, inc_idx.len() as u64);
            report.incremental_lanes = inc_idx.len();
            if let Some(t) = op.as_mut() {
                t.set_lanes(inc_idx.len() as u64);
                t.set_out_nnz(inc_idx.iter().map(|&i| self.lanes[i].nnz() as u64).sum());
                t.set_dispatch(any_parallel, threads as u64);
            }
            if let Some(t) = op {
                t.finish();
            }
        }

        if !reb_idx.is_empty() {
            // Reason 0: a lane's ⊕ is non-associative, so deltas can't be
            // replayed for it. Reason 1: a barrier batch forced everyone
            // down the rebuild path regardless of associativity.
            let reason = if deltas.is_none() { 1 } else { 0 };
            // The ledger's fallback field reserves 0 for "none", so the
            // journal reason codes shift up by one there.
            let mut op = OpToken::begin_if_root(OpKind::Rebuild);
            if let Some(t) = op.as_mut() {
                t.set_lanes(reb_idx.len() as u64);
                t.set_fallback(reason + 1);
            }
            journal().record(EventKind::IncrementalFallback, reb_idx.len() as u64, reason);
            let reb_pairs: Vec<&dyn DynOpPair<V>> =
                reb_idx.iter().map(|&i| self.pairs[i]).collect();
            let rebuilt = rebuild_lanes(builder, &reb_pairs);
            for (&lane, array) in reb_idx.iter().zip(rebuilt) {
                self.lanes[lane] = array;
            }
            counters().add(Counter::IncrementalFallback, reb_idx.len() as u64);
            report.rebuilt_lanes = reb_idx.len();
            if let Some(t) = op.as_mut() {
                t.set_out_nnz(reb_idx.iter().map(|&i| self.lanes[i].nnz() as u64).sum());
            }
            if let Some(t) = op {
                t.finish();
            }
        }

        self.generation = builder.generation();
        report
    }
}

/// Full `Eᵀout ⊕.⊗ Ein` for the given lanes in one fused traversal,
/// inside a rebuild journal span.
fn rebuild_lanes<V: Value>(
    builder: &IncidenceBuilder<V>,
    pairs: &[&dyn DynOpPair<V>],
) -> Vec<AArray<V>> {
    journal().begin(Stage::Rebuild, pairs.len() as u64);
    let lanes = adjacency_plan(builder.eout(), builder.ein()).execute_all(pairs);
    journal().end(Stage::Rebuild, pairs.len() as u64);
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incidence::adjacency_arrays_multi;
    use aarray_algebra::pairs::{MaxMin, PlusTimes};
    use aarray_algebra::values::nat::Nat;
    use aarray_algebra::values::nn::{nn, NN};
    use aarray_obs::snapshot;

    fn pt() -> PlusTimes<Nat> {
        PlusTimes::new()
    }

    /// n edges "eNNN": vNNN → v(NNN+1) with weights varying by index,
    /// keys zero-padded so lexicographic order is append order.
    fn chain_batch(lo: usize, hi: usize) -> (AArray<Nat>, AArray<Nat>) {
        let pair = pt();
        let out: Vec<(String, String, Nat)> = (lo..hi)
            .map(|i| {
                (
                    format!("e{:04}", i),
                    format!("v{:04}", i),
                    Nat(1 + i as u64 % 3),
                )
            })
            .collect();
        let inn: Vec<(String, String, Nat)> = (lo..hi)
            .map(|i| {
                (
                    format!("e{:04}", i),
                    format!("v{:04}", i + 1),
                    Nat(1 + i as u64 % 2),
                )
            })
            .collect();
        (
            AArray::from_triples(&pair, out),
            AArray::from_triples(&pair, inn),
        )
    }

    #[test]
    fn builder_accumulates_batches_and_generations() {
        let (e0, i0) = chain_batch(0, 4);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        assert_eq!(b.generation(), 0);
        assert_eq!(b.n_edges(), 4);

        let before = snapshot();
        let (d_out, d_in) = chain_batch(4, 7);
        assert_eq!(b.append_batch(d_out, d_in), Ok(BatchKind::Ordered));
        assert_eq!(b.generation(), 1);
        assert_eq!(b.n_edges(), 7);
        // Vertex key growth: v0000..v0007 now present on the out side
        // up to v0006 and the in side up to v0007.
        assert!(b.eout().col_keys().contains("v0006"));
        assert!(b.ein().col_keys().contains("v0007"));
        let d = snapshot().since(&before);
        assert!(d.get(Counter::IncrementalBatches) >= 1);
        assert!(d.get(Counter::IncrementalEdges) >= 3);
    }

    #[test]
    fn batch_validation_rejects_bad_batches() {
        let (e0, i0) = chain_batch(0, 3);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        // Mismatched edge keys between the two blocks.
        let (d_out, _) = chain_batch(3, 5);
        let (_, other_in) = chain_batch(5, 7);
        assert_eq!(
            b.append_batch(d_out, other_in),
            Err(BatchError::EdgeKeysMismatch)
        );
        // Empty batch.
        let pair = pt();
        let empty = AArray::from_triples(&pair, Vec::<(String, String, Nat)>::new());
        assert_eq!(
            b.append_batch(empty.clone(), empty),
            Err(BatchError::EmptyBatch)
        );
        // Duplicate edge key (e0002 already present).
        let (d_out, d_in) = chain_batch(2, 4);
        assert_eq!(
            b.append_batch(d_out, d_in),
            Err(BatchError::DuplicateEdgeKey("e0002".into()))
        );
        // All rejected: generation unchanged.
        assert_eq!(b.generation(), 0);
    }

    #[test]
    fn out_of_order_batch_is_accepted_but_barriers() {
        let (e0, i0) = chain_batch(5, 8);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let (d_out, d_in) = chain_batch(0, 2); // sorts before existing
        assert_eq!(b.append_batch(d_out, d_in), Ok(BatchKind::OutOfOrder));
        assert_eq!(b.n_edges(), 5);
        assert!(b.deltas_since(0).is_none(), "barrier blocks replay");
    }

    #[test]
    fn duplicate_key_in_a_pending_block_is_rejected() {
        let (e0, i0) = chain_batch(0, 3);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let (d_out, d_in) = chain_batch(3, 6);
        assert_eq!(b.append_batch(d_out, d_in), Ok(BatchKind::Ordered));
        assert!(
            b.cache.get().is_none(),
            "the ordered block is still pending"
        );
        // e0004 sorts before e0005, so the batch is out of order, and it
        // collides only with the never-built pending block.
        let (d_out, d_in) = chain_batch(4, 5);
        assert_eq!(
            b.append_batch(d_out, d_in),
            Err(BatchError::DuplicateEdgeKey("e0004".into()))
        );
        assert_eq!((b.generation(), b.n_edges()), (1, 6));
        let (want_out, want_in) = chain_batch(0, 6);
        assert_eq!(b.eout(), &want_out);
        assert_eq!(b.ein(), &want_in);
    }

    #[test]
    fn out_of_order_batch_holding_the_largest_key_moves_the_ordered_check() {
        let edges = |ids: &[usize]| {
            let pair = pt();
            let side = |shift: usize| {
                let triples = ids
                    .iter()
                    .map(|&i| (format!("e{:04}", i), format!("v{:04}", i + shift), Nat(1)));
                AArray::from_triples(&pair, triples)
            };
            (side(0), side(1))
        };
        let (e0, i0) = edges(&[5]);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let (d_out, d_in) = edges(&[3, 9]);
        assert_eq!(b.append_batch(d_out, d_in), Ok(BatchKind::OutOfOrder));
        let (d_out, d_in) = edges(&[7]);
        assert_eq!(
            b.append_batch(d_out, d_in),
            Ok(BatchKind::OutOfOrder),
            "e0007 sorts before e0009"
        );
        let (d_out, d_in) = edges(&[10]);
        assert_eq!(b.append_batch(d_out, d_in), Ok(BatchKind::Ordered));
    }

    #[test]
    fn counts_need_no_build_and_reads_build_once() {
        let (e0, i0) = chain_batch(0, 2);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        for lo in (2..12).step_by(2) {
            let (d_out, d_in) = chain_batch(lo, lo + 2);
            b.append_batch(d_out, d_in).unwrap();
        }
        assert_eq!((b.generation(), b.n_edges()), (5, 12));
        assert!(b.cache.get().is_none(), "counts must not stack blocks");
        assert_eq!(b.base_len, 0);

        let (want_out, _) = chain_batch(0, 12);
        assert_eq!(b.eout(), &want_out);
        let built: *const AArray<Nat> = b.eout();
        assert!(
            std::ptr::eq(built, b.eout()),
            "a second read reuses the build"
        );
        // The next append adopts the build as its base: only the new
        // block stays pending.
        let (d_out, d_in) = chain_batch(12, 14);
        b.append_batch(d_out, d_in).unwrap();
        assert_eq!((b.base_len, b.log.len()), (5, 6));
        let (want_out, want_in) = chain_batch(0, 14);
        assert_eq!(b.eout(), &want_out);
        assert_eq!(b.ein(), &want_in);
    }

    #[test]
    fn out_of_order_append_stacks_once_for_its_barrier_refresh() {
        let mm = MaxMin::<Nat>::new();
        let (e0, i0) = chain_batch(4, 8);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let mut view = AdjacencyView::new(&b, vec![&mm]);
        let (d_out, d_in) = chain_batch(8, 10);
        b.append_batch(d_out, d_in).unwrap();
        let (d_out, d_in) = chain_batch(0, 4);
        assert_eq!(b.append_batch(d_out, d_in), Ok(BatchKind::OutOfOrder));
        // The barrier append stacked everything, itself included.
        assert_eq!(b.base_len, b.log.len());
        view.refresh(&b);
        assert!(b.cache.get().is_none(), "the rebuild read the stacked base");
        // The ordered check still runs against the largest key's block.
        let (d_out, d_in) = chain_batch(10, 11);
        assert_eq!(b.append_batch(d_out, d_in), Ok(BatchKind::Ordered));
        view.refresh(&b);
        let full = adjacency_arrays_multi(b.eout(), b.ein(), &[&mm as &dyn DynOpPair<Nat>]);
        assert_eq!(view.lane(0), &full[0]);
    }

    #[test]
    fn incremental_refresh_is_bit_identical_to_rebuild_for_associative_plus() {
        // Max.Min over Nat: ⊕ = max is associative (capability-marked).
        let mm = MaxMin::<Nat>::new();
        let (e0, i0) = chain_batch(0, 6);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let mut view = AdjacencyView::new(&b, vec![&mm]);
        assert!(!view.is_stale(&b));

        for (lo, hi) in [(6, 9), (9, 14)] {
            let (d_out, d_in) = chain_batch(lo, hi);
            b.append_batch(d_out, d_in).unwrap();
        }
        assert!(view.is_stale(&b));
        let before = snapshot();
        let report = view.refresh(&b);
        let d = snapshot().since(&before);
        assert_eq!(report.incremental_lanes, 1);
        assert_eq!(report.rebuilt_lanes, 0);
        assert_eq!(report.batches_applied, 2);
        assert!(d.get(Counter::IncrementalApply) >= 1);
        assert!(d.get(Counter::DeltaTraversals) >= 2);

        let full = adjacency_arrays_multi(b.eout(), b.ein(), &[&mm as &dyn DynOpPair<Nat>]);
        assert_eq!(view.lane(0), &full[0], "incremental must be bit-identical");
        // And refreshing again is a no-op.
        assert!(!view.refresh(&b).did_work());
    }

    #[test]
    fn non_associative_plus_falls_back_to_counted_rebuild() {
        // +.× over NN: float ⊕ is NOT associative — no capability
        // marker, so the lane must take the rebuild path.
        let pt_nn = PlusTimes::<NN>::new();
        let pair = PlusTimes::<NN>::new();
        let mk = |lo: usize, hi: usize| {
            let out: Vec<(String, String, NN)> = (lo..hi)
                .map(|i| {
                    (
                        format!("e{:04}", i),
                        format!("v{:04}", i),
                        nn(0.1 + i as f64),
                    )
                })
                .collect();
            let inn: Vec<(String, String, NN)> = (lo..hi)
                .map(|i| (format!("e{:04}", i), format!("v{:04}", i + 1), nn(1.5)))
                .collect();
            (
                AArray::from_triples(&pair, out),
                AArray::from_triples(&pair, inn),
            )
        };
        let (e0, i0) = mk(0, 5);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let mut view = AdjacencyView::new(&b, vec![&pt_nn]);
        let (d_out, d_in) = mk(5, 9);
        b.append_batch(d_out, d_in).unwrap();

        let before = snapshot();
        let report = view.refresh(&b);
        let d = snapshot().since(&before);
        assert_eq!(report.incremental_lanes, 0);
        assert_eq!(report.rebuilt_lanes, 1);
        assert!(d.get(Counter::IncrementalFallback) >= 1);

        let full = adjacency_arrays_multi(b.eout(), b.ein(), &[&pt_nn as &dyn DynOpPair<NN>]);
        assert_eq!(view.lane(0), &full[0]);
    }

    #[test]
    fn mixed_lanes_split_between_incremental_and_rebuild() {
        // Nat +.× is associative-⊕ (ℕ addition); pair it with Max.Min.
        let ptn = pt();
        let mm = MaxMin::<Nat>::new();
        let (e0, i0) = chain_batch(0, 5);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let mut view = AdjacencyView::new(&b, vec![&ptn, &mm]);
        let (d_out, d_in) = chain_batch(5, 9);
        b.append_batch(d_out, d_in).unwrap();
        let report = view.refresh(&b);
        assert_eq!(report.incremental_lanes, 2, "both Nat lanes associative");
        assert_eq!(report.rebuilt_lanes, 0);

        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&ptn, &mm];
        let full = adjacency_arrays_multi(b.eout(), b.ein(), &pairs);
        assert_eq!(view.lane(0), &full[0]);
        assert_eq!(view.lane(1), &full[1]);
    }

    #[test]
    fn barrier_forces_rebuild_even_for_associative_lanes() {
        let mm = MaxMin::<Nat>::new();
        let (e0, i0) = chain_batch(5, 9);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let mut view = AdjacencyView::new(&b, vec![&mm]);
        let (d_out, d_in) = chain_batch(0, 3);
        assert_eq!(b.append_batch(d_out, d_in), Ok(BatchKind::OutOfOrder));
        let report = view.refresh(&b);
        assert_eq!(report.incremental_lanes, 0);
        assert_eq!(report.rebuilt_lanes, 1);
        let full = adjacency_arrays_multi(b.eout(), b.ein(), &[&mm as &dyn DynOpPair<Nat>]);
        assert_eq!(view.lane(0), &full[0]);
    }
}
