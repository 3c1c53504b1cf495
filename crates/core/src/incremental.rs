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
//! a single fused traversal — folded into each lane as `A ⊕= ΔA`.
//! When every entry of `ΔA` already has a slot in the lane, the fold
//! writes the sums into the lane's values in place, in `O(|ΔA| log
//! |K|)` for `K` lane keys; a batch that brings a vertex key or an
//! `(i, j)` entry the lane lacks, or a sum equal to the pair's zero,
//! takes a union `⊕`-merge ([`AArray::ewise_add_dyn`], `O(|A|)`), which
//! also grows the vertex key sets. Both give the same lane bit for bit.
//!
//! # When the incremental result is bit-identical
//!
//! A from-scratch rebuild folds each output entry left-associated over
//! **all** edge keys ascending. The incremental path folds the old
//! edges first (that fold is the cached entry) and the batch edges
//! after. The two agree exactly when `⊕` is associative — witnessed by
//! the [`aarray_algebra::AssociativePlus`] capability, surfaced at
//! runtime as [`DynOpPair::plus_associative`] — and either
//!
//! 1. batch edge keys sort strictly **after** every existing edge key
//!    ([`BatchKind::Ordered`]), so "old fold, then batch fold" is the
//!    ascending fold order; or
//! 2. `⊕` is also commutative bit for bit
//!    ([`DynOpPair::plus_commutative`]), so a batch whose edge keys
//!    interleave with older ones ([`BatchKind::OutOfOrder`], a
//!    *barrier*) may be folded in after them all the same.
//!
//! (Pruned zeros cannot break this: zero is the `⊕`-identity, so a
//! pruned partial fold re-enters the continued fold as a no-op.)
//!
//! Lanes whose `⊕` is not associative — e.g. `+.×` over floating-point
//! `NN`, the paper's Figure 3 headline pair — and associative lanes
//! whose `⊕` is not commutative (string concatenation) on a refresh
//! crossing a barrier degrade to a **counted full rebuild**
//! ([`Counter::IncrementalFallback`]): correctness never depends on the
//! fast path applying, only latency does. The max/min lanes replay
//! every batch, ordered or not.
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
use crate::keys::{KeyDict, KeySet};
use crate::matmul::{parallel_flops_threshold, would_parallelize};
use aarray_algebra::dynpair::DynOpPair;
use aarray_algebra::Value;
use aarray_obs::{counters, histograms, journal, Counter, EventKind, Hist, OpKind, OpToken, Stage};
use aarray_sparse::spgemm_delta::spgemm_delta;
use aarray_sparse::Csr;
use std::fmt;
use std::sync::{Arc, OnceLock};

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
    /// longer be decomposed as "old, then new": a view crossing this
    /// batch replays it only on lanes whose `⊕` is commutative as well
    /// as associative, and rebuilds its other lanes.
    OutOfOrder,
}

/// One logged append. Together with the initial pair, the logged
/// blocks are the storage of the cumulative incidence.
struct LogEntry<V: Value> {
    d_out: AArray<V>,
    d_in: AArray<V>,
    /// Whether the batch was [`BatchKind::Ordered`]. A refresh crossing
    /// an out-of-order entry replays only on commutative lanes.
    ordered: bool,
}

/// A cumulative incidence pair `(Eout, Ein)`.
type Pair<V> = (AArray<V>, AArray<V>);

/// One logged incidence block `(ΔEout, ΔEin)`, or the stacked base.
type Block<'a, V> = (&'a AArray<V>, &'a AArray<V>);

/// A growing incidence pair `(Eout, Ein)` accepting appended edge
/// batches, with a generation counter for staleness tracking.
///
/// Both arrays are `edges × vertices` (Definition I.4 orientation) and
/// always share their edge-key row set. The builder is pair-agnostic,
/// like [`AArray`] itself: values are stored as given and only
/// interpreted when a view multiplies them under concrete `⊕.⊗` lanes.
///
/// The appended blocks are the storage: an append is a check plus a
/// push onto the batch log, and the stacked cumulative pair is built
/// only when something reads it (see [`IncidenceBuilder::eout`]).
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
    /// Every edge key so far, for the duplicate check.
    edge_ids: EdgeIds,
    /// Row keys of the block holding the largest edge key: the ordered
    /// check of the next batch runs against these alone.
    last_rows: KeySet,
    n_edges: usize,
}

/// A set of edge keys as a bitset over the ids of one dictionary, so
/// checking a batch for duplicates costs `O(batch)` however many edges
/// came before.
struct EdgeIds {
    dict: Arc<KeyDict>,
    bits: Vec<u64>,
}

impl EdgeIds {
    fn new(keys: &KeySet) -> Self {
        let mut set = EdgeIds {
            dict: keys.dict().clone(),
            bits: Vec::new(),
        };
        set.insert(keys);
        set
    }

    fn contains(&self, id: u32) -> bool {
        let (word, bit) = (id as usize / 64, id % 64);
        self.bits.get(word).is_some_and(|w| w >> bit & 1 == 1)
    }

    /// Position of the first key of `keys` already in the set. Keys of
    /// another dictionary are looked up by name, not interned: a key
    /// the set's dictionary lacks was never inserted.
    fn first_in(&self, keys: &KeySet) -> Option<usize> {
        if Arc::ptr_eq(keys.dict(), &self.dict) {
            keys.ids().iter().position(|&id| self.contains(id))
        } else {
            keys.keys()
                .iter()
                .position(|k| self.dict.lookup(k).is_some_and(|id| self.contains(id)))
        }
    }

    /// Add `keys`, interning them into the set's dictionary first if
    /// they live in another.
    fn insert(&mut self, keys: &KeySet) {
        for &id in keys.ids_in(&self.dict).iter() {
            let (word, bit) = (id as usize / 64, id % 64);
            if word >= self.bits.len() {
                self.bits.resize(word + 1, 0);
            }
            self.bits[word] |= 1 << bit;
        }
    }
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
            edge_ids: EdgeIds::new(eout.row_keys()),
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
    /// The first read after appends stacks the pending blocks onto the
    /// last stacked pair, `O(total nnz)` once; later reads until the
    /// next append are free.
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
    /// batches are replayed by every associative lane of a refreshing
    /// view; accepted [`BatchKind::OutOfOrder`] batches only by lanes
    /// whose `⊕` is also commutative, and the view's other lanes
    /// rebuild (see the module docs for why fold order matters).
    ///
    /// Neither kind stacks anything, and for a batch in the builder's
    /// dictionary either costs `O(batch)`. The batch is ordered if its
    /// keys sort after those of the block holding the largest edge key.
    /// Only an out-of-order batch can collide with an earlier edge key;
    /// its keys are looked up in a bitset over the dictionary ids of
    /// every edge key so far. A batch whose keys live in another
    /// [`KeyDict`] is checked by name and interned into the builder's
    /// dictionary only once accepted; keys new to that dictionary cost
    /// its growth, which rebuilds its rank table (`O(dictionary)`).
    pub fn append_batch(
        &mut self,
        d_out: AArray<V>,
        d_in: AArray<V>,
    ) -> Result<BatchKind, BatchError> {
        if d_out.row_keys() != d_in.row_keys() {
            return Err(BatchError::EdgeKeysMismatch);
        }
        let batch_keys = d_out.row_keys();
        if batch_keys.is_empty() {
            return Err(BatchError::EmptyBatch);
        }
        // Integer-space checks: no string materialization for a batch
        // in the builder's dictionary.
        let ordered = batch_keys.all_after(&self.last_rows);
        if !ordered {
            if let Some(j) = self.edge_ids.first_in(batch_keys) {
                return Err(BatchError::DuplicateEdgeKey(batch_keys.key(j).to_string()));
            }
        }
        self.edge_ids.insert(batch_keys);
        if batch_keys.any_after(&self.last_rows) {
            self.last_rows = batch_keys.clone();
        }
        // A pair some reader stacked covers the whole log: keep it as
        // the base so later builds only extend it.
        if let Some(built) = self.cache.take() {
            self.base = built;
            self.base_len = self.log.len();
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
    fn pending_blocks(&self) -> Vec<Block<'_, V>> {
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
        self.cache
            .get_or_init(|| stack_blocks(&self.pending_blocks()))
    }

    /// The logged blocks appended after `since_generation`, and whether
    /// an out-of-order batch (a barrier) lies among them.
    fn batches_since(&self, since_generation: u64) -> (Vec<Block<'_, V>>, bool) {
        let entries = &self.log[since_generation as usize..];
        let blocks = entries.iter().map(|e| (&e.d_out, &e.d_in)).collect();
        (blocks, entries.iter().any(|e| !e.ordered))
    }
}

/// Stack incidence blocks with pairwise disjoint edge keys — the
/// builder rejects duplicates at append — into one pair over the union
/// key sets.
fn stack_blocks<V: Value>(blocks: &[Block<'_, V>]) -> Pair<V> {
    let row_sets: Vec<&KeySet> = blocks.iter().map(|(o, _)| o.row_keys()).collect();
    let (rows, row_maps) = KeySet::union_many(&row_sets);
    debug_assert_eq!(
        rows.len(),
        row_sets.iter().map(|k| k.len()).sum::<usize>(),
        "logged blocks have disjoint edge keys"
    );
    // Every union row is exactly one block row: record which.
    let mut src = vec![(0usize, 0usize); rows.len()];
    for (b, map) in row_maps.iter().enumerate() {
        for (r, &d) in map.iter().enumerate() {
            src[d] = (b, r);
        }
    }
    let outs: Vec<&AArray<V>> = blocks.iter().map(|(o, _)| *o).collect();
    let ins: Vec<&AArray<V>> = blocks.iter().map(|(_, i)| *i).collect();
    (
        stack_side(&outs, &rows, &src),
        stack_side(&ins, &rows, &src),
    )
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
    /// Batch folds (one per incremental lane and replayed batch) that
    /// could not update the lane's values in place and merged instead:
    /// the batch brought a key or an entry the lane lacked, or a sum
    /// equal to the pair's zero.
    pub merged_folds: usize,
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
    /// replay the pending batches — when one of them is out of order,
    /// only lanes whose `⊕` is also commutative
    /// ([`DynOpPair::plus_commutative`]) do: one fused [`spgemm_delta`]
    /// traversal per batch feeding those lanes (row-parallel only when
    /// the batch product's flops pass the planner's dispatch
    /// threshold), then one fold `A ⊕= ΔA` per lane and batch
    /// ([`Counter::IncrementalApply`], one [`OpKind::DeltaApply`] ledger
    /// record). A fold whose `ΔA` lies inside the lane's pattern updates
    /// the lane's values in place, never walking the lane; one that
    /// brings a key or an entry the lane lacks, or a sum equal to the
    /// pair's zero, takes a union `⊕`-merge over the whole lane
    /// ([`RefreshReport::merged_folds`] counts those). Replay reads only
    /// the logged blocks, never the stacked incidence. All other
    /// lanes — non-associative `⊕`, or associative but not commutative
    /// `⊕` on a refresh crossing an out-of-order batch — are recomputed
    /// from the cumulative incidence in one fused rebuild traversal
    /// ([`Counter::IncrementalFallback`], one [`OpKind::Rebuild`] ledger
    /// record).
    pub fn refresh(&mut self, builder: &IncidenceBuilder<V>) -> RefreshReport {
        if !self.is_stale(builder) {
            return RefreshReport::default();
        }
        let mut report = RefreshReport::default();

        let (batches, barrier) = builder.batches_since(self.generation);
        // Folding the batches in after the cached lane reorders its ⊕
        // fold: exact for associative ⊕, and across a barrier for
        // associative and commutative ⊕.
        let (inc_idx, reb_idx): (Vec<usize>, Vec<usize>) = (0..self.pairs.len()).partition(|&i| {
            let pair = self.pairs[i];
            pair.plus_associative() && (!barrier || pair.plus_commutative())
        });

        if !inc_idx.is_empty() {
            let mut op = OpToken::begin_if_root(OpKind::DeltaApply);
            let inc_pairs: Vec<&dyn DynOpPair<V>> =
                inc_idx.iter().map(|&i| self.pairs[i]).collect();
            journal().begin(Stage::DeltaApply, inc_idx.len() as u64);
            let (threshold, threads) = (parallel_flops_threshold(), rayon::current_num_threads());
            let mut any_parallel = false;
            for (d_out, d_in) in &batches {
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
                    let pair = self.pairs[lane];
                    if !fold_in_place(&mut self.lanes[lane], &delta, pair) {
                        self.lanes[lane] = self.lanes[lane].ewise_add_dyn(&delta, pair);
                        report.merged_folds += 1;
                    }
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
            // Reason 0: every rebuilt lane's ⊕ is non-associative, so no
            // batch can be replayed for it. Reason 1: an associative lane
            // whose ⊕ is not commutative crossed a barrier.
            let reason = u64::from(reb_idx.iter().any(|&i| self.pairs[i].plus_associative()));
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

/// `lane ⊕= delta` in place, when every entry of `delta` has a slot in
/// `lane` and no sum is the pair's zero: the union merge would then keep
/// the lane's keys and pattern and compute the same sums, so the result
/// is the merge's bit for bit. The keys are found by rank search
/// ([`KeySet::find_positions`]) and the entries by [`find_col`] in their
/// lane rows, each search starting past the last hit: at most
/// `O(|ΔA| log |K|)` for `K` lane keys, and the lane is never walked or
/// copied. Returns `false` and leaves `lane` untouched when the fold
/// does not apply.
fn fold_in_place<V: Value>(
    lane: &mut AArray<V>,
    delta: &AArray<V>,
    pair: &dyn DynOpPair<V>,
) -> bool {
    let (Some(rows), Some(cols)) = (
        lane.row_keys().find_positions(delta.row_keys()),
        lane.col_keys().find_positions(delta.col_keys()),
    ) else {
        return false;
    };
    let (csr, d) = (lane.csr(), delta.csr());
    // Every sum is computed before any is written, so a fold that does
    // not apply leaves the lane as it was.
    let mut sums = Vec::with_capacity(d.nnz());
    for (r, &lr) in rows.iter().enumerate() {
        let (lane_cols, lane_vals) = csr.row(lr);
        let start = csr.indptr()[lr];
        let mut lo = 0;
        let (d_cols, d_vals) = d.row(r);
        for (&c, v) in d_cols.iter().zip(d_vals) {
            let Some(hit) = find_col(&lane_cols[lo..], cols[c as usize] as u32) else {
                return false;
            };
            lo += hit;
            // The merge's operand order: lane first, batch second.
            let sum = pair.plus(&lane_vals[lo], v);
            if pair.is_zero(&sum) {
                return false;
            }
            sums.push((start + lo, sum));
            lo += 1;
        }
    }
    let values = lane.csr_mut().values_mut();
    for (slot, sum) in sums {
        values[slot] = sum;
    }
    true
}

/// Position of column `c` in a row's ascending column indices. They are
/// distinct integers, so `c` lies at most `c - cols[0]` in: that bound
/// is probed first, and is the hit in a row that stores every column
/// up to `c`; otherwise the range before it is bisected.
fn find_col(cols: &[u32], c: u32) -> Option<usize> {
    let first = *cols.first()?;
    let bound = (c.checked_sub(first)? as usize).min(cols.len() - 1);
    if cols[bound] == c {
        return Some(bound);
    }
    cols[..bound].binary_search(&c).ok()
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
    use aarray_algebra::ops::{Concat, Max};
    use aarray_algebra::pairs::{MaxMin, PlusTimes};
    use aarray_algebra::values::bstr::BStr;
    use aarray_algebra::values::nat::Nat;
    use aarray_algebra::values::nn::{nn, NN};
    use aarray_algebra::values::zn::Zn;
    use aarray_algebra::{BinaryOp, OpPair};
    use aarray_obs::{oplog, snapshot, workload_label};

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
        // Duplicate edge key: e0002 is in the stacked base, and the
        // batch is out of order since e0002 does not sort after it.
        let (d_out, d_in) = chain_batch(2, 4);
        assert_eq!(
            b.append_batch(d_out, d_in),
            Err(BatchError::DuplicateEdgeKey("e0002".into()))
        );
        // All rejected: generation and edge count unchanged.
        assert_eq!((b.generation(), b.n_edges()), (0, 3));
    }

    #[test]
    fn out_of_order_batch_is_accepted_but_barriers() {
        let (e0, i0) = chain_batch(5, 8);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let (d_out, d_in) = chain_batch(0, 2); // sorts before existing
        assert_eq!(b.append_batch(d_out, d_in), Ok(BatchKind::OutOfOrder));
        assert_eq!(b.n_edges(), 5);
        assert!(b.batches_since(0).1, "the batch is a barrier");
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

        // The same key interned in a private dictionary is rejected too,
        // and the batch's fresh key stays out of the builder's (here the
        // global) dictionary.
        let dict = KeyDict::new();
        let private = |rows: [&str; 2]| {
            let pair = pt();
            let row_keys = KeySet::from_iter_with_dict(&dict, rows);
            let side = |v: &str| {
                let cols = KeySet::from_iter_with_dict(&dict, [v]);
                let triples = rows.map(|r| (r.to_string(), v.to_string(), Nat(1)));
                AArray::from_triples_with_keys(&pair, row_keys.clone(), cols, triples)
            };
            (side("v0000"), side("v0001"))
        };
        let (d_out, d_in) = private(["e0004", "e0004p"]);
        assert_eq!(
            b.append_batch(d_out, d_in),
            Err(BatchError::DuplicateEdgeKey("e0004".into()))
        );
        assert_eq!((b.generation(), b.n_edges()), (1, 6));
        assert_eq!(KeyDict::global().lookup("e0004p"), None);
        let (want_out, want_in) = chain_batch(0, 6);
        assert_eq!(b.eout(), &want_out);
        assert_eq!(b.ein(), &want_in);

        // Without a collision it is accepted, and its keys are edge keys
        // of the builder from then on.
        let (d_out, d_in) = private(["e0002p", "e0004p"]);
        assert_eq!(b.append_batch(d_out, d_in), Ok(BatchKind::OutOfOrder));
        assert_eq!((b.generation(), b.n_edges()), (2, 8));
        let pair = pt();
        let again = AArray::from_triples(&pair, [("e0004p", "v0009", Nat(1))]);
        assert_eq!(
            b.append_batch(again.clone(), again),
            Err(BatchError::DuplicateEdgeKey("e0004p".into()))
        );
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
    fn out_of_order_append_and_refresh_stack_nothing() {
        // max.min over Nat: ⊕ = max is associative and commutative, so
        // the lane replays the barrier batch from its logged blocks.
        let mm = MaxMin::<Nat>::new();
        let (e0, i0) = chain_batch(4, 8);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let mut view = AdjacencyView::new(&b, vec![&mm]);
        let (d_out, d_in) = chain_batch(8, 10);
        b.append_batch(d_out, d_in).unwrap();
        let (d_out, d_in) = chain_batch(0, 4);
        assert_eq!(b.append_batch(d_out, d_in), Ok(BatchKind::OutOfOrder));
        assert_eq!(b.base_len, 0, "the barrier append stacked nothing");
        assert!(b.cache.get().is_none());
        let report = view.refresh(&b);
        assert_eq!(
            (
                report.incremental_lanes,
                report.rebuilt_lanes,
                report.batches_applied
            ),
            (1, 0, 2)
        );
        assert_eq!(b.base_len, 0, "the refresh stacked nothing");
        assert!(b.cache.get().is_none());
        // The ordered check still runs against the largest key's block.
        let (d_out, d_in) = chain_batch(10, 11);
        assert_eq!(b.append_batch(d_out, d_in), Ok(BatchKind::Ordered));
        view.refresh(&b);
        let full = adjacency_arrays_multi(b.eout(), b.ein(), &[&mm as &dyn DynOpPair<Nat>]);
        assert_eq!(view.lane(0), &full[0]);
    }

    /// Edges `(edge key, tail, head, weight)` as an incidence pair, with
    /// the weight on both sides.
    type Edge<V> = (&'static str, &'static str, &'static str, V);

    fn incidence<V: Value, A: BinaryOp<V>, M: BinaryOp<V>>(
        pair: &OpPair<V, A, M>,
        edges: &[Edge<V>],
    ) -> (AArray<V>, AArray<V>) {
        let side = |head: bool| {
            let triples = edges
                .iter()
                .map(|(e, t, h, w)| (*e, if head { *h } else { *t }, w.clone()));
            AArray::from_triples(pair, triples)
        };
        (side(false), side(true))
    }

    #[test]
    fn incremental_refresh_is_bit_identical_to_rebuild_for_associative_plus() {
        use BatchKind::{Ordered, OutOfOrder};
        // Max.Min over Nat: ⊕ = max is associative and commutative
        // (capability-marked). The saturated lane stores all of
        // {a, b} × {x, y}; the gapped one all but (b, y).
        let mm = MaxMin::<Nat>::new();
        const SATURATED: &[Edge<Nat>] = &[
            ("e10", "a", "x", Nat(2)),
            ("e11", "a", "y", Nat(5)),
            ("e12", "b", "x", Nat(1)),
            ("e13", "b", "y", Nat(3)),
        ];
        let gapped = &SATURATED[..3];
        // (case, initial edges, batches with their kinds, merged folds)
        type Case<'a> = (
            &'a str,
            &'a [Edge<Nat>],
            Vec<(&'a [Edge<Nat>], BatchKind)>,
            usize,
        );
        let cases: [Case; 6] = [
            (
                "a batch inside a saturated lane folds in place",
                SATURATED,
                vec![(
                    &[("e20", "a", "x", Nat(7)), ("e21", "b", "y", Nat(1))],
                    Ordered,
                )],
                0,
            ),
            (
                "an out-of-order batch on a max lane folds in place",
                SATURATED,
                vec![(&[("e05", "a", "y", Nat(9))], OutOfOrder)],
                0,
            ),
            (
                "a new vertex key merges",
                SATURATED,
                vec![(&[("e20", "c", "x", Nat(4))], Ordered)],
                1,
            ),
            (
                "a new (i, j) between existing keys merges",
                gapped,
                vec![(&[("e20", "b", "y", Nat(4))], Ordered)],
                1,
            ),
            (
                "a merge grows the keys, and the next batch folds into them",
                SATURATED,
                vec![
                    (&[("e20", "c", "x", Nat(4))], Ordered),
                    (
                        &[("e30", "c", "x", Nat(6)), ("e31", "a", "y", Nat(8))],
                        Ordered,
                    ),
                ],
                1,
            ),
            (
                "every batch of a growing chain brings a vertex and merges",
                &[("e10", "a", "b", Nat(2)), ("e11", "b", "c", Nat(1))],
                vec![
                    (&[("e20", "c", "d", Nat(3))], Ordered),
                    (&[("e30", "d", "e", Nat(2))], Ordered),
                ],
                2,
            ),
        ];
        for (case, initial, batches, merged) in cases {
            let (e0, i0) = incidence(&mm, initial);
            let mut b = IncidenceBuilder::new(e0, i0).unwrap();
            let mut view = AdjacencyView::new(&b, vec![&mm]);
            assert!(!view.is_stale(&b));
            for &(batch, kind) in &batches {
                let (d_out, d_in) = incidence(&mm, batch);
                assert_eq!(b.append_batch(d_out, d_in), Ok(kind), "{case}");
            }
            assert!(view.is_stale(&b));
            let before = snapshot();
            let report = view.refresh(&b);
            let d = snapshot().since(&before);
            assert_eq!(
                (
                    report.incremental_lanes,
                    report.rebuilt_lanes,
                    report.batches_applied,
                    report.merged_folds
                ),
                (1, 0, batches.len(), merged),
                "{case}"
            );
            assert!(d.get(Counter::IncrementalApply) >= 1);
            assert!(d.get(Counter::DeltaTraversals) >= batches.len() as u64);

            let full = adjacency_arrays_multi(b.eout(), b.ein(), &[&mm as &dyn DynOpPair<Nat>]);
            assert_eq!(view.lane(0), &full[0], "{case}: must be bit-identical");
            // And refreshing again is a no-op.
            assert!(!view.refresh(&b).did_work());
        }
    }

    #[test]
    fn zn_sum_that_wraps_to_zero_merges_and_prunes_the_entry() {
        // +.× over ℤ/5: ⊕ is associative, and 4 ⊕ 1 wraps to the zero,
        // which the lane must not store.
        type Z5 = Zn<5>;
        let pt = PlusTimes::<Z5>::new();
        let initial: &[Edge<Z5>] = &[("e10", "a", "x", Z5::new(2)), ("e11", "a", "y", Z5::new(1))];
        let (e0, i0) = incidence(&pt, initial);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let mut view = AdjacencyView::new(&b, vec![&pt]);
        assert_eq!(view.lane(0).get("a", "x"), Some(&Z5::new(4)));
        let (d_out, d_in) = incidence(&pt, &[("e20", "a", "x", Z5::new(1))]);
        b.append_batch(d_out, d_in).unwrap();
        let report = view.refresh(&b);
        assert_eq!((report.incremental_lanes, report.merged_folds), (1, 1));
        assert_eq!(view.lane(0).get("a", "x"), None, "the zero sum is pruned");
        assert_eq!(view.lane(0).nnz(), 1);
        let full = adjacency_arrays_multi(b.eout(), b.ein(), &[&pt as &dyn DynOpPair<Z5>]);
        assert_eq!(view.lane(0), &full[0]);
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
        // ⊕ = string concatenation is associative but not commutative:
        // every edge a → b adds its word, and the fold spells the words
        // in ascending edge-key order.
        let _label = workload_label("incremental::tests::barrier_forces_rebuild");
        let concat: OpPair<BStr, Concat, Max> = OpPair::new();
        let edges = |ids: &[usize]| {
            let side = |v: &str| {
                let triples = ids
                    .iter()
                    .map(|&i| (format!("e{i}"), v.to_string(), BStr::word(format!("w{i}"))));
                AArray::from_triples(&concat, triples)
            };
            (side("a"), side("b"))
        };
        let (e0, i0) = edges(&[5, 6]);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let mut view = AdjacencyView::new(&b, vec![&concat]);
        let (d_out, d_in) = edges(&[2, 3]);
        assert_eq!(b.append_batch(d_out, d_in), Ok(BatchKind::OutOfOrder));
        let start = oplog().cursor();
        let report = view.refresh(&b);
        assert_eq!((report.incremental_lanes, report.rebuilt_lanes), (0, 1));
        let ops = oplog()
            .labeled_window(start, oplog().cursor())
            .expect("ledger window intact");
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].kind, OpKind::Rebuild);
        assert_eq!(ops[0].fallback_name(), "barrier");
        // Replaying would have appended w2w3 after w5w6.
        let want = BStr::word("w2w3w5w6");
        assert_eq!(view.lane(0).get("a", "b"), Some(&want));
        let full = adjacency_arrays_multi(b.eout(), b.ein(), &[&concat as &dyn DynOpPair<BStr>]);
        assert_eq!(view.lane(0), &full[0]);
    }
}
