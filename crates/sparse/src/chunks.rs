//! Row-chunked output assembly, shared by every row-wise kernel that
//! can run serially or row-parallel.
//!
//! A kernel hands [`assemble_rows`] a per-row closure that appends the
//! row's entries to one flat buffer per output. Rows run in contiguous
//! ranges — [`row_chunks`] of them on the pool when the caller chose
//! the parallel path, a single range otherwise — and each range fills
//! [`RowsBuf`]s of its own, CSR arrays with a range-local `indptr`.
//! The ranges' buffers are then concatenated in range order, so the
//! result is exactly the arrays one serial pass over all rows builds,
//! whichever thread ran which range. Nothing is allocated per row.

use aarray_algebra::Value;
use aarray_obs::{current_op, enter_op, journal, Stage};
use rayon::prelude::*;
use std::ops::Range;

use crate::csr::Csr;

/// Contiguous row ranges for the row-parallel drivers: ~4 chunks per
/// pool thread (so uneven rows rebalance: an executor that finishes
/// early claims another unclaimed range), one chunk when the pool
/// cannot fan out. Each range is one pool chunk *and* one journal span
/// on whichever thread executes it, which is what makes per-thread
/// overlap visible in the Chrome trace.
pub(crate) fn row_chunks(nrows: usize) -> Vec<Range<usize>> {
    let threads = rayon::current_num_threads();
    let nchunks = if threads <= 1 || nrows <= 1 {
        1
    } else {
        (threads * 4).min(nrows)
    };
    let base = nrows / nchunks;
    let extra = nrows % nchunks;
    let mut ranges = Vec::with_capacity(nchunks);
    let mut lo = 0;
    for c in 0..nchunks {
        let hi = lo + base + usize::from(c < extra);
        ranges.push(lo..hi);
        lo = hi;
    }
    ranges
}

/// CSR arrays for a run of consecutive rows. `indptr` starts at 0 and
/// gains one end offset per finished row, so the row being built is
/// `indices[indptr.last()..]`. Pattern-only passes (`T = ()`) write
/// `indices` directly and leave `values` empty.
pub(crate) struct RowsBuf<T> {
    pub(crate) indptr: Vec<usize>,
    pub(crate) indices: Vec<u32>,
    pub(crate) values: Vec<T>,
}

impl<T> RowsBuf<T> {
    fn with_rows(nrows: usize) -> Self {
        let mut indptr = Vec::with_capacity(nrows + 1);
        indptr.push(0);
        RowsBuf {
            indptr,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Append `(j, v)` to the row being built.
    pub(crate) fn push(&mut self, j: u32, v: T) {
        self.indices.push(j);
        self.values.push(v);
    }
}

impl<V: Value> RowsBuf<V> {
    /// The finished rows as a `Csr` with `ncols` columns.
    pub(crate) fn into_csr(self, ncols: usize) -> Csr<V> {
        Csr::from_parts(
            self.indptr.len() - 1,
            ncols,
            self.indptr,
            self.indices,
            self.values,
        )
    }
}

/// Run `row(scratch, i, outs)` for every row `i` in `0..nrows`, where
/// `outs` holds `nouts` buffers the closure appends row `i`'s entries
/// to, and return the `nouts` outputs covering all rows.
///
/// `parallel` runs [`row_chunks`] ranges on the current pool, with one
/// `init()` scratch per range; otherwise all rows run here as one range
/// with one scratch. Either way row `i` sees the same closure and the
/// outputs are identical. `span`, when set and there is more than one
/// range, brackets each range in a journal span on the thread that runs
/// it, attributed to the caller's current op.
pub(crate) fn assemble_rows<T, S>(
    nrows: usize,
    nouts: usize,
    parallel: bool,
    span: Option<Stage>,
    init: impl Fn() -> S + Sync,
    row: impl Fn(&mut S, usize, &mut [RowsBuf<T>]) + Sync,
) -> Vec<RowsBuf<T>>
where
    T: Send,
{
    let run = |range: Range<usize>| {
        let mut outs: Vec<RowsBuf<T>> = (0..nouts)
            .map(|_| RowsBuf::with_rows(range.len()))
            .collect();
        let mut scratch = init();
        for i in range {
            row(&mut scratch, i, &mut outs);
            for out in &mut outs {
                out.indptr.push(out.indices.len());
            }
        }
        outs
    };
    if !parallel {
        return run(0..nrows);
    }
    let ranges = row_chunks(nrows);
    let span = span.filter(|_| ranges.len() > 1);
    // Pool workers carry no op context of their own: thread the
    // submitting thread's op into each range so its spans attribute to
    // the operation that dispatched here.
    let cur = current_op();
    let mut chunks: Vec<Vec<RowsBuf<T>>> = ranges
        .into_par_iter()
        .map(|range| {
            let _op = enter_op(cur);
            let rows = range.len() as u64;
            if let Some(stage) = span {
                journal().begin(stage, rows);
            }
            let outs = run(range);
            if let Some(stage) = span {
                journal().end(stage, rows);
            }
            outs
        })
        .collect();
    if chunks.len() == 1 {
        return chunks.pop().expect("one chunk");
    }
    concat(chunks, nrows, nouts)
}

/// Concatenate per-range buffers in range order, rebasing each range's
/// `indptr` onto the entries before it.
fn concat<T>(chunks: Vec<Vec<RowsBuf<T>>>, nrows: usize, nouts: usize) -> Vec<RowsBuf<T>> {
    let mut outs: Vec<RowsBuf<T>> = (0..nouts)
        .map(|p| {
            let nnz = chunks.iter().map(|c| c[p].indices.len()).sum();
            let mut out = RowsBuf::with_rows(nrows);
            out.indices.reserve_exact(nnz);
            out.values.reserve_exact(nnz);
            out
        })
        .collect();
    for chunk in chunks {
        for (out, part) in outs.iter_mut().zip(chunk) {
            let base = out.indices.len();
            out.indptr
                .extend(part.indptr[1..].iter().map(|&end| base + end));
            out.indices.extend_from_slice(&part.indices);
            out.values.extend(part.values);
        }
    }
    outs
}
