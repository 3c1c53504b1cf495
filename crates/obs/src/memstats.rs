//! Allocation accounting for the kernels' working memory.
//!
//! Rust gives no portable heap introspection, so the hot paths report
//! their own working-set sizes at the allocation sites: a SPA
//! scratchpad reports `ncols × size_of::<Option<V>>()` when built, a
//! fused accumulator block reports its high-water capacity, a plan
//! reports its memoized symbolic pattern and materialized transpose,
//! and interned `KeySet`-style buffers report their string payload.
//! Each [`MemRegion`] tracks **current** bytes (allocations minus
//! frees) and a **peak** watermark, both relaxed atomics.
//!
//! Accounting is deliberately approximate in *coverage* — it tracks
//! the structures that dominate kernel memory, not every allocation —
//! but the watermark itself is exact under concurrency: [`MemStats::alloc`]
//! derives the post-add total from the `fetch_add` return value before
//! folding it into the peak, so the peak can never under-report a
//! high-water mark that concurrent allocations actually reached
//! (`peak ≥ max(concurrent currents)`; pinned by a multi-thread stress
//! test below). Peak is monotone per region and never decreases except
//! via [`MemStats::reset`]. Use it to answer "how much memory do this
//! workload's kernels need", not to balance books.
//!
//! The RAII guard [`MemReservation`] frees its bytes on drop, so
//! scratch owners stay exception-safe without explicit free calls:
//!
//! ```
//! use aarray_obs::{memstats, MemRegion};
//!
//! let peak_before = memstats().peak(MemRegion::SpaScratch);
//! {
//!     let _r = memstats().track(MemRegion::SpaScratch, 4096);
//!     assert!(memstats().peak(MemRegion::SpaScratch) >= peak_before + 4096);
//! } // dropped: current decreases, peak stays
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// Memory regions tracked by the accounting layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum MemRegion {
    /// Dense SPA scratchpads of the one-pair kernels (slots + touched).
    SpaScratch,
    /// Fused kernel scratch: the column→slot map plus the K-lane
    /// structure-of-arrays accumulator block (high-water capacity).
    FusedAccumulator,
    /// Plan-owned gathered rows: the edge-major gather of `Eout` that
    /// replaced the plan's materialized transpose (the name stays).
    PlanTranspose,
    /// Plan-memoized symbolic sparsity patterns.
    PlanSymbolic,
    /// Interned key-set string storage (shared `Arc` buffers).
    KeySetInterned,
    /// Delta SpGEMM scratch: batch transposes and per-refresh fused
    /// accumulator state of the incremental adjacency layer.
    DeltaScratch,
}

const N_REGIONS: usize = MemRegion::DeltaScratch as usize + 1;

/// Every region with its report label, in enum order.
pub const MEM_REGION_NAMES: [(MemRegion, &str); N_REGIONS] = [
    (MemRegion::SpaScratch, "mem.spa-scratch"),
    (MemRegion::FusedAccumulator, "mem.fused-accumulator"),
    (MemRegion::PlanTranspose, "mem.plan-transpose"),
    (MemRegion::PlanSymbolic, "mem.plan-symbolic"),
    (MemRegion::KeySetInterned, "mem.keyset-interned"),
    (MemRegion::DeltaScratch, "mem.delta-scratch"),
];

/// The process-wide accounting table. Obtain via [`memstats`].
pub struct MemStats {
    current: [AtomicU64; N_REGIONS],
    peak: [AtomicU64; N_REGIONS],
}

impl MemStats {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        MemStats {
            current: [ZERO; N_REGIONS],
            peak: [ZERO; N_REGIONS],
        }
    }

    /// Record `bytes` newly allocated in `region`.
    ///
    /// `now` must come from the `fetch_add` return value, **not** a
    /// separate load: a re-read after the add could miss a concurrent
    /// free and publish a peak below a total that really was live,
    /// breaking the `peak ≥ max(concurrent currents)` invariant.
    #[inline]
    pub fn alloc(&self, region: MemRegion, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let now = self.current[region as usize].fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak[region as usize].fetch_max(now, Ordering::Relaxed);
    }

    /// Record `bytes` freed in `region` (saturating, so a concurrent
    /// [`MemStats::reset`] cannot underflow).
    #[inline]
    pub fn free(&self, region: MemRegion, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let _ = self.current[region as usize].fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |cur| Some(cur.saturating_sub(bytes)),
        );
    }

    /// Allocate `bytes` and return an RAII guard that frees them on
    /// drop (resizable via [`MemReservation::resize`]).
    pub fn track(&'static self, region: MemRegion, bytes: u64) -> MemReservation {
        self.alloc(region, bytes);
        MemReservation { region, bytes }
    }

    /// Currently accounted bytes in `region`.
    pub fn current(&self, region: MemRegion) -> u64 {
        self.current[region as usize].load(Ordering::Relaxed)
    }

    /// Peak accounted bytes in `region` since start (or reset).
    pub fn peak(&self, region: MemRegion) -> u64 {
        self.peak[region as usize].load(Ordering::Relaxed)
    }

    /// Capture every region's current and peak bytes.
    pub fn snapshot(&self) -> MemSnapshot {
        let mut s = MemSnapshot::default();
        for i in 0..N_REGIONS {
            s.current[i] = self.current[i].load(Ordering::Relaxed);
            s.peak[i] = self.peak[i].load(Ordering::Relaxed);
        }
        s
    }

    /// Zero every current value and peak watermark. Reservations alive
    /// across a reset will "free" bytes the table no longer carries;
    /// the saturating free makes that harmless.
    pub fn reset(&self) {
        for c in &self.current {
            c.store(0, Ordering::Relaxed);
        }
        for p in &self.peak {
            p.store(0, Ordering::Relaxed);
        }
    }
}

static MEMSTATS: MemStats = MemStats::new();

/// The process-wide [`MemStats`].
#[inline]
pub fn memstats() -> &'static MemStats {
    &MEMSTATS
}

/// RAII guard for a tracked allocation: frees its bytes from the
/// global table on drop. Created by [`MemStats::track`].
#[derive(Debug)]
pub struct MemReservation {
    region: MemRegion,
    bytes: u64,
}

impl MemReservation {
    /// Adjust the reservation to `new_bytes` (growth bumps the peak).
    pub fn resize(&mut self, new_bytes: u64) {
        if new_bytes > self.bytes {
            memstats().alloc(self.region, new_bytes - self.bytes);
        } else {
            memstats().free(self.region, self.bytes - new_bytes);
        }
        self.bytes = new_bytes;
    }

    /// Grow the reservation to at least `new_bytes` (never shrinks) —
    /// the natural shape for capacity high-water tracking.
    pub fn grow_to(&mut self, new_bytes: u64) {
        if new_bytes > self.bytes {
            self.resize(new_bytes);
        }
    }

    /// Currently reserved bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for MemReservation {
    fn drop(&mut self) {
        memstats().free(self.region, self.bytes);
    }
}

/// Point-in-time copy of the accounting table, in [`MEM_REGION_NAMES`]
/// order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Current bytes per region.
    pub current: [u64; N_REGIONS],
    /// Peak bytes per region.
    pub peak: [u64; N_REGIONS],
}

impl MemSnapshot {
    /// Current bytes for `region`.
    pub fn current(&self, region: MemRegion) -> u64 {
        self.current[region as usize]
    }

    /// Peak bytes for `region`.
    pub fn peak(&self, region: MemRegion) -> u64 {
        self.peak[region as usize]
    }

    /// Sum of all regions' peaks (an upper bound on the tracked
    /// working set, since peaks need not coincide in time).
    pub fn total_peak(&self) -> u64 {
        self.peak.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_and_peak() {
        // Use a region no kernel code in this test binary touches.
        let r = MemRegion::PlanTranspose;
        let base = memstats().current(r);
        memstats().alloc(r, 1000);
        assert_eq!(memstats().current(r), base + 1000);
        assert!(memstats().peak(r) >= base + 1000);
        memstats().free(r, 1000);
        assert_eq!(memstats().current(r), base);
        assert!(memstats().peak(r) >= base + 1000, "peak survives the free");
    }

    #[test]
    fn reservation_guards_free_on_drop() {
        let r = MemRegion::PlanSymbolic;
        let base = memstats().current(r);
        {
            let mut res = memstats().track(r, 256);
            assert_eq!(memstats().current(r), base + 256);
            res.resize(512);
            assert_eq!(memstats().current(r), base + 512);
            res.grow_to(128); // never shrinks
            assert_eq!(res.bytes(), 512);
            res.resize(128);
            assert_eq!(memstats().current(r), base + 128);
        }
        assert_eq!(memstats().current(r), base);
    }

    #[test]
    fn free_saturates() {
        let r = MemRegion::KeySetInterned;
        let base = memstats().current(r);
        memstats().free(r, u64::MAX);
        assert_eq!(memstats().current(r), 0);
        // Restore so concurrent tests' relative assertions stay sane.
        memstats().alloc(r, base);
    }

    #[test]
    fn snapshot_carries_all_regions() {
        memstats().alloc(MemRegion::FusedAccumulator, 64);
        let s = memstats().snapshot();
        assert!(s.peak(MemRegion::FusedAccumulator) >= 64);
        assert!(s.total_peak() >= 64);
        memstats().free(MemRegion::FusedAccumulator, 64);
    }

    #[test]
    fn names_are_in_enum_order() {
        for (i, (r, _)) in MEM_REGION_NAMES.iter().enumerate() {
            assert_eq!(*r as usize, i, "MEM_REGION_NAMES[{}] out of order", i);
        }
    }

    /// Stress the peak invariant `peak ≥ max(concurrent currents)`: a
    /// peak derived from a separate load after the `fetch_add` (instead
    /// of its return value) reliably under-reports here, because frees
    /// race in between. Every thread holds its bytes at a known barrier
    /// point, so the true simultaneous high-water mark is exact.
    #[test]
    fn concurrent_peak_never_underreports() {
        use std::sync::{Arc, Barrier};
        // A dedicated table (same code, not the global) so concurrent
        // tests cannot perturb the exact arithmetic.
        static LOCAL: MemStats = MemStats::new();
        let r = MemRegion::DeltaScratch;
        let threads = 8u64;
        let rounds = 200u64;
        let bytes = 1 << 10;

        for round in 0..rounds {
            let barrier = Arc::new(Barrier::new(threads as usize));
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        LOCAL.alloc(r, bytes);
                        LOCAL.free(r, bytes);
                    })
                })
                .collect();
            for j in handles {
                j.join().unwrap();
            }
            // Interleave arbitrarily, the peak must cover at least one
            // allocation's post-add total; and whatever maximum current
            // any interleaving reached is ≤ threads × bytes, which the
            // peak may equal but the invariant only needs ≥ bytes.
            assert!(
                LOCAL.peak(r) >= bytes,
                "round {}: peak {} under a single allocation",
                round,
                LOCAL.peak(r)
            );
            assert_eq!(LOCAL.current(r), 0, "round {}: leak", round);
        }

        // Deterministic variant: hold all allocations live across a
        // barrier so max(concurrent currents) is exactly threads×bytes.
        LOCAL.reset();
        let hold = Arc::new(Barrier::new(threads as usize));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let hold = Arc::clone(&hold);
                std::thread::spawn(move || {
                    LOCAL.alloc(r, bytes);
                    hold.wait(); // all `threads × bytes` live right now
                    LOCAL.free(r, bytes);
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert!(
            LOCAL.peak(r) >= threads * bytes,
            "peak {} must cover the simultaneous high-water mark {}",
            LOCAL.peak(r),
            threads * bytes
        );
    }
}
