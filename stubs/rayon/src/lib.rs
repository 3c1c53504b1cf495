//! Offline stub of the `rayon` crate covering the API surface this
//! workspace uses, backed by a **real work-stealing thread pool** built
//! on `std::thread` + mutex-guarded deques (no external dependencies).
//!
//! A pool of size `N` spawns `N − 1` worker threads; the submitting
//! thread participates as the `N`-th executor while it waits (it steals
//! and runs pending chunks instead of blocking). A pool of size ≤ 1
//! spawns no threads at all and runs everything inline on the caller,
//! which makes the single-core / `AARRAY_NUM_THREADS=1` configuration
//! bit-and-timing-identical to the old sequential stub.
//!
//! **Work distribution.** Parallel stages split their input into
//! contiguous chunks (about 4 × threads, so stragglers rebalance).
//! Chunks are placed round-robin onto per-worker deques; a worker pops
//! its own deque LIFO (cache-warm) and steals from other deques FIFO
//! (oldest first, the classic Chase–Lev discipline, here with plain
//! mutexed `VecDeque`s — contention is per-chunk, not per-row, so the
//! lock cost is noise). Sleeping workers park on a ticket semaphore
//! (`Mutex<u64>` + `Condvar`); every pushed chunk adds a ticket, every
//! woken worker does a full own-then-steal scan, so no chunk can be
//! stranded in a deque while workers sleep.
//!
//! **Determinism.** Chunks may execute on any thread in any order, but
//! every result lands in its input-indexed slot and chunk-carried state
//! (`map_init`) is per-chunk, folded left-to-right inside the chunk.
//! The workspace's kernels are row-partitioned with per-row fold order
//! identical to the serial kernels, so outputs are bit-identical to
//! sequential execution for **any** operations — no associativity or
//! commutativity is assumed. `reduce`/`reduce_with` reassociate only at
//! chunk boundaries, deterministically (chunk results combine in chunk
//! order), which is a strictly smaller reassociation than real rayon's.
//!
//! **Panics** in any chunk are caught, the first one is stashed, the
//! region still drains (so the pool is reusable), and the panic resumes
//! on the submitting thread — matching real rayon's propagation.
//!
//! `current_num_threads()` reports the innermost [`ThreadPool::install`]
//! scope on the current thread, the owning pool's size on a worker
//! thread, and otherwise the global pool's size (from the warn-once
//! `AARRAY_NUM_THREADS` env knob, defaulting to
//! `std::thread::available_parallelism()`). See `stubs/README.md` for
//! swapping the real crate back.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

thread_local! {
    /// Stack of pools entered via [`ThreadPool::install`] on this
    /// thread (innermost last).
    static CURRENT_POOL: RefCell<Vec<Arc<Registry>>> = const { RefCell::new(Vec::new()) };
    /// Non-zero on pool worker threads: the owning pool's size. Doubles
    /// as the "am I a worker?" flag that makes nested parallel stages
    /// run inline instead of deadlocking on their own pool.
    static WORKER_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Chunks executed by the worker that owned their deque slot vs.
/// chunks taken by a different thread vs. chunks run inline on the
/// submitting thread because no pool could help (size ≤ 1, or a nested
/// region on a worker thread). Drained by [`take_task_stats`].
static TASKS_LOCAL: AtomicU64 = AtomicU64::new(0);
static TASKS_STOLEN: AtomicU64 = AtomicU64::new(0);
static TASKS_INLINE: AtomicU64 = AtomicU64::new(0);

/// Drain the `(executed-locally, stolen, inline)` chunk counters
/// accumulated since the last call (atomic swap-to-zero, so concurrent
/// drains never double-count). Inline chunks ran on the submitting
/// thread without ever entering a deque — distinct from `local`, which
/// counts chunks a pool worker executed from its own slot. **Stub
/// extension** — not part of real rayon's API; the workspace's obs
/// bridge is the only caller and is documented in `stubs/README.md`
/// for the swap-back procedure.
pub fn take_task_stats() -> (u64, u64, u64) {
    (
        TASKS_LOCAL.swap(0, Ordering::Relaxed),
        TASKS_STOLEN.swap(0, Ordering::Relaxed),
        TASKS_INLINE.swap(0, Ordering::Relaxed),
    )
}

/// Number of threads in the current pool: the innermost `install`
/// scope, else the owning pool on a worker thread, else the global
/// pool (sized by `AARRAY_NUM_THREADS` / `available_parallelism`).
pub fn current_num_threads() -> usize {
    if let Some(n) = CURRENT_POOL.with(|s| s.borrow().last().map(|r| r.size)) {
        return n;
    }
    let w = WORKER_THREADS.with(|c| c.get());
    if w > 0 {
        return w;
    }
    global_registry().size
}

fn in_worker() -> bool {
    WORKER_THREADS.with(|c| c.get()) > 0
}

/// Pool size for the implicit global pool: `AARRAY_NUM_THREADS` when
/// set to a positive integer, otherwise (including `0` = auto) the
/// host's available parallelism. Unparsable values warn once to stderr
/// and fall back to auto.
fn default_pool_size() -> usize {
    static WARNED: AtomicBool = AtomicBool::new(false);
    let auto = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match std::env::var("AARRAY_NUM_THREADS") {
        Err(_) => auto,
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(0) => auto,
            Ok(n) => n,
            Err(_) => {
                if !WARNED.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "warning: AARRAY_NUM_THREADS={raw:?} is not a \
                         non-negative integer; using {auto} threads"
                    );
                }
                auto
            }
        },
    }
}

fn global_registry() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new(default_pool_size())))
}

/// The registry to fan out on from the current thread, or `None` when
/// fan-out cannot help (pool size ≤ 1, or we *are* a pool worker and
/// nested fan-out would run inline anyway).
fn active_registry() -> Option<Arc<Registry>> {
    if in_worker() {
        return None;
    }
    let reg = CURRENT_POOL
        .with(|s| s.borrow().last().cloned())
        .unwrap_or_else(|| global_registry().clone());
    if reg.size <= 1 || reg.handles.is_empty() {
        None
    } else {
        Some(reg)
    }
}

// ---------------------------------------------------------------------
// The pool.
// ---------------------------------------------------------------------

/// One queued chunk of a region. Jobs only ever live in the deque they
/// were placed on, so an own-deque pop is "local" and anything else is
/// a steal.
struct Job {
    region: Arc<Region>,
    chunk: usize,
}

/// A batch of chunks submitted together: the chunk body, a completion
/// latch, and the first caught panic (resumed on the submitter).
struct Region {
    /// Lifetime-erased chunk body. Sound because [`Registry::run_region`]
    /// blocks until `done == total`, after which `run` is never invoked
    /// again — the erased borrow outlives every call through it.
    run: &'static (dyn Fn(usize) + Sync),
    total: usize,
    done: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    complete: Mutex<bool>,
    cv: Condvar,
}

struct Shared {
    /// One deque per worker thread. Owners pop the back (LIFO), thieves
    /// and the submitter pop the front (FIFO).
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Ticket semaphore: an upper bound on pending chunks. Workers
    /// consume a ticket per wake and then scan everything, so a spare
    /// ticket costs one empty scan and a missing wake is impossible
    /// (tickets are added strictly after their chunks are visible).
    tickets: Mutex<u64>,
    cond: Condvar,
    shutdown: AtomicBool,
    next_home: AtomicUsize,
}

impl Shared {
    /// Pop the oldest chunk from any deque except `skip` (use
    /// `usize::MAX` to scan all of them).
    fn steal(&self, skip: usize) -> Option<Job> {
        for (w, dq) in self.deques.iter().enumerate() {
            if w == skip {
                continue;
            }
            if let Some(job) = dq.lock().unwrap().pop_front() {
                return Some(job);
            }
        }
        None
    }
}

/// Run one chunk, routing its panic (if any) to the region and tripping
/// the completion latch when it is the last one.
fn execute(job: Job, stolen: bool) {
    let result = catch_unwind(AssertUnwindSafe(|| (job.region.run)(job.chunk)));
    if let Err(payload) = result {
        let mut slot = job.region.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
    if stolen {
        TASKS_STOLEN.fetch_add(1, Ordering::Relaxed);
    } else {
        TASKS_LOCAL.fetch_add(1, Ordering::Relaxed);
    }
    // AcqRel: the last increment acquires every finished chunk's writes
    // before the submitter observes the latch.
    let done = job.region.done.fetch_add(1, Ordering::AcqRel) + 1;
    if done == job.region.total {
        let mut c = job.region.complete.lock().unwrap();
        *c = true;
        job.region.cv.notify_all();
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize, pool_size: usize) {
    WORKER_THREADS.with(|c| c.set(pool_size));
    loop {
        // Drain: own deque newest-first, then steal oldest-first.
        loop {
            let own = shared.deques[me].lock().unwrap().pop_back();
            if let Some(job) = own {
                execute(job, false);
                continue;
            }
            match shared.steal(me) {
                Some(job) => execute(job, true),
                None => break,
            }
        }
        // Sleep until a ticket arrives (or shutdown).
        let mut t = shared.tickets.lock().unwrap();
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            if *t > 0 {
                *t -= 1;
                break;
            }
            t = shared.cond.wait(t).unwrap();
        }
    }
}

/// A pool's shared state plus its worker handles. Dropping the registry
/// signals shutdown and joins every worker.
struct Registry {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    size: usize,
}

impl Registry {
    fn new(size: usize) -> Registry {
        let workers = size.saturating_sub(1);
        let shared = Arc::new(Shared {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            tickets: Mutex::new(0),
            cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_home: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("aarray-pool-{w}"))
                    .spawn(move || worker_loop(shared, w, size))
                    .expect("spawn pool worker")
            })
            .collect();
        Registry {
            shared,
            handles,
            size,
        }
    }

    /// Fan `total` chunks out to the workers and help execute until all
    /// are done; resume the first chunk panic, if any, on this thread.
    fn run_region(&self, total: usize, f: &(dyn Fn(usize) + Sync)) {
        // Erase the borrow's lifetime so jobs can hold it. Sound: this
        // function does not return until every chunk has executed, and
        // `run` is never called after the latch trips.
        let run: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        let region = Arc::new(Region {
            run,
            total,
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
            complete: Mutex::new(false),
            cv: Condvar::new(),
        });
        let nd = self.shared.deques.len();
        for chunk in 0..total {
            let home = self.shared.next_home.fetch_add(1, Ordering::Relaxed) % nd;
            self.shared.deques[home].lock().unwrap().push_back(Job {
                region: region.clone(),
                chunk,
            });
        }
        {
            let mut t = self.shared.tickets.lock().unwrap();
            *t += total as u64;
        }
        self.shared.cond.notify_all();

        // Submitter-helps: execute pending chunks (ours or anyone's)
        // instead of blocking; park on the latch only when every deque
        // is empty — at that point all our chunks are held by threads
        // that will trip the latch.
        loop {
            if *region.complete.lock().unwrap() {
                break;
            }
            match self.shared.steal(usize::MAX) {
                Some(job) => execute(job, true),
                None => {
                    let mut c = region.complete.lock().unwrap();
                    while !*c {
                        c = region.cv.wait(c).unwrap();
                    }
                    break;
                }
            }
        }
        let payload = region.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        // Raise the flag under the ticket lock: a worker checks it under
        // that lock before parking, so it either sees the flag or is
        // already waiting when the notify below arrives. Stored without
        // the lock, the notify could land between a worker's check and
        // its wait, and the join would hang.
        {
            let _tickets = self.shared.tickets.lock().unwrap();
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.cond.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Number of chunks for an `n`-item parallel stage: ~4 per thread so
/// uneven chunks rebalance by stealing, capped at one item per chunk.
/// A 1-thread pool gets exactly one chunk — inline execution with the
/// exact sequential state-threading of the old stub.
fn chunk_count(n: usize) -> usize {
    let t = current_num_threads();
    if t <= 1 || n <= 1 {
        1
    } else {
        (t * 4).min(n)
    }
}

/// `k` contiguous `(lo, hi)` ranges covering `0..n`, sizes differing by
/// at most one.
fn chunk_bounds(n: usize, k: usize) -> Vec<(usize, usize)> {
    let base = n / k;
    let extra = n % k;
    let mut bounds = Vec::with_capacity(k);
    let mut lo = 0;
    for c in 0..k {
        let hi = lo + base + usize::from(c < extra);
        bounds.push((lo, hi));
        lo = hi;
    }
    bounds
}

/// Run `f(chunk_index)` for every chunk in `0..total`, on the active
/// pool when one can help, inline otherwise. Panics propagate to the
/// caller either way.
fn run_region(total: usize, f: &(dyn Fn(usize) + Sync)) {
    if total == 0 {
        return;
    }
    match active_registry() {
        Some(reg) => reg.run_region(total, f),
        None => {
            for chunk in 0..total {
                f(chunk);
            }
            TASKS_INLINE.fetch_add(total as u64, Ordering::Relaxed);
        }
    }
}

/// Raw-pointer capsule so disjoint chunk ranges of one buffer can be
/// written from several threads. Safety rests on the ranges being
/// disjoint, which [`chunk_bounds`] guarantees.
struct SyncPtr<T>(*mut T);
unsafe impl<T> Send for SyncPtr<T> {}
unsafe impl<T> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// Accessor (rather than field access) so closures capture the
    /// `Sync` wrapper, not the raw pointer inside it.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// The parallel engine every iterator stage lowers to: move each item
/// through `f` (with per-chunk `init` state) into the same slot of the
/// output vector. Order-preserving by construction. On a chunk panic
/// the not-yet-processed items and the produced outputs leak (no double
/// drop, no uninitialized drop) and the panic resumes on the caller.
fn par_transform<T, S, R>(
    items: Vec<T>,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, T) -> R + Sync,
) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let n = items.len();
    let k = chunk_count(n);
    if k <= 1 {
        // The single chunk runs right here on the submitting thread;
        // it never enters a deque, so it counts as inline work.
        if n > 0 {
            TASKS_INLINE.fetch_add(1, Ordering::Relaxed);
        }
        let mut state = init();
        return items.into_iter().map(|x| f(&mut state, x)).collect();
    }
    let bounds = chunk_bounds(n, k);
    let mut src = items;
    let mut out: Vec<std::mem::MaybeUninit<R>> = Vec::with_capacity(n);
    // SAFETY: MaybeUninit slots need no initialization; every slot is
    // written exactly once below before the vec is reinterpreted.
    unsafe { out.set_len(n) };
    let src_ptr = SyncPtr(src.as_mut_ptr());
    let out_ptr = SyncPtr(out.as_mut_ptr());
    // The chunks take ownership of the elements; stop the source vec
    // from dropping them (on panic the unclaimed ones leak, never
    // double-free).
    unsafe { src.set_len(0) };
    run_region(k, &|chunk| {
        let (lo, hi) = bounds[chunk];
        let mut state = init();
        for i in lo..hi {
            // SAFETY: chunk ranges are disjoint; each source slot is
            // read once and each output slot written once.
            unsafe {
                let x = std::ptr::read(src_ptr.get().add(i));
                std::ptr::write(
                    out_ptr.get().add(i),
                    std::mem::MaybeUninit::new(f(&mut state, x)),
                );
            }
        }
    });
    // SAFETY: run_region returned normally, so all n slots are
    // initialized; MaybeUninit<R> and R share layout.
    let (ptr, len, cap) = (out.as_mut_ptr(), out.len(), out.capacity());
    std::mem::forget(out);
    unsafe { Vec::from_raw_parts(ptr as *mut R, len, cap) }
}

/// Split a vec into `k` contiguous chunks (sizes as [`chunk_bounds`]).
fn split_chunks<T>(mut items: Vec<T>, k: usize) -> Vec<Vec<T>> {
    let bounds = chunk_bounds(items.len(), k);
    let mut chunks = Vec::with_capacity(k);
    for c in (0..k).rev() {
        chunks.push(items.split_off(bounds[c].0));
    }
    chunks.reverse();
    chunks
}

/// Run two closures in parallel (as a 2-chunk region on the active
/// pool; inline when no pool can help). A panic in either closure
/// propagates after both slots have settled.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let fa = Mutex::new(Some(a));
    let fb = Mutex::new(Some(b));
    let ra: Mutex<Option<RA>> = Mutex::new(None);
    let rb: Mutex<Option<RB>> = Mutex::new(None);
    run_region(2, &|chunk| {
        if chunk == 0 {
            let f = fa.lock().unwrap().take().expect("join slot a runs once");
            *ra.lock().unwrap() = Some(f());
        } else {
            let f = fb.lock().unwrap().take().expect("join slot b runs once");
            *rb.lock().unwrap() = Some(f());
        }
    });
    (
        ra.into_inner().unwrap().expect("join slot a completed"),
        rb.into_inner().unwrap().expect("join slot b completed"),
    )
}

/// Builder for a [`ThreadPool`].
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// New builder with default settings.
    pub fn new() -> Self {
        ThreadPoolBuilder { num_threads: 0 }
    }

    /// Set the pool size (0 = automatic: `AARRAY_NUM_THREADS`, else
    /// the host's available parallelism).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the pool, spawning its workers. Never fails in the stub.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            default_pool_size()
        } else {
            self.num_threads
        };
        Ok(ThreadPool {
            registry: Arc::new(Registry::new(n)),
        })
    }
}

/// Error type for [`ThreadPoolBuilder::build`] (never produced here).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error (unreachable in stub)")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A real pool of `size − 1` worker threads plus the installing thread.
/// Workers are joined when the pool is dropped.
pub struct ThreadPool {
    registry: Arc<Registry>,
}

impl ThreadPool {
    /// Execute `op` with this pool as the current one: parallel stages
    /// inside fan out to this pool's workers and
    /// [`current_num_threads`] reports its size.
    pub fn install<O, R>(&self, op: O) -> R
    where
        O: FnOnce() -> R + Send,
        R: Send,
    {
        CURRENT_POOL.with(|s| s.borrow_mut().push(self.registry.clone()));
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                CURRENT_POOL.with(|s| {
                    s.borrow_mut().pop();
                });
            }
        }
        let _guard = Guard;
        op()
    }

    /// The configured pool size.
    pub fn current_num_threads(&self) -> usize {
        self.registry.size
    }
}

/// Rayon-shaped parallel iterators over materialized items. Stages that
/// do per-item work (`map`, `map_init`, `for_each`, reductions) execute
/// eagerly on the current pool; cheap shaping stages (`filter`,
/// `collect`, `sum`) run on the caller.
pub mod iter {
    use super::{chunk_count, par_transform, split_chunks};

    /// A parallel iterator: the items it will distribute, in order.
    pub struct ParIter<T: Send> {
        items: Vec<T>,
    }

    /// Conversion into a parallel iterator by value.
    pub trait IntoParallelIterator {
        /// Element type.
        type Item: Send;
        /// Convert self.
        fn into_par_iter(self) -> ParIter<Self::Item>;
    }

    /// Conversion into a parallel iterator over references.
    pub trait IntoParallelRefIterator<'a> {
        /// Element type (a reference).
        type Item: Send + 'a;
        /// Iterate references in parallel.
        fn par_iter(&'a self) -> ParIter<Self::Item>;
    }

    impl<I: IntoIterator> IntoParallelIterator for I
    where
        I::Item: Send,
    {
        type Item = I::Item;
        fn into_par_iter(self) -> ParIter<I::Item> {
            ParIter {
                items: self.into_iter().collect(),
            }
        }
    }

    impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
    where
        &'a C: IntoIterator,
        <&'a C as IntoIterator>::Item: Send,
    {
        type Item = <&'a C as IntoIterator>::Item;
        fn par_iter(&'a self) -> ParIter<Self::Item> {
            ParIter {
                items: self.into_iter().collect(),
            }
        }
    }

    impl<T: Send> ParIter<T> {
        /// Map each element (parallel, order-preserving).
        pub fn map<R, F>(self, f: F) -> ParIter<R>
        where
            R: Send,
            F: Fn(T) -> R + Sync + Send,
        {
            ParIter {
                items: par_transform(self.items, || (), |(), x| f(x)),
            }
        }

        /// Map with per-chunk scratch state: `init` runs once per chunk
        /// (≈ rayon's once-per-worker-segment) and the state threads
        /// left-to-right through that chunk's items. With one thread
        /// there is exactly one chunk, i.e. the sequential semantics.
        pub fn map_init<INIT, S, F, R>(self, init: INIT, f: F) -> ParIter<R>
        where
            R: Send,
            INIT: Fn() -> S + Sync + Send,
            F: Fn(&mut S, T) -> R + Sync + Send,
        {
            ParIter {
                items: par_transform(self.items, init, f),
            }
        }

        /// Filter elements (on the caller; predicates are cheap here).
        pub fn filter<F>(self, mut f: F) -> ParIter<T>
        where
            F: FnMut(&T) -> bool,
        {
            ParIter {
                items: self.items.into_iter().filter(|x| f(x)).collect(),
            }
        }

        /// Chunk-wise reduction without identity: chunks fold
        /// left-to-right in parallel, then chunk results fold in chunk
        /// order — deterministic for a fixed thread count.
        pub fn reduce_with<F>(self, f: F) -> Option<T>
        where
            F: Fn(T, T) -> T + Sync + Send,
        {
            let k = chunk_count(self.items.len());
            if k <= 1 {
                if !self.items.is_empty() {
                    super::TASKS_INLINE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                return self.items.into_iter().reduce(f);
            }
            let partials = par_transform(
                split_chunks(self.items, k),
                || (),
                |(), chunk| chunk.into_iter().reduce(&f),
            );
            partials.into_iter().flatten().reduce(f)
        }

        /// Chunk-wise reduction with identity (rayon's `reduce`).
        pub fn reduce<ID, F>(self, identity: ID, f: F) -> T
        where
            ID: Fn() -> T + Sync + Send,
            F: Fn(T, T) -> T + Sync + Send,
        {
            let k = chunk_count(self.items.len());
            if k <= 1 {
                if !self.items.is_empty() {
                    super::TASKS_INLINE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                return self.items.into_iter().fold(identity(), &f);
            }
            let partials = par_transform(
                split_chunks(self.items, k),
                || (),
                |(), chunk| chunk.into_iter().fold(identity(), &f),
            );
            partials.into_iter().fold(identity(), f)
        }

        /// Sum the elements (on the caller; the upstream stages did the
        /// parallel work).
        pub fn sum<S>(self) -> S
        where
            S: std::iter::Sum<T>,
        {
            self.items.into_iter().sum()
        }

        /// Collect into a container, preserving input order.
        pub fn collect<C>(self) -> C
        where
            C: FromIterator<T>,
        {
            self.items.into_iter().collect()
        }

        /// Consume every element with a side-effecting closure
        /// (parallel; effects must tolerate any interleaving).
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(T) + Sync + Send,
        {
            let _: Vec<()> = par_transform(self.items, || (), |(), x| f(x));
        }
    }

    impl<'a, U: Clone + Send + Sync + 'a> ParIter<&'a U> {
        /// Clone referenced elements (parallel, order-preserving).
        pub fn cloned(self) -> ParIter<U> {
            ParIter {
                items: par_transform(self.items, || (), |(), x: &U| x.clone()),
            }
        }
    }
}

/// What `use rayon::prelude::*` is expected to bring in.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn pool(n: usize) -> super::ThreadPool {
        super::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    }

    #[test]
    fn map_collect_matches_serial() {
        for threads in [1, 2, 4, 8] {
            let v: Vec<usize> =
                pool(threads).install(|| (0..1000usize).into_par_iter().map(|x| x * 2).collect());
            assert_eq!(v, (0..1000).map(|x| x * 2).collect::<Vec<_>>(), "{threads}");
        }
    }

    #[test]
    fn map_init_is_sequential_on_one_thread() {
        // One thread ⇒ one chunk ⇒ one state threaded left-to-right,
        // exactly the old sequential stub's semantics.
        let v: Vec<usize> = pool(1).install(|| {
            (0..5usize)
                .into_par_iter()
                .map_init(
                    || 100usize,
                    |s, x| {
                        *s += 1;
                        *s + x
                    },
                )
                .collect()
        });
        assert_eq!(v, vec![101, 103, 105, 107, 109]);
    }

    #[test]
    fn map_init_state_is_per_chunk_and_output_ordered() {
        // State must reset at chunk boundaries (per-chunk scratch, not
        // one shared accumulator) and outputs must stay input-ordered
        // whatever the execution order.
        for threads in [2, 4, 8] {
            let v: Vec<(usize, usize)> = pool(threads).install(|| {
                (0..100usize)
                    .into_par_iter()
                    .map_init(
                        || 0usize,
                        |seen_in_chunk, x| {
                            *seen_in_chunk += 1;
                            (x, *seen_in_chunk)
                        },
                    )
                    .collect()
            });
            for (i, &(x, seen)) in v.iter().enumerate() {
                assert_eq!(x, i, "order preserved");
                // A fresh chunk state can never have seen more items
                // than the prefix of its own chunk.
                assert!(seen <= i + 1, "state leaked across chunks at {i}");
            }
            // First item of the first chunk always sees a fresh state.
            assert_eq!(v[0].1, 1);
        }
    }

    #[test]
    fn par_iter_over_slice() {
        let data = [1u64, 2, 3];
        let s: u64 = data.par_iter().cloned().reduce_with(|a, b| a + b).unwrap();
        assert_eq!(s, 6);
    }

    #[test]
    fn reductions_match_serial_at_all_pool_sizes() {
        let data: Vec<u64> = (1..=101).collect();
        for threads in [1, 2, 4, 8] {
            let p = pool(threads);
            let max = p.install(|| data.par_iter().cloned().reduce_with(std::cmp::max));
            assert_eq!(max, Some(101));
            let sum = p.install(|| data.par_iter().cloned().reduce(|| 0u64, |a, b| a + b));
            assert_eq!(sum, 101 * 102 / 2);
        }
    }

    #[test]
    fn install_scopes_thread_count_and_nests() {
        let outer = pool(2);
        let inner = pool(3);
        outer.install(|| {
            assert_eq!(super::current_num_threads(), 2);
            inner.install(|| assert_eq!(super::current_num_threads(), 3));
            assert_eq!(super::current_num_threads(), 2);
        });
        assert_eq!(outer.current_num_threads(), 2);
        assert_eq!(inner.current_num_threads(), 3);
    }

    #[test]
    fn join_runs_both_and_returns_in_order() {
        for threads in [1, 4] {
            let (a, b) = pool(threads).install(|| super::join(|| 2 + 2, || "side b"));
            assert_eq!((a, b), (4, "side b"));
        }
    }

    #[test]
    fn join_propagates_panic_from_either_side() {
        let p = pool(4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.install(|| super::join(|| 1, || panic!("right side boom")))
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("right side boom"), "{msg:?}");
        // The pool must survive a panicked region.
        let v: Vec<usize> = p.install(|| (0..10usize).into_par_iter().map(|x| x).collect());
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn par_iter_propagates_worker_panic() {
        let p = pool(4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.install(|| {
                (0..100usize)
                    .into_par_iter()
                    .map(|i| if i == 37 { panic!("row 37 boom") } else { i })
                    .collect::<Vec<_>>()
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("row 37 boom"), "{msg:?}");
        let v: Vec<usize> = p.install(|| (0..10usize).into_par_iter().map(|x| x + 1).collect());
        assert_eq!(v, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallel_stages_run_inline_on_workers() {
        // A parallel stage inside a parallel stage must not deadlock:
        // workers run nested regions inline.
        let serial: Vec<usize> = (0..8usize)
            .map(|i| (0..8usize).map(|j| i * 8 + j).sum())
            .collect();
        let nested: Vec<usize> = pool(4).install(|| {
            (0..8usize)
                .into_par_iter()
                .map(|i| (0..8usize).into_par_iter().map(|j| i * 8 + j).sum())
                .collect()
        });
        assert_eq!(nested, serial);
    }

    #[test]
    fn work_actually_lands_on_spawned_workers() {
        // With enough chunks and a blocking submitter, at least one
        // chunk must execute on a thread other than the submitter.
        let submitter = std::thread::current().id();
        let elsewhere = AtomicUsize::new(0);
        pool(4).install(|| {
            (0..64usize).into_par_iter().for_each(|_| {
                if std::thread::current().id() != submitter {
                    elsewhere.fetch_add(1, Ordering::Relaxed);
                }
                // Give other executors a window to claim chunks.
                std::thread::sleep(std::time::Duration::from_micros(200));
            });
        });
        assert!(
            elsewhere.load(Ordering::Relaxed) > 0,
            "no chunk ran off the submitting thread"
        );
    }

    #[test]
    fn task_stats_account_every_chunk() {
        let _ = super::take_task_stats();
        let p = pool(4);
        let v: Vec<usize> = p.install(|| (0..100usize).into_par_iter().map(|x| x).collect());
        assert_eq!(v.len(), 100);
        let (local, stolen, _inline) = super::take_task_stats();
        // 100 items in a 4-thread pool ⇒ 16 chunks, each counted
        // exactly once somewhere (other tests may add, never subtract).
        assert!(local + stolen >= 16, "local={local} stolen={stolen}");
    }

    #[test]
    fn task_stats_count_inline_chunks_separately() {
        let _ = super::take_task_stats();
        let p = pool(1);
        let v: Vec<usize> = p.install(|| (0..10usize).into_par_iter().map(|x| x).collect());
        assert_eq!(v.len(), 10);
        let (_, stolen, inline) = super::take_task_stats();
        // A 1-thread pool never fans out: every chunk runs inline on
        // the submitting thread and nothing can be stolen from it. A
        // concurrent test's 4-thread pool may add local/stolen counts,
        // but inline work is what this region must have produced.
        assert!(inline >= 1, "inline={inline} stolen={stolen}");
    }

    #[test]
    fn region_outputs_are_visible_after_latch() {
        // Hammer the happens-before edge from worker writes to the
        // submitter's read of the output buffer.
        let p = pool(4);
        for round in 0..200usize {
            let v: Vec<usize> = p.install(|| {
                (0..32usize)
                    .into_par_iter()
                    .map(|x| x.wrapping_mul(round + 1))
                    .collect()
            });
            for (i, &got) in v.iter().enumerate() {
                assert_eq!(got, i.wrapping_mul(round + 1));
            }
        }
    }

    #[test]
    fn map_init_under_mutation_heavy_contention() {
        // Shared side effects through a mutex stay consistent while the
        // per-chunk state partitions the items exactly.
        let log = Mutex::new(Vec::new());
        pool(8).install(|| {
            (0..500usize).into_par_iter().for_each(|x| {
                log.lock().unwrap().push(x);
            });
        });
        let mut seen = log.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
    }
}
