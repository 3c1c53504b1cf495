//! Per-operation ledger: OpId correlation and completion records.
//!
//! Counters, histograms, and the journal are process-global: they can
//! say how the process is doing, but not *why one particular execution
//! was slow*. The ledger closes that gap. Every root operation — a
//! plan build, a plan execution, a one-shot matmul or kernel call, an
//! incremental delta apply or rebuild — allocates an [`OpId`] from a
//! relaxed-atomic allocator and installs it as the thread's *current
//! op* for the duration ([`OpScope`]). Journal records written while
//! an op is current carry the op in a payload slot, so every stage
//! span and explain event can be joined back to the operation that
//! produced it, and a per-op Chrome-trace view can be cut from the
//! op's journal sequence window.
//!
//! When the operation completes, one fixed-size [`OpRecord`] is
//! published into a process-global bounded ring ([`OpLog`]) using the
//! same per-slot seqlock discipline as the journal: writers claim a
//! sequence number with one relaxed `fetch_add` and never block or
//! allocate; the oldest records are overwritten when the ring wraps
//! (`dropped = recorded − capacity`); readers reject torn records by
//! sequence check. The record carries the op kind, the thread's
//! workload label, a per-stage nanosecond breakdown derived from the
//! op's own journal spans, flops, output nnz, lanes, the dispatch
//! decision (serial/parallel + pool size), the fallback reason code,
//! the scratch-memory high-water growth, the wall time, and the
//! journal sequence window `[seq_start, seq_end)`.
//!
//! On top of the ring, the ledger keeps per-op-kind tail histograms
//! (wall ns through the existing log2 bucket machinery, so p50/p95/p99
//! come for free) and per-`(kind, label)` completion counts for the
//! Prometheus exporter. "Slowest-N exemplars" are derived at snapshot
//! time from the ring's survivors ([`OpLogSnapshot::slowest`]) — an op
//! evicted by wraparound can no longer be an exemplar, so size the
//! ring (env knob `AARRAY_OBS_OPS`, default 4096 records) to cover the
//! window you intend to inspect.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::journal::{journal, Event, EventKind, Stage};
use crate::memstats::{memstats, MemRegion};
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Name of the environment variable setting the op-ledger ring
/// capacity in records. Unset means [`DEFAULT_OP_RECORDS`]; anything
/// that does not parse as a positive integer is an env-parse error
/// (warn once, keep the default) — the same contract as
/// `AARRAY_OBS_EVENTS` and `AARRAY_OBS_HISTOGRAMS`.
pub const OPS_ENV: &str = "AARRAY_OBS_OPS";

/// Default ledger ring capacity in records when `AARRAY_OBS_OPS` is
/// unset (16 words per record ≈ 512 KiB).
pub const DEFAULT_OP_RECORDS: usize = 4096;

/// Distinct workload labels whose per-kind completion counts are
/// tracked lock-free; labels interned past this limit fold into the
/// unlabeled slot (their records still carry the real label id 0).
pub const MAX_OP_LABELS: usize = 32;

/// What kind of root operation a ledger record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum OpKind {
    /// Plan construction (`matmul_plan` / `transpose_matmul_plan`):
    /// key alignment plus optional transpose materialization.
    PlanBuild,
    /// A `MatmulPlan::execute` / `execute_all` call: symbolic pass (on
    /// first use) plus the fused numeric traversal.
    PlanExecute,
    /// A one-shot `AArray::matmul`-family call outside any plan.
    Matmul,
    /// A direct one-shot kernel invocation (`spgemm` / `spgemm_multi`)
    /// not reached through a plan or matmul wrapper.
    Kernel,
    /// Incremental refresh bringing lanes current via delta SpGEMM.
    DeltaApply,
    /// Incremental refresh falling back to a full lane rebuild.
    Rebuild,
}

/// Number of op kinds.
pub const N_OP_KINDS: usize = OpKind::Rebuild as usize + 1;

/// Every op kind with its export label, in enum order.
pub const OP_KIND_NAMES: [(OpKind, &str); N_OP_KINDS] = [
    (OpKind::PlanBuild, "plan-build"),
    (OpKind::PlanExecute, "plan-execute"),
    (OpKind::Matmul, "matmul"),
    (OpKind::Kernel, "kernel"),
    (OpKind::DeltaApply, "delta-apply"),
    (OpKind::Rebuild, "rebuild"),
];

impl OpKind {
    /// The export label (`plan-execute`, `delta-apply`, …).
    pub fn name(self) -> &'static str {
        OP_KIND_NAMES[self as usize].1
    }

    /// Decode a slot word back into a kind.
    pub fn from_u32(v: u32) -> Option<OpKind> {
        OP_KIND_NAMES.get(v as usize).map(|&(k, _)| k)
    }
}

/// OpId allocator: a process-global relaxed counter. Id 0 is reserved
/// for "no operation" (unattributed journal records).
static NEXT_OP_ID: AtomicU64 = AtomicU64::new(1);

fn alloc_op_id() -> u64 {
    NEXT_OP_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
}

/// The OpId currently installed on this thread (0 when none). The
/// journal stamps this into every record's op slot.
#[inline]
pub fn current_op() -> u64 {
    CURRENT_OP.with(Cell::get)
}

/// RAII guard restoring the previous current op on drop. Obtained via
/// [`enter_op`]; pool workers re-enter the submitting thread's op
/// inside their chunk closures so chunk spans stay attributed.
pub struct OpScope {
    prev: u64,
}

/// Install `id` as this thread's current op until the guard drops.
pub fn enter_op(id: u64) -> OpScope {
    let prev = CURRENT_OP.with(|c| c.replace(id));
    OpScope { prev }
}

impl Drop for OpScope {
    fn drop(&mut self) {
        CURRENT_OP.with(|c| c.set(self.prev));
    }
}

// ---------------------------------------------------------------------
// Workload labels.

fn label_table() -> &'static Mutex<Vec<String>> {
    static TABLE: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(vec![String::new()]))
}

thread_local! {
    /// The workload label id ops opened on this thread are stamped
    /// with (0 = unlabeled). Thread-local like the current op, so
    /// concurrent workloads never relabel each other's ops.
    static CURRENT_LABEL: Cell<u64> = const { Cell::new(0) };
}

/// The workload label id installed on this thread (0 when none).
#[inline]
fn current_label() -> u64 {
    CURRENT_LABEL.with(Cell::get)
}

/// Intern `label` (returning its stable id) without changing the
/// thread's label. Ids are assigned in first-seen order; id 0 is the
/// empty/unlabeled entry.
pub fn intern_label(label: &str) -> u64 {
    let mut t = label_table().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(i) = t.iter().position(|l| l == label) {
        return i as u64;
    }
    t.push(label.to_string());
    (t.len() - 1) as u64
}

/// RAII guard restoring the thread's previous workload label on drop.
pub struct LabelScope {
    prev: u64,
}

/// Intern `label` and install it as this thread's workload label, which
/// every op subsequently opened on the thread is stamped with, until
/// the guard drops. Labels are user-influenced strings; exporters
/// escape them.
pub fn workload_label(label: &str) -> LabelScope {
    let id = intern_label(label);
    let prev = CURRENT_LABEL.with(|c| c.replace(id));
    LabelScope { prev }
}

impl Drop for LabelScope {
    fn drop(&mut self) {
        CURRENT_LABEL.with(|c| c.set(self.prev));
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's ordinal, stamped on the ops it opens so a ledger
    /// window can be narrowed to the calling thread (`std`'s
    /// `ThreadId` has no stable integer form).
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's ordinal (≥ 1, never reused).
#[inline]
fn current_thread() -> u64 {
    THREAD.with(|t| *t)
}

/// A copy of the interned label table, index = label id.
pub fn labels() -> Vec<String> {
    label_table()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

// ---------------------------------------------------------------------
// The ring.

/// One decoded, validated ledger record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpRecord {
    /// Ledger sequence number (completion order; gaps mark overwritten
    /// or torn records).
    pub seq: u64,
    /// The operation's id.
    pub id: u64,
    /// What kind of operation completed.
    pub kind: OpKind,
    /// Interned workload label id (resolve via
    /// [`OpLogSnapshot::label_name`]).
    pub label: u64,
    /// Ordinal of the thread that opened the op.
    pub thread: u64,
    /// Key-alignment time within the op, ns.
    pub align_ns: u64,
    /// Transpose materialization time within the op, ns.
    pub transpose_ns: u64,
    /// Symbolic-pass time within the op, ns.
    pub symbolic_ns: u64,
    /// Numeric-pass time within the op (union of the op's numeric
    /// spans across threads, excluding time already inside a
    /// delta-apply span), ns.
    pub numeric_ns: u64,
    /// Delta-apply time within the op, ns.
    pub delta_ns: u64,
    /// Flops estimate of the op (0 when not estimated).
    pub flops: u64,
    /// Output nonzeros produced (summed over lanes).
    pub out_nnz: u64,
    /// Semiring lanes computed.
    pub lanes: u64,
    /// Whether the numeric pass took the row-parallel kernel.
    pub parallel: bool,
    /// Pool size at dispatch time (0 when not recorded).
    pub pool_threads: u64,
    /// Fallback reason: 0 = none, 1 = non-associative `⊕`,
    /// 2 = barrier / unreplayable log.
    pub fallback: u64,
    /// Scratch-memory high-water growth across the op, bytes (0 when
    /// the op stayed under a previously established peak).
    pub scratch_peak: u64,
    /// Wall-clock duration of the op, ns.
    pub wall_ns: u64,
    /// Journal cursor when the op began.
    pub seq_start: u64,
    /// Journal cursor when the op completed; the op's journal records
    /// live in `[seq_start, seq_end)`.
    pub seq_end: u64,
}

impl OpRecord {
    /// Sum of the five stage slots — by construction close to
    /// `wall_ns` (stages are derived from the op's own journal spans
    /// with double counting removed).
    pub fn stage_sum_ns(&self) -> u64 {
        self.align_ns + self.transpose_ns + self.symbolic_ns + self.numeric_ns + self.delta_ns
    }

    /// Human label for the fallback reason code.
    pub fn fallback_name(&self) -> &'static str {
        match self.fallback {
            0 => "none",
            1 => "non-associative-plus",
            2 => "barrier",
            _ => "unknown",
        }
    }
}

struct OpSlot {
    /// 0 = never written; `2·claim + 1` = write in progress;
    /// `2·claim + 2` = published.
    seq: AtomicU64,
    id: AtomicU64,
    /// `kind << 32 | label` — one word so the pair can never tear.
    kind_label: AtomicU64,
    thread: AtomicU64,
    align_ns: AtomicU64,
    transpose_ns: AtomicU64,
    symbolic_ns: AtomicU64,
    numeric_ns: AtomicU64,
    delta_ns: AtomicU64,
    flops: AtomicU64,
    out_nnz: AtomicU64,
    lanes: AtomicU64,
    /// `pool << 8 | fallback << 1 | parallel`.
    decision: AtomicU64,
    scratch_peak: AtomicU64,
    wall_ns: AtomicU64,
    seq_start: AtomicU64,
    seq_end: AtomicU64,
}

impl OpSlot {
    const fn new() -> OpSlot {
        OpSlot {
            seq: AtomicU64::new(0),
            id: AtomicU64::new(0),
            kind_label: AtomicU64::new(0),
            thread: AtomicU64::new(0),
            align_ns: AtomicU64::new(0),
            transpose_ns: AtomicU64::new(0),
            symbolic_ns: AtomicU64::new(0),
            numeric_ns: AtomicU64::new(0),
            delta_ns: AtomicU64::new(0),
            flops: AtomicU64::new(0),
            out_nnz: AtomicU64::new(0),
            lanes: AtomicU64::new(0),
            decision: AtomicU64::new(0),
            scratch_peak: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            seq_start: AtomicU64::new(0),
            seq_end: AtomicU64::new(0),
        }
    }
}

/// The unpublished, plain-field form of a record — what call sites
/// fill in before [`OpLog::record`] publishes it.
#[derive(Clone, Copy, Debug)]
pub struct OpDraft {
    /// See [`OpRecord::id`].
    pub id: u64,
    /// See [`OpRecord::kind`].
    pub kind: OpKind,
    /// See [`OpRecord::label`].
    pub label: u64,
    /// See [`OpRecord::thread`].
    pub thread: u64,
    /// See [`OpRecord::align_ns`].
    pub align_ns: u64,
    /// See [`OpRecord::transpose_ns`].
    pub transpose_ns: u64,
    /// See [`OpRecord::symbolic_ns`].
    pub symbolic_ns: u64,
    /// See [`OpRecord::numeric_ns`].
    pub numeric_ns: u64,
    /// See [`OpRecord::delta_ns`].
    pub delta_ns: u64,
    /// See [`OpRecord::flops`].
    pub flops: u64,
    /// See [`OpRecord::out_nnz`].
    pub out_nnz: u64,
    /// See [`OpRecord::lanes`].
    pub lanes: u64,
    /// See [`OpRecord::parallel`].
    pub parallel: bool,
    /// See [`OpRecord::pool_threads`].
    pub pool_threads: u64,
    /// See [`OpRecord::fallback`].
    pub fallback: u64,
    /// See [`OpRecord::scratch_peak`].
    pub scratch_peak: u64,
    /// See [`OpRecord::wall_ns`].
    pub wall_ns: u64,
    /// See [`OpRecord::seq_start`].
    pub seq_start: u64,
    /// See [`OpRecord::seq_end`].
    pub seq_end: u64,
}

impl OpDraft {
    /// An empty draft of the given kind, stamped with the calling
    /// thread.
    pub fn new(kind: OpKind) -> OpDraft {
        OpDraft {
            id: 0,
            kind,
            label: 0,
            thread: current_thread(),
            align_ns: 0,
            transpose_ns: 0,
            symbolic_ns: 0,
            numeric_ns: 0,
            delta_ns: 0,
            flops: 0,
            out_nnz: 0,
            lanes: 0,
            parallel: false,
            pool_threads: 0,
            fallback: 0,
            scratch_peak: 0,
            wall_ns: 0,
            seq_start: 0,
            seq_end: 0,
        }
    }
}

fn parse_capacity(raw: Option<&str>) -> Result<usize, ()> {
    match raw.map(str::trim) {
        None => Ok(DEFAULT_OP_RECORDS),
        Some(s) => match s.parse::<u64>() {
            Ok(n) if n > 0 => Ok(n.min(1 << 28) as usize),
            _ => Err(()),
        },
    }
}

fn capacity_from_env() -> usize {
    let raw = std::env::var(OPS_ENV).ok();
    parse_capacity(raw.as_deref()).unwrap_or_else(|()| {
        static WARNED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
        crate::counters::env_parse_error(
            &WARNED,
            OPS_ENV,
            raw.as_deref().unwrap_or(""),
            "the default op-ledger capacity",
        );
        DEFAULT_OP_RECORDS
    })
}

/// Summary figures of the ledger, embedded in [`crate::ObsReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpLogStats {
    /// Operations ever recorded (including overwritten ones).
    pub recorded: u64,
    /// Records overwritten by ring wraparound.
    pub dropped: u64,
    /// Ring capacity in records.
    pub capacity: u64,
}

/// The operation ledger. One process-wide instance is reachable via
/// [`oplog`]; tests can build private rings with
/// [`OpLog::with_capacity`].
pub struct OpLog {
    ring: OnceLock<Vec<OpSlot>>,
    /// Capacity forced at construction; 0 means "resolve from the
    /// environment at first use".
    fixed_cap: usize,
    head: AtomicU64,
    /// Wall-ns tail histograms per op kind (always on, like the
    /// counter registry).
    tails: [Histogram; N_OP_KINDS],
    /// Completion counts per `(kind, label)` for the Prometheus
    /// exporter; label ids ≥ [`MAX_OP_LABELS`] fold into column 0.
    label_counts: [[AtomicU64; MAX_OP_LABELS]; N_OP_KINDS],
}

impl OpLog {
    const fn new_env() -> OpLog {
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY_HIST: Histogram = Histogram::new();
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        #[allow(clippy::declare_interior_mutable_const)]
        const ROW: [AtomicU64; MAX_OP_LABELS] = [ZERO; MAX_OP_LABELS];
        OpLog {
            ring: OnceLock::new(),
            fixed_cap: 0,
            head: AtomicU64::new(0),
            tails: [EMPTY_HIST; N_OP_KINDS],
            label_counts: [ROW; N_OP_KINDS],
        }
    }

    /// A private ledger with an explicit capacity (tests, embedders).
    pub fn with_capacity(capacity: usize) -> OpLog {
        let mut l = OpLog::new_env();
        l.fixed_cap = capacity.max(1);
        l
    }

    fn ring(&self) -> &[OpSlot] {
        self.ring.get_or_init(|| {
            let cap = if self.fixed_cap > 0 {
                self.fixed_cap
            } else {
                capacity_from_env()
            };
            let mut v = Vec::with_capacity(cap);
            v.resize_with(cap, OpSlot::new);
            v
        })
    }

    /// Ring capacity in records (resolves the environment on first
    /// use).
    pub fn capacity(&self) -> usize {
        self.ring().len()
    }

    /// Total operations ever recorded. Also serves as a drain cursor:
    /// capture before a workload, then keep only records with
    /// `seq >= cursor` from a later snapshot.
    #[inline]
    pub fn cursor(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records overwritten by wraparound so far.
    pub fn dropped(&self) -> u64 {
        self.cursor().saturating_sub(self.capacity() as u64)
    }

    /// Publish one completed operation. Lock-free, allocation-free
    /// after the first call.
    pub fn record(&self, d: &OpDraft) {
        let ring = self.ring();
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &ring[(claim % ring.len() as u64) as usize];
        slot.seq.store(2 * claim + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.id.store(d.id, Ordering::Relaxed);
        slot.kind_label.store(
            ((d.kind as u64) << 32) | (d.label & 0xFFFF_FFFF),
            Ordering::Relaxed,
        );
        slot.thread.store(d.thread, Ordering::Relaxed);
        slot.align_ns.store(d.align_ns, Ordering::Relaxed);
        slot.transpose_ns.store(d.transpose_ns, Ordering::Relaxed);
        slot.symbolic_ns.store(d.symbolic_ns, Ordering::Relaxed);
        slot.numeric_ns.store(d.numeric_ns, Ordering::Relaxed);
        slot.delta_ns.store(d.delta_ns, Ordering::Relaxed);
        slot.flops.store(d.flops, Ordering::Relaxed);
        slot.out_nnz.store(d.out_nnz, Ordering::Relaxed);
        slot.lanes.store(d.lanes, Ordering::Relaxed);
        slot.decision.store(
            (d.pool_threads << 8) | ((d.fallback & 0x7F) << 1) | u64::from(d.parallel),
            Ordering::Relaxed,
        );
        slot.scratch_peak.store(d.scratch_peak, Ordering::Relaxed);
        slot.wall_ns.store(d.wall_ns, Ordering::Relaxed);
        slot.seq_start.store(d.seq_start, Ordering::Relaxed);
        slot.seq_end.store(d.seq_end, Ordering::Relaxed);
        slot.seq.store(2 * claim + 2, Ordering::Release);

        self.tails[d.kind as usize].record(d.wall_ns);
        let col = if (d.label as usize) < MAX_OP_LABELS {
            d.label as usize
        } else {
            0
        };
        self.label_counts[d.kind as usize][col].fetch_add(1, Ordering::Relaxed);
    }

    /// The wall-ns tail histogram for one op kind.
    pub fn tail(&self, kind: OpKind) -> &Histogram {
        &self.tails[kind as usize]
    }

    /// Copy out every validated record, oldest first (same torn-read
    /// rejection as the journal).
    pub fn snapshot(&self) -> OpLogSnapshot {
        let ring = self.ring();
        let recorded = self.head.load(Ordering::Acquire);
        let mut records = Vec::with_capacity(ring.len().min(recorded as usize));
        let mut torn = 0u64;
        for slot in ring {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 {
                continue;
            }
            if s1 % 2 == 1 {
                torn += 1;
                continue;
            }
            let id = slot.id.load(Ordering::Relaxed);
            let kind_label = slot.kind_label.load(Ordering::Relaxed);
            let thread = slot.thread.load(Ordering::Relaxed);
            let align_ns = slot.align_ns.load(Ordering::Relaxed);
            let transpose_ns = slot.transpose_ns.load(Ordering::Relaxed);
            let symbolic_ns = slot.symbolic_ns.load(Ordering::Relaxed);
            let numeric_ns = slot.numeric_ns.load(Ordering::Relaxed);
            let delta_ns = slot.delta_ns.load(Ordering::Relaxed);
            let flops = slot.flops.load(Ordering::Relaxed);
            let out_nnz = slot.out_nnz.load(Ordering::Relaxed);
            let lanes = slot.lanes.load(Ordering::Relaxed);
            let decision = slot.decision.load(Ordering::Relaxed);
            let scratch_peak = slot.scratch_peak.load(Ordering::Relaxed);
            let wall_ns = slot.wall_ns.load(Ordering::Relaxed);
            let seq_start = slot.seq_start.load(Ordering::Relaxed);
            let seq_end = slot.seq_end.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s2 != s1 {
                torn += 1;
                continue;
            }
            let Some(kind) = OpKind::from_u32((kind_label >> 32) as u32) else {
                torn += 1;
                continue;
            };
            records.push(OpRecord {
                seq: (s1 - 2) / 2,
                id,
                kind,
                label: kind_label & 0xFFFF_FFFF,
                thread,
                align_ns,
                transpose_ns,
                symbolic_ns,
                numeric_ns,
                delta_ns,
                flops,
                out_nnz,
                lanes,
                parallel: decision & 1 == 1,
                pool_threads: decision >> 8,
                fallback: (decision >> 1) & 0x7F,
                scratch_peak,
                wall_ns,
                seq_start,
                seq_end,
            });
        }
        records.sort_by_key(|r| r.seq);
        OpLogSnapshot {
            records,
            recorded,
            dropped: recorded.saturating_sub(ring.len() as u64),
            capacity: ring.len() as u64,
            torn,
            labels: labels(),
        }
    }

    /// The records with `start <= seq < end` (two [`OpLog::cursor`]
    /// reads) of ops the calling thread opened under its current
    /// workload label, oldest first. Ops another thread completes in
    /// the window stay out, whatever its label.
    ///
    /// Fails when wraparound has reused a slot of the window, because
    /// a view built from the survivors would quietly under-count. A
    /// record absent from the window without wraparound is still being
    /// written, so its op had not finished when `end` was read.
    pub fn labeled_window(&self, start: u64, end: u64) -> Result<Vec<OpRecord>, RecordsLost> {
        let snap = self.snapshot();
        // Claim `c` reuses the slot of record `c - capacity`.
        let overwritten_below = self.cursor().saturating_sub(snap.capacity);
        if overwritten_below > start {
            return Err(RecordsLost {
                lost: overwritten_below.min(end) - start,
                capacity: snap.capacity,
            });
        }
        let (label, thread) = (current_label(), current_thread());
        Ok(snap
            .since(start)
            .iter()
            .filter(|r| r.seq < end && r.label == label && r.thread == thread)
            .copied()
            .collect())
    }

    /// Report-level summary without copying the ring.
    pub fn stats(&self) -> OpLogStats {
        OpLogStats {
            recorded: self.cursor(),
            dropped: self.dropped(),
            capacity: self.capacity() as u64,
        }
    }

    /// Report-shaped capture: stats plus per-kind tail histograms and
    /// per-`(kind, label)` counts.
    pub fn report(&self) -> OpsReport {
        let labels = labels();
        let tracked = labels.len().min(MAX_OP_LABELS);
        OpsReport {
            recorded: self.cursor(),
            dropped: self.dropped(),
            capacity: self.capacity() as u64,
            tails: self.tails.iter().map(Histogram::snapshot).collect(),
            label_counts: (0..N_OP_KINDS)
                .map(|k| {
                    (0..tracked)
                        .map(|l| self.label_counts[k][l].load(Ordering::Relaxed))
                        .collect()
                })
                .collect(),
            labels,
        }
    }

    /// Clear the ring, the sequence counter, the tail histograms, and
    /// the label counts. **Not safe against concurrent writers** — a
    /// tool-boundary and test hook, like the registry resets.
    pub fn reset(&self) {
        for slot in self.ring() {
            slot.seq.store(0, Ordering::Relaxed);
        }
        for t in &self.tails {
            t.reset();
        }
        for row in &self.label_counts {
            for c in row {
                c.store(0, Ordering::Relaxed);
            }
        }
        self.head.store(0, Ordering::Release);
    }
}

/// Error of [`OpLog::labeled_window`]: ring wraparound overwrote records
/// of the window before they were read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordsLost {
    /// Records of the window overwritten.
    pub lost: u64,
    /// Ring capacity in records.
    pub capacity: u64,
}

impl fmt::Display for RecordsLost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op ledger wraparound overwrote {} record(s) of the window (capacity {}); \
             raise {} to cover it",
            self.lost, self.capacity, OPS_ENV
        )
    }
}

impl std::error::Error for RecordsLost {}

/// The process-wide operation ledger.
pub fn oplog() -> &'static OpLog {
    static OPLOG: OpLog = OpLog::new_env();
    &OPLOG
}

/// A drained copy of the ledger: validated records oldest-first plus
/// drop accounting and the label table.
#[derive(Clone, Debug)]
pub struct OpLogSnapshot {
    /// Validated records, sorted by ledger sequence number.
    pub records: Vec<OpRecord>,
    /// Operations ever recorded at snapshot time.
    pub recorded: u64,
    /// Records overwritten by wraparound.
    pub dropped: u64,
    /// Ring capacity in records.
    pub capacity: u64,
    /// Records skipped at drain time because a writer was mid-flight.
    pub torn: u64,
    /// Interned label table, index = label id.
    pub labels: Vec<String>,
}

impl OpLogSnapshot {
    /// The subset recorded at or after `cursor` (see
    /// [`OpLog::cursor`]).
    pub fn since(&self, cursor: u64) -> &[OpRecord] {
        let start = self.records.partition_point(|r| r.seq < cursor);
        &self.records[start..]
    }

    /// The `n` slowest records among those at or after `cursor`, by
    /// wall time, slowest first. Exemplar retention policy: exemplars
    /// are derived from the ring's survivors, so an op evicted by
    /// wraparound cannot be one.
    pub fn slowest(&self, n: usize, cursor: u64) -> Vec<&OpRecord> {
        let mut v: Vec<&OpRecord> = self.since(cursor).iter().collect();
        v.sort_by(|a, b| b.wall_ns.cmp(&a.wall_ns).then(a.seq.cmp(&b.seq)));
        v.truncate(n);
        v
    }

    /// Resolve a record's label id to its string (empty when
    /// unlabeled or unknown).
    pub fn label_name(&self, id: u64) -> &str {
        self.labels.get(id as usize).map_or("", String::as_str)
    }
}

/// Ledger section of [`crate::ObsReport`]: summary figures, per-kind
/// tail histograms (wall ns), and per-`(kind, label)` counts.
#[derive(Clone, Debug)]
pub struct OpsReport {
    /// Operations ever recorded.
    pub recorded: u64,
    /// Records overwritten by wraparound.
    pub dropped: u64,
    /// Ring capacity in records.
    pub capacity: u64,
    /// Wall-ns tail histogram per op kind, in [`OP_KIND_NAMES`] order.
    pub tails: Vec<HistogramSnapshot>,
    /// Interned label table, index = label id.
    pub labels: Vec<String>,
    /// `label_counts[kind][label_id]` completions (label ids capped at
    /// [`MAX_OP_LABELS`]).
    pub label_counts: Vec<Vec<u64>>,
}

impl OpsReport {
    /// The section's *difference* since an earlier capture: recorded,
    /// dropped, tail buckets, and label counts diff; capacity and the
    /// label table carry over from `self`.
    pub fn since(&self, earlier: &OpsReport) -> OpsReport {
        OpsReport {
            recorded: self.recorded.saturating_sub(earlier.recorded),
            dropped: self.dropped.saturating_sub(earlier.dropped),
            capacity: self.capacity,
            tails: self
                .tails
                .iter()
                .zip(earlier.tails.iter())
                .map(|(a, b)| a.since(b))
                .collect(),
            labels: self.labels.clone(),
            label_counts: self
                .label_counts
                .iter()
                .enumerate()
                .map(|(k, row)| {
                    row.iter()
                        .enumerate()
                        .map(|(l, &v)| {
                            v.saturating_sub(
                                earlier
                                    .label_counts
                                    .get(k)
                                    .and_then(|r| r.get(l))
                                    .copied()
                                    .unwrap_or(0),
                            )
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// Completions of one kind (the tail histogram's count).
    pub fn count(&self, kind: OpKind) -> u64 {
        self.tails
            .get(kind as usize)
            .map_or(0, HistogramSnapshot::count)
    }
}

// ---------------------------------------------------------------------
// The call-site token.

/// Scratch regions whose peak growth is attributed to the op.
const SCRATCH_REGIONS: [MemRegion; 4] = [
    MemRegion::SpaScratch,
    MemRegion::HashScratch,
    MemRegion::FusedAccumulator,
    MemRegion::DeltaScratch,
];

fn scratch_peak_total() -> u64 {
    SCRATCH_REGIONS.iter().map(|&r| memstats().peak(r)).sum()
}

/// Live handle for one in-flight operation: allocates the [`OpId`],
/// installs the op scope, and on [`OpToken::finish`] derives the
/// stage breakdown from the op's own journal window and publishes the
/// record. `OpId` is a type alias of convenience — ids are plain
/// `u64`s.
pub type OpId = u64;

/// See [`OpToken::begin`].
pub struct OpToken {
    draft: OpDraft,
    _scope: OpScope,
    t0: Instant,
    peak_before: u64,
}

impl OpToken {
    /// Open an operation: allocate an id, stamp this thread's label,
    /// capture the journal cursor and scratch watermarks, and install
    /// the op as current on this thread.
    pub fn begin(kind: OpKind) -> OpToken {
        let id = alloc_op_id();
        let mut draft = OpDraft::new(kind);
        draft.id = id;
        draft.label = current_label();
        draft.seq_start = journal().cursor();
        OpToken {
            draft,
            _scope: enter_op(id),
            t0: Instant::now(),
            peak_before: scratch_peak_total(),
        }
    }

    /// Open an operation only when none is already current on this
    /// thread — the rule that keeps nested instrumented calls (a plan
    /// executed inside a rebuild, a kernel inside a matmul) from
    /// double-recording: one root call, one ledger record.
    pub fn begin_if_root(kind: OpKind) -> Option<OpToken> {
        if current_op() == 0 {
            Some(OpToken::begin(kind))
        } else {
            None
        }
    }

    /// The operation's id.
    pub fn id(&self) -> OpId {
        self.draft.id
    }

    /// Record the op's flops estimate.
    pub fn set_flops(&mut self, v: u64) {
        self.draft.flops = v;
    }

    /// Record the output nonzeros produced (summed over lanes).
    pub fn set_out_nnz(&mut self, v: u64) {
        self.draft.out_nnz = v;
    }

    /// Record the semiring lane count.
    pub fn set_lanes(&mut self, v: u64) {
        self.draft.lanes = v;
    }

    /// Record the dispatch decision and pool size.
    pub fn set_dispatch(&mut self, parallel: bool, pool_threads: u64) {
        self.draft.parallel = parallel;
        self.draft.pool_threads = pool_threads;
    }

    /// Record the fallback reason (1 = non-associative `⊕`,
    /// 2 = barrier).
    pub fn set_fallback(&mut self, code: u64) {
        self.draft.fallback = code;
    }

    /// Complete the operation: close the journal window, derive the
    /// per-stage breakdown from the op's own spans, and publish the
    /// record to the process ledger. Returns the op id.
    pub fn finish(self) -> OpId {
        self.finish_into(oplog())
    }

    /// [`OpToken::finish`] publishing into an explicit ledger (tests).
    pub fn finish_into(mut self, log: &OpLog) -> OpId {
        self.draft.wall_ns = self.t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.draft.seq_end = journal().cursor();
        let events = journal().scan_window(self.draft.seq_start, self.draft.seq_end);
        let stages = stage_breakdown(&events, self.draft.id);
        self.draft.align_ns = stages[Stage::Align as usize];
        self.draft.transpose_ns = stages[Stage::Transpose as usize];
        self.draft.symbolic_ns = stages[Stage::Symbolic as usize];
        self.draft.numeric_ns = stages[Stage::Numeric as usize];
        self.draft.delta_ns = stages[Stage::DeltaApply as usize];
        self.draft.scratch_peak = scratch_peak_total().saturating_sub(self.peak_before);
        log.record(&self.draft);
        self.draft.id
    }
}

// ---------------------------------------------------------------------
// Stage derivation from the op's journal window.

/// Merge intervals and return them sorted and disjoint.
fn merge_intervals(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn total_len(iv: &[(u64, u64)]) -> u64 {
    iv.iter().map(|&(s, e)| e - s).sum()
}

/// Summed overlap between two merged interval lists.
fn overlap_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Derive the per-stage ns breakdown of one op from its journal slice.
///
/// Spans are paired per thread (same LIFO discipline as the trace
/// exporter), keeping only events stamped with `op`. Per stage the
/// matched spans are merged into a disjoint interval union across
/// threads, so a parallel numeric pass — plan-level span plus
/// per-chunk spans on worker threads — counts its covered time once,
/// not once per chunk. Numeric time already inside a delta-apply span
/// stays attributed to delta-apply, and the rebuild envelope span is
/// ignored (its interior align/symbolic/numeric spans fill the slots),
/// so the five slots stay close to disjoint and their sum tracks the
/// op's wall time.
pub(crate) fn stage_breakdown(events: &[Event], op: u64) -> [u64; N_STAGE_SLOTS] {
    let mut stacks: std::collections::BTreeMap<u64, Vec<(u64, u64)>> =
        std::collections::BTreeMap::new(); // tid -> stack of (stage, start_ts)
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 6];
    for e in events {
        if e.op != op {
            continue;
        }
        match e.kind {
            EventKind::StageBegin => stacks.entry(e.tid).or_default().push((e.a, e.ts_ns)),
            EventKind::StageEnd => {
                if let Some((stage, start)) = stacks.entry(e.tid).or_default().pop() {
                    if stage == e.a && (stage as usize) < intervals.len() && start <= e.ts_ns {
                        intervals[stage as usize].push((start, e.ts_ns));
                    }
                }
            }
            _ => {}
        }
    }
    let merged: Vec<Vec<(u64, u64)>> = intervals.into_iter().map(merge_intervals).collect();
    let delta = &merged[Stage::DeltaApply as usize];
    let numeric = &merged[Stage::Numeric as usize];
    let mut out = [0u64; N_STAGE_SLOTS];
    out[Stage::Align as usize] = total_len(&merged[Stage::Align as usize]);
    out[Stage::Transpose as usize] = total_len(&merged[Stage::Transpose as usize]);
    out[Stage::Symbolic as usize] = total_len(&merged[Stage::Symbolic as usize]);
    out[Stage::Numeric as usize] = total_len(numeric).saturating_sub(overlap_len(numeric, delta));
    out[Stage::DeltaApply as usize] = total_len(delta);
    out
}

/// Stage slots carried by a record: align, transpose, symbolic,
/// numeric, delta-apply (the rebuild envelope is decomposed into the
/// first four).
pub(crate) const N_STAGE_SLOTS: usize = 5;

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, ts_ns: u64, tid: u64, kind: EventKind, a: u64, op: u64) -> Event {
        Event {
            seq,
            ts_ns,
            tid,
            kind,
            a,
            b: 0,
            op,
        }
    }

    #[test]
    fn kind_table_is_in_enum_order() {
        for (i, &(k, _)) in OP_KIND_NAMES.iter().enumerate() {
            assert_eq!(k as usize, i);
            assert_eq!(OpKind::from_u32(i as u32), Some(k));
        }
        assert_eq!(OpKind::from_u32(N_OP_KINDS as u32), None);
    }

    #[test]
    fn capacity_knob_parses_like_the_other_env_knobs() {
        assert_eq!(parse_capacity(None), Ok(DEFAULT_OP_RECORDS));
        assert_eq!(parse_capacity(Some("128")), Ok(128));
        assert_eq!(parse_capacity(Some(" 8 ")), Ok(8));
        assert_eq!(parse_capacity(Some("0")), Err(()));
        assert_eq!(parse_capacity(Some("many")), Err(()));
        assert_eq!(parse_capacity(Some("-1")), Err(()));
    }

    #[test]
    fn op_scope_nests_and_restores() {
        assert_eq!(current_op(), 0);
        {
            let _a = enter_op(7);
            assert_eq!(current_op(), 7);
            {
                let _b = enter_op(9);
                assert_eq!(current_op(), 9);
            }
            assert_eq!(current_op(), 7);
        }
        assert_eq!(current_op(), 0);
    }

    #[test]
    fn op_ids_are_unique_across_threads() {
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| (0..1000).map(|_| alloc_op_id()).collect::<Vec<u64>>()))
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000);
    }

    #[test]
    fn records_round_trip_and_wraparound_counts_drops() {
        let log = OpLog::with_capacity(8);
        for i in 0..20u64 {
            let mut d = OpDraft::new(OpKind::PlanExecute);
            d.id = 1000 + i;
            d.wall_ns = i * 100;
            d.lanes = 6;
            d.parallel = i % 2 == 1;
            d.pool_threads = 4;
            d.fallback = 2;
            log.record(&d);
        }
        let snap = log.snapshot();
        assert_eq!(snap.recorded, 20);
        assert_eq!(snap.dropped, 12);
        assert_eq!(snap.capacity, 8);
        assert_eq!(snap.records.len(), 8);
        let ids: Vec<u64> = snap.records.iter().map(|r| r.id).collect();
        assert_eq!(ids, (1012..1020).collect::<Vec<u64>>());
        let r = snap.records.last().unwrap();
        assert_eq!(
            (r.lanes, r.parallel, r.pool_threads, r.fallback),
            (6, true, 4, 2)
        );
        assert_eq!(r.fallback_name(), "barrier");
        assert_eq!(log.tail(OpKind::PlanExecute).snapshot().count(), 20);
        // Slowest-first exemplars come from the survivors only.
        let slow = snap.slowest(3, 0);
        assert_eq!(slow[0].wall_ns, 1900);
        assert_eq!(slow.len(), 3);
        // Reset clears ring, tails, and counts.
        log.reset();
        assert_eq!(log.snapshot().records.len(), 0);
        assert_eq!(log.tail(OpKind::PlanExecute).snapshot().count(), 0);
    }

    #[test]
    fn labels_intern_and_scope() {
        let id = intern_label("oplog-test-label");
        assert!(id > 0);
        assert_eq!(intern_label("oplog-test-label"), id);
        {
            let _s = workload_label("oplog-test-label");
            assert_eq!(current_label(), id);
            let log = OpLog::with_capacity(4);
            let tok = OpToken::begin(OpKind::Matmul);
            tok.finish_into(&log);
            let snap = log.snapshot();
            assert_eq!(snap.records.len(), 1);
            assert_eq!(snap.label_name(snap.records[0].label), "oplog-test-label");
        }
    }

    #[test]
    fn labels_are_per_thread() {
        let id = intern_label("oplog-thread-label");
        let _s = workload_label("oplog-thread-label");
        let elsewhere = std::thread::spawn(current_label).join().unwrap();
        assert_eq!(elsewhere, 0, "another thread's ops stay unlabeled");
        let other = std::thread::spawn(|| {
            let _l = workload_label("oplog-other-label");
            current_label()
        })
        .join()
        .unwrap();
        assert_eq!(other, intern_label("oplog-other-label"));
        assert_eq!(current_label(), id, "another thread's label leaves ours");
    }

    #[test]
    fn token_records_window_and_wall() {
        let log = OpLog::with_capacity(16);
        let mut tok = OpToken::begin(OpKind::Kernel);
        let id = tok.id();
        assert_eq!(current_op(), id);
        journal().begin(Stage::Numeric, 1);
        journal().end(Stage::Numeric, 1);
        tok.set_out_nnz(5);
        tok.set_lanes(1);
        tok.set_dispatch(false, 1);
        assert_eq!(tok.finish_into(&log), id);
        assert_eq!(current_op(), 0);
        let snap = log.snapshot();
        let r = snap.records.last().unwrap();
        assert_eq!(r.id, id);
        assert!(r.seq_end >= r.seq_start + 2, "window covers the span");
        assert!(r.numeric_ns <= r.wall_ns.max(1));
        assert_eq!((r.out_nnz, r.lanes), (5, 1));
    }

    #[test]
    fn stage_breakdown_unions_chunks_and_separates_delta() {
        use EventKind::{StageBegin, StageEnd};
        let num = Stage::Numeric as u64;
        let delta = Stage::DeltaApply as u64;
        // Plan-level numeric span [100, 500) on tid 1 with chunk spans
        // [120, 300) on tid 2 and [150, 400) on tid 3: the union is the
        // plan-level 400 ns, not 400 + 180 + 250.
        let events = [
            ev(0, 100, 1, StageBegin, num, 7),
            ev(1, 120, 2, StageBegin, num, 7),
            ev(2, 150, 3, StageBegin, num, 7),
            ev(3, 300, 2, StageEnd, num, 7),
            ev(4, 400, 3, StageEnd, num, 7),
            ev(5, 500, 1, StageEnd, num, 7),
            // A different op's span in the same window is ignored.
            ev(6, 500, 4, StageBegin, num, 8),
            ev(7, 900, 4, StageEnd, num, 8),
        ];
        let s = stage_breakdown(&events, 7);
        assert_eq!(s[Stage::Numeric as usize], 400);
        assert_eq!(s[Stage::DeltaApply as usize], 0);

        // Numeric chunks inside a delta-apply envelope attribute to
        // delta-apply, not twice.
        let events = [
            ev(0, 0, 1, StageBegin, delta, 9),
            ev(1, 10, 2, StageBegin, num, 9),
            ev(2, 60, 2, StageEnd, num, 9),
            ev(3, 100, 1, StageEnd, delta, 9),
        ];
        let s = stage_breakdown(&events, 9);
        assert_eq!(s[Stage::DeltaApply as usize], 100);
        assert_eq!(s[Stage::Numeric as usize], 0);
    }

    #[test]
    fn contended_recording_keeps_exact_accounting() {
        use std::sync::Arc;
        let log = Arc::new(OpLog::with_capacity(32));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let mut d = OpDraft::new(OpKind::Kernel);
                        // Same value in two fields so a torn surface
                        // would be visible.
                        d.id = (t << 32) | i;
                        d.wall_ns = (t << 32) | i;
                        log.record(&d);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = log.snapshot();
        assert_eq!(snap.recorded, 2000);
        assert_eq!(snap.dropped, 2000 - 32);
        assert!(snap.records.len() as u64 + snap.torn <= 32);
        for r in &snap.records {
            assert_eq!(r.id, r.wall_ns, "torn record surfaced at seq {}", r.seq);
        }
    }

    #[test]
    fn report_since_diffs_counts() {
        let log = OpLog::with_capacity(64);
        let mut d = OpDraft::new(OpKind::Rebuild);
        d.wall_ns = 500;
        log.record(&d);
        let before = log.report();
        log.record(&d);
        log.record(&d);
        let delta = log.report().since(&before);
        assert_eq!(delta.count(OpKind::Rebuild), 2);
        assert_eq!(delta.recorded, 2);
        assert_eq!(delta.count(OpKind::PlanExecute), 0);
    }
}
