//! Flight recorder: an always-on, bounded, lock-free event journal.
//!
//! Counters say *how often* each path was taken; histograms say *how
//! big* the work was. The journal says *when* and *why*: every hot
//! decision point (accumulator choice, serial-vs-parallel dispatch,
//! plan-cache hit/miss, incremental apply vs rebuild) appends a
//! fixed-size record — monotonic timestamp, thread id, event kind,
//! two `u64` payload slots — to a process-wide ring buffer, and the
//! stage boundaries (align / transpose / symbolic / numeric /
//! delta-apply / rebuild) append begin/end pairs so a drained journal
//! doubles as a span timeline without the `trace` feature.
//!
//! Design, mirroring the counter registry's relaxed-atomic discipline:
//!
//! * **Bounded ring, overwrite-oldest.** A writer claims the next
//!   global sequence number with one relaxed `fetch_add` and writes
//!   into `slot[claim % capacity]`. When the ring wraps, the oldest
//!   records are overwritten; nothing ever blocks, and the number of
//!   overwritten (dropped) records is always `recorded − capacity`
//!   when positive.
//! * **Per-slot seqlock.** Each slot carries a sequence word: the
//!   writer stores `2·claim + 1` (odd: in progress), a release fence,
//!   the payload fields, then `2·claim + 2` (even: published).
//!   Readers load the sequence before and after copying the fields
//!   (with an acquire fence in between) and skip the record unless
//!   both loads agree on the same even value — a torn or in-flight
//!   record is never surfaced. The one unprotected interleaving —
//!   two writers whose claims are exactly `capacity` apart racing on
//!   the same slot — requires the whole ring to wrap during one
//!   ~20 ns record write and is accepted as unreachable at the
//!   default capacity.
//! * **Capacity knob.** `AARRAY_OBS_EVENTS` sets the ring capacity in
//!   records (default 65536, ~2.5 MiB); it is read once at the first
//!   record. An unparsable value warns once on stderr, bumps
//!   `Counter::EnvParseError`, and falls back to the default — the
//!   same contract as `AARRAY_OBS_OPS`.
//!
//! A drained [`JournalSnapshot`] exports as Chrome Trace Event Format
//! JSON ([`JournalSnapshot::to_chrome_trace`]) loadable in Perfetto or
//! `chrome://tracing`: stage pairs become `ph: "B"`/`"E"` records on
//! per-thread tracks, explain events become `ph: "i"` instants with
//! their payloads decoded into `args`.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Name of the environment variable setting the journal ring capacity
/// in records. Unset means [`DEFAULT_JOURNAL_EVENTS`]; anything that
/// does not parse as a positive integer is an env-parse error (warn
/// once, keep the default).
pub const JOURNAL_EVENTS_ENV: &str = "AARRAY_OBS_EVENTS";

/// Default ring capacity in records when `AARRAY_OBS_EVENTS` is unset.
pub const DEFAULT_JOURNAL_EVENTS: usize = 65_536;

/// Pipeline stages that emit [`EventKind::StageBegin`] /
/// [`EventKind::StageEnd`] pairs (payload slot `a` carries the stage).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum Stage {
    /// Key alignment during plan construction.
    Align,
    /// Laying out a plan's edge-major gather of `Eout` (the step that
    /// replaced materializing its transpose; the name stays).
    Transpose,
    /// Symbolic (sparsity discovery) pass.
    Symbolic,
    /// Numeric pass (fused traversal or one-shot kernel).
    Numeric,
    /// Incremental delta product + in-place `⊕`-fold.
    DeltaApply,
    /// Full adjacency rebuild (incremental fallback).
    Rebuild,
}

const N_STAGES: usize = Stage::Rebuild as usize + 1;

/// Every stage with its timeline label, in enum order.
pub const STAGE_NAMES: [(Stage, &str); N_STAGES] = [
    (Stage::Align, "align"),
    (Stage::Transpose, "transpose"),
    (Stage::Symbolic, "symbolic"),
    (Stage::Numeric, "numeric"),
    (Stage::DeltaApply, "delta-apply"),
    (Stage::Rebuild, "rebuild"),
];

impl Stage {
    /// The timeline label (`align`, `transpose`, …).
    pub fn name(self) -> &'static str {
        STAGE_NAMES[self as usize].1
    }

    /// Decode a payload slot back into a stage.
    pub fn from_u64(v: u64) -> Option<Stage> {
        STAGE_NAMES.get(v as usize).map(|&(s, _)| s)
    }
}

/// What a journal record describes. Payload slot meanings per kind are
/// documented on each variant as `a` / `b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum EventKind {
    /// A stage began. `a` = [`Stage`], `b` = kind-specific extra
    /// (nnz for align/symbolic, flops for numeric, batch edges for
    /// delta-apply, lanes for rebuild).
    StageBegin,
    /// A stage ended. Payloads mirror the begin record.
    StageEnd,
    /// One-pair kernel run. `a` = 0, `b` = 1 if row-parallel.
    KernelChoice,
    /// Fused multi-lane kernel run. `a` = 0, `b` =
    /// `lanes << 1 | parallel`.
    FusedChoice,
    /// Dispatch verdict: serial. `a` = flops estimate (0 when the
    /// single-thread fast path skipped the estimate), `b` = threshold.
    DispatchSerial,
    /// Dispatch verdict: parallel. `a` = flops, `b` = threshold.
    DispatchParallel,
    /// Plan symbolic cache hit. `a` = flops, `b` = memoized nnz.
    PlanCacheHit,
    /// Plan symbolic cache miss (pattern computed). `a` = flops,
    /// `b` = computed nnz.
    PlanCacheMiss,
    /// Incremental refresh applied deltas. `a` = lanes applied,
    /// `b` = batches folded.
    DeltaApply,
    /// Incremental refresh fell back to a rebuild. `a` = lanes
    /// rebuilt, `b` = reason code (0 = non-associative `⊕`,
    /// 1 = barrier: an associative lane whose `⊕` is not commutative
    /// crossed an out-of-order batch).
    IncrementalFallback,
}

const N_KINDS: usize = EventKind::IncrementalFallback as usize + 1;

/// Every event kind with its export label, in enum order.
pub const EVENT_KIND_NAMES: [(EventKind, &str); N_KINDS] = [
    (EventKind::StageBegin, "stage-begin"),
    (EventKind::StageEnd, "stage-end"),
    (EventKind::KernelChoice, "kernel-choice"),
    (EventKind::FusedChoice, "fused-choice"),
    (EventKind::DispatchSerial, "dispatch-serial"),
    (EventKind::DispatchParallel, "dispatch-parallel"),
    (EventKind::PlanCacheHit, "plan-cache-hit"),
    (EventKind::PlanCacheMiss, "plan-cache-miss"),
    (EventKind::DeltaApply, "delta-apply"),
    (EventKind::IncrementalFallback, "incremental-fallback"),
];

impl EventKind {
    /// The export label (`kernel-choice`, `dispatch-serial`, …).
    pub fn name(self) -> &'static str {
        EVENT_KIND_NAMES[self as usize].1
    }

    fn from_u32(v: u32) -> Option<EventKind> {
        EVENT_KIND_NAMES.get(v as usize).map(|&(k, _)| k)
    }
}

/// One decoded, validated journal record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (claim order; gaps mark overwritten or
    /// torn records).
    pub seq: u64,
    /// Nanoseconds since the process's first journal use (monotonic).
    pub ts_ns: u64,
    /// Small dense per-thread id (assigned on each thread's first
    /// record).
    pub tid: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload slot; meaning depends on `kind`.
    pub a: u64,
    /// Second payload slot; meaning depends on `kind`.
    pub b: u64,
    /// The [`mod@crate::oplog`] operation this record belongs to (the
    /// recording thread's current op at write time; 0 = unattributed).
    pub op: u64,
}

struct Slot {
    /// 0 = never written; `2·claim + 1` = write in progress;
    /// `2·claim + 2` = published.
    seq: AtomicU64,
    ts: AtomicU64,
    /// `tid << 32 | kind` — written as one word so the pair can never
    /// tear against each other.
    tid_kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    /// Originating operation id (0 = none).
    op: AtomicU64,
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            ts: AtomicU64::new(0),
            tid_kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            op: AtomicU64::new(0),
        }
    }
}

fn base_instant() -> &'static Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    base_instant().elapsed().as_nanos() as u64
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Parse the capacity knob. `Ok` for unset (default) or a positive
/// integer; `Err` for anything else, including `0` — a journal that
/// can hold nothing is a misconfiguration, not a mode.
fn parse_capacity(raw: Option<&str>) -> Result<usize, ()> {
    match raw.map(str::trim) {
        None => Ok(DEFAULT_JOURNAL_EVENTS),
        Some(s) => match s.parse::<u64>() {
            Ok(n) if n > 0 => Ok(n.min(1 << 28) as usize),
            _ => Err(()),
        },
    }
}

fn capacity_from_env() -> usize {
    let raw = std::env::var(JOURNAL_EVENTS_ENV).ok();
    parse_capacity(raw.as_deref()).unwrap_or_else(|()| {
        static WARNED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
        crate::counters::env_parse_error(
            &WARNED,
            JOURNAL_EVENTS_ENV,
            raw.as_deref().unwrap_or(""),
            "the default capacity",
        );
        DEFAULT_JOURNAL_EVENTS
    })
}

/// Summary figures of the journal, embedded in [`crate::ObsReport`]
/// exports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Events ever recorded (including overwritten ones).
    pub recorded: u64,
    /// Events overwritten by ring wraparound.
    pub dropped: u64,
    /// Ring capacity in records.
    pub capacity: u64,
}

/// The flight recorder. One process-wide instance is reachable via
/// [`journal`]; tests can build private rings with
/// [`Journal::with_capacity`].
pub struct Journal {
    ring: OnceLock<Vec<Slot>>,
    /// Capacity forced at construction; 0 means "resolve from the
    /// environment at first use".
    fixed_cap: usize,
    head: AtomicU64,
}

impl Journal {
    const fn new_env() -> Journal {
        Journal {
            ring: OnceLock::new(),
            fixed_cap: 0,
            head: AtomicU64::new(0),
        }
    }

    /// A private journal with an explicit capacity (tests, embedders).
    pub fn with_capacity(capacity: usize) -> Journal {
        Journal {
            ring: OnceLock::new(),
            fixed_cap: capacity.max(1),
            head: AtomicU64::new(0),
        }
    }

    fn ring(&self) -> &[Slot] {
        self.ring.get_or_init(|| {
            let cap = if self.fixed_cap > 0 {
                self.fixed_cap
            } else {
                capacity_from_env()
            };
            let mut v = Vec::with_capacity(cap);
            v.resize_with(cap, Slot::new);
            v
        })
    }

    /// Ring capacity in records (resolves the environment on first
    /// use).
    pub fn capacity(&self) -> usize {
        self.ring().len()
    }

    /// Total events ever recorded. Also serves as a drain cursor:
    /// capture before a workload, then keep only events with
    /// `seq >= cursor` from a later snapshot.
    #[inline]
    pub fn cursor(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events overwritten by wraparound so far.
    pub fn dropped(&self) -> u64 {
        self.cursor().saturating_sub(self.capacity() as u64)
    }

    /// Append one record. Lock-free, allocation-free after the first
    /// call; a handful of relaxed stores plus two fences.
    #[inline]
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        let ring = self.ring();
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &ring[(claim % ring.len() as u64) as usize];
        slot.seq.store(2 * claim + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.ts.store(now_ns(), Ordering::Relaxed);
        slot.tid_kind
            .store((thread_id() << 32) | kind as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.op.store(crate::oplog::current_op(), Ordering::Relaxed);
        slot.seq.store(2 * claim + 2, Ordering::Release);
    }

    /// Begin-of-stage marker; pair with [`Journal::end`].
    #[inline]
    pub fn begin(&self, stage: Stage, extra: u64) {
        self.record(EventKind::StageBegin, stage as u64, extra);
    }

    /// End-of-stage marker.
    #[inline]
    pub fn end(&self, stage: Stage, extra: u64) {
        self.record(EventKind::StageEnd, stage as u64, extra);
    }

    /// Copy out every validated record, oldest first. Concurrent
    /// writers are safe: in-flight or overwritten-mid-read records are
    /// skipped (counted in [`JournalSnapshot::torn`]), never surfaced
    /// torn.
    pub fn snapshot(&self) -> JournalSnapshot {
        let ring = self.ring();
        let recorded = self.head.load(Ordering::Acquire);
        let mut events = Vec::with_capacity(ring.len().min(recorded as usize));
        let mut torn = 0u64;
        for slot in ring {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 {
                continue; // never written
            }
            if s1 % 2 == 1 {
                torn += 1; // write in progress
                continue;
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let tid_kind = slot.tid_kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let op = slot.op.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s2 != s1 {
                torn += 1; // overwritten while reading
                continue;
            }
            let Some(kind) = EventKind::from_u32((tid_kind & 0xFFFF_FFFF) as u32) else {
                torn += 1;
                continue;
            };
            events.push(Event {
                seq: (s1 - 2) / 2,
                ts_ns: ts,
                tid: tid_kind >> 32,
                kind,
                a,
                b,
                op,
            });
        }
        events.sort_by_key(|e| e.seq);
        JournalSnapshot {
            events,
            recorded,
            dropped: recorded.saturating_sub(ring.len() as u64),
            capacity: ring.len() as u64,
            torn,
        }
    }

    /// Decode the surviving records whose claims fall in
    /// `[from, to)` — at most the newest `capacity` of them — without
    /// walking the whole ring, plus the number of the window's claims
    /// that could not be read: overwritten by wraparound, caught
    /// mid-write, or still being written. A nonzero count means a view
    /// built from the events can under-count. This is the op-ledger's
    /// stage-extraction primitive: an [`crate::oplog::OpToken`]
    /// brackets its journal window with two [`Journal::cursor`] reads
    /// and scans only that slice on completion.
    pub fn scan_window(&self, from: u64, to: u64) -> (Vec<Event>, u64) {
        let ring = self.ring();
        let cap = ring.len() as u64;
        let lo = from.max(to.saturating_sub(cap));
        let mut events = Vec::with_capacity((to.saturating_sub(lo)) as usize);
        // Claims below `lo` were overwritten by wraparound.
        let mut lost = lo.saturating_sub(from);
        for claim in lo..to {
            let slot = &ring[(claim % cap) as usize];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != 2 * claim + 2 {
                lost += 1; // overwritten, in-flight, or never written
                continue;
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let tid_kind = slot.tid_kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let op = slot.op.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                lost += 1; // overwritten while reading
                continue;
            }
            let Some(kind) = EventKind::from_u32((tid_kind & 0xFFFF_FFFF) as u32) else {
                lost += 1;
                continue;
            };
            events.push(Event {
                seq: claim,
                ts_ns: ts,
                tid: tid_kind >> 32,
                kind,
                a,
                b,
                op,
            });
        }
        (events, lost)
    }

    /// Report-level summary without copying the ring.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            recorded: self.cursor(),
            dropped: self.dropped(),
            capacity: self.capacity() as u64,
        }
    }

    /// Clear every record and the sequence counter. **Not safe against
    /// concurrent writers** — a tool-boundary and test hook, like the
    /// registry resets.
    pub fn reset(&self) {
        for slot in self.ring() {
            slot.seq.store(0, Ordering::Relaxed);
        }
        self.head.store(0, Ordering::Release);
    }
}

impl Default for Journal {
    fn default() -> Self {
        Journal::with_capacity(DEFAULT_JOURNAL_EVENTS)
    }
}

/// The process-wide flight recorder.
pub fn journal() -> &'static Journal {
    static JOURNAL: Journal = Journal::new_env();
    &JOURNAL
}

/// A drained copy of the journal: validated records oldest-first plus
/// the drop accounting.
#[derive(Clone, Debug)]
pub struct JournalSnapshot {
    /// Validated records, sorted by sequence number.
    pub events: Vec<Event>,
    /// Events ever recorded at snapshot time.
    pub recorded: u64,
    /// Events overwritten by wraparound (`recorded − capacity` when
    /// positive).
    pub dropped: u64,
    /// Ring capacity in records.
    pub capacity: u64,
    /// Records skipped at drain time because a writer was mid-flight.
    pub torn: u64,
}

impl JournalSnapshot {
    /// The subset recorded at or after `cursor` (see
    /// [`Journal::cursor`]).
    pub fn since(&self, cursor: u64) -> &[Event] {
        let start = self.events.partition_point(|e| e.seq < cursor);
        &self.events[start..]
    }

    /// Count of explain events of `kind` in the snapshot.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.events.iter().filter(|e| e.kind == kind).count() as u64
    }

    /// Cut the per-operation view: only events stamped with `op`
    /// inside the journal window `[seq_start, seq_end)` — the window a
    /// ledger record carries. Drop/torn accounting is zeroed (the cut
    /// is a derived view, not a drain), so trace exports of a cut
    /// never report ring-level drops that predate the op.
    pub fn cut_op(&self, op: u64, seq_start: u64, seq_end: u64) -> JournalSnapshot {
        let events: Vec<Event> = self
            .events
            .iter()
            .filter(|e| e.op == op && e.seq >= seq_start && e.seq < seq_end)
            .copied()
            .collect();
        JournalSnapshot {
            recorded: events.len() as u64,
            dropped: 0,
            capacity: self.capacity,
            torn: 0,
            events,
        }
    }

    /// Export as Chrome Trace Event Format JSON (Perfetto /
    /// `chrome://tracing` loadable).
    ///
    /// Stage pairs become `ph: "B"` / `"E"` records on per-thread
    /// tracks; explain events become `ph: "i"` thread-scoped instants
    /// with decoded `args`. Pairs are matched per thread before
    /// emission, so the output always has balanced `B`/`E` even when
    /// ring wraparound swallowed one side of a pair; the number of
    /// half-pairs dropped that way is reported under
    /// `otherData.truncated_spans`.
    pub fn to_chrome_trace(&self) -> String {
        self.render_trace(false)
    }

    /// Export as Chrome Trace JSON grouped by operation: each
    /// [`Event::op`] becomes its own process track (`pid` = op id,
    /// named `op-N`), so interleaved operations sharing a worker
    /// thread separate into per-op lanes. Span pairing runs per
    /// `(op, tid)`, keeping the output balanced even when two ops'
    /// spans interleave on one thread. Unattributed events stay on
    /// `pid` 0.
    pub fn to_chrome_trace_by_op(&self) -> String {
        self.render_trace(true)
    }

    fn render_trace(&self, by_op: bool) -> String {
        // First pass: stage stacks pair up B/E indices, keyed per
        // thread (and per op when grouping by op, so interleaved ops on
        // one tid cannot cross-match).
        let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<usize>> =
            std::collections::BTreeMap::new();
        let pid_of = |e: &Event| if by_op { e.op } else { 1 };
        let mut matched = vec![false; self.events.len()];
        let mut truncated = 0u64;
        for (i, e) in self.events.iter().enumerate() {
            let key = (pid_of(e), e.tid);
            match e.kind {
                EventKind::StageBegin => stacks.entry(key).or_default().push(i),
                EventKind::StageEnd => {
                    let stack = stacks.entry(key).or_default();
                    match stack.pop() {
                        Some(j) if self.events[j].a == e.a => {
                            matched[i] = true;
                            matched[j] = true;
                        }
                        Some(j) => {
                            // Mismatched nesting (a begin was lost to
                            // wraparound): drop both halves.
                            truncated += 2;
                            let _ = j;
                        }
                        None => truncated += 1,
                    }
                }
                _ => {}
            }
        }
        truncated += stacks.values().map(|s| s.len() as u64).sum::<u64>();

        let mut out = String::with_capacity(256 + self.events.len() * 96);
        out.push_str("{\"traceEvents\": [\n");
        let mut first = true;
        let mut tracks: std::collections::BTreeSet<(u64, u64)> = std::collections::BTreeSet::new();
        for (i, e) in self.events.iter().enumerate() {
            let body = match e.kind {
                EventKind::StageBegin | EventKind::StageEnd => {
                    if !matched[i] {
                        continue;
                    }
                    let stage = Stage::from_u64(e.a).map_or("stage", Stage::name);
                    let ph = if e.kind == EventKind::StageBegin {
                        "B"
                    } else {
                        "E"
                    };
                    format!(
                        "\"name\": \"{}\", \"ph\": \"{}\", \"args\": {{\"extra\": {}, \"op\": {}}}",
                        stage, ph, e.b, e.op
                    )
                }
                _ => format!(
                    "\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"args\": {{{}, \"op\": {}}}",
                    e.kind.name(),
                    explain_args(e),
                    e.op
                ),
            };
            if !first {
                out.push_str(",\n");
            }
            first = false;
            tracks.insert((pid_of(e), e.tid));
            out.push_str(&format!(
                "  {{{}, \"ts\": {}.{:03}, \"pid\": {}, \"tid\": {}}}",
                body,
                e.ts_ns / 1_000,
                e.ts_ns % 1_000,
                pid_of(e),
                e.tid
            ));
        }
        if by_op {
            let pids: std::collections::BTreeSet<u64> = tracks.iter().map(|&(p, _)| p).collect();
            for p in pids {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                out.push_str(&format!(
                    "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": 0, \
                     \"args\": {{\"name\": \"op-{}\"}}}}",
                    p, p
                ));
            }
        }
        for (p, t) in tracks {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": {}, \
                 \"args\": {{\"name\": \"aarray-{}\"}}}}",
                p, t, t
            ));
        }
        out.push_str(&format!(
            "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {{\"recorded\": {}, \
             \"dropped\": {}, \"capacity\": {}, \"truncated_spans\": {}}}}}\n",
            self.recorded, self.dropped, self.capacity, truncated
        ));
        out
    }
}

fn explain_args(e: &Event) -> String {
    match e.kind {
        EventKind::KernelChoice => format!("\"parallel\": {}", e.b & 1),
        EventKind::FusedChoice => {
            format!("\"lanes\": {}, \"parallel\": {}", e.b >> 1, e.b & 1)
        }
        EventKind::DispatchSerial | EventKind::DispatchParallel => {
            let verdict = if e.kind == EventKind::DispatchSerial {
                "serial"
            } else {
                "parallel"
            };
            format!(
                "\"flops\": {}, \"threshold\": {}, \"verdict\": \"{}\"",
                e.a, e.b, verdict
            )
        }
        EventKind::PlanCacheHit | EventKind::PlanCacheMiss => {
            format!("\"flops\": {}, \"nnz\": {}", e.a, e.b)
        }
        EventKind::DeltaApply => format!("\"lanes\": {}, \"batches\": {}", e.a, e.b),
        EventKind::IncrementalFallback => format!(
            "\"lanes\": {}, \"reason\": \"{}\"",
            e.a,
            fallback_reason(e.b)
        ),
        EventKind::StageBegin | EventKind::StageEnd => format!("\"extra\": {}", e.b),
    }
}

/// Reason code carried in [`EventKind::IncrementalFallback`] payloads.
pub fn fallback_reason(code: u64) -> &'static str {
    match code {
        0 => "non-associative-plus",
        1 => "barrier",
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_in_order() {
        let j = Journal::with_capacity(128);
        j.record(EventKind::DispatchSerial, 37, 131072);
        j.begin(Stage::Symbolic, 9);
        j.end(Stage::Symbolic, 9);
        let snap = j.snapshot();
        assert_eq!(snap.recorded, 3);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.torn, 0);
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.events[0].kind, EventKind::DispatchSerial);
        assert_eq!((snap.events[0].a, snap.events[0].b), (37, 131072));
        assert_eq!(snap.events[1].kind, EventKind::StageBegin);
        assert_eq!(Stage::from_u64(snap.events[1].a), Some(Stage::Symbolic));
        assert!(snap.events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(snap.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_drops() {
        let j = Journal::with_capacity(8);
        for i in 0..20 {
            j.record(EventKind::DispatchSerial, i, i * 2);
        }
        let snap = j.snapshot();
        assert_eq!(snap.recorded, 20);
        assert_eq!(snap.dropped, 12);
        assert_eq!(snap.capacity, 8);
        assert_eq!(snap.events.len(), 8);
        // The survivors are exactly the newest eight, in order.
        let rows: Vec<u64> = snap.events.iter().map(|e| e.a).collect();
        assert_eq!(rows, (12..20).collect::<Vec<u64>>());
        assert_eq!(j.dropped(), 12);
    }

    #[test]
    fn since_cursor_slices_a_workload() {
        let j = Journal::with_capacity(64);
        j.record(EventKind::PlanCacheMiss, 1, 1);
        let cursor = j.cursor();
        j.record(EventKind::PlanCacheHit, 2, 2);
        j.record(EventKind::PlanCacheHit, 3, 3);
        let snap = j.snapshot();
        let tail = snap.since(cursor);
        assert_eq!(tail.len(), 2);
        assert!(tail.iter().all(|e| e.kind == EventKind::PlanCacheHit));
        assert_eq!(snap.count(EventKind::PlanCacheHit), 2);
    }

    #[test]
    fn reset_clears_everything() {
        let j = Journal::with_capacity(16);
        j.record(EventKind::DeltaApply, 5, 1);
        j.reset();
        let snap = j.snapshot();
        assert_eq!(snap.recorded, 0);
        assert!(snap.events.is_empty());
    }

    #[test]
    fn capacity_knob_parses_like_the_other_env_knobs() {
        assert_eq!(parse_capacity(None), Ok(DEFAULT_JOURNAL_EVENTS));
        assert_eq!(parse_capacity(Some("1024")), Ok(1024));
        assert_eq!(parse_capacity(Some(" 32 ")), Ok(32));
        assert_eq!(parse_capacity(Some("0")), Err(()));
        assert_eq!(parse_capacity(Some("lots")), Err(()));
        assert_eq!(parse_capacity(Some("-5")), Err(()));
    }

    #[test]
    fn chrome_trace_is_balanced_and_shaped() {
        let j = Journal::with_capacity(64);
        j.begin(Stage::Align, 3);
        j.end(Stage::Align, 3);
        j.begin(Stage::Numeric, 7);
        j.record(EventKind::KernelChoice, 0, 1);
        j.record(EventKind::DispatchSerial, 37, 131072);
        j.end(Stage::Numeric, 7);
        // An end whose begin was "lost": must not unbalance the export.
        j.record(EventKind::StageEnd, Stage::Symbolic as u64, 0);
        let trace = j.snapshot().to_chrome_trace();
        assert_eq!(trace.matches("\"ph\": \"B\"").count(), 2);
        assert_eq!(trace.matches("\"ph\": \"E\"").count(), 2);
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"verdict\": \"serial\""));
        assert!(trace.contains("\"parallel\": 1"));
        assert!(trace.contains("\"truncated_spans\": 1"));
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
        assert_eq!(trace.matches('[').count(), trace.matches(']').count());
    }

    #[test]
    fn kind_and_stage_tables_are_in_enum_order() {
        for (i, &(k, _)) in EVENT_KIND_NAMES.iter().enumerate() {
            assert_eq!(k as usize, i);
            assert_eq!(EventKind::from_u32(i as u32), Some(k));
        }
        for (i, &(s, _)) in STAGE_NAMES.iter().enumerate() {
            assert_eq!(s as usize, i);
            assert_eq!(Stage::from_u64(i as u64), Some(s));
        }
        assert_eq!(EventKind::from_u32(N_KINDS as u32), None);
    }

    #[test]
    fn scan_window_decodes_only_the_claim_range() {
        let j = Journal::with_capacity(8);
        for i in 0..6 {
            j.record(EventKind::DispatchSerial, i, i);
        }
        let (mid, lost) = j.scan_window(2, 5);
        assert_eq!(mid.iter().map(|e| e.a).collect::<Vec<u64>>(), vec![2, 3, 4]);
        assert_eq!(
            mid.iter().map(|e| e.seq).collect::<Vec<u64>>(),
            vec![2, 3, 4]
        );
        assert_eq!(lost, 0);
        // Wrap the ring: claims older than head − capacity are gone and
        // the scan skips them instead of surfacing stale slots, but
        // counts every one it could not read.
        for i in 6..20 {
            j.record(EventKind::DispatchSerial, i, i);
        }
        let (survivors, lost) = j.scan_window(0, j.cursor());
        assert_eq!(
            survivors.iter().map(|e| e.a).collect::<Vec<u64>>(),
            (12..20).collect::<Vec<u64>>()
        );
        assert_eq!(lost, 12, "claims 0..12 were overwritten");
        assert_eq!(j.scan_window(0, 4), (Vec::new(), 4));
        // A claimed slot not yet published is unreadable too.
        assert_eq!(j.scan_window(18, 21).1, 1, "claim 20 is not written");
    }

    #[test]
    fn op_stamp_cut_and_by_op_export() {
        let j = Journal::with_capacity(64);
        j.record(EventKind::PlanCacheMiss, 1, 1); // unattributed
        {
            let _op = crate::oplog::enter_op(41);
            j.begin(Stage::Numeric, 7);
            {
                let _inner = crate::oplog::enter_op(42);
                j.begin(Stage::Numeric, 8);
                j.end(Stage::Numeric, 8);
            }
            j.end(Stage::Numeric, 7);
        }
        let snap = j.snapshot();
        assert_eq!(snap.events[0].op, 0);
        assert_eq!(snap.events[1].op, 41);
        assert_eq!(snap.events[2].op, 42);
        // The cut keeps only op-42 events inside the window.
        let cut = snap.cut_op(42, 0, j.cursor());
        assert_eq!(cut.events.len(), 2);
        assert!(cut.events.iter().all(|e| e.op == 42));
        assert_eq!(cut.dropped, 0);
        // By-op grouping: each op becomes its own pid track, spans stay
        // balanced even though both ops share one tid.
        let trace = snap.to_chrome_trace_by_op();
        assert_eq!(trace.matches("\"ph\": \"B\"").count(), 2);
        assert_eq!(trace.matches("\"ph\": \"E\"").count(), 2);
        assert!(trace.contains("\"name\": \"op-41\""));
        assert!(trace.contains("\"name\": \"op-42\""));
        assert!(trace.contains("\"pid\": 41"));
        assert!(trace.contains("\"truncated_spans\": 0"));
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    }

    #[test]
    fn concurrent_recording_yields_no_torn_records() {
        use std::sync::Arc;
        let j = Arc::new(Journal::with_capacity(1 << 14));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        // Payloads encode the same value twice so a
                        // cross-record field mix would be visible.
                        let v = (t << 32) | i;
                        j.record(EventKind::DispatchSerial, v, v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = j.snapshot();
        assert_eq!(snap.recorded, 4000);
        assert_eq!(snap.events.len(), 4000);
        assert_eq!(snap.torn, 0);
        for e in &snap.events {
            assert_eq!(e.a, e.b, "mixed-field record at seq {}", e.seq);
        }
        // Timestamps are monotone within each recording thread.
        let mut last: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for e in &snap.events {
            let prev = last.insert(e.tid, e.ts_ns).unwrap_or(0);
            assert!(e.ts_ns >= prev, "non-monotone ts on tid {}", e.tid);
        }
    }
}
