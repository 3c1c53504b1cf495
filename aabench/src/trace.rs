//! Spans recorded by the benchmark around each public call into a
//! layer, kept in a preallocated buffer and exported at exit as
//! Chrome-trace JSON. With tracing off a span is one branch.

use std::fmt::Write as _;
use std::time::Instant;

/// The layers an op is made of, named after the crate and call each
/// span wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `aarray_d4m::Table::explode`.
    Explode,
    /// `AArray::select_cols_str`.
    Select,
    /// `adjacency_plan`: transpose and key alignment.
    PlanBuild,
    /// `MatmulPlan::symbolic`.
    Symbolic,
    /// `MatmulPlan::execute_all` / `execute`: the numeric pass.
    Numeric,
    /// `IncidenceBuilder::append_batch`.
    Append,
    /// `AdjacencyView::refresh`.
    Refresh,
}

/// Every layer, in declaration order.
pub const LAYERS: [Layer; 7] = [
    Layer::Explode,
    Layer::Select,
    Layer::PlanBuild,
    Layer::Symbolic,
    Layer::Numeric,
    Layer::Append,
    Layer::Refresh,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Explode => "d4m.explode",
            Layer::Select => "core.select",
            Layer::PlanBuild => "core.plan.build",
            Layer::Symbolic => "sparse.symbolic",
            Layer::Numeric => "sparse.numeric",
            Layer::Append => "core.incremental.append",
            Layer::Refresh => "core.incremental.refresh",
        }
    }

    /// Position in [`LAYERS`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One recorded interval; `layer == None` is the op itself.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Option<Layer>,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u32,
    op_start_ns: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer holding at most `capacity` spans; further spans are
    /// counted in [`Tracer::dropped`] and not kept.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            op: 0,
            op_start_ns: 0,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, s: Span) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(s);
        } else {
            self.dropped += 1;
        }
    }

    /// Run `f` as one call into `layer` of the current op.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.push(Span {
            layer: Some(layer),
            op: self.op,
            start_ns,
            end_ns,
        });
        r
    }

    pub fn begin_op(&mut self, op: u32) {
        self.op = op;
        if self.enabled {
            self.op_start_ns = self.now();
        }
    }

    pub fn end_op(&mut self) {
        if self.enabled {
            let end_ns = self.now();
            self.push(Span {
                layer: None,
                op: self.op,
                start_ns: self.op_start_ns,
                end_ns,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Chrome-trace JSON: balanced `B`/`E` pairs on one track, each
    /// carrying its op id, plus each layer's total self time in ms
    /// under `selfTimesMs` (`op` is the op time no layer span covers).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut order: Vec<&Span> = self.spans.iter().collect();
        // Ops before the layer spans they enclose.
        order.sort_by_key(|s| (s.start_ns, s.layer.is_some()));
        let mut open: Vec<&Span> = Vec::new();
        let mut first = true;
        let mut event = |out: &mut String, s: &Span, ph: char, ts: u64| {
            if !first {
                out.push(',');
            }
            first = false;
            let name = s.layer.map_or("op", Layer::name);
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"op\":{}}}}}",
                ts as f64 / 1e3,
                s.op
            );
        };
        for s in order {
            while let Some(top) = open.last() {
                if top.end_ns > s.start_ns {
                    break;
                }
                event(&mut out, top, 'E', top.end_ns);
                open.pop();
            }
            event(&mut out, s, 'B', s.start_ns);
            open.push(s);
        }
        while let Some(top) = open.pop() {
            event(&mut out, top, 'E', top.end_ns);
        }
        out.push_str("],\"selfTimesMs\":{");
        let (layer_ns, residual_ns) = self.self_times();
        for (l, ns) in LAYERS.iter().zip(layer_ns) {
            let _ = write!(out, "\"{}\":{:.6},", l.name(), ns as f64 / 1e6);
        }
        let _ = write!(out, "\"op\":{:.6}}}}}", residual_ns as f64 / 1e6);
        out
    }

    /// Total time per layer, and op time outside every layer span.
    /// Layer spans never nest inside each other, so a layer's self
    /// time is its spans' summed duration.
    pub fn self_times(&self) -> ([u64; LAYERS.len()], u64) {
        let mut layer_ns = [0u64; LAYERS.len()];
        let mut op_ns = 0u64;
        for s in &self.spans {
            let d = s.end_ns - s.start_ns;
            match s.layer {
                Some(l) => layer_ns[l.index()] += d,
                None => op_ns += d,
            }
        }
        (layer_ns, op_ns.saturating_sub(layer_ns.iter().sum()))
    }
}
