//! The four workloads. Each builds its inputs from the seed, runs one
//! op at a time through the library's public API with a span around
//! every call into a layer, and checks each op's outputs against
//! reference digests computed by an independent path.

use crate::digest::{self, digest, Digest};
use crate::gen::{self, StreamBatches};
use crate::trace::{Layer, Tracer};
use aarray_algebra::pairs::{MaxMin, MaxPlus, MaxTimes, MinMax, MinPlus, MinTimes, PlusTimes};
use aarray_algebra::values::nn::NN;
use aarray_algebra::values::tropical::{trop, Tropical};
use aarray_algebra::DynOpPair;
use aarray_core::{adjacency_plan, AArray, AdjacencyView, BatchKind, IncidenceBuilder};
use aarray_d4m::Table;
use rayon::ThreadPool;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SevenPair,
    RmatGraph,
    StreamIngest,
    D4mPipeline,
}

pub const KINDS: [Kind; 4] = [
    Kind::SevenPair,
    Kind::RmatGraph,
    Kind::StreamIngest,
    Kind::D4mPipeline,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::SevenPair => "seven-pair",
            Kind::RmatGraph => "rmat-graph",
            Kind::StreamIngest => "stream-ingest",
            Kind::D4mPipeline => "d4m-pipeline",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        KINDS.into_iter().find(|k| k.name() == s)
    }
}

/// Input sizes: `Full` is the benchmark, `Small` keeps unit tests fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// A stream batch's position in its pass.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BatchInfo {
    pub(crate) index: usize,
    pub(crate) of: usize,
    pub(crate) interleaved: bool,
}

/// What one op did.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OpInfo {
    /// Incidence rows (edges) the op consumed.
    pub(crate) edges: u64,
    /// Stored entries across the op's outputs.
    pub(crate) out_nnz: u64,
    pub(crate) batch: Option<BatchInfo>,
}

pub(crate) trait Workload: Send {
    /// Compute the reference digests. Runs once after set-up, outside
    /// every timed window.
    fn build_oracle(&mut self, serial: &ThreadPool);
    /// Ready the next op's inputs, outside the timed window.
    fn prepare(&mut self) {}
    /// Run one op; its outputs are kept for [`Workload::check`].
    fn op(&mut self, t: &mut Tracer) -> Result<OpInfo, String>;
    /// Check the last op's outputs, then release them.
    fn check(&mut self, serial: &ThreadPool) -> Result<(), String>;
    /// Whether stopping after the last op leaves no pass half done.
    fn pass_done(&self) -> bool {
        true
    }
    /// Start the next op at the beginning of a pass.
    fn restart(&mut self) {}
}

/// Build the inputs of `kind` from `seed`. This is what `setup_s` times.
pub(crate) fn setup(kind: Kind, scale: Scale, seed: u64) -> Box<dyn Workload> {
    let full = scale == Scale::Full;
    match kind {
        Kind::SevenPair => {
            let tracks = if full { 100_000 } else { 2_000 };
            let (e1, e2) = gen::music_e1_e2(tracks, 8, 100, seed);
            let mp = MaxPlus::<Tropical>::new();
            let t1 = e1.map_prune(&mp, |v| trop(v.get()));
            let t2 = e2.map_prune(&mp, |v| trop(v.get()));
            Box::new(SevenPair {
                e1,
                e2,
                t1,
                t2,
                outs: Vec::new(),
                trop: None,
                reference: Vec::new(),
            })
        }
        Kind::RmatGraph => {
            let scale = if full { 16 } else { 10 };
            let (eout, ein) = gen::rmat(scale, 8, seed);
            Box::new(Rmat {
                eout,
                ein,
                outs: Vec::new(),
                reference: Vec::new(),
            })
        }
        Kind::StreamIngest => {
            let (initial, batches) = if full { (20_000, 1_000) } else { (1_000, 40) };
            let input = gen::stream(initial, batches, 50, 50, 8, 100, seed);
            Box::new(Stream::new(input))
        }
        Kind::D4mPipeline => {
            let rows = if full { 20_000 } else { 1_000 };
            let table = gen::music_table(rows, 8, 100, seed);
            Box::new(D4m {
                table,
                outs: Vec::new(),
                reference: Vec::new(),
            })
        }
    }
}

fn check_all(what: &str, outs: &[AArray<NN>], reference: &[Digest]) -> Result<(), String> {
    if outs.len() != reference.len() {
        return Err(format!(
            "{what}: {} outputs, {} references",
            outs.len(),
            reference.len()
        ));
    }
    for (i, (o, &r)) in outs.iter().zip(reference).enumerate() {
        digest::expect(&format!("{what} output {i}"), o, r)?;
    }
    Ok(())
}

/// A pair with a `'static` lifetime. Pairs are zero-sized, so this
/// allocates nothing.
fn fixed<P: DynOpPair<NN> + 'static>(p: P) -> &'static dyn DynOpPair<NN> {
    Box::leak(Box::new(p))
}

/// Figure 3's six fused NN pairs.
fn six_nn_pairs() -> [&'static dyn DynOpPair<NN>; 6] {
    [
        fixed(PlusTimes::<NN>::new()),
        fixed(MaxTimes::<NN>::new()),
        fixed(MinTimes::<NN>::new()),
        fixed(MinPlus::<NN>::new()),
        fixed(MaxMin::<NN>::new()),
        fixed(MinMax::<NN>::new()),
    ]
}

/// `E1ᵀE2` of a 100,000-track table under Figure 3's six NN pairs in
/// one fused traversal, plus the tropical `max.+` pair on its own plan.
struct SevenPair {
    e1: AArray<NN>,
    e2: AArray<NN>,
    t1: AArray<Tropical>,
    t2: AArray<Tropical>,
    outs: Vec<AArray<NN>>,
    trop: Option<AArray<Tropical>>,
    reference: Vec<Digest>,
}

impl Workload for SevenPair {
    fn build_oracle(&mut self, serial: &ThreadPool) {
        serial.install(|| {
            let plan = adjacency_plan(&self.e1, &self.e2);
            self.reference = six_nn_pairs()
                .iter()
                .map(|&p| digest(&plan.execute_all(&[p])[0]))
                .collect();
            let tplan = adjacency_plan(&self.t1, &self.t2);
            self.reference
                .push(digest(&tplan.execute(&MaxPlus::<Tropical>::new())));
        });
    }

    fn op(&mut self, t: &mut Tracer) -> Result<OpInfo, String> {
        let plan = t.span(Layer::PlanBuild, || adjacency_plan(&self.e1, &self.e2));
        t.span(Layer::Symbolic, || plan.symbolic().nnz());
        self.outs = t.span(Layer::Numeric, || plan.execute_all(&six_nn_pairs()));
        let tplan = t.span(Layer::PlanBuild, || adjacency_plan(&self.t1, &self.t2));
        t.span(Layer::Symbolic, || tplan.symbolic().nnz());
        let trop = t.span(Layer::Numeric, || {
            tplan.execute(&MaxPlus::<Tropical>::new())
        });
        let out_nnz = self.outs.iter().map(|a| a.nnz() as u64).sum::<u64>() + trop.nnz() as u64;
        self.trop = Some(trop);
        Ok(OpInfo {
            edges: self.e1.shape().0 as u64,
            out_nnz,
            batch: None,
        })
    }

    fn check(&mut self, _: &ThreadPool) -> Result<(), String> {
        let outs = std::mem::take(&mut self.outs);
        let trop = self.trop.take().ok_or("seven-pair: no tropical output")?;
        let (nn_ref, trop_ref) = self.reference.split_at(6);
        check_all("seven-pair", &outs, nn_ref)?;
        digest::expect("seven-pair max.+", &trop, trop_ref[0])
    }
}

fn rmat_pairs() -> [&'static dyn DynOpPair<NN>; 3] {
    [
        fixed(PlusTimes::<NN>::new()),
        fixed(MaxMin::<NN>::new()),
        fixed(MinPlus::<NN>::new()),
    ]
}

/// `EᵀoutEin` of an R-MAT graph under `+.×`, `max.min` and `min.+`.
struct Rmat {
    eout: AArray<NN>,
    ein: AArray<NN>,
    outs: Vec<AArray<NN>>,
    reference: Vec<Digest>,
}

impl Workload for Rmat {
    fn build_oracle(&mut self, serial: &ThreadPool) {
        serial.install(|| {
            let plan = adjacency_plan(&self.eout, &self.ein);
            self.reference = rmat_pairs()
                .iter()
                .map(|&p| digest(&plan.execute_all(&[p])[0]))
                .collect();
        });
    }

    fn op(&mut self, t: &mut Tracer) -> Result<OpInfo, String> {
        let plan = t.span(Layer::PlanBuild, || adjacency_plan(&self.eout, &self.ein));
        t.span(Layer::Symbolic, || plan.symbolic().nnz());
        self.outs = t.span(Layer::Numeric, || plan.execute_all(&rmat_pairs()));
        let out_nnz = self.outs.iter().map(|a| a.nnz() as u64).sum();
        Ok(OpInfo {
            edges: self.eout.shape().0 as u64,
            out_nnz,
            batch: None,
        })
    }

    fn check(&mut self, _: &ThreadPool) -> Result<(), String> {
        check_all(
            "rmat-graph",
            &std::mem::take(&mut self.outs),
            &self.reference,
        )
    }
}

/// The five associative-`⊕` lanes an incremental view can maintain.
fn stream_lanes() -> Vec<&'static dyn DynOpPair<NN>> {
    vec![
        fixed(MaxTimes::<NN>::new()),
        fixed(MinTimes::<NN>::new()),
        fixed(MinPlus::<NN>::new()),
        fixed(MaxMin::<NN>::new()),
        fixed(MinMax::<NN>::new()),
    ]
}

/// Compare the view against a full rebuild every this many batches.
const STREAM_CHECK_EVERY: usize = 100;

/// Append batches to a growing incidence pair and keep five adjacency
/// lanes current. A pass replays every batch from the initial pair.
struct Stream {
    input: StreamBatches,
    pass: Pass,
    pending: Option<(AArray<NN>, AArray<NN>)>,
}

/// The state of one pass over the stream.
struct Pass {
    builder: IncidenceBuilder<NN>,
    view: AdjacencyView<'static, NN>,
    /// Index of the next batch; `batches.len()` once the pass is done.
    next: usize,
}

impl Pass {
    fn start(input: &StreamBatches) -> Self {
        let builder = IncidenceBuilder::new(input.e1.clone(), input.e2.clone())
            .expect("generated E1 and E2 share their track rows");
        let view = AdjacencyView::new(&builder, stream_lanes());
        Pass {
            builder,
            view,
            next: 0,
        }
    }
}

impl Stream {
    fn new(input: StreamBatches) -> Self {
        let pass = Pass::start(&input);
        Stream {
            input,
            pass,
            pending: None,
        }
    }
}

impl Workload for Stream {
    fn build_oracle(&mut self, _: &ThreadPool) {}

    fn prepare(&mut self) {
        if self.pass_done() {
            self.pass = Pass::start(&self.input);
        }
        let b = &self.input.batches[self.pass.next];
        self.pending = Some((b.d_out.clone(), b.d_in.clone()));
    }

    fn op(&mut self, t: &mut Tracer) -> Result<OpInfo, String> {
        let (d_out, d_in) = self
            .pending
            .take()
            .ok_or("stream-ingest: batch not prepared")?;
        let p = &mut self.pass;
        let index = p.next;
        let interleaved = self.input.batches[index].interleaved;
        let edges = d_out.shape().0 as u64;
        let kind = t
            .span(Layer::Append, || p.builder.append_batch(d_out, d_in))
            .map_err(|e| format!("stream-ingest batch {index}: {e}"))?;
        t.span(Layer::Refresh, || p.view.refresh(&p.builder));
        p.next += 1;
        if (kind == BatchKind::OutOfOrder) != interleaved {
            return Err(format!("stream-ingest batch {index}: classified {kind:?}"));
        }
        let out_nnz = (0..p.view.n_lanes())
            .map(|i| p.view.lane(i).nnz() as u64)
            .sum();
        let batch = Some(BatchInfo {
            index,
            of: self.input.batches.len(),
            interleaved,
        });
        Ok(OpInfo {
            edges,
            out_nnz,
            batch,
        })
    }

    /// Every [`STREAM_CHECK_EVERY`]th batch and the last one of a pass,
    /// each lane is compared with a full rebuild, one pair at a time.
    fn check(&mut self, serial: &ThreadPool) -> Result<(), String> {
        let p = &self.pass;
        if !p.next.is_multiple_of(STREAM_CHECK_EVERY) && !self.pass_done() {
            return Ok(());
        }
        serial.install(|| {
            let plan = adjacency_plan(p.builder.eout(), p.builder.ein());
            for (i, &lane) in stream_lanes().iter().enumerate() {
                let want = digest(&plan.execute_all(&[lane])[0]);
                let what = format!("stream-ingest batch {} lane {}", p.next - 1, lane.name());
                digest::expect(&what, p.view.lane(i), want)?;
            }
            Ok(())
        })
    }

    fn pass_done(&self) -> bool {
        self.pass.next == self.input.batches.len()
    }

    fn restart(&mut self) {
        self.pass.next = self.input.batches.len();
    }
}

/// Section III from raw records: explode a 7-field table, select the
/// genre and writer blocks, and correlate them (`E1ᵀE2`) and the whole
/// table with itself (`EᵀE`), both under `+.×`.
struct D4m {
    table: Table,
    outs: Vec<AArray<NN>>,
    reference: Vec<Digest>,
}

impl Workload for D4m {
    fn build_oracle(&mut self, serial: &ThreadPool) {
        serial.install(|| {
            let pt = PlusTimes::<NN>::new();
            let e = self.table.explode();
            let e1 = e.select_cols_str("Genre|*");
            let e2 = e.select_cols_str("Writer|*");
            self.reference = vec![
                digest(&e1.transpose().matmul(&e2, &pt)),
                digest(&e.transpose().matmul(&e, &pt)),
            ];
        });
    }

    fn op(&mut self, t: &mut Tracer) -> Result<OpInfo, String> {
        let pt = PlusTimes::<NN>::new();
        let e = t.span(Layer::Explode, || self.table.explode());
        let e1 = t.span(Layer::Select, || e.select_cols_str("Genre|*"));
        let e2 = t.span(Layer::Select, || e.select_cols_str("Writer|*"));
        let plan = t.span(Layer::PlanBuild, || adjacency_plan(&e1, &e2));
        t.span(Layer::Symbolic, || plan.symbolic().nnz());
        let genre_writer = t.span(Layer::Numeric, || plan.execute(&pt));
        let plan = t.span(Layer::PlanBuild, || adjacency_plan(&e, &e));
        t.span(Layer::Symbolic, || plan.symbolic().nnz());
        let correlation = t.span(Layer::Numeric, || plan.execute(&pt));
        let out_nnz = (genre_writer.nnz() + correlation.nnz()) as u64;
        self.outs = vec![genre_writer, correlation];
        Ok(OpInfo {
            edges: self.table.len() as u64,
            out_nnz,
            batch: None,
        })
    }

    fn check(&mut self, _: &ThreadPool) -> Result<(), String> {
        check_all(
            "d4m-pipeline",
            &std::mem::take(&mut self.outs),
            &self.reference,
        )
    }
}
