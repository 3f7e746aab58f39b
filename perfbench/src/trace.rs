//! Measuring training from outside the program.
//!
//! The trainer accepts three public traits: a [`GemmBackend`], the
//! model as a [`Layer`] and an [`Optimizer`]. [`Probe`] wraps the
//! backend and, in its plain mode, only stamps the step edges the
//! trainer marks with [`GemmBackend::step_boundary`]. In its detailed
//! mode it also times every GEMM, attributes it to a (layer, pass)
//! pair by phase and executed shape, and — when the backend is the
//! FPGA simulator — reads the simulator's public counters around each
//! call. [`TracedModel`] and [`TracedOptimizer`] mark where the
//! forward pass ends and the update begins, which splits a step into
//! forward, backward, optimizer and step-boundary time.

use mpt_arith::{GemmBackend, GemmShape, QGemmConfig};
use mpt_fpga::{CacheStats, FpgaBackend};
use mpt_models::{LayerDesc, ModelDesc};
use mpt_nn::{Graph, Layer, NodeId, OptimState, Optimizer, Parameter};
use mpt_tensor::{ShapeError, Tensor};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// LeNet-5's weight layers, in forward order.
pub const LAYERS: [&str; 5] = ["conv1", "conv2", "fc1", "fc2", "fc3"];
/// The three GEMMs of a weight layer in one training step.
pub const PASSES: [&str; 3] = ["fwd", "bwd_data", "bwd_weight"];

/// Per (layer, pass) array.
pub type PerPair<T> = [[T; 3]; 5];

/// The GEMM shapes `ModelDesc::lenet5(batch)` describes, by (layer,
/// pass): the shapes the matcher and the Table IV estimate consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeTable {
    /// Described shape of each (layer, pass).
    pub described: PerPair<GemmShape>,
}

impl ShapeTable {
    /// The described training GEMMs of LeNet-5 at `batch`.
    pub fn lenet5(batch: usize) -> Self {
        let desc = ModelDesc::lenet5(batch);
        let zero = GemmShape::new(0, 0, 0);
        let mut described = [[zero; 3]; 5];
        for (row, layer) in described.iter_mut().zip(desc.layers()) {
            let g = layer.training_gemms(batch);
            // Conv describes (forward, dW, dcols); Linear describes
            // (forward, dX, dW).
            *row = match layer {
                LayerDesc::Conv { .. } => [g[0], g[2], g[1]],
                _ => [g[0], g[1], g[2]],
            };
        }
        ShapeTable { described }
    }

    /// The (layer, pass) a GEMM of `shape` belongs to: forward-phase
    /// GEMMs match a forward shape, backward-phase GEMMs a backward
    /// one, either as described or as its transposed product.
    pub fn attribute(&self, forward: bool, shape: GemmShape) -> Option<(usize, usize)> {
        let passes: &[usize] = if forward { &[0] } else { &[1, 2] };
        (0..LAYERS.len()).find_map(|l| {
            passes.iter().find_map(|&p| {
                let d = self.described[l][p];
                (shape == d || shape == d.transposed()).then_some((l, p))
            })
        })
    }
}

/// What one training step cost, host nanoseconds unless noted.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepRec {
    /// Step edge to step edge.
    pub dur_ns: u64,
    /// `Layer::forward` of the model.
    pub fwd_ns: u64,
    /// End of forward to the start of `Optimizer::step` (or to the
    /// step boundary when loss scaling skipped the update).
    pub bwd_ns: u64,
    /// `Optimizer::step`.
    pub optim_ns: u64,
    /// `GemmBackend::step_boundary` of the wrapped backend.
    pub boundary_ns: u64,
    /// Host time inside GEMM calls.
    pub gemm_ns: u64,
    /// GEMM calls.
    pub calls: u64,
    /// Σ n·k·m over the step's GEMMs.
    pub macs: u64,
    /// Overlap-aware modeled device time of the step, seconds (FPGA
    /// backend only).
    pub modeled_s: f64,
}

/// Accumulated cost of one (layer, pass).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PairAcc {
    /// Host time inside the calls.
    pub host_ns: u64,
    /// Eager-equivalent modeled device time, seconds (FPGA only).
    pub modeled_s: f64,
    /// Number of calls.
    pub calls: u64,
}

/// The FPGA simulator's public counters at the end of the training
/// steps of one repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaSnap {
    /// `FpgaBackend::cache_stats()`.
    pub cache: CacheStats,
    /// `FpgaBackend::elapsed_s()` (eager-equivalent).
    pub elapsed_s: f64,
    /// `FpgaBackend::pipelined_elapsed_s()` (overlap-aware).
    pub pipelined_s: f64,
    /// `FpgaBackend::gemm_count()`.
    pub gemms: usize,
}

impl FpgaSnap {
    /// Reads the counters of `fpga` now.
    pub fn of(fpga: &FpgaBackend) -> Self {
        FpgaSnap {
            cache: fpga.cache_stats().unwrap_or_default(),
            elapsed_s: fpga.elapsed_s(),
            pipelined_s: fpga.pipelined_elapsed_s(),
            gemms: fpga.gemm_count(),
        }
    }
}

/// Everything a detailed probe saw in one repetition.
#[derive(Debug, Clone, Default)]
pub struct RepTrace {
    /// Training steps, in order.
    pub steps: Vec<StepRec>,
    /// Per (layer, pass) totals over the training steps.
    pub pairs: PerPair<PairAcc>,
    /// Executed shape of each (layer, pass), as first seen.
    pub executed: PerPair<Option<GemmShape>>,
    /// Training GEMMs no (layer, pass) matched.
    pub unattributed: u64,
    /// Σ `estimate_gemm` over the executed training GEMMs, seconds.
    pub estimated_s: f64,
    /// Σ simulated eager-equivalent time of the same GEMMs, seconds.
    pub simulated_s: f64,
    /// Simulator counters after the last training step.
    pub fpga: Option<FpgaSnap>,
}

#[derive(Debug)]
struct State {
    table: ShapeTable,
    train_steps: usize,
    boundaries: usize,
    step_start: Instant,
    marks: Vec<Instant>,
    fwd_start: Option<Instant>,
    fwd_end: Option<Instant>,
    optim: Option<(Instant, Instant)>,
    cur: StepRec,
    last_pipelined_s: f64,
    trace: RepTrace,
}

/// The backend wrapper. Plain probes only stamp step edges; detailed
/// probes trace every call.
pub struct Probe {
    inner: Rc<dyn GemmBackend>,
    fpga: Option<Rc<FpgaBackend>>,
    detailed: bool,
    state: RefCell<State>,
}

impl Probe {
    /// Wraps `inner` for one repetition of `train_steps` training
    /// steps at `batch`. Pass the simulator as `fpga` when `inner` is
    /// (or drives) it, so detailed probes can read its counters.
    pub fn new(
        inner: Rc<dyn GemmBackend>,
        fpga: Option<Rc<FpgaBackend>>,
        batch: usize,
        train_steps: usize,
        detailed: bool,
    ) -> Rc<Self> {
        Rc::new(Probe {
            inner,
            fpga,
            detailed,
            state: RefCell::new(State {
                table: ShapeTable::lenet5(batch),
                train_steps,
                boundaries: 0,
                step_start: Instant::now(),
                marks: Vec::new(),
                fwd_start: None,
                fwd_end: None,
                optim: None,
                cur: StepRec::default(),
                last_pipelined_s: 0.0,
                trace: RepTrace::default(),
            }),
        })
    }

    /// Starts the clock: the first step begins now.
    pub fn start(&self) {
        let now = Instant::now();
        let mut st = self.state.borrow_mut();
        st.step_start = now;
        st.marks = vec![now];
    }

    /// The step edges so far: the start, then the end of every
    /// `step_boundary` call (training steps, then evaluation batches).
    pub fn marks(&self) -> Vec<Instant> {
        self.state.borrow().marks.clone()
    }

    /// What a detailed probe recorded.
    pub fn trace(&self) -> RepTrace {
        self.state.borrow().trace.clone()
    }

    fn training(st: &State) -> bool {
        st.boundaries < st.train_steps
    }

    fn mark_forward(&self, start: Instant, end: Instant) {
        let mut st = self.state.borrow_mut();
        if Self::training(&st) {
            st.fwd_start = Some(start);
            st.fwd_end = Some(end);
        }
    }

    fn mark_optimizer(&self, start: Instant, end: Instant) {
        let mut st = self.state.borrow_mut();
        if Self::training(&st) {
            st.optim = Some((start, end));
        }
    }
}

fn ns(d: std::time::Duration) -> u64 {
    d.as_nanos() as u64
}

impl GemmBackend for Probe {
    fn gemm(&self, a: &Tensor, b: &Tensor, cfg: &QGemmConfig) -> Result<Tensor, ShapeError> {
        if !self.detailed {
            return self.inner.gemm(a, b, cfg);
        }
        let before = self.fpga.as_ref().map(|f| f.elapsed_s());
        let t0 = Instant::now();
        let out = self.inner.gemm(a, b, cfg);
        let host_ns = ns(t0.elapsed());
        let modeled_s = match (&self.fpga, before) {
            (Some(f), Some(b0)) => f.elapsed_s() - b0,
            _ => 0.0,
        };
        let mut st = self.state.borrow_mut();
        if !Self::training(&st) {
            return out;
        }
        let (&[n, k], &[_, m]) = (a.shape(), b.shape()) else {
            return out;
        };
        let shape = GemmShape::new(n, k, m);
        st.cur.gemm_ns += host_ns;
        st.cur.calls += 1;
        st.cur.macs += shape.macs() as u64;
        let forward = st.fwd_end.is_none();
        match st.table.attribute(forward, shape) {
            Some((l, p)) => {
                let acc = &mut st.trace.pairs[l][p];
                acc.host_ns += host_ns;
                acc.modeled_s += modeled_s;
                acc.calls += 1;
                st.trace.executed[l][p].get_or_insert(shape);
            }
            None => st.trace.unattributed += 1,
        }
        if let Some(f) = &self.fpga {
            let bits = cfg.quant_a.format().bit_width();
            let sa = f.accelerator().config();
            let freq = f.accelerator().freq_mhz();
            st.trace.estimated_s += mpt_fpga::estimate_gemm(shape, sa, freq, bits, bits).total_s;
            st.trace.simulated_s += modeled_s;
        }
        out
    }

    fn step_boundary(&self) {
        let t0 = Instant::now();
        self.inner.step_boundary();
        let t1 = Instant::now();
        let mut st = self.state.borrow_mut();
        st.marks.push(t1);
        if self.detailed && Self::training(&st) {
            let mut rec = st.cur;
            rec.dur_ns = ns(t1 - st.step_start);
            rec.boundary_ns = ns(t1 - t0);
            if let (Some(fs), Some(fe)) = (st.fwd_start, st.fwd_end) {
                rec.fwd_ns = ns(fe - fs);
                let bwd_end = st.optim.map_or(t0, |(os, _)| os);
                rec.bwd_ns = ns(bwd_end.saturating_duration_since(fe));
            }
            if let Some((os, oe)) = st.optim {
                rec.optim_ns = ns(oe - os);
            }
            if let Some(f) = &self.fpga {
                let p = f.pipelined_elapsed_s();
                rec.modeled_s = p - st.last_pipelined_s;
                st.last_pipelined_s = p;
            }
            st.trace.steps.push(rec);
            st.cur = StepRec::default();
            st.fwd_start = None;
            st.fwd_end = None;
            st.optim = None;
            if st.boundaries + 1 == st.train_steps {
                st.trace.fpga = self.fpga.as_deref().map(FpgaSnap::of);
            }
        }
        st.boundaries += 1;
        st.step_start = t1;
    }
}

/// The model, with the end of its forward pass marked on a probe.
pub struct TracedModel<'a> {
    inner: &'a dyn Layer,
    probe: Rc<Probe>,
}

impl<'a> TracedModel<'a> {
    /// Wraps `inner`, reporting to `probe`.
    pub fn new(inner: &'a dyn Layer, probe: Rc<Probe>) -> Self {
        TracedModel { inner, probe }
    }
}

impl Layer for TracedModel<'_> {
    fn forward(&self, g: &mut Graph, input: NodeId) -> NodeId {
        let t0 = Instant::now();
        let out = self.inner.forward(g, input);
        self.probe.mark_forward(t0, Instant::now());
        out
    }

    fn parameters(&self) -> Vec<Parameter> {
        self.inner.parameters()
    }
}

/// The optimizer, with its update step timed on a probe.
pub struct TracedOptimizer<'a> {
    inner: &'a mut dyn Optimizer,
    probe: Rc<Probe>,
}

impl<'a> TracedOptimizer<'a> {
    /// Wraps `inner`, reporting to `probe`.
    pub fn new(inner: &'a mut dyn Optimizer, probe: Rc<Probe>) -> Self {
        TracedOptimizer { inner, probe }
    }
}

impl Optimizer for TracedOptimizer<'_> {
    fn step(&mut self, params: &[Parameter]) {
        let t0 = Instant::now();
        self.inner.step(params);
        self.probe.mark_optimizer(t0, Instant::now());
    }

    fn learning_rate(&self) -> f32 {
        self.inner.learning_rate()
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.inner.set_learning_rate(lr);
    }

    fn export_state(&self, params: &[Parameter]) -> OptimState {
        self.inner.export_state(params)
    }

    fn restore_state(&mut self, params: &[Parameter], state: &OptimState) {
        self.inner.restore_state(params, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_described_pair_attributes_to_itself() {
        let t = ShapeTable::lenet5(32);
        for l in 0..5 {
            for p in 0..3 {
                let d = t.described[l][p];
                assert_eq!(t.attribute(p == 0, d), Some((l, p)), "{l} {p}");
                assert_eq!(t.attribute(p == 0, d.transposed()), Some((l, p)));
            }
        }
        assert_eq!(t.attribute(true, GemmShape::new(3, 5, 7)), None);
    }
}
