//! The four workloads, their set-up, and one repetition of training.
//!
//! A repetition is a fixed job: a freshly initialised LeNet-5 trained
//! for one epoch of `steps` batches, then evaluated on the test set,
//! all through `train_cnn_with_backend`. Every repetition of a run
//! starts from the same state, so every one must end on the same
//! weight digest, and that digest must equal a `CpuBackend` replay.

use crate::serve::{capture_templates, Template};
use crate::trace::{FpgaSnap, Probe, RepTrace, TracedModel, TracedOptimizer};
use conformance::digest::{digest_params, Fnv1a};
use mpt_arith::{CpuBackend, GemmBackend, MacConfig};
use mpt_core::{train_cnn_with_backend, TrainConfig, TrainReport};
use mpt_data::{synthetic_mnist, ImageDataset};
use mpt_formats::Rounding;
use mpt_fpga::{Accelerator, FpgaBackend, PipelinedExecutor, SaConfig, SynthesisDb};
use mpt_nn::{GemmPrecision, Layer, Sequential, Sgd};
use mpt_serving::{GemmService, ServeConfig, ServingBackend};
use std::rc::Rc;
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// FP8×FP12-SR training on CPU emulation.
    CpuFp8Sr,
    /// FXP4.4-RN training on CPU emulation.
    CpuFxp44,
    /// FP8×FP12-SR training through the pipelined FPGA simulator.
    FpgaFp8Sr,
    /// Training and open-loop inference sharing one `GemmService`.
    ServeMixed,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 4] = [
    Workload::CpuFp8Sr,
    Workload::CpuFxp44,
    Workload::FpgaFp8Sr,
    Workload::ServeMixed,
];

/// Size of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Training batch (also the evaluation batch).
    pub batch: usize,
    /// Training steps (one epoch of `batch × steps` samples).
    pub steps: usize,
    /// Test-set samples evaluated after the last step.
    pub eval: usize,
}

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CpuFp8Sr => "lenet-cpu-fp8sr",
            Workload::CpuFxp44 => "lenet-cpu-fxp44",
            Workload::FpgaFp8Sr => "lenet-fpga-fp8sr",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Repetition size. Step counts are odd, so the first step of a
    /// repetition, which pays first-use costs, cannot be one of two
    /// middle values the step-time median averages.
    pub fn plan(self) -> Plan {
        match self {
            Workload::CpuFp8Sr => Plan {
                batch: 32,
                steps: 7,
                eval: 256,
            },
            Workload::CpuFxp44 => Plan {
                batch: 32,
                steps: 3,
                eval: 64,
            },
            Workload::FpgaFp8Sr | Workload::ServeMixed => Plan {
                batch: 32,
                steps: 3,
                eval: 64,
            },
        }
    }

    /// GEMM arithmetic of every layer.
    pub fn precision(self, seed: u64) -> GemmPrecision {
        let p = match self {
            Workload::CpuFxp44 => GemmPrecision::for_mac(MacConfig::fxp4_4(Rounding::Nearest)),
            _ => GemmPrecision::fp8_fp12_sr(),
        };
        p.with_seed(seed)
    }
}

/// The `<8,8,4>` systolic array at its synthesized frequency
/// (298 MHz on the U55 database).
pub fn accelerator() -> Accelerator {
    let freq = SynthesisDb::u55()
        .frequency(8, 8, 4)
        .expect("<8,8,4> is synthesized");
    Accelerator::new(SaConfig::new(8, 8, 4).expect("valid array"), freq)
}

/// Learning rate of the SGD optimizer (momentum 0.9, no decay).
pub const LR: f32 = 0.02;
/// Images per inference request's forward pass.
pub const INFER_BATCH: usize = 4;
/// Distinct frozen forward passes the generator cycles through.
pub const INFER_PASSES: usize = 4;

/// A model and the backend one repetition trains it on.
pub struct Parts {
    /// Freshly initialised LeNet-5.
    pub model: Sequential,
    /// The backend handed to the trainer.
    pub backend: Rc<dyn GemmBackend>,
    /// The simulator, when the backend is the FPGA.
    pub fpga: Option<Rc<FpgaBackend>>,
}

/// Everything built before the first timed step.
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Repetition size.
    pub plan: Plan,
    /// Training set (one epoch = one repetition).
    pub train: ImageDataset,
    /// Test set.
    pub test: ImageDataset,
    /// The shared service (`serve-mixed` only).
    pub service: Option<GemmService>,
    /// Frozen inference GEMMs with expected outputs (`serve-mixed`).
    pub templates: Vec<Template>,
}

impl Setup {
    /// Synthesises the data, starts the service (`serve-mixed`), and
    /// precomputes the expected inference outputs. Everything derives
    /// from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let plan = workload.plan();
        let train = synthetic_mnist(
            plan.batch * plan.steps,
            seed.wrapping_mul(2).wrapping_add(1),
        );
        let test = synthetic_mnist(plan.eval, seed.wrapping_mul(2).wrapping_add(2));
        let (service, templates) = if workload == Workload::ServeMixed {
            let exec = PipelinedExecutor::new(accelerator(), mpt_fpga::DEFAULT_CACHE_BUDGET);
            // The config is pinned rather than read from `MPT_SERVE_*`.
            let service = GemmService::start(ServeConfig::default(), exec, None);
            let frozen = mpt_models::lenet5(workload.precision(seed ^ 0x5eed), seed ^ 0xf0f0);
            let templates = capture_templates(&frozen, &test, INFER_BATCH, INFER_PASSES);
            (Some(service), templates)
        } else {
            (None, Vec::new())
        };
        Setup {
            workload,
            seed,
            plan,
            train,
            test,
            service,
            templates,
        }
    }

    /// A fresh model and backend for one repetition.
    pub fn parts(&self) -> Parts {
        let model = mpt_models::lenet5(self.workload.precision(self.seed), self.seed);
        let (backend, fpga): (Rc<dyn GemmBackend>, _) = match self.workload {
            Workload::CpuFp8Sr | Workload::CpuFxp44 => (Rc::new(CpuBackend::new()), None),
            Workload::FpgaFp8Sr => {
                let f = Rc::new(FpgaBackend::new(accelerator()).pipelined());
                (f.clone(), Some(f))
            }
            Workload::ServeMixed => {
                let handle = self.service.as_ref().expect("service started").handle();
                (Rc::new(ServingBackend::new(handle, 1)), None)
            }
        };
        Parts {
            model,
            backend,
            fpga,
        }
    }

    /// The trainer's configuration.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: 1,
            batch_size: self.plan.batch,
            loss_scale: 256.0,
            seed: self.seed,
        }
    }

    /// Trains `model` on `backend` once, as the timed loop does.
    fn train(&self, model: &dyn Layer, opt: &mut Sgd, backend: Rc<dyn GemmBackend>) -> TrainReport {
        train_cnn_with_backend(
            model,
            opt,
            &self.train,
            &self.test,
            self.train_config(),
            backend,
        )
    }

    /// The reference digest: the same repetition on a single-threaded
    /// `CpuBackend`, outside the timed section.
    pub fn replay_digest(&self) -> u64 {
        let model = mpt_models::lenet5(self.workload.precision(self.seed), self.seed);
        let mut opt = Sgd::new(LR, 0.9, 0.0);
        let report = self.train(&model, &mut opt, Rc::new(CpuBackend::with_threads(1)));
        digest(&model, &report)
    }
}

/// Digest of a trained model: every weight bit, the epoch loss and
/// the test accuracy.
pub fn digest(model: &dyn Layer, report: &TrainReport) -> u64 {
    let mut h = Fnv1a::new();
    h.update(&digest_params(&model.parameters()).to_le_bytes());
    h.update_f32s(&report.epoch_losses);
    h.update_f32s(&[report.test_accuracy]);
    h.finish()
}

/// What one repetition did.
#[derive(Debug, Clone)]
pub struct RepOutcome {
    /// Weight digest after training and evaluation.
    pub digest: u64,
    /// Host time of each training step, step edge to step edge.
    pub step_ns: Vec<u64>,
    /// Host time of the evaluation after the last step.
    pub eval_ns: u64,
    /// The detailed trace, when the repetition was traced.
    pub trace: Option<RepTrace>,
    /// Simulator counters at the end (FPGA workload only).
    pub sim: Option<FpgaSnap>,
    /// Launches that degraded to the CPU path.
    pub fallbacks: u64,
}

/// Runs one repetition on `parts`, traced in detail when `detailed`.
pub fn run_rep(setup: &Setup, parts: Parts, detailed: bool) -> RepOutcome {
    let plan = setup.plan;
    let probe = Probe::new(
        parts.backend.clone(),
        parts.fpga.clone(),
        plan.batch,
        plan.steps,
        detailed,
    );
    let mut opt = Sgd::new(LR, 0.9, 0.0);
    probe.start();
    let report = if detailed {
        let model = TracedModel::new(&parts.model, probe.clone());
        let mut traced_opt = TracedOptimizer::new(&mut opt, probe.clone());
        train_cnn_with_backend(
            &model,
            &mut traced_opt,
            &setup.train,
            &setup.test,
            setup.train_config(),
            probe.clone(),
        )
    } else {
        setup.train(&parts.model, &mut opt, probe.clone())
    };
    let end = Instant::now();
    let marks = probe.marks();
    let step_ns: Vec<u64> = marks
        .windows(2)
        .take(plan.steps)
        .map(|w| (w[1] - w[0]).as_nanos() as u64)
        .collect();
    let eval_ns = (end - marks[plan.steps]).as_nanos() as u64;
    RepOutcome {
        digest: digest(&parts.model, &report),
        step_ns,
        eval_ns,
        trace: detailed.then(|| probe.trace()),
        sim: parts.fpga.as_deref().map(FpgaSnap::of),
        fallbacks: parts.fpga.as_ref().map_or(0, |f| f.fallback_count()),
    }
}
