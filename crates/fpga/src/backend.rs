//! [`GemmBackend`] implementation: training through the accelerator.
//!
//! Wrapping an [`Accelerator`] as [`FpgaBackend`] lets the `mpt-nn`
//! tape execute every quantized GEMM of a training step on the
//! simulated hardware — the paper's `device='fpga'` — while
//! accumulating the measured latency of each launch. Functional
//! results stay bit-identical to the CPU path.
//!
//! The backend is fault-tolerant: arming a [`FaultPlan`] (via
//! [`FpgaBackend::with_fault_plan`]) routes every launch through the
//! retry/backoff loop of [`crate::resilient_execute`], and launches
//! whose retry budget is exhausted degrade to the bit-identical CPU
//! emulation kernel — so training completes with the same weights as
//! a fault-free run. With no plan armed the fault machinery is fully
//! inert: the hot path pays a single `Option` check per launch.

use crate::cache::{CacheStats, DEFAULT_CACHE_BUDGET};
use crate::pipeline::PipelinedExecutor;
use crate::resilient::{emit_fallback_event, resilient_execute};
use crate::sim::Accelerator;
use mpt_arith::{default_threads, qgemm_parallel, GemmBackend, QGemmConfig};
use mpt_faults::{FaultPlan, Injector, RetryPolicy};
use mpt_tensor::{ShapeError, Tensor};
use std::cell::{Cell, RefCell};

/// A GEMM backend that executes on the simulated FPGA accelerator and
/// keeps a running account of measured hardware time.
///
/// # Example
///
/// ```
/// use mpt_fpga::{Accelerator, FpgaBackend, SaConfig};
/// use mpt_arith::{GemmBackend, QGemmConfig};
/// use mpt_tensor::Tensor;
///
/// let backend = FpgaBackend::new(Accelerator::new(SaConfig::new(4, 4, 2)?, 328.4));
/// let a = Tensor::ones(vec![3, 5]);
/// let b = Tensor::ones(vec![5, 2]);
/// backend.gemm(&a, &b, &QGemmConfig::fp8_fp12_sr())?;
/// assert_eq!(backend.gemm_count(), 1);
/// assert!(backend.elapsed_s() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FpgaBackend {
    accelerator: Accelerator,
    elapsed_s: RefCell<f64>,
    gemms: Cell<usize>,
    injector: Option<Injector>,
    retry: RetryPolicy,
    fallbacks: Cell<u64>,
    /// Staged execution engine; `None` means eager launches.
    pipeline: Option<RefCell<PipelinedExecutor>>,
}

impl FpgaBackend {
    /// Wraps an accelerator. Fault injection is disarmed and the
    /// default [`RetryPolicy`] applies if a plan is armed later.
    pub fn new(accelerator: Accelerator) -> Self {
        FpgaBackend {
            accelerator,
            elapsed_s: RefCell::new(0.0),
            gemms: Cell::new(0),
            injector: None,
            retry: RetryPolicy::default(),
            fallbacks: Cell::new(0),
            pipeline: None,
        }
    }

    /// Switches to staged, double-buffered execution with the default
    /// operand-cache budget. Functionally bit-identical to the eager
    /// mode (asserted by the conformance suite); latency is accounted
    /// by the overlap-aware pipeline clock, and reused operands are
    /// quantized + packed once.
    ///
    /// # Example
    ///
    /// ```
    /// use mpt_fpga::{Accelerator, FpgaBackend, SaConfig};
    /// use mpt_arith::{GemmBackend, QGemmConfig};
    /// use mpt_tensor::Tensor;
    ///
    /// let backend =
    ///     FpgaBackend::new(Accelerator::new(SaConfig::new(4, 4, 2)?, 328.4)).pipelined();
    /// let w = Tensor::ones(vec![5, 2]);
    /// let x = Tensor::ones(vec![3, 5]);
    /// backend.gemm(&x, &w, &QGemmConfig::fp8_fp12_sr())?;
    /// backend.gemm(&x, &w, &QGemmConfig::fp8_fp12_sr())?; // weight is resident now
    /// let stats = backend.cache_stats().unwrap();
    /// assert_eq!(stats.hits, 2); // second launch packs nothing
    /// backend.step_boundary(); // drain the queue at the step boundary
    /// assert!(backend.pipelined_elapsed_s() > 0.0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn pipelined(self) -> Self {
        self.pipelined_with_budget(DEFAULT_CACHE_BUDGET)
    }

    /// Staged execution with an explicit operand-cache byte budget
    /// (`0` disables caching: every launch packs — the eager-
    /// equivalent baseline the bench harness measures against).
    pub fn pipelined_with_budget(mut self, budget_bytes: usize) -> Self {
        self.pipeline = Some(RefCell::new(PipelinedExecutor::new(
            self.accelerator.clone(),
            budget_bytes,
        )));
        self
    }

    /// Arms a deterministic fault schedule: every launch now runs
    /// through the retry/backoff/fallback loop.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.injector = Some(Injector::new(plan));
        self
    }

    /// Overrides the retry policy (attempts / backoff delays).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The wrapped accelerator.
    pub fn accelerator(&self) -> &Accelerator {
        &self.accelerator
    }

    /// The armed injector, if any (tests assert its tallies).
    pub fn injector(&self) -> Option<&Injector> {
        self.injector.as_ref()
    }

    /// Total measured hardware time accumulated so far, seconds.
    /// Always the *eager-equivalent* account (Σ per-launch stage
    /// sums), comparable across execution modes; the overlapped
    /// figure of the staged mode is
    /// [`pipelined_elapsed_s`](Self::pipelined_elapsed_s).
    pub fn elapsed_s(&self) -> f64 {
        *self.elapsed_s.borrow()
    }

    /// `true` when staged (pipelined) execution is enabled.
    pub fn is_pipelined(&self) -> bool {
        self.pipeline.is_some()
    }

    /// Operand-cache counters of the staged mode (`None` when eager).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.pipeline.as_ref().map(|p| p.borrow().cache_stats())
    }

    /// Overlap-aware hardware time of the staged mode: drained queues
    /// plus the live one. `0.0` in eager mode (nothing overlaps).
    pub fn pipelined_elapsed_s(&self) -> f64 {
        self.pipeline
            .as_ref()
            .map(|p| p.borrow().pipelined_elapsed_s())
            .unwrap_or(0.0)
    }

    /// Number of GEMM launches so far.
    pub fn gemm_count(&self) -> usize {
        self.gemms.get()
    }

    /// Number of launches that degraded to the CPU path after
    /// exhausting their retry budget.
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks.get()
    }

    /// Resets the accumulated counters (not the injector's schedule;
    /// cached operands stay resident).
    pub fn reset(&self) {
        *self.elapsed_s.borrow_mut() = 0.0;
        self.gemms.set(0);
        self.fallbacks.set(0);
        if let Some(p) = &self.pipeline {
            p.borrow_mut().reset_accounting();
        }
    }

    /// One hardware launch with latency accounting and telemetry —
    /// the fault-free execution path.
    fn launch(&self, a: &Tensor, b: &Tensor, cfg: &QGemmConfig) -> Result<Tensor, ShapeError> {
        let mut span =
            mpt_arith::gemm_span("gemm:fpga", a, b, cfg, self.accelerator.config().c() as u64);
        let (out, latency) = self.accelerator.execute(a, b, cfg)?;
        *self.elapsed_s.borrow_mut() += latency.total_s;
        self.gemms.set(self.gemms.get() + 1);
        if span.is_active() {
            span.field(mpt_telemetry::SpanField::F64("hw_total_s", latency.total_s))
                .field(mpt_telemetry::SpanField::U64(
                    "hw_cycles",
                    latency.core_cycles,
                ));
            // Per-GEMM perf-model calibration: the analytic L_total
            // (Section IV-A) against the cycle-level latency, at the
            // operand width the accelerator model itself accounts.
            if let (&[n, k], &[_, m]) = (a.shape(), b.shape()) {
                let bits = cfg.quant_a.format().bit_width();
                let predicted = crate::perf::estimate_gemm(
                    mpt_arith::GemmShape::new(n, k, m),
                    self.accelerator.config(),
                    self.accelerator.freq_mhz(),
                    bits,
                    bits,
                );
                mpt_telemetry::record_calibration(mpt_telemetry::CalibrationRecord {
                    context: "fpga_gemm".into(),
                    label: format!("{n}x{k}x{m}@{}", self.accelerator.config()),
                    predicted_s: predicted.total_s,
                    measured_s: latency.total_s,
                });
            }
        }
        Ok(out)
    }

    /// One staged launch through the pipelined executor, with the
    /// same telemetry and fallback contract as the eager path.
    fn launch_pipelined(
        &self,
        px: &RefCell<PipelinedExecutor>,
        a: &Tensor,
        b: &Tensor,
        cfg: &QGemmConfig,
    ) -> Result<Tensor, ShapeError> {
        let mut span = mpt_arith::gemm_span(
            "gemm:fpga-pipelined",
            a,
            b,
            cfg,
            self.accelerator.config().c() as u64,
        );
        let outcome = match &self.injector {
            None => px.borrow_mut().launch(a, b, cfg).map(Some)?,
            Some(inj) => px
                .borrow_mut()
                .launch_resilient(inj, &self.retry, a, b, cfg)?,
        };
        match outcome {
            Some((out, times)) => {
                *self.elapsed_s.borrow_mut() += times.eager_s();
                self.gemms.set(self.gemms.get() + 1);
                if span.is_active() {
                    span.field(mpt_telemetry::SpanField::F64("hw_eager_s", times.eager_s()))
                        .field(mpt_telemetry::SpanField::F64(
                            "hw_bottleneck_s",
                            times.bottleneck_s(),
                        ));
                    // Eager-vs-pipelined calibration: the analytic
                    // stage model against the simulator's staged
                    // accounting (cache effects and the PCIe
                    // efficiency gap included in "measured").
                    if let (&[n, k], &[_, m]) = (a.shape(), b.shape()) {
                        let bits = cfg.quant_a.format().bit_width();
                        let shape = mpt_arith::GemmShape::new(n, k, m);
                        let sa = self.accelerator.config();
                        let freq = self.accelerator.freq_mhz();
                        let label = format!("{n}x{k}x{m}@{sa}");
                        let stages = crate::perf::estimate_gemm_stages(shape, sa, freq, bits, bits);
                        mpt_telemetry::record_calibration(mpt_telemetry::CalibrationRecord {
                            context: "fpga_gemm".into(),
                            label: label.clone(),
                            predicted_s: stages.eager_s(),
                            measured_s: times.eager_s(),
                        });
                        mpt_telemetry::record_calibration(mpt_telemetry::CalibrationRecord {
                            context: "fpga_gemm_pipelined".into(),
                            label,
                            predicted_s: stages.bottleneck_s(),
                            measured_s: times.bottleneck_s(),
                        });
                    }
                }
                Ok(out)
            }
            None => {
                let inj = self.injector.as_ref().expect("fallback requires injector");
                self.fallbacks.set(self.fallbacks.get() + 1);
                emit_fallback_event(
                    "fpga-pipelined",
                    inj.launch_count(),
                    self.retry.max_attempts,
                );
                let threads = default_threads();
                let _span = mpt_arith::gemm_span("gemm:fallback", a, b, cfg, threads as u64);
                qgemm_parallel(a, b, cfg, threads)
            }
        }
    }
}

impl GemmBackend for FpgaBackend {
    fn gemm(&self, a: &Tensor, b: &Tensor, cfg: &QGemmConfig) -> Result<Tensor, ShapeError> {
        // Staged mode: cache-aware pack + overlap-aware accounting,
        // with its own per-stage fault retry.
        if let Some(px) = &self.pipeline {
            return self.launch_pipelined(px, a, b, cfg);
        }
        // Fault-free configuration: the direct hardware launch. This
        // branch is the whole cost of the inert fault layer.
        let Some(inj) = &self.injector else {
            return self.launch(a, b, cfg);
        };
        match resilient_execute(inj, &self.retry, "fpga", a, cfg, || self.launch(a, b, cfg))? {
            Some(out) => Ok(out),
            None => {
                // Retry budget exhausted: degrade to the bit-identical
                // CPU emulation kernel so training continues with the
                // exact same numbers (no hardware time accounted).
                self.fallbacks.set(self.fallbacks.get() + 1);
                emit_fallback_event("fpga", inj.launch_count(), self.retry.max_attempts);
                let threads = default_threads();
                let _span = mpt_arith::gemm_span("gemm:fallback", a, b, cfg, threads as u64);
                qgemm_parallel(a, b, cfg, threads)
            }
        }
    }

    fn label(&self) -> String {
        format!(
            "fpga{}{}@{:.1}MHz",
            if self.is_pipelined() {
                "-pipelined"
            } else {
                ""
            },
            self.accelerator.config(),
            self.accelerator.freq_mhz()
        )
    }

    /// A training-step boundary drains the staged launch queue: the
    /// overlapped makespan moves into the accumulated total and the
    /// clock returns to idle. The operand cache keeps its residents —
    /// updated weights re-key themselves by content. No-op in eager
    /// mode.
    fn step_boundary(&self) {
        if let Some(px) = &self.pipeline {
            px.borrow_mut().flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SaConfig;
    use mpt_arith::{qgemm, CpuBackend};

    #[test]
    fn matches_cpu_backend_bitwise() {
        let a = Tensor::from_fn(vec![9, 13], |i| ((i * 29 % 31) as f32 - 15.0) * 0.04);
        let b = Tensor::from_fn(vec![13, 6], |i| ((i * 23 % 29) as f32 - 14.0) * 0.05);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(8);
        let fpga = FpgaBackend::new(Accelerator::new(SaConfig::new(8, 4, 3).unwrap(), 197.7));
        let cpu = CpuBackend::new();
        assert_eq!(
            fpga.gemm(&a, &b, &cfg).unwrap(),
            cpu.gemm(&a, &b, &cfg).unwrap()
        );
        assert_eq!(
            fpga.gemm(&a, &b, &cfg).unwrap(),
            qgemm(&a, &b, &cfg).unwrap()
        );
    }

    #[test]
    fn accounts_time_and_launches() {
        let a = Tensor::ones(vec![4, 4]);
        let b = Tensor::ones(vec![4, 4]);
        let cfg = QGemmConfig::fp8_fp12_sr();
        let backend = FpgaBackend::new(Accelerator::new(SaConfig::new(2, 2, 1).unwrap(), 320.1));
        for _ in 0..3 {
            backend.gemm(&a, &b, &cfg).unwrap();
        }
        assert_eq!(backend.gemm_count(), 3);
        assert!(backend.elapsed_s() > 0.0);
        backend.reset();
        assert_eq!(backend.gemm_count(), 0);
        assert_eq!(backend.elapsed_s(), 0.0);
    }

    #[test]
    fn label_names_configuration() {
        let backend = FpgaBackend::new(Accelerator::new(SaConfig::new(8, 8, 4).unwrap(), 298.0));
        assert_eq!(backend.label(), "fpga<8,8,4>@298.0MHz");
    }

    #[test]
    fn pipelined_mode_matches_eager_bitwise() {
        let a = Tensor::from_fn(vec![9, 13], |i| ((i * 29 % 31) as f32 - 15.0) * 0.04);
        let b = Tensor::from_fn(vec![13, 6], |i| ((i * 23 % 29) as f32 - 14.0) * 0.05);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(8);
        let eager = FpgaBackend::new(Accelerator::new(SaConfig::new(8, 4, 3).unwrap(), 197.7));
        let staged =
            FpgaBackend::new(Accelerator::new(SaConfig::new(8, 4, 3).unwrap(), 197.7)).pipelined();
        for _ in 0..3 {
            assert_eq!(
                staged.gemm(&a, &b, &cfg).unwrap(),
                eager.gemm(&a, &b, &cfg).unwrap()
            );
        }
        let stats = staged.cache_stats().unwrap();
        assert_eq!(stats.misses, 2, "one pack per distinct operand");
        assert_eq!(stats.hits, 4, "launches 2..3 are fully resident");
        assert_eq!(staged.label(), "fpga-pipelined<8,4,3>@197.7MHz");
    }

    #[test]
    fn pipelined_step_boundary_drains_queue() {
        let a = Tensor::ones(vec![16, 16]);
        let b = Tensor::ones(vec![16, 16]);
        // with_seed gives A and B distinct SR streams, so the equal
        // carrier bits still occupy two cache entries.
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(1);
        let backend =
            FpgaBackend::new(Accelerator::new(SaConfig::new(4, 4, 2).unwrap(), 300.0)).pipelined();
        for _ in 0..4 {
            backend.gemm(&a, &b, &cfg).unwrap();
        }
        let overlapped = backend.pipelined_elapsed_s();
        let eager = backend.elapsed_s();
        assert!(overlapped > 0.0 && overlapped < eager);
        backend.step_boundary();
        assert!((backend.pipelined_elapsed_s() - overlapped).abs() < 1e-15);
        // New step: the queue restarts from idle, cache stays warm.
        backend.gemm(&a, &b, &cfg).unwrap();
        assert_eq!(backend.cache_stats().unwrap().misses, 2);
    }

    #[test]
    fn pipelined_faults_recover_bit_identically() {
        use mpt_faults::{FaultPlan, FaultSite, RetryPolicy, Trigger};
        let a = Tensor::from_fn(vec![7, 11], |i| ((i * 17 % 23) as f32 - 11.0) * 0.06);
        let b = Tensor::from_fn(vec![11, 4], |i| ((i * 19 % 29) as f32 - 14.0) * 0.03);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(3);
        let plan = FaultPlan::new(42)
            .with(FaultSite::LaunchTimeout, Trigger::EveryNth(2))
            .with(FaultSite::HbmCorruption, Trigger::EveryNth(3))
            .with(FaultSite::LaunchTransient, Trigger::StickyAtLaunch(5));
        let backend = FpgaBackend::new(Accelerator::new(SaConfig::new(4, 4, 2).unwrap(), 328.4))
            .pipelined()
            .with_fault_plan(plan)
            .with_retry_policy(RetryPolicy::no_delay(3));
        let want = qgemm(&a, &b, &cfg).unwrap();
        for _ in 0..6 {
            assert_eq!(backend.gemm(&a, &b, &cfg).unwrap(), want);
        }
        assert_eq!(backend.fallback_count(), 1, "sticky launch 5 degrades");
        let stats = backend.cache_stats().unwrap();
        assert_eq!(
            stats.packs, 2,
            "stage retries must never replay the pack stage"
        );
    }

    #[test]
    fn faulted_launches_recover_bit_identically() {
        use mpt_faults::{FaultPlan, FaultSite, RetryPolicy, Trigger};
        let a = Tensor::from_fn(vec![9, 13], |i| ((i * 29 % 31) as f32 - 15.0) * 0.04);
        let b = Tensor::from_fn(vec![13, 6], |i| ((i * 23 % 29) as f32 - 14.0) * 0.05);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(8);
        let plan = FaultPlan::new(42)
            .with(FaultSite::LaunchTimeout, Trigger::EveryNth(2))
            .with(FaultSite::HbmCorruption, Trigger::EveryNth(3))
            .with(FaultSite::BitstreamLoad, Trigger::AtLaunch(5));
        let backend = FpgaBackend::new(Accelerator::new(SaConfig::new(8, 4, 3).unwrap(), 197.7))
            .with_fault_plan(plan)
            .with_retry_policy(RetryPolicy::no_delay(3));
        let want = qgemm(&a, &b, &cfg).unwrap();
        for _ in 0..6 {
            assert_eq!(backend.gemm(&a, &b, &cfg).unwrap(), want);
        }
        let inj = backend.injector().unwrap();
        // Sites short-circuit in launch order, so at launch 6 the HBM
        // fault masks the timeout that would also have fired.
        assert_eq!(inj.injected_at(FaultSite::LaunchTimeout), 2); // 2,4
        assert_eq!(inj.injected_at(FaultSite::HbmCorruption), 2); // 3,6
        assert_eq!(inj.injected_at(FaultSite::BitstreamLoad), 1); // 5
        assert_eq!(backend.fallback_count(), 0, "single faults retry clean");
    }

    #[test]
    fn exhausted_retries_fall_back_to_cpu_bit_identically() {
        use mpt_faults::{FaultPlan, FaultSite, RetryPolicy, Trigger};
        let a = Tensor::from_fn(vec![7, 11], |i| ((i * 17 % 23) as f32 - 11.0) * 0.06);
        let b = Tensor::from_fn(vec![11, 4], |i| ((i * 19 % 29) as f32 - 14.0) * 0.03);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(3);
        let backend = FpgaBackend::new(Accelerator::new(SaConfig::new(4, 4, 2).unwrap(), 328.4))
            .with_fault_plan(
                FaultPlan::new(1).with(FaultSite::LaunchTransient, Trigger::StickyAtLaunch(2)),
            )
            .with_retry_policy(RetryPolicy::no_delay(3));
        let want = qgemm(&a, &b, &cfg).unwrap();
        for _ in 0..3 {
            assert_eq!(backend.gemm(&a, &b, &cfg).unwrap(), want);
        }
        assert_eq!(backend.fallback_count(), 1, "launch 2 must degrade");
        assert_eq!(
            backend
                .injector()
                .unwrap()
                .injected_at(FaultSite::LaunchTransient),
            3,
            "sticky fault burns the whole budget"
        );
        assert_eq!(backend.gemm_count(), 2, "fallback is not a hardware launch");
    }
}
