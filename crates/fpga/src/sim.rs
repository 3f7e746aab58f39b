//! The multicore accelerator: functional results plus modeled
//! latency for one GEMM launch.
//!
//! [`Accelerator::execute`] takes its **bits** from the tiered
//! [`mpt_arith`] kernels ([`mpt_arith::qgemm_quantized`] on operands
//! quantized the way the host does before packing HBM words) and its
//! **cycles** from [`Accelerator::timing_only`], the closed form of
//! the systolic schedule. Every FPGA path — the eager backend, the
//! pipelined executor, `core::FpgaDevice` and the serving
//! dispatcher's batches — runs through it.
//!
//! [`Accelerator::simulate_cycles`] is the **test oracle** that
//! justifies both halves: it executes the hardware schedule itself
//! (host-side stage-1/2 padding, row partitioning of `A` across
//! cores, fabric-side stage-3 padding, then a tiled systolic loop per
//! core in which every reduction step goes through the same
//! [`mpt_arith::mac_step`] as CPU emulation) and counts its cycles.
//! Conformance and the bit-equality tests assert that its result is
//! bitwise identical to [`mpt_arith::qgemm_reference`] and to
//! `execute` (the paper's bit-level accuracy claim), and that its
//! cycle count equals the closed form. Like `qgemm_reference`, no
//! backend calls it. Fully-identity pipelines are the one stepping
//! exception: CPU paths dispatch them to the plain FP32 GEMM, so the
//! oracle's PEs step with the same separate product/sum roundings
//! instead of the fused MAC.
//!
//! Latency adds the measured-world non-idealities the paper reports:
//! PCIe throughput capped at ~80% of peak and per-launch/pipeline-fill
//! overheads — so measured latency lands slightly above the analytic
//! estimate while preserving which configuration is optimal (Fig. 7).

use crate::config::{SaConfig, PCIE_EFFICIENCY, PCIE_GBPS};
use crate::padding::PaddedGemm;
use mpt_arith::{
    default_threads, mac_step, qgemm_quantized, quantize_matrix, GemmShape, QGemmConfig,
};
use mpt_tensor::{ShapeError, Tensor};
use std::sync::Arc;

/// Per-GEMM kernel launch overhead (OpenCL enqueue + sync), seconds.
pub const LAUNCH_OVERHEAD_S: f64 = 30.0e-6;

/// Latency observed by the cycle-level simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredLatency {
    /// Compute cycles of the slowest core (including pipeline fill).
    pub core_cycles: u64,
    /// Core time at the configured frequency, seconds.
    pub core_s: f64,
    /// PCIe transfer time at the achieved (80%) bandwidth, seconds.
    pub data_s: f64,
    /// End-to-end time including launch overhead.
    pub total_s: f64,
}

/// A simulated instance of the multicore GEMM accelerator.
///
/// # Example
///
/// ```
/// use mpt_fpga::{Accelerator, SaConfig};
/// use mpt_arith::QGemmConfig;
/// use mpt_tensor::Tensor;
///
/// let acc = Accelerator::new(SaConfig::new(4, 4, 2)?, 328.4);
/// let a = Tensor::ones(vec![3, 5]);
/// let b = Tensor::ones(vec![5, 2]);
/// let (c, lat) = acc.execute(&a, &b, &QGemmConfig::fp8_fp12_sr())?;
/// assert_eq!(c.shape(), &[3, 2]);
/// assert!(lat.total_s > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: SaConfig,
    freq_mhz: f64,
}

impl Accelerator {
    /// Creates an accelerator with the given configuration running at
    /// `freq_mhz` (take the frequency from
    /// [`crate::SynthesisDb::frequency`]).
    pub fn new(config: SaConfig, freq_mhz: f64) -> Self {
        Accelerator { config, freq_mhz }
    }

    /// The array configuration.
    pub fn config(&self) -> SaConfig {
        self.config
    }

    /// The operating frequency in MHz.
    pub fn freq_mhz(&self) -> f64 {
        self.freq_mhz
    }

    /// Executes `A · B` on the accelerator with `A` partitioned
    /// row-wise across the cores (the canonical mapping; apply
    /// transposition at the caller for other mappings), fanning the
    /// arithmetic out over [`default_threads`] pool tiles.
    ///
    /// Functionally bit-identical to `mpt_arith::qgemm(a, b, cfg)`;
    /// latency is [`timing_only`](Accelerator::timing_only).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the operands are not conforming
    /// matrices.
    pub fn execute(
        &self,
        a: &Tensor,
        b: &Tensor,
        cfg: &QGemmConfig,
    ) -> Result<(Tensor, MeasuredLatency), ShapeError> {
        let (aq, bq) = quantize_operands(a, b, cfg, "Accelerator::execute")?;
        self.execute_quantized(Arc::new(aq), &bq, cfg, default_threads())
    }

    /// Executes `A · B` where both operands have **already** been
    /// quantized with `cfg`'s quantizers at global coordinates
    /// (offsets `(0, 0)`), skipping the host-side quantization stage,
    /// on up to `threads` pool tiles.
    ///
    /// This is the compute stage of the pipelined executor
    /// ([`crate::pipeline::PipelinedExecutor`]): the operand cache
    /// holds quantized carriers, so a cache hit must not re-quantize.
    /// `execute(a, b, cfg)` is exactly
    /// `execute_quantized(quantize(a), quantize(b), cfg, default_threads())`.
    /// A call made from a job already on the worker pool must pass
    /// `threads = 1` (see [`mpt_arith::pool_execute`]).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the operands are not conforming
    /// matrices.
    pub fn execute_quantized(
        &self,
        aq: Arc<Tensor>,
        bq: &Tensor,
        cfg: &QGemmConfig,
        threads: usize,
    ) -> Result<(Tensor, MeasuredLatency), ShapeError> {
        let (n, k) = aq.as_matrix()?;
        let (_, m) = bq.as_matrix()?;
        let out = qgemm_quantized(aq, bq, cfg, threads)?;
        let latency = self.timing_only(GemmShape::new(n, k, m), cfg.quant_a.format().bit_width());
        Ok((out, latency))
    }

    /// The cycle-level **test oracle**: runs `A · B` through the
    /// hardware schedule itself — stage-1/2 padding, row partitioning
    /// across cores, stage-3 padding, and the tiled systolic loop of
    /// [`mac_step`]s per core — counting cycles as it goes.
    ///
    /// Tests and conformance compare it against
    /// [`mpt_arith::qgemm_reference`], [`execute`](Accelerator::execute)
    /// and [`timing_only`](Accelerator::timing_only); no execution
    /// path calls it.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the operands are not conforming
    /// matrices.
    pub fn simulate_cycles(
        &self,
        a: &Tensor,
        b: &Tensor,
        cfg: &QGemmConfig,
    ) -> Result<(Tensor, MeasuredLatency), ShapeError> {
        let (aq, bq) = quantize_operands(a, b, cfg, "Accelerator::simulate_cycles")?;
        let (n, k) = aq.as_matrix()?;
        let (_, m) = bq.as_matrix()?;
        let shape = GemmShape::new(n, k, m);
        let bits = cfg.quant_a.format().bit_width();
        let padded = PaddedGemm::new(shape, self.config, bits);

        // Stage-1/2 padding of the quantized operands.
        let a_host = aq.pad_to(padded.n_core * self.config.c(), padded.k_mem)?;
        let b_host = bq.pad_to(padded.k_mem, padded.m_mem)?;

        // Quantization already happened; cores must not re-quantize.
        let core_cfg = QGemmConfig {
            quant_a: mpt_formats::Quantizer::identity(),
            quant_b: mpt_formats::Quantizer::identity(),
            mac: cfg.mac,
        };
        // A fully-identity pipeline is dispatched to the plain FP32
        // GEMM (`Tensor::matmul`, separate product/sum roundings) on
        // every CPU path; the PEs must use the same stepping, not the
        // fused-MAC `mac_step`, to stay bit-identical.
        let identity = cfg.is_identity();

        let mut out_rows: Vec<Tensor> = Vec::with_capacity(self.config.c());
        let mut worst_cycles = 0u64;
        for core in 0..self.config.c() {
            let row0 = core * padded.n_core;
            let slice = a_host.slice_rows(row0, row0 + padded.n_core)?;
            // Fabric: stage-3 padding during load.
            let a_core = slice.pad_to(padded.n_comp, padded.k_mem)?;
            let b_core = b_host.pad_to(padded.k_mem, padded.m_comp)?;
            let (tile, cycles) = self.run_core(&a_core, &b_core, &core_cfg, row0, identity);
            worst_cycles = worst_cycles.max(cycles);
            out_rows.push(tile.crop_to(padded.n_core, m)?);
        }
        let stacked = Tensor::concat_rows(&out_rows)?;
        let result = stacked.crop_to(n, m)?;

        let f = self.freq_mhz * 1.0e6;
        let core_s = worst_cycles as f64 / f;
        // Results stream back packed at the operand width (the host
        // casts to FP32 after the transfer), matching the model's
        // uniform S_data accounting.
        let (in_bytes, out_bytes) = padded.pcie_bytes(self.config.c(), bits);
        let data_s = (in_bytes + out_bytes) / (PCIE_GBPS * 1.0e9 * PCIE_EFFICIENCY);
        let total_s = core_s + data_s + LAUNCH_OVERHEAD_S;
        Ok((
            result,
            MeasuredLatency {
                core_cycles: worst_cycles,
                core_s,
                data_s,
                total_s,
            },
        ))
    }

    /// Cycle-level latency of one GEMM **without** executing the
    /// arithmetic: the closed form of the exact cycle counting
    /// performed by the [`simulate_cycles`](Accelerator::simulate_cycles)
    /// schedule, and the latency every launch reports.
    ///
    /// Guaranteed to match the oracle's `core_cycles` (asserted by
    /// tests).
    pub fn timing_only(&self, shape: GemmShape, in_bits: u32) -> MeasuredLatency {
        let padded = PaddedGemm::new(shape, self.config, in_bits);
        let t_pe = self.config.t_pe();
        let t_mac = self.config.t_mac();
        let tiles = (padded.n_comp / t_pe) as u64 * (padded.m_comp / t_mac) as u64;
        let per_tile = (self.config.n() + self.config.m()) as u64
            + padded.k_mem as u64 * t_pe as u64
            + (t_pe * t_mac / self.config.m()) as u64;
        let core_cycles = tiles * per_tile;
        let f = self.freq_mhz * 1.0e6;
        let core_s = core_cycles as f64 / f;
        let (in_bytes, out_bytes) = padded.pcie_bytes(self.config.c(), in_bits);
        let data_s = (in_bytes + out_bytes) / (PCIE_GBPS * 1.0e9 * PCIE_EFFICIENCY);
        MeasuredLatency {
            core_cycles,
            core_s,
            data_s,
            total_s: core_s + data_s + LAUNCH_OVERHEAD_S,
        }
    }

    /// Measured-world stage decomposition of one launch:
    /// `(transfer-in, compute, transfer-out)` seconds, where compute
    /// includes the per-launch overhead and the transfers run at the
    /// achieved (80%) PCIe bandwidth. The three components sum to
    /// [`timing_only`](Accelerator::timing_only)'s `total_s`; the
    /// pipelined executor overlaps them across consecutive launches
    /// (stage *s* of launch *i+1* behind stage *s+1* of launch *i*).
    pub fn stage_timing(&self, shape: GemmShape, in_bits: u32) -> (f64, f64, f64) {
        let padded = PaddedGemm::new(shape, self.config, in_bits);
        let lat = self.timing_only(shape, in_bits);
        let (in_bytes, out_bytes) = padded.pcie_bytes(self.config.c(), in_bits);
        let bw = PCIE_GBPS * 1.0e9 * PCIE_EFFICIENCY;
        (
            in_bytes / bw,
            lat.core_s + LAUNCH_OVERHEAD_S,
            out_bytes / bw,
        )
    }

    /// Runs one core's tiled systolic schedule over its padded
    /// operands, counting cycles. `row_offset` keeps stochastic
    /// rounding indexed by global output coordinates.
    fn run_core(
        &self,
        a: &Tensor,
        b: &Tensor,
        cfg: &QGemmConfig,
        row_offset: usize,
        identity: bool,
    ) -> (Tensor, u64) {
        let (n_comp, k_mem) = a.as_matrix().expect("matrix");
        let (_, m_comp) = b.as_matrix().expect("matrix");
        let t_pe = self.config.t_pe();
        let t_mac = self.config.t_mac();
        let mut out = Tensor::zeros(vec![n_comp, m_comp]);

        let mut cycles: u64 = 0;
        // Tile loop: row tiles of T_PE rows × column tiles of
        // T_MAC columns, reduction streamed over k (the 1-D systolic
        // dataflow of de Fine Licht et al.).
        for rt in (0..n_comp).step_by(t_pe) {
            for ct in (0..m_comp).step_by(t_mac) {
                // Pipeline fill/drain: the N-deep PE chain plus the
                // M-wide writeback per tile.
                cycles += (self.config.n() + self.config.m()) as u64;
                for kk in 0..k_mem {
                    // One k-step feeds all T_PE×T_MAC MACs of the tile
                    // over T_PE*T_MAC/(N*M) = T_PE beats.
                    cycles += t_pe as u64;
                    for i in rt..rt + t_pe {
                        let av = a.data()[i * k_mem + kk];
                        for j in ct..ct + t_mac {
                            let acc = out.data()[i * m_comp + j];
                            let bv = b.data()[kk * m_comp + j];
                            let v = if identity {
                                // Plain FP32 PE: round the product and
                                // the sum separately, with the same
                                // zero-row skip as `Tensor::matmul`.
                                if av == 0.0 {
                                    acc
                                } else {
                                    acc + av * bv
                                }
                            } else {
                                mac_step(acc, av, bv, &cfg.mac, i + row_offset, j, kk)
                            };
                            out.data_mut()[i * m_comp + j] = v;
                        }
                    }
                }
                // Result write-back: T_PE*T_MAC elements at T_out = M
                // per cycle.
                cycles += (t_pe * t_mac / self.config.m()) as u64;
            }
        }
        (out, cycles)
    }
}

/// Host-side quantization of both operands at global coordinates —
/// what the host does before packing HBM words.
fn quantize_operands(
    a: &Tensor,
    b: &Tensor,
    cfg: &QGemmConfig,
    op: &'static str,
) -> Result<(Tensor, Tensor), ShapeError> {
    let (_, k) = a.as_matrix()?;
    let (k2, _) = b.as_matrix()?;
    if k != k2 {
        return Err(ShapeError::Mismatch {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
            op,
        });
    }
    Ok((
        quantize_matrix(a, &cfg.quant_a, 0, 0),
        quantize_matrix(b, &cfg.quant_b, 0, 0),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_arith::qgemm;

    fn operands(n: usize, k: usize, m: usize) -> (Tensor, Tensor) {
        (
            Tensor::from_fn(vec![n, k], |i| ((i * 37 % 41) as f32 - 20.0) * 0.05),
            Tensor::from_fn(vec![k, m], |i| ((i * 43 % 47) as f32 - 23.0) * 0.04),
        )
    }

    #[test]
    fn bitwise_equal_to_emulation_fp32() {
        let (a, b) = operands(10, 20, 6);
        let acc = Accelerator::new(SaConfig::new(4, 2, 3).unwrap(), 311.0);
        let cfg = QGemmConfig::fp32();
        let (c, _) = acc.simulate_cycles(&a, &b, &cfg).unwrap();
        assert_eq!(c, qgemm(&a, &b, &cfg).unwrap());
    }

    #[test]
    fn bitwise_equal_to_emulation_stochastic() {
        // The headline property: FPGA simulation == emulation at the
        // bit level, *including* stochastic rounding, because both
        // draw randomness by logical coordinates.
        let (a, b) = operands(13, 29, 7);
        for (n, m, c) in [(2, 2, 2), (4, 4, 1), (8, 8, 3)] {
            let acc = Accelerator::new(SaConfig::new(n, m, c).unwrap(), 200.0);
            let cfg = QGemmConfig::fp8_fp12_sr().with_seed(77);
            let (got, _) = acc.simulate_cycles(&a, &b, &cfg).unwrap();
            let want = qgemm(&a, &b, &cfg).unwrap();
            assert_eq!(got, want, "config <{n},{m},{c}>");
        }
    }

    #[test]
    fn equal_across_core_counts() {
        let (a, b) = operands(33, 17, 9);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(5);
        let one = Accelerator::new(SaConfig::new(8, 4, 1).unwrap(), 197.7);
        let many = Accelerator::new(SaConfig::new(8, 4, 10).unwrap(), 197.7);
        let (r1, _) = one.simulate_cycles(&a, &b, &cfg).unwrap();
        let (r10, _) = many.simulate_cycles(&a, &b, &cfg).unwrap();
        assert_eq!(r1, r10, "core count changed results");
    }

    #[test]
    fn cycle_count_scales_with_work() {
        let acc = Accelerator::new(SaConfig::new(8, 8, 1).unwrap(), 196.2);
        let cfg = QGemmConfig::fp8_fp12_sr();
        let (a1, b1) = operands(64, 64, 64);
        let (a2, b2) = operands(64, 128, 64);
        let (_, l1) = acc.simulate_cycles(&a1, &b1, &cfg).unwrap();
        let (_, l2) = acc.simulate_cycles(&a2, &b2, &cfg).unwrap();
        assert!(l2.core_cycles > l1.core_cycles);
        assert!(l2.core_cycles < 3 * l1.core_cycles);
    }

    #[test]
    fn measured_exceeds_estimate() {
        // The cycle model plus PCIe cap must land above the analytic
        // estimate (Fig. 7's consistent gap).
        use crate::perf::estimate_gemm;
        let (a, b) = operands(128, 96, 80);
        let cfg = QGemmConfig::fp8_fp12_sr();
        let sa = SaConfig::new(8, 8, 4).unwrap();
        let acc = Accelerator::new(sa, 298.0);
        let (_, measured) = acc.simulate_cycles(&a, &b, &cfg).unwrap();
        let est = estimate_gemm(GemmShape::new(128, 96, 80), sa, 298.0, 8, 32);
        assert!(
            measured.total_s > est.total_s,
            "measured {} <= estimated {}",
            measured.total_s,
            est.total_s
        );
        // ... but within 2x: the model is supposed to be accurate.
        assert!(measured.total_s < est.total_s * 2.0);
    }

    #[test]
    fn more_cores_reduce_measured_core_time() {
        let (a, b) = operands(512, 128, 128);
        let cfg = QGemmConfig::fp8_fp12_sr();
        let l1 = Accelerator::new(SaConfig::new(8, 8, 1).unwrap(), 200.0)
            .simulate_cycles(&a, &b, &cfg)
            .unwrap()
            .1;
        let l8 = Accelerator::new(SaConfig::new(8, 8, 8).unwrap(), 200.0)
            .simulate_cycles(&a, &b, &cfg)
            .unwrap()
            .1;
        assert!(l8.core_s < l1.core_s / 4.0);
    }

    #[test]
    fn execute_matches_oracle_bits_and_latency() {
        let (a, b) = operands(37, 29, 21);
        let configs = [
            QGemmConfig::fp32(),
            QGemmConfig::fp8_fp12_sr().with_seed(11),
            QGemmConfig::for_mac(mpt_arith::MacConfig::fxp4_4(
                mpt_formats::Rounding::stochastic(),
            ))
            .with_seed(12),
        ];
        for cfg in configs {
            for (n, m, c) in [(2, 2, 2), (8, 4, 3)] {
                let acc = Accelerator::new(SaConfig::new(n, m, c).unwrap(), 250.0);
                let oracle = acc.simulate_cycles(&a, &b, &cfg).unwrap();
                for threads in [1, 3] {
                    let aq = Arc::new(quantize_matrix(&a, &cfg.quant_a, 0, 0));
                    let bq = quantize_matrix(&b, &cfg.quant_b, 0, 0);
                    let fast = acc.execute_quantized(aq, &bq, &cfg, threads).unwrap();
                    assert_eq!(fast, oracle, "{cfg} on <{n},{m},{c}> x{threads}");
                }
                assert_eq!(acc.execute(&a, &b, &cfg).unwrap(), oracle, "{cfg}");
            }
        }
    }

    #[test]
    fn timing_only_matches_functional_cycle_count() {
        let cfg = QGemmConfig::fp8_fp12_sr();
        for (n, m, c) in [(2, 2, 2), (8, 4, 3), (8, 8, 1)] {
            let acc = Accelerator::new(SaConfig::new(n, m, c).unwrap(), 250.0);
            for shape in [(13, 29, 7), (64, 64, 64), (1, 1, 1), (100, 37, 65)] {
                let (a, b) = operands(shape.0, shape.1, shape.2);
                let (_, measured) = acc.simulate_cycles(&a, &b, &cfg).unwrap();
                let quick = acc.timing_only(GemmShape::new(shape.0, shape.1, shape.2), 8);
                assert_eq!(
                    measured.core_cycles, quick.core_cycles,
                    "<{n},{m},{c}> shape {shape:?}"
                );
            }
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let acc = Accelerator::new(SaConfig::new(2, 2, 1).unwrap(), 320.1);
        let a = Tensor::zeros(vec![3, 4]);
        let b = Tensor::zeros(vec![5, 2]);
        assert!(acc.execute(&a, &b, &QGemmConfig::fp32()).is_err());
        assert!(acc.simulate_cycles(&a, &b, &QGemmConfig::fp32()).is_err());
    }
}
