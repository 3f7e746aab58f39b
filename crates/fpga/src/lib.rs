//! # mpt-fpga — the MPTorch-FPGA accelerator model
//!
//! A software model of the paper's FPGA GEMM accelerator (Section IV):
//! `C` one-dimensional systolic-array cores (de Fine Licht et al.
//! architecture) of `N` processing elements × `M` MAC units each, fed
//! through 512-bit HBM ports, driven over PCIe.
//!
//! Three layers of fidelity:
//!
//! * **Functional** ([`sim::Accelerator::execute`]) — takes its bits
//!   from the tiered [`mpt_arith`] kernels on host-quantized operands,
//!   so results are bitwise identical to `mpt_arith::qgemm` (the
//!   paper's bit-level accuracy claim). The cycle-level oracle
//!   [`sim::Accelerator::simulate_cycles`] runs the tiled, partitioned
//!   systolic schedule through the *same* bit-accurate MAC as CPU
//!   emulation ([`mpt_arith::mac_step`]); tests assert it agrees.
//! * **Analytic** ([`perf`]) — the paper's performance model: the
//!   three padding stages, `L_MAC`, `L_write`, `L_data`, `L_total`.
//! * **"Measured"** ([`sim::Accelerator::timing_only`]) — the closed
//!   form of the oracle's cycle count plus the non-idealities the
//!   paper reports (PCIe capped at 80% of peak, per-tile pipeline
//!   fill), so measured latency lands slightly above the estimate
//!   with the optimum preserved (Fig. 7).
//!
//! The synthesis results of Table III/IV are embedded as the static
//! configuration database ([`synthesis::SynthesisDb`]) exactly as the
//! paper pre-generates static bitstream configurations offline.
//!
//! ## Example
//!
//! ```
//! use mpt_fpga::{SaConfig, perf::estimate_gemm};
//! use mpt_arith::GemmShape;
//!
//! let cfg = SaConfig::new(8, 8, 4)?;
//! let lat = estimate_gemm(GemmShape::new(128, 784, 100), cfg, 298.0, 8, 8);
//! assert!(lat.total_s > 0.0);
//! # Ok::<(), mpt_fpga::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod config;
pub mod hbm;
pub mod mapping;
pub mod padding;
pub mod perf;
pub mod pipeline;
pub mod resilient;
pub mod sim;
pub mod synthesis;

pub use backend::FpgaBackend;
pub use cache::{CacheStats, OperandCache, DEFAULT_CACHE_BUDGET};
pub use config::{ConfigError, SaConfig, HBM_PORT_BITS, MAX_CORES, PCIE_GBPS};
pub use hbm::{HbmError, HbmImage};
pub use mapping::{best_mapping, GemmMapping, Partition};
pub use padding::PaddedGemm;
pub use perf::{
    estimate_gemm, estimate_gemm_stages, estimate_workload, estimate_workload_pipelined, Latency,
    StageLatency,
};
pub use pipeline::{PipelineClock, PipelinedExecutor, StageTimes};
pub use resilient::{emit_fallback_event, emit_fault_event, resilient_execute};
pub use sim::{Accelerator, MeasuredLatency};
pub use synthesis::{SynthPoint, SynthesisDb};
