//! Counters are the same whatever backend produced the bits: one cold
//! FP8×FP12-SR launch through the pipelined FPGA backend tallies
//! exactly the quantizer counters `CpuBackend` tallies on the same
//! operands (operand quantizers, `mul:*` and `acc:*` alike).
//!
//! One `#[test]` only: the telemetry registry is process-global.

use mpt_arith::{CpuBackend, GemmBackend, QGemmConfig};
use mpt_fpga::{Accelerator, FpgaBackend, SaConfig};
use mpt_telemetry::QuantSnapshot;
use mpt_tensor::Tensor;

fn run_and_snapshot(backend: &dyn GemmBackend, a: &Tensor, b: &Tensor) -> Vec<QuantSnapshot> {
    mpt_telemetry::reset();
    backend
        .gemm(a, b, &QGemmConfig::fp8_fp12_sr().with_seed(9))
        .expect("conforming operands");
    mpt_telemetry::quant_snapshots()
}

#[test]
fn cold_pipelined_launch_tallies_like_cpu() {
    let a = Tensor::from_fn(vec![37, 45], |i| ((i * 37 % 101) as f32 - 50.0) * 0.013);
    let b = Tensor::from_fn(vec![45, 19], |i| ((i * 53 % 89) as f32 - 44.0) * 0.011);
    let fpga = FpgaBackend::new(Accelerator::new(
        SaConfig::new(8, 8, 4).expect("valid"),
        298.0,
    ))
    .pipelined();

    mpt_telemetry::enable();
    let cpu = run_and_snapshot(&CpuBackend::new(), &a, &b);
    let fpga = run_and_snapshot(&fpga, &a, &b);
    mpt_telemetry::disable();

    let acc = cpu
        .iter()
        .find(|s| s.label.starts_with("acc:"))
        .expect("CPU run tallied its accumulator");
    assert!(
        acc.sr_up > 0 && acc.sr_down > 0,
        "the SR accumulator must round both ways: {acc:?}"
    );
    assert_eq!(fpga, cpu, "FPGA quantizer counters differ from CPU");
}
