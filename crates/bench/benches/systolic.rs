//! Accelerator model cost: the launch path (`execute`, arith kernels
//! plus closed-form timing) and the cycle-level oracle it must match,
//! against the emulation kernel, and the closed-form timing alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpt_arith::{qgemm, GemmShape, QGemmConfig};
use mpt_fpga::{Accelerator, SaConfig};
use mpt_tensor::Tensor;

fn bench_simulation(c: &mut Criterion) {
    let a = Tensor::from_fn(vec![48, 64], |i| ((i * 37 % 101) as f32 - 50.0) * 0.01);
    let b = Tensor::from_fn(vec![64, 32], |i| ((i * 43 % 97) as f32 - 48.0) * 0.012);
    let cfg = QGemmConfig::fp8_fp12_sr();
    let mut group = c.benchmark_group("systolic_48x64x32");

    group.bench_function("emulation_kernel", |bch| {
        bch.iter(|| qgemm(&a, &b, &cfg).expect("conforming"))
    });
    for (n, m, cores) in [(4, 4, 2), (8, 8, 2), (8, 8, 10)] {
        let acc = Accelerator::new(SaConfig::new(n, m, cores).expect("valid"), 250.0);
        group.bench_with_input(
            BenchmarkId::new("execute", format!("{n}x{m}x{cores}")),
            &acc,
            |bch, acc| bch.iter(|| acc.execute(&a, &b, &cfg).expect("conforming")),
        );
        group.bench_with_input(
            BenchmarkId::new("cycle_oracle", format!("{n}x{m}x{cores}")),
            &acc,
            |bch, acc| bch.iter(|| acc.simulate_cycles(&a, &b, &cfg).expect("conforming")),
        );
    }
    let acc = Accelerator::new(SaConfig::new(8, 8, 4).expect("valid"), 250.0);
    group.bench_function("timing_only_closed_form", |bch| {
        bch.iter(|| acc.timing_only(GemmShape::new(48, 64, 32), 8))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_simulation
}
criterion_main!(benches);
