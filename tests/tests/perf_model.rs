//! Cross-crate validation of the performance model and matching
//! algorithm against the paper's reported behaviour (Tables III/IV,
//! Fig. 7).

use mpt_arith::QGemmConfig;
use mpt_core::matching::{
    estimate_iteration, measure_iteration, select_accelerator, sweep_core_counts,
};
use mpt_fpga::{Accelerator, SaConfig, SynthesisDb};
use mpt_models::ModelDesc;
use mpt_tensor::Tensor;

const IN_BITS: u32 = 8;

/// Table IV row C=1 (378.3 MHz): the paper's estimated latencies.
/// Our model must land within 2x on every benchmark and preserve the
/// ordering (shape reproduction, not absolute numbers).
#[test]
fn table_iv_c1_magnitudes() {
    let db = SynthesisDb::u55();
    let cfg = SaConfig::new(8, 8, 1).expect("valid");
    let f = db.frequency(8, 8, 1).expect("synthesized");
    let paper = [
        (ModelDesc::lenet5(64), 0.0081),
        (ModelDesc::vgg16(128), 5.42),
        (ModelDesc::resnet20(128), 1.12),
        (ModelDesc::resnet50(16), 8.35),
        (ModelDesc::nanogpt(64), 25.17),
    ];
    for (model, expect) in paper {
        let est = estimate_iteration(&model.training_gemms(), cfg, f, IN_BITS);
        assert!(
            est > expect / 2.0 && est < expect * 2.0,
            "{}: estimated {est:.4} vs paper {expect}",
            model.name()
        );
    }
}

#[test]
fn table_iv_latency_ordering_per_row() {
    // Within every core count: LeNet5 << ResNet20 < VGG16 < ResNet50
    // < Nano-GPT (every row of Table IV).
    let db = SynthesisDb::u55();
    let models = [
        ModelDesc::lenet5(64),
        ModelDesc::resnet20(128),
        ModelDesc::vgg16(128),
        ModelDesc::resnet50(16),
        ModelDesc::nanogpt(64),
    ];
    for c in [1usize, 4, 7, 10] {
        let cfg = SaConfig::new(8, 8, c).expect("valid");
        let f = db.frequency(8, 8, c).expect("in range");
        let lats: Vec<f64> = models
            .iter()
            .map(|m| estimate_iteration(&m.training_gemms(), cfg, f, IN_BITS))
            .collect();
        for w in lats.windows(2) {
            assert!(w[0] < w[1], "ordering violated at C={c}: {lats:?}");
        }
    }
}

#[test]
fn measured_always_above_estimated_but_close() {
    let db = SynthesisDb::u55();
    for model in ModelDesc::all_benchmarks() {
        let workload = model.training_gemms();
        let r = select_accelerator(&workload, &db, IN_BITS);
        assert!(
            r.measured_s > r.estimated_s,
            "{}: measured {} <= estimated {}",
            model.name(),
            r.measured_s,
            r.estimated_s
        );
        assert!(
            r.measured_s < r.estimated_s * 1.6,
            "{}: gap too large ({} vs {})",
            model.name(),
            r.measured_s,
            r.estimated_s
        );
    }
}

#[test]
fn model_identifies_measured_optimum() {
    // The paper: "The model successfully identifies all optimal
    // configurations" — the estimated argmin must equal the measured
    // argmin for every benchmark.
    let db = SynthesisDb::u55();
    for model in ModelDesc::all_benchmarks() {
        let workload = model.training_gemms();
        let chosen = select_accelerator(&workload, &db, IN_BITS);
        let mut best_measured = (f64::INFINITY, chosen.config);
        for cfg in db.feasible_configs() {
            let f = db.frequency(cfg.n(), cfg.m(), cfg.c()).expect("feasible");
            let m = measure_iteration(&workload, cfg, f, IN_BITS);
            if m < best_measured.0 {
                best_measured = (m, cfg);
            }
        }
        assert_eq!(
            chosen.config,
            best_measured.1,
            "{}: estimator chose {} but measured optimum is {}",
            model.name(),
            chosen.config,
            best_measured.1
        );
    }
}

#[test]
fn large_models_prefer_large_arrays() {
    // Compute-bound workloads (ResNet50, GPT) should select large
    // arrays; the interior optimum of Table IV shows small models
    // don't always want maximum C.
    let db = SynthesisDb::u55();
    let big = select_accelerator(&ModelDesc::resnet50(16).training_gemms(), &db, IN_BITS);
    assert!(
        big.config.macs_per_core() * big.config.c() >= 512,
        "ResNet50 chose a small accelerator: {}",
        big.config
    );
    let sweep = sweep_core_counts(&ModelDesc::lenet5(64).training_gemms(), &db, 8, 8, IN_BITS);
    let best_c = sweep
        .iter()
        .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"))
        .expect("non-empty")
        .0;
    assert!(
        best_c < 10,
        "LeNet5 should have an interior optimum, got C={best_c}"
    );
}

#[test]
fn vgg_approaches_paper_optimum_at_full_cores() {
    // Table IV VGG16 column: C=10 is the best 8x8 point (1.10 s).
    let db = SynthesisDb::u55();
    let sweep = sweep_core_counts(&ModelDesc::vgg16(128).training_gemms(), &db, 8, 8, IN_BITS);
    let best = sweep
        .iter()
        .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"))
        .expect("non-empty");
    assert!(best.0 >= 7, "VGG16 8x8 optimum at C={} (paper: 10)", best.0);
    let c10 = sweep.last().expect("10 entries");
    assert!(
        (c10.2 - 1.10).abs() < 0.5,
        "VGG16 at C=10: {:.3} s vs paper 1.10 s",
        c10.2
    );
}

/// Every launch reports the closed-form latency, so it must equal the
/// cycle-level oracle's count on each of LeNet-5's 15 training GEMMs
/// (batch 2 keeps the oracle cheap), with the same bits too.
#[test]
fn closed_form_matches_cycle_oracle_on_lenet_training_gemms() {
    let acc = Accelerator::new(SaConfig::new(8, 8, 4).expect("valid"), 298.0);
    let cfg = QGemmConfig::fp8_fp12_sr().with_seed(5);
    let shapes = ModelDesc::lenet5(2).training_gemms();
    assert_eq!(shapes.len(), 15);
    for s in shapes {
        let a = Tensor::from_fn(vec![s.n, s.k], |i| (i % 7) as f32 * 0.25 - 0.75);
        let b = Tensor::from_fn(vec![s.k, s.m], |i| (i % 5) as f32 * 0.3 - 0.6);
        let (bits, oracle) = acc.simulate_cycles(&a, &b, &cfg).expect("oracle");
        assert_eq!(
            oracle.core_cycles,
            acc.timing_only(s, IN_BITS).core_cycles,
            "{s:?}"
        );
        assert_eq!(
            acc.execute(&a, &b, &cfg).expect("fast"),
            (bits, oracle),
            "{s:?}"
        );
    }
}
