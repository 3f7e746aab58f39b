//! Differential GEMM conformance: `qgemm_reference` ≡ fast kernels ≡
//! `qgemm_parallel` (1/2/4/8 threads) ≡ the FPGA cycle oracle ≡
//! `fpga::sim::execute`, bit-for-bit, over the full format × rounding
//! × shape grid.

use conformance::{
    check_all_paths, degenerate_shapes, format_rounding_grid, standard_shapes, Corpus, DiffCase,
};
use mpt_arith::{MacConfig, QGemmConfig};
use mpt_formats::{FloatFormat, Quantizer, Rounding};
use proptest::prelude::*;

/// The headline grid: 20 format×rounding configurations, each run
/// over every standard shape (100 differential cases).
#[test]
fn full_grid_all_paths_bitwise_equal() {
    let grid = format_rounding_grid();
    assert!(grid.len() >= 20, "grid shrank below the acceptance floor");
    let mut cases = 0usize;
    for (ci, (name, cfg)) in grid.iter().enumerate() {
        for (si, &(n, k, m)) in standard_shapes().iter().enumerate() {
            let case = DiffCase {
                name: format!("{name} [{n}x{k}x{m}]"),
                cfg: *cfg,
                n,
                k,
                m,
                seed: (ci * 100 + si) as u64,
            };
            case.run().unwrap_or_else(|e| panic!("{e}"));
            cases += 1;
        }
    }
    assert!(cases >= 20, "only {cases} differential cases ran");
}

/// Degenerate shapes — zero-sized outputs/reductions, `K = 1`, 1×1×1 —
/// must agree on every path too (the padding logic of the systolic
/// simulator and the tile-grid clamping of the parallel path both
/// have edge cases exactly here).
#[test]
fn degenerate_shapes_all_paths_bitwise_equal() {
    let grid = format_rounding_grid();
    // RN, SR and NR of each family cover all kernel dispatch classes.
    let picked: Vec<&(String, QGemmConfig)> = grid
        .iter()
        .filter(|(n, _)| n.ends_with("RN") || n.ends_with("SR") || n.ends_with("NR"))
        .collect();
    assert_eq!(picked.len(), 12);
    for (ci, (name, cfg)) in picked.iter().enumerate() {
        for (si, &(n, k, m)) in degenerate_shapes().iter().enumerate() {
            let case = DiffCase {
                name: format!("{name} [{n}x{k}x{m}]"),
                cfg: *cfg,
                n,
                k,
                m,
                seed: 7000 + (ci * 100 + si) as u64,
            };
            case.run().unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// The identity (FP32 baseline) pipeline: all paths must equal the
/// plain matmul fast path, including on operands containing values a
/// scalar E8M23 quantization would saturate.
#[test]
fn fp32_identity_pipeline_agrees_on_all_paths() {
    for &(n, k, m) in standard_shapes() {
        let case = DiffCase {
            name: format!("fp32-identity [{n}x{k}x{m}]"),
            cfg: QGemmConfig::fp32(),
            n,
            k,
            m,
            seed: 31_000 + (n * 100 + k * 10 + m) as u64,
        };
        case.run().unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Pipelines that are identity in one half only. Non-identity input
/// quantizers in front of an identity MAC must still step through
/// `mac_step`, not the plain FP32 matmul: the FP32 MAC saturates a
/// product or sum past `f32::MAX`, where matmul overflows to infinity,
/// so operands scaled by 2^63 tell the two steppings apart. The
/// reverse — identity inputs into a quantizing MAC — must quantize in
/// the MAC only.
#[test]
fn half_identity_pipelines_agree_on_all_paths() {
    let quantizing_inputs = QGemmConfig::new(
        Quantizer::float(FloatFormat::bf16(), Rounding::Nearest),
        Quantizer::float(FloatFormat::bf16(), Rounding::stochastic()),
        MacConfig::fp32(),
    )
    .with_seed(41);
    let identity_inputs = QGemmConfig::new(
        Quantizer::identity(),
        Quantizer::identity(),
        MacConfig::fp8_fp12_sr(),
    )
    .with_seed(42);
    let huge = 2f32.powi(63);
    for &(n, k, m) in standard_shapes() {
        let mut corpus = Corpus::new(41_000 + (n * 100 + k * 10 + m) as u64);
        let a = corpus.matrix(n, k, -2.0, 2.0);
        let b = corpus.matrix(k, m, -2.0, 2.0);
        let (a_big, b_big) = (a.scale(huge), b.scale(huge));
        for (label, cfg, a, b) in [
            ("bf16-inputs x fp32-mac", quantizing_inputs, &a_big, &b_big),
            ("identity-inputs x fp8-fp12-sr-mac", identity_inputs, &a, &b),
        ] {
            assert!(!cfg.is_identity());
            check_all_paths(&format!("{label} [{n}x{k}x{m}]"), a, b, &cfg)
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// The paper's headline FP8×FP12-SR configuration on non-tile-aligned
/// shapes with several stochastic seeds.
#[test]
fn headline_sr_config_non_aligned_shapes() {
    for seed in [1u64, 99, 12345] {
        for &(n, k, m) in &[(13usize, 29usize, 7usize), (33, 17, 9), (7, 64, 3)] {
            let case = DiffCase {
                name: format!("fp8_fp12_sr(seed={seed}) [{n}x{k}x{m}]"),
                cfg: QGemmConfig::fp8_fp12_sr().with_seed(seed),
                n,
                k,
                m,
                seed: seed ^ 0xabcd,
            };
            case.run().unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized shapes and seeds under the headline configuration:
    /// shrinking (satellite of this PR) walks failing shapes down to
    /// a minimal reproducer.
    #[test]
    fn random_shapes_agree(
        (n, k, m) in (0usize..10, 0usize..12, 0usize..10),
        seed in 0u64..1000,
    ) {
        let mut corpus = Corpus::new(seed ^ 0x51ab);
        let a = corpus.matrix(n, k, -2.0, 2.0);
        let b = corpus.matrix(k, m, -2.0, 2.0);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(seed);
        let outcome = check_all_paths(&format!("random [{n}x{k}x{m}] seed={seed}"), &a, &b, &cfg);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
