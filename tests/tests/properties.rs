//! Workspace-level property tests: random problems through the whole
//! emulation-vs-accelerator pipeline.

use mpt_arith::GemmShape;
use mpt_arith::{qgemm, MacConfig, QGemmConfig};
use mpt_formats::Rounding;
use mpt_fpga::{best_mapping, Accelerator, PaddedGemm, SaConfig};
use mpt_tensor::Tensor;
use proptest::prelude::*;

fn sa_configs() -> impl Strategy<Value = SaConfig> {
    prop_oneof![
        Just(SaConfig::new(1, 1, 3).expect("valid")),
        Just(SaConfig::new(2, 2, 2).expect("valid")),
        Just(SaConfig::new(4, 2, 5).expect("valid")),
        Just(SaConfig::new(8, 8, 1).expect("valid")),
        Just(SaConfig::new(8, 4, 10).expect("valid")),
        Just(SaConfig::new(16, 8, 3).expect("valid")),
    ]
}

fn mac_configs() -> impl Strategy<Value = MacConfig> {
    prop_oneof![
        Just(MacConfig::fp32()),
        Just(MacConfig::fp8_fp12(Rounding::Nearest)),
        Just(MacConfig::fp8_fp12(Rounding::stochastic())),
        Just(MacConfig::fp8_fp12(Rounding::TowardZero)),
        Just(MacConfig::fp8_fp12(Rounding::ToOdd)),
        Just(MacConfig::fxp4_4(Rounding::stochastic())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FPGA simulation is bit-identical to emulation for random
    /// shapes, configurations, formats and seeds.
    #[test]
    fn fpga_emulation_bit_equality(
        n in 1usize..24,
        k in 1usize..40,
        m in 1usize..20,
        sa in sa_configs(),
        mac in mac_configs(),
        seed in 0u64..500,
    ) {
        let a = Tensor::from_fn(vec![n, k], |i| {
            (((i as u64 + seed) * 2654435761 % 61) as f32 - 30.0) * 0.03
        });
        let b = Tensor::from_fn(vec![k, m], |i| {
            (((i as u64 + seed) * 40503 % 53) as f32 - 26.0) * 0.025
        });
        let cfg = QGemmConfig::for_mac(mac).with_seed(seed);
        let want = qgemm(&a, &b, &cfg).expect("emulation");
        let acc = Accelerator::new(sa, 250.0);
        let (got, lat) = acc.simulate_cycles(&a, &b, &cfg).expect("fpga");
        prop_assert_eq!(got, want);
        prop_assert!(lat.total_s > 0.0);
    }

    /// The closed-form timing matches the functional simulator's
    /// cycle counting for random shapes.
    #[test]
    fn timing_closed_form_matches_simulation(
        n in 1usize..24,
        k in 1usize..40,
        m in 1usize..20,
        sa in sa_configs(),
    ) {
        let a = Tensor::zeros(vec![n, k]);
        let b = Tensor::zeros(vec![k, m]);
        let cfg = QGemmConfig::fp8_fp12_sr();
        let acc = Accelerator::new(sa, 250.0);
        let (_, measured) = acc.simulate_cycles(&a, &b, &cfg).expect("fpga");
        let quick = acc.timing_only(GemmShape::new(n, k, m), 8);
        prop_assert_eq!(measured.core_cycles, quick.core_cycles);
    }

    /// Padding invariants hold for random shapes: every padded
    /// dimension is tile-aligned and at least the logical size.
    #[test]
    fn padding_invariants(
        n in 1usize..3000,
        k in 1usize..3000,
        m in 1usize..3000,
        sa in sa_configs(),
        bits in prop_oneof![Just(8u32), Just(12), Just(16), Just(32)],
    ) {
        let p = PaddedGemm::new(GemmShape::new(n, k, m), sa, bits);
        let t_mem = SaConfig::t_mem(bits);
        prop_assert!(p.n_core * sa.c() >= n);
        prop_assert_eq!(p.k_mem % t_mem, 0);
        prop_assert_eq!(p.m_mem % t_mem, 0);
        prop_assert!(p.k_mem >= k && p.m_mem >= m);
        prop_assert_eq!(p.n_comp % sa.t_pe(), 0);
        prop_assert_eq!(p.m_comp % sa.t_mac(), 0);
        prop_assert!(p.n_comp >= p.n_core && p.m_comp >= p.m_mem);
        prop_assert!(p.inflation(sa.c()) >= 1.0 - 1e-12);
    }

    /// The mapping optimizer never does worse than the canonical
    /// mapping, for random shapes and configurations.
    #[test]
    fn mapping_never_worse_than_canonical(
        n in 1usize..5000,
        k in 1usize..2000,
        m in 1usize..5000,
        sa in sa_configs(),
    ) {
        use mpt_fpga::perf::estimate_gemm;
        let shape = GemmShape::new(n, k, m);
        let best = best_mapping(shape, sa, 250.0, 8, 8);
        let canonical = estimate_gemm(shape, sa, 250.0, 8, 8);
        prop_assert!(best.latency.total_s <= canonical.total_s + 1e-15);
    }

    /// Mapping preserves the logical problem: the effective shape has
    /// the same MAC count as the original.
    #[test]
    fn mapping_preserves_macs(
        n in 1usize..5000,
        k in 1usize..2000,
        m in 1usize..5000,
        sa in sa_configs(),
    ) {
        let shape = GemmShape::new(n, k, m);
        let best = best_mapping(shape, sa, 250.0, 8, 8);
        prop_assert_eq!(best.effective_shape().macs(), shape.macs());
    }
}
