//! The benchmark's own checks, on one held-out seed that no
//! measurement uses. Run in release mode (the simulator is slow
//! unoptimised):
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::run::{run, Args, Outcome};
use perfbench::trace::RepTrace;
use perfbench::workload::{run_rep, Setup, Workload};

const HELD_OUT_SEED: u64 = 8_675_309;

fn run_for(workload: Workload, seconds: f64, trace: bool) -> Outcome {
    let out = run(Args {
        workload,
        seed: HELD_OUT_SEED,
        seconds,
        trace,
    });
    assert!(
        out.correct,
        "{} failed its checks: {:#?}",
        workload.name(),
        out.notes
    );
    assert_eq!(out.failed, 0, "{:#?}", out.notes);
    out
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn reported(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn runs_report_exactly_the_declared_metrics() {
    let plain = run_for(Workload::CpuFp8Sr, 0.5, false);
    assert_eq!(reported(&plain), declared("end_to_end"));
    assert!(
        plain.metrics.iter().all(|m| m.value > 0.0),
        "{:?}",
        plain.metrics
    );
    let traced = run_for(Workload::CpuFp8Sr, 0.5, true);
    assert_eq!(reported(&traced), declared("per_layer"));
}

#[test]
fn fixed_point_training_matches_its_cpu_replay() {
    run_for(Workload::CpuFxp44, 0.5, false);
}

#[test]
fn serve_mixed_answers_every_request_bit_exactly() {
    // Long enough for the generator to send its 100 requests.
    let out = run_for(Workload::ServeMixed, 12.0, false);
    assert!(out.attempted > 100, "{:#?}", out.notes);
}

/// The simulated side of a traced repetition: everything but host
/// time.
fn simulated(t: &RepTrace) -> Vec<u64> {
    let mut v = vec![
        t.unattributed,
        t.estimated_s.to_bits(),
        t.simulated_s.to_bits(),
    ];
    for s in &t.steps {
        v.extend([s.calls, s.macs, s.modeled_s.to_bits()]);
    }
    for p in t.pairs.iter().flatten() {
        v.extend([p.calls, p.modeled_s.to_bits()]);
    }
    let f = t.fpga.expect("fpga counters");
    v.extend([
        f.cache.hits,
        f.cache.misses,
        f.cache.bytes_packed,
        f.gemms as u64,
        f.elapsed_s.to_bits(),
        f.pipelined_s.to_bits(),
    ]);
    v
}

#[test]
fn simulated_statistics_repeat_exactly_across_runs() {
    let reps: Vec<_> = (0..2)
        .map(|_| {
            let setup = Setup::new(Workload::FpgaFp8Sr, HELD_OUT_SEED);
            let parts = setup.parts();
            let rep = run_rep(&setup, parts, true);
            assert_eq!(
                rep.digest,
                setup.replay_digest(),
                "FPGA result equals emulation"
            );
            rep
        })
        .collect();
    let (a, b) = (&reps[0], &reps[1]);
    assert_eq!(a.sim, b.sim);
    let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
    assert_eq!(simulated(ta), simulated(tb));
    assert!(ta.steps.iter().all(|s| s.calls == 15 && s.modeled_s > 0.0));
}

#[test]
fn simulated_metrics_do_not_depend_on_the_window() {
    let modeled = |out: &Outcome| -> Vec<(String, u64)> {
        out.metrics
            .iter()
            .filter(|m| {
                m.unit.starts_with("device_")
                    || matches!(
                        m.name.as_str(),
                        "gemm.calls_per_step"
                            | "fpga.est_vs_sim_pct"
                            | "fpga.cache_hit_ratio"
                            | "fpga.packed_bytes_per_step"
                            | "fpga.modeled_overlap_ratio"
                    )
            })
            .map(|m| (m.name.clone(), m.value.to_bits()))
            .collect()
    };
    // One detailed repetition against at least two.
    let short = run_for(Workload::FpgaFp8Sr, 0.5, true);
    let long = run_for(Workload::FpgaFp8Sr, 36.0, true);
    assert!(long.attempted >= 4, "{:#?}", long.notes);
    assert_eq!(modeled(&short), modeled(&long));
    assert!(modeled(&short)
        .iter()
        .all(|(_, bits)| f64::from_bits(*bits) >= 0.0));
}
