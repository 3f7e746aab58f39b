//! One benchmark run: set-up, the timed repetitions, the correctness
//! checks, and the metrics of either the end-to-end or the traced run.

use crate::serve::{generate, InferReport, Load};
use crate::stats::{median, peak_rss_mb, percentile, Metric};
use crate::trace::{ShapeTable, LAYERS, PASSES};
use crate::workload::{run_rep, Parts, RepOutcome, Setup, Workload};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;
/// Offered inference load of `serve-mixed`.
pub const LOAD: Load = Load {
    rate_hz: 12.0,
    limit: Duration::from_millis(1000),
};
/// Least share of step time the traced phases must account for.
pub const COVERAGE_MIN: f64 = 0.97;

/// Command-line arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted: training repetitions plus inference
    /// requests.
    pub attempted: u64,
    /// Operations that failed: digest mismatches plus rejected,
    /// expired, failed or corrupted requests.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable findings (check results, shape mismatches).
    pub notes: Vec<String>,
}

struct Timed {
    reps: Vec<(RepOutcome, bool)>,
    infer: Option<InferReport>,
    serve_delta: [u64; 6],
}

fn serve_counters(setup: &Setup) -> [u64; 6] {
    let Some(svc) = &setup.service else {
        return [0; 6];
    };
    let h = svc.handle();
    let s = h.stats();
    let ld = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    [
        ld(&s.completed),
        ld(&s.rejected),
        ld(&s.degraded),
        ld(&s.deadline_exceeded),
        ld(&s.batches),
        ld(&s.coalesced),
    ]
}

/// Runs repetitions until the window is spent: at least one (two when
/// traced, one plain and one detailed), and no new one that would end
/// more than half a repetition past the window.
fn timed_reps(setup: &Setup, first: Parts, args: Args) -> Vec<(RepOutcome, bool)> {
    let start = Instant::now();
    let min_reps = if args.trace { 2 } else { 1 };
    let mut reps = Vec::new();
    let mut first = Some(first);
    loop {
        let detailed = args.trace && reps.len() % 2 == 1;
        let parts = first.take().unwrap_or_else(|| setup.parts());
        reps.push((run_rep(setup, parts, detailed), detailed));
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = elapsed / reps.len() as f64;
        if reps.len() >= min_reps && elapsed + per_rep / 2.0 > args.seconds {
            return reps;
        }
    }
}

fn timed(setup: &Setup, first: Parts, args: Args) -> Timed {
    let before = serve_counters(setup);
    let (reps, infer) = match setup.service.as_ref().map(|s| s.handle()) {
        None => (timed_reps(setup, first, args), None),
        Some(handle) => {
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                let gen = s.spawn(|| generate(&handle, &setup.templates, LOAD, &stop));
                let reps = timed_reps(setup, first, args);
                stop.store(true, Ordering::Release);
                (reps, Some(gen.join().expect("generator thread")))
            })
        }
    };
    let after = serve_counters(setup);
    let mut serve_delta = [0; 6];
    for i in 0..6 {
        serve_delta[i] = after[i] - before[i];
    }
    Timed {
        reps,
        infer,
        serve_delta,
    }
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs the benchmark once.
pub fn run(args: Args) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up (and stop its service) first, so
        // every timed set-up starts from the same state.
        drop(built.take());
        let t = Instant::now();
        let setup = Setup::new(args.workload, args.seed);
        let first = setup.parts();
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((setup, first));
    }
    let (setup, first) = built.expect("at least one set-up");
    let t = timed(&setup, first, args);
    let rss = peak_rss_mb();
    let reference = setup.replay_digest();

    let mut notes = Vec::new();
    let mut correct = true;
    let mut check = |ok: bool, what: String, notes: &mut Vec<String>| {
        notes.push(format!(
            "check {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
        correct &= ok;
    };

    let bad_reps = t.reps.iter().filter(|(r, _)| r.digest != reference).count() as u64;
    check(
        bad_reps == 0,
        format!(
            "{} of {} repetitions end on the CpuBackend replay digest {reference:016x}",
            t.reps.len() as u64 - bad_reps,
            t.reps.len()
        ),
        &mut notes,
    );
    let sims: Vec<_> = t.reps.iter().filter_map(|(r, _)| r.sim).collect();
    if !sims.is_empty() {
        check(
            sims.windows(2).all(|w| w[0] == w[1]),
            format!(
                "simulated counters identical across {} repetitions",
                sims.len()
            ),
            &mut notes,
        );
    }
    let fallbacks: u64 = t.reps.iter().map(|(r, _)| r.fallbacks).sum();
    check(
        fallbacks == 0,
        format!("{fallbacks} CPU fallbacks"),
        &mut notes,
    );
    check(
        !mpt_telemetry::enabled(),
        "program telemetry stayed off".into(),
        &mut notes,
    );
    let infer = t.infer.clone().unwrap_or_default();
    if t.infer.is_some() {
        check(
            infer.corrupt == 0,
            format!(
                "{} of {} inference answers bit-identical to qgemm",
                infer.latency_ms.len() as u64 - infer.corrupt,
                infer.latency_ms.len()
            ),
            &mut notes,
        );
        check(
            infer.sent >= 100,
            format!("{} inference requests (at least 100)", infer.sent),
            &mut notes,
        );
        notes.push(format!(
            "inference: {} sent, {} answered bit-exactly within {} ms, {} failed; latency over {} answers \
             p50 {:.1} p90 {:.1} p99 {:.1} max {:.1} ms",
            infer.sent,
            infer.good,
            LOAD.limit.as_millis(),
            infer.failed,
            infer.latency_ms.len(),
            percentile(&infer.latency_ms, 50.0),
            percentile(&infer.latency_ms, 90.0),
            percentile(&infer.latency_ms, 99.0),
            percentile(&infer.latency_ms, 100.0),
        ));
    }
    let steps: Vec<f64> = t
        .reps
        .iter()
        .flat_map(|(r, _)| r.step_ns.iter().map(|&ns| ns as f64 * 1e-6))
        .collect();
    // The highest percentile with at least ten steps beyond it.
    let tail = [99.0, 90.0]
        .into_iter()
        .find(|q| steps.len() as f64 * (1.0 - q / 100.0) >= 10.0)
        .map_or(String::new(), |q| {
            format!(", step p{q} {:.3} ms", percentile(&steps, q))
        });
    notes.push(format!(
        "samples: {} training steps in {} repetitions{tail}",
        steps.len(),
        t.reps.len()
    ));
    let attempted = t.reps.len() as u64 + infer.sent;
    let failed = bad_reps + infer.failed;

    let metrics = if args.trace {
        per_layer(
            &setup, &t, &infer, failed, attempted, &mut notes, &mut check,
        )
    } else {
        end_to_end(&setup, &t, &steps, median(&setup_s), rss)
    };
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Training and evaluation samples per second: the median over
/// repetitions, so a slow stretch of the host moves it less than a
/// mean would.
fn throughput(setup: &Setup, reps: &[&RepOutcome]) -> (f64, f64) {
    let plan = setup.plan;
    let train: Vec<f64> = reps
        .iter()
        .map(|r| {
            let ns: u64 = r.step_ns.iter().sum();
            ratio((plan.batch * plan.steps) as f64, ns as f64 * 1e-9)
        })
        .collect();
    let eval: Vec<f64> = reps
        .iter()
        .map(|r| ratio(plan.eval as f64, r.eval_ns as f64 * 1e-9))
        .collect();
    (median(&train), median(&eval))
}

fn end_to_end(setup: &Setup, t: &Timed, steps_ms: &[f64], setup_s: f64, rss: f64) -> Vec<Metric> {
    let reps: Vec<&RepOutcome> = t.reps.iter().map(|(r, _)| r).collect();
    let (train_sps, eval_sps) = throughput(setup, &reps);
    vec![
        metric("setup_s", setup_s, "s"),
        metric("train_samples_per_s", train_sps, "samples/s"),
        metric("step_p50_ms", median(steps_ms), "ms"),
        metric("eval_samples_per_s", eval_sps, "samples/s"),
        metric("peak_rss_mb", rss, "MiB"),
    ]
}

fn per_layer(
    setup: &Setup,
    t: &Timed,
    infer: &InferReport,
    failed: u64,
    attempted: u64,
    notes: &mut Vec<String>,
    check: &mut impl FnMut(bool, String, &mut Vec<String>),
) -> Vec<Metric> {
    let traced: Vec<_> = t
        .reps
        .iter()
        .filter(|(_, d)| *d)
        .filter_map(|(r, _)| r.trace.as_ref())
        .collect();
    let plain: Vec<&RepOutcome> = t.reps.iter().filter(|(_, d)| !*d).map(|(r, _)| r).collect();
    let detailed: Vec<&RepOutcome> = t.reps.iter().filter(|(_, d)| *d).map(|(r, _)| r).collect();
    let steps: Vec<_> = traced.iter().flat_map(|tr| &tr.steps).collect();
    let n_steps = steps.len() as f64;
    let sum = |f: &dyn Fn(&crate::trace::StepRec) -> f64| steps.iter().map(|s| f(s)).sum::<f64>();
    let per_step_ms =
        |f: &dyn Fn(&crate::trace::StepRec) -> u64| ratio(sum(&|s| f(s) as f64), n_steps) * 1e-6;
    let dur = sum(&|s| s.dur_ns as f64);
    let gemm_ns = sum(&|s| s.gemm_ns as f64);
    let macs = sum(&|s| s.macs as f64);
    let covered = sum(&|s| (s.fwd_ns + s.bwd_ns + s.optim_ns + s.boundary_ns) as f64);
    let coverage = ratio(covered, dur);
    check(
        (COVERAGE_MIN..=1.0).contains(&coverage),
        format!("trace coverage {coverage:.4} within [{COVERAGE_MIN}, 1]"),
        notes,
    );
    let unattributed: u64 = traced.iter().map(|tr| tr.unattributed).sum();
    check(
        unattributed == 0,
        format!("{unattributed} training GEMMs left unattributed"),
        notes,
    );
    let fpga_on = traced.iter().any(|tr| tr.fpga.is_some());
    // Simulated statistics must repeat exactly in every traced
    // repetition (each one starts from a fresh simulator).
    if fpga_on {
        let same = traced.windows(2).all(|w| {
            w[0].fpga == w[1].fpga
                && w[0].simulated_s.to_bits() == w[1].simulated_s.to_bits()
                && w[0]
                    .pairs
                    .iter()
                    .flatten()
                    .map(|p| p.modeled_s.to_bits())
                    .eq(w[1].pairs.iter().flatten().map(|p| p.modeled_s.to_bits()))
        });
        check(
            same,
            format!(
                "modeled per-layer times identical across {} traced repetitions",
                traced.len()
            ),
            notes,
        );
    }

    // Modeled figures come from the first detailed repetition alone
    // (every one is checked identical above), so they do not depend on
    // how many repetitions fit the window.
    let first = traced.first().copied().cloned().unwrap_or_default();
    let rep_steps = first.steps.len() as f64;
    let mut m = Vec::new();
    let modeled_step_ms = ratio(first.steps.iter().map(|s| s.modeled_s).sum(), rep_steps) * 1e3;
    m.push(metric("modeled_step_ms", modeled_step_ms, "device_ms"));
    m.push(metric(
        "infer_p50_ms",
        percentile(&infer.latency_ms, 50.0),
        "ms",
    ));
    m.push(metric(
        "infer_p90_ms",
        percentile(&infer.latency_ms, 90.0),
        "ms",
    ));
    m.push(metric(
        "infer_goodput_rps",
        ratio(infer.good as f64, infer.window_s),
        "1/s",
    ));
    m.push(metric(
        "error_ratio",
        ratio(failed as f64, attempted as f64),
        "ratio",
    ));
    m.push(metric("nn.fwd_ms", per_step_ms(&|s| s.fwd_ns), "ms"));
    m.push(metric("nn.bwd_ms", per_step_ms(&|s| s.bwd_ns), "ms"));
    m.push(metric("nn.optim_ms", per_step_ms(&|s| s.optim_ns), "ms"));
    m.push(metric(
        "nn.nongemm_ms",
        per_step_ms(&|s| s.dur_ns - s.gemm_ns),
        "ms",
    ));
    m.push(metric(
        "core.step_boundary_ms",
        per_step_ms(&|s| s.boundary_ns),
        "ms",
    ));
    m.push(metric(
        "gemm.calls_per_step",
        ratio(sum(&|s| s.calls as f64), n_steps),
        "count",
    ));
    m.push(metric(
        "gemm.ms_per_step",
        ratio(gemm_ns, n_steps) * 1e-6,
        "ms",
    ));
    m.push(metric(
        "gemm.melem_per_s",
        ratio(macs, gemm_ns * 1e-9) * 1e-6,
        "Melem/s",
    ));
    for (l, layer) in LAYERS.iter().enumerate() {
        for (p, pass) in PASSES.iter().enumerate() {
            let host: f64 = traced.iter().map(|tr| tr.pairs[l][p].host_ns as f64).sum();
            m.push(metric(
                format!("gemm.{layer}.{pass}_ms"),
                ratio(host, n_steps) * 1e-6,
                "ms",
            ));
        }
    }
    for (l, layer) in LAYERS.iter().enumerate() {
        for (p, pass) in PASSES.iter().enumerate() {
            m.push(metric(
                format!("fpga.{layer}.{pass}_modeled_us"),
                ratio(first.pairs[l][p].modeled_s, rep_steps) * 1e6,
                "device_us",
            ));
        }
    }
    let (est, sim) = (first.estimated_s, first.simulated_s);
    let (hit_ratio, packed, overlap) = first.fpga.map_or((0.0, 0.0, 0.0), |s| {
        (
            ratio(s.cache.hits as f64, (s.cache.hits + s.cache.misses) as f64),
            s.cache.bytes_packed as f64 / setup.plan.steps as f64,
            ratio(s.pipelined_s, s.elapsed_s),
        )
    });
    let fallbacks: u64 = t.reps.iter().map(|(r, _)| r.fallbacks).sum();
    m.push(metric(
        "fpga.est_vs_sim_pct",
        ratio((est - sim).abs(), sim) * 100.0,
        "%",
    ));
    m.push(metric(
        "fpga.host_ns_per_mac",
        if fpga_on { ratio(gemm_ns, macs) } else { 0.0 },
        "ns",
    ));
    m.push(metric("fpga.cache_hit_ratio", hit_ratio, "ratio"));
    m.push(metric("fpga.packed_bytes_per_step", packed, "bytes"));
    m.push(metric("fpga.modeled_overlap_ratio", overlap, "ratio"));
    m.push(metric("fpga.fallbacks", fallbacks as f64, "count"));

    let [completed, rejected, degraded, expired, batches, coalesced] = t.serve_delta;
    m.push(metric(
        "serving.gemms_per_batch",
        ratio(completed as f64, batches as f64),
        "count",
    ));
    m.push(metric(
        "serving.coalesced_ratio",
        ratio(coalesced as f64, completed as f64),
        "ratio",
    ));
    m.push(metric("serving.rejected", rejected as f64, "count"));
    m.push(metric("serving.deadline_exceeded", expired as f64, "count"));
    m.push(metric("serving.degraded", degraded as f64, "count"));
    m.push(metric(
        "serving.queue_depth_max",
        infer.queue_depth_max as f64,
        "count",
    ));
    m.push(metric(
        "serving.gen_late_ms_p90",
        percentile(&infer.send_late_ms, 90.0),
        "ms",
    ));

    let mismatches = shape_mismatches(setup, &traced, notes);
    m.push(metric(
        "models.shape_mismatches",
        mismatches as f64,
        "count",
    ));
    m.push(metric("trace.coverage", coverage, "ratio"));
    let (plain_sps, _) = throughput(setup, &plain);
    let (traced_sps, _) = throughput(setup, &detailed);
    m.push(metric(
        "trace.overhead_pct",
        (ratio(plain_sps, traced_sps) - 1.0) * 100.0,
        "%",
    ));
    m
}

/// Counts (layer, pass) pairs whose executed shape differs from the
/// described one, noting each with both `estimate_gemm` latencies on
/// the `<8,8,4>` array.
fn shape_mismatches(
    setup: &Setup,
    traced: &[&crate::trace::RepTrace],
    notes: &mut Vec<String>,
) -> u64 {
    let table = ShapeTable::lenet5(setup.plan.batch);
    let acc = crate::workload::accelerator();
    let bits = setup
        .workload
        .precision(setup.seed)
        .fwd
        .quant_a
        .format()
        .bit_width();
    let est_us =
        |s| mpt_fpga::estimate_gemm(s, acc.config(), acc.freq_mhz(), bits, bits).total_s * 1e6;
    let mut count = 0;
    let Some(first) = traced.first() else {
        return 0;
    };
    for (l, layer) in LAYERS.iter().enumerate() {
        for (p, pass) in PASSES.iter().enumerate() {
            let described = table.described[l][p];
            match first.executed[l][p] {
                Some(e) if e == described => {}
                Some(e) => {
                    count += 1;
                    notes.push(format!(
                        "shape mismatch {layer}.{pass}: executed {}x{}x{} ({:.2} us) vs described {}x{}x{} ({:.2} us)",
                        e.n, e.k, e.m, est_us(e), described.n, described.k, described.m, est_us(described)
                    ));
                }
                None => {
                    count += 1;
                    notes.push(format!(
                        "shape mismatch {layer}.{pass}: described but never executed"
                    ));
                }
            }
        }
    }
    count
}
