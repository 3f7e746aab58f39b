//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the provenance, every metric with its unit and every check,
//! then, as the last line, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when a check fails and
//! 2 on bad arguments.

use perfbench::run::{run, Args, LOAD};
use perfbench::stats::{json_num, json_str, result_line};
use perfbench::workload::{self, Workload};

fn usage(msg: &str) -> ! {
    let names: Vec<_> = workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{value}`"))),
                )
            }
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed needs a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
    }
}

/// Run provenance: seed, kernel tier, thread counts, `MPT_*`
/// overrides present, and the pinned service configuration.
fn provenance(args: &Args) -> String {
    let plan = args.workload.plan();
    let acc = workload::accelerator();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("MPT_"))
        .collect();
    env.sort();
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"batch\": {}, \
         \"steps_per_rep\": {}, \"eval_samples\": {}, \"simd_tier\": {}, \"default_threads\": {}, \
         \"nproc\": {nproc}, \"mpt_env\": {{{}}}, \"accelerator\": {}, \"serve_config\": {}, \
         \"infer_rate_hz\": {}, \"infer_limit_ms\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        args.trace,
        plan.batch,
        plan.steps,
        plan.eval,
        json_str(mpt_formats::simd::active_tier().name()),
        mpt_arith::default_threads(),
        env.join(", "),
        json_str(&format!("{}@{}MHz", acc.config(), acc.freq_mhz())),
        json_str(&format!("{:?}", mpt_serving::ServeConfig::default())),
        json_num(LOAD.rate_hz),
        LOAD.limit.as_millis(),
    )
}

fn main() {
    let args = parse_args();
    println!("provenance {}", provenance(&args));
    let out = run(args);
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("metric {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    if !out.correct {
        std::process::exit(1);
    }
}
