//! The `serve-mixed` inference load alone on its service, with no
//! training client: the latency that the benchmark's offered rate and
//! latency limit are set from (see `METRICS.md`). At a low rate no
//! request queues behind another, so the mean latency is the service
//! time of one request, and rate × service time is the share of the
//! dispatcher that inference takes. The notes of a `serve-mixed` run
//! give the same latencies under mixed load.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --example serve_alone -- \
//!     [seed] [seconds] [rate_hz]
//! ```

use perfbench::run::LOAD;
use perfbench::serve::{generate, Load};
use perfbench::stats::percentile;
use perfbench::workload::{Setup, Workload};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut next = |default: f64| args.next().and_then(|s| s.parse().ok()).unwrap_or(default);
    let seed = next(1.0) as u64;
    let seconds = next(25.0);
    let load = Load {
        rate_hz: next(LOAD.rate_hz),
        ..LOAD
    };
    let setup = Setup::new(Workload::ServeMixed, seed);
    let handle = setup
        .service
        .as_ref()
        .expect("serve-mixed starts a service")
        .handle();
    let stop = AtomicBool::new(false);
    let rep = std::thread::scope(|s| {
        let gen = s.spawn(|| generate(&handle, &setup.templates, load, &stop));
        std::thread::sleep(Duration::from_secs_f64(seconds));
        stop.store(true, Ordering::Release);
        gen.join().expect("generator thread")
    });
    let lat = &rep.latency_ms;
    let mean = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
    println!(
        "alone at {} rps, seed {seed}: {} sent, {} good, {} failed, {} corrupt; latency mean {mean:.2} \
         p50 {:.2} p90 {:.2} p99 {:.2} max {:.2} ms; rate x mean latency {:.3}",
        load.rate_hz,
        rep.sent,
        rep.good,
        rep.failed,
        rep.corrupt,
        percentile(lat, 50.0),
        percentile(lat, 90.0),
        percentile(lat, 99.0),
        percentile(lat, 100.0),
        load.rate_hz * mean * 1e-3,
    );
}
