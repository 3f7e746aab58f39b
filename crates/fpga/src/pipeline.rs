//! Staged, double-buffered launch execution.
//!
//! The eager path charges every launch the full
//! `pack → HBM-transfer → compute → unpack` sequence. Real deployments
//! overlap those stages across consecutive GEMMs of a training step:
//! while launch *i* computes on the fabric, the host packs and
//! transfers launch *i+1*'s operands, and launch *i−1*'s result
//! streams back. [`PipelinedExecutor`] models exactly that:
//!
//! ```text
//!            t ─────────────────────────────────▶
//! launch i   [pack][xfer][ compute ][unpack]
//! launch i+1       [pack][xfer][ compute ][unpack]
//! launch i+2             [pack][xfer][ compute ][unpack]
//! ```
//!
//! * **Functionally** nothing changes: the compute stage is
//!   [`Accelerator::execute_quantized`], whose bits come from the
//!   `mpt-arith` kernels, so results stay bit-identical to the eager
//!   path, CPU emulation and the cycle-level oracle (the conformance
//!   suite runs this path). The operand cache skips re-quantizing and
//!   re-packing resident operands, which is also bit-transparent
//!   because quantization is a pure function of (bits, quantizer).
//! * **Latency** is accounted by [`PipelineClock`]: each launch's
//!   stage times enter the classic pipeline recurrence
//!   `done[i][s] = max(done[i][s−1], done[i−1][s]) + t[i][s]`, so a
//!   flushed queue reports the overlapped makespan — fill time plus
//!   the per-launch bottleneck stage, not the eager sum.
//! * **Host wall-clock** can genuinely overlap too:
//!   [`PipelinedExecutor::execute_batch`] runs the compute stage on
//!   the persistent `mpt-arith` worker pool, single-threaded inside
//!   its job, while the caller thread packs the next launch (double
//!   buffering, depth 1). Single launches fan their compute out over
//!   the pool's tiles instead.
//!
//! Faults replay the *failed stage*, not the whole queue: a corrupted
//! HBM transfer re-sends the resident image (the pack stage's work is
//! cached), a launch timeout re-runs compute only. Stage-retry
//! budgets come from the same [`RetryPolicy`] as the eager path, and
//! exhaustion degrades to the caller's CPU fallback as before.

use crate::cache::{CacheStats, OperandCache};
use crate::config::{PCIE_EFFICIENCY, PCIE_GBPS};
use crate::sim::Accelerator;
use mpt_arith::{default_threads, pool_execute, GemmShape, QGemmConfig};
use mpt_faults::{FaultSite, Injector, RetryPolicy};
use mpt_tensor::{ShapeError, Tensor};
use std::sync::mpsc;

/// Modeled host-side packing throughput (quantized carriers into
/// 512-bit HBM words), bytes per second. Memory-bound `memcpy`-class
/// work: faster than PCIe, slower than DRAM copy.
pub const HOST_PACK_GBPS: f64 = 8.0;

/// Number of pipeline stages: pack, transfer, compute, unpack.
pub const STAGES: usize = 4;

/// Stage names in pipeline order — used for trace tracks
/// (`fpga-pipeline/<stage>`), busy counters
/// (`fpga.pipeline.busy_us:<stage>`), and report tables.
pub const STAGE_NAMES: [&str; STAGES] = ["pack", "transfer", "compute", "unpack"];

/// Modeled seconds one launch spends in each pipeline stage,
/// *including* any stage replays forced by injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimes {
    /// Host packing of non-resident operands into HBM words (zero on
    /// a full cache hit).
    pub pack_s: f64,
    /// PCIe transfer of the bytes packed this launch (resident images
    /// are already device-side and cost nothing).
    pub transfer_s: f64,
    /// Fabric compute, including the per-launch overhead.
    pub compute_s: f64,
    /// Result stream-back and host-side decode.
    pub unpack_s: f64,
}

impl StageTimes {
    /// The stages in pipeline order.
    pub fn as_array(&self) -> [f64; STAGES] {
        [self.pack_s, self.transfer_s, self.compute_s, self.unpack_s]
    }

    /// Un-overlapped (eager) latency: the sum of all stages.
    pub fn eager_s(&self) -> f64 {
        self.as_array().iter().sum()
    }

    /// The bottleneck stage — the marginal cost of this launch once
    /// the pipeline is full.
    pub fn bottleneck_s(&self) -> f64 {
        self.as_array().into_iter().fold(0.0, f64::max)
    }
}

/// Overlap-aware latency accounting over a stream of launches.
///
/// Feeding launch *i*'s stage times through
/// `done[i][s] = max(done[i][s−1], done[i−1][s]) + t[i][s]`
/// yields the exact makespan of an in-order pipeline with unlimited
/// inter-stage buffering — the upper bound `fill + Σᵢ maxₛ t[i][s]`
/// that the perf model's closed form uses is reached when one stage
/// dominates every launch.
#[derive(Debug, Clone, Default)]
pub struct PipelineClock {
    /// Completion time of the last launch in each stage.
    stage_done: [f64; STAGES],
    /// Completion time of the last launch overall.
    finish: f64,
    /// Launches admitted since the last drain.
    queued: u64,
    /// Launches admitted over the clock's lifetime.
    total: u64,
}

impl PipelineClock {
    /// An idle clock at `t = 0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits one launch; returns its *incremental* contribution to
    /// the makespan (the eager path would contribute `t.eager_s()`).
    pub fn admit(&mut self, t: &StageTimes) -> f64 {
        let times = t.as_array();
        let mut done = self.stage_done;
        done[0] = self.stage_done[0] + times[0];
        for s in 1..STAGES {
            done[s] = done[s - 1].max(self.stage_done[s]) + times[s];
        }
        self.stage_done = done;
        let increment = done[STAGES - 1] - self.finish;
        self.finish = done[STAGES - 1];
        self.queued += 1;
        self.total += 1;
        increment
    }

    /// Overlapped completion time of everything admitted so far.
    pub fn makespan_s(&self) -> f64 {
        self.finish
    }

    /// Per-stage completion time of the most recent launch — the end
    /// of each stage's window on the modeled timeline (stage start =
    /// `stage_done[s] − t[s]` right after [`admit`](Self::admit)).
    pub fn stage_done(&self) -> [f64; STAGES] {
        self.stage_done
    }

    /// Launches admitted since the last [`drain`](Self::drain).
    pub fn queued(&self) -> u64 {
        self.queued
    }

    /// Launches admitted over the clock's lifetime.
    pub fn total_launches(&self) -> u64 {
        self.total
    }

    /// Ends the stream (a training-step boundary): returns the
    /// overlapped makespan and resets the clock to idle.
    pub fn drain(&mut self) -> f64 {
        let makespan = self.finish;
        self.stage_done = [0.0; STAGES];
        self.finish = 0.0;
        self.queued = 0;
        makespan
    }
}

/// The staged launch engine: operand cache + pipeline clock around an
/// [`Accelerator`].
///
/// Single launches ([`launch`](Self::launch)) stay synchronous — the
/// training tape consumes each GEMM's output immediately — while the
/// clock accounts what the overlapped hardware schedule would cost.
/// Independent launches ([`execute_batch`](Self::execute_batch))
/// additionally overlap host wall-clock for real, running compute on
/// the persistent worker pool while the caller packs the next launch.
#[derive(Debug)]
pub struct PipelinedExecutor {
    accelerator: Accelerator,
    cache: OperandCache,
    clock: PipelineClock,
    /// Overlapped seconds accumulated by past drains.
    drained_s: f64,
    /// Eager-equivalent seconds (Σ stage sums) since construction.
    eager_s: f64,
    /// Modeled busy seconds per stage over the executor's lifetime
    /// (Σ launch stage times, including fault replays).
    stage_busy_s: [f64; STAGES],
}

impl PipelinedExecutor {
    /// Wraps an accelerator with an operand cache of `budget_bytes`.
    pub fn new(accelerator: Accelerator, budget_bytes: usize) -> Self {
        PipelinedExecutor {
            accelerator,
            cache: OperandCache::new(budget_bytes),
            clock: PipelineClock::new(),
            drained_s: 0.0,
            eager_s: 0.0,
            stage_busy_s: [0.0; STAGES],
        }
    }

    /// The wrapped accelerator.
    pub fn accelerator(&self) -> &Accelerator {
        &self.accelerator
    }

    /// Operand-cache effectiveness counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The pipeline clock (latency accounting).
    pub fn clock(&self) -> &PipelineClock {
        &self.clock
    }

    /// Overlapped hardware seconds: past drains plus the live queue.
    pub fn pipelined_elapsed_s(&self) -> f64 {
        self.drained_s + self.clock.makespan_s()
    }

    /// Eager-equivalent hardware seconds (what the un-pipelined
    /// schedule would have cost) over the executor's lifetime.
    pub fn eager_elapsed_s(&self) -> f64 {
        self.eager_s
    }

    /// Modeled busy seconds per stage (pack, transfer, compute,
    /// unpack) over the executor's lifetime. Invariant:
    /// `max(stage_busy_s) ≤ pipelined_elapsed_s ≤ Σ stage_busy_s` —
    /// a stage can't be busy longer than the makespan, and the
    /// makespan can't beat the sum of all work (= eager time).
    pub fn stage_busy_s(&self) -> [f64; STAGES] {
        self.stage_busy_s
    }

    /// Stage occupancy: busy time per stage ÷ overlapped wall time,
    /// in `[0, 1]` per stage. All zeros before the first launch.
    pub fn stage_utilization(&self) -> [f64; STAGES] {
        let wall = self.pipelined_elapsed_s();
        if wall <= 0.0 {
            return [0.0; STAGES];
        }
        let mut util = self.stage_busy_s;
        for u in &mut util {
            *u /= wall;
        }
        util
    }

    /// Folds one admitted launch into the accounting: eager sum,
    /// per-stage busy totals, pipeline clock, and — when armed — the
    /// stage-utilization counters and the Chrome-trace stage tracks
    /// (each stage's window on the modeled timeline, so Perfetto
    /// shows the pack/transfer/compute/unpack overlap).
    fn account_launch(&mut self, times: &StageTimes) {
        self.eager_s += times.eager_s();
        let stage_t = times.as_array();
        for (busy, t) in self.stage_busy_s.iter_mut().zip(stage_t) {
            *busy += t;
        }
        self.clock.admit(times);
        if mpt_telemetry::enabled() {
            for (name, t) in STAGE_NAMES.iter().zip(stage_t) {
                mpt_telemetry::counter(&format!("fpga.pipeline.busy_us:{name}"))
                    .add((t * 1e6) as u64);
                if t > 0.0 {
                    // Modeled stage latency distribution (ns).
                    mpt_telemetry::histogram(&format!("fpga:stage:{name}"))
                        .record((t * 1e9) as u64);
                }
            }
        }
        if mpt_telemetry::trace::tracing_enabled() {
            let launch = self.clock.total_launches();
            let done = self.clock.stage_done();
            for ((name, t), end) in STAGE_NAMES.iter().zip(stage_t).zip(done) {
                if t <= 0.0 {
                    continue;
                }
                let end_s = self.drained_s + end;
                mpt_telemetry::trace::record_complete(
                    &format!("fpga-pipeline/{name}"),
                    &format!("{name} #{launch}"),
                    (end_s - t) * 1e6,
                    t * 1e6,
                );
            }
        }
    }

    /// Flushes the launch queue at a step boundary: the clock drains
    /// into the accumulated total (the cache keeps its residents —
    /// weights survive across steps; updated ones re-key themselves).
    /// Returns the drained makespan.
    pub fn flush(&mut self) -> f64 {
        let queued = self.clock.queued();
        let makespan = self.clock.drain();
        self.drained_s += makespan;
        if queued > 0 && mpt_telemetry::enabled() {
            mpt_telemetry::counter("fpga.pipeline.flush").incr();
            mpt_telemetry::event(&[
                mpt_telemetry::json::Field::Str("type", "pipeline_flush"),
                mpt_telemetry::json::Field::U64("launches", queued),
                mpt_telemetry::json::Field::F64("makespan_s", makespan),
            ]);
            // Derived occupancy so far: lifetime busy per stage over
            // the overlapped wall time (report fodder; the raw busy
            // totals also live in `fpga.pipeline.busy_us:*`).
            let busy = self.stage_busy_s;
            let util = self.stage_utilization();
            let mut fields = vec![
                mpt_telemetry::json::Field::Str("type", "stage_utilization"),
                mpt_telemetry::json::Field::F64("pipelined_elapsed_s", self.pipelined_elapsed_s()),
                mpt_telemetry::json::Field::F64("eager_elapsed_s", self.eager_s),
            ];
            let busy_keys = [
                "busy_pack_s",
                "busy_transfer_s",
                "busy_compute_s",
                "busy_unpack_s",
            ];
            let util_keys = ["util_pack", "util_transfer", "util_compute", "util_unpack"];
            for s in 0..STAGES {
                fields.push(mpt_telemetry::json::Field::F64(busy_keys[s], busy[s]));
                fields.push(mpt_telemetry::json::Field::F64(util_keys[s], util[s]));
            }
            mpt_telemetry::event(&fields);
        }
        makespan
    }

    /// Resets the latency accounting (cache residents and cumulative
    /// cache counters stay).
    pub fn reset_accounting(&mut self) {
        self.clock.drain();
        self.drained_s = 0.0;
        self.eager_s = 0.0;
        self.stage_busy_s = [0.0; STAGES];
    }

    /// One staged launch: cache-aware pack, modeled transfer, fabric
    /// compute, modeled unpack. Bit-identical to
    /// [`Accelerator::execute`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] for non-conforming operands.
    pub fn launch(
        &mut self,
        a: &Tensor,
        b: &Tensor,
        cfg: &QGemmConfig,
    ) -> Result<(Tensor, StageTimes), ShapeError> {
        check_shapes(a, b)?;

        let mut pack_span = mpt_telemetry::span("fpga:pack");
        let fa = self.cache.get_or_pack(a, &cfg.quant_a)?;
        let fb = self.cache.get_or_pack(b, &cfg.quant_b)?;
        let packed_bytes = missed_bytes(&fa) + missed_bytes(&fb);
        if pack_span.is_active() {
            pack_span
                .field(mpt_telemetry::SpanField::U64(
                    "hits",
                    fa.hit as u64 + fb.hit as u64,
                ))
                .add_bytes(packed_bytes as u64);
        }
        drop(pack_span);

        let _xfer_span = mpt_telemetry::span("fpga:transfer");
        drop(_xfer_span);
        let compute_span = mpt_telemetry::span("fpga:compute");
        let (out, _) = self.accelerator.execute_quantized(
            fa.quantized,
            &fb.quantized,
            cfg,
            default_threads(),
        )?;
        drop(compute_span);
        let _unpack_span = mpt_telemetry::span("fpga:unpack");

        let times = self.stage_times(a, b, cfg, packed_bytes);
        self.account_launch(&times);
        Ok((out, times))
    }

    /// [`launch`](Self::launch) under fault injection with
    /// **per-stage** retry: a faulted stage replays itself (its time
    /// is charged again) without repeating earlier stages — a
    /// corrupted transfer re-sends the already-packed image, a
    /// compute fault re-runs the kernel only.
    ///
    /// Returns `Ok(None)` when any single stage exhausts the retry
    /// budget; the caller degrades to the bit-identical CPU path.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] for non-conforming operands (never
    /// retried).
    pub fn launch_resilient(
        &mut self,
        inj: &Injector,
        retry: &RetryPolicy,
        a: &Tensor,
        b: &Tensor,
        cfg: &QGemmConfig,
    ) -> Result<Option<(Tensor, StageTimes)>, ShapeError> {
        check_shapes(a, b)?;
        let launch_id = inj.next_launch();

        // Stage 0 precondition: the bitstream must be resident.
        if !retry_stage(inj, retry, FaultSite::BitstreamLoad, launch_id, |f| {
            crate::resilient::emit_fault_event(&f, "fpga-pipelined");
        }) {
            return Ok(None);
        }

        // Pack stage (no fault site: host memory).
        let fa = self.cache.get_or_pack(a, &cfg.quant_a)?;
        let fb = self.cache.get_or_pack(b, &cfg.quant_b)?;
        let packed_bytes = missed_bytes(&fa) + missed_bytes(&fb);

        // Transfer stage: each faulted attempt corrupts the in-flight
        // image, the CRC catches it, and the *same packed image* is
        // re-sent — the pack stage does not run again.
        let mut transfer_replays = 0u32;
        let image = self.cache.image_of(a, &cfg.quant_a);
        let transfer_ok = retry_stage(inj, retry, FaultSite::HbmCorruption, launch_id, |f| {
            if let Some(img) = image {
                let mut in_flight = img.clone();
                let (byte, mask) = inj.corruption(in_flight.byte_size(), launch_id);
                in_flight.corrupt_byte(byte, mask);
                assert!(
                    in_flight.unpack().is_err(),
                    "CRC-32 must catch a corrupted transfer byte"
                );
            }
            crate::resilient::emit_fault_event(&f, "fpga-pipelined");
            transfer_replays += 1;
        });
        if !transfer_ok {
            return Ok(None);
        }

        // Compute stage: timeouts and transient launch faults re-run
        // the kernel without touching the staged operands.
        let mut compute_replays = 0u32;
        for site in [FaultSite::LaunchTimeout, FaultSite::LaunchTransient] {
            if !retry_stage(inj, retry, site, launch_id, |f| {
                crate::resilient::emit_fault_event(&f, "fpga-pipelined");
                compute_replays += 1;
            }) {
                return Ok(None);
            }
        }

        let (out, _) = self.accelerator.execute_quantized(
            fa.quantized,
            &fb.quantized,
            cfg,
            default_threads(),
        )?;
        let mut times = self.stage_times(a, b, cfg, packed_bytes);
        // Charge the replayed stages their extra passes.
        times.transfer_s *= 1.0 + transfer_replays as f64;
        times.compute_s *= 1.0 + compute_replays as f64;
        self.account_launch(&times);
        Ok(Some((out, times)))
    }

    /// Executes a batch of *independent* GEMMs with real host-side
    /// overlap: compute runs on the persistent worker pool while this
    /// thread packs the next launch's operands (double buffering,
    /// depth 1 — the staged queue of the hardware design). Results
    /// come back in order and are bit-identical to eager execution.
    ///
    /// # Errors
    ///
    /// Returns the first [`ShapeError`] among the batch items.
    pub fn execute_batch(
        &mut self,
        items: &[(&Tensor, &Tensor, QGemmConfig)],
    ) -> Result<Vec<Tensor>, ShapeError> {
        let mut results: Vec<Option<Tensor>> = (0..items.len()).map(|_| None).collect();
        let (tx, rx) = mpsc::channel::<(usize, Tensor)>();
        let mut in_flight = 0usize;
        for (i, (a, b, cfg)) in items.iter().enumerate() {
            check_shapes(a, b)?;
            // Pack stage on this thread — overlaps the previous
            // launch's compute running on the pool.
            let fa = self.cache.get_or_pack(a, &cfg.quant_a)?;
            let fb = self.cache.get_or_pack(b, &cfg.quant_b)?;
            let packed_bytes = missed_bytes(&fa) + missed_bytes(&fb);
            let times = self.stage_times(a, b, cfg, packed_bytes);
            self.account_launch(&times);

            // Double buffering: at most one compute stage in flight.
            if in_flight > 0 {
                let (j, out) = rx.recv().expect("pipelined compute worker panicked");
                results[j] = Some(out);
                in_flight -= 1;
            }
            let acc = self.accelerator.clone();
            let (aq, bq, cfg, tx) = (fa.quantized, fb.quantized, *cfg, tx.clone());
            // Single-threaded: a pool job must not wait on pool tiles.
            pool_execute(move || {
                let out = acc
                    .execute_quantized(aq, &bq, &cfg, 1)
                    .expect("shapes checked before submit")
                    .0;
                let _ = tx.send((i, out));
            });
            in_flight += 1;
        }
        drop(tx);
        while in_flight > 0 {
            let (j, out) = rx.recv().expect("pipelined compute worker panicked");
            results[j] = Some(out);
            in_flight -= 1;
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every launch reported"))
            .collect())
    }

    /// [`execute_batch`](Self::execute_batch) under fault injection:
    /// the batched entry point the serving front-end's coalescer
    /// drives. Each item runs the same per-stage gate sequence as
    /// [`launch_resilient`](Self::launch_resilient) on the submitting
    /// thread, then its compute stage goes to the worker pool with
    /// the usual depth-1 double buffering. An item whose retry budget
    /// is exhausted comes back as `None` — the caller degrades that
    /// item (and only that item) to the bit-identical CPU path —
    /// while the rest of the batch proceeds.
    ///
    /// # Errors
    ///
    /// Returns the first [`ShapeError`] among the batch items (never
    /// retried).
    pub fn execute_batch_resilient(
        &mut self,
        inj: &Injector,
        retry: &RetryPolicy,
        items: &[(&Tensor, &Tensor, QGemmConfig)],
    ) -> Result<Vec<Option<Tensor>>, ShapeError> {
        for (a, b, _) in items {
            check_shapes(a, b)?;
        }
        let mut results: Vec<Option<Tensor>> = (0..items.len()).map(|_| None).collect();
        let (tx, rx) = mpsc::channel::<(usize, Tensor)>();
        let mut in_flight = 0usize;
        for (i, (a, b, cfg)) in items.iter().enumerate() {
            let launch_id = inj.next_launch();

            if !retry_stage(inj, retry, FaultSite::BitstreamLoad, launch_id, |f| {
                crate::resilient::emit_fault_event(&f, "fpga-batch");
            }) {
                continue; // results[i] stays None: degrade this item.
            }

            let fa = self.cache.get_or_pack(a, &cfg.quant_a)?;
            let fb = self.cache.get_or_pack(b, &cfg.quant_b)?;
            let packed_bytes = missed_bytes(&fa) + missed_bytes(&fb);

            let mut transfer_replays = 0u32;
            let image = self.cache.image_of(a, &cfg.quant_a);
            let transfer_ok = retry_stage(inj, retry, FaultSite::HbmCorruption, launch_id, |f| {
                if let Some(img) = image {
                    let mut in_flight_img = img.clone();
                    let (byte, mask) = inj.corruption(in_flight_img.byte_size(), launch_id);
                    in_flight_img.corrupt_byte(byte, mask);
                    assert!(
                        in_flight_img.unpack().is_err(),
                        "CRC-32 must catch a corrupted transfer byte"
                    );
                }
                crate::resilient::emit_fault_event(&f, "fpga-batch");
                transfer_replays += 1;
            });
            if !transfer_ok {
                continue;
            }

            let mut compute_replays = 0u32;
            let mut compute_ok = true;
            for site in [FaultSite::LaunchTimeout, FaultSite::LaunchTransient] {
                if !retry_stage(inj, retry, site, launch_id, |f| {
                    crate::resilient::emit_fault_event(&f, "fpga-batch");
                    compute_replays += 1;
                }) {
                    compute_ok = false;
                    break;
                }
            }
            if !compute_ok {
                continue;
            }

            let mut times = self.stage_times(a, b, cfg, packed_bytes);
            times.transfer_s *= 1.0 + transfer_replays as f64;
            times.compute_s *= 1.0 + compute_replays as f64;
            self.account_launch(&times);

            if in_flight > 0 {
                let (j, out) = rx.recv().expect("pipelined compute worker panicked");
                results[j] = Some(out);
                in_flight -= 1;
            }
            let acc = self.accelerator.clone();
            let (aq, bq, cfg, tx) = (fa.quantized, fb.quantized, *cfg, tx.clone());
            // Single-threaded: a pool job must not wait on pool tiles.
            pool_execute(move || {
                let out = acc
                    .execute_quantized(aq, &bq, &cfg, 1)
                    .expect("shapes checked before submit")
                    .0;
                let _ = tx.send((i, out));
            });
            in_flight += 1;
        }
        drop(tx);
        while in_flight > 0 {
            let (j, out) = rx.recv().expect("pipelined compute worker panicked");
            results[j] = Some(out);
            in_flight -= 1;
        }
        Ok(results)
    }

    /// Models the four stage durations of one launch. `packed_bytes`
    /// is what the pack stage actually produced (zero on full cache
    /// hits — resident images are already device-side, so the
    /// transfer stage moves nothing either); compute and unpack are
    /// the accelerator's [`Accelerator::stage_timing`] — the
    /// closed-form core time plus launch overhead, and the padded
    /// result streamed back at the operand width, exactly like the
    /// eager path's accounting.
    fn stage_times(
        &self,
        a: &Tensor,
        b: &Tensor,
        cfg: &QGemmConfig,
        packed_bytes: usize,
    ) -> StageTimes {
        let shape = shape_of(a, b).expect("shapes pre-checked");
        let (_, compute_s, unpack_s) = self
            .accelerator
            .stage_timing(shape, cfg.quant_a.format().bit_width());
        StageTimes {
            pack_s: packed_bytes as f64 / (HOST_PACK_GBPS * 1.0e9),
            transfer_s: packed_bytes as f64 / (PCIE_GBPS * 1.0e9 * PCIE_EFFICIENCY),
            compute_s,
            unpack_s,
        }
    }
}

/// Runs one fault site's retry loop for a stage. Returns `false` when
/// the budget is exhausted (`on_fault` has run once per fault). The
/// backoff uses the policy's jittered schedule on the launch id's
/// stream — exact backoff when jitter is unarmed, decorrelated sleeps
/// across concurrent launches when it is.
fn retry_stage(
    inj: &Injector,
    retry: &RetryPolicy,
    site: FaultSite,
    launch: u64,
    mut on_fault: impl FnMut(mpt_faults::Fault),
) -> bool {
    for attempt in 0..retry.max_attempts {
        match inj.check(site, launch, attempt) {
            None => return true,
            Some(fault) => {
                on_fault(fault);
                retry.sleep_jittered(attempt, launch);
            }
        }
    }
    false
}

/// Bytes the pack stage produced for one operand (zero on a hit).
fn missed_bytes(f: &crate::cache::FetchedOperand) -> usize {
    if f.hit {
        0
    } else {
        f.image_bytes
    }
}

fn check_shapes(a: &Tensor, b: &Tensor) -> Result<(), ShapeError> {
    shape_of(a, b).map(|_| ())
}

fn shape_of(a: &Tensor, b: &Tensor) -> Result<GemmShape, ShapeError> {
    let (n, k) = a.as_matrix()?;
    let (k2, m) = b.as_matrix()?;
    if k != k2 {
        return Err(ShapeError::Mismatch {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
            op: "PipelinedExecutor::launch",
        });
    }
    Ok(GemmShape::new(n, k, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DEFAULT_CACHE_BUDGET;
    use crate::config::SaConfig;
    use mpt_arith::qgemm;

    fn acc() -> Accelerator {
        Accelerator::new(SaConfig::new(4, 4, 2).unwrap(), 300.0)
    }

    fn operands(n: usize, k: usize, m: usize) -> (Tensor, Tensor) {
        (
            Tensor::from_fn(vec![n, k], |i| ((i * 37 % 41) as f32 - 20.0) * 0.05),
            Tensor::from_fn(vec![k, m], |i| ((i * 43 % 47) as f32 - 23.0) * 0.04),
        )
    }

    #[test]
    fn launch_is_bit_identical_cold_and_warm() {
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let (a, b) = operands(13, 29, 7);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(77);
        let want = qgemm(&a, &b, &cfg).unwrap();
        let (cold, t_cold) = px.launch(&a, &b, &cfg).unwrap();
        let (warm, t_warm) = px.launch(&a, &b, &cfg).unwrap();
        assert_eq!(cold, want);
        assert_eq!(warm, want, "cache hits must not perturb results");
        assert!(t_cold.pack_s > 0.0 && t_cold.transfer_s > 0.0);
        assert_eq!(t_warm.pack_s, 0.0, "warm launch packs nothing");
        assert_eq!(t_warm.transfer_s, 0.0, "resident images are not re-sent");
        assert_eq!(px.cache_stats().hits, 2);
    }

    #[test]
    fn clock_overlap_beats_eager_sum() {
        let mut clock = PipelineClock::new();
        let t = StageTimes {
            pack_s: 1.0,
            transfer_s: 2.0,
            compute_s: 4.0,
            unpack_s: 1.0,
        };
        for _ in 0..10 {
            clock.admit(&t);
        }
        // Exact recurrence: fill (1+2+4+1) + 9 × bottleneck (4).
        assert!((clock.makespan_s() - (8.0 + 9.0 * 4.0)).abs() < 1e-12);
        assert!(clock.makespan_s() < 10.0 * t.eager_s());
        assert_eq!(clock.drain(), 8.0 + 9.0 * 4.0);
        assert_eq!(clock.makespan_s(), 0.0);
    }

    #[test]
    fn single_launch_has_no_overlap_to_exploit() {
        let mut clock = PipelineClock::new();
        let t = StageTimes {
            pack_s: 0.5,
            transfer_s: 0.25,
            compute_s: 2.0,
            unpack_s: 0.25,
        };
        let inc = clock.admit(&t);
        assert!((inc - t.eager_s()).abs() < 1e-12);
    }

    #[test]
    fn executor_accounts_overlapped_less_than_eager() {
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let cfg = QGemmConfig::fp8_fp12_sr();
        let (a, b) = operands(64, 64, 64);
        for _ in 0..6 {
            px.launch(&a, &b, &cfg).unwrap();
        }
        let pipelined = px.pipelined_elapsed_s();
        let eager = px.eager_elapsed_s();
        assert!(pipelined > 0.0);
        assert!(
            pipelined < eager,
            "overlap must win: pipelined {pipelined} vs eager {eager}"
        );
        let drained = px.flush();
        assert!((drained - pipelined).abs() < 1e-15);
        assert_eq!(px.clock().makespan_s(), 0.0);
        assert!(
            (px.pipelined_elapsed_s() - pipelined).abs() < 1e-15,
            "drained time is retained"
        );
    }

    #[test]
    fn stage_busy_brackets_pipelined_elapsed() {
        // The acceptance invariant for the utilization counters:
        // max busy ≤ overlapped wall time ≤ Σ busy (= eager time).
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let cfg = QGemmConfig::fp8_fp12_sr();
        for i in 0..7 {
            let (a, b) = operands(16 + i, 24, 12);
            px.launch(&a, &b, &cfg).unwrap();
        }
        px.flush();
        let busy = px.stage_busy_s();
        let wall = px.pipelined_elapsed_s();
        let max_busy = busy.into_iter().fold(0.0, f64::max);
        let sum_busy: f64 = busy.iter().sum();
        assert!(max_busy > 0.0);
        assert!(max_busy <= wall + 1e-12, "max {max_busy} vs wall {wall}");
        assert!(wall <= sum_busy + 1e-12, "wall {wall} vs sum {sum_busy}");
        assert!((sum_busy - px.eager_elapsed_s()).abs() < 1e-9);
        for u in px.stage_utilization() {
            assert!((0.0..=1.0 + 1e-12).contains(&u), "utilization {u}");
        }
    }

    #[test]
    fn traced_launches_emit_all_four_stage_tracks() {
        mpt_telemetry::enable();
        mpt_telemetry::trace::enable_tracing();
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(11);
        for i in 0..3 {
            let (a, b) = operands(10 + i, 20, 8);
            px.launch(&a, &b, &cfg).unwrap();
        }
        px.flush();
        mpt_telemetry::trace::disable_tracing();
        mpt_telemetry::disable();
        let events = mpt_telemetry::trace::snapshot();
        for stage in STAGE_NAMES {
            let track = format!("fpga-pipeline/{stage}");
            let on_track: Vec<_> = events.iter().filter(|e| e.track == track).collect();
            assert!(!on_track.is_empty(), "missing stage track {track}");
            // Stage windows sit on the modeled timeline: positive
            // duration, start ≥ 0.
            for e in &on_track {
                assert!(e.dur_us > 0.0 && e.ts_us >= -1e-9, "bad window {e:?}");
            }
        }
    }

    #[test]
    fn execute_batch_matches_eager_bitwise() {
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(5);
        let pairs: Vec<(Tensor, Tensor)> = (0..5).map(|i| operands(8 + i, 16 + i, 6 + i)).collect();
        let items: Vec<(&Tensor, &Tensor, QGemmConfig)> =
            pairs.iter().map(|(a, b)| (a, b, cfg)).collect();
        let got = px.execute_batch(&items).unwrap();
        for ((a, b), out) in pairs.iter().zip(&got) {
            assert_eq!(*out, qgemm(a, b, &cfg).unwrap());
        }
        assert_eq!(px.clock().total_launches(), 5);
    }

    #[test]
    fn execute_batch_resilient_matches_eager_and_degrades_per_item() {
        use mpt_faults::{FaultPlan, Trigger};
        // Launch 3 of 5 is sticky-faulted: only that item degrades.
        let inj = Injector::new(
            FaultPlan::new(2).with(FaultSite::LaunchTransient, Trigger::StickyAtLaunch(3)),
        );
        let retry = RetryPolicy::no_delay(3);
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(5);
        let pairs: Vec<(Tensor, Tensor)> = (0..5).map(|i| operands(8 + i, 16 + i, 6 + i)).collect();
        let items: Vec<(&Tensor, &Tensor, QGemmConfig)> =
            pairs.iter().map(|(a, b)| (a, b, cfg)).collect();
        let got = px.execute_batch_resilient(&inj, &retry, &items).unwrap();
        assert_eq!(got.len(), 5);
        for (i, ((a, b), out)) in pairs.iter().zip(&got).enumerate() {
            match out {
                Some(t) => assert_eq!(*t, qgemm(a, b, &cfg).unwrap(), "item {i}"),
                None => assert_eq!(i, 2, "only the sticky launch degrades"),
            }
        }
        assert_eq!(got.iter().filter(|o| o.is_none()).count(), 1);
        assert_eq!(inj.injected_at(FaultSite::LaunchTransient), 3);
    }

    #[test]
    fn execute_batch_resilient_fault_free_is_bit_identical() {
        let inj = Injector::new(mpt_faults::FaultPlan::new(0));
        let retry = RetryPolicy::no_delay(3);
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(9);
        let pairs: Vec<(Tensor, Tensor)> = (0..4).map(|_| operands(10, 20, 8)).collect();
        let items: Vec<(&Tensor, &Tensor, QGemmConfig)> =
            pairs.iter().map(|(a, b)| (a, b, cfg)).collect();
        let got = px.execute_batch_resilient(&inj, &retry, &items).unwrap();
        let want = qgemm(&pairs[0].0, &pairs[0].1, &cfg).unwrap();
        for out in &got {
            assert_eq!(*out.as_ref().unwrap(), want);
        }
        // Identical operands: the cache packs once, hits after.
        assert!(px.cache_stats().hits >= 6);
    }

    #[test]
    fn stage_fault_replays_stage_not_pack() {
        use mpt_faults::{FaultPlan, Trigger};
        let inj =
            Injector::new(FaultPlan::new(9).with(FaultSite::HbmCorruption, Trigger::AtLaunch(2)));
        let retry = RetryPolicy::no_delay(3);
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let (a, b) = operands(13, 29, 7);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(3);
        let want = qgemm(&a, &b, &cfg).unwrap();
        let (first, t1) = px
            .launch_resilient(&inj, &retry, &a, &b, &cfg)
            .unwrap()
            .unwrap();
        let packs_after_first = px.cache_stats().packs;
        let (second, t2) = px
            .launch_resilient(&inj, &retry, &a, &b, &cfg)
            .unwrap()
            .unwrap();
        assert_eq!(first, want);
        assert_eq!(second, want, "stage retry must not perturb results");
        assert_eq!(
            px.cache_stats().packs,
            packs_after_first,
            "transfer replay must not re-run the pack stage"
        );
        assert_eq!(inj.injected_at(FaultSite::HbmCorruption), 1);
        // The replayed transfer is charged; warm transfer_s is zero,
        // so the faulted launch's transfer time stays zero × 2 = 0 —
        // charge shows up on cold-path faults instead.
        assert!(t2.compute_s > 0.0);
        assert!(t1.transfer_s > 0.0);
    }

    #[test]
    fn exhausted_stage_budget_degrades() {
        use mpt_faults::{FaultPlan, Trigger};
        let inj = Injector::new(
            FaultPlan::new(1).with(FaultSite::LaunchTimeout, Trigger::StickyAtLaunch(1)),
        );
        let retry = RetryPolicy::no_delay(3);
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let (a, b) = operands(5, 7, 3);
        let cfg = QGemmConfig::fp8_fp12_sr();
        let out = px.launch_resilient(&inj, &retry, &a, &b, &cfg).unwrap();
        assert!(out.is_none(), "sticky compute fault must force fallback");
        assert_eq!(inj.injected_at(FaultSite::LaunchTimeout), 3);
    }

    #[test]
    fn shape_mismatch_is_not_retried() {
        let inj = Injector::new(mpt_faults::FaultPlan::new(0));
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let a = Tensor::zeros(vec![3, 4]);
        let b = Tensor::zeros(vec![5, 2]);
        let cfg = QGemmConfig::fp32();
        assert!(px.launch(&a, &b, &cfg).is_err());
        assert!(px
            .launch_resilient(&inj, &RetryPolicy::no_delay(3), &a, &b, &cfg)
            .is_err());
    }
}
