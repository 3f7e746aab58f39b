//! The inference side of `serve-mixed`: frozen forward GEMMs captured
//! in setup, and an open-loop generator submitting them to the
//! service at a fixed offered rate.

use conformance::digest::bits_equal;
use mpt_arith::{qgemm, GemmBackend, QGemmConfig};
use mpt_data::ImageDataset;
use mpt_nn::{Graph, Layer};
use mpt_serving::{RequestClass, ServeHandle, ServeResult};
use mpt_tensor::{ShapeError, Tensor};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// One inference request: a single GEMM of a frozen forward pass and
/// the emulation kernel's output for it.
#[derive(Debug, Clone)]
pub struct Template {
    /// Left operand.
    pub a: Tensor,
    /// Right operand.
    pub b: Tensor,
    /// Arithmetic of the layer it came from.
    pub cfg: QGemmConfig,
    /// `qgemm(a, b, cfg)`.
    pub expected: Tensor,
}

/// Records every GEMM of a forward pass with its `qgemm` output.
#[derive(Default)]
struct Capture(RefCell<Vec<Template>>);

impl GemmBackend for Capture {
    fn gemm(&self, a: &Tensor, b: &Tensor, cfg: &QGemmConfig) -> Result<Tensor, ShapeError> {
        let out = qgemm(a, b, cfg)?;
        self.0.borrow_mut().push(Template {
            a: a.clone(),
            b: b.clone(),
            cfg: *cfg,
            expected: out.clone(),
        });
        Ok(out)
    }
}

/// The GEMMs of `batches` frozen forward passes of `model`, `batch`
/// test images each, in forward order.
pub fn capture_templates(
    model: &dyn Layer,
    test: &ImageDataset,
    batch: usize,
    batches: usize,
) -> Vec<Template> {
    let capture = Rc::new(Capture::default());
    for i in 0..batches {
        let idx: Vec<usize> = (i * batch..(i + 1) * batch)
            .map(|j| j % test.len())
            .collect();
        let (images, _) = test.gather(&idx);
        let mut g = Graph::with_backend(false, capture.clone());
        let x = g.input(images);
        model.forward(&mut g, x);
    }
    capture.0.take()
}

/// Offered load of the generator.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Requests per second, sent on a fixed schedule.
    pub rate_hz: f64,
    /// Latency limit; also each request's deadline.
    pub limit: Duration,
}

/// What the generator saw.
#[derive(Debug, Clone, Default)]
pub struct InferReport {
    /// Requests submitted.
    pub sent: u64,
    /// Answered bit-exactly within the limit.
    pub good: u64,
    /// Rejected, expired, failed, or lost.
    pub failed: u64,
    /// Answered with bits that differ from `qgemm`.
    pub corrupt: u64,
    /// Latency of every answered request from its scheduled send
    /// time, milliseconds.
    pub latency_ms: Vec<f64>,
    /// How late each send left against its schedule, milliseconds.
    pub send_late_ms: Vec<f64>,
    /// Largest queue depth seen at a send.
    pub queue_depth_max: usize,
    /// First scheduled send to last answer, seconds.
    pub window_s: f64,
}

struct Pending {
    template: usize,
    scheduled: Instant,
    rx: Receiver<ServeResult>,
}

impl InferReport {
    fn record(
        &mut self,
        templates: &[Template],
        p: &Pending,
        res: Option<ServeResult>,
        limit: Duration,
    ) {
        let latency = p.scheduled.elapsed();
        match res {
            Some(ServeResult::Done { out, .. }) => {
                self.latency_ms.push(latency.as_secs_f64() * 1e3);
                if !bits_equal(&out, &templates[p.template].expected) {
                    self.corrupt += 1;
                    self.failed += 1;
                } else if latency <= limit {
                    self.good += 1;
                }
            }
            _ => self.failed += 1,
        }
    }

    /// Records every pending request that has already been answered.
    fn sweep(&mut self, templates: &[Template], pending: &mut VecDeque<Pending>, limit: Duration) {
        let mut still = VecDeque::with_capacity(pending.len());
        for p in pending.drain(..) {
            match p.rx.try_recv() {
                Ok(res) => self.record(templates, &p, Some(res), limit),
                Err(TryRecvError::Empty) => still.push_back(p),
                Err(TryRecvError::Disconnected) => self.record(templates, &p, None, limit),
            }
        }
        *pending = still;
    }
}

/// Sends `templates` round-robin at `load.rate_hz` until `stop` is
/// set, then waits for every answer. Each request carries the
/// deadline `scheduled + load.limit` and is timed from its scheduled
/// send time, so a late send counts against latency.
pub fn generate(
    handle: &ServeHandle,
    templates: &[Template],
    load: Load,
    stop: &AtomicBool,
) -> InferReport {
    let mut rep = InferReport::default();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let period = Duration::from_secs_f64(1.0 / load.rate_hz);
    let t0 = Instant::now();
    let mut i = 0u32;
    loop {
        let scheduled = t0 + period * i;
        // Collect answers until the next send is due.
        loop {
            rep.sweep(templates, &mut pending, load.limit);
            let now = Instant::now();
            if now >= scheduled {
                break;
            }
            match pending.front() {
                Some(front) => match front.rx.recv_timeout(scheduled - now) {
                    Ok(res) => {
                        let p = pending.pop_front().expect("front exists");
                        rep.record(templates, &p, Some(res), load.limit);
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        let p = pending.pop_front().expect("front exists");
                        rep.record(templates, &p, None, load.limit);
                    }
                },
                None => std::thread::sleep(scheduled - now),
            }
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        rep.send_late_ms
            .push(scheduled.elapsed().as_secs_f64() * 1e3);
        rep.queue_depth_max = rep.queue_depth_max.max(handle.queue_depth());
        let idx = i as usize % templates.len();
        let t = &templates[idx];
        let rx = handle.submit(
            t.a.clone(),
            t.b.clone(),
            t.cfg,
            RequestClass::Inference,
            Some(scheduled + load.limit),
        );
        pending.push_back(Pending {
            template: idx,
            scheduled,
            rx,
        });
        rep.sent += 1;
        i += 1;
    }
    while let Some(p) = pending.pop_front() {
        let res = p.rx.recv().ok();
        rep.record(templates, &p, res, load.limit);
        rep.sweep(templates, &mut pending, load.limit);
    }
    rep.window_s = t0.elapsed().as_secs_f64();
    rep
}
