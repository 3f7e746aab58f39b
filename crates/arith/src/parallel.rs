//! Multi-threaded custom-precision GEMM on a persistent worker pool.
//!
//! Emulating custom precision on CPUs is the slow path the paper
//! calls out ("training tasks on CPU can be notably slow",
//! Section III). This module parallelizes the emulation kernel over a
//! 2-D grid of output tiles, executed by a process-wide worker pool
//! that is spawned **once** (first use) and reused by every GEMM —
//! training steps issue thousands of GEMMs, and per-call
//! `thread::scope` spawning was measurable overhead at layer sizes.
//!
//! Because every rounding event is indexed by logical coordinates
//! (see [`crate::sr_event_index`]), the result is bit-identical to
//! the sequential kernel for any thread count and any tile shape.
//! Operands are quantized once (with global coordinates) and shared
//! read-only by all tiles, rather than re-quantized per block.

use crate::kernels::gemm_into;
use crate::mac::MacConfig;
use crate::qgemm::{quantize_matrix, QGemmConfig};
use mpt_tensor::{ShapeError, Tensor};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};

/// The machine's available parallelism, resolved once per process
/// (`available_parallelism` is a syscall; GEMM call sites ask for this
/// on every invocation).
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
}

/// The process-wide GEMM worker pool: [`default_threads`] detached
/// workers blocking on a shared queue. Workers survive job panics
/// (the panic is contained; the submitting GEMM notices the missing
/// result and re-raises).
struct Pool {
    state: Arc<PoolState>,
    workers: usize,
}

impl Pool {
    fn submit(&self, job: Job) {
        let mut queue = self
            .state
            .queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        queue.push_back(job);
        drop(queue);
        self.state.available.notify_one();
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = default_threads();
        let state = Arc::new(PoolState {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });
        for w in 0..workers {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("mpt-gemm-{w}"))
                .spawn(move || worker_loop(&state))
                .expect("spawn GEMM worker");
        }
        Pool { state, workers }
    })
}

fn worker_loop(state: &PoolState) {
    loop {
        let job = {
            let mut queue = state
                .queue
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = state
                    .available
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        // Contain panics so one bad job doesn't shrink the pool; the
        // job's result channel closes, which the submitter detects.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// Picks a `(row_tiles, col_tiles)` grid with `row_tiles·col_tiles <=
/// threads`, maximizing used parallelism — tall/skinny backward-pass
/// shapes (large `n`, small `m`, or vice versa) still fan out across
/// the other dimension.
fn tile_grid(threads: usize, n: usize, m: usize) -> (usize, usize) {
    let t = threads.max(1);
    let mut best = (1, 1);
    for tr in 1..=t.min(n.max(1)) {
        let tc = (t / tr).min(m.max(1)).max(1);
        let better = tr * tc > best.0 * best.1
            // Among grids using the same parallelism, prefer the most
            // square one: its tiles share more of each B column block.
            || (tr * tc == best.0 * best.1
                && tr.abs_diff(tc) < best.0.abs_diff(best.1));
        if better {
            best = (tr, tc);
        }
    }
    best
}

/// Splits `len` into `parts` near-equal contiguous ranges.
fn split_ranges(len: usize, parts: usize) -> Vec<(usize, usize)> {
    let per = len.div_ceil(parts.max(1));
    (0..parts)
        .map(|p| (p * per, ((p + 1) * per).min(len)))
        .filter(|(s, e)| s < e)
        .collect()
}

/// Computes `A · B` under `cfg` using up to `threads` concurrent
/// tiles, executed on the persistent worker pool.
///
/// Bit-identical to [`crate::qgemm()`] — tiles are computed with their
/// global row/column offsets so stochastic rounding draws the same
/// bits, and operands are quantized once with global coordinates.
///
/// # Errors
///
/// Returns [`ShapeError`] under the same conditions as
/// [`crate::qgemm()`].
pub fn qgemm_parallel(
    a: &Tensor,
    b: &Tensor,
    cfg: &QGemmConfig,
    threads: usize,
) -> Result<Tensor, ShapeError> {
    check_conforming(a, b, "qgemm_parallel")?;
    // Identity pipelines are the plain FP32 GEMM; skip the operand
    // copies quantization would make.
    if cfg.is_identity() {
        return a.matmul(b);
    }
    // Quantize once, with global coordinates, shared by every tile.
    let aq = Arc::new(quantize_matrix(a, &cfg.quant_a, 0, 0));
    let bq = quantize_matrix(b, &cfg.quant_b, 0, 0);
    qgemm_quantized(aq, &bq, cfg, threads)
}

/// [`qgemm_parallel`] on operands **already quantized** with `cfg`'s
/// input quantizers at global coordinates (offsets `(0, 0)`):
/// `qgemm_parallel(a, b, cfg, t)` is exactly
/// `qgemm_quantized(quantize(a), quantize(b), cfg, t)`.
///
/// The carriers go through `cfg.mac` as they are. The plain FP32 GEMM
/// is taken only when the *whole* of `cfg` is identity: an identity
/// MAC behind non-identity input quantizers still steps through
/// [`crate::mac_step`], exactly as [`crate::qgemm()`] does.
///
/// With `threads > 1` the call submits tiles to the worker pool and
/// blocks on them, so a job already running on the pool must pass
/// `threads = 1` (see [`pool_execute`]).
///
/// # Errors
///
/// Returns [`ShapeError`] if the operands are not conforming
/// matrices.
pub fn qgemm_quantized(
    aq: Arc<Tensor>,
    bq: &Tensor,
    cfg: &QGemmConfig,
    threads: usize,
) -> Result<Tensor, ShapeError> {
    let (n, k, m) = check_conforming(&aq, bq, "qgemm_quantized")?;
    if cfg.is_identity() {
        return aq.matmul(bq);
    }
    let threads = threads.max(1).min(n.max(1));
    let (tr, tc) = tile_grid(threads, n, m);
    let row_ranges = split_ranges(n, tr);
    let col_ranges = split_ranges(m, tc);
    let mac = cfg.mac;

    // Anything that degenerates to one tile (one thread, empty
    // output) runs on the caller thread through the direct kernel —
    // zero pool submissions, zero channel hops, no operand re-packing.
    // The bench suite pins this path to within 1% of calling `qgemm`
    // directly.
    if row_ranges.len() * col_ranges.len() <= 1 {
        let mut out = vec![0.0f32; n * m];
        gemm_into(&mut out, aq.data(), bq.data(), n, k, m, &mac, 0, 0);
        return Tensor::from_vec(vec![n, m], out);
    }

    // Each column block of quantized B is packed contiguous once and
    // shared by the whole column of tiles.
    let col_blocks: Vec<Arc<Vec<f32>>> = col_ranges
        .iter()
        .map(|&(c0, c1)| {
            let bd = bq.data();
            let cw = c1 - c0;
            let mut block = Vec::with_capacity(k * cw);
            for kk in 0..k {
                block.extend_from_slice(&bd[kk * m + c0..kk * m + c1]);
            }
            Arc::new(block)
        })
        .collect();

    let (sender, receiver) = mpsc::channel::<(usize, usize, Vec<f32>)>();
    let tile_ids: Vec<(usize, usize)> = (0..row_ranges.len())
        .flat_map(|ri| (0..col_ranges.len()).map(move |ci| (ri, ci)))
        .collect();
    // All tiles but the last go to the pool; the caller thread
    // computes the last one itself instead of idling on the channel
    // (tiles are independent, so execution placement cannot change
    // bits).
    let (last, pooled) = tile_ids.split_last().expect("grid has >= 2 tiles");
    for &(ri, ci) in pooled {
        let aq = Arc::clone(&aq);
        let bcol = Arc::clone(&col_blocks[ci]);
        let sender = sender.clone();
        let (rows, cols) = (row_ranges[ri], col_ranges[ci]);
        pool().submit(Box::new(move || {
            let tile = run_tile(&aq, &bcol, rows, cols, &mac);
            let _ = sender.send((ri, ci, tile));
        }));
    }
    drop(sender);

    let mut out = vec![0.0f32; n * m];
    let mut place = |ri: usize, ci: usize, tile: Vec<f32>| {
        let (r0, r1) = row_ranges[ri];
        let (c0, c1) = col_ranges[ci];
        let cw = c1 - c0;
        for (local_i, gi) in (r0..r1).enumerate() {
            out[gi * m + c0..gi * m + c1].copy_from_slice(&tile[local_i * cw..(local_i + 1) * cw]);
        }
    };
    let (lri, lci) = *last;
    let local = run_tile(
        &aq,
        &col_blocks[lci],
        row_ranges[lri],
        col_ranges[lci],
        &mac,
    );
    place(lri, lci, local);
    for _ in 0..pooled.len() {
        let (ri, ci, tile) = receiver.recv().expect("GEMM tile worker panicked");
        place(ri, ci, tile);
    }
    Tensor::from_vec(vec![n, m], out)
}

/// `(n, k, m)` of a conforming `(n, k) × (k, m)` product.
fn check_conforming(
    a: &Tensor,
    b: &Tensor,
    op: &'static str,
) -> Result<(usize, usize, usize), ShapeError> {
    let (n, k) = a.as_matrix()?;
    let (k2, m) = b.as_matrix()?;
    if k != k2 {
        return Err(ShapeError::Mismatch {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
            op,
        });
    }
    Ok((n, k, m))
}

/// One output tile: rows `r0..r1` of quantized `A` against the packed
/// column block `bcol` of quantized `B` (columns `c0..c1`), indexing
/// rounding events by global coordinates.
fn run_tile(
    aq: &Tensor,
    bcol: &[f32],
    (r0, r1): (usize, usize),
    (c0, c1): (usize, usize),
    mac: &MacConfig,
) -> Vec<f32> {
    let k = aq.shape()[1];
    let (rh, cw) = (r1 - r0, c1 - c0);
    let mut tile = vec![0.0f32; rh * cw];
    gemm_into(
        &mut tile,
        &aq.data()[r0 * k..r1 * k],
        bcol,
        rh,
        k,
        cw,
        mac,
        r0,
        c0,
    );
    tile
}

/// Number of workers in the persistent pool (spawning it on first
/// call). Exposed for diagnostics and tests.
pub fn pool_workers() -> usize {
    pool().workers
}

/// Runs an arbitrary job on the persistent worker pool (spawning it
/// on first use). The job's panics are contained by the pool's
/// workers; detect failure through whatever channel the job reports
/// on. Used by the pipelined FPGA executor to overlap its compute
/// stage with host-side packing of the next launch.
///
/// **No nested pool work:** the job must not submit work to this
/// pool and then block on it — e.g. a multi-threaded
/// [`qgemm_parallel`] / [`qgemm_quantized`] call, which waits for its
/// pooled tiles. With every worker running such a job, the tiles
/// they wait for never get a worker and the pool deadlocks. GEMMs
/// inside a job run with `threads = 1`.
pub fn pool_execute(job: impl FnOnce() + Send + 'static) {
    pool().submit(Box::new(job));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qgemm::qgemm;

    fn operands(n: usize, k: usize, m: usize) -> (Tensor, Tensor) {
        (
            Tensor::from_fn(vec![n, k], |i| ((i * 37 % 41) as f32 - 20.0) * 0.05),
            Tensor::from_fn(vec![k, m], |i| ((i * 43 % 47) as f32 - 23.0) * 0.04),
        )
    }

    #[test]
    fn parallel_matches_sequential_fp32() {
        let (a, b) = operands(33, 17, 9);
        let cfg = QGemmConfig::fp32();
        let seq = qgemm(&a, &b, &cfg).unwrap();
        for threads in [1, 2, 3, 8] {
            assert_eq!(qgemm_parallel(&a, &b, &cfg, threads).unwrap(), seq);
        }
    }

    #[test]
    fn parallel_matches_sequential_stochastic() {
        // The important case: SR results must not depend on threading.
        let (a, b) = operands(19, 23, 11);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(1234);
        let seq = qgemm(&a, &b, &cfg).unwrap();
        for threads in [2, 4, 7] {
            assert_eq!(
                qgemm_parallel(&a, &b, &cfg, threads).unwrap(),
                seq,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn quantized_entry_matches_qgemm_on_half_identity_configs() {
        // Inputs quantized ahead of an identity MAC must still step
        // through `mac_step`, which saturates where the plain FP32
        // matmul overflows to infinity.
        use mpt_formats::{FloatFormat, Quantizer, Rounding};
        let (a, b) = operands(9, 7, 5);
        let (a, b) = (a.scale(2f32.powi(66)), b.scale(2f32.powi(66)));
        let bf16 = Quantizer::float(FloatFormat::bf16(), Rounding::Nearest);
        let cfg = QGemmConfig::new(bf16, bf16, MacConfig::fp32());
        let aq = Arc::new(quantize_matrix(&a, &cfg.quant_a, 0, 0));
        let bq = quantize_matrix(&b, &cfg.quant_b, 0, 0);
        let want = qgemm(&a, &b, &cfg).unwrap();
        assert_ne!(
            aq.matmul(&bq).unwrap(),
            want,
            "operands must expose the trap"
        );
        for threads in [1, 2, 4] {
            let got = qgemm_quantized(Arc::clone(&aq), &bq, &cfg, threads).unwrap();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_rows() {
        let (a, b) = operands(3, 5, 4);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(5);
        assert_eq!(
            qgemm_parallel(&a, &b, &cfg, 64).unwrap(),
            qgemm(&a, &b, &cfg).unwrap()
        );
    }

    #[test]
    fn empty_matrix() {
        let a = Tensor::zeros(vec![0, 5]);
        let b = Tensor::zeros(vec![5, 4]);
        let c = qgemm_parallel(&a, &b, &QGemmConfig::fp32(), 4).unwrap();
        assert_eq!(c.shape(), &[0, 4]);
    }

    #[test]
    fn empty_columns() {
        let a = Tensor::zeros(vec![3, 5]);
        let b = Tensor::zeros(vec![5, 0]);
        let c = qgemm_parallel(&a, &b, &QGemmConfig::fp8_fp12_sr(), 4).unwrap();
        assert_eq!(c.shape(), &[3, 0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Tensor::zeros(vec![4, 5]);
        let b = Tensor::zeros(vec![6, 4]);
        assert!(qgemm_parallel(&a, &b, &QGemmConfig::fp32(), 2).is_err());
    }

    #[test]
    fn pool_is_persistent_across_calls() {
        let (a, b) = operands(16, 8, 8);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(2);
        let first = qgemm_parallel(&a, &b, &cfg, 4).unwrap();
        let workers = pool_workers();
        for _ in 0..10 {
            assert_eq!(qgemm_parallel(&a, &b, &cfg, 4).unwrap(), first);
        }
        // Same pool instance: the worker count is stable and no
        // per-call spawning happened (the pool is a OnceLock).
        assert_eq!(pool_workers(), workers);
    }

    #[test]
    fn tile_grid_covers_skinny_shapes() {
        // Tall/skinny: parallelism must come from rows.
        assert_eq!(tile_grid(8, 1000, 1), (8, 1));
        // Short/wide: from columns.
        assert_eq!(tile_grid(8, 1, 1000), (1, 8));
        // Balanced shapes use a 2-D grid.
        let (tr, tc) = tile_grid(8, 1000, 1000);
        assert!(tr * tc == 8, "grid ({tr}, {tc})");
        assert!(tr > 1 && tc > 1, "grid ({tr}, {tc}) not 2-D");
    }

    #[test]
    fn split_ranges_partition() {
        assert_eq!(split_ranges(10, 3), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(split_ranges(2, 4), vec![(0, 1), (1, 2)]);
    }
}
