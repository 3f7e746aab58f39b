//! The repository benchmark: LeNet-5 training on CPU emulation (FP8
//! and FXP4.4), through the pipelined FPGA simulator, and beside open-
//! loop inference on one serving front-end.
//!
//! The program is driven only through its public entry points
//! (`train_cnn_with_backend`, the backends, `GemmService` and
//! `ServeHandle::submit`) and measured from outside, by wrapping the
//! traits the trainer accepts. See `METRICS.md` for every metric.

pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;
