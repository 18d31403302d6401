//! # hetero-sim
//!
//! Deterministic discrete-event models of the heterogeneous platforms the
//! paper evaluates on: a multicore CPU ([`cpu::CpuModel`]), a CUDA-class
//! GPU ([`gpu::GpuModel`]) and the PCIe link between them
//! ([`link::LinkModel`]), plus executors ([`exec`]) that run an LDDP
//! [`Kernel`](lddp_core::kernel::Kernel) under a
//! [`Plan`](lddp_core::schedule::Plan) against those models.
//!
//! This crate is the substitution for the paper's physical testbeds
//! (Tesla K20 / GT650M + Intel i7s, CUDA 5.0, OpenMP 3.0): cell values
//! are computed functionally — bit-identical to the sequential oracle —
//! while elapsed time is accounted by calibrated analytic models with the
//! same first-order structure the paper's optimizations exploit
//! (kernel-launch overhead, warp coalescing, pinned-vs-pageable copies,
//! stream overlap). See DESIGN.md §2 for the substitution argument.

#![warn(missing_docs)]

pub mod balance;
pub mod cpu;
pub mod exec;
pub mod gpu;
pub mod link;
pub mod multi;
pub mod pipeline;
pub mod platform;
pub mod report;
pub mod trace;

pub use cpu::CpuModel;
pub use exec::{
    access_class, run_cpu, run_gpu, run_hetero, run_hetero_injected, AccessClass, ExecOptions,
    Report,
};
pub use gpu::GpuModel;
pub use link::{HostMemory, LinkModel};
pub use multi::{run_multi, Accelerator, MultiPlatform, MultiReport};
pub use platform::{cpu_only, hetero_high, hetero_low, xeon_phi_like, Platform};
