//! # lddp-parallel
//!
//! Real (wall-clock) multicore execution of LDDP wavefronts — the
//! substitute for the paper's OpenMP 3.0 CPU path. A
//! [`ParallelEngine`](engine::ParallelEngine) runs a few heavy worker
//! threads, each owning a contiguous chunk of every wave, with a barrier
//! between waves (§IV-A "thread per block" strategy). Used by the
//! Criterion benchmarks and the examples for genuine speedup numbers,
//! complementing the deterministic virtual-time engine in `hetero-sim`.

#![warn(missing_docs)]

pub mod cache_oblivious;
pub mod engine;
pub mod pool;

pub use cache_oblivious::CacheObliviousEngine;
pub use engine::{ParallelEngine, SolveSpec, Solved, StreamHook};
pub use pool::{chunk_aligned, PoolError, SenseBarrier, WorkerPool};
