//! # lddp-core
//!
//! A heterogeneous (CPU+GPU) execution framework for **Local Dependency
//! Dynamic Programming** (LDDP-Plus) problems, reproducing Kumar &
//! Kothapalli, *"A Novel Heterogeneous Framework for Local Dependency
//! Dynamic Programming Problems"* (2015).
//!
//! An LDDP-Plus problem fills a 2-D table bottom-up; each cell is a
//! function of a subset of its four *representative cells* (west,
//! north-west, north, north-east). The subset — the *contributing set* —
//! determines the dependence *pattern* (anti-diagonal, horizontal,
//! inverted-L, knight-move, plus two symmetric variants), and the pattern
//! determines how work is split between a multicore CPU and a many-core
//! GPU over the table's wavefronts.
//!
//! A user supplies only the update function `f` and the table
//! initialization (via the [`kernel::Kernel`] trait); the framework
//! classifies the problem ([`pattern::classify`], the paper's Table I),
//! picks a coalescing-friendly memory layout ([`grid::LayoutKind`]),
//! builds a phase/partition schedule ([`schedule`]) and tunes its
//! `t_switch`/`t_share` parameters empirically ([`tuner`]).
//!
//! This crate is device-agnostic: it defines the *what* (cell orders,
//! partitions, transfer obligations). The `hetero-sim` crate provides the
//! simulated CPU/GPU/PCIe devices that execute these schedules with a
//! virtual clock; `lddp-parallel` executes them for real on host threads.

#![warn(missing_docs)]

pub mod adaptive;
pub mod cell;
pub mod error;
pub mod framework;
pub mod grid;
pub mod kernel;
pub mod multi;
pub mod pattern;
pub mod rolling;
pub mod schedule;
pub mod seq;
pub mod tuner;
pub mod tuner_cache;
pub mod wavefront;

pub use cell::{ContributingSet, RepCell};
pub use error::{DegradeStep, Error, Result};
pub use framework::{choose_execution, Adapter, Classification, MirroredKernel, TransposedKernel};
pub use grid::{Grid, Layout, LayoutKind};
pub use kernel::{
    avx512_available, simd_available, simd_backend, ClosureKernel, ExecTier, Kernel, Neighbors,
    RunBody, SimdWaveKernel, WaveKernel,
};
pub use pattern::{classify, Pattern, ProfileShape};
pub use tuner_cache::{TuneKey, TunedConfig, TunerCache};
pub use wavefront::Dims;
