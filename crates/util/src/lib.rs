//! Foundational utilities shared by every HiPress crate.
//!
//! This crate deliberately has no dependencies on the rest of the
//! workspace. It provides:
//!
//! * [`rng`] — deterministic, seed-stable pseudo random number
//!   generators (SplitMix64 and Xoshiro256**) used everywhere the
//!   simulation needs reproducible randomness.
//! * [`bits`] — LSB-first bit packing: the word-level fixed-width
//!   `pack`/`unpack` kernels of the quantization compressors, and the
//!   mixed-width readers and writers of the CompLL packed-array
//!   runtime, all producing one layout.
//! * [`stats`] — streaming statistics (Welford) and percentile helpers
//!   used by the benchmark harness.
//! * [`units`] — byte/bandwidth/time unit conversions shared by the
//!   network and GPU cost models.
//! * [`fit`] — least-squares affine curve fitting used by the selective
//!   compression planner to model `T(m) = a + b*m` cost curves.
//! * [`table`] — the aligned-column text table shared by every report
//!   printer (runtime report, CLI summaries, bench tables).
//! * [`error`] — the common error type.

#![forbid(unsafe_code)]

pub mod bits;
pub mod error;
pub mod fit;
pub mod rng;
pub mod stats;
pub mod table;
pub mod units;

pub use error::{Error, Result, SyncFailure, SyncFailureKind};
pub use rng::{Rng64, SplitMix64, Xoshiro256};
