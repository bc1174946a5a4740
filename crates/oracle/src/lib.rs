//! # oracle — reference implementations the simulator is tested against
//!
//! The production crates hold one implementation of each concept.
//! This crate holds the second, deliberately naive one that the
//! differential suites compare it with. It is a dev-only crate: only
//! `[dev-dependencies]` sections name it, so none of it ships.
//!
//! * [`replacement`] — the object model of the six replacement
//!   policies: one state object per set behind the
//!   [`SetReplacement`] trait, dispatched by the [`Policy`] enum.
//!   The oracle of `cache_sim::replacement::SetState` and of the
//!   packed per-set state inside every cache model.
//! * [`CacheSet`] and [`RefCache`] — the array-of-structs cache
//!   layout built on those objects, the oracle (and `Backend`) that
//!   the flat `cache_sim::Cache` is replayed against, and the AoS
//!   baseline of the `bench_perf_smoke` benchmark.
//! * [`buffered`] — the sequential, collect-everything run path of a
//!   scenario and of a registry artifact, the oracle of the streamed
//!   `scenario::Engine` runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffered;
pub mod reference;
pub mod replacement;
pub mod set;

pub use reference::RefCache;
pub use replacement::{
    BitPlru, Fifo, Lru, PartitionedTreePlru, Policy, RandomRepl, SetReplacement, TreePlru,
};
pub use set::CacheSet;
