//! DMDC: Delayed Memory Dependence Checking through Age-Based Filtering —
//! the paper's contribution, implemented against the `dmdc-ooo` substrate.
//!
//! The crate provides four memory-dependence policies plugging into
//! [`dmdc_ooo::Simulator`]:
//!
//! * [`YlaPolicy`] — YLA-based filtering in front of a conventional CAM
//!   load queue (paper §3);
//! * [`DmdcPolicy`] — the full DMDC design: no associative LQ, commit-time
//!   checking through a hashed table, global or local windows, safe loads,
//!   INV-bit coherence support (paper §4);
//! * [`CheckingQueuePolicy`] — DMDC with an associative checking queue
//!   instead of the table (paper §4.4);
//! * [`BloomPolicy`] — Sethumadhavan-style bloom-filter search filtering,
//!   the paper's Figure 3 comparison point;
//!
//! plus the [`experiments`] module — a declarative registry regenerating
//! every table and figure of the paper's evaluation section through a
//! plan → run → reduce → emit pipeline — with [`runner`] (the parallel
//! engine), [`cache`] (the persistent content-addressed cell cache),
//! [`cell`] (the unified per-run metrics record) and [`report`] (tables
//! and the text/JSON/CSV emitters) underneath. [`service`] wraps the
//! whole registry in a long-running HTTP/JSON daemon (`dmdc serve`) with
//! a priority [`queue`] and [`flight`]-based single-flight coalescing of
//! duplicate cells.
//!
//! # Examples
//!
//! ```
//! use dmdc_core::{DmdcConfig, DmdcPolicy};
//! use dmdc_ooo::{CoreConfig, SimOptions, Simulator};
//! use dmdc_workloads::SyntheticKernel;
//!
//! let workload = SyntheticKernel::new(2_000).build();
//! let config = CoreConfig::config2();
//! let policy = Box::new(DmdcPolicy::new(DmdcConfig::global(&config)));
//! let mut sim = Simulator::new(&workload.program, config, policy);
//! let result = sim.run(SimOptions::default()).unwrap();
//! assert!(result.halted);
//! ```

mod bloom;
pub mod cache;
pub mod cell;
mod checking_queue;
mod dmdc;
pub mod experiments;
pub mod faults;
pub mod flight;
pub mod fuzz;
pub mod journal;
pub mod queue;
pub mod recovery;
pub mod report;
pub mod runner;
pub mod sampling;
pub mod service;
mod yla;

pub use bloom::{BloomPolicy, CountingBloom};
pub use cache::{CacheCounters, CellCache};
pub use cell::{CellFailure, CellResult, FailureKind};
pub use checking_queue::CheckingQueuePolicy;
pub use dmdc::{DmdcConfig, DmdcPolicy};
pub use yla::{Interleave, YlaBank, YlaPolicy};
