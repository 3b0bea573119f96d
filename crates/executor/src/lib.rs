//! Plan execution with cardinality monitoring.
//!
//! One vectorized executor ([`batch`]): operators exchange one selection
//! vector per quantifier and evaluate predicates, join keys, and aggregates
//! over columnar gathers; [`exec`] holds the result/option types and the
//! per-row helpers it builds on. [`execute`] is the single entry point.
//! Two byproducts matter to JITS:
//!
//! * **work accounting** — every operator charges the same
//!   [`CostModel`](jits_optimizer::CostModel) constants the optimizer used
//!   to *estimate* cost, so "actual work" and "estimated cost" are in one
//!   currency and simulated time is machine-independent;
//! * **cardinality observations** — each base-table access records the
//!   actual number of rows satisfying its predicate group next to the
//!   optimizer's estimate and the statistics (`statlist`) that produced it.
//!   This is the LEO-style feedback (paper §5.1, \[14\]) that fills the JITS
//!   StatHistory with `errorFactor` entries.

#![forbid(unsafe_code)]

pub mod batch;
pub mod exec;
pub mod monitor;

pub use batch::execute;
pub use exec::{ExecOptions, ExecOutput};
pub use monitor::{ExecStats, NodeKind, NodeObservation, ScanObservation};
