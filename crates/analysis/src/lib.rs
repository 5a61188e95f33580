//! # analysis: Monte-Carlo harness and the experiment suite
//!
//! The paper proves its guarantees; it prints no tables or figures. The
//! reproduction therefore defines one **experiment per quantitative
//! claim** (the table in [`experiments`]) and measures each by
//! Monte-Carlo estimation over seeded, deterministic trials.
//!
//! * [`stats`] — summaries, proportion confidence intervals, and the
//!   log-scaling fits used to verify asymptotic *shape*.
//! * [`runner`] — embarrassingly parallel trial execution.
//! * [`table`] — experiment output as aligned text / markdown / CSV.
//! * [`report`] — combined markdown reports and the tolerance-aware
//!   comparison behind golden-metric regression gates.
//! * [`experiments`] — the E1–E13 suite, each returning [`table::Table`]s
//!   that the `bench` crate's `experiments` binary prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;
pub mod stats;
pub mod table;
