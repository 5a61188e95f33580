//! The library half of the `bench` package: the saved-trace bundle
//! the `simulate` binary writes and the `replay` auditor reads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use radio_sim::graph::DualGraph;
use serde::{Deserialize, Serialize};

/// A saved `LBAlg` execution: everything the offline `replay` auditor
/// needs to re-check the deterministic `LB` conditions and evaluate the
/// probabilistic indicators.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceBundle {
    /// The dual graph the execution ran on.
    pub graph: DualGraph,
    /// The geographic parameter.
    pub r: f64,
    /// The deployment's `t_prog` bound in rounds (phase length).
    pub t_prog_rounds: u64,
    /// The deployment's `t_ack` bound in rounds.
    pub t_ack_rounds: u64,
    /// The recorded execution.
    pub trace: local_broadcast::LbTrace,
}
