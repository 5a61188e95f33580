//! # dual-graph-broadcast
//!
//! Umbrella crate for the reproduction of Lynch & Newport,
//! *A (Truly) Local Broadcast Layer for Unreliable Radio Networks*
//! (MIT-CSAIL-TR-2015-016 / PODC 2015).
//!
//! This crate re-exports the workspace members so examples and integration
//! tests can use a single dependency:
//!
//! * [`radio_sim`] — the dual graph model substrate (Section 2, Appendix A).
//! * [`seed_agreement`] — the `Seed(δ, ε)` specification and `SeedAlg`
//!   (Section 3, Appendix B).
//! * [`local_broadcast`] — the `LB(t_ack, t_prog, ε)` specification and
//!   `LBAlg` (Section 4, Appendix C).
//! * [`amac`] — the abstract MAC layer interface and algorithms ported
//!   through it.
//! * [`baselines`] — fixed-probability-schedule baselines (Decay) that the
//!   paper's discussion contrasts against.
//! * [`analysis`] — Monte-Carlo trial running and statistics for the
//!   experiment suite.
//! * [`scenario`] — declarative scenario & fault-injection subsystem:
//!   serde scenario files, the named registry, and the scenario runner.
//! * [`net`] — the mock-network channel: run the same processes on the
//!   engine over a deterministic mock network (delay, loss,
//!   partitions) instead of the model's channel.

#![forbid(unsafe_code)]

pub use amac;
pub use analysis;
pub use baselines;
pub use local_broadcast;
pub use net;
pub use radio_sim;
pub use scenario;
pub use seed_agreement;
