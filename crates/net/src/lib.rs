//! # net: running the paper's processes off the simulator
//!
//! The process layer ([`radio_sim::process::Process`]) is already pure
//! message-in/message-out: a process sees inputs, makes a transmit/listen
//! decision, and handles a reception — nothing else. The only thing that
//! ties `LbProcess`/`SeedProcess`/the baselines to the simulator is the
//! *channel*: how one round's transmit decisions become per-node
//! receptions. [`radio_sim::engine::Engine`] is the one round loop and
//! takes that step from a [`radio_sim::channel::Channel`].
//!
//! This crate supplies the channel that is not the model's:
//! [`MockNetTransport`](transport::MockNetTransport), a deterministic
//! network event loop with per-link delivery delay, Bernoulli loss, and
//! partition windows, seeded from the existing
//! [`StreamKind`](radio_sim::rng::StreamKind) machinery
//! (`StreamKind::Transport`, so a lossy network never perturbs process
//! randomness). Plugged in with
//! [`Engine::with_channel`](radio_sim::engine::Engine::with_channel), it
//! runs any `radio_sim::Process` unmodified, under the engine's faults,
//! traces, and telemetry. With delay 0, no loss, no partitions, and the
//! full link set its executions byte-compare equal to the simulator's
//! under the `AllExtraEdges` scheduler — the bridge between the
//! reproduction and a deployable, socket-shaped system.
//!
//! See `docs/transport.md` for the channel contract, the delay/loss/
//! partition model, the sim-equivalence argument, and what a
//! real-socket backend would add.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod transport;

pub use transport::{LinkSet, MockNetConfig, MockNetTransport, PartitionWindow};
