//! The channel: how one round's transmissions become receptions.
//!
//! The engine ([`Engine`](crate::engine::Engine)) owns every step
//! of the Section 2 round — fault masks, inputs, transmit decisions,
//! per-listener classification, outputs — except the one that differs
//! between substrates: who hears what. A [`Channel`] is handed this
//! round's transmitters ([`OnAir`]) and the round's dual graph, and then
//! answers, per listener, one [`Heard`]: silence, collision, or a
//! message from a named sender.
//!
//! [`SimChannel`] is the model's channel: the link scheduler fixes the
//! round topology and [`crate::resolve`] applies the collision rule. A
//! randomized schedule is evaluated lazily, one edge coin at a time,
//! and only on edges from a transmitter to a listener. It
//! names senders by vertex, so a delivered message is read straight from
//! the engine's message slots — no per-listener copy. The `net` crate's
//! mock network is the other implementation; its delay ring delivers
//! messages sent in earlier rounds, so it keeps its in-flight messages.

use crate::graph::{DualGraph, NodeId};
use crate::resolve::{self, CoinCache};
use crate::scheduler::{EdgeSelection, SchedulerBox};

/// This round's traffic, as the engine hands it to the channel.
pub struct OnAir<'a, M> {
    /// `transmitting[v]` iff vertex `v` transmits this round.
    pub transmitting: &'a [bool],
    /// The transmitters, in ascending vertex order.
    pub tx_list: &'a [usize],
    /// `messages[v]` is `Some` exactly for the transmitters.
    pub messages: &'a [Option<M>],
}

/// What one listener hears in one round. The model has no collision
/// detection: the engine delivers `Silence` and `Collision` alike as
/// `⊥`; the distinction feeds only channel statistics.
#[derive(Debug)]
pub enum Heard<'a, M> {
    /// Nothing arrived.
    Silence,
    /// Two or more arrivals interfered.
    Collision,
    /// Exactly one message arrived.
    Message {
        /// The transmitting vertex.
        from: NodeId,
        /// The message.
        msg: &'a M,
    },
}

/// How one round's transmissions become per-listener receptions.
///
/// The engine calls [`Channel::resolve`] exactly once per round, with
/// strictly increasing round numbers starting at 1, then asks
/// [`Channel::heard`] for each listening vertex that is up and not
/// jammed (transmitters never listen). A channel must be a pure function
/// of its construction parameters and the call sequence, so executions
/// replay byte for byte.
pub trait Channel<M> {
    /// Resolves this round's traffic over `graph` (the snapshot of the
    /// round's epoch). `shard_busy`, when telemetry is on, has one slot
    /// per [`Channel::shards`] for per-shard busy nanoseconds.
    fn resolve(
        &mut self,
        round: u64,
        graph: &DualGraph,
        on_air: &OnAir<'_, M>,
        shard_busy: Option<&mut [u64]>,
    );

    /// What `listener` hears this round; `messages` are the same slots
    /// the round's [`OnAir`] carried.
    fn heard<'a>(&'a self, listener: usize, messages: &'a [Option<M>]) -> Heard<'a, M>;

    /// How many parallel shards resolution fans out over (1 = serial).
    fn shards(&self) -> usize {
        1
    }
}

/// The dual graph model's channel: the link scheduler picks the round's
/// extra edges and the collision rule resolves receptions, serially or
/// over `shards` worker threads (byte-identical for every count).
///
/// A scheduler that offers [`edge_coins`](crate::scheduler::LinkScheduler::edge_coins)
/// is never asked for its edge list: the reliable edges resolve as
/// usual (gathered over the shards when sharded), then each
/// transmitter's extra edges to listeners are scattered serially,
/// asking only those edges' coins.
pub struct SimChannel {
    scheduler: SchedulerBox,
    shards: usize,
    /// `tx_neighbors[u]` counts `u`'s transmitting neighbors this round;
    /// `last_sender[u]` names the sender when the count is 1. Sized on
    /// the first round, so the steady state never allocates.
    tx_neighbors: Vec<u32>,
    last_sender: Vec<NodeId>,
    coins: CoinCache,
}

impl SimChannel {
    /// A channel over the given scheduler, resolving across `shards`
    /// threads (clamped to ≥ 1).
    pub fn new(scheduler: SchedulerBox, shards: usize) -> Self {
        SimChannel {
            scheduler,
            shards: shards.max(1),
            tx_neighbors: Vec::new(),
            last_sender: Vec::new(),
            coins: CoinCache::default(),
        }
    }
}

impl<M> Channel<M> for SimChannel {
    fn resolve(
        &mut self,
        round: u64,
        graph: &DualGraph,
        on_air: &OnAir<'_, M>,
        shard_busy: Option<&mut [u64]>,
    ) {
        let n = graph.len();
        if self.tx_neighbors.len() != n {
            self.tx_neighbors.resize(n, 0);
            self.last_sender.resize(n, NodeId(0));
        }
        let (selection, coins) = match &mut self.scheduler {
            SchedulerBox::Oblivious(s) => match s.edge_coins(round) {
                Some(coins) => (EdgeSelection::None, Some(coins)),
                None => (s.extra_edges(round, graph), None),
            },
            SchedulerBox::Adaptive(s) => (s.extra_edges(round, graph, on_air.transmitting), None),
        };
        if self.shards > 1 {
            resolve::resolve_receptions_sharded(
                graph,
                &selection,
                on_air.transmitting,
                self.shards,
                &mut self.tx_neighbors,
                &mut self.last_sender,
                shard_busy,
            );
        } else {
            resolve::resolve_receptions_serial(
                graph,
                &selection,
                on_air.transmitting,
                on_air.tx_list,
                &mut self.tx_neighbors,
                &mut self.last_sender,
            );
        }
        if let Some(coins) = coins {
            resolve::scatter_extra_coins(
                graph,
                coins,
                &mut self.coins,
                on_air.transmitting,
                on_air.tx_list,
                &mut self.tx_neighbors,
                &mut self.last_sender,
            );
        }
    }

    #[inline]
    fn heard<'a>(&'a self, listener: usize, messages: &'a [Option<M>]) -> Heard<'a, M> {
        match self.tx_neighbors[listener] {
            0 => Heard::Silence,
            1 => {
                let from = self.last_sender[listener];
                let msg = messages[from.0]
                    .as_ref()
                    .expect("sender marked transmitting must carry a message");
                Heard::Message { from, msg }
            }
            _ => Heard::Collision,
        }
    }

    fn shards(&self) -> usize {
        self.shards
    }
}
