//! The mock network: a [`Channel`] with per-link delay, loss, and
//! partitions.
//!
//! The engine drives the round; this channel answers only who hears
//! what. Every transmission fans out over the sender's static links in
//! the round's graph, and each copy independently survives partitions
//! and loss, then waits in the receiver's inbox until its arrival round.

use radio_sim::channel::{Channel, Heard, OnAir};
use radio_sim::graph::{DualGraph, NodeId};
use radio_sim::rng::{derive_stream, StreamKind};
use rand::Rng;
use std::collections::VecDeque;

/// Which static links the mock network routes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSet {
    /// The reliable edges `E` only (the `Gₜ = G` worst case).
    Reliable,
    /// Every edge of `E'` (the `Gₜ = G'` best case).
    All,
}

/// A network partition: during rounds `[from, to]` (inclusive), every
/// link crossing the boundary between `nodes` and its complement is cut
/// (messages on it are silently lost at send time).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionWindow {
    /// One side of the partition (vertex indices).
    pub nodes: Vec<usize>,
    /// First partitioned round (inclusive; rounds start at 1).
    pub from: u64,
    /// Last partitioned round (inclusive).
    pub to: u64,
}

/// The mock network's delay/loss/partition model.
#[derive(Debug, Clone, PartialEq)]
pub struct MockNetConfig {
    /// The static link set messages route over.
    pub links: LinkSet,
    /// Per-hop delivery delay in rounds. `0` reproduces the simulator's
    /// synchronous round structure exactly (the sim-equivalence
    /// keystone); `d > 0` delivers a round-`t` transmission at round
    /// `t + d`.
    pub delay_rounds: u64,
    /// Independent per-link Bernoulli loss probability, applied at send
    /// time. Coins come from `StreamKind::Transport` (one stream per
    /// send round, consumed in (sender, link-neighbor) ascending order),
    /// so loss never perturbs process, scheduler, or fault randomness —
    /// and `loss_p = 0` consumes no coins at all.
    pub loss_p: f64,
    /// Partition windows; a link crossed by *any* active window is cut.
    pub partitions: Vec<PartitionWindow>,
}

impl Default for MockNetConfig {
    fn default() -> Self {
        MockNetConfig {
            links: LinkSet::All,
            delay_rounds: 0,
            loss_p: 0.0,
            partitions: Vec::new(),
        }
    }
}

/// What one vertex's inbox holds at its arrival round.
enum Inbox<M> {
    Empty,
    One(NodeId, M),
    Collided,
}

/// A deterministic mock network: per-node inbox queues over an event
/// loop keyed by arrival round.
///
/// Every transmission fans out over the sender's static links; each
/// copy independently survives partitions and loss, then sits in the
/// receiver's inbox until its arrival round. At arrival, radio
/// semantics apply: the engine never asks a transmitting receiver what
/// it heard (the arrivals are discarded, not buffered), one surviving
/// arrival is a delivery, and two or more interfere.
pub struct MockNetTransport<M> {
    config: MockNetConfig,
    master_seed: u64,
    /// `partition_masks[w][v]` — is `v` on the `nodes` side of window `w`?
    partition_masks: Vec<Vec<bool>>,
    /// Ring buffer of in-flight copies: `pending[d]` holds
    /// `(receiver, sender, msg)` entries arriving `d` rounds after the
    /// round being resolved.
    pending: VecDeque<Vec<(usize, NodeId, M)>>,
    /// This round's arrivals, per vertex.
    inbox: Vec<Inbox<M>>,
}

impl<M: Clone> MockNetTransport<M> {
    /// A mock network over `n` vertices, seeded like every other
    /// component (the seed selects the loss-coin streams). Links come
    /// from the graph the engine resolves each round over.
    ///
    /// # Panics
    ///
    /// Panics if `loss_p` is outside `[0, 1]`, or a partition window is
    /// malformed (zero-based round, empty or out-of-range node set).
    pub fn new(n: usize, config: MockNetConfig, master_seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.loss_p),
            "loss_p must be in [0, 1], got {}",
            config.loss_p
        );
        let partition_masks = config
            .partitions
            .iter()
            .map(|w| {
                assert!(w.from >= 1 && w.to >= w.from, "malformed partition window");
                let mut mask = vec![false; n];
                for &v in &w.nodes {
                    assert!(v < n, "partition references vertex {v} out of range");
                    mask[v] = true;
                }
                mask
            })
            .collect();
        let pending = (0..=config.delay_rounds).map(|_| Vec::new()).collect();
        MockNetTransport {
            config,
            master_seed,
            partition_masks,
            pending,
            inbox: (0..n).map(|_| Inbox::Empty).collect(),
        }
    }

    /// The model this network runs.
    pub fn config(&self) -> &MockNetConfig {
        &self.config
    }
}

impl<M: Clone> Channel<M> for MockNetTransport<M> {
    fn resolve(
        &mut self,
        round: u64,
        graph: &DualGraph,
        on_air: &OnAir<'_, M>,
        _shard_busy: Option<&mut [u64]>,
    ) {
        let delay = self.config.delay_rounds as usize;
        debug_assert_eq!(self.pending.len(), delay + 1);

        // Send phase: fan each transmission out over the sender's
        // links, drop partition-crossing and lossy copies at send time,
        // enqueue the rest for arrival at `round + delay`. Loss coins
        // are flipped in (sender ascending, neighbor ascending) order
        // from this round's Transport stream, and only when the model
        // is actually lossy.
        let active_masks: Vec<&Vec<bool>> = self
            .config
            .partitions
            .iter()
            .zip(&self.partition_masks)
            .filter(|(w, _)| round >= w.from && round <= w.to)
            .map(|(_, mask)| mask)
            .collect();
        let loss_p = self.config.loss_p;
        let mut loss_rng = None;
        for &v in on_air.tx_list {
            let m = on_air.messages[v]
                .as_ref()
                .expect("transmitter carries a message");
            let neighbors = match self.config.links {
                LinkSet::Reliable => graph.reliable_neighbors(NodeId(v)),
                LinkSet::All => graph.all_neighbors(NodeId(v)),
            };
            for &u in neighbors {
                if active_masks.iter().any(|mask| mask[v] != mask[u.0]) {
                    continue;
                }
                if loss_p > 0.0 {
                    let rng = loss_rng.get_or_insert_with(|| {
                        derive_stream(self.master_seed, StreamKind::Transport, round)
                    });
                    if rng.gen_bool(loss_p) {
                        continue;
                    }
                }
                self.pending[delay].push((u.0, NodeId(v), m.clone()));
            }
        }

        // Arrival phase: move this round's slot into the inboxes and
        // recycle the emptied slot (with its capacity) as the farthest.
        let mut arrivals = self.pending.pop_front().expect("ring is never empty");
        for slot in &mut self.inbox {
            *slot = Inbox::Empty;
        }
        for (u, from, msg) in arrivals.drain(..) {
            self.inbox[u] = match self.inbox[u] {
                Inbox::Empty => Inbox::One(from, msg),
                _ => Inbox::Collided,
            };
        }
        self.pending.push_back(arrivals);
    }

    fn heard<'a>(&'a self, listener: usize, _messages: &'a [Option<M>]) -> Heard<'a, M> {
        match &self.inbox[listener] {
            Inbox::Empty => Heard::Silence,
            Inbox::One(from, msg) => Heard::Message { from: *from, msg },
            Inbox::Collided => Heard::Collision,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::channel::SimChannel;
    use radio_sim::scheduler::{AllExtraEdges, LinkScheduler, NoExtraEdges, SchedulerBox};

    /// What one vertex heard, owned so rounds can be compared.
    #[derive(Debug, PartialEq)]
    enum Got {
        Silence,
        Collision,
        Msg(usize, u32),
    }

    fn line4() -> DualGraph {
        DualGraph::new(4, [(0, 1), (1, 2), (2, 3)], [(0, 2), (1, 3)]).unwrap()
    }

    fn sim(scheduler: impl LinkScheduler + 'static, shards: usize) -> SimChannel {
        SimChannel::new(SchedulerBox::Oblivious(Box::new(scheduler)), shards)
    }

    fn mock(n: usize, config: MockNetConfig, seed: u64) -> MockNetTransport<u32> {
        MockNetTransport::new(n, config, seed)
    }

    fn reliable(delay_rounds: u64) -> MockNetConfig {
        MockNetConfig {
            links: LinkSet::Reliable,
            delay_rounds,
            ..MockNetConfig::default()
        }
    }

    /// Resolves one round in which `messages[v]` is `Some` exactly for
    /// the transmitters, and reports what every vertex heard.
    fn hear(
        channel: &mut impl Channel<u32>,
        graph: &DualGraph,
        round: u64,
        messages: &[Option<u32>],
    ) -> Vec<Got> {
        let transmitting: Vec<bool> = messages.iter().map(Option::is_some).collect();
        let tx_list: Vec<usize> = (0..messages.len()).filter(|&v| transmitting[v]).collect();
        let on_air = OnAir {
            transmitting: &transmitting,
            tx_list: &tx_list,
            messages,
        };
        channel.resolve(round, graph, &on_air, None);
        (0..messages.len())
            .map(|u| match channel.heard(u, messages) {
                Heard::Silence => Got::Silence,
                Heard::Collision => Got::Collision,
                Heard::Message { from, msg } => Got::Msg(from.0, *msg),
            })
            .collect()
    }

    #[test]
    fn sim_transport_classifies_by_collision_rule() {
        let g = line4();
        let mut t = sim(NoExtraEdges, 1);
        let messages = [Some(7), None, Some(9), None];
        // 0 and 2 transmit: 1 collides, 3 hears 2.
        let out = hear(&mut t, &g, 1, &messages);
        assert_eq!(out[1], Got::Collision);
        assert_eq!(out[3], Got::Msg(2, 9));
        assert_eq!(out[0], Got::Silence);
        // The sim channel names the sender and lends the engine's own
        // message slot: no per-listener copy.
        assert!(matches!(
            t.heard(3, &messages),
            Heard::Message { msg, .. } if std::ptr::eq(msg, messages[2].as_ref().unwrap())
        ));
    }

    #[test]
    fn sim_transport_extra_edges_follow_the_scheduler() {
        let g = DualGraph::new(2, [], [(0, 1)]).unwrap();
        let mut with = sim(AllExtraEdges, 1);
        assert_eq!(hear(&mut with, &g, 1, &[Some(5), None])[1], Got::Msg(0, 5));
        let mut without = sim(NoExtraEdges, 1);
        assert_eq!(hear(&mut without, &g, 1, &[Some(5), None])[1], Got::Silence);
    }

    #[test]
    fn sim_transport_sharded_matches_serial() {
        let g = line4();
        let mut serial = sim(AllExtraEdges, 1);
        let mut sharded = sim(AllExtraEdges, 3);
        assert_eq!(Channel::<u32>::shards(&sharded), 3);
        for round in 1..=4u32 {
            let messages = [Some(round), None, Some(100 + round), None];
            assert_eq!(
                hear(&mut serial, &g, u64::from(round), &messages),
                hear(&mut sharded, &g, u64::from(round), &messages),
                "round {round}"
            );
        }
    }

    #[test]
    fn mock_net_zero_delay_matches_sim_on_reliable_links() {
        let g = line4();
        let mut sim = sim(NoExtraEdges, 1);
        let mut mock = mock(4, reliable(0), 0xFEED);
        for round in 1..=6 {
            let messages = match round % 3 {
                0 => [Some(1), None, Some(2), None],
                1 => [None, Some(3), None, None],
                _ => [Some(4), None, None, Some(5)],
            };
            let a = hear(&mut sim, &g, round, &messages);
            let b = hear(&mut mock, &g, round, &messages);
            // Transmitters never listen; compare listeners.
            for u in 0..4 {
                if messages[u].is_none() {
                    assert_eq!(a[u], b[u], "round {round}, u {u}");
                }
            }
        }
    }

    #[test]
    fn mock_net_delays_delivery_by_the_configured_rounds() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let mut mock = mock(2, reliable(2), 1);
        assert_eq!(
            hear(&mut mock, &g, 1, &[Some(7), None])[1],
            Got::Silence,
            "in flight"
        );
        assert_eq!(
            hear(&mut mock, &g, 2, &[None, None])[1],
            Got::Silence,
            "still in flight"
        );
        assert_eq!(
            hear(&mut mock, &g, 3, &[None, None])[1],
            Got::Msg(0, 7),
            "arrives two rounds after transmission"
        );
    }

    #[test]
    fn mock_net_discards_arrivals_at_a_transmitting_receiver() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let mut mock = mock(2, reliable(1), 1);
        hear(&mut mock, &g, 1, &[Some(7), None]);
        // Node 1 transmits exactly when node 0's message arrives: lost.
        hear(&mut mock, &g, 2, &[None, Some(8)]);
        let out = hear(&mut mock, &g, 3, &[None, None]);
        assert_eq!(out[1], Got::Silence, "not buffered past arrival");
    }

    #[test]
    fn partition_window_cuts_crossing_links_only_while_active() {
        let g = DualGraph::reliable_only(3, [(0, 1), (1, 2)]).unwrap();
        let config = MockNetConfig {
            partitions: vec![PartitionWindow {
                nodes: vec![0],
                from: 2,
                to: 3,
            }],
            ..reliable(0)
        };
        let mut mock = mock(3, config, 1);
        for round in 1..=4 {
            let out = hear(&mut mock, &g, round, &[Some(round as u32), None, Some(50)]);
            if (2..=3).contains(&round) {
                // 0→1 is cut, so only 2's copy arrives: a clean delivery.
                assert_eq!(
                    out[1],
                    Got::Msg(2, 50),
                    "round {round}: the uncut side still delivers"
                );
            } else {
                assert_eq!(out[1], Got::Collision, "round {round}: both sides reach 1");
            }
        }
    }

    #[test]
    fn loss_coins_are_deterministic_and_seed_sensitive() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let run = |seed: u64| {
            let config = MockNetConfig {
                loss_p: 0.5,
                ..reliable(0)
            };
            let mut mock = mock(2, config, seed);
            (1..=64)
                .map(|round| {
                    let out = hear(&mut mock, &g, round, &[Some(round as u32), None]);
                    matches!(out[1], Got::Msg(..))
                })
                .collect::<Vec<bool>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same losses");
        assert_ne!(a, run(8), "loss pattern tracks the seed");
        let delivered = a.iter().filter(|&&d| d).count();
        assert!((10..=54).contains(&delivered), "p = 0.5 loses about half");
    }

    /// The mock network plugs into the engine as its channel: a beacon
    /// on node 0 reaches node 1 over the reliable link.
    #[test]
    fn mock_net_engine_delivers_over_links() {
        use radio_sim::engine::{Configuration, Engine};
        use radio_sim::environment::NullEnvironment;
        use radio_sim::process::{Action, Context, Process};
        use radio_sim::trace::RecordingPolicy;

        struct Beacon {
            transmits: bool,
            heard: Vec<u32>,
        }
        impl Process for Beacon {
            type Msg = u32;
            type Input = ();
            type Output = u32;
            fn on_input(&mut self, _input: (), _ctx: &mut Context<'_>) {}
            fn transmit(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
                if self.transmits && ctx.round == 1 {
                    Action::Transmit(7)
                } else {
                    Action::Receive
                }
            }
            fn on_receive(&mut self, msg: Option<u32>, _ctx: &mut Context<'_>) {
                self.heard.extend(msg);
            }
            fn take_outputs(&mut self) -> Vec<u32> {
                std::mem::take(&mut self.heard)
            }
        }

        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let config =
            Configuration::new(g, Box::new(NoExtraEdges)).with_recording(RecordingPolicy::full());
        let procs = [true, false].map(|transmits| Beacon {
            transmits,
            heard: Vec::new(),
        });
        let mut engine = Engine::with_channel(
            config,
            |_, _| mock(2, reliable(0), 1),
            procs.into(),
            Box::new(NullEnvironment),
            1,
        );
        engine.run(2);
        let outs: Vec<_> = engine.trace().outputs().collect();
        assert_eq!(outs.len(), 1);
        assert_eq!(*outs[0].2, 7);
        assert_eq!(outs[0].1, NodeId(1));
    }
}
