//! Model-based testing of the engine's collision resolution: a naive,
//! independently written reference implementation of the Section 2
//! reception rule is compared against the engine on randomized
//! topologies, transmit patterns, and link schedules.

use proptest::prelude::*;
use radio_sim::engine::{Configuration, Engine};
use radio_sim::environment::NullEnvironment;
use radio_sim::graph::{DualGraph, NodeId};
use radio_sim::process::{Action, Context, Process};
use radio_sim::scheduler::{BernoulliEdges, EdgeSelection, EpochRandomEdges, LinkScheduler};
use radio_sim::trace::RecordingPolicy;

/// A process with a fully scripted transmit pattern that records its
/// receptions.
struct Scripted {
    /// `pattern[t - 1]` = message to send in round `t` (None = listen).
    pattern: Vec<Option<u64>>,
}

impl Process for Scripted {
    type Msg = u64;
    type Input = ();
    type Output = ();

    fn on_input(&mut self, _i: (), _ctx: &mut Context<'_>) {}

    fn transmit(&mut self, ctx: &mut Context<'_>) -> Action<u64> {
        match self.pattern.get(ctx.round as usize - 1).copied().flatten() {
            Some(m) => Action::Transmit(m),
            None => Action::Receive,
        }
    }

    fn on_receive(&mut self, _m: Option<u64>, _ctx: &mut Context<'_>) {}

    fn take_outputs(&mut self) -> Vec<()> {
        Vec::new()
    }
}

/// Naive reference: who receives what in one round, computed directly
/// from the Section 2 definition. `u` receives from `v` iff `u` listens,
/// `v` transmits, `{u,v}` is in the round topology, and no *other*
/// topology-neighbor of `u` transmits.
fn reference_receptions(
    graph: &DualGraph,
    selection: &EdgeSelection,
    transmitting: &[Option<u64>],
) -> Vec<Option<(NodeId, u64)>> {
    let n = graph.len();
    let in_topology = |u: NodeId, v: NodeId| -> bool {
        if graph.is_reliable_edge(u, v) {
            return true;
        }
        if !graph.is_any_edge(u, v) {
            return false;
        }
        let e = radio_sim::graph::Edge::new(u, v);
        selection.contains(&e)
    };
    (0..n)
        .map(|u| {
            let u = NodeId(u);
            if transmitting[u.0].is_some() {
                return None; // transmitters do not receive
            }
            let tx_neighbors: Vec<NodeId> = graph
                .vertices()
                .filter(|v| *v != u && transmitting[v.0].is_some() && in_topology(u, *v))
                .collect();
            match tx_neighbors.as_slice() {
                [v] => Some((*v, transmitting[v.0].expect("transmitter has msg"))),
                _ => None,
            }
        })
        .collect()
}

/// Which vertices transmit in round `t` (0-based) for transmit-density
/// mode `density`: 0 = one sender, 1 = the scripted bits, 2 = every
/// vertex but one, 3 = every vertex.
fn transmits(
    density: usize,
    tx_bits: &[bool],
    n: usize,
    rounds: usize,
    v: usize,
    t: usize,
) -> bool {
    match density {
        0 => v == t % n,
        1 => tx_bits
            .get((v * rounds + t) % tx_bits.len().max(1))
            .copied()
            .unwrap_or(false),
        2 => v != t % n,
        _ => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn engine_matches_reference_model(
        n in 2usize..24,
        edge_bits in proptest::collection::vec(any::<bool>(), 66),
        extra_bits in proptest::collection::vec(any::<bool>(), 66),
        tx_bits in proptest::collection::vec(any::<bool>(), 0..96),
        density in 0usize..4,
        p_index in 0usize..4,
        epoch in 0u64..4,
        shards in 1usize..4,
        sched_seed in 0u64..500,
        rounds in 1u64..8,
    ) {
        // Random dual graph on n vertices.
        let mut reliable = Vec::new();
        let mut extra = Vec::new();
        let mut idx = 0;
        for u in 0..n {
            for v in (u + 1)..n {
                let bit = edge_bits[idx % edge_bits.len()];
                let ebit = extra_bits[idx % extra_bits.len()];
                idx += 1;
                if bit {
                    reliable.push((u, v));
                } else if ebit {
                    extra.push((u, v));
                }
            }
        }
        let graph = DualGraph::new(n, reliable, extra).unwrap();

        // Transmit patterns: node v transmits message (v*100 + t) in
        // round t when the density mode says so.
        let pattern_for = |v: usize| -> Vec<Option<u64>> {
            (0..rounds as usize)
                .map(|t| {
                    transmits(density, &tx_bits, n, rounds as usize, v, t)
                        .then_some((v * 100 + t) as u64)
                })
                .collect()
        };
        // Bernoulli edges (epoch 0) or epoch-random edges held for
        // `epoch` rounds, each edge present with probability p.
        let p = [0.0, 0.1, 0.5, 1.0][p_index];
        let scheduler = || -> Box<dyn LinkScheduler> {
            if epoch == 0 {
                Box::new(BernoulliEdges::new(p, sched_seed))
            } else {
                Box::new(EpochRandomEdges::new(epoch, p, sched_seed))
            }
        };

        let procs: Vec<Scripted> = (0..n)
            .map(|v| Scripted { pattern: pattern_for(v) })
            .collect();
        let config = Configuration::new(graph.clone(), scheduler())
            .with_recording(RecordingPolicy::full())
            .with_shards(shards);
        let mut engine = Engine::new(config, procs, Box::new(NullEnvironment), 1);
        engine.run(rounds);
        let trace = engine.into_trace();

        // Replay the schedule's eager edge list independently and
        // compare per round.
        let mut sched = scheduler();
        for t in 1..=rounds {
            let selection = sched.extra_edges(t, &graph);
            let transmitting: Vec<Option<u64>> =
                (0..n).map(|v| pattern_for(v)[t as usize - 1]).collect();
            let expected = reference_receptions(&graph, &selection, &transmitting);
            for (u, exp) in expected.iter().enumerate() {
                let engine_recv = trace
                    .receptions()
                    .find(|(round, rx, _, _)| *round == t && rx.0 == u)
                    .map(|(_, _, from, msg)| (from, *msg));
                prop_assert_eq!(
                    engine_recv,
                    *exp,
                    "round {} node {}: engine vs reference mismatch",
                    t,
                    u
                );
            }
        }
    }
}
