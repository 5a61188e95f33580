//! End-to-end: the paper's algorithms running unmodified on the engine
//! over the mock-network channel — broadcast-and-ack, and the keystone
//! equivalence: when the mock network's delay model matches the
//! synchronous round structure (delay 0, no loss, no partitions),
//! executions byte-compare equal to the simulator's.

use local_broadcast::config::LbConfig;
use local_broadcast::service::QueueWorkload;
use local_broadcast::{LbOutput, LbProcess, Payload};
use net::{MockNetConfig, MockNetTransport};
use radio_sim::engine::{Configuration, Engine};
use radio_sim::environment::Environment;
use radio_sim::environment::NullEnvironment;
use radio_sim::graph::NodeId;
use radio_sim::process::Process;
use radio_sim::scheduler::AllExtraEdges;
use radio_sim::topology;
use radio_sim::trace::RecordingPolicy;
use seed_agreement::{spec as seed_spec, SeedConfig, SeedProcess};
use std::collections::VecDeque;

/// A queue workload where only `sender` broadcasts one payload.
fn single_payload(n: usize, sender: NodeId) -> QueueWorkload {
    let mut queues = vec![VecDeque::new(); n];
    queues[sender.0].push_back(Payload::new(sender.0 as u64, 0));
    QueueWorkload::new(queues, 1)
}

/// An engine over the mock network with `config`'s graph, ids, and
/// recording (the mock network replaces the scheduler as the channel).
fn mock_engine<P: Process>(
    config: Configuration,
    net: MockNetConfig,
    procs: Vec<P>,
    env: Box<dyn Environment<P::Input, P::Output>>,
    seed: u64,
) -> Engine<P, MockNetTransport<P::Msg>> {
    let n = procs.len();
    Engine::with_channel(
        config,
        |_, _| MockNetTransport::new(n, net, seed),
        procs,
        env,
        seed,
    )
}

/// Broadcast-and-ack over the mock network: an `LbProcess` engine where
/// node 0 broadcasts one message; every node receives it and the sender
/// acks — the service works end-to-end with the simulator out of the
/// loop entirely.
#[test]
fn lb_broadcast_acks_over_the_mock_network() {
    let topo = topology::clique(4, 1.0);
    let cfg = LbConfig::fast(0.25);
    let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
    let n = topo.graph.len();
    let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
    let mut engine = mock_engine(
        topo.configuration(Box::new(AllExtraEdges)),
        MockNetConfig::default(),
        procs,
        Box::new(single_payload(n, NodeId(0))),
        17,
    );
    let horizon = params.t_ack_rounds() + params.phase_len();
    let acked = engine.run_until(horizon, |t| {
        t.outputs().any(|(_, v, o)| v == NodeId(0) && o.is_ack())
    });
    assert!(acked, "the sender acks within t_ack over the mock network");
    let trace = engine.into_trace();
    let ack_round = trace
        .outputs()
        .find(|(_, v, o)| *v == NodeId(0) && o.is_ack())
        .map(|(round, ..)| round)
        .unwrap();
    for v in 1..n {
        let recv = trace
            .outputs()
            .find(|(_, u, o)| *u == NodeId(v) && matches!(o, LbOutput::Recv(_)));
        let recv_round = recv.map(|(round, ..)| round);
        assert!(
            recv_round.is_some_and(|r| r <= ack_round),
            "node {v} received before the ack (recv at {recv_round:?}, ack at {ack_round})"
        );
    }
}

/// The same service keeps working when every hop takes two extra rounds:
/// delayed delivery stretches latency but the broadcast still completes
/// (the algorithm never assumed same-round delivery, only eventual).
#[test]
fn lb_broadcast_completes_under_delivery_delay() {
    let topo = topology::clique(4, 1.0);
    let cfg = LbConfig::fast(0.25);
    let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
    let n = topo.graph.len();
    let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
    let mut engine = mock_engine(
        topo.configuration(Box::new(AllExtraEdges)),
        MockNetConfig {
            delay_rounds: 2,
            ..MockNetConfig::default()
        },
        procs,
        Box::new(single_payload(n, NodeId(0))),
        19,
    );
    // Acks are deterministic in LBAlg (always within t_ack); receptions
    // under delay are not guaranteed, so assert only the ack.
    let acked = engine.run_until(params.t_ack_rounds() + params.phase_len(), |t| {
        t.outputs().any(|(_, v, o)| v == NodeId(0) && o.is_ack())
    });
    assert!(acked, "t_ack holds regardless of the channel");
}

/// The keystone: with delay 0, no loss, and no partitions over the full
/// link set, the mock network *is* the synchronous `G' = G_t` channel —
/// an `LbProcess` execution over it byte-compares equal to the engine's
/// under the `AllExtraEdges` scheduler (events, stats, and rounds all
/// equal, under full recording).
#[test]
fn mock_net_matching_the_round_structure_equals_the_simulator() {
    let topo = topology::clique(5, 1.0);
    let cfg = LbConfig::fast(0.25);
    let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
    let n = topo.graph.len();
    let rounds = params.phase_len() * 2;
    let seed = 23;

    let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
    let config = topo
        .configuration(Box::new(AllExtraEdges))
        .with_recording(RecordingPolicy::full());
    let mut engine = Engine::new(config, procs, Box::new(single_payload(n, NodeId(0))), seed);
    engine.run(rounds);
    let reference = engine.into_trace();

    let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
    let config = topo
        .configuration(Box::new(AllExtraEdges))
        .with_recording(RecordingPolicy::full());
    let mut mock = mock_engine(
        config,
        MockNetConfig::default(),
        procs,
        Box::new(single_payload(n, NodeId(0))),
        seed,
    );
    mock.run(rounds);
    let trace = mock.into_trace();

    assert_eq!(reference.events, trace.events);
    assert_eq!(reference.round_stats, trace.round_stats);
    assert_eq!(reference.rounds, trace.rounds);
}

/// Seed agreement over both channels: the sim and zero-delay mock-net
/// executions are byte-identical, and both satisfy the deterministic
/// `Seed` conditions.
#[test]
fn seed_agreement_runs_on_both_substrates() {
    let topo = topology::line(6, 0.9, 2.0);
    let cfg = SeedConfig::practical(0.125, 64);
    let total = cfg.total_rounds(topo.graph.delta());
    let seed = 42;

    let procs: Vec<SeedProcess> = (0..6).map(|_| SeedProcess::new(cfg.clone())).collect();
    let config = topo
        .configuration(Box::new(AllExtraEdges))
        .with_recording(RecordingPolicy::full());
    let mut engine = Engine::new(config, procs, Box::new(NullEnvironment), seed);
    engine.run(total);
    let reference = engine.into_trace();
    seed_spec::check_well_formedness(&reference).unwrap();
    seed_spec::check_consistency(&reference).unwrap();

    let procs: Vec<SeedProcess> = (0..6).map(|_| SeedProcess::new(cfg.clone())).collect();
    let config = topo
        .configuration(Box::new(AllExtraEdges))
        .with_recording(RecordingPolicy::full());
    let mut mock = mock_engine(
        config,
        MockNetConfig::default(),
        procs,
        Box::new(NullEnvironment),
        seed,
    );
    mock.run(total);
    let mock_trace = mock.into_trace();
    assert_eq!(
        reference.events, mock_trace.events,
        "zero-delay mock net reproduces the simulator for seed agreement too"
    );
    assert_eq!(reference.round_stats, mock_trace.round_stats);
    seed_spec::check_well_formedness(&mock_trace).unwrap();
    seed_spec::check_consistency(&mock_trace).unwrap();
}
