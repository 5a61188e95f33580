//! `LBAlg` off the model's channel: the unmodified `LbProcess` runs on
//! the engine over the `net` crate's mock network, keeping its `t_ack`
//! guarantee under delay and loss the simulator cannot express.

use local_broadcast::config::LbConfig;
use local_broadcast::service::QueueWorkload;
use local_broadcast::{LbOutput, LbProcess, Payload};
use net::{MockNetConfig, MockNetTransport};
use radio_sim::engine::Engine;
use radio_sim::graph::NodeId;
use radio_sim::scheduler::AllExtraEdges;
use radio_sim::topology::{self, Topology};
use std::collections::VecDeque;

fn workload(n: usize, sender: usize) -> QueueWorkload {
    let mut queues = vec![VecDeque::new(); n];
    queues[sender].push_back(Payload::new(sender as u64, 0));
    QueueWorkload::new(queues, 1)
}

/// `LbProcess`es on the engine over the mock network, node 0 sending.
fn mock_engine(
    topo: &Topology,
    cfg: &LbConfig,
    net: MockNetConfig,
    seed: u64,
) -> Engine<LbProcess, MockNetTransport<<LbProcess as radio_sim::process::Process>::Msg>> {
    let n = topo.graph.len();
    let procs: Vec<LbProcess> = (0..n).map(|_| LbProcess::new(cfg.clone())).collect();
    Engine::with_channel(
        topo.configuration(Box::new(AllExtraEdges)),
        |_, _| MockNetTransport::new(n, net, seed),
        procs,
        Box::new(workload(n, 0)),
        seed,
    )
}

/// `t_ack` is a clock guarantee, not a channel guarantee: the sender
/// acks on schedule even when the mock network delays every hop and
/// drops a third of all deliveries.
#[test]
fn lb_ack_deadline_survives_a_degraded_mock_network() {
    let topo = topology::clique(4, 1.0);
    let cfg = LbConfig::fast(0.25);
    let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
    let net = MockNetConfig {
        delay_rounds: 1,
        loss_p: 0.33,
        ..MockNetConfig::default()
    };
    let mut engine = mock_engine(&topo, &cfg, net, 31);
    let acked = engine.run_until(params.t_ack_rounds() + params.phase_len(), |t| {
        t.outputs().any(|(_, v, o)| v == NodeId(0) && o.is_ack())
    });
    assert!(acked, "the ack deadline holds over a delayed, lossy channel");
}

/// Deliveries that do land over a lossy mock network are real LB
/// deliveries: every `Recv` carries the broadcast payload, at most once
/// per node.
#[test]
fn lb_deliveries_over_the_mock_network_are_exactly_once() {
    let topo = topology::clique(6, 1.0);
    let cfg = LbConfig::fast(0.25);
    let params = cfg.resolve(topo.r, topo.graph.delta(), topo.graph.delta_prime());
    let n = topo.graph.len();
    let net = MockNetConfig {
        loss_p: 0.25,
        ..MockNetConfig::default()
    };
    let mut engine = mock_engine(&topo, &cfg, net, 47);
    engine.run(params.t_ack_rounds() + params.phase_len());
    let trace = engine.into_trace();

    let mut recvs = vec![0usize; n];
    for (_, v, o) in trace.outputs() {
        if let LbOutput::Recv(p) = o {
            assert_eq!(p.origin, 0, "only node 0 broadcast");
            recvs[v.0] += 1;
        }
    }
    assert!(
        recvs.iter().all(|&c| c <= 1),
        "no duplicate deliveries: {recvs:?}"
    );
    assert!(
        recvs.iter().sum::<usize>() >= 1,
        "a 25%-lossy clique still delivers somewhere"
    );
}
