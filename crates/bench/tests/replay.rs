//! `scenario replay` end to end: it accepts what `scenario --save-trace`
//! writes, exits 1 when a deterministic LB condition fails, and exits 2
//! on a trace that does not fit the scenario.

use local_broadcast::msg::LbOutput;
use local_broadcast::LbTrace;
use radio_sim::graph::NodeId;
use radio_sim::trace::EventKind;
use scenario::{registry, ScenarioRunner};
use std::process::Command;

fn trial0(name: &str) -> (ScenarioRunner, LbTrace) {
    let runner = ScenarioRunner::new(registry::find(name).unwrap()).unwrap();
    let trace = serde_json::from_str(&runner.trial_trace_json(0)).unwrap();
    (runner, trace)
}

/// Runs `scenario replay <name>` on `trace` saved as `file`; returns the
/// exit code and everything printed.
fn replay(name: &str, file: &str, trace: &LbTrace) -> (i32, String) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, serde_json::to_string(trace).unwrap()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(["replay", name])
        .arg(&path)
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    (out.status.code().unwrap(), text.into_owned())
}

#[test]
fn a_saved_trace_passes_and_one_without_its_ack_fails_timely_ack() {
    let (_, mut trace) = trial0("e5");
    let (code, out) = replay("e5", "replay-e5.json", &trace);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("timely ack: OK\nvalidity: OK\n"), "{out}");
    let events = trace.events.len();
    trace.events.retain(|e| !matches!(&e.kind, EventKind::Output(o) if o.is_ack()));
    assert_eq!(trace.events.len(), events - 1, "e5 acks its one broadcast");
    let (code, out) = replay("e5", "replay-e5-no-ack.json", &trace);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("timely ack: VIOLATED"), "{out}");
}

#[test]
fn a_recv_moved_to_a_non_neighbour_fails_validity() {
    let (runner, mut trace) = trial0("churn");
    let graph = &runner.topology().graph;
    let recv = trace.events.iter_mut().find_map(|e| match &e.kind {
        EventKind::Output(LbOutput::Recv(p)) => Some((NodeId(p.origin as usize), &mut e.node)),
        _ => None,
    });
    let (origin, node) = recv.expect("churn delivers");
    *node = graph.vertices().find(|&w| w != origin && !graph.is_any_edge(w, origin)).unwrap();
    let (code, out) = replay("churn", "replay-churn-moved-recv.json", &trace);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("validity: VIOLATED") && out.contains("not a G' neighbor"), "{out}");
}

#[test]
fn traces_that_do_not_fit_the_scenario_are_rejected() {
    let (_, e4) = trial0("e4");
    let (code, out) = replay("churn", "replay-e4-as-churn.json", &e4);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("trace has 8 nodes but scenario churn has 16"), "{out}");
    let (code, out) = replay("e1", "replay-e4-as-e1.json", &e4);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("not a seed-agreement trace"), "{out}");
}
