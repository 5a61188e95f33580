//! The `LB(t_ack, t_prog, ε)` specification (Section 4.1) as trace
//! predicates.
//!
//! Deterministic conditions — must hold in **every** execution:
//!
//! 1. **Timely acknowledgment**: each `bcast(m)ᵤ` at round `ρ` is answered
//!    by exactly one `ack(m)ᵤ` within `[ρ, ρ + t_ack]`, and there are no
//!    other acks.
//! 2. **Validity**: every `recv(m)ᵤ` happens while some `G'`-neighbor of
//!    `u` is actively broadcasting `m`.
//!
//! Probabilistic conditions — evaluated as per-event indicators that a
//! Monte-Carlo harness averages over trials:
//!
//! 3. **Reliability**: for each `bcast(m)ᵤ`, every `v ∈ N_G(u)` outputs
//!    `recv(m)ᵥ` no later than `u`'s `ack(m)ᵤ` (target probability
//!    ≥ 1 − ε).
//! 4. **Progress**: for each node `u` and `t_prog`-aligned phase
//!    throughout which some `G`-neighbor of `u` is actively broadcasting,
//!    `u` receives at least one actively-broadcast message during the
//!    phase (target probability ≥ 1 − ε). Progress is about *receptions*
//!    (not deduplicated `recv` outputs), so traces must be recorded with
//!    [`radio_sim::trace::RecordingPolicy::full`].

use crate::msg::{LbInput, LbMsg, LbOutput, Payload};
use crate::LbTrace;
use radio_sim::graph::{DualGraph, NodeId};
use radio_sim::process::ProcId;
use radio_sim::timeline::GraphTimeline;
use std::collections::BTreeMap;
use std::fmt;

/// Violations of the deterministic `LB` conditions (or of environment
/// well-formedness).
#[derive(Debug, Clone, PartialEq)]
pub enum LbViolation {
    /// The environment broadcast the same payload twice.
    DuplicatePayload {
        /// The repeated `(origin, tag)` key.
        key: (ProcId, u64),
    },
    /// The environment issued a new `bcast` before the previous `ack`.
    BcastWhileActive {
        /// The node receiving the premature input.
        node: NodeId,
        /// The round of the premature input.
        round: u64,
    },
    /// A broadcast never acked within the trace.
    MissingAck {
        /// The unacked `(origin, tag)` key.
        key: (ProcId, u64),
    },
    /// An ack arrived after the `t_ack` deadline.
    LateAck {
        /// The offending key.
        key: (ProcId, u64),
        /// `bcast` round plus `t_ack`.
        deadline: u64,
        /// The actual ack round.
        actual: u64,
    },
    /// An ack without a matching earlier `bcast`, a duplicate ack, or an
    /// ack from the wrong node.
    UnexpectedAck {
        /// The node producing the ack.
        node: NodeId,
        /// The round of the ack.
        round: u64,
    },
    /// A `recv(m)ᵤ` with no `G'`-neighbor actively broadcasting `m`.
    InvalidRecv {
        /// The receiving node.
        node: NodeId,
        /// The received key.
        key: (ProcId, u64),
        /// The round of the recv output.
        round: u64,
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl fmt::Display for LbViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LbViolation::DuplicatePayload { key } => {
                write!(f, "payload {key:?} broadcast more than once")
            }
            LbViolation::BcastWhileActive { node, round } => {
                write!(f, "bcast at {node} round {round} before previous ack")
            }
            LbViolation::MissingAck { key } => write!(f, "broadcast {key:?} never acked"),
            LbViolation::LateAck {
                key,
                deadline,
                actual,
            } => write!(f, "ack for {key:?} at round {actual} after deadline {deadline}"),
            LbViolation::UnexpectedAck { node, round } => {
                write!(f, "unexpected ack at {node} round {round}")
            }
            LbViolation::InvalidRecv {
                node,
                key,
                round,
                reason,
            } => write!(f, "invalid recv of {key:?} at {node} round {round}: {reason}"),
        }
    }
}

impl std::error::Error for LbViolation {}

/// The lifecycle of one broadcast: input round, origin, and ack round.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastLifecycle {
    /// `(origin id, tag)` of the payload.
    pub key: (ProcId, u64),
    /// The payload itself.
    pub payload: Payload,
    /// The vertex that received the `bcast` input.
    pub origin: NodeId,
    /// Round of the `bcast` input.
    pub bcast_round: u64,
    /// Round of the matching `ack`, if it occurred within the trace.
    pub ack_round: Option<u64>,
}

impl BroadcastLifecycle {
    /// Whether the origin is *actively broadcasting* this payload in
    /// round `t` (Section 4.1: input received at `r' ≤ t` and no ack
    /// generated through `t`; outputs occur at round end, so the ack
    /// round itself still counts as active).
    pub fn active_in(&self, t: u64) -> bool {
        self.bcast_round <= t && self.ack_round.is_none_or(|a| a >= t)
    }
}

/// Reconstructs all broadcast lifecycles, checking environment
/// well-formedness (unique payloads, one outstanding broadcast per node)
/// and ack sanity (acks match broadcasts, at most one each).
///
/// # Errors
///
/// Returns the first well-formedness violation encountered.
pub fn lifecycles(trace: &LbTrace) -> Result<Vec<BroadcastLifecycle>, LbViolation> {
    let mut map: BTreeMap<(ProcId, u64), BroadcastLifecycle> = BTreeMap::new();
    // Outstanding broadcast per node.
    let mut outstanding: BTreeMap<NodeId, (ProcId, u64)> = BTreeMap::new();

    // Events are stored in round order; walk them merged.
    for e in &trace.events {
        match &e.kind {
            radio_sim::trace::EventKind::Input(LbInput::Bcast(p)) => {
                if map.contains_key(&p.key()) {
                    return Err(LbViolation::DuplicatePayload { key: p.key() });
                }
                if outstanding.contains_key(&e.node) {
                    return Err(LbViolation::BcastWhileActive {
                        node: e.node,
                        round: e.round,
                    });
                }
                outstanding.insert(e.node, p.key());
                map.insert(
                    p.key(),
                    BroadcastLifecycle {
                        key: p.key(),
                        payload: p.clone(),
                        origin: e.node,
                        bcast_round: e.round,
                        ack_round: None,
                    },
                );
            }
            radio_sim::trace::EventKind::Output(LbOutput::Ack(p)) => {
                let Some(lc) = map.get_mut(&p.key()) else {
                    return Err(LbViolation::UnexpectedAck {
                        node: e.node,
                        round: e.round,
                    });
                };
                if lc.origin != e.node || lc.ack_round.is_some() {
                    return Err(LbViolation::UnexpectedAck {
                        node: e.node,
                        round: e.round,
                    });
                }
                lc.ack_round = Some(e.round);
                outstanding.remove(&e.node);
            }
            _ => {}
        }
    }
    Ok(map.into_values().collect())
}

/// Condition 1 (Timely acknowledgment): every broadcast acks within
/// `t_ack_rounds` of its input. Broadcasts issued too close to the end of
/// the trace for the deadline to have elapsed are skipped.
///
/// # Errors
///
/// Returns the first missing or late ack.
pub fn check_timely_ack(trace: &LbTrace, t_ack_rounds: u64) -> Result<(), LbViolation> {
    for lc in lifecycles(trace)? {
        let deadline = lc.bcast_round + t_ack_rounds;
        match lc.ack_round {
            Some(a) if a <= deadline => {}
            Some(a) => {
                return Err(LbViolation::LateAck {
                    key: lc.key,
                    deadline,
                    actual: a,
                })
            }
            None if deadline > trace.rounds => {} // deadline beyond trace
            None => return Err(LbViolation::MissingAck { key: lc.key }),
        }
    }
    Ok(())
}

/// Condition 2 (Validity): every `recv(m)ᵤ` occurs in a round where some
/// `G'`-neighbor of `u` is actively broadcasting `m`.
///
/// # Errors
///
/// Returns the first invalid recv (or a well-formedness violation).
pub fn check_validity(trace: &LbTrace, graph: &DualGraph) -> Result<(), LbViolation> {
    validity(trace, |_| graph)
}

/// Condition 2 (Validity) under dynamic geometry: each `recv(m)ᵤ` is
/// checked against the `G'` of the epoch in force at its round. On a
/// single-epoch timeline this is [`check_validity`] on that graph.
///
/// # Errors
///
/// Returns the first invalid recv (or a well-formedness violation).
pub fn check_validity_over(trace: &LbTrace, timeline: &GraphTimeline) -> Result<(), LbViolation> {
    validity(trace, |round| timeline.graph_at(round))
}

fn validity<'g>(
    trace: &LbTrace,
    graph_at: impl Fn(u64) -> &'g DualGraph,
) -> Result<(), LbViolation> {
    let lcs = lifecycles(trace)?;
    let by_key: BTreeMap<(ProcId, u64), &BroadcastLifecycle> =
        lcs.iter().map(|lc| (lc.key, lc)).collect();
    for (round, node, out) in trace.outputs() {
        let LbOutput::Recv(p) = out else { continue };
        let Some(lc) = by_key.get(&p.key()) else {
            return Err(LbViolation::InvalidRecv {
                node,
                key: p.key(),
                round,
                reason: "payload was never broadcast",
            });
        };
        if !graph_at(round).is_any_edge(node, lc.origin) {
            return Err(LbViolation::InvalidRecv {
                node,
                key: p.key(),
                round,
                reason: "origin is not a G' neighbor",
            });
        }
        if !lc.active_in(round) {
            return Err(LbViolation::InvalidRecv {
                node,
                key: p.key(),
                round,
                reason: "origin not actively broadcasting in this round",
            });
        }
    }
    Ok(())
}

/// Outcome of Condition 3 (Reliability) for one broadcast.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityOutcome {
    /// The broadcast's key.
    pub key: (ProcId, u64),
    /// The broadcasting vertex.
    pub origin: NodeId,
    /// Reliable neighbors that did **not** recv before the ack.
    pub missed: Vec<NodeId>,
}

impl ReliabilityOutcome {
    /// Whether every reliable neighbor got the message in time.
    pub fn success(&self) -> bool {
        self.missed.is_empty()
    }
}

/// Evaluates Condition 3 for every acked broadcast in the trace:
/// did each `v ∈ N_G(origin)` output `recv(m)` no later than the ack?
/// Unacked broadcasts (still running at trace end) are skipped.
///
/// # Errors
///
/// Propagates well-formedness violations.
pub fn reliability_outcomes(
    trace: &LbTrace,
    graph: &DualGraph,
) -> Result<Vec<ReliabilityOutcome>, LbViolation> {
    let lcs = lifecycles(trace)?;
    // recv rounds per (node, key).
    let mut recv_round: BTreeMap<(NodeId, (ProcId, u64)), u64> = BTreeMap::new();
    for (round, node, out) in trace.outputs() {
        if let LbOutput::Recv(p) = out {
            recv_round.entry((node, p.key())).or_insert(round);
        }
    }
    Ok(lcs
        .into_iter()
        .filter(|lc| lc.ack_round.is_some())
        .map(|lc| {
            let ack = lc.ack_round.expect("filtered to acked");
            let missed = graph
                .reliable_neighbors(lc.origin)
                .iter()
                .copied()
                .filter(|v| {
                    recv_round
                        .get(&(*v, lc.key))
                        .is_none_or(|&r| r > ack)
                })
                .collect();
            ReliabilityOutcome {
                key: lc.key,
                origin: lc.origin,
                missed,
            }
        })
        .collect())
}

/// Outcome of Condition 4 (Progress) for one `(node, phase)` pair whose
/// hypothesis held (some `G`-neighbor active throughout the phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressOutcome {
    /// The listening node `u`.
    pub node: NodeId,
    /// The 1-based `t_prog` phase index.
    pub phase: u64,
    /// Whether `u` received at least one actively-broadcast message
    /// during the phase.
    pub received: bool,
}

/// Evaluates Condition 4 over all complete `t_prog`-aligned phases of the
/// trace. Requires the trace to contain reception events
/// ([`radio_sim::trace::RecordingPolicy::full`]); without them every
/// outcome would report failure.
///
/// # Errors
///
/// Propagates well-formedness violations.
pub fn progress_outcomes(
    trace: &LbTrace,
    graph: &DualGraph,
    t_prog: u64,
) -> Result<Vec<ProgressOutcome>, LbViolation> {
    assert!(t_prog >= 1, "t_prog must be positive");
    let lcs = lifecycles(trace)?;
    let full_phases = trace.rounds / t_prog;
    let mut outcomes = Vec::new();

    // Receptions of actively-broadcast data, indexed per (receiver,
    // round).
    let by_key: BTreeMap<(ProcId, u64), &BroadcastLifecycle> =
        lcs.iter().map(|lc| (lc.key, lc)).collect();
    let mut good_receptions: BTreeMap<NodeId, Vec<u64>> = BTreeMap::new();
    for (round, receiver, sender, msg) in trace.receptions() {
        let LbMsg::Data(p) = msg else { continue };
        let Some(lc) = by_key.get(&p.key()) else { continue };
        if lc.origin == sender && lc.active_in(round) {
            good_receptions.entry(receiver).or_default().push(round);
        }
    }

    for phase in 1..=full_phases {
        let start = (phase - 1) * t_prog + 1;
        let end = phase * t_prog;
        for u in graph.vertices() {
            let hypothesis = graph.reliable_neighbors(u).iter().any(|v| {
                lcs.iter().any(|lc| {
                    lc.origin == *v && (start..=end).all(|t| lc.active_in(t))
                })
            });
            if !hypothesis {
                continue;
            }
            let received = good_receptions
                .get(&u)
                .is_some_and(|rounds| rounds.iter().any(|&t| start <= t && t <= end));
            outcomes.push(ProgressOutcome {
                node: u,
                phase,
                received,
            });
        }
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::trace::{Event, EventKind, Trace};
    use std::sync::Arc;

    fn mk_trace(n: usize, rounds: u64) -> LbTrace {
        let mut t = Trace::new(n, (0..n as u64).collect());
        t.rounds = rounds;
        t
    }

    fn input(t: &mut LbTrace, round: u64, node: usize, payload: Payload) {
        t.events.push(Event {
            round,
            node: NodeId(node),
            kind: EventKind::Input(LbInput::Bcast(payload)),
        });
    }

    fn output(t: &mut LbTrace, round: u64, node: usize, out: LbOutput) {
        t.events.push(Event {
            round,
            node: NodeId(node),
            kind: EventKind::Output(out),
        });
    }

    fn reception(t: &mut LbTrace, round: u64, node: usize, from: usize, p: Payload) {
        t.events.push(Event {
            round,
            node: NodeId(node),
            kind: EventKind::Receive {
                from: NodeId(from),
                msg: LbMsg::Data(p),
            },
        });
    }

    fn path3() -> DualGraph {
        DualGraph::reliable_only(3, [(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn lifecycle_reconstruction() {
        let mut t = mk_trace(2, 20);
        let p = Payload::new(0, 1);
        input(&mut t, 2, 0, p.clone());
        output(&mut t, 10, 0, LbOutput::Ack(p.clone()));
        let lcs = lifecycles(&t).unwrap();
        assert_eq!(lcs.len(), 1);
        assert_eq!(lcs[0].bcast_round, 2);
        assert_eq!(lcs[0].ack_round, Some(10));
        assert!(lcs[0].active_in(2));
        assert!(lcs[0].active_in(10));
        assert!(!lcs[0].active_in(1));
        assert!(!lcs[0].active_in(11));
    }

    #[test]
    fn duplicate_payload_rejected() {
        let mut t = mk_trace(2, 20);
        let p = Payload::new(0, 1);
        input(&mut t, 1, 0, p.clone());
        output(&mut t, 5, 0, LbOutput::Ack(p.clone()));
        input(&mut t, 6, 0, p.clone());
        assert!(matches!(
            lifecycles(&t),
            Err(LbViolation::DuplicatePayload { .. })
        ));
    }

    #[test]
    fn premature_bcast_rejected() {
        let mut t = mk_trace(2, 20);
        input(&mut t, 1, 0, Payload::new(0, 1));
        input(&mut t, 2, 0, Payload::new(0, 2));
        assert!(matches!(
            lifecycles(&t),
            Err(LbViolation::BcastWhileActive { .. })
        ));
    }

    #[test]
    fn unexpected_ack_rejected() {
        let mut t = mk_trace(2, 20);
        output(&mut t, 5, 0, LbOutput::Ack(Payload::new(0, 1)));
        assert!(matches!(
            lifecycles(&t),
            Err(LbViolation::UnexpectedAck { .. })
        ));
    }

    #[test]
    fn timely_ack_accepts_and_rejects() {
        let mut t = mk_trace(2, 30);
        let p = Payload::new(0, 1);
        input(&mut t, 2, 0, p.clone());
        output(&mut t, 12, 0, LbOutput::Ack(p.clone()));
        check_timely_ack(&t, 10).unwrap();
        assert!(matches!(
            check_timely_ack(&t, 9),
            Err(LbViolation::LateAck { .. })
        ));
    }

    #[test]
    fn missing_ack_within_deadline_rejected() {
        let mut t = mk_trace(2, 30);
        input(&mut t, 2, 0, Payload::new(0, 1));
        // deadline 12 < rounds 30, no ack recorded.
        assert!(matches!(
            check_timely_ack(&t, 10),
            Err(LbViolation::MissingAck { .. })
        ));
        // With a deadline beyond the trace the check abstains.
        check_timely_ack(&t, 40).unwrap();
    }

    #[test]
    fn validity_accepts_active_neighbor() {
        let g = path3();
        let mut t = mk_trace(3, 30);
        let p = Payload::new(1, 1);
        input(&mut t, 1, 1, p.clone());
        output(&mut t, 5, 0, LbOutput::Recv(p.clone()));
        output(&mut t, 20, 1, LbOutput::Ack(p.clone()));
        check_validity(&t, &g).unwrap();
    }

    #[test]
    fn validity_rejects_non_neighbor_and_inactive() {
        let g = path3();
        // Node 2 is not a neighbor of node 0.
        let mut t = mk_trace(3, 30);
        let p = Payload::new(0, 1);
        input(&mut t, 1, 0, p.clone());
        output(&mut t, 5, 2, LbOutput::Recv(p.clone()));
        assert!(matches!(
            check_validity(&t, &g),
            Err(LbViolation::InvalidRecv { reason: "origin is not a G' neighbor", .. })
        ));

        // Recv after the ack: origin no longer active.
        let mut t2 = mk_trace(3, 30);
        input(&mut t2, 1, 0, p.clone());
        output(&mut t2, 4, 0, LbOutput::Ack(p.clone()));
        output(&mut t2, 6, 1, LbOutput::Recv(p.clone()));
        assert!(matches!(
            check_validity(&t2, &g),
            Err(LbViolation::InvalidRecv { .. })
        ));
    }

    #[test]
    fn validity_over_a_timeline_checks_each_recv_against_its_epoch() {
        // Epoch 0 (rounds 1–9) is the path 0–1–2; epoch 1 (rounds 10–)
        // rewires it to 0–2–1. Node 0 broadcasts throughout.
        let epoch0 = Arc::new(path3());
        let epoch1 = Arc::new(DualGraph::reliable_only(3, [(0, 2), (2, 1)]).unwrap());
        let timeline =
            GraphTimeline::new([(1, Arc::clone(&epoch0)), (10, Arc::clone(&epoch1))]).unwrap();
        let p = Payload::new(0, 1);
        let with_recv = |round: u64, node: usize| {
            let mut t = mk_trace(3, 30);
            input(&mut t, 1, 0, p.clone());
            output(&mut t, round, node, LbOutput::Recv(p.clone()));
            output(&mut t, 25, 0, LbOutput::Ack(p.clone()));
            t
        };

        // Valid only in its own epoch: 0–2 is an edge from round 10 on.
        let own_epoch = with_recv(12, 2);
        check_validity_over(&own_epoch, &timeline).unwrap();
        assert!(check_validity(&own_epoch, &epoch0).is_err());

        // Off-graph in its epoch: 0–1 exists only before round 10.
        let off_graph = with_recv(14, 1);
        assert!(matches!(
            check_validity_over(&off_graph, &timeline),
            Err(LbViolation::InvalidRecv {
                node: NodeId(1),
                round: 14,
                reason: "origin is not a G' neighbor",
                ..
            })
        ));
        check_validity(&off_graph, &epoch0).unwrap();

        // A single-epoch timeline gives the static verdict.
        let single = GraphTimeline::single(Arc::clone(&epoch0));
        for t in [&own_epoch, &off_graph] {
            assert_eq!(
                check_validity_over(t, &single).is_ok(),
                check_validity(t, &epoch0).is_ok()
            );
        }
    }

    #[test]
    fn reliability_outcome_detects_missed_neighbor() {
        let g = path3();
        let mut t = mk_trace(3, 30);
        let p = Payload::new(1, 1);
        input(&mut t, 1, 1, p.clone());
        // Only node 0 receives; node 2 misses.
        output(&mut t, 5, 0, LbOutput::Recv(p.clone()));
        output(&mut t, 20, 1, LbOutput::Ack(p.clone()));
        let outcomes = reliability_outcomes(&t, &g).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(!outcomes[0].success());
        assert_eq!(outcomes[0].missed, vec![NodeId(2)]);
    }

    #[test]
    fn reliability_success_when_all_receive_in_time() {
        let g = path3();
        let mut t = mk_trace(3, 30);
        let p = Payload::new(1, 1);
        input(&mut t, 1, 1, p.clone());
        output(&mut t, 5, 0, LbOutput::Recv(p.clone()));
        output(&mut t, 6, 2, LbOutput::Recv(p.clone()));
        output(&mut t, 20, 1, LbOutput::Ack(p.clone()));
        let outcomes = reliability_outcomes(&t, &g).unwrap();
        assert!(outcomes[0].success());
    }

    #[test]
    fn progress_requires_reception_during_phase() {
        let g = path3();
        let mut t = mk_trace(3, 20);
        let p = Payload::new(1, 1);
        // Node 1 active rounds 1..=20 (no ack).
        input(&mut t, 1, 1, p.clone());
        // Node 0 hears it in round 3 (phase 1 under t_prog = 10); node 2
        // never hears.
        reception(&mut t, 3, 0, 1, p.clone());
        let outcomes = progress_outcomes(&t, &g, 10).unwrap();
        // Nodes 0 and 2 have the active neighbor; two phases each.
        assert_eq!(outcomes.len(), 4);
        let ok = |n: usize, ph: u64| {
            outcomes
                .iter()
                .find(|o| o.node == NodeId(n) && o.phase == ph)
                .unwrap()
                .received
        };
        assert!(ok(0, 1));
        assert!(!ok(0, 2));
        assert!(!ok(2, 1));
        assert!(!ok(2, 2));
    }

    #[test]
    fn progress_hypothesis_requires_full_phase_activity() {
        let g = path3();
        let mut t = mk_trace(3, 10);
        let p = Payload::new(1, 1);
        // Active only rounds 3..=10: not throughout phase 1 (t_prog=10).
        input(&mut t, 3, 1, p.clone());
        let outcomes = progress_outcomes(&t, &g, 10).unwrap();
        assert!(outcomes.is_empty());
    }
}
