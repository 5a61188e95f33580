//! The experiment suite: one experiment per quantitative claim of the
//! paper.
//!
//! The paper (PODC 2015) contains **no empirical tables or figures** — it
//! is proofs only. The reproduction therefore treats each theorem, lemma,
//! and discussion-level claim as the "table" to regenerate: every
//! experiment below measures the claimed quantity by Monte-Carlo over
//! seeded deterministic trials and reports it next to the paper's
//! predicted shape.
//!
//! | ID  | Claim |
//! |-----|-------|
//! | E1  | Seed agreement δ = O(r² log(1/ε₁)), independent of Δ (Thm 3.1) |
//! | E2  | SeedAlg runs O(log Δ · log²(1/ε₁)) rounds (Thm 3.1) |
//! | E3  | Seed spec: well-formedness, consistency, independence in every execution (Spec §3.1) |
//! | E4  | Progress within t_prog w.p. ≥ 1 − ε₁; t_prog shape (Thm 4.1) |
//! | E5  | Acknowledgment within t_ack; t_ack linear in Δ (Thm 4.1, §1) |
//! | E6  | Per-round reception bounds p_u, p_{u,v} (Lemma 4.2) |
//! | E7  | Fixed schedules are thwarted by an oblivious pump; LBAlg is not (§1 Discussion) |
//! | E8  | Adaptive scheduler kills progress; oblivious does not ([11] separation) |
//! | E9  | True locality: guarantees flat as n grows at fixed density (§1) |
//! | E10 | Region goodness: good at phase 1, persists, bounded leaders (App. B) |
//! | E11 | Abstract MAC port: flood/discovery run unchanged over LBAlg (§1, §5) |
//! | E12 | Geometry: Δ' ≤ c_r Δ and f-bounded partitions (Lemmas A.2, A.3) |
//! | E13 | Ablations: seed-agreement amortization (§4.2) and agreement-vs-private seeds |

pub mod ablation;
pub mod baseline;
pub mod broadcast;
pub mod geometry;
pub mod locality;
pub mod mac;
pub mod seed;

use crate::table::Table;

/// How big an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sweeps and few trials: seconds, for CI and tests.
    Quick,
    /// The full sweeps: minutes.
    Full,
}

impl Scale {
    /// Picks between the quick and full variant of a size parameter.
    pub fn pick(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// A registered experiment.
pub struct Experiment {
    /// Identifier (`"E1"`, …).
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// The paper claim being reproduced.
    pub claim: &'static str,
    /// Runs the experiment at the given scale.
    pub run: fn(Scale) -> Vec<Table>,
}

/// All experiments in suite order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "E1",
            title: "seed agreement δ bound",
            claim: "δ = O(r² log(1/ε₁)) distinct owners per neighborhood, independent of Δ (Theorem 3.1)",
            run: seed::e1_delta_bound,
        },
        Experiment {
            id: "E2",
            title: "seed agreement round complexity",
            claim: "SeedAlg takes O(log Δ · log²(1/ε₁)) rounds (Theorem 3.1)",
            run: seed::e2_round_complexity,
        },
        Experiment {
            id: "E3",
            title: "seed spec deterministic conditions",
            claim: "well-formedness, consistency, owner-seed fidelity in every execution; uniform independent seeds (Spec 3.1)",
            run: seed::e3_spec_conformance,
        },
        Experiment {
            id: "E4",
            title: "local broadcast progress",
            claim: "receiver with an active reliable neighbor hears something within t_prog w.p. ≥ 1 − ε₁ (Theorem 4.1)",
            run: broadcast::e4_progress,
        },
        Experiment {
            id: "E5",
            title: "local broadcast acknowledgment",
            claim: "delivery to all reliable neighbors before ack; t_ack = Θ(Δ · polylog) (Theorem 4.1, §1 lower bound)",
            run: broadcast::e5_acknowledgment,
        },
        Experiment {
            id: "E6",
            title: "per-round reception probability",
            claim: "p_u ≥ c₂/(r² log(1/ε₂) log Δ) and p_{u,v} ≥ p_u/Δ' (Lemma 4.2)",
            run: broadcast::e6_lemma42,
        },
        Experiment {
            id: "E7",
            title: "fixed schedules vs the oblivious pump",
            claim: "an oblivious contention pump defeats fixed probability schedules; LBAlg's permuted schedule survives (§1 Discussion)",
            run: baseline::e7_pump_separation,
        },
        Experiment {
            id: "E8",
            title: "oblivious vs adaptive link scheduler",
            claim: "efficient progress is impossible against an adaptive scheduler but feasible against oblivious ones ([11], §2)",
            run: baseline::e8_adaptive_separation,
        },
        Experiment {
            id: "E9",
            title: "true locality in n",
            claim: "time and error guarantees depend on local parameters only: flat as n grows at fixed density (§1)",
            run: locality::e9_locality,
        },
        Experiment {
            id: "E10",
            title: "region-of-goodness dynamics",
            claim: "every region good at phase 1; goodness persists; leaders per region bounded (Lemmas B.2, B.6, B.8)",
            run: seed::e10_goodness,
        },
        Experiment {
            id: "E11",
            title: "abstract MAC layer port",
            claim: "abstract-MAC algorithms (flood, discovery, election) run unchanged over LBAlg on dual graphs (§1, §5)",
            run: mac::e11_amac_port,
        },
        Experiment {
            id: "E12",
            title: "geographic structure lemmas",
            claim: "Δ' ≤ c_r Δ and the grid partition is f-bounded with f(h) = c₁r²h² (Lemmas A.2, A.3)",
            run: geometry::e12_geometry,
        },
        Experiment {
            id: "E13",
            title: "design ablations",
            claim: "seed-agreement amortization (§4.2 remark) cuts preamble overhead; dropping agreement loses the δ schedule bound the analysis needs",
            run: ablation::e13_ablations,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_ordered() {
        let exps = all();
        assert_eq!(exps.len(), 13);
        for (i, e) in exps.iter().enumerate() {
            assert_eq!(e.id, format!("E{}", i + 1));
            assert!(!e.title.is_empty());
            assert!(!e.claim.is_empty());
        }
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 9), 1);
        assert_eq!(Scale::Full.pick(1, 9), 9);
    }
}
