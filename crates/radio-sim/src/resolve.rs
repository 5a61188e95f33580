//! Collision-resolved reception, factored out of the engine.
//!
//! These free functions turn one round's transmit decisions into the
//! per-listener reception state the collision rule dictates: after a
//! call, `tx_neighbors[u]` counts `u`'s transmitting neighbors in the
//! round topology (reliable edges plus the scheduler's selection of
//! extra edges) and `last_sender[u]` names the unique sender whenever
//! that count is exactly 1. A listener `u` then receives iff
//! `tx_neighbors[u] == 1` — the Section 2 rule with no collision
//! detection.
//!
//! [`SimChannel`](crate::channel::SimChannel) calls these for the
//! engine's reception step. A randomized schedule that offers per-edge
//! coins ([`EdgeCoins`]) is resolved over the reliable edges first and
//! then by `scatter_extra_coins`, which draws only the coins of edges
//! from a transmitter to a listener.
//!
//! `last_sender` needs no reset between rounds: it is only read where
//! `tx_neighbors` is nonzero, which implies a write in the same call.

use crate::graph::{DualGraph, NodeId};
use crate::scheduler::{EdgeCoins, EdgeSelection};
use rand::Rng;

/// The scatter-form resolution: walk each transmitter's neighborhood,
/// accumulating into `tx_neighbors`/`last_sender`.
/// O(Σ deg(transmitter)); allocation-free — the zero-alloc steady-state
/// path of the serial engine.
///
/// `tx_list` must list exactly the vertices `v` with `transmitting[v]`,
/// in ascending order (the engine builds it that way); `tx_neighbors`
/// and `last_sender` must have one slot per vertex.
pub fn resolve_receptions_serial(
    graph: &DualGraph,
    selection: &EdgeSelection,
    transmitting: &[bool],
    tx_list: &[usize],
    tx_neighbors: &mut [u32],
    last_sender: &mut [NodeId],
) {
    tx_neighbors.fill(0);
    for &v in tx_list {
        for &u in graph.reliable_neighbors(NodeId(v)) {
            tx_neighbors[u.0] += 1;
            last_sender[u.0] = NodeId(v);
        }
    }
    let mut apply_edge = |a: NodeId, b: NodeId| {
        if transmitting[a.0] {
            tx_neighbors[b.0] += 1;
            last_sender[b.0] = a;
        }
        if transmitting[b.0] {
            tx_neighbors[a.0] += 1;
            last_sender[a.0] = b;
        }
    };
    match selection {
        EdgeSelection::All => {
            for e in graph.extra_edges() {
                apply_edge(e.a, e.b);
            }
        }
        EdgeSelection::None => {}
        EdgeSelection::Subset(edges) => {
            for e in edges {
                debug_assert!(
                    graph.extra_edges().binary_search(e).is_ok(),
                    "scheduler returned edge {e:?} outside E' \\ E"
                );
                apply_edge(e.a, e.b);
            }
        }
    }
}

/// The gather-form resolution, fanned out over `shards` disjoint vertex
/// ranges: each shard counts the transmitting neighbors of its own
/// vertices against the read-only CSR adjacency and writes only its own
/// slice of `tx_neighbors`/`last_sender`, so the result is
/// byte-identical to the serial scatter by construction — when exactly
/// one neighbor transmits, both forms record that unique sender, and
/// `last_sender` is never read otherwise. Per-round `Subset` selections
/// are applied serially on top (they are sparse; the O(n + m) gather is
/// the scalable part).
///
/// `shard_busy` (when telemetry is on) receives each worker chunk's
/// busy nanoseconds, one pre-allocated slot per shard — timing is
/// taken inside the worker, so the slots measure compute skew, not
/// spawn/join overhead.
pub fn resolve_receptions_sharded(
    graph: &DualGraph,
    selection: &EdgeSelection,
    transmitting: &[bool],
    shards: usize,
    tx_neighbors: &mut [u32],
    last_sender: &mut [NodeId],
    shard_busy: Option<&mut [u64]>,
) {
    let n = graph.len();
    let shards = shards.min(n.max(1));
    let chunk = n.div_ceil(shards);
    let gather_extra = matches!(selection, EdgeSelection::All);
    std::thread::scope(|s| {
        let mut tx_rest: &mut [u32] = tx_neighbors;
        let mut ls_rest: &mut [NodeId] = last_sender;
        let mut busy_rest: &mut [u64] = shard_busy.unwrap_or(&mut []);
        let mut base = 0usize;
        while !tx_rest.is_empty() {
            let take = chunk.min(tx_rest.len());
            let (tx_chunk, tx_tail) = tx_rest.split_at_mut(take);
            let (ls_chunk, ls_tail) = ls_rest.split_at_mut(take);
            tx_rest = tx_tail;
            ls_rest = ls_tail;
            let busy_slot = if busy_rest.is_empty() {
                None
            } else {
                let (head, tail) = std::mem::take(&mut busy_rest).split_at_mut(1);
                busy_rest = tail;
                Some(&mut head[0])
            };
            let lo = base;
            base += take;
            s.spawn(move || {
                let span = telemetry::Stopwatch::armed(busy_slot.is_some());
                for (i, (count, sender)) in
                    tx_chunk.iter_mut().zip(ls_chunk.iter_mut()).enumerate()
                {
                    let u = NodeId(lo + i);
                    let mut c = 0u32;
                    let mut from = NodeId(0);
                    for &v in graph.reliable_neighbors(u) {
                        if transmitting[v.0] {
                            c += 1;
                            from = v;
                        }
                    }
                    if gather_extra {
                        for &v in graph.extra_neighbors(u) {
                            if transmitting[v.0] {
                                c += 1;
                                from = v;
                            }
                        }
                    }
                    *count = c;
                    *sender = from;
                }
                if let Some(slot) = busy_slot {
                    *slot += span.peek();
                }
            });
        }
    });
    if let EdgeSelection::Subset(edges) = selection {
        for e in edges {
            debug_assert!(
                graph.extra_edges().binary_search(e).is_ok(),
                "scheduler returned edge {e:?} outside E' \\ E"
            );
            if transmitting[e.a.0] {
                tx_neighbors[e.b.0] += 1;
                last_sender[e.b.0] = e.a;
            }
            if transmitting[e.b.0] {
                tx_neighbors[e.a.0] += 1;
                last_sender[e.a.0] = e.b;
            }
        }
    }
}

/// The coins of a randomized schedule, drawn on demand and at most once
/// per round: `mask[b]` holds the coins of extra edges `8b..8b + 8` (one
/// ChaCha block of 16 keystream words) and is valid iff `stamp[b]` is
/// the current round's stamp. Each [`scatter_extra_coins`] call takes a
/// fresh stamp, so a mask left by an earlier round, or by an earlier
/// epoch's graph, never passes for this round's. Sized on first use, so
/// the steady state never allocates.
#[derive(Debug, Default)]
pub(crate) struct CoinCache {
    round: u64,
    stamp: Vec<u64>,
    mask: Vec<u8>,
    #[cfg(test)]
    blocks_drawn: u64,
}

impl CoinCache {
    /// Whether extra edge `j` is present this round, drawing its block's
    /// eight coins from `coins` unless this round already did.
    fn present(&mut self, coins: &mut EdgeCoins, j: usize) -> bool {
        let b = j / 8;
        if self.stamp[b] != self.round {
            coins.stream.set_word_pos(16 * b as u128);
            let mut bits = 0u8;
            for k in 0..8 {
                bits |= u8::from(coins.stream.gen_bool(coins.p)) << k;
            }
            self.mask[b] = bits;
            self.stamp[b] = self.round;
            #[cfg(test)]
            {
                self.blocks_drawn += 1;
            }
        }
        self.mask[b] >> (j % 8) & 1 == 1
    }
}

/// Adds the extra-edge receptions of a round whose selection is
/// `coins`, on top of a reliable-only resolution
/// ([`EdgeSelection::None`]). For each transmitter `v` and each extra
/// neighbor `u` of `v` that listens, the edge's coin decides whether `v`
/// counts at `u`. Every listener then holds the count and sender a
/// resolution over `coins.select(graph)` gives it; a transmitter's own
/// count omits its transmitting extra neighbors, which is never read
/// (transmitters do not listen). Cost: O(Σ extra deg(transmitter)) plus
/// at most one ChaCha block per 8 extra edges.
pub(crate) fn scatter_extra_coins(
    graph: &DualGraph,
    mut coins: EdgeCoins,
    cache: &mut CoinCache,
    transmitting: &[bool],
    tx_list: &[usize],
    tx_neighbors: &mut [u32],
    last_sender: &mut [NodeId],
) {
    // Stamps start at 0, so the first round's stamp is 1.
    cache.round += 1;
    let blocks = graph.extra_edges().len().div_ceil(8);
    if cache.stamp.len() < blocks {
        cache.stamp.resize(blocks, 0);
        cache.mask.resize(blocks, 0);
    }
    for &v in tx_list {
        let v = NodeId(v);
        for (&u, &j) in graph.extra_neighbors(v).iter().zip(graph.extra_edge_ids(v)) {
            if !transmitting[u.0] && cache.present(&mut coins, j as usize) {
                tx_neighbors[u.0] += 1;
                last_sender[u.0] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> (DualGraph, Vec<bool>, Vec<usize>) {
        // Path 0-1-2-3 with extra edges (0,2) and (1,3); 0 and 2 transmit.
        let g = DualGraph::new(4, [(0, 1), (1, 2), (2, 3)], [(0, 2), (1, 3)]).unwrap();
        let transmitting = vec![true, false, true, false];
        let tx_list = vec![0, 2];
        (g, transmitting, tx_list)
    }

    #[test]
    fn serial_counts_follow_the_collision_rule() {
        let (g, transmitting, tx_list) = arena();
        let mut counts = vec![0u32; 4];
        let mut senders = vec![NodeId(0); 4];
        resolve_receptions_serial(
            &g,
            &EdgeSelection::None,
            &transmitting,
            &tx_list,
            &mut counts,
            &mut senders,
        );
        // 1 hears both 0 and 2 (collision); 3 hears only 2 (delivery).
        assert_eq!(counts, vec![0, 2, 0, 1]);
        assert_eq!(senders[3], NodeId(2));

        resolve_receptions_serial(
            &g,
            &EdgeSelection::All,
            &transmitting,
            &tx_list,
            &mut counts,
            &mut senders,
        );
        // Extra edge (0,2) adds nothing for listeners (both transmit);
        // extra edge (1,3) is listener-listener. But 1 also hears 0 and 2
        // reliably, and 0 hears 2 over the extra edge — though 0 is a
        // transmitter, the count is still maintained.
        assert_eq!(counts[1], 2);
        assert_eq!(counts[3], 1);
    }

    #[test]
    fn sharded_matches_serial_for_every_shard_count() {
        let (g, transmitting, tx_list) = arena();
        for selection in [
            EdgeSelection::None,
            EdgeSelection::All,
            EdgeSelection::subset(g.extra_edges().to_vec()),
        ] {
            let mut counts = vec![0u32; 4];
            let mut senders = vec![NodeId(0); 4];
            resolve_receptions_serial(
                &g,
                &selection,
                &transmitting,
                &tx_list,
                &mut counts,
                &mut senders,
            );
            for shards in [1, 2, 3, 7] {
                let mut c2 = vec![0u32; 4];
                let mut s2 = vec![NodeId(0); 4];
                resolve_receptions_sharded(
                    &g,
                    &selection,
                    &transmitting,
                    shards,
                    &mut c2,
                    &mut s2,
                    None,
                );
                assert_eq!(counts, c2, "shards = {shards}");
                // Senders only need to agree where the count is 1.
                for u in 0..4 {
                    if counts[u] == 1 {
                        assert_eq!(senders[u], s2[u], "u = {u}, shards = {shards}");
                    }
                }
            }
        }
    }

    /// A ring of reliable edges plus chords `(i, i + 2)` and `(i, i + 5)`
    /// as extra edges: 2n extra edges, spread over many coin blocks.
    fn chorded_ring(n: usize) -> DualGraph {
        let extra = (0..n).flat_map(|i| [(i, (i + 2) % n), (i, (i + 5) % n)]);
        DualGraph::new(n, (0..n).map(|i| (i, (i + 1) % n)), extra).unwrap()
    }

    /// Transmit patterns from one sender to every vertex.
    fn patterns(n: usize) -> Vec<Vec<bool>> {
        let mut out = vec![
            (0..n).map(|v| v == 3).collect(),
            (0..n).map(|v| v % 7 == 0).collect(),
            (0..n).map(|v| v % 2 == 1).collect(),
            (0..n).map(|v| v != 5).collect(),
            vec![true; n],
        ];
        out.push(out[2].iter().map(|t| !t).collect());
        out
    }

    #[test]
    fn coin_scatter_matches_serial_over_the_eager_subset() {
        use crate::scheduler::{BernoulliEdges, EpochRandomEdges, LinkScheduler};
        let g = chorded_ring(37);
        let n = g.len();
        let mut schedulers: Vec<Box<dyn LinkScheduler>> = vec![
            Box::new(BernoulliEdges::new(0.5, 3)),
            Box::new(BernoulliEdges::new(0.1, 4)),
            Box::new(BernoulliEdges::new(1.0, 5)),
            Box::new(EpochRandomEdges::new(3, 0.5, 6)),
        ];
        for sched in &mut schedulers {
            // One cache across all rounds, as the channel keeps it.
            let mut cache = CoinCache::default();
            for round in 1..=12u64 {
                let transmitting = &patterns(n)[round as usize % 6];
                let tx_list: Vec<usize> = (0..n).filter(|&v| transmitting[v]).collect();
                let mut counts = vec![0u32; n];
                let mut senders = vec![NodeId(0); n];
                resolve_receptions_serial(
                    &g,
                    &sched.extra_edges(round, &g),
                    transmitting,
                    &tx_list,
                    &mut counts,
                    &mut senders,
                );
                let mut c2 = vec![7u32; n];
                let mut s2 = vec![NodeId(0); n];
                resolve_receptions_serial(
                    &g,
                    &EdgeSelection::None,
                    transmitting,
                    &tx_list,
                    &mut c2,
                    &mut s2,
                );
                let coins = sched
                    .edge_coins(round)
                    .expect("randomized schedulers offer coins");
                scatter_extra_coins(
                    &g,
                    coins,
                    &mut cache,
                    transmitting,
                    &tx_list,
                    &mut c2,
                    &mut s2,
                );
                for u in (0..n).filter(|&u| !transmitting[u]) {
                    let name = sched.name();
                    assert_eq!(counts[u], c2[u], "{name} round {round} listener {u}");
                    if counts[u] == 1 {
                        assert_eq!(senders[u], s2[u], "{name} round {round} listener {u}");
                    }
                }
            }
        }
    }

    #[test]
    fn coin_cache_draws_each_block_at_most_once_per_round() {
        use crate::scheduler::{BernoulliEdges, LinkScheduler};
        let g = chorded_ring(61);
        let n = g.len();
        let m = g.extra_edges().len();
        let sched = BernoulliEdges::new(0.5, 9);
        let mut cache = CoinCache::default();
        let mut counts = vec![0u32; n];
        let mut senders = vec![NodeId(0); n];
        for (round, transmitting) in (1u64..).zip(patterns(n)) {
            let tx_list: Vec<usize> = (0..n).filter(|&v| transmitting[v]).collect();
            // The blocks holding a transmitter-to-listener edge's coin.
            let mut needed = std::collections::BTreeSet::new();
            for &v in &tx_list {
                let v = NodeId(v);
                for (u, j) in g.extra_neighbors(v).iter().zip(g.extra_edge_ids(v)) {
                    if !transmitting[u.0] {
                        needed.insert(j / 8);
                    }
                }
            }
            let before = cache.blocks_drawn;
            scatter_extra_coins(
                &g,
                sched.edge_coins(round).expect("bernoulli offers coins"),
                &mut cache,
                &transmitting,
                &tx_list,
                &mut counts,
                &mut senders,
            );
            let drawn = cache.blocks_drawn - before;
            assert_eq!(drawn, needed.len() as u64, "round {round}");
            assert!(
                drawn <= m.div_ceil(8) as u64,
                "round {round}: {drawn} blocks"
            );
        }
    }
}
