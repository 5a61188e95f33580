//! The dual graph `(G, G')`: reliable links plus an unreliable fringe.
//!
//! Following Section 2 of the paper, the network topology is described by a
//! pair of graphs over the same vertices, `G = (V, E)` (reliable links) and
//! `G' = (V, E')` with `E ⊆ E'`; the edges `E' \ E` are *unreliable* and
//! their per-round presence is decided by a link scheduler.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Index of a graph vertex. The engine assigns process ids separately (the
/// paper's `id()` mapping); `NodeId` is the *vertex*, not the process id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An undirected edge, stored with endpoints ordered so `a <= b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Edge {
    /// Smaller endpoint.
    pub a: NodeId,
    /// Larger endpoint.
    pub b: NodeId,
}

impl Edge {
    /// Creates a normalized undirected edge.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, which the model forbids.
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert_ne!(u, v, "self-loops are not allowed in the dual graph");
        if u.0 <= v.0 {
            Edge { a: u, b: v }
        } else {
            Edge { a: v, b: u }
        }
    }

    /// The endpoint opposite to `x`, or `None` when `x` is not an
    /// endpoint of this edge.
    pub fn try_other(&self, x: NodeId) -> Option<NodeId> {
        if x == self.a {
            Some(self.b)
        } else if x == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// The endpoint opposite to `x`.
    ///
    /// Prefer [`Edge::try_other`] when `x` is not statically known to be
    /// an endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint.
    pub fn other(&self, x: NodeId) -> NodeId {
        self.try_other(x)
            .unwrap_or_else(|| panic!("{x} is not an endpoint of {self:?}"))
    }
}

/// Errors arising when constructing a [`DualGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a vertex index `>= n`.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: usize,
        /// The number of vertices in the graph.
        n: usize,
    },
    /// The same edge appeared in both the reliable set and the extra
    /// (unreliable) set, violating `E' \ E` disjointness.
    DuplicateEdge(Edge),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "edge references vertex {vertex} but graph has {n} vertices")
            }
            GraphError::DuplicateEdge(e) => {
                write!(f, "edge {e:?} listed as both reliable and unreliable")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Flat compressed-sparse-row adjacency: neighbor lists of all vertices
/// concatenated into one contiguous array, with per-vertex offsets.
/// Neighbor scans are cache-linear and return borrowed slices; each
/// per-vertex segment is sorted, so membership tests binary-search.
#[derive(Debug, Clone, PartialEq)]
struct Csr {
    /// `offsets[u]..offsets[u + 1]` indexes `u`'s segment of `targets`.
    offsets: Vec<usize>,
    /// All neighbor lists, concatenated in vertex order.
    targets: Vec<NodeId>,
    /// `ids[k]` is the index, in the edge list the CSR was built from,
    /// of the edge behind slot `targets[k]`. Empty unless requested.
    ids: Vec<u32>,
}

impl Csr {
    /// Builds the CSR from a sorted, duplicate-free edge list over `n`
    /// vertices, recording each slot's edge index when `with_ids`. Each
    /// edge contributes both directions. Segments come out sorted from
    /// the fill alone: `u`'s lower neighbors arrive (in order) from the
    /// edges `(a, u)`, all of which precede the edges `(u, b)` that
    /// supply its higher neighbors (in order).
    fn build(n: usize, edges: &[Edge], with_ids: bool) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edge list must be sorted"
        );
        let mut offsets = vec![0usize; n + 1];
        for e in edges {
            offsets[e.a.0 + 1] += 1;
            offsets[e.b.0 + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut targets = vec![NodeId(0); edges.len() * 2];
        let mut ids = vec![0u32; if with_ids { edges.len() * 2 } else { 0 }];
        let mut cursor = offsets.clone();
        for (j, e) in edges.iter().enumerate() {
            for (from, to) in [(e.a, e.b), (e.b, e.a)] {
                let slot = cursor[from.0];
                targets[slot] = to;
                if with_ids {
                    ids[slot] = u32::try_from(j).expect("edge index exceeds u32");
                }
                cursor[from.0] += 1;
            }
        }
        Csr {
            offsets,
            targets,
            ids,
        }
    }

    /// Merges two CSRs with disjoint, sorted segments into one whose
    /// segments are the sorted unions (the precomputed `G'` adjacency).
    fn merge(n: usize, a: &Csr, b: &Csr) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(a.targets.len() + b.targets.len());
        offsets.push(0);
        for u in 0..n {
            let (mut i, mut j) = (0, 0);
            let (sa, sb) = (a.neighbors(u), b.neighbors(u));
            while i < sa.len() && j < sb.len() {
                if sa[i] < sb[j] {
                    targets.push(sa[i]);
                    i += 1;
                } else {
                    targets.push(sb[j]);
                    j += 1;
                }
            }
            targets.extend_from_slice(&sa[i..]);
            targets.extend_from_slice(&sb[j..]);
            offsets.push(targets.len());
        }
        Csr {
            offsets,
            targets,
            ids: Vec::new(),
        }
    }

    fn neighbors(&self, u: usize) -> &[NodeId] {
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    fn edge_ids(&self, u: usize) -> &[u32] {
        &self.ids[self.offsets[u]..self.offsets[u + 1]]
    }

    /// `max_u |neighbors(u)| + 1`, the degree bound the model hands to
    /// processes.
    fn degree_bound(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0] + 1)
            .max()
            .unwrap_or(1)
    }
}

/// The dual graph `(G, G')` of Section 2.
///
/// Stored as the reliable edge set `E` and the *extra* edge set `E' \ E`,
/// with flat CSR adjacency (per edge class plus the precomputed merged
/// `G'` adjacency) and precomputed degree bounds `Δ`/`Δ'` — the engine's
/// hot path scans neighbors cache-linearly and never recomputes bounds.
/// Construction validates that the two sets are disjoint and in range, so a
/// `DualGraph` value always satisfies the model's structural invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct DualGraph {
    n: usize,
    reliable_csr: Csr,
    extra_csr: Csr,
    all_csr: Csr,
    reliable_edges: Vec<Edge>,
    extra_edges: Vec<Edge>,
    delta: usize,
    delta_prime: usize,
}

impl DualGraph {
    /// Builds a dual graph from `n` vertices, reliable edges `E`, and extra
    /// unreliable edges `E' \ E`.
    ///
    /// Duplicate edges within one list are deduplicated.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is out of range or an edge
    /// appears in both lists.
    pub fn new(
        n: usize,
        reliable: impl IntoIterator<Item = (usize, usize)>,
        extra: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self, GraphError> {
        let mut rel = BTreeSet::new();
        for (u, v) in reliable {
            for &x in &[u, v] {
                if x >= n {
                    return Err(GraphError::VertexOutOfRange { vertex: x, n });
                }
            }
            rel.insert(Edge::new(NodeId(u), NodeId(v)));
        }
        let mut ext = BTreeSet::new();
        for (u, v) in extra {
            for &x in &[u, v] {
                if x >= n {
                    return Err(GraphError::VertexOutOfRange { vertex: x, n });
                }
            }
            let e = Edge::new(NodeId(u), NodeId(v));
            if rel.contains(&e) {
                return Err(GraphError::DuplicateEdge(e));
            }
            ext.insert(e);
        }

        let reliable_edges: Vec<Edge> = rel.into_iter().collect();
        let extra_edges: Vec<Edge> = ext.into_iter().collect();
        let reliable_csr = Csr::build(n, &reliable_edges, false);
        let extra_csr = Csr::build(n, &extra_edges, true);
        let all_csr = Csr::merge(n, &reliable_csr, &extra_csr);
        let delta = reliable_csr.degree_bound();
        let delta_prime = all_csr.degree_bound();
        Ok(DualGraph {
            n,
            reliable_csr,
            extra_csr,
            all_csr,
            reliable_edges,
            extra_edges,
            delta,
            delta_prime,
        })
    }

    /// A graph with only reliable edges (`E' = E`), i.e. the classical
    /// reliable radio network model as a special case.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is out of range.
    pub fn reliable_only(
        n: usize,
        reliable: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self, GraphError> {
        Self::new(n, reliable, std::iter::empty())
    }

    /// Number of vertices `|V|`. The paper calls this `n`; crucially, the
    /// *algorithms* never read it — only analysis code does.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n).map(NodeId)
    }

    /// `N_G(u)`: reliable neighbors of `u`, excluding `u` itself.
    pub fn reliable_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.reliable_csr.neighbors(u.0)
    }

    /// Neighbors of `u` through *extra* (unreliable-only) edges.
    pub fn extra_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.extra_csr.neighbors(u.0)
    }

    /// The index into [`DualGraph::extra_edges`] of each edge behind
    /// [`DualGraph::extra_neighbors`]`(u)`, slot for slot.
    pub fn extra_edge_ids(&self, u: NodeId) -> &[u32] {
        self.extra_csr.edge_ids(u.0)
    }

    /// `N_{G'}(u)`: all neighbors of `u` in `G'`, excluding `u` — a
    /// borrowed, sorted slice of the precomputed merged adjacency.
    pub fn all_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.all_csr.neighbors(u.0)
    }

    /// Whether `{u, v} ∈ E`.
    pub fn is_reliable_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.reliable_csr.neighbors(u.0).binary_search(&v).is_ok()
    }

    /// Whether `{u, v} ∈ E'` (reliable or unreliable).
    pub fn is_any_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.all_csr.neighbors(u.0).binary_search(&v).is_ok()
    }

    /// The reliable edge list `E`.
    pub fn reliable_edges(&self) -> &[Edge] {
        &self.reliable_edges
    }

    /// The extra edge list `E' \ E`.
    pub fn extra_edges(&self) -> &[Edge] {
        &self.extra_edges
    }

    /// `Δ`: the maximum over `u` of `|N_G(u) ∪ {u}|`.
    ///
    /// Processes are assumed to *know* this bound (Section 2), so the
    /// engine passes it to every process at start. Precomputed at
    /// construction; this accessor is free.
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// `Δ'`: the maximum over `u` of `|N_{G'}(u) ∪ {u}|`. Precomputed at
    /// construction; this accessor is free.
    pub fn delta_prime(&self) -> usize {
        self.delta_prime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> DualGraph {
        // 0-1 reliable, 1-2 reliable, 0-2 unreliable.
        DualGraph::new(3, [(0, 1), (1, 2)], [(0, 2)]).unwrap()
    }

    #[test]
    fn adjacency_queries() {
        let g = triangle();
        assert!(g.is_reliable_edge(NodeId(0), NodeId(1)));
        assert!(!g.is_reliable_edge(NodeId(0), NodeId(2)));
        assert!(g.is_any_edge(NodeId(0), NodeId(2)));
        assert!(!g.is_any_edge(NodeId(0), NodeId(0)));
        assert_eq!(g.reliable_neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(g.extra_neighbors(NodeId(0)), &[NodeId(2)]);
        assert_eq!(g.all_neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
    }

    /// Brute-force recomputation of `Δ`, `Δ'`, and the merged adjacency
    /// from the edge lists alone — the CSR precomputation must match it
    /// on every graph shape.
    fn brute_force_check(g: &DualGraph) {
        let mut delta = 1;
        let mut delta_prime = 1;
        for u in g.vertices() {
            let rel: BTreeSet<NodeId> = g
                .reliable_edges()
                .iter()
                .filter_map(|e| e.try_other(u))
                .collect();
            let mut all = rel.clone();
            all.extend(g.extra_edges().iter().filter_map(|e| e.try_other(u)));
            delta = delta.max(rel.len() + 1);
            delta_prime = delta_prime.max(all.len() + 1);
            assert_eq!(
                g.reliable_neighbors(u),
                rel.iter().copied().collect::<Vec<_>>(),
                "reliable adjacency of {u} diverged from the edge list"
            );
            assert_eq!(
                g.all_neighbors(u),
                all.iter().copied().collect::<Vec<_>>(),
                "merged G' adjacency of {u} diverged from the edge list"
            );
            let extra: BTreeSet<NodeId> = all.difference(&rel).copied().collect();
            assert_eq!(
                g.extra_neighbors(u),
                extra.iter().copied().collect::<Vec<_>>(),
                "extra adjacency of {u} diverged from the edge list"
            );
            assert_eq!(
                g.extra_edge_ids(u).len(),
                extra.len(),
                "one edge id per slot"
            );
            for (v, &j) in g.extra_neighbors(u).iter().zip(g.extra_edge_ids(u)) {
                assert_eq!(
                    g.extra_edges()[j as usize],
                    Edge::new(u, *v),
                    "edge id of slot {u}-{v} names the wrong edge"
                );
            }
        }
        assert_eq!(g.delta(), delta, "precomputed delta diverged");
        assert_eq!(g.delta_prime(), delta_prime, "precomputed delta' diverged");
    }

    #[test]
    fn precomputed_bounds_match_brute_force() {
        brute_force_check(&triangle());
        brute_force_check(&DualGraph::new(0, [], []).unwrap());
        brute_force_check(&DualGraph::new(1, [], []).unwrap());
        // A star plus a fringe ring: uneven degrees in both classes.
        brute_force_check(
            &DualGraph::new(
                7,
                (1..7).map(|v| (0, v)),
                (1..7).map(|v| (v, v % 6 + 1)).filter(|(a, b)| a != b),
            )
            .unwrap(),
        );
        // Isolated vertices at both ends of the index range.
        brute_force_check(&DualGraph::new(6, [(2, 3)], [(3, 4)]).unwrap());
    }

    #[test]
    fn degree_bounds() {
        let g = triangle();
        // Node 1 has two reliable neighbors: delta = 3.
        assert_eq!(g.delta(), 3);
        // Every node sees both others in G': delta' = 3.
        assert_eq!(g.delta_prime(), 3);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = DualGraph::new(2, [(0, 5)], []).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { vertex: 5, n: 2 }));
    }

    #[test]
    fn rejects_edge_in_both_sets() {
        let err = DualGraph::new(2, [(0, 1)], [(1, 0)]).unwrap_err();
        assert!(matches!(err, GraphError::DuplicateEdge(_)));
    }

    #[test]
    fn deduplicates_repeated_edges() {
        let g = DualGraph::new(2, [(0, 1), (1, 0)], []).unwrap();
        assert_eq!(g.reliable_edges().len(), 1);
    }

    #[test]
    fn edge_normalization_and_other() {
        let e = Edge::new(NodeId(5), NodeId(2));
        assert_eq!(e.a, NodeId(2));
        assert_eq!(e.try_other(NodeId(2)), Some(NodeId(5)));
        assert_eq!(e.try_other(NodeId(5)), Some(NodeId(2)));
        assert_eq!(e.try_other(NodeId(7)), None);
        // The panicking wrapper still works for known endpoints.
        assert_eq!(e.other(NodeId(2)), NodeId(5));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(NodeId(1), NodeId(1));
    }

    #[test]
    fn empty_graph() {
        let g = DualGraph::new(0, [], []).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.delta(), 1);
    }
}
