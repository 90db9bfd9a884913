//! Sparse similarity graphs (CSR adjacency) and the clustering that
//! runs on them.
//!
//! The banded-LSH candidate pipeline emits only the pairs whose
//! verified similarity reaches θ — a near-linear edge set instead of
//! the O(n²) condensed matrix. [`SparseSimGraph`] stores those edges
//! in compressed sparse rows; every absent pair reads as similarity
//! 0.0. Both algorithms here give exactly what their dense versions
//! give on that zero-filled matrix, in O(edges) memory:
//! [`greedy_cluster_sparse`] the same labels as [`greedy_cluster`],
//! and [`agglomerative_sparse`] the same dendrogram and θ-cut as
//! [`agglomerative`] — below θ included, where every merge across
//! absent pairs is priced at similarity 0.
//!
//! [`agglomerative`]: crate::linkage::agglomerative

use crate::assignment::ClusterAssignment;
use crate::greedy::greedy_cluster;
use crate::linkage::{bottom_up, cut_dendrogram, Dendrogram, Linkage, Merge, UnionFind};
use crate::matrix::CondensedMatrix;

/// An undirected similarity graph over `n` items, CSR layout, missing
/// edges read as 0.0.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSimGraph {
    n: usize,
    /// Row offsets into `neighbors`/`sims`, length `n + 1`.
    offsets: Vec<usize>,
    /// Column indices, sorted within each row.
    neighbors: Vec<u32>,
    /// Edge similarities, parallel to `neighbors`.
    sims: Vec<f32>,
}

impl SparseSimGraph {
    /// Build from undirected edges `(i, j, sim)`. Self-loops are
    /// dropped; duplicate pairs keep their first similarity. Panics if
    /// an endpoint is ≥ `n`.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (u32, u32, f32)>,
    ) -> SparseSimGraph {
        // Each undirected edge appears in both endpoints' rows.
        let mut directed: Vec<(u32, u32, f32)> = Vec::new();
        for (i, j, s) in edges {
            assert!(
                (i as usize) < n && (j as usize) < n,
                "edge ({i}, {j}) out of bounds for {n} items"
            );
            if i == j {
                continue;
            }
            directed.push((i, j, s));
            directed.push((j, i, s));
        }
        directed.sort_unstable_by_key(|&(i, j, _)| (i, j));
        directed.dedup_by_key(|&mut (i, j, _)| (i, j));

        let mut offsets = vec![0usize; n + 1];
        for &(i, _, _) in &directed {
            offsets[i as usize + 1] += 1;
        }
        for r in 0..n {
            offsets[r + 1] += offsets[r];
        }
        let mut neighbors = Vec::with_capacity(directed.len());
        let mut sims = Vec::with_capacity(directed.len());
        for (_, j, s) in directed {
            neighbors.push(j);
            sims.push(s);
        }
        SparseSimGraph {
            n,
            offsets,
            neighbors,
            sims,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the 0-item graph.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Edge density relative to the full `n·(n−1)/2` pair set.
    pub fn density(&self) -> f64 {
        let pairs = self.n * self.n.saturating_sub(1) / 2;
        if pairs == 0 {
            0.0
        } else {
            self.num_edges() as f64 / pairs as f64
        }
    }

    /// Similarity of `(i, j)`: the stored edge value, 0.0 when absent,
    /// 1.0 on the diagonal. Panics out of bounds.
    #[inline]
    pub fn sim(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        if i == j {
            return 1.0;
        }
        let row = &self.neighbors[self.offsets[i]..self.offsets[i + 1]];
        match row.binary_search(&(j as u32)) {
            Ok(k) => f64::from(self.sims[self.offsets[i] + k]),
            Err(_) => 0.0,
        }
    }

    /// Neighbours of `i` with their similarities, ascending by index.
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.offsets[i]..self.offsets[i + 1];
        self.neighbors[range.clone()]
            .iter()
            .zip(&self.sims[range])
            .map(|(&j, &s)| (j as usize, f64::from(s)))
    }

    /// Every undirected edge `(i, j, sim)` with `i < j`, sorted.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.n).flat_map(move |i| {
            let range = self.offsets[i]..self.offsets[i + 1];
            self.neighbors[range.clone()]
                .iter()
                .zip(&self.sims[range])
                .filter(move |(&j, _)| (i as u32) < j)
                .map(move |(&j, &s)| (i as u32, j, s))
        })
    }

    /// Materialize the condensed matrix this graph represents, with
    /// 0.0 for every missing pair. O(n²/2) memory: the oracle that
    /// tests compare the sparse algorithms against, never a
    /// production path.
    pub fn to_condensed(&self) -> CondensedMatrix {
        let mut m = CondensedMatrix::build(self.n, |_, _| 0.0);
        for (i, j, s) in self.edges() {
            m.set(i as usize, j as usize, f64::from(s));
        }
        m
    }
}

/// Algorithm 1 over a sparse graph, in O(n + edges): each seed scans
/// its own neighbour row. The labels are those of [`greedy_cluster`]
/// with missing edges read as 0.0, because greedy only ever tests
/// `sim ≥ θ` against the seed. For θ ≤ 0 every missing pair clears θ,
/// so that degenerate case runs the dense sweep.
pub fn greedy_cluster_sparse(graph: &SparseSimGraph, theta: f64) -> ClusterAssignment {
    let n = graph.len();
    if theta <= 0.0 {
        return greedy_cluster(n, theta, |i, j| graph.sim(i, j));
    }
    const UNASSIGNED: usize = usize::MAX;
    let mut labels = vec![UNASSIGNED; n];
    let mut next_label = 0usize;
    for seed in 0..n {
        if labels[seed] != UNASSIGNED {
            continue;
        }
        labels[seed] = next_label;
        for (j, s) in graph.neighbors(seed) {
            // Items below the seed are all assigned already.
            if j > seed && labels[j] == UNASSIGNED && s >= theta {
                labels[j] = next_label;
            }
        }
        next_label += 1;
    }
    ClusterAssignment::from_labels(labels)
}

/// Algorithm 2 over a sparse graph: the dendrogram and θ-cut of
/// [`agglomerative`](crate::linkage::agglomerative) on the zero-filled
/// matrix ([`SparseSimGraph::to_condensed`]), built in O(n + edges)
/// memory without materializing that matrix.
///
/// * Average and complete linkage run the nearest-neighbour chain on
///   the graph's rows, step for step as the dense chain runs on the
///   matrix: the dendrogram is bit-identical.
/// * Single linkage is Kruskal's algorithm over the edges, joining
///   the remaining components at similarity 0: the merge heights and
///   every cut equal those of the dense SLINK, while the merges'
///   representative items may differ.
///
/// Similarities must be non-negative (every estimator's range), so
/// that no edge is farther than an absent pair; panics otherwise.
pub fn agglomerative_sparse(
    graph: &SparseSimGraph,
    linkage: Linkage,
    theta: f64,
) -> (ClusterAssignment, Dendrogram) {
    assert!(
        graph.sims.iter().all(|&s| s >= 0.0),
        "similarities must be non-negative"
    );
    let merges = match linkage {
        Linkage::Single => kruskal(graph),
        Linkage::Complete | Linkage::Average => nn_chain_sparse(graph, linkage),
    };
    let dendro = bottom_up(graph.len(), merges);
    let assignment = cut_dendrogram(&dendro, theta);
    (assignment, dendro)
}

/// Single linkage as a maximum spanning forest of the edges, then one
/// merge at similarity 0 per further component. Each height is the
/// dense SLINK's `1 − (1 − s)` for the spanning edge of similarity `s`.
fn kruskal(graph: &SparseSimGraph) -> Vec<Merge> {
    let n = graph.len();
    let mut edges: Vec<(u32, u32, f32)> = graph.edges().collect();
    edges.sort_by(|x, y| y.2.partial_cmp(&x.2).expect("no NaN"));
    let mut uf = UnionFind::new(n);
    let mut merges = Vec::with_capacity(n.saturating_sub(1));
    for (i, j, s) in edges {
        if uf.union(i as usize, j as usize) {
            merges.push(Merge {
                a: i as usize,
                b: j as usize,
                similarity: 1.0 - (1.0 - f64::from(s)),
            });
        }
    }
    if n > 0 {
        let root0 = uf.find(0);
        for i in 1..n {
            if uf.find(i) == i && i != root0 {
                merges.push(Merge {
                    a: 0,
                    b: i,
                    similarity: 0.0,
                });
            }
        }
    }
    merges
}

/// One cluster's distance row: `(cluster, distance)` for every live
/// cluster whose distance differs from the 1.0 an absent pair reads,
/// ascending by cluster.
type Row = Vec<(u32, f32)>;

/// Distance from a row's owner to `c`; absent entries read 1.0.
fn row_dist(row: &Row, c: usize) -> f32 {
    row.binary_search_by_key(&(c as u32), |e| e.0)
        .map_or(1.0, |p| row[p].1)
}

/// The nearest-neighbour chain with Lance–Williams updates, replaying
/// the dense chain over the zero-filled matrix step for step.
///
/// Exactness rules, each mirroring the dense run:
/// * distances are `(1 − s) as f32`, the value the dense distance copy
///   stores, and an absent pair reads 1.0;
/// * the nearest neighbour is the row minimum, smallest cluster on
///   ties. Non-negative similarities keep every stored distance below
///   1.0, so only an empty row falls back to the absent pairs, whose
///   smallest live cluster is 0 (the merge keeps the smaller cluster,
///   so 0 never dies) or, for cluster 0 itself, a monotone cursor;
/// * the update is computed in f64 and rounded to f32 as in the dense
///   chain. It visits only the union of the two merged rows: a cluster
///   absent from both stays at exactly 1.0 under every formula
///   (`(sk + sd) / (sk + sd)` is exactly 1), and an update that rounds
///   to 1.0 leaves the rows.
fn nn_chain_sparse(graph: &SparseSimGraph, linkage: Linkage) -> Vec<Merge> {
    let n = graph.len();
    let mut rows: Vec<Row> = (0..n)
        .map(|i| {
            graph
                .neighbors(i)
                .map(|(j, s)| (j as u32, (1.0 - s) as f32))
                .filter(|&(_, d)| d != 1.0)
                .collect()
        })
        .collect();
    let mut active = vec![true; n];
    let mut size = vec![1usize; n];
    let mut merges = Vec::with_capacity(n.saturating_sub(1));
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    // Smallest live cluster above 0.
    let mut second = 1usize;

    for _ in 1..n {
        if chain.is_empty() {
            chain.push(0);
        }
        loop {
            let a = *chain.last().expect("chain nonempty");
            let (mut best, mut best_d) = (usize::MAX, f32::INFINITY);
            for &(c, d) in &rows[a] {
                if d < best_d {
                    best = c as usize;
                    best_d = d;
                }
            }
            if best == usize::MAX {
                while !active[second] {
                    second += 1;
                }
                best = if a == 0 { second } else { 0 };
                best_d = 1.0;
            }
            // Reciprocal pair check: prefer the chain predecessor on
            // equal distance.
            if chain.len() >= 2 {
                let prev = chain[chain.len() - 2];
                let d_ab = row_dist(&rows[a], prev);
                if best == prev || d_ab <= best_d {
                    chain.truncate(chain.len() - 2);
                    let (keep, drop) = (a.min(prev), a.max(prev));
                    merges.push(Merge {
                        a: keep,
                        b: drop,
                        similarity: 1.0 - f64::from(d_ab),
                    });
                    let (sk, sd) = (size[keep] as f64, size[drop] as f64);
                    let merged = lance_williams(&mut rows, keep, drop, |dk, dd| match linkage {
                        Linkage::Complete => dk.max(dd),
                        Linkage::Average => (sk * dk + sd * dd) / (sk + sd),
                        Linkage::Single => unreachable!("single linkage runs Kruskal"),
                    });
                    rows[keep] = merged;
                    size[keep] += size[drop];
                    active[drop] = false;
                    break;
                }
            }
            chain.push(best);
        }
    }
    merges
}

/// Fold `drop`'s row into `keep`'s: returns `keep`'s new row and
/// rewrites each neighbour's entries for `keep` and `drop` in place.
/// `update(dk, dd)` is the Lance–Williams formula over f64 distances.
fn lance_williams(
    rows: &mut [Row],
    keep: usize,
    drop: usize,
    update: impl Fn(f64, f64) -> f64,
) -> Row {
    let row_k = std::mem::take(&mut rows[keep]);
    let row_d = std::mem::take(&mut rows[drop]);
    let (keep32, drop32) = (keep as u32, drop as u32);
    let mut merged = Row::with_capacity(row_k.len().max(row_d.len()));
    let (mut k, mut d) = (row_k.iter().peekable(), row_d.iter().peekable());
    loop {
        // The next cluster of the union, with its two distances.
        let (c, dk, dd) = match (k.peek(), d.peek()) {
            (None, None) => break,
            (Some(&&(ck, vk)), Some(&&(cd, vd))) if ck == cd => {
                k.next();
                d.next();
                (ck, vk, vd)
            }
            (Some(&&(ck, vk)), Some(&&(cd, _))) if ck < cd => {
                k.next();
                (ck, vk, 1.0)
            }
            (Some(&&(ck, vk)), None) => {
                k.next();
                (ck, vk, 1.0)
            }
            (_, Some(&&(cd, vd))) => {
                d.next();
                (cd, 1.0, vd)
            }
        };
        if c == keep32 || c == drop32 {
            continue;
        }
        let updated = update(f64::from(dk), f64::from(dd)) as f32;
        let entry = (updated != 1.0).then_some(updated);
        let row_c = &mut rows[c as usize];
        if let Ok(p) = row_c.binary_search_by_key(&drop32, |e| e.0) {
            row_c.remove(p);
        }
        match (row_c.binary_search_by_key(&keep32, |e| e.0), entry) {
            (Ok(p), Some(v)) => row_c[p].1 = v,
            (Ok(p), None) => {
                row_c.remove(p);
            }
            (Err(p), Some(v)) => row_c.insert(p, (keep32, v)),
            (Err(_), None) => {}
        }
        if let Some(v) = entry {
            merged.push((c, v));
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> SparseSimGraph {
        // 0–1 strong, 1–2 strong, 2–3 weak, 3–0 absent.
        SparseSimGraph::from_edges(4, vec![(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.3)])
    }

    #[test]
    fn csr_lookup_and_symmetry() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.sim(0, 1), f64::from(0.9f32));
        assert_eq!(g.sim(1, 0), f64::from(0.9f32));
        assert_eq!(g.sim(0, 3), 0.0);
        assert_eq!(g.sim(2, 2), 1.0);
        let n1: Vec<usize> = g.neighbors(1).map(|(j, _)| j).collect();
        assert_eq!(n1, vec![0, 2]);
    }

    #[test]
    fn duplicate_and_self_edges_handled() {
        let g =
            SparseSimGraph::from_edges(3, vec![(0, 1, 0.5), (1, 0, 0.7), (0, 1, 0.9), (2, 2, 1.0)]);
        assert_eq!(g.num_edges(), 1);
        // First occurrence wins, in both directions.
        assert_eq!(g.sim(0, 1), f64::from(0.5f32));
        assert_eq!(g.sim(1, 0), f64::from(0.5f32));
    }

    #[test]
    fn edges_iterator_round_trips() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.3)]);
        let rebuilt = SparseSimGraph::from_edges(4, edges);
        assert_eq!(rebuilt, g);
    }

    #[test]
    fn to_condensed_zero_fills() {
        let g = diamond();
        let m = g.to_condensed();
        assert_eq!(m.get(0, 1), f64::from(0.9f32));
        assert_eq!(m.get(0, 3), 0.0);
        assert_eq!(m.get(0, 2), 0.0);
    }

    #[test]
    fn greedy_sparse_matches_dense_oracle_above_theta() {
        let g = diamond();
        let sparse = greedy_cluster_sparse(&g, 0.75).compact();
        let dense = greedy_cluster(4, 0.75, |i, j| g.sim(i, j)).compact();
        assert_eq!(sparse, dense);
        assert_eq!(sparse.labels(), &[0, 0, 1, 2]);
    }

    #[test]
    fn agglomerative_sparse_cuts_at_theta() {
        let g = diamond();
        let (a, dendro) = agglomerative_sparse(&g, Linkage::Single, 0.75);
        assert_eq!(a.compact().labels(), &[0, 0, 0, 1]);
        assert_eq!(dendro.merges.len(), 3);
    }

    #[test]
    fn agglomerative_sparse_is_the_zero_filled_dendrogram() {
        let g = diamond();
        for linkage in [Linkage::Complete, Linkage::Average] {
            let dense = crate::linkage::agglomerative(&g.to_condensed(), linkage, 0.5);
            assert_eq!(agglomerative_sparse(&g, linkage, 0.5), dense, "{linkage:?}");
        }
        // Single: Kruskal may name other items than SLINK, but the
        // heights agree to the bit, even where `1 − (1 − s)` is not `s`.
        let tiny = SparseSimGraph::from_edges(4, vec![(0, 1, 1e-12), (1, 2, 0.3), (2, 3, 0.9)]);
        for g in [g, tiny] {
            let (_, sparse) = agglomerative_sparse(&g, Linkage::Single, 0.5);
            let (_, dense) = crate::linkage::agglomerative(&g.to_condensed(), Linkage::Single, 0.5);
            assert_eq!(sparse.heights(), dense.heights());
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_similarity_rejected() {
        let g = SparseSimGraph::from_edges(2, vec![(0, 1, -0.5)]);
        agglomerative_sparse(&g, Linkage::Average, 0.5);
    }

    #[test]
    fn empty_and_singleton() {
        let g = SparseSimGraph::from_edges(0, vec![]);
        assert!(g.is_empty());
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.density(), 0.0);
        let g = SparseSimGraph::from_edges(1, vec![]);
        assert_eq!(g.len(), 1);
        assert_eq!(greedy_cluster_sparse(&g, 0.5).num_clusters(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_edge_rejected() {
        SparseSimGraph::from_edges(2, vec![(0, 2, 0.5)]);
    }
}
