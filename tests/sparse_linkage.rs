//! The sparse clustering kernels against their zero-filled dense
//! oracles on seeded random graphs: `agglomerative_sparse` must give
//! what `agglomerative(&graph.to_condensed(), ..)` gives, and
//! `greedy_cluster_sparse` what `greedy_cluster` gives with missing
//! edges read as 0.0.
//!
//! Similarities are quantised to a few levels so that equal distances
//! (and therefore the tie-breaking rules) are common, and some nodes
//! are left without edges.

use mrmc_minh_suite::cluster::{
    agglomerative, agglomerative_sparse, greedy_cluster, greedy_cluster_sparse, Linkage,
    SparseSimGraph,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRAPHS: u64 = 1500;
const THETAS: [f64; 4] = [0.3, 0.5, 0.75, 0.95];

/// A random graph on up to 40 nodes: edge density, quantisation step
/// and the share of isolated nodes all vary with the seed.
fn random_graph(seed: u64) -> SparseSimGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(0..=40usize);
    let density = [0.05, 0.2, 0.5, 0.9][rng.random_range(0..4usize)];
    let levels = [2u32, 4, 10, 20, 100][rng.random_range(0..5usize)];
    let isolated: Vec<bool> = (0..n).map(|_| rng.random_range(0..6u32) == 0).collect();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if isolated[i] || isolated[j] || rng.random::<f64>() >= density {
                continue;
            }
            let level = rng.random_range(0..=levels);
            edges.push((i as u32, j as u32, level as f32 / levels as f32));
        }
    }
    SparseSimGraph::from_edges(n, edges)
}

#[test]
fn agglomerative_sparse_matches_zero_filled_dense() {
    for seed in 0..GRAPHS {
        let graph = random_graph(seed);
        let dense = graph.to_condensed();
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            for theta in THETAS {
                let (sparse_cut, sparse_tree) = agglomerative_sparse(&graph, linkage, theta);
                let (dense_cut, dense_tree) = agglomerative(&dense, linkage, theta);
                let case = format!("seed {seed}, n {}, {linkage:?}, θ {theta}", graph.len());
                if linkage == Linkage::Single {
                    // Kruskal and SLINK may name different items per
                    // merge; the heights and the partition agree.
                    assert_eq!(sparse_tree.n, dense_tree.n, "{case}");
                    assert_eq!(sparse_tree.heights(), dense_tree.heights(), "{case}");
                } else {
                    assert_eq!(sparse_tree, dense_tree, "{case}");
                }
                assert_eq!(sparse_cut.compact(), dense_cut.compact(), "{case}");
            }
        }
    }
}

#[test]
fn greedy_sparse_matches_zero_filled_dense() {
    for seed in 0..GRAPHS {
        let graph = random_graph(seed);
        for theta in [0.0].into_iter().chain(THETAS) {
            let sparse = greedy_cluster_sparse(&graph, theta);
            let dense = greedy_cluster(graph.len(), theta, |i, j| graph.sim(i, j));
            assert_eq!(sparse, dense, "seed {seed}, θ {theta}");
        }
    }
}
