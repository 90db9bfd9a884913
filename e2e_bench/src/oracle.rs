//! Batch oracles, computed once per invocation outside the timed
//! region. They share no code with the banded Map-Reduce path: the
//! θ-edges come from evaluating every pair directly on sketches made
//! here, not from the banding stages.

use mrmc::stages::sketch_similarity;
use mrmc::{Estimator, MrMcConfig};
use mrmc_cluster::{agglomerative, ClusterAssignment, SparseSimGraph};
use mrmc_minhash::sketch::EMPTY_SLOT;
use mrmc_minhash::{MinHasher, Sketch};
use mrmc_seqio::SeqRecord;

/// Sketches of every read with the configured hasher, made in one
/// thread without the Map-Reduce engine.
pub fn sketches(reads: &[SeqRecord], config: &MrMcConfig) -> Vec<Sketch> {
    let hasher = MinHasher::for_kmer_size(config.kmer, config.num_hashes, config.seed);
    reads
        .iter()
        .map(|r| hasher.sketch_sequence(&r.seq).expect("reads longer than k"))
        .collect()
}

/// Every pair `(i, j, sim)` with `i < j` and `sim ≥ θ`, found by
/// visiting all n(n−1)/2 pairs on two threads, sorted by `(i, j)`. A
/// pair is scored with the configured estimator unless too many of its
/// positions already disagree for it to reach θ. Similarities are
/// stored as `f32`, as the banded verify stage does.
pub fn theta_edges(sketches: &[Sketch], config: &MrMcConfig) -> Vec<(u32, u32, f32)> {
    const THREADS: usize = 2;
    assert_eq!(
        config.estimator,
        Estimator::Positional,
        "the early exit below assumes positional agreement"
    );
    let len = config.num_hashes;
    // Positions that may fail to agree while the pair still clears θ.
    let slack = (0..=len)
        .take_while(|&m| (len - m) as f64 / len as f64 >= config.theta)
        .last();
    let degenerate: Vec<bool> = sketches.iter().map(Sketch::is_degenerate).collect();
    let n = sketches.len();
    let mut edges: Vec<(u32, u32, f32)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let degenerate = &degenerate;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    // Interleaved rows balance the triangle between threads.
                    for i in (t..n).step_by(THREADS) {
                        for j in i + 1..n {
                            let maybe = (degenerate[i] && degenerate[j])
                                || slack.is_some_and(|slack| {
                                    within_slack(sketches[i].values(), sketches[j].values(), slack)
                                });
                            if !maybe {
                                continue;
                            }
                            let s = sketch_similarity(&sketches[i], &sketches[j], config.estimator);
                            if s >= config.theta {
                                out.push((i as u32, j as u32, s as f32));
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle thread panicked"))
            .collect()
    });
    edges.sort_unstable_by_key(|&(i, j, _)| (i, j));
    edges
}

/// Whether at most `slack` positions fail to agree (an empty slot
/// never agrees). Stops at the first position past the slack, so the
/// dissimilar majority of pairs costs a few comparisons.
fn within_slack(a: &[u64], b: &[u64], slack: usize) -> bool {
    let mut misses = 0;
    for (&x, &y) in a.iter().zip(b) {
        if x != y || x == EMPTY_SLOT {
            misses += 1;
            if misses > slack {
                return false;
            }
        }
    }
    true
}

/// Algorithm 1 over all θ-pairs: in read order, an unassigned read
/// founds a cluster and absorbs every unassigned read it clears θ with.
pub fn greedy(n: usize, edges: &[(u32, u32, f32)]) -> ClusterAssignment {
    const UNASSIGNED: usize = usize::MAX;
    let mut labels = vec![UNASSIGNED; n];
    let mut next = 0;
    let mut e = 0;
    for i in 0..n {
        // A read unassigned when visited founds a cluster; members never
        // recruit.
        let founder = labels[i] == UNASSIGNED;
        if founder {
            labels[i] = next;
            next += 1;
        }
        while e < edges.len() && edges[e].0 as usize == i {
            let j = edges[e].1 as usize;
            if founder && labels[j] == UNASSIGNED {
                labels[j] = labels[i];
            }
            e += 1;
        }
    }
    ClusterAssignment::from_labels(labels).compact()
}

/// Algorithm 2 on the zero-filled dense matrix of the θ-edges: the
/// oracle any sparse-native linkage must reproduce.
pub fn hierarchical(n: usize, edges: &[(u32, u32, f32)], config: &MrMcConfig) -> ClusterAssignment {
    let graph = SparseSimGraph::from_edges(n, edges.iter().copied());
    let (assignment, _) = agglomerative(&graph.to_condensed(), config.linkage, config.theta);
    assignment.compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc::Mode;
    use mrmc_cluster::greedy_cluster;
    use mrmc_seqio::fasta::read_fasta_bytes;

    fn corpus() -> (Vec<Sketch>, MrMcConfig) {
        let cfg = MrMcConfig::sixteen_s().greedy();
        let reads = read_fasta_bytes(&crate::corpus::huse_fasta(400, 3)).unwrap();
        (sketches(&reads, &cfg), cfg)
    }

    /// The early exit drops only pairs below θ.
    #[test]
    fn theta_edges_equal_a_plain_scan() {
        let (sk, cfg) = corpus();
        let mut want = Vec::new();
        for i in 0..sk.len() {
            for j in i + 1..sk.len() {
                let s = sketch_similarity(&sk[i], &sk[j], cfg.estimator);
                if s >= cfg.theta {
                    want.push((i as u32, j as u32, s as f32));
                }
            }
        }
        assert!(!want.is_empty());
        assert_eq!(theta_edges(&sk, &cfg), want);
    }

    /// The edge-list rule is Algorithm 1 as the cluster crate runs it.
    #[test]
    fn greedy_equals_dense_algorithm_1() {
        let (sk, cfg) = corpus();
        assert_eq!(cfg.mode, Mode::Greedy);
        let dense = greedy_cluster(sk.len(), cfg.theta, |i, j| {
            sketch_similarity(&sk[i], &sk[j], cfg.estimator)
        });
        assert_eq!(greedy(sk.len(), &theta_edges(&sk, &cfg)), dense.compact());
    }
}
