//! Integration tests of the banded-LSH candidate pipeline: the
//! candidate oracle, dedup completeness, graph exactness and the wire
//! formats. The banded-vs-dense identity and fault-recovery pins live
//! in the workspace root's `tests/banded.rs`.

use mrmc::banded::{banded_candidates, banded_graph_stage, ensure_read_ids_fit};
use mrmc::stages::{sketch_similarity, sketch_stage};
use mrmc::{MrMcConfig, WireFormat};
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_minhash::Sketch;
use mrmc_simulate::huse_16s;

fn corpus(reads: f64, seed: u64) -> Vec<mrmc_seqio::SeqRecord> {
    huse_16s(0.03, reads / 345_000.0, seed).reads
}

fn sketches_of(reads: &[mrmc_seqio::SeqRecord], cfg: &MrMcConfig) -> Vec<Sketch> {
    let mut p = Pipeline::new("test-sketch");
    sketch_stage(reads, cfg, &mut p).expect("sketch stage")
}

/// Stages 1–2 emit exactly the pairs the collision oracle accepts:
/// no false drops (the superset property survives the shuffle) and no
/// duplicates (the dedup stage emits each pair once).
#[test]
fn candidates_match_collision_oracle_and_are_unique() {
    let cfg = MrMcConfig::sixteen_s().banded();
    let reads = corpus(200.0, 11);
    let sketches = sketches_of(&reads, &cfg);

    let mut p = Pipeline::new("test-candidates");
    let candidates = banded_candidates(&sketches, &cfg, &mut p).expect("banded stages");

    let scheme = cfg.banding_scheme();
    let mut oracle = Vec::new();
    for i in 0..sketches.len() {
        for j in (i + 1)..sketches.len() {
            if scheme.collides(&sketches[i], &sketches[j]) {
                oracle.push((i as u32, j as u32));
            }
        }
    }
    assert_eq!(candidates, oracle, "candidate list must equal the oracle");

    let mut deduped = candidates.clone();
    deduped.dedup();
    assert_eq!(deduped.len(), candidates.len(), "no duplicate pairs");
    assert!(candidates.windows(2).all(|w| w[0] < w[1]), "sorted output");
}

/// The sparse graph holds exactly the θ-edges of the dense truth scan:
/// recall 1.0 (pigeonhole guarantee) and precision 1.0 (the verify
/// stage applies the same `sim ≥ θ` test), with identical weights.
#[test]
fn sparse_graph_equals_dense_truth() {
    let cfg = MrMcConfig::sixteen_s().banded();
    let reads = corpus(200.0, 13);
    let sketches = sketches_of(&reads, &cfg);

    let mut p = Pipeline::new("test-graph");
    let graph = banded_graph_stage(&sketches, &cfg, &mut p).expect("banded stages");

    let mut truth = 0usize;
    for i in 0..sketches.len() {
        for j in (i + 1)..sketches.len() {
            let sim = sketch_similarity(&sketches[i], &sketches[j], cfg.estimator);
            if sim >= cfg.theta {
                truth += 1;
                assert_eq!(
                    graph.sim(i, j),
                    (sim as f32) as f64,
                    "edge ({i},{j}) must carry the verified similarity"
                );
            } else {
                assert_eq!(graph.sim(i, j), 0.0, "({i},{j}) is below θ");
            }
        }
    }
    assert_eq!(graph.num_edges(), truth, "recall and precision 1.0");
}

/// The two wire formats are interchangeable where it matters: same
/// candidate set, same verified graph — while the compact encoding
/// moves strictly fewer shuffle bytes through both banding stages.
#[test]
fn raw_and_compact_wire_agree_with_fewer_bytes() {
    let reads = corpus(220.0, 21);
    let compact_cfg = MrMcConfig::sixteen_s().banded();
    assert!(matches!(compact_cfg.wire, WireFormat::Compact { .. }));
    let raw_cfg = compact_cfg.raw_wire();
    let sketches = sketches_of(&reads, &compact_cfg);

    let mut raw_p = Pipeline::new("test-raw-wire");
    let raw = banded_candidates(&sketches, &raw_cfg, &mut raw_p).expect("raw run");
    let mut compact_p = Pipeline::new("test-compact-wire");
    let compact = banded_candidates(&sketches, &compact_cfg, &mut compact_p).expect("compact run");
    assert_eq!(raw, compact, "candidate sets must agree across formats");

    // Stages 0–1 of each pipeline are band-signatures/candidate-dedup.
    for stage in 0..2 {
        let (r, c) = (&raw_p.stages()[stage], &compact_p.stages()[stage]);
        assert!(
            c.shuffled_bytes < r.shuffled_bytes,
            "stage {stage}: compact {} bytes must undercut raw {}",
            c.shuffled_bytes,
            r.shuffled_bytes
        );
    }

    let mut raw_g = Pipeline::new("g-raw");
    let mut compact_g = Pipeline::new("g-compact");
    let graph_raw = banded_graph_stage(&sketches, &raw_cfg, &mut raw_g).expect("raw graph");
    let graph_compact =
        banded_graph_stage(&sketches, &compact_cfg, &mut compact_g).expect("compact graph");
    assert_eq!(graph_raw, graph_compact, "graphs bit-identical");
}

/// The u32 read-id guard: the helper rejects inputs past u32::MAX and
/// accepts everything the shuffle can actually address.
#[test]
fn read_id_guard() {
    assert!(ensure_read_ids_fit(0).is_ok());
    assert!(ensure_read_ids_fit(u32::MAX as usize).is_ok());
    let err = ensure_read_ids_fit(u32::MAX as usize + 1).unwrap_err();
    assert!(err.to_string().contains("u32 read-id space"), "{err}");

    // The pipeline surfaces the same guard (trivially satisfiable
    // here; the guard sits on the entry path of both formats).
    let cfg = MrMcConfig::sixteen_s().banded();
    let mut p = Pipeline::new("test-guard");
    assert!(banded_candidates(&[], &cfg, &mut p).is_ok());
}

/// Degenerate inputs: empty and single-read corpora produce empty
/// graphs without panicking, in both the candidate and graph APIs.
#[test]
fn degenerate_inputs() {
    let cfg = MrMcConfig::sixteen_s().banded();
    for n in [0usize, 1] {
        let reads = corpus(200.0, 3);
        let sketches = sketches_of(&reads[..n.min(reads.len())], &cfg);
        let mut p = Pipeline::new("test-degenerate");
        let candidates = banded_candidates(&sketches, &cfg, &mut p).expect("candidates");
        assert!(candidates.is_empty());
        let graph = banded_graph_stage(&sketches, &cfg, &mut p).expect("graph");
        assert_eq!(graph.num_edges(), 0);
    }
}
