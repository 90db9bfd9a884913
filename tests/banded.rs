//! Cross-crate pins of the banded-LSH pipeline: the exactness contract
//! (banded == dense, bit for bit), fault recovery through the
//! combiner-bearing banding stages, with faults injected through the
//! [`Pipeline`], and the driver step's span in a traced run.

use std::sync::Arc;

use mrmc::banded::banded_graph_stage;
use mrmc::stages::sketch_stage;
use mrmc::{Mode, MrMcConfig, MrMcMinH, WireFormat};
use mrmc_mapreduce::chaos::{FaultPlan, Phase};
use mrmc_mapreduce::obs::Category;
use mrmc_mapreduce::pipeline::Pipeline;
use mrmc_mapreduce::{critical_path, Tracer};
use mrmc_minhash::Sketch;
use mrmc_simulate::huse_16s;

fn corpus(reads: f64, seed: u64) -> Vec<mrmc_seqio::SeqRecord> {
    huse_16s(0.03, reads / 345_000.0, seed).reads
}

fn sketches_of(reads: &[mrmc_seqio::SeqRecord], cfg: &MrMcConfig) -> Vec<Sketch> {
    let mut p = Pipeline::new("test-sketch");
    sketch_stage(reads, cfg, &mut p).expect("sketch stage")
}

/// The tentpole contract: on the seed 16S corpus, the banded pipeline
/// produces *bit-identical* cluster assignments to the dense oracle in
/// both clustering modes, at the default auto-tuned scheme.
#[test]
fn banded_clustering_identical_to_dense() {
    let reads = corpus(280.0, 9);
    for mode in [Mode::Greedy, Mode::Hierarchical] {
        let dense = MrMcMinH::new(MrMcConfig {
            mode,
            ..MrMcConfig::sixteen_s()
        })
        .run(&reads)
        .expect("dense run");
        let banded = MrMcMinH::new(
            MrMcConfig {
                mode,
                ..MrMcConfig::sixteen_s()
            }
            .banded(),
        )
        .run(&reads)
        .expect("banded run");
        assert_eq!(
            banded.assignment, dense.assignment,
            "{mode:?}: banded assignments must match dense"
        );
        assert_eq!(banded.num_clusters(), dense.num_clusters());
    }
}

/// Task panics in the banding *reducers* (bucket collection and pair
/// dedup) and the verify mappers must be recovered with a
/// bit-identical graph — the pipeline's new reduce-phase recovery
/// surface.
#[test]
fn reducer_faults_recover_bit_identical() {
    let cfg = MrMcConfig::sixteen_s().banded();
    let reads = corpus(150.0, 17);
    let sketches = sketches_of(&reads, &cfg);

    let mut clean_p = Pipeline::new("test-clean");
    let clean = banded_graph_stage(&sketches, &cfg, &mut clean_p).expect("clean run");

    // Job ordinals under this injector: 0 = band-signatures,
    // 1 = candidate-dedup, 2 = verify.
    let inj = FaultPlan::new()
        .task_panic(0, Phase::Reduce, 0, 2)
        .task_panic(1, Phase::Reduce, 1, 1)
        .task_panic(2, Phase::Map, 0, 1)
        .injector();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut faulty_p = Pipeline::new("test-faulty").faults(Arc::new(inj));
    let faulty = banded_graph_stage(&sketches, &cfg, &mut faulty_p);
    std::panic::set_hook(hook);

    let faulty = faulty.expect("faults within the retry budget must recover");
    assert_eq!(faulty, clean, "recovered graph must be bit-identical");
    assert!(
        faulty_p.total_recovery().tasks_retried >= 4,
        "the injected failures must show up in the ledger"
    );
}

/// Shuffle fetch failures past the retry limit force map re-execution;
/// the re-executed maps re-encode their id runs deterministically, so
/// the retried fetch decodes to identical groups and the final graph
/// is bit-identical — the chaos contract with the compact wire format
/// enabled (both banding stages lose an output).
#[test]
fn fetch_failures_recover_bit_identical_with_compact_wire() {
    let cfg = MrMcConfig::sixteen_s().banded();
    assert!(matches!(cfg.wire, WireFormat::Compact { .. }));
    let reads = corpus(150.0, 23);
    let sketches = sketches_of(&reads, &cfg);

    let mut clean_p = Pipeline::new("test-clean-fetch");
    let clean = banded_graph_stage(&sketches, &cfg, &mut clean_p).expect("clean run");

    // Job ordinals: 0 = band-signatures, 1 = candidate-dedup. Five
    // failures exceed FETCH_RETRY_LIMIT, declaring the map output lost.
    let inj = FaultPlan::new()
        .shuffle_fetch_fail(0, 1, 0, 5)
        .shuffle_fetch_fail(1, 0, 1, 5)
        .injector();
    let mut faulty_p = Pipeline::new("test-faulty-fetch").faults(Arc::new(inj));
    let faulty =
        banded_graph_stage(&sketches, &cfg, &mut faulty_p).expect("fetch failures must recover");
    assert_eq!(faulty, clean, "recovered graph must be bit-identical");
    assert_eq!(
        faulty_p.total_recovery().maps_reexecuted_fetch_fail,
        2,
        "both lost map outputs must be re-executed"
    );
    assert!(faulty_p.total_recovery().shuffle_fetch_retries >= 2);
}

/// A traced banded run records its driver step (linkage or greedy
/// assignment) as one compute span under a ledger job of its own,
/// after the Map-Reduce stages, so the critical path ends on it. The
/// ledger replays and the output equals the untraced run's.
#[test]
fn traced_banded_run_records_driver_span() {
    let reads = corpus(150.0, 31);
    for (mode, name) in [
        (Mode::Hierarchical, "driver:linkage"),
        (Mode::Greedy, "driver:greedy"),
    ] {
        let runner = MrMcMinH::new(
            MrMcConfig {
                mode,
                ..MrMcConfig::sixteen_s()
            }
            .banded(),
        );
        let plain = runner.run(&reads).expect("untraced run");
        let traced_run = |tracer: &Arc<Tracer>| {
            runner
                .run_on(&reads, Pipeline::new("t").traced(Arc::clone(tracer)))
                .expect("traced run")
        };
        let (t1, t2) = (Arc::new(Tracer::new()), Arc::new(Tracer::new()));
        let traced = traced_run(&t1);
        traced_run(&t2);
        assert_eq!(traced.assignment, plain.assignment, "{mode:?}");
        assert_eq!(traced.dendrogram, plain.dendrogram, "{mode:?}");

        let ledger = t1.ledger();
        assert_eq!(ledger.signature(), t2.ledger().signature(), "{mode:?}");
        assert_eq!(ledger.jobs.last().map(String::as_str), Some(name));
        let driver: Vec<_> = ledger.spans.iter().filter(|s| s.name == name).collect();
        assert_eq!(driver.len(), 1, "{mode:?}");
        assert_eq!(driver[0].category, Category::Compute);
        assert_eq!(driver[0].job as usize, ledger.jobs.len() - 1);
        let path = critical_path(&ledger);
        assert_eq!(path.steps.last().map(|s| s.name.as_str()), Some(name));
    }
}
