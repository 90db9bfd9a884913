//! The batch workloads: FASTA bytes → parse → sketch → banded
//! candidate stages → linkage or greedy → compacted assignment.
//!
//! Untraced repetitions call the public entry point
//! (`read_fasta_bytes` + `MrMcMinH::run`). Traced repetitions call the
//! layer functions `MrMcMinH::run` is built from, one span each, so a
//! later change to any layer's body is measured without editing this
//! file; the traced assignment must equal the untraced one.

use std::time::{Duration, Instant};

use mrmc::banded::banded_graph_stage;
use mrmc::stages::sketch_stage;
use mrmc::{Mode, MrMcConfig, MrMcMinH};
use mrmc_cluster::{agglomerative_sparse, greedy_cluster_sparse, ClusterAssignment};
use mrmc_mapreduce::pipeline::{Pipeline, StageReport};
use mrmc_seqio::fasta::read_fasta_bytes;

use crate::measure::{hash_labels, median, named, peak_rss_mb, reset_peak_rss, span, Trace};
use crate::{corpus, oracle, write_spans, Args, Oracle, Rep, TRACED_WALL};

/// One batch workload.
pub struct Spec {
    pub name: &'static str,
    pub reads: usize,
    pub mode: Mode,
}

/// Hierarchical average linkage: the driver-side linkage dominates.
pub const HIER: Spec = Spec {
    name: "hier-banded-6k",
    reads: 6_000,
    mode: Mode::Hierarchical,
};

/// Greedy: the Map-Reduce stages and graph assembly dominate.
pub const GREEDY: Spec = Spec {
    name: "greedy-banded-20k",
    reads: 20_000,
    mode: Mode::Greedy,
};

/// Threads the Map-Reduce engine may use.
const WORKERS: usize = 2;

/// Shortest time one set-up sample spans, and samples per repetition.
const SETUP_SAMPLE: Duration = Duration::from_millis(1);
const SETUP_SAMPLES: usize = 21;

fn config(mode: Mode) -> MrMcConfig {
    MrMcConfig {
        mode,
        workers: Some(WORKERS),
        ..MrMcConfig::sixteen_s().banded()
    }
}

/// Set-up: building the runner (configuration validation included).
/// One construction takes well under a microsecond, so each sample
/// times constructions for at least [`SETUP_SAMPLE`], and the median of
/// [`SETUP_SAMPLES`] samples filters out scheduling bursts.
fn setup(cfg: MrMcConfig) -> (MrMcMinH, f64) {
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    loop {
        let start = Instant::now();
        let mut built = 0u32;
        let runner = loop {
            let runner = MrMcMinH::new(std::hint::black_box(cfg));
            built += 1;
            if start.elapsed() >= SETUP_SAMPLE {
                break runner;
            }
            std::hint::black_box(runner);
        };
        samples.push(start.elapsed().as_secs_f64() / f64::from(built));
        if samples.len() == SETUP_SAMPLES {
            return (runner, median(&samples));
        }
    }
}

/// Per-layer figures of one traced run and its assignment.
fn traced(
    cfg: &MrMcConfig,
    fasta: &[u8],
    trace: &Trace,
) -> (Option<ClusterAssignment>, Vec<(String, f64)>) {
    let request = u64::from(std::process::id());
    let root = trace.open("run", None, request);
    let parent = Some((trace, root, request));
    let reads = span(parent, "seqio.parse", || read_fasta_bytes(fasta));
    let mut pipeline = Pipeline::new("e2e");
    let mut linkage_peak = 0.0;
    let mut edges = 0.0;
    let assignment = reads.ok().and_then(|reads| {
        let sketches = span(parent, "mrmc.stages.sketch", || {
            sketch_stage(&reads, cfg, &mut pipeline)
        });
        let graph = span(parent, "mrmc.banded.graph", || {
            banded_graph_stage(sketches.as_ref().ok()?, cfg, &mut pipeline).ok()
        })?;
        edges = graph.num_edges() as f64;
        reset_peak_rss();
        let raw = span(parent, "cluster.sparse.linkage", || match cfg.mode {
            Mode::Greedy => greedy_cluster_sparse(&graph, cfg.theta),
            Mode::Hierarchical => agglomerative_sparse(&graph, cfg.linkage, cfg.theta).0,
        });
        linkage_peak = peak_rss_mb();
        Some(span(parent, "cluster.compact", || raw.compact()))
    });
    let wall = trace.close(root);
    let secs = |name: &str| trace.child_secs(root, name);
    let stage_wall = |name: &str| {
        pipeline
            .stages()
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.wall.as_secs_f64())
    };
    let banded: f64 = ["band-signatures", "candidate-dedup", "candidate-verify"]
        .iter()
        .map(|s| stage_wall(s))
        .sum();
    let verified = pipeline.counter_total("PAIRS_COMPUTED") as f64;
    let mut values = named(&[
        ("seqio.parse_s", secs("seqio.parse")),
        ("mrmc.stages.sketch_s", secs("mrmc.stages.sketch")),
        (
            "mrmc.banded.band-signatures_s",
            stage_wall("band-signatures"),
        ),
        (
            "mrmc.banded.candidate-dedup_s",
            stage_wall("candidate-dedup"),
        ),
        ("mrmc.banded.verify_s", stage_wall("candidate-verify")),
        ("mrmc.banded.driver_s", secs("mrmc.banded.graph") - banded),
        (
            "mrmc.banded.candidates",
            pipeline.counter_total("CANDIDATES_EMITTED") as f64,
        ),
        ("mrmc.banded.edges", edges),
        ("mrmc.banded.verify_yield", edges / verified.max(1.0)),
        ("cluster.sparse.linkage_s", secs("cluster.sparse.linkage")),
        ("cluster.sparse.peak_rss_mb", linkage_peak),
        ("trace.coverage", trace.coverage(root)),
        (TRACED_WALL, wall),
    ]);
    for stage in pipeline.stages() {
        values.extend(stage_metrics(stage));
    }
    (assignment, values)
}

/// `mapreduce.<stage>.*` from a stage report: shuffle volume, busy
/// share of the worker pool (Σ task time / (wall × workers)) and task
/// skew (max / median task time over the stage's map and reduce tasks).
fn stage_metrics(stage: &StageReport) -> Vec<(String, f64)> {
    let tasks: Vec<f64> = stage
        .map_costs()
        .into_iter()
        .chain(stage.reduce_costs())
        .collect();
    let busy = tasks.iter().sum::<f64>() / (stage.wall.as_secs_f64() * WORKERS as f64);
    let max = tasks.iter().copied().fold(0.0, f64::max);
    let skew = max / median(&tasks).max(f64::MIN_POSITIVE);
    let key = |m: &str| format!("mapreduce.{}.{m}", stage.name);
    vec![
        (key("shuffle_bytes"), stage.shuffled_bytes as f64),
        (key("shuffle_pairs"), stage.shuffled_pairs as f64),
        (key("busy_frac"), busy),
        (key("task_skew"), skew),
    ]
}

/// The oracle: every pair evaluated directly, then Algorithm 1 or 2.
pub fn oracle(spec: &Spec, args: &Args) -> Oracle {
    let cfg = config(spec.mode);
    let fasta = corpus::huse_fasta(spec.reads, args.seed);
    let reads = read_fasta_bytes(&fasta).expect("generated FASTA parses");
    let sketches = oracle::sketches(&reads, &cfg);
    let edges = oracle::theta_edges(&sketches, &cfg);
    let expected = match spec.mode {
        Mode::Greedy => oracle::greedy(reads.len(), &edges),
        Mode::Hierarchical => oracle::hierarchical(reads.len(), &edges, &cfg),
    };
    Oracle {
        facts: vec![
            ("reads", reads.len() as u64),
            ("fasta_bytes", fasta.len() as u64),
            ("theta_edges", edges.len() as u64),
            ("clusters", expected.num_clusters() as u64),
        ],
        checks: vec![hash_assignment(&expected)],
        layers: None,
    }
}

fn hash_assignment(a: &ClusterAssignment) -> u64 {
    hash_labels(a.labels().iter().map(|&l| l as u64))
}

/// One repetition: untraced through `MrMcMinH::run`, or traced through
/// the layer functions.
pub fn rep(spec: &Spec, args: &Args, traced_run: bool) -> Rep {
    let cfg = config(spec.mode);
    let fasta = corpus::huse_fasta(spec.reads, args.seed);
    if traced_run {
        let trace = Trace::default();
        let (assignment, metrics) = traced(&cfg, &fasta, &trace);
        write_spans(&trace, args);
        return Rep {
            metrics,
            checks: assignment.iter().map(hash_assignment).collect(),
        };
    }
    let (runner, setup_s) = setup(cfg);
    let start = Instant::now();
    let assignment = read_fasta_bytes(&fasta)
        .ok()
        .and_then(|reads| runner.run(&reads).ok())
        .map(|r| r.assignment);
    let wall = start.elapsed().as_secs_f64();
    Rep {
        metrics: job_metrics(setup_s, wall, spec.reads, peak_rss_mb()),
        checks: assignment.iter().map(hash_assignment).collect(),
    }
}

/// End-to-end metrics of one job over `reads` reads. A job is one
/// submission: every read's reply arrives when the job ends, so both
/// submit percentiles are the job's wall time.
pub fn job_metrics(setup_s: f64, wall: f64, reads: usize, peak_mb: f64) -> Vec<(String, f64)> {
    named(&[
        ("setup_s", setup_s),
        ("wall_s", wall),
        ("reads_per_s", reads as f64 / wall),
        ("submit_p50_ms", wall * 1e3),
        ("submit_p99_ms", wall * 1e3),
        ("peak_rss_mb", peak_mb),
    ])
}
