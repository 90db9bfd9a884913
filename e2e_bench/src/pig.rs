//! The Pig workload: the paper's Algorithm-3 script on the default
//! (columnar) engine, checked against the row engine's STORE bytes.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mrmc::{algorithm3_script, register_mrmc_udfs};
use mrmc_mapreduce::dfs::{Dfs, DfsConfig};
use mrmc_pig::{parse_script, PigEngine, PigRunner, Script, UdfRegistry};

use crate::batch::job_metrics;
use crate::measure::{fnv1a, named, peak_rss_mb, span, Trace};
use crate::{corpus, write_spans, Args, Oracle, Rep, TRACED_WALL};

pub const NAME: &str = "pig-alg3";

/// Reads in the corpus (`pig_bench --scale 3`).
const READS: usize = 900;
const WORKERS: usize = 2;
const INPUT: &str = "/in/reads.fa";
const OUTPUTS: [&str; 2] = ["/out/hier", "/out/greedy"];

/// Set-up: DFS load, UDF registry and script parse. Returns the runner
/// and the DFS holding the input.
fn setup(fasta: &[u8], engine: PigEngine) -> (PigRunner, Script, Arc<Dfs>) {
    let dfs = Arc::new(
        Dfs::new(DfsConfig {
            block_size: 64 * 1024,
            replication: 1,
            nodes: 2,
        })
        .expect("valid DFS configuration"),
    );
    dfs.put(INPUT, fasta.to_vec(), false)
        .expect("fresh DFS accepts the input");
    let mut registry = UdfRegistry::with_builtins();
    register_mrmc_udfs(&mut registry);
    let params: HashMap<String, String> = [
        ("INPUT", INPUT),
        ("KMER", "6"),
        ("NUMHASH", "24"),
        ("DIV", "1048583"),
        ("LINK", "average"),
        ("CUTOFF", "0.9"),
        ("OUTPUT1", OUTPUTS[0]),
        ("OUTPUT2", OUTPUTS[1]),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect();
    let script = parse_script(algorithm3_script(), &params).expect("Algorithm 3 parses");
    let mut runner = PigRunner::new(Arc::clone(&dfs), registry).with_engine(engine);
    runner.workers = Some(WORKERS);
    (runner, script, dfs)
}

/// A script stage as the engine timed it: name, wall seconds, shuffle
/// bytes.
type Stage = (String, f64, u64);

/// Runs the script and returns its concatenated STORE outputs with the
/// per-stage `(name, wall, shuffle bytes)`; spans go under `parent`.
fn execute(
    runner: &PigRunner,
    script: &Script,
    dfs: &Dfs,
    parent: Option<(&Trace, usize, u64)>,
) -> Option<(Vec<u8>, Vec<Stage>)> {
    let report = span(parent, "pig.run", || runner.run(script)).ok()?;
    let stored = span(parent, "pig.read_store", || {
        let mut stored = Vec::new();
        for path in OUTPUTS {
            stored.extend_from_slice(&dfs.read(path).ok()?);
        }
        Some(stored)
    })?;
    let stages = report
        .pipeline
        .stages()
        .iter()
        .map(|s| (s.name.clone(), s.wall.as_secs_f64(), s.shuffled_bytes))
        .collect();
    Some((stored, stages))
}

/// A stage name restricted to metric-name characters.
fn sanitise(stage: &str) -> String {
    stage
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The oracle: the row engine's STORE bytes.
pub fn oracle(args: &Args) -> Oracle {
    let fasta = corpus::templated_fasta(READS, args.seed);
    let (runner, script, dfs) = setup(&fasta, PigEngine::Row);
    let (stored, _) =
        execute(&runner, &script, &dfs, None).expect("the row engine runs Algorithm 3");
    Oracle {
        facts: vec![
            ("reads", READS as u64),
            ("fasta_bytes", fasta.len() as u64),
            ("store_bytes", stored.len() as u64),
        ],
        checks: vec![fnv1a(stored)],
        layers: None,
    }
}

/// One repetition on the columnar engine; traced repetitions report
/// each script stage as a layer.
pub fn rep(args: &Args, traced: bool) -> Rep {
    let fasta = corpus::templated_fasta(READS, args.seed);
    let start = Instant::now();
    let (runner, script, dfs) = setup(&fasta, PigEngine::Columnar);
    let setup_s = start.elapsed().as_secs_f64();
    let trace = Trace::default();
    let request = u64::from(std::process::id());
    let root = traced.then(|| trace.open("run", None, request));
    let start = Instant::now();
    let got = execute(&runner, &script, &dfs, root.map(|id| (&trace, id, request)));
    let wall = start.elapsed().as_secs_f64();
    let checks = got
        .iter()
        .map(|(stored, _)| fnv1a(stored.iter().copied()))
        .collect();
    let Some(root) = root else {
        return Rep {
            metrics: job_metrics(setup_s, wall, READS, peak_rss_mb()),
            checks,
        };
    };
    trace.close(root);
    write_spans(&trace, args);
    let stages = got.map(|(_, stages)| stages).unwrap_or_default();
    // The script's stages as the engine timed them; the rest of
    // `PigRunner::run` (LOAD parsing, planning, STORE) is driver time.
    let staged: f64 = stages.iter().map(|(_, w, _)| w).sum();
    let mut metrics = named(&[
        ("pig.driver_s", trace.child_secs(root, "pig.run") - staged),
        ("trace.coverage", trace.coverage(root)),
        (TRACED_WALL, wall),
    ]);
    for (name, w, bytes) in stages {
        let key = format!("pig.{}", sanitise(&name));
        metrics.push((format!("{key}.wall_s"), w));
        metrics.push((format!("{key}.shuffle_bytes"), bytes as f64));
    }
    Rep { metrics, checks }
}
