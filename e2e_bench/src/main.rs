//! `mrmc-e2e-bench` — the repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload hier-banded-6k --seed 42 --seconds 20 --trace 0
//! ```
//!
//! One invocation runs one workload (or `all` of them, one after the
//! other) for `--seconds`. It computes the workload's oracle once, then
//! runs repetitions, each in a fresh child process of this binary so
//! that every repetition starts from an empty heap and its peak RSS
//! describes that repetition alone. Every output is checked against the
//! oracle. Each metric is printed by name with its unit on standard
//! error, and one JSON object is printed as the last line of standard
//! output: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of traced repetitions with `--trace 1` (their spans go to
//! `.bench_out/`). README.md in this directory explains the workloads
//! and which layer metric should move which end-to-end one.

mod batch;
mod corpus;
mod measure;
mod oracle;
mod pig;
mod serve;

use std::process::{exit, Command, Stdio};

use measure::{median_by_name, Budget};

/// The seed the recorded input fingerprints describe.
const DEFAULT_SEED: u64 = 42;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set in a child process: run one repetition, traced or not, and
    /// print its record.
    pub rep: Option<bool>,
}

/// Per-layer figures the parent measures itself after a traced
/// repetition, and whether their outputs were right.
pub type ParentLayers = Box<dyn FnMut() -> (Vec<(String, f64)>, bool)>;

/// What a workload's oracle run produces, outside the timed region.
pub struct Oracle {
    /// Input facts, compared against [`FINGERPRINTS`] at the default seed.
    pub facts: Vec<(&'static str, u64)>,
    /// The check tokens a correct repetition prints, in order.
    pub checks: Vec<u64>,
    pub layers: Option<ParentLayers>,
}

/// What one repetition measured and printed.
#[derive(Default)]
pub struct Rep {
    pub metrics: Vec<(String, f64)>,
    /// One token per checked output unit (hash of the output).
    pub checks: Vec<u64>,
}

struct Workload {
    name: &'static str,
    oracle: fn(&Args) -> Oracle,
    rep: fn(&Args, bool) -> Rep,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: batch::HIER.name,
        oracle: |a| batch::oracle(&batch::HIER, a),
        rep: |a, traced| batch::rep(&batch::HIER, a, traced),
    },
    Workload {
        name: batch::GREEDY.name,
        oracle: |a| batch::oracle(&batch::GREEDY, a),
        rep: |a, traced| batch::rep(&batch::GREEDY, a, traced),
    },
    Workload {
        name: serve::NAME,
        oracle: serve::oracle,
        rep: serve::rep,
    },
    Workload {
        name: pig::NAME,
        oracle: pig::oracle,
        rep: pig::rep,
    },
];

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("reads_per_s", "reads/s"),
    ("submit_p50_ms", "ms"),
    ("submit_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("seqio.parse_s", "s"),
    ("mrmc.stages.sketch_s", "s"),
    ("mrmc.banded.band-signatures_s", "s"),
    ("mrmc.banded.candidate-dedup_s", "s"),
    ("mrmc.banded.verify_s", "s"),
    ("mrmc.banded.driver_s", "s"),
    ("mrmc.banded.candidates", "count"),
    ("mrmc.banded.edges", "count"),
    ("mrmc.banded.verify_yield", "ratio"),
    ("mapreduce.minwise-sketch.shuffle_bytes", "bytes"),
    ("mapreduce.minwise-sketch.shuffle_pairs", "count"),
    ("mapreduce.minwise-sketch.busy_frac", "ratio"),
    ("mapreduce.minwise-sketch.task_skew", "ratio"),
    ("mapreduce.band-signatures.shuffle_bytes", "bytes"),
    ("mapreduce.band-signatures.shuffle_pairs", "count"),
    ("mapreduce.band-signatures.busy_frac", "ratio"),
    ("mapreduce.band-signatures.task_skew", "ratio"),
    ("mapreduce.candidate-dedup.shuffle_bytes", "bytes"),
    ("mapreduce.candidate-dedup.shuffle_pairs", "count"),
    ("mapreduce.candidate-dedup.busy_frac", "ratio"),
    ("mapreduce.candidate-dedup.task_skew", "ratio"),
    ("mapreduce.candidate-verify.shuffle_bytes", "bytes"),
    ("mapreduce.candidate-verify.shuffle_pairs", "count"),
    ("mapreduce.candidate-verify.busy_frac", "ratio"),
    ("mapreduce.candidate-verify.task_skew", "ratio"),
    ("cluster.sparse.linkage_s", "s"),
    ("cluster.sparse.peak_rss_mb", "MiB"),
    ("mrmc.incremental.push_us_per_read", "us"),
    ("mrmc.incremental.new_cluster_frac", "ratio"),
    ("mrmc.incremental.reps_final", "count"),
    ("server.service_p50_us", "us"),
    ("server.service_p99_us", "us"),
    ("server.queue_p99_us", "us"),
    ("server.wire_mean_us", "us"),
    ("server.seed_s", "s"),
    ("pig.driver_s", "s"),
    ("pig.foreach_B.wall_s", "s"),
    ("pig.foreach_B.shuffle_bytes", "bytes"),
    ("pig.foreach_C.wall_s", "s"),
    ("pig.foreach_C.shuffle_bytes", "bytes"),
    ("pig.group_G.wall_s", "s"),
    ("pig.group_G.shuffle_bytes", "bytes"),
    ("pig.foreach_E.wall_s", "s"),
    ("pig.foreach_E.shuffle_bytes", "bytes"),
    ("pig.group_I.wall_s", "s"),
    ("pig.group_I.shuffle_bytes", "bytes"),
    ("pig.foreach_J.wall_s", "s"),
    ("pig.foreach_J.shuffle_bytes", "bytes"),
    ("pig.group_II.wall_s", "s"),
    ("pig.group_II.shuffle_bytes", "bytes"),
    ("pig.foreach_K.wall_s", "s"),
    ("pig.foreach_K.shuffle_bytes", "bytes"),
    ("pig.foreach_L.wall_s", "s"),
    ("pig.foreach_L.shuffle_bytes", "bytes"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Wall seconds of a traced repetition; turned into
/// `trace.overhead_frac` and not reported itself.
pub const TRACED_WALL: &str = "trace.wall_s";

/// Where traced repetitions append their spans.
fn spans_path(workload: &str, seed: u64) -> String {
    format!(".bench_out/{workload}-{seed}.spans.jsonl")
}

/// Appends a traced repetition's spans to the invocation's span file.
pub fn write_spans(trace: &measure::Trace, args: &Args) {
    let path = spans_path(&args.workload, args.seed);
    if let Err(e) = trace.append_to(&path) {
        eprintln!("mrmc-e2e-bench: cannot write {path}: {e}");
    }
}

/// Input facts at [`DEFAULT_SEED`], so a change to the generators or
/// sizes cannot alter a workload's input unnoticed. README.md lists
/// them too.
const FINGERPRINTS: &[(&str, &[(&str, u64)])] = &[
    (
        "hier-banded-6k",
        &[
            ("reads", 6_000),
            ("fasta_bytes", 678_309),
            ("theta_edges", 112_655),
            ("clusters", 2_828),
        ],
    ),
    (
        "greedy-banded-20k",
        &[
            ("reads", 20_000),
            ("fasta_bytes", 2_273_769),
            ("theta_edges", 1_253_556),
            ("clusters", 8_665),
        ],
    ),
    (
        "serve-16s",
        &[
            ("reads", 36_000),
            ("fasta_bytes", 4_091_103),
            ("seeded_reps", 9_186),
            ("clusters", 15_828),
        ],
    ),
    (
        "pig-alg3",
        &[
            ("reads", 900),
            ("fasta_bytes", 946_467),
            ("store_bytes", 22_768),
        ],
    ),
];

fn usage(msg: &str) -> ! {
    eprintln!("mrmc-e2e-bench: {msg}");
    eprintln!(
        "usage: mrmc-e2e-bench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value {value:?} for {flag}")))
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        rep: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse(&flag, &value),
            "--seconds" => args.seconds = parse(&flag, &value),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--rep" => args.rep = Some(value == "traced"),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    args
}

/// Runs one repetition in a child process and reads its record; `None`
/// if the child failed or printed something unreadable.
fn spawn_rep(workload: &Workload, args: &Args, traced: bool) -> Option<Rep> {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let output = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--rep", if traced { "traced" } else { "untraced" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !output.status.success() {
        eprintln!("mrmc-e2e-bench: repetition failed: {}", output.status);
        return None;
    }
    let mut rep = Rep::default();
    for line in String::from_utf8(output.stdout).ok()?.lines() {
        let (key, value) = line.split_once(' ')?;
        if key == "check" {
            rep.checks.push(value.parse().ok()?);
        } else {
            rep.metrics.push((key.to_string(), value.parse().ok()?));
        }
    }
    Some(rep)
}

/// Prints a repetition's record for the parent.
fn print_rep(rep: &Rep) {
    for (name, value) in &rep.metrics {
        println!("{name} {value}");
    }
    for token in &rep.checks {
        println!("check {token}");
    }
}

/// The value of metric `name`; 0 if absent.
fn value(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// What the parent measured over a workload's repetitions.
struct Measured {
    oracle: Oracle,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Parent side: the oracle, then repetitions until the budget is spent.
/// With `--trace 1` every untraced repetition is followed by a traced
/// one; the pair gives the tracing overhead.
fn measure(workload: &Workload, args: &Args) -> Measured {
    let started = std::time::Instant::now();
    let mut oracle = (workload.oracle)(args);
    eprintln!(
        "  inputs and oracle took {:.2} s",
        started.elapsed().as_secs_f64()
    );
    if args.trace {
        // A fresh span file per invocation; a missing one is fine.
        let _ = std::fs::remove_file(spans_path(workload.name, args.seed));
    }
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut untraced: Vec<Vec<(String, f64)>> = Vec::new();
    let mut traced: Vec<Vec<(String, f64)>> = Vec::new();
    let kinds: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut budget = Budget::new(args.seconds, if args.trace { 2 } else { 3 });
    while budget.next() {
        for &kind in kinds {
            let rep = spawn_rep(workload, args, kind).unwrap_or_default();
            let units = oracle.checks.len().max(rep.checks.len());
            attempted += units as u64;
            failed += (0..units)
                .filter(|&i| oracle.checks.get(i) != rep.checks.get(i))
                .count() as u64;
            let mut metrics = rep.metrics;
            let wall = if kind { TRACED_WALL } else { "wall_s" };
            if let Some((_, secs)) = metrics.iter().find(|(n, _)| n == wall) {
                eprintln!(
                    "  {} repetition: {secs:.3} s",
                    if kind { "traced" } else { "untraced" }
                );
            }
            if kind {
                if let Some(layers) = oracle.layers.as_mut() {
                    let (values, ok) = layers();
                    attempted += 1;
                    failed += u64::from(!ok);
                    metrics.extend(values);
                }
                traced.push(metrics);
            } else {
                untraced.push(metrics);
            }
        }
    }
    let metrics = if args.trace {
        let untraced = median_by_name(&untraced);
        let mut m = median_by_name(&traced);
        let overhead = value(&m, TRACED_WALL) / value(&untraced, "wall_s") - 1.0;
        m.retain(|(n, _)| n != TRACED_WALL);
        m.push(("trace.overhead_frac".to_string(), overhead));
        m
    } else {
        median_by_name(&untraced)
    };
    Measured {
        oracle,
        attempted,
        failed,
        metrics,
    }
}

/// Number as JSON: full precision, never NaN or infinite.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs one workload and prints its result line; returns whether
/// every output was correct.
fn report(workload: &Workload, args: &Args) -> bool {
    eprintln!(
        "mrmc-e2e-bench: {} seed {} for {} s, trace {}",
        workload.name, args.seed, args.seconds, args.trace as u8
    );
    let m = measure(workload, args);
    for (name, _) in &m.metrics {
        if !END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name) {
            eprintln!("mrmc-e2e-bench: {name} is not declared in BENCHMARK.json; not reported");
        }
    }
    let mut correct = m.failed == 0 && m.attempted > 0;
    for (fact, value) in &m.oracle.facts {
        eprintln!("  input {fact:<28} {value}");
    }
    if args.seed == DEFAULT_SEED {
        if let Some((_, want)) = FINGERPRINTS.iter().find(|(n, _)| *n == workload.name) {
            for (fact, value) in &m.oracle.facts {
                let recorded = want.iter().find(|(f, _)| f == fact).map(|(_, v)| *v);
                if recorded != Some(*value) {
                    eprintln!(
                        "mrmc-e2e-bench: input drift: {fact} = {value}, fingerprint says {recorded:?}"
                    );
                    correct = false;
                }
            }
        }
    }
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let value = value(&m.metrics, name);
        let shown = if value != 0.0 && value.abs() < 1e-3 {
            format!("{value:.4e}")
        } else {
            format!("{value:.6}")
        };
        eprintln!("  {name:<44} {shown:>18} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    eprintln!(
        "  attempted {} failed {} correct {correct}",
        m.attempted, m.failed
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        fields.join(", ")
    );
    correct
}

fn main() {
    let args = parse_args();
    let chosen: Vec<&Workload> = match WORKLOADS.iter().find(|w| w.name == args.workload) {
        Some(w) => vec![w],
        None if args.workload == "all" && args.rep.is_none() => WORKLOADS.iter().collect(),
        None => usage(&format!("unknown workload {:?}", args.workload)),
    };
    if let Some(traced) = args.rep {
        print_rep(&(chosen[0].rep)(&args, traced));
        return;
    }
    let mut all_correct = true;
    for workload in chosen {
        all_correct &= report(workload, &args);
    }
    if !all_correct {
        eprintln!("mrmc-e2e-bench: some outputs were wrong");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root names exactly the
    /// workloads and metrics this binary reports, with the same units.
    #[test]
    fn benchmark_json_matches_declared_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        for w in WORKLOADS {
            assert!(
                manifest.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "{entry}");
        }
        let declared = WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len();
        assert_eq!(manifest.matches("\"name\": ").count(), declared);
    }

    #[test]
    fn every_workload_has_a_fingerprint() {
        for w in WORKLOADS {
            assert!(FINGERPRINTS.iter().any(|(n, _)| *n == w.name), "{}", w.name);
        }
    }
}
