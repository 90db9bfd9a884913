//! `shuffle_bench` — the sort-merge shuffle microbench.
//!
//! Runs the same shuffle-heavy word-count-shaped job (short string
//! keys, ~256 values per key, `--scale 1` = 1M pairs, 8 reducers)
//! through two data planes:
//!
//! * **merged** — the engine's sort-merge shuffle (map-side grouped
//!   sorted runs, move-based barrier, k-way merge reduce);
//! * **legacy** — the pre-overhaul plane, reimplemented here verbatim:
//!   every map attempt clones its chunk, partitions are gathered by a
//!   single-threaded flat `extend`, and every reduce task clones its
//!   whole partition, stable-sorts it, and groups with a per-group
//!   `vec![first]` allocation (with a combiner, the map side pays the
//!   same stable sort + grouping a second time).
//!
//! Both planes consume an owned copy of the input (the engines own
//! their input and drop it inside the job), run the same mapper and
//! reducer with the same worker pool, and are measured with and
//! without a combiner; outputs are asserted bit-identical and the
//! best-of-N times reported. The JSON summary (stdout, plus
//! `--json <path>`) is what CI uploads as `BENCH_shuffle.json`.
//!
//! A second section runs the *banded clustering pipeline* end to end
//! on the Huse 16S corpus (`--scale 1` = 50k reads) under both wire
//! formats — raw (struct-width pricing, hash partitioning) and
//! compact (bit-packed band keys, delta-encoded id runs, run-merging
//! combiners, similarity-aware partitioning) — asserts the cluster
//! assignments bit-identical, and reports the per-stage and total
//! `shuffled_bytes` ratio. `--min-banded-ratio <r>` turns the ratio into
//! a CI gate: the process exits non-zero if compaction regresses
//! below `r`.
//!
//! The banded section also prices the metrics plane: the engine
//! records nothing during a run, so its entire cost is one post-run
//! `Pipeline::export_metrics` — timed, asserted deterministic
//! (byte-identical snapshots across two exports) and gated as a
//! percentage of the run with `--max-metrics-overhead-pct`.
//!
//! ```sh
//! cargo run -p mrmc-bench --release --bin shuffle_bench -- --json BENCH_shuffle.json
//! ```

use std::hint::black_box;
use std::time::Instant;

use mrmc::{MrMcConfig, MrMcMinH};
use mrmc_bench::json::Json;
use mrmc_bench::{alloc, HarnessArgs};
use mrmc_mapreduce::engine::run_job;
use mrmc_mapreduce::job::{
    partition_of, Combiner, JobConfig, Mapper, Reducer, ShuffleSized, TaskContext,
};
use mrmc_mapreduce::IdRun;
use mrmc_simulate::huse_16s;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAPS: usize = 16;
const REDUCERS: usize = 8;
const ITERS: usize = 7;

/// One small pair per record: the input carries a short heap-backed
/// key (the case the old plane's byte accounting got wrong) that the
/// map emits as-is, so the run measures the data plane, not key
/// construction. Heap-backed input is also where the old plane's
/// per-task chunk clone hurts.
struct PairMapper;
impl Mapper for PairMapper {
    type InKey = u32;
    type InValue = String;
    type OutKey = String;
    type OutValue = u32;
    fn map(&self, id: u32, key: String, ctx: &mut TaskContext<String, u32>) {
        ctx.emit(key, id);
    }
    fn key_wire_size(&self, key: &String) -> usize {
        key.shuffle_size()
    }
    fn value_wire_size(&self, value: &u32) -> usize {
        value.shuffle_size()
    }
}

struct SumCombiner;
impl Combiner for SumCombiner {
    type Key = String;
    type Value = u32;
    fn combine(&self, _k: &String, vs: Vec<u32>) -> Vec<u32> {
        vec![vs.iter().sum()]
    }
}

struct SumReducer;
impl Reducer for SumReducer {
    type InKey = String;
    type InValue = u32;
    type OutKey = String;
    type OutValue = u64;
    fn reduce(&self, k: String, vs: Vec<u32>, ctx: &mut TaskContext<String, u64>) {
        ctx.emit(k, vs.iter().map(|&v| u64::from(v)).sum());
    }
}

/// The old engine's `chunk_input`: contiguous chunks moved (not
/// copied) out of the owned input via `split_off`.
fn chunk_input(mut input: Vec<(u32, String)>, n: usize) -> Vec<Vec<(u32, String)>> {
    let total = input.len();
    let (base, extra) = (total / n, total % n);
    let mut sizes: Vec<usize> = (0..n).map(|i| base + usize::from(i < extra)).collect();
    sizes.reverse();
    let mut chunks = Vec::with_capacity(n);
    for size in sizes {
        let tail = input.split_off(input.len() - size);
        chunks.push(tail);
    }
    chunks.reverse();
    chunks
}

/// The old engine's one-result-per-task slot vector.
type TaskSlots<T> = Vec<std::sync::Mutex<Option<T>>>;

/// The pre-overhaul data plane: parallel map over per-attempt cloned
/// chunks, optional map-side stable-sort + group + combine, a
/// single-threaded flat-Vec gather, and a parallel reduce that clones
/// its whole partition, stable-sorts it, and groups with `vec![first]`.
/// Consumes its input like the old engine did (chunks drop with the
/// job).
fn legacy_run(input: Vec<(u32, String)>, workers: usize, combine: bool) -> Vec<(String, u64)> {
    let chunks = chunk_input(input, MAPS);
    let workers = workers.max(1);

    // ---- Map: each attempt clones its chunk, partitions in emission
    // order (post-combine order when combining).
    let map_slots: TaskSlots<Vec<Vec<(String, u32)>>> =
        (0..MAPS).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for w in 0..workers {
            let chunks = &chunks;
            let map_slots = &map_slots;
            s.spawn(move || {
                for i in (w..MAPS).step_by(workers) {
                    let chunk = chunks[i].clone();
                    let mut ctx = TaskContext::new();
                    for (k, v) in chunk {
                        PairMapper.map(k, v, &mut ctx);
                    }
                    let (mut pairs, _) = ctx.into_parts();
                    if combine {
                        // Old combiner path: stable sort, peekable
                        // grouping, key.clone() per combined value.
                        pairs.sort_by(|a, b| a.0.cmp(&b.0));
                        let mut combined = Vec::with_capacity(pairs.len());
                        let mut iter = pairs.into_iter().peekable();
                        while let Some((key, first)) = iter.next() {
                            let mut group = vec![first];
                            while iter.peek().is_some_and(|(k, _)| *k == key) {
                                group.push(iter.next().expect("peeked").1);
                            }
                            for v in SumCombiner.combine(&key, group) {
                                combined.push((key.clone(), v));
                            }
                        }
                        pairs = combined;
                    }
                    let mut partitions: Vec<Vec<(String, u32)>> =
                        (0..REDUCERS).map(|_| Vec::new()).collect();
                    for (k, v) in pairs {
                        partitions[partition_of(&k, REDUCERS)].push((k, v));
                    }
                    *map_slots[i].lock().expect("slot") = Some(partitions);
                }
            });
        }
    });

    // ---- Shuffle: single-threaded flat extend, map order.
    let mut partitions: Vec<Vec<(String, u32)>> = (0..REDUCERS).map(|_| Vec::new()).collect();
    for slot in map_slots {
        let task_parts = slot.into_inner().expect("slot").expect("map ran");
        for (p, pairs) in task_parts.into_iter().enumerate() {
            partitions[p].extend(pairs);
        }
    }

    // ---- Reduce: clone, stable sort, peekable vec![first] grouping.
    let reduce_slots: TaskSlots<Vec<(String, u64)>> =
        (0..REDUCERS).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for w in 0..workers {
            let partitions = &partitions;
            let reduce_slots = &reduce_slots;
            s.spawn(move || {
                for p in (w..REDUCERS).step_by(workers) {
                    let mut pairs = partitions[p].clone();
                    pairs.sort_by(|a, b| a.0.cmp(&b.0));
                    let mut ctx = TaskContext::new();
                    let mut iter = pairs.into_iter().peekable();
                    while let Some((key, first)) = iter.next() {
                        let mut group = vec![first];
                        while iter.peek().is_some_and(|(k, _)| *k == key) {
                            group.push(iter.next().expect("peeked").1);
                        }
                        SumReducer.reduce(key, group, &mut ctx);
                    }
                    let (out, _) = ctx.into_parts();
                    *reduce_slots[p].lock().expect("slot") = Some(out);
                }
            });
        }
    });
    let mut output = Vec::new();
    for slot in reduce_slots {
        output.extend(slot.into_inner().expect("slot").expect("reduce ran"));
    }
    output
}

struct ModeResult {
    legacy_secs: f64,
    merged_secs: f64,
    shuffled_pairs: u64,
    shuffled_bytes: u64,
    shuffle_runs: u64,
}

impl ModeResult {
    fn speedup(&self) -> f64 {
        self.legacy_secs / self.merged_secs
    }
}

fn measure(
    label: &str,
    input: &[(u32, String)],
    cfg: &JobConfig,
    workers: usize,
    combine: bool,
) -> ModeResult {
    let mut legacy_best = f64::INFINITY;
    let mut merged_best = f64::INFINITY;
    let mut merged_result = None;
    let mut legacy_output = Vec::new();
    // Interleave the planes so neither systematically benefits from a
    // warm allocator; keep the best time of each.
    for iter in 0..ITERS {
        let owned = input.to_vec();
        let t = Instant::now();
        legacy_output = legacy_run(owned, workers, combine);
        let legacy_secs = t.elapsed().as_secs_f64();
        legacy_best = legacy_best.min(legacy_secs);

        let owned = input.to_vec();
        let t = Instant::now();
        let run = if combine {
            run_job(
                owned,
                MAPS,
                &PairMapper,
                Some(&SumCombiner),
                &SumReducer,
                cfg,
            )
        } else {
            run_job(owned, MAPS, &PairMapper, None, &SumReducer, cfg)
        }
        .expect("merged-plane job");
        let merged_secs = t.elapsed().as_secs_f64();
        merged_best = merged_best.min(merged_secs);
        eprintln!("{label} iter {iter}: legacy {legacy_secs:.3}s, merged {merged_secs:.3}s");
        merged_result = Some(run);
    }
    let run = merged_result.expect("ITERS > 0");
    assert_eq!(
        run.output, legacy_output,
        "{label}: sort-merge plane must be bit-identical to the legacy plane"
    );
    ModeResult {
        legacy_secs: legacy_best,
        merged_secs: merged_best,
        shuffled_pairs: run.shuffled_pairs,
        shuffled_bytes: run.shuffled_bytes,
        shuffle_runs: run.shuffle_runs,
    }
}

/// One merge-path measurement: the same input run set merged
/// `iters` times through the legacy decode-concat-sort-reencode
/// oracle (`IdRun::merge_via_decode`) and the streaming plane
/// (`IdRun::merge`), with wall-clock and allocation counts from the
/// global counting allocator. Outputs are asserted byte-identical
/// before anything is timed.
struct MergePathResult {
    shape: &'static str,
    runs_per_merge: usize,
    ids_per_run: usize,
    iters: usize,
    legacy_allocs_per_merge: f64,
    streaming_allocs_per_merge: f64,
    legacy_secs: f64,
    streaming_secs: f64,
}

impl MergePathResult {
    fn alloc_ratio(&self) -> f64 {
        self.legacy_allocs_per_merge / self.streaming_allocs_per_merge.max(1e-9)
    }

    fn streaming_allocs_per_run(&self) -> f64 {
        self.streaming_allocs_per_merge / self.runs_per_merge as f64
    }

    fn speedup(&self) -> f64 {
        self.legacy_secs / self.streaming_secs.max(1e-12)
    }
}

fn bench_merge_shape(
    shape: &'static str,
    runs: Vec<IdRun>,
    ids_per_run: usize,
    iters: usize,
) -> MergePathResult {
    let legacy = IdRun::merge_via_decode(&runs).expect("legacy merge");
    let streaming = IdRun::merge(&runs).expect("streaming merge");
    assert_eq!(
        streaming.as_bytes(),
        legacy.as_bytes(),
        "{shape}: streaming merge must be byte-identical to the decode-merge oracle"
    );

    let t = Instant::now();
    let (_, legacy_allocs) = alloc::count_allocs(|| {
        for _ in 0..iters {
            black_box(IdRun::merge_via_decode(black_box(&runs)).expect("legacy merge"));
        }
    });
    let legacy_secs = t.elapsed().as_secs_f64() / iters as f64;

    let t = Instant::now();
    let (_, streaming_allocs) = alloc::count_allocs(|| {
        for _ in 0..iters {
            black_box(IdRun::merge(black_box(&runs)).expect("streaming merge"));
        }
    });
    let streaming_secs = t.elapsed().as_secs_f64() / iters as f64;

    MergePathResult {
        shape,
        runs_per_merge: runs.len(),
        ids_per_run,
        iters,
        legacy_allocs_per_merge: legacy_allocs as f64 / iters as f64,
        streaming_allocs_per_merge: streaming_allocs as f64 / iters as f64,
        legacy_secs,
        streaming_secs,
    }
}

/// Measure the combine/reduce merge primitive on its two hot shapes:
///
/// * **combiner** — one map task's local group for a hot bucket key:
///   many ascending singleton runs (the splice fast path);
/// * **reducer** — one reduce group across map tasks: a handful of
///   post-combine runs with interleaved id ranges (the k-way heap
///   path).
fn merge_path_bench(seed: u64) -> Vec<MergePathResult> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d65_7267);

    // Combiner shape: 256 strictly-ascending singletons, the order a
    // map task emits a hot key's ids in.
    let mut id = 0u32;
    let singletons: Vec<IdRun> = (0..256)
        .map(|_| {
            id += rng.random_range(1u32..32);
            IdRun::singleton(id)
        })
        .collect();

    // Reducer shape: 16 runs of 128 ids whose ranges interleave, so
    // the splice pre-scan passes (ascending firsts) but the heap merge
    // must dedup-free interleave them — the worst case for the
    // streaming path.
    let stride = 16u32;
    let overlapping: Vec<IdRun> = (0..16u32)
        .map(|r| {
            let ids: Vec<u32> = (0..128u32).map(|t| r + t * stride).collect();
            IdRun::from_sorted(&ids).expect("strided ids are strictly increasing")
        })
        .collect();

    vec![
        bench_merge_shape("combiner-singletons", singletons, 1, 4_000),
        bench_merge_shape("reducer-overlapping", overlapping, 128, 2_000),
    ]
}

struct BandedWire {
    reads: usize,
    /// `(stage, raw bytes, compact bytes)` for the two banding stages.
    stages: Vec<(String, u64, u64)>,
    raw_bytes: u64,
    compact_bytes: u64,
    raw_secs: f64,
    compact_secs: f64,
    /// Wall-clock for one post-run `Pipeline::export_metrics` +
    /// snapshot over the compact pipeline — the *entire* cost the
    /// metrics plane adds to an engine run.
    metrics_export_secs: f64,
    /// Keys the export produced (counters + histograms).
    metrics_keys: usize,
}

impl BandedWire {
    fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / (self.compact_bytes.max(1)) as f64
    }
}

/// Run the banded clustering pipeline under both wire formats on the
/// Huse 16S corpus and account the banding stages' shuffle traffic.
/// Panics if the two formats disagree on a single cluster assignment.
fn banded_wire_comparison(scale: f64, seed: u64) -> BandedWire {
    let reads = huse_16s(0.03, (50_000.0 * scale / 345_000.0).min(1.0), seed).reads;
    let compact_cfg = MrMcConfig::sixteen_s().banded();
    let raw_cfg = compact_cfg.raw_wire();

    let t = Instant::now();
    let raw = MrMcMinH::new(raw_cfg).run(&reads).expect("raw-wire run");
    let raw_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let compact = MrMcMinH::new(compact_cfg)
        .run(&reads)
        .expect("compact-wire run");
    let compact_secs = t.elapsed().as_secs_f64();
    assert_eq!(
        raw.assignment, compact.assignment,
        "wire formats must produce bit-identical clusterings"
    );

    // The wire layer only changes the two banding stages; sketch and
    // verify shuffle the same payloads either way.
    let banding = ["band-signatures", "candidate-dedup"];
    let mut stages = Vec::new();
    let (mut raw_bytes, mut compact_bytes) = (0u64, 0u64);
    for name in banding {
        let by_name = |p: &mrmc_mapreduce::pipeline::Pipeline| {
            p.stages()
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.shuffled_bytes)
                .expect("banded pipeline stage")
        };
        let (r, c) = (by_name(&raw.pipeline), by_name(&compact.pipeline));
        raw_bytes += r;
        compact_bytes += c;
        stages.push((name.to_string(), r, c));
    }

    // The engine's metrics plane is passive: nothing is recorded while
    // the job runs (the clusterings above were produced with no
    // registry in sight), and the whole cost of lighting it up is one
    // post-run export. Price that export, and pin its determinism —
    // two exports of the same pipeline must render byte-identically.
    let registry = mrmc_obs::MetricsRegistry::new();
    let t = Instant::now();
    compact.pipeline.export_metrics(&registry);
    let snap = registry.snapshot();
    let metrics_export_secs = t.elapsed().as_secs_f64();
    let again = mrmc_obs::MetricsRegistry::new();
    compact.pipeline.export_metrics(&again);
    assert_eq!(
        snap.render_text(),
        again.snapshot().render_text(),
        "metrics export must be deterministic for a fixed pipeline"
    );
    let metrics_keys = snap.counters.len() + snap.histograms.len();

    BandedWire {
        reads: reads.len(),
        stages,
        raw_bytes,
        compact_bytes,
        raw_secs,
        compact_secs,
        metrics_export_secs,
        metrics_keys,
    }
}

fn main() {
    let args = HarnessArgs::parse(1.0);
    let pairs = ((1_000_000.0 * args.scale).round() as usize).max(1_000);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    // ~4k distinct keys at full scale — every reduce group gathers
    // ~256 values, the grouping-heavy shape a shuffle exists for.
    let key_space = (pairs / 256).max(16);
    let keys: Vec<String> = (0..key_space).map(|k| format!("k{k:06}")).collect();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let input: Vec<(u32, String)> = (0..pairs as u32)
        .map(|id| (id, keys[rng.random_range(0..key_space)].clone()))
        .collect();
    eprintln!(
        "shuffle_bench: {pairs} pairs, {key_space} keys, {MAPS} maps, {REDUCERS} reducers, \
         {workers} workers, {ITERS} iters, seed {}",
        args.seed
    );

    let cfg = JobConfig::named("shuffle-bench")
        .reducers(REDUCERS)
        .workers(workers);

    let plain = measure("no-combiner", &input, &cfg, workers, false);
    let combined = measure("combiner", &input, &cfg, workers, true);

    println!("\nshuffle microbench — legacy concat-sort plane vs sort-merge plane\n");
    println!(
        "{:>14} {:>12} {:>12} {:>9}",
        "mode", "legacy (s)", "merged (s)", "speedup"
    );
    for (name, m) in [("no-combiner", &plain), ("combiner", &combined)] {
        println!(
            "{name:>14} {:>12.3} {:>12.3} {:>8.2}x",
            m.legacy_secs,
            m.merged_secs,
            m.speedup()
        );
    }
    println!(
        "\nshuffle accounting (no-combiner): {} pairs, {} payload bytes, {} sorted runs",
        plain.shuffled_pairs, plain.shuffled_bytes, plain.shuffle_runs
    );

    let merge_path = merge_path_bench(args.seed);
    println!("\nmerge path — legacy decode-merge vs streaming cursor merge\n");
    println!(
        "{:>20} {:>6} {:>12} {:>12} {:>9} {:>11} {:>9}",
        "shape", "runs", "legacy al/m", "stream al/m", "al ratio", "al/run", "speedup"
    );
    for m in &merge_path {
        println!(
            "{:>20} {:>6} {:>12.2} {:>12.2} {:>8.1}x {:>11.4} {:>8.2}x",
            m.shape,
            m.runs_per_merge,
            m.legacy_allocs_per_merge,
            m.streaming_allocs_per_merge,
            m.alloc_ratio(),
            m.streaming_allocs_per_run(),
            m.speedup()
        );
    }
    let merge_alloc_reduction = merge_path
        .iter()
        .map(|m| m.legacy_allocs_per_merge)
        .sum::<f64>()
        / merge_path
            .iter()
            .map(|m| m.streaming_allocs_per_merge)
            .sum::<f64>()
            .max(1e-9);
    println!("merge-path allocation reduction (both shapes): {merge_alloc_reduction:.1}x");

    eprintln!("\nbanded pipeline wire comparison (Huse 16S, raw vs compact)…");
    let banded = banded_wire_comparison(args.scale, args.seed);
    println!(
        "\nbanded pipeline — wire formats on {} reads (clusterings bit-identical)\n",
        banded.reads
    );
    println!(
        "{:>18} {:>14} {:>14} {:>9}",
        "stage", "raw (B)", "compact (B)", "ratio"
    );
    for (name, r, c) in &banded.stages {
        println!(
            "{name:>18} {r:>14} {c:>14} {:>8.2}x",
            *r as f64 / (*c).max(1) as f64
        );
    }
    println!(
        "{:>18} {:>14} {:>14} {:>8.2}x   (raw {:.2}s, compact {:.2}s)",
        "total",
        banded.raw_bytes,
        banded.compact_bytes,
        banded.ratio(),
        banded.raw_secs,
        banded.compact_secs,
    );

    let metrics_overhead_pct = banded.metrics_export_secs / banded.compact_secs.max(1e-12) * 100.0;
    println!(
        "\nmetrics plane: post-run export of {} engine keys in {:.6}s \
         = {:.4}% of the {:.2}s compact run (snapshots deterministic)",
        banded.metrics_keys, banded.metrics_export_secs, metrics_overhead_pct, banded.compact_secs
    );

    let banded_json = Json::obj([
        ("reads", banded.reads.into()),
        ("raw_bytes", banded.raw_bytes.into()),
        ("compact_bytes", banded.compact_bytes.into()),
        ("ratio", Json::fixed(banded.ratio(), 3)),
        ("raw_secs", Json::fixed(banded.raw_secs, 3)),
        ("compact_secs", Json::fixed(banded.compact_secs, 3)),
        ("identical_clusters", true.into()),
        (
            "stages",
            Json::arr(banded.stages.iter().map(|(name, r, c)| {
                Json::obj([
                    ("stage", Json::from(name.as_str())),
                    ("raw_bytes", (*r).into()),
                    ("compact_bytes", (*c).into()),
                    ("ratio", Json::fixed(*r as f64 / (*c).max(1) as f64, 3)),
                ])
            })),
        ),
    ]);

    let doc = Json::obj([
        ("scale", Json::from(args.scale)),
        ("seed", args.seed.into()),
        ("pairs", pairs.into()),
        ("keys", key_space.into()),
        ("maps", MAPS.into()),
        ("reducers", REDUCERS.into()),
        ("workers", workers.into()),
        ("iters", ITERS.into()),
        ("legacy_secs", Json::fixed(plain.legacy_secs, 6)),
        ("merged_secs", Json::fixed(plain.merged_secs, 6)),
        ("speedup", Json::fixed(plain.speedup(), 3)),
        ("legacy_combiner_secs", Json::fixed(combined.legacy_secs, 6)),
        ("merged_combiner_secs", Json::fixed(combined.merged_secs, 6)),
        ("speedup_combiner", Json::fixed(combined.speedup(), 3)),
        ("identical", true.into()),
        ("shuffled_pairs", plain.shuffled_pairs.into()),
        ("shuffle_bytes", plain.shuffled_bytes.into()),
        ("shuffle_runs", plain.shuffle_runs.into()),
        (
            "merge_path",
            Json::obj([
                ("alloc_reduction", Json::fixed(merge_alloc_reduction, 1)),
                (
                    "shapes",
                    Json::arr(merge_path.iter().map(|m| {
                        Json::obj([
                            ("shape", Json::from(m.shape)),
                            ("runs_per_merge", m.runs_per_merge.into()),
                            ("ids_per_run", m.ids_per_run.into()),
                            ("iters", m.iters.into()),
                            (
                                "legacy_allocs_per_merge",
                                Json::fixed(m.legacy_allocs_per_merge, 2),
                            ),
                            (
                                "streaming_allocs_per_merge",
                                Json::fixed(m.streaming_allocs_per_merge, 2),
                            ),
                            ("alloc_ratio", Json::fixed(m.alloc_ratio(), 1)),
                            (
                                "streaming_allocs_per_run",
                                Json::fixed(m.streaming_allocs_per_run(), 4),
                            ),
                            ("legacy_secs", Json::fixed(m.legacy_secs, 9)),
                            ("streaming_secs", Json::fixed(m.streaming_secs, 9)),
                            ("speedup", Json::fixed(m.speedup(), 2)),
                        ])
                    })),
                ),
            ]),
        ),
        ("banded_wire", banded_json),
        (
            "metrics_overhead",
            Json::obj([
                ("export_secs", Json::fixed(banded.metrics_export_secs, 6)),
                ("engine_keys", banded.metrics_keys.into()),
                ("pct_of_run", Json::fixed(metrics_overhead_pct, 4)),
                ("deterministic", true.into()),
            ]),
        ),
    ]);
    println!("\n{}", doc.pretty());
    if let Some(path) = &args.json {
        mrmc_bench::json::write_file(path, &doc);
        eprintln!("wrote shuffle microbench summary to {path}");
    }

    if let Some(floor) = args.min_banded_ratio {
        let ratio = banded.ratio();
        if ratio < floor {
            eprintln!(
                "FAIL: banded raw/compact shuffle-byte ratio {ratio:.3} \
                 fell below the --min-banded-ratio floor {floor:.3}"
            );
            std::process::exit(1);
        }
        eprintln!("banded wire ratio {ratio:.3} ≥ floor {floor:.3} — gate passed");
    }

    if let Some(cap) = args.max_merge_allocs_per_run {
        for m in &merge_path {
            let per_run = m.streaming_allocs_per_run();
            if per_run > cap {
                eprintln!(
                    "FAIL: {} streaming merge performed {per_run:.4} allocations per \
                     input run, above the --max-merge-allocs-per-run cap {cap:.4}",
                    m.shape
                );
                std::process::exit(1);
            }
        }
        eprintln!(
            "merge-path allocations within the {cap:.4}/run cap \
             (reduction {merge_alloc_reduction:.1}x) — gate passed"
        );
    }

    if let Some(limit) = args.max_metrics_overhead_pct {
        if metrics_overhead_pct > limit {
            eprintln!(
                "FAIL: post-run metrics export cost {metrics_overhead_pct:.4}% of the \
                 compact run, above the --max-metrics-overhead-pct cap {limit:.4}"
            );
            std::process::exit(1);
        }
        eprintln!(
            "metrics export {metrics_overhead_pct:.4}% of run within the {limit:.4}% cap \
             — gate passed"
        );
    }
}
