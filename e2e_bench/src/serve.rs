//! The serving workload: an in-process `mrmc-server` daemon, two
//! tenants on two connections, each seeded from its own greedy batch
//! and then fed the rest of its corpus in 16-read micro-batches in a
//! closed loop. Labels are checked against a sequential
//! `IncrementalClusterer` per tenant.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use mrmc::{IncrementalClusterer, MrMcConfig, MrMcMinH};
use mrmc_obs::{Histogram, MetricsSnapshot, Tracer};
use mrmc_seqio::fasta::read_fasta_bytes;
use mrmc_seqio::SeqRecord;
use mrmc_server::{Client, SeedConfig, Server, ServerConfig};

use crate::measure::{hash_labels, median, named, peak_rss_mb, percentile, span, Trace};
use crate::{corpus, write_spans, Args, Oracle, Rep, TRACED_WALL};

pub const NAME: &str = "serve-16s";

const TENANTS: [&str; 2] = ["t0", "t1"];
/// Reads each tenant is seeded from.
const SEED_READS: usize = 10_000;
/// Reads each tenant submits after seeding: 500 submits per tenant.
const STREAM_READS: usize = 8_000;
const MICRO_BATCH: usize = 16;
/// Daemon worker-pool threads.
const WORKERS: usize = 2;

fn seed_config() -> SeedConfig {
    let cfg = MrMcConfig::sixteen_s();
    SeedConfig {
        kmer: cfg.kmer as u64,
        num_hashes: cfg.num_hashes as u64,
        theta: cfg.theta,
        greedy: true,
        seed: cfg.seed,
        canonical: cfg.canonical,
    }
}

/// One tenant's input: the seeding batch and the submitted stream.
struct Tenant {
    name: &'static str,
    batch: Vec<SeqRecord>,
    stream: Vec<SeqRecord>,
    fasta_bytes: usize,
}

fn tenants(seed: u64) -> Vec<Tenant> {
    TENANTS
        .iter()
        .zip(1u64..)
        .map(|(&name, t)| {
            let fasta = corpus::huse_fasta(SEED_READS + STREAM_READS, seed ^ (t << 32));
            let mut batch = read_fasta_bytes(&fasta).expect("generated FASTA parses");
            let stream = batch.split_off(SEED_READS);
            Tenant {
                name,
                batch,
                stream,
                fasta_bytes: fasta.len(),
            }
        })
        .collect()
}

/// One tenant's oracle: its seeded clusterer and the labels a
/// sequential replay of its stream gives.
struct Expected {
    seeded: IncrementalClusterer,
    labels: Vec<u64>,
    reps_final: usize,
}

fn expected(tenant: &Tenant) -> Expected {
    let cfg = seed_config().to_mrmc();
    let run = MrMcMinH::new(cfg)
        .run(&tenant.batch)
        .expect("oracle seeding run");
    let seeded = IncrementalClusterer::from_run(cfg, &tenant.batch, &run).expect("oracle seeding");
    let mut inc = seeded.clone();
    let labels = tenant
        .stream
        .iter()
        .map(|r| inc.push(r).expect("oracle push") as u64)
        .collect();
    Expected {
        seeded,
        labels,
        reps_final: inc.num_clusters(),
    }
}

/// Replays every tenant's stream through `push_batch` from the seeded
/// state, outside the daemon: the incremental layer on its own.
fn replay(tenants: &[Tenant], expected: &[Expected]) -> (Vec<(String, f64)>, bool) {
    let (mut secs, mut reads, mut seeded, mut reps) = (0.0, 0, 0, 0);
    let mut same = true;
    for (tenant, exp) in tenants.iter().zip(expected) {
        let mut inc = exp.seeded.clone();
        seeded += inc.num_clusters();
        let start = Instant::now();
        let mut labels = Vec::with_capacity(tenant.stream.len());
        for chunk in tenant.stream.chunks(MICRO_BATCH) {
            match inc.push_batch(chunk) {
                Ok(l) => labels.extend(l.into_iter().map(|x| x as u64)),
                Err(_) => same = false,
            }
        }
        secs += start.elapsed().as_secs_f64();
        reads += tenant.stream.len();
        reps += inc.num_clusters();
        same &= labels == exp.labels;
    }
    let metrics = named(&[
        (
            "mrmc.incremental.push_us_per_read",
            secs * 1e6 / reads as f64,
        ),
        (
            "mrmc.incremental.new_cluster_frac",
            (reps - seeded) as f64 / reads as f64,
        ),
        ("mrmc.incremental.reps_final", reps as f64),
    ]);
    (metrics, same)
}

/// The oracle: a sequential `IncrementalClusterer` per tenant, seeded
/// from its own batch run; one check token per submitted micro-batch.
pub fn oracle(args: &Args) -> Oracle {
    let tenants = tenants(args.seed);
    let expected: Vec<Expected> = thread::scope(|s| {
        let oracles: Vec<_> = tenants
            .iter()
            .map(|t| s.spawn(move || expected(t)))
            .collect();
        oracles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let checks = expected
        .iter()
        .flat_map(|e| {
            e.labels
                .chunks(MICRO_BATCH)
                .map(|c| hash_labels(c.iter().copied()))
        })
        .collect();
    let facts = vec![
        (
            "reads",
            tenants
                .iter()
                .map(|t| (t.batch.len() + t.stream.len()) as u64)
                .sum(),
        ),
        (
            "fasta_bytes",
            tenants.iter().map(|t| t.fasta_bytes as u64).sum(),
        ),
        (
            "seeded_reps",
            expected
                .iter()
                .map(|e| e.seeded.num_clusters() as u64)
                .sum(),
        ),
        (
            "clusters",
            expected.iter().map(|e| e.reps_final as u64).sum(),
        ),
    ];
    Oracle {
        facts,
        checks,
        layers: Some(Box::new(move || replay(&tenants, &expected))),
    }
}

/// What one connection saw.
#[derive(Default)]
struct Conn {
    /// Client-side seconds of each submit.
    latencies: Vec<f64>,
    /// Hash of each submit's labels; 0 for a submit that failed.
    checks: Vec<u64>,
    /// Share of the connection's stream time spent inside submits.
    coverage: f64,
}

/// Submits one tenant's stream in micro-batches on `client`.
fn stream(
    tenant: &Tenant,
    client: Option<Client>,
    trace: Option<(&Trace, usize, u64)>,
) -> (Option<Client>, Conn) {
    let mut conn = Conn::default();
    let Some(mut client) = client else {
        return (None, conn);
    };
    let span = trace.map(|(t, root, request)| {
        (
            t,
            t.open(&format!("conn.{}", tenant.name), Some(root), request),
            request,
        )
    });
    for chunk in tenant.stream.chunks(MICRO_BATCH) {
        let submit = span.map(|(t, id, request)| (t, t.open("server.submit", Some(id), request)));
        let start = Instant::now();
        let got = client.submit_labels(chunk);
        conn.latencies.push(start.elapsed().as_secs_f64());
        if let Some((t, id)) = submit {
            t.close(id);
        }
        conn.checks.push(got.map_or(0, hash_labels));
    }
    if let Some((t, id, _)) = span {
        t.close(id);
        conn.coverage = t.coverage(id);
    }
    (Some(client), conn)
}

/// A daemon histogram merged over tenants.
fn merged(snapshot: &MetricsSnapshot, metric: &str) -> Histogram {
    let mut h = Histogram::default();
    for t in TENANTS {
        if let Some(x) = snapshot.histogram(&format!("serve.tenant.{t}.{metric}")) {
            h.merge(x);
        }
    }
    h
}

/// One pass over a fresh daemon: spawn and seeding (the set-up), then
/// every tenant's stream on its own connection, then the daemon's
/// metrics and a drained shutdown.
pub fn rep(args: &Args, traced: bool) -> Rep {
    let tenants = tenants(args.seed);
    let trace = Trace::default();
    let request = u64::from(std::process::id());

    let setup = traced.then(|| (&trace, trace.open("serve.setup", None, request), request));
    let start = Instant::now();
    let daemon = Server::spawn(
        &ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
        Arc::new(Tracer::new()),
    )
    .expect("bind a loopback daemon");
    let addr = daemon.addr();
    let cfg = seed_config();
    let seeded: Vec<(Option<Client>, f64)> = thread::scope(|s| {
        let seeding: Vec<_> = tenants
            .iter()
            .map(|tenant| {
                let cfg = &cfg;
                s.spawn(move || {
                    let t = Instant::now();
                    let client = span(setup, "server.seed", || {
                        let mut c = Client::connect(addr, tenant.name).ok()?;
                        c.seed_from_batch(cfg, &tenant.batch).ok()?;
                        Some(c)
                    });
                    (client, t.elapsed().as_secs_f64())
                })
            })
            .collect();
        seeding
            .into_iter()
            .map(|h| h.join().expect("seeding thread panicked"))
            .collect()
    });
    let setup_s = start.elapsed().as_secs_f64();
    if let Some((t, id, _)) = setup {
        t.close(id);
    }

    let root = traced.then(|| (&trace, trace.open("serve.stream", None, request), request));
    let start = Instant::now();
    let streamed: Vec<(Option<Client>, Conn, f64)> = thread::scope(|s| {
        let conns: Vec<_> = tenants
            .iter()
            .zip(seeded)
            .map(|(tenant, (client, seed_s))| {
                s.spawn(move || {
                    let (client, conn) = stream(tenant, client, root);
                    (client, conn, seed_s)
                })
            })
            .collect();
        conns
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    if let Some((t, id, _)) = root {
        t.close(id);
    }

    let mut admin = None;
    let mut conns = Vec::new();
    let mut seeds = Vec::new();
    for (client, conn, seed_s) in streamed {
        admin = admin.or(client);
        conns.push(conn);
        seeds.push(seed_s);
    }
    let mut admin = admin
        .or_else(|| Client::connect(addr, "admin").ok())
        .expect("a connection to the daemon");
    let snapshot = admin.server_stats().ok();
    admin.shutdown().expect("the daemon drains on shutdown");
    daemon.join();

    // Tenant-major, as the oracle lists them; a tenant whose seeding
    // failed contributes no tokens and so fails every submit.
    let checks = conns
        .iter()
        .flat_map(|c| c.checks.iter().copied())
        .collect();
    let latencies: Vec<f64> = conns
        .iter()
        .flat_map(|c| c.latencies.iter().copied())
        .collect();
    let streamed_reads: usize = tenants.iter().map(|t| t.stream.len()).sum();
    if !traced {
        let metrics = named(&[
            ("setup_s", setup_s),
            ("wall_s", wall),
            ("reads_per_s", streamed_reads as f64 / wall),
            ("submit_p50_ms", percentile(&latencies, 50.0) * 1e3),
            ("submit_p99_ms", percentile(&latencies, 99.0) * 1e3),
            ("peak_rss_mb", peak_rss_mb()),
        ]);
        return Rep { metrics, checks };
    }
    write_spans(&trace, args);
    let client_mean_us = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64 * 1e6;
    let (service, queue) = snapshot.as_ref().map_or_else(
        || (Histogram::default(), Histogram::default()),
        |s| (merged(s, "latency_us"), merged(s, "queue_us")),
    );
    let coverage = conns.iter().map(|c| c.coverage).sum::<f64>() / conns.len() as f64;
    let metrics = named(&[
        ("server.service_p50_us", service.percentile(50.0) as f64),
        ("server.service_p99_us", service.percentile(99.0) as f64),
        ("server.queue_p99_us", queue.percentile(99.0) as f64),
        ("server.wire_mean_us", client_mean_us - service.mean()),
        ("server.seed_s", median(&seeds)),
        ("trace.coverage", coverage),
        (TRACED_WALL, wall),
    ]);
    Rep { metrics, checks }
}
