//! The per-layer ladder, run after the workload when tracing is on.
//!
//! Every probe calls a layer's public functions from outside, inside a
//! span, and derives its metric from those spans or from the counters the
//! calls return. Which end-to-end metric each one should move is mapped in
//! `BENCHMARK.json` and the README.

use crate::corpus::{mix, Corpus};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{
    check_month, check_study, daemon_config, ksubset_input, observation, query_mix, scan_input,
    study_config, timed, Measured, Run, Workload, KSUBSETS, MONTH_NEW, MONTH_QUERIES,
    SHARD_CAPACITY,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use weakkeys::{analyze_dataset, BatchMode, StudyResults};
use wk_batchgcd::{
    batch_gcd, distributed_batch_gcd, distributed_batch_gcd_sharded, incremental_batch_gcd,
    resolve, sharded_batch_gcd, ClusterConfig, KeyStatus, ProductTree, ShardStore, TreeCache,
    TreeError, WorkerPool,
};
use wk_bigint::{
    Natural, Reciprocal, BZ_THRESHOLD, KARATSUBA_THRESHOLD, NTT_THRESHOLD, TOOM3_THRESHOLD,
};
use wk_keygen::{KeygenBehavior, ModelKeygen, PrimeShaping};
use wk_service::{AuditDaemon, Recovery};

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("bigint.mul_ns.16x16", "ns"),
    ("bigint.mul_ns.32x32", "ns"),
    ("bigint.mul_ns.karatsuba", "ns"),
    ("bigint.mul_ns.toom3", "ns"),
    ("bigint.mul_ns.ntt", "ns"),
    ("bigint.div_ns.32by16", "ns"),
    ("bigint.div_ns.bz", "ns"),
    ("bigint.gcd_ns.16", "ns"),
    ("bigint.barrett_ns.32by16", "ns"),
    ("arena.hit_ratio", "ratio"),
    ("arena.alloc_events", "count"),
    ("keygen.key_us.128", "us"),
    ("keygen.key_ms.1024", "ms"),
    ("tree.product_ms", "ms"),
    ("tree.descent_ms", "ms"),
    ("tree.leaf_gcd_ms", "ms"),
    ("tree.resolve_ms", "ms"),
    ("tree.unaccounted_ms", "ms"),
    ("tree.bytes", "bytes"),
    ("entry.classic_ms", "ms"),
    ("entry.sharded_ms", "ms"),
    ("entry.distributed_ms", "ms"),
    ("entry.distributed_sharded_ms", "ms"),
    ("entry.cache_build_ms", "ms"),
    ("entry.incremental_ms", "ms"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.busy_ratio", "ratio"),
    ("corpus.open_ms", "ms"),
    ("corpus.bytes_on_disk", "bytes"),
    ("service.open_ms", "ms"),
    ("service.reopen_ms", "ms"),
    ("service.verify_ms", "ms"),
    ("service.disk_bytes", "bytes"),
    ("service.query_ns_p50", "ns"),
    ("service.query_ns_p99", "ns"),
    ("service.ingest_ns_p50", "ns"),
    ("service.ingest_ns_p99", "ns"),
    ("stage.simulate_s", "s"),
    ("stage.analyze_s", "s"),
    ("stage.factor_s", "s"),
    ("stage.render_s", "s"),
    ("stage.unaccounted_s", "s"),
    ("trace.op_ms_p50", "ms"),
];

/// Operations each kernel is timed over, time permitting.
pub const KERNEL_OPS: usize = 2000;
/// Time budget per kernel; only the NTT multiply runs out of it.
const KERNEL_BUDGET: Duration = Duration::from_millis(300);
/// Timed batches per kernel at the least.
const KERNEL_MIN_BATCHES: usize = 9;
/// Target length of one timed batch, so clock reads stay negligible.
const BATCH_NS: f64 = 20_000.0;
/// Calls per entry point; the metric is their median.
pub const ENTRY_CALLS: usize = 5;
/// Repetitions of the tree replay, the service probes and the stage split.
const REPS: usize = 3;
/// Ingest and query samples of the service probe: p99 needs 1,000.
const SERVICE_SAMPLES: usize = 2048;

/// One metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name from [`PER_LAYER`] or the end-to-end list.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

#[derive(Default)]
struct Out(Vec<Metric>);

impl Out {
    fn push(&mut self, name: &'static str, value: Option<f64>) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("every per-layer metric is listed in PER_LAYER");
        if let Some(value) = value {
            self.0.push(Metric { name, value, unit });
        }
    }
}

/// Runs every layer probe and returns the per-layer metrics. Probes that
/// could not produce a value (a failed call) leave their metric out; the
/// caller reports the gap.
pub fn ladder(run: &mut Run, workload: Workload, measured: &Measured) -> Vec<Metric> {
    let mut out = Out::default();
    kernels(run, &mut out);
    arena(run, &mut out);
    keygen(run, &mut out);
    tree(run, &mut out);
    entries(run, workload, &mut out);
    pool(run, &mut out);
    service(run, &mut out);
    stages(run, &mut out);
    out.push("trace.op_ms_p50", median(&measured.op_ms));
    out.0
}

/// An operand of exactly `limbs` limbs cut from the corpus: the moduli's
/// limbs laid end to end from modulus `start`, top bit set.
pub fn operand(corpus: &Corpus, limbs: usize, start: usize) -> Natural {
    let mut out = Vec::with_capacity(limbs + 16);
    let mut i = start;
    while out.len() < limbs {
        out.extend_from_slice(corpus.moduli[i % corpus.moduli.len()].limbs());
        i += 1;
    }
    out.truncate(limbs);
    if let Some(top) = out.last_mut() {
        *top |= 1 << 63;
    }
    Natural::from_limbs(out)
}

/// Times `op(i)` in batches of at least [`BATCH_NS`], over [`KERNEL_OPS`]
/// operations or [`KERNEL_BUDGET`], whichever ends first (but at least
/// [`KERNEL_MIN_BATCHES`] batches), one span per batch. Returns the median
/// nanoseconds per operation.
fn kernel(tracer: &mut Tracer, name: &'static str, mut op: impl FnMut(usize)) -> f64 {
    let (_, first) = timed(|| op(0));
    let batch = ((BATCH_NS / first.as_nanos().max(1) as f64).ceil() as usize).max(1);
    let start = Instant::now();
    let mut per_op = Vec::new();
    let mut ops = 0;
    while per_op.len() < KERNEL_MIN_BATCHES || (ops < KERNEL_OPS && start.elapsed() < KERNEL_BUDGET)
    {
        let (_, d) = tracer.span(name, |_| timed(|| (ops..ops + batch).for_each(&mut op)));
        per_op.push(d.as_nanos() as f64 / batch as f64);
        ops += batch;
    }
    median(&per_op).expect("at least one batch ran")
}

fn kernels(run: &mut Run, out: &mut Out) {
    let corpus = run.corpus;
    let pairs = |a: usize, b: usize| -> Vec<(Natural, Natural)> {
        (0..8)
            .map(|i| (operand(corpus, a, 2 * i), operand(corpus, b, 2 * i + 1)))
            .collect()
    };
    for (name, limbs) in [
        ("bigint.mul_ns.16x16", 16),
        ("bigint.mul_ns.32x32", 32),
        ("bigint.mul_ns.karatsuba", KARATSUBA_THRESHOLD),
        ("bigint.mul_ns.toom3", TOOM3_THRESHOLD),
        ("bigint.mul_ns.ntt", NTT_THRESHOLD),
    ] {
        let ops = pairs(limbs, limbs);
        let (a, b) = &ops[0];
        let reference = if limbs < NTT_THRESHOLD {
            a.mul_schoolbook(b)
        } else {
            a.mul_toom3(b)
        };
        run.checks
            .check(name, a * b == reference, "product differs");
        let ns = kernel(&mut run.tracer, name, |i| {
            let (a, b) = &ops[i % ops.len()];
            black_box(a * b);
        });
        out.push(name, Some(ns));
    }
    for (name, divisor) in [
        ("bigint.div_ns.32by16", 16),
        ("bigint.div_ns.bz", BZ_THRESHOLD + 1),
    ] {
        let ops = pairs(2 * divisor, divisor);
        let (x, n) = &ops[0];
        let (q, r) = x.div_rem(n);
        let exact = &(&q * n) + &r == *x && r < *n;
        run.checks.check(name, exact, "quotient or remainder wrong");
        let ns = kernel(&mut run.tracer, name, |i| {
            let (x, n) = &ops[i % ops.len()];
            black_box(x.div_rem(n));
        });
        out.push(name, Some(ns));
    }
    let ops = pairs(16, 16);
    let (a, b) = &ops[0];
    let g = a.gcd(b);
    run.checks.check(
        "bigint.gcd_ns.16",
        g == a.gcd_binary(b),
        "Lehmer and binary gcd differ",
    );
    let ns = kernel(&mut run.tracer, "bigint.gcd_ns.16", |i| {
        let (a, b) = &ops[i % ops.len()];
        black_box(a.gcd(b));
    });
    out.push("bigint.gcd_ns.16", Some(ns));
    let ops: Vec<(Natural, Natural, Reciprocal)> = pairs(32, 16)
        .into_iter()
        .map(|(x, n)| {
            let recip = Reciprocal::new(&n).expect("operands have their top bit set");
            (x, n, recip)
        })
        .collect();
    let (x, n, recip) = &ops[0];
    let same = x.barrett_rem(n, recip).ok() == Some(x.div_rem(n).1);
    run.checks.check(
        "bigint.barrett_ns.32by16",
        same,
        "Barrett and exact remainders differ",
    );
    let ns = kernel(&mut run.tracer, "bigint.barrett_ns.32by16", |i| {
        let (x, n, recip) = &ops[i % ops.len()];
        let _ = black_box(x.barrett_rem(n, recip));
    });
    out.push("bigint.barrett_ns.32by16", Some(ns));
}

fn arena(run: &mut Run, out: &mut Out) {
    let calls = &run.calls;
    let allocs: f64 = calls.alloc_events.iter().sum();
    let checkouts = calls.arena_hits as f64 + allocs;
    let ratio = if checkouts > 0.0 {
        calls.arena_hits as f64 / checkouts
    } else {
        1.0
    };
    out.push("arena.hit_ratio", Some(ratio));
    out.push("arena.alloc_events", median(&calls.alloc_events));
}

/// Median time per key of `ModelKeygen` (healthy, OpenSSL shaping) at
/// `bits`, over `keys` keys or `budget`, whichever ends first.
fn key_time(
    run: &mut Run,
    name: &'static str,
    bits: u64,
    keys: usize,
    budget: Duration,
) -> Option<f64> {
    let behavior = KeygenBehavior::Healthy {
        shaping: PrimeShaping::OpensslStyle,
    };
    let mut generator = ModelKeygen::new(behavior, bits, mix(run.corpus.seed, bits));
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < keys && (times.len() < KERNEL_MIN_BATCHES || start.elapsed() < budget) {
        let (key, d) = run.tracer.span(name, |_| timed(|| generator.generate()));
        times.push(d.as_secs_f64());
        let sound = &key.p * &key.q == key.public.n && key.public.n.bit_len() >= bits - 1;
        run.checks.check(name, sound, "key does not multiply back");
    }
    median(&times)
}

fn keygen(run: &mut Run, out: &mut Out) {
    let small = key_time(
        run,
        "keygen.key_us.128",
        128,
        500,
        Duration::from_millis(300),
    );
    out.push("keygen.key_us.128", small.map(|s| s * 1e6));
    let large = key_time(
        run,
        "keygen.key_ms.1024",
        1024,
        KERNEL_MIN_BATCHES,
        Duration::ZERO,
    );
    out.push("keygen.key_ms.1024", large.map(|s| s * 1e3));
}

/// What the tree replay produced.
pub struct Replay {
    /// Raw divisor per modulus.
    pub raw_divisors: Vec<Option<Natural>>,
    /// Resolved statuses.
    pub statuses: Vec<KeyStatus>,
    /// Bytes the product tree held.
    pub tree_bytes: usize,
}

/// Replays `batch_gcd(moduli, 1)` through its public calls, one span per
/// phase: `ProductTree::build`, the cofactor remainder descent, the leaf
/// gcd through the pool's `map_chunked`, then `resolve`.
pub fn replay_batch_gcd(moduli: &[Natural], tracer: &mut Tracer) -> Result<Replay, TreeError> {
    let pool = WorkerPool::new(1);
    let tree = tracer.span("tree.product", |_| ProductTree::build(moduli, pool.exec()))?;
    let tree_bytes = tree.total_bytes() + tree.cache_bytes();
    let remainders = tracer.span("tree.descent", |_| {
        tree.remainder_tree_cofactor(&Natural::one(), pool.exec())
    });
    let raw_divisors = tracer.span("tree.leaf_gcd", |_| {
        pool.exec()
            .map_chunked(moduli.iter().zip(remainders).collect(), |(n, zn)| {
                let g = n.gcd(&zn);
                (!g.is_one()).then_some(g)
            })
    });
    let statuses = tracer.span("tree.resolve", |_| resolve(moduli, &raw_divisors));
    Ok(Replay {
        raw_divisors,
        statuses,
        tree_bytes,
    })
}

fn tree(run: &mut Run, out: &mut Out) {
    let input = scan_input(run.corpus);
    let mut bytes = None;
    for _ in 0..REPS {
        let whole = run.tracer.span("tree.batch_gcd", |_| batch_gcd(input, 1));
        let replay = run
            .tracer
            .span("tree.replay", |t| replay_batch_gcd(input, t));
        let Some(replay) = run.checks.ok("tree replay", replay) else {
            continue;
        };
        let identical =
            replay.raw_divisors == whole.raw_divisors && replay.statuses == whole.statuses;
        run.checks
            .check("tree replay", identical, "replay differs from batch_gcd");
        bytes = Some(replay.tree_bytes as f64);
    }
    let phase = |name: &str| median(&run.tracer.durations_ms(name));
    let phases = [
        "tree.product",
        "tree.descent",
        "tree.leaf_gcd",
        "tree.resolve",
    ]
    .map(phase);
    out.push("tree.product_ms", phases[0]);
    out.push("tree.descent_ms", phases[1]);
    out.push("tree.leaf_gcd_ms", phases[2]);
    out.push("tree.resolve_ms", phases[3]);
    let accounted: Option<f64> = phases.iter().copied().sum();
    let wall = phase("tree.batch_gcd");
    out.push(
        "tree.unaccounted_ms",
        wall.zip(accounted).map(|(w, a)| w - a),
    );
    out.push("tree.bytes", bytes);
}

/// Times `ENTRY_CALLS` calls of `call` under span `name`; each call's
/// statuses are checked against the prefix they cover.
fn entry<R>(
    run: &mut Run,
    name: &'static str,
    mut call: impl FnMut() -> Result<R, String>,
    statuses: impl Fn(&R) -> &[KeyStatus],
) {
    for _ in 0..ENTRY_CALLS {
        let result = run.tracer.span(name, |_| call());
        if let Some(r) = run.checks.ok(name, result) {
            run.checks
                .record(name, run.corpus.check_statuses(statuses(&r)));
        }
    }
}

fn entries(run: &mut Run, workload: Workload, out: &mut Out) {
    let corpus = run.corpus;
    let threads = run.threads;
    let scan = scan_input(corpus);
    let ksub = ksubset_input(corpus);
    let config = ClusterConfig::sequential(KSUBSETS);
    entry(
        run,
        "entry.classic",
        || Ok(batch_gcd(scan, 1)),
        |r| &r.statuses,
    );
    let dir = run.dir.join("entry-sharded");
    if let Some(store) = run
        .checks
        .ok("shard store", ShardStore::create(&dir, 256, scan))
    {
        entry(
            run,
            "entry.sharded",
            || sharded_batch_gcd(&store, 1).map_err(|e| e.to_string()),
            |r| &r.statuses,
        );
        let _ = store.remove();
    }
    entry(
        run,
        "entry.distributed",
        || Ok(distributed_batch_gcd(ksub, config)),
        |r| &r.statuses,
    );
    let dir = run.dir.join("entry-distributed-sharded");
    if let Some(store) = run
        .checks
        .ok("shard store", ShardStore::create(&dir, 256, ksub))
    {
        entry(
            run,
            "entry.distributed_sharded",
            || distributed_batch_gcd_sharded(&store, config).map_err(|e| e.to_string()),
            |r| &r.statuses,
        );
        let _ = store.remove();
    }
    // Cache build then one month of 8 new moduli, on the daemon's shape.
    let base = corpus.keys.len() / 2;
    let delta = &corpus.moduli[base..base + MONTH_NEW];
    for _ in 0..ENTRY_CALLS {
        let (store_dir, cache_dir) = (run.dir.join("entry-store"), run.dir.join("entry-cache"));
        let _ = std::fs::remove_dir_all(&store_dir);
        let _ = std::fs::remove_dir_all(&cache_dir);
        let Some(mut store) = run.checks.ok(
            "shard store",
            ShardStore::create(&store_dir, SHARD_CAPACITY, &corpus.moduli[..base]),
        ) else {
            continue;
        };
        let built = run.tracer.span("entry.cache_build", |_| {
            TreeCache::build(&cache_dir, &store, threads)
        });
        let Some((mut cache, result)) = run.checks.ok("entry.cache_build", built) else {
            continue;
        };
        run.checks
            .record("entry.cache_build", corpus.check_statuses(&result.statuses));
        let (result, d) = run.tracer.span("entry.incremental", |_| {
            timed(|| incremental_batch_gcd(&mut store, &mut cache, delta, SHARD_CAPACITY, threads))
        });
        if let Some(result) = run.checks.ok("entry.incremental", result) {
            run.checks
                .record("entry.incremental", corpus.check_statuses(&result.statuses));
            if workload == Workload::Daemon {
                // Month closes return no executor counters; the same
                // incremental call on the same shape stands in for them.
                run.calls.pool(&result.stats.total_exec(), d);
            }
        }
        let _ = cache.remove();
        let _ = store.remove();
    }
    for (metric, span) in [
        ("entry.classic_ms", "entry.classic"),
        ("entry.sharded_ms", "entry.sharded"),
        ("entry.distributed_ms", "entry.distributed"),
        ("entry.distributed_sharded_ms", "entry.distributed_sharded"),
        ("entry.cache_build_ms", "entry.cache_build"),
        ("entry.incremental_ms", "entry.incremental"),
    ] {
        out.push(metric, median(&run.tracer.durations_ms(span)));
    }
}

fn pool(run: &mut Run, out: &mut Out) {
    out.push("pool.tasks", median(&run.calls.tasks));
    out.push("pool.steals", median(&run.calls.steals));
    out.push("pool.busy_ratio", median(&run.calls.busy_ratio));
}

/// Bytes of every file under `dir`.
fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => disk_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

fn service(run: &mut Run, out: &mut Out) {
    let corpus = run.corpus;
    let base = corpus.keys.len() / 2;
    let dir = run.dir.join("service");
    let threads = run.threads;
    let config = || daemon_config(&dir, threads);
    let mut daemon = None;
    for _ in 0..REPS {
        drop(daemon.take());
        let _ = std::fs::remove_dir_all(&dir);
        let opened = run
            .tracer
            .span("service.open", |_| AuditDaemon::open(config()));
        daemon = run.checks.ok("service.open", opened);
    }
    let Some(mut daemon) = daemon else { return };
    let mut ingest_ns = Vec::with_capacity(SERVICE_SAMPLES);
    let mut rng = StdRng::seed_from_u64(mix(corpus.seed, 0x5e));
    let mut ingest = |run: &mut Run, daemon: &mut AuditDaemon, i: usize| {
        let (id, d) = timed(|| daemon.ingest(&observation(i, &corpus.moduli[i])));
        ingest_ns.push(d.as_nanos() as f64);
        run.checks.ok("ingest", id);
    };
    for i in 0..base {
        ingest(run, &mut daemon, i);
    }
    let month = daemon.current_month();
    if let Some(report) = run.checks.ok("close base month", daemon.close_month(month)) {
        run.checks
            .record("base month report", check_month(corpus, &report, base));
    }
    for i in 0..SERVICE_SAMPLES.saturating_sub(base) {
        ingest(run, &mut daemon, i % base);
    }
    let mut query_ns = Vec::with_capacity(SERVICE_SAMPLES);
    for _ in 0..SERVICE_SAMPLES.div_ceil(MONTH_QUERIES) {
        query_ns.extend(query_mix(run, &daemon, base, &mut rng));
    }
    for _ in 0..REPS {
        let verified = run
            .tracer
            .span("service.verify", |_| daemon.verify_provenance());
        run.checks.ok("verify_provenance", verified);
    }
    let mut daemon = Some(daemon);
    for _ in 0..REPS {
        drop(daemon.take());
        let reopened = run
            .tracer
            .span("service.reopen", |_| AuditDaemon::open(config()));
        daemon = run.checks.ok("reopen", reopened);
        if let Some(d) = &daemon {
            let recovery = d.recovery();
            run.checks.check(
                "reopen recovery",
                recovery == Recovery::Clean,
                &format!("{recovery:?}"),
            );
        }
    }
    drop(daemon);
    let mut store_bytes = None;
    for _ in 0..REPS {
        let store = run
            .tracer
            .span("corpus.open", |_| ShardStore::open(&dir.join("store")));
        store_bytes = run
            .checks
            .ok("ShardStore::open", store)
            .map(|s| s.bytes_on_disk() as f64);
    }
    let span_median = |name: &str| median(&run.tracer.durations_ms(name));
    out.push("corpus.open_ms", span_median("corpus.open"));
    out.push("corpus.bytes_on_disk", store_bytes);
    out.push("service.open_ms", span_median("service.open"));
    out.push("service.reopen_ms", span_median("service.reopen"));
    out.push("service.verify_ms", span_median("service.verify"));
    out.push("service.disk_bytes", Some(disk_bytes(&dir) as f64));
    out.push("service.query_ns_p50", median(&query_ns));
    out.push("service.query_ns_p99", percentile(&query_ns, 99.0));
    out.push("service.ingest_ns_p50", median(&ingest_ns));
    out.push("service.ingest_ns_p99", percentile(&ingest_ns, 99.0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tables and figures `repro` prints, rendered to strings.
fn render(results: &StudyResults) -> usize {
    use wk_analysis::report::{render_series, render_table1, render_table4, render_table5};
    let dataset = &results.dataset;
    let vulnerable = &results.vulnerable;
    let series = wk_analysis::vendor_series(
        dataset,
        &results.labeling,
        vulnerable,
        wk_scan::VendorId::Juniper,
    );
    let exposure = wk_analysis::passive_exposure(dataset, vulnerable, None);
    [
        render_table1(&wk_analysis::dataset_totals(dataset, vulnerable)),
        weakkeys::render_table2(),
        render_table4(&wk_analysis::protocol_table(dataset, vulnerable)),
        render_table5(&wk_analysis::openssl_table(
            &results.labeling,
            &results.factored,
        )),
        render_series(&series),
        format!(
            "{}/{}",
            exposure.passively_decryptable, exposure.vulnerable_hosts
        ),
    ]
    .iter()
    .map(String::len)
    .sum()
}

fn stages(run: &mut Run, out: &mut Out) {
    let seed = run.corpus.seed;
    for index in 0..REPS as u64 {
        let config = study_config(seed, index);
        let study = run.tracer.enter("stage.study");
        let dataset = run
            .tracer
            .span("stage.simulate", |_| wk_scan::run_study(&config));
        run.tracer.span("stage.factor", |_| {
            black_box(batch_gcd(dataset.moduli.all(), 1))
        });
        let results = run.tracer.span("stage.analyze", |_| {
            analyze_dataset(dataset, BatchMode::Classic { threads: 1 })
        });
        if let Some(results) = run.checks.ok("analyze_dataset", results) {
            run.tracer
                .span("stage.render", |_| black_box(render(&results)));
            run.checks
                .record("study result", check_study(&results).map(|_| ()));
        }
        run.tracer.exit(study);
    }
    let seconds = |name: &str| median(&run.tracer.durations_ms(name)).map(|ms| ms / 1e3);
    out.push("stage.simulate_s", seconds("stage.simulate"));
    out.push("stage.analyze_s", seconds("stage.analyze"));
    out.push("stage.factor_s", seconds("stage.factor"));
    out.push("stage.render_s", seconds("stage.render"));
    let self_ns = run.tracer.self_ns();
    let unaccounted: Vec<f64> = run
        .tracer
        .spans()
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == "stage.study")
        .map(|(_, ns)| ns as f64 / 1e9)
        .collect();
    out.push("stage.unaccounted_s", median(&unaccounted));
}
