//! The four workloads. Each is a closed loop with one caller: the next
//! call starts when the previous one returned. Every call's output is
//! checked against the corpus ground truth outside the timed window.

use crate::corpus::{mix, Corpus};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use weakkeys::{run_pipeline, BatchMode, StudyConfig, StudyResults};
use wk_batchgcd::{batch_gcd, distributed_batch_gcd, ClusterConfig, PhaseExec};
use wk_bigint::arena::{self, ArenaStats};
use wk_cert::MonthDate;
use wk_service::{AuditConfig, AuditDaemon, HostObservation, MonthReport, Recovery};

/// Calls every loop completes, whatever `--seconds` says: the nearest-rank
/// p75 needs ten samples beyond its rank.
pub const MIN_OPS: usize = 40;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Subsets of the k-subset workload.
pub const KSUBSETS: usize = 4;
/// Shard capacity of the audit daemon.
pub const SHARD_CAPACITY: usize = 64;
/// New moduli each daemon month ingests.
pub const MONTH_NEW: usize = 8;
/// Re-sightings of known moduli each daemon month ingests.
pub const MONTH_RESIGHTINGS: usize = 248;
/// Queries after each month close, split evenly between factored, clean
/// and unknown moduli.
pub const MONTH_QUERIES: usize = 256;
/// Study seeds the study workload cycles through, all derived from
/// `--seed`.
pub const STUDY_SEEDS: u64 = 8;
/// Study size relative to `wk_bench::bench_study_config()`.
pub const STUDY_FRACTION: f64 = 0.05;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `batch_gcd` over the corpus prefix, one thread.
    Scan,
    /// The paper's k-subset algorithm over the 1,024-modulus prefix.
    Ksubset,
    /// The audit daemon closing months.
    Daemon,
    /// The whole `repro` pipeline on a small study.
    Study,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Scan,
        Workload::Ksubset,
        Workload::Daemon,
        Workload::Study,
    ];

    /// The name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scan => "scan-1024",
            Workload::Ksubset => "ksubset-1024",
            Workload::Daemon => "daemon-1024",
            Workload::Study => "study-repro",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs set-up and the timed loop.
    pub fn run(self, run: &mut Run) -> Measured {
        match self {
            Workload::Scan => scan(run),
            Workload::Ksubset => ksubset(run),
            Workload::Daemon => daemon(run),
            Workload::Study => study(run),
        }
    }
}

/// Correctness bookkeeping: every checked operation counts as attempted.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Records one checked operation.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_failure
                .get_or_insert_with(|| format!("{what}: {e}"));
        }
    }

    /// Records one checked operation that passed when `ok` holds.
    pub fn check(&mut self, what: &str, ok: bool, why: &str) {
        self.record(what, if ok { Ok(()) } else { Err(why.to_string()) });
    }

    /// Records an operation that returns a value, passing the value on.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        match result {
            Ok(v) => {
                self.record(what, Ok(()));
                Some(v)
            }
            Err(e) => {
                self.record(what, Err(e.to_string()));
                None
            }
        }
    }
}

/// Executor and arena counters of the timed calls, one sample per call.
#[derive(Debug, Default)]
pub struct CallStats {
    /// Pool tasks per call.
    pub tasks: Vec<f64>,
    /// Pool steals per call.
    pub steals: Vec<f64>,
    /// Busy time ÷ (wall × slots) per call.
    pub busy_ratio: Vec<f64>,
    /// Arena checkouts served from the pool, summed over calls.
    pub arena_hits: u64,
    /// Arena checkouts that touched the heap, per call.
    pub alloc_events: Vec<f64>,
}

impl CallStats {
    /// Records a call's executor counters.
    pub fn pool(&mut self, exec: &PhaseExec, wall: Duration) {
        self.tasks.push(exec.tasks() as f64);
        self.steals.push(exec.steals as f64);
        let capacity = wall.as_secs_f64() * exec.workers().max(1) as f64;
        self.busy_ratio
            .push(exec.busy_total().as_secs_f64() / capacity.max(1e-9));
    }

    /// Records the arena counters a call moved since `before`.
    pub fn arena(&mut self, before: ArenaStats) {
        let delta = arena::stats().delta_since(&before);
        self.arena_hits += delta.hits;
        self.alloc_events.push(delta.alloc_events as f64);
    }
}

/// One workload run's state.
pub struct Run<'a> {
    /// The shared input.
    pub corpus: &'a Corpus,
    /// Seconds the timed loop runs (at least [`MIN_OPS`] calls).
    pub seconds: f64,
    /// Online CPUs: the daemon's thread count.
    pub threads: usize,
    /// Scratch directory for on-disk state, inside the checkout.
    pub dir: PathBuf,
    /// Spans (recording only in the traced run).
    pub tracer: Tracer,
    /// Correctness bookkeeping.
    pub checks: Checks,
    /// Counters of the timed calls.
    pub calls: CallStats,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Milliseconds per timed call.
    pub op_ms: Vec<f64>,
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Calls `op` until `seconds` have passed, at least [`MIN_OPS`] calls
/// returned and the call count is a multiple of `cycle` (so inputs that
/// rotate with period `cycle` are sampled evenly); `op` returns the
/// duration of its timed part, or `None` to stop.
pub fn closed_loop(
    seconds: f64,
    cycle: usize,
    mut op: impl FnMut(usize) -> Option<Duration>,
) -> Vec<f64> {
    let start = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds || ms.len() % cycle != 0 {
        match op(ms.len()) {
            Some(d) => ms.push(d.as_secs_f64() * 1e3),
            None => break,
        }
    }
    ms
}

/// Moduli the scan workload runs over.
pub fn scan_input(corpus: &Corpus) -> &[wk_bigint::Natural] {
    &corpus.moduli[..corpus.keys.len() / 2]
}

/// Moduli the k-subset workload runs over.
pub fn ksubset_input(corpus: &Corpus) -> &[wk_bigint::Natural] {
    &corpus.moduli[..corpus.keys.len() / 2]
}

fn scan(run: &mut Run) -> Measured {
    let corpus = run.corpus;
    let input = scan_input(corpus);
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        let (r, d) = timed(|| batch_gcd(input, 1));
        run.checks
            .record("warm-up batch_gcd", corpus.check_statuses(&r.statuses));
        setup_s.push(d.as_secs_f64());
    }
    let op_ms = closed_loop(run.seconds, 1, |_| {
        let before = arena::stats();
        let (r, d) = run
            .tracer
            .span("batchgcd.batch_gcd", |_| timed(|| batch_gcd(input, 1)));
        run.calls.arena(before);
        run.calls.pool(&r.stats.total_exec(), d);
        run.checks
            .record("batch_gcd", corpus.check_statuses(&r.statuses));
        Some(d)
    });
    Measured { setup_s, op_ms }
}

fn ksubset(run: &mut Run) -> Measured {
    let corpus = run.corpus;
    let input = ksubset_input(corpus);
    let config = ClusterConfig::sequential(KSUBSETS);
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        let (r, d) = timed(|| distributed_batch_gcd(input, config));
        run.checks.record(
            "warm-up distributed_batch_gcd",
            corpus.check_statuses(&r.statuses),
        );
        setup_s.push(d.as_secs_f64());
    }
    let op_ms = closed_loop(run.seconds, 1, |_| {
        let before = arena::stats();
        let (r, d) = run.tracer.span("batchgcd.distributed_batch_gcd", |_| {
            timed(|| distributed_batch_gcd(input, config))
        });
        run.calls.arena(before);
        run.calls.pool(&r.report.total_exec(), d);
        run.checks
            .record("distributed_batch_gcd", corpus.check_statuses(&r.statuses));
        Some(d)
    });
    Measured { setup_s, op_ms }
}

/// The daemon's configuration: capacity-64 shards, one thread per CPU.
pub fn daemon_config(dir: &Path, threads: usize) -> AuditConfig {
    let mut config = AuditConfig::new(dir, MonthDate::new(2012, 1));
    config.shard_capacity = SHARD_CAPACITY;
    config.threads = threads;
    config
}

/// Checks a month report against ground truth over the ingested prefix.
pub fn check_month(corpus: &Corpus, report: &MonthReport, ingested: usize) -> Result<(), String> {
    let truth = corpus.vulnerable(ingested).iter().filter(|&&v| v).count();
    if report.vulnerable != truth || report.total_moduli != ingested as u64 {
        return Err(format!(
            "{}: {} vulnerable of {} moduli, truth says {truth} of {ingested}",
            report.month, report.vulnerable, report.total_moduli
        ));
    }
    Ok(())
}

/// Opens a fresh daemon in `dir`, ingests the base half `C[..n/2]` and
/// closes month 0: the daemon workload's set-up.
pub fn open_base(run: &mut Run, dir: &Path) -> Option<AuditDaemon> {
    let corpus = run.corpus;
    let base = corpus.keys.len() / 2;
    let _ = std::fs::remove_dir_all(dir);
    let mut daemon = run
        .checks
        .ok("open", AuditDaemon::open(daemon_config(dir, run.threads)))?;
    for (i, n) in corpus.moduli[..base].iter().enumerate() {
        run.checks.ok("ingest", daemon.ingest(&observation(i, n)))?;
    }
    let month = daemon.current_month();
    let report = run
        .checks
        .ok("close base month", daemon.close_month(month))?;
    run.checks
        .record("base month report", check_month(corpus, &report, base));
    Some(daemon)
}

/// A host sighting of `n`.
pub fn observation(ip: usize, n: &wk_bigint::Natural) -> HostObservation {
    HostObservation {
        ip: ip as u32,
        modulus: n.clone(),
        vendor: None,
    }
}

/// One daemon month: ingest `C[lo..lo + 8]` plus re-sightings, close the
/// month (the timed call), then ask the query mix.
fn month(run: &mut Run, daemon: &mut AuditDaemon, lo: usize, rng: &mut StdRng) -> Option<Duration> {
    let corpus = run.corpus;
    let hi = lo + MONTH_NEW;
    let open = run.tracer.enter("service.ingest");
    for (i, n) in corpus.moduli[lo..hi].iter().enumerate() {
        run.checks
            .ok("ingest", daemon.ingest(&observation(lo + i, n)))?;
    }
    for _ in 0..MONTH_RESIGHTINGS {
        let j = rng.gen_range(0..hi);
        run.checks
            .ok("ingest", daemon.ingest(&observation(j, &corpus.moduli[j])))?;
    }
    run.tracer.exit(open);
    let before = arena::stats();
    let closing = daemon.current_month();
    let (report, d) = run.tracer.span("service.close_month", |_| {
        timed(|| daemon.close_month(closing))
    });
    run.calls.arena(before);
    let report = run.checks.ok("close_month", report)?;
    run.checks
        .record("month report", check_month(corpus, &report, hi));
    let open = run.tracer.enter("service.query");
    query_mix(run, daemon, hi, rng);
    run.tracer.exit(open);
    Some(d)
}

/// The daemon runs in epochs: set up a fresh daemon, then close a month
/// for every 8 new moduli of `C[n/2..]`. A month's cost grows with the
/// corpus, so the loop ends only on an epoch boundary, keeping the mix of
/// small and large months the same in every run. The first epochs are
/// set-up only, like the other workloads' warm-up calls.
fn daemon(run: &mut Run) -> Measured {
    let corpus = run.corpus;
    let base = corpus.keys.len() / 2;
    let months = (corpus.keys.len() - base) / MONTH_NEW;
    let mut rng = StdRng::seed_from_u64(mix(corpus.seed, 0xda));
    let mut measured = Measured::default();
    let mut current: Option<(AuditDaemon, PathBuf)> = None;
    let mut started: Option<Instant> = None;
    for epoch in 0.. {
        let dir = run.dir.join(format!("daemon-{epoch}"));
        let (daemon, d) = timed(|| open_base(run, &dir));
        measured.setup_s.push(d.as_secs_f64());
        if let Some((old, old_dir)) = current.take() {
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
        let Some(mut daemon) = daemon else { break };
        if epoch + 1 >= SETUPS {
            started.get_or_insert_with(Instant::now);
            let lows = (0..months).map(|m| base + m * MONTH_NEW);
            let closes: Option<Vec<Duration>> = lows
                .map(|lo| month(run, &mut daemon, lo, &mut rng))
                .collect();
            let Some(closes) = closes else { break };
            measured
                .op_ms
                .extend(closes.iter().map(|d| d.as_secs_f64() * 1e3));
        }
        current = Some((daemon, dir));
        let elapsed = started.map_or(0.0, |s| s.elapsed().as_secs_f64());
        if measured.op_ms.len() >= MIN_OPS && elapsed >= run.seconds {
            break;
        }
    }
    if let Some((daemon, dir)) = current.take() {
        let config = daemon_config(&dir, run.threads);
        drop(daemon);
        if let Some(reopened) = run.checks.ok("reopen", AuditDaemon::open(config)) {
            let recovery = reopened.recovery();
            run.checks.check(
                "reopen recovery",
                recovery == Recovery::Clean,
                &format!("{recovery:?}"),
            );
            run.checks
                .ok("verify_provenance", reopened.verify_provenance());
        }
        let _ = std::fs::remove_dir_all(dir);
    }
    measured
}

/// Asks [`MONTH_QUERIES`] questions about `C[..ingested]`, a third each
/// about factored, clean and never-seen moduli, and checks every answer.
/// Returns each query's latency in nanoseconds.
pub fn query_mix(
    run: &mut Run,
    daemon: &AuditDaemon,
    ingested: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    let corpus = run.corpus;
    let truth = corpus.vulnerable(ingested);
    let (weak, clean): (Vec<usize>, Vec<usize>) = (0..ingested).partition(|&i| truth[i]);
    let mut latencies = Vec::with_capacity(MONTH_QUERIES);
    for q in 0..MONTH_QUERIES {
        let kind = if q % 3 == 0 && weak.is_empty() {
            1
        } else {
            q % 3
        };
        let (modulus, factors) = match kind {
            0 => {
                let i = weak[rng.gen_range(0..weak.len())];
                let key = &corpus.keys[i];
                (
                    corpus.moduli[i].clone(),
                    Some((key.p.clone(), key.q.clone())),
                )
            }
            1 => (
                corpus.moduli[clean[rng.gen_range(0..clean.len())]].clone(),
                None,
            ),
            // An odd number next to a modulus: never ingested.
            _ => (
                &corpus.moduli[rng.gen_range(0..corpus.moduli.len())]
                    + &wk_bigint::Natural::from(2u64),
                None,
            ),
        };
        let (answer, d) = timed(|| daemon.query(&modulus));
        latencies.push(d.as_nanos() as f64);
        let (right, why) = match kind {
            0 => (
                answer.known && answer.factored && answer.factors == factors,
                "factored modulus answered wrongly",
            ),
            1 => (
                answer.known && !answer.factored,
                "clean modulus answered wrongly",
            ),
            _ => (!answer.known, "never-seen modulus answered as known"),
        };
        run.checks.check("query", right, why);
    }
    latencies
}

/// The study of study seed `index` under `--seed`: `bench_study_config()`
/// shrunk by [`STUDY_FRACTION`].
pub fn study_config(seed: u64, index: u64) -> StudyConfig {
    let mut config = wk_bench::bench_study_config();
    config.seed = mix(seed, 0x5d + index);
    config.scale *= STUDY_FRACTION;
    let shrink = |n: usize| ((n as f64) * STUDY_FRACTION).round() as usize;
    config.background_hosts = shrink(config.background_hosts);
    config.ssh_hosts = shrink(config.ssh_hosts);
    config.mail_hosts = shrink(config.mail_hosts);
    config
}

/// Checks a pipeline result against the simulator's ground truth (every
/// factored modulus is truly weak and `p·q = N`) and returns a fingerprint
/// of what was found, for the across-iterations identity check.
pub fn check_study(results: &StudyResults) -> Result<u32, String> {
    let truth = &results.dataset.truth.moduli;
    let mut found: Vec<(u32, Vec<u8>, Vec<u8>)> = Vec::new();
    for f in &results.factored {
        if !truth.get(&f.id).is_some_and(|t| t.weak) {
            return Err(format!(
                "factored {:?}, which the simulator made healthy",
                f.id
            ));
        }
        if &(&f.p * &f.q) != results.dataset.moduli.get(f.id) {
            return Err(format!("factors of {:?} do not multiply back", f.id));
        }
        found.push((f.id.0, f.p.to_bytes_be(), f.q.to_bytes_be()));
    }
    found.sort();
    let mut bytes = Vec::new();
    for (id, p, q) in &found {
        bytes.extend_from_slice(&id.to_le_bytes());
        bytes.extend_from_slice(p);
        bytes.extend_from_slice(q);
    }
    let mut vulnerable: Vec<u32> = results.vulnerable.iter().map(|id| id.0).collect();
    vulnerable.sort_unstable();
    for id in vulnerable {
        bytes.extend_from_slice(&id.to_le_bytes());
    }
    Ok(wk_batchgcd::crc32(&bytes))
}

fn study(run: &mut Run) -> Measured {
    let seed = run.corpus.seed;
    let mut fingerprints: Vec<Option<u32>> = vec![None; STUDY_SEEDS as usize];
    let mut pipeline = |run: &mut Run, index: u64, timed_call: bool| {
        let config = study_config(seed, index);
        let before = arena::stats();
        let (results, d) = run.tracer.span("pipeline.run_pipeline", |_| {
            timed(|| run_pipeline(&config, BatchMode::Classic { threads: 1 }))
        });
        if timed_call {
            run.calls.arena(before);
        }
        let results = run.checks.ok("run_pipeline", results)?;
        if let (true, Some(stats)) = (timed_call, &results.batch_stats) {
            run.calls.pool(&stats.total_exec(), stats.total_time());
        }
        let verdict =
            check_study(&results).and_then(|fp| match fingerprints[index as usize].replace(fp) {
                Some(earlier) if earlier != fp => {
                    Err(format!("study seed {index} changed its answer"))
                }
                _ => Ok(()),
            });
        run.checks.record("study result", verdict);
        Some(d)
    };
    let mut setup_s = Vec::new();
    for i in 0..SETUPS as u64 {
        if let Some(d) = pipeline(run, i % STUDY_SEEDS, false) {
            setup_s.push(d.as_secs_f64());
        }
    }
    let op_ms = closed_loop(run.seconds, STUDY_SEEDS as usize, |i| {
        pipeline(run, i as u64 % STUDY_SEEDS, true)
    });
    Measured { setup_s, op_ms }
}
