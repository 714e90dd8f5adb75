//! `wk-benchmark`: run the repository benchmark, or compare two builds.
//!
//! ```text
//! wk-benchmark run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//! wk-benchmark compare BASE_BIN HEAD_BIN [--pairs N] [--workload NAME|all] [--seed N] [--seconds S]
//! ```
//!
//! `run` prints every metric by name and unit, then, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Each
//! workload runs in a child process of its own (`child`, internal) so that
//! peak memory is per workload.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use wk_benchmark::corpus::{Bank, Corpus, Shape};
use wk_benchmark::json::Json;
use wk_benchmark::layers::{ladder, Metric, PER_LAYER};
use wk_benchmark::meta::{loadavg, nproc, peak_rss_mib, RunMeta};
use wk_benchmark::trace::Tracer;
use wk_benchmark::workloads::{CallStats, Checks, Run, Workload};
use wk_benchmark::{
    compare, end_to_end, reported, DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, REPORTED,
};

const USAGE: &str = "usage:
  wk-benchmark run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1 | --traced]
                   [--bits B] [--keys K] [--work-dir DIR] [--tamper]
  wk-benchmark compare BASE_BIN HEAD_BIN [--pairs N] [--workload NAME|all] [--seed N] [--seconds S]
workloads: scan-1024 ksubset-1024 daemon-1024 study-repro";

/// Parsed command line.
struct Opts {
    command: String,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    shape: Shape,
    work_dir: Option<PathBuf>,
    tamper: bool,
    pairs: usize,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut it = args.iter();
    let command = it.next().ok_or("missing command")?.clone();
    let mut opts = Opts {
        command,
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        shape: Shape::PAPER,
        work_dir: None,
        tamper: false,
        pairs: 10,
    };
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        let number = |flag: &str, v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match arg.as_str() {
            "--workload" => opts.workload = Some(value(arg)?),
            "--seed" => {
                opts.seed = value(arg)?
                    .parse()
                    .map_err(|_| "--seed: not a whole number")?
            }
            "--seconds" => opts.seconds = number(arg, value(arg)?)?,
            "--trace" => opts.traced = value(arg)? == "1",
            "--traced" => opts.traced = true,
            "--bits" => opts.shape.bits = number(arg, value(arg)?)? as u64,
            "--keys" => opts.shape.keys = number(arg, value(arg)?)? as usize,
            "--work-dir" => opts.work_dir = Some(PathBuf::from(value(arg)?)),
            "--tamper" => opts.tamper = true,
            "--pairs" => opts.pairs = number(arg, value(arg)?)? as usize,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => opts.positional.push(arg.clone()),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    opts.shape.validate()?;
    Ok(opts)
}

/// Where caches, results and traces live: `$CARGO_TARGET_DIR/wk-benchmark`,
/// else `target/wk-benchmark`, both under the working directory.
fn work_dir(opts: &Opts) -> PathBuf {
    opts.work_dir.clone().unwrap_or_else(|| {
        std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from)
            .join("wk-benchmark")
    })
}

fn workloads(opts: &Opts) -> Result<Vec<Workload>, String> {
    match opts.workload.as_deref() {
        None | Some("all") => Ok(Workload::ALL.to_vec()),
        Some(name) => Workload::parse(name)
            .map(|w| vec![w])
            .ok_or(format!("unknown workload {name}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("wk-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.command.as_str() {
        "run" => run(&opts),
        "child" => child(&opts),
        "compare" => compare_cmd(&opts),
        other => Err(format!("unknown command {other}\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wk-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn metric_json(m: &Metric) -> Json {
    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))])
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.to_string(), metric_json(m)))
            .collect(),
    )
}

/// The internal per-workload process: load the cached corpus, run the
/// workload (and the ladder when traced), print one JSON report line.
fn child(opts: &Opts) -> Result<bool, String> {
    let work = work_dir(opts);
    let workload = opts
        .workload
        .as_deref()
        .and_then(Workload::parse)
        .ok_or("child needs one --workload")?;
    let mut corpus = Corpus::load(
        &Corpus::path(&work, opts.shape, opts.seed),
        opts.shape,
        opts.seed,
    )?;
    if opts.tamper {
        corpus.tamper();
    }
    let dir = work.join(format!("run-{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut run = Run {
        corpus: &corpus,
        seconds: opts.seconds,
        threads: nproc(),
        dir: dir.clone(),
        tracer: Tracer::new(opts.traced),
        checks: Checks::default(),
        calls: CallStats::default(),
    };
    let measured = workload.run(&mut run);
    let e2e = end_to_end(&measured, peak_rss_mib());
    let per_layer = if opts.traced {
        ladder(&mut run, workload, &measured)
    } else {
        Vec::new()
    };
    if opts.traced {
        let path = work.join(format!("trace-{}.jsonl", workload.name()));
        run.tracer
            .write_jsonl(&path, workload.name(), opts.seed)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    let checks = &run.checks;
    let report = Json::obj([
        ("correct", Json::from(checks.failed == 0)),
        ("attempted", Json::from(checks.attempted)),
        ("failed", Json::from(checks.failed)),
        (
            "first_failure",
            checks.first_failure.clone().map_or(Json::Null, Json::from),
        ),
        (
            "setup_s",
            Json::Arr(measured.setup_s.iter().map(|&s| Json::from(s)).collect()),
        ),
        (
            "op_ms",
            Json::Arr(measured.op_ms.iter().map(|&ms| Json::from(ms)).collect()),
        ),
        ("end_to_end", metrics_json(&e2e)),
        ("reported", metrics_json(&reported(&measured))),
        ("per_layer", metrics_json(&per_layer)),
    ]);
    println!("{report}");
    Ok(checks.failed == 0)
}

/// What one child reported.
struct ChildReport {
    json: Json,
    correct: bool,
    attempted: u64,
    failed: u64,
}

fn spawn_child(
    opts: &Opts,
    work: &Path,
    workload: Workload,
    traced: bool,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    // Anything the libraries stage in a temp dir stays inside the work dir.
    let tmp = work.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let mut command = Command::new(exe);
    command
        .arg("child")
        .args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--bits", &opts.shape.bits.to_string()])
        .args(["--keys", &opts.shape.keys.to_string()])
        .arg("--work-dir")
        .arg(work)
        .env("TMPDIR", &tmp)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.tamper {
        command.arg("--tamper");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn {} child: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or(format!(
        "{} child printed nothing ({})",
        workload.name(),
        output.status
    ))?;
    let json = Json::parse(line).map_err(|e| format!("{} child report: {e}", workload.name()))?;
    let number = |key: &str| json.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(ChildReport {
        correct: output.status.success()
            && json.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: number("attempted"),
        failed: number("failed"),
        json,
    })
}

/// The metrics of `section` whose names `wanted` lists, and the names
/// missing from it.
fn pick(
    report: &Json,
    section: &str,
    wanted: &[(&'static str, &'static str)],
) -> (Vec<Metric>, Vec<&'static str>) {
    let mut found = Vec::new();
    let mut missing = Vec::new();
    for &(name, unit) in wanted {
        let value = report
            .get(section)
            .and_then(|s| s.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        match value {
            Some(value) => found.push(Metric { name, value, unit }),
            None => missing.push(name),
        }
    }
    (found, missing)
}

fn run(opts: &Opts) -> Result<bool, String> {
    let work = work_dir(opts);
    let workloads = workloads(opts)?;
    let bank = Bank::load_or_generate(&work, opts.shape, nproc())?;
    let start = Instant::now();
    let (corpus, assembled) = Corpus::load_or_assemble(&work, &bank, opts.seed)?;
    let corpus_assembly_s = if assembled {
        start.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let corpus_hash = corpus.fingerprint();
    drop(corpus);
    // `run --traced` over every workload also runs each untraced, so the
    // tracing overhead can be reported; a single-workload run does one.
    let passes: Vec<bool> = match (opts.traced, opts.workload.is_none()) {
        (true, true) => vec![false, true],
        (traced, _) => vec![traced],
    };
    let e2e_units: Vec<(&'static str, &'static str)> =
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let mut all_ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut summary: Vec<(String, Json)> = Vec::new();
    let mut last: Option<Json> = None;
    for workload in &workloads {
        let mut untraced: Vec<Metric> = Vec::new();
        for &traced in &passes {
            let loadavg_before = loadavg();
            let report = spawn_child(opts, &work, *workload, traced)?;
            let meta = RunMeta {
                workload: workload.name().to_string(),
                seed: opts.seed,
                key_bits: opts.shape.bits,
                corpus_size: opts.shape.keys,
                corpus_hash,
                bank_generation_s: bank.generation_s,
                corpus_assembly_s,
                seconds: opts.seconds,
                traced,
                loadavg_before,
                loadavg_after: loadavg(),
            };
            let (section, wanted) = if traced {
                ("per_layer", PER_LAYER.to_vec())
            } else {
                ("end_to_end", e2e_units.clone())
            };
            let (metrics, missing) = pick(&report.json, section, &wanted);
            let correct = report.correct && missing.is_empty();
            all_ok &= correct;
            attempted += report.attempted;
            failed += report.failed;
            let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
            println!(
                "{} seed {} {}: {} operations checked, {} failed (error_rate {error_rate})",
                workload.name(),
                opts.seed,
                if traced { "traced" } else { "untraced" },
                report.attempted,
                report.failed
            );
            if let Some(failure) = report.json.get("first_failure").and_then(Json::as_str) {
                println!("  first failure: {failure}");
            }
            if !missing.is_empty() {
                println!("  missing metrics: {}", missing.join(", "));
            }
            for m in &metrics {
                println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
            }
            if !traced {
                for m in pick(&report.json, "reported", &REPORTED).0 {
                    println!("  {:<32} {:>16.6} {} (not gated)", m.name, m.value, m.unit);
                }
            }
            if traced && !untraced.is_empty() {
                let (traced_e2e, _) = pick(&report.json, "end_to_end", &e2e_units);
                for (off, on) in untraced.iter().zip(&traced_e2e) {
                    let overhead = on.value - off.value;
                    println!(
                        "  tracing overhead {:<15} {overhead:>16.6} {}",
                        off.name, off.unit
                    );
                }
            }
            let results = work.join("results");
            let file = results.join(format!(
                "{}-seed{}-{}.json",
                workload.name(),
                opts.seed,
                if traced { "traced" } else { "untraced" }
            ));
            let record = Json::obj([
                ("meta", meta.to_json()),
                ("error_rate", Json::from(error_rate)),
                ("report", report.json.clone()),
            ]);
            wk_benchmark::corpus::write_atomic(&file, format!("{record}\n").as_bytes())?;
            for m in &metrics {
                summary.push((format!("{}/{}", workload.name(), m.name), metric_json(m)));
            }
            last = Some(Json::obj([
                ("correct", Json::from(correct)),
                ("attempted", Json::from(report.attempted)),
                ("failed", Json::from(report.failed)),
                ("metrics", metrics_json(&metrics)),
            ]));
            if !traced {
                untraced = metrics;
            }
        }
    }
    // One workload: its own result line. Several: one line over all.
    let line = match (workloads.len(), passes.len(), last) {
        (1, 1, Some(line)) => line,
        _ => Json::obj([
            ("correct", Json::from(all_ok)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("metrics", Json::Obj(summary)),
        ]),
    };
    println!("{line}");
    Ok(all_ok)
}

fn compare_cmd(opts: &Opts) -> Result<bool, String> {
    let [base, head] = opts.positional.as_slice() else {
        return Err(format!("compare needs BASE_BIN and HEAD_BIN\n{USAGE}"));
    };
    let settings = compare::Settings {
        base: PathBuf::from(base),
        head: PathBuf::from(head),
        pairs: opts.pairs.max(1),
        workloads: workloads(opts)?,
        seed: opts.seed,
        seconds: opts.seconds,
    };
    compare::compare(&settings)
}
