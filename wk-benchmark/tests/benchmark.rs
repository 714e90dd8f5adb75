//! End-to-end checks of the benchmark itself, on tiny 256-bit corpora.

use std::path::{Path, PathBuf};
use std::process::Command;
use wk_batchgcd::batch_gcd;
use wk_benchmark::corpus::{Bank, Corpus, Shape};
use wk_benchmark::json::Json;
use wk_benchmark::layers::{replay_batch_gcd, PER_LAYER};
use wk_benchmark::trace::Tracer;
use wk_benchmark::workloads::Workload;
use wk_benchmark::END_TO_END;

const TINY: Shape = Shape {
    bits: 256,
    keys: 64,
};

fn work_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("valid JSON")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark binary; returns its exit success and last stdout line.
fn bench(args: &[&str], work: &Path) -> (bool, Json) {
    let output = Command::new(env!("CARGO_BIN_EXE_wk-benchmark"))
        .args(args)
        .args([
            "--bits",
            "256",
            "--keys",
            "64",
            "--seconds",
            "0",
            "--work-dir",
        ])
        .arg(work)
        .output()
        .expect("run wk-benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    (
        output.status.success(),
        Json::parse(last).expect("the last line is JSON"),
    )
}

#[test]
fn benchmark_json_matches_the_code() {
    let json = benchmark_json();
    let names: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    let e2e = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (declared, metric) in e2e.iter().zip(END_TO_END) {
        assert_eq!(
            declared.get("name").and_then(Json::as_str),
            Some(metric.name)
        );
        assert_eq!(
            declared.get("unit").and_then(Json::as_str),
            Some(metric.unit)
        );
        assert_eq!(
            declared.get("bound").and_then(Json::as_f64),
            Some(metric.bound)
        );
    }
    let per_layer: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), per_layer);
}

#[test]
fn smoke_run_emits_every_declared_metric_with_its_unit() {
    let work = work_dir("smoke");
    let (ok, line) = bench(&["run", "--traced"], &work);
    assert!(ok, "smoke run failed: {line}");
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = line.get("metrics").expect("metrics");
    let mut wanted = declared("end_to_end");
    wanted.extend(declared("per_layer"));
    for workload in Workload::ALL {
        for (name, unit) in &wanted {
            let key = format!("{}/{name}", workload.name());
            let metric = metrics.get(&key).unwrap_or_else(|| panic!("missing {key}"));
            assert_eq!(
                metric.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{key}"
            );
            assert!(
                metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{key}"
            );
        }
        let trace = work.join(format!("trace-{}.jsonl", workload.name()));
        let first = std::fs::read_to_string(&trace).expect("trace written");
        let span = Json::parse(first.lines().next().expect("spans")).expect("span JSON");
        for key in [
            "name", "id", "parent", "start_ns", "end_ns", "self_ns", "workload", "seed",
        ] {
            assert!(span.get(key).is_some(), "span lacks {key}");
        }
    }
    let results = std::fs::read_dir(work.join("results"))
        .expect("result files")
        .count();
    assert_eq!(results, 2 * Workload::ALL.len());
}

#[test]
fn tampered_expected_set_fails_the_run() {
    let work = work_dir("tamper");
    let (ok, line) = bench(&["run", "--workload", "scan-1024", "--tamper"], &work);
    assert!(!ok, "a tampered run must exit non-zero");
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
    let attempted = line
        .get("attempted")
        .and_then(Json::as_f64)
        .expect("attempted");
    let failed = line.get("failed").and_then(Json::as_f64).expect("failed");
    assert!(
        failed > 0.0 && failed / attempted > 0.0,
        "error_rate must be positive"
    );
}

#[test]
fn corpus_is_a_pure_function_of_the_seed() {
    let bank = Bank::generate(TINY, 1).expect("bank");
    let again = Bank::generate(TINY, 3).expect("bank");
    assert_eq!(
        bank.primes, again.primes,
        "the bank must not depend on the thread count"
    );
    let a = Corpus::assemble(&bank, 7);
    assert_eq!(a.to_bytes(), Corpus::assemble(&bank, 7).to_bytes());
    assert_ne!(a.to_bytes(), Corpus::assemble(&bank, 8).to_bytes());
    assert_eq!(Corpus::from_bytes(&a.to_bytes()).as_ref(), Ok(&a));
    // Every weak key is factorable and nothing else is.
    let result = batch_gcd(&a.moduli, 1);
    assert_eq!(a.check_statuses(&result.statuses), Ok(()));
    assert_eq!(result.vulnerable_count(), TINY.weak());
    // The load check catches a modulus that no longer equals p·q.
    let mut broken = a.clone();
    broken.moduli[0] = &broken.moduli[0] + &wk_bigint::Natural::from(2u64);
    assert!(Corpus::from_bytes(&broken.to_bytes()).is_err());
}

#[test]
fn tree_replay_is_byte_identical_to_batch_gcd() {
    let bank = Bank::generate(TINY, 2).expect("bank");
    let corpus = Corpus::assemble(&bank, 1601);
    let mut tracer = Tracer::new(true);
    let replay = replay_batch_gcd(&corpus.moduli, &mut tracer).expect("replay");
    let whole = batch_gcd(&corpus.moduli, 1);
    assert_eq!(replay.raw_divisors, whole.raw_divisors);
    assert_eq!(replay.statuses, whole.statuses);
    let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        [
            "tree.product",
            "tree.descent",
            "tree.leaf_gcd",
            "tree.resolve"
        ]
    );
}
