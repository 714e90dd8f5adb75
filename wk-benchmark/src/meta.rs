//! Run metadata and process probes (CPU count, load, peak memory).

use crate::json::Json;
use std::process::Command;

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One-minute load average, when `/proc/loadavg` exists.
pub fn loadavg() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process in MiB, less its file-backed and
/// shared pages: `VmHWM - RssFile - RssShmem`. How much of the binary's
/// text is resident depends on the page cache, not on the program, and
/// moves `VmHWM` by a few percent between identical runs.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = |field: &str| -> Option<f64> {
        let line = status.lines().find(|l| l.starts_with(field))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    Some((kib("VmHWM:")? - kib("RssFile:")? - kib("RssShmem:")?) / 1024.0)
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Git revision of the working directory; `"unknown"` outside a checkout
/// with history.
pub fn git_rev() -> String {
    if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    }
}

/// `rustc --version` of the toolchain on the path (or `$RUSTC`).
pub fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    command_line(&rustc, &["--version"])
}

/// What every result file carries besides its metrics.
pub struct RunMeta {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Modulus bits.
    pub key_bits: u64,
    /// Moduli in the corpus.
    pub corpus_size: usize,
    /// CRC-32 of the corpus cache file.
    pub corpus_hash: u32,
    /// Seconds the prime bank took to generate (once per checkout).
    pub bank_generation_s: f64,
    /// Seconds spent assembling the corpus in this run (0 when cached).
    pub corpus_assembly_s: f64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Load average before the workload started.
    pub loadavg_before: Option<f64>,
    /// Load average after it ended.
    pub loadavg_after: Option<f64>,
}

impl RunMeta {
    /// The `meta` object of a result file, following the
    /// `run_metadata.json` discipline: enough to tell two runs apart.
    pub fn to_json(&self) -> Json {
        let load = |l: Option<f64>| l.map_or(Json::Null, Json::from);
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::from(self.seed)),
            ("git_rev", Json::from(git_rev())),
            ("nproc", Json::from(nproc())),
            ("rustc", Json::from(rustc_version())),
            ("key_bits", Json::from(self.key_bits)),
            ("corpus_size", Json::from(self.corpus_size)),
            (
                "corpus_hash",
                Json::from(format!("{:08x}", self.corpus_hash)),
            ),
            ("bank_generation_s", Json::from(self.bank_generation_s)),
            ("corpus_assembly_s", Json::from(self.corpus_assembly_s)),
            ("seconds", Json::from(self.seconds)),
            ("traced", Json::from(self.traced)),
            ("loadavg_before", load(self.loadavg_before)),
            ("loadavg_after", load(self.loadavg_after)),
        ])
    }
}
