//! Same-machine A/B of two benchmark builds.
//!
//! Runs `pairs` pairs of base and head on each workload, alternating which
//! side goes first, each pair on its own seed. Per metric it reports each
//! side's median and quartiles and a verdict:
//!
//! * **gain** — head wins at least 9 of 10 pairs (ties count for neither)
//!   and the medians differ by more than the base's own spread (its
//!   interquartile distance);
//! * **unresolved** — the base's spread is wider than the metric's bound,
//!   unless every head run reads better (or every one worse) than every
//!   base run;
//! * **regression** — head's median is worse than base's by more than the
//!   bound;
//! * **within bound** — otherwise.

use crate::json::Json;
use crate::stats::quartiles;
use crate::workloads::Workload;
use crate::END_TO_END;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// What to compare.
pub struct Settings {
    /// The parent's benchmark binary.
    pub base: PathBuf,
    /// The change's benchmark binary.
    pub head: PathBuf,
    /// Pairs per workload.
    pub pairs: usize,
    /// Workloads to run.
    pub workloads: Vec<Workload>,
    /// Seed of the first pair; pair `i` uses `seed + i`.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
}

/// Outcome for one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Head is better by the section-8 rule.
    Gain,
    /// Head is worse by more than the bound.
    Regression,
    /// The base's spread is wider than the bound.
    Unresolved,
    /// Neither better nor worse beyond the bound.
    WithinBound,
}

impl Verdict {
    /// Printed name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::WithinBound => "within bound",
        }
    }
}

/// Median and quartiles; a single sample stands for all three.
fn summary(values: &[f64]) -> [f64; 3] {
    match values {
        [v] => [*v; 3],
        _ => quartiles(values).unwrap_or([f64::NAN; 3]),
    }
}

/// Judges paired samples (`base[i]` ran beside `head[i]`) of a
/// lower-is-better metric with regression bound `bound`.
pub fn judge(base: &[f64], head: &[f64], bound: f64) -> Verdict {
    let n = base.len().min(head.len());
    let wins = base.iter().zip(head).filter(|(b, h)| h < b).count();
    let [b1, bm, b3] = summary(&base[..n]);
    let [_, hm, _] = summary(&head[..n]);
    let spread = b3 - b1;
    if wins * 10 >= 9 * n && bm - hm > spread {
        return Verdict::Gain;
    }
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let separated = max(head) < min(base) || min(head) > max(base);
    if spread > bound * bm && !separated {
        return Verdict::Unresolved;
    }
    if hm > bm * (1.0 + bound) {
        return Verdict::Regression;
    }
    Verdict::WithinBound
}

/// Runs one side once and returns its end-to-end metric values.
fn run_side(bin: &Path, workload: Workload, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let output = Command::new(bin)
        .args(["run", "--workload", workload.name()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let report =
        Json::parse(line).map_err(|e| format!("{} printed no result: {e}", bin.display()))?;
    if !output.status.success() || report.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{} failed on {} seed {seed}: {line}",
            bin.display(),
            workload.name()
        ));
    }
    END_TO_END
        .iter()
        .map(|m| {
            report
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or(format!("{} reported no {}", bin.display(), m.name))
        })
        .collect()
}

/// Runs the comparison and prints one row per workload and metric, then a
/// JSON summary line. Returns false when any metric regressed.
pub fn compare(settings: &Settings) -> Result<bool, String> {
    let mut rows = Vec::new();
    let mut regressed = false;
    for &workload in &settings.workloads {
        let mut base: Vec<Vec<f64>> = Vec::new();
        let mut head: Vec<Vec<f64>> = Vec::new();
        for i in 0..settings.pairs {
            let seed = settings.seed + i as u64;
            let run = |bin: &Path| run_side(bin, workload, seed, settings.seconds);
            if i % 2 == 0 {
                base.push(run(&settings.base)?);
                head.push(run(&settings.head)?);
            } else {
                head.push(run(&settings.head)?);
                base.push(run(&settings.base)?);
            }
        }
        for (k, metric) in END_TO_END.iter().enumerate() {
            let b: Vec<f64> = base.iter().map(|v| v[k]).collect();
            let h: Vec<f64> = head.iter().map(|v| v[k]).collect();
            let verdict = judge(&b, &h, metric.bound);
            regressed |= verdict == Verdict::Regression;
            let ([b1, bm, b3], [h1, hm, h3]) = (summary(&b), summary(&h));
            let wins = b.iter().zip(&h).filter(|(b, h)| h < b).count();
            println!(
                "{:<13} {:<12} base {bm:>12.4} [{b1:.4}, {b3:.4}]  head {hm:>12.4} [{h1:.4}, {h3:.4}] {}  head wins {wins}/{}  {}",
                workload.name(),
                metric.name,
                metric.unit,
                b.len(),
                verdict.name()
            );
            let side = |q: [f64; 3]| {
                Json::obj([
                    ("q1", Json::from(q[0])),
                    ("median", Json::from(q[1])),
                    ("q3", Json::from(q[2])),
                ])
            };
            rows.push(Json::obj([
                ("workload", Json::from(workload.name())),
                ("metric", Json::from(metric.name)),
                ("unit", Json::from(metric.unit)),
                ("bound", Json::from(metric.bound)),
                ("base", side([b1, bm, b3])),
                ("head", side([h1, hm, h3])),
                ("head_wins", Json::from(wins)),
                ("pairs", Json::from(b.len())),
                ("verdict", Json::from(verdict.name())),
            ]));
        }
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(!regressed)),
            ("comparisons", Json::Arr(rows))
        ])
    );
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_spread() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.3, 99.9, 100.0,
        ];
        let head: Vec<f64> = base.iter().map(|b| b * 0.9).collect();
        assert_eq!(judge(&base, &head, 0.1), Verdict::Gain);
        let mut mixed = head.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert_ne!(judge(&base, &mixed, 0.1), Verdict::Gain);
    }

    #[test]
    fn noisy_base_is_unresolved_and_slow_head_regresses() {
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0,
        ];
        assert_eq!(judge(&noisy, &noisy, 0.1), Verdict::Unresolved);
        let base = [100.0; 10];
        assert_eq!(judge(&base, &[120.0; 10], 0.1), Verdict::Regression);
        assert_eq!(judge(&base, &[105.0; 10], 0.1), Verdict::WithinBound);
    }
}
