//! Shared workload builders for the benchmark harness and the `repro`
//! binary. Every bench in `benches/` regenerates one table or figure of the
//! paper; see DESIGN.md §4 for the experiment index.

#![forbid(unsafe_code)]

use std::sync::OnceLock;
use weakkeys::{run_pipeline, BatchMode, StudyConfig, StudyResults};
use wk_bigint::Natural;
use wk_keygen::{KeygenBehavior, ModelKeygen, PrimeShaping};

/// Study configuration used by the table/figure benches: large enough for
/// clean shapes, small enough that the simulation phase stays in seconds.
pub fn bench_study_config() -> StudyConfig {
    let mut cfg = StudyConfig::default_scale();
    cfg.scale = 0.3;
    cfg.background_hosts = 500;
    cfg.ssh_hosts = 300;
    cfg.mail_hosts = 120;
    cfg
}

/// One shared pipeline run for all table/figure benches (the benches time
/// the *analysis* that regenerates each artifact, not the simulation).
pub fn shared_results() -> &'static StudyResults {
    static RESULTS: OnceLock<StudyResults> = OnceLock::new();
    RESULTS.get_or_init(|| {
        run_pipeline(&bench_study_config(), BatchMode::Classic { threads: 1 })
            .expect("bench pipeline run")
    })
}

/// A key population for the batch-GCD benches: `count` moduli of
/// `bits` bits with `weak_fraction` drawn over a shared pool.
pub fn key_population(count: usize, bits: u64, weak_fraction: f64, seed: u64) -> Vec<Natural> {
    let weak = ((count as f64 * weak_fraction) as usize).max(2).min(count);
    let mut flawed = ModelKeygen::new(
        KeygenBehavior::SharedPrimePool {
            shaping: PrimeShaping::OpensslStyle,
            pool_size: (weak / 4).max(2),
        },
        bits,
        seed,
    );
    let mut healthy = ModelKeygen::new(
        KeygenBehavior::Healthy {
            shaping: PrimeShaping::OpensslStyle,
        },
        bits,
        seed + 1,
    );
    let mut moduli: Vec<Natural> = (0..weak).map(|_| flawed.generate().public.n).collect();
    moduli.extend((0..count - weak).map(|_| healthy.generate().public.n));
    moduli
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_population_shapes() {
        let pop = key_population(50, 128, 0.1, 3);
        assert_eq!(pop.len(), 50);
        let result = wk_batchgcd::batch_gcd(&pop, 1);
        let v = result.vulnerable_count();
        assert!((2..=10).contains(&v), "vulnerable: {v}");
    }

    #[test]
    fn bench_config_is_moderate() {
        let cfg = bench_study_config();
        assert!(cfg.scale < 1.0);
        assert!(cfg.background_hosts <= 1000);
    }
}
