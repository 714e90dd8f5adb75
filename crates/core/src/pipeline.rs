//! The end-to-end study pipeline.
//!
//! One call reproduces the paper's methodology chain (§3): simulate the
//! six-year scan corpus, batch-GCD every distinct modulus, set aside
//! bit-error hits, detect MITM key substitution, fingerprint vendors, and
//! hand the result to the analysis layer.

use std::collections::HashSet;
use std::fmt;
use wk_analysis::{labeling::label_dataset_with_cliques, Labeling};
use wk_batchgcd::{
    batch_gcd, distributed_batch_gcd, incremental_batch_gcd, sharded_batch_gcd, BatchStats,
    ClusterConfig, CorpusError, IncrementalError, KeyStatus, ShardStore, TreeCache,
};
use wk_fingerprint::{
    classify_divisor, detect_cliques, detect_key_substitution, DivisorKind, FactoredModulus,
    KeyObservation, MitmSuspect, PrimeClique,
};
use wk_scan::{run_study, ModulusId, StudyConfig, StudyDataset, VendorId};

/// Which batch-GCD algorithm the pipeline runs.
#[derive(Clone, Copy, Debug)]
pub enum BatchMode {
    /// Classic single-tree algorithm with `threads` workers.
    Classic { threads: usize },
    /// The paper's k-subset distributed variant.
    Distributed(ClusterConfig),
    /// Classic algorithm over a disk-backed shard store (DESIGN.md §7):
    /// the corpus is exported to scratch shards of `shard_capacity` moduli
    /// and workers stream them on demand, bounding resident moduli to one
    /// shard per worker. Output is identical to `Classic`.
    Sharded {
        /// Worker threads for the batch-GCD pool.
        threads: usize,
        /// Maximum moduli per shard file.
        shard_capacity: usize,
    },
    /// The delta-update path (DESIGN.md §8): the corpus is split into
    /// `batches` contiguous id-order chunks simulating successive scan
    /// months, and each chunk lands on a scratch shard store + persisted
    /// [`TreeCache`] via [`incremental_batch_gcd`], so every month after
    /// the first pays only delta-proportional tree work. The final chunk's
    /// result covers the whole corpus and is identical to `Classic`;
    /// `batch_stats.delta` carries the last month's per-phase delta
    /// metrics.
    Incremental {
        /// Worker threads for the batch-GCD pool.
        threads: usize,
        /// Maximum moduli per shard file.
        shard_capacity: usize,
        /// Number of simulated scan months (clamped to at least 1).
        batches: usize,
    },
}

impl Default for BatchMode {
    fn default() -> Self {
        BatchMode::Classic { threads: 1 }
    }
}

/// Everything the pipeline produces.
pub struct StudyResults {
    /// The simulated dataset (scans, cert/modulus stores, ground truth).
    pub dataset: StudyDataset,
    /// Moduli with genuinely shared primes (bit-error hits excluded).
    pub vulnerable: HashSet<ModulusId>,
    /// Full factorizations for the vulnerable moduli.
    pub factored: Vec<FactoredModulus>,
    /// Batch-GCD hits whose divisors were smooth — bit-error artifacts set
    /// aside per §3.3.5, not counted as vulnerable.
    pub bit_error_hits: Vec<ModulusId>,
    /// Moduli flagged as MITM key substitution (§3.3.3).
    pub mitm_suspects: Vec<MitmSuspect>,
    /// Vendor labeling (subject rules + clique fingerprint + prime
    /// extrapolation).
    pub labeling: Labeling,
    /// Detected fixed-pool prime cliques (the IBM nine-prime signature).
    pub cliques: Vec<PrimeClique>,
    /// Timing/memory stats from the classic, sharded, or incremental batch
    /// pass (None when the distributed mode ran); incremental runs populate
    /// `stats.delta` with the last month's per-phase delta metrics.
    pub batch_stats: Option<BatchStats>,
}

impl StudyResults {
    /// Convenience: the vulnerable set as required by `wk-analysis` calls.
    pub fn vulnerable_set(&self) -> &HashSet<ModulusId> {
        &self.vulnerable
    }
}

/// Batch-GCD hits partitioned into the paper's §3.3.5 categories: genuine
/// shared-prime factorizations vs. smooth-divisor bit-error artifacts.
#[derive(Clone, Debug, Default)]
pub struct StatusPartition {
    /// Moduli with genuinely shared primes (bit-error hits excluded).
    pub vulnerable: HashSet<ModulusId>,
    /// Full factorizations for the vulnerable moduli.
    pub factored: Vec<FactoredModulus>,
    /// Hits whose divisors were smooth — corruption artifacts set aside,
    /// not counted as vulnerable.
    pub bit_error_hits: Vec<ModulusId>,
}

/// Partition raw batch-GCD output into vulnerable / factored / bit-error
/// sets.
///
/// `raw` and `statuses` are the parallel per-modulus outputs of any
/// batch-GCD mode (`raw_divisors` and `statuses`); index `i` corresponds to
/// `ModulusId(i)`. This is the status partition `analyze_dataset` applies,
/// exposed so long-running consumers (the `wk-service` audit daemon) can
/// classify each month's incremental result with the same rules.
pub fn partition_statuses(
    raw: &[Option<wk_bigint::Natural>],
    statuses: &[KeyStatus],
) -> StatusPartition {
    let mut partition = StatusPartition::default();
    for (idx, status) in statuses.iter().enumerate() {
        let id = ModulusId(idx as u32);
        match status {
            KeyStatus::NotVulnerable => {}
            KeyStatus::Factored { p, q } => {
                let divisor_kind = raw
                    .get(idx)
                    .and_then(|d| d.as_ref())
                    .map(classify_divisor)
                    .unwrap_or(DivisorKind::SharedPrime);
                // A genuine shared-prime hit always has a (large-)prime
                // divisor; smooth or mixed divisors are corruption
                // artifacts and are set aside (§3.3.5).
                if divisor_kind == DivisorKind::SharedPrime {
                    partition.vulnerable.insert(id);
                    partition.factored.push(FactoredModulus {
                        id,
                        p: p.clone(),
                        q: q.clone(),
                    });
                } else {
                    partition.bit_error_hits.push(id);
                }
            }
            KeyStatus::SharedUnresolved => {
                partition.vulnerable.insert(id);
            }
        }
    }
    partition
}

/// Why a pipeline run failed. The disk-backed batch modes (`Sharded`,
/// `Incremental`) stage the corpus through scratch shard stores and tree
/// caches; any of that I/O can fail, and the pipeline propagates the cause
/// instead of panicking so library consumers (the audit daemon, benches)
/// choose their own recovery.
#[derive(Debug)]
pub enum PipelineError {
    /// Shard-store export, validation, or streaming failed.
    Corpus(CorpusError),
    /// The incremental tree cache could not be built or updated.
    Incremental(IncrementalError),
    /// Scratch-space cleanup failed after an otherwise complete run.
    Cleanup(std::io::Error),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Corpus(e) => write!(f, "shard store failure: {e}"),
            PipelineError::Incremental(e) => write!(f, "tree cache failure: {e}"),
            PipelineError::Cleanup(e) => write!(f, "scratch cleanup failure: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Corpus(e) => Some(e),
            PipelineError::Incremental(e) => Some(e),
            PipelineError::Cleanup(e) => Some(e),
        }
    }
}

impl From<CorpusError> for PipelineError {
    fn from(e: CorpusError) -> Self {
        PipelineError::Corpus(e)
    }
}

impl From<IncrementalError> for PipelineError {
    fn from(e: IncrementalError) -> Self {
        PipelineError::Incremental(e)
    }
}

impl From<std::io::Error> for PipelineError {
    fn from(e: std::io::Error) -> Self {
        PipelineError::Cleanup(e)
    }
}

/// Run the complete pipeline.
pub fn run_pipeline(study: &StudyConfig, mode: BatchMode) -> Result<StudyResults, PipelineError> {
    let dataset = run_study(study);
    analyze_dataset(dataset, mode)
}

/// Run batch GCD + fingerprinting over an existing dataset (lets callers
/// reuse one simulated corpus across analyses).
pub fn analyze_dataset(
    dataset: StudyDataset,
    mode: BatchMode,
) -> Result<StudyResults, PipelineError> {
    let moduli = dataset.moduli.all();
    let (raw, statuses, batch_stats) = match mode {
        BatchMode::Classic { threads } => {
            let r = batch_gcd(moduli, threads);
            (r.raw_divisors, r.statuses, Some(r.stats))
        }
        BatchMode::Distributed(cfg) => {
            let r = distributed_batch_gcd(moduli, cfg);
            (r.raw_divisors, r.statuses, None)
        }
        BatchMode::Sharded {
            threads,
            shard_capacity,
        } => {
            // Scratch export: the persistent-store workflow (export once,
            // analyze many times) goes through `ModulusStore::export_shards`
            // directly; here the store is transient.
            let dir = wk_batchgcd::scratch_dir("pipeline-shards");
            let store = dataset.moduli.export_shards(&dir, shard_capacity)?;
            let r = sharded_batch_gcd(&store, threads)?;
            store.remove()?;
            (r.raw_divisors, r.statuses, Some(r.stats))
        }
        BatchMode::Incremental {
            threads,
            shard_capacity,
            batches,
        } => {
            // Replay the corpus as `batches` successive scan months: an
            // empty store + cache bootstraps on the first chunk, and every
            // later chunk rides the delta path. Persistent-store workflows
            // keep the store/cache directories across processes; here both
            // are transient.
            let store_dir = wk_batchgcd::scratch_dir("pipeline-incr-store");
            let cache_dir = wk_batchgcd::scratch_dir("pipeline-incr-cache");
            let mut store = ShardStore::create(&store_dir, shard_capacity, std::iter::empty())?;
            let (mut cache, mut r) = TreeCache::build(&cache_dir, &store, threads)?;
            let chunk = moduli.len().div_ceil(batches.max(1)).max(1);
            for month in moduli.chunks(chunk) {
                r = incremental_batch_gcd(&mut store, &mut cache, month, shard_capacity, threads)?;
            }
            cache.remove()?;
            store.remove()?;
            (r.raw_divisors, r.statuses, Some(r.stats))
        }
    };

    // Partition hits: genuine shared-prime factorizations vs. smooth
    // divisors (bit errors).
    let StatusPartition {
        vulnerable,
        factored,
        bit_error_hits,
    } = partition_statuses(&raw, &statuses);

    // MITM detection over all HTTPS observations.
    let mut observations = Vec::new();
    for scan in dataset.https_scans() {
        for rec in &scan.records {
            let Some(leaf) = wk_analysis::record_leaf(&dataset, &rec.certs) else {
                continue;
            };
            observations.push(KeyObservation {
                modulus: rec.modulus,
                ip: rec.ip,
                subject: dataset.certs.get(leaf).subject.render(),
            });
        }
    }
    // A fixed-pool generator (IBM) also serves one modulus at many IPs
    // under many subjects; the Rimon signature is that the substituted key
    // is additionally *not* factorable (the ISP's own healthy key) — filter
    // factored moduli out, as the paper's manual investigation did.
    let mitm_suspects: Vec<MitmSuspect> = detect_key_substitution(&observations, 3, 3)
        .into_iter()
        .filter(|s| !vulnerable.contains(&s.modulus))
        .collect();

    // Fixed-pool clique detection: a 9-to-12-prime clique is the IBM
    // RSA-II/BladeCenter fingerprint (§3.3.1). The paper labels those
    // moduli from the known prime list of [21]; here the list is recovered
    // structurally from the same data.
    let cliques = detect_cliques(&factored, 6);
    let clique_labels: Vec<(PrimeClique, VendorId)> = cliques
        .iter()
        .filter(|c| c.primes.len() <= 12)
        .map(|c| (c.clone(), VendorId::Ibm))
        .collect();

    let labeling = label_dataset_with_cliques(&dataset, &factored, &clique_labels);

    Ok(StudyResults {
        dataset,
        vulnerable,
        factored,
        bit_error_hits,
        mitm_suspects,
        labeling,
        cliques,
        batch_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wk_scan::VendorId;

    fn tiny_config() -> StudyConfig {
        let mut cfg = StudyConfig::test_small();
        cfg.scale = 0.08;
        cfg.background_hosts = 60;
        cfg.ssh_hosts = 30;
        cfg.ssh_vulnerable = 2;
        cfg.mail_hosts = 10;
        cfg
    }

    #[test]
    fn pipeline_runs_and_finds_vulnerable_keys() {
        let results = run_pipeline(&tiny_config(), BatchMode::default()).expect("pipeline");
        assert!(
            !results.vulnerable.is_empty(),
            "simulated study must contain factorable keys"
        );
        assert!(results.factored.len() <= results.vulnerable.len());
        let stats = results
            .batch_stats
            .as_ref()
            .expect("classic mode records stats");
        // The work-stealing pool meters every phase, even single-threaded.
        assert!(stats.product_tree_exec.tasks() > 0);
        assert!(stats.remainder_tree_exec.tasks() > 0);
        assert!(stats.gcd_exec.tasks() > 0);
        assert!(stats.total_exec().busy_total() > std::time::Duration::ZERO);
        // Every factored modulus re-multiplies correctly.
        for f in &results.factored {
            let n = results.dataset.moduli.get(f.id);
            assert_eq!(&(&f.p * &f.q), n);
        }
    }

    #[test]
    fn classic_and_distributed_agree() {
        let cfg = tiny_config();
        let dataset_a = run_study(&cfg);
        let dataset_b = run_study(&cfg);
        let classic =
            analyze_dataset(dataset_a, BatchMode::Classic { threads: 1 }).expect("classic");
        let dist = analyze_dataset(
            dataset_b,
            BatchMode::Distributed(ClusterConfig::sequential(4)),
        )
        .expect("distributed");
        let mut a: Vec<_> = classic.vulnerable.iter().collect();
        let mut b: Vec<_> = dist.vulnerable.iter().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_mode_agrees_with_classic_and_records_stats() {
        let cfg = tiny_config();
        let dataset_a = run_study(&cfg);
        let dataset_b = run_study(&cfg);
        let classic =
            analyze_dataset(dataset_a, BatchMode::Classic { threads: 1 }).expect("classic");
        let sharded = analyze_dataset(
            dataset_b,
            BatchMode::Sharded {
                threads: 2,
                shard_capacity: 64,
            },
        )
        .expect("sharded");
        let mut a: Vec<_> = classic.vulnerable.iter().collect();
        let mut b: Vec<_> = sharded.vulnerable.iter().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(sharded.batch_stats.is_some(), "sharded mode records stats");
    }

    #[test]
    fn incremental_mode_agrees_with_classic_and_reports_delta_metrics() {
        let cfg = tiny_config();
        let dataset_a = run_study(&cfg);
        let dataset_b = run_study(&cfg);
        let classic =
            analyze_dataset(dataset_a, BatchMode::Classic { threads: 1 }).expect("classic");
        let incremental = analyze_dataset(
            dataset_b,
            BatchMode::Incremental {
                threads: 2,
                shard_capacity: 64,
                batches: 3,
            },
        )
        .expect("incremental");
        let mut a: Vec<_> = classic.vulnerable.iter().collect();
        let mut b: Vec<_> = incremental.vulnerable.iter().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(classic.factored.len(), incremental.factored.len());
        let stats = incremental
            .batch_stats
            .expect("incremental mode records stats");
        // The last chunk ran as a delta against the two cached months.
        assert!(!stats.delta.is_empty());
        assert!(stats.delta.delta_count > 0);
        assert!(stats.delta.cached_count >= stats.delta.delta_count);
    }

    #[test]
    fn pipeline_matches_ground_truth() {
        let results = run_pipeline(&tiny_config(), BatchMode::default()).expect("pipeline");
        // No false positives: everything we factored is truly weak (or a
        // duplicate-modulus artifact, which the simulator doesn't produce).
        for id in &results.vulnerable {
            let truth = &results.dataset.truth.moduli[id];
            assert!(truth.weak, "factored a non-weak modulus {id:?}");
        }
        // Recall: most truly-weak moduli are found (singleton pool primes
        // are legitimately invisible to batch GCD).
        let weak_total = results
            .dataset
            .truth
            .moduli
            .values()
            .filter(|t| t.weak)
            .count();
        let found = results.vulnerable.len();
        assert!(
            found * 10 >= weak_total * 5,
            "recall too low: {found}/{weak_total}"
        );
    }

    #[test]
    fn mitm_detected_and_not_counted_vulnerable() {
        let results = run_pipeline(&tiny_config(), BatchMode::default()).expect("pipeline");
        assert!(
            !results.mitm_suspects.is_empty(),
            "Rimon-style substitution must be detected"
        );
        for suspect in &results.mitm_suspects {
            let truth = &results.dataset.truth.moduli[&suspect.modulus];
            assert!(truth.mitm, "MITM false positive");
            assert!(
                !results.vulnerable.contains(&suspect.modulus),
                "the substituted key is not factorable"
            );
        }
    }

    #[test]
    fn labeling_covers_major_vendors() {
        let results = run_pipeline(&tiny_config(), BatchMode::default()).expect("pipeline");
        let labeled: HashSet<VendorId> = results.labeling.cert_vendor.values().copied().collect();
        for vendor in [VendorId::Juniper, VendorId::Hp, VendorId::FritzBox] {
            assert!(labeled.contains(&vendor), "missing {vendor:?}");
        }
    }
}
