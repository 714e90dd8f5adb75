//! The audit daemon: ingest, month-close transactions, crash recovery, and
//! the provenance-stamped query layer.
//!
//! ## Month-close protocol (DESIGN.md §10)
//!
//! 1. Read the delta watermark **from disk**: the shard store's committed
//!    modulus count, never an in-process counter — a crash between
//!    in-memory ingest and shard export can therefore never double-ingest
//!    or skip a month.
//! 2. `incremental_batch_gcd`: append the delta shards, update + persist
//!    the tree cache.
//! 3. Refresh the hot query index from the result.
//! 4. Persist `labels.tsv` (derived metadata — vendor labels, first-seen
//!    and factored-since months).
//! 5. Persist `run_metadata.json` — the **commit point**. Until this
//!    rename lands, recovery treats the month as uncommitted.
//!
//! ## Recovery (every [`AuditDaemon::open`])
//!
//! * Remove `*.tmp` orphans (staged writes that never published).
//! * If the tree cache validates against the full shard store, the last
//!   month's persist completed: **roll forward** and re-commit the
//!   watermark.
//! * Otherwise **roll back**: delete trailing shards beyond the committed
//!   watermark (appends always start a new shard, so the watermark lands
//!   on a shard boundary), then reopen; if the cache still does not
//!   validate, rebuild it from the store. Either way the surviving corpus
//!   is byte-identical to a committed state — never a hybrid.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;
use weakkeys::partition_statuses;
use wk_analysis::attribute_moduli;
use wk_batchgcd::{incremental_batch_gcd, BatchGcdResult, IncrementalError, ShardStore, TreeCache};
use wk_bigint::Natural;
use wk_cert::MonthDate;
use wk_cluster::{run_cluster, ClusterSpec};
use wk_scan::{ModulusId, ModulusStore, VendorId};

use crate::error::ServiceError;
use crate::feed::{FeedEvent, FeedReceiver, HostObservation};
use crate::provenance::{write_atomic, LabelLedger, Provenance, Watermark};

/// Static configuration of an audit daemon instance.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Service directory: shard store, tree cache, and metadata live here.
    pub dir: PathBuf,
    /// Maximum moduli per corpus shard.
    pub shard_capacity: usize,
    /// Worker threads for the batch-GCD pool.
    pub threads: usize,
    /// First month the feed covers; months are sequential from here, so
    /// month identity survives restarts as `start_month + months_closed`.
    pub start_month: MonthDate,
    /// When set, month-close phase 1 is delegated to a real multi-process
    /// cluster of `wk-cluster-node` workers instead of running in this
    /// process (DESIGN.md §12.7). Phases 2–3 and every commit/crash-window
    /// property of the close protocol are unchanged.
    pub cluster: Option<ClusterClose>,
}

/// How a cluster-delegated month close runs its worker fleet.
#[derive(Clone, Debug)]
pub struct ClusterClose {
    /// Path to the `wk-cluster-node` binary
    /// ([`wk_cluster::sibling_node_bin`] finds it next to the current
    /// executable).
    pub node_bin: PathBuf,
    /// Worker processes to spawn per close.
    pub nodes: u32,
    /// Lease staleness window shared by the fleet.
    pub stale_after: Duration,
    /// Heartbeat interval shared by the fleet.
    pub heartbeat_every: Duration,
    /// Idle-sweep poll interval shared by the fleet.
    pub poll_every: Duration,
}

impl ClusterClose {
    /// A fleet of `nodes` workers with production-shaped lease timing
    /// (mirrors [`wk_cluster::ClusterSpec::new`]).
    pub fn new(node_bin: PathBuf, nodes: u32) -> ClusterClose {
        ClusterClose {
            node_bin,
            nodes,
            stale_after: Duration::from_secs(30),
            heartbeat_every: Duration::from_secs(5),
            poll_every: Duration::from_millis(250),
        }
    }
}

impl AuditConfig {
    /// A small config rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>, start_month: MonthDate) -> AuditConfig {
        AuditConfig {
            dir: dir.into(),
            shard_capacity: 8,
            threads: 2,
            start_month,
            cluster: None,
        }
    }

    fn store_dir(&self) -> PathBuf {
        self.dir.join("store")
    }

    fn cluster_dir(&self) -> PathBuf {
        self.dir.join("cluster")
    }

    fn cache_dir(&self) -> PathBuf {
        self.dir.join("cache")
    }

    fn metadata_path(&self) -> PathBuf {
        self.dir.join("run_metadata.json")
    }

    fn labels_path(&self) -> PathBuf {
        self.dir.join("labels.tsv")
    }
}

/// What [`AuditDaemon::open`] had to do to reach a consistent state —
/// surfaced for tests and operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recovery {
    /// Fresh service directory, nothing on disk yet.
    Fresh,
    /// Disk state matched the committed watermark exactly.
    Clean,
    /// An uncommitted but fully persisted month was adopted and committed.
    RolledForward,
    /// Trailing uncommitted shards were discarded back to the watermark.
    RolledBack,
    /// The tree cache was rebuilt from the (committed) shard store.
    RebuiltCache,
}

/// Summary of one committed month-close transaction.
#[derive(Clone, Debug)]
pub struct MonthReport {
    /// The month that closed.
    pub month: MonthDate,
    /// New distinct moduli this month contributed.
    pub new_moduli: usize,
    /// Corpus size after the close.
    pub total_moduli: u64,
    /// Vulnerable moduli across the whole corpus after the close.
    pub vulnerable: usize,
    /// Moduli whose factorization first appeared this month.
    pub newly_factored: usize,
}

/// Result of draining a feed with [`AuditDaemon::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeSummary {
    /// Host observations ingested.
    pub hosts_ingested: u64,
    /// Months closed and committed.
    pub months_closed: u32,
}

/// Answer to "is this modulus factored / which vendor / since when".
#[derive(Clone, Debug)]
pub struct QueryAnswer {
    /// Whether the modulus has ever been observed by the feed.
    pub known: bool,
    /// Whether a committed analysis pass factored it.
    pub factored: bool,
    /// The recovered factors, when factored.
    pub factors: Option<(Natural, Natural)>,
    /// Vendor attribution (subject label or shared-prime extrapolation).
    pub vendor: Option<VendorId>,
    /// Month the modulus was first observed.
    pub first_seen: Option<MonthDate>,
    /// Month its factorization first appeared in a committed pass.
    pub factored_since: Option<MonthDate>,
    /// The corpus/cache state the answer was computed from.
    pub provenance: Provenance,
}

/// The hot query index, refreshed at every month close and on restart.
#[derive(Clone, Debug, Default)]
struct QueryIndex {
    vulnerable: HashSet<ModulusId>,
    factors: HashMap<ModulusId, (Natural, Natural)>,
    vendors: HashMap<ModulusId, VendorId>,
}

/// A long-running key-audit daemon over one service directory.
pub struct AuditDaemon {
    config: AuditConfig,
    store: ShardStore,
    cache: TreeCache,
    moduli: ModulusStore,
    ledger: LabelLedger,
    index: QueryIndex,
    watermark: Watermark,
    recovery: Recovery,
}

impl AuditDaemon {
    /// Open (or initialise) the service directory, running crash recovery
    /// as needed, and return a daemon whose in-memory state mirrors a
    /// committed on-disk state.
    pub fn open(config: AuditConfig) -> Result<AuditDaemon, ServiceError> {
        fs::create_dir_all(&config.dir)?;
        for dir in [&config.dir, &config.store_dir(), &config.cache_dir()] {
            wk_batchgcd::durable::remove_tmps(dir, "")?;
        }

        let committed = match fs::read_to_string(config.metadata_path()) {
            Ok(src) => Some(Watermark::from_json(&src, &config.metadata_path())?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };

        // Fresh bootstrap: nothing committed and no corpus on disk.
        let store_exists = config.store_dir().is_dir();
        if committed.is_none() && !store_exists {
            let store = ShardStore::create(
                &config.store_dir(),
                config.shard_capacity,
                std::iter::empty(),
            )?;
            let (cache, result) = TreeCache::build(&config.cache_dir(), &store, config.threads)?;
            let mut daemon = AuditDaemon {
                config,
                store,
                cache,
                moduli: ModulusStore::default(),
                ledger: LabelLedger::default(),
                index: QueryIndex::default(),
                watermark: Watermark::empty(0),
                recovery: Recovery::Fresh,
            };
            daemon.refresh_index(&result);
            daemon.commit_metadata(0, None)?;
            return Ok(daemon);
        }

        let mut store = ShardStore::open(&config.store_dir())?;
        let committed_moduli = committed.as_ref().map(|w| w.corpus_moduli).unwrap_or(0);
        if store.total_moduli() < committed_moduli {
            return Err(ServiceError::CorruptState {
                message: format!(
                    "watermark commits {committed_moduli} moduli but the shard store holds {}",
                    store.total_moduli()
                ),
            });
        }

        // Decide between roll-forward and roll-back by whether the cache
        // binds to the full store as found on disk.
        let mut recovery;
        let (cache, rebuild_result) = match Self::try_open_cache(&config.cache_dir(), &store)? {
            Some(cache) => {
                recovery = if store.total_moduli() == committed_moduli {
                    Recovery::Clean
                } else {
                    Recovery::RolledForward
                };
                (cache, None)
            }
            None => {
                // Roll back to the committed boundary, then bind or rebuild.
                if store.total_moduli() > committed_moduli {
                    store = Self::rollback_store(&config, store, committed_moduli)?;
                    recovery = Recovery::RolledBack;
                } else {
                    recovery = Recovery::RebuiltCache;
                }
                match Self::try_open_cache(&config.cache_dir(), &store)? {
                    Some(cache) => (cache, None),
                    None => {
                        recovery = Recovery::RebuiltCache;
                        TreeCache::remove_at(&config.cache_dir())?;
                        let (cache, result) =
                            TreeCache::build(&config.cache_dir(), &store, config.threads)?;
                        (cache, Some(result))
                    }
                }
            }
        };

        // Rebuild the in-memory modulus store from the committed shards —
        // the disk is the source of truth for ids and the delta watermark.
        let mut moduli = ModulusStore::default();
        for index in 0..store.shard_count() {
            for n in store.read_shard(index as u32)? {
                moduli.intern(&n);
            }
        }
        if moduli.len() as u64 != store.total_moduli() {
            return Err(ServiceError::CorruptState {
                message: format!(
                    "shards replay to {} distinct moduli but the store counts {}",
                    moduli.len(),
                    store.total_moduli()
                ),
            });
        }

        // Month accounting: a rolled-forward corpus is one close past the
        // committed watermark.
        let mut months_closed = committed.as_ref().map(|w| w.months_closed).unwrap_or(0);
        if recovery == Recovery::RolledForward {
            months_closed += 1;
        }
        if months_closed == 0 && store.total_moduli() > 0 {
            // A first month persisted fully but its watermark never landed.
            months_closed = 1;
            recovery = Recovery::RolledForward;
        }
        let last_month = (months_closed > 0).then(|| config.start_month.plus(months_closed - 1));

        // Derived metadata: prune entries past the surviving corpus, then
        // backfill anything the corpus has that the (possibly stale) label
        // file predates.
        let mut ledger = match fs::read_to_string(config.labels_path()) {
            Ok(src) => LabelLedger::from_tsv(&src, &config.labels_path())?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => LabelLedger::default(),
            Err(e) => return Err(e.into()),
        };
        ledger.truncate(moduli.len());

        let mut daemon = AuditDaemon {
            config,
            store,
            cache,
            moduli,
            ledger,
            index: QueryIndex::default(),
            watermark: Watermark::empty(0),
            recovery,
        };

        // Rebuild the hot index from the committed corpus: either the
        // rebuild pass already produced the full result, or an empty-delta
        // incremental run reconstructs it from the cached hits.
        let result = match rebuild_result {
            Some(result) => result,
            None => incremental_batch_gcd(
                &mut daemon.store,
                &mut daemon.cache,
                &[],
                daemon.config.shard_capacity,
                daemon.config.threads,
            )?,
        };
        if let Some(backfill) = last_month {
            for id in (0..daemon.moduli.len() as u32).map(ModulusId) {
                daemon.ledger.first_seen.entry(id).or_insert(backfill);
            }
        }
        daemon.refresh_index(&result);
        if let Some(backfill) = last_month {
            for id in daemon.index.factors.keys() {
                daemon.ledger.factored_since.entry(*id).or_insert(backfill);
            }
        }

        // Re-commit so disk reflects exactly the adopted state.
        daemon.commit_metadata(months_closed, last_month)?;
        Ok(daemon)
    }

    /// Open the cache if it exists and binds to `store`; `None` on a stale
    /// or corrupt cache (both are recoverable), error otherwise.
    fn try_open_cache(dir: &Path, store: &ShardStore) -> Result<Option<TreeCache>, ServiceError> {
        if !TreeCache::exists(dir) {
            return Ok(None);
        }
        match TreeCache::open(dir, store) {
            Ok(cache) => Ok(Some(cache)),
            Err(IncrementalError::Stale { .. }) | Err(IncrementalError::CacheCorrupt { .. }) => {
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Delete trailing shards beyond the committed modulus count and reopen
    /// the store. Appends always start a new shard, so a committed count
    /// lands exactly on a shard boundary; anything else is corruption.
    fn rollback_store(
        config: &AuditConfig,
        store: ShardStore,
        committed_moduli: u64,
    ) -> Result<ShardStore, ServiceError> {
        let mut cumulative = 0u64;
        let mut keep = 0usize;
        for meta in store.shards() {
            if cumulative == committed_moduli {
                break;
            }
            cumulative += meta.count;
            keep += 1;
        }
        if cumulative != committed_moduli {
            return Err(ServiceError::CorruptState {
                message: format!(
                    "committed count {committed_moduli} does not land on a shard boundary"
                ),
            });
        }
        let doomed: Vec<PathBuf> = (keep..store.shard_count())
            .map(|i| store.shard_path(i as u32))
            .collect();
        drop(store);
        for path in doomed {
            fs::remove_file(&path)?;
        }
        wk_batchgcd::fsync_dir(&config.store_dir())?;
        Ok(ShardStore::open(&config.store_dir())?)
    }

    /// Recompute the hot query index from a full-corpus batch result.
    fn refresh_index(&mut self, result: &BatchGcdResult) {
        let partition = partition_statuses(&result.raw_divisors, &result.statuses);
        let (vendors, _overlaps) =
            attribute_moduli(&partition.factored, &self.ledger.subject_vendor);
        let mut factors = HashMap::new();
        for f in &partition.factored {
            factors.insert(f.id, (f.p.clone(), f.q.clone()));
        }
        self.index = QueryIndex {
            vulnerable: partition.vulnerable,
            factors,
            vendors,
        };
    }

    /// Persist `labels.tsv` then `run_metadata.json` (the commit point) and
    /// adopt the new watermark in memory.
    fn commit_metadata(
        &mut self,
        months_closed: u32,
        last_month: Option<MonthDate>,
    ) -> Result<(), ServiceError> {
        write_atomic(&self.config.labels_path(), self.ledger.to_tsv().as_bytes())?;
        let watermark = Watermark {
            months_closed,
            last_month,
            corpus_moduli: self.store.total_moduli(),
            corpus_tag: self.store.state_tag(),
            cache_tag: self.cache.state_tag(),
            shard_capacity: self.store.capacity(),
        };
        write_atomic(&self.config.metadata_path(), watermark.to_json().as_bytes())?;
        self.watermark = watermark;
        Ok(())
    }

    /// What recovery path the last [`AuditDaemon::open`] took.
    pub fn recovery(&self) -> Recovery {
        self.recovery
    }

    /// The committed watermark.
    pub fn watermark(&self) -> &Watermark {
        &self.watermark
    }

    /// The month currently open for ingestion.
    pub fn current_month(&self) -> MonthDate {
        self.config.start_month.plus(self.watermark.months_closed)
    }

    /// Distinct moduli observed so far (committed and in-flight).
    pub fn observed_moduli(&self) -> usize {
        self.moduli.len()
    }

    /// Ingest one host observation into the open month.
    ///
    /// # Errors
    /// [`ServiceError::InvalidModulus`] for a zero modulus (batch GCD would
    /// reject the whole delta later; the feed path reports it per host).
    pub fn ingest(&mut self, obs: &HostObservation) -> Result<ModulusId, ServiceError> {
        if obs.modulus.is_zero() {
            return Err(ServiceError::InvalidModulus);
        }
        let id = self.moduli.intern(&obs.modulus);
        let month = self.current_month();
        self.ledger.first_seen.entry(id).or_insert(month);
        if let Some(vendor) = obs.vendor {
            self.ledger.subject_vendor.entry(id).or_insert(vendor);
        }
        Ok(id)
    }

    /// Close the open month: run the incremental pass over this month's
    /// delta, refresh the query index, and commit. See the module docs for
    /// the step ordering and crash windows.
    pub fn close_month(&mut self, month: MonthDate) -> Result<MonthReport, ServiceError> {
        let expected = self.current_month();
        if month != expected {
            return Err(ServiceError::MonthMismatch {
                expected,
                got: month,
            });
        }
        // The delta watermark comes from the *persisted* corpus count, not
        // an in-process counter: after any crash/restart the two agree, and
        // a re-delivered month cannot double-ingest.
        let persisted = usize::try_from(self.store.total_moduli()).unwrap_or(usize::MAX);
        let delta = self.moduli.moduli_since(persisted).to_vec();
        let before_factored: HashSet<ModulusId> = self.index.factors.keys().copied().collect();

        let result = match self.config.cluster.clone() {
            Some(cluster) => self.close_on_cluster(&delta, &cluster)?,
            None => incremental_batch_gcd(
                &mut self.store,
                &mut self.cache,
                &delta,
                self.config.shard_capacity,
                self.config.threads,
            )?,
        };
        self.refresh_index(&result);
        let mut newly_factored = 0;
        for id in self.index.factors.keys() {
            if !before_factored.contains(id) {
                self.ledger.factored_since.entry(*id).or_insert(month);
                newly_factored += 1;
            }
        }
        self.commit_metadata(self.watermark.months_closed + 1, Some(month))?;
        Ok(MonthReport {
            month,
            new_moduli: delta.len(),
            total_moduli: self.store.total_moduli(),
            vulnerable: self.index.vulnerable.len(),
            newly_factored,
        })
    }

    /// Month-close phase 1 on a real multi-process cluster: append the
    /// delta shards, run the worker fleet over the whole store, then
    /// persist a tree cache from the assembly so subsequent opens,
    /// recoveries, and queries see exactly what an in-process close would
    /// have produced (the result is byte-identical by construction).
    ///
    /// Crash windows match the in-process path: the committed watermark
    /// still lands last, an interrupted close leaves either trailing
    /// uncommitted shards (rolled back on reopen) or a fully persisted
    /// cache (rolled forward). Leftover cluster state from an interrupted
    /// close is swept by the next run — stale exchange roots no longer
    /// bind to the store's state tag.
    fn close_on_cluster(
        &mut self,
        delta: &[Natural],
        cluster: &ClusterClose,
    ) -> Result<BatchGcdResult, ServiceError> {
        if !delta.is_empty() {
            self.store.append(self.config.shard_capacity, delta)?;
        }
        let mut spec = ClusterSpec::new(
            self.config.cluster_dir(),
            cluster.node_bin.clone(),
            cluster.nodes,
        );
        spec.stale_after = cluster.stale_after;
        spec.heartbeat_every = cluster.heartbeat_every;
        spec.poll_every = cluster.poll_every;
        let outcome = run_cluster(&self.config.store_dir(), &spec, self.config.threads)?;
        let assembly = outcome.assembly;
        self.cache = TreeCache::from_parts(
            &self.config.cache_dir(),
            &self.store,
            assembly.shard_products,
            &assembly.result,
        )?;
        Ok(assembly.result)
    }

    /// Drain a feed until `Shutdown` (or every sender hangs up).
    pub fn run(&mut self, feed: &FeedReceiver) -> Result<ServeSummary, ServiceError> {
        let mut summary = ServeSummary::default();
        while let Some(event) = feed.recv() {
            match event {
                FeedEvent::Host(obs) => {
                    self.ingest(&obs)?;
                    summary.hosts_ingested += 1;
                }
                FeedEvent::MonthClose(month) => {
                    self.close_month(month)?;
                    summary.months_closed += 1;
                }
                FeedEvent::Shutdown => return Ok(summary),
            }
        }
        Ok(summary)
    }

    /// Answer "is this modulus factored / which vendor / since when" from
    /// the hot index, stamped with the provenance of the committed state
    /// the index was built from. Moduli ingested after the last month close
    /// are `known` but not yet analyzed.
    pub fn query(&self, modulus: &Natural) -> QueryAnswer {
        let provenance = Provenance {
            corpus_tag: self.watermark.corpus_tag,
            cache_tag: self.watermark.cache_tag,
            corpus_moduli: self.watermark.corpus_moduli,
            months_closed: self.watermark.months_closed,
            last_month: self.watermark.last_month,
        };
        let Some(id) = self.moduli.lookup(modulus) else {
            return QueryAnswer {
                known: false,
                factored: false,
                factors: None,
                vendor: None,
                first_seen: None,
                factored_since: None,
                provenance,
            };
        };
        let factors = self.index.factors.get(&id).cloned();
        QueryAnswer {
            known: true,
            factored: factors.is_some(),
            factors,
            vendor: self.index.vendors.get(&id).copied(),
            first_seen: self.ledger.first_seen.get(&id).copied(),
            factored_since: self.ledger.factored_since.get(&id).copied(),
            provenance,
        }
    }

    /// Verify the in-memory provenance tags against the on-disk stores —
    /// what an auditor does with a query answer in hand.
    pub fn verify_provenance(&self) -> Result<(), ServiceError> {
        let store = ShardStore::open(&self.config.store_dir())?;
        if store.state_tag() != self.watermark.corpus_tag {
            return Err(ServiceError::CorruptState {
                message: "corpus state tag does not match the committed watermark".to_string(),
            });
        }
        let cache = TreeCache::open(&self.config.cache_dir(), &store)?;
        if cache.state_tag() != self.watermark.cache_tag {
            return Err(ServiceError::CorruptState {
                message: "cache state tag does not match the committed watermark".to_string(),
            });
        }
        Ok(())
    }
}
