//! Spawning a real multi-process cluster run and assembling its result
//! (DESIGN.md §12.6).
//!
//! [`run_cluster`] launches N `wk-cluster-node` worker *processes* over
//! one store and one cluster directory, waits for them, sweeps any
//! leftovers itself (so a run completes even if every child crashed),
//! collects the published roots, and hands them to
//! [`assemble_from_shard_roots`] — phases 2–3 of the single-process
//! sharded run, shared code, so the divisors and statuses are
//! byte-identical to [`sharded_batch_gcd`] by construction.
//!
//! [`sharded_batch_gcd`]: wk_batchgcd::sharded_batch_gcd

use crate::error::ClusterError;
use crate::exchange::ExchangeDir;
use crate::failure::FailurePlan;
use crate::lease::LeaseDir;
use crate::worker::{run_node, NodeConfig, NodeSummary};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;
use wk_batchgcd::{assemble_from_shard_roots, ShardAssembly, ShardStore};

/// How to run one cluster sweep: where, with which binary, how many
/// worker processes, and the lease timing parameters every participant
/// shares.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Shared cluster directory; `leases/` and `exchange/` are created
    /// inside it.
    pub cluster_dir: PathBuf,
    /// Path to the `wk-cluster-node` binary
    /// ([`sibling_node_bin`] locates it next to the current executable).
    pub node_bin: PathBuf,
    /// Worker processes to spawn.
    pub nodes: u32,
    /// Lease staleness window handed to every node.
    pub stale_after: Duration,
    /// Heartbeat interval handed to every node.
    pub heartbeat_every: Duration,
    /// Idle-sweep poll interval handed to every node.
    pub poll_every: Duration,
    /// Per-node failure specs (the `WK_CLUSTER_FAILPOINT` grammar),
    /// index-aligned with spawned nodes; missing/`None` entries run
    /// clean. The coordinator's own sweep always runs clean.
    pub failpoints: Vec<Option<String>>,
}

impl ClusterSpec {
    /// A spec with production-shaped lease timing (30 s staleness, 5 s
    /// heartbeats, 250 ms polls) and no fault injection.
    pub fn new(cluster_dir: PathBuf, node_bin: PathBuf, nodes: u32) -> ClusterSpec {
        ClusterSpec {
            cluster_dir,
            node_bin,
            nodes,
            stale_after: Duration::from_secs(30),
            heartbeat_every: Duration::from_secs(5),
            poll_every: Duration::from_millis(250),
            failpoints: Vec::new(),
        }
    }
}

/// How one spawned worker process exited.
#[derive(Clone, Debug)]
pub struct NodeExit {
    /// The owner id the node ran under.
    pub owner: String,
    /// Raw exit code, when the process exited (rather than was signaled).
    pub code: Option<i32>,
    /// Whether the exit was clean (code 0).
    pub clean: bool,
}

/// A finished cluster run.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// The batch result plus tree material — `assembly.result` is
    /// byte-identical to the single-process sharded run over the same
    /// store, and `assembly.result` with `assembly.shard_products` is what
    /// [`TreeCache::from_parts`](wk_batchgcd::TreeCache::from_parts)
    /// needs to persist a cache without recomputing.
    pub assembly: ShardAssembly,
    /// Exit status of every spawned worker.
    pub node_exits: Vec<NodeExit>,
    /// What the coordinator's own leftover sweep did (all zeros when the
    /// workers finished everything).
    pub coordinator: NodeSummary,
}

/// Locate `wk-cluster-node` next to the current executable — works from
/// test binaries (`target/<profile>/deps/…`), examples
/// (`target/<profile>/examples/…`), and sibling binaries, since cargo
/// puts them all under the same profile directory.
pub fn sibling_node_bin() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?;
    if dir.ends_with("deps") || dir.ends_with("examples") {
        dir = dir.parent()?;
    }
    let candidate = dir.join(format!("wk-cluster-node{}", std::env::consts::EXE_SUFFIX));
    if candidate.is_file() {
        Some(candidate)
    } else {
        None
    }
}

/// Spawn `spec.nodes` worker processes over `store_dir`, wait for them
/// all, sweep any unpublished shards inline (clean [`FailurePlan`], same
/// protocol), then collect the roots and run the shared assembly.
///
/// Worker crashes are *not* errors here — containment is the point; a
/// crash surfaces as a non-`clean` [`NodeExit`] while the run still
/// completes and the result is still byte-identical. Only conditions that
/// make the result unobtainable or untrustworthy error out: an unreadable
/// store, an exchange file bound to a different store state, spawn
/// failures.
pub fn run_cluster(
    store_dir: &Path,
    spec: &ClusterSpec,
    threads: usize,
) -> Result<ClusterOutcome, ClusterError> {
    let store = ShardStore::open(store_dir)?;
    LeaseDir::init(&spec.cluster_dir)?;
    // A reused cluster directory may hold roots from a run over an older
    // store state (workers only probe existence); sweep them before any
    // worker can skip a shard because of one.
    ExchangeDir::init(&spec.cluster_dir)?.sweep_mismatched(&store)?;

    let mut children = Vec::new();
    for i in 0..spec.nodes {
        let owner = format!("node-{i}");
        let mut cmd = Command::new(&spec.node_bin);
        cmd.arg("--store")
            .arg(store_dir)
            .arg("--cluster")
            .arg(&spec.cluster_dir)
            .arg("--owner")
            .arg(&owner)
            .arg("--stale-after-ms")
            .arg(spec.stale_after.as_millis().to_string())
            .arg("--heartbeat-ms")
            .arg(spec.heartbeat_every.as_millis().to_string())
            .arg("--poll-ms")
            .arg(spec.poll_every.as_millis().to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        // Never let a fault spec leak from this process's environment
        // into children that were not explicitly armed.
        cmd.env_remove(FailurePlan::ENV_VAR);
        if let Some(Some(fault)) = spec.failpoints.get(i as usize) {
            cmd.env(FailurePlan::ENV_VAR, fault);
        }
        let child = cmd.spawn().map_err(|source| ClusterError::NodeSpawn {
            owner: owner.clone(),
            source,
        })?;
        children.push((owner, child));
    }

    let mut node_exits = Vec::with_capacity(children.len());
    for (owner, mut child) in children {
        let status = child.wait().map_err(|source| ClusterError::NodeSpawn {
            owner: owner.clone(),
            source,
        })?;
        node_exits.push(NodeExit {
            owner,
            code: status.code(),
            clean: status.success(),
        });
    }

    // Leaderless leftover sweep: if every armed/killed child left shards
    // unpublished, the coordinator is just another node and finishes the
    // job through the same protocol.
    let mut coord_cfg = NodeConfig::new(
        store_dir.to_path_buf(),
        spec.cluster_dir.clone(),
        format!("coord-{}", std::process::id()),
    );
    coord_cfg.stale_after = spec.stale_after;
    coord_cfg.heartbeat_every = spec.heartbeat_every;
    coord_cfg.poll_every = spec.poll_every;
    let coordinator = run_node(&coord_cfg)?;

    let exchange = ExchangeDir::init(&spec.cluster_dir)?;
    let published = exchange.collect(&store)?;
    let mut roots = Vec::with_capacity(published.len());
    let mut missing = Vec::new();
    for (index, entry) in published.into_iter().enumerate() {
        match entry {
            Some(root) => roots.push(root.root),
            None => missing.push(index as u32),
        }
    }
    if !missing.is_empty() {
        // Unreachable after a completed coordinator sweep; kept as a
        // typed error rather than trusting that argument forever.
        return Err(ClusterError::Incomplete { missing });
    }

    // Every worker has exited and every root is published: lease-side
    // state (leases, tombstones, temps) is now history, and exchange
    // temps are orphans. The published roots stay — they are the run's
    // audit trail, bound to the store by its state tag.
    LeaseDir::init(&spec.cluster_dir)?.clear()?;
    exchange.remove_all_tmps()?;

    let assembly = assemble_from_shard_roots(&store, roots, threads)?;
    Ok(ClusterOutcome {
        assembly,
        node_exits,
        coordinator,
    })
}
