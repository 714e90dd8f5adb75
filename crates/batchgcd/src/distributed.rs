//! The paper's k-subset distributed batch GCD (§3.2, Figure 2).
//!
//! Instead of one product tree over all n moduli — whose root multiply /
//! divide operations bottleneck on a single huge integer — the input is
//! split into `k` subsets. Each cluster node builds the product tree for its
//! own subset, the k subset products are exchanged, and every node runs one
//! remainder-tree descent per product over its own tree. Pairing every
//! product with every subset guarantees coverage of all modulus pairs.
//!
//! Total work rises (the descent phase is run k times per node, quadratic in
//! k overall) but the largest integer ever touched shrinks from `Π all N_i`
//! to `Π subset N_i`, removing the central bottleneck — the trade the paper
//! reports as 86 minutes wall-clock / 1089 CPU-hours with k = 16 versus 500
//! minutes for the unmodified algorithm on one large machine.
//!
//! One precision beyond the paper's prose: the two kinds of product need
//! two descents. The node's *own* product `P_i` is divisible by every leaf,
//! so it runs the cofactor descent and each leaf takes `(P_i/N) mod N`, as
//! in the classic pass. A *foreign* product `P_j` shares no leaf, so it
//! runs the plain descent and each leaf takes `P_j mod N`, which is the
//! correct pair-coverage quantity. A leaf multiplies its k residues mod `N`
//! and takes one gcd of the product, so its divisor is `gcd(N, P/N)`
//! exactly as the single tree reports it, prime-power moduli included.

use crate::classic::leaf_divisors;
use crate::corpus::{CorpusError, ShardStore};
use crate::pool::{ExecDomain, PhaseExec, WorkerPool};
use crate::resolve::{resolve, KeyStatus};
use crate::tree::{Descent, ProductTree};
use std::time::{Duration, Instant};
use wk_bigint::Natural;

/// Configuration for the simulated cluster run.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of subsets (k) — one per simulated cluster node.
    pub subsets: usize,
    /// Execution slots of the one pool the run draws from: node tasks and
    /// the tree work inside them share it. On a single-core host this only
    /// interleaves; total CPU time is the honest metric.
    pub threads: usize,
}

impl ClusterConfig {
    /// A k-node cluster on one thread (deterministic timing).
    pub fn sequential(k: usize) -> Self {
        ClusterConfig {
            subsets: k,
            threads: 1,
        }
    }
}

/// Per-node accounting, mirroring what the paper reports per machine.
///
/// Timing follows the one rule of [`BatchStats`](crate::classic::BatchStats):
/// the `*_time` fields are wall-clock times of whole phases, and the busy
/// time of the node's gcds is in its executor counters.
#[derive(Clone, Debug)]
pub struct NodeReport {
    /// Node index (= subset index).
    pub node_id: usize,
    /// Moduli assigned to this node.
    pub subset_size: usize,
    /// Wall time building the node's own product tree.
    pub product_tree_time: Duration,
    /// Wall time of the node's leaf phase: all k remainder-tree descents
    /// and the per-leaf gcds.
    pub remainder_time: Duration,
    /// Bytes held by the node's own product tree (paper: 70-100 GB/node).
    pub tree_bytes: usize,
    /// Bytes of the largest *foreign* subset product (any `P_j`, `j` not
    /// this node) held during descent; 0 when `k = 1`.
    pub largest_foreign_product_bytes: usize,
    /// Executor metrics for the pool tasks this node's work submitted
    /// (tree-level multiplies, remainder steps and leaf gcds; slots are
    /// shared with the other nodes).
    pub exec: PhaseExec,
}

impl NodeReport {
    /// Total busy time for this node.
    pub fn busy_time(&self) -> Duration {
        self.product_tree_time + self.remainder_time
    }
}

/// Whole-run accounting. The `Default` is the report of a run over no
/// moduli.
#[derive(Clone, Debug, Default)]
pub struct ClusterReport {
    /// Per-node detail.
    pub nodes: Vec<NodeReport>,
    /// Measured wall-clock for the whole run.
    pub wall_time: Duration,
    /// Number of subsets (k).
    pub k: usize,
    /// Executor metrics for phase 1 (all nodes' product-tree builds).
    pub build_exec: PhaseExec,
    /// Executor metrics for phase 2's remainder descents.
    pub descent_exec: PhaseExec,
    /// Executor metrics for phase 2's leaf gcds: one task per leaf per
    /// descended product (fewer once a node's leaves dispatch in chunks).
    pub gcd_exec: PhaseExec,
}

impl ClusterReport {
    /// Total CPU time: sum of node busy times (the paper's "CPU hours").
    pub fn total_cpu_time(&self) -> Duration {
        self.nodes.iter().map(NodeReport::busy_time).sum()
    }

    /// The critical path if all nodes ran fully in parallel: max busy time.
    pub fn critical_path(&self) -> Duration {
        self.nodes
            .iter()
            .map(NodeReport::busy_time)
            .max()
            .unwrap_or_default()
    }

    /// Executor metrics summed over both phases.
    pub fn total_exec(&self) -> PhaseExec {
        let mut total = self.build_exec.clone();
        total.merge(&self.descent_exec);
        total.merge(&self.gcd_exec);
        total
    }

    /// Peak per-node memory (own tree + largest foreign product).
    pub fn peak_node_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.tree_bytes + n.largest_foreign_product_bytes)
            .max()
            .unwrap_or(0)
    }
}

/// Result of a distributed batch-GCD run. The `Default` is the empty run.
#[derive(Clone, Debug, Default)]
pub struct DistributedResult {
    /// Raw divisor per modulus, identical semantics (and values) to
    /// [`crate::classic::batch_gcd`].
    pub raw_divisors: Vec<Option<Natural>>,
    /// Resolved statuses.
    pub statuses: Vec<KeyStatus>,
    /// Cluster accounting.
    pub report: ClusterReport,
}

impl DistributedResult {
    /// Number of vulnerable moduli.
    pub fn vulnerable_count(&self) -> usize {
        self.statuses.iter().filter(|s| s.is_vulnerable()).count()
    }
}

/// Partition `0..total` into `k` contiguous near-equal ranges (first
/// `total % k` ranges get the extra element) — the paper's subset split.
fn partition_ranges(total: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    let base = total / k;
    let extra = total % k;
    let mut ranges = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Run the k-subset distributed batch GCD. An empty input yields an empty
/// result.
///
/// # Panics
/// Panics if any modulus is zero or `config.subsets == 0`.
pub fn distributed_batch_gcd(moduli: &[Natural], config: ClusterConfig) -> DistributedResult {
    assert!(config.subsets > 0, "need at least one subset");
    if moduli.is_empty() {
        return DistributedResult::default();
    }
    assert!(
        moduli.iter().all(|m| !m.is_zero()),
        "zero modulus in distributed batch GCD input"
    );
    let k = config.subsets.min(moduli.len());
    let subsets: Vec<&[Natural]> = partition_ranges(moduli.len(), k)
        .into_iter()
        .map(|r| &moduli[r])
        .collect();
    let (raw_divisors, report) = run_cluster(&subsets, config);
    let statuses = resolve(moduli, &raw_divisors);
    DistributedResult {
        raw_divisors,
        statuses,
        report,
    }
}

/// Run the k-subset distributed batch GCD over a disk-resident corpus:
/// read every shard in order, then run [`distributed_batch_gcd`] on the
/// moduli read. Raw divisors and statuses are byte-identical to the
/// in-memory run — and, by the pair-coverage argument, to [`batch_gcd`].
/// The k-subset algorithm keeps every node's subset and tree resident for
/// the all-pairs descent; the bounded-memory streaming entry point is
/// [`sharded_batch_gcd`](crate::corpus::sharded_batch_gcd). The report's
/// `wall_time` covers the cluster run only, not the shard reads. An empty
/// store yields an empty result.
///
/// [`batch_gcd`]: crate::classic::batch_gcd
///
/// # Errors
/// Fails with a [`CorpusError`] if any shard cannot be read back intact
/// (including a shard that holds a zero modulus).
///
/// # Panics
/// Panics if `config.subsets == 0`.
pub fn distributed_batch_gcd_sharded(
    store: &ShardStore,
    config: ClusterConfig,
) -> Result<DistributedResult, CorpusError> {
    let mut moduli = Vec::new();
    for index in 0..store.shard_count() as u32 {
        moduli.extend(store.read_shard(index)?);
    }
    Ok(distributed_batch_gcd(&moduli, config))
}

/// The cluster simulation core: phase 1 builds per-node trees, phase 2
/// descends every subset product through every tree.
fn run_cluster(
    subsets: &[&[Natural]],
    config: ClusterConfig,
) -> (Vec<Option<Natural>>, ClusterReport) {
    let wall_start = Instant::now();
    let k = subsets.len();

    // One work-stealing pool for the whole cluster run: node tasks and the
    // tree work inside them share the same execution slots, so a node that
    // finishes early steals tree-level tasks from its neighbours instead of
    // idling. Per-node domains keep the accounting separate.
    let pool = WorkerPool::new(config.threads);
    let build_domains: Vec<ExecDomain> = (0..k).map(|_| pool.domain()).collect();
    let descent_domains: Vec<ExecDomain> = (0..k).map(|_| pool.domain()).collect();
    let gcd_domains: Vec<ExecDomain> = (0..k).map(|_| pool.domain()).collect();

    // Phase 1: each node builds its own product tree.
    let tree_tasks: Vec<_> = subsets
        .iter()
        .enumerate()
        .map(|(i, subset)| {
            let subset: &[Natural] = subset;
            let pool = &pool;
            let domain = &build_domains[i];
            move || {
                let t0 = Instant::now();
                let tree = ProductTree::build(subset, pool.exec_in(domain))
                    // lint:allow(no-panic-in-lib) invariant: distributed_batch_gcd rejects empty/zero inputs before partitioning
                    .expect("validated cluster subset");
                (tree, t0.elapsed())
            }
        })
        .collect();
    let trees: Vec<(ProductTree, Duration)> = pool.exec().run_tasks(tree_tasks);

    // Broadcast: collect the k subset products.
    let products: Vec<Natural> = trees.iter().map(|(t, _)| t.root().clone()).collect();

    // Phase 2: every node descends every product through its own tree.
    let node_tasks: Vec<_> = trees
        .iter()
        .enumerate()
        .map(|(i, (tree, build_time))| {
            let products = &products;
            let build_time = *build_time;
            let pool = &pool;
            let build_domain = &build_domains[i];
            let descent_domain = &descent_domains[i];
            let gcd_domain = &gcd_domains[i];
            move || {
                // Own subset: (P_i/N) mod N, as in the classic pass.
                // Foreign subset: P_j mod N. All k descents share one
                // Newton inverse of this node's root.
                let one = Natural::one();
                let jobs: Vec<Descent<'_>> = products
                    .iter()
                    .enumerate()
                    .map(|(j, product)| {
                        if i == j {
                            Descent::Cofactor(&one)
                        } else {
                            Descent::Plain(product)
                        }
                    })
                    .collect();
                let t0 = Instant::now();
                let divisors = leaf_divisors(
                    tree,
                    &jobs,
                    pool.exec_in(descent_domain),
                    pool.exec_in(gcd_domain),
                );
                let remainder_time = t0.elapsed();
                let largest_foreign_product_bytes = products
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, p)| p.limb_len() * 8)
                    .max()
                    .unwrap_or(0);
                let mut exec = build_domain.phase();
                exec.merge(&descent_domain.phase());
                exec.merge(&gcd_domain.phase());
                let report = NodeReport {
                    node_id: i,
                    subset_size: tree.leaf_count(),
                    product_tree_time: build_time,
                    remainder_time,
                    tree_bytes: tree.total_bytes(),
                    largest_foreign_product_bytes,
                    exec,
                };
                (divisors, report)
            }
        })
        .collect();
    let node_outputs: Vec<(Vec<Option<Natural>>, NodeReport)> = pool.exec().run_tasks(node_tasks);

    // Stitch the per-node divisor vectors back into input order.
    let total: usize = subsets.iter().map(|s| s.len()).sum();
    let mut raw_divisors: Vec<Option<Natural>> = Vec::with_capacity(total);
    let mut reports = Vec::with_capacity(k);
    for (divs, report) in node_outputs {
        raw_divisors.extend(divs);
        reports.push(report);
    }

    let merged = |domains: &[ExecDomain]| {
        let mut exec = PhaseExec::default();
        for domain in domains {
            exec.merge(&domain.phase());
        }
        exec
    };

    (
        raw_divisors,
        ClusterReport {
            nodes: reports,
            wall_time: wall_start.elapsed(),
            k,
            build_exec: merged(&build_domains),
            descent_exec: merged(&descent_domains),
            gcd_exec: merged(&gcd_domains),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::batch_gcd;

    fn nat(v: u128) -> Natural {
        Natural::from(v)
    }

    fn mixed_moduli() -> Vec<Natural> {
        vec![
            nat(33),  // 3*11
            nat(39),  // 3*13
            nat(323), // 17*19
            nat(15),  // 3*5
            nat(35),  // 5*7
            nat(21),  // 3*7
            nat(437), // 19*23
            nat(667), // 23*29 — chains with 437
            nat(6),   // 2*3
        ]
    }

    #[test]
    fn matches_classic_for_all_k() {
        let moduli = mixed_moduli();
        let classic = batch_gcd(&moduli, 1);
        for k in 1..=moduli.len() + 2 {
            let dist = distributed_batch_gcd(&moduli, ClusterConfig::sequential(k));
            assert_eq!(dist.raw_divisors, classic.raw_divisors, "k={k}");
            assert_eq!(dist.statuses, classic.statuses, "k={k}");
        }
    }

    #[test]
    fn cross_subset_sharing_detected() {
        // Force the two sharing moduli into different subsets (k=2 splits
        // [33, 323] | [39, 437]): 33 and 39 share 3 across subsets.
        let moduli = vec![nat(33), nat(323), nat(39), nat(437)];
        let dist = distributed_batch_gcd(&moduli, ClusterConfig::sequential(2));
        assert!(dist.statuses[0].is_vulnerable());
        assert!(dist.statuses[2].is_vulnerable());
        // 323 = 17*19 and 437 = 19*23 also share 19 across subsets.
        assert!(dist.statuses[1].is_vulnerable());
        assert!(dist.statuses[3].is_vulnerable());
    }

    #[test]
    fn report_accounting_consistent() {
        let moduli = mixed_moduli();
        let dist = distributed_batch_gcd(&moduli, ClusterConfig::sequential(3));
        assert_eq!(dist.report.k, 3);
        assert_eq!(dist.report.nodes.len(), 3);
        let sizes: usize = dist.report.nodes.iter().map(|n| n.subset_size).sum();
        assert_eq!(sizes, moduli.len());
        assert!(dist.report.total_cpu_time() >= dist.report.critical_path());
        assert!(dist.report.peak_node_bytes() > 0);
        // Executor accounting: every node contributed tasks in both phases,
        // and the cluster totals are the per-node sums.
        let node_tasks: u64 = dist.report.nodes.iter().map(|n| n.exec.tasks()).sum();
        assert_eq!(dist.report.total_exec().tasks(), node_tasks);
        assert!(dist.report.build_exec.tasks() > 0);
        assert!(dist.report.descent_exec.tasks() > 0);
    }

    #[test]
    fn empty_input_yields_empty_result_on_both_entry_points() {
        let mem = distributed_batch_gcd(&[], ClusterConfig::sequential(4));
        let dir = crate::corpus::scratch_dir("dist-empty");
        let store = ShardStore::create(&dir, 4, std::iter::empty()).unwrap();
        let disk = distributed_batch_gcd_sharded(&store, ClusterConfig::sequential(4)).unwrap();
        for res in [&mem, &disk] {
            assert!(res.raw_divisors.is_empty());
            assert!(res.statuses.is_empty());
            assert_eq!(res.report.k, 0);
            assert!(res.report.nodes.is_empty());
        }
        store.remove().unwrap();
    }

    #[test]
    fn k_larger_than_input_clamped() {
        let moduli = vec![nat(33), nat(39)];
        let dist = distributed_batch_gcd(&moduli, ClusterConfig::sequential(64));
        assert_eq!(dist.report.k, 2);
        assert_eq!(dist.vulnerable_count(), 2);
    }

    #[test]
    fn sharded_distributed_matches_in_memory() {
        let moduli = mixed_moduli();
        let dir = crate::corpus::scratch_dir("dist-shard");
        let store = ShardStore::create(&dir, 4, &moduli).unwrap();
        for k in [1usize, 2, 3, 5] {
            let mem = distributed_batch_gcd(&moduli, ClusterConfig::sequential(k));
            let disk = distributed_batch_gcd_sharded(&store, ClusterConfig::sequential(k)).unwrap();
            assert_eq!(disk.raw_divisors, mem.raw_divisors, "k={k}");
            assert_eq!(disk.statuses, mem.statuses, "k={k}");
        }
        store.remove().unwrap();
    }

    #[test]
    fn single_node_holds_no_foreign_product() {
        let dist = distributed_batch_gcd(&mixed_moduli(), ClusterConfig::sequential(1));
        let node = &dist.report.nodes[0];
        assert_eq!(node.largest_foreign_product_bytes, 0);
        assert_eq!(dist.report.peak_node_bytes(), node.tree_bytes);
    }

    #[test]
    fn foreign_product_is_the_other_nodes() {
        // k = 2 over three moduli splits [a, b] | [c]: node 0 multiplies
        // two 128-bit moduli, node 1 holds the one-limb 35.
        let big = Natural::from(u64::MAX - 58) * Natural::from(u64::MAX - 82);
        let moduli = vec![big.clone(), big + Natural::from(2u64), nat(35)];
        let dist = distributed_batch_gcd(&moduli, ClusterConfig::sequential(2));
        let bytes =
            |subset: &[Natural]| subset.iter().fold(nat(1), |acc, m| &acc * m).limb_len() * 8;
        let (own0, own1) = (bytes(&moduli[..2]), bytes(&moduli[2..]));
        assert!(own0 > own1);
        assert_eq!(dist.report.nodes[0].largest_foreign_product_bytes, own1);
        assert_eq!(dist.report.nodes[1].largest_foreign_product_bytes, own0);
    }

    #[test]
    fn subset_tree_is_smaller_than_global_tree() {
        // The memory claim behind the design: per-node tree bytes shrink
        // with k.
        let moduli = mixed_moduli();
        let classic = batch_gcd(&moduli, 1);
        let dist = distributed_batch_gcd(&moduli, ClusterConfig::sequential(3));
        let max_node_tree = dist
            .report
            .nodes
            .iter()
            .map(|n| n.tree_bytes)
            .max()
            .unwrap();
        assert!(max_node_tree < classic.stats.tree_bytes);
    }
}
