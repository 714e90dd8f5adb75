//! The classic single-tree batch GCD algorithm (\[21\] §3.2, after Bernstein).
//!
//! Quasilinear in the number of input moduli: one product tree up, one
//! remainder tree down, one gcd per leaf. This is the algorithm the original
//! study ran on a 16-core machine; the paper's contribution is the k-subset
//! variant in [`crate::distributed`], benchmarked against this baseline.

use crate::incremental::DeltaMetrics;
use crate::pool::{Exec, PhaseExec, WorkerPool};
use crate::resolve::{resolve, KeyStatus};
use crate::tree::{Descent, ProductTree};
use std::time::{Duration, Instant};
use wk_bigint::{arena, Natural};

/// Timing and memory accounting for one batch-GCD run.
///
/// One timing rule holds on every path: the `*_time` fields are wall-clock
/// times of whole phases, the product tree and the leaf phase (every
/// remainder descent plus the per-leaf gcds), and busy time lives in the
/// executor counters — the gcds' own is `gcd_exec.busy_total()`.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Wall-clock time building the product tree.
    pub product_tree_time: Duration,
    /// Wall-clock time of the leaf phase: the remainder descents and the
    /// per-leaf gcds.
    pub remainder_tree_time: Duration,
    /// Peak stored tree size in bytes (the paper's 70-100 GB per node).
    pub tree_bytes: usize,
    /// Number of input moduli.
    pub input_count: usize,
    /// Executor metrics for the product-tree phase.
    pub product_tree_exec: PhaseExec,
    /// Executor metrics for the remainder descents.
    pub remainder_tree_exec: PhaseExec,
    /// Executor metrics for the per-leaf gcds.
    pub gcd_exec: PhaseExec,
    /// Delta-phase metrics; all-zero [`Default`] for from-scratch runs,
    /// populated by
    /// [`incremental_batch_gcd`](crate::incremental::incremental_batch_gcd).
    pub delta: DeltaMetrics,
}

impl BatchStats {
    /// Total wall-clock time: the product tree plus the leaf phase.
    pub fn total_time(&self) -> Duration {
        self.product_tree_time + self.remainder_tree_time
    }

    /// Executor metrics summed over all three phases.
    pub fn total_exec(&self) -> PhaseExec {
        let mut total = self.product_tree_exec.clone();
        total.merge(&self.remainder_tree_exec);
        total.merge(&self.gcd_exec);
        total
    }
}

/// Result of a batch-GCD run. The `Default` is the empty run.
#[derive(Clone, Debug, Default)]
pub struct BatchGcdResult {
    /// Raw divisor per modulus: `None` (no shared factor) or `Some(g)`,
    /// `1 < g <= N_i`, the product of all shared primes.
    pub raw_divisors: Vec<Option<Natural>>,
    /// Resolved per-modulus status (factored / unresolved / clean).
    pub statuses: Vec<KeyStatus>,
    /// Run accounting.
    pub stats: BatchStats,
}

impl BatchGcdResult {
    /// Number of vulnerable moduli.
    pub fn vulnerable_count(&self) -> usize {
        self.statuses.iter().filter(|s| s.is_vulnerable()).count()
    }

    /// Indices of vulnerable moduli.
    pub fn vulnerable_indices(&self) -> Vec<usize> {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_vulnerable())
            .map(|(i, _)| i)
            .collect()
    }
}

/// Run the classic batch GCD over `moduli` with `threads` worker threads.
///
/// Inputs should be distinct moduli (the paper deduplicates first);
/// duplicates are tolerated but reported as
/// [`KeyStatus::SharedUnresolved`]. An empty input yields an empty result.
///
/// # Panics
/// Panics if any modulus is zero (zero moduli are rejected by every
/// batch-GCD algorithm in this crate; disk-backed entry points surface the
/// same condition as a typed error instead).
pub fn batch_gcd(moduli: &[Natural], threads: usize) -> BatchGcdResult {
    if moduli.is_empty() {
        return BatchGcdResult::default();
    }
    assert!(
        moduli.iter().all(|m| !m.is_zero()),
        "zero modulus in batch GCD input"
    );
    // One work-stealing pool serves every phase of the run; per-phase
    // domains separate the executor accounting.
    let pool = WorkerPool::new(threads);
    let build_domain = pool.domain();
    let remainder_domain = pool.domain();
    let gcd_domain = pool.domain();

    let t0 = Instant::now();
    let tree = ProductTree::build(moduli, pool.exec_in(&build_domain))
        // lint:allow(no-panic-in-lib) invariant: nonempty nonzero input checked above
        .expect("validated batch GCD input");
    let product_tree_time = t0.elapsed();
    let tree_bytes = tree.total_bytes();

    let t1 = Instant::now();
    // Cofactor descent of V = P (seed (P/root) mod root = 1): the leaves
    // are (P/N) mod N directly, so no trailing exact division is needed.
    let raw_divisors = leaf_divisors(
        &tree,
        &[Descent::Cofactor(&Natural::one())],
        pool.exec_in(&remainder_domain),
        pool.exec_in(&gcd_domain),
    );
    let remainder_tree_time = t1.elapsed();

    let statuses = resolve(moduli, &raw_divisors);
    BatchGcdResult {
        raw_divisors,
        statuses,
        stats: BatchStats {
            product_tree_time,
            remainder_tree_time,
            tree_bytes,
            input_count: moduli.len(),
            product_tree_exec: build_domain.phase(),
            remainder_tree_exec: remainder_domain.phase(),
            gcd_exec: gcd_domain.phase(),
            ..BatchStats::default()
        },
    }
}

/// The one rule that combines divisors, on every path: fold `g = gcd(N, z)`
/// into `N`'s divisor as `gcd(N, prev·g)`, or leave it when `g = 1`. For
/// any `a`, `b`, `gcd(N, a·b) = gcd(N, gcd(N, a)·gcd(N, b))`, so folding the
/// residues of any factorization of `P/N` gives `gcd(N, P/N)`: a prime that
/// `N` holds twice and the others hold twice counts twice, as in the single
/// tree (DESIGN.md §5).
pub(crate) fn merge_divisor(divisor: &mut Option<Natural>, n: &Natural, z: &Natural) {
    let g = n.gcd(z);
    if g.is_one() {
        return;
    }
    *divisor = Some(match divisor.take() {
        None => g,
        Some(prev) => n.gcd(&(&prev * &g)),
    });
}

/// The leaf phase every tree path shares: run `jobs` down `tree` in one
/// [`ProductTree::remainder_trees`] call on `descent`, and fold each job's
/// leaf residues into the leaves' divisors on `gcd`, one task per leaf per
/// job. Residues multiply mod `N` until the last job, whose product takes
/// the leaf's one [`merge_divisor`]: `gcd(N, a·b) = gcd(N, gcd(N, a)·gcd(N,
/// b))`, so one gcd of the product gives what a gcd per job, folded, would.
pub(crate) fn leaf_divisors(
    tree: &ProductTree,
    jobs: &[Descent<'_>],
    descent: Exec<'_>,
    gcd: Exec<'_>,
) -> Vec<Option<Natural>> {
    let leaves = tree.leaves();
    // Each leaf's slot holds its residue product until the last job
    // replaces it with the divisor.
    let mut slots: Vec<Option<Natural>> = vec![None; leaves.len()];
    tree.remainder_trees(jobs, descent, |j, residues| {
        let last = j + 1 == jobs.len();
        let items = leaves.iter().zip(std::mem::take(&mut slots)).zip(residues);
        slots = gcd.map_chunked(items.collect(), |((n, acc), z)| {
            let acc = match acc {
                None => z,
                Some(acc) => {
                    let product = acc.mod_mul(&z, n);
                    arena::recycle(acc);
                    arena::recycle(z);
                    product
                }
            };
            if !last {
                // Kept in a buffer of its own size: the residue's wider
                // one goes back to the arena for the next descent.
                let kept = arena::clone_natural(&acc);
                arena::recycle(acc);
                return Some(kept);
            }
            let mut divisor = None;
            merge_divisor(&mut divisor, n, &acc);
            arena::recycle(acc);
            divisor
        });
    });
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::KeyStatus;

    fn nat(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn textbook_shared_prime_pair() {
        // N1 = 3*11, N2 = 3*13, N3 = 17*19 (clean).
        let moduli = vec![nat(33), nat(39), nat(323)];
        let res = batch_gcd(&moduli, 1);
        assert_eq!(res.vulnerable_count(), 2);
        assert_eq!(
            res.statuses[0],
            KeyStatus::Factored {
                p: nat(3),
                q: nat(11)
            }
        );
        assert_eq!(
            res.statuses[1],
            KeyStatus::Factored {
                p: nat(3),
                q: nat(13)
            }
        );
        assert_eq!(res.statuses[2], KeyStatus::NotVulnerable);
        assert_eq!(res.vulnerable_indices(), vec![0, 1]);
    }

    #[test]
    fn clique_is_fully_factored() {
        // IBM-style clique over primes {3,5,7}: all moduli factor.
        let moduli = vec![nat(15), nat(35), nat(21)];
        let res = batch_gcd(&moduli, 1);
        assert_eq!(res.vulnerable_count(), 3);
        for (i, status) in res.statuses.iter().enumerate() {
            let (p, q) = status.factors().expect("clique member factored");
            assert_eq!(&(p * q), &moduli[i]);
        }
    }

    #[test]
    fn all_coprime_finds_nothing() {
        let moduli = vec![nat(6), nat(35), nat(143), nat(323)];
        let res = batch_gcd(&moduli, 1);
        assert_eq!(res.vulnerable_count(), 0);
        assert!(res.raw_divisors.iter().all(Option::is_none));
    }

    #[test]
    fn single_input_finds_nothing() {
        let res = batch_gcd(&[nat(35)], 1);
        assert_eq!(res.vulnerable_count(), 0);
    }

    #[test]
    fn empty_input_yields_empty_result() {
        let res = batch_gcd(&[], 1);
        assert!(res.raw_divisors.is_empty());
        assert!(res.statuses.is_empty());
        assert_eq!(res.stats.input_count, 0);
    }

    #[test]
    fn stats_populated() {
        let moduli = vec![nat(33), nat(39), nat(323), nat(437)];
        let res = batch_gcd(&moduli, 1);
        assert_eq!(res.stats.input_count, 4);
        assert!(res.stats.tree_bytes > 0);
        // Executor accounting: 4 leaves pair into 2 then 1 (3 build tasks);
        // the descent runs one task per node with children (1 + 2), then 4
        // gcd tasks.
        assert_eq!(res.stats.product_tree_exec.tasks(), 3);
        assert_eq!(res.stats.remainder_tree_exec.tasks(), 3);
        assert_eq!(res.stats.gcd_exec.tasks(), 4);
        assert_eq!(res.stats.total_exec().tasks(), 10);
    }

    #[test]
    fn parallel_matches_sequential() {
        let moduli = vec![
            nat(33),
            nat(39),
            nat(323),
            nat(15),
            nat(35),
            nat(21),
            nat(437),
        ];
        let seq = batch_gcd(&moduli, 1);
        let par = batch_gcd(&moduli, 4);
        assert_eq!(seq.statuses, par.statuses);
        assert_eq!(seq.raw_divisors, par.raw_divisors);
    }
}
