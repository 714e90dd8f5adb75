//! Equivalence of the scaled remainder descent (DESIGN.md §9) against the
//! classic formulation, across every production entry point.
//!
//! The invariant: pushing fixed-point images of `frac(V/u^e)` down the tree
//! instead of exact residues changes timings only. Raw divisors and
//! statuses stay byte-identical across thread counts, shard capacities and
//! entry points; the cofactor leaves relate to the squared residues by
//! exactly `P mod N^2 = r_N * N`; and every leaf equals a direct `%` at the
//! paper's key sizes, on trees whose nodes take the transform middle
//! product, and at the depth of a 10⁶-leaf corpus.

use proptest::prelude::*;
use wk_batchgcd::{
    batch_gcd, distributed_batch_gcd, incremental_batch_gcd, scratch_dir, sharded_batch_gcd,
    ClusterConfig, Descent, Exec, ProductTree, ShardStore, TreeCache, WorkerPool,
};
use wk_bigint::Natural;
use wk_keygen::{KeygenBehavior, ModelKeygen, PrimeShaping};

/// `value mod N_i` at every leaf of `tree`: the plain job on its own.
fn plain(tree: &ProductTree, value: &Natural, exec: Exec<'_>) -> Vec<Natural> {
    let mut out = Vec::new();
    tree.remainder_trees(&[Descent::Plain(value)], exec, |_, leaves| out = leaves);
    out
}

/// A mixed population: `vulnerable` keys over a small shared-prime pool,
/// `healthy` keys with fresh primes, interleaved. 128-bit moduli keep the
/// suite fast while still exercising multi-limb reductions at every level.
fn population(vulnerable: usize, healthy: usize, seed: u64) -> Vec<Natural> {
    population_bits(128, vulnerable, healthy, seed)
}

/// [`population`] at `bits`-bit moduli.
fn population_bits(bits: u64, vulnerable: usize, healthy: usize, seed: u64) -> Vec<Natural> {
    let pool_size = (vulnerable / 3).max(1);
    let mut vuln_gen = ModelKeygen::new(
        KeygenBehavior::SharedPrimePool {
            shaping: PrimeShaping::OpensslStyle,
            pool_size,
        },
        bits,
        seed,
    );
    let mut healthy_gen = ModelKeygen::new(
        KeygenBehavior::Healthy {
            shaping: PrimeShaping::OpensslStyle,
        },
        bits,
        seed + 1,
    );
    let mut moduli: Vec<Natural> = (0..vulnerable)
        .map(|_| vuln_gen.generate().public.n)
        .collect();
    for (i, n) in (0..healthy)
        .map(|_| healthy_gen.generate().public.n)
        .enumerate()
    {
        moduli.insert((i * 2 + 1).min(moduli.len()), n);
    }
    moduli
}

fn sharded_over(
    moduli: &[Natural],
    capacity: usize,
    threads: usize,
    tag: &str,
) -> (Vec<Option<Natural>>, Vec<wk_batchgcd::KeyStatus>) {
    let dir = scratch_dir(&format!("descent-equiv-{tag}"));
    let store = ShardStore::create(&dir, capacity, moduli).unwrap();
    let res = sharded_batch_gcd(&store, threads).unwrap();
    store.remove().unwrap();
    (res.raw_divisors, res.statuses)
}

#[test]
fn classic_identical_across_thread_counts() {
    // The cofactor descent parallelizes over subtree nodes; the executor's
    // chunking must never leak into the arithmetic.
    let moduli = population(12, 9, 31337);
    let reference = batch_gcd(&moduli, 1);
    assert!(
        reference.vulnerable_count() >= 2,
        "population must be interesting"
    );
    for threads in [2usize, 3, 4, 8] {
        let run = batch_gcd(&moduli, threads);
        assert_eq!(
            run.raw_divisors, reference.raw_divisors,
            "threads={threads}"
        );
        assert_eq!(run.statuses, reference.statuses, "threads={threads}");
    }
}

#[test]
fn sharded_identical_across_capacities_and_threads() {
    // Shard capacity moves the handoff boundary between the top tree's
    // cofactor descent and the per-shard local descents; the seam must be
    // invisible in the output.
    let moduli = population(13, 8, 2026);
    let classic = batch_gcd(&moduli, 1);
    for capacity in [1usize, 2, 3, 5, 8, 64] {
        for threads in [1usize, 4] {
            let tag = format!("c{capacity}-t{threads}");
            let (divs, statuses) = sharded_over(&moduli, capacity, threads, &tag);
            assert_eq!(
                divs, classic.raw_divisors,
                "capacity={capacity} threads={threads}"
            );
            assert_eq!(
                statuses, classic.statuses,
                "capacity={capacity} threads={threads}"
            );
        }
    }
}

#[test]
fn cofactor_leaves_factor_the_squared_leaves() {
    // The algebraic bridge to the squared formulation: with V = P (the
    // root), `P mod N^2 = N * ((P/N) mod N)` for every leaf N dividing P.
    // So the cofactor leaf times the modulus must equal the direct squared
    // residue — exactly, not just modulo N.
    let moduli = population(9, 6, 777);
    let pool = WorkerPool::new(2);
    let domain = pool.domain();
    let tree = ProductTree::build(&moduli, pool.exec_in(&domain)).unwrap();

    let cofactor = tree.remainder_tree_cofactor(&Natural::one(), pool.exec_in(&domain));
    let cofactor_local = tree.remainder_tree_cofactor_local(&Natural::one());
    assert_eq!(
        cofactor, cofactor_local,
        "parallel vs serial cofactor descent"
    );

    let root = tree.root().clone();
    assert_eq!(moduli.len(), cofactor.len());
    for (n, r) in moduli.iter().zip(&cofactor) {
        assert_eq!(
            n * r,
            &root % &n.square(),
            "P mod N^2 != r_N * N for modulus {n:?}"
        );
        assert!(r < n, "cofactor leaf not fully reduced");
    }
}

#[test]
fn plain_descent_of_root_square_is_zero() {
    // A value the root divides reduces to 0 at every leaf: the plain
    // descent must carry exact zeros through 8-limb interior nodes.
    let moduli = population_bits(512, 5, 4, 1693);
    let pool = WorkerPool::new(2);
    let domain = pool.domain();
    let tree = ProductTree::build(&moduli, pool.exec_in(&domain)).unwrap();
    let value = tree.root() * tree.root();
    let leaves = plain(&tree, &value, pool.exec_in(&domain));
    assert_eq!(leaves.len(), moduli.len());
    for r in &leaves {
        assert!(
            r.is_zero(),
            "root-divisible value must reduce to 0 everywhere"
        );
    }
}

#[test]
fn pipelines_agree_at_512_bit() {
    // Hits and statuses across the classic, sharded, incremental and
    // distributed entry points over 512-bit moduli, where every interior
    // node of every descent spans at least 8 limbs.
    let moduli = population_bits(512, 9, 7, 555);
    let classic = batch_gcd(&moduli, 1);
    assert!(
        classic.vulnerable_count() >= 2,
        "population must be interesting"
    );

    let (divs, statuses) = sharded_over(&moduli, 4, 2, "512-bit");
    assert_eq!(divs, classic.raw_divisors);
    assert_eq!(statuses, classic.statuses);

    let (old, delta) = moduli.split_at(moduli.len() - 4);
    let mut store = ShardStore::create(&scratch_dir("descent-equiv-incr-store"), 4, old).unwrap();
    let (mut cache, _) =
        TreeCache::build(&scratch_dir("descent-equiv-incr-cache"), &store, 2).unwrap();
    let incr = incremental_batch_gcd(&mut store, &mut cache, delta, 4, 2).unwrap();
    assert_eq!(incr.raw_divisors, classic.raw_divisors);
    assert_eq!(incr.statuses, classic.statuses);
    cache.remove().unwrap();
    store.remove().unwrap();

    // Own subsets run the cofactor descent, foreign subsets the plain one.
    let dist = distributed_batch_gcd(&moduli, ClusterConfig::sequential(3));
    assert_eq!(dist.raw_divisors, classic.raw_divisors);
    assert_eq!(dist.statuses, classic.statuses);
}

/// `count` odd moduli of exactly `limbs` limbs each, deterministic.
fn odd_moduli(count: usize, limbs: usize, seed: u64) -> Vec<Natural> {
    let mut state = seed | 1;
    (0..count)
        .map(|_| {
            let mut words: Vec<u64> = (0..limbs)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                })
                .collect();
            words[0] |= 1;
            words[limbs - 1] |= 1 << 63;
            Natural::from_limbs(words)
        })
        .collect()
}

/// Every cofactor leaf against `(P/N) mod N` and every plain leaf against
/// `V mod N`, by direct division.
fn assert_leaves_exact(moduli: &[Natural], values: &[Natural]) {
    let pool = WorkerPool::new(2);
    let domain = pool.domain();
    let tree = ProductTree::build(moduli, pool.exec_in(&domain)).unwrap();
    let root = tree.root().clone();
    let cofactor = tree.remainder_tree_cofactor(&Natural::one(), pool.exec_in(&domain));
    assert_eq!(
        cofactor,
        tree.remainder_tree_cofactor_local(&Natural::one())
    );
    for (i, (n, r)) in moduli.iter().zip(&cofactor).enumerate() {
        let (q, rem) = root.div_rem(n);
        assert!(rem.is_zero());
        assert_eq!(r, &(&q % n), "cofactor leaf {i}");
    }
    for (j, v) in values.iter().enumerate() {
        let leaves = plain(&tree, v, pool.exec_in(&domain));
        for (i, (n, r)) in moduli.iter().zip(&leaves).enumerate() {
            assert_eq!(r, &(v % n), "value {j} ({} limbs), leaf {i}", v.limb_len());
        }
    }
}

#[test]
fn mixed_key_sizes_at_1024_bits_match_direct_division() {
    // 97 leaves: 1024-bit moduli with 512- and 2048-bit ones mixed in, so
    // nodes reach the transform middle product (a 1,700-limb root), the
    // last node is promoted at several levels, and the shortest leaf under
    // a node (the `minleaf` term) differs between siblings.
    let mut moduli = odd_moduli(97, 16, 1024);
    for (i, m) in odd_moduli(12, 8, 512).into_iter().enumerate() {
        moduli[8 * i + 3] = m;
    }
    for (i, m) in odd_moduli(6, 32, 2048).into_iter().enumerate() {
        moduli[16 * i + 5] = m;
    }
    let root_limbs: usize = moduli.iter().map(Natural::limb_len).sum();
    // A foreign product a little shorter than the root (a k-subset foreign
    // descent's shape), a value two leaves divide, and zero.
    let foreign = odd_moduli(90, 16, 77)
        .iter()
        .fold(Natural::one(), |acc, n| &acc * n);
    let sharing = &(&moduli[3] * &moduli[40]) * &odd_moduli(1, 20, 5)[0];
    assert!(foreign.limb_len() < root_limbs);
    assert_leaves_exact(&moduli, &[foreign, sharing, Natural::zero()]);
}

#[test]
fn plain_descent_of_long_and_short_values() {
    // The incremental delta pass pushes a cached corpus product 100 times
    // the delta tree's root down it (one exact reduction at the seed);
    // shorter values seed directly. 8 leaves, as in a month's delta.
    let moduli = odd_moduli(8, 16, 31);
    let root_limbs: usize = moduli.iter().map(Natural::limb_len).sum();
    let long = odd_moduli(808, 16, 99)
        .iter()
        .fold(Natural::one(), |acc, n| &acc * n);
    assert!(long.limb_len() >= 100 * root_limbs);
    let short = odd_moduli(1, root_limbs / 2, 3).pop().unwrap();
    let tiny = Natural::from(0xdead_beef_u64);
    assert_leaves_exact(&moduli, &[long, short, tiny]);
}

/// The guard-limb budget at the depth of a 10⁶-leaf corpus: a 20-level
/// tree of 2^19 + 1 one-limb leaves (the last one promoted at every
/// level), its cofactor leaves checked on a deterministic sample against
/// `Π_{j≠i} N_j mod N_i` computed one word at a time. Release builds only:
/// the tree is 80 MB and the check takes seconds.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: 2^19-leaf tree")]
fn guard_budget_holds_at_twenty_levels() {
    let moduli = odd_moduli((1 << 19) + 1, 1, 0x6a09_e667);
    let words: Vec<u64> = moduli.iter().map(Natural::low_limb).collect();
    let pool = WorkerPool::new(2);
    let domain = pool.domain();
    let tree = ProductTree::build(&moduli, pool.exec_in(&domain)).unwrap();
    let leaves = tree.remainder_tree_cofactor(&Natural::one(), pool.exec_in(&domain));
    assert_eq!(leaves.len(), words.len());
    let last = words.len() - 1;
    let sample = (0..words.len()).step_by(8191).chain([1, last - 1, last]);
    for i in sample {
        let n = words[i] as u128;
        let expect = words
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .fold(1u128, |acc, (_, &w)| acc * (w as u128 % n) % n);
        assert_eq!(leaves[i], Natural::from(expect as u64), "leaf {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random populations swept over shard capacity and thread count: the
    /// sharded cofactor pipeline always matches the classic union run.
    #[test]
    fn random_sharded_matches_classic(
        vulnerable in 3usize..10,
        healthy in 0usize..8,
        seed in 0u64..1000,
        capacity in 1usize..9,
        threads in 1usize..5,
    ) {
        let moduli = population(vulnerable, healthy, seed);
        let classic = batch_gcd(&moduli, 1);
        let tag = format!("prop-{vulnerable}-{healthy}-{seed}-{capacity}-{threads}");
        let (divs, statuses) = sharded_over(&moduli, capacity, threads, &tag);
        prop_assert_eq!(divs, classic.raw_divisors);
        prop_assert_eq!(statuses, classic.statuses);
    }

    /// Random trees: the cofactor descent with seed 1 yields exactly
    /// `(P/N) mod N` at every leaf, matching the plain-division answer.
    #[test]
    fn random_cofactor_leaves_are_exact(
        vulnerable in 2usize..8,
        healthy in 0usize..6,
        seed in 0u64..1000,
    ) {
        let moduli = population(vulnerable, healthy, seed);
        let pool = WorkerPool::new(2);
        let domain = pool.domain();
        let tree = ProductTree::build(&moduli, pool.exec_in(&domain)).unwrap();
        let leaves = tree.remainder_tree_cofactor(&Natural::one(), pool.exec_in(&domain));
        let root = tree.root().clone();
        for (n, r) in moduli.iter().zip(&leaves) {
            let (q, rem) = root.div_rem(n);
            prop_assert!(rem.is_zero());
            prop_assert_eq!(&q.div_rem(n).1, r);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random 512-bit trees and foreign values (products of a disjoint
    /// healthy population, as in the distributed foreign-subset descents):
    /// the plain descent always equals the direct per-leaf remainder.
    #[test]
    fn random_plain_descent_is_exact(
        vulnerable in 2usize..6,
        healthy in 1usize..5,
        width in 1usize..5,
        seed in 0u64..1000,
    ) {
        let moduli = population_bits(512, vulnerable, healthy, seed);
        let value = population_bits(512, 0, width, seed + 5000)
            .iter()
            .fold(Natural::one(), |acc, n| &acc * n);
        let pool = WorkerPool::new(2);
        let domain = pool.domain();
        let tree = ProductTree::build(&moduli, pool.exec_in(&domain)).unwrap();
        let leaves = plain(&tree, &value, pool.exec_in(&domain));
        for (m, r) in moduli.iter().zip(&leaves) {
            prop_assert_eq!(r, &(&value % m));
        }
    }

    /// Random incremental chains over 512-bit moduli stay byte-identical
    /// to the classic union run.
    #[test]
    fn random_incremental_matches_classic_at_512_bit(
        vulnerable in 3usize..7,
        healthy in 1usize..5,
        seed in 0u64..1000,
        capacity in 2usize..6,
    ) {
        let moduli = population_bits(512, vulnerable, healthy, seed);
        let classic = batch_gcd(&moduli, 1);
        let split = moduli.len() - (moduli.len() / 3).max(2);
        let (old, delta) = moduli.split_at(split);
        let tag = format!("descent-prop-{vulnerable}-{healthy}-{seed}-{capacity}");
        let mut store =
            ShardStore::create(&scratch_dir(&format!("{tag}-store")), capacity, old).unwrap();
        let (mut cache, _) =
            TreeCache::build(&scratch_dir(&format!("{tag}-cache")), &store, 1).unwrap();
        let incr = incremental_batch_gcd(&mut store, &mut cache, delta, capacity, 1).unwrap();
        prop_assert_eq!(&incr.raw_divisors, &classic.raw_divisors);
        prop_assert_eq!(&incr.statuses, &classic.statuses);
        cache.remove().unwrap();
        store.remove().unwrap();
    }
}
