//! Cross-algorithm tests on realistic RSA key populations.
//!
//! Builds key sets with planted shared-prime structure via `wk-keygen` and
//! checks the pipeline invariant from DESIGN.md §5: the set recovered by
//! batch GCD equals exactly the set of keys constructed with shared primes —
//! no false positives, no false negatives — and all three algorithms agree.

use proptest::prelude::*;
use rand::SeedableRng;
use wk_batchgcd::{
    assemble_from_shard_roots, batch_gcd, distributed_batch_gcd, distributed_batch_gcd_sharded,
    incremental_batch_gcd, naive_pairwise_gcd, scratch_dir, shard_subtree_root, sharded_batch_gcd,
    ClusterConfig, KeyStatus, ShardStore, TreeCache,
};
use wk_bigint::Natural;
use wk_keygen::{KeygenBehavior, ModelKeygen, PrimeShaping};

/// Build a mixed population: `vulnerable` keys over a small shared pool,
/// `healthy` keys with fresh primes. Returns (moduli, expected-vulnerable
/// flags). Uses 128-bit moduli to keep the suite fast.
fn population(vulnerable: usize, healthy: usize, seed: u64) -> (Vec<Natural>, Vec<bool>) {
    population_with_squares(vulnerable, healthy, 0, seed)
}

/// [`population`] plus `squares` prime-square moduli `p²`, spread through
/// the list: even-numbered ones square a pool prime, odd-numbered ones a
/// fresh prime no other modulus holds. A modulus is expected vulnerable
/// exactly when it shares a prime with another — so `p²` counts exactly
/// when `p` divides another modulus, and a pool key whose prime no other
/// key drew becomes vulnerable beside its square.
fn population_with_squares(
    vulnerable: usize,
    healthy: usize,
    squares: usize,
    seed: u64,
) -> (Vec<Natural>, Vec<bool>) {
    let pool_size = (vulnerable / 3).max(1);
    let mut vuln_gen = ModelKeygen::new(
        KeygenBehavior::SharedPrimePool {
            shaping: PrimeShaping::OpensslStyle,
            pool_size,
        },
        128,
        seed,
    );
    let mut healthy_gen = ModelKeygen::new(
        KeygenBehavior::Healthy {
            shaping: PrimeShaping::OpensslStyle,
        },
        128,
        seed + 1,
    );
    // Each modulus with its prime factors.
    let mut keys: Vec<(Natural, Vec<Natural>)> = (0..vulnerable)
        .map(|_| vuln_gen.generate())
        .chain((0..healthy).map(|_| healthy_gen.generate()))
        .map(|k| (k.public.n, vec![k.p, k.q]))
        .collect();
    for i in 0..squares {
        let p = match i % 2 {
            0 if vulnerable > 0 => keys[i % vulnerable].1[0].clone(),
            _ => healthy_gen.generate().p,
        };
        let at = (3 * i + 1).min(keys.len());
        keys.insert(at, (&p * &p, vec![p]));
    }
    let expected = keys
        .iter()
        .enumerate()
        .map(|(i, (_, mine))| {
            keys.iter()
                .enumerate()
                .any(|(j, (_, other))| j != i && mine.iter().any(|f| other.contains(f)))
        })
        .collect();
    (keys.into_iter().map(|(n, _)| n).collect(), expected)
}

#[test]
fn recovered_set_is_exactly_the_planted_set() {
    let (moduli, expected) = population(12, 8, 42);
    let result = batch_gcd(&moduli, 1);
    for (i, (status, want)) in result.statuses.iter().zip(expected.iter()).enumerate() {
        assert_eq!(
            status.is_vulnerable(),
            *want,
            "modulus {i}: expected vulnerable={want}"
        );
        if let Some((p, q)) = status.factors() {
            assert_eq!(&(p * q), &moduli[i], "factorization must be exact");
            assert!(p.is_probable_prime_fixed(), "recovered p must be prime");
            assert!(q.is_probable_prime_fixed(), "recovered q must be prime");
        }
    }
}

#[test]
fn three_algorithms_agree_on_rsa_population() {
    let (moduli, _) = population(10, 6, 7);
    let classic = batch_gcd(&moduli, 1);
    let naive = naive_pairwise_gcd(&moduli);
    assert_eq!(classic.raw_divisors, naive.raw_divisors);
    assert_eq!(classic.statuses, naive.statuses);
    for k in [1usize, 2, 3, 5, 16] {
        let dist = distributed_batch_gcd(&moduli, ClusterConfig::sequential(k));
        assert_eq!(dist.raw_divisors, classic.raw_divisors, "k={k}");
        assert_eq!(dist.statuses, classic.statuses, "k={k}");
    }
}

#[test]
fn sharded_runs_byte_identical_on_rsa_population() {
    // The acceptance-criteria invariant: disk-backed sharded batch GCD
    // produces byte-identical factored-key output to the classic in-memory
    // pass on a realistic population, across shard capacities and thread
    // counts, through a persisted-and-reopened store.
    let (moduli, _) = population(14, 9, 77);
    let classic = batch_gcd(&moduli, 1);
    for capacity in [1usize, 4, 7, 64] {
        let dir = scratch_dir(&format!("realistic-shards-{capacity}"));
        ShardStore::create(&dir, capacity, &moduli).unwrap();
        let store = ShardStore::open(&dir).unwrap();
        for threads in [1usize, 4] {
            let sharded = sharded_batch_gcd(&store, threads).unwrap();
            assert_eq!(
                sharded.raw_divisors, classic.raw_divisors,
                "capacity={capacity} threads={threads}"
            );
            assert_eq!(
                sharded.statuses, classic.statuses,
                "capacity={capacity} threads={threads}"
            );
        }
        let dist = distributed_batch_gcd_sharded(&store, ClusterConfig::sequential(3)).unwrap();
        assert_eq!(dist.raw_divisors, classic.raw_divisors, "cap={capacity}");
        assert_eq!(dist.statuses, classic.statuses, "cap={capacity}");
        store.remove().unwrap();
    }
}

/// Moduli over small primes with a prime square among them. A square `p²`
/// whose `p` divides two other moduli has raw divisor `p²` — the product
/// of the primes it shares, with multiplicity — and every path must report
/// exactly that, not `p` (DESIGN.md §5).
fn prime_power_shapes() -> (Natural, Vec<Vec<Natural>>) {
    let [p, r, s, t, u] =
        [1_000_003u64, 1_000_033, 1_000_037, 1_000_039, 1_000_081].map(Natural::from);
    let square = &p * &p;
    let shapes = vec![
        // p² first, beside p·r in every split into two or more subsets.
        vec![square.clone(), &p * &r, &p * &s, &t * &u],
        // p² last: alone in its subset for k = 3 and k = 4.
        vec![&p * &r, &p * &s, &t * &u, square.clone()],
    ];
    (square, shapes)
}

#[test]
fn algorithms_agree_on_prime_power_moduli() {
    let (square, shapes) = prime_power_shapes();
    for (shape, moduli) in shapes.iter().enumerate() {
        let classic = batch_gcd(moduli, 1);
        let at = moduli.iter().position(|m| m == &square).unwrap();
        assert_eq!(
            classic.raw_divisors[at].as_ref(),
            Some(&square),
            "shape {shape}"
        );
        let check = |path: &str, raw: &[Option<Natural>], statuses: &[KeyStatus]| {
            assert_eq!(raw, &classic.raw_divisors[..], "shape {shape}: {path}");
            assert_eq!(statuses, &classic.statuses[..], "shape {shape}: {path}");
        };
        for k in 1..=4 {
            let dist = distributed_batch_gcd(moduli, ClusterConfig::sequential(k));
            check(
                &format!("k-subset k={k}"),
                &dist.raw_divisors,
                &dist.statuses,
            );
        }
        let naive = naive_pairwise_gcd(moduli);
        check("naive", &naive.raw_divisors, &naive.statuses);
        for capacity in [1usize, 2] {
            let dir = scratch_dir(&format!("prime-power-{shape}-{capacity}"));
            let store = ShardStore::create(&dir, capacity, moduli).unwrap();
            let sharded = sharded_batch_gcd(&store, 1).unwrap();
            check(
                &format!("sharded capacity={capacity}"),
                &sharded.raw_divisors,
                &sharded.statuses,
            );
            let roots = (0..store.shard_count() as u32)
                .map(|index| shard_subtree_root(&store, index))
                .collect::<Result<Vec<_>, _>>()
                .unwrap();
            let assembled = assemble_from_shard_roots(&store, roots, 1).unwrap().result;
            check(
                &format!("assembly capacity={capacity}"),
                &assembled.raw_divisors,
                &assembled.statuses,
            );
            let dist = distributed_batch_gcd_sharded(&store, ClusterConfig::sequential(2)).unwrap();
            check(
                &format!("sharded k-subset capacity={capacity}"),
                &dist.raw_divisors,
                &dist.statuses,
            );
            store.remove().unwrap();
        }
        // Two months at every split point: the square lands in the cached
        // month, in the new one, and beside its sharers in either.
        for split in 1..moduli.len() {
            let (old, new) = moduli.split_at(split);
            let tag = format!("prime-power-{shape}-month-{split}");
            let mut store =
                ShardStore::create(&scratch_dir(&format!("{tag}-store")), 2, old).unwrap();
            let (mut cache, _) =
                TreeCache::build(&scratch_dir(&format!("{tag}-cache")), &store, 1).unwrap();
            let incr = incremental_batch_gcd(&mut store, &mut cache, new, 2, 1).unwrap();
            check(
                &format!("incremental split={split}"),
                &incr.raw_divisors,
                &incr.statuses,
            );
            cache.remove().unwrap();
            store.remove().unwrap();
        }
    }
}

/// Twelve 512-bit moduli whose divisors need residues from several
/// descents of one k-subset leaf: `p·q` meets `p·r` and `q·s` in two
/// other subsets for k = 3, 4 and 6, and `t²` sits beside `t·u` (for k = 6
/// in its own two-modulus subset) with a third holder `t·v` further on.
/// The rest are products of fresh primes.
fn leaf_fold_moduli() -> Vec<Natural> {
    let mut gen = ModelKeygen::new(
        KeygenBehavior::Healthy {
            shaping: PrimeShaping::OpensslStyle,
        },
        512,
        24,
    );
    let mut primes = (0..10).flat_map(|_| {
        let key = gen.generate();
        [key.p, key.q]
    });
    let mut prime = || primes.next().unwrap();
    let [p, q, r, s, t, u, v] = [(); 7].map(|_| prime());
    let mut fresh = || &prime() * &prime();
    vec![
        &p * &q,
        fresh(),
        &t * &t,
        &t * &u,
        &p * &r,
        fresh(),
        fresh(),
        fresh(),
        &q * &s,
        fresh(),
        &t * &v,
        fresh(),
    ]
}

#[test]
fn k_subset_leaf_fold_matches_classic() {
    let moduli = leaf_fold_moduli();
    let classic = batch_gcd(&moduli, 1);
    // The fixture bites: both of p·q's primes and t twice divide the rest.
    assert_eq!(classic.raw_divisors[0].as_ref(), Some(&moduli[0]));
    assert_eq!(classic.raw_divisors[2].as_ref(), Some(&moduli[2]));
    assert_eq!(classic.stats.gcd_exec.tasks(), moduli.len() as u64);
    for k in [1usize, 2, 3, 4, 6] {
        let dist = distributed_batch_gcd(&moduli, ClusterConfig::sequential(k));
        assert_eq!(dist.raw_divisors, classic.raw_divisors, "k={k}");
        assert_eq!(dist.statuses, classic.statuses, "k={k}");
        // One gcd-domain task per leaf per descended product: the fold
        // saves gcds, not tasks.
        assert_eq!(
            dist.report.gcd_exec.tasks(),
            (k * moduli.len()) as u64,
            "k={k}"
        );
    }
}

#[test]
fn nine_prime_clique_fully_recovered() {
    let mut gen = ModelKeygen::new(
        KeygenBehavior::NinePrime {
            shaping: PrimeShaping::Plain,
        },
        128,
        99,
    );
    // Draw enough keys that every prime is reused, then deduplicate moduli
    // (as the paper does before batch GCD).
    let mut moduli: Vec<Natural> = (0..80).map(|_| gen.generate().public.n).collect();
    moduli.sort();
    moduli.dedup();
    assert!(moduli.len() <= 36);
    let result = batch_gcd(&moduli, 1);
    // Every distinct modulus in a saturated clique shares both primes, and
    // the pairwise resolution pass must still split every one of them.
    for (i, status) in result.statuses.iter().enumerate() {
        let (p, q) = status
            .factors()
            .unwrap_or_else(|| panic!("clique modulus {i} not factored"));
        assert_eq!(&(p * q), &moduli[i]);
    }
}

#[test]
fn recovered_factor_breaks_the_key() {
    // End-to-end attack check: factor via batch GCD, rebuild the private
    // key, decrypt a ciphertext.
    let (moduli, _) = population(6, 2, 123);
    let result = batch_gcd(&moduli, 1);
    let idx = result
        .vulnerable_indices()
        .first()
        .copied()
        .expect("population has vulnerable keys");
    let (p, _) = result.statuses[idx].factors().unwrap();
    let recovered = wk_keygen::RsaPrivateKey::from_factor(&moduli[idx], p).unwrap();
    let msg = Natural::from(0x5ec2e7u64);
    let c = recovered.public.encrypt_raw(&msg);
    assert_eq!(recovered.decrypt_raw(&c), msg);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random mixtures, some with prime-square moduli: algorithms agree and
    /// healthy keys never flagged.
    #[test]
    fn algorithms_agree_and_no_false_positives(
        vulnerable in 2usize..10,
        healthy in 0usize..6,
        squares in 0usize..3,
        seed in 0u64..1000,
        k in 1usize..6,
    ) {
        let (moduli, expected) = population_with_squares(vulnerable, healthy, squares, seed);
        let classic = batch_gcd(&moduli, 1);
        let dist = distributed_batch_gcd(&moduli, ClusterConfig::sequential(k));
        prop_assert_eq!(&classic.raw_divisors, &dist.raw_divisors);
        prop_assert_eq!(&classic.statuses, &dist.statuses);
        let naive = naive_pairwise_gcd(&moduli);
        prop_assert_eq!(&classic.raw_divisors, &naive.raw_divisors);
        prop_assert_eq!(&classic.statuses, &naive.statuses);
        for (status, want) in classic.statuses.iter().zip(expected.iter()) {
            prop_assert_eq!(status.is_vulnerable(), *want);
        }
    }

    /// Fully healthy population: nothing is ever reported.
    #[test]
    fn healthy_population_clean(count in 2usize..10, seed in 0u64..500) {
        let mut gen = ModelKeygen::new(
            KeygenBehavior::Healthy { shaping: PrimeShaping::Plain },
            128,
            seed.wrapping_mul(31).wrapping_add(5),
        );
        let moduli: Vec<Natural> = (0..count).map(|_| gen.generate().public.n).collect();
        let result = batch_gcd(&moduli, 1);
        prop_assert_eq!(result.vulnerable_count(), 0);
    }
}

#[test]
fn deterministic_rng_unused() {
    // Guard: `population` must be deterministic so failures reproduce.
    let _ = rand::rngs::StdRng::seed_from_u64(0);
    let (a, _) = population(5, 3, 11);
    let (b, _) = population(5, 3, 11);
    assert_eq!(a, b);
}
