//! Equivalence tests for the incremental delta-update path (DESIGN.md §8).
//!
//! The acceptance-criteria invariant: feeding a realistic RSA corpus to
//! [`incremental_batch_gcd`] month by month — persisting and reopening the
//! shard store and [`TreeCache`] between months — produces byte-identical
//! raw divisors and statuses to one classic from-scratch run over the
//! union, across shard capacities and thread counts.

use proptest::prelude::*;
use wk_batchgcd::{
    batch_gcd, incremental_batch_gcd, scratch_dir, sharded_batch_gcd, ShardStore, TreeCache,
};
use wk_bigint::Natural;
use wk_keygen::{KeygenBehavior, ModelKeygen, PrimeShaping};

/// A realistic mixed population: `vulnerable` keys over a small shared
/// pool, `healthy` keys with fresh primes, interleaved so that shared
/// primes cross month boundaries. 128-bit moduli keep the suite fast.
fn population(vulnerable: usize, healthy: usize, seed: u64) -> Vec<Natural> {
    population_with_squares(vulnerable, healthy, 0, seed)
}

/// [`population`] plus `squares` prime-square moduli `p²`, spread through
/// the months: even-numbered ones square the pool prime of a vulnerable
/// key, odd-numbered ones a fresh prime, so the inputs are not squarefree.
fn population_with_squares(
    vulnerable: usize,
    healthy: usize,
    squares: usize,
    seed: u64,
) -> Vec<Natural> {
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
    let vuln_keys: Vec<_> = (0..vulnerable).map(|_| vuln_gen.generate()).collect();
    let mut moduli: Vec<Natural> = vuln_keys.iter().map(|k| k.public.n.clone()).collect();
    for (i, n) in (0..healthy)
        .map(|_| healthy_gen.generate().public.n)
        .enumerate()
    {
        // Interleave so every month mixes pool and fresh keys — shared
        // primes must be found across month boundaries, not just within.
        moduli.insert((i * 2 + 1).min(moduli.len()), n);
    }
    for i in 0..squares {
        let p = match vuln_keys.get(i) {
            Some(key) if i % 2 == 0 => key.p.clone(),
            _ => healthy_gen.generate().p,
        };
        let at = (moduli.len() * (2 * i + 1) / (2 * squares)).min(moduli.len());
        moduli.insert(at, &p * &p);
    }
    moduli
}

/// Split `moduli` into `months` contiguous batches (sizes as even as the
/// division allows; the remainder spreads over the leading months).
fn month_batches(moduli: &[Natural], months: usize) -> Vec<&[Natural]> {
    let chunk = moduli.len().div_ceil(months).max(1);
    moduli.chunks(chunk).collect()
}

/// Run the chained-months scenario: bootstrap on an empty store, land each
/// month via the delta path, reopening store and cache from disk between
/// months (each month simulates a fresh process).
fn chained_incremental(
    moduli: &[Natural],
    months: usize,
    capacity: usize,
    threads: usize,
    tag: &str,
) -> wk_batchgcd::BatchGcdResult {
    let store_dir = scratch_dir(&format!("incr-equiv-store-{tag}"));
    let cache_dir = scratch_dir(&format!("incr-equiv-cache-{tag}"));
    let store = ShardStore::create(&store_dir, capacity, std::iter::empty()).unwrap();
    let (cache, _) = TreeCache::build(&cache_dir, &store, threads).unwrap();
    drop((store, cache));

    let mut last = None;
    for month in month_batches(moduli, months) {
        let mut store = ShardStore::open(&store_dir).unwrap();
        let mut cache = TreeCache::open(&cache_dir, &store).unwrap();
        // A reopened store infers its capacity from the largest shard on
        // disk (DESIGN.md §7: the format records no nominal capacity), so
        // a ragged tail shard can shrink it; later appends must follow the
        // store's view, exactly as a real month-over-month process would.
        let cap = match store.capacity() {
            0 => capacity,
            c => c as usize,
        };
        let res = incremental_batch_gcd(&mut store, &mut cache, month, cap, threads).unwrap();
        assert_eq!(store.total_moduli() as usize, res.statuses.len());
        last = Some(res);
    }

    let store = ShardStore::open(&store_dir).unwrap();
    let cache = TreeCache::open(&cache_dir, &store).unwrap();
    cache.remove().unwrap();
    store.remove().unwrap();
    last.expect("at least one month")
}

#[test]
fn chained_months_byte_identical_to_classic_union() {
    // The headline acceptance criterion, swept across shard capacities and
    // thread counts: k chained incremental months == one classic run.
    let moduli = population(14, 10, 4242);
    let classic = batch_gcd(&moduli, 1);
    assert!(
        classic.vulnerable_count() >= 2,
        "population must be interesting"
    );
    for months in [2usize, 3, 5] {
        for capacity in [1usize, 3, 7, 64] {
            for threads in [1usize, 4] {
                let tag = format!("m{months}-c{capacity}-t{threads}");
                let incr = chained_incremental(&moduli, months, capacity, threads, &tag);
                assert_eq!(
                    incr.raw_divisors, classic.raw_divisors,
                    "months={months} capacity={capacity} threads={threads}"
                );
                assert_eq!(
                    incr.statuses, classic.statuses,
                    "months={months} capacity={capacity} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn incremental_agrees_with_sharded_over_same_store() {
    // After the months land, the augmented store itself must yield the same
    // answer through the streaming path — the cache faithfully mirrors the
    // on-disk corpus.
    let moduli = population(10, 6, 99);
    let (month1, month2) = moduli.split_at(moduli.len() / 2);

    let store_dir = scratch_dir("incr-equiv-vs-sharded-store");
    let mut store = ShardStore::create(&store_dir, 4, month1).unwrap();
    let (mut cache, _) =
        TreeCache::build(&scratch_dir("incr-equiv-vs-sharded-cache"), &store, 2).unwrap();
    let incr = incremental_batch_gcd(&mut store, &mut cache, month2, 4, 2).unwrap();
    let sharded = sharded_batch_gcd(&store, 2).unwrap();
    assert_eq!(incr.raw_divisors, sharded.raw_divisors);
    assert_eq!(incr.statuses, sharded.statuses);
    cache.remove().unwrap();
    store.remove().unwrap();
}

#[test]
fn delta_metrics_shrink_with_the_delta() {
    // Perf shape check (bench `ablation_incremental` measures wall time;
    // here the executor's own busy accounting must show the delta run
    // doing less work than the bootstrap month it sits on — task counts
    // are not comparable across the two paths, which chunk differently).
    let moduli = population(20, 20, 777);
    let (bulk, delta) = moduli.split_at(moduli.len() - 4);

    let store_dir = scratch_dir("incr-equiv-metrics-store");
    let mut store = ShardStore::create(&store_dir, 8, bulk).unwrap();
    let (mut cache, full) =
        TreeCache::build(&scratch_dir("incr-equiv-metrics-cache"), &store, 1).unwrap();
    let full_busy = full.stats.total_exec().busy_total();

    let incr = incremental_batch_gcd(&mut store, &mut cache, delta, 8, 1).unwrap();
    assert_eq!(incr.stats.delta.delta_count, delta.len() as u64);
    assert_eq!(incr.stats.delta.cached_count, bulk.len() as u64);
    let inc_busy = incr.stats.total_exec().busy_total();
    assert!(
        inc_busy < full_busy,
        "delta run burned {inc_busy:?} of executor busy time, bootstrap {full_busy:?}"
    );
    assert!(incr.stats.delta.total_time() > std::time::Duration::ZERO);
    cache.remove().unwrap();
    store.remove().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random populations, some with prime-square moduli, month counts,
    /// and capacities: the chained incremental result always matches the
    /// classic union run.
    #[test]
    fn random_chains_match_classic(
        vulnerable in 3usize..10,
        healthy in 0usize..8,
        squares in 0usize..3,
        seed in 0u64..1000,
        months in 1usize..5,
        capacity in 1usize..9,
    ) {
        let moduli = population_with_squares(vulnerable, healthy, squares, seed);
        let classic = batch_gcd(&moduli, 1);
        let tag = format!("prop-{vulnerable}-{healthy}-{squares}-{seed}-{months}-{capacity}");
        let incr = chained_incremental(&moduli, months, capacity, 1, &tag);
        prop_assert_eq!(incr.raw_divisors, classic.raw_divisors);
        prop_assert_eq!(incr.statuses, classic.statuses);
    }
}
