//! Equivalence tests for the incremental delta-update path (DESIGN.md §8).
//!
//! The acceptance-criteria invariant: feeding a realistic RSA corpus to
//! [`incremental_batch_gcd`] month by month — persisting and reopening the
//! shard store and [`TreeCache`] between months — produces byte-identical
//! raw divisors and statuses to one classic from-scratch run over the
//! union, across shard capacities and thread counts.

use proptest::prelude::*;
use wk_batchgcd::{
    batch_gcd, incremental_batch_gcd, scratch_dir, sharded_batch_gcd, KeyStatus, ShardStore,
    TreeCache,
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

/// Land `month` on a store and cache built over `old` in shards of
/// `capacity`, on `threads` threads, and return the month's result beside
/// the number of shards the old corpus took.
fn land_month(
    tag: &str,
    old: &[Natural],
    month: &[Natural],
    capacity: usize,
    threads: usize,
) -> (wk_batchgcd::BatchGcdResult, usize) {
    let store_dir = scratch_dir(&format!("incr-month-store-{tag}"));
    let mut store = ShardStore::create(&store_dir, capacity, old).unwrap();
    let old_shards = store.shard_count();
    let (mut cache, _) =
        TreeCache::build(&scratch_dir(&format!("incr-month-cache-{tag}")), &store, 1).unwrap();
    let res = incremental_batch_gcd(&mut store, &mut cache, month, capacity, threads).unwrap();
    // A month with no new moduli reproduces the union's result from the
    // cache alone.
    let again = incremental_batch_gcd(&mut store, &mut cache, &[], capacity, threads).unwrap();
    assert_eq!(again.raw_divisors, res.raw_divisors, "{tag}: empty month");
    assert_eq!(again.statuses, res.statuses, "{tag}: empty month");
    cache.remove().unwrap();
    store.remove().unwrap();
    (res, old_shards)
}

#[test]
fn sweep_reaches_exactly_the_shards_sharing_a_prime_with_the_delta() {
    // Shards of two, small primes. Each month must match `batch_gcd` over
    // the union, and the sweep must fold exactly `reached` old shards: the
    // gcd domain runs one fold per new modulus and job (cofactor, plain)
    // and one per reached shard. A duplicated modulus is SharedUnresolved.
    let shapes: [(&str, &[u128], &[u128], u64); 11] = [
        ("no-hit", &[5 * 7, 11 * 13, 17 * 19, 23 * 29], &[31 * 37], 0),
        // 143 sits in shard 1, which holds no cached hit (15 and 21 in
        // shard 0 share 3).
        (
            "partner-without-cached-hit",
            &[3 * 5, 3 * 7, 11 * 13, 17 * 19],
            &[11 * 23],
            1,
        ),
        ("old-square-new-pr", &[3 * 3, 5 * 7, 11 * 13], &[3 * 17], 1),
        // 9 takes 3 from each new modulus: its divisor is 9.
        (
            "old-square-new-pr-ps",
            &[3 * 3, 5 * 7, 11 * 13],
            &[3 * 17, 3 * 19],
            1,
        ),
        // G = 17² shares nothing with the old corpus.
        (
            "delta-shares-within-only",
            &[5 * 7, 11 * 13],
            &[17 * 19, 17 * 23],
            0,
        ),
        ("duplicate-of-old", &[5 * 7, 11 * 13], &[11 * 13], 1),
        // P_new divides P_old, so the plain job's seed P_old mod P_new is
        // zero: one shard of one modulus, and one of two.
        ("zero-seed-one-modulus", &[3 * 11], &[3 * 11], 1),
        ("zero-seed-two-moduli", &[3 * 11, 5 * 7], &[5 * 7], 1),
        // Both roots are smaller than P_new = 5 * 7 * 13 * 17, so the seed
        // is their product unreduced, a multiple of P_new.
        (
            "zero-seed-unreduced",
            &[3 * 11, 5 * 7, 13 * 17],
            &[5 * 7, 13 * 17],
            2,
        ),
        (
            "hits-two-shards",
            &[5 * 7, 11 * 13, 17 * 19, 23 * 29],
            &[5 * 17],
            2,
        ),
        // Two divisors reach one shard: G_s = 5 * 11.
        (
            "two-divisors-one-shard",
            &[5 * 7, 11 * 13],
            &[5 * 17, 11 * 19],
            1,
        ),
    ];
    for (tag, old, month, reached) in shapes {
        let old: Vec<Natural> = old.iter().map(|&v| Natural::from(v)).collect();
        let month: Vec<Natural> = month.iter().map(|&v| Natural::from(v)).collect();
        let union: Vec<Natural> = old.iter().chain(&month).cloned().collect();
        let classic = batch_gcd(&union, 1);
        let (incr, _) = land_month(tag, &old, &month, 2, 1);
        assert_eq!(incr.raw_divisors, classic.raw_divisors, "{tag}");
        assert_eq!(incr.statuses, classic.statuses, "{tag}");
        for (i, n) in union.iter().enumerate() {
            if union.iter().filter(|m| *m == n).count() > 1 {
                assert_eq!(incr.statuses[i], KeyStatus::SharedUnresolved, "{tag}: {i}");
            }
        }
        let folds = 2 * month.len() as u64 + reached;
        assert_eq!(incr.stats.gcd_exec.tasks(), folds, "{tag}");
    }
}

/// `count` healthy 128-bit keys: no two share a prime.
fn healthy_keys(count: usize, seed: u64) -> Vec<wk_keygen::RsaPrivateKey> {
    let behavior = KeygenBehavior::Healthy {
        shaping: PrimeShaping::OpensslStyle,
    };
    let mut keygen = ModelKeygen::new(behavior, 128, seed);
    (0..count).map(|_| keygen.generate()).collect()
}

#[test]
fn sweep_tasks_are_metered_once() {
    // 32 healthy moduli in 8 shards of 4, and a month whose second modulus
    // shares a prime with the old modulus 13 (shard 3). Against the same
    // month over an empty corpus, the old shards add two tasks each to the
    // remainder domain (the plain seed's reduction of the root by P_new
    // and the sweep's root test) and one fold, for the reached shard, to
    // the gcd domain; both runs meter the seed's one product task. No
    // sweep task runs inside another, so the busy time of all phases fits
    // in the threads' wall time.
    let keys = healthy_keys(36, 31);
    let old: Vec<Natural> = keys[..32].iter().map(|k| k.public.n.clone()).collect();
    let month = vec![
        keys[32].public.n.clone(),
        &keys[13].p * &keys[33].q,
        keys[34].public.n.clone(),
    ];
    let threads = 2;
    let (incr, old_shards) = land_month("metered", &old, &month, 4, threads);
    let (fresh, _) = land_month("metered-fresh", &[], &month, 4, threads);
    assert_eq!(old_shards, 8);
    assert!(incr.raw_divisors[13].is_some() && incr.raw_divisors[33].is_some());
    let stats = &incr.stats;
    assert_eq!(
        stats.remainder_tree_exec.tasks(),
        fresh.stats.remainder_tree_exec.tasks() + 2 * old_shards as u64
    );
    assert_eq!(stats.gcd_exec.tasks(), fresh.stats.gcd_exec.tasks() + 1);
    let busy = stats.total_exec().busy_total();
    assert!(
        busy <= stats.total_time() * threads as u32,
        "busy {busy:?} over {threads} threads × {:?}",
        stats.total_time()
    );
}

#[test]
fn month_close_work_is_independent_of_the_corpus() {
    // A month that shares no prime with the corpus runs the same gcd-domain
    // tasks over 128 cached moduli as over 1,024: the sweep reaches no
    // shard, so no old modulus is folded.
    let moduli: Vec<Natural> = healthy_keys(1024 + 8, 2024)
        .into_iter()
        .map(|k| k.public.n)
        .collect();
    let month = &moduli[1024..];
    let gcd_tasks = [128usize, 1024].map(|cached| {
        let tag = format!("bound-{cached}");
        let (res, _) = land_month(&tag, &moduli[..cached], month, 64, 2);
        assert_eq!(res.vulnerable_count(), 0, "{tag}");
        res.stats.gcd_exec.tasks()
    });
    assert_eq!(
        gcd_tasks[0], gcd_tasks[1],
        "gcd tasks over 128 vs 1,024 cached moduli"
    );
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
