//! Incremental batch GCD: land a new scan month on a cached corpus
//! without rebuilding the product tree from scratch.
//!
//! Walks the delta-update workflow from DESIGN.md §8: month one seeds a
//! persistent shard store and `TreeCache` (per-shard roots and hits);
//! month two arrives as a delta and is resolved against the cached corpus
//! by `incremental_batch_gcd` — paying tree work proportional to the
//! delta, not the union. The output is byte-identical to a from-scratch
//! classic run over both months — the example checks.
//!
//! ```sh
//! cargo run --release --example incremental_gcd
//! ```

use wk_batchgcd::{batch_gcd, incremental_batch_gcd, KeyStatus, TreeCache};
use wk_bigint::Natural;
use wk_keygen::{KeygenBehavior, ModelKeygen, PrimeShaping, RsaPrivateKey};
use wk_scan::ModulusStore;

fn main() {
    // One entropy-starved device line, observed across two scan months.
    // The shared pool guarantees prime collisions both within a month and
    // across the month boundary.
    let mut flawed = ModelKeygen::new(
        KeygenBehavior::SharedPrimePool {
            shaping: PrimeShaping::OpensslStyle,
            pool_size: 4,
        },
        512,
        20_12,
    );
    let mut healthy = ModelKeygen::new(
        KeygenBehavior::Healthy {
            shaping: PrimeShaping::OpensslStyle,
        },
        512,
        20_13,
    );

    // Month one: 10 flawed + 6 healthy devices, interned into the scan
    // corpus and exported as checksummed shards (DESIGN.md §7).
    let mut corpus = ModulusStore::default();
    for _ in 0..10 {
        corpus.intern(&flawed.generate().public.n);
    }
    for _ in 0..6 {
        corpus.intern(&healthy.generate().public.n);
    }
    let base = std::env::temp_dir().join(format!("incremental-gcd-example-{}", std::process::id()));
    let mut store = corpus
        .export_shards(&base.join("shards"), 4)
        .expect("export month one");

    // Build the tree cache: a full batch-GCD pass over month one that
    // also persists the per-shard roots and the hits.
    let (mut cache, month1) =
        TreeCache::build(&base.join("cache"), &store, 2).expect("build tree cache");
    println!(
        "month 1: {} moduli in {} shards, {} factorable; cache covers {} moduli",
        store.total_moduli(),
        store.shard_count(),
        month1.vulnerable_count(),
        cache.total_moduli()
    );

    // Month two: 6 more flawed devices (drawing from the same pool) and 4
    // healthy ones. `moduli_since` slices exactly the new distinct moduli.
    let snapshot = corpus.len();
    for _ in 0..6 {
        corpus.intern(&flawed.generate().public.n);
    }
    for _ in 0..4 {
        corpus.intern(&healthy.generate().public.n);
    }
    let delta = corpus.moduli_since(snapshot).to_vec();
    println!("month 2: {} new distinct moduli", delta.len());

    // The delta run: push the delta's own cofactor job and the cached
    // corpus product mod P_new (folded from the cached shard roots) down
    // the delta tree in one pass, test the cached shard roots
    // against the new moduli's divisors and fold them into the shards they
    // reach, append the new shards, and persist the updated cache — all in
    // one call.
    let capacity = store.capacity() as usize;
    let result = incremental_batch_gcd(&mut store, &mut cache, &delta, capacity, 2)
        .expect("incremental delta run");
    let d = &result.stats.delta;
    println!(
        "delta run: {} cached + {} new moduli, {} factorable across both months",
        d.cached_count,
        d.delta_count,
        result.vulnerable_count()
    );
    println!(
        "  phases: delta tree {:?}, sweep {:?}, cache update {:?}",
        d.delta_tree_time, d.delta_sweep_time, d.delta_cache_update_time
    );
    let stats = &result.stats;
    println!(
        "  leaf phase {:?} wall, leaf gcds {:?} busy",
        stats.remainder_tree_time,
        stats.gcd_exec.busy_total()
    );

    for (idx, status) in result.statuses.iter().enumerate() {
        if let KeyStatus::Factored { p, q } = status {
            let month = if idx < snapshot { 1 } else { 2 };
            println!(
                "  modulus #{idx} (month {month}): p has {} bits, q has {} bits",
                p.bit_len(),
                q.bit_len()
            );
        }
    }

    // Byte-identical to a from-scratch classic run over the union — the
    // §8 correctness claim, checked here end to end.
    let classic = batch_gcd(corpus.all(), 2);
    assert_eq!(result.raw_divisors, classic.raw_divisors);
    assert_eq!(result.statuses, classic.statuses);
    println!("verified: identical output to a from-scratch run over both months");

    // A cross-month collision breaks a month-one key using month-two data.
    if let Some(idx) = result.vulnerable_indices().first().copied() {
        let (p, _) = result.statuses[idx].factors().expect("factored");
        let n: &Natural = &corpus.all()[idx];
        let private = RsaPrivateKey::from_factor(n, p).expect("rebuild private key");
        let secret = Natural::from(0x1dea1u64);
        assert_eq!(
            private.decrypt_raw(&private.public.encrypt_raw(&secret)),
            secret
        );
        println!("key #{idx}: private key rebuilt from the incremental run, decryption OK");
    }

    cache.remove().expect("remove tree cache");
    store.remove().expect("remove shard store");
    let _ = std::fs::remove_dir(&base);
}
