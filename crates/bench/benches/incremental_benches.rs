//! `ablation_incremental` — full tree rebuild vs the delta-update path
//! (DESIGN.md §8, A6): at several corpus/delta (`N`/`M`) ratios, compare a
//! from-scratch `TreeCache::build` over the union against one
//! `incremental_batch_gcd` call landing the delta on a warm cache, and
//! print the evidence (walls and executor task counts) per case.
//!
//! The vendored criterion stand-in does not parse CLI flags, so this bench
//! is a plain `main` that honors `-- --test` itself: smoke mode shrinks
//! the workload to seconds and skips the wall-clock assertion (timing on
//! a loaded CI box is noise), while the work assertion — the delta run
//! burns strictly less executor busy time than the rebuild — holds in
//! both modes. (Task counts stopped being comparable once the executor
//! started chunking leaf maps: the two paths chunk differently, so busy
//! time is the honest "does less work" measure.)

use std::time::{Duration, Instant};
use wk_batchgcd::{incremental_batch_gcd, scratch_dir, BatchGcdResult, ShardStore, TreeCache};
use wk_bench::key_population;

const THREADS: usize = 4;

struct FullRun {
    wall: Duration,
    result: BatchGcdResult,
}

struct DeltaRun {
    wall: Duration,
    result: BatchGcdResult,
}

/// Best-of-`samples` from-scratch run over the union corpus.
fn measure_full(union: &[wk_bigint::Natural], capacity: usize, samples: usize) -> FullRun {
    let mut best: Option<FullRun> = None;
    for s in 0..samples {
        let store_dir = scratch_dir(&format!("bench-incr-full-store-{s}"));
        let cache_dir = scratch_dir(&format!("bench-incr-full-cache-{s}"));
        let store = ShardStore::create(&store_dir, capacity, union).unwrap();
        let start = Instant::now();
        let (cache, result) = TreeCache::build(&cache_dir, &store, THREADS).unwrap();
        let wall = start.elapsed();
        cache.remove().unwrap();
        store.remove().unwrap();
        if best.as_ref().is_none_or(|b| wall < b.wall) {
            best = Some(FullRun { wall, result });
        }
    }
    best.unwrap()
}

/// Best-of-`samples` delta run: the old corpus is cached (untimed setup);
/// only the `incremental_batch_gcd` call is measured.
fn measure_delta(
    old: &[wk_bigint::Natural],
    delta: &[wk_bigint::Natural],
    capacity: usize,
    samples: usize,
) -> DeltaRun {
    let mut best: Option<DeltaRun> = None;
    for s in 0..samples {
        let store_dir = scratch_dir(&format!("bench-incr-delta-store-{s}"));
        let cache_dir = scratch_dir(&format!("bench-incr-delta-cache-{s}"));
        let mut store = ShardStore::create(&store_dir, capacity, old).unwrap();
        let (mut cache, _) = TreeCache::build(&cache_dir, &store, THREADS).unwrap();
        let start = Instant::now();
        let result =
            incremental_batch_gcd(&mut store, &mut cache, delta, capacity, THREADS).unwrap();
        let wall = start.elapsed();
        cache.remove().unwrap();
        store.remove().unwrap();
        if best.as_ref().is_none_or(|b| wall < b.wall) {
            best = Some(DeltaRun { wall, result });
        }
    }
    best.unwrap()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    // N old moduli, several delta sizes M, fixed shard capacity.
    let (n_old, deltas, bits, capacity, samples) = if smoke {
        (48usize, vec![4usize, 12], 128u64, 16usize, 2usize)
    } else {
        // Best-of-5: on a host with one or two CPUs individual samples are
        // noisy, and the wall-clock assertion below needs stable minima.
        (600, vec![30, 100, 300], 256, 64, 5)
    };
    let max_delta = *deltas.iter().max().unwrap();
    let union = key_population(n_old + max_delta, bits, 0.04, 1601);
    let old = &union[..n_old];

    for &m in &deltas {
        let union_m = &union[..n_old + m];
        let delta = &union_m[n_old..];
        let full = measure_full(union_m, capacity, samples);
        let inc = measure_delta(old, delta, capacity, samples);

        // Correctness first: the delta run must reproduce the rebuild.
        assert_eq!(inc.result.raw_divisors, full.result.raw_divisors);
        assert_eq!(inc.result.statuses, full.result.statuses);

        // The ablation's work claim: the rebuild multiplies and descends
        // over the whole union, the delta run over M new moduli plus one
        // small reduction per cached shard root and per-modulus work only
        // in the shards the delta reaches, so for M < N the executors
        // must show strictly less summed busy time end to end.
        let full_tree_tasks = full.result.stats.product_tree_exec.tasks();
        let inc_tree_tasks = inc.result.stats.product_tree_exec.tasks();
        let full_tasks = full.result.stats.total_exec().tasks();
        let inc_tasks = inc.result.stats.total_exec().tasks();
        let full_busy = full.result.stats.total_exec().busy_total();
        let inc_busy = inc.result.stats.total_exec().busy_total();
        assert!(
            inc_busy < full_busy,
            "delta run burned {inc_busy:?} of executor busy time, rebuild {full_busy:?} — \
             the delta path must do less work at N={n_old} M={m}"
        );
        if !smoke {
            assert!(
                inc.wall < full.wall,
                "delta run ({:?}) must beat the full rebuild ({:?}) at N={n_old} M={m}",
                inc.wall,
                full.wall
            );
        }

        println!(
            "ablation_incremental N={n_old} M={m}: rebuild {:?} vs delta {:?} \
             (tree tasks {full_tree_tasks} -> {inc_tree_tasks}, \
             total tasks {full_tasks} -> {inc_tasks})",
            full.wall, inc.wall
        );
    }
}
