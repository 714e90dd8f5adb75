//! Figure 2 and the batch-GCD ablations (DESIGN.md A1, A4, A5).
//!
//! * `fig2_distributed_batchgcd` — the k-subset variant across k, measuring
//!   the paper's trade: total work grows with k while the per-node tree
//!   (and with real nodes, the critical path) shrinks.
//! * `ablation_naive_vs_batch` — quasilinear batch GCD vs the quadratic
//!   pairwise baseline (§3.2's feasibility argument).
//! * `ablation_remainder_tree` — the cofactor descent vs computing
//!   `(P / N) mod N` for each modulus directly.
//! * `exec_skewed_sizes` — the work-stealing case: a population whose
//!   bigint sizes are pathologically uneven, where static chunking would
//!   serialize on whichever chunk drew the large moduli.
//! * `ablation_corpus_shards` — in-memory classic batch GCD vs the
//!   disk-backed shard store feeding the same pool (DESIGN.md §7): what the
//!   bounded-memory streaming mode costs in shard re-reads and per-shard
//!   tree rebuilds. This is also the in-RAM vs on-disk contrast of §3.2
//!   (the original hardware wrote its trees to disk).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wk_batchgcd::{
    batch_gcd, distributed_batch_gcd, naive_pairwise_gcd, scratch_dir, sharded_batch_gcd,
    ClusterConfig, ProductTree, ShardStore, WorkerPool,
};
use wk_bench::key_population;

fn fig2_distributed_batchgcd(c: &mut Criterion) {
    let moduli = key_population(1500, 512, 0.02, 11);
    let mut group = c.benchmark_group("fig2_distributed_batchgcd");
    group.sample_size(10);
    group.bench_function("classic", |b| b.iter(|| batch_gcd(black_box(&moduli), 1)));
    for k in [2usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::new("k_subset", k), &k, |b, &k| {
            b.iter(|| distributed_batch_gcd(black_box(&moduli), ClusterConfig::sequential(k)))
        });
    }
    group.finish();

    // Shape assertions printed once: work grows with k, per-node memory
    // shrinks.
    let classic = batch_gcd(&moduli, 1);
    let d4 = distributed_batch_gcd(&moduli, ClusterConfig::sequential(4));
    let d16 = distributed_batch_gcd(&moduli, ClusterConfig::sequential(16));
    assert_eq!(d4.vulnerable_count(), classic.vulnerable_count());
    assert_eq!(d16.vulnerable_count(), classic.vulnerable_count());
    let node4 = d4.report.nodes.iter().map(|n| n.tree_bytes).max().unwrap();
    let node16 = d16.report.nodes.iter().map(|n| n.tree_bytes).max().unwrap();
    assert!(node16 < node4 && node4 < classic.stats.tree_bytes);
    println!(
        "fig2 shape: tree bytes classic={} k4(max node)={} k16(max node)={}; \
         total CPU k4={:?} k16={:?}",
        classic.stats.tree_bytes,
        node4,
        node16,
        d4.report.total_cpu_time(),
        d16.report.total_cpu_time()
    );
}

fn ablation_naive_vs_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_naive_vs_batch");
    group.sample_size(10);
    for n in [100usize, 200, 400, 800] {
        let moduli = key_population(n, 512, 0.05, 23);
        group.bench_with_input(BenchmarkId::new("batch", n), &moduli, |b, m| {
            b.iter(|| batch_gcd(black_box(m), 1))
        });
        // The quadratic baseline is capped where it stops being polite on a
        // single core — which is the paper's point (§3.2).
        if n <= 400 {
            group.bench_with_input(BenchmarkId::new("naive", n), &moduli, |b, m| {
                b.iter(|| naive_pairwise_gcd(black_box(m)))
            });
        }
    }
    group.finish();
}

fn ablation_remainder_tree(c: &mut Criterion) {
    let moduli = key_population(600, 512, 0.05, 31);
    let pool = WorkerPool::new(1);
    let tree = ProductTree::build(&moduli, pool.exec()).unwrap();
    let root = tree.root().clone();
    let one = wk_bigint::Natural::one();
    let mut group = c.benchmark_group("ablation_remainder_tree");
    group.sample_size(10);
    group.bench_function("remainder_tree", |b| {
        b.iter(|| tree.remainder_tree_cofactor(black_box(&one), pool.exec()))
    });
    group.bench_function("direct_division_per_leaf", |b| {
        b.iter(|| moduli.iter().map(|m| &(&root / m) % m).collect::<Vec<_>>())
    });
    group.finish();
}

/// In-memory vs disk-sharded runs of the same classic algorithm: the
/// sharded mode re-reads every shard twice and rebuilds per-shard trees,
/// buying O(shard + top tree) peak memory instead of O(corpus).
fn ablation_corpus_shards(c: &mut Criterion) {
    let moduli = key_population(400, 512, 0.05, 47);
    let mut group = c.benchmark_group("ablation_corpus_shards");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("in_memory", threads), &threads, |b, &t| {
            b.iter(|| batch_gcd(black_box(&moduli), t))
        });
        for capacity in [50usize, 200] {
            let dir = scratch_dir(&format!("bench-shards-{threads}-{capacity}"));
            let store = ShardStore::create(&dir, capacity, &moduli).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("sharded_cap{capacity}"), threads),
                &threads,
                |b, &t| b.iter(|| sharded_batch_gcd(black_box(&store), t).unwrap()),
            );
            store.remove().unwrap();
        }
    }
    group.finish();

    // Print the equivalence + I/O evidence once.
    let dir = scratch_dir("bench-shards-check");
    let store = ShardStore::create(&dir, 50, &moduli).unwrap();
    let sharded = sharded_batch_gcd(&store, 4).unwrap();
    let classic = batch_gcd(&moduli, 4);
    assert_eq!(sharded.raw_divisors, classic.raw_divisors);
    assert_eq!(sharded.statuses, classic.statuses);
    println!(
        "ablation_corpus_shards: shards={} bytes_on_disk={} (each read twice; \
         identical output to in-memory)",
        store.shard_count(),
        store.bytes_on_disk()
    );
    store.remove().unwrap();
}

/// Peak-RSS bookkeeping for the low-memory ablation: `VmHWM` from
/// `/proc/self/status`, reset per-arm by writing `5` to
/// `/proc/self/clear_refs` (Linux >= 4.0). Returns KiB.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn reset_peak_rss() {
    // Best-effort: unsupported kernels just report a shared watermark.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Fold one nontrivial pairwise gcd into a per-modulus divisor accumulator,
/// mirroring `naive_pairwise_gcd`: the running value is the product of
/// distinct shared primes (lcm, clamped to a divisor of `n`).
fn merge_divisor(
    acc: &mut Option<wk_bigint::Natural>,
    g: &wk_bigint::Natural,
    n: &wk_bigint::Natural,
) {
    *acc = Some(match acc.take() {
        None => g.clone(),
        Some(prev) => {
            let l = &(&prev * g) / &prev.gcd(g);
            n.gcd(&l)
        }
    });
}

/// Pelofske-style all-to-all GCD over a shard store: every shard pair is
/// brought in as a tile, all cross-tile (and intra-tile) gcds are taken
/// directly, and at most two shards are resident at any moment. Quadratic
/// work, O(2 x shard) memory — the low-entropy-corpus trade from "An
/// Efficient All-to-All GCD Algorithm for Low Entropy RSA Key
/// Factorization" (PAPERS.md), as opposed to the quasilinear,
/// tree-resident batch descent.
fn all_to_all_blocked(store: &ShardStore) -> (Vec<Option<wk_bigint::Natural>>, u64) {
    let shards = store.shard_count() as u32;
    let capacity = store.capacity().max(1) as usize;
    let mut divisors: Vec<Option<wk_bigint::Natural>> = vec![None; store.total_moduli() as usize];
    let mut ops = 0u64;
    for i in 0..shards {
        let tile_a = store.read_shard(i).unwrap();
        let base_a = i as usize * capacity;
        // Intra-tile pairs.
        for x in 0..tile_a.len() {
            for y in (x + 1)..tile_a.len() {
                ops += 1;
                let g = tile_a[x].gcd(&tile_a[y]);
                if !g.is_one() {
                    merge_divisor(&mut divisors[base_a + x], &g, &tile_a[x]);
                    merge_divisor(&mut divisors[base_a + y], &g, &tile_a[y]);
                }
            }
        }
        // Cross-tile pairs against every later shard.
        for j in (i + 1)..shards {
            let tile_b = store.read_shard(j).unwrap();
            let base_b = j as usize * capacity;
            for (x, a) in tile_a.iter().enumerate() {
                for (y, b) in tile_b.iter().enumerate() {
                    ops += 1;
                    let g = a.gcd(b);
                    if !g.is_one() {
                        merge_divisor(&mut divisors[base_a + x], &g, a);
                        merge_divisor(&mut divisors[base_b + y], &g, b);
                    }
                }
            }
        }
    }
    (divisors, ops)
}

/// A8 — the low-memory baseline: all-to-all gcd over shard tiles vs the
/// tree-based descents, timing and peak-RSS per arm (EXPERIMENTS.md).
fn ablation_all_to_all_lowmem(c: &mut Criterion) {
    // Large enough that the classic tree (~2.4 MB at 1500 x 512-bit)
    // dominates the process baseline, so the peak-RSS contrast is real;
    // the quadratic arm runs ~1.1M pairwise gcds, which is exactly the
    // trade being measured.
    let n = 1500usize;
    let moduli = key_population(n, 512, 0.02, 53);
    let dir = scratch_dir("bench-a2a");
    let store = ShardStore::create(&dir, 64, &moduli).unwrap();

    let mut group = c.benchmark_group("ablation_all_to_all_lowmem");
    group.sample_size(3);
    group.bench_function("tree_in_memory", |b| {
        b.iter(|| batch_gcd(black_box(&moduli), 1))
    });
    group.bench_function("tree_sharded", |b| {
        b.iter(|| sharded_batch_gcd(black_box(&store), 1).unwrap())
    });
    group.bench_function("all_to_all_blocked", |b| {
        b.iter(|| all_to_all_blocked(black_box(&store)))
    });
    group.finish();

    // One measured pass per arm with a reset RSS watermark, low-memory arm
    // first so allocator page retention from the tree arms cannot mask its
    // floor: the headline numbers for the EXPERIMENTS.md table.
    let mut rss_rows = Vec::new();
    for (name, run) in [
        (
            "all_to_all_blocked",
            Box::new(|| {
                black_box(all_to_all_blocked(&store));
            }) as Box<dyn Fn()>,
        ),
        (
            "tree_sharded",
            Box::new(|| {
                black_box(sharded_batch_gcd(&store, 1).unwrap());
            }),
        ),
        (
            "tree_in_memory",
            Box::new(|| {
                black_box(batch_gcd(&moduli, 1));
            }),
        ),
    ] {
        reset_peak_rss();
        let start = std::time::Instant::now();
        run();
        let wall = start.elapsed();
        let hwm = peak_rss_kib().unwrap_or(0);
        rss_rows.push((name, wall, hwm));
    }
    for (name, wall, hwm) in &rss_rows {
        println!("ablation_all_to_all_lowmem: {name} wall={wall:?} peak_rss={hwm} KiB");
    }

    // Correctness: the quadratic tile sweep must agree with the tree.
    let classic = batch_gcd(&moduli, 1);
    let (divisors, ops) = all_to_all_blocked(&store);
    assert_eq!(divisors, classic.raw_divisors);
    assert_eq!(ops, (n * (n - 1) / 2) as u64);
    println!("ablation_all_to_all_lowmem: {ops} pairwise gcds, divisors identical to tree descent");
    store.remove().unwrap();
}

/// Work-stealing stress: mix 512-bit moduli with a sprinkle of much larger
/// ones so per-task costs are wildly uneven. With static chunking, whole
/// chunks of cheap tasks queue behind a chunk that drew the expensive
/// moduli; the deque-stealing pool keeps every worker busy.
fn exec_skewed_sizes(c: &mut Criterion) {
    let mut moduli = key_population(360, 512, 0.02, 41);
    // Every 24th modulus is 2048-bit: ~16x the multiply cost at the leaves.
    let fat = key_population(15, 2048, 0.0, 43);
    for (slot, big) in moduli.iter_mut().step_by(24).zip(fat) {
        *slot = big;
    }
    let mut group = c.benchmark_group("exec_skewed_sizes");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("batch_gcd_skewed", threads),
            &threads,
            |b, &t| b.iter(|| batch_gcd(black_box(&moduli), t)),
        );
    }
    group.finish();

    // Print the executor's own evidence once: with 4 workers, steals must
    // actually occur and every worker must have executed tasks.
    let res = batch_gcd(&moduli, 4);
    let exec = res.stats.total_exec();
    println!(
        "exec_skewed_sizes: tasks={} steals={} active_workers={}/{} busy={:?}",
        exec.tasks(),
        exec.steals,
        exec.active_workers(),
        exec.workers(),
        exec.busy_total()
    );
}

criterion_group! {
    name = batchgcd;
    config = Criterion::default().sample_size(10);
    targets = fig2_distributed_batchgcd, ablation_naive_vs_batch, ablation_remainder_tree,
              ablation_corpus_shards, ablation_all_to_all_lowmem,
              exec_skewed_sizes
}
criterion_main!(batchgcd);
