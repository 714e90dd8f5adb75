//! Ad-hoc phase breakdown for the sharded full rebuild at the bench's
//! 600-moduli shape. Not part of the committed bench suite output; run with
//! `cargo run --release -p wk-bench --example phase_profile`.

use std::time::Instant;
use wk_batchgcd::{ProductTree, WorkerPool};
use wk_bench::key_population;
use wk_bigint::Natural;

fn main() {
    let n = 630usize;
    let bits = 256u64;
    let capacity = 64usize;
    let moduli = key_population(n, bits, 0.04, 1601);
    // One worker: per-phase attribution on a single-CPU container is only
    // meaningful without thread-preemption overlap inflating task spans.
    let pool = WorkerPool::new(1);

    // Phase 1: shard trees (roots only kept), built on the claiming worker.
    let t = Instant::now();
    let chunks: Vec<&[Natural]> = moduli.chunks(capacity).collect();
    let shard_products: Vec<Natural> = pool
        .exec()
        .map(chunks, |chunk| {
            ProductTree::build_local(chunk).unwrap().root().clone()
        })
        .into_iter()
        .collect();
    println!("phase1 shard products: {:?}", t.elapsed());

    // Phase 2: top tree.
    let t = Instant::now();
    let top = ProductTree::build(&shard_products, pool.exec()).unwrap();
    println!("phase2 top tree: {:?}", t.elapsed());

    // Phase 3a: top cofactor descent.
    let t = Instant::now();
    let shard_residues = top.remainder_tree_cofactor(&Natural::one(), pool.exec());
    println!("phase3a top descent: {:?}", t.elapsed());

    // Phase 3b: leaf phase, one task per shard, all-local inside.
    let t = Instant::now();
    let leaf_tasks: Vec<_> = moduli
        .chunks(capacity)
        .zip(shard_residues)
        .map(|(chunk, residue)| {
            move || {
                let t0 = Instant::now();
                let tree = ProductTree::build_local(chunk).unwrap();
                let t1 = Instant::now();
                let rems = tree.remainder_tree_cofactor_local(&residue);
                let t2 = Instant::now();
                for (m, zn) in chunk.iter().zip(rems) {
                    let _ = m.gcd(&zn);
                }
                (t1 - t0, t2 - t1, t2.elapsed())
            }
        })
        .collect();
    let parts = pool.exec().run_tasks(leaf_tasks);
    let (mut build, mut desc, mut gcd) = (
        std::time::Duration::ZERO,
        std::time::Duration::ZERO,
        std::time::Duration::ZERO,
    );
    for (b, d, g) in parts {
        build += b;
        desc += d;
        gcd += g;
    }
    println!(
        "phase3b leaf phase (rebuild+descend+gcd): {:?} [build {build:?} descend {desc:?} gcd {gcd:?}]",
        t.elapsed()
    );
}
