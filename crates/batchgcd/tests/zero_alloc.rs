//! Counting-allocator proof that the steady-state cofactor descent is
//! allocation-free (DESIGN.md §13). It is the scaled remainder descent
//! every batch-GCD entry point runs: a Newton inverse of the root, then one
//! middle product per node.
//!
//! A warmed [`ProductTree::remainder_tree_cofactor_local_into`] pass —
//! same tree, caller-owned [`DescentScratch`] and output vector, limb
//! arena populated by the first pass — must touch the global allocator
//! zero times. Every limb buffer the descent needs comes back out of the
//! thread arena, and the level containers keep their capacity. Two trees
//! are pinned: 21 × 256-bit moduli (an 84-limb root, schoolbook middle
//! products only) and the audit daemon's capacity-64 shard at the paper's
//! key size, 64 × 1024-bit moduli (a 1,024-limb root), where the Newton
//! inverse and the transform middle products run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use wk_batchgcd::{DescentScratch, ProductTree, WorkerPool};
use wk_bigint::Natural;
use wk_keygen::{KeygenBehavior, ModelKeygen, PrimeShaping};

/// Pass-through to the system allocator that counts `alloc`/`realloc`
/// calls while armed. Deallocations are free of charge: recycling is the
/// point, releasing is not.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// lint:allow missing-docs -- trait impl on a test-local type
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Mixed 256-bit population, odd-sized so the tree carries a promoted
/// node (the pass-through shape the descent must also handle without
/// allocating).
fn population(count: usize, seed: u64) -> Vec<Natural> {
    let mut vuln = ModelKeygen::new(
        KeygenBehavior::SharedPrimePool {
            shaping: PrimeShaping::OpensslStyle,
            pool_size: 3,
        },
        256,
        seed,
    );
    let mut healthy = ModelKeygen::new(
        KeygenBehavior::Healthy {
            shaping: PrimeShaping::OpensslStyle,
        },
        256,
        seed + 1,
    );
    (0..count)
        .map(|i| {
            if i % 3 == 0 {
                vuln.generate().public.n
            } else {
                healthy.generate().public.n
            }
        })
        .collect()
}

/// `count` odd moduli of exactly `limbs` limbs, deterministic.
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

/// Two unmeasured passes, then four armed ones: zero heap calls, and every
/// pass's leaves byte-identical to the first.
fn assert_warmed_descent_allocates_nothing(moduli: &[Natural]) {
    // Build on a worker pool, then drop it: the measurement below must see
    // only this thread.
    let tree = {
        let pool = WorkerPool::new(2);
        let domain = pool.domain();
        ProductTree::build(moduli, pool.exec_in(&domain)).unwrap()
    };

    let one = Natural::one();
    let mut scratch = DescentScratch::default();
    let mut out = Vec::new();

    // Pass 1: cold. Containers grow, the arena fills with limb buffers.
    tree.remainder_tree_cofactor_local_into(&one, &mut scratch, &mut out);
    let reference = out.clone();
    // Pass 2: unmeasured warm-up, so pass 1's buffers are already pooled
    // in their steady-state sizes.
    tree.remainder_tree_cofactor_local_into(&one, &mut scratch, &mut out);

    // Passes 3..6: steady state, armed. Zero allocations — per level, per
    // pass, total.
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..4 {
        tree.remainder_tree_cofactor_local_into(&one, &mut scratch, &mut out);
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        allocs,
        0,
        "steady-state cofactor descent over {} moduli hit the heap {allocs} times",
        moduli.len()
    );
    assert_eq!(out, reference, "warmed passes must stay byte-identical");
}

/// One test drives both trees in turn: the counter is process-global, so
/// the two measurements must not run on concurrent test threads.
#[test]
fn warmed_cofactor_descent_allocates_nothing() {
    assert_warmed_descent_allocates_nothing(&population(21, 0xa110c));
    assert_warmed_descent_allocates_nothing(&odd_moduli(64, 16, 0x1024));
}
