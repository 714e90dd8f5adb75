//! Per-thread limb-buffer arenas: recycled `Vec<u64>` storage for the hot
//! multiply / reduce / divide kernels.
//!
//! The batch-GCD descent performs millions of small-to-medium bignum
//! operations whose intermediate buffers live for exactly one tree node.
//! Allocating each from the global heap makes the descent an allocator
//! benchmark; this module gives every thread a pool of reusable limb
//! buffers with checkout/return semantics:
//!
//! * [`take`] — check a cleared buffer out of the calling thread's pool
//!   (or allocate fresh on a miss);
//! * [`put`] — return a buffer to the pool for the next checkout;
//! * [`recycle`] — return a [`Natural`]'s backing storage once the value
//!   is dead;
//! * [`take_workspace`] / [`put_workspace`] — the one buffer a thread's
//!   NTT splits into its transform buffers and twiddle table.
//!
//! Buffers come in size classes (`2^k` and `3·2^k` limbs) and a request
//! takes a buffer of exactly its class, so a pass that repeats a fixed
//! sequence of requests finds every buffer in the pool from its second run
//! on, and a long-lived value never parks in a larger buffer. The kernels
//! in `mul`, `ntt`, `div`, `recip`, and `gcd` route their scratch and
//! result buffers through the arena, so a warmed pool runs the whole
//! remainder descent — the Newton seed, the NTT middle products, the leaf
//! rounding — without touching the heap (pinned by the counting-allocator
//! test in `wk-batchgcd` at 256 and 1024 bits). Ownership discipline —
//! every checkout returned on all paths, no arena buffer parked in a
//! long-lived struct — is enforced by the `arena-discipline` lint rule.
//!
//! The pool is deliberately bounded, so what it holds never raises a run's
//! memory peak by much: at most [`POOL_SLOTS`] buffers and [`POOL_LIMBS`]
//! limbs per thread, none above [`POOL_BUFFER_LIMBS`]; past those it drops
//! buffers of the size class returned to least recently. A request above [`POOL_BUFFER_LIMBS`] comes from the top
//! of a tree, where the process is at its peak, and releases the whole
//! pool. The workspace is kept between transforms up to
//! [`WORKSPACE_LIMBS`]. The free list itself is pre-sized at thread init
//! and never grows, keeping [`put`] itself allocation-free.
//!
//! Counters are process-global atomics so callers in other crates can
//! report `alloc_events` / `arena_hit_ratio` without threading state
//! through every kernel; see [`stats`] and [`ArenaStats::delta_since`].

use crate::natural::Natural;
use core::cell::{Cell, RefCell};
use core::sync::atomic::{AtomicU64, Ordering};

/// Maximum buffers a thread's pool retains; a return beyond this drops a
/// buffer of the least recently returned class. The 64 leaf residues of a capacity-64 shard descent plus the
/// kernels' scratch fit with headroom.
pub const POOL_SLOTS: usize = 256;

/// Checkouts served from the pool with adequate capacity.
static HITS: AtomicU64 = AtomicU64::new(0);
/// Checkouts that had to touch the heap: no pooled buffer of the size
/// class, or a workspace larger than the one held.
static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Largest buffer (limbs) the pool retains; a larger return is dropped and
/// a larger request releases the pool.
pub const POOL_BUFFER_LIMBS: usize = 1 << 12;

/// Most limbs a thread's pool retains across all its buffers (192 KiB); a
/// return that would push the pool past it drops buffers of the least
/// recently returned classes. A warmed descent over a capacity-64 shard of
/// 1024-bit moduli fits (2^14 limbs does not).
pub const POOL_LIMBS: usize = 3 << 13;

/// Largest transform workspace (limbs, 64 KiB) a thread keeps between
/// transforms: every transform of a capacity-64 shard's descent reuses it,
/// and the few larger ones near a big tree's root allocate and free their
/// own. Keeping those too raised peak memory.
pub const WORKSPACE_LIMBS: usize = 1 << 13;

/// Size classes up to [`POOL_BUFFER_LIMBS`] (a power of two): 1, 2, 3, 4,
/// 6, …, `POOL_BUFFER_LIMBS`.
const CLASSES: usize = 2 * POOL_BUFFER_LIMBS.trailing_zeros() as usize;

/// A thread's pooled buffers: one LIFO stack per size class.
struct Pool {
    stacks: [Vec<Vec<u64>>; CLASSES],
    /// When each class last received a buffer, on the `returns` clock.
    touched: [u64; CLASSES],
    returns: u64,
    /// Buffers and limbs held across all stacks.
    buffers: usize,
    held: usize,
}

impl Pool {
    fn new() -> Pool {
        Pool {
            stacks: Default::default(),
            touched: [0; CLASSES],
            returns: 0,
            buffers: 0,
            held: 0,
        }
    }

    /// Drop a buffer of the class returned to least recently; `false`
    /// when the pool is empty.
    fn evict(&mut self) -> bool {
        let oldest = (0..CLASSES)
            .filter(|&c| !self.stacks[c].is_empty())
            .min_by_key(|&c| self.touched[c]);
        let Some(old) = oldest.and_then(|c| self.stacks[c].pop()) else {
            return false;
        };
        self.buffers -= 1;
        self.held -= old.capacity();
        true
    }
}

thread_local! {
    /// The calling thread's transform workspace (see [`take_workspace`]).
    static WORKSPACE: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
    /// The calling thread's pool.
    static POOL: RefCell<Pool> = RefCell::new(Pool::new());
}

/// Snapshot of the process-wide arena counters (monotonic; diff two
/// snapshots with [`delta_since`](ArenaStats::delta_since) to meter one
/// phase).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Checkouts served from a pooled buffer of adequate capacity.
    pub hits: u64,
    /// Checkouts that allocated (or will grow) heap storage.
    pub alloc_events: u64,
}

impl ArenaStats {
    /// Total checkouts.
    pub fn checkouts(&self) -> u64 {
        self.hits + self.alloc_events
    }

    /// Fraction of checkouts served without touching the heap; 1.0 for an
    /// idle arena (no checkouts yet).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.checkouts();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter movement since an earlier snapshot (saturating, so a
    /// snapshot from a different process epoch degrades to zeros rather
    /// than nonsense).
    pub fn delta_since(&self, earlier: &ArenaStats) -> ArenaStats {
        ArenaStats {
            hits: self.hits.saturating_sub(earlier.hits),
            alloc_events: self.alloc_events.saturating_sub(earlier.alloc_events),
        }
    }
}

/// Current process-wide arena counters.
pub fn stats() -> ArenaStats {
    ArenaStats {
        hits: HITS.load(Ordering::Relaxed),
        alloc_events: ALLOC_EVENTS.load(Ordering::Relaxed),
    }
}

/// The size class of a request, as its index and capacity: the smallest
/// `2^k` or `3·2^k` holding `limbs`. Every pooled buffer has exactly a
/// class capacity, so a request wastes at most a third of its buffer.
fn class_of(limbs: usize) -> (usize, usize) {
    let limbs = limbs.max(1);
    let two = limbs.next_power_of_two();
    let k = two.trailing_zeros() as usize;
    let three = 3 * (two / 4);
    if three >= limbs {
        (2 * k - 2, three)
    } else if k == 0 {
        (0, 1)
    } else {
        (2 * k - 1, two)
    }
}

/// Check a limb buffer out of the calling thread's pool. The returned
/// buffer is empty (`len == 0`); its capacity is at least `min_limbs` —
/// the request's size class, up to [`POOL_BUFFER_LIMBS`].
///
/// A request takes the most recently returned buffer of exactly its class
/// or, on a miss, allocates one. So a pass that repeats a fixed sequence
/// of requests finds every buffer it needs in the pool from its second
/// run on: the first run left, for each class, as many buffers as it ever
/// held at once. A small request never takes the large buffer a later one
/// needs, and a long-lived value (a product-tree node) never parks in a
/// transform's scratch.
///
/// Pair every `take` with a [`put`] (directly, or via [`recycle`] once the
/// buffer has become a [`Natural`]) — the `arena-discipline` lint rule
/// checks this pairing in the hot crates.
pub fn take(min_limbs: usize) -> Vec<u64> {
    if min_limbs > POOL_BUFFER_LIMBS {
        // The pool holds nothing this large. Such a request comes from the
        // few largest operations of a run (the top of a product or
        // remainder tree), where the process is at its memory peak, so the
        // pool's idle buffers are released rather than held through it.
        release();
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        return Vec::with_capacity(min_limbs);
    }
    let (class, capacity) = class_of(min_limbs);
    let reused = POOL.with(|pool| {
        // A panic can never be in flight here (no reentrancy: the pool
        // borrow spans only this closure, which calls nothing that takes
        // it again), but try_borrow keeps the failure mode "allocate
        // fresh" rather than a poisoned-RefCell panic.
        let mut pool = pool.try_borrow_mut().ok()?;
        let buf = pool.stacks[class].pop()?;
        pool.buffers -= 1;
        pool.held -= capacity;
        Some(buf)
    });
    match reused {
        Some(buf) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            buf
        }
        None => {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
            Vec::with_capacity(capacity)
        }
    }
}

/// Drop every buffer in the calling thread's pool.
fn release() {
    POOL.with(|pool| {
        if let Ok(mut pool) = pool.try_borrow_mut() {
            pool.stacks.iter_mut().for_each(Vec::clear);
            pool.buffers = 0;
            pool.held = 0;
        }
    });
}

/// Return a buffer to the calling thread's pool. Contents are cleared.
/// A buffer is dropped instead when its capacity is not a size class (it
/// was grown past its checkout, or allocated elsewhere) or is above
/// [`POOL_BUFFER_LIMBS`]. A pool past [`POOL_SLOTS`] buffers or
/// [`POOL_LIMBS`] limbs drops buffers of the class returned to least
/// recently, so classes a run no longer asks for age out instead of
/// filling the pool. Each class's stack keeps the largest capacity it has
/// needed, so a warmed `put` never allocates.
pub fn put(mut buf: Vec<u64>) {
    let capacity = buf.capacity();
    if capacity == 0 || capacity > POOL_BUFFER_LIMBS {
        return;
    }
    let (class, class_capacity) = class_of(capacity);
    if class_capacity != capacity {
        return;
    }
    buf.clear();
    POOL.with(|pool| {
        if let Ok(mut pool) = pool.try_borrow_mut() {
            pool.stacks[class].push(buf);
            pool.returns += 1;
            pool.touched[class] = pool.returns;
            pool.buffers += 1;
            pool.held += capacity;
            while (pool.buffers > POOL_SLOTS || pool.held > POOL_LIMBS) && pool.evict() {}
        }
    });
}

/// Check out the calling thread's transform workspace: one buffer of at
/// least `limbs` limbs (its length, contents unspecified) that the NTT
/// splits into its transform buffers and twiddle table. A thread keeps the
/// largest workspace it has used, up to [`WORKSPACE_LIMBS`], so after the
/// first transform of each size every later one finds it ready: the
/// transforms neither touch the heap nor churn large blocks through the
/// allocator. Pair with [`put_workspace`].
pub fn take_workspace(limbs: usize) -> Vec<u64> {
    let held = WORKSPACE.take();
    if held.len() >= limbs {
        HITS.fetch_add(1, Ordering::Relaxed);
        return held;
    }
    ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
    if limbs > WORKSPACE_LIMBS {
        WORKSPACE.set(held);
        return vec![0; limbs];
    }
    // Grown in place rather than freed and allocated again: freeing a
    // large block makes the allocator serve every smaller request from its
    // heap, which then holds far more than the live data.
    let mut grown = held;
    grown.resize(limbs, 0);
    grown
}

/// Return a workspace from [`take_workspace`]. The thread keeps the larger
/// of it and the one it holds, unless it is above [`WORKSPACE_LIMBS`].
pub fn put_workspace(workspace: Vec<u64>) {
    if workspace.len() > WORKSPACE_LIMBS {
        return;
    }
    let held = WORKSPACE.take();
    WORKSPACE.set(if held.len() >= workspace.len() {
        held
    } else {
        workspace
    });
}

/// Return a dead [`Natural`]'s backing buffer to the pool. The idiomatic
/// way for callers outside this crate (the remainder descent recycles each
/// parent residue once both children are reduced).
pub fn recycle(n: Natural) {
    put(n.into_limbs());
}

/// Check out a buffer and wrap `src`'s limbs in it — an allocation-free
/// `clone` when the pool is warm. The copy is normalized by construction
/// (`src` is).
pub fn clone_natural(src: &Natural) -> Natural {
    let mut buf = take(src.limb_len());
    buf.extend_from_slice(src.limbs());
    Natural::from_limbs(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_roundtrip_hits() {
        let before = stats();
        let mut b = take(32);
        assert!(b.is_empty());
        b.resize(32, 7);
        put(b);
        // 25 limbs round up to the same 32-limb size class.
        let b2 = take(25);
        assert!(b2.is_empty(), "returned buffers are cleared");
        assert!(b2.capacity() >= 32);
        put(b2);
        let after = stats();
        assert!(after.checkouts() >= before.checkouts() + 2);
        assert!(after.hits > before.hits, "second take must hit the pool");
    }

    #[test]
    fn undersized_pool_counts_alloc_event() {
        // Drain this thread's pool of large buffers first.
        let mut drained = Vec::new();
        for _ in 0..POOL_SLOTS {
            drained.push(take(1));
        }
        let before = stats();
        let b = take(1 << 20);
        assert!(b.capacity() >= 1 << 20);
        let after = stats();
        assert!(after.alloc_events > before.alloc_events);
        put(b);
        for d in drained {
            put(d);
        }
    }

    #[test]
    fn recycle_then_clone_natural_reuses() {
        let n = Natural::from(0xdead_beef_u64);
        let c = clone_natural(&n);
        assert_eq!(c, n);
        recycle(c);
        let before = stats();
        let c2 = clone_natural(&n);
        assert_eq!(c2, n);
        assert!(stats().hits > before.hits);
        recycle(c2);
    }

    #[test]
    fn size_classes_are_the_smallest_power_or_three_powers() {
        let classes: Vec<(usize, usize)> = [0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 3072, 3073, 4096]
            .into_iter()
            .map(class_of)
            .collect();
        assert_eq!(
            classes,
            [
                (0, 1),
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 6),
                (5, 8),
                (5, 8),
                (6, 12),
                (7, 16),
                (22, 3072),
                (23, 4096),
                (23, 4096)
            ]
        );
        assert_eq!(class_of(POOL_BUFFER_LIMBS).0, CLASSES - 1);
    }

    #[test]
    fn hit_ratio_bounds() {
        let s = ArenaStats {
            hits: 3,
            alloc_events: 1,
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(ArenaStats::default().hit_ratio(), 1.0);
        let earlier = ArenaStats {
            hits: 1,
            alloc_events: 1,
        };
        let d = s.delta_since(&earlier);
        assert_eq!(
            d,
            ArenaStats {
                hits: 2,
                alloc_events: 0
            }
        );
    }
}
