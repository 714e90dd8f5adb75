//! Product and remainder trees (Bernstein, "How to find smooth parts of
//! integers"), the two phases of batch GCD.
//!
//! * The **product tree** multiplies the inputs pairwise up a binary tree;
//!   the root is `P = Π N_i`.
//! * A **remainder tree** pushes a value `V` down the same tree, reducing
//!   it at every node. There is one descent per job:
//!   - the **cofactor descent**
//!     ([`remainder_tree_cofactor`](ProductTree::remainder_tree_cofactor))
//!     yields `(V/N_i) mod N_i` for any `V` the root divides. With `V = P`
//!     that is the quantity batch GCD needs: `gcd(N_i, (P/N_i) mod N_i)` is
//!     the product of the primes `N_i` shares with the other inputs;
//!   - the **plain descent**
//!     ([`remainder_tree_plain`](ProductTree::remainder_tree_plain)) yields
//!     `V mod N_i` for a foreign `V` — another subset's product, or a cached
//!     corpus product — which the leaves do not divide.
//!
//! Both descents keep every residue below its node, so no node is ever
//! squared. [`attach_cofactor_recips`](ProductTree::attach_cofactor_recips)
//! turns their reductions into Barrett steps; the leaves are byte-identical
//! either way.

use crate::pool::Exec;
use std::fmt;
use std::time::{Duration, Instant};
use wk_bigint::{arena, Natural, Reciprocal};

/// Why a product tree could not be built. Both conditions are caller bugs
/// in an in-memory run, but become reachable data errors once moduli stream
/// in from disk (a corrupt shard record can decode to zero), so they are
/// typed rather than panicking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// The input slice was empty; a product tree needs at least one leaf.
    EmptyInput,
    /// A modulus was zero — it would absorb the whole product and every
    /// leaf's `gcd(N_i, P/N_i)` with it.
    ZeroModulus {
        /// Position of the offending modulus in the input slice.
        index: usize,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::EmptyInput => write!(f, "product tree over empty input"),
            TreeError::ZeroModulus { index } => {
                write!(f, "zero modulus at index {index} in product tree input")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// A materialized product tree. `levels[0]` is the leaf level (the inputs);
/// the last level holds the single root.
///
/// Optionally carries per-node Barrett reciprocals (see
/// [`attach_cofactor_recips`](ProductTree::attach_cofactor_recips)) so the
/// remainder descents replace each Burnikel-Ziegler division with a Barrett
/// reduction — two multiplies plus at most two correction subtractions per
/// node.
#[derive(Clone, Debug)]
pub struct ProductTree {
    levels: Vec<Vec<Natural>>,
    /// Per-node reciprocals, level-aligned with `levels`; empty until
    /// [`attach_cofactor_recips`](ProductTree::attach_cofactor_recips)
    /// populates it.
    recips: Vec<Vec<Option<Reciprocal>>>,
}

impl ProductTree {
    /// Build the product tree over `moduli`, running each level's pair
    /// multiplies on `exec`'s work-stealing pool.
    ///
    /// # Errors
    /// [`TreeError::EmptyInput`] if `moduli` is empty,
    /// [`TreeError::ZeroModulus`] if any modulus is zero.
    pub fn build(moduli: &[Natural], exec: Exec<'_>) -> Result<ProductTree, TreeError> {
        Self::check_input(moduli)?;
        let mut levels = Vec::new();
        let mut current = moduli.to_vec();
        while current.len() > 1 {
            let next = exec.map_chunked(pair_level(&current), multiply_pair);
            levels.push(core::mem::replace(&mut current, next));
        }
        levels.push(current); // the single-node root level
        Ok(ProductTree::from_levels(levels))
    }

    /// Build the tree on the calling thread, no pool dispatch. The shard
    /// leaf phase uses this from inside an already-parallel shard task,
    /// where per-pair task dispatch would cost more than the small multiplies
    /// it schedules.
    ///
    /// # Errors
    /// Same conditions as [`build`](ProductTree::build).
    pub fn build_local(moduli: &[Natural]) -> Result<ProductTree, TreeError> {
        Self::check_input(moduli)?;
        let mut levels = Vec::new();
        let mut current = moduli.to_vec();
        while current.len() > 1 {
            let next = pair_level(&current)
                .into_iter()
                .map(multiply_pair)
                .collect();
            levels.push(core::mem::replace(&mut current, next));
        }
        levels.push(current);
        Ok(ProductTree::from_levels(levels))
    }

    fn check_input(moduli: &[Natural]) -> Result<(), TreeError> {
        if moduli.is_empty() {
            return Err(TreeError::EmptyInput);
        }
        if let Some(index) = moduli.iter().position(Natural::is_zero) {
            return Err(TreeError::ZeroModulus { index });
        }
        Ok(())
    }

    fn from_levels(levels: Vec<Vec<Natural>>) -> ProductTree {
        ProductTree {
            levels,
            recips: Vec::new(),
        }
    }

    /// The root product `Π N_i`.
    pub fn root(&self) -> &Natural {
        self.levels
            .last()
            .and_then(|top| top.first())
            // lint:allow(no-panic-in-lib) invariant: build() always ends by pushing a one-node root level
            .expect("a built ProductTree has a one-node top level")
    }

    /// Number of leaves (inputs).
    pub fn leaf_count(&self) -> usize {
        self.leaves().len()
    }

    /// The leaf level.
    pub fn leaves(&self) -> &[Natural] {
        self.levels.first().map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total size of all stored nodes in bytes (limb storage only) — the
    /// quantity the paper reports as 70-100 GB per cluster node (§3.2).
    pub fn total_bytes(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|level| level.iter())
            .map(|n| n.limb_len() * 8)
            .sum()
    }

    /// Precompute the plain per-node reciprocals driving the cofactor
    /// descent
    /// ([`remainder_tree_cofactor`](ProductTree::remainder_tree_cofactor)),
    /// sized by the canonical `V = root` (seed `1`) descent's value bounds:
    /// near the root the residues stay sibling-sized, so nodes whose
    /// reductions the bound chain proves trivial get no cache at all, and
    /// the rest get `mu` at exactly the precision their incoming values
    /// need (clamped to the `2m` fold capacity). Promoted odd nodes pass
    /// their residue through unreduced and the root only ever sees the
    /// seed, so neither is cached. Descents from larger foreign seeds stay
    /// correct — oversized values chunk-fold through the same reciprocals
    /// or fall back to division. Returns the wall-clock build time (the
    /// `recip_build_ns` metric).
    ///
    /// A later [`remainder_tree_plain`](ProductTree::remainder_tree_plain)
    /// descent over the same tree reuses these reciprocals (the incremental
    /// cross phase does exactly that).
    pub fn attach_cofactor_recips(&mut self, exec: Exec<'_>) -> Duration {
        let start = Instant::now();
        let top_level = self.levels.len() - 1;
        // Bound chain for the seed-1 descent, in bits: at node `u` with
        // sibling `s`, the first reduction sees the parent residue
        // (`b_v` bits) and the second sees `s * (first reduction)`.
        let mut bounds: Vec<Vec<u64>> = self.levels.iter().map(|l| vec![0; l.len()]).collect();
        if let Some(slot) = bounds[top_level].first_mut() {
            *slot = 1;
        }
        let mut jobs: Vec<(usize, usize, usize)> = Vec::new();
        for level_idx in (0..top_level).rev() {
            let width = self.levels[level_idx].len();
            for i in 0..width {
                let u_bits = self.levels[level_idx][i].bit_len();
                let b_v = bounds[level_idx + 1][i / 2];
                let sib = i ^ 1;
                if sib >= width {
                    bounds[level_idx][i] = b_v.min(u_bits);
                    continue;
                }
                let t_bound = b_v.min(u_bits);
                let prod_bound = self.levels[level_idx][sib].bit_len() + t_bound;
                bounds[level_idx][i] = prod_bound.min(u_bits);
                let needed_bits = match (b_v > u_bits, prod_bound > u_bits) {
                    (true, _) => b_v.max(prod_bound),
                    (false, true) => prod_bound,
                    (false, false) => continue,
                };
                let m = self.levels[level_idx][i].limb_len();
                let cap = (needed_bits.div_ceil(64) as usize).min(2 * m);
                jobs.push((level_idx, i, cap));
            }
        }
        let levels = &self.levels;
        let computed = exec.map_chunked(jobs, |(level_idx, i, cap)| {
            Reciprocal::with_capacity(&levels[level_idx][i], cap)
                .ok()
                .map(|recip| (level_idx, i, recip))
        });
        let mut recips: Vec<Vec<Option<Reciprocal>>> =
            self.levels.iter().map(|l| vec![None; l.len()]).collect();
        for (level_idx, i, recip) in computed.into_iter().flatten() {
            recips[level_idx][i] = Some(recip);
        }
        self.recips = recips;
        start.elapsed()
    }

    /// Bytes held by the attached reciprocals, on top of
    /// [`total_bytes`](ProductTree::total_bytes).
    pub fn cache_bytes(&self) -> usize {
        self.recips
            .iter()
            .flatten()
            .flatten()
            .map(Reciprocal::bytes)
            .sum()
    }

    /// One plain reduction: `pv mod node`, via comparison, Barrett, or
    /// division.
    fn reduce_plain(&self, pv: &Natural, level_idx: usize, i: usize) -> (Natural, Duration) {
        let node = &self.levels[level_idx][i];
        if pv < node {
            return (arena::clone_natural(pv), Duration::ZERO);
        }
        if let Some(recip) = self
            .recips
            .get(level_idx)
            .and_then(|l| l.get(i))
            .and_then(Option::as_ref)
        {
            let start = Instant::now();
            if let Ok(r) = pv.barrett_rem(node, recip) {
                return (r, start.elapsed());
            }
        }
        (pv % node, Duration::ZERO)
    }

    /// Shared descent driver: reduce `value` modulo the root, then apply
    /// `reduce` level by level down to the leaves. Parent buffers move into
    /// their last child's task (only first children clone), and wide levels
    /// dispatch in contiguous chunks. Returns the leaves and the summed
    /// Barrett time.
    fn descend<R>(&self, value: &Natural, exec: Exec<'_>, reduce: &R) -> (Vec<Natural>, Duration)
    where
        R: Fn(&Natural, usize, usize) -> (Natural, Duration) + Sync,
    {
        let top_level = self.levels.len() - 1;
        let (root_val, mut barrett) = self.reduce_plain(value, top_level, 0);
        let mut current = vec![root_val];
        for level_idx in (0..top_level).rev() {
            let width = self.levels[level_idx].len();
            let mut tasks: Vec<(Natural, usize)> = Vec::with_capacity(width);
            for i in 0..width {
                let p = i / 2;
                let pv = if i % 2 == 0 && i + 1 < width {
                    arena::clone_natural(&current[p])
                } else {
                    core::mem::replace(&mut current[p], Natural::zero())
                };
                tasks.push((pv, i));
            }
            let reduced = exec.map_chunked(tasks, |(pv, i)| {
                let out = reduce(&pv, level_idx, i);
                // The consumed parent residue goes back to the arena of the
                // worker that just reduced it — the next level's reductions
                // on this thread draw from it.
                arena::recycle(pv);
                out
            });
            current = Vec::with_capacity(width);
            for (v, d) in reduced {
                barrett += d;
                current.push(v);
            }
        }
        (current, barrett)
    }

    /// Compute `value mod leaf_i` for every leaf. This is the descent for
    /// values the leaves do not divide: the distributed variant's foreign
    /// subset products and the incremental cross phase's cached corpus
    /// product. Each node reduces by exact division, or by a Barrett step
    /// where [`attach_cofactor_recips`](ProductTree::attach_cofactor_recips)
    /// cached a reciprocal.
    pub fn remainder_tree_plain(&self, value: &Natural, exec: Exec<'_>) -> Vec<Natural> {
        self.remainder_tree_plain_timed(value, exec).0
    }

    /// [`remainder_tree_plain`](ProductTree::remainder_tree_plain) with the
    /// summed Barrett-reduction time.
    pub fn remainder_tree_plain_timed(
        &self,
        value: &Natural,
        exec: Exec<'_>,
    ) -> (Vec<Natural>, Duration) {
        self.descend(value, exec, &|pv, l, i| self.reduce_plain(pv, l, i))
    }

    /// One step of the cofactor recurrence. For a node `u` with sibling `s`
    /// under parent `v = u * s`, the parent's cofactor residue
    /// `r_v = (V/v) mod v` maps to `r_u = (s * (r_v mod u)) mod u`, because
    /// `V/u = (V/v) * s`. A promoted odd node is its own parent, so its
    /// residue passes through unchanged (the comparison in
    /// [`reduce_plain`](ProductTree::reduce_plain) short-circuits it).
    fn reduce_cofactor(&self, pv: &Natural, level_idx: usize, i: usize) -> (Natural, Duration) {
        let (t, d1) = self.reduce_plain(pv, level_idx, i);
        let sib = i ^ 1;
        if sib >= self.levels[level_idx].len() {
            return (t, d1);
        }
        let prod = &self.levels[level_idx][sib] * &t;
        arena::recycle(t);
        let (r, d2) = self.reduce_plain(&prod, level_idx, i);
        arena::recycle(prod);
        (r, d1 + d2)
    }

    /// Compute `(V/leaf_i) mod leaf_i` for every leaf, for any `V` the root
    /// product divides, given only `cofactor_rem = (V/root) mod root` — the
    /// cofactor form of the remainder tree (after Bernstein's scaled
    /// remainder tree). The conventional `V = root` descent passes
    /// `cofactor_rem = 1`.
    ///
    /// Every intermediate residue is bounded by its *node*, and the leaf
    /// values are exactly the `(V/N) mod N` the gcd stage consumes. Attach
    /// [`attach_cofactor_recips`](ProductTree::attach_cofactor_recips) first
    /// to run every non-trivial reduction as a Barrett step; results are
    /// byte-identical either way.
    pub fn remainder_tree_cofactor(&self, cofactor_rem: &Natural, exec: Exec<'_>) -> Vec<Natural> {
        self.remainder_tree_cofactor_timed(cofactor_rem, exec).0
    }

    /// [`remainder_tree_cofactor`](ProductTree::remainder_tree_cofactor)
    /// with the summed Barrett-reduction time.
    pub fn remainder_tree_cofactor_timed(
        &self,
        cofactor_rem: &Natural,
        exec: Exec<'_>,
    ) -> (Vec<Natural>, Duration) {
        self.descend(cofactor_rem, exec, &|pv, l, i| {
            self.reduce_cofactor(pv, l, i)
        })
    }

    /// Consume the tree and return every node's limb buffer to the thread
    /// arena. For passes that build many same-shaped trees in sequence —
    /// the shard leaf phase builds one per shard on the claiming worker —
    /// the next tree's nodes then come out of the pool instead of the heap.
    /// Attached reciprocal caches are dropped normally (their buffers are
    /// reciprocal-sized, not node-shaped).
    pub fn recycle(self) {
        for level in self.levels {
            for node in level {
                arena::recycle(node);
            }
        }
    }

    /// Cofactor descent on the calling thread, no pool dispatch — the
    /// shard-leaf counterpart of
    /// [`remainder_tree_cofactor`](ProductTree::remainder_tree_cofactor).
    /// The enclosing tree's cofactor descent hands each shard exactly the
    /// `(P/root) mod root` seed this wants.
    pub fn remainder_tree_cofactor_local(&self, cofactor_rem: &Natural) -> Vec<Natural> {
        let mut scratch = DescentScratch::default();
        let mut out = Vec::new();
        self.remainder_tree_cofactor_local_into(cofactor_rem, &mut scratch, &mut out);
        out
    }

    /// [`remainder_tree_cofactor_local`](ProductTree::remainder_tree_cofactor_local)
    /// writing into caller-owned buffers. `scratch` holds the per-level
    /// residue containers and `out` receives the leaf residues; both keep
    /// their capacity across calls, and every `Natural` they held from a
    /// previous pass is recycled through the arena on entry. A warmed
    /// (second and later) pass over same-shaped shards therefore performs
    /// no heap allocation — the property the `zero_alloc` test pins.
    pub fn remainder_tree_cofactor_local_into(
        &self,
        cofactor_rem: &Natural,
        scratch: &mut DescentScratch,
        out: &mut Vec<Natural>,
    ) {
        let top_level = self.levels.len() - 1;
        scratch.reset();
        for dead in out.drain(..) {
            arena::recycle(dead);
        }
        scratch
            .cur
            .push(self.reduce_plain(cofactor_rem, top_level, 0).0);
        for level_idx in (0..top_level).rev() {
            let width = self.levels[level_idx].len();
            for i in 0..width {
                let r = self.reduce_cofactor(&scratch.cur[i / 2], level_idx, i).0;
                scratch.next.push(r);
            }
            for dead in scratch.cur.drain(..) {
                arena::recycle(dead);
            }
            core::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
        out.append(&mut scratch.cur);
    }
}

/// Reusable level buffers for the local (in-task) descents. Holding one of
/// these across shards lets
/// [`remainder_tree_cofactor_local_into`](ProductTree::remainder_tree_cofactor_local_into)
/// run without container allocation once warmed; the `Natural`s inside are
/// recycled through the limb arena between passes, never stored beyond one
/// descent (the `arena-discipline` lint's struct rule).
#[derive(Default)]
pub struct DescentScratch {
    cur: Vec<Natural>,
    next: Vec<Natural>,
}

impl DescentScratch {
    /// Recycle any held residues and empty both buffers, keeping capacity.
    fn reset(&mut self) {
        for dead in self.cur.drain(..) {
            arena::recycle(dead);
        }
        for dead in self.next.drain(..) {
            arena::recycle(dead);
        }
    }
}

/// Pair up adjacent nodes of one level: `[a, b, c]` becomes
/// `[(a, Some(b)), (c, None)]`. Shared by the product-tree builders and the
/// incremental cache's chunk products.
pub(crate) fn pair_level(level: &[Natural]) -> Vec<(Natural, Option<Natural>)> {
    level
        .chunks(2)
        .filter_map(|pair| {
            pair.split_first()
                .map(|(a, rest)| (a.clone(), rest.first().cloned()))
        })
        .collect()
}

/// Combine one paired entry: multiply, or promote an unpaired odd node.
pub(crate) fn multiply_pair((a, b): (Natural, Option<Natural>)) -> Natural {
    match b {
        Some(b) => &a * &b,
        None => a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;

    /// Sequential single-slot pool for the deterministic tests.
    fn seq() -> WorkerPool {
        WorkerPool::new(1)
    }

    fn nat(v: u128) -> Natural {
        Natural::from(v)
    }

    /// `count` odd moduli of exactly `limbs` limbs each.
    fn pseudo_moduli(count: usize, limbs: usize, seed: u64) -> Vec<Natural> {
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

    #[test]
    fn root_is_product() {
        let moduli = vec![nat(3), nat(5), nat(7), nat(11)];
        let tree = ProductTree::build(&moduli, seq().exec()).unwrap();
        assert_eq!(tree.root(), &nat(3 * 5 * 7 * 11));
        assert_eq!(tree.leaf_count(), 4);
    }

    #[test]
    fn odd_leaf_count_promotes() {
        let moduli = vec![nat(2), nat(3), nat(5)];
        let tree = ProductTree::build(&moduli, seq().exec()).unwrap();
        assert_eq!(tree.root(), &nat(30));
    }

    #[test]
    fn single_leaf() {
        let tree = ProductTree::build(&[nat(42)], seq().exec()).unwrap();
        assert_eq!(tree.root(), &nat(42));
        let r = tree.remainder_tree_plain(&nat(100), seq().exec());
        assert_eq!(r, vec![nat(100 % 42)]);
        let r = tree.remainder_tree_cofactor(&Natural::one(), seq().exec());
        assert_eq!(r, vec![Natural::one()]);
    }

    #[test]
    fn remainder_tree_matches_direct() {
        // 8-limb leaves, so every node the plain descent reduces spans at
        // least 8 limbs. 2/3 leaves: split shapes incl. the promoted odd
        // node. 13/16: ragged and balanced interiors.
        let foreign_tree = ProductTree::build(&pseudo_moduli(5, 8, 77), seq().exec()).unwrap();
        let foreign = foreign_tree.root();
        for n in [2usize, 3, 13, 16] {
            let moduli = pseudo_moduli(n, 8, 4242);
            let mut tree = ProductTree::build(&moduli, seq().exec()).unwrap();
            let values = [tree.root().clone(), foreign.clone(), foreign * foreign];
            // Exact division first, then the Barrett steps the cofactor
            // reciprocals enable (the incremental cross phase's path).
            for with_recips in [false, true] {
                if with_recips {
                    tree.attach_cofactor_recips(seq().exec());
                }
                for v in &values {
                    let rems = tree.remainder_tree_plain(v, seq().exec());
                    for (m, r) in moduli.iter().zip(&rems) {
                        assert_eq!(r, &(v % m), "n={n} recips={with_recips}");
                    }
                }
            }
        }
    }

    #[test]
    fn remainder_tree_plain_matches_direct() {
        let moduli = pseudo_moduli(9, 1, 1234);
        let tree = ProductTree::build(&moduli, seq().exec()).unwrap();
        let external = nat(0xdead_beef_cafe_f00d_1234u128);
        let rems = tree.remainder_tree_plain(&external, seq().exec());
        for (m, r) in moduli.iter().zip(rems.iter()) {
            assert_eq!(r, &(&external % m));
        }
    }

    #[test]
    fn cofactor_descent_matches_direct() {
        // 1 leaf: degenerate pass-through. 2/3: split shapes incl. the
        // promoted odd node. 13/16: balanced and ragged interior shapes.
        for n in [1usize, 2, 3, 13, 16] {
            let moduli = pseudo_moduli(n, 1, 4242);
            let mut tree = ProductTree::build(&moduli, seq().exec()).unwrap();
            tree.attach_cofactor_recips(seq().exec());
            let root = tree.root().clone();
            // V = root: r_i = (P/N_i) mod N_i.
            let rems = tree.remainder_tree_cofactor(&Natural::one(), seq().exec());
            let local = tree.remainder_tree_cofactor_local(&Natural::one());
            assert_eq!(rems, local);
            for (m, r) in moduli.iter().zip(rems.iter()) {
                let (cof, rem) = root.div_rem(m);
                assert!(rem.is_zero());
                assert_eq!(r, &(&cof % m));
            }
            // V = 7 * root: seed is the foreign cofactor 7 mod root.
            let v = &root * &nat(7);
            let seed = &nat(7) % &root;
            let rems = tree.remainder_tree_cofactor(&seed, seq().exec());
            for (m, r) in moduli.iter().zip(rems.iter()) {
                let (cof, rem) = v.div_rem(m);
                assert!(rem.is_zero());
                assert_eq!(r, &(&cof % m));
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let moduli = pseudo_moduli(31, 2, 5);
        let pool1 = seq();
        let pool4 = WorkerPool::new(4);
        let t1 = ProductTree::build(&moduli, pool1.exec()).unwrap();
        let t4 = ProductTree::build(&moduli, pool4.exec()).unwrap();
        assert_eq!(t1.root(), t4.root());
        let one = Natural::one();
        let r1 = t1.remainder_tree_cofactor(&one, pool1.exec());
        let r4 = t4.remainder_tree_cofactor(&one, pool4.exec());
        assert_eq!(r1, r4);
        let foreign = &(t1.root() * t1.root()) + &one;
        let r1 = t1.remainder_tree_plain(&foreign, pool1.exec());
        let r4 = t4.remainder_tree_plain(&foreign, pool4.exec());
        assert_eq!(r1, r4);
    }

    #[test]
    fn total_bytes_positive_and_superlinear_in_input() {
        let moduli = pseudo_moduli(16, 1, 77);
        let tree = ProductTree::build(&moduli, seq().exec()).unwrap();
        let leaf_bytes: usize = moduli.iter().map(|m| m.limb_len() * 8).sum();
        assert!(
            tree.total_bytes() > leaf_bytes,
            "tree stores interior nodes"
        );
    }

    #[test]
    fn empty_input_is_typed_error() {
        let err = ProductTree::build(&[], seq().exec()).unwrap_err();
        assert_eq!(err, TreeError::EmptyInput);
        assert!(err.to_string().contains("empty input"));
    }

    #[test]
    fn zero_modulus_is_typed_error() {
        let err = ProductTree::build(&[nat(5), Natural::zero()], seq().exec()).unwrap_err();
        assert_eq!(err, TreeError::ZeroModulus { index: 1 });
        assert!(err.to_string().contains("index 1"));
    }
}
