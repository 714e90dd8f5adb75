//! Product and remainder trees (Bernstein, "How to find smooth parts of
//! integers"), the two phases of batch GCD.
//!
//! * The **product tree** multiplies the inputs pairwise up a binary tree;
//!   the root is `P = Π N_i`.
//! * A **remainder tree** pushes a value `V` down the same tree. There is
//!   one descent and two jobs:
//!   - the **cofactor job**
//!     ([`remainder_tree_cofactor`](ProductTree::remainder_tree_cofactor))
//!     yields `(V/N_i) mod N_i` for any `V` the root divides. With `V = P`
//!     that is the quantity batch GCD needs: `gcd(N_i, (P/N_i) mod N_i)` is
//!     the product of the primes `N_i` shares with the other inputs;
//!   - the **plain job** ([`Descent::Plain`], run through
//!     [`remainder_trees`](ProductTree::remainder_trees)) yields
//!     `V mod N_i` for a foreign `V` — another subset's product, or a value
//!     congruent to the cached corpus product mod this tree's root — which
//!     the leaves do not divide.
//!
//! The descent is Bernstein's scaled remainder tree ("Scaled remainder
//! trees", 2004). Each node `u` carries a fixed-point image
//! `Z_u ≈ frac(V/u^e)·β^k_u` (`β = 2^64`; `e = 2` for the cofactor job,
//! `e = 1` for the plain one), and a child's image is one middle product
//! ([`Natural::mul_middle`]) of its parent's image by its sibling's `e`-th
//! power: `V/u^e = (V/v^e)·s^e` for `v = u·s`. Only the root's seed takes a
//! Newton inverse (and, for a value more than twice the root's length, one
//! exact reduction); below it nothing divides. A leaf rounds
//! `N·Z_N / β^k_N` to the exact residue. DESIGN.md §9.2 gives the
//! precision formula and the error budget.

use crate::pool::Exec;
use std::fmt;
use wk_bigint::{arena, invert_newton, Natural};

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
#[derive(Clone, Debug)]
pub struct ProductTree {
    levels: Vec<Vec<Natural>>,
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
        Ok(ProductTree { levels })
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
        Ok(ProductTree { levels })
    }

    pub(crate) fn check_input(moduli: &[Natural]) -> Result<(), TreeError> {
        if moduli.is_empty() {
            return Err(TreeError::EmptyInput);
        }
        if let Some(index) = moduli.iter().position(Natural::is_zero) {
            return Err(TreeError::ZeroModulus { index });
        }
        Ok(())
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

    /// Bytes held on top of [`total_bytes`](ProductTree::total_bytes):
    /// always `0`, since a tree stores nothing beside its nodes. It stays
    /// for the callers that still add it to `total_bytes`.
    pub fn cache_bytes(&self) -> usize {
        0
    }

    /// The leaves under node `i` of `level`: node `i` covers leaves
    /// `[i·2^level, (i + 1)·2^level)`, clipped to the leaf count, because
    /// pairing is always adjacent and an odd last node is promoted.
    fn leaf_span(&self, level: usize, i: usize) -> &[Natural] {
        let leaves = self.leaves();
        let start = (i << level).min(leaves.len());
        let end = ((i + 1) << level).min(leaves.len());
        &leaves[start..end]
    }

    /// The precision `k_u` in limbs of node `u`'s image for a job of power
    /// `e`: `e·nom(u) − (e − 1)·minleaf(u) + GUARD_LIMBS`, where `nom(u)` is
    /// the summed limb length of the leaves under `u` and `minleaf(u)` the
    /// shortest of them. A child then has `k_v − k_u ≥ e·len(s)`, so the
    /// sibling power never amplifies the parent's error, and a leaf `N`
    /// gets `len(N) + GUARD_LIMBS`, exactly what its rounding needs.
    fn precision(&self, e: usize, level: usize, i: usize) -> usize {
        let span = self.leaf_span(level, i);
        let nom: usize = span.iter().map(Natural::limb_len).sum();
        let min = span.iter().map(Natural::limb_len).min().unwrap_or(0);
        e * nom - (e - 1) * min + GUARD_LIMBS
    }

    /// `job`'s value reduced by the root when it is more than twice the
    /// root's length, or `None` when it seeds the image as it is. A foreign
    /// value many times the root takes this one exact reduction, so the
    /// root's inverse stays at the root's own size.
    fn seed_value(&self, job: Descent<'_>) -> Option<Natural> {
        let (root, value) = (self.root(), job.value());
        (value.limb_len() > 2 * root.limb_len()).then(|| {
            let (q, r) = value.div_rem(root);
            arena::recycle(q);
            r
        })
    }

    /// The precision `k` of `job`'s root image and the limbs
    /// `K ≥ k + len(x) + 1` of the inverse `⌊β^K / R⌋` of the root `R` it
    /// needs for a seed value `x`: with those, the inverse's few units of
    /// error move the image by less than one unit.
    fn seed_limbs(&self, job: Descent<'_>) -> (usize, usize) {
        let k = self.precision(job.power(), self.levels.len() - 1, 0);
        let root = self.root().limb_len();
        let x = job.value().limb_len();
        let x = if x > 2 * root { root } else { x };
        (k, k + x + 1)
    }

    /// `Z_R ≈ frac(x / R)·β^k` for `job`, `R` the root: the `k` limbs of
    /// `x·⌊β^cap / R⌋` just below limb `cap`.
    fn root_image(&self, job: Descent<'_>, inverse: &Natural, cap: usize) -> Natural {
        let (k, _) = self.seed_limbs(job);
        match self.seed_value(job) {
            Some(x) => {
                let image = x.mul_middle(inverse, cap - k, k);
                arena::recycle(x);
                image
            }
            None => job.value().mul_middle(inverse, cap - k, k),
        }
    }

    /// The images of the children of node `j` at `level + 1`, from its
    /// image `z`, which goes back to the arena as soon as both children no
    /// longer need it. A child `u` with sibling `s` takes the `k_u` limbs of
    /// `z·s^e` just below limb `k_v`; a sibling's square lives only for
    /// that one middle product. A promoted odd node is its own child and
    /// keeps the image.
    ///
    /// An image much shorter than its precision — the root's, when the seed
    /// value is small, as `1` is for every classic descent — instead takes
    /// two single steps by the sibling: each transform then covers
    /// `len(z) + len(s)` limbs rather than `k_v`, which at the root is the
    /// largest transform of the descent and sets its memory peak.
    fn children(&self, e: usize, level: usize, j: usize, z: Natural) -> (Natural, Option<Natural>) {
        let nodes = &self.levels[level];
        let (Some(left), Some(right)) = (nodes.get(2 * j), nodes.get(2 * j + 1)) else {
            return (z, None);
        };
        let k_v = self.precision(e, level + 1, j);
        let k = [2 * j, 2 * j + 1].map(|i| self.precision(e, level, i));
        let siblings = [right, left];
        let two_steps = e == 2 && z.limb_len() + left.limb_len().max(right.limb_len()) < k_v;
        let [l, r] = if two_steps {
            // k_v − k_u ≥ 2·len(s), so both steps drop at least len(s) limbs.
            let halves = [0, 1].map(|c| {
                let s = siblings[c].limb_len();
                z.mul_middle(siblings[c], k_v - k[c] - s, k[c] + s)
            });
            arena::recycle(z);
            let [hl, hr] = halves;
            [(hl, 0), (hr, 1)].map(|(half, c)| {
                let image = half.mul_middle(siblings[c], siblings[c].limb_len(), k[c]);
                arena::recycle(half);
                image
            })
        } else {
            let images = [0, 1].map(|c| {
                if e == 1 {
                    return z.mul_middle(siblings[c], k_v - k[c], k[c]);
                }
                let square = siblings[c].square();
                let image = z.mul_middle(&square, k_v - k[c], k[c]);
                arena::recycle(square);
                image
            });
            arena::recycle(z);
            images
        };
        (l, Some(r))
    }

    /// One node's step of the descent: its children's images from its own
    /// and, at the leaf level, their residues.
    fn step(&self, e: usize, level: usize, j: usize, z: Natural) -> (Natural, Option<Natural>) {
        let (l, r) = self.children(e, level, j, z);
        if level > 0 {
            return (l, r);
        }
        (
            self.finish(e, 2 * j, l),
            r.map(|r| self.finish(e, 2 * j + 1, r)),
        )
    }

    /// Leaf `i`'s residue from its image: `round(N·Z_N / β^k_N) mod N`,
    /// with one limb below `β^k_N` kept for the rounding.
    fn finish(&self, e: usize, i: usize, z: Natural) -> Natural {
        let n = &self.leaves()[i];
        let k = self.precision(e, 0, i);
        let scaled = n.mul_middle(&z, k - 1, n.limb_len() + 2);
        arena::recycle(z);
        let mut limbs = scaled.into_limbs();
        if limbs.is_empty() {
            limbs.push(0);
        }
        if wk_bigint::limb::add_assign_slice(&mut limbs, &[1 << 63]) != 0 {
            limbs.push(1);
        }
        limbs.remove(0);
        let mut r = Natural::from_limbs(limbs);
        if &r >= n {
            r.sub_assign_ref(n);
        }
        r
    }

    /// The descent loop: push a root image down level by level on `exec`, one
    /// task per node with children, rounding the leaves in their parents'
    /// tasks. Wide levels dispatch in contiguous chunks.
    fn descend(&self, e: usize, root_image: Natural, exec: Exec<'_>) -> Vec<Natural> {
        if self.levels.len() == 1 {
            return vec![self.finish(e, 0, root_image)];
        }
        let mut current = vec![root_image];
        for level in (0..self.levels.len() - 1).rev() {
            let parents: Vec<(usize, Natural)> = current.into_iter().enumerate().collect();
            let children = exec.map_chunked(parents, |(j, z)| self.step(e, level, j, z));
            current = Vec::with_capacity(self.levels[level].len());
            for (l, r) in children {
                current.push(l);
                current.extend(r);
            }
        }
        current
    }

    /// Run several descents of this tree, in job order, sharing one Newton
    /// inverse of the root: a k-subset node pushes its own product (a
    /// cofactor job) and every foreign one (plain jobs) down one tree.
    /// `each(j, leaves)` receives job `j`'s leaf residues as soon as its
    /// descent ends, so only one job's root image and leaves are alive at a
    /// time.
    pub fn remainder_trees<F>(&self, jobs: &[Descent<'_>], exec: Exec<'_>, mut each: F)
    where
        F: FnMut(usize, Vec<Natural>),
    {
        let cap = jobs
            .iter()
            .map(|&job| self.seed_limbs(job).1)
            .max()
            .unwrap_or(0);
        let inverse = invert_newton(self.root(), cap);
        for (j, &job) in jobs.iter().enumerate() {
            let image = self.root_image(job, &inverse, cap);
            each(j, self.descend(job.power(), image, exec));
        }
        arena::recycle(inverse);
    }

    /// Compute `(V/leaf_i) mod leaf_i` for every leaf, for any `V` the root
    /// product `R` divides, given only `cofactor_rem = (V / R) mod R`. The
    /// conventional `V = root` descent passes `cofactor_rem = 1`. The root
    /// image is `frac(cofactor_rem / R)`, because
    /// `frac(V / R²) = ((V / R) mod R) / R`, and the leaves come out
    /// exactly as the `(V/N) mod N` the gcd stage consumes.
    pub fn remainder_tree_cofactor(&self, cofactor_rem: &Natural, exec: Exec<'_>) -> Vec<Natural> {
        let mut out = Vec::new();
        let job = Descent::Cofactor(cofactor_rem);
        self.remainder_trees(&[job], exec, |_, leaves| out = leaves);
        out
    }

    /// Consume the tree and return every node's limb buffer to the thread
    /// arena. For passes that build many same-shaped trees in sequence —
    /// the shard leaf phase builds one per shard on the claiming worker —
    /// the next tree's nodes then come out of the pool instead of the heap.
    pub fn recycle(self) {
        for level in self.levels {
            for node in level {
                arena::recycle(node);
            }
        }
    }

    /// The cofactor descent on the calling thread, no pool dispatch — the
    /// shard-leaf counterpart of
    /// [`remainder_tree_cofactor`](ProductTree::remainder_tree_cofactor),
    /// through the same seed, child and leaf steps. The enclosing tree's
    /// cofactor descent hands each shard exactly the `(P / R) mod R` seed
    /// this wants, `R` the shard's root.
    pub fn remainder_tree_cofactor_local(&self, cofactor_rem: &Natural) -> Vec<Natural> {
        let mut scratch = DescentScratch::default();
        let mut out = Vec::new();
        self.remainder_tree_cofactor_local_into(cofactor_rem, &mut scratch, &mut out);
        out
    }

    /// [`remainder_tree_cofactor_local`](ProductTree::remainder_tree_cofactor_local)
    /// writing into caller-owned buffers. `scratch` holds the per-level
    /// images and `out` receives the leaf residues; both keep their
    /// capacity across calls, and every `Natural` they held from a previous
    /// pass is recycled through the arena on entry. A warmed (second and
    /// later) pass over same-shaped trees therefore performs no heap
    /// allocation — the property the `zero_alloc` test pins.
    pub fn remainder_tree_cofactor_local_into(
        &self,
        cofactor_rem: &Natural,
        scratch: &mut DescentScratch,
        out: &mut Vec<Natural>,
    ) {
        scratch.reset();
        for dead in out.drain(..) {
            arena::recycle(dead);
        }
        let job = Descent::Cofactor(cofactor_rem);
        let (e, (_, cap)) = (job.power(), self.seed_limbs(job));
        let inverse = invert_newton(self.root(), cap);
        let root_image = self.root_image(job, &inverse, cap);
        arena::recycle(inverse);
        if self.levels.len() == 1 {
            out.push(self.finish(e, 0, root_image));
            return;
        }
        let DescentScratch { cur, next } = scratch;
        cur.push(root_image);
        for level in (0..self.levels.len() - 1).rev() {
            let into = if level == 0 { &mut *out } else { &mut *next };
            for (j, z) in cur.drain(..).enumerate() {
                let (l, r) = self.step(e, level, j, z);
                into.push(l);
                into.extend(r);
            }
            core::mem::swap(cur, next);
        }
    }
}

/// Guard limbs every image carries beyond what its leaves need. A middle
/// product step loses less than two units of its last limb (the one-unit
/// bound plus the truncation; a two-step child loses four), and
/// `k_v − k_u ≥ e·len(s)` keeps the parent's error from growing, so after
/// `D` levels the leaf error is below `4D + 3` units, and the leaf rounding
/// tolerates `2^63`: one limb covers any depth (DESIGN.md §9.2).
const GUARD_LIMBS: usize = 1;

/// One remainder-tree job for [`ProductTree::remainder_trees`].
#[derive(Clone, Copy, Debug)]
pub enum Descent<'a> {
    /// `(V/N_i) mod N_i` at every leaf for a `V` the root divides, given
    /// `(V / R) mod R` for the root `R`.
    Cofactor(&'a Natural),
    /// `V mod N_i` at every leaf.
    Plain(&'a Natural),
}

impl Descent<'_> {
    /// The power `e` of the node under `V` in the image `frac(V/u^e)`.
    fn power(self) -> usize {
        match self {
            Descent::Cofactor(_) => 2,
            Descent::Plain(_) => 1,
        }
    }

    /// The value whose fraction over the root seeds the descent.
    fn value(&self) -> &Natural {
        match self {
            Descent::Cofactor(x) | Descent::Plain(x) => x,
        }
    }
}

/// Reusable level buffers for the local (in-task) descent. Holding one of
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
    /// Recycle any held images and empty both buffers, keeping capacity.
    fn reset(&mut self) {
        for dead in self.cur.drain(..) {
            arena::recycle(dead);
        }
        for dead in self.next.drain(..) {
            arena::recycle(dead);
        }
    }
}

/// Pair up adjacent nodes of one level by reference: `[a, b, c]` becomes
/// `[(a, Some(b)), (c, None)]`.
fn pair_level(level: &[Natural]) -> Vec<(&Natural, Option<&Natural>)> {
    level
        .chunks(2)
        .filter_map(|pair| pair.split_first().map(|(a, rest)| (a, rest.first())))
        .collect()
}

/// Combine one paired entry: multiply, or copy an unpaired odd node up.
fn multiply_pair((a, b): (&Natural, Option<&Natural>)) -> Natural {
    match b {
        Some(b) => a * b,
        None => arena::clone_natural(a),
    }
}

/// The root of [`ProductTree::build_local`]'s tree over `moduli` (`1` when
/// empty), without the tree: the levels go up on the calling thread, and
/// each goes back to the arena once the next is built, so at most two are
/// alive. The pairing is the tree's, so the root is the same value. The
/// shard subtree roots and the incremental cache's chunk products use it.
pub(crate) fn product_root(moduli: &[Natural]) -> Natural {
    let mut level: Vec<Natural> = pair_level(moduli).into_iter().map(multiply_pair).collect();
    while level.len() > 1 {
        let next = pair_level(&level).into_iter().map(multiply_pair).collect();
        for dead in core::mem::replace(&mut level, next) {
            arena::recycle(dead);
        }
    }
    level.pop().unwrap_or_else(Natural::one)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;

    /// Sequential single-slot pool for the deterministic tests.
    fn seq() -> WorkerPool {
        WorkerPool::new(1)
    }

    /// `value mod N_i` at every leaf: the plain job on its own.
    fn plain(tree: &ProductTree, value: &Natural, exec: Exec<'_>) -> Vec<Natural> {
        let mut out = Vec::new();
        tree.remainder_trees(&[Descent::Plain(value)], exec, |_, leaves| out = leaves);
        out
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
        let r = plain(&tree, &nat(100), seq().exec());
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
            let tree = ProductTree::build(&moduli, seq().exec()).unwrap();
            for v in [tree.root().clone(), foreign.clone(), foreign * foreign] {
                let rems = plain(&tree, &v, seq().exec());
                for (m, r) in moduli.iter().zip(&rems) {
                    assert_eq!(r, &(&v % m), "n={n}");
                }
            }
        }
    }

    #[test]
    fn remainder_tree_plain_matches_direct() {
        let moduli = pseudo_moduli(9, 1, 1234);
        let tree = ProductTree::build(&moduli, seq().exec()).unwrap();
        let external = nat(0xdead_beef_cafe_f00d_1234u128);
        let rems = plain(&tree, &external, seq().exec());
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
            let tree = ProductTree::build(&moduli, seq().exec()).unwrap();
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
        let r1 = plain(&t1, &foreign, pool1.exec());
        let r4 = plain(&t4, &foreign, pool4.exec());
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
