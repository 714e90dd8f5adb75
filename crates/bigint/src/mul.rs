//! Multiplication: schoolbook, Karatsuba and NTT with size-based dispatch.
//!
//! Sub-quadratic multiplication is load-bearing for the reproduction: the
//! batch-GCD product tree multiplies pairs of multi-megabit integers, and the
//! quasilinear feasibility argument of the paper (§3.2) assumes
//! `M(n) = n^(1+o(1))`. The dispatcher runs schoolbook below
//! [`KARATSUBA_THRESHOLD`], Karatsuba (`n^1.585`) up to
//! [`NTT_THRESHOLD`](crate::NTT_THRESHOLD), and the three-prime NTT
//! (`O(n log n)`, [`crate::ntt`]) from there. Products longer than the
//! transform reaches (`3·2^40` limbs) fall back to Karatsuba. Operands
//! more than twice as long as the other run block by block through the
//! same tiers.

use crate::natural::Natural;
use core::ops::{Mul, MulAssign};

/// Operand size (in limbs, of the smaller operand) at which Karatsuba takes
/// over from schoolbook multiplication.
pub const KARATSUBA_THRESHOLD: usize = 64;

/// The operand size (limbs) of the benchmark ladder's `bigint.mul_ns.toom3`
/// point. No tier starts here. It is kept only because the benchmark
/// imports it, and it goes with the ladder's next revision (ROADMAP
/// item 3).
pub const TOOM3_THRESHOLD: usize = 352;

/// Schoolbook `O(n*m)` multiplication on limb slices.
pub(crate) fn schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    // lint:allow(arena-discipline) returned to the caller, which wraps the buffer or puts it back
    let mut out = crate::arena::take(a.len() + b.len());
    schoolbook_into(a, b, &mut out);
    out
}

/// Schoolbook multiplication writing into a caller-provided buffer (cleared
/// and resized here; no allocation when its capacity suffices).
pub(crate) fn schoolbook_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    out.resize(a.len() + b.len(), 0);
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u64;
        for (j, &bj) in b.iter().enumerate() {
            let (lo, hi) = crate::limb::mul_add_carry(out[i + j], bj, ai, carry);
            out[i + j] = lo;
            carry = hi;
        }
        out[i + b.len()] = carry;
    }
}

/// Strip high zero limbs from a slice view.
#[inline]
pub(crate) fn trim(a: &[u64]) -> &[u64] {
    &a[..crate::limb::effective_len(a)]
}

/// `acc[offset..] += add` with the carry rippled through the rest of `acc`.
/// The caller guarantees the sum fits (true for every polynomial assembly
/// here); the final carry is debug-asserted away.
fn add_at(acc: &mut [u64], offset: usize, add: &[u64]) {
    if add.is_empty() {
        return;
    }
    let carry = crate::limb::add_assign_slice(&mut acc[offset..], add);
    debug_assert_eq!(carry, 0, "add_at overflowed its accumulator");
}

/// `out = a + b` over slices, into a caller-provided buffer.
fn add_slices_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    out.clear();
    out.extend_from_slice(long);
    out.push(0);
    let carry = crate::limb::add_assign_slice(out, short);
    debug_assert_eq!(carry, 0);
}

/// Slice-level multiply dispatch into a caller-provided buffer, with every
/// scratch intermediate checked out of the thread's
/// [`arena`](crate::arena). This is the single kernel all multiplication
/// entry points funnel through; a warmed arena runs the schoolbook,
/// Karatsuba, and unbalanced-block paths without heap allocation. The NTT
/// tier splits the arena's transform workspace, which is kept between
/// calls up to [`WORKSPACE_LIMBS`](crate::arena::WORKSPACE_LIMBS). A square
/// (equal operands) takes one forward transform.
pub(crate) fn mul_slices_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    dispatch(a, b, out, true);
}

/// The dispatcher behind [`mul_slices_into`]; with `ntt` off it skips the
/// NTT tier, leaving schoolbook, Karatsuba and the unbalanced blocks.
fn dispatch(a: &[u64], b: &[u64], out: &mut Vec<u64>, ntt: bool) {
    let a = trim(a);
    let b = trim(b);
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let sn = small.len();
    if sn == 0 {
        out.clear();
        return;
    }
    if sn < KARATSUBA_THRESHOLD {
        return schoolbook_into(small, large, out);
    }
    // Highly unbalanced operands: multiply block-by-block so the recursive
    // algorithms always see roughly balanced halves.
    if large.len() > 2 * sn {
        out.clear();
        out.resize(small.len() + large.len(), 0);
        let mut part = crate::arena::take(2 * sn);
        let mut offset = 0usize;
        for chunk in large.chunks(sn) {
            dispatch(small, chunk, &mut part, ntt);
            add_at(out, offset, trim(&part));
            offset += sn;
        }
        crate::arena::put(part);
        return;
    }
    if ntt && sn >= crate::ntt::NTT_THRESHOLD && crate::ntt::mul_into(small, large, out) {
        return;
    }
    karatsuba_into(a, b, out, ntt)
}

/// Karatsuba over slices: 3 recursive multiplications of half-size operands
/// through [`dispatch`] with the same `ntt` switch, all scratch from the
/// arena.
fn karatsuba_into(a: &[u64], b: &[u64], out: &mut Vec<u64>, ntt: bool) {
    let m = a.len().max(b.len()).div_ceil(2);
    let (a0, a1) = a.split_at(m.min(a.len()));
    let (b0, b1) = b.split_at(m.min(b.len()));
    let (a0, a1, b0, b1) = (trim(a0), trim(a1), trim(b0), trim(b1));

    let mut z0 = crate::arena::take(a0.len() + b0.len());
    dispatch(a0, b0, &mut z0, ntt);
    let mut z2 = crate::arena::take(a1.len() + b1.len());
    dispatch(a1, b1, &mut z2, ntt);

    let mut sa = crate::arena::take(m + 1);
    add_slices_into(a0, a1, &mut sa);
    let mut sb = crate::arena::take(m + 1);
    add_slices_into(b0, b1, &mut sb);
    let mut z1 = crate::arena::take(sa.len() + sb.len());
    dispatch(&sa, &sb, &mut z1, ntt);
    crate::arena::put(sa);
    crate::arena::put(sb);
    // z1 = sa*sb - z0 - z2 >= 0 always.
    let borrow = crate::limb::sub_assign_slice(&mut z1, trim(&z0));
    debug_assert_eq!(borrow, 0);
    let borrow = crate::limb::sub_assign_slice(&mut z1, trim(&z2));
    debug_assert_eq!(borrow, 0);

    // out = z2 << 2m | z1 << m | z0, assembled with rippled adds.
    out.clear();
    out.resize(a.len() + b.len(), 0);
    let z0t = trim(&z0);
    out[..z0t.len()].copy_from_slice(z0t);
    add_at(out, m, trim(&z1));
    add_at(out, 2 * m, trim(&z2));
    crate::arena::put(z0);
    crate::arena::put(z1);
    crate::arena::put(z2);
}

/// Size (limbs, of the shorter operand and of the window) from which
/// [`Natural::mul_middle`] runs one cyclic transform instead of the
/// windowed schoolbook rows.
pub const MIDDLE_NTT_THRESHOLD: usize = 160;

/// The windowed schoolbook form of [`Natural::mul_middle`]: only the rows'
/// products that land at limb `lo − 2` or above are formed, each with its
/// full two-limb value, and a row's carry out of the window's top is
/// dropped.
fn middle_schoolbook_into(a: &[u64], b: &[u64], lo: usize, len: usize, out: &mut Vec<u64>) {
    let start = lo.saturating_sub(2);
    let top = lo + len;
    out.clear();
    out.resize(top - start, 0);
    for (i, &ai) in a.iter().enumerate().take_while(|&(i, _)| i < top) {
        let t_lo = start.saturating_sub(i);
        let t_hi = (top - i).min(b.len());
        if ai == 0 || t_lo >= t_hi {
            continue;
        }
        let mut carry = 0u64;
        for (o, &bt) in out[i + t_lo - start..].iter_mut().zip(&b[t_lo..t_hi]) {
            let (low, high) = crate::limb::mul_add_carry(*o, bt, ai, carry);
            *o = low;
            carry = high;
        }
        // Earlier rows end below limb i + lb, so the carry lands on a zero.
        if t_hi == b.len() {
            if let Some(o) = out.get_mut(i + t_hi - start) {
                *o = carry;
            }
        }
    }
    out.drain(..lo - start);
}

/// The limbs of the window `[lo, lo + len)` that can be nonzero: none
/// above the product's `la + lb` limbs.
fn middle_len(a: &[u64], b: &[u64], lo: usize, len: usize) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    len.min((a.len() + b.len()).saturating_sub(lo))
}

/// Slice-level [`Natural::mul_middle`] into a caller-provided buffer; the
/// window is cut to [`middle_len`] limbs.
fn mul_middle_slices_into(a: &[u64], b: &[u64], lo: usize, len: usize, out: &mut Vec<u64>) {
    let (a, b) = (trim(a), trim(b));
    let len = middle_len(a, b, lo, len);
    if len == 0 {
        out.clear();
        return;
    }
    if a.len().min(b.len()).min(len) >= MIDDLE_NTT_THRESHOLD
        && crate::ntt::mul_middle_into(a, b, lo, len, out)
    {
        return;
    }
    middle_schoolbook_into(a, b, lo, len, out);
}

/// Multiply, dispatching on operand size. This is the single entry point all
/// operator impls funnel through; the result buffer and every scratch
/// intermediate come from the thread's arena.
pub(crate) fn mul_naturals(a: &Natural, b: &Natural) -> Natural {
    let mut out = crate::arena::take(a.limb_len() + b.limb_len());
    mul_slices_into(a.limbs(), b.limbs(), &mut out);
    Natural::from_limbs(out)
}

impl Natural {
    /// Schoolbook multiplication regardless of size — the ablation baseline
    /// for the sub-quadratic algorithms (bench `ablation_mul_algorithms`).
    pub fn mul_schoolbook(&self, rhs: &Natural) -> Natural {
        Natural::from_limbs(schoolbook(self.limbs(), rhs.limbs()))
    }

    /// Multiply into a caller-provided value, reusing its backing storage
    /// (and the thread arena for scratch). Semantically identical to
    /// `out = self * rhs`; the allocating operators are thin wrappers over
    /// this kernel.
    pub fn mul_into(&self, rhs: &Natural, out: &mut Natural) {
        mul_slices_into(self.limbs(), rhs.limbs(), out.vec_mut());
        out.normalize();
    }

    /// The transform-free product: the dispatcher with the NTT tier off,
    /// so schoolbook, Karatsuba and the unbalanced blocks. The benchmark
    /// ladder checks the NTT tier against it. The name is kept only
    /// because the benchmark calls it, and it goes with the ladder's next
    /// revision (ROADMAP item 3).
    pub fn mul_toom3(&self, rhs: &Natural) -> Natural {
        let mut out = crate::arena::take(self.limb_len() + rhs.limb_len());
        dispatch(self.limbs(), rhs.limbs(), &mut out, false);
        Natural::from_limbs(out)
    }

    /// The middle product: limbs `[lo, lo + len)` of `self · rhs`, that is
    /// `⌊self·rhs / β^lo⌋ mod β^len` with `β = 2^64`, computed from the
    /// product coefficients `c_j = Σ a_i·b_(j−i)` at `j ≥ lo − 2` only.
    ///
    /// **Error bound.** The coefficients below `lo − 2` are left out. Each
    /// is below `min(la, lb)·β^2`, so together they would carry less than
    /// `min(la, lb)/β < 1` unit into limb `lo`: the result is the exact
    /// middle limbs or one less (modulo `β^len`), never more. It is exact
    /// when `lo ≤ 2`. Both forms compute this same value limb for limb.
    ///
    /// Below [`MIDDLE_NTT_THRESHOLD`] limbs (shorter operand or window) it
    /// runs windowed schoolbook rows, about `min(la, lb)·len` limb
    /// products. From there it runs the three-prime NTT as one cyclic
    /// convolution whose length covers the longer operand and the window,
    /// not the whole product: the wrapped coefficients fall below the
    /// window, where nothing is read. The result buffer and every scratch
    /// buffer come from the thread arena.
    pub fn mul_middle(&self, rhs: &Natural, lo: usize, len: usize) -> Natural {
        let mut out = crate::arena::take(middle_len(self.limbs(), rhs.limbs(), lo, len) + 5);
        mul_middle_slices_into(self.limbs(), rhs.limbs(), lo, len, &mut out);
        Natural::from_limbs(out)
    }

    /// [`mul_middle`](Natural::mul_middle) by windowed schoolbook rows
    /// regardless of size: the reference the transform form must match.
    pub fn mul_middle_schoolbook(&self, rhs: &Natural, lo: usize, len: usize) -> Natural {
        let (a, b) = (self.limbs(), rhs.limbs());
        let len = middle_len(a, b, lo, len);
        let mut out = crate::arena::take(len + 5);
        if len > 0 {
            middle_schoolbook_into(a, b, lo, len, &mut out);
        }
        Natural::from_limbs(out)
    }

    /// Multiply by a single limb.
    pub fn mul_limb(&self, m: u64) -> Natural {
        if m == 0 || self.is_zero() {
            return Natural::zero();
        }
        let mut out = crate::arena::take(self.limb_len() + 1);
        out.extend_from_slice(self.limbs());
        out.push(0);
        let mut carry = 0u64;
        for l in out.iter_mut() {
            let (lo, hi) = crate::limb::mul_add_carry(0, *l, m, carry);
            *l = lo;
            carry = hi;
        }
        debug_assert_eq!(carry, 0);
        Natural::from_limbs(out)
    }
}

impl Mul<&Natural> for &Natural {
    type Output = Natural;
    fn mul(self, rhs: &Natural) -> Natural {
        mul_naturals(self, rhs)
    }
}

impl Mul for Natural {
    type Output = Natural;
    fn mul(self, rhs: Natural) -> Natural {
        mul_naturals(&self, &rhs)
    }
}

impl Mul<u64> for &Natural {
    type Output = Natural;
    fn mul(self, rhs: u64) -> Natural {
        self.mul_limb(rhs)
    }
}

impl MulAssign<&Natural> for Natural {
    fn mul_assign(&mut self, rhs: &Natural) {
        *self = mul_naturals(self, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn small_products_match_u128() {
        for a in [0u128, 1, 2, u64::MAX as u128, 0x1234_5678_9abc_def0] {
            for b in [0u128, 1, 3, u64::MAX as u128] {
                assert_eq!(&n(a) * &n(b), n(a * b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn mul_limb_matches_general() {
        let a = n(u128::MAX / 7);
        assert_eq!(a.mul_limb(7), &a * &n(7));
        assert_eq!(a.mul_limb(0), Natural::zero());
    }

    /// Deterministic pseudo-random Natural for cross-algorithm checks.
    fn pseudo(len: usize, seed: u64) -> Natural {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let limbs: Vec<u64> = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        Natural::from_limbs(limbs)
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        for (la, lb, seed) in [(40, 40, 1), (40, 65, 2), (64, 33, 3), (100, 100, 4)] {
            let a = pseudo(la, seed);
            let b = pseudo(lb, seed + 100);
            let fast = &a * &b;
            let slow = Natural::from_limbs(schoolbook(a.limbs(), b.limbs()));
            assert_eq!(fast, slow, "la={la} lb={lb}");
        }
    }

    /// The transform-free product on unbalanced operands: 340-limb blocks
    /// whose Karatsuba halves cross `NTT_THRESHOLD`.
    #[test]
    fn transform_free_toom3_matches_schoolbook() {
        let a = pseudo(2000, 5);
        let b = pseudo(340, 6);
        let slow = Natural::from_limbs(schoolbook(a.limbs(), b.limbs()));
        assert_eq!(a.mul_toom3(&b), slow);
    }

    #[test]
    fn unbalanced_block_path_matches_schoolbook() {
        let a = pseudo(35, 9); // above Karatsuba threshold
        let b = pseudo(400, 10); // > 2x longer
        let fast = &a * &b;
        let slow = Natural::from_limbs(schoolbook(a.limbs(), b.limbs()));
        assert_eq!(fast, slow);
    }

    #[test]
    fn distributive_law_large() {
        let a = pseudo(200, 1);
        let b = pseudo(180, 2);
        let c = pseudo(190, 3);
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn square_is_self_product() {
        let a = pseudo(170, 4);
        assert_eq!(a.square(), &a * &a);
    }
}
