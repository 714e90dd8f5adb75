//! Division: short division, Knuth Algorithm D, and Burnikel-Ziegler
//! recursive division.
//!
//! The batch-GCD remainder tree divides a huge product by each half-size
//! child; with quadratic (Knuth-only) division the tree would be `O(n^2)` and
//! the paper's feasibility argument (§3.2) collapses. Burnikel-Ziegler
//! reduces division to multiplication, so the remainder tree inherits the
//! sub-quadratic multiplication cost.

use crate::integer::Integer;
use crate::limb;
use crate::natural::Natural;
use crate::ntt::{Prepared, NTT_THRESHOLD};
use core::ops::{Div, Rem};

/// Divisor size (limbs) at or below which Knuth Algorithm D is used directly.
pub const BZ_THRESHOLD: usize = 128;

impl Natural {
    /// Divide by a single limb: returns `(quotient, remainder)`.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn div_rem_limb(&self, d: u64) -> (Natural, u64) {
        assert!(d != 0, "division by zero");
        let mut q = vec![0u64; self.limb_len()];
        let mut rem = 0u64;
        for i in (0..self.limb_len()).rev() {
            let (qi, r) = limb::div_wide(rem, self.limbs[i], d);
            q[i] = qi;
            rem = r;
        }
        (Natural::from_limbs(q), rem)
    }

    /// `self mod d` for a single limb `d`.
    pub fn rem_limb(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        let mut rem = 0u64;
        for i in (0..self.limb_len()).rev() {
            rem = (((rem as u128) << 64 | self.limbs[i] as u128) % d as u128) as u64;
        }
        rem
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self == quotient * rhs + remainder` and `remainder < rhs`.
    ///
    /// # Panics
    /// Panics if `rhs` is zero.
    pub fn div_rem(&self, rhs: &Natural) -> (Natural, Natural) {
        assert!(!rhs.is_zero(), "division by zero");
        if self < rhs {
            return (Natural::zero(), self.clone());
        }
        if let [limb] = rhs.limbs[..] {
            let (q, r) = self.div_rem_limb(limb);
            return (q, Natural::from(r));
        }
        if rhs.limb_len() <= BZ_THRESHOLD {
            return knuth_div_rem(self, rhs);
        }
        bz_div_rem(self, rhs)
    }

    /// Knuth Algorithm D regardless of size — the quadratic ablation
    /// baseline for Burnikel-Ziegler (bench `ablation_div_algorithms`).
    ///
    /// # Panics
    /// Panics if `rhs` is zero.
    pub fn div_rem_knuth(&self, rhs: &Natural) -> (Natural, Natural) {
        assert!(!rhs.is_zero(), "division by zero");
        if self < rhs {
            return (Natural::zero(), self.clone());
        }
        if let [limb] = rhs.limbs[..] {
            let (q, r) = self.div_rem_limb(limb);
            return (q, Natural::from(r));
        }
        knuth_div_rem(self, rhs)
    }
}

/// Knuth Algorithm D (TAOCP 4.3.1) after bit-normalizing the divisor so its
/// top limb has its high bit set. The normalized dividend/divisor copies and
/// the quotient buffer all come from the thread arena, so a warmed pool runs
/// the division without heap allocation.
fn knuth_div_rem(a: &Natural, b: &Natural) -> (Natural, Natural) {
    debug_assert!(b.limb_len() >= 2);
    debug_assert!(a >= b);
    // `top_limb()` is the true top limb here: callers assert `b` nonzero.
    let shift = b.top_limb().leading_zeros();
    // lint:allow(arena-discipline) ownership moves into knuth_normalized, which hands the storage back as the remainder limbs the caller wraps
    let mut u_limbs = crate::arena::take(a.limb_len() + 2);
    u_limbs.resize(a.limb_len(), 0);
    let carry = limb::shl_limbs_small(&mut u_limbs, a.limbs(), shift);
    if carry != 0 {
        u_limbs.push(carry);
    }
    let mut v_limbs = crate::arena::take(b.limb_len());
    v_limbs.resize(b.limb_len(), 0);
    let v_carry = limb::shl_limbs_small(&mut v_limbs, b.limbs(), shift);
    debug_assert_eq!(v_carry, 0, "normalizing shift cannot overflow the divisor");
    let (q, r) = knuth_normalized(&mut u_limbs, &v_limbs);
    crate::arena::put(v_limbs);
    let mut rem = Natural::from_limbs(r);
    rem.shr_assign_bits(shift as u64);
    (Natural::from_limbs(q), rem)
}

/// Core of Algorithm D. `v` must have its top bit set and `len >= 2`;
/// returns `(quotient, remainder)` limbs.
fn knuth_normalized(u: &mut Vec<u64>, v: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let n = v.len();
    debug_assert!(v[n - 1] >> 63 == 1);
    if u.len() < n {
        return (Vec::new(), core::mem::take(u));
    }
    let m = u.len() - n;
    u.push(0);
    // lint:allow(arena-discipline) returned as the quotient limbs; the caller wraps them in Natural::from_limbs
    let mut q = crate::arena::take(m + 1);
    q.resize(m + 1, 0);
    let v1 = v[n - 1];
    let v0 = v[n - 2];
    for j in (0..=m).rev() {
        let u2 = u[j + n];
        let u1 = u[j + n - 1];
        let u0 = u[j + n - 2];
        debug_assert!(u2 <= v1);
        // D3: estimate qhat from the top two limbs of the current window.
        let (mut qhat, rhat, rhat_valid) = if u2 == v1 {
            let (r, overflow) = u1.overflowing_add(v1);
            (u64::MAX, r, !overflow)
        } else {
            let (qh, rh) = limb::div_wide(u2, u1, v1);
            (qh, rh, true)
        };
        // Refine using the third limb: loop runs at most twice.
        if rhat_valid {
            let mut rhat = rhat;
            loop {
                let lhs = (qhat as u128) * (v0 as u128);
                let rhs = ((rhat as u128) << 64) | (u0 as u128);
                if lhs > rhs {
                    qhat -= 1;
                    let (nr, overflow) = rhat.overflowing_add(v1);
                    if overflow {
                        break;
                    }
                    rhat = nr;
                } else {
                    break;
                }
            }
        }
        // D4: multiply and subtract over the n+1 limb window.
        let window = &mut u[j..=j + n];
        let borrow = limb::sub_mul_slice(window, v, qhat);
        // D5/D6: qhat was at most one too large; add back on borrow.
        if borrow != 0 {
            debug_assert_eq!(borrow, 1);
            qhat -= 1;
            let carry = limb::add_assign_slice(window, v);
            debug_assert_eq!(carry, 1); // cancels the borrow
        }
        q[j] = qhat;
    }
    u.truncate(n);
    (q, core::mem::take(u))
}

/// Split `a` into little-endian blocks of `n` limbs each.
fn blocks_of(a: &Natural, n: usize) -> Vec<Natural> {
    a.limbs().chunks(n).map(Natural::from_limb_slice).collect()
}

/// Shift left by whole limbs.
fn shl_limbs(a: &Natural, n: usize) -> Natural {
    a << (64 * n as u64)
}

/// Low `n` limbs of `a`.
fn low_limbs(a: &Natural, n: usize) -> Natural {
    if a.limb_len() <= n {
        a.clone()
    } else {
        Natural::from_limb_slice(&a.limbs()[..n])
    }
}

/// `a >> (64*n)` — the limbs above the low `n`.
fn high_limbs(a: &Natural, n: usize) -> Natural {
    if a.limb_len() <= n {
        Natural::zero()
    } else {
        Natural::from_limb_slice(&a.limbs()[n..])
    }
}

/// Burnikel-Ziegler driver. Pads the divisor to `n = j * 2^k` limbs
/// (`j <= BZ_THRESHOLD`) with its top bit set, processes the dividend in
/// `n`-limb blocks from the top, and unscales the remainder.
fn bz_div_rem(a: &Natural, b: &Natural) -> (Natural, Natural) {
    let s = b.limb_len();
    // Choose n = j * 2^k >= s with j <= BZ_THRESHOLD so recursive halving
    // always lands on even sizes until the base case.
    let mut k = 0u32;
    while s.div_ceil(1 << k) > BZ_THRESHOLD {
        k += 1;
    }
    let j = s.div_ceil(1 << k);
    let n = j << k;
    // Normalize: limb-pad to n limbs and bit-shift so the top bit is set.
    let sigma = 64 * (n - s) as u64 + b.top_limb().leading_zeros() as u64;
    let bn = b << sigma;
    let an = a << sigma;
    debug_assert_eq!(bn.limb_len(), n);
    let pieces = DivisorPieces::new(&bn, n);

    let blocks = blocks_of(&an, n);
    let t = blocks.len();
    let mut r = blocks[t - 1].clone();
    // Top block is < beta^n <= 2*bn (bn has its top bit set), so the leading
    // quotient digit is 0 or 1.
    let mut q_top = Natural::zero();
    if r >= bn {
        q_top = Natural::one();
        r.sub_assign_ref(&bn);
    }
    let mut q = q_top;
    for i in (0..t - 1).rev() {
        let combined = &shl_limbs(&r, n) + &blocks[i];
        let (qi, ri) = bz_div_2n_1n(&combined, &bn, n, &pieces);
        q = &shl_limbs(&q, n) + &qi;
        r = ri;
    }
    (q, &r >> sigma)
}

/// The forward transforms of one division's fixed divisor pieces. At every
/// recursion size `2h`, `bz_div_3h_2h` multiplies a quotient of up to `h`
/// limbs by the same piece — the low half of the divisor's top `2h` limbs —
/// on every block and every recursive call. Pieces the dispatcher would
/// multiply by NTT are transformed once per division, except the top one:
/// it is as large as all the others together and used only twice per
/// dividend block, so holding it would save a sixth of the top level's
/// multiply work for that much memory.
struct DivisorPieces(Vec<(usize, Prepared)>);

impl DivisorPieces {
    /// Transform the pieces of the `n`-limb normalized divisor `bn`.
    fn new(bn: &Natural, n: usize) -> DivisorPieces {
        // The recursion sizes, as bz_div_2n_1n tests them.
        let sizes = core::iter::successors(Some(n), |&size| Some(size / 2))
            .take_while(|&size| size % 2 == 0 && size > BZ_THRESHOLD && size / 2 >= NTT_THRESHOLD)
            .skip(1);
        let pieces = sizes.filter_map(|size| {
            let h = size / 2;
            let piece = bn.limbs().get(n - size..n - h)?;
            Some((h, Prepared::new(piece, h)?))
        });
        DivisorPieces(pieces.collect())
    }

    /// `q * b0` for the piece `b0` of recursion size `2h`.
    fn mul(&self, h: usize, q: &Natural, b0: &Natural) -> Natural {
        self.0
            .iter()
            .find(|(size, _)| *size == h)
            .and_then(|(_, prepared)| prepared.mul(q))
            .unwrap_or_else(|| q * b0)
    }
}

/// Divide a (up to) `2n`-limb value `a < b * beta^n` by the `n`-limb
/// normalized divisor `b`. Recurses via two 3h/2h divisions.
fn bz_div_2n_1n(a: &Natural, b: &Natural, n: usize, pieces: &DivisorPieces) -> (Natural, Natural) {
    if n % 2 == 1 || n <= BZ_THRESHOLD {
        return a.div_rem(b); // falls through to Knuth / short division
    }
    let h = n / 2;
    let a_lo = low_limbs(a, h);
    let a_hi = high_limbs(a, h); // up to 3h limbs
    let (q1, r1) = bz_div_3h_2h(&a_hi, b, h, pieces);
    let (q0, r) = bz_div_3h_2h(&(&shl_limbs(&r1, h) + &a_lo), b, h, pieces);
    (&shl_limbs(&q1, h) + &q0, r)
}

/// Divide a (up to) `3h`-limb value `a < b * beta^h` by the `2h`-limb
/// normalized divisor `b`. One recursive 2h/h division plus one full
/// `h x h` multiplication — this multiplication is where sub-quadratic
/// multiplication pays off.
fn bz_div_3h_2h(a: &Natural, b: &Natural, h: usize, pieces: &DivisorPieces) -> (Natural, Natural) {
    let b1 = high_limbs(b, h); // top h limbs, top bit set
    let b0 = low_limbs(b, h);
    let a12 = high_limbs(a, h); // top 2h limbs
    let a0 = low_limbs(a, h);
    let a2 = high_limbs(a, 2 * h); // top h limbs

    let (mut q, r1) = if a2 < b1 {
        bz_div_2n_1n(&a12, &b1, h, pieces)
    } else {
        // q = beta^h - 1; r1 = a12 - q*b1 = a12 - b1*beta^h + b1 (>= 0 here).
        let q = &shl_limbs(&Natural::one(), h) - &Natural::one();
        let r1 = &(&a12 - &shl_limbs(&b1, h)) + &b1;
        (q, r1)
    };
    let d = pieces.mul(h, &q, &b0);
    let lhs = Integer::from_natural(&shl_limbs(&r1, h) + &a0);
    let mut r = &lhs - &Integer::from_natural(d);
    // q may be up to 2 too large (standard BZ bound).
    let bi = Integer::from_natural(b.clone());
    while r.is_negative() {
        q.sub_assign_ref(&Natural::one());
        r = &r + &bi;
    }
    (q, r.into_magnitude())
}

impl Div<&Natural> for &Natural {
    type Output = Natural;
    fn div(self, rhs: &Natural) -> Natural {
        self.div_rem(rhs).0
    }
}

impl Rem<&Natural> for &Natural {
    type Output = Natural;
    fn rem(self, rhs: &Natural) -> Natural {
        self.div_rem(rhs).1
    }
}

impl Div<u64> for &Natural {
    type Output = Natural;
    fn div(self, rhs: u64) -> Natural {
        self.div_rem_limb(rhs).0
    }
}

impl Rem<u64> for &Natural {
    type Output = u64;
    fn rem(self, rhs: u64) -> u64 {
        self.rem_limb(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    fn pseudo(len: usize, seed: u64) -> Natural {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
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

    fn check_div_identity(a: &Natural, b: &Natural) {
        let (q, r) = a.div_rem(b);
        assert!(r < *b, "remainder not reduced");
        assert_eq!(&(&q * b) + &r, *a, "a != q*b + r");
    }

    #[test]
    fn small_division_matches_u128() {
        for a in [
            0u128,
            1,
            17,
            u64::MAX as u128,
            u128::MAX,
            12345678901234567890,
        ] {
            for b in [1u128, 2, 3, 17, u64::MAX as u128, 1 << 100] {
                let (q, r) = n(a).div_rem(&n(b));
                assert_eq!(q, n(a / b), "q a={a} b={b}");
                assert_eq!(r, n(a % b), "r a={a} b={b}");
            }
        }
    }

    #[test]
    fn rem_limb_matches_div_rem_limb() {
        let a = pseudo(10, 3);
        for d in [1u64, 2, 3, 65537, u64::MAX] {
            assert_eq!(a.rem_limb(d), a.div_rem_limb(d).1);
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = n(1).div_rem(&Natural::zero());
    }

    #[test]
    fn knuth_various_shapes() {
        for (la, lb, seed) in [
            (4, 2, 1),
            (10, 3, 2),
            (20, 19, 3),
            (40, 2, 4),
            (48, 48, 5),
            (30, 25, 6),
        ] {
            check_div_identity(&pseudo(la, seed), &pseudo(lb, seed + 50));
        }
    }

    #[test]
    fn knuth_add_back_case() {
        // Construct a case exercising the rare D6 add-back: dividend with
        // many high ones against divisor just below a power of two.
        let a = &(&Natural::one() << 512u64) - &Natural::one();
        let b = &(&Natural::one() << 192u64) - &(&Natural::one() << 64u64);
        check_div_identity(&a, &b);
    }

    #[test]
    fn bz_matches_knuth() {
        for (la, lb, seed) in [
            (120, 60, 1),
            (200, 100, 2),
            (256, 96, 3),
            (300, 97, 4), // odd-ish divisor length forces padding
            (512, 200, 5),
            (1500, 700, 6),
            (3000, 1400, 7), // a divisor piece past NTT_THRESHOLD is prepared
        ] {
            let a = pseudo(la, seed);
            let b = pseudo(lb, seed + 99);
            let (q_bz, r_bz) = bz_div_rem(&a, &b);
            let (q_kn, r_kn) = knuth_div_rem(&a, &b);
            assert_eq!(q_bz, q_kn, "quotient la={la} lb={lb}");
            assert_eq!(r_bz, r_kn, "remainder la={la} lb={lb}");
        }
    }

    #[test]
    fn bz_identity_large() {
        let a = pseudo(1000, 7);
        let b = pseudo(333, 8);
        check_div_identity(&a, &b);
    }

    #[test]
    fn dividend_smaller_than_divisor() {
        let a = pseudo(10, 1);
        let b = pseudo(60, 2);
        let (q, r) = a.div_rem(&b);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    fn exact_division_zero_remainder() {
        let b = pseudo(70, 3);
        let q_expect = pseudo(130, 4);
        let a = &b * &q_expect;
        let (q, r) = a.div_rem(&b);
        assert_eq!(q, q_expect);
        assert!(r.is_zero());
    }
}
