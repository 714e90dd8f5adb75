//! Division: short division, Knuth Algorithm D, and Newton division.
//!
//! The batch-GCD feasibility argument (§3.2) needs division no slower than
//! multiplication at the sizes where a product is divided by a large
//! modulus. Above [`BZ_THRESHOLD`] limbs `div_rem` builds one Newton
//! reciprocal of the divisor ([`Reciprocal`](crate::Reciprocal)) and folds
//! the dividend through Barrett steps that also yield the quotient, so a
//! large division costs a few multiplications. At or below it, Knuth
//! Algorithm D is cheaper than the reciprocal.

use crate::limb;
use crate::natural::Natural;
use core::ops::{Div, Rem};

/// Divisor size (limbs) at or below which `div_rem` runs Knuth Algorithm D;
/// larger divisors take Newton division. Measured crossover: DESIGN.md §9.3.
/// The name predates the Newton path; it stays because the benchmark ladder
/// (`wk-benchmark`) imports it.
pub const BZ_THRESHOLD: usize = 448;

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
        crate::recip::div_rem_newton(self, rhs)
    }

    /// Knuth Algorithm D regardless of size: the quadratic reference the
    /// division tests check against, the base of every fallback in the
    /// Newton path (so a division never recurses into another), and the
    /// baseline of the bench `ablation_div_algorithms`.
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

    /// `div_rem` against the Knuth reference, quotient and remainder.
    fn check_against_knuth(a: &Natural, b: &Natural, shape: &str) {
        let (q, r) = a.div_rem(b);
        let (q_kn, r_kn) = a.div_rem_knuth(b);
        let (la, lb) = (a.limb_len(), b.limb_len());
        assert_eq!(q, q_kn, "quotient {shape} la={la} lb={lb}");
        assert_eq!(r, r_kn, "remainder {shape} la={la} lb={lb}");
    }

    fn pow2(bits: u64) -> Natural {
        &Natural::one() << bits
    }

    #[test]
    fn division_matches_knuth() {
        // Every divisor is above the cutoff, so each case runs Newton
        // division against the Knuth reference.
        let t = BZ_THRESHOLD;
        for (la, lb, seed) in [
            (2 * (t + 1), t + 1, 1),
            (2 * (t + 13), t + 13, 2),
            (t + 52 + 5 * (t + 52) / 3, t + 52, 3),
            (3 * (t + 53) + 9, t + 53, 4),
            (t + 252 + 3 * (t + 252) / 2, t + 252, 5),
            (1500, 700, 6),
            (3000, 1400, 7), // past NTT_THRESHOLD: the steps multiply by transform
        ] {
            assert!(lb > t, "lb={lb} is on the Knuth side of the cutoff");
            check_against_knuth(&pseudo(la, seed), &pseudo(lb, seed + 99), "random");
        }
    }

    #[test]
    fn division_identity_large() {
        let a = pseudo(3 * BZ_THRESHOLD + 4, 7);
        let b = pseudo(BZ_THRESHOLD + 1, 8);
        check_div_identity(&a, &b);
    }

    /// The shapes where Newton division can go wrong, on both sides of the
    /// cutoff: single-step and short quotients (`exact_inverse` builds the
    /// reciprocal), a fold whose last chunk is short, extreme top limbs,
    /// divisors just below a power of two (the clamp in `invert_newton`),
    /// all-ones dividends, and exact multiples and their predecessors.
    #[test]
    fn division_edge_shapes_match_knuth() {
        for m in [BZ_THRESHOLD, BZ_THRESHOLD + 1] {
            let random = pseudo(m, 11);
            let mut top_one = random.limbs().to_vec();
            top_one[m - 1] = 1;
            let mut top_full = random.limbs().to_vec();
            top_full[m - 1] |= 1 << 63;
            let bits = 64 * m as u64;
            let divisors = [
                ("random", random),
                ("top limb 1", Natural::from_limbs(top_one)),
                ("top bit set", Natural::from_limbs(top_full)),
                ("2^64m - 1", &pow2(bits) - &Natural::one()),
                ("2^64m - 2^64", &pow2(bits) - &pow2(64)),
                ("2^(64m-1) - 1", &pow2(bits - 1) - &Natural::one()),
            ];
            for (name, b) in &divisors {
                for (la, seed) in [
                    (2 * m, 1),
                    (2 * m + 1, 2),
                    (m + 1, 3),
                    (m + 2, 4),
                    (m + 3, 5),
                    (8 * m + 3, 6),
                ] {
                    check_against_knuth(&pseudo(la, seed), b, name);
                }
                for la in [2 * m, 8 * m + 3] {
                    check_against_knuth(&(&pow2(64 * la as u64) - &Natural::one()), b, name);
                }
                for q in [Natural::one(), pseudo(m, 7), pseudo(7 * m, 8)] {
                    let multiple = &q * b;
                    check_against_knuth(&multiple, b, name);
                    check_against_knuth(&(&multiple - &Natural::one()), b, name);
                }
            }
        }
    }

    /// The shortest reciprocal above the cutoff is built by one exact
    /// division, and a one- or two-limb quotient needs nothing longer: both
    /// must return, exact, with that division done by Knuth rather than by
    /// re-entering Newton division.
    #[test]
    fn division_fallbacks_do_not_recurse() {
        let m = BZ_THRESHOLD + 1;
        let n = pseudo(m, 21);
        let mu = crate::invert_newton(&n, m + 1);
        assert_eq!(mu, &pow2(64 * (m as u64 + 1)) / &n);
        for la in [m, m + 1] {
            check_against_knuth(&pseudo(la, 22), &n, "short quotient");
        }
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
