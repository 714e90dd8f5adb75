//! Greatest common divisors: binary GCD, Lehmer's algorithm, and the
//! extended Euclidean algorithm.
//!
//! `gcd` is the other half of the batch-GCD kernel: the remainder tree
//! yields each modulus's cofactor residue `z_i = (P/N_i) mod N_i`, and the
//! modulus is tested with `gcd(N_i, z_i)`. Operands there are modulus-sized
//! (tens of limbs), so Lehmer's single-precision simulation of Euclid's
//! algorithm is the sweet spot; binary GCD is kept as the reference
//! implementation for tests.

use crate::integer::Integer;
use crate::limb;
use crate::natural::Natural;

impl Natural {
    /// Greatest common divisor. `gcd(0, b) == b`.
    ///
    /// The two working buffers come from the thread arena
    /// ([`crate::arena`]) and serve every round of the call; the result is
    /// returned in one of them and the other goes back to the arena.
    pub fn gcd(&self, other: &Natural) -> Natural {
        gcd_lehmer(self, other)
    }

    /// Binary (Stein's) GCD. Exposed for tests and the ablation bench;
    /// [`Natural::gcd`] is the production entry point.
    pub fn gcd_binary(&self, other: &Natural) -> Natural {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        // Both nonzero (handled above), so both have a lowest set bit.
        let za = a.trailing_zeros().unwrap_or(0);
        let zb = b.trailing_zeros().unwrap_or(0);
        let common = za.min(zb);
        a >>= za;
        b >>= zb;
        // Both odd from here on.
        loop {
            if a == b {
                break;
            }
            if a < b {
                core::mem::swap(&mut a, &mut b);
            }
            a.sub_assign_ref(&b);
            let z = a.trailing_zeros();
            match z {
                None => break, // a == b happened via subtraction to zero
                Some(z) => a >>= z,
            }
        }
        &(if b.is_zero() { a } else { b }) << common
    }

    /// Extended GCD: returns `(g, x, y)` with `g = self*x + other*y`.
    pub fn extended_gcd(&self, other: &Natural) -> (Natural, Integer, Integer) {
        let mut r0 = self.clone();
        let mut r1 = other.clone();
        let mut x0 = Integer::from(1i64);
        let mut x1 = Integer::zero();
        let mut y0 = Integer::zero();
        let mut y1 = Integer::from(1i64);
        while !r1.is_zero() {
            let (q, r) = r0.div_rem(&r1);
            let qi = Integer::from_natural(q);
            let nx = &x0 - &(&qi * &x1);
            let ny = &y0 - &(&qi * &y1);
            r0 = r1;
            r1 = r;
            x0 = x1;
            x1 = nx;
            y0 = y1;
            y1 = ny;
        }
        (r0, x0, y0)
    }

    /// Modular inverse of `self` mod `m`, or `None` if `gcd(self, m) != 1`.
    pub fn mod_inverse(&self, m: &Natural) -> Option<Natural> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        let a = self % m;
        if a.is_zero() {
            return None;
        }
        let (g, x, _) = a.extended_gcd(m);
        if !g.is_one() {
            return None;
        }
        // Normalize x into [0, m).
        let mag = x.magnitude() % m;
        Some(if x.is_negative() && !mag.is_zero() {
            m - &mag
        } else {
            mag
        })
    }
}

/// Lehmer's GCD with Jebelean's quotient test.
///
/// Each round reads the top 64 bits of `a` and the aligned bits of `b`,
/// runs Euclid on those two words (one `u64` division per quotient) while
/// Jebelean's condition proves each quotient equal to the full operands'
/// one, and then applies the accumulated 2×2 cosequence matrix to both
/// operands in one pass, in place. A round with no provable quotient, or
/// with operand lengths more than one limb apart (the quotient is then
/// wider than a word), takes one full division step instead; operands of
/// at most two limbs finish on the `u128` base case.
fn gcd_lehmer(x: &Natural, y: &Natural) -> Natural {
    let (big, small) = if x < y { (y, x) } else { (x, y) };
    if let (Some(u), Some(v)) = (big.to_u128(), small.to_u128()) {
        return Natural::from(gcd_u128(u, v));
    }
    let n = big.limb_len();
    let mut a = crate::arena::take(n);
    a.extend_from_slice(big.limbs());
    let mut b = crate::arena::take(n);
    b.extend_from_slice(small.limbs());
    b.resize(n, 0);
    lehmer_reduce(&mut a, &mut b);
    crate::arena::put(b);
    Natural::from_limbs(a)
}

/// Reduce `(a, b)` to `(gcd, 0)` in place. Invariants on entry and after
/// every round: `a.len() == b.len()`, `a`'s top limb is nonzero and
/// `a >= b`, `b` zero-padded to `a`'s length.
fn lehmer_reduce(a: &mut Vec<u64>, b: &mut Vec<u64>) {
    loop {
        let n = a.len();
        let b_len = limb::effective_len(b);
        if b_len == 0 {
            return;
        }
        if n <= 2 {
            let g = gcd_u128(limbs_u128(a), limbs_u128(b));
            a.clear();
            a.extend([g as u64, (g >> 64) as u64]);
            return;
        }
        let matrix = if n - b_len > 1 {
            None
        } else {
            // Top 64 bits of `a`, and the bits of `b` at the same place.
            let shift = 64 * n as u64 - u64::from(a[n - 1].leading_zeros()) - 64;
            cosequence(window_at(a, shift), window_at(b, shift))
        };
        match matrix {
            // Odd rows put the positive coefficient on `b`: run the kernel
            // with the operands exchanged, then exchange the results back.
            Some(([u0, v0, u1, v1], true)) => {
                apply_matrix(b, a, [v0, u0, v1, u1]);
                core::mem::swap(a, b);
            }
            Some((m, false)) => apply_matrix(a, b, m),
            None => euclid_step(a, b),
        }
        let len = limb::effective_len(a);
        a.truncate(len);
        b.truncate(len);
    }
}

/// Euclid on the windows `(x, y)`, `x >= y`, accepting quotients only
/// while Jebelean's condition holds. Returns the cosequence magnitudes
/// `[u0, v0, u1, v1]` of the last accepted step `k` and whether `k` is
/// odd, or `None` if no quotient was accepted.
///
/// The window remainders satisfy `r_i = ±(u_i·x − v_i·y)` with signs
/// alternating down the sequence, so the full operands' rows are
/// `u_k·a − v_k·b` (even `k`) and `v_k·b − u_k·a` (odd `k`). Truncating
/// the operands to the window moves row `i >= 1` by less than `v_i`
/// window units (its cofactors have opposite signs and `u_i <= v_i`), so `r_{i+1} >= v_{i+1}` and `r_i − r_{i+1} >= v_i + v_{i+1}`
/// keep the full remainders nonnegative and decreasing: the simulated
/// quotient is the true one. Those conditions also give `v_{i+1}² < x`,
/// so every accepted cofactor is below `2^32`.
fn cosequence(mut r0: u64, mut r1: u64) -> Option<([u64; 4], bool)> {
    let (mut u0, mut v0, mut u1, mut v1) = (1u64, 0u64, 0u64, 1u64);
    let mut odd = false;
    while r1 != 0 {
        // One hardware division yields both; `v_{i+1}·r_i <= x` keeps
        // the cofactor updates inside a word.
        let (q, r) = (r0 / r1, r0 % r1);
        let (u2, v2) = (u0 + q * u1, v0 + q * v1);
        if r < v2 || r1 - r < v1 + v2 {
            break;
        }
        (r0, r1) = (r1, r);
        (u0, v0, u1, v1) = (u1, v1, u2, v2);
        odd = !odd;
    }
    // `v0` is 0 only before the first accepted step.
    (v0 != 0).then_some(([u0, v0, u1, v1], odd))
}

/// `(a, b) <- (u0·a − v0·b, v1·b − u1·a)` in one pass over the limbs, two
/// signed 128-bit carries wide. Both rows are nonnegative and below `a`
/// (the caller's quotients are exact), and the cofactors are below `2^32`,
/// so each partial product fits 96 bits and the top carry comes out zero.
fn apply_matrix(a: &mut [u64], b: &mut [u64], [u0, v0, u1, v1]: [u64; 4]) {
    debug_assert!([u0, v0, u1, v1].iter().all(|&c| c < 1 << 32));
    let (mut ca, mut cb) = (0i128, 0i128);
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let (ax, by) = (u128::from(*x), u128::from(*y));
        let ta = ca + (u128::from(u0) * ax) as i128 - (u128::from(v0) * by) as i128;
        let tb = cb + (u128::from(v1) * by) as i128 - (u128::from(u1) * ax) as i128;
        *x = ta as u64;
        *y = tb as u64;
        ca = ta >> 64;
        cb = tb >> 64;
    }
    debug_assert!(ca == 0 && cb == 0, "negative Lehmer row");
}

/// One full Euclid step, `(a, b) <- (b, a mod b)`, through the division
/// kernel; the dividend's and quotient's buffers go back to the arena.
fn euclid_step(a: &mut Vec<u64>, b: &mut Vec<u64>) {
    let divisor = Natural::from_limbs(core::mem::take(b));
    let dividend = Natural::from_limbs(core::mem::take(a));
    let (q, r) = dividend.div_rem(&divisor);
    crate::arena::recycle(q);
    crate::arena::recycle(dividend);
    *a = divisor.into_limbs();
    *b = r.into_limbs();
    b.resize(a.len(), 0);
}

/// The value of a limb slice of length at most two.
fn limbs_u128(limbs: &[u64]) -> u128 {
    limbs
        .iter()
        .rev()
        .fold(0, |acc, &w| acc << 64 | u128::from(w))
}

/// Bits `[shift, shift+64)` of a limb slice, read without materializing a
/// shifted copy. Bits past the top limb read as zero.
#[inline]
fn window_at(limbs: &[u64], shift: u64) -> u64 {
    let idx = (shift / 64) as usize;
    let off = (shift % 64) as u32;
    let lo = limbs.get(idx).map_or(0, |&w| w) >> off;
    if off == 0 {
        lo
    } else {
        lo | limbs.get(idx + 1).map_or(0, |&w| w) << (64 - off)
    }
}

/// u128 binary GCD base case.
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
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

    #[test]
    fn gcd_small_values() {
        assert_eq!(n(0).gcd(&n(0)), n(0));
        assert_eq!(n(0).gcd(&n(5)), n(5));
        assert_eq!(n(5).gcd(&n(0)), n(5));
        assert_eq!(n(12).gcd(&n(18)), n(6));
        assert_eq!(n(17).gcd(&n(13)), n(1));
        assert_eq!(n(1 << 20).gcd(&n(1 << 13)), n(1 << 13));
    }

    #[test]
    fn lehmer_matches_binary_large() {
        for seed in 0..8u64 {
            let g = pseudo(5, seed * 3 + 1);
            let a = &pseudo(20, seed * 3 + 2) * &g;
            let b = &pseudo(18, seed * 3 + 3) * &g;
            let fast = a.gcd(&b);
            let slow = a.gcd_binary(&b);
            assert_eq!(fast, slow, "seed={seed}");
            // The planted common factor must divide the gcd.
            assert!((&fast % &g).is_zero(), "planted factor lost, seed={seed}");
        }
    }

    #[test]
    fn gcd_divides_both() {
        let a = pseudo(30, 11);
        let b = pseudo(25, 12);
        let g = a.gcd(&b);
        assert!((&a % &g).is_zero());
        assert!((&b % &g).is_zero());
    }

    #[test]
    fn extended_gcd_bezout_identity() {
        for (a, b) in [(240u128, 46u128), (17, 0), (0, 9), (1, 1), (101, 103)] {
            let (g, x, y) = n(a).extended_gcd(&n(b));
            let lhs = &(&Integer::from_natural(n(a)) * &x) + &(&Integer::from_natural(n(b)) * &y);
            assert_eq!(lhs, Integer::from_natural(g.clone()), "a={a} b={b}");
            if a != 0 && b != 0 {
                assert!((&n(a) % &g).is_zero());
                assert!((&n(b) % &g).is_zero());
            }
        }
    }

    #[test]
    fn extended_gcd_bezout_large() {
        let a = pseudo(20, 42);
        let b = pseudo(16, 43);
        let (g, x, y) = a.extended_gcd(&b);
        let lhs = &(&Integer::from_natural(a) * &x) + &(&Integer::from_natural(b) * &y);
        assert_eq!(lhs, Integer::from_natural(g));
    }

    #[test]
    fn mod_inverse_round_trips() {
        let m = n(1000003); // prime
        for v in [2u128, 3, 65537, 999999] {
            let inv = n(v).mod_inverse(&m).expect("invertible");
            assert_eq!(&(&n(v) * &inv) % &m, n(1), "v={v}");
        }
    }

    #[test]
    fn mod_inverse_nonexistent() {
        assert_eq!(n(6).mod_inverse(&n(9)), None);
        assert_eq!(n(0).mod_inverse(&n(7)), None);
        assert_eq!(n(3).mod_inverse(&n(1)), None);
    }

    #[test]
    fn mod_inverse_large_prime_modulus() {
        // 2^127 - 1 is prime (Mersenne).
        let m = &(&Natural::one() << 127u64) - &Natural::one();
        let v = pseudo(1, 77);
        let inv = v.mod_inverse(&m).expect("invertible mod prime");
        assert_eq!(&(&v * &inv) % &m, Natural::one());
    }

    #[test]
    fn shared_prime_recovery_shape() {
        // The core attack primitive: two moduli sharing one prime factor.
        let p = n(0xffff_ffff_ffff_fffb); // close to 2^64, arbitrary odd
        let q1 = n(0xffff_ffff_ffff_ffc5);
        let q2 = n(0xffff_ffff_ffff_ff99);
        let n1 = &p * &q1;
        let n2 = &p * &q2;
        let g = n1.gcd(&n2);
        // gcd recovers exactly the shared factor (q1, q2 coprime here).
        assert_eq!(&n1 % &g, Natural::zero());
        assert_eq!(&n2 % &g, Natural::zero());
        assert!((&g % &p).is_zero());
    }
}
