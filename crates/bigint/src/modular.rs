//! Modular arithmetic: Montgomery reduction and modular exponentiation.
//!
//! Miller-Rabin above 64 bits runs on top of [`Natural::mod_pow`], so
//! Montgomery form is worth having: it turns every modular reduction in the
//! square-and-multiply loop into a word-level REDC pass instead of a full
//! division. One-limb moduli get the same arithmetic on bare words.
//!
//! These routines are **not constant-time** — the reproduction factors and
//! generates keys in a simulator, it does not hold secrets against a local
//! observer. This is a deliberate scope decision, documented here so the
//! crate is not mistaken for production key-generation material.

use crate::natural::Natural;

/// Precomputed Montgomery context for a fixed odd modulus.
///
/// # Examples
///
/// ```
/// use wk_bigint::{Natural, MontgomeryContext};
/// let m = Natural::from(1000003u64);
/// let ctx = MontgomeryContext::new(m.clone()).unwrap();
/// let x = ctx.pow(&Natural::from(2u64), &Natural::from(20u64));
/// assert_eq!(x, Natural::from(1048576u64 % 1000003));
/// ```
pub struct MontgomeryContext {
    modulus: Natural,
    /// Number of limbs in the modulus; R = 2^(64*len).
    len: usize,
    /// `-modulus^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod modulus`, used to convert into Montgomery form.
    r_squared: Natural,
}

impl MontgomeryContext {
    /// Build a context; returns `None` when the modulus is even or < 2
    /// (Montgomery reduction requires an odd modulus).
    pub fn new(modulus: Natural) -> Option<Self> {
        if modulus.is_even() || modulus.is_one() || modulus.is_zero() {
            return None;
        }
        let len = modulus.limb_len();
        let n0_inv = inv_limb_2_64(modulus.low_limb()).wrapping_neg();
        // R^2 mod n where R = 2^(64*len).
        let r_squared = &(&Natural::one() << (128 * len as u64)) % &modulus;
        Some(MontgomeryContext {
            modulus,
            len,
            n0_inv,
            r_squared,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Natural {
        &self.modulus
    }

    /// Montgomery reduction: given `t < modulus * R`, compute
    /// `t * R^{-1} mod modulus`.
    fn redc(&self, t: &Natural) -> Natural {
        let mut limbs = t.limbs().to_vec();
        limbs.resize(2 * self.len + 1, 0);
        for i in 0..self.len {
            let m = limbs[i].wrapping_mul(self.n0_inv);
            // limbs[i..] += m * modulus; the addition zeroes limbs[i].
            let carry = crate::limb::add_mul_slice(&mut limbs[i..], self.modulus.limbs(), m);
            debug_assert_eq!(carry, 0);
            debug_assert_eq!(limbs[i], 0);
        }
        let mut out = Natural::from_limb_slice(&limbs[self.len..]);
        if out >= self.modulus {
            out.sub_assign_ref(&self.modulus);
        }
        out
    }

    /// Convert into Montgomery form: `x -> x*R mod n`.
    fn to_mont(&self, x: &Natural) -> Natural {
        self.redc(&(x * &self.r_squared))
    }

    /// Convert out of Montgomery form: `x*R -> x`.
    #[allow(clippy::wrong_self_convention)]
    fn from_mont(&self, x: &Natural) -> Natural {
        self.redc(x)
    }

    /// Modular multiplication via Montgomery form (operands in normal form).
    pub fn mul(&self, a: &Natural, b: &Natural) -> Natural {
        let am = self.to_mont(&(a % &self.modulus));
        let bm = self.to_mont(&(b % &self.modulus));
        self.from_mont(&self.redc(&(&am * &bm)))
    }

    /// Modular exponentiation `base^exp mod modulus` by left-to-right
    /// square-and-multiply entirely in Montgomery form.
    pub fn pow(&self, base: &Natural, exp: &Natural) -> Natural {
        if self.modulus.is_one() {
            return Natural::zero();
        }
        if exp.is_zero() {
            return Natural::one();
        }
        let bm = self.to_mont(&(base % &self.modulus));
        let mut acc = self.to_mont(&Natural::one());
        let bits = exp.bit_len();
        for i in (0..bits).rev() {
            acc = self.redc(&acc.square());
            if exp.bit(i) {
                acc = self.redc(&(&acc * &bm));
            }
        }
        self.from_mont(&acc)
    }
}

/// Montgomery arithmetic for an odd one-limb modulus, on machine words:
/// `R = 2^64`, values in Montgomery form are canonical (`< n`), and nothing
/// touches the heap. The one-limb Miller-Rabin runs on this.
pub(crate) struct WordMontgomery {
    n: u64,
    /// `n^{-1} mod 2^64`.
    n_inv: u64,
    /// `R mod n`: the Montgomery form of 1.
    one: u64,
    /// `R^2 mod n`, used to convert into Montgomery form.
    r_squared: u64,
}

impl WordMontgomery {
    /// Context for an odd `n > 1`; `None` otherwise.
    pub(crate) fn new(n: u64) -> Option<Self> {
        if n & 1 == 0 || n == 1 {
            return None;
        }
        let one = ((1u128 << 64) % u128::from(n)) as u64;
        let r_squared = (u128::from(one) * u128::from(one) % u128::from(n)) as u64;
        Some(WordMontgomery {
            n,
            n_inv: inv_limb_2_64(n),
            one,
            r_squared,
        })
    }

    /// The Montgomery form of 1.
    pub(crate) fn one(&self) -> u64 {
        self.one
    }

    /// The Montgomery form of `n - 1`.
    pub(crate) fn minus_one(&self) -> u64 {
        self.n - self.one
    }

    /// `t * R^{-1} mod n` for `t < n * R`. With `m = t * n^{-1} mod R`,
    /// `t - m*n` is an exact multiple of `R`, so the result is the high
    /// word of `t` minus the high word of `m*n`, corrected into `[0, n)`.
    fn redc(&self, t: u128) -> u64 {
        let m = (t as u64).wrapping_mul(self.n_inv);
        let mn_high = ((u128::from(m) * u128::from(self.n)) >> 64) as u64;
        let (r, borrow) = ((t >> 64) as u64).overflowing_sub(mn_high);
        if borrow {
            r.wrapping_add(self.n)
        } else {
            r
        }
    }

    /// Product of two values in Montgomery form.
    pub(crate) fn mul(&self, a: u64, b: u64) -> u64 {
        self.redc(u128::from(a) * u128::from(b))
    }

    /// Montgomery form of `x mod n`.
    pub(crate) fn to_mont(&self, x: u64) -> u64 {
        self.mul(x % self.n, self.r_squared)
    }

    /// `base^exp` for `base` in Montgomery form, by left-to-right
    /// square-and-multiply; the result is in Montgomery form.
    pub(crate) fn pow(&self, base: u64, exp: u64) -> u64 {
        let mut acc = self.one;
        for i in (0..u64::BITS - exp.leading_zeros()).rev() {
            acc = self.mul(acc, acc);
            if (exp >> i) & 1 == 1 {
                acc = self.mul(acc, base);
            }
        }
        acc
    }
}

/// Inverse of an odd limb modulo 2^64 by Newton-Hensel lifting
/// (doubling precision each step: 5 steps from 3 correct bits).
pub(crate) fn inv_limb_2_64(n: u64) -> u64 {
    debug_assert!(n & 1 == 1);
    let mut x = n; // correct to 3 bits (odd n: n*n ≡ 1 mod 8)
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(n.wrapping_mul(x)));
    }
    debug_assert_eq!(n.wrapping_mul(x), 1);
    x
}

impl Natural {
    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Uses Montgomery form for odd moduli and plain square-and-multiply
    /// with division-based reduction otherwise.
    pub fn mod_pow(&self, exp: &Natural, m: &Natural) -> Natural {
        assert!(!m.is_zero(), "modulus must be nonzero");
        if m.is_one() {
            return Natural::zero();
        }
        if m.is_odd() {
            if let Some(ctx) = MontgomeryContext::new(m.clone()) {
                return ctx.pow(self, exp);
            }
        }
        // Fallback: plain square-and-multiply.
        let mut base = self % m;
        let mut acc = Natural::one();
        let bits = exp.bit_len();
        for i in 0..bits {
            if exp.bit(i) {
                acc = &(&acc * &base) % m;
            }
            if i + 1 < bits {
                base = &base.square() % m;
            }
        }
        acc
    }

    /// Modular multiplication `(self * rhs) mod m`. The product and
    /// quotient go back to the thread arena.
    pub fn mod_mul(&self, rhs: &Natural, m: &Natural) -> Natural {
        let product = self * rhs;
        let (quotient, rem) = product.div_rem(m);
        crate::arena::recycle(quotient);
        crate::arena::recycle(product);
        rem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    /// Reference modpow over u128 (modulus small enough to avoid overflow).
    fn ref_modpow(mut b: u128, mut e: u128, m: u128) -> u128 {
        let mut acc = 1u128 % m;
        b %= m;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * b % m;
            }
            b = b * b % m;
            e >>= 1;
        }
        acc
    }

    #[test]
    fn inv_limb_examples() {
        for v in [1u64, 3, 5, 0xdead_beef | 1, u64::MAX] {
            assert_eq!(v.wrapping_mul(inv_limb_2_64(v)), 1, "v={v}");
        }
    }

    #[test]
    fn mont_pow_matches_reference_odd_moduli() {
        for m in [3u128, 1000003, 0xffff_ffff_ffff_fffb, (1 << 61) - 1] {
            for b in [0u128, 1, 2, 65537, m - 1] {
                for e in [0u128, 1, 2, 3, 1000, m - 1] {
                    assert_eq!(
                        n(b).mod_pow(&n(e), &n(m)),
                        n(ref_modpow(b, e, m)),
                        "b={b} e={e} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn word_montgomery_pow_matches_reference() {
        assert!(WordMontgomery::new(0).is_none());
        assert!(WordMontgomery::new(1).is_none());
        assert!(WordMontgomery::new(10).is_none());
        for m in [
            3u64,
            1000003,
            (1 << 61) - 1,
            0xffff_ffff_ffff_fffb,
            u64::MAX,
        ] {
            let ctx = WordMontgomery::new(m).unwrap();
            for b in [0u64, 1, 2, 65537, m - 1, u64::MAX] {
                for e in [0u64, 1, 2, 3, 1000, m - 1, u64::MAX] {
                    let got = ctx.mul(ctx.pow(ctx.to_mont(b), e), 1);
                    let want = ref_modpow(b.into(), e.into(), m.into());
                    assert_eq!(u128::from(got), want, "b={b} e={e} m={m}");
                }
            }
        }
    }

    #[test]
    fn even_modulus_fallback_matches_reference() {
        for m in [2u128, 4, 100, 65536, 1 << 40] {
            for b in [0u128, 1, 3, 12345] {
                for e in [0u128, 1, 2, 17] {
                    assert_eq!(
                        n(b).mod_pow(&n(e), &n(m)),
                        n(ref_modpow(b, e, m)),
                        "b={b} e={e} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn mont_context_rejects_even_or_trivial() {
        assert!(MontgomeryContext::new(n(4)).is_none());
        assert!(MontgomeryContext::new(n(1)).is_none());
        assert!(MontgomeryContext::new(n(0)).is_none());
        assert!(MontgomeryContext::new(n(9)).is_some());
    }

    #[test]
    fn fermat_little_theorem_multilimb() {
        // 2^127 - 1 is prime: a^(p-1) ≡ 1 mod p for a coprime to p.
        let p = &(&Natural::one() << 127u64) - &Natural::one();
        let e = &p - &Natural::one();
        for a in [2u128, 3, 65537, 0xdead_beef_cafe] {
            assert_eq!(n(a).mod_pow(&e, &p), Natural::one(), "a={a}");
        }
    }

    #[test]
    fn mont_mul_matches_plain() {
        let m = n(0xffff_ffff_ffff_fffb);
        let ctx = MontgomeryContext::new(m.clone()).unwrap();
        let a = n(0x1234_5678_9abc_def0);
        let b = n(0xfeed_face_dead_beef);
        assert_eq!(ctx.mul(&a, &b), a.mod_mul(&b, &m));
    }

    #[test]
    fn rsa_round_trip_small() {
        // Tiny RSA: p=61, q=53, n=3233, e=17, d=413.
        let modulus = n(3233);
        let e = n(17);
        let d = n(413);
        for msg in [0u128, 1, 42, 3000] {
            let c = n(msg).mod_pow(&e, &modulus);
            assert_eq!(c.mod_pow(&d, &modulus), n(msg), "msg={msg}");
        }
    }
}
