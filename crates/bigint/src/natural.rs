//! The [`Natural`] type: an arbitrary-precision unsigned integer.
//!
//! Representation: little-endian `Vec<u64>` limbs with the invariant that the
//! highest limb is nonzero (zero is the empty vector). Every constructor and
//! arithmetic routine restores this invariant before returning.

use crate::limb;
use core::cmp::Ordering;

/// Arbitrary-precision unsigned integer.
///
/// `Natural` is the workhorse of the reproduction: RSA moduli, primes, and
/// the multi-megabit products in the batch-GCD trees are all `Natural`s.
///
/// # Examples
///
/// ```
/// use wk_bigint::Natural;
/// let a = Natural::from(35u64);
/// let b = Natural::from(49u64);
/// assert_eq!(a.gcd(&b), Natural::from(7u64));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Natural {
    pub(crate) limbs: Vec<u64>,
}

impl Natural {
    /// The value 0.
    pub const fn zero() -> Self {
        Natural { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        Natural { limbs: vec![1] }
    }

    /// Construct from little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Natural { limbs }
    }

    /// Construct from a little-endian limb slice.
    pub fn from_limb_slice(limbs: &[u64]) -> Self {
        Self::from_limbs(limbs.to_vec())
    }

    /// Borrow the little-endian limbs (highest limb nonzero, empty for zero).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Take the backing limb storage (little-endian, normalized). The
    /// counterpart of [`from_limbs`](Natural::from_limbs); the arena's
    /// [`recycle`](crate::arena::recycle) uses it to reclaim a dead
    /// value's buffer.
    pub fn into_limbs(self) -> Vec<u64> {
        self.limbs
    }

    /// Mutable access to the backing storage for in-place kernels
    /// (`*_into` variants in `mul`/`div`/`recip`). Callers must restore
    /// the normalization invariant (via [`normalize`](Natural::normalize))
    /// before the value is observed.
    pub(crate) fn vec_mut(&mut self) -> &mut Vec<u64> {
        &mut self.limbs
    }

    /// Number of limbs (0 for the value 0).
    pub fn limb_len(&self) -> usize {
        self.limbs.len()
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Lowest limb — the value reduced mod 2^64. 0 for the value 0.
    pub fn low_limb(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Highest (nonzero, by the normalization invariant) limb. 0 for the
    /// value 0.
    pub fn top_limb(&self) -> u64 {
        self.limbs.last().copied().unwrap_or(0)
    }

    /// True iff the value is even. Zero is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// True iff the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Bit length: position of the highest set bit plus one; 0 for zero.
    pub fn bit_len(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
        }
    }

    /// Value of bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / 64) as usize;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to `value`, growing the limb vector as needed.
    pub fn set_bit(&mut self, i: u64, value: bool) {
        let limb = (i / 64) as usize;
        if value {
            if limb >= self.limbs.len() {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= 1 << (i % 64);
        } else if limb < self.limbs.len() {
            self.limbs[limb] &= !(1 << (i % 64));
            self.normalize();
        }
    }

    /// Number of trailing zero bits; `None` for the value 0.
    pub fn trailing_zeros(&self) -> Option<u64> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i as u64 * 64 + l.trailing_zeros() as u64);
            }
        }
        None
    }

    /// Convert to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs[..] {
            [] => Some(0),
            [lo] => Some(lo),
            _ => None,
        }
    }

    /// Convert to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs[..] {
            [] => Some(0),
            [lo] => Some(lo as u128),
            [lo, hi] => Some((hi as u128) << 64 | lo as u128),
            _ => None,
        }
    }

    /// Convert to `f64`, saturating to infinity for huge values. Used only
    /// for reporting/statistics, never for arithmetic.
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &l in self.limbs.iter().rev() {
            acc = acc * 1.8446744073709552e19 + l as f64;
        }
        acc
    }

    /// Big-endian byte encoding with no leading zero byte (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &l in self.limbs.iter().rev() {
            out.extend_from_slice(&l.to_be_bytes());
        }
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.drain(..first_nonzero);
        out
    }

    /// Parse a big-endian byte string. The limb buffer comes from the
    /// thread arena, so bulk decodes (shard reads) reuse recycled storage.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = crate::arena::take(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut buf = [0u8; 8];
            buf[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(buf));
        }
        Self::from_limbs(limbs)
    }

    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self^2`. Multiplication sees the same operand on both sides: from
    /// [`NTT_THRESHOLD`](crate::NTT_THRESHOLD) limbs the transform takes one
    /// forward transform per prime instead of two.
    pub fn square(&self) -> Natural {
        self * self
    }

    /// Compute `self^exp` by binary exponentiation. Intended for small
    /// exponents (the result size grows linearly in `exp`).
    pub fn pow(&self, exp: u32) -> Natural {
        let mut base = self.clone();
        let mut result = Natural::one();
        let mut e = exp;
        while e > 0 {
            if e & 1 == 1 {
                result = &result * &base;
            }
            e >>= 1;
            if e > 0 {
                base = base.square();
            }
        }
        result
    }

    /// Checked subtraction: `None` if `rhs > self`.
    pub fn checked_sub(&self, rhs: &Natural) -> Option<Natural> {
        if self < rhs {
            None
        } else {
            Some(self - rhs)
        }
    }

    /// Absolute difference `|self - rhs|`.
    pub fn abs_diff(&self, rhs: &Natural) -> Natural {
        if self >= rhs {
            self - rhs
        } else {
            rhs - self
        }
    }
}

impl Ord for Natural {
    fn cmp(&self, other: &Self) -> Ordering {
        limb::cmp_slices(&self.limbs, &other.limbs)
    }
}

impl PartialOrd for Natural {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Natural {
            fn from(v: $t) -> Self {
                Natural::from_limbs(vec![v as u64])
            }
        }
    )*};
}
impl_from_unsigned!(u8, u16, u32, u64, usize);

impl From<u128> for Natural {
    fn from(v: u128) -> Self {
        Natural::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl PartialEq<u64> for Natural {
    fn eq(&self, other: &u64) -> bool {
        self.to_u64() == Some(*other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_normalized_empty() {
        assert!(Natural::zero().is_zero());
        assert_eq!(Natural::from_limbs(vec![0, 0, 0]), Natural::zero());
        assert_eq!(Natural::zero().bit_len(), 0);
    }

    #[test]
    fn bit_len_matches_u128() {
        for v in [
            1u128,
            2,
            3,
            u64::MAX as u128,
            u64::MAX as u128 + 1,
            u128::MAX,
        ] {
            assert_eq!(Natural::from(v).bit_len(), (128 - v.leading_zeros()) as u64);
        }
    }

    #[test]
    fn bit_get_set_roundtrip() {
        let mut n = Natural::zero();
        n.set_bit(200, true);
        assert!(n.bit(200));
        assert!(!n.bit(199));
        assert_eq!(n.bit_len(), 201);
        n.set_bit(200, false);
        assert!(n.is_zero());
    }

    #[test]
    fn byte_roundtrip() {
        let n = Natural::from(0x0102_0304_0506_0708_090a_u128);
        let bytes = n.to_bytes_be();
        assert_eq!(bytes[0], 0x01); // no leading zero byte
        assert_eq!(Natural::from_bytes_be(&bytes), n);
        assert!(Natural::zero().to_bytes_be().is_empty());
        assert_eq!(Natural::from_bytes_be(&[]), Natural::zero());
        assert_eq!(Natural::from_bytes_be(&[0, 0, 5]), Natural::from(5u64));
    }

    #[test]
    fn ordering_across_sizes() {
        let small = Natural::from(u64::MAX);
        let big = Natural::from(u64::MAX as u128 + 1);
        assert!(small < big);
        assert!(big > small);
        assert_eq!(small.cmp(&small.clone()), Ordering::Equal);
    }

    #[test]
    fn parity() {
        assert!(Natural::zero().is_even());
        assert!(Natural::one().is_odd());
        assert!(Natural::from(u64::MAX as u128 + 1).is_even());
    }

    #[test]
    fn trailing_zeros_counts_across_limbs() {
        assert_eq!(Natural::zero().trailing_zeros(), None);
        let mut n = Natural::zero();
        n.set_bit(67, true);
        assert_eq!(n.trailing_zeros(), Some(67));
    }

    #[test]
    fn pow_small() {
        assert_eq!(Natural::from(3u64).pow(0), Natural::one());
        assert_eq!(Natural::from(3u64).pow(5), Natural::from(243u64));
        assert_eq!(Natural::from(2u64).pow(130).bit_len(), 131);
    }

    #[test]
    fn to_f64_reasonable() {
        let n = Natural::from(1u64 << 52);
        assert_eq!(n.to_f64(), (1u64 << 52) as f64);
    }
}
