//! Signed arbitrary-precision integers.
//!
//! [`Integer`] is a thin sign-magnitude wrapper over [`Natural`], used where
//! intermediates can go negative: the Bézout coefficients of the extended
//! Euclidean algorithm.

use crate::natural::Natural;
use core::cmp::Ordering;
use core::ops::{Add, Mul, Neg, Sub};

/// Sign of an [`Integer`]. Zero always carries [`Sign::Zero`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sign {
    Negative,
    Zero,
    Positive,
}

/// Signed arbitrary-precision integer (sign + magnitude).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Integer {
    sign: Sign,
    magnitude: Natural,
}

impl Integer {
    /// The value 0.
    pub fn zero() -> Self {
        Integer {
            sign: Sign::Zero,
            magnitude: Natural::zero(),
        }
    }

    /// Wrap a natural as a nonnegative integer.
    pub fn from_natural(n: Natural) -> Self {
        let sign = if n.is_zero() {
            Sign::Zero
        } else {
            Sign::Positive
        };
        Integer { sign, magnitude: n }
    }

    /// Construct from sign and magnitude, normalizing zero.
    pub fn from_sign_magnitude(negative: bool, magnitude: Natural) -> Self {
        let sign = if magnitude.is_zero() {
            Sign::Zero
        } else if negative {
            Sign::Negative
        } else {
            Sign::Positive
        };
        Integer { sign, magnitude }
    }

    /// The sign.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// True iff the value is negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Borrow the magnitude.
    pub fn magnitude(&self) -> &Natural {
        &self.magnitude
    }
}

impl From<i64> for Integer {
    fn from(v: i64) -> Self {
        Integer::from_sign_magnitude(v < 0, Natural::from(v.unsigned_abs()))
    }
}

impl From<Natural> for Integer {
    fn from(n: Natural) -> Self {
        Integer::from_natural(n)
    }
}

impl Ord for Integer {
    fn cmp(&self, other: &Self) -> Ordering {
        use Sign::*;
        match (self.sign, other.sign) {
            (Negative, Negative) => other.magnitude.cmp(&self.magnitude),
            (Negative, _) => Ordering::Less,
            (Zero, Negative) => Ordering::Greater,
            (Zero, Zero) => Ordering::Equal,
            (Zero, Positive) => Ordering::Less,
            (Positive, Positive) => self.magnitude.cmp(&other.magnitude),
            (Positive, _) => Ordering::Greater,
        }
    }
}

impl PartialOrd for Integer {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Neg for &Integer {
    type Output = Integer;
    fn neg(self) -> Integer {
        Integer::from_sign_magnitude(self.sign == Sign::Positive, self.magnitude.clone())
    }
}

impl Add<&Integer> for &Integer {
    type Output = Integer;
    fn add(self, rhs: &Integer) -> Integer {
        if self.is_zero() {
            return rhs.clone();
        }
        if rhs.is_zero() {
            return self.clone();
        }
        if self.sign == rhs.sign {
            return Integer {
                sign: self.sign,
                magnitude: &self.magnitude + &rhs.magnitude,
            };
        }
        // Opposite signs: subtract smaller magnitude from larger; the sign of
        // the result is the sign of the larger-magnitude operand.
        match self.magnitude.cmp(&rhs.magnitude) {
            Ordering::Equal => Integer::zero(),
            Ordering::Greater => Integer {
                sign: self.sign,
                magnitude: &self.magnitude - &rhs.magnitude,
            },
            Ordering::Less => Integer {
                sign: rhs.sign,
                magnitude: &rhs.magnitude - &self.magnitude,
            },
        }
    }
}

impl Sub<&Integer> for &Integer {
    type Output = Integer;
    fn sub(self, rhs: &Integer) -> Integer {
        self + &(-rhs)
    }
}

impl Mul<&Integer> for &Integer {
    type Output = Integer;
    fn mul(self, rhs: &Integer) -> Integer {
        if self.is_zero() || rhs.is_zero() {
            return Integer::zero();
        }
        Integer::from_sign_magnitude(self.sign != rhs.sign, &self.magnitude * &rhs.magnitude)
    }
}

impl core::fmt::Debug for Integer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_negative() {
            write!(f, "-")?;
        }
        write!(f, "{:?}", self.magnitude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i64) -> Integer {
        Integer::from(v)
    }

    #[test]
    fn signed_addition_table() {
        for a in [-7i64, -1, 0, 1, 7] {
            for b in [-5i64, -1, 0, 1, 5] {
                assert_eq!(&i(a) + &i(b), i(a + b), "a={a} b={b}");
                assert_eq!(&i(a) - &i(b), i(a - b), "a={a} b={b}");
                assert_eq!(&i(a) * &i(b), i(a * b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn zero_normalization() {
        let z = &i(5) - &i(5);
        assert!(z.is_zero());
        assert_eq!(z.sign(), Sign::Zero);
        assert_eq!(
            Integer::from_sign_magnitude(true, Natural::zero()).sign(),
            Sign::Zero
        );
    }

    #[test]
    fn ordering() {
        assert!(i(-10) < i(-2));
        assert!(i(-2) < i(0));
        assert!(i(0) < i(3));
        assert!(i(3) < i(10));
    }
}
