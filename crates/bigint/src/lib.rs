//! # wk-bigint — arbitrary-precision arithmetic for the weakkeys reproduction
//!
//! From-scratch big-integer arithmetic sized for the IMC 2016 *Weak Keys
//! Remain Widespread in Network Devices* reproduction. The paper's batch-GCD
//! computation multiplies and divides integers of tens of megabits; its
//! feasibility argument assumes sub-quadratic multiplication and division,
//! which this crate provides:
//!
//! * [`Natural`] — unsigned big integers: schoolbook / Karatsuba / Toom-3 /
//!   three-prime NTT multiplication, short / Knuth-D / Burnikel-Ziegler
//!   division, binary and Lehmer GCD, extended GCD, Montgomery modular
//!   exponentiation, Miller-Rabin primality, random generation over any
//!   [`rand::RngCore`].
//! * [`Integer`] — sign-magnitude signed integers for algorithms with
//!   negative intermediates (Toom-3 interpolation, extended Euclid,
//!   Burnikel-Ziegler corrections).
//!
//! The crate replaces GMP in the original study's toolchain (see DESIGN.md,
//! substitution table). Routines are **not constant-time**: the reproduction
//! *breaks* weak keys in a simulator, it does not guard live secrets.
//!
//! ## Example: the attack primitive
//!
//! Two RSA moduli sharing a prime factor are both factored by one GCD:
//!
//! ```
//! use wk_bigint::Natural;
//!
//! let p: Natural = "64919".parse().unwrap();
//! let q1: Natural = "65011".parse().unwrap();
//! let q2: Natural = "65027".parse().unwrap();
//! let n1 = &p * &q1;
//! let n2 = &p * &q2;
//! assert_eq!(n1.gcd(&n2), p);
//! assert_eq!(&n1 / &n1.gcd(&n2), q1);
//! ```

#![forbid(unsafe_code)]

pub mod arena;
pub mod limb;

mod add;
mod div;
mod fmt;
mod gcd;
mod integer;
mod modular;
mod mul;
mod natural;
mod ntt;
mod prime;
mod random;
mod recip;
mod shift;
mod sqrt;

pub use div::BZ_THRESHOLD;
pub use fmt::ParseNaturalError;
pub use integer::{Integer, Sign};
pub use modular::MontgomeryContext;
pub use mul::{KARATSUBA_THRESHOLD, MIDDLE_NTT_THRESHOLD, TOOM3_THRESHOLD};
pub use natural::Natural;
pub use ntt::{mul_middle_ntt, mul_ntt, NTT_THRESHOLD};
pub use prime::{first_primes, is_prime_u64, WordDivisor};
pub use recip::{invert_newton, RecipError, Reciprocal};
