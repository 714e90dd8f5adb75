//! Property-based tests for `wk-bigint`.
//!
//! Two layers of oracle:
//! * small values are checked against native `u128` arithmetic;
//! * large values are checked against algebraic identities (ring axioms,
//!   the Euclidean division identity, Bezout, Fermat), which hold for every
//!   input regardless of size.

use proptest::prelude::*;
use wk_bigint::{Integer, Natural};

/// Strategy: an arbitrary Natural up to `max_limbs` limbs, biased toward
/// interesting shapes (all-ones limbs, single bits, zero).
fn natural(max_limbs: usize) -> impl Strategy<Value = Natural> {
    prop_oneof![
        8 => proptest::collection::vec(any::<u64>(), 0..=max_limbs)
            .prop_map(Natural::from_limbs),
        1 => proptest::collection::vec(prop_oneof![Just(0u64), Just(u64::MAX), Just(1u64)], 0..=max_limbs)
            .prop_map(Natural::from_limbs),
        1 => (0u64..(64 * max_limbs as u64)).prop_map(|b| {
            let mut n = Natural::zero();
            n.set_bit(b, true);
            n
        }),
    ]
}

fn nonzero_natural(max_limbs: usize) -> impl Strategy<Value = Natural> {
    natural(max_limbs).prop_map(|n| if n.is_zero() { Natural::one() } else { n })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---- u128 oracle ----

    #[test]
    fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let sum = &Natural::from(a) + &Natural::from(b);
        prop_assert_eq!(sum, Natural::from(a as u128 + b as u128));
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let prod = &Natural::from(a) * &Natural::from(b);
        prop_assert_eq!(prod, Natural::from(a as u128 * b as u128));
    }

    #[test]
    fn div_matches_u128(a in any::<u128>(), b in 1u128..) {
        let (q, r) = Natural::from(a).div_rem(&Natural::from(b));
        prop_assert_eq!(q, Natural::from(a / b));
        prop_assert_eq!(r, Natural::from(a % b));
    }

    #[test]
    fn gcd_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        fn g(mut a: u128, mut b: u128) -> u128 {
            while b != 0 { let t = a % b; a = b; b = t; }
            a
        }
        prop_assert_eq!(Natural::from(a).gcd(&Natural::from(b)), Natural::from(g(a, b)));
    }

    // ---- algebraic identities at large sizes ----

    #[test]
    fn add_commutes(a in natural(40), b in natural(40)) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in natural(30), b in natural(30), c in natural(30)) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_sub_round_trip(a in natural(40), b in natural(40)) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn mul_commutes(a in natural(60), b in natural(60)) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes(a in natural(40), b in natural(40), c in natural(40)) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    // Crosses the Karatsuba threshold (32 limbs) and stresses block mul.
    #[test]
    fn mul_associates_large(a in natural(50), b in natural(50), c in natural(50)) {
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn division_identity(a in natural(80), b in nonzero_natural(40)) {
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    // Forces the Newton path: divisors of BZ_THRESHOLD + 13 to
    // 2·BZ_THRESHOLD + 64 limbs with random top limbs and shifts, against
    // dividends of up to 8·BZ_THRESHOLD limbs, so single steps, short
    // quotients and folds over several chunks all occur.
    #[test]
    fn division_identity_bz(
        a in natural(8 * wk_bigint::BZ_THRESHOLD),
        b in nonzero_natural(2 * wk_bigint::BZ_THRESHOLD + 64),
    ) {
        let bits = 64 * (wk_bigint::BZ_THRESHOLD as u64 + 12);
        let b = &b + &(&Natural::one() << bits); // ensure > threshold limbs
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn exact_division_round_trips(q in natural(60), b in nonzero_natural(60)) {
        let a = &q * &b;
        let (q2, r2) = a.div_rem(&b);
        prop_assert_eq!(q2, q);
        prop_assert!(r2.is_zero());
    }

    #[test]
    fn gcd_is_common_divisor_and_linear_combo(a in nonzero_natural(20), b in nonzero_natural(20)) {
        let g = a.gcd(&b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
        let (g2, x, y) = a.extended_gcd(&b);
        prop_assert_eq!(&g, &g2);
        let lhs = &(&Integer::from(a) * &x) + &(&Integer::from(b) * &y);
        prop_assert_eq!(lhs, Integer::from(g));
    }

    #[test]
    fn gcd_lehmer_matches_binary(a in natural(30), b in natural(30)) {
        prop_assert_eq!(a.gcd(&b), a.gcd_binary(&b));
    }

    #[test]
    fn gcd_scaling_law(a in nonzero_natural(10), b in nonzero_natural(10), k in nonzero_natural(5)) {
        // gcd(ka, kb) = k * gcd(a, b)
        prop_assert_eq!((&a * &k).gcd(&(&b * &k)), &a.gcd(&b) * &k);
    }

    #[test]
    fn shift_is_mul_by_power_of_two(a in natural(20), s in 0u64..500) {
        prop_assert_eq!(&a << s, &a * &(&Natural::one() << s));
    }

    #[test]
    fn shr_shl_round_trip(a in natural(20), s in 0u64..500) {
        prop_assert_eq!(&(&a << s) >> s, a);
    }

    #[test]
    fn format_parse_round_trip(a in natural(30)) {
        prop_assert_eq!(Natural::from_hex(&a.to_hex()).unwrap(), a.clone());
        prop_assert_eq!(Natural::from_decimal(&a.to_decimal()).unwrap(), a.clone());
        prop_assert_eq!(Natural::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn mod_pow_mul_law(b in natural(8), e1 in 0u64..200, e2 in 0u64..200, m in nonzero_natural(8)) {
        // b^(e1+e2) == b^e1 * b^e2 (mod m)
        let m = &m + &Natural::one(); // avoid modulus 1 edge dominating
        let lhs = b.mod_pow(&Natural::from(e1 + e2), &m);
        let rhs = b
            .mod_pow(&Natural::from(e1), &m)
            .mod_mul(&b.mod_pow(&Natural::from(e2), &m), &m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn mod_inverse_is_inverse(a in nonzero_natural(8), m in nonzero_natural(8)) {
        let m = &m + &Natural::from(2u64);
        if let Some(inv) = a.mod_inverse(&m) {
            prop_assert_eq!(a.mod_mul(&inv, &m), Natural::one());
            prop_assert!(inv < m);
        } else {
            prop_assert!(!(&a % &m).gcd(&m).is_one() || (&a % &m).is_zero());
        }
    }

    #[test]
    fn miller_rabin_accepts_products_of_distinct_primes_never(
        i in 0usize..160, j in 0usize..160,
    ) {
        let primes = wk_bigint::first_primes(160);
        let n = Natural::from(primes[i] as u128 * primes[j] as u128);
        prop_assert!(!n.is_probable_prime_fixed());
    }

    #[test]
    fn abs_diff_symmetric(a in natural(20), b in natural(20)) {
        prop_assert_eq!(a.abs_diff(&b), b.abs_diff(&a));
        if a >= b {
            prop_assert_eq!(&a.abs_diff(&b) + &b, a);
        }
    }
}
