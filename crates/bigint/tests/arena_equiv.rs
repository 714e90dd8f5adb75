//! Property-based equivalence of the arena-backed kernels against their
//! allocating forms.
//!
//! The `*_into` variants and the thread-arena buffer pool behind them
//! (`wk_bigint::arena`) must be *invisible*: for every operand shape —
//! including sizes straddling the Karatsuba (64-limb), NTT (320-limb) and
//! Toom-3 (352-limb) thresholds — the results must be byte-identical to
//! the plain operators, even when the arena has been deliberately warmed
//! with dirty buffers full of stale limbs.

use proptest::prelude::*;
use wk_bigint::{arena, Natural, Reciprocal};

/// Strategy: an arbitrary Natural up to `max_limbs` limbs, biased toward
/// carry-heavy shapes (all-ones limbs, single bits).
fn natural(max_limbs: usize) -> impl Strategy<Value = Natural> {
    prop_oneof![
        8 => proptest::collection::vec(any::<u64>(), 0..=max_limbs)
            .prop_map(Natural::from_limbs),
        2 => proptest::collection::vec(
            prop_oneof![Just(0u64), Just(u64::MAX), Just(1u64)], 0..=max_limbs)
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

/// Park stale garbage in the thread arena so every checkout hands the
/// kernel a dirty buffer: any missing clear/normalize shows up as a value
/// difference.
fn dirty_arena() {
    for i in 0..8u64 {
        let mut junk = arena::take(64 + i as usize * 37);
        junk.extend(std::iter::repeat_n(0xdead_beef_cafe_f00d ^ i, 40));
        arena::put(junk);
    }
}

/// Deterministic operand for the threshold-straddling fixed sizes.
fn pseudo(limbs: usize, seed: u64) -> Natural {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    Natural::from_limbs(
        (0..limbs)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `mul_into` into a recycled buffer equals the allocating product.
    #[test]
    fn mul_into_matches_operator(a in natural(70), b in natural(70)) {
        dirty_arena();
        let mut out = Natural::from_limbs(arena::take(4));
        a.mul_into(&b, &mut out);
        prop_assert_eq!(out, &a * &b);
    }

    /// `barrett_rem_into` equals the allocating Barrett form and plain
    /// division, whatever buffer it lands in.
    #[test]
    fn barrett_into_matches_allocating(x in natural(40), n in nonzero_natural(12)) {
        dirty_arena();
        let recip = Reciprocal::new(&n).unwrap();
        let mut out = Natural::from_limbs(arena::take(2));
        x.barrett_rem_into(&n, &recip, &mut out).unwrap();
        prop_assert_eq!(&out, &x.barrett_rem(&n, &recip).unwrap());
        prop_assert_eq!(out, x.div_rem(&n).1);
    }

    /// `gcd`, whose two working buffers come out of a dirtied arena,
    /// equals the reference binary GCD, and so does a second call that
    /// reuses the buffers the first one returned.
    #[test]
    fn gcd_matches_binary_on_dirty_arena(a in natural(24), b in natural(24)) {
        dirty_arena();
        let expect = a.gcd_binary(&b);
        let g = a.gcd(&b);
        prop_assert_eq!(&g, &expect);
        arena::recycle(g);
        prop_assert_eq!(b.gcd(&a), expect);
    }

    /// `clone_natural` through the arena is value-identical.
    #[test]
    fn arena_clone_is_identity(a in natural(48)) {
        dirty_arena();
        let c = arena::clone_natural(&a);
        prop_assert_eq!(&c, &a);
        arena::recycle(c);
    }

    /// `keep_low_bits` equals the subtract-the-high-part definition.
    #[test]
    fn keep_low_bits_matches_mask(a in natural(24), bits in 0u64..1600) {
        let mut kept = a.clone();
        kept.keep_low_bits(bits);
        let high = &(&a >> bits) << bits;
        prop_assert_eq!(kept, &a - &high);
    }
}

/// The multiply dispatch thresholds, crossed limb-by-limb: schoolbook /
/// Karatsuba at 63..=65 limbs, Karatsuba / NTT around `NTT_THRESHOLD`, and
/// Toom-3's 351..=353. The split paths share arena scratch; an off-by-one
/// in a split is a value error here long before any bench notices.
#[test]
fn mul_into_across_dispatch_thresholds() {
    dirty_arena();
    let ntt = wk_bigint::NTT_THRESHOLD;
    for &limbs in &[63usize, 64, 65, ntt - 1, ntt, ntt + 1, 351, 352, 353] {
        let a = pseudo(limbs, limbs as u64);
        let b = pseudo(limbs, limbs as u64 + 1);
        let mut out = Natural::from_limbs(arena::take(1));
        a.mul_into(&b, &mut out);
        assert_eq!(out, &a * &b, "limbs={limbs}");
        // Unbalanced: one operand just under the threshold, one just over.
        let small = pseudo(limbs / 2 + 1, limbs as u64 + 2);
        let mut out2 = Natural::from_limbs(arena::take(1));
        small.mul_into(&a, &mut out2);
        assert_eq!(out2, &small * &a, "unbalanced limbs={limbs}");
        arena::recycle(out);
        arena::recycle(out2);
    }
}

/// Reciprocal-backed reduction at modulus sizes straddling the Newton
/// direct/iterative boundary and the Karatsuba threshold.
#[test]
fn barrett_into_across_modulus_sizes() {
    dirty_arena();
    for &m in &[7usize, 8, 9, 63, 64, 65] {
        let n = pseudo(m, 777 + m as u64);
        let x = pseudo(2 * m + 1, 999 + m as u64);
        let recip = Reciprocal::new(&n).unwrap();
        let mut out = Natural::from_limbs(arena::take(1));
        x.barrett_rem_into(&n, &recip, &mut out).unwrap();
        assert_eq!(out, x.div_rem(&n).1, "m={m}");
        arena::recycle(out);
    }
}
