//! Multiplication exactness: every dispatch tier, every transform shape and
//! the batch-GCD tree's node shapes, each against schoolbook.
//!
//! The NTT computes each product coefficient modulo three word primes and
//! recombines it by CRT, so a wrong twiddle, bound or carry shows up as a
//! wrong limb here. Every check runs the dispatcher and `mul_ntt` (the
//! transform at any size) against `mul_schoolbook`.

use proptest::prelude::*;
use wk_bigint::{mul_ntt, Natural, KARATSUBA_THRESHOLD, NTT_THRESHOLD, TOOM3_THRESHOLD};

/// `len` pseudo-random limbs with the top one nonzero, so the operand has
/// exactly `len` limbs.
fn pseudo(len: usize, seed: u64) -> Natural {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut limbs: Vec<u64> = (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
        .collect();
    if let Some(top) = limbs.last_mut() {
        *top |= 1 << 63;
    }
    Natural::from_limbs(limbs)
}

/// `2^(64·len) − 1`: every limb all ones.
fn all_ones(len: usize) -> Natural {
    Natural::from_limbs(vec![u64::MAX; len])
}

fn check(a: &Natural, b: &Natural) {
    let (la, lb) = (a.limb_len(), b.limb_len());
    let expect = a.mul_schoolbook(b);
    assert_eq!(a * b, expect, "dispatched {la}x{lb}");
    assert_eq!(mul_ntt(a, b), expect, "mul_ntt {la}x{lb}");
}

fn check_square(a: &Natural) {
    let expect = a.mul_schoolbook(a);
    let len = a.limb_len();
    assert_eq!(a.square(), expect, "square {len}");
    assert_eq!(mul_ntt(a, a), expect, "mul_ntt square {len}");
    assert_eq!(a * &a.clone(), expect, "equal operands {len}");
}

#[test]
fn every_dispatch_threshold_plus_minus_one() {
    for (i, t) in [KARATSUBA_THRESHOLD, TOOM3_THRESHOLD, NTT_THRESHOLD]
        .into_iter()
        .enumerate()
    {
        for n in [t - 1, t, t + 1] {
            let seed = 10 * i as u64 + n as u64;
            check(&pseudo(n, seed), &pseudo(n, seed + 1));
            check(&pseudo(n, seed + 2), &pseudo(n + 3, seed + 3));
        }
    }
}

/// `la + lb` at `2^k`, `3·2^k` and just past them. A transform holds the
/// `la + lb − 1` coefficients, so `+1` fits exactly and `+2` moves to the
/// next length.
#[test]
fn transform_length_boundaries() {
    for total in [4, 6, 8, 12, 16, 24, 1024, 1536, 2048, 3072] {
        for sum in total..=total + 2 {
            let la = sum / 2;
            check(&pseudo(la, sum as u64), &pseudo(sum - la, 7 * sum as u64));
        }
    }
}

/// All-ones operands give every coefficient its largest value, which puts
/// the widest numbers through the CRT.
#[test]
fn all_ones_operands_carry_the_largest_coefficients() {
    for (la, lb) in [
        (3, 3),
        (NTT_THRESHOLD, NTT_THRESHOLD),
        (1535, 1536),
        (4096, 4096),
    ] {
        check(&all_ones(la), &all_ones(lb));
    }
    check_square(&all_ones(2048));
}

/// One operand more than twice the other's length takes the block path.
#[test]
fn unbalanced_shapes_take_the_block_path() {
    let n = NTT_THRESHOLD + 5;
    for (la, lb) in [
        (1, n),
        (1, 4 * n),
        (2 * n + 1, n),
        (n, 2 * n + 1),
        (3 * n + 2, n),
    ] {
        check(&pseudo(la, la as u64), &pseudo(lb, 3 * lb as u64));
    }
}

#[test]
fn squares_match_schoolbook() {
    for n in [
        NTT_THRESHOLD - 1,
        NTT_THRESHOLD,
        NTT_THRESHOLD + 1,
        683,
        1024,
        2047,
    ] {
        check_square(&pseudo(n, n as u64));
    }
}

/// The product tree of `bits`-bit moduli multiplies siblings of
/// `(bits/64)·2^j` limbs, a few short of full when moduli fall short of
/// their nominal size.
#[test]
fn tree_node_shapes_at_1024_and_2048_bits() {
    for leaf in [16, 32] {
        let mut m = leaf;
        while m <= 8192 {
            check(&pseudo(m, m as u64), &pseudo(m, m as u64 + 1));
            check(&pseudo(m - 3, m as u64 + 2), &pseudo(m - 6, m as u64 + 3));
            m *= 2;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes up to three times the NTT threshold, balanced or not.
    #[test]
    fn random_sizes_match_schoolbook(
        la in 1usize..=3 * NTT_THRESHOLD,
        lb in 1usize..=3 * NTT_THRESHOLD,
        seed in any::<u64>(),
    ) {
        let (a, b) = (pseudo(la, seed), pseudo(lb, !seed));
        let expect = a.mul_schoolbook(&b);
        prop_assert_eq!(&a * &b, expect.clone());
        prop_assert_eq!(mul_ntt(&a, &b), expect);
    }
}
