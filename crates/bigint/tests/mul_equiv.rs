//! Multiplication exactness: every dispatch tier, every transform shape and
//! the batch-GCD tree's node shapes, each against schoolbook.
//!
//! The NTT computes each product coefficient modulo three word primes and
//! recombines it by CRT, so a wrong twiddle, bound or carry shows up as a
//! wrong limb here. Every check runs the dispatcher and `mul_ntt` (the
//! transform at any size) against `mul_schoolbook`.
//!
//! The middle product `mul_middle(a, b, lo, len)` is checked against the
//! limbs `[lo, lo + len)` of the full product, `((a·b) >> 64·lo) mod β^len`:
//! its documented bound is at most one unit low in limb `lo` (modulo
//! `β^len`), never high, and exact when `lo ≤ 2`. Its schoolbook and
//! transform forms must agree limb for limb.

use proptest::prelude::*;
use wk_bigint::{
    mul_middle_ntt, mul_ntt, Natural, KARATSUBA_THRESHOLD, MIDDLE_NTT_THRESHOLD, NTT_THRESHOLD,
    TOOM3_THRESHOLD,
};

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

/// Limbs `[lo, lo + len)` of `a·b`, from the full (checked) product.
fn exact_middle(a: &Natural, b: &Natural, lo: usize, len: usize) -> Natural {
    let product = a * b;
    let limbs = product.limbs();
    let window = limbs.get(lo.min(limbs.len())..(lo + len).min(limbs.len()));
    Natural::from_limbs(window.unwrap_or_default().to_vec())
}

/// How far `got` sits below `exact`, modulo `β^len`.
fn shortfall(exact: &Natural, got: &Natural, len: usize) -> Natural {
    match exact.checked_sub(got) {
        Some(d) => d,
        None => &(exact + &Natural::one().shl_bits(64 * len as u64)) - got,
    }
}

/// Every form of the middle product against the exact limbs: the dispatched
/// and transform forms always, the schoolbook rows where they stay cheap.
fn check_middle(a: &Natural, b: &Natural, lo: usize, len: usize) {
    let (la, lb) = (a.limb_len(), b.limb_len());
    let shape = format!("{la}x{lb} lo={lo} len={len}");
    let exact = exact_middle(a, b, lo, len);
    let got = a.mul_middle(b, lo, len);
    assert_eq!(
        mul_middle_ntt(a, b, lo, len),
        got,
        "ntt vs dispatched {shape}"
    );
    if la.min(lb) * (len + 2) <= 1 << 22 {
        assert_eq!(
            a.mul_middle_schoolbook(b, lo, len),
            got,
            "schoolbook {shape}"
        );
    }
    assert!(got.limb_len() <= len, "wider than its window {shape}");
    let low = shortfall(&exact, &got, len);
    assert!(low <= Natural::one(), "more than one ulp low {shape}");
    if lo <= 2 {
        assert_eq!(got, exact, "inexact with no dropped coefficients {shape}");
    }
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

/// The middle product on both sides of its transform threshold, in the
/// descent's shape (`a` about twice `b`, the window the top of `b`'s length).
#[test]
fn middle_threshold_plus_minus_one() {
    let t = MIDDLE_NTT_THRESHOLD;
    for n in [t - 1, t, t + 1] {
        let (a, b) = (pseudo(2 * n + 1, n as u64), pseudo(n, 3 * n as u64));
        check_middle(&a, &b, n + 1, n);
        check_middle(&a, &b, n + 1, n + 1);
        check_middle(&b, &a, n, n + 2);
    }
}

/// Windows whose transform length sits at `2^k`, `3·2^k` and one past:
/// the cyclic length covers the longer operand and the window.
#[test]
fn middle_transform_length_boundaries() {
    for total in [512, 768, 1024, 1536, 2048, 3072] {
        for need in total - 1..=total + 1 {
            let (a, b) = (pseudo(need, need as u64), pseudo(need / 2, 5 * need as u64));
            check_middle(&a, &b, need / 2 + 1, need - need / 2 - 1);
            check_middle(&a, &b, need / 2, need - need / 2);
        }
    }
}

/// All-ones operands maximise every coefficient and every carry into the
/// window, including the guard limbs' carry that the bound is about.
#[test]
fn middle_all_ones() {
    for (la, lb) in [
        (3, 3),
        (40, 20),
        (2 * NTT_THRESHOLD, NTT_THRESHOLD),
        (4096, 2048),
    ] {
        let (a, b) = (all_ones(la), all_ones(lb));
        for lo in [0, 1, 2, 3, lb - 1, lb, lb + 1] {
            check_middle(&a, &b, lo, la.min(la + lb - lo));
        }
        check_middle(&a, &a, la, la);
    }
}

/// Windows at the bottom, the top and past the end of the product, and
/// operands of very different lengths.
#[test]
fn middle_unbalanced_and_edge_windows() {
    let n = MIDDLE_NTT_THRESHOLD + 7;
    for (la, lb) in [
        (1, 1),
        (1, 4 * n),
        (4 * n, 1),
        (5 * n, n),
        (n, 3 * n),
        (2, 9),
    ] {
        let (a, b) = (pseudo(la, la as u64), pseudo(lb, 11 * lb as u64));
        let total = la + lb;
        for (lo, len) in [
            (0, total),
            (0, 1),
            (total - 1, 1),
            (total, 3),
            (total + 5, 2),
            (total / 2, total),
            (lb.min(la), la.max(lb)),
        ] {
            check_middle(&a, &b, lo, len);
        }
    }
    assert!(pseudo(9, 1).mul_middle(&Natural::zero(), 0, 4).is_zero());
    assert!(pseudo(9, 1).mul_middle(&pseudo(9, 2), 3, 0).is_zero());
}

/// The exact calls of the scaled remainder descent at 1024- and 2048-bit
/// leaves: a child of `m`-limb siblings takes `k_u` limbs of
/// `Z_v · s^e`, with `k = e·nom − (e − 1)·leaf + 1` (DESIGN §9.2), for the
/// cofactor job (`e = 2`, the sibling squared) and the plain job (`e = 1`).
#[test]
fn middle_descent_shapes_at_1024_and_2048_bits() {
    for leaf in [16usize, 32] {
        let mut m = leaf;
        while m <= 2048 {
            for e in [1usize, 2] {
                let k = |nom: usize| e * nom - (e - 1) * leaf + 1;
                let (k_v, k_u) = (k(2 * m), k(m));
                let z = pseudo(k_v, (m * e) as u64);
                let s = pseudo(m - 1, (m + e) as u64);
                let s_e = if e == 2 { s.square() } else { s };
                check_middle(&z, &s_e, k_v - k_u, k_u);
            }
            m *= 2;
        }
        // The leaf rounding: N · Z_N over the top limbs.
        let (n, z) = (pseudo(leaf, 1), pseudo(leaf + 1, 2));
        check_middle(&n, &z, leaf, leaf + 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random middle-product windows up to twice the transform threshold.
    #[test]
    fn random_middle_windows(
        la in 1usize..=2 * MIDDLE_NTT_THRESHOLD,
        lb in 1usize..=2 * MIDDLE_NTT_THRESHOLD,
        lo_per_mille in 0usize..1100,
        len in 1usize..=2 * MIDDLE_NTT_THRESHOLD,
        seed in any::<u64>(),
    ) {
        let (a, b) = (pseudo(la, seed), pseudo(lb, !seed));
        let lo = (la + lb) * lo_per_mille / 1000;
        check_middle(&a, &b, lo, len);
    }

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
