//! Edge cases of the Lehmer gcd kernel, each checked against the binary
//! reference `gcd_binary`.
//!
//! The kernel simulates Euclid on the top word of each operand and applies
//! the resulting 2×2 matrix to the full operands; the shapes here are the
//! ones that stress that simulation: all-one quotients (the longest
//! cofactor growth), operands of different lengths (no word-sized
//! quotient, so a full division step), exact divisibility, large planted
//! common factors, and extreme top limbs (the window's alignment).

use wk_bigint::Natural;

/// Deterministic `limbs`-limb operand (top limb nonzero).
fn pseudo(limbs: usize, seed: u64) -> Natural {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut out: Vec<u64> = (0..limbs)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
        .collect();
    if let Some(top) = out.last_mut() {
        *top |= 1;
    }
    Natural::from_limbs(out)
}

/// `gcd` in both argument orders equals `gcd_binary`; returns the gcd.
fn check(a: &Natural, b: &Natural, what: &str) -> Natural {
    let expect = a.gcd_binary(b);
    assert_eq!(a.gcd(b), expect, "{what}: gcd(a, b)");
    assert_eq!(b.gcd(a), expect, "{what}: gcd(b, a)");
    expect
}

/// The consecutive Fibonacci pair whose larger member first reaches
/// `limbs` limbs: Euclid's worst case, every quotient 1.
fn fibonacci_pair(limbs: usize) -> (Natural, Natural) {
    let (mut a, mut b) = (Natural::one(), Natural::one());
    while b.limb_len() < limbs {
        let next = &a + &b;
        a = b;
        b = next;
    }
    (b, a)
}

#[test]
fn consecutive_fibonacci_numbers() {
    for limbs in [16, 64] {
        let (a, b) = fibonacci_pair(limbs);
        assert_eq!(a.limb_len(), limbs);
        assert!(check(&a, &b, &format!("F pair at {limbs} limbs")).is_one());
        // A common factor rides through the all-ones quotient run.
        let g = pseudo(4, limbs as u64);
        let got = check(
            &(&a * &g),
            &(&b * &g),
            &format!("scaled F pair at {limbs} limbs"),
        );
        assert_eq!(got, g);
    }
}

#[test]
fn operand_lengths_one_limb_apart() {
    for seed in 0..64u64 {
        for len in [3, 4, 16, 17, 30] {
            let a = pseudo(len, seed * 7 + 1);
            let b = pseudo(len - 1, seed * 7 + 2);
            check(&a, &b, &format!("{len} vs {} limbs, seed {seed}", len - 1));
            let g = pseudo(2, seed * 7 + 3);
            check(
                &(&a * &g),
                &(&b * &g),
                &format!("scaled {len} limbs, seed {seed}"),
            );
        }
    }
}

#[test]
fn operand_lengths_many_limbs_apart() {
    for seed in 0..16u64 {
        for (long, short) in [(16, 1), (16, 2), (16, 3), (16, 8), (30, 5), (64, 16)] {
            let a = pseudo(long, seed * 5 + 1);
            let b = pseudo(short, seed * 5 + 2);
            check(&a, &b, &format!("{long} vs {short} limbs, seed {seed}"));
        }
    }
}

#[test]
fn divisor_and_equal_operands() {
    for seed in 0..16u64 {
        let b = pseudo(8, seed * 3 + 1);
        for cofactor_limbs in [1, 2, 8] {
            let a = &b * &pseudo(cofactor_limbs, seed * 3 + 2);
            assert_eq!(check(&a, &b, &format!("b | a, seed {seed}")), b);
        }
        let a = pseudo(16, seed * 3 + 3);
        assert_eq!(check(&a, &a, &format!("a = b, seed {seed}")), a);
        assert_eq!(check(&a, &Natural::zero(), "b = 0"), a);
    }
}

#[test]
fn planted_eight_limb_common_factor() {
    for seed in 0..16u64 {
        let g = pseudo(8, seed * 4 + 1);
        for total in [16, 30] {
            let a = &g * &pseudo(total - 8, seed * 4 + 2);
            let b = &g * &pseudo(total - 8, seed * 4 + 3);
            let got = check(&a, &b, &format!("{total}-limb operands, seed {seed}"));
            assert!((&got % &g).is_zero(), "planted factor lost, seed {seed}");
        }
    }
}

#[test]
fn extreme_top_limbs() {
    for seed in 0..32u64 {
        for len in [3, 16, 30] {
            let mut low = pseudo(len, seed * 3 + 1).into_limbs();
            let mut high = pseudo(len, seed * 3 + 2).into_limbs();
            low[len - 1] = 1;
            high[len - 1] |= 1 << 63;
            let (low, high) = (Natural::from_limbs(low), Natural::from_limbs(high));
            let other = pseudo(len, seed * 3 + 3);
            check(
                &low,
                &other,
                &format!("top limb 1, {len} limbs, seed {seed}"),
            );
            check(
                &high,
                &other,
                &format!("top bit 63, {len} limbs, seed {seed}"),
            );
            check(
                &high,
                &low,
                &format!("top 1 vs top bit 63, {len} limbs, seed {seed}"),
            );
            // One limb apart: beside a top limb of 1 the short operand
            // fills most of the window; beside a top bit 63 it reads as
            // zero there, and a full division step has to run.
            let short = pseudo(len - 1, seed * 3 + 4);
            check(
                &low,
                &short,
                &format!("top limb 1 vs shorter, {len} limbs, seed {seed}"),
            );
            check(
                &high,
                &short,
                &format!("top bit 63 vs shorter, {len} limbs, seed {seed}"),
            );
        }
    }
}
