//! Naive pairwise-GCD baseline: `O(n^2)` gcd computations.
//!
//! The paper's feasibility argument (§3.2) is that batch GCD is quasilinear
//! where the naive approach is quadratic, and that the quadratic approach
//! "is not feasible for the dataset sizes used in this paper". This module
//! exists to make that comparison measurable (ablation bench A1) and to act
//! as a correctness oracle for the tree-based implementations at small size.

use crate::classic::merge_divisor;
use crate::resolve::{resolve, KeyStatus};
use wk_bigint::Natural;

/// Result of the naive pairwise sweep (same shape as the batch result).
#[derive(Clone, Debug)]
pub struct NaiveResult {
    /// `gcd(N, Π_{j≠i} N_j)` per modulus (`None` if coprime to all), as
    /// every batch path reports it.
    pub raw_divisors: Vec<Option<Natural>>,
    /// Resolved statuses, canonical with the batch algorithms.
    pub statuses: Vec<KeyStatus>,
    /// Number of gcd operations performed: `n*(n-1)/2`.
    pub gcd_operations: u64,
}

/// Compute all pairwise gcds directly.
pub fn naive_pairwise_gcd(moduli: &[Natural]) -> NaiveResult {
    let n = moduli.len();
    // Fold every nontrivial pairwise gcd into both moduli's divisors by the
    // rule every batch path uses: the result is gcd(N, Π_{j≠i} N_j), the
    // raw divisor batch GCD reports.
    let mut acc: Vec<Option<Natural>> = vec![None; n];
    let mut ops = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            ops += 1;
            let g = moduli[i].gcd(&moduli[j]);
            if g.is_one() {
                continue;
            }
            for idx in [i, j] {
                merge_divisor(&mut acc[idx], &moduli[idx], &g);
            }
        }
    }
    let statuses = resolve(moduli, &acc);
    NaiveResult {
        raw_divisors: acc,
        statuses,
        gcd_operations: ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::batch_gcd;

    fn nat(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn matches_batch_on_mixed_input() {
        let moduli = vec![
            nat(33),  // 3*11, shares 3
            nat(39),  // 3*13, shares 3
            nat(323), // 17*19, clean
            nat(15),  // 3*5: shares 3 with 33/39, 5 with 35 -> full gcd case
            nat(35),  // 5*7, shares 5 and 7
            nat(21),  // 3*7, shares 3 and 7
            nat(437), // 19*23, shares 19 with 323
        ];
        let naive = naive_pairwise_gcd(&moduli);
        let batch = batch_gcd(&moduli, 1);
        assert_eq!(naive.raw_divisors, batch.raw_divisors);
        assert_eq!(naive.statuses, batch.statuses);
    }

    #[test]
    fn operation_count_is_quadratic() {
        let moduli: Vec<Natural> = (0..20u64).map(|i| nat((2 * i + 3) as u128)).collect();
        let res = naive_pairwise_gcd(&moduli);
        assert_eq!(res.gcd_operations, 20 * 19 / 2);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(naive_pairwise_gcd(&[]).gcd_operations, 0);
        let one = naive_pairwise_gcd(&[nat(35)]);
        assert!(!one.statuses[0].is_vulnerable());
    }
}
