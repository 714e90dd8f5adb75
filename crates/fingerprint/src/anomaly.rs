//! Anomaly classifiers: wire bit errors and MITM key substitution.
//!
//! Not every batch-GCD hit is a weak key. §3.3.5: bit-flipped moduli behave
//! like random integers and surface with *smooth* divisors (products of many
//! small primes); the paper sets them aside. §3.3.3: an ISP substituting a
//! fixed key into customers' certificates shows up as one modulus served at
//! many IPs under many different subjects.

use std::collections::HashMap;
use std::sync::OnceLock;
use wk_bigint::{first_primes, Natural};
use wk_scan::ModulusId;

/// Verdict on a raw batch-GCD divisor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivisorKind {
    /// The divisor is (overwhelmingly likely) a large shared prime — a
    /// genuine weak-key hit.
    SharedPrime,
    /// The divisor factors entirely over small primes — the signature of a
    /// bit error, not a flawed implementation.
    SmoothBitError,
    /// Mixed: a small-prime part times a large cofactor.
    Mixed,
}

/// The primes a divisor's small part is stripped over, built once.
fn smooth_primes() -> &'static [u64] {
    static PRIMES: OnceLock<Vec<u64>> = OnceLock::new();
    PRIMES.get_or_init(|| first_primes(2048))
}

/// Classify a nontrivial divisor by stripping its small-prime part: the
/// first 2048 primes, 2 through 17863. (OpenSSL's shape check uses the
/// first 2048 *odd* primes, 3 through 17881; the two lists differ at both
/// ends.)
pub fn classify_divisor(g: &Natural) -> DivisorKind {
    assert!(!g.is_zero() && !g.is_one(), "divisor must be nontrivial");
    let mut rest = g.clone();
    let mut stripped_any = false;
    for &p in smooth_primes() {
        while rest.rem_limb(p) == 0 {
            rest = &rest / p;
            stripped_any = true;
        }
        if rest.is_one() {
            break;
        }
    }
    if rest.is_one() {
        DivisorKind::SmoothBitError
    } else if stripped_any {
        DivisorKind::Mixed
    } else {
        DivisorKind::SharedPrime
    }
}

/// Is a modulus plausibly a well-formed RSA modulus of roughly
/// `expected_bits`? Bit-flipped moduli are usually even, out of size, or
/// divisible by small primes. Thin wrapper over
/// [`wk_keygen::plausible_modulus`] so analysis code needs only this crate.
pub fn is_well_formed_modulus(n: &Natural, expected_bits: u64) -> bool {
    wk_keygen::plausible_modulus(n, expected_bits)
}

/// An observation tuple for MITM detection: modulus, serving IP, and the
/// rendered certificate subject.
#[derive(Clone, Debug)]
pub struct KeyObservation {
    /// Which modulus was served.
    pub modulus: ModulusId,
    /// From which IP.
    pub ip: u32,
    /// Under which certificate subject.
    pub subject: String,
}

/// A modulus served at many IPs under many *different* subjects — the
/// Internet-Rimon signature. Repeated default keys also appear at many IPs,
/// but under the *same* default subject, which is the discriminator.
#[derive(Clone, Debug)]
pub struct MitmSuspect {
    /// The substituted modulus.
    pub modulus: ModulusId,
    /// Distinct IPs serving it.
    pub ip_count: usize,
    /// Distinct certificate subjects observed with it.
    pub subject_count: usize,
}

/// Scan observations for MITM-style key substitution: at least `min_ips`
/// distinct IPs and at least `min_subjects` distinct subjects per modulus.
pub fn detect_key_substitution(
    observations: &[KeyObservation],
    min_ips: usize,
    min_subjects: usize,
) -> Vec<MitmSuspect> {
    let mut by_modulus: HashMap<ModulusId, (Vec<u32>, Vec<String>)> = HashMap::new();
    for obs in observations {
        let (ips, subjects) = by_modulus.entry(obs.modulus).or_default();
        if !ips.contains(&obs.ip) {
            ips.push(obs.ip);
        }
        if !subjects.contains(&obs.subject) {
            subjects.push(obs.subject.clone());
        }
    }
    let mut suspects: Vec<MitmSuspect> = by_modulus
        .into_iter()
        .filter(|(_, (ips, subjects))| ips.len() >= min_ips && subjects.len() >= min_subjects)
        .map(|(modulus, (ips, subjects))| MitmSuspect {
            modulus,
            ip_count: ips.len(),
            subject_count: subjects.len(),
        })
        .collect();
    suspects.sort_by_key(|s| s.modulus);
    suspects
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn smooth_divisor_flagged_as_bit_error() {
        // 2^4 * 3^2 * 5 * 7 * 11 = 55440: fully smooth.
        assert_eq!(classify_divisor(&nat(55440)), DivisorKind::SmoothBitError);
        assert_eq!(classify_divisor(&nat(2)), DivisorKind::SmoothBitError);
    }

    #[test]
    fn large_prime_divisor_is_shared_prime() {
        // 2^89-1 is a Mersenne prime, far above the small-prime bound.
        let p = &(&Natural::one() << 89u64) - &Natural::one();
        assert_eq!(classify_divisor(&p), DivisorKind::SharedPrime);
    }

    #[test]
    fn mixed_divisor_detected() {
        let p = &(&Natural::one() << 89u64) - &Natural::one();
        let mixed = &p * &nat(6);
        assert_eq!(classify_divisor(&mixed), DivisorKind::Mixed);
    }

    #[test]
    fn mitm_detection_requires_subject_diversity() {
        let obs_same_subject: Vec<KeyObservation> = (0..10)
            .map(|i| KeyObservation {
                modulus: ModulusId(1),
                ip: i,
                subject: "CN=Default Common Name".into(), // repeated default key
            })
            .collect();
        assert!(
            detect_key_substitution(&obs_same_subject, 5, 3).is_empty(),
            "default-cert repetition must not look like MITM"
        );

        let obs_diverse: Vec<KeyObservation> = (0..10)
            .map(|i| KeyObservation {
                modulus: ModulusId(2),
                ip: i,
                subject: format!("CN=customer-{i}"),
            })
            .collect();
        let suspects = detect_key_substitution(&obs_diverse, 5, 3);
        assert_eq!(suspects.len(), 1);
        assert_eq!(suspects[0].modulus, ModulusId(2));
        assert_eq!(suspects[0].ip_count, 10);
        assert_eq!(suspects[0].subject_count, 10);
    }

    #[test]
    fn mitm_threshold_on_ip_count() {
        let obs: Vec<KeyObservation> = (0..3)
            .map(|i| KeyObservation {
                modulus: ModulusId(3),
                ip: i,
                subject: format!("CN={i}"),
            })
            .collect();
        assert!(detect_key_substitution(&obs, 5, 3).is_empty());
        assert_eq!(detect_key_substitution(&obs, 3, 3).len(), 1);
    }

    #[test]
    fn well_formed_modulus_wrapper() {
        // 2^127-1 times 2^89-1 gives a ~216-bit odd semiprime.
        let a = &(&Natural::one() << 127u64) - &Natural::one();
        let b = &(&Natural::one() << 89u64) - &Natural::one();
        let n = &a * &b;
        assert!(is_well_formed_modulus(&n, 216));
        assert!(!is_well_formed_modulus(&(&n << 1u64), 217)); // even
    }
}
