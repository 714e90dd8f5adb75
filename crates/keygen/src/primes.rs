//! Prime generation with implementation-specific shaping.
//!
//! Mironov observed that OpenSSL's `BN_generate_prime` rejects candidates
//! `p` where `p - 1` is divisible by any of the first 2048 (odd) primes —
//! a safety margin against p-1 factoring attacks. A random prime satisfies
//! this by chance only ≈ 7.5% of the time, so the *prime itself* fingerprints
//! the implementation that generated it ([paper §3.3.4]). This module
//! generates primes with or without that shaping, and exposes the predicate
//! the fingerprint crate tests.
//!
//! Both run on one residue sieve over the check primes (DESIGN.md §14). A
//! candidate that passes it goes on to Miller-Rabin, on machine words up to
//! 64 bits and on `Natural`s above.

use rand::RngCore;
use std::sync::OnceLock;
use wk_bigint::{first_primes, is_prime_u64, Natural, WordDivisor};

/// How candidate primes are filtered, distinguishing implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrimeShaping {
    /// OpenSSL-style: reject `p` when `p ≡ 1 (mod q)` for any of the first
    /// 2048 odd primes `q`.
    OpensslStyle,
    /// No shaping beyond primality — the "definitely not OpenSSL" class.
    Plain,
    /// Safe primes: `(p-1)/2` is also prime. Satisfies the OpenSSL
    /// predicate trivially, which is why the paper checks that no vulnerable
    /// implementation generates *exclusively* safe primes before trusting
    /// the fingerprint.
    Safe,
}

/// The first 2048 odd primes (3, 5, ..., 17881), as checked by OpenSSL.
pub fn openssl_check_primes() -> &'static [u64] {
    static PRIMES: OnceLock<Vec<u64>> = OnceLock::new();
    PRIMES.get_or_init(|| first_primes(2049)[1..].to_vec())
}

/// Check primes below this bound are also the trial primes of
/// [`Natural::is_probable_prime`], so the sieve may reject their multiples
/// without changing which candidates prime search accepts.
const TRIAL_BOUND: u64 = 1000;

/// A run of consecutive check primes whose product fits in a `u64`.
struct SieveGroup {
    product: u64,
    primes: Vec<WordDivisor>,
}

/// The check primes in [`SieveGroup`]s, built once.
fn sieve_groups() -> &'static [SieveGroup] {
    static GROUPS: OnceLock<Vec<SieveGroup>> = OnceLock::new();
    GROUPS.get_or_init(|| {
        let mut groups: Vec<SieveGroup> = Vec::new();
        for divisor in openssl_check_primes()
            .iter()
            .filter_map(|&q| WordDivisor::new(q))
        {
            let q = divisor.divisor();
            match groups.last_mut() {
                Some(g) if g.product.checked_mul(q).is_some() => {
                    g.product *= q;
                    g.primes.push(divisor);
                }
                _ => groups.push(SieveGroup {
                    product: q,
                    primes: vec![divisor],
                }),
            }
        }
        groups
    })
}

/// The residue sieve: false as soon as `c ≡ 1 (mod q)` for a check prime
/// `q` or, with `reject_trial_multiples`, `q | c` for a check prime below
/// [`TRIAL_BOUND`].
///
/// `residue(m)` is `c mod m`; the sieve asks for it once per
/// [`SieveGroup`] product (a one-limb `c` is its own residue), then tests
/// each `q` against it without a division. For `c > 997` a multiple of a
/// trial prime is composite and fails Miller-Rabin's trial division anyway,
/// so the second rule keeps `sieve(c, true) && c.is_probable_prime_fixed()`
/// equal to `satisfies_openssl_shape(c) && c.is_probable_prime_fixed()`.
fn sieve(residue: impl Fn(u64) -> u64, reject_trial_multiples: bool) -> bool {
    sieve_groups().iter().all(|group| {
        let r = residue(group.product);
        group.primes.iter().all(|q| {
            let is_one = r != 0 && q.divides(r - 1);
            let is_zero = reject_trial_multiples && q.divisor() < TRIAL_BOUND && q.divides(r);
            !is_one && !is_zero
        })
    })
}

/// Does `p` satisfy the OpenSSL prime-shape predicate — `p ≢ 1 (mod q)` for
/// every `q` in the first 2048 odd primes?
///
/// Moduli from OpenSSL-generated keys satisfy this for *every* prime factor;
/// a random prime satisfies it with probability ≈ Π(1 - 1/(q-1)) ≈ 7.5%.
pub fn satisfies_openssl_shape(p: &Natural) -> bool {
    match p.to_u64() {
        Some(word) => sieve(|_| word, false),
        None => sieve(|m| p.rem_limb(m), false),
    }
}

/// Generate a prime of exactly `bits` bits with the given shaping, drawing
/// candidates from `rng`.
///
/// Candidates are redrawn (not incremented) on failure so that every
/// attempt consumes generator output — this matches the divergence model:
/// how long the search runs determines how much of the entropy stream is
/// consumed. Each candidate is one `Natural::random_bits_exact` draw, also
/// when it is made on a machine word.
///
/// # Panics
/// Panics if `bits < 8`, if OpenSSL shaping is requested below 16 bits
/// (no 8-bit prime has `p-1` free of small odd factors — the search would
/// never terminate), or if `Safe` shaping is requested with `bits > 128`
/// (cost guard for the simulator).
pub fn generate_prime<R: RngCore + ?Sized>(
    rng: &mut R,
    bits: u64,
    shaping: PrimeShaping,
) -> Natural {
    assert!(bits >= 8, "prime size too small: {bits} bits");
    assert!(
        shaping != PrimeShaping::OpensslStyle || bits >= 16,
        "no {bits}-bit prime can satisfy the OpenSSL shape (p-1 would need \
         to be a power of two)"
    );
    if shaping == PrimeShaping::Safe {
        assert!(
            bits <= 128,
            "safe-prime generation above 128 bits is too slow for the simulator"
        );
        return generate_safe_prime(rng, bits);
    }
    // OpenSSL-shaped candidates have at least 16 bits, so every multiple the
    // sieve rejects beyond the shape is composite.
    let openssl = shaping == PrimeShaping::OpensslStyle;
    if bits <= 64 {
        loop {
            let candidate = random_word_exact(rng, bits) | 1; // force odd
            if openssl && !sieve(|_| candidate, true) {
                continue;
            }
            if is_prime_u64(candidate) {
                return Natural::from(candidate);
            }
        }
    }
    loop {
        let mut candidate = Natural::random_bits_exact(rng, bits);
        candidate.set_bit(0, true); // force odd
        if openssl && !sieve(|m| candidate.rem_limb(m), true) {
            continue;
        }
        if candidate.is_probable_prime_fixed() {
            return candidate;
        }
    }
}

/// `Natural::random_bits_exact(rng, bits)` for `1 <= bits <= 64`, on a
/// machine word: the same single `next_u64` draw, masked to `bits` bits,
/// with the top bit set.
fn random_word_exact<R: RngCore + ?Sized>(rng: &mut R, bits: u64) -> u64 {
    let top = 1u64 << (bits - 1);
    (rng.next_u64() & (top | (top - 1))) | top
}

/// Generate a safe prime: `p` prime with `(p-1)/2` prime.
fn generate_safe_prime<R: RngCore + ?Sized>(rng: &mut R, bits: u64) -> Natural {
    loop {
        // Generate p' of bits-1 bits, test p = 2p'+1.
        let p_half = generate_prime(rng, bits - 1, PrimeShaping::Plain);
        let p = &(&p_half << 1u64) + &Natural::one();
        if p.bit_len() == bits && p.is_probable_prime_fixed() {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xfeed)
    }

    #[test]
    fn check_prime_list_shape() {
        let primes = openssl_check_primes();
        assert_eq!(primes.len(), 2048);
        assert_eq!(primes[0], 3);
        assert!(primes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn generated_primes_are_prime_and_sized() {
        let mut r = rng();
        for bits in [16u64, 32, 64, 128] {
            for shaping in [PrimeShaping::Plain, PrimeShaping::OpensslStyle] {
                let p = generate_prime(&mut r, bits, shaping);
                assert_eq!(p.bit_len(), bits, "bits={bits} {shaping:?}");
                assert!(p.is_probable_prime_fixed());
            }
        }
    }

    #[test]
    fn openssl_shaping_satisfies_predicate() {
        let mut r = rng();
        for _ in 0..10 {
            let p = generate_prime(&mut r, 64, PrimeShaping::OpensslStyle);
            assert!(satisfies_openssl_shape(&p));
        }
    }

    #[test]
    fn plain_primes_mostly_fail_predicate() {
        // ≈7.5% acceptance: 40 plain primes should include several failures.
        let mut r = rng();
        let satisfied = (0..40)
            .filter(|_| satisfies_openssl_shape(&generate_prime(&mut r, 64, PrimeShaping::Plain)))
            .count();
        assert!(
            satisfied < 20,
            "plain primes look OpenSSL-shaped: {satisfied}/40"
        );
    }

    #[test]
    fn safe_primes_are_safe_and_satisfy_predicate() {
        let mut r = rng();
        let p = generate_prime(&mut r, 32, PrimeShaping::Safe);
        assert!(p.is_probable_prime_fixed());
        let half = &(&p - &Natural::one()) >> 1u64;
        assert!(half.is_probable_prime_fixed());
        // A safe prime p = 2p'+1: p-1 = 2p' has no small odd prime factors
        // besides possibly p' itself, so the predicate holds whenever
        // p' > 17881 — true at 31 bits.
        assert!(satisfies_openssl_shape(&p));
    }

    #[test]
    fn known_values_of_predicate() {
        // p = 7: p-1 = 6 divisible by 3 -> fails.
        assert!(!satisfies_openssl_shape(&Natural::from(7u64)));
        // p = 5: p-1 = 4 = 2^2, no odd prime factors -> passes.
        assert!(satisfies_openssl_shape(&Natural::from(5u64)));
        // p = 2^127-1: p-1 = 2*(2^126-1); 2^126-1 divisible by 3 -> fails.
        let m127 = &(&Natural::one() << 127u64) - &Natural::one();
        assert!(!satisfies_openssl_shape(&m127));
    }

    /// The predicate as `satisfies_openssl_shape` once computed it: one
    /// remainder per check prime.
    fn brute_force_shape(p: &Natural) -> bool {
        openssl_check_primes().iter().all(|&q| p.rem_limb(q) != 1)
    }

    #[test]
    fn sieve_groups_cover_check_primes_in_order() {
        let grouped: Vec<u64> = sieve_groups()
            .iter()
            .flat_map(|g| g.primes.iter().map(|q| q.divisor()))
            .collect();
        assert_eq!(grouped, openssl_check_primes());
        for g in sieve_groups() {
            let product = g
                .primes
                .iter()
                .map(|q| u128::from(q.divisor()))
                .product::<u128>();
            assert_eq!(u128::from(g.product), product);
        }
        assert_eq!(openssl_check_primes().last(), Some(&17881));
        // A shaped multi-limb value whose residue modulo the first group is
        // 0: not ≡ 1 modulo any prime of that group, although 2^64 - 1 is
        // divisible by 3, 5 and 17.
        let m0 = Natural::from(sieve_groups()[0].product);
        let p = (1u64..)
            .map(|k| &(&m0 * &Natural::from(k)) << 64u64)
            .find(brute_force_shape)
            .unwrap();
        assert!(satisfies_openssl_shape(&p));
    }

    #[test]
    fn word_draws_match_natural_draws() {
        for bits in 1u64..=64 {
            let mut a = StdRng::seed_from_u64(bits);
            let mut b = StdRng::seed_from_u64(bits);
            for _ in 0..8 {
                assert_eq!(
                    Natural::from(random_word_exact(&mut a, bits)),
                    Natural::random_bits_exact(&mut b, bits),
                    "bits={bits}"
                );
            }
        }
    }

    proptest::proptest! {
        /// The sieve's verdict equals the brute-force predicate on 1-, 2-
        /// and 8-limb values, including values forced to `≡ 1` modulo a
        /// random check prime; with trial multiples rejected it also drops
        /// exactly the multiples of the check primes below 1000.
        #[test]
        fn sieve_matches_brute_force(seed in proptest::prelude::any::<u64>(), pick in 0usize..2048) {
            let mut r = StdRng::seed_from_u64(seed);
            let q = Natural::from(openssl_check_primes()[pick]);
            for limbs in [1u64, 2, 8] {
                let v = Natural::random_bits(&mut r, 64 * limbs);
                let one_mod_q = &(&v - &(&v % &q)) + &Natural::one();
                for c in [v, one_mod_q] {
                    let shape = brute_force_shape(&c);
                    proptest::prop_assert_eq!(satisfies_openssl_shape(&c), shape, "{}", c);
                    let residue = |m| c.rem_limb(m);
                    let trial_multiple = openssl_check_primes()
                        .iter()
                        .take_while(|&&q| q < TRIAL_BOUND)
                        .any(|&q| c.rem_limb(q) == 0);
                    proptest::prop_assert_eq!(sieve(residue, true), shape && !trial_multiple, "{}", c);
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(
            generate_prime(&mut a, 64, PrimeShaping::OpensslStyle),
            generate_prime(&mut b, 64, PrimeShaping::OpensslStyle)
        );
    }
}
