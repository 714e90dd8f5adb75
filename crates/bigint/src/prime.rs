//! Primality: small-prime lists, trial division, and Miller-Rabin.
//!
//! The prime list doubles as the data source for the OpenSSL prime
//! fingerprint (Mironov): OpenSSL rejects candidate primes `p` where `p - 1`
//! is divisible by any of the first 2048 odd primes, so fingerprinting needs
//! exactly that prime list.
//!
//! Miller-Rabin has two paths with one verdict. A one-limb `n` runs on
//! machine words ([`WordMontgomery`], precomputed [`WordDivisor`]s) and
//! never allocates; a larger `n` runs on [`Natural`]s. The fixed witnesses
//! decide every `u64` exactly, and the tests check the word path against
//! the multi-limb one.

use crate::modular::{inv_limb_2_64, WordMontgomery};
use crate::natural::Natural;
use rand::RngCore;
use std::sync::OnceLock;

/// Return the first `count` primes (2, 3, 5, ...) by trial division.
pub fn first_primes(count: usize) -> Vec<u64> {
    let mut primes: Vec<u64> = Vec::with_capacity(count);
    if count == 0 {
        return primes;
    }
    primes.push(2);
    let mut candidate = 3u64;
    while primes.len() < count {
        let is_prime = primes
            .iter()
            .take_while(|&&p| p * p <= candidate)
            .all(|&p| !candidate.is_multiple_of(p));
        if is_prime {
            primes.push(candidate);
        }
        candidate += 2;
    }
    primes
}

/// An odd divisor with its inverse modulo `2^64`, for divisibility tests on
/// machine words without a division.
///
/// `d | x` exactly when `x * d^{-1} mod 2^64 <= (2^64 - 1) / d`: the
/// multiples of `d` are the only words the inverse maps into that range
/// (Granlund and Montgomery, "Division by invariant integers").
///
/// # Examples
///
/// ```
/// use wk_bigint::WordDivisor;
/// let seven = WordDivisor::new(7).unwrap();
/// assert!(seven.divides(91));
/// assert!(!seven.divides(92));
/// assert!(seven.divides(0));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WordDivisor {
    divisor: u64,
    inverse: u64,
    limit: u64,
}

impl WordDivisor {
    /// Precompute the test for `divisor`; `None` when it is even (zero
    /// included), since an even number has no inverse modulo `2^64`.
    pub fn new(divisor: u64) -> Option<Self> {
        if divisor & 1 == 0 {
            return None;
        }
        Some(WordDivisor {
            divisor,
            inverse: inv_limb_2_64(divisor),
            limit: u64::MAX / divisor,
        })
    }

    /// The divisor this test was built for.
    pub fn divisor(&self) -> u64 {
        self.divisor
    }

    /// True iff the divisor divides `x`.
    pub fn divides(&self, x: u64) -> bool {
        x.wrapping_mul(self.inverse) <= self.limit
    }
}

/// Primes below 1000, used for cheap trial division before Miller-Rabin.
fn trial_primes() -> &'static [u64] {
    static PRIMES: OnceLock<Vec<u64>> = OnceLock::new();
    PRIMES.get_or_init(|| first_primes(168)) // 168 primes below 1000
}

/// The odd primes of [`trial_primes`] as word divisibility tests.
fn odd_trial_divisors() -> &'static [WordDivisor] {
    static DIVISORS: OnceLock<Vec<WordDivisor>> = OnceLock::new();
    DIVISORS.get_or_init(|| {
        trial_primes()
            .iter()
            .filter_map(|&p| WordDivisor::new(p))
            .collect()
    })
}

/// Deterministic Miller-Rabin witness set: proves primality for all
/// `n < 3.317e24` (Sorenson-Webster) and is an extremely strong
/// probabilistic test beyond that for non-adversarial inputs.
const FIXED_WITNESSES: [u64; 13] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41];

impl Natural {
    /// Probabilistic primality test: trial division by small primes, then
    /// Miller-Rabin with the fixed witness set plus `extra_rounds` random
    /// bases drawn from `rng`.
    ///
    /// For the 512/1024-bit simulator keys this is overwhelming evidence;
    /// the fixed witnesses alone are deterministic below 3.3e24. A one-limb
    /// value is tested on machine words, with the same verdict and the same
    /// draws from `rng`.
    pub fn is_probable_prime<R: RngCore + ?Sized>(&self, extra_rounds: u32, rng: &mut R) -> bool {
        match self.to_u64() {
            Some(n) => word_is_probable_prime(n, extra_rounds, rng),
            None => self.is_probable_prime_limbs(extra_rounds, rng),
        }
    }

    /// [`is_probable_prime`](Natural::is_probable_prime) on `Natural`s, for
    /// any size: the only path above 64 bits, and the reference the word
    /// path is tested against.
    fn is_probable_prime_limbs<R: RngCore + ?Sized>(&self, extra_rounds: u32, rng: &mut R) -> bool {
        if let Some(v) = self.to_u64() {
            if v < 2 {
                return false;
            }
        }
        for &p in trial_primes() {
            if self.to_u64() == Some(p) {
                return true;
            }
            if self.rem_limb(p) == 0 {
                return false;
            }
        }
        // Decompose n-1 = d * 2^s.
        let n_minus_1 = self - &Natural::one();
        let s = n_minus_1.trailing_zeros().expect("n > 2 is odd here"); // lint:allow(no-panic-in-lib) invariant: n odd and > 2, so n-1 >= 2 is nonzero
        let d = &n_minus_1 >> s;

        for &w in FIXED_WITNESSES.iter() {
            let wn = Natural::from(w);
            if &wn % self == Natural::zero() {
                continue; // witness is a multiple of n (tiny n): skip
            }
            if !miller_rabin_round(self, &d, s, &wn) {
                return false;
            }
        }
        for _ in 0..extra_rounds {
            let w = Natural::random_range(rng, &Natural::from(2u64), &n_minus_1);
            if !miller_rabin_round(self, &d, s, &w) {
                return false;
            }
        }
        true
    }

    /// Deterministic-witness-only convenience used where no RNG is at hand.
    pub fn is_probable_prime_fixed(&self) -> bool {
        self.is_probable_prime(0, &mut NoRng)
    }
}

/// Primality of a machine word: the verdict of
/// [`Natural::is_probable_prime_fixed`], which the fixed witnesses make
/// exact for every `u64`, computed without touching the heap.
///
/// # Examples
///
/// ```
/// assert!(wk_bigint::is_prime_u64(0xffff_ffff_ffff_ffc5));
/// assert!(!wk_bigint::is_prime_u64(3_215_031_751)); // strong pseudoprime to 2, 3, 5, 7
/// ```
pub fn is_prime_u64(n: u64) -> bool {
    word_is_probable_prime(n, 0, &mut NoRng)
}

/// The generator handed over when no random witnesses are requested.
struct NoRng;

impl RngCore for NoRng {
    fn next_u32(&mut self) -> u32 {
        unreachable!("no random rounds requested") // lint:allow(no-panic-in-lib) invariant: passed with extra_rounds = 0; a call is a logic bug
    }
    fn next_u64(&mut self) -> u64 {
        unreachable!("no random rounds requested") // lint:allow(no-panic-in-lib) invariant: passed with extra_rounds = 0; a call is a logic bug
    }
    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        unreachable!("no random rounds requested") // lint:allow(no-panic-in-lib) invariant: passed with extra_rounds = 0; a call is a logic bug
    }
    fn try_fill_bytes(&mut self, _dest: &mut [u8]) -> Result<(), rand::Error> {
        unreachable!("no random rounds requested") // lint:allow(no-panic-in-lib) invariant: passed with extra_rounds = 0; a call is a logic bug
    }
}

/// [`Natural::is_probable_prime`] for a one-limb `n`, without touching the
/// heap: the same trial primes, the same fixed witnesses, and random
/// witnesses drawn exactly as `Natural::random_range(rng, 2, n - 1)` draws
/// them (one masked `next_u64` per attempt, rejecting values `>= n - 3`).
fn word_is_probable_prime<R: RngCore + ?Sized>(n: u64, extra_rounds: u32, rng: &mut R) -> bool {
    if n < 2 {
        return false;
    }
    if n & 1 == 0 {
        return n == 2;
    }
    for q in odd_trial_divisors() {
        if n == q.divisor() {
            return true;
        }
        if q.divides(n) {
            return false;
        }
    }
    // n > 997 is odd from here on, so no witness is a multiple of n (the
    // multi-limb path skips those).
    let Some(mont) = WordMontgomery::new(n) else {
        return false;
    };
    let s = (n - 1).trailing_zeros();
    let d = (n - 1) >> s;
    let passes = |w: u64| word_miller_rabin_round(&mont, d, s, w);
    if !FIXED_WITNESSES.iter().all(|&w| passes(w)) {
        return false;
    }
    let width = n - 3;
    let mask = u64::MAX >> width.leading_zeros();
    (0..extra_rounds).all(|_| {
        let offset = loop {
            let x = rng.next_u64() & mask;
            if x < width {
                break x;
            }
        };
        passes(2 + offset)
    })
}

/// One Miller-Rabin round on words, `n - 1 = d * 2^s`: returns `true` when
/// `n` passes for witness `w`.
fn word_miller_rabin_round(mont: &WordMontgomery, d: u64, s: u32, w: u64) -> bool {
    let (one, minus_one) = (mont.one(), mont.minus_one());
    let mut x = mont.pow(mont.to_mont(w), d);
    if x == one || x == minus_one {
        return true;
    }
    for _ in 1..s {
        x = mont.mul(x, x);
        if x == minus_one {
            return true;
        }
        if x == one {
            return false; // nontrivial square root of 1 found
        }
    }
    false
}

/// One Miller-Rabin round: returns `true` when `n` passes for witness `w`.
fn miller_rabin_round(n: &Natural, d: &Natural, s: u64, w: &Natural) -> bool {
    let n_minus_1 = n - &Natural::one();
    let mut x = w.mod_pow(d, n);
    if x.is_one() || x == n_minus_1 {
        return true;
    }
    for _ in 1..s {
        x = x.mod_pow(&Natural::from(2u64), n);
        if x == n_minus_1 {
            return true;
        }
        if x.is_one() {
            return false; // nontrivial square root of 1 found
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn first_primes_prefix() {
        assert_eq!(first_primes(0), Vec::<u64>::new());
        assert_eq!(first_primes(10), vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
        let p2048 = first_primes(2048);
        assert_eq!(p2048.len(), 2048);
        assert_eq!(*p2048.last().unwrap(), 17863); // the 2048th prime
    }

    #[test]
    fn trial_prime_count_below_1000() {
        let p = first_primes(168);
        assert_eq!(*p.last().unwrap(), 997);
    }

    #[test]
    fn small_primality_table() {
        let primes = [2u128, 3, 5, 7, 11, 97, 101, 997, 65537, 1000003];
        let composites = [0u128, 1, 4, 9, 15, 91, 561, 1000001, 65536];
        for p in primes {
            assert!(n(p).is_probable_prime_fixed(), "{p} should be prime");
        }
        for c in composites {
            assert!(!n(c).is_probable_prime_fixed(), "{c} should be composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Fermat liars galore: 561, 1105, 1729, 2465, 2821, 6601, 8911.
        for c in [561u128, 1105, 1729, 2465, 2821, 6601, 8911, 41041] {
            assert!(!n(c).is_probable_prime_fixed(), "{c} is Carmichael");
        }
    }

    #[test]
    fn mersenne_primes_accepted() {
        for e in [13u64, 17, 19, 31, 61, 89, 107, 127] {
            let p = &(&Natural::one() << e) - &Natural::one();
            assert!(p.is_probable_prime_fixed(), "2^{e}-1 is prime");
        }
        // And non-prime Mersenne numbers rejected.
        for e in [11u64, 23, 29, 37, 41] {
            let p = &(&Natural::one() << e) - &Natural::one();
            assert!(!p.is_probable_prime_fixed(), "2^{e}-1 is composite");
        }
    }

    #[test]
    fn random_rounds_agree_with_fixed() {
        let mut rng = rand::rngs::mock::StepRng::new(0x1234_5678, 0x9e37_79b9);
        let p = &(&Natural::one() << 127u64) - &Natural::one();
        assert!(p.is_probable_prime(5, &mut rng));
        let c = &p * &n(3);
        assert!(!c.is_probable_prime(5, &mut rng));
    }

    /// Both Miller-Rabin paths on a one-limb value, which must agree.
    fn word_and_limbs(v: u64) -> bool {
        let word = is_prime_u64(v);
        assert_eq!(
            word,
            n(v.into()).is_probable_prime_limbs(0, &mut NoRng),
            "paths disagree on {v}"
        );
        word
    }

    #[test]
    fn word_divisor_matches_remainder() {
        assert!(WordDivisor::new(0).is_none());
        assert!(WordDivisor::new(10).is_none());
        for d in [1u64, 3, 5, 997, 17881, 0xffff_ffff_ffff_fffb, u64::MAX] {
            let q = WordDivisor::new(d).unwrap();
            for x in [
                0u64,
                1,
                2,
                d - 1,
                d,
                d.wrapping_add(1),
                3 * (d / 3),
                u64::MAX,
            ] {
                assert_eq!(q.divides(x), x % d == 0, "d={d} x={x}");
            }
        }
    }

    #[test]
    fn word_path_matches_sieve_below_2_16() {
        const LIMIT: usize = 1 << 16;
        let mut composite = vec![false; LIMIT];
        composite[0] = true;
        composite[1] = true;
        for i in 2..LIMIT {
            if !composite[i] {
                for j in (i * i..LIMIT).step_by(i) {
                    composite[j] = true;
                }
            }
        }
        for (v, &c) in composite.iter().enumerate() {
            assert_eq!(word_and_limbs(v as u64), !c, "{v}");
        }
    }

    #[test]
    fn word_path_rejects_carmichael_and_strong_pseudoprimes() {
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041] {
            assert!(!word_and_limbs(c), "{c} is Carmichael");
        }
        // 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7;
        // 3825123056546413051 to every base up to 23.
        for c in [3_215_031_751u64, 3_825_123_056_546_413_051] {
            assert!(!word_and_limbs(c), "{c} is a strong pseudoprime");
        }
        assert!(word_and_limbs(0xffff_ffff_ffff_ffc5)); // largest u64 prime
        assert!(!word_and_limbs(u64::MAX));
    }

    #[test]
    fn two_limb_strong_pseudoprime_falls_to_base_41() {
        let c: Natural = "318665857834031151167461".parse().unwrap();
        assert_eq!(c.limb_len(), 2);
        let n_minus_1 = &c - &Natural::one();
        let s = n_minus_1.trailing_zeros().unwrap();
        let d = &n_minus_1 >> s;
        for w in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
            assert!(miller_rabin_round(&c, &d, s, &n(w.into())), "base {w}");
        }
        assert!(!miller_rabin_round(&c, &d, s, &n(41)));
        assert!(!c.is_probable_prime_fixed());
    }

    #[test]
    fn word_path_draws_random_witnesses_like_limbs() {
        use rand::SeedableRng;
        let values = [
            1009u64,
            1_000_003,
            3_215_031_751,
            0xffff_ffff_ffff_ffc5,
            (1 << 61) - 1,
            u64::MAX - 58, // odd composite
        ];
        for v in values {
            let mut a = rand::rngs::StdRng::seed_from_u64(v);
            let mut b = rand::rngs::StdRng::seed_from_u64(v);
            assert_eq!(
                word_is_probable_prime(v, 7, &mut a),
                n(v.into()).is_probable_prime_limbs(7, &mut b),
                "{v}"
            );
            assert_eq!(a.next_u64(), b.next_u64(), "{v}: rng streams diverged");
        }
    }

    proptest::proptest! {
        #[test]
        fn word_path_matches_limbs_on_random_words(v in proptest::prelude::any::<u64>()) {
            word_and_limbs(v);
            word_and_limbs(v | 1);
        }
    }

    #[test]
    fn product_of_two_large_primes_is_composite() {
        let p = &(&Natural::one() << 89u64) - &Natural::one();
        let q = &(&Natural::one() << 107u64) - &Natural::one();
        assert!(!(&p * &q).is_probable_prime_fixed());
    }
}
