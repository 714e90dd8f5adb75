//! Pins the exact primes and keys that prime search draws.
//!
//! Every simulated study, every benchmark corpus and the cached prime bank
//! are functions of `generate_prime`'s output under a seed. A faster search
//! must accept exactly the same candidates in the same order, so this test
//! hashes a fixed sample of its output and compares it with a digest
//! recorded before the search was rewritten on machine words.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wk_bigint::Natural;
use wk_keygen::{generate_prime, KeygenBehavior, ModelKeygen, PrimeShaping};

/// FNV-1a over each value's big-endian bytes, each preceded by its length.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, n: &Natural) {
        let bytes = n.to_bytes_be();
        for b in (bytes.len() as u64).to_le_bytes().iter().chain(&bytes) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[test]
fn prime_search_output_is_pinned() {
    let mut digest = Digest::new();
    let mut rng = StdRng::seed_from_u64(0x5eed_2016);
    for bits in [16u64, 17, 24, 32, 48, 63, 64, 65, 128] {
        for shaping in [
            PrimeShaping::OpensslStyle,
            PrimeShaping::Plain,
            PrimeShaping::Safe,
        ] {
            for _ in 0..4 {
                digest.add(&generate_prime(&mut rng, bits, shaping));
            }
        }
    }
    for _ in 0..3 {
        digest.add(&generate_prime(&mut rng, 512, PrimeShaping::OpensslStyle));
    }
    let behaviors = [
        KeygenBehavior::Healthy {
            shaping: PrimeShaping::OpensslStyle,
        },
        KeygenBehavior::SharedPrimePool {
            shaping: PrimeShaping::Plain,
            pool_size: 3,
        },
        KeygenBehavior::NinePrime {
            shaping: PrimeShaping::Safe,
        },
        KeygenBehavior::RepeatedKeys {
            shaping: PrimeShaping::OpensslStyle,
            distinct: 2,
        },
    ];
    for (seed, behavior) in behaviors.into_iter().enumerate() {
        let mut keygen = ModelKeygen::new(behavior, 128, seed as u64);
        for _ in 0..6 {
            let key = keygen.generate();
            digest.add(&key.p);
            digest.add(&key.q);
        }
    }
    assert_eq!(
        digest.0, 0x1d77_8cd5_d931_2727,
        "prime search drew different primes: digest {:#018x}",
        digest.0
    );
}
