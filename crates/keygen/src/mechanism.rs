//! End-to-end mechanism demonstration: from entropy-hole boot to
//! shared-prime keys.
//!
//! This module wires the `wk-rng` device models into real prime generation
//! to reproduce the paper's §2.4 narrative *mechanistically*, not just
//! statistically: two devices boot with identical pool states, generate an
//! identical first prime, and diverge during the second prime search when
//! one device's clock crosses a second boundary.
//!
//! The population simulator does not use this path. It is not much slower
//! per key, since it runs the same prime search (within 1.5x of
//! [`crate::flawed::ModelKeygen`] at 128 and 1,024 bits on a 2-vCPU VM), but
//! it needs a boot profile and a clock per device where the simulator draws
//! whole populations from pool-level parameters. It exists to validate that
//! the statistical model in `flawed` has the right mechanism behind it.

use crate::rsa::RsaPrivateKey;
use rand::RngCore;
use wk_bigint::Natural;
use wk_rng::{DeviceBootProfile, OpensslRand, SimClock, UrandomModel};

/// Simulated timing of one key generation run.
#[derive(Clone, Copy, Debug)]
pub struct KeygenTiming {
    /// Boot timestamp (seconds).
    pub boot_time: u64,
    /// Seconds elapsed during the first prime search (clock advances after
    /// the first prime is found).
    pub first_prime_seconds: u64,
}

/// Generate an RSA keypair on a modeled device, OpenSSL-style.
///
/// The first prime is found with the clock frozen at `boot_time` (the
/// search completes within a second); the clock then advances by
/// `first_prime_seconds` before the second search begins — this is the
/// divergence point the paper describes.
pub fn device_generate_keypair(
    profile: &DeviceBootProfile,
    timing: KeygenTiming,
    device_serial: u64,
    bits: u64,
) -> RsaPrivateKey {
    let clock = SimClock::at(timing.boot_time);
    let mut urandom = UrandomModel::boot(profile, clock.clone(), device_serial, device_serial);
    let mut rand = OpensslRand::seed_from_urandom(&mut urandom, 1);

    let p = search_prime(&mut rand, bits / 2);
    clock.advance(timing.first_prime_seconds);
    loop {
        let q = search_prime(&mut rand, bits / 2);
        if let Ok(key) = RsaPrivateKey::from_primes(p.clone(), q) {
            return key;
        }
    }
}

/// OpenSSL-style prime search over the modeled generator.
fn search_prime<R: RngCore>(rng: &mut R, bits: u64) -> Natural {
    crate::primes::generate_prime(rng, bits, crate::primes::PrimeShaping::OpensslStyle)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BITS: u64 = 128;

    fn hole() -> DeviceBootProfile {
        DeviceBootProfile::entropy_hole("netscreen-fw-6.2")
    }

    #[test]
    fn same_boot_divergent_search_shares_exactly_one_prime() {
        // Device A's first prime search takes 1s, device B's takes 2s: the
        // second prime draws see different clock values and diverge.
        let a = device_generate_keypair(
            &hole(),
            KeygenTiming {
                boot_time: 1_330_000_000,
                first_prime_seconds: 1,
            },
            1,
            BITS,
        );
        let b = device_generate_keypair(
            &hole(),
            KeygenTiming {
                boot_time: 1_330_000_000,
                first_prime_seconds: 2,
            },
            2,
            BITS,
        );
        assert_eq!(a.p, b.p, "first primes must collide");
        assert_ne!(a.q, b.q, "second primes must diverge");
        assert_ne!(a.public.n, b.public.n);
        // And the attack works: one gcd recovers the shared prime.
        let g = a.public.n.gcd(&b.public.n);
        assert_eq!(g, a.p);
    }

    #[test]
    fn same_boot_same_timing_repeats_entire_key() {
        let t = KeygenTiming {
            boot_time: 1_330_000_000,
            first_prime_seconds: 1,
        };
        let a = device_generate_keypair(&hole(), t, 1, BITS);
        let b = device_generate_keypair(&hole(), t, 2, BITS);
        assert_eq!(a.public.n, b.public.n, "identical timing repeats the key");
    }

    #[test]
    fn different_boot_seconds_unrelated_keys() {
        let a = device_generate_keypair(
            &hole(),
            KeygenTiming {
                boot_time: 1_330_000_000,
                first_prime_seconds: 1,
            },
            1,
            BITS,
        );
        let b = device_generate_keypair(
            &hole(),
            KeygenTiming {
                boot_time: 1_330_000_777,
                first_prime_seconds: 1,
            },
            2,
            BITS,
        );
        assert_ne!(a.p, b.p);
        assert!(a.public.n.gcd(&b.public.n).is_one());
    }

    #[test]
    fn healthy_profile_unrelated_even_with_same_timing() {
        let profile = DeviceBootProfile::healthy("fixed-fw-7.0");
        let t = KeygenTiming {
            boot_time: 1_400_000_000,
            first_prime_seconds: 1,
        };
        let a = device_generate_keypair(&profile, t, 1, BITS);
        let b = device_generate_keypair(&profile, t, 2, BITS);
        assert_ne!(a.p, b.p);
        assert!(a.public.n.gcd(&b.public.n).is_one());
    }
}
