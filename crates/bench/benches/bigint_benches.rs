//! Arithmetic ablations (DESIGN.md A2, A3): the sub-quadratic algorithms
//! against their quadratic baselines, across the operand sizes the batch-GCD
//! trees actually produce; and the prime-search path (Miller-Rabin on
//! primes, whole OpenSSL-shaped searches).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use std::hint::black_box;
use wk_bigint::Natural;
use wk_keygen::{generate_prime, PrimeShaping};

fn random_natural(limbs: usize, seed: u64) -> Natural {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Natural::random_bits_exact(&mut rng, limbs as u64 * 64)
}

fn ablation_mul_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_mul_algorithms");
    group.sample_size(10);
    // Sizes straddle the Karatsuba (64 limbs) and NTT (320) thresholds and
    // reach the top of a 1,024-modulus 1024-bit product tree (8,192).
    // `karatsuba` is the transform-free dispatcher (`mul_toom3`: Karatsuba
    // over schoolbook, no NTT at any size).
    for limbs in [16usize, 64, 256, 320, 1024, 4096, 8192] {
        let a = random_natural(limbs, 1);
        let b = random_natural(limbs, 2);
        group.bench_with_input(BenchmarkId::new("dispatched", limbs), &limbs, |bch, _| {
            bch.iter(|| black_box(&a) * black_box(&b))
        });
        if limbs <= 1024 {
            group.bench_with_input(BenchmarkId::new("schoolbook", limbs), &limbs, |bch, _| {
                bch.iter(|| black_box(&a).mul_schoolbook(black_box(&b)))
            });
        }
        if limbs >= 256 {
            group.bench_with_input(BenchmarkId::new("karatsuba", limbs), &limbs, |bch, _| {
                bch.iter(|| black_box(&a).mul_toom3(black_box(&b)))
            });
            group.bench_with_input(BenchmarkId::new("ntt", limbs), &limbs, |bch, _| {
                bch.iter(|| wk_bigint::mul_ntt(black_box(&a), black_box(&b)))
            });
        }
    }
    group.finish();
}

fn ablation_div_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_div_algorithms");
    group.sample_size(10);
    // Dividends twice the divisor (a remainder-tree node over its child)
    // and eight times it (a fold over several chunks), divisors from
    // below the Knuth cutoff (`BZ_THRESHOLD`) to the top of a
    // 1,024-modulus 1024-bit product tree.
    for (shape, times) in [("2m", 2usize), ("8m", 8)] {
        for limbs in [32usize, 128, 512, 2048, 8192] {
            let a = random_natural(times * limbs, 3);
            let b = random_natural(limbs, 4);
            let id = |name: &str| BenchmarkId::new(format!("{name}/{shape}"), limbs);
            group.bench_with_input(id("dispatched"), &limbs, |bch, _| {
                bch.iter(|| black_box(&a).div_rem(black_box(&b)))
            });
            if limbs <= 2048 {
                group.bench_with_input(id("knuth_only"), &limbs, |bch, _| {
                    bch.iter(|| black_box(&a).div_rem_knuth(black_box(&b)))
                });
            }
        }
    }
    group.finish();
}

fn ablation_gcd_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_gcd_algorithms");
    group.sample_size(10);
    // Modulus-sized operands: the final step of batch GCD.
    for limbs in [8usize, 16, 32, 64] {
        let a = random_natural(limbs, 5);
        let b = random_natural(limbs, 6);
        group.bench_with_input(BenchmarkId::new("lehmer", limbs), &limbs, |bch, _| {
            bch.iter(|| black_box(&a).gcd(black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("binary", limbs), &limbs, |bch, _| {
            bch.iter(|| black_box(&a).gcd_binary(black_box(&b)))
        });
    }
    group.finish();
}

fn modpow_primality(c: &mut Criterion) {
    let mut group = c.benchmark_group("modpow_primality");
    group.sample_size(10);
    // Miller-Rabin on primes, so every witness runs to the end: a random odd
    // candidate usually fails trial division and times nothing. 64 bits
    // takes the one-limb word path, 256 and 512 the multi-limb one.
    for bits in [64u64, 256, 512] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let prime = generate_prime(&mut rng, bits, PrimeShaping::Plain);
        group.bench_with_input(BenchmarkId::new("miller_rabin", bits), &bits, |bch, _| {
            bch.iter(|| black_box(&prime).is_probable_prime_fixed())
        });
    }
    // The whole OpenSSL-shaped search: candidate draws, the residue sieve,
    // and Miller-Rabin on the survivors.
    for bits in [64u64, 512] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        group.bench_with_input(
            BenchmarkId::new("generate_openssl", bits),
            &bits,
            |bch, &bits| bch.iter(|| generate_prime(&mut rng, bits, PrimeShaping::OpensslStyle)),
        );
    }
    group.finish();
}

criterion_group! {
    name = bigint;
    config = Criterion::default().sample_size(10);
    targets = ablation_mul_algorithms, ablation_div_algorithms, ablation_gcd_algorithms,
              modpow_primality
}
criterion_main!(bigint);
