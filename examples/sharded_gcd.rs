//! Sharded batch GCD: corpus export → persistent shard store → factored
//! keys, without ever holding the whole corpus in memory during the GCD.
//!
//! Walks the disk-backed workflow from DESIGN.md §7: generate a device
//! population with a shared-prime flaw, intern the moduli into a scan
//! corpus, export it as fixed-capacity checksummed shards, re-open the
//! store as a later analysis run would, and let the work-stealing pool
//! pull shards on demand. The factorizations are byte-identical to the
//! in-memory classic pass — the example checks.
//!
//! ```sh
//! cargo run --release --example sharded_gcd
//! ```

use rand::SeedableRng;
use wk_batchgcd::{batch_gcd, sharded_batch_gcd, KeyStatus, ShardStore};
use wk_bigint::Natural;
use wk_keygen::{KeygenBehavior, ModelKeygen, PrimeShaping, RsaPrivateKey};
use wk_scan::ModulusStore;

fn main() {
    // A small population: 12 devices drawing primes from an
    // entropy-starved 4-prime pool, 8 healthy devices.
    let mut flawed = ModelKeygen::new(
        KeygenBehavior::SharedPrimePool {
            shaping: PrimeShaping::OpensslStyle,
            pool_size: 4,
        },
        512,
        1234,
    );
    let mut healthy_rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut corpus = ModulusStore::default();
    for _ in 0..12 {
        corpus.intern(&flawed.generate().public.n);
    }
    for _ in 0..8 {
        let key = RsaPrivateKey::generate(&mut healthy_rng, 512, PrimeShaping::OpensslStyle);
        corpus.intern(&key.public.n);
    }
    println!("corpus: {} distinct 512-bit moduli", corpus.len());

    // Export to disk: shards of at most 5 moduli, each with a versioned,
    // CRC-checked header (format: DESIGN.md §7).
    let dir = std::env::temp_dir().join(format!("sharded-gcd-example-{}", std::process::id()));
    let store = corpus.export_shards(&dir, 5).expect("export corpus shards");
    println!(
        "exported {} shards, {} bytes under {}",
        store.shard_count(),
        store.bytes_on_disk(),
        store.dir().display()
    );

    // A later run re-attaches to the same directory — nothing but the
    // shard files is needed.
    let reopened = ShardStore::open(store.dir()).expect("re-open shard store");

    // Batch GCD with workers claiming shards on demand; peak resident
    // moduli = one shard per worker, not the corpus.
    let result = sharded_batch_gcd(&reopened, 2).expect("sharded batch GCD");
    println!(
        "sharded run: {} of {} keys factorable; {} shards of {} bytes, each streamed twice",
        result.vulnerable_count(),
        reopened.total_moduli(),
        reopened.shard_count(),
        reopened.bytes_on_disk(),
    );

    for (idx, status) in result.statuses.iter().enumerate() {
        if let KeyStatus::Factored { p, q } = status {
            println!(
                "  modulus #{idx}: p has {} bits, q has {} bits",
                p.bit_len(),
                q.bit_len()
            );
        }
    }

    // The disk-backed run is byte-identical to the in-memory classic pass.
    let classic = batch_gcd(corpus.all(), 2);
    assert_eq!(result.raw_divisors, classic.raw_divisors);
    assert_eq!(result.statuses, classic.statuses);
    println!("verified: identical output to in-memory batch GCD");

    // Recover one private key end to end from the sharded run's output.
    if let Some(idx) = result.vulnerable_indices().first().copied() {
        let (p, _) = result.statuses[idx].factors().expect("factored");
        let n: &Natural = &corpus.all()[idx];
        let private = RsaPrivateKey::from_factor(n, p).expect("rebuild private key");
        let secret = Natural::from(0x5ec2e7u64);
        let recovered = private.decrypt_raw(&private.public.encrypt_raw(&secret));
        assert_eq!(recovered, secret);
        println!("key #{idx}: private key rebuilt from shard-store output, decryption OK");
    }

    reopened.remove().expect("remove shard store");
}
