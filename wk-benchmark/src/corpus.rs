//! The shared input `C(seed)`: RSA moduli with their primes as ground truth.
//!
//! Prime search dominates key generation (about 29 ms per 512-bit prime on
//! one core), far too slow to redo for every seed. So the primes come from a
//! seed-independent **bank**, generated once per checkout with
//! [`wk_keygen::generate_prime`] under OpenSSL shaping and cached on disk.
//! A seed then only decides how the bank becomes a corpus: which primes form
//! the shared pool, which keys draw from it, how the rest pair up, and the
//! order of the keys. Assembling a corpus is a shuffle plus one multiply per
//! key, so every seed is cheap.
//!
//! The bank is split into [`BANK_CHUNKS`] chunks, each with its own RNG
//! seed, so its bytes do not depend on how many threads generated it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;
use wk_batchgcd::{crc32, KeyStatus};
use wk_bigint::Natural;
use wk_keygen::{generate_prime, PrimeShaping};

/// Share of keys drawn over the shared prime pool.
pub const WEAK_FRACTION: f64 = 0.04;
/// Chunks the prime bank is generated in. Fixed, so the bank is the same on
/// any machine whatever its thread count.
pub const BANK_CHUNKS: usize = 64;
const BANK_SEED: u64 = 0x5745_414b_4b45_5953; // "WEAKKEYS"
const BANK_MAGIC: &[u8; 8] = b"WKBBANK1";
const CORPUS_MAGIC: &[u8; 8] = b"WKBCORP1";
/// Pool slot stored for a key that draws no pool prime.
const NO_POOL: u32 = u32::MAX;

/// Modulus size and key count of a corpus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Modulus bits; each prime has half as many.
    pub bits: u64,
    /// Keys (moduli) in the corpus.
    pub keys: usize,
}

impl Shape {
    /// The benchmark corpus: 2,048 moduli of 1,024 bits.
    pub const PAPER: Shape = Shape {
        bits: 1024,
        keys: 2048,
    };

    /// Checks the shape can be built: whole-byte primes of at least 32
    /// bits and room for a shared pool.
    pub fn validate(&self) -> Result<(), String> {
        if self.bits < 64 || !self.bits.is_multiple_of(16) {
            return Err(format!(
                "--bits {} must be a multiple of 16, at least 64",
                self.bits
            ));
        }
        if self.keys < 16 {
            return Err(format!("--keys {} must be at least 16", self.keys));
        }
        Ok(())
    }

    /// Keys drawn over the shared pool.
    pub fn weak(&self) -> usize {
        ((self.keys as f64 * WEAK_FRACTION).round() as usize).max(2)
    }

    /// Size of the shared pool (`weak / 4`).
    pub fn pool(&self) -> usize {
        (self.weak() / 4).max(1)
    }

    /// Primes in the bank: enough for two fresh primes per key.
    pub fn bank_len(&self) -> usize {
        2 * self.keys
    }

    fn prime_bytes(&self) -> usize {
        (self.bits / 16) as usize
    }
}

/// The seed-independent prime bank.
pub struct Bank {
    /// Shape the bank serves.
    pub shape: Shape,
    /// Distinct primes of `shape.bits / 2` bits.
    pub primes: Vec<Natural>,
    /// Seconds the bank took to generate (recorded in the cache file).
    pub generation_s: f64,
}

impl Bank {
    /// Generates the bank on `threads` threads. Chunk `c` always draws from
    /// the same RNG stream, so the result is independent of `threads`.
    pub fn generate(shape: Shape, threads: usize) -> Result<Bank, String> {
        shape.validate()?;
        let start = Instant::now();
        let per_chunk = shape.bank_len().div_ceil(BANK_CHUNKS);
        let threads = threads.clamp(1, BANK_CHUNKS);
        let mut chunks: Vec<(usize, Vec<Natural>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        (t..BANK_CHUNKS)
                            .step_by(threads)
                            .map(|c| {
                                let mut rng =
                                    StdRng::seed_from_u64(mix(BANK_SEED ^ shape.bits, c as u64));
                                let primes = (0..per_chunk)
                                    .map(|_| {
                                        generate_prime(
                                            &mut rng,
                                            shape.bits / 2,
                                            PrimeShaping::OpensslStyle,
                                        )
                                    })
                                    .collect();
                                (c, primes)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("prime bank worker panicked"))
                .collect()
        });
        chunks.sort_by_key(|(c, _)| *c);
        let mut primes: Vec<Natural> = chunks.into_iter().flat_map(|(_, p)| p).collect();
        primes.truncate(shape.bank_len());
        let bank = Bank {
            shape,
            primes,
            generation_s: start.elapsed().as_secs_f64(),
        };
        bank.check()?;
        Ok(bank)
    }

    /// Loads the cached bank under `dir`, generating and caching it when it
    /// is missing or fails its checks.
    pub fn load_or_generate(dir: &Path, shape: Shape, threads: usize) -> Result<Bank, String> {
        let path = dir.join(format!("bank-{}x{}.bin", shape.bits, shape.bank_len()));
        match fs::read(&path) {
            Ok(bytes) => match Bank::decode(&bytes, shape) {
                Ok(bank) => return Ok(bank),
                Err(e) => eprintln!("wk-benchmark: regenerating {}: {e}", path.display()),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        }
        eprintln!(
            "wk-benchmark: generating a bank of {} {}-bit primes on {threads} threads (once per checkout)",
            shape.bank_len(),
            shape.bits / 2
        );
        let bank = Bank::generate(shape, threads)?;
        write_atomic(&path, &bank.encode())?;
        Ok(bank)
    }

    fn check(&self) -> Result<(), String> {
        if self.primes.len() != self.shape.bank_len() {
            return Err(format!(
                "bank holds {} primes, want {}",
                self.primes.len(),
                self.shape.bank_len()
            ));
        }
        let mut seen = std::collections::HashSet::with_capacity(self.primes.len());
        for (i, p) in self.primes.iter().enumerate() {
            if p.bit_len() != self.shape.bits / 2 || p.is_even() {
                return Err(format!(
                    "bank prime {i} has {} bits or is even",
                    p.bit_len()
                ));
            }
            if !seen.insert(p.limbs().to_vec()) {
                return Err(format!("bank prime {i} repeats"));
            }
        }
        Ok(())
    }

    fn encode(&self) -> Vec<u8> {
        let width = self.shape.prime_bytes();
        let mut payload = Vec::with_capacity(self.primes.len() * width);
        for p in &self.primes {
            push_fixed(&mut payload, p, width);
        }
        let mut out = Vec::with_capacity(40 + payload.len());
        out.extend_from_slice(BANK_MAGIC);
        out.extend_from_slice(&self.shape.bits.to_le_bytes());
        out.extend_from_slice(&(self.primes.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.generation_s.to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn decode(bytes: &[u8], shape: Shape) -> Result<Bank, String> {
        let mut r = Reader(bytes);
        if r.take(8)? != BANK_MAGIC {
            return Err("bad magic".into());
        }
        if r.u64()? != shape.bits || r.u64()? != shape.bank_len() as u64 {
            return Err("shape differs".into());
        }
        let generation_s = f64::from_le_bytes(r.array()?);
        let crc = u32::from_le_bytes(r.array()?);
        let payload = r.0;
        let width = shape.prime_bytes();
        if payload.len() != shape.bank_len() * width || crc32(payload) != crc {
            return Err("payload length or checksum differs".into());
        }
        let primes = payload.chunks(width).map(Natural::from_bytes_be).collect();
        let bank = Bank {
            shape,
            primes,
            generation_s,
        };
        bank.check()?;
        Ok(bank)
    }
}

/// One key of the corpus: its primes (`p < q`) and, for a weak key, the
/// pool slot its shared prime came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Key {
    /// Smaller prime.
    pub p: Natural,
    /// Larger prime.
    pub q: Natural,
    /// Shared-pool slot, for keys drawn over the pool.
    pub pool: Option<u32>,
}

/// `C(seed)`: moduli plus generator ground truth, index-aligned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Corpus {
    /// The seed the corpus was assembled from.
    pub seed: u64,
    /// Its shape.
    pub shape: Shape,
    /// `p * q` per key.
    pub moduli: Vec<Natural>,
    /// Ground truth per key.
    pub keys: Vec<Key>,
    /// A key whose expected vulnerability is inverted ([`Corpus::tamper`]).
    pub inverted: Option<usize>,
}

impl Corpus {
    /// Assembles `C(seed)` from the bank: a seed-driven shuffle picks the
    /// pool (`weak / 4` primes), the weak keys' fresh primes and the healthy
    /// pairs, then spreads the weak keys through the whole order. Every
    /// pool prime serves at least two keys, so every weak key is factorable.
    pub fn assemble(bank: &Bank, seed: u64) -> Corpus {
        let shape = bank.shape;
        let mut rng = StdRng::seed_from_u64(mix(seed, 0xc0de));
        let mut order: Vec<usize> = (0..bank.primes.len()).collect();
        shuffle(&mut order, &mut rng);
        let mut fresh = order.into_iter().map(|i| bank.primes[i].clone());
        let mut next = || fresh.next().expect("the bank holds two primes per key");
        let pool: Vec<Natural> = (0..shape.pool()).map(|_| next()).collect();
        let mut keys = Vec::with_capacity(shape.keys);
        for j in 0..shape.weak() {
            let slot = if j < 2 * pool.len() {
                j / 2
            } else {
                rng.gen_range(0..pool.len())
            };
            keys.push(Key::new(pool[slot].clone(), next(), Some(slot as u32)));
        }
        while keys.len() < shape.keys {
            keys.push(Key::new(next(), next(), None));
        }
        shuffle(&mut keys, &mut rng);
        let moduli = keys.iter().map(|k| &k.p * &k.q).collect();
        Corpus {
            seed,
            shape,
            moduli,
            keys,
            inverted: None,
        }
    }

    /// Loads `C(seed)` from its cache file under `dir`, assembling and
    /// caching it first when missing or failing its checks. Returns the
    /// corpus and whether it was (re)assembled.
    pub fn load_or_assemble(dir: &Path, bank: &Bank, seed: u64) -> Result<(Corpus, bool), String> {
        let path = Corpus::path(dir, bank.shape, seed);
        match Corpus::load(&path, bank.shape, seed) {
            Ok(corpus) => return Ok((corpus, false)),
            Err(e) if path.exists() => {
                eprintln!("wk-benchmark: reassembling {}: {e}", path.display())
            }
            Err(_) => {}
        }
        let corpus = Corpus::assemble(bank, seed);
        write_atomic(&path, &corpus.to_bytes())?;
        Ok((corpus, true))
    }

    /// Cache file of `C(seed)` for `shape` under `dir`.
    pub fn path(dir: &Path, shape: Shape, seed: u64) -> PathBuf {
        dir.join(format!(
            "corpus-{}x{}-seed{seed}.bin",
            shape.bits, shape.keys
        ))
    }

    /// Reads and checks a corpus file: count, bit lengths, and `p·q = N`.
    pub fn load(path: &Path, shape: Shape, seed: u64) -> Result<Corpus, String> {
        let bytes = fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let corpus = Corpus::from_bytes(&bytes)?;
        if corpus.shape != shape || corpus.seed != seed {
            return Err("corpus file is for another shape or seed".into());
        }
        Ok(corpus)
    }

    /// Serializes the corpus: header, then per key `p`, `q`, pool slot, `N`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let width = self.shape.prime_bytes();
        let mut payload = Vec::new();
        for (key, n) in self.keys.iter().zip(&self.moduli) {
            push_fixed(&mut payload, &key.p, width);
            push_fixed(&mut payload, &key.q, width);
            payload.extend_from_slice(&key.pool.unwrap_or(NO_POOL).to_le_bytes());
            push_fixed(&mut payload, n, 2 * width);
        }
        let mut out = Vec::with_capacity(40 + payload.len());
        out.extend_from_slice(CORPUS_MAGIC);
        out.extend_from_slice(&self.shape.bits.to_le_bytes());
        out.extend_from_slice(&(self.keys.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parses and checks [`Corpus::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<Corpus, String> {
        let mut r = Reader(bytes);
        if r.take(8)? != CORPUS_MAGIC {
            return Err("bad magic".into());
        }
        let shape = Shape {
            bits: r.u64()?,
            keys: r.u64()? as usize,
        };
        shape.validate()?;
        let seed = r.u64()?;
        let crc = u32::from_le_bytes(r.array()?);
        let width = shape.prime_bytes();
        let record = 4 * width + 4;
        if r.0.len() != shape.keys * record || crc32(r.0) != crc {
            return Err("payload length or checksum differs".into());
        }
        let mut keys = Vec::with_capacity(shape.keys);
        let mut moduli = Vec::with_capacity(shape.keys);
        for i in 0..shape.keys {
            let p = Natural::from_bytes_be(r.take(width)?);
            let q = Natural::from_bytes_be(r.take(width)?);
            let slot = u32::from_le_bytes(r.array()?);
            let n = Natural::from_bytes_be(r.take(2 * width)?);
            let prime_bits = shape.bits / 2;
            if p.bit_len() != prime_bits || q.bit_len() != prime_bits || p >= q {
                return Err(format!("key {i}: primes out of shape"));
            }
            if !(shape.bits - 1..=shape.bits).contains(&n.bit_len()) || &p * &q != n {
                return Err(format!("key {i}: p·q ≠ N or N has {} bits", n.bit_len()));
            }
            keys.push(Key {
                p,
                q,
                pool: (slot != NO_POOL).then_some(slot),
            });
            moduli.push(n);
        }
        Ok(Corpus {
            seed,
            shape,
            moduli,
            keys,
            inverted: None,
        })
    }

    /// CRC-32 of the serialized corpus: the corpus-cache hash in run
    /// metadata.
    pub fn fingerprint(&self) -> u32 {
        crc32(&self.to_bytes())
    }

    /// Ground truth over the prefix `C[..len]`: a key is vulnerable when
    /// its pool prime serves at least one other key of the prefix.
    pub fn vulnerable(&self, len: usize) -> Vec<bool> {
        let mut uses = vec![0usize; self.shape.pool()];
        for key in &self.keys[..len] {
            if let Some(slot) = key.pool {
                uses[slot as usize] += 1;
            }
        }
        self.keys[..len]
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let shared = k.pool.is_some_and(|slot| uses[slot as usize] >= 2);
                shared != (self.inverted == Some(i))
            })
            .collect()
    }

    /// Checks batch-GCD statuses over the prefix `C[..statuses.len()]`: the
    /// vulnerable set equals ground truth and each `Factored {p, q}` equals
    /// the generated primes.
    pub fn check_statuses(&self, statuses: &[KeyStatus]) -> Result<(), String> {
        if statuses.len() > self.keys.len() {
            return Err(format!(
                "{} statuses for {} keys",
                statuses.len(),
                self.keys.len()
            ));
        }
        for (i, (status, vulnerable)) in statuses
            .iter()
            .zip(self.vulnerable(statuses.len()))
            .enumerate()
        {
            let key = &self.keys[i];
            let ok = match status {
                KeyStatus::NotVulnerable => !vulnerable,
                KeyStatus::Factored { p, q } => vulnerable && *p == key.p && *q == key.q,
                KeyStatus::SharedUnresolved => false,
            };
            if !ok {
                return Err(format!(
                    "key {i}: got {status:?}, truth says vulnerable = {vulnerable}"
                ));
            }
        }
        Ok(())
    }

    /// Corrupts the expected set: key 0, which every workload's input
    /// holds, gets its expected vulnerability inverted, so every check
    /// that covers it fails. Used to prove the checks bite.
    pub fn tamper(&mut self) {
        self.inverted = Some(0);
    }
}

impl Key {
    fn new(a: Natural, b: Natural, pool: Option<u32>) -> Key {
        let (p, q) = if a < b { (a, b) } else { (b, a) };
        Key { p, q, pool }
    }
}

/// splitmix64 of `seed + stream`: independent RNG seeds per stream.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Publishes `bytes` at `path` atomically (the audit daemon's
/// write-fsync-rename), creating the directory first, so a reader never
/// sees a half-written cache or result file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    wk_service::provenance::write_atomic(path, bytes)
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Appends `n` big-endian, left-padded to `width` bytes.
fn push_fixed(out: &mut Vec<u8>, n: &Natural, width: usize) {
    let bytes = n.to_bytes_be();
    out.resize(out.len() + width - bytes.len(), 0);
    out.extend_from_slice(&bytes);
}

struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.0.len() < n {
            return Err("truncated".into());
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array()?))
    }
}
