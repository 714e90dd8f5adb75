//! Incremental batch GCD: a persisted tree cache plus a delta-update path.
//!
//! The paper's scans arrive month by month, but a from-scratch batch GCD
//! over the cumulative corpus repeats almost all of its work every month:
//! with `N` cached moduli and `M` new ones (`M << N`), the product tree
//! over the union redoes `O(N log N)` huge multiplies to incorporate `M`
//! leaves. This module makes a new month cost work proportional to the
//! *delta*:
//!
//! * [`TreeCache`] persists, per corpus [`ShardStore`], the per-shard
//!   subtree roots and the previous run's raw-divisor hits — in the same
//!   limb codec and CRC scheme as the shard files themselves (DESIGN.md §8
//!   specifies the format field by field). The corpus product `P_old` is
//!   the product of the roots and is never stored;
//! * [`incremental_batch_gcd`] resolves *new* moduli against the full
//!   corpus with two jobs down the small product tree over the delta — its
//!   own cofactor job and `P_old mod P_new`, built from the cached roots —
//!   and finds *old* moduli sharing a prime with the delta by testing the
//!   roots' residues against the delta's divisors, with per-modulus work
//!   only in the shards a divisor reaches.
//!
//! The output is byte-identical to a from-scratch run over the union
//! (cross-checked in `tests/incremental_equiv.rs`; DESIGN.md §8.1 has the
//! argument): both kinds of modulus fold their divisors by
//! `gcd(N, a*b) = gcd(N, gcd(N,a) * gcd(N,b))`, the rule every path uses.
//!
//! # Examples
//!
//! ```
//! use wk_batchgcd::{incremental_batch_gcd, scratch_dir, ShardStore, TreeCache};
//! use wk_bigint::Natural;
//!
//! // Month 1: 33 = 3*11 and 323 = 17*19 — no shared prime yet.
//! let month1: Vec<Natural> = [33u64, 323].map(Natural::from).to_vec();
//! let store_dir = scratch_dir("incr-doc-store");
//! let cache_dir = scratch_dir("incr-doc-cache");
//! let mut store = ShardStore::create(&store_dir, 2, &month1).unwrap();
//! let (mut cache, first) = TreeCache::build(&cache_dir, &store, 1).unwrap();
//! assert_eq!(first.vulnerable_count(), 0);
//!
//! // Month 2 arrives: 39 = 3*13 shares the prime 3 with the cached 33.
//! let month2 = vec![Natural::from(39u64)];
//! let res = incremental_batch_gcd(&mut store, &mut cache, &month2, 2, 1).unwrap();
//! assert_eq!(res.vulnerable_count(), 2); // the old 33 and the new 39
//! cache.remove().unwrap();
//! store.remove().unwrap();
//! ```

use crate::classic::{leaf_divisors, merge_divisor, BatchGcdResult, BatchStats};
use crate::corpus::{
    check_capacity, crc32, decode_natural, encode_natural, run_sharded, CorpusError, Crc32,
    ShardAssembly, ShardLeaves, ShardStore,
};
use crate::durable::{self, take_u64, Frame, FrameError, FrameHeader, FRAME_HEADER_LEN};
use crate::pool::{Exec, WorkerPool};
use crate::resolve::resolve_with_hits;
use crate::tree::{product_root, Descent, ProductTree, TreeError};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wk_bigint::Natural;

/// Magic bytes opening every tree-cache section file (`"WKTREEC1"`).
pub const CACHE_MAGIC: [u8; 8] = *b"WKTREEC1";

/// On-disk tree-cache format version this build reads and writes.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// Size of the fixed section header in bytes: the shared framed header
/// (DESIGN.md §8.2), with a section id as its id.
pub const CACHE_HEADER_LEN: usize = FRAME_HEADER_LEN;

/// The tree-cache format's frame: [`CACHE_MAGIC`] at
/// [`CACHE_FORMAT_VERSION`]. Cluster exchange roots use it too.
pub const CACHE_FRAME: Frame = Frame {
    magic: CACHE_MAGIC,
    version: CACHE_FORMAT_VERSION,
};

const SECTION_ROOTS: u32 = 1;
const SECTION_HITS: u32 = 3;

const ROOTS_FILE: &str = "roots.wkc";
const HITS_FILE: &str = "hits.wkc";
/// Every file a cache directory may hold, for [`TreeCache::remove_at`].
/// The last two are sections 2 and 4 of caches written by older builds
/// (the corpus product and persisted shard-root reciprocals): nothing
/// reads them, every persist deletes them, and removal takes them so an
/// old cache directory goes whole.
const CACHE_FILES: [&str; 4] = [ROOTS_FILE, HITS_FILE, "top.wkc", "recips.wkc"];

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong building, opening, or delta-updating a
/// [`TreeCache`]. Stale and corrupt caches are distinct, typed conditions —
/// both mean "rebuild with [`TreeCache::build`]", but a stale cache is a
/// normal operational state (the store moved on) while a corrupt one is
/// damage worth reporting.
#[derive(Debug)]
pub enum IncrementalError {
    /// The underlying shard store failed (I/O, corruption, capacity
    /// mismatch on append).
    Corpus(CorpusError),
    /// The delta slice itself was unusable (a zero modulus).
    Delta(TreeError),
    /// The cache is internally consistent but was built for a different
    /// corpus state than the store presents (shard count, per-shard CRC, or
    /// total-modulus mismatch; or sections written by different runs).
    Stale {
        /// The cache directory.
        path: PathBuf,
        /// Which binding check failed.
        detail: String,
    },
    /// A cache section file is structurally damaged: bad magic, version
    /// skew, truncation, checksum mismatch, or a malformed payload.
    CacheCorrupt {
        /// The offending section file (or the cache directory).
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncrementalError::Corpus(e) => write!(f, "{e}"),
            IncrementalError::Delta(e) => write!(f, "invalid delta: {e}"),
            IncrementalError::Stale { path, detail } => {
                write!(f, "{}: stale tree cache: {detail}", path.display())
            }
            IncrementalError::CacheCorrupt { path, detail } => {
                write!(f, "{}: corrupt tree cache: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for IncrementalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IncrementalError::Corpus(e) => Some(e),
            IncrementalError::Delta(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CorpusError> for IncrementalError {
    fn from(e: CorpusError) -> IncrementalError {
        IncrementalError::Corpus(e)
    }
}

impl From<io::Error> for IncrementalError {
    fn from(e: io::Error) -> IncrementalError {
        IncrementalError::Corpus(CorpusError::Io(e))
    }
}

// ---------------------------------------------------------------------------
// Delta metrics
// ---------------------------------------------------------------------------

/// Per-phase accounting for one incremental run, surfaced on
/// [`BatchStats`]. From-scratch runs leave it all-zero (the `Default`).
/// The times are wall-clock times of the three delta phases; executor
/// metrics live on [`BatchStats`] itself ([`incremental_batch_gcd`] says
/// which domain counts what).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaMetrics {
    /// New moduli resolved this run (the delta size `M`).
    pub delta_count: u64,
    /// Previously-cached moduli the run resolved against (`N`).
    pub cached_count: u64,
    /// Wall-clock time of the delta product tree, the plain job's seed from
    /// the cached roots, and the leaf pass.
    pub delta_tree_time: Duration,
    /// Wall-clock time of the sweep: testing each old shard against the
    /// delta's divisors, reading the shards they reach or that hold a hit,
    /// and folding the divisors into the reached shards' moduli.
    pub delta_sweep_time: Duration,
    /// Wall-clock time appending the delta shards and persisting the
    /// updated cache (the new shards' chunk products and the two section
    /// rewrites).
    pub delta_cache_update_time: Duration,
}

impl DeltaMetrics {
    /// True when no incremental run happened (a from-scratch run's
    /// `Default`).
    pub fn is_empty(&self) -> bool {
        self.delta_count == 0 && self.cached_count == 0
    }

    /// Total wall-clock time across the three delta phases.
    pub fn total_time(&self) -> Duration {
        self.delta_tree_time + self.delta_sweep_time + self.delta_cache_update_time
    }
}

// ---------------------------------------------------------------------------
// Section I/O
// ---------------------------------------------------------------------------

/// Write one section file atomically: the framed header and payload,
/// replace-published by [`durable::write_atomic`] (tmp, fsync, rename,
/// fsync of the directory). A crash mid-update leaves the previous section
/// in place; mixed old/new sections are caught by the per-section state tag
/// at open time.
///
/// Public because the `WKTREEC1` section format is also the cluster
/// exchange format (DESIGN.md §12): out-of-crate writers produce section
/// files this crate's [`read_section`] validates. The rename makes this
/// last-writer-wins; the cluster exchange frames its roots with
/// [`CACHE_FRAME`] and publishes them first-wins instead
/// ([`durable::publish_once`]).
pub fn write_section(
    dir: &Path,
    name: &str,
    section: u32,
    count: u64,
    payload: &[u8],
) -> io::Result<()> {
    let header = CACHE_FRAME.encode(&FrameHeader::new(section, count, payload));
    durable::write_atomic(&dir.join(name), &[&header, payload])
}

fn corrupt(path: &Path, detail: impl Into<String>) -> IncrementalError {
    IncrementalError::CacheCorrupt {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// Read and validate one `WKTREEC1` section file; returns `(count,
/// payload)` after checking magic, format version, the expected section
/// id, the header's payload length, and the payload CRC. Shared with the
/// cluster exchange reader — any torn or corrupt section surfaces as a
/// typed [`IncrementalError::CacheCorrupt`], never a wrong answer.
pub fn read_section(path: &Path, section: u32) -> Result<(u64, Vec<u8>), IncrementalError> {
    let mut file = File::open(path).map_err(|e| {
        if e.kind() == io::ErrorKind::NotFound {
            corrupt(path, "cache section file missing")
        } else {
            IncrementalError::Corpus(CorpusError::Io(e))
        }
    })?;
    let h = CACHE_FRAME.read(&mut file).map_err(|e| match e {
        FrameError::Truncated => corrupt(path, "truncated section header"),
        FrameError::BadMagic(found) => corrupt(path, format!("bad magic {found:02x?}")),
        FrameError::VersionSkew(version) => corrupt(
            path,
            format!("format version {version} (this build supports {CACHE_FORMAT_VERSION})"),
        ),
        FrameError::Io(e) => IncrementalError::Corpus(CorpusError::Io(e)),
    })?;
    if h.id != section {
        return Err(corrupt(
            path,
            format!("section id {}, expected {section}", h.id),
        ));
    }
    let mut payload = Vec::new();
    file.read_to_end(&mut payload)
        .map_err(CorpusError::Io)
        .map_err(IncrementalError::Corpus)?;
    if payload.len() as u64 != h.payload_len {
        return Err(corrupt(
            path,
            format!(
                "payload is {} bytes but header says {}",
                payload.len(),
                h.payload_len
            ),
        ));
    }
    let actual = crc32(&payload);
    if actual != h.crc {
        return Err(corrupt(
            path,
            format!("payload CRC {actual:08x} != header CRC {:08x}", h.crc),
        ));
    }
    Ok((h.count, payload))
}

/// `CacheCorrupt` unless a section payload was consumed exactly.
fn expect_end(path: &Path, rest: &[u8], after: &str) -> Result<(), IncrementalError> {
    if rest.is_empty() {
        return Ok(());
    }
    Err(corrupt(
        path,
        format!("{} trailing bytes after {after}", rest.len()),
    ))
}

/// Pre-allocation for `count` records claimed by a section header. The
/// header is outside the payload CRC, so the claim is capped by what the
/// payload can hold (every record is at least 8 bytes); a count beyond that
/// fails record by record as [`IncrementalError::CacheCorrupt`].
fn capacity_for(count: u64, payload: &[u8]) -> usize {
    usize::try_from(count)
        .unwrap_or(usize::MAX)
        .min(payload.len() / 8)
}

/// Consume one natural record (the shared limb codec,
/// [`encode_natural`]) from `rest`. Public
/// alongside [`read_section`] for exchange-payload parsers.
pub fn take_natural(rest: &mut &[u8], scratch: &mut Vec<u8>) -> io::Result<Natural> {
    let max_limbs = (rest.len() as u64).saturating_sub(8) / 8;
    let (n, _len) = decode_natural(rest, scratch, max_limbs)?;
    Ok(n)
}

// ---------------------------------------------------------------------------
// TreeCache
// ---------------------------------------------------------------------------

/// The persisted product-tree state of one [`ShardStore`]: per-shard
/// subtree roots and the previous cumulative run's raw-divisor hits. The
/// checksummed section files live in the cache directory (`roots.wkc`,
/// `hits.wkc`; format in DESIGN.md §8), each carrying a state tag binding
/// it to the exact shard
/// CRCs of the store it was computed from — any divergence surfaces as
/// [`IncrementalError::Stale`] rather than a silently wrong answer.
#[derive(Clone, Debug)]
pub struct TreeCache {
    dir: PathBuf,
    /// Product of each shard's moduli, index-aligned with the store; never
    /// zero.
    shard_products: Vec<Natural>,
    /// CRC of each source shard's payload at cache time.
    source_crcs: Vec<u32>,
    /// `(global index, raw divisor)` per vulnerable modulus, ascending.
    hits: Vec<(u64, Natural)>,
    total_moduli: u64,
}

/// `CacheCorrupt` at `path` if a shard root is zero: no shard has one, and
/// it would zero every month's plain seed and reach every delta divisor.
fn check_roots(path: &Path, shard_products: &[Natural]) -> Result<(), IncrementalError> {
    match shard_products.iter().position(Natural::is_zero) {
        Some(i) => Err(corrupt(path, format!("shard root {i} is zero"))),
        None => Ok(()),
    }
}

/// `(global index, raw divisor)` for every modulus with a divisor — the
/// cache's hit list for a result's raw divisors.
fn hits_of(raw_divisors: &[Option<Natural>]) -> Vec<(u64, Natural)> {
    raw_divisors
        .iter()
        .enumerate()
        .filter_map(|(i, g)| g.as_ref().map(|g| (i as u64, g.clone())))
        .collect()
}

impl TreeCache {
    /// Run a full from-scratch sharded batch GCD over `store`, keep its
    /// tree state, persist it under `dir` (created if absent) through
    /// [`TreeCache::from_parts`], and return the cache together with the
    /// run's result. This is the rebuild path — the baseline the
    /// `ablation_incremental` bench compares the delta path against. An
    /// empty store yields an empty cache (no roots, `P_old = 1`).
    pub fn build(
        dir: &Path,
        store: &ShardStore,
        threads: usize,
    ) -> Result<(TreeCache, BatchGcdResult), IncrementalError> {
        let ShardAssembly {
            result,
            shard_products,
        } = run_sharded(store, None, threads, true)?;
        let cache = TreeCache::from_parts(dir, store, shard_products, &result)?;
        Ok((cache, result))
    }

    /// Persist a cache from tree state computed elsewhere — the cluster
    /// hand-off: a coordinator that already ran
    /// [`assemble_from_shard_roots`](crate::corpus::assemble_from_shard_roots)
    /// holds the per-shard products and the result, so rebuilding the
    /// cache must not redo the batch GCD the way [`TreeCache::build`] does.
    /// `build` itself ends here, so a cache written from a cluster assembly
    /// opens, validates, and delta-updates exactly like a locally built
    /// one.
    ///
    /// # Errors
    /// [`IncrementalError::CacheCorrupt`] when the parts do not fit the
    /// store (wrong shard-product count, result length != store moduli, a
    /// zero shard product) — shape checks only; the values themselves are
    /// trusted exactly as `assemble_from_shard_roots` trusts its inputs.
    pub fn from_parts(
        dir: &Path,
        store: &ShardStore,
        shard_products: Vec<Natural>,
        result: &BatchGcdResult,
    ) -> Result<TreeCache, IncrementalError> {
        if shard_products.len() != store.shard_count() {
            return Err(corrupt(
                dir,
                format!(
                    "from_parts got {} shard products for a {}-shard store",
                    shard_products.len(),
                    store.shard_count()
                ),
            ));
        }
        if result.raw_divisors.len() as u64 != store.total_moduli() {
            return Err(corrupt(
                dir,
                format!(
                    "from_parts got a result over {} moduli for a {}-modulus store",
                    result.raw_divisors.len(),
                    store.total_moduli()
                ),
            ));
        }
        check_roots(dir, &shard_products)?;
        let cache = TreeCache {
            dir: dir.to_path_buf(),
            shard_products,
            source_crcs: store.shards().iter().map(|m| m.crc).collect(),
            hits: hits_of(&result.raw_divisors),
            total_moduli: store.total_moduli(),
        };
        cache.persist()?;
        Ok(cache)
    }

    /// True when both section files exist under `dir` — the cheap
    /// "is there a cache to open?" probe for first-run flows.
    pub fn exists(dir: &Path) -> bool {
        [ROOTS_FILE, HITS_FILE]
            .iter()
            .all(|name| dir.join(name).is_file())
    }

    /// Re-open a cache written earlier and validate it against `store`.
    ///
    /// # Errors
    /// [`IncrementalError::CacheCorrupt`] for structural damage (bad magic,
    /// version skew, truncation, CRC mismatch, malformed payload, a zero
    /// shard root);
    /// [`IncrementalError::Stale`] when the sections were written by
    /// different runs (a crash between section renames) or the cache does
    /// not bind to the store's current shard CRCs.
    pub fn open(dir: &Path, store: &ShardStore) -> Result<TreeCache, IncrementalError> {
        let mut scratch = Vec::new();

        let roots_path = dir.join(ROOTS_FILE);
        let (shard_count, roots_payload) = read_section(&roots_path, SECTION_ROOTS)?;
        let mut rest: &[u8] = &roots_payload;
        let roots_tag = take_u64(&mut rest)
            .ok_or_else(|| corrupt(&roots_path, "roots payload shorter than its state tag"))?;
        let total_moduli = take_u64(&mut rest)
            .ok_or_else(|| corrupt(&roots_path, "roots payload missing total-modulus count"))?;
        let mut source_crcs = Vec::with_capacity(capacity_for(shard_count, &roots_payload));
        let mut shard_products = Vec::with_capacity(capacity_for(shard_count, &roots_payload));
        for i in 0..shard_count {
            let crc = take_u64(&mut rest)
                .ok_or_else(|| corrupt(&roots_path, format!("roots entry {i} missing its CRC")))?;
            if crc > u64::from(u32::MAX) {
                return Err(corrupt(
                    &roots_path,
                    format!("roots entry {i} CRC {crc:#x} exceeds 32 bits"),
                ));
            }
            let product = take_natural(&mut rest, &mut scratch)
                .map_err(|e| corrupt(&roots_path, format!("roots entry {i}: {e}")))?;
            source_crcs.push(crc as u32);
            shard_products.push(product);
        }
        expect_end(&roots_path, rest, "the last root")?;
        check_roots(&roots_path, &shard_products)?;

        let hits_path = dir.join(HITS_FILE);
        let (hit_count, hits_payload) = read_section(&hits_path, SECTION_HITS)?;
        let mut rest: &[u8] = &hits_payload;
        let hits_tag = take_u64(&mut rest)
            .ok_or_else(|| corrupt(&hits_path, "hits payload shorter than its state tag"))?;
        let mut hits = Vec::with_capacity(capacity_for(hit_count, &hits_payload));
        let mut last_index = None;
        for i in 0..hit_count {
            let index = take_u64(&mut rest)
                .ok_or_else(|| corrupt(&hits_path, format!("hit {i} missing its index")))?;
            if last_index.is_some_and(|prev| prev >= index) {
                return Err(corrupt(
                    &hits_path,
                    format!("hit indices not strictly ascending at entry {i}"),
                ));
            }
            last_index = Some(index);
            let divisor = take_natural(&mut rest, &mut scratch)
                .map_err(|e| corrupt(&hits_path, format!("hit {i}: {e}")))?;
            hits.push((index, divisor));
        }
        expect_end(&hits_path, rest, "the last hit")?;

        if roots_tag != hits_tag {
            return Err(IncrementalError::Stale {
                path: dir.to_path_buf(),
                detail: "cache sections were written by different runs".to_string(),
            });
        }
        // Indices ascend, so the last one bounds them all.
        if let Some(index) = last_index.filter(|&index| index >= total_moduli) {
            return Err(corrupt(
                &hits_path,
                format!("hit index {index} beyond the {total_moduli} cached moduli"),
            ));
        }

        let cache = TreeCache {
            dir: dir.to_path_buf(),
            shard_products,
            source_crcs,
            hits,
            total_moduli,
        };
        if roots_tag != cache.state_tag() {
            return Err(IncrementalError::Stale {
                path: dir.to_path_buf(),
                detail: "embedded state tag does not match section contents".to_string(),
            });
        }
        cache.validate(store)?;
        Ok(cache)
    }

    /// Check that this cache binds to `store`'s current on-disk state.
    ///
    /// # Errors
    /// [`IncrementalError::Stale`] naming the first mismatch (shard count,
    /// per-shard CRC, or total moduli).
    pub fn validate(&self, store: &ShardStore) -> Result<(), IncrementalError> {
        let stale = |detail: String| IncrementalError::Stale {
            path: self.dir.clone(),
            detail,
        };
        if self.source_crcs.len() != store.shard_count() {
            return Err(stale(format!(
                "cache covers {} shards, store has {}",
                self.source_crcs.len(),
                store.shard_count()
            )));
        }
        for (i, (have, meta)) in self.source_crcs.iter().zip(store.shards()).enumerate() {
            if *have != meta.crc {
                return Err(stale(format!(
                    "shard {i} CRC {:08x} in cache, {:08x} in store",
                    have, meta.crc
                )));
            }
        }
        if self.total_moduli != store.total_moduli() {
            return Err(stale(format!(
                "cache covers {} moduli, store holds {}",
                self.total_moduli,
                store.total_moduli()
            )));
        }
        Ok(())
    }

    /// Directory holding the section files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Moduli covered by the cache.
    pub fn total_moduli(&self) -> u64 {
        self.total_moduli
    }

    /// Shards covered by the cache.
    pub fn shard_count(&self) -> usize {
        self.shard_products.len()
    }

    /// The cached `(global index, raw divisor)` hits, ascending by index.
    pub fn hits(&self) -> &[(u64, Natural)] {
        &self.hits
    }

    /// Number of cached vulnerable moduli.
    pub fn hit_count(&self) -> usize {
        self.hits.len()
    }

    /// Delete the section files (and the directory, if then empty).
    /// Like [`ShardStore::remove`], the explicit destructor: dropping a
    /// cache leaves its files in place.
    pub fn remove(self) -> io::Result<()> {
        TreeCache::remove_at(&self.dir)
    }

    /// [`remove`](TreeCache::remove) for a cache directory that need not
    /// open — the way to clear a stale or corrupt cache before a rebuild.
    /// Also removes the section files older builds wrote.
    pub fn remove_at(dir: &Path) -> io::Result<()> {
        durable::remove_published(dir, CACHE_FILES)
    }

    /// The tag binding every section to one corpus state: a CRC over the
    /// source shards' payload CRCs plus the total modulus count. Equals
    /// [`ShardStore::state_tag`] of the store the cache was computed from —
    /// provenance records bind an answer to a (corpus, cache) pair by
    /// carrying both values.
    pub fn state_tag(&self) -> u64 {
        let mut crc = Crc32::new();
        for c in &self.source_crcs {
            crc.update(&c.to_le_bytes());
        }
        crc.update(&self.total_moduli.to_le_bytes());
        u64::from(crc.finish())
    }

    /// Write both sections (tmp + rename each), then delete the sections
    /// older builds wrote. A crash between the renames leaves mixed
    /// sections whose tags disagree — detected as
    /// [`IncrementalError::Stale`] at the next open.
    fn persist(&self) -> Result<(), IncrementalError> {
        fs::create_dir_all(&self.dir)?;
        let tag = self.state_tag();

        let mut payload = Vec::new();
        payload.extend_from_slice(&tag.to_le_bytes());
        payload.extend_from_slice(&self.total_moduli.to_le_bytes());
        for (crc, product) in self.source_crcs.iter().zip(&self.shard_products) {
            payload.extend_from_slice(&u64::from(*crc).to_le_bytes());
            encode_natural(&mut payload, product)?;
        }
        let count = self.shard_products.len() as u64;
        write_section(&self.dir, ROOTS_FILE, SECTION_ROOTS, count, &payload)?;

        payload.clear();
        payload.extend_from_slice(&tag.to_le_bytes());
        for (index, divisor) in &self.hits {
            payload.extend_from_slice(&index.to_le_bytes());
            encode_natural(&mut payload, divisor)?;
        }
        let count = self.hits.len() as u64;
        write_section(&self.dir, HITS_FILE, SECTION_HITS, count, &payload)?;
        durable::remove_published(&self.dir, &CACHE_FILES[2..])?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// incremental_batch_gcd
// ---------------------------------------------------------------------------

/// Resolve the union of `store`'s cached corpus and the `delta` moduli,
/// paying only delta-proportional multiplies, then append the delta to the
/// store (as shards of `capacity`) and update `cache` in memory and on
/// disk. Raw divisors and statuses are byte-identical to
/// [`batch_gcd`](crate::classic::batch_gcd) over the union in store order
/// (old moduli first, then the delta).
///
/// The phases, timed individually in [`BatchStats::delta`] (DESIGN.md §8.1
/// has the argument):
///
/// 1. **delta tree** — the product tree over the delta (root `P_new`) and
///    one leaf pass down it with the cofactor job `(P_new/N) mod N` and the
///    plain job of `x ≡ P_old (mod P_new)`: the balanced product of the
///    cached roots, each reduced by `P_new` unless smaller. `N` divides
///    `P_new`, so the plain leaf `x mod N` is `P_old mod N`.
/// 2. **sweep** — each old shard tests its root's residue against the
///    delta's divisors `d` (all divide `P_new`); a shard no `d` reaches
///    keeps its cached divisors and is read only if it holds one, and a
///    reached one folds `G_s mod N`, `G_s` the product of its `d`s.
/// 3. **cache update** — append the delta shards, compute the new shards'
///    products, persist.
///
/// `product_tree_time` is the delta tree's build and `remainder_tree_time`
/// the leaf work of phases 1 and 2. `product_tree_exec` counts the delta
/// tree and phase 3's chunk products, `remainder_tree_exec` the seed's
/// tasks, the two descents and one shard test per old shard, and
/// `gcd_exec` the leaf folds of phase 1 and one fold per reached shard. An
/// empty delta reaches no shard: it rebuilds the cached result, reading
/// only the shards that contain hits, and leaves store and cache as they
/// are.
///
/// # Errors
/// [`IncrementalError::Stale`] if `cache` does not bind to `store`'s
/// current state; [`IncrementalError::Delta`] for a zero modulus in the
/// delta; [`IncrementalError::Corpus`] for shard-store failures, including
/// [`CorpusError::ZeroCapacity`] for a zero `capacity` (checked before any
/// work) and [`CorpusError::CapacityMismatch`] when `capacity` differs from
/// the store's. If persisting the updated cache fails, the in-memory `cache`
/// and `store` are already consistent with each other; the on-disk cache is
/// detected stale on the next [`TreeCache::open`].
pub fn incremental_batch_gcd(
    store: &mut ShardStore,
    cache: &mut TreeCache,
    delta: &[Natural],
    capacity: usize,
    threads: usize,
) -> Result<BatchGcdResult, IncrementalError> {
    check_capacity(store.dir(), capacity)?;
    cache.validate(store)?;
    let old_total = cache.total_moduli as usize;
    let total = old_total + delta.len();

    let pool = WorkerPool::new(threads);
    let tree_domain = pool.domain();
    let remainder_domain = pool.domain();
    let gcd_domain = pool.domain();

    // Phase 1: the delta tree, then its cofactor job and P_old mod P_new
    // as a plain job in one leaf pass. An empty delta has no tree.
    let t0 = Instant::now();
    let t_new = match ProductTree::build(delta, pool.exec_in(&tree_domain)) {
        Ok(tree) => Some(tree),
        Err(TreeError::EmptyInput) => None,
        Err(e) => return Err(IncrementalError::Delta(e)),
    };
    let product_tree_time = t0.elapsed();
    let (new_divisors, residues, tree_bytes) = match &t_new {
        Some(tree) => {
            let descent = pool.exec_in(&remainder_domain);
            let (seed, residues) = old_corpus_mod(&cache.shard_products, tree.root(), descent);
            let jobs = [Descent::Cofactor(&Natural::one()), Descent::Plain(&seed)];
            let divisors = leaf_divisors(tree, &jobs, descent, pool.exec_in(&gcd_domain));
            (divisors, residues, tree.total_bytes())
        }
        // No divisor will test the roots.
        None => (Vec::new(), vec![None; cache.shard_products.len()], 0),
    };
    drop(t_new);
    let delta_tree_time = t0.elapsed();

    // Phase 2: one task per old shard, seeded with the cached divisors of
    // its moduli, tests its root's residue against the delta's divisors;
    // the shards they reach then fold G_s on the gcd domain.
    let t1 = Instant::now();
    let reach: Vec<&Natural> = new_divisors.iter().flatten().collect();
    let mut cached = cache.hits.iter().peekable();
    let mut end = 0u64;
    let shard_tasks: Vec<_> = store
        .shards()
        .iter()
        .zip(cache.shard_products.iter().zip(&residues))
        .enumerate()
        .map(|(s, (meta, (root, residue)))| {
            let base = end;
            end += meta.count;
            let mut divisors: Vec<Option<Natural>> = vec![None; meta.count as usize];
            while let Some((index, g_old)) = cached.next_if(|(index, _)| *index < end) {
                divisors[(index - base) as usize] = Some(g_old.clone());
            }
            let (reach, store) = (&reach, &*store);
            let residue = residue.as_ref().unwrap_or(root);
            move || sweep_shard(store, s as u32, residue, reach, divisors)
        })
        .collect();
    let mut swept = Vec::with_capacity(shard_tasks.len());
    let mut reached = Vec::new();
    for outcome in pool.exec_in(&remainder_domain).run_tasks(shard_tasks) {
        match outcome? {
            Swept::Kept(leaves) => swept.push(Some(leaves)),
            Swept::Reached(moduli, divisors, g) => {
                swept.push(None);
                reached.push((moduli, divisors, g));
            }
        }
    }
    let mut folded = pool
        .exec_in(&gcd_domain)
        .map(reached, |(moduli, mut divisors, g)| {
            for (n, divisor) in moduli.iter().zip(&mut divisors) {
                merge_divisor(divisor, n, &(&g % n));
            }
            ShardLeaves::new(moduli, divisors)
        })
        .into_iter();
    let mut raw_divisors: Vec<Option<Natural>> = Vec::with_capacity(total);
    let mut resolve_hits: Vec<(usize, Natural)> = Vec::new();
    for leaves in swept
        .into_iter()
        .flat_map(|kept| kept.or_else(|| folded.next()))
    {
        leaves.append_to(&mut raw_divisors, &mut resolve_hits);
    }
    let delta_sweep_time = t1.elapsed();
    // The delta follows the old corpus, as its shards will on disk.
    ShardLeaves::new(delta.to_vec(), new_divisors).append_to(&mut raw_divisors, &mut resolve_hits);
    let statuses = resolve_with_hits(total, &resolve_hits, &raw_divisors);

    // Phase 3: extend the store and bring the cache forward to the union.
    let t2 = Instant::now();
    if !delta.is_empty() {
        store.append(capacity, delta)?;
        let chunks: Vec<&[Natural]> = delta.chunks(capacity).collect();
        // Balanced pairwise products — the same values as the shards' roots.
        let new_products = pool.exec_in(&tree_domain).map(chunks, product_root);
        cache.shard_products.extend(new_products);
        // The cache bound to the store before the append, so it binds to
        // all of it now.
        cache.source_crcs = store.shards().iter().map(|m| m.crc).collect();
        cache.total_moduli = total as u64;
        cache.hits = hits_of(&raw_divisors);
        cache.persist()?;
    }
    let delta_cache_update_time = t2.elapsed();

    Ok(BatchGcdResult {
        raw_divisors,
        statuses,
        stats: BatchStats {
            product_tree_time,
            remainder_tree_time: delta_tree_time - product_tree_time + delta_sweep_time,
            tree_bytes,
            input_count: total,
            product_tree_exec: tree_domain.phase(),
            remainder_tree_exec: remainder_domain.phase(),
            gcd_exec: gcd_domain.phase(),
            delta: DeltaMetrics {
                delta_count: delta.len() as u64,
                cached_count: old_total as u64,
                delta_tree_time,
                delta_sweep_time,
                delta_cache_update_time,
            },
        },
    })
}

/// A seed `x ≡ P_old (mod p_new)`, at most twice `p_new`'s length, from
/// the cached roots (`P_old = Π R_s`), and `R_s mod p_new` for each root
/// not smaller than `p_new` (a smaller one is its own residue). One task per
/// root reduces it; one more multiplies the residues, balanced: a stack of
/// partial products merges its top into the next value while the top is no
/// longer, and reduces any product more than twice as long as `p_new`.
fn old_corpus_mod(
    roots: &[Natural],
    p_new: &Natural,
    exec: Exec<'_>,
) -> (Natural, Vec<Option<Natural>>) {
    let reduced = exec.map(roots.iter().collect(), |r| (r >= p_new).then(|| r % p_new));
    let mul = |a: &Natural, b: &Natural| {
        let x = a * b;
        if x.limb_len() > 2 * p_new.limb_len() {
            &x % p_new
        } else {
            x
        }
    };
    let product = || {
        let mut stack: Vec<Natural> = Vec::new();
        for (root, r) in roots.iter().zip(&reduced) {
            let mut x = r.as_ref().unwrap_or(root).clone();
            while let Some(top) = stack.pop_if(|top| top.limb_len() <= x.limb_len()) {
                x = mul(&top, &x);
            }
            stack.push(x);
        }
        stack.iter().rev().fold(Natural::one(), |x, y| mul(y, &x))
    };
    let seed = exec.run_tasks(vec![product]).pop();
    (seed.unwrap_or_else(Natural::one), reduced)
}

/// One old shard after the sweep's root test.
enum Swept {
    /// No delta divisor reaches the shard: its cached divisors stand.
    Kept(ShardLeaves),
    /// The shard's moduli, their cached divisors, and `G_s`, the product of
    /// the delta divisors that reach it, still to be folded.
    Reached(Vec<Natural>, Vec<Option<Natural>>, Natural),
}

/// The sweep's test of shard `s`, whose cached root `R` has the residue
/// `r ≡ R (mod P_new)` and whose moduli hold the cached `divisors`: which
/// of the delta's divisors in `reach` share a prime with `R`? Each divides
/// `P_new`, so `gcd(d, r mod d) = gcd(d, R mod d)`. The shard is read only
/// when one does or when it holds a cached hit.
fn sweep_shard(
    store: &ShardStore,
    s: u32,
    residue: &Natural,
    reach: &[&Natural],
    divisors: Vec<Option<Natural>>,
) -> Result<Swept, CorpusError> {
    let g = reach
        .iter()
        .copied()
        .filter(|d| !d.gcd(&(residue % *d)).is_one())
        .fold(None, |g: Option<Natural>, d| {
            Some(g.map_or_else(|| d.clone(), |g| &g * d))
        });
    if g.is_none() && divisors.iter().all(Option::is_none) {
        // Nothing to fold and no hit to resolve: all divisors are `None`.
        return Ok(Swept::Kept(ShardLeaves::new(Vec::new(), divisors)));
    }
    let moduli = store.read_shard(s)?;
    Ok(match g {
        Some(g) => Swept::Reached(moduli, divisors, g),
        None => Swept::Kept(ShardLeaves::new(moduli, divisors)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::batch_gcd;
    use crate::corpus::{scratch_dir, sharded_batch_gcd};

    fn nat(v: u128) -> Natural {
        Natural::from(v)
    }

    /// Month 1: 3*11, 17*19, 3*5 — 33 and 15 share the prime 3.
    fn month1() -> Vec<Natural> {
        vec![nat(33), nat(323), nat(15)]
    }

    /// Month 2: 3*13, 19*23, 5*7 — shares 3 and 5 with month 1, 19 with 323.
    fn month2() -> Vec<Natural> {
        vec![nat(39), nat(437), nat(35)]
    }

    /// A store + cache over `moduli` in fresh scratch dirs.
    fn setup(tag: &str, capacity: usize, moduli: &[Natural]) -> (ShardStore, TreeCache) {
        let store =
            ShardStore::create(&scratch_dir(&format!("{tag}-store")), capacity, moduli).unwrap();
        let (cache, _) =
            TreeCache::build(&scratch_dir(&format!("{tag}-cache")), &store, 1).unwrap();
        (store, cache)
    }

    fn teardown(store: ShardStore, cache: TreeCache) {
        cache.remove().unwrap();
        store.remove().unwrap();
    }

    /// The file names in a cache directory, sorted.
    fn cache_files(cache: &TreeCache) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(cache.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn metrics_default_is_empty() {
        let m = DeltaMetrics::default();
        assert!(m.is_empty());
        assert_eq!(m.total_time(), Duration::ZERO);
    }

    #[test]
    fn build_persists_and_open_roundtrips() {
        let (store, cache) = setup("incr-roundtrip", 2, &month1());
        assert!(TreeCache::exists(cache.dir()));
        let reopened = TreeCache::open(cache.dir(), &store).unwrap();
        assert_eq!(reopened.total_moduli(), 3);
        assert_eq!(reopened.shard_count(), 2); // capacity 2 -> 2 + 1
        assert_eq!(reopened.hit_count(), 2); // 33 and 15 share the prime 3
        assert_eq!(reopened.hits(), cache.hits());
        assert_eq!(cache_files(&cache), [HITS_FILE, ROOTS_FILE]);
        // Shard products match the actual shard contents.
        assert_eq!(reopened.shard_products, vec![nat(33 * 323), nat(15)]);
        teardown(store, reopened);
        cache.remove().unwrap();
    }

    #[test]
    fn out_of_range_hit_index_is_corrupt() {
        // Four moduli in shards of two; a CRC-valid hits section with the
        // right state tag names modulus 9.
        let mut moduli = month1();
        moduli.push(nat(39));
        let (store, cache) = setup("incr-hit-range", 2, &moduli);
        let mut payload = cache.state_tag().to_le_bytes().to_vec();
        payload.extend_from_slice(&9u64.to_le_bytes());
        encode_natural(&mut payload, &nat(3)).unwrap();
        write_section(cache.dir(), HITS_FILE, SECTION_HITS, 1, &payload).unwrap();
        let err = TreeCache::open(cache.dir(), &store).unwrap_err();
        assert!(
            matches!(err, IncrementalError::CacheCorrupt { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("hit index 9"), "{err}");
        teardown(store, cache);
    }

    #[test]
    fn zero_capacity_is_typed_error() {
        let (mut store, mut cache) = setup("incr-zero-cap", 2, &month1());
        let err = incremental_batch_gcd(&mut store, &mut cache, &month2(), 0, 1).unwrap_err();
        assert!(
            matches!(
                err,
                IncrementalError::Corpus(CorpusError::ZeroCapacity { .. })
            ),
            "{err}"
        );
        assert_eq!(store.total_moduli(), 3);
        teardown(store, cache);
    }

    #[test]
    fn legacy_recips_section_is_ignored_and_removed() {
        // Caches written by older builds also hold `top.wkc` (section 2,
        // the corpus product) and `recips.wkc` (section 4). Neither is
        // read: the cache opens and delta-updates like any other, the
        // month's persist deletes both, and `remove` still clears the
        // directory of an old cache that never updates.
        let (mut store, cache) = setup("incr-legacy", 2, &month1());
        let mut top = cache.state_tag().to_le_bytes().to_vec();
        encode_natural(&mut top, &nat(33 * 323 * 15)).unwrap();
        write_section(cache.dir(), "top.wkc", 2, 1, &top).unwrap();
        let mut recips = cache.state_tag().to_le_bytes().to_vec();
        recips.extend_from_slice(&[0xa5; 24]);
        write_section(cache.dir(), "recips.wkc", 4, 2, &recips).unwrap();
        let mut reopened = TreeCache::open(cache.dir(), &store).unwrap();
        let res = incremental_batch_gcd(&mut store, &mut reopened, &month2(), 2, 1).unwrap();
        let mut union = month1();
        union.extend(month2());
        assert_eq!(res.raw_divisors, batch_gcd(&union, 1).raw_divisors);
        assert_eq!(cache_files(&reopened), [HITS_FILE, ROOTS_FILE]);
        teardown(store, reopened);

        let (store, cache) = setup("incr-legacy-remove", 2, &month1());
        write_section(cache.dir(), "top.wkc", 2, 1, &top).unwrap();
        write_section(cache.dir(), "recips.wkc", 4, 2, &recips).unwrap();
        let dir = cache.dir().to_path_buf();
        TreeCache::open(&dir, &store).unwrap();
        TreeCache::remove_at(&dir).unwrap();
        assert!(!dir.exists());
        store.remove().unwrap();
    }

    #[test]
    fn missing_cache_is_corrupt_and_exists_is_false() {
        let dir = scratch_dir("incr-missing");
        assert!(!TreeCache::exists(&dir));
        let store = ShardStore::create(&scratch_dir("incr-missing-store"), 2, &month1()).unwrap();
        let err = TreeCache::open(&dir, &store).unwrap_err();
        assert!(
            matches!(err, IncrementalError::CacheCorrupt { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("missing"));
        store.remove().unwrap();
    }

    #[test]
    fn incremental_matches_classic_over_union() {
        let (mut store, mut cache) = setup("incr-equiv", 2, &month1());
        let res = incremental_batch_gcd(&mut store, &mut cache, &month2(), 2, 1).unwrap();

        let mut union = month1();
        union.extend(month2());
        let classic = batch_gcd(&union, 1);
        assert_eq!(res.raw_divisors, classic.raw_divisors);
        assert_eq!(res.statuses, classic.statuses);
        assert_eq!(res.stats.input_count, 6);

        let delta = &res.stats.delta;
        assert!(!delta.is_empty());
        assert_eq!(delta.delta_count, 3);
        assert_eq!(delta.cached_count, 3);
        // Delta tree on the product side, its two descents on the
        // remainder side, its leaf folds and the sweep on the gcd side.
        assert!(res.stats.product_tree_exec.tasks() > 0);
        assert!(res.stats.remainder_tree_exec.tasks() > 0);
        assert!(res.stats.gcd_exec.tasks() > 0);

        // The store and cache both advanced to the union.
        assert_eq!(store.total_moduli(), 6);
        assert_eq!(cache.total_moduli(), 6);
        let product = |ns: &[Natural]| ns.iter().fold(nat(1), |a, m| &a * m);
        assert_eq!(product(&cache.shard_products), product(&union));
        assert_eq!(cache_files(&cache), [HITS_FILE, ROOTS_FILE]);
        cache.validate(&store).unwrap();
        teardown(store, cache);
    }

    #[test]
    fn chained_months_match_classic_and_reopen_cleanly() {
        // Three chained deltas, including a duplicate modulus across
        // batches (323 reappears -> SharedUnresolved in the union).
        let (mut store, mut cache) = setup("incr-chain", 2, &month1());
        let month3 = vec![nat(21), nat(323)];
        incremental_batch_gcd(&mut store, &mut cache, &month2(), 2, 1).unwrap();
        let res = incremental_batch_gcd(&mut store, &mut cache, &month3, 2, 1).unwrap();

        let mut union = month1();
        union.extend(month2());
        union.extend(month3);
        let classic = batch_gcd(&union, 1);
        assert_eq!(res.raw_divisors, classic.raw_divisors);
        assert_eq!(res.statuses, classic.statuses);

        // Reopen both halves from disk; the persisted cache binds.
        let reopened_store = ShardStore::open(store.dir()).unwrap();
        let reopened = TreeCache::open(cache.dir(), &reopened_store).unwrap();
        assert_eq!(reopened.total_moduli(), 8);
        assert_eq!(reopened.hits(), cache.hits());
        teardown(store, cache);
    }

    #[test]
    fn empty_delta_reconstructs_cached_result() {
        let mut all = month1();
        all.extend(month2());
        let (mut store, mut cache) = setup("incr-empty-delta", 2, &all);
        let from_scratch = sharded_batch_gcd(&store, 1).unwrap();
        let res = incremental_batch_gcd(&mut store, &mut cache, &[], 2, 1).unwrap();
        assert_eq!(res.raw_divisors, from_scratch.raw_divisors);
        assert_eq!(res.statuses, from_scratch.statuses);
        assert_eq!(res.stats.delta.delta_count, 0);
        assert_eq!(res.stats.delta.cached_count, 6);
        assert!(!res.stats.delta.is_empty());
        teardown(store, cache);
    }

    #[test]
    fn bootstraps_from_an_empty_store() {
        let store_dir = scratch_dir("incr-boot-store");
        let mut store = ShardStore::create(&store_dir, 2, std::iter::empty()).unwrap();
        let (mut cache, empty) =
            TreeCache::build(&scratch_dir("incr-boot-cache"), &store, 1).unwrap();
        assert!(empty.raw_divisors.is_empty());
        assert_eq!(cache.total_moduli(), 0);
        assert_eq!(cache.shard_count(), 0);

        let res = incremental_batch_gcd(&mut store, &mut cache, &month1(), 2, 1).unwrap();
        let classic = batch_gcd(&month1(), 1);
        assert_eq!(res.raw_divisors, classic.raw_divisors);
        assert_eq!(res.statuses, classic.statuses);
        assert_eq!(store.total_moduli(), 3);
        teardown(store, cache);
    }

    #[test]
    fn parallel_matches_sequential() {
        let (mut store_a, mut cache_a) = setup("incr-par-a", 2, &month1());
        let (mut store_b, mut cache_b) = setup("incr-par-b", 2, &month1());
        let seq = incremental_batch_gcd(&mut store_a, &mut cache_a, &month2(), 2, 1).unwrap();
        let par = incremental_batch_gcd(&mut store_b, &mut cache_b, &month2(), 2, 4).unwrap();
        assert_eq!(seq.raw_divisors, par.raw_divisors);
        assert_eq!(seq.statuses, par.statuses);
        teardown(store_a, cache_a);
        teardown(store_b, cache_b);
    }

    #[test]
    fn stale_cache_is_typed_error() {
        let (mut store, mut cache) = setup("incr-stale", 2, &month1());
        // The store moves on behind the cache's back.
        store.append(2, &month2()).unwrap();
        let err = incremental_batch_gcd(&mut store, &mut cache, &month2(), 2, 1).unwrap_err();
        assert!(matches!(err, IncrementalError::Stale { .. }), "{err}");
        assert!(err.to_string().contains("stale tree cache"));
        let err = TreeCache::open(cache.dir(), &store).unwrap_err();
        assert!(matches!(err, IncrementalError::Stale { .. }), "{err}");
        teardown(store, cache);
    }

    #[test]
    fn mixed_run_sections_are_stale() {
        let (store_a, cache_a) = setup("incr-mix-a", 2, &month1());
        let (store_b, cache_b) = setup("incr-mix-b", 2, &month2());
        // Transplant b's hits section into a's cache: tags disagree.
        fs::copy(cache_b.dir().join(HITS_FILE), cache_a.dir().join(HITS_FILE)).unwrap();
        let err = TreeCache::open(cache_a.dir(), &store_a).unwrap_err();
        match &err {
            IncrementalError::Stale { detail, .. } => {
                assert!(detail.contains("different runs"), "{detail}")
            }
            other => panic!("expected Stale, got {other}"),
        }
        teardown(store_a, cache_a);
        teardown(store_b, cache_b);
    }

    #[test]
    fn corrupt_sections_are_typed_errors() {
        let (store, cache) = setup("incr-corrupt", 2, &month1());
        let roots = cache.dir().join(ROOTS_FILE);
        let pristine = fs::read(&roots).unwrap();

        // Payload bit flip -> CRC mismatch.
        let mut bytes = pristine.clone();
        let flip = CACHE_HEADER_LEN + 20;
        bytes[flip] ^= 0x10;
        fs::write(&roots, &bytes).unwrap();
        let err = TreeCache::open(cache.dir(), &store).unwrap_err();
        assert!(
            matches!(err, IncrementalError::CacheCorrupt { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("CRC"));

        // Truncation.
        fs::write(&roots, &pristine[..pristine.len() - 4]).unwrap();
        let err = TreeCache::open(cache.dir(), &store).unwrap_err();
        assert!(
            matches!(err, IncrementalError::CacheCorrupt { .. }),
            "{err}"
        );

        // Bad magic.
        let mut bytes = pristine.clone();
        bytes[0] = b'X';
        fs::write(&roots, &bytes).unwrap();
        let err = TreeCache::open(cache.dir(), &store).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");

        // Version skew.
        let mut bytes = pristine.clone();
        bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
        fs::write(&roots, &bytes).unwrap();
        let err = TreeCache::open(cache.dir(), &store).unwrap_err();
        assert!(err.to_string().contains("format version 9"), "{err}");
        teardown(store, cache);
    }

    #[test]
    fn zero_shard_root_is_corrupt() {
        // A checksum-valid roots section whose root 1 reads zero, with the
        // right state tag: open must refuse it, as must from_parts.
        let (store, cache) = setup("incr-zero-root", 2, &month1());
        let mut payload = cache.state_tag().to_le_bytes().to_vec();
        payload.extend_from_slice(&cache.total_moduli().to_le_bytes());
        let roots = [cache.shard_products[0].clone(), Natural::zero()];
        for (crc, root) in cache.source_crcs.iter().zip(&roots) {
            payload.extend_from_slice(&u64::from(*crc).to_le_bytes());
            encode_natural(&mut payload, root).unwrap();
        }
        write_section(cache.dir(), ROOTS_FILE, SECTION_ROOTS, 2, &payload).unwrap();
        let err = TreeCache::open(cache.dir(), &store).unwrap_err();
        assert!(
            matches!(err, IncrementalError::CacheCorrupt { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("shard root 1 is zero"), "{err}");

        let result = sharded_batch_gcd(&store, 1).unwrap();
        let err = TreeCache::from_parts(cache.dir(), &store, roots.to_vec(), &result).unwrap_err();
        assert!(
            matches!(err, IncrementalError::CacheCorrupt { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("shard root 1 is zero"), "{err}");
        teardown(store, cache);
    }

    #[test]
    fn zero_in_delta_is_typed_error() {
        let (mut store, mut cache) = setup("incr-zero", 2, &month1());
        let bad = vec![nat(35), Natural::zero()];
        let err = incremental_batch_gcd(&mut store, &mut cache, &bad, 2, 1).unwrap_err();
        match &err {
            IncrementalError::Delta(TreeError::ZeroModulus { index }) => assert_eq!(*index, 1),
            other => panic!("expected Delta(ZeroModulus), got {other}"),
        }
        assert!(err.to_string().contains("invalid delta"));
        // The rejected delta left both halves untouched.
        assert_eq!(store.total_moduli(), 3);
        assert_eq!(cache.total_moduli(), 3);
        teardown(store, cache);
    }

    #[test]
    fn capacity_mismatch_surfaces_from_append() {
        let (mut store, mut cache) = setup("incr-cap", 2, &month1());
        let err = incremental_batch_gcd(&mut store, &mut cache, &month2(), 5, 1).unwrap_err();
        assert!(
            matches!(
                err,
                IncrementalError::Corpus(CorpusError::CapacityMismatch { .. })
            ),
            "{err}"
        );
        teardown(store, cache);
    }

    #[test]
    fn remove_deletes_section_files() {
        let (store, cache) = setup("incr-remove", 2, &month1());
        let dir = cache.dir().to_path_buf();
        cache.remove().unwrap();
        assert!(!TreeCache::exists(&dir));
        assert!(!dir.join(ROOTS_FILE).exists());
        assert!(!dir.exists());
        store.remove().unwrap();
    }
}
