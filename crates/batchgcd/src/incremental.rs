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
//!   subtree roots, the cached top product `P_old`, and the previous run's
//!   raw-divisor hits — in the same limb codec and CRC scheme as the shard
//!   files themselves (DESIGN.md §8 specifies the format field by field);
//! * [`incremental_batch_gcd`] resolves the union corpus by (a) building
//!   the small product tree over the delta, (b) sweeping `P_new` across the
//!   cached shard roots to find *old* moduli sharing a prime with the delta
//!   — one cheap small-modulus reduction per old modulus, no multiplies —
//!   and (c) reducing the cached `P_old` down the delta tree to resolve
//!   *new* moduli against the full corpus.
//!
//! The output is byte-identical to a from-scratch run over the union
//! (cross-checked in `tests/incremental_equiv.rs`): for an old modulus
//! `gcd(N, P_union/N) = gcd(N, g_old * gcd(N, P_new))` and for a new one
//! `gcd(N, P_union/N) = gcd(N, gcd(N, P_old) * g_delta)`, both instances of
//! `gcd(N, a*b) = gcd(N, gcd(N,a) * gcd(N,b))` — see DESIGN.md §8 for the
//! correctness argument.
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

use crate::classic::{leaf_gcd, BatchGcdResult, BatchStats};
use crate::corpus::{
    check_capacity, crc32, decode_natural, encode_natural, run_sharded, CorpusError, Crc32,
    ShardAssembly, ShardStore,
};
use crate::durable::{self, take_u64, Frame, FrameError, FrameHeader, FRAME_HEADER_LEN};
use crate::pool::{PhaseExec, WorkerPool};
use crate::resolve::resolve_with_hits;
use crate::tree::{multiply_pair, pair_level, ProductTree, TreeError};
use std::collections::BTreeMap;
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
const SECTION_TOP: u32 = 2;
const SECTION_HITS: u32 = 3;

const ROOTS_FILE: &str = "roots.wkc";
const TOP_FILE: &str = "top.wkc";
const HITS_FILE: &str = "hits.wkc";
/// Every file a cache directory may hold, for [`TreeCache::remove_at`].
/// The last is section 4 of caches written by older builds (persisted
/// shard-root reciprocals): nothing reads it, but removal must still take
/// it so an old cache directory goes whole.
const CACHE_FILES: [&str; 4] = [ROOTS_FILE, TOP_FILE, HITS_FILE, "recips.wkc"];

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
/// Executor metrics live on [`BatchStats`] itself: the delta-tree phase is
/// `product_tree_exec`, the sweep and cross phases `remainder_tree_exec`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaMetrics {
    /// New moduli resolved this run (the delta size `M`).
    pub delta_count: u64,
    /// Previously-cached moduli the run resolved against (`N`).
    pub cached_count: u64,
    /// Wall-clock time for the delta product tree plus the classic
    /// delta-vs-delta pass.
    pub delta_tree_time: Duration,
    /// Wall-clock time sweeping `P_new` across the cached old-shard roots.
    pub delta_sweep_time: Duration,
    /// Wall-clock time reducing the cached `P_old` down the delta tree.
    pub delta_cross_time: Duration,
    /// Wall-clock time appending the delta shards and persisting the
    /// updated cache (chunk products plus the one `P_old * P_new`
    /// multiply).
    pub delta_cache_update_time: Duration,
}

impl DeltaMetrics {
    /// True when no incremental run happened (a from-scratch run's
    /// `Default`).
    pub fn is_empty(&self) -> bool {
        self.delta_count == 0 && self.cached_count == 0
    }

    /// Total wall-clock time across the four delta phases.
    pub fn total_time(&self) -> Duration {
        self.delta_tree_time
            + self.delta_sweep_time
            + self.delta_cross_time
            + self.delta_cache_update_time
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
/// subtree roots, the cached top product `P_old`, and the previous
/// cumulative run's raw-divisor hits. The checksummed section files live in
/// the cache directory (`roots.wkc`, `top.wkc`, `hits.wkc`; format in
/// DESIGN.md §8), each carrying a state tag binding it to the exact shard
/// CRCs of the store it was computed from — any divergence surfaces as
/// [`IncrementalError::Stale`] rather than a silently wrong answer.
#[derive(Clone, Debug)]
pub struct TreeCache {
    dir: PathBuf,
    /// Product of each shard's moduli, index-aligned with the store.
    shard_products: Vec<Natural>,
    /// CRC of each source shard's payload at cache time.
    source_crcs: Vec<u32>,
    /// `P_old`, the product of every cached modulus (`1` when empty).
    top_product: Natural,
    /// `(global index, raw divisor)` per vulnerable modulus, ascending.
    hits: Vec<(u64, Natural)>,
    total_moduli: u64,
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

/// Global index of each shard's first modulus, in shard order.
fn shard_bases(store: &ShardStore) -> Vec<u64> {
    store
        .shards()
        .iter()
        .scan(0u64, |next, meta| {
            let base = *next;
            *next += meta.count;
            Some(base)
        })
        .collect()
}

/// `(shard, index within the shard)` of global modulus `index`, given
/// [`shard_bases`]; an index past the end lands in the last shard.
fn locate(bases: &[u64], index: u64) -> (usize, u64) {
    let s = bases.partition_point(|&b| b <= index).saturating_sub(1);
    (s, index - bases.get(s).copied().unwrap_or(0))
}

impl TreeCache {
    /// Run a full from-scratch sharded batch GCD over `store`, keep its
    /// tree state, persist it under `dir` (created if absent) through
    /// [`TreeCache::from_parts`], and return the cache together with the
    /// run's result. This is the rebuild path — the baseline the
    /// `ablation_incremental` bench compares the delta path against. An
    /// empty store yields an empty cache (`P_old = 1`).
    pub fn build(
        dir: &Path,
        store: &ShardStore,
        threads: usize,
    ) -> Result<(TreeCache, BatchGcdResult), IncrementalError> {
        let ShardAssembly {
            result,
            shard_products,
            top_product,
        } = run_sharded(store, None, threads, true)?;
        let cache = TreeCache::from_parts(dir, store, shard_products, top_product, &result)?;
        Ok((cache, result))
    }

    /// Persist a cache from tree state computed elsewhere — the cluster
    /// hand-off: a coordinator that already ran
    /// [`assemble_from_shard_roots`](crate::corpus::assemble_from_shard_roots)
    /// holds the per-shard products, the top product, and the result, so
    /// rebuilding the cache must not redo the batch GCD the way
    /// [`TreeCache::build`] does. `build` itself ends here, so a cache
    /// written from a cluster assembly opens, validates, and delta-updates
    /// exactly like a locally built one.
    ///
    /// # Errors
    /// [`IncrementalError::CacheCorrupt`] when the parts do not fit the
    /// store (wrong shard-product count, result length != store moduli) —
    /// shape checks only; the values themselves are trusted exactly as
    /// `assemble_from_shard_roots` trusts its inputs.
    pub fn from_parts(
        dir: &Path,
        store: &ShardStore,
        shard_products: Vec<Natural>,
        top_product: Natural,
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
        let cache = TreeCache {
            dir: dir.to_path_buf(),
            shard_products,
            source_crcs: store.shards().iter().map(|m| m.crc).collect(),
            top_product,
            hits: hits_of(&result.raw_divisors),
            total_moduli: store.total_moduli(),
        };
        cache.persist()?;
        Ok(cache)
    }

    /// True when all three section files exist under `dir` — the cheap
    /// "is there a cache to open?" probe for first-run flows.
    pub fn exists(dir: &Path) -> bool {
        [ROOTS_FILE, TOP_FILE, HITS_FILE]
            .iter()
            .all(|name| dir.join(name).is_file())
    }

    /// Re-open a cache written earlier and validate it against `store`.
    ///
    /// # Errors
    /// [`IncrementalError::CacheCorrupt`] for structural damage (bad magic,
    /// version skew, truncation, CRC mismatch, malformed payload);
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

        let top_path = dir.join(TOP_FILE);
        let (top_count, top_payload) = read_section(&top_path, SECTION_TOP)?;
        if top_count != 1 {
            return Err(corrupt(
                &top_path,
                format!("top section holds {top_count} records, expected 1"),
            ));
        }
        let mut rest: &[u8] = &top_payload;
        let top_tag = take_u64(&mut rest)
            .ok_or_else(|| corrupt(&top_path, "top payload shorter than its state tag"))?;
        let top_product = take_natural(&mut rest, &mut scratch)
            .map_err(|e| corrupt(&top_path, format!("top product: {e}")))?;
        expect_end(&top_path, rest, "the top product")?;

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

        if roots_tag != top_tag || roots_tag != hits_tag {
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
            top_product,
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

    /// The cached top product `P_old` (`1` for an empty corpus).
    pub fn top_product(&self) -> &Natural {
        &self.top_product
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

    /// Write all three sections (tmp + rename each). A crash mid-persist
    /// leaves mixed sections whose tags disagree — detected as
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
        write_section(
            &self.dir,
            ROOTS_FILE,
            SECTION_ROOTS,
            self.shard_products.len() as u64,
            &payload,
        )?;

        payload.clear();
        payload.extend_from_slice(&tag.to_le_bytes());
        encode_natural(&mut payload, &self.top_product)?;
        write_section(&self.dir, TOP_FILE, SECTION_TOP, 1, &payload)?;

        payload.clear();
        payload.extend_from_slice(&tag.to_le_bytes());
        for (index, divisor) in &self.hits {
            payload.extend_from_slice(&index.to_le_bytes());
            encode_natural(&mut payload, divisor)?;
        }
        write_section(
            &self.dir,
            HITS_FILE,
            SECTION_HITS,
            self.hits.len() as u64,
            &payload,
        )?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// incremental_batch_gcd
// ---------------------------------------------------------------------------

/// One old shard's sweep output.
struct SweepOut {
    /// `(global index, modulus, d)` for every old modulus with
    /// `d = gcd(N, P_new mod N) > 1`.
    fresh: Vec<(u64, Natural, Natural)>,
    /// `(global index, modulus)` for every cached-hit index in this shard.
    cached: Vec<(u64, Natural)>,
}

/// Resolve the union of `store`'s cached corpus and the `delta` moduli,
/// paying only delta-proportional multiplies, then append the delta to the
/// store (as shards of `capacity`) and update `cache` in memory and on
/// disk. Raw divisors and statuses are byte-identical to
/// [`batch_gcd`](crate::classic::batch_gcd) over the union in store order
/// (old moduli first, then the delta).
///
/// The phases, timed individually in [`BatchStats::delta`]:
///
/// 1. **delta tree** — classic batch GCD over the delta alone, in memory:
///    product tree (root `P_new`), cofactor remainder descent, per-leaf gcd.
/// 2. **sweep** — for each *old* shard, reduce `P_new` by the cached shard
///    root (a no-op short-circuit while `P_new` is smaller) and take one
///    small-modulus reduction + gcd per old modulus:
///    `d = gcd(N, P_new mod N)`. The union divisor for an old modulus is
///    `gcd(N, g_old * d)`, which collapses to the cached `g_old` whenever
///    `d = 1` — no multiplies, no old-tree rebuild.
/// 3. **cross** — one plain remainder descent of the cached `P_old` down
///    the delta tree gives `P_old mod N` per new modulus;
///    `gcd(N, gcd(N, P_old) * g_delta)` is its union divisor.
/// 4. **cache update** — append the delta shards, multiply
///    `P_old * P_new` once, compute the new shards' products, persist.
///
/// On the stats: `product_tree_time` and `product_tree_exec` mirror phase 1
/// (plus phase 4's chunk products on the executor side), and
/// `remainder_tree_time` and `remainder_tree_exec` cover phases 2–3; the
/// per-phase wall times are in `stats.delta`. An empty delta
/// skips every phase and reconstructs the cached result from the hit list,
/// reading only the shards that contain hits.
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
    if delta.is_empty() {
        return reconstruct_cached(store, cache);
    }
    if let Some(index) = delta.iter().position(Natural::is_zero) {
        return Err(IncrementalError::Delta(TreeError::ZeroModulus { index }));
    }

    let old_total = cache.total_moduli as usize;
    let old_shards = cache.shard_products.len();
    let total = old_total + delta.len();

    let pool = WorkerPool::new(threads);
    let tree_domain = pool.domain();
    let sweep_domain = pool.domain();
    let cross_domain = pool.domain();

    // Phase 1: classic batch GCD over the delta alone, on the cofactor
    // descent. Phase 3 pushes P_old down this same tree.
    let t0 = Instant::now();
    let t_new = ProductTree::build(delta, pool.exec_in(&tree_domain))
        // lint:allow(no-panic-in-lib) invariant: delta is nonempty and zero-free, checked above
        .expect("validated delta");
    let p_new = t_new.root().clone();
    let tree_bytes = t_new.total_bytes();
    let rems = t_new.remainder_tree_cofactor(&Natural::one(), pool.exec_in(&tree_domain));
    let delta_raw: Vec<Option<Natural>> = pool.exec_in(&tree_domain).map(
        delta.iter().zip(rems).collect(),
        // zn = (P_new/N) mod N straight off the cofactor descent.
        |(n, zn): (&Natural, Natural)| leaf_gcd(n, &zn),
    );
    let delta_tree_time = t0.elapsed();

    // Per-shard base offsets and cached-hit locals for the sweep.
    let bases = shard_bases(store);
    let mut hit_locals: Vec<Vec<u64>> = vec![Vec::new(); old_shards];
    for (index, _) in &cache.hits {
        let (s, local) = locate(&bases, *index);
        if let Some(slot) = hit_locals.get_mut(s) {
            slot.push(local);
        }
    }

    // Phase 2: sweep P_new across the old corpus. Reducing by the cached
    // shard root first keeps every per-leaf division at shard scale; while
    // P_new is smaller than the shard product the reduction short-circuits
    // to a comparison.
    let t1 = Instant::now();
    let shard_products = &cache.shard_products;
    let sweep_tasks: Vec<_> = (0..old_shards)
        .map(|s| {
            let pool = &pool;
            let sweep_domain = &sweep_domain;
            let p_new = &p_new;
            let base = bases[s];
            let locals = std::mem::take(&mut hit_locals[s]);
            let store = &*store;
            move || -> Result<SweepOut, CorpusError> {
                let moduli = store.read_shard(s as u32)?;
                let reduced = p_new % &shard_products[s];
                let ds: Vec<Option<Natural>> = pool
                    .exec_in(sweep_domain)
                    .map(moduli.iter().collect(), |n: &Natural| {
                        leaf_gcd(n, &(&reduced % n))
                    });
                let fresh = ds
                    .into_iter()
                    .enumerate()
                    .filter_map(|(local, d)| {
                        d.map(|d| (base + local as u64, moduli[local].clone(), d))
                    })
                    .collect();
                let cached = locals
                    .iter()
                    .map(|&local| (base + local, moduli[local as usize].clone()))
                    .collect();
                Ok(SweepOut { fresh, cached })
            }
        })
        .collect();
    let sweep_outs = pool
        .exec()
        .run_tasks(sweep_tasks)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let delta_sweep_time = t1.elapsed();

    // Phase 3: resolve the delta against the cached old product by one
    // plain descent of P_old.
    let t2 = Instant::now();
    let rems_old = t_new.remainder_tree_plain(&cache.top_product, pool.exec_in(&cross_domain));
    drop(t_new);
    let cross_items: Vec<(&Natural, Natural, Option<Natural>)> = delta
        .iter()
        .zip(rems_old)
        .zip(delta_raw)
        .map(|((n, r), g)| (n, r, g))
        .collect();
    let new_divisors: Vec<Option<Natural>> =
        pool.exec_in(&cross_domain)
            .map(cross_items, |(n, r, g_delta)| {
                let e = n.gcd(&r);
                let combined = match g_delta {
                    // gcd(N, e * g) with e = gcd(N, P_old), g = gcd(N, P_new/N).
                    Some(g) => n.gcd(&(&e * &g)),
                    None => e,
                };
                if combined.is_one() {
                    None
                } else {
                    Some(combined)
                }
            });
    let delta_cross_time = t2.elapsed();

    // Combine: union divisors for old moduli, then the resolve pass.
    let cached_divisors: BTreeMap<u64, Natural> = cache.hits.iter().cloned().collect();
    let mut hit_ns: BTreeMap<u64, Natural> = BTreeMap::new();
    let mut union_old: BTreeMap<u64, (Natural, Natural)> = BTreeMap::new();
    for out in sweep_outs {
        for (index, n, d) in out.fresh {
            // gcd(N, g_old * d) — always > 1 because d > 1 divides it.
            let combined = match cached_divisors.get(&index) {
                Some(g_old) => n.gcd(&(g_old * &d)),
                None => d,
            };
            union_old.insert(index, (n, combined));
        }
        for (index, n) in out.cached {
            hit_ns.insert(index, n);
        }
    }
    for (index, g_old) in &cached_divisors {
        if union_old.contains_key(index) {
            continue;
        }
        // d = 1 for this modulus, so its union divisor is the cached one.
        let n = hit_ns
            .get(index)
            // lint:allow(no-panic-in-lib) invariant: the sweep returns the modulus of every cached-hit index
            .expect("sweep returns the modulus of every cached hit")
            .clone();
        union_old.insert(*index, (n, g_old.clone()));
    }

    let mut raw_divisors: Vec<Option<Natural>> = vec![None; old_total];
    let mut resolve_hits: Vec<(usize, Natural)> = Vec::with_capacity(union_old.len());
    for (index, (n, g)) in union_old {
        if let Some(slot) = raw_divisors.get_mut(index as usize) {
            *slot = Some(g);
        }
        resolve_hits.push((index as usize, n));
    }
    for (j, g) in new_divisors.iter().enumerate() {
        if g.is_some() {
            resolve_hits.push((old_total + j, delta[j].clone()));
        }
    }
    raw_divisors.extend(new_divisors);
    let statuses = resolve_with_hits(total, &resolve_hits, &raw_divisors);

    // Phase 4: extend the store and bring the cache forward to the union.
    let t3 = Instant::now();
    let appended = store.append(capacity, delta)?;
    let chunks: Vec<&[Natural]> = delta.chunks(capacity).collect();
    let new_products: Vec<Natural> = pool.exec_in(&tree_domain).map(chunks, |chunk| {
        // Balanced pairwise product — same value as the shard's tree root.
        let mut level: Vec<Natural> = chunk.to_vec();
        while level.len() > 1 {
            level = pair_level(&level).into_iter().map(multiply_pair).collect();
        }
        level.pop().unwrap_or_else(Natural::one)
    });
    cache.shard_products.extend(new_products);
    cache.source_crcs.extend(
        store
            .shards()
            .get(appended.start as usize..appended.end as usize)
            .unwrap_or(&[])
            .iter()
            .map(|m| m.crc),
    );
    cache.top_product = &cache.top_product * &p_new;
    cache.total_moduli = total as u64;
    cache.hits = hits_of(&raw_divisors);
    cache.persist()?;
    let delta_cache_update_time = t3.elapsed();

    let mut remainder_exec = sweep_domain.phase();
    remainder_exec.merge(&cross_domain.phase());
    Ok(BatchGcdResult {
        raw_divisors,
        statuses,
        stats: BatchStats {
            product_tree_time: delta_tree_time,
            remainder_tree_time: delta_sweep_time + delta_cross_time,
            gcd_time: Duration::ZERO,
            tree_bytes,
            input_count: total,
            product_tree_exec: tree_domain.phase(),
            remainder_tree_exec: remainder_exec,
            gcd_exec: PhaseExec::default(),
            delta: DeltaMetrics {
                delta_count: delta.len() as u64,
                cached_count: old_total as u64,
                delta_tree_time,
                delta_sweep_time,
                delta_cross_time,
                delta_cache_update_time,
            },
        },
    })
}

/// Empty-delta fast path: rebuild the cached result from the hit list,
/// reading only the shards that contain hits.
fn reconstruct_cached(
    store: &ShardStore,
    cache: &TreeCache,
) -> Result<BatchGcdResult, IncrementalError> {
    let total = cache.total_moduli as usize;
    let mut raw_divisors: Vec<Option<Natural>> = vec![None; total];
    let mut resolve_hits: Vec<(usize, Natural)> = Vec::with_capacity(cache.hits.len());

    let bases = shard_bases(store);
    let mut shard: Option<(usize, Vec<Natural>)> = None;
    for (index, g) in &cache.hits {
        let (s, local) = locate(&bases, *index);
        let resident = matches!(&shard, Some((held, _)) if *held == s);
        if !resident {
            shard = Some((s, store.read_shard(s as u32)?));
        }
        let n = shard
            .as_ref()
            .and_then(|(_, moduli)| moduli.get(local as usize))
            .ok_or_else(|| IncrementalError::Stale {
                path: cache.dir.clone(),
                detail: format!("cached hit index {index} outside shard {s}"),
            })?
            .clone();
        if let Some(slot) = raw_divisors.get_mut(*index as usize) {
            *slot = Some(g.clone());
        }
        resolve_hits.push((*index as usize, n));
    }
    let statuses = resolve_with_hits(total, &resolve_hits, &raw_divisors);
    Ok(BatchGcdResult {
        raw_divisors,
        statuses,
        stats: BatchStats {
            input_count: total,
            delta: DeltaMetrics {
                delta_count: 0,
                cached_count: total as u64,
                ..DeltaMetrics::default()
            },
            ..BatchStats::default()
        },
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
        assert_eq!(reopened.top_product(), &nat(33 * 323 * 15));
        assert_eq!(reopened.hits(), cache.hits());
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
        // Caches written by older builds also hold a fourth section,
        // `recips.wkc`. It is not read: the cache opens, delta-updates like
        // any other, and `remove` still clears the directory.
        let (mut store, cache) = setup("incr-legacy", 2, &month1());
        let legacy = cache.dir().join("recips.wkc");
        let mut payload = cache.state_tag().to_le_bytes().to_vec();
        payload.extend_from_slice(&[0xa5; 24]);
        write_section(cache.dir(), "recips.wkc", 4, 2, &payload).unwrap();
        let mut reopened = TreeCache::open(cache.dir(), &store).unwrap();
        let res = incremental_batch_gcd(&mut store, &mut reopened, &month2(), 2, 1).unwrap();
        let mut union = month1();
        union.extend(month2());
        assert_eq!(res.raw_divisors, batch_gcd(&union, 1).raw_divisors);
        assert!(legacy.is_file(), "an update leaves the legacy file alone");
        let dir = reopened.dir().to_path_buf();
        teardown(store, reopened);
        assert!(!dir.exists());
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
        // Delta tree on the product side; sweep and cross on the remainder side.
        assert!(res.stats.product_tree_exec.tasks() > 0);
        assert!(res.stats.remainder_tree_exec.tasks() > 0);

        // The store and cache both advanced to the union.
        assert_eq!(store.total_moduli(), 6);
        assert_eq!(cache.total_moduli(), 6);
        assert_eq!(
            cache.top_product(),
            &union.iter().fold(nat(1), |a, m| &a * m)
        );
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
        assert!(cache.top_product().is_one());

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
        // Transplant b's top section into a's cache: tags disagree.
        fs::copy(cache_b.dir().join(TOP_FILE), cache_a.dir().join(TOP_FILE)).unwrap();
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
