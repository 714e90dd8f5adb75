//! Persistent corpus sharding: the scan corpus on disk, feeding batch GCD.
//!
//! The paper batch-GCDs 81.2M distinct moduli — far more than fits in one
//! machine's RAM — and its cluster design assumes the corpus streams from
//! stable storage in chunks. This module keeps the *input corpus* itself
//! on disk:
//!
//! * [`ShardStore`] writes the corpus as fixed-capacity, checksummed shard
//!   files (format specified field-by-field in DESIGN.md §7) and re-opens
//!   an existing store for later runs;
//! * [`ShardReader`] streams one shard's moduli back with bounded RAM —
//!   nothing is memory-mapped, corruption surfaces as a typed
//!   [`CorpusError`], never a panic;
//! * [`sharded_batch_gcd`] runs the classic algorithm with the
//!   work-stealing pool pulling shards on demand: each worker claims a
//!   shard, builds its partial products, and the leaf remainder phase
//!   streams shard-by-shard, so peak resident moduli stay at one shard per
//!   worker instead of the whole corpus.
//!
//! The per-modulus payload encoding is the limb codec [`encode_natural`] /
//! [`decode_natural`] (little-endian `u64` limb count, then the limbs),
//! shared with the tree-cache sections and the cluster exchange files, so
//! tooling that understands one format understands all three.
//!
//! # Examples
//!
//! ```
//! use wk_batchgcd::{batch_gcd, scratch_dir, sharded_batch_gcd, ShardStore};
//! use wk_bigint::Natural;
//!
//! // 33 = 3*11 and 39 = 3*13 share the prime 3; 323 = 17*19 is clean.
//! let moduli: Vec<Natural> = [33u64, 39, 323].map(Natural::from).to_vec();
//! let dir = scratch_dir("corpus-doc");
//! let store = ShardStore::create(&dir, 2, &moduli).unwrap();
//! assert_eq!(store.shard_count(), 2); // capacity 2 -> shards of 2 + 1
//!
//! let sharded = sharded_batch_gcd(&store, 1).unwrap();
//! let classic = batch_gcd(&moduli, 1);
//! assert_eq!(sharded.raw_divisors, classic.raw_divisors);
//! assert_eq!(sharded.statuses, classic.statuses);
//! store.remove().unwrap();
//! ```

use crate::classic::{BatchGcdResult, BatchStats};
use crate::pool::{ExecDomain, WorkerPool};
use crate::resolve::resolve_with_hits;
use crate::tree::{DescentScratch, ProductTree};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wk_bigint::Natural;

/// Magic bytes opening every shard file (`"WKSHARD1"`).
pub const SHARD_MAGIC: [u8; 8] = *b"WKSHARD1";

/// On-disk format version this build reads and writes.
pub const SHARD_FORMAT_VERSION: u32 = 1;

/// Size of the fixed shard header in bytes (see DESIGN.md §7 for the
/// field-by-field layout).
pub const SHARD_HEADER_LEN: usize = 36;

/// File name of shard `index` inside a store directory.
fn shard_file_name(index: u32) -> String {
    format!("shard-{index:06}.wks")
}

/// Fsync a directory, making previously renamed/created entries durable.
///
/// `File::sync_all` on a freshly written file persists its *contents*, but
/// the directory entry created by the `rename` that published it lives in
/// the directory's own metadata — on a power loss the file can simply not
/// be there after reboot unless the directory is fsynced too. Every
/// tmp-write/rename commit in this workspace (shard files, tree-cache
/// sections, the service watermark) follows the rename with a call to this
/// function; DESIGN.md §8.2 states the resulting guarantee.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// A unique scratch directory under the system temp dir (no external
/// tempfile dependency; uniqueness from pid + a process-wide counter).
pub fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("wk-batchgcd-{tag}-{}-{n}", std::process::id()))
}

// ---------------------------------------------------------------------------
// Natural record codec
// ---------------------------------------------------------------------------

/// Append one value's record to `w`: `u64` limb count (LE) followed by the
/// limbs (LE). Returns the record's byte length. This codec is shared
/// verbatim between shard-store payloads, tree-cache sections, and the
/// cluster exchange format — public so out-of-crate consumers (the
/// `wk-cluster` exchange files) serialize naturals bit-compatibly with
/// every other on-disk artifact.
pub fn encode_natural<W: Write>(w: &mut W, n: &Natural) -> io::Result<u64> {
    let limbs = n.limbs();
    w.write_all(&(limbs.len() as u64).to_le_bytes())?;
    for &l in limbs {
        w.write_all(&l.to_le_bytes())?;
    }
    Ok(8 + limbs.len() as u64 * 8)
}

/// Read one record back. `scratch` is left holding the record's raw bytes
/// (limb-count prefix included) so callers can checksum exactly what was
/// read; the return value is the decoded natural plus the record length.
///
/// A limb count above `max_limbs` fails with [`io::ErrorKind::InvalidData`]
/// before any allocation, so a corrupt length prefix cannot trigger a huge
/// buffer request; reads past EOF fail with `UnexpectedEof`.
pub fn decode_natural<R: Read>(
    r: &mut R,
    scratch: &mut Vec<u8>,
    max_limbs: u64,
) -> io::Result<(Natural, u64)> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let len = u64::from_le_bytes(header);
    if len > max_limbs {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "record limb count exceeds bound",
        ));
    }
    scratch.clear();
    scratch.extend_from_slice(&header);
    scratch.resize(8 + len as usize * 8, 0);
    r.read_exact(&mut scratch[8..])?;
    let limbs: Vec<u64> = scratch[8..]
        .chunks_exact(8)
        // chunks_exact(8) yields exactly-8-byte slices, so the
        // conversion is infallible; the fallback is never taken.
        .map(|chunk| u64::from_le_bytes(chunk.try_into().unwrap_or([0; 8])))
        .collect();
    Ok((Natural::from_limbs(limbs), 8 + len * 8))
}

/// Removes tracked files (and the directory, when left empty) on drop
/// unless defused: arm it before writing a multi-file artifact, [`track`]
/// each path before creating it, and [`defuse`] once every write has
/// succeeded. An early `?` return then leaves no partial output behind.
/// Used by [`ShardStore::create`] and [`ShardStore::append`].
///
/// [`track`]: PartialGuard::track
/// [`defuse`]: PartialGuard::defuse
pub(crate) struct PartialGuard {
    dir: PathBuf,
    paths: Vec<PathBuf>,
    armed: bool,
}

impl PartialGuard {
    /// An armed guard for output under `dir`.
    pub(crate) fn new(dir: PathBuf) -> PartialGuard {
        PartialGuard {
            dir,
            paths: Vec::new(),
            armed: true,
        }
    }

    /// Register `path` for removal if the guard fires. Call *before*
    /// creating the file, so a write that fails halfway is still covered.
    pub(crate) fn track(&mut self, path: PathBuf) {
        self.paths.push(path);
    }

    /// The artifact is complete; keep the files.
    pub(crate) fn defuse(&mut self) {
        self.armed = false;
    }
}

impl Drop for PartialGuard {
    /// Best-effort removal of every tracked path, then of the directory if
    /// nothing else lives in it.
    fn drop(&mut self) {
        if self.armed {
            for p in &self.paths {
                let _ = fs::remove_file(p);
            }
            let _ = fs::remove_dir(&self.dir);
        }
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected). No external dependency is available, so
// the table is generated at compile time.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// Incremental CRC-32 state. Shared with the persisted tree cache
/// ([`crate::incremental`]), which checksums its section payloads with the
/// same polynomial so one toolchain validates both artifact kinds.
#[derive(Clone, Copy)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.0;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    pub(crate) fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 (IEEE 802.3, reflected) of `bytes` — the checksum every
/// on-disk artifact in this workspace carries (shard payloads, tree-cache
/// sections, cluster exchange files). Public so out-of-crate writers of the
/// `WKTREEC1` section format (the `wk-cluster` exchange directory) produce
/// headers this crate's readers validate.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong reading or writing a shard store. Corrupt
/// or mismatched files surface as typed variants — never a panic — so a
/// long batch run can report exactly which shard failed and why.
#[derive(Debug)]
pub enum CorpusError {
    /// An underlying filesystem error.
    Io(io::Error),
    /// The file does not start with [`SHARD_MAGIC`].
    BadMagic {
        /// Offending file.
        path: PathBuf,
        /// The eight bytes actually found.
        found: [u8; 8],
    },
    /// The file's format version is not [`SHARD_FORMAT_VERSION`].
    VersionSkew {
        /// Offending file.
        path: PathBuf,
        /// Version recorded in the file.
        found: u32,
    },
    /// The file ends before the header's payload length is reached.
    Truncated {
        /// Offending file.
        path: PathBuf,
    },
    /// The payload's checksum does not match the header CRC.
    CrcMismatch {
        /// Offending file.
        path: PathBuf,
        /// CRC recorded in the header.
        expected: u32,
        /// CRC computed over the payload actually read.
        actual: u32,
    },
    /// A structural inconsistency: header fields that contradict each other
    /// or the file contents (e.g. a record overrunning the payload length,
    /// or a shard index that does not match its position in the store).
    FormatViolation {
        /// Offending file.
        path: PathBuf,
        /// What was inconsistent.
        detail: String,
    },
    /// [`ShardStore::append`] was asked to write shards of a different
    /// capacity than the store already uses. Mixing capacities would break
    /// the positional index arithmetic incremental runs rely on.
    CapacityMismatch {
        /// The store directory.
        dir: PathBuf,
        /// The store's existing shard capacity.
        expected: u64,
        /// The capacity the caller asked for.
        found: u64,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "shard I/O error: {e}"),
            CorpusError::BadMagic { path, found } => {
                write!(f, "{}: bad magic {found:02x?}", path.display())
            }
            CorpusError::VersionSkew { path, found } => write!(
                f,
                "{}: format version {found} (this build supports {SHARD_FORMAT_VERSION})",
                path.display()
            ),
            CorpusError::Truncated { path } => {
                write!(f, "{}: truncated shard", path.display())
            }
            CorpusError::CrcMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{}: payload CRC {actual:08x} != header CRC {expected:08x}",
                path.display()
            ),
            CorpusError::FormatViolation { path, detail } => {
                write!(f, "{}: {detail}", path.display())
            }
            CorpusError::CapacityMismatch {
                dir,
                expected,
                found,
            } => write!(
                f,
                "{}: append with capacity {found}, but the store uses {expected}",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CorpusError {
    fn from(e: io::Error) -> CorpusError {
        CorpusError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Header + metadata
// ---------------------------------------------------------------------------

/// Parsed header of one shard file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMeta {
    /// Position of this shard in the store (0-based, contiguous).
    pub index: u32,
    /// Number of moduli in the shard.
    pub count: u64,
    /// Payload length in bytes (everything between header and EOF).
    pub payload_len: u64,
    /// CRC-32 (IEEE) of the payload.
    pub crc: u32,
}

impl ShardMeta {
    /// Total on-disk size of the shard file (header + payload).
    pub fn file_len(&self) -> u64 {
        SHARD_HEADER_LEN as u64 + self.payload_len
    }

    fn to_header_bytes(self) -> [u8; SHARD_HEADER_LEN] {
        let mut h = [0u8; SHARD_HEADER_LEN];
        h[0..8].copy_from_slice(&SHARD_MAGIC);
        h[8..12].copy_from_slice(&SHARD_FORMAT_VERSION.to_le_bytes());
        h[12..16].copy_from_slice(&self.index.to_le_bytes());
        h[16..24].copy_from_slice(&self.count.to_le_bytes());
        h[24..32].copy_from_slice(&self.payload_len.to_le_bytes());
        h[32..36].copy_from_slice(&self.crc.to_le_bytes());
        h
    }

    fn from_header_bytes(
        path: &Path,
        h: &[u8; SHARD_HEADER_LEN],
    ) -> Result<ShardMeta, CorpusError> {
        let mut magic = [0u8; 8];
        magic.copy_from_slice(&h[0..8]);
        if magic != SHARD_MAGIC {
            return Err(CorpusError::BadMagic {
                path: path.to_path_buf(),
                found: magic,
            });
        }
        let le_u32 = |range: std::ops::Range<usize>| {
            let mut b = [0u8; 4];
            b.copy_from_slice(&h[range]);
            u32::from_le_bytes(b)
        };
        let le_u64 = |range: std::ops::Range<usize>| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&h[range]);
            u64::from_le_bytes(b)
        };
        let version = le_u32(8..12);
        if version != SHARD_FORMAT_VERSION {
            return Err(CorpusError::VersionSkew {
                path: path.to_path_buf(),
                found: version,
            });
        }
        Ok(ShardMeta {
            index: le_u32(12..16),
            count: le_u64(16..24),
            payload_len: le_u64(24..32),
            crc: le_u32(32..36),
        })
    }
}

// ---------------------------------------------------------------------------
// ShardStore
// ---------------------------------------------------------------------------

/// A directory of fixed-capacity, checksummed shard files holding a modulus
/// corpus. A store is *persistent*: nothing is deleted on drop, and
/// [`ShardStore::open`] re-attaches to a directory written earlier (by this
/// process or a previous one). Delete explicitly with
/// [`ShardStore::remove`].
#[derive(Clone, Debug)]
pub struct ShardStore {
    dir: PathBuf,
    shards: Vec<ShardMeta>,
    capacity: u64,
}

impl ShardStore {
    /// Write `moduli` into `dir` (created if absent) as shards of at most
    /// `capacity` moduli each, in iteration order. Returns the open store.
    ///
    /// Partially written output is removed if any write fails, so an
    /// aborted export never leaves a half-valid store behind.
    ///
    /// # Panics
    /// Panics if `capacity` is zero or any modulus is zero (zero moduli are
    /// rejected by every batch-GCD algorithm in this crate).
    pub fn create<'a, I>(dir: &Path, capacity: usize, moduli: I) -> Result<ShardStore, CorpusError>
    where
        I: IntoIterator<Item = &'a Natural>,
    {
        assert!(capacity > 0, "shard capacity must be nonzero");
        fs::create_dir_all(dir)?;
        let shards = write_shards(dir, 0, capacity as u64, moduli)?;
        Ok(ShardStore {
            dir: dir.to_path_buf(),
            shards,
            capacity: capacity as u64,
        })
    }

    /// Append `moduli` to an already-open store as *new* shards of at most
    /// `capacity` moduli each, never rewriting an existing shard file (a
    /// ragged final shard from the previous batch stays as-is — batch
    /// boundaries remain visible in the shard layout). Returns the index
    /// range of the shards written, empty if `moduli` was empty.
    ///
    /// This is the store half of an incremental month ingest: open the
    /// store, `append` the month's moduli, then run
    /// [`incremental_batch_gcd`](crate::incremental::incremental_batch_gcd)
    /// over the delta.
    ///
    /// # Errors
    /// [`CorpusError::CapacityMismatch`] if `capacity` differs from the
    /// store's existing shard capacity (a store that still has zero shards
    /// accepts any nonzero capacity and adopts it); filesystem errors as
    /// [`CorpusError::Io`]. A failed append removes the shards it wrote, so
    /// the store is never left half-extended. Version skew in existing
    /// shards surfaces earlier, from [`ShardStore::open`].
    ///
    /// # Panics
    /// Panics if `capacity` is zero or any modulus is zero, matching
    /// [`ShardStore::create`].
    pub fn append<'a, I>(
        &mut self,
        capacity: usize,
        moduli: I,
    ) -> Result<std::ops::Range<u32>, CorpusError>
    where
        I: IntoIterator<Item = &'a Natural>,
    {
        assert!(capacity > 0, "shard capacity must be nonzero");
        if self.capacity != 0 && self.capacity != capacity as u64 {
            return Err(CorpusError::CapacityMismatch {
                dir: self.dir.clone(),
                expected: self.capacity,
                found: capacity as u64,
            });
        }
        fs::create_dir_all(&self.dir)?;
        let start = self.shards.len() as u32;
        let new_shards = write_shards(&self.dir, start, capacity as u64, moduli)?;
        let end = start + new_shards.len() as u32;
        self.shards.extend(new_shards);
        self.capacity = capacity as u64;
        Ok(start..end)
    }

    /// Re-open a store directory written earlier. Validates every shard
    /// header (magic, version, index contiguity, file length) without
    /// reading payloads; payload checksums are verified on read.
    pub fn open(dir: &Path) -> Result<ShardStore, CorpusError> {
        let mut indexed: Vec<(u32, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix("shard-")
                .and_then(|s| s.strip_suffix(".wks"))
            else {
                continue;
            };
            let Ok(index) = stem.parse::<u32>() else {
                continue;
            };
            indexed.push((index, entry.path()));
        }
        indexed.sort();
        let mut shards = Vec::with_capacity(indexed.len());
        for (position, (index, path)) in indexed.iter().enumerate() {
            let mut header = [0u8; SHARD_HEADER_LEN];
            let mut file = File::open(path)?;
            file.read_exact(&mut header).map_err(|e| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    CorpusError::Truncated { path: path.clone() }
                } else {
                    CorpusError::Io(e)
                }
            })?;
            let meta = ShardMeta::from_header_bytes(path, &header)?;
            if meta.index != *index || *index != position as u32 {
                return Err(CorpusError::FormatViolation {
                    path: path.clone(),
                    detail: format!(
                        "shard index {} at store position {position} (file name says {index})",
                        meta.index
                    ),
                });
            }
            let actual_len = file.metadata()?.len();
            if actual_len < meta.file_len() {
                return Err(CorpusError::Truncated { path: path.clone() });
            }
            shards.push(meta);
        }
        let capacity = shards.iter().map(|s| s.count).max().unwrap_or(0);
        Ok(ShardStore {
            dir: dir.to_path_buf(),
            shards,
            capacity,
        })
    }

    /// Directory holding the shard files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shard files.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Maximum moduli per shard (the `create` capacity, or the largest
    /// observed shard for an opened store).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Total moduli across all shards.
    pub fn total_moduli(&self) -> u64 {
        self.shards.iter().map(|s| s.count).sum()
    }

    /// Total bytes on disk (headers + payloads).
    pub fn bytes_on_disk(&self) -> u64 {
        self.shards.iter().map(|s| s.file_len()).sum()
    }

    /// Header metadata of every shard, in index order.
    pub fn shards(&self) -> &[ShardMeta] {
        &self.shards
    }

    /// The corpus state tag: a CRC-32 (zero-extended to `u64`) over every
    /// shard's payload CRC followed by the total modulus count. This is the
    /// same binding value a [`TreeCache`](crate::incremental::TreeCache)
    /// embeds in its section files ([`TreeCache::state_tag`]), so a
    /// provenance record carrying both tags proves which corpus state an
    /// answer was computed from.
    ///
    /// [`TreeCache::state_tag`]: crate::incremental::TreeCache::state_tag
    pub fn state_tag(&self) -> u64 {
        let mut crc = Crc32::new();
        for meta in &self.shards {
            crc.update(&meta.crc.to_le_bytes());
        }
        crc.update(&self.total_moduli().to_le_bytes());
        u64::from(crc.finish())
    }

    /// Path of shard `index` (whether or not it exists).
    pub fn shard_path(&self, index: u32) -> PathBuf {
        self.dir.join(shard_file_name(index))
    }

    /// Open a streaming reader over shard `index`.
    pub fn reader(&self, index: u32) -> Result<ShardReader, CorpusError> {
        ShardReader::open(&self.shard_path(index))
    }

    /// Read all of shard `index` into memory, verifying the checksum.
    pub fn read_shard(&self, index: u32) -> Result<Vec<Natural>, CorpusError> {
        let reader = self.reader(index)?;
        let mut out = Vec::with_capacity(reader.meta().count as usize);
        for modulus in reader {
            out.push(modulus?);
        }
        Ok(out)
    }

    /// Delete the shard files (and the directory, if then empty). The
    /// explicit destructor: dropping a store leaves its files in place.
    pub fn remove(self) -> io::Result<()> {
        for meta in &self.shards {
            let name = shard_file_name(meta.index);
            match fs::remove_file(self.dir.join(&name)) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            let _ = fs::remove_file(self.dir.join(format!("{name}.tmp")));
        }
        let _ = fs::remove_dir(&self.dir);
        Ok(())
    }
}

/// Write `moduli` as shard files `start_index..` under `dir`, at most
/// `capacity` per shard. Shared by [`ShardStore::create`] and
/// [`ShardStore::append`]; a failed write removes every shard this call
/// created (and only those) before the error propagates.
fn write_shards<'a, I>(
    dir: &Path,
    start_index: u32,
    capacity: u64,
    moduli: I,
) -> Result<Vec<ShardMeta>, CorpusError>
where
    I: IntoIterator<Item = &'a Natural>,
{
    let mut guard = PartialGuard::new(dir.to_path_buf());
    let mut shards = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    let mut pending: u64 = 0;

    let flush = |payload: &mut Vec<u8>,
                 pending: &mut u64,
                 shards: &mut Vec<ShardMeta>,
                 guard: &mut PartialGuard|
     -> Result<(), CorpusError> {
        if *pending == 0 {
            return Ok(());
        }
        let index = start_index + shards.len() as u32;
        let meta = ShardMeta {
            index,
            count: *pending,
            payload_len: payload.len() as u64,
            crc: crc32(payload),
        };
        // Tmp-write, rename, then fsync the directory: a crash at any point
        // leaves either no `shard-NNNNNN.wks` entry or a complete durable
        // one — `ShardStore::open` ignores `.tmp` leftovers by name, so a
        // torn write can never be mistaken for a shard.
        let path = dir.join(shard_file_name(index));
        let tmp = dir.join(format!("{}.tmp", shard_file_name(index)));
        guard.track(tmp.clone());
        guard.track(path.clone());
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&meta.to_header_bytes())?;
            file.write_all(payload)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        fsync_dir(dir)?;
        shards.push(meta);
        payload.clear();
        *pending = 0;
        Ok(())
    };

    for m in moduli {
        assert!(!m.is_zero(), "zero modulus in corpus export");
        encode_natural(&mut payload, m)?;
        pending += 1;
        if pending == capacity {
            flush(&mut payload, &mut pending, &mut shards, &mut guard)?;
        }
    }
    flush(&mut payload, &mut pending, &mut shards, &mut guard)?;
    guard.defuse();
    Ok(shards)
}

// ---------------------------------------------------------------------------
// ShardReader
// ---------------------------------------------------------------------------

/// Streams one shard's moduli from disk with bounded memory: a buffered
/// sequential read, one modulus resident at a time, a running CRC. The
/// checksum and payload length are verified no later than the read that
/// yields the final modulus, so corrupt data never escapes silently.
///
/// Iterate it directly; each item is a `Result<Natural, CorpusError>`.
pub struct ShardReader {
    path: PathBuf,
    reader: BufReader<File>,
    meta: ShardMeta,
    yielded: u64,
    consumed: u64,
    crc: Crc32,
    scratch: Vec<u8>,
    /// Set after an error or final verification; further reads yield None.
    finished: bool,
}

impl fmt::Debug for ShardReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardReader")
            .field("path", &self.path)
            .field("meta", &self.meta)
            .field("yielded", &self.yielded)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl ShardReader {
    /// Open `path` and validate its header.
    pub fn open(path: &Path) -> Result<ShardReader, CorpusError> {
        let file = File::open(path)?;
        let mut reader = BufReader::new(file);
        let mut header = [0u8; SHARD_HEADER_LEN];
        reader.read_exact(&mut header).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                CorpusError::Truncated {
                    path: path.to_path_buf(),
                }
            } else {
                CorpusError::Io(e)
            }
        })?;
        let meta = ShardMeta::from_header_bytes(path, &header)?;
        Ok(ShardReader {
            path: path.to_path_buf(),
            reader,
            meta,
            yielded: 0,
            consumed: 0,
            crc: Crc32::new(),
            scratch: Vec::new(),
            finished: false,
        })
    }

    /// The shard's parsed header.
    pub fn meta(&self) -> &ShardMeta {
        &self.meta
    }

    fn fail(&mut self, err: CorpusError) -> CorpusError {
        self.finished = true;
        err
    }

    /// Read the next modulus, or `Ok(None)` after the last one. The call
    /// returning the final modulus also verifies the payload length and
    /// CRC, turning corruption into an error before the caller can use a
    /// bad value.
    pub fn next_modulus(&mut self) -> Result<Option<Natural>, CorpusError> {
        if self.finished || self.yielded == self.meta.count {
            return Ok(None);
        }
        let budget = self.meta.payload_len.saturating_sub(self.consumed);
        let max_limbs = budget.saturating_sub(8) / 8;
        let (n, bytes) = match decode_natural(&mut self.reader, &mut self.scratch, max_limbs) {
            Ok(pair) => pair,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                let path = self.path.clone();
                return Err(self.fail(CorpusError::Truncated { path }));
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let path = self.path.clone();
                return Err(self.fail(CorpusError::FormatViolation {
                    path,
                    detail: "record overruns the header payload length".to_string(),
                }));
            }
            Err(e) => return Err(self.fail(CorpusError::Io(e))),
        };
        self.crc.update(&self.scratch);
        self.consumed += bytes;
        self.yielded += 1;
        if self.yielded == self.meta.count {
            self.finished = true;
            if self.consumed != self.meta.payload_len {
                return Err(CorpusError::FormatViolation {
                    path: self.path.clone(),
                    detail: format!(
                        "payload is {} bytes but header says {}",
                        self.consumed, self.meta.payload_len
                    ),
                });
            }
            let actual = self.crc.finish();
            if actual != self.meta.crc {
                return Err(CorpusError::CrcMismatch {
                    path: self.path.clone(),
                    expected: self.meta.crc,
                    actual,
                });
            }
        }
        Ok(Some(n))
    }
}

impl Iterator for ShardReader {
    type Item = Result<Natural, CorpusError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_modulus().transpose()
    }
}

// ---------------------------------------------------------------------------
// Shard-level run metrics
// ---------------------------------------------------------------------------

/// Shard-level I/O and scheduling metrics for one batch-GCD run, surfaced
/// on [`BatchStats`] and
/// [`ClusterReport`](crate::distributed::ClusterReport). In-memory runs
/// leave it all-zero (the `Default`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Shards persisted in the store feeding the run.
    pub shards_written: u64,
    /// Shard-file reads performed ([`sharded_batch_gcd`] streams each shard
    /// twice: once for partial products, once for the leaf remainders).
    pub shards_read: u64,
    /// Bytes spilled to disk across the feeding store's shards.
    pub bytes_written: u64,
    /// Bytes read back from shard files during the run.
    pub bytes_read: u64,
    /// Busy (wall) time spent inside each shard's claimed tasks, indexed by
    /// shard.
    pub shard_busy: Vec<Duration>,
}

impl ShardMetrics {
    /// Summed per-shard busy time.
    pub fn total_busy(&self) -> Duration {
        self.shard_busy.iter().sum()
    }

    /// True when no shard I/O happened (an in-memory run).
    pub fn is_empty(&self) -> bool {
        self.shards_read == 0 && self.shards_written == 0
    }
}

// ---------------------------------------------------------------------------
// sharded_batch_gcd
// ---------------------------------------------------------------------------

/// Classic batch GCD over a disk-resident corpus, with the work-stealing
/// pool pulling shards on demand.
///
/// The computation is restructured so no phase ever needs the whole corpus
/// in memory:
///
/// 1. **Shard products** — workers claim shards from the pool's deques;
///    each claim streams the shard from disk, builds its product tree, and
///    keeps only the shard product (one [`Natural`] per shard).
/// 2. **Top tree** — an in-memory product tree over the shard products
///    yields the global product `P`.
/// 3. **Leaf remainders** — a cofactor descent over the top tree gives the
///    seed `(P/R_s) mod R_s` per shard, where `R_s` is the shard product;
///    workers then claim shards again, re-read each one, rebuild its
///    (shard-local) tree, continue the cofactor descent to `(P/N_i) mod N_i`,
///    and take one gcd per leaf — no division follows the descent.
///
/// Peak resident moduli are one shard per active worker (plus the shard
/// products and top tree), not the corpus — the property that lets the
/// paper-scale 81.2M-modulus corpus run on fixed RAM. Raw divisors and
/// statuses are byte-identical to [`batch_gcd`](crate::classic::batch_gcd)
/// on the same moduli in the same order: every remainder is an exact
/// modular reduction, so tree shape cannot change values.
///
/// Timing note: shard claims interleave remainder descent and gcd work, so
/// `remainder_tree_time` covers the whole leaf phase wall-clock while
/// `gcd_time` reports the gcd tasks' summed busy time from the executor.
///
/// # Errors
/// Any shard that fails to read back (truncation, checksum, version skew)
/// aborts the run with the corresponding [`CorpusError`].
pub fn sharded_batch_gcd(
    store: &ShardStore,
    threads: usize,
) -> Result<BatchGcdResult, CorpusError> {
    Ok(sharded_impl(store, threads, false)?.0)
}

/// Like [`sharded_batch_gcd`], but additionally returns the per-shard
/// products and the top product — the raw material for a persisted
/// [`TreeCache`](crate::incremental::TreeCache). Keeping them costs one
/// extra corpus-sized set of naturals over the streaming run's footprint,
/// which is why the public entry point drops them. An empty store yields
/// `(empty result, [], 1)`.
pub(crate) fn sharded_batch_gcd_keeping_tree(
    store: &ShardStore,
    threads: usize,
) -> Result<(BatchGcdResult, Vec<Natural>, Natural), CorpusError> {
    sharded_impl(store, threads, true)
}

/// Build one shard's local product tree and return its root — the unit of
/// work a cluster node performs per claimed shard. This streams exactly the
/// same bytes and builds exactly the same tree as phase 1 of
/// [`sharded_batch_gcd`] on the claiming worker, so a root computed on any
/// process is bit-identical to the one the single-process run would have
/// produced for that shard.
///
/// # Errors
/// Propagates the shard's read-back failure ([`CorpusError`]) or a
/// structurally empty/zero shard as [`CorpusError::FormatViolation`].
pub fn shard_subtree_root(store: &ShardStore, index: u32) -> Result<Natural, CorpusError> {
    let moduli = store.read_shard(index)?;
    let tree = ProductTree::build_local(&moduli).map_err(|e| CorpusError::FormatViolation {
        path: store.shard_path(index),
        detail: e.to_string(),
    })?;
    Ok(tree.root().clone())
}

/// Output of [`assemble_from_shard_roots`]: the batch result plus the tree
/// material a caller needs to persist a
/// [`TreeCache`](crate::incremental::TreeCache) without recomputing
/// anything (see [`TreeCache::from_parts`](crate::incremental::TreeCache::from_parts)).
#[derive(Debug)]
pub struct ShardAssembly {
    /// Divisors and statuses, byte-identical to [`sharded_batch_gcd`] over
    /// the same store.
    pub result: BatchGcdResult,
    /// The per-shard products that were passed in, returned unchanged and
    /// in shard order.
    pub shard_products: Vec<Natural>,
    /// The top product `P` (product of every shard product; `1` when the
    /// store is empty).
    pub top_product: Natural,
}

/// Phases 2–3 of the sharded run, given per-shard products computed
/// elsewhere — the assembly step a cluster coordinator performs after
/// worker processes have published every shard's subtree root. The top
/// tree, cofactor descent, and per-shard leaf work are the *same code*
/// phases 2–3 of [`sharded_batch_gcd`] run, so for correct inputs the
/// divisors and statuses are byte-identical to the single-process run by
/// construction.
///
/// `shard_products` must be index-aligned with the store's shards. The
/// products are trusted (recomputing them would defeat the point); callers
/// that receive them over a cluster exchange are expected to have bound
/// each file to the store's state tag (DESIGN.md §12). Shape errors —
/// wrong count, or a zero product that no well-formed shard can produce —
/// are rejected as [`CorpusError::FormatViolation`].
pub fn assemble_from_shard_roots(
    store: &ShardStore,
    shard_products: Vec<Natural>,
    threads: usize,
) -> Result<ShardAssembly, CorpusError> {
    if shard_products.len() != store.shard_count() {
        return Err(CorpusError::FormatViolation {
            path: store.dir().to_path_buf(),
            detail: format!(
                "assembly was handed {} shard roots for a {}-shard store",
                shard_products.len(),
                store.shard_count()
            ),
        });
    }
    if let Some(i) = shard_products.iter().position(Natural::is_zero) {
        return Err(CorpusError::FormatViolation {
            path: store.shard_path(i as u32),
            detail: "shard root is zero; no well-formed shard produces a zero product".to_string(),
        });
    }
    if store.shard_count() == 0 {
        return Ok(ShardAssembly {
            result: BatchGcdResult {
                raw_divisors: Vec::new(),
                statuses: Vec::new(),
                stats: BatchStats::default(),
            },
            shard_products: Vec::new(),
            top_product: Natural::one(),
        });
    }
    let pool = WorkerPool::new(threads);
    let build_domain = pool.domain();
    let pre = PhaseOne {
        start: Instant::now(),
        max_shard_tree_bytes: 0,
        shard_busy: vec![Duration::ZERO; store.shard_count()],
        shards_read: 0,
        bytes_read: 0,
    };
    let (result, shard_products, top_product) =
        assemble_impl(store, shard_products, &pool, build_domain, true, pre)?;
    Ok(ShardAssembly {
        result,
        shard_products,
        top_product,
    })
}

/// Phase-1 accounting carried into [`assemble_impl`] so the streamed
/// single-process path and the cluster assembly path share one
/// implementation of phases 2–3: where the shard products came from (and
/// what reading them cost) differs, but everything after them must not.
struct PhaseOne {
    /// When the run's product phase began; `product_tree_time` spans from
    /// here through the top-tree build.
    start: Instant,
    /// Largest shard tree seen so far (bytes).
    max_shard_tree_bytes: usize,
    /// Per-shard busy time accumulated so far, index-aligned.
    shard_busy: Vec<Duration>,
    /// Shard reads already performed on this store.
    shards_read: u64,
    /// Bytes already read from this store.
    bytes_read: u64,
}

fn sharded_impl(
    store: &ShardStore,
    threads: usize,
    keep_tree: bool,
) -> Result<(BatchGcdResult, Vec<Natural>, Natural), CorpusError> {
    let shard_count = store.shard_count();
    if shard_count == 0 {
        return Ok((
            BatchGcdResult {
                raw_divisors: Vec::new(),
                statuses: Vec::new(),
                stats: BatchStats::default(),
            },
            Vec::new(),
            Natural::one(),
        ));
    }

    let pool = WorkerPool::new(threads);
    let build_domain = pool.domain();

    // Phase 1: one pool task per shard; the deques deal and steal them, so
    // a free worker always claims the next unprocessed shard.
    let t0 = Instant::now();
    let product_tasks: Vec<_> = (0..shard_count as u32)
        .map(|index| {
            move || -> Result<(Natural, usize, Duration), CorpusError> {
                let start = Instant::now();
                let moduli = store.read_shard(index)?;
                // The shard's own tree is built on the claiming worker: at
                // shard scale the pair multiplies are far smaller than the
                // dispatch they'd otherwise schedule.
                let tree = ProductTree::build_local(&moduli).map_err(|e| {
                    CorpusError::FormatViolation {
                        path: store.shard_path(index),
                        detail: e.to_string(),
                    }
                })?;
                let root = tree.root().clone();
                let tree_bytes = tree.total_bytes();
                // Worker-local recycling: the next shard this worker claims
                // rebuilds a same-shaped tree straight from the arena.
                tree.recycle();
                for m in moduli {
                    wk_bigint::arena::recycle(m);
                }
                Ok((root, tree_bytes, start.elapsed()))
            }
        })
        .collect();
    let mut shard_products = Vec::with_capacity(shard_count);
    let mut max_shard_tree_bytes = 0usize;
    let mut shard_busy = vec![Duration::ZERO; shard_count];
    for (i, outcome) in pool
        .exec_in(&build_domain)
        .run_tasks(product_tasks)
        .into_iter()
        .enumerate()
    {
        let (root, tree_bytes, busy) = outcome?;
        shard_products.push(root);
        max_shard_tree_bytes = max_shard_tree_bytes.max(tree_bytes);
        shard_busy[i] += busy;
    }

    let pre = PhaseOne {
        start: t0,
        max_shard_tree_bytes,
        shard_busy,
        shards_read: shard_count as u64,
        bytes_read: store.bytes_on_disk(),
    };
    assemble_impl(store, shard_products, &pool, build_domain, keep_tree, pre)
}

/// Phases 2–3, shared between [`sharded_impl`] and
/// [`assemble_from_shard_roots`]: top tree over the shard products,
/// cofactor descent to per-shard seeds, then per-shard leaf work.
fn assemble_impl(
    store: &ShardStore,
    shard_products: Vec<Natural>,
    pool: &WorkerPool,
    build_domain: ExecDomain,
    keep_tree: bool,
    pre: PhaseOne,
) -> Result<(BatchGcdResult, Vec<Natural>, Natural), CorpusError> {
    let total = store.total_moduli() as usize;
    let shard_count = store.shard_count();
    let remainder_domain = pool.domain();
    let gcd_domain = pool.domain();
    let mut max_shard_tree_bytes = pre.max_shard_tree_bytes;
    let mut shard_busy = pre.shard_busy;

    // Phase 2: the top tree over shard products fits in memory by
    // construction (one node per shard).
    let top = ProductTree::build(&shard_products, pool.exec_in(&build_domain))
        // lint:allow(no-panic-in-lib) invariant: shard_count > 0 and every shard product is a product of nonzero moduli
        .expect("shard products are nonempty and nonzero");
    let product_tree_time = pre.start.elapsed();
    // No reciprocal caches for the top descent: each node's `mu` would be
    // used exactly twice (the two reductions of its own cofactor step), and
    // a Newton build costs ~2 node-sized multiplies while Burnikel-Ziegler
    // division matches a Barrett step almost exactly — so single-use
    // reciprocals are pure overhead here. Barrett pays only where `mu` is
    // reused across runs (the persisted shard reciprocals of the
    // incremental sweep, built by `TreeCache::build`).
    let top_bytes = top.total_bytes() + top.cache_bytes();
    let kept_products = if keep_tree {
        shard_products
    } else {
        // Streamed mode: release the corpus-sized product list before the
        // leaf phase, preserving the bounded-memory property.
        drop(shard_products);
        Vec::new()
    };

    // Phase 3: descend P in cofactor form to per-shard seeds
    // (P/R_s) mod R_s — half the width of the squared residues this
    // handoff used to move — then per-shard leaf work.
    let t1 = Instant::now();
    let shard_residues =
        top.remainder_tree_cofactor(&Natural::one(), pool.exec_in(&remainder_domain));
    let kept_top = if keep_tree {
        top.root().clone()
    } else {
        Natural::one()
    };
    drop(top);

    struct ShardLeaves {
        divisors: Vec<Option<Natural>>,
        /// (index within shard, modulus) for each nontrivial divisor.
        hits: Vec<(usize, Natural)>,
        tree_bytes: usize,
        busy: Duration,
    }

    let leaf_tasks: Vec<_> = shard_residues
        .into_iter()
        .enumerate()
        .map(|(index, residue)| {
            let pool = &pool;
            let gcd_domain = &gcd_domain;
            move || -> Result<ShardLeaves, CorpusError> {
                let start = Instant::now();
                let moduli = store.read_shard(index as u32)?;
                // Shard tree and descent stay on the claiming worker
                // (shards are the parallel unit; their node sizes are
                // too small to pay per-node dispatch), division path —
                // single-use reciprocals cost more than they save at
                // shard scale.
                let tree = ProductTree::build_local(&moduli).map_err(|e| {
                    CorpusError::FormatViolation {
                        path: store.shard_path(index as u32),
                        detail: e.to_string(),
                    }
                })?;
                let tree_bytes = tree.total_bytes();
                // The residue is (P/root) mod root from the top
                // descent — exactly this tree's cofactor seed. The
                // scratch-based descent reuses arena buffers level to
                // level; the seed and the tree recycle after it.
                let mut scratch = DescentScratch::default();
                let mut rems = Vec::new();
                tree.remainder_tree_cofactor_local_into(&residue, &mut scratch, &mut rems);
                wk_bigint::arena::recycle(residue);
                tree.recycle();
                // One metered task (the single-closure fast path runs it
                // inline) keeps the gcd work attributed to its domain.
                let moduli_ref = &moduli;
                let divisors: Vec<Option<Natural>> = pool
                    .exec_in(gcd_domain)
                    .run_tasks(vec![move || {
                        moduli_ref
                            .iter()
                            .zip(rems)
                            .map(|(n, zn)| {
                                // Same leaf value as the classic pass:
                                // the cofactor descent delivers
                                // (P/N) mod N directly.
                                let g = n.gcd(&zn);
                                wk_bigint::arena::recycle(zn);
                                if g.is_one() {
                                    None
                                } else {
                                    Some(g)
                                }
                            })
                            .collect::<Vec<_>>()
                    }])
                    .pop()
                    .unwrap_or_default();
                let hits: Vec<(usize, Natural)> = divisors
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.is_some())
                    .map(|(i, _)| (i, moduli[i].clone()))
                    .collect();
                for m in moduli {
                    wk_bigint::arena::recycle(m);
                }
                Ok(ShardLeaves {
                    divisors,
                    hits,
                    tree_bytes,
                    busy: start.elapsed(),
                })
            }
        })
        .collect();

    let mut raw_divisors: Vec<Option<Natural>> = Vec::with_capacity(total);
    let mut hits: Vec<(usize, Natural)> = Vec::new();
    let mut base = 0usize;
    for (i, outcome) in pool
        .exec_in(&remainder_domain)
        .run_tasks(leaf_tasks)
        .into_iter()
        .enumerate()
    {
        let leaves = outcome?;
        hits.extend(leaves.hits.into_iter().map(|(local, n)| (base + local, n)));
        base += leaves.divisors.len();
        raw_divisors.extend(leaves.divisors);
        max_shard_tree_bytes = max_shard_tree_bytes.max(leaves.tree_bytes);
        shard_busy[i] += leaves.busy;
    }
    let remainder_tree_time = t1.elapsed();

    let statuses = resolve_with_hits(total, &hits, &raw_divisors);
    let gcd_exec = gcd_domain.phase();
    Ok((
        BatchGcdResult {
            raw_divisors,
            statuses,
            stats: BatchStats {
                product_tree_time,
                remainder_tree_time,
                gcd_time: gcd_exec.busy_total(),
                tree_bytes: top_bytes + max_shard_tree_bytes,
                input_count: total,
                product_tree_exec: build_domain.phase(),
                remainder_tree_exec: remainder_domain.phase(),
                gcd_exec,
                shard: ShardMetrics {
                    shards_written: shard_count as u64,
                    shards_read: pre.shards_read + shard_count as u64,
                    bytes_written: store.bytes_on_disk(),
                    bytes_read: pre.bytes_read + store.bytes_on_disk(),
                    shard_busy,
                },
                ..BatchStats::default()
            },
        },
        kept_products,
        kept_top,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::batch_gcd;

    fn nat(v: u128) -> Natural {
        Natural::from(v)
    }

    fn pseudo_moduli(count: usize, seed: u64) -> Vec<Natural> {
        let mut state = seed | 1;
        (0..count)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                nat((state | 1) as u128)
            })
            .collect()
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_preserves_order_and_values() {
        let moduli = pseudo_moduli(23, 5);
        let dir = scratch_dir("corpus-roundtrip");
        let store = ShardStore::create(&dir, 7, &moduli).unwrap();
        assert_eq!(store.shard_count(), 4); // 7+7+7+2
        assert_eq!(store.total_moduli(), 23);
        assert!(store.bytes_on_disk() > 0);
        let mut back = Vec::new();
        for i in 0..store.shard_count() as u32 {
            back.extend(store.read_shard(i).unwrap());
        }
        assert_eq!(back, moduli);
        store.remove().unwrap();
    }

    #[test]
    fn open_reattaches_to_existing_store() {
        let moduli = pseudo_moduli(10, 9);
        let dir = scratch_dir("corpus-reopen");
        let created = ShardStore::create(&dir, 4, &moduli).unwrap();
        let reopened = ShardStore::open(&dir).unwrap();
        assert_eq!(reopened.shards(), created.shards());
        assert_eq!(reopened.total_moduli(), 10);
        assert_eq!(reopened.capacity(), 4);
        let back: Vec<Natural> = (0..reopened.shard_count() as u32)
            .flat_map(|i| reopened.read_shard(i).unwrap())
            .collect();
        assert_eq!(back, moduli);
        created.remove().unwrap();
    }

    #[test]
    fn append_adds_new_shards_without_rewriting() {
        let first = pseudo_moduli(10, 41);
        let second = pseudo_moduli(5, 43);
        let dir = scratch_dir("corpus-append");
        let mut store = ShardStore::create(&dir, 4, &first).unwrap();
        assert_eq!(store.shard_count(), 3); // 4+4+2, ragged last shard
        let old_bytes: Vec<Vec<u8>> = (0..3u32)
            .map(|i| fs::read(store.shard_path(i)).unwrap())
            .collect();

        let range = store.append(4, &second).unwrap();
        assert_eq!(range, 3..5); // 4+1 — the ragged shard 2 is untouched
        assert_eq!(store.shard_count(), 5);
        assert_eq!(store.total_moduli(), 15);
        for (i, bytes) in old_bytes.iter().enumerate() {
            assert_eq!(
                &fs::read(store.shard_path(i as u32)).unwrap(),
                bytes,
                "existing shard {i} must not be rewritten"
            );
        }

        // A reopen sees the union in order: first batch, then second.
        let reopened = ShardStore::open(&dir).unwrap();
        assert_eq!(reopened.shards(), store.shards());
        let back: Vec<Natural> = (0..reopened.shard_count() as u32)
            .flat_map(|i| reopened.read_shard(i).unwrap())
            .collect();
        let mut union = first.clone();
        union.extend(second);
        assert_eq!(back, union);
        store.remove().unwrap();
    }

    #[test]
    fn append_capacity_mismatch_is_typed_error() {
        let moduli = pseudo_moduli(6, 45);
        let dir = scratch_dir("corpus-append-cap");
        let mut store = ShardStore::create(&dir, 3, &moduli).unwrap();
        let err = store.append(5, &moduli).unwrap_err();
        match err {
            CorpusError::CapacityMismatch {
                expected, found, ..
            } => {
                assert_eq!(expected, 3);
                assert_eq!(found, 5);
            }
            other => panic!("expected CapacityMismatch, got {other}"),
        }
        assert!(err.to_string().contains("capacity 5"));
        // The rejected append must not have touched the store.
        assert_eq!(store.shard_count(), 2);
        assert_eq!(store.total_moduli(), 6);
        store.remove().unwrap();
    }

    #[test]
    fn append_to_empty_store_adopts_capacity() {
        let dir = scratch_dir("corpus-append-empty");
        let mut store = ShardStore::open({
            fs::create_dir_all(&dir).unwrap();
            &dir
        })
        .unwrap();
        assert_eq!(store.shard_count(), 0);
        let moduli = pseudo_moduli(7, 47);
        let range = store.append(3, &moduli).unwrap();
        assert_eq!(range, 0..3);
        assert_eq!(store.capacity(), 3);
        let back: Vec<Natural> = (0..3u32)
            .flat_map(|i| store.read_shard(i).unwrap())
            .collect();
        assert_eq!(back, moduli);
        store.remove().unwrap();
    }

    #[test]
    fn failed_append_removes_only_its_own_shards() {
        let moduli = pseudo_moduli(4, 49);
        let dir = scratch_dir("corpus-append-fail");
        let mut store = ShardStore::create(&dir, 4, &moduli).unwrap();
        // Plant a directory where the appended shard must go.
        fs::create_dir_all(dir.join(shard_file_name(1))).unwrap();
        assert!(store.append(4, &moduli).is_err());
        assert!(
            dir.join(shard_file_name(0)).exists(),
            "pre-existing shard must survive a failed append"
        );
        assert_eq!(store.shard_count(), 1, "failed append must not register");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_streams_with_meta() {
        let moduli = pseudo_moduli(5, 21);
        let dir = scratch_dir("corpus-stream");
        let store = ShardStore::create(&dir, 16, &moduli).unwrap();
        let mut reader = store.reader(0).unwrap();
        assert_eq!(reader.meta().count, 5);
        assert_eq!(reader.meta().index, 0);
        let mut n = 0;
        while let Some(m) = reader.next_modulus().unwrap() {
            assert_eq!(m, moduli[n]);
            n += 1;
        }
        assert_eq!(n, 5);
        // Exhausted reader keeps returning None.
        assert!(reader.next_modulus().unwrap().is_none());
        store.remove().unwrap();
    }

    #[test]
    fn sharded_matches_classic_exactly() {
        let moduli = vec![
            nat(33),
            nat(39),
            nat(323),
            nat(15),
            nat(35),
            nat(21),
            nat(437),
            nat(667),
            nat(6),
        ];
        let classic = batch_gcd(&moduli, 1);
        for capacity in [1usize, 2, 3, 4, 9, 16] {
            let dir = scratch_dir(&format!("corpus-gcd-{capacity}"));
            let store = ShardStore::create(&dir, capacity, &moduli).unwrap();
            let sharded = sharded_batch_gcd(&store, 1).unwrap();
            assert_eq!(sharded.raw_divisors, classic.raw_divisors, "cap={capacity}");
            assert_eq!(sharded.statuses, classic.statuses, "cap={capacity}");
            assert_eq!(sharded.stats.input_count, moduli.len());
            store.remove().unwrap();
        }
    }

    #[test]
    fn sharded_parallel_matches_sequential() {
        let moduli = pseudo_moduli(40, 33);
        let dir = scratch_dir("corpus-par");
        let store = ShardStore::create(&dir, 8, &moduli).unwrap();
        let seq = sharded_batch_gcd(&store, 1).unwrap();
        let par = sharded_batch_gcd(&store, 4).unwrap();
        assert_eq!(seq.raw_divisors, par.raw_divisors);
        assert_eq!(seq.statuses, par.statuses);
        store.remove().unwrap();
    }

    #[test]
    fn shard_metrics_populated() {
        let moduli = vec![nat(33), nat(39), nat(323), nat(437)];
        let dir = scratch_dir("corpus-metrics");
        let store = ShardStore::create(&dir, 2, &moduli).unwrap();
        let result = sharded_batch_gcd(&store, 1).unwrap();
        let shard = &result.stats.shard;
        assert_eq!(shard.shards_written, 2);
        assert_eq!(shard.shards_read, 4); // two passes over two shards
        assert_eq!(shard.bytes_written, store.bytes_on_disk());
        assert_eq!(shard.bytes_read, 2 * store.bytes_on_disk());
        assert_eq!(shard.shard_busy.len(), 2);
        assert!(shard.total_busy() > Duration::ZERO);
        assert!(!shard.is_empty());
        // Classic runs leave the metrics empty.
        assert!(batch_gcd(&moduli, 1).stats.shard.is_empty());
        store.remove().unwrap();
    }

    #[test]
    fn empty_store_yields_empty_result() {
        let dir = scratch_dir("corpus-empty");
        let store = ShardStore::create(&dir, 4, std::iter::empty()).unwrap();
        assert_eq!(store.shard_count(), 0);
        let result = sharded_batch_gcd(&store, 1).unwrap();
        assert!(result.raw_divisors.is_empty());
        assert!(result.statuses.is_empty());
        store.remove().unwrap();
    }

    // --- corruption paths -------------------------------------------------

    /// Write a store with one shard and return (dir, shard path).
    fn one_shard() -> (PathBuf, PathBuf) {
        let moduli = pseudo_moduli(6, 77);
        let dir = scratch_dir("corpus-corrupt");
        let store = ShardStore::create(&dir, 16, &moduli).unwrap();
        let path = store.shard_path(0);
        (dir, path)
    }

    fn cleanup(dir: &Path) {
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn truncated_shard_is_typed_error() {
        let (dir, path) = one_shard();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let reader = ShardReader::open(&path).unwrap();
        let err = reader
            .collect::<Result<Vec<_>, _>>()
            .expect_err("truncated shard must fail");
        assert!(matches!(err, CorpusError::Truncated { .. }), "{err}");
        // Header-level truncation (file shorter than the header) also
        // surfaces as Truncated, from open() and from ShardStore::open().
        fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(
            ShardReader::open(&path),
            Err(CorpusError::Truncated { .. })
        ));
        assert!(matches!(
            ShardStore::open(&dir),
            Err(CorpusError::Truncated { .. })
        ));
        cleanup(&dir);
    }

    #[test]
    fn bad_magic_is_typed_error() {
        let (dir, path) = one_shard();
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        let err = ShardReader::open(&path).expect_err("bad magic must fail");
        assert!(matches!(err, CorpusError::BadMagic { .. }), "{err}");
        assert!(err.to_string().contains("bad magic"));
        cleanup(&dir);
    }

    #[test]
    fn crc_mismatch_is_typed_error() {
        let (dir, path) = one_shard();
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload bit; header (incl. stored CRC) untouched.
        let flip = SHARD_HEADER_LEN + 9;
        bytes[flip] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let reader = ShardReader::open(&path).unwrap();
        let err = reader
            .collect::<Result<Vec<_>, _>>()
            .expect_err("corrupt payload must fail");
        assert!(matches!(err, CorpusError::CrcMismatch { .. }), "{err}");
        cleanup(&dir);
    }

    #[test]
    fn version_skew_is_typed_error() {
        let (dir, path) = one_shard();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = ShardReader::open(&path).expect_err("version skew must fail");
        match err {
            CorpusError::VersionSkew { found, .. } => assert_eq!(found, 99),
            other => panic!("expected VersionSkew, got {other}"),
        }
        cleanup(&dir);
    }

    #[test]
    fn oversized_record_is_typed_error() {
        let (dir, path) = one_shard();
        let mut bytes = fs::read(&path).unwrap();
        // First record's limb count claims more limbs than the payload has.
        bytes[SHARD_HEADER_LEN..SHARD_HEADER_LEN + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let reader = ShardReader::open(&path).unwrap();
        let err = reader
            .collect::<Result<Vec<_>, _>>()
            .expect_err("oversized record must fail");
        assert!(matches!(err, CorpusError::FormatViolation { .. }), "{err}");
        cleanup(&dir);
    }

    #[test]
    fn create_failure_removes_partial_output() {
        let moduli = pseudo_moduli(8, 3);
        let dir = scratch_dir("corpus-partial");
        fs::create_dir_all(&dir).unwrap();
        // Pre-plant a directory where shard 1 must go: shard 0 writes fine,
        // shard 1's File::create fails, and the guard must remove shard 0.
        fs::create_dir_all(dir.join(shard_file_name(1))).unwrap();
        let err = ShardStore::create(&dir, 4, &moduli);
        assert!(err.is_err(), "colliding shard path must fail");
        assert!(
            !dir.join(shard_file_name(0)).exists(),
            "partial shard 0 must be cleaned up"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
