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

use crate::classic::{merge_divisor, BatchGcdResult, BatchStats};
use crate::durable::{self, Frame, FrameError, FrameHeader, FRAME_HEADER_LEN};
use crate::pool::WorkerPool;
use crate::resolve::resolve_with_hits;
use crate::tree::{product_root, ProductTree, TreeError};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;
use wk_bigint::Natural;

/// Magic bytes opening every shard file (`"WKSHARD1"`).
pub const SHARD_MAGIC: [u8; 8] = *b"WKSHARD1";

/// On-disk format version this build reads and writes.
pub const SHARD_FORMAT_VERSION: u32 = 1;

/// Size of the fixed shard header in bytes: the shared framed header
/// (DESIGN.md §8.2), with the shard index as its id.
pub const SHARD_HEADER_LEN: usize = FRAME_HEADER_LEN;

/// The shard format's frame: [`SHARD_MAGIC`] at [`SHARD_FORMAT_VERSION`].
const SHARD_FRAME: Frame = Frame {
    magic: SHARD_MAGIC,
    version: SHARD_FORMAT_VERSION,
};

/// File name of shard `index` inside a store directory.
fn shard_file_name(index: u32) -> String {
    format!("shard-{index:06}.wks")
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
    /// A shard capacity of zero was asked for: no shard could hold a
    /// modulus.
    ZeroCapacity {
        /// The store directory.
        dir: PathBuf,
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
            CorpusError::ZeroCapacity { dir } => {
                write!(f, "{}: shard capacity must be nonzero", dir.display())
            }
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
    /// Total on-disk size of the shard file (header + payload). Saturates,
    /// so a header claiming a payload near `u64::MAX` never reads as a
    /// short file.
    pub fn file_len(&self) -> u64 {
        (SHARD_HEADER_LEN as u64).saturating_add(self.payload_len)
    }

    /// Read and validate the header at the front of `r`, a shard file
    /// `file_len` bytes long. The header is not covered by the payload CRC,
    /// so it is checked against the file before any reader sizes a buffer
    /// from it: the file must hold the payload the header promises, and
    /// `count` must fit in it (every record is at least 8 bytes) and be
    /// nonzero — the writer never emits an empty shard, and a zero count
    /// would read as one without the payload or its CRC being checked.
    fn read(path: &Path, r: &mut impl Read, file_len: u64) -> Result<ShardMeta, CorpusError> {
        let path = path.to_path_buf();
        let meta = ShardMeta::from(SHARD_FRAME.read(r).map_err(|e| match e {
            FrameError::Truncated => CorpusError::Truncated { path: path.clone() },
            FrameError::BadMagic(found) => CorpusError::BadMagic {
                path: path.clone(),
                found,
            },
            FrameError::VersionSkew(found) => CorpusError::VersionSkew {
                path: path.clone(),
                found,
            },
            FrameError::Io(e) => CorpusError::Io(e),
        })?);
        if file_len < meta.file_len() {
            return Err(CorpusError::Truncated { path });
        }
        if meta.count == 0 || meta.count > meta.payload_len / 8 {
            return Err(CorpusError::FormatViolation {
                path,
                detail: format!(
                    "header claims {} moduli in a {}-byte payload",
                    meta.count, meta.payload_len
                ),
            });
        }
        Ok(meta)
    }
}

impl From<FrameHeader> for ShardMeta {
    fn from(h: FrameHeader) -> ShardMeta {
        ShardMeta {
            index: h.id,
            count: h.count,
            payload_len: h.payload_len,
            crc: h.crc,
        }
    }
}

// ---------------------------------------------------------------------------
// ShardStore
// ---------------------------------------------------------------------------

/// [`CorpusError::ZeroCapacity`] unless `capacity` is nonzero.
pub(crate) fn check_capacity(dir: &Path, capacity: usize) -> Result<(), CorpusError> {
    if capacity == 0 {
        return Err(CorpusError::ZeroCapacity {
            dir: dir.to_path_buf(),
        });
    }
    Ok(())
}

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
    /// # Errors
    /// [`CorpusError::ZeroCapacity`] for a zero `capacity`, before anything
    /// is written; [`CorpusError::FormatViolation`] for a zero modulus
    /// (every batch-GCD algorithm in this crate rejects zero moduli);
    /// filesystem errors as [`CorpusError::Io`].
    pub fn create<'a, I>(dir: &Path, capacity: usize, moduli: I) -> Result<ShardStore, CorpusError>
    where
        I: IntoIterator<Item = &'a Natural>,
    {
        check_capacity(dir, capacity)?;
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
    /// [`CorpusError::ZeroCapacity`] for a zero `capacity`;
    /// [`CorpusError::CapacityMismatch`] if `capacity` differs from the
    /// store's existing shard capacity (a store that still has zero shards
    /// accepts any nonzero capacity and adopts it); a zero modulus as
    /// [`CorpusError::FormatViolation`]; filesystem errors as
    /// [`CorpusError::Io`]. A failed append removes the shards it wrote, so
    /// the store is never left half-extended. Version skew in existing
    /// shards surfaces earlier, from [`ShardStore::open`].
    pub fn append<'a, I>(
        &mut self,
        capacity: usize,
        moduli: I,
    ) -> Result<std::ops::Range<u32>, CorpusError>
    where
        I: IntoIterator<Item = &'a Natural>,
    {
        check_capacity(&self.dir, capacity)?;
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
            let mut file = File::open(path)?;
            let file_len = file.metadata()?.len();
            let meta = ShardMeta::read(path, &mut file, file_len)?;
            if meta.index != *index || *index != position as u32 {
                return Err(CorpusError::FormatViolation {
                    path: path.clone(),
                    detail: format!(
                        "shard index {} at store position {position} (file name says {index})",
                        meta.index
                    ),
                });
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

    /// Read all of shard `index` into memory, verifying the checksum. The
    /// vector grows as records decode; nothing is sized from the header.
    pub fn read_shard(&self, index: u32) -> Result<Vec<Natural>, CorpusError> {
        self.reader(index)?.collect()
    }

    /// Delete the shard files (and the directory, if then empty). The
    /// explicit destructor: dropping a store leaves its files in place.
    pub fn remove(self) -> io::Result<()> {
        let names = self.shards.iter().map(|meta| shard_file_name(meta.index));
        durable::remove_published(&self.dir, names)
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
    let mut moduli = moduli.into_iter().peekable();
    while let Some(m) = moduli.next() {
        let index = start_index + shards.len() as u32;
        if m.is_zero() {
            return Err(CorpusError::FormatViolation {
                path: dir.join(shard_file_name(index)),
                detail: "zero modulus in corpus export".to_string(),
            });
        }
        encode_natural(&mut payload, m)?;
        pending += 1;
        if pending == capacity || moduli.peek().is_none() {
            // `ShardStore::open` ignores `.tmp` leftovers by name, so a
            // crash mid-publish can never leave something read as a shard.
            let header = FrameHeader::new(index, pending, &payload);
            let path = dir.join(shard_file_name(index));
            guard.track(durable::tmp_path(&path));
            guard.track(path.clone());
            durable::write_atomic(&path, &[&SHARD_FRAME.encode(&header), &payload])?;
            shards.push(ShardMeta::from(header));
            payload.clear();
            pending = 0;
        }
    }
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
    /// Open `path` and validate its header, including that the file holds
    /// the payload the header promises: the shard may have been rewritten
    /// since its store was opened, and reads size buffers from the header.
    pub fn open(path: &Path) -> Result<ShardReader, CorpusError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut reader = BufReader::new(file);
        let meta = ShardMeta::read(path, &mut reader, file_len)?;
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
        // A record with limb count 0 decodes to zero, so a checksum-valid
        // shard can still hold one; no batch-GCD path accepts it.
        if n.is_zero() {
            let path = self.path.clone();
            return Err(self.fail(CorpusError::FormatViolation {
                path,
                detail: "zero modulus in shard payload".to_string(),
            }));
        }
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
// sharded_batch_gcd
// ---------------------------------------------------------------------------

/// Classic batch GCD over a disk-resident corpus, with the work-stealing
/// pool pulling shards on demand.
///
/// The computation is restructured so no phase ever needs the whole corpus
/// in memory:
///
/// 1. **Shard products** — workers claim shards from the pool's deques;
///    each claim runs [`shard_subtree_root`]: stream the shard from disk,
///    build its product tree, keep only the shard product (one [`Natural`]
///    per shard).
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
/// Timing follows the one rule of [`BatchStats`]: `remainder_tree_time` is
/// the leaf phase's wall clock (top descent, shard descents and gcds), and
/// the gcds' busy time is `gcd_exec.busy_total()`.
///
/// # Errors
/// Any shard that fails to read back (truncation, checksum, version skew,
/// a zero modulus) aborts the run with the corresponding [`CorpusError`].
pub fn sharded_batch_gcd(
    store: &ShardStore,
    threads: usize,
) -> Result<BatchGcdResult, CorpusError> {
    Ok(run_sharded(store, None, threads, false)?.result)
}

/// One shard's product, the root of its local product tree: phase 1 of
/// [`sharded_batch_gcd`], which calls this once per shard, and the unit of
/// work a cluster node performs per claimed shard. A root computed on any
/// process is therefore bit-identical to the one the single-process run
/// produces for that shard. Only two tree levels are alive at a time.
///
/// # Errors
/// Propagates the shard's read-back failure ([`CorpusError`]) or a
/// structurally empty shard as [`CorpusError::FormatViolation`].
pub fn shard_subtree_root(store: &ShardStore, index: u32) -> Result<Natural, CorpusError> {
    let (moduli, root) = read_shard_with(store, index, |moduli| {
        ProductTree::check_input(moduli).map(|()| product_root(moduli))
    })?;
    // Worker-local recycling: the next shard this worker claims builds its
    // levels straight from the arena.
    for m in moduli {
        wk_bigint::arena::recycle(m);
    }
    Ok(root)
}

/// Read shard `index` and run `build` over its moduli on the calling
/// thread: shards are the parallel unit, and at shard scale the pair
/// multiplies are far smaller than the pool dispatch they would otherwise
/// schedule.
fn read_shard_with<T>(
    store: &ShardStore,
    index: u32,
    build: impl FnOnce(&[Natural]) -> Result<T, TreeError>,
) -> Result<(Vec<Natural>, T), CorpusError> {
    let moduli = store.read_shard(index)?;
    let built = build(&moduli).map_err(|e| CorpusError::FormatViolation {
        path: store.shard_path(index),
        detail: e.to_string(),
    })?;
    Ok((moduli, built))
}

/// A sharded run's result plus the tree material a caller needs to persist
/// a [`TreeCache`](crate::incremental::TreeCache) without recomputing
/// anything (see [`TreeCache::from_parts`](crate::incremental::TreeCache::from_parts)):
/// the shard products, whose product is the corpus product, so that is not
/// kept a second time. Returned by [`assemble_from_shard_roots`].
#[derive(Debug)]
pub struct ShardAssembly {
    /// Divisors and statuses, byte-identical to [`sharded_batch_gcd`] over
    /// the same store.
    pub result: BatchGcdResult,
    /// The per-shard products, in shard order.
    pub shard_products: Vec<Natural>,
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
    run_sharded(store, Some(shard_products), threads, true)
}

/// The one sharded driver, behind [`sharded_batch_gcd`],
/// [`assemble_from_shard_roots`] and
/// [`TreeCache::build`](crate::incremental::TreeCache::build). Phase 1 runs
/// [`shard_subtree_root`] per shard unless `roots` already holds the shard
/// products; phases 2–3 build the top tree, descend it to per-shard seeds,
/// and run the per-shard leaf work. With `keep_tree` the assembly carries
/// the shard products; without it they are released before the leaf phase
/// (the bounded-memory mode) and come back as `[]`.
pub(crate) fn run_sharded(
    store: &ShardStore,
    roots: Option<Vec<Natural>>,
    threads: usize,
    keep_tree: bool,
) -> Result<ShardAssembly, CorpusError> {
    if store.shard_count() == 0 {
        return Ok(ShardAssembly {
            result: BatchGcdResult::default(),
            shard_products: Vec::new(),
        });
    }
    let total = store.total_moduli() as usize;
    let pool = WorkerPool::new(threads);
    let build_domain = pool.domain();
    let remainder_domain = pool.domain();
    let gcd_domain = pool.domain();

    // Phase 1: one pool task per shard; the deques deal and steal them, so
    // a free worker always claims the next unprocessed shard.
    let t0 = Instant::now();
    let shard_products = match roots {
        Some(roots) => roots,
        None => pool
            .exec_in(&build_domain)
            .run_tasks(
                (0..store.shard_count() as u32)
                    .map(|index| move || shard_subtree_root(store, index))
                    .collect(),
            )
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?,
    };

    // Phase 2: the top tree over shard products fits in memory by
    // construction (one node per shard).
    let top = ProductTree::build(&shard_products, pool.exec_in(&build_domain))
        // lint:allow(no-panic-in-lib) invariant: shard_count > 0 and every shard product is a product of nonzero moduli
        .expect("shard products are nonempty and nonzero");
    let product_tree_time = t0.elapsed();
    let top_bytes = top.total_bytes();
    // Streamed mode releases the corpus-sized product list before the leaf
    // phase, preserving the bounded-memory property.
    let shard_products = if keep_tree {
        shard_products
    } else {
        Vec::new()
    };

    // Phase 3: descend P in cofactor form to per-shard seeds
    // (P/R_s) mod R_s, then per-shard leaf work.
    let t1 = Instant::now();
    let seeds = top.remainder_tree_cofactor(&Natural::one(), pool.exec_in(&remainder_domain));
    drop(top);

    let leaf_tasks: Vec<_> = seeds
        .into_iter()
        .enumerate()
        .map(|(index, seed)| {
            let pool = &pool;
            let gcd_domain = &gcd_domain;
            move || -> Result<(ShardLeaves, usize), CorpusError> {
                let (moduli, tree) =
                    read_shard_with(store, index as u32, ProductTree::build_local)?;
                let tree_bytes = tree.total_bytes();
                // The seed is (P/root) mod root from the top descent —
                // exactly this tree's cofactor seed. The descent stays on
                // the claiming worker; the seed and the tree recycle after
                // it.
                let rems = tree.remainder_tree_cofactor_local(&seed);
                wk_bigint::arena::recycle(seed);
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
                                let mut divisor = None;
                                merge_divisor(&mut divisor, n, &zn);
                                wk_bigint::arena::recycle(zn);
                                divisor
                            })
                            .collect::<Vec<_>>()
                    }])
                    .pop()
                    .unwrap_or_default();
                Ok((ShardLeaves::new(moduli, divisors), tree_bytes))
            }
        })
        .collect();

    let mut raw_divisors: Vec<Option<Natural>> = Vec::with_capacity(total);
    let mut hits: Vec<(usize, Natural)> = Vec::new();
    let mut max_shard_tree_bytes = 0usize;
    for outcome in pool.exec_in(&remainder_domain).run_tasks(leaf_tasks) {
        let (leaves, tree_bytes) = outcome?;
        leaves.append_to(&mut raw_divisors, &mut hits);
        max_shard_tree_bytes = max_shard_tree_bytes.max(tree_bytes);
    }
    let remainder_tree_time = t1.elapsed();

    let statuses = resolve_with_hits(total, &hits, &raw_divisors);
    Ok(ShardAssembly {
        result: BatchGcdResult {
            raw_divisors,
            statuses,
            stats: BatchStats {
                product_tree_time,
                remainder_tree_time,
                tree_bytes: top_bytes + max_shard_tree_bytes,
                input_count: total,
                product_tree_exec: build_domain.phase(),
                remainder_tree_exec: remainder_domain.phase(),
                gcd_exec: gcd_domain.phase(),
                ..BatchStats::default()
            },
        },
        shard_products,
    })
}

/// One shard's leaf output: its moduli's divisors in shard order, and
/// `(index within the shard, modulus)` for each divisor, the only moduli
/// the resolve pass needs.
pub(crate) struct ShardLeaves {
    divisors: Vec<Option<Natural>>,
    hits: Vec<(usize, Natural)>,
}

impl ShardLeaves {
    /// Keep the moduli that have a divisor; the others go back to the
    /// arena.
    pub(crate) fn new(moduli: Vec<Natural>, divisors: Vec<Option<Natural>>) -> ShardLeaves {
        let mut hits = Vec::new();
        for (i, (n, divisor)) in moduli.into_iter().zip(&divisors).enumerate() {
            match divisor {
                Some(_) => hits.push((i, n)),
                None => wk_bigint::arena::recycle(n),
            }
        }
        ShardLeaves { divisors, hits }
    }

    /// Append this shard, the next in store order, to a run's divisors and
    /// its hits (indexed over the whole run).
    pub(crate) fn append_to(
        self,
        raw: &mut Vec<Option<Natural>>,
        hits: &mut Vec<(usize, Natural)>,
    ) {
        let base = raw.len();
        hits.extend(self.hits.into_iter().map(|(local, n)| (base + local, n)));
        raw.extend(self.divisors);
    }
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
    fn zero_capacity_is_typed_error() {
        let dir = scratch_dir("corpus-zero-cap");
        let err = ShardStore::create(&dir, 0, &pseudo_moduli(2, 51)).unwrap_err();
        assert!(matches!(err, CorpusError::ZeroCapacity { .. }), "{err}");
        assert!(err.to_string().contains("nonzero"), "{err}");
        assert!(!dir.exists(), "nothing is written before the check");
        let mut store = ShardStore::create(&dir, 2, &pseudo_moduli(2, 51)).unwrap();
        let err = store.append(0, &pseudo_moduli(2, 52)).unwrap_err();
        assert!(matches!(err, CorpusError::ZeroCapacity { .. }), "{err}");
        assert_eq!(store.shard_count(), 1);
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
        // The header promises more payload than the file holds.
        let err = ShardReader::open(&path).expect_err("truncated shard must fail");
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
    fn shard_inflated_under_open_store_is_typed_error() {
        let (dir, path) = one_shard();
        let store = ShardStore::open(&dir).unwrap();
        // Rewrite the header after the store checked it: `count` and
        // `payload_len` far past what the file holds.
        let mut bytes = fs::read(&path).unwrap();
        bytes[16..24].copy_from_slice(&(1u64 << 40).to_le_bytes());
        bytes[24..32].copy_from_slice(&(1u64 << 50).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = store.reader(0).expect_err("inflated header must fail");
        assert!(matches!(err, CorpusError::Truncated { .. }), "{err}");
        assert!(matches!(
            sharded_batch_gcd(&store, 1),
            Err(CorpusError::Truncated { .. })
        ));
        // A `payload_len` whose header-plus-payload sum overflows `u64`,
        // with a `count` the header check accepts.
        bytes[16..24].copy_from_slice(&0u64.to_le_bytes());
        bytes[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = store.reader(0).expect_err("overflowing header must fail");
        assert!(matches!(err, CorpusError::Truncated { .. }), "{err}");
        let err = ShardStore::open(&dir).expect_err("overflowing header must fail");
        assert!(matches!(err, CorpusError::Truncated { .. }), "{err}");
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
