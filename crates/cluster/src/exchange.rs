//! The exchange directory: published per-shard subtree roots in the
//! `WKTREEC1` section format (DESIGN.md §12.3).
//!
//! Each published root is a section file `exchange/root-NNNNNN.wkr` with
//! section id [`SECTION_CLUSTER_ROOT`] — the same 36-byte header, CRC, and
//! limb codec as the tree cache's `roots.wkc`, so the tooling that
//! validates one validates the other. The payload binds the root to the
//! exact store it was computed from (the store's state tag) and records
//! which owner published it under which fencing token.
//!
//! Publication is **first-wins** ([`durable::publish_once`]): the writer
//! fsyncs a complete temp file and then `hard_link`s it to the final
//! name. The filesystem lets exactly one link succeed per shard, so a
//! double-publish is structurally impossible — a revived worker that lost
//! its lease either aborts at the fence check or loses the link race;
//! either way exactly one `root-N.wkr` ever exists. Because subtree roots
//! are deterministic (same shard bytes → same root, enforced by the state
//! tag), *whichever* writer wins published the correct value.

use crate::error::ClusterError;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use wk_batchgcd::durable::{self, fsync_dir, take_bytes, take_u64, FrameHeader};
use wk_batchgcd::{encode_natural, read_section, take_natural, ShardStore, CACHE_FRAME};
use wk_bigint::Natural;

/// `WKTREEC1` section id of a cluster-published shard root (ids 1–4 are
/// the tree cache's sections).
pub const SECTION_CLUSTER_ROOT: u32 = 5;

/// Subdirectory of the cluster directory holding published roots.
pub const EXCHANGE_SUBDIR: &str = "exchange";

/// File name of shard `index`'s published root.
pub fn root_file_name(index: u32) -> String {
    format!("root-{index:06}.wkr")
}

/// A published root, decoded and validated.
#[derive(Clone, Debug)]
pub struct PublishedRoot {
    /// Shard index the root covers.
    pub shard: u32,
    /// Fencing token the publishing worker held.
    pub token: u64,
    /// Owner id of the publishing worker.
    pub owner: String,
    /// The shard's subtree root (product of its moduli).
    pub root: Natural,
}

/// Outcome of a publish attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Publish {
    /// This call created the root file.
    New,
    /// Another worker published first; the existing file was validated
    /// against the same state tag and kept.
    AlreadyPublished,
}

/// The exchange directory of one cluster run.
#[derive(Clone, Debug)]
pub struct ExchangeDir {
    dir: PathBuf,
}

impl ExchangeDir {
    /// Create (if needed) and open `<cluster_dir>/exchange`, fsyncing the
    /// cluster directory so the entry survives a crash.
    pub fn init(cluster_dir: &Path) -> io::Result<ExchangeDir> {
        let dir = cluster_dir.join(EXCHANGE_SUBDIR);
        fs::create_dir_all(&dir)?;
        fsync_dir(cluster_dir)?;
        Ok(ExchangeDir { dir })
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Path of shard `index`'s root file.
    pub fn root_path(&self, index: u32) -> PathBuf {
        self.dir.join(root_file_name(index))
    }

    /// Cheap existence probe — workers skip shards whose root is already
    /// visible. (Visibility implies completeness: final names only ever
    /// appear by linking a fully written, fsynced temp file.)
    pub fn is_published(&self, index: u32) -> bool {
        self.root_path(index).is_file()
    }

    /// Publish shard `index`'s root: frame the section with [`CACHE_FRAME`]
    /// (count = shard index) and publish it first-wins through an
    /// owner-unique temp file ([`durable::publish_once`]). On losing the
    /// race, the existing file is validated against `state_tag` — a
    /// binding mismatch is an [`ClusterError::ExchangeMismatch`], not a
    /// silent overwrite.
    pub fn publish(
        &self,
        state_tag: u64,
        index: u32,
        token: u64,
        owner: &str,
        root: &Natural,
    ) -> Result<Publish, ClusterError> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&state_tag.to_le_bytes());
        payload.extend_from_slice(&u64::from(index).to_le_bytes());
        payload.extend_from_slice(&token.to_le_bytes());
        payload.extend_from_slice(&(owner.len() as u64).to_le_bytes());
        payload.extend_from_slice(owner.as_bytes());
        encode_natural(&mut payload, root)?;

        let header = CACHE_FRAME.encode(&FrameHeader::new(
            SECTION_CLUSTER_ROOT,
            u64::from(index),
            &payload,
        ));
        let tmp = self.tmp_path(owner, index);
        if durable::publish_once(&tmp, &self.root_path(index), &[&header, &payload])? {
            Ok(Publish::New)
        } else {
            // Lost the race; whoever won must have published a root bound
            // to the same store.
            self.read_root(index, state_tag)?;
            Ok(Publish::AlreadyPublished)
        }
    }

    /// Remove root files that no longer bind to `store` — leftovers of an
    /// earlier run over a previous store state (a month-close appended
    /// moduli since). Workers only probe existence, so stale-but-complete
    /// files would otherwise shadow the shards they name forever;
    /// [`run_cluster`](crate::run_cluster) calls this before spawning
    /// anything. Structurally damaged files (truncation, CRC) are *not*
    /// removed — those mean torn final names, which the protocol rules out,
    /// so they deserve a loud error downstream rather than quiet deletion.
    /// Returns how many stale roots were swept.
    pub fn sweep_mismatched(&self, store: &ShardStore) -> Result<usize, ClusterError> {
        let mut swept = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(index) = name
                .strip_prefix("root-")
                .and_then(|t| t.strip_suffix(".wkr"))
                .and_then(|t| t.parse::<u32>().ok())
            else {
                continue;
            };
            if (index as usize) < store.shard_count() {
                match self.read_root(index, store.state_tag()) {
                    Ok(_) => continue,
                    Err(ClusterError::ExchangeMismatch { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
            // Bound to a different store state, or beyond the store's
            // current shard range (a rolled-back store shrank).
            fs::remove_file(entry.path())?;
            swept += 1;
        }
        if swept > 0 {
            fsync_dir(&self.dir)?;
        }
        Ok(swept)
    }

    /// The temp path [`ExchangeDir::publish`] stages through — exposed so
    /// the torn-tmp fault injection can crash a worker with exactly the
    /// artifact a real mid-publish crash leaves behind.
    pub fn tmp_path(&self, owner: &str, index: u32) -> PathBuf {
        self.dir.join(format!("{owner}-root-{index:06}.tmp"))
    }

    /// Read and validate shard `index`'s published root. `Ok(None)` when
    /// not yet published; [`ClusterError::Cache`] for structural damage
    /// (the shared section reader rejects truncation and CRC mismatches);
    /// [`ClusterError::ExchangeMismatch`] when the file is intact but
    /// bound to a different store state or shard.
    pub fn read_root(
        &self,
        index: u32,
        state_tag: u64,
    ) -> Result<Option<PublishedRoot>, ClusterError> {
        let path = self.root_path(index);
        if !path.is_file() {
            return Ok(None);
        }
        let (count, payload) = read_section(&path, SECTION_CLUSTER_ROOT)?;
        let mismatch = |detail: String| ClusterError::ExchangeMismatch {
            path: path.clone(),
            detail,
        };
        if count != u64::from(index) {
            return Err(mismatch(format!(
                "header count {count}, expected shard index {index}"
            )));
        }
        let mut rest: &[u8] = &payload;
        let found_tag =
            take_u64(&mut rest).ok_or_else(|| mismatch("payload missing state tag".into()))?;
        if found_tag != state_tag {
            return Err(mismatch(format!(
                "state tag {found_tag:#018x} does not bind to the store's {state_tag:#018x} \
                 (stale exchange directory? see the operator runbook)"
            )));
        }
        let shard =
            take_u64(&mut rest).ok_or_else(|| mismatch("payload missing shard index".into()))?;
        if shard != u64::from(index) {
            return Err(mismatch(format!("payload names shard {shard}")));
        }
        let token =
            take_u64(&mut rest).ok_or_else(|| mismatch("payload missing fencing token".into()))?;
        let owner_len =
            take_u64(&mut rest).ok_or_else(|| mismatch("payload missing owner length".into()))?;
        let owner_bytes = usize::try_from(owner_len)
            .ok()
            .and_then(|n| take_bytes(&mut rest, n))
            .ok_or_else(|| mismatch(format!("owner length {owner_len} overruns the payload")))?;
        let owner = String::from_utf8(owner_bytes.to_vec())
            .map_err(|e| mismatch(format!("owner is not UTF-8: {e}")))?;
        let mut scratch = Vec::new();
        let root = take_natural(&mut rest, &mut scratch)
            .map_err(|e| mismatch(format!("root record: {e}")))?;
        if !rest.is_empty() {
            return Err(mismatch(format!(
                "{} trailing bytes after the root record",
                rest.len()
            )));
        }
        if root.is_zero() {
            return Err(mismatch("published root is zero".into()));
        }
        Ok(Some(PublishedRoot {
            shard: index,
            token,
            owner,
            root,
        }))
    }

    /// Read every shard's root (in shard order) against `store`'s state
    /// tag; `None` entries are not yet published.
    pub fn collect(&self, store: &ShardStore) -> Result<Vec<Option<PublishedRoot>>, ClusterError> {
        let tag = store.state_tag();
        (0..store.shard_count() as u32)
            .map(|index| self.read_root(index, tag))
            .collect()
    }

    /// Remove temp files left by a previous crashed run of the *same*
    /// owner. Never touches other owners' temps.
    pub fn remove_own_tmps(&self, owner: &str) -> io::Result<()> {
        durable::remove_tmps(&self.dir, &format!("{owner}-"))
    }

    /// Remove every `*.tmp` straggler — the coordinator's post-run sweep,
    /// safe once all workers have exited.
    pub fn remove_all_tmps(&self) -> io::Result<()> {
        durable::remove_tmps(&self.dir, "")
    }
}
