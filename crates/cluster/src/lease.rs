//! Shard leases: atomically created claim files with fencing tokens and
//! in-file heartbeats (DESIGN.md §12.2 specifies the record field by
//! field).
//!
//! A lease is a file `leases/shard-NNNNNN.lease` whose *existence* is the
//! claim (created atomically by hard-linking a fully written temp file
//! into place, so a lease is either absent or complete — never torn) and
//! whose *contents* identify the owner, the fencing token, and the last
//! heartbeat. Heartbeats rewrite the record in place, which also bumps the
//! file's mtime — the staleness arbiter reads the in-file timestamp, the
//! mtime is what an operator's `ls -l` shows.
//!
//! Reclaiming a stale lease is arbitrated by `fs::rename`: every would-be
//! reclaimer renames the lease to a tombstone (`dead-shard-…-token-…`);
//! the filesystem lets exactly one rename succeed, and the winner claims a
//! fresh lease with the next fencing token. Tombstones are how tokens stay
//! strictly increasing across generations: a fresh claim's token is
//! 1 + the highest token among the shard's tombstones.

use crate::error::ClusterError;
use std::fs::{self, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};
use wk_batchgcd::crc32;
use wk_batchgcd::durable::{self, fsync_dir, take_bytes, take_u32, take_u64};

/// Magic bytes opening every lease file (`"WKLEASE1"`).
pub const LEASE_MAGIC: [u8; 8] = *b"WKLEASE1";

/// Lease record format version this build reads and writes.
pub const LEASE_FORMAT_VERSION: u32 = 1;

/// Byte length of the fixed-width head of a lease record (everything
/// before the owner bytes): magic, version, shard index, fencing token,
/// heartbeat timestamp, owner length.
pub const LEASE_HEAD_LEN: usize = 40;

/// Subdirectory of the cluster directory holding lease files.
pub const LEASES_SUBDIR: &str = "leases";

/// Milliseconds since the Unix epoch on this process's clock (`0` if the
/// clock reads before the epoch — such a clock makes every lease this
/// process writes look maximally stale, the safe direction).
pub fn unix_millis() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Add a (possibly negative) skew to a millisecond timestamp, saturating
/// at both ends — the clock-skew fault injection writes heartbeats through
/// this.
pub fn apply_skew(millis: u64, skew_ms: i64) -> u64 {
    if skew_ms >= 0 {
        millis.saturating_add(skew_ms as u64)
    } else {
        millis.saturating_sub(skew_ms.unsigned_abs())
    }
}

/// File name of shard `index`'s lease inside the leases directory.
pub fn lease_file_name(index: u32) -> String {
    format!("shard-{index:06}.lease")
}

/// How fresh a lease record looks to an observer at `now_millis`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Freshness {
    /// Heartbeat recent enough; the owner is presumed alive.
    Fresh,
    /// No heartbeat for longer than the staleness window; reclaimable.
    Stale,
    /// Heartbeat timestamp is *ahead* of the observer by more than the
    /// skew tolerance — provably bogus (a clock-skewed writer), treated
    /// as reclaimable so a fast clock cannot hold a lease forever.
    Bogus,
}

/// A decoded lease record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeaseRecord {
    /// Shard index this lease claims.
    pub shard: u32,
    /// Fencing token: strictly increasing across the shard's ownership
    /// generations; a revived worker holding an old token can detect that
    /// it lost the shard.
    pub token: u64,
    /// Milliseconds since the Unix epoch at the owner's last heartbeat,
    /// on the owner's clock.
    pub heartbeat_millis: u64,
    /// Owner identity (`[A-Za-z0-9._-]+`).
    pub owner: String,
}

impl LeaseRecord {
    /// Serialize: fixed head, owner bytes, CRC-32 of everything before the
    /// CRC itself. Heartbeats rewrite this whole byte string in place (the
    /// length never changes while the owner doesn't). This is deliberately
    /// not the shared framed header: that CRC covers only the payload, and
    /// the trailer here also guards the shard index and fencing token.
    pub fn encode(&self) -> Vec<u8> {
        let owner = self.owner.as_bytes();
        let mut out = Vec::with_capacity(LEASE_HEAD_LEN + owner.len() + 4);
        out.extend_from_slice(&LEASE_MAGIC);
        out.extend_from_slice(&LEASE_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&self.token.to_le_bytes());
        out.extend_from_slice(&self.heartbeat_millis.to_le_bytes());
        out.extend_from_slice(&(owner.len() as u64).to_le_bytes());
        out.extend_from_slice(owner);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse and validate a lease record; the error string says what was
    /// malformed (callers wrap it into
    /// [`ClusterError::LeaseCorrupt`]).
    pub fn decode(bytes: &[u8]) -> Result<LeaseRecord, String> {
        if bytes.len() < LEASE_HEAD_LEN + 4 {
            return Err(format!(
                "{} bytes, a lease record needs at least {}",
                bytes.len(),
                LEASE_HEAD_LEN + 4
            ));
        }
        let (body, mut tail) = bytes.split_at(bytes.len() - 4);
        let expected = take_u32(&mut tail).unwrap_or_default();
        let actual = crc32(body);
        if actual != expected {
            return Err(format!("CRC {actual:08x} != recorded {expected:08x}"));
        }
        let mut rest = body;
        let magic = take_bytes(&mut rest, 8).unwrap_or(&[]);
        if magic != LEASE_MAGIC {
            return Err(format!("bad magic {magic:02x?}"));
        }
        let version = take_u32(&mut rest).unwrap_or(0);
        if version != LEASE_FORMAT_VERSION {
            return Err(format!(
                "format version {version} (this build supports {LEASE_FORMAT_VERSION})"
            ));
        }
        // The length check above guarantees the fixed head is present.
        let shard = take_u32(&mut rest).unwrap_or(0);
        let token = take_u64(&mut rest).unwrap_or(0);
        let heartbeat_millis = take_u64(&mut rest).unwrap_or(0);
        let owner_len = take_u64(&mut rest).unwrap_or(0);
        if owner_len != rest.len() as u64 {
            return Err(format!(
                "owner length {owner_len} but {} owner bytes present",
                rest.len()
            ));
        }
        let owner =
            String::from_utf8(rest.to_vec()).map_err(|e| format!("owner is not UTF-8: {e}"))?;
        Ok(LeaseRecord {
            shard,
            token,
            heartbeat_millis,
            owner,
        })
    }

    /// Judge this record's freshness from an observer's clock. Pure — the
    /// lease-contention proptests drive it with simulated time. `Bogus`
    /// (heartbeat further in the observer's future than `skew_tolerance`)
    /// and `Stale` are both reclaimable; the distinction is diagnostic.
    pub fn staleness(
        &self,
        now_millis: u64,
        stale_after: Duration,
        skew_tolerance: Duration,
    ) -> Freshness {
        let tol = skew_tolerance.as_millis() as u64;
        if self.heartbeat_millis > now_millis.saturating_add(tol) {
            return Freshness::Bogus;
        }
        let age = now_millis.saturating_sub(self.heartbeat_millis);
        if age > stale_after.as_millis() as u64 {
            Freshness::Stale
        } else {
            Freshness::Fresh
        }
    }
}

/// What the lease slot for a shard currently holds.
#[derive(Clone, Debug)]
pub enum LeaseView {
    /// No lease file: the shard is unclaimed.
    Absent,
    /// A parseable lease.
    Held(LeaseRecord),
    /// A lease file that does not parse — treated like a stale lease
    /// (reclaimable through the same rename arbitration) so damage cannot
    /// block a shard forever. The string says what was malformed.
    Corrupt(String),
}

/// The leases directory of one cluster run.
#[derive(Clone, Debug)]
pub struct LeaseDir {
    dir: PathBuf,
}

impl LeaseDir {
    /// Create (if needed) and open `<cluster_dir>/leases`, fsyncing the
    /// cluster directory so the entry survives a crash.
    pub fn init(cluster_dir: &Path) -> io::Result<LeaseDir> {
        let dir = cluster_dir.join(LEASES_SUBDIR);
        fs::create_dir_all(&dir)?;
        fsync_dir(cluster_dir)?;
        Ok(LeaseDir { dir })
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Path of shard `index`'s lease file.
    pub fn lease_path(&self, index: u32) -> PathBuf {
        self.dir.join(lease_file_name(index))
    }

    /// Read the current lease slot for `index`.
    pub fn view(&self, index: u32) -> Result<LeaseView, ClusterError> {
        let path = self.lease_path(index);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(LeaseView::Absent),
            Err(e) => return Err(ClusterError::Io(e)),
        };
        match LeaseRecord::decode(&bytes) {
            Ok(r) => Ok(LeaseView::Held(r)),
            Err(detail) => Ok(LeaseView::Corrupt(detail)),
        }
    }

    /// Next fencing token for `index`: one more than the highest token
    /// among the shard's tombstones (`1` for a never-claimed shard).
    /// Tombstones are the durable token history — a lease is only ever
    /// *removed* (not tombstoned) after its shard's root is published, at
    /// which point no further claim can happen.
    pub fn next_token(&self, index: u32) -> Result<u64, ClusterError> {
        let prefix = format!("dead-shard-{index:06}-token-");
        let mut max_token = 0u64;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(tail) = name.strip_prefix(&prefix) else {
                continue;
            };
            if let Ok(token) = tail.parse::<u64>() {
                max_token = max_token.max(token);
            }
        }
        Ok(max_token + 1)
    }

    /// Try to claim shard `index` with `token`: publish a complete lease
    /// record first-wins through an owner-unique temp file
    /// ([`durable::publish_once`]). The link is atomic — on
    /// `AlreadyExists` someone else holds the shard and `None` is
    /// returned. A crash before the link leaves only an invisible temp
    /// file (cleaned by [`LeaseDir::remove_own_tmps`] on restart).
    pub fn claim(
        &self,
        index: u32,
        owner: &str,
        token: u64,
        heartbeat_millis: u64,
    ) -> Result<Option<Lease>, ClusterError> {
        let record = LeaseRecord {
            shard: index,
            token,
            heartbeat_millis,
            owner: owner.to_string(),
        };
        let tmp = self.dir.join(format!("{owner}-claim-{index:06}.tmp"));
        let lease_path = self.lease_path(index);
        if !durable::publish_once(&tmp, &lease_path, &[&record.encode()])? {
            return Ok(None);
        }
        Ok(Some(Lease {
            dir: self.dir.clone(),
            path: lease_path,
            record,
        }))
    }

    /// Rename a reclaimable lease to its tombstone. Exactly one concurrent
    /// reclaimer's rename succeeds (`Ok(true)`); the rest observe
    /// `NotFound` and report `Ok(false)`. The caller that wins proceeds to
    /// [`LeaseDir::claim`] with [`LeaseDir::next_token`], which now sees
    /// the tombstone.
    ///
    /// A reclaimer acting on a *stale* view — the slot was already
    /// reclaimed and re-claimed since the caller looked — must not
    /// displace the new owner's fresh lease, so the slot is re-read and
    /// compared to `view` first, and re-checked after the rename (the
    /// verify-to-rename window); a lease caught in that window is linked
    /// straight back, the bogus tombstone is deleted, and `Ok(false)` is
    /// returned. Either way the displaced-and-restored owner never misses
    /// a beat: the restored file is the same inode its heartbeats target.
    pub fn retire(
        &self,
        index: u32,
        view: &LeaseView,
        reclaimer: &str,
    ) -> Result<bool, ClusterError> {
        let lease_path = self.lease_path(index);
        let current = match fs::read(&lease_path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(ClusterError::Io(e)),
        };
        let dead_name = match view {
            LeaseView::Held(r) => {
                match LeaseRecord::decode(&current) {
                    Ok(now) if now.token == r.token && now.owner == r.owner => {}
                    // The slot changed hands since the caller's view.
                    _ => return Ok(false),
                }
                format!("dead-shard-{index:06}-token-{}", r.token)
            }
            LeaseView::Corrupt(_) => {
                if LeaseRecord::decode(&current).is_ok() {
                    // The damage the caller saw was replaced by a valid
                    // claim; nothing reclaimable here anymore.
                    return Ok(false);
                }
                format!("dead-shard-{index:06}-corrupt-by-{reclaimer}")
            }
            LeaseView::Absent => return Ok(false),
        };
        let tombstone = self.dir.join(dead_name);
        let outcome = fs::rename(&lease_path, &tombstone);
        fsync_dir(&self.dir)?;
        match outcome {
            Ok(()) => self.confirm_tombstone(&lease_path, &tombstone, view),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(ClusterError::Io(e)),
        }
    }

    /// Post-rename check for [`LeaseDir::retire`]: confirm the tombstone
    /// really holds the record (or damage) the reclaimer meant to bury. If
    /// a re-claim slipped into the verify-to-rename window, restore the
    /// displaced lease (hard-link first-wins, so a concurrent new claim is
    /// never clobbered either) and report the retire as lost.
    fn confirm_tombstone(
        &self,
        lease_path: &Path,
        tombstone: &Path,
        view: &LeaseView,
    ) -> Result<bool, ClusterError> {
        let buried = fs::read(tombstone)?;
        let intended = match (LeaseRecord::decode(&buried), view) {
            (Ok(now), LeaseView::Held(r)) => now.token == r.token && now.owner == r.owner,
            (Err(_), LeaseView::Corrupt(_)) => true,
            _ => false,
        };
        if intended {
            return Ok(true);
        }
        match fs::hard_link(tombstone, lease_path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(ClusterError::Io(e)),
        }
        fs::remove_file(tombstone)?;
        fsync_dir(&self.dir)?;
        Ok(false)
    }

    /// Remove temp files left by a previous crashed run of the *same*
    /// owner (the claim path names temps `<owner>-claim-*.tmp`). Never
    /// touches other owners' temps — theirs may be mid-claim right now.
    pub fn remove_own_tmps(&self, owner: &str) -> io::Result<()> {
        durable::remove_tmps(&self.dir, &format!("{owner}-"))
    }

    /// Remove *every* leftover in the directory — lease files, tombstones,
    /// temps. Only safe once every worker has exited and every root is
    /// published; the coordinator calls this right before assembly.
    pub fn clear(&self) -> io::Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            fs::remove_file(entry?.path())?;
        }
        fsync_dir(&self.dir)
    }
}

/// A lease this process holds (or held — the protocol is explicit about
/// the fact that holding the struct does not guarantee current ownership;
/// [`Lease::still_owned`] checks the file).
#[derive(Clone, Debug)]
pub struct Lease {
    dir: PathBuf,
    path: PathBuf,
    record: LeaseRecord,
}

impl Lease {
    /// The fencing token this lease was claimed with.
    pub fn token(&self) -> u64 {
        self.record.token
    }

    /// The shard this lease claims.
    pub fn shard(&self) -> u32 {
        self.record.shard
    }

    /// Rewrite the heartbeat timestamp in place (same record length, so a
    /// single overwrite; the write also bumps the file mtime). Returns
    /// `Ok(false)` — and writes nothing — when the lease was lost: file
    /// gone, or the record on disk is no longer this owner+token (a
    /// reclaimer moved in). Heartbeats are deliberately *not* fsynced: a
    /// lost heartbeat only makes the lease look staler than it is, which
    /// is the safe direction.
    pub fn heartbeat(&self, skew_ms: i64) -> Result<bool, ClusterError> {
        let mut file = match OpenOptions::new().read(true).write(true).open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(ClusterError::Io(e)),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let on_disk = match LeaseRecord::decode(&bytes) {
            Ok(r) => r,
            Err(_) => return Ok(false),
        };
        if on_disk.owner != self.record.owner || on_disk.token != self.record.token {
            return Ok(false);
        }
        let fresh = LeaseRecord {
            heartbeat_millis: apply_skew(unix_millis(), skew_ms),
            ..self.record.clone()
        };
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&fresh.encode())?;
        Ok(true)
    }

    /// Re-read the lease file and check it still names this owner and
    /// token. The check-then-publish window is not atomic — the exchange
    /// layer's first-wins link is what makes the race harmless — but a
    /// revived worker that lost its lease bails here instead of computing
    /// further.
    pub fn still_owned(&self) -> Result<bool, ClusterError> {
        let bytes = match fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(ClusterError::Io(e)),
        };
        match LeaseRecord::decode(&bytes) {
            Ok(r) => Ok(r.owner == self.record.owner && r.token == self.record.token),
            Err(_) => Ok(false),
        }
    }

    /// Remove the lease file (called only after the shard's root is
    /// published, so no tombstone is needed — no further claim will ever
    /// look for this shard's token history).
    pub fn release(self) -> Result<(), ClusterError> {
        match fs::remove_file(&self.path) {
            Ok(()) => {}
            // A reclaimer renamed it away first; nothing left to release.
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(ClusterError::Io(e)),
        }
        fsync_dir(&self.dir)?;
        Ok(())
    }
}
