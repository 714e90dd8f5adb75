//! How this workspace puts bytes on disk and reads framed bytes back
//! (DESIGN.md §8.2). Shards, tree-cache sections and the daemon's metadata
//! are replace-published by [`write_atomic`]; cluster roots and lease
//! claims are published first-wins by [`publish_once`]. Either way a crash
//! leaves at most a `*.tmp` orphan, never a torn final name, and owners
//! sweep their orphans with [`remove_tmps`] on restart. [`Frame`] is the
//! one 36-byte header codec.

use crate::corpus::crc32;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Fsync a directory, making the entries renamed or linked into it
/// durable: `sync_all` on a file persists its contents, not its name.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The directory holding `path`; a bare file name's (empty) parent is `.`.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    }
}

/// The scratch name [`write_atomic`] stages `path` through: `<path>.tmp`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    name.into()
}

fn write_synced(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    let mut file = File::create(path)?;
    for part in parts {
        file.write_all(part)?;
    }
    file.sync_all()
}

/// Replace-publish `parts`, concatenated, at `path`: write and fsync
/// [`tmp_path`], rename it over `path`, fsync the parent directory (without
/// which a power loss can undo the rename). Readers see old or new bytes.
pub fn write_atomic(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    let tmp = tmp_path(path);
    write_synced(&tmp, parts)?;
    fs::rename(&tmp, path)?;
    fsync_dir(parent_dir(path))
}

/// First-wins publish of `parts` at `dst` through the caller's own `tmp`:
/// write and fsync `tmp`, hard-link it to `dst`, remove `tmp` (best effort:
/// after the link it is only a second name), and fsync the parent on
/// success. `Ok(false)` when `dst` already existed; that file is untouched.
pub fn publish_once(tmp: &Path, dst: &Path, parts: &[&[u8]]) -> io::Result<bool> {
    write_synced(tmp, parts)?;
    let linked = fs::hard_link(tmp, dst);
    let _ = fs::remove_file(tmp);
    match linked {
        Ok(()) => fsync_dir(parent_dir(dst)).map(|()| true),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
}

/// Remove every `<prefix>*.tmp` file in `dir` (`""` matches every `*.tmp`),
/// then fsync `dir` if any went. A missing `dir` has nothing to sweep.
pub fn remove_tmps(dir: &Path, prefix: &str) -> io::Result<()> {
    let entries = match fs::read_dir(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        entries => entries?,
    };
    let mut removed = false;
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(prefix) && name.ends_with(".tmp") && entry.file_type()?.is_file() {
            fs::remove_file(entry.path())?;
            removed = true;
        }
    }
    if removed {
        fsync_dir(dir)?;
    }
    Ok(())
}

/// Delete the replace-published files `names` in `dir` and any temps they
/// left, then `dir` itself if that empties it. A file already gone is fine.
pub(crate) fn remove_published<N: AsRef<Path>>(
    dir: &Path,
    names: impl IntoIterator<Item = N>,
) -> io::Result<()> {
    for name in names {
        let path = dir.join(name);
        match fs::remove_file(&path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let _ = fs::remove_file(tmp_path(&path));
    }
    let _ = fs::remove_dir(dir);
    Ok(())
}

/// Byte length of the framed header.
pub const FRAME_HEADER_LEN: usize = 36;

/// A framed format: the magic and version its header must carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Eight bytes opening every file of the format.
    pub magic: [u8; 8],
    /// The format version this build reads and writes.
    pub version: u32,
}

/// A framed header's fields after magic and version. `crc` covers only
/// the payload, so readers bound-check `id` and `count` themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Shard index or section id.
    pub id: u32,
    /// Records in the payload.
    pub count: u64,
    /// Payload bytes after the header.
    pub payload_len: u64,
    /// CRC-32 (IEEE) of the payload.
    pub crc: u32,
}

impl FrameHeader {
    /// The header of `payload` under `id` and `count`.
    pub fn new(id: u32, count: u64, payload: &[u8]) -> FrameHeader {
        FrameHeader {
            id,
            count,
            payload_len: payload.len() as u64,
            crc: crc32(payload),
        }
    }
}

/// Why a framed header did not parse.
#[derive(Debug)]
pub enum FrameError {
    /// Fewer than [`FRAME_HEADER_LEN`] bytes.
    Truncated,
    /// Not the format's magic (the eight bytes found).
    BadMagic([u8; 8]),
    /// Not the format's version (the version found).
    VersionSkew(u32),
    /// The read failed.
    Io(io::Error),
}

impl Frame {
    /// The header bytes, little-endian: magic, version (`u32`), id (`u32`),
    /// count (`u64`), payload length (`u64`), payload CRC (`u32`).
    pub fn encode(&self, h: &FrameHeader) -> [u8; FRAME_HEADER_LEN] {
        let mut out = [0u8; FRAME_HEADER_LEN];
        let mut rest = &mut out[..];
        for field in [
            &self.magic[..],
            &self.version.to_le_bytes(),
            &h.id.to_le_bytes(),
            &h.count.to_le_bytes(),
            &h.payload_len.to_le_bytes(),
            &h.crc.to_le_bytes(),
        ] {
            // The six fields fill the 36 bytes exactly; no write falls short.
            let _ = rest.write_all(field);
        }
        out
    }

    /// Read one header from `r`, checking magic and version.
    pub fn read(&self, r: &mut impl Read) -> Result<FrameHeader, FrameError> {
        let mut bytes = [0u8; FRAME_HEADER_LEN];
        r.read_exact(&mut bytes).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => FrameError::Truncated,
            _ => FrameError::Io(e),
        })?;
        // All 36 bytes are present, so no take below comes up short.
        let mut rest = &bytes[..];
        let magic = take_array(&mut rest).unwrap_or_default();
        if magic != self.magic {
            return Err(FrameError::BadMagic(magic));
        }
        let version = take_u32(&mut rest).unwrap_or_default();
        if version != self.version {
            return Err(FrameError::VersionSkew(version));
        }
        Ok(FrameHeader {
            id: take_u32(&mut rest).unwrap_or_default(),
            count: take_u64(&mut rest).unwrap_or_default(),
            payload_len: take_u64(&mut rest).unwrap_or_default(),
            crc: take_u32(&mut rest).unwrap_or_default(),
        })
    }
}

/// Consume `n` bytes from the front of `rest`; `None` when fewer remain.
pub fn take_bytes<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, tail) = rest.split_at_checked(n)?;
    *rest = tail;
    Some(head)
}

fn take_array<const N: usize>(rest: &mut &[u8]) -> Option<[u8; N]> {
    take_bytes(rest, N)?.try_into().ok()
}

/// Consume a little-endian `u32`, if four bytes remain.
pub fn take_u32(rest: &mut &[u8]) -> Option<u32> {
    take_array(rest).map(u32::from_le_bytes)
}

/// Consume a little-endian `u64`, if eight bytes remain.
pub fn take_u64(rest: &mut &[u8]) -> Option<u64> {
    take_array(rest).map(u64::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_file_name_resolves_to_the_current_directory() {
        assert_eq!(parent_dir(Path::new("x.json")), Path::new("."));
        assert_eq!(parent_dir(Path::new("a/x.json")), Path::new("a"));
        assert_eq!(parent_dir(Path::new("/x.json")), Path::new("/"));
        assert_eq!(tmp_path(Path::new("x.json")), Path::new("x.json.tmp"));
    }

    #[test]
    fn frame_roundtrips_and_rejects_foreign_headers() {
        let frame = Frame {
            magic: *b"TESTFRM1",
            version: 7,
        };
        let header = FrameHeader::new(3, 2, b"payload");
        let bytes = frame.encode(&header);
        assert_eq!(&bytes[0..8], b"TESTFRM1");
        assert_eq!(&bytes[12..16], &3u32.to_le_bytes());
        assert_eq!(frame.read(&mut &bytes[..]).unwrap(), header);

        let other = Frame {
            magic: *b"OTHERFM1",
            version: 7,
        };
        assert!(matches!(
            other.read(&mut &bytes[..]),
            Err(FrameError::BadMagic(m)) if &m == b"TESTFRM1"
        ));
        let newer = Frame {
            version: 8,
            ..frame
        };
        assert!(matches!(
            newer.read(&mut &bytes[..]),
            Err(FrameError::VersionSkew(7))
        ));
        assert!(matches!(
            frame.read(&mut &bytes[..35]),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn first_wins_publish_keeps_the_first_file() {
        let dir = crate::scratch_dir("durable-once");
        fs::create_dir_all(&dir).unwrap();
        let dst = dir.join("root");
        assert!(publish_once(&dir.join("a.tmp"), &dst, &[b"first"]).unwrap());
        assert!(!publish_once(&dir.join("b.tmp"), &dst, &[b"second"]).unwrap());
        assert_eq!(fs::read(&dst).unwrap(), b"first");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "temps removed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_removes_only_matching_temps() {
        let dir = crate::scratch_dir("durable-sweep");
        assert!(remove_tmps(&dir, "").is_ok(), "a missing dir is empty");
        fs::create_dir_all(&dir).unwrap();
        for name in ["a-1.tmp", "b-1.tmp", "keep"] {
            fs::write(dir.join(name), b"x").unwrap();
        }
        remove_tmps(&dir, "a-").unwrap();
        assert!(!dir.join("a-1.tmp").exists());
        assert!(dir.join("b-1.tmp").exists());
        remove_tmps(&dir, "").unwrap();
        assert!(!dir.join("b-1.tmp").exists());
        assert!(dir.join("keep").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
