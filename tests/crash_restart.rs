//! Crash-restart suite: fabricate every mid-persist crash window of the
//! month-close protocol and assert the daemon recovers to a corpus
//! byte-identical to a *committed* state — either the old month or the new
//! one, never a hybrid.
//!
//! A month close persists in this order (DESIGN.md §10):
//!
//! 1. shard append (tmp write → rename per shard, directory fsync)
//! 2. tree-cache persist (two section files, each tmp → rename)
//! 3. `labels.tsv`
//! 4. `run_metadata.json` — the commit point
//!
//! Each test builds the real before/after states by running the daemon,
//! then splices directories to reproduce a kill between two steps (the
//! injected-failure equivalent of a SIGKILL at that instant, including the
//! windows the directory-fsync bugfix makes reachable).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use wk_cert::MonthDate;
use wk_service::{AuditConfig, AuditDaemon, FeedConfig, FeedEvent, SimulatedFeed};

const START: MonthDate = MonthDate::new(2012, 1);

fn scratch(tag: &str) -> PathBuf {
    let dir = wk_batchgcd::scratch_dir(&format!("crash-restart-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> AuditConfig {
    let mut cfg = AuditConfig::new(dir.to_path_buf(), START);
    cfg.shard_capacity = 4;
    cfg.threads = 2;
    cfg
}

/// Drive the deterministic feed through `months` month-closes. Reopening a
/// directory with committed months replays the (deterministic) feed to keep
/// the generator streams aligned, but only ingests the uncommitted tail.
fn run_months(cfg: &AuditConfig, months: u32) {
    let mut daemon = AuditDaemon::open(cfg.clone()).unwrap();
    let already = daemon.watermark().months_closed;
    let mut feed = SimulatedFeed::new(FeedConfig::test_small());
    for offset in 0..months {
        let events = feed.month_events(START.plus(offset));
        if offset < already {
            continue;
        }
        for event in events {
            match event {
                FeedEvent::Host(obs) => {
                    daemon.ingest(&obs).unwrap();
                }
                FeedEvent::MonthClose(m) => {
                    daemon.close_month(m).unwrap();
                }
                FeedEvent::Shutdown => {}
            }
        }
    }
}

/// Every file under `dir`, relative path -> bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    if !dir.exists() {
        return out;
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(dir)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    out
}

fn copy_dir(src: &Path, dst: &Path) {
    for (rel, bytes) in dir_bytes(src) {
        let path = dst.join(&rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, bytes).unwrap();
    }
}

/// Committed service states around one month boundary: `old` after
/// `months`, `new` after one more.
struct Boundary {
    old: PathBuf,
    new: PathBuf,
}

fn boundary(tag: &str, months: u32) -> Boundary {
    let live = scratch(&format!("{tag}-live"));
    let cfg = config(&live);
    run_months(&cfg, months);
    let old = scratch(&format!("{tag}-old"));
    copy_dir(&live, &old);
    run_months(&cfg, months + 1); // reopen and close one more month
    let new = scratch(&format!("{tag}-new"));
    copy_dir(&live, &new);
    fs::remove_dir_all(&live).unwrap();
    Boundary { old, new }
}

/// Assemble a crash state in a fresh dir from per-component sources.
fn splice(tag: &str, store_from: &Path, cache_from: &Path, meta_from: &Path) -> PathBuf {
    let dir = scratch(&format!("{tag}-crash"));
    fs::create_dir_all(dir.join("store")).unwrap();
    fs::create_dir_all(dir.join("cache")).unwrap();
    copy_dir(&store_from.join("store"), &dir.join("store"));
    copy_dir(&cache_from.join("cache"), &dir.join("cache"));
    for name in ["run_metadata.json", "labels.tsv"] {
        let src = meta_from.join(name);
        if src.exists() {
            fs::copy(&src, dir.join(name)).unwrap();
        }
    }
    dir
}

/// Recover `crash_dir` and assert its store ends byte-identical to `old`'s
/// or `new`'s, the daemon verifies its own provenance, and queries work.
fn assert_recovers(crash_dir: &Path, b: &Boundary) -> &'static str {
    let daemon = AuditDaemon::open(config(crash_dir)).unwrap();
    daemon.verify_provenance().unwrap();
    let store = dir_bytes(&crash_dir.join("store"));
    let old_store = dir_bytes(&b.old.join("store"));
    let new_store = dir_bytes(&b.new.join("store"));
    let which = if store == old_store {
        "old"
    } else if store == new_store {
        "new"
    } else {
        panic!("recovered store is a hybrid: neither the old nor the new corpus");
    };
    // The recovered index answers factored queries whichever state won.
    let factored = SimulatedFeed::new(FeedConfig::test_small())
        .events()
        .into_iter()
        .filter_map(|e| match e {
            FeedEvent::Host(obs) => Some(obs.modulus),
            _ => None,
        })
        .filter(|n| {
            let a = daemon.query(n);
            a.factored
                && a.factors
                    .as_ref()
                    .map(|(p, q)| &(p * q) == n)
                    .unwrap_or(false)
        })
        .count();
    assert!(
        factored > 0,
        "recovered daemon must still answer factored queries"
    );
    which
}

#[test]
fn crash_after_shard_append_before_cache_update() {
    let b = boundary("shard-before-cache", 2);
    // Kill between step 1 and step 2: new shards on disk, old cache, old
    // watermark. The cache no longer binds -> roll back to the old corpus.
    let crash = splice("shard-before-cache", &b.new, &b.old, &b.old);
    assert_eq!(assert_recovers(&crash, &b), "old");
}

#[test]
fn crash_between_cache_section_renames() {
    let b = boundary("mixed-sections", 2);
    // Kill mid-step-2: the roots section renamed to the new state, the
    // hits section still old. The tags disagree -> roll back.
    let crash = splice("mixed-sections", &b.new, &b.old, &b.old);
    fs::copy(
        b.new.join("cache").join("roots.wkc"),
        crash.join("cache").join("roots.wkc"),
    )
    .unwrap();
    assert_eq!(assert_recovers(&crash, &b), "old");
}

#[test]
fn crash_after_tmp_write_before_rename() {
    let b = boundary("tmp-orphan", 2);
    // Kill after a section tmp was written but before its rename: old
    // everything plus a stray tmp. Recovery removes the orphan; the
    // committed (old) corpus survives byte-identical.
    let crash = splice("tmp-orphan", &b.old, &b.old, &b.old);
    fs::write(
        crash.join("cache").join("hits.wkc.tmp"),
        fs::read(b.new.join("cache").join("hits.wkc")).unwrap(),
    )
    .unwrap();
    fs::write(crash.join("store").join("shard-000099.wks.tmp"), b"torn").unwrap();
    fs::write(crash.join("run_metadata.json.tmp"), b"{torn").unwrap();
    assert_eq!(assert_recovers(&crash, &b), "old");
    assert!(!crash.join("cache").join("hits.wkc.tmp").exists());
    assert!(!crash.join("store").join("shard-000099.wks.tmp").exists());
    assert!(!crash.join("run_metadata.json.tmp").exists());
}

#[test]
fn crash_mid_shard_append() {
    let b = boundary("partial-append", 2);
    // Kill inside step 1: only the first of the month's new shards landed.
    // The store opens (contiguous prefix) but holds a hybrid corpus; the
    // cache does not bind -> trailing uncommitted shards are discarded.
    let crash = splice("partial-append", &b.old, &b.old, &b.old);
    let old_shards = fs::read_dir(b.old.join("store")).unwrap().count();
    let mut new_shards: Vec<PathBuf> = fs::read_dir(b.new.join("store"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    new_shards.sort();
    let first_new = new_shards
        .get(old_shards)
        .expect("the extra month adds at least one shard");
    fs::copy(
        first_new,
        crash.join("store").join(first_new.file_name().unwrap()),
    )
    .unwrap();
    assert_eq!(assert_recovers(&crash, &b), "old");
}

#[test]
fn crash_after_full_persist_before_watermark() {
    let b = boundary("pre-watermark", 2);
    // Kill between step 2 and step 4: new shards AND new cache on disk, old
    // watermark. Everything needed for the new state is committed-in-fact,
    // so recovery rolls forward and re-commits.
    let crash = splice("pre-watermark", &b.new, &b.new, &b.old);
    assert_eq!(assert_recovers(&crash, &b), "new");
    let daemon = AuditDaemon::open(config(&crash)).unwrap();
    assert_eq!(daemon.watermark().months_closed, 3);
    assert_eq!(daemon.watermark().last_month, Some(START.plus(2)));
}

#[test]
fn first_month_crash_windows() {
    // The boundary between "nothing yet" and the first committed month:
    // watermark may not exist at all.
    let live = scratch("first-month-live");
    let cfg = config(&live);
    AuditDaemon::open(cfg.clone()).unwrap(); // initialise empty state
    let old = scratch("first-month-old");
    copy_dir(&live, &old);
    run_months(&cfg, 1);
    let new = scratch("first-month-new");
    copy_dir(&live, &new);
    fs::remove_dir_all(&live).unwrap();
    let b = Boundary { old, new };

    // Shards landed, cache still the empty one -> roll back to empty.
    let crash = splice("first-month-rollback", &b.new, &b.old, &b.old);
    assert_eq!(assert_recovers_allow_empty(&crash, &b), "old");

    // Shards + cache landed, watermark didn't -> roll forward to month 1.
    let crash = splice("first-month-forward", &b.new, &b.new, &b.old);
    assert_eq!(assert_recovers_allow_empty(&crash, &b), "new");
    let daemon = AuditDaemon::open(config(&crash)).unwrap();
    assert_eq!(daemon.watermark().months_closed, 1);
}

/// Like `assert_recovers`, but the old state may be the empty corpus (no
/// factored queries to demand).
fn assert_recovers_allow_empty(crash_dir: &Path, b: &Boundary) -> &'static str {
    let daemon = AuditDaemon::open(config(crash_dir)).unwrap();
    daemon.verify_provenance().unwrap();
    let store = dir_bytes(&crash_dir.join("store"));
    if store == dir_bytes(&b.old.join("store")) {
        "old"
    } else if store == dir_bytes(&b.new.join("store")) {
        "new"
    } else {
        panic!("recovered store is a hybrid: neither the old nor the new corpus");
    }
}

#[test]
fn recovery_is_idempotent() {
    // Re-opening an already recovered directory changes nothing.
    let b = boundary("idempotent", 2);
    let crash = splice("idempotent", &b.new, &b.old, &b.old);
    assert_recovers(&crash, &b);
    let first = dir_bytes(&crash);
    let daemon = AuditDaemon::open(config(&crash)).unwrap();
    assert_eq!(daemon.recovery(), wk_service::Recovery::Clean);
    drop(daemon);
    assert_eq!(dir_bytes(&crash), first);
}

#[test]
fn inflated_cache_count_rebuilds_cache() {
    // A section header's record count sits outside the payload CRC. A
    // count no payload can hold must read as a corrupt cache, which the
    // daemon rebuilds from the committed store, not as a panic.
    let b = boundary("inflated-count", 2);
    let crash = splice("inflated-count", &b.old, &b.old, &b.old);
    let hits = crash.join("cache").join("hits.wkc");
    let mut bytes = fs::read(&hits).unwrap();
    bytes[16..24].copy_from_slice(&(1u64 << 58).to_le_bytes());
    fs::write(&hits, bytes).unwrap();
    let daemon = AuditDaemon::open(config(&crash)).unwrap();
    assert_eq!(daemon.recovery(), wk_service::Recovery::RebuiltCache);
    drop(daemon);
    assert_eq!(assert_recovers(&crash, &b), "old");
}
