//! Seeded-bug validation: reintroduce the PR-7 bug classes into copies of
//! the *real* workspace sources and check the semantic rules catch them.
//!
//! Each test loads an actual source file from this repository, verifies it
//! lints clean as-is, applies a regression patch in memory (delete a real
//! `fsync_dir`, add a process-counter watermark, hold a guard across a
//! send), and asserts the expected rule fires. This guards against the
//! rules silently rotting into always-clean: they must still distinguish
//! today's fixed code from yesterday's bug.

use std::fs;
use std::path::PathBuf;
use wk_lint::{check_workspace, SourceFile};

fn real_source(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

fn lint_one(
    crate_name: &str,
    lib_name: &str,
    rel_path: &str,
    src: String,
) -> Vec<wk_lint::Diagnostic> {
    check_workspace(&[SourceFile {
        rel_path: rel_path.to_string(),
        crate_name: crate_name.to_string(),
        lib_name: lib_name.to_string(),
        src,
    }])
}

fn rules_of(diags: &[wk_lint::Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

#[test]
fn removing_the_durable_write_dir_fsync_is_flagged() {
    // Every replace-publish (shard files, cache sections, the daemon's
    // metadata) goes through `durable::write_atomic`, so this is the one
    // directory fsync the rule has to keep in place.
    let rel = "crates/batchgcd/src/durable.rs";
    let src = real_source(rel);
    assert!(
        lint_one("batchgcd", "wk_batchgcd", rel, src.clone()).is_empty(),
        "pristine durable.rs must lint clean"
    );
    // Reintroduce the §8.2 bug: `write_atomic` renames into place but never
    // fsyncs the destination's parent directory.
    let needle = "    fsync_dir(parent_dir(path))\n";
    assert!(
        src.contains(needle),
        "write_atomic's fsync_dir moved; update this test"
    );
    let patched = src.replacen(needle, "    Ok(())\n", 1);
    let diags = lint_one("batchgcd", "wk_batchgcd", rel, patched);
    assert!(
        rules_of(&diags).contains(&"durability-publish"),
        "deleting write_atomic's fsync_dir must trip durability-publish: {diags:#?}"
    );
}

#[test]
fn process_counter_watermark_in_the_daemon_is_flagged() {
    let rel = "crates/service/src/daemon.rs";
    let src = real_source(rel);
    assert!(
        lint_one("service", "wk_service", rel, src.clone()).is_empty(),
        "pristine daemon.rs must lint clean"
    );
    // Reintroduce the restart-unsafe watermark: a process-local counter and
    // a wall-clock stamp, instead of on-disk store state.
    let patched = format!(
        "{src}\npub fn bogus_checkpoint(&mut self) -> Watermark {{\n    \
         self.restart_counter += 1;\n    Watermark {{\n        \
         tag: self.restart_counter,\n        stamp: SystemTime::now(),\n    }}\n}}\n"
    );
    let diags = lint_one("service", "wk_service", rel, patched);
    let watermark = diags
        .iter()
        .filter(|d| d.rule == "watermark-provenance")
        .count();
    assert_eq!(
        watermark, 2,
        "counter + wall-clock watermark must both be flagged: {diags:#?}"
    );
}

#[test]
fn guard_across_send_in_the_daemon_is_flagged() {
    let rel = "crates/service/src/daemon.rs";
    let src = real_source(rel);
    let patched = format!(
        "{src}\npub fn bogus_drain(m: &Mutex<Vec<u8>>, tx: &Sender<u8>) {{\n    \
         let queue = m.lock().unwrap_or_else(PoisonError::into_inner);\n    \
         for v in queue.iter() {{\n        tx.send(*v).ok();\n    }}\n}}\n"
    );
    let diags = lint_one("service", "wk_service", rel, patched);
    assert!(
        rules_of(&diags).contains(&"lock-discipline"),
        "guard held across send must trip lock-discipline: {diags:#?}"
    );
}
