//! Crate-level tests for the shard-store entry points that share the one
//! sharded driver: the cluster assembly, the tree-cache build, the k-subset
//! run over a store and the incremental sweep. Also the untrusted-header
//! cases: a shard or cache-section `count` the payload cannot hold, a
//! zeroed shard `count`, a checksum-valid shard that holds a zero modulus,
//! and a sweep damaging every byte of every framed file a store and its
//! cache write.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use wk_batchgcd::corpus::{SHARD_FORMAT_VERSION, SHARD_HEADER_LEN, SHARD_MAGIC};
use wk_batchgcd::{
    assemble_from_shard_roots, crc32, distributed_batch_gcd_sharded, encode_natural,
    incremental_batch_gcd, scratch_dir, shard_subtree_root, sharded_batch_gcd, ClusterConfig,
    CorpusError, IncrementalError, ShardStore, TreeCache,
};
use wk_bigint::Natural;

fn nat(v: u64) -> Natural {
    Natural::from(v)
}

/// Shared primes, a clique, a chain and a clean key.
fn mixed_moduli() -> Vec<Natural> {
    [33, 39, 323, 15, 35, 21, 437, 667, 6].map(nat).to_vec()
}

/// `count` odd moduli of exactly `limbs` limbs each (xorshift words).
fn pseudo_moduli(count: usize, limbs: usize, seed: u64) -> Vec<Natural> {
    let mut state = seed | 1;
    (0..count)
        .map(|_| {
            let mut words: Vec<u64> = (0..limbs)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                })
                .collect();
            words[0] |= 1;
            words[limbs - 1] |= 1 << 63;
            Natural::from_limbs(words)
        })
        .collect()
}

fn roots_of(store: &ShardStore) -> Vec<Natural> {
    (0..store.shard_count() as u32)
        .map(|i| shard_subtree_root(store, i).unwrap())
        .collect()
}

/// Every file in `dir`, by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&path).unwrap())
        })
        .collect();
    out.sort();
    out
}

/// Write a checksum-valid shard file by hand. The store's own writer
/// refuses zero moduli, so this is the only way to put one on disk.
fn write_raw_shard(path: &Path, index: u32, moduli: &[Natural]) {
    let mut payload = Vec::new();
    for m in moduli {
        encode_natural(&mut payload, m).unwrap();
    }
    let mut bytes = Vec::with_capacity(SHARD_HEADER_LEN + payload.len());
    bytes.extend_from_slice(&SHARD_MAGIC);
    bytes.extend_from_slice(&SHARD_FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&index.to_le_bytes());
    bytes.extend_from_slice(&(moduli.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    fs::write(path, bytes).unwrap();
}

/// Overwrite the header's `count` field (bytes 16..24 in both the shard
/// and the cache-section header). The CRC covers only the payload, so the
/// file still passes its checksum.
fn set_count(path: &Path, count: u64) {
    let mut bytes = fs::read(path).unwrap();
    bytes[16..24].copy_from_slice(&count.to_le_bytes());
    fs::write(path, bytes).unwrap();
}

/// Every damaged copy of `bytes`: at each offset, the byte flipped in its
/// low and high bit, zeroed and set to `0xFF`, then the file truncated
/// there.
fn damaged_variants(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(bytes.len() * 5);
    for at in 0..bytes.len() {
        for mutate in [|b: u8| b ^ 0x01, |b| b ^ 0x80, |_| 0x00, |_| 0xFF] {
            let mut v = bytes.to_vec();
            v[at] = mutate(v[at]);
            out.push(v);
        }
        out.push(bytes[..at].to_vec());
    }
    out
}

/// Overwrite each file of `dir` with every damaged variant in turn, run
/// `check` on each, and restore the file. Returns the number of cases.
fn sweep_files(dir: &Path, mut check: impl FnMut(&str)) -> usize {
    let mut cases = 0;
    for (name, original) in files(dir) {
        let path = dir.join(&name);
        for damaged in damaged_variants(&original) {
            fs::write(&path, &damaged).unwrap();
            check(&name);
            cases += 1;
        }
        fs::write(&path, &original).unwrap();
    }
    cases
}

fn is_format_violation(e: &CorpusError) -> bool {
    matches!(e, CorpusError::FormatViolation { .. })
}

#[test]
fn assembly_from_subtree_roots_matches_sharded_run() {
    let moduli = mixed_moduli();
    for capacity in [1usize, 2, 3, 4, 9, 16] {
        let store = ShardStore::create(&scratch_dir("shard-asm"), capacity, &moduli).unwrap();
        let roots = roots_of(&store);
        let sharded = sharded_batch_gcd(&store, 1).unwrap();
        let assembly = assemble_from_shard_roots(&store, roots.clone(), 1).unwrap();
        assert_eq!(
            assembly.result.raw_divisors, sharded.raw_divisors,
            "cap={capacity}"
        );
        assert_eq!(assembly.result.statuses, sharded.statuses, "cap={capacity}");
        assert_eq!(assembly.shard_products, roots, "cap={capacity}");
        store.remove().unwrap();
    }
}

#[test]
fn assembly_rejects_wrong_root_count_and_zero_root() {
    let store = ShardStore::create(&scratch_dir("shard-asm-bad"), 4, &mixed_moduli()).unwrap();
    let mut roots = roots_of(&store);
    let short = roots[..roots.len() - 1].to_vec();
    let err = assemble_from_shard_roots(&store, short, 1).unwrap_err();
    assert!(is_format_violation(&err), "{err}");
    assert!(err.to_string().contains("shard roots"), "{err}");
    roots[1] = Natural::zero();
    let err = assemble_from_shard_roots(&store, roots, 1).unwrap_err();
    assert!(is_format_violation(&err), "{err}");
    assert!(err.to_string().contains("zero"), "{err}");
    store.remove().unwrap();
}

#[test]
fn cache_build_and_from_parts_write_identical_sections() {
    let store = ShardStore::create(&scratch_dir("shard-cache"), 4, &mixed_moduli()).unwrap();
    let built_dir = scratch_dir("shard-cache-built");
    let parts_dir = scratch_dir("shard-cache-parts");
    let (built, result) = TreeCache::build(&built_dir, &store, 1).unwrap();
    let assembly = assemble_from_shard_roots(&store, roots_of(&store), 1).unwrap();
    assert_eq!(assembly.result.raw_divisors, result.raw_divisors);
    let parts = TreeCache::from_parts(
        &parts_dir,
        &store,
        assembly.shard_products,
        &assembly.result,
    )
    .unwrap();
    let built_files = files(&built_dir);
    let names: Vec<&str> = built_files.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        ["hits.wkc", "roots.wkc"],
        "roots and hits sections only"
    );
    assert_eq!(built_files, files(&parts_dir));
    built.remove().unwrap();
    parts.remove().unwrap();
    store.remove().unwrap();
}

#[test]
fn one_thread_sharded_runs_are_busy_at_most_their_wall_time() {
    // Each shard's leaf task runs its gcd folds as a metered task inside
    // it. The folds count in the gcd domain only, so on one thread the
    // executor's busy time fits in the run's wall time, for the plain run
    // and for the cache build that keeps the tree.
    let moduli = pseudo_moduli(256, 16, 11);
    let store = ShardStore::create(&scratch_dir("shard-busy"), 32, &moduli).unwrap();
    let cache_dir = scratch_dir("shard-busy-cache");
    let (cache, built) = TreeCache::build(&cache_dir, &store, 1).unwrap();
    for stats in [sharded_batch_gcd(&store, 1).unwrap().stats, built.stats] {
        assert!(stats.gcd_exec.busy_total() > std::time::Duration::ZERO);
        let busy = stats.total_exec().busy_total();
        assert!(
            busy <= stats.total_time(),
            "busy {busy:?} over {:?} of wall time on one thread",
            stats.total_time()
        );
    }
    cache.remove().unwrap();
    store.remove().unwrap();
}

#[test]
fn zero_modulus_in_checksum_valid_shard_fails_reader_and_runs() {
    let store =
        ShardStore::create(&scratch_dir("shard-zero"), 2, &[nat(33), nat(323), nat(15)]).unwrap();
    write_raw_shard(&store.shard_path(0), 0, &[nat(33), Natural::zero()]);
    // The header is well formed, so the store opens; the record is not.
    let reopened = ShardStore::open(store.dir()).unwrap();
    let err = reopened.read_shard(0).unwrap_err();
    assert!(is_format_violation(&err), "{err}");
    assert!(err.to_string().contains("zero modulus"), "{err}");
    let err = sharded_batch_gcd(&reopened, 1).unwrap_err();
    assert!(is_format_violation(&err), "{err}");
    let err = distributed_batch_gcd_sharded(&reopened, ClusterConfig::sequential(2)).unwrap_err();
    assert!(is_format_violation(&err), "{err}");
    store.remove().unwrap();
}

#[test]
fn zero_modulus_shard_fails_incremental_sweep_and_reconstruction() {
    let dir = scratch_dir("shard-zero-incr");
    let mut store = ShardStore::create(&dir, 2, &[nat(33), nat(323), nat(15), nat(35)]).unwrap();
    let (mut cache, _) =
        TreeCache::build(&scratch_dir("shard-zero-incr-cache"), &store, 1).unwrap();
    // Swap the zero shard in behind the cache's back; the in-memory store
    // and cache still bind, so the runs get as far as reading shard 0.
    write_raw_shard(&store.shard_path(0), 0, &[nat(33), Natural::zero()]);

    // The new 39 shares the prime 3 with 33, so the sweep reads shard 0.
    let err = incremental_batch_gcd(&mut store, &mut cache, &[nat(39)], 2, 1).unwrap_err();
    assert!(
        matches!(&err, IncrementalError::Corpus(e) if is_format_violation(e)),
        "{err}"
    );
    assert_eq!(store.total_moduli(), 4, "a failed sweep appends nothing");
    // An empty delta rebuilds the result from the shards holding hits
    // (33 and 15 share the prime 3, so shard 0 is read).
    let err = incremental_batch_gcd(&mut store, &mut cache, &[], 2, 1).unwrap_err();
    assert!(
        matches!(&err, IncrementalError::Corpus(e) if is_format_violation(e)),
        "{err}"
    );
    cache.remove().unwrap();
    store.remove().unwrap();
}

#[test]
fn create_and_append_refuse_a_zero_modulus_without_leaving_shards() {
    for capacity in [1usize, 2] {
        let dir = scratch_dir("shard-zero-create");
        let err = ShardStore::create(&dir, capacity, &[nat(33), Natural::zero()]).unwrap_err();
        assert!(is_format_violation(&err), "cap={capacity}: {err}");
        let left = fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(left, 0, "cap={capacity}: no shard files may remain");
        let _ = fs::remove_dir_all(&dir);
    }

    let dir = scratch_dir("shard-zero-append");
    let mut store = ShardStore::create(&dir, 1, &[nat(35)]).unwrap();
    let err = store.append(1, &[nat(33), Natural::zero()]).unwrap_err();
    assert!(is_format_violation(&err), "{err}");
    assert_eq!(store.shard_count(), 1);
    assert_eq!(files(&dir).len(), 1, "the failed append removed its shards");
    store.remove().unwrap();
}

#[test]
fn inflated_shard_count_is_a_typed_error() {
    let dir = scratch_dir("shard-count");
    let store = ShardStore::create(&dir, 4, &mixed_moduli()).unwrap();
    set_count(&store.shard_path(0), 1 << 60);
    let err = ShardStore::open(&dir).unwrap_err();
    assert!(is_format_violation(&err), "{err}");
    // A store opened before the damage reads the shard through the same
    // header check.
    let err = store.read_shard(0).unwrap_err();
    assert!(is_format_violation(&err), "{err}");
    let err = sharded_batch_gcd(&store, 1).unwrap_err();
    assert!(is_format_violation(&err), "{err}");
    store.remove().unwrap();
}

#[test]
fn inflated_cache_section_count_is_cache_corrupt() {
    let store = ShardStore::create(&scratch_dir("shard-count-cache"), 4, &mixed_moduli()).unwrap();
    for (section, count) in [("roots.wkc", u64::MAX), ("hits.wkc", 1 << 58)] {
        let dir = scratch_dir("shard-count-cache-dir");
        let (cache, _) = TreeCache::build(&dir, &store, 1).unwrap();
        set_count(&dir.join(section), count);
        let err = TreeCache::open(&dir, &store).unwrap_err();
        assert!(
            matches!(err, IncrementalError::CacheCorrupt { .. }),
            "{section}: {err}"
        );
        cache.remove().unwrap();
    }
    store.remove().unwrap();
}

#[test]
fn zeroed_shard_count_is_a_typed_error() {
    let dir = scratch_dir("shard-count-zero");
    let store = ShardStore::create(&dir, 4, &mixed_moduli()).unwrap();
    set_count(&store.shard_path(0), 0);
    let err = ShardStore::open(&dir).unwrap_err();
    assert!(is_format_violation(&err), "{err}");
    // A store opened before the damage must not read the shard as empty.
    let err = store.read_shard(0).unwrap_err();
    assert!(is_format_violation(&err), "{err}");
    let err = sharded_batch_gcd(&store, 1).unwrap_err();
    assert!(is_format_violation(&err), "{err}");
    store.remove().unwrap();
}

#[test]
fn shard_writer_emits_the_hand_built_frame_bytes() {
    let moduli = mixed_moduli();
    let store = ShardStore::create(&scratch_dir("shard-pin"), 4, &moduli).unwrap();
    let by_hand = scratch_dir("shard-pin-hand");
    fs::create_dir_all(&by_hand).unwrap();
    for (index, chunk) in moduli.chunks(4).enumerate() {
        write_raw_shard(
            &by_hand.join(format!("shard-{index:06}.wks")),
            index as u32,
            chunk,
        );
    }
    assert_eq!(files(store.dir()), files(&by_hand));
    fs::remove_dir_all(&by_hand).unwrap();
    store.remove().unwrap();
}

#[test]
fn every_damaged_shard_byte_is_an_error_or_the_committed_moduli() {
    let moduli = mixed_moduli();
    let dir = scratch_dir("shard-hostile");
    let store = ShardStore::create(&dir, 4, &moduli).unwrap();
    let cases = sweep_files(&dir, |name| {
        let outcome = catch_unwind(|| -> Result<Vec<Natural>, CorpusError> {
            let reopened = ShardStore::open(&dir)?;
            let mut read = Vec::new();
            for index in 0..reopened.shard_count() as u32 {
                read.extend(reopened.read_shard(index)?);
            }
            Ok(read)
        });
        match outcome {
            Err(_) => panic!("{name}: damaged bytes panicked the reader"),
            Ok(Ok(read)) => assert_eq!(read, moduli, "{name}: damage read back as other moduli"),
            Ok(Err(_)) => {}
        }
    });
    assert_eq!(
        cases,
        5 * (2 * (SHARD_HEADER_LEN + 4 * 16) + SHARD_HEADER_LEN + 16)
    );
    store.remove().unwrap();
}

#[test]
fn every_damaged_cache_byte_is_an_error_or_the_committed_cache() {
    let store =
        ShardStore::create(&scratch_dir("cache-hostile-store"), 4, &mixed_moduli()).unwrap();
    let dir = scratch_dir("cache-hostile");
    let (committed, _) = TreeCache::build(&dir, &store, 1).unwrap();
    let bytes: usize = files(&dir).iter().map(|(_, b)| b.len()).sum();
    let cases = sweep_files(&dir, |name| {
        let outcome = catch_unwind(AssertUnwindSafe(|| TreeCache::open(&dir, &store)));
        match outcome {
            Err(_) => panic!("{name}: damaged bytes panicked the cache reader"),
            // Every field, the shard roots included.
            Ok(Ok(cache)) => assert_eq!(format!("{cache:?}"), format!("{committed:?}"), "{name}"),
            Ok(Err(_)) => {}
        }
    });
    assert_eq!(cases, 5 * bytes);
    committed.remove().unwrap();
    store.remove().unwrap();
}
