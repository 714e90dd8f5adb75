//! Damaged-bytes sweep over the cluster's on-disk records: one published
//! exchange root (`ExchangeDir::read_root`) and one claimed lease file
//! (`LeaseRecord::decode`). Every byte is flipped in its low and high bit,
//! zeroed and set to `0xFF`, and the record is truncated at every offset;
//! each case must end in an error or in exactly the committed record,
//! never a panic. Also pins the exchange root's framed header.

use std::fs;
use std::panic::catch_unwind;
use wk_batchgcd::{crc32, scratch_dir, shard_subtree_root, ShardStore};
use wk_bigint::Natural;
use wk_cluster::{ExchangeDir, LeaseDir, LeaseRecord, Publish, SECTION_CLUSTER_ROOT};

/// Every damaged copy of `bytes` (four byte mutations per offset, then the
/// truncation there).
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

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

#[test]
fn every_damaged_exchange_root_byte_is_an_error_or_the_committed_root() {
    let moduli: Vec<Natural> = [33u64, 39, 323, 15, 35].map(Natural::from).to_vec();
    let store = ShardStore::create(&scratch_dir("hostile-root-store"), 2, &moduli).unwrap();
    let cluster_dir = scratch_dir("hostile-root-cluster");
    let exchange = ExchangeDir::init(&cluster_dir).unwrap();
    let (index, tag) = (1, store.state_tag());
    let root = shard_subtree_root(&store, index).unwrap();
    let publish = exchange.publish(tag, index, 3, "node-a", &root).unwrap();
    assert_eq!(publish, Publish::New);

    // The framed header: magic, version, section id 5, count = shard
    // index, payload length, payload CRC.
    let path = exchange.root_path(index);
    let original = fs::read(&path).unwrap();
    assert_eq!(&original[0..8], b"WKTREEC1");
    assert_eq!(u32_at(&original, 8), 1);
    assert_eq!(u32_at(&original, 12), SECTION_CLUSTER_ROOT);
    assert_eq!(u64_at(&original, 16), u64::from(index));
    assert_eq!(u64_at(&original, 24), (original.len() - 36) as u64);
    assert_eq!(u32_at(&original, 32), crc32(&original[36..]));

    let committed = exchange.read_root(index, tag).unwrap().unwrap();
    for damaged in damaged_variants(&original) {
        fs::write(&path, &damaged).unwrap();
        match catch_unwind(|| exchange.read_root(index, tag)) {
            Err(_) => panic!("damaged root bytes panicked the reader"),
            Ok(Ok(read)) => {
                let read = read.expect("a damaged root file still exists");
                assert_eq!(read.shard, committed.shard);
                assert_eq!(read.token, committed.token);
                assert_eq!(read.owner, committed.owner);
                assert_eq!(read.root, committed.root);
            }
            Ok(Err(_)) => {}
        }
    }
    fs::remove_dir_all(&cluster_dir).unwrap();
    store.remove().unwrap();
}

#[test]
fn every_damaged_lease_byte_is_an_error_or_the_committed_record() {
    let cluster_dir = scratch_dir("hostile-lease-cluster");
    let leases = LeaseDir::init(&cluster_dir).unwrap();
    let lease = leases.claim(2, "node-a", 7, 1_700_000_000_000).unwrap();
    assert!(lease.is_some(), "an unclaimed shard is claimable");
    let original = fs::read(leases.lease_path(2)).unwrap();
    let committed = LeaseRecord::decode(&original).unwrap();
    for damaged in damaged_variants(&original) {
        match catch_unwind(|| LeaseRecord::decode(&damaged)) {
            Err(_) => panic!("damaged lease bytes panicked the decoder"),
            Ok(Ok(read)) => assert_eq!(read, committed),
            Ok(Err(_)) => {}
        }
    }
    fs::remove_dir_all(&cluster_dir).unwrap();
}
