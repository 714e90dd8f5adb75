//! End-to-end audit-daemon tests: multi-month ingestion over the bounded
//! feed channel, provenance-stamped queries, and restart behavior.

use std::collections::HashSet;
use std::fs;
use wk_bigint::Natural;
use wk_cert::MonthDate;
use wk_service::{
    feed_channel, AuditConfig, AuditDaemon, FeedConfig, FeedEvent, Recovery, ServiceError,
    SimulatedFeed,
};

fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = wk_batchgcd::scratch_dir(&format!("service-e2e-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(tag: &str) -> AuditConfig {
    let mut cfg = AuditConfig::new(test_dir(tag), MonthDate::new(2012, 1));
    cfg.shard_capacity = 4;
    cfg.threads = 2;
    cfg
}

/// The deterministic feed's host moduli, for picking query subjects.
fn feed_moduli() -> Vec<Natural> {
    SimulatedFeed::new(FeedConfig::test_small())
        .events()
        .into_iter()
        .filter_map(|e| match e {
            FeedEvent::Host(obs) => Some(obs.modulus),
            _ => None,
        })
        .collect()
}

#[test]
fn daemon_ingests_three_months_and_answers_with_provenance() {
    let cfg = config("three-months");
    let mut daemon = AuditDaemon::open(cfg.clone()).unwrap();
    assert_eq!(daemon.recovery(), Recovery::Fresh);

    // Producer thread pushes the whole simulated feed through a tightly
    // bounded channel; the daemon drains it.
    let (tx, rx) = feed_channel(4);
    let observer = tx.clone();
    let producer = std::thread::spawn(move || {
        for event in SimulatedFeed::new(FeedConfig::test_small()).events() {
            tx.send(event).unwrap();
        }
    });
    let summary = daemon.run(&rx).unwrap();
    producer.join().unwrap();
    assert_eq!(summary.months_closed, 3);
    assert!(summary.hosts_ingested > 0);
    // The tiny bound forced the producer to wait at least once.
    assert!(observer.backpressure_hits() > 0);

    // The watermark covers three committed months.
    let w = daemon.watermark();
    assert_eq!(w.months_closed, 3);
    assert_eq!(w.last_month, Some(MonthDate::new(2012, 3)));
    assert!(w.corpus_moduli > 0);

    // The shared prime pool guarantees factorable keys; find one and check
    // the full answer shape.
    let mut factored_count = 0;
    let mut vendors = HashSet::new();
    for n in feed_moduli() {
        let answer = daemon.query(&n);
        assert!(answer.known);
        assert_eq!(answer.provenance.corpus_tag, w.corpus_tag);
        assert_eq!(answer.provenance.cache_tag, w.cache_tag);
        assert_eq!(answer.provenance.months_closed, 3);
        if answer.factored {
            factored_count += 1;
            let (p, q) = answer.factors.expect("factored answers carry factors");
            assert_eq!(&(&p * &q), &n);
            assert!(answer.factored_since.is_some());
            assert!(answer.first_seen.is_some());
            if let Some(v) = answer.vendor {
                vendors.insert(v);
            }
        }
    }
    assert!(factored_count > 0, "shared-pool keys must factor");
    // Subject labels on half the flawed hosts spread to the rest via
    // shared-prime extrapolation.
    assert!(vendors.contains(&wk_scan::VendorId::Juniper));

    // Unknown modulus: answered, not known, still provenance-stamped.
    let unknown = daemon.query(&Natural::from(35u64));
    assert!(!unknown.known && !unknown.factored);
    assert_eq!(unknown.provenance.corpus_tag, w.corpus_tag);

    // Provenance verifies against the on-disk stores.
    daemon.verify_provenance().unwrap();
    fs::remove_dir_all(&cfg.dir).unwrap();
}

#[test]
fn restart_is_clean_and_answers_are_stable() {
    let cfg = config("restart");
    let mut daemon = AuditDaemon::open(cfg.clone()).unwrap();
    let mut feed = SimulatedFeed::new(FeedConfig::test_small());
    for month in 0..3u32 {
        let m = MonthDate::new(2012, 1).plus(month);
        for event in feed.month_events(m) {
            match event {
                FeedEvent::Host(obs) => {
                    daemon.ingest(&obs).unwrap();
                }
                FeedEvent::MonthClose(month) => {
                    daemon.close_month(month).unwrap();
                }
                FeedEvent::Shutdown => {}
            }
        }
    }
    let before: Vec<_> = feed_moduli().iter().map(|n| daemon.query(n)).collect();
    let watermark = daemon.watermark().clone();
    drop(daemon);

    let daemon = AuditDaemon::open(cfg.clone()).unwrap();
    assert_eq!(daemon.recovery(), Recovery::Clean);
    assert_eq!(daemon.watermark(), &watermark);
    for (n, old) in feed_moduli().iter().zip(&before) {
        let new = daemon.query(n);
        assert_eq!(new.known, old.known);
        assert_eq!(new.factored, old.factored);
        assert_eq!(new.factors, old.factors);
        assert_eq!(new.vendor, old.vendor);
        assert_eq!(new.first_seen, old.first_seen);
        assert_eq!(new.factored_since, old.factored_since);
        assert_eq!(new.provenance, old.provenance);
    }
    daemon.verify_provenance().unwrap();
    fs::remove_dir_all(&cfg.dir).unwrap();
}

#[test]
fn zero_shard_capacity_is_a_typed_error() {
    let mut cfg = config("zero-capacity");
    cfg.shard_capacity = 0;
    let err = AuditDaemon::open(cfg.clone()).err().expect("zero capacity");
    assert!(
        matches!(
            err,
            ServiceError::Corpus(wk_batchgcd::CorpusError::ZeroCapacity { .. })
        ),
        "{err}"
    );
    fs::remove_dir_all(&cfg.dir).unwrap();
}

#[test]
fn legacy_recips_section_reopens_clean() {
    // Caches written by older builds also hold `recips.wkc` (section 4).
    // Nothing reads it: the daemon reopens such a cache as Clean.
    let cfg = config("legacy-recips");
    let mut daemon = AuditDaemon::open(cfg.clone()).unwrap();
    for (ip, n) in [(1, 33u64), (2, 39)] {
        let modulus = Natural::from(n);
        let obs = wk_service::HostObservation {
            ip,
            modulus,
            vendor: None,
        };
        daemon.ingest(&obs).unwrap();
    }
    daemon.close_month(MonthDate::new(2012, 1)).unwrap();
    let before = daemon.query(&Natural::from(33u64));
    let mut payload = daemon.watermark().cache_tag.to_le_bytes().to_vec();
    payload.extend_from_slice(&[0x5a; 40]);
    drop(daemon);
    wk_batchgcd::write_section(&cfg.dir.join("cache"), "recips.wkc", 4, 1, &payload).unwrap();

    let daemon = AuditDaemon::open(cfg.clone()).unwrap();
    assert_eq!(daemon.recovery(), Recovery::Clean);
    let after = daemon.query(&Natural::from(33u64));
    assert!(after.known);
    assert_eq!(after.factors, before.factors);
    assert_eq!(after.provenance, before.provenance);
    daemon.verify_provenance().unwrap();
    fs::remove_dir_all(&cfg.dir).unwrap();
}

#[test]
fn repeat_sightings_do_not_double_ingest() {
    let cfg = config("dedup");
    let mut daemon = AuditDaemon::open(cfg.clone()).unwrap();
    let n = Natural::from(33u64 * 39);
    let obs = wk_service::HostObservation {
        ip: 1,
        modulus: n.clone(),
        vendor: None,
    };
    let a = daemon.ingest(&obs).unwrap();
    let b = daemon.ingest(&obs).unwrap();
    assert_eq!(a, b);
    assert_eq!(daemon.observed_moduli(), 1);
    let report = daemon.close_month(MonthDate::new(2012, 1)).unwrap();
    assert_eq!(report.new_moduli, 1);
    // Re-delivering the same sighting next month adds nothing.
    daemon.ingest(&obs).unwrap();
    let report = daemon.close_month(MonthDate::new(2012, 2)).unwrap();
    assert_eq!(report.new_moduli, 0);
    assert_eq!(report.total_moduli, 1);
    fs::remove_dir_all(&cfg.dir).unwrap();
}

#[test]
fn feed_errors_are_typed_not_panics() {
    let cfg = config("typed-errors");
    let mut daemon = AuditDaemon::open(cfg.clone()).unwrap();
    // Zero modulus through the feed path: typed rejection.
    let err = daemon
        .ingest(&wk_service::HostObservation {
            ip: 1,
            modulus: Natural::from(0u64),
            vendor: None,
        })
        .unwrap_err();
    assert!(matches!(err, ServiceError::InvalidModulus));
    // Out-of-order month close: typed rejection.
    let err = daemon.close_month(MonthDate::new(2013, 7)).unwrap_err();
    assert!(matches!(err, ServiceError::MonthMismatch { .. }));
    fs::remove_dir_all(&cfg.dir).unwrap();
}

/// Close the same three months twice — once in-process, once delegated to
/// a real multi-process cluster — and require identical committed state:
/// same corpus/cache tags, same query answers, and a clean restart that
/// validates the cluster-built cache exactly like an in-process one.
#[test]
fn cluster_delegated_close_commits_identical_state() {
    let Some(node_bin) = wk_cluster::sibling_node_bin() else {
        // `cargo test` on the workspace builds wk-cluster-node; a filtered
        // single-package run may not have. Nothing to assert without it.
        eprintln!("skipping: wk-cluster-node not built");
        return;
    };

    let run = |tag: &str, cluster: Option<wk_service::ClusterClose>| {
        let mut cfg = config(tag);
        cfg.cluster = cluster;
        let mut daemon = AuditDaemon::open(cfg.clone()).unwrap();
        let mut feed = SimulatedFeed::new(FeedConfig::test_small());
        for month in 0..3u32 {
            let m = MonthDate::new(2012, 1).plus(month);
            for event in feed.month_events(m) {
                match event {
                    FeedEvent::Host(obs) => {
                        daemon.ingest(&obs).unwrap();
                    }
                    FeedEvent::MonthClose(month) => {
                        daemon.close_month(month).unwrap();
                    }
                    FeedEvent::Shutdown => {}
                }
            }
        }
        (cfg, daemon)
    };

    let mut fleet = wk_service::ClusterClose::new(node_bin, 2);
    fleet.stale_after = std::time::Duration::from_millis(1500);
    fleet.heartbeat_every = std::time::Duration::from_millis(200);
    fleet.poll_every = std::time::Duration::from_millis(40);
    let (cluster_cfg, cluster_daemon) = run("cluster-close", Some(fleet));
    let (local_cfg, local_daemon) = run("local-close", None);

    // Same committed corpus and cache, bit for bit (the tags hash content).
    let cw = cluster_daemon.watermark().clone();
    let lw = local_daemon.watermark().clone();
    assert_eq!(cw.corpus_tag, lw.corpus_tag);
    assert_eq!(cw.cache_tag, lw.cache_tag);
    assert_eq!(cw.corpus_moduli, lw.corpus_moduli);
    for n in feed_moduli() {
        let c = cluster_daemon.query(&n);
        let l = local_daemon.query(&n);
        assert_eq!(c.factored, l.factored);
        assert_eq!(c.factors, l.factors);
        assert_eq!(c.vendor, l.vendor);
    }
    drop(cluster_daemon);

    // The cluster-built cache validates on a clean restart with no
    // cluster configured — on-disk state carries no trace of *how* the
    // close was computed.
    let mut plain_cfg = cluster_cfg.clone();
    plain_cfg.cluster = None;
    let reopened = AuditDaemon::open(plain_cfg).unwrap();
    assert_eq!(reopened.recovery(), Recovery::Clean);
    assert_eq!(reopened.watermark(), &cw);

    fs::remove_dir_all(&cluster_cfg.dir).unwrap();
    fs::remove_dir_all(&local_cfg.dir).unwrap();
}
