//! # wk-batchgcd — batch GCD over RSA moduli, classic and distributed
//!
//! The computational core of the IMC 2016 reproduction. Given a set of RSA
//! moduli, find every modulus sharing a prime factor with another — in
//! quasilinear time via Bernstein-style product/remainder trees.
//!
//! * [`pool`] — the work-stealing executor every algorithm runs on: one
//!   [`pool::WorkerPool`] per run, per-worker deques with LIFO owner pops
//!   and FIFO stealing, so uneven bigint sizes no longer serialize on the
//!   slowest statically-assigned chunk. [`pool::ExecDomain`]s tag submitted
//!   work, and [`pool::PhaseExec`] snapshots per-phase task counts, steal
//!   counts, and per-worker busy time (surfaced through
//!   [`classic::BatchStats`] and [`distributed::ClusterReport`]);
//! * [`tree`] — product and remainder trees with per-level parallelism on
//!   the pool;
//! * [`classic`] — the single-tree algorithm of \[21\];
//! * [`distributed`] — the paper's k-subset variant (Figure 2): more total
//!   work, no single-huge-integer bottleneck, cluster-parallelizable, with
//!   per-node accounting matching what the paper reports. Simulated node
//!   parallelism and within-node threading draw from one shared pool of
//!   [`ClusterConfig::threads`] slots;
//! * [`naive`] — the `O(n^2)` pairwise baseline the feasibility argument is
//!   made against;
//! * [`mod@resolve`] — turning raw divisors into factorizations, including the
//!   full-gcd clique case (IBM nine-prime) via a pairwise sweep;
//! * [`corpus`] — persistent corpus sharding: the input moduli themselves
//!   live on disk as fixed-capacity checksummed shards (format in DESIGN.md
//!   §7), and [`corpus::sharded_batch_gcd`] runs the classic algorithm with
//!   workers pulling shards on demand, holding one shard per worker
//!   resident instead of the whole corpus;
//! * [`durable`] — how every artifact reaches disk (replace and first-wins
//!   publish, the temp sweep) and the one framed header (DESIGN.md §8.2);
//! * [`incremental`] — the delta-update path for new scan months: a
//!   persisted [`incremental::TreeCache`] (per-shard roots and previous
//!   hits; format in DESIGN.md §8) lets
//!   [`incremental::incremental_batch_gcd`] resolve `M` new moduli against
//!   `N` cached ones byte-identically to a from-scratch run over the union,
//!   paying only delta-proportional multiplies plus a few small reductions
//!   per cached shard root, and per-modulus work only in the shards that
//!   share a prime with the delta.
//!
//! All the algorithms produce identical raw divisors and statuses for the
//! same input — a cross-checked invariant in the test suites, prime-power
//! moduli included: every path folds divisors by one rule,
//! `gcd(N, prev·g)`, and the tree paths share one leaf phase.
//!
//! ```
//! use wk_bigint::Natural;
//! use wk_batchgcd::batch_gcd;
//!
//! // 33 = 3*11 and 39 = 3*13 share the prime 3; 323 = 17*19 is clean.
//! let moduli: Vec<Natural> = [33u64, 39, 323].map(Natural::from).to_vec();
//! let result = batch_gcd(&moduli, 1);
//! assert_eq!(result.vulnerable_count(), 2);
//! let (p, q) = result.statuses[0].factors().unwrap();
//! assert_eq!((p, q), (&Natural::from(3u64), &Natural::from(11u64)));
//! // Executor accounting rides along with the result.
//! assert!(result.stats.total_exec().tasks() > 0);
//! ```

#![deny(missing_docs)]

pub mod classic;
pub mod corpus;
pub mod distributed;
pub mod durable;
pub mod incremental;
pub mod naive;
pub mod pool;
pub mod resolve;
pub mod tree;

pub use classic::{batch_gcd, BatchGcdResult, BatchStats};
pub use corpus::{
    assemble_from_shard_roots, crc32, decode_natural, encode_natural, scratch_dir,
    shard_subtree_root, sharded_batch_gcd, CorpusError, ShardAssembly, ShardMeta, ShardReader,
    ShardStore,
};
pub use distributed::{
    distributed_batch_gcd, distributed_batch_gcd_sharded, ClusterConfig, ClusterReport,
    DistributedResult, NodeReport,
};
pub use durable::{fsync_dir, take_u64};
pub use incremental::{
    incremental_batch_gcd, read_section, take_natural, write_section, DeltaMetrics,
    IncrementalError, TreeCache, CACHE_FORMAT_VERSION, CACHE_FRAME, CACHE_HEADER_LEN, CACHE_MAGIC,
};
pub use naive::{naive_pairwise_gcd, NaiveResult};
pub use pool::{Exec, ExecDomain, PhaseExec, WorkerPool};
pub use resolve::{resolve, resolve_with_hits, KeyStatus};
pub use tree::{Descent, DescentScratch, ProductTree, TreeError};
