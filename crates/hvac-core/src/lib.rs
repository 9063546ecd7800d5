//! # HVAC — High-Velocity AI Cache
//!
//! A Rust implementation of the distributed read-only cache described in
//! *"HVAC: Removing I/O Bottleneck for Large-Scale Deep Learning
//! Applications"* (Khan et al., IEEE CLUSTER 2022).
//!
//! Deep-learning training re-reads an immutable dataset every epoch in a
//! shuffled order. At supercomputer scale that access pattern crushes the
//! shared parallel file system's metadata servers. HVAC interposes on the
//! POSIX `<open, read, close>` calls of the training processes and serves
//! them from an aggregate cache built over the *node-local* NVMe drives of
//! the job's own allocation:
//!
//! * every file has exactly one **home server**, computed by hashing its path
//!   — no metadata service, no lookup broadcast (paper §III-E);
//! * on the first read the home server's **data-mover thread** copies the
//!   file from the PFS into node-local storage, deduplicating concurrent
//!   requests (§III-D);
//! * every later read — from any node — is served from NVMe over RPC with
//!   bulk transfer, never touching the PFS again;
//! * the cache lives and dies with the job (§III-C) and is strictly
//!   **read-only** (§III: no write support means no locking, no consistency
//!   metadata).
//!
//! ## Crate layout
//!
//! * [`protocol`] — the client↔server wire protocol,
//! * [`eviction`] — MinIO (the default: no replacement), Random (the
//!   paper's §III-G policy), FIFO, LRU, LFU,
//! * [`cache`] — the per-node cache manager (capacity + eviction + metrics),
//! * [`server`] — the HVAC server instance: RPC handlers, shared FIFO queue,
//!   data movers,
//! * [`client`] — the HVAC client: fd table, dataset-dir interception,
//!   placement, fail-over,
//! * [`cluster`] — an in-process multi-node harness wiring clients, servers,
//!   a fabric and a PFS together (the functional stand-in for a Summit
//!   allocation), now with elastic membership (`add_node`/`remove_node`),
//! * [`view`] — the epoch-versioned [`ClusterView`](hvac_types::ClusterView)
//!   handle every client and server resolves ownership through,
//! * [`rebalance`] — the background migrator that moves the minority of
//!   cached files whose home changed across a view change,
//! * [`repair`] — the anti-entropy scrubber that re-clones under-replicated
//!   entries after a node crash-stops (hottest files first),
//! * [`metrics`] — counters that make cache behaviour observable,
//! * [`intercept`] — path classification shared with the `LD_PRELOAD` shim.
//!
//! ## Quick start
//!
//! ```
//! use hvac_core::cluster::{Cluster, ClusterOptions};
//! use hvac_pfs::{FileStore, MemStore};
//! use std::path::Path;
//! use std::sync::Arc;
//!
//! // A "GPFS" holding a tiny dataset.
//! let pfs = Arc::new(MemStore::new());
//! pfs.synthesize_dataset(Path::new("/gpfs/train"), 32, |_| 1024);
//!
//! // A 4-node allocation running 1 HVAC server instance per node.
//! let cluster = Cluster::new(
//!     pfs.clone(),
//!     ClusterOptions::new(4, 1).dataset_dir("/gpfs/train"),
//! )
//! .unwrap();
//!
//! // Rank 0 reads a file twice: first epoch misses (PFS copy), second hits.
//! let client = cluster.client(0);
//! let path = Path::new("/gpfs/train/sample_00000007.bin");
//! let first = client.read_file(path).unwrap();
//! let again = client.read_file(path).unwrap();
//! assert_eq!(first, again);
//! let (_, pfs_reads, _) = pfs.stats().snapshot();
//! assert_eq!(pfs_reads, 1); // the PFS was touched exactly once
//! ```

pub mod cache;
pub mod client;
pub mod cluster;
pub mod eviction;
pub mod intercept;
pub mod metrics;
pub mod protocol;
pub mod qos;
pub mod rebalance;
pub mod repair;
pub mod server;
pub mod view;

pub use cache::CacheManager;
pub use client::{HvacClient, HvacClientOptions};
pub use cluster::{Cluster, ClusterOptions};
pub use eviction::{make_policy, EvictionPolicy};
pub use metrics::{ClientMetrics, ServerMetrics};
pub use qos::{Admit, QosOptions, TenantScheduler};
pub use rebalance::RebalanceReport;
pub use repair::RepairReport;
pub use server::{HvacServer, HvacServerOptions};
pub use view::ViewHandle;
