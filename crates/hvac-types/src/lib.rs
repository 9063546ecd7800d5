//! Common vocabulary types shared by every HVAC crate.
//!
//! HVAC ("High-Velocity AI Cache", Khan et al., IEEE CLUSTER 2022) is a
//! transparent, distributed, read-only cache that aggregates node-local
//! storage across a compute-job allocation to remove the parallel-file-system
//! I/O bottleneck of large-scale deep-learning training.
//!
//! This crate holds the pieces everybody agrees on:
//!
//! * [`ids`] — strongly typed identifiers ([`NodeId`], [`ServerId`],
//!   [`FileId`], ...),
//! * [`units`] — byte-count and bandwidth arithmetic with human-readable
//!   formatting,
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`]) used by the
//!   discrete-event simulator,
//! * [`error`] — the [`HvacError`] error type used across crate boundaries,
//! * [`config`] — configuration structs for clusters, the GPFS model, local
//!   devices and HVAC itself,
//! * [`view`] — the epoch-versioned [`ClusterView`] membership snapshot that
//!   every ownership decision resolves through,
//! * [`stats`] — the [`counters!`] declaration every counter group uses and
//!   the one latency [`Histogram`],
//! * [`summit`] — the calibration constants of the Summit supercomputer from
//!   Table I and §IV of the paper.

pub mod config;
pub mod error;
pub mod ids;
pub mod stats;
pub mod summit;
pub mod time;
pub mod units;
pub mod view;

pub use config::{
    ClusterConfig, EvictionPolicyKind, GpfsConfig, HvacConfig, JobShare, JobWeights, NetworkConfig,
    NvmeConfig, PlacementKind, RetryPolicy, TransportKind,
};
pub use error::{HvacError, Result};
pub use ids::{ClientId, FileId, JobId, NodeId, Rank, ServerId};
pub use stats::Histogram;
pub use time::SimTime;
pub use units::{Bandwidth, ByteSize, GIB, KIB, MIB, TIB};
pub use view::ClusterView;
