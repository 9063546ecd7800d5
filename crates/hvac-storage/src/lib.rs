//! Node-local storage substrate for HVAC.
//!
//! Each Summit compute node carries a 1.6 TB NVMe SSD formatted with XFS
//! (Table I); HVAC aggregates those into its distributed cache tier. This
//! crate provides:
//!
//! * [`LocalStore`] — a capacity-accounted key→bytes store playing the role
//!   of one node's NVMe. It can keep data in memory (fast hermetic tests) or
//!   on a real directory (the functional examples). Inserting past capacity
//!   fails with [`hvac_types::HvacError::CapacityExhausted`]; deciding *what*
//!   to evict is the cache manager's job (`hvac-core`).
//! * [`DeviceModel`] — latency/bandwidth/IOPS envelopes of storage devices,
//!   consumed by the at-scale simulator.

pub mod device;
pub mod localstore;

pub use device::DeviceModel;
pub use localstore::{default_shard_count, Backing, LocalStore, TenantUsage};
