//! Storage-device performance envelopes.
//!
//! The simulator charges I/O against these models: a fixed per-operation
//! latency, a sequential bandwidth, and an IOPS ceiling — enough to
//! reproduce the two regimes the paper's MDTest motivates (Figs. 3 and 4:
//! op-bound small files vs. bandwidth-bound large files).

use hvac_types::{Bandwidth, ByteSize, NvmeConfig, SimTime};
use serde::{Deserialize, Serialize};

/// Performance model of one storage device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceModel {
    /// Fixed software+device latency per operation.
    pub op_latency: SimTime,
    /// Sequential read bandwidth.
    pub read_bandwidth: Bandwidth,
    /// Random-read operations-per-second ceiling.
    pub max_iops: u64,
}

impl DeviceModel {
    /// Summit's node-local 1.6 TB NVMe with XFS (Table I / §II-C): ~5.5 GB/s
    /// read as implied by the 22.5 TB/s aggregate at 4,096 nodes.
    pub fn summit_nvme() -> Self {
        Self::from_nvme_config(&NvmeConfig::default())
    }

    /// Build from a [`NvmeConfig`].
    pub fn from_nvme_config(cfg: &NvmeConfig) -> Self {
        Self {
            op_latency: SimTime::from_nanos(cfg.op_latency_ns),
            read_bandwidth: cfg.read_bandwidth,
            max_iops: cfg.max_iops,
        }
    }

    /// A SATA-class SSD (ablation comparisons).
    pub fn sata_ssd() -> Self {
        Self {
            op_latency: SimTime::from_micros(80),
            read_bandwidth: Bandwidth::mib_per_sec(550.0),
            max_iops: 90_000,
        }
    }

    /// Service time of one read of `size` bytes: latency + transfer, floored
    /// by the IOPS ceiling (`1/max_iops` per op).
    pub fn read_time(&self, size: ByteSize) -> SimTime {
        let transfer = SimTime::from_secs_f64(self.read_bandwidth.transfer_secs(size));
        let iops_floor = self.iops_floor();
        let t = self.op_latency.saturating_add(transfer);
        if t < iops_floor {
            iops_floor
        } else {
            t
        }
    }

    /// Minimum per-op spacing implied by the IOPS ceiling.
    fn iops_floor(&self) -> SimTime {
        match 1_000_000_000u64.checked_div(self.max_iops) {
            None => SimTime::ZERO,
            Some(ns) => SimTime::from_nanos(ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_nvme_matches_paper_aggregate() {
        let d = DeviceModel::summit_nvme();
        // 4096 nodes * per-node read bandwidth ≈ 22.5 TB/s (§II-C).
        let agg = d.read_bandwidth.as_bytes_per_sec() * 4096.0;
        assert!(agg > 21.0e12 && agg < 24.0e12, "aggregate {agg}");
    }

    #[test]
    fn read_time_small_is_latency_dominated() {
        let d = DeviceModel::summit_nvme();
        let t_small = d.read_time(ByteSize::kib(32));
        // 32 KiB at 5.5 GB/s is ~6 us; latency is 25 us, so total < 40 us.
        assert!(t_small.as_nanos() > 25_000);
        assert!(t_small.as_nanos() < 40_000);
    }

    #[test]
    fn read_time_large_is_bandwidth_dominated() {
        let d = DeviceModel::summit_nvme();
        let t = d.read_time(ByteSize::mib(8)).as_secs_f64();
        let pure_bw = d.read_bandwidth.transfer_secs(ByteSize::mib(8));
        assert!(t >= pure_bw);
        assert!(t < pure_bw * 1.1);
    }

    #[test]
    fn iops_ceiling_floors_tiny_reads() {
        let mut d = DeviceModel::summit_nvme();
        d.op_latency = SimTime::ZERO;
        d.max_iops = 1000; // 1 ms spacing
        assert_eq!(d.read_time(ByteSize(1)).as_nanos(), 1_000_000);
        d.max_iops = 0; // unlimited
        assert!(d.read_time(ByteSize(1)).as_nanos() < 1000);
    }

    #[test]
    fn device_ordering_nvme_faster_than_ssd_faster_than_hdd() {
        let sz = ByteSize::mib(1);
        let nvme = DeviceModel::summit_nvme().read_time(sz);
        let ssd = DeviceModel::sata_ssd().read_time(sz);
        // A 7200 rpm hard disk.
        let hdd = DeviceModel {
            op_latency: SimTime::from_millis(8),
            read_bandwidth: Bandwidth::mib_per_sec(180.0),
            max_iops: 120,
        }
        .read_time(sz);
        assert!(nvme < ssd);
        assert!(ssd < hdd);
    }
}
