//! The benchmark's workloads and the dataset each one synthesizes.
//!
//! Every workload runs the same allocation: 4 nodes × 1 server instance on
//! real TCP sockets, 2 closed-loop training ranks (one load thread and one
//! client each, no think time), and a "PFS" that is an in-memory store
//! throttled to 500 µs per operation and 512 MiB/s per transfer — a
//! congested shared GPFS with a metadata cost per open plus a transfer
//! cost. They differ in dataset shape, cache size and read path; see
//! `perfbench/workloads.json` for the rationale of each.

use bytes::Bytes;
use hvac_dl::DatasetSpec;
use hvac_hash::pathhash::mix64;
use hvac_pfs::MemStore;
use hvac_types::ByteSize;
use std::path::PathBuf;
use std::time::Duration;

/// Compute nodes in the allocation.
pub const NODES: u32 = 4;
/// HVAC server instances per node.
pub const INSTANCES_PER_NODE: u32 = 1;
/// Training ranks, each a closed-loop load thread with its own client.
pub const RANKS: u64 = 2;
/// PFS cost per metadata or data operation.
pub const PFS_OP_LATENCY: Duration = Duration::from_micros(500);
/// PFS per-operation transfer ceiling, MiB/s.
pub const PFS_MIB_PER_S: f64 = 512.0;
/// Directory the dataset lives under (and HVAC intercepts).
pub const DATASET_DIR: &str = "/gpfs/train";

/// How a rank reads one sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// `read_file`: stat + read + close RPCs, file-granular caching.
    WholeFile,
    /// `read_file_segmented` at this many bytes per segment (§III-E).
    Segmented(u64),
}

/// How set-up brings the caches to the measured phase's starting state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// `Cluster::prefetch_dataset`: every file staged on its home node.
    Prefetch,
    /// One full training epoch (epoch 0) read by every rank.
    Epoch,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Dataset family the sizes are drawn from.
    pub spec: fn() -> DatasetSpec,
    pub files: u64,
    pub cache_per_node: ByteSize,
    pub read: ReadPath,
    pub fill: Fill,
    /// Purge every cache before each measured epoch, so each one is an
    /// epoch 1.
    pub cold_epochs: bool,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "imagenet_warm",
        spec: DatasetSpec::imagenet21k,
        files: 2048,
        cache_per_node: ByteSize(1 << 30),
        read: ReadPath::WholeFile,
        fill: Fill::Prefetch,
        cold_epochs: false,
        setup_reps: 5,
    },
    Workload {
        name: "imagenet_cold",
        spec: DatasetSpec::imagenet21k,
        files: 2048,
        cache_per_node: ByteSize(1 << 30),
        read: ReadPath::WholeFile,
        // Same set-up as the warm workload, so connections, pools and
        // worker threads are live before timing; the first measured epoch
        // purges what the prefetch staged.
        fill: Fill::Prefetch,
        cold_epochs: true,
        setup_reps: 5,
    },
    Workload {
        name: "cosmo_oversub",
        spec: DatasetSpec::cosmouniverse,
        files: 256,
        cache_per_node: ByteSize(80 << 20),
        read: ReadPath::Segmented(512 << 10),
        fill: Fill::Epoch,
        cold_epochs: false,
        setup_reps: 3,
    },
];

impl Workload {
    /// Whether every measured read must be a cache hit: the whole dataset
    /// was prefetched into caches large enough to hold it, and nothing
    /// purges them.
    pub fn fully_cached(&self) -> bool {
        self.fill == Fill::Prefetch && !self.cold_epochs
    }
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The synthesized dataset: paths and the exact bytes of every sample.
/// The same `Bytes` handles back the PFS store, so holding them for the
/// correctness check costs no second copy.
pub struct Dataset {
    pub paths: Vec<PathBuf>,
    pub contents: Vec<Bytes>,
}

impl Dataset {
    /// Draw sizes and contents of `workload`'s dataset from `seed`.
    pub fn synthesize(workload: &Workload, seed: u64) -> Self {
        let spec = DatasetSpec {
            train_samples: workload.files,
            seed: mix64(seed ^ 0x7365_6564),
            ..(workload.spec)()
        };
        let content_base = mix64(seed);
        let mut paths = Vec::with_capacity(workload.files as usize);
        let mut contents = Vec::with_capacity(workload.files as usize);
        for i in 0..workload.files {
            paths.push(PathBuf::from(spec.path_of(DATASET_DIR, i)));
            let size = spec.size_of(i).bytes() as usize;
            contents.push(MemStore::sample_content(content_base.wrapping_add(i), size));
        }
        Self { paths, contents }
    }

    /// An unthrottled store holding the dataset.
    pub fn store(&self) -> MemStore {
        let store = MemStore::new();
        for (path, data) in self.paths.iter().zip(&self.contents) {
            store.put(path.clone(), data.clone());
        }
        store
    }

    pub fn total_bytes(&self) -> u64 {
        self.contents.iter().map(|c| c.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = include_str!("../workloads.json");

    #[test]
    fn every_workload_is_documented_with_its_parameters() {
        for w in &WORKLOADS {
            assert!(
                DOC.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
            assert!(
                DOC.contains(&format!("\"files\": {},", w.files)),
                "{}",
                w.name
            );
            let mib = w.cache_per_node.bytes() >> 20;
            assert!(
                DOC.contains(&format!("\"cache_per_node_mib\": {mib},")),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn synthesis_is_a_function_of_the_seed() {
        let small = Workload {
            files: 16,
            ..WORKLOADS[0]
        };
        let a = Dataset::synthesize(&small, 7);
        let b = Dataset::synthesize(&small, 7);
        let c = Dataset::synthesize(&small, 8);
        assert_eq!(a.paths, b.paths);
        assert_eq!(a.contents, b.contents);
        assert_eq!(a.paths, c.paths, "paths do not depend on the seed");
        assert_ne!(
            a.contents.iter().map(|x| x.len()).collect::<Vec<_>>(),
            c.contents.iter().map(|x| x.len()).collect::<Vec<_>>(),
            "sizes do"
        );
        assert_eq!(a.store().len(), 16);
    }
}
