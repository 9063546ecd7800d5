//! Requests whose offset and length come straight off the wire must never
//! take a server down. A `Read` or `ReadSegment` asking for `u64::MAX`
//! bytes past offset 5 is a short read of the file's tail, not an
//! overflow: the RPC workers and the data mover keep serving, later reads
//! never degrade to the PFS, and the cluster shuts down cleanly.

use hvac_core::cluster::{Cluster, ClusterOptions};
use hvac_core::protocol::{Request, Response};
use hvac_pfs::MemStore;
use hvac_types::TransportKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const N_FILES: u64 = 8;
const FILE_SIZE: usize = 1000;

fn sample(i: u64) -> PathBuf {
    PathBuf::from(format!("/gpfs/train/sample_{i:08}.bin"))
}

/// Send one raw request to `path`'s home and return the served bytes.
fn hostile(cluster: &Cluster, path: &Path, req: Request) -> Vec<u8> {
    let home = &cluster.client(0).replica_addrs(path)[0];
    let reply = cluster
        .fabric()
        .call_with_deadline(home, req.encode().unwrap(), Duration::from_secs(5))
        .unwrap_or_else(|e| panic!("{}: server stopped answering: {e}", path.display()));
    match Response::decode(reply.header).unwrap() {
        Response::Data { .. } => reply.bulk.unwrap_or_default().to_vec(),
        other => panic!("unexpected reply {other:?}"),
    }
}

#[test]
fn overflowing_read_ranges_are_short_reads_and_the_server_keeps_serving() {
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), N_FILES, |_| FILE_SIZE);
    let mut cluster = Cluster::new(
        pfs,
        ClusterOptions::new(2, 1)
            .dataset_dir("/gpfs/train")
            .transport(TransportKind::Tcp),
    )
    .unwrap();
    let tail = |i: u64| MemStore::sample_content(i, FILE_SIZE).slice(5..).to_vec();

    // Four hostile reads of a resident file: more than the RPC workers of
    // its home server, so one panic each would leave none.
    let resident = sample(0);
    cluster.client(0).read_file(&resident).unwrap();
    for _ in 0..4 {
        let req = Request::Read {
            path: resident.clone(),
            offset: 5,
            len: u64::MAX,
        };
        assert_eq!(hostile(&cluster, &resident, req), tail(0));
    }
    // A hostile segment read of an uncached file runs in the data mover.
    let missing = sample(1);
    let req = Request::ReadSegment {
        path: missing.clone(),
        offset: 5,
        len: u64::MAX,
    };
    assert_eq!(hostile(&cluster, &missing, req), tail(1));

    // Every worker and mover still serves: no read degrades to the PFS.
    for rank in 0..cluster.n_clients() {
        let client = cluster.client(rank);
        for i in 0..N_FILES {
            let data = client.read_file(&sample(i)).unwrap();
            assert_eq!(data, MemStore::sample_content(i, FILE_SIZE), "file {i}");
        }
        assert_eq!(client.metrics().full_snapshot().degraded_reads, 0);
    }
    cluster.shutdown();
}
