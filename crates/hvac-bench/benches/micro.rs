//! Micro-benchmarks of HVAC's hot paths: placement (runs on every `open`),
//! the wire codec, the RPC round-trip, cache insert/read, eviction churn,
//! and the sampler permutation (every sample access in the simulator).

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hvac_core::cache::CacheManager;
use hvac_core::eviction::make_policy;
use hvac_core::protocol::{Request, Response};
use hvac_core::server::{HvacServer, HvacServerOptions};
use hvac_hash::pathhash::{hash_bytes, hash_path};
use hvac_hash::placement::{
    JumpPlacement, ModuloPlacement, Placement, RendezvousPlacement, RingPlacement, Straw2Placement,
};
use hvac_net::fabric::Fabric;
use hvac_pfs::MemStore;
use hvac_storage::LocalStore;
use hvac_types::{ByteSize, EvictionPolicyKind, FileId};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn bench_path_hashing(c: &mut Criterion) {
    let path = "/gpfs/alpine/proj/imagenet21k/train/n01440764/sample_00421337.JPEG";
    c.bench_function("pathhash/typical_dataset_path", |b| {
        b.iter(|| hash_path(black_box(path)))
    });
    let long = "x".repeat(4096);
    c.bench_function("pathhash/4k_bytes", |b| {
        b.iter(|| hash_bytes(black_box(long.as_bytes())))
    });
}

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement/home_of_2048_servers");
    let n_servers = 2048usize;
    let algorithms: Vec<(&str, Box<dyn Placement>)> = vec![
        ("modulo", Box::new(ModuloPlacement)),
        ("jump", Box::new(JumpPlacement)),
        ("rendezvous", Box::new(RendezvousPlacement)),
        ("ring", Box::new(RingPlacement::default())),
        ("straw2", Box::new(Straw2Placement::new())),
    ];
    for (name, p) in &algorithms {
        // Warm the ring cache outside the measurement.
        p.home(FileId(1), n_servers);
        group.bench_function(*name, |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(0x9e37_79b9);
                black_box(p.home(FileId(i), n_servers))
            })
        });
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let req = Request::Read {
        path: PathBuf::from("/gpfs/train/sample_00001234.bin"),
        offset: 4096,
        len: 163_840,
    };
    c.bench_function("protocol/encode_read_request", |b| {
        b.iter(|| black_box(&req).encode().unwrap())
    });
    let encoded = req.encode().unwrap();
    c.bench_function("protocol/decode_read_request", |b| {
        b.iter(|| Request::decode(black_box(encoded.clone())).unwrap())
    });
    let resp = Response::Data {
        total_size: 163_840,
    };
    c.bench_function("protocol/response_round_trip", |b| {
        b.iter(|| Response::decode(black_box(&resp).encode()).unwrap())
    });
}

fn bench_rpc_round_trip(c: &mut Criterion) {
    let fabric = Arc::new(Fabric::new());
    let pfs = Arc::new(MemStore::new());
    pfs.put("/gpfs/train/f.bin", Bytes::from(vec![7u8; 163_840]));
    let cache = Arc::new(CacheManager::new(
        LocalStore::in_memory(ByteSize::mib(64)),
        make_policy(EvictionPolicyKind::Random, 1),
    ));
    let server = HvacServer::new(cache, pfs, HvacServerOptions::default(), "bench").unwrap();
    let _ep = server.serve(&fabric, "bench/srv0").unwrap();
    // Warm the cache so the bench measures the hit path.
    let warm = Request::Read {
        path: PathBuf::from("/gpfs/train/f.bin"),
        offset: 0,
        len: 163_840,
    }
    .encode()
    .unwrap();
    fabric.call("bench/srv0", warm.clone()).unwrap();

    c.bench_function("rpc/cached_163KB_read_round_trip", |b| {
        b.iter(|| fabric.call("bench/srv0", warm.clone()).unwrap())
    });
}

fn bench_cache_ops(c: &mut Criterion) {
    let mgr = CacheManager::new(
        LocalStore::in_memory(ByteSize::gib(1)),
        make_policy(EvictionPolicyKind::Random, 1),
    );
    let data = Bytes::from(vec![1u8; 163_840]);
    for i in 0..1024u64 {
        mgr.insert(Path::new(&format!("/warm/{i}")), data.clone())
            .unwrap();
    }
    c.bench_function("cache/read_163KB_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 1024;
            black_box(mgr.read_all(Path::new(&format!("/warm/{i}"))).unwrap())
        })
    });
}

fn bench_eviction_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("eviction/churn_insert_with_full_cache");
    for kind in [
        EvictionPolicyKind::Random,
        EvictionPolicyKind::Fifo,
        EvictionPolicyKind::Lru,
        EvictionPolicyKind::Lfu,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &kind,
            |b, &kind| {
                let mgr = CacheManager::new(
                    LocalStore::in_memory(ByteSize(1_000 * 1_000)),
                    make_policy(kind, 7),
                );
                let data = Bytes::from(vec![1u8; 1_000]);
                let mut i = 0u64;
                // Pre-fill to capacity so every insert evicts.
                for j in 0..1_000u64 {
                    mgr.insert(Path::new(&format!("/f/{j}")), data.clone())
                        .unwrap();
                }
                b.iter(|| {
                    i += 1;
                    mgr.insert(Path::new(&format!("/f/{}", 1_000 + i)), data.clone())
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_sampler(c: &mut Criterion) {
    use hvac_dl::Permutation;
    let perm = Permutation::new(11_797_632, 42);
    c.bench_function("sampler/permutation_apply_imagenet21k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 11_797_632;
            black_box(perm.apply(i))
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(30);
    targets = bench_path_hashing,
    bench_placement,
    bench_codec,
    bench_rpc_round_trip,
    bench_cache_ops,
    bench_eviction_churn,
    bench_sampler
);
criterion_main!(micro);
