//! Canonical lock-class labels for the HVAC workspace.
//!
//! The hierarchy, outermost first, is:
//!
//! ```text
//! repair → rebalancer → view → fabric → sched → server → cache → tenant → store → device → pool
//! ```
//!
//! A thread may acquire classes left-to-right along this chain (skipping
//! levels is fine) but never right-to-left. Leaf classes — `CLIENT_FDS`,
//! `CLIENT_HEALTH`, `FABRIC_THREADS`, `CACHE_SIZE_MEMO`, `HASH_RINGS`,
//! `NET_SOCKET_POOL`, `NET_SOCKET_CONN`, `PFS_THROTTLE_SLOTS` —
//! are never held while acquiring any other class. The
//! debug-build order checker in this crate turns any violation into an
//! immediate panic naming the pair, and the static verifier in
//! `tools/tidy` (`cargo run -p tidy -- lockgraph`) checks the same
//! [`HIERARCHY`] table against the source tree without running anything.

/// Repair scrubber worker handle (`hvac-core::repair`). Outermost of all:
/// held only to spawn/join the anti-entropy scrubber, never while that
/// worker's own locks are in scope on the same thread. Sits outside
/// `REBALANCER` because a repair pass may need to join a still-running
/// rebalance pass first.
pub const REPAIR: &str = "core.repair";

/// Rebalancer worker handle (`hvac-core::rebalance`). Held only to
/// spawn/join the migration worker, never while that worker's own locks
/// are in scope on the same thread.
pub const REBALANCER: &str = "core.rebalancer";

/// Current [`ClusterView`] slot (`hvac-core::view`). Acquired before any
/// fabric/server/store lock; holders snapshot the `Arc` and drop the guard
/// immediately — the view guard is never held across an RPC.
pub const VIEW: &str = "core.view";

/// RPC fabric endpoint registry (`hvac-net::fabric`). Outermost of the
/// original chain; nests inside `VIEW`/`REBALANCER` only.
pub const FABRIC_ENDPOINTS: &str = "net.fabric.endpoints";

/// Connection-thread list of a socket server endpoint
/// (`hvac-net::socket`); held only briefly at spawn, reap or join.
pub const FABRIC_THREADS: &str = "net.fabric.threads";

/// Fault-injection plan table (`hvac-net::fault`). Fabric level: consulted
/// at call time with no other lock held.
pub const FABRIC_FAULTS: &str = "net.fabric.faults";

/// Client per-replica health cache (`hvac-core::client`). Leaf: the guard
/// is always dropped before any RPC is issued.
pub const CLIENT_HEALTH: &str = "core.client.health";

/// Per-tenant weighted-fair scheduler state (`hvac-core::qos`): the deficit
/// round-robin queues and inflight counters of one server's admission gate.
/// Sits between the fabric and the server level — an RPC handler thread
/// takes it on the way into the read path, before any inflight stripe; the guard is
/// always dropped before blocking on a grant channel.
pub const SERVER_SCHED: &str = "core.server.sched";

/// One stripe of the data-mover in-flight table (`hvac-core::server`).
/// All stripes share this class: stripes of one table are interchangeable
/// for ordering purposes, and a thread never holds two stripes at once.
pub const SERVER_INFLIGHT_STRIPE: &str = "core.server.inflight_stripe";

/// Eviction policy state (`hvac-core::cache`). Nests inside server locks,
/// outside store locks.
pub const CACHE_POLICY: &str = "core.cache.policy";

/// File-size memo of a node's cache manager (`hvac-core::cache`): sizes
/// learned from the PFS, so a repeat `Stat` skips `open_meta`. Leaf: read
/// or written in one expression, with no other HVAC lock held.
pub const CACHE_SIZE_MEMO: &str = "core.cache.size_memo";

/// Per-tenant byte accounting and quota table of the node-local store
/// (`hvac-storage::localstore`). Acquired on the way into an insert/remove,
/// strictly *before* the affected [`STORE_SHARD`] guard (cache → tenant →
/// store); never taken while a shard guard is held.
pub const STORE_TENANT: &str = "storage.localstore.tenant";

/// One shard of the node-local store's striped entry map
/// (`hvac-storage::localstore`). Shard selection is by path hash, so a
/// thread holds at most one shard at a time (`purge` walks shards strictly
/// one-by-one). Innermost of the main chain except the device queue below.
pub const STORE_SHARD: &str = "storage.localstore.shard";

/// Per-shard simulated-device service queue (`hvac-storage::localstore`):
/// serializes read service times within a shard when a `DeviceModel` is
/// armed. Strictly innermost — nothing is ever acquired under it.
pub const STORE_DEVICE_QUEUE: &str = "storage.localstore.device_queue";

/// Simulated PFS file map (`hvac-pfs::memstore`); treated like a store.
pub const PFS_FILES: &str = "pfs.memstore.files";

/// Busy operation slots of a capped throttled PFS (`hvac-pfs::throttle`).
/// Leaf: an operation takes its slot token back in one expression, after
/// the inner store has returned.
pub const PFS_THROTTLE_SLOTS: &str = "pfs.throttle.slots";

/// Client fd table (`hvac-core::client`). Leaf: the guard is always
/// dropped before any RPC is issued.
pub const CLIENT_FDS: &str = "core.client.fds";

/// Memoized consistent-hash rings (`hvac-hash::placement`). Leaf: held
/// only while building/cloning a ring, with no other HVAC lock in scope.
pub const HASH_RINGS: &str = "hash.placement.rings";

/// Socket-transport per-destination pool of idle client connections
/// (`hvac-net::socket`). Leaf: a connection is popped or pushed in one
/// expression, never held while a connection is dialled or a frame moves.
pub const NET_SOCKET_POOL: &str = "net.socket.pool";

/// Socket-transport open-connection registry of one served endpoint
/// (`hvac-net::socket`). Leaf: insert/remove/take only, never held across
/// a read, write, or spawn.
pub const NET_SOCKET_CONN: &str = "net.socket.conn";

/// One size class of the reference-counted buffer pool
/// (`hvac-net::pool`): guards that class's slab free list for the push or
/// pop only. Innermost of the whole hierarchy — the pool is consulted from
/// deep in the read path (client-side reassembly, frame decode on a socket
/// reader) and never acquires anything itself. All size classes share this label: a
/// thread touches exactly one free list per acquire/release.
pub const NET_POOL: &str = "net.pool.slab";

/// The lock hierarchy as data: levels ordered outermost-first, each level
/// listing the classes that live at it. A thread holding a class at level
/// `i` may acquire a class at level `j` only if `i < j` (strictly inward;
/// classes at the same level never nest — stripes and shards are
/// interchangeable, so same-class re-entry is already a runtime error).
///
/// This table is the single source of truth consumed by both enforcement
/// sides: the debug-build runtime checker validates observed acquisitions
/// against it, and `tools/tidy`'s lockgraph pass validates the static
/// acquisition edges extracted from source. Extending the hierarchy means
/// adding the new `pub const` above *and* placing it in exactly one level
/// here (or in [`LEAVES`]); the `hierarchy_covers_every_class` test and
/// the tidy pass both fail on a class left unplaced.
pub const HIERARCHY: &[(&str, &[&str])] = &[
    ("repair", &[REPAIR]),
    ("rebalancer", &[REBALANCER]),
    ("view", &[VIEW]),
    ("fabric", &[FABRIC_ENDPOINTS, FABRIC_FAULTS]),
    ("sched", &[SERVER_SCHED]),
    ("server", &[SERVER_INFLIGHT_STRIPE]),
    ("cache", &[CACHE_POLICY]),
    ("tenant", &[STORE_TENANT]),
    ("store", &[STORE_SHARD, PFS_FILES]),
    ("device", &[STORE_DEVICE_QUEUE]),
    ("pool", &[NET_POOL]),
];

/// Classes that never participate in nesting at all: acquired and released
/// with no other HVAC lock held on the thread, in either direction. Any
/// static or observed edge touching a leaf is a hierarchy violation.
pub const LEAVES: &[&str] = &[
    CLIENT_FDS,
    CLIENT_HEALTH,
    FABRIC_THREADS,
    CACHE_SIZE_MEMO,
    HASH_RINGS,
    NET_SOCKET_POOL,
    NET_SOCKET_CONN,
    PFS_THROTTLE_SLOTS,
];

/// Every canonical class label, in declaration order: the leveled chain
/// from [`HIERARCHY`] followed by [`LEAVES`].
pub fn all() -> Vec<&'static str> {
    HIERARCHY
        .iter()
        .flat_map(|(_, classes)| classes.iter().copied())
        .chain(LEAVES.iter().copied())
        .collect()
}

/// Level index of `class` in [`HIERARCHY`] (0 = outermost), or `None` for
/// leaves and unknown labels.
pub fn level_of(class: &str) -> Option<usize> {
    HIERARCHY
        .iter()
        .position(|(_, classes)| classes.contains(&class))
}

/// Whether `outer` may be held while acquiring `inner` under the declared
/// hierarchy: both must be leveled (leaves never nest) and the levels must
/// be strictly increasing.
pub fn edge_allowed(outer: &str, inner: &str) -> bool {
    match (level_of(outer), level_of(inner)) {
        (Some(o), Some(i)) => o < i,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The full list of `pub const` labels above, kept in one place so the
    /// coverage test fails loudly when a new const is added without a
    /// hierarchy placement.
    const DECLARED: &[&str] = &[
        REPAIR,
        REBALANCER,
        VIEW,
        FABRIC_ENDPOINTS,
        FABRIC_THREADS,
        FABRIC_FAULTS,
        CLIENT_HEALTH,
        SERVER_SCHED,
        SERVER_INFLIGHT_STRIPE,
        CACHE_POLICY,
        CACHE_SIZE_MEMO,
        STORE_TENANT,
        STORE_SHARD,
        STORE_DEVICE_QUEUE,
        PFS_FILES,
        PFS_THROTTLE_SLOTS,
        CLIENT_FDS,
        HASH_RINGS,
        NET_SOCKET_POOL,
        NET_SOCKET_CONN,
        NET_POOL,
    ];

    #[test]
    fn labels_unique_and_non_empty() {
        let mut seen = BTreeSet::new();
        for label in DECLARED {
            assert!(!label.is_empty(), "empty class label");
            assert!(
                !label.starts_with("test.") && !label.starts_with("example."),
                "canonical class {label} uses a reserved prefix"
            );
            assert!(seen.insert(*label), "duplicate class label {label}");
        }
    }

    #[test]
    fn hierarchy_covers_every_class() {
        let placed: BTreeSet<&str> = all().into_iter().collect();
        for label in DECLARED {
            assert!(
                placed.contains(label),
                "class {label} is neither leveled in HIERARCHY nor listed in LEAVES"
            );
            let leveled = level_of(label).is_some();
            let leaf = LEAVES.contains(label);
            assert!(
                leveled ^ leaf,
                "class {label} must be in exactly one of HIERARCHY and LEAVES"
            );
        }
        assert_eq!(
            placed.len(),
            DECLARED.len(),
            "HIERARCHY/LEAVES mention a label not declared as a pub const"
        );
    }

    #[test]
    fn edge_rule_is_strictly_inward() {
        assert!(edge_allowed(REPAIR, REBALANCER));
        assert!(edge_allowed(REPAIR, STORE_SHARD));
        assert!(!edge_allowed(REBALANCER, REPAIR));
        assert!(edge_allowed(VIEW, STORE_SHARD));
        assert!(edge_allowed(SERVER_INFLIGHT_STRIPE, CACHE_POLICY));
        assert!(edge_allowed(CACHE_POLICY, STORE_SHARD));
        // The admission gate is taken before any read-path lock; the tenant
        // quota table nests between the policy and the shards.
        assert!(edge_allowed(SERVER_SCHED, SERVER_INFLIGHT_STRIPE));
        assert!(edge_allowed(SERVER_SCHED, STORE_SHARD));
        assert!(!edge_allowed(SERVER_INFLIGHT_STRIPE, SERVER_SCHED));
        assert!(edge_allowed(CACHE_POLICY, STORE_TENANT));
        assert!(edge_allowed(STORE_TENANT, STORE_SHARD));
        assert!(!edge_allowed(STORE_SHARD, STORE_TENANT));
        assert!(!edge_allowed(STORE_SHARD, CACHE_POLICY));
        assert!(!edge_allowed(STORE_SHARD, STORE_SHARD));
        // The buffer pool is innermost: reachable from under any leveled
        // class, never the other way around.
        assert!(edge_allowed(STORE_SHARD, NET_POOL));
        assert!(edge_allowed(STORE_DEVICE_QUEUE, NET_POOL));
        assert!(!edge_allowed(NET_POOL, STORE_SHARD));
        // Same level never nests.
        assert!(!edge_allowed(STORE_SHARD, PFS_FILES));
        // Leaves never nest in either direction.
        assert!(!edge_allowed(CLIENT_FDS, STORE_SHARD));
        assert!(!edge_allowed(VIEW, CLIENT_FDS));
    }
}
