//! `LD_PRELOAD` interposition for HVAC (paper §III-F).
//!
//! The paper's portability story rests on intercepting the POSIX
//! `<open, read, close>` calls of unmodified DL applications via
//! `LD_PRELOAD`. This crate builds a `cdylib` that does exactly that:
//!
//! ```text
//! HVAC_DATASET_DIR=/gpfs/train LD_PRELOAD=libhvac_preload.so python train.py
//! ```
//!
//! Interposed symbols: `open`, `open64`, `openat`, `read`, `pread`,
//! `pread64`, `lseek`, `lseek64`, `close`. Paths outside `HVAC_DATASET_DIR`
//! fall through to the real libc functions untouched; matching paths are
//! served by a per-process [`LocalAgent`]: an
//! [`HvacClient`](hvac_core::client::HvacClient) whose loopback fabric
//! serves one embedded HVAC server instance, whose "PFS" is the real file
//! system and whose cache is node-local memory or a directory
//! (`HVAC_CACHE_DIR`, one `pid-<pid>` subdirectory per process).
//!
//! Every intercepted call therefore takes the client's RPC path, exactly
//! as in a full allocation; only the fabric differs (in-process instead of
//! sockets to remote servers), which keeps the shim testable under plain
//! `cargo test` (see `tests/preload_smoke.rs`).
//!
//! Set `HVAC_STATS_FILE=/path` to have the shim write a one-line report at
//! process exit: `hvac_preload`, then every client and server counter as
//! `name=value` under its `client.*` or `server.*` name, separated by
//! spaces (`hvac_preload client.opens=1 ... server.pfs_copies=1 ...`). The
//! smoke test uses it to prove interception happened.

pub mod agent;
pub mod shim;

pub use agent::{AgentConfig, LocalAgent};
