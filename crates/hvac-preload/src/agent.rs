//! The embedded single-process HVAC agent.
//!
//! [`LocalAgent`] is an [`HvacClient`] over an in-process loopback
//! [`Fabric`] that serves one embedded [`HvacServer`] (cache manager,
//! data-mover thread, eviction) at the solo layout's only address. Every
//! intercepted `<open, read, close>` takes the path the paper describes
//! (§III-D, §III-F): the client hashes the path to its home server and
//! sends the RPC, and the loopback fabric runs the server's handler on the
//! calling thread. The client's descriptor table is the only one, and its
//! descriptors start at [`FD_BASE`], so they never collide with real ones.
//! It is also usable directly from Rust — the unit tests and the preload
//! smoke test share this code with the interposed symbols.
//!
//! The embedded server's PFS is the real root file system, which the
//! client also holds as its PFS fallback: a read whose RPC overruns its
//! deadline is served straight from the file system instead of failing.

use hvac_core::cache::CacheManager;
use hvac_core::client::server_addr;
use hvac_core::eviction::make_policy;
use hvac_core::server::{HvacServer, HvacServerOptions};
use hvac_core::{HvacClient, HvacClientOptions};
use hvac_net::fabric::{Fabric, ServerEndpoint};
use hvac_pfs::DirStore;
use hvac_storage::LocalStore;
use hvac_types::{ByteSize, EvictionPolicyKind, Result};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Configuration of the embedded agent, read from the environment by the
/// shim (all paths absolute). The embedded cache runs the default eviction
/// policy ([`EvictionPolicyKind::default`]), the same as a cluster's.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Directory to cache (`HVAC_DATASET_DIR`).
    pub dataset_dir: PathBuf,
    /// Cache capacity (`HVAC_CACHE_CAPACITY_MB`, default 512 MiB).
    pub cache_capacity: ByteSize,
    /// Optional on-disk cache directory (`HVAC_CACHE_DIR`); memory if unset.
    pub cache_dir: Option<PathBuf>,
}

impl AgentConfig {
    /// Config for caching `dataset_dir` in memory.
    pub fn new<P: Into<PathBuf>>(dataset_dir: P) -> Self {
        Self {
            dataset_dir: dataset_dir.into(),
            cache_capacity: ByteSize::mib(512),
            cache_dir: None,
        }
    }

    /// Read configuration from the process environment; `None` when
    /// `HVAC_DATASET_DIR` is unset (shim disabled).
    pub fn from_env() -> Option<Self> {
        let dataset_dir = std::env::var_os(hvac_core::intercept::DATASET_DIR_ENV)?;
        let capacity_mb = std::env::var("HVAC_CACHE_CAPACITY_MB")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(512);
        let cache_dir = std::env::var_os("HVAC_CACHE_DIR").map(PathBuf::from);
        Some(Self {
            dataset_dir: PathBuf::from(dataset_dir),
            cache_capacity: ByteSize::mib(capacity_mb),
            cache_dir,
        })
    }
}

pub use hvac_core::client::FD_BASE;

/// One process-local HVAC instance: the client every intercepted call goes
/// to, and the embedded server behind it.
pub struct LocalAgent {
    client: HvacClient,
    server: Arc<HvacServer>,
    /// Keeps the server registered on the client's fabric.
    _endpoint: ServerEndpoint,
}

impl LocalAgent {
    /// Build an agent whose PFS is the real root file system. A directory
    /// cache lives in this process's own subdirectory of `cache_dir`: a
    /// forked child builds a store of its own, whose object names would
    /// otherwise overwrite its parent's and its siblings' objects.
    pub fn new(config: AgentConfig) -> Result<Self> {
        let pfs = Arc::new(DirStore::new("/")?);
        let store = match &config.cache_dir {
            Some(dir) => {
                sweep_exited(dir);
                let own = dir.join(format!("pid-{}", std::process::id()));
                LocalStore::on_directory(own, config.cache_capacity)?
            }
            None => LocalStore::in_memory(config.cache_capacity),
        };
        let cache = Arc::new(CacheManager::new(
            store,
            make_policy(EvictionPolicyKind::default(), 0x48564143),
        ));
        let server = HvacServer::new(cache, pfs.clone(), HvacServerOptions::default(), "preload")?;
        let fabric = Arc::new(Fabric::new());
        let endpoint = server.serve(&fabric, &server_addr(0, 1))?;
        let mut client = HvacClient::new(fabric, HvacClientOptions::new(config.dataset_dir, 1, 1))?;
        client.set_pfs_fallback(pfs);
        Ok(Self {
            client,
            server,
            _endpoint: endpoint,
        })
    }

    /// The client the shim hands intercepted calls to; its descriptors
    /// start at [`FD_BASE`].
    pub fn client(&self) -> &HvacClient {
        &self.client
    }

    /// The `HVAC_STATS_FILE` report: `hvac_preload` and then every client
    /// and server counter as `name=value` (`client.opens=1 ...
    /// server.pfs_copies=1 ...`), ending in a newline.
    pub fn stats_line(&self) -> String {
        let client = self.client.metrics().snapshot().entries();
        let server = self.server.metrics().snapshot().entries();
        let mut line = String::from("hvac_preload");
        for (name, value) in client.into_iter().chain(server) {
            line.push_str(&format!(" {name}={value}"));
        }
        line.push('\n');
        line
    }
}

/// Remove the `pid-*` cache subdirectories of processes that have exited.
/// Their stores died with them, and a data-loader worker leaves by `_exit`,
/// which runs no cleanup. Pids are looked up in this process's pid
/// namespace, which every process sharing the directory must share.
fn sweep_exited(cache_dir: &Path) {
    let Ok(entries) = std::fs::read_dir(cache_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name
            .to_str()
            .and_then(|n| n.strip_prefix("pid-"))
            .and_then(|p| p.parse::<i32>().ok())
            .filter(|&pid| pid > 0)
        else {
            continue;
        };
        // SAFETY: signal 0 only checks that `pid` exists; nothing is sent.
        let gone = unsafe { libc::kill(pid, 0) } == -1
            && std::io::Error::last_os_error().raw_os_error() == Some(libc::ESRCH);
        if gone {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvac_core::client::Whence;
    use std::fs;

    fn temp_dataset(tag: &str, files: u32, size: usize) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hvac-agent-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for i in 0..files {
            fs::write(dir.join(format!("f{i}.bin")), vec![i as u8; size]).unwrap();
        }
        dir
    }

    #[test]
    fn open_read_close_against_real_files() {
        let dir = temp_dataset("orc", 3, 100);
        let agent = LocalAgent::new(AgentConfig::new(&dir)).unwrap();
        let client = agent.client();
        let p = dir.join("f1.bin");
        assert!(client.intercepts(&p));
        assert!(!client.intercepts(Path::new("/etc/hosts")));

        let fd = client.open(&p).unwrap();
        assert!(fd >= FD_BASE);
        let data = client.read(fd, 100).unwrap();
        assert_eq!(data, vec![1u8; 100]);
        assert!(client.read(fd, 10).unwrap().is_empty()); // EOF
        client.close(fd).unwrap();
        assert!(client.fd_size(fd).is_err());
        assert!(client.read(fd, 1).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_read_of_same_file_hits_cache() {
        let dir = temp_dataset("hits", 1, 64);
        let agent = LocalAgent::new(AgentConfig::new(&dir)).unwrap();
        let client = agent.client();
        let p = dir.join("f0.bin");
        for _ in 0..3 {
            let fd = client.open(&p).unwrap();
            client.read(fd, 64).unwrap();
            client.close(fd).unwrap();
        }
        let c = client.metrics().full_snapshot();
        assert_eq!((c.opens, c.reads, c.bytes), (3, 3, 3 * 64));
        let server = agent.server.metrics().snapshot();
        assert_eq!(server.pfs_copies, 1, "one PFS copy");
        assert_eq!(server.cache_hits, 2, "subsequent reads hit the cache");
        let line = agent.stats_line();
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields[0], "hvac_preload");
        for want in [
            "client.opens=3",
            "server.pfs_copies=1",
            "server.cache_hits=2",
        ] {
            assert!(fields.contains(&want), "{want} missing from {line}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pread_and_lseek() {
        let dir = temp_dataset("seek", 1, 50);
        let agent = LocalAgent::new(AgentConfig::new(&dir)).unwrap();
        let client = agent.client();
        let p = dir.join("f0.bin");
        let fd = client.open(&p).unwrap();
        assert_eq!(client.pread(fd, 40, 100).unwrap().len(), 10);
        assert_eq!(client.lseek(fd, -5, Whence::End).unwrap(), 45);
        assert_eq!(client.read(fd, 100).unwrap().len(), 5);
        assert_eq!(client.lseek(fd, 0, Whence::Set).unwrap(), 0);
        assert!(client.lseek(fd, -1, Whence::Set).is_err());
        client.close(fd).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn agent_runs_on_the_solo_epoch0_view() {
        // The client stamps every request with its view's epoch; the solo
        // epoch-0 layout is the one the embedded server starts on, so no
        // request is ever bounced as stale.
        let dir = temp_dataset("view", 1, 8);
        let agent = LocalAgent::new(AgentConfig::new(&dir)).unwrap();
        let view = agent.client().view();
        assert_eq!(view.epoch(), 0);
        assert_eq!(view.n_servers(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_open_fails() {
        let dir = temp_dataset("missing", 0, 0);
        let agent = LocalAgent::new(AgentConfig::new(&dir)).unwrap();
        assert!(agent.client().open(&dir.join("absent")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn directory_backed_cache_works() {
        let dir = temp_dataset("dircache", 2, 32);
        let cache_dir = dir.join("_cache");
        let mut cfg = AgentConfig::new(&dir);
        cfg.cache_dir = Some(cache_dir.clone());
        let agent = LocalAgent::new(cfg).unwrap();
        let client = agent.client();
        let p = dir.join("f0.bin");
        let fd = client.open(&p).unwrap();
        assert_eq!(client.read(fd, 32).unwrap(), vec![0u8; 32]);
        client.close(fd).unwrap();
        // The cached object landed in this process's own subdirectory.
        let own = cache_dir.join(format!("pid-{}", std::process::id()));
        assert!(fs::read_dir(own).unwrap().count() >= 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn directory_cache_sweeps_only_exited_processes() {
        let dir = temp_dataset("sweep", 1, 8);
        let cache_dir = dir.join("_cache");
        let mut exited = std::process::Command::new("true").spawn().unwrap();
        exited.wait().unwrap();
        let stale = cache_dir.join(format!("pid-{}", exited.id()));
        let live = cache_dir.join("pid-1");
        let other = cache_dir.join("not-a-pid");
        for d in [&stale, &live, &other] {
            fs::create_dir_all(d).unwrap();
        }
        let mut cfg = AgentConfig::new(&dir);
        cfg.cache_dir = Some(cache_dir);
        let _agent = LocalAgent::new(cfg).unwrap();
        assert!(!stale.exists(), "an exited process's objects are removed");
        assert!(live.exists(), "a running process keeps its objects");
        assert!(other.exists(), "entries the agent did not name stay");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_from_env() {
        std::env::set_var(hvac_core::intercept::DATASET_DIR_ENV, "/envset");
        std::env::set_var("HVAC_CACHE_CAPACITY_MB", "64");
        let cfg = AgentConfig::from_env().unwrap();
        assert_eq!(cfg.dataset_dir, PathBuf::from("/envset"));
        assert_eq!(cfg.cache_capacity, ByteSize::mib(64));
        std::env::remove_var(hvac_core::intercept::DATASET_DIR_ENV);
        std::env::remove_var("HVAC_CACHE_CAPACITY_MB");
        assert!(AgentConfig::from_env().is_none());
    }
}
