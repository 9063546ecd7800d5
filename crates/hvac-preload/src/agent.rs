//! The embedded single-process HVAC agent.
//!
//! [`LocalAgent`] packages a real [`HvacServer`] (cache manager, data-mover
//! thread, eviction) plus a descriptor table behind a synchronous API the C
//! shim can call. It is also usable directly from Rust — the unit tests and
//! the preload smoke test share this code with the interposed symbols.
//!
//! The embedded server is a **solo allocation**: its membership view is the
//! epoch-0 single-server [`ClusterView`](hvac_types::ClusterView) and never
//! changes, so the agent bypasses the wire (and thus the epoch prefix) and
//! calls `handle_request` directly — epoch-0 requests are the static-launch
//! format every server accepts forever.

use hvac_core::cache::CacheManager;
use hvac_core::eviction::make_policy;
use hvac_core::intercept::DatasetMatcher;
use hvac_core::protocol::{Request, Response};
use hvac_core::server::{HvacServer, HvacServerOptions};
use hvac_pfs::DirStore;
use hvac_storage::LocalStore;
use hvac_sync::{classes, OrderedMutex};
use hvac_types::{ByteSize, EvictionPolicyKind, HvacError, Result};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of the embedded agent, read from the environment by the
/// shim (all paths absolute).
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Directory to cache (`HVAC_DATASET_DIR`).
    pub dataset_dir: PathBuf,
    /// Cache capacity (`HVAC_CACHE_CAPACITY_MB`, default 512 MiB).
    pub cache_capacity: ByteSize,
    /// Optional on-disk cache directory (`HVAC_CACHE_DIR`); memory if unset.
    pub cache_dir: Option<PathBuf>,
    /// Eviction policy (paper default: random).
    pub eviction: EvictionPolicyKind,
}

impl AgentConfig {
    /// Config for caching `dataset_dir` in memory.
    pub fn new<P: Into<PathBuf>>(dataset_dir: P) -> Self {
        Self {
            dataset_dir: dataset_dir.into(),
            cache_capacity: ByteSize::mib(512),
            cache_dir: None,
            eviction: EvictionPolicyKind::Random,
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
            eviction: EvictionPolicyKind::Random,
        })
    }
}

/// Virtual descriptors live far above any real fd so the shim can tell them
/// apart without bookkeeping collisions.
pub const FD_BASE: u64 = 1 << 28;

#[derive(Debug)]
struct OpenFile {
    path: PathBuf,
    size: u64,
    pos: u64,
}

/// One process-local HVAC instance.
pub struct LocalAgent {
    matcher: DatasetMatcher,
    server: Arc<HvacServer>,
    fds: OrderedMutex<HashMap<u64, OpenFile>>,
    next_fd: AtomicU64,
    opens: AtomicU64,
    reads: AtomicU64,
    bytes: AtomicU64,
}

impl LocalAgent {
    /// Build an agent whose PFS is the real root file system.
    pub fn new(config: AgentConfig) -> Result<Self> {
        let pfs = Arc::new(DirStore::new("/")?);
        let store = match &config.cache_dir {
            Some(dir) => LocalStore::on_directory(dir, config.cache_capacity)?,
            None => LocalStore::in_memory(config.cache_capacity),
        };
        let cache = Arc::new(CacheManager::new(
            store,
            make_policy(config.eviction, 0x48564143),
        ));
        let server = HvacServer::new(cache, pfs, HvacServerOptions::default(), "preload")?;
        Ok(Self {
            matcher: DatasetMatcher::new(&config.dataset_dir),
            server,
            fds: OrderedMutex::new(classes::AGENT_FDS, HashMap::new()),
            next_fd: AtomicU64::new(FD_BASE),
            opens: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        })
    }

    /// Whether this path should be intercepted.
    pub fn intercepts(&self, path: &Path) -> bool {
        self.matcher.matches(path)
    }

    /// The embedded server's membership view: always the solo epoch-0
    /// layout (see the module docs for why the agent may skip the epoch
    /// check).
    pub fn view(&self) -> Arc<hvac_types::ClusterView> {
        self.server.view()
    }

    /// Whether `fd` is one of ours.
    pub fn owns_fd(&self, fd: u64) -> bool {
        fd >= FD_BASE && self.fds.lock().contains_key(&fd)
    }

    /// Open an intercepted path; returns a virtual descriptor.
    pub fn open(&self, path: &Path) -> Result<u64> {
        let (resp, _) = self.server.handle_request(Request::Stat {
            path: path.to_path_buf(),
        });
        let size = match resp.into_result()? {
            Response::Stat { size } => size,
            other => {
                return Err(HvacError::Protocol(format!(
                    "unexpected stat reply {other:?}"
                )))
            }
        };
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        self.fds.lock().insert(
            fd,
            OpenFile {
                path: path.to_path_buf(),
                size,
                pos: 0,
            },
        );
        self.opens.fetch_add(1, Ordering::Relaxed);
        Ok(fd)
    }

    fn serve_read(&self, path: &Path, offset: u64, len: usize) -> Result<Vec<u8>> {
        let (resp, bulk) = self.server.handle_request(Request::Read {
            path: path.to_path_buf(),
            offset,
            len: len as u64,
        });
        match resp.into_result()? {
            Response::Data { .. } => {
                let data = bulk.unwrap_or_default();
                self.reads.fetch_add(1, Ordering::Relaxed);
                self.bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
                Ok(data.to_vec())
            }
            other => Err(HvacError::Protocol(format!(
                "unexpected read reply {other:?}"
            ))),
        }
    }

    /// Sequential read at the descriptor's position.
    pub fn read(&self, fd: u64, len: usize) -> Result<Vec<u8>> {
        let (path, pos) = {
            let fds = self.fds.lock();
            let of = fds.get(&fd).ok_or(HvacError::BadFd(fd as i32))?;
            (of.path.clone(), of.pos)
        };
        let data = self.serve_read(&path, pos, len)?;
        if let Some(of) = self.fds.lock().get_mut(&fd) {
            of.pos = pos + data.len() as u64;
        }
        Ok(data)
    }

    /// Positional read (`pread`).
    pub fn pread(&self, fd: u64, offset: u64, len: usize) -> Result<Vec<u8>> {
        let path = {
            let fds = self.fds.lock();
            fds.get(&fd)
                .ok_or(HvacError::BadFd(fd as i32))?
                .path
                .clone()
        };
        self.serve_read(&path, offset, len)
    }

    /// `lseek` with POSIX whence codes (0=SET, 1=CUR, 2=END).
    pub fn lseek(&self, fd: u64, offset: i64, whence: i32) -> Result<u64> {
        let mut fds = self.fds.lock();
        let of = fds.get_mut(&fd).ok_or(HvacError::BadFd(fd as i32))?;
        let base = match whence {
            0 => 0i64,
            1 => of.pos as i64,
            2 => of.size as i64,
            w => {
                return Err(HvacError::Protocol(format!("unsupported whence {w}")));
            }
        };
        let newpos = base
            .checked_add(offset)
            .filter(|&p| p >= 0)
            .ok_or_else(|| HvacError::Protocol("negative seek".into()))?;
        of.pos = newpos as u64;
        Ok(of.pos)
    }

    /// Size recorded at open time (for interposed `fstat`).
    pub fn fd_size(&self, fd: u64) -> Result<u64> {
        let fds = self.fds.lock();
        fds.get(&fd)
            .map(|of| of.size)
            .ok_or(HvacError::BadFd(fd as i32))
    }

    /// Close a virtual descriptor. The server keeps no per-descriptor
    /// state, so nothing is sent to it.
    pub fn close(&self, fd: u64) -> Result<()> {
        self.fds
            .lock()
            .remove(&fd)
            .map(|_| ())
            .ok_or(HvacError::BadFd(fd as i32))
    }

    /// `(opens, reads, bytes, cache_hits, pfs_copies)` — the stats line.
    pub fn stats(&self) -> (u64, u64, u64, u64, u64) {
        let snap = self.server.metrics().snapshot();
        (
            self.opens.load(Ordering::Relaxed),
            self.reads.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            snap.cache_hits,
            snap.pfs_copies,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let p = dir.join("f1.bin");
        assert!(agent.intercepts(&p));
        assert!(!agent.intercepts(Path::new("/etc/hosts")));

        let fd = agent.open(&p).unwrap();
        assert!(agent.owns_fd(fd));
        assert!(fd >= FD_BASE);
        let data = agent.read(fd, 100).unwrap();
        assert_eq!(data, vec![1u8; 100]);
        assert!(agent.read(fd, 10).unwrap().is_empty()); // EOF
        agent.close(fd).unwrap();
        assert!(!agent.owns_fd(fd));
        assert!(agent.read(fd, 1).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_read_of_same_file_hits_cache() {
        let dir = temp_dataset("hits", 1, 64);
        let agent = LocalAgent::new(AgentConfig::new(&dir)).unwrap();
        let p = dir.join("f0.bin");
        for _ in 0..3 {
            let fd = agent.open(&p).unwrap();
            agent.read(fd, 64).unwrap();
            agent.close(fd).unwrap();
        }
        let (opens, reads, bytes, hits, copies) = agent.stats();
        assert_eq!(opens, 3);
        assert_eq!(reads, 3);
        assert_eq!(bytes, 3 * 64);
        assert_eq!(copies, 1, "one PFS copy");
        assert_eq!(hits, 2, "subsequent reads hit the cache");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pread_and_lseek() {
        let dir = temp_dataset("seek", 1, 50);
        let agent = LocalAgent::new(AgentConfig::new(&dir)).unwrap();
        let p = dir.join("f0.bin");
        let fd = agent.open(&p).unwrap();
        assert_eq!(agent.pread(fd, 40, 100).unwrap().len(), 10);
        assert_eq!(agent.lseek(fd, -5, 2).unwrap(), 45);
        assert_eq!(agent.read(fd, 100).unwrap().len(), 5);
        assert_eq!(agent.lseek(fd, 0, 0).unwrap(), 0);
        assert!(agent.lseek(fd, 0, 9).is_err());
        assert!(agent.lseek(fd, -1, 0).is_err());
        agent.close(fd).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn agent_runs_on_the_solo_epoch0_view() {
        // The agent bypasses the wire and its epoch prefix; that is only
        // sound while its server stays on the epoch-0 solo view, which can
        // never bounce a request as stale.
        let dir = temp_dataset("view", 1, 8);
        let agent = LocalAgent::new(AgentConfig::new(&dir)).unwrap();
        let view = agent.view();
        assert_eq!(view.epoch(), 0);
        assert_eq!(view.n_servers(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_open_fails() {
        let dir = temp_dataset("missing", 0, 0);
        let agent = LocalAgent::new(AgentConfig::new(&dir)).unwrap();
        assert!(agent.open(&dir.join("absent")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn directory_backed_cache_works() {
        let dir = temp_dataset("dircache", 2, 32);
        let cache_dir = dir.join("_cache");
        let mut cfg = AgentConfig::new(&dir);
        cfg.cache_dir = Some(cache_dir.clone());
        let agent = LocalAgent::new(cfg).unwrap();
        let p = dir.join("f0.bin");
        let fd = agent.open(&p).unwrap();
        assert_eq!(agent.read(fd, 32).unwrap(), vec![0u8; 32]);
        agent.close(fd).unwrap();
        // The cached object landed on disk.
        assert!(fs::read_dir(&cache_dir).unwrap().count() >= 1);
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
