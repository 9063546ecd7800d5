//! In-memory spans recorded from the benchmark's side of each layer
//! boundary, and a [`FileStore`] wrapper that records every PFS call.
//!
//! Spans are kept in memory while the traced phase runs and written out
//! once at the end. A span's `id` is the request it belongs to:
//! `epoch << 32 | sample index`, so a PFS span is linked to the
//! `client.read` of the same sample in the same epoch by its path.

use bytes::Bytes;
use hvac_pfs::{FileMeta, FileStore, StoreStats};
use hvac_types::Result;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where a span was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One rank's epoch.
    DlEpoch,
    /// One sample's `read_file`/`read_file_segmented` call.
    ClientRead,
    /// A PFS `open_meta` (stat).
    PfsOpenMeta,
    /// A PFS `read_all`/`read_at`.
    PfsRead,
}

impl SpanKind {
    /// The span's name as written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::DlEpoch => "dl.epoch",
            SpanKind::ClientRead => "client.read",
            SpanKind::PfsOpenMeta => "pfs.open_meta",
            SpanKind::PfsRead => "pfs.read",
        }
    }
}

/// One recorded span, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    /// `epoch << 32 | sample index` (for `dl.epoch`: `epoch << 32 | rank`).
    pub id: u64,
    pub start: u64,
    pub end: u64,
}

/// Request id of sample `index` in `epoch`.
pub fn request_id(epoch: u32, index: u64) -> u64 {
    (u64::from(epoch) << 32) | (index & 0xffff_ffff)
}

/// The clock and PFS span log shared by every recording site.
pub struct Tracer {
    origin: Instant,
    recording: AtomicBool,
    epoch: AtomicU64,
    pfs_spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            recording: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            pfs_spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    // The flag and the epoch are written by the coordinator and read on
    // the servers' mover threads, which it never synchronizes with
    // directly; SeqCst keeps a mover from pairing a new epoch with a stale
    // flag.

    /// Turn PFS span recording on or off.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::SeqCst)
    }

    /// The epoch PFS spans are attributed to. Set by the coordinator
    /// between epochs, while no rank is reading.
    pub fn set_epoch(&self, epoch: u32) {
        self.epoch.store(u64::from(epoch), Ordering::SeqCst);
    }

    fn epoch(&self) -> u32 {
        self.epoch.load(Ordering::SeqCst) as u32
    }

    fn record_pfs(&self, span: Span) {
        self.pfs_spans
            .lock()
            .expect("a PFS span recorder panicked")
            .push(span);
    }

    /// Take every PFS span recorded so far.
    pub fn take_pfs_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.pfs_spans.lock().expect("a PFS span recorder panicked"))
    }
}

/// Write `spans` as tab-separated `name id start_ns end_ns` lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tid\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(out, "{}\t{}\t{}\t{}", s.kind.name(), s.id, s.start, s.end)?;
    }
    out.flush()
}

/// A PFS wrapper that records a span around every data-path call while the
/// tracer is recording.
pub struct TracedStore<S> {
    inner: S,
    tracer: Arc<Tracer>,
    index_of: HashMap<PathBuf, u64>,
}

impl<S: FileStore> TracedStore<S> {
    /// Wrap `inner`; `paths[i]` is dataset sample `i`.
    pub fn new(inner: S, tracer: Arc<Tracer>, paths: &[PathBuf]) -> Self {
        let index_of = paths
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .collect();
        Self {
            inner,
            tracer,
            index_of,
        }
    }

    fn traced<T>(&self, kind: SpanKind, path: &Path, op: impl FnOnce() -> T) -> T {
        if !self.tracer.recording() {
            return op();
        }
        let start = self.tracer.now();
        let out = op();
        let end = self.tracer.now();
        let index = self.index_of.get(path).copied().unwrap_or(u64::MAX);
        self.tracer.record_pfs(Span {
            kind,
            id: request_id(self.tracer.epoch(), index),
            start,
            end,
        });
        out
    }
}

impl<S: FileStore> FileStore for TracedStore<S> {
    fn open_meta(&self, path: &Path) -> Result<FileMeta> {
        self.traced(SpanKind::PfsOpenMeta, path, || self.inner.open_meta(path))
    }

    fn read_all(&self, path: &Path) -> Result<Bytes> {
        self.traced(SpanKind::PfsRead, path, || self.inner.read_all(path))
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Bytes> {
        self.traced(SpanKind::PfsRead, path, || {
            self.inner.read_at(path, offset, len)
        })
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn list(&self, prefix: &Path) -> Result<Vec<PathBuf>> {
        self.inner.list(prefix)
    }

    fn stats(&self) -> &StoreStats {
        self.inner.stats()
    }
}
