//! Bench-owned instrumentation that needs no change to the program: a
//! counting global allocator, a counting/timing [`Vfs`] wrapper, and the
//! process's peak resident set size.

use crate::trace::Tracer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use v6census_core::vfs::{RealFs, Vfs};

/// The system allocator, counting allocation calls.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed counter increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation calls (alloc, alloc_zeroed, realloc) made so far by every
/// thread of the process.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// `VmHWM` from `/proc/self/status`, in MiB; `0.0` where unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// I/O totals observed by a [`CountingFs`].
#[derive(Debug, Default)]
pub struct IoCounters {
    /// Time inside read calls (ns).
    pub read_ns: AtomicU64,
    /// Bytes returned by reads.
    pub read_bytes: AtomicU64,
    /// Time inside write, fsync and rename calls (ns).
    pub write_ns: AtomicU64,
    /// Bytes written.
    pub write_bytes: AtomicU64,
    /// Successful fsync calls.
    pub fsyncs: AtomicU64,
}

/// A passthrough to the real filesystem that counts and times every
/// read, write, fsync and rename, and records each as a `vfs.*` span
/// when a tracer is attached. Installed as `IngestConfig::vfs`.
#[derive(Clone)]
pub struct CountingFs {
    /// The totals.
    pub io: Arc<IoCounters>,
    tracer: Option<Arc<Tracer>>,
}

impl std::fmt::Debug for CountingFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CountingFs")
    }
}

impl CountingFs {
    /// A counting filesystem; spans go to `tracer` when given.
    pub fn new(tracer: Option<Arc<Tracer>>) -> CountingFs {
        CountingFs {
            io: Arc::new(IoCounters::default()),
            tracer,
        }
    }

    fn timed<R>(&self, name: &'static str, ns: &AtomicU64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = match &self.tracer {
            Some(t) => t.span(name, None, f),
            None => f(),
        };
        ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

struct CountingReader {
    inner: Box<dyn Read + Send>,
    fs: CountingFs,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let io = Arc::clone(&self.fs.io);
        let n = self
            .fs
            .timed("vfs.read", &io.read_ns, || self.inner.read(buf))?;
        io.read_bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl Vfs for CountingFs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(CountingReader {
            inner: RealFs.open_read(path)?,
            fs: self.clone(),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let data = self.timed("vfs.read", &self.io.read_ns, || RealFs.read(path))?;
        self.io
            .read_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(data)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.timed("vfs.write", &self.io.write_ns, || RealFs.write(path, data))?;
        self.io
            .write_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.timed("vfs.fsync", &self.io.write_ns, || RealFs.fsync(path))?;
        self.io.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed("vfs.rename", &self.io.write_ns, || RealFs.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealFs.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealFs.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        RealFs.read_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        RealFs.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_fs_counts_and_traces() {
        let dir = Path::new(".bench_work").join(format!("vfs-{}", std::process::id()));
        let tracer = Tracer::new();
        let fs = CountingFs::new(Some(Arc::clone(&tracer)));
        fs.create_dir_all(&dir).unwrap();
        let path = dir.join("f.txt");
        fs.write_atomic(&path, b"hello world").unwrap();
        let mut text = String::new();
        fs.open_read(&path)
            .unwrap()
            .read_to_string(&mut text)
            .unwrap();
        assert_eq!(text, "hello world");
        assert_eq!(fs.io.write_bytes.load(Ordering::Relaxed), 11);
        assert_eq!(fs.io.read_bytes.load(Ordering::Relaxed), 11);
        assert_eq!(fs.io.fsyncs.load(Ordering::Relaxed), 1);
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert!(names.starts_with(&["vfs.write", "vfs.fsync", "vfs.rename", "vfs.read"]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn allocations_are_counted_and_rss_is_read() {
        let before = allocs();
        let v: Vec<u64> = std::hint::black_box((0..64).collect());
        assert!(allocs() > before);
        drop(v);
        assert!(peak_rss_mb() > 0.0);
    }
}
