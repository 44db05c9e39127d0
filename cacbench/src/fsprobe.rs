//! A timing [`CommitFs`] over [`DiskFs`].
//!
//! Passed into `cac_corpus` through `RunOptions::fs` and
//! `Corpus::add_with`, it counts and times every durable write from
//! outside the corpus crate. A commit is the durability tail of one
//! crash-atomic install: `sync_file` of the temp file, `rename`, then
//! `sync_dir` of the parent; its latency is the time spent in those
//! three calls.

use crate::spans::span;
use cac_trace::io::commitfs::{CommitFs, DiskFs};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Counters accumulated since the last [`TimingFs::reset`].
#[derive(Debug, Clone, Default)]
pub struct FsCounters {
    /// Completed commits (one per `sync_dir` closing a rename).
    pub commits: u64,
    /// Bytes written through `create` writers and `write_file`.
    pub bytes: u64,
    /// Seconds inside any file-system call, writes included.
    pub busy: f64,
    /// Per-commit durability latency in seconds.
    pub commit_secs: Vec<f64>,
    /// Durability time of the commit in progress.
    pending: f64,
}

impl FsCounters {
    /// Adds `other`'s counts to these.
    pub fn absorb(&mut self, other: FsCounters) {
        self.commits += other.commits;
        self.bytes += other.bytes;
        self.busy += other.busy;
        self.commit_secs.extend(other.commit_secs);
    }
}

#[derive(Debug, Clone, Default)]
pub struct TimingFs {
    counters: Arc<Mutex<FsCounters>>,
}

impl TimingFs {
    fn lock(&self) -> MutexGuard<'_, FsCounters> {
        self.counters
            .lock()
            .expect("no thread panics while holding the counters")
    }

    /// A copy of the counters.
    pub fn counters(&self) -> FsCounters {
        self.lock().clone()
    }

    /// Clears the counters.
    pub fn reset(&self) {
        *self.lock() = FsCounters::default();
    }

    /// Runs one file-system call as a span, charging its time to
    /// `busy` and, for durability steps, to the commit in progress.
    fn timed<T>(&self, durability: bool, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = span("trace.io.commitfs", f);
        let secs = t.elapsed().as_secs_f64();
        let mut c = self.lock();
        c.busy += secs;
        if durability {
            c.pending += secs;
        }
        out
    }
}

/// A writer that charges its bytes and time to the shared counters.
struct CountingWriter {
    inner: Box<dyn Write + Send>,
    counters: Arc<Mutex<FsCounters>>,
}

impl CountingWriter {
    fn charge(&self, bytes: usize, t: Instant) {
        let mut c = self
            .counters
            .lock()
            .expect("no thread panics while holding the counters");
        c.bytes += bytes as u64;
        c.busy += t.elapsed().as_secs_f64();
    }
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let t = Instant::now();
        let n = span("trace.io.commitfs", || self.inner.write(buf))?;
        self.charge(n, t);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        let t = Instant::now();
        span("trace.io.commitfs", || self.inner.flush())?;
        self.charge(0, t);
        Ok(())
    }
}

impl CommitFs for TimingFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn Write + Send>> {
        let inner = self.timed(false, || DiskFs.create(path))?;
        Ok(Box::new(CountingWriter {
            inner,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed(false, || DiskFs.write_file(path, bytes))?;
        self.lock().bytes += bytes.len() as u64;
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.timed(true, || DiskFs.sync_file(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(true, || DiskFs.rename(from, to))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.timed(true, || DiskFs.sync_dir(dir))?;
        let mut c = self.lock();
        let latency = std::mem::take(&mut c.pending);
        c.commit_secs.push(latency);
        c.commits += 1;
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.timed(false, || DiskFs.remove_file(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_bytes_counts_one_commit() {
        let dir = std::env::temp_dir().join(format!("cacbench-fsprobe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fs = TimingFs::default();
        fs.commit_bytes(&dir.join("a"), &dir.join("a.tmp"), b"hello")
            .unwrap();
        let mut w = fs.create(&dir.join("b")).unwrap();
        w.write_all(b"abc").unwrap();
        drop(w);
        let c = fs.counters();
        assert_eq!(c.commits, 1);
        assert_eq!(c.bytes, 8);
        assert_eq!(c.commit_secs.len(), 1);
        assert_eq!(std::fs::read(dir.join("a")).unwrap(), b"hello");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
