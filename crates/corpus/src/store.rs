//! The on-disk corpus: a directory of columnar traces plus manifest.
//!
//! Layout:
//!
//! ```text
//! <corpus-dir>/
//!   corpus.toml        # manifest: one [[trace]] entry per stored trace
//!   traces/<name>.cact # CACT v3 columnar files, one per trace
//!   results.journal    # incremental result cells (see crate::run)
//!   .corpus.lock       # advisory root lock (see crate::lock)
//!   locks/<id>.lock    # runner liveness leases (see crate::lock)
//! ```
//!
//! [`Corpus::add`] ingests a trace in any sniffable format (text,
//! binary v1/v2, columnar v3) and transcodes it — streaming, one record
//! at a time — into the columnar store. The stored file's content hash
//! becomes part of every result-cell key, so re-adding a trace under
//! the same name invalidates exactly that trace's row of results.
//!
//! Every mutation (trace install, manifest save) runs the crash-atomic
//! commit protocol from [`cac_trace::io::commitfs`] under the exclusive
//! [`CorpusLock`], so concurrent runners and
//! mid-commit crashes leave the store either fully-old or fully-new.

use crate::lock::CorpusLock;
use crate::manifest::{Manifest, QuarantineEntry, TraceEntry};
use crate::{content_hash, CorpusError};
use cac_trace::io::commitfs::{CommitFs, DiskFs};
use cac_trace::io::{
    open_trace, ChunkSource, ColumnarFile, ColumnarTraceReader, ColumnarTraceWriter, DecodeMode,
    TraceReadError, DEFAULT_CHUNK_OPS,
};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Name of the manifest file inside the corpus directory.
pub const MANIFEST_FILE: &str = "corpus.toml";
/// Name of the subdirectory holding stored traces.
pub const TRACES_DIR: &str = "traces";
/// Name of the incremental result journal.
pub const RESULTS_FILE: &str = "results.journal";

/// An open corpus directory.
#[derive(Debug)]
pub struct Corpus {
    dir: PathBuf,
    manifest: Manifest,
}

/// The outcome of verifying one stored trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// The trace's manifest name.
    pub name: String,
    /// `true` if every check passed.
    pub ok: bool,
    /// Human-readable detail: counts on success, the reason on failure.
    pub detail: String,
}

impl Corpus {
    /// Creates a new corpus directory (with `traces/` and an empty
    /// manifest).
    ///
    /// # Errors
    ///
    /// [`CorpusError::Manifest`] if a manifest already exists there;
    /// [`CorpusError::Io`] on filesystem failures.
    pub fn init(dir: &Path) -> Result<Corpus, CorpusError> {
        let manifest_path = dir.join(MANIFEST_FILE);
        if manifest_path.exists() {
            return Err(CorpusError::Manifest(format!(
                "{} already exists — use open",
                manifest_path.display()
            )));
        }
        std::fs::create_dir_all(dir.join(TRACES_DIR))
            .map_err(|e| CorpusError::io(format!("creating corpus dir {}", dir.display()), e))?;
        let manifest = Manifest::default();
        manifest.save(&manifest_path)?;
        Ok(Corpus {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// Opens an existing corpus directory.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] if the manifest cannot be read,
    /// [`CorpusError::Manifest`] if it does not parse.
    pub fn open(dir: &Path) -> Result<Corpus, CorpusError> {
        let manifest = Manifest::load(&dir.join(MANIFEST_FILE))?;
        Ok(Corpus {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// Opens the corpus at `dir`, initialising it first if the
    /// manifest does not exist yet.
    ///
    /// # Errors
    ///
    /// As [`Corpus::open`] / [`Corpus::init`].
    pub fn open_or_init(dir: &Path) -> Result<Corpus, CorpusError> {
        if dir.join(MANIFEST_FILE).exists() {
            Corpus::open(dir)
        } else {
            Corpus::init(dir)
        }
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Stored traces, in manifest order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.manifest.traces
    }

    /// Absolute path of a stored trace file.
    pub fn trace_path(&self, entry: &TraceEntry) -> PathBuf {
        self.dir.join(&entry.file)
    }

    /// Path of the incremental result journal.
    pub fn results_path(&self) -> PathBuf {
        self.dir.join(RESULTS_FILE)
    }

    /// Ingests the trace at `source` under `name`, transcoding it into
    /// the columnar store and updating the manifest atomically.
    ///
    /// Accepts any sniffable input format. Re-adding an existing name
    /// replaces that entry; if the new content hash differs, the
    /// trace's result cells (keyed by hash) are naturally invalidated.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Manifest`] for invalid names, [`CorpusError::Io`]
    /// / [`CorpusError::Trace`] if the source cannot be read or
    /// decoded.
    pub fn add(&mut self, name: &str, source: &Path) -> Result<&TraceEntry, CorpusError> {
        self.add_with(name, source, &DiskFs)
    }

    /// [`Corpus::add`] through an explicit [`CommitFs`], so tests can
    /// inject crash points and disk-full faults into the pool-install
    /// commit sequence (stream to `<name>.cact.tmp` → `fsync` → rename
    /// → `fsync` dir → commit manifest). Runs under the exclusive
    /// corpus lock.
    ///
    /// # Errors
    ///
    /// As [`Corpus::add`].
    pub fn add_with(
        &mut self,
        name: &str,
        source: &Path,
        fs: &dyn CommitFs,
    ) -> Result<&TraceEntry, CorpusError> {
        validate_name(name)?;
        let _lock = CorpusLock::exclusive(&self.dir)?;
        let rel = format!("{TRACES_DIR}/{name}.cact");
        let stored = self.dir.join(&rel);
        let tmp = self.dir.join(format!("{TRACES_DIR}/{name}.cact.tmp"));
        if let Some(parent) = stored.parent() {
            std::fs::create_dir_all(parent).map_err(|e| {
                CorpusError::io(format!("creating trace dir {}", parent.display()), e)
            })?;
        }

        // Any failure between temp creation and the rename must remove
        // the temp file — a leaked `.tmp` is exactly the orphan class
        // `fsck` exists to flag.
        let install = || -> Result<(u64, u64), CorpusError> {
            let out = fs
                .create(&tmp)
                .map_err(|e| CorpusError::io(format!("creating {}", tmp.display()), e))?;
            let mut writer = ColumnarTraceWriter::new(BufWriter::new(out))
                .map_err(|e| CorpusError::io(format!("writing {}", tmp.display()), e))?;
            let counts = transcode_into(source, &mut writer)?;
            let buf = writer
                .finish()
                .map_err(|e| CorpusError::io(format!("finishing {}", tmp.display()), e))?;
            let out = buf.into_inner().map_err(|e| {
                CorpusError::io(format!("flushing {}", tmp.display()), e.into_error())
            })?;
            drop(out);
            fs.sync_file(&tmp)
                .map_err(|e| CorpusError::io(format!("syncing {}", tmp.display()), e))?;
            fs.rename(&tmp, &stored)
                .map_err(|e| CorpusError::io(format!("installing {}", stored.display()), e))?;
            if let Some(parent) = stored.parent() {
                fs.sync_dir(parent)
                    .map_err(|e| CorpusError::io(format!("syncing {}", parent.display()), e))?;
            }
            Ok(counts)
        };
        let counts = match install() {
            Ok(c) => c,
            Err(e) => {
                std::fs::remove_file(&tmp).ok();
                return Err(e);
            }
        };

        let bytes = std::fs::read(&stored)
            .map_err(|e| CorpusError::io(format!("hashing {}", stored.display()), e))?;
        let hash = content_hash(&bytes);
        let indexed = ColumnarFile::open_path(&stored)?;
        let entry = TraceEntry {
            name: name.to_owned(),
            file: rel,
            hash,
            ops: counts.0,
            refs: counts.1,
            bytes: bytes.len() as u64,
            blocks: indexed.block_count() as u64,
        };
        match self.manifest.traces.iter_mut().find(|e| e.name == name) {
            Some(slot) => *slot = entry,
            None => self.manifest.traces.push(entry),
        }
        // Re-adding with different bytes deserves a fresh chance: drop
        // any quarantine record made against the old content.
        if self
            .manifest
            .quarantine
            .iter()
            .any(|q| q.name == name && q.hash != hash)
        {
            self.manifest.clear_quarantine(name);
        }
        self.manifest.save_with(&self.dir.join(MANIFEST_FILE), fs)?;
        Ok(self.manifest.get(name).expect("entry just inserted"))
    }

    /// The quarantine record for a trace's *current* content, if any
    /// (see [`Manifest::quarantined`]).
    pub fn quarantined(&self, name: &str) -> Option<&QuarantineEntry> {
        self.manifest.quarantined(name)
    }

    /// Records a quarantine for a trace and persists the manifest.
    ///
    /// Runs as a reload-merge-save transaction under the exclusive
    /// corpus lock: a peer runner's quarantine records written since
    /// this corpus was opened are preserved, not clobbered. Callers
    /// must not already hold the corpus lock (it is not re-entrant).
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] if the manifest cannot be saved.
    pub fn quarantine(&mut self, entry: QuarantineEntry) -> Result<(), CorpusError> {
        self.quarantine_with(entry, &DiskFs)
    }

    /// [`Corpus::quarantine`] through an explicit [`CommitFs`].
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] if the manifest cannot be saved.
    pub fn quarantine_with(
        &mut self,
        entry: QuarantineEntry,
        fs: &dyn CommitFs,
    ) -> Result<(), CorpusError> {
        let _lock = CorpusLock::exclusive(&self.dir)?;
        let path = self.dir.join(MANIFEST_FILE);
        if let Ok(disk) = Manifest::load(&path) {
            self.manifest = disk;
        }
        self.manifest.set_quarantine(entry);
        self.manifest.save_with(&path, fs)
    }

    /// Drops any quarantine record for `name` and persists the
    /// manifest (a reload-merge-save transaction under the exclusive
    /// corpus lock, like [`Corpus::quarantine`]). Returns true if a
    /// record was removed.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] if the manifest cannot be saved.
    pub fn clear_quarantine(&mut self, name: &str) -> Result<bool, CorpusError> {
        let _lock = CorpusLock::exclusive(&self.dir)?;
        let path = self.dir.join(MANIFEST_FILE);
        if let Ok(disk) = Manifest::load(&path) {
            self.manifest = disk;
        }
        if !self.manifest.clear_quarantine(name) {
            return Ok(false);
        }
        self.manifest.save(&path)?;
        Ok(true)
    }

    /// Verifies every stored trace: file present, content hash intact,
    /// full strict decode succeeds, and counts match the manifest.
    ///
    /// Per-trace failures are reported, not returned as errors, so a
    /// damaged trace does not hide the state of the others.
    pub fn verify(&self) -> Vec<VerifyReport> {
        self.entries()
            .iter()
            .map(|e| {
                let detail = self.verify_entry(e);
                VerifyReport {
                    name: e.name.clone(),
                    ok: detail.is_ok(),
                    detail: match detail {
                        Ok(d) | Err(d) => d,
                    },
                }
            })
            .collect()
    }

    fn verify_entry(&self, e: &TraceEntry) -> Result<String, String> {
        let path = self.trace_path(e);
        let bytes =
            std::fs::read(&path).map_err(|err| format!("cannot read {}: {err}", path.display()))?;
        // Collect every problem instead of stopping at the first: a
        // torn final block fails the size check *and* the decode, and
        // the decode's block index + failure class is what tells the
        // operator (and the supervisor) whether the damage is
        // retryable.
        let mut problems = Vec::new();
        if bytes.len() as u64 != e.bytes {
            problems.push(format!(
                "size mismatch: stored {} bytes, manifest says {}",
                bytes.len(),
                e.bytes
            ));
        }
        let hash = content_hash(&bytes);
        if hash != e.hash {
            problems.push(format!(
                "content hash mismatch: stored {hash:016x}, manifest says {:016x}",
                e.hash
            ));
        }
        match ColumnarTraceReader::new(&bytes[..]) {
            Err(err) => problems.push(format!(
                "not a columnar trace [{}]: {err}",
                err.failure_class()
            )),
            Ok(mut reader) => {
                let mut ops = 0u64;
                let mut refs = 0u64;
                let decode_err = loop {
                    match reader.next_op() {
                        Ok(Some(op)) => {
                            ops += 1;
                            refs += u64::from(op.mem_ref().is_some());
                        }
                        Ok(None) => break None,
                        Err(err) => break Some(err),
                    }
                };
                if let Some(err) = decode_err {
                    // Fully decoded blocks so far = 0-based index of
                    // the block the failure is in — the one shared
                    // classifier names it transient or permanent.
                    problems.push(format!(
                        "decode failed in block {} after {ops} ops [{}]: {err}",
                        reader.blocks_decoded(),
                        err.failure_class()
                    ));
                } else {
                    if ops != e.ops || refs != e.refs {
                        problems.push(format!(
                            "count mismatch: decoded {ops} ops / {refs} refs, manifest says {} / {}",
                            e.ops, e.refs
                        ));
                    }
                    let blocks = reader.blocks_decoded();
                    if blocks != e.blocks {
                        problems.push(format!(
                            "block count mismatch: decoded {blocks}, manifest says {}",
                            e.blocks
                        ));
                    }
                }
            }
        }
        if !problems.is_empty() {
            return Err(problems.join("; "));
        }
        Ok(format!(
            "{} ops, {} refs, {} blocks, {} bytes, hash {hash:016x}",
            e.ops, e.refs, e.blocks, e.bytes
        ))
    }
}

/// Streams every record of `source` (any format [`open_trace`] reads)
/// into the columnar writer, returning `(ops, refs)` written.
fn transcode_into<W: Write>(
    source: &Path,
    writer: &mut ColumnarTraceWriter<W>,
) -> Result<(u64, u64), CorpusError> {
    let file = File::open(source)
        .map_err(|e| CorpusError::io(format!("opening {}", source.display()), e))?;
    let mut reader = open_trace(file, DecodeMode::Strict)?;
    let mut buf = Vec::with_capacity(DEFAULT_CHUNK_OPS);
    let mut ops = 0u64;
    let mut refs = 0u64;
    loop {
        match reader.read_chunk(&mut buf, DEFAULT_CHUNK_OPS) {
            Ok(0) => return Ok((ops, refs)),
            Ok(n) => ops += n as u64,
            Err(TraceReadError::Framed(e)) => return Err(e.into()),
            Err(TraceReadError::Text(e)) => {
                return Err(CorpusError::io(
                    format!("parsing text trace {}", source.display()),
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()),
                ))
            }
        }
        for &op in &buf {
            refs += u64::from(op.mem_ref().is_some());
            writer
                .write_op(op)
                .map_err(|e| CorpusError::io("writing columnar block", e))?;
        }
    }
}

pub(crate) fn validate_name(name: &str) -> Result<(), CorpusError> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        && !name.starts_with('.');
    if ok {
        Ok(())
    } else {
        Err(CorpusError::Manifest(format!(
            "invalid trace name {name:?} (want 1-64 chars of [A-Za-z0-9._-], not starting with '.')"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cac_trace::io::write_trace_columnar;
    use cac_trace::TraceOp;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cac-corpus-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_ops(n: u64) -> Vec<TraceOp> {
        (0..n)
            .map(|i| match i % 3 {
                0 => TraceOp::load(0x1000 + 4 * i, 0x8000 + 16 * i, 1, Some(4)),
                1 => TraceOp::store(0x1000 + 4 * i, 0x9000 + 8 * i, 2, None),
                _ => TraceOp::compute(0x1000 + 4 * i, cac_trace::OpClass::IntAlu, 3, [None; 2]),
            })
            .collect()
    }

    #[test]
    fn add_ingests_all_three_formats_identically() {
        let dir = tmp_dir("ingest");
        let ops = sample_ops(5000);

        let text = dir.join("in.txt");
        let mut w = Vec::new();
        cac_trace::io::write_trace(&mut w, ops.iter().copied()).unwrap();
        std::fs::write(&text, w).unwrap();

        let binary = dir.join("in.bin");
        let mut w = Vec::new();
        cac_trace::io::write_trace_binary(&mut w, ops.iter().copied()).unwrap();
        std::fs::write(&binary, w).unwrap();

        let columnar = dir.join("in.col");
        let mut w = Vec::new();
        write_trace_columnar(&mut w, ops.iter().copied()).unwrap();
        std::fs::write(&columnar, w).unwrap();

        let mut corpus = Corpus::init(&dir.join("corpus")).unwrap();
        let h1 = corpus.add("from-text", &text).unwrap().hash;
        let h2 = corpus.add("from-binary", &binary).unwrap().hash;
        let h3 = corpus.add("from-columnar", &columnar).unwrap().hash;
        // Same records => identical stored bytes => identical hashes.
        assert_eq!(h1, h2);
        assert_eq!(h2, h3);
        let entry = corpus.manifest().get("from-text").unwrap();
        assert_eq!(entry.ops, 5000);
        assert_eq!(
            entry.refs,
            ops.iter().filter(|o| o.mem_ref().is_some()).count() as u64
        );
        assert!(entry.blocks >= 1);

        for r in corpus.verify() {
            assert!(r.ok, "{}: {}", r.name, r.detail);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn re_add_with_changed_content_changes_hash() {
        let dir = tmp_dir("re-add");
        let t1 = dir.join("a.txt");
        let t2 = dir.join("b.txt");
        let mut w = Vec::new();
        cac_trace::io::write_trace(&mut w, sample_ops(100)).unwrap();
        std::fs::write(&t1, &w).unwrap();
        let mut w = Vec::new();
        cac_trace::io::write_trace(&mut w, sample_ops(200)).unwrap();
        std::fs::write(&t2, &w).unwrap();

        let mut corpus = Corpus::init(&dir.join("corpus")).unwrap();
        let h1 = corpus.add("t", &t1).unwrap().hash;
        let h2 = corpus.add("t", &t2).unwrap().hash;
        assert_ne!(h1, h2);
        assert_eq!(corpus.entries().len(), 1);

        // Reopen sees the updated entry.
        let reopened = Corpus::open(corpus.dir()).unwrap();
        assert_eq!(reopened.manifest().get("t").unwrap().hash, h2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_flags_tampered_trace() {
        let dir = tmp_dir("verify");
        let t = dir.join("a.txt");
        let mut w = Vec::new();
        cac_trace::io::write_trace(&mut w, sample_ops(3000)).unwrap();
        std::fs::write(&t, &w).unwrap();

        let mut corpus = Corpus::init(&dir.join("corpus")).unwrap();
        let file = corpus.add("t", &t).unwrap().file.clone();
        let path = corpus.dir().join(&file);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let reports = corpus.verify();
        assert_eq!(reports.len(), 1);
        assert!(!reports[0].ok);
        assert!(
            reports[0].detail.contains("hash mismatch"),
            "unexpected detail: {}",
            reports[0].detail
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_names_block_and_class_for_torn_final_block() {
        let dir = tmp_dir("torn");
        let t = dir.join("a.txt");
        let mut w = Vec::new();
        cac_trace::io::write_trace(&mut w, sample_ops(30_000)).unwrap();
        std::fs::write(&t, &w).unwrap();

        let mut corpus = Corpus::init(&dir.join("corpus")).unwrap();
        let (blocks, file) = {
            let e = corpus.add("t", &t).unwrap();
            (e.blocks, e.file.clone())
        };
        assert!(blocks >= 2, "need a multi-block trace, got {blocks}");
        let path = corpus.dir().join(&file);
        let bytes = std::fs::read(&path).unwrap();
        // Tear the tail off: the final block (and footer) are gone.
        std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();

        let reports = corpus.verify();
        assert!(!reports[0].ok);
        let d = &reports[0].detail;
        assert!(d.contains("size mismatch"), "{d}");
        assert!(d.contains("decode failed in block "), "{d}");
        assert!(d.contains("[permanent]"), "{d}");
        // The reported index is a real block index of this trace.
        let idx: u64 = d
            .split("decode failed in block ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .expect("block index in detail");
        assert!(
            idx < blocks,
            "index {idx} out of range ({blocks} blocks): {d}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_persists_and_clears_on_re_add() {
        use cac_trace::io::FailureClass;
        let dir = tmp_dir("quarantine");
        let t1 = dir.join("a.txt");
        let t2 = dir.join("b.txt");
        let mut w = Vec::new();
        cac_trace::io::write_trace(&mut w, sample_ops(100)).unwrap();
        std::fs::write(&t1, &w).unwrap();
        let mut w = Vec::new();
        cac_trace::io::write_trace(&mut w, sample_ops(200)).unwrap();
        std::fs::write(&t2, &w).unwrap();

        let mut corpus = Corpus::init(&dir.join("corpus")).unwrap();
        let hash = corpus.add("t", &t1).unwrap().hash;
        corpus
            .quarantine(QuarantineEntry {
                name: "t".into(),
                hash,
                reason: "corrupt block 0".into(),
                class: FailureClass::Permanent,
            })
            .unwrap();
        // Persisted: a reopened corpus still sees it.
        let reopened = Corpus::open(corpus.dir()).unwrap();
        assert_eq!(reopened.quarantined("t").unwrap().reason, "corrupt block 0");

        // Re-adding different content clears the quarantine on disk.
        corpus.add("t", &t2).unwrap();
        assert!(corpus.quarantined("t").is_none());
        let reopened = Corpus::open(corpus.dir()).unwrap();
        assert!(reopened.manifest().quarantine.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn init_twice_is_an_error_but_open_or_init_is_not() {
        let dir = tmp_dir("init");
        let c = dir.join("corpus");
        Corpus::init(&c).unwrap();
        assert!(Corpus::init(&c).is_err());
        assert!(Corpus::open_or_init(&c).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_names_rejected() {
        let dir = tmp_dir("names");
        let t = dir.join("a.txt");
        let mut w = Vec::new();
        cac_trace::io::write_trace(&mut w, sample_ops(10)).unwrap();
        std::fs::write(&t, &w).unwrap();
        let mut corpus = Corpus::init(&dir.join("corpus")).unwrap();
        for bad in ["", "../evil", "a b", ".hidden", "x/y"] {
            assert!(corpus.add(bad, &t).is_err(), "accepted {bad:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
