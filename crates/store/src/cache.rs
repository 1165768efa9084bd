//! The on-disk content-addressed store.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/objects/<hh>/<hash>.entry   # hh = first two hex chars of the hash
//! <root>/logs/<hash>.log             # write-ahead stage logs (see crate::log)
//! ```
//!
//! An `.entry` file is line-oriented, in the spirit of the certificate
//! wire format:
//!
//! ```text
//! cqfd-store v1
//! key <job hash>
//! kind <job kind>
//! sum sha256=<hex over result line + "\n" + certificate text>
//! result <normalized result line>
//! cert_lines=<n>
//! <n certificate lines, verbatim>
//! end
//! ```
//!
//! **Trust model.** The store is untrusted bytes on disk. A lookup never
//! returns a hit on format trust alone: the embedded checksum must match,
//! the certificate must parse in the trusted `cqfd-cert` grammar, and the
//! trusted checker ([`cqfd_cert::check`]) must accept it. Any failure is
//! a *reject* — counted, and treated by callers exactly like a miss (the
//! job is chased fresh and the entry overwritten). A corrupt or tampered
//! store can therefore cost time, never a wrong answer.
//!
//! Writes go through a `.tmp` sibling plus `rename`, so a crash mid-write
//! leaves either the old entry or a `.tmp` orphan (collected by
//! [`Store::gc`]), never a torn entry served as truth. A failed write is
//! counted (`cqfd_store_insert_failures_total`) and costs one recompute.
//!
//! **Answer first, then write.** A pool worker answers a miss before it
//! writes the entry (see `cqfd_service::exec`). So that an answered job
//! stays a hit for any later identical job, the worker marks the key with
//! [`Store::begin_insert`] before it answers; a [`Store::lookup`] of a
//! marked key waits until that write has ended (succeeded, failed or
//! panicked), then reads the file as usual.

use crate::canon::JobKey;
use crate::sha::sha256_hex;
use cqfd_cert::{Certificate, CheckReport};
use cqfd_obs::{span, Counter};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A validated cache entry, ready for the caller's outcome↔certificate
/// consistency gate. It carries what validation computed — the parsed
/// certificate and the trusted checker's report — so the gate reads
/// them instead of parsing and checking `cert_text` a second time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The job kind recorded at insert time (`determine`, `creep`, …).
    pub kind: String,
    /// The normalized result line (job id zeroed, timing zeroed).
    pub result_line: String,
    /// The certificate text, byte-for-byte as a fresh run would emit it.
    pub cert_text: String,
    /// `cert_text` parsed in the trusted `cqfd-cert` grammar (boxed, so
    /// a [`Lookup`] stays small).
    pub cert: Box<Certificate>,
    /// What [`cqfd_cert::check`] reported when it accepted `cert`.
    pub report: CheckReport,
}

/// Outcome of a cache probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// A checker-validated candidate. The caller must still run its
    /// outcome↔certificate-kind gate on [`Entry::cert`] and
    /// [`Entry::report`], then call [`Store::note_hit`] or
    /// [`Store::note_gate_reject`].
    Hit(Entry),
    /// No entry on disk for this key.
    Miss,
    /// An entry existed but failed validation (reason attached). Already
    /// counted as a checker reject; treat as a miss.
    Reject(String),
}

/// Counts from [`Store::stat`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStat {
    /// Number of `.entry` objects.
    pub entries: usize,
    /// Total bytes across `.entry` objects.
    pub entry_bytes: u64,
    /// Number of stage-log files.
    pub logs: usize,
    /// Total bytes across stage-log files.
    pub log_bytes: u64,
}

/// What [`Store::gc`] removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Invalid entries deleted (failed the full validation pass).
    pub removed_entries: usize,
    /// Orphaned `.tmp` files deleted.
    pub removed_tmp: usize,
    /// Stage logs deleted (complete or unparseable; incomplete logs are
    /// resumable state and are kept).
    pub removed_logs: usize,
}

/// What [`Store::evict_to`] removed to honor a size bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictReport {
    /// Entries evicted (least recently hit first).
    pub evicted_entries: usize,
    /// Bytes those entries occupied.
    pub evicted_bytes: u64,
    /// Entry bytes remaining after eviction.
    pub retained_bytes: u64,
}

/// One store metric: a per-store tally (what [`Store::counters`]
/// reports) mirrored into the process-wide registry counter (what the
/// Prometheus scrape reports). The registry deduplicates by name, so the
/// global counter aggregates over every open store in the process.
struct Tally {
    local: AtomicU64,
    global: Counter,
}

impl Tally {
    fn new(global: Counter) -> Tally {
        Tally {
            local: AtomicU64::new(0),
            global,
        }
    }

    fn inc(&self) {
        self.local.fetch_add(1, Ordering::Relaxed);
        self.global.inc();
    }

    fn get(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }
}

/// Handle to one store directory; share it behind an `Arc` across worker
/// threads (lookups and inserts take `&self`).
pub struct Store {
    root: PathBuf,
    hits: Tally,
    misses: Tally,
    rejects: Tally,
    resumes: Tally,
    insert_failures: Tally,
    /// Hashes of the entries whose write is handed off but not finished,
    /// one element per [`InsertGuard`] (a multiset: two racing misses of
    /// one key each hold a mark).
    writing: Mutex<Vec<String>>,
    /// Signalled whenever an [`InsertGuard`] drops its mark.
    written: Condvar,
}

/// The in-flight mark of one entry write, from [`Store::begin_insert`].
/// Dropping it — after the write succeeded, failed or panicked — releases
/// every [`Store::lookup`] waiting on the key.
#[must_use = "the mark is released when the guard drops"]
pub struct InsertGuard<'a> {
    store: &'a Store,
    hash: &'a str,
}

impl Drop for InsertGuard<'_> {
    fn drop(&mut self) {
        let mut writing = self.store.writing();
        if let Some(i) = writing.iter().position(|h| *h == self.hash) {
            writing.swap_remove(i);
        }
        drop(writing);
        self.store.written.notify_all();
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store").field("root", &self.root).finish()
    }
}

impl Store {
    /// Opens (creating if needed) the store at `dir` and registers the
    /// store counters on the global metrics registry.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Store> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(root.join("objects"))?;
        fs::create_dir_all(root.join("logs"))?;
        let reg = cqfd_obs::global();
        Ok(Store {
            root,
            hits: Tally::new(reg.counter(
                "cqfd_store_cache_hits_total",
                "Cache entries served after passing the trusted checker and the outcome gate",
                &[],
            )),
            misses: Tally::new(reg.counter(
                "cqfd_store_cache_misses_total",
                "Cache probes that found no entry",
                &[],
            )),
            rejects: Tally::new(reg.counter(
                "cqfd_store_checker_rejects_total",
                "Stored entries rejected by validation (format, checksum, or checker)",
                &[],
            )),
            resumes: Tally::new(reg.counter(
                "cqfd_store_resumes_total",
                "Chase runs resumed from a write-ahead stage log",
                &[],
            )),
            insert_failures: Tally::new(reg.counter(
                "cqfd_store_insert_failures_total",
                "Entry writes that failed; the answer was served uncached",
                &[],
            )),
            writing: Mutex::new(Vec::new()),
            written: Condvar::new(),
        })
    }

    /// The in-flight set. No code panics while holding it, but a
    /// poisoned lock still guards a consistent `Vec`.
    fn writing(&self) -> MutexGuard<'_, Vec<String>> {
        self.writing.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the entry object for `hash`.
    pub fn entry_path(&self, hash: &str) -> PathBuf {
        let shard = if hash.len() >= 2 { &hash[..2] } else { "xx" };
        self.root
            .join("objects")
            .join(shard)
            .join(format!("{hash}.entry"))
    }

    /// Path of the write-ahead stage log for `hash`.
    pub fn log_path(&self, hash: &str) -> PathBuf {
        self.root.join("logs").join(format!("{hash}.log"))
    }

    /// Probes the cache for `key`. See [`Lookup`] for the counter
    /// discipline: `Miss` and `Reject` are counted here; a `Hit` is
    /// counted only when the caller confirms it with [`Store::note_hit`].
    ///
    /// A key marked by [`Store::begin_insert`] is read only once that
    /// write has ended, so a job answered before its entry was written is
    /// still a hit for the next identical job.
    pub fn lookup(&self, key: &JobKey, kind: &str) -> Lookup {
        let _span = span!("store.lookup", kind = kind);
        {
            let mut writing = self.writing();
            while writing.contains(&key.hash) {
                writing = self
                    .written
                    .wait(writing)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        let path = self.entry_path(&key.hash);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.inc();
                return Lookup::Miss;
            }
            Err(e) => {
                self.rejects.inc();
                return Lookup::Reject(format!("read {}: {e}", path.display()));
            }
        };
        match validate_entry(&text, Some(&key.hash)) {
            Ok(entry) if entry.kind == kind => {
                // LRU bookkeeping: stamp the entry's mtime so eviction
                // under a --max-bytes bound drops cold entries first.
                // Best-effort — a read-only store still serves hits.
                let _ = touch(&path);
                Lookup::Hit(entry)
            }
            Ok(entry) => {
                self.rejects.inc();
                Lookup::Reject(format!(
                    "kind mismatch: stored {} requested {kind}",
                    entry.kind
                ))
            }
            Err(reason) => {
                self.rejects.inc();
                Lookup::Reject(reason)
            }
        }
    }

    /// Marks `key` as being written until the returned guard drops:
    /// [`Store::lookup`] of the key waits for the mark to go. Take it
    /// before the answer leaves, and hold it across [`Store::insert`].
    pub fn begin_insert<'a>(&'a self, key: &'a JobKey) -> InsertGuard<'a> {
        self.writing().push(key.hash.clone());
        InsertGuard {
            store: self,
            hash: &key.hash,
        }
    }

    /// Writes (or overwrites) the entry for `key` atomically. A failure
    /// is counted in `cqfd_store_insert_failures_total`.
    pub fn insert(
        &self,
        key: &JobKey,
        kind: &str,
        result_line: &str,
        cert_text: &str,
    ) -> io::Result<()> {
        let written = self.write_entry(key, kind, result_line, cert_text);
        if written.is_err() {
            self.insert_failures.inc();
        }
        written
    }

    fn write_entry(
        &self,
        key: &JobKey,
        kind: &str,
        result_line: &str,
        cert_text: &str,
    ) -> io::Result<()> {
        let path = self.entry_path(&key.hash);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut body = String::new();
        body.push_str("cqfd-store v1\n");
        body.push_str(&format!("key {}\n", key.hash));
        body.push_str(&format!("kind {kind}\n"));
        body.push_str(&format!(
            "sum sha256={}\n",
            entry_sum(result_line, cert_text)
        ));
        body.push_str(&format!("result {result_line}\n"));
        let cert_lines = cert_text.lines().count();
        body.push_str(&format!("cert_lines={cert_lines}\n"));
        body.push_str(cert_text);
        if !cert_text.is_empty() && !cert_text.ends_with('\n') {
            body.push('\n');
        }
        body.push_str("end\n");
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(body.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)
    }

    /// Confirms a [`Lookup::Hit`] that also passed the caller's outcome
    /// gate and was served.
    pub fn note_hit(&self) {
        self.hits.inc();
    }

    /// Records that a validated candidate failed the caller's
    /// outcome↔certificate consistency gate and was discarded.
    pub fn note_gate_reject(&self) {
        self.rejects.inc();
    }

    /// Records a chase resumed from a stage log.
    pub fn note_resume(&self) {
        self.resumes.inc();
    }

    /// Counter snapshot `(hits, misses, rejects, resumes)` — for tests
    /// and `cqfd store stat`.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.hits.get(),
            self.misses.get(),
            self.rejects.get(),
            self.resumes.get(),
        )
    }

    /// How many [`Store::insert`] calls failed on this store.
    pub fn insert_failures(&self) -> u64 {
        self.insert_failures.get()
    }

    /// Sizes on disk.
    pub fn stat(&self) -> io::Result<StoreStat> {
        let mut s = StoreStat::default();
        for path in walk_files(&self.root.join("objects"))? {
            if path.extension().is_some_and(|e| e == "entry") {
                s.entries += 1;
                s.entry_bytes += fs::metadata(&path)?.len();
            }
        }
        for path in walk_files(&self.root.join("logs"))? {
            if path.extension().is_some_and(|e| e == "log") {
                s.logs += 1;
                s.log_bytes += fs::metadata(&path)?.len();
            }
        }
        Ok(s)
    }

    /// Validates every entry in place. Returns `(path, reason)` for each
    /// failure; an empty list means the store is fully checker-clean.
    pub fn verify(&self) -> io::Result<Vec<(PathBuf, String)>> {
        let mut bad = Vec::new();
        for path in walk_files(&self.root.join("objects"))? {
            if path.extension().is_none_or(|e| e != "entry") {
                continue;
            }
            let expected = path.file_stem().and_then(|s| s.to_str()).map(str::to_owned);
            let result = fs::read_to_string(&path)
                .map_err(|e| format!("read: {e}"))
                .and_then(|t| validate_entry(&t, expected.as_deref()).map(|_| ()));
            if let Err(reason) = result {
                bad.push((path, reason));
            }
        }
        Ok(bad)
    }

    /// Removes invalid entries, orphaned `.tmp` files, and dead stage
    /// logs. A stage log is dead when it is complete (its run finished;
    /// the result lives in an entry) or when its prelude is unreadable;
    /// an incomplete-but-parseable log is kept — it is resumable state.
    pub fn gc(&self) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        for (path, _reason) in self.verify()? {
            fs::remove_file(&path)?;
            report.removed_entries += 1;
        }
        for path in walk_files(&self.root.join("objects"))? {
            if path.extension().is_some_and(|e| e == "tmp") {
                fs::remove_file(&path)?;
                report.removed_tmp += 1;
            }
        }
        for path in walk_files(&self.root.join("logs"))? {
            if path.extension().is_some_and(|e| e == "tmp") {
                fs::remove_file(&path)?;
                report.removed_tmp += 1;
                continue;
            }
            if path.extension().is_none_or(|e| e != "log") {
                continue;
            }
            let dead = match fs::read_to_string(&path) {
                Ok(text) => match cqfd_cert::parse_stage_log(&text) {
                    Ok(log) => log.complete,
                    Err(_) => true,
                },
                Err(_) => true,
            };
            if dead {
                fs::remove_file(&path)?;
                report.removed_logs += 1;
            }
        }
        Ok(report)
    }

    /// Evicts least-recently-hit entries until the `.entry` objects fit
    /// in `max_bytes`. Recency is the file mtime: [`Store::lookup`]
    /// touches an entry on every confirmed hit, so mtime order is
    /// last-hit order (falling back to insert order for never-hit
    /// entries). Run [`Store::gc`] first so the bound is spent on valid
    /// entries, not junk.
    pub fn evict_to(&self, max_bytes: u64) -> io::Result<EvictReport> {
        let mut entries = Vec::new();
        let mut total: u64 = 0;
        for path in walk_files(&self.root.join("objects"))? {
            if path.extension().is_none_or(|e| e != "entry") {
                continue;
            }
            let meta = fs::metadata(&path)?;
            let mtime = meta.modified()?;
            total += meta.len();
            entries.push((mtime, meta.len(), path));
        }
        entries.sort();
        let mut report = EvictReport {
            retained_bytes: total,
            ..EvictReport::default()
        };
        for (_mtime, len, path) in entries {
            if report.retained_bytes <= max_bytes {
                break;
            }
            fs::remove_file(&path)?;
            report.evicted_entries += 1;
            report.evicted_bytes += len;
            report.retained_bytes -= len;
        }
        Ok(report)
    }
}

/// Stamps `path`'s mtime to now (LRU recency marker for eviction).
fn touch(path: &Path) -> io::Result<()> {
    fs::File::open(path)?.set_modified(std::time::SystemTime::now())
}

/// The checksum stored on a cache entry: SHA-256 over the result line,
/// a newline, and the certificate text.
fn entry_sum(result_line: &str, cert_text: &str) -> String {
    let mut payload = String::with_capacity(result_line.len() + 1 + cert_text.len());
    payload.push_str(result_line);
    payload.push('\n');
    payload.push_str(cert_text);
    sha256_hex(payload.as_bytes())
}

/// Full untrusted-input validation of one entry file: format, key match,
/// checksum, certificate parse, and the trusted checker. Returns the
/// entry, with its parsed certificate and check report, only when every
/// gate passes.
fn validate_entry(text: &str, expected_key: Option<&str>) -> Result<Entry, String> {
    let mut lines = text.lines();
    if lines.next() != Some("cqfd-store v1") {
        return Err("bad magic: expected `cqfd-store v1`".into());
    }
    let key = field(lines.next(), "key ")?;
    if let Some(expected) = expected_key {
        if key != expected {
            return Err(format!(
                "key mismatch: entry says {key}, path says {expected}"
            ));
        }
    }
    let kind = field(lines.next(), "kind ")?;
    let sum = field(lines.next(), "sum sha256=")?;
    let result_line = field(lines.next(), "result ")?;
    let count_str = field(lines.next(), "cert_lines=")?;
    let cert_lines: usize = count_str
        .parse()
        .map_err(|_| format!("bad cert_lines count {count_str:?}"))?;
    let mut cert_text = String::new();
    for i in 0..cert_lines {
        let line = lines
            .next()
            .ok_or_else(|| format!("truncated: expected {cert_lines} cert lines, got {i}"))?;
        cert_text.push_str(line);
        cert_text.push('\n');
    }
    if lines.next() != Some("end") {
        return Err("missing `end` terminator".into());
    }
    if entry_sum(&result_line, &cert_text) != sum {
        return Err("checksum mismatch".into());
    }
    let cert = cqfd_cert::parse(&cert_text).map_err(|e| format!("cert parse: {e}"))?;
    let report = {
        let _span = span!("cert.check", kind = cert.kind());
        cqfd_cert::check(&cert).map_err(|e| format!("checker reject: {e}"))?
    };
    Ok(Entry {
        kind,
        result_line,
        cert_text,
        cert: Box::new(cert),
        report,
    })
}

/// Extracts a `prefix`-tagged header field.
fn field(line: Option<&str>, prefix: &str) -> Result<String, String> {
    match line {
        Some(l) if l.starts_with(prefix) => Ok(l[prefix.len()..].to_string()),
        other => Err(format!("expected `{prefix}…` line, got {other:?}")),
    }
}

/// All files under `dir`, one level of sharding deep, sorted for
/// deterministic reports.
fn walk_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for item in fs::read_dir(dir)? {
        let path = item?.path();
        if path.is_dir() {
            for sub in fs::read_dir(&path)? {
                let p = sub?.path();
                if p.is_file() {
                    out.push(p);
                }
            }
        } else if path.is_file() {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::KeyBuilder;
    use cqfd_cert::{AtomSpec, HoldsClaim, PatAtom, QuerySpec, SigSpec, StructSpec, TermSpec};

    /// "E(x,y) holds at (0,1) in {E(0,1)}" — a small checkable certificate.
    fn hom_witness() -> Certificate {
        Certificate::HomWitness {
            sig: SigSpec {
                preds: vec![("E".into(), 2)],
                consts: vec![],
            },
            structure: StructSpec {
                nodes: 2,
                pins: vec![],
                atoms: vec![AtomSpec {
                    pred: 0,
                    args: vec![0, 1],
                }],
            },
            claim: HoldsClaim {
                query: QuerySpec {
                    name: "Q".into(),
                    free: vec![0, 1],
                    body: vec![PatAtom {
                        pred: 0,
                        terms: vec![TermSpec::Var(0), TermSpec::Var(1)],
                    }],
                },
                tuple: vec![0, 1],
                witness: vec![(0, 0), (1, 1)],
            },
        }
    }

    #[test]
    fn a_hit_carries_the_parse_and_check_of_its_certificate() {
        let dir = std::env::temp_dir().join(format!("cqfd-store-cache-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let mut k = KeyBuilder::new("determine");
        k.knob("stages", 1);
        let key = k.finish();
        let text = cqfd_cert::encode(&hom_witness());
        store
            .insert(&key, "determine", "job=0 kind=determine", &text)
            .unwrap();
        let Lookup::Hit(entry) = store.lookup(&key, "determine") else {
            panic!("a freshly inserted entry is a hit");
        };
        let fresh = cqfd_cert::parse(&entry.cert_text).unwrap();
        assert_eq!(*entry.cert, fresh);
        assert_eq!(entry.report, cqfd_cert::check(&fresh).unwrap());
        assert_eq!(*entry.cert, hom_witness());
        let _ = fs::remove_dir_all(dir);
    }
}
