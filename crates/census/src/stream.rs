//! Fault-tolerant streaming ingestion of day-log files.
//!
//! The library's [`Census::run`] path assumes a perfect in-memory
//! [`v6census_synth::DayLog`]; a real multi-day census reads a directory
//! of text files produced by log collection, and log collection fails in
//! mundane ways: corrupt lines, files cut short, the same day delivered
//! twice, mislabeled headers, days that never arrive. This module makes
//! those failures first-class:
//!
//! * [`IngestError`] — a structured taxonomy with per-line diagnostics
//!   (file, line number, offending content) and per-file outcomes.
//! * [`IngestConfig`] — the error budget (`max_bad_ratio`), strict /
//!   lenient modes, retry-with-backoff for transient I/O, duplicate-day
//!   policy, and checkpointing for `--resume`.
//! * [`StreamIngestor`] — reads files line-by-line in bounded memory,
//!   validates the header and the `# end` integrity trailer
//!   ([`StreamIngestor::parse_file`]), and commits each day to a
//!   [`Census`] ([`StreamIngestor::commit_parsed`]). The batch driver
//!   over a directory is [`crate::supervisor::run_census`], which
//!   returns the per-day [`IngestReport`] health report.
//! * [`day_files`] — the one directory listing: which files are days.
//!
//! Checkpoints are one file per ingested day (written atomically via
//! temp-file + rename), holding the parsed `(address, hits)` entries.
//! Because [`DaySummary::from_entries`] is a pure function of those
//! entries, a resumed census is *identical* to an uninterrupted one —
//! not just similar.

use crate::ingest::{Census, DaySummary};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, BufRead};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use v6census_addr::Addr;
use v6census_core::temporal::Day;
use v6census_core::vfs::{self, RealFs, Vfs};

/// Everything that can go wrong while ingesting day logs.
#[derive(Clone, Debug, PartialEq)]
pub enum IngestError {
    /// An I/O failure that survived the retry budget.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The error kind, for programmatic triage.
        kind: io::ErrorKind,
        /// Retries attempted before giving up.
        retries: u32,
        /// The rendered error.
        detail: String,
    },
    /// A data line that did not parse (bad address or bad hits column).
    BadLine {
        /// The file involved.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// The offending content, truncated for reports.
        content: String,
        /// Why it was rejected.
        reason: String,
    },
    /// The file's header is missing or malformed.
    BadHeader {
        /// The file involved.
        path: PathBuf,
        /// Why it was rejected.
        reason: String,
    },
    /// The file ended early: fewer data lines than the header/trailer
    /// declared, or no integrity trailer at all.
    Truncated {
        /// The file involved.
        path: PathBuf,
        /// Entries the header (or trailer) declared.
        expected: usize,
        /// Data lines actually present.
        got: usize,
    },
    /// The header date disagrees with the file name's date.
    DayMismatch {
        /// The file involved.
        path: PathBuf,
        /// The date in the file name.
        file_day: Day,
        /// The date in the header.
        header_day: Day,
    },
    /// A day that was already ingested arrived again.
    DuplicateDay {
        /// The repeated day.
        day: Day,
        /// The file carrying the repeat.
        path: PathBuf,
    },
    /// A file's day precedes one already ingested (a late delivery to
    /// the `serve` follower).
    OutOfOrderDay {
        /// The late-arriving day.
        day: Day,
        /// The most recent day ingested before it.
        after: Day,
    },
    /// A calendar day between the first and last ingested day was never
    /// successfully ingested.
    MissingDay {
        /// The uncovered day.
        day: Day,
    },
    /// Bad lines exceeded the configured budget; the file was abandoned.
    ErrorBudgetExceeded {
        /// The file involved.
        path: PathBuf,
        /// Bad data lines.
        bad: usize,
        /// Total data lines.
        total: usize,
        /// The configured ceiling.
        max_bad_ratio: f64,
    },
    /// A checkpoint file failed validation.
    BadCheckpoint {
        /// The checkpoint involved.
        path: PathBuf,
        /// Why it was rejected.
        reason: String,
    },
    /// A supervised work unit processing this file died (panic) or was
    /// abandoned (deadline); the file's data never reached the census.
    UnitFailed {
        /// The file involved.
        path: PathBuf,
        /// What happened to the unit.
        reason: String,
    },
}

impl IngestError {
    /// An [`IngestError::Io`] on `path`, after `retries` retries.
    pub(crate) fn io(path: &Path, e: &io::Error, retries: u32) -> IngestError {
        IngestError::Io {
            path: path.to_path_buf(),
            kind: e.kind(),
            retries,
            detail: e.to_string(),
        }
    }

    /// A stable short label per variant, for health reports and tests.
    pub fn label(&self) -> &'static str {
        match self {
            IngestError::Io { .. } => "io",
            IngestError::BadLine { .. } => "bad-line",
            IngestError::BadHeader { .. } => "bad-header",
            IngestError::Truncated { .. } => "truncated",
            IngestError::DayMismatch { .. } => "day-mismatch",
            IngestError::DuplicateDay { .. } => "duplicate-day",
            IngestError::OutOfOrderDay { .. } => "out-of-order-day",
            IngestError::MissingDay { .. } => "missing-day",
            IngestError::ErrorBudgetExceeded { .. } => "error-budget-exceeded",
            IngestError::BadCheckpoint { .. } => "bad-checkpoint",
            IngestError::UnitFailed { .. } => "unit-failed",
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io {
                path,
                kind,
                retries,
                detail,
            } => write!(
                f,
                "{}: I/O error ({kind:?}) after {retries} retries: {detail}",
                path.display()
            ),
            IngestError::BadLine {
                path,
                line,
                content,
                reason,
            } => write!(f, "{}:{line}: {reason}: {content:?}", path.display()),
            IngestError::BadHeader { path, reason } => {
                write!(f, "{}: bad header: {reason}", path.display())
            }
            IngestError::Truncated {
                path,
                expected,
                got,
            } => write!(
                f,
                "{}: truncated: expected {expected} entries, got {got}",
                path.display()
            ),
            IngestError::DayMismatch {
                path,
                file_day,
                header_day,
            } => write!(
                f,
                "{}: header says {header_day} but file name says {file_day}",
                path.display()
            ),
            IngestError::DuplicateDay { day, path } => {
                write!(f, "{}: day {day} already ingested", path.display())
            }
            IngestError::OutOfOrderDay { day, after } => {
                write!(f, "day {day} arrived after {after}")
            }
            IngestError::MissingDay { day } => write!(f, "day {day} was never ingested"),
            IngestError::ErrorBudgetExceeded {
                path,
                bad,
                total,
                max_bad_ratio,
            } => write!(
                f,
                "{}: {bad}/{total} bad lines exceeds --max-bad-ratio {max_bad_ratio}",
                path.display()
            ),
            IngestError::BadCheckpoint { path, reason } => {
                write!(f, "{}: bad checkpoint: {reason}", path.display())
            }
            IngestError::UnitFailed { path, reason } => {
                write!(f, "{}: work unit failed: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Whether an error aborts the whole run or is recorded and survived.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ErrorMode {
    /// First error aborts the run with that error.
    Strict,
    /// Errors are recorded in the report; ingestion continues with
    /// whatever can be salvaged.
    #[default]
    Lenient,
}

/// What to do when a day arrives twice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Keep the first delivery; record the repeat as an error.
    #[default]
    Reject,
    /// Union the deliveries (hits accumulate).
    Merge,
}

/// Configuration for [`StreamIngestor`].
#[derive(Clone, Debug)]
pub struct IngestConfig {
    /// Maximum tolerated fraction of bad data lines per file before the
    /// file is abandoned ([`IngestError::ErrorBudgetExceeded`]).
    pub max_bad_ratio: f64,
    /// Strict (fail fast) or lenient (record and continue).
    pub mode: ErrorMode,
    /// What to do when the same day arrives twice.
    pub on_duplicate: DuplicatePolicy,
    /// Transient-I/O retries per file.
    pub max_retries: u32,
    /// Base backoff between retries (doubles per attempt).
    pub retry_backoff: Duration,
    /// Directory for per-day checkpoints; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Reuse existing checkpoints instead of re-reading their days.
    pub resume: bool,
    /// Stop after ingesting this many days (used by tests to simulate a
    /// mid-run kill).
    pub max_days: Option<usize>,
    /// The filesystem every durability path goes through. Production
    /// uses [`RealFs`]; tests and the `--fault-fs` debug flag substitute
    /// a [`v6census_core::vfs::FaultFs`] or
    /// [`v6census_core::vfs::MemFs`].
    pub vfs: Arc<dyn Vfs>,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            max_bad_ratio: 0.01,
            mode: ErrorMode::Lenient,
            on_duplicate: DuplicatePolicy::Reject,
            max_retries: 3,
            retry_backoff: Duration::from_millis(25),
            checkpoint_dir: None,
            resume: false,
            max_days: None,
            vfs: Arc::new(RealFs),
        }
    }
}

/// True for I/O errors worth retrying: the next attempt may succeed
/// without anything changing on disk.
pub fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs `op`, retrying transient failures with exponential backoff.
/// Returns the value and the number of retries used, or the final error
/// and the retries exhausted on it.
pub fn with_retry<T>(
    cfg: &IngestConfig,
    mut op: impl FnMut() -> io::Result<T>,
) -> Result<(T, u32), (io::Error, u32)> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok((v, attempt)),
            Err(e) if is_transient(e.kind()) && attempt < cfg.max_retries => {
                std::thread::sleep(cfg.retry_backoff * 2u32.saturating_pow(attempt));
                attempt += 1;
            }
            Err(e) => return Err((e, attempt)),
        }
    }
}

/// Parses the leading `YYYY-MM-DD` of a file name through
/// [`Day::parse_ymd`]: `2015-03-17.log` is a day file, while
/// `notes.txt` and an impossible date such as `2015-02-30.log` are not.
pub fn day_from_filename(name: &str) -> Option<Day> {
    name.get(..10).and_then(Day::parse_ymd)
}

/// Lists the day files under `dir`: every entry whose name starts with a
/// valid `YYYY-MM-DD`, sorted by day (then path). Batch `census`, the
/// `serve` follower, the crash explorer and `stability` all list through
/// it, so they agree on which files are days.
pub fn day_files(fs: &dyn Vfs, dir: &Path) -> Result<Vec<(Day, PathBuf)>, IngestError> {
    let mut days = Vec::new();
    for path in fs.read_dir(dir).map_err(|e| IngestError::io(dir, &e, 0))? {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        if let Some(day) = name.as_deref().and_then(day_from_filename) {
            days.push((day, path));
        }
    }
    days.sort();
    Ok(days)
}

/// Parses a day-log header: `# synthetic day YYYY-MM-DD: N unique ...`.
/// Returns `(day, declared_entry_count)`.
fn parse_header(line: &str) -> Option<(Day, usize)> {
    let rest = line.strip_prefix("# synthetic day ")?;
    let (date_s, tail) = rest.split_once(':')?;
    let day = day_from_filename(date_s.trim())?;
    let count: usize = tail.split_whitespace().next()?.parse().ok()?;
    Some((day, count))
}

/// What happened to one file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileOutcome {
    /// Parsed and ingested.
    Ingested,
    /// Satisfied from an existing checkpoint; the file was not read.
    FromCheckpoint,
    /// Read, but abandoned (truncation, budget, duplicate, mismatch).
    Failed,
    /// Never processed (run stopped first).
    Skipped,
}

/// Per-file ingestion health.
#[derive(Clone, Debug)]
pub struct FileReport {
    /// The file.
    pub path: PathBuf,
    /// The day the file contributes (from its name).
    pub day: Day,
    /// Data lines seen.
    pub data_lines: usize,
    /// Data lines rejected.
    pub bad_lines: usize,
    /// The outcome.
    pub outcome: FileOutcome,
    /// Every error attributed to this file.
    pub errors: Vec<IngestError>,
}

/// The result of a streaming ingestion run.
pub struct IngestReport {
    /// The census built from every ingested day.
    pub census: Census,
    /// Per-file health, in processing order.
    pub files: Vec<FileReport>,
    /// Calendar days between the first and last ingested day that were
    /// never ingested ([`IngestError::MissingDay`] for each).
    pub gaps: Vec<Day>,
    /// Stale `*.tmp` files deleted from the checkpoint directory before
    /// ingestion (leftovers of an aborted atomic write).
    pub stale_tmp_removed: u64,
}

impl IngestReport {
    /// All recorded errors across files plus the per-gap missing-day
    /// errors, in processing order.
    pub fn errors(&self) -> Vec<IngestError> {
        let mut out: Vec<IngestError> = self
            .files
            .iter()
            .flat_map(|f| f.errors.iter().cloned())
            .collect();
        out.extend(self.gaps.iter().map(|&day| IngestError::MissingDay { day }));
        out
    }

    /// The per-day ingest health report, one line per file plus gap and
    /// error sections.
    pub fn health_report(&self) -> String {
        let mut out = String::from("==== ingest health ====\n");
        let _ = writeln!(
            out,
            "{:<12} {:<28} {:<16} {:>8} {:>5}",
            "day", "file", "outcome", "lines", "bad"
        );
        for f in &self.files {
            let name = f
                .path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| f.path.display().to_string());
            let outcome = match f.outcome {
                FileOutcome::Ingested => "ingested",
                FileOutcome::FromCheckpoint => "checkpoint",
                FileOutcome::Failed => "FAILED",
                FileOutcome::Skipped => "skipped",
            };
            let _ = writeln!(
                out,
                "{:<12} {:<28} {:<16} {:>8} {:>5}",
                f.day.to_string(),
                name,
                outcome,
                f.data_lines,
                f.bad_lines
            );
        }
        if self.gaps.is_empty() {
            out.push_str("gaps: none\n");
        } else {
            let days: Vec<String> = self.gaps.iter().map(|d| d.to_string()).collect();
            let _ = writeln!(out, "gaps: {}", days.join(", "));
        }
        if self.stale_tmp_removed > 0 {
            let _ = writeln!(out, "stale tmp files removed: {}", self.stale_tmp_removed);
        }
        let errors = self.errors();
        let _ = writeln!(out, "errors: {}", errors.len());
        for e in &errors {
            let _ = writeln!(out, "  [{}] {e}", e.label());
        }
        out
    }
}

/// The most entries a day-log header can reserve up front (32 MiB of
/// `(Addr, u64)`): a header is untrusted input, so a huge declared
/// count must not become a huge allocation before any line is read.
const MAX_RESERVED_ENTRIES: usize = 1 << 20;

/// The parsed content of one day-log file.
struct FileParse {
    header_day: Option<Day>,
    declared: Option<usize>,
    trailer: Option<(usize, u64)>,
    entries: Vec<(Addr, u64)>,
    data_lines: usize,
    bad: Vec<IngestError>,
}

/// The census-independent result of reading and fully validating one day
/// file, produced by [`StreamIngestor::parse_file`] and consumed by
/// [`StreamIngestor::commit_parsed`]. The split exists so the supervised
/// engine can parse files in parallel while committing serially.
pub struct ParsedFile {
    /// Per-file health so far (the outcome can still change at commit
    /// time — e.g. a duplicate day rejected under the duplicate policy).
    pub report: FileReport,
    /// The validated day summary, `None` when the file failed validation.
    pub summary: Option<DaySummary>,
    /// Entries to checkpoint after a successful commit (`None` when the
    /// data came *from* a checkpoint, or validation failed).
    checkpoint_entries: Option<Vec<(Addr, u64)>>,
}

impl ParsedFile {
    /// Wraps a failed file report: nothing to commit or checkpoint.
    fn failed(report: FileReport) -> ParsedFile {
        ParsedFile {
            report,
            summary: None,
            checkpoint_entries: None,
        }
    }
}

/// Streaming, fault-tolerant ingestion of one day-log file at a time:
/// [`StreamIngestor::parse_file`] then [`StreamIngestor::commit_parsed`].
/// Directories are driven by [`crate::supervisor::run_census`] (batch)
/// and the `serve` follower, both listing through [`day_files`].
#[derive(Clone, Debug, Default)]
pub struct StreamIngestor {
    /// The configuration.
    pub cfg: IngestConfig,
}

impl StreamIngestor {
    /// Creates an ingestor.
    pub fn new(cfg: IngestConfig) -> StreamIngestor {
        StreamIngestor { cfg }
    }

    /// The census-independent half of ingestion: reads and fully
    /// validates one file (checkpoint short-circuit, retrying read,
    /// header/budget/truncation checks). Parsing many files this way is
    /// embarrassingly parallel — the supervised engine runs one
    /// [`StreamIngestor::parse_file`] per work unit and then applies
    /// [`StreamIngestor::commit_parsed`] serially, in day order, so the
    /// resulting census is identical to a sequential ingest.
    pub fn parse_file(&self, path: &Path) -> Result<ParsedFile, IngestError> {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let file_day = match day_from_filename(&name) {
            Some(d) => d,
            None => {
                let e = IngestError::BadHeader {
                    path: path.to_path_buf(),
                    reason: format!("file name {name:?} has no YYYY-MM-DD date"),
                };
                return self
                    .fail(path, Day(0), 0, 0, vec![e])
                    .map(ParsedFile::failed);
            }
        };
        let mut report = FileReport {
            path: path.to_path_buf(),
            day: file_day,
            data_lines: 0,
            bad_lines: 0,
            outcome: FileOutcome::Ingested,
            errors: Vec::new(),
        };

        // Resume: an existing checkpoint for this day replaces the read.
        if self.cfg.resume {
            if let Some(dir) = &self.cfg.checkpoint_dir {
                let ckpt = checkpoint_path(dir, file_day);
                if self.cfg.vfs.exists(&ckpt) {
                    match load_checkpoint(self.cfg.vfs.as_ref(), &ckpt) {
                        Ok((day, entries)) => {
                            report.data_lines = entries.len();
                            report.outcome = FileOutcome::FromCheckpoint;
                            return Ok(ParsedFile {
                                summary: Some(DaySummary::from_entries(day, entries)),
                                report,
                                checkpoint_entries: None,
                            });
                        }
                        Err(e) => {
                            // A bad checkpoint falls through to re-reading
                            // the original file.
                            if self.cfg.mode == ErrorMode::Strict {
                                return Err(e);
                            }
                            report.errors.push(e);
                        }
                    }
                }
            }
        }

        let parse = match with_retry(&self.cfg, || self.read_and_parse(path)) {
            Ok((p, _retries)) => p,
            Err((e, retries)) => {
                return self
                    .fail(
                        path,
                        file_day,
                        0,
                        0,
                        vec![IngestError::io(path, &e, retries)],
                    )
                    .map(ParsedFile::failed);
            }
        };
        report.data_lines = parse.data_lines;
        report.bad_lines = parse.bad.len();

        // Header validation.
        let Some(header_day) = parse.header_day else {
            let e = IngestError::BadHeader {
                path: path.to_path_buf(),
                reason: "missing or malformed `# synthetic day` header".into(),
            };
            return self
                .fail(path, file_day, parse.data_lines, parse.bad.len(), vec![e])
                .map(ParsedFile::failed);
        };
        if header_day != file_day {
            let e = IngestError::DayMismatch {
                path: path.to_path_buf(),
                file_day,
                header_day,
            };
            let mut errors = parse.bad.clone();
            errors.push(e);
            return self
                .fail(path, file_day, parse.data_lines, parse.bad.len(), errors)
                .map(ParsedFile::failed);
        }

        // Per-line errors count against the budget.
        if self.cfg.mode == ErrorMode::Strict {
            if let Some(e) = parse.bad.first() {
                return Err(e.clone());
            }
        }
        report.errors.extend(parse.bad.iter().cloned());
        if parse.data_lines > 0 {
            let ratio = parse.bad.len() as f64 / parse.data_lines as f64;
            if ratio > self.cfg.max_bad_ratio {
                let e = IngestError::ErrorBudgetExceeded {
                    path: path.to_path_buf(),
                    bad: parse.bad.len(),
                    total: parse.data_lines,
                    max_bad_ratio: self.cfg.max_bad_ratio,
                };
                report.errors.push(e.clone());
                report.outcome = FileOutcome::Failed;
                if self.cfg.mode == ErrorMode::Strict {
                    return Err(e);
                }
                return Ok(ParsedFile::failed(report));
            }
        }

        // Truncation: the trailer is authoritative; without one, the
        // header's declared count must be met.
        let truncated = match parse.trailer {
            Some((n, _hits)) => (parse.data_lines != n).then_some(n),
            None => {
                let declared = parse.declared.unwrap_or(0);
                (parse.data_lines < declared).then_some(declared)
            }
        };
        if let Some(expected) = truncated {
            let e = IngestError::Truncated {
                path: path.to_path_buf(),
                expected,
                got: parse.data_lines,
            };
            report.errors.push(e.clone());
            report.outcome = FileOutcome::Failed;
            if self.cfg.mode == ErrorMode::Strict {
                return Err(e);
            }
            return Ok(ParsedFile::failed(report));
        }

        let summary = DaySummary::from_entries(file_day, parse.entries.iter().copied());
        Ok(ParsedFile {
            report,
            summary: Some(summary),
            checkpoint_entries: Some(parse.entries),
        })
    }

    /// The shared-state half of ingestion: applies ordering/duplicate
    /// policy, enters the day into the census, and writes the checkpoint.
    /// Must be called in delivery order — it is the serial step of a
    /// supervised parallel ingest.
    pub fn commit_parsed(
        &self,
        parsed: ParsedFile,
        census: &mut Census,
        ingested_days: &mut Vec<Day>,
    ) -> Result<FileReport, IngestError> {
        let ParsedFile {
            mut report,
            summary,
            checkpoint_entries,
        } = parsed;
        let Some(summary) = summary else {
            return Ok(report);
        };
        let path = report.path.clone();
        let day = summary.day;
        let committed = self.commit(summary, &path, census, ingested_days, &mut report)?;
        if committed {
            if let (Some(entries), Some(dir)) = (&checkpoint_entries, &self.cfg.checkpoint_dir) {
                if let Err(e) = write_checkpoint(self.cfg.vfs.as_ref(), dir, day, entries) {
                    let err = IngestError::io(&checkpoint_path(dir, day), &e, 0);
                    if self.cfg.mode == ErrorMode::Strict {
                        return Err(err);
                    }
                    report.errors.push(err);
                }
            }
        }
        Ok(report)
    }

    /// Applies ordering and duplicate policy, then ingests. Returns
    /// whether the day actually entered the census.
    fn commit(
        &self,
        summary: DaySummary,
        path: &Path,
        census: &mut Census,
        ingested_days: &mut Vec<Day>,
        report: &mut FileReport,
    ) -> Result<bool, IngestError> {
        let day = summary.day;
        if let Some(&last) = ingested_days.last() {
            if day < last && !census.has_day(day) {
                let e = IngestError::OutOfOrderDay { day, after: last };
                if self.cfg.mode == ErrorMode::Strict {
                    return Err(e);
                }
                // Late data is still data: record the anomaly, ingest it.
                report.errors.push(e);
            }
        }
        if census.has_day(day) {
            let e = IngestError::DuplicateDay {
                day,
                path: path.to_path_buf(),
            };
            if self.cfg.mode == ErrorMode::Strict {
                return Err(e);
            }
            report.errors.push(e);
            match self.cfg.on_duplicate {
                DuplicatePolicy::Reject => {
                    report.outcome = FileOutcome::Failed;
                    return Ok(false);
                }
                DuplicatePolicy::Merge => {
                    census.ingest_summary(summary);
                    return Ok(true);
                }
            }
        }
        census.ingest_summary(summary);
        ingested_days.push(day);
        Ok(true)
    }

    /// Builds a failed report, or aborts in strict mode.
    fn fail(
        &self,
        path: &Path,
        day: Day,
        data_lines: usize,
        bad_lines: usize,
        errors: Vec<IngestError>,
    ) -> Result<FileReport, IngestError> {
        if self.cfg.mode == ErrorMode::Strict {
            // fail() is always invoked with at least one error; if that
            // invariant ever broke we fall through to the lenient Failed
            // report rather than panicking mid-stream.
            if let Some(e) = errors.last() {
                return Err(e.clone());
            }
        }
        Ok(FileReport {
            path: path.to_path_buf(),
            day,
            data_lines,
            bad_lines,
            outcome: FileOutcome::Failed,
            errors,
        })
    }

    /// Reads one file line-by-line (bounded memory: one line buffered at
    /// a time) and parses header, data lines, and trailer.
    fn read_and_parse(&self, path: &Path) -> io::Result<FileParse> {
        let file = self.cfg.vfs.open_read(path)?;
        let mut reader = io::BufReader::new(file);
        let mut parse = FileParse {
            header_day: None,
            declared: None,
            trailer: None,
            entries: Vec::new(),
            data_lines: 0,
            bad: Vec::new(),
        };
        let mut buf = String::new();
        let mut line_no = 0usize;
        loop {
            buf.clear();
            if reader.read_line(&mut buf)? == 0 {
                break;
            }
            line_no += 1;
            let line = buf.trim_end_matches('\n');
            let t = line.trim();
            if t.is_empty() {
                continue;
            }
            if let Some(c) = t.strip_prefix('#') {
                if line_no == 1 {
                    if let Some((day, n)) = parse_header(t) {
                        parse.header_day = Some(day);
                        parse.declared = Some(n);
                        parse.entries.reserve(n.min(MAX_RESERVED_ENTRIES));
                    }
                } else if let Some(rest) = c.trim().strip_prefix("end ") {
                    let mut cols = rest.split_whitespace();
                    if let (Some(Ok(n)), Some(Ok(h))) = (
                        cols.next().map(str::parse::<usize>),
                        cols.next().map(str::parse::<u64>),
                    ) {
                        parse.trailer = Some((n, h));
                    }
                }
                continue;
            }
            parse.data_lines += 1;
            let mut cols = t.split_whitespace();
            let addr_s = cols.next().unwrap_or("");
            let addr = match addr_s.parse::<Addr>() {
                Ok(a) => a,
                Err(_) => {
                    parse.bad.push(IngestError::BadLine {
                        path: path.to_path_buf(),
                        line: line_no,
                        content: clip(t),
                        reason: "unparseable address".into(),
                    });
                    continue;
                }
            };
            let hits = match cols.next() {
                None => 1,
                Some(h) => match h.parse::<u64>() {
                    Ok(v) => v,
                    Err(_) => {
                        parse.bad.push(IngestError::BadLine {
                            path: path.to_path_buf(),
                            line: line_no,
                            content: clip(t),
                            reason: "unparseable hits column".into(),
                        });
                        continue;
                    }
                },
            };
            parse.entries.push((addr, hits));
        }
        Ok(parse)
    }
}

fn clip(s: &str) -> String {
    const MAX: usize = 60;
    if s.len() <= MAX {
        s.to_string()
    } else {
        let cut = (0..=MAX)
            .rev()
            .find(|&i| s.is_char_boundary(i))
            .unwrap_or(0);
        format!("{}…", &s[..cut])
    }
}

/// The checkpoint file for a day.
pub fn checkpoint_path(dir: &Path, day: Day) -> PathBuf {
    dir.join(format!("ckpt-{day}.tsv"))
}

/// Writes a per-day checkpoint atomically *and durably* (temp file +
/// fsync + rename via [`Vfs::write_atomic`]), so a crash mid-write
/// leaves either no checkpoint or a complete one — and a completed
/// write survives power loss, per the DESIGN.md persistence model.
///
/// The body is rendered into one reserved buffer with
/// [`Addr::format_into`] and a plain decimal writer, not `fmt`; the
/// header's hit total saturates at `u64::MAX`.
pub fn write_checkpoint(
    fs: &dyn Vfs,
    dir: &Path,
    day: Day,
    entries: &[(Addr, u64)],
) -> io::Result<()> {
    fs.create_dir_all(dir)?;
    let header = format!(
        "# v6census checkpoint v1 {day} {} {}\n",
        entries.len(),
        total_hits(entries)
    );
    // Longest line: an address, a tab, a 20-digit count, a newline.
    const LINE_MAX: usize = Addr::TEXT_MAX + 22;
    let mut text = Vec::with_capacity(header.len() + entries.len() * LINE_MAX + 6);
    text.extend_from_slice(header.as_bytes());
    let mut addr_buf = [0u8; Addr::TEXT_MAX];
    let mut hits_buf = [0u8; 20];
    for &(addr, h) in entries {
        text.extend_from_slice(addr.format_into(&mut addr_buf));
        text.push(b'\t');
        text.extend_from_slice(decimal(h, &mut hits_buf));
        text.push(b'\n');
    }
    text.extend_from_slice(b"# end\n");
    fs.write_atomic(&checkpoint_path(dir, day), &text)
}

/// The hit total of checkpoint entries, saturating at `u64::MAX`.
fn total_hits(entries: &[(Addr, u64)]) -> u64 {
    entries
        .iter()
        .fold(0u64, |acc, &(_, h)| acc.saturating_add(h))
}

/// `v` in decimal, written right-aligned into `buf`.
fn decimal(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut start = buf.len();
    for slot in buf.iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        v /= 10;
        start -= 1;
        if v == 0 {
            break;
        }
    }
    buf.get(start..).unwrap_or_default()
}

/// Deletes stale `.{name}.tmp` leftovers an aborted atomic write can
/// leave under `dir`, returning how many were removed. A missing
/// directory is not an error (cold start). Finished artifacts are never
/// touched: only names matching [`vfs::is_stale_tmp`] qualify.
pub fn sweep_stale_tmp(fs: &dyn Vfs, dir: &Path) -> io::Result<u64> {
    let entries = match fs.read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut removed = 0u64;
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if vfs::is_stale_tmp(&name) {
            fs.remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Loads and validates a checkpoint written by [`write_checkpoint`].
pub fn load_checkpoint(fs: &dyn Vfs, path: &Path) -> Result<(Day, Vec<(Addr, u64)>), IngestError> {
    let bad = |reason: String| IngestError::BadCheckpoint {
        path: path.to_path_buf(),
        reason,
    };
    let text = fs
        .read_to_string(path)
        .map_err(|e| IngestError::io(path, &e, 0))?;
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| bad("empty file".into()))?;
    let rest = header
        .strip_prefix("# v6census checkpoint v1 ")
        .ok_or_else(|| bad("missing checkpoint header".into()))?;
    let mut cols = rest.split_whitespace();
    let day = cols
        .next()
        .and_then(day_from_filename)
        .ok_or_else(|| bad("bad checkpoint day".into()))?;
    let declared: usize = cols
        .next()
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| bad("bad entry count".into()))?;
    let declared_hits: u64 = cols
        .next()
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| bad("bad hit count".into()))?;
    let mut entries = Vec::with_capacity(declared);
    let mut ended = false;
    for line in lines {
        if line == "# end" {
            ended = true;
            break;
        }
        let (addr_s, hits_s) = line
            .split_once('\t')
            .ok_or_else(|| bad(format!("bad entry line {line:?}")))?;
        let addr: Addr = addr_s
            .parse()
            .map_err(|_| bad(format!("bad address {addr_s:?}")))?;
        let hits: u64 = hits_s
            .parse()
            .map_err(|_| bad(format!("bad hits {hits_s:?}")))?;
        entries.push((addr, hits));
    }
    if !ended {
        return Err(bad("missing end marker".into()));
    }
    if entries.len() != declared {
        return Err(bad(format!(
            "entry count mismatch: declared {declared}, got {}",
            entries.len()
        )));
    }
    let hits = total_hits(&entries);
    if hits != declared_hits {
        return Err(bad(format!(
            "hit total mismatch: declared {declared_hits}, got {hits}"
        )));
    }
    Ok((day, entries))
}

/// Groups a report's errors by variant label — the health-report rollup.
pub fn errors_by_label(errors: &[IngestError]) -> BTreeMap<&'static str, usize> {
    let mut out = BTreeMap::new();
    for e in errors {
        *out.entry(e.label()).or_insert(0) += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn filename_days() {
        assert_eq!(
            day_from_filename("2015-03-17.log"),
            Some(Day::from_ymd(2015, 3, 17))
        );
        assert_eq!(
            day_from_filename("2015-03-17"),
            Some(Day::from_ymd(2015, 3, 17))
        );
        assert!(day_from_filename("notes.txt").is_none());
        assert!(day_from_filename("2015-13-01.log").is_none());
        assert!(day_from_filename("20150317").is_none());
        // Impossible calendar dates are not day files (no panic).
        assert!(day_from_filename("2015-02-30.log").is_none());
        assert!(day_from_filename("2015-02-29.log").is_none());
        assert_eq!(
            day_from_filename("2016-02-29.log"),
            Some(Day::from_ymd(2016, 2, 29))
        );
    }

    #[test]
    fn day_files_lists_only_valid_dates_in_day_order() {
        let dir = std::env::temp_dir().join(format!(
            "v6census-dayfiles-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for name in [
            "2015-03-18.log",
            "2015-03-17.log",
            "2015-02-30.log",
            "notes.txt",
            ".2015-03-19.log.partial",
        ] {
            std::fs::write(dir.join(name), "").unwrap();
        }
        let listed = day_files(&RealFs, &dir).unwrap();
        let d = Day::from_ymd(2015, 3, 17);
        assert_eq!(
            listed,
            vec![
                (d, dir.join("2015-03-17.log")),
                (d + 1, dir.join("2015-03-18.log")),
            ]
        );
        let missing = day_files(&RealFs, &dir.join("nope")).unwrap_err();
        assert_eq!(missing.label(), "io");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_parses() {
        let (d, n) = parse_header("# synthetic day 2015-03-17: 1234 unique client addrs").unwrap();
        assert_eq!(d, Day::from_ymd(2015, 3, 17));
        assert_eq!(n, 1234);
        assert!(parse_header("# something else").is_none());
        assert!(parse_header("# synthetic day 2015-02-30: 12 unique client addrs").is_none());
    }

    #[test]
    fn retry_survives_transient_errors() {
        let cfg = IngestConfig {
            max_retries: 3,
            retry_backoff: Duration::from_millis(1),
            ..IngestConfig::default()
        };
        let calls = AtomicU32::new(0);
        let (v, retries) = with_retry(&cfg, || {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "flaky"))
            } else {
                Ok(7)
            }
        })
        .unwrap();
        assert_eq!(v, 7);
        assert_eq!(retries, 2);
    }

    #[test]
    fn retry_gives_up_on_persistent_and_fatal_errors() {
        let cfg = IngestConfig {
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            ..IngestConfig::default()
        };
        let calls = AtomicU32::new(0);
        let (e, retries) = with_retry::<()>(&cfg, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(io::Error::new(io::ErrorKind::TimedOut, "still down"))
        })
        .unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
        assert_eq!(retries, 2);
        assert_eq!(calls.load(Ordering::SeqCst), 3, "initial try + 2 retries");
        // Non-transient errors never retry.
        let calls = AtomicU32::new(0);
        let (e, retries) = with_retry::<()>(&cfg, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(io::Error::new(io::ErrorKind::NotFound, "gone"))
        })
        .unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::NotFound);
        assert_eq!(retries, 0);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn checkpoint_roundtrip_and_validation() {
        let dir =
            std::env::temp_dir().join(format!("v6census-ckpt-{}-{}", std::process::id(), line!()));
        let _ = std::fs::remove_dir_all(&dir);
        let day = Day::from_ymd(2015, 3, 17);
        let entries: Vec<(Addr, u64)> = vec![
            ("2001:db8::1".parse().unwrap(), 3),
            ("2001:db8::2".parse().unwrap(), 9),
        ];
        write_checkpoint(&RealFs, &dir, day, &entries).unwrap();
        let (d, back) = load_checkpoint(&RealFs, &checkpoint_path(&dir, day)).unwrap();
        assert_eq!(d, day);
        assert_eq!(back, entries);
        // Tampering is detected.
        let path = checkpoint_path(&dir, day);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("# end\n", "")).unwrap();
        let e = load_checkpoint(&RealFs, &path).unwrap_err();
        assert_eq!(e.label(), "bad-checkpoint");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_bytes_match_the_fmt_rendering() {
        use v6census_synth::{world::epochs, World, WorldConfig};
        let dir =
            std::env::temp_dir().join(format!("v6census-ckfmt-{}-{}", std::process::id(), line!()));
        let _ = std::fs::remove_dir_all(&dir);
        let log = World::standard(WorldConfig::tiny(5)).day_log(epochs::mar2015());
        let mut entries: Vec<(Addr, u64)> = log.entries.iter().map(|e| (e.addr, e.hits)).collect();
        entries.extend([
            (Addr::UNSPECIFIED, 0),
            (Addr(u128::MAX), 1 << 40),
            ("::ffff:192.0.2.1".parse().unwrap(), 10),
            (Addr(1), u64::MAX),
        ]);
        // The rendering `write_checkpoint` replaced: `fmt` per line
        // (with the header total saturating, as it now does).
        let hits = entries
            .iter()
            .fold(0u64, |acc, &(_, h)| acc.saturating_add(h));
        let mut want = format!(
            "# v6census checkpoint v1 {} {} {hits}\n",
            log.day,
            entries.len()
        );
        for (addr, h) in &entries {
            writeln!(want, "{addr}\t{h}").unwrap();
        }
        want.push_str("# end\n");
        write_checkpoint(&RealFs, &dir, log.day, &entries).unwrap();
        let got = std::fs::read(checkpoint_path(&dir, log.day)).unwrap();
        assert_eq!(String::from_utf8(got).unwrap(), want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_sweep_removes_only_aborted_artifacts() {
        let dir =
            std::env::temp_dir().join(format!("v6census-sweep-{}-{}", std::process::id(), line!()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let day = Day::from_ymd(2015, 3, 17);
        write_checkpoint(&RealFs, &dir, day, &[("2001:db8::1".parse().unwrap(), 1)]).unwrap();
        std::fs::write(dir.join(".ckpt-2015-03-18.tsv.tmp"), "torn").unwrap();
        std::fs::write(dir.join(".journal.v1.tmp"), "torn").unwrap();
        assert_eq!(sweep_stale_tmp(&RealFs, &dir).unwrap(), 2);
        assert!(checkpoint_path(&dir, day).exists(), "real artifact kept");
        assert!(!dir.join(".journal.v1.tmp").exists());
        // Idempotent; missing directory is a no-op, not an error.
        assert_eq!(sweep_stale_tmp(&RealFs, &dir).unwrap(), 0);
        assert_eq!(sweep_stale_tmp(&RealFs, &dir.join("nope")).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_labels_and_display() {
        let e = IngestError::Truncated {
            path: PathBuf::from("x.log"),
            expected: 10,
            got: 7,
        };
        assert_eq!(e.label(), "truncated");
        assert!(e.to_string().contains("expected 10"));
        let grouped = errors_by_label(&[
            e.clone(),
            IngestError::MissingDay {
                day: Day::from_ymd(2015, 3, 17),
            },
            e,
        ]);
        assert_eq!(grouped["truncated"], 2);
        assert_eq!(grouped["missing-day"], 1);
    }

    #[test]
    fn clip_respects_char_boundaries() {
        let s = "é".repeat(100);
        let c = clip(&s);
        assert!(c.ends_with('…'));
        assert!(c.len() <= 64);
        assert_eq!(clip("short"), "short");
    }
}
