//! `v6census serve`: a crash-safe, load-shedding census daemon.
//!
//! A long-running process on top of the PR-1/PR-2 failure-handling
//! substrate: it restores the last committed state from an ingest
//! journal, ingests new day logs incrementally in the background, and
//! answers point queries over a hand-rolled HTTP/1.1 surface. The
//! robustness posture is designed in, not bolted on:
//!
//! * **Immutable published snapshots** ([`crate::snapshot`]): ingest
//!   builds the next [`Snapshot`] outside any lock and publishes it with
//!   a single pointer swap; readers never observe a half-ingested day
//!   and never block on ingest.
//! * **Bounded request buffers**: a request head larger than
//!   [`ServeConfig::max_request_bytes`] is answered `431` and dropped —
//!   memory per connection is capped, always.
//! * **Read/write deadlines**: per-socket timeouts plus a whole-header
//!   deadline defeat slow-writer (slowloris) clients with `408`.
//! * **Load shedding**: beyond [`ServeConfig::max_connections`]
//!   concurrent connections, new clients are answered `503` with
//!   `Retry-After` and closed — thread growth is bounded.
//! * **Crash-safe ingest journal**: each committed day writes its atomic
//!   checkpoint (PR 1) and then the journal is atomically rewritten; a
//!   kill -9 at any point leaves either the old or the new journal, so a
//!   restart resumes from the last *completed* day and keeps serving the
//!   pre-crash snapshot.
//! * **Retry and quarantine on ingest failure**: failures reuse the
//!   [`IngestError`] taxonomy; transient ones back off exponentially,
//!   poisoned files are quarantined after the configured retries so one
//!   bad day can never wedge the daemon.
//! * **Graceful drain**: shutdown stops accepting, lets in-flight
//!   responses finish under [`ServeConfig::drain_deadline`], and reports
//!   whether any connection had to be abandoned (the CLI maps that to
//!   its degraded exit code).
//!
//! Endpoints: `/stable/<addr>`, `/classify/<prefix>`, `/stats`,
//! `/healthz`, `/readyz`. Every response body carries the snapshot
//! `generation` and `days` — equal by construction — which the
//! atomicity tests assert on every concurrent read.

use std::collections::BTreeMap;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use v6census_addr::{Addr, Prefix};
use v6census_core::query::{days_seen, prefix_profile};
use v6census_core::spatial::DensityClass;
use v6census_core::temporal::{Day, StabilityParams, StableDays};
use v6census_core::vfs::Vfs;

use crate::ingest::{Census, DaySummary};
use crate::routing::RoutingTable;
use crate::snapshot::{Snapshot, SnapshotCell};
use crate::stream::{
    checkpoint_path, day_files, day_from_filename, load_checkpoint, sweep_stale_tmp, FileOutcome,
    IngestConfig, IngestError, StreamIngestor,
};

/// The daemon's single monotonic clock read: header deadlines, drain
/// deadlines, and backoff pacing all derive from instants returned here.
fn now() -> Instant {
    // lint: allow(L002, reason = "serve needs a monotonic clock for socket/drain deadlines (slowloris defeat, bounded drain); snapshots, response bodies, and equivalence keys never read it")
    Instant::now()
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Startup failures of the daemon. Runtime failures never surface here —
/// they are absorbed per connection or per ingest file and counted in
/// [`ServeMetrics`].
#[derive(Debug)]
pub enum ServeError {
    /// The listen address could not be bound.
    Bind {
        /// The requested bind address.
        addr: String,
        /// OS-level detail.
        detail: String,
    },
    /// The state directory could not be created or prepared.
    State {
        /// The offending path.
        path: PathBuf,
        /// OS-level detail.
        detail: String,
    },
    /// A routing-table entry was structurally invalid.
    Routing {
        /// What was wrong.
        detail: String,
    },
    /// A daemon thread could not be spawned.
    Spawn {
        /// Which thread.
        what: &'static str,
        /// OS-level detail.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, detail } => write!(f, "cannot bind {addr}: {detail}"),
            ServeError::State { path, detail } => {
                write!(f, "cannot prepare state dir {}: {detail}", path.display())
            }
            ServeError::Routing { detail } => write!(f, "bad routing table: {detail}"),
            ServeError::Spawn { what, detail } => {
                write!(f, "cannot spawn {what} thread: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Full configuration of the serving daemon.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Directory scanned for day-log files (`YYYY-MM-DD*`).
    pub source_dir: PathBuf,
    /// Directory for the ingest journal + per-day checkpoints; `None`
    /// disables crash-safe persistence (queries still work).
    pub state_dir: Option<PathBuf>,
    /// Listen address, e.g. `127.0.0.1:0` (port 0: OS-assigned).
    pub bind: String,
    /// Concurrent-connection cap; beyond it new clients are shed with
    /// `503` + `Retry-After`.
    pub max_connections: usize,
    /// Per-socket read timeout.
    pub read_timeout: Duration,
    /// Per-socket write timeout.
    pub write_timeout: Duration,
    /// Whole-request-head deadline (defeats slowloris).
    pub header_deadline: Duration,
    /// Hard cap on buffered request bytes; beyond it the client gets
    /// `431` and the connection closes.
    pub max_request_bytes: usize,
    /// How long a graceful drain waits for in-flight responses.
    pub drain_deadline: Duration,
    /// How often the background ingest rescans `source_dir`.
    pub poll_interval: Duration,
    /// Streaming-ingest configuration (error budget, retries, backoff).
    /// `checkpoint_dir` is overridden to `state_dir` at spawn.
    pub ingest: IngestConfig,
    /// nd-stability parameters for the published `stable` set.
    pub params: StabilityParams,
    /// Density class `/classify` profiles report against.
    pub dense_class: DensityClass,
    /// Optional BGP entries for ASN attribution in `/classify`.
    pub routing: Vec<(Prefix, u32)>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            source_dir: PathBuf::from("."),
            state_dir: None,
            bind: "127.0.0.1:0".to_string(),
            max_connections: 64,
            read_timeout: Duration::from_millis(2_000),
            write_timeout: Duration::from_millis(2_000),
            header_deadline: Duration::from_millis(3_000),
            max_request_bytes: 8 * 1024,
            drain_deadline: Duration::from_millis(5_000),
            poll_interval: Duration::from_millis(200),
            ingest: IngestConfig::default(),
            params: StabilityParams::nd(3),
            dense_class: DensityClass::new(8, 64),
            routing: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Liveness counters, updated lock-free by every thread.
#[derive(Default)]
pub struct ServeMetrics {
    /// Connections accepted (including ones later shed).
    pub accepted: AtomicU64,
    /// Requests answered with a 2xx.
    pub served: AtomicU64,
    /// Connections shed with `503` at the cap.
    pub shed: AtomicU64,
    /// Requests rejected as malformed (`400`/`405`).
    pub malformed: AtomicU64,
    /// Requests rejected as oversized (`431`).
    pub oversized: AtomicU64,
    /// Requests that hit the header deadline (`408`).
    pub timeouts: AtomicU64,
    /// Clients that disconnected before completing a request.
    pub early_disconnects: AtomicU64,
    /// Responses dropped because the client went away mid-write
    /// (broken pipe / reset) — logged and dropped, never fatal.
    pub dropped_responses: AtomicU64,
    /// Unknown-route requests (`404`).
    pub not_found: AtomicU64,
    /// Well-routed requests with unparseable operands (`400`).
    pub bad_queries: AtomicU64,
    /// Days committed and published by background ingest.
    pub ingested_days: AtomicU64,
    /// Ingest attempts that failed (before any retry/quarantine).
    pub ingest_failures: AtomicU64,
    /// Source files quarantined after exhausting retries.
    pub quarantined_files: AtomicU64,
    /// Days restored from the journal + checkpoints at startup.
    pub resumed_days: AtomicU64,
    /// Startup recoveries: torn journal or unreadable checkpoints
    /// skipped (their days re-ingest from source).
    pub recovered_errors: AtomicU64,
    /// Stale `*.tmp` files deleted by the startup sweep.
    pub stale_tmp_removed: AtomicU64,
}

/// A plain-value reading of [`ServeMetrics`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsReading {
    /// See [`ServeMetrics::accepted`].
    pub accepted: u64,
    /// See [`ServeMetrics::served`].
    pub served: u64,
    /// See [`ServeMetrics::shed`].
    pub shed: u64,
    /// See [`ServeMetrics::malformed`].
    pub malformed: u64,
    /// See [`ServeMetrics::oversized`].
    pub oversized: u64,
    /// See [`ServeMetrics::timeouts`].
    pub timeouts: u64,
    /// See [`ServeMetrics::early_disconnects`].
    pub early_disconnects: u64,
    /// See [`ServeMetrics::dropped_responses`].
    pub dropped_responses: u64,
    /// See [`ServeMetrics::not_found`].
    pub not_found: u64,
    /// See [`ServeMetrics::bad_queries`].
    pub bad_queries: u64,
    /// See [`ServeMetrics::ingested_days`].
    pub ingested_days: u64,
    /// See [`ServeMetrics::ingest_failures`].
    pub ingest_failures: u64,
    /// See [`ServeMetrics::quarantined_files`].
    pub quarantined_files: u64,
    /// See [`ServeMetrics::resumed_days`].
    pub resumed_days: u64,
    /// See [`ServeMetrics::recovered_errors`].
    pub recovered_errors: u64,
    /// See [`ServeMetrics::stale_tmp_removed`].
    pub stale_tmp_removed: u64,
}

impl ServeMetrics {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough reading for reports (counters are
    /// independent; exactness across counters is not promised).
    pub fn read(&self) -> MetricsReading {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsReading {
            accepted: g(&self.accepted),
            served: g(&self.served),
            shed: g(&self.shed),
            malformed: g(&self.malformed),
            oversized: g(&self.oversized),
            timeouts: g(&self.timeouts),
            early_disconnects: g(&self.early_disconnects),
            dropped_responses: g(&self.dropped_responses),
            not_found: g(&self.not_found),
            bad_queries: g(&self.bad_queries),
            ingested_days: g(&self.ingested_days),
            ingest_failures: g(&self.ingest_failures),
            quarantined_files: g(&self.quarantined_files),
            resumed_days: g(&self.resumed_days),
            recovered_errors: g(&self.recovered_errors),
            stale_tmp_removed: g(&self.stale_tmp_removed),
        }
    }
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

/// The journal file inside a state directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.v1")
}

/// Atomically and durably rewrites the journal (temp file + fsync +
/// rename via [`Vfs::write_atomic`]) listing the committed days in
/// order. A crash mid-write leaves the previous journal intact, and a
/// completed write survives power loss.
pub fn write_journal(fs: &dyn Vfs, dir: &Path, days: &[Day]) -> io::Result<()> {
    fs.create_dir_all(dir)?;
    let mut text = String::from("# v6census serve journal v1\n");
    for day in days {
        text.push_str(&day.to_string());
        text.push('\n');
    }
    text.push_str(&format!("# end {}\n", days.len()));
    fs.write_atomic(&journal_path(dir), text.as_bytes())
}

/// Loads and validates a journal. A missing file is an empty journal; a
/// torn or corrupt one is a typed error the caller recovers from by
/// re-ingesting from source.
pub fn load_journal(fs: &dyn Vfs, path: &Path) -> Result<Vec<Day>, IngestError> {
    let bad = |reason: String| IngestError::BadCheckpoint {
        path: path.to_path_buf(),
        reason,
    };
    let text = match fs.read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(IngestError::io(path, &e, 0)),
    };
    let mut lines = text.lines();
    match lines.next() {
        Some("# v6census serve journal v1") => {}
        _ => return Err(bad("missing journal header".into())),
    }
    let mut days = Vec::new();
    let mut declared: Option<usize> = None;
    for line in lines {
        if let Some(rest) = line.strip_prefix("# end ") {
            declared = rest.trim().parse().ok();
            break;
        }
        match day_from_filename(line.trim()) {
            Some(day) => days.push(day),
            None => return Err(bad(format!("bad journal day {line:?}"))),
        }
    }
    match declared {
        Some(n) if n == days.len() => Ok(days),
        Some(n) => Err(bad(format!(
            "journal count mismatch: declared {n}, got {}",
            days.len()
        ))),
        None => Err(bad("journal missing end marker (torn write)".into())),
    }
}

/// What startup restoration accomplished, surfaced on `/healthz` and
/// `/stats` so operators can watch recovery happen.
#[derive(Default)]
pub(crate) struct RestoreOutcome {
    /// Days restored cleanly from journal + checkpoints, in order.
    pub(crate) restored: Vec<Day>,
    /// Torn journal / unreadable checkpoints skipped (their days
    /// re-ingest from source).
    pub(crate) recovered: u64,
    /// Stale `*.tmp` leftovers deleted by the startup sweep.
    pub(crate) swept_tmp: u64,
}

/// Restores a census from the journal + checkpoints. First sweeps and
/// deletes stale `*.tmp` files an aborted atomic write left behind
/// (counted, never silently orphaned). Days whose checkpoint is missing
/// or corrupt are skipped (and re-ingested from source later); a torn
/// journal restores nothing.
pub(crate) fn restore_state(fs: &dyn Vfs, state: &Path) -> (Census, RestoreOutcome) {
    let mut census = Census::new_empty();
    let mut out = RestoreOutcome {
        swept_tmp: sweep_stale_tmp(fs, state).unwrap_or(0),
        ..RestoreOutcome::default()
    };
    let journal_days = match load_journal(fs, &journal_path(state)) {
        Ok(days) => days,
        Err(_) => {
            // Torn/corrupt journal: recover by starting empty; source
            // re-ingest rebuilds, checkpoints make it cheap.
            out.recovered = 1;
            return (census, out);
        }
    };
    for day in journal_days {
        match load_checkpoint(fs, &checkpoint_path(state, day)) {
            Ok((ckpt_day, entries)) if ckpt_day == day => {
                let summary = DaySummary::from_entries(day, entries);
                if census.try_ingest(summary).is_ok() {
                    out.restored.push(day);
                } else {
                    out.recovered += 1;
                }
            }
            _ => out.recovered += 1,
        }
    }
    (census, out)
}

// ---------------------------------------------------------------------------
// The follow step
// ---------------------------------------------------------------------------

/// What the daemon follows its source directory with: the census, every
/// day's stable set, and the committed days in journal order. Startup
/// ([`Follower::restore`]) and the per-day step ([`Follower::step`]) are
/// the daemon's own; the crash explorer ([`crate::crashtest`]) drives
/// the same two calls, so what it proves is this path, not a copy.
pub(crate) struct Follower {
    ingestor: StreamIngestor,
    /// Where the journal is written; `None` disables it.
    state_dir: Option<PathBuf>,
    dense_class: DensityClass,
    census: Census,
    stability: StableDays,
    /// Committed days in commit order (restored first).
    pub(crate) committed: Vec<Day>,
}

/// One committed day: the snapshot to publish and the journal write's
/// result (the daemon logs and survives a failure; the explorer stops).
pub(crate) struct Followed {
    pub(crate) day: Day,
    pub(crate) snapshot: Snapshot,
    pub(crate) journal: io::Result<()>,
}

impl Follower {
    /// Startup: restores the census from `state_dir`'s journal and
    /// checkpoints (when set), computes every day's stable set once, and
    /// assembles the initial snapshot.
    pub(crate) fn restore(
        ingest: IngestConfig,
        state_dir: Option<PathBuf>,
        params: StabilityParams,
        dense_class: DensityClass,
    ) -> (Follower, Snapshot, RestoreOutcome) {
        let (census, outcome) = match &state_dir {
            Some(state) => restore_state(ingest.vfs.as_ref(), state),
            None => (Census::new_empty(), RestoreOutcome::default()),
        };
        let stability = StableDays::of(census.other_daily(), params);
        let snapshot = Snapshot::with_stability(census.clone(), &stability, dense_class);
        let follower = Follower {
            ingestor: StreamIngestor::new(ingest),
            state_dir,
            dense_class,
            census,
            stability,
            committed: outcome.restored.clone(),
        };
        (follower, snapshot, outcome)
    }

    /// Day files in `source` not yet in the census, ascending by day.
    pub(crate) fn pending(&self, source: &Path) -> Result<Vec<(Day, PathBuf)>, IngestError> {
        let mut files = day_files(self.ingestor.cfg.vfs.as_ref(), source)?;
        files.retain(|(day, _)| !self.census.has_day(*day));
        Ok(files)
    }

    /// The follow step: parses and commits one day file (checkpoint
    /// written when configured), rewrites the journal, folds the day
    /// into the stable sets — O(new day + window), not O(days) — and
    /// assembles the next snapshot. `Ok(None)`: the file is structurally
    /// bad and was *not* committed. `Err`: a typed failure worth
    /// retrying.
    pub(crate) fn step(&mut self, path: &Path) -> Result<Option<Followed>, IngestError> {
        let parsed = self.ingestor.parse_file(path)?;
        let day = parsed.summary.as_ref().map(|s| s.day);
        let report = self
            .ingestor
            .commit_parsed(parsed, &mut self.census, &mut self.committed)?;
        let committed = matches!(
            report.outcome,
            FileOutcome::Ingested | FileOutcome::FromCheckpoint
        );
        let Some(day) = day.filter(|_| committed) else {
            return Ok(None);
        };
        let journal = match &self.state_dir {
            Some(state) => write_journal(self.ingestor.cfg.vfs.as_ref(), state, &self.committed),
            None => Ok(()),
        };
        self.stability.fold(self.census.other_daily(), day);
        let snapshot =
            Snapshot::with_stability(self.census.clone(), &self.stability, self.dense_class);
        Ok(Some(Followed {
            day,
            snapshot,
            journal,
        }))
    }
}

// ---------------------------------------------------------------------------
// Shared daemon state
// ---------------------------------------------------------------------------

struct Shared {
    cfg: ServeConfig,
    cell: SnapshotCell,
    metrics: ServeMetrics,
    shutdown: AtomicBool,
    draining: AtomicBool,
    ready: AtomicBool,
    open: AtomicUsize,
    routing: Option<RoutingTable>,
    /// The generation restored from the journal at startup; 0 means a
    /// cold start (nothing restored — fresh state or full recovery).
    restored_generation: u64,
}

impl Shared {
    fn log(&self, line: &str) {
        let _ = writeln!(io::stderr(), "[serve] {line}");
    }
}

/// Decrements the open-connection gauge when a connection thread ends,
/// however it ends.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.open.fetch_sub(1, Ordering::AcqRel);
    }
}

/// What a graceful drain accomplished.
#[derive(Clone, Copy, Debug)]
pub struct DrainReport {
    /// True when every in-flight connection finished before the drain
    /// deadline.
    pub clean: bool,
    /// Connections abandoned at the deadline.
    pub abandoned: usize,
    /// The final published generation.
    pub generation: u64,
    /// Final counters.
    pub metrics: MetricsReading,
}

/// A handle to a running daemon: address discovery, introspection for
/// tests and benches, and graceful shutdown.
pub struct ServeHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    ingest: Option<JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound listen address (port resolved when binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections holding a slot right now: accepted under the cap
    /// and not yet closed (shed connections never hold one).
    pub fn open_connections(&self) -> usize {
        self.shared.open.load(Ordering::Acquire)
    }

    /// Current counters.
    pub fn metrics(&self) -> MetricsReading {
        self.shared.metrics.read()
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.cell.load()
    }

    /// True once the daemon answers `/readyz` with 200.
    pub fn is_ready(&self) -> bool {
        self.shared.ready.load(Ordering::Acquire)
    }

    /// Graceful drain: stop accepting, wait for in-flight connections
    /// under the drain deadline, stop ingest, and report.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.shutdown.store(true, Ordering::Release);
        let deadline = now() + self.shared.cfg.drain_deadline;
        while self.shared.open.load(Ordering::Acquire) > 0 && now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let abandoned = self.shared.open.load(Ordering::Acquire);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.ingest.take() {
            let _ = h.join();
        }
        DrainReport {
            clean: abandoned == 0,
            abandoned,
            generation: self.shared.cell.load().generation,
            metrics: self.shared.metrics.read(),
        }
    }
}

// ---------------------------------------------------------------------------
// Spawn
// ---------------------------------------------------------------------------

/// Starts the daemon: restores journal state, publishes the initial
/// snapshot, binds the listener, and spawns the accept + ingest threads.
pub fn spawn(mut cfg: ServeConfig) -> Result<ServeHandle, ServeError> {
    if let Some(state) = &cfg.state_dir {
        cfg.ingest
            .vfs
            .create_dir_all(state)
            .map_err(|e| ServeError::State {
                path: state.clone(),
                detail: e.to_string(),
            })?;
        cfg.ingest.checkpoint_dir = Some(state.clone());
    }
    let (follower, initial, restore) = Follower::restore(
        cfg.ingest.clone(),
        cfg.state_dir.clone(),
        cfg.params,
        cfg.dense_class,
    );
    let resumed = restore.restored.len() as u64;
    let routing = if cfg.routing.is_empty() {
        None
    } else {
        Some(
            RoutingTable::from_entries(cfg.routing.iter().copied()).map_err(|e| {
                ServeError::Routing {
                    detail: e.to_string(),
                }
            })?,
        )
    };
    let ready_now = initial.generation > 0;

    let listener = TcpListener::bind(&cfg.bind).map_err(|e| ServeError::Bind {
        addr: cfg.bind.clone(),
        detail: e.to_string(),
    })?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ServeError::Bind {
            addr: cfg.bind.clone(),
            detail: e.to_string(),
        })?;
    let addr = listener.local_addr().map_err(|e| ServeError::Bind {
        addr: cfg.bind.clone(),
        detail: e.to_string(),
    })?;

    let shared = Arc::new(Shared {
        cfg,
        cell: SnapshotCell::new(initial),
        metrics: ServeMetrics::default(),
        shutdown: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        ready: AtomicBool::new(ready_now),
        open: AtomicUsize::new(0),
        routing,
        restored_generation: resumed,
    });
    shared
        .metrics
        .resumed_days
        .store(resumed, Ordering::Relaxed);
    shared
        .metrics
        .recovered_errors
        .store(restore.recovered, Ordering::Relaxed);
    shared
        .metrics
        .stale_tmp_removed
        .store(restore.swept_tmp, Ordering::Relaxed);
    if restore.swept_tmp > 0 {
        shared.log(&format!(
            "startup sweep removed {} stale tmp file(s)",
            restore.swept_tmp
        ));
    }

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("v6c-serve-accept".into())
        .spawn(move || accept_loop(&accept_shared, &listener))
        .map_err(|e| ServeError::Spawn {
            what: "accept",
            detail: e.to_string(),
        })?;

    let ingest_shared = Arc::clone(&shared);
    let ingest = std::thread::Builder::new()
        .name("v6c-serve-ingest".into())
        .spawn(move || ingest_loop(&ingest_shared, follower))
        .map_err(|e| ServeError::Spawn {
            what: "ingest",
            detail: e.to_string(),
        })?;

    Ok(ServeHandle {
        addr,
        shared,
        accept: Some(accept),
        ingest: Some(ingest),
    })
}

// ---------------------------------------------------------------------------
// Accept loop + load shedding
// ---------------------------------------------------------------------------

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                ServeMetrics::bump(&shared.metrics.accepted);
                let open = shared.open.load(Ordering::Acquire);
                if open >= shared.cfg.max_connections {
                    shed(shared, stream);
                    continue;
                }
                shared.open.fetch_add(1, Ordering::AcqRel);
                let conn_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("v6c-serve-conn".into())
                    .spawn(move || {
                        let _guard = ConnGuard(Arc::clone(&conn_shared));
                        handle_connection(&conn_shared, stream);
                    });
                if let Err(e) = spawned {
                    // The guard never ran; undo the reservation and shed.
                    shared.open.fetch_sub(1, Ordering::AcqRel);
                    shared.log(&format!("connection thread spawn failed: {e}"));
                    ServeMetrics::bump(&shared.metrics.shed);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                // Transient accept failure (EMFILE under a storm, …):
                // log, breathe, keep serving.
                shared.log(&format!("accept error: {e}"));
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Accept-then-503: the client gets an explicit retry signal instead of
/// a hang or a reset. Runs on the accept thread, so both the write and
/// the lingering close are bounded by short budgets — a hostile shed
/// target can stall accepting for at most ~½ s.
fn shed(shared: &Arc<Shared>, mut stream: TcpStream) {
    ServeMetrics::bump(&shared.metrics.shed);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    if write_response(
        &mut stream,
        503,
        "Service Unavailable",
        Some(1),
        "{\"error\":\"overloaded\"}\n",
    )
    .is_ok()
    {
        drain_then_close(&mut stream, Duration::from_millis(300));
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

enum HeadOutcome {
    Request(String),
    TooLarge,
    TimedOut,
    Disconnected,
    Failed(String),
}

/// Reads one request head under the byte cap and header deadline.
fn read_head(stream: &mut TcpStream, cfg: &ServeConfig) -> HeadOutcome {
    let deadline = now() + cfg.header_deadline;
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut tmp = [0u8; 512];
    loop {
        if buf.len() > cfg.max_request_bytes {
            return HeadOutcome::TooLarge;
        }
        if now() >= deadline {
            return HeadOutcome::TimedOut;
        }
        match stream.read(&mut tmp) {
            Ok(0) => return HeadOutcome::Disconnected,
            Ok(n) => {
                buf.extend_from_slice(tmp.get(..n).unwrap_or(&[]));
                if head_complete(&buf) {
                    return match String::from_utf8(buf) {
                        Ok(text) => HeadOutcome::Request(text),
                        Err(_) => HeadOutcome::Failed("non-utf8 request head".into()),
                    };
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Socket timeout: loop re-checks the overall deadline.
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::ConnectionReset
                    || e.kind() == io::ErrorKind::BrokenPipe =>
            {
                return HeadOutcome::Disconnected;
            }
            Err(e) => return HeadOutcome::Failed(e.to_string()),
        }
    }
}

fn head_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let cfg = &shared.cfg;
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let _ = stream.set_nodelay(true);

    let head = match read_head(&mut stream, cfg) {
        HeadOutcome::Request(text) => text,
        HeadOutcome::TooLarge => {
            ServeMetrics::bump(&shared.metrics.oversized);
            deliver(
                shared,
                &mut stream,
                431,
                "Request Header Fields Too Large",
                None,
                "{\"error\":\"request too large\"}\n",
            );
            return;
        }
        HeadOutcome::TimedOut => {
            ServeMetrics::bump(&shared.metrics.timeouts);
            deliver(
                shared,
                &mut stream,
                408,
                "Request Timeout",
                None,
                "{\"error\":\"request timeout\"}\n",
            );
            return;
        }
        HeadOutcome::Disconnected => {
            ServeMetrics::bump(&shared.metrics.early_disconnects);
            return;
        }
        HeadOutcome::Failed(detail) => {
            ServeMetrics::bump(&shared.metrics.malformed);
            shared.log(&format!("malformed request: {detail}"));
            deliver(
                shared,
                &mut stream,
                400,
                "Bad Request",
                None,
                "{\"error\":\"bad request\"}\n",
            );
            return;
        }
    };

    let Some((method, target)) = parse_request_line(&head) else {
        ServeMetrics::bump(&shared.metrics.malformed);
        deliver(
            shared,
            &mut stream,
            400,
            "Bad Request",
            None,
            "{\"error\":\"bad request line\"}\n",
        );
        return;
    };
    if method != "GET" {
        ServeMetrics::bump(&shared.metrics.malformed);
        deliver(
            shared,
            &mut stream,
            405,
            "Method Not Allowed",
            None,
            "{\"error\":\"only GET\"}\n",
        );
        return;
    }

    let (status, reason, body) = route(shared, target);
    let retry = if status == 503 { Some(1) } else { None };
    if status == 200 {
        ServeMetrics::bump(&shared.metrics.served);
    }
    deliver(shared, &mut stream, status, reason, retry, &body);
}

/// Writes a response; a client that vanished mid-write is logged and
/// dropped per connection — never fatal to the daemon. Ends with a
/// lingering close so the response survives unread input.
fn deliver(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    retry_after: Option<u64>,
    body: &str,
) {
    match write_response(stream, status, reason, retry_after, body) {
        Ok(()) => drain_then_close(stream, Duration::from_millis(1_000)),
        Err(e) => {
            ServeMetrics::bump(&shared.metrics.dropped_responses);
            if e.kind() != io::ErrorKind::BrokenPipe
                && e.kind() != io::ErrorKind::ConnectionReset
                && e.kind() != io::ErrorKind::ConnectionAborted
            {
                shared.log(&format!("response write failed: {e}"));
            }
        }
    }
}

/// Lingering close: half-close the write side, then briefly drain
/// whatever the client is still sending. Closing a socket with unread
/// input makes the kernel answer with RST, which can destroy the final
/// response (a 431 to a client mid-blob, a 503 to an unread request)
/// before the client reads it. The drain buffer is one fixed KiB and the
/// loop is deadline-bounded, so hostile clients cannot pin memory — only
/// at most `budget` of this connection thread's time.
fn drain_then_close(stream: &mut TcpStream, budget: Duration) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let deadline = now() + budget;
    let mut tmp = [0u8; 1024];
    while now() < deadline {
        match stream.read(&mut tmp) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    Some((method, target))
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    retry_after: Option<u64>,
    body: &str,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    if let Some(secs) = retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// A finite rendering of a possibly-degenerate float measurement.
fn fin(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

fn route(shared: &Arc<Shared>, target: &str) -> (u16, &'static str, String) {
    let snapshot = shared.cell.load();
    let gen = snapshot.generation;
    let days = snapshot.days();
    match target {
        "/healthz" => {
            let m = shared.metrics.read();
            let body = format!(
                "{{\"status\":\"ok\",\"generation\":{gen},\"days\":{days},\"open\":{},\"draining\":{},\"resumed\":{},\"served\":{},\"shed\":{},\"quarantined\":{},{}}}\n",
                shared.open.load(Ordering::Acquire),
                shared.draining.load(Ordering::Acquire),
                m.resumed_days,
                m.served,
                m.shed,
                m.quarantined_files,
                restore_json(shared, &m),
            );
            (200, "OK", body)
        }
        "/readyz" => {
            let ready =
                shared.ready.load(Ordering::Acquire) && !shared.draining.load(Ordering::Acquire);
            if ready {
                (
                    200,
                    "OK",
                    format!("{{\"status\":\"ready\",\"generation\":{gen},\"days\":{days}}}\n"),
                )
            } else {
                (
                    503,
                    "Service Unavailable",
                    format!("{{\"status\":\"not-ready\",\"generation\":{gen},\"days\":{days}}}\n"),
                )
            }
        }
        "/stats" => (200, "OK", stats_body(shared, &snapshot)),
        _ => {
            if let Some(raw) = target.strip_prefix("/stable/") {
                return stable_route(shared, &snapshot, raw);
            }
            if let Some(raw) = target.strip_prefix("/classify/") {
                return classify_route(shared, &snapshot, raw);
            }
            ServeMetrics::bump(&shared.metrics.not_found);
            (
                404,
                "Not Found",
                format!("{{\"error\":\"no such route\",\"generation\":{gen},\"days\":{days}}}\n"),
            )
        }
    }
}

/// The last-restore outcome as a JSON fragment (no surrounding braces):
/// whether this process cold-started or resumed a journaled generation,
/// plus what recovery had to do to get there.
fn restore_json(shared: &Arc<Shared>, m: &MetricsReading) -> String {
    format!(
        "\"restore\":{{\"restored_generation\":{},\"cold_start\":{},\"recovered\":{},\"stale_tmp_removed\":{}}}",
        shared.restored_generation,
        shared.restored_generation == 0,
        m.recovered_errors,
        m.stale_tmp_removed,
    )
}

fn stats_body(shared: &Arc<Shared>, snapshot: &Snapshot) -> String {
    let gen = snapshot.generation;
    let days = snapshot.days();
    let reference = match snapshot.reference {
        Some(r) => format!("\"{r}\""),
        None => "null".to_string(),
    };
    let schemes: Vec<String> = snapshot
        .stats
        .scheme_counts
        .iter()
        .map(|(label, n)| format!("\"{label}\":{n}"))
        .collect();
    let daily: Vec<String> = snapshot
        .stats
        .daily
        .iter()
        .map(|d| {
            format!(
                "{{\"day\":\"{}\",\"active\":{},\"stable\":{}}}",
                d.day, d.active, d.stable
            )
        })
        .collect();
    let m = shared.metrics.read();
    format!(
        "{{\"generation\":{gen},\"days\":{days},\"reference\":{reference},\"params\":\"{}\",\"active\":{},\"stable\":{},\"quarantined\":{},{},\"schemes\":{{{}}},\"daily\":[{}]}}\n",
        snapshot.params.label(),
        snapshot.active.len(),
        snapshot.stable.len(),
        m.quarantined_files,
        restore_json(shared, &m),
        schemes.join(","),
        daily.join(","),
    )
}

fn stable_route(
    shared: &Arc<Shared>,
    snapshot: &Snapshot,
    raw: &str,
) -> (u16, &'static str, String) {
    let gen = snapshot.generation;
    let days = snapshot.days();
    let Ok(addr) = raw.parse::<Addr>() else {
        ServeMetrics::bump(&shared.metrics.bad_queries);
        return (
            400,
            "Bad Request",
            format!("{{\"error\":\"bad address\",\"generation\":{gen},\"days\":{days}}}\n"),
        );
    };
    let active = snapshot.active.contains(addr);
    let stable = snapshot.stable.contains(addr);
    let seen = days_seen(snapshot.census.other_daily(), addr).len();
    let body = format!(
        "{{\"generation\":{gen},\"days\":{days},\"addr\":\"{addr}\",\"active\":{active},\"stable\":{stable},\"params\":\"{}\",\"days_seen\":{seen}}}\n",
        snapshot.params.label(),
    );
    (200, "OK", body)
}

fn classify_route(
    shared: &Arc<Shared>,
    snapshot: &Snapshot,
    raw: &str,
) -> (u16, &'static str, String) {
    let gen = snapshot.generation;
    let days = snapshot.days();
    let prefix = if raw.contains('/') {
        Prefix::from_str_lossy(raw).ok()
    } else {
        raw.parse::<Addr>().ok().map(Prefix::host)
    };
    let Some(prefix) = prefix else {
        ServeMetrics::bump(&shared.metrics.bad_queries);
        return (
            400,
            "Bad Request",
            format!("{{\"error\":\"bad prefix\",\"generation\":{gen},\"days\":{days}}}\n"),
        );
    };
    let profile = prefix_profile(&snapshot.active, prefix, snapshot.dense_class);
    let flatline = match profile.signature.flatline_at {
        Some(bit) => bit.to_string(),
        None => "null".to_string(),
    };
    let asn = match shared
        .routing
        .as_ref()
        .and_then(|t| t.asn_of(prefix.addr()))
    {
        Some(asn) => asn.to_string(),
        None => "null".to_string(),
    };
    let body = format!(
        "{{\"generation\":{gen},\"days\":{days},\"prefix\":\"{prefix}\",\"members\":{},\"privacy\":{},\"signature\":{{\"iid_head_ratio\":{:.4},\"u_bit_ratio\":{:.4},\"flatline_at\":{flatline}}},\"tail_prominence\":{:.4},\"common_prefix_len\":{},\"dense\":{{\"class\":\"{}\",\"prefixes\":{},\"members\":{}}},\"asn\":{asn}}}\n",
        profile.members,
        profile.privacy,
        fin(profile.signature.iid_head_ratio),
        fin(profile.signature.u_bit_ratio),
        fin(profile.tail_prominence),
        profile.common_prefix_len,
        snapshot.dense_class,
        profile.dense_prefixes,
        profile.dense_members,
    );
    (200, "OK", body)
}

// ---------------------------------------------------------------------------
// Background ingest
// ---------------------------------------------------------------------------

/// Sleeps up to `total`, in slices, returning early on shutdown.
fn nap(shared: &Arc<Shared>, total: Duration) {
    let deadline = now() + total;
    while now() < deadline {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Follows the source directory with [`Follower::step`], adding the
/// daemon's policy around it: retries with backoff, quarantine, metrics,
/// logging and shutdown. An unreadable source directory is retried at
/// the next poll.
fn ingest_loop(shared: &Arc<Shared>, mut follower: Follower) {
    // Per-file failure counts; a file past `max_retries` is quarantined.
    let mut failures: BTreeMap<PathBuf, u32> = BTreeMap::new();
    let max_retries = shared.cfg.ingest.max_retries;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut pending = follower.pending(&shared.cfg.source_dir).unwrap_or_default();
        pending.retain(|(_, path)| failures.get(path).copied().unwrap_or(0) <= max_retries);
        let mut backoff_after_error = false;
        for (_, path) in pending {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            match follower.step(&path) {
                Ok(Some(followed)) => {
                    failures.remove(&path);
                    if let Err(e) = followed.journal {
                        shared.log(&format!("journal write failed: {e}"));
                    }
                    let generation = shared.cell.publish(followed.snapshot);
                    ServeMetrics::bump(&shared.metrics.ingested_days);
                    shared.ready.store(true, Ordering::Release);
                    shared.log(&format!(
                        "ingested {}, published generation {generation}",
                        followed.day
                    ));
                }
                Ok(None) => {
                    // Structurally bad file (error budget, truncation,
                    // duplicate): permanently quarantined — rescans must
                    // not retry a poisoned file forever.
                    ServeMetrics::bump(&shared.metrics.ingest_failures);
                    ServeMetrics::bump(&shared.metrics.quarantined_files);
                    failures.insert(path.clone(), max_retries + 1);
                    shared.log(&format!("quarantined {}", path.display()));
                }
                Err(e) => {
                    // Typed failure (I/O, strict-mode): retry with
                    // exponential backoff across scan rounds, then
                    // quarantine.
                    ServeMetrics::bump(&shared.metrics.ingest_failures);
                    let n = failures.entry(path.clone()).or_insert(0);
                    *n += 1;
                    let attempts = *n;
                    shared.log(&format!(
                        "ingest of {} failed (attempt {attempts}): [{}] {e}",
                        path.display(),
                        e.label(),
                    ));
                    if attempts > max_retries {
                        ServeMetrics::bump(&shared.metrics.quarantined_files);
                        shared.log(&format!("quarantined {}", path.display()));
                    } else {
                        let backoff = shared
                            .cfg
                            .ingest
                            .retry_backoff
                            .saturating_mul(2u32.saturating_pow(attempts.min(6)));
                        nap(shared, backoff);
                    }
                    backoff_after_error = true;
                    break;
                }
            }
        }
        // First full scan done (even over an empty dir): the daemon has
        // seen everything there is; it is as ready as it will get.
        shared.ready.store(true, Ordering::Release);
        if !backoff_after_error {
            nap(shared, shared.cfg.poll_interval);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("v6census-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    use v6census_core::vfs::RealFs;

    #[test]
    fn journal_round_trips() {
        let dir = tempdir("journal");
        let d0 = Day::from_ymd(2015, 3, 17);
        assert_eq!(
            load_journal(&RealFs, &journal_path(&dir)).unwrap(),
            Vec::new()
        );
        write_journal(&RealFs, &dir, &[d0, d0 + 1, d0 + 2]).unwrap();
        assert_eq!(
            load_journal(&RealFs, &journal_path(&dir)).unwrap(),
            vec![d0, d0 + 1, d0 + 2]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_is_a_typed_error() {
        let dir = tempdir("torn");
        // No end marker: a kill -9 mid-write before the atomic rename
        // can't produce this (rename is atomic), but a corrupt disk can.
        std::fs::write(
            journal_path(&dir),
            "# v6census serve journal v1\n2015-03-17\n",
        )
        .unwrap();
        let err = load_journal(&RealFs, &journal_path(&dir)).unwrap_err();
        assert_eq!(err.label(), "bad-checkpoint");
        // Count mismatch is also torn.
        std::fs::write(
            journal_path(&dir),
            "# v6census serve journal v1\n2015-03-17\n# end 4\n",
        )
        .unwrap();
        assert!(load_journal(&RealFs, &journal_path(&dir)).is_err());
        // Garbage day line.
        std::fs::write(
            journal_path(&dir),
            "# v6census serve journal v1\nnot-a-day\n# end 1\n",
        )
        .unwrap();
        assert!(load_journal(&RealFs, &journal_path(&dir)).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_skips_missing_checkpoints_and_sweeps_tmp() {
        let dir = tempdir("restore");
        let d0 = Day::from_ymd(2015, 3, 17);
        let addr: Addr = "2001:db8::1".parse().unwrap();
        crate::stream::write_checkpoint(&RealFs, &dir, d0, &[(addr, 3)]).unwrap();
        // Journal claims two days; only one checkpoint exists. An
        // aborted atomic write also left a stale tmp file behind.
        write_journal(&RealFs, &dir, &[d0, d0 + 1]).unwrap();
        std::fs::write(dir.join(".ckpt-2015-03-18.tsv.tmp"), "torn").unwrap();
        let (census, out) = restore_state(&RealFs, &dir);
        assert_eq!(out.restored, vec![d0]);
        assert_eq!(out.recovered, 1);
        assert_eq!(out.swept_tmp, 1);
        assert!(!dir.join(".ckpt-2015-03-18.tsv.tmp").exists());
        assert!(census.has_day(d0));
        assert!(!census.has_day(d0 + 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn head_completion_and_request_line() {
        assert!(head_complete(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(head_complete(b"GET / HTTP/1.1\n\n"));
        assert!(!head_complete(b"GET / HTTP/1.1\r\n"));
        assert_eq!(
            parse_request_line("GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("GET", "/stats"))
        );
        assert_eq!(parse_request_line("FLOOP\r\n\r\n"), None);
        assert_eq!(parse_request_line("GET /stats SMTP/1.0\r\n\r\n"), None);
    }
}
