//! Supervised parallel execution of the analysis pipeline.
//!
//! The paper's measurement ran for years over a planetary CDN; at that
//! scale the question is not *whether* an analysis shard will misbehave
//! but *what the run does when it does*. This module runs the census
//! pipeline as a sequence of stages, each a set of independent work
//! units executed on a scoped pool of worker threads, under four
//! guarantees:
//!
//! * **Panic isolation** — every unit runs under `catch_unwind`. A
//!   poisoned shard is retried once on a fresh worker; if it dies again
//!   it is *excluded and recorded*, never allowed to abort the run.
//! * **Deadlines** — each stage has an optional wall-clock deadline. On
//!   expiry the collector flips the shared cancellation token, abandons
//!   hung workers (they are detached threads; a stuck unit cannot hold
//!   the run hostage), and records which units timed out vs. never ran.
//! * **Resource budgets** — units receive a [`UnitCtx`] carrying the
//!   trie node budget; a densify unit that hits the cap degrades to a
//!   coarser aggregation level ([`v6census_trie::RadixTree::densify_budgeted`])
//!   and reports that it did.
//! * **Degraded-mode results** — every stage yields a [`StageReport`],
//!   rolled into a [`RunManifest`]; every analysis product is an
//!   [`Annotated`] value on the `Exact ≥ Degraded ≥ Partial` lattice, so
//!   a reader can always tell what a number cost to produce.
//!
//! Determinism: work decomposition is fixed (per day file for ingest,
//! per 16-bit address segment for densify) regardless of `--jobs`;
//! results are collected by unit index and committed serially in day
//! order. A clean run at `--jobs=8` is byte-identical to `--jobs=1`.

use crate::ingest::Census;
use crate::stream::{
    FileOutcome, FileReport, IngestConfig, IngestError, IngestReport, ParsedFile, StreamIngestor,
};
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};
use std::time::{Duration, Instant};
use v6census_addr::Addr;
use v6census_core::quality::{Annotated, Quality};
use v6census_core::temporal::{Day, GapPolicy, StabilityParams, StabilityVerdict};
use v6census_synth::AnalysisFaultPlan;
use v6census_trie::{DensePrefix, RadixTree};

/// Worker threads are named with this prefix so the process-wide panic
/// hook can tell a *contained* (supervised) panic from a real one and
/// keep the former off stderr.
const WORKER_PREFIX: &str = "v6c-sup-";

/// How the supervised engine runs stages.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Worker threads per stage (at least 1; clamped to the unit count).
    pub jobs: usize,
    /// Wall-clock deadline applied to each stage, `None` for no limit.
    pub stage_deadline: Option<Duration>,
    /// Trie node budget per work unit (0 = unlimited); densify units
    /// degrade to coarser aggregation rather than exceed it.
    pub max_trie_nodes: usize,
    /// Injected analysis faults (empty outside tests and drills).
    pub faults: AnalysisFaultPlan,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            jobs: 1,
            stage_deadline: None,
            max_trie_nodes: 0,
            faults: AnalysisFaultPlan::none(),
        }
    }
}

/// Per-attempt context handed to a work unit: the cancellation token and
/// the accounting the unit reports back through.
pub struct UnitCtx {
    cancel: Arc<AtomicBool>,
    degraded: Mutex<Vec<String>>,
    trie_nodes: AtomicUsize,
}

impl UnitCtx {
    fn new(cancel: Arc<AtomicBool>) -> UnitCtx {
        UnitCtx {
            cancel,
            degraded: Mutex::new(Vec::new()),
            trie_nodes: AtomicUsize::new(0),
        }
    }

    /// True once the stage deadline expired; cooperative units check
    /// this at loop boundaries and return early.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Records that this unit produced a degraded (coarser, but still
    /// correct) result, and why.
    pub fn degrade(&self, note: impl Into<String>) {
        lock(&self.degraded).push(note.into());
    }

    /// Records a trie-size observation; the per-unit peak is kept.
    pub fn record_trie_nodes(&self, nodes: usize) {
        self.trie_nodes.fetch_max(nodes, Ordering::Relaxed);
    }
}

/// One independent piece of a stage's work.
pub struct Unit<T> {
    /// Stable label, e.g. `ingest/2015-03-17` or `densify/2001` — the
    /// name fault injection patterns and manifests match against.
    pub label: String,
    work: Box<dyn Fn(&UnitCtx) -> T + Send + Sync>,
}

impl<T> Unit<T> {
    /// Creates a unit. `work` may run more than once (panic retry), so
    /// it must be a `Fn`, not a `FnOnce`.
    pub fn new(
        label: impl Into<String>,
        work: impl Fn(&UnitCtx) -> T + Send + Sync + 'static,
    ) -> Unit<T> {
        Unit {
            label: label.into(),
            work: Box::new(work),
        }
    }
}

/// What finally happened to one work unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnitStatus {
    /// Completed; `attempts` is the total tries used (1 = clean).
    Ok {
        /// Attempts used, including the successful one.
        attempts: u32,
    },
    /// Panicked on every allowed attempt; excluded from the results.
    Excluded {
        /// The panic message of the final attempt.
        reason: String,
    },
    /// Was still running when the stage deadline expired.
    TimedOut,
    /// Never started (deadline expired while it was queued, possibly
    /// awaiting a retry).
    Cancelled,
}

impl UnitStatus {
    /// A stable short label, used in manifests and tests.
    pub fn label(&self) -> &'static str {
        match self {
            UnitStatus::Ok { .. } => "ok",
            UnitStatus::Excluded { .. } => "excluded",
            UnitStatus::TimedOut => "timed-out",
            UnitStatus::Cancelled => "cancelled",
        }
    }
}

/// The manifest entry for one unit.
#[derive(Clone, Debug)]
pub struct UnitReport {
    /// The unit's label.
    pub label: String,
    /// What happened to it.
    pub status: UnitStatus,
    /// Degradation notes the unit recorded.
    pub degraded: Vec<String>,
    /// Peak trie node count the unit observed.
    pub trie_nodes: usize,
}

/// What one stage did: the per-unit outcomes plus stage-level accounting.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// The stage name.
    pub stage: String,
    /// One report per unit, in unit order.
    pub units: Vec<UnitReport>,
    /// Stage wall time in milliseconds (not deterministic; excluded from
    /// [`StageReport::equivalence_key`]).
    pub wall_millis: u64,
    /// True when the stage deadline expired.
    pub deadline_expired: bool,
}

impl StageReport {
    /// Units that completed.
    pub fn ok(&self) -> usize {
        self.units
            .iter()
            .filter(|u| matches!(u.status, UnitStatus::Ok { .. }))
            .count()
    }

    /// Units that needed more than one attempt (recovered or excluded).
    pub fn retried(&self) -> usize {
        self.units
            .iter()
            .filter(|u| {
                matches!(u.status, UnitStatus::Ok { attempts } if attempts > 1)
                    || matches!(u.status, UnitStatus::Excluded { .. })
            })
            .count()
    }

    /// Labels of units excluded after exhausting retries.
    pub fn excluded(&self) -> Vec<&UnitReport> {
        self.units
            .iter()
            .filter(|u| matches!(u.status, UnitStatus::Excluded { .. }))
            .collect()
    }

    /// Labels of units lost to the deadline (timed out or cancelled).
    pub fn lost_to_deadline(&self) -> Vec<&UnitReport> {
        self.units
            .iter()
            .filter(|u| matches!(u.status, UnitStatus::TimedOut | UnitStatus::Cancelled))
            .collect()
    }

    /// Units that recorded a degraded (budget-capped) result.
    pub fn degraded(&self) -> usize {
        self.units.iter().filter(|u| !u.degraded.is_empty()).count()
    }

    /// Peak trie node count across units.
    pub fn peak_trie_nodes(&self) -> usize {
        self.units.iter().map(|u| u.trie_nodes).max().unwrap_or(0)
    }

    /// The stage's position on the quality lattice: `Partial` when any
    /// unit's output is missing, `Degraded` when all completed but some
    /// under a budget, `Exact` otherwise.
    pub fn quality(&self) -> Quality {
        let mut q = Quality::Exact;
        for u in &self.units {
            q = q.meet(match u.status {
                UnitStatus::Ok { .. } if u.degraded.is_empty() => Quality::Exact,
                UnitStatus::Ok { .. } => Quality::Degraded,
                _ => Quality::Partial,
            });
        }
        q
    }

    /// Everything deterministic about the stage — the unit labels and
    /// outcomes, but not wall time — for asserting that runs at
    /// different `--jobs` settings are equivalent.
    pub fn equivalence_key(&self) -> String {
        let mut out = format!("{}:", self.stage);
        for u in &self.units {
            out.push_str(&format!(" {}={}", u.label, u.status.label()));
            if !u.degraded.is_empty() {
                out.push_str("(degraded)");
            }
        }
        out
    }
}

/// The run-level roll-up of every stage, extending the ingest pipeline's
/// `VerdictQuality` idea to the whole analysis: outputs are `Exact`,
/// `Degraded`, or `Partial`, with the evidence attached.
#[derive(Clone, Debug, Default)]
pub struct RunManifest {
    /// Worker threads used.
    pub jobs: usize,
    /// Per-stage reports, in execution order.
    pub stages: Vec<StageReport>,
}

impl RunManifest {
    /// The worst stage quality (Exact when there are no stages).
    pub fn quality(&self) -> Quality {
        Quality::meet_all(self.stages.iter().map(|s| s.quality()))
    }

    /// The deterministic projection of the whole manifest; equal across
    /// `--jobs` settings for a given input.
    pub fn equivalence_key(&self) -> String {
        let keys: Vec<String> = self.stages.iter().map(|s| s.equivalence_key()).collect();
        keys.join("\n")
    }

    /// Renders the `==== run manifest ====` report section. Wall times
    /// make this section legitimately nondeterministic; it is emitted
    /// *before* the analysis section, which stays a pure function of the
    /// ingested data.
    pub fn render(&self) -> String {
        self.render_opts(true)
    }

    /// Renders the manifest without its execution details — the
    /// wall-time column becomes `-` and the `jobs:` line is omitted —
    /// leaving only what was computed, not how. This makes the section
    /// (and therefore the whole census report) a pure function of the
    /// ingested data: `v6census census --no-timings` output is
    /// byte-identical across reruns and `--jobs` settings, which CI
    /// asserts with a plain `diff`.
    pub fn render_stable(&self) -> String {
        self.render_opts(false)
    }

    fn render_opts(&self, timings: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("==== run manifest ====\n");
        if timings {
            let _ = writeln!(out, "jobs: {}", self.jobs);
        }
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>5} {:>7} {:>8} {:>9} {:>8} {:>9} {:>8}",
            "stage",
            "units",
            "ok",
            "retried",
            "excluded",
            "timed-out",
            "degraded",
            "peak-trie",
            "wall"
        );
        for s in &self.stages {
            let lost = s.lost_to_deadline();
            let timed_out = lost
                .iter()
                .filter(|u| u.status == UnitStatus::TimedOut)
                .count();
            let wall = if timings {
                format!("{}ms", s.wall_millis)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{:<12} {:>5} {:>5} {:>7} {:>8} {:>9} {:>8} {:>9} {:>8}",
                s.stage,
                s.units.len(),
                s.ok(),
                s.retried(),
                s.excluded().len(),
                timed_out,
                s.degraded(),
                s.peak_trie_nodes(),
                wall,
            );
        }
        // Unit labels are stage-prefixed by convention (`stability/2015-03-17`),
        // so casualty lines print the label alone.
        for s in &self.stages {
            for u in s.excluded() {
                let UnitStatus::Excluded { reason } = &u.status else {
                    continue;
                };
                let _ = writeln!(out, "  excluded {}: {}", u.label, reason);
            }
            for u in s.lost_to_deadline() {
                let _ = writeln!(out, "  {} {} at stage deadline", u.status.label(), u.label);
            }
            for u in &s.units {
                for note in &u.degraded {
                    let _ = writeln!(out, "  degraded {}: {}", u.label, note);
                }
            }
        }
        let _ = writeln!(out, "quality: {}", self.quality());
        out
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Locks a mutex, surviving poisoning: supervised panics happen inside
/// `catch_unwind`, never while holding these locks, but the engine must
/// not amplify a contained panic into an abort either way.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A closable work queue: workers block on `pop` until a job arrives or
/// the collector closes the queue. Closable (rather than
/// drop-the-sender) because a retry can re-enqueue work after the queue
/// momentarily ran dry, and workers must not exit in that window.
struct JobQueue {
    state: Mutex<(std::collections::VecDeque<(usize, u32)>, bool)>,
    cv: Condvar,
}

impl JobQueue {
    fn new() -> JobQueue {
        JobQueue {
            state: Mutex::new((std::collections::VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    fn push(&self, job: (usize, u32)) {
        lock(&self.state).0.push_back(job);
        self.cv.notify_one();
    }

    fn close(&self) {
        lock(&self.state).1 = true;
        self.cv.notify_all();
    }

    fn pop(&self) -> Option<(usize, u32)> {
        let mut g = lock(&self.state);
        loop {
            if let Some(job) = g.0.pop_front() {
                return Some(job);
            }
            if g.1 {
                return None;
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Turns a panic payload into a human-readable reason.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Installs (once per process) a panic hook that suppresses the default
/// stderr backtrace for panics on supervisor worker threads — those are
/// *contained* and reported through the manifest — while delegating
/// every other panic to the previously installed hook.
fn silence_supervised_panics() {
    static SILENCE: Once = Once::new();
    SILENCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let supervised = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(WORKER_PREFIX));
            if !supervised {
                prev(info);
            }
        }));
    });
}

const STATE_PENDING: u8 = 0;
const STATE_RUNNING: u8 = 1;
const STATE_DONE: u8 = 2;

struct Done<T> {
    idx: usize,
    attempt: u32,
    result: Result<T, String>,
    degraded: Vec<String>,
    trie_nodes: usize,
}

/// Runs one stage: executes `units` on up to `cfg.jobs` workers with
/// panic isolation, one retry per panicked unit, and the stage deadline.
/// Returns the per-unit results (by unit index; `None` for units whose
/// output is missing) and the stage report.
pub fn run_stage<T: Send + 'static>(
    stage: impl Into<String>,
    units: Vec<Unit<T>>,
    cfg: &SupervisorConfig,
) -> (Vec<Option<T>>, StageReport) {
    let stage = stage.into();
    // lint: allow(L002, reason = "wall-clock stage duration feeds operator-facing StageReport timing only; equivalence_key and product tables never read it")
    let start = Instant::now();
    let n = units.len();
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut reports: Vec<UnitReport> = units
        .iter()
        .map(|u| UnitReport {
            label: u.label.clone(),
            status: UnitStatus::Cancelled,
            degraded: Vec::new(),
            trie_nodes: 0,
        })
        .collect();
    if n == 0 {
        return (
            results,
            StageReport {
                stage,
                units: reports,
                wall_millis: 0,
                deadline_expired: false,
            },
        );
    }

    silence_supervised_panics();

    let jobs = cfg.jobs.max(1).min(n);
    let queue = Arc::new(JobQueue::new());
    for i in 0..n {
        queue.push((i, 0));
    }
    let cancel = Arc::new(AtomicBool::new(false));
    let states: Arc<Vec<AtomicU8>> =
        Arc::new((0..n).map(|_| AtomicU8::new(STATE_PENDING)).collect());
    let units = Arc::new(units);
    // Bounded: workers block once `2 × jobs` results await collection,
    // so a fast stage cannot buffer its whole output ahead of the
    // (serial) collector — backpressure, not an unbounded queue.
    let (tx, rx) = mpsc::sync_channel::<Done<T>>(jobs * 2);

    let mut handles = Vec::with_capacity(jobs);
    for w in 0..jobs {
        let queue = Arc::clone(&queue);
        let cancel = Arc::clone(&cancel);
        let states = Arc::clone(&states);
        let units = Arc::clone(&units);
        let tx = tx.clone();
        let faults = cfg.faults.clone();
        // Detached on purpose: a hung unit must be abandonable. A scoped
        // pool would make the whole stage block on its slowest thread.
        let spawned = std::thread::Builder::new()
            .name(format!("{WORKER_PREFIX}{w}"))
            .spawn(move || {
                while let Some((idx, attempt)) = queue.pop() {
                    states[idx].store(STATE_RUNNING, Ordering::SeqCst);
                    let ctx = UnitCtx::new(Arc::clone(&cancel));
                    let label = units[idx].label.clone();
                    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                        faults.trip(&label, attempt);
                        (units[idx].work)(&ctx)
                    }));
                    states[idx].store(STATE_DONE, Ordering::SeqCst);
                    let done = Done {
                        idx,
                        attempt,
                        result: caught.map_err(panic_message),
                        degraded: std::mem::take(&mut *lock(&ctx.degraded)),
                        trie_nodes: ctx.trie_nodes.load(Ordering::Relaxed),
                    };
                    // A send error means the collector gave up (deadline);
                    // nothing left to do but exit.
                    if tx.send(done).is_err() {
                        break;
                    }
                }
            });
        match spawned {
            Ok(h) => handles.push(h),
            // Could not spawn a worker (resource exhaustion). The units
            // already queued will be drained by the workers that did
            // start; with zero workers the deadline path reports below.
            Err(_) => break,
        }
    }
    drop(tx);

    let mut settled = vec![false; n];
    let mut n_settled = 0usize;
    let mut deadline_expired = false;
    while n_settled < n {
        let wait = match cfg.stage_deadline {
            Some(d) => match d.checked_sub(start.elapsed()) {
                Some(remaining) => remaining,
                None => {
                    deadline_expired = true;
                    break;
                }
            },
            // No deadline: wake periodically so a zero-worker stage (all
            // spawns failed) cannot hang the collector forever.
            None => Duration::from_millis(500),
        };
        match rx.recv_timeout(wait) {
            Ok(done) => {
                if settled[done.idx] {
                    continue; // late duplicate (cannot happen, but harmless)
                }
                match done.result {
                    Ok(value) => {
                        results[done.idx] = Some(value);
                        reports[done.idx].status = UnitStatus::Ok {
                            attempts: done.attempt + 1,
                        };
                        reports[done.idx].degraded = done.degraded;
                        reports[done.idx].trie_nodes = done.trie_nodes;
                        settled[done.idx] = true;
                        n_settled += 1;
                    }
                    Err(reason) => {
                        if done.attempt == 0 {
                            // One retry on a fresh attempt.
                            states[done.idx].store(STATE_PENDING, Ordering::SeqCst);
                            queue.push((done.idx, 1));
                        } else {
                            reports[done.idx].status = UnitStatus::Excluded { reason };
                            settled[done.idx] = true;
                            n_settled += 1;
                        }
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if cfg.stage_deadline.is_some_and(|d| start.elapsed() >= d) {
                    deadline_expired = true;
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    if deadline_expired {
        // Cooperative cancellation for units that poll, abandonment for
        // those that don't.
        cancel.store(true, Ordering::SeqCst);
    }
    queue.close();
    if !deadline_expired {
        // Clean path: every unit settled, so every send was consumed and
        // each worker is at (or heading for) its queue-closed exit. Join
        // so no worker still holds references (e.g. to a shared census)
        // after the stage returns. Never joined on the deadline path —
        // that is exactly when a worker may be hung.
        for h in handles {
            let _ = h.join();
        }
    }

    // Classify what the deadline left behind: a unit observed RUNNING
    // was abandoned mid-flight (timed out); one still PENDING never ran.
    for i in 0..n {
        if settled[i] {
            continue;
        }
        reports[i].status = match states[i].load(Ordering::SeqCst) {
            STATE_RUNNING => UnitStatus::TimedOut,
            STATE_DONE => UnitStatus::TimedOut, // result in flight; drained below
            _ => UnitStatus::Cancelled,
        };
    }
    // Grace drain: results that finished in the race window between the
    // deadline firing and the queue closing still count.
    while let Ok(done) = rx.try_recv() {
        if settled[done.idx] {
            continue;
        }
        if let Ok(value) = done.result {
            results[done.idx] = Some(value);
            reports[done.idx].status = UnitStatus::Ok {
                attempts: done.attempt + 1,
            };
            reports[done.idx].degraded = done.degraded;
            reports[done.idx].trie_nodes = done.trie_nodes;
            settled[done.idx] = true;
        }
    }

    let report = StageReport {
        stage,
        units: reports,
        wall_millis: start.elapsed().as_millis() as u64,
        deadline_expired,
    };
    (results, report)
}

// ---------------------------------------------------------------------------
// The supervised census pipeline
// ---------------------------------------------------------------------------

/// Full configuration of a supervised census run.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Streaming-ingestion configuration (error budget, checkpoints…).
    pub ingest: IngestConfig,
    /// Supervision configuration (jobs, deadlines, budgets, faults).
    pub supervisor: SupervisorConfig,
    /// nd-stability parameters for the stability stage.
    pub params: StabilityParams,
    /// Reference day; `None` picks the middle ingested day.
    pub reference: Option<Day>,
    /// Gap policy for the stability stage.
    pub gap_policy: GapPolicy,
    /// Density class numerator *n* for the densify stage.
    pub dense_n: u64,
    /// Density class prefix length *p* for the densify stage.
    pub dense_p: u8,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            ingest: IngestConfig::default(),
            supervisor: SupervisorConfig::default(),
            params: StabilityParams::nd(3),
            reference: None,
            gap_policy: GapPolicy::Widen { max_extra: 7 },
            dense_n: 8,
            dense_p: 64,
        }
    }
}

/// Everything a supervised census run produced: the ingest report, the
/// quality-annotated analysis products, and the run manifest.
pub struct SupervisedRun {
    /// Per-file ingest health plus the census itself.
    pub report: IngestReport,
    /// The reference day analysis ran against (`None`: nothing ingested).
    pub reference: Option<Day>,
    /// Rendered Table 1 for the reference day; `None` when the reference
    /// day is absent from the census; quality `Partial` when the stage
    /// lost the unit.
    pub table1: Option<Annotated<Option<String>>>,
    /// The gap-aware stability verdict; the annotation folds in both the
    /// verdict's own quality (widened/unknown windows) and supervision.
    pub stability: Option<Annotated<Option<StabilityVerdict>>>,
    /// Dense prefixes of the reference day's Other addresses, merged
    /// across per-segment shards.
    pub dense: Option<Annotated<Vec<DensePrefix>>>,
    /// The run manifest.
    pub manifest: RunManifest,
}

impl SupervisedRun {
    /// The run's overall quality: the manifest meet with every product
    /// annotation (so a widened stability window degrades the run even
    /// though no supervision machinery fired).
    pub fn overall_quality(&self) -> Quality {
        let mut q = self.manifest.quality();
        if let Some(t) = &self.table1 {
            q = q.meet(t.quality);
        }
        if let Some(s) = &self.stability {
            q = q.meet(s.quality);
        }
        if let Some(d) = &self.dense {
            q = q.meet(d.quality);
        }
        q
    }
}

/// Runs the supervised census pipeline over a directory of day logs:
/// parallel per-file parse, serial in-order commit, then the analysis
/// stages (Table 1, stability, sharded densify) under supervision. Its
/// ingest stage is the one batch driver from day files to a census.
///
/// The `Err` arm fires only for strict-mode aborts and an unreadable
/// directory; every contained failure is reported through the manifest.
pub fn run_census(dir: &Path, cfg: &PipelineConfig) -> Result<SupervisedRun, IngestError> {
    let ingestor = StreamIngestor::new(cfg.ingest.clone());
    // A checkpoint directory may hold `.tmp` leftovers from a previous
    // aborted atomic write; delete them before resume can see them. A
    // failed sweep is not fatal — stale files survive to the next run.
    let stale_tmp_removed = match &cfg.ingest.checkpoint_dir {
        Some(ckpt_dir) => {
            crate::stream::sweep_stale_tmp(cfg.ingest.vfs.as_ref(), ckpt_dir).unwrap_or(0)
        }
        None => 0,
    };
    let paths = crate::stream::day_files(cfg.ingest.vfs.as_ref(), dir)?;

    // Stage 1: ingest. One unit per day file; the parse half runs in
    // parallel, the census commit is serial in day order below. Under
    // `max_days` the files are parsed in day-order windows of just
    // enough files to reach the limit (a file may fail or repeat a
    // day), so no file past the limit is ever parsed; every window's
    // units land in the one ingest stage report.
    let mut census = Census::new_empty();
    let mut files: Vec<FileReport> = Vec::new();
    let mut ingested_days: Vec<Day> = Vec::new();
    let mut ingest_stage = StageReport {
        stage: "ingest".to_string(),
        units: Vec::new(),
        wall_millis: 0,
        deadline_expired: false,
    };
    let mut next = 0;
    while next < paths.len() {
        let end = match cfg.ingest.max_days {
            Some(limit) if ingested_days.len() >= limit => break,
            Some(limit) => paths.len().min(next + limit - ingested_days.len()),
            None => paths.len(),
        };
        let units: Vec<Unit<Result<ParsedFile, IngestError>>> = paths[next..end]
            .iter()
            .map(|(day, path)| {
                let ingestor = ingestor.clone();
                let path = path.clone();
                Unit::new(format!("ingest/{day}"), move |_ctx: &UnitCtx| {
                    ingestor.parse_file(&path)
                })
            })
            .collect();
        let (parsed, window) = run_stage("ingest", units, &cfg.supervisor);
        for ((slot, (day, path)), unit) in
            parsed.into_iter().zip(&paths[next..end]).zip(&window.units)
        {
            match slot {
                Some(Ok(parsed_file)) => {
                    files.push(ingestor.commit_parsed(
                        parsed_file,
                        &mut census,
                        &mut ingested_days,
                    )?);
                }
                Some(Err(e)) => return Err(e), // strict-mode abort, in file order
                None => {
                    // The supervisor lost this unit (panic twice /
                    // deadline); surface it in the health report, not as
                    // an abort.
                    files.push(FileReport {
                        path: path.clone(),
                        day: *day,
                        data_lines: 0,
                        bad_lines: 0,
                        outcome: FileOutcome::Failed,
                        errors: vec![IngestError::UnitFailed {
                            path: path.clone(),
                            reason: format!("supervised ingest unit {}", unit.status.label()),
                        }],
                    });
                }
            }
        }
        ingest_stage.units.extend(window.units);
        ingest_stage.wall_millis += window.wall_millis;
        ingest_stage.deadline_expired |= window.deadline_expired;
        next = end;
    }
    // Files past the limit are left unprocessed.
    for (day, path) in &paths[next..] {
        files.push(FileReport {
            path: path.clone(),
            day: *day,
            data_lines: 0,
            bad_lines: 0,
            outcome: FileOutcome::Skipped,
            errors: Vec::new(),
        });
    }
    let gaps = match (ingested_days.iter().min(), ingested_days.iter().max()) {
        (Some(&first), Some(&last)) => first
            .range_inclusive(last)
            .filter(|d| !census.has_day(*d))
            .collect(),
        _ => Vec::new(),
    };
    let report = IngestReport {
        census,
        files,
        gaps,
        stale_tmp_removed,
    };
    let ingest_quality = ingest_stage.quality();

    let mut manifest = RunManifest {
        jobs: cfg.supervisor.jobs.max(1),
        stages: vec![ingest_stage],
    };

    let reference = cfg.reference.or_else(|| {
        let all: Vec<Day> = report.census.days().collect();
        (!all.is_empty()).then(|| all[all.len() / 2])
    });
    let Some(reference) = reference else {
        return Ok(SupervisedRun {
            report,
            reference: None,
            table1: None,
            stability: None,
            dense: None,
            manifest,
        });
    };

    // The analysis stages share the census read-only.
    let census = Arc::new(report.census);

    // Stage 2: Table 1 (one unit; the table renderer is a whole-census
    // computation, but still deserves panic/deadline containment).
    let table1 = if census.summary(reference).is_some() {
        let c = Arc::clone(&census);
        let unit = Unit::new("table1/reference", move |_ctx: &UnitCtx| {
            let spec = [crate::tables::EpochSpec {
                label: "reference",
                reference,
            }];
            let (daily, _weekly) = crate::tables::table1(&c, &spec);
            daily.render()
        });
        let (mut values, stage) = run_stage("table1", vec![unit], &cfg.supervisor);
        let annotated = annotate_product(values.remove(0), &stage, ingest_quality);
        manifest.stages.push(stage);
        Some(annotated)
    } else {
        None
    };

    // Stage 3: gap-aware nd-stability on the reference day.
    let stability = {
        let c = Arc::clone(&census);
        let params = cfg.params;
        let policy = cfg.gap_policy;
        let unit = Unit::new(format!("stability/{reference}"), move |_ctx: &UnitCtx| {
            c.other_daily().stable_on_gapped(reference, &params, policy)
        });
        let (mut values, stage) = run_stage("stability", vec![unit], &cfg.supervisor);
        let mut annotated = annotate_product(values.remove(0), &stage, ingest_quality);
        if let Some(v) = &annotated.value {
            // Fold the verdict's own quality (widened/unknown window)
            // into the product annotation.
            let vq = v.quality.quality();
            if !vq.is_exact() {
                annotated.note(vq, String::new());
            }
        }
        manifest.stages.push(stage);
        Some(annotated)
    };

    // Stage 4: densify, sharded by top 16-bit segment. The decomposition
    // is a pure function of the data (never of the job count), so the
    // merged result is deterministic across --jobs settings.
    let dense = {
        let active = census.other_daily().on(reference);
        let mut shards: BTreeMap<u16, Vec<Addr>> = BTreeMap::new();
        for a in active.iter() {
            shards.entry((a.0 >> 112) as u16).or_default().push(a);
        }
        let (n, p, cap) = (cfg.dense_n, cfg.dense_p, cfg.supervisor.max_trie_nodes);
        let units: Vec<Unit<Vec<DensePrefix>>> = shards
            .into_iter()
            .map(|(seg, addrs)| {
                Unit::new(format!("densify/{seg:04x}"), move |ctx: &UnitCtx| {
                    let mut tree = RadixTree::new();
                    for chunk in addrs.chunks(256) {
                        if ctx.cancelled() {
                            break;
                        }
                        for &a in chunk {
                            tree.insert_addr(a, 1);
                        }
                    }
                    ctx.record_trie_nodes(tree.node_count());
                    let b = tree.densify_budgeted(n, p, cap);
                    if b.degraded {
                        ctx.degrade(format!(
                            "trie budget {cap}: {} nodes folded to {}",
                            b.nodes_before, b.nodes_after
                        ));
                    }
                    b.dense
                })
            })
            .collect();
        let (values, stage) = run_stage("densify", units, &cfg.supervisor);
        let mut merged: Vec<DensePrefix> = values.into_iter().flatten().flatten().collect();
        merged.sort();
        let mut annotated =
            annotate_product(Some(merged), &stage, ingest_quality).map(|v| v.unwrap_or_default());
        for u in &stage.units {
            for note in &u.degraded {
                annotated.note(Quality::Degraded, format!("shard {}: {note}", u.label));
            }
        }
        manifest.stages.push(stage);
        Some(annotated)
    };

    // Put the census back into the report for the caller. Workers are
    // detached, so one abandoned at a deadline (or simply not yet torn
    // down) may still hold a reference; clone rather than wait on it.
    let census = Arc::try_unwrap(census).unwrap_or_else(|arc| (*arc).clone());
    let report = IngestReport {
        census,
        files: report.files,
        gaps: report.gaps,
        stale_tmp_removed: report.stale_tmp_removed,
    };

    Ok(SupervisedRun {
        report,
        reference: Some(reference),
        table1,
        stability,
        dense,
        manifest,
    })
}

/// Annotates a stage's (single- or merged-unit) product: missing output
/// is `Partial` with the casualty list, degraded units are noted by the
/// caller, and the ingest stage's quality is inherited — analysis over
/// an incomplete census cannot claim to be exact.
fn annotate_product<T>(
    value: Option<T>,
    stage: &StageReport,
    ingest_quality: Quality,
) -> Annotated<Option<T>> {
    let mut a = Annotated::exact(value);
    for u in stage.excluded() {
        if let UnitStatus::Excluded { reason } = &u.status {
            a.note(
                Quality::Partial,
                format!("{}/{} excluded: {reason}", stage.stage, u.label),
            );
        }
    }
    for u in stage.lost_to_deadline() {
        a.note(
            Quality::Partial,
            format!("{}/{} {}", stage.stage, u.label, u.status.label()),
        );
    }
    if !ingest_quality.is_exact() {
        a.note(ingest_quality, "ingest stage incomplete");
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn cfg(jobs: usize) -> SupervisorConfig {
        SupervisorConfig {
            jobs,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn empty_stage_is_exact() {
        let (results, report) = run_stage("noop", Vec::<Unit<u32>>::new(), &cfg(4));
        assert!(results.is_empty());
        assert_eq!(report.quality(), Quality::Exact);
        assert!(!report.deadline_expired);
    }

    #[test]
    fn first_attempt_panic_is_retried_persistent_panic_is_excluded() {
        let flaky_tries = Arc::new(AtomicU32::new(0));
        let tries = Arc::clone(&flaky_tries);
        let units = vec![
            Unit::new("flaky", move |_ctx: &UnitCtx| {
                if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("first attempt dies");
                }
                7u32
            }),
            Unit::new("doomed", |_ctx: &UnitCtx| -> u32 {
                panic!("dies every time")
            }),
            Unit::new("fine", |_ctx: &UnitCtx| 40u32),
        ];
        let (results, report) = run_stage("mixed", units, &cfg(2));
        assert_eq!(results[0], Some(7));
        assert_eq!(results[1], None);
        assert_eq!(results[2], Some(40));
        assert!(matches!(
            report.units[0].status,
            UnitStatus::Ok { attempts: 2 }
        ));
        assert!(matches!(
            &report.units[1].status,
            UnitStatus::Excluded { reason } if reason.contains("dies every time")
        ));
        assert!(matches!(
            report.units[2].status,
            UnitStatus::Ok { attempts: 1 }
        ));
        assert_eq!(report.quality(), Quality::Partial);
        assert_eq!(report.retried(), 2);
        assert_eq!(flaky_tries.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn deadline_classifies_timed_out_vs_cancelled() {
        let units = vec![
            Unit::new("hog", |_ctx: &UnitCtx| {
                std::thread::sleep(Duration::from_secs(30));
                0u32
            }),
            Unit::new("queued-1", |_ctx: &UnitCtx| 1u32),
            Unit::new("queued-2", |_ctx: &UnitCtx| 2u32),
        ];
        let deadline = SupervisorConfig {
            jobs: 1,
            stage_deadline: Some(Duration::from_millis(150)),
            ..SupervisorConfig::default()
        };
        let start = Instant::now();
        let (results, report) = run_stage("stuck", units, &deadline);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the hog must be abandoned, not awaited"
        );
        assert!(report.deadline_expired);
        assert_eq!(report.units[0].status, UnitStatus::TimedOut);
        assert_eq!(report.units[1].status, UnitStatus::Cancelled);
        assert_eq!(report.units[2].status, UnitStatus::Cancelled);
        assert!(results.iter().all(Option::is_none));
        assert_eq!(report.quality(), Quality::Partial);
        assert_eq!(report.lost_to_deadline().len(), 3);
    }

    #[test]
    fn unit_ctx_notes_reach_the_report() {
        let units = vec![Unit::new("budgeted", |ctx: &UnitCtx| {
            ctx.record_trie_nodes(1234);
            ctx.record_trie_nodes(99); // peak is kept
            ctx.degrade("budget hit");
            assert!(!ctx.cancelled());
            0u32
        })];
        let (_, report) = run_stage("ctx", units, &cfg(1));
        assert_eq!(report.units[0].trie_nodes, 1234);
        assert_eq!(report.units[0].degraded, vec!["budget hit".to_string()]);
        assert_eq!(report.quality(), Quality::Degraded);
        assert_eq!(report.degraded(), 1);
        assert_eq!(report.peak_trie_nodes(), 1234);
    }

    #[test]
    fn equivalence_key_ignores_wall_time() {
        let mk = |wall| StageReport {
            stage: "s".into(),
            units: vec![UnitReport {
                label: "u/1".into(),
                status: UnitStatus::Ok { attempts: 1 },
                degraded: vec!["capped".into()],
                trie_nodes: 10,
            }],
            wall_millis: wall,
            deadline_expired: false,
        };
        assert_eq!(mk(5).equivalence_key(), mk(5000).equivalence_key());
        assert!(mk(5).equivalence_key().contains("u/1=ok(degraded)"));
        let manifest = RunManifest {
            jobs: 2,
            stages: vec![mk(1)],
        };
        assert_eq!(manifest.quality(), Quality::Degraded);
        let rendered = manifest.render();
        assert!(rendered.contains("==== run manifest ===="));
        assert!(rendered.contains("degraded u/1: capped"));
        assert!(rendered.contains("quality: degraded"));
    }
}
