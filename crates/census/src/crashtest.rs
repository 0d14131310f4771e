//! Exhaustive crash-point exploration of the durability pipeline.
//!
//! The serve daemon's crash story used to be demonstrated at a handful
//! of hand-picked points (SIGKILL after publish, one torn journal).
//! Real durability bugs live in the gaps. This harness closes them by
//! *enumerating every gap*: it runs the daemon's own restore and follow
//! step ([`Follower`]: ingest→checkpoint→journal→publish) against a
//! [`MemFs`] that models the documented persistence contract
//! (DESIGN.md "Crash consistency": what survives a crash is fsynced
//! bytes plus completed renames/removals), counts every
//! durability-relevant mutation of the uninterrupted baseline run, then
//! replays the run once per mutation ordinal with a crash scheduled at
//! exactly that operation. At each crash point it inspects the durable
//! wreckage and runs recovery, asserting the invariants:
//!
//! 1. **No torn state visible** — the journal restored from the durable
//!    wreckage parses cleanly and lists a *prefix* of the baseline's
//!    committed days (generation g or earlier, never a mix), and every
//!    durable checkpoint is byte-identical to the baseline's.
//! 2. **Monotonic generations** — every run (baseline, crashed,
//!    recovery) publishes strictly increasing snapshot generations, and
//!    recovery restores at or below the last pre-crash generation.
//! 3. **Byte-identical resume** — recovery completes, commits exactly
//!    the baseline's days, reaches the baseline generation, and leaves
//!    the durable filesystem byte-for-byte equal to the uninterrupted
//!    run's. Resumed is *identical*, not just similar.
//! 4. **Lost days re-ingestable** — days whose checkpoint or journal
//!    entry did not survive are re-ingested from source during
//!    recovery; nothing is silently orphaned (stale `.tmp` leftovers
//!    are swept and counted).
//!
//! Violations are collected, never panicked — the harness itself obeys
//! the census crates' no-panic discipline.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use v6census_core::spatial::DensityClass;
use v6census_core::temporal::{Day, StabilityParams};
use v6census_core::vfs::{MemFs, Vfs};
use v6census_synth::world::epochs;
use v6census_synth::{World, WorldConfig};

use crate::ingest::Census;
use crate::serve::{restore_state, Follower};
use crate::stream::{ErrorMode, IngestConfig};

/// Shape of the synthetic run the explorer drives.
#[derive(Clone, Copy, Debug)]
pub struct CrashTestConfig {
    /// Consecutive days to ingest (more days → more crash points;
    /// 6 days yields ~37).
    pub days: u32,
    /// World seed (determinism: same seed → same crash points).
    pub seed: u64,
    /// World scale (fraction of the standard population).
    pub scale: f64,
}

impl Default for CrashTestConfig {
    fn default() -> CrashTestConfig {
        CrashTestConfig {
            days: 6,
            seed: 41,
            scale: 0.001,
        }
    }
}

/// What the exploration proved (or found broken).
#[derive(Clone, Debug)]
pub struct CrashReport {
    /// Distinct crash points enumerated (one per durability-relevant
    /// mutation of the baseline run).
    pub crash_points: usize,
    /// Days the baseline run committed.
    pub baseline_days: usize,
    /// The baseline's final published generation.
    pub baseline_generation: u64,
    /// The baseline's durability op log (one line per mutation), for
    /// diagnosing a violation at ordinal *k*.
    pub op_log: Vec<String>,
    /// Every invariant violation found, labeled by crash ordinal.
    /// Empty means the recovery invariants hold at every crash point.
    pub violations: Vec<String>,
}

/// Where the harness puts the synthetic world inside the [`MemFs`].
pub fn source_dir() -> PathBuf {
    PathBuf::from("/crash/source")
}

/// Where the pipeline keeps its checkpoints + journal.
pub fn state_dir() -> PathBuf {
    PathBuf::from("/crash/state")
}

/// One pipeline run's observable outcome.
struct RunResult {
    /// Days committed, in commit order (restored first, then ingested).
    committed: Vec<Day>,
    /// Days restored from the journal before any source ingest.
    restored: Vec<Day>,
    /// Published snapshot generations, starting with the restore
    /// generation.
    generations: Vec<u64>,
}

impl RunResult {
    fn final_generation(&self) -> u64 {
        self.generations.last().copied().unwrap_or(0)
    }

    /// Strictly increasing after the restore generation.
    fn monotonic(&self) -> bool {
        self.generations.windows(2).all(|w| match w {
            [a, b] => a < b,
            _ => true,
        })
    }
}

fn ingest_config(fs: &Arc<MemFs>) -> IngestConfig {
    IngestConfig {
        mode: ErrorMode::Strict,
        checkpoint_dir: Some(state_dir()),
        resume: true,
        max_retries: 0,
        vfs: Arc::clone(fs) as Arc<dyn Vfs>,
        ..IngestConfig::default()
    }
}

/// Runs the daemon's durability pipeline to completion on `fs`: its own
/// startup ([`Follower::restore`]: sweep + journal + checkpoints), then
/// its own follow step ([`Follower::step`]: parse → commit → checkpoint
/// → journal → snapshot) for each pending source day. `Err` carries the
/// first failure rendered — under a crash schedule that is the simulated
/// crash surfacing as a typed I/O error.
fn run_pipeline(fs: &Arc<MemFs>) -> Result<RunResult, String> {
    let (mut follower, initial, restore) = Follower::restore(
        ingest_config(fs),
        Some(state_dir()),
        StabilityParams::nd(3),
        DensityClass::new(8, 64),
    );
    let mut generations = vec![initial.generation];
    let pending = follower
        .pending(&source_dir())
        .map_err(|e| format!("source scan failed: {e}"))?;
    for (day, path) in pending {
        let followed = follower
            .step(&path)
            .map_err(|e| format!("ingest of {day} failed: [{}] {e}", e.label()))?
            .ok_or_else(|| format!("day {day} not committed"))?;
        followed
            .journal
            .map_err(|e| format!("journal write after {day} failed: {e}"))?;
        generations.push(followed.snapshot.generation);
    }
    Ok(RunResult {
        committed: follower.committed,
        restored: restore.restored,
        generations,
    })
}

/// True when `prefix` is an exact leading slice of `full`.
fn is_prefix(prefix: &[Day], full: &[Day]) -> bool {
    prefix.len() <= full.len() && prefix.iter().zip(full.iter()).all(|(a, b)| a == b)
}

/// Enumerates every crash point of the baseline run, simulates a crash
/// at each, runs recovery, and checks the module-level invariants.
/// Returns the report; violations are collected, not panicked.
pub fn explore(cfg: &CrashTestConfig) -> CrashReport {
    let mut violations: Vec<String> = Vec::new();
    let bail = |violations: Vec<String>| CrashReport {
        crash_points: 0,
        baseline_days: 0,
        baseline_generation: 0,
        op_log: Vec::new(),
        violations,
    };

    // Stage the synthetic world once; every run starts from this
    // durable image, exactly as a host reboot would see it.
    let world = World::standard(WorldConfig {
        seed: cfg.seed,
        scale: cfg.scale,
    });
    let seeded = MemFs::new();
    if let Err(e) = world.emit_day_logs(&seeded, &source_dir(), epochs::mar2015(), cfg.days) {
        violations.push(format!("world emission failed: {e}"));
        return bail(violations);
    }
    let world_files = seeded.durable_files();
    let world_dirs = seeded.durable_dirs();

    // Baseline: the uninterrupted run every crashed run is compared to.
    let base_fs = Arc::new(MemFs::from_durable(world_files.clone(), world_dirs.clone()));
    let baseline = match run_pipeline(&base_fs) {
        Ok(r) => r,
        Err(e) => {
            violations.push(format!("baseline run failed: {e}"));
            return bail(violations);
        }
    };
    if !baseline.monotonic() {
        violations.push(format!(
            "baseline generations not strictly monotonic: {:?}",
            baseline.generations
        ));
    }
    if baseline.committed.len() != cfg.days as usize {
        violations.push(format!(
            "baseline committed {} days, expected {}",
            baseline.committed.len(),
            cfg.days
        ));
    }
    let crash_points = base_fs.mutations();
    let op_log = base_fs.op_log();
    let baseline_durable = base_fs.durable_files();
    let journal = crate::serve::journal_path(&state_dir());

    for k in 0..crash_points {
        let fs = Arc::new(MemFs::from_durable(world_files.clone(), world_dirs.clone()));
        fs.set_crash_after(k);
        let crashed_run = run_pipeline(&fs);
        let at = op_log.get(k).map(String::as_str).unwrap_or("?");
        if !fs.crashed() {
            violations.push(format!("crash {k} ({at}): schedule never fired"));
            continue;
        }
        if crashed_run.is_ok() {
            violations.push(format!(
                "crash {k} ({at}): run reported success despite crashing"
            ));
        }
        let last_pre_crash_generation = match &crashed_run {
            Ok(r) => r.final_generation(),
            Err(_) => u64::MAX, // unknown: publish count not observable mid-crash
        };

        // The durable wreckage: exactly what a restart observes.
        let wreck_files = fs.durable_files();
        let wreck_dirs = fs.durable_dirs();

        // Invariant 1: no torn state visible. Durable checkpoints must
        // be byte-identical to the baseline's (content is deterministic
        // per day; write_atomic admits no intermediate states), and the
        // durable journal must parse to a prefix of the baseline's
        // committed days — g or earlier, never a mix.
        for (path, bytes) in &wreck_files {
            if !path.starts_with(state_dir()) {
                continue;
            }
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if v6census_core::vfs::is_stale_tmp(&name) {
                continue; // aborted-write leftover; recovery sweeps it
            }
            if !name.starts_with("ckpt-") {
                // The journal is rewritten after every day, so a crash
                // legitimately leaves an *earlier* journal than the
                // baseline's final one; its own invariant is the
                // prefix check below.
                continue;
            }
            match baseline_durable.get(path) {
                Some(base) if base == bytes => {}
                Some(_) => violations.push(format!(
                    "crash {k} ({at}): {} differs from baseline bytes",
                    path.display()
                )),
                None => violations.push(format!(
                    "crash {k} ({at}): unexpected durable file {}",
                    path.display()
                )),
            }
        }
        let rec_fs = Arc::new(MemFs::from_durable(wreck_files, wreck_dirs));
        match crate::serve::load_journal(rec_fs.as_ref(), &journal) {
            Ok(days) => {
                if !is_prefix(&days, &baseline.committed) {
                    violations.push(format!(
                        "crash {k} ({at}): journal {days:?} is not a prefix of baseline {:?}",
                        baseline.committed
                    ));
                }
            }
            Err(e) => violations.push(format!(
                "crash {k} ({at}): durable journal is torn: [{}] {e}",
                e.label()
            )),
        }

        // Invariants 2–4: recovery completes, restores at or below the
        // pre-crash generation, republishes monotonically, re-ingests
        // every lost day, and converges byte-identically.
        match run_pipeline(&rec_fs) {
            Ok(rec) => {
                if !rec.monotonic() {
                    violations.push(format!(
                        "crash {k} ({at}): recovery generations not monotonic: {:?}",
                        rec.generations
                    ));
                }
                let restored_generation = rec.generations.first().copied().unwrap_or(0);
                if restored_generation > last_pre_crash_generation {
                    violations.push(format!(
                        "crash {k} ({at}): restored generation {restored_generation} exceeds last pre-crash generation {last_pre_crash_generation}"
                    ));
                }
                if !is_prefix(&rec.restored, &baseline.committed) {
                    violations.push(format!(
                        "crash {k} ({at}): restored days {:?} not a prefix of baseline {:?}",
                        rec.restored, baseline.committed
                    ));
                }
                if rec.committed != baseline.committed {
                    violations.push(format!(
                        "crash {k} ({at}): recovery committed {:?}, baseline {:?}",
                        rec.committed, baseline.committed
                    ));
                }
                if rec.final_generation() != baseline.final_generation() {
                    violations.push(format!(
                        "crash {k} ({at}): recovery generation {} != baseline {}",
                        rec.final_generation(),
                        baseline.final_generation()
                    ));
                }
                if rec_fs.durable_files() != baseline_durable {
                    violations.push(format!(
                        "crash {k} ({at}): recovered durable state not byte-identical to baseline"
                    ));
                }
            }
            Err(e) => violations.push(format!("crash {k} ({at}): recovery failed: {e}")),
        }
    }

    CrashReport {
        crash_points,
        baseline_days: baseline.committed.len(),
        baseline_generation: baseline.final_generation(),
        op_log,
        violations,
    }
}

/// A deterministic verification census of the durable files a pipeline
/// produced — used by fault-plan tests to prove a recovered state still
/// classifies correctly.
pub fn census_of_durable(fs: &MemFs, state: &Path) -> Census {
    restore_state(fs, state).0
}
