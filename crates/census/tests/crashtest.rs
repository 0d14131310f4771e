//! Durability proofs for the checkpoint/journal/snapshot pipeline.
//!
//! Three layers, all in-memory and fully deterministic:
//!
//! 1. `crash_point_exploration_proves_recovery` — the exhaustive
//!    explorer: every durability-relevant mutation of a full
//!    ingest→checkpoint→journal→publish run becomes a simulated crash
//!    point, and recovery from each must converge byte-identically to
//!    the uninterrupted run.
//! 2. `journal_torn_at_every_byte_offset_never_mixes` — the journal
//!    property test: truncate `journal.v1` at every byte offset; the
//!    restore sees either the complete day list or a typed torn-journal
//!    error, never a garbled mix, and re-ingest always converges.
//! 3. `crash_fault_matrix` — one drill per [`FaultKind`], selectable
//!    with `V6CENSUS_CRASH_KIND` so CI can run each as its own job:
//!    every injected fault either recovers or fails with a typed
//!    error — never a panic — and a clean restart always rebuilds the
//!    full census.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use v6census_census::crashtest::{self, CrashTestConfig};
use v6census_census::serve::{journal_path, load_journal, write_journal};
use v6census_census::snapshot::Snapshot;
use v6census_census::stream::{IngestConfig, IngestReport};
use v6census_census::supervisor::{run_census, PipelineConfig};
use v6census_core::spatial::DensityClass;
use v6census_core::temporal::{Day, StabilityParams};
use v6census_core::vfs::{FaultFs, FaultPlan, MemFs, Vfs};
use v6census_synth::world::epochs;
use v6census_synth::{World, WorldConfig};

const DAYS: u32 = 4;

fn source_dir() -> PathBuf {
    PathBuf::from("/mem/source")
}

fn state_dir() -> PathBuf {
    PathBuf::from("/mem/state")
}

/// Emits a small synthetic world into a fresh in-memory filesystem and
/// returns it with the list of days it covers.
fn stage_world(seed: u64) -> (Arc<MemFs>, Vec<Day>) {
    let fs = Arc::new(MemFs::new());
    let world = World::standard(WorldConfig { seed, scale: 0.001 });
    world
        .emit_day_logs(fs.as_ref(), &source_dir(), epochs::mar2015(), DAYS)
        .expect("world emission");
    let days = (0..DAYS as i32).map(|i| epochs::mar2015() + i).collect();
    (fs, days)
}

/// Runs a resumable checkpointed ingest of the staged source through
/// the given filesystem (possibly fault-injecting).
fn ingest_over(
    fs: Arc<dyn Vfs>,
    state: &Path,
) -> Result<IngestReport, v6census_census::stream::IngestError> {
    let cfg = IngestConfig {
        checkpoint_dir: Some(state.to_path_buf()),
        resume: true,
        vfs: fs,
        ..IngestConfig::default()
    };
    let cfg = PipelineConfig {
        ingest: cfg,
        ..PipelineConfig::default()
    };
    run_census(&source_dir(), &cfg).map(|run| run.report)
}

/// What a host reboot sees: only the durable side of the filesystem.
fn restart(fs: &MemFs) -> Arc<MemFs> {
    Arc::new(MemFs::from_durable(fs.durable_files(), fs.durable_dirs()))
}

fn generation_of(report: &IngestReport) -> u64 {
    Snapshot::build(
        report.census.clone(),
        StabilityParams::nd(3),
        DensityClass::new(8, 64),
    )
    .generation
}

// ---------------------------------------------------------------------------
// 1. Exhaustive crash-point exploration
// ---------------------------------------------------------------------------

#[test]
fn crash_point_exploration_proves_recovery() {
    let report = crashtest::explore(&CrashTestConfig::default());
    assert!(
        report.violations.is_empty(),
        "{} invariant violations across {} crash points:\n{}\nop log:\n{}",
        report.violations.len(),
        report.crash_points,
        report.violations.join("\n"),
        report.op_log.join("\n"),
    );
    assert!(
        report.crash_points >= 30,
        "only {} crash points enumerated (expected >= 30):\n{}",
        report.crash_points,
        report.op_log.join("\n"),
    );
    assert_eq!(report.baseline_days, 6, "baseline should commit 6 days");
    assert_eq!(
        report.baseline_generation, 6,
        "generation == days invariant"
    );
}

// ---------------------------------------------------------------------------
// 2. Journal torn at every byte offset
// ---------------------------------------------------------------------------

#[test]
fn journal_torn_at_every_byte_offset_never_mixes() {
    let (fs, days) = stage_world(77);
    let state = state_dir();
    let baseline = ingest_over(fs.clone(), &state).expect("baseline ingest");
    assert_eq!(generation_of(&baseline), u64::from(DAYS));
    write_journal(fs.as_ref(), &state, &days).expect("journal write");

    let jpath = journal_path(&state);
    let durable = fs.durable_files();
    let dirs = fs.durable_dirs();
    let journal_bytes = durable.get(&jpath).cloned().expect("journal is durable");
    assert!(journal_bytes.len() > 40, "journal should be non-trivial");

    for offset in 0..=journal_bytes.len() {
        let mut files = durable.clone();
        files.insert(jpath.clone(), journal_bytes[..offset].to_vec());
        let torn = Arc::new(MemFs::from_durable(files, dirs.clone()));

        // The journal itself: complete, or a typed error. Never a
        // partial day list — the end marker makes truncation visible.
        match load_journal(torn.as_ref(), &jpath) {
            Ok(listed) => assert_eq!(
                listed, days,
                "offset {offset}: a parseable journal must be the complete one"
            ),
            Err(e) => assert!(
                !e.label().is_empty(),
                "offset {offset}: torn journal must fail with a typed error"
            ),
        }

        // The restore built on it: all of generation g, or a cold start
        // that re-ingests. Never a mix of old and new days.
        let restored = crashtest::census_of_durable(torn.as_ref(), &state);
        let have: Vec<bool> = days.iter().map(|d| restored.has_day(*d)).collect();
        assert!(
            have.iter().all(|&b| b) || have.iter().all(|&b| !b),
            "offset {offset}: restore mixed generations: {have:?}"
        );

        // Recovery: checkpoints survive the torn journal, so re-ingest
        // converges back to generation g from any truncation point.
        let recovered = ingest_over(torn.clone(), &state).expect("recovery ingest");
        for day in &days {
            assert!(
                recovered.census.has_day(*day),
                "offset {offset}: day {day} lost after recovery"
            );
        }
        assert_eq!(
            generation_of(&recovered),
            u64::from(DAYS),
            "offset {offset}: recovery must reach generation g"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Fault-plan matrix: one drill per FaultKind
// ---------------------------------------------------------------------------

/// Runs one fault drill: stage a world, ingest through a fault-injecting
/// filesystem, then prove a clean restart rebuilds everything. The run
/// under fault may succeed or fail — but only with a typed error, and
/// the fault must actually have fired.
fn drill(kind: &str) {
    let (fs, days) = stage_world(91);
    let state = state_dir();

    // `readcorrupt` needs durable checkpoints to corrupt on read-back,
    // so that drill runs a clean pass first and injects on the resume.
    let (plan, preingest) = match kind {
        "enospc" => ("enospc@64:ckpt", false),
        "shortwrite" => ("shortwrite@16:ckpt", false),
        "eintr" => ("eintr@3:ckpt", false),
        "fsynclie" => ("fsynclie:ckpt", false),
        "renamedrop" => ("renamedrop:ckpt", false),
        "readcorrupt" => ("readcorrupt@33:ckpt", true),
        other => panic!("unknown V6CENSUS_CRASH_KIND {other:?}"),
    };
    if preingest {
        ingest_over(fs.clone(), &state).expect("pre-ingest for read-back drill");
    }
    let plan = FaultPlan::parse(plan).expect("plan parses");
    let faulty = Arc::new(FaultFs::new(fs.clone() as Arc<dyn Vfs>, plan));

    // The drill itself: reaching this far without a panic is half the
    // contract; the other half is that any failure is a typed error.
    match ingest_over(faulty.clone(), &state) {
        Ok(report) => {
            // Lying faults (shortwrite, fsynclie, renamedrop) report
            // success; the damage only shows after a restart.
            assert!(
                report
                    .files
                    .iter()
                    .all(|f| f.errors.iter().all(|e| !e.label().is_empty())),
                "{kind}: recorded errors must all be typed"
            );
        }
        Err(e) => {
            assert!(!e.label().is_empty(), "{kind}: abort must be typed");
            assert!(!e.to_string().is_empty(), "{kind}: abort must render");
        }
    }
    assert!(faulty.injected() >= 1, "{kind}: the fault plan never fired");
    let journal_result = write_journal(faulty.as_ref(), &state, &days);
    if let Err(e) = &journal_result {
        assert!(
            !e.to_string().is_empty(),
            "{kind}: journal abort must render"
        );
    }

    // Recovery: restart from the durable image with no faults. Torn
    // checkpoints are detected (typed), stale tmp files are swept, and
    // every day is rebuilt from checkpoint or source.
    let clean = restart(fs.as_ref());
    let recovered = ingest_over(clean.clone(), &state).expect("clean restart must recover");
    for day in &days {
        assert!(
            recovered.census.has_day(*day),
            "{kind}: day {day} lost after recovery"
        );
    }
    assert_eq!(
        generation_of(&recovered),
        u64::from(DAYS),
        "{kind}: recovery must reach the full generation"
    );
    if kind == "renamedrop" {
        // The dropped rename strands a durable `.tmp` sibling; the
        // startup sweep must count it, not orphan it.
        assert!(
            recovered.stale_tmp_removed >= 1,
            "{kind}: stranded tmp file was not swept"
        );
    }

    // And the recovered state journals + restores cleanly.
    write_journal(clean.as_ref(), &state, &days).expect("journal after recovery");
    let reread = restart(clean.as_ref());
    let restored = crashtest::census_of_durable(reread.as_ref(), &state);
    for day in &days {
        assert!(
            restored.has_day(*day),
            "{kind}: day {day} missing from restored census"
        );
    }
}

#[test]
fn crash_fault_matrix() {
    const ALL: [&str; 6] = [
        "enospc",
        "shortwrite",
        "eintr",
        "fsynclie",
        "renamedrop",
        "readcorrupt",
    ];
    match std::env::var("V6CENSUS_CRASH_KIND") {
        Ok(kind) if !kind.is_empty() && kind != "all" => drill(&kind),
        _ => {
            for kind in ALL {
                drill(kind);
            }
        }
    }
}
