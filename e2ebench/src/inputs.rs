//! Workload inputs: synth day files written to disk, and the expected
//! census products computed on the in-memory path.
//!
//! Both are produced by child processes running this binary (`setup`
//! and `oracle` modes), so the measured process's peak RSS holds the
//! workload alone, not the generator or the oracle's second census.

use crate::oracle::Expected;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use v6census_core::temporal::Day;
use v6census_core::vfs::RealFs;
use v6census_synth::{World, WorldConfig};

/// Day files per workload.
pub const DAYS: u32 = 15;

/// The first synth day, 2015-03-10.
pub fn first_day() -> Day {
    Day::from_ymd(2015, 3, 10)
}

/// The last synth day, 2015-03-24.
pub fn last_day() -> Day {
    first_day() + (DAYS as i32 - 1)
}

/// The census reference day, 2015-03-17 (mid-window, so the ±7d
/// stability window is fully observed).
pub fn reference_day() -> Day {
    Day::from_ymd(2015, 3, 17)
}

/// The synthetic world for a seed and scale.
pub fn world(seed: u64, scale: f64) -> World {
    World::standard(WorldConfig { seed, scale })
}

/// Writes the workload's day files under `dir` through synth's own
/// durable emitter (`World::emit_day_logs`).
pub fn generate(seed: u64, scale: f64, dir: &Path) -> Result<Vec<PathBuf>, String> {
    world(seed, scale)
        .emit_day_logs(&RealFs, dir, first_day(), DAYS)
        .map_err(|e| format!("synth into {}: {e}", dir.display()))
}

/// The day file of `day` under `dir`.
pub fn day_file(dir: &Path, day: Day) -> PathBuf {
    dir.join(v6census_synth::faults::day_file_name(day))
}

/// Runs this binary as a child process in `mode` and returns its
/// standard output; fails when the child does.
pub fn run_child(mode: &str, args: &[&std::ffi::OsStr]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg(mode)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{mode} child: {e}"))?;
    if out.status.success() {
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    } else {
        Err(format!("{mode} child failed: {}", out.status))
    }
}

fn child(mode: &str, seed: u64, out: &Path) -> Result<(), String> {
    let seed = seed.to_string();
    let args = ["--seed", &seed, "--out"].map(std::ffi::OsStr::new);
    run_child(mode, &[&args[..], &[out.as_os_str()]].concat()).map(|_| ())
}

/// Generates the day files into a fresh `dir` in a child process and
/// returns the seconds it took.
pub fn timed_generate(seed: u64, dir: &Path) -> Result<f64, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    let t0 = Instant::now();
    child("setup", seed, dir)?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Computes the expected census products in a child process.
pub fn expected(seed: u64, dir: &Path) -> Result<Expected, String> {
    child("oracle", seed, dir)?;
    Expected::read(dir)
}
