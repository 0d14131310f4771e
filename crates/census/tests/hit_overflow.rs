//! Hit totals past `u64::MAX` saturate instead of overflowing.
//!
//! A valid day file may carry hit counts whose sum does not fit a `u64`
//! (two lines, `18446744073709551615` and `1`). Every place that sums
//! hits — the day summary, duplicate-day merges, the census week rollup
//! and the checkpoint header — saturates, so a debug build neither
//! panics (excluding the ingest unit or killing the serve ingest thread)
//! and a release build does not wrap. These tests drive the batch
//! census, the serving daemon's ingest and a checkpoint round trip.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use v6census_addr::Addr;
use v6census_census::serve::{spawn, ServeConfig};
use v6census_census::stream::{checkpoint_path, load_checkpoint, write_checkpoint};
use v6census_census::supervisor::{run_census, PipelineConfig};
use v6census_census::Census;
use v6census_core::temporal::Day;
use v6census_core::vfs::RealFs;

const DAY: &str = "2015-03-17";

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("v6census-hits-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn day() -> Day {
    Day::from_ymd(2015, 3, 17)
}

/// A well-formed day file whose two hit counts sum past `u64::MAX`.
fn write_overflowing_day(dir: &Path) {
    let text = format!(
        "# synthetic day {DAY}: 2 unique client addrs\n\
         2001:db8::1\t{}\n\
         2001:db8::2\t1\n\
         # end 2 {}\n",
        u64::MAX,
        u64::MAX
    );
    std::fs::write(dir.join(format!("{DAY}.log")), text).unwrap();
}

#[test]
fn batch_census_saturates_hit_totals() {
    let logs = tempdir("batch");
    write_overflowing_day(&logs);
    let cfg = PipelineConfig {
        reference: Some(day()),
        ..PipelineConfig::default()
    };
    let run = run_census(&logs, &cfg).unwrap();
    for stage in &run.manifest.stages {
        assert!(
            stage.excluded().is_empty(),
            "no unit may die on the sum: {}",
            stage.equivalence_key()
        );
    }
    let census: &Census = &run.report.census;
    assert_eq!(census.summary(day()).unwrap().hits, u64::MAX);
    // A second delivery merges into the saturated total.
    let mut merged = census.clone();
    merged.ingest_summary(census.summary(day()).unwrap().clone());
    assert_eq!(merged.summary(day()).unwrap().hits, u64::MAX);
    assert_eq!(merged.week_summary(day()).hits, u64::MAX);
    std::fs::remove_dir_all(&logs).unwrap();
}

#[test]
fn serve_ingest_saturates_and_checkpoints_the_total() {
    let root = tempdir("serve");
    let (src, state) = (root.join("src"), root.join("state"));
    std::fs::create_dir_all(&src).unwrap();
    write_overflowing_day(&src);
    let config = |source: PathBuf| ServeConfig {
        source_dir: source,
        state_dir: Some(state.clone()),
        poll_interval: Duration::from_millis(10),
        ..ServeConfig::default()
    };
    let h = spawn(config(src.clone())).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while h.snapshot().generation < 1 {
        assert!(Instant::now() < deadline, "ingest never published the day");
        std::thread::sleep(Duration::from_millis(5));
    }
    let snap = h.snapshot();
    assert_eq!(snap.census.summary(day()).unwrap().hits, u64::MAX);
    assert_eq!(h.metrics().ingest_failures, 0);
    assert!(h.shutdown().clean);

    // The checkpoint's header carries the saturated total and loads.
    let (d, entries) = load_checkpoint(&RealFs, &checkpoint_path(&state, day())).unwrap();
    assert_eq!(d, day());
    assert_eq!(entries.len(), 2);

    // A restart over an empty source restores the day from it.
    let empty = root.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let h = spawn(config(empty)).unwrap();
    assert_eq!(h.snapshot().generation, 1);
    assert_eq!(h.snapshot().census.summary(day()).unwrap().hits, u64::MAX);
    assert!(h.shutdown().clean);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn checkpoint_round_trips_a_saturated_total() {
    let dir = tempdir("ckpt");
    let entries: Vec<(Addr, u64)> = vec![
        ("2001:db8::1".parse().unwrap(), u64::MAX),
        ("2001:db8::2".parse().unwrap(), 1),
        ("2001:db8::3".parse().unwrap(), 0),
    ];
    write_checkpoint(&RealFs, &dir, day(), &entries).unwrap();
    let path = checkpoint_path(&dir, day());
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.starts_with(&format!("# v6census checkpoint v1 {DAY} 3 {}\n", u64::MAX)),
        "{text}"
    );
    let (d, back) = load_checkpoint(&RealFs, &path).unwrap();
    assert_eq!((d, back), (day(), entries));
    std::fs::remove_dir_all(&dir).unwrap();
}
