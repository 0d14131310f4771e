//! Snapshot-semantics tests for the serving daemon: reader threads
//! hammer the query surface while ingest publishes new days, and every
//! response must be internally consistent with exactly one snapshot
//! generation — `generation == days`, `stable <= active`, generations
//! monotone per reader. Plus journal restore/recovery tests: a restart
//! serves the pre-shutdown snapshot from the journal alone, and a torn
//! journal recovers by re-ingesting from source.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use v6census_census::serve::{journal_path, spawn, ServeConfig};
use v6census_synth::chaos::http_get;
use v6census_synth::faults::day_file_name;
use v6census_synth::world::epochs;
use v6census_synth::{World, WorldConfig};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("v6census-snap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn world() -> World {
    World::standard(WorldConfig {
        seed: 41,
        scale: 0.002,
    })
}

/// Lands a day file as a log shipper should: written under a name the
/// daemon ignores, then renamed into place, so a scan of the live source
/// directory never reads half a file.
fn write_day(dir: &Path, w: &World, offset: i32) {
    let day = epochs::mar2015() + offset;
    let name = day_file_name(day);
    let staged = dir.join(format!(".{name}.partial"));
    std::fs::write(&staged, w.day_log(day).to_text()).unwrap();
    std::fs::rename(&staged, dir.join(name)).unwrap();
}

fn fast_config(source: PathBuf, state: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        source_dir: source,
        state_dir: state,
        poll_interval: Duration::from_millis(20),
        ..ServeConfig::default()
    }
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http_get(addr, path, Duration::from_secs(5)).expect("daemon must answer")
}

/// Crude JSON number extraction — the daemon emits flat, known-shape
/// JSON, so scanning for `"key":<digits>` is enough for assertions.
fn field_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key} in {body}"))
}

fn wait_for_generation(addr: SocketAddr, want: u64) {
    for _ in 0..600 {
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        if field_u64(&body, "generation") >= want {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never reached generation {want}");
}

#[test]
fn readers_never_see_a_torn_snapshot_during_publishes() {
    let source = tempdir("atomic");
    let w = world();
    write_day(&source, &w, 0);
    let handle = spawn(fast_config(source.clone(), None)).unwrap();
    let addr = handle.addr();
    wait_for_generation(addr, 1);

    // Readers hammer every endpoint; each response must satisfy the
    // invariants on its own, and generations must be monotone per reader.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|i| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_gen = 0u64;
                let mut checks = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let path = match checks % 4 {
                        0 => "/stats",
                        1 => "/stable/2001:db8::1",
                        2 => "/classify/2001:db8::/32",
                        _ => "/healthz",
                    };
                    let (status, body) = get(addr, path);
                    assert_eq!(status, 200, "reader {i} got {status} on {path}: {body}");
                    let gen = field_u64(&body, "generation");
                    let days = field_u64(&body, "days");
                    assert_eq!(gen, days, "torn snapshot on {path}: {body}");
                    assert!(
                        gen >= last_gen,
                        "generation went backwards ({last_gen} -> {gen})"
                    );
                    if path == "/stats" {
                        assert!(
                            field_u64(&body, "stable") <= field_u64(&body, "active"),
                            "stable > active: {body}"
                        );
                    }
                    last_gen = gen;
                    checks += 1;
                }
                checks
            })
        })
        .collect();

    // Publish five more days while the readers run.
    for offset in 1..=5 {
        write_day(&source, &w, offset);
        std::thread::sleep(Duration::from_millis(60));
    }
    wait_for_generation(addr, 6);
    stop.store(true, Ordering::Release);
    let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 20, "readers barely ran ({total} checks)");

    let report = handle.shutdown();
    assert!(report.clean);
    assert_eq!(report.generation, 6);
    assert_eq!(report.metrics.ingested_days, 6);
    let _ = std::fs::remove_dir_all(&source);
}

#[test]
fn restart_serves_the_journaled_snapshot_without_source() {
    let source = tempdir("resume-src");
    let state = tempdir("resume-state");
    let w = world();
    for offset in 0..3 {
        write_day(&source, &w, offset);
    }
    let handle = spawn(fast_config(source.clone(), Some(state.clone()))).unwrap();
    wait_for_generation(handle.addr(), 3);
    let (_, before) = get(handle.addr(), "/stats");
    assert!(handle.shutdown().clean);

    // Restart against an EMPTY source: everything must come back from
    // the journal + checkpoints alone, and be served immediately.
    let empty = tempdir("resume-empty");
    let handle = spawn(fast_config(empty.clone(), Some(state.clone()))).unwrap();
    assert!(handle.is_ready(), "journaled state must be ready at spawn");
    assert_eq!(handle.snapshot().generation, 3);
    let (status, after) = get(handle.addr(), "/stats");
    assert_eq!(status, 200);
    assert_eq!(field_u64(&after, "generation"), 3);
    assert_eq!(
        field_u64(&after, "active"),
        field_u64(&before, "active"),
        "restored census must match the pre-shutdown one"
    );
    let report = handle.shutdown();
    assert_eq!(report.metrics.resumed_days, 3);
    assert_eq!(report.metrics.recovered_errors, 0);
    for d in [&source, &state, &empty] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn torn_journal_recovers_by_reingesting_from_source() {
    let source = tempdir("torn-src");
    let state = tempdir("torn-state");
    let w = world();
    for offset in 0..3 {
        write_day(&source, &w, offset);
    }
    let handle = spawn(fast_config(source.clone(), Some(state.clone()))).unwrap();
    wait_for_generation(handle.addr(), 3);
    assert!(handle.shutdown().clean);

    // Corrupt the journal the way a dying disk would (the atomic rename
    // itself can't produce this): chop off the end marker.
    let text = std::fs::read_to_string(journal_path(&state)).unwrap();
    let torn: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
    std::fs::write(journal_path(&state), torn).unwrap();

    let handle = spawn(fast_config(source.clone(), Some(state.clone()))).unwrap();
    // Nothing restored — but the daemon recovers by re-ingesting.
    wait_for_generation(handle.addr(), 3);
    let report = handle.shutdown();
    assert_eq!(report.generation, 3);
    assert_eq!(report.metrics.resumed_days, 0);
    assert!(report.metrics.recovered_errors >= 1);
    assert_eq!(report.metrics.ingested_days, 3);
    for d in [&source, &state] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn impossible_date_decoys_do_not_stop_the_follower() {
    let source = tempdir("decoy");
    let w = world();
    for offset in 0..3 {
        write_day(&source, &w, offset);
    }
    // Named for days that do not exist; one even carries a real log.
    std::fs::write(
        source.join("2015-02-30.log"),
        w.day_log(epochs::mar2015() + 3).to_text(),
    )
    .unwrap();
    std::fs::write(source.join("2015-13-01.log"), "not a log\n").unwrap();
    std::fs::write(source.join("notes.txt"), "not a log\n").unwrap();
    let handle = spawn(fast_config(source.clone(), None)).unwrap();
    wait_for_generation(handle.addr(), 3);
    let (status, body) = get(handle.addr(), "/readyz");
    assert_eq!(status, 200, "{body}");
    let published: Vec<_> = handle.snapshot().census.days().collect();
    let want: Vec<_> = (0..3).map(|i| epochs::mar2015() + i).collect();
    assert_eq!(published, want);
    let report = handle.shutdown();
    assert_eq!(report.generation, 3);
    assert_eq!(report.metrics.quarantined_files, 0);
    assert_eq!(report.metrics.ingest_failures, 0);
    let _ = std::fs::remove_dir_all(&source);
}
