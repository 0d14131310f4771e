//! Process-level contract of the `v6census` binary: the documented exit
//! codes, including 3 (completed-but-degraded) when a supervised census
//! sheds work — never a panic abort.

use std::path::PathBuf;
use std::process::Command;
use v6census_cli::{EXIT_DATA_ERROR, EXIT_DEGRADED, EXIT_OK, EXIT_USAGE};
use v6census_synth::world::epochs;
use v6census_synth::{FaultInjector, FaultSpec, World, WorldConfig};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_v6census"))
}

fn logs_dir(tag: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("v6census-exit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let world = World::standard(WorldConfig {
        seed: 97,
        scale: 0.002,
    });
    let first = epochs::mar2015();
    FaultInjector::new(0xec0)
        .write_day_files(
            &world,
            first,
            first + 14,
            &dir,
            &FaultSpec { faults: vec![] },
        )
        .unwrap();
    (dir.clone(), format!("{}", first + 7))
}

#[test]
fn usage_errors_exit_2() {
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(EXIT_USAGE));
    let out = bin().arg("no-such-command").output().unwrap();
    assert_eq!(out.status.code(), Some(EXIT_USAGE));
    for scale in ["nan", "inf", "-1", "1e6", "1e300"] {
        let out = bin().args(["synth", "--scale", scale]).output().unwrap();
        assert_eq!(out.status.code(), Some(EXIT_USAGE), "--scale {scale}");
    }
    // Impossible or malformed dates are usage errors, never a panic.
    for args in [
        &["synth", "--day", "2015-02-30"][..],
        &["synth", "--day", "17-03"],
        &[
            "census",
            "/nonexistent/v6census-exit-test",
            "--reference",
            "2015-02-31",
        ],
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(EXIT_USAGE), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("YYYY-MM-DD"));
    }
    let help = bin().arg("help").output().unwrap();
    assert_eq!(help.status.code(), Some(EXIT_OK));
    let usage = String::from_utf8(help.stdout).unwrap();
    for needle in [
        "EXIT CODES",
        "--jobs",
        "--stage-deadline",
        "--max-trie-nodes",
    ] {
        assert!(usage.contains(needle), "usage lacks {needle}:\n{usage}");
    }
}

#[test]
fn impossible_date_file_names_are_not_day_files() {
    let dir = std::env::temp_dir().join(format!("v6census-exit-decoy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("2015-03-17.txt"), "2001:db8::1\n2001:db8::2\n").unwrap();
    std::fs::write(dir.join("2015-02-30.txt"), "2001:db8::3\n").unwrap();
    let out = bin()
        .args(["stability", "--dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(EXIT_OK),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("over 1 days"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn data_errors_exit_1() {
    let out = bin()
        .args(["census", "--dir", "/nonexistent/v6census-exit-test"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(EXIT_DATA_ERROR));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn clean_census_exits_0_and_injected_panic_exits_3() {
    let (dir, reference) = logs_dir("codes");

    let clean = bin()
        .args([
            "census",
            "--dir",
            dir.to_str().unwrap(),
            &format!("--reference={reference}"),
            "--jobs=4",
        ])
        .output()
        .unwrap();
    assert_eq!(
        clean.status.code(),
        Some(EXIT_OK),
        "stderr: {}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let stdout = String::from_utf8(clean.stdout).unwrap();
    assert!(stdout.contains("==== run manifest ===="), "{stdout}");
    assert!(stdout.contains("quality: exact"), "{stdout}");

    // A shard that panics on both attempts: the process must still
    // finish the run, print a manifest naming the casualty, and exit 3.
    let degraded = bin()
        .args([
            "census",
            "--dir",
            dir.to_str().unwrap(),
            &format!("--reference={reference}"),
            "--jobs=4",
            "--inject=panic:stability:2",
        ])
        .output()
        .unwrap();
    assert_eq!(
        degraded.status.code(),
        Some(EXIT_DEGRADED),
        "stderr: {}",
        String::from_utf8_lossy(&degraded.stderr)
    );
    let stdout = String::from_utf8(degraded.stdout).unwrap();
    assert!(stdout.contains("excluded stability/"), "{stdout}");
    assert!(stdout.contains("quality: partial"), "{stdout}");
    // The contained panic stays off stderr — it is reported through the
    // manifest, not as a crash trace.
    let stderr = String::from_utf8_lossy(&degraded.stderr);
    assert!(
        !stderr.contains("panicked at"),
        "contained panic leaked to stderr: {stderr}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
