//! Process-level contract of `repro_all`, the one regenerator of the
//! paper's tables and figures: it writes a fixed set of files, the same
//! bytes on every run, and rejects a scale it cannot honour.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Every file `repro_all --out DIR` writes (the layout of `results/full/`).
const FILES: [&str; 50] = [
    "dense_www.txt",
    "eui64_analysis.txt",
    "fig1_samples.txt",
    "fig2a_university.svg",
    "fig2a_university.tsv",
    "fig2a_university.txt",
    "fig2b_jp_telco.svg",
    "fig2b_jp_telco.tsv",
    "fig2b_jp_telco.txt",
    "fig3_population_ccdf.svg",
    "fig3_population_ccdf.tsv",
    "fig3_population_ccdf.txt",
    "fig4a_addr_stability.tsv",
    "fig4a_addr_stability.txt",
    "fig4b_64_stability.tsv",
    "fig4b_64_stability.txt",
    "fig5a_asn_ccdf.tsv",
    "fig5a_asn_ccdf.txt",
    "fig5b_segment_boxes.txt",
    "fig5c_all.svg",
    "fig5c_all.tsv",
    "fig5c_all.txt",
    "fig5d_6to4.svg",
    "fig5d_6to4.tsv",
    "fig5d_6to4.txt",
    "fig5e_pool_utilization.txt",
    "fig5e_us_mobile.svg",
    "fig5e_us_mobile.tsv",
    "fig5e_us_mobile.txt",
    "fig5e_us_mobile_1day.txt",
    "fig5f_eu_isp.svg",
    "fig5f_eu_isp.tsv",
    "fig5f_eu_isp.txt",
    "fig5g_univ_dept.svg",
    "fig5g_univ_dept.tsv",
    "fig5g_univ_dept.txt",
    "fig5h_jp_isp.svg",
    "fig5h_jp_isp.tsv",
    "fig5h_jp_isp.txt",
    "highlights.txt",
    "ptr_harvest.txt",
    "router_discovery.txt",
    "stable_prefixes.txt",
    "table1a_per_day.txt",
    "table1b_per_week.txt",
    "table2a_addr_daily.txt",
    "table2b_64_daily.txt",
    "table2c_addr_weekly.txt",
    "table2d_64_weekly.txt",
    "table3_dense_routers.txt",
];

fn repro_all() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro_all"))
}

/// Runs `repro_all --scale 0.01 --out <fresh dir>` and returns every
/// file it wrote, by name.
fn run(tag: &str) -> BTreeMap<String, Vec<u8>> {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("v6census-repro-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = repro_all()
        .args(["--scale", "0.01", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let files = read_dir(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    files
}

fn read_dir(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

#[test]
fn writes_every_file_with_the_same_bytes_each_run() {
    let first = run("a");
    let names: Vec<&str> = first.keys().map(String::as_str).collect();
    assert_eq!(names, FILES);
    assert!(first.values().all(|bytes| !bytes.is_empty()));
    let second = run("b");
    for (name, bytes) in &first {
        assert!(second[name] == *bytes, "{name} differs between runs");
    }
}

#[test]
fn non_finite_scale_is_a_usage_error() {
    for scale in ["nan", "inf", "0", "-1", "1e6", "1e300"] {
        let out = repro_all().args(["--scale", scale]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "--scale {scale}");
    }
}
