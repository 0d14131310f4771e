//! End-to-end lint-engine tests over the `.rs` fixtures in
//! `tests/fixtures/`: one positive and one negative fixture per rule,
//! pragma suppression and accountability, severity mapping, and a
//! self-check that the workspace at HEAD is clean under its own
//! `lint.toml`.
//!
//! All fixture runs use `Config::default()` (no `lint.toml`), under
//! which every rule applies to every file — fixtures stay config-free.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use lint::config::Config;
use lint::engine::{lint_files, lint_workspace, load_config, SeverityMap};
use lint::report::{Report, Severity};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Lints one fixture file with default config and default (deny-all)
/// severities.
fn lint_fixture(name: &str) -> Report {
    let dir = fixtures_dir();
    let path = dir.join(name);
    assert!(path.is_file(), "missing fixture {}", path.display());
    lint_files(&dir, &[path], &Config::default(), &SeverityMap::default())
        .expect("fixture lints without engine errors")
}

/// Unsuppressed findings of `rule` in the report.
fn hits<'a>(report: &'a Report, rule: &'a str) -> Vec<&'a lint::report::Diagnostic> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.rule == rule && !d.suppressed)
        .collect()
}

fn assert_bad(name: &str, rule: &str, at_least: usize) {
    let report = lint_fixture(name);
    let found = hits(&report, rule);
    assert!(
        found.len() >= at_least,
        "{name}: expected >= {at_least} unsuppressed {rule} findings, got {}: {:?}",
        found.len(),
        report.diagnostics
    );
    assert_eq!(
        report.exit_code(),
        1,
        "{name}: seeded violations must fail the run"
    );
    for d in found {
        assert!(d.line > 0, "{name}: finding has a real line");
        assert!(
            !d.snippet.is_empty(),
            "{name}: finding carries its source line"
        );
    }
}

fn assert_ok(name: &str) {
    let report = lint_fixture(name);
    let loud: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| !d.suppressed && d.discharged_by.is_none())
        .collect();
    assert!(
        loud.is_empty(),
        "{name}: expected a clean report, got {loud:?}"
    );
    assert_eq!(report.exit_code(), 0);
}

// ------------------------------------------------------- per-rule pairs

#[test]
fn l001_bad_fixture_is_flagged() {
    // unwrap, expect, panic!, todo!, unimplemented!, unreachable!, and
    // two literal index sites.
    assert_bad("l001_bad.rs", "L001", 8);
}

#[test]
fn l001_ok_fixture_is_clean() {
    assert_ok("l001_ok.rs");
}

#[test]
fn l002_bad_fixture_is_flagged() {
    // HashMap/HashSet appear on the use line and at their construction
    // sites, the two wall-clock reads, and the `{:e}` format spec.
    assert_bad("l002_bad.rs", "L002", 5);
}

#[test]
fn l002_ok_fixture_is_clean() {
    assert_ok("l002_ok.rs");
}

#[test]
fn l003_bad_fixture_is_flagged() {
    assert_bad("l003_bad.rs", "L003", 4);
}

#[test]
fn l003_ok_fixture_is_clean() {
    assert_ok("l003_ok.rs");
}

#[test]
fn l004_bad_fixture_is_flagged() {
    // One stringly `String` error and one multi-line `Box<dyn Error>`
    // signature.
    assert_bad("l004_bad.rs", "L004", 2);
}

#[test]
fn l004_ok_fixture_is_clean() {
    assert_ok("l004_ok.rs");
}

#[test]
fn l005_bad_fixture_is_flagged() {
    assert_bad("l005_bad.rs", "L005", 2);
}

#[test]
fn l005_ok_fixture_is_clean() {
    assert_ok("l005_ok.rs");
}

#[test]
fn l006_bad_fixture_is_flagged() {
    // The expression shift, its `128 - n`, `len * 3`, `scaled + 1`,
    // and `total += step`.
    assert_bad("l006_bad.rs", "L006", 5);
}

#[test]
fn l006_ok_fixture_is_clean() {
    // Also the regression fixture for `>>` generic closers: the
    // `IntoIterator<Item = u64>>(iter` signature must not read as a
    // right shift.
    assert_ok("l006_ok.rs");
}

#[test]
fn l007_bad_fixture_is_flagged() {
    // One `let _ =` and one trailing `.ok();`.
    assert_bad("l007_bad.rs", "L007", 2);
}

#[test]
fn l007_ok_fixture_is_clean() {
    assert_ok("l007_ok.rs");
}

// --------------------------------------------------- R001 reachability

/// The three-file reach fixture: `reach_entry::main` calls
/// `reach_mid::relay` calls `reach_panic::boom`, which panics. R001
/// must find the site and print the interprocedural witness chain.
#[test]
fn reach_fixture_prints_the_call_chain() {
    let dir = fixtures_dir();
    let cfg = Config::parse("[reach]\nentry_points = [\"reach_entry::main\"]\n")
        .expect("fixture config parses");
    let report = lint_files(
        &dir,
        &[
            dir.join("reach_entry.rs"),
            dir.join("reach_mid.rs"),
            dir.join("reach_panic.rs"),
        ],
        &cfg,
        &SeverityMap::default(),
    )
    .expect("fixture lints");
    let r001 = hits(&report, "R001");
    assert_eq!(r001.len(), 1, "{:?}", report.diagnostics);
    let d = r001.first().expect("one R001 finding");
    assert_eq!(d.rel, "reach_panic.rs");
    assert!(
        d.message
            .contains("reachable from entry `reach_entry::main`"),
        "{}",
        d.message
    );
    assert_eq!(
        d.chain.as_deref(),
        Some("reach_entry::main → reach_mid::relay → reach_panic::boom"),
        "chain must name every hop: {:?}",
        d.chain
    );
    assert_eq!(report.exit_code(), 1, "a reachable panic fails the run");
}

// ------------------------------------------------------ R002 dataflow

/// The acceptance fixture: an out-of-range shift reachable from an
/// entry point must fail the run with a witness trace naming the
/// originating range and the sink.
#[test]
fn r002_bad_fixture_fails_with_witness_trace() {
    let report = lint_fixture("r002_bad.rs");
    let r002 = hits(&report, "R002");
    assert_eq!(r002.len(), 1, "{:?}", report.diagnostics);
    let d = r002.first().expect("one R002 finding");
    assert_eq!(d.rel, "r002_bad.rs");
    assert!(
        d.message.contains("cannot prove `<<` amount"),
        "message names the sink: {}",
        d.message
    );
    let chain = d.chain.as_deref().expect("witness chain");
    assert!(
        chain.contains("parameter `n` of `scatter`"),
        "chain names the originating range: {chain}"
    );
    assert_eq!(
        report.exit_code(),
        1,
        "a seeded out-of-range shift fails the run"
    );
}

/// Masked, guard-refined, and loop-bounded shifts are all proven; the
/// proofs also discharge L006's syntactic findings on those lines.
#[test]
fn r002_ok_fixture_is_proven_clean() {
    assert_ok("r002_ok.rs");
    let report = lint_fixture("r002_ok.rs");
    assert!(hits(&report, "R002").is_empty(), "{:?}", report.diagnostics);
    assert!(
        report.discharged_count() >= 3,
        "each proven shift discharges its L006 finding, got {}",
        report.discharged_count()
    );
}

/// Dataflow-proven sites keep their syntactic findings in the JSON
/// output, marked `"discharged_by": "R002"` — auditable, not hidden.
#[test]
fn discharged_findings_are_visible_in_json() {
    let report = lint_fixture("r002_ok.rs");
    let json = report.render_json();
    assert!(
        json.contains("\"discharged_by\": \"R002\""),
        "JSON carries the discharge note:\n{json}"
    );
    assert!(
        json.contains("\"discharged\": "),
        "summary counts discharges:\n{json}"
    );
}

/// The three-file interprocedural fixture: `r002_entry::main` drives
/// `r002_mid::relay` with a `0..100` loop index, `relay` forwards to
/// the private `sink`, and the shift there cannot be proven — the
/// witness chain must name every hop back to the originating loop.
#[test]
fn r002_interprocedural_witness_names_every_hop() {
    let dir = fixtures_dir();
    let report = lint_files(
        &dir,
        &[dir.join("r002_entry.rs"), dir.join("r002_mid.rs")],
        &Config::default(),
        &SeverityMap::default(),
    )
    .expect("fixture lints");
    let r002 = hits(&report, "R002");
    assert_eq!(r002.len(), 1, "{:?}", report.diagnostics);
    let d = r002.first().expect("one R002 finding");
    assert_eq!(d.rel, "r002_mid.rs", "the finding sits on the sink");
    let chain = d.chain.as_deref().expect("witness chain");
    assert!(
        chain.contains("loop at r002_entry.rs"),
        "chain starts at the originating loop: {chain}"
    );
    assert!(
        chain.contains("argument `k` of relay") && chain.contains("argument `s` of sink"),
        "chain names both call hops: {chain}"
    );
    assert_eq!(report.exit_code(), 1);
}

/// Unit-domain enforcement: annotated bits and nybbles parameters must
/// not meet in linear arithmetic without an explicit conversion.
#[test]
fn r002_unit_mixing_is_flagged() {
    let dir = fixtures_dir();
    let cfg = Config::parse(
        "[rules.R002]\nbits_params = [\"blend::b\"]\nnybble_params = [\"blend::n\"]\n",
    )
    .expect("fixture config parses");
    let report = lint_files(
        &dir,
        &[dir.join("r002_units.rs")],
        &cfg,
        &SeverityMap::default(),
    )
    .expect("fixture lints");
    let mixes: Vec<_> = hits(&report, "R002")
        .into_iter()
        .filter(|d| d.message.contains("unit mismatch"))
        .collect();
    assert_eq!(mixes.len(), 1, "{:?}", report.diagnostics);
    let d = mixes.first().expect("one unit-mix finding");
    assert!(
        d.message.contains("bit indices") || d.message.contains("bits"),
        "{}",
        d.message
    );
    assert_eq!(report.exit_code(), 1);
}

// -------------------------------------------- R003/R004 concurrency

/// The seeded AB/BA deadlock: `fwd` holds `A` and takes `B` through
/// `take_b`, `rev` holds `B` and takes `A` through `take_a`. R003 must
/// report one cycle whose witness spells both chains — every fn hop
/// and both lock names.
#[test]
fn r003_cycle_fixture_prints_both_witness_chains() {
    let report = lint_fixture("r003_cycle.rs");
    let r003 = hits(&report, "R003");
    assert_eq!(r003.len(), 1, "{:?}", report.diagnostics);
    let d = r003.first().expect("one R003 finding");
    assert_eq!(d.rel, "r003_cycle.rs");
    assert!(
        d.message.contains("lock-order cycle"),
        "message names the failure class: {}",
        d.message
    );
    let chain = d.chain.as_deref().expect("cycle witness");
    for hop in [
        "r003_cycle::fwd",
        "r003_cycle::take_b",
        "r003_cycle::rev",
        "r003_cycle::take_a",
    ] {
        assert!(chain.contains(hop), "chain must name hop {hop}: {chain}");
    }
    assert!(
        chain.contains("`A`") && chain.contains("`B`"),
        "chain names both locks: {chain}"
    );
    assert!(
        chain.contains("holds") && chain.contains("acquires"),
        "each chain spells hold-then-acquire: {chain}"
    );
    assert_eq!(report.exit_code(), 1, "a lock-order cycle fails the run");
}

/// Blocking while a guard is live: a direct `thread::sleep` under a
/// static's guard and a channel `recv()` under a field's guard.
#[test]
fn r004_bad_fixture_flags_both_blocking_sites() {
    let report = lint_fixture("r004_bad.rs");
    let r004 = hits(&report, "R004");
    assert_eq!(r004.len(), 2, "{:?}", report.diagnostics);
    let sleep = r004
        .iter()
        .find(|d| d.message.contains("sleep"))
        .expect("sleep-under-lock finding");
    assert!(
        sleep.message.contains("`STATE`"),
        "names the held lock: {}",
        sleep.message
    );
    let recv = r004
        .iter()
        .find(|d| d.message.contains("recv"))
        .expect("recv-under-lock finding");
    assert!(
        recv.message.contains("`Inbox.seq`"),
        "names the held field lock: {}",
        recv.message
    );
    for d in &r004 {
        let chain = d.chain.as_deref().expect("R004 witness");
        assert!(chain.contains("holds"), "chain shows the hold: {chain}");
    }
    assert_eq!(report.exit_code(), 1);
}

/// Guards dropped before blocking — explicitly or by dying at their
/// statement's `;` — are clean.
#[test]
fn r004_ok_fixture_is_clean() {
    assert_ok("r004_ok.rs");
    let report = lint_fixture("r004_ok.rs");
    assert!(hits(&report, "R004").is_empty(), "{:?}", report.diagnostics);
}

// ---------------------------------------------------------------- L008

/// Raw `std::fs` mutations in a durability-scoped module: the write,
/// the rename, and the `File::create` are each a bypass.
#[test]
fn l008_bad_fixture_flags_every_bypass() {
    assert_bad("l008_bad.rs", "L008", 3);
}

/// Mutations routed through a Vfs seam are clean.
#[test]
fn l008_ok_fixture_is_clean() {
    assert_ok("l008_ok.rs");
}

// ------------------------------------------- R005/R006 allocations

/// The two-hop R005 fixture: `hot` loops and calls `relay`, which
/// calls `leaf`, which allocates a fresh `String` every call. The
/// witness chain must name the entry, the loop line, both call hops,
/// and the concrete allocation site.
#[test]
fn r005_bad_fixture_chain_names_every_hop() {
    let dir = fixtures_dir();
    let cfg = Config::parse("[hot]\nentry_points = [\"r005_bad::hot\"]\n").expect("config parses");
    let report = lint_files(
        &dir,
        &[dir.join("r005_bad.rs")],
        &cfg,
        &SeverityMap::default(),
    )
    .expect("fixture lints");
    let r005 = hits(&report, "R005");
    assert_eq!(r005.len(), 1, "{:?}", report.diagnostics);
    let d = r005.first().expect("one R005 finding");
    assert_eq!(d.rel, "r005_bad.rs");
    assert!(
        d.message.contains("allocates on every iteration"),
        "message names the failure class: {}",
        d.message
    );
    let chain = d.chain.as_deref().expect("witness chain");
    for hop in [
        "r005_bad::hot",
        "loop @ r005_bad.rs:",
        "r005_bad::relay",
        "r005_bad::leaf",
        "String::new",
    ] {
        assert!(chain.contains(hop), "chain must name {hop}: {chain}");
    }
    assert_eq!(report.exit_code(), 1, "a hot-loop allocation fails the run");
}

/// The hoisted-buffer counterpart: one reservation outside the loop,
/// `clear()`-reuse inside, out-param fill — proven allocation-free per
/// iteration under the same `[hot]` config.
#[test]
fn r005_ok_fixture_reused_buffer_is_clean() {
    let dir = fixtures_dir();
    let cfg = Config::parse("[hot]\nentry_points = [\"r005_ok::hot\"]\n").expect("config parses");
    let report = lint_files(
        &dir,
        &[dir.join("r005_ok.rs")],
        &cfg,
        &SeverityMap::default(),
    )
    .expect("fixture lints");
    let loud: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| !d.suppressed && d.discharged_by.is_none())
        .collect();
    assert!(loud.is_empty(), "expected a clean report, got {loud:?}");
    assert_eq!(report.exit_code(), 0);
}

/// Unreserved `push` growth in a loop is flagged even outside any hot
/// path — R006 is intra-function and needs no `[hot]` config.
#[test]
fn r006_bad_fixture_flags_unreserved_growth() {
    let report = lint_fixture("r006_bad.rs");
    let r006 = hits(&report, "R006");
    assert_eq!(r006.len(), 1, "{:?}", report.diagnostics);
    let d = r006.first().expect("one R006 finding");
    assert!(
        d.message.contains("`out`") && d.message.contains("with_capacity"),
        "message names the buffer and the remedy: {}",
        d.message
    );
    assert_eq!(report.exit_code(), 1);
}

/// Both sanctioned growth disciplines — dominating reservation and
/// `&mut` out-param — are proven clean.
#[test]
fn r006_ok_fixture_is_clean() {
    assert_ok("r006_ok.rs");
}

// ------------------------------------------------------------- golden

/// Fixtures linted together by their per-rule tests; every other
/// fixture is linted alone.
const FIXTURE_SETS: &[&[&str]] = &[
    &["reach_entry.rs", "reach_mid.rs", "reach_panic.rs"],
    &["r002_entry.rs", "r002_mid.rs"],
];

/// Pins the exact bytes of every fixture report — messages, snippets
/// and full witness chains — under `Config::default()`, so a refactor
/// of the proof machinery cannot silently reword or reroute a witness.
/// The per-rule tests above only check fragments of each chain.
#[test]
fn fixture_reports_match_golden() {
    let dir = fixtures_dir();
    let mut sets: Vec<Vec<String>> = FIXTURE_SETS
        .iter()
        .map(|set| set.iter().map(|n| n.to_string()).collect())
        .collect();
    let mut singles: Vec<String> = fs::read_dir(&dir)
        .expect("fixtures dir lists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.ends_with(".rs") && !sets.iter().flatten().any(|s| s == n))
        .collect();
    singles.sort();
    sets.extend(singles.into_iter().map(|n| vec![n]));

    let mut rendered = String::from("{");
    for (i, set) in sets.iter().enumerate() {
        let paths: Vec<PathBuf> = set.iter().map(|n| dir.join(n)).collect();
        let report = lint_files(&dir, &paths, &Config::default(), &SeverityMap::default())
            .expect("fixture set lints");
        let _ = write!(
            rendered,
            "{}\n\"{}\": {}",
            if i == 0 { "" } else { "," },
            set.join(" + "),
            report.render_json().trim_end()
        );
    }
    rendered.push_str("\n}\n");
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden.json");
    let golden = fs::read_to_string(&golden_path).unwrap_or_default();
    assert!(
        rendered == golden,
        "fixture reports differ from {}; rendered:\n{rendered}",
        golden_path.display()
    );
}

/// `src` with a `/* c */` block comment in front of every code token:
/// nothing lands inside a string, comment or pragma, and no line moves.
fn comment_every_token(src: &str) -> String {
    let mut out = String::with_capacity(src.len() * 2);
    let mut pos = 0;
    for tok in lint::lexer::lex(src).iter().filter(|t| !t.is_comment()) {
        out.push_str(&src[pos..tok.start]);
        out.push_str("/* c */");
        pos = tok.start;
    }
    out.push_str(&src[pos..]);
    out
}

/// The semantic proofs read one comment-free token view, so a comment
/// between any two tokens changes none of their findings: every R002–R006
/// fixture (and both fixture sets) re-linted with a comment before every
/// code token reports the same `(rule, path, line, message, chain)`
/// tuples. Snippets are source lines and may differ.
#[test]
fn semantic_findings_ignore_comments_between_tokens() {
    let dir = fixtures_dir();
    let commented = Path::new(env!("CARGO_TARGET_TMPDIR")).join("commented_fixtures");
    fs::create_dir_all(&commented).expect("scratch fixture dir");
    let mut sets: Vec<Vec<String>> = FIXTURE_SETS
        .iter()
        .map(|set| set.iter().map(|n| n.to_string()).collect())
        .collect();
    let mut singles: Vec<String> = fs::read_dir(&dir)
        .expect("fixtures dir lists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| {
            ["r002", "r003", "r004", "r005", "r006"]
                .iter()
                .any(|r| n.starts_with(r))
        })
        .filter(|n| !sets.iter().flatten().any(|s| s == n))
        .collect();
    singles.sort();
    sets.extend(singles.into_iter().map(|n| vec![n]));
    let semantic = |root: &Path, set: &[String]| {
        let paths: Vec<PathBuf> = set.iter().map(|n| root.join(n)).collect();
        let report = lint_files(root, &paths, &Config::default(), &SeverityMap::default())
            .expect("fixture set lints");
        let tuples = report
            .diagnostics
            .into_iter()
            .filter(|d| ["R002", "R003", "R004", "R005", "R006"].contains(&d.rule.as_str()));
        tuples
            .map(|d| (d.rule, d.rel, d.line, d.message, d.chain))
            .collect::<Vec<_>>()
    };
    let mut compared = 0;
    for set in &sets {
        for name in set {
            let src = fs::read_to_string(dir.join(name)).expect("fixture reads");
            fs::write(commented.join(name), comment_every_token(&src)).expect("fixture copy");
        }
        let want = semantic(&dir, set);
        assert_eq!(semantic(&commented, set), want, "{}", set.join(" + "));
        compared += want.len();
    }
    assert!(
        compared > 0,
        "the fixtures carry semantic findings to compare"
    );
}

// ------------------------------------------------------------- pragmas

#[test]
fn valid_pragmas_suppress_and_are_all_used() {
    let report = lint_fixture("pragma_ok.rs");
    assert_eq!(
        report.exit_code(),
        0,
        "all violations carry pragmas: {:?}",
        report.diagnostics
    );
    assert_eq!(
        report.suppressed_count(),
        3,
        "trailing, standalone, and file-wide pragmas each suppress one finding"
    );
    assert!(
        hits(&report, "P001").is_empty(),
        "no pragma is unused in pragma_ok.rs"
    );
    assert!(hits(&report, "P000").is_empty());
}

#[test]
fn bad_pragmas_do_not_suppress_and_are_reported() {
    let report = lint_fixture("pragma_bad.rs");
    assert_eq!(report.exit_code(), 1);
    // The reason-less `allow(L001)` and the `gibberish(...)` verb are
    // both pragma-syntax findings.
    assert_eq!(hits(&report, "P000").len(), 2, "{:?}", report.diagnostics);
    // A reason-less pragma must NOT suppress the finding it sits on.
    assert_eq!(hits(&report, "L001").len(), 1);
    // The well-formed pragma with nothing to suppress is dead weight.
    assert_eq!(hits(&report, "P001").len(), 1);
    assert_eq!(report.suppressed_count(), 0);
}

// ------------------------------------------------------------ severity

#[test]
fn warn_severity_reports_without_failing() {
    let dir = fixtures_dir();
    let mut severities = SeverityMap::default();
    severities.push("all", Severity::Warn);
    let report = lint_files(
        &dir,
        &[dir.join("l001_bad.rs")],
        &Config::default(),
        &severities,
    )
    .expect("lints");
    assert_eq!(report.exit_code(), 0, "warnings never fail the run");
    assert!(report.warned().count() >= 8);
    assert_eq!(report.denied().count(), 0);

    // Re-denying one rule over the warn-all baseline restores failure.
    severities.push("L001", Severity::Deny);
    let report = lint_files(
        &dir,
        &[dir.join("l001_bad.rs")],
        &Config::default(),
        &severities,
    )
    .expect("lints");
    assert_eq!(
        report.exit_code(),
        1,
        "later --deny L001 overrides --warn all"
    );
}

// ----------------------------------------------------------- self-check

/// The workspace at HEAD must be clean under its own checked-in
/// `lint.toml` — the same invariant CI enforces with
/// `cargo run -p lint -- --workspace --deny all`. If this fails, a
/// change introduced a violation without fixing it or justifying it
/// with a reasoned pragma.
#[test]
fn workspace_at_head_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    assert!(
        root.join("lint.toml").is_file(),
        "self-check needs the checked-in lint.toml at {}",
        root.display()
    );
    let cfg = load_config(&root).expect("lint.toml parses");
    let report = lint_workspace(&root, &cfg, &SeverityMap::default()).expect("workspace lints");
    let loud: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| !d.suppressed && d.discharged_by.is_none())
        .map(|d| format!("{}:{} {} {}", d.rel, d.line, d.rule, d.message))
        .collect();
    assert!(
        loud.is_empty(),
        "workspace is not lint-clean:\n{}",
        loud.join("\n")
    );
    assert_eq!(report.exit_code(), 0);
    assert!(
        report.files_scanned > 50,
        "discovery found the whole workspace"
    );
    // Reasoned pragmas are debt the dataflow is meant to retire, not
    // accrue: the ceiling is the count at HEAD (3 — the supervisor's
    // L002 wall-clock allowance, faults.rs trip()'s R001 allowance, and
    // serve.rs now()'s L002 allowance: the daemon needs one monotonic
    // clock for socket/drain deadlines, funneled through a single
    // helper that no snapshot, response body, or equivalence key ever
    // reads). The ceiling includes the concurrency rules added with
    // R003/R004/L008: the daemon's hot paths are *proven* clean (locks
    // dropped before I/O, all mutations through core::vfs), not
    // pragma'd clean, so none of the three budget slots may be spent
    // on them. Raising it needs a reviewed justification here, not
    // just a new pragma.
    assert!(
        report.suppressed_count() <= 3,
        "reasoned-pragma total grew to {} (ceiling 3, R003/R004/L008 \
         included) — prove the site via R002/R003/R004 or justify \
         raising the ceiling",
        report.suppressed_count()
    );
    let conc_pragmas: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.suppressed && matches!(d.rule.as_str(), "R003" | "R004" | "L008"))
        .map(|d| format!("{}:{} {}", d.rel, d.line, d.rule))
        .collect();
    assert!(
        conc_pragmas.is_empty(),
        "concurrency/durability findings must be fixed, never \
         pragma'd:\n{}",
        conc_pragmas.join("\n")
    );
    // The allocation rules joined the same regime: the ceiling above
    // already includes R005/R006, and the trie's per-address descent
    // loop in particular must stay *proven* allocation-free — the
    // arena rewrite exists precisely so `try_insert` carries no
    // per-iteration allocation. A pragma there would quietly undo the
    // pipeline's headline optimization.
    let r005_pragmas: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.suppressed && d.rule == "R005" && d.rel.contains("trie/src/tree.rs"))
        .map(|d| format!("{}:{} {}", d.rel, d.line, d.rule))
        .collect();
    assert!(
        r005_pragmas.is_empty(),
        "R005 in the trie descent path must be fixed, never \
         pragma'd:\n{}",
        r005_pragmas.join("\n")
    );
}
