//! The lint engine: file discovery, rule scoping, pragma application,
//! and pragma accountability (P000 / P001).
//!
//! Pragmas are part of the contract, not an escape hatch: a malformed
//! or reason-less pragma is itself a finding (`P000` pragma-syntax),
//! and a pragma that suppresses nothing is dead weight (`P001`
//! unused-pragma). This is what makes "every surviving allow pragma
//! carries a reason" machine-checked rather than reviewed.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::report::{Diagnostic, Report, Severity};
use crate::rules::{registry, semantic_registry, Workspace};
use crate::scan::{code_views, scan, ScannedFile};
use crate::symbols::SymbolTable;

/// Severity overrides from `--deny <rule>` / `--warn <rule>` flags,
/// applied in order; `all` matches every rule. Default is `Deny`.
#[derive(Clone, Debug, Default)]
pub struct SeverityMap {
    overrides: Vec<(String, Severity)>,
}

impl SeverityMap {
    /// Appends an override; later entries win.
    pub fn push(&mut self, rule: &str, severity: Severity) {
        self.overrides.push((rule.to_string(), severity));
    }

    /// The effective severity for `rule`.
    pub fn severity_of(&self, rule: &str) -> Severity {
        self.overrides
            .iter()
            .rev()
            .find(|(r, _)| r == "all" || r == rule)
            .map(|&(_, s)| s)
            .unwrap_or(Severity::Deny)
    }
}

/// Errors the engine itself can hit (not findings — these are usage /
/// environment problems and exit 2).
#[derive(Debug)]
pub enum EngineError {
    /// `lint.toml` was unreadable or failed to parse.
    Config(String),
    /// A source path could not be read or walked.
    Io(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Config(e) => write!(f, "config error: {e}"),
            EngineError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Lints the workspace rooted at `root`: every `.rs` file under `src/`
/// and `crates/*/src/`, scoped and configured by `cfg`.
pub fn lint_workspace(
    root: &Path,
    cfg: &Config,
    severities: &SeverityMap,
) -> Result<Report, EngineError> {
    let files = discover(root)?;
    lint_files(root, &files, cfg, severities)
}

/// Lints an explicit file list. Paths are made workspace-relative
/// against `root` for scope matching and diagnostics.
///
/// Runs in two layers: the per-file lexical rules over each scanned
/// file, then the semantic rules (`L007`, `R001`) over the symbol
/// table and call graph built from *all* the files together. Pragma
/// application and accountability happen last, per file, so an
/// `allow(R001, …)` next to a reachable panic site both suppresses the
/// finding and is itself checked for staleness (`P001`).
pub fn lint_files(
    root: &Path,
    files: &[PathBuf],
    cfg: &Config,
    severities: &SeverityMap,
) -> Result<Report, EngineError> {
    let mut scanned: Vec<ScannedFile> = Vec::with_capacity(files.len());
    for path in files {
        let text = fs::read_to_string(path)
            .map_err(|e| EngineError::Io(format!("{}: {e}", path.display())))?;
        let rel = relative_slash(root, path);
        scanned.push(scan(path.clone(), rel, &text));
    }

    // One comment-free token view per file, shared by every layer.
    let views = code_views(&scanned);

    // Layer 1: per-file lexical rules.
    let rules = registry();
    let mut all: Vec<Diagnostic> = Vec::new();
    for (file, view) in scanned.iter().zip(&views) {
        for rule in &rules {
            if !cfg.rule_applies(rule.id(), &file.rel) {
                continue;
            }
            rule.check(file, view, cfg, &mut all);
        }
    }

    // Layer 2: workspace-level semantic rules over the symbol table
    // and call graph.
    let symbols = SymbolTable::build(&scanned, &views);
    let calls = CallGraph::build(&symbols, &views);
    let ws = Workspace {
        files: &scanned,
        views,
        symbols: &symbols,
        calls: &calls,
    };
    for rule in semantic_registry() {
        // R002 runs below through `dataflow::analyze` directly so the
        // proof sets are available for the L003/L006 discharge pass;
        // R003/R004 share one `locks::analyze` pass and R005/R006 one
        // `allocs::analyze` pass, also below.
        if matches!(rule.id(), "R002" | "R003" | "R004" | "R005" | "R006") {
            continue;
        }
        let mut out = Vec::new();
        rule.check(&ws, cfg, &mut out);
        out.retain(|d| cfg.rule_applies(rule.id(), &d.rel));
        all.append(&mut out);
    }

    // Layer 2b: the abstract-interpretation pass (rule R002). Its
    // findings join the normal pragma flow; its proof sets discharge
    // syntactic L003/L006 findings after pragmas are applied.
    let flow = crate::dataflow::analyze(&ws, cfg);
    all.extend(flow.findings.iter().cloned());

    // Layer 2c: the concurrency pass — one shared analysis feeding
    // both R003 (lock-order acyclicity) and R004 (blocking-under-lock)
    // so the guard scopes and call-graph lifting are computed once.
    let conc = crate::locks::analyze(&ws, cfg);
    all.extend(
        conc.cycle_findings
            .into_iter()
            .filter(|d| cfg.rule_applies("R003", &d.rel)),
    );
    all.extend(
        conc.blocking_findings
            .into_iter()
            .filter(|d| cfg.rule_applies("R004", &d.rel)),
    );

    // Layer 2d: the allocation-effect pass — one shared analysis
    // feeding both R005 (alloc-in-hot-loop) and R006
    // (capacity-discipline). Both rules are additionally gated by the
    // `[hot] paths` scope: the obligation is "the hot kernels stay
    // allocation-free per item", not "nothing anywhere allocates".
    let heap = crate::allocs::analyze(&ws, cfg);
    all.extend(heap.hot_findings.into_iter().filter(|d| {
        crate::allocs::hot_scope_applies(cfg, &d.rel) && cfg.rule_applies("R005", &d.rel)
    }));
    all.extend(heap.capacity_findings.into_iter().filter(|d| {
        crate::allocs::hot_scope_applies(cfg, &d.rel) && cfg.rule_applies("R006", &d.rel)
    }));

    // Layer 3: pragma application and severity mapping, per file.
    let mut by_rel: BTreeMap<&str, Vec<Diagnostic>> = BTreeMap::new();
    for d in all {
        // Keys borrow from `scanned`; a diagnostic always anchors to a
        // scanned file, but route any stranger to the report unchanged.
        match scanned.iter().find(|f| f.rel == d.rel) {
            Some(f) => by_rel.entry(f.rel.as_str()).or_default().push(d),
            None => by_rel.entry("").or_default().push(d),
        }
    }
    let mut report = Report::default();
    for file in &scanned {
        let mut file_diags = by_rel.remove(file.rel.as_str()).unwrap_or_default();
        apply_pragmas(file, &mut file_diags);
        // Dataflow discharge runs *after* pragma application so a
        // pragma that suppresses a now-proven site still counts as
        // used (deleting it is a follow-up, not a new P001 failure).
        for d in &mut file_diags {
            if !d.suppressed && flow.discharges(d) {
                d.discharged_by = Some("R002".to_string());
            }
        }
        for d in &mut file_diags {
            d.severity = severities.severity_of(&d.rule);
        }
        report.diagnostics.append(&mut file_diags);
        report.files_scanned += 1;
    }
    for (_, mut rest) in by_rel {
        for d in &mut rest {
            d.severity = severities.severity_of(&d.rule);
        }
        report.diagnostics.append(&mut rest);
    }
    Ok(report)
}

/// Reads and parses `<root>/lint.toml`; absent file means defaults
/// (every rule applies everywhere).
pub fn load_config(root: &Path) -> Result<Config, EngineError> {
    let path = root.join("lint.toml");
    if !path.exists() {
        return Ok(Config::default());
    }
    let text = fs::read_to_string(&path)
        .map_err(|e| EngineError::Config(format!("{}: {e}", path.display())))?;
    Config::parse(&text).map_err(EngineError::Config)
}

/// Walks up from `start` looking for `lint.toml` next to a `Cargo.toml`
/// to find the workspace root; falls back to `start` itself.
pub fn find_root(start: &Path) -> PathBuf {
    let mut cur = start.to_path_buf();
    loop {
        if cur.join("lint.toml").exists()
            || (cur.join("Cargo.toml").exists() && cur.join("crates").is_dir())
        {
            return cur;
        }
        match cur.parent() {
            Some(p) => cur = p.to_path_buf(),
            None => return start.to_path_buf(),
        }
    }
}

/// All `.rs` files under `<root>/src` and `<root>/crates/*/src`, sorted
/// for deterministic reports.
pub fn discover(root: &Path) -> Result<Vec<PathBuf>, EngineError> {
    let mut out = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        walk_rs(&src, &mut out)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates)
            .map_err(|e| EngineError::Io(format!("{}: {e}", crates.display())))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                walk_rs(&src, &mut out)?;
            }
        }
    }
    out.sort();
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), EngineError> {
    let entries =
        fs::read_dir(dir).map_err(|e| EngineError::Io(format!("{}: {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes.
fn relative_slash(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Applies the file's pragmas to its diagnostics, then appends the
/// pragma-accountability findings:
///
/// * `P000` pragma-syntax — malformed pragma or missing reason;
/// * `P001` unused-pragma — a valid pragma that suppressed nothing.
fn apply_pragmas(file: &ScannedFile, diags: &mut Vec<Diagnostic>) {
    let mut used = vec![false; file.pragmas.len()];
    for d in diags.iter_mut() {
        for (i, p) in file.pragmas.iter().enumerate() {
            if p.error.is_some() || p.rule != d.rule {
                continue;
            }
            if p.target_line.is_none() || p.target_line == Some(d.line) {
                d.suppressed = true;
                used[i] = true;
            }
        }
    }
    for (i, p) in file.pragmas.iter().enumerate() {
        if let Some(err) = &p.error {
            diags.push(pragma_diag(
                file,
                "P000",
                "pragma-syntax",
                p.decl_line,
                err.clone(),
            ));
        } else if !used[i] {
            diags.push(pragma_diag(
                file,
                "P001",
                "unused-pragma",
                p.decl_line,
                format!(
                    "allow({}) suppresses nothing — remove it or move it next to the violation",
                    p.rule
                ),
            ));
        }
    }
}

fn pragma_diag(
    file: &ScannedFile,
    rule: &str,
    name: &'static str,
    line: usize,
    message: String,
) -> Diagnostic {
    let snippet = file
        .lines
        .get(line.saturating_sub(1))
        .map(|l| l.code.trim().to_string())
        .unwrap_or_default();
    Diagnostic {
        rule: rule.to_string(),
        name,
        rel: file.rel.clone(),
        line,
        message,
        snippet,
        chain: None,
        severity: Severity::Deny,
        suppressed: false,
        discharged_by: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_map_resolves_in_order() {
        let mut m = SeverityMap::default();
        assert_eq!(m.severity_of("L001"), Severity::Deny, "default is deny");
        m.push("all", Severity::Warn);
        assert_eq!(m.severity_of("L001"), Severity::Warn);
        m.push("L001", Severity::Deny);
        assert_eq!(m.severity_of("L001"), Severity::Deny, "later exact wins");
        assert_eq!(m.severity_of("L002"), Severity::Warn);
    }

    #[test]
    fn pragmas_suppress_and_account() {
        let text = "fn f() {\n    let a = x.unwrap(); // lint: allow(L001, reason = \"seeded\")\n    let b = y.unwrap();\n}\n// lint: allow(L003, reason = \"nothing to suppress\")\nfn g() {}\n";
        let file = scan(PathBuf::from("t.rs"), "t.rs".into(), text);
        let mut diags = Vec::new();
        let view = &code_views(std::slice::from_ref(&file))[0];
        for rule in registry() {
            rule.check(&file, view, &Config::default(), &mut diags);
        }
        apply_pragmas(&file, &mut diags);
        let suppressed: Vec<_> = diags.iter().filter(|d| d.suppressed).collect();
        assert_eq!(suppressed.len(), 1);
        assert_eq!(suppressed[0].line, 2);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "L001" && !d.suppressed && d.line == 3),
            "unpragma'd violation stays"
        );
        assert!(
            diags.iter().any(|d| d.rule == "P001"),
            "dead pragma is reported: {diags:?}"
        );
    }

    #[test]
    fn malformed_pragmas_are_p000() {
        let text = "// lint: allow(L001)\nfn f() { x.unwrap(); }\n";
        let file = scan(PathBuf::from("t.rs"), "t.rs".into(), text);
        let mut diags = Vec::new();
        let view = &code_views(std::slice::from_ref(&file))[0];
        for rule in registry() {
            rule.check(&file, view, &Config::default(), &mut diags);
        }
        apply_pragmas(&file, &mut diags);
        assert!(diags.iter().any(|d| d.rule == "P000"));
        assert!(
            diags.iter().any(|d| d.rule == "L001" && !d.suppressed),
            "a reason-less pragma must not suppress"
        );
    }

    #[test]
    fn rule_scoping_follows_config() {
        let cfg = Config::parse("[rules.L003]\npaths = [\"crates/addr/src\"]\n").expect("parses");
        assert!(cfg.rule_applies("L003", "crates/addr/src/addr.rs"));
        assert!(!cfg.rule_applies("L003", "crates/census/src/tables.rs"));
        assert!(
            cfg.rule_applies("L001", "anything.rs"),
            "unscoped rules apply everywhere"
        );
    }
}
