//! R004 blocking-under-lock and L008 vfs-bypass: the effect side of
//! the concurrency proofs in [`crate::locks`].
//!
//! **R004** answers "can this thread stall while holding a guard?".
//! Each function gets a *blocking effect* summary — the direct sites
//! where it performs file I/O (`std::fs::…`, `.sync_all()`), stream
//! I/O (`.write_all(`, `.read_exact(`, `.flush(`, `.accept(`…),
//! channel receives (`.recv()`, `.recv_timeout(`), `thread::sleep`,
//! or an empty-argument `.join()` (thread join; `Path::join(arg)`
//! takes arguments and never matches). The [`crate::summary`] engine
//! lifts the summary to a `may_block` bit over the call graph, and
//! walks every guard scope computed by [`crate::locks`]: a direct
//! blocking site or a call to a `may_block` function inside a live
//! guard scope is a finding with a witness chain down to the concrete
//! blocking operation. `Condvar::wait(guard)` atomically releases the
//! guard for the duration of the wait, so waits on `Condvar`-typed
//! fields are sanctioned, not findings.
//!
//! **L008** is the durability-path proof: modules whose crash
//! consistency is guaranteed by `core::vfs` (scoped in `lint.toml` to
//! `census::{stream,serve,supervisor}` and `synth::loggen`) must not
//! mutate the real filesystem behind the Vfs's back — a raw
//! `std::fs::write`/`rename`/`File::create` there is invisible to the
//! crash-point explorer and voids PR 7's guarantees. The rule is
//! token-level over non-test code lines, with the mutation-token list
//! overridable via `[rules.L008] mutation_tokens`.

use std::collections::BTreeSet;

use crate::callgraph::Call;
use crate::config::Config;
use crate::locks::{FnLocks, LockDecl};
use crate::report::Diagnostic;
use crate::rules::{code_lines, semantic_finding, token_positions, SemanticRule, Workspace};
use crate::scan::{span, CodeTok};
use crate::summary::{Hit, Site, Summary, Tally};

/// Methods that block when invoked with any argument list.
const BLOCKING_METHODS: &[(&str, &str)] = &[
    ("sync_all", "fsyncs the file"),
    ("sync_data", "fsyncs the file's data"),
    ("accept", "blocks for an incoming connection"),
    ("write_all", "performs stream I/O"),
    ("read_exact", "performs stream I/O"),
    ("read_line", "performs stream I/O"),
    ("read_to_string", "performs stream I/O"),
    ("read_to_end", "performs stream I/O"),
    ("flush", "flushes buffered I/O"),
    ("recv", "blocks on a channel receive"),
    ("recv_timeout", "blocks on a channel receive"),
    ("recv_deadline", "blocks on a channel receive"),
    ("sleep", "sleeps the thread"),
];

/// Scans every function body for direct blocking sites and lifts them
/// over the call graph to a `may_block` fixpoint. Acquisition and
/// condvar-wait call sites (`summaries[id].skip_parens`) are never
/// effects and never propagation edges.
pub fn summarize(ws: &Workspace<'_>, summaries: &[FnLocks]) -> Summary<bool> {
    let direct = ws
        .symbols
        .fns
        .iter()
        .enumerate()
        .map(|(id, f)| match (f.body, ws.views.get(f.file)) {
            (Some((start, end)), Some(view)) if !f.is_test => direct_effects(
                view,
                span(view, start, end),
                ws.calls_of(id),
                &summaries[id].skip_parens,
            ),
            _ => Vec::new(),
        })
        .collect();
    Summary::lift(ws, direct, |id, call| {
        summaries[id].skip_parens.contains(&call.paren)
    })
}

/// One body's blocking sites: its `std::fs::…` paths, plus the call
/// sites (from the call graph, shaped by [`Call::shape`]) that block.
fn direct_effects(
    view: &[CodeTok<'_>],
    body: &[CodeTok<'_>],
    calls: &[Call],
    skip: &BTreeSet<usize>,
) -> Vec<Site<bool>> {
    let site = |pos, line, desc| Site {
        pos,
        line,
        desc,
        fact: true,
    };
    let mut out = Vec::new();
    for (j, &(orig, t)) in body.iter().enumerate() {
        // `std :: fs :: name` — any real-filesystem call blocks (and
        // on the mutation subset, L008 additionally owns the policy).
        let tok = |k: usize| body.get(j + k).map(|&(_, x)| x);
        if t.is_ident("std")
            && tok(1).is_some_and(|x| x.is_op("::"))
            && tok(2).is_some_and(|x| x.is_ident("fs"))
            && tok(3).is_some_and(|x| x.is_op("::"))
        {
            let name = tok(4).map_or("…", |x| x.text.as_str());
            out.push(site(
                orig,
                t.line,
                format!("std::fs::{name} touches the real filesystem"),
            ));
        }
    }
    for call in calls {
        let Some(shape) = call.shape(view) else {
            continue;
        };
        if skip.contains(&call.paren) {
            continue; // lock acquisition or sanctioned condvar wait
        }
        let (pos, m) = shape.name;
        // Thread join: `.join()` with an empty argument list. With
        // arguments it is `Path::join`/`Unit::join` — pure.
        if shape.dotted && m.is_ident("join") && shape.next.is_some_and(|x| x.is_op(")")) {
            out.push(site(
                pos,
                m.line,
                "`.join()` blocks on thread completion".into(),
            ));
        } else if let Some((_, why)) = BLOCKING_METHODS.iter().find(|(n, _)| m.is_ident(n)) {
            out.push(site(pos, m.line, format!("`.{}(…)` {why}", m.text)));
        }
    }
    out.sort_by_key(|s| s.pos);
    out
}

/// Checks every guard scope against the effect summaries and appends
/// R004 findings; updates `stats.effect_obligations` / `stats.proven`.
pub fn blocking_under_lock(
    ws: &Workspace<'_>,
    registry: &[LockDecl],
    summaries: &[FnLocks],
    effects: &Summary<bool>,
    out: &mut Vec<Diagnostic>,
    stats: &mut crate::locks::LockStats,
) {
    let mut tally = Tally::default();
    for (id, s) in summaries.iter().enumerate() {
        let Some(f) = ws.symbols.fns.get(id).filter(|f| !f.is_test) else {
            continue;
        };
        let Some(file) = ws.files.get(f.file) else {
            continue;
        };
        for a in &s.acquired {
            let Some(scope) = a.scope else { continue };
            let held = &registry[a.lock].id;
            let skip = |call: &Call| s.skip_parens.contains(&call.paren);
            for hit in effects.scope_hits(ws, id, scope, a.paren, skip, &mut tally) {
                let holds = format!("{} holds `{held}` ({}:{})", f.qname, file.rel, a.line);
                let (line, message, chain) = match hit {
                    Hit::Site(site) => (
                        site.line,
                        format!(
                            "{} while holding `{held}` (acquired line {}) — shrink the guard scope or drop before blocking",
                            site.desc, a.line
                        ),
                        format!("{holds} → {} (line {})", site.desc, site.line),
                    ),
                    Hit::Call(call, blocker) => {
                        let (path, leaf) = effects.witness(ws, blocker, "blocking effect");
                        (
                            call.line,
                            format!(
                                "call may block ({leaf}) while holding `{held}` (acquired line {}) — drop the guard before I/O",
                                a.line
                            ),
                            format!("{holds} → {path}"),
                        )
                    }
                };
                out.push(semantic_finding(
                    "R004",
                    "blocking-under-lock",
                    file,
                    line,
                    message,
                    Some(chain),
                ));
            }
        }
    }
    stats.effect_obligations += tally.obligations;
    stats.proven += tally.proven;
}

// ---------------------------------------------------------------- R004

/// R004 blocking-under-lock as a registered semantic rule. The engine
/// runs the shared [`crate::locks::analyze`] pass once for R003+R004;
/// this impl exists for `--list-rules` and direct tests.
pub struct BlockingUnderLock;

impl SemanticRule for BlockingUnderLock {
    fn id(&self) -> &'static str {
        "R004"
    }
    fn name(&self) -> &'static str {
        "blocking-under-lock"
    }
    fn describe(&self) -> &'static str {
        "no path may perform file/stream I/O, sleep, thread join, or a channel receive while a Mutex/RwLock guard is live"
    }
    fn check(&self, ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        out.extend(crate::locks::analyze(ws, cfg).blocking_findings);
    }
}

// ---------------------------------------------------------------- L008

/// Raw-filesystem mutation tokens L008 bans in durability-scoped
/// modules. Short `fs::` forms also match fully qualified
/// `std::fs::…` spellings (the boundary check treats `:` as a
/// separator). Overridable via `[rules.L008] mutation_tokens`.
pub const MUTATION_TOKENS: &[&str] = &[
    "fs::write",
    "fs::rename",
    "fs::remove_file",
    "fs::remove_dir_all",
    "fs::create_dir_all",
    "fs::create_dir",
    "fs::copy",
    "fs::hard_link",
    "fs::set_permissions",
    "File::create",
    "OpenOptions::new",
    ".sync_all(",
    ".sync_data(",
];

/// L008 vfs-bypass: durability-scoped modules must route every
/// filesystem mutation through `core::vfs`.
pub struct VfsBypass;

impl SemanticRule for VfsBypass {
    fn id(&self) -> &'static str {
        "L008"
    }
    fn name(&self) -> &'static str {
        "vfs-bypass"
    }
    fn describe(&self) -> &'static str {
        "durability-scoped modules must not mutate the real filesystem directly — route writes/renames/fsyncs through core::vfs"
    }
    fn check(&self, ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        let configured = cfg.list("rules.L008", "mutation_tokens");
        let defaults: Vec<String> = MUTATION_TOKENS.iter().map(|s| s.to_string()).collect();
        let tokens: &[String] = if configured.is_empty() {
            &defaults
        } else {
            configured
        };
        for file in ws.files {
            for (line_no, code) in code_lines(file) {
                for tok in tokens {
                    if !token_positions(code, tok).is_empty() {
                        out.push(semantic_finding(
                            "L008",
                            "vfs-bypass",
                            file,
                            line_no,
                            format!(
                                "raw filesystem mutation `{}` bypasses core::vfs — crash-point exploration cannot see it; use the module's Vfs handle",
                                tok.trim_end_matches('(')
                            ),
                            None,
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::tests::TestWorkspace;

    fn run(src: &str) -> crate::locks::LockAnalysis {
        let t = TestWorkspace::new(&[("crates/x/src/lib.rs", src)]);
        crate::locks::analyze(&t.ws(), &Config::default())
    }

    #[test]
    fn sleep_under_guard_is_flagged() {
        let a = run("\
use std::sync::Mutex;
use std::time::Duration;
static A: Mutex<u32> = Mutex::new(0);
fn bad() {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    std::thread::sleep(Duration::from_millis(1));
    drop(g);
}
");
        assert_eq!(a.blocking_findings.len(), 1, "{:?}", a.blocking_findings);
        let d = &a.blocking_findings[0];
        assert_eq!(d.rule, "R004");
        assert!(
            d.chain.as_deref().is_some_and(|c| c.contains("`A`")),
            "{d:?}"
        );
    }

    #[test]
    fn guard_dropped_before_blocking_is_clean() {
        let a = run("\
use std::sync::Mutex;
use std::time::Duration;
static A: Mutex<u32> = Mutex::new(0);
fn ok() {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    drop(g);
    std::thread::sleep(Duration::from_millis(1));
}
");
        assert!(a.blocking_findings.is_empty(), "{:?}", a.blocking_findings);
    }

    #[test]
    fn condvar_wait_releases_the_guard() {
        let a = run("\
use std::sync::{Condvar, Mutex};
struct Q { state: Mutex<bool>, cv: Condvar }
impl Q {
    fn pump(&self) {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while !*g {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}
");
        assert!(a.blocking_findings.is_empty(), "{:?}", a.blocking_findings);
    }

    #[test]
    fn transitive_blocking_through_a_callee_is_flagged() {
        let a = run("\
use std::sync::Mutex;
static A: Mutex<u32> = Mutex::new(0);
fn flush_logs() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}
fn bad() {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    flush_logs();
    drop(g);
}
");
        assert_eq!(a.blocking_findings.len(), 1, "{:?}", a.blocking_findings);
        let chain = a.blocking_findings[0].chain.as_deref().unwrap_or("");
        assert!(chain.contains("x::flush_logs"), "{chain}");
    }

    #[test]
    fn path_join_with_args_is_not_thread_join() {
        let a = run("\
use std::path::{Path, PathBuf};
use std::sync::Mutex;
static A: Mutex<u32> = Mutex::new(0);
fn ok(dir: &Path) -> PathBuf {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    let p = dir.join(\"segment\");
    drop(g);
    p
}
");
        assert!(a.blocking_findings.is_empty(), "{:?}", a.blocking_findings);
    }

    #[test]
    fn vfs_bypass_flags_raw_fs_write() {
        let src = "\
pub fn persist(path: &str, data: &[u8]) -> std::io::Result<()> {
    std::fs::write(path, data)
}
";
        let t = TestWorkspace::new(&[("crates/x/src/lib.rs", src)]);
        let mut out = Vec::new();
        VfsBypass.check(&t.ws(), &Config::default(), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("fs::write"), "{:?}", out[0]);
    }
}
