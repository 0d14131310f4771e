//! R005 alloc-in-hot-loop and R006 capacity-discipline: the
//! allocation-effect side of the performance proofs.
//!
//! The census hot paths — trie descent, aggregate counting, the ±7-day
//! stability window, nybble extraction — process one record per active
//! address, so a single per-item heap allocation multiplies into
//! hundreds of millions at paper scale (318M daily addresses in
//! Plonka & Berger's data). This pass turns "this loop allocates" into
//! a machine-checked obligation, the same proof-not-promise posture
//! R001–R004 established for panics, bit ranges, and locks.
//!
//! Every function gets an *allocation effect* on a three-point
//! lattice, `NoAlloc < AmortizedAlloc < AllocPerCall`:
//!
//! * `NoAlloc` — no allocating construct at all;
//! * `AmortizedAlloc` — allocation proportional to a one-time capacity
//!   reservation (`with_capacity`, `reserve`) or growth into an
//!   already-reserved buffer (`push`/`extend` — whether those are
//!   *actually* reserved is R006's separate obligation);
//! * `AllocPerCall` — an unconditional fresh allocation per invocation:
//!   `Vec::new`/`Box::new`/`String::new`-style constructors, `vec!` /
//!   `format!`, `.to_string()`, `.to_owned()`, `.to_vec()`,
//!   `.clone()`, `.collect()`.
//!
//! Direct effects are lifted over the call graph by the shared
//! [`crate::summary`] engine, with `via` hops recorded so findings can
//! print the concrete allocation site.
//!
//! Loop scopes are tracked token-precisely: `for`/`while`/`loop`
//! bodies by brace matching, plus closure bodies passed to per-element
//! iterator adapters (`.map(|…| …)`, `.for_each`, `.filter`, `.fold`,
//! …). A closure bound to a `let` is *not* a loop scope — only one
//! syntactically passed to an adapter runs per element.
//!
//! **R005** walks the call graph from the `[hot] entry_points`
//! (default: every non-test function) and flags any `AllocPerCall`
//! construct or call inside a reachable loop scope, printing an
//! R001-style witness chain
//! `hot entry → … → loop @ file:line → allocation site`.
//!
//! **R006** is intraprocedural: a `Vec`/`String` grown inside a loop
//! (`push`/`push_str`/`extend`/`extend_from_slice`/`append`) must show
//! a dominating reservation before the growth site (`with_capacity`
//! assignment, `.reserve(…)`, or `.clear()`-and-reuse), be a `&mut`
//! out-param (the caller owns the reservation), or be a field of
//! `&mut self` (the structure owns its buffer across calls, e.g. an
//! arena). Everything else is an unreserved growth loop: a
//! reallocation storm at census scale.
//!
//! Both rules are scoped by `[hot] paths` in `lint.toml` (empty or
//! absent = everywhere, which is what the fixture tests rely on).

use std::collections::BTreeSet;

use crate::callgraph::Call;
use crate::config::Config;
use crate::lexer::{TokKind, Token};
use crate::report::Diagnostic;
use crate::rules::{semantic_finding, SemanticRule, Workspace};
use crate::scan::{find_top, matching, span, CodeTok};
use crate::summary::{path_up, reachable, render, Fact, Hit, Site, Summary, Tally};
use crate::symbols::Param;

/// A function's allocation effect. `Ord` follows the lattice:
/// `NoAlloc < AmortizedAlloc < AllocPerCall`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum AllocEffect {
    /// No allocating construct, directly or transitively.
    #[default]
    NoAlloc,
    /// Allocates only via capacity reservations or reserved growth.
    AmortizedAlloc,
    /// Performs an unconditional fresh allocation per invocation.
    AllocPerCall,
}

impl Fact for AllocEffect {
    const TOP: AllocEffect = AllocEffect::AllocPerCall;
    const LAST_WINS: bool = true;
}

/// One loop scope inside a function body, as a token range.
#[derive(Clone, Debug)]
pub struct LoopScope {
    /// Token index of the opening `{` (keyword loops) or the closure's
    /// opening `|` (adapter loops); sites strictly inside count.
    pub open: usize,
    /// Token index of the matching `}` / the adapter call's `)`.
    pub close: usize,
    /// 1-based line of the loop keyword / adapter name.
    pub line: usize,
    /// `for` / `while` / `loop` or the adapter name (`map`, `fold`…).
    pub kind: String,
}

/// Counters for `BENCH_lint.json`'s `allocs` block and the self-check.
#[derive(Clone, Debug, Default)]
pub struct AllocStats {
    /// Non-test functions with bodies that received a summary.
    pub fns_summarized: usize,
    /// Of those, how many land on each lattice point (post-lift).
    pub no_alloc_fns: usize,
    /// Functions whose effect lifted to `AmortizedAlloc`.
    pub amortized_fns: usize,
    /// Functions whose effect lifted to `AllocPerCall`.
    pub per_call_fns: usize,
    /// Resolved `[hot]` entry-point functions.
    pub hot_entry_points: usize,
    /// Loop scopes found across all summarized functions.
    pub loops_scanned: usize,
    /// R005: sites/calls examined inside hot-reachable loops, and how
    /// many were proven allocation-free per iteration.
    pub hot_loop_obligations: usize,
    /// Of the R005 obligations, how many were proven per-iteration free.
    pub hot_loop_proven: usize,
    /// R006: growth sites examined inside loops, and how many showed a
    /// dominating reservation / out-param discipline.
    pub capacity_obligations: usize,
    /// Of the R006 obligations, how many carried a reservation proof.
    pub capacity_proven: usize,
}

/// The result of the shared R005+R006 pass.
pub struct AllocAnalysis {
    /// R005 alloc-in-hot-loop findings.
    pub hot_findings: Vec<Diagnostic>,
    /// R006 capacity-discipline findings.
    pub capacity_findings: Vec<Diagnostic>,
    /// Summaries (exposed for the bench and for tests).
    pub summaries: Summary<AllocEffect>,
    /// `loops[fn]` = that fn's loop scopes, in token order.
    pub loops: Vec<Vec<LoopScope>>,
    /// Counters for the bench's `allocs` block and the self-check.
    pub stats: AllocStats,
}

/// Allocating constructors in path form `Type::method(` — each is an
/// unconditional fresh allocation (or, for `Vec::new`, the root of an
/// unreserved growth buffer, which costs the same by the first push).
const PER_CALL_CTORS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "from"),
    ("VecDeque", "new"),
    ("String", "new"),
    ("String", "from"),
    ("Box", "new"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
    ("HashMap", "new"),
    ("HashSet", "new"),
];

/// Allocating method calls `.name(` — fresh allocation per call.
const PER_CALL_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "clone", "collect"];

/// Allocating macros `name!` — each expansion allocates.
const PER_CALL_MACROS: &[&str] = &["vec", "format"];

/// Capacity-reserving calls — `AmortizedAlloc`.
const RESERVE_METHODS: &[&str] = &["reserve", "reserve_exact"];

/// Growth methods — `AmortizedAlloc` on the effect lattice (R006 owns
/// the question of whether the buffer was actually reserved).
const GROW_METHODS: &[&str] = &["push", "push_str", "extend", "extend_from_slice", "append"];

/// Iterator adapters whose closure argument runs once per element:
/// a closure body passed to one of these is a loop scope.
const ADAPTER_LOOPS: &[&str] = &[
    "map",
    "for_each",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "retain",
    "retain_mut",
    "any",
    "all",
    "find",
    "find_map",
    "position",
    "take_while",
    "skip_while",
    "map_while",
    "scan",
    "inspect",
    "partition",
    "max_by_key",
    "min_by_key",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// True when `rel` is inside the `[hot] paths` scope (empty or absent
/// section = everywhere, as `Config::rule_applies` treats rule scopes).
pub fn hot_scope_applies(cfg: &Config, rel: &str) -> bool {
    let paths = cfg.list("hot", "paths");
    paths.is_empty() || paths.iter().any(|p| rel.starts_with(p.as_str()))
}

/// True when a method-call expression (`.push`, `.clone`, …) is one
/// the direct-site classifier owns. The call graph over-approximates
/// method calls to every same-name workspace method, so `.push(` on a
/// `Vec` would otherwise pick up the allocation effect of an unrelated
/// workspace `push` — for these names the std-container semantics in
/// the site tables is the model, and the call edge is noise.
fn classifier_owned(expr: &str) -> bool {
    expr.strip_prefix('.').is_some_and(|n| {
        PER_CALL_METHODS.contains(&n)
            || RESERVE_METHODS.contains(&n)
            || GROW_METHODS.contains(&n)
            || n == "with_capacity"
    })
}

/// The shared pass: summarize every function, then run both rules.
pub fn analyze(ws: &Workspace<'_>, cfg: &Config) -> AllocAnalysis {
    // Test fns and bodiless declarations get no tokens, hence no sites.
    let no_view: &[CodeTok<'_>] = &[];
    let bodies: Vec<(&[CodeTok<'_>], &[CodeTok<'_>])> = ws
        .symbols
        .fns
        .iter()
        .map(|f| match (f.body, ws.views.get(f.file)) {
            (Some((start, end)), Some(view)) if !f.is_test => {
                (view.as_slice(), span(view, start, end))
            }
            _ => (no_view, no_view),
        })
        .collect();
    let direct = bodies
        .iter()
        .enumerate()
        .map(|(id, &(view, body))| direct_sites(view, body, ws.calls_of(id)))
        .collect();
    let loops: Vec<Vec<LoopScope>> = bodies.iter().map(|&(_, b)| loop_scopes(b)).collect();
    let summaries = Summary::lift(ws, direct, |_, call| classifier_owned(&call.expr));
    let mut stats = AllocStats::default();
    for (id, f) in ws.symbols.fns.iter().enumerate() {
        if f.is_test || f.body.is_none() {
            continue;
        }
        stats.fns_summarized += 1;
        stats.loops_scanned += loops[id].len();
        match summaries.effect[id] {
            AllocEffect::NoAlloc => stats.no_alloc_fns += 1,
            AllocEffect::AmortizedAlloc => stats.amortized_fns += 1,
            AllocEffect::AllocPerCall => stats.per_call_fns += 1,
        }
    }
    let hot_findings = hot_loop_check(ws, cfg, &summaries, &loops, &mut stats);
    let capacity_findings = capacity_check(ws, &loops, &mut stats);
    AllocAnalysis {
        hot_findings,
        capacity_findings,
        summaries,
        loops,
        stats,
    }
}

/// One body's direct allocating sites: its `vec!`/`format!` macros,
/// plus the call sites (from the call graph, shaped by
/// [`Call::shape`]) that construct, copy, reserve or grow.
fn direct_sites(
    view: &[CodeTok<'_>],
    body: &[CodeTok<'_>],
    calls: &[Call],
) -> Vec<Site<AllocEffect>> {
    use AllocEffect::{AllocPerCall, AmortizedAlloc};
    let mut out = Vec::new();
    for (j, &(orig, t)) in body.iter().enumerate() {
        // Allocating macro: `vec !` / `format !`.
        if t.kind == TokKind::Ident
            && PER_CALL_MACROS.iter().any(|m| t.is_ident(m))
            && body.get(j + 1).is_some_and(|&(_, x)| x.is_op("!"))
        {
            out.push(Site {
                pos: orig,
                line: t.line,
                desc: format!("{}!", t.text),
                fact: AllocPerCall,
            });
        }
    }
    for call in calls {
        let Some(shape) = call.shape(view) else {
            continue;
        };
        let (pos, m) = shape.name;
        let name = m.text.as_str();
        let site = if !shape.dotted {
            // `Type :: method (` — allocating constructors, with_capacity.
            let ty = shape.qual.map_or("", |x| x.text.as_str());
            if PER_CALL_CTORS.contains(&(ty, name)) {
                Some((format!("{ty}::{name}"), AllocPerCall))
            } else {
                m.is_ident("with_capacity")
                    .then(|| ("with_capacity".into(), AmortizedAlloc))
            }
        } else if PER_CALL_METHODS.contains(&name) {
            // `.method (` — per-call copies, reservations, growth.
            Some((format!(".{name}()"), AllocPerCall))
        } else if RESERVE_METHODS
            .iter()
            .chain(GROW_METHODS)
            .any(|n| *n == name)
        {
            // Reservations and (presumed-reserved) growth both land on
            // the amortized point; R006 separately audits the growth
            // sites for an actual dominating reservation.
            Some((format!(".{name}()"), AmortizedAlloc))
        } else {
            None
        };
        if let Some((desc, fact)) = site {
            out.push(Site {
                pos,
                line: m.line,
                desc,
                fact,
            });
        }
    }
    out.sort_by_key(|s| s.pos);
    out
}

/// Token walk over one body collecting loop scopes: keyword loops by
/// brace matching, iterator-adapter closures by paren matching.
fn loop_scopes(toks: &[CodeTok<'_>]) -> Vec<LoopScope> {
    let mut out = Vec::new();
    for j in 0..toks.len() {
        let Some(&(_, t)) = toks.get(j) else { continue };
        if t.kind == TokKind::Ident
            && (t.is_ident("for") || t.is_ident("while") || t.is_ident("loop"))
        {
            // `for<'a>` in a higher-ranked bound is not a loop.
            if toks.get(j + 1).is_some_and(|&(_, x)| x.is_op("<")) {
                continue;
            }
            if let Some((open, close)) = keyword_loop_body(toks, j) {
                out.push(LoopScope {
                    open,
                    close,
                    line: t.line,
                    kind: t.text.clone(),
                });
            }
            continue;
        }
        // `. adapter ( … |closure| … )` — per-element closure scope.
        if t.is_op(".")
            && toks
                .get(j + 1)
                .is_some_and(|&(_, x)| ADAPTER_LOOPS.iter().any(|a| x.is_ident(a)))
            && toks.get(j + 2).is_some_and(|&(_, x)| x.is_op("("))
        {
            let Some(&(_, name)) = toks.get(j + 1) else {
                continue;
            };
            if let Some((open, close)) = adapter_closure_scope(toks, j + 2) {
                out.push(LoopScope {
                    open,
                    close,
                    line: name.line,
                    kind: name.text.clone(),
                });
            }
        }
    }
    out
}

/// From a loop keyword at `kw`, finds the body's `{ … }` token range:
/// the first `{` outside parens/brackets before a `;`, then its
/// matching `}`. Returns original token indices `(open, close)`.
fn keyword_loop_body(toks: &[CodeTok<'_>], kw: usize) -> Option<(usize, usize)> {
    let open = find_top(toks, kw + 1, toks.len(), |t| t.is_op("{") || t.is_op(";"))?;
    let close = matching(toks, open)?; // `None` for the `;`
    Some((toks[open].0, toks[close].0))
}

/// From an adapter's `(` at `open_paren`, finds the closure scope:
/// the first `|` directly inside the call through the call's matching
/// `)`. `fold(init, |acc, x| …)` starts at the `|`, so the
/// once-per-call init expression is outside the scope. Returns `None`
/// when no closure is passed (e.g. `.map(f)`).
fn adapter_closure_scope(toks: &[CodeTok<'_>], open_paren: usize) -> Option<(usize, usize)> {
    let close = matching(toks, open_paren)?;
    let pipe = find_top(toks, open_paren + 1, close, |t| t.is_op("|"))?;
    Some((toks[pipe].0, toks[close].0))
}

/// R005: BFS the call graph from the `[hot] entry_points` and flag
/// per-call allocation inside any reachable loop scope.
fn hot_loop_check(
    ws: &Workspace<'_>,
    cfg: &Config,
    sums: &Summary<AllocEffect>,
    loops: &[Vec<LoopScope>],
    stats: &mut AllocStats,
) -> Vec<Diagnostic> {
    // Entry points: configured suffixes, or every non-test fn when the
    // section is absent (fixture tests run config-free).
    let configured = cfg.list("hot", "entry_points");
    let parent = if configured.is_empty() {
        reachable(ws, 0..ws.symbols.fns.len())
    } else {
        reachable(
            ws,
            configured.iter().flat_map(|e| ws.symbols.find_by_suffix(e)),
        )
    };
    stats.hot_entry_points = parent.values().filter(|p| p.is_none()).count();

    let mut out = Vec::new();
    let mut tally = Tally::default();
    let skip = |call: &Call| classifier_owned(&call.expr);
    for &id in parent.keys() {
        let Some(file) = ws.symbols.fns.get(id).and_then(|f| ws.files.get(f.file)) else {
            continue;
        };
        for lp in &loops[id] {
            for hit in sums.scope_hits(ws, id, (lp.open, lp.close), 0, skip, &mut tally) {
                let looped = format!(
                    "{} → loop @ {}:{}",
                    render(ws, &path_up(&parent, id)),
                    file.rel,
                    lp.line
                );
                let (line, message, chain) = match hit {
                    Hit::Site(site) => (
                        site.line,
                        format!(
                            "`{}` allocates on every iteration of this hot `{}` loop (line {}) — hoist the buffer or reserve once outside",
                            site.desc, lp.kind, lp.line
                        ),
                        format!("{looped} → {} ({}:{})", site.desc, file.rel, site.line),
                    ),
                    Hit::Call(call, allocator) => {
                        let (path, leaf) = sums.witness(ws, allocator, "per-call allocation");
                        (
                            call.line,
                            format!(
                                "call `{}` allocates on every iteration of this hot `{}` loop (line {}) — via {leaf}; hoist or make the callee allocation-free",
                                call.expr, lp.kind, lp.line
                            ),
                            format!("{looped} → {path}"),
                        )
                    }
                };
                out.push(semantic_finding(
                    "R005",
                    "alloc-in-hot-loop",
                    file,
                    line,
                    message,
                    Some(chain),
                ));
            }
        }
    }
    stats.hot_loop_obligations = tally.obligations;
    stats.hot_loop_proven = tally.proven;
    out
}

/// R006: every `Vec`/`String` grown inside a loop must show a
/// dominating reservation, be a `&mut` out-param, or be `&mut self`
/// state. Intraprocedural by design — the obligation names the one
/// function that must hold the discipline.
fn capacity_check(
    ws: &Workspace<'_>,
    loops: &[Vec<LoopScope>],
    stats: &mut AllocStats,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (id, f) in ws.symbols.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let (Some((start, end)), Some(file), Some(view)) =
            (f.body, ws.files.get(f.file), ws.views.get(f.file))
        else {
            continue;
        };
        let body = span(view, start, end);
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        for lp in &loops[id] {
            let lo = body.partition_point(|&(o, _)| o <= lp.open);
            let hi = body.partition_point(|&(o, _)| o < lp.close);
            for j in lo.max(2)..hi {
                let (orig, t) = body[j];
                let at = |k: usize| body[k].1;
                // `recv . grow (` on a plain identifier receiver; a
                // chained/indexed receiver is out of scope, and
                // `self.extend(…)` leaves growth to the type.
                let recv = at(j - 2);
                if !GROW_METHODS.iter().any(|n| t.is_ident(n))
                    || !body.get(j + 1).is_some_and(|&(_, x)| x.is_op("("))
                    || !at(j - 1).is_op(".")
                    || recv.kind != TokKind::Ident
                    || recv.is_ident("self")
                    || !seen.insert(orig)
                {
                    continue;
                }
                let on_self_field = j >= 4 && at(j - 3).is_op(".") && at(j - 4).is_ident("self");
                stats.capacity_obligations += 1;
                let proven = if on_self_field {
                    // `&mut self` state: the buffer outlives the call
                    // and its reservation is the constructor's job.
                    f.params.first().is_some_and(|p| p.name == "self")
                } else {
                    dominating_reservation(body, j, &recv.text)
                        || mut_out_param(view, &f.params, &recv.text)
                };
                if proven {
                    stats.capacity_proven += 1;
                    continue;
                }
                out.push(semantic_finding(
                    "R006",
                    "capacity-discipline",
                    file,
                    t.line,
                    format!(
                        "`{}` grows via `.{}()` inside a `{}` loop (line {}) with no dominating `with_capacity`/`reserve`, `clear()`-reuse, or `&mut` out-param — unreserved growth reallocates O(log n) times",
                        recv.text, t.text, lp.kind, lp.line
                    ),
                    None,
                ));
            }
        }
    }
    out
}

/// True when a reservation for `recv` dominates the growth site at
/// body index `site`: an earlier `recv.reserve(…)` / `recv.clear(…)`,
/// or an earlier statement binding/assigning `recv` that mentions
/// `with_capacity` before its `;`.
fn dominating_reservation(body: &[CodeTok<'_>], site: usize, recv: &str) -> bool {
    let reserve = |x: &Token| RESERVE_METHODS.iter().any(|n| x.is_ident(n)) || x.is_ident("clear");
    (0..site.saturating_sub(2))
        .filter(|&j| body[j].1.is_ident(recv))
        .any(|j| {
            let called = body.get(j + 1).is_some_and(|&(_, x)| x.is_op("."))
                && body.get(j + 2).is_some_and(|&(_, x)| reserve(x));
            // `recv = … with_capacity(…) …;` (also covers `let mut recv`).
            let stmt = body[j + 1..]
                .iter()
                .take(40)
                .take_while(|(_, x)| !x.is_op(";"));
            called
                || stmt
                    .skip_while(|(_, x)| !x.is_op("="))
                    .any(|(_, x)| x.is_ident("with_capacity"))
        })
}

/// True when `recv` is a parameter declared `recv: &[lifetime] mut …`
/// — a caller-owned out-param.
fn mut_out_param(view: &[CodeTok<'_>], params: &[Param], recv: &str) -> bool {
    params.iter().filter(|p| p.name == recv).any(|p| {
        let ty = span(view, p.ty.0, p.ty.1);
        ty.first().is_some_and(|&(_, x)| x.is_op("&"))
            && ty.iter().skip(1).take(2).any(|&(_, x)| x.is_ident("mut"))
    })
}

// ---------------------------------------------------------------- R005

/// R005 alloc-in-hot-loop as a registered semantic rule. The engine
/// runs the shared [`analyze`] pass once for R005+R006; this impl
/// exists for `--list-rules` and direct tests.
pub struct AllocInHotLoop;

impl SemanticRule for AllocInHotLoop {
    fn id(&self) -> &'static str {
        "R005"
    }
    fn name(&self) -> &'static str {
        "alloc-in-hot-loop"
    }
    fn describe(&self) -> &'static str {
        "no per-call allocation (construct or callee) inside a loop reachable from a [hot] entry point"
    }
    fn check(&self, ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        out.extend(analyze(ws, cfg).hot_findings);
    }
}

// ---------------------------------------------------------------- R006

/// R006 capacity-discipline as a registered semantic rule.
pub struct CapacityDiscipline;

impl SemanticRule for CapacityDiscipline {
    fn id(&self) -> &'static str {
        "R006"
    }
    fn name(&self) -> &'static str {
        "capacity-discipline"
    }
    fn describe(&self) -> &'static str {
        "a Vec/String grown in a loop must have a dominating with_capacity/reserve, clear()-reuse, or be a &mut out-param"
    }
    fn check(&self, ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        out.extend(analyze(ws, cfg).capacity_findings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::tests::TestWorkspace;

    fn run(src: &str) -> (AllocAnalysis, Vec<String>) {
        let t = TestWorkspace::new(&[("crates/x/src/lib.rs", src)]);
        let a = analyze(&t.ws(), &Config::default());
        let qnames = t.symbols.fns.iter().map(|f| f.qname.clone()).collect();
        (a, qnames)
    }

    #[test]
    fn lattice_classification() {
        let (a, names) = run("\
fn pure(x: u32) -> u32 { x.wrapping_add(1) }
fn amortized(n: usize) -> Vec<u32> {
    let mut v = Vec::with_capacity(n);
    v.push(1);
    v
}
fn per_call() -> Vec<u32> {
    let v = Vec::new();
    v
}
");
        let eff = |suffix: &str| {
            let id = names
                .iter()
                .position(|q| q.ends_with(suffix))
                .expect(suffix);
            a.summaries.effect[id]
        };
        assert_eq!(eff("::pure"), AllocEffect::NoAlloc);
        assert_eq!(eff("::amortized"), AllocEffect::AmortizedAlloc);
        assert_eq!(eff("::per_call"), AllocEffect::AllocPerCall);
        assert_eq!(a.stats.no_alloc_fns, 1);
        assert_eq!(a.stats.amortized_fns, 1);
        assert_eq!(a.stats.per_call_fns, 1);
    }

    #[test]
    fn direct_alloc_in_loop_is_flagged_with_chain() {
        let (a, _) = run("\
fn hot(xs: &[u32]) -> u32 {
    let mut acc = 0u32;
    for x in xs {
        let label = format!(\"{x}\");
        acc = acc.wrapping_add(label.len() as u32);
    }
    acc
}
");
        assert_eq!(a.hot_findings.len(), 1, "{:?}", a.hot_findings);
        let d = &a.hot_findings[0];
        assert_eq!(d.rule, "R005");
        let chain = d.chain.as_deref().unwrap_or("");
        assert!(chain.contains("x::hot"), "{chain}");
        assert!(chain.contains("loop @ crates/x/src/lib.rs:3"), "{chain}");
        assert!(chain.contains("format!"), "{chain}");
    }

    #[test]
    fn transitive_alloc_through_two_hops_is_flagged() {
        let (a, _) = run("\
fn leaf() -> String { String::new() }
fn mid() -> usize { leaf().len() }
fn hot(n: usize) -> usize {
    let mut acc = 0usize;
    let mut i = 0usize;
    while i < n {
        acc = acc.saturating_add(mid());
        i = i.saturating_add(1);
    }
    acc
}
");
        let ours: Vec<_> = a
            .hot_findings
            .iter()
            .filter(|d| d.message.contains("mid"))
            .collect();
        assert_eq!(ours.len(), 1, "{:?}", a.hot_findings);
        let chain = ours[0].chain.as_deref().unwrap_or("");
        assert!(chain.contains("x::hot"), "{chain}");
        assert!(chain.contains("x::mid"), "{chain}");
        assert!(chain.contains("x::leaf"), "{chain}");
        assert!(chain.contains("String::new"), "{chain}");
    }

    #[test]
    fn adapter_closure_is_a_loop_scope_but_let_closure_is_not() {
        let (a, _) = run("\
fn adapter(xs: &[u32]) -> usize {
    xs.iter().map(|x| x.to_string()).count()
}
fn bound(x: u32) -> String {
    let f = |v: u32| v.to_string();
    f(x)
}
");
        assert_eq!(a.hot_findings.len(), 1, "{:?}", a.hot_findings);
        assert!(a.hot_findings[0].message.contains("to_string"));
        assert_eq!(a.hot_findings[0].rel, "crates/x/src/lib.rs");
    }

    #[test]
    fn fold_init_is_outside_the_closure_scope() {
        let (a, _) = run("\
fn folds(xs: &[u32]) -> Vec<u32> {
    xs.iter().fold(Vec::with_capacity(xs.len()), |mut acc, &x| {
        acc.push(x);
        acc
    })
}
");
        assert!(a.hot_findings.is_empty(), "{:?}", a.hot_findings);
    }

    #[test]
    fn reuse_buffer_pattern_is_clean() {
        let (a, _) = run("\
fn hot(batches: &[&[u32]]) -> usize {
    let mut buf: Vec<u32> = Vec::with_capacity(64);
    let mut total = 0usize;
    for b in batches {
        buf.clear();
        buf.extend_from_slice(b);
        total = total.saturating_add(buf.len());
    }
    total
}
");
        assert!(a.hot_findings.is_empty(), "{:?}", a.hot_findings);
        assert!(a.capacity_findings.is_empty(), "{:?}", a.capacity_findings);
        assert!(a.stats.hot_loop_proven >= 1);
    }

    #[test]
    fn unreserved_push_loop_is_r006() {
        let (a, _) = run("\
fn grow(xs: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    for &x in xs {
        out.push(x);
    }
    out
}
");
        assert_eq!(a.capacity_findings.len(), 1, "{:?}", a.capacity_findings);
        assert_eq!(a.capacity_findings[0].rule, "R006");
        assert!(a.capacity_findings[0].message.contains("`out`"));
    }

    #[test]
    fn with_capacity_and_out_param_satisfy_r006() {
        let (a, _) = run("\
fn reserved(xs: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(xs.len());
    for &x in xs {
        out.push(x);
    }
    out
}
fn out_param(xs: &[u32], out: &mut Vec<u32>) {
    for &x in xs {
        out.push(x);
    }
}
");
        assert!(a.capacity_findings.is_empty(), "{:?}", a.capacity_findings);
        assert_eq!(a.stats.capacity_proven, 2);
    }

    #[test]
    fn long_signature_keeps_its_out_param() {
        // A parameter list hundreds of tokens long: the signature is
        // read in full, forwards from the `fn` keyword.
        let params: String = (0..30).map(|i| format!("p{i}: &[u32], ")).collect();
        let (a, _) = run(&format!(
            "fn grow(out: &mut Vec<u32>, {params}) {{\n    for &x in p0 {{\n        out.push(x);\n    }}\n}}\n"
        ));
        assert!(a.capacity_findings.is_empty(), "{:?}", a.capacity_findings);
        assert_eq!(a.stats.capacity_proven, 1);
    }

    #[test]
    fn self_field_growth_needs_mut_self() {
        let (a, _) = run("\
struct Arena { nodes: Vec<u32> }
impl Arena {
    fn fill(&mut self, xs: &[u32]) {
        for &x in xs {
            self.nodes.push(x);
        }
    }
}
");
        assert!(a.capacity_findings.is_empty(), "{:?}", a.capacity_findings);
    }

    #[test]
    fn hot_entry_points_restrict_the_bfs() {
        let cfg = Config::parse("[hot]\nentry_points = [\"x::hot\"]\n").expect("parses");
        let t = TestWorkspace::new(&[(
            "crates/x/src/lib.rs",
            "\
fn cold(xs: &[u32]) -> usize {
    let mut n = 0usize;
    for x in xs {
        n = n.saturating_add(x.to_string().len());
    }
    n
}
fn hot(xs: &[u32]) -> usize {
    let mut n = 0usize;
    for x in xs {
        n = n.saturating_add(*x as usize);
    }
    n
}
",
        )]);
        let a = analyze(&t.ws(), &cfg);
        assert_eq!(a.stats.hot_entry_points, 1);
        assert!(a.hot_findings.is_empty(), "{:?}", a.hot_findings);
    }

    #[test]
    fn hot_scope_gating() {
        let cfg = Config::parse("[hot]\npaths = [\"crates/trie/src\"]\n").expect("parses");
        assert!(hot_scope_applies(&cfg, "crates/trie/src/tree.rs"));
        assert!(!hot_scope_applies(&cfg, "crates/census/src/serve.rs"));
        assert!(hot_scope_applies(&Config::default(), "anything.rs"));
    }
}
