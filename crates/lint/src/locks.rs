//! R003 lock-order: a compositional proof that the workspace's lock
//! acquisition graph is acyclic, plus the guard-scope machinery that
//! R004 (blocking-under-lock, see [`crate::effects`]) builds on.
//!
//! The serving daemon's robustness posture leans on a handful of
//! `Mutex`/`RwLock` cells (the snapshot pointer, the supervisor's job
//! queue and degradation list, the in-memory and fault-injecting VFS
//! states). A deadlock between any two of them would hang the hot path
//! in a way no chaos drill is guaranteed to sample. This pass proves it
//! cannot happen, RacerD-style, without running the code:
//!
//! 1. **Lock registry** — every struct field and `static` whose
//!    declared type is `Mutex<…>`/`RwLock<…>` becomes a lock identity
//!    (`Type.field` or the static's name). `Condvar` fields are
//!    recorded too, so `cv.wait(guard)` — which atomically *releases*
//!    the guard — is never mistaken for blocking under it.
//! 2. **Per-function summaries** — walking each body's token stream,
//!    `recv.lock()` / `recv.read()` / `recv.write()` sites whose
//!    receiver resolves to a registered lock (by `self`-field identity,
//!    unique field name, static name, or lock-typed parameter) become
//!    acquisitions with a computed guard scope: a `let`-bound guard
//!    lives to the end of its enclosing block or an explicit
//!    `drop(name)`, a temporary dies at its statement's `;`. Functions
//!    that *return* a guard (`-> MutexGuard<…>`) are lock helpers: a
//!    call to one is an acquisition at the call site, with the lock
//!    taken from the helper's own summary or its lock-typed argument.
//! 3. **Interprocedural lifting** — the [`crate::summary`] engine
//!    lifts one acquisition bit per lock over [`crate::callgraph`] to a
//!    fixpoint. Call edges that merely *are* an acquisition site
//!    (`.lock()` resolving by method name to some workspace `fn lock`)
//!    are skipped: the acquisition is modelled precisely above, and the
//!    name-match edge is an artifact of conservative call resolution.
//! 4. **Lock-order graph** — while a guard for lock `X` is live, every
//!    acquisition of lock `Y` (directly in scope, or anywhere inside a
//!    callee reached from the scope) contributes an edge `X → Y`. Rule
//!    **R003** proves this graph acyclic; a cycle prints one witness
//!    chain per edge (`fn A holds X → … → acquires Y` vs. the reverse
//!    chain), R001-style.
//!
//! Like the call graph itself, the analysis has no alias analysis:
//! guards are tracked by field/static identity, not by points-to sets.
//! Receivers that cannot be resolved to a registered lock contribute no
//! acquisition — so the proof is exactly as strong as the workspace's
//! (enforced) habit of locking through named fields, statics, and the
//! poison-surviving helper fns, and DESIGN.md §7 documents the gap.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::effects;
use crate::lexer::TokKind;
use crate::report::Diagnostic;
use crate::rules::{semantic_finding, SemanticRule, Workspace};
use crate::scan::{path_back, position, span, CodeTok};
use crate::summary::{render, Site, Summary};

/// What kind of synchronisation primitive a declaration is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    /// `std::sync::Mutex` — acquired with `.lock()`.
    Mutex,
    /// `std::sync::RwLock` — acquired with `.read()` / `.write()`.
    RwLock,
}

/// One registered lock: a struct field or a static with a lock type.
#[derive(Clone, Debug)]
pub struct LockDecl {
    /// Display identity: `Type.field` for fields, `NAME` for statics.
    pub id: String,
    /// Owning struct for fields, `None` for statics.
    pub owner: Option<String>,
    /// Field or static name.
    pub name: String,
    /// Mutex or RwLock.
    pub kind: LockKind,
    /// Index of the declaring file.
    pub file: usize,
    /// 1-based declaration line.
    pub line: usize,
}

/// Where an acquisition got its lock identity from.
#[derive(Clone, Debug, PartialEq, Eq)]
enum LockRef {
    /// A registered lock (index into the registry).
    Concrete(usize),
    /// The caller decides: the acquisition is on a lock-typed
    /// parameter (helper fns like `fn lock<T>(m: &Mutex<T>)`).
    Param(usize),
}

/// One lock acquisition inside a function body.
#[derive(Clone, Debug)]
pub struct Acquisition {
    /// Registry index of the acquired lock.
    pub lock: usize,
    /// 1-based line of the acquiring call.
    pub line: usize,
    /// Token index of the call's `(` in the owning file's stream.
    pub paren: usize,
    /// Guard liveness as a token-index range `[start, end)` in the
    /// owning file's stream; `None` when the guard escapes (the fn
    /// returns it) — its scope belongs to the caller.
    pub scope: Option<(usize, usize)>,
}

/// Per-function lock summary.
#[derive(Clone, Debug, Default)]
pub struct FnLocks {
    /// Locally scoped acquisitions, in source order.
    pub acquired: Vec<Acquisition>,
    /// Set when the fn hands its guard to the caller: the registry
    /// index of the returned guard's lock, or the lock-typed parameter
    /// it forwards.
    returns_guard: Option<LockRef>,
    /// Token indices of call-`(`s that are themselves acquisition
    /// sites or condvar waits — their name-resolved call edges are
    /// artifacts and must not be lifted.
    pub skip_parens: BTreeSet<usize>,
    /// Lock-typed parameters: `(param index, name, kind)`.
    lock_params: Vec<(usize, String, LockKind)>,
}

/// One directed edge of the lock-order graph, with its witness.
#[derive(Clone, Debug)]
pub struct LockEdge {
    /// Held lock (registry index).
    pub from: usize,
    /// Acquired-while-held lock (registry index).
    pub to: usize,
    /// Human witness: `fn F holds X (file:line) → … acquires Y (…)`.
    pub witness: String,
    /// File index and line anchoring a diagnostic for this edge.
    pub file: usize,
    /// 1-based line of the holding acquisition.
    pub line: usize,
}

/// Counters for `BENCH_lint.json`'s `locks` block.
#[derive(Clone, Copy, Debug, Default)]
pub struct LockStats {
    /// Functions with a computed lock/effect summary.
    pub fns_summarized: usize,
    /// Registered Mutex/RwLock fields and statics.
    pub locks_found: usize,
    /// Distinct edges in the lock-order graph.
    pub lock_edges: usize,
    /// Guard-scope × (call | effect) obligations examined for R004.
    pub effect_obligations: usize,
    /// Obligations proven non-blocking.
    pub proven: usize,
    /// True when the lock-order graph has no cycle.
    pub acyclic: bool,
}

/// The full analysis result: R003 + R004 findings plus the counters.
#[derive(Debug, Default)]
pub struct LockAnalysis {
    /// R003 lock-order cycle findings.
    pub cycle_findings: Vec<Diagnostic>,
    /// R004 blocking-under-lock findings.
    pub blocking_findings: Vec<Diagnostic>,
    /// The lock-order graph, one witness per distinct `X → Y` pair.
    pub edges: Vec<LockEdge>,
    /// Bench counters.
    pub stats: LockStats,
}

// ---------------------------------------------------------------- rules

/// R003 lock-order as a registered semantic rule.
pub struct LockOrder;

impl SemanticRule for LockOrder {
    fn id(&self) -> &'static str {
        "R003"
    }
    fn name(&self) -> &'static str {
        "lock-order"
    }
    fn describe(&self) -> &'static str {
        "the interprocedural lock-acquisition graph over every Mutex/RwLock field and static must be acyclic"
    }
    fn check(&self, ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        out.extend(analyze(ws, cfg).cycle_findings);
    }
}

/// Runs the combined lock/effect analysis once. The engine calls this
/// directly (like R002's `dataflow::analyze`) so R003 and R004 share
/// one pass; the rule impls exist for `--list-rules` and direct tests.
pub fn analyze(ws: &Workspace<'_>, _cfg: &Config) -> LockAnalysis {
    let registry = build_registry(ws);
    let condvars = condvar_fields(ws);
    // Pass 1: signature-level facts (guard-returning helpers) plus
    // direct field/static/param acquisitions.
    let direct: Vec<FnLocks> = (0..ws.symbols.fns.len())
        .map(|id| scan_fn(ws, id, &registry, &condvars))
        .collect();
    // Pass 2: add acquisitions made through guard-returning helpers,
    // now that every helper's summary is known.
    let summaries: Vec<FnLocks> = (0..direct.len())
        .map(|id| {
            let mut s = direct[id].clone();
            helper_acquisitions(ws, id, &registry, &direct, &mut s);
            s.acquired.sort_by_key(|a| a.paren);
            s
        })
        .collect();

    let trans = transitive_locks(ws, registry.len(), &summaries);
    let effects = effects::summarize(ws, &summaries);
    let edges = order_edges(ws, &registry, &summaries, &trans);

    let mut analysis = LockAnalysis {
        stats: LockStats {
            fns_summarized: summaries
                .iter()
                .zip(ws.symbols.fns.iter())
                .filter(|(_, f)| f.body.is_some() && !f.is_test)
                .count(),
            locks_found: registry.len(),
            lock_edges: edges.len(),
            ..LockStats::default()
        },
        ..LockAnalysis::default()
    };
    analysis.stats.acyclic = report_cycles(ws, &registry, &edges, &mut analysis.cycle_findings);
    analysis.edges = edges;
    effects::blocking_under_lock(
        ws,
        &registry,
        &summaries,
        &effects,
        &mut analysis.blocking_findings,
        &mut analysis.stats,
    );
    analysis
}

// ------------------------------------------------------- lock registry

/// True when the type tokens starting at `i` name a lock, looking
/// through leading path segments (`std :: sync :: Mutex`).
fn lock_ty_at(toks: &[CodeTok<'_>], mut i: usize) -> Option<LockKind> {
    for _ in 0..4 {
        let (_, t) = toks.get(i)?;
        if t.kind != TokKind::Ident {
            return None;
        }
        match t.text.as_str() {
            "Mutex" => return Some(LockKind::Mutex),
            "RwLock" => return Some(LockKind::RwLock),
            _ => {
                if toks.get(i + 1).is_some_and(|(_, n)| n.is_op("::")) {
                    i += 2;
                } else {
                    return None;
                }
            }
        }
    }
    None
}

/// Registers every lock-typed struct field (read from the symbol
/// table's field records) and `static`, in source order.
pub fn build_registry(ws: &Workspace<'_>) -> Vec<LockDecl> {
    let mut out: Vec<(usize, usize, LockDecl)> = Vec::new(); // (file, token, decl)
    for rec in &ws.symbols.structs {
        let Some(view) = ws.views.get(rec.file) else {
            continue;
        };
        // Named fields only: a tuple field is never a lock receiver.
        let named = rec
            .fields
            .iter()
            .filter(|f| !f.name.starts_with(|c: char| c.is_ascii_digit()));
        for field in named {
            if let Some(kind) = lock_ty_at(span(view, field.ty.0, field.ty.1), 0) {
                let decl = LockDecl {
                    id: format!("{}.{}", rec.name, field.name),
                    owner: Some(rec.name.clone()),
                    name: field.name.clone(),
                    kind,
                    file: rec.file,
                    line: field.line,
                };
                out.push((rec.file, rec.at, decl));
            }
        }
    }
    for (fidx, toks) in ws.views.iter().enumerate() {
        for (i, &(at, t)) in toks.iter().enumerate() {
            // `static NAME : <lock type> = …`.
            let name = toks.get(i + 1).filter(|(_, n)| n.kind == TokKind::Ident);
            let colon = toks.get(i + 2).is_some_and(|(_, c)| c.is_op(":"));
            if let (true, Some((_, name)), true) = (t.is_ident("static"), name, colon) {
                if let Some(kind) = lock_ty_at(toks, i + 3) {
                    let decl = LockDecl {
                        id: name.text.clone(),
                        owner: None,
                        name: name.text.clone(),
                        kind,
                        file: fidx,
                        line: name.line,
                    };
                    out.push((fidx, at, decl));
                }
            }
        }
    }
    out.sort_by_key(|&(file, at, _)| (file, at));
    out.into_iter().map(|(_, _, decl)| decl).collect()
}

/// Names of struct fields declared as `Condvar` — their `.wait(…)`
/// family atomically releases the guard passed in.
pub fn condvar_fields(ws: &Workspace<'_>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for rec in &ws.symbols.structs {
        let Some(view) = ws.views.get(rec.file) else {
            continue;
        };
        for f in &rec.fields {
            if span(view, f.ty.0, f.ty.1)
                .first()
                .is_some_and(|(_, t)| t.is_ident("Condvar"))
            {
                out.insert(f.name.clone());
            }
        }
    }
    out
}

// ------------------------------------------- per-function acquisitions

/// The acquiring method names per lock kind.
fn method_kind(name: &str) -> Option<LockKind> {
    match name {
        "lock" => Some(LockKind::Mutex),
        "read" | "write" => Some(LockKind::RwLock),
        _ => None,
    }
}

/// Scans one function body for direct acquisitions, guard-return
/// facts, and condvar-wait sites.
fn scan_fn(
    ws: &Workspace<'_>,
    id: usize,
    registry: &[LockDecl],
    condvars: &BTreeSet<String>,
) -> FnLocks {
    let mut s = FnLocks::default();
    let Some(f) = ws.symbols.fns.get(id) else {
        return s;
    };
    let (Some((start, end)), Some(view)) = (f.body, ws.views.get(f.file)) else {
        return s;
    };
    // Lock-typed parameters: `name : [&] [lifetime] [mut] Mutex<…>`.
    for (idx, p) in f.params.iter().enumerate() {
        let ty = span(view, p.ty.0, p.ty.1);
        let k = ty
            .iter()
            .take_while(|(_, x)| x.is_op("&") || x.kind == TokKind::Lifetime || x.is_ident("mut"));
        if let Some(kind) = lock_ty_at(ty, k.count()) {
            s.lock_params.push((idx, p.name.clone(), kind));
        }
    }
    let toks = span(view, start, end);

    let mut first_acq: Option<LockRef> = None;
    for j in 0..toks.len() {
        let (orig, t) = toks[j];
        if !t.is_op("(") || j < 2 {
            continue;
        }
        let (_, m) = toks[j - 1];
        if m.kind != TokKind::Ident {
            continue;
        }
        let (_, dot) = toks[j - 2];
        if !dot.is_op(".") {
            continue;
        }
        // Condvar waits: `cv.wait(g)` releases `g` for the wait.
        if matches!(m.text.as_str(), "wait" | "wait_timeout" | "wait_while") {
            if let Some((_, recv)) = toks.get(j.wrapping_sub(3)) {
                if condvars.contains(&recv.text) {
                    s.skip_parens.insert(orig);
                }
            }
            continue;
        }
        let Some(kind) = method_kind(&m.text) else {
            continue;
        };
        let Some(lockref) = resolve_receiver(
            f.self_ty.as_deref(),
            registry,
            &s.lock_params,
            toks,
            j,
            kind,
        ) else {
            continue;
        };
        s.skip_parens.insert(orig);
        if first_acq.is_none() {
            first_acq = Some(lockref.clone());
        }
        if let LockRef::Concrete(lk) = lockref {
            let scope = guard_scope(toks, j, end);
            s.acquired.push(Acquisition {
                lock: lk,
                line: m.line,
                paren: orig,
                scope,
            });
        }
    }
    // A guard-typed return makes this a lock helper.
    let guard_ty = |(_, t): &CodeTok<'_>| {
        matches!(
            t.text.as_str(),
            "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard"
        )
    };
    if f.ret
        .is_some_and(|(lo, hi)| span(view, lo, hi).iter().any(guard_ty))
    {
        // A helper that hands its guard out: prefer the lock-typed
        // parameter (generic helpers), else the first acquisition.
        s.returns_guard = s
            .lock_params
            .first()
            .map(|&(i, _, _)| LockRef::Param(i))
            .or(first_acq);
        // The guard escapes, so local scopes do not apply.
        for a in &mut s.acquired {
            a.scope = None;
        }
    }
    s
}

/// Resolves the receiver of `….m(` (the `(` at comment-free index `j`)
/// to a lock. The receiver chain ends at `j - 3`.
fn resolve_receiver(
    self_ty: Option<&str>,
    registry: &[LockDecl],
    lock_params: &[(usize, String, LockKind)],
    toks: &[CodeTok<'_>],
    j: usize,
    kind: LockKind,
) -> Option<LockRef> {
    if toks.get(j.wrapping_sub(3))?.1.kind != TokKind::Ident {
        return None;
    }
    let (_, chain) = path_back(toks, j - 3, ".");
    resolve_lock_path(self_ty, registry, lock_params, &chain, kind)
}

/// Resolves an ident chain (`self.state`, `ctx.degraded`, `A`, `m`) to
/// a lock of the right kind.
fn resolve_lock_path(
    self_ty: Option<&str>,
    registry: &[LockDecl],
    lock_params: &[(usize, String, LockKind)],
    chain: &[String],
    kind: LockKind,
) -> Option<LockRef> {
    let last = chain.last()?;
    if chain.len() == 1 {
        // A lock-typed parameter (`m.lock()` in a helper)…
        if let Some(&(i, _, _)) = lock_params.iter().find(|(_, n, k)| n == last && *k == kind) {
            return Some(LockRef::Param(i));
        }
        // …or a static by name.
        let hit = registry
            .iter()
            .position(|d| d.owner.is_none() && &d.name == last && d.kind == kind)?;
        return Some(LockRef::Concrete(hit));
    }
    let starts_with_self = chain.first().is_some_and(|c| c == "self");
    if starts_with_self && chain.len() == 2 {
        // `self.field` — exact (Type, field) identity.
        let ty = self_ty?;
        let hit = registry
            .iter()
            .position(|d| d.owner.as_deref() == Some(ty) && &d.name == last && d.kind == kind)?;
        return Some(LockRef::Concrete(hit));
    }
    // `expr.field` with an unknown receiver type: accept only a field
    // name that names exactly one registered lock of this kind —
    // ambiguity would invent lock identities, so it contributes none.
    let matches: Vec<usize> = registry
        .iter()
        .enumerate()
        .filter(|(_, d)| d.owner.is_some() && &d.name == last && d.kind == kind)
        .map(|(i, _)| i)
        .collect();
    match matches.as_slice() {
        [only] => Some(LockRef::Concrete(*only)),
        _ => None,
    }
}

/// Computes the guard's live token range for the acquisition whose `(`
/// sits at comment-free index `j`. Returns `[start, end)` in original
/// token indices, or `None` when the guard is returned.
fn guard_scope(toks: &[CodeTok<'_>], j: usize, body_end: usize) -> Option<(usize, usize)> {
    let start_orig = toks[j].0;
    // Is the acquisition inside a `let` statement? Walk back to the
    // statement start (a `;`, `{`, or `}` at depth 0).
    let mut i = j;
    let mut depth = 0i64;
    let mut binding: Option<String> = None;
    while i > 0 {
        i -= 1;
        let (_, t) = toks[i];
        match t.text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            ";" if depth == 0 => break,
            "let" if depth == 0 => {
                // `let [mut] name = …`.
                let mut k = i + 1;
                if toks.get(k).is_some_and(|(_, t)| t.is_ident("mut")) {
                    k += 1;
                }
                if let Some((_, name)) = toks.get(k).filter(|(_, t)| t.kind == TokKind::Ident) {
                    binding = Some(name.text.clone());
                }
                break;
            }
            _ => {}
        }
    }

    match binding {
        Some(name) if name != "_" => {
            // Live until `drop(name)` or the enclosing block closes.
            let mut depth = 0i64;
            let mut k = j + 1;
            while k < toks.len() {
                let (orig, t) = toks[k];
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "}" => {
                        depth -= 1;
                        if depth < 0 {
                            return Some((start_orig, orig));
                        }
                    }
                    "drop"
                        if toks.get(k + 1).is_some_and(|(_, t)| t.is_op("("))
                            && toks.get(k + 2).is_some_and(|(_, t)| t.is_ident(&name)) =>
                    {
                        return Some((start_orig, orig));
                    }
                    _ => {}
                }
                k += 1;
            }
            Some((start_orig, body_end))
        }
        _ => {
            // Temporary (or `let _ =`): dies at the statement's end —
            // a `;` at relative depth 0 or the enclosing close.
            let mut depth = 0i64;
            let mut k = j; // include the call's own parens in depth
            while k < toks.len() {
                let (orig, t) = toks[k];
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth < 0 {
                            return Some((start_orig, orig));
                        }
                    }
                    ";" if depth == 0 => return Some((start_orig, orig)),
                    _ => {}
                }
                k += 1;
            }
            Some((start_orig, body_end))
        }
    }
}

/// Adds acquisitions made through calls to guard-returning helpers.
fn helper_acquisitions(
    ws: &Workspace<'_>,
    id: usize,
    registry: &[LockDecl],
    direct: &[FnLocks],
    s: &mut FnLocks,
) {
    let Some(f) = ws.symbols.fns.get(id) else {
        return;
    };
    let (Some((start, body_end)), Some(view)) = (f.body, ws.views.get(f.file)) else {
        return;
    };
    let toks = span(view, start, body_end);
    for call in ws.calls_of(id) {
        if s.skip_parens.contains(&call.paren) {
            continue; // already modelled as a direct acquisition
        }
        // A helper call acquires when some callee returns a guard.
        let ret = call
            .callees
            .iter()
            .find_map(|&c| direct.get(c).and_then(|d| d.returns_guard.clone()));
        let Some(ret) = ret else { continue };
        let lock = match ret {
            LockRef::Concrete(l) => Some(l),
            LockRef::Param(i) => argument_lock(
                f.self_ty.as_deref(),
                registry,
                &s.lock_params,
                toks,
                call.paren,
                i,
            ),
        };
        let Some(lock) = lock else { continue };
        s.skip_parens.insert(call.paren);
        let Some(j) = position(toks, call.paren) else {
            continue;
        };
        let scope = guard_scope(toks, j, body_end);
        s.acquired.push(Acquisition {
            lock,
            line: call.line,
            paren: call.paren,
            scope,
        });
    }
}

/// Resolves the `i`-th argument of the call whose `(` has original
/// token index `paren` to a registered lock (`&self.state`, `&A`…).
fn argument_lock(
    self_ty: Option<&str>,
    registry: &[LockDecl],
    lock_params: &[(usize, String, LockKind)],
    toks: &[CodeTok<'_>],
    paren: usize,
    i: usize,
) -> Option<usize> {
    let open = position(toks, paren)?;
    let mut depth = 0i64;
    let mut arg = 0usize;
    let mut chain: Vec<String> = Vec::new();
    let mut k = open + 1;
    while k < toks.len() {
        let (_, t) = toks[k];
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            "," if depth == 0 => {
                arg += 1;
                chain.clear();
            }
            _ if depth == 0 && arg == i => {
                if t.kind == TokKind::Ident {
                    chain.push(t.text.clone());
                } else if !t.is_op("&") && !t.is_op(".") && !t.is_op("*") && !t.is_ident("mut") {
                    // Anything structurally richer than `&x.y` — give up.
                    if !chain.is_empty() {
                        break;
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }
    if chain.is_empty() {
        return None;
    }
    // The helper accepts either kind; try both.
    for kind in [LockKind::Mutex, LockKind::RwLock] {
        if let Some(LockRef::Concrete(l)) =
            resolve_lock_path(self_ty, registry, lock_params, &chain, kind)
        {
            return Some(l);
        }
    }
    None
}

// --------------------------------------------- interprocedural lifting

/// One acquisition summary per registered lock, lifted over the call
/// graph: `trans[lock].effect[fn]` is set when `fn` or anything it may
/// call acquires `lock`, and its `via` hops lead to the acquisition.
/// Acquisition and condvar-wait call sites are not propagation edges.
fn transitive_locks(ws: &Workspace<'_>, locks: usize, summaries: &[FnLocks]) -> Vec<Summary<bool>> {
    (0..locks)
        .map(|lock| {
            let direct = summaries
                .iter()
                .map(|s| {
                    let acquired = s.acquired.iter().filter(|a| a.lock == lock);
                    acquired
                        .map(|a| Site {
                            pos: a.paren,
                            line: a.line,
                            desc: String::new(),
                            fact: true,
                        })
                        .collect()
                })
                .collect();
            Summary::lift(ws, direct, |id, call| {
                summaries[id].skip_parens.contains(&call.paren)
            })
        })
        .collect()
}

// ------------------------------------------------- the lock-order graph

/// Builds the edge set: lock X → lock Y when some fn acquires Y (in
/// scope, directly or transitively through a call) while X is held.
fn order_edges(
    ws: &Workspace<'_>,
    registry: &[LockDecl],
    summaries: &[FnLocks],
    trans: &[Summary<bool>],
) -> Vec<LockEdge> {
    let mut edges: BTreeMap<(usize, usize), LockEdge> = BTreeMap::new();
    for (id, s) in summaries.iter().enumerate() {
        let Some(f) = ws.symbols.fns.get(id) else {
            continue;
        };
        if f.is_test {
            continue;
        }
        for a in &s.acquired {
            let Some((lo, hi)) = a.scope else { continue };
            let held = &registry[a.lock].id;
            let rel = ws.rel_of(id);
            // Other direct acquisitions inside the guard's scope.
            for b in &s.acquired {
                if b.paren > lo && b.paren < hi && b.paren != a.paren {
                    let to = &registry[b.lock].id;
                    edges.entry((a.lock, b.lock)).or_insert_with(|| LockEdge {
                        from: a.lock,
                        to: b.lock,
                        witness: format!(
                            "{} holds `{held}` ({rel}:{}) → acquires `{to}` (line {})",
                            f.qname, a.line, b.line
                        ),
                        file: f.file,
                        line: a.line,
                    });
                }
            }
            // Calls inside the scope: everything the callee may lock.
            for call in ws.calls_of(id) {
                if call.paren <= lo || call.paren >= hi || s.skip_parens.contains(&call.paren) {
                    continue;
                }
                for &callee in call.callees.iter().filter(|&&c| ws.non_test(c)) {
                    for (l, t) in trans.iter().enumerate().filter(|(_, t)| t.effect[callee]) {
                        edges.entry((a.lock, l)).or_insert_with(|| {
                            let (hops, site) = t.path_down(ws, callee);
                            LockEdge {
                                from: a.lock,
                                to: l,
                                witness: format!(
                                    "{} holds `{held}` ({rel}:{}) → {} acquires `{}` ({}:{})",
                                    f.qname,
                                    a.line,
                                    render(ws, &hops),
                                    registry[l].id,
                                    ws.rel_of(*hops.last().unwrap_or(&callee)),
                                    site.map_or(0, |a| a.line)
                                ),
                                file: f.file,
                                line: a.line,
                            }
                        });
                    }
                }
            }
        }
    }
    edges.into_values().collect()
}

/// Detects cycles and emits one R003 finding per cycle found. Returns
/// true when the graph is acyclic (the proof holds).
fn report_cycles(
    ws: &Workspace<'_>,
    registry: &[LockDecl],
    edges: &[LockEdge],
    out: &mut Vec<Diagnostic>,
) -> bool {
    let n = registry.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, e) in edges.iter().enumerate() {
        adj[e.from].push(i);
    }
    // Iterative coloring DFS; when a back edge closes a cycle, rebuild
    // the edge list along the stack.
    let mut color = vec![0u8; n]; // 0 white, 1 grey, 2 black
    let mut reported: BTreeSet<Vec<usize>> = BTreeSet::new();
    for root in 0..n {
        if color[root] != 0 {
            continue;
        }
        // Stack of (node, next edge cursor); path holds edge indices.
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        let mut path: Vec<usize> = Vec::new();
        color[root] = 1;
        while let Some(top) = stack.len().checked_sub(1) {
            let (node, cursor) = stack[top];
            if let Some(&eidx) = adj[node].get(cursor) {
                stack[top].1 += 1;
                let to = edges[eidx].to;
                match color[to] {
                    0 => {
                        color[to] = 1;
                        path.push(eidx);
                        stack.push((to, 0));
                    }
                    1 => {
                        // Back edge: the cycle is the path suffix from
                        // `to` plus this edge.
                        let mut cyc: Vec<usize> = Vec::new();
                        if let Some(pos) = stack.iter().position(|&(nd, _)| nd == to) {
                            cyc.extend(path.iter().skip(pos).copied());
                        }
                        cyc.push(eidx);
                        let mut key = cyc.clone();
                        key.sort_unstable();
                        if reported.insert(key) {
                            emit_cycle(ws, registry, edges, &cyc, out);
                        }
                    }
                    _ => {}
                }
            } else {
                color[node] = 2;
                stack.pop();
                path.pop();
            }
        }
    }
    out.is_empty() && reported.is_empty()
}

/// Emits one R003 diagnostic for the cycle spelled by `cyc` (edge
/// indices in traversal order).
fn emit_cycle(
    ws: &Workspace<'_>,
    registry: &[LockDecl],
    edges: &[LockEdge],
    cyc: &[usize],
    out: &mut Vec<Diagnostic>,
) {
    let Some(&first) = cyc.first() else { return };
    let anchor = &edges[first];
    let Some(file) = ws.files.get(anchor.file) else {
        return;
    };
    let mut ring: Vec<&str> = cyc
        .iter()
        .map(|&e| registry[edges[e].from].id.as_str())
        .collect();
    ring.push(registry[edges[first].from].id.as_str());
    let chains: Vec<String> = cyc.iter().map(|&e| edges[e].witness.clone()).collect();
    out.push(semantic_finding(
        "R003",
        "lock-order",
        file,
        anchor.line,
        format!(
            "lock-order cycle `{}` — a thread interleaving exists that deadlocks; impose one global acquisition order",
            ring.join("` → `"),
        ),
        Some(chains.join("  ⇄  ")),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::tests::TestWorkspace;

    fn run(files: &[(&str, &str)]) -> LockAnalysis {
        analyze(&TestWorkspace::new(files).ws(), &Config::default())
    }

    const CYCLE: &str = "\
use std::sync::Mutex;
static A: Mutex<u32> = Mutex::new(0);
static B: Mutex<u32> = Mutex::new(0);
fn fwd() {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    take_b();
    drop(g);
}
fn take_b() {
    let h = B.lock().unwrap_or_else(|e| e.into_inner());
    drop(h);
}
fn rev() {
    let g = B.lock().unwrap_or_else(|e| e.into_inner());
    take_a();
    drop(g);
}
fn take_a() {
    let h = A.lock().unwrap_or_else(|e| e.into_inner());
    drop(h);
}
";

    #[test]
    fn registry_finds_fields_and_statics() {
        let src = "\
use std::sync::{Condvar, Mutex, RwLock};
struct Cell { inner: RwLock<u32>, tag: String }
struct Queue { state: Mutex<u32>, cv: Condvar }
static GLOBAL: Mutex<u8> = Mutex::new(0);
";
        let t = TestWorkspace::new(&[("x.rs", src)]);
        let ws = t.ws();
        let reg = build_registry(&ws);
        let ids: Vec<&str> = reg.iter().map(|d| d.id.as_str()).collect();
        assert_eq!(ids, ["Cell.inner", "Queue.state", "GLOBAL"], "{reg:?}");
        assert_eq!(reg[0].kind, LockKind::RwLock);
        assert!(condvar_fields(&ws).contains("cv"));
    }

    #[test]
    fn two_lock_cycle_is_found_with_both_chains() {
        let a = run(&[("crates/x/src/lib.rs", CYCLE)]);
        assert!(!a.stats.acyclic);
        assert_eq!(a.cycle_findings.len(), 1, "{:?}", a.cycle_findings);
        let d = &a.cycle_findings[0];
        let chain = d.chain.as_deref().expect("cycle witness");
        for hop in ["x::fwd", "x::take_b", "x::rev", "x::take_a"] {
            assert!(chain.contains(hop), "missing hop {hop} in {chain}");
        }
        assert!(chain.contains("`A`") && chain.contains("`B`"), "{chain}");
    }

    #[test]
    fn consistent_order_is_acyclic() {
        let src = "\
use std::sync::Mutex;
static A: Mutex<u32> = Mutex::new(0);
static B: Mutex<u32> = Mutex::new(0);
fn ok() {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    let h = B.lock().unwrap_or_else(|e| e.into_inner());
    drop(h);
    drop(g);
}
fn also_ok() {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    drop(g);
    let h = B.lock().unwrap_or_else(|e| e.into_inner());
    drop(h);
}
";
        let a = run(&[("crates/x/src/lib.rs", src)]);
        assert!(a.stats.acyclic, "{:?}", a.cycle_findings);
        assert!(a.cycle_findings.is_empty());
        assert_eq!(a.stats.lock_edges, 1, "one A→B edge from `ok`");
    }

    #[test]
    fn guard_returning_helper_attributes_to_call_site() {
        let src = "\
use std::sync::{Mutex, MutexGuard};
struct Q { state: Mutex<u32> }
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
impl Q {
    fn bump(&self) {
        let mut g = lock(&self.state);
        *g += 1;
    }
}
";
        let a = run(&[("crates/x/src/lib.rs", src)]);
        assert!(a.stats.acyclic);
        assert_eq!(a.stats.locks_found, 1);
        // The helper's own `m.lock()` is a param acquisition; `bump`'s
        // call to it is the concrete `Q.state` acquisition.
        assert!(a.cycle_findings.is_empty() && a.blocking_findings.is_empty());
    }

    #[test]
    fn double_lock_is_a_self_cycle() {
        let src = "\
use std::sync::Mutex;
static A: Mutex<u32> = Mutex::new(0);
fn twice() {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    let h = A.lock().unwrap_or_else(|e| e.into_inner());
    drop(h);
    drop(g);
}
";
        let a = run(&[("crates/x/src/lib.rs", src)]);
        assert!(!a.stats.acyclic, "relocking a held Mutex deadlocks");
        assert_eq!(a.cycle_findings.len(), 1);
    }

    #[test]
    fn atomics_read_is_not_a_lock() {
        let src = "\
use std::sync::atomic::{AtomicU64, Ordering};
struct Metrics { hits: AtomicU64 }
impl Metrics {
    fn read(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}
fn poll(m: &Metrics) -> u64 { m.read() }
";
        let a = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(a.stats.locks_found, 0, "AtomicU64 is not a lock");
        assert!(a.cycle_findings.is_empty() && a.blocking_findings.is_empty());
    }
}
