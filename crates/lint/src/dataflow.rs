//! Abstract interpretation over the comment-free token view: rule R002.
//!
//! Per function this runs an intraprocedural abstract interpretation
//! on the [`crate::intervals`] lattice tagged with the [`crate::units`]
//! domain. It walks the file's comment-free view from
//! [`crate::scan::code_views`], the one every token layer shares, with
//! the shared delimiter matcher and top-level find/split
//! ([`crate::scan::matching`], [`crate::scan::find_top`],
//! [`crate::scan::split_top`]); it parses no items of its own:
//! parameters, return types, struct fields and tuple-variant payloads
//! come typed from the [`crate::symbols`] tables, and callees from the
//! [`crate::callgraph`] (keyed by each call's original `(` index). The
//! walker is a total recursive descent over statements and expressions
//! that resynchronises at `;` on anything it does not model.
//! Per-function summaries (entry ranges → return range) are then
//! lifted interprocedurally across the call graph in three runs:
//!
//! 1. every parameter starts at the top of its declared type (plus any
//!    `lint.toml` unit annotation or `checked_*` helper bound), and the
//!    argument ranges observed at every call site are recorded;
//! 2. non-`pub` functions re-run with each parameter narrowed to the
//!    join of its observed arguments (sound: every caller of a private
//!    function is in the analyzed set — `pub` functions keep
//!    top-of-type because callers outside the scope are not seen);
//! 3. a final run with obligation collection on emits findings.
//!
//! The obligations R002 proves along all non-test paths:
//!
//! * every shift by a non-literal amount stays below the shifted
//!   type's width (literal amounts are compiler-checked already);
//! * every `addr::cast::checked_*` argument fits the helper's target
//!   type, so its `debug_assert` can never fire — even in release
//!   builds where it vanishes;
//! * every argument to a unit-annotated parameter fits the unit's
//!   range (bits ≤ 128, nybbles ≤ 32, segments ≤ 65535) *and* carries
//!   a compatible unit tag (a nybble index flowing into a bits
//!   parameter is flagged even when its range happens to fit);
//! * every struct-literal write to an `assumed_fields` field stays in
//!   the assumed range, anchoring the field assumptions the reads use.
//!
//! Violations carry a witness chain like R001's:
//! `value range [0,256] from loop at addr.rs:L → shl128 amount`.
//! Sites the dataflow *proves* discharge L003/L006's syntactic
//! findings (see [`DataflowResult::discharges`]); sites it cannot
//! prove need a reasoned `allow(R002, …)`.
//!
//! Soundness boundaries, stated rather than implied: `usize` is
//! modelled as 64 bits (the workspace's documented target); constructs
//! the walker does not model evaluate to top-of-type (never to
//! something narrower); environments refined to infeasibility are
//! dead and excluded from joins; test regions are excluded end to end,
//! matching R002's "all non-test paths" contract.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::intervals::{Interval, Ty, TOP};
use crate::lexer::{int_suffix, TokKind, Token};
use crate::report::Diagnostic;
use crate::rules::{semantic_finding, SemanticRule, Workspace};
use crate::scan::{find_top, matching, position, span, split_top, CodeTok, ScannedFile};
use crate::symbols::SymbolTable;
use crate::units::{Annotations, Unit};

/// Counters reported in `BENCH_lint.json` and useful in tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct DataflowStats {
    /// Functions walked per pass.
    pub fns_analyzed: usize,
    /// Interprocedural passes run.
    pub passes: usize,
    /// Functions that produced a non-trivial return summary.
    pub summaries: usize,
    /// Proof obligations checked on the final pass.
    pub obligations: usize,
    /// Obligations discharged by the analysis.
    pub proven: usize,
}

/// Everything `analyze` produces: R002 findings plus the proven-site
/// sets the engine uses to discharge L003/L006 findings.
#[derive(Debug, Default)]
pub struct DataflowResult {
    /// R002 findings (witness chains included).
    pub findings: Vec<Diagnostic>,
    /// Analysis counters.
    pub stats: DataflowStats,
    proven_casts: BTreeSet<(String, usize, String)>,
    unproven_casts: BTreeSet<(String, usize, String)>,
    proven_arith: BTreeSet<(String, usize, String)>,
    unproven_arith: BTreeSet<(String, usize, String)>,
}

impl DataflowResult {
    /// True when the dataflow proved the site behind an L003/L006
    /// finding in-range, so the finding can be discharged instead of
    /// needing a pragma. Keyed by (file, line, operator-or-type): a
    /// site only discharges when every occurrence of that key on the
    /// line was proven and none was left open.
    pub fn discharges(&self, d: &Diagnostic) -> bool {
        let Some(item) = d.message.split('`').nth(1) else {
            return false;
        };
        let (proven, unproven, key) = match d.rule.as_str() {
            "L003" => {
                let ty = item.strip_prefix("as ").unwrap_or(item);
                (&self.proven_casts, &self.unproven_casts, ty.to_string())
            }
            "L006" => (&self.proven_arith, &self.unproven_arith, item.to_string()),
            _ => return false,
        };
        let key = (d.rel.clone(), d.line, key);
        proven.contains(&key) && !unproven.contains(&key)
    }
}

/// The declared type of a field or parameter, as far as the dataflow
/// models types: a primitive unsigned integer, a named (workspace)
/// struct, or an array. `Option<T>` and `Box<T>` are transparent
/// wrappers — consistent with the `Some`/`Ok`-identity value model —
/// so `&mut Option<Box<Node>>` reads as `Node`. Other generic types
/// keep their head name and drop the arguments; reference-typed
/// fields strip the reference.
#[derive(Clone, Debug, PartialEq, Eq)]
enum FieldTy {
    Prim(Ty),
    Named(String),
    Array(Box<FieldTy>),
}

/// An abstract value: interval, optional machine type, unit tag,
/// provenance for witness chains, and (when the value is a struct or
/// array) what its fields/elements are.
#[derive(Clone, Debug)]
struct AbsVal {
    iv: Interval,
    ty: Option<Ty>,
    unit: Unit,
    origin: Option<String>,
    sty: Option<String>,
    arr: Option<FieldTy>,
    is_self: bool,
}

impl AbsVal {
    fn top() -> AbsVal {
        AbsVal {
            iv: TOP,
            ty: None,
            unit: Unit::Opaque,
            origin: None,
            sty: None,
            arr: None,
            is_self: false,
        }
    }

    fn of_ty(ty: Ty) -> AbsVal {
        AbsVal {
            iv: Interval::top_of(ty),
            ty: Some(ty),
            ..AbsVal::top()
        }
    }

    /// The top value of a declared type: primitives get their interval
    /// top, named structs keep the name for field/method resolution,
    /// arrays keep their element type.
    fn of_field(fty: &FieldTy) -> AbsVal {
        match fty {
            FieldTy::Prim(t) => AbsVal::of_ty(*t),
            FieldTy::Named(s) => AbsVal {
                sty: Some(s.clone()),
                ..AbsVal::top()
            },
            FieldTy::Array(e) => AbsVal {
                arr: Some((**e).clone()),
                ..AbsVal::top()
            },
        }
    }

    fn exact(v: u128, ty: Option<Ty>) -> AbsVal {
        AbsVal {
            iv: Interval::exact(v),
            ty,
            ..AbsVal::top()
        }
    }

    fn join(&self, o: &AbsVal) -> AbsVal {
        AbsVal {
            iv: self.iv.join(&o.iv),
            ty: if self.ty == o.ty { self.ty } else { None },
            unit: self.unit.join(o.unit),
            origin: self.origin.clone().or_else(|| o.origin.clone()),
            sty: if self.sty == o.sty {
                self.sty.clone()
            } else {
                None
            },
            arr: if self.arr == o.arr {
                self.arr.clone()
            } else {
                None
            },
            is_self: false,
        }
    }
}

/// An abstract environment: variable (and `self.field` pseudo-variable)
/// bindings, plus a deadness flag for refined-to-infeasible paths.
#[derive(Clone, Debug, Default)]
struct Env {
    vars: BTreeMap<String, AbsVal>,
    dead: bool,
}

/// Join at a control-flow merge. Dead branches drop out; only
/// variables live on both sides survive (a variable declared in one
/// branch is out of scope after it).
fn join_env(a: &Env, b: &Env) -> Env {
    if a.dead {
        return b.clone();
    }
    if b.dead {
        return a.clone();
    }
    let mut vars = BTreeMap::new();
    for (k, va) in &a.vars {
        if let Some(vb) = b.vars.get(k) {
            vars.insert(k.clone(), va.join(vb));
        }
    }
    Env { vars, dead: false }
}

/// Widen `head` toward `next`; returns the widened env and whether
/// anything changed (fixpoint detection ignores origins, which differ
/// per iteration). Widened variables get `origin` so witness chains
/// can say "from loop at file:line".
fn widen_env(head: &Env, next: &Env, origin: &str) -> (Env, bool) {
    if head.dead {
        return (next.clone(), !next.dead);
    }
    if next.dead {
        return (head.clone(), false);
    }
    let mut changed = false;
    let mut vars = BTreeMap::new();
    for (k, vh) in &head.vars {
        let Some(vn) = next.vars.get(k) else {
            changed = true;
            continue;
        };
        let iv = vh.iv.widen(&vn.iv);
        let mut v = vh.clone();
        if iv != vh.iv {
            changed = true;
            v.origin = Some(origin.to_string());
        }
        if vh.ty != vn.ty {
            v.ty = None;
        }
        v.unit = vh.unit.join(vn.unit);
        v.iv = iv;
        vars.insert(k.clone(), v);
    }
    (Env { vars, dead: false }, changed)
}

/// Break/continue environments of the innermost loop being walked.
#[derive(Default)]
struct LoopCtx {
    brk: Vec<Env>,
    cont: Vec<Env>,
}

// ----------------------------------------------------------- tokens

/// The token at position `i` of a comment-free view.
fn at<'a>(t: &[CodeTok<'a>], i: usize) -> Option<&'a Token> {
    t.get(i).map(|&(_, x)| x)
}

/// Parses an integer literal's spelling into (value, suffix type).
fn parse_int(text: &str) -> Option<(u128, Option<Ty>)> {
    let (body, ty) = match int_suffix(text) {
        Some(s) => (text.strip_suffix(s).unwrap_or(text), Ty::parse(s)),
        None => (text, None),
    };
    let clean: String = body.chars().filter(|c| *c != '_').collect();
    let (digits, radix) = if let Some(h) = clean.strip_prefix("0x") {
        (h, 16)
    } else if let Some(o) = clean.strip_prefix("0o") {
        (o, 8)
    } else if let Some(b) = clean.strip_prefix("0b") {
        (b, 2)
    } else {
        (clean.as_str(), 10)
    };
    u128::from_str_radix(digits, radix).ok().map(|v| (v, ty))
}

/// Parses a type spelling starting at `i`. Generic and trait-object
/// types return `None` (unmodelled).
fn parse_field_ty(t: &[CodeTok<'_>], i: usize, end: usize) -> Option<FieldTy> {
    let mut j = i;
    while at(t, j).is_some_and(|x| x.is_op("&") || x.is_ident("mut") || x.kind == TokKind::Lifetime)
    {
        j += 1;
    }
    if at(t, j).is_some_and(|x| x.is_op("[")) {
        return parse_field_ty(t, j + 1, end).map(|e| FieldTy::Array(Box::new(e)));
    }
    // The last segment of an `a::b::Name` path.
    let mut last: Option<String> = None;
    while let Some(tok) = at(t, j).filter(|x| j < end && x.kind == TokKind::Ident) {
        last = Some(tok.text.clone());
        j += 1;
        if !at(t, j).is_some_and(|x| x.is_op("::")) {
            break;
        }
        j += 1;
    }
    let name = last?;
    if at(t, j).is_some_and(|x| x.is_op("<")) && matches!(name.as_str(), "Option" | "Box") {
        // Transparent wrappers: `Option<Box<Node>>` reads as `Node`,
        // matching the `Some`/`Ok`-identity value model.
        return parse_field_ty(t, j + 1, end);
    }
    match Ty::parse(&name) {
        Some(p) => Some(FieldTy::Prim(p)),
        None => Some(FieldTy::Named(name)),
    }
}

/// The type a declared span `[start, end)` (original token indices, as
/// [`crate::symbols`] records them) spells, in `view`.
fn span_ty(view: &[CodeTok<'_>], (start, end): (usize, usize)) -> Option<FieldTy> {
    let ty = span(view, start, end);
    parse_field_ty(ty, 0, ty.len())
}

/// The fixed bounds of the `addr::cast::checked_*` helper family:
/// entry assumption for the helper's own body, proof obligation at
/// every call site (assume–guarantee; all non-test callers are inside
/// R002's scope, which is what makes the assumption sound).
fn helper_bound(name: &str) -> Option<(u128, Ty)> {
    match name {
        "checked_u8" => Some((0xff, Ty::U8)),
        "checked_u16" | "checked_seg" => Some((0xffff, Ty::U16)),
        "checked_u32" => Some((u32::MAX as u128, Ty::U32)),
        "checked_usize" => Some((u64::MAX as u128, Ty::Usize)),
        "checked_nybble" => Some((0xf, Ty::U8)),
        _ => None,
    }
}

/// Parses `assumed_fields = ["Prefix.len <= 128", …]` from
/// `[rules.R002]`: trusted field ranges, anchored by the constructor
/// asserts that R002 itself checks at every struct-literal write.
fn parse_assumed(cfg: &Config) -> BTreeMap<(String, String), u128> {
    let mut out = BTreeMap::new();
    for raw in cfg.list("rules.R002", "assumed_fields") {
        let Some((lhs, rhs)) = raw.split_once("<=") else {
            continue;
        };
        let Some((ty, field)) = lhs.trim().split_once('.') else {
            continue;
        };
        if let Ok(max) = rhs.trim().parse::<u128>() {
            out.insert((ty.trim().to_string(), field.trim().to_string()), max);
        }
    }
    out
}

/// Runs the dataflow over every non-test function in R002's configured
/// scope and returns findings plus proven-site sets.
pub fn analyze(ws: &Workspace<'_>, cfg: &Config) -> DataflowResult {
    let mut a = Analyzer::new(ws, cfg);
    let scope: Vec<usize> = ws
        .symbols
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.body.is_some()
                && !f.is_test
                && ws
                    .files
                    .get(f.file)
                    .is_some_and(|file| cfg.rule_applies("R002", &file.rel))
        })
        .map(|(i, _)| i)
        .collect();
    a.stats.fns_analyzed = scope.len();
    for pass in 0..3 {
        a.stats.passes += 1;
        a.collect = pass == 2;
        if pass > 0 {
            a.narrow_private_entries();
        }
        for &fid in &scope {
            a.summaries[fid] = a.walk_fn(fid);
        }
    }
    a.stats.summaries = a.summaries.iter().filter(|s| s.is_some()).count();
    DataflowResult {
        findings: a.findings,
        stats: a.stats,
        proven_casts: a.proven_casts,
        unproven_casts: a.unproven_casts,
        proven_arith: a.proven_arith,
        unproven_arith: a.unproven_arith,
    }
}

/// R002 as a registered semantic rule (for `--list-rules` and direct
/// rule-level tests). The engine itself calls [`analyze`] once so it
/// can also use the proven sets for discharging.
pub struct BitDomain;

impl SemanticRule for BitDomain {
    fn id(&self) -> &'static str {
        "R002"
    }
    fn name(&self) -> &'static str {
        "bit-domain-safety"
    }
    fn describe(&self) -> &'static str {
        "interval+unit dataflow must prove shift amounts, prefix/nybble/segment ranges, and checked_* arguments on all non-test paths"
    }
    fn check(&self, ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        out.extend(analyze(ws, cfg).findings);
    }
}

/// Depth bound for expression recursion: past this the walker returns
/// top rather than risking the stack (L001 territory otherwise).
const MAX_DEPTH: usize = 64;
/// Loop fixpoint iteration cap; widening converges far earlier, this is
/// the belt-and-suspenders bound.
const MAX_LOOP_ITERS: usize = 24;

/// Greatest lower bound of two intervals; never empty in practice
/// (callers only meet a value with a range it was declared to inhabit),
/// and a disjoint meet falls back to the hull rather than bottom.
fn meet(a: &Interval, b: &Interval) -> Interval {
    Interval::new(a.lo.max(b.lo), a.hi.min(b.hi))
}

/// How a loop's body entry and exit are derived.
enum LoopKind {
    /// `for var in <range or iterator>` — `var` rebound each iteration.
    For { var: Option<String>, val: AbsVal },
    /// `while cond` — body entry refines `cond` true, exit refines it
    /// false; `cond` is the token span of the condition.
    While { cond: (usize, usize) },
    /// `while let PAT = expr` — bindings rebound each iteration.
    WhileLet {
        binds: Vec<String>,
        scrut: (usize, usize),
    },
    /// `loop { … }` — exits only through `break`.
    Plain,
}

struct Analyzer<'a> {
    files: &'a [ScannedFile],
    views: &'a [Vec<CodeTok<'a>>],
    table: &'a SymbolTable,
    ann: Annotations,
    structs: BTreeMap<String, BTreeMap<String, FieldTy>>,
    /// Single-payload tuple-variant types, keyed `Enum::Variant`.
    variants: BTreeMap<String, FieldTy>,
    assumed: BTreeMap<(String, String), u128>,
    /// `(file index, opening-paren original token index)` → workspace
    /// callees, from the call graph.
    call_map: BTreeMap<(usize, usize), Vec<usize>>,
    ret_prim: Vec<Option<Ty>>,
    /// Struct-table-resolved named return types (`-> &Node`): calls to
    /// these functions yield values usable as typed receivers.
    ret_named: Vec<Option<String>>,
    /// Entry values derived from declared types + annotations alone.
    base_entry: Vec<Vec<AbsVal>>,
    /// Entry values for the current pass (narrowed for private fns).
    entry: Vec<Vec<AbsVal>>,
    /// Join of every argument interval observed at call sites.
    observed: Vec<Vec<Option<Interval>>>,
    /// Witness-origin chain for the observed arguments.
    observed_origin: Vec<Vec<Option<String>>>,
    summaries: Vec<Option<Interval>>,
    cur_file: usize,
    cur_rel: String,
    cur_self: Option<String>,
    loops: Vec<LoopCtx>,
    ret_acc: Option<Interval>,
    depth: usize,
    collect: bool,
    findings: Vec<Diagnostic>,
    seen: BTreeSet<(String, usize, String)>,
    proven_casts: BTreeSet<(String, usize, String)>,
    unproven_casts: BTreeSet<(String, usize, String)>,
    proven_arith: BTreeSet<(String, usize, String)>,
    unproven_arith: BTreeSet<(String, usize, String)>,
    stats: DataflowStats,
}

impl<'a> Analyzer<'a> {
    fn new(ws: &'a Workspace<'a>, cfg: &Config) -> Analyzer<'a> {
        let files = ws.files;
        let views = ws.views.as_slice();
        let table = ws.symbols;
        let ann = Annotations::from_config(cfg);
        let view_of = |file: usize| views.get(file).map_or(&[][..], Vec::as_slice);
        // The symbol table's field records, typed; a later declaration
        // of the same name wins.
        let mut structs = BTreeMap::new();
        for rec in &table.structs {
            let typed = rec.fields.iter().filter_map(|f| {
                let ty = span_ty(view_of(rec.file), f.ty)?;
                Some((f.name.clone(), ty))
            });
            structs.insert(rec.name.clone(), typed.collect());
        }
        // Single-payload tuple variants, keyed `Enum::Variant`.
        let mut variants = BTreeMap::new();
        for rec in &table.variants {
            if let [payload] = rec.fields.as_slice() {
                if let Some(ty) = span_ty(view_of(rec.file), payload.ty) {
                    variants.insert(rec.name.clone(), ty);
                }
            }
        }
        let assumed = parse_assumed(cfg);
        let mut call_map = BTreeMap::new();
        for (fid, f) in table.fns.iter().enumerate() {
            for c in ws.calls_of(fid) {
                if !c.callees.is_empty() {
                    call_map.insert((f.file, c.paren), c.callees.clone());
                }
            }
        }
        let n = table.fns.len();
        let mut base_entry = Vec::with_capacity(n);
        let mut ret_prim = Vec::with_capacity(n);
        let mut ret_named = Vec::with_capacity(n);
        for f in &table.fns {
            let view = view_of(f.file);
            let mut row = Vec::with_capacity(f.params.len());
            for (pidx, p) in f.params.iter().enumerate() {
                let ty = match p.name.as_str() {
                    "self" => f.self_ty.clone().map(FieldTy::Named),
                    _ => span_ty(view, p.ty),
                };
                let mut v = ty.as_ref().map_or_else(AbsVal::top, AbsVal::of_field);
                v.is_self = p.name == "self";
                if let Some(u) = ann.param_unit(f.self_ty.as_deref(), &f.name, &p.name) {
                    v.iv = meet(&v.iv, &u.range());
                    v.unit = u;
                }
                // The checked_* helpers' own bodies assume the bound
                // R002 proves at every call site (assume–guarantee).
                if pidx == 0 && p.name != "self" {
                    if let Some((bound, _)) = helper_bound(&f.name) {
                        v.iv = meet(&v.iv, &Interval::new(0, bound));
                    }
                }
                v.origin = Some(format!("parameter `{}` of `{}`", p.name, f.name));
                row.push(v);
            }
            base_entry.push(row);
            // Declared return type: primitives clamp summaries; named
            // structs (`-> &Node`) let call results carry a receiver
            // type so field and method lookups resolve through the
            // struct table.
            let r = f.ret.and_then(|ret| span_ty(view, ret));
            ret_prim.push(match &r {
                Some(FieldTy::Prim(t)) => Some(*t),
                _ => None,
            });
            // Only names the struct table can resolve: `impl Trait`,
            // generics, and collection types stay top.
            ret_named.push(match &r {
                Some(FieldTy::Named(s)) if structs.contains_key(s) => Some(s.clone()),
                _ => None,
            });
        }
        Analyzer {
            files,
            views,
            table,
            ann,
            structs,
            variants,
            assumed,
            call_map,
            entry: base_entry.clone(),
            base_entry,
            observed: table
                .fns
                .iter()
                .map(|f| vec![None; f.params.len()])
                .collect(),
            observed_origin: table
                .fns
                .iter()
                .map(|f| vec![None; f.params.len()])
                .collect(),
            ret_prim,
            ret_named,
            summaries: vec![None; n],
            cur_file: 0,
            cur_rel: String::new(),
            cur_self: None,
            loops: Vec::new(),
            ret_acc: None,
            depth: 0,
            collect: false,
            findings: Vec::new(),
            seen: BTreeSet::new(),
            proven_casts: BTreeSet::new(),
            unproven_casts: BTreeSet::new(),
            proven_arith: BTreeSet::new(),
            unproven_arith: BTreeSet::new(),
            stats: DataflowStats::default(),
        }
    }

    /// Between passes: narrow each *private* function's entry to the
    /// join of the arguments observed at its call sites (sound because
    /// every non-test caller of a private function is in the analyzed
    /// set), then reset the observation tables for re-recording.
    /// `pub` functions keep their declared-type entries — callers
    /// outside the workspace are invisible.
    fn narrow_private_entries(&mut self) {
        for (fid, f) in self.table.fns.iter().enumerate() {
            let Some(base) = self.base_entry.get(fid) else {
                continue;
            };
            let obs_row = self.observed.get(fid).cloned().unwrap_or_default();
            let org_row = self.observed_origin.get(fid).cloned().unwrap_or_default();
            let mut row = base.clone();
            if !f.is_pub {
                for (pidx, slot) in row.iter_mut().enumerate() {
                    if let Some(Some(obs)) = obs_row.get(pidx) {
                        slot.iv = meet(&slot.iv, obs);
                        if let Some(Some(org)) = org_row.get(pidx) {
                            slot.origin = Some(org.clone());
                        }
                    }
                }
            }
            if let Some(e) = self.entry.get_mut(fid) {
                *e = row;
            }
        }
        for row in &mut self.observed {
            for slot in row.iter_mut() {
                *slot = None;
            }
        }
        for row in &mut self.observed_origin {
            for slot in row.iter_mut() {
                *slot = None;
            }
        }
    }

    /// The abstract value of a struct field read, intersected with any
    /// `assumed_fields` bound from `lint.toml`.
    fn field_val(&self, sname: &str, fname: &str, fty: &FieldTy) -> AbsVal {
        let mut v = AbsVal::of_field(fty);
        if let Some(max) = self.assumed.get(&(sname.to_string(), fname.to_string())) {
            v.iv = meet(&v.iv, &Interval::new(0, *max));
            v.origin = Some(format!("field `{sname}.{fname}` (assumed ≤ {max})"));
        }
        v
    }

    /// Walks one function body and returns its return-range summary.
    fn walk_fn(&mut self, fid: usize) -> Option<Interval> {
        let (files, views) = (self.files, self.views);
        let f = self.table.fns.get(fid)?;
        let (start, _end) = f.body?;
        let file = files.get(f.file)?;
        let t = views.get(f.file)?.as_slice();
        let open = position(t, start)?;
        self.cur_file = f.file;
        self.cur_rel = file.rel.clone();
        self.cur_self = f.self_ty.clone();
        self.loops.clear();
        self.ret_acc = None;
        self.depth = 0;
        let mut env = Env::default();
        let names: Vec<String> = f.params.iter().map(|p| p.name.clone()).collect();
        let vals: Vec<AbsVal> = self.entry.get(fid).cloned().unwrap_or_default();
        let mut has_self = false;
        for (name, val) in names.iter().zip(vals.iter()) {
            if name == "self" {
                has_self = true;
            }
            if name != "_" {
                env.vars.insert(name.clone(), val.clone());
            }
        }
        if has_self {
            if let Some(sname) = self.cur_self.clone() {
                let fields: Vec<(String, FieldTy)> = self
                    .structs
                    .get(&sname)
                    .into_iter()
                    .flatten()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                for (fname, fty) in fields {
                    let v = self.field_val(&sname, &fname, &fty);
                    env.vars.insert(format!("self.{fname}"), v);
                }
            }
        }
        let (_, tail) = self.walk_block(t, open, &mut env);
        let mut summary = self.ret_acc;
        if !env.dead {
            if let Some(v) = tail {
                summary = Some(match summary {
                    Some(s) => s.join(&v.iv),
                    None => v.iv,
                });
            }
        }
        let ret = self.ret_prim.get(fid).copied().flatten();
        match (summary, ret) {
            (Some(s), Some(ty)) => Some(s.clamp_to(ty)),
            (Some(s), None) => Some(s),
            (None, _) => None,
        }
    }
}

// Statement-level walking.
impl<'a> Analyzer<'a> {
    /// Walks the block whose `{` is at `open`; returns the index just
    /// past the matching `}` and the block's tail-expression value.
    fn walk_block(
        &mut self,
        t: &[CodeTok<'_>],
        open: usize,
        env: &mut Env,
    ) -> (usize, Option<AbsVal>) {
        let close = matching(t, open).unwrap_or(t.len());
        let mut i = open + 1;
        let mut tail: Option<AbsVal> = None;
        while i < close {
            if env.dead {
                break;
            }
            let (ni, v) = self.walk_stmt(t, i, close, env);
            // A value produced by the final statement (no trailing `;`)
            // is the block's tail expression.
            tail = if ni >= close { v } else { None };
            // Guaranteed progress even on unmodelled constructs.
            i = if ni > i { ni } else { i + 1 };
        }
        (close + 1, tail)
    }

    /// Walks one statement starting at `i`; returns the next statement
    /// index and the statement's value when it was an expression.
    fn walk_stmt(
        &mut self,
        t: &[CodeTok<'_>],
        i: usize,
        close: usize,
        env: &mut Env,
    ) -> (usize, Option<AbsVal>) {
        let Some(tok) = at(t, i) else {
            return (close, None);
        };
        match tok.text.as_str() {
            ";" => return (i + 1, None),
            "{" => {
                let (ni, v) = self.walk_block(t, i, env);
                return (ni, v);
            }
            "#" => {
                // Attribute: skip `#[…]` (or `#![…]`).
                let mut j = i + 1;
                if at(t, j).is_some_and(|x| x.is_op("!")) {
                    j += 1;
                }
                if at(t, j).is_some_and(|x| x.is_op("[")) {
                    return (matching(t, j).unwrap_or(close) + 1, None);
                }
                return (i + 1, None);
            }
            _ => {}
        }
        if tok.kind == TokKind::Lifetime {
            // Loop label: `'outer: loop { … }`.
            let mut j = i + 1;
            if at(t, j).is_some_and(|x| x.is_op(":")) {
                j += 1;
            }
            return self.walk_stmt(t, j, close, env);
        }
        if tok.kind == TokKind::Ident {
            match tok.text.as_str() {
                "let" => return (self.walk_let(t, i, close, env), None),
                "if" => return self.walk_if(t, i, close, env),
                "match" => return self.walk_match(t, i, close, env),
                "while" => return (self.walk_while(t, i, close, env), None),
                "for" => return (self.walk_for(t, i, close, env), None),
                "loop" => return (self.walk_plain_loop(t, i, close, env), None),
                "unsafe" => {
                    let j = i + 1;
                    if at(t, j).is_some_and(|x| x.is_op("{")) {
                        let (ni, v) = self.walk_block(t, j, env);
                        return (ni, v);
                    }
                    return (j, None);
                }
                "return" => {
                    let semi = find_top(t, i + 1, close, |x| x.is_op(";")).unwrap_or(close);
                    if i + 1 < semi {
                        let v = self.eval_expr(t, i + 1, semi, env);
                        self.note_return(&v);
                    }
                    env.dead = true;
                    return (semi + 1, None);
                }
                "break" | "continue" => {
                    let is_break = tok.text == "break";
                    let semi = find_top(t, i + 1, close, |x| x.is_op(";")).unwrap_or(close);
                    // `break value` / `break 'label` — evaluate any value
                    // for its obligations, labels are skipped.
                    let j = i + 1;
                    if j < semi && !at(t, j).is_some_and(|x| x.kind == TokKind::Lifetime) {
                        let _ = self.eval_expr(t, j, semi, env);
                    }
                    let snapshot = env.clone();
                    if let Some(ctx) = self.loops.last_mut() {
                        if is_break {
                            ctx.brk.push(snapshot);
                        } else {
                            ctx.cont.push(snapshot);
                        }
                    }
                    env.dead = true;
                    return (semi + 1, None);
                }
                // Items nested in a body: skip them wholesale (nested
                // fns are separate symbols and walked on their own).
                "fn" | "struct" | "enum" | "impl" | "trait" | "mod" => {
                    // To the body's closing brace or the terminating
                    // `;`, whichever comes first at depth 0.
                    let end = find_top(t, i, close, |x| x.is_op("{") || x.is_op(";"));
                    let next = match end {
                        Some(b) if at(t, b).is_some_and(|x| x.is_op("{")) => {
                            matching(t, b).unwrap_or(close) + 1
                        }
                        Some(semi) => semi + 1,
                        None => close,
                    };
                    return (next, None);
                }
                "use" | "type" | "static" | "const" => {
                    let semi = find_top(t, i + 1, close, |x| x.is_op(";")).unwrap_or(close);
                    return (semi + 1, None);
                }
                "assert" | "debug_assert" | "assert_eq" | "assert_ne" | "debug_assert_eq"
                | "debug_assert_ne"
                    if at(t, i + 1).is_some_and(|x| x.is_op("!")) =>
                {
                    return (self.walk_assert(t, i, close, env), None);
                }
                _ => {}
            }
        }
        // Assignment to a tracked place?
        if let Some(ni) = self.try_assign(t, i, close, env) {
            return (ni, None);
        }
        // Plain expression statement.
        let semi = find_top(t, i, close, |x| x.is_op(";")).unwrap_or(close);
        let v = self.eval_expr(t, i, semi, env);
        if semi >= close {
            return (close, Some(v));
        }
        (semi + 1, None)
    }

    fn note_return(&mut self, v: &AbsVal) {
        self.ret_acc = Some(match self.ret_acc {
            Some(acc) => acc.join(&v.iv),
            None => v.iv,
        });
    }

    /// `let` statement, including `let … : ty = …`, tuple patterns,
    /// constructor patterns, and diverging `let … else { … }`.
    fn walk_let(&mut self, t: &[CodeTok<'_>], i: usize, close: usize, env: &mut Env) -> usize {
        let semi = find_top(t, i + 1, close, |x| x.is_op(";")).unwrap_or(close);
        let Some(eq) = find_top(t, i + 1, semi, |x| x.is_op("=")) else {
            // `let x;` — declared, not initialized: unmodelled.
            return semi + 1;
        };
        // Pattern and optional declared type between `let` and `=`.
        let colon = find_top(t, i + 1, eq, |x| x.is_op(":"));
        let pat_end = colon.unwrap_or(eq);
        let decl_ty = colon.and_then(|c| parse_field_ty(t, c + 1, eq));
        // Diverging `let PAT = expr else { … };`. An `else` preceded by
        // `}` belongs to an `if`/`else` chain in the initializer (Rust
        // forbids brace-ending initializers in let-else), not to us.
        let else_kw = find_top(t, eq + 1, semi, |x| x.is_ident("else")).filter(|&ek| {
            let prev = ek.saturating_sub(1).max(eq + 1);
            !at(t, prev).is_some_and(|x| x.is_op("}"))
        });
        let rhs_end = else_kw.unwrap_or(semi);
        let mut val = self.eval_expr(t, eq + 1, rhs_end, env);
        if let Some(ek) = else_kw {
            let b = ek + 1;
            if at(t, b).is_some_and(|x| x.is_op("{")) {
                // The else block diverges; nothing it does flows on.
                let mut scratch = env.clone();
                let _ = self.walk_block(t, b, &mut scratch);
            }
        }
        if let Some(FieldTy::Prim(ty)) = decl_ty {
            val.iv = val.iv.clamp_to(ty);
            val.ty = Some(ty);
        } else if let Some(FieldTy::Named(s)) = &decl_ty {
            if val.sty.is_none() {
                val.sty = Some(s.clone());
            }
        } else if let Some(FieldTy::Array(elem)) = decl_ty {
            if val.arr.is_none() {
                val.arr = Some(*elem);
            }
        }
        self.bind_pattern(t, i + 1, pat_end, &val, env);
        semi + 1
    }

    /// Binds the identifiers of a pattern span. A single binding gets
    /// the scrutinee's value (this makes `Some(x)` / `Ok(x)` work with
    /// the identity model of `Some`/`Ok`); multiple bindings each get
    /// top.
    fn bind_pattern(
        &mut self,
        t: &[CodeTok<'_>],
        lo: usize,
        hi: usize,
        val: &AbsVal,
        env: &mut Env,
    ) {
        let binding =
            |x: &Token| x.kind == TokKind::Ident && !matches!(x.text.as_str(), "mut" | "ref" | "_");
        // A slice/array pattern over a known-element array binds every
        // identifier to the element type (`let [m0, m1, …] = self.0`).
        if let (true, Some(elem)) = (at(t, lo).is_some_and(|x| x.is_op("[")), &val.arr) {
            let close = matching(t, lo).unwrap_or(hi);
            for &(_, x) in t.iter().take(close).skip(lo + 1) {
                if binding(x) {
                    env.vars.insert(x.text.clone(), AbsVal::of_field(elem));
                }
            }
            return;
        }
        let names: Vec<String> = (lo..hi)
            .filter_map(|j| {
                let x = at(t, j)?;
                let lower = x
                    .text
                    .starts_with(|c: char| c.is_ascii_lowercase() || c == '_');
                // Not a path segment of a constructor (`mod::Variant`).
                let segment = at(t, j + 1).is_some_and(|n| n.is_op("::"));
                (binding(x) && lower && !segment).then(|| x.text.clone())
            })
            .collect();
        let [name] = names.as_slice() else {
            for name in names {
                env.vars.insert(name, AbsVal::top());
            }
            return;
        };
        // A recorded `Enum::Variant(pat)` constructor types the binding
        // from the declared payload (the scrutinee's own value is the
        // enum, not the payload, so identity would be wrong there
        // anyway). `Some`/`Ok` have no `::` path and keep the identity
        // model.
        let ctor = (lo..hi).find_map(|k| match (at(t, k), at(t, k + 1), at(t, k + 2)) {
            (Some(a), Some(c), Some(b))
                if a.kind == TokKind::Ident
                    && c.is_op("::")
                    && b.kind == TokKind::Ident
                    && at(t, k + 3).is_some_and(|p| p.is_op("(")) =>
            {
                Some(format!("{}::{}", a.text, b.text))
            }
            _ => None,
        });
        let bound = match ctor.and_then(|key| self.variants.get(&key)) {
            Some(p) => AbsVal::of_field(p),
            None => val.clone(),
        };
        env.vars.insert(name.clone(), bound);
    }

    /// Detects and handles `place = expr` / `place op= expr`; returns
    /// the next statement index on a hit.
    fn try_assign(
        &mut self,
        t: &[CodeTok<'_>],
        i: usize,
        close: usize,
        env: &mut Env,
    ) -> Option<usize> {
        let mut j = i;
        while at(t, j).is_some_and(|x| x.is_op("*")) {
            j += 1;
        }
        let first = at(t, j)?;
        if first.kind != TokKind::Ident {
            return None;
        }
        let base = first.text.clone();
        if matches!(
            base.as_str(),
            "if" | "match" | "while" | "for" | "loop" | "return" | "break" | "continue"
        ) {
            return None;
        }
        j += 1;
        // Optional `.field` / `.0` / `[index]` suffixes.
        let mut field: Option<String> = None;
        let mut extended = false;
        loop {
            if at(t, j).is_some_and(|x| x.is_op(".")) {
                let f = j + 1;
                match at(t, f) {
                    Some(x) if x.kind == TokKind::Ident || x.kind == TokKind::Int => {
                        if field.is_none() && !extended {
                            field = Some(x.text.clone());
                        } else {
                            extended = true;
                        }
                        // A `(` after the field means a method call, not
                        // a place.
                        let after = f + 1;
                        if at(t, after).is_some_and(|x| x.is_op("(")) {
                            return None;
                        }
                        j = after;
                        continue;
                    }
                    _ => return None,
                }
            }
            if at(t, j).is_some_and(|x| x.is_op("[")) {
                let c = matching(t, j).unwrap_or(close);
                // Evaluate the index for its obligations.
                let _ = self.eval_expr(t, j + 1, c, env);
                extended = true;
                j = c + 1;
                continue;
            }
            break;
        }
        let op = at(t, j)?;
        let ops = op.text.as_str();
        if op.kind != TokKind::Op
            || !matches!(
                ops,
                "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>="
            )
        {
            return None;
        }
        let semi = find_top(t, j + 1, close, |x| x.is_op(";")).unwrap_or(close);
        let rhs_start = j + 1;
        let rhs = self.eval_expr(t, j + 1, semi, env);
        let literal_rhs =
            at(t, rhs_start).is_some_and(|x| x.kind == TokKind::Int) && rhs_start + 1 >= semi;
        // The tracked key: a bare local or a `self.field` pseudo-var.
        let key = if base == "self" {
            field
                .as_ref()
                .filter(|_| !extended)
                .map(|f| format!("self.{f}"))
        } else if field.is_none() && !extended {
            Some(base.clone())
        } else {
            None
        };
        let old = key.as_ref().and_then(|k| env.vars.get(k)).cloned();
        let line = op.line;
        let new_val = match ops {
            "=" => {
                let mut v = rhs.clone();
                if let Some(o) = &old {
                    if let Some(ty) = o.ty {
                        v.iv = v.iv.clamp_to(ty);
                        v.ty = Some(ty);
                    }
                }
                Some(v)
            }
            _ => {
                let o = old.clone().unwrap_or_else(AbsVal::top);
                let base_op = ops.strip_suffix('=').unwrap_or(ops);
                Some(self.apply_binop(ops, base_op, &o, &rhs, line, literal_rhs, env))
            }
        };
        if let (Some(k), Some(v)) = (key, new_val) {
            env.vars.insert(k, v);
        }
        Some(semi + 1)
    }

    /// `assert!`-family macros: evaluate the arguments once, then fold
    /// the asserted condition into the environment (an assert that
    /// fails diverges, so past it the condition holds — this is how
    /// `debug_assert!(v <= 0xff)` feeds the cast proofs).
    fn walk_assert(&mut self, t: &[CodeTok<'_>], i: usize, close: usize, env: &mut Env) -> usize {
        let Some(name) = at(t, i).map(|x| x.text.clone()) else {
            return i + 1;
        };
        let open = i + 2; // past the `!`
        if !at(t, open).is_some_and(|x| x.is_op("(")) {
            return open;
        }
        let c = matching(t, open).unwrap_or(close.max(open));
        let args = split_top(t, open + 1, c, ",", false);
        for (s, e) in &args {
            let _ = self.eval_expr(t, *s, *e, env);
        }
        match name.as_str() {
            "assert" | "debug_assert" => {
                if let Some((s, e)) = args.first() {
                    *env = self.refine_cond(t, *s, *e, env, true);
                }
            }
            "assert_eq" | "debug_assert_eq" | "assert_ne" | "debug_assert_ne" => {
                if let (Some((ls, le)), Some((rs, re))) = (args.first(), args.get(1)) {
                    let mut scratch = env.clone();
                    let lv = self.quiet_eval(t, *ls, *le, &mut scratch);
                    let rv = self.quiet_eval(t, *rs, *re, &mut scratch);
                    let eq = name.ends_with("_eq");
                    self.refine_place(t, *ls, *le, if eq { "==" } else { "!=" }, &rv.iv, env);
                    self.refine_place(t, *rs, *re, if eq { "==" } else { "!=" }, &lv.iv, env);
                }
            }
            _ => {}
        }
        let semi = find_top(t, c, close, |x| x.is_op(";")).unwrap_or(close);
        semi + 1
    }
}

// Control flow: branches, matches, loops, refinement.
impl<'a> Analyzer<'a> {
    /// Evaluates a span with finding collection off — used when a
    /// condition or assert argument has already been evaluated once and
    /// re-walking it must not duplicate obligations.
    fn quiet_eval(&mut self, t: &[CodeTok<'_>], lo: usize, hi: usize, env: &mut Env) -> AbsVal {
        let saved = self.collect;
        self.collect = false;
        let v = self.eval_expr(t, lo, hi, env);
        self.collect = saved;
        v
    }

    /// `if` expression/statement; returns (next index, value).
    fn walk_if(
        &mut self,
        t: &[CodeTok<'_>],
        i: usize,
        close: usize,
        env: &mut Env,
    ) -> (usize, Option<AbsVal>) {
        let cond_start = i + 1;
        let Some(brace) = find_top(t, cond_start, close, |x| x.is_op("{")) else {
            return (close, None);
        };
        let (mut then_env, else_base) = if at(t, cond_start).is_some_and(|x| x.is_ident("let")) {
            // `if let PAT = expr { … }`: bind, no range refinement.
            let eq = find_top(t, cond_start + 1, brace, |x| x.is_op("="));
            let mut te = env.clone();
            if let Some(eq) = eq {
                let val = self.eval_expr(t, eq + 1, brace, env);
                self.bind_pattern(t, cond_start + 1, eq, &val, &mut te);
            }
            (te, env.clone())
        } else {
            // Evaluate once for obligations, then refine both ways.
            let _ = self.eval_expr(t, cond_start, brace, env);
            (
                self.refine_cond(t, cond_start, brace, env, true),
                self.refine_cond(t, cond_start, brace, env, false),
            )
        };
        let (after_then, then_val) = self.walk_block(t, brace, &mut then_env);
        let mut else_env = else_base;
        let mut else_val: Option<AbsVal> = None;
        let mut next = after_then;
        if at(t, after_then).is_some_and(|x| x.is_ident("else")) {
            let b = after_then + 1;
            if at(t, b).is_some_and(|x| x.is_ident("if")) {
                let (ni, v) = self.walk_if(t, b, close, &mut else_env);
                next = ni;
                else_val = v;
            } else if at(t, b).is_some_and(|x| x.is_op("{")) {
                let (ni, v) = self.walk_block(t, b, &mut else_env);
                next = ni;
                else_val = v;
            }
        }
        *env = join_env(&then_env, &else_env);
        let val = match (then_val, else_val) {
            (Some(a), Some(b)) => Some(a.join(&b)),
            (Some(a), None) if else_env.dead => Some(a),
            (None, Some(b)) if then_env.dead => Some(b),
            _ => None,
        };
        (next, val)
    }

    /// `match` expression; refines the scrutinee per arm for literal
    /// and range patterns, binds single-identifier constructor
    /// patterns, joins the non-dead arm environments.
    fn walk_match(
        &mut self,
        t: &[CodeTok<'_>],
        i: usize,
        close: usize,
        env: &mut Env,
    ) -> (usize, Option<AbsVal>) {
        let scrut_start = i + 1;
        let Some(brace) = find_top(t, scrut_start, close, |x| x.is_op("{")) else {
            return (close, None);
        };
        let scrut = self.eval_expr(t, scrut_start, brace, env);
        let mclose = matching(t, brace).unwrap_or(close.max(brace));
        let mut out: Option<Env> = None;
        let mut val: Option<AbsVal> = None;
        let mut j = brace + 1;
        while j < mclose {
            let Some(arrow) = find_top(t, j, mclose, |x| x.is_op("=>")) else {
                break;
            };
            // Split an optional `if` guard off the pattern.
            let guard = find_top(t, j, arrow, |x| x.is_ident("if"));
            let pat_end = guard.unwrap_or(arrow);
            let mut arm = env.clone();
            self.apply_arm_pattern(t, j, pat_end, scrut_start, brace, &scrut, &mut arm);
            if let Some(g) = guard {
                let _ = self.quiet_eval(t, g + 1, arrow, &mut arm.clone());
                arm = self.refine_cond(t, g + 1, arrow, &arm, true);
            }
            // Arm body: a block, or an expression up to the top `,`.
            let body = arrow + 1;
            let arm_end;
            let v = if at(t, body).is_some_and(|x| x.is_op("{")) {
                let (ni, bv) = self.walk_block(t, body, &mut arm);
                arm_end = ni;
                bv
            } else {
                let comma = find_top(t, body, mclose, |x| x.is_op(",")).unwrap_or(mclose);
                let bv = self.eval_expr(t, body, comma, &mut arm);
                arm_end = comma;
                if arm.dead {
                    None
                } else {
                    Some(bv)
                }
            };
            if !arm.dead {
                out = Some(match out {
                    Some(o) => join_env(&o, &arm),
                    None => arm,
                });
                val = match (val, v) {
                    (Some(a), Some(b)) => Some(a.join(&b)),
                    (None, b) => b,
                    (a, None) => a,
                };
            }
            j = arm_end;
            if at(t, j).is_some_and(|x| x.is_op(",")) {
                j += 1;
            }
        }
        *env = out.unwrap_or_else(|| {
            let mut e = env.clone();
            e.dead = true;
            e
        });
        (mclose + 1, val)
    }

    /// Applies one match-arm pattern: refine on integer/range literals
    /// (including `|` alternatives), bind identifiers.
    #[allow(clippy::too_many_arguments)]
    fn apply_arm_pattern(
        &mut self,
        t: &[CodeTok<'_>],
        lo: usize,
        hi: usize,
        scrut_lo: usize,
        scrut_hi: usize,
        scrut: &AbsVal,
        env: &mut Env,
    ) {
        // `|` alternatives: the arm env is the join of per-alternative
        // refinements.
        let alts = split_top(t, lo, hi, "|", false);
        if alts.len() > 1 {
            let mut joined: Option<Env> = None;
            for (s, e) in alts {
                let mut one = env.clone();
                self.apply_arm_pattern(t, s, e, scrut_lo, scrut_hi, scrut, &mut one);
                if !one.dead {
                    joined = Some(match joined {
                        Some(o) => join_env(&o, &one),
                        None => one,
                    });
                }
            }
            if let Some(o) = joined {
                *env = o;
            } else {
                env.dead = true;
            }
            return;
        }
        let Some(first) = at(t, lo) else {
            return;
        };
        // Integer literal or literal range: refine the scrutinee place.
        if first.kind == TokKind::Int {
            if let Some((v, _)) = parse_int(&first.text) {
                let range_op = at(t, lo + 1).filter(|x| matches!(x.text.as_str(), ".." | "..="));
                if let Some(op) = range_op {
                    if let Some((hv, _)) = at(t, lo + 2)
                        .filter(|x| x.kind == TokKind::Int)
                        .and_then(|x| parse_int(&x.text))
                    {
                        let hi_inc = if op.text == ".." {
                            hv.saturating_sub(1)
                        } else {
                            hv
                        };
                        let range = Interval::new(v, hi_inc);
                        self.refine_place(t, scrut_lo, scrut_hi, "range", &range, env);
                        return;
                    }
                }
                self.refine_place(t, scrut_lo, scrut_hi, "==", &Interval::exact(v), env);
                // An exact pattern over a scrutinee that cannot hold it
                // is a dead arm.
                if scrut.iv.refine_eq(&Interval::exact(v)).is_none() {
                    env.dead = true;
                }
            }
            return;
        }
        // Identifier patterns: `_`, a binding, or a constructor with
        // bindings inside.
        if first.kind == TokKind::Ident || first.is_op("(") {
            self.bind_pattern(t, lo, hi, scrut, env);
        }
    }

    /// `while` / `while let` loops.
    fn walk_while(&mut self, t: &[CodeTok<'_>], i: usize, close: usize, env: &mut Env) -> usize {
        let cond_start = i + 1;
        let Some(brace) = find_top(t, cond_start, close, |x| x.is_op("{")) else {
            return close;
        };
        let kind = if at(t, cond_start).is_some_and(|x| x.is_ident("let")) {
            let eq = find_top(t, cond_start + 1, brace, |x| x.is_op("="));
            let mut binds = Vec::new();
            if let Some(eq) = eq {
                let mut probe = Env::default();
                self.bind_pattern(t, cond_start + 1, eq, &AbsVal::top(), &mut probe);
                binds = probe.vars.keys().cloned().collect();
                return self.run_loop(
                    t,
                    brace,
                    LoopKind::WhileLet {
                        binds,
                        scrut: (eq + 1, brace),
                    },
                    env,
                );
            }
            let _ = binds;
            LoopKind::Plain
        } else {
            LoopKind::While {
                cond: (cond_start, brace),
            }
        };
        self.run_loop(t, brace, kind, env)
    }

    /// `for PAT in iter` loops: range iterators get a real interval for
    /// the loop variable, anything else binds top.
    fn walk_for(&mut self, t: &[CodeTok<'_>], i: usize, close: usize, env: &mut Env) -> usize {
        let pat_start = i + 1;
        let Some(in_kw) = find_top(t, pat_start, close, |x| x.is_ident("in")) else {
            return close;
        };
        let Some(brace) = find_top(t, in_kw + 1, close, |x| x.is_op("{")) else {
            return close;
        };
        // Single-identifier pattern → tracked var; tuples bind top.
        let var = at(t, pat_start)
            .filter(|x| pat_start + 1 >= in_kw && x.kind == TokKind::Ident && x.text != "_")
            .map(|x| x.text.clone());
        let val = self.eval_for_iter(t, in_kw + 1, brace, env);
        if var.is_none() {
            // Bind every tuple-pattern identifier to top for the body.
            let mut probe = Env::default();
            self.bind_pattern(t, pat_start, in_kw, &AbsVal::top(), &mut probe);
            let mut env2 = env.clone();
            for k in probe.vars.keys() {
                env2.vars.insert(k.clone(), AbsVal::top());
            }
            let ni = self.run_loop(t, brace, LoopKind::For { var: None, val }, &mut env2);
            // Drop the bindings going out of scope.
            env2.vars
                .retain(|k, _| env.vars.contains_key(k) || probe.vars.contains_key(k));
            for k in probe.vars.keys() {
                env2.vars.remove(k);
            }
            *env = env2;
            return ni;
        }
        self.run_loop(t, brace, LoopKind::For { var, val }, env)
    }

    /// The abstract value of a `for`-loop iterator expression:
    /// `lo..hi` / `lo..=hi` ranges produce the hull of the iteration
    /// space; `.rev()` / `.enumerate()` / `.step_by(..)` suffixes are
    /// stripped (they do not grow it); everything else is top (an array
    /// iterator yields its element type's top).
    fn eval_for_iter(&mut self, t: &[CodeTok<'_>], lo: usize, hi: usize, env: &mut Env) -> AbsVal {
        // Strip any fully-enclosing parentheses and trailing
        // `.method(…)` suffixes that keep the range (`(0..32).rev()`).
        let (mut lo, mut end) = (lo, hi);
        loop {
            (lo, end) = trim_parens(t, lo, end);
            let keeps_range = |o: usize| {
                at(t, o - 1).is_some_and(|x| {
                    let kept = [
                        "rev",
                        "enumerate",
                        "step_by",
                        "take",
                        "copied",
                        "cloned",
                        "iter",
                    ];
                    x.kind == TokKind::Ident && kept.contains(&x.text.as_str())
                }) && at(t, o - 2).is_some_and(|x| x.is_op("."))
            };
            let suffix = (end.saturating_sub(1) > lo)
                .then(|| end - 1)
                .filter(|&c| at(t, c).is_some_and(|x| x.is_op(")")))
                .and_then(|c| matching(t, c))
                .filter(|&o| o >= lo + 2 && keeps_range(o));
            match suffix {
                Some(open) => end = open - 2,
                None => break,
            }
        }
        // A top-level `..` / `..=` marks a range literal.
        if let Some(dots) = find_top(t, lo, end, |x| matches!(x.text.as_str(), ".." | "..=")) {
            let inclusive = at(t, dots).is_some_and(|x| x.text == "..=");
            let l = self.eval_expr(t, lo, dots, env);
            let r = self.eval_expr(t, dots + 1, end, env);
            let hi_b = if inclusive {
                r.iv.hi
            } else {
                r.iv.hi.saturating_sub(1)
            };
            return AbsVal {
                iv: Interval::new(l.iv.lo, hi_b.max(l.iv.lo)),
                ty: l.ty.or(r.ty),
                unit: if l.unit == Unit::Opaque {
                    r.unit
                } else {
                    l.unit
                },
                ..AbsVal::top()
            };
        }
        let v = self.eval_expr(t, lo, end, env);
        if let Some(elem) = &v.arr {
            return AbsVal::of_field(elem);
        }
        AbsVal::top()
    }

    /// `loop { … }`.
    fn walk_plain_loop(
        &mut self,
        t: &[CodeTok<'_>],
        i: usize,
        close: usize,
        env: &mut Env,
    ) -> usize {
        let Some(brace) = find_top(t, i + 1, close, |x| x.is_op("{")) else {
            return close;
        };
        self.run_loop(t, brace, LoopKind::Plain, env)
    }

    /// The loop fixpoint: iterate the body under widening with
    /// collection off, then run one collecting pass at the stable head
    /// and compute the exit environment from the loop kind.
    fn run_loop(
        &mut self,
        t: &[CodeTok<'_>],
        brace: usize,
        kind: LoopKind,
        env: &mut Env,
    ) -> usize {
        let close = matching(t, brace).unwrap_or(t.len());
        let line = at(t, brace).map(|x| x.line).unwrap_or(0);
        let origin = format!("loop at {}:{}", self.cur_rel, line);
        let saved = self.collect;
        self.collect = false;
        let mut head = env.clone();
        let mut iters = 0usize;
        loop {
            iters += 1;
            let mut be = self.loop_body_entry(t, &kind, &head, &origin);
            self.loops.push(LoopCtx::default());
            let _ = self.walk_block(t, brace, &mut be);
            let ctx = self.loops.pop().unwrap_or_default();
            for c in &ctx.cont {
                be = join_env(&be, c);
            }
            let next = join_env(env, &be);
            let (w, changed) = widen_env(&head, &next, &origin);
            head = w;
            if !changed || iters >= MAX_LOOP_ITERS {
                break;
            }
        }
        self.collect = saved;
        // One collecting pass at the stable head: this is where body
        // obligations are checked against the widened ranges.
        if let LoopKind::While { cond } = &kind {
            let mut scratch = head.clone();
            let _ = self.eval_expr(t, cond.0, cond.1, &mut scratch);
        }
        let mut be = self.loop_body_entry(t, &kind, &head, &origin);
        self.loops.push(LoopCtx::default());
        let _ = self.walk_block(t, brace, &mut be);
        let ctx = self.loops.pop().unwrap_or_default();
        for c in &ctx.cont {
            be = join_env(&be, c);
        }
        // Exit environment.
        let mut out = match &kind {
            LoopKind::While { cond } => {
                let h = self.refine_cond(t, cond.0, cond.1, &head, false);
                if be.dead {
                    h
                } else {
                    join_env(
                        &h,
                        &Env {
                            dead: false,
                            ..be.clone()
                        },
                    )
                }
            }
            LoopKind::For { .. } | LoopKind::WhileLet { .. } => join_env(env, &be),
            LoopKind::Plain => {
                let mut d = env.clone();
                d.dead = true;
                d
            }
        };
        for b in &ctx.brk {
            out = join_env(&out, b);
        }
        // For/while-let loop variables go out of scope.
        if let LoopKind::For { var: Some(v), .. } = &kind {
            if !env.vars.contains_key(v) {
                out.vars.remove(v);
            }
        }
        *env = out;
        close + 1
    }

    /// The environment the loop body starts each iteration with.
    fn loop_body_entry(
        &mut self,
        t: &[CodeTok<'_>],
        kind: &LoopKind,
        head: &Env,
        origin: &str,
    ) -> Env {
        match kind {
            LoopKind::For { var, val } => {
                let mut e = head.clone();
                if let Some(v) = var {
                    let mut lv = val.clone();
                    if lv.origin.is_none() {
                        lv.origin = Some(origin.to_string());
                    }
                    e.vars.insert(v.clone(), lv);
                }
                e
            }
            LoopKind::While { cond } => self.refine_cond(t, cond.0, cond.1, head, true),
            LoopKind::WhileLet { binds, scrut } => {
                let mut e = head.clone();
                let val = {
                    let mut scratch = head.clone();
                    self.eval_expr(t, scrut.0, scrut.1, &mut scratch)
                };
                if binds.len() == 1 {
                    if let Some(b) = binds.first() {
                        e.vars.insert(b.clone(), val);
                    }
                } else {
                    for b in binds {
                        e.vars.insert(b.clone(), AbsVal::top());
                    }
                }
                e
            }
            LoopKind::Plain => head.clone(),
        }
    }

    /// Refines `env` under the assumption that the condition in
    /// `[lo, hi)` evaluates to `assume`. Handles `!`, `&&`, `||`,
    /// parenthesisation, and comparisons against tracked places; runs
    /// with collection off (the caller evaluates the condition once for
    /// obligations).
    fn refine_cond(
        &mut self,
        t: &[CodeTok<'_>],
        lo: usize,
        hi: usize,
        env: &Env,
        assume: bool,
    ) -> Env {
        let saved = self.collect;
        self.collect = false;
        let out = self.refine_inner(t, lo, hi, env, assume);
        self.collect = saved;
        out
    }

    fn refine_inner(
        &mut self,
        t: &[CodeTok<'_>],
        lo: usize,
        hi: usize,
        env: &Env,
        assume: bool,
    ) -> Env {
        if env.dead {
            return env.clone();
        }
        let (lo, hi) = trim_parens(t, lo, hi);
        if lo >= hi {
            return env.clone();
        }
        if at(t, lo).is_some_and(|x| x.is_op("!")) {
            return self.refine_inner(t, lo + 1, hi, env, !assume);
        }
        // `||` then `&&` at top level (|| binds looser).
        for (op, split_on_assume) in [("||", false), ("&&", true)] {
            let parts = split_top(t, lo, hi, op, false);
            if parts.len() > 1 {
                // assume(a || b) joins the branches; refute(a || b)
                // refutes each in sequence (and dually for `&&`).
                if assume == split_on_assume {
                    let mut e = env.clone();
                    for (s, x) in parts {
                        e = self.refine_inner(t, s, x, &e, assume);
                    }
                    return e;
                }
                let mut joined: Option<Env> = None;
                for (s, x) in parts {
                    let one = self.refine_inner(t, s, x, env, assume);
                    if !one.dead {
                        joined = Some(match joined {
                            Some(o) => join_env(&o, &one),
                            None => one,
                        });
                    }
                }
                return joined.unwrap_or_else(|| {
                    let mut d = env.clone();
                    d.dead = true;
                    d
                });
            }
        }
        // A single comparison.
        let Some(cmp) = find_top(t, lo, hi, |x| {
            x.kind == TokKind::Op
                && matches!(x.text.as_str(), "==" | "!=" | "<=" | ">=" | "<" | ">")
        }) else {
            return env.clone();
        };
        let op = at(t, cmp).map(|x| x.text.clone()).unwrap_or_default();
        let mut scratch = env.clone();
        let lv = self.eval_expr(t, lo, cmp, &mut scratch);
        let rv = self.eval_expr(t, cmp + 1, hi, &mut scratch);
        let eff = if assume {
            op.clone()
        } else {
            negate_cmp(&op).to_string()
        };
        let mut out = env.clone();
        self.refine_place(t, lo, cmp, &eff, &rv.iv, &mut out);
        self.refine_place(t, cmp + 1, hi, &converse_cmp(&eff), &lv.iv, &mut out);
        out
    }

    /// If `[lo, hi)` is a tracked place (`x` or `self.f`), refine its
    /// interval under `place <op> bound`; an infeasible refinement
    /// kills the environment.
    fn refine_place(
        &mut self,
        t: &[CodeTok<'_>],
        lo: usize,
        hi: usize,
        op: &str,
        bound: &Interval,
        env: &mut Env,
    ) {
        let Some(key) = place_key(t, lo, hi) else {
            return;
        };
        let Some(cur) = env.vars.get(&key) else {
            return;
        };
        let refined = match op {
            "<" => cur.iv.refine_lt(bound),
            "<=" => cur.iv.refine_le(bound),
            ">" => cur.iv.refine_gt(bound),
            ">=" => cur.iv.refine_ge(bound),
            "==" => cur.iv.refine_eq(bound),
            "!=" => cur.iv.refine_ne(bound),
            "range" => cur.iv.refine_eq(bound),
            _ => return,
        };
        match refined {
            Some(iv) => {
                if let Some(slot) = env.vars.get_mut(&key) {
                    slot.iv = iv;
                }
            }
            None => env.dead = true,
        }
    }
}

/// `[lo, hi)` with any fully-enclosing parentheses trimmed off.
fn trim_parens(t: &[CodeTok<'_>], mut lo: usize, mut hi: usize) -> (usize, usize) {
    while hi > lo + 1 && at(t, lo).is_some_and(|x| x.is_op("(")) && matching(t, lo) == Some(hi - 1)
    {
        lo += 1;
        hi -= 1;
    }
    (lo, hi)
}

/// The tracked-place key of a span: a bare identifier (`x`) or a
/// `self.field` access (`self.f`). Anything else is not refinable.
fn place_key(t: &[CodeTok<'_>], lo: usize, hi: usize) -> Option<String> {
    let first = at(t, lo).filter(|x| x.kind == TokKind::Ident)?;
    if lo + 1 >= hi {
        return Some(first.text.clone());
    }
    let dot = first.text == "self" && at(t, lo + 1).is_some_and(|x| x.is_op("."));
    let field = at(t, lo + 2)
        .filter(|f| dot && matches!(f.kind, TokKind::Ident | TokKind::Int) && lo + 3 >= hi)?;
    Some(format!("self.{}", field.text))
}

/// The comparison that holds when `op` is false.
fn negate_cmp(op: &str) -> &'static str {
    match op {
        "==" => "!=",
        "!=" => "==",
        "<" => ">=",
        "<=" => ">",
        ">" => "<=",
        ">=" => "<",
        _ => "?",
    }
}

/// The comparison seen from the right operand (`a < b` ⇔ `b > a`).
fn converse_cmp(op: &str) -> String {
    match op {
        "<" => ">",
        "<=" => ">=",
        ">" => "<",
        ">=" => "<=",
        o => o,
    }
    .to_string()
}

/// Binary operator precedence (0 = not a binary operator here).
fn prec(op: &Token) -> u8 {
    if op.kind != TokKind::Op {
        return 0;
    }
    match op.text.as_str() {
        "*" | "/" | "%" => 9,
        "+" | "-" => 8,
        "<<" | ">>" => 7,
        "&" => 6,
        "^" => 5,
        "|" => 4,
        "==" | "!=" | "<" | "<=" | ">" | ">=" => 3,
        "&&" => 2,
        "||" => 1,
        _ => 0,
    }
}

// Expression evaluation.
impl<'a> Analyzer<'a> {
    /// Evaluates the expression spanning `[lo, hi)`.
    fn eval_expr(&mut self, t: &[CodeTok<'_>], lo: usize, hi: usize, env: &mut Env) -> AbsVal {
        if self.depth >= MAX_DEPTH {
            return AbsVal::top();
        }
        self.depth += 1;
        let mut i = lo;
        let v = self.eval_binary(t, &mut i, hi, env, 1);
        self.depth = self.depth.saturating_sub(1);
        v
    }

    /// Precedence-climbing binary expression parser/evaluator.
    fn eval_binary(
        &mut self,
        t: &[CodeTok<'_>],
        i: &mut usize,
        end: usize,
        env: &mut Env,
        min_prec: u8,
    ) -> AbsVal {
        let mut lhs = self.eval_unary(t, i, end, env);
        loop {
            let j = *i;
            if j >= end {
                break;
            }
            let Some(op) = at(t, j) else { break };
            let p = prec(op);
            if p == 0 || p < min_prec {
                break;
            }
            let op_text = op.text.clone();
            let line = op.line;
            let rhs_start = j + 1;
            *i = rhs_start;
            let rhs = self.eval_binary(t, i, end, env, p + 1);
            let literal_rhs =
                at(t, rhs_start).is_some_and(|x| x.kind == TokKind::Int) && *i <= rhs_start + 1;
            lhs = self.apply_binop(&op_text, &op_text, &lhs, &rhs, line, literal_rhs, env);
        }
        lhs
    }

    /// Applies one binary operator: transfer function, unit algebra,
    /// and the shift/arith obligations. `key_op` is the exact operator
    /// spelling used for L006 discharge keys (`"<<"` vs `"<<="`),
    /// `op` its semantic base.
    #[allow(clippy::too_many_arguments)]
    fn apply_binop(
        &mut self,
        key_op: &str,
        op: &str,
        l: &AbsVal,
        r: &AbsVal,
        line: usize,
        literal_rhs: bool,
        _env: &mut Env,
    ) -> AbsVal {
        let op = op.strip_suffix('=').filter(|b| !b.is_empty()).unwrap_or(op);
        let ty = l.ty.or(r.ty);
        let origin = l.origin.clone().or_else(|| r.origin.clone());
        let degrade = |raw: Option<Interval>| match (raw, ty) {
            (Some(v), Some(tt)) => v.clamp_to(tt),
            (Some(v), None) => v,
            (None, Some(tt)) => Interval::top_of(tt),
            (None, None) => TOP,
        };
        match op {
            "<<" | ">>" => {
                if !literal_rhs {
                    self.obligation_shift(line, key_op, l, r);
                }
                let raw = if op == "<<" {
                    l.iv.shl(&r.iv)
                } else {
                    Some(l.iv.shr(&r.iv))
                };
                let iv = match (raw, l.ty) {
                    (Some(v), Some(tt)) => v.clamp_to(tt),
                    (Some(v), None) => v,
                    (None, Some(tt)) => Interval::top_of(tt),
                    (None, None) => TOP,
                };
                AbsVal {
                    iv,
                    ty: l.ty,
                    origin,
                    ..AbsVal::top()
                }
            }
            "+" | "-" => {
                let unit = match l.unit.combine_linear(r.unit) {
                    Ok(u) => u,
                    Err((a, b)) => {
                        self.unit_mix_finding(line, key_op, a, b, l, r);
                        Unit::Opaque
                    }
                };
                let raw = if op == "+" {
                    l.iv.add(&r.iv)
                } else {
                    l.iv.sub(&r.iv)
                };
                self.record_arith(line, key_op, raw, ty);
                AbsVal {
                    iv: degrade(raw),
                    ty,
                    unit,
                    origin,
                    ..AbsVal::top()
                }
            }
            "*" => {
                let raw = l.iv.mul(&r.iv);
                self.record_arith(line, key_op, raw, ty);
                AbsVal {
                    iv: degrade(raw),
                    ty,
                    origin,
                    ..AbsVal::top()
                }
            }
            "/" => AbsVal {
                iv: l.iv.div(&r.iv),
                ty,
                origin,
                ..AbsVal::top()
            },
            "%" => AbsVal {
                iv: l.iv.rem(&r.iv),
                ty,
                origin,
                ..AbsVal::top()
            },
            "&" => AbsVal {
                iv: l.iv.bitand(&r.iv),
                ty,
                origin,
                ..AbsVal::top()
            },
            "|" => AbsVal {
                iv: l.iv.bitor(&r.iv).clamp_to(ty.unwrap_or(Ty::U128)),
                ty,
                origin,
                ..AbsVal::top()
            },
            "^" => AbsVal {
                iv: l.iv.bitxor(&r.iv).clamp_to(ty.unwrap_or(Ty::U128)),
                ty,
                origin,
                ..AbsVal::top()
            },
            // Comparisons and boolean connectives yield booleans.
            _ => AbsVal::top(),
        }
    }

    /// Unary operators, closures, and the primary/postfix chain.
    fn eval_unary(
        &mut self,
        t: &[CodeTok<'_>],
        i: &mut usize,
        end: usize,
        env: &mut Env,
    ) -> AbsVal {
        let j = *i;
        if j >= end {
            return AbsVal::top();
        }
        let Some(tok) = at(t, j) else {
            return AbsVal::top();
        };
        match tok.text.as_str() {
            "!" | "-" => {
                *i = j + 1;
                let v = self.eval_unary(t, i, end, env);
                return AbsVal {
                    iv: v.ty.map(Interval::top_of).unwrap_or(TOP),
                    ty: v.ty,
                    ..AbsVal::top()
                };
            }
            "&" => {
                *i = j + 1;
                let k = *i;
                if at(t, k).is_some_and(|x| x.is_ident("mut")) {
                    *i = k + 1;
                }
                return self.eval_unary(t, i, end, env);
            }
            "*" => {
                *i = j + 1;
                return self.eval_unary(t, i, end, env);
            }
            "move" => {
                *i = j + 1;
                return self.eval_unary(t, i, end, env);
            }
            "||" => {
                *i = j + 1;
                return self.eval_closure_body(t, i, end, env, Vec::new());
            }
            "|" => {
                // Closure: bind the parameters, walk the body on a
                // scratch environment, return top.
                let pipe = (j + 1..end).find(|&k| at(t, k).is_some_and(|x| x.is_op("|")));
                let pipe = pipe.unwrap_or(end);
                // Only bare parameter names (skip type paths after `:`).
                let names = (j + 1..pipe).filter_map(|k| {
                    let x = at(t, k)?;
                    let typed =
                        k > j + 1 && at(t, k - 1).is_some_and(|p| p.is_op(":") || p.is_op("::"));
                    let name =
                        x.kind == TokKind::Ident && !matches!(x.text.as_str(), "mut" | "ref" | "_");
                    (name && !typed).then(|| x.text.clone())
                });
                let names = names.collect();
                *i = pipe + 1;
                return self.eval_closure_body(t, i, end, env, names);
            }
            _ => {}
        }
        self.eval_primary(t, i, end, env)
    }

    /// A closure's body: walked on a clone of the environment (the
    /// capture-by-ref effects on tracked integers are rare enough to
    /// ignore; obligations inside the body are still collected).
    fn eval_closure_body(
        &mut self,
        t: &[CodeTok<'_>],
        i: &mut usize,
        end: usize,
        env: &Env,
        params: Vec<String>,
    ) -> AbsVal {
        // Skip an optional `-> Ty` annotation.
        let mut j = *i;
        if at(t, j).is_some_and(|x| x.is_op("->")) {
            j += 1;
            while j < end && !at(t, j).is_some_and(|x| x.is_op("{") || x.is_op(",") || x.is_op(")"))
            {
                j += 1;
            }
        }
        let mut scratch = env.clone();
        for p in params {
            scratch.vars.insert(p, AbsVal::top());
        }
        if at(t, j).is_some_and(|x| x.is_op("{")) {
            let (ni, _) = self.walk_block(t, j, &mut scratch);
            *i = ni;
        } else {
            let mut k = j;
            let _ = self.eval_binary(t, &mut k, end, &mut scratch, 1);
            *i = k;
        }
        AbsVal::top()
    }
}

// Primary expressions, postfix chains, calls, and obligations.
impl<'a> Analyzer<'a> {
    fn eval_primary(
        &mut self,
        t: &[CodeTok<'_>],
        i: &mut usize,
        end: usize,
        env: &mut Env,
    ) -> AbsVal {
        let j = *i;
        if j >= end {
            return AbsVal::top();
        }
        let Some(tok) = at(t, j) else {
            return AbsVal::top();
        };
        let mut val = match tok.kind {
            TokKind::Int => {
                *i = j + 1;
                match parse_int(&tok.text) {
                    Some((v, ty)) => AbsVal::exact(v, ty),
                    None => AbsVal::top(),
                }
            }
            TokKind::Float | TokKind::Str | TokKind::Char | TokKind::Lifetime => {
                *i = j + 1;
                AbsVal::top()
            }
            TokKind::Op => match tok.text.as_str() {
                "(" => {
                    let c = matching(t, j).unwrap_or(end);
                    let v = match split_top(t, j + 1, c, ",", false)[..] {
                        [(s, e)] => self.eval_expr(t, s, e, env),
                        ref spans => {
                            for &(s, e) in spans {
                                let _ = self.eval_expr(t, s, e, env);
                            }
                            AbsVal::top()
                        }
                    };
                    *i = c + 1;
                    v
                }
                "[" => {
                    let c = matching(t, j).unwrap_or(end);
                    // `[a, b, …]` or `[elem; N]`.
                    let semi = find_top(t, j + 1, c, |x| x.is_op(";"));
                    let mut elem_ty = None;
                    if let Some(s) = semi {
                        let v = self.eval_expr(t, j + 1, s, env);
                        elem_ty = v.ty;
                        let _ = self.eval_expr(t, s + 1, c, env);
                    } else {
                        for (idx, (s, e)) in split_top(t, j + 1, c, ",", false).iter().enumerate() {
                            let v = self.eval_expr(t, *s, *e, env);
                            if idx == 0 {
                                elem_ty = v.ty;
                            }
                        }
                    }
                    *i = c + 1;
                    AbsVal {
                        arr: elem_ty.map(FieldTy::Prim),
                        ..AbsVal::top()
                    }
                }
                "{" => {
                    let (ni, v) = self.walk_block(t, j, env);
                    *i = ni;
                    v.unwrap_or_else(AbsVal::top)
                }
                _ => {
                    *i = j + 1;
                    AbsVal::top()
                }
            },
            TokKind::Ident => match tok.text.as_str() {
                "if" => {
                    let (ni, v) = self.walk_if(t, j, end, env);
                    *i = ni;
                    v.unwrap_or_else(AbsVal::top)
                }
                "match" => {
                    let (ni, v) = self.walk_match(t, j, end, env);
                    *i = ni;
                    v.unwrap_or_else(AbsVal::top)
                }
                "loop" => {
                    *i = self.walk_plain_loop(t, j, end, env);
                    AbsVal::top()
                }
                "while" => {
                    *i = self.walk_while(t, j, end, env);
                    AbsVal::top()
                }
                "for" => {
                    *i = self.walk_for(t, j, end, env);
                    AbsVal::top()
                }
                "unsafe" => {
                    let b = j + 1;
                    if at(t, b).is_some_and(|x| x.is_op("{")) {
                        let (ni, v) = self.walk_block(t, b, env);
                        *i = ni;
                        v.unwrap_or_else(AbsVal::top)
                    } else {
                        *i = b;
                        AbsVal::top()
                    }
                }
                "return" => {
                    if j + 1 < end {
                        let v = self.eval_expr(t, j + 1, end, env);
                        self.note_return(&v);
                    }
                    env.dead = true;
                    *i = end;
                    AbsVal::top()
                }
                "self" => {
                    *i = j + 1;
                    env.vars.get("self").cloned().unwrap_or_else(|| AbsVal {
                        is_self: true,
                        sty: self.cur_self.clone(),
                        ..AbsVal::top()
                    })
                }
                "true" | "false" => {
                    *i = j + 1;
                    AbsVal::top()
                }
                _ => self.eval_path(t, i, end, env),
            },
            _ => {
                *i = j + 1;
                AbsVal::top()
            }
        };
        // Postfix chain: `?`, `as`, field reads, method calls, indexing.
        loop {
            let k = *i;
            if k >= end {
                break;
            }
            let Some(tok) = at(t, k) else { break };
            if tok.is_op("?") {
                *i = k + 1;
                continue;
            }
            if tok.is_ident("as") {
                val = self.eval_cast(t, i, k, end, &val);
                continue;
            }
            if tok.is_op(".") {
                let f = k + 1;
                let Some(ftok) = at(t, f) else { break };
                if ftok.kind == TokKind::Int {
                    val = self.field_read(&val, &ftok.text, env);
                    *i = f + 1;
                    continue;
                }
                if ftok.kind == TokKind::Ident && ftok.text != "await" {
                    let mut after = f + 1;
                    if at(t, after).is_some_and(|x| x.is_op("::")) {
                        // Turbofish `.collect::<Vec<_>>()`.
                        after = matching(t, after + 1).map_or(end, |c| c + 1);
                    }
                    if at(t, after).is_some_and(|x| x.is_op("(")) {
                        let c = matching(t, after).unwrap_or(end);
                        let spans = split_top(t, after + 1, c, ",", false);
                        let args: Vec<AbsVal> = spans
                            .iter()
                            .map(|(s, e)| self.eval_expr(t, *s, *e, env))
                            .collect();
                        let callees = self.filter_by_recv(self.callees_at(t, after), &val);
                        self.handle_call(&callees, Some(&val), &args, ftok.line);
                        val = self.method_value(&ftok.text, &val, &args, &callees);
                        *i = c + 1;
                        continue;
                    }
                    val = self.field_read(&val, &ftok.text, env);
                    *i = f + 1;
                    continue;
                }
                if ftok.is_ident("await") {
                    *i = f + 1;
                    continue;
                }
                break;
            }
            if tok.is_op("[") {
                let c = matching(t, k).unwrap_or(end);
                // Evaluate index / slice-bound expressions.
                if let Some(dots) =
                    find_top(t, k + 1, c, |x| matches!(x.text.as_str(), ".." | "..="))
                {
                    if k + 1 < dots {
                        let _ = self.eval_expr(t, k + 1, dots, env);
                    }
                    if dots + 1 < c {
                        let _ = self.eval_expr(t, dots + 1, c, env);
                    }
                    // A slice keeps the element type.
                    val = AbsVal {
                        arr: val.arr.clone(),
                        ..AbsVal::top()
                    };
                } else {
                    let _ = self.eval_expr(t, k + 1, c, env);
                    val = match &val.arr {
                        Some(elem) => AbsVal::of_field(elem),
                        None => AbsVal::top(),
                    };
                }
                *i = c + 1;
                continue;
            }
            break;
        }
        val
    }

    /// A path expression: `name`, `a::b::c`, a call, a macro, or a
    /// struct literal.
    fn eval_path(&mut self, t: &[CodeTok<'_>], i: &mut usize, end: usize, env: &mut Env) -> AbsVal {
        let j = *i;
        let Some(first) = at(t, j) else {
            *i = j + 1;
            return AbsVal::top();
        };
        let mut segs = vec![first.text.clone()];
        *i = j + 1;
        while at(t, *i).is_some_and(|x| x.is_op("::")) {
            let n = *i + 1;
            match at(t, n) {
                Some(x) if x.is_op("<") => {
                    *i = matching(t, n).map_or(end, |c| c + 1);
                }
                Some(x) if x.kind == TokKind::Ident => {
                    segs.push(x.text.clone());
                    *i = n + 1;
                }
                _ => break,
            }
        }
        let k = *i;
        match at(t, k).map(|x| x.text.as_str()) {
            Some("(") => self.eval_call(t, i, k, end, &segs, env),
            Some("!") => {
                // Macro invocation: evaluate the top-level argument
                // spans for their obligations, value unknown.
                let d = k + 1;
                if at(t, d).is_some_and(|x| matches!(x.text.as_str(), "(" | "[" | "{")) {
                    let c = matching(t, d).unwrap_or(end);
                    for (s, e) in split_top(t, d + 1, c, ",", false) {
                        let _ = self.eval_expr(t, s, e, env);
                    }
                    *i = c + 1;
                } else {
                    *i = d;
                }
                AbsVal::top()
            }
            Some("{") if self.is_struct_literal(t, k, end, &segs) => {
                self.eval_struct_literal(t, i, k, end, &segs, env)
            }
            _ => self.path_value(&segs, env),
        }
    }

    /// Distinguishes `Name { field: … }` struct literals from blocks.
    fn is_struct_literal(
        &self,
        t: &[CodeTok<'_>],
        brace: usize,
        end: usize,
        segs: &[String],
    ) -> bool {
        let Some(last) = segs.last() else {
            return false;
        };
        if self.structs.contains_key(last) || last == "Self" {
            return true;
        }
        if !last.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            return false;
        }
        // Lookahead: `{ ident:` / `{ ident,` / `{ ident }` / `{ .. }`.
        match at(t, brace + 1) {
            Some(x) if x.is_op("..") => true,
            Some(x) if x.kind == TokKind::Ident => {
                brace + 2 < end
                    && at(t, brace + 2)
                        .is_some_and(|x| x.is_op(":") || x.is_op(",") || x.is_op("}"))
            }
            _ => false,
        }
    }

    /// A struct literal: evaluates every field expression and proves
    /// `assumed_fields` bounds at the write (the trust anchor for the
    /// assumption used at reads).
    fn eval_struct_literal(
        &mut self,
        t: &[CodeTok<'_>],
        i: &mut usize,
        brace: usize,
        end: usize,
        segs: &[String],
        env: &mut Env,
    ) -> AbsVal {
        let sname = match segs.last().map(String::as_str) {
            Some("Self") => self.cur_self.clone().unwrap_or_else(|| "Self".to_string()),
            Some(s) => s.to_string(),
            None => return AbsVal::top(),
        };
        let c = matching(t, brace).unwrap_or(end);
        for (s, e) in split_top(t, brace + 1, c, ",", false) {
            if at(t, s).is_some_and(|x| x.is_op("..")) {
                let _ = self.eval_expr(t, s + 1, e, env);
                continue;
            }
            let Some(ftok) = at(t, s).filter(|x| x.kind == TokKind::Ident) else {
                continue;
            };
            let fname = ftok.text.clone();
            let line = ftok.line;
            let val = if at(t, s + 1).is_some_and(|x| x.is_op(":")) {
                self.eval_expr(t, s + 2, e, env)
            } else {
                // Shorthand `Name { len }`.
                env.vars.get(&fname).cloned().unwrap_or_else(AbsVal::top)
            };
            if let Some(max) = self.assumed.get(&(sname.clone(), fname.clone())).copied() {
                let sink = format!("field `{sname}.{fname}` (assumed ≤ {max})");
                let _ = self.obligation(line, &val, max, &sink);
            }
        }
        *i = c + 1;
        AbsVal {
            sty: Some(sname),
            ..AbsVal::top()
        }
    }

    /// The value of a non-call path: a tracked variable, a type
    /// constant (`u8::MAX`, `u32::BITS`), or top.
    fn path_value(&self, segs: &[String], env: &Env) -> AbsVal {
        match segs {
            [name] => env.vars.get(name).cloned().unwrap_or_else(AbsVal::top),
            [ty, item] => match (Ty::parse(ty), item.as_str()) {
                (Some(ty), "MAX") => AbsVal::exact(ty.max(), Some(ty)),
                (Some(ty), "BITS") => AbsVal::exact(ty.bits() as u128, Some(Ty::U32)),
                (Some(ty), "MIN") => AbsVal::exact(0, Some(ty)),
                _ => AbsVal::top(),
            },
            _ => AbsVal::top(),
        }
    }

    /// A path call `f(args)` / `Type::method(args)`: helper bounds,
    /// identity constructors, and workspace summaries.
    fn eval_call(
        &mut self,
        t: &[CodeTok<'_>],
        i: &mut usize,
        open: usize,
        end: usize,
        segs: &[String],
        env: &mut Env,
    ) -> AbsVal {
        let c = matching(t, open).unwrap_or(end);
        let spans = split_top(t, open + 1, c, ",", false);
        let args: Vec<AbsVal> = spans
            .iter()
            .map(|(s, e)| self.eval_expr(t, *s, *e, env))
            .collect();
        *i = c + 1;
        let name = segs.last().cloned().unwrap_or_default();
        let line = at(t, open).map(|x| x.line).unwrap_or(0);
        // The checked_* cast-helper contract: the argument must fit the
        // target type (names are unique in the workspace).
        if let Some((bound, ty)) = helper_bound(&name) {
            if let Some(a0) = args.first() {
                let sink = format!("argument of `{name}` (≤ {bound})");
                let ok = self.obligation(line, a0, bound, &sink);
                let iv = if ok { a0.iv } else { Interval::new(0, bound) };
                return AbsVal {
                    iv,
                    ty: Some(ty),
                    unit: a0.unit,
                    origin: a0.origin.clone(),
                    ..AbsVal::top()
                };
            }
        }
        // `uN::from(x)`: lossless widening keeps the range.
        if segs.len() == 2 && name == "from" {
            if let (Some(ty), Some(a0)) = (segs.first().and_then(|s| Ty::parse(s)), args.first()) {
                return AbsVal {
                    iv: a0.iv.clamp_to(ty),
                    ty: Some(ty),
                    unit: a0.unit,
                    origin: a0.origin.clone(),
                    ..AbsVal::top()
                };
            }
        }
        // `Some` / `Ok` are identity in this model (matching `?`,
        // `unwrap`, and single-binding patterns); `Err` is opaque.
        if segs.len() == 1 && matches!(name.as_str(), "Some" | "Ok") {
            if let Some(a0) = args.first() {
                return a0.clone();
            }
        }
        let callees = self.callees_at(t, open);
        self.handle_call(&callees, None, &args, line);
        self.call_value(&callees)
    }

    /// The workspace callees of the call whose `(` sits at view
    /// position `paren`.
    fn callees_at(&self, t: &[CodeTok<'_>], paren: usize) -> Vec<usize> {
        let key = t.get(paren).map(|&(orig, _)| (self.cur_file, orig));
        let hit = key.and_then(|k| self.call_map.get(&k));
        hit.cloned().unwrap_or_default()
    }

    /// Join of the callees' return summaries (interval top as soon as
    /// any callee has none). Independently of the interval, when every
    /// callee declares the same struct return type (`-> &Node`), the
    /// result carries it as a receiver type so downstream field reads
    /// (`.prefix`) and method lookups (`.len()`) resolve through the
    /// struct table and pick up assumed bounds.
    fn call_value(&self, callees: &[usize]) -> AbsVal {
        let mut sty: Option<String> = None;
        let mut sfirst = true;
        for &id in callees {
            let rn = self.ret_named.get(id).cloned().flatten();
            if sfirst {
                sty = rn;
                sfirst = false;
            } else if sty != rn {
                sty = None;
            }
        }
        let mut iv: Option<Interval> = None;
        let mut ty: Option<Ty> = None;
        let mut first = true;
        for &id in callees {
            let Some(Some(s)) = self.summaries.get(id) else {
                iv = None;
                break;
            };
            iv = Some(match iv {
                Some(o) => o.join(s),
                None => *s,
            });
            let rt = self.ret_prim.get(id).copied().flatten();
            if first {
                ty = rt;
                first = false;
            } else if ty != rt {
                ty = None;
            }
        }
        match iv {
            Some(iv) => AbsVal {
                iv,
                ty,
                sty,
                ..AbsVal::top()
            },
            None => AbsVal {
                sty,
                ..AbsVal::top()
            },
        }
    }

    /// When the receiver's type is known, drops name-collision callees
    /// on *other* types (`prefix.len()` must resolve to `Prefix::len`,
    /// not every `len` in the workspace). Unknown receiver types keep
    /// the full candidate set (conservative).
    fn filter_by_recv(&self, callees: Vec<usize>, recv: &AbsVal) -> Vec<usize> {
        let rty = if recv.is_self {
            self.cur_self.clone()
        } else {
            recv.sty.clone()
        };
        let Some(rty) = rty else {
            return callees;
        };
        let matched: Vec<usize> = callees
            .iter()
            .copied()
            .filter(|&id| {
                self.table
                    .fns
                    .get(id)
                    .is_some_and(|f| f.self_ty.as_deref() == Some(rty.as_str()))
            })
            .collect();
        if matched.is_empty() {
            callees
        } else {
            matched
        }
    }

    /// Per-callee work at a call site: unit-annotation obligations and
    /// observed-argument recording for the interprocedural narrowing.
    fn handle_call(
        &mut self,
        callees: &[usize],
        recv: Option<&AbsVal>,
        args: &[AbsVal],
        line: usize,
    ) {
        for &id in callees {
            let Some(f) = self.table.fns.get(id) else {
                continue;
            };
            let fname = f.name.clone();
            let fself = f.self_ty.clone();
            let params: Vec<(String, Option<Unit>)> = f
                .params
                .iter()
                .map(|p| {
                    (
                        p.name.clone(),
                        self.ann.param_unit(fself.as_deref(), &fname, &p.name),
                    )
                })
                .collect();
            let has_self = params.first().is_some_and(|(n, _)| n == "self");
            let offset = usize::from(has_self && recv.is_some());
            for (ai, arg) in args.iter().enumerate() {
                let pidx = ai + offset;
                let Some((pname, unit)) = params.get(pidx) else {
                    continue;
                };
                if pname == "self" {
                    continue;
                }
                if let Some(u) = unit {
                    let r = u.range();
                    if r.hi < u128::MAX {
                        let sink =
                            format!("{} parameter `{pname}` of `{fname}` (≤ {})", u.name(), r.hi);
                        let _ = self.obligation(line, arg, r.hi, &sink);
                    }
                    if !matches!(arg.unit, Unit::Opaque | Unit::Count) && arg.unit != *u {
                        let msg = format!(
                            "unit mismatch: {} value passed to {} parameter `{pname}` of `{fname}` without an explicit conversion",
                            arg.unit.name(),
                            u.name()
                        );
                        let chain = arg.origin.clone().map(|o| {
                            format!(
                                "{} value from {o} → {} parameter `{pname}` of `{fname}`",
                                arg.unit.name(),
                                u.name()
                            )
                        });
                        self.push_finding(line, msg, chain);
                    }
                }
                // Record the observed argument for private-entry
                // narrowing, with a chained witness origin.
                if let Some(slot) = self.observed.get_mut(id).and_then(|r| r.get_mut(pidx)) {
                    *slot = Some(match *slot {
                        Some(o) => o.join(&arg.iv),
                        None => arg.iv,
                    });
                }
                let org = format!(
                    "{} → argument `{pname}` of {fname} at {}:{line}",
                    arg.origin
                        .clone()
                        .unwrap_or_else(|| format!("expression at {}:{line}", self.cur_rel)),
                    self.cur_rel
                );
                if let Some(slot) = self
                    .observed_origin
                    .get_mut(id)
                    .and_then(|r| r.get_mut(pidx))
                {
                    if slot.is_none() {
                        *slot = Some(org);
                    }
                }
            }
        }
    }

    /// Built-in method models (std integer/Option/Result methods) with
    /// workspace summaries as the fallback.
    fn method_value(
        &mut self,
        name: &str,
        recv: &AbsVal,
        args: &[AbsVal],
        callees: &[usize],
    ) -> AbsVal {
        let a0 = args.first();
        let keep = |iv: Interval| AbsVal {
            iv,
            ty: recv.ty,
            unit: recv.unit,
            origin: recv.origin.clone(),
            ..AbsVal::top()
        };
        match name {
            "min" => {
                if let Some(a) = a0 {
                    return keep(recv.iv.min_iv(&a.iv));
                }
            }
            "max" => {
                if let Some(a) = a0 {
                    return keep(recv.iv.max_iv(&a.iv));
                }
            }
            "saturating_sub" => {
                if let Some(a) = a0 {
                    return keep(recv.iv.saturating_sub(&a.iv));
                }
            }
            "saturating_add" => {
                if let Some(a) = a0 {
                    return keep(recv.iv.saturating_add(&a.iv, recv.ty.unwrap_or(Ty::U128)));
                }
            }
            "checked_sub" => {
                if let Some(a) = a0 {
                    // The Some payload, when present.
                    return keep(recv.iv.saturating_sub(&a.iv));
                }
            }
            "checked_add" => {
                if let Some(a) = a0 {
                    return keep(recv.iv.saturating_add(&a.iv, recv.ty.unwrap_or(Ty::U128)));
                }
            }
            "wrapping_add" | "wrapping_sub" | "wrapping_mul" | "wrapping_shl" | "wrapping_shr"
            | "checked_shl" | "checked_shr" | "checked_mul" | "checked_pow" | "pow"
            | "rotate_left" | "rotate_right" | "swap_bytes" | "reverse_bits" | "to_be"
            | "to_le" => {
                return AbsVal {
                    iv: recv.ty.map(Interval::top_of).unwrap_or(TOP),
                    ty: recv.ty,
                    ..AbsVal::top()
                };
            }
            "leading_zeros" | "trailing_zeros" | "count_ones" | "count_zeros" => {
                let bits = recv.ty.map(|t| t.bits()).unwrap_or(128) as u128;
                return AbsVal {
                    iv: Interval::new(0, bits),
                    ty: Some(Ty::U32),
                    ..AbsVal::top()
                };
            }
            "to_digit" => {
                let radix = a0.map(|a| a.iv.hi).unwrap_or(36).min(36);
                return AbsVal {
                    iv: Interval::new(0, radix.saturating_sub(1)),
                    ty: Some(Ty::U32),
                    ..AbsVal::top()
                };
            }
            "clone" | "to_owned" | "copied" | "cloned" | "as_ref" | "borrow" | "as_deref"
            | "as_deref_mut" | "as_mut" | "take" => {
                return recv.clone();
            }
            "unwrap" | "expect" | "ok" | "ok_or" | "ok_or_else" | "map_err" | "unwrap_or_else" => {
                return AbsVal {
                    is_self: false,
                    ..recv.clone()
                };
            }
            "unwrap_or" => {
                if let Some(a) = a0 {
                    return recv.join(a);
                }
            }
            "unwrap_or_default" => {
                return keep(recv.iv.join(&Interval::exact(0)));
            }
            "to_be_bytes" | "to_le_bytes" | "to_ne_bytes" | "octets" => {
                return AbsVal {
                    arr: Some(FieldTy::Prim(Ty::U8)),
                    ..AbsVal::top()
                };
            }
            "get" | "first" | "last" => {
                if let Some(elem) = &recv.arr {
                    return AbsVal::of_field(elem);
                }
                return AbsVal::top();
            }
            "isqrt" | "ilog2" | "abs_diff" => {
                return AbsVal {
                    iv: recv.ty.map(Interval::top_of).unwrap_or(TOP),
                    ty: recv.ty,
                    ..AbsVal::top()
                };
            }
            // `.len()` is deliberately NOT built in: the workspace has
            // a `Prefix::len` accessor whose summary must win.
            _ => {}
        }
        if callees.is_empty() {
            AbsVal::top()
        } else {
            self.call_value(callees)
        }
    }

    /// An `x as ty` cast: records cast proofs for L003 discharge and
    /// clamps the value. `as_kw` is the `as` token position.
    fn eval_cast(
        &mut self,
        t: &[CodeTok<'_>],
        i: &mut usize,
        as_kw: usize,
        _end: usize,
        val: &AbsVal,
    ) -> AbsVal {
        let line = at(t, as_kw).map(|x| x.line).unwrap_or(0);
        let mut j = as_kw + 1;
        // Pointer casts: `as *const T` / `as *mut T`.
        while at(t, j).is_some_and(|x| {
            x.is_op("*") || x.is_ident("const") || x.is_ident("mut") || x.is_op("&")
        }) {
            j += 1;
        }
        let Some(tname) = at(t, j).filter(|x| x.kind == TokKind::Ident) else {
            *i = j;
            return AbsVal::top();
        };
        *i = j + 1;
        match Ty::parse(&tname.text) {
            Some(ty) => {
                let fits = val.iv.hi <= ty.max();
                if matches!(ty, Ty::U8 | Ty::U16 | Ty::U32 | Ty::Usize) {
                    self.record_cast(line, ty, fits);
                }
                AbsVal {
                    iv: val.iv.clamp_to(ty),
                    ty: Some(ty),
                    unit: if fits { val.unit } else { Unit::Opaque },
                    origin: val.origin.clone(),
                    ..AbsVal::top()
                }
            }
            // Non-primitive target (f64, i64, pointers): unmodelled.
            None => AbsVal::top(),
        }
    }

    /// Reads a field off an abstract value: `self.f` pseudo-variables,
    /// struct-table lookups, everything else top.
    fn field_read(&mut self, recv: &AbsVal, fname: &str, env: &Env) -> AbsVal {
        if recv.is_self {
            let key = format!("self.{fname}");
            if let Some(v) = env.vars.get(&key) {
                return v.clone();
            }
            if let Some(sname) = self.cur_self.clone() {
                if let Some(fty) = self.structs.get(&sname).and_then(|m| m.get(fname)).cloned() {
                    return self.field_val(&sname, fname, &fty);
                }
            }
            return AbsVal::top();
        }
        if let Some(sname) = recv.sty.clone() {
            if let Some(fty) = self.structs.get(&sname).and_then(|m| m.get(fname)).cloned() {
                return self.field_val(&sname, fname, &fty);
            }
        }
        AbsVal::top()
    }

    // --- obligations and recording -----------------------------------

    /// Checks `val ≤ bound` for the named sink. Returns whether the
    /// obligation is proven; emits a finding with a witness chain when
    /// it is not (collection pass only).
    fn obligation(&mut self, line: usize, val: &AbsVal, bound: u128, sink: &str) -> bool {
        let ok = val.iv.hi <= bound;
        if !self.collect {
            return ok;
        }
        self.stats.obligations += 1;
        if ok {
            self.stats.proven += 1;
            return true;
        }
        let origin = val
            .origin
            .clone()
            .unwrap_or_else(|| format!("expression at {}:{line}", self.cur_rel));
        let chain = format!("value range {} from {origin} → {sink}", val.iv);
        let msg = format!(
            "cannot prove {sink}: value may reach {} (allowed ≤ {bound})",
            if val.iv.hi == u128::MAX {
                "max".to_string()
            } else {
                val.iv.hi.to_string()
            }
        );
        self.push_finding(line, msg, Some(chain));
        false
    }

    /// A shift by a non-literal amount: the amount must stay below the
    /// shifted type's width.
    fn obligation_shift(&mut self, line: usize, key_op: &str, l: &AbsVal, r: &AbsVal) {
        match l.ty {
            Some(ty) => {
                let bound = (ty.bits() - 1) as u128;
                let sink = format!("`{key_op}` amount for {} (width {})", ty.name(), ty.bits());
                let ok = self.obligation(line, r, bound, &sink);
                self.record_arith_key(line, key_op, ok);
            }
            None => {
                if self.collect {
                    self.stats.obligations += 1;
                    let msg = format!(
                        "cannot prove `{key_op}` amount in range: the shifted type is unknown to the dataflow"
                    );
                    let origin = r
                        .origin
                        .clone()
                        .unwrap_or_else(|| format!("expression at {}:{line}", self.cur_rel));
                    let chain = format!("value range {} from {origin} → `{key_op}` amount", r.iv);
                    self.push_finding(line, msg, Some(chain));
                    self.record_arith_key(line, key_op, false);
                }
            }
        }
    }

    /// Records whether `+`/`-`/`*` (and compound forms) at a site were
    /// proven free of wrap, for L006 discharge.
    fn record_arith(&mut self, line: usize, key_op: &str, raw: Option<Interval>, ty: Option<Ty>) {
        if !self.collect {
            return;
        }
        let ok = match (raw, ty) {
            (Some(r), Some(t)) => r.hi <= t.max(),
            _ => false,
        };
        self.record_arith_key(line, key_op, ok);
    }

    fn record_arith_key(&mut self, line: usize, key_op: &str, ok: bool) {
        if !self.collect {
            return;
        }
        let key = (self.cur_rel.clone(), line, key_op.to_string());
        if ok {
            self.proven_arith.insert(key);
        } else {
            self.unproven_arith.insert(key);
        }
    }

    /// Records whether a narrowing `as` cast was proven in-range, for
    /// L003 discharge.
    fn record_cast(&mut self, line: usize, ty: Ty, ok: bool) {
        if !self.collect {
            return;
        }
        let key = (self.cur_rel.clone(), line, ty.name().to_string());
        if ok {
            self.proven_casts.insert(key);
        } else {
            self.unproven_casts.insert(key);
        }
    }

    /// A `+`/`-` mixing two distinct concrete units.
    fn unit_mix_finding(
        &mut self,
        line: usize,
        op: &str,
        a: Unit,
        b: Unit,
        l: &AbsVal,
        r: &AbsVal,
    ) {
        let msg = format!(
            "unit mismatch: `{op}` combines {} and {} without an explicit conversion",
            a.name(),
            b.name()
        );
        let origin = l
            .origin
            .clone()
            .or_else(|| r.origin.clone())
            .unwrap_or_else(|| format!("expression at {}:{line}", self.cur_rel));
        let chain = format!(
            "{} value from {origin} → `{op}` with a {} value",
            a.name(),
            b.name()
        );
        self.push_finding(line, msg, Some(chain));
    }

    /// Deduplicated R002 finding emission (collection pass only;
    /// test-region lines never report).
    fn push_finding(&mut self, line: usize, msg: String, chain: Option<String>) {
        if !self.collect {
            return;
        }
        let files = self.files;
        let Some(file) = files.get(self.cur_file) else {
            return;
        };
        if file.is_test_line(line) {
            return;
        }
        let key = (self.cur_rel.clone(), line, msg.clone());
        if !self.seen.insert(key) {
            return;
        }
        self.findings.push(semantic_finding(
            "R002",
            "bit-domain-safety",
            file,
            line,
            msg,
            chain,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::tests::TestWorkspace;

    /// Builds a workspace over in-memory files and runs the dataflow
    /// with the given `lint.toml` text.
    fn run(files: &[(&str, &str)], toml: &str) -> DataflowResult {
        let cfg = Config::parse(toml).expect("test config parses");
        analyze(&TestWorkspace::new(files).ws(), &cfg)
    }

    fn messages(r: &DataflowResult) -> Vec<String> {
        r.findings.iter().map(|d| d.message.clone()).collect()
    }

    #[test]
    fn literal_shift_and_mask_are_proven() {
        let r = run(
            &[(
                "crates/x/src/lib.rs",
                "pub fn f(v: u128) -> u8 {\n    ((v >> 8) & 0xff) as u8\n}\n",
            )],
            "",
        );
        assert_eq!(messages(&r), Vec::<String>::new());
        assert!(r
            .proven_casts
            .contains(&("crates/x/src/lib.rs".to_string(), 2, "u8".to_string())));
    }

    #[test]
    fn unbounded_shift_amount_is_flagged_with_witness() {
        let r = run(
            &[(
                "crates/x/src/lib.rs",
                "pub fn f(v: u64, n: u32) -> u64 {\n    v << n\n}\n",
            )],
            "",
        );
        let msgs = messages(&r);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(
            msgs.first()
                .is_some_and(|m| m.contains("`<<` amount for u64 (width 64)")),
            "{msgs:?}"
        );
        let chain = r
            .findings
            .first()
            .and_then(|d| d.chain.clone())
            .unwrap_or_default();
        assert!(
            chain.contains("parameter `n` of `f`") && chain.contains("`<<` amount"),
            "chain: {chain}"
        );
    }

    #[test]
    fn guard_refinement_proves_shift() {
        let src = "pub fn f(v: u64, n: u32) -> u64 {\n    if n >= 64 {\n        0\n    } else {\n        v << n\n    }\n}\n";
        let r = run(&[("crates/x/src/lib.rs", src)], "");
        assert_eq!(messages(&r), Vec::<String>::new());
    }

    #[test]
    fn early_return_refutation_proves_shift() {
        let src = "pub fn f(v: u128, n: u32) -> u128 {\n    if n > 127 {\n        return 0;\n    }\n    v << n\n}\n";
        let r = run(&[("crates/x/src/lib.rs", src)], "");
        assert_eq!(messages(&r), Vec::<String>::new());
    }

    #[test]
    fn join_at_if_merge_is_the_hull() {
        // Merging 3 and 200 gives [3,200]: too big for the u8 shift…
        let bad = "pub fn f(v: u8, c: bool) -> u8 {\n    let n = if c { 3u32 } else { 200 };\n    v >> n\n}\n";
        let r = run(&[("crates/x/src/lib.rs", bad)], "");
        assert_eq!(messages(&r).len(), 1);
        // …while merging 3 and 6 stays within the width.
        let ok = "pub fn f(v: u8, c: bool) -> u8 {\n    let n = if c { 3u32 } else { 6 };\n    v >> n\n}\n";
        let r = run(&[("crates/x/src/lib.rs", ok)], "");
        assert_eq!(messages(&r), Vec::<String>::new());
    }

    #[test]
    fn match_arms_join_and_literal_patterns_refine() {
        let src = "pub fn f(v: u64, k: u32) -> u64 {\n    let s = match k {\n        1 => 1u32,\n        4 => 4,\n        8 => 8,\n        _ => 16,\n    };\n    v << s\n}\n";
        let r = run(&[("crates/x/src/lib.rs", src)], "");
        assert_eq!(messages(&r), Vec::<String>::new());
    }

    #[test]
    fn widening_terminates_and_loop_range_reaches_sink() {
        // `i` grows without a provable bound: widening must terminate
        // (no hang) and the shift must be flagged, naming the loop.
        let src = "pub fn f(v: u64) -> u64 {\n    let mut acc = v;\n    let mut i = 0u32;\n    loop {\n        if i > 1000000 {\n            break;\n        }\n        acc = acc << i;\n        i += 1;\n    }\n    acc\n}\n";
        let r = run(&[("crates/x/src/lib.rs", src)], "");
        let msgs = messages(&r);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        let chain = r
            .findings
            .first()
            .and_then(|d| d.chain.clone())
            .unwrap_or_default();
        assert!(chain.contains("loop at"), "chain: {chain}");
    }

    #[test]
    fn bounded_for_loop_is_proven() {
        let src = "pub fn f(v: u128) -> u128 {\n    let mut acc = 0u128;\n    for i in 0..32u32 {\n        acc |= v >> (i * 4);\n    }\n    acc\n}\n";
        let r = run(&[("crates/x/src/lib.rs", src)], "");
        assert_eq!(messages(&r), Vec::<String>::new());
    }

    #[test]
    fn checked_helper_call_sites_carry_an_obligation() {
        let files = [
            (
                "crates/addr/src/cast.rs",
                "pub const fn checked_u8(v: u128) -> u8 {\n    (v & 0xff) as u8\n}\n",
            ),
            (
                "crates/x/src/lib.rs",
                "use addr::cast::checked_u8;\npub fn ok(v: u128) -> u8 {\n    checked_u8(v & 0xff)\n}\npub fn bad(v: u128) -> u8 {\n    checked_u8(v + 1)\n}\n",
            ),
        ];
        let r = run(&files, "");
        let msgs = messages(&r);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(
            msgs.first()
                .is_some_and(|m| m.contains("argument of `checked_u8`")),
            "{msgs:?}"
        );
    }

    #[test]
    fn annotated_param_range_is_assumed_inside_and_checked_at_calls() {
        let toml = "[rules.R002]\nbits_params = [\"mask::len\"]\n";
        let files = [(
            "crates/x/src/lib.rs",
            "pub fn mask(len: u32) -> u128 {\n    if len == 0 {\n        0\n    } else {\n        1u128 << (len - 1)\n    }\n}\npub fn caller(n: u32) -> u128 {\n    mask(n)\n}\n",
        )];
        let r = run(&files, toml);
        let msgs = messages(&r);
        // Inside `mask` the annotation bounds len ≤ 128 so the shift is
        // proven; at the call site the unbounded `n` is flagged.
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(
            msgs.first()
                .is_some_and(|m| m.contains("bits parameter `len` of `mask`")),
            "{msgs:?}"
        );
    }

    #[test]
    fn unit_tags_propagate_and_mixing_is_flagged() {
        let toml = "[rules.R002]\nbits_params = [\"shl::n\"]\nnybble_params = [\"nyb::i\"]\n";
        let files = [(
            "crates/x/src/lib.rs",
            "pub fn shl(v: u128, n: u32) -> u128 {\n    if n >= 128 { 0 } else { v << n }\n}\npub fn nyb(v: u128, i: u32) -> u32 {\n    (shl(v, i) & 0xf) as u32\n}\n",
        )];
        let r = run(&files, toml);
        let msgs = messages(&r);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(
            msgs.first().is_some_and(|m| m.contains("unit mismatch")
                && m.contains("nybbles")
                && m.contains("bits")),
            "{msgs:?}"
        );
    }

    #[test]
    fn unit_tag_survives_linear_arithmetic() {
        // nybble + count stays nybbles, so passing it onward is clean;
        // the range check still applies (i ≤ 32 via annotation, +1 → 33
        // exceeds the nybble range and is flagged).
        let toml = "[rules.R002]\nnybble_params = [\"nyb::i\", \"next::i\"]\n";
        let files = [(
            "crates/x/src/lib.rs",
            "pub fn nyb(v: u128, i: u32) -> u32 {\n    let _ = v;\n    i\n}\npub fn next(v: u128, i: u32) -> u32 {\n    nyb(v, i);\n    nyb(v, i + 1)\n}\n",
        )];
        let r = run(&files, toml);
        let msgs = messages(&r);
        // Two findings would mean the tag degraded to a mix error; the
        // only expected finding is the range overflow at `i + 1`.
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(
            msgs.first()
                .is_some_and(|m| m.contains("nybbles parameter `i` of `nyb`")),
            "{msgs:?}"
        );
    }

    #[test]
    fn interprocedural_summary_bounds_return_values() {
        let files = [(
            "crates/x/src/lib.rs",
            "fn small() -> u32 {\n    7\n}\npub fn f(v: u64) -> u64 {\n    v << small()\n}\n",
        )];
        let r = run(&files, "");
        assert_eq!(messages(&r), Vec::<String>::new());
    }

    #[test]
    fn private_fn_entries_narrow_to_observed_args() {
        let files = [(
            "crates/x/src/lib.rs",
            "fn shifty(v: u64, n: u32) -> u64 {\n    v << n\n}\npub fn f(v: u64) -> u64 {\n    shifty(v, 9)\n}\n",
        )];
        let r = run(&files, "");
        assert_eq!(messages(&r), Vec::<String>::new());
    }

    #[test]
    fn pub_fn_entries_stay_at_declared_type_top() {
        let files = [(
            "crates/x/src/lib.rs",
            "pub fn shifty(v: u64, n: u32) -> u64 {\n    v << n\n}\npub fn f(v: u64) -> u64 {\n    shifty(v, 9)\n}\n",
        )];
        let r = run(&files, "");
        // `shifty` is pub: external callers may pass anything, so the
        // narrowing must NOT apply and the shift stays unproven.
        assert_eq!(messages(&r).len(), 1);
    }

    #[test]
    fn assumed_fields_bound_reads_and_are_checked_at_writes() {
        let toml = "[rules.R002]\nassumed_fields = [\"Prefix.len <= 128\"]\n";
        let files = [(
            "crates/x/src/lib.rs",
            "pub struct Prefix {\n    len: u8,\n}\nimpl Prefix {\n    pub fn new(len: u8) -> Prefix {\n        assert!(len <= 128);\n        Prefix { len }\n    }\n    pub fn bit(&self) -> u128 {\n        if self.len == 0 {\n            0\n        } else {\n            1u128 << (128 - self.len as u32)\n        }\n    }\n}\n",
        )];
        let r = run(&files, toml);
        assert_eq!(messages(&r), Vec::<String>::new());
    }

    #[test]
    fn struct_literal_write_violating_assumption_is_flagged() {
        let toml = "[rules.R002]\nassumed_fields = [\"Prefix.len <= 128\"]\n";
        let files = [(
            "crates/x/src/lib.rs",
            "pub struct Prefix {\n    len: u8,\n}\npub fn make(len: u8) -> Prefix {\n    Prefix { len }\n}\n",
        )];
        let r = run(&files, toml);
        let msgs = messages(&r);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(
            msgs.first()
                .is_some_and(|m| m.contains("field `Prefix.len` (assumed ≤ 128)")),
            "{msgs:?}"
        );
    }

    #[test]
    fn while_loop_condition_bounds_the_body() {
        let src = "pub fn f(v: u64) -> u64 {\n    let mut n = 0u32;\n    let mut acc = v;\n    while n < 64 {\n        acc ^= v << n;\n        n += 1;\n    }\n    acc\n}\n";
        let r = run(&[("crates/x/src/lib.rs", src)], "");
        assert_eq!(messages(&r), Vec::<String>::new());
    }

    #[test]
    fn comments_between_tokens_do_not_change_proofs() {
        // The walker reads the comment-free view, so the `!` of an
        // assert is found past a comment and still bounds the shift.
        let src = "pub fn f(v: u64, n: u32) -> u64 {\n    assert /* bound */ !(n < 64);\n    v << /* amount */ n\n}\n";
        let r = run(&[("crates/x/src/lib.rs", src)], "");
        assert_eq!(messages(&r), Vec::<String>::new());
        assert_eq!((r.stats.obligations, r.stats.proven), (1, 1));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn f(v: u64, n: u32) -> u64 {\n        v << n\n    }\n}\n";
        let r = run(&[("crates/x/src/lib.rs", src)], "");
        assert_eq!(messages(&r), Vec::<String>::new());
    }

    #[test]
    fn stats_count_passes_and_summaries() {
        let files = [(
            "crates/x/src/lib.rs",
            "fn a() -> u32 {\n    1\n}\npub fn b() -> u32 {\n    a() + 1\n}\n",
        )];
        let r = run(&files, "");
        assert_eq!(r.stats.passes, 3);
        assert_eq!(r.stats.fns_analyzed, 2);
        assert!(r.stats.summaries >= 2, "{:?}", r.stats);
    }
}
