//! Intra-workspace call graph over the symbol table.
//!
//! For every function body in [`crate::symbols::SymbolTable`] this
//! walks the token stream and records call sites — `free_fn(…)`,
//! `path::to::fn(…)`, `Type::method(…)`, `recv.method(…)`, including
//! turbofish forms — and resolves each one to the workspace functions
//! it may reach. Resolution is deliberately a *conservative
//! over-approximation*: a method call by name binds to every workspace
//! method with that name unless the receiver is `self` (which narrows
//! to the enclosing `impl` type), and unresolvable calls (std, core,
//! foreign crates) simply contribute no edges. Over-approximation is
//! the safe direction for panic-reachability: we may report a chain
//! that the borrow checker would rule out, but we never miss one.

use crate::lexer::{TokKind, Token};
use crate::scan::{matching, path_back, position, span, CodeTok};
use crate::symbols::{normalize_crate_seg, FnSym, SymbolTable};

/// One syntactic call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Workspace functions this site may invoke (empty for foreign
    /// calls).
    pub callees: Vec<usize>,
    /// 1-based source line of the callee name.
    pub line: usize,
    /// Rendered callee expression for diagnostics, e.g.
    /// `trie::densify` or `.node_at`.
    pub expr: String,
    /// Index of the call's opening `(` in the owning file's full token
    /// stream, so statement-level rules (L007) can walk the
    /// surrounding tokens instead of a single source line.
    pub paren: usize,
}

/// A call site's shape as the per-site classifiers in
/// [`crate::effects`] and [`crate::allocs`] read it: `recv.name(…)` or
/// `Qual::name(…)`, with the name right before the `(`.
#[derive(Clone, Copy, Debug)]
pub struct CallShape<'a> {
    /// The callee name token with its original index.
    pub name: CodeTok<'a>,
    /// True for `.name(`, false for `::name(`.
    pub dotted: bool,
    /// The token before the `.`/`::` (the receiver's or type's last
    /// token).
    pub qual: Option<&'a Token>,
    /// The token right after the `(` (`)` for an empty argument list).
    pub next: Option<&'a Token>,
}

impl Call {
    /// This call's shape in `view`, the comment-free view of the
    /// caller's file; `None` for a bare `name(…)` or a turbofish call.
    pub fn shape<'a>(&self, view: &[CodeTok<'a>]) -> Option<CallShape<'a>> {
        let at = position(view, self.paren)?;
        let tok = |k: usize| view.get(k).map(|&(_, t)| t);
        let name = *view.get(at.checked_sub(1)?)?;
        let sep = tok(at.checked_sub(2)?)?;
        if name.1.kind != TokKind::Ident || !(sep.is_op(".") || sep.is_op("::")) {
            return None;
        }
        Some(CallShape {
            name,
            dotted: sep.is_op("."),
            qual: at.checked_sub(3).and_then(tok),
            next: tok(at + 1),
        })
    }
}

/// Call sites grouped by calling function, same indexing as
/// `SymbolTable::fns`.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `calls[fn_id]` lists that function's call sites in source order.
    pub calls: Vec<Vec<Call>>,
}

/// Keywords that may immediately precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "in", "loop", "match", "return", "break", "continue", "fn",
    "let", "mut", "ref", "move", "as", "where", "impl", "dyn", "use", "pub", "mod", "struct",
    "enum", "trait", "type", "const", "static", "unsafe", "async", "await", "box", "yield",
];

impl CallGraph {
    /// Builds the graph; `views` must be the per-file views the table
    /// was built from.
    pub fn build(table: &SymbolTable, views: &[Vec<CodeTok<'_>>]) -> CallGraph {
        let calls = table
            .fns
            .iter()
            .map(|f| match (f.body, views.get(f.file)) {
                (Some((start, end)), Some(view)) => collect_calls(table, f, span(view, start, end)),
                _ => Vec::new(),
            })
            .collect();
        CallGraph { calls }
    }

    /// All `(callee, line, expr)` edges out of `caller`.
    pub fn edges(&self, caller: usize) -> impl Iterator<Item = (usize, usize, &str)> + '_ {
        self.calls
            .get(caller)
            .into_iter()
            .flatten()
            .flat_map(|c| c.callees.iter().map(move |&k| (k, c.line, c.expr.as_str())))
    }
}

/// Scans one body's comment-free tokens (paired with their index in
/// the file's full token stream) for call sites.
fn collect_calls(table: &SymbolTable, caller: &FnSym, toks: &[CodeTok<'_>]) -> Vec<Call> {
    let mut out = Vec::new();
    for (j, (orig, t)) in toks.iter().enumerate() {
        if !t.is_op("(") || j == 0 {
            continue;
        }
        // Walk back over an optional `::<…>` turbofish.
        let mut k = j - 1;
        if toks
            .get(k)
            .is_some_and(|(_, t)| matches!(t.text.as_str(), ">" | ">>"))
        {
            let Some(open) = matching(toks, k) else {
                continue;
            };
            if open < 2 || !toks.get(open - 1).is_some_and(|(_, t)| t.is_op("::")) {
                continue;
            }
            k = open - 2;
        }
        let name_tok = match toks.get(k) {
            Some((_, t)) if t.kind == TokKind::Ident => *t,
            _ => continue,
        };
        if NON_CALL_KEYWORDS.contains(&name_tok.text.as_str()) {
            continue;
        }
        let (p, path) = path_back(toks, k, "::");
        let before = p.checked_sub(1).and_then(|q| toks.get(q));
        if before.is_some_and(|(_, t)| t.is_ident("fn")) {
            continue; // nested `fn` declaration, not a call
        }
        let is_method = path.len() == 1 && before.is_some_and(|(_, t)| t.is_op("."));
        let receiver_is_self =
            is_method && p >= 2 && toks.get(p - 2).is_some_and(|(_, t)| t.is_ident("self"));
        let callees = resolve(table, caller, &path, is_method, receiver_is_self);
        let expr = if is_method {
            format!(".{}", name_tok.text)
        } else {
            path.join("::")
        };
        out.push(Call {
            callees,
            line: name_tok.line,
            expr,
            paren: *orig,
        });
    }
    out
}

/// Resolves a call path to candidate workspace functions.
fn resolve(
    table: &SymbolTable,
    caller: &FnSym,
    path: &[String],
    is_method: bool,
    receiver_is_self: bool,
) -> Vec<usize> {
    let Some(name) = path.last() else {
        return Vec::new();
    };
    if is_method {
        // `.name(…)`: narrow to the enclosing impl type when the
        // receiver is literally `self`, otherwise every method with
        // this name may be the target.
        if receiver_is_self {
            if let Some(ty) = &caller.self_ty {
                if let Some(ids) = table.methods_by_ty.get(&(ty.clone(), name.clone())) {
                    return ids.clone();
                }
            }
        }
        return table.methods_by_name.get(name).cloned().unwrap_or_default();
    }

    // Qualified or bare path call: build candidate absolute paths in
    // priority order, then take the first that resolves.
    let scope = table.scopes.get(caller.file);
    let mut candidates: Vec<Vec<String>> = Vec::new();
    if path.len() == 1 {
        // A bare ident may still be a `use`-imported name.
        match scope.and_then(|s| s.uses.get(name)) {
            Some(target) => candidates.push(target.clone()),
            None => return resolve_bare(table, caller, name),
        }
    } else {
        let Some(first) = path.first() else {
            return Vec::new();
        };
        let rest = || path.iter().skip(1).cloned();
        match first.as_str() {
            "Self" => {
                if let (Some(ty), 2) = (&caller.self_ty, path.len()) {
                    if let Some(ids) = table.methods_by_ty.get(&(ty.clone(), name.clone())) {
                        return ids.clone();
                    }
                }
                return Vec::new();
            }
            "self" => {
                let mut abs = vec![caller.krate.clone()];
                abs.extend(caller.module.iter().cloned());
                abs.extend(rest());
                candidates.push(abs);
            }
            "super" => {
                let mut abs = vec![caller.krate.clone()];
                let parent = caller.module.len().saturating_sub(1);
                abs.extend(caller.module.iter().take(parent).cloned());
                abs.extend(rest());
                candidates.push(abs);
            }
            _ => {
                if let Some(target) = scope.and_then(|s| s.uses.get(first)) {
                    // `use a::b; b::c(…)` — alias names a module/type.
                    let mut abs = target.clone();
                    abs.extend(rest());
                    candidates.push(abs);
                } else {
                    // First segment as a crate name, then the whole
                    // path relative to the caller's module, then
                    // relative to the crate root.
                    let mut abs = vec![normalize_crate_seg(first, &caller.krate)];
                    abs.extend(rest());
                    candidates.push(abs);
                    let mut rel = vec![caller.krate.clone()];
                    rel.extend(caller.module.iter().cloned());
                    rel.extend(path.iter().cloned());
                    candidates.push(rel);
                    let mut root = vec![caller.krate.clone()];
                    root.extend(path.iter().cloned());
                    candidates.push(root);
                }
            }
        }
    }

    for full in &candidates {
        let ids = resolve_absolute(table, full, name);
        if !ids.is_empty() {
            return ids;
        }
    }
    // Last resort: free fns with this name in the crate named by the
    // first candidate (handles re-exports that shift the module path).
    let Some(krate) = candidates.first().and_then(|c| c.first()) else {
        return Vec::new();
    };
    table
        .free_by_name
        .get(name)
        .into_iter()
        .flatten()
        .copied()
        .filter(|&id| table.fns.get(id).is_some_and(|f| &f.krate == krate))
        .collect()
}

/// Resolves one absolute path (`crate::…::name`) to functions: a
/// method when the penultimate segment is type-cased, else an exact
/// free-fn qname match.
fn resolve_absolute(table: &SymbolTable, full: &[String], name: &String) -> Vec<usize> {
    if full.len() >= 2 {
        if let Some(ty) = full.get(full.len().saturating_sub(2)) {
            if ty.chars().next().is_some_and(char::is_uppercase) {
                if let Some(ids) = table.methods_by_ty.get(&(ty.clone(), name.clone())) {
                    return ids.clone();
                }
            }
        }
    }
    let qname = full.join("::");
    table
        .free_by_name
        .get(name)
        .into_iter()
        .flatten()
        .copied()
        .filter(|&id| table.fns.get(id).is_some_and(|f| f.qname == qname))
        .collect()
}

/// Resolves a bare-ident call: a `use` alias was already expanded by
/// the caller, so try same module, then same crate. Type-cased idents
/// (`Some`, `Ok`, tuple structs) are constructors, not calls.
fn resolve_bare(table: &SymbolTable, caller: &FnSym, name: &str) -> Vec<usize> {
    if name.chars().next().is_some_and(char::is_uppercase) {
        return Vec::new();
    }
    let ids: Vec<usize> = table
        .free_by_name
        .get(name)
        .into_iter()
        .flatten()
        .copied()
        .collect();
    let same_module: Vec<usize> = ids
        .iter()
        .copied()
        .filter(|&id| {
            table
                .fns
                .get(id)
                .is_some_and(|f| f.krate == caller.krate && f.module == caller.module)
        })
        .collect();
    if !same_module.is_empty() {
        return same_module;
    }
    ids.into_iter()
        .filter(|&id| table.fns.get(id).is_some_and(|f| f.krate == caller.krate))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::tests::TestWorkspace;

    fn graph_of(files: &[(&str, &str)]) -> (SymbolTable, CallGraph) {
        let t = TestWorkspace::new(files);
        (t.symbols, t.calls)
    }

    fn callee_names(table: &SymbolTable, graph: &CallGraph, caller: &str) -> Vec<String> {
        let ids = table.find_by_suffix(caller);
        let id = *ids.first().expect("caller exists");
        graph
            .edges(id)
            .map(|(k, _, _)| table.fns[k].qname.clone())
            .collect()
    }

    #[test]
    fn same_module_and_qualified_calls() {
        let src = "\
fn helper() {}
mod sub { pub fn inner() {} }
fn driver() {
    helper();
    sub::inner();
    self::helper();
    std::process::exit(1);
}
";
        let (t, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let names = callee_names(&t, &g, "x::driver");
        assert!(names.contains(&"x::helper".into()), "{names:?}");
        assert!(names.contains(&"x::sub::inner".into()), "{names:?}");
        assert_eq!(names.iter().filter(|n| *n == "x::helper").count(), 2);
        assert_eq!(names.len(), 3, "std call contributes no edge: {names:?}");
    }

    #[test]
    fn use_alias_resolves_cross_crate() {
        let a = "pub fn run_census() { }\n";
        let b = "\
use v6census_census::supervisor::run_census;
fn main() { run_census(); }
";
        let (t, g) = graph_of(&[
            ("crates/census/src/supervisor.rs", a),
            ("crates/cli/src/main.rs", b),
        ]);
        let names = callee_names(&t, &g, "cli::main");
        assert_eq!(names, vec!["census::supervisor::run_census".to_string()]);
    }

    #[test]
    fn self_method_calls_narrow_to_impl_type() {
        let src = "\
struct A;
struct B;
impl A {
    fn step(&self) {}
    fn go(&self) { self.step(); }
}
impl B {
    fn step(&self) {}
}
fn free(a: &A, b: &B) { a.step(); }
";
        let (t, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let narrowed = callee_names(&t, &g, "A::go");
        assert_eq!(narrowed, vec!["x::A::step".to_string()], "self narrows");
        let broad = callee_names(&t, &g, "x::free");
        assert_eq!(
            broad.len(),
            2,
            "unknown receiver over-approximates: {broad:?}"
        );
    }

    #[test]
    fn type_path_and_turbofish_calls() {
        let src = "\
struct Node;
impl Node {
    pub fn new() -> Node { Node }
}
fn parse<T>() -> T { todo!() }
fn driver() {
    let n = Node::new();
    let v = parse::<u32>();
}
";
        let (t, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let names = callee_names(&t, &g, "x::driver");
        assert!(names.contains(&"x::Node::new".into()), "{names:?}");
        assert!(names.contains(&"x::parse".into()), "turbofish: {names:?}");
    }

    #[test]
    fn call_lines_and_exprs_are_recorded() {
        let src = "fn f() {}\nfn g() {\n    f();\n}\n";
        let (t, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let id = *t.find_by_suffix("x::g").first().expect("g");
        let calls = &g.calls[id];
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].line, 3);
        assert_eq!(calls[0].expr, "f");
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let src = "\
fn f(x: bool) {
    if (x) { }
    while (x) { }
    println!(\"{}\", 1);
    return ();
}
";
        let (t, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let id = *t.find_by_suffix("x::f").first().expect("f");
        assert!(g.calls[id].is_empty(), "{:?}", g.calls[id]);
    }
}
