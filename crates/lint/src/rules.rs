//! The rule registry: project-specific contracts with stable ids.
//!
//! Per-file lexical rules:
//!
//! | id   | name                     | contract                                |
//! |------|--------------------------|-----------------------------------------|
//! | L001 | no-panic-paths           | no `unwrap`/`expect`/`panic!`/`todo!`/  |
//! |      |                          | `unimplemented!`/`unreachable!`/literal |
//! |      |                          | indexing in non-test library code       |
//! | L002 | determinism              | no `HashMap`/`HashSet`, wall-clock      |
//! |      |                          | reads, or unstable float formatting in  |
//! |      |                          | modules feeding product output          |
//! | L003 | cast-safety              | no raw truncating `as u8/u16/u32/usize` |
//! |      |                          | in bit/nybble math                      |
//! | L004 | error-taxonomy           | public `fn -> Result` uses typed errors |
//! | L005 | exit-codes               | `process::exit` only with documented    |
//! |      |                          | `EXIT_*` constants                      |
//! | L006 | unchecked-bit-arithmetic | no bare `+ - *` on sized integers or    |
//! |      |                          | variable-amount shifts in bit math      |
//!
//! Workspace-level semantic rules (run over the symbol table and call
//! graph, see [`crate::symbols`] / [`crate::callgraph`]):
//!
//! | id   | name                     | contract                                |
//! |------|--------------------------|-----------------------------------------|
//! | L007 | discarded-results        | `let _ =` / trailing `.ok();` must not  |
//! |      |                          | swallow a workspace `Result`            |
//! | L008 | vfs-bypass               | durability-scoped modules never mutate  |
//! |      |                          | the real filesystem behind `core::vfs`  |
//! |      |                          | (see [`crate::effects`])                |
//! | R001 | panic-reachability       | no non-test call path from the          |
//! |      |                          | configured entry points reaches a       |
//! |      |                          | panicking construct (see               |
//! |      |                          | [`crate::reach`])                       |
//! | R003 | lock-order               | the interprocedural lock-acquisition    |
//! |      |                          | graph is acyclic (see [`crate::locks`]) |
//! | R004 | blocking-under-lock      | no path blocks (I/O, sleep, join, recv) |
//! |      |                          | while a Mutex/RwLock guard is live      |
//! |      |                          | (see [`crate::effects`])                |
//! | R005 | alloc-in-hot-loop        | no per-call allocation inside a loop    |
//! |      |                          | reachable from a `[hot]` entry point    |
//! |      |                          | (see [`crate::allocs`])                 |
//! | R006 | capacity-discipline      | a Vec/String grown in a loop shows a    |
//! |      |                          | dominating reservation or is a `&mut`   |
//! |      |                          | out-param (see [`crate::allocs`])       |
//!
//! Every rule is scoped by path prefixes from `lint.toml` and can be
//! suppressed per line (or per file) with
//! `// lint: allow(<rule>, reason = "...")`.

use crate::callgraph::{Call, CallGraph};
use crate::config::Config;
use crate::lexer::{int_suffix, TokKind, Token};
use crate::report::{Diagnostic, Severity};
use crate::scan::{matching, position, CodeTok, ScannedFile};
use crate::symbols::{FnSym, SymbolTable};
use std::collections::BTreeSet;

/// A lint rule over one scanned file.
pub trait Rule {
    /// Stable id, e.g. `L001`.
    fn id(&self) -> &'static str;
    /// Human-readable name, e.g. `no-panic-paths`.
    fn name(&self) -> &'static str;
    /// One-line contract description (for `--list-rules`).
    fn describe(&self) -> &'static str;
    /// Appends findings for `file` (whose comment-free view is `code`)
    /// to `out`.
    fn check(
        &self,
        file: &ScannedFile,
        code: &[CodeTok<'_>],
        cfg: &Config,
        out: &mut Vec<Diagnostic>,
    );
}

/// All registered per-file rules, in id order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoPanicPaths),
        Box::new(Determinism),
        Box::new(CastSafety),
        Box::new(ErrorTaxonomy),
        Box::new(ExitCodes),
        Box::new(UncheckedArith),
    ]
}

/// Workspace-level context handed to semantic rules: every scanned
/// file plus the symbol table and call graph built over them.
pub struct Workspace<'a> {
    /// All scanned files, in discovery order.
    pub files: &'a [ScannedFile],
    /// One comment-free view per file, same indexing as `files`, built
    /// once per run: every semantic layer indexes these.
    pub views: Vec<Vec<CodeTok<'a>>>,
    /// The item-level symbol table.
    pub symbols: &'a SymbolTable,
    /// The intra-workspace call graph (same fn indexing as `symbols`).
    pub calls: &'a CallGraph,
}

impl Workspace<'_> {
    /// True for a known non-test function.
    pub fn non_test(&self, id: usize) -> bool {
        self.symbols.fns.get(id).is_some_and(|f| !f.is_test)
    }

    /// The call sites of function `id`, in source order.
    pub fn calls_of(&self, id: usize) -> &[Call] {
        self.calls.calls.get(id).map_or(&[], Vec::as_slice)
    }

    /// The workspace-relative path of the file declaring function `id`.
    pub fn rel_of(&self, id: usize) -> &str {
        let file = self
            .symbols
            .fns
            .get(id)
            .and_then(|f| self.files.get(f.file));
        file.map_or("", |x| x.rel.as_str())
    }
}

/// A lint rule over the whole workspace at once — for contracts that a
/// single file cannot witness (cross-crate data flow, reachability).
pub trait SemanticRule {
    /// Stable id, e.g. `L007`.
    fn id(&self) -> &'static str;
    /// Human-readable name, e.g. `discarded-results`.
    fn name(&self) -> &'static str;
    /// One-line contract description (for `--list-rules`).
    fn describe(&self) -> &'static str;
    /// Appends findings to `out`. The engine scopes each finding by
    /// its own file path afterwards.
    fn check(&self, ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Diagnostic>);
}

/// All registered semantic rules, in id order.
pub fn semantic_registry() -> Vec<Box<dyn SemanticRule>> {
    vec![
        Box::new(DiscardedResults),
        Box::new(crate::effects::VfsBypass),
        Box::new(crate::reach::PanicReach),
        Box::new(crate::dataflow::BitDomain),
        Box::new(crate::locks::LockOrder),
        Box::new(crate::effects::BlockingUnderLock),
        Box::new(crate::allocs::AllocInHotLoop),
        Box::new(crate::allocs::CapacityDiscipline),
    ]
}

/// Builds a semantic-rule finding anchored at `line` of `file`.
pub(crate) fn semantic_finding(
    rule: &str,
    name: &'static str,
    file: &ScannedFile,
    line: usize,
    message: String,
    chain: Option<String>,
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
        chain,
        severity: Severity::Deny,
        suppressed: false,
        discharged_by: None,
    }
}

/// Builds a lexical-rule finding with the file/line context filled in.
/// Severity starts at `Deny`; the engine re-maps it from the CLI flags.
fn finding(rule: &dyn Rule, file: &ScannedFile, line: usize, message: String) -> Diagnostic {
    semantic_finding(rule.id(), rule.name(), file, line, message, None)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Occurrences of `needle` in `hay` whose surrounding characters do not
/// extend an identifier (so `panic!` does not match `dont_panic!`, and
/// `u8` does not match `u80`). A boundary is only required on a side
/// where the needle itself starts/ends with an identifier char —
/// `.unwrap()` legitimately follows its receiver.
pub(crate) fn token_positions(hay: &str, needle: &str) -> Vec<usize> {
    let needs_before = needle.chars().next().is_some_and(is_ident_char);
    let needs_after = needle.chars().next_back().is_some_and(is_ident_char);
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(i) = hay[from..].find(needle) {
        let at = from + i;
        let before_ok = !needs_before
            || hay[..at]
                .chars()
                .next_back()
                .is_none_or(|c| !is_ident_char(c));
        let after_ok = !needs_after
            || hay[at + needle.len()..]
                .chars()
                .next()
                .is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

/// Iterates the non-test lines of a file as `(1-based line, code)`.
pub(crate) fn code_lines(file: &ScannedFile) -> impl Iterator<Item = (usize, &str)> {
    file.lines
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.in_test && !l.code.trim().is_empty())
        .map(|(i, l)| (i + 1, l.code.as_str()))
}

// ---------------------------------------------------------------- L001

/// L001 no-panic-paths: library code must return typed errors, not die.
pub struct NoPanicPaths;

/// What L001 looks for, and why each token is a panic path.
pub(crate) const PANIC_TOKENS: &[(&str, &str)] = &[
    (".unwrap()", "panics on None/Err"),
    (".expect(", "panics on None/Err"),
    ("panic!(", "unconditional panic"),
    ("todo!(", "unconditional panic"),
    ("unimplemented!(", "unconditional panic"),
    ("unreachable!(", "panics if ever reached"),
];

impl Rule for NoPanicPaths {
    fn id(&self) -> &'static str {
        "L001"
    }
    fn name(&self) -> &'static str {
        "no-panic-paths"
    }
    fn describe(&self) -> &'static str {
        "no unwrap/expect/panic!/todo!/unimplemented!/unreachable!/indexing-by-literal in non-test library code"
    }
    fn check(
        &self,
        file: &ScannedFile,
        _: &[CodeTok<'_>],
        _cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        for (line_no, code) in code_lines(file) {
            for &(tok, why) in PANIC_TOKENS {
                // `.unwrap()` / `.expect(` start with '.', which the
                // boundary check treats as a non-ident char on both
                // sides, so token_positions works for all of these.
                if !token_positions(code, tok).is_empty() {
                    out.push(finding(
                        self,
                        file,
                        line_no,
                        format!(
                            "`{}` {} — return the crate's typed error instead",
                            tok.trim_end_matches('('),
                            why
                        ),
                    ));
                }
            }
            for at in literal_index_positions(code) {
                let upto = &code[at..];
                let end = upto.find(']').map(|e| at + e + 1).unwrap_or(code.len());
                out.push(finding(
                    self,
                    file,
                    line_no,
                    format!(
                        "literal indexing `{}` panics when out of bounds — destructure or use .get()",
                        &code[at..end]
                    ),
                ));
            }
        }
    }
}

/// Positions of `[` starting a literal index (`x[0]`, `self.0[3]`) —
/// a `[` whose preceding non-space char continues an expression and
/// whose bracketed content is an integer literal.
pub(crate) fn literal_index_positions(code: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, c) in code.char_indices() {
        if c != '[' {
            continue;
        }
        let prev = code[..i].trim_end().chars().next_back();
        let indexes_expr = prev.is_some_and(|p| is_ident_char(p) || p == ')' || p == ']');
        if !indexes_expr {
            continue;
        }
        let inner_end = match code[i + 1..].find(']') {
            Some(e) => i + 1 + e,
            None => continue,
        };
        let inner = code[i + 1..inner_end].trim();
        if !inner.is_empty() && inner.chars().all(|c| c.is_ascii_digit() || c == '_') {
            out.push(i);
        }
    }
    out
}

// ---------------------------------------------------------------- L002

/// L002 determinism: modules feeding `equivalence_key` or product
/// output must not read iteration-order- or wall-clock-dependent state,
/// and must not format floats in run-to-run-unstable ways.
pub struct Determinism;

/// Default forbidden tokens when `lint.toml` does not override them.
const DETERMINISM_TOKENS: &[&str] = &[
    "HashMap",
    "HashSet",
    "SystemTime::now",
    "Instant::now",
    "RandomState",
];

impl Rule for Determinism {
    fn id(&self) -> &'static str {
        "L002"
    }
    fn name(&self) -> &'static str {
        "determinism"
    }
    fn describe(&self) -> &'static str {
        "no HashMap/HashSet, wall-clock reads, or unstable float formatting in product-producing modules"
    }
    fn check(
        &self,
        file: &ScannedFile,
        _: &[CodeTok<'_>],
        cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        let configured = cfg.list("rules.L002", "tokens");
        let defaults: Vec<String> = DETERMINISM_TOKENS.iter().map(|s| s.to_string()).collect();
        let tokens: &[String] = if configured.is_empty() {
            &defaults
        } else {
            configured
        };
        for (line_no, code) in code_lines(file) {
            for tok in tokens {
                if !token_positions(code, tok).is_empty() {
                    out.push(finding(
                        self,
                        file,
                        line_no,
                        format!(
                            "`{tok}` is nondeterministic (iteration order or wall clock) in a module that feeds equivalence_key/product output — use BTreeMap/BTreeSet or plumb times through explicitly"
                        ),
                    ));
                }
            }
        }
        // Float-format check runs over the *string literals* the scanner
        // collected, because format strings are invisible in `code`.
        for (i, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for s in &line.strings {
                if let Some(spec) = unstable_float_format(s) {
                    out.push(finding(
                        self,
                        file,
                        i + 1,
                        format!(
                            "format spec `{spec}` (scientific or runtime-varying precision) can change product bytes between runs — use a fixed `{{:.N}}` precision"
                        ),
                    ));
                }
            }
        }
    }
}

/// Scans a format string for specs whose rendering varies with runtime
/// values: scientific notation (`{:e}`/`{:E}`) and argument-supplied
/// precision (`{:.*}`, `{:.1$}`, `{:.prec$}`). Returns the first such
/// spec.
fn unstable_float_format(s: &str) -> Option<String> {
    let mut chars = s.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        if c != '{' {
            continue;
        }
        if chars.peek().map(|&(_, c)| c) == Some('{') {
            chars.next(); // escaped `{{`
            continue;
        }
        let rest = &s[start + 1..];
        let Some(end) = rest.find('}') else { break };
        let spec = &rest[..end];
        if let Some(fmt) = spec.split_once(':').map(|(_, f)| f) {
            let scientific = fmt.ends_with('e') || fmt.ends_with('E');
            let runtime_precision = fmt.contains(".*")
                || (fmt.contains('.') && fmt[fmt.find('.').unwrap_or(0)..].contains('$'));
            if scientific || runtime_precision {
                return Some(format!("{{{spec}}}"));
            }
        }
    }
    None
}

// ---------------------------------------------------------------- L003

/// L003 cast-safety: raw `as u8/u16/u32/usize` silently truncates;
/// bit/nybble math must go through `v6census_addr::cast` helpers (which
/// `debug_assert` losslessness) or the lossless `uN::from`.
pub struct CastSafety;

const NARROWING_TYPES: &[&str] = &["u8", "u16", "u32", "usize"];

impl Rule for CastSafety {
    fn id(&self) -> &'static str {
        "L003"
    }
    fn name(&self) -> &'static str {
        "cast-safety"
    }
    fn describe(&self) -> &'static str {
        "no raw `as u8/u16/u32/usize` in bit/nybble math — use v6census_addr::cast::checked_* or uN::from"
    }
    fn check(
        &self,
        file: &ScannedFile,
        _: &[CodeTok<'_>],
        _cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        for (line_no, code) in code_lines(file) {
            for at in token_positions(code, "as") {
                let after = code[at + 2..].trim_start();
                let Some(ty) = NARROWING_TYPES.iter().find(|t| {
                    after.starts_with(**t)
                        && after[t.len()..]
                            .chars()
                            .next()
                            .is_none_or(|c| !is_ident_char(c))
                }) else {
                    continue;
                };
                out.push(finding(
                    self,
                    file,
                    line_no,
                    format!(
                        "raw `as {ty}` can silently truncate — use cast::checked_{ty} (debug_asserts losslessness), `{ty}::from` for widening, or justify with an allow pragma"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- L004

/// L004 error-taxonomy: a public fallible API must expose the crate's
/// typed error so callers can triage programmatically; `String` and
/// `Box<dyn Error>` erase the taxonomy.
pub struct ErrorTaxonomy;

impl Rule for ErrorTaxonomy {
    fn id(&self) -> &'static str {
        "L004"
    }
    fn name(&self) -> &'static str {
        "error-taxonomy"
    }
    fn describe(&self) -> &'static str {
        "public fn returning Result must use a typed error, not String or Box<dyn Error>"
    }
    fn check(
        &self,
        file: &ScannedFile,
        _: &[CodeTok<'_>],
        _cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        let lines: Vec<(usize, &str)> = code_lines(file).collect();
        for (idx, &(line_no, code)) in lines.iter().enumerate() {
            let Some(fn_at) = pub_fn_position(code) else {
                continue;
            };
            // Join the signature until its body `{` or declaration `;`.
            let mut sig = code[fn_at..].to_string();
            let mut extra = 0usize;
            while !sig.contains('{') && !sig.contains(';') && extra < 24 {
                extra += 1;
                match lines.get(idx + extra) {
                    Some(&(_, next)) => {
                        sig.push(' ');
                        sig.push_str(next);
                    }
                    None => break,
                }
            }
            let sig = sig.split('{').next().unwrap_or(&sig);
            let Some(ret) = sig.split("->").nth(1) else {
                continue;
            };
            if let Some(err_ty) = stringly_error(ret) {
                out.push(finding(
                    self,
                    file,
                    line_no,
                    format!(
                        "public fn returns `Result<_, {err_ty}>` — use the crate's typed error so callers can triage variants"
                    ),
                ));
            }
        }
    }
}

/// The byte position of `fn` in a `pub fn` / `pub(crate) fn` /
/// `pub const fn` / `pub async fn` item line, if this line declares one.
fn pub_fn_position(code: &str) -> Option<usize> {
    for at in token_positions(code, "fn") {
        let before = code[..at].trim_end();
        // Everything between `pub` and `fn` must be visibility scope or
        // fn qualifiers; that rules out `pub struct S { f: fn() }` etc.
        let Some(p) = before.rfind("pub") else {
            continue;
        };
        let between = before[p + 3..].trim();
        // Strip a `(crate)` / `(super)` / `(in path)` visibility scope.
        let vis_stripped = if let Some(rest) = between.strip_prefix('(') {
            rest.split_once(')').map(|(_, r)| r.trim()).unwrap_or(rest)
        } else {
            between
        };
        let quals_ok = vis_stripped
            .split_whitespace()
            .all(|w| matches!(w, "const" | "async" | "unsafe" | "extern" | "\"C\""));
        if quals_ok {
            return Some(at);
        }
    }
    None
}

/// If `ret` is `Result<_, E>` with a stringly `E`, returns `E`.
fn stringly_error(ret: &str) -> Option<String> {
    let at = ret.find("Result<")?;
    let args = &ret[at + "Result<".len()..];
    // Split the generic args at top angle-bracket level.
    let mut depth = 0i32;
    let mut top_commas = Vec::new();
    let mut end = args.len();
    for (i, c) in args.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' if depth == 0 => {
                end = i;
                break;
            }
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => top_commas.push(i),
            _ => {}
        }
    }
    let err_ty = match top_commas.first() {
        Some(&comma) => args[comma + 1..end].trim(),
        None => return None, // one-arg Result alias — typed by definition
    };
    if err_ty == "String" || err_ty.starts_with("Box<dyn") {
        Some(err_ty.to_string())
    } else {
        None
    }
}

// ---------------------------------------------------------------- L005

/// L005 exit-codes: the CLI's exit-code contract (0 ok / 1 data /
/// 2 usage / 3 degraded) is enforced by requiring every `process::exit`
/// to name one of the documented constants.
pub struct ExitCodes;

/// Default allowed arguments when `lint.toml` does not override them.
const EXIT_IDENTS: &[&str] = &["EXIT_OK", "EXIT_DATA_ERROR", "EXIT_USAGE", "EXIT_DEGRADED"];

impl Rule for ExitCodes {
    fn id(&self) -> &'static str {
        "L005"
    }
    fn name(&self) -> &'static str {
        "exit-codes"
    }
    fn describe(&self) -> &'static str {
        "process::exit must use the documented EXIT_OK/EXIT_DATA_ERROR/EXIT_USAGE/EXIT_DEGRADED constants"
    }
    fn check(
        &self,
        file: &ScannedFile,
        _: &[CodeTok<'_>],
        cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        let configured = cfg.list("rules.L005", "exit_idents");
        let defaults: Vec<String> = EXIT_IDENTS.iter().map(|s| s.to_string()).collect();
        let allowed: &[String] = if configured.is_empty() {
            &defaults
        } else {
            configured
        };
        for (line_no, code) in code_lines(file) {
            let mut from = 0;
            while let Some(i) = code[from..].find("process::exit(") {
                let at = from + i;
                let arg_start = at + "process::exit(".len();
                let arg = match code[arg_start..].find(')') {
                    Some(e) => code[arg_start..arg_start + e].trim(),
                    None => code[arg_start..].trim(),
                };
                // Accept qualified paths by their last segment.
                let last = arg.rsplit("::").next().unwrap_or(arg);
                if !allowed.iter().any(|a| a == last) {
                    out.push(finding(
                        self,
                        file,
                        line_no,
                        format!(
                            "`process::exit({arg})` bypasses the documented exit-code contract — use one of {}",
                            allowed.join("/")
                        ),
                    ));
                }
                from = arg_start;
            }
        }
    }
}

// ---------------------------------------------------------------- L006

/// L006 unchecked-bit-arithmetic: in bit-twiddling code, bare `+ - *`
/// on explicitly sized integers overflows silently in release builds
/// (and panics in debug), and a shift by a non-literal amount panics in
/// debug whenever the amount reaches the type's width. Both must be
/// spelled with `checked_*`/`wrapping_*`/`saturating_*` (or the audited
/// `v6census_addr::bits` helpers) so the overflow policy is explicit.
pub struct UncheckedArith;

/// The explicitly sized integer types L006 tracks. `usize`/`isize` are
/// excluded: they are index/len arithmetic, not bit math.
pub(crate) const SIZED_INTS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

/// Identifier keywords that precede a *unary* `-`/`*`, not a binary
/// operator, despite lexing as idents.
const EXPR_BREAK_KEYWORDS: &[&str] = &[
    "return", "match", "if", "while", "in", "break", "else", "let", "as",
];

/// Arithmetic panic/overflow sites in one file (comment-free view
/// `code`) as `(line, what)`. Shared between the L006 rule and R001
/// panic-reachability.
pub(crate) fn arith_sites(file: &ScannedFile, code: &[CodeTok<'_>]) -> Vec<(usize, String)> {
    let tok = |k: usize| code.get(k).map(|&(_, t)| t);

    // Names declared with an explicitly sized type (`x: u8` covers
    // locals, params, and struct fields) or `let`-bound to a
    // sized-suffix literal (`let m = 1u128`).
    let mut tracked: BTreeSet<&str> = BTreeSet::new();
    for (w, &(_, t)) in code.iter().enumerate() {
        if t.kind == TokKind::Ident
            && tok(w + 1).is_some_and(|n| n.is_op(":"))
            && tok(w + 2)
                .is_some_and(|n| n.kind == TokKind::Ident && SIZED_INTS.contains(&n.text.as_str()))
        {
            tracked.insert(t.text.as_str());
        }
        if t.is_ident("let") {
            let mut n = w + 1;
            if tok(n).is_some_and(|t| t.is_ident("mut")) {
                n += 1;
            }
            if tok(n).is_some_and(|t| t.kind == TokKind::Ident)
                && tok(n + 1).is_some_and(|t| t.is_op("="))
                && tok(n + 2).is_some_and(|t| {
                    t.kind == TokKind::Int
                        && int_suffix(&t.text).is_some_and(|s| SIZED_INTS.contains(&s))
                })
            {
                if let Some(name) = tok(n) {
                    tracked.insert(name.text.as_str());
                }
            }
        }
    }

    let sized_operand = |tok: Option<&Token>| {
        tok.is_some_and(|t| match t.kind {
            TokKind::Ident => tracked.contains(t.text.as_str()),
            TokKind::Int => int_suffix(&t.text).is_some_and(|s| SIZED_INTS.contains(&s)),
            _ => false,
        })
    };
    let int_literal = |tok: Option<&Token>| tok.is_some_and(|t| t.kind == TokKind::Int);

    let mut out = Vec::new();
    // Angle-bracket depth, so `>>` closing nested generics
    // (`IntoIterator<Item = Addr>>(iter`) is not mistaken for a shift.
    // A `<` opens generics only when it hugs the preceding ident or
    // `::` (`Vec<`, `collect::<`) AND the next token can start a type;
    // a spaced `a < b` is a comparison. An un-spaced comparison
    // (`a<b`) still opens a bogus context, so operators that cannot
    // occur inside generics (`&&`, `||`, `==`, …) reset the depth —
    // otherwise a real shift later in the same statement would be
    // swallowed. (`a<b` followed by a shift before any such operator,
    // e.g. in one argument list, remains a known blind spot.)
    let mut angle = 0usize;
    for (j, &(_, t)) in code.iter().enumerate() {
        if t.kind != TokKind::Op {
            continue;
        }
        let hugs_prev = j.checked_sub(1).and_then(tok).is_some_and(|p| {
            p.end == t.start && (p.kind == TokKind::Ident || p.is_op("::") || p.is_op(">"))
        });
        let next_starts_type = tok(j + 1).is_some_and(|n| match n.kind {
            TokKind::Ident | TokKind::Lifetime | TokKind::Int => true,
            TokKind::Op => matches!(n.text.as_str(), "<" | "&" | "(" | "[" | "*"),
            _ => false,
        });
        match t.text.as_str() {
            "<" if hugs_prev && next_starts_type => angle = angle.saturating_add(1),
            ">" if angle > 0 => angle = angle.saturating_sub(1),
            ">>" if angle > 0 => {
                angle = angle.saturating_sub(2);
                continue;
            }
            ";" | "{" | "}" | "&&" | "||" | "==" | "!=" | "<=" | ">=" | "=>" => angle = 0,
            _ => {}
        }
        if file.is_test_line(t.line) {
            continue;
        }
        let prev = j.checked_sub(1).and_then(tok);
        let next = tok(j + 1);
        // A binary operator's left operand just ended: an ident (but
        // not a statement keyword), a literal, or a closing bracket.
        let binary = prev.is_some_and(|p| match p.kind {
            TokKind::Ident => !EXPR_BREAK_KEYWORDS.contains(&p.text.as_str()),
            TokKind::Int | TokKind::Float => true,
            TokKind::Op => matches!(p.text.as_str(), ")" | "]"),
            _ => false,
        });
        if !binary {
            continue;
        }
        match t.text.as_str() {
            // Flag when an operand is a tracked sized integer — unless
            // both sides are literals, which the compiler
            // const-evaluates and rejects on overflow itself.
            "+" | "-" | "*" | "+=" | "-=" | "*="
                if (sized_operand(prev) || sized_operand(next))
                    && !(int_literal(prev) && int_literal(next)) =>
            {
                out.push((
                    t.line,
                    format!("bare `{}` on a sized integer can overflow", t.text),
                ));
            }
            "<<" | ">>" | "<<=" | ">>=" => {
                // A literal shift amount is compiler-checked; anything
                // else can reach the type's width at runtime. Requiring
                // an expression start on the right skips `Vec<Vec<u8>>`
                // generic closers.
                let next_is_expr = next.is_some_and(|t| {
                    matches!(t.kind, TokKind::Ident | TokKind::Int) || t.is_op("(")
                });
                if next_is_expr && !int_literal(next) {
                    out.push((
                        t.line,
                        format!(
                            "`{}` by a non-literal amount panics in debug once the amount reaches the type's width",
                            t.text
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

impl Rule for UncheckedArith {
    fn id(&self) -> &'static str {
        "L006"
    }
    fn name(&self) -> &'static str {
        "unchecked-bit-arithmetic"
    }
    fn describe(&self) -> &'static str {
        "no bare + - * on sized integers or variable-amount shifts in bit math — use checked_*/wrapping_* or addr::bits"
    }
    fn check(
        &self,
        file: &ScannedFile,
        code: &[CodeTok<'_>],
        _cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        for (line, what) in arith_sites(file, code) {
            out.push(finding(
                self,
                file,
                line,
                format!(
                    "{what} — make the overflow policy explicit with checked_*/wrapping_*/saturating_* or the audited v6census_addr::bits helpers"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- L007

/// L007 discarded-results: the workspace's error taxonomy only works if
/// callers look at the `Result`s. `let _ = fallible()` and a trailing
/// `fallible().ok();` both compile silently while dropping the error.
pub struct DiscardedResults;

impl SemanticRule for DiscardedResults {
    fn id(&self) -> &'static str {
        "L007"
    }
    fn name(&self) -> &'static str {
        "discarded-results"
    }
    fn describe(&self) -> &'static str {
        "`let _ =` or a trailing `.ok();` must not swallow a workspace Result — handle it, propagate it, or pragma with a reason"
    }
    fn check(&self, ws: &Workspace<'_>, _cfg: &Config, out: &mut Vec<Diagnostic>) {
        let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (id, f) in ws.symbols.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let Some(file) = ws.files.get(f.file) else {
                continue;
            };
            for call in ws.calls_of(id) {
                let candidates: Vec<&FnSym> = call
                    .callees
                    .iter()
                    .filter_map(|&k| ws.symbols.fns.get(k))
                    .filter(|c| !c.is_test)
                    .collect();
                if candidates.is_empty() || !candidates.iter().any(|c| c.returns_result) {
                    continue;
                }
                // The call resolves by name only, so same-name
                // infallible candidates make a `let _ =` legitimate;
                // require *every* candidate to return Result before
                // claiming a Result was discarded there.
                let all_result = candidates.iter().all(|c| c.returns_result);
                let Some(line) = file.lines.get(call.line.saturating_sub(1)) else {
                    continue;
                };
                if line.in_test {
                    continue;
                }
                let Some(toks) = ws.views.get(f.file) else {
                    continue;
                };
                let Some(pos) = position(toks, call.paren) else {
                    continue;
                };
                let (stmt_start, saw_eq) = stmt_context(toks, pos);
                let is_let_underscore =
                    toks.get(stmt_start).is_some_and(|(_, t)| t.is_ident("let"))
                        && toks
                            .get(stmt_start + 1)
                            .is_some_and(|(_, t)| t.is_ident("_"))
                        && toks.get(stmt_start + 2).is_some_and(|(_, t)| t.is_op("="));
                let how = if is_let_underscore && all_result {
                    "`let _ =` discards"
                } else if !is_let_underscore && !saw_eq && trailing_ok_discard(toks, pos) {
                    "a trailing `.ok()` swallows"
                } else {
                    continue;
                };
                if seen.insert((f.file, call.line)) {
                    out.push(semantic_finding(
                        self.id(),
                        self.name(),
                        file,
                        call.line,
                        format!(
                            "{how} the Result of `{}` — handle the error, propagate it, or add an allow pragma with a reason",
                            call.expr
                        ),
                        None,
                    ));
                }
            }
        }
    }
}

/// Walks left from the token at `pos` to the start of the enclosing
/// statement. Returns `(statement start index, saw a bare depth-0 `=`)`.
/// Closers passed on the way (a preceding `{ … }` block, a closure
/// body) are skipped as balanced groups so their `;`/`=` don't count.
fn stmt_context(toks: &[CodeTok<'_>], pos: usize) -> (usize, bool) {
    let mut depth = 0i64;
    let mut saw_eq = false;
    let mut j = pos;
    while j > 0 {
        j -= 1;
        let (_, t) = toks[j];
        if t.kind != TokKind::Op {
            continue;
        }
        match t.text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" if depth == 0 => return (j + 1, saw_eq),
            "(" | "[" | "{" => depth -= 1,
            ";" | "," if depth == 0 => return (j + 1, saw_eq),
            "=" if depth == 0 => saw_eq = true,
            _ => {}
        }
    }
    (0, saw_eq)
}

/// True when the postfix chain following the call's argument list (its
/// opening `(` is at `open`) ends in `.ok()` immediately followed by
/// `;` — i.e. the `Result` is converted to an `Option` and dropped.
/// Works on the token stream, so a chain wrapped across lines is seen
/// whole.
fn trailing_ok_discard(toks: &[CodeTok<'_>], open: usize) -> bool {
    let past = |at: usize| matching(toks, at).map(|close| close + 1);
    let Some(mut j) = past(open) else {
        return false;
    };
    let mut last_is_ok = false;
    loop {
        match toks.get(j).map(|(_, t)| *t) {
            Some(t) if t.is_op(".") => {
                let Some((_, name)) = toks.get(j + 1) else {
                    return false;
                };
                if !matches!(name.kind, TokKind::Ident | TokKind::Int) {
                    return false; // not a field/method chain we model
                }
                let mut after = j + 2;
                // Optional `::<…>` turbofish between name and `(`.
                if toks.get(after).is_some_and(|(_, t)| t.is_op("::"))
                    && toks.get(after + 1).is_some_and(|(_, t)| t.is_op("<"))
                {
                    match past(after + 1) {
                        Some(n) => after = n,
                        None => return false,
                    }
                }
                if toks.get(after).is_some_and(|(_, t)| t.is_op("(")) {
                    last_is_ok = name.text == "ok" && after == j + 2;
                    match past(after) {
                        Some(n) => j = n,
                        None => return false,
                    }
                } else {
                    last_is_ok = false; // field access or `.await`
                    j = after;
                }
            }
            Some(t) if t.is_op("?") => {
                last_is_ok = false;
                j += 1;
            }
            Some(t) => return last_is_ok && t.is_op(";"),
            None => return false,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::scan::{code_views, scan};
    use std::path::PathBuf;

    /// A test-owned workspace: scanned in-memory sources plus the
    /// symbol table and call graph built over them.
    pub(crate) struct TestWorkspace {
        pub(crate) files: Vec<ScannedFile>,
        pub(crate) symbols: SymbolTable,
        pub(crate) calls: CallGraph,
    }

    impl TestWorkspace {
        /// Scans `(workspace-relative path, source)` pairs and builds
        /// the semantic layers over them.
        pub(crate) fn new(files: &[(&str, &str)]) -> TestWorkspace {
            let files: Vec<ScannedFile> = files
                .iter()
                .map(|(rel, src)| scan(PathBuf::from(rel), (*rel).into(), src))
                .collect();
            let views = code_views(&files);
            let symbols = SymbolTable::build(&files, &views);
            let calls = CallGraph::build(&symbols, &views);
            TestWorkspace {
                files,
                symbols,
                calls,
            }
        }

        /// The borrowed view the semantic rules take.
        pub(crate) fn ws(&self) -> Workspace<'_> {
            Workspace {
                files: &self.files,
                views: code_views(&self.files),
                symbols: &self.symbols,
                calls: &self.calls,
            }
        }
    }

    fn check_one(rule: &dyn Rule, src: &str) -> Vec<Diagnostic> {
        let f = scan(PathBuf::from("t.rs"), "t.rs".into(), src);
        let mut out = Vec::new();
        rule.check(
            &f,
            &code_views(std::slice::from_ref(&f))[0],
            &Config::default(),
            &mut out,
        );
        out
    }

    #[test]
    fn l001_flags_panic_paths_not_lookalikes() {
        let bad = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"n\"); let z = v[0]; }\n";
        assert_eq!(check_one(&NoPanicPaths, bad).len(), 4);
        let ok = "fn f() { x.unwrap_or(0); y.unwrap_or_else(d); v.get(0); w[i]; m[i + 1]; }\n";
        assert!(check_one(&NoPanicPaths, ok).is_empty());
        let test_only = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        assert!(check_one(&NoPanicPaths, test_only).is_empty());
    }

    #[test]
    fn l001_ignores_array_types_and_attributes() {
        let ok =
            "fn f(a: [u8; 6]) -> [u8; 4] { let b: [u8; 2] = m; b }\n#[derive(Debug)]\nstruct S;\n";
        assert!(check_one(&NoPanicPaths, ok).is_empty());
    }

    #[test]
    fn l002_flags_hazards() {
        let bad = "fn f() { let m = HashMap::new(); let t = Instant::now(); }\n";
        assert_eq!(check_one(&Determinism, bad).len(), 2);
        let ok = "fn f() { let m = BTreeMap::new(); let h = MyHashMapLike::new(); }\n";
        assert!(check_one(&Determinism, ok).is_empty());
    }

    #[test]
    fn l002_flags_unstable_float_formats() {
        assert!(unstable_float_format("x {:e} y").is_some());
        assert!(unstable_float_format("{:.*}").is_some());
        assert!(unstable_float_format("{:.1$}").is_some());
        assert!(
            unstable_float_format("{:.3}").is_none(),
            "fixed precision is stable"
        );
        assert!(unstable_float_format("{{:e}} escaped").is_none());
        assert!(unstable_float_format("{:>8}").is_none());
    }

    #[test]
    fn l003_flags_narrowing_as() {
        let bad = "fn f(x: u64) { let a = x as u8; let b = x as usize; }\n";
        assert_eq!(check_one(&CastSafety, bad).len(), 2);
        let ok = "fn f(x: u8) { let a = u32::from(x); let b = x as u64; let c = x as f64; }\n";
        assert!(check_one(&CastSafety, ok).is_empty());
    }

    #[test]
    fn l004_flags_stringly_public_results() {
        let bad = "pub fn f() -> Result<(), String> { Ok(()) }\n";
        assert_eq!(check_one(&ErrorTaxonomy, bad).len(), 1);
        let boxed = "pub fn g(\n    x: u8,\n) -> Result<u8, Box<dyn std::error::Error>> {\n";
        assert_eq!(check_one(&ErrorTaxonomy, boxed).len(), 1);
        let ok = "pub fn f() -> Result<(), MyError> { Ok(()) }\nfn private() -> Result<(), String> { Ok(()) }\npub fn io() -> io::Result<()> { Ok(()) }\n";
        assert!(check_one(&ErrorTaxonomy, ok).is_empty());
    }

    #[test]
    fn l005_requires_named_constants() {
        let bad = "fn f() { std::process::exit(42); }\n";
        assert_eq!(check_one(&ExitCodes, bad).len(), 1);
        let ok =
            "fn f() { std::process::exit(EXIT_USAGE); process::exit(v6census_cli::EXIT_OK); }\n";
        assert!(check_one(&ExitCodes, ok).is_empty());
    }

    #[test]
    fn l006_flags_bare_arithmetic_on_sized_ints() {
        let bad = "\
fn f(len: u8) -> u128 {
    let base = 1u128;
    let a = len - 1;
    let b = base * 3;
    a as u128 + b
}
";
        let diags = check_one(&UncheckedArith, bad);
        assert_eq!(diags.len(), 2, "{diags:?}");
        let ok = "\
fn f(len: u8, i: usize) -> u8 {
    let a = len.wrapping_sub(1);
    let b = i + 1;
    let c = 3 + 4;
    a.checked_mul(2).unwrap_or(0)
}
";
        assert!(
            check_one(&UncheckedArith, ok).is_empty(),
            "usize and checked forms are exempt"
        );
    }

    #[test]
    fn l006_flags_variable_shifts_not_literal_shifts() {
        let bad = "fn f(len: u32) -> u128 { u128::MAX << (128 - len) }\n";
        let diags = check_one(&UncheckedArith, bad);
        assert!(
            diags.iter().any(|d| d.message.contains("`<<`")),
            "{diags:?}"
        );
        let ok =
            "fn f(b: u64) -> u64 { (b << 56) | (b >> 8) }\nfn g() -> Vec<Vec<u8>> { Vec::new() }\n";
        assert!(
            check_one(&UncheckedArith, ok).is_empty(),
            "literal shifts and generic closers are exempt"
        );
    }

    #[test]
    fn l006_ignores_nested_generic_closers() {
        // Regression: `Addr>>(iter` in a generic fn signature is two
        // closing angle brackets, not a right shift whose amount is a
        // parenthesised expression.
        let ok = "\
pub fn from_iter<I: IntoIterator<Item = Addr>>(iter: I) -> AddrSet {
    AddrSet::new()
}
fn collect(xs: &[u64]) -> Vec<Vec<u8>> {
    xs.iter().map(|x| x.to_be_bytes().to_vec()).collect::<Vec<Vec<u8>>>()
}
";
        assert!(check_one(&UncheckedArith, ok).is_empty());
        // Real shifts still flag even after generics appeared earlier
        // in the file (the depth tracker must not leak).
        let bad = "\
pub fn f<I: IntoIterator<Item = u64>>(iter: I, n: u32) -> u128 {
    u128::MAX << (128 - n)
}
";
        let diags = check_one(&UncheckedArith, bad);
        assert!(
            diags.iter().any(|d| d.message.contains("`<<`")),
            "{diags:?}"
        );
    }

    #[test]
    fn l006_unspaced_comparison_does_not_swallow_later_shift() {
        // Regression: `n<m` hugging an ident used to open a bogus
        // generic context, so the depth tracker ate the `>>` later in
        // the same statement and the variable shift went unflagged.
        let bad = "fn f(n: u64, m: u64, k: u32) -> bool { let ok = n<m || (n >> k) == 0; ok }\n";
        let diags = check_one(&UncheckedArith, bad);
        assert!(
            diags.iter().any(|d| d.message.contains("`>>`")),
            "{diags:?}"
        );
        // A spaced comparison followed by a generic closer still parses.
        let ok = "fn g(n: u64) -> bool { n < 3 && Vec::<Vec<u8>>::new().is_empty() }\n";
        assert!(check_one(&UncheckedArith, ok).is_empty());
    }

    #[test]
    fn l006_skips_unary_minus_and_tests() {
        let ok = "\
fn f(x: i8) -> i8 {
    let y = -1i8;
    if x < 0 { return -2i8; }
    y
}
#[cfg(test)]
mod tests {
    fn t(a: u8) -> u8 { a + 1 }
}
";
        assert!(check_one(&UncheckedArith, ok).is_empty());
    }

    fn check_semantic(rule: &dyn SemanticRule, files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let t = TestWorkspace::new(files);
        let mut out = Vec::new();
        rule.check(&t.ws(), &Config::default(), &mut out);
        out
    }

    #[test]
    fn l007_flags_discarded_workspace_results() {
        let src = "\
pub fn save() -> Result<(), E> { Ok(()) }
fn driver() {
    let _ = save();
    save().ok();
}
";
        let diags = check_semantic(&DiscardedResults, &[("crates/x/src/lib.rs", src)]);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.message.contains("`let _ =`")));
        assert!(diags.iter().any(|d| d.message.contains("`.ok()`")));
    }

    #[test]
    fn l007_exempts_handled_results_and_std_calls() {
        let src = "\
pub fn save() -> Result<(), E> { Ok(()) }
fn infallible() {}
fn driver() -> Result<(), E> {
    save()?;
    let kept = save().ok();
    let _ = infallible();
    let _ = writeln!(out, \"x\");
    save()
}
";
        let diags = check_semantic(&DiscardedResults, &[("crates/x/src/lib.rs", src)]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn l007_sees_multiline_ok_chains() {
        // Regression: `.ok()` detection used to inspect only the call
        // name's own line, so wrapping the chain hid the discard.
        let src = "\
pub fn save(x: u64) -> Result<(), E> { Ok(()) }
fn driver() {
    save(1)
        .ok();
}
fn kept() {
    let r = save(2)
        .ok();
    drop(r);
}
";
        let diags = check_semantic(&DiscardedResults, &[("crates/x/src/lib.rs", src)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = diags.first().expect("one finding");
        assert!(d.message.contains("`.ok()`"), "{}", d.message);
        assert_eq!(d.line, 3, "anchored at the call, not the `.ok()` line");
    }

    #[test]
    fn l007_let_underscore_needs_every_candidate_fallible() {
        // `s.flush()` resolves by name to both methods; the Sink one is
        // infallible, so `let _ =` on an unknown receiver is legitimate.
        let src = "\
struct Sink;
struct Store;
impl Sink {
    pub fn flush(&self) {}
}
impl Store {
    pub fn flush(&self) -> Result<(), E> { Ok(()) }
}
fn mixed(s: &Sink) {
    let _ = s.flush();
}
fn certain(st: &Store) {
    let _ = Store::flush(st);
}
";
        let diags = check_semantic(&DiscardedResults, &[("crates/x/src/lib.rs", src)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags.first().map(|d| d.line), Some(13), "{diags:?}");
    }
}
