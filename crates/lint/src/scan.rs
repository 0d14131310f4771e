//! Line-aware scanning built on the token lexer.
//!
//! The lexical rules in this crate are textual, so the scanner's job is
//! to make textual matching *honest*: rule patterns must never fire
//! inside string literals, comments, or doc comments, and must know
//! which lines belong to `#[cfg(test)]` / `#[test]` regions (where the
//! workspace's panic-freedom contract deliberately does not apply).
//!
//! Earlier revisions walked the raw text with a heuristic state machine;
//! this one is a thin projection of [`crate::lexer`]'s token stream, so
//! the line view and the semantic layers (symbols, call graph,
//! reachability) can never disagree about where a string ends or whether
//! `'a` was a lifetime. Per line it produces:
//!
//! * `code` — the line with comments removed and string/char literal
//!   *contents* blanked (delimiters kept), so `".unwrap()"` inside a
//!   string can never match a rule pattern;
//! * `strings` — the literal contents that were blanked, for the one
//!   rule (L002's float-format check) that inspects format strings;
//! * line comments, checked for `lint:` suppression pragmas.
//!
//! A second pass over the comment-free code computes brace-balanced
//! `#[cfg(test)]` / `#[test]` regions.

use std::path::PathBuf;

use crate::lexer::{lex, TokKind, Token};

/// A `// lint: allow(<rule>, reason = "...")` suppression pragma, or a
/// malformed attempt at one (carried with its parse error so the engine
/// can report it instead of silently honouring or dropping it).
#[derive(Clone, Debug)]
pub struct Pragma {
    /// The rule id being suppressed, e.g. `L003`.
    pub rule: String,
    /// The mandatory justification. `None` is a pragma-syntax violation.
    pub reason: Option<String>,
    /// 1-based line the pragma was written on.
    pub decl_line: usize,
    /// 1-based line the pragma suppresses; `None` suppresses the whole
    /// file (the `allow-file` form).
    pub target_line: Option<usize>,
    /// Why the pragma failed to parse, if it did.
    pub error: Option<String>,
}

/// One source line after lexical analysis.
#[derive(Clone, Debug, Default)]
pub struct Line {
    /// The line with comments stripped and literal contents blanked.
    pub code: String,
    /// String-literal contents that appeared on this line.
    pub strings: Vec<String>,
    /// True inside a `#[cfg(test)]` or `#[test]` region.
    pub in_test: bool,
}

/// A scanned source file: tokens, lines, and the pragmas found in its
/// comments.
#[derive(Clone, Debug)]
pub struct ScannedFile {
    /// Absolute (or as-given) path.
    pub path: PathBuf,
    /// Workspace-relative path with forward slashes — what rules match
    /// their scopes against and what diagnostics print.
    pub rel: String,
    /// Per-line analysis, index 0 = line 1.
    pub lines: Vec<Line>,
    /// Every pragma in the file, valid or not.
    pub pragmas: Vec<Pragma>,
    /// The full token stream (comments included) — the semantic layers
    /// consume this instead of re-lexing.
    pub tokens: Vec<Token>,
}

impl ScannedFile {
    /// True when 1-based `line` lies in a `#[cfg(test)]`/`#[test]`
    /// region (out-of-range lines count as test: never lint them).
    pub fn is_test_line(&self, line: usize) -> bool {
        self.lines
            .get(line.saturating_sub(1))
            .is_none_or(|l| l.in_test)
    }
}

/// A comment-free token paired with its index in the file's full
/// token stream. Semantic layers walk slices of these, so positions
/// they record (`FnSym::body`, `Call::paren`, guard and loop scopes)
/// are comparable across layers.
pub type CodeTok<'a> = (usize, &'a Token);

/// One comment-free view per file, same indexing as `files`. The
/// engine builds these once per run and every layer indexes them.
pub fn code_views(files: &[ScannedFile]) -> Vec<Vec<CodeTok<'_>>> {
    files
        .iter()
        .map(|f| {
            let code = f.tokens.iter().enumerate();
            code.filter(|(_, t)| !t.is_comment()).collect()
        })
        .collect()
}

/// The part of `view` whose original indices lie in `[start, end)`.
pub fn span<'v, 'a>(view: &'v [CodeTok<'a>], start: usize, end: usize) -> &'v [CodeTok<'a>] {
    let lo = view.partition_point(|&(o, _)| o < start);
    let hi = view.partition_point(|&(o, _)| o < end).max(lo);
    &view[lo..hi]
}

/// Position in `view` of the token with original index `orig`.
pub fn position(view: &[CodeTok<'_>], orig: usize) -> Option<usize> {
    view.binary_search_by_key(&orig, |&(o, _)| o).ok()
}

/// Reads a `sep`-joined identifier path (`a::b::c`, `self.state`)
/// backwards from the identifier at `end`: the position of its first
/// segment, and its segments.
pub fn path_back(toks: &[CodeTok<'_>], end: usize, sep: &str) -> (usize, Vec<String>) {
    let mut p = end;
    while p >= 2 && toks[p - 1].1.is_op(sep) && toks[p - 2].1.kind == TokKind::Ident {
        p -= 2;
    }
    let segs = toks[p..=end].iter().step_by(2);
    (p, segs.map(|(_, t)| t.text.clone()).collect())
}

/// Position of the delimiter matching the one at `at`: forwards from
/// an opener (`(`, `[`, `{`, `<`), backwards from a closer. Only
/// operator tokens of the same bracket kind count, and inside angles
/// `<<`/`>>` count twice. `None` when the group never closes.
pub fn matching(toks: &[CodeTok<'_>], at: usize) -> Option<usize> {
    let start = toks.get(at)?.1.text.as_str();
    let (open, close) = match start {
        "(" | ")" => ("(", ")"),
        "[" | "]" => ("[", "]"),
        "{" | "}" => ("{", "}"),
        "<" | "<<" | ">" | ">>" => ("<", ">"),
        _ => return None,
    };
    let forward = start.starts_with(open);
    let (mut depth, mut i) = (0i64, at);
    loop {
        let t = toks.get(i)?.1;
        let w = match t.text.as_str() {
            _ if t.kind != TokKind::Op => 0,
            s if s == open => 1,
            s if s == close => -1,
            "<<" if open == "<" => 2,
            ">>" if open == "<" => -2,
            _ => 0,
        };
        depth += if forward { w } else { -w };
        if depth <= 0 {
            return Some(i);
        }
        i = if forward { i + 1 } else { i.checked_sub(1)? };
    }
}

/// Bracket-depth change of one token: `(`/`[`/`{` open, `)`/`]`/`}`
/// close, and with `angles` (type lists, where `<` is never a
/// comparison) `<`/`>` count too, `<<`/`>>` twice.
fn depth_step(t: &Token, angles: bool) -> i64 {
    if t.kind != TokKind::Op {
        return 0;
    }
    match t.text.as_str() {
        "(" | "[" | "{" => 1,
        ")" | "]" | "}" => -1,
        "<" if angles => 1,
        ">" if angles => -1,
        "<<" if angles => 2,
        ">>" if angles => -2,
        _ => 0,
    }
}

/// Position of the first token in `toks[lo..hi]` at bracket depth 0
/// for which `pred` holds.
pub fn find_top(
    toks: &[CodeTok<'_>],
    lo: usize,
    hi: usize,
    pred: impl Fn(&Token) -> bool,
) -> Option<usize> {
    let mut depth = 0i64;
    for (j, &(_, t)) in toks.iter().enumerate().take(hi).skip(lo) {
        if depth == 0 && pred(t) {
            return Some(j);
        }
        depth = (depth + depth_step(t, false)).max(0);
    }
    None
}

/// Splits `toks[lo..hi]` at its top-level `sep` operators (`,` in
/// lists, `|` between pattern alternatives, `||`/`&&` in conditions)
/// into `[start, end)` position ranges, dropping empty parts. Brackets
/// nest (angles too when `angles` is set), and a closure's `|params|`
/// at the start of a part is one group, so `fold(0, |acc, x| …)`
/// splits in two.
pub fn split_top(
    toks: &[CodeTok<'_>],
    lo: usize,
    hi: usize,
    sep: &str,
    angles: bool,
) -> Vec<(usize, usize)> {
    let hi = hi.min(toks.len());
    let mut spans = Vec::new();
    let mut depth = 0i64;
    let mut start = lo;
    let mut part_open = true; // at the start of a part
    let mut j = lo;
    while j < hi {
        let t = toks[j].1;
        let step = depth_step(t, angles);
        if step != 0 {
            depth = (depth + step).max(0);
            part_open &= step < 0;
        } else if depth == 0 && t.is_op(sep) {
            if j > start {
                spans.push((start, j));
            }
            start = j + 1;
            part_open = true;
        } else if depth == 0 && t.is_op("|") && part_open {
            // Closure parameter list: skip to the closing pipe.
            j += 1;
            while j < hi && !toks[j].1.is_op("|") {
                j += 1;
            }
            part_open = false;
        } else if !(t.is_ident("move") || t.is_op("||")) {
            part_open = false;
        }
        j += 1;
    }
    if hi > start {
        spans.push((start, hi));
    }
    spans
}

/// One pending line comment: its text and whether code preceded it.
struct LineComment {
    line: usize,
    text: String,
    after_code: bool,
}

/// Scans `text` into per-line code/strings plus pragmas.
pub fn scan(path: PathBuf, rel: String, text: &str) -> ScannedFile {
    let tokens = lex(text);
    let mut lines: Vec<Line> = vec![Line::default()];
    let mut comments: Vec<LineComment> = Vec::new();
    let mut pos = 0usize;

    for tok in &tokens {
        // Inter-token whitespace (it carries the newlines).
        push_raw(&mut lines, &text[pos..tok.start]);
        pos = tok.end;
        match tok.kind {
            TokKind::LineComment { doc } => {
                // Doc comments are documentation, not directives; only
                // plain `//` comments may carry pragmas.
                if !doc {
                    let after_code = !lines
                        .last()
                        .map(|l| l.code.trim().is_empty())
                        .unwrap_or(true);
                    comments.push(LineComment {
                        line: tok.line,
                        text: tok.text.clone(),
                        after_code,
                    });
                }
                advance_lines(&mut lines, tok);
            }
            TokKind::BlockComment { .. } => advance_lines(&mut lines, tok),
            TokKind::Str => {
                push_code(&mut lines, "\"");
                advance_lines(&mut lines, tok);
                push_code(&mut lines, "\"");
                if let Some(l) = lines.last_mut() {
                    l.strings.push(tok.text.clone());
                }
            }
            TokKind::Char => push_code(&mut lines, "''"),
            TokKind::Lifetime => {
                push_code(&mut lines, "'");
                push_code(&mut lines, &tok.text);
            }
            TokKind::Ident | TokKind::Int | TokKind::Float | TokKind::Op => {
                push_code(&mut lines, &tok.text);
            }
        }
    }
    push_raw(&mut lines, &text[pos..]);

    mark_test_regions(&mut lines);
    let pragmas = resolve_pragmas(&comments, &lines);
    ScannedFile {
        path,
        rel,
        lines,
        pragmas,
        tokens,
    }
}

/// Appends raw text to the line buffer, splitting on newlines.
fn push_raw(lines: &mut Vec<Line>, s: &str) {
    for c in s.chars() {
        if c == '\n' {
            lines.push(Line::default());
        } else {
            push_code(lines, &c.to_string());
        }
    }
}

/// Appends code text to the current line.
fn push_code(lines: &mut [Line], s: &str) {
    if let Some(l) = lines.last_mut() {
        l.code.push_str(s);
    }
}

/// Pushes empty lines for each newline a multi-line token spans.
fn advance_lines(lines: &mut Vec<Line>, tok: &Token) {
    for _ in tok.line..tok.end_line {
        lines.push(Line::default());
    }
}

/// Marks lines inside `#[cfg(test)]` / `#[test]` items by brace balance
/// over the comment-free code.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut pending_attr = false;
    let mut region_floor: Option<i64> = None;
    let mut region_armed = false;
    for line in lines.iter_mut() {
        let code = line.code.trim();
        if region_floor.is_none() && (code.contains("#[cfg(test)]") || code.contains("#[test]")) {
            pending_attr = true;
        }
        if pending_attr && region_floor.is_none() && !code.is_empty() && !code.starts_with("#[") {
            // The attributed item starts here.
            region_floor = Some(depth);
            region_armed = false;
            pending_attr = false;
        }
        line.in_test = region_floor.is_some();
        let opens = line.code.matches('{').count() as i64;
        let closes = line.code.matches('}').count() as i64;
        depth += opens - closes;
        if let Some(floor) = region_floor {
            if depth > floor {
                region_armed = true;
            }
            // Region ends when braces rebalance — or immediately for a
            // braceless item (`#[cfg(test)] mod t;`).
            if (region_armed && depth <= floor) || (!region_armed && code.ends_with(';')) {
                region_floor = None;
            }
        }
    }
}

/// Extracts pragmas from line comments and resolves their target lines:
/// a trailing comment suppresses its own line, a comment on a line of
/// its own suppresses the next line with code on it.
fn resolve_pragmas(comments: &[LineComment], lines: &[Line]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in comments {
        let Some(body) = c.text.trim().strip_prefix("lint:") else {
            continue;
        };
        let mut p = parse_pragma(body.trim(), c.line);
        if p.error.is_none() && p.target_line == Some(c.line) && !c.after_code {
            // Standalone pragma line: find the next line with code.
            p.target_line = lines
                .iter()
                .enumerate()
                .skip(c.line) // index c.line == line number c.line + 1
                .find(|(_, l)| !l.code.trim().is_empty())
                .map(|(i, _)| i + 1)
                .or(Some(c.line));
        }
        out.push(p);
    }
    out
}

/// Parses `allow(<rule>, reason = "...")` / `allow-file(...)` bodies.
fn parse_pragma(body: &str, line: usize) -> Pragma {
    let mut pragma = Pragma {
        rule: String::new(),
        reason: None,
        decl_line: line,
        target_line: Some(line),
        error: None,
    };
    let inner = if let Some(rest) = body.strip_prefix("allow-file(") {
        pragma.target_line = None;
        rest
    } else if let Some(rest) = body.strip_prefix("allow(") {
        rest
    } else {
        pragma.error = Some(format!(
            "unrecognized pragma {body:?}: expected `allow(<rule>, reason = \"...\")`"
        ));
        return pragma;
    };
    let Some(inner) = inner.strip_suffix(')') else {
        pragma.error = Some("pragma is missing its closing `)`".into());
        return pragma;
    };
    let (rule, rest) = match inner.split_once(',') {
        Some((r, rest)) => (r.trim(), rest.trim()),
        None => (inner.trim(), ""),
    };
    pragma.rule = rule.to_string();
    if rule.is_empty() {
        pragma.error = Some("pragma names no rule".into());
        return pragma;
    }
    let reason = rest
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim)
        .and_then(|r| r.strip_prefix('"'))
        .and_then(|r| r.strip_suffix('"'));
    match reason {
        Some(r) if !r.trim().is_empty() => pragma.reason = Some(r.to_string()),
        _ => {
            pragma.error = Some(format!(
                "allow({rule}) must carry a non-empty reason = \"...\""
            ));
        }
    }
    pragma
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_str(text: &str) -> ScannedFile {
        scan(PathBuf::from("x.rs"), "x.rs".into(), text)
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = scan_str("let x = \"panic!(boom)\"; // .unwrap() here\nlet y = 1;\n");
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(!f.lines[0].code.contains("unwrap"));
        assert_eq!(f.lines[0].strings, vec!["panic!(boom)".to_string()]);
        assert_eq!(f.lines[1].code.trim(), "let y = 1;");
    }

    #[test]
    fn raw_strings_and_chars() {
        let f = scan_str("let s = r#\"a \" .unwrap() b\"#; let c = '\"'; let l: &'static str = s;");
        let code = &f.lines[0].code;
        assert!(!code.contains("unwrap"), "{code}");
        assert!(code.contains("&'static str"), "{code}");
        assert_eq!(f.lines[0].strings[0], "a \" .unwrap() b");
    }

    #[test]
    fn double_fenced_raw_strings_are_blanked() {
        // `r##"…"##` may contain an un-fenced `"#` without terminating.
        let f = scan_str("let s = r##\"has \"# quote and .unwrap()\"##; let t = 1;\n");
        let code = &f.lines[0].code;
        assert!(!code.contains("unwrap"), "{code}");
        assert!(code.contains("let t = 1;"), "lexing continued: {code}");
        assert_eq!(f.lines[0].strings[0], "has \"# quote and .unwrap()");
    }

    #[test]
    fn escaped_quote_char_literal_is_not_a_string_opener() {
        // `'\''` historically mislexed as a string start, hiding the
        // rest of the line from the rules.
        let f = scan_str("let q = '\\''; x.unwrap();\n");
        assert!(f.lines[0].code.contains(".unwrap()"), "{:?}", f.lines[0]);
    }

    #[test]
    fn lifetimes_survive_blanking() {
        let f = scan_str("fn f<'a>(x: &'a str) -> &'static str { x }\n");
        let code = &f.lines[0].code;
        assert!(code.contains("<'a>"), "{code}");
        assert!(code.contains("&'static str"), "{code}");
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let f = scan_str("a /* one /* two */ still */ b\n/* open\n.unwrap()\n*/ c\n");
        assert_eq!(f.lines[0].code.replace(' ', ""), "ab");
        assert!(f.lines[2].code.is_empty());
        assert_eq!(f.lines[3].code.trim(), "c");
    }

    #[test]
    fn test_regions_are_marked() {
        let text =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let f = scan_str(text);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test, "closing brace line is still test");
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn pragmas_resolve_targets() {
        let text = "let a = x as u8; // lint: allow(L003, reason = \"masked\")\n\
                    // lint: allow(L001, reason = \"next line\")\nlet b = y.unwrap();\n\
                    // lint: allow-file(L002, reason = \"whole file\")\n\
                    // lint: allow(L004)\n";
        let f = scan_str(text);
        assert_eq!(f.pragmas.len(), 4);
        assert_eq!(f.pragmas[0].rule, "L003");
        assert_eq!(f.pragmas[0].target_line, Some(1));
        assert_eq!(
            f.pragmas[1].target_line,
            Some(3),
            "standalone targets next code line"
        );
        assert_eq!(f.pragmas[2].target_line, None);
        assert!(f.pragmas[3].error.is_some(), "reason is mandatory");
    }

    #[test]
    fn doc_comments_never_carry_pragmas() {
        let f = scan_str("/// lint: allow(L001, reason = \"doc, not directive\")\nfn f() {}\n");
        assert!(f.pragmas.is_empty());
    }
}
