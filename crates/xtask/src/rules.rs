//! The rule catalog (DESIGN.md §18): each rule is a token-level matcher
//! over scrubbed source plus a path scope. Rules are deny-by-default;
//! escape hatches are the inline `// lint:allow(rule)` directive and
//! the committed ratchet allowlist (`ci/lint-allow.txt`).

use crate::lexer::Scrubbed;

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (kebab-case, the name used by `lint:allow`).
    pub rule: &'static str,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// The offending source line, trimmed (scrubbed form).
    pub excerpt: String,
}

/// Static description of a rule for `xtask lint --rules` and DESIGN.md.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
    pub scope: &'static str,
}

/// The catalog. Order is the report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-unwrap",
        summary: "no `.unwrap()` in library code — propagate a structured error instead",
        scope: "crates/{core,engine,vgpu,sparse}/src",
    },
    RuleInfo {
        id: "no-expect",
        summary: "no `.expect(..)` in library code — propagate a structured error instead",
        scope: "crates/{core,engine,vgpu,sparse}/src",
    },
    RuleInfo {
        id: "no-panic",
        summary: "no `panic!`/`todo!`/`unimplemented!` in library code — return Error::Invariant",
        scope: "crates/{core,engine,vgpu,sparse}/src",
    },
    RuleInfo {
        id: "slice-index",
        summary: "no `x[i]` indexing in engine control-plane code — use get()/get_mut()",
        scope: "crates/engine/src",
    },
    RuleInfo {
        id: "wildcard-error-match",
        summary:
            "no `_ =>` arm in a match over nsparse_core::Error/ErrorKind — classify exhaustively",
        scope: "crates/{core,engine,bench}/src",
    },
    RuleInfo {
        id: "unchecked-ctor",
        summary: "no `from_parts_unchecked` callers outside the sparse crate",
        scope: "everything except crates/sparse/src",
    },
    RuleInfo {
        id: "as-cast",
        summary: "no `as <int>` narrowing in size/byte arithmetic — use try_into/checked helpers \
                  funneling to SparseError::Overflow",
        scope: "core/{partition,plan,batched}.rs + sparse/{csr,ops}.rs",
    },
    RuleInfo {
        id: "wallclock",
        summary: "no Instant::now/SystemTime in deterministic code — use the simulated clock",
        scope: "all library crates except `bench` and `xtask`",
    },
    RuleInfo {
        id: "lock-unwrap",
        summary: "no `lock().unwrap()` — recover with `unwrap_or_else(PoisonError::into_inner)`",
        scope: "all library crates",
    },
];

/// Whether `rule` applies to the file at repo-relative `path`.
/// `full_scope` (the self-test mode) applies every rule everywhere.
pub fn in_scope(rule: &str, path: &str, full_scope: bool) -> bool {
    if full_scope {
        return true;
    }
    let any =
        |prefixes: &[&str]| prefixes.iter().any(|p| path.starts_with(p) && path.ends_with(".rs"));
    match rule {
        "no-unwrap" | "no-expect" | "no-panic" => {
            any(&["crates/core/src", "crates/engine/src", "crates/vgpu/src", "crates/sparse/src"])
        }
        "slice-index" => any(&["crates/engine/src"]),
        "wildcard-error-match" => {
            any(&["crates/core/src", "crates/engine/src", "crates/bench/src"])
        }
        "unchecked-ctor" => !path.starts_with("crates/sparse/src") && path.ends_with(".rs"),
        "as-cast" => matches!(
            path,
            "crates/core/src/partition.rs"
                | "crates/core/src/plan.rs"
                | "crates/core/src/batched.rs"
                | "crates/sparse/src/csr.rs"
                | "crates/sparse/src/ops.rs"
        ),
        "wallclock" => {
            path.ends_with(".rs")
                && path.starts_with("crates/")
                && !path.starts_with("crates/bench/")
                && !path.starts_with("crates/xtask/")
        }
        "lock-unwrap" => path.ends_with(".rs") && path.starts_with("crates/"),
        _ => false,
    }
}

/// Run every in-scope rule over one scrubbed file.
pub fn check_file(path: &str, s: &Scrubbed, full_scope: bool) -> Vec<Finding> {
    let mut out = Vec::new();
    let lines: Vec<&str> = s.text.lines().collect();
    let mut push = |rule: &'static str, line: usize| {
        if !in_scope(rule, path, full_scope) || s.is_test_line(line) || s.allowed(rule, line) {
            return;
        }
        let excerpt = lines.get(line - 1).map(|l| l.trim().to_string()).unwrap_or_default();
        out.push(Finding { rule, path: path.to_string(), line, excerpt });
    };

    for (idx, raw) in lines.iter().enumerate() {
        let line = idx + 1;
        // lock-unwrap must win over the generic no-unwrap/no-expect on
        // the same call chain, so match it first and remember the span.
        let lock_cols = find_lock_unwrap(raw);
        for _ in &lock_cols {
            push("lock-unwrap", line);
        }
        for col in find_token(raw, ".unwrap") {
            if after_is_call_no_args(raw, col + ".unwrap".len())
                && !lock_cols.iter().any(|&c| col > c && col - c <= 12)
            {
                push("no-unwrap", line);
            }
        }
        for col in find_token(raw, ".expect") {
            if raw[col + ".expect".len()..].trim_start().starts_with('(')
                && !lock_cols.iter().any(|&c| col > c && col - c <= 12)
            {
                push("no-expect", line);
            }
        }
        for pat in ["panic!", "todo!", "unimplemented!"] {
            for col in find_token(raw, pat) {
                if col == 0 || !is_ident_char(raw.as_bytes()[col - 1] as char) {
                    push("no-panic", line);
                }
            }
        }
        for _ in find_slice_index(raw) {
            push("slice-index", line);
        }
        if !find_token(raw, "from_parts_unchecked").is_empty() {
            push("unchecked-ctor", line);
        }
        for _ in find_as_int_cast(raw) {
            push("as-cast", line);
        }
        for pat in ["Instant::now", "SystemTime"] {
            for col in find_token(raw, pat) {
                if col == 0 || !is_ident_char(raw.as_bytes()[col - 1] as char) {
                    push("wallclock", line);
                }
            }
        }
    }

    for line in wildcard_error_arms(&s.text) {
        push("wildcard-error-match", line);
    }
    out.sort_by_key(|f| f.line);
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Byte offsets of every occurrence of `pat` in `line`.
fn find_token(line: &str, pat: &str) -> Vec<usize> {
    let mut v = Vec::new();
    let mut from = 0usize;
    while let Some(p) = line[from..].find(pat) {
        v.push(from + p);
        from += p + pat.len();
    }
    v
}

/// Whether the text at `from` is `()` (possibly spaced) — a no-arg call.
fn after_is_call_no_args(line: &str, from: usize) -> bool {
    let rest = line[from..].trim_start();
    rest.starts_with("()")
}

/// Columns of `lock()` (or `read()`/`write()` guards) immediately
/// followed by `.unwrap()`/`.expect(` — the poisoning-propagation
/// anti-pattern PR 8 replaced with `unwrap_or_else(PoisonError::into_inner)`.
fn find_lock_unwrap(line: &str) -> Vec<usize> {
    let mut v = Vec::new();
    for pat in [".lock()", ".read()", ".write()"] {
        for col in find_token(line, pat) {
            let rest = line[col + pat.len()..].trim_start();
            if rest.starts_with(".unwrap()") || rest.starts_with(".expect(") {
                v.push(col);
            }
        }
    }
    v
}

/// Columns of indexing brackets: `[` directly preceded by an identifier
/// character, `)`, or `]` — i.e. `expr[...]`, never `&[T]`, `#[attr]`,
/// `vec![..]` or array literals.
fn find_slice_index(line: &str) -> Vec<usize> {
    let b = line.as_bytes();
    let mut v = Vec::new();
    for (i, &c) in b.iter().enumerate() {
        if c == b'[' && i > 0 {
            let p = b[i - 1] as char;
            if is_ident_char(p) || p == ')' || p == ']' {
                v.push(i);
            }
        }
    }
    v
}

/// Columns of `as <int-type>` casts (integer narrowing candidates).
/// Float casts (`as f64`) are fine — they feed telemetry, not sizing.
fn find_as_int_cast(line: &str) -> Vec<usize> {
    const INT_TYPES: &[&str] =
        &["usize", "u64", "u32", "u16", "u8", "isize", "i64", "i32", "i16", "i8"];
    let mut v = Vec::new();
    for col in find_token(line, " as ") {
        let rest = &line[col + 4..];
        let ty: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
        let after = rest.chars().nth(ty.len());
        if INT_TYPES.contains(&ty.as_str()) && after != Some('_') {
            v.push(col);
        }
    }
    v
}

/// Lines holding a bare `_ =>` arm in a `match` whose direct arm level
/// mentions `Error::` or `ErrorKind::`. Nested matches are scanned
/// independently (inner blocks are excluded from the outer's "direct
/// level"), so a wildcard over some unrelated enum never trips just
/// because an inner match classifies errors.
fn wildcard_error_arms(text: &str) -> Vec<usize> {
    let b: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < b.len() {
        if b[i] == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if matches_word(&b, i, "match") {
            if let Some((open, open_line)) = find_block_open(&b, i + 5, line) {
                scan_match_block(&b, open, open_line, &mut out);
            }
        }
        i += 1;
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn matches_word(b: &[char], i: usize, word: &str) -> bool {
    let w: Vec<char> = word.chars().collect();
    if i + w.len() > b.len() || b[i..i + w.len()] != w[..] {
        return false;
    }
    let before_ok = i == 0 || !is_ident_char(b[i - 1]);
    let after_ok = i + w.len() == b.len() || !is_ident_char(b[i + w.len()]);
    before_ok && after_ok
}

/// From a match scrutinee, find the opening `{` of the arm block (paren
/// depth 0 — closure args or tuple scrutinees do not confuse it; Rust
/// forbids bare struct literals in scrutinee position).
fn find_block_open(b: &[char], mut i: usize, mut line: usize) -> Option<(usize, usize)> {
    let mut paren = 0isize;
    while i < b.len() {
        match b[i] {
            '(' | '[' => paren += 1,
            ')' | ']' => paren -= 1,
            '{' if paren == 0 => return Some((i, line)),
            '\n' => line += 1,
            ';' if paren == 0 => return None, // `match` in a path like `match_indices`? word-bounded, but stay safe
            _ => {}
        }
        i += 1;
    }
    None
}

/// Walk one match block: collect its direct-level text (sub-braces
/// skipped) and the lines of direct-level bare `_ =>` arms.
fn scan_match_block(b: &[char], open: usize, open_line: usize, out: &mut Vec<usize>) {
    let mut i = open + 1;
    let mut line = open_line;
    let mut depth = 1usize;
    let mut direct = String::new();
    let mut wildcard_lines = Vec::new();
    while i < b.len() && depth > 0 {
        match b[i] {
            '{' => depth += 1,
            '}' => depth -= 1,
            '\n' => line += 1,
            _ => {}
        }
        if depth == 1 && b[i] != '{' && b[i] != '}' {
            // Bare `_ =>`: an underscore token followed by `=>`.
            if b[i] == '_'
                && (i == 0 || !is_ident_char(b[i - 1]))
                && b.get(i + 1).is_none_or(|&c| !is_ident_char(c))
            {
                let mut j = i + 1;
                while j < b.len() && (b[j] == ' ' || b[j] == '\t') {
                    j += 1;
                }
                if b.get(j) == Some(&'=') && b.get(j + 1) == Some(&'>') {
                    wildcard_lines.push(line);
                }
            }
            direct.push(b[i]);
        }
        i += 1;
    }
    if direct.contains("Error::") || direct.contains("ErrorKind::") {
        out.extend(wildcard_lines);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;

    fn findings(src: &str) -> Vec<(String, usize)> {
        let s = scrub(src);
        check_file("lib.rs", &s, true).into_iter().map(|f| (f.rule.to_string(), f.line)).collect()
    }

    #[test]
    fn unwrap_and_expect_flagged_but_not_in_strings_or_comments() {
        let f = findings("fn f() {\n    x.unwrap();\n    y.expect(\"m\");\n    // z.unwrap()\n    let s = \"w.unwrap()\";\n}\n");
        assert_eq!(f, vec![("no-unwrap".into(), 2), ("no-expect".into(), 3)]);
    }

    #[test]
    fn unwrap_or_else_not_flagged() {
        assert!(findings("fn f() { x.unwrap_or_else(|| 3); x.unwrap_or(4); }").is_empty());
    }

    #[test]
    fn lock_unwrap_is_its_own_rule() {
        let f = findings("fn f() { let g = m.lock().unwrap(); }");
        assert_eq!(f, vec![("lock-unwrap".into(), 1)]);
        let f = findings("fn f() { let g = m.lock().unwrap_or_else(PoisonError::into_inner); }");
        assert!(f.is_empty());
    }

    #[test]
    fn panic_macros_flagged() {
        let f = findings("fn f() { panic!(\"x\"); todo!(); }");
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|(r, _)| r == "no-panic"));
    }

    #[test]
    fn slice_index_flags_expressions_not_types_or_attrs() {
        let f = findings("#[derive(Debug)]\nfn f(v: &[u8], w: Vec<[u8; 2]>) -> u8 {\n    let x = [0u8; 4];\n    v[0] + x[1]\n}\n");
        assert_eq!(f, vec![("slice-index".into(), 4), ("slice-index".into(), 4)]);
    }

    #[test]
    fn wildcard_arm_only_in_error_matches() {
        let benign = "fn f(x: u32) -> u32 { match x { 1 => 2, _ => 3 } }";
        assert!(findings(benign).is_empty());
        let bad = "fn f(e: &Error) -> u32 { match e.kind() { ErrorKind::Planning => 1, _ => 0 } }";
        assert_eq!(findings(bad), vec![("wildcard-error-match".into(), 1)]);
    }

    #[test]
    fn nested_match_does_not_leak_error_tokens_outward() {
        let src = "fn f(r: Result<(), Error>, n: u32) -> u32 {\n    match n {\n        1 => match r {\n            Ok(()) => 1,\n            Err(e) => match e.kind() {\n                ErrorKind::Planning => 2,\n                ErrorKind::Kernel => 3,\n                ErrorKind::DeviceOom => 3,\n                ErrorKind::Invariant => 3,\n                ErrorKind::Deadline => 3,\n                ErrorKind::Cancelled => 3,\n                ErrorKind::Rejected => 3,\n                ErrorKind::Panic => 3,\n            },\n        },\n        _ => 0,\n    }\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn as_int_cast_flagged_float_not() {
        let f = findings("fn f(x: usize) { let a = x as u64; let b = x as f64; }");
        assert_eq!(f, vec![("as-cast".into(), 1)]);
    }

    #[test]
    fn wallclock_flagged() {
        let f = findings("fn f() { let t = Instant::now(); }");
        assert_eq!(f, vec![("wallclock".into(), 1)]);
    }

    #[test]
    fn unchecked_ctor_flagged() {
        let f = findings("fn f() { Csr::from_parts_unchecked(m, n, r, c, v); }");
        assert_eq!(f, vec![("unchecked-ctor".into(), 1)]);
    }

    #[test]
    fn inline_allow_suppresses() {
        let src = "fn f() {\n    x.unwrap(); // lint:allow(no-unwrap)\n}\n";
        let s = scrub(src);
        assert!(check_file("lib.rs", &s, true).is_empty());
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        let s = scrub(src);
        assert!(check_file("lib.rs", &s, true).is_empty());
    }

    #[test]
    fn scoping_restricts_rules_by_path() {
        let s = scrub("fn f() { let a = x as u64; }");
        assert!(check_file("crates/engine/src/engine.rs", &s, false).is_empty());
        assert_eq!(check_file("crates/core/src/partition.rs", &s, false).len(), 1);
    }
}
