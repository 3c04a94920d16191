//! The lint rules and the annotation grammar.
//!
//! Four token-level domain rules plus a concurrency-determinism family
//! guard the invariants MVCom's correctness argument leans on (see
//! DESIGN.md §7 and §12):
//!
//! | rule | guards                                                        |
//! |------|---------------------------------------------------------------|
//! | D1   | determinism: no seed-unstable containers in deterministic     |
//! |      | crates; no wall-clock / ambient RNG anywhere                  |
//! | P1   | panic-freedom: no `unwrap`/`expect`/constant index in         |
//! |      | non-test library code without a justification annotation      |
//! | F1   | float ordering: no `partial_cmp().unwrap()`, no `==`/`!=`     |
//! |      | against float literals — use the total-order helpers          |
//! | T1   | test hygiene: `#[ignore]` must carry a reason string          |
//! | C1   | parallel region: `Obs` emission must go through the           |
//! |      | deferred/replay buffer (or a handle built in the same body)   |
//! | C2   | parallel region: no `Rc`/`RefCell`/`Cell`/`UnsafeCell`, no    |
//! |      | mutation of captured variables inside spawned closures        |
//! | C3   | parallel region: atomics weaker than `SeqCst` and multi-lock  |
//! |      | acquisition need a documented protocol argument               |
//! | C4   | parallel region: no branching on thread count / worker index  |
//! |      | outside the partitioner itself                                |
//! | W1   | annotation hygiene: an `allow(…)` that suppresses nothing is  |
//! |      | stale and reported itself                                     |
//! | U1   | every crate root (`src/lib.rs`, `src/main.rs`, `src/bin/*`)   |
//! |      | must carry `#![forbid(unsafe_code)]`                          |
//!
//! The C-rules fire only inside the **parallel region** computed by
//! [`crate::callgraph`]: everything reachable from closures handed to
//! `spawn`/`ordered_map` — the one fan-out implementation
//! (`mvcom_simnet::fanout`) and what each crate passes it. A violation is
//! silenced inline with
//!
//! ```text
//! // lint: allow(C3, reason why the relaxation is sound)
//! ```
//!
//! on the offending line or the line directly above it. The reason is
//! mandatory; a malformed annotation is itself reported (rule `A0`), and
//! an annotation that suppresses nothing is reported as `W1` (neither is
//! suppressible).

use std::collections::BTreeSet;
use std::fmt;

use crate::callgraph::{self, Unit};
use crate::lexer::{lex, Comment, LexOutput, TokKind, Token};

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Determinism: order-stable containers, no wall-clock/ambient RNG.
    D1,
    /// Panic-freedom in non-test library code.
    P1,
    /// Float-ordering hazards.
    F1,
    /// Test hygiene.
    T1,
    /// Parallel region: `Obs` emission bypassing the deferred buffer.
    C1,
    /// Parallel region: shared mutable state captured by a closure.
    C2,
    /// Parallel region: weak atomic orderings / unordered multi-lock.
    C3,
    /// Parallel region: branching on thread count or worker index.
    C4,
    /// Stale `lint: allow` annotation (suppresses nothing).
    W1,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    U1,
    /// Malformed `lint:` annotation.
    A0,
}

impl Rule {
    /// Rules an annotation may suppress. `A0` and `W1` are meta-rules
    /// about the annotations themselves and cannot be allowed away.
    fn parse(s: &str) -> Option<Rule> {
        match s {
            "D1" => Some(Rule::D1),
            "P1" => Some(Rule::P1),
            "F1" => Some(Rule::F1),
            "T1" => Some(Rule::T1),
            "C1" => Some(Rule::C1),
            "C2" => Some(Rule::C2),
            "C3" => Some(Rule::C3),
            "C4" => Some(Rule::C4),
            "U1" => Some(Rule::U1),
            _ => None,
        }
    }

    /// Every rule by name, for `--rules` selection on the CLI.
    pub fn from_name(s: &str) -> Option<Rule> {
        match s {
            "W1" => Some(Rule::W1),
            "A0" => Some(Rule::A0),
            other => Rule::parse(other),
        }
    }

    /// All rules, in report order.
    pub const ALL: [Rule; 11] = [
        Rule::D1,
        Rule::P1,
        Rule::F1,
        Rule::T1,
        Rule::C1,
        Rule::C2,
        Rule::C3,
        Rule::C4,
        Rule::W1,
        Rule::U1,
        Rule::A0,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A set of rules selected for reporting, parsed from `--rules`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSelection(BTreeSet<Rule>);

impl RuleSelection {
    /// Every rule (the default).
    pub fn all() -> Self {
        RuleSelection(Rule::ALL.into_iter().collect())
    }

    /// Parses `all` or a comma-separated rule list (`C1,C3,W1`).
    ///
    /// # Errors
    ///
    /// Returns the offending name when one is not a known rule.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "all" {
            return Ok(Self::all());
        }
        let mut set = BTreeSet::new();
        for name in s.split(',') {
            let name = name.trim();
            match Rule::from_name(name) {
                Some(r) => {
                    set.insert(r);
                }
                None => return Err(format!("unknown rule `{name}`")),
            }
        }
        Ok(RuleSelection(set))
    }

    pub fn contains(&self, rule: Rule) -> bool {
        self.0.contains(&rule)
    }
}

impl Default for RuleSelection {
    fn default() -> Self {
        Self::all()
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Crates whose library code must iterate containers in seed-stable order
/// (they implement the deterministic virtual-time simulation the paper's
/// Theorem 1 / Theorem 2 experiments replay).
const DETERMINISTIC_CRATES: [&str; 3] = ["simnet", "elastico", "core"];

/// Keywords that can legally precede an array-literal `[`; an index
/// expression can only follow an identifier, `)`, or `]`, so these
/// exclude `for x in [0] {}`-style false positives.
const NON_POSTFIX_KEYWORDS: [&str; 14] = [
    "in", "mut", "return", "break", "else", "match", "if", "while", "for", "loop", "move", "ref",
    "let", "const",
];

/// What kind of file a path denotes, derived from workspace-relative
/// path components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileClass<'a> {
    /// `crates/<name>/…` → `<name>`; root `src/…`, `tests/…`, … → `mvcom`.
    krate: &'a str,
    /// Under a `tests/`, `benches/`, or `examples/` directory: P1/F1 and
    /// the D1 container rule do not apply (the D1 wall-clock rule still
    /// does — flaky tests are still flaky).
    test_path: bool,
}

fn classify(rel_path: &str) -> FileClass<'_> {
    let krate = rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("mvcom");
    let test_path = rel_path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples");
    FileClass { krate, test_path }
}

/// Whether `rel_path` is a crate root — the compilation-unit entry point
/// where `#![forbid(unsafe_code)]` must live. `tests/`, `benches/`, and
/// `examples/` targets are deliberately out of scope: they link against
/// already-audited library crates and carry no `unsafe` surface of their
/// own worth a per-file attribute.
fn is_crate_root(rel_path: &str) -> bool {
    rel_path.ends_with("src/lib.rs")
        || rel_path.ends_with("src/main.rs")
        || rel_path.contains("src/bin/")
}

/// Lints one file's source. `rel_path` must be workspace-relative with
/// `/` separators (e.g. `crates/simnet/src/fanout.rs`); it selects which
/// rules apply. The C-rules see only this file's call graph — use
/// [`lint_crate`] to resolve calls across a crate's files.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    lint_crate(&[(rel_path, source)])
}

/// One file prepared for crate-level linting.
struct CrateFile<'a> {
    rel: &'a str,
    class: FileClass<'a>,
    lexed: LexOutput,
    test_lines: BTreeSet<u32>,
    allows: Vec<Allow>,
}

/// A parsed, well-formed `lint: allow(RULE, reason)` annotation and
/// whether it suppressed anything (for W1).
struct Allow {
    rule: Rule,
    /// Line the annotation starts on (where W1 reports it).
    line: u32,
    /// Covered lines: the comment's own lines plus the one after it.
    first: u32,
    last: u32,
    used: bool,
}

/// Lints the files of one crate together: token-level rules per file,
/// then the C-rule family over the crate-wide parallel region, then
/// stale-allow detection. Findings are sorted by `(file, line, rule)`.
pub fn lint_crate(files: &[(&str, &str)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut ctxs: Vec<CrateFile> = Vec::with_capacity(files.len());
    for &(rel, source) in files {
        let lexed = lex(source);
        let test_lines = test_region_lines(&lexed.tokens);
        let allows = parse_annotations(rel, &lexed.comments, &mut findings);
        ctxs.push(CrateFile {
            rel,
            class: classify(rel),
            lexed,
            test_lines,
            allows,
        });
    }

    for ctx in &ctxs {
        let scan = Scan {
            rel_path: ctx.rel,
            class: ctx.class,
            tokens: &ctx.lexed.tokens,
            test_lines: &ctx.test_lines,
        };
        scan.rule_d1(&mut findings);
        scan.rule_p1(&mut findings);
        scan.rule_f1(&mut findings);
        scan.rule_t1(&mut findings);
        scan.rule_u1(&mut findings);
    }

    let inputs: Vec<callgraph::FileInput> = ctxs
        .iter()
        .map(|c| callgraph::FileInput {
            lexed: &c.lexed,
            test_lines: &c.test_lines,
            test_path: c.class.test_path,
        })
        .collect();
    let units = callgraph::parallel_units(&inputs);
    for unit in &units {
        let ctx = &ctxs[unit.file];
        if ctx.class.test_path {
            continue; // test code exercises the region; it is not in it
        }
        let region = RegionScan { ctx, unit };
        region.rule_c1(&mut findings);
        region.rule_c2(&mut findings);
        region.rule_c3(&mut findings);
        region.rule_c4(&mut findings);
    }

    // Suppression: every allow covering a finding's (line, rule) absorbs
    // it and counts as used. A0/W1 findings are never suppressible.
    let mut kept = Vec::with_capacity(findings.len());
    for f in findings {
        if matches!(f.rule, Rule::A0 | Rule::W1) {
            kept.push(f);
            continue;
        }
        let mut suppressed = false;
        if let Some(ctx) = ctxs.iter_mut().find(|c| c.rel == f.file) {
            for a in &mut ctx.allows {
                if a.rule == f.rule && (a.first..=a.last).contains(&f.line) {
                    a.used = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            kept.push(f);
        }
    }
    for ctx in &ctxs {
        for a in ctx.allows.iter().filter(|a| !a.used) {
            kept.push(Finding {
                rule: Rule::W1,
                file: ctx.rel.to_string(),
                line: a.line,
                message: format!(
                    "`lint: allow({}, …)` suppresses no finding; \
                     remove the stale annotation",
                    a.rule
                ),
            });
        }
    }
    kept.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    // Parallel units may overlap (a spawned closure sits inside a region
    // fn); the same token then trips a C-rule once per unit. Only exact
    // repeats collapse — distinct diagnostics on one line all stand.
    kept.dedup_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message) == (&b.file, b.line, b.rule, &b.message)
    });
    kept
}

/// Lines covered by `#[cfg(test)]` items (usually the trailing `mod tests`).
fn test_region_lines(tokens: &[Token]) -> BTreeSet<u32> {
    let mut lines = BTreeSet::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].kind == TokKind::Punct && tokens[i].text == "#") {
            i += 1;
            continue;
        }
        // `#![cfg(test)]` (inner attribute): the whole file is test code.
        let inner = tokens.get(i + 1).is_some_and(|t| t.text == "!");
        let open = i + if inner { 2 } else { 1 };
        if tokens.get(open).is_none_or(|t| t.text != "[") {
            i += 1;
            continue;
        }
        let Some(close) = matching(tokens, open, "[", "]") else {
            break;
        };
        let is_cfg_test = tokens[open + 1..close].windows(4).any(|w| {
            matches!(w, [a, b, c, d]
                if a.text == "cfg" && b.text == "(" && c.text == "test" && d.text == ")")
        });
        if !is_cfg_test {
            i = close + 1;
            continue;
        }
        if inner {
            if let (Some(first), Some(last)) = (tokens.first(), tokens.last()) {
                for l in first.line..=last.line {
                    lines.insert(l);
                }
            }
            return lines;
        }
        // Skip any further outer attributes, then swallow one item: up to a
        // top-level `;`, or a `{ … }` body when one opens first.
        let mut j = close + 1;
        while tokens.get(j).is_some_and(|t| t.text == "#")
            && tokens.get(j + 1).is_some_and(|t| t.text == "[")
        {
            match matching(tokens, j + 1, "[", "]") {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        let start_line = tokens[i].line;
        let mut depth_paren = 0i32;
        let mut end = None;
        while let Some(t) = tokens.get(j) {
            match t.text.as_str() {
                "(" | "[" => depth_paren += 1,
                ")" | "]" => depth_paren -= 1,
                ";" if depth_paren == 0 => {
                    end = Some(j);
                    break;
                }
                "{" if depth_paren == 0 => {
                    end = matching(tokens, j, "{", "}");
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let end = end.unwrap_or(tokens.len() - 1);
        for l in start_line..=tokens[end].line {
            lines.insert(l);
        }
        i = end + 1;
    }
    lines
}

/// Index of the token closing the bracket opened at `open`.
fn matching(tokens: &[Token], open: usize, op: &str, cl: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == op {
                depth += 1;
            } else if t.text == cl {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
    }
    None
}

/// Index of the token opening the bracket closed at `close` (backwards).
fn rmatching(tokens: &[Token], close: usize, op: &str, cl: &str) -> Option<usize> {
    let mut depth = 0i32;
    for k in (0..=close).rev() {
        let t = &tokens[k];
        if t.kind == TokKind::Punct {
            if t.text == cl {
                depth += 1;
            } else if t.text == op {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
    }
    None
}

/// Parses `lint: allow(P1, reason)`-style annotations out of comments.
///
/// Only plain (non-doc) comments containing an `allow(` directly after
/// `lint:` are treated as annotation attempts; prose that merely mentions
/// the word is ignored, and doc comments are documentation — rustdoc that
/// *describes* the grammar must not parse as an instance of it.
/// Well-formed annotations are returned (an annotation covers its own
/// lines and the line immediately after it); malformed ones are reported
/// as `A0` findings.
fn parse_annotations(
    rel_path: &str,
    comments: &[Comment],
    findings: &mut Vec<Finding>,
) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        let text = c.text.as_str();
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|d| text.starts_with(d))
        {
            continue;
        }
        let mut rest = text;
        while let Some(at) = rest.find("lint:") {
            rest = &rest[at + "lint:".len()..];
            let body = rest.trim_start();
            if !body.starts_with("allow(") {
                continue;
            }
            let parsed = body
                .strip_prefix("allow(")
                .and_then(|b| b.split_once(')'))
                .and_then(|(inside, _)| inside.split_once(','))
                .and_then(|(rule, reason)| {
                    let rule = Rule::parse(rule.trim())?;
                    let reason = reason.trim();
                    (!reason.is_empty()).then_some(rule)
                });
            match parsed {
                Some(rule) => allows.push(Allow {
                    rule,
                    line: c.line,
                    first: c.line,
                    last: c.end_line + 1,
                    used: false,
                }),
                None => findings.push(Finding {
                    rule: Rule::A0,
                    file: rel_path.to_string(),
                    line: c.line,
                    message: "malformed lint annotation; expected \
                              `lint: allow(RULE, reason)` with a non-empty reason"
                        .to_string(),
                }),
            }
        }
    }
    allows
}

struct Scan<'a> {
    rel_path: &'a str,
    class: FileClass<'a>,
    tokens: &'a [Token],
    test_lines: &'a BTreeSet<u32>,
}

impl Scan<'_> {
    fn emit(&self, findings: &mut Vec<Finding>, rule: Rule, line: u32, message: String) {
        findings.push(Finding {
            rule,
            file: self.rel_path.to_string(),
            line,
            message,
        });
    }

    /// Library (non-test) code at `line`?
    fn lib_code(&self, line: u32) -> bool {
        !self.class.test_path && !self.test_lines.contains(&line)
    }

    fn rule_d1(&self, findings: &mut Vec<Finding>) {
        let deterministic = DETERMINISTIC_CRATES.contains(&self.class.krate);
        for (i, t) in self.tokens.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            match t.text.as_str() {
                "HashMap" | "HashSet" if deterministic && self.lib_code(t.line) => {
                    self.emit(
                        findings,
                        Rule::D1,
                        t.line,
                        format!(
                            "`{}` iterates in seed-unstable order inside a deterministic \
                             crate; use `BTreeMap`/`BTreeSet` or an order-stable wrapper",
                            t.text
                        ),
                    );
                }
                "Instant"
                    if self.tokens.get(i + 1).is_some_and(|n| n.text == "::")
                        && self.tokens.get(i + 2).is_some_and(|n| n.text == "now") =>
                {
                    self.emit(
                        findings,
                        Rule::D1,
                        t.line,
                        "`Instant::now` reads the wall clock; deterministic code must \
                         derive time from `SimTime`"
                            .to_string(),
                    );
                }
                "SystemTime" => {
                    self.emit(
                        findings,
                        Rule::D1,
                        t.line,
                        "`SystemTime` reads the wall clock; deterministic code must \
                         derive time from `SimTime`"
                            .to_string(),
                    );
                }
                "thread_rng" => {
                    self.emit(
                        findings,
                        Rule::D1,
                        t.line,
                        "`thread_rng` is ambient, unseeded randomness; fork a stream \
                         from `mvcom_simnet::rng::master(seed)` instead"
                            .to_string(),
                    );
                }
                _ => {}
            }
        }
    }

    fn rule_p1(&self, findings: &mut Vec<Finding>) {
        let toks = self.tokens;
        for i in 0..toks.len() {
            let t = &toks[i];
            if !self.lib_code(t.line) {
                continue;
            }
            // `.unwrap()` / `.expect(`
            if t.text == "."
                && toks.get(i + 1).is_some_and(|n| {
                    n.kind == TokKind::Ident && (n.text == "unwrap" || n.text == "expect")
                })
                && toks.get(i + 2).is_some_and(|n| n.text == "(")
            {
                let name = &toks[i + 1].text;
                let closes = if name == "unwrap" {
                    toks.get(i + 3).is_some_and(|n| n.text == ")")
                } else {
                    true
                };
                if closes {
                    self.emit(
                        findings,
                        Rule::P1,
                        toks[i + 1].line,
                        format!(
                            "`.{name}(…)` can panic in library code; thread a `Result` \
                             through, or justify with `// lint: allow(P1, reason)`"
                        ),
                    );
                }
            }
            // Constant slice index `foo[0]`.
            if t.text == "["
                && i > 0
                && toks
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokKind::NumLit && !n.is_float())
                && toks.get(i + 2).is_some_and(|n| n.text == "]")
            {
                let prev = &toks[i - 1];
                let postfix = match prev.kind {
                    TokKind::Ident => !NON_POSTFIX_KEYWORDS.contains(&prev.text.as_str()),
                    TokKind::Punct => prev.text == ")" || prev.text == "]",
                    _ => false,
                };
                if postfix {
                    self.emit(
                        findings,
                        Rule::P1,
                        t.line,
                        format!(
                            "constant index `[{}]` panics when the slice is shorter; \
                             use `.get({})`/`.first()` or justify with \
                             `// lint: allow(P1, reason)`",
                            toks[i + 1].text,
                            toks[i + 1].text
                        ),
                    );
                }
            }
        }
    }

    fn rule_f1(&self, findings: &mut Vec<Finding>) {
        let toks = self.tokens;
        for i in 0..toks.len() {
            let t = &toks[i];
            if !self.lib_code(t.line) {
                continue;
            }
            // `.partial_cmp( … ).unwrap()` / `.expect(`
            if t.text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "partial_cmp")
                && toks.get(i + 2).is_some_and(|n| n.text == "(")
            {
                if let Some(close) = matching(toks, i + 2, "(", ")") {
                    if toks.get(close + 1).is_some_and(|n| n.text == ".")
                        && toks
                            .get(close + 2)
                            .is_some_and(|n| n.text == "unwrap" || n.text == "expect")
                    {
                        self.emit(
                            findings,
                            Rule::F1,
                            toks[i + 1].line,
                            "`partial_cmp(…).unwrap()` panics on NaN; use \
                             `f64::total_cmp` or the total-order helpers in \
                             `mvcom_types::latency`"
                                .to_string(),
                        );
                    }
                }
            }
            // `x == 1.5` / `1.5 != x`: exact float-literal comparison.
            if t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=") {
                let float_neighbor = (i > 0 && toks[i - 1].is_float())
                    || toks.get(i + 1).is_some_and(Token::is_float);
                if float_neighbor {
                    self.emit(
                        findings,
                        Rule::F1,
                        t.line,
                        format!(
                            "exact `{}` against a float literal is a rounding hazard; \
                             compare via `mvcom_types::latency::approx_eq` or restructure",
                            t.text
                        ),
                    );
                }
            }
        }
    }

    fn rule_t1(&self, findings: &mut Vec<Finding>) {
        let toks = self.tokens;
        for i in 0..toks.len() {
            if toks[i].text == "#"
                && toks.get(i + 1).is_some_and(|n| n.text == "[")
                && toks.get(i + 2).is_some_and(|n| n.text == "ignore")
            {
                match toks.get(i + 3) {
                    Some(n) if n.text == "]" => {
                        self.emit(
                            findings,
                            Rule::T1,
                            toks[i + 2].line,
                            "`#[ignore]` without a reason; write \
                             `#[ignore = \"why this test is skipped\"]`"
                                .to_string(),
                        );
                    }
                    Some(n) if n.text == "=" => {} // carries a reason
                    _ => {}
                }
            }
        }
    }

    /// U1: every crate root must open with `#![forbid(unsafe_code)]`.
    fn rule_u1(&self, findings: &mut Vec<Finding>) {
        if !is_crate_root(self.rel_path) {
            return;
        }
        let has_forbid = self.tokens.windows(8).any(|w| {
            matches!(
                w,
                [hash, bang, open, forbid, paren, what, close, shut]
                    if hash.text == "#"
                        && bang.text == "!"
                        && open.text == "["
                        && forbid.text == "forbid"
                        && paren.text == "("
                        && what.text == "unsafe_code"
                        && close.text == ")"
                        && shut.text == "]"
            )
        });
        if !has_forbid {
            self.emit(
                findings,
                Rule::U1,
                1,
                "crate root lacks `#![forbid(unsafe_code)]`; every workspace \
                 compilation unit forbids unsafe so the determinism argument \
                 never crosses an unchecked boundary"
                    .to_string(),
            );
        }
    }
}

/// Atomic orderings the C3 rule treats as needing a written argument.
const WEAK_ORDERINGS: [&str; 4] = ["Relaxed", "Acquire", "Release", "AcqRel"];

/// `Obs` emission methods that must not run against a shared handle
/// inside the parallel region. Metric updates (`incr`/`add`/`set_gauge`)
/// are commutative and deliberately absent.
const EMIT_METHODS: [&str; 3] = ["emit", "span", "replay"];

/// Constructions that make a unit's emissions safe: the handle is either
/// task-local or the deferred worker end of the replay buffer.
const SANCTIONED_OBS: [&str; 4] = ["memory", "writer", "off", "to_file"];

/// Identifiers that denote a worker count or index; comparing or
/// branching on one inside the region makes behavior thread-dependent.
const THREAD_IDENTS: [&str; 14] = [
    "threads",
    "n_threads",
    "num_threads",
    "thread_count",
    "thread_id",
    "thread_idx",
    "workers",
    "n_workers",
    "num_workers",
    "worker_count",
    "worker_id",
    "worker_idx",
    "worker_index",
    "tid",
];

/// Assignment operators (for the C2 captured-mutation check).
const ASSIGN_OPS: [&str; 11] = [
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

/// Comparison operators (for the C4 thread-count-branching check).
const CMP_OPS: [&str; 6] = ["==", "!=", "<", ">", "<=", ">="];

/// Scanner for one parallel-region unit of one file.
struct RegionScan<'a> {
    ctx: &'a CrateFile<'a>,
    unit: &'a Unit,
}

impl RegionScan<'_> {
    fn toks(&self) -> &[Token] {
        &self.ctx.lexed.tokens
    }

    fn lib_code(&self, line: u32) -> bool {
        !self.ctx.test_lines.contains(&line)
    }

    fn emit(&self, findings: &mut Vec<Finding>, rule: Rule, line: u32, message: String) {
        findings.push(Finding {
            rule,
            file: self.ctx.rel.to_string(),
            line,
            message,
        });
    }

    fn range(&self) -> std::ops::RangeInclusive<usize> {
        self.unit.start..=self.unit.end.min(self.toks().len().saturating_sub(1))
    }

    /// C1: `Obs` emission on a handle that was not constructed in this
    /// body. A body that builds its own handle (`obs.deferred()`,
    /// `Obs::memory()`, …) owns its event ordering and is exempt.
    fn rule_c1(&self, findings: &mut Vec<Finding>) {
        let toks = self.toks();
        let sanctioned = self.range().any(|i| {
            let t = &toks[i];
            (t.text == "deferred"
                && i > 0
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "("))
                || (t.text == "Obs"
                    && toks.get(i + 1).is_some_and(|n| n.text == "::")
                    && toks
                        .get(i + 2)
                        .is_some_and(|n| SANCTIONED_OBS.contains(&n.text.as_str())))
        });
        if sanctioned {
            return;
        }
        for i in self.range() {
            let t = &toks[i];
            if t.text == "."
                && toks
                    .get(i + 1)
                    .is_some_and(|n| EMIT_METHODS.contains(&n.text.as_str()))
                && toks.get(i + 2).is_some_and(|n| n.text == "(")
                && self.lib_code(toks[i + 1].line)
            {
                self.emit(
                    findings,
                    Rule::C1,
                    toks[i + 1].line,
                    format!(
                        "`.{}(…)` on a shared `Obs` handle inside the parallel region \
                         races the event sequence; emit through `Obs::deferred()` and \
                         replay after the join, or justify with `// lint: allow(C1, reason)`",
                        toks[i + 1].text
                    ),
                );
            }
        }
    }

    /// C2: shared mutable state inside the region — non-`Sync` interior
    /// mutability anywhere, and mutation of captured variables inside
    /// closure bodies.
    fn rule_c2(&self, findings: &mut Vec<Finding>) {
        let toks = self.toks();
        for i in self.range() {
            let t = &toks[i];
            if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "Rc" | "RefCell" | "Cell" | "UnsafeCell")
                && self.lib_code(t.line)
            {
                self.emit(
                    findings,
                    Rule::C2,
                    t.line,
                    format!(
                        "`{}` inside the parallel region aliases unsynchronized \
                         mutable state; use `Arc` + `Mutex`/atomics or keep the \
                         value task-local",
                        t.text
                    ),
                );
            }
        }
        // Captured-mutation check: only closures capture.
        if self.unit.params.is_none() {
            return;
        }
        let locals = self.closure_locals();
        for i in self.range() {
            let t = &toks[i];
            if t.kind != TokKind::Punct || !ASSIGN_OPS.contains(&t.text.as_str()) || i == 0 {
                continue;
            }
            let prev = &toks[i - 1];
            if prev.kind != TokKind::Ident || prev.text == "self" {
                continue;
            }
            if i >= 2 && toks[i - 2].text == "." {
                continue; // field assignment; the receiver decides, not the name
            }
            if locals.contains(prev.text.as_str()) || !self.lib_code(t.line) {
                continue;
            }
            self.emit(
                findings,
                Rule::C2,
                t.line,
                format!(
                    "`{}` is mutated inside a spawned closure but declared outside \
                     it; the merged value depends on worker interleaving — move it \
                     into the task result or a per-task slot",
                    prev.text
                ),
            );
        }
    }

    /// Identifiers declared inside the closure (params, `let`, `for`),
    /// over-approximated: type names in patterns are harmless extras.
    fn closure_locals(&self) -> BTreeSet<&str> {
        let toks = self.toks();
        let mut locals = BTreeSet::new();
        if let Some((ps, pe)) = self.unit.params {
            for t in &toks[ps..=pe.min(toks.len().saturating_sub(1))] {
                if t.kind == TokKind::Ident {
                    locals.insert(t.text.as_str());
                }
            }
        }
        let mut i = self.unit.start;
        let end = self.unit.end.min(toks.len().saturating_sub(1));
        while i <= end {
            let t = &toks[i];
            if t.kind == TokKind::Ident && (t.text == "let" || t.text == "for") {
                let stoppers: &[&str] = if t.text == "let" {
                    &["=", ";"]
                } else {
                    &["in"]
                };
                let mut j = i + 1;
                while j <= end {
                    let tj = &toks[j];
                    if stoppers.contains(&tj.text.as_str()) {
                        break;
                    }
                    if tj.kind == TokKind::Ident {
                        locals.insert(tj.text.as_str());
                    }
                    j += 1;
                }
                i = j;
            }
            i += 1;
        }
        locals
    }

    /// C3: atomic orderings weaker than `SeqCst`, and acquisition of
    /// locks on two distinct receivers within one unit (no canonical
    /// order is visible to the analyzer — document one).
    fn rule_c3(&self, findings: &mut Vec<Finding>) {
        let toks = self.toks();
        for i in self.range() {
            let t = &toks[i];
            if t.text == "Ordering"
                && toks.get(i + 1).is_some_and(|n| n.text == "::")
                && toks
                    .get(i + 2)
                    .is_some_and(|n| WEAK_ORDERINGS.contains(&n.text.as_str()))
                && self.lib_code(toks[i + 2].line)
            {
                self.emit(
                    findings,
                    Rule::C3,
                    toks[i + 2].line,
                    format!(
                        "`Ordering::{}` is weaker than `SeqCst` inside the parallel \
                         region; state why the protocol tolerates the relaxation \
                         with `// lint: allow(C3, reason)` or upgrade the ordering",
                        toks[i + 2].text
                    ),
                );
            }
        }
        let mut receivers: Vec<(&str, u32)> = Vec::new();
        for i in self.range() {
            let t = &toks[i];
            if t.text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "lock")
                && toks.get(i + 2).is_some_and(|n| n.text == "(")
                && self.lib_code(toks[i + 1].line)
            {
                if let Some(base) = receiver_base(toks, i) {
                    if !receivers.iter().any(|(n, _)| *n == base) {
                        receivers.push((base, toks[i + 1].line));
                    }
                }
            }
        }
        if let Some(&(_, second_line)) = receivers.get(1) {
            let names: Vec<&str> = receivers.iter().map(|(n, _)| *n).collect();
            self.emit(
                findings,
                Rule::C3,
                second_line,
                format!(
                    "locks on `{}` are acquired in one parallel unit with no \
                     canonical order the analyzer can see; document the order (or \
                     that the guards never overlap) with `// lint: allow(C3, reason)`",
                    names.join("`, `")
                ),
            );
        }
    }

    /// C4: comparing/branching on a thread count or worker index inside
    /// the region. The partitioner (the fn that spawns) sits outside the
    /// region by construction, so its `workers <= 1` fast paths pass.
    fn rule_c4(&self, findings: &mut Vec<Finding>) {
        let toks = self.toks();
        for i in self.range() {
            let t = &toks[i];
            if t.kind == TokKind::Punct && CMP_OPS.contains(&t.text.as_str()) {
                let neighbor = [i.checked_sub(1), Some(i + 1)]
                    .into_iter()
                    .flatten()
                    .filter_map(|j| toks.get(j))
                    .find(|n| n.kind == TokKind::Ident && THREAD_IDENTS.contains(&n.text.as_str()));
                if let Some(n) = neighbor {
                    if self.lib_code(t.line) {
                        self.emit(
                            findings,
                            Rule::C4,
                            t.line,
                            format!(
                                "comparison against `{}` inside the parallel region \
                                 makes behavior depend on `--threads`; only the \
                                 partitioner may consult the worker count",
                                n.text
                            ),
                        );
                    }
                }
            }
            // Reading the global thread count from worker code.
            if t.kind == TokKind::Ident
                && (t.text == "threads" || t.text == "resolve_threads")
                && toks.get(i + 1).is_some_and(|n| n.text == "(")
                && (i == 0 || toks[i - 1].text != "fn")
                && self.lib_code(t.line)
            {
                self.emit(
                    findings,
                    Rule::C4,
                    t.line,
                    format!(
                        "`{}()` reads the global worker count inside the parallel \
                         region; thread-dependent values must stay in the partitioner",
                        t.text
                    ),
                );
            }
        }
    }
}

/// The base identifier of a method receiver, walking back over `.field`
/// chains and `[…]`/`(…)` groups: `self.slots[i].lock()` → `self`.
/// `None` when the receiver is not rooted in a plain identifier.
fn receiver_base(toks: &[Token], dot: usize) -> Option<&str> {
    let mut j = dot.checked_sub(1)?;
    loop {
        match toks[j].text.as_str() {
            "]" => j = rmatching(toks, j, "[", "]")?.checked_sub(1)?,
            ")" => j = rmatching(toks, j, "(", ")")?.checked_sub(1)?,
            _ => {
                if toks[j].kind != TokKind::Ident {
                    return None;
                }
                // `a.b[i].lock()`: keep walking the field chain left.
                match j.checked_sub(1) {
                    Some(p) if toks[p].text == "." => {
                        j = p.checked_sub(1)?;
                    }
                    _ => return Some(&toks[j].text),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn hashmap_flagged_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_of(&lint_source("crates/simnet/src/x.rs", src)),
            [Rule::D1]
        );
        assert!(lint_source("crates/pbft/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_mod_is_exempt_from_p1_but_file_paths_matter() {
        let src = "fn lib() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let found = lint_source("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&found), [Rule::P1]);
        assert_eq!(found[0].line, 1);
        assert!(lint_source("crates/core/tests/x.rs", src).is_empty());
    }

    #[test]
    fn annotation_silences_and_requires_reason() {
        let ok = "// lint: allow(P1, length checked above)\nlet v = x.unwrap();\n";
        assert!(lint_source("crates/core/src/x.rs", ok).is_empty());
        let trailing = "let v = x.unwrap(); // lint: allow(P1, length checked above)\n";
        assert!(lint_source("crates/core/src/x.rs", trailing).is_empty());
        let bad = "// lint: allow(P1)\nlet v = x.unwrap();\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/x.rs", bad)),
            [Rule::A0, Rule::P1]
        );
    }

    #[test]
    fn float_equality_and_partial_cmp() {
        let src = "fn f() { if x == 1.5 {} a.partial_cmp(&b).unwrap(); }\n";
        // The `.unwrap()` also trips P1 — both rules point at the same fix.
        assert_eq!(
            rules_of(&lint_source("crates/core/src/x.rs", src)),
            [Rule::P1, Rule::F1, Rule::F1]
        );
        // A plain partial_cmp without unwrap is fine.
        let ok = "fn f() -> Option<Ordering> { a.partial_cmp(&b) }\n";
        assert!(lint_source("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn bare_ignore_flagged_with_reason_ok() {
        let src = "#[ignore]\nfn a() {}\n#[ignore = \"slow\"]\nfn b() {}\n";
        let found = lint_source("crates/core/tests/x.rs", src);
        assert_eq!(rules_of(&found), [Rule::T1]);
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn constant_index_heuristics() {
        let flagged = "fn f() { let x = items[0]; }\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/x.rs", flagged)),
            [Rule::P1]
        );
        // Array literals and macro args are not index expressions.
        let ok = "fn f() { let a = [0]; for _ in [1] {} let v = vec![0]; }\n";
        assert!(lint_source("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn wall_clock_flagged_everywhere() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/pbft/src/x.rs", src)),
            [Rule::D1]
        );
        // No crate is exempt: `repro`'s progress timer carries an allow.
        assert_eq!(
            rules_of(&lint_source("crates/bench/src/x.rs", src)),
            [Rule::D1]
        );
        // Also applies inside tests/ paths: wall-clock tests flake.
        assert_eq!(rules_of(&lint_source("tests/x.rs", src)), [Rule::D1]);
    }

    #[test]
    fn strings_and_doc_comments_do_not_trip_rules() {
        let src = "/// let x = y.unwrap();\nfn f() { let s = \"HashMap.unwrap()\"; }\n";
        assert!(lint_source("crates/simnet/src/x.rs", src).is_empty());
    }

    #[test]
    fn c1_direct_emission_in_region_flagged() {
        let src = "\
fn worker_body(obs: &Obs) { obs.emit(\"k\", 1.0, &[]); }
fn fan_out(obs: &Obs) {
    crossbeam::scope(|s| { s.spawn(|_| worker_body(obs)); });
}
";
        let found = lint_source("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&found), [Rule::C1]);
        assert_eq!(found[0].line, 1);
        // The same emission outside any spawn is fine.
        let serial = "fn worker_body(obs: &Obs) { obs.emit(\"k\", 1.0, &[]); }\n";
        assert!(lint_source("crates/core/src/x.rs", serial).is_empty());
    }

    #[test]
    fn c1_exempts_bodies_that_build_their_own_handle() {
        let src = "\
fn fan_out(obs: &Obs) {
    crossbeam::scope(|s| {
        s.spawn(|_| {
            let (worker, capture) = obs.deferred();
            worker.emit(\"k\", 1.0, &[]);
        });
    });
}
";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn c2_interior_mutability_and_captured_mutation() {
        let src = "\
fn fan_out() {
    let mut merged = 0u64;
    crossbeam::scope(|s| {
        s.spawn(move |_| {
            let cell = RefCell::new(0u64);
            merged += 1;
        });
    });
}
";
        let found = lint_source("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&found), [Rule::C2, Rule::C2]);
        assert_eq!((found[0].line, found[1].line), (5, 6));
        // Task-local state is fine.
        let ok = "\
fn fan_out() {
    crossbeam::scope(|s| {
        s.spawn(|_| {
            let mut local = 0u64;
            local += 1;
        });
    });
}
";
        assert!(lint_source("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn c3_weak_ordering_and_lock_pairs() {
        let src = "\
fn fan_out(stop: &AtomicBool, a: &Mutex<u64>, b: &Mutex<u64>) {
    crossbeam::scope(|s| {
        s.spawn(|_| {
            stop.store(true, Ordering::Relaxed);
            let x = a.lock();
            let y = b.lock();
        });
    });
}
";
        let found = lint_source("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&found), [Rule::C3, Rule::C3]);
        assert_eq!((found[0].line, found[1].line), (4, 6));
        // SeqCst + a single lock receiver is clean.
        let ok = "\
fn fan_out(stop: &AtomicBool, a: &Mutex<u64>) {
    crossbeam::scope(|s| {
        s.spawn(|_| {
            stop.store(true, Ordering::SeqCst);
            let x = a.lock();
            let y = a.lock();
        });
    });
}
";
        assert!(lint_source("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn c4_thread_count_branching() {
        let src = "\
fn fan_out(workers: usize) {
    if workers <= 1 { return; }
    crossbeam::scope(|s| {
        s.spawn(move |_| {
            let wide = workers > 2;
        });
    });
}
";
        let found = lint_source("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&found), [Rule::C4]);
        // Line 2's partitioner fast path is outside the region; only the
        // in-closure comparison on line 5 fires.
        assert_eq!(found[0].line, 5);
    }

    #[test]
    fn c_rules_ignore_test_paths() {
        let src = "\
fn fan_out() {
    let mut merged = 0u64;
    crossbeam::scope(|s| { s.spawn(move |_| { merged += 1; }); });
}
";
        assert!(lint_source("crates/core/tests/x.rs", src).is_empty());
    }

    #[test]
    fn w1_reports_stale_allow() {
        let stale = "// lint: allow(P1, nothing here can panic)\nfn f() { let x = 1; }\n";
        let found = lint_source("crates/core/src/x.rs", stale);
        assert_eq!(rules_of(&found), [Rule::W1]);
        assert_eq!(found[0].line, 1);
        // A used allow is not stale.
        let used = "// lint: allow(P1, length checked above)\nfn f() { x.unwrap(); }\n";
        assert!(lint_source("crates/core/src/x.rs", used).is_empty());
    }

    #[test]
    fn u1_requires_forbid_in_crate_roots_only() {
        let bare = "pub fn noop() {}\n";
        assert_eq!(
            rules_of(&lint_source("crates/foo/src/lib.rs", bare)),
            [Rule::U1]
        );
        assert_eq!(rules_of(&lint_source("src/bin/mvcom.rs", bare)), [Rule::U1]);
        assert!(lint_source("crates/foo/src/util.rs", bare).is_empty());
        let good = "#![forbid(unsafe_code)]\npub fn noop() {}\n";
        assert!(lint_source("crates/foo/src/lib.rs", good).is_empty());
    }

    #[test]
    fn lint_crate_resolves_calls_across_files() {
        let worker = "pub fn worker_body(obs: &Obs) { obs.emit(\"k\", 1.0, &[]); }\n";
        let spawner = "\
use super::worker_body;
pub fn fan_out(obs: &Obs) {
    crossbeam::scope(|s| { s.spawn(|_| worker_body(obs)); });
}
";
        let found = lint_crate(&[
            ("crates/core/src/a.rs", worker),
            ("crates/core/src/b.rs", spawner),
        ]);
        assert_eq!(rules_of(&found), [Rule::C1]);
        assert_eq!(found[0].file, "crates/core/src/a.rs");
        // Linted alone, the worker file has no region and stays clean.
        assert!(lint_source("crates/core/src/a.rs", worker).is_empty());
    }

    #[test]
    fn rule_selection_parses() {
        let sel = RuleSelection::parse("C1, C3,W1").expect("valid list");
        assert!(sel.contains(Rule::C1) && sel.contains(Rule::C3) && sel.contains(Rule::W1));
        assert!(!sel.contains(Rule::P1));
        assert!(RuleSelection::parse("all").expect("all").contains(Rule::U1));
        assert!(RuleSelection::parse("Z9").is_err());
    }
}
