//! The lint rules and the annotation grammar.
//!
//! Token-level rules guard the invariants MVCom's correctness argument
//! leans on (see DESIGN.md §7):
//!
//! | rule | guards                                                        |
//! |------|---------------------------------------------------------------|
//! | D1   | determinism: no seed-unstable containers in deterministic     |
//! |      | crates; no wall-clock / ambient RNG anywhere; no thread or    |
//! |      | synchronisation primitive in a crate a fan-out worker can     |
//! |      | reach, outside `simnet/src/fanout.rs`                         |
//! | P1   | panic-freedom: no `unwrap`/`expect`/constant index in         |
//! |      | non-test library code without a justification annotation      |
//! | F1   | float ordering: no `partial_cmp().unwrap()`, no `==`/`!=`     |
//! |      | against float literals — use the total-order helpers          |
//! | T1   | test hygiene: `#[ignore]` must carry a reason string          |
//! | W1   | annotation hygiene: an `allow(…)` that suppresses nothing is  |
//! |      | stale and reported itself                                     |
//! | U1   | every crate root (`src/lib.rs`, `src/main.rs`, `src/bin/*`)   |
//! |      | must carry `#![forbid(unsafe_code)]`                          |
//!
//! What a fan-out worker may do is decided by the compiler, not here
//! (DESIGN.md §12): `ordered_map`'s bounds and the type of `Obs`. A
//! violation of a rule above is silenced inline with
//!
//! ```text
//! // lint: allow(P1, reason why the panic cannot happen)
//! ```
//!
//! on the offending line or the line directly above it. The reason is
//! mandatory; a malformed annotation is itself reported (rule `A0`), and
//! an annotation that suppresses nothing is reported as `W1` (neither is
//! suppressible).

use std::collections::BTreeSet;
use std::fmt;

use crate::lexer::{lex, Comment, TokKind, Token};

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
    pub const ALL: [Rule; 7] = [
        Rule::D1,
        Rule::P1,
        Rule::F1,
        Rule::T1,
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

    /// Parses `all` or a comma-separated rule list (`D1,P1,W1`).
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
                None => {
                    let known = Rule::ALL.map(|r| r.to_string()).join(", ");
                    return Err(format!("unknown rule `{name}` (expected all, {known})"));
                }
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

/// Crates whose library code an `ordered_map` task can reach. The bounds
/// of `ordered_map` keep a task from *sharing* unsynchronised state; this
/// list keeps those crates from growing synchronised state (whose order
/// of use would depend on `--threads`) or a second fan-out.
const WORKER_CRATES: [&str; 8] = [
    "core",
    "elastico",
    "pbft",
    "simnet",
    "baselines",
    "dataset",
    "types",
    "bench",
];

/// The one file of [`WORKER_CRATES`] that may name a thread or a lock:
/// the fan-out itself, whose protocol the `merge` model explores.
const FAN_OUT_FILE: &str = "crates/simnet/src/fanout.rs";

/// Thread and synchronisation primitives by name; `Atomic*` and
/// `thread::{spawn, scope, Builder}` are matched by shape in `rule_d1`.
const SYNC_IDENTS: [&str; 9] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "Once",
    "OnceLock",
    "LazyLock",
    "mpsc",
    "thread_local",
];

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

/// Lints one file's source: the token rules, then suppression, then
/// stale-allow detection. `rel_path` must be workspace-relative with `/`
/// separators (e.g. `crates/simnet/src/fanout.rs`); it selects which
/// rules apply. Findings are sorted by `(line, rule)`.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let test_lines = test_region_lines(&lexed.tokens);
    let mut findings = Vec::new();
    let mut allows = parse_annotations(rel_path, &lexed.comments, &mut findings);
    let scan = Scan {
        rel_path,
        class: classify(rel_path),
        tokens: &lexed.tokens,
        test_lines: &test_lines,
    };
    scan.rule_d1(&mut findings);
    scan.rule_p1(&mut findings);
    scan.rule_f1(&mut findings);
    scan.rule_t1(&mut findings);
    scan.rule_u1(&mut findings);

    // Suppression: every allow covering a finding's (line, rule) absorbs
    // it and counts as used. A0/W1 findings are never suppressible.
    findings.retain(|f| {
        if matches!(f.rule, Rule::A0 | Rule::W1) {
            return true;
        }
        let mut suppressed = false;
        for a in &mut allows {
            if a.rule == f.rule && (a.first..=a.last).contains(&f.line) {
                a.used = true;
                suppressed = true;
            }
        }
        !suppressed
    });
    for a in allows.iter().filter(|a| !a.used) {
        findings.push(Finding {
            rule: Rule::W1,
            file: rel_path.to_string(),
            line: a.line,
            message: format!(
                "`lint: allow({}, …)` suppresses no finding; \
                 remove the stale annotation",
                a.rule
            ),
        });
    }
    findings.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    // One line can name the same hazard twice (`let m: HashMap<_, _> =
    // HashMap::new()`); exact repeats collapse — distinct diagnostics on
    // one line all stand.
    findings.dedup_by(|a, b| (a.line, a.rule, &a.message) == (b.line, b.rule, &b.message));
    findings
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

    /// The thread or synchronisation primitive the identifier at `i`
    /// names, as the finding spells it (D1's third clause).
    fn sync_primitive_at(&self, i: usize) -> Option<String> {
        let name = self.tokens[i].text.as_str();
        let next = |k: usize| self.tokens.get(i + k).map(|n| n.text.as_str());
        if SYNC_IDENTS.contains(&name) || name.starts_with("Atomic") {
            return Some(name.to_string());
        }
        match (name, next(1), next(2)) {
            ("thread", Some("::"), Some(f @ ("spawn" | "scope" | "Builder"))) => {
                Some(format!("thread::{f}"))
            }
            _ => None,
        }
    }

    fn rule_d1(&self, findings: &mut Vec<Finding>) {
        let deterministic = DETERMINISTIC_CRATES.contains(&self.class.krate);
        let worker_reachable =
            WORKER_CRATES.contains(&self.class.krate) && self.rel_path != FAN_OUT_FILE;
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
                _ if worker_reachable && self.lib_code(t.line) => {
                    let Some(name) = self.sync_primitive_at(i) else {
                        continue;
                    };
                    self.emit(
                        findings,
                        Rule::D1,
                        t.line,
                        format!(
                            "`{name}` is a thread or synchronisation primitive in a crate a \
                             fan-out task can reach, where the order of its use would \
                             depend on `--threads`; `mvcom_simnet::ordered_map` is the only \
                             fan-out — hand state to a task in its item and back in its result"
                        ),
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
    fn rule_selection_parses() {
        let sel = RuleSelection::parse("D1, F1,W1").expect("valid list");
        assert!(sel.contains(Rule::D1) && sel.contains(Rule::F1) && sel.contains(Rule::W1));
        assert!(!sel.contains(Rule::P1));
        assert!(RuleSelection::parse("all").expect("all").contains(Rule::U1));
        assert_eq!(
            RuleSelection::parse("Z9").unwrap_err(),
            "unknown rule `Z9` (expected all, D1, P1, F1, T1, W1, U1, A0)"
        );
    }
}
