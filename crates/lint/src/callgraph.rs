//! The reachability pass behind the C-rule family: a per-crate fn→fn
//! call graph over the lexer's token stream, used to mark the **parallel
//! region** — every function or closure that can execute on a worker
//! thread.
//!
//! The workspace has exactly one fan-out implementation,
//! `mvcom_simnet::fanout::ordered_map` (the SE replica race, elastico's
//! stage-3 committee pool and every figure sweep of `mvcom-bench` call
//! it): workers claim `(index, item)` pairs off one shared queue and
//! results land in per-index slots. The C-rules only make sense *inside*
//! that region — `Ordering::Relaxed` on a caller-side cached value is
//! fine, the same token inside a spawned closure needs a justification.
//! So the region is computed, not guessed:
//!
//! 1. **Roots.** Closure literals appearing (lexically) inside the
//!    argument list of a `spawn(…)` or `ordered_map(…)` call — the
//!    primitive's own workers, and what each crate hands it.
//! 2. **Reachability.** From each root, called names are resolved
//!    *within the crate*: direct calls (`execute_pbft(…)`) to every
//!    same-name `fn`, calls to `let`-bound closures in the same file, and
//!    method calls (`chain.race(…)`) to every same-name `fn` — except
//!    `AMBIENT_METHODS`, ubiquitous names (`new`, `run`, `len`, …)
//!    whose name-only resolution would connect unrelated code. The
//!    closure of that relation is the parallel region.
//!
//! This is a lexical over/under-approximation, not rustc: cross-crate
//! calls are not followed (the deferred-`Obs` hand-off at a crate
//! boundary is the documented contract instead), and trait dispatch
//! resolves by name. Both limits are deliberate — see DESIGN.md §12.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{LexOutput, TokKind, Token};

/// Method names never followed across the graph: name-only resolution of
/// these would wire the whole crate together (`SeEngine::new` vs
/// `Network::new`, every figure's `run`, …). Direct calls are always
/// followed; a worker helper worth tracking has a distinctive name.
const AMBIENT_METHODS: [&str; 24] = [
    "new",
    "default",
    "clone",
    "run",
    "build",
    "solve",
    "validate",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "take",
    "next",
    "iter",
    "into_iter",
    "map",
    "collect",
    "write",
    "flush",
    "lock",
    "to_string",
];

/// Call names whose closure arguments run on worker threads: the
/// primitive's own `spawn`, and the primitive.
const FAN_OUT_CALLS: [&str; 2] = ["spawn", "ordered_map"];

/// Keywords that look like `ident(…)` call sites but are not calls.
const CALL_KEYWORDS: [&str; 9] = [
    "if", "while", "match", "for", "loop", "return", "fn", "let", "move",
];

/// One span of the parallel region: a token range (inclusive) in one
/// file of the crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unit {
    /// Index into the file list handed to [`parallel_units`].
    pub file: usize,
    /// First token of the body (the opening delimiter or first token).
    pub start: usize,
    /// Last token of the body, inclusive.
    pub end: usize,
    /// `true` for a closure body (spawned directly or reached through a
    /// `let` binding — captures live there either way), `false` for a
    /// named function reached through the call graph.
    pub root: bool,
    /// For closure units, the token range of the parameter list
    /// (`|here|`); `None` for plain functions. Closure parameters are
    /// locals, everything else mutated inside is a capture (C2).
    pub params: Option<(usize, usize)>,
}

impl Unit {
    /// Whether token index `i` of the unit's file lies inside the unit.
    pub fn contains(&self, i: usize) -> bool {
        (self.start..=self.end).contains(&i)
    }
}

/// A function definition: its name and body token range.
#[derive(Debug, Clone)]
struct FnDef {
    name: String,
    file: usize,
    body: (usize, usize),
}

/// A closure literal: its body token range and, when bound with
/// `let name = |…| …`, the binding name calls can resolve to.
#[derive(Debug, Clone)]
struct ClosureDef {
    binding: Option<String>,
    file: usize,
    params: (usize, usize),
    body: (usize, usize),
}

/// One crate file as the region pass sees it: its tokens, the lines
/// covered by `#[cfg(test)]` items, and whether the whole file is test
/// scaffolding (`tests/`, `benches/`, `examples/`).
#[derive(Debug, Clone, Copy)]
pub struct FileInput<'a> {
    pub lexed: &'a LexOutput,
    pub test_lines: &'a BTreeSet<u32>,
    pub test_path: bool,
}

/// Computes the parallel region of one crate.
///
/// Test code — whole `tests/`/`benches/`/`examples/` files and
/// `#[cfg(test)]` regions — contributes nothing to the graph: a test
/// *exercises* the parallel region (often at several thread counts, via
/// direct `ordered_map` calls), its closures do not run
/// inside it, and rooting them would flood the partitioner itself into
/// the region through the test's own driver calls.
pub fn parallel_units(files: &[FileInput]) -> Vec<Unit> {
    let mut fns: Vec<FnDef> = Vec::new();
    let mut closures: Vec<ClosureDef> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if file.test_path {
            continue;
        }
        collect_fns(fi, &file.lexed.tokens, &mut fns);
        collect_closures(fi, &file.lexed.tokens, &mut closures);
    }

    let closure_params: BTreeMap<(usize, usize, usize), (usize, usize)> = closures
        .iter()
        .map(|c| ((c.file, c.body.0, c.body.1), c.params))
        .collect();

    // Roots: closures inside the argument list of a fan-out call.
    let mut roots: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
    for (fi, file) in files.iter().enumerate() {
        if file.test_path {
            continue;
        }
        let toks = &file.lexed.tokens;
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.kind != TokKind::Ident || !FAN_OUT_CALLS.contains(&t.text.as_str()) {
                continue;
            }
            if toks.get(i + 1).is_none_or(|n| n.text != "(") {
                continue;
            }
            if file.test_lines.contains(&t.line) {
                continue;
            }
            let Some(close) = matching(toks, i + 1, "(", ")") else {
                continue;
            };
            for c in closures.iter().filter(|c| c.file == fi) {
                if c.body.0 > i + 1 && c.body.1 < close {
                    roots.insert((fi, c.body.0, c.body.1));
                }
            }
        }
    }

    // Transitive closure over called names.
    let mut region: BTreeSet<(usize, usize, usize, bool)> =
        roots.iter().map(|&(f, s, e)| (f, s, e, true)).collect();
    let mut work: Vec<(usize, usize, usize)> = roots.iter().copied().collect();
    while let Some((fi, start, end)) = work.pop() {
        let toks = &files[fi].lexed.tokens;
        for name in called_names(toks, start, end) {
            for f in fns.iter().filter(|f| f.name == name) {
                let key = (f.file, f.body.0, f.body.1, false);
                if region
                    .iter()
                    .all(|&(a, b, c, _)| (a, b, c) != (key.0, key.1, key.2))
                {
                    region.insert(key);
                    work.push((f.file, f.body.0, f.body.1));
                }
            }
            // `let run_one = |task| …; … run_one(task)`: resolve within
            // the same file (closure bindings don't cross files).
            for c in closures.iter().filter(|c| c.file == fi) {
                if c.binding.as_deref() == Some(name.as_str()) {
                    let key = (c.file, c.body.0, c.body.1, true);
                    if region
                        .iter()
                        .all(|&(a, b, cc, _)| (a, b, cc) != (key.0, key.1, key.2))
                    {
                        region.insert(key);
                        work.push((c.file, c.body.0, c.body.1));
                    }
                }
            }
        }
    }

    region
        .into_iter()
        .map(|(file, start, end, root)| Unit {
            file,
            start,
            end,
            root,
            params: closure_params.get(&(file, start, end)).copied(),
        })
        .collect()
}

/// Called names (direct and followed method calls) within a token range.
fn called_names(toks: &[Token], start: usize, end: usize) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in start..=end.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        if t.kind != TokKind::Ident || toks.get(i + 1).is_none_or(|n| n.text != "(") {
            continue;
        }
        if CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // `.name(…)` and `Path::name(…)` resolve by name alone, so the
        // ambient stoplist applies to both; a plain `name(…)` call is
        // already unambiguous enough to always follow.
        let qualified = i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "::");
        if qualified && AMBIENT_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        if !qualified && i > 0 && toks[i - 1].text == "fn" {
            continue; // a definition, not a call
        }
        names.insert(t.text.clone());
    }
    names
}

/// Collects `fn name … { body }` definitions (methods included; trait
/// declarations without a body are skipped).
fn collect_fns(file: usize, toks: &[Token], out: &mut Vec<FnDef>) {
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // The body is the first `{` before any top-level `;` (which would
        // mean a bodyless trait-method declaration).
        let mut j = i + 2;
        let mut body = None;
        while let Some(t) = toks.get(j) {
            match t.text.as_str() {
                "{" => {
                    body = matching(toks, j, "{", "}").map(|close| (j, close));
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        match body {
            Some((open, close)) => {
                out.push(FnDef {
                    name: name_tok.text.clone(),
                    file,
                    body: (open, close),
                });
                i += 2; // nested fns inside the body are still found
            }
            None => i = j.max(i + 2),
        }
    }
}

/// Collects closure literals (`|args| body`, `move || body`, …) with
/// their body ranges and optional `let` binding names.
fn collect_closures(file: usize, toks: &[Token], out: &mut Vec<ClosureDef>) {
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let is_pipe = t.kind == TokKind::Punct && (t.text == "|" || t.text == "||");
        if !is_pipe || !closure_position(toks, i) {
            i += 1;
            continue;
        }
        // Find the end of the parameter list.
        let params_end = if t.text == "||" {
            i
        } else {
            match next_pipe(toks, i + 1) {
                Some(p) => p,
                None => {
                    i += 1;
                    continue;
                }
            }
        };
        let Some((body_start, body_end)) = closure_body(toks, params_end + 1) else {
            i = params_end + 1;
            continue;
        };
        out.push(ClosureDef {
            binding: binding_name(toks, i),
            file,
            params: (i, params_end),
            body: (body_start, body_end),
        });
        // Continue *inside* the params/body so nested closures are found.
        i += 1;
    }
}

/// Whether the pipe token at `i` starts a closure (as opposed to a
/// binary `|`/`||` operator): the preceding token must not be something
/// an operand ends with.
fn closure_position(toks: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
        return true;
    };
    match prev.kind {
        TokKind::Ident => prev.text == "move" || prev.text == "return" || prev.text == "else",
        TokKind::Punct => !matches!(prev.text.as_str(), ")" | "]" | "}"),
        _ => false,
    }
}

/// The closing `|` of a parameter list opened just before `from`.
fn next_pipe(toks: &[Token], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(from) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "|" if depth == 0 => return Some(k),
                _ => {}
            }
        }
    }
    None
}

/// The token range of a closure body starting at `from` (just past the
/// parameter list): a block, a `-> Type { … }` block, or a single
/// expression running to the next `,`/`)`/`;`/`]` at depth 0.
fn closure_body(toks: &[Token], from: usize) -> Option<(usize, usize)> {
    let mut j = from;
    if toks.get(j).is_some_and(|t| t.text == "->") {
        // Skip the return type: the body block is the first `{` at
        // paren depth 0 (types contain no braces).
        let mut depth = 0i32;
        j += 1;
        loop {
            let t = toks.get(j)?;
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                ";" if depth == 0 => return None,
                _ => {}
            }
            j += 1;
        }
    }
    let first = toks.get(j)?;
    if first.text == "{" {
        let close = matching(toks, j, "{", "}")?;
        return Some((j, close));
    }
    // Expression body: run to the closing delimiter of the enclosing
    // context.
    let start = j;
    let mut depth = 0i32;
    while let Some(t) = toks.get(j) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if depth == 0 => {
                    return Some((start, j.saturating_sub(1).max(start)))
                }
                ")" | "]" | "}" => depth -= 1,
                "," | ";" if depth == 0 => return Some((start, j.saturating_sub(1).max(start))),
                _ => {}
            }
        }
        j += 1;
    }
    Some((start, toks.len().saturating_sub(1)))
}

/// `let [mut] name = [move] |…|`: the binding name for the closure whose
/// first pipe token sits at `pipe`.
fn binding_name(toks: &[Token], pipe: usize) -> Option<String> {
    let mut j = pipe.checked_sub(1)?;
    if toks.get(j).is_some_and(|t| t.text == "move") {
        j = j.checked_sub(1)?;
    }
    if toks.get(j).is_none_or(|t| t.text != "=") {
        return None;
    }
    let name = toks.get(j.checked_sub(1)?)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    let mut k = j.checked_sub(2)?;
    if toks.get(k).is_some_and(|t| t.text == "mut") {
        k = k.checked_sub(1)?;
    }
    (toks.get(k)?.text == "let").then(|| name.text.clone())
}

/// Index of the token closing the bracket opened at `open`.
pub(crate) fn matching(toks: &[Token], open: usize, op: &str, cl: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn units_of(src: &str) -> Vec<Unit> {
        let lexed = lex(src);
        let no_tests = BTreeSet::new();
        parallel_units(&[FileInput {
            lexed: &lexed,
            test_lines: &no_tests,
            test_path: false,
        }])
    }

    /// The source lines a unit list covers, for readable assertions.
    fn lines(src: &str, units: &[Unit]) -> BTreeSet<u32> {
        let lexed = lex(src);
        let mut out = BTreeSet::new();
        for u in units {
            for t in &lexed.tokens[u.start..=u.end] {
                out.insert(t.line);
            }
        }
        out
    }

    #[test]
    fn spawn_closure_and_called_fn_are_in_region() {
        let src = "\
fn worker_body() { helper(); }
fn helper() { shared_step(); }
fn shared_step() {}
fn caller_only() {}
fn fan_out() {
    std::thread::scope(|s| {
        s.spawn(|| worker_body());
    });
    caller_only();
}
";
        let covered = lines(src, &units_of(src));
        assert!(covered.contains(&1), "worker_body: {covered:?}");
        assert!(covered.contains(&2), "helper: {covered:?}");
        assert!(covered.contains(&3), "shared_step: {covered:?}");
        assert!(
            !covered.contains(&4),
            "caller_only must stay out: {covered:?}"
        );
        assert!(
            !covered.contains(&9),
            "the serial tail must stay out: {covered:?}"
        );
    }

    #[test]
    fn ordered_map_closure_and_called_fn_are_in_region() {
        // What every threaded crate looks like since the pools became one
        // primitive: no `spawn` in sight, the closure handed to
        // `ordered_map` is the root.
        let src = "\
fn race_replica(r: &mut Replica) -> u32 { r.step() }
fn merge_serially() {}
fn race_replicas(engine: &mut Engine) {
    let commits = ordered_map(engine.threads, engine.replicas.iter_mut().collect(), |r| {
        race_replica(r)
    });
    merge_serially();
}
";
        let units = units_of(src);
        let covered = lines(src, &units);
        assert!(covered.contains(&1), "race_replica: {covered:?}");
        assert!(covered.contains(&5), "the closure body: {covered:?}");
        assert!(!covered.contains(&2), "the serial merge: {covered:?}");
        assert!(!covered.contains(&7), "the serial tail: {covered:?}");
        assert!(units.iter().any(|u| u.root && u.params.is_some()));
    }

    #[test]
    fn let_bound_closure_is_followed() {
        let src = "\
fn leaf() {}
fn pool() {
    let run_one = |task: u32| -> u32 { leaf(); task };
    std::thread::scope(|s| {
        s.spawn(|| run_one(1));
    });
}
";
        let covered = lines(src, &units_of(src));
        assert!(covered.contains(&1), "leaf via run_one: {covered:?}");
        assert!(covered.contains(&3), "run_one body: {covered:?}");
    }

    #[test]
    fn ambient_methods_are_not_followed() {
        let src = "\
fn run(x: u64) -> u64 { x }
fn fan_out(engine: &Engine) {
    std::thread::scope(|s| {
        s.spawn(|| engine.run());
    });
}
";
        // `.run()` is ambient; the unrelated fn `run` stays out.
        let covered = lines(src, &units_of(src));
        assert!(!covered.contains(&1), "{covered:?}");
    }

    #[test]
    fn no_spawn_means_empty_region() {
        let src = "fn a() { b(); }\nfn b() {}\n";
        assert!(units_of(src).is_empty());
    }

    #[test]
    fn test_code_contributes_no_roots() {
        // A test driving `ordered_map` at several thread counts must not
        // turn its own closures into roots (which would pull the
        // partitioner into the region through the test's direct calls).
        let src = "\
fn point(seed: u64) -> u64 { seed }
fn order_is_deterministic() {
    for threads in [1, 2, 8] {
        let _ = ordered_map(threads, (0..4).collect(), |i| point(i));
    }
}
";
        let lexed = lex(src);
        // Marked as a `#[cfg(test)]` region: no roots.
        let test_lines: BTreeSet<u32> = (1..=7).collect();
        let no_tests = BTreeSet::new();
        assert!(parallel_units(&[FileInput {
            lexed: &lexed,
            test_lines: &test_lines,
            test_path: false,
        }])
        .is_empty());
        // A whole test-path file (tests/, benches/): no roots either.
        assert!(parallel_units(&[FileInput {
            lexed: &lexed,
            test_lines: &no_tests,
            test_path: true,
        }])
        .is_empty());
        // Same source as first-party lib code: the closure is a root.
        assert!(!parallel_units(&[FileInput {
            lexed: &lexed,
            test_lines: &no_tests,
            test_path: false,
        }])
        .is_empty());
    }

    #[test]
    fn roots_are_marked_root() {
        let src = "\
fn helper() {}
fn fan_out() {
    std::thread::scope(|s| {
        s.spawn(move || helper());
    });
}
";
        let units = units_of(src);
        assert!(units.iter().any(|u| u.root));
        assert!(units.iter().any(|u| !u.root));
    }
}
