//! SA004 — lock-order graph: collect `Mutex`/`RwLock`/cache-lock-file
//! acquisitions per function, propagate them over an (approximate) call
//! graph, and error on potential lock-order cycles.
//!
//! Lock classes are named `{crate}.{file-stem}.{binding}` — e.g. the
//! session state mutex is `core.session.state`, a slot's status mutex is
//! `core.session.status`, the multi-process cache lock file is the
//! special class `cache.lockfile`. A guard is considered held from the
//! end of its `let` initializer to the close of the enclosing block or an
//! explicit `drop(guard)`; temporaries (`x.lock().push(..)`) are held to
//! the end of their statement. Acquiring B while holding A adds the edge
//! A → B, including through calls resolved to workspace functions and
//! through guard-returning helpers (`let st = Inner::lock();` holds the
//! helper's lock for the binding's scope — recognised by a `Guard`-ish
//! return type). Any directed cycle — including a self-edge, which is a
//! std-`Mutex` self-deadlock — is an error.
//!
//! Call resolution is type-directed and deliberately under-approximate:
//! a method call resolves only when the receiver's type is known (from a
//! struct field declaration, a parameter/`let` annotation, or `self`'s
//! impl block) and `Type::method` names exactly one workspace function;
//! path calls resolve through `Self::` and by unique name. Unresolved
//! calls and `Condvar` waits contribute no edges, so the pass can miss
//! cycles through dynamic dispatch — but it will not invent edges no
//! call path realises in its model.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use stacksim_lint::Report;

use crate::ast::SourceFile;
use crate::lex::{Tok, Token};
use crate::model::{crate_of, stem_of, FnCtx};

pub const CODE: &str = "SA004";

/// One lock acquisition inside a function.
struct Acq {
    classes: Vec<String>,
    /// Token position of the acquiring call.
    pos: usize,
    /// Token range during which the guard is held.
    held: Range<usize>,
    line: u32,
}

/// One call site that resolves to a workspace function.
struct CallSite {
    callee: usize,
    pos: usize,
    /// Token index just past the call's closing paren.
    end: usize,
    line: u32,
}

/// Per-function lock facts.
struct FnFacts {
    file: usize,
    qual: String,
    body_end: usize,
    acqs: Vec<Acq>,
    calls: Vec<CallSite>,
    /// `let` bindings: (initializer range, guard-held range).
    guard_lets: Vec<(Range<usize>, Range<usize>)>,
}

/// Function lookup tables for call resolution.
struct Resolver<'a> {
    fn_ids: Vec<(usize, usize)>,
    by_name: BTreeMap<&'a str, Vec<usize>>,
    by_qual: BTreeMap<&'a str, Vec<usize>>,
}

impl Resolver<'_> {
    /// Resolves `Type::name`, preferring a same-file definition, else a
    /// workspace-unique one.
    fn by_qual(&self, qual: &str, from_file: usize) -> Option<usize> {
        let cands = self.by_qual.get(qual)?;
        let local: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|id| self.fn_ids[*id].0 == from_file)
            .collect();
        match (local.len(), cands.len()) {
            (1, _) => Some(local[0]),
            (0, 1) => Some(cands[0]),
            _ => None,
        }
    }

    /// Resolves a bare name: same-file-unique, else workspace-unique.
    fn by_name(&self, name: &str, from_file: usize) -> Option<usize> {
        let cands = self.by_name.get(name)?;
        let local: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|id| self.fn_ids[*id].0 == from_file)
            .collect();
        match (local.len(), cands.len()) {
            (1, _) => Some(local[0]),
            (0, 1) => Some(cands[0]),
            _ => None,
        }
    }
}

pub fn run(files: &[SourceFile], report: &mut Report) {
    let mut resolver = Resolver {
        fn_ids: Vec::new(),
        by_name: BTreeMap::new(),
        by_qual: BTreeMap::new(),
    };
    for (fi, file) in files.iter().enumerate() {
        for (gi, func) in file.functions.iter().enumerate() {
            if func.is_test {
                continue;
            }
            let id = resolver.fn_ids.len();
            resolver.fn_ids.push((fi, gi));
            resolver.by_name.entry(&func.name).or_default().push(id);
            resolver.by_qual.entry(&func.qual).or_default().push(id);
        }
    }

    let facts: Vec<FnFacts> = resolver
        .fn_ids
        .iter()
        .map(|&(fi, gi)| collect(files, fi, gi, &resolver))
        .collect();

    // which functions hand a live guard back to their caller
    let returns_guard: Vec<bool> = resolver
        .fn_ids
        .iter()
        .map(|&(fi, gi)| {
            let file = &files[fi];
            let func = &file.functions[gi];
            let sig = &file.tokens()[func.params.end..func.body.start.max(func.params.end)];
            sig.iter()
                .filter_map(|t| t.kind.ident())
                .any(|i| i.ends_with("Guard") || i == "CacheLock")
        })
        .collect();

    // transitive lock summaries over the call graph
    let mut summaries: Vec<Option<BTreeSet<String>>> = vec![None; facts.len()];
    for id in 0..facts.len() {
        summarize(id, &facts, &mut summaries, &mut Vec::new());
    }
    let summary = |id: usize| summaries[id].clone().unwrap_or_default();

    // guard-returning helper calls acquire the callee's locks at the call
    // site: held for the binding's scope when the call is the whole `let`
    // initializer (modulo `unwrap`-style adapters), else to the end of the
    // statement like any temporary guard
    let mut all_acqs: Vec<Vec<Acq>> = Vec::with_capacity(facts.len());
    for f in &facts {
        let toks = files[f.file].tokens();
        let mut acqs: Vec<Acq> = f
            .acqs
            .iter()
            .map(|a| Acq {
                classes: a.classes.clone(),
                pos: a.pos,
                held: a.held.clone(),
                line: a.line,
            })
            .collect();
        for cs in &f.calls {
            if !returns_guard[cs.callee] {
                continue;
            }
            let s = summary(cs.callee);
            if s.is_empty() {
                continue;
            }
            let held = match enclosing_let(&f.guard_lets, cs.pos) {
                Some((init, held)) if guard_suffix_ok(toks, cs.end, init.end) => held.clone(),
                _ => cs.end..statement_end(toks, cs.end, f.body_end),
            };
            acqs.push(Acq {
                classes: s.into_iter().collect(),
                pos: cs.pos,
                held,
                line: cs.line,
            });
        }
        all_acqs.push(acqs);
    }

    // edges: held class A -> acquired class B, with one example site
    let mut edges: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for (id, f) in facts.iter().enumerate() {
        let file = &files[f.file];
        let acqs = &all_acqs[id];
        for a in acqs {
            let mut acquired: Vec<(String, u32)> = Vec::new();
            for b in acqs {
                if a.held.contains(&b.pos) && b.pos != a.pos {
                    for c in &b.classes {
                        acquired.push((c.clone(), b.line));
                    }
                }
            }
            for cs in &f.calls {
                if a.held.contains(&cs.pos) && !returns_guard[cs.callee] {
                    for c in summary(cs.callee) {
                        acquired.push((c, cs.line));
                    }
                }
            }
            for ca in &a.classes {
                for (cb, line) in &acquired {
                    edges
                        .entry(ca.clone())
                        .or_default()
                        .entry(cb.clone())
                        .or_insert_with(|| format!("{}:{} in fn `{}`", file.path, line, f.qual));
                }
            }
        }
    }

    // self-edges: re-acquiring a held std Mutex deadlocks
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for (a, outs) in &edges {
        if let Some(site) = outs.get(a) {
            if seen.insert(format!("self:{a}")) {
                report.error(
                    CODE,
                    site.clone(),
                    format!("lock class `{a}` re-acquired while already held (self-deadlock risk)"),
                );
            }
        }
    }
    // directed cycles
    let mut color: BTreeMap<&str, u8> = BTreeMap::new();
    let mut stack: Vec<&str> = Vec::new();
    for start in edges.keys() {
        dfs_cycles(start, &edges, &mut color, &mut stack, &mut seen, report);
    }
}

fn dfs_cycles<'g>(
    node: &'g str,
    edges: &'g BTreeMap<String, BTreeMap<String, String>>,
    color: &mut BTreeMap<&'g str, u8>,
    stack: &mut Vec<&'g str>,
    seen: &mut BTreeSet<String>,
    report: &mut Report,
) {
    if color.contains_key(node) {
        return;
    }
    color.insert(node, 1);
    stack.push(node);
    if let Some(outs) = edges.get(node) {
        for (next, site) in outs {
            if next == node {
                continue; // self-edges reported separately
            }
            if color.get(next.as_str()) == Some(&1) {
                // back edge: the cycle is the stack suffix from `next`
                if let Some(i) = stack.iter().position(|n| *n == next.as_str()) {
                    let ring = &stack[i..];
                    let min = ring
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, n)| **n)
                        .map(|(k, _)| k)
                        .unwrap_or(0);
                    let canon: Vec<&str> = (0..ring.len())
                        .map(|k| ring[(min + k) % ring.len()])
                        .collect();
                    let key = canon.join(" -> ");
                    if seen.insert(key.clone()) {
                        report.error(
                            CODE,
                            site.clone(),
                            format!("lock-order cycle: {key} -> {}", canon[0]),
                        );
                    }
                }
            } else if !color.contains_key(next.as_str()) {
                dfs_cycles(next, edges, color, stack, seen, report);
            }
        }
    }
    stack.pop();
    color.insert(node, 2);
}

/// Depth-first summary: every lock class a function may acquire,
/// directly or through resolved calls.
fn summarize(
    id: usize,
    facts: &[FnFacts],
    summaries: &mut Vec<Option<BTreeSet<String>>>,
    visiting: &mut Vec<usize>,
) -> BTreeSet<String> {
    if let Some(s) = &summaries[id] {
        return s.clone();
    }
    if visiting.contains(&id) {
        return BTreeSet::new(); // recursion: fixpoint-lite
    }
    visiting.push(id);
    let mut out: BTreeSet<String> = BTreeSet::new();
    for a in &facts[id].acqs {
        out.extend(a.classes.iter().cloned());
    }
    let callees: Vec<usize> = facts[id].calls.iter().map(|c| c.callee).collect();
    for c in callees {
        out.extend(summarize(c, facts, summaries, visiting));
    }
    visiting.pop();
    summaries[id] = Some(out.clone());
    out
}

const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];
const LOCK_TYPES: [&str; 2] = ["Mutex", "RwLock"];

/// Collects acquisitions and resolved call sites for one function.
fn collect(files: &[SourceFile], fi: usize, gi: usize, resolver: &Resolver) -> FnFacts {
    let file = &files[fi];
    let func = &file.functions[gi];
    let cx = FnCtx::new(file, func);
    let toks = cx.toks();
    let prefix = format!("{}.{}", crate_of(&file.path), stem_of(&file.path));
    let impl_ty: Option<&str> = func.qual.split_once("::").map(|(ty, _)| ty);

    // names locally known to be mutex- or condvar-typed, and a best-effort
    // variable type environment (`let cache = MemoCache::at(..)` → MemoCache)
    let mut mutex_vars: BTreeSet<String> = BTreeSet::new();
    let mut cv_vars: BTreeSet<String> = file.cv_fields.iter().cloned().collect();
    let mut var_types: BTreeMap<String, String> = BTreeMap::new();
    for p in &cx.params {
        if mentions_types(toks, p.ty.clone(), &LOCK_TYPES) {
            mutex_vars.insert(p.name.clone());
        }
        if mentions_types(toks, p.ty.clone(), &["Condvar"]) {
            cv_vars.insert(p.name.clone());
        }
        if let Some(t) = crate::ast::idents_in(toks, p.ty.clone()).last() {
            var_types.insert(p.name.clone(), (*t).to_string());
        }
    }
    for l in &cx.lets {
        if mentions_types(toks, l.ty.clone(), &LOCK_TYPES)
            || mentions_types(toks, l.init.clone(), &LOCK_TYPES)
        {
            mutex_vars.extend(l.names.iter().cloned());
        }
        if mentions_types(toks, l.ty.clone(), &["Condvar"]) {
            cv_vars.extend(l.names.iter().cloned());
        }
        let ty = if !l.ty.is_empty() {
            crate::ast::idents_in(toks, l.ty.clone())
                .last()
                .map(|t| (*t).to_string())
        } else {
            // `let x = Type::ctor(..)` pins the variable's type
            constructor_type(toks, l.init.clone())
        };
        if let (Some(t), Some(n)) = (ty, l.names.first()) {
            var_types.insert(n.clone(), t);
        }
    }

    let guard_lets: Vec<(Range<usize>, Range<usize>)> = cx
        .lets
        .iter()
        .filter(|l| !l.init.is_empty())
        .map(|l| {
            let guard = l.names.first().map(String::as_str);
            let held = l.init.end..scope_end(toks, l.init.end, func.body.end, guard);
            (l.init.clone(), held)
        })
        .collect();

    // the receiver's type, when statically known: `self` → the impl type,
    // else a declared field or annotated/constructed variable
    let recv_type = |c: &crate::ast::MethodCall| -> Option<String> {
        let base = c.field(toks)?;
        if base == "self" {
            impl_ty.map(str::to_string)
        } else {
            var_types
                .get(base)
                .or_else(|| file.field_types.get(base))
                .cloned()
        }
    };

    let mut acqs: Vec<Acq> = Vec::new();
    let mut calls: Vec<CallSite> = Vec::new();

    for c in &cx.calls {
        let pos = c.recv.start;
        let end = c.args.end + 1;
        let field = c.field(toks);
        // Condvar waits/notifies re-lock internally; never resolve them
        if field.is_some_and(|f| cv_vars.contains(f)) {
            continue;
        }
        let typed = recv_type(c).and_then(|t| resolver.by_qual(&format!("{t}::{}", c.name), fi));
        if LOCK_METHODS.contains(&c.name.as_str()) {
            let lockish = field.is_some_and(|f| {
                file.lock_fields.contains(f) || mutex_vars.contains(f) || is_static_name(f)
            });
            if lockish {
                let name = field.unwrap_or("anon");
                acqs.push(Acq {
                    classes: vec![format!("{prefix}.{name}")],
                    pos,
                    held: held_range(&cx, &guard_lets, pos, end),
                    line: c.line,
                });
            } else if let Some(id) = typed {
                // a guard-returning helper method (e.g. `Inner::lock`)
                calls.push(CallSite {
                    callee: id,
                    pos,
                    end,
                    line: c.line,
                });
            } else if c.name == "lock" {
                // unknown receiver: best-effort mutex acquisition
                let name = field.unwrap_or("anon");
                acqs.push(Acq {
                    classes: vec![format!("{prefix}.{name}")],
                    pos,
                    held: held_range(&cx, &guard_lets, pos, end),
                    line: c.line,
                });
            }
            continue;
        }
        if let Some(id) = typed {
            calls.push(CallSite {
                callee: id,
                pos,
                end,
                line: c.line,
            });
        }
    }

    for p in &cx.pcalls {
        let last = p.path.last().map(String::as_str).unwrap_or("");
        let pos = p.args.start;
        let end = p.args.end + 1;
        if last == "acquire_lock" {
            acqs.push(Acq {
                classes: vec!["cache.lockfile".to_string()],
                pos,
                held: held_range(&cx, &guard_lets, pos, end),
                line: p.line,
            });
            continue;
        }
        if last == "drop" {
            continue; // handled by scope_end
        }
        if last == "lock" && p.path.len() == 1 {
            // free `lock(x)` helper (obs-style): the argument names the
            // lock, so the class comes from the call site, not the
            // helper's parameter
            let root = crate::ast::idents_in(toks, p.args.clone())
                .into_iter()
                .rfind(|s| *s != "self")
                .unwrap_or("anon")
                .to_string();
            acqs.push(Acq {
                classes: vec![format!("{prefix}.{root}")],
                pos,
                held: held_range(&cx, &guard_lets, pos, end),
                line: p.line,
            });
            continue;
        }
        let qual = if p.path.len() >= 2 {
            let owner = &p.path[p.path.len() - 2];
            let owner = if owner == "Self" {
                impl_ty.unwrap_or("Self")
            } else {
                owner
            };
            Some(format!("{owner}::{last}"))
        } else {
            None
        };
        let id = qual
            .as_deref()
            .and_then(|q| resolver.by_qual(q, fi))
            .or_else(|| resolver.by_name(last, fi));
        if let Some(id) = id {
            calls.push(CallSite {
                callee: id,
                pos,
                end,
                line: p.line,
            });
        }
    }

    FnFacts {
        file: fi,
        qual: func.qual.clone(),
        body_end: func.body.end,
        acqs,
        calls,
        guard_lets,
    }
}

/// `let x = Type::ctor(..)` — the constructed type, when the initializer
/// starts with an uppercase path segment.
fn constructor_type(toks: &[Token], init: Range<usize>) -> Option<String> {
    let first = toks.get(init.start)?;
    let name = first.kind.ident()?;
    if !name.chars().next().is_some_and(char::is_uppercase) {
        return None;
    }
    let sep = toks.get(init.start + 1)?.kind.is_punct(':')
        && toks
            .get(init.start + 2)
            .is_some_and(|t| t.kind.is_punct(':'));
    sep.then(|| name.to_string())
}

fn mentions_types(toks: &[Token], r: Range<usize>, names: &[&str]) -> bool {
    crate::ast::idents_in(toks, r)
        .iter()
        .any(|i| names.contains(i))
}

/// `SCREAMING_CASE` statics read as lock cells (`STATE.lock()`).
fn is_static_name(s: &str) -> bool {
    s.len() > 1 && s.chars().all(|c| !c.is_ascii_lowercase())
}

/// The innermost `let` whose initializer contains `pos`, so a lock taken
/// inside `let batch = { let st = inner.lock(); … };` binds to `st`, not
/// to the enclosing block expression.
fn enclosing_let(
    guard_lets: &[(Range<usize>, Range<usize>)],
    pos: usize,
) -> Option<&(Range<usize>, Range<usize>)> {
    guard_lets
        .iter()
        .filter(|(init, _)| init.contains(&pos))
        .min_by_key(|(init, _)| init.end - init.start)
}

/// Adapters that pass a lock guard through unchanged, so
/// `let g = m.lock().unwrap_or_else(PoisonError::into_inner);` still
/// binds a guard while `let v = m.lock().unwrap().clone();` does not.
const GUARD_ADAPTERS: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

/// Whether the tokens from `from` (just past an acquiring call) to `to`
/// are only guard-preserving adapters — i.e. the binding is the guard.
fn guard_suffix_ok(toks: &[Token], mut from: usize, to: usize) -> bool {
    while from < to {
        match &toks[from].kind {
            Tok::Punct('?') => from += 1,
            Tok::Punct('.') => {
                let Some(Tok::Ident(name)) = toks.get(from + 1).map(|t| &t.kind) else {
                    return false;
                };
                if !GUARD_ADAPTERS.contains(&name.as_str()) {
                    return false;
                }
                if !toks.get(from + 2).is_some_and(|t| t.kind.is_punct('(')) {
                    return false;
                }
                let mut depth = 0i32;
                let mut i = from + 2;
                while i < to {
                    if toks[i].kind.is_punct('(') {
                        depth += 1;
                    } else if toks[i].kind.is_punct(')') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    i += 1;
                }
                from = i + 1;
            }
            _ => return false,
        }
    }
    true
}

/// The token range during which a guard obtained at `pos` is held: the
/// enclosing `let`'s scope when the binding is the guard itself, or the
/// rest of the statement for temporaries.
fn held_range(
    cx: &FnCtx,
    guard_lets: &[(Range<usize>, Range<usize>)],
    pos: usize,
    after: usize,
) -> Range<usize> {
    let toks = cx.toks();
    if let Some((init, held)) = enclosing_let(guard_lets, pos) {
        if guard_suffix_ok(toks, after, init.end) {
            return held.clone();
        }
    }
    pos..statement_end(toks, after, cx.func.body.end)
}

/// Scans forward for the end of the current statement: a `;` or closing
/// brace at the starting depth.
fn statement_end(toks: &[Token], from: usize, body_end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = from.min(body_end);
    while i < body_end {
        match &toks[i].kind {
            Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            Tok::Punct(';') if depth <= 0 => return i,
            _ => {}
        }
        i += 1;
    }
    body_end
}

/// Scans forward for the end of a binding's scope: the closing brace of
/// the enclosing block, or an explicit `drop(guard)`.
fn scope_end(toks: &[Token], from: usize, body_end: usize, guard: Option<&str>) -> usize {
    let mut depth = 0i32;
    let mut i = from;
    while i < body_end {
        match &toks[i].kind {
            Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            Tok::Ident(s) if s == "drop" => {
                if let (Some(g), Some(t1), Some(t2)) = (guard, toks.get(i + 1), toks.get(i + 2)) {
                    if t1.kind.is_punct('(') && t2.kind.is_ident(g) {
                        return i;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    body_end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lex::lex;

    fn audit(sources: &[(&str, &str)]) -> Report {
        let files: Vec<SourceFile> = sources.iter().map(|(p, s)| parse(p, lex(s))).collect();
        let mut r = Report::new();
        run(&files, &mut r);
        r
    }

    #[test]
    fn nested_opposite_orders_cycle() {
        let r = audit(&[(
            "crates/core/src/a.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }
             impl S {
                 fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }
                 fn ba(&self) { let gb = self.b.lock(); let ga = self.a.lock(); }
             }",
        )]);
        assert!(r.has_errors(), "{}", r.render_pretty());
        assert!(r.render_pretty().contains("lock-order cycle"));
    }

    #[test]
    fn consistent_order_and_scoped_guards_are_clean() {
        let r = audit(&[(
            "crates/core/src/a.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }
             impl S {
                 fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }
                 fn scoped(&self) {
                     { let gb = self.b.lock(); }
                     let ga = self.a.lock();
                 }
                 fn dropped(&self) {
                     let gb = self.b.lock();
                     drop(gb);
                     let ga = self.a.lock();
                 }
             }",
        )]);
        assert!(!r.has_errors(), "{}", r.render_pretty());
    }

    #[test]
    fn cycle_through_a_called_function_is_found() {
        let r = audit(&[(
            "crates/core/src/a.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }
             impl S {
                 fn takes_b(&self) { let g = self.b.lock(); }
                 fn ab(&self) { let ga = self.a.lock(); self.takes_b(); }
                 fn ba(&self) { let gb = self.b.lock(); let ga = self.a.lock(); }
             }",
        )]);
        assert!(r.has_errors(), "{}", r.render_pretty());
    }

    #[test]
    fn guard_returning_helper_holds_through_binding() {
        let r = audit(&[(
            "crates/core/src/a.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }
             impl S {
                 fn lock_a(&self) -> MutexGuard<u32> { self.a.lock() }
                 fn ab(&self) { let ga = self.lock_a(); let gb = self.b.lock(); }
                 fn ba(&self) { let gb = self.b.lock(); let ga = self.lock_a(); }
             }",
        )]);
        assert!(r.has_errors(), "{}", r.render_pretty());
    }

    #[test]
    fn block_expression_let_does_not_extend_inner_guard() {
        // the guard taken inside `let v = { … };` ends with the inner
        // block, so the later re-acquisition is not a self-deadlock
        let r = audit(&[(
            "crates/core/src/a.rs",
            "struct S { a: Mutex<Vec<u32>> }
             impl S {
                 fn lock_a(&self) -> MutexGuard<Vec<u32>> { self.a.lock() }
                 fn f(&self) {
                     let v = {
                         let g = self.lock_a();
                         g.len()
                     };
                     let g2 = self.lock_a();
                 }
             }",
        )]);
        assert!(!r.has_errors(), "{}", r.render_pretty());
    }

    #[test]
    fn non_guard_binding_of_lock_result_is_a_temporary() {
        // `let v = m.lock().clone();` does not hold the guard, so locking
        // another mutex on the next line is not an ordering edge
        let r = audit(&[(
            "crates/core/src/a.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }
             impl S {
                 fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }
                 fn snapshot(&self) {
                     let v = self.b.lock().clone();
                     let ga = self.a.lock();
                 }
             }",
        )]);
        assert!(!r.has_errors(), "{}", r.render_pretty());
    }

    #[test]
    fn self_deadlock_is_reported() {
        let r = audit(&[(
            "crates/core/src/a.rs",
            "struct S { a: Mutex<u32> }
             impl S {
                 fn f(&self) { let g1 = self.a.lock(); let g2 = self.a.lock(); }
             }",
        )]);
        assert!(r.has_errors());
        assert!(r.render_pretty().contains("re-acquired"));
    }

    #[test]
    fn condvar_wait_does_not_self_deadlock() {
        let r = audit(&[(
            "crates/core/src/a.rs",
            "struct S { st: Mutex<u32>, cv: Condvar }
             impl S {
                 fn wait(&self) {
                     let mut g = self.st.lock();
                     while *g == 0 { g = self.cv.wait(g); }
                 }
             }",
        )]);
        assert!(!r.has_errors(), "{}", r.render_pretty());
    }

    #[test]
    fn free_lock_helper_classes_come_from_the_call_site() {
        // two different mutexes locked through one `lock(m)` helper must
        // not collapse into a single class named after the parameter
        let r = audit(&[(
            "crates/obs/src/metrics.rs",
            "fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().unwrap() }
             struct R { counters: Mutex<u32>, gauges: Mutex<u32> }
             impl R {
                 fn names(&self) {
                     let a = lock(&self.counters).clone();
                     let b = lock(&self.gauges).clone();
                 }
             }",
        )]);
        assert!(!r.has_errors(), "{}", r.render_pretty());
    }

    #[test]
    fn lockfile_nesting_gets_its_own_class() {
        let r = audit(&[(
            "crates/core/src/cache.rs",
            "struct C { state: Mutex<u32> }
             impl C {
                 fn f(&self) { let st = self.state.lock(); let fl = acquire_lock(dir); }
                 fn g(&self) { let fl = acquire_lock(dir); let st = self.state.lock(); }
             }",
        )]);
        assert!(r.has_errors(), "{}", r.render_pretty());
        assert!(r.render_pretty().contains("cache.lockfile"));
    }
}
