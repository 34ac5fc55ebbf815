//! SA005 — atomics audit: every `Ordering::Relaxed` operation must be
//! covered by the declared-orderings table below, which records *why*
//! relaxed is sufficient at that site. A relaxed publish/consume handoff
//! that is not in the table is an error: either the site needs
//! `Acquire`/`Release` or the table needs a new, justified row.
//!
//! The table is keyed by (path suffix, atomic field/static name); `*`
//! matches any name in the file. Keeping the table in the pass source —
//! rather than a config file — means adding a row goes through code
//! review next to the justification.

use stacksim_lint::{Report, Severity};

use crate::ast::SourceFile;
use crate::model::FnCtx;
use crate::passes::emit;

pub const CODE: &str = "SA005";

const ATOMIC_METHODS: [&str; 12] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "compare_exchange",
    "compare_exchange_weak",
];

/// (file-path suffix, field name or `*`, justification).
///
/// Every row documents a proven-relaxed site; the justification is part
/// of the audit's contract and is quoted in DESIGN.md §13.
const DECLARED: &[(&str, &str, &str)] = &[
    (
        "core/src/harness/session.rs",
        "submitted",
        "monotonic stats counter; read only by stats(), no data guarded",
    ),
    (
        "core/src/harness/session.rs",
        "dedup_hits",
        "monotonic stats counter; read only by stats(), no data guarded",
    ),
    (
        "core/src/harness/session.rs",
        "completed",
        "monotonic stats counter; read only by stats(), no data guarded",
    ),
    (
        "obs/src/lib.rs",
        "ENABLED",
        "fast-path gate; instruments re-check under the registry mutex",
    ),
    (
        "obs/src/event.rs",
        "HAS_SINK",
        "fast-path gate; the sink Arc is cloned under its mutex",
    ),
    (
        "obs/src/event.rs",
        "NEXT_SPAN",
        "unique-id allocation; fetch_add atomicity is all that is needed",
    ),
    (
        "obs/src/metrics.rs",
        "*",
        "monotonic counter/gauge/histogram cells; snapshots tolerate \
         torn reads across cells by design (see obs docs)",
    ),
];

fn declared(path: &str, field: &str) -> bool {
    DECLARED
        .iter()
        .any(|(suffix, name, _)| path.ends_with(suffix) && (*name == "*" || *name == field))
}

pub fn run(files: &[SourceFile], report: &mut Report) {
    for file in files {
        for func in file.functions.iter().filter(|f| !f.is_test) {
            let cx = FnCtx::new(file, func);
            let toks = cx.toks();
            for c in &cx.calls {
                if !ATOMIC_METHODS.contains(&c.name.as_str()) {
                    continue;
                }
                if !cx.idents(c.args.clone()).contains(&"Relaxed") {
                    continue;
                }
                let field = c.field(toks).unwrap_or("<expr>");
                if declared(&file.path, field) {
                    continue;
                }
                emit(
                    report,
                    file,
                    CODE,
                    Severity::Error,
                    c.line,
                    format!(
                        "`{}.{}(.., Relaxed)` in fn `{}` is not in the declared-orderings \
                         table; use Acquire/Release or add a justified table row",
                        field, c.name, cx.func.qual
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lex::lex;

    #[test]
    fn undeclared_relaxed_is_flagged_declared_is_not() {
        let src = "fn f(&self) {
            self.ready.store(true, Ordering::Relaxed);
            self.submitted.fetch_add(1, Ordering::Relaxed);
            self.ready.store(true, Ordering::Release);
        }";
        let sf = parse("crates/core/src/harness/session.rs", lex(src));
        let mut r = Report::new();
        run(&[sf], &mut r);
        let spans: Vec<&str> = r.diagnostics().iter().map(|d| d.span.as_str()).collect();
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert!(r.render_pretty().contains("ready.store"));
    }

    #[test]
    fn wildcard_rows_cover_whole_files() {
        let src = "fn f(&self) { self.anything.fetch_add(1, Ordering::Relaxed); }";
        let sf = parse("crates/obs/src/metrics.rs", lex(src));
        let mut r = Report::new();
        run(&[sf], &mut r);
        assert!(r.is_clean(), "{}", r.render_pretty());
    }
}
