//! SA006 — panic-path audit: `unwrap()`/`expect()` calls and panicking
//! macros in non-test code, with module-aware severity. In code that
//! runs on the session's executor workers or the serve connection
//! threads — where a panic orphans dedup slots or drops a client's
//! response — they are errors;
//! everywhere else they are warnings (clippy's `unwrap_used` /
//! `expect_used` lints, denied in CI, keep `unwrap`/`expect` out of
//! non-test code altogether). Indexing expressions in scheduler-context
//! files are also surfaced as warnings, since `v[i]` panics are the same
//! hazard in quieter clothing.
//!
//! `// lint:allow(unwrap) reason` and `// audit:allow(SA006) reason`
//! waivers both suppress findings.

use stacksim_lint::{Report, Severity};

use crate::ast::SourceFile;
use crate::lex::Tok;
use crate::model::FnCtx;
use crate::passes::emit;

pub const CODE: &str = "SA006";

/// Files whose code runs on the executor workers or serve connection
/// threads: a panic here wedges `wait()` callers or drops a response.
fn scheduler_context(path: &str) -> bool {
    path.starts_with("crates/serve/src/")
        || matches!(
            path,
            "crates/core/src/harness/session.rs"
                | "crates/core/src/harness/report.rs"
                | "crates/core/src/harness/cache.rs"
                | "crates/core/src/harness/resilience.rs"
                | "crates/core/src/harness/json.rs"
        )
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

pub fn run(files: &[SourceFile], report: &mut Report) {
    for file in files {
        let sched = scheduler_context(&file.path);
        let severity = if sched {
            Severity::Error
        } else {
            Severity::Warning
        };
        for func in file.functions.iter().filter(|f| !f.is_test) {
            let cx = FnCtx::new(file, func);
            let toks = cx.toks();
            for c in &cx.calls {
                if c.name == "unwrap" || c.name == "expect" {
                    emit(
                        report,
                        file,
                        CODE,
                        severity,
                        c.line,
                        format!(
                            "`.{}()` in fn `{}`{}; return a typed error instead",
                            c.name,
                            cx.func.qual,
                            if sched {
                                " can panic on the scheduler/worker path"
                            } else {
                                " can panic"
                            },
                        ),
                    );
                }
            }
            // panicking macros: `name!(…)`
            let body = func.body.clone();
            for i in body.clone() {
                let Tok::Ident(name) = &toks[i].kind else {
                    continue;
                };
                if PANIC_MACROS.contains(&name.as_str())
                    && toks.get(i + 1).is_some_and(|t| t.kind.is_punct('!'))
                {
                    emit(
                        report,
                        file,
                        CODE,
                        severity,
                        toks[i].line,
                        format!(
                            "`{name}!` in fn `{}` panics; return a typed error",
                            cx.func.qual
                        ),
                    );
                }
            }
            // indexing in scheduler-context files only
            if sched {
                for i in body {
                    if !toks[i].kind.is_punct('[') {
                        continue;
                    }
                    // an index expression follows a value, not `= [..]`/attrs
                    let indexes = i > 0
                        && matches!(
                            &toks[i - 1].kind,
                            Tok::Ident(_) | Tok::Punct(')') | Tok::Punct(']')
                        );
                    // `x[a..b]` slicing excluded (a different hazard class)
                    let mut range_like = false;
                    {
                        let mut depth = 1i32;
                        let mut prev_dot = false;
                        let mut j = i + 1;
                        while j < func.body.end && depth > 0 {
                            match &toks[j].kind {
                                Tok::Punct('[') => depth += 1,
                                Tok::Punct(']') => depth -= 1,
                                Tok::Punct('.') if depth == 1 => {
                                    range_like |= prev_dot;
                                }
                                _ => {}
                            }
                            prev_dot = toks[j].kind.is_punct('.');
                            j += 1;
                        }
                    }
                    if indexes && !range_like {
                        emit(
                            report,
                            file,
                            CODE,
                            Severity::Warning,
                            toks[i].line,
                            format!(
                                "indexing in fn `{}` panics out of bounds on the \
                                 scheduler/worker path; prefer get()",
                                cx.func.qual
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lex::lex;

    fn report_for(path: &str, src: &str) -> Report {
        let sf = parse(path, lex(src));
        let mut r = Report::new();
        run(&[sf], &mut r);
        r
    }

    #[test]
    fn scheduler_files_error_others_warn() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let r = report_for("crates/core/src/harness/session.rs", src);
        assert_eq!(r.error_count(), 1);
        let r = report_for("crates/mem/src/cache.rs", src);
        assert_eq!((r.error_count(), r.warning_count()), (0, 1));
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f(m: &Mutex<u32>) -> u32 {
            *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        }";
        let r = report_for("crates/core/src/harness/session.rs", src);
        assert!(r.is_clean(), "{}", r.render_pretty());
    }

    #[test]
    fn panic_macros_and_indexing_are_flagged() {
        let src = "fn f(v: &[u32], i: usize) -> u32 {
            if v.is_empty() { panic!(\"empty\"); }
            v[i]
        }";
        let r = report_for("crates/serve/src/lib.rs", src);
        assert_eq!(r.error_count(), 1); // panic!
        assert_eq!(r.warning_count(), 1); // v[i]
    }

    #[test]
    fn lint_allow_unwrap_waiver_is_honoured() {
        let src = "fn f(x: Option<u32>) -> u32 {
            x.unwrap() // lint:allow(unwrap) checked non-empty above
        }";
        let r = report_for("crates/core/src/harness/session.rs", src);
        assert!(r.is_clean(), "{}", r.render_pretty());
    }

    #[test]
    fn tests_are_exempt() {
        let src = "#[cfg(test)]
        mod tests {
            #[test]
            fn t() { Some(1).unwrap(); panic!(\"x\"); }
        }";
        let r = report_for("crates/serve/src/lib.rs", src);
        assert!(r.is_clean(), "{}", r.render_pretty());
    }
}
