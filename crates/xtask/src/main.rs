//! Repository automation (`cargo xtask <task>`).
//!
//! * **`audit`** — the six SA-coded determinism & concurrency passes from
//!   `stacksim-audit` (map-iteration order into digests, wall-clock
//!   taint, unordered float reductions, lock-order cycles, relaxed
//!   atomics, panic paths), ratcheted against `audit-baseline.txt`.
//! * **`loom`** — the exhaustive interleaving models from
//!   `stacksim-modelcheck` (session dedup slots), which are
//!   too slow for the default `cargo test` profile.
//!
//! The `unwrap`/`expect` ban on non-test code is a clippy lint, not a
//! task here: `cargo clippy --workspace --lib --bins -- -D warnings
//! -D clippy::unwrap_used -D clippy::expect_used`.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stacksim_lint::Severity;

fn repo_root() -> PathBuf {
    // crates/xtask -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Runs the six SA-coded audit passes and ratchets the error-severity
/// findings against `audit-baseline.txt`.
fn audit(update_baseline: bool, json: bool) -> Result<bool, String> {
    let root = repo_root();
    let audit =
        stacksim_audit::run(&root, update_baseline).map_err(|e| format!("audit scan: {e}"))?;
    if json {
        println!("{}", audit.report.render_json());
    } else {
        print!("{}", audit.report.render_pretty());
    }
    if update_baseline {
        eprintln!("audit baseline updated ({})", stacksim_audit::BASELINE_FILE);
        return Ok(true);
    }
    let mut ok = true;
    for d in &audit.verdict.new_errors {
        eprintln!(
            "audit: new {} error at {} not in the baseline: {}",
            d.code, d.span, d.message
        );
        ok = false;
    }
    for key in &audit.verdict.stale {
        eprintln!(
            "audit: baseline entry `{key}` no longer matches; \
             run `cargo xtask audit --update-baseline` to ratchet down"
        );
        ok = false;
    }
    if ok && !json {
        let warnings = audit
            .report
            .diagnostics()
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count();
        eprintln!(
            "audit clean: {} file(s) scanned across {} passes, {} warning(s)",
            audit.files_scanned,
            stacksim_audit::PASS_CODES.len(),
            warnings
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (task, rest) = match args.split_first() {
        Some((t, r)) => (t.as_str(), r),
        None => ("", &args[..]),
    };
    match task {
        "audit" => {
            let update = rest.iter().any(|a| a == "--update-baseline");
            let mut json = false;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--update-baseline" => {}
                    "--format" => {
                        i += 1;
                        match rest.get(i).map(String::as_str) {
                            Some("json") => json = true,
                            Some("pretty") => json = false,
                            other => {
                                eprintln!("xtask audit: bad --format {other:?}");
                                return ExitCode::from(2);
                            }
                        }
                    }
                    other => {
                        eprintln!("xtask audit: unknown option `{other}`");
                        return ExitCode::from(2);
                    }
                }
                i += 1;
            }
            match audit(update, json) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("xtask: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "loom" => {
            if !rest.is_empty() {
                eprintln!("xtask loom: unknown option(s) {rest:?}");
                return ExitCode::from(2);
            }
            match stacksim_modelcheck::run_all() {
                Ok(summary) => {
                    println!("{summary}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("xtask loom: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!(
                "usage: cargo xtask audit [--update-baseline] [--format json|pretty]\n\
                 \x20      cargo xtask loom"
            );
            ExitCode::from(2)
        }
    }
}
