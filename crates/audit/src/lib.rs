//! `stacksim-audit`: an AST-based determinism & concurrency auditor for
//! the whole workspace, run as `cargo xtask audit`.
//!
//! Six stable `SA`-coded passes walk a lightweight parse of every `.rs`
//! file (excluding tests within them) and report through the same
//! diagnostics engine as `stacksim check`:
//!
//! | code  | invariant |
//! |-------|-----------|
//! | SA001 | no `HashMap`/`HashSet` iteration order into digests/artifacts |
//! | SA002 | no wall-clock/environment values into digests/artifacts |
//! | SA003 | no unordered float reductions in thermal/mem kernels |
//! | SA004 | no lock-order cycles (session slots, cache lock file, obs) |
//! | SA005 | every `Ordering::Relaxed` covered by the declared table |
//! | SA006 | no panic paths on the executor workers / serve connection threads |
//!
//! Findings can be waived in code with `// audit:allow(SAnnn) reason`;
//! error-severity findings are additionally ratcheted against the
//! committed `audit-baseline.txt` (see [`baseline`]).

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use stacksim_lint::Report;

pub mod ast;
pub mod baseline;
pub mod lex;
pub mod model;
pub mod passes;

/// Name of the committed baseline file at the repo root.
pub const BASELINE_FILE: &str = "audit-baseline.txt";

/// The pass codes, in run order.
pub const PASS_CODES: [&str; 6] = ["SA001", "SA002", "SA003", "SA004", "SA005", "SA006"];

/// Everything one audit run produced.
pub struct Audit {
    /// All diagnostics, waivers already applied.
    pub report: Report,
    /// Ratchet verdict against the committed baseline.
    pub verdict: baseline::Verdict,
    /// Number of files parsed.
    pub files_scanned: usize,
}

/// Collects, lexes and parses every workspace source file under
/// `src/` and `crates/*/src/`, in sorted (deterministic) path order.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<ast::SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut paths)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let source = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(ast::parse(&rel, lex::lex(&source)));
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs all six passes over a repo checkout and ratchets the errors
/// against its committed baseline. `update_baseline` rewrites the file
/// to match the current errors instead of failing on drift.
pub fn run(root: &Path, update_baseline: bool) -> io::Result<Audit> {
    let files = scan_workspace(root)?;
    let report = passes::run_all(&files);

    let baseline_path = root.join(BASELINE_FILE);
    if update_baseline {
        fs::write(&baseline_path, baseline::render(report.diagnostics()))?;
    }
    let base: BTreeSet<String> = match fs::read_to_string(&baseline_path) {
        Ok(text) => baseline::parse(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => BTreeSet::new(),
        Err(e) => return Err(e),
    };
    let verdict = baseline::compare(report.diagnostics(), &base);
    Ok(Audit {
        verdict,
        files_scanned: files.len(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The auditor audits its own workspace clean: run the full pass set
    /// over this repo and require the ratchet to hold with the committed
    /// (empty) baseline. This is the same check CI runs via
    /// `cargo xtask audit`, kept here so `cargo test -p stacksim-audit`
    /// alone catches regressions.
    #[test]
    fn workspace_audits_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("repo root")
            .to_path_buf();
        let audit = run(&root, false).expect("audit runs");
        assert!(audit.files_scanned > 20);
        let pretty = audit.report.render_pretty();
        assert!(
            audit.verdict.is_ok(),
            "new: {:?}\nstale: {:?}\n{pretty}",
            audit
                .verdict
                .new_errors
                .iter()
                .map(|d| format!("{} {}", d.span, d.message))
                .collect::<Vec<_>>(),
            audit.verdict.stale,
        );
    }
}
