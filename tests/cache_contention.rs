//! Integration: two concurrent `stacksim` *processes* sharing one
//! `--cache-dir` must not corrupt entries — the pid-unique tmp-file
//! claim plus the locked eviction scan are the contract under test.

use std::path::PathBuf;
use std::process::{Child, Command};

use stacksim::core::harness::Artifact;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stacksim-contend-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_run(cache: &PathBuf, names: &[&str]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_stacksim"));
    cmd.arg("run")
        .args(names)
        .arg("--test-scale")
        .args(["--jobs", "1"])
        .arg("--cache-dir")
        .arg(cache)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped());
    cmd.spawn().expect("spawn stacksim")
}

/// Two processes race the same selection into one cache directory; both
/// must succeed, every surviving entry must parse, and a third run must
/// be served fully from the (uncorrupted) cache.
#[test]
fn two_processes_share_a_cache_dir_without_corruption() {
    let cache = scratch_dir("race");
    // fig5 expands to 12 benchmark points + the aggregate: plenty of
    // same-name same-digest stores landing from both processes at once
    let a = spawn_run(&cache, &["fig5", "fig3"]);
    let b = spawn_run(&cache, &["fig5", "fig3"]);
    for child in [a, b] {
        let out = child.wait_with_output().expect("wait");
        assert!(
            out.status.success(),
            "concurrent run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // every entry both writers left behind is a parseable artifact
    let mut entries = 0;
    for entry in std::fs::read_dir(&cache).expect("cache dir exists") {
        let path = entry.expect("read_dir").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !path.is_file() || !name.ends_with(".json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read entry");
        Artifact::decode(&text).unwrap_or_else(|e| panic!("corrupt cache entry {name}: {e}"));
        entries += 1;
    }
    assert!(entries >= 14, "fig5 closure + fig3 memoized, got {entries}");
    assert!(
        !cache.join("quarantine").exists(),
        "no entry needed quarantining"
    );

    // a third run completes entirely from the shared cache
    let report_path = std::env::temp_dir().join(format!(
        "stacksim-contend-report-{}.json",
        std::process::id()
    ));
    let report = Command::new(env!("CARGO_BIN_EXE_stacksim"))
        .args(["run", "fig5", "fig3", "--test-scale", "--jobs", "1"])
        .arg("--cache-dir")
        .arg(&cache)
        .arg("--report")
        .arg(&report_path)
        .output()
        .expect("reporting run");
    assert!(report.status.success());
    let text = std::fs::read_to_string(&report_path).expect("report written");
    assert!(
        !text.contains("\"cached\":false"),
        "warm shared cache must serve every experiment: {text}"
    );
    assert!(text.contains("\"cached\":true"));
    let _ = std::fs::remove_file(&report_path);
    let _ = std::fs::remove_dir_all(&cache);
}
