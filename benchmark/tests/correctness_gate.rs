//! The benchmark's correctness gate has teeth: a run whose reference
//! is corrupted must report `"correct": false` and exit non-zero,
//! while the same run against the true reference passes. Both
//! reference paths are covered: the interpreter (`ps-dgc-threads`)
//! and the thread engine checking process-backend pipelined jobs
//! (`ring-onebit-proc`).

use std::process::Command;

fn run(workload: &str, extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hipress-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

fn check_corrupted(workload: &str) {
    let (ok, last) = run(workload, &["--corrupt-reference"]);
    assert!(!ok, "a corrupted reference must make the run exit non-zero");
    assert!(last.starts_with("{\"correct\":false,"), "{last}");
    assert!(!last.contains("\"failed\":0,"), "{last}");
}

fn check_true(workload: &str) {
    let (ok, last) = run(workload, &[]);
    assert!(ok, "{last}");
    assert!(last.starts_with("{\"correct\":true,"), "{last}");
    assert!(last.contains("\"failed\":0,"), "{last}");
}

#[test]
fn corrupted_reference_fails_the_run() {
    check_corrupted("ps-dgc-threads");
    check_corrupted("ring-onebit-proc");
}

#[test]
fn true_reference_passes() {
    check_true("ps-dgc-threads");
    check_true("ring-onebit-proc");
}

#[test]
fn unknown_workload_is_refused() {
    let (ok, last) = run("nope", &[]);
    assert!(!ok);
    assert!(last.is_empty());
}
