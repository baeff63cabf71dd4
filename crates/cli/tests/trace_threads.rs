//! The subcommands that fan out over worker threads (`sweep`, `mox`,
//! fleet `net --replicas`, metro `net --cells`) print the same table and
//! write the same `--trace` bytes at one thread and at two.

use std::path::PathBuf;
use std::process::Command;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("witag_cli_{}_{name}", std::process::id()))
}

/// Run `args` with `--threads threads --trace <file>`; return stdout and
/// the trace bytes.
fn traced_run(args: &[&str], threads: &str, name: &str) -> (Vec<u8>, Vec<u8>) {
    let trace = temp_path(&format!("{name}_t{threads}.jsonl"));
    let out = Command::new(env!("CARGO_BIN_EXE_witag-cli"))
        .args(args)
        .args(["--threads", threads, "--trace"])
        .arg(&trace)
        .output()
        .expect("run witag-cli");
    assert!(
        out.status.success(),
        "{args:?} at {threads} thread(s): {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&trace).expect("read the trace");
    let _ = std::fs::remove_file(&trace);
    (out.stdout, bytes)
}

fn assert_thread_count_invariant(args: &[&str], name: &str) {
    let (out1, trace1) = traced_run(args, "1", name);
    let (out2, trace2) = traced_run(args, "2", name);
    assert!(!out1.is_empty(), "{args:?} printed nothing");
    assert!(
        trace1.iter().filter(|&&b| b == b'\n').count() > 1,
        "{args:?} traced no events"
    );
    assert_eq!(out1, out2, "{args:?}: stdout depends on --threads");
    assert!(
        trace1 == trace2,
        "{args:?}: trace bytes depend on --threads"
    );
}

#[test]
fn sweep_trace_is_thread_count_invariant() {
    assert_thread_count_invariant(
        &["sweep", "--from", "1", "--to", "2", "--rounds", "5"],
        "sweep",
    );
}

#[test]
fn mox_trace_is_thread_count_invariant() {
    assert_thread_count_invariant(
        &["mox", "--streams", "1,2", "--from", "1", "--to", "2"],
        "mox",
    );
}

#[test]
fn fleet_replica_trace_is_thread_count_invariant() {
    assert_thread_count_invariant(
        &["net", "--clients", "2", "--tags", "8", "--replicas", "2"],
        "fleet",
    );
}

#[test]
fn metro_trace_is_thread_count_invariant() {
    assert_thread_count_invariant(
        &[
            "net",
            "--cells",
            "4",
            "--readers",
            "4",
            "--tags",
            "200",
            "--duty",
            "0.08",
            "--horizon",
            "10000",
        ],
        "metro",
    );
}
