//! `witag-cli` exits with one code per failure class (bad flag 2, I/O 1,
//! simulation error 3) and reports the failure as an `error:` line, never
//! as a panic.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_witag-cli"))
        .args(args)
        .output()
        .expect("run witag-cli")
}

fn assert_fails_with(args: &[&str], code: i32) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(
        !stderr.contains("panicked at"),
        "{args:?} panicked: {stderr}"
    );
    assert!(
        stderr.contains("error: "),
        "{args:?} printed no error line: {stderr}"
    );
}

#[test]
fn a_bad_flag_exits_2() {
    assert_fails_with(&["run", "--rounds", "abc"], 2);
    assert_fails_with(&["run", "--no-such-option", "1"], 2);
    assert_fails_with(&["nlos", "--location", "c"], 2);
    assert_fails_with(&["mox", "--subframes", "0"], 2);
    assert_fails_with(&["mox", "--subframes", "65"], 2);
    assert_fails_with(&["mox", "--payload", "4066"], 2);
    assert_fails_with(&["no-such-subcommand"], 2);
    assert_fails_with(&[], 2);
    assert_fails_with(&["report"], 2);
}

#[test]
fn an_io_failure_exits_1() {
    assert_fails_with(&["report", "/nonexistent-dir/trace.jsonl"], 1);
    assert_fails_with(
        &[
            "net",
            "--clients",
            "1",
            "--tags",
            "1",
            "--trace",
            "/nonexistent-dir/t.jsonl",
        ],
        1,
    );
}

#[test]
fn a_simulation_error_exits_3() {
    assert_fails_with(&["send", "--max-queries", "0"], 3);
}
