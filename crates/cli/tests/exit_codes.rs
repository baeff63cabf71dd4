//! `witag-cli` exits with one code per failure class (bad flag 2, I/O 1,
//! simulation error 3) and reports the failure as an `error:` line, never
//! as a panic. A reader that closes stdout early is not a failure.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Output, Stdio};

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
    assert_fails_with(
        &[
            "sweep",
            "--rounds",
            "1",
            "--threads",
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

#[test]
fn a_reader_closing_stdout_early_exits_0_quietly() {
    // Like `witag-cli run ... | head -1`: the first line comes before the
    // rounds run, so the rest is written after the pipe has closed.
    let mut child = Command::new(env!("CARGO_BIN_EXE_witag-cli"))
        .args(["run", "--distance", "1", "--seed", "42", "--rounds", "5"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn witag-cli");
    let mut first = String::new();
    {
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut first)
            .expect("read the first line");
    } // the read end closes here
    assert!(first.starts_with("link SNR"), "first line: {first:?}");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for witag-cli");
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
}
