//! `witag-cli report` over a trace file that is not all valid UTF-8.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_witag-cli"))
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("witag_cli_{}_{name}", std::process::id()))
}

#[test]
fn a_line_of_invalid_utf8_is_counted_as_malformed_not_fatal() {
    let trace = temp_path("report_utf8.jsonl");
    let status = cli()
        .args([
            "net",
            "--clients",
            "2",
            "--tags",
            "8",
            "--scheduler",
            "fair",
            "--trace",
        ])
        .arg(&trace)
        .output()
        .expect("run witag-cli net");
    assert!(status.status.success(), "net run failed: {status:?}");

    // Splice a line holding the bytes 0xFF 0xFE into the middle of the
    // real trace.
    let mut bytes = std::fs::read(&trace).expect("read trace");
    let mid = bytes.len() / 2;
    let cut = mid
        + bytes[mid..]
            .iter()
            .position(|&b| b == b'\n')
            .expect("a line break")
        + 1;
    bytes.splice(cut..cut, *b"\xff\xfe\n");
    std::fs::write(&trace, &bytes).expect("write trace");

    let out = cli()
        .arg("report")
        .arg(&trace)
        .output()
        .expect("run witag-cli report");
    let _ = std::fs::remove_file(&trace);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "report exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("fleet sessions"),
        "report rendered no fleet table:\n{stdout}"
    );
    assert!(
        stdout.contains("0 unknown-kind, 1 malformed line(s)"),
        "bad line not counted:\n{stdout}"
    );
}
