//! A restarted `serve --jsonl --persist` process answers from the log its
//! predecessor wrote, whatever order the requests come in: fingerprint keys
//! depend only on a lineage's structure, not on the shapes the process saw
//! first.

use std::io::Write;
use std::process::{Command, Stdio};

/// `(x1 ∧ x2) ∨ (x3 ∧ (x4 ∨ x5))`.
const L1: &str = r#"{"id":1,"lineage":[[1,2],[3,4],[3,5]],"n_endo":16}"#;
/// `x10 ∧ (x11 ∨ x12)`: its `∨` shape is also a subtree of L1.
const L0: &str = r#"{"id":0,"lineage":[[10,11],[10,12]],"n_endo":16}"#;

/// Runs one `shapdb serve --jsonl --persist <log> --workers 1` process over
/// `requests` and returns its final stats line.
fn serve(log: &std::path::Path, requests: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_shapdb"))
        .args(["serve", "--jsonl", "--workers", "1", "--persist"])
        .arg(log)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn shapdb serve");
    let mut stdin = child.stdin.take().unwrap();
    for r in requests {
        writeln!(stdin, "{r}").unwrap();
    }
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), requests.len() + 1, "{stdout}");
    for line in &lines[..requests.len()] {
        assert!(line.contains(r#""ok":true"#), "{line}");
    }
    lines[requests.len()].to_string()
}

#[test]
fn restarted_server_answers_warm_in_any_request_order() {
    let log = std::env::temp_dir().join(format!("shapdb-restart-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let first = serve(&log, &[L1]);
    assert!(first.contains(r#""engine_runs":1"#), "{first}");
    let second = serve(&log, &[L0, L1]);
    let _ = std::fs::remove_file(&log);
    // L0 is new and runs once; L1 is answered from the log.
    assert!(second.contains(r#""engine_runs":1"#), "{second}");
    assert!(second.contains(r#""cache_hits":1"#), "{second}");
}
