//! The `autofj_serve` command line refuses bad input with an `error` exit
//! and a message naming the fault, never a panic: out-of-range options,
//! a zero thread count and flags a command does not know.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../store/tests/fixtures")
        .join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_autofj_serve"))
        .args(args)
        .output()
        .expect("run autofj_serve")
}

/// Assert the command failed without panicking and that stderr names
/// `needle`.
fn assert_refused(output: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "exit {:?}", output.status);
    assert!(
        stderr.contains(needle),
        "stderr {stderr:?} lacks {needle:?}"
    );
    assert!(!stderr.contains("panicked"), "stderr {stderr:?}");
}

#[test]
fn out_of_range_precision_target_is_refused() {
    let (left, right) = (fixture("teams_left.txt"), fixture("teams_right.txt"));
    let out = std::env::temp_dir().join(format!("autofj_cli_tau_{}.afj", std::process::id()));
    for tau in ["1.5", "-0.1", "nan"] {
        let args = [
            "build",
            "--left",
            left.to_str().unwrap(),
            "--right",
            right.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--tau",
            tau,
        ];
        assert_refused(&run(&args), "precision_target");
        assert!(!out.exists(), "--tau {tau} wrote a snapshot");
    }
}

#[test]
fn zero_accept_threads_are_refused_before_loading() {
    let snapshot = fixture("teams_v1.afj");
    let output = run(&[
        "serve",
        "--snapshot",
        snapshot.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "0",
    ]);
    assert_refused(&output, "--threads");
    assert!(
        !String::from_utf8_lossy(&output.stdout).contains("serving"),
        "the server started"
    );
}

#[test]
fn unknown_flags_are_refused() {
    assert_refused(
        &run(&["build", "--tua", "0.5", "--left", "l.txt"]),
        "unknown flag --tua",
    );
    assert_refused(
        &run(&["serve", "--snapshot", "s.afj", "--thread", "2"]),
        "unknown flag --thread",
    );
    assert_refused(&run(&["query", "--adr", "x", "y"]), "unknown flag --adr");
}
