//! A command whose stdout reader has gone ends its output quietly: it
//! still does its work and exits 0, with no panic on stderr.

use cf_check::TempDir;
use std::process::Command;

/// Runs `cfkg <args>` with the read end of its stdout pipe closed before
/// the child starts, so its first write fails with `BrokenPipe`, and
/// asserts a clean exit with nothing on stderr.
fn run_with_closed_stdout(args: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("create pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_cfkg"))
        .args(args)
        .stdout(writer)
        .output()
        .expect("run cfkg");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "cfkg {args:?}: {stderr}");
    assert!(stderr.is_empty(), "cfkg {args:?} wrote to stderr: {stderr}");
}

#[test]
fn commands_exit_quietly_when_stdout_closes() {
    let dir = TempDir::new("cfkg_closed_stdout");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();
    let out = dir.path().to_str().expect("utf-8 path");
    let triples = path("yago15k_sim_triples.tsv");
    let numerics = path("yago15k_sim_numerics.tsv");
    let store = path("graph.cfkg");

    run_with_closed_stdout(&["generate", "--scale", "small", "--seed", "3", "--out", out]);
    run_with_closed_stdout(&[
        "ingest",
        "--triples",
        &triples,
        "--numerics",
        &numerics,
        "--out",
        &store,
    ]);
    // The output ended, not the work: the store was written.
    assert!(dir.join("graph.cfkg").exists(), "ingest stopped early");
    run_with_closed_stdout(&["stats", "--store", &store]);
    run_with_closed_stdout(&["help"]);
}
