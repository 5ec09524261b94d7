//! End-to-end smoke test of the `cfkg` workflow: generate → stats → train →
//! eval → predict, all through the public command functions.

use cf_check::TempDir;
use std::process::Command;

fn cfkg() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cfkg"))
}

#[test]
fn full_cli_workflow() {
    let dir = TempDir::new("cfkg_smoke");
    let triples = dir.join("yago15k_sim_triples.tsv");
    let numerics = dir.join("yago15k_sim_numerics.tsv");
    let ckpt = dir.join("model.ckpt");

    // generate
    let st = cfkg()
        .args([
            "generate",
            "--dataset",
            "yago",
            "--scale",
            "small",
            "--seed",
            "3",
        ])
        .args(["--out", dir.path().to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(
        st.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&st.stderr)
    );
    assert!(triples.exists() && numerics.exists());

    // stats
    let st = cfkg()
        .args(["stats", "--triples", triples.to_str().unwrap()])
        .args(["--numerics", numerics.to_str().unwrap()])
        .output()
        .expect("run stats");
    assert!(st.status.success());
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(
        stdout.contains("latitude"),
        "stats missing attribute rows: {stdout}"
    );

    // train (tiny budget)
    let st = cfkg()
        .args(["train", "--triples", triples.to_str().unwrap()])
        .args(["--numerics", numerics.to_str().unwrap()])
        .args(["--ckpt", ckpt.to_str().unwrap()])
        .args([
            "--epochs", "1", "--dim", "16", "--layers", "1", "--walks", "32", "--top-k", "8",
        ])
        .args(["--seed", "3"])
        .output()
        .expect("run train");
    assert!(
        st.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&st.stderr)
    );
    assert!(ckpt.exists());

    // eval with the same flags
    let st = cfkg()
        .args(["eval", "--triples", triples.to_str().unwrap()])
        .args(["--numerics", numerics.to_str().unwrap()])
        .args(["--ckpt", ckpt.to_str().unwrap()])
        .args([
            "--epochs", "1", "--dim", "16", "--layers", "1", "--walks", "32", "--top-k", "8",
        ])
        .args(["--seed", "3"])
        .output()
        .expect("run eval");
    assert!(
        st.status.success(),
        "eval failed: {}",
        String::from_utf8_lossy(&st.stderr)
    );
    assert!(String::from_utf8_lossy(&st.stdout).contains("Average*"));

    // predict a named entity
    let st = cfkg()
        .args(["predict", "--triples", triples.to_str().unwrap()])
        .args(["--numerics", numerics.to_str().unwrap()])
        .args(["--ckpt", ckpt.to_str().unwrap()])
        .args([
            "--epochs", "1", "--dim", "16", "--layers", "1", "--walks", "32", "--top-k", "8",
        ])
        .args(["--seed", "3", "--entity", "person_0", "--attr", "birth"])
        .output()
        .expect("run predict");
    assert!(
        st.status.success(),
        "predict failed: {}",
        String::from_utf8_lossy(&st.stderr)
    );
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(
        stdout.contains("birth of person_0"),
        "unexpected predict output: {stdout}"
    );
}

#[test]
fn unknown_command_exits_nonzero() {
    let st = cfkg().arg("frobnicate").output().expect("run");
    assert!(!st.status.success());
}

#[test]
fn help_prints_usage() {
    let st = cfkg().arg("help").output().expect("run");
    assert!(st.status.success());
    assert!(String::from_utf8_lossy(&st.stdout).contains("USAGE"));
}

#[test]
fn mismatched_architecture_fails_cleanly() {
    let dir = TempDir::new("cfkg_smoke");
    let triples = dir.join("yago15k_sim_triples.tsv");
    let numerics = dir.join("yago15k_sim_numerics.tsv");
    let ckpt = dir.join("model.ckpt");
    assert!(cfkg()
        .args([
            "generate",
            "--dataset",
            "yago",
            "--scale",
            "small",
            "--seed",
            "4"
        ])
        .args(["--out", dir.path().to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(cfkg()
        .args(["train", "--triples", triples.to_str().unwrap()])
        .args(["--numerics", numerics.to_str().unwrap()])
        .args(["--ckpt", ckpt.to_str().unwrap()])
        .args(["--epochs", "1", "--dim", "16", "--layers", "1", "--walks", "32", "--top-k", "8"])
        .args(["--seed", "4"])
        .status()
        .unwrap()
        .success());
    // eval with a different --dim: checkpoint shapes no longer match.
    let st = cfkg()
        .args(["eval", "--triples", triples.to_str().unwrap()])
        .args(["--numerics", numerics.to_str().unwrap()])
        .args(["--ckpt", ckpt.to_str().unwrap()])
        .args([
            "--epochs", "1", "--dim", "32", "--layers", "1", "--walks", "32", "--top-k", "8",
        ])
        .args(["--seed", "4"])
        .output()
        .expect("run eval");
    assert!(!st.status.success(), "architecture mismatch must fail");
    assert!(String::from_utf8_lossy(&st.stderr).contains("mismatch"));
}
