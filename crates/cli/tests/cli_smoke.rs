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

/// Out-of-range numeric flags are one `error:` line and exit 1, never a
/// panic (exit 101). Each is rejected before any file is read.
#[test]
fn out_of_range_flags_are_errors_not_panics() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["index", "--out", "x.cfci", "--max-hops", "4"],
            "max_hops must be in 1..=3, got 4",
        ),
        (
            &["index", "--out", "x.cfci", "--max-hops", "0"],
            "max_hops must be in 1..=3, got 0",
        ),
        (
            &["index", "--out", "x.cfci", "--fanout", "0"],
            "fanout must be at least 1, got 0",
        ),
        (
            &["index", "--out", "x.cfci", "--per-entity-cap", "0"],
            "per_entity_cap must be at least 1, got 0",
        ),
        (
            &["train", "--ckpt", "x.ckpt", "--dim", "0"],
            "dim must be positive, got 0",
        ),
        (
            &["loadtest", "--addr", "127.0.0.1:1", "--rate", "0"],
            "arrival rate must be positive, got 0",
        ),
        (
            &["loadtest", "--addr", "127.0.0.1:1", "--zipf", "-1"],
            "zipf exponent must be ≥ 0, got -1",
        ),
    ];
    for (args, msg) in cases {
        let out = cfkg().args(*args).output().expect("run cfkg");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("error: {msg}"), "{args:?}");
    }
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

/// `ckpt` with its `model` section removed and the CFT2 footer re-sealed:
/// a params-only checkpoint, as written before the section existed.
fn strip_model_section(ckpt: &[u8]) -> Vec<u8> {
    let mut out = ckpt[..4].to_vec();
    let mut crcs = Vec::new();
    let mut at = 4;
    while ckpt[at] != 0xFF {
        let len = u64::from_le_bytes(ckpt[at + 1..at + 9].try_into().unwrap()) as usize;
        let end = at + 9 + len + 4;
        if ckpt[at] != 0x07 {
            out.extend_from_slice(&ckpt[at..end]);
            crcs.extend_from_slice(&ckpt[end - 4..end]);
        }
        at = end;
    }
    out.push(0xFF);
    out.extend_from_slice(&cf_tensor::crc32(&crcs).to_le_bytes());
    out
}

#[test]
fn model_file_errors_are_typed_and_name_the_section() {
    let dir = TempDir::new("cfkg_model_file");
    let yago = dir.join("yago");
    let fb = dir.join("fb");
    for (dataset, out) in [("yago", &yago), ("fb", &fb)] {
        assert!(cfkg()
            .args(["generate", "--dataset", dataset, "--scale", "small"])
            .args(["--seed", "4", "--out", out.to_str().unwrap()])
            .status()
            .unwrap()
            .success());
    }
    let graph = |dir: &std::path::Path, name: &str| -> Vec<String> {
        vec![
            "--triples".into(),
            dir.join(format!("{name}_triples.tsv"))
                .display()
                .to_string(),
            "--numerics".into(),
            dir.join(format!("{name}_numerics.tsv"))
                .display()
                .to_string(),
        ]
    };
    let yago_graph = graph(&yago, "yago15k_sim");
    let fb_graph = graph(&fb, "fb15k237_sim");
    let model = [
        "--dim", "16", "--layers", "1", "--walks", "32", "--top-k", "8",
    ];
    let ckpt = dir.join("model.ckpt");
    assert!(cfkg()
        .arg("train")
        .args(&yago_graph)
        .args([
            "--ckpt",
            ckpt.to_str().unwrap(),
            "--epochs",
            "1",
            "--seed",
            "4"
        ])
        .args(model)
        .status()
        .unwrap()
        .success());
    let bare = dir.join("bare.ckpt");
    std::fs::write(&bare, strip_model_section(&std::fs::read(&ckpt).unwrap())).unwrap();

    let cases = [
        // No model section.
        (
            &yago_graph,
            &bare,
            "4",
            "checkpoint has no \"model\" section",
        ),
        // The section disagrees with the flags: trained under --seed 4.
        (&yago_graph, &ckpt, "5", "fitted under seed 4"),
        // The section disagrees with the graph's vocabulary.
        (&fb_graph, &ckpt, "4", "the graph has"),
    ];
    for (graph, file, seed, want) in cases {
        for cmd in [
            vec!["eval"],
            vec!["predict", "--entity", "person_0", "--attr", "birth"],
            vec!["serve", "--port", "0"],
        ] {
            let st = cfkg()
                .args(&cmd)
                .args(graph)
                .args(["--ckpt", file.to_str().unwrap(), "--seed", seed])
                .args(model)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&st.stderr);
            assert_eq!(st.status.code(), Some(1), "{cmd:?} {want}: {stderr}");
            assert!(stderr.contains(want), "{cmd:?}: {stderr}");
        }
    }
}

/// A flag the subcommand does not read — a typo, or the retired
/// `--workers` or `--max-wait-us` — is a usage error (exit 2) naming it,
/// before any work is done. `--threads` stays a flag of every command.
#[test]
fn unknown_flags_are_usage_errors() {
    let dir = TempDir::new("cfkg_unknown_flag");
    let missing = dir.join("missing.cfkg");
    let missing = missing.to_str().unwrap();
    let cases: [(&[&str], &str); 10] = [
        (&["stats", "--store", missing, "--shardz", "2"], "--shardz"),
        (
            &[
                "serve",
                "--store",
                missing,
                "--ckpt",
                missing,
                "--workers",
                "4",
            ],
            "--workers",
        ),
        (
            &[
                "serve",
                "--store",
                missing,
                "--ckpt",
                missing,
                "--max-wait-us",
                "100",
            ],
            "--max-wait-us",
        ),
        (
            &[
                "serve",
                "--store",
                missing,
                "--ckpt",
                missing,
                "--max-batch",
                "8",
            ],
            "--max-batch",
        ),
        (
            &[
                "serve",
                "--store",
                missing,
                "--ckpt",
                missing,
                "--cache-cap",
                "4096",
            ],
            "--cache-cap",
        ),
        (
            &["train", "--quality", "--workers", "--resume"],
            "--workers",
        ),
        (
            &["eval", "--store", missing, "--ckpt", missing, "--quality"],
            "--quality",
        ),
        (&["eval", "--store", missing, "--resume"], "--resume"),
        (
            &[
                "predict",
                "--store",
                missing,
                "--ckpt",
                missing,
                "--entity",
                "x",
                "--attr",
                "y",
                "--retries",
                "1",
            ],
            "--retries",
        ),
        (
            &[
                "loadtest",
                "--addr",
                "127.0.0.1:1",
                "--store",
                missing,
                "--retries",
                "2",
            ],
            "--retries",
        ),
    ];
    for (args, flag) in cases {
        let st = cfkg().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&st.stderr);
        assert_eq!(st.status.code(), Some(2), "{args:?}: {stderr}");
        let want = format!("unknown flag {flag} for `cfkg {}`", args[0]);
        assert!(stderr.contains(&want), "{args:?}: {stderr}");
    }
    // Known flags, global --threads included, get as far as the missing file.
    let st = cfkg()
        .args(["stats", "--store", missing, "--threads", "1"])
        .output()
        .unwrap();
    assert_eq!(st.status.code(), Some(1));
    assert!(!String::from_utf8_lossy(&st.stderr).contains("unknown flag"));
}

/// A file that cannot be read or written is an `error:` line naming it,
/// exit 1. `index` checks `--out`'s directory and `train` its `--ckpt`'s
/// before they read the graph, so a missing one fails at once, not after
/// the whole build or the first epoch.
#[test]
fn missing_files_are_named() {
    let dir = TempDir::new("cfkg_missing_files");
    let store = dir.join("g.cfkg");
    let mut g = cf_kg::KnowledgeGraph::new();
    let (a, b) = (g.add_entity("a"), g.add_entity("b"));
    let r = g.add_relation_type("r");
    let n = g.add_attribute_type("n");
    g.add_triple(a, r, b);
    g.add_numeric(b, n, 1.5);
    g.build_index();
    cf_kg::write_store(&g, &store).unwrap();
    let store = store.to_str().unwrap();
    let to_missing_ckpt = |command| {
        let model = [
            "--dim", "16", "--layers", "1", "--walks", "32", "--top-k", "8",
        ];
        let ckpt = ["--ckpt", "/nonexistent_dir/m.ckpt"];
        [command, "--store", store]
            .into_iter()
            .chain(ckpt)
            .chain(model)
            .collect::<Vec<_>>()
    };
    let (train, eval) = (to_missing_ckpt("train"), to_missing_ckpt("eval"));
    let cases: &[(&[&str], &str)] = &[
        (
            &["stats", "--store", "/nonexistent_dir/x.cfkg"],
            "/nonexistent_dir/x.cfkg",
        ),
        (
            &[
                "stats",
                "--triples",
                "/nonexistent_dir/t.tsv",
                "--numerics",
                "/nonexistent_dir/n.tsv",
            ],
            "--triples /nonexistent_dir/t.tsv",
        ),
        (&eval, "/nonexistent_dir/m.ckpt"),
        // Refused before the graph loads: no epoch runs first.
        (&train, "--ckpt /nonexistent_dir/m.ckpt"),
        (
            &[
                "index",
                "--store",
                store,
                "--out",
                "/nonexistent_dir/x.cfci",
                "--full",
            ],
            "/nonexistent_dir/x.cfci",
        ),
    ];
    for (args, path) in cases {
        let out = cfkg().args(*args).output().expect("run cfkg");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(
            stderr.contains(path),
            "{args:?} does not name {path}: {stderr}"
        );
        assert!(stderr.contains("No such file or directory"), "{stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("training on"), "{args:?}: {stdout}");
    }
}

/// `serve` refuses an index built for another graph — here the split
/// under another `--seed` — with an error of its own: both fingerprints and
/// the fix, not a claim that the index is corrupt.
#[test]
fn serve_names_an_index_built_for_another_graph() {
    use cf_kg::ChainIndexView;
    use cf_rand::SeedableRng;

    let dir = TempDir::new("cfkg_index_pairing");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (store, ckpt, index) = (path("g.cfkg"), path("m.ckpt"), path("seed5.cfci"));
    let model = [
        "--dim", "16", "--layers", "1", "--walks", "32", "--top-k", "8", "--seed", "4",
    ];
    let run = |args: &[&str]| {
        let st = cfkg().args(args).output().unwrap();
        assert!(
            st.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&st.stderr)
        );
    };
    run(&[
        "generate",
        "--scale",
        "small",
        "--seed",
        "4",
        "--out",
        dir.path().to_str().unwrap(),
    ]);
    run(&[
        "ingest",
        "--triples",
        &path("yago15k_sim_triples.tsv"),
        "--numerics",
        &path("yago15k_sim_numerics.tsv"),
        "--out",
        &store,
    ]);
    let mut train = vec!["train", "--store", &store, "--ckpt", &ckpt, "--epochs", "1"];
    train.extend(model);
    run(&train);
    run(&["index", "--store", &store, "--seed", "5", "--out", &index]);

    let st = cfkg()
        .args([
            "serve", "--store", &store, "--index", &index, "--ckpt", &ckpt,
        ])
        .args(model)
        .args(["--port", "0"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&st.stderr);
    assert_eq!(st.status.code(), Some(1), "{stderr}");

    let ix = cf_kg::MappedChainIndex::open(&index).unwrap();
    let graph = cf_kg::read_store(&store).unwrap();
    let split = cf_kg::Split::paper_811(&graph, &mut cf_rand::rngs::StdRng::seed_from_u64(4));
    let served = cf_kg::graph_fingerprint(&split.visible_graph(&graph));
    assert_ne!(ix.fingerprint(), served);
    for want in [
        "chain index was built for another graph".to_string(),
        format!("index fingerprint {:016x}", ix.fingerprint()),
        format!("graph fingerprint {served:016x}"),
        "rebuild it with `cfkg index` for this graph".to_string(),
    ] {
        assert!(stderr.contains(&want), "missing {want:?}: {stderr}");
    }
    assert!(!stderr.contains("corrupt"), "{stderr}");
}
