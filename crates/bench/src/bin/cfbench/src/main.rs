//! `cfbench` — end-to-end and per-layer benchmark of ChainsFormer serving
//! and live mutation. See README.md for the workloads, the metrics and how
//! they relate.
//!
//! ```text
//! cfbench run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! cfbench compare DIR_A DIR_B
//! ```
//!
//! Run from the repository root: `run` builds `cfkg` with cargo first.

mod compare;
mod fixtures;
mod load;
mod oracle;
mod report;
mod server;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use workloads::WORKLOADS;

/// Numeric threads, in this process and in every server (`CF_THREADS`).
/// One: each of a server's two shards then runs on a core of its own.
/// With two, both shards' forwards share one two-thread pool; on a 2-core
/// host that cost about a third of `serve_forward`'s capacity, and work
/// that needs both cores at once (pool barriers, data-parallel training)
/// varied three to four times as much from run to run.
pub const THREADS: usize = 1;

const USAGE: &str = "\
usage: cfbench run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       cfbench compare DIR_A DIR_B

run      builds cfkg, runs the workload(s) and prints every metric; the last
         stdout line is the result JSON; exits non-zero if a correctness
         gate fails. --trace 1 adds the in-process replay and reports the
         per-layer metrics instead of the end-to-end ones.
compare  applies BENCHMARK.json's bounds to the untraced results saved in
         two --out directories; one row per workload.";

/// Settings of one `run`.
pub struct Ctx {
    /// Traffic seed.
    pub seed: u64,
    /// Measured seconds per workload.
    pub seconds: f64,
    /// Traced run (per-layer metrics).
    pub trace: bool,
    /// Where results, traces and temporary fixtures go.
    pub out: PathBuf,
    /// The `cfkg` binary under test.
    pub cfkg: PathBuf,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("run") => run_cmd(&argv[1..]),
        Some("compare") if argv.len() == 3 => {
            match compare::compare(
                Path::new("BENCHMARK.json"),
                Path::new(&argv[1]),
                Path::new(&argv[2]),
            ) {
                Ok(worse) => i32::from(worse),
                Err(e) => {
                    eprintln!("cfbench compare: {e}");
                    2
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return it
                .next()
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{name} needs a value"));
        }
    }
    Ok(None)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: bad value {v:?}")),
    }
}

fn run_cmd(args: &[String]) -> i32 {
    match run(args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("cfbench: {e}");
            1
        }
    }
}

/// Runs the selected workloads; `Ok(false)` when a correctness gate failed.
fn run(args: &[String]) -> Result<bool, String> {
    for a in args.iter().step_by(2) {
        if !["--workload", "--seed", "--seconds", "--trace", "--out"].contains(&a.as_str()) {
            return Err(format!("unknown argument {a:?}\n{USAGE}"));
        }
    }
    let which = flag(args, "--workload")?.unwrap_or("all");
    let selected: Vec<_> = WORKLOADS
        .iter()
        .filter(|w| which == "all" || w.name == which)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {which:?} (one of {}, or all)",
            names.join(", ")
        ));
    }
    let seconds: f64 = parse(args, "--seconds", 20.0)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match parse(args, "--trace", 0u8)? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let ctx = Ctx {
        seed: parse(args, "--seed", 1u64)?,
        seconds,
        trace,
        out: PathBuf::from(flag(args, "--out")?.unwrap_or(".cfbench")),
        cfkg: build_cfkg()?,
    };
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
    cf_tensor::pool::set_threads(THREADS);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut all_correct = true;
    for w in selected {
        println!(
            "== {} (seed {}, {} s, trace {}; {} cores, {THREADS} threads)\n   {}",
            w.name,
            ctx.seed,
            ctx.seconds,
            u8::from(ctx.trace),
            cores,
            w.why
        );
        let outcome = workloads::run(w, &ctx)?;
        let line = outcome.to_json(ctx.trace);
        all_correct &= line.starts_with("{\"correct\": true");
        let file = ctx.out.join(format!(
            "{}.seed{}.trace{}.json",
            w.name,
            ctx.seed,
            u8::from(ctx.trace)
        ));
        std::fs::write(&file, format!("{line}\n"))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        println!("{line}");
    }
    Ok(all_correct)
}

/// Builds the server binary from the checkout (`cargo build --release -p
/// chainsformer-cli`) and returns its path under the cargo target dir.
fn build_cfkg() -> Result<PathBuf, String> {
    if !Path::new("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root: crates/cli/Cargo.toml not found".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "chainsformer-cli",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building cfkg failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let cfkg = target.join("release").join("cfkg");
    if !cfkg.is_file() {
        return Err(format!("{} missing after build", cfkg.display()));
    }
    Ok(cfkg)
}
