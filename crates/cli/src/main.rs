#![warn(missing_docs)]

//! `cfkg` — the ChainsFormer command line.
//!
//! ```text
//! cfkg generate --dataset yago --scale default --out data/           write TSV twins
//! cfkg stats    --triples data/triples.tsv --numerics data/num.tsv  Table-I/II stats
//! cfkg train    --triples … --numerics … --ckpt model.ckpt          train + save
//! cfkg eval     --triples … --numerics … --ckpt model.ckpt          test-set report
//! cfkg predict  --triples … --numerics … --ckpt model.ckpt \
//!               --entity person_17 --attr birth                     explained answer
//! cfkg serve    --triples … --numerics … --ckpt model.ckpt \
//!               --port 7777                                         TCP inference server
//! ```
//!
//! Graphs are MMKG-style TSV (`head<TAB>rel<TAB>tail`,
//! `entity<TAB>attr<TAB>value`); checkpoints use `cf_tensor::serialize`.
//! A checkpoint holds the whole trained model, the fitted filter,
//! normalizer and fallback means included, so eval/predict/serve fit
//! nothing. They must be given the training `--seed` (the served graph is
//! that seed's 8:1:1 split) and architecture flags; a mismatch is an error.
//!
//! Every command accepts `--threads N` (or the `CF_THREADS` env var) to run
//! the numeric kernels on an in-tree thread pool. Results are bitwise
//! identical at every thread count, so the flag never has to match between
//! train and resume, or between machines.

/// `println!` for report output that ends quietly when stdout closes.
///
/// Rust ignores SIGPIPE, so a write to a pipe whose reader has gone
/// (`cfkg stats … | head -1`) fails with `BrokenPipe`, and `println!` turns
/// that into a panic. Through [`print_out`] the first such failure ends the
/// output instead: later lines are dropped and the command runs on to its
/// usual exit. SIGPIPE stays ignored, so `serve` and `loadtest` still see a
/// closed socket as an error rather than being killed by it.
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::print_out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod args;
mod commands;

use args::Args;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

/// Writes `text` to stdout and flushes it, unless stdout has closed.
fn print_out(text: std::fmt::Arguments) {
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    let mut out = std::io::stdout().lock();
    match out.write_fmt(text).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            CLOSED.store(true, Ordering::Relaxed)
        }
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

const USAGE: &str = "\
cfkg — chain-based numerical reasoning on knowledge graphs (ChainsFormer)

USAGE: cfkg <COMMAND> [--flag value]…

GLOBAL FLAGS
  --threads N   numeric-kernel thread count (default: CF_THREADS env var,
                else auto-detect; output is bitwise identical at any N)

Any other flag a command does not list below is a usage error (exit 2).

COMMANDS
  generate   write a synthetic dataset twin as TSV
             --dataset yago|fb   --scale small|default|paper   --seed N
             --out DIR
  gen        write a large zipfian world with planted numeric structure
             (1M+ entities; O(V+E)) as TSV and/or a CFKG1 binary store
             --entities N [--avg-degree N] [--seed N]
             [--out DIR (TSV)] [--store FILE (binary store)]
  ingest     compile MMKG TSV into a CFKG1 binary store (CRC-protected,
             mmap-ready; byte-identical for identical input)
             --triples FILE --numerics FILE --out FILE
  index      precompute the per-entity chain index (CFCI1) for fast
             retrieval; defaults to the --seed split's visible graph so it
             pairs with `serve --index`, --full indexes the raw graph
             --store FILE (or --triples/--numerics) --out FILE
             [--max-hops N] [--fanout N] [--per-entity-cap N]
             [--seed N | --full]
  stats      print Table-I/II statistics for a graph
             --triples FILE --numerics FILE   (or --store FILE)
  train      train ChainsFormer, checkpointing durably every epoch
             (SIGINT stops gracefully and still saves the best model);
             the checkpoint is the whole model, fitted filter included
             --triples FILE --numerics FILE (or --store FILE) --ckpt FILE
             [--resume (continue a killed run bit-for-bit from --ckpt)]
             [--epochs N] [--dim N] [--layers N] [--walks N] [--top-k N]
             [--seed N]
             [--quality (prune chains by their tracked error while
              training; no checkpoint holds the tracker, so not with
              --resume, and a loaded model does not prune)]
  eval       evaluate a checkpoint on the held-out test split
             --triples FILE --numerics FILE --ckpt FILE [--seed N]
             [model flags as train but --quality]
  predict    answer queries with their reasoning chains (resident engine)
             --triples FILE --numerics FILE --ckpt FILE
             --entity NAME[,NAME…] --attr NAME [--seed N]
             [--quantize f32|int8 (int8: quantized linear layers, accuracy
              pinned by the cargo-test gate)] [model flags as train but --quality]
  compact    fold a CFJ1 mutation journal into its CFKG1 store offline
             (torn tails dropped, replay idempotent; journal left intact)
             --store FILE --journal FILE --out FILE
  serve      run the TCP inference server (line-delimited JSON protocol;
             \"GET /metrics\" returns serving metrics; SIGTERM or stdin
             close shuts down gracefully)
             --triples FILE --numerics FILE (or --store FILE) --ckpt FILE
             [--index FILE (serve retrieval from a chain index)]
             [--port N (0 = ephemeral)]
             [--queue-cap N]
             [--shards N (queues and caches; 0 = one per pool thread;
              responses are bitwise identical at every N)]
             [--seed N]
             [--quantize f32|int8 (int8: one int8 weight twin, rebuilt on
              hot-reload; responses stay deterministic)]
             [--journal FILE (CFJ1 crash-safe mutation journal: {\"mutate\":…}
              requests are fsynced before visible and replayed on restart)]
             [--compact-to FILE --compact-every N (fold the journal into a
              canonical store every N records; atomic tmp+fsync+rename)]
             [model flags as train but --quality]
  loadtest   open-loop load generator against a running serve (fixed
             arrival schedule: overload sheds instead of throttling the
             client; identical --seed ⇒ identical request stream)
             --addr HOST:PORT  --triples FILE --numerics FILE (or --store)
             [--rate REQ_PER_S] [--requests N] [--warmup N]
             [--arrivals poisson|uniform] [--zipf S] [--conns N]
             [--deadline-ms N] [--seed N]
             [--reload CKPT --reload-every N (mix in hot-reloads)]
             [--mutate-every N (mix in live-graph mutations; needs a
              server running with --journal)]
             [--dump FILE (canonical response bytes, diffable across
              --shards settings)]
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        print_out(format_args!("{USAGE}"));
        return;
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(command) = commands::lookup(&args.command) else {
        eprintln!("error: unknown command {:?}\n\n{USAGE}", args.command);
        std::process::exit(2);
    };
    if let Err(e) = args.check_known(command.flags) {
        eprintln!("error: {e}\n\n{USAGE}");
        std::process::exit(2);
    }
    // Numeric-kernel thread count: --threads beats the CF_THREADS env var,
    // which beats auto-detection. Results are bitwise identical at every
    // width, so this is purely a speed knob.
    match args.get_parse("threads", 0usize, "thread count") {
        Ok(0) => {} // fall through to CF_THREADS / auto-detect
        Ok(n) => cf_tensor::pool::set_threads(n),
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
    if let Err(e) = (command.run)(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
