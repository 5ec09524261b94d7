//! The workloads, and the run of a serving workload: fixtures, a fresh
//! `cfkg serve`, an open-loop plan in three steps, the correctness gates,
//! and (traced) the in-process replay.

use crate::fixtures::{self, Fixture, Flags, MODEL_SEED};
use crate::load::{self, LoadRun};
use crate::oracle;
use crate::report::{print_metric, Outcome};
use crate::server::Server;
use crate::stats::{percentile, sorted, supported};
use crate::trace::{self, ReplayEvent, ReplayInput, SHARDS};
use crate::Ctx;
use cf_kg::{AttributeId, GraphView, KnowledgeGraph, Mutation};
use cf_load::{build_plan, render_events, ArrivalProcess, Event, EventKind, PlanConfig};
use cf_rand::rngs::StdRng;
use cf_rand::{Rng, SeedableRng};
use cf_serve::protocol::{parse_command, parse_json, Command, Json};
use std::time::{Duration, Instant};

/// A serving workload: what it sends, and to which server.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Model flags (the server's and the in-process oracle's).
    pub flags: Flags,
    /// Serve retrieval from a chain index.
    pub index: bool,
    /// Run with a mutation journal.
    pub journal: bool,
    /// Entity popularity exponent (`0` = uniform).
    pub zipf_s: f64,
    /// Offered rate of the warm-up and latency steps, requests/s.
    pub rate: f64,
    /// Offered rate of the overload step, requests/s.
    pub overload: f64,
    /// One upsert after every n-th query (`0` = none).
    pub mutate_every: usize,
}

/// The d=16, 1-layer, 2048-walk, top-8 model: retrieval-bound.
const RETRIEVAL_MODEL: Flags = &[("dim", 16), ("layers", 1), ("walks", 2048), ("top-k", 8)];

/// Every workload. Rates are fixed numbers sized for a 2-core host, where
/// capacity measured 260–410/s for `serve_forward` and 330–710/s for the
/// other two as the shared host's speed drifted. The latency step runs at
/// a third of capacity or less, so queueing does not amplify that drift
/// into `p50_ms`; the overload step runs above the top of the range while
/// keeping the backlog left to drain short.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve_forward",
        why: "default model (d=48, 2 layers, 256 walks, top-32), zipf 1.0: the encoder/reasoner forward is ~90% of service time",
        flags: &[],
        index: false,
        journal: false,
        zipf_s: 1.0,
        rate: 120.0,
        overload: 520.0,
        mutate_every: 0,
    },
    Workload {
        name: "serve_retrieval",
        why: "d=16, 1 layer, 2048 walks, top-8, uniform popularity: walk retrieval and the filter are ~90% of service time and the cache mostly misses",
        flags: RETRIEVAL_MODEL,
        index: false,
        journal: false,
        zipf_s: 0.0,
        rate: 180.0,
        overload: 900.0,
        mutate_every: 0,
    },
    Workload {
        name: "serve_mutate",
        why: "serve_retrieval's model with a chain index and a journal, zipf 1.0, one upsert per 10 queries: journaled writes, cache invalidation and index bypass beside reads",
        flags: RETRIEVAL_MODEL,
        index: true,
        journal: true,
        zipf_s: 1.0,
        rate: 180.0,
        overload: 900.0,
        mutate_every: 10,
    },
];

/// Load connections (each driven by one thread).
const CONNS: usize = 2;
/// Cold starts timed for `setup_s` before the load and again after it;
/// the median also counts the start of the server that takes the load.
const COLD_STARTS: usize = 3;
/// Queries the oracle re-answers in-process (serve_forward, serve_retrieval).
const ORACLE_QUERIES: usize = 200;
/// Post-load probes compared against an in-process engine (serve_mutate).
const PROBES: usize = 100;
/// Queries of the latency step the traced replay re-runs.
const REPLAY_QUERIES: usize = 1000;
/// A run is invalid when the generator's p99 lateness in the latency step
/// exceeds this share of the p50 latency it measures. (Latency counts from
/// the scheduled instant, so lateness is charged to the server, not
/// hidden; past this share the offered schedule itself has slipped.)
const MAX_LATE_SHARE: f64 = 0.2;
/// Longest wait for outstanding replies after the last send.
const DRAIN: Duration = Duration::from_secs(60);
const STOP_GRACE: Duration = Duration::from_secs(20);

/// Which step of a serving run an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Fills caches and the admission EWMA; not measured.
    Warmup,
    /// Under capacity: latency is measured here.
    Latency,
    /// Over capacity: goodput is measured here.
    Overload,
}

/// Share of the run each step takes, and whether it runs at the overload
/// rate.
const STEPS: [(Step, f64, bool); 3] = [
    (Step::Warmup, 0.10, false),
    (Step::Latency, 0.70, false),
    (Step::Overload, 0.20, true),
];

fn step_seed(seed: u64, step: usize) -> u64 {
    (seed ^ 0xC0FF_EE00_D15E_A5E5).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ step as u64
}

/// The seeded request schedule: warm-up, latency and overload steps back to
/// back, each a Poisson plan from `cf_load::build_plan`. A pure function of
/// its arguments.
fn plan(spec: &Workload, g: &impl GraphView, seed: u64, seconds: f64) -> (Vec<Event>, Vec<Step>) {
    let mut events = Vec::new();
    let mut steps = Vec::new();
    let mut offset_us = 0u64;
    for (k, &(step, share, over)) in STEPS.iter().enumerate() {
        let rate = if over { spec.overload } else { spec.rate };
        let cfg = PlanConfig {
            arrivals: ArrivalProcess::Poisson,
            rate_hz: rate,
            requests: ((seconds * share * rate).round() as usize).max(1),
            warmup: 0,
            zipf_s: spec.zipf_s,
            reload_every: 0,
            mutate_every: spec.mutate_every,
            seed: step_seed(seed, k),
        };
        let part = build_plan(g.num_entities(), g.num_attributes(), &cfg);
        let last = part.last().map_or(0, |e| e.at_us);
        for e in part {
            events.push(Event {
                at_us: e.at_us + offset_us,
                ..e
            });
            steps.push(step);
        }
        // The next step starts one mean gap after this one's last arrival,
        // so no send is scheduled before an earlier step's last send.
        offset_us += last + (1e6 / rate) as u64;
    }
    (events, steps)
}

/// Upserts derived from replayed queries for workloads whose plan has none:
/// one after every 10th query, on its entity, like `build_plan`'s
/// `mutate_every` rule.
fn probe_mutations(g: &impl GraphView, queries: &[Event], seed: u64) -> Vec<Mutation> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0F0B_5E00);
    queries
        .iter()
        .enumerate()
        .filter(|(k, _)| (k + 1) % 10 == 0)
        .filter_map(|(_, e)| match e.kind {
            EventKind::Query { entity, .. } => Some(Mutation::UpsertNumeric {
                entity: g.entity_name(entity).to_string(),
                attr: g
                    .attribute_name(AttributeId(rng.gen_range(0..g.num_attributes() as u32)))
                    .to_string(),
                value: rng.gen_range(0..1_000_000u64) as f64 / 1000.0,
            }),
            _ => None,
        })
        .collect()
}

/// The mutations a rendered line carries (empty for other lines).
fn mutations_of(line: &str) -> Vec<Mutation> {
    match parse_command(line) {
        Ok(Command::Mutate { muts, .. }) => muts,
        _ => Vec::new(),
    }
}

/// `ok` and `micros` of a reply line.
fn reply_fields(line: &str) -> (bool, Option<f64>) {
    match parse_json(line) {
        Ok(Json::Obj(o)) => (
            o.get("ok") == Some(&Json::Bool(true)),
            match o.get("micros") {
                Some(Json::Num(n)) => Some(*n),
                _ => None,
            },
        ),
        _ => (false, None),
    }
}

fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5).expect("non-empty")
}

/// Prints a percentile with its sample count, or why it is not reported.
fn print_pct(name: &str, sorted_ms: &[f64], p: f64, unit: &str) {
    if supported(sorted_ms.len(), p) {
        let v = percentile(sorted_ms, p).expect("supported implies non-empty");
        print_metric(name, v, unit, Some(sorted_ms.len()));
    } else {
        println!(
            "  {name:<26} not reported (n={} < {:.0})",
            sorted_ms.len(),
            10.0 / (1.0 - p)
        );
    }
}

/// What the traced replay re-runs: the first [`REPLAY_QUERIES`] queries
/// among the plan events `keep` selects (request ids = event indices) with
/// the mutations interleaved among them, or, when there are none, derived
/// probe upserts run after them.
fn replay_input<'a>(
    fixture: &'a Fixture,
    served_index: bool,
    g: &KnowledgeGraph,
    plan: &[Event],
    lines: &[String],
    keep: impl Fn(usize) -> bool,
    seed: u64,
) -> ReplayInput<'a> {
    let mut events = Vec::new();
    let mut queries = Vec::new();
    for (i, e) in plan.iter().enumerate() {
        if !keep(i) || queries.len() == REPLAY_QUERIES {
            continue;
        }
        match e.kind {
            EventKind::Query { .. } => {
                events.push(ReplayEvent::Query(i as u64, lines[i].clone()));
                queries.push(*e);
            }
            _ => events.extend(mutations_of(&lines[i]).into_iter().map(ReplayEvent::Mutate)),
        }
    }
    let interleaved = events.iter().any(|e| matches!(e, ReplayEvent::Mutate(_)));
    ReplayInput {
        fixture,
        served_index,
        events,
        probe_mutations: if interleaved {
            Vec::new()
        } else {
            probe_mutations(g, &queries, seed)
        },
        seed,
    }
}

/// Runs one serving workload.
pub fn run(spec: &Workload, ctx: &Ctx) -> Result<Outcome, String> {
    let name = spec.name;
    let dir = ctx.out.join(format!("fixture-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let graph = fixtures::graph();
    let (fx, fixture_s) = fixtures::build(
        &dir,
        &graph,
        fixtures::config(spec.flags),
        spec.index || ctx.trace,
    )?;
    println!(
        "  fixtures: {} entities, store + checkpoint{} in {fixture_s:.2} s (not part of setup_s)",
        graph.num_entities(),
        if fx.index.is_some() { " + index" } else { "" },
    );
    let (plan, steps) = plan(spec, &graph, ctx.seed, ctx.seconds);
    let events = render_events(&plan, &graph, None, None);
    let lines: Vec<String> = events.iter().map(|e| e.line.clone()).collect();
    let cfkg = &ctx.cfkg;
    let journal_of = |i: usize| dir.join(format!("journal-{i}.cfj1"));
    let args = |i: usize| -> Vec<String> {
        let mut a: Vec<String> = [
            "--store",
            &fx.store.display().to_string(),
            "--ckpt",
            &fx.ckpt.display().to_string(),
            "--shards",
            &SHARDS.to_string(),
            "--threads",
            &crate::THREADS.to_string(),
            "--port",
            "0",
            "--seed",
            &MODEL_SEED.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        a.extend(fixtures::flag_args(spec.flags));
        if spec.index {
            let ix = fx.index.as_ref().expect("index built");
            a.extend(["--index".to_string(), ix.display().to_string()]);
        }
        if spec.journal {
            a.extend(["--journal".to_string(), journal_of(i).display().to_string()]);
        }
        a
    };

    // Cold starts: some before the load, then the server under load, the
    // rest after the checks. A vCPU of the shared host flips between a fast
    // and a 1.5-2x slower state every few seconds; spreading the starts over
    // the run keeps one such spell from setting the median.
    let cold_start = |i: usize| -> Result<f64, String> {
        let (server, t) = Server::spawn(cfkg, &args(i))?;
        server.stop(STOP_GRACE)?;
        Ok(t)
    };
    let mut setup = Vec::with_capacity(2 * COLD_STARTS + 1);
    for i in 0..COLD_STARTS {
        setup.push(cold_start(i)?);
    }
    let (server, t) = Server::spawn(cfkg, &args(COLD_STARTS))?;
    setup.push(t);

    let lat: Vec<usize> = (0..plan.len())
        .filter(|&i| steps[i] == Step::Latency)
        .collect();
    let (lat_first, lat_last) = (lat[0], lat[lat.len() - 1]);
    let mut snaps = Vec::new();
    let epoch = Instant::now() + Duration::from_millis(50);
    let run = load::drive(
        &server.addr,
        &events,
        CONNS,
        epoch,
        DRAIN,
        &[plan[lat_first].at_us, plan[lat_last].at_us],
        |_| snaps.push(server.metrics()),
    )?;
    let probes = if spec.journal {
        oracle::probe_queries(&plan, &steps, PROBES)
    } else {
        Vec::new()
    };
    let probe_replies = oracle::send_probes(&server.addr, &graph, &probes)?;
    let rss = server.peak_rss_mb()?;
    let end = server.metrics()?;
    server.stop(STOP_GRACE)?;
    let (before, after) = match (snaps.remove(0), snaps.remove(0)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return Err(e),
    };

    let verdict = if spec.journal {
        let acked: Result<Vec<Mutation>, String> = events
            .iter()
            .zip(&run.replies)
            .filter(|(e, _)| e.is_mutate)
            .map(|(e, r)| match r {
                Some(r) if r.line.contains("\"ok\":true") => Ok(mutations_of(&e.line)),
                _ => Err(format!("mutation {} was not acknowledged", e.line)),
            })
            .collect::<Result<Vec<Vec<Mutation>>, String>>()
            .map(|v| v.concat());
        acked.and_then(|acked| {
            oracle::check_mutations(
                &fx,
                &journal_of(COLD_STARTS),
                &acked,
                &probes,
                &probe_replies,
            )
        })
    } else {
        oracle::check_predictions(&fx, &plan, &steps, &run, ORACLE_QUERIES)
    };
    for i in 0..COLD_STARTS {
        setup.push(cold_start(COLD_STARTS + 1 + i)?);
    }

    let mut out = Outcome::new();
    let s = summarize_serve(&plan, &steps, &events, &run);
    out.attempted = (events.len() + probes.len()) as u64;
    out.failed = s.failed
        + probe_replies
            .iter()
            .filter(|r| !r.contains("\"ok\":true"))
            .count() as u64;

    let setup_text: Vec<String> = setup.iter().map(|t| format!("{t:.3}")).collect();
    println!("  end to end (cold starts {} s):", setup_text.join(" "));
    out.e2e.push("setup_s", median(&setup), Some(setup.len()));
    let p50 = percentile(&s.latency_ms, 0.5).ok_or("no answered latency-step query")?;
    out.e2e.push("p50_ms", p50, Some(s.latency_ms.len()));
    out.e2e.push("peak_rss_mb", rss, None);
    print_pct("p99_ms", &s.latency_ms, 0.99, "ms");
    print_metric(
        "fail_frac",
        out.failed as f64 / out.attempted as f64,
        "ratio",
        Some(out.attempted as usize),
    );
    if spec.mutate_every > 0 {
        print_pct("mutate_p50_ms", &s.ack_ms, 0.5, "ms");
        print_pct("mutate_p99_ms", &s.ack_ms, 0.99, "ms");
    }
    println!("  from the untraced run:");
    out.layer
        .push("capacity_qps", s.goodput, Some(s.overload_ok));
    print_pct("wire.p50_ms", &s.wire_ms, 0.5, "ms");
    print_pct("wire.p99_ms", &s.wire_ms, 0.99, "ms");
    let micros_p50_ms = percentile(&s.micros_ms, 0.5).unwrap_or(f64::NAN);
    print_metric(
        "engine.micros_p50_ms",
        micros_p50_ms,
        "ms",
        Some(s.micros_ms.len()),
    );
    let d = |k: &str| after.get(k).unwrap_or(&0.0) - before.get(k).unwrap_or(&0.0);
    let (hits, misses) = (
        d("cf_serve_cache_hits_total"),
        d("cf_serve_cache_misses_total"),
    );
    print_metric(
        "cache.hit_frac",
        hits / (hits + misses).max(1.0),
        "ratio",
        Some((hits + misses) as usize),
    );
    let ewma: Vec<f64> = after
        .iter()
        .filter(|(k, _)| k.starts_with("cf_serve_shard_ewma_service_us"))
        .map(|(_, v)| *v)
        .collect();
    print_metric(
        "engine.ewma_service_us",
        ewma.iter().sum::<f64>() / ewma.len().max(1) as f64,
        "us",
        None,
    );
    // The server exports only an integer mean over its whole life.
    print_metric(
        "engine.batch_mean",
        *end.get("cf_serve_batch_size_mean").unwrap_or(&0.0),
        "count",
        None,
    );
    print_metric("load.late_p99_ms", s.late_p99_ms, "ms", Some(s.late_n));
    if s.late_p99_ms > MAX_LATE_SHARE * p50 {
        println!(
            "  INVALID: the generator's p99 lateness exceeds {:.0}% of p50_ms",
            MAX_LATE_SHARE * 100.0
        );
    }
    if s.goodput > 0.9 * spec.overload {
        println!("  UNSATURATED: the overload step's goodput is within 10% of its offered rate");
    }
    if s.backlog {
        println!("  BACKLOG: the latency step's last-third p50 exceeds twice its first-third p50");
    }

    match verdict {
        Ok(msg) => println!("  correct: {msg}"),
        Err(msg) => {
            println!("  INCORRECT: {msg}");
            out.correct = false;
        }
    }

    if ctx.trace {
        println!("  per layer (traced replay):");
        let input = replay_input(
            &fx,
            spec.index,
            &graph,
            &plan,
            &lines,
            |i| steps[i] == Step::Latency,
            ctx.seed,
        );
        let service_us = trace::replay(
            &input,
            &mut out.layer,
            &ctx.out.join(format!("trace_{name}.json")),
        )?;
        print_metric(
            "engine.unattributed_us",
            micros_p50_ms * 1e3 - service_us,
            "us",
            None,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// The numbers a serving run yields.
struct ServeSummary {
    latency_ms: Vec<f64>,
    wire_ms: Vec<f64>,
    micros_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    goodput: f64,
    overload_ok: usize,
    failed: u64,
    late_p99_ms: f64,
    late_n: usize,
    backlog: bool,
}

fn summarize_serve(
    plan: &[Event],
    steps: &[Step],
    events: &[cf_load::PreparedEvent],
    run: &LoadRun,
) -> ServeSummary {
    let mut lat_in_order = Vec::new();
    let (mut wire, mut micros, mut ack) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0u64;
    let mut over_arrivals = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let Some(r) = &run.replies[i] else {
            failed += 1;
            continue;
        };
        let (ok, server_us) = reply_fields(&r.line);
        if !ok {
            failed += 1;
            continue;
        }
        let ms = r.arrived_us.saturating_sub(plan[i].at_us) as f64 / 1e3;
        match (steps[i], e.is_mutate) {
            (Step::Latency, true) => ack.push(ms),
            (Step::Latency, false) => {
                lat_in_order.push(ms);
                if let Some(us) = server_us {
                    micros.push(us / 1e3);
                    wire.push(ms - us / 1e3);
                }
            }
            (Step::Overload, false) => over_arrivals.push(r.arrived_us),
            _ => {}
        }
    }
    // Goodput while saturated: answered queries that arrived inside the
    // overload step's schedule window. The drain after the last send is
    // left out; replies then are paced by the client's delayed ACKs, not
    // by the server.
    let over: Vec<u64> = (0..plan.len())
        .filter(|&i| steps[i] == Step::Overload)
        .map(|i| plan[i].at_us)
        .collect();
    let (from, to) = (over[0], over[over.len() - 1]);
    let over_ok = over_arrivals
        .iter()
        .filter(|&&t| t >= from && t <= to)
        .count();
    let third = lat_in_order.len() / 3;
    let backlog = third > 0
        && median(&lat_in_order[lat_in_order.len() - third..])
            > 2.0 * median(&lat_in_order[..third]);
    let span_s = to.saturating_sub(from) as f64 / 1e6;
    // Lateness matters where latency is measured; in the overload step the
    // server saturates both cores and the generator's wake-ups slip.
    let late = sorted(
        (0..events.len())
            .filter(|&i| steps[i] == Step::Latency)
            .filter_map(|i| run.late_us[i].map(|u| u as f64 / 1e3))
            .collect(),
    );
    ServeSummary {
        latency_ms: sorted(lat_in_order),
        wire_ms: sorted(wire),
        micros_ms: sorted(micros),
        ack_ms: sorted(ack),
        goodput: if span_s > 0.0 {
            over_ok as f64 / span_s
        } else {
            0.0
        },
        overload_ok: over_ok,
        failed,
        late_p99_ms: percentile(&late, 0.99).unwrap_or(0.0),
        late_n: late.len(),
        backlog,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_kg::synth::{yago15k_sim, SynthScale};

    fn lines_for(seed: u64) -> Vec<String> {
        let g = yago15k_sim(SynthScale::small(), &mut StdRng::seed_from_u64(3));
        let spec = WORKLOADS.iter().find(|w| w.name == "serve_mutate").unwrap();
        let (plan, steps) = plan(spec, &g, seed, 2.0);
        assert_eq!(plan.len(), steps.len());
        assert!(
            plan.windows(2).all(|w| w[0].at_us <= w[1].at_us),
            "schedule order"
        );
        let mut bytes: Vec<String> = render_events(&plan, &g, None, None)
            .into_iter()
            .map(|e| format!("{}@{}", e.line, e.at_us))
            .collect();
        let queries: Vec<Event> = plan
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Query { .. }))
            .copied()
            .collect();
        bytes.extend(
            probe_mutations(&g, &queries, seed)
                .iter()
                .map(|m| format!("{m:?}")),
        );
        bytes
    }

    #[test]
    fn plan_bytes_are_determined_by_the_seed() {
        let a = lines_for(11);
        assert_eq!(a, lines_for(11), "same seed, same bytes");
        assert_ne!(a, lines_for(12), "another seed, other bytes");
        assert!(a.iter().any(|l| l.contains("\"mutate\"")));
    }
}
