//! Correctness gates: served answers must be bitwise what the model answers
//! in-process, and every acknowledged mutation must be durable.

use crate::fixtures::{served_model, Fixture, MODEL_SEED};
use crate::load::LoadRun;
use crate::workloads::Step;
use cf_chains::Query;
use cf_kg::{recover_file, ChainIndexStore, GraphView, MappedChainIndex, Mutation};
use cf_load::{render_events, Event, EventKind};
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use cf_serve::protocol::ok_response;
use cf_serve::{query_rng_seed, Engine, EngineConfig};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;

/// A reply line without its timing-dependent `micros` field.
fn canonical(line: &str) -> String {
    cf_load::canonical_dump(&[Some(line.to_string())])
}

/// Re-answers the first `want` distinct answered queries of the latency
/// step in-process — `gather_chains` with the query's `query_rng_seed`,
/// then `predict_batch_with_chains` — and requires every served `value`,
/// `fallback`, `retrieved` and `chains` field to be byte-identical.
pub fn check_predictions(
    fx: &Fixture,
    plan: &[Event],
    steps: &[Step],
    run: &LoadRun,
    want: usize,
) -> Result<String, String> {
    let (visible, _, model) = served_model(&fx.store, Some(&fx.ckpt), &fx.cfg)?;
    let mut seen = HashSet::new();
    let mut checked = 0;
    for (i, e) in plan.iter().enumerate() {
        let EventKind::Query { entity, attr } = e.kind else {
            continue;
        };
        if steps[i] != Step::Latency || checked == want || !seen.insert((entity, attr)) {
            continue;
        }
        let Some(reply) = &run.replies[i] else {
            return Err(format!("request {i} was never answered"));
        };
        let q = Query { entity, attr };
        let mut rng = StdRng::seed_from_u64(query_rng_seed(MODEL_SEED, q));
        let (toc, retrieved) = model.gather_chains(&visible, q, &mut rng);
        let d = &model.predict_batch_with_chains(&[(q, &toc.chains, retrieved)])[0];
        let expect = ok_response(
            Some(i as u64),
            d.value,
            d.used_fallback,
            d.retrieved,
            d.chains.len(),
            0,
        );
        if canonical(&reply.line) != canonical(&expect) {
            return Err(format!(
                "request {i} differs from the in-process model\n    served {}\n    oracle {}",
                reply.line, expect
            ));
        }
        checked += 1;
    }
    if checked < want {
        return Err(format!(
            "only {checked} distinct queries to check, want {want}"
        ));
    }
    Ok(format!(
        "{checked} distinct served answers bitwise equal to the in-process model"
    ))
}

/// Post-load probe queries: the queries each mutation rode on, latest
/// first (their neighborhoods were just written), then other latency-step
/// queries, `n` distinct in all.
pub fn probe_queries(plan: &[Event], steps: &[Step], n: usize) -> Vec<Query> {
    let mut seen = HashSet::new();
    let after_mutation = (1..plan.len())
        .rev()
        .filter(|&i| matches!(plan[i].kind, EventKind::Mutate { .. }))
        .map(|i| i - 1);
    let latency = (0..plan.len()).filter(|&i| steps[i] == Step::Latency);
    after_mutation
        .chain(latency)
        .filter_map(|i| match plan[i].kind {
            EventKind::Query { entity, attr } => Some(Query { entity, attr }),
            _ => None,
        })
        .filter(|q| seen.insert(*q))
        .take(n)
        .collect()
}

/// Sends the probes on a fresh connection, all at once, and returns the
/// reply lines (probe `k` carries id `k`). Sent one at a time, each reply
/// would wait out the client's delayed ACK: the server writes a reply and
/// its newline separately and does not set `TCP_NODELAY`.
pub fn send_probes(
    addr: &str,
    g: &impl GraphView,
    probes: &[Query],
) -> Result<Vec<String>, String> {
    if probes.is_empty() {
        return Ok(Vec::new());
    }
    let plan: Vec<Event> = probes
        .iter()
        .map(|q| Event {
            at_us: 0,
            kind: EventKind::Query {
                entity: q.entity,
                attr: q.attr,
            },
            measured: false,
        })
        .collect();
    let err = |e: std::io::Error| format!("probe: {e}");
    let mut stream = TcpStream::connect(addr).map_err(err)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(err)?);
    let batch: String = render_events(&plan, g, None, None)
        .iter()
        .map(|e| format!("{}\n", e.line))
        .collect();
    stream.write_all(batch.as_bytes()).map_err(err)?;
    let mut replies = Vec::with_capacity(probes.len());
    for _ in probes {
        let mut line = String::new();
        reader.read_line(&mut line).map_err(err)?;
        replies.push(line.trim_end().to_string());
    }
    Ok(replies)
}

/// The write-path gates: the journal holds exactly the acknowledged
/// mutations, and after replaying it in order an in-process `Engine` (one
/// shard, the same chain index) answers every probe byte-identically to
/// the server.
pub fn check_mutations(
    fx: &Fixture,
    journal: &Path,
    acked: &[Mutation],
    probes: &[Query],
    replies: &[String],
) -> Result<String, String> {
    if replies.len() != probes.len() {
        return Err(format!(
            "{} probes sent, {} answered",
            probes.len(),
            replies.len()
        ));
    }
    let rec = recover_file(journal).map_err(|e| format!("journal: {e}"))?;
    if let Some(d) = &rec.dropped {
        return Err(format!("journal has a torn tail at record {}", d.record));
    }
    let key = |m: &Mutation| format!("{m:?}");
    let mut journaled: Vec<String> = rec.mutations.iter().map(key).collect();
    let mut expected: Vec<String> = acked.iter().map(key).collect();
    journaled.sort();
    expected.sort();
    if journaled != expected {
        return Err(format!(
            "journal holds {} mutations, {} were acknowledged, and they differ",
            journaled.len(),
            expected.len()
        ));
    }

    let (visible, _, model) = served_model(&fx.store, Some(&fx.ckpt), &fx.cfg)?;
    let ix_path = fx
        .index
        .as_ref()
        .ok_or("serve_mutate needs its chain index")?;
    let index = MappedChainIndex::open(ix_path).map_err(|e| format!("index: {e}"))?;
    let engine = Engine::new_with_index(
        model,
        visible,
        Some(ChainIndexStore::from(index)),
        EngineConfig {
            shards: 1,
            seed: MODEL_SEED,
            ..EngineConfig::default()
        },
    );
    // Replay a copy: attaching opens the journal for appends.
    let copy = journal.with_extension("oracle.cfj1");
    std::fs::copy(journal, &copy).map_err(|e| format!("journal copy: {e}"))?;
    let replayed = engine
        .attach_journal(&copy, None)
        .map_err(|e| format!("journal replay: {e}"))?;
    for (k, (q, served)) in probes.iter().zip(replies).enumerate() {
        let sp = engine
            .predict(*q)
            .map_err(|e| format!("in-process engine: {e}"))?;
        let expect = ok_response(
            Some(k as u64),
            sp.detail.value,
            sp.detail.used_fallback,
            sp.detail.retrieved,
            sp.detail.chains.len(),
            0,
        );
        if canonical(served) != canonical(&expect) {
            return Err(format!(
                "probe {k} differs from the in-process engine\n    served {served}\n    oracle {expect}"
            ));
        }
    }
    engine.shutdown();
    Ok(format!(
        "{} acknowledged mutations journaled; {} probes equal an engine that replayed them",
        replayed,
        probes.len()
    ))
}
