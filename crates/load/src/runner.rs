//! Plan execution: render events to wire lines, drive a server over N
//! TCP connections at the scheduled instants, fold replies into a report.
//!
//! Request ids are the event's index in the rendered plan, so replies can
//! be matched, sorted, and diffed regardless of which connection carried
//! them. The server answers each connection in order (one line in, one
//! line out), which lets the reader thread pair the k-th reply with the
//! k-th request sent on that connection without ids — the ids are for the
//! cross-connection merge and the canonical dump.

use crate::plan::{Event, EventKind};
use cf_kg::GraphView;
use cf_serve::protocol::{escape, parse_json, Json};
use cf_serve::Histogram;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One plan event rendered to its wire line. The line carries the event's
/// id (its index in the rendered vec); `at_us` keeps the schedule.
#[derive(Clone, Debug)]
pub struct PreparedEvent {
    /// Scheduled send instant, microseconds from run start.
    pub at_us: u64,
    /// The protocol line (no trailing newline).
    pub line: String,
    /// Whether this event feeds the latency histogram and qps.
    pub measured: bool,
    /// True for reload admin requests.
    pub is_reload: bool,
    /// True for mutate admin requests.
    pub is_mutate: bool,
}

/// Renders a plan against a graph: entity/attribute ids become the names
/// the wire protocol speaks, reload events become admin lines pointing at
/// `reload_path`. Reload events are dropped when no path is given (a plan
/// with a reload mix but nothing to reload just sends its queries).
pub fn render_events(
    plan: &[Event],
    graph: &impl GraphView,
    deadline_ms: Option<u64>,
    reload_path: Option<&str>,
) -> Vec<PreparedEvent> {
    let mut out = Vec::with_capacity(plan.len());
    for e in plan {
        let id = out.len();
        match e.kind {
            EventKind::Query { entity, attr } => {
                let mut line = format!(
                    "{{\"entity\":\"{}\",\"attr\":\"{}\",\"id\":{id}",
                    escape(graph.entity_name(entity)),
                    escape(graph.attribute_name(attr)),
                );
                if let Some(d) = deadline_ms {
                    line.push_str(&format!(",\"deadline_ms\":{d}"));
                }
                line.push('}');
                out.push(PreparedEvent {
                    at_us: e.at_us,
                    line,
                    measured: e.measured,
                    is_reload: false,
                    is_mutate: false,
                });
            }
            EventKind::Reload => {
                let Some(path) = reload_path else { continue };
                out.push(PreparedEvent {
                    at_us: e.at_us,
                    line: format!("{{\"reload\":\"{}\",\"id\":{id}}}", escape(path)),
                    measured: false,
                    is_reload: true,
                    is_mutate: false,
                });
            }
            EventKind::Mutate {
                entity,
                attr,
                value_milli,
            } => {
                out.push(PreparedEvent {
                    at_us: e.at_us,
                    line: format!(
                        "{{\"mutate\":{{\"op\":\"upsert\",\"entity\":\"{}\",\"attr\":\"{}\",\"value\":{}}},\"id\":{id}}}",
                        escape(graph.entity_name(entity)),
                        escape(graph.attribute_name(attr)),
                        value_milli as f64 / 1000.0,
                    ),
                    measured: false,
                    is_reload: false,
                    is_mutate: true,
                });
            }
        }
    }
    out
}

/// What came back from a run.
#[derive(Debug)]
pub struct LoadReport {
    /// Lines sent (queries + reloads).
    pub sent: u64,
    /// Successful predictions.
    pub ok: u64,
    /// Requests shed with `overloaded`.
    pub shed: u64,
    /// Requests refused or dropped past their deadline.
    pub deadline_missed: u64,
    /// Other error responses (parse, unknown entity, …).
    pub errors: u64,
    /// Reload admin requests accepted.
    pub reloads_ok: u64,
    /// Reload admin requests rejected.
    pub reloads_rejected: u64,
    /// Mutate admin requests applied.
    pub mutations_ok: u64,
    /// Mutate admin requests rejected.
    pub mutations_rejected: u64,
    /// Measured-window queries that were answered (any outcome).
    pub measured: u64,
    /// Seconds from the first measured request's scheduled instant to the
    /// last measured reply's arrival.
    pub elapsed_s: f64,
    /// Goodput: measured successful predictions per elapsed second. Shed
    /// and deadline-missed replies don't count — under overload qps holds
    /// at capacity instead of crediting rejections.
    pub qps: f64,
    /// Latency of measured queries, microseconds from *scheduled* send
    /// instant to reply arrival. Open-loop: a request delayed behind an
    /// earlier one still pays that delay here, which is exactly the
    /// queueing a closed-loop client hides.
    pub latency: Histogram,
}

impl LoadReport {
    /// Human-readable one-block summary.
    pub fn render(&self) -> String {
        format!(
            "sent {} · ok {} · shed {} · deadline_missed {} · errors {} · reloads {}+{} · mutations {}+{}\n\
             measured {} in {:.3} s → {:.1} qps\n\
             latency µs (scheduled→reply): p50 {} · p95 {} · p99 {} · max {}",
            self.sent,
            self.ok,
            self.shed,
            self.deadline_missed,
            self.errors,
            self.reloads_ok,
            self.reloads_rejected,
            self.mutations_ok,
            self.mutations_rejected,
            self.measured,
            self.elapsed_s,
            self.qps,
            self.latency.quantile(0.50),
            self.latency.quantile(0.95),
            self.latency.quantile(0.99),
            self.latency.max(),
        )
    }
}

/// A run's report plus every reply, indexed by event id (`None` when the
/// connection closed before answering).
#[derive(Debug)]
pub struct RunOutcome {
    /// Aggregated counters and latency.
    pub report: LoadReport,
    /// Raw reply lines by event id.
    pub responses: Vec<Option<String>>,
}

/// Drives `addr` with the rendered plan over `conns` connections.
///
/// Events are assigned round-robin by index, so each connection's share
/// preserves the schedule order. Per connection, a sender thread writes
/// each line at its scheduled instant — never waiting for replies (the
/// open-loop property; the kernel's socket buffer absorbs bursts) — while
/// a reader thread timestamps replies as they land, pairing the k-th reply
/// with the connection's k-th line.
pub fn run_tcp(addr: &str, events: &[PreparedEvent], conns: usize) -> std::io::Result<RunOutcome> {
    let conns = conns.clamp(1, events.len().max(1));
    let mut streams = Vec::with_capacity(conns);
    for _ in 0..conns {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        streams.push(s);
    }
    // A short lead so every sender sees the epoch in its future.
    let start = Instant::now() + Duration::from_millis(5);

    let mut join = Vec::with_capacity(conns);
    for (c, mut stream) in streams.into_iter().enumerate() {
        let assigned: Vec<(usize, u64, String)> = events
            .iter()
            .enumerate()
            .filter(|(i, _)| i % conns == c)
            .map(|(i, e)| (i, e.at_us, format!("{}\n", e.line)))
            .collect();
        // Each line's id and scheduled instant, in send order.
        let sent: Vec<(usize, u64)> = assigned.iter().map(|(id, at, _)| (*id, *at)).collect();
        let reader_stream = stream.try_clone()?;
        let sender = std::thread::spawn(move || -> std::io::Result<()> {
            for (_, at_us, line) in &assigned {
                sleep_until(start + Duration::from_micros(*at_us));
                stream.write_all(line.as_bytes())?;
            }
            Ok(())
        });
        let reader = std::thread::spawn(move || -> Vec<(usize, u64, String)> {
            let mut got = Vec::with_capacity(sent.len());
            let mut lines = BufReader::new(reader_stream).lines();
            for &(id, at_us) in &sent {
                let Some(Ok(line)) = lines.next() else { break };
                let arrived_us = start.elapsed().as_micros() as u64;
                got.push((id, arrived_us.saturating_sub(at_us), line));
            }
            got
        });
        join.push((sender, reader));
    }

    let mut responses: Vec<Option<String>> = vec![None; events.len()];
    let mut latencies: Vec<Option<u64>> = vec![None; events.len()];
    for (sender, reader) in join {
        sender.join().expect("load sender panicked")?;
        for (id, lat_us, line) in reader.join().expect("load reader panicked") {
            latencies[id] = Some(lat_us);
            responses[id] = Some(line);
        }
    }
    let report = fold_report(events, &responses, &latencies);
    Ok(RunOutcome { report, responses })
}

/// Sleeps until `deadline`: coarse OS sleep while far away, then a short
/// spin for the last stretch so the send lands close to its schedule.
/// Public so in-process harnesses can pace an engine the same way the TCP
/// runner paces a socket.
pub fn sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        let Some(remaining) = deadline.checked_duration_since(now) else {
            return;
        };
        if remaining > Duration::from_micros(500) {
            std::thread::sleep(remaining - Duration::from_micros(300));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Folds raw replies into the aggregate report. Public so an in-process
/// harness (tests, benches) can reuse the same classification as the TCP
/// runner after collecting replies itself.
pub fn fold_report(
    events: &[PreparedEvent],
    responses: &[Option<String>],
    latencies_us: &[Option<u64>],
) -> LoadReport {
    let latency = Histogram::new();
    let mut r = LoadReport {
        sent: events.len() as u64,
        ok: 0,
        shed: 0,
        deadline_missed: 0,
        errors: 0,
        reloads_ok: 0,
        reloads_rejected: 0,
        mutations_ok: 0,
        mutations_rejected: 0,
        measured: 0,
        elapsed_s: 0.0,
        qps: 0.0,
        latency,
    };
    let mut first_measured_at: Option<u64> = None;
    let mut last_measured_done: u64 = 0;
    let mut measured_ok: u64 = 0;
    for (i, (event, response)) in events.iter().zip(responses).enumerate() {
        let Some(line) = response else { continue };
        let ok = matches!(
            parse_json(line),
            Ok(Json::Obj(ref o)) if o.get("ok") == Some(&Json::Bool(true))
        );
        if event.is_reload {
            if ok {
                r.reloads_ok += 1;
            } else {
                r.reloads_rejected += 1;
            }
            continue;
        }
        if event.is_mutate {
            if ok {
                r.mutations_ok += 1;
            } else {
                r.mutations_rejected += 1;
            }
            continue;
        }
        if ok {
            r.ok += 1;
        } else if line.contains("\"error\":\"overloaded\"") {
            r.shed += 1;
        } else if line.contains("\"error\":\"deadline exceeded\"") {
            r.deadline_missed += 1;
        } else {
            r.errors += 1;
        }
        if event.measured {
            r.measured += 1;
            let lat = latencies_us[i].unwrap_or(0);
            r.latency.record(lat);
            if ok {
                measured_ok += 1;
            }
            first_measured_at = Some(first_measured_at.unwrap_or(event.at_us).min(event.at_us));
            last_measured_done = last_measured_done.max(event.at_us + lat);
        }
    }
    if let Some(first) = first_measured_at {
        r.elapsed_s = (last_measured_done.saturating_sub(first)) as f64 / 1e6;
        if r.elapsed_s > 0.0 {
            r.qps = measured_ok as f64 / r.elapsed_s;
        }
    }
    r
}

/// The determinism artifact: all replies in event-id order with the
/// timing-dependent `micros` field stripped, one per line. Two servers
/// that agree bitwise on every answer produce identical dumps — this is
/// what CI diffs across shard counts.
pub fn canonical_dump(responses: &[Option<String>]) -> String {
    let mut out = String::new();
    for line in responses.iter().flatten() {
        out.push_str(&strip_micros(line));
        out.push('\n');
    }
    out
}

/// Removes the trailing `,"micros":N` field (present on every success
/// response, absent on errors) without reserializing.
fn strip_micros(line: &str) -> String {
    match line.rfind(",\"micros\":") {
        Some(p) if line.ends_with('}') => format!("{}}}", &line[..p]),
        _ => line.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{build_plan, PlanConfig};
    use cf_kg::synth::{yago15k_sim, SynthScale};
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;

    #[test]
    fn rendered_lines_parse_as_protocol_commands() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let cfg = PlanConfig {
            requests: 40,
            warmup: 10,
            reload_every: 16,
            mutate_every: 12,
            ..PlanConfig::default()
        };
        let plan = build_plan(
            GraphView::num_entities(&g),
            GraphView::num_attributes(&g),
            &cfg,
        );
        let events = render_events(&plan, &g, Some(250), Some("m.ckpt"));
        assert!(events.iter().any(|e| e.is_reload));
        assert!(events.iter().any(|e| e.is_mutate));
        for (i, e) in events.iter().enumerate() {
            let cmd = cf_serve::protocol::parse_command(&e.line)
                .unwrap_or_else(|err| panic!("unparseable line {:?}: {err}", e.line));
            match cmd {
                cf_serve::protocol::Command::Predict(r) => {
                    assert_eq!(r.id, Some(i as u64));
                    assert_eq!(r.deadline_ms, Some(250));
                    assert!(!e.is_reload && !e.is_mutate);
                }
                cf_serve::protocol::Command::Reload { ckpt, id } => {
                    assert_eq!(ckpt, "m.ckpt");
                    assert_eq!(id, Some(i as u64));
                    assert!(e.is_reload);
                }
                cf_serve::protocol::Command::Mutate { muts, id } => {
                    assert_eq!(id, Some(i as u64));
                    assert_eq!(muts.len(), 1);
                    assert!(matches!(
                        &muts[0],
                        cf_kg::Mutation::UpsertNumeric { value, .. } if value.is_finite()
                    ));
                    assert!(e.is_mutate);
                }
            }
        }
        // Without a reload path the reload events vanish and ids stay
        // dense over the remaining queries.
        let no_reload = render_events(&plan, &g, None, None);
        assert!(no_reload.iter().all(|e| !e.is_reload));
        assert!(no_reload.iter().all(|e| !e.line.contains("deadline_ms")));
    }

    #[test]
    fn canonical_dump_strips_micros_and_keeps_errors() {
        let responses = vec![
            Some(r#"{"id":0,"ok":true,"value":1.5,"fallback":false,"retrieved":3,"chains":2,"micros":842}"#.to_string()),
            None,
            Some(r#"{"id":2,"ok":false,"error":"overloaded"}"#.to_string()),
        ];
        let dump = canonical_dump(&responses);
        assert_eq!(
            dump,
            "{\"id\":0,\"ok\":true,\"value\":1.5,\"fallback\":false,\"retrieved\":3,\"chains\":2}\n\
             {\"id\":2,\"ok\":false,\"error\":\"overloaded\"}\n"
        );
    }

    #[test]
    fn fold_report_classifies_outcomes_and_measures_the_window() {
        let ev = |at_us: u64, measured: bool, is_reload: bool, is_mutate: bool| PreparedEvent {
            at_us,
            line: String::new(),
            measured,
            is_reload,
            is_mutate,
        };
        let events = vec![
            ev(0, false, false, false),  // warmup
            ev(100, true, false, false), // ok
            ev(200, true, false, false), // shed
            ev(300, true, false, false), // deadline
            ev(300, false, true, false), // reload rejected
            ev(400, true, false, false), // parse error
            ev(400, false, false, true), // mutate applied
            ev(450, false, false, true), // mutate rejected
        ];
        let responses = vec![
            Some(r#"{"id":0,"ok":true,"value":1.0,"fallback":false,"retrieved":1,"chains":1,"micros":10}"#.to_string()),
            Some(r#"{"id":1,"ok":true,"value":1.0,"fallback":false,"retrieved":1,"chains":1,"micros":10}"#.to_string()),
            Some(r#"{"id":2,"ok":false,"error":"overloaded"}"#.to_string()),
            Some(r#"{"id":3,"ok":false,"error":"deadline exceeded"}"#.to_string()),
            Some(r#"{"id":4,"ok":false,"error":"reload: corrupt"}"#.to_string()),
            Some(r#"{"id":5,"ok":false,"error":"parse: bad"}"#.to_string()),
            Some(r#"{"id":6,"ok":true,"mutated":true,"applied":1,"changed":1}"#.to_string()),
            Some(r#"{"id":7,"ok":false,"error":"mutate: attr not in vocabulary"}"#.to_string()),
        ];
        let latencies = vec![
            Some(50),
            Some(900),
            Some(5),
            Some(5),
            Some(5),
            Some(5),
            Some(5),
            Some(5),
        ];
        let r = fold_report(&events, &responses, &latencies);
        assert_eq!(
            (r.sent, r.ok, r.shed, r.deadline_missed, r.errors),
            (8, 2, 1, 1, 1)
        );
        assert_eq!((r.reloads_ok, r.reloads_rejected), (0, 1));
        assert_eq!((r.mutations_ok, r.mutations_rejected), (1, 1));
        assert_eq!(r.measured, 4);
        assert_eq!(r.latency.count(), 4);
        // Window: first measured at 100 µs, last done at 100+900 = 1000 µs.
        assert!((r.elapsed_s - 0.0009).abs() < 1e-9, "{}", r.elapsed_s);
        // Goodput counts the single measured ok.
        assert!((r.qps - 1.0 / 0.0009).abs() < 1.0, "{}", r.qps);
        let text = r.render();
        assert!(text.contains("shed 1"), "{text}");
    }
}
