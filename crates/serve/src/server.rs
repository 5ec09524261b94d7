//! The TCP front-end: line-delimited JSON over a thread-per-connection
//! accept loop, a `GET /metrics` text command, `{"reload": "path"}` /
//! `{"mutate": …}` admin requests (hot model swap, live-graph mutation),
//! and graceful shutdown on SIGTERM/SIGINT or stdin close.

use crate::engine::{Engine, ServeError};
use crate::protocol;
use cf_chains::Query;
use cf_kg::GraphView;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The non-JSON command returning the metrics text block. The response is
/// the metric lines followed by one empty line (so clients on a persistent
/// connection know where it ends).
pub const METRICS_COMMAND: &str = "GET /metrics";

/// The longest request line the server accepts, newline excluded. A longer
/// line is answered with a parse error and skipped through its newline.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Set by the signal handler; polled by the accept loop.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // A relaxed atomic store is async-signal-safe.
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// True once a signal installed by [`install_signals`] has fired. Lets
/// other long-running commands (e.g. `cfkg train`) poll the same handler
/// for cooperative interruption.
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// Installs SIGTERM/SIGINT handlers that request a graceful shutdown.
///
/// Declares libc's `signal` directly instead of pulling in a crate: the
/// binary already links the C runtime, and registering a handler that only
/// flips an atomic is the one async-signal-safe thing worth doing here.
pub fn install_signals() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

/// Spawns a watcher that flips `flag` when stdin reaches EOF, so a parent
/// process can stop the server by closing the pipe (the second graceful
/// shutdown path next to SIGTERM).
pub fn shutdown_on_stdin_close(flag: Arc<AtomicBool>) {
    std::thread::spawn(move || {
        let mut buf = [0u8; 256];
        let mut stdin = std::io::stdin();
        loop {
            match stdin.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        flag.store(true, Ordering::SeqCst);
    });
}

/// Accept loop: serves connections until `shutdown` (or a signal from
/// [`install_signals`]) is raised, then returns so the caller can drop the
/// engine — which drains the queue — and exit 0.
pub fn run(
    engine: Arc<Engine>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    while !shutdown.load(Ordering::SeqCst) && !SIGNALLED.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let engine = Arc::clone(&engine);
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || {
                    let _ = handle_connection(&engine, stream, &shutdown);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn handle_connection(
    engine: &Engine,
    stream: TcpStream,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    // Every reply leaves in one write, and with Nagle's algorithm off it
    // leaves at once instead of waiting on the client's delayed ACK of the
    // previous segment (DESIGN.md §9.4).
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = Vec::new();
    let mut reply = String::new();
    loop {
        let request = match read_capped_line(&mut reader, &mut line)? {
            Line::Eof => return Ok(()),
            Line::TooLong => Err(format!("parse: line longer than {MAX_LINE_BYTES} bytes")),
            Line::Fits => std::str::from_utf8(&line)
                .map(str::trim)
                .map_err(|e| format!("parse: invalid utf-8 at byte {}", e.valid_up_to())),
        };
        if request == Ok("") {
            continue;
        }
        if shutdown.load(Ordering::SeqCst) || SIGNALLED.load(Ordering::SeqCst) {
            return Ok(());
        }
        reply.clear();
        match request {
            // The block ends in a newline; the terminator below adds the
            // blank line that closes it.
            Ok(METRICS_COMMAND) => reply.push_str(&engine.metrics_text()),
            Ok(text) => reply.push_str(&answer(engine, text)),
            Err(e) => {
                engine.metrics().errors.fetch_add(1, Ordering::Relaxed);
                reply.push_str(&protocol::err_response(None, &e));
            }
        }
        reply.push('\n');
        writer.write_all(reply.as_bytes())?;
    }
}

/// What [`read_capped_line`] found.
enum Line {
    /// The peer closed the connection with no partial line pending.
    Eof,
    /// A line of at most [`MAX_LINE_BYTES`] bytes, now in the buffer.
    Fits,
    /// A longer line, read through its newline and discarded.
    TooLong,
}

/// Reads one line into `buf`, without its `\n`. A line over
/// [`MAX_LINE_BYTES`] is consumed a bounded chunk at a time and dropped, so
/// a peer that never sends a newline cannot grow the buffer.
fn read_capped_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Line> {
    buf.clear();
    let cap = MAX_LINE_BYTES as u64 + 1;
    let n = reader.by_ref().take(cap).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(Line::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        return Ok(Line::Fits);
    }
    if n <= MAX_LINE_BYTES {
        // The stream's last line, ended by EOF rather than `\n`.
        return Ok(Line::Fits);
    }
    while buf.last() != Some(&b'\n') {
        buf.clear();
        if reader.by_ref().take(cap).read_until(b'\n', buf)? == 0 {
            break;
        }
    }
    buf.clear();
    Ok(Line::TooLong)
}

/// Handles one request line end to end, always producing a response line.
fn answer(engine: &Engine, line: &str) -> String {
    let req = match protocol::parse_command(line) {
        Ok(protocol::Command::Predict(r)) => r,
        Ok(protocol::Command::Reload { ckpt, id }) => {
            // Validation runs here on the connection thread — never on a
            // worker — so in-flight predictions keep flowing while the new
            // checkpoint is checked. Rejections keep the old model live.
            return match engine.reload(&ckpt) {
                Ok(()) => protocol::reload_ok_response(id),
                Err(e) => protocol::err_response(id, &format!("reload: {e}")),
            };
        }
        Ok(protocol::Command::Mutate { muts, id }) => {
            // Also on the connection thread: the engine journals, applies,
            // and invalidates under its own locks; workers only pause for
            // the brief write-lock window, never for journal fsync of a
            // *rejected* batch (validation precedes the append).
            return match engine.mutate(&muts) {
                Ok(out) => {
                    // The batch is applied and durable, so it is acked; a
                    // failed compaction is the operator's to hear about.
                    if let Some(e) = &out.compaction_error {
                        eprintln!("mutate: {e}");
                    }
                    protocol::mutate_ok_response(id, out.applied, out.changed)
                }
                Err(e) => protocol::err_response(id, &format!("mutate: {e}")),
            };
        }
        Err(e) => {
            engine.metrics().errors.fetch_add(1, Ordering::Relaxed);
            return protocol::err_response(None, &format!("parse: {e}"));
        }
    };
    // Resolve names under the live-graph read guard, then drop it before
    // submitting: holding it across the reply wait could park the workers'
    // own read acquisition behind a queued mutate write lock while the
    // worker is what answers us — a deadlock.
    let (entity, attr) = {
        let graph = engine.graph();
        let Some(entity) = graph.entity_by_name(&req.entity) else {
            engine.metrics().errors.fetch_add(1, Ordering::Relaxed);
            return protocol::err_response(req.id, &format!("unknown entity {:?}", req.entity));
        };
        let Some(attr) = graph.attribute_by_name(&req.attr) else {
            engine.metrics().errors.fetch_add(1, Ordering::Relaxed);
            return protocol::err_response(req.id, &format!("unknown attribute {:?}", req.attr));
        };
        (entity, attr)
    };
    let deadline = req.deadline_ms.map(Duration::from_millis);
    let reply = engine
        .submit(Query { entity, attr }, deadline)
        .and_then(|rx| rx.recv().map_err(|_| ServeError::ShuttingDown)?);
    match reply {
        Ok(sp) => protocol::ok_response(
            req.id,
            sp.detail.value,
            sp.detail.used_fallback,
            sp.detail.retrieved,
            sp.detail.chains.len(),
            sp.micros,
        ),
        Err(e) => protocol::err_response(req.id, &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use cf_check::TempDir;
    use cf_kg::synth::{yago15k_sim, SynthScale};
    use cf_kg::Split;
    use cf_rand::rngs::StdRng;
    use cf_rand::SeedableRng;
    use chainsformer::{ChainsFormer, ChainsFormerConfig};

    fn start(cfg: EngineConfig) -> (std::net::SocketAddr, Arc<AtomicBool>, String, Vec<String>) {
        let mut rng = StdRng::seed_from_u64(17);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let split = Split::paper_811(&g, &mut rng);
        let visible = split.visible_graph(&g);
        let model = ChainsFormer::new(&visible, &split.train, ChainsFormerConfig::tiny(), &mut rng);
        let entity = visible.entity_name(split.test[0].entity).to_string();
        let attrs: Vec<String> = (0..visible.num_attributes())
            .map(|a| {
                visible
                    .attribute_name(cf_kg::AttributeId(a as u32))
                    .to_string()
            })
            .collect();
        let engine = Arc::new(Engine::new(model, visible, cfg));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        std::thread::spawn(move || run(engine, listener, flag).expect("server"));
        (addr, shutdown, entity, attrs)
    }

    /// Sends `line` and its newline in one write, as a client should.
    fn send(stream: &mut TcpStream, line: &str) {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
    }

    fn read_reply(stream: &TcpStream) -> String {
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut out = String::new();
        reader.read_line(&mut out).expect("read");
        out.trim().to_string()
    }

    fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
        send(stream, line);
        read_reply(stream)
    }

    fn connect(addr: std::net::SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        stream
    }

    #[test]
    fn every_reply_arrives_in_one_read() {
        let (addr, shutdown, entity, attrs) = start(EngineConfig::default());
        let mut stream = connect(addr);
        let query = format!(r#"{{"entity":"{entity}","attr":"{}","id":1}}"#, attrs[0]);
        let mut buf = vec![0u8; 1 << 18];
        // A reply written in two pieces shows up as a read that stops short
        // of its terminator: Nagle's algorithm holds the second piece until
        // the client ACKs the first, and the client delays that ACK.
        for round in 0..50 {
            for (req, end) in [
                (query.as_str(), "\n"),
                ("not json", "\n"),
                (METRICS_COMMAND, "\n\n"),
            ] {
                send(&mut stream, req);
                let n = stream.read(&mut buf).expect("read");
                let got = String::from_utf8_lossy(&buf[..n]);
                assert!(
                    got.ends_with(end),
                    "round {round}: the reply to {req:?} arrived in pieces: {got:?}"
                );
            }
        }
        shutdown.store(true, Ordering::SeqCst);
    }

    #[test]
    fn invalid_utf8_answers_a_parse_error_and_keeps_serving() {
        let (addr, shutdown, entity, attrs) = start(EngineConfig::default());
        let mut stream = connect(addr);
        stream.write_all(b"\xff\xfe\n").expect("write");
        let resp = read_reply(&stream);
        assert!(
            resp.starts_with(r#"{"id":null,"ok":false,"error":"parse: invalid utf-8"#),
            "{resp}"
        );
        let resp = roundtrip(
            &mut stream,
            &format!(r#"{{"entity":"{entity}","attr":"{}","id":2}}"#, attrs[0]),
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        shutdown.store(true, Ordering::SeqCst);
    }

    #[test]
    fn lines_over_the_cap_answer_a_parse_error_and_keep_serving() {
        let (addr, shutdown, entity, attrs) = start(EngineConfig::default());
        let mut stream = connect(addr);
        let query = format!(r#"{{"entity":"{entity}","attr":"{}","id":3}}"#, attrs[0]);
        // A line of exactly the cap is served...
        let padded = query.clone() + &" ".repeat(MAX_LINE_BYTES - query.len());
        let resp = roundtrip(&mut stream, &padded);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        // ...one byte more is skipped through its newline with an error.
        send(&mut stream, &"x".repeat(MAX_LINE_BYTES + 1));
        let resp = read_reply(&stream);
        assert_eq!(
            resp,
            format!(
                r#"{{"id":null,"ok":false,"error":"parse: line longer than {MAX_LINE_BYTES} bytes"}}"#
            )
        );
        let resp = roundtrip(&mut stream, &query);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"id\":3"), "{resp}");
        shutdown.store(true, Ordering::SeqCst);
    }

    #[test]
    fn serves_queries_metrics_and_errors_over_tcp() {
        let (addr, shutdown, entity, attrs) = start(EngineConfig::default());
        let mut stream = connect(addr);

        // 1. A valid query answers ok:true with a finite value.
        let req = format!(r#"{{"entity":"{entity}","attr":"{}","id":1}}"#, attrs[0]);
        let resp = roundtrip(&mut stream, &req);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"id\":1"), "{resp}");

        // 2. A malformed line answers a structured error, not a hangup.
        let resp = roundtrip(&mut stream, "this is not json");
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(resp.contains("parse:"), "{resp}");

        // 3. An unknown entity is a structured error echoing the id.
        let resp = roundtrip(
            &mut stream,
            &format!(r#"{{"entity":"nobody","attr":"{}","id":9}}"#, attrs[0]),
        );
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(resp.contains("\"id\":9"), "{resp}");
        assert!(resp.contains("unknown entity"), "{resp}");

        // 4. Metrics scrape: text block terminated by an empty line.
        send(&mut stream, METRICS_COMMAND);
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut lines = Vec::new();
        loop {
            let mut l = String::new();
            reader.read_line(&mut l).expect("read");
            if l.trim().is_empty() {
                break;
            }
            lines.push(l.trim().to_string());
        }
        let text = lines.join("\n");
        assert!(text.contains("cf_serve_ok_total 1"), "{text}");
        assert!(text.contains("cf_serve_errors_total 2"), "{text}");
        assert!(text.contains("cf_serve_latency_us_p50"), "{text}");

        shutdown.store(true, Ordering::SeqCst);
    }

    #[test]
    fn reload_admin_request_swaps_and_rejects_over_tcp() {
        let dir = TempDir::new("srv_reload");
        let mut rng = StdRng::seed_from_u64(17);
        let g = yago15k_sim(SynthScale::small(), &mut rng);
        let split = Split::paper_811(&g, &mut rng);
        let visible = split.visible_graph(&g);
        let model = ChainsFormer::new(&visible, &split.train, ChainsFormerConfig::tiny(), &mut rng);
        let entity = visible.entity_name(split.test[0].entity).to_string();
        let attr = visible.attribute_name(cf_kg::AttributeId(0)).to_string();
        let good = dir.join("good.ckpt");
        model.save_params_to(&good).unwrap();
        let bad = dir.join("bad.ckpt");
        std::fs::write(&bad, b"CFT2 this is not a checkpoint").unwrap();

        let engine = Arc::new(Engine::new(model, visible, EngineConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        std::thread::spawn(move || run(engine, listener, flag).expect("server"));

        let mut stream = connect(addr);

        // A valid checkpoint swaps in and acknowledges with the echoed id.
        let resp = roundtrip(
            &mut stream,
            &format!(r#"{{"reload":"{}","id":11}}"#, good.display()),
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"reloaded\":true"), "{resp}");
        assert!(resp.contains("\"id\":11"), "{resp}");

        // A corrupt checkpoint is rejected with a structured error and the
        // server keeps answering predictions with the old weights.
        let resp = roundtrip(
            &mut stream,
            &format!(r#"{{"reload":"{}","id":12}}"#, bad.display()),
        );
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(resp.contains("reload:"), "{resp}");
        assert!(resp.contains("\"id\":12"), "{resp}");
        let resp = roundtrip(
            &mut stream,
            &format!(r#"{{"entity":"{entity}","attr":"{attr}","id":13}}"#),
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");

        // Both outcomes are visible on the metrics scrape.
        send(&mut stream, METRICS_COMMAND);
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut text = String::new();
        loop {
            let mut l = String::new();
            reader.read_line(&mut l).expect("read");
            if l.trim().is_empty() {
                break;
            }
            text.push_str(&l);
        }
        assert!(text.contains("cf_serve_reloads_ok_total 1"), "{text}");
        assert!(text.contains("cf_serve_reloads_rejected_total 1"), "{text}");

        shutdown.store(true, Ordering::SeqCst);
    }

    #[test]
    fn mutate_admin_request_applies_and_rejects_over_tcp() {
        let (addr, shutdown, entity, attrs) = start(EngineConfig::default());
        let mut stream = connect(addr);

        // Cache a prediction, then mutate its entity's neighborhood.
        let req = format!(r#"{{"entity":"{entity}","attr":"{}","id":1}}"#, attrs[0]);
        let before = roundtrip(&mut stream, &req);
        assert!(before.contains("\"ok\":true"), "{before}");

        let resp = roundtrip(
            &mut stream,
            &format!(
                r#"{{"mutate":{{"op":"upsert","entity":"{entity}","attr":"{}","value":42.5}},"id":21}}"#,
                attrs[0]
            ),
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"mutated\":true"), "{resp}");
        assert!(resp.contains("\"applied\":1"), "{resp}");
        assert!(resp.contains("\"changed\":1"), "{resp}");
        assert!(resp.contains("\"id\":21"), "{resp}");

        // Re-applying the same mutation is an idempotent no-op.
        let resp = roundtrip(
            &mut stream,
            &format!(
                r#"{{"mutate":{{"op":"upsert","entity":"{entity}","attr":"{}","value":42.5}},"id":22}}"#,
                attrs[0]
            ),
        );
        assert!(resp.contains("\"changed\":0"), "{resp}");

        // The prediction now sees the mutated graph and still answers.
        let after = roundtrip(&mut stream, &req);
        assert!(after.contains("\"ok\":true"), "{after}");

        // A malformed body gets the typed per-field error line…
        let resp = roundtrip(
            &mut stream,
            r#"{"mutate":{"op":"upsert","entity":"e","attr":"a","value":"x"},"id":23}"#,
        );
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(
            resp.contains("field \\\"mutate.value\\\" must be a finite number"),
            "{resp}"
        );
        // …and an out-of-vocabulary attribute a structured rejection.
        let resp = roundtrip(
            &mut stream,
            &format!(
                r#"{{"mutate":{{"op":"upsert","entity":"{entity}","attr":"no_such_attr","value":1.0}},"id":24}}"#
            ),
        );
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(resp.contains("not in the serving vocabulary"), "{resp}");

        send(&mut stream, METRICS_COMMAND);
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut text = String::new();
        loop {
            let mut l = String::new();
            reader.read_line(&mut l).expect("read");
            if l.trim().is_empty() {
                break;
            }
            text.push_str(&l);
        }
        assert!(text.contains("cf_serve_mutations_ok_total 2"), "{text}");
        assert!(
            text.contains("cf_serve_mutations_rejected_total 1"),
            "{text}"
        );

        shutdown.store(true, Ordering::SeqCst);
    }

    #[test]
    fn zero_queue_cap_server_sheds_with_overloaded() {
        let (addr, shutdown, entity, attrs) = start(EngineConfig {
            queue_cap: 0,
            ..EngineConfig::default()
        });
        let mut stream = connect(addr);
        let req = format!(r#"{{"entity":"{entity}","attr":"{}","id":5}}"#, attrs[0]);
        let resp = roundtrip(&mut stream, &req);
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(resp.contains("overloaded"), "{resp}");
        assert!(resp.contains("\"id\":5"), "{resp}");
        shutdown.store(true, Ordering::SeqCst);
    }
}
