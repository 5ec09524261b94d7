//! The server under test: a `cfkg serve` child process, its start-up time,
//! its `/metrics` counters and its peak resident memory.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `cfkg serve`.
pub struct Server {
    child: Child,
    // Held open until exit: the server prints a last line at shutdown, and a
    // closed pipe would turn that print into a failure.
    stdout: BufReader<ChildStdout>,
    /// `host:port` the server listens on.
    pub addr: String,
}

impl Server {
    /// Spawns `cfkg serve <args>` and waits for its `listening on` line.
    /// Returns the server and the seconds from spawn to that line.
    pub fn spawn(cfkg: &Path, args: &[String]) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(cfkg)
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cfkg.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                let status = child.wait().map_err(|e| e.to_string())?;
                return Err(format!("cfkg serve exited before listening ({status})"));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                let setup_s = t0.elapsed().as_secs_f64();
                let addr = addr.to_string();
                return Ok((
                    Server {
                        child,
                        stdout,
                        addr,
                    },
                    setup_s,
                ));
            }
        }
    }

    /// Scrapes `GET /metrics` into `name → value` (labels kept in the name).
    pub fn metrics(&self) -> Result<BTreeMap<String, f64>, String> {
        let err = |e: std::io::Error| format!("metrics scrape: {e}");
        let mut s = TcpStream::connect(&self.addr).map_err(err)?;
        s.write_all(format!("{}\n", cf_serve::METRICS_COMMAND).as_bytes())
            .map_err(err)?;
        let mut out = BTreeMap::new();
        for line in BufReader::new(s).lines() {
            let line = line.map_err(err)?;
            if line.trim().is_empty() {
                break;
            }
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    out.insert(name.to_string(), v);
                }
            }
        }
        Ok(out)
    }

    /// Peak resident set size of the server process (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Graceful stop: closes the server's stdin and waits for it to drain
    /// and exit; kills it if it has not exited within `grace`.
    pub fn stop(mut self, grace: Duration) -> Result<(), String> {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => break,
                Some(status) => return Err(format!("cfkg serve exited with {status}")),
                None if Instant::now() >= deadline => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("cfkg serve did not stop; killed".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached only on error paths (`stop` consumes the server and
        // reaps the child itself): never leave a server running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
