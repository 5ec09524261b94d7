//! The open-loop load generator: one thread per connection, each writing
//! its lines at their scheduled instants and, between sends, blocking in a
//! read whose timeout runs out at the next send.
//!
//! `cf_load::run_tcp` is not used because it spawns three threads per
//! connection; on a 2-core host those threads compete with the server for
//! the cores being measured.
//!
//! The read timeout is a `ppoll` with a nanosecond timeout. `SO_RCVTIMEO`
//! (what `set_read_timeout` sets) expires on jiffy boundaries, which would
//! make sends late by up to a scheduler tick.

use cf_load::PreparedEvent;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

/// One reply: when it arrived (µs after the run's epoch) and its line.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Arrival, microseconds after the run epoch.
    pub arrived_us: u64,
    /// The reply line without its newline.
    pub line: String,
}

/// Everything a run observed.
#[derive(Debug, Default)]
pub struct LoadRun {
    /// The reply to each event, by event index (`None`: never answered).
    pub replies: Vec<Option<Reply>>,
    /// How late each event's send left, microseconds past its scheduled
    /// instant, by event index (`None`: never sent).
    pub late_us: Vec<Option<u64>>,
}

/// Pairs replies with requests on one connection. The server answers each
/// connection strictly in order, so the k-th reply line belongs to the
/// k-th line sent; the id the server echoes must agree.
#[derive(Debug, Default)]
pub struct Conn {
    pending: VecDeque<usize>,
    partial: Vec<u8>,
}

impl Conn {
    /// Records that the line of event `id` was written.
    pub fn sent(&mut self, id: usize) {
        self.pending.push_back(id);
    }

    /// Requests still waiting for their reply.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Feeds received bytes, appending `(event id, line)` for every line
    /// they complete. A reply nobody asked for, or one echoing another
    /// request's id, is a protocol violation.
    pub fn feed(&mut self, bytes: &[u8], out: &mut Vec<(usize, String)>) -> Result<(), String> {
        self.partial.extend_from_slice(bytes);
        let mut start = 0;
        while let Some(nl) = self.partial[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.partial[start..start + nl]).into_owned();
            start += nl + 1;
            let id = self
                .pending
                .pop_front()
                .ok_or_else(|| format!("reply without a request: {line}"))?;
            if reply_id(&line) != Some(id) {
                return Err(format!("reply to request {id} carries another id: {line}"));
            }
            out.push((id, line));
        }
        self.partial.drain(..start);
        Ok(())
    }
}

/// The id a server reply echoes (`{"id":N,…`).
fn reply_id(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

#[repr(C)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: std::os::raw::c_short,
    revents: std::os::raw::c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::os::raw::c_int;
}

/// Blocks until `fd` is readable (or hung up) or `timeout` passes.
fn wait_readable(fd: RawFd, timeout: Duration) -> std::io::Result<bool> {
    const POLLIN: std::os::raw::c_short = 0x001;
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as std::os::raw::c_long,
        tv_nsec: timeout.subsec_nanos() as std::os::raw::c_long,
    };
    // SAFETY: `pfd` and `ts` are live, properly laid-out locals for the
    // whole call; nfds is 1, matching the single pollfd; a null sigmask
    // leaves the signal mask unchanged.
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        return match e.kind() {
            std::io::ErrorKind::Interrupted => Ok(false),
            _ => Err(e),
        };
    }
    Ok(rc > 0)
}

/// Drives `addr` with `events` over `conns` connections (event `i` goes on
/// connection `i % conns`, so each connection keeps schedule order).
/// Event times count from `epoch`. While the load runs, the calling thread
/// calls `at_checkpoint(k)` at each offset `checkpoints_us[k]` (used to
/// scrape server counters at step boundaries). After the last send each
/// connection waits up to `drain` for its outstanding replies.
pub fn drive(
    addr: &str,
    events: &[PreparedEvent],
    conns: usize,
    epoch: Instant,
    drain: Duration,
    checkpoints_us: &[u64],
    mut at_checkpoint: impl FnMut(usize),
) -> Result<LoadRun, String> {
    let lines: Vec<String> = events.iter().map(|e| format!("{}\n", e.line)).collect();
    let mut streams = Vec::with_capacity(conns);
    for _ in 0..conns {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        streams.push(s);
    }
    let per_conn = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let lines = &lines;
                scope.spawn(move || {
                    let mine = (c..events.len()).step_by(conns);
                    connection_loop(stream, mine, events, lines, epoch, drain)
                })
            })
            .collect();
        for (k, &at) in checkpoints_us.iter().enumerate() {
            cf_load::sleep_until(epoch + Duration::from_micros(at));
            at_checkpoint(k);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut run = LoadRun {
        replies: vec![None; events.len()],
        late_us: vec![None; events.len()],
    };
    for r in per_conn {
        let (got, late) = r?;
        for (id, us) in late {
            run.late_us[id] = Some(us);
        }
        for (id, arrived_us, line) in got {
            run.replies[id] = Some(Reply { arrived_us, line });
        }
    }
    Ok(run)
}

type ConnResult = Result<(Vec<(usize, u64, String)>, Vec<(usize, u64)>), String>;

fn connection_loop(
    mut stream: TcpStream,
    mine: impl Iterator<Item = usize>,
    events: &[PreparedEvent],
    lines: &[String],
    epoch: Instant,
    drain: Duration,
) -> ConnResult {
    let fd = stream.as_raw_fd();
    let mut conn = Conn::default();
    let mut buf = vec![0u8; 64 * 1024];
    let mut lines_in = Vec::new();
    let mut got = Vec::new();
    let mut late = Vec::new();
    let io = |e: std::io::Error| e.to_string();
    // Reads what is available; false on EOF.
    let mut read_some = |stream: &mut TcpStream,
                         conn: &mut Conn,
                         got: &mut Vec<(usize, u64, String)>|
     -> Result<bool, String> {
        let n = stream.read(&mut buf).map_err(io)?;
        let arrived_us = epoch.elapsed().as_micros() as u64;
        conn.feed(&buf[..n], &mut lines_in)?;
        got.extend(lines_in.drain(..).map(|(id, l)| (id, arrived_us, l)));
        Ok(n > 0)
    };
    for i in mine {
        let due = epoch + Duration::from_micros(events[i].at_us);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if wait_readable(fd, due - now).map_err(io)?
                && !read_some(&mut stream, &mut conn, &mut got)?
            {
                return Err("server closed the connection".into());
            }
        }
        late.push((i, due.elapsed().as_micros() as u64));
        stream.write_all(lines[i].as_bytes()).map_err(io)?;
        conn.sent(i);
    }
    let deadline = Instant::now() + drain;
    while conn.outstanding() > 0 {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if wait_readable(fd, deadline - now).map_err(io)?
            && !read_some(&mut stream, &mut conn, &mut got)?
        {
            break;
        }
    }
    Ok((got, late))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_pair_fifo_per_connection_across_split_reads() {
        let mut c = Conn::default();
        for id in [4, 6, 8] {
            c.sent(id);
        }
        let mut out = Vec::new();
        c.feed(b"{\"id\":4,\"ok\":true}\n{\"id\":6,\"ok\"", &mut out)
            .unwrap();
        assert_eq!(out, [(4, "{\"id\":4,\"ok\":true}".to_string())]);
        assert_eq!(c.outstanding(), 2);
        c.feed(
            b":false,\"error\":\"x\"}\n{\"id\":8,\"ok\":true}\n",
            &mut out,
        )
        .unwrap();
        let ids: Vec<usize> = out.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [4, 6, 8]);
        assert_eq!(out[1].1, "{\"id\":6,\"ok\":false,\"error\":\"x\"}");
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn out_of_order_or_unsolicited_replies_are_errors() {
        let mut c = Conn::default();
        c.sent(1);
        c.sent(3);
        let mut out = Vec::new();
        let err = c.feed(b"{\"id\":3,\"ok\":true}\n", &mut out).unwrap_err();
        assert!(err.contains("request 1"), "{err}");
        let mut c = Conn::default();
        assert!(c.feed(b"{\"id\":0,\"ok\":true}\n", &mut out).is_err());
    }

    #[test]
    fn reply_ids_parse_from_the_line_prefix() {
        assert_eq!(reply_id("{\"id\":17,\"ok\":true}"), Some(17));
        assert_eq!(reply_id("{\"id\":null,\"ok\":false}"), None);
        assert_eq!(reply_id("garbage"), None);
    }

    #[test]
    fn wait_readable_times_out_then_sees_data() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        let t = Instant::now();
        assert!(!wait_readable(b.as_raw_fd(), Duration::from_millis(20)).unwrap());
        assert!(t.elapsed() >= Duration::from_millis(20));
        a.write_all(b"x\n").unwrap();
        assert!(wait_readable(b.as_raw_fd(), Duration::from_secs(5)).unwrap());
    }
}
