//! The open-loop read generator: one thread, nonblocking Unix-socket
//! connections, `ppoll` for both send deadlines and response arrival.
//!
//! Requests leave when they are due, whatever the server is doing; a slow
//! server makes responses late, never requests fewer. Each request is
//! timed from its due time to the arrival of its response line, so a stall
//! also charges the requests queued behind it. The generator's own
//! lateness (actual send time minus due time) is recorded separately.

use std::io::{ErrorKind, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use crate::stats::{percentile, sorted, Rng, Zipf};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};

/// How long a saturation run waits for its last outstanding responses.
const DRAIN_SATURATED: Duration = Duration::from_secs(10);

/// One scheduled request: `key` is an index into the entity key list.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub id: u64,
    pub key: usize,
    /// Due time, nanoseconds after the clock origin.
    pub due_ns: u64,
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A prediction line came back.
    Ok(f64),
    /// An error line came back.
    ErrorLine(String),
    /// No response before the drain deadline.
    Missing,
    /// The connection failed before the response arrived.
    ConnError,
}

#[derive(Debug, Clone)]
pub struct Record {
    pub plan: Planned,
    pub sent_ns: u64,
    pub done_ns: Option<u64>,
    pub outcome: Outcome,
}

impl Record {
    /// Due-to-response latency in µs; failures are infinite, so they miss
    /// every latency limit.
    pub fn latency_us(&self) -> f64 {
        match (&self.outcome, self.done_ns) {
            (Outcome::Ok(_), Some(done)) => done.saturating_sub(self.plan.due_ns) as f64 / 1e3,
            _ => f64::INFINITY,
        }
    }

    pub fn failed(&self) -> bool {
        !matches!(self.outcome, Outcome::Ok(_))
    }

    pub fn lateness_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.plan.due_ns) as f64 / 1e3
    }
}

/// Poisson arrivals at `rate` per second over `[start_ns, start_ns +
/// secs)`, keys drawn from `zipf`, ids from `next_id`.
pub fn poisson_plan(
    rate: f64,
    start_ns: u64,
    secs: f64,
    zipf: &Zipf,
    rng: &mut Rng,
    next_id: &mut u64,
) -> Vec<Planned> {
    let mut out = Vec::with_capacity((rate * secs * 1.05) as usize + 16);
    let mut t = 0.0;
    loop {
        t += rng.exp_gap(1.0 / rate);
        if t >= secs {
            break;
        }
        out.push(Planned {
            id: *next_id,
            key: zipf.sample(rng),
            due_ns: start_ns + (t * 1e9) as u64,
        });
        *next_id += 1;
    }
    out
}

struct Conn {
    stream: UnixStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    alive: bool,
}

/// The client side of the socket front-end: a fixed set of connections
/// and the clock every due time is measured against.
pub struct Client {
    conns: Vec<Conn>,
    origin: Instant,
    /// Lines the client could not attribute to a request (an unknown or
    /// repeated id, or an unparsable line).
    pub stray_lines: u64,
}

impl Client {
    pub fn connect(path: &str, connections: usize, origin: Instant) -> std::io::Result<Self> {
        let mut conns = Vec::with_capacity(connections);
        for _ in 0..connections {
            let stream = UnixStream::connect(path)?;
            stream.set_nonblocking(true)?;
            conns.push(Conn {
                stream,
                out: Vec::new(),
                out_pos: 0,
                inbuf: Vec::new(),
                alive: true,
            });
        }
        Ok(Client {
            conns,
            origin,
            stray_lines: 0,
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Send `plan` (sorted by due time) on schedule, round-robin over the
    /// connections, and collect responses until every request is answered
    /// or `drain` has passed since the last due time. `tick` runs at most
    /// once per millisecond of the loop (gauge sampling).
    pub fn run(
        &mut self,
        plan: &[Planned],
        keys: &[i64],
        drain: Duration,
        tick: &mut dyn FnMut(),
    ) -> Vec<Record> {
        sys::tighten_timer_slack();
        let base_id = plan.first().map_or(0, |p| p.id);
        let mut recs: Vec<Record> = plan
            .iter()
            .map(|&p| Record {
                plan: p,
                sent_ns: 0,
                done_ns: None,
                outcome: Outcome::Missing,
            })
            .collect();
        // Which connection each request went out on, for failure attribution.
        let mut conn_of = vec![0usize; plan.len()];
        let mut next = 0usize;
        let mut answered = 0usize;
        let deadline_ns = plan.last().map_or(0, |p| p.due_ns) + drain.as_nanos() as u64;
        let mut last_tick = 0u64;
        let mut line = String::new();
        let mut fds: Vec<PollFd> = self
            .conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        loop {
            // Responses first, so their timestamps are not delayed by sends.
            let now = self.now_ns();
            for ci in 0..self.conns.len() {
                answered += self.read_available(ci, now, base_id, &mut recs);
            }
            // Everything due goes out now.
            let now = self.now_ns();
            while next < plan.len() && plan[next].due_ns <= now {
                let ci = next % self.conns.len();
                let p = plan[next];
                recs[next].sent_ns = now;
                conn_of[next] = ci;
                if self.conns[ci].alive {
                    line.clear();
                    use std::fmt::Write as _;
                    let _ = writeln!(line, "{{\"id\": {}, \"entity\": {}}}", p.id, keys[p.key]);
                    self.conns[ci].out.extend_from_slice(line.as_bytes());
                } else {
                    recs[next].outcome = Outcome::ConnError;
                    answered += 1;
                }
                next += 1;
            }
            for ci in 0..self.conns.len() {
                self.flush(ci);
            }
            if now >= last_tick + 1_000_000 {
                tick();
                last_tick = now;
            }
            if next == plan.len() && answered == plan.len() {
                break;
            }
            let now = self.now_ns();
            if next == plan.len() && now >= deadline_ns {
                break;
            }
            if self.conns.iter().all(|c| !c.alive) && next == plan.len() {
                break;
            }
            let wake = if next < plan.len() {
                plan[next].due_ns
            } else {
                deadline_ns
            };
            for (f, c) in fds.iter_mut().zip(&self.conns) {
                f.events = if !c.alive {
                    0
                } else if c.out_pos < c.out.len() {
                    POLLIN | POLLOUT
                } else {
                    POLLIN
                };
            }
            // Cap the wait so gauges keep being sampled under a stall.
            let wait = wake.saturating_sub(now).min(2_000_000);
            if wait > 0 {
                sys::poll(&mut fds, Duration::from_nanos(wait));
            }
        }
        // Requests on a connection that died before answering them failed
        // on that connection; the rest still unanswered are missing.
        for (r, &ci) in recs.iter_mut().zip(&conn_of) {
            if r.outcome == Outcome::Missing && !self.conns[ci].alive {
                r.outcome = Outcome::ConnError;
            }
        }
        recs
    }

    /// Closed loop at saturation: keep `window` requests outstanding on
    /// every connection for `secs`, refilling a connection as its responses
    /// arrive, then wait for the stragglers. Returns every request and how
    /// many were answered within the `secs` window.
    pub fn saturate(
        &mut self,
        window: usize,
        secs: f64,
        keys: &[i64],
        next_key: &mut dyn FnMut() -> usize,
        next_id: &mut u64,
    ) -> (Vec<Record>, u64) {
        let base_id = *next_id;
        let mut recs: Vec<Record> = Vec::new();
        let start = self.now_ns();
        let end = start + (secs * 1e9) as u64;
        let deadline = end + DRAIN_SATURATED.as_nanos() as u64;
        let mut line = String::new();
        let mut send = |client: &mut Client, recs: &mut Vec<Record>, ci: usize, n: usize| {
            let now = client.now_ns();
            for _ in 0..n {
                let plan = Planned {
                    id: *next_id,
                    key: next_key(),
                    due_ns: now,
                };
                *next_id += 1;
                let alive = client.conns[ci].alive;
                recs.push(Record {
                    plan,
                    sent_ns: now,
                    done_ns: None,
                    outcome: if alive {
                        Outcome::Missing
                    } else {
                        Outcome::ConnError
                    },
                });
                if alive {
                    line.clear();
                    use std::fmt::Write as _;
                    let _ = writeln!(
                        line,
                        "{{\"id\": {}, \"entity\": {}}}",
                        plan.id, keys[plan.key]
                    );
                    client.conns[ci].out.extend_from_slice(line.as_bytes());
                }
            }
            client.flush(ci);
        };
        for ci in 0..self.conns.len() {
            send(self, &mut recs, ci, window);
        }
        let mut answered = recs
            .iter()
            .filter(|r| r.outcome != Outcome::Missing)
            .count();
        let mut fds: Vec<PollFd> = self
            .conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        loop {
            let now = self.now_ns();
            for ci in 0..self.conns.len() {
                let settled = self.read_available(ci, now, base_id, &mut recs);
                answered += settled;
                if now < end && settled > 0 {
                    send(self, &mut recs, ci, settled);
                }
            }
            let now = self.now_ns();
            if (now >= end && answered == recs.len()) || now >= deadline {
                break;
            }
            if self.conns.iter().all(|c| !c.alive) {
                break;
            }
            for (f, c) in fds.iter_mut().zip(&self.conns) {
                f.events = match (c.alive, c.out_pos < c.out.len()) {
                    (false, _) => 0,
                    (true, true) => POLLIN | POLLOUT,
                    (true, false) => POLLIN,
                };
            }
            for ci in 0..self.conns.len() {
                self.flush(ci);
            }
            sys::poll(&mut fds, Duration::from_millis(2));
        }
        let done = recs
            .iter()
            .filter(|r| r.done_ns.is_some_and(|d| d <= end) && !r.failed())
            .count() as u64;
        (recs, done)
    }

    fn flush(&mut self, ci: usize) {
        let c = &mut self.conns[ci];
        while c.alive && c.out_pos < c.out.len() {
            match c.stream.write(&c.out[c.out_pos..]) {
                Ok(0) => c.alive = false,
                Ok(n) => c.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => c.alive = false,
            }
        }
        if c.out_pos == c.out.len() {
            c.out.clear();
            c.out_pos = 0;
        }
    }

    /// Read whatever has arrived on connection `ci` and settle the
    /// requests it answers; returns how many were settled.
    fn read_available(&mut self, ci: usize, now: u64, base_id: u64, recs: &mut [Record]) -> usize {
        let mut settled = 0;
        let mut buf = [0u8; 64 * 1024];
        loop {
            let c = &mut self.conns[ci];
            if !c.alive {
                return settled;
            }
            match c.stream.read(&mut buf) {
                Ok(0) => {
                    c.alive = false;
                    return settled;
                }
                Ok(n) => c.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.alive = false;
                    return settled;
                }
            }
        }
        let inbuf = std::mem::take(&mut self.conns[ci].inbuf);
        let mut start = 0;
        while let Some(nl) = inbuf[start..].iter().position(|&b| b == b'\n') {
            let text = String::from_utf8_lossy(&inbuf[start..start + nl]);
            start += nl + 1;
            let slot = parse_response(&text).and_then(|(id, outcome)| {
                let idx = id.checked_sub(base_id)? as usize;
                let r = recs.get_mut(idx)?;
                (r.done_ns.is_none() && r.outcome == Outcome::Missing).then_some((r, outcome))
            });
            match slot {
                Some((r, outcome)) => {
                    r.done_ns = Some(now);
                    r.outcome = outcome;
                    settled += 1;
                }
                None => self.stray_lines += 1,
            }
        }
        self.conns[ci].inbuf = inbuf[start..].to_vec();
        settled
    }

    /// Close the write halves so the server's handlers see EOF and end.
    pub fn shutdown(&mut self) {
        for c in &self.conns {
            let _ = c.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Parse one response line: `{"id": N, "prediction": X}` or
/// `{"id": N, "error": "…"}`. `None` when no id can be read.
pub fn parse_response(line: &str) -> Option<(u64, Outcome)> {
    let rest = line.trim().strip_prefix("{\"id\": ")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let id: u64 = rest[..digits].parse().ok()?;
    let rest = &rest[digits..];
    if let Some(v) = rest.strip_prefix(", \"prediction\": ") {
        let v = v.strip_suffix('}')?;
        return Some((id, Outcome::Ok(v.parse().ok()?)));
    }
    if let Some(msg) = rest.strip_prefix(", \"error\": ") {
        return Some((
            id,
            Outcome::ErrorLine(msg.trim_end_matches('}').to_string()),
        ));
    }
    None
}

/// Summary of one set of request records.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub lateness_p50_us: f64,
    pub lateness_p99_us: f64,
}

pub fn tally(recs: &[Record]) -> Tally {
    let lat = sorted(recs.iter().map(Record::latency_us).collect());
    let late = sorted(recs.iter().map(Record::lateness_us).collect());
    let failed = recs.iter().filter(|r| r.failed()).count() as u64;
    Tally {
        sent: recs.len() as u64,
        ok: recs.len() as u64 - failed,
        failed,
        p50_us: percentile(&lat, 0.5).unwrap_or(f64::INFINITY),
        p99_us: percentile(&lat, 0.99).unwrap_or(f64::INFINITY),
        lateness_p50_us: percentile(&late, 0.5).unwrap_or(0.0),
        lateness_p99_us: percentile(&late, 0.99).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_response_shapes() {
        assert_eq!(
            parse_response("{\"id\": 7, \"prediction\": 0.8315}"),
            Some((7, Outcome::Ok(0.8315)))
        );
        assert_eq!(
            parse_response("{\"id\": 8, \"error\": \"unknown entity\"}"),
            Some((8, Outcome::ErrorLine("\"unknown entity\"".into())))
        );
        assert_eq!(parse_response("{\"id\": null, \"error\": \"x\"}"), None);
        assert_eq!(parse_response("garbage"), None);
    }

    #[test]
    fn predictions_round_trip_bitwise() {
        for v in [0.1 + 0.2, 1e-300, 0.8315, 123456.789, f64::MIN_POSITIVE] {
            let line = format!("{{\"id\": 1, \"prediction\": {v}}}");
            match parse_response(&line) {
                Some((1, Outcome::Ok(back))) => assert_eq!(back.to_bits(), v.to_bits()),
                other => panic!("bad parse {other:?}"),
            }
        }
    }

    #[test]
    fn poisson_plan_hits_the_rate() {
        let z = Zipf::new(10, 1.0, &mut Rng::new(1, 1));
        let mut id = 100;
        let plan = poisson_plan(2000.0, 5, 10.0, &z, &mut Rng::new(1, 2), &mut id);
        assert!(
            (plan.len() as f64 - 20_000.0).abs() < 600.0,
            "{}",
            plan.len()
        );
        assert_eq!(plan[0].id, 100);
        assert_eq!(id, 100 + plan.len() as u64);
        assert!(plan.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(plan.iter().all(|p| p.due_ns >= 5 && p.key < 10));
    }
}
