//! The load side of the server workloads: one JSON-lines TCP connection,
//! driven closed-loop at a fixed pipelining depth.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use nvc_serve::Json;

use crate::spans::SpanLog;
use crate::speed::SpeedMeter;

pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Without this Nagle holds every small request for ~40 ms.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay {addr}: {e}"))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream),
        })
    }

    /// Writes one request line (newline included in `line`).
    pub fn send(&mut self, line: &[u8]) -> std::io::Result<()> {
        self.reader.get_mut().write_all(line)
    }

    /// Appends the next response line (with its newline) to `out`;
    /// returns its length, 0 at EOF.
    pub fn recv(&mut self, out: &mut Vec<u8>) -> std::io::Result<usize> {
        self.reader.read_until(b'\n', out)
    }

    /// One request, one parsed response.
    pub fn request(&mut self, line: &str) -> Result<Json, String> {
        self.send(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut buf = Vec::new();
        match self.recv(&mut buf) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Json::parse(String::from_utf8_lossy(&buf).trim()).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Builds request lines. `vectorize(id, source_json)` is the only verb
/// the timed phases send.
pub fn vectorize_line(out: &mut Vec<u8>, id: usize, source_json: &str) {
    out.clear();
    let _ = writeln!(
        out,
        "{{\"op\":\"vectorize\",\"id\":\"{id}\",\"model\":\"prod\",\"source\":{source_json}}}"
    );
}

/// What one closed-loop phase observed. Responses are kept raw and
/// verified after the clock stops, so checking them costs the server no
/// CPU while it is being measured.
pub struct PhaseLog {
    /// Per-op latency in microseconds, in op order.
    pub latencies_us: Vec<f64>,
    /// When each response arrived, on the speed meter's time base.
    pub done_us: Vec<f64>,
    /// First send and last response, on the speed meter's time base.
    pub start_us: f64,
    pub end_us: f64,
    /// Response lines back to back; `ends[i]` closes response `i`.
    raw: Vec<u8>,
    ends: Vec<usize>,
    /// First transport error, if the phase ended early.
    pub transport_error: Option<String>,
}

impl PhaseLog {
    pub fn responses(&self) -> impl Iterator<Item = &[u8]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let line = &self.raw[start..end];
            start = end;
            line
        })
    }

    pub fn completed(&self) -> usize {
        self.ends.len()
    }

    /// Wall time from the first send to the last response.
    pub fn elapsed_s(&self) -> f64 {
        (self.end_us - self.start_us) * 1e-6
    }
}

/// Sends `ops` requests over `conn`, keeping `depth` in flight (the hub
/// answers in request order on one connection, so responses pair with
/// requests first-in first-out). `line_for(i, buf)` renders request `i`.
///
/// A closed loop on the servers' CPU leaves the idle-class speed sampler
/// no time, so the loop runs the probe itself, between two responses,
/// whenever one is due.
///
/// With a span log, every op is recorded as `op` ⊃ `client.write`,
/// `client.wait`; the caller adds `client.verify`.
pub fn run_closed(
    conn: &mut Conn,
    ops: usize,
    depth: usize,
    mut line_for: impl FnMut(usize, &mut Vec<u8>),
    mut spans: Option<&mut SpanLog>,
    meter: &SpeedMeter,
) -> PhaseLog {
    let mut log = PhaseLog {
        latencies_us: Vec::with_capacity(ops),
        done_us: Vec::with_capacity(ops),
        start_us: 0.0,
        end_us: 0.0,
        raw: Vec::with_capacity(ops * 448),
        ends: Vec::with_capacity(ops),
        transport_error: None,
    };
    let mut line = Vec::with_capacity(1024);
    // (send start, send end) of the requests still in flight.
    let mut in_flight: VecDeque<(Instant, Instant)> = VecDeque::with_capacity(depth);
    let origin = Instant::now();
    log.start_us = meter.at_us(origin);
    let us = |t: Instant| t.duration_since(origin).as_secs_f64() * 1e6;
    let span_base = spans.as_ref().map_or(0.0, |s| s.now_us());
    let mut sent = 0;
    while log.ends.len() < ops {
        while sent < ops && in_flight.len() < depth {
            line_for(sent, &mut line);
            let t0 = Instant::now();
            if let Err(e) = conn.send(&line) {
                log.transport_error = Some(format!("send op {sent}: {e}"));
                break;
            }
            in_flight.push_back((t0, Instant::now()));
            sent += 1;
        }
        if log.transport_error.is_some() {
            break;
        }
        match conn.recv(&mut log.raw) {
            Ok(0) => log.transport_error = Some("server closed the connection".into()),
            Err(e) => log.transport_error = Some(format!("recv: {e}")),
            Ok(_) => {
                let done = Instant::now();
                let (t0, t1) = in_flight.pop_front().expect("a response implies a request");
                let op = log.ends.len();
                log.ends.push(log.raw.len());
                log.latencies_us
                    .push(done.duration_since(t0).as_secs_f64() * 1e6);
                log.done_us.push(meter.at_us(done));
                if let Some(s) = spans.as_deref_mut() {
                    let (a, b, c) = (span_base + us(t0), span_base + us(t1), span_base + us(done));
                    let parent = s.record("op", op as u64, None, a, c);
                    s.record("client.write", op as u64, Some(parent), a, b);
                    s.record("client.wait", op as u64, Some(parent), b, c);
                }
            }
        }
        if log.transport_error.is_some() {
            break;
        }
        meter.sample_if_due();
    }
    log.end_us = meter.now_us();
    log
}
