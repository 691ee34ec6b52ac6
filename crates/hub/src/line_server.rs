//! The one JSON-lines TCP server: one selector thread drives every
//! connection nonblocking (C10K-style), a small worker pool executes
//! protocol requests off the loop. `nvc hub` and `nvc registry` both run
//! it; what differs between them is the [`LineService`] behind it.
//!
//! ```text
//!            ┌───────────────── selector thread ─────────────────┐
//!  accept ──►│ register(fd) ── readable ──► line buffer ──┐      │
//!            │                                            ▼      │
//!            │ writable ◄── per-conn output queue ◄── seq reorder│
//!            └───────▲──────────────────────────────────┬────────┘
//!                    │ waker (self-pipe)                │ job queue
//!                    └────────── request workers ◄──────┘
//!                              (service.handle_line)
//! ```
//!
//! Invariants the loop maintains:
//!
//! * **Partial lines survive wakeups.** Bytes read go through a
//!   per-connection [`LineFramer`]; only complete `\n`-terminated lines
//!   are dispatched, and a line longer than [`MAX_LINE`](crate::framing)
//!   closes the connection. A client dribbling one byte per write costs
//!   one wakeup per byte and nothing else.
//! * **One connection cannot monopolise the loop or the job queue.** A
//!   readiness event reads at most `MAX_READS_PER_EVENT` chunks (the
//!   poller is level-triggered: the rest is reported again, after the
//!   other ready connections had their turn), and a connection with more
//!   than `MAX_IN_FLIGHT` requests awaiting their responses is not read
//!   from until half of them have been answered — so the job queue holds
//!   at most `MAX_IN_FLIGHT` plus one chunk's worth of lines per
//!   connection.
//! * **Responses are written in request order per connection.** Each
//!   parsed line gets a sequence number; worker results park in a
//!   reorder map until their turn. (Workers may finish out of order —
//!   a cache hit overtaking a model forward.)
//! * **Writes queue when the socket would block.** Unsent bytes wait in
//!   a per-connection output queue and the connection's interest gains
//!   WRITE until drained. Past `max_output_buffer` queued bytes the
//!   loop additionally stops *reading* from that connection until the
//!   queue drains below half (the backpressure bound — a slow reader
//!   throttles only itself, by at most the bound plus its
//!   already-in-flight responses).
//! * **Idle connections cost zero CPU.** No per-connection timers; a
//!   registered-but-quiet socket is never touched between selector
//!   events. (The loop itself ticks at `IDLE_TICK` as a shutdown
//!   belt-and-braces; that is one wakeup per tick for the whole
//!   process, independent of connection count.)
//! * **Gauges stay truthful on every exit path.** The service's
//!   active-connections gauge decrements when the selector observes EOF,
//!   error, or hangup — not just on protocol-clean closes.
//!
//! The `shutdown` verb keeps its ack-first contract: `handle_line`
//! flips the flag, the loop flushes the ack to the requesting client,
//! and only then does the service's (possibly blocking) `shutdown` run —
//! for the hub, drain + cache persist — on the loop thread, which is
//! about to exit anyway. The loop never exits while a dispatched request
//! is outstanding, so the flag being observable before the ack's `Done`
//! arrives cannot drop the ack.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use nvc_obs::{Counter, Gauge};
use polling::{Event, Interest, Poller, Waker};

use crate::framing::LineFramer;

/// What the server drives: one protocol behind one listener.
pub(crate) trait LineService: Send + Sync + 'static {
    /// Answers one protocol line. Returns the response line and whether
    /// the service keeps going (`false` for the `shutdown` verb's ack).
    fn handle_line(&self, line: &str) -> (String, bool);
    /// True once shutdown has begun: the server stops accepting and
    /// dispatching, finishes what is in flight, and exits.
    fn is_shutting_down(&self) -> bool;
    /// Runs on the selector thread after the last response (and the
    /// shutdown ack) has been flushed; may block. Idempotent.
    fn shutdown(&self);
    /// Connections accepted since start (the server increments it).
    fn connections(&self) -> &Counter;
    /// Connections currently open (the server keeps it truthful).
    fn active_connections(&self) -> &Gauge;
}

const TOKEN_LISTENER: usize = 0;
const TOKEN_WAKER: usize = 1;
const TOKEN_FIRST_CONN: usize = 16;

/// Defensive re-check interval for the selector wait; one wakeup per
/// tick for the whole process, independent of connection count.
const IDLE_TICK: Duration = Duration::from_millis(500);

/// Read chunk size. Lines longer than this simply span multiple reads.
const READ_CHUNK: usize = 8192;

/// Chunks read from one connection per readiness event (128 KiB).
const MAX_READS_PER_EVENT: usize = 16;

/// Requests one connection may have awaiting their responses before the
/// loop stops reading from it (resumed below half). Far above any
/// sensible pipeline depth — the repo benchmark pipelines 8 deep.
const MAX_IN_FLIGHT: u64 = 1024;

/// A parsed request on its way to the workers.
struct Job {
    token: usize,
    seq: u64,
    line: String,
}

/// A finished response on its way back to the loop.
struct Done {
    token: usize,
    seq: u64,
    response: String,
    keep_going: bool,
}

struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    /// Unsent response bytes (front = next byte on the wire).
    out: VecDeque<u8>,
    /// Sequence assigned to the next parsed line.
    next_seq: u64,
    /// Sequence whose response must hit `out` next.
    write_seq: u64,
    /// Out-of-order completed responses parked until their turn.
    ready: BTreeMap<u64, (String, bool)>,
    /// Peer sent EOF; close once all responses have flushed.
    read_closed: bool,
    /// Reading suspended by the output-buffer or in-flight bound.
    paused: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn desired_interest(&self) -> Interest {
        let mut want = Interest::NONE;
        if !self.read_closed && !self.paused {
            want = want.and(Interest::READ);
        }
        if !self.out.is_empty() {
            want = want.and(Interest::WRITE);
        }
        want
    }

    /// Requests dispatched whose responses have not yet been promoted
    /// into the output queue.
    fn outstanding(&self) -> u64 {
        self.next_seq - self.write_seq
    }
}

/// A running server: selector thread + request workers.
pub(crate) struct LineServer {
    /// Selector first: the workers exit once it has dropped the job
    /// queue.
    threads: Mutex<Vec<JoinHandle<()>>>,
    waker: Arc<Waker>,
}

impl LineServer {
    /// Wakes the loop (so an externally-initiated shutdown is noticed
    /// immediately) and joins every thread. Idempotent.
    pub(crate) fn join(&self) {
        let _ = self.waker.wake();
        let threads = std::mem::take(&mut *self.threads.lock().unwrap_or_else(|e| e.into_inner()));
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Starts the selector thread and `workers` request workers for
/// `listener`; threads are named `{name}-event` and `{name}-req-{i}`.
/// `max_output_buffer` is the per-connection backpressure bound.
pub(crate) fn serve(
    service: Arc<dyn LineService>,
    listener: TcpListener,
    name: &str,
    workers: usize,
    max_output_buffer: usize,
) -> io::Result<LineServer> {
    listener.set_nonblocking(true)?;
    let poller = Arc::new(Poller::new()?);
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    let waker = Arc::new(Waker::new(&poller, TOKEN_WAKER)?);

    let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<Done>();
    let job_rx = Arc::new(Mutex::new(job_rx));

    let mut threads = (0..workers.max(1))
        .map(|i| {
            let service = Arc::clone(&service);
            let job_rx = Arc::clone(&job_rx);
            let done_tx = done_tx.clone();
            let waker = Arc::clone(&waker);
            std::thread::Builder::new()
                .name(format!("{name}-req-{i}"))
                .spawn(move || worker_loop(&*service, &job_rx, &done_tx, &waker))
        })
        .collect::<io::Result<Vec<_>>>()?;
    drop(done_tx);

    let max_out = max_output_buffer.max(READ_CHUNK);
    let selector = {
        let waker = Arc::clone(&waker);
        std::thread::Builder::new()
            .name(format!("{name}-event"))
            .spawn(move || {
                event_loop(
                    &*service, listener, &poller, &waker, job_tx, done_rx, max_out,
                )
            })?
    };
    threads.insert(0, selector);
    Ok(LineServer {
        threads: Mutex::new(threads),
        waker,
    })
}

fn worker_loop(
    service: &dyn LineService,
    jobs: &Arc<Mutex<Receiver<Job>>>,
    done: &Sender<Done>,
    waker: &Waker,
) {
    loop {
        // One worker parks inside `recv` holding the lock; its peers
        // queue on the mutex. Each arriving job releases exactly one.
        let job = {
            let rx = jobs.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let Ok(job) = job else {
            return; // loop exited, channel closed
        };
        let (response, keep_going) = service.handle_line(&job.line);
        let sent = done.send(Done {
            token: job.token,
            seq: job.seq,
            response,
            keep_going,
        });
        if sent.is_err() {
            return; // loop gone
        }
        let _ = waker.wake();
    }
}

fn event_loop(
    service: &dyn LineService,
    listener: TcpListener,
    poller: &Poller,
    waker: &Waker,
    job_tx: Sender<Job>,
    done_rx: Receiver<Done>,
    max_out: usize,
) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut events: Vec<Event> = Vec::new();
    // Tokens whose state changed this iteration (only these need their
    // interest re-armed — keeps per-wakeup work O(ready), not O(conns)).
    let mut touched: Vec<usize> = Vec::new();
    // The connection owed the shutdown ack, once one exists.
    let mut ack_conn: Option<usize> = None;

    loop {
        let _ = poller.wait(&mut events, Some(IDLE_TICK));
        touched.clear();
        let mut dead: Vec<usize> = Vec::new();
        let dispatch = !service.is_shutting_down();

        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => {
                    if dispatch {
                        accept_ready(service, &listener, poller, &mut conns, &mut next_token);
                    }
                }
                TOKEN_WAKER => waker.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue; // closed earlier this iteration
                    };
                    touched.push(token);
                    let mut alive = true;
                    if ev.readable {
                        alive = drain_readable(conn, token, &job_tx, dispatch);
                    }
                    if alive && ev.writable {
                        alive = flush_out(conn);
                    }
                    if !alive {
                        dead.push(token);
                    }
                }
            }
        }

        // Route finished responses; each may unblock in-order writes.
        loop {
            match done_rx.try_recv() {
                Ok(done) => {
                    let token = done.token;
                    let Some(conn) = conns.get_mut(&token) else {
                        continue; // connection died while the request ran
                    };
                    touched.push(token);
                    conn.ready
                        .insert(done.seq, (done.response, done.keep_going));
                    if promote_ready(conn) {
                        ack_conn = Some(token);
                    }
                    if !flush_out(conn) {
                        dead.push(token);
                    }
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }

        // Re-arm interest, apply backpressure, reap drained EOF conns.
        touched.sort_unstable();
        touched.dedup();
        for &token in &touched {
            if dead.contains(&token) {
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            conn.paused = if conn.paused {
                // resume below half
                conn.out.len() > max_out / 2 || conn.outstanding() > MAX_IN_FLIGHT / 2
            } else {
                conn.out.len() > max_out || conn.outstanding() > MAX_IN_FLIGHT
            };
            if conn.read_closed && conn.outstanding() == 0 && conn.out.is_empty() {
                dead.push(token);
                continue;
            }
            let want = conn.desired_interest();
            if want != conn.interest {
                let _ = poller.modify(conn.stream.as_raw_fd(), token, want);
                conn.interest = want;
            }
        }
        for token in dead {
            close_conn(service, poller, &mut conns, token);
        }

        if service.is_shutting_down() {
            // Never exit while a dispatched request is outstanding (its
            // Done — possibly the shutdown ack itself — is still owed),
            // and never before the ack has flushed to its client.
            let quiesced = conns.values().all(|c| c.outstanding() == 0);
            let ack_flushed = match ack_conn {
                None => true, // externally initiated shutdown
                Some(t) => conns.get(&t).is_none_or(|c| c.out.is_empty()),
            };
            if quiesced && ack_flushed {
                // Blocking here (the hub drains and persists) is fine:
                // the loop is terminating and every remaining connection
                // closes right after. (No-op if shutdown was external.)
                service.shutdown();
                let open: Vec<usize> = conns.keys().copied().collect();
                for token in open {
                    close_conn(service, poller, &mut conns, token);
                }
                return;
            }
        }
    }
}

/// Accepts until the listener would block.
fn accept_ready(
    service: &dyn LineService,
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut HashMap<usize, Conn>,
    next_token: &mut usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                if poller
                    .register(stream.as_raw_fd(), token, Interest::READ)
                    .is_err()
                {
                    continue; // selector refused the fd: drop the socket
                }
                service.connections().inc();
                service.active_connections().inc();
                conns.insert(
                    token,
                    Conn {
                        stream,
                        framer: LineFramer::default(),
                        out: VecDeque::new(),
                        next_seq: 0,
                        write_seq: 0,
                        ready: BTreeMap::new(),
                        read_closed: false,
                        paused: false,
                        interest: Interest::READ,
                    },
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                // Transient accept failures (ECONNABORTED, fd
                // exhaustion) must not kill the loop.
                eprintln!("nvc: accept failed (retrying): {e}");
                return;
            }
        }
    }
}

/// Reads what one readiness event may (see the module docs), framing
/// and dispatching complete lines chunk by chunk (unless the service is
/// shutting down, in which case they are dropped — the connection is
/// about to close). Returns `false` when the connection must close.
fn drain_readable(conn: &mut Conn, token: usize, job_tx: &Sender<Job>, dispatch: bool) -> bool {
    let mut chunk = [0u8; READ_CHUNK];
    let mut reads = 0;
    while reads < MAX_READS_PER_EVENT && conn.outstanding() <= MAX_IN_FLIGHT {
        let t_read = std::time::Instant::now();
        let n = match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        };
        nvc_obs::record_span("tcp_read", 0, t_read, t_read.elapsed());
        reads += 1;
        conn.framer.push(&chunk[..n]);
        loop {
            let line = match conn.framer.next_line() {
                Ok(Some(line)) => line,
                Ok(None) => break,
                Err(_) => return false, // unbounded "line": cut the peer off
            };
            if !dispatch {
                continue;
            }
            let seq = conn.next_seq;
            conn.next_seq += 1;
            if job_tx.send(Job { token, seq, line }).is_err() {
                return false; // workers gone: shutting down
            }
        }
        if n < chunk.len() {
            break; // socket drained; anything newer is reported again
        }
    }
    !(conn.read_closed && conn.outstanding() == 0 && conn.out.is_empty())
}

/// Moves in-order completed responses into the output queue. Returns
/// `true` when one of them was a shutdown ack.
fn promote_ready(conn: &mut Conn) -> bool {
    let mut saw_ack = false;
    while let Some((response, keep_going)) = conn.ready.remove(&conn.write_seq) {
        conn.write_seq += 1;
        conn.out.extend(response.as_bytes());
        conn.out.push_back(b'\n');
        if !keep_going {
            saw_ack = true;
        }
    }
    saw_ack
}

/// Writes queued bytes until empty or the socket would block. Returns
/// `false` when the connection must close.
fn flush_out(conn: &mut Conn) -> bool {
    while !conn.out.is_empty() {
        let (front, _) = conn.out.as_slices();
        let t_write = std::time::Instant::now();
        match conn.stream.write(front) {
            Ok(0) => return false,
            Ok(n) => {
                nvc_obs::record_span("tcp_write", 0, t_write, t_write.elapsed());
                conn.out.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

fn close_conn(
    service: &dyn LineService,
    poller: &Poller,
    conns: &mut HashMap<usize, Conn>,
    token: usize,
) {
    if let Some(conn) = conns.remove(&token) {
        let _ = poller.deregister(conn.stream.as_raw_fd());
        service.active_connections().dec();
    }
}
