//! The one JSON-lines TCP server: one selector thread drives every
//! connection nonblocking (C10K-style) and answers what its
//! [`LineService`] can answer without blocking; a small worker pool
//! executes the rest off the loop. `nvc hub` and `nvc registry` both run
//! it; what differs between them is the service behind it.
//!
//! ```text
//!            ┌───────────────── selector thread ──────────────────┐
//!  accept ──►│ register(fd) ── readable ──► line ──► service.offer│
//!            │                                         │  │  │    │
//!            │         answered at once (ping, hit) ◄──┘  │  │    │
//!            │ writable ◄── per-conn output ◄── seq reorder  │    │
//!            └──────▲────────────▲───────────────┬───────────┼────┘
//!                   │ inbox + one wake per batch │ queued    │ handed back
//!                   │            │               ▼           ▼
//!                   │            └──── service's own threads (the hub's
//!                   │                  batch workers: misses)
//!                   └───────────────── request workers
//!                                      (service.handle_line: slow verbs)
//! ```
//!
//! For each framed line the selector calls [`LineService::offer`] with a
//! [`Reply`]. The service answers through it — before `offer` returns, or
//! later from any thread — or hands line and reply back, and the selector
//! queues them for a request worker. `offer` must never block: that is
//! what keeps one slow request from stalling every connection. After the
//! lines of one wake-up the selector calls [`LineService::end_of_event`]
//! (the hub wakes its batchers there, so misses that arrived together
//! ride one forward).
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
//!   parsed line gets a sequence number; an answer that arrives ahead of
//!   its turn parks in a reorder map. (A cache hit answered on the
//!   selector overtakes the miss pipelined before it — and waits.) An
//!   answer that arrives in turn, the usual case, goes straight to the
//!   output queue.
//! * **Every line is answered exactly once.** A [`Reply`] dropped
//!   unanswered (a request worker or a completion that panicked) answers
//!   with an error, so a connection's sequence — and shutdown, which
//!   waits for it — never wedges on a lost request.
//! * **Answers from other threads share wake-ups.** They land in one
//!   inbox; the first to arrive while the selector sleeps writes the
//!   waker pipe, the rest of a batch find it already woken.
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
//! The `shutdown` verb keeps its ack-first contract: the service flips
//! its flag and answers, the loop flushes the ack to the requesting
//! client, and only then does the service's (possibly blocking)
//! `shutdown` run — for the hub, drain + cache persist — on the loop
//! thread, which is about to exit anyway. The loop never exits while a
//! dispatched request is outstanding, so the flag being observable
//! before the ack arrives cannot drop the ack.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use nvc_obs::{Counter, Gauge};
use polling::{Event, Interest, Poller, Waker};

use crate::framing::LineFramer;

/// What the server drives: one protocol behind one listener.
pub(crate) trait LineService: Send + Sync + 'static {
    /// The non-blocking front, called on the selector thread for every
    /// framed line. Answers through `reply` — before returning, or later
    /// from any thread — or hands both back (`Some`) for a request
    /// worker's [`LineService::handle_line`]. Must never block.
    fn offer(&self, line: String, reply: Reply) -> Option<(String, Reply)>;
    /// The selector has offered every line of this wake-up: whatever the
    /// service queued meanwhile may start now.
    fn end_of_event(&self) {}
    /// Answers one protocol line, blocking as long as it takes. Returns
    /// the response line and whether the service keeps going (`false`
    /// for the `shutdown` verb's ack). Runs on a request worker.
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

/// A request the service handed back, on its way to the workers.
struct Job {
    line: String,
    reply: Reply,
}

/// A finished response on its way back to the loop.
struct Done {
    token: usize,
    seq: u64,
    response: String,
    keep_going: bool,
}

/// Where answers from any thread meet the selector.
struct Inbox {
    done: Mutex<Vec<Done>>,
    /// True from the moment the selector wakes until it takes `done`:
    /// an answer pushed meanwhile will be seen without a wake-up. The
    /// sender that flips it from `false` owes the pipe write; the
    /// selector's `swap(false)` (acquire) pairs with the senders'
    /// `swap(true)` (release), so what they pushed before is in `done`
    /// when it looks.
    awake: AtomicBool,
    waker: Waker,
}

/// The handle a line's answer goes through: which connection, which
/// position in its sequence, and the way back to the selector.
pub(crate) struct Reply {
    token: usize,
    seq: u64,
    inbox: Arc<Inbox>,
    answered: bool,
}

impl Reply {
    /// Answers the line, from any thread. `keep_going` is `false` only
    /// for a `shutdown` verb's ack.
    pub(crate) fn send(mut self, response: String, keep_going: bool) {
        self.answered = true;
        self.deliver(response, keep_going);
    }

    fn deliver(&self, response: String, keep_going: bool) {
        self.inbox
            .done
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Done {
                token: self.token,
                seq: self.seq,
                response,
                keep_going,
            });
        if !self.inbox.awake.swap(true, Ordering::AcqRel) {
            let _ = self.inbox.waker.wake();
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.answered {
            let lost =
                r#"{"ok":false,"error":"internal error: the request was dropped unanswered"}"#;
            self.deliver(lost.to_string(), true);
        }
    }
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

    /// Takes one answer: into the output queue when it is its turn (and
    /// then whatever was parked behind it), into the reorder map
    /// otherwise. Returns `true` when a shutdown ack reached the queue.
    fn accept(&mut self, done: Done) -> bool {
        if done.seq != self.write_seq {
            self.ready
                .insert(done.seq, (done.response, done.keep_going));
            return false;
        }
        let mut saw_ack = self.enqueue(&done.response, done.keep_going);
        while let Some((response, keep_going)) = self.ready.remove(&self.write_seq) {
            saw_ack |= self.enqueue(&response, keep_going);
        }
        saw_ack
    }

    fn enqueue(&mut self, response: &str, keep_going: bool) -> bool {
        self.write_seq += 1;
        self.out.extend(response.as_bytes());
        self.out.push_back(b'\n');
        !keep_going
    }
}

/// A running server: selector thread + request workers.
pub(crate) struct LineServer {
    /// Selector first: the workers exit once it has dropped the job
    /// queue.
    threads: Mutex<Vec<JoinHandle<()>>>,
    inbox: Arc<Inbox>,
}

impl LineServer {
    /// Wakes the loop (so an externally-initiated shutdown is noticed
    /// immediately) and joins every thread. Idempotent.
    pub(crate) fn join(&self) {
        let _ = self.inbox.waker.wake();
        let threads = std::mem::take(&mut *self.threads.lock().unwrap_or_else(|e| e.into_inner()));
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Starts the selector thread and `workers` request workers for
/// `listener`; threads are named `{name}-event` and `{name}-req-{i}`.
/// A service that never hands a line back needs no worker (`0`).
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
    let inbox = Arc::new(Inbox {
        done: Mutex::new(Vec::new()),
        awake: AtomicBool::new(false),
        waker: Waker::new(&poller, TOKEN_WAKER)?,
    });

    let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));

    let mut threads = (0..workers)
        .map(|i| {
            let service = Arc::clone(&service);
            let job_rx = Arc::clone(&job_rx);
            std::thread::Builder::new()
                .name(format!("{name}-req-{i}"))
                .spawn(move || worker_loop(&*service, &job_rx))
        })
        .collect::<io::Result<Vec<_>>>()?;

    let max_out = max_output_buffer.max(READ_CHUNK);
    let selector = {
        let inbox = Arc::clone(&inbox);
        std::thread::Builder::new()
            .name(format!("{name}-event"))
            .spawn(move || event_loop(&*service, listener, &poller, &inbox, job_tx, max_out))?
    };
    threads.insert(0, selector);
    Ok(LineServer {
        threads: Mutex::new(threads),
        inbox,
    })
}

fn worker_loop(service: &dyn LineService, jobs: &Arc<Mutex<Receiver<Job>>>) {
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
        job.reply.send(response, keep_going);
    }
}

fn event_loop(
    service: &dyn LineService,
    listener: TcpListener,
    poller: &Poller,
    inbox: &Arc<Inbox>,
    job_tx: Sender<Job>,
    max_out: usize,
) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut events: Vec<Event> = Vec::new();
    // Answers taken from the inbox this iteration (swapped, so both
    // vectors keep their capacity).
    let mut finished: Vec<Done> = Vec::new();
    // Tokens whose state changed this iteration (only these are flushed
    // and re-armed — keeps per-wakeup work O(ready), not O(conns)).
    let mut touched: Vec<usize> = Vec::new();
    // The connection owed the shutdown ack, once one exists.
    let mut ack_conn: Option<usize> = None;

    loop {
        let _ = poller.wait(&mut events, Some(IDLE_TICK));
        inbox.awake.store(true, Ordering::Release);
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
                TOKEN_WAKER => inbox.waker.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue; // closed earlier this iteration
                    };
                    touched.push(token); // flushed below, readable or writable
                    if ev.readable
                        && !drain_readable(conn, token, service, inbox, &job_tx, dispatch)
                    {
                        dead.push(token);
                    }
                }
            }
        }
        service.end_of_event();

        // Route finished responses — those the service gave while being
        // offered the lines above, and those other threads sent since the
        // last look; each may unblock in-order writes.
        inbox.awake.swap(false, Ordering::AcqRel);
        std::mem::swap(
            &mut *inbox.done.lock().unwrap_or_else(|e| e.into_inner()),
            &mut finished,
        );
        for done in finished.drain(..) {
            let token = done.token;
            let Some(conn) = conns.get_mut(&token) else {
                continue; // connection died while the request ran
            };
            touched.push(token);
            if conn.accept(done) {
                ack_conn = Some(token);
            }
        }

        // Write what is owed, apply backpressure, re-arm interest, reap
        // drained EOF conns.
        touched.sort_unstable();
        touched.dedup();
        for &token in &touched {
            if dead.contains(&token) {
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if !flush_out(conn) {
                dead.push(token);
                continue;
            }
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
            // answer — possibly the shutdown ack itself — is still
            // owed), and never before the ack has flushed to its client.
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
/// complete lines chunk by chunk and offering each to the service
/// (unless it is shutting down, in which case they are dropped — the
/// connection is about to close); what the service hands back goes to
/// the request workers. Returns `false` when the connection must close.
fn drain_readable(
    conn: &mut Conn,
    token: usize,
    service: &dyn LineService,
    inbox: &Arc<Inbox>,
    job_tx: &Sender<Job>,
    dispatch: bool,
) -> bool {
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
            let reply = Reply {
                token,
                seq: conn.next_seq,
                inbox: Arc::clone(inbox),
                answered: false,
            };
            conn.next_seq += 1;
            if let Some((line, reply)) = service.offer(line, reply) {
                if job_tx.send(Job { line, reply }).is_err() {
                    return false; // no request worker left to take it
                }
            }
        }
        if n < chunk.len() {
            break; // socket drained; anything newer is reported again
        }
    }
    !(conn.read_closed && conn.outstanding() == 0 && conn.out.is_empty())
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::sync::atomic::AtomicBool;

    /// Answers by the line's first word, over every path a service has:
    /// `now …` before `offer` returns, `later …` from another thread once
    /// the test lets it, `worker …` handed back to a request worker,
    /// `drop …` not at all.
    struct Paths {
        release: Mutex<Receiver<()>>,
        later: Mutex<Vec<JoinHandle<()>>>,
        down: AtomicBool,
        connections: Counter,
        active: Gauge,
    }

    impl LineService for Arc<Paths> {
        fn offer(&self, line: String, reply: Reply) -> Option<(String, Reply)> {
            match line.split(' ').next() {
                Some("now") => reply.send(format!("selector: {line}"), true),
                Some("later") => {
                    let me = Arc::clone(self);
                    let t = std::thread::spawn(move || {
                        let _ = me.release.lock().unwrap().recv();
                        reply.send(format!("elsewhere: {line}"), true);
                    });
                    self.later.lock().unwrap().push(t);
                }
                Some("drop") => drop(reply),
                _ => return Some((line, reply)),
            }
            None
        }
        fn handle_line(&self, line: &str) -> (String, bool) {
            (format!("worker: {line}"), true)
        }
        fn is_shutting_down(&self) -> bool {
            self.down.load(Ordering::Acquire)
        }
        fn shutdown(&self) {
            self.down.store(true, Ordering::Release);
        }
        fn connections(&self) -> &Counter {
            &self.connections
        }
        fn active_connections(&self) -> &Gauge {
            &self.active
        }
    }

    /// One connection, one write, every answer path: each line is
    /// answered exactly once, in request order, whichever thread answered
    /// it and whenever — and a reply the service lost is an error
    /// response, not a wedged connection.
    #[test]
    fn every_answer_path_keeps_request_order_and_answers_once() {
        let (release, held) = std::sync::mpsc::channel();
        let paths = Arc::new(Paths {
            release: Mutex::new(held),
            later: Mutex::new(Vec::new()),
            down: AtomicBool::new(false),
            connections: Counter::default(),
            active: Gauge::default(),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let service = Arc::new(Arc::clone(&paths)) as Arc<dyn LineService>;
        let server = serve(service, listener, "nvc-test", 1, 64 * 1024).unwrap();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"later a\nnow b\nworker c\ndrop d\nnow e\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut next = || {
            let mut line = String::new();
            reader.read_line(&mut line).expect("a response");
            line.trim_end().to_string()
        };

        // Four of the five are answered already; none may pass the first.
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut early = String::new();
        assert!(
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut early)
                .is_err(),
            "answered out of order: {early}"
        );
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        release.send(()).unwrap();
        assert_eq!(next(), "elsewhere: later a");
        assert_eq!(next(), "selector: now b");
        assert_eq!(next(), "worker: worker c");
        assert!(next().contains("dropped unanswered"));
        assert_eq!(next(), "selector: now e");

        paths.shutdown();
        server.join();
        for t in paths.later.lock().unwrap().drain(..) {
            t.join().unwrap();
        }
    }
}
