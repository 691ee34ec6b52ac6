//! The C10K claim of the hub's line server: connections that are open
//! and quiet cost nothing — no per-connection thread, timer or poll. One
//! test in its own binary, so `/proc/self/stat` is the hub's CPU time and
//! nobody else's.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use neurovectorizer::{Hub, HubConfig, ModelSpec, NeuroVectorizer, NvConfig, ServeConfig};
use nvc_hub::server::serve_tcp;

/// Process CPU seconds (user + system), at the ubiquitous 100 Hz
/// `_SC_CLK_TCK`: fields 14 and 15 of `/proc/self/stat`, counted after
/// the parenthesised comm, which may itself contain spaces.
fn proc_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    let after_comm = stat.rsplit(')').next().expect("comm");
    let ticks = after_comm.split_whitespace().skip(11).take(2);
    let ticks: f64 = ticks.map(|t| t.parse::<f64>().expect("utime/stime")).sum();
    ticks / 100.0
}

/// The soft `RLIMIT_NOFILE` of this process (`unlimited` is no limit to
/// stay under).
fn soft_nofile_limit() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").expect("/proc/self/limits");
    let line = limits.lines().find(|l| l.starts_with("Max open files"));
    let soft = line
        .and_then(|l| l.split_whitespace().nth(3))
        .expect("soft limit");
    soft.parse().unwrap_or(usize::MAX)
}

/// One `ping` round trip on `stream`.
fn ping(mut stream: &TcpStream) {
    stream.write_all(b"{\"op\":\"ping\"}\n").expect("send ping");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("ping response");
    assert!(response.contains("pong"), "bad ping reply: {response}");
}

#[test]
fn idle_connections_cost_no_cpu_and_do_not_starve_a_ping() {
    let nv = NeuroVectorizer::new(NvConfig::fast());
    let hub = Hub::new(
        HubConfig::default().with_listen("127.0.0.1:0"),
        ServeConfig::default(),
    );
    hub.register(ModelSpec {
        name: "prod".to_string(),
        weight: 1,
        checkpoint_hash: nv.checkpoint_hash(),
        model: Arc::new(nv),
    })
    .expect("register");
    let handle = serve_tcp(Arc::new(hub)).expect("bind loopback");

    // Both ends of every connection are descriptors of this process.
    // Each is pinged once before it goes quiet: the selector has then
    // taken it off the listen queue, which a tight loop of connects
    // overflows (a dropped SYN is retried a second later).
    let connections = 8192.min(soft_nofile_limit().saturating_sub(256) / 2);
    assert!(connections > 0, "no descriptors to open a connection with");
    let connect = || {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        ping(&stream);
        stream
    };
    let idle: Vec<TcpStream> = (0..connections).map(|_| connect()).collect();

    // A beat for the last pongs' bookkeeping to end, then a quiet second.
    std::thread::sleep(Duration::from_millis(200));
    let (cpu0, t0) = (proc_cpu_seconds(), Instant::now());
    std::thread::sleep(Duration::from_secs(1));
    let idle_cpu_pct = (proc_cpu_seconds() - cpu0) / t0.elapsed().as_secs_f64() * 100.0;
    assert!(
        idle_cpu_pct <= 5.0,
        "{connections} idle connections cost {idle_cpu_pct:.2} % of a CPU"
    );

    // The selector still answers a newcomer.
    connect();

    drop(idle);
    handle.shutdown();
}
