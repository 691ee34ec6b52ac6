//! Idle connections cost no threads on the shared line server.
//!
//! Alone in its own test binary on purpose: the assertion counts this
//! process's threads by name, so nothing else may be starting servers.

#![cfg(target_os = "linux")] // reads /proc/self/task

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use nvc_fleet::RegistryService;
use nvc_hub::serve_registry;

/// Threads of this process whose name starts with `prefix` (the kernel
/// keeps the first 15 bytes of a thread's name in `comm`).
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

/// Connects, proves the connection is established and registered with
/// the selector (a `ping` is answered), and leaves it open.
fn idle_connection(addr: std::net::SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut line = String::new();
    BufReader::new(s.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains("pong"), "{line}");
    s
}

#[test]
fn idle_registry_connections_add_no_threads() {
    let handle =
        serve_registry(Arc::new(RegistryService::default()), "127.0.0.1:0").expect("bind loopback");
    // An answered ping means the selector is up and named. It answers
    // every registry verb itself, so it is the registry's only thread.
    let first = idle_connection(handle.addr());
    let before = threads_named("nvc-registry");
    assert_eq!(before, 1, "one selector and no request worker");

    let idle: Vec<TcpStream> = (0..256).map(|_| idle_connection(handle.addr())).collect();
    assert_eq!(handle.service().active_connections().get(), 257);
    assert_eq!(threads_named("nvc-registry"), before);
    drop((first, idle));
}
