//! The programs under test as OS processes: spawn, wait until listening,
//! sample `/proc`, shut down over the wire.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use nvc_serve::Json;

use crate::client::Conn;
use crate::procfs;

const READY_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// One spawned server (`nvc hub`, `nvc registry` or `paper_node`).
pub struct Server {
    pub name: String,
    pub addr: String,
    child: Child,
    /// Held open: the servers treat stdin EOF as "supervisor gone" and
    /// shut down, which also reaps them if the harness dies.
    _stdin: ChildStdin,
    log: PathBuf,
}

impl Server {
    /// Spawns `program args…` with stderr captured to `log_dir/<name>.log`
    /// and blocks until the server reports its listening address.
    pub fn spawn(
        name: &str,
        program: &Path,
        args: &[&str],
        log_dir: &Path,
    ) -> Result<Server, String> {
        let log = log_dir.join(format!("{name}.log"));
        let stderr = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let started = Instant::now();
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", program.display()))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        loop {
            let text = std::fs::read_to_string(&log).unwrap_or_default();
            if let Some(addr) = listening_addr(&text) {
                return Ok(Server {
                    name: name.to_string(),
                    addr,
                    child,
                    _stdin: stdin,
                    log,
                });
            }
            let exited = child.try_wait().map_err(|e| e.to_string())?.is_some();
            if exited || started.elapsed() > READY_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{name} never reported a listening address; its log says:\n{text}"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// utime + stime so far, in microseconds.
    pub fn cpu_us(&self) -> u64 {
        procfs::cpu_times(&self.pid()).map_or(0, |t| t.own_us)
    }

    /// Peak resident set so far, in kB.
    pub fn hwm_kb(&self) -> u64 {
        procfs::vm_hwm_kb(&self.pid()).unwrap_or(0)
    }

    /// One request/response on a fresh connection (control verbs).
    pub fn request(&self, line: &str) -> Result<Json, String> {
        Conn::connect(&self.addr)?.request(line)
    }

    /// The `stats` object of the `metrics` verb.
    pub fn metrics(&self) -> Result<Json, String> {
        let v = self.request(r#"{"op":"metrics"}"#)?;
        v.get("stats")
            .cloned()
            .ok_or_else(|| format!("{}: metrics response without `stats`", self.name))
    }

    /// Sends `shutdown`, then waits for the process to exit on its own.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.request(r#"{"op":"shutdown"}"#)?;
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => {
                    return Err(format!(
                        "{} exited with {status}; see {}",
                        self.name,
                        self.log.display()
                    ))
                }
                None if Instant::now() > deadline => {
                    return Err(format!("{} ignored shutdown", self.name))
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

impl Drop for Server {
    /// Error paths only: a server that was not shut down over the wire is
    /// killed and reaped so no process outlives the run.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Finds `listening on HOST:PORT` in a server's stderr.
fn listening_addr(log: &str) -> Option<String> {
    let rest = &log[log.find("listening on ")? + "listening on ".len()..];
    let addr: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | ':' | '[' | ']'))
        .collect();
    // The line must be complete: a partially flushed port would connect
    // to the wrong place.
    (rest.len() > addr.len() && addr.contains(':')).then_some(addr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_addr_reads_hub_and_registry_banners() {
        let hub = "nvc hub: registered `prod`\nnvc hub: listening on 127.0.0.1:40123 (1 models, fast kernels); send …\n";
        assert_eq!(listening_addr(hub).as_deref(), Some("127.0.0.1:40123"));
        let reg = "nvc registry: listening on 127.0.0.1:7209; hubs announce with --announce\n";
        assert_eq!(listening_addr(reg).as_deref(), Some("127.0.0.1:7209"));
        assert_eq!(listening_addr("nvc hub: registered `prod`\n"), None);
        assert_eq!(listening_addr("nvc hub: listening on 127.0.0.1:401"), None);
    }
}
