//! Append-only JSONL journals: one line per record, flushed as written,
//! safe to share between threads. The PPO trainer writes one record per
//! training iteration; figure regeneration and the future online-
//! learning loop replay them.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// A line-oriented journal over any `Write` sink.
pub struct Journal {
    sink: Mutex<Box<dyn Write + Send>>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal").finish_non_exhaustive()
    }
}

impl Journal {
    /// Creates (truncating) a journal file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Journal> {
        let file = File::create(path)?;
        Ok(Journal::from_writer(Box::new(BufWriter::new(file))))
    }

    /// Opens a journal at `path` in append mode, creating it if missing.
    /// Existing lines survive — this is the constructor for corpora that
    /// must accumulate across process restarts (the hub's online-learning
    /// journal); per-run telemetry keeps [`Journal::create`]'s truncate
    /// semantics.
    pub fn append(path: impl AsRef<Path>) -> io::Result<Journal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal::from_writer(Box::new(BufWriter::new(file))))
    }

    /// Wraps an arbitrary sink (tests use `Vec<u8>` behind a pipe).
    pub fn from_writer(sink: Box<dyn Write + Send>) -> Journal {
        Journal {
            sink: Mutex::new(sink),
        }
    }

    /// Appends `line` plus a newline and flushes. Errors are swallowed:
    /// telemetry must never take training down.
    pub fn write_line(&self, line: &str) {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        let _ = sink.write_all(line.as_bytes());
        let _ = sink.write_all(b"\n");
        let _ = sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A sink that appends into a shared buffer.
    struct Shared(Arc<StdMutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn lines_append_in_order_across_threads() {
        let buf = Arc::new(StdMutex::new(Vec::new()));
        let j = Arc::new(Journal::from_writer(Box::new(Shared(Arc::clone(&buf)))));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    for k in 0..25 {
                        j.write_line(&format!("{{\"t\":{i},\"k\":{k}}}"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 100);
        // Every line is intact JSON — no interleaving inside a line.
        for l in lines {
            assert!(l.starts_with("{\"t\":") && l.ends_with('}'), "torn: {l}");
        }
    }

    #[test]
    fn journal_file_round_trips() {
        let dir = std::env::temp_dir().join(format!("nvc-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("train.jsonl");
        let j = Journal::create(&path).unwrap();
        j.write_line("{\"iter\":0}");
        j.write_line("{\"iter\":1}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"iter\":0}\n{\"iter\":1}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_mode_survives_a_restart() {
        let dir = std::env::temp_dir().join(format!("nvc-journal-append-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("learn.jsonl");
        {
            let j = Journal::append(&path).unwrap();
            j.write_line("{\"report\":0}");
        }
        // A second open (the restarted process) must keep the first
        // run's lines and extend them.
        {
            let j = Journal::append(&path).unwrap();
            j.write_line("{\"report\":1}");
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"report\":0}\n{\"report\":1}\n");
        // `create` on the same path still truncates.
        let j = Journal::create(&path).unwrap();
        j.write_line("{\"fresh\":true}");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"fresh\":true}\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
