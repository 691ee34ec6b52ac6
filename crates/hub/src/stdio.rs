//! The hub protocol over a byte stream: `nvc serve`'s transport.
//!
//! Bytes are framed by the TCP server's [`LineFramer`], so the two
//! transports agree on what a line is — CRLF and blank lines skipped,
//! invalid UTF-8 replaced (the line then answers `invalid JSON` and the
//! session goes on), one line bounded at 16 MiB — and each line is
//! answered by [`Hub::handle_line`], in order. The session ends on the
//! `shutdown` verb, at end of input, or at a line over the bound; every
//! end runs [`Hub::shutdown`] (in-flight batches complete) and writes one
//! last line, `{"final_stats": …}`, the hub's `stats`.

use std::io::{ErrorKind, Read, Write};

use nvc_obs::json::with_id;

use crate::framing::LineFramer;
use crate::Hub;

/// Bytes asked of `input` per read.
const READ_CHUNK: usize = 64 * 1024;

/// Answers every line of `input` on `output` until the session ends (see
/// the module docs), then drains `hub` and writes the `final_stats` line.
/// An unterminated last line is answered like a terminated one.
///
/// # Errors
///
/// A failed read of `input` or write to `output`.
pub fn serve_stdio(
    hub: &Hub,
    mut input: impl Read,
    output: &mut impl Write,
) -> std::io::Result<()> {
    let mut framer = LineFramer::default();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut eof = false;
    loop {
        match framer.next_line() {
            Ok(Some(line)) => {
                let (response, keep_going) = hub.handle_line(&line);
                writeln!(output, "{response}")?;
                output.flush()?;
                if !keep_going {
                    break;
                }
                continue;
            }
            Ok(None) if !eof => {}
            Ok(None) | Err(_) => break,
        }
        match input.read(&mut chunk) {
            Ok(0) => {
                eof = true;
                framer.push(b"\n");
            }
            Ok(n) => framer.push(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    hub.shutdown();
    writeln!(
        output,
        "{}",
        with_id(None, vec![("final_stats", hub.stats_json())])
    )?;
    output.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::MAX_LINE;
    use crate::tests::stub_spec;
    use crate::HubConfig;
    use nvc_embed::PathSample;
    use nvc_obs::Json;
    use nvc_serve::{ServeConfig, ServeError};

    /// Two innermost loops of different shapes.
    const SRC: &str = "float a[512]; float b[512]; float M[32][32];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] * 2.0;
    }
    for (int i = 0; i < 32; i++) {
        for (int j = 0; j < 32; j++) {
            M[i][j] = 0.0;
        }
    }
}";

    /// `nvc serve`'s hub: one model, registered as `default`.
    fn hub() -> Hub {
        let hub = Hub::new(HubConfig::default(), ServeConfig::default().with_workers(1));
        hub.register(stub_spec("default", 1, 0)).unwrap();
        hub
    }

    /// Runs a session over `input`; returns the parsed output lines.
    fn session(hub: &Hub, input: &[u8]) -> Vec<Json> {
        let mut out = Vec::new();
        serve_stdio(hub, input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        text.lines()
            .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
            .collect()
    }

    fn at<'a>(v: &'a Json, path: &[&str]) -> &'a Json {
        path.iter().fold(v, |v, k| {
            v.get(k)
                .unwrap_or_else(|| panic!("no {path:?} in {}", v.render()))
        })
    }

    /// The drain really stopped the model's worker pool: a miss is
    /// refused at once instead of queued.
    fn assert_pool_shut_down(hub: &Hub) {
        let entry = hub.registry().get("default").unwrap();
        let never_seen = PathSample {
            starts: vec![99],
            paths: vec![98],
            ends: vec![97],
        };
        let refused = entry.handle.decide_sample(&never_seen);
        assert_eq!(refused.unwrap_err(), ServeError::ShuttingDown);
    }

    #[test]
    fn daemon_speaks_json_lines() {
        let hub = hub();
        let src_json = Json::from(SRC).render();
        let input = format!(
            "{{\"op\":\"vectorize\",\"id\":\"r1\",\"source\":{src_json}}}\n\
             {{\"op\":\"stats\"}}\n\
             not json\n\
             {{\"op\":\"shutdown\",\"id\":\"bye\"}}\n\
             {{\"op\":\"stats\"}}\n"
        );
        let lines = session(&hub, input.as_bytes());
        assert_eq!(
            lines.len(),
            5,
            "daemon must stop at shutdown, then emit one final_stats line"
        );

        let r1 = &lines[0];
        assert_eq!(at(r1, &["id"]).as_str(), Some("r1"));
        assert_eq!(at(r1, &["ok"]).as_bool(), Some(true));
        assert_eq!(at(r1, &["model"]).as_str(), Some("default"));
        let source = at(r1, &["source"]).as_str().unwrap();
        assert!(source.contains("#pragma clang loop"));
        assert_eq!(at(r1, &["loops"]).as_array().unwrap().len(), 2);

        let stats = &lines[1];
        let requests = at(stats, &["stats", "models", "default", "requests"]);
        assert_eq!(requests.as_f64(), Some(1.0));

        assert_eq!(at(&lines[2], &["ok"]).as_bool(), Some(false));

        let bye = &lines[3];
        assert_eq!(at(bye, &["shutdown"]).as_bool(), Some(true));
        assert_eq!(at(bye, &["id"]).as_str(), Some("bye"));

        // Graceful drain: the last line is the session's final counters.
        let fin = at(&lines[4], &["final_stats"]);
        let requests = at(fin, &["models", "default", "requests"]);
        assert_eq!(requests.as_f64(), Some(1.0));
        assert!(at(fin, &["uptime_us"]).as_f64().unwrap() > 0.0);
        assert_pool_shut_down(&hub);
    }

    #[test]
    fn daemon_drains_and_reports_on_eof() {
        // No shutdown request: the client just closes stdin (Ctrl-D).
        let hub = hub();
        let src_json = Json::from(SRC).render();
        let input = format!("{{\"op\":\"vectorize\",\"source\":{src_json}}}\n");
        let lines = session(&hub, input.as_bytes());
        assert_eq!(lines.len(), 2, "response + final_stats");
        let fin = at(&lines[1], &["final_stats"]);
        let loops = at(fin, &["models", "default", "loops_served"]);
        assert_eq!(loops.as_f64(), Some(2.0));
        assert_pool_shut_down(&hub);
    }

    #[test]
    fn a_non_utf8_line_is_answered_and_the_session_goes_on() {
        let hub = hub();
        let input = b"{\"op\":\"ping\",\"id\":\"p\"}\n\xff\xfe\n{\"op\":\"stats\",\"id\":\"s\"}";
        let lines = session(&hub, input);
        assert_eq!(lines.len(), 4, "pong, error, stats, final_stats");
        assert_eq!(at(&lines[0], &["pong"]).as_bool(), Some(true));
        let error = at(&lines[1], &["error"]).as_str().unwrap();
        assert!(error.starts_with("invalid JSON"), "{error}");
        assert_eq!(at(&lines[2], &["id"]).as_str(), Some("s"));
        assert!(lines[3].get("final_stats").is_some());
    }

    #[test]
    fn a_line_over_the_bound_ends_the_session_like_eof() {
        let hub = hub();
        let mut input = b"{\"op\":\"ping\",\"id\":\"p\"}\n".to_vec();
        input.extend(vec![b'x'; MAX_LINE + 1]);
        input.extend(b"\n{\"op\":\"ping\",\"id\":\"after\"}\n");
        let lines = session(&hub, &input);
        assert_eq!(lines.len(), 2, "the pong, then final_stats");
        assert_eq!(at(&lines[0], &["id"]).as_str(), Some("p"));
        assert!(lines[1].get("final_stats").is_some());
        assert_pool_shut_down(&hub);
    }
}
