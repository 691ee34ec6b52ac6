//! Line framing for the shared server: bytes in, complete protocol
//! lines out.
//!
//! [`LineFramer`] is a pure buffer — no socket, no clock — so the
//! boundary conditions (lines split at any byte, CRLF, blank lines, the
//! length bound) are unit-tested without a connection. Finding the
//! lines in a burst is linear in the burst: a cursor remembers how far
//! the buffer has been searched for `\n`, consumed lines are skipped by
//! moving `head`, and the bytes before `head` are dropped once, on the
//! next [`push`](LineFramer::push).

/// Hard line-length bound; a peer streaming an unbounded "line" is cut
/// off rather than allowed to grow the buffer forever. Counts the bytes
/// of one line only — any number of complete lines may arrive in a burst.
pub(crate) const MAX_LINE: usize = 16 * 1024 * 1024;

/// A line (terminated or still growing) exceeded [`MAX_LINE`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct LineTooLong;

/// Per-connection receive buffer that yields complete lines.
#[derive(Default)]
pub(crate) struct LineFramer {
    buf: Vec<u8>,
    /// First byte not yet handed out as part of a line.
    head: usize,
    /// `buf[head..scanned]` is known to hold no `\n`.
    scanned: usize,
}

impl LineFramer {
    /// Appends received bytes. Lines already taken are dropped from the
    /// buffer here, so what moves is at most one unfinished line.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.scanned -= self.head;
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete line, trimmed, invalid UTF-8 replaced; blank
    /// lines (and the `\r` of a CRLF) are skipped. `Ok(None)` when only
    /// an unfinished line is left.
    pub(crate) fn next_line(&mut self) -> Result<Option<String>, LineTooLong> {
        loop {
            let Some(offset) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') else {
                self.scanned = self.buf.len();
                return if self.buf.len() - self.head > MAX_LINE {
                    Err(LineTooLong)
                } else {
                    Ok(None)
                };
            };
            let end = self.scanned + offset;
            let raw = &self.buf[self.head..end];
            self.head = end + 1;
            self.scanned = end + 1;
            if raw.len() > MAX_LINE {
                return Err(LineTooLong);
            }
            let line = String::from_utf8_lossy(raw);
            let line = line.trim();
            if !line.is_empty() {
                return Ok(Some(line.to_string()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(f: &mut LineFramer) -> Result<Vec<String>, LineTooLong> {
        let mut lines = Vec::new();
        while let Some(line) = f.next_line()? {
            lines.push(line);
        }
        Ok(lines)
    }

    #[test]
    fn a_burst_of_short_lines_larger_than_the_bound_yields_every_line() {
        // 17 MiB of complete lines: the bound is per line, not per burst.
        let line = b"{\"op\":\"ping\"}\n";
        let count = (17 * 1024 * 1024) / line.len() + 1;
        let mut f = LineFramer::default();
        f.push(&line.repeat(count));
        let mut seen = 0usize;
        while let Some(l) = f.next_line().expect("short lines are never too long") {
            assert_eq!(l, "{\"op\":\"ping\"}");
            seen += 1;
        }
        assert_eq!(seen, count);
    }

    #[test]
    fn the_bound_counts_one_line_terminated_or_not() {
        let mut f = LineFramer::default();
        f.push(&vec![b'x'; MAX_LINE]);
        assert_eq!(f.next_line(), Ok(None), "exactly the bound is allowed");
        f.push(b"y");
        assert_eq!(f.next_line(), Err(LineTooLong), "16 MiB + 1 unterminated");

        // Complete lines ahead of the tail do not count towards it.
        let mut f = LineFramer::default();
        f.push(b"a\nb\n");
        f.push(&vec![b'x'; MAX_LINE]);
        assert_eq!(drain(&mut f), Ok(vec!["a".to_string(), "b".to_string()]));

        // An overlong line is refused even when its newline came along.
        let mut f = LineFramer::default();
        let mut long = vec![b'x'; MAX_LINE + 1];
        long.push(b'\n');
        f.push(&long);
        assert_eq!(f.next_line(), Err(LineTooLong));
    }

    #[test]
    fn a_line_split_at_every_byte_offset_reassembles() {
        let wire = b"{\"op\":\"ping\",\"id\":\"a\"}\n{\"op\":\"stats\"}\n";
        let want = vec![
            "{\"op\":\"ping\",\"id\":\"a\"}".to_string(),
            "{\"op\":\"stats\"}".to_string(),
        ];
        for cut in 0..=wire.len() {
            let mut f = LineFramer::default();
            let mut got = Vec::new();
            for part in [&wire[..cut], &wire[cut..]] {
                f.push(part);
                got.extend(drain(&mut f).unwrap());
            }
            assert_eq!(got, want, "split at byte {cut}");
        }
        // And one byte per push.
        let mut f = LineFramer::default();
        let mut got = Vec::new();
        for b in wire {
            f.push(std::slice::from_ref(b));
            got.extend(drain(&mut f).unwrap());
        }
        assert_eq!(got, want);
    }

    #[test]
    fn crlf_blank_lines_and_bad_utf8() {
        let mut f = LineFramer::default();
        f.push(b"\r\n\n  \n{\"op\":\"ping\"}\r\n\n\xff\xfe\ntail");
        assert_eq!(
            drain(&mut f),
            Ok(vec![
                "{\"op\":\"ping\"}".to_string(),
                "\u{fffd}\u{fffd}".to_string()
            ])
        );
        f.push(b"\n");
        assert_eq!(drain(&mut f), Ok(vec!["tail".to_string()]));
    }
}
