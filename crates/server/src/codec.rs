//! Line framing over a (possibly timeout-ticking) byte stream.
//!
//! `BufReader::read_line` cannot be used on a socket with a read
//! timeout: a timeout mid-line would drop the partial bytes already
//! read. [`LineReader`] keeps the partial line across ticks (a timeout,
//! or `WouldBlock` on the reactor's nonblocking sockets), so its caller
//! can attend to other work between reads without ever corrupting the
//! stream, and enforces a maximum line length by switching into
//! discard mode until the offending line's newline arrives.

use std::io::{ErrorKind, Read};

/// One framing outcome.
#[derive(Debug)]
pub enum LineEvent {
    /// A complete line (without its trailing newline).
    Line(String),
    /// The read timed out — no data lost; poll state and try again.
    Tick,
    /// The peer closed the stream.
    Eof,
    /// The current line exceeded the length cap; its bytes are being
    /// discarded up to the next newline. Reported once per long line.
    Overlong,
}

/// Incremental newline framer with a length cap.
pub struct LineReader {
    buf: Vec<u8>,
    max: usize,
    discarding: bool,
}

impl LineReader {
    /// A reader enforcing `max` bytes per line.
    pub fn new(max: usize) -> LineReader {
        LineReader {
            buf: Vec::new(),
            max,
            discarding: false,
        }
    }

    /// Pull the next framing event from `r`. Timeouts surface as
    /// [`LineEvent::Tick`] with all partial data retained.
    pub fn read_event(&mut self, r: &mut dyn Read) -> std::io::Result<LineEvent> {
        loop {
            while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                if self.discarding {
                    // Tail of an already-reported overlong line.
                    self.discarding = false;
                    continue;
                }
                if line.len() - 1 > self.max {
                    return Ok(LineEvent::Overlong);
                }
                let s = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                return Ok(LineEvent::Line(s));
            }
            if self.discarding {
                self.buf.clear();
            } else if self.buf.len() > self.max {
                self.buf.clear();
                self.discarding = true;
                return Ok(LineEvent::Overlong);
            }
            let mut chunk = [0u8; 4096];
            match r.read(&mut chunk) {
                Ok(0) => return Ok(LineEvent::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(LineEvent::Tick)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    /// A reader yielding scripted chunks, with `None` meaning a timeout.
    struct Script(Vec<Option<Vec<u8>>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0); // EOF
            }
            match self.0.remove(0) {
                Some(bytes) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                None => Err(io::Error::new(ErrorKind::WouldBlock, "tick")),
            }
        }
    }

    #[test]
    fn partial_lines_survive_ticks() {
        let mut r = Script(vec![
            Some(b"{\"id\":".to_vec()),
            None,
            Some(b"1}\nrest\n".to_vec()),
        ]);
        let mut lr = LineReader::new(1024);
        assert!(matches!(lr.read_event(&mut r).unwrap(), LineEvent::Tick));
        match lr.read_event(&mut r).unwrap() {
            LineEvent::Line(l) => assert_eq!(l, "{\"id\":1}"),
            other => panic!("{other:?}"),
        }
        match lr.read_event(&mut r).unwrap() {
            LineEvent::Line(l) => assert_eq!(l, "rest"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(lr.read_event(&mut r).unwrap(), LineEvent::Eof));
    }

    #[test]
    fn overlong_line_reported_once_then_discarded() {
        let mut big = vec![b'x'; 64];
        big.extend_from_slice(b"tail\nok\n");
        let mut r = Script(vec![Some(big)]);
        let mut lr = LineReader::new(16);
        assert!(matches!(
            lr.read_event(&mut r).unwrap(),
            LineEvent::Overlong
        ));
        match lr.read_event(&mut r).unwrap() {
            LineEvent::Line(l) => assert_eq!(l, "ok", "discard ends at the overlong newline"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multiple_lines_in_one_chunk() {
        let mut r = Script(vec![Some(b"a\nb\nc\n".to_vec())]);
        let mut lr = LineReader::new(1024);
        for expect in ["a", "b", "c"] {
            match lr.read_event(&mut r).unwrap() {
                LineEvent::Line(l) => assert_eq!(l, expect),
                other => panic!("{other:?}"),
            }
        }
    }
}
