//! A minimal NDJSON client that timestamps every line it reads, so
//! firing receipt can be timed exactly, and that can pipeline several
//! requests in one write. It speaks the server's own protocol types.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ode_server::{Command, Firing, Reply, ReplyResult, Request, ServerMsg, WireRow};

/// Lines kept per kind for the traced run's codec timings.
const KEEP: usize = 4096;

/// Raw lines seen on the connection, kept in traced runs only.
#[derive(Default)]
pub struct Lines {
    pub requests: Vec<String>,
    pub replies: Vec<String>,
    pub firings: Vec<String>,
    /// `Rows` lines with their row counts.
    pub rows: Vec<(String, usize)>,
}

impl Lines {
    pub fn absorb(&mut self, other: Lines) {
        let keep = |dst: &mut Vec<String>, src: Vec<String>| {
            dst.extend(src.into_iter().take(KEEP.saturating_sub(dst.len())));
        };
        keep(&mut self.requests, other.requests);
        keep(&mut self.replies, other.replies);
        keep(&mut self.firings, other.firings);
        let room = KEEP.saturating_sub(self.rows.len());
        self.rows.extend(other.rows.into_iter().take(room));
    }
}

pub struct Wire {
    w: TcpStream,
    r: BufReader<TcpStream>,
    next_id: u64,
    /// Firings read so far, with their receipt time.
    pub firings: Vec<(Instant, Firing)>,
    /// Raw lines, when recording.
    pub lines: Option<Lines>,
    /// NDJSON bytes written and read so far.
    pub bytes: u64,
    line: String,
}

pub type R<T> = Result<T, String>;

impl Wire {
    pub fn connect(addr: SocketAddr) -> R<Wire> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Wire {
            w: s,
            r,
            next_id: 0,
            firings: Vec::new(),
            lines: None,
            bytes: 0,
            line: String::new(),
        })
    }

    /// Keep raw lines for codec timings.
    pub fn record(&mut self) {
        self.lines = Some(Lines::default());
    }

    /// Send `cmds` in one write; returns their ids in order.
    pub fn send(&mut self, cmds: Vec<Command>) -> R<Vec<u64>> {
        let mut buf = String::new();
        let mut ids = Vec::with_capacity(cmds.len());
        for cmd in cmds {
            self.next_id += 1;
            ids.push(self.next_id);
            let line = serde_json::to_string(&Request {
                id: self.next_id,
                cmd,
            })
            .map_err(|e| e.to_string())?;
            if let Some(l) = self.lines.as_mut().filter(|l| l.requests.len() < KEEP) {
                l.requests.push(line.clone());
            }
            buf.push_str(&line);
            buf.push('\n');
        }
        self.w
            .write_all(buf.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.bytes += buf.len() as u64;
        Ok(ids)
    }

    /// Read one message and its receipt time; `None` when the read
    /// timeout passes first. A partial line survives the timeout.
    fn try_recv(&mut self) -> R<Option<(Instant, ServerMsg)>> {
        loop {
            match self.r.read_line(&mut self.line) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(_) if self.line.ends_with('\n') => break,
                Ok(_) => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let at = Instant::now();
        self.bytes += self.line.len() as u64;
        let text = self.line.trim_end();
        let msg: ServerMsg = serde_json::from_str(text).map_err(|e| format!("bad line: {e}"))?;
        if let Some(l) = self.lines.as_mut() {
            match &msg {
                ServerMsg::Firing(_) if l.firings.len() < KEEP => l.firings.push(text.to_string()),
                ServerMsg::Rows { rows, .. } if l.rows.len() < KEEP => {
                    l.rows.push((text.to_string(), rows.len()))
                }
                ServerMsg::Reply { .. } if l.replies.len() < KEEP => {
                    l.replies.push(text.to_string())
                }
                _ => {}
            }
        }
        self.line.clear();
        Ok(Some((at, msg)))
    }

    fn recv(&mut self) -> R<(Instant, ServerMsg)> {
        self.try_recv()?
            .ok_or_else(|| "timed out waiting for the server".to_string())
    }

    /// Wait for the reply to `id`, buffering firings and collecting
    /// query rows on the way.
    pub fn reply(&mut self, id: u64, rows: &mut Vec<WireRow>) -> R<(Instant, ReplyResult)> {
        loop {
            match self.recv()? {
                (at, ServerMsg::Firing(f)) => self.firings.push((at, f)),
                (_, ServerMsg::Rows { id: rid, rows: r }) if rid == id => rows.extend(r),
                (at, ServerMsg::Reply { id: rid, result }) if rid == id => return Ok((at, result)),
                (_, ServerMsg::Reply { id: 0, result }) => {
                    return Err(format!("server notice: {result:?}"))
                }
                (_, other) => return Err(format!("unexpected message awaiting {id}: {other:?}")),
            }
        }
    }

    /// Send one command and wait for its outcome.
    pub fn call(&mut self, cmd: Command) -> R<ReplyResult> {
        let id = self.send(vec![cmd])?[0];
        Ok(self.reply(id, &mut Vec::new())?.1)
    }

    /// Send one command that must succeed.
    pub fn ok(&mut self, cmd: Command) -> R<Reply> {
        match self.call(cmd)? {
            ReplyResult::Ok(r) => Ok(r),
            ReplyResult::Err(e) => Err(format!("server error [{}]: {}", e.code, e.message)),
        }
    }

    /// Block until a firing arrives (or `timeout` passes).
    pub fn wait_firing(&mut self, timeout: Duration) -> R<Option<(Instant, Firing)>> {
        self.w
            .set_read_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        let got = self.try_recv();
        self.w
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        match got? {
            None => Ok(None),
            Some((at, ServerMsg::Firing(f))) => Ok(Some((at, f))),
            Some((_, other)) => Err(format!("unexpected message on subscriber: {other:?}")),
        }
    }
}

/// Round-trip a `Ping`, returning its duration.
pub fn ping(w: &mut Wire) -> R<Duration> {
    let t = Instant::now();
    match w.ok(Command::Ping)? {
        Reply::Pong => Ok(t.elapsed()),
        other => Err(format!("expected Pong, got {other:?}")),
    }
}
