//! Spans for the traced run: kept in memory, written out when the run
//! ends, and folded into per-layer self times.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes the recording [`Spans`]; roots
/// have none. `txn` groups the spans of one generated transaction.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub txn: u64,
}

/// A span log relative to a shared origin.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
    on: bool,
}

impl Spans {
    pub fn new(origin: Instant, on: bool) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
            on,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record `[start, end]`; returns the span's index (for children),
    /// or `None` when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        txn: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            txn,
        });
        Some(self.spans.len() - 1)
    }

    /// Time `f` as a root span.
    pub fn time<T>(&mut self, name: &'static str, txn: u64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.record(name, t, Instant::now(), None, txn);
        out
    }

    /// Append another log (its parent indices shift with it).
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover, summed, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(child[i]);
        }
        out
    }

    /// Write every span as one NDJSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                f,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"txn\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.txn
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut s = Spans::new(t0, true);
        let root = s.record("txn", t0, t0 + Duration::from_nanos(100), None, 1);
        s.record(
            "req",
            t0 + Duration::from_nanos(10),
            t0 + Duration::from_nanos(70),
            root,
            1,
        );
        let st = s.self_ns();
        assert_eq!(st["txn"], 40);
        assert_eq!(st["req"], 60);
    }
}
