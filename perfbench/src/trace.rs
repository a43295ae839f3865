//! Spans recorded by the benchmark around each call into a layer's
//! public functions. They stay in memory while the workload runs and
//! are written out at the end; self time is derived from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. Buffers of several threads share an epoch
/// and are merged with [`Spans::absorb`].
pub struct Spans {
    epoch: Instant,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            list: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let t = self.now_ns();
        self.list.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            req,
        });
        self.list.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.list[id].end_ns = self.now_ns();
    }

    /// Record a span from explicit instants (for calls timed elsewhere,
    /// such as pipelined HTTP requests).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.list.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            req,
        });
        self.list.len() - 1
    }

    /// Run `f` inside a span; returns its result and duration in µs.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, req);
        let r = f();
        self.close(id);
        (r, self.list[id].dur_ns() as f64 / 1e3)
    }

    /// Append another buffer's spans, re-basing its parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.list.len();
        self.list.extend(other.list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in µs of every span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Per span name: (count, total ns, self ns), where self time is a
    /// span's duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, c) in self.list.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(Instant::now());
        s.list = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                req: 1,
            },
            Span {
                name: "child",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                req: 1,
            },
            Span {
                name: "child",
                start_ns: 50,
                end_ns: 70,
                parent: Some(0),
                req: 1,
            },
        ];
        let t = s.self_times();
        assert_eq!(t["root"], (1, 100, 50));
        assert_eq!(t["child"], (2, 50, 50));
        let mut other = Spans::new(Instant::now());
        other.list = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 10,
                parent: None,
                req: 2,
            },
            Span {
                name: "child",
                start_ns: 0,
                end_ns: 5,
                parent: Some(0),
                req: 2,
            },
        ];
        s.absorb(other);
        assert_eq!(s.list[4].parent, Some(3));
        assert_eq!(s.self_times()["root"], (2, 110, 55));
    }
}
