//! Spans recorded from the benchmark's own files, around each call into a
//! layer's public functions. Kept in memory and written out when the run
//! ends; nothing inside `crates/` is instrumented — that is a later issue.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `{name, start, end, parent, op_id}`: `parent` is the index of the span
/// that caused this one in the same recorder (−1 for a root) and spans of one
/// operation share `op_id`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i64,
    pub op_id: u64,
}

/// One recorder per thread; the run's recorders are written to one file.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

/// More spans than this are not kept: the traced pass is for attribution,
/// and a bounded file is worth more than the last hundred thousand copies
/// of the same two spans.
const MAX_SPANS: usize = 200_000;

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Open a span; returns its index for `end` and for children's `parent`.
    pub fn begin(&mut self, name: &'static str, parent: i64, op_id: u64) -> i64 {
        if self.spans.len() >= MAX_SPANS {
            return -1;
        }
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op_id,
        });
        self.spans.len() as i64 - 1
    }

    pub fn end(&mut self, span: i64) {
        if span >= 0 {
            self.spans[span as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// A root span of an operation that is only this one call.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.spans.len() < MAX_SPANS {
            let op_id = self.spans.len() as u64;
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                parent: -1,
                op_id,
            });
        }
    }

    /// Time a call as a child span.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: i64,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.begin(name, parent, op_id);
        let out = f();
        self.end(s);
        out
    }
}

/// Self time per span name, in nanoseconds: a span's duration minus the part
/// of it its child spans cover.
pub fn self_times(recorders: &[Recorder]) -> Vec<(&'static str, u64, u64)> {
    let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
    for rec in recorders {
        let mut covered = vec![0u64; rec.spans.len()];
        for s in &rec.spans {
            if s.parent >= 0 {
                covered[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        for (i, s) in rec.spans.iter().enumerate() {
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(covered[i]);
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(entry) => {
                    entry.1 += own;
                    entry.2 += 1;
                }
                None => by_name.push((s.name, own, 1)),
            }
        }
    }
    by_name
}

/// One JSON object per line; a span's id and its `parent` are written as
/// `<recorder>:<index>` so they stay unique in the one file.
pub fn write_jsonl(path: &Path, recorders: &[Recorder]) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    for (k, rec) in recorders.iter().enumerate() {
        for (i, s) in rec.spans.iter().enumerate() {
            let parent = if s.parent >= 0 {
                format!("\"{k}:{}\"", s.parent)
            } else {
                "null".to_string()
            };
            writeln!(
                out,
                "{{\"id\":\"{k}:{i}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op_id
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(Instant::now());
        r.spans.push(Span {
            name: "op",
            start_ns: 0,
            end_ns: 100,
            parent: -1,
            op_id: 1,
        });
        r.spans.push(Span {
            name: "call",
            start_ns: 10,
            end_ns: 70,
            parent: 0,
            op_id: 1,
        });
        let t = self_times(&[r]);
        assert_eq!(t, vec![("op", 40, 1), ("call", 60, 1)]);
    }
}
