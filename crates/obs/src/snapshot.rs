//! [`StatsSnapshot`]: an owned, wire-encodable picture of one instance's
//! metrics and recovery journal ([`crate::Obs::snapshot`]).
//!
//! The codec is hand-rolled little-endian (same discipline as
//! `phoenix-wire`'s frame codec) so this crate stays dependency-free and the
//! wire crate can carry snapshots as opaque bytes without depending on us.

use crate::journal::{Event, EventKind, Journal};
use crate::metrics::{HistogramSnapshot, BUCKETS};
use crate::registry::{MetricValue, Registry};

/// Format tag so stale peers fail loudly instead of misparsing.
const MAGIC: u32 = 0x50_48_58_53; // "PHXS"
const VERSION: u8 = 1;

/// Errors from [`StatsSnapshot::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer ended before the structure did.
    Truncated,
    /// Magic or version mismatch, or a structurally impossible length.
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "stats snapshot truncated"),
            DecodeError::Malformed(what) => write!(f, "stats snapshot malformed: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A point-in-time copy of every registered metric plus the retained event
/// journal. This is what `Request::Stats` returns over the wire and what
/// the `phoenix-stats` example pretty-prints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// `(key, value)` for every counter, key = `name` or `name{k="v",...}`.
    pub counters: Vec<(String, u64)>,
    /// `(key, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(key, buckets)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Retained journal events, oldest first.
    pub events: Vec<Event>,
}

impl StatsSnapshot {
    /// Capture one registry and one journal.
    pub(crate) fn capture_from(reg: &Registry, jnl: &Journal) -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        for (key, _help, value) in reg.collect() {
            match value {
                MetricValue::Counter(v) => snap.counters.push((key, v)),
                MetricValue::Gauge(v) => snap.gauges.push((key, v)),
                MetricValue::Histogram(h) => snap.histograms.push((key, *h)),
            }
        }
        snap.events = jnl.events();
        snap
    }

    /// Value of a counter by key, if present.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge by key, if present.
    pub fn gauge(&self, key: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Histogram snapshot by key, if present.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, h)| h)
    }

    /// Encode to the versioned little-endian wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        put_u32(&mut out, MAGIC);
        out.push(VERSION);

        put_u32(&mut out, self.counters.len() as u32);
        for (k, v) in &self.counters {
            put_str(&mut out, k);
            put_u64(&mut out, *v);
        }
        put_u32(&mut out, self.gauges.len() as u32);
        for (k, v) in &self.gauges {
            put_str(&mut out, k);
            put_u64(&mut out, *v as u64);
        }
        put_u32(&mut out, self.histograms.len() as u32);
        for (k, h) in &self.histograms {
            put_str(&mut out, k);
            // Sparse bucket encoding: histograms are mostly empty.
            let nonzero: Vec<(u8, u64)> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n != 0)
                .map(|(i, &n)| (i as u8, n))
                .collect();
            put_u32(&mut out, nonzero.len() as u32);
            for (i, n) in nonzero {
                out.push(i);
                put_u64(&mut out, n);
            }
        }
        put_u32(&mut out, self.events.len() as u32);
        for e in &self.events {
            put_u64(&mut out, e.seq);
            put_u64(&mut out, e.ts_us);
            out.push(e.kind.as_u8());
            put_str(&mut out, &e.component);
            put_str(&mut out, &e.detail);
        }
        out
    }

    /// Decode the wire form produced by [`StatsSnapshot::encode`].
    pub fn decode(buf: &[u8]) -> Result<StatsSnapshot, DecodeError> {
        let mut r = Reader { buf, pos: 0 };
        if r.u32()? != MAGIC {
            return Err(DecodeError::Malformed("bad magic"));
        }
        if r.u8()? != VERSION {
            return Err(DecodeError::Malformed("unsupported version"));
        }
        let mut snap = StatsSnapshot::default();

        for _ in 0..r.len_prefix()? {
            let k = r.string()?;
            let v = r.u64()?;
            snap.counters.push((k, v));
        }
        for _ in 0..r.len_prefix()? {
            let k = r.string()?;
            let v = r.u64()? as i64;
            snap.gauges.push((k, v));
        }
        for _ in 0..r.len_prefix()? {
            let k = r.string()?;
            let mut h = HistogramSnapshot::default();
            for _ in 0..r.len_prefix()? {
                let i = r.u8()? as usize;
                let n = r.u64()?;
                if i >= BUCKETS {
                    return Err(DecodeError::Malformed("bucket index out of range"));
                }
                h.buckets[i] = n;
            }
            snap.histograms.push((k, h));
        }
        for _ in 0..r.len_prefix()? {
            let seq = r.u64()?;
            let ts_us = r.u64()?;
            let kind = EventKind::from_u8(r.u8()?);
            let component = r.string()?;
            let detail = r.string()?;
            snap.events.push(Event {
                seq,
                ts_us,
                component,
                kind,
                detail,
            });
        }
        Ok(snap)
    }

    /// Human-oriented multi-line rendering: non-zero counters and gauges,
    /// histogram count/mean/p99, then the event timeline. Used by the
    /// `phoenix-stats` example and handy in test failure output.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        out.push_str("== counters ==\n");
        for (k, v) in &self.counters {
            if *v != 0 {
                out.push_str(&format!("  {k:<52} {v}\n"));
            }
        }
        out.push_str("== gauges ==\n");
        for (k, v) in &self.gauges {
            if *v != 0 {
                out.push_str(&format!("  {k:<52} {v}\n"));
            }
        }
        out.push_str("== histograms (count / ~mean_us / ~p99_us) ==\n");
        for (k, h) in &self.histograms {
            let c = h.count();
            if c != 0 {
                out.push_str(&format!(
                    "  {k:<52} {c} / {:.1} / {}\n",
                    h.approx_mean_us(),
                    h.approx_quantile(0.99)
                ));
            }
        }
        out.push_str("== journal ==\n");
        for e in &self.events {
            out.push_str(&format!(
                "  [{:>10} us] #{:<4} {:<8} {:<20} {}\n",
                e.ts_us,
                e.seq,
                e.component,
                e.kind.as_str(),
                e.detail
            ));
        }
        out
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A u32 element count, sanity-capped against the remaining buffer so a
    /// hostile length can't trigger a giant allocation.
    fn len_prefix(&mut self) -> Result<u32, DecodeError> {
        let n = self.u32()?;
        if n as usize > self.buf.len() - self.pos {
            return Err(DecodeError::Malformed("length exceeds buffer"));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.len_prefix()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Malformed("string not utf-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;
    use crate::registry::Registry;

    fn sample() -> StatsSnapshot {
        let reg = Registry::new();
        reg.counter("wal_fsyncs_total", "fsyncs").add(17);
        reg.counter_with("requests_total", "reqs", &[("type", "exec")])
            .add(3);
        reg.gauge("sessions_active", "sessions").set(2);
        let h = reg.histogram("fsync_us", "fsync latency");
        h.record(0);
        h.record(900);
        h.record(901);
        h.record(u64::MAX);

        let jnl = Journal::new();
        jnl.record("core", EventKind::CrashDetected, "comm failure");
        jnl.record("core", EventKind::ReconnectAttempt, "attempt 1");
        jnl.record("core", EventKind::RecoveryComplete, "1 cursor restored");
        StatsSnapshot::capture_from(&reg, &jnl)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        let bytes = snap.encode();
        let back = StatsSnapshot::decode(&bytes).unwrap();
        assert_eq!(snap, back);
        assert_eq!(back.counter("wal_fsyncs_total"), Some(17));
        assert_eq!(back.counter("requests_total{type=\"exec\"}"), Some(3));
        assert_eq!(back.gauge("sessions_active"), Some(2));
        assert_eq!(back.histogram("fsync_us").unwrap().count(), 4);
        assert_eq!(back.events.len(), 3);
        assert_eq!(back.events[1].kind, EventKind::ReconnectAttempt);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(StatsSnapshot::decode(&[]).is_err());
        assert!(StatsSnapshot::decode(&[1, 2, 3]).is_err());
        assert_eq!(
            StatsSnapshot::decode(&[0xFF; 32]),
            Err(DecodeError::Malformed("bad magic"))
        );
        // Right magic, wrong version.
        let mut bytes = sample().encode();
        bytes[4] = 99;
        assert_eq!(
            StatsSnapshot::decode(&bytes),
            Err(DecodeError::Malformed("unsupported version"))
        );
        // Truncation at every prefix length must error, never panic.
        let full = sample().encode();
        for cut in 0..full.len() {
            assert!(StatsSnapshot::decode(&full[..cut]).is_err());
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, MAGIC);
        bytes.push(VERSION);
        put_u32(&mut bytes, u32::MAX); // claims 4 billion counters
        assert_eq!(
            StatsSnapshot::decode(&bytes),
            Err(DecodeError::Malformed("length exceeds buffer"))
        );
    }

    #[test]
    fn pretty_rendering_mentions_everything_nonzero() {
        let text = sample().render_pretty();
        assert!(text.contains("wal_fsyncs_total"));
        assert!(text.contains("sessions_active"));
        assert!(text.contains("fsync_us"));
        assert!(text.contains("crash_detected"));
        assert!(text.contains("recovery_complete"));
    }
}
