//! Property tests of the `Stats` payload a driver decodes off the socket:
//! a snapshot round-trips, and hostile bytes — arbitrary ones, ones behind a
//! valid header, and every truncation of a valid snapshot — decode to a
//! snapshot or an error, never a panic.

use proptest::prelude::*;

use phoenix_obs::{Event, EventKind, HistogramSnapshot, StatsSnapshot, BUCKETS};

fn key() -> impl Strategy<Value = String> {
    "\\PC{0,24}"
}

fn histogram() -> impl Strategy<Value = HistogramSnapshot> {
    prop::collection::vec((0..BUCKETS, any::<u64>()), 0..6).prop_map(|filled| {
        let mut h = HistogramSnapshot::default();
        for (i, n) in filled {
            h.buckets[i] = n;
        }
        h
    })
}

fn event() -> impl Strategy<Value = Event> {
    (
        any::<u64>(),
        any::<u64>(),
        key(),
        any::<u8>(),
        "[ -~]{0,40}",
    )
        .prop_map(|(seq, ts_us, component, kind, detail)| Event {
            seq,
            ts_us,
            component,
            kind: EventKind::from_u8(kind),
            detail,
        })
}

fn snapshot() -> impl Strategy<Value = StatsSnapshot> {
    (
        prop::collection::vec((key(), any::<u64>()), 0..6),
        prop::collection::vec((key(), any::<i64>()), 0..4),
        prop::collection::vec((key(), histogram()), 0..4),
        prop::collection::vec(event(), 0..6),
    )
        .prop_map(|(counters, gauges, histograms, events)| StatsSnapshot {
            counters,
            gauges,
            histograms,
            events,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A snapshot round-trips, and every strict prefix of its encoding is
    /// an error.
    #[test]
    fn every_truncation_of_a_snapshot_is_an_error(snap in snapshot()) {
        let full = snap.encode();
        prop_assert_eq!(&StatsSnapshot::decode(&full).unwrap(), &snap);
        for cut in 0..full.len() {
            prop_assert!(
                StatsSnapshot::decode(&full[..cut]).is_err(),
                "a {cut}-byte prefix decoded"
            );
        }
    }

    /// Arbitrary bytes, bare or behind a valid magic and version (so the
    /// section parsers read them), decode to a snapshot or an error.
    #[test]
    fn decode_is_total(
        with_header in any::<bool>(),
        body in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = Vec::new();
        if with_header {
            bytes.extend_from_slice(&StatsSnapshot::default().encode()[..5]);
        }
        bytes.extend(body);
        let _ = StatsSnapshot::decode(&bytes);
    }
}
