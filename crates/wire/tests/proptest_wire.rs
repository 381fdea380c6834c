// The offline build environment has no `proptest` crate available, so these
// property tests are compiled only when the `slow-proptests` feature is
// enabled (which requires supplying a real proptest dependency).
#![cfg(feature = "slow-proptests")]

//! Property tests of the wire protocol: round-trip over generated messages
//! and total decoding over arbitrary bytes (a malicious or corrupt peer must
//! never panic the process).

use proptest::prelude::*;

use phoenix_storage::types::{Column, DataType, Row, Schema, Value};
use phoenix_wire::message::{CursorKind, FetchDir, Outcome, Request, Response};

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>()
            .prop_filter("no NaN", |f| !f.is_nan())
            .prop_map(Value::Float),
        "[ -~]{0,16}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(Value::Date),
    ]
}

fn row() -> impl Strategy<Value = Row> {
    prop::collection::vec(value(), 0..5)
}

fn schema() -> impl Strategy<Value = Schema> {
    prop::collection::vec(
        (
            "[a-z][a-z0-9_]{0,10}",
            prop::sample::select(vec![
                DataType::Int,
                DataType::Float,
                DataType::Text,
                DataType::Bool,
                DataType::Date,
            ]),
            any::<bool>(),
        ),
        0..6,
    )
    .prop_map(|cols| {
        Schema::new(
            cols.into_iter()
                .map(|(name, dtype, nullable)| Column {
                    name,
                    dtype,
                    nullable,
                })
                .collect(),
        )
    })
}

fn cursor_kind() -> impl Strategy<Value = CursorKind> {
    prop::sample::select(vec![
        CursorKind::ForwardOnly,
        CursorKind::Keyset,
        CursorKind::Dynamic,
    ])
}

fn fetch_dir() -> impl Strategy<Value = FetchDir> {
    prop_oneof![
        Just(FetchDir::Next),
        Just(FetchDir::Prior),
        any::<u64>().prop_map(FetchDir::Absolute),
    ]
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (
            "[ -~]{0,12}",
            "[ -~]{0,12}",
            prop::collection::vec(("[a-z]{1,8}", value()), 0..4),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(
                |(user, database, options, protocol, window)| Request::LoginV2 {
                    user,
                    database,
                    options,
                    protocol,
                    window
                }
            ),
        "[ -~]{0,64}".prop_map(|sql| Request::Exec { sql }),
        ("[ -~]{0,64}", cursor_kind()).prop_map(|(sql, kind)| Request::OpenCursor { sql, kind }),
        (any::<u64>(), fetch_dir(), any::<u32>()).prop_map(|(cursor, dir, n)| Request::Fetch {
            cursor,
            dir,
            n
        }),
        any::<u64>().prop_map(|cursor| Request::CloseCursor { cursor }),
        Just(Request::Ping),
        "[ -~]{0,24}".prop_map(|table| Request::Describe { table }),
        Just(Request::Logout),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (any::<u64>(), any::<u32>(), any::<u32>()).prop_map(|(session, protocol, window)| {
            Response::LoginAckV2 {
                session,
                protocol,
                window,
            }
        }),
        (
            prop_oneof![
                (schema(), prop::collection::vec(row(), 0..6))
                    .prop_map(|(schema, rows)| Outcome::ResultSet { schema, rows }),
                any::<u64>().prop_map(Outcome::RowsAffected),
                Just(Outcome::Done),
            ],
            prop::collection::vec("[ -~]{0,16}".prop_map(String::from), 0..3)
        )
            .prop_map(|(outcome, messages)| Response::Result { outcome, messages }),
        (any::<u64>(), schema(), cursor_kind()).prop_map(|(cursor, schema, granted)| {
            Response::CursorOpened {
                cursor,
                schema,
                granted,
            }
        }),
        (prop::collection::vec(row(), 0..6), any::<bool>())
            .prop_map(|(rows, at_end)| Response::Rows { rows, at_end }),
        Just(Response::Pong),
        (
            schema(),
            prop::collection::vec("[a-z]{1,8}".prop_map(String::from), 0..3)
        )
            .prop_map(|(schema, primary_key)| Response::TableInfo {
                schema,
                primary_key
            }),
        (any::<u16>(), "[ -~]{0,32}").prop_map(|(code, message)| Response::Err { code, message }),
        Just(Response::Bye),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn request_roundtrip(req in request()) {
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn response_roundtrip(rsp in response()) {
        prop_assert_eq!(Response::decode(&rsp.encode()).unwrap(), rsp);
    }

    /// Arbitrary bytes never panic the decoders.
    #[test]
    fn decoders_are_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Truncating a valid message always yields an error, never a panic or a
    /// silent partial decode that round-trips differently.
    #[test]
    fn truncation_detected(rsp in response(), frac in 0.0f64..1.0) {
        let full = rsp.encode();
        let cut = ((full.len() as f64) * frac) as usize;
        if cut < full.len() {
            prop_assert!(Response::decode(&full[..cut]).is_err());
        }
    }
}
