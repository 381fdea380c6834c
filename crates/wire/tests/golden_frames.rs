//! Golden-frame snapshot tests: the exact byte encodings of the protocol's
//! messages, checked against fixtures committed to the repo.
//!
//! Most fixtures are bare message bodies (`req_*`, `rsp_*`, and the
//! `v2_*` messages that arrived with tagged framing): on the socket each
//! travels inside a tagged frame after login, or in an untagged one before
//! it. `v2_tagged_frame` pins one whole tagged frame, length header and tag
//! prefix included.
//!
//! Codec roundtrip tests prove encode/decode agree *with each other*; they
//! cannot catch both sides drifting together (which would silently break
//! interop with already-deployed peers). These tests pin the bytes
//! themselves. If an encoding change is intentional — a new protocol
//! revision — regenerate with:
//!
//! ```text
//! BLESS=1 cargo test -p phoenix-wire --test golden_frames
//! ```
//!
//! and review the fixture diff like any other wire-format change.

use phoenix_storage::types::{Column, DataType, Schema, Value};
use phoenix_wire::{BatchItem, CursorKind, FetchDir, Outcome, Request, Response};
use phoenix_wire::{DEFAULT_WINDOW, PROTOCOL_V2};

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 3);
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 {
            out.push(if i % 16 == 0 { '\n' } else { ' ' });
        }
        out.push_str(&format!("{b:02x}"));
    }
    out.push('\n');
    out
}

fn check(name: &str, bytes: &[u8]) -> Result<(), String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.hex"));
    let got = hex(bytes);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return Ok(());
    }
    let want = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{name}: missing fixture {} ({e}); run with BLESS=1",
            path.display()
        )
    })?;
    if want != got {
        return Err(format!(
            "{name}: encoding drifted from committed fixture.\n--- fixture\n{want}--- actual\n{got}"
        ));
    }
    Ok(())
}

/// The canonical message set. Deliberately exercises every variant and every
/// nested encoding branch (outcome kinds, value types, batch item kinds).
fn golden_set() -> Vec<(&'static str, Vec<u8>)> {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int).not_null(),
        Column::new("name", DataType::Text),
    ]);
    vec![
        (
            "req_exec",
            Request::Exec {
                sql: "SELECT * FROM customer".into(),
            }
            .encode(),
        ),
        (
            "req_open_cursor",
            Request::OpenCursor {
                sql: "SELECT id FROM customer".into(),
                kind: CursorKind::Keyset,
            }
            .encode(),
        ),
        (
            "req_fetch",
            Request::Fetch {
                cursor: 7,
                dir: FetchDir::Absolute(41),
                n: 16,
            }
            .encode(),
        ),
        (
            "req_close_cursor",
            Request::CloseCursor { cursor: 7 }.encode(),
        ),
        ("req_ping", Request::Ping.encode()),
        (
            "req_describe",
            Request::Describe {
                table: "dbo.orders".into(),
            }
            .encode(),
        ),
        ("req_stats", Request::Stats.encode()),
        ("req_logout", Request::Logout.encode()),
        (
            "rsp_result_rows",
            Response::Result {
                outcome: Outcome::ResultSet {
                    schema: schema.clone(),
                    rows: vec![
                        vec![Value::Int(1), Value::Text("Smith".into())],
                        vec![Value::Int(2), Value::Null],
                    ],
                },
                messages: vec!["2 row(s) returned".into()],
            }
            .encode(),
        ),
        (
            "rsp_result_affected",
            Response::Result {
                outcome: Outcome::RowsAffected(1500),
                messages: Vec::new(),
            }
            .encode(),
        ),
        (
            "rsp_cursor_opened",
            Response::CursorOpened {
                cursor: 9,
                schema: schema.clone(),
                granted: CursorKind::ForwardOnly,
            }
            .encode(),
        ),
        (
            "rsp_rows",
            Response::Rows {
                rows: vec![vec![Value::Float(1.5), Value::Bool(true)]],
                at_end: true,
            }
            .encode(),
        ),
        (
            "rsp_err",
            Response::Err {
                code: 2,
                message: "no such table 'x'".into(),
            }
            .encode(),
        ),
        ("rsp_bye", Response::Bye.encode()),
        (
            "v2_req_login",
            Request::LoginV2 {
                user: "alice".into(),
                database: "orders".into(),
                options: vec![("lock_timeout".into(), Value::Int(5))],
                protocol: PROTOCOL_V2,
                window: DEFAULT_WINDOW,
            }
            .encode(),
        ),
        (
            "v2_req_exec_batch",
            Request::ExecBatch {
                stmts: vec![
                    "BEGIN TRANSACTION".into(),
                    "UPDATE t SET v = 1".into(),
                    "COMMIT".into(),
                ],
            }
            .encode(),
        ),
        (
            "v2_rsp_login_ack",
            Response::LoginAckV2 {
                session: 12,
                protocol: PROTOCOL_V2,
                window: 8,
            }
            .encode(),
        ),
        (
            "v2_rsp_batch_result",
            Response::BatchResult {
                items: vec![
                    BatchItem::Ok {
                        outcome: Outcome::Done,
                        messages: Vec::new(),
                    },
                    BatchItem::Ok {
                        outcome: Outcome::RowsAffected(3),
                        messages: vec!["3 row(s) affected".into()],
                    },
                    BatchItem::Ok {
                        outcome: Outcome::ResultSet {
                            schema,
                            rows: vec![vec![Value::Int(3), Value::Text("ok".into())]],
                        },
                        messages: Vec::new(),
                    },
                    BatchItem::Err {
                        code: 6,
                        message: "duplicate primary key".into(),
                    },
                ],
            }
            .encode(),
        ),
        ("v2_tagged_frame", {
            // A full tagged frame as it appears on the socket: length
            // header, tag prefix, then the message payload.
            let mut buf = Vec::new();
            phoenix_wire::write_tagged_frame(
                &mut buf,
                0x0102_0304_0506_0708,
                &Request::Exec {
                    sql: "SELECT 1".into(),
                }
                .encode(),
            )
            .unwrap();
            buf
        }),
    ]
}

#[test]
fn encodings_match_committed_fixtures() {
    let mut failures = Vec::new();
    for (name, bytes) in golden_set() {
        if let Err(e) = check(name, &bytes) {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn fixtures_decode_back_to_messages() {
    // Every committed message fixture must decode on today's code — this is
    // the direction an already-deployed client exercises against a new
    // server.
    for (name, bytes) in golden_set() {
        if name.contains("req_") {
            Request::decode(&bytes).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        } else if name.contains("rsp_") {
            Response::decode(&bytes).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        }
    }
}
