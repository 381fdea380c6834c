//! Logical write-ahead log records.
//!
//! The engine logs one record per durable mutation, tagged with the owning
//! transaction. Recovery replays, in log order, only the mutations of
//! transactions that have a `Commit` record — a *redo-winners* scheme that is
//! correct because the durable image is rebuilt exclusively from the snapshot
//! plus the log (the crashed process's in-memory state, which may contain
//! uncommitted work, is discarded wholesale).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec::{self, DecodeError};
use crate::types::{Row, RowId, TableDef, TxnId};

/// One logical log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// Transaction start.
    Begin {
        /// The transaction.
        txn: TxnId,
    },
    /// Transaction commit — the record that makes the transaction's
    /// mutations durable at recovery.
    Commit {
        /// The transaction.
        txn: TxnId,
    },
    /// Explicit rollback. Recovery treats missing-`Commit` and `Abort`
    /// identically; the record exists so the log is self-explanatory.
    Abort {
        /// The transaction.
        txn: TxnId,
    },
    /// A row inserted with the given stable id.
    Insert {
        /// Owning transaction.
        txn: TxnId,
        /// Target table (canonical name).
        table: String,
        /// The stable id assigned.
        row_id: RowId,
        /// The inserted row image.
        row: Row,
    },
    /// A batch of rows inserted with consecutive stable ids starting at
    /// `first_row_id` — one log append covers a whole multi-row statement
    /// (the `INSERT … SELECT` materialization hot path) instead of one
    /// append per row.
    InsertMany {
        /// Owning transaction.
        txn: TxnId,
        /// Target table (canonical name).
        table: String,
        /// Stable id of the first row; row `k` gets `first_row_id + k`.
        first_row_id: RowId,
        /// The inserted row images, in id order.
        rows: Vec<Row>,
    },
    /// A row deleted by id.
    Delete {
        /// Owning transaction.
        txn: TxnId,
        /// Target table.
        table: String,
        /// The deleted row's id.
        row_id: RowId,
    },
    /// A row replaced in place.
    Update {
        /// Owning transaction.
        txn: TxnId,
        /// Target table.
        table: String,
        /// The updated row's id.
        row_id: RowId,
        /// The new row image.
        row: Row,
    },
    /// A table created.
    CreateTable {
        /// Owning transaction.
        txn: TxnId,
        /// The new table's definition.
        def: TableDef,
    },
    /// A table dropped.
    DropTable {
        /// Owning transaction.
        txn: TxnId,
        /// The dropped table.
        name: String,
    },
    /// A stored procedure created; the body is kept as SQL text and re-parsed
    /// by the engine on load.
    CreateProc {
        /// Owning transaction.
        txn: TxnId,
        /// Procedure name.
        name: String,
        /// Full `CREATE PROCEDURE` SQL text.
        sql: String,
    },
    /// A stored procedure dropped.
    DropProc {
        /// Owning transaction.
        txn: TxnId,
        /// The dropped procedure.
        name: String,
    },
    /// A secondary index created. No index pages are ever logged — recovery
    /// replays this barrier and subsequent DML rebuilds the map (REDO-only).
    CreateIndex {
        /// Owning transaction.
        txn: TxnId,
        /// The owning table (canonical name).
        table: String,
        /// Index name.
        name: String,
        /// Index of the indexed column in the table schema.
        column: usize,
    },
    /// A secondary index dropped.
    DropIndex {
        /// Owning transaction.
        txn: TxnId,
        /// The owning table (canonical name), resolved when the statement
        /// executed so replay needs no catalog search.
        table: String,
        /// The dropped index.
        name: String,
    },
}

const T_BEGIN: u8 = 1;
const T_COMMIT: u8 = 2;
const T_ABORT: u8 = 3;
const T_INSERT: u8 = 4;
const T_DELETE: u8 = 5;
const T_UPDATE: u8 = 6;
const T_CREATE_TABLE: u8 = 7;
const T_DROP_TABLE: u8 = 8;
const T_CREATE_PROC: u8 = 9;
const T_DROP_PROC: u8 = 10;
const T_INSERT_MANY: u8 = 11;
/// Retired: the cross-partition commit of the partitioned write path. A
/// record carrying it decodes to an error naming the cause, never to a
/// commit.
const T_RETIRED_COMMIT_MULTI: u8 = 12;
const T_CREATE_INDEX: u8 = 13;
const T_DROP_INDEX: u8 = 14;

impl LogRecord {
    /// The transaction this record belongs to.
    pub fn txn(&self) -> TxnId {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::Insert { txn, .. }
            | LogRecord::InsertMany { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::Update { txn, .. }
            | LogRecord::CreateTable { txn, .. }
            | LogRecord::DropTable { txn, .. }
            | LogRecord::CreateProc { txn, .. }
            | LogRecord::DropProc { txn, .. }
            | LogRecord::CreateIndex { txn, .. }
            | LogRecord::DropIndex { txn, .. } => *txn,
        }
    }

    /// Serialize to the WAL payload encoding.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            LogRecord::Begin { txn } => {
                buf.put_u8(T_BEGIN);
                buf.put_u64_le(*txn);
            }
            LogRecord::Commit { txn } => {
                buf.put_u8(T_COMMIT);
                buf.put_u64_le(*txn);
            }
            LogRecord::Abort { txn } => {
                buf.put_u8(T_ABORT);
                buf.put_u64_le(*txn);
            }
            LogRecord::Insert {
                txn,
                table,
                row_id,
                row,
            } => {
                buf.put_u8(T_INSERT);
                buf.put_u64_le(*txn);
                codec::put_str(&mut buf, table);
                buf.put_u64_le(*row_id);
                codec::put_row(&mut buf, row);
            }
            LogRecord::InsertMany {
                txn,
                table,
                first_row_id,
                rows,
            } => {
                buf.put_u8(T_INSERT_MANY);
                buf.put_u64_le(*txn);
                codec::put_str(&mut buf, table);
                buf.put_u64_le(*first_row_id);
                buf.put_u32_le(rows.len() as u32);
                for row in rows {
                    codec::put_row(&mut buf, row);
                }
            }
            LogRecord::Delete { txn, table, row_id } => {
                buf.put_u8(T_DELETE);
                buf.put_u64_le(*txn);
                codec::put_str(&mut buf, table);
                buf.put_u64_le(*row_id);
            }
            LogRecord::Update {
                txn,
                table,
                row_id,
                row,
            } => {
                buf.put_u8(T_UPDATE);
                buf.put_u64_le(*txn);
                codec::put_str(&mut buf, table);
                buf.put_u64_le(*row_id);
                codec::put_row(&mut buf, row);
            }
            LogRecord::CreateTable { txn, def } => {
                buf.put_u8(T_CREATE_TABLE);
                buf.put_u64_le(*txn);
                codec::put_table_def(&mut buf, def);
            }
            LogRecord::DropTable { txn, name } => {
                buf.put_u8(T_DROP_TABLE);
                buf.put_u64_le(*txn);
                codec::put_str(&mut buf, name);
            }
            LogRecord::CreateProc { txn, name, sql } => {
                buf.put_u8(T_CREATE_PROC);
                buf.put_u64_le(*txn);
                codec::put_str(&mut buf, name);
                codec::put_str(&mut buf, sql);
            }
            LogRecord::DropProc { txn, name } => {
                buf.put_u8(T_DROP_PROC);
                buf.put_u64_le(*txn);
                codec::put_str(&mut buf, name);
            }
            LogRecord::CreateIndex {
                txn,
                table,
                name,
                column,
            } => {
                buf.put_u8(T_CREATE_INDEX);
                buf.put_u64_le(*txn);
                codec::put_str(&mut buf, table);
                codec::put_str(&mut buf, name);
                buf.put_u16_le(*column as u16);
            }
            LogRecord::DropIndex { txn, table, name } => {
                buf.put_u8(T_DROP_INDEX);
                buf.put_u64_le(*txn);
                codec::put_str(&mut buf, table);
                codec::put_str(&mut buf, name);
            }
        }
        buf.freeze()
    }

    /// Decode one record from WAL payload bytes.
    pub fn decode(bytes: &[u8]) -> Result<LogRecord, DecodeError> {
        let mut buf = bytes;
        if buf.remaining() < 9 {
            return Err(DecodeError("log record too short".into()));
        }
        let tag = buf.get_u8();
        let txn = buf.get_u64_le();
        let rec = match tag {
            T_BEGIN => LogRecord::Begin { txn },
            T_COMMIT => LogRecord::Commit { txn },
            T_ABORT => LogRecord::Abort { txn },
            T_RETIRED_COMMIT_MULTI => {
                return Err(DecodeError(format!(
                    "log record tag {T_RETIRED_COMMIT_MULTI} (cross-partition commit of txn \
                     {txn}) is retired: this log was written by a partitioned server"
                )))
            }
            T_INSERT => {
                let table = codec::get_str(&mut buf)?;
                if buf.remaining() < 8 {
                    return Err(DecodeError("truncated insert".into()));
                }
                let row_id = buf.get_u64_le();
                let row = codec::get_row(&mut buf)?;
                LogRecord::Insert {
                    txn,
                    table,
                    row_id,
                    row,
                }
            }
            T_INSERT_MANY => {
                let table = codec::get_str(&mut buf)?;
                if buf.remaining() < 12 {
                    return Err(DecodeError("truncated insert-many".into()));
                }
                let first_row_id = buf.get_u64_le();
                let count = buf.get_u32_le() as usize;
                let mut rows = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    rows.push(codec::get_row(&mut buf)?);
                }
                LogRecord::InsertMany {
                    txn,
                    table,
                    first_row_id,
                    rows,
                }
            }
            T_DELETE => {
                let table = codec::get_str(&mut buf)?;
                if buf.remaining() < 8 {
                    return Err(DecodeError("truncated delete".into()));
                }
                let row_id = buf.get_u64_le();
                LogRecord::Delete { txn, table, row_id }
            }
            T_UPDATE => {
                let table = codec::get_str(&mut buf)?;
                if buf.remaining() < 8 {
                    return Err(DecodeError("truncated update".into()));
                }
                let row_id = buf.get_u64_le();
                let row = codec::get_row(&mut buf)?;
                LogRecord::Update {
                    txn,
                    table,
                    row_id,
                    row,
                }
            }
            T_CREATE_TABLE => LogRecord::CreateTable {
                txn,
                def: codec::get_table_def(&mut buf)?,
            },
            T_DROP_TABLE => LogRecord::DropTable {
                txn,
                name: codec::get_str(&mut buf)?,
            },
            T_CREATE_PROC => {
                let name = codec::get_str(&mut buf)?;
                let sql = codec::get_str(&mut buf)?;
                LogRecord::CreateProc { txn, name, sql }
            }
            T_DROP_PROC => LogRecord::DropProc {
                txn,
                name: codec::get_str(&mut buf)?,
            },
            T_CREATE_INDEX => {
                let table = codec::get_str(&mut buf)?;
                let name = codec::get_str(&mut buf)?;
                if buf.remaining() < 2 {
                    return Err(DecodeError("truncated create-index".into()));
                }
                let column = buf.get_u16_le() as usize;
                LogRecord::CreateIndex {
                    txn,
                    table,
                    name,
                    column,
                }
            }
            T_DROP_INDEX => {
                let table = codec::get_str(&mut buf)?;
                let name = codec::get_str(&mut buf)?;
                LogRecord::DropIndex { txn, table, name }
            }
            other => return Err(DecodeError(format!("unknown log record tag {other}"))),
        };
        if buf.remaining() != 0 {
            return Err(DecodeError("trailing bytes in log record".into()));
        }
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Column, DataType, Schema, Value};

    fn roundtrip(rec: LogRecord) {
        let bytes = rec.encode();
        assert_eq!(LogRecord::decode(&bytes).unwrap(), rec);
    }

    #[test]
    fn all_records_roundtrip() {
        roundtrip(LogRecord::Begin { txn: 1 });
        roundtrip(LogRecord::Commit { txn: u64::MAX });
        roundtrip(LogRecord::Abort { txn: 7 });
        roundtrip(LogRecord::Insert {
            txn: 2,
            table: "dbo.orders".into(),
            row_id: 99,
            row: vec![Value::Int(1), Value::Text("x".into()), Value::Null],
        });
        roundtrip(LogRecord::InsertMany {
            txn: 2,
            table: "dbo.orders".into(),
            first_row_id: 100,
            rows: vec![
                vec![Value::Int(1), Value::Text("x".into())],
                vec![Value::Int(2), Value::Null],
                vec![Value::Int(3), Value::Text("z".into())],
            ],
        });
        roundtrip(LogRecord::InsertMany {
            txn: 9,
            table: "dbo.empty".into(),
            first_row_id: 1,
            rows: Vec::new(),
        });
        roundtrip(LogRecord::Delete {
            txn: 3,
            table: "dbo.orders".into(),
            row_id: 12,
        });
        roundtrip(LogRecord::Update {
            txn: 4,
            table: "t".into(),
            row_id: 5,
            row: vec![Value::Float(2.5)],
        });
        roundtrip(LogRecord::CreateTable {
            txn: 5,
            def: TableDef::new(
                "phoenix.rs_1",
                Schema::new(vec![Column::new("k", DataType::Int)]),
            )
            .with_primary_key(vec![0]),
        });
        roundtrip(LogRecord::DropTable {
            txn: 6,
            name: "phoenix.rs_1".into(),
        });
        roundtrip(LogRecord::CreateProc {
            txn: 7,
            name: "phoenix.p_1".into(),
            sql: "INSERT INTO t SELECT * FROM u".into(),
        });
        roundtrip(LogRecord::DropProc {
            txn: 8,
            name: "phoenix.p_1".into(),
        });
        roundtrip(LogRecord::CreateIndex {
            txn: 9,
            table: "dbo.orders".into(),
            name: "orders_cust".into(),
            column: 2,
        });
        roundtrip(LogRecord::DropIndex {
            txn: 10,
            table: "dbo.orders".into(),
            name: "orders_cust".into(),
        });
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = LogRecord::Begin { txn: 1 }.encode().to_vec();
        bytes.push(0);
        assert!(LogRecord::decode(&bytes).is_err());
    }

    /// The retired cross-partition commit decodes to an error, whatever
    /// follows its header — a participant list, a truncated one, nothing.
    #[test]
    fn retired_commit_multi_tag_is_a_decode_error() {
        let mut header = vec![T_RETIRED_COMMIT_MULTI];
        header.extend_from_slice(&7u64.to_le_bytes());
        for tail in [&[][..], &[2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0], &[0xff; 3]] {
            let bytes = [header.as_slice(), tail].concat();
            let err = LogRecord::decode(&bytes).unwrap_err();
            assert!(err.0.contains("retired"), "{err}");
        }
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(LogRecord::decode(&[1, 2, 3]).is_err());
    }
}
