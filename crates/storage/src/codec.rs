//! Compact binary encoding for values, rows, schemas and table definitions.
//!
//! One codec is shared by the write-ahead log, snapshots and the wire
//! protocol, so there is a single place where a value's byte representation
//! is defined. The format is tag-prefixed and self-describing enough to be
//! decoded without external schema information:
//!
//! ```text
//! value   := tag:u8 payload
//! tag     := 0 NULL | 1 INT(i64 LE) | 2 FLOAT(f64 LE) | 3 TEXT(len:u32 bytes)
//!          | 4 BOOL(u8) | 5 DATE(i32 LE)
//! row     := ncols:u16 value*
//! string  := len:u32 utf8-bytes
//! ```
//!
//! Decoding is strict: unknown tags, truncated buffers and invalid UTF-8 all
//! surface as [`DecodeError`] rather than panics, because the WAL reader must
//! treat a torn tail as end-of-log, not as a crash. Every decoder here is
//! one `Reader`, which hands strings and values back borrowed from the
//! bytes: the `get_*` functions own what it reads, and recovery's check of
//! a log record it keeps encoded walks the same reader and builds nothing.

use bytes::{Buf, BufMut};
use std::fmt;

use crate::types::{Column, DataType, IndexDef, Row, Schema, TableDef, Value};

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn err(msg: impl Into<String>) -> DecodeError {
    DecodeError(msg.into())
}

fn truncated(what: &str, need: usize, have: usize) -> DecodeError {
    err(format!("truncated {what}: need {need} bytes, have {have}"))
}

// ---------------------------------------------------------------------------
// The reader
// ---------------------------------------------------------------------------

/// A checked cursor over encoded bytes: the one parser of strings, values
/// and rows. Strings and values come back borrowed from the bytes, so a
/// caller that only needs to know the bytes decode — recovery's check of a
/// log record it keeps encoded — walks them without allocating, with the
/// very checks that building them applies.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
}

/// A value borrowed from its encoding.
#[derive(Debug)]
pub(crate) enum ValueRef<'a> {
    Null,
    Int(i64),
    Float(f64),
    Text(&'a str),
    Bool(bool),
    Date(i32),
}

impl From<ValueRef<'_>> for Value {
    fn from(v: ValueRef<'_>) -> Value {
        match v {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Text(s) => Value::Text(s.to_owned()),
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Date(d) => Value::Date(d),
        }
    }
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take<const N: usize>(&mut self, what: &str) -> Result<[u8; N], DecodeError> {
        match self.buf.split_first_chunk::<N>() {
            Some((head, rest)) => {
                self.buf = rest;
                Ok(*head)
            }
            None => Err(truncated(what, N, self.buf.len())),
        }
    }

    /// One byte.
    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, DecodeError> {
        Ok(self.take::<1>(what)?[0])
    }

    /// A little-endian `u16`.
    pub(crate) fn u16(&mut self, what: &str) -> Result<u16, DecodeError> {
        self.take(what).map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, DecodeError> {
        self.take(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, DecodeError> {
        self.take(what).map(u64::from_le_bytes)
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32("string length")? as usize;
        if self.buf.len() < len {
            return Err(truncated("string body", len, self.buf.len()));
        }
        let (body, rest) = self.buf.split_at(len);
        self.buf = rest;
        std::str::from_utf8(body).map_err(|_| err("invalid utf-8 in string"))
    }

    /// One value (tag + payload).
    pub(crate) fn value(&mut self) -> Result<ValueRef<'a>, DecodeError> {
        Ok(match self.u8("value tag")? {
            TAG_NULL => ValueRef::Null,
            TAG_INT => ValueRef::Int(self.take("int").map(i64::from_le_bytes)?),
            TAG_FLOAT => ValueRef::Float(self.take("float").map(f64::from_le_bytes)?),
            TAG_TEXT => ValueRef::Text(self.str()?),
            TAG_BOOL => ValueRef::Bool(self.u8("bool")? != 0),
            TAG_DATE => ValueRef::Date(self.take("date").map(i32::from_le_bytes)?),
            other => return Err(err(format!("unknown value tag {other}"))),
        })
    }

    /// One row (arity + values), as `R` makes it: built, or only checked.
    pub(crate) fn row<R: ReadRow>(&mut self) -> Result<R, DecodeError> {
        R::read_row(self)
    }
}

/// What [`Reader::row`] makes of a row's bytes: a built [`Row`], or `()`
/// for a row that is walked with every check and built into nothing.
pub(crate) trait ReadRow: Sized {
    /// Read one row from `r`.
    fn read_row(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

impl ReadRow for Row {
    fn read_row(r: &mut Reader<'_>) -> Result<Row, DecodeError> {
        let n = r.u16("row arity")? as usize;
        // Every value is at least its tag byte: an arity the bytes left
        // cannot hold reserves no more than they could.
        let mut row = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            row.push(r.value()?.into());
        }
        Ok(row)
    }
}

impl ReadRow for () {
    fn read_row(r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let n = r.u16("row arity")?;
        for _ in 0..n {
            r.value()?;
        }
        Ok(())
    }
}

/// Run `read` over the contiguous bytes of `buf` and advance it past what
/// was read: how the `get_*` functions below share the [`Reader`]. Every
/// caller decodes a contiguous buffer (`&[u8]`, `Bytes`).
fn with_reader<B: Buf, T>(
    buf: &mut B,
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut r = Reader::new(buf.chunk());
    let out = read(&mut r)?;
    let used = buf.chunk().len() - r.remaining();
    buf.advance(used);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

/// Encode a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Decode a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut impl Buf) -> Result<String, DecodeError> {
    with_reader(buf, |r| r.str().map(str::to_owned))
}

// ---------------------------------------------------------------------------
// Values and rows
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_BOOL: u8 = 4;
const TAG_DATE: u8 = 5;

/// Encode one value (tag + payload).
pub fn put_value(buf: &mut impl BufMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(*i);
        }
        Value::Float(f) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64_le(*f);
        }
        Value::Text(s) => {
            buf.put_u8(TAG_TEXT);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(*b as u8);
        }
        Value::Date(d) => {
            buf.put_u8(TAG_DATE);
            buf.put_i32_le(*d);
        }
    }
}

/// Decode one value.
pub fn get_value(buf: &mut impl Buf) -> Result<Value, DecodeError> {
    with_reader(buf, |r| r.value().map(Value::from))
}

/// Encode a row (arity + values).
pub fn put_row(buf: &mut impl BufMut, row: &[Value]) {
    buf.put_u16_le(row.len() as u16);
    for v in row {
        put_value(buf, v);
    }
}

/// Decode a row.
pub fn get_row(buf: &mut impl Buf) -> Result<Row, DecodeError> {
    with_reader(buf, |r| r.row())
}

// ---------------------------------------------------------------------------
// Schemas and table definitions
// ---------------------------------------------------------------------------

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
        DataType::Date => 4,
    }
}

fn dtype_from_tag(t: u8) -> Result<DataType, DecodeError> {
    Ok(match t {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Bool,
        4 => DataType::Date,
        other => return Err(err(format!("unknown data type tag {other}"))),
    })
}

/// Encode a schema (column names, types, nullability).
pub fn put_schema(buf: &mut impl BufMut, schema: &Schema) {
    buf.put_u16_le(schema.columns.len() as u16);
    for c in &schema.columns {
        put_str(buf, &c.name);
        buf.put_u8(dtype_tag(c.dtype));
        buf.put_u8(c.nullable as u8);
    }
}

/// Decode a schema.
pub fn get_schema(buf: &mut impl Buf) -> Result<Schema, DecodeError> {
    with_reader(buf, |r| r.schema())
}

/// Encode a full table definition (name + schema + primary key + indexes).
pub fn put_table_def(buf: &mut impl BufMut, def: &TableDef) {
    put_str(buf, &def.name);
    put_schema(buf, &def.schema);
    buf.put_u16_le(def.primary_key.len() as u16);
    for &i in &def.primary_key {
        buf.put_u16_le(i as u16);
    }
    buf.put_u16_le(def.indexes.len() as u16);
    for ix in &def.indexes {
        put_str(buf, &ix.name);
        buf.put_u16_le(ix.column as u16);
    }
}

/// Decode a table definition, validating key and index column indices
/// against the schema.
pub fn get_table_def(buf: &mut impl Buf) -> Result<TableDef, DecodeError> {
    with_reader(buf, |r| r.table_def())
}

impl Reader<'_> {
    /// A schema (column names, types, nullability).
    pub(crate) fn schema(&mut self) -> Result<Schema, DecodeError> {
        let n = self.u16("schema arity")? as usize;
        // A column is at least its name's length and two type bytes.
        let mut columns = Vec::with_capacity(n.min(self.remaining() / 6));
        for _ in 0..n {
            let name = self.str()?.to_owned();
            let [dtype, nullable] = self.take("column type")?;
            columns.push(Column {
                name,
                dtype: dtype_from_tag(dtype)?,
                nullable: nullable != 0,
            });
        }
        Ok(Schema { columns })
    }

    /// A table definition, its key and index column indices validated
    /// against its schema.
    pub(crate) fn table_def(&mut self) -> Result<TableDef, DecodeError> {
        let name = self.str()?.to_owned();
        let schema = self.schema()?;
        let n = self.u16("pk arity")? as usize;
        let mut primary_key = Vec::with_capacity(n.min(self.remaining() / 2));
        for _ in 0..n {
            let i = self.u16("pk index")? as usize;
            if i >= schema.columns.len() {
                return Err(err(format!("pk index {i} out of range")));
            }
            primary_key.push(i);
        }
        let n = self.u16("index count")? as usize;
        let mut indexes = Vec::with_capacity(n.min(self.remaining() / 6));
        for _ in 0..n {
            let ix_name = self.str()?.to_owned();
            let column = self.u16("index column")? as usize;
            if column >= schema.columns.len() {
                return Err(err(format!("index column {column} out of range")));
            }
            indexes.push(IndexDef {
                name: ix_name,
                column,
            });
        }
        Ok(TableDef {
            name,
            schema,
            primary_key,
            indexes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn roundtrip_value(v: Value) {
        let mut buf = BytesMut::new();
        put_value(&mut buf, &v);
        let mut b = buf.freeze();
        assert_eq!(get_value(&mut b).unwrap(), v);
        assert_eq!(b.remaining(), 0, "trailing bytes after {v:?}");
    }

    #[test]
    fn value_roundtrips() {
        roundtrip_value(Value::Null);
        roundtrip_value(Value::Int(-42));
        roundtrip_value(Value::Int(i64::MAX));
        roundtrip_value(Value::Float(3.25));
        roundtrip_value(Value::Float(f64::NEG_INFINITY));
        roundtrip_value(Value::Text(String::new()));
        roundtrip_value(Value::Text("héllo, wörld".into()));
        roundtrip_value(Value::Bool(true));
        roundtrip_value(Value::Date(-719468));
    }

    #[test]
    fn row_roundtrip() {
        let row: Row = vec![Value::Int(1), Value::Null, Value::Text("x".into())];
        let mut buf = BytesMut::new();
        put_row(&mut buf, &row);
        let mut b = buf.freeze();
        assert_eq!(get_row(&mut b).unwrap(), row);
    }

    #[test]
    fn schema_and_table_def_roundtrip() {
        let def = TableDef {
            name: "phoenix.rs_7".into(),
            schema: Schema::new(vec![
                Column::new("id", DataType::Int).not_null(),
                Column::new("name", DataType::Text),
                Column::new("when", DataType::Date),
            ]),
            primary_key: vec![0, 2],
            indexes: vec![IndexDef {
                name: "rs_7_name".into(),
                column: 1,
            }],
        };
        let mut buf = BytesMut::new();
        put_table_def(&mut buf, &def);
        let mut b = buf.freeze();
        assert_eq!(get_table_def(&mut b).unwrap(), def);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut buf = BytesMut::new();
        put_value(&mut buf, &Value::Text("hello".into()));
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut part = full.slice(..cut);
            assert!(get_value(&mut part).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let mut b = bytes::Bytes::from_static(&[200u8]);
        assert!(get_value(&mut b).is_err());
    }

    #[test]
    fn pk_index_out_of_range_rejected() {
        let def = TableDef {
            name: "t".into(),
            schema: Schema::new(vec![Column::new("a", DataType::Int)]),
            primary_key: vec![0],
            indexes: Vec::new(),
        };
        let mut buf = BytesMut::new();
        put_table_def(&mut buf, &def);
        let mut raw = buf.to_vec();
        // Corrupt the pk index (it sits before the empty index count at the
        // tail) to point out of range.
        let n = raw.len();
        raw[n - 4] = 9;
        let mut b = bytes::Bytes::from(raw);
        assert!(get_table_def(&mut b).is_err());
    }

    #[test]
    fn index_column_out_of_range_rejected() {
        let def = TableDef {
            name: "t".into(),
            schema: Schema::new(vec![Column::new("a", DataType::Int)]),
            primary_key: Vec::new(),
            indexes: vec![IndexDef {
                name: "ix".into(),
                column: 0,
            }],
        };
        let mut buf = BytesMut::new();
        put_table_def(&mut buf, &def);
        let mut raw = buf.to_vec();
        // The index column is the final u16.
        let n = raw.len();
        raw[n - 2] = 9;
        let mut b = bytes::Bytes::from(raw);
        assert!(get_table_def(&mut b).is_err());
    }
}
