//! The value model shared by every layer of the stack.
//!
//! The engine, the WAL, snapshots and the wire protocol all speak in terms of
//! these types, so a row read off the network is byte-for-byte the row that
//! was logged and the row the executor evaluates predicates over.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// A transaction identifier. Assigned by the durability layer, monotonically
/// increasing within one server incarnation and across restarts (the snapshot
/// records the high-water mark).
pub type TxnId = u64;

/// A stable row identifier within one table.
///
/// Row ids are assigned at insert time, never reused, and are recorded in the
/// log so that crash recovery reproduces them exactly. Server-side keyset
/// cursors and the engine's update/delete paths address rows by id.
pub type RowId = u64;

/// A row is a flat vector of values, positionally matching its table schema.
pub type Row = Vec<Value>;

/// The SQL data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (`INT`, `BIGINT`).
    Int,
    /// 64-bit IEEE float (`FLOAT`, `DOUBLE`, `DECIMAL` is mapped here).
    Float,
    /// UTF-8 string (`TEXT`, `VARCHAR(n)` — length is advisory only).
    Text,
    /// Boolean (`BOOL`).
    Bool,
    /// Calendar date stored as days since 1970-01-01 (`DATE`).
    Date,
}

impl DataType {
    /// The SQL spelling used when the type is rendered back to SQL
    /// (e.g. by Phoenix's `CREATE TABLE` rewrite of result-set metadata).
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
            DataType::Date => "DATE",
        }
    }

    /// Parse a SQL type name (case-insensitive, common synonyms accepted).
    pub fn from_sql_name(name: &str) -> Option<DataType> {
        Some(match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => DataType::Int,
            "FLOAT" | "DOUBLE" | "REAL" | "DECIMAL" | "NUMERIC" => DataType::Float,
            "TEXT" | "VARCHAR" | "CHAR" | "STRING" | "NVARCHAR" => DataType::Text,
            "BOOL" | "BOOLEAN" | "BIT" => DataType::Bool,
            "DATE" | "DATETIME" | "TIMESTAMP" => DataType::Date,
            _ => return None,
        })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A single SQL value.
///
/// `Value` implements a *total* order (`Ord`): `NULL` sorts first, then
/// booleans, integers/floats (compared numerically against each other; of
/// an integer and a float that compare equal, the integer first), dates,
/// and text. So `cmp` is `Equal` exactly when `==` holds, and a map keyed
/// by values never holds two keys it cannot tell apart. The executor's
/// ORDER BY, the keyset cursor's key order and the B-tree-style
/// primary-key lookups all rely on this order; SQL comparison
/// (`phoenix-engine`'s `eval::compare`) makes `1 = 1.0` true on its own.
///
/// Floats use IEEE-754 *total ordering* throughout (`f64::total_cmp`), and
/// `PartialEq`/`Hash` are defined to agree with it bit-for-bit: `-0.0` and
/// `+0.0` are distinct values, and a NaN equals an identical NaN. This keeps
/// `Eq`, `Ord` and `Hash` mutually consistent — the contract `BTreeMap`
/// (primary-key indexes) and `HashMap` (hash joins, grouping) both require —
/// at the cost of a small, documented deviation from IEEE `==` semantics.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL `NULL`.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string.
    Text(String),
    /// Boolean.
    Bool(bool),
    /// Days since the Unix epoch.
    Date(i32),
}

impl Value {
    /// The dynamic type of this value, or `None` for `NULL`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// Is this `NULL`?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it has one. Integers widen to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (floats truncate); `None` for non-numerics.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// Borrowed text, if this is a `Text` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Coerce this value to `ty` where a lossless or conventional conversion
    /// exists (int↔float, int→date). Used when inserting literals into typed
    /// columns. Returns `None` when no sensible coercion exists.
    pub fn coerce_to(&self, ty: DataType) -> Option<Value> {
        match (self, ty) {
            (Value::Null, _) => Some(Value::Null),
            (v, t) if v.data_type() == Some(t) => Some(v.clone()),
            (Value::Int(i), DataType::Float) => Some(Value::Float(*i as f64)),
            (Value::Float(f), DataType::Int) if f.fract() == 0.0 => Some(Value::Int(*f as i64)),
            (Value::Int(i), DataType::Date) => Some(Value::Date(*i as i32)),
            (Value::Date(d), DataType::Int) => Some(Value::Int(*d as i64)),
            (Value::Text(s), DataType::Date) => parse_date(s).map(Value::Date),
            _ => None,
        }
    }

    /// Rank used by the total order: orders the type families, and breaks
    /// a numeric tie between an integer and a float.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Date(_) => 4,
            Value::Text(_) => 5,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            // Bit-level (total-order) float equality; see the type docs.
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b) == Ordering::Equal,
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        let ord = match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Date(a), Date(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            _ => Ordering::Equal,
        };
        ord.then_with(|| self.type_rank().cmp(&other.type_rank()))
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Text(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
            Value::Date(d) => d.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Date(d) => write!(f, "{}", format_date(*d)),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Parse an ISO `YYYY-MM-DD` date into days since the Unix epoch.
///
/// Implements the civil-calendar conversion directly (no chrono dependency);
/// valid for the full proleptic Gregorian calendar.
pub fn parse_date(s: &str) -> Option<i32> {
    let mut parts = s.split('-');
    let y: i64 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    if parts.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(days_from_civil(y, m, d))
}

/// Howard Hinnant's `days_from_civil` algorithm.
pub fn days_from_civil(y: i64, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = ((m + 9) % 12) as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era * 146097 + doe - 719468) as i32
}

/// Inverse of [`days_from_civil`]: days-since-epoch → `(year, month, day)`.
pub fn civil_from_days(z: i32) -> (i64, u32, u32) {
    let z = z as i64 + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Format days-since-epoch as ISO `YYYY-MM-DD`.
pub fn format_date(days: i32) -> String {
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// One column of a table or result-set schema.
///
/// Name, type and nullability are all a result set's columns carry, and all
/// `CREATE TABLE … AS SELECT` needs to define the persistent result table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
    /// May the column hold `NULL`?
    pub nullable: bool,
}

impl Column {
    /// A nullable column of the given type.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Column {
        Column {
            name: name.into(),
            dtype,
            nullable: true,
        }
    }

    /// Builder: mark the column `NOT NULL`.
    pub fn not_null(mut self) -> Column {
        self.nullable = false;
        self
    }
}

/// An ordered list of columns: the shape of a table or a result set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// The columns, in position order.
    pub columns: Vec<Column>,
}

impl Schema {
    /// A schema over the given columns.
    pub fn new(columns: Vec<Column>) -> Schema {
        Schema { columns }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Zero columns?
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of the column with the given (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// The column at position `i` (panics out of range).
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column names in position order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name.as_str())
    }
}

/// A secondary index over one column of a table.
///
/// Indexes are part of the table definition (and therefore of the snapshot
/// and every WAL `CreateTable` record that carries the def); the index *data*
/// — the ordered map from column value to row ids — lives in `TableData` and
/// is rebuilt deterministically from the rows, which is what makes REDO-only
/// recovery from the existing DML log sufficient.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name, unique within the table's store.
    pub name: String,
    /// Index (into `schema.columns`) of the indexed column.
    pub column: usize,
}

/// The full definition of a base table: name, schema, primary key and
/// secondary indexes.
///
/// `name` is the fully qualified name (`namespace.table`); the default
/// namespace is `dbo`, Phoenix's private objects live under `phoenix`, and
/// session temp objects are spelled `#name` (never durable, never in a
/// `TableDef` that reaches the log).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    /// Fully qualified canonical name (`namespace.table`).
    pub name: String,
    /// The table's columns.
    pub schema: Schema,
    /// Indices (into `schema.columns`) of the primary-key columns; empty when
    /// the table has no declared key. Keyset and dynamic server cursors
    /// require a non-empty key, as with real ODBC drivers.
    pub primary_key: Vec<usize>,
    /// Secondary indexes, in creation order.
    pub indexes: Vec<IndexDef>,
}

impl TableDef {
    /// A keyless table definition.
    pub fn new(name: impl Into<String>, schema: Schema) -> TableDef {
        TableDef {
            name: name.into(),
            schema,
            primary_key: Vec::new(),
            indexes: Vec::new(),
        }
    }

    /// Builder: declare the primary key by column indices.
    pub fn with_primary_key(mut self, key: Vec<usize>) -> TableDef {
        self.primary_key = key;
        self
    }

    /// The primary-key values of `row`, in key order: borrowed when the key
    /// is one column, or adjacent columns in order, and collected otherwise.
    pub fn key_of<'r>(&self, row: &'r [Value]) -> Cow<'r, [Value]> {
        let pk = &self.primary_key;
        let first = pk.first().copied().unwrap_or(0);
        if (first..).zip(pk).all(|(c, &k)| c == k) {
            Cow::Borrowed(&row[first..first + pk.len()])
        } else {
            pk.iter().map(|&i| row[i].clone()).collect()
        }
    }

    /// Does the table declare a primary key?
    pub fn has_primary_key(&self) -> bool {
        !self.primary_key.is_empty()
    }

    /// Position of the named secondary index, if it exists.
    pub fn index_pos(&self, name: &str) -> Option<usize> {
        self.indexes
            .iter()
            .position(|ix| ix.name.eq_ignore_ascii_case(name))
    }

    /// Position of a secondary index over `column`, if one exists.
    pub fn index_on(&self, column: usize) -> Option<usize> {
        self.indexes.iter().position(|ix| ix.column == column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_total_order_groups_types() {
        let mut vs = [
            Value::Text("a".into()),
            Value::Int(3),
            Value::Null,
            Value::Bool(true),
            Value::Float(2.5),
            Value::Date(10),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Bool(true));
        // Numerics compare against each other: 2.5 < 3.
        assert_eq!(vs[2], Value::Float(2.5));
        assert_eq!(vs[3], Value::Int(3));
        assert_eq!(vs[4], Value::Date(10));
        assert_eq!(vs[5], Value::Text("a".into()));
    }

    #[test]
    fn int_float_cross_comparison() {
        assert_eq!(Value::Int(2).cmp(&Value::Float(2.0)), Ordering::Less);
        assert_eq!(Value::Float(2.0).cmp(&Value::Int(2)), Ordering::Greater);
        assert_eq!(Value::Float(1.5).cmp(&Value::Int(2)), Ordering::Less);
        assert_eq!(Value::Int(2).cmp(&Value::Float(2.5)), Ordering::Less);
    }

    /// `cmp` is `Equal` exactly when `==` holds, over every pair of a mix
    /// of types with numeric ties, signed zeros and NaN; so a `PMap` keyed
    /// by them holds what a `BTreeMap` does, and finds each key.
    #[test]
    fn value_order_agrees_with_equality() {
        use crate::pmap::PMap;
        use std::collections::BTreeMap;
        let big = 1i64 << 53;
        let vs = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(1),
            Value::Int(big),
            Value::Int(big + 1),
            Value::Float(-1.0),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(1.0),
            Value::Float(1.5),
            Value::Float(big as f64),
            Value::Float(f64::NAN),
            Value::Date(0),
            Value::Date(1),
            Value::Text(String::new()),
            Value::Text("1".into()),
        ];
        for a in &vs {
            for b in &vs {
                assert_eq!(a.cmp(b) == Ordering::Equal, a == b, "{a:?} vs {b:?}");
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} vs {b:?}");
                for c in &vs {
                    if a < b && b < c {
                        assert!(a < c, "{a:?} < {b:?} < {c:?}");
                    }
                }
            }
        }
        let (mut p, mut m) = (PMap::new(), BTreeMap::new());
        // Every value twice, in a scrambled order: the second insert
        // replaces the first on both maps.
        for i in 0..2 * vs.len() {
            let v = &vs[i * 7 % vs.len()];
            assert_eq!(p.insert(v.clone(), i), m.insert(v.clone(), i), "{v:?}");
        }
        assert_eq!(p.len(), vs.len());
        assert!(p.iter().eq(m.iter()));
        for v in &vs {
            assert_eq!(p.get(v), m.get(v), "{v:?}");
        }
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[(1970, 1, 1), (2000, 2, 29), (1999, 12, 31), (2026, 7, 5)] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d));
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(parse_date("1970-01-02"), Some(1));
        assert_eq!(format_date(0), "1970-01-01");
        assert_eq!(parse_date("not-a-date"), None);
        assert_eq!(parse_date("1970-13-01"), None);
    }

    #[test]
    fn coercions() {
        assert_eq!(
            Value::Int(3).coerce_to(DataType::Float),
            Some(Value::Float(3.0))
        );
        assert_eq!(Value::Float(3.5).coerce_to(DataType::Int), None);
        assert_eq!(Value::Null.coerce_to(DataType::Text), Some(Value::Null));
        assert_eq!(
            Value::Text("1970-01-03".into()).coerce_to(DataType::Date),
            Some(Value::Date(2))
        );
    }

    #[test]
    fn schema_lookup_is_case_insensitive() {
        let s = Schema::new(vec![
            Column::new("Id", DataType::Int),
            Column::new("Name", DataType::Text),
        ]);
        assert_eq!(s.index_of("id"), Some(0));
        assert_eq!(s.index_of("NAME"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn table_def_key_extraction() {
        let def = TableDef::new(
            "dbo.t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Text),
            ]),
        )
        .with_primary_key(vec![1]);
        assert_eq!(
            def.key_of(&[Value::Int(1), Value::Text("k".into())]),
            vec![Value::Text("k".into())]
        );
    }

    #[test]
    fn data_type_names_roundtrip() {
        for t in [
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Bool,
            DataType::Date,
        ] {
            assert_eq!(DataType::from_sql_name(t.sql_name()), Some(t));
        }
        assert_eq!(DataType::from_sql_name("VARCHAR"), Some(DataType::Text));
        assert_eq!(DataType::from_sql_name("blob"), None);
    }
}
