//! Server cursors.
//!
//! Three kinds, mirroring the ODBC cursor taxonomy the paper works through:
//!
//! * **Materialized** (forward-only/static): the full result is computed at
//!   open and blocks are served from the snapshot. This is also the fallback
//!   when a keyset/dynamic request can't be honored (no primary key,
//!   multi-table query), matching real drivers' silent cursor downgrading.
//! * **Keyset**: the set of qualifying *primary keys* is captured at open;
//!   each fetch re-reads current row data by key. Rows deleted since open are
//!   skipped; updates are visible — §3's keyset semantics.
//! * **Dynamic**: only a position (last key seen) is kept; each fetch
//!   re-evaluates the predicate over the primary-key order starting after
//!   that key, so inserts and deletes are visible as they happen — §3's
//!   dynamic semantics.

use std::ops::Bound;

use phoenix_sql::ast::{Expr, ObjectName, SelectItem, SelectStmt};
use phoenix_storage::store::Key;
use phoenix_storage::types::{Row, Schema, Value};

use crate::error::{EngineError, ErrorCode, Result};
use crate::eval::{Params, Scalar, Scope};
use crate::plan::{execute_select, Catalog};

/// Cursor identifier, unique within a server incarnation.
pub type CursorId = u64;

/// The cursor kind requested by the client at statement-open time (the ODBC
/// statement attribute).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorKind {
    /// Materialized at open; forward-only block delivery.
    ForwardOnly,
    /// Key membership fixed at open; rows re-read by key.
    Keyset,
    /// Predicate re-evaluated per fetch over primary-key order.
    Dynamic,
}

/// Fetch orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchDir {
    /// The next `n` rows.
    Next,
    /// The previous `n` rows (scrollable kinds only).
    Prior,
    /// Position so the fetch returns rows starting at 0-based row `k`
    /// (materialized and keyset cursors only — dynamic cursors have no
    /// stable numbering, as in ODBC).
    Absolute(u64),
}

/// An open server cursor.
pub struct Cursor {
    /// The cursor's handle.
    pub id: CursorId,
    /// Result metadata.
    pub schema: Schema,
    /// The kind actually granted (may be a downgrade from the request).
    pub kind: CursorKind,
    state: State,
}

enum State {
    Materialized {
        rows: Vec<Row>,
        pos: usize,
    },
    Keyset {
        table: ObjectName,
        /// Qualifying primary keys captured at open, in result order.
        keys: Vec<Vec<Value>>,
        pos: usize,
        /// Output projection: indices into the table's columns.
        projection: Vec<usize>,
    },
    Dynamic {
        table: ObjectName,
        /// The WHERE clause, bound once at open.
        predicate: Option<Scalar>,
        projection: Vec<usize>,
        /// Key of the last row delivered; `None` before the first fetch.
        last_key: Option<Key>,
    },
}

/// Outcome of a fetch: the rows plus whether the cursor reached the end in
/// this direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Fetched {
    /// The fetched rows (possibly fewer than requested).
    pub rows: Vec<Row>,
    /// No more rows in this direction?
    pub at_end: bool,
}

impl Cursor {
    /// Open a cursor over `select`. `requested` may be downgraded (see
    /// module docs); the granted kind is recorded on the cursor.
    pub fn open(
        id: CursorId,
        select: &SelectStmt,
        requested: CursorKind,
        catalog: &dyn Catalog,
    ) -> Result<Cursor> {
        match requested {
            CursorKind::ForwardOnly => Self::open_materialized(id, select, catalog),
            CursorKind::Keyset | CursorKind::Dynamic => {
                match keyed_single_table(select, catalog, requested == CursorKind::Keyset)? {
                    Some((table, projection, scope, key_idx)) => {
                        if requested == CursorKind::Keyset {
                            Self::open_keyset(id, select, catalog, table, projection, key_idx)
                        } else {
                            Self::open_dynamic(id, select, catalog, table, projection, &scope)
                        }
                    }
                    // Downgrade: no key or unsupported shape.
                    None => Self::open_materialized(id, select, catalog),
                }
            }
        }
    }

    fn open_materialized(
        id: CursorId,
        select: &SelectStmt,
        catalog: &dyn Catalog,
    ) -> Result<Cursor> {
        let rs = execute_select(select, catalog, Params::NONE)?;
        Ok(Cursor {
            id,
            schema: rs.schema,
            kind: CursorKind::ForwardOnly,
            state: State::Materialized {
                rows: rs.rows,
                pos: 0,
            },
        })
    }

    fn open_keyset(
        id: CursorId,
        select: &SelectStmt,
        catalog: &dyn Catalog,
        table: ObjectName,
        projection: Vec<usize>,
        key_idx: Vec<usize>,
    ) -> Result<Cursor> {
        // Capture qualifying keys in the query's own order by rewriting the
        // projection to the key columns.
        let data = catalog.table(&table)?;
        let key_names: Vec<String> = key_idx
            .iter()
            .map(|&i| data.def.schema.columns[i].name.clone())
            .collect();
        let schema = projected_schema(data, &projection);
        let key_select = phoenix_sql::rewrite::with_projections(select.clone(), &key_names);
        let rs = execute_select(&key_select, catalog, Params::NONE)?;
        Ok(Cursor {
            id,
            schema,
            kind: CursorKind::Keyset,
            state: State::Keyset {
                table,
                keys: rs.rows,
                pos: 0,
                projection,
            },
        })
    }

    fn open_dynamic(
        id: CursorId,
        select: &SelectStmt,
        catalog: &dyn Catalog,
        table: ObjectName,
        projection: Vec<usize>,
        scope: &Scope,
    ) -> Result<Cursor> {
        let data = catalog.table(&table)?;
        let schema = projected_schema(data, &projection);
        let predicate = select
            .where_clause
            .as_ref()
            .map(|p| scope.bind(p, Params::NONE))
            .transpose()?;
        Ok(Cursor {
            id,
            schema,
            kind: CursorKind::Dynamic,
            state: State::Dynamic {
                table,
                predicate,
                projection,
                last_key: None,
            },
        })
    }

    /// Current (0-based) position for materialized/keyset cursors; used by
    /// Phoenix to remember where delivery was interrupted.
    pub fn position(&self) -> Option<u64> {
        match &self.state {
            State::Materialized { pos, .. } | State::Keyset { pos, .. } => Some(*pos as u64),
            State::Dynamic { .. } => None,
        }
    }

    /// The key of the last row delivered by a dynamic cursor.
    pub fn last_key(&self) -> Option<&[Value]> {
        match &self.state {
            State::Dynamic { last_key, .. } => last_key.as_deref(),
            _ => None,
        }
    }

    /// Fetch up to `n` rows in the given direction.
    pub fn fetch(&mut self, dir: FetchDir, n: usize, catalog: &dyn Catalog) -> Result<Fetched> {
        match &mut self.state {
            State::Materialized { rows, pos } => match dir {
                FetchDir::Next => {
                    let start = *pos;
                    let end = (start + n).min(rows.len());
                    *pos = end;
                    Ok(Fetched {
                        rows: rows[start..end].to_vec(),
                        at_end: end >= rows.len(),
                    })
                }
                FetchDir::Prior => {
                    let end = *pos;
                    let start = end.saturating_sub(n);
                    *pos = start;
                    Ok(Fetched {
                        rows: rows[start..end].to_vec(),
                        at_end: start == 0,
                    })
                }
                FetchDir::Absolute(k) => {
                    *pos = (k as usize).min(rows.len());
                    let start = *pos;
                    let end = (start + n).min(rows.len());
                    *pos = end;
                    Ok(Fetched {
                        rows: rows[start..end].to_vec(),
                        at_end: end >= rows.len(),
                    })
                }
            },
            State::Keyset {
                table,
                keys,
                pos,
                projection,
            } => {
                let data = catalog.table(table)?;
                // `n` is the client's to choose: reserve no more than the
                // keys left in the direction of the fetch.
                match dir {
                    FetchDir::Next | FetchDir::Absolute(_) => {
                        if let FetchDir::Absolute(k) = dir {
                            *pos = (k as usize).min(keys.len());
                        }
                        let mut out = Vec::with_capacity(n.min(keys.len() - *pos));
                        while out.len() < n && *pos < keys.len() {
                            let key = &keys[*pos];
                            *pos += 1;
                            // Deleted rows are skipped; updated rows return
                            // current data (keyset semantics).
                            if let Some(rid) = data.row_id_by_key(key) {
                                let row = &data.rows[&rid];
                                out.push(projection.iter().map(|&i| row[i].clone()).collect());
                            }
                        }
                        Ok(Fetched {
                            at_end: *pos >= keys.len(),
                            rows: out,
                        })
                    }
                    FetchDir::Prior => {
                        let mut out = Vec::with_capacity(n.min(*pos));
                        while out.len() < n && *pos > 0 {
                            *pos -= 1;
                            let key = &keys[*pos];
                            if let Some(rid) = data.row_id_by_key(key) {
                                let row = &data.rows[&rid];
                                out.push(projection.iter().map(|&i| row[i].clone()).collect());
                            }
                        }
                        out.reverse();
                        Ok(Fetched {
                            at_end: *pos == 0,
                            rows: out,
                        })
                    }
                }
            }
            State::Dynamic {
                table,
                predicate,
                projection,
                last_key,
            } => {
                let data = catalog.table(table)?;
                // Grown as rows pass: `n` is the client's to choose.
                let mut out = Vec::new();
                match dir {
                    FetchDir::Next => {
                        let lower = match last_key.clone() {
                            Some(k) => Bound::Excluded(k),
                            None => Bound::Unbounded,
                        };
                        for (key, rid) in data.pk_index.range((lower, Bound::Unbounded)) {
                            let row = &data.rows[rid];
                            if row_passes(predicate.as_ref(), row)? {
                                out.push(projection.iter().map(|&i| row[i].clone()).collect());
                                *last_key = Some(key.clone());
                                if out.len() == n {
                                    break;
                                }
                            }
                        }
                        Ok(Fetched {
                            at_end: out.len() < n,
                            rows: out,
                        })
                    }
                    FetchDir::Prior => {
                        let upper = match last_key.clone() {
                            Some(k) => Bound::Excluded(k),
                            None => {
                                return Ok(Fetched {
                                    rows: Vec::new(),
                                    at_end: true,
                                })
                            }
                        };
                        for (key, rid) in data.pk_index.range((Bound::Unbounded, upper)).rev() {
                            let row = &data.rows[rid];
                            if row_passes(predicate.as_ref(), row)? {
                                out.push(projection.iter().map(|&i| row[i].clone()).collect());
                                *last_key = Some(key.clone());
                                if out.len() == n {
                                    break;
                                }
                            }
                        }
                        let at_end = out.len() < n;
                        out.reverse();
                        Ok(Fetched { rows: out, at_end })
                    }
                    FetchDir::Absolute(_) => Err(EngineError::new(
                        ErrorCode::Cursor,
                        "dynamic cursors do not support absolute positioning",
                    )),
                }
            }
        }
    }
}

fn row_passes(pred: Option<&Scalar>, row: &[Value]) -> Result<bool> {
    pred.map_or(Ok(true), |p| p.holds(&[row]))
}

fn projected_schema(data: &phoenix_storage::store::TableData, projection: &[usize]) -> Schema {
    Schema::new(
        projection
            .iter()
            .map(|&i| data.def.schema.columns[i].clone())
            .collect(),
    )
}

/// Check whether `select` has the shape keyset/dynamic cursors support:
/// single table with a primary key, plain column projection (or `*`), no
/// grouping/aggregation/limit. Returns the table, output projection
/// (column indices), the binding scope, and the key column indices.
///
/// ORDER BY is allowed only when `allow_order` is set (keyset requests):
/// the keyset captures qualifying keys in the query's own order — with a
/// secondary index on the sort column the planner serves that order by an
/// index walk, and fetches deliver the captured sequence position-exact.
/// Dynamic cursors walk primary-key order by construction, so any ORDER BY
/// still downgrades them.
#[allow(clippy::type_complexity)]
fn keyed_single_table(
    select: &SelectStmt,
    catalog: &dyn Catalog,
    allow_order: bool,
) -> Result<Option<(ObjectName, Vec<usize>, Scope, Vec<usize>)>> {
    if select.from.len() != 1
        || select.distinct
        || !select.group_by.is_empty()
        || select.having.is_some()
        || select.limit.is_some()
        || select.offset.is_some()
    {
        return Ok(None);
    }
    match select.order_by.as_slice() {
        [] => {}
        [item] if allow_order && matches!(&item.expr, Expr::Column { .. }) => {}
        _ => return Ok(None),
    }
    let item = &select.from[0];
    let data = catalog.table(&item.table)?;
    if !data.def.has_primary_key() {
        return Ok(None);
    }
    let qualifier = item.alias.as_deref().unwrap_or(&item.table.name);
    let scope = Scope::single(qualifier, &data.def.schema);

    let mut projection = Vec::new();
    for p in &select.projections {
        match p {
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                projection.extend(0..data.def.schema.len());
            }
            SelectItem::Expr {
                expr: Expr::Column { table, name },
                ..
            } => projection.push(scope.resolve(table.as_deref(), name)?.1),
            // Computed projections force a downgrade.
            _ => return Ok(None),
        }
    }
    let key_idx = data.def.primary_key.clone();
    Ok(Some((item.table.clone(), projection, scope, key_idx)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_sql::parser::parse_statement;
    use phoenix_sql::Statement;
    use phoenix_storage::store::Store;
    use phoenix_storage::types::{Column, DataType, TableDef};

    struct Cat {
        store: Store,
    }

    impl Catalog for Cat {
        fn table(&self, name: &ObjectName) -> Result<&phoenix_storage::store::TableData> {
            self.store
                .table(&name.canonical())
                .map_err(EngineError::from)
        }
    }

    fn cat() -> Cat {
        let mut store = Store::new();
        store
            .create_table(
                TableDef::new(
                    "dbo.orders",
                    Schema::new(vec![
                        Column::new("okey", DataType::Int).not_null(),
                        Column::new("total", DataType::Float),
                    ]),
                )
                .with_primary_key(vec![0]),
            )
            .unwrap();
        let t = store.table_mut("dbo.orders").unwrap();
        for i in 1..=10 {
            t.insert(vec![Value::Int(i), Value::Float(i as f64 * 10.0)])
                .unwrap();
        }
        Cat { store }
    }

    fn select(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn materialized_forward_and_prior() {
        let c = cat();
        let mut cur = Cursor::open(
            1,
            &select("SELECT okey FROM orders"),
            CursorKind::ForwardOnly,
            &c,
        )
        .unwrap();
        let f = cur.fetch(FetchDir::Next, 3, &c).unwrap();
        assert_eq!(f.rows.len(), 3);
        assert!(!f.at_end);
        let f = cur.fetch(FetchDir::Prior, 2, &c).unwrap();
        assert_eq!(f.rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
        let f = cur.fetch(FetchDir::Absolute(8), 5, &c).unwrap();
        assert_eq!(f.rows.len(), 2);
        assert!(f.at_end);
    }

    #[test]
    fn keyset_sees_updates_and_skips_deletes() {
        let mut c = cat();
        let mut cur = Cursor::open(
            1,
            &select("SELECT okey, total FROM orders WHERE okey <= 5"),
            CursorKind::Keyset,
            &c,
        )
        .unwrap();
        assert_eq!(cur.kind, CursorKind::Keyset);
        let f = cur.fetch(FetchDir::Next, 2, &c).unwrap();
        assert_eq!(f.rows.len(), 2);

        // Update row 3 and delete row 4 *after* the keyset was captured.
        {
            let t = c.store.table_mut("dbo.orders").unwrap();
            let rid3 = t.row_id_by_key(&[Value::Int(3)]).unwrap();
            t.update(rid3, vec![Value::Int(3), Value::Float(999.0)])
                .unwrap();
            let rid4 = t.row_id_by_key(&[Value::Int(4)]).unwrap();
            t.delete(rid4).unwrap();
        }

        let f = cur.fetch(FetchDir::Next, 3, &c).unwrap();
        // Row 3 shows updated data; row 4 is skipped; row 5 completes.
        assert_eq!(
            f.rows,
            vec![
                vec![Value::Int(3), Value::Float(999.0)],
                vec![Value::Int(5), Value::Float(50.0)],
            ]
        );
        assert!(f.at_end);
    }

    #[test]
    fn keyset_does_not_see_inserts() {
        let mut c = cat();
        let mut cur = Cursor::open(
            1,
            &select("SELECT okey FROM orders"),
            CursorKind::Keyset,
            &c,
        )
        .unwrap();
        c.store
            .table_mut("dbo.orders")
            .unwrap()
            .insert(vec![Value::Int(99), Value::Float(1.0)])
            .unwrap();
        let mut total = 0;
        loop {
            let f = cur.fetch(FetchDir::Next, 4, &c).unwrap();
            total += f.rows.len();
            if f.at_end {
                break;
            }
        }
        assert_eq!(total, 10); // insert invisible to keyset
    }

    #[test]
    fn dynamic_sees_inserts() {
        let mut c = cat();
        let mut cur = Cursor::open(
            1,
            &select("SELECT okey FROM orders WHERE total >= 20.0"),
            CursorKind::Dynamic,
            &c,
        )
        .unwrap();
        assert_eq!(cur.kind, CursorKind::Dynamic);
        let f = cur.fetch(FetchDir::Next, 2, &c).unwrap();
        assert_eq!(f.rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);

        // Insert a row *between* the cursor position and the next key.
        // okey=3 was last delivered; nothing between 3 and 4 is possible for
        // ints, so insert at the end and also delete 4 to show dynamism.
        {
            let t = c.store.table_mut("dbo.orders").unwrap();
            t.insert(vec![Value::Int(99), Value::Float(20.0)]).unwrap();
            let rid4 = t.row_id_by_key(&[Value::Int(4)]).unwrap();
            t.delete(rid4).unwrap();
        }

        let mut rest = Vec::new();
        loop {
            let f = cur.fetch(FetchDir::Next, 3, &c).unwrap();
            rest.extend(f.rows);
            if f.at_end {
                break;
            }
        }
        let keys: Vec<i64> = rest.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(keys, vec![5, 6, 7, 8, 9, 10, 99]); // 4 gone, 99 visible
    }

    #[test]
    fn dynamic_prior_walks_backwards() {
        let c = cat();
        let mut cur = Cursor::open(
            1,
            &select("SELECT okey FROM orders"),
            CursorKind::Dynamic,
            &c,
        )
        .unwrap();
        let f = cur.fetch(FetchDir::Prior, 2, &c).unwrap();
        assert!(f.rows.is_empty()); // before first fetch there is no position
        cur.fetch(FetchDir::Next, 5, &c).unwrap();
        let f = cur.fetch(FetchDir::Prior, 2, &c).unwrap();
        assert_eq!(f.rows, vec![vec![Value::Int(3)], vec![Value::Int(4)]]);
    }

    #[test]
    fn dynamic_rejects_absolute() {
        let c = cat();
        let mut cur = Cursor::open(
            1,
            &select("SELECT okey FROM orders"),
            CursorKind::Dynamic,
            &c,
        )
        .unwrap();
        let e = cur.fetch(FetchDir::Absolute(3), 1, &c).unwrap_err();
        assert_eq!(e.code, ErrorCode::Cursor);
    }

    #[test]
    fn downgrade_without_primary_key() {
        let mut c = cat();
        c.store
            .create_table(TableDef::new(
                "dbo.nokey",
                Schema::new(vec![Column::new("v", DataType::Int)]),
            ))
            .unwrap();
        c.store
            .table_mut("dbo.nokey")
            .unwrap()
            .insert(vec![Value::Int(1)])
            .unwrap();
        let cur = Cursor::open(1, &select("SELECT v FROM nokey"), CursorKind::Keyset, &c).unwrap();
        assert_eq!(cur.kind, CursorKind::ForwardOnly);
    }

    #[test]
    fn downgrade_on_aggregation() {
        let c = cat();
        let cur = Cursor::open(
            1,
            &select("SELECT COUNT(*) FROM orders"),
            CursorKind::Dynamic,
            &c,
        )
        .unwrap();
        assert_eq!(cur.kind, CursorKind::ForwardOnly);
    }

    #[test]
    fn keyset_position_is_reported() {
        let c = cat();
        let mut cur = Cursor::open(
            1,
            &select("SELECT okey FROM orders"),
            CursorKind::Keyset,
            &c,
        )
        .unwrap();
        cur.fetch(FetchDir::Next, 4, &c).unwrap();
        assert_eq!(cur.position(), Some(4));
    }

    #[test]
    fn keyset_order_by_rides_index() {
        let mut c = cat();
        c.store
            .table_mut("dbo.orders")
            .unwrap()
            .create_index("ix_total", 1)
            .unwrap();
        // ORDER BY on the indexed column no longer downgrades a keyset:
        // the key capture walks the index in order (no sort).
        let mut cur = Cursor::open(
            1,
            &select("SELECT okey FROM orders ORDER BY total DESC"),
            CursorKind::Keyset,
            &c,
        )
        .unwrap();
        assert_eq!(cur.kind, CursorKind::Keyset);
        let f = cur.fetch(FetchDir::Next, 3, &c).unwrap();
        assert_eq!(
            f.rows,
            vec![
                vec![Value::Int(10)],
                vec![Value::Int(9)],
                vec![Value::Int(8)]
            ]
        );

        // The next block continues the captured order from the position.
        assert_eq!(cur.position(), Some(3));
        let f = cur.fetch(FetchDir::Next, 3, &c).unwrap();
        assert_eq!(
            f.rows,
            vec![
                vec![Value::Int(7)],
                vec![Value::Int(6)],
                vec![Value::Int(5)]
            ]
        );
    }

    #[test]
    fn dynamic_order_by_still_downgrades() {
        let c = cat();
        let cur = Cursor::open(
            1,
            &select("SELECT okey FROM orders ORDER BY total DESC"),
            CursorKind::Dynamic,
            &c,
        )
        .unwrap();
        assert_eq!(cur.kind, CursorKind::ForwardOnly);
    }
}
