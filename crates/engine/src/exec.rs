//! DML/DDL execution helpers.
//!
//! These functions *compute* the effect of a statement (rows to insert, row
//! updates) against an immutable catalog view; the engine facade then
//! applies the effect through a transaction's one write path — a logged
//! transaction for a durable table, the session's volatile one for a
//! `#temp` table — which installs it whole or not at all. Computing before
//! applying keeps borrows simple and makes `INSERT INTO t SELECT … FROM t`
//! self-joins well-defined (they see the pre-statement state).
//!
//! The rows an UPDATE or DELETE touches come from the planner
//! ([`dml_rows`]), by the access path of its `SELECT * FROM t WHERE …`, in
//! row-id order; this module only binds and applies an UPDATE's assignments.

use phoenix_sql::ast::{CreateTableStmt, InsertSource, InsertStmt, ObjectName, UpdateStmt};
use phoenix_storage::store::{Store, TableData};
use phoenix_storage::types::{Column, DataType, Row, RowId, Schema, TableDef, Value};

use crate::error::{EngineError, ErrorCode, Result};
use crate::eval::{eval_const, Params, Scope};
use crate::plan::{dml_rows, execute_select, Catalog};

/// Immutable view over a durable-store snapshot plus one session's temp
/// store. Temp names (`#x`) resolve only in the temp store; everything else
/// only in the durable snapshot.
pub struct CatalogView<'a> {
    /// The durable (crash-surviving) store image.
    pub durable: &'a Store,
    /// The session's volatile temp store.
    pub temp: &'a Store,
}

impl<'a> CatalogView<'a> {
    /// The view of a statement that writes through `written`: the temp
    /// store when `temp`, else the durable image, with `other` the rest.
    pub fn around(temp: bool, written: &'a Store, other: &'a Store) -> CatalogView<'a> {
        match temp {
            true => CatalogView {
                durable: other,
                temp: written,
            },
            false => CatalogView {
                durable: written,
                temp: other,
            },
        }
    }
}

impl Catalog for CatalogView<'_> {
    fn table(&self, name: &ObjectName) -> Result<&TableData> {
        match name.is_temp() {
            true => Catalog::table(self.temp, name),
            false => Catalog::table(self.durable, name),
        }
    }
}

/// One store on its own: a DML statement names one table, in the store its
/// name routes to (a transaction's image, or the session's temp store).
impl Catalog for Store {
    fn table(&self, name: &ObjectName) -> Result<&TableData> {
        Store::table(self, &name.canonical()).map_err(EngineError::from)
    }
}

/// Map a parsed SQL type name to an engine type.
pub fn type_from_name(name: &str) -> Result<DataType> {
    DataType::from_sql_name(name)
        .ok_or_else(|| EngineError::unsupported(format!("unknown type '{name}'")))
}

/// Build a [`TableDef`] (with canonical name) from a CREATE TABLE statement.
pub fn build_table_def(c: &CreateTableStmt) -> Result<TableDef> {
    let mut columns = Vec::with_capacity(c.columns.len());
    for col in &c.columns {
        columns.push(Column {
            name: col.name.clone(),
            dtype: type_from_name(&col.type_name)?,
            nullable: !col.not_null,
        });
    }
    let schema = Schema::new(columns);
    let mut pk = Vec::with_capacity(c.primary_key.len());
    for name in &c.primary_key {
        let idx = schema.index_of(name).ok_or_else(|| {
            EngineError::column(format!("PRIMARY KEY column '{name}' not in table"))
        })?;
        pk.push(idx);
    }
    Ok(TableDef {
        name: c.name.canonical(),
        schema,
        primary_key: pk,
        indexes: Vec::new(),
    })
}

/// Coerce and validate one row against a schema: arity, type coercion,
/// NOT NULL.
pub fn coerce_row(values: Vec<Value>, schema: &Schema, table: &str) -> Result<Row> {
    if values.len() != schema.len() {
        return Err(EngineError::new(
            ErrorCode::Constraint,
            format!(
                "INSERT into '{table}' supplies {} values for {} columns",
                values.len(),
                schema.len()
            ),
        ));
    }
    let mut row = Vec::with_capacity(values.len());
    for (v, col) in values.into_iter().zip(&schema.columns) {
        let coerced = v.coerce_to(col.dtype).ok_or_else(|| {
            EngineError::type_err(format!(
                "cannot store {} value in column '{}' ({})",
                v, col.name, col.dtype
            ))
        })?;
        if coerced.is_null() && !col.nullable {
            return Err(EngineError::new(
                ErrorCode::Constraint,
                format!("column '{}' of '{table}' is NOT NULL", col.name),
            ));
        }
        row.push(coerced);
    }
    Ok(row)
}

/// Compute the fully coerced rows an INSERT will add.
pub fn compute_insert_rows(
    insert: &InsertStmt,
    target: &TableDef,
    catalog: &dyn Catalog,
    params: Params<'_>,
) -> Result<Vec<Row>> {
    let schema = &target.schema;

    // Map an explicit column list to full-width rows (missing columns NULL).
    let expand = |values: Vec<Value>| -> Result<Vec<Value>> {
        match &insert.columns {
            None => Ok(values),
            Some(cols) => {
                if values.len() != cols.len() {
                    return Err(EngineError::new(
                        ErrorCode::Constraint,
                        format!(
                            "INSERT column list has {} names but {} values",
                            cols.len(),
                            values.len()
                        ),
                    ));
                }
                let mut full = vec![Value::Null; schema.len()];
                for (name, v) in cols.iter().zip(values) {
                    let idx = schema.index_of(name).ok_or_else(|| {
                        EngineError::column(format!(
                            "unknown column '{name}' in INSERT into '{}'",
                            target.name
                        ))
                    })?;
                    full[idx] = v;
                }
                Ok(full)
            }
        }
    };

    let mut rows = Vec::new();
    match &insert.source {
        InsertSource::Values(tuples) => {
            for tuple in tuples {
                let mut values = Vec::with_capacity(tuple.len());
                for e in tuple {
                    values.push(eval_const(e, params)?);
                }
                rows.push(coerce_row(expand(values)?, schema, &target.name)?);
            }
        }
        InsertSource::Select(sel) => {
            let rs = execute_select(sel, catalog, params)?;
            for r in rs.rows {
                rows.push(coerce_row(expand(r)?, schema, &target.name)?);
            }
        }
    }
    Ok(rows)
}

/// Compute `(row_id, new_row)` pairs for an UPDATE, in row-id order. The
/// rows are the ones [`dml_rows`] finds; this binds and applies the
/// assignments.
pub fn compute_update(
    update: &UpdateStmt,
    catalog: &dyn Catalog,
    params: Params<'_>,
) -> Result<Vec<(RowId, Row)>> {
    let data = catalog.table(&update.table)?;
    let scope = Scope::single(&update.table.name, &data.def.schema);
    // Resolve assignment targets once.
    let mut targets = Vec::with_capacity(update.assignments.len());
    for (name, expr) in &update.assignments {
        let idx = data.def.schema.index_of(name).ok_or_else(|| {
            EngineError::column(format!(
                "unknown column '{name}' in UPDATE of '{}'",
                update.table
            ))
        })?;
        targets.push((idx, scope.bind(expr, params)?));
    }
    let ids = dml_rows(&update.table, update.where_clause.as_ref(), catalog, params)?;
    let mut out = Vec::with_capacity(ids.len());
    for rid in ids {
        let row = &data.rows[&rid];
        let tuple = [&**row];
        let mut new_row = row.to_vec();
        for (idx, expr) in &targets {
            let v = expr.eval(&tuple)?;
            let col = &data.def.schema.columns[*idx];
            let coerced = v.coerce_to(col.dtype).ok_or_else(|| {
                EngineError::type_err(format!(
                    "cannot store {v} in column '{}' ({})",
                    col.name, col.dtype
                ))
            })?;
            if coerced.is_null() && !col.nullable {
                return Err(EngineError::new(
                    ErrorCode::Constraint,
                    format!("column '{}' is NOT NULL", col.name),
                ));
            }
            new_row[*idx] = coerced;
        }
        out.push((rid, new_row));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_sql::parser::parse_statement;
    use phoenix_sql::Statement;

    fn table() -> TableData {
        let def = TableDef {
            name: "dbo.t".into(),
            schema: Schema::new(vec![
                Column::new("id", DataType::Int).not_null(),
                Column::new("v", DataType::Float),
                Column::new("s", DataType::Text),
            ]),
            primary_key: vec![0],
            indexes: Vec::new(),
        };
        let mut data = TableData::new(def);
        for i in 1..=3 {
            data.insert(vec![
                Value::Int(i),
                Value::Float(i as f64),
                Value::Text(format!("row{i}")),
            ])
            .unwrap();
        }
        data
    }

    fn view_with(data: TableData) -> (Store, Store) {
        let mut durable = Store::new();
        let name = data.def.name.clone();
        durable.create_table((*data.def).clone()).unwrap();
        *durable.table_mut(&name).unwrap() = data;
        (durable, Store::new())
    }

    #[test]
    fn build_def_maps_types_and_pk() {
        let stmt =
            parse_statement("CREATE TABLE ns.x (a INT NOT NULL, b VARCHAR(10), PRIMARY KEY (a))")
                .unwrap();
        let c = match stmt {
            Statement::CreateTable(c) => c,
            other => panic!("{other:?}"),
        };
        let def = build_table_def(&c).unwrap();
        assert_eq!(def.name, "ns.x");
        assert_eq!(def.schema.columns[1].dtype, DataType::Text);
        assert_eq!(def.primary_key, vec![0]);
        assert!(!def.schema.columns[0].nullable);
    }

    #[test]
    fn build_def_rejects_bad_pk_and_type() {
        let stmt = parse_statement("CREATE TABLE x (a INT, PRIMARY KEY (zz))").unwrap();
        let c = match stmt {
            Statement::CreateTable(c) => c,
            other => panic!("{other:?}"),
        };
        assert_eq!(build_table_def(&c).unwrap_err().code, ErrorCode::Column);
        let stmt = parse_statement("CREATE TABLE x (a BLOB)").unwrap();
        let c = match stmt {
            Statement::CreateTable(c) => c,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            build_table_def(&c).unwrap_err().code,
            ErrorCode::Unsupported
        );
    }

    #[test]
    fn insert_values_with_column_list_and_coercion() {
        let data = table();
        let def = data.def.clone();
        let (durable, temp) = view_with(data);
        let view = CatalogView {
            durable: &durable,
            temp: &temp,
        };
        let stmt = parse_statement("INSERT INTO t (v, id) VALUES (7, 9)").unwrap();
        let ins = match stmt {
            Statement::Insert(i) => i,
            other => panic!("{other:?}"),
        };
        let rows = compute_insert_rows(&ins, &def, &view, Params::NONE).unwrap();
        // v coerced int→float, s defaulted to NULL, order fixed up.
        assert_eq!(
            rows,
            vec![vec![Value::Int(9), Value::Float(7.0), Value::Null]]
        );
    }

    #[test]
    fn insert_rejects_null_in_not_null() {
        let data = table();
        let def = data.def.clone();
        let (durable, temp) = view_with(data);
        let view = CatalogView {
            durable: &durable,
            temp: &temp,
        };
        let stmt = parse_statement("INSERT INTO t (v) VALUES (1.5)").unwrap();
        let ins = match stmt {
            Statement::Insert(i) => i,
            other => panic!("{other:?}"),
        };
        let e = compute_insert_rows(&ins, &def, &view, Params::NONE).unwrap_err();
        assert_eq!(e.code, ErrorCode::Constraint);
    }

    #[test]
    fn insert_select_pulls_through_catalog() {
        let data = table();
        let def = data.def.clone();
        let (durable, temp) = view_with(data);
        let view = CatalogView {
            durable: &durable,
            temp: &temp,
        };
        let stmt =
            parse_statement("INSERT INTO t SELECT id + 10, v, s FROM t WHERE id <= 2").unwrap();
        let ins = match stmt {
            Statement::Insert(i) => i,
            other => panic!("{other:?}"),
        };
        let rows = compute_insert_rows(&ins, &def, &view, Params::NONE).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Int(11));
    }

    #[test]
    fn update_computes_new_rows() {
        let (store, _) = view_with(table());
        let stmt = parse_statement("UPDATE t SET v = v * 2.0 WHERE id >= 2").unwrap();
        let upd = match stmt {
            Statement::Update(u) => u,
            other => panic!("{other:?}"),
        };
        let changes = compute_update(&upd, &store, Params::NONE).unwrap();
        assert_eq!(changes.len(), 2);
        assert_eq!(changes[0].1[1], Value::Float(4.0));
    }

    #[test]
    fn update_unknown_column_rejected() {
        let (store, _) = view_with(table());
        let stmt = parse_statement("UPDATE t SET nope = 1").unwrap();
        let upd = match stmt {
            Statement::Update(u) => u,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            compute_update(&upd, &store, Params::NONE).unwrap_err().code,
            ErrorCode::Column
        );
    }

    #[test]
    fn delete_selects_rows() {
        let (store, _) = view_with(table());
        let stmt = parse_statement("DELETE FROM t WHERE s LIKE 'row%' AND id <> 2").unwrap();
        let del = match stmt {
            Statement::Delete(d) => d,
            other => panic!("{other:?}"),
        };
        let ids = dml_rows(&del.table, del.where_clause.as_ref(), &store, Params::NONE).unwrap();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn catalog_view_routes_temp_names() {
        let mut temp = Store::new();
        temp.create_table(TableDef::new(
            "#w",
            Schema::new(vec![Column::new("x", DataType::Int)]),
        ))
        .unwrap();
        let durable = Store::new();
        let view = CatalogView {
            durable: &durable,
            temp: &temp,
        };
        assert!(view.table(&ObjectName::bare("#w")).is_ok());
        assert!(view.table(&ObjectName::bare("w")).is_err());
    }
}
