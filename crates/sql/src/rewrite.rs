//! The rewrite toolkit Phoenix applies to intercepted requests.
//!
//! Each rewrite is a pure AST → AST function; Phoenix renders the result back
//! to SQL with [`crate::display::render_statement`] and forwards it to the
//! native driver. The rewrites implemented here are those §3 of the paper
//! describes:
//!
//! * [`with_projections`] — replace the projection list (Phoenix materializes
//!   *only the keys* for keyset/dynamic cursors).
//! * [`rename_table_refs`] — redirect references from a temporary object to
//!   the persistent object Phoenix created in its place.
//!
//! Result-set capture needs no rewrite: it is one `CREATE TABLE … AS
//! <select>` ([`Statement::CreateTableAs`]) around the application's query.

use crate::ast::*;

/// Replace the projection list with bare column references to `columns`
/// (used to materialize only the key columns of a cursor's result).
pub fn with_projections(mut select: SelectStmt, columns: &[String]) -> SelectStmt {
    select.projections = columns
        .iter()
        .map(|c| SelectItem::Expr {
            expr: Expr::col(c.clone()),
            alias: None,
        })
        .collect();
    select
}

/// Strip the leading sigil from a temp-object name (`#work` → `work`).
fn strip_sigil(name: &str) -> String {
    name.trim_start_matches(['#', '@']).to_string()
}

/// Does the column qualifier `q` refer to the table named `obj` (directly,
/// not via an alias)?
fn qualifier_matches(q: &str, obj: &ObjectName) -> bool {
    q.eq_ignore_ascii_case(&obj.name) || q.eq_ignore_ascii_case(&strip_sigil(&obj.name))
}

/// Rewrite every reference to table `old` into `new`, throughout the
/// statement (FROM clauses, DML targets, DDL names, EXEC targets, nested
/// SELECTs and procedure bodies).
///
/// FROM entries that referenced `old` *without an alias* are given the old
/// bare name (sigil stripped) as an alias so that qualified column
/// references keep resolving; column qualifiers naming `old` directly are
/// rewritten to that alias.
pub fn rename_table_refs(stmt: &Statement, old: &ObjectName, new: &ObjectName) -> Statement {
    let r = Renamer { old, new };
    r.statement(stmt)
}

struct Renamer<'a> {
    old: &'a ObjectName,
    new: &'a ObjectName,
}

impl Renamer<'_> {
    fn name(&self, n: &ObjectName) -> ObjectName {
        if n.same_as(self.old) {
            self.new.clone()
        } else {
            n.clone()
        }
    }

    fn statement(&self, stmt: &Statement) -> Statement {
        match stmt {
            Statement::Select(s) => Statement::Select(self.select(s)),
            Statement::Insert(i) => Statement::Insert(InsertStmt {
                table: self.name(&i.table),
                columns: i.columns.clone(),
                source: match &i.source {
                    InsertSource::Values(rows) => InsertSource::Values(
                        rows.iter()
                            .map(|r| r.iter().map(|e| self.expr(e)).collect())
                            .collect(),
                    ),
                    InsertSource::Select(s) => InsertSource::Select(Box::new(self.select(s))),
                },
            }),
            Statement::Update(u) => Statement::Update(UpdateStmt {
                table: self.name(&u.table),
                assignments: u
                    .assignments
                    .iter()
                    .map(|(c, e)| (c.clone(), self.expr(e)))
                    .collect(),
                where_clause: u.where_clause.as_ref().map(|e| self.expr(e)),
            }),
            Statement::Delete(d) => Statement::Delete(DeleteStmt {
                table: self.name(&d.table),
                where_clause: d.where_clause.as_ref().map(|e| self.expr(e)),
            }),
            Statement::CreateTable(c) => Statement::CreateTable(CreateTableStmt {
                name: self.name(&c.name),
                columns: c.columns.clone(),
                primary_key: c.primary_key.clone(),
            }),
            Statement::CreateTableAs { name, query } => Statement::CreateTableAs {
                name: self.name(name),
                query: Box::new(self.select(query)),
            },
            Statement::DropTable { name, if_exists } => Statement::DropTable {
                name: self.name(name),
                if_exists: *if_exists,
            },
            Statement::CreateProc(p) => Statement::CreateProc(CreateProcStmt {
                name: self.name(&p.name),
                params: p.params.clone(),
                body: p.body.iter().map(|s| self.statement(s)).collect(),
            }),
            Statement::DropProc { name, if_exists } => Statement::DropProc {
                name: self.name(name),
                if_exists: *if_exists,
            },
            Statement::Exec(e) => Statement::Exec(ExecStmt {
                name: self.name(&e.name),
                args: e.args.iter().map(|a| self.expr(a)).collect(),
            }),
            Statement::Set { name, value } => Statement::Set {
                name: name.clone(),
                value: self.expr(value),
            },
            Statement::Print(e) => Statement::Print(self.expr(e)),
            other => other.clone(),
        }
    }

    fn select(&self, s: &SelectStmt) -> SelectStmt {
        let from = s
            .from
            .iter()
            .map(|f| {
                if f.table.same_as(self.old) {
                    FromItem {
                        table: self.new.clone(),
                        // Preserve name resolution for columns qualified by
                        // the old table name.
                        alias: f
                            .alias
                            .clone()
                            .or_else(|| Some(strip_sigil(&self.old.name))),
                    }
                } else {
                    f.clone()
                }
            })
            .collect();
        SelectStmt {
            distinct: s.distinct,
            projections: s
                .projections
                .iter()
                .map(|p| match p {
                    SelectItem::Expr { expr, alias } => SelectItem::Expr {
                        expr: self.expr(expr),
                        alias: alias.clone(),
                    },
                    SelectItem::QualifiedWildcard(q) if qualifier_matches(q, self.old) => {
                        SelectItem::QualifiedWildcard(strip_sigil(&self.old.name))
                    }
                    other => other.clone(),
                })
                .collect(),
            from,
            where_clause: s.where_clause.as_ref().map(|e| self.expr(e)),
            group_by: s.group_by.iter().map(|e| self.expr(e)).collect(),
            having: s.having.as_ref().map(|e| self.expr(e)),
            order_by: s
                .order_by
                .iter()
                .map(|o| OrderByItem {
                    expr: self.expr(&o.expr),
                    desc: o.desc,
                })
                .collect(),
            limit: s.limit,
            offset: s.offset,
        }
    }

    fn expr(&self, e: &Expr) -> Expr {
        match e {
            Expr::Column {
                table: Some(q),
                name,
            } if qualifier_matches(q, self.old) => Expr::Column {
                table: Some(strip_sigil(&self.old.name)),
                name: name.clone(),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(self.expr(expr)),
            },
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(self.expr(left)),
                op: *op,
                right: Box::new(self.expr(right)),
            },
            Expr::Function {
                name,
                args,
                distinct,
            } => Expr::Function {
                name: name.clone(),
                args: args.iter().map(|a| self.expr(a)).collect(),
                distinct: *distinct,
            },
            Expr::Case {
                branches,
                else_expr,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (self.expr(c), self.expr(v)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|x| Box::new(self.expr(x))),
            },
            Expr::Between {
                expr,
                negated,
                low,
                high,
            } => Expr::Between {
                expr: Box::new(self.expr(expr)),
                negated: *negated,
                low: Box::new(self.expr(low)),
                high: Box::new(self.expr(high)),
            },
            Expr::InList {
                expr,
                negated,
                list,
            } => Expr::InList {
                expr: Box::new(self.expr(expr)),
                negated: *negated,
                list: list.iter().map(|x| self.expr(x)).collect(),
            },
            Expr::Like {
                expr,
                negated,
                pattern,
            } => Expr::Like {
                expr: Box::new(self.expr(expr)),
                negated: *negated,
                pattern: Box::new(self.expr(pattern)),
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(self.expr(expr)),
                negated: *negated,
            },
            Expr::Nested(inner) => Expr::Nested(Box::new(self.expr(inner))),
            other => other.clone(),
        }
    }
}

/// Collect every table reference in a statement (FROM clauses, DML targets,
/// nested selects, proc bodies). Used by Phoenix to find temp-object
/// references that need redirecting.
pub fn table_refs(stmt: &Statement) -> Vec<ObjectName> {
    let mut out = Vec::new();
    collect_stmt(stmt, &mut out);
    out
}

fn collect_stmt(stmt: &Statement, out: &mut Vec<ObjectName>) {
    match stmt {
        Statement::Select(s) => collect_select(s, out),
        Statement::Insert(i) => {
            out.push(i.table.clone());
            if let InsertSource::Select(s) = &i.source {
                collect_select(s, out);
            }
        }
        Statement::Update(u) => out.push(u.table.clone()),
        Statement::Delete(d) => out.push(d.table.clone()),
        Statement::CreateTable(c) => out.push(c.name.clone()),
        Statement::CreateTableAs { name, query } => {
            out.push(name.clone());
            collect_select(query, out);
        }
        Statement::DropTable { name, .. } => out.push(name.clone()),
        Statement::CreateProc(p) => {
            for s in &p.body {
                collect_stmt(s, out);
            }
        }
        _ => {}
    }
}

fn collect_select(s: &SelectStmt, out: &mut Vec<ObjectName>) {
    for f in &s.from {
        out.push(f.table.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::render_statement;
    use crate::parser::parse_statement;

    fn sel(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn with_projections_replaces_items() {
        let s = sel("SELECT a, b, c FROM t");
        let keys = with_projections(s, &["id".to_string(), "sub_id".to_string()]);
        assert_eq!(keys.projections.len(), 2);
    }

    #[test]
    fn rename_simple_from() {
        let old = ObjectName::bare("#work");
        let new = ObjectName::qualified("phoenix", "tmp_7_work");
        let stmt = parse_statement("SELECT * FROM #work WHERE v > 3").unwrap();
        let renamed = rename_table_refs(&stmt, &old, &new);
        let sql = render_statement(&renamed);
        assert!(sql.contains("FROM phoenix.tmp_7_work AS work"), "{sql}");
        parse_statement(&sql).unwrap();
    }

    #[test]
    fn rename_rewrites_column_qualifiers() {
        let old = ObjectName::bare("#work");
        let new = ObjectName::qualified("phoenix", "t7");
        let stmt = parse_statement("SELECT #work.v FROM #work").unwrap();
        let renamed = rename_table_refs(&stmt, &old, &new);
        let sql = render_statement(&renamed);
        assert!(sql.contains("work.v"), "{sql}");
        assert!(!sql.contains("#work"), "{sql}");
        parse_statement(&sql).unwrap();
    }

    #[test]
    fn rename_touches_dml_targets_and_nested_selects() {
        let old = ObjectName::bare("#stage");
        let new = ObjectName::qualified("phoenix", "stage_1");
        for sql in [
            "INSERT INTO #stage VALUES (1)",
            "INSERT INTO other SELECT * FROM #stage",
            "UPDATE #stage SET v = 1",
            "DELETE FROM #stage WHERE v = 2",
            "DROP TABLE #stage",
            "CREATE TABLE #stage AS SELECT * FROM other",
            "CREATE TABLE other AS SELECT * FROM #stage",
        ] {
            let renamed = rename_table_refs(&parse_statement(sql).unwrap(), &old, &new);
            let out = render_statement(&renamed);
            assert!(out.contains("phoenix.stage_1"), "{sql} -> {out}");
            assert!(!out.contains("#stage"), "{sql} -> {out}");
        }
    }

    #[test]
    fn rename_leaves_other_tables_alone() {
        let old = ObjectName::bare("#t");
        let new = ObjectName::qualified("phoenix", "x");
        let stmt =
            parse_statement("SELECT * FROM customer c, orders o WHERE c.id = o.cid").unwrap();
        let renamed = rename_table_refs(&stmt, &old, &new);
        assert_eq!(render_statement(&renamed), render_statement(&stmt));
    }

    #[test]
    fn rename_respects_existing_alias() {
        let old = ObjectName::bare("#w");
        let new = ObjectName::qualified("phoenix", "w1");
        let stmt = parse_statement("SELECT x.v FROM #w AS x").unwrap();
        let sql = render_statement(&rename_table_refs(&stmt, &old, &new));
        assert!(sql.contains("FROM phoenix.w1 AS x"), "{sql}");
        assert!(sql.contains("x.v"), "{sql}");
    }

    #[test]
    fn table_refs_finds_everything() {
        let stmt = parse_statement("INSERT INTO a SELECT * FROM b, #c").unwrap();
        let refs = table_refs(&stmt);
        let names: Vec<String> = refs.iter().map(|r| r.name.clone()).collect();
        assert_eq!(names, vec!["a", "b", "#c"]);
    }
}
