//! Rendering AST nodes back to parseable SQL.
//!
//! Phoenix's rewrites (result capture, key projection, temp-object
//! redirection) are implemented as AST surgery followed by re-rendering, so
//! the renderer must produce text the parser accepts and that means the same
//! thing. The property tests in this module's test suite (and proptest in
//! `tests/`) check `parse(render(ast)) == ast` on a normalized AST.
//!
//! Strings are escaped (`'` doubled); identifiers are emitted bare — the
//! dialect's identifiers are taken verbatim from the AST, so callers that
//! invent names must keep them lexable (Phoenix's generated names all are).

use std::fmt::Write;

use crate::ast::*;

/// Render a statement to SQL text.
pub fn render_statement(stmt: &Statement) -> String {
    let mut out = String::new();
    write_statement(&mut out, stmt);
    out
}

/// Render an expression to SQL text.
pub fn render_expr(expr: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr);
    out
}

fn write_statement(out: &mut String, stmt: &Statement) {
    match stmt {
        Statement::Select(s) => write_select(out, s),
        Statement::Insert(i) => {
            let _ = write!(out, "INSERT INTO {}", i.table);
            if let Some(cols) = &i.columns {
                let _ = write!(out, " ({})", cols.join(", "));
            }
            match &i.source {
                InsertSource::Values(rows) => {
                    out.push_str(" VALUES ");
                    for (ri, row) in rows.iter().enumerate() {
                        if ri > 0 {
                            out.push_str(", ");
                        }
                        out.push('(');
                        for (ci, e) in row.iter().enumerate() {
                            if ci > 0 {
                                out.push_str(", ");
                            }
                            write_expr(out, e);
                        }
                        out.push(')');
                    }
                }
                InsertSource::Select(sel) => {
                    out.push(' ');
                    write_select(out, sel);
                }
            }
        }
        Statement::Update(u) => {
            let _ = write!(out, "UPDATE {} SET ", u.table);
            for (i, (col, e)) in u.assignments.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{col} = ");
                write_expr(out, e);
            }
            if let Some(w) = &u.where_clause {
                out.push_str(" WHERE ");
                write_expr(out, w);
            }
        }
        Statement::Delete(d) => {
            let _ = write!(out, "DELETE FROM {}", d.table);
            if let Some(w) = &d.where_clause {
                out.push_str(" WHERE ");
                write_expr(out, w);
            }
        }
        Statement::CreateTable(c) => {
            let _ = write!(out, "CREATE TABLE {} (", c.name);
            for (i, col) in c.columns.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{} {}", col.name, col.type_name);
                if col.not_null {
                    out.push_str(" NOT NULL");
                }
            }
            if !c.primary_key.is_empty() {
                let _ = write!(out, ", PRIMARY KEY ({})", c.primary_key.join(", "));
            }
            out.push(')');
        }
        Statement::CreateTableAs { name, query } => {
            let _ = write!(out, "CREATE TABLE {name} AS ");
            write_select(out, query);
        }
        Statement::DropTable { name, if_exists } => {
            let _ = write!(
                out,
                "DROP TABLE {}{}",
                if *if_exists { "IF EXISTS " } else { "" },
                name
            );
        }
        Statement::CreateProc(p) => {
            let _ = write!(out, "CREATE PROCEDURE {}", p.name);
            if !p.params.is_empty() {
                out.push_str(" (");
                for (i, param) in p.params.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "@{} {}", param.name, param.type_name);
                }
                out.push(')');
            }
            out.push_str(" AS ");
            if p.body.len() == 1 && !matches!(p.body[0], Statement::Begin) {
                write_statement(out, &p.body[0]);
            } else {
                out.push_str("BEGIN ");
                for stmt in &p.body {
                    write_statement(out, stmt);
                    out.push_str("; ");
                }
                out.push_str("END");
            }
        }
        Statement::DropProc { name, if_exists } => {
            let _ = write!(
                out,
                "DROP PROCEDURE {}{}",
                if *if_exists { "IF EXISTS " } else { "" },
                name
            );
        }
        Statement::Exec(e) => {
            let _ = write!(out, "EXEC {}", e.name);
            if !e.args.is_empty() {
                out.push_str(" (");
                for (i, a) in e.args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_expr(out, a);
                }
                out.push(')');
            }
        }
        Statement::Begin => out.push_str("BEGIN TRANSACTION"),
        Statement::Commit => out.push_str("COMMIT"),
        Statement::Rollback => out.push_str("ROLLBACK"),
        Statement::Set { name, value } => {
            let _ = write!(out, "SET {name} = ");
            write_expr(out, value);
        }
        Statement::Print(e) => {
            out.push_str("PRINT ");
            write_expr(out, e);
        }
        Statement::CreateIndex {
            name,
            table,
            column,
        } => {
            let _ = write!(out, "CREATE INDEX {name} ON {table} ({column})");
        }
        Statement::DropIndex { name, if_exists } => {
            out.push_str("DROP INDEX ");
            if *if_exists {
                out.push_str("IF EXISTS ");
            }
            out.push_str(name);
        }
        Statement::Explain(inner) => {
            out.push_str("EXPLAIN ");
            write_statement(out, inner);
        }
    }
}

fn write_select(out: &mut String, s: &SelectStmt) {
    out.push_str("SELECT ");
    if s.distinct {
        out.push_str("DISTINCT ");
    }
    for (i, item) in s.projections.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::QualifiedWildcard(t) => {
                let _ = write!(out, "{t}.*");
            }
            SelectItem::Expr { expr, alias } => {
                write_expr(out, expr);
                if let Some(a) = alias {
                    let _ = write!(out, " AS {a}");
                }
            }
        }
    }
    if !s.from.is_empty() {
        out.push_str(" FROM ");
        for (i, f) in s.from.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}", f.table);
            if let Some(a) = &f.alias {
                let _ = write!(out, " AS {a}");
            }
        }
    }
    if let Some(w) = &s.where_clause {
        out.push_str(" WHERE ");
        write_expr(out, w);
    }
    if !s.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        for (i, e) in s.group_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, e);
        }
    }
    if let Some(h) = &s.having {
        out.push_str(" HAVING ");
        write_expr(out, h);
    }
    if !s.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        for (i, o) in s.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, &o.expr);
            if o.desc {
                out.push_str(" DESC");
            }
        }
    }
    if let Some(l) = s.limit {
        let _ = write!(out, " LIMIT {l}");
    }
    if let Some(o) = s.offset {
        let _ = write!(out, " OFFSET {o}");
    }
}

fn write_expr(out: &mut String, expr: &Expr) {
    match expr {
        Expr::Literal(l) => match l {
            Literal::Null => out.push_str("NULL"),
            Literal::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Literal::Float(v) => {
                // Rust's Display is shortest-roundtrip but may print an
                // integer-looking string; mark floatness explicitly so the
                // literal reparses as a float.
                let text = format!("{v}");
                let _ = write!(out, "{text}");
                if !text.contains('.') && !text.contains('e') && !text.contains('E') {
                    out.push_str(".0");
                }
            }
            Literal::String(s) => {
                let _ = write!(out, "'{}'", s.replace('\'', "''"));
            }
            Literal::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
            Literal::Date(d) => {
                let _ = write!(out, "DATE '{d}'");
            }
        },
        Expr::Column { table, name } => match table {
            Some(t) => {
                let _ = write!(out, "{t}.{name}");
            }
            None => {
                let _ = write!(out, "{name}");
            }
        },
        Expr::Param(p) => {
            let _ = write!(out, "@{p}");
        }
        Expr::SysVar(n) => {
            let _ = write!(out, "@@{n}");
        }
        Expr::Unary { op, expr } => {
            // Wrap the whole unary in parentheses as well as the operand:
            // `NOT` parses at a higher level than predicate operands, so a
            // bare `NOT (x) = y` would re-associate as `NOT ((x) = y)`.
            match op {
                UnaryOp::Not => out.push_str("(NOT ("),
                UnaryOp::Neg => out.push_str("(-("),
            }
            write_expr(out, expr);
            out.push_str("))");
        }
        Expr::Binary { left, op, right } => {
            // Always parenthesize binary expressions; the parser strips
            // `Nested` wrappers via normalization, so round-tripping is exact
            // up to normalization (see `normalize`).
            out.push('(');
            write_expr(out, left);
            let _ = write!(out, " {} ", op.sql());
            write_expr(out, right);
            out.push(')');
        }
        Expr::Function {
            name,
            args,
            distinct,
        } => {
            let _ = write!(out, "{name}(");
            if *distinct {
                out.push_str("DISTINCT ");
            }
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                match a {
                    Expr::Wildcard => out.push('*'),
                    other => write_expr(out, other),
                }
            }
            out.push(')');
        }
        Expr::Wildcard => out.push('*'),
        Expr::Case {
            branches,
            else_expr,
        } => {
            out.push_str("CASE");
            for (cond, val) in branches {
                out.push_str(" WHEN ");
                write_expr(out, cond);
                out.push_str(" THEN ");
                write_expr(out, val);
            }
            if let Some(e) = else_expr {
                out.push_str(" ELSE ");
                write_expr(out, e);
            }
            out.push_str(" END");
        }
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            out.push('(');
            write_expr(out, expr);
            out.push_str(if *negated {
                " NOT BETWEEN "
            } else {
                " BETWEEN "
            });
            write_expr(out, low);
            out.push_str(" AND ");
            write_expr(out, high);
            out.push(')');
        }
        Expr::InList {
            expr,
            negated,
            list,
        } => {
            out.push('(');
            write_expr(out, expr);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            for (i, e) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, e);
            }
            out.push_str("))");
        }
        Expr::Like {
            expr,
            negated,
            pattern,
        } => {
            out.push('(');
            write_expr(out, expr);
            out.push_str(if *negated { " NOT LIKE " } else { " LIKE " });
            write_expr(out, pattern);
            out.push(')');
        }
        Expr::IsNull { expr, negated } => {
            out.push('(');
            write_expr(out, expr);
            out.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
            out.push(')');
        }
        Expr::Nested(inner) => {
            out.push('(');
            write_expr(out, inner);
            out.push(')');
        }
    }
}

/// Strip `Nested` wrappers throughout an expression, producing the canonical
/// form used to compare round-tripped ASTs. The renderer inserts parentheses
/// for correctness; the parser records them as `Nested`; normalization makes
/// the two sides comparable.
pub fn normalize_expr(expr: &Expr) -> Expr {
    match expr {
        Expr::Nested(inner) => normalize_expr(inner),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(normalize_expr(expr)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(normalize_expr(left)),
            op: *op,
            right: Box::new(normalize_expr(right)),
        },
        Expr::Function {
            name,
            args,
            distinct,
        } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(normalize_expr).collect(),
            distinct: *distinct,
        },
        Expr::Case {
            branches,
            else_expr,
        } => Expr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| (normalize_expr(c), normalize_expr(v)))
                .collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(normalize_expr(e))),
        },
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => Expr::Between {
            expr: Box::new(normalize_expr(expr)),
            negated: *negated,
            low: Box::new(normalize_expr(low)),
            high: Box::new(normalize_expr(high)),
        },
        Expr::InList {
            expr,
            negated,
            list,
        } => Expr::InList {
            expr: Box::new(normalize_expr(expr)),
            negated: *negated,
            list: list.iter().map(normalize_expr).collect(),
        },
        Expr::Like {
            expr,
            negated,
            pattern,
        } => Expr::Like {
            expr: Box::new(normalize_expr(expr)),
            negated: *negated,
            pattern: Box::new(normalize_expr(pattern)),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(normalize_expr(expr)),
            negated: *negated,
        },
        other => other.clone(),
    }
}

/// Normalize every expression inside a statement (see [`normalize_expr`]).
pub fn normalize_statement(stmt: &Statement) -> Statement {
    fn norm_select(s: &SelectStmt) -> SelectStmt {
        SelectStmt {
            distinct: s.distinct,
            projections: s
                .projections
                .iter()
                .map(|p| match p {
                    SelectItem::Expr { expr, alias } => SelectItem::Expr {
                        expr: normalize_expr(expr),
                        alias: alias.clone(),
                    },
                    other => other.clone(),
                })
                .collect(),
            from: s.from.clone(),
            where_clause: s.where_clause.as_ref().map(normalize_expr),
            group_by: s.group_by.iter().map(normalize_expr).collect(),
            having: s.having.as_ref().map(normalize_expr),
            order_by: s
                .order_by
                .iter()
                .map(|o| OrderByItem {
                    expr: normalize_expr(&o.expr),
                    desc: o.desc,
                })
                .collect(),
            limit: s.limit,
            offset: s.offset,
        }
    }

    match stmt {
        Statement::Select(s) => Statement::Select(norm_select(s)),
        Statement::Insert(i) => Statement::Insert(InsertStmt {
            table: i.table.clone(),
            columns: i.columns.clone(),
            source: match &i.source {
                InsertSource::Values(rows) => InsertSource::Values(
                    rows.iter()
                        .map(|r| r.iter().map(normalize_expr).collect())
                        .collect(),
                ),
                InsertSource::Select(s) => InsertSource::Select(Box::new(norm_select(s))),
            },
        }),
        Statement::Update(u) => Statement::Update(UpdateStmt {
            table: u.table.clone(),
            assignments: u
                .assignments
                .iter()
                .map(|(c, e)| (c.clone(), normalize_expr(e)))
                .collect(),
            where_clause: u.where_clause.as_ref().map(normalize_expr),
        }),
        Statement::Delete(d) => Statement::Delete(DeleteStmt {
            table: d.table.clone(),
            where_clause: d.where_clause.as_ref().map(normalize_expr),
        }),
        Statement::CreateTableAs { name, query } => Statement::CreateTableAs {
            name: name.clone(),
            query: Box::new(norm_select(query)),
        },
        Statement::CreateProc(p) => Statement::CreateProc(CreateProcStmt {
            name: p.name.clone(),
            params: p.params.clone(),
            body: p.body.iter().map(normalize_statement).collect(),
        }),
        Statement::Exec(e) => Statement::Exec(ExecStmt {
            name: e.name.clone(),
            args: e.args.iter().map(normalize_expr).collect(),
        }),
        Statement::Set { name, value } => Statement::Set {
            name: name.clone(),
            value: normalize_expr(value),
        },
        Statement::Print(e) => Statement::Print(normalize_expr(e)),
        Statement::Explain(inner) => Statement::Explain(Box::new(normalize_statement(inner))),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    /// parse → render → parse must be a fixed point (after normalization).
    fn roundtrip(sql: &str) {
        let ast1 = normalize_statement(&parse_statement(sql).unwrap());
        let rendered = render_statement(&ast1);
        let ast2 = normalize_statement(
            &parse_statement(&rendered)
                .unwrap_or_else(|e| panic!("re-parse of {rendered:?} failed: {e}")),
        );
        assert_eq!(ast1, ast2, "roundtrip mismatch for {sql:?} → {rendered:?}");
    }

    #[test]
    fn select_roundtrips() {
        roundtrip("SELECT 1");
        roundtrip("SELECT * FROM t");
        roundtrip("SELECT a, b AS bee, t.c FROM dbo.t AS t WHERE a = 1 AND b <> 'x''y'");
        roundtrip("SELECT COUNT(*), SUM(x + 1) FROM t GROUP BY g HAVING COUNT(*) > 2 ORDER BY g DESC LIMIT 3 OFFSET 4");
        roundtrip("SELECT CASE WHEN a LIKE 'P%' THEN b ELSE 0 END FROM t");
        roundtrip("SELECT * FROM t WHERE d BETWEEN DATE '1994-01-01' AND DATE '1995-01-01'");
        roundtrip("SELECT * FROM a, b WHERE a.x = b.x AND a.y IN (1, 2, 3)");
        roundtrip("SELECT COUNT(DISTINCT s) FROM ps WHERE k IS NOT NULL");
        roundtrip("SELECT -x, NOT (a = 1) FROM t");
    }

    #[test]
    fn dml_and_ddl_roundtrip() {
        roundtrip("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)");
        roundtrip("INSERT INTO phoenix.rs_1 SELECT * FROM c WHERE name = 'Smith'");
        roundtrip("UPDATE t SET a = a + 1 WHERE b = TRUE");
        roundtrip("DELETE FROM t WHERE a % 2 = 0");
        roundtrip("CREATE TABLE t (id INT NOT NULL, v TEXT, PRIMARY KEY (id))");
        roundtrip("CREATE TABLE phoenix.rs_1 AS SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a");
        roundtrip("DROP TABLE IF EXISTS phoenix.rs_1");
        roundtrip("CREATE PROCEDURE p (@a INT, @b TEXT) AS SELECT * FROM t WHERE x = @a");
        roundtrip("CREATE PROC p AS BEGIN INSERT INTO t VALUES (1); SELECT * FROM t END");
        roundtrip("DROP PROCEDURE IF EXISTS p");
        roundtrip("CREATE INDEX ix_bal ON acct (bal)");
        roundtrip("DROP INDEX ix_bal");
        roundtrip("DROP INDEX IF EXISTS ix_bal");
        roundtrip("EXPLAIN SELECT a FROM t WHERE b > 3 ORDER BY a");
        roundtrip("EXEC p (1, 'x')");
        roundtrip("EXEC p");
        roundtrip("BEGIN TRANSACTION");
        roundtrip("COMMIT");
        roundtrip("ROLLBACK");
        roundtrip("SET autocommit = TRUE");
        roundtrip("PRINT 'committed batch 7'");
    }

    #[test]
    fn join_renders_as_where_conjunct() {
        // Explicit JOIN folds into WHERE at parse time; the rendered form
        // must therefore round-trip to itself.
        roundtrip("SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y > 1");
    }

    #[test]
    fn string_escaping() {
        let sql = "SELECT 'it''s'";
        let ast = parse_statement(sql).unwrap();
        assert_eq!(render_statement(&ast), "SELECT 'it''s'");
    }

    #[test]
    fn temp_names_render_with_sigil() {
        let ast = parse_statement("CREATE TABLE #tmp (v INT)").unwrap();
        assert!(render_statement(&ast).contains("#tmp"));
    }
}
