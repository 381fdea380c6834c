//! The "one-pass parse to determine request type" (paper §3).
//!
//! When Phoenix intercepts an application request it must decide, before
//! forwarding anything, which persistence mechanism applies: result-set
//! materialization for queries, transaction-wrapping for data modification,
//! temp-object redirection for temporary DDL, context logging for SET, and
//! so on. [`classify`] is that decision.

use crate::ast::{ObjectName, Statement};
use crate::rewrite::table_refs;

/// The request categories Phoenix distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// SELECT — produces a result set that must be made recoverable.
    Query,
    /// INSERT / UPDATE / DELETE — has *testable state* (rows affected) that
    /// must be recorded transactionally.
    DataModification,
    /// CREATE/DROP TABLE or PROCEDURE — may create or destroy session
    /// temporary objects that Phoenix must redirect.
    Ddl,
    /// Stored-procedure invocation; may return a result set.
    Exec,
    /// BEGIN — opens an application transaction.
    TxnBegin,
    /// COMMIT / ROLLBACK.
    TxnEnd,
    /// SET — session context that must be replayed at recovery.
    SessionContext,
    /// PRINT and similar — generates server messages only.
    Message,
}

/// Classify a parsed statement.
pub fn classify(stmt: &Statement) -> RequestKind {
    match stmt {
        Statement::Select(_) => RequestKind::Query,
        Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => {
            RequestKind::DataModification
        }
        Statement::CreateTable(_)
        | Statement::CreateTableAs { .. }
        | Statement::DropTable { .. }
        | Statement::CreateProc(_)
        | Statement::DropProc { .. }
        | Statement::CreateIndex { .. }
        | Statement::DropIndex { .. } => RequestKind::Ddl,
        Statement::Exec(_) => RequestKind::Exec,
        Statement::Begin => RequestKind::TxnBegin,
        Statement::Commit | Statement::Rollback => RequestKind::TxnEnd,
        Statement::Set { .. } => RequestKind::SessionContext,
        Statement::Print(_) => RequestKind::Message,
        // EXPLAIN reads the catalog and returns rows; route it like a query.
        Statement::Explain(_) => RequestKind::Query,
    }
}

/// Does this statement produce a result set the client will fetch from?
pub fn produces_result_set(stmt: &Statement) -> bool {
    matches!(stmt, Statement::Select(_) | Statement::Explain(_))
}

/// The temp object this statement *creates*, if any (`CREATE TABLE #x`,
/// `CREATE PROCEDURE #p`).
pub fn creates_temp_object(stmt: &Statement) -> Option<&ObjectName> {
    stmt.created_object().filter(|n| n.is_temp())
}

/// The temp object this statement *drops*, if any.
pub fn drops_temp_object(stmt: &Statement) -> Option<&ObjectName> {
    match stmt {
        Statement::DropTable { name, .. } | Statement::DropProc { name, .. } if name.is_temp() => {
            Some(name)
        }
        _ => None,
    }
}

/// Every temp-object *reference* in the statement (targets and FROM
/// clauses), deduplicated, in first-appearance order.
pub fn temp_object_refs(stmt: &Statement) -> Vec<ObjectName> {
    let mut seen = Vec::new();
    for r in table_refs(stmt) {
        if r.is_temp() && !seen.iter().any(|s: &ObjectName| s.same_as(&r)) {
            seen.push(r);
        }
    }
    // EXEC of a temp proc is also a temp reference.
    if let Statement::Exec(e) = stmt {
        if e.name.is_temp() && !seen.iter().any(|s| s.same_as(&e.name)) {
            seen.push(e.name.clone());
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn kind(sql: &str) -> RequestKind {
        classify(&parse_statement(sql).unwrap())
    }

    #[test]
    fn classification() {
        assert_eq!(kind("SELECT * FROM t"), RequestKind::Query);
        assert_eq!(
            kind("INSERT INTO t VALUES (1)"),
            RequestKind::DataModification
        );
        assert_eq!(kind("UPDATE t SET a = 1"), RequestKind::DataModification);
        assert_eq!(kind("DELETE FROM t"), RequestKind::DataModification);
        assert_eq!(kind("CREATE TABLE t (a INT)"), RequestKind::Ddl);
        assert_eq!(kind("CREATE TABLE t AS SELECT a FROM u"), RequestKind::Ddl);
        assert_eq!(kind("DROP PROCEDURE p"), RequestKind::Ddl);
        assert_eq!(kind("EXEC p"), RequestKind::Exec);
        assert_eq!(kind("BEGIN TRAN"), RequestKind::TxnBegin);
        assert_eq!(kind("COMMIT"), RequestKind::TxnEnd);
        assert_eq!(kind("ROLLBACK"), RequestKind::TxnEnd);
        assert_eq!(kind("SET opt 1"), RequestKind::SessionContext);
        assert_eq!(kind("PRINT 'x'"), RequestKind::Message);
        assert_eq!(kind("CREATE INDEX ix ON t (a)"), RequestKind::Ddl);
        assert_eq!(kind("DROP INDEX ix"), RequestKind::Ddl);
        assert_eq!(kind("EXPLAIN SELECT * FROM t"), RequestKind::Query);
        let explain = parse_statement("EXPLAIN SELECT * FROM t").unwrap();
        assert!(produces_result_set(&explain));
    }

    #[test]
    fn temp_creation_detection() {
        let s = parse_statement("CREATE TABLE #work (v INT)").unwrap();
        assert_eq!(creates_temp_object(&s).unwrap().name, "#work");
        let s = parse_statement("CREATE TABLE real_table (v INT)").unwrap();
        assert!(creates_temp_object(&s).is_none());
        let s = parse_statement("CREATE TABLE #copy AS SELECT * FROM t").unwrap();
        assert_eq!(creates_temp_object(&s).unwrap().name, "#copy");
        let s = parse_statement("CREATE PROC #p AS SELECT 1").unwrap();
        assert_eq!(creates_temp_object(&s).unwrap().name, "#p");
    }

    #[test]
    fn temp_drop_detection() {
        let s = parse_statement("DROP TABLE #work").unwrap();
        assert_eq!(drops_temp_object(&s).unwrap().name, "#work");
        let s = parse_statement("DROP TABLE solid").unwrap();
        assert!(drops_temp_object(&s).is_none());
    }

    #[test]
    fn temp_references_found_and_deduped() {
        let s = parse_statement("INSERT INTO #a SELECT * FROM #a, #b, real").unwrap();
        let refs = temp_object_refs(&s);
        let names: Vec<&str> = refs.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["#a", "#b"]);
    }

    #[test]
    fn exec_of_temp_proc_is_a_temp_ref() {
        let s = parse_statement("EXEC #p (1)").unwrap();
        assert_eq!(temp_object_refs(&s)[0].name, "#p");
    }
}
