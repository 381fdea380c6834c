//! The abstract syntax tree.
//!
//! The tree is designed to round-trip: `parse(render(ast)) == ast` for every
//! constructible statement, which is what lets Phoenix rewrite requests by
//! AST surgery and re-rendering (see [`crate::display`] and
//! [`crate::rewrite`]).

use std::fmt;

/// What joins a statement's messages in the text of `@@MESSAGES` (and so in
/// the messages column of Phoenix's status table): the ASCII unit separator,
/// which PRINT output does not contain in practice.
pub const MESSAGE_SEPARATOR: &str = "\u{1f}";

/// A possibly namespace-qualified object name (`dbo.orders`, `phoenix.rs_1`,
/// `#session_temp`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectName {
    /// Optional namespace (`dbo`, `phoenix`). Temp objects (`#x`) never have
    /// one.
    pub namespace: Option<String>,
    /// The object's own name (includes the `#` sigil for temp objects).
    pub name: String,
}

impl ObjectName {
    /// An unqualified name (resolved in the default `dbo` namespace).
    pub fn bare(name: impl Into<String>) -> ObjectName {
        ObjectName {
            namespace: None,
            name: name.into(),
        }
    }

    /// A namespace-qualified name.
    pub fn qualified(ns: impl Into<String>, name: impl Into<String>) -> ObjectName {
        ObjectName {
            namespace: Some(ns.into()),
            name: name.into(),
        }
    }

    /// Session temporary object (`#name`)?
    pub fn is_temp(&self) -> bool {
        self.name.starts_with('#')
    }

    /// Fully qualified lowercase form used as a catalog key; bare names
    /// default to the `dbo` namespace, temp names stay bare.
    pub fn canonical(&self) -> String {
        match (&self.namespace, self.is_temp()) {
            (_, true) => self.name.to_ascii_lowercase(),
            (Some(ns), false) => format!(
                "{}.{}",
                ns.to_ascii_lowercase(),
                self.name.to_ascii_lowercase()
            ),
            (None, false) => format!("dbo.{}", self.name.to_ascii_lowercase()),
        }
    }

    /// Case-insensitive equality on the canonical form.
    pub fn same_as(&self, other: &ObjectName) -> bool {
        self.canonical() == other.canonical()
    }
}

impl fmt::Display for ObjectName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.namespace {
            Some(ns) => write!(f, "{ns}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// SQL literal values as they appear in source text. Conversion to engine
/// values (including date parsing) happens in the engine, keeping this crate
/// dependency-free.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// `NULL`.
    Null,
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// `'single-quoted'` string (quote-escaping already resolved).
    String(String),
    /// `TRUE` / `FALSE`.
    Bool(bool),
    /// `DATE '2026-07-05'` — kept as text; the engine parses it.
    Date(String),
}

/// Binary operators, in SQL spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+` (also string concatenation and date offset).
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/` (always yields a float — see the engine's dialect notes).
    Div,
    /// `%`.
    Mod,
    /// `=`.
    Eq,
    /// `<>` / `!=`.
    NotEq,
    /// `<`.
    Lt,
    /// `<=`.
    LtEq,
    /// `>`.
    Gt,
    /// `>=`.
    GtEq,
    /// `AND` (Kleene three-valued).
    And,
    /// `OR` (Kleene three-valued).
    Or,
}

impl BinaryOp {
    /// The SQL spelling of this operator.
    pub fn sql(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        }
    }

    /// Is this a comparison yielding a boolean?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical `NOT`.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Literal(Literal),
    /// Column reference, optionally qualified by table or alias.
    Column {
        /// Qualifier (table name or alias), if written.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Procedure parameter `@name`.
    Param(String),
    /// System variable `@@NAME` (T-SQL style; name stored uppercased), bound
    /// by the engine from the session: `@@ROWCOUNT` is the rows the session's
    /// previous statement affected or returned, `@@MESSAGES` its messages
    /// joined by [`MESSAGE_SEPARATOR`]. Reading both in the statement after a
    /// DML is what lets a wrapped request record its own outcome server-side
    /// inside one batch.
    SysVar(String),
    /// Unary operator application.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operator application.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Function call — aggregates (`SUM`, `COUNT`, `AVG`, `MIN`, `MAX`) and
    /// scalar functions alike; the engine distinguishes them by name.
    Function {
        /// Function name, uppercased by the parser.
        name: String,
        /// Argument expressions ([`Expr::Wildcard`] for `COUNT(*)`).
        args: Vec<Expr>,
        /// `DISTINCT` modifier (aggregates only).
        distinct: bool,
    },
    /// `COUNT(*)` argument.
    Wildcard,
    /// `CASE WHEN c THEN e [WHEN ...] [ELSE e] END`
    Case {
        /// `(condition, value)` pairs in order.
        branches: Vec<(Expr, Expr)>,
        /// Optional `ELSE` value (`NULL` when absent).
        else_expr: Option<Box<Expr>>,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// `NOT BETWEEN`?
        negated: bool,
        /// Inclusive lower bound.
        low: Box<Expr>,
        /// Inclusive upper bound.
        high: Box<Expr>,
    },
    /// `expr [NOT] IN (e1, e2, …)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// `NOT IN`?
        negated: bool,
        /// The membership list.
        list: Vec<Expr>,
    },
    /// `expr [NOT] LIKE pattern` (`%` and `_` wildcards).
    Like {
        /// The tested expression.
        expr: Box<Expr>,
        /// `NOT LIKE`?
        negated: bool,
        /// The pattern expression.
        pattern: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL`?
        negated: bool,
    },
    /// Parenthesized grouping is not preserved — precedence is structural.
    Nested(Box<Expr>),
}

impl Expr {
    /// Integer literal shorthand.
    pub fn lit_int(v: i64) -> Expr {
        Expr::Literal(Literal::Int(v))
    }

    /// String literal shorthand.
    pub fn lit_str(v: impl Into<String>) -> Expr {
        Expr::Literal(Literal::String(v.into()))
    }

    /// Unqualified column reference shorthand.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            table: None,
            name: name.into(),
        }
    }

    /// Qualified column reference shorthand.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            table: Some(table.into()),
            name: name.into(),
        }
    }

    /// Build a binary expression.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// `left AND right` shorthand.
    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinaryOp::And, right)
    }

    /// `left = right` shorthand.
    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinaryOp::Eq, right)
    }
}

/// One item in a SELECT projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// An expression with an optional `AS alias`.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Output column alias, if given.
        alias: Option<String>,
    },
}

/// A table in the FROM clause with an optional alias. Explicit
/// `JOIN … ON` syntax is parsed and folded to (tables, conjunctive
/// predicate); the engine's planner recovers equi-join structure from the
/// conjuncts.
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    /// The table being read.
    pub table: ObjectName,
    /// Range-variable alias, if given.
    pub alias: Option<String>,
}

#[derive(Debug, Clone, PartialEq)]
/// One `ORDER BY` item.
pub struct OrderByItem {
    /// Sort key (expression, alias, or 1-based ordinal literal).
    pub expr: Expr,
    /// Descending order?
    pub desc: bool,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// The projection list.
    pub projections: Vec<SelectItem>,
    /// FROM tables (explicit JOINs are folded to tables + WHERE conjuncts).
    pub from: Vec<FromItem>,
    /// The WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate (group filter).
    pub having: Option<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderByItem>,
    /// `LIMIT n` / `TOP n`.
    pub limit: Option<u64>,
    /// `OFFSET n` — server-side skip (Phoenix's repositioning uses this).
    pub offset: Option<u64>,
}

impl SelectStmt {
    /// A minimal `SELECT <projections>` with no FROM clause.
    pub fn bare(projections: Vec<SelectItem>) -> SelectStmt {
        SelectStmt {
            distinct: false,
            projections,
            from: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }

    /// `SELECT * FROM <table>`
    pub fn star_from(table: ObjectName) -> SelectStmt {
        SelectStmt {
            distinct: false,
            projections: vec![SelectItem::Wildcard],
            from: vec![FromItem { table, alias: None }],
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }
}

/// Column definition in CREATE TABLE. Types are kept as parsed names and
/// validated by the engine, so the sql crate stays storage-agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Type name as written (`INT`, `VARCHAR`, …); validated by the engine.
    pub type_name: String,
    /// `NOT NULL` constraint?
    pub not_null: bool,
}

#[derive(Debug, Clone, PartialEq)]
/// `CREATE TABLE` statement.
pub struct CreateTableStmt {
    /// The table to create.
    pub name: ObjectName,
    /// Column definitions in order.
    pub columns: Vec<ColumnDef>,
    /// Column names listed in `PRIMARY KEY (…)`.
    pub primary_key: Vec<String>,
}

#[derive(Debug, Clone, PartialEq)]
/// Where an INSERT's rows come from.
pub enum InsertSource {
    /// `VALUES (…), (…)` tuples.
    Values(Vec<Vec<Expr>>),
    /// `INSERT INTO t SELECT …` — the form Phoenix's capture rewrite uses.
    Select(Box<SelectStmt>),
}

#[derive(Debug, Clone, PartialEq)]
/// `INSERT` statement.
pub struct InsertStmt {
    /// Target table.
    pub table: ObjectName,
    /// Explicit column list, if given.
    pub columns: Option<Vec<String>>,
    /// The rows to insert.
    pub source: InsertSource,
}

#[derive(Debug, Clone, PartialEq)]
/// `UPDATE` statement.
pub struct UpdateStmt {
    /// Target table.
    pub table: ObjectName,
    /// `SET column = expr` pairs in order.
    pub assignments: Vec<(String, Expr)>,
    /// Row filter; all rows when absent.
    pub where_clause: Option<Expr>,
}

#[derive(Debug, Clone, PartialEq)]
/// `DELETE` statement.
pub struct DeleteStmt {
    /// Target table.
    pub table: ObjectName,
    /// Row filter; all rows when absent.
    pub where_clause: Option<Expr>,
}

/// Procedure parameter: `@name TYPE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcParam {
    /// Parameter name (without the `@` sigil).
    pub name: String,
    /// Declared type name (advisory; arguments are dynamically typed).
    pub type_name: String,
}

#[derive(Debug, Clone, PartialEq)]
/// `CREATE PROCEDURE` statement.
pub struct CreateProcStmt {
    /// Procedure name.
    pub name: ObjectName,
    /// Declared parameters in order.
    pub params: Vec<ProcParam>,
    /// Body statements (one, or a `BEGIN … END` block).
    pub body: Vec<Statement>,
}

#[derive(Debug, Clone, PartialEq)]
/// `EXEC` (procedure invocation) statement.
pub struct ExecStmt {
    /// Procedure to invoke.
    pub name: ObjectName,
    /// Positional arguments.
    pub args: Vec<Expr>,
}

/// A complete SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT …`.
    Select(SelectStmt),
    /// `INSERT …`.
    Insert(InsertStmt),
    /// `UPDATE …`.
    Update(UpdateStmt),
    /// `DELETE …`.
    Delete(DeleteStmt),
    /// `CREATE TABLE …`.
    CreateTable(CreateTableStmt),
    /// `CREATE TABLE name AS <select>` — a table whose columns are the
    /// query's result columns and whose rows are its result, made by one
    /// statement.
    CreateTableAs {
        /// The table to create.
        name: ObjectName,
        /// The query that defines and fills it.
        query: Box<SelectStmt>,
    },
    /// `DROP TABLE [IF EXISTS] …`.
    DropTable {
        /// The table to drop.
        name: ObjectName,
        /// Suppress the not-found error?
        if_exists: bool,
    },
    /// `CREATE PROCEDURE …`.
    CreateProc(CreateProcStmt),
    /// `DROP PROCEDURE [IF EXISTS] …`.
    DropProc {
        /// The procedure to drop.
        name: ObjectName,
        /// Suppress the not-found error?
        if_exists: bool,
    },
    /// `EXEC name (args…)`.
    Exec(ExecStmt),
    /// `BEGIN [TRANSACTION]`.
    Begin,
    /// `COMMIT`.
    Commit,
    /// `ROLLBACK`.
    Rollback,
    /// Session option: `SET name value` (value is a literal expression).
    Set {
        /// Option name.
        name: String,
        /// Option value expression.
        value: Expr,
    },
    /// `PRINT expr` — emits a server message (used to exercise the paper's
    /// reply-buffer persistence).
    Print(Expr),
    /// `CREATE INDEX name ON table (column)` — a single-column secondary
    /// index.
    CreateIndex {
        /// Index name (unique per table).
        name: String,
        /// The table to index.
        table: ObjectName,
        /// The indexed column.
        column: String,
    },
    /// `DROP INDEX [IF EXISTS] name` — the owning table is resolved from
    /// the catalog.
    DropIndex {
        /// The index to drop.
        name: String,
        /// Suppress the not-found error?
        if_exists: bool,
    },
    /// `EXPLAIN <stmt>` — return the planner's chosen access paths as an
    /// ordinary result set instead of executing the statement.
    Explain(Box<Statement>),
}

impl Statement {
    /// The object this statement creates, if it is a CREATE.
    pub fn created_object(&self) -> Option<&ObjectName> {
        match self {
            Statement::CreateTable(c) => Some(&c.name),
            Statement::CreateTableAs { name, .. } => Some(name),
            Statement::CreateProc(c) => Some(&c.name),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_name_canonicalization() {
        assert_eq!(ObjectName::bare("Orders").canonical(), "dbo.orders");
        assert_eq!(
            ObjectName::qualified("Phoenix", "RS_1").canonical(),
            "phoenix.rs_1"
        );
        assert_eq!(ObjectName::bare("#Tmp").canonical(), "#tmp");
        assert!(ObjectName::bare("#t").is_temp());
        assert!(!ObjectName::qualified("dbo", "t").is_temp());
    }

    #[test]
    fn same_as_ignores_case_and_default_namespace() {
        assert!(ObjectName::bare("orders").same_as(&ObjectName::qualified("DBO", "ORDERS")));
        assert!(!ObjectName::bare("orders").same_as(&ObjectName::qualified("phoenix", "orders")));
    }

    #[test]
    fn expr_builders() {
        let e = Expr::and(
            Expr::eq(Expr::col("a"), Expr::lit_int(1)),
            Expr::binary(Expr::qcol("t", "b"), BinaryOp::Gt, Expr::lit_str("x")),
        );
        match e {
            Expr::Binary {
                op: BinaryOp::And, ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
