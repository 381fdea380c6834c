#![warn(missing_docs)]

//! # phoenix-sql
//!
//! The SQL front end shared by the engine and by Phoenix itself.
//!
//! Phoenix/ODBC (Barga, Lomet, Baby, Agrawal; EDBT 2000) works by
//! *intercepting* SQL on its way to the server, classifying it with a
//! one-pass parse, and *rewriting* selected statements — wrapping a query
//! as `CREATE TABLE … AS <select>` to capture its result at the server,
//! renaming temporary objects to persistent ones. That makes the SQL layer a
//! first-class citizen of the reproduction, not just an engine detail:
//!
//! * [`lexer`] — tokenizer (keywords, quoted and `#temp` identifiers, string
//!   and numeric literals, `@params`).
//! * [`ast`] — the statement and expression trees.
//! * [`parser`] — recursive-descent parser with precedence climbing.
//! * [`display`] — renders any AST node back to parseable SQL; Phoenix's
//!   rewrites are AST surgery followed by re-rendering.
//! * [`rewrite`] — the rewrite toolkit (key projections, object
//!   renaming).
//! * [`classify`](mod@classify) — the "one-pass parse to determine request type" from
//!   §3 of the paper.
//!
//! The dialect is a pragmatic subset of ANSI SQL plus the T-SQL-isms the
//! paper relies on (temp `#names`, `EXEC`, `PRINT`, `TOP`).

pub mod ast;
pub mod classify;
pub mod display;
pub mod lexer;
pub mod parser;
pub mod rewrite;

pub use ast::{Expr, ObjectName, SelectStmt, Statement};
pub use classify::{classify, RequestKind};
pub use parser::{parse_statement, parse_statements, ParseError};
