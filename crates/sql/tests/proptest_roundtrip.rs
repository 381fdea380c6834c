//! Property test: `parse(render(ast))` is the identity (after `Nested`
//! normalization) over a generated expression/statement space.
//!
//! Phoenix's correctness depends on this — every intercepted request is
//! rewritten by AST surgery and re-rendered before reaching the server, so
//! rendering must never change meaning.

use proptest::prelude::*;

use phoenix_sql::ast::*;
use phoenix_sql::display::{normalize_statement, render_statement};
use phoenix_sql::parser::parse_statement;

/// Identifier pool: safe, non-keyword names.
fn ident() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "a", "b", "c", "total", "cust_id", "okey", "payload", "x9",
    ])
    .prop_map(str::to_string)
}

fn table_name() -> impl Strategy<Value = ObjectName> {
    prop_oneof![
        ident().prop_map(ObjectName::bare),
        (ident(), ident()).prop_map(|(ns, n)| ObjectName::qualified(ns, n)),
        ident().prop_map(|n| ObjectName::bare(format!("#{n}"))),
    ]
}

fn literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        Just(Literal::Null),
        any::<i64>().prop_map(Literal::Int),
        // Finite floats only; the renderer emits shortest-roundtrip decimal.
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Literal::Float),
        "[ -~]{0,12}".prop_map(Literal::String),
        any::<bool>().prop_map(Literal::Bool),
        (1970i64..2100, 1u32..13, 1u32..29)
            .prop_map(|(y, m, d)| Literal::Date(format!("{y:04}-{m:02}-{d:02}"))),
    ]
}

fn expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        literal().prop_map(Expr::Literal),
        ident().prop_map(|n| Expr::Column {
            table: None,
            name: n
        }),
        (ident(), ident()).prop_map(|(t, n)| Expr::Column {
            table: Some(t),
            name: n
        }),
        ident().prop_map(Expr::Param),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (
                inner.clone(),
                prop::sample::select(vec![
                    BinaryOp::Add,
                    BinaryOp::Sub,
                    BinaryOp::Mul,
                    BinaryOp::Div,
                    BinaryOp::Mod,
                    BinaryOp::Eq,
                    BinaryOp::NotEq,
                    BinaryOp::Lt,
                    BinaryOp::LtEq,
                    BinaryOp::Gt,
                    BinaryOp::GtEq,
                    BinaryOp::And,
                    BinaryOp::Or,
                ]),
                inner.clone()
            )
                .prop_map(|(l, op, r)| Expr::binary(l, op, r)),
            (inner.clone(), any::<bool>()).prop_map(|(e, neg)| Expr::IsNull {
                expr: Box::new(e),
                negated: neg
            }),
            (inner.clone(), inner.clone(), inner.clone(), any::<bool>()).prop_map(
                |(e, lo, hi, neg)| Expr::Between {
                    expr: Box::new(e),
                    negated: neg,
                    low: Box::new(lo),
                    high: Box::new(hi),
                }
            ),
            (
                inner.clone(),
                prop::collection::vec(inner.clone(), 1..4),
                any::<bool>()
            )
                .prop_map(|(e, list, neg)| Expr::InList {
                    expr: Box::new(e),
                    negated: neg,
                    list,
                }),
            (
                prop::sample::select(vec!["SUM", "COUNT", "AVG", "MIN", "MAX", "ABS", "UPPER"]),
                prop::collection::vec(inner.clone(), 1..3),
                any::<bool>()
            )
                .prop_map(|(name, args, distinct)| Expr::Function {
                    name: name.to_string(),
                    args,
                    distinct,
                }),
            (
                prop::collection::vec((inner.clone(), inner.clone()), 1..3),
                prop::option::of(inner.clone())
            )
                .prop_map(|(branches, else_expr)| Expr::Case {
                    branches,
                    else_expr: else_expr.map(Box::new),
                }),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e)
            }),
        ]
    })
}

fn select_stmt() -> impl Strategy<Value = SelectStmt> {
    (
        any::<bool>(),
        prop::collection::vec(
            prop_oneof![
                Just(SelectItem::Wildcard),
                (expr(), prop::option::of(ident()))
                    .prop_map(|(e, alias)| SelectItem::Expr { expr: e, alias }),
            ],
            1..4,
        ),
        prop::collection::vec(
            (table_name(), prop::option::of(ident()))
                .prop_map(|(t, a)| FromItem { table: t, alias: a }),
            0..3,
        ),
        prop::option::of(expr()),
        prop::collection::vec(expr(), 0..3),
        prop::option::of(expr()),
        prop::collection::vec(
            (expr(), any::<bool>()).prop_map(|(e, desc)| OrderByItem { expr: e, desc }),
            0..3,
        ),
        prop::option::of(0u64..10_000),
        prop::option::of(0u64..10_000),
    )
        .prop_map(
            |(
                distinct,
                projections,
                from,
                where_clause,
                group_by,
                having,
                order_by,
                limit,
                offset,
            )| {
                SelectStmt {
                    distinct,
                    projections,
                    from,
                    where_clause,
                    group_by,
                    having,
                    order_by,
                    limit,
                    offset,
                }
            },
        )
}

fn statement() -> impl Strategy<Value = Statement> {
    prop_oneof![
        select_stmt().prop_map(Statement::Select),
        (
            table_name(),
            prop::option::of(prop::collection::vec(ident(), 1..4)),
            prop::collection::vec(prop::collection::vec(expr(), 1..4), 1..3)
        )
            .prop_map(|(table, columns, rows)| {
                Statement::Insert(InsertStmt {
                    table,
                    columns,
                    source: InsertSource::Values(rows),
                })
            }),
        (table_name(), select_stmt()).prop_map(|(table, sel)| {
            Statement::Insert(InsertStmt {
                table,
                columns: None,
                source: InsertSource::Select(Box::new(sel)),
            })
        }),
        (
            table_name(),
            prop::collection::vec((ident(), expr()), 1..4),
            prop::option::of(expr())
        )
            .prop_map(|(table, assignments, where_clause)| {
                Statement::Update(UpdateStmt {
                    table,
                    assignments,
                    where_clause,
                })
            }),
        (table_name(), prop::option::of(expr())).prop_map(|(table, where_clause)| {
            Statement::Delete(DeleteStmt {
                table,
                where_clause,
            })
        }),
        (table_name(), any::<bool>())
            .prop_map(|(name, if_exists)| Statement::DropTable { name, if_exists }),
        (table_name(), prop::collection::vec(expr(), 0..3))
            .prop_map(|(name, args)| { Statement::Exec(ExecStmt { name, args }) }),
        Just(Statement::Begin),
        Just(Statement::Commit),
        Just(Statement::Rollback),
        (ident(), literal()).prop_map(|(name, v)| Statement::Set {
            name,
            value: Expr::Literal(v)
        }),
        expr().prop_map(Statement::Print),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn render_parse_roundtrip(stmt in statement()) {
        let original = normalize_statement(&stmt);
        let sql = render_statement(&original);
        let reparsed = parse_statement(&sql)
            .unwrap_or_else(|e| panic!("render produced unparseable SQL: {e}\n  sql: {sql}\n  ast: {original:?}"));
        let reparsed = normalize_statement(&reparsed);
        prop_assert_eq!(original, reparsed, "sql was: {}", sql);
    }

    #[test]
    fn rename_is_idempotent_and_complete(stmt in statement(), new in table_name()) {
        // After renaming every table reference to `new`, no reference to the
        // old names remains (when old and new differ).
        let refs = phoenix_sql::rewrite::table_refs(&stmt);
        let mut current = stmt.clone();
        for r in &refs {
            if !r.same_as(&new) {
                current = phoenix_sql::rewrite::rename_table_refs(&current, r, &new);
            }
        }
        for r in phoenix_sql::rewrite::table_refs(&current) {
            let was_renamed = refs.iter().any(|old| old.same_as(&r) && !old.same_as(&new));
            prop_assert!(!was_renamed, "stale reference {r:?} after rename");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The parser is total: arbitrary input produces a statement or an
    /// error, never a panic (the server feeds it raw client bytes).
    #[test]
    fn parser_never_panics(input in "[ -~\\n\\t]{0,120}") {
        let _ = phoenix_sql::parse_statement(&input);
        let _ = phoenix_sql::parse_statements(&input);
    }

    /// The lexer is total over arbitrary UTF-8.
    #[test]
    fn lexer_never_panics(input in "\\PC{0,80}") {
        let _ = phoenix_sql::lexer::tokenize(&input);
    }

    /// Every successfully parsed statement re-renders to SQL that parses
    /// again (closure of the render/parse pair over *arbitrary* accepted
    /// inputs, not just generated ASTs).
    #[test]
    fn accepted_input_roundtrips(input in "[ -~]{0,120}") {
        if let Ok(stmt) = phoenix_sql::parse_statement(&input) {
            let rendered = phoenix_sql::display::render_statement(&stmt);
            let reparsed = phoenix_sql::parse_statement(&rendered)
                .unwrap_or_else(|e| panic!("accepted {input:?}, rendered {rendered:?}, reparse failed: {e}"));
            let a = phoenix_sql::display::normalize_statement(&stmt);
            let b = phoenix_sql::display::normalize_statement(&reparsed);
            prop_assert_eq!(a, b, "input: {:?} rendered: {:?}", input, rendered);
        }
    }
}
