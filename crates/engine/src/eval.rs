//! Expression binding, evaluation and static type inference.
//!
//! A statement binds each expression once ([`Scope::bind`]): a column
//! reference becomes a `(table, column)` slot, a literal or parameter
//! becomes a value, a literal `LIKE` pattern is compiled and a scalar
//! function is resolved. The bound [`Scalar`] is then evaluated over
//! *tuples* — one row reference per FROM table, borrowed from the snapshot —
//! and yields `Cow<Value>`: a column or constant comes back borrowed, only a
//! computed value is owned, so a scan copies nothing it merely tests.
//!
//! Evaluation follows SQL three-valued logic: comparisons involving `NULL`
//! yield `NULL`, `AND`/`OR` are Kleene connectives, and a `WHERE` predicate
//! admits a row only when it evaluates to `TRUE` (not `NULL`). Name errors
//! (unknown or ambiguous columns, unknown functions, unbound parameters) are
//! raised when the statement binds, whether or not a row reaches them;
//! value errors (division by zero, type mismatches) when a row does.
//!
//! Type inference ([`infer_type`]) computes a result-set schema without
//! executing anything: column names, types and nullability, which is also
//! the definition `CREATE TABLE … AS SELECT` gives the table it creates.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use phoenix_sql::ast::{BinaryOp, Expr, Literal, UnaryOp};
use phoenix_sql::display::render_expr;
use phoenix_storage::types::{parse_date, DataType, Schema, Value};

use crate::error::{EngineError, Result};
use crate::session::SysVars;

/// What `@name` and `@@NAME` bind to.
#[derive(Debug, Clone, Copy)]
pub struct Params<'p> {
    /// The calling procedure's arguments (`@name`), inside its body.
    pub args: Option<&'p HashMap<String, Value>>,
    /// The session's system variables (`@@NAME`), inside a session statement.
    pub sys: Option<&'p SysVars>,
}

impl Params<'_> {
    /// Nothing to bind: no procedure arguments, no session.
    pub const NONE: Params<'static> = Params {
        args: None,
        sys: None,
    };
}

static NULL: Value = Value::Null;

/// A column visible to binding: qualifier (table name or alias), column
/// name, and declared type.
#[derive(Debug, Clone)]
pub struct BoundColumn {
    /// Table name or alias the column is reachable through.
    pub qualifier: String,
    /// Column name.
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
    /// May hold `NULL`?
    pub nullable: bool,
}

/// The names a statement's expressions bind against: the columns of each
/// FROM table, in FROM order. Table `t` of the scope is slot `t` of the
/// tuples the bound expressions are evaluated over.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    columns: Vec<BoundColumn>,
    /// `offsets[t]` = first column of table `t`.
    offsets: Vec<usize>,
}

impl Scope {
    /// A scope with one table.
    pub fn single(qualifier: &str, schema: &Schema) -> Scope {
        let mut s = Scope::default();
        s.push_table(qualifier, schema);
        s
    }

    /// Add a table, reachable through `qualifier`, as the next slot.
    pub fn push_table(&mut self, qualifier: &str, schema: &Schema) {
        self.offsets.push(self.columns.len());
        for col in &schema.columns {
            self.columns.push(BoundColumn {
                qualifier: qualifier.to_string(),
                name: col.name.clone(),
                dtype: col.dtype,
                nullable: col.nullable,
            });
        }
    }

    /// The columns of table `t`.
    pub fn table_columns(&self, t: usize) -> &[BoundColumn] {
        let end = self.offsets.get(t + 1).copied();
        &self.columns[self.offsets[t]..end.unwrap_or(self.columns.len())]
    }

    /// Resolve a column reference to its `(table, column)` slot. Ambiguity
    /// (the same unqualified name bound by several tables) is an error, as
    /// in SQL.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<(usize, usize)> {
        let mut found = None;
        for (i, c) in self.columns.iter().enumerate() {
            if !c.name.eq_ignore_ascii_case(name) {
                continue;
            }
            if qualifier.is_some_and(|q| !c.qualifier.eq_ignore_ascii_case(q)) {
                continue;
            }
            if found.is_some() {
                return Err(EngineError::column(format!("ambiguous column '{name}'")));
            }
            found = Some(i);
        }
        let i = found.ok_or_else(|| {
            let full = match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            };
            EngineError::column(format!("unknown column '{full}'"))
        })?;
        let t = self.offsets.partition_point(|&o| o <= i) - 1;
        Ok((t, i - self.offsets[t]))
    }

    /// The column a slot names.
    fn column(&self, (t, c): (usize, usize)) -> &BoundColumn {
        &self.columns[self.offsets[t] + c]
    }

    /// Bind `expr` for evaluation over tuples of this scope.
    pub fn bind(&self, expr: &Expr, params: Params<'_>) -> Result<Scalar> {
        Binder {
            scope: self,
            params,
            group: None,
        }
        .bind(expr)
    }

    /// Bind `expr` for evaluation over a *group tuple* (see [`GROUP_KEYS`]):
    /// a subexpression whose text is an aggregate in `aggs` or a key in
    /// `keys` becomes that slot; any other column reads the group's first
    /// row.
    pub(crate) fn bind_grouped(
        &self,
        expr: &Expr,
        params: Params<'_>,
        keys: &[String],
        aggs: &[String],
    ) -> Result<Scalar> {
        Binder {
            scope: self,
            params,
            group: Some((keys, aggs)),
        }
        .bind(expr)
    }
}

/// Group tuples: slot [`GROUP_KEYS`] holds the group-key values, slot
/// [`GROUP_AGGS`] the aggregate results, and slot `GROUP_ROWS + t` the
/// group's first row of FROM table `t` (a row of NULLs for the one group a
/// global aggregate forms over empty input).
pub(crate) const GROUP_KEYS: usize = 0;
/// See [`GROUP_KEYS`].
pub(crate) const GROUP_AGGS: usize = 1;
/// See [`GROUP_KEYS`].
pub(crate) const GROUP_ROWS: usize = 2;

struct Binder<'b> {
    scope: &'b Scope,
    params: Params<'b>,
    /// Post-aggregation binding: rendered group keys and aggregates.
    group: Option<(&'b [String], &'b [String])>,
}

impl Binder<'_> {
    fn bind(&self, expr: &Expr) -> Result<Scalar> {
        if let Some((keys, aggs)) = self.group {
            let text = render_expr(expr);
            if let Some(j) = aggs.iter().position(|a| *a == text) {
                return Ok(Scalar::Col(GROUP_AGGS, j));
            }
            if let Some(i) = keys.iter().position(|k| *k == text) {
                return Ok(Scalar::Col(GROUP_KEYS, i));
            }
        }
        let b = |e: &Expr| self.bind(e).map(Box::new);
        Ok(match expr {
            Expr::Literal(lit) => Scalar::Const(literal_value(lit)?),
            Expr::Column { table, name } => {
                let (t, c) = self.scope.resolve(table.as_deref(), name)?;
                let base = if self.group.is_some() { GROUP_ROWS } else { 0 };
                Scalar::Col(base + t, c)
            }
            Expr::Param(p) => match self.params.args.and_then(|m| m.get(p)) {
                Some(v) => Scalar::Const(v.clone()),
                None => return Err(EngineError::column(format!("unbound parameter '@{p}'"))),
            },
            Expr::SysVar(n) => match self.params.sys {
                Some(sys) => Scalar::Const(sys.get(n)?),
                None => {
                    return Err(EngineError::unsupported(format!(
                        "system variable '@@{n}' is not available in this context"
                    )))
                }
            },
            Expr::Unary { op, expr } => fold(Scalar::Unary(*op, b(expr)?)),
            Expr::Binary { left, op, right } => fold(Scalar::Binary(b(left)?, *op, b(right)?)),
            Expr::Function {
                name,
                args,
                distinct,
            } => {
                if is_aggregate(name) {
                    return Err(EngineError::column(format!(
                        "aggregate {name}() used outside aggregation context"
                    )));
                }
                if *distinct {
                    return Err(EngineError::unsupported("DISTINCT on scalar function"));
                }
                let func = Func::resolve(name, args.len())?;
                let args = args.iter().map(|a| self.bind(a)).collect::<Result<_>>()?;
                Scalar::Func(func, args)
            }
            Expr::Wildcard => return Err(EngineError::column("'*' outside COUNT(*)")),
            Expr::Case {
                branches,
                else_expr,
            } => Scalar::Case(
                branches
                    .iter()
                    .map(|(c, v)| Ok((self.bind(c)?, self.bind(v)?)))
                    .collect::<Result<_>>()?,
                else_expr.as_deref().map(b).transpose()?,
            ),
            Expr::Between {
                expr,
                negated,
                low,
                high,
            } => Scalar::Between {
                expr: b(expr)?,
                negated: *negated,
                low: b(low)?,
                high: b(high)?,
            },
            Expr::InList {
                expr,
                negated,
                list,
            } => Scalar::InList {
                expr: b(expr)?,
                negated: *negated,
                list: list.iter().map(|e| self.bind(e)).collect::<Result<_>>()?,
            },
            Expr::Like {
                expr,
                negated,
                pattern,
            } => Scalar::Like {
                expr: b(expr)?,
                negated: *negated,
                pattern: match self.bind(pattern)? {
                    Scalar::Const(Value::Text(p)) => {
                        LikeOperand::Compiled(Box::new(LikePattern::compile(&p)))
                    }
                    other => LikeOperand::Dynamic(Box::new(other)),
                },
            },
            Expr::IsNull { expr, negated } => Scalar::IsNull {
                expr: b(expr)?,
                negated: *negated,
            },
            Expr::Nested(e) => self.bind(e)?,
        })
    }
}

/// An operator over constants only (a negative literal parses as `-(lit)`)
/// becomes its value once, at bind time — unless evaluating it fails: then
/// the error waits for a row to reach it, as any value error does.
fn fold(s: Scalar) -> Scalar {
    let constant = match &s {
        Scalar::Unary(_, e) => matches!(**e, Scalar::Const(_)),
        Scalar::Binary(l, _, r) => matches!((&**l, &**r), (Scalar::Const(_), Scalar::Const(_))),
        _ => false,
    };
    let folded = constant.then(|| s.eval(&[]).ok().map(Cow::into_owned));
    match folded.flatten() {
        Some(v) => Scalar::Const(v),
        None => s,
    }
}

/// A bound scalar expression.
#[derive(Debug)]
pub enum Scalar {
    /// A literal or parameter value.
    Const(Value),
    /// Column `c` of the row in tuple slot `t`.
    Col(usize, usize),
    /// Unary operator application.
    Unary(UnaryOp, Box<Scalar>),
    /// Binary operator application.
    Binary(Box<Scalar>, BinaryOp, Box<Scalar>),
    /// Scalar function call.
    Func(Func, Vec<Scalar>),
    /// `CASE WHEN c THEN v … [ELSE e] END`.
    Case(Vec<(Scalar, Scalar)>, Option<Box<Scalar>>),
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Scalar>,
        /// `NOT BETWEEN`?
        negated: bool,
        /// Inclusive lower bound.
        low: Box<Scalar>,
        /// Inclusive upper bound.
        high: Box<Scalar>,
    },
    /// `expr [NOT] IN (…)`.
    InList {
        /// Tested expression.
        expr: Box<Scalar>,
        /// `NOT IN`?
        negated: bool,
        /// Membership list.
        list: Vec<Scalar>,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Tested expression.
        expr: Box<Scalar>,
        /// `NOT LIKE`?
        negated: bool,
        /// The pattern, compiled at bind time when it is a text constant.
        pattern: LikeOperand,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Scalar>,
        /// `IS NOT NULL`?
        negated: bool,
    },
}

/// A `LIKE` pattern operand.
#[derive(Debug)]
pub enum LikeOperand {
    /// A text constant, compiled once when the statement binds.
    Compiled(Box<LikePattern>),
    /// Anything else, evaluated (and compiled) per row.
    Dynamic(Box<Scalar>),
}

impl Scalar {
    /// Evaluate over `tuple` (one row per scope table, in slot order).
    pub fn eval<'a>(&'a self, tuple: &[&'a [Value]]) -> Result<Cow<'a, Value>> {
        match self {
            Scalar::Const(v) => Ok(Cow::Borrowed(v)),
            Scalar::Col(t, c) => Ok(Cow::Borrowed(&tuple[*t][*c])),
            Scalar::Binary(l, op, r) => eval_binary(l, *op, r, tuple),
            other => other.eval_compound(tuple),
        }
    }

    /// [`Scalar::eval`] with column and constant operands handled in line:
    /// most operands of an operator are one or the other.
    #[inline(always)]
    fn operand<'a>(&'a self, tuple: &[&'a [Value]]) -> Result<Cow<'a, Value>> {
        match self {
            Scalar::Const(v) => Ok(Cow::Borrowed(v)),
            Scalar::Col(t, c) => Ok(Cow::Borrowed(&tuple[*t][*c])),
            other => other.eval(tuple),
        }
    }

    /// The rarer shapes, out of line so the common ones stay lean.
    #[inline(never)]
    fn eval_compound<'a>(&'a self, tuple: &[&'a [Value]]) -> Result<Cow<'a, Value>> {
        let owned = |v: Value| Ok(Cow::Owned(v));
        match self {
            Scalar::Const(_) | Scalar::Col(..) | Scalar::Binary(..) => self.eval(tuple),
            Scalar::Unary(op, e) => owned(unary(*op, &*e.eval(tuple)?)?),
            Scalar::Func(f, args) => f.call(args, tuple),
            Scalar::Case(branches, else_expr) => {
                for (cond, val) in branches {
                    if *cond.eval(tuple)? == Value::Bool(true) {
                        return val.eval(tuple);
                    }
                }
                match else_expr {
                    Some(e) => e.eval(tuple),
                    None => Ok(Cow::Borrowed(&NULL)),
                }
            }
            Scalar::Between {
                expr,
                negated,
                low,
                high,
            } => {
                let v = expr.eval(tuple)?;
                let lo = low.eval(tuple)?;
                let hi = high.eval(tuple)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Cow::Borrowed(&NULL));
                }
                let inside = compare(&lo, &v)? != std::cmp::Ordering::Greater
                    && compare(&v, &hi)? != std::cmp::Ordering::Greater;
                owned(Value::Bool(inside != *negated))
            }
            Scalar::InList {
                expr,
                negated,
                list,
            } => {
                let v = expr.eval(tuple)?;
                if v.is_null() {
                    return Ok(Cow::Borrowed(&NULL));
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval(tuple)?;
                    if iv.is_null() {
                        saw_null = true;
                        continue;
                    }
                    if compare(&v, &iv)? == std::cmp::Ordering::Equal {
                        return owned(Value::Bool(!negated));
                    }
                }
                if saw_null {
                    Ok(Cow::Borrowed(&NULL))
                } else {
                    owned(Value::Bool(*negated))
                }
            }
            Scalar::Like {
                expr,
                negated,
                pattern,
            } => {
                let v = expr.eval(tuple)?;
                let matched = match pattern {
                    LikeOperand::Compiled(p) => match &*v {
                        Value::Null => return Ok(Cow::Borrowed(&NULL)),
                        Value::Text(s) => p.matches(s),
                        other => {
                            return Err(EngineError::type_err(format!(
                                "LIKE on {other} / {}",
                                p.text
                            )))
                        }
                    },
                    LikeOperand::Dynamic(p) => match (&*v, &*p.eval(tuple)?) {
                        (Value::Null, _) | (_, Value::Null) => return Ok(Cow::Borrowed(&NULL)),
                        (Value::Text(s), Value::Text(pat)) => like_match(s, pat),
                        (a, b) => return Err(EngineError::type_err(format!("LIKE on {a} / {b}"))),
                    },
                };
                owned(Value::Bool(matched != *negated))
            }
            Scalar::IsNull { expr, negated } => {
                owned(Value::Bool(expr.eval(tuple)?.is_null() != *negated))
            }
        }
    }

    /// Does this predicate hold for `tuple` — `TRUE`, not `FALSE` or
    /// `NULL`? (WHERE, HAVING and join semantics.)
    pub fn holds(&self, tuple: &[&[Value]]) -> Result<bool> {
        Ok(truth(&*self.eval(tuple)?)? == Some(true))
    }
}

/// Bind and evaluate an expression that references no columns: `SET`,
/// `PRINT` and `EXEC` arguments, `VALUES` tuples, index-probe constants.
pub fn eval_const(expr: &Expr, params: Params<'_>) -> Result<Value> {
    // The common case, every value of an `INSERT … VALUES`, needs no binder.
    if let Expr::Literal(lit) = expr {
        return literal_value(lit);
    }
    match Scope::default().bind(expr, params)? {
        Scalar::Const(v) => Ok(v),
        other => Ok(other.eval(&[])?.into_owned()),
    }
}

/// Aggregate function names, recognized case-insensitively.
pub fn is_aggregate(name: &str) -> bool {
    matches!(
        name.to_ascii_uppercase().as_str(),
        "SUM" | "COUNT" | "AVG" | "MIN" | "MAX"
    )
}

/// Convert a SQL literal to a runtime value.
fn literal_value(lit: &Literal) -> Result<Value> {
    Ok(match lit {
        Literal::Null => Value::Null,
        Literal::Int(v) => Value::Int(*v),
        Literal::Float(v) => Value::Float(*v),
        Literal::String(s) => Value::Text(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Date(s) => Value::Date(
            parse_date(s)
                .ok_or_else(|| EngineError::type_err(format!("bad date literal '{s}'")))?,
        ),
    })
}

fn unary(op: UnaryOp, v: &Value) -> Result<Value> {
    match op {
        UnaryOp::Not => match v {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(EngineError::type_err(format!("NOT applied to {other}"))),
        },
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| EngineError::type_err(format!("-({i}) overflows INT"))),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(EngineError::type_err(format!("cannot negate {other}"))),
        },
    }
}

fn eval_binary<'a>(
    left: &'a Scalar,
    op: BinaryOp,
    right: &'a Scalar,
    tuple: &[&'a [Value]],
) -> Result<Cow<'a, Value>> {
    // Kleene AND/OR with short-circuiting where sound.
    if op == BinaryOp::And || op == BinaryOp::Or {
        let lb = truth(&*left.eval(tuple)?)?;
        match (op, lb) {
            (BinaryOp::And, Some(false)) => return Ok(Cow::Owned(Value::Bool(false))),
            (BinaryOp::Or, Some(true)) => return Ok(Cow::Owned(Value::Bool(true))),
            _ => {}
        }
        let rb = truth(&*right.eval(tuple)?)?;
        return Ok(Cow::Owned(match (op, lb, rb) {
            (BinaryOp::And, Some(a), Some(b)) => Value::Bool(a && b),
            (BinaryOp::And, Some(false), _) | (BinaryOp::And, _, Some(false)) => Value::Bool(false),
            (BinaryOp::Or, Some(a), Some(b)) => Value::Bool(a || b),
            (BinaryOp::Or, Some(true), _) | (BinaryOp::Or, _, Some(true)) => Value::Bool(true),
            _ => Value::Null,
        }));
    }

    let l = left.operand(tuple)?;
    let r = right.operand(tuple)?;
    if l.is_null() || r.is_null() {
        return Ok(Cow::Borrowed(&NULL));
    }
    if op.is_comparison() {
        let ord = compare(&l, &r)?;
        use std::cmp::Ordering::*;
        let b = match op {
            BinaryOp::Eq => ord == Equal,
            BinaryOp::NotEq => ord != Equal,
            BinaryOp::Lt => ord == Less,
            BinaryOp::LtEq => ord != Greater,
            BinaryOp::Gt => ord == Greater,
            BinaryOp::GtEq => ord != Less,
            _ => unreachable!(),
        };
        return Ok(Cow::Owned(Value::Bool(b)));
    }
    arithmetic(op, &l, &r).map(Cow::Owned)
}

/// Arithmetic on two non-null values.
#[inline]
fn arithmetic(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    let (a, b) = match (l, r) {
        (Value::Int(a), Value::Int(b)) if op != BinaryOp::Div => return int_arithmetic(op, *a, *b),
        (Value::Float(a), Value::Float(b)) => (*a, *b),
        (Value::Int(a), Value::Float(b)) => (*a as f64, *b),
        (Value::Float(a), Value::Int(b)) => (*a, *b as f64),
        (Value::Int(a), Value::Int(b)) => (*a as f64, *b as f64),
        _ => return text_or_date_arithmetic(op, l, r),
    };
    Ok(match op {
        BinaryOp::Add => Value::Float(a + b),
        BinaryOp::Sub => Value::Float(a - b),
        BinaryOp::Mul => Value::Float(a * b),
        // Division always yields float: `1/2 = 0.5`, not 0. Documented
        // dialect deviation from T-SQL integer division.
        BinaryOp::Div => {
            if b == 0.0 {
                return Err(EngineError::type_err("division by zero"));
            }
            Value::Float(a / b)
        }
        BinaryOp::Mod => {
            if b == 0.0 {
                return Err(EngineError::type_err("modulo by zero"));
            }
            Value::Float(a % b)
        }
        _ => unreachable!("non-arithmetic op in arithmetic path"),
    })
}

/// `+`, `-`, `*` and `%` on two INTs are exact: a result outside INT's
/// range is a type error, never a wrapped or rounded value (as for SUM).
fn int_arithmetic(op: BinaryOp, a: i64, b: i64) -> Result<Value> {
    let v = match op {
        BinaryOp::Add => a.checked_add(b),
        BinaryOp::Sub => a.checked_sub(b),
        BinaryOp::Mul => a.checked_mul(b),
        BinaryOp::Mod if b == 0 => return Err(EngineError::type_err("modulo by zero")),
        // The one overflowing case, MIN % -1, is 0.
        BinaryOp::Mod => Some(a.wrapping_rem(b)),
        _ => unreachable!("non-arithmetic op in arithmetic path"),
    };
    v.map(Value::Int)
        .ok_or_else(|| EngineError::type_err(format!("{a} {} {b} overflows INT", op.sql())))
}

/// String concatenation via `+` and date arithmetic; any other pair is a
/// type error.
fn text_or_date_arithmetic(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    match (op, l, r) {
        (BinaryOp::Add, Value::Text(a), Value::Text(b)) => Ok(Value::Text(format!("{a}{b}"))),
        (BinaryOp::Add | BinaryOp::Sub, Value::Date(d), Value::Int(n)) => {
            let day = if op == BinaryOp::Add {
                i64::from(*d).checked_add(*n)
            } else {
                i64::from(*d).checked_sub(*n)
            };
            day.and_then(|day| i32::try_from(day).ok())
                .map(Value::Date)
                .ok_or_else(|| {
                    EngineError::type_err(format!("date {l} {} {n} is out of range", op.sql()))
                })
        }
        (BinaryOp::Sub, Value::Date(a), Value::Date(b)) => {
            Ok(Value::Int((*a as i64) - (*b as i64)))
        }
        _ => Err(EngineError::type_err(format!(
            "arithmetic on non-numeric values {l} {} {r}",
            op.sql()
        ))),
    }
}

/// Truth view of a value for WHERE/HAVING: `Some(bool)` or `None` for NULL.
pub fn truth(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(EngineError::type_err(format!(
            "expected boolean predicate, got {other}"
        ))),
    }
}

/// SQL comparison between two non-null values, with Int/Float cross-typing
/// and Text→Date coercion (so `odate >= '1994-01-01'` works).
#[inline]
pub fn compare(a: &Value, b: &Value) -> Result<std::cmp::Ordering> {
    use Value::*;
    let ord = match (a, b) {
        // Numerically: `Value`'s order puts `1` before `1.0`, SQL calls
        // them equal.
        (Int(x), Float(y)) => (*x as f64).total_cmp(y),
        (Float(x), Int(y)) => x.total_cmp(&(*y as f64)),
        (Int(_), Int(_))
        | (Float(_), Float(_))
        | (Text(_), Text(_))
        | (Bool(_), Bool(_))
        | (Date(_), Date(_)) => a.cmp(b),
        (Text(s), Date(_)) => match parse_date(s) {
            Some(d) => Date(d).cmp(b),
            None => {
                return Err(EngineError::type_err(format!(
                    "cannot compare '{s}' to a date"
                )))
            }
        },
        (Date(_), Text(s)) => match parse_date(s) {
            Some(d) => a.cmp(&Date(d)),
            None => {
                return Err(EngineError::type_err(format!(
                    "cannot compare a date to '{s}'"
                )))
            }
        },
        _ => {
            return Err(EngineError::type_err(format!(
                "cannot compare {a} with {b}"
            )))
        }
    };
    Ok(ord)
}

/// One compiled `LIKE` pattern element.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pat {
    /// A literal character.
    Lit(char),
    /// `_` — exactly one character.
    One,
    /// `%` — any run of characters (adjacent `%`s collapse at compile time).
    Any,
}

/// A compiled `LIKE` pattern. A literal pattern is compiled once when its
/// statement binds, so a scan pays for the match alone.
#[derive(Debug)]
pub struct LikePattern {
    /// The pattern as written (for error messages).
    text: String,
    shape: LikeShape,
}

#[derive(Debug)]
enum LikeShape {
    /// `[lit] % lit % … % [lit]` — no `_`, at least one `%`: matched with
    /// plain substring scans (`str::find`) instead of per-character
    /// stepping. This is the Q13/Q16 predicate shape and the hot path.
    Segments {
        /// Literal anchored at the start (pattern did not begin with `%`).
        prefix: Option<String>,
        /// Floating literals that must occur in order between the anchors.
        middle: Vec<String>,
        /// Literal anchored at the end (pattern did not end with `%`).
        suffix: Option<String>,
    },
    /// Everything else: the general backtracking token matcher.
    Tokens(Vec<Pat>),
}

impl LikePattern {
    fn compile(pattern: &str) -> LikePattern {
        LikePattern {
            text: pattern.to_string(),
            shape: LikeShape::compile(pattern),
        }
    }

    fn matches(&self, s: &str) -> bool {
        self.shape.matches(s)
    }
}

impl LikeShape {
    fn compile(pattern: &str) -> LikeShape {
        let mut pats = Vec::with_capacity(pattern.len());
        for c in pattern.chars() {
            match c {
                '%' => {
                    if pats.last() != Some(&Pat::Any) {
                        pats.push(Pat::Any);
                    }
                }
                '_' => pats.push(Pat::One),
                c => pats.push(Pat::Lit(c)),
            }
        }
        let has_one = pats.contains(&Pat::One);
        let has_any = pats.contains(&Pat::Any);
        if has_one || !has_any {
            return LikeShape::Tokens(pats);
        }
        // Split into literal runs around the `%`s.
        let mut runs: Vec<String> = vec![String::new()];
        for p in &pats {
            match p {
                Pat::Lit(c) => runs.last_mut().unwrap().push(*c),
                Pat::Any => runs.push(String::new()),
                Pat::One => unreachable!(),
            }
        }
        // An empty first/last run means the pattern begins/ends with `%`.
        let suffix = match runs.pop() {
            Some(r) if !r.is_empty() => Some(r),
            _ => None,
        };
        let prefix = if runs.first().is_some_and(|r| !r.is_empty()) {
            Some(runs.remove(0))
        } else {
            None
        };
        runs.retain(|r| !r.is_empty());
        LikeShape::Segments {
            prefix,
            middle: runs,
            suffix,
        }
    }

    fn matches(&self, s: &str) -> bool {
        match self {
            LikeShape::Segments {
                prefix,
                middle,
                suffix,
            } => {
                let mut lo = 0;
                if let Some(p) = prefix {
                    if !s.starts_with(p.as_str()) {
                        return false;
                    }
                    lo = p.len();
                }
                let mut hi = s.len();
                if let Some(x) = suffix {
                    if hi < lo + x.len() || !s.ends_with(x.as_str()) {
                        return false;
                    }
                    hi -= x.len();
                }
                let mut region = &s[lo..hi];
                for seg in middle {
                    match region.find(seg.as_str()) {
                        Some(k) => region = &region[k + seg.len()..],
                        None => return false,
                    }
                }
                true
            }
            LikeShape::Tokens(pats) => Self::match_tokens(pats, s),
        }
    }

    /// Classic iterative wildcard match with star backtracking: on a
    /// mismatch after a `%`, retry from one character further into the
    /// subject. Walks byte indices and steps chars via `chars().next()`,
    /// so no per-row allocation.
    fn match_tokens(p: &[Pat], s: &str) -> bool {
        let (mut si, mut pi) = (0usize, 0usize);
        // Most recent `%`: (pattern index after it, subject index to retry).
        let mut star: Option<(usize, usize)> = None;
        loop {
            if pi < p.len() {
                match p[pi] {
                    Pat::Any => {
                        star = Some((pi + 1, si));
                        pi += 1;
                        continue;
                    }
                    Pat::One => {
                        if let Some(c) = s[si..].chars().next() {
                            si += c.len_utf8();
                            pi += 1;
                            continue;
                        }
                    }
                    Pat::Lit(want) => {
                        if let Some(c) = s[si..].chars().next() {
                            if c == want {
                                si += c.len_utf8();
                                pi += 1;
                                continue;
                            }
                        }
                    }
                }
            } else if si == s.len() {
                return true;
            }
            // Mismatch (or pattern exhausted early): backtrack to the last
            // `%`, consuming one more subject character.
            match star {
                Some((star_pi, star_si)) if star_si < s.len() => {
                    let step = s[star_si..].chars().next().map_or(1, char::len_utf8);
                    star = Some((star_pi, star_si + step));
                    pi = star_pi;
                    si = star_si + step;
                }
                _ => return false,
            }
        }
    }
}

/// `LIKE` pattern matching: `%` any run, `_` any single char. Matching is
/// case-sensitive, per ANSI. Compiles `pattern` on every call: a pattern
/// that is a constant of its statement is compiled once at bind time
/// instead.
pub fn like_match(s: &str, pattern: &str) -> bool {
    LikeShape::compile(pattern).matches(s)
}

/// A scalar (non-aggregate) function, resolved at bind time.
#[derive(Debug, Clone, Copy)]
pub enum Func {
    /// `ABS(n)`
    Abs,
    /// `UPPER(s)`
    Upper,
    /// `LOWER(s)`
    Lower,
    /// `LENGTH(s)` / `LEN(s)`
    Length,
    /// `SUBSTR(s, start, len)` / `SUBSTRING`
    Substr,
    /// `COALESCE(a, …)`
    Coalesce,
    /// `ROUND(n, digits)`
    Round,
    /// `YEAR(d)`
    Year,
    /// `MONTH(d)`
    Month,
}

impl Func {
    fn resolve(name: &str, nargs: usize) -> Result<Func> {
        let upper = name.to_ascii_uppercase();
        let (func, arity) = match upper.as_str() {
            "ABS" => (Func::Abs, 1),
            "UPPER" => (Func::Upper, 1),
            "LOWER" => (Func::Lower, 1),
            "LENGTH" | "LEN" => (Func::Length, 1),
            "SUBSTR" | "SUBSTRING" => (Func::Substr, 3),
            "ROUND" => (Func::Round, 2),
            "YEAR" => (Func::Year, 1),
            "MONTH" => (Func::Month, 1),
            "COALESCE" if nargs == 0 => {
                return Err(EngineError::type_err("COALESCE needs arguments"))
            }
            "COALESCE" => return Ok(Func::Coalesce),
            other => {
                return Err(EngineError::unsupported(format!(
                    "unknown function {other}()"
                )))
            }
        };
        if nargs != arity {
            return Err(EngineError::type_err(format!(
                "{upper}() expects {arity} argument(s), got {nargs}"
            )));
        }
        Ok(func)
    }

    fn call<'a>(self, args: &'a [Scalar], tuple: &[&'a [Value]]) -> Result<Cow<'a, Value>> {
        if let Func::Coalesce = self {
            for a in args {
                let v = a.eval(tuple)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            return Ok(Cow::Borrowed(&NULL));
        }
        let a = args[0].eval(tuple)?;
        if a.is_null() {
            return Ok(Cow::Borrowed(&NULL));
        }
        let v = match (self, &*a) {
            (Func::Abs, Value::Int(i)) => match i.checked_abs() {
                Some(v) => Value::Int(v),
                None => return Err(EngineError::type_err(format!("ABS({i}) overflows INT"))),
            },
            (Func::Abs, Value::Float(f)) => Value::Float(f.abs()),
            (Func::Upper, Value::Text(s)) => Value::Text(s.to_uppercase()),
            (Func::Lower, Value::Text(s)) => Value::Text(s.to_lowercase()),
            (Func::Length, Value::Text(s)) => Value::Int(s.chars().count() as i64),
            (Func::Substr, s) => match (s, &*args[1].eval(tuple)?, &*args[2].eval(tuple)?) {
                (Value::Text(s), Value::Int(start), Value::Int(len)) => {
                    let start = (*start).max(1) as usize - 1; // SQL is 1-based
                    Value::Text(s.chars().skip(start).take((*len).max(0) as usize).collect())
                }
                _ => return Err(EngineError::type_err("SUBSTR(text, int, int)")),
            },
            (Func::Round, x) => match (x, &*args[1].eval(tuple)?) {
                (Value::Float(f), Value::Int(n)) => {
                    let m = 10f64.powi(*n as i32);
                    Value::Float((f * m).round() / m)
                }
                (Value::Int(i), Value::Int(_)) => Value::Int(*i),
                _ => return Err(EngineError::type_err("ROUND(number, int)")),
            },
            (Func::Year, Value::Date(d)) => {
                Value::Int(phoenix_storage::types::civil_from_days(*d).0)
            }
            (Func::Month, Value::Date(d)) => {
                Value::Int(phoenix_storage::types::civil_from_days(*d).1 as i64)
            }
            (f, other) => {
                return Err(EngineError::type_err(format!(
                    "{}({other})",
                    format!("{f:?}").to_ascii_uppercase()
                )))
            }
        };
        Ok(Cow::Owned(v))
    }
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// An aggregate call bound for streaming accumulation: its argument is
/// evaluated once per input tuple and folded into a per-group [`Acc`].
#[derive(Debug)]
pub(crate) struct Aggregate {
    func: AggFunc,
    distinct: bool,
    /// `None` for `COUNT(*)`.
    arg: Option<Scalar>,
}

impl Aggregate {
    /// Bind an aggregate call (`expr` must be one) against the FROM scope.
    pub(crate) fn bind(expr: &Expr, scope: &Scope, params: Params<'_>) -> Result<Aggregate> {
        let Expr::Function {
            name,
            args,
            distinct,
        } = expr
        else {
            return Err(EngineError::internal(format!("not an aggregate: {expr:?}")));
        };
        let func = match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            other => return Err(EngineError::unsupported(format!("aggregate {other}()"))),
        };
        let arg = match args.first() {
            Some(Expr::Wildcard) | None if func == AggFunc::Count => None,
            Some(a) => Some(scope.bind(a, params)?),
            None => {
                return Err(EngineError::type_err(format!(
                    "{}() needs an argument",
                    name.to_ascii_uppercase()
                )))
            }
        };
        Ok(Aggregate {
            func,
            distinct: *distinct && arg.is_some(),
            arg,
        })
    }

    /// A fresh accumulator for one group.
    pub(crate) fn start<'a>(&self) -> Acc<'a> {
        Acc {
            n: 0,
            int: 0,
            // `Iterator::sum`'s neutral element, so the running sum is
            // bit-identical to summing the collected values.
            float: -0.0,
            all_int: true,
            best: None,
            seen: self.distinct.then(HashSet::new),
        }
    }
}

/// One group's running state for one [`Aggregate`].
pub(crate) struct Acc<'a> {
    /// Values folded in (rows, for `COUNT(*)`).
    n: u64,
    /// Exact integer sum while every value is an INT.
    int: i128,
    /// Sum of every value as `f64`, in arrival order (AVG, float SUM).
    float: f64,
    all_int: bool,
    /// MIN/MAX so far.
    best: Option<Cow<'a, Value>>,
    /// Values already folded in, under DISTINCT.
    seen: Option<HashSet<Cow<'a, Value>>>,
}

impl<'a> Acc<'a> {
    /// Fold one input tuple in.
    pub(crate) fn add(&mut self, agg: &'a Aggregate, tuple: &[&'a [Value]]) -> Result<()> {
        let Some(arg) = &agg.arg else {
            self.n += 1;
            return Ok(());
        };
        let v = arg.operand(tuple)?;
        if v.is_null() {
            return Ok(());
        }
        if let Some(seen) = &mut self.seen {
            if !seen.insert(v.clone()) {
                return Ok(());
            }
        }
        self.n += 1;
        match agg.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match &*v {
                Value::Int(i) => {
                    self.int += *i as i128;
                    self.float += *i as f64;
                }
                Value::Float(f) => {
                    self.all_int = false;
                    self.float += f;
                }
                _ => {
                    let name = format!("{:?}", agg.func).to_ascii_uppercase();
                    return Err(EngineError::type_err(format!(
                        "{name}() over non-numeric value"
                    )));
                }
            },
            AggFunc::Min | AggFunc::Max => {
                let take = match &self.best {
                    None => true,
                    Some(b) => {
                        let ord = compare(&v, b)?;
                        if agg.func == AggFunc::Min {
                            ord == std::cmp::Ordering::Less
                        } else {
                            ord == std::cmp::Ordering::Greater
                        }
                    }
                };
                if take {
                    self.best = Some(v);
                }
            }
        }
        Ok(())
    }

    /// The aggregate's value for the group. An INT sum is exact; one that
    /// does not fit an INT is a type error, never a wrapped or rounded value.
    pub(crate) fn finish(self, agg: &Aggregate) -> Result<Value> {
        Ok(match agg.func {
            AggFunc::Count => Value::Int(self.n as i64),
            _ if self.n == 0 => Value::Null,
            AggFunc::Avg => Value::Float(self.float / self.n as f64),
            AggFunc::Sum if self.all_int => match i64::try_from(self.int) {
                Ok(v) => Value::Int(v),
                Err(_) => {
                    return Err(EngineError::type_err(format!(
                        "SUM() of {} overflows INT",
                        self.int
                    )))
                }
            },
            AggFunc::Sum => Value::Float(self.float),
            AggFunc::Min | AggFunc::Max => self.best.map_or(Value::Null, Cow::into_owned),
        })
    }
}

// ---------------------------------------------------------------------------
// Static typing
// ---------------------------------------------------------------------------

/// Infer the static type of `expr` against `scope`.
///
/// Returns `(type, nullable)`. Where the type is genuinely unknowable
/// (e.g. a bare NULL literal) we default to `Text`, matching the behavior of
/// drivers that describe untyped NULLs as varchar.
pub fn infer_type(expr: &Expr, scope: &Scope) -> Result<(DataType, bool)> {
    Ok(match expr {
        Expr::Literal(Literal::Null) => (DataType::Text, true),
        Expr::Literal(Literal::Int(_)) => (DataType::Int, false),
        Expr::Literal(Literal::Float(_)) => (DataType::Float, false),
        Expr::Literal(Literal::String(_)) => (DataType::Text, false),
        Expr::Literal(Literal::Bool(_)) => (DataType::Bool, false),
        Expr::Literal(Literal::Date(_)) => (DataType::Date, false),
        Expr::Column { table, name } => {
            let c = scope.column(scope.resolve(table.as_deref(), name)?);
            (c.dtype, c.nullable)
        }
        Expr::Param(_) => (DataType::Text, true),
        // The type of the value the variable would bind to (never NULL).
        Expr::SysVar(n) => (
            SysVars::default()
                .get(n)?
                .data_type()
                .unwrap_or(DataType::Text),
            false,
        ),
        Expr::Unary { op, expr } => {
            let (t, n) = infer_type(expr, scope)?;
            match op {
                UnaryOp::Not => (DataType::Bool, n),
                UnaryOp::Neg => (t, n),
            }
        }
        Expr::Binary { left, op, right } => {
            if *op == BinaryOp::And || *op == BinaryOp::Or || op.is_comparison() {
                (DataType::Bool, true)
            } else {
                let (lt, ln) = infer_type(left, scope)?;
                let (rt, rn) = infer_type(right, scope)?;
                let t = match (lt, rt) {
                    (DataType::Text, _) | (_, DataType::Text) => DataType::Text,
                    (DataType::Date, DataType::Int) => DataType::Date,
                    (DataType::Date, DataType::Date) => DataType::Int,
                    (DataType::Float, _) | (_, DataType::Float) => DataType::Float,
                    _ if *op == BinaryOp::Div => DataType::Float,
                    _ => DataType::Int,
                };
                (t, ln || rn)
            }
        }
        Expr::Function { name, args, .. } => {
            let upper = name.to_ascii_uppercase();
            match upper.as_str() {
                "COUNT" => (DataType::Int, false),
                "AVG" => (DataType::Float, true),
                "SUM" | "MIN" | "MAX" => {
                    let (t, _) = match args.first() {
                        Some(Expr::Wildcard) | None => (DataType::Int, true),
                        Some(a) => infer_type(a, scope)?,
                    };
                    (t, true)
                }
                "LENGTH" | "LEN" | "YEAR" | "MONTH" => (DataType::Int, true),
                "UPPER" | "LOWER" | "SUBSTR" | "SUBSTRING" => (DataType::Text, true),
                "ABS" | "ROUND" => match args.first() {
                    Some(a) => infer_type(a, scope)?,
                    None => (DataType::Float, true),
                },
                "COALESCE" => match args.first() {
                    Some(a) => {
                        let (t, _) = infer_type(a, scope)?;
                        (t, true)
                    }
                    None => (DataType::Text, true),
                },
                _ => (DataType::Text, true),
            }
        }
        Expr::Wildcard => (DataType::Int, false),
        Expr::Case {
            branches,
            else_expr,
        } => {
            // Type of the first non-NULL-literal branch.
            for (_, v) in branches {
                if !matches!(v, Expr::Literal(Literal::Null)) {
                    return infer_type(v, scope).map(|(t, _)| (t, true));
                }
            }
            match else_expr {
                Some(e) => {
                    let (t, _) = infer_type(e, scope)?;
                    (t, true)
                }
                None => (DataType::Text, true),
            }
        }
        Expr::Between { .. } | Expr::InList { .. } | Expr::Like { .. } | Expr::IsNull { .. } => {
            (DataType::Bool, true)
        }
        Expr::Nested(e) => infer_type(e, scope)?,
    })
}

/// The display name for a projection item without an alias: a bare column
/// keeps its name; anything else uses the rendered expression text.
pub fn output_name(expr: &Expr) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Nested(e) => output_name(e),
        other => render_expr(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_sql::parser::parse_statement;
    use phoenix_sql::Statement;
    use phoenix_storage::types::Column;

    /// Tables `t (a INT NOT NULL, b TEXT)` and `u (a FLOAT)`.
    fn scope() -> Scope {
        let mut s = Scope::default();
        s.push_table(
            "t",
            &Schema::new(vec![
                Column::new("a", DataType::Int).not_null(),
                Column::new("b", DataType::Text),
            ]),
        );
        s.push_table("u", &Schema::new(vec![Column::new("a", DataType::Float)]));
        s
    }

    fn expr_of(sql: &str) -> Expr {
        match parse_statement(&format!("SELECT {sql}")).unwrap() {
            Statement::Select(s) => match s.projections.into_iter().next().unwrap() {
                phoenix_sql::ast::SelectItem::Expr { expr, .. } => expr,
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    /// Evaluate over the tuple `(t: [a, b], u: [a])`.
    fn eval_str(sql: &str, t: &[Value], u: &[Value]) -> Result<Value> {
        let bound = scope().bind(&expr_of(sql), Params::NONE)?;
        Ok(bound.eval(&[t, u])?.into_owned())
    }

    fn ev(sql: &str) -> Result<Value> {
        eval_str(
            sql,
            &[Value::Int(5), Value::Text("Smith".into())],
            &[Value::Float(1.5)],
        )
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ev("1 + 2 * 3").unwrap(), Value::Int(7));
        assert_eq!(ev("7 / 2").unwrap(), Value::Float(3.5));
        assert_eq!(ev("7 % 3").unwrap(), Value::Int(1));
        assert_eq!(ev("-t.a").unwrap(), Value::Int(-5));
        assert_eq!(ev("1.5 + 1").unwrap(), Value::Float(2.5));
        assert!(ev("1 / 0").is_err());
    }

    #[test]
    fn string_concat() {
        assert_eq!(ev("b + '!'").unwrap(), Value::Text("Smith!".into()));
    }

    #[test]
    fn qualified_resolution_and_ambiguity() {
        assert_eq!(ev("t.a").unwrap(), Value::Int(5));
        assert_eq!(ev("u.a").unwrap(), Value::Float(1.5));
        let e = ev("a").unwrap_err();
        assert!(e.message.contains("ambiguous"));
        assert!(ev("t.zzz").is_err());
    }

    #[test]
    fn name_errors_are_raised_at_bind_time() {
        // No row is needed to find an unknown column or function.
        let s = scope();
        assert!(s
            .bind(&expr_of("CASE WHEN 1 = 2 THEN zzz END"), Params::NONE)
            .is_err());
        assert!(s.bind(&expr_of("NO_SUCH_FN(1)"), Params::NONE).is_err());
        assert!(s.bind(&expr_of("@p"), Params::NONE).is_err());
        // Value errors wait for a row to reach them.
        let guarded = s
            .bind(&expr_of("CASE WHEN 1 = 2 THEN 1 / 0 END"), Params::NONE)
            .unwrap();
        let row: [&[Value]; 2] = [&[Value::Int(1), Value::Null], &[Value::Null]];
        assert_eq!(*guarded.eval(&row).unwrap(), Value::Null);
    }

    #[test]
    fn columns_and_constants_come_back_borrowed() {
        let s = scope();
        let t = [Value::Int(5), Value::Text("Smith".into())];
        let u = [Value::Float(1.5)];
        for sql in [
            "b",
            "'lit'",
            "COALESCE(NULL, b)",
            "CASE WHEN t.a = 5 THEN b END",
        ] {
            let bound = s.bind(&expr_of(sql), Params::NONE).unwrap();
            assert!(
                matches!(bound.eval(&[&t, &u]).unwrap(), Cow::Borrowed(_)),
                "{sql}"
            );
        }
    }

    #[test]
    fn three_valued_logic() {
        let t = [Value::Int(5), Value::Null];
        let u = [Value::Float(1.0)];
        let e = |sql| eval_str(sql, &t, &u).unwrap();
        assert_eq!(e("b = 'x'"), Value::Null);
        assert_eq!(e("b = 'x' AND t.a = 5"), Value::Null);
        assert_eq!(e("b = 'x' AND t.a = 9"), Value::Bool(false));
        assert_eq!(e("b = 'x' OR t.a = 5"), Value::Bool(true));
        assert_eq!(e("NOT (b = 'x')"), Value::Null);
        assert_eq!(e("b IS NULL"), Value::Bool(true));
        assert_eq!(e("b IS NOT NULL"), Value::Bool(false));
    }

    #[test]
    fn comparisons_and_coercion() {
        assert_eq!(ev("t.a > 4").unwrap(), Value::Bool(true));
        assert_eq!(ev("t.a = 5.0").unwrap(), Value::Bool(true));
        // `Value` orders 5 before 5.0; SQL calls them equal, both ways round.
        for sql in ["5.0 = t.a", "t.a >= 5.0", "5.0 <= t.a", "t.a IN (5.0)"] {
            assert_eq!(ev(sql).unwrap(), Value::Bool(true), "{sql}");
        }
        assert_eq!(ev("t.a BETWEEN 5.0 AND 5.0").unwrap(), Value::Bool(true));
        assert_eq!(
            ev("DATE '1994-06-01' < '1995-01-01'").unwrap(),
            Value::Bool(true)
        );
        assert!(ev("t.a > 'x'").is_err());
    }

    #[test]
    fn between_in_like() {
        assert_eq!(ev("t.a BETWEEN 1 AND 10").unwrap(), Value::Bool(true));
        assert_eq!(ev("t.a NOT BETWEEN 1 AND 4").unwrap(), Value::Bool(true));
        assert_eq!(ev("t.a IN (1, 5, 9)").unwrap(), Value::Bool(true));
        assert_eq!(ev("t.a NOT IN (1, 9)").unwrap(), Value::Bool(true));
        assert_eq!(ev("t.a IN (1, NULL)").unwrap(), Value::Null);
        assert_eq!(ev("b LIKE 'Sm%'").unwrap(), Value::Bool(true));
        assert_eq!(ev("b LIKE '_mith'").unwrap(), Value::Bool(true));
        assert_eq!(ev("b NOT LIKE '%x%'").unwrap(), Value::Bool(true));
        // A pattern that is not a constant is evaluated per row.
        assert_eq!(ev("b LIKE b").unwrap(), Value::Bool(true));
        assert_eq!(ev("b LIKE NULL").unwrap(), Value::Null);
        assert!(ev("t.a LIKE 'x%'").is_err());
    }

    #[test]
    fn like_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%%c"));
        assert!(like_match("a%c", "a%c")); // literal pass-through of matched text
        assert!(!like_match("ABC", "abc")); // case-sensitive
        assert!(like_match("PROMO BURNISHED", "PROMO%"));
    }

    /// The compiled matcher agrees with ANSI semantics on the shapes the
    /// old recursive matcher was slowest at: multi-`%` patterns with
    /// backtracking, `%_` runs, and multibyte text.
    #[test]
    fn like_compiled_matcher_semantics() {
        // Q13-shaped multi-% with near-miss prefixes that force backtracking.
        assert!(like_match(
            "x special y requests z packages w",
            "%special%requests%packages%"
        ));
        assert!(!like_match(
            "x special y requests z package w",
            "%special%requests%packages%"
        ));
        assert!(!like_match(
            "special requests",
            "%special%requests%packages%"
        ));
        // A `%` must be able to match the empty run between two literals.
        assert!(like_match("ab", "a%b"));
        // `%_` requires at least one character after the run.
        assert!(like_match("abc", "%_"));
        assert!(!like_match("", "%_"));
        assert!(like_match("abc", "%_c"));
        // `_` counts characters, not bytes.
        assert!(like_match("héllo", "h_llo"));
        assert!(like_match("héllo", "%é%"));
        assert!(!like_match("héllo", "h__llo"));
        // Trailing-% and exact-suffix behavior.
        assert!(like_match("abcabc", "%abc"));
        assert!(!like_match("abcabd", "%abc"));
        // Collapsed repeated wildcards.
        assert!(like_match("abc", "%%%_%%"));
    }

    #[test]
    fn case_expression() {
        assert_eq!(
            ev("CASE WHEN t.a = 5 THEN 'five' ELSE 'other' END").unwrap(),
            Value::Text("five".into())
        );
        assert_eq!(
            ev("CASE WHEN t.a = 9 THEN 'nine' END").unwrap(),
            Value::Null
        );
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(ev("ABS(-3)").unwrap(), Value::Int(3));
        assert_eq!(ev("UPPER(b)").unwrap(), Value::Text("SMITH".into()));
        assert_eq!(ev("LENGTH(b)").unwrap(), Value::Int(5));
        assert_eq!(ev("SUBSTR(b, 2, 3)").unwrap(), Value::Text("mit".into()));
        assert_eq!(ev("COALESCE(NULL, 7)").unwrap(), Value::Int(7));
        assert_eq!(ev("ROUND(2.567, 2)").unwrap(), Value::Float(2.57));
        assert_eq!(ev("YEAR(DATE '1994-03-01')").unwrap(), Value::Int(1994));
        assert_eq!(ev("MONTH(DATE '1994-03-01')").unwrap(), Value::Int(3));
        assert!(ev("NO_SUCH_FN(1)").is_err());
        assert_eq!(ev("UPPER(1)").unwrap_err().code, crate::ErrorCode::Type);
        assert_eq!(ev("UPPER(b, b)").unwrap_err().code, crate::ErrorCode::Type);
    }

    #[test]
    fn date_arithmetic() {
        assert_eq!(ev("DATE '1970-01-01' + 10").unwrap(), Value::Date(10));
        assert_eq!(
            ev("DATE '1970-02-01' - DATE '1970-01-01'").unwrap(),
            Value::Int(31)
        );
    }

    #[test]
    fn aggregates_rejected_outside_grouping() {
        let e = ev("SUM(t.a)").unwrap_err();
        assert!(e.message.contains("aggregate"));
    }

    #[test]
    fn type_inference() {
        let s = scope();
        let t = |sql: &str| infer_type(&expr_of(sql), &s).unwrap().0;
        assert_eq!(t("t.a"), DataType::Int);
        assert_eq!(t("t.a + 1"), DataType::Int);
        assert_eq!(t("t.a / 2"), DataType::Float);
        assert_eq!(t("t.a + u.a"), DataType::Float);
        assert_eq!(t("b + 'x'"), DataType::Text);
        assert_eq!(t("t.a > 1"), DataType::Bool);
        assert_eq!(t("COUNT(*)"), DataType::Int);
        assert_eq!(t("AVG(t.a)"), DataType::Float);
        assert_eq!(t("SUM(t.a)"), DataType::Int);
        assert_eq!(t("SUM(u.a)"), DataType::Float);
        assert_eq!(t("MIN(b)"), DataType::Text);
        assert_eq!(t("CASE WHEN TRUE THEN 1 END"), DataType::Int);
        assert_eq!(t("DATE '1994-01-01' + 30"), DataType::Date);
    }

    #[test]
    fn grouped_binding_maps_keys_and_aggregates_to_slots() {
        let s = scope();
        let keys = vec!["b".to_string()];
        let aggs = vec!["SUM(t.a)".to_string()];
        let bound = s
            .bind_grouped(&expr_of("SUM(t.a) + LENGTH(b)"), Params::NONE, &keys, &aggs)
            .unwrap();
        let key_row = [Value::Text("abc".into())];
        let agg_row = [Value::Int(42)];
        let rep_t = [Value::Int(0), Value::Text("ignored".into())];
        let rep_u = [Value::Null];
        let tuple: [&[Value]; 4] = [&key_row, &agg_row, &rep_t, &rep_u];
        assert_eq!(*bound.eval(&tuple).unwrap(), Value::Int(45));
    }

    #[test]
    fn params() {
        let mut args = HashMap::new();
        args.insert("cid".to_string(), Value::Int(9));
        let params = Params {
            args: Some(&args),
            sys: None,
        };
        assert_eq!(
            eval_const(&expr_of("@cid + 1"), params).unwrap(),
            Value::Int(10)
        );
        assert!(eval_const(&expr_of("@missing"), params).is_err());
    }

    #[test]
    fn output_names() {
        assert_eq!(output_name(&expr_of("t.a")), "a");
        assert_eq!(output_name(&expr_of("COUNT(*)")), "COUNT(*)");
    }
}
