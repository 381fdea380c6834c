//! SELECT planning and execution.
//!
//! The planner is cost-aware but deliberately compact. The WHERE clause is
//! split into conjuncts; for each FROM table the planner picks an access
//! path — full scan, primary-key point lookup, or a secondary-index
//! equality/range probe — by comparing exact index entry counts against
//! the table cardinality. Join order is chosen greedily from the cheapest
//! estimated input, using an index nested-loop join when the inner side of
//! an equi-conjunct is an indexed column and the outer estimate is small,
//! and a hash join otherwise. A single-column ORDER BY over an indexed (or
//! primary-key) column is satisfied by walking the index in key order
//! instead of sorting. `EXPLAIN` renders the same `Plan` that execution
//! follows, so the displayed access paths are the executed ones.
//!
//! Execution binds the statement's expressions once (see `eval.rs`)
//! and passes *tuples* between the plan's steps: one row reference per FROM
//! table, borrowed from the snapshot, laid out in FROM order whatever the
//! join order. Scans, index probes, hash, index-nested-loop and cross joins
//! and residual filters move references, never rows; `GROUP BY` hashes
//! borrowed key values and folds every aggregate as the tuples stream past.
//! Values are copied only into output rows.
//!
//! Constant conjuncts are evaluated once before any scan — so a query with a
//! constant-false predicate (`WHERE 0=1`) touches no data at all.
//!
//! UPDATE and DELETE find their rows here too ([`dml_rows`]): the plan of
//! `SELECT * FROM t WHERE …`, walked by the same access walker, with ids in
//! row-id order. `EXPLAIN UPDATE|DELETE` renders that plan.
//!
//! OFFSET/LIMIT fuse into the tuple stream when nothing needs the whole
//! input — no GROUP BY, aggregate or DISTINCT, and no ORDER BY the access
//! path does not already deliver. A single-table access then stops after
//! `offset + limit` rows that pass its filters and keeps only the last
//! `limit` of them; a row-id scan with no filter starts at row `offset` in
//! one descent of the row map. A join builds its tuples and projects only
//! the window's. Behind a whole-input operator the window cuts the finished
//! rows.
//!
//! Scan order is row-id (insertion) order, joins emit rows in probe-side
//! order, and groups come out in order of first occurrence; a `SELECT *
//! FROM t` with no ORDER BY therefore returns rows in the order they were
//! inserted. Phoenix's result-set capture relies on this documented
//! property: `SELECT *` over a `CREATE TABLE … AS SELECT` table returns the
//! query's rows in the query's order.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::ops::Bound;

use phoenix_sql::ast::{
    BinaryOp, DeleteStmt, Expr, FromItem, InsertSource, Literal, ObjectName, SelectItem,
    SelectStmt, Statement, UpdateStmt,
};
use phoenix_sql::display::render_expr;
use phoenix_storage::store::{SecIndex, TableData};
use phoenix_storage::types::{Column, DataType, Row, RowId, Schema, Value};

#[cfg(test)]
use crate::error::ErrorCode;
use crate::error::{EngineError, Result};
use crate::eval::{
    eval_const, infer_type, is_aggregate, output_name, Acc, Aggregate, BoundColumn, Params, Scalar,
    Scope, GROUP_ROWS,
};

/// Read access to tables by (possibly qualified, possibly temp) name.
/// Implemented by the engine over its durable + session-temporary stores.
pub trait Catalog {
    /// Resolve a (possibly temp) table name to its data.
    fn table(&self, name: &ObjectName) -> Result<&TableData>;
}

/// A fully executed result set.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Result metadata.
    pub schema: Schema,
    /// All rows, in delivery order.
    pub rows: Vec<Row>,
}

/// Execute a SELECT, returning the complete result set.
pub fn execute_select(
    select: &SelectStmt,
    catalog: &dyn Catalog,
    params: Params<'_>,
) -> Result<ResultSet> {
    let from = bind_from(select, catalog)?;
    let projections = expand_projections(select, &from)?;
    let schema = output_schema(&projections, &from)?;
    let (output, tuples, shape) = select_tuples(select, &from, &projections, params)?;
    let rows = output.rows(&tuples, &from, shape)?;
    Ok(ResultSet { schema, rows })
}

/// How the joined tuples came, as far as the output side must know.
#[derive(Debug, Clone, Copy, Default)]
struct Shape {
    /// Rows already emerge in ORDER BY order; the output skips its sort.
    presorted: bool,
    /// The access already cut the tuples to the OFFSET/LIMIT window.
    cut: bool,
}

/// Bind a SELECT's filters and output side, plan it and join its tuples.
fn select_tuples<'a>(
    select: &SelectStmt,
    from: &BoundFrom<'a>,
    projections: &[Projection],
    params: Params<'_>,
) -> Result<(Output, Tuples<'a>, Shape)> {
    let (classified, filters, plan) = plan_where(select, from, params)?;
    let output = Output::bind(select, from, projections, params)?;
    let Some(plan) = plan else {
        return Ok((output, Tuples::new(from.width()), Shape::default()));
    };
    let shape = Shape {
        presorted: plan.presorted,
        cut: plan.steps.len() == 1 && output.streams(plan.presorted),
    };
    let window = if shape.cut {
        output.window
    } else {
        Window::ALL
    };
    let tuples = join(&plan, from, &filters, &classified, params, window)?;
    Ok((output, tuples, shape))
}

/// Split WHERE into conjuncts, classify each by the FROM tables it reads,
/// bind it, and plan. The plan is `None` when a false or NULL constant
/// conjunct lets no row pass, so nothing is read; constant conjuncts are
/// evaluated here, once, and never again.
#[allow(clippy::type_complexity)]
fn plan_where(
    select: &SelectStmt,
    from: &BoundFrom,
    params: Params<'_>,
) -> Result<(Vec<Vec<usize>>, Vec<Scalar>, Option<Plan>)> {
    let conjuncts = split_conjuncts(select.where_clause.as_ref());
    let mut classified = Vec::with_capacity(conjuncts.len());
    let mut filters = Vec::with_capacity(conjuncts.len());
    for c in &conjuncts {
        classified.push(tables_of_expr(c, from)?);
        filters.push(from.scope.bind(c, params)?);
    }
    for (f, tables) in filters.iter().zip(&classified) {
        if tables.is_empty() && !f.holds(&[])? {
            return Ok((classified, filters, None));
        }
    }
    let plan = build_plan(select, from, &conjuncts, &classified, params)?;
    Ok((classified, filters, Some(plan)))
}

/// The one-table `SELECT * FROM table WHERE …` whose plan finds the rows an
/// UPDATE or DELETE touches.
fn dml_select(table: &ObjectName, where_clause: Option<&Expr>) -> SelectStmt {
    let (table, alias) = (table.clone(), None);
    SelectStmt {
        from: vec![FromItem { table, alias }],
        where_clause: where_clause.cloned(),
        ..SelectStmt::bare(vec![SelectItem::Wildcard])
    }
}

/// The ids of the rows an UPDATE or DELETE of `table` touches, in row-id
/// order. They are the rows `SELECT * FROM table WHERE …` returns: the same
/// plan, walked by the same access path, with every non-constant conjunct
/// tested on every visited row. Row-id order makes a statement's change
/// list, and so its log record and the order its key checks run in,
/// independent of the access path that found the rows.
pub fn dml_rows(
    table: &ObjectName,
    where_clause: Option<&Expr>,
    catalog: &dyn Catalog,
    params: Params<'_>,
) -> Result<Vec<RowId>> {
    let select = dml_select(table, where_clause);
    let from = bind_from(&select, catalog)?;
    let (classified, filters, plan) = plan_where(&select, &from, params)?;
    let mut ids = Vec::new();
    if let Some(plan) = plan {
        let filters: Vec<&Scalar> = (filters.iter().zip(&classified))
            .filter_map(|(f, tables)| (!tables.is_empty()).then_some(f))
            .collect();
        // A one-slot tuple buffer tests the filters as a SELECT's scan does.
        let (mut tested, step) = (Tuples::new(1), &plan.steps[0]);
        walk(from.tables[0], &step.access, 0, params, |id, row| {
            if tested.push(&[NO_ROW], 0, row, &filters)? {
                tested.pop();
                ids.push(id);
            }
            Ok(true)
        })?;
    }
    ids.sort_unstable();
    Ok(ids)
}

/// Compute the output schema of a SELECT without executing it.
pub fn select_schema(select: &SelectStmt, catalog: &dyn Catalog) -> Result<Schema> {
    let bound = bind_from(select, catalog)?;
    output_schema(&expand_projections(select, &bound)?, &bound)
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

/// Selectivity assumed per predicate the cost model cannot probe through an
/// index.
const FILTER_SEL: f64 = 0.33;

/// An index nested-loop join is chosen only when the outer estimate times
/// this margin stays below the inner table's cardinality.
const NL_MARGIN: f64 = 4.0;

/// How a single table is read.
#[derive(Debug, Clone)]
enum Access {
    /// Full scan in row-id (insertion) order.
    Scan,
    /// Primary-key point lookup: every pk column pinned to a constant
    /// (`key`, in primary-key column order).
    PkPoint { key: Vec<Expr> },
    /// Secondary-index equality probe on one or more constant values.
    SecEq { pos: usize, values: Vec<Expr> },
    /// Secondary-index range walk. Bounds are (expr, inclusive); a missing
    /// low bound still excludes NULL keys — no comparison matches NULL.
    SecRange {
        pos: usize,
        lo: Option<(Expr, bool)>,
        hi: Option<(Expr, bool)>,
        desc: bool,
    },
    /// Full walk of a secondary index in key order, to satisfy ORDER BY.
    SecOrder { pos: usize, desc: bool },
    /// Full walk of a single-column primary key in key order.
    PkOrder { desc: bool },
}

/// What an index nested-loop probe targets on the inner table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeTarget {
    /// Single-column primary key.
    Pk,
    /// Secondary index at `def.indexes[pos]`.
    Sec(usize),
}

/// How a table's rows combine with the rows already produced.
#[derive(Debug, Clone)]
enum JoinKind {
    /// First table in execution order.
    First,
    /// Hash join on the given equi-conjunct key expressions.
    Hash { outer: Vec<Expr>, inner: Vec<Expr> },
    /// For each outer row, evaluate `outer` and probe the inner table's
    /// index directly — the inner table is never scanned.
    IndexNested { outer: Expr, target: ProbeTarget },
    /// No connecting conjunct: Cartesian product.
    Cross,
}

/// One table's placement in the executable plan.
#[derive(Debug, Clone)]
struct Step {
    /// FROM-list position of the table.
    t: usize,
    access: Access,
    join: JoinKind,
    /// Conjunct indices consumed by the join itself.
    join_conjuncts: Vec<usize>,
    /// Estimated cumulative row count after this step.
    est: u64,
}

/// An executable (and explainable) SELECT plan.
struct Plan {
    steps: Vec<Step>,
    /// Rows already emerge in ORDER BY order; the output skips its sort.
    presorted: bool,
}

/// The bound columns of one FROM table.
fn table_cols<'b>(bound: &'b BoundFrom, t: usize) -> &'b [BoundColumn] {
    bound.scope.table_columns(t)
}

/// Build the plan shared by execution and EXPLAIN.
fn build_plan(
    select: &SelectStmt,
    bound: &BoundFrom,
    conjuncts: &[Expr],
    classified: &[Vec<usize>],
    params: Params<'_>,
) -> Result<Plan> {
    let n = bound.tables.len();
    if n == 0 {
        return Ok(Plan {
            steps: Vec::new(),
            presorted: false,
        });
    }

    // Single-table conjunct indices, per table.
    let singles: Vec<Vec<usize>> = (0..n)
        .map(|t| {
            classified
                .iter()
                .enumerate()
                .filter(|(_, tabs)| tabs.len() == 1 && tabs[0] == t)
                .map(|(i, _)| i)
                .collect()
        })
        .collect();

    // Pick an access path and estimate for each table in isolation.
    let mut accesses: Vec<(Access, f64)> = Vec::with_capacity(n);
    for (t, single) in singles.iter().enumerate() {
        let filters: Vec<&Expr> = single.iter().map(|&i| &conjuncts[i]).collect();
        accesses.push(choose_access(
            bound.tables[t],
            table_cols(bound, t),
            &filters,
            params,
        ));
    }

    if n == 1 {
        let (mut access, est) = accesses.pop().unwrap();
        let presorted = apply_order(select, bound, &mut access, params);
        return Ok(Plan {
            steps: vec![Step {
                t: 0,
                access,
                join: JoinKind::First,
                join_conjuncts: Vec::new(),
                est: est.ceil() as u64,
            }],
            presorted,
        });
    }

    // Greedy join ordering from the cheapest estimated input.
    let nrows: Vec<f64> = bound.tables.iter().map(|t| t.len() as f64).collect();
    let ests: Vec<f64> = accesses.iter().map(|(_, e)| *e).collect();
    let mut consumed = vec![false; conjuncts.len()];
    let mut in_plan = vec![false; n];
    let mut steps: Vec<Step> = Vec::new();

    let first = (0..n).min_by(|&a, &b| ests[a].total_cmp(&ests[b])).unwrap();
    in_plan[first] = true;
    let mut cur_est = ests[first];
    steps.push(Step {
        t: first,
        access: accesses[first].0.clone(),
        join: JoinKind::First,
        join_conjuncts: Vec::new(),
        est: cur_est.ceil() as u64,
    });

    while steps.len() < n {
        // Cost the cheapest way to attach each remaining connected table.
        let mut best: Option<(f64, usize, JoinKind, Vec<usize>)> = None;
        for c in 0..n {
            if in_plan[c] {
                continue;
            }
            // Equi-conjuncts linking the joined set to `c`.
            let mut outer_keys: Vec<Expr> = Vec::new();
            let mut inner_keys: Vec<Expr> = Vec::new();
            let mut equi: Vec<usize> = Vec::new();
            // Best probeable equi-conjunct: prefer a pk target (one match
            // per probe) over a secondary index.
            let mut probe: Option<(Expr, ProbeTarget, usize)> = None;
            for (i, conj) in conjuncts.iter().enumerate() {
                if consumed[i] {
                    continue;
                }
                let tabs = &classified[i];
                if !tabs.contains(&c)
                    || !tabs.iter().any(|t| *t != c)
                    || !tabs.iter().all(|t| *t == c || in_plan[*t])
                {
                    continue;
                }
                if let Expr::Binary {
                    left,
                    op: BinaryOp::Eq,
                    right,
                } = conj
                {
                    let lt = tables_of_expr(left, bound)?;
                    let rt = tables_of_expr(right, bound)?;
                    let (okey, ikey) = if rt.len() == 1 && rt[0] == c && !lt.contains(&c) {
                        (left, right)
                    } else if lt.len() == 1 && lt[0] == c && !rt.contains(&c) {
                        (right, left)
                    } else {
                        continue;
                    };
                    equi.push(i);
                    outer_keys.push(okey.as_ref().clone());
                    inner_keys.push(ikey.as_ref().clone());
                    if let Some(local) = bare_column_of(ikey, bound, c) {
                        let def = &bound.tables[c].def;
                        let target = if let Some(pos) = def.index_on(local) {
                            Some(ProbeTarget::Sec(pos))
                        } else if def.primary_key.as_slice() == [local] {
                            Some(ProbeTarget::Pk)
                        } else {
                            None
                        };
                        if let Some(tgt) = target {
                            let better = matches!(
                                (&probe, tgt),
                                (None, _) | (Some((_, ProbeTarget::Sec(_), _)), ProbeTarget::Pk)
                            );
                            if better {
                                probe = Some((okey.as_ref().clone(), tgt, i));
                            }
                        }
                    }
                }
            }
            if equi.is_empty() {
                continue;
            }

            let f_sel = FILTER_SEL.powi(singles[c].len() as i32);
            let hash_est = cur_est.max(ests[c]);
            let (est_c, join, jconj) = match &probe {
                Some((okey, tgt, i)) if cur_est * NL_MARGIN <= nrows[c] => {
                    let match_per = match tgt {
                        ProbeTarget::Pk => 1.0,
                        ProbeTarget::Sec(pos) => {
                            let distinct = bound.tables[c].sec[*pos].distinct().max(1) as f64;
                            (nrows[c] / distinct).max(1.0)
                        }
                    };
                    (
                        cur_est * match_per * f_sel,
                        JoinKind::IndexNested {
                            outer: okey.clone(),
                            target: *tgt,
                        },
                        vec![*i],
                    )
                }
                _ => (
                    hash_est,
                    JoinKind::Hash {
                        outer: outer_keys,
                        inner: inner_keys,
                    },
                    equi,
                ),
            };
            if best.as_ref().is_none_or(|(b, ..)| est_c < *b) {
                best = Some((est_c, c, join, jconj));
            }
        }

        let (est_c, c, join, jconj) = match best {
            Some(b) => b,
            None => {
                // Nothing connected: cross join the cheapest remainder.
                let c = (0..n)
                    .filter(|t| !in_plan[*t])
                    .min_by(|&a, &b| ests[a].total_cmp(&ests[b]))
                    .unwrap();
                (cur_est * ests[c].max(1.0), c, JoinKind::Cross, Vec::new())
            }
        };
        for &i in &jconj {
            consumed[i] = true;
        }
        in_plan[c] = true;
        cur_est = est_c;
        steps.push(Step {
            t: c,
            access: accesses[c].0.clone(),
            join,
            join_conjuncts: jconj,
            est: cur_est.ceil() as u64,
        });
    }

    Ok(Plan {
        steps,
        presorted: false,
    })
}

/// Choose the cheapest access path for one table given its single-table
/// filters, returning it with the estimated output row count.
fn choose_access(
    table: &TableData,
    cols: &[BoundColumn],
    filters: &[&Expr],
    params: Params<'_>,
) -> (Access, f64) {
    let nrows = table.len() as f64;

    if table.def.has_primary_key() {
        if let Some(key) = pk_key(table, cols, filters) {
            return (Access::PkPoint { key }, 1.0);
        }
    }

    // Best secondary-index probe by exact entry counts.
    let mut best: Option<(Access, f64, usize)> = None;
    for (pos, ix) in table.def.indexes.iter().enumerate() {
        let col = &table.def.schema.columns[ix.column];
        if let Some(cand) = index_probe(table, cols, pos, &col.name, col.dtype, filters, params) {
            if best.as_ref().is_none_or(|(_, b, _)| cand.1 < *b) {
                best = Some(cand);
            }
        }
    }
    if let Some((access, base, probed)) = best {
        // The probe must clear the scan by a comfortable margin.
        if base * 2.0 <= nrows {
            let residual = filters.len().saturating_sub(probed);
            return (access, base * FILTER_SEL.powi(residual as i32));
        }
    }
    (Access::Scan, nrows * FILTER_SEL.powi(filters.len() as i32))
}

/// The constant each primary-key column is pinned to by a `pk = constant`
/// filter (the first such filter per column), if every column is pinned.
fn pk_key(table: &TableData, cols: &[BoundColumn], filters: &[&Expr]) -> Option<Vec<Expr>> {
    table
        .def
        .primary_key
        .iter()
        .map(|&pk_idx| {
            let pk_name = &table.def.schema.columns[pk_idx].name;
            filters.iter().find_map(|f| match f {
                Expr::Binary {
                    left,
                    op: BinaryOp::Eq,
                    right,
                } => {
                    if is_column_named(left, pk_name, cols) && is_constant(right) {
                        Some(right.as_ref().clone())
                    } else if is_column_named(right, pk_name, cols) && is_constant(left) {
                        Some(left.as_ref().clone())
                    } else {
                        None
                    }
                }
                _ => None,
            })
        })
        .collect()
}

/// Find the best equality or range probe for one secondary index. Returns
/// the access path, its exact base row estimate from the index entries, and
/// how many filter conjuncts the probe subsumes.
#[allow(clippy::too_many_arguments)]
fn index_probe(
    table: &TableData,
    cols: &[BoundColumn],
    pos: usize,
    col_name: &str,
    dtype: DataType,
    filters: &[&Expr],
    params: Params<'_>,
) -> Option<(Access, f64, usize)> {
    let map = &table.sec[pos];
    let nrows = table.len() as f64;
    let avg_per_value = nrows / map.distinct().max(1) as f64;

    // Prefer an equality probe: `col = const` or `col IN (consts)`.
    for f in filters {
        let values: Vec<Expr> = match f {
            Expr::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            } => {
                if is_column_named(left, col_name, cols) && is_constant(right) {
                    vec![right.as_ref().clone()]
                } else if is_column_named(right, col_name, cols) && is_constant(left) {
                    vec![left.as_ref().clone()]
                } else {
                    continue;
                }
            }
            Expr::InList {
                expr,
                negated: false,
                list,
            } if is_column_named(expr, col_name, cols) && list.iter().all(is_constant) => {
                list.clone()
            }
            _ => continue,
        };
        // Exact base: sum the matched values' entries; values opaque at plan
        // time (e.g. EXPLAIN of a parameterized query) cost one average
        // value's.
        let mut seen: Vec<Value> = Vec::new();
        let mut base = 0.0;
        for v in &values {
            match probe_value(v, dtype, params) {
                Some(val) => {
                    if seen.contains(&val) {
                        continue;
                    }
                    let one = Bound::Included(&val);
                    base += range_count(map, (one, one)) as f64;
                    seen.push(val);
                }
                None => base += avg_per_value,
            }
        }
        return Some((Access::SecEq { pos, values }, base, 1));
    }

    // Range probe: merge comparison and BETWEEN bounds on the column.
    let mut lo: Option<(Expr, bool, Option<Value>)> = None;
    let mut hi: Option<(Expr, bool, Option<Value>)> = None;
    let mut probed = 0usize;
    for f in filters {
        match f {
            Expr::Binary { left, op, right } => {
                let (bexpr, is_lo, inc) =
                    if is_column_named(left, col_name, cols) && is_constant(right) {
                        match op {
                            BinaryOp::Gt => (right.as_ref().clone(), true, false),
                            BinaryOp::GtEq => (right.as_ref().clone(), true, true),
                            BinaryOp::Lt => (right.as_ref().clone(), false, false),
                            BinaryOp::LtEq => (right.as_ref().clone(), false, true),
                            _ => continue,
                        }
                    } else if is_column_named(right, col_name, cols) && is_constant(left) {
                        // `const op col` mirrors the comparison.
                        match op {
                            BinaryOp::Lt => (left.as_ref().clone(), true, false),
                            BinaryOp::LtEq => (left.as_ref().clone(), true, true),
                            BinaryOp::Gt => (left.as_ref().clone(), false, false),
                            BinaryOp::GtEq => (left.as_ref().clone(), false, true),
                            _ => continue,
                        }
                    } else {
                        continue;
                    };
                let val = probe_value(&bexpr, dtype, params);
                if is_lo {
                    tighten_lo(&mut lo, bexpr, inc, val);
                } else {
                    tighten_hi(&mut hi, bexpr, inc, val);
                }
                probed += 1;
            }
            Expr::Between {
                expr,
                negated: false,
                low,
                high,
            } if is_column_named(expr, col_name, cols) && is_constant(low) && is_constant(high) => {
                let lv = probe_value(low, dtype, params);
                let hv = probe_value(high, dtype, params);
                tighten_lo(&mut lo, low.as_ref().clone(), true, lv);
                tighten_hi(&mut hi, high.as_ref().clone(), true, hv);
                probed += 1;
            }
            _ => {}
        }
    }
    if lo.is_none() && hi.is_none() {
        return None;
    }
    // Exact base when a bound is evaluable: count the entries inside the
    // range. Both bounds opaque → assume a third of the table.
    let lo_v = lo
        .as_ref()
        .and_then(|(_, inc, v)| v.clone().map(|v| (v, *inc)));
    let hi_v = hi
        .as_ref()
        .and_then(|(_, inc, v)| v.clone().map(|v| (v, *inc)));
    let base = if lo_v.is_some() || hi_v.is_some() {
        range_count(map, key_bounds(lo_v.as_ref(), hi_v.as_ref())) as f64
    } else {
        nrows / 3.0
    };
    Some((
        Access::SecRange {
            pos,
            lo: lo.map(|(e, inc, _)| (e, inc)),
            hi: hi.map(|(e, inc, _)| (e, inc)),
            desc: false,
        },
        base,
        probed,
    ))
}

/// Keep the tighter of two lower bounds: an evaluable bound beats an opaque
/// one, a greater value (or stricter inclusivity) beats a lesser one.
fn tighten_lo(cur: &mut Option<(Expr, bool, Option<Value>)>, e: Expr, inc: bool, v: Option<Value>) {
    let replace = match (cur.as_ref(), &v) {
        (None, _) => true,
        (Some((_, _, None)), Some(_)) => true,
        (Some((_, cinc, Some(cv))), Some(nv)) => nv > cv || (nv == cv && *cinc && !inc),
        _ => false,
    };
    if replace {
        *cur = Some((e, inc, v));
    }
}

/// Mirror of [`tighten_lo`] for upper bounds.
fn tighten_hi(cur: &mut Option<(Expr, bool, Option<Value>)>, e: Expr, inc: bool, v: Option<Value>) {
    let replace = match (cur.as_ref(), &v) {
        (None, _) => true,
        (Some((_, _, None)), Some(_)) => true,
        (Some((_, cinc, Some(cv))), Some(nv)) => nv < cv || (nv == cv && *cinc && !inc),
        _ => false,
    };
    if replace {
        *cur = Some((e, inc, v));
    }
}

/// Evaluate an index-probe constant and coerce it to the indexed column's
/// type. `None` means NULL, which matches nothing; errors (a missing
/// parameter) propagate exactly as a scan would report them.
fn probe_const(e: &Expr, dtype: DataType, params: Params<'_>) -> Result<Option<Value>> {
    let v = eval_const(e, params)?;
    if v.is_null() {
        return Ok(None);
    }
    Ok(Some(v.coerce_to(dtype).unwrap_or(v)))
}

/// [`probe_const`] at plan time: `None` also when the constant cannot be
/// evaluated yet (parameters absent during EXPLAIN).
fn probe_value(e: &Expr, dtype: DataType, params: Params<'_>) -> Option<Value> {
    probe_const(e, dtype, params).ok().flatten()
}

/// Count the index entries inside the bounds, up to one past half the
/// table. A probe is taken only when its count is at most half, so the cap
/// changes no plan; it keeps a wide range over a big table (TPC-H Q1's
/// date predicate) from walking most of it at plan time.
fn range_count(map: &SecIndex, (lo, hi): (Bound<&Value>, Bound<&Value>)) -> usize {
    map.range(lo, hi).take(map.len() / 2 + 1).count()
}

/// Index-walk bounds; no low bound still skips NULL keys, since no
/// comparison predicate matches NULL.
fn key_bounds<'v>(
    lo: Option<&'v (Value, bool)>,
    hi: Option<&'v (Value, bool)>,
) -> (Bound<&'v Value>, Bound<&'v Value>) {
    let lo_b = match lo {
        Some((v, true)) => Bound::Included(v),
        Some((v, false)) => Bound::Excluded(v),
        None => Bound::Excluded(&Value::Null),
    };
    let hi_b = match hi {
        Some((v, true)) => Bound::Included(v),
        Some((v, false)) => Bound::Excluded(v),
        None => Bound::Unbounded,
    };
    (lo_b, hi_b)
}

/// If `e` is a bare column reference belonging to FROM table `t`, return its
/// column index within that table.
fn bare_column_of(e: &Expr, bound: &BoundFrom, t: usize) -> Option<usize> {
    match e {
        Expr::Column { table, name } => match bound.scope.resolve(table.as_deref(), name) {
            Ok((owner, c)) if owner == t => Some(c),
            _ => None,
        },
        Expr::Nested(inner) => bare_column_of(inner, bound, t),
        _ => None,
    }
}

/// For a single-table plan, try to satisfy ORDER BY from index order by
/// rewriting the access path. Returns true when the access path's output
/// order already matches the requested order.
fn apply_order(
    select: &SelectStmt,
    bound: &BoundFrom,
    access: &mut Access,
    params: Params<'_>,
) -> bool {
    if select.order_by.is_empty() {
        return false;
    }
    if matches!(access, Access::PkPoint { .. }) {
        // At most one output row: any requested order trivially holds.
        return true;
    }
    if select.order_by.len() != 1
        || !select.group_by.is_empty()
        || !collect_aggregates(select).is_empty()
    {
        return false;
    }
    let item = &select.order_by[0];
    let oc = match bare_column_of(&item.expr, bound, 0) {
        Some(c) => c,
        None => return false,
    };
    // The output sorts on a projection's value when an alias or exact
    // rendering matches; that is only our column's order when the matched
    // projection is the same column.
    let projections = match expand_projections(select, bound) {
        Ok(p) => p,
        Err(_) => return false,
    };
    let okey = render_expr(&item.expr);
    for p in &projections {
        let alias_match = matches!(&item.expr,
            Expr::Column { table: None, name } if name.eq_ignore_ascii_case(&p.name));
        if alias_match || render_expr(&p.expr) == okey {
            if bare_column_of(&p.expr, bound, 0) != Some(oc) {
                return false;
            }
            break;
        }
    }
    let table = bound.tables[0];
    let desc = item.desc;
    match access {
        Access::Scan => {
            if let Some(pos) = table.def.index_on(oc) {
                *access = Access::SecOrder { pos, desc };
                return true;
            }
            if table.def.primary_key.as_slice() == [oc] {
                *access = Access::PkOrder { desc };
                return true;
            }
            false
        }
        Access::SecEq { pos, values } => {
            if table.def.indexes[*pos].column != oc {
                return false;
            }
            if values.len() > 1 {
                // Visit the probed values in output order.
                let dtype = table.def.schema.columns[oc].dtype;
                let mut evald = Vec::with_capacity(values.len());
                for e in values.iter() {
                    match probe_value(e, dtype, params) {
                        Some(v) => evald.push((v, e.clone())),
                        None => return false,
                    }
                }
                evald.sort_by(|a, b| a.0.cmp(&b.0));
                if desc {
                    evald.reverse();
                }
                *values = evald.into_iter().map(|(_, e)| e).collect();
            }
            true
        }
        Access::SecRange { pos, desc: d, .. } => {
            if table.def.indexes[*pos].column != oc {
                return false;
            }
            *d = desc;
            true
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------------

/// Joined tuples: `width` row references each, one slot per FROM table in
/// FROM order. The slot of a table not joined yet holds [`NO_ROW`].
struct Tuples<'a> {
    width: usize,
    refs: Vec<&'a [Value]>,
}

/// The row in the slot of a table a tuple has not joined yet.
const NO_ROW: &[Value] = &[];

impl<'a> Tuples<'a> {
    fn new(width: usize) -> Tuples<'a> {
        Tuples {
            width,
            refs: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.refs.len() / self.width
    }

    fn get(&self, i: usize) -> &[&'a [Value]] {
        &self.refs[i * self.width..(i + 1) * self.width]
    }

    fn iter(&self) -> std::slice::ChunksExact<'_, &'a [Value]> {
        self.refs.chunks_exact(self.width)
    }

    /// Append `base` with slot `t` set to `row`, kept only if every filter
    /// holds on the result; `true` when it was kept.
    fn push(
        &mut self,
        base: &[&'a [Value]],
        t: usize,
        row: &'a [Value],
        filters: &[&Scalar],
    ) -> Result<bool> {
        let start = self.refs.len();
        self.refs.extend_from_slice(base);
        self.refs[start + t] = row;
        for f in filters {
            if !f.holds(&self.refs[start..])? {
                self.refs.truncate(start);
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Drop the last tuple.
    fn pop(&mut self) {
        self.refs.truncate(self.refs.len() - self.width);
    }

    /// Keep the tuples `keep` accepts, in order.
    fn retain(&mut self, mut keep: impl FnMut(&[&'a [Value]]) -> Result<bool>) -> Result<()> {
        let w = self.width;
        let mut kept = 0;
        for i in 0..self.len() {
            if keep(&self.refs[i * w..(i + 1) * w])? {
                self.refs.copy_within(i * w..(i + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.refs.truncate(kept * w);
        Ok(())
    }
}

/// Execute the plan's steps, returning the joined tuples in the order the
/// last step produced them. The first step's access keeps only `window` of
/// its rows; a caller passes anything but [`Window::ALL`] only for a
/// single-table plan.
fn join<'a>(
    plan: &Plan,
    from: &BoundFrom<'a>,
    filters: &[Scalar],
    classified: &[Vec<usize>],
    params: Params<'_>,
    window: Window,
) -> Result<Tuples<'a>> {
    let width = from.width();
    if from.tables.is_empty() {
        // SELECT without FROM: one empty tuple.
        return Ok(Tuples {
            width,
            refs: vec![NO_ROW],
        });
    }
    let mut applied: Vec<bool> = classified.iter().map(|tabs| tabs.is_empty()).collect();
    let mut joined: Vec<usize> = Vec::with_capacity(plan.steps.len());
    let mut tuples = Tuples::new(width);

    for step in &plan.steps {
        let t = step.t;
        let own: Vec<&Scalar> = (0..filters.len())
            .filter(|&i| !applied[i] && classified[i] == [t])
            .map(|i| &filters[i])
            .collect();
        let table = from.tables[t];
        tuples = match &step.join {
            JoinKind::IndexNested { outer, target } => {
                let key = from.scope.bind(outer, params)?;
                index_join(&tuples, &key, table, t, *target, &own)?
            }
            kind => {
                let cut = match kind {
                    JoinKind::First => window,
                    _ => Window::ALL,
                };
                let rows = access(table, t, width, &step.access, &own, params, cut)?;
                match kind {
                    JoinKind::First => rows,
                    JoinKind::Cross => cross_join(&tuples, &rows, t)?,
                    JoinKind::Hash { outer, inner } => {
                        let bind = |keys: &[Expr]| -> Result<Vec<Scalar>> {
                            keys.iter().map(|k| from.scope.bind(k, params)).collect()
                        };
                        hash_join(&tuples, &rows, t, &bind(outer)?, &bind(inner)?)?
                    }
                    JoinKind::IndexNested { .. } => unreachable!(),
                }
            }
        };

        for (i, tabs) in classified.iter().enumerate() {
            if tabs.len() == 1 && tabs[0] == t {
                applied[i] = true;
            }
        }
        for &i in &step.join_conjuncts {
            applied[i] = true;
        }
        joined.push(t);

        // Residual conjuncts that became fully evaluable with this step.
        let residual: Vec<usize> = (0..filters.len())
            .filter(|&i| !applied[i] && classified[i].iter().all(|x| joined.contains(x)))
            .collect();
        if !residual.is_empty() {
            tuples.retain(|tuple| {
                for &i in &residual {
                    if !filters[i].holds(tuple)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            })?;
            for &i in &residual {
                applied[i] = true;
            }
        }
    }

    debug_assert!(applied.iter().all(|a| *a), "unapplied conjunct after join");
    Ok(tuples)
}

/// One table's rows through the planned access path, as single-table
/// tuples, each tested against the table's own filters; of the rows that
/// pass, only `window`'s are kept, and the walk stops at its end.
fn access<'a>(
    table: &'a TableData,
    t: usize,
    width: usize,
    access: &Access,
    filters: &[&Scalar],
    params: Params<'_>,
    window: Window,
) -> Result<Tuples<'a>> {
    let base = vec![NO_ROW; width];
    let mut out = Tuples::new(width);
    if window.take == 0 {
        return Ok(out);
    }
    // With no filter, a row-id scan's first `skip` rows are the ones to
    // pass over, and the row map skips them in one descent.
    let (start, mut skip) = match access {
        Access::Scan if filters.is_empty() => (window.skip, 0),
        _ => (0, window.skip),
    };
    walk(table, access, start, params, |_, row| {
        if out.push(&base, t, row, filters)? && skip > 0 {
            skip -= 1;
            out.pop();
        }
        Ok(out.len() < window.take)
    })?;
    Ok(out)
}

/// The one access walker: hand each row the access path reaches, with its
/// id, to `visit`, until `visit` returns `false`. A row-id scan starts at
/// row `start` and visits row-id order; index paths visit index-key order.
fn walk<'a>(
    table: &'a TableData,
    access: &Access,
    start: usize,
    params: Params<'_>,
    mut visit: impl FnMut(RowId, &'a [Value]) -> Result<bool>,
) -> Result<()> {
    let index_dtype = |pos: usize| table.def.schema.columns[table.def.indexes[pos].column].dtype;
    // The ids the access path reaches, and whether it walks them backwards.
    let (mut ids, desc): (Box<dyn DoubleEndedIterator<Item = RowId> + '_>, bool) = match access {
        Access::Scan => {
            for (&id, row) in table.rows.iter_from(start) {
                if !visit(id, row)? {
                    break;
                }
            }
            return Ok(());
        }
        Access::PkPoint { key } => {
            let mut k = Vec::with_capacity(key.len());
            for (e, &col) in key.iter().zip(&table.def.primary_key) {
                // Coerced to the key column's type so the index
                // comparison is exact (e.g. `k = 5` against a FLOAT key).
                let v = eval_const(e, params)?;
                let dtype = table.def.schema.columns[col].dtype;
                k.push(v.coerce_to(dtype).unwrap_or(v));
            }
            // One row at most: visited here, with no iterator to box.
            if let Some(id) = table.row_id_by_key(&k) {
                visit(id, &table.rows[&id])?;
            }
            return Ok(());
        }
        Access::SecEq { pos, values } => {
            let mut distinct: Vec<Value> = Vec::new();
            for vexpr in values {
                // `col = NULL` matches nothing.
                match probe_const(vexpr, index_dtype(*pos), params)? {
                    Some(v) if !distinct.contains(&v) => distinct.push(v),
                    _ => {}
                }
            }
            let map = &table.sec[*pos];
            (
                Box::new(distinct.into_iter().flat_map(move |v| map.get(&v))),
                false,
            )
        }
        Access::SecRange { pos, lo, hi, desc } => {
            let dtype = index_dtype(*pos);
            let bound = |b: &Option<(Expr, bool)>| -> Result<Option<Option<(Value, bool)>>> {
                Ok(match b {
                    // A NULL bound empties the range.
                    Some((e, inc)) => probe_const(e, dtype, params)?.map(|v| Some((v, *inc))),
                    None => Some(None),
                })
            };
            let (Some(lo_v), Some(hi_v)) = (bound(lo)?, bound(hi)?) else {
                return Ok(());
            };
            let (lo_b, hi_b) = key_bounds(lo_v.as_ref(), hi_v.as_ref());
            (Box::new(table.sec[*pos].range(lo_b, hi_b)), *desc)
        }
        Access::SecOrder { pos, desc } => {
            let all = table.sec[*pos].range(Bound::Unbounded, Bound::Unbounded);
            (Box::new(all), *desc)
        }
        Access::PkOrder { desc } => (Box::new(table.pk_index.values().copied()), *desc),
    };
    while let Some(id) = if desc { ids.next_back() } else { ids.next() } {
        if !visit(id, &table.rows[&id])? {
            break;
        }
    }
    Ok(())
}

/// Index nested-loop join: for each outer tuple, evaluate the outer key and
/// probe the inner table's index directly. Inner-table filters apply to
/// each probed candidate; NULL outer keys never match.
fn index_join<'a>(
    outer: &Tuples<'a>,
    key: &Scalar,
    inner: &'a TableData,
    t: usize,
    target: ProbeTarget,
    filters: &[&Scalar],
) -> Result<Tuples<'a>> {
    let key_col = match target {
        ProbeTarget::Pk => inner.def.primary_key[0],
        ProbeTarget::Sec(pos) => inner.def.indexes[pos].column,
    };
    let dtype = inner.def.schema.columns[key_col].dtype;
    let mut out = Tuples::new(outer.width);
    for o in outer.iter() {
        let v = key.eval(o)?;
        if v.is_null() {
            continue;
        }
        let v = if v.data_type() == Some(dtype) {
            v
        } else {
            v.coerce_to(dtype).map_or(v, Cow::Owned)
        };
        match target {
            ProbeTarget::Pk => {
                if let Some(id) = inner.row_id_by_key(std::slice::from_ref(&*v)) {
                    out.push(o, t, &inner.rows[&id], filters)?;
                }
            }
            ProbeTarget::Sec(pos) => {
                for id in inner.sec[pos].get(&v) {
                    out.push(o, t, &inner.rows[&id], filters)?;
                }
            }
        }
    }
    Ok(out)
}

/// Cartesian product, outer-major.
fn cross_join<'a>(outer: &Tuples<'a>, inner: &Tuples<'a>, t: usize) -> Result<Tuples<'a>> {
    let mut out = Tuples::new(outer.width);
    for o in outer.iter() {
        for i in inner.iter() {
            out.push(o, t, i[t], &[])?;
        }
    }
    Ok(out)
}

/// Hash join: build on the (already-filtered) inner tuples, probe with the
/// outer ones, emitting in probe order. NULL keys on either side never
/// match; keys match by value identity (same type, same bits), not by `=`.
fn hash_join<'a>(
    outer: &Tuples<'a>,
    inner: &Tuples<'a>,
    t: usize,
    outer_keys: &[Scalar],
    inner_keys: &[Scalar],
) -> Result<Tuples<'a>> {
    let mut table: HashMap<Vec<Cow<Value>>, Vec<&'a [Value]>> = HashMap::with_capacity(inner.len());
    for i in inner.iter() {
        if let Some(key) = join_key(inner_keys, i)? {
            table.entry(key).or_default().push(i[t]);
        }
    }
    let mut out = Tuples::new(outer.width);
    for o in outer.iter() {
        if let Some(matches) = join_key(outer_keys, o)?.and_then(|k| table.get(&k)) {
            for &row in matches {
                out.push(o, t, row, &[])?;
            }
        }
    }
    Ok(out)
}

/// Evaluate a join key over `tuple`; `None` when any part is NULL.
fn join_key<'k>(keys: &'k [Scalar], tuple: &[&'k [Value]]) -> Result<Option<Vec<Cow<'k, Value>>>> {
    let mut out = Vec::with_capacity(keys.len());
    for k in keys {
        let v = k.eval(tuple)?;
        if v.is_null() {
            return Ok(None);
        }
        out.push(v);
    }
    Ok(Some(out))
}

// ---------------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------------

/// The fixed schema of EXPLAIN output.
pub fn explain_schema() -> Schema {
    Schema::new(vec![
        Column::new("step", DataType::Int).not_null(),
        Column::new("table", DataType::Text).not_null(),
        Column::new("join", DataType::Text).not_null(),
        Column::new("access", DataType::Text).not_null(),
        Column::new("index", DataType::Text),
        Column::new("est_rows", DataType::Int).not_null(),
    ])
}

fn explain_row(
    step: i64,
    table: &str,
    join: &str,
    access: &str,
    index: Option<&str>,
    est: i64,
) -> Row {
    vec![
        Value::Int(step),
        Value::Text(table.to_string()),
        Value::Text(join.to_string()),
        Value::Text(access.to_string()),
        index.map_or(Value::Null, |s| Value::Text(s.to_string())),
        Value::Int(est),
    ]
}

/// Explain a statement: the plan the engine would execute, one row per
/// step, returned as an ordinary result set.
pub fn explain_statement(
    stmt: &Statement,
    catalog: &dyn Catalog,
    params: Params<'_>,
) -> Result<ResultSet> {
    match stmt {
        Statement::Explain(inner) => explain_statement(inner, catalog, params),
        Statement::Select(s) => explain_select(s, catalog, params),
        Statement::Insert(i) => {
            catalog.table(&i.table)?;
            let est = match &i.source {
                InsertSource::Values(v) => v.len() as i64,
                InsertSource::Select(_) => 0,
            };
            let row = explain_row(1, &i.table.canonical(), "-", "insert", None, est);
            Ok(ResultSet {
                schema: explain_schema(),
                rows: vec![row],
            })
        }
        Statement::Update(UpdateStmt {
            table,
            where_clause: w,
            ..
        })
        | Statement::Delete(DeleteStmt {
            table,
            where_clause: w,
        }) => explain_select(&dml_select(table, w.as_ref()), catalog, params),
        _ => Err(EngineError::unsupported(
            "EXPLAIN supports SELECT, INSERT, UPDATE and DELETE",
        )),
    }
}

fn explain_select(
    select: &SelectStmt,
    catalog: &dyn Catalog,
    params: Params<'_>,
) -> Result<ResultSet> {
    let bound = bind_from(select, catalog)?;
    // Surface the same binding errors the query itself would.
    output_schema(&expand_projections(select, &bound)?, &bound)?;
    let conjuncts = split_conjuncts(select.where_clause.as_ref());
    let mut classified = Vec::with_capacity(conjuncts.len());
    for c in &conjuncts {
        classified.push(tables_of_expr(c, &bound)?);
    }
    let plan = build_plan(select, &bound, &conjuncts, &classified, params)?;

    let mut rows = Vec::new();
    for (i, step) in plan.steps.iter().enumerate() {
        let def = &bound.tables[step.t].def;
        let (join, probe_index) = match &step.join {
            JoinKind::First => ("-", None),
            JoinKind::Hash { .. } => ("hash", None),
            JoinKind::Cross => ("cross", None),
            JoinKind::IndexNested { target, .. } => (
                "index-nested",
                Some(match target {
                    ProbeTarget::Pk => "pk".to_string(),
                    ProbeTarget::Sec(pos) => def.indexes[*pos].name.clone(),
                }),
            ),
        };
        let (access, index) = if probe_index.is_some() {
            ("probe".to_string(), probe_index)
        } else {
            match &step.access {
                Access::Scan => ("scan".to_string(), None),
                Access::PkPoint { .. } => ("pk-point".to_string(), Some("pk".to_string())),
                Access::SecEq { pos, .. } => {
                    ("index-eq".to_string(), Some(def.indexes[*pos].name.clone()))
                }
                Access::SecRange { pos, desc, .. } => (
                    if *desc {
                        "index-range-desc"
                    } else {
                        "index-range"
                    }
                    .to_string(),
                    Some(def.indexes[*pos].name.clone()),
                ),
                Access::SecOrder { pos, desc } => (
                    if *desc {
                        "index-order-desc"
                    } else {
                        "index-order"
                    }
                    .to_string(),
                    Some(def.indexes[*pos].name.clone()),
                ),
                Access::PkOrder { desc } => (
                    if *desc { "pk-order-desc" } else { "pk-order" }.to_string(),
                    Some("pk".to_string()),
                ),
            }
        };
        rows.push(explain_row(
            (i + 1) as i64,
            &def.name,
            join,
            &access,
            index.as_deref(),
            step.est as i64,
        ));
    }
    if plan.steps.is_empty() {
        rows.push(explain_row(1, "", "-", "const", None, 1));
    }
    if !select.order_by.is_empty() {
        let how = if plan.presorted {
            "order-by-index"
        } else {
            "order-by-sort"
        };
        let est = plan.steps.last().map_or(0, |s| s.est as i64);
        rows.push(explain_row(
            (plan.steps.len() + 1) as i64,
            "",
            "-",
            how,
            None,
            est,
        ));
    }
    Ok(ResultSet {
        schema: explain_schema(),
        rows,
    })
}

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

struct BoundFrom<'a> {
    /// Borrowed table data, in FROM order — scans never copy table storage.
    tables: Vec<&'a TableData>,
    /// The tables' columns; table `t` is slot `t` of every tuple.
    scope: Scope,
}

impl BoundFrom<'_> {
    /// Tuple width: one slot per table (one empty slot without FROM).
    fn width(&self) -> usize {
        self.tables.len().max(1)
    }
}

fn bind_from<'a>(select: &SelectStmt, catalog: &'a dyn Catalog) -> Result<BoundFrom<'a>> {
    let mut tables = Vec::with_capacity(select.from.len());
    let mut scope = Scope::default();
    for item in &select.from {
        let data = catalog.table(&item.table)?;
        let qualifier = item.alias.as_deref().unwrap_or(&item.table.name);
        scope.push_table(qualifier, &data.def.schema);
        tables.push(data);
    }
    Ok(BoundFrom { tables, scope })
}

/// One output column of a SELECT: its expression and name, and, for a
/// column a `*` expanded, the `(table, column)` slot it reads. A slot binds
/// by position, so a table whose columns share a name (the capture of
/// `SELECT a.id, b.id …`) reads back whole.
struct Projection {
    expr: Expr,
    name: String,
    slot: Option<(usize, usize)>,
}

/// Expand the projection list into concrete expressions with output names.
fn expand_projections(select: &SelectStmt, bound: &BoundFrom) -> Result<Vec<Projection>> {
    let mut out = Vec::new();
    let wildcard = |out: &mut Vec<Projection>, qualifier: Option<&str>| {
        let before = out.len();
        for t in 0..bound.tables.len() {
            for (c, col) in bound.scope.table_columns(t).iter().enumerate() {
                if qualifier.is_some_and(|q| !col.qualifier.eq_ignore_ascii_case(q)) {
                    continue;
                }
                out.push(Projection {
                    expr: Expr::Column {
                        table: Some(col.qualifier.clone()),
                        name: col.name.clone(),
                    },
                    name: col.name.clone(),
                    slot: Some((t, c)),
                });
            }
        }
        out.len() > before
    };
    for item in &select.projections {
        match item {
            SelectItem::Wildcard => {
                if !wildcard(&mut out, None) {
                    return Err(EngineError::column("SELECT * with no FROM clause"));
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                if !wildcard(&mut out, Some(q)) {
                    return Err(EngineError::column(format!("unknown table alias '{q}'")));
                }
            }
            SelectItem::Expr { expr, alias } => out.push(Projection {
                name: alias.clone().unwrap_or_else(|| output_name(expr)),
                expr: expr.clone(),
                slot: None,
            }),
        }
    }
    Ok(out)
}

fn output_schema(projections: &[Projection], bound: &BoundFrom) -> Result<Schema> {
    let mut cols = Vec::with_capacity(projections.len());
    for p in projections {
        let (dtype, nullable) = match p.slot {
            Some((t, c)) => {
                let col = &bound.scope.table_columns(t)[c];
                (col.dtype, col.nullable)
            }
            None => infer_type(&p.expr, &bound.scope)?,
        };
        cols.push(Column {
            name: p.name.clone(),
            dtype,
            nullable,
        });
    }
    Ok(Schema::new(cols))
}

/// Is `e` a bare reference to the column `name` of this table?
fn is_column_named(e: &Expr, name: &str, cols: &[BoundColumn]) -> bool {
    match e {
        Expr::Column { table, name: n } if n.eq_ignore_ascii_case(name) => match table {
            None => true,
            Some(q) => cols.iter().any(|c| c.qualifier.eq_ignore_ascii_case(q)),
        },
        Expr::Nested(inner) => is_column_named(inner, name, cols),
        _ => false,
    }
}

/// Constant expression: literals and parameters only (no column refs).
fn is_constant(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) | Expr::Param(_) => true,
        Expr::Nested(inner) => is_constant(inner),
        Expr::Unary { expr, .. } => is_constant(expr),
        Expr::Binary { left, right, .. } => is_constant(left) && is_constant(right),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Conjunct analysis
// ---------------------------------------------------------------------------

/// Split an optional predicate into top-level AND conjuncts.
pub fn split_conjuncts(pred: Option<&Expr>) -> Vec<Expr> {
    let mut out = Vec::new();
    fn walk(e: &Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::Binary {
                left,
                op: phoenix_sql::ast::BinaryOp::And,
                right,
            } => {
                walk(left, out);
                walk(right, out);
            }
            Expr::Nested(inner) => walk(inner, out),
            other => out.push(other.clone()),
        }
    }
    if let Some(p) = pred {
        walk(p, &mut out);
    }
    out
}

/// Which FROM tables does this expression reference? Sorted, deduplicated.
fn tables_of_expr(expr: &Expr, bound: &BoundFrom) -> Result<Vec<usize>> {
    let mut tables = Vec::new();
    collect_tables(expr, bound, &mut tables)?;
    tables.sort_unstable();
    tables.dedup();
    Ok(tables)
}

fn collect_tables(expr: &Expr, bound: &BoundFrom, out: &mut Vec<usize>) -> Result<()> {
    match expr {
        Expr::Column { table, name } => {
            out.push(bound.scope.resolve(table.as_deref(), name)?.0);
            Ok(())
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Nested(expr) => {
            collect_tables(expr, bound, out)
        }
        Expr::Binary { left, right, .. } => {
            collect_tables(left, bound, out)?;
            collect_tables(right, bound, out)
        }
        Expr::Function { args, .. } => {
            for a in args {
                if !matches!(a, Expr::Wildcard) {
                    collect_tables(a, bound, out)?;
                }
            }
            Ok(())
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, v) in branches {
                collect_tables(c, bound, out)?;
                collect_tables(v, bound, out)?;
            }
            if let Some(e) = else_expr {
                collect_tables(e, bound, out)?;
            }
            Ok(())
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_tables(expr, bound, out)?;
            collect_tables(low, bound, out)?;
            collect_tables(high, bound, out)
        }
        Expr::InList { expr, list, .. } => {
            collect_tables(expr, bound, out)?;
            for e in list {
                collect_tables(e, bound, out)?;
            }
            Ok(())
        }
        Expr::Like { expr, pattern, .. } => {
            collect_tables(expr, bound, out)?;
            collect_tables(pattern, bound, out)
        }
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Aggregation / projection / ordering
// ---------------------------------------------------------------------------

/// Collect the distinct aggregate expressions appearing anywhere in the
/// statement's output positions, keyed by rendered text.
fn collect_aggregates(select: &SelectStmt) -> Vec<Expr> {
    let mut seen: Vec<Expr> = Vec::new();
    let mut push = |e: &Expr| {
        let key = render_expr(e);
        if !seen.iter().any(|s| render_expr(s) == key) {
            seen.push(e.clone());
        }
    };
    fn walk(e: &Expr, push: &mut dyn FnMut(&Expr)) {
        match e {
            Expr::Function { name, .. } if is_aggregate(name) => push(e),
            Expr::Function { args, .. } => args.iter().for_each(|a| walk(a, push)),
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Nested(expr) => {
                walk(expr, push)
            }
            Expr::Binary { left, right, .. } => {
                walk(left, push);
                walk(right, push);
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, v) in branches {
                    walk(c, push);
                    walk(v, push);
                }
                if let Some(x) = else_expr {
                    walk(x, push);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                walk(expr, push);
                walk(low, push);
                walk(high, push);
            }
            Expr::InList { expr, list, .. } => {
                walk(expr, push);
                list.iter().for_each(|x| walk(x, push));
            }
            Expr::Like { expr, pattern, .. } => {
                walk(expr, push);
                walk(pattern, push);
            }
            _ => {}
        }
    }
    for item in &select.projections {
        if let SelectItem::Expr { expr, .. } = item {
            walk(expr, &mut push);
        }
    }
    if let Some(h) = &select.having {
        walk(h, &mut push);
    }
    for o in &select.order_by {
        walk(&o.expr, &mut push);
    }
    seen
}

/// The output side of a SELECT, bound once: projections, grouping, HAVING,
/// ORDER BY, DISTINCT and OFFSET/LIMIT.
struct Output {
    projections: Vec<Scalar>,
    grouping: Option<Grouping>,
    /// ORDER BY keys, each with its "descending" flag.
    order: Vec<(SortKey, bool)>,
    distinct: bool,
    window: Window,
}

/// OFFSET/LIMIT as counts: the rows to pass over, then the most to keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    skip: usize,
    take: usize,
}

impl Window {
    /// Every row.
    const ALL: Window = Window {
        skip: 0,
        take: usize::MAX,
    };
}

/// GROUP BY keys and aggregates, bound against the FROM scope. The
/// projections, HAVING and ORDER BY bind against the group tuples these
/// produce (see [`crate::eval::GROUP_KEYS`]).
struct Grouping {
    keys: Vec<Scalar>,
    aggs: Vec<Aggregate>,
    having: Option<Scalar>,
}

/// One ORDER BY key.
enum SortKey {
    /// An output column: an ordinal, an alias, or the projection's own text.
    Output(usize),
    /// Anything else, evaluated over the output row's tuple or group.
    Eval(Scalar),
}

/// One group after aggregation.
struct GroupRow {
    keys: Vec<Value>,
    aggs: Vec<Value>,
    /// Index of the group's first tuple; `None` for the one group a global
    /// aggregate forms over empty input.
    first: Option<usize>,
}

impl Output {
    fn bind(
        select: &SelectStmt,
        from: &BoundFrom,
        projections: &[Projection],
        params: Params<'_>,
    ) -> Result<Output> {
        let aggregates = collect_aggregates(select);
        let grouped = !select.group_by.is_empty() || !aggregates.is_empty();
        let key_texts: Vec<String> = select.group_by.iter().map(render_expr).collect();
        let agg_texts: Vec<String> = aggregates.iter().map(render_expr).collect();
        let bind = |e: &Expr| {
            if grouped {
                from.scope.bind_grouped(e, params, &key_texts, &agg_texts)
            } else {
                from.scope.bind(e, params)
            }
        };
        let grouping = if grouped {
            Some(Grouping {
                keys: select
                    .group_by
                    .iter()
                    .map(|g| from.scope.bind(g, params))
                    .collect::<Result<_>>()?,
                aggs: aggregates
                    .iter()
                    .map(|a| Aggregate::bind(a, &from.scope, params))
                    .collect::<Result<_>>()?,
                having: select.having.as_ref().map(bind).transpose()?,
            })
        } else {
            None
        };
        let mut order = Vec::with_capacity(select.order_by.len());
        for item in &select.order_by {
            order.push((sort_key(&item.expr, projections, bind)?, item.desc));
        }
        Ok(Output {
            projections: projections
                .iter()
                .map(|p| match p.slot {
                    Some((t, c)) => Ok(Scalar::Col(if grouped { GROUP_ROWS } else { 0 } + t, c)),
                    None => bind(&p.expr),
                })
                .collect::<Result<_>>()?,
            grouping,
            order,
            distinct: select.distinct,
            window: Window {
                skip: select.offset.map_or(0, |o| o as usize),
                take: select.limit.map_or(usize::MAX, |l| l as usize),
            },
        })
    }

    /// Does the window apply to the tuples as they stream, i.e. does no
    /// output step (grouping, DISTINCT, a sort) need the whole input?
    fn streams(&self, presorted: bool) -> bool {
        self.grouping.is_none() && !self.distinct && (self.order.is_empty() || presorted)
    }

    /// The output rows for the joined `tuples`, in delivery order.
    fn rows(&self, tuples: &Tuples<'_>, from: &BoundFrom, shape: Shape) -> Result<Vec<Row>> {
        let presorted = shape.presorted;
        let streams = self.streams(presorted);
        let project = |tuple: &[&[Value]]| -> Result<Row> {
            self.projections
                .iter()
                .map(|p| Ok(p.eval(tuple)?.into_owned()))
                .collect()
        };
        // Each output row beside the tuple (or group) it came from, for
        // ORDER BY keys that are not output columns.
        let mut out: Vec<(Row, usize)> = Vec::new();
        let mut groups = Vec::new();
        let mut nulls = Vec::new();
        match &self.grouping {
            None => {
                // Streaming, only the window's tuples are projected (all of
                // them when the access cut them already).
                let window = if streams && !shape.cut {
                    self.window
                } else {
                    Window::ALL
                };
                out.reserve(tuples.len().saturating_sub(window.skip).min(window.take));
                for (i, tuple) in tuples
                    .iter()
                    .enumerate()
                    .skip(window.skip)
                    .take(window.take)
                {
                    out.push((project(tuple)?, i));
                }
            }
            Some(g) => {
                groups = g.aggregate(tuples)?;
                if groups.iter().any(|gr| gr.first.is_none()) {
                    nulls = from
                        .tables
                        .iter()
                        .map(|t| vec![Value::Null; t.def.schema.len()])
                        .collect();
                }
                for (i, gr) in groups.iter().enumerate() {
                    let tuple = group_tuple(gr, tuples, &nulls, from.tables.len());
                    if let Some(h) = &g.having {
                        if !h.holds(&tuple)? {
                            continue;
                        }
                    }
                    out.push((project(&tuple)?, i));
                }
            }
        }

        // SELECT DISTINCT: deduplicate output rows, first occurrence wins
        // (before ordering, as SQL defines — DISTINCT is a property of the
        // result set).
        if self.distinct {
            let mut seen = HashSet::new();
            let keep: Vec<bool> = out.iter().map(|(row, _)| seen.insert(row)).collect();
            let mut keep = keep.into_iter();
            out.retain(|_| keep.next().unwrap_or(false));
        }

        // ORDER BY — skipped when the access path already delivered the rows
        // in the requested order.
        let mut rows: Vec<Row> = if !self.order.is_empty() && !presorted {
            let mut keyed = Vec::with_capacity(out.len());
            for (row, src) in out {
                let mut keys = Vec::with_capacity(self.order.len());
                for (key, _) in &self.order {
                    keys.push(match key {
                        SortKey::Output(i) => row[*i].clone(),
                        SortKey::Eval(e) => match self.grouping {
                            None => e.eval(tuples.get(src))?.into_owned(),
                            Some(_) => {
                                let tuple =
                                    group_tuple(&groups[src], tuples, &nulls, from.tables.len());
                                e.eval(&tuple)?.into_owned()
                            }
                        },
                    });
                }
                keyed.push((keys, row));
            }
            keyed.sort_by(|a, b| {
                for (i, (_, desc)) in self.order.iter().enumerate() {
                    let ord = a.0[i].cmp(&b.0[i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            keyed.into_iter().map(|(_, r)| r).collect()
        } else {
            out.into_iter().map(|(r, _)| r).collect()
        };

        if !streams {
            rows.drain(..rows.len().min(self.window.skip));
            rows.truncate(self.window.take);
        }
        Ok(rows)
    }
}

impl Grouping {
    /// Stream the tuples into groups, in order of first occurrence, folding
    /// every aggregate as each tuple passes. Group identity is value
    /// identity (same type, same bits) over the borrowed key values.
    fn aggregate(&self, tuples: &Tuples<'_>) -> Result<Vec<GroupRow>> {
        struct Group<'a> {
            keys: Vec<Cow<'a, Value>>,
            accs: Vec<Acc<'a>>,
            first: usize,
        }
        let mut groups: Vec<Group> = Vec::new();
        let mut index: HashMap<Vec<Cow<Value>>, usize> = HashMap::new();
        let mut key = Vec::with_capacity(self.keys.len());
        for (i, tuple) in tuples.iter().enumerate() {
            key.clear();
            for k in &self.keys {
                key.push(k.eval(tuple)?);
            }
            let g = match index.get(key.as_slice()) {
                Some(&g) => g,
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push(Group {
                        keys: key.clone(),
                        accs: self.aggs.iter().map(Aggregate::start).collect(),
                        first: i,
                    });
                    groups.len() - 1
                }
            };
            for (acc, agg) in groups[g].accs.iter_mut().zip(&self.aggs) {
                acc.add(agg, tuple)?;
            }
        }

        let mut out = Vec::with_capacity(groups.len().max(1));
        // A global aggregate over zero rows still yields one group.
        if groups.is_empty() && self.keys.is_empty() {
            out.push(GroupRow {
                keys: Vec::new(),
                aggs: self
                    .aggs
                    .iter()
                    .map(|a| a.start().finish(a))
                    .collect::<Result<_>>()?,
                first: None,
            });
        }
        for g in groups {
            out.push(GroupRow {
                keys: g.keys.into_iter().map(Cow::into_owned).collect(),
                aggs: g
                    .accs
                    .into_iter()
                    .zip(&self.aggs)
                    .map(|(acc, agg)| acc.finish(agg))
                    .collect::<Result<_>>()?,
                first: Some(g.first),
            });
        }
        Ok(out)
    }
}

/// A group's tuple: its keys, its aggregates, then its first row of each
/// FROM table — or a row of NULLs for the group of an empty input, so a
/// column outside the group key reads NULL there.
fn group_tuple<'g>(
    g: &'g GroupRow,
    tuples: &'g Tuples<'g>,
    nulls: &'g [Row],
    ntables: usize,
) -> Vec<&'g [Value]> {
    let mut t: Vec<&[Value]> = Vec::with_capacity(GROUP_ROWS + ntables);
    t.push(&g.keys);
    t.push(&g.aggs);
    match g.first {
        Some(i) => t.extend_from_slice(&tuples.get(i)[..ntables]),
        None => t.extend(nulls.iter().map(Vec::as_slice)),
    }
    t
}

/// Bind one ORDER BY item: an ordinal, an alias or an exact projection
/// match names an output column; anything else is evaluated.
fn sort_key(
    expr: &Expr,
    projections: &[Projection],
    bind: impl Fn(&Expr) -> Result<Scalar>,
) -> Result<SortKey> {
    // Ordinal reference: ORDER BY 2.
    if let Expr::Literal(Literal::Int(n)) = expr {
        let i = *n as usize;
        if i >= 1 && i <= projections.len() {
            return Ok(SortKey::Output(i - 1));
        }
        return Err(EngineError::column(format!(
            "ORDER BY position {n} out of range"
        )));
    }
    let key = render_expr(expr);
    for (i, p) in projections.iter().enumerate() {
        let alias_match = matches!(expr, Expr::Column { table: None, name } if name.eq_ignore_ascii_case(&p.name));
        if alias_match || render_expr(&p.expr) == key {
            return Ok(SortKey::Output(i));
        }
    }
    bind(expr).map(SortKey::Eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_sql::parser::parse_statement;
    use phoenix_sql::Statement;
    use phoenix_storage::store::Store;
    use phoenix_storage::types::{DataType, TableDef};

    struct TestCatalog {
        store: Store,
    }

    impl Catalog for TestCatalog {
        fn table(&self, name: &ObjectName) -> Result<&TableData> {
            self.store
                .table(&name.canonical())
                .map_err(|e| EngineError::new(ErrorCode::NotFound, e.to_string()))
        }
    }

    fn catalog() -> TestCatalog {
        let mut store = Store::new();
        store
            .create_table(
                TableDef::new(
                    "dbo.customer",
                    Schema::new(vec![
                        Column::new("id", DataType::Int).not_null(),
                        Column::new("name", DataType::Text),
                        Column::new("nation", DataType::Int),
                    ]),
                )
                .with_primary_key(vec![0]),
            )
            .unwrap();
        store
            .create_table(
                TableDef::new(
                    "dbo.orders",
                    Schema::new(vec![
                        Column::new("okey", DataType::Int).not_null(),
                        Column::new("cust_id", DataType::Int),
                        Column::new("total", DataType::Float),
                        Column::new("status", DataType::Text),
                    ]),
                )
                .with_primary_key(vec![0]),
            )
            .unwrap();
        {
            let c = store.table_mut("dbo.customer").unwrap();
            for (id, name, nation) in [(1, "Smith", 10), (2, "Jones", 10), (3, "Smith", 20)] {
                c.insert(vec![
                    Value::Int(id),
                    Value::Text(name.into()),
                    Value::Int(nation),
                ])
                .unwrap();
            }
        }
        {
            let o = store.table_mut("dbo.orders").unwrap();
            for (okey, cid, total, status) in [
                (100, 1, 10.0, "O"),
                (101, 1, 20.0, "F"),
                (102, 2, 30.0, "O"),
                (103, 3, 40.0, "F"),
                (104, 3, 50.0, "F"),
            ] {
                o.insert(vec![
                    Value::Int(okey),
                    Value::Int(cid),
                    Value::Float(total),
                    Value::Text(status.into()),
                ])
                .unwrap();
            }
        }
        TestCatalog { store }
    }

    fn run(sql: &str) -> ResultSet {
        let cat = catalog();
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => execute_select(&s, &cat, Params::NONE).unwrap(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bare_select() {
        let rs = run("SELECT 1 + 1, 'x'");
        assert_eq!(rs.rows, vec![vec![Value::Int(2), Value::Text("x".into())]]);
    }

    #[test]
    fn full_scan_in_insertion_order() {
        let rs = run("SELECT id FROM customer");
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)]
            ]
        );
    }

    #[test]
    fn filter_pushdown() {
        let rs = run("SELECT id FROM customer WHERE name = 'Smith'");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn where_0_eq_1_returns_schema_only() {
        let rs = run("SELECT id, name FROM customer WHERE (name = 'Smith') AND (0 = 1)");
        assert!(rs.rows.is_empty());
        assert_eq!(rs.schema.columns[0].name, "id");
        assert_eq!(rs.schema.columns[0].dtype, DataType::Int);
        assert_eq!(rs.schema.columns[1].dtype, DataType::Text);
    }

    #[test]
    fn hash_join_two_tables() {
        let rs = run("SELECT c.name, o.total FROM customer c, orders o \
             WHERE c.id = o.cust_id AND o.status = 'F' ORDER BY o.total");
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0][0], Value::Text("Smith".into()));
        assert_eq!(rs.rows[2][1], Value::Float(50.0));
    }

    #[test]
    fn explicit_join_syntax() {
        let rs = run(
            "SELECT c.name FROM customer c JOIN orders o ON c.id = o.cust_id WHERE o.total > 35.0",
        );
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn cross_join_when_no_equi() {
        let rs = run("SELECT c.id, o.okey FROM customer c, orders o");
        assert_eq!(rs.rows.len(), 15);
    }

    #[test]
    fn group_by_with_aggregates() {
        let rs = run(
            "SELECT status, COUNT(*) AS n, SUM(total) AS s, AVG(total), MIN(total), MAX(total) \
             FROM orders GROUP BY status ORDER BY status",
        );
        assert_eq!(rs.rows.len(), 2);
        // F: 3 orders totalling 110
        assert_eq!(rs.rows[0][0], Value::Text("F".into()));
        assert_eq!(rs.rows[0][1], Value::Int(3));
        assert_eq!(rs.rows[0][2], Value::Float(110.0));
        // O: 2 orders totalling 40
        assert_eq!(rs.rows[1][1], Value::Int(2));
        assert_eq!(rs.rows[1][2], Value::Float(40.0));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let rs = run("SELECT COUNT(*), SUM(total) FROM orders");
        assert_eq!(rs.rows, vec![vec![Value::Int(5), Value::Float(150.0)]]);
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let rs = run("SELECT COUNT(*), SUM(total) FROM orders WHERE okey > 999");
        assert_eq!(rs.rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn having_filters_groups() {
        let rs = run("SELECT cust_id, COUNT(*) FROM orders GROUP BY cust_id HAVING COUNT(*) >= 2 ORDER BY cust_id");
        assert_eq!(rs.rows.len(), 2); // customers 1 and 3
    }

    #[test]
    fn count_distinct() {
        let rs = run("SELECT COUNT(DISTINCT name) FROM customer");
        assert_eq!(rs.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn order_by_alias_and_ordinal() {
        let rs = run("SELECT id AS k FROM customer ORDER BY k DESC");
        assert_eq!(rs.rows[0], vec![Value::Int(3)]);
        let rs = run("SELECT id, name FROM customer ORDER BY 2, 1 DESC");
        assert_eq!(rs.rows[0], vec![Value::Int(2), Value::Text("Jones".into())]);
    }

    #[test]
    fn order_by_non_projected_column() {
        let rs = run("SELECT name FROM customer ORDER BY id DESC");
        assert_eq!(rs.rows[0], vec![Value::Text("Smith".into())]);
    }

    #[test]
    fn limit_offset() {
        let rs = run("SELECT okey FROM orders ORDER BY okey LIMIT 2 OFFSET 1");
        assert_eq!(rs.rows, vec![vec![Value::Int(101)], vec![Value::Int(102)]]);
        let rs = run("SELECT okey FROM orders OFFSET 3");
        assert_eq!(rs.rows.len(), 2);
        let rs = run("SELECT TOP 1 okey FROM orders");
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn aggregate_in_arithmetic() {
        let rs = run("SELECT SUM(total) / COUNT(*) FROM orders");
        assert_eq!(rs.rows, vec![vec![Value::Float(30.0)]]);
    }

    #[test]
    fn case_with_aggregate_q14_shape() {
        let rs = run(
            "SELECT 100.0 * SUM(CASE WHEN status LIKE 'O%' THEN total ELSE 0.0 END) / SUM(total) FROM orders",
        );
        match &rs.rows[0][0] {
            Value::Float(f) => assert!((f - 26.6667).abs() < 0.01, "{f}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn schema_without_execution() {
        let cat = catalog();
        let s = match parse_statement(
            "SELECT name, SUM(total) AS st FROM customer, orders WHERE id = cust_id GROUP BY name",
        )
        .unwrap()
        {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        let schema = select_schema(&s, &cat).unwrap();
        assert_eq!(schema.columns[0].name, "name");
        assert_eq!(schema.columns[1].name, "st");
        assert_eq!(schema.columns[1].dtype, DataType::Float);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let cat = catalog();
        let s = match parse_statement("SELECT * FROM nope").unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            execute_select(&s, &cat, Params::NONE).unwrap_err().code,
            ErrorCode::NotFound
        );
        let s = match parse_statement("SELECT zzz FROM customer").unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            execute_select(&s, &cat, Params::NONE).unwrap_err().code,
            ErrorCode::Column
        );
    }

    #[test]
    fn three_way_join() {
        // Self-join chain through two tables plus customer again.
        let rs = run(
            "SELECT c.name, o.okey, c2.id FROM customer c, orders o, customer c2 \
             WHERE c.id = o.cust_id AND o.cust_id = c2.id AND c.id = 1 ORDER BY o.okey",
        );
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][2], Value::Int(1));
    }

    #[test]
    fn null_join_keys_do_not_match() {
        let mut cat = catalog();
        cat.store
            .table_mut("dbo.orders")
            .unwrap()
            .insert(vec![
                Value::Int(105),
                Value::Null,
                Value::Float(1.0),
                Value::Text("O".into()),
            ])
            .unwrap();
        let s =
            match parse_statement("SELECT c.id FROM customer c, orders o WHERE c.id = o.cust_id")
                .unwrap()
            {
                Statement::Select(s) => s,
                other => panic!("{other:?}"),
            };
        let rs = execute_select(&s, &cat, Params::NONE).unwrap();
        assert_eq!(rs.rows.len(), 5); // the NULL-keyed order matches nothing
    }
}

#[cfg(test)]
mod point_lookup_tests {
    use super::*;
    use phoenix_sql::parser::parse_statement;
    use phoenix_sql::Statement;
    use phoenix_storage::store::Store;
    use phoenix_storage::types::{DataType, TableDef};

    struct Cat {
        store: Store,
    }

    impl Catalog for Cat {
        fn table(&self, name: &ObjectName) -> Result<&TableData> {
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
                    "dbo.kv",
                    Schema::new(vec![
                        Column::new("k", DataType::Int).not_null(),
                        Column::new("v", DataType::Text),
                    ]),
                )
                .with_primary_key(vec![0]),
            )
            .unwrap();
        let t = store.table_mut("dbo.kv").unwrap();
        for i in 0..1000 {
            t.insert(vec![Value::Int(i), Value::Text(format!("v{i}"))])
                .unwrap();
        }
        // Composite-keyed table.
        store
            .create_table(
                TableDef::new(
                    "dbo.pair",
                    Schema::new(vec![
                        Column::new("a", DataType::Int).not_null(),
                        Column::new("b", DataType::Int).not_null(),
                        Column::new("v", DataType::Int),
                    ]),
                )
                .with_primary_key(vec![0, 1]),
            )
            .unwrap();
        let t = store.table_mut("dbo.pair").unwrap();
        for a in 0..10 {
            for b in 0..10 {
                t.insert(vec![Value::Int(a), Value::Int(b), Value::Int(a * 10 + b)])
                    .unwrap();
            }
        }
        Cat { store }
    }

    fn run(cat: &Cat, sql: &str) -> Vec<Row> {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => execute_select(&s, cat, Params::NONE).unwrap().rows,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn point_lookup_matches_scan_semantics() {
        let c = cat();
        let rows = run(&c, "SELECT v FROM kv WHERE k = 437");
        assert_eq!(rows, vec![vec![Value::Text("v437".into())]]);
        // Missing key → empty, not an error.
        assert!(run(&c, "SELECT v FROM kv WHERE k = 99999").is_empty());
        // Reversed operand order also hits the fast path.
        let rows = run(&c, "SELECT v FROM kv WHERE 42 = k");
        assert_eq!(rows, vec![vec![Value::Text("v42".into())]]);
    }

    #[test]
    fn point_lookup_keeps_residual_predicates() {
        let c = cat();
        // The key matches but the residual predicate does not.
        assert!(run(&c, "SELECT v FROM kv WHERE k = 10 AND v = 'nope'").is_empty());
        let rows = run(&c, "SELECT v FROM kv WHERE k = 10 AND v = 'v10'");
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn composite_key_lookup() {
        let c = cat();
        let rows = run(&c, "SELECT v FROM pair WHERE a = 3 AND b = 7");
        assert_eq!(rows, vec![vec![Value::Int(37)]]);
        // Partial key does NOT take the fast path but must still be correct.
        let rows = run(&c, "SELECT v FROM pair WHERE a = 3");
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn constant_expressions_and_coercion() {
        let c = cat();
        let rows = run(&c, "SELECT v FROM kv WHERE k = 400 + 37");
        assert_eq!(rows, vec![vec![Value::Text("v437".into())]]);
        // Float constant coerces to the INT key.
        let rows = run(&c, "SELECT v FROM kv WHERE k = 437.0");
        assert_eq!(rows, vec![vec![Value::Text("v437".into())]]);
    }

    #[test]
    fn column_equals_column_is_not_a_point_lookup() {
        let c = cat();
        // `k = k` references a column on both sides; must fall back to scan
        // and return everything.
        let rows = run(&c, "SELECT k FROM kv WHERE k = k");
        assert_eq!(rows.len(), 1000);
    }

    /// OFFSET/LIMIT fused into a single-table access builds the window's
    /// `limit` tuples, not `offset + limit`; behind a sort it cannot, and
    /// every tuple is built. The rows are the window either way.
    #[test]
    fn fused_window_builds_only_its_tuples() {
        let c = cat();
        let built = |sql: &str| -> (usize, Vec<Row>) {
            let Statement::Select(s) = parse_statement(sql).unwrap() else {
                panic!("{sql}")
            };
            let from = bind_from(&s, &c).unwrap();
            let projections = expand_projections(&s, &from).unwrap();
            let (output, tuples, shape) =
                select_tuples(&s, &from, &projections, Params::NONE).unwrap();
            let rows = output.rows(&tuples, &from, shape).unwrap();
            (tuples.len(), rows)
        };
        let ks =
            |rows: &[Row]| -> Vec<i64> { rows.iter().map(|r| r[0].as_i64().unwrap()).collect() };
        // A scan with no filter starts at row 900 by the row map's counts.
        let (n, rows) = built("SELECT k FROM kv LIMIT 5 OFFSET 900");
        assert_eq!((n, ks(&rows)), (5, vec![900, 901, 902, 903, 904]));
        // With a filter the scan passes over 300 matches, builds 5.
        let (n, rows) = built("SELECT k FROM kv WHERE k % 2 = 1 LIMIT 5 OFFSET 300");
        assert_eq!((n, ks(&rows)), (5, vec![601, 603, 605, 607, 609]));
        // The pk walk delivers ORDER BY k: still fused.
        let (n, rows) = built("SELECT k FROM kv ORDER BY k DESC LIMIT 3 OFFSET 10");
        assert_eq!((n, ks(&rows)), (3, vec![989, 988, 987]));
        // Past the end, and LIMIT 0: nothing built.
        assert_eq!(built("SELECT k FROM kv OFFSET 1000").0, 0);
        assert_eq!(built("SELECT k FROM kv LIMIT 0 OFFSET 3").0, 0);
        // A sort on a computed key needs the whole input.
        let (n, rows) = built("SELECT k FROM kv ORDER BY 0 - k LIMIT 2 OFFSET 1");
        assert_eq!((n, ks(&rows)), (1000, vec![998, 997]));
        // A join builds its tuples and projects only the window.
        let (n, rows) = built("SELECT a.k FROM kv a, kv b WHERE a.k = b.k LIMIT 2 OFFSET 7");
        assert_eq!((n, ks(&rows)), (1000, vec![7, 8]));
    }
}

#[cfg(test)]
mod distinct_tests {
    use super::*;
    use phoenix_sql::parser::parse_statement;
    use phoenix_sql::Statement;
    use phoenix_storage::store::Store;
    use phoenix_storage::types::{DataType, TableDef};

    struct Cat {
        store: Store,
    }

    impl Catalog for Cat {
        fn table(&self, name: &ObjectName) -> Result<&TableData> {
            self.store
                .table(&name.canonical())
                .map_err(EngineError::from)
        }
    }

    fn cat() -> Cat {
        let mut store = Store::new();
        store
            .create_table(TableDef::new(
                "dbo.dup",
                Schema::new(vec![
                    Column::new("a", DataType::Int),
                    Column::new("b", DataType::Text),
                ]),
            ))
            .unwrap();
        let t = store.table_mut("dbo.dup").unwrap();
        for (a, b) in [(1, "x"), (1, "x"), (2, "x"), (1, "y"), (2, "x")] {
            t.insert(vec![Value::Int(a), Value::Text(b.into())])
                .unwrap();
        }
        Cat { store }
    }

    fn run(cat: &Cat, sql: &str) -> Vec<Row> {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => execute_select(&s, cat, Params::NONE).unwrap().rows,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn distinct_deduplicates_rows() {
        let c = cat();
        let rows = run(&c, "SELECT DISTINCT a, b FROM dup ORDER BY a, b");
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Text("x".into())],
                vec![Value::Int(1), Value::Text("y".into())],
                vec![Value::Int(2), Value::Text("x".into())],
            ]
        );
    }

    #[test]
    fn distinct_single_column() {
        let c = cat();
        let rows = run(&c, "SELECT DISTINCT b FROM dup");
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn distinct_preserves_first_occurrence_order() {
        let c = cat();
        let rows = run(&c, "SELECT DISTINCT a FROM dup");
        assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn distinct_respects_limit() {
        let c = cat();
        let rows = run(&c, "SELECT DISTINCT a, b FROM dup LIMIT 2");
        assert_eq!(rows.len(), 2);
    }
}

#[cfg(test)]
mod index_plan_tests {
    use super::*;
    use phoenix_sql::parser::parse_statement;
    use phoenix_sql::Statement;
    use phoenix_storage::store::Store;
    use phoenix_storage::types::{DataType, TableDef};

    struct Cat {
        store: Store,
    }

    impl Catalog for Cat {
        fn table(&self, name: &ObjectName) -> Result<&TableData> {
            self.store
                .table(&name.canonical())
                .map_err(EngineError::from)
        }
    }

    /// 102 items: ids 0..99 with cat = id % 5 and price = id, plus two
    /// NULL-cat rows priced 1000/1001. Secondary indexes on cat and price.
    fn cat() -> Cat {
        let mut store = Store::new();
        store
            .create_table(
                TableDef::new(
                    "dbo.item",
                    Schema::new(vec![
                        Column::new("id", DataType::Int).not_null(),
                        Column::new("cat", DataType::Int),
                        Column::new("price", DataType::Float),
                    ]),
                )
                .with_primary_key(vec![0]),
            )
            .unwrap();
        store
            .create_table(
                TableDef::new(
                    "dbo.category",
                    Schema::new(vec![
                        Column::new("cid", DataType::Int).not_null(),
                        Column::new("label", DataType::Text),
                    ]),
                )
                .with_primary_key(vec![0]),
            )
            .unwrap();
        {
            let t = store.table_mut("dbo.item").unwrap();
            for i in 0..100i64 {
                t.insert(vec![
                    Value::Int(i),
                    Value::Int(i % 5),
                    Value::Float(i as f64),
                ])
                .unwrap();
            }
            t.insert(vec![Value::Int(100), Value::Null, Value::Float(1000.0)])
                .unwrap();
            t.insert(vec![Value::Int(101), Value::Null, Value::Float(1001.0)])
                .unwrap();
            t.create_index("ix_cat", 1).unwrap();
            t.create_index("ix_price", 2).unwrap();
        }
        {
            let t = store.table_mut("dbo.category").unwrap();
            for (i, l) in ["zero", "one", "two", "three", "four"].iter().enumerate() {
                t.insert(vec![Value::Int(i as i64), Value::Text((*l).into())])
                    .unwrap();
            }
        }
        Cat { store }
    }

    fn run(c: &Cat, sql: &str) -> Vec<Row> {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => execute_select(&s, c, Params::NONE).unwrap().rows,
            other => panic!("{other:?}"),
        }
    }

    fn explain(c: &Cat, sql: &str) -> Vec<Row> {
        let stmt = parse_statement(sql).unwrap();
        explain_statement(&stmt, c, Params::NONE).unwrap().rows
    }

    fn txt(v: &Value) -> String {
        match v {
            Value::Text(t) => t.clone(),
            Value::Null => "<null>".into(),
            other => other.to_string(),
        }
    }

    /// (join, access, index) columns of one EXPLAIN row.
    fn shape(row: &Row) -> (String, String, String) {
        (txt(&row[2]), txt(&row[3]), txt(&row[4]))
    }

    fn ids(rows: &[Row]) -> Vec<i64> {
        rows.iter()
            .map(|r| match &r[0] {
                Value::Int(i) => *i,
                other => panic!("{other:?}"),
            })
            .collect()
    }

    #[test]
    fn equality_probe_matches_scan_semantics() {
        let c = cat();
        let rows = run(&c, "SELECT id FROM item WHERE cat = 3");
        assert_eq!(ids(&rows), (0..20).map(|i| i * 5 + 3).collect::<Vec<_>>());
        let ex = explain(&c, "EXPLAIN SELECT id FROM item WHERE cat = 3");
        assert_eq!(
            shape(&ex[0]),
            ("-".into(), "index-eq".into(), "ix_cat".into())
        );
    }

    #[test]
    fn equality_probe_coerces_constant() {
        // Int constant against the FLOAT price column.
        let c = cat();
        let rows = run(&c, "SELECT id FROM item WHERE price = 50");
        assert_eq!(ids(&rows), vec![50]);
    }

    #[test]
    fn in_list_probe_dedupes_and_keeps_list_order() {
        let c = cat();
        let rows = run(&c, "SELECT id FROM item WHERE cat IN (4, 1, 4)");
        assert_eq!(rows.len(), 40);
        assert_eq!(ids(&rows)[0], 4); // cat-4 bucket first, list order
        let ex = explain(&c, "EXPLAIN SELECT id FROM item WHERE cat IN (4, 1, 4)");
        assert_eq!(shape(&ex[0]).1, "index-eq");
    }

    #[test]
    fn range_probe_excludes_null_keys() {
        let c = cat();
        // The two NULL-cat rows satisfy no comparison; the probe must skip
        // their index bucket exactly as predicate evaluation would.
        let rows = run(&c, "SELECT id FROM item WHERE cat > 2");
        assert_eq!(rows.len(), 40);
        assert!(ids(&rows).iter().all(|i| i % 5 >= 3));
        let ex = explain(&c, "EXPLAIN SELECT id FROM item WHERE cat > 2");
        assert_eq!(
            shape(&ex[0]),
            ("-".into(), "index-range".into(), "ix_cat".into())
        );
    }

    #[test]
    fn range_probe_merges_bounds_and_between() {
        let c = cat();
        let rows = run(
            &c,
            "SELECT id FROM item WHERE price >= 10.0 AND price < 15.0",
        );
        assert_eq!(ids(&rows), vec![10, 11, 12, 13, 14]);
        let rows = run(&c, "SELECT id FROM item WHERE price BETWEEN 20.0 AND 24.0");
        assert_eq!(ids(&rows), vec![20, 21, 22, 23, 24]);
    }

    #[test]
    fn unselective_probe_falls_back_to_scan() {
        let c = cat();
        // cat >= 0 matches 100 of 102 rows: scanning is cheaper.
        let ex = explain(&c, "EXPLAIN SELECT id FROM item WHERE cat >= 0");
        assert_eq!(shape(&ex[0]).1, "scan");
        assert_eq!(run(&c, "SELECT id FROM item WHERE cat >= 0").len(), 100);
    }

    #[test]
    fn join_reorders_and_probes_secondary_index() {
        let c = cat();
        let rows = run(
            &c,
            "SELECT i.id, c.label FROM item i, category c \
             WHERE i.cat = c.cid AND c.label = 'two'",
        );
        assert_eq!(rows.len(), 20);
        // Output layout is FROM order even though category executed first.
        for r in &rows {
            assert!(matches!(&r[0], Value::Int(i) if i % 5 == 2));
            assert_eq!(r[1], Value::Text("two".into()));
        }
        let ex = explain(
            &c,
            "EXPLAIN SELECT i.id, c.label FROM item i, category c \
             WHERE i.cat = c.cid AND c.label = 'two'",
        );
        assert_eq!(txt(&ex[0][1]), "dbo.category");
        assert_eq!(shape(&ex[0]), ("-".into(), "scan".into(), "<null>".into()));
        assert_eq!(txt(&ex[1][1]), "dbo.item");
        assert_eq!(
            shape(&ex[1]),
            ("index-nested".into(), "probe".into(), "ix_cat".into())
        );
    }

    #[test]
    fn join_probes_primary_key() {
        let c = cat();
        let rows = run(
            &c,
            "SELECT i.id, c.label FROM item i, category c \
             WHERE c.cid = i.cat AND i.price < 1.0",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[0][1], Value::Text("zero".into()));
        let ex = explain(
            &c,
            "EXPLAIN SELECT i.id, c.label FROM item i, category c \
             WHERE c.cid = i.cat AND i.price < 1.0",
        );
        assert_eq!(
            shape(&ex[1]),
            ("index-nested".into(), "probe".into(), "pk".into())
        );
    }

    #[test]
    fn order_by_walks_index_instead_of_sorting() {
        let c = cat();
        let rows = run(&c, "SELECT id FROM item ORDER BY price DESC LIMIT 3");
        assert_eq!(ids(&rows), vec![101, 100, 99]);
        let ex = explain(
            &c,
            "EXPLAIN SELECT id FROM item ORDER BY price DESC LIMIT 3",
        );
        assert_eq!(shape(&ex[0]).1, "index-order-desc");
        assert_eq!(shape(&ex[1]).1, "order-by-index");
    }

    #[test]
    fn order_by_index_sorts_nulls_first() {
        let c = cat();
        // NULL sorts lowest; index order must agree with the sort path.
        let rows = run(&c, "SELECT id FROM item ORDER BY cat LIMIT 2");
        assert_eq!(ids(&rows), vec![100, 101]);
    }

    #[test]
    fn order_by_pk_walks_pk_index() {
        let c = cat();
        let rows = run(&c, "SELECT cid FROM category ORDER BY cid DESC LIMIT 2");
        assert_eq!(ids(&rows), vec![4, 3]);
        let ex = explain(
            &c,
            "EXPLAIN SELECT cid FROM category ORDER BY cid DESC LIMIT 2",
        );
        assert_eq!(shape(&ex[0]).1, "pk-order-desc");
    }

    #[test]
    fn range_probe_satisfies_order_by() {
        let c = cat();
        let rows = run(
            &c,
            "SELECT id FROM item WHERE price > 90.0 ORDER BY price DESC",
        );
        assert_eq!(rows.len(), 11);
        assert_eq!(ids(&rows)[0], 101);
        let ex = explain(
            &c,
            "EXPLAIN SELECT id FROM item WHERE price > 90.0 ORDER BY price DESC",
        );
        assert_eq!(shape(&ex[0]).1, "index-range-desc");
        assert_eq!(shape(&ex[1]).1, "order-by-index");
    }

    #[test]
    fn alias_shadowing_forces_a_real_sort() {
        let c = cat();
        // ORDER BY price binds to the alias (the cat values), not the
        // indexed price column — index order must NOT be claimed.
        let rows = run(&c, "SELECT cat AS price FROM item ORDER BY price");
        assert_eq!(rows.len(), 102);
        assert_eq!(rows[0][0], Value::Null);
        let ex = explain(&c, "EXPLAIN SELECT cat AS price FROM item ORDER BY price");
        assert_eq!(shape(&ex[1]).1, "order-by-sort");
    }

    #[test]
    fn explain_handles_parameterized_probes() {
        let c = cat();
        // Parameters are absent at EXPLAIN time; the plan still forms.
        let ex = explain(&c, "EXPLAIN SELECT id FROM item WHERE price < @p");
        assert_eq!(shape(&ex[0]).1, "index-range");
    }

    #[test]
    fn explain_dml_and_insert() {
        let c = cat();
        // An UPDATE or DELETE explains to the plan of its `SELECT *`.
        let ex = explain(&c, "EXPLAIN UPDATE item SET price = 0.0 WHERE cat = 1");
        assert_eq!(txt(&ex[0][1]), "dbo.item");
        assert_eq!(ex, explain(&c, "EXPLAIN SELECT * FROM item WHERE cat = 1"));
        assert_eq!(shape(&ex[0]).1, "index-eq");
        let ex = explain(
            &c,
            "EXPLAIN INSERT INTO item VALUES (500, 1, 1.0), (501, 2, 2.0)",
        );
        assert_eq!(shape(&ex[0]).1, "insert");
        assert_eq!(ex[0][5], Value::Int(2));
        let ex = explain(&c, "EXPLAIN DELETE FROM category WHERE cid = 1");
        assert_eq!(shape(&ex[0]), ("-".into(), "pk-point".into(), "pk".into()));
        let ex = explain(&c, "EXPLAIN DELETE FROM category WHERE label = 'one'");
        assert_eq!(shape(&ex[0]).1, "scan");
    }

    #[test]
    fn dml_rows_come_in_row_id_order_from_an_index_path() {
        let c = cat();
        // The probe walks the list's values in list order, cat 3 first.
        let sql = "DELETE FROM item WHERE cat IN (3, 1) AND id < 50";
        assert_eq!(
            shape(&explain(&c, &format!("EXPLAIN {sql}"))[0]).1,
            "index-eq"
        );
        let Statement::Delete(d) = parse_statement(sql).unwrap() else {
            unreachable!()
        };
        let ids = dml_rows(&d.table, d.where_clause.as_ref(), &c, Params::NONE).unwrap();
        // Item i is row i + 1.
        let want: Vec<RowId> = (0..50)
            .filter(|i| i % 5 == 1 || i % 5 == 3)
            .map(|i| i + 1)
            .collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn explain_point_lookup_and_const() {
        let c = cat();
        let ex = explain(&c, "EXPLAIN SELECT price FROM item WHERE id = 42");
        assert_eq!(shape(&ex[0]), ("-".into(), "pk-point".into(), "pk".into()));
        assert_eq!(ex[0][5], Value::Int(1));
        let ex = explain(&c, "EXPLAIN SELECT 1 + 1");
        assert_eq!(shape(&ex[0]).1, "const");
    }

    #[test]
    fn probe_results_equal_scan_results() {
        // Same data, same queries, indexed vs unindexed: identical rows.
        let indexed = cat();
        let mut plain = cat();
        {
            let t = plain.store.table_mut("dbo.item").unwrap();
            t.drop_index("ix_cat").unwrap();
            t.drop_index("ix_price").unwrap();
        }
        for sql in [
            "SELECT id, cat, price FROM item WHERE cat = 2 ORDER BY id",
            "SELECT id FROM item WHERE cat IN (0, 3) ORDER BY id",
            "SELECT id FROM item WHERE price > 95.0 AND price <= 1000.0 ORDER BY id",
            "SELECT id FROM item WHERE cat = 1 AND price > 50.0 ORDER BY id",
            "SELECT i.id FROM item i, category c WHERE i.cat = c.cid ORDER BY i.id",
        ] {
            assert_eq!(run(&indexed, sql), run(&plain, sql), "{sql}");
        }
    }
}
