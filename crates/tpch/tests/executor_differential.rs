//! Oracles for the query executor that share no code with it.
//!
//! A seeded splitmix64 generator builds SELECTs — and UPDATE/DELETE
//! statements — over a small TPC-H database: joins of one to four tables
//! along the schema's foreign keys, filters, `GROUP BY`/`HAVING`, all five
//! aggregates with and without `DISTINCT`, `ORDER BY`/`LIMIT`, `DISTINCT`,
//! `LIKE`, `IN`, `BETWEEN`, `CASE` and a sprinkling of statements that must
//! fail. A few columns are set to NULL first so three-valued logic and NULL
//! join keys are exercised. Two checks run on every statement:
//!
//! * **Golden answers.** The outcome (rows, or the error code), the row
//!   count, an order-independent row checksum, a digest of the ORDER BY
//!   keys in delivery order, a digest of the rows in delivery order (scan,
//!   join and first-occurrence group order are part of the contract: Phoenix
//!   delivers results in insertion order), and digests of the EXPLAIN output
//!   with and without secondary indexes must equal
//!   `fixtures/executor_golden.txt`,
//!   which was recorded before the executor was last rewritten. Regenerate
//!   deliberately with
//!   `BLESS=1 cargo test -p phoenix-tpch --test executor_differential`.
//! * **Plan differential.** The same statements against the same data with
//!   secondary indexes on the join and predicate columns return the same
//!   multiset of rows (floats to a relative 1e-9: another access path sums
//!   in another order). Under LIMIT only the count and the ORDER BY key
//!   sequence are determined, so only those are compared.
//!
//! The default run checks the fixture's statements; the ignored test runs
//! the plan differential over many more seeds (CI runs it in release).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use phoenix_engine::{Engine, EngineConfig, ExecOutcome, SessionId};
use phoenix_storage::db::Durability;
use phoenix_storage::types::{Row, Value};
use phoenix_tpch::{Tpch, TpchConfig};

/// Statements in the golden fixture.
const GOLDEN_CASES: u64 = 400;
/// Seed of the fixture's statement stream.
const GOLDEN_SEED: u64 = 0x5EED_0021;

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

/// splitmix64: the whole generator, so the test needs no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    fn word(&mut self, xs: &[&'static str]) -> &'static str {
        xs[self.below(xs.len() as u64) as usize]
    }
}

#[derive(Clone, Copy)]
enum Ty {
    Int(i64, i64),
    Float(f64, f64),
    Text(&'static [&'static str]),
    /// Text matched with LIKE patterns rather than equality.
    Pattern(&'static [&'static str]),
    Date,
}

struct ColDef {
    name: &'static str,
    ty: Ty,
    /// Few distinct values: a sensible GROUP BY key.
    group: bool,
}

const fn col(name: &'static str, ty: Ty, group: bool) -> ColDef {
    ColDef { name, ty, group }
}

struct TableDef {
    name: &'static str,
    alias: &'static str,
    cols: &'static [ColDef],
}

const REGIONS: &[&str] = &["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: &[&str] = &["GERMANY", "FRANCE", "CHINA", "JAPAN", "BRAZIL", "PERU"];
const SEGMENTS: &[&str] = &["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY"];
const PRIORITIES: &[&str] = &["1-URGENT", "2-HIGH", "3-MEDIUM", "5-LOW"];
const SHIPMODES: &[&str] = &["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const FLAGS: &[&str] = &["R", "A", "N"];
const STATUS: &[&str] = &["F", "O"];
const CONTAINERS: &[&str] = &["SM CASE", "MED BOX", "LG BOX", "JUMBO PACK", "WRAP JAR"];
const BRANDS: &[&str] = &["Brand#11", "Brand#23", "Brand#35", "Brand#45", "Brand#52"];
const PTYPES: &[&str] = &[
    "PROMO%",
    "%BRASS",
    "%POLISHED%",
    "SMALL%",
    "LARGE _LATED%",
    "%STEEL",
    "%AN%ED T%",
    "MEDIUM%",
];

const TABLES: &[TableDef] = &[
    TableDef {
        name: "region",
        alias: "r",
        cols: &[
            col("r_regionkey", Ty::Int(0, 4), true),
            col("r_name", Ty::Text(REGIONS), true),
        ],
    },
    TableDef {
        name: "nation",
        alias: "n",
        cols: &[
            col("n_nationkey", Ty::Int(0, 24), false),
            col("n_name", Ty::Text(NATIONS), true),
            col("n_regionkey", Ty::Int(0, 4), true),
        ],
    },
    TableDef {
        name: "supplier",
        alias: "s",
        cols: &[
            col("s_suppkey", Ty::Int(1, 10), false),
            col("s_nationkey", Ty::Int(0, 24), true),
            col("s_acctbal", Ty::Float(-999.0, 9999.0), false),
        ],
    },
    TableDef {
        name: "part",
        alias: "p",
        cols: &[
            col("p_partkey", Ty::Int(1, 20), false),
            col("p_brand", Ty::Text(BRANDS), true),
            col("p_type", Ty::Pattern(PTYPES), false),
            col("p_size", Ty::Int(1, 50), false),
            col("p_container", Ty::Text(CONTAINERS), true),
            col("p_retailprice", Ty::Float(900.0, 1010.0), false),
        ],
    },
    TableDef {
        name: "partsupp",
        alias: "ps",
        cols: &[
            col("ps_partkey", Ty::Int(1, 20), false),
            col("ps_suppkey", Ty::Int(1, 10), true),
            col("ps_availqty", Ty::Int(1, 9999), false),
            col("ps_supplycost", Ty::Float(1.0, 1000.0), false),
        ],
    },
    TableDef {
        name: "customer",
        alias: "c",
        cols: &[
            col("c_custkey", Ty::Int(1, 15), false),
            col("c_nationkey", Ty::Int(0, 24), false),
            col("c_acctbal", Ty::Float(-999.0, 9999.0), false),
            col("c_mktsegment", Ty::Text(SEGMENTS), true),
        ],
    },
    TableDef {
        name: "orders",
        alias: "o",
        cols: &[
            col("o_orderkey", Ty::Int(1, 150), false),
            col("o_custkey", Ty::Int(1, 15), false),
            col("o_orderstatus", Ty::Text(STATUS), true),
            col("o_totalprice", Ty::Float(1000.0, 300000.0), false),
            col("o_orderdate", Ty::Date, false),
            col("o_orderpriority", Ty::Text(PRIORITIES), true),
        ],
    },
    TableDef {
        name: "lineitem",
        alias: "l",
        cols: &[
            col("l_orderkey", Ty::Int(1, 150), false),
            col("l_linenumber", Ty::Int(1, 7), true),
            col("l_partkey", Ty::Int(1, 20), false),
            col("l_suppkey", Ty::Int(1, 10), false),
            col("l_quantity", Ty::Float(1.0, 50.0), false),
            col("l_extendedprice", Ty::Float(900.0, 50000.0), false),
            col("l_discount", Ty::Float(0.0, 0.1), false),
            col("l_returnflag", Ty::Text(FLAGS), true),
            col("l_linestatus", Ty::Text(STATUS), true),
            col("l_shipdate", Ty::Date, false),
            col("l_shipmode", Ty::Text(SHIPMODES), true),
        ],
    },
];

/// Foreign-key edges: (table, column, table, column), by TABLES index.
const EDGES: &[(usize, &str, usize, &str)] = &[
    (1, "n_regionkey", 0, "r_regionkey"),
    (2, "s_nationkey", 1, "n_nationkey"),
    (5, "c_nationkey", 1, "n_nationkey"),
    (4, "ps_partkey", 3, "p_partkey"),
    (4, "ps_suppkey", 2, "s_suppkey"),
    (6, "o_custkey", 5, "c_custkey"),
    (7, "l_orderkey", 6, "o_orderkey"),
    (7, "l_partkey", 3, "p_partkey"),
    (7, "l_suppkey", 2, "s_suppkey"),
    (5, "c_nationkey", 2, "s_nationkey"),
];

/// Secondary indexes of the indexed database: join and predicate columns.
const INDEXES: &[(&str, &str)] = &[
    ("lineitem", "l_orderkey"),
    ("lineitem", "l_partkey"),
    ("lineitem", "l_suppkey"),
    ("lineitem", "l_shipdate"),
    ("lineitem", "l_quantity"),
    ("lineitem", "l_returnflag"),
    ("lineitem", "l_shipmode"),
    ("orders", "o_custkey"),
    ("orders", "o_orderdate"),
    ("orders", "o_orderpriority"),
    ("customer", "c_nationkey"),
    ("customer", "c_mktsegment"),
    ("supplier", "s_nationkey"),
    ("partsupp", "ps_partkey"),
    ("partsupp", "ps_suppkey"),
    ("part", "p_size"),
    ("part", "p_brand"),
    ("nation", "n_regionkey"),
    ("nation", "n_name"),
    ("region", "r_name"),
];

/// NULLs planted before any statement runs (TPC-H data has none).
const NULLS: &[&str] = &[
    "UPDATE lineitem SET l_discount = NULL WHERE l_linenumber = 4",
    "UPDATE lineitem SET l_shipmode = NULL WHERE l_orderkey % 13 = 0 AND l_linenumber = 1",
    "UPDATE orders SET o_orderpriority = NULL WHERE o_orderkey % 11 = 0",
    "UPDATE customer SET c_nationkey = NULL WHERE c_custkey = 7",
    "UPDATE part SET p_type = NULL WHERE p_partkey = 3",
    "UPDATE supplier SET s_acctbal = NULL WHERE s_suppkey = 2",
];

/// One generated statement.
struct Stmt {
    sql: String,
    /// Output positions of the ORDER BY keys, in ORDER BY order.
    order_keys: Vec<usize>,
    /// LIMIT/OFFSET present: only the count and key order are determined.
    limited: bool,
    /// UPDATE/DELETE: the table whose contents are checked afterwards.
    dml_table: Option<&'static str>,
}

/// A column of one FROM entry, as the SQL names it.
struct ColRef {
    sql: String,
    ty: Ty,
    group: bool,
}

fn date_lit(rng: &mut Rng) -> String {
    format!("'{}-{:02}-01'", rng.int(1992, 1998), rng.int(1, 12))
}

fn num_lit(rng: &mut Rng, ty: Ty) -> String {
    match ty {
        Ty::Int(lo, hi) => rng.int(lo, hi).to_string(),
        Ty::Float(lo, hi) => {
            let x = lo + (hi - lo) * (rng.below(10_000) as f64 / 10_000.0);
            format!("{x:.2}")
        }
        _ => unreachable!("numeric columns only"),
    }
}

fn text_lit(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

const CMP: &[&str] = &["=", "<>", "<", "<=", ">", ">="];
const EQ_NE: &[&str] = &["=", "<>"];
const LT_GE: &[&str] = &["<", ">="];

/// A single-column predicate.
fn atom(rng: &mut Rng, c: &ColRef) -> String {
    let col = &c.sql;
    if rng.chance(6) {
        let not = if rng.chance(50) { " NOT" } else { "" };
        return format!("{col} IS{not} NULL");
    }
    match c.ty {
        Ty::Int(..) | Ty::Float(..) => match rng.below(5) {
            0 | 1 => format!("{col} {} {}", rng.pick(CMP), num_lit(rng, c.ty)),
            2 => {
                let (a, b) = (num_lit(rng, c.ty), num_lit(rng, c.ty));
                let not = if rng.chance(20) { " NOT" } else { "" };
                format!("{col}{not} BETWEEN {a} AND {b}")
            }
            3 => {
                let n = rng.int(1, 4);
                let list: Vec<String> = (0..n).map(|_| num_lit(rng, c.ty)).collect();
                let not = if rng.chance(20) { " NOT" } else { "" };
                format!("{col}{not} IN ({})", list.join(", "))
            }
            _ => format!("{col} * 2 {} {}", rng.pick(CMP), num_lit(rng, c.ty)),
        },
        Ty::Text(dom) => match rng.below(5) {
            0 | 1 => format!("{col} {} {}", rng.pick(EQ_NE), text_lit(rng.word(dom))),
            2 => {
                let list: Vec<String> = (0..rng.int(1, 3))
                    .map(|_| text_lit(rng.word(dom)))
                    .collect();
                format!("{col} IN ({})", list.join(", "))
            }
            3 => {
                let v = rng.pick(dom);
                format!("{col} LIKE {}", text_lit(&format!("{}%", &v[..1])))
            }
            _ => format!("{col} {} {}", rng.pick(LT_GE), text_lit(rng.word(dom))),
        },
        Ty::Pattern(pats) => {
            let not = if rng.chance(30) { " NOT" } else { "" };
            format!("{col}{not} LIKE {}", text_lit(rng.word(pats)))
        }
        Ty::Date => match rng.below(4) {
            0 => format!("{col} {} DATE {}", rng.pick(CMP), date_lit(rng)),
            1 => format!(
                "{col} BETWEEN DATE {} AND DATE {}",
                date_lit(rng),
                date_lit(rng)
            ),
            // Text compared with a date coerces.
            2 => format!("{col} >= {}", date_lit(rng)),
            _ => format!("YEAR({col}) = {}", rng.int(1992, 1998)),
        },
    }
}

/// A predicate: an atom, or a small OR / NOT / CASE combination of atoms.
fn predicate(rng: &mut Rng, cols: &[ColRef]) -> String {
    let c = rng_pick_col(rng, cols);
    let a = atom(rng, c);
    match rng.below(10) {
        0 => {
            let c = rng_pick_col(rng, cols);
            format!("({a} OR {})", atom(rng, c))
        }
        1 => format!("NOT ({a})"),
        2 => format!("CASE WHEN {a} THEN 1 ELSE 0 END = 1"),
        _ => a,
    }
}

fn rng_pick_col<'a>(rng: &mut Rng, cols: &'a [ColRef]) -> &'a ColRef {
    &cols[rng.below(cols.len() as u64) as usize]
}

/// A scalar projection expression over one column.
fn scalar(rng: &mut Rng, c: &ColRef) -> String {
    let col = &c.sql;
    if rng.chance(45) {
        return col.clone();
    }
    match c.ty {
        Ty::Int(..) | Ty::Float(..) => match rng.below(5) {
            0 => format!("{col} * 2"),
            1 => format!("{col} + 1"),
            2 => format!("COALESCE({col}, 0)"),
            3 => format!("ABS({col} - {})", num_lit(rng, c.ty)),
            _ => format!(
                "CASE WHEN {col} > {} THEN 'hi' ELSE 'lo' END",
                num_lit(rng, c.ty)
            ),
        },
        Ty::Text(_) | Ty::Pattern(_) => match rng.below(4) {
            0 => format!("UPPER({col})"),
            1 => format!("SUBSTR({col}, 1, 3)"),
            2 => format!("LENGTH({col})"),
            _ => format!("{col} + '!'"),
        },
        Ty::Date => match rng.below(3) {
            0 => format!("YEAR({col})"),
            1 => format!("MONTH({col})"),
            _ => format!("{col} + 30"),
        },
    }
}

fn numeric(c: &ColRef) -> bool {
    matches!(c.ty, Ty::Int(..) | Ty::Float(..))
}

/// An aggregate call.
fn aggregate(rng: &mut Rng, cols: &[ColRef]) -> String {
    let nums: Vec<&ColRef> = cols.iter().filter(|c| numeric(c)).collect();
    let distinct = if rng.chance(25) { "DISTINCT " } else { "" };
    match rng.below(6) {
        0 => "COUNT(*)".to_string(),
        1 => format!("COUNT({distinct}{})", rng_pick_col(rng, cols).sql),
        f @ (2 | 3) => {
            let name = if f == 2 { "SUM" } else { "AVG" };
            let c = rng.pick(&nums);
            let arg = match rng.below(4) {
                0 => format!("{} * 2", c.sql),
                1 => {
                    let p = rng_pick_col(rng, cols);
                    format!("CASE WHEN {} THEN {} ELSE 0 END", atom(rng, p), c.sql)
                }
                _ => c.sql.clone(),
            };
            format!("{name}({distinct}{arg})")
        }
        f => {
            let name = if f == 4 { "MIN" } else { "MAX" };
            format!("{name}({distinct}{})", rng_pick_col(rng, cols).sql)
        }
    }
}

/// Pick 1–4 tables by a random walk over the foreign-key graph; return the
/// FROM list, the join conjuncts and the visible columns.
fn from_clause(rng: &mut Rng) -> (Vec<String>, Vec<String>, Vec<ColRef>) {
    let k = match rng.below(100) {
        0..=34 => 1,
        35..=64 => 2,
        65..=84 => 3,
        _ => 4,
    };
    let mut chosen = vec![rng.below(TABLES.len() as u64) as usize];
    let mut joins: Vec<(usize, &str, usize, &str)> = Vec::new();
    while chosen.len() < k {
        let candidates: Vec<&(usize, &str, usize, &str)> = EDGES
            .iter()
            .filter(|(a, _, b, _)| chosen.contains(a) != chosen.contains(b))
            .collect();
        if candidates.is_empty() {
            break;
        }
        let e = *rng.pick(&candidates);
        chosen.push(if chosen.contains(&e.0) { e.2 } else { e.0 });
        joins.push(*e);
    }
    // Now and then a small table with no join predicate: a cross join.
    if chosen.len() < 4 && rng.chance(6) && !chosen.contains(&0) {
        chosen.push(0);
    }
    let aliased = rng.chance(50);
    let qualified = aliased || rng.chance(30);
    let qual = |t: usize| {
        if aliased {
            TABLES[t].alias
        } else {
            TABLES[t].name
        }
    };
    let name = |t: usize, c: &str| {
        if qualified {
            format!("{}.{c}", qual(t))
        } else {
            c.to_string()
        }
    };
    let from = chosen
        .iter()
        .map(|&t| {
            if aliased {
                format!("{} {}", TABLES[t].name, TABLES[t].alias)
            } else {
                TABLES[t].name.to_string()
            }
        })
        .collect();
    let conj = joins
        .iter()
        .map(|&(a, ca, b, cb)| {
            if rng.chance(50) {
                format!("{} = {}", name(a, ca), name(b, cb))
            } else {
                format!("{} = {}", name(b, cb), name(a, ca))
            }
        })
        .collect();
    let cols = chosen
        .iter()
        .flat_map(|&t| TABLES[t].cols.iter().map(move |c| (t, c)))
        .map(|(t, c)| ColRef {
            sql: name(t, c.name),
            ty: c.ty,
            group: c.group,
        })
        .collect();
    (from, conj, cols)
}

/// ORDER BY over 1–2 output positions, each written as an ordinal, an
/// alias, or the projection's own text.
fn order_by(rng: &mut Rng, outputs: &[(String, Option<String>)]) -> (String, Vec<usize>) {
    let n = rng.int(1, 2.min(outputs.len() as i64)) as usize;
    let mut keys: Vec<usize> = Vec::new();
    let mut items = Vec::new();
    while keys.len() < n {
        let i = rng.below(outputs.len() as u64) as usize;
        if keys.contains(&i) {
            continue;
        }
        keys.push(i);
        let (expr, alias) = &outputs[i];
        let text = match (rng.below(3), alias) {
            (0, Some(a)) => a.clone(),
            (1, None) if !expr.contains('\'') => expr.clone(),
            _ => (i + 1).to_string(),
        };
        let dir = if rng.chance(40) { " DESC" } else { "" };
        items.push(format!("{text}{dir}"));
    }
    (format!(" ORDER BY {}", items.join(", ")), keys)
}

fn select_stmt(rng: &mut Rng) -> Stmt {
    let (from, mut conj, cols) = from_clause(rng);
    for _ in 0..rng.below(4) {
        conj.push(predicate(rng, &cols));
    }
    if rng.chance(3) {
        conj.push(if rng.chance(50) { "1 = 1" } else { "0 = 1" }.to_string());
    }
    let mut outputs: Vec<(String, Option<String>)> = Vec::new();
    let mut group_by: Vec<String> = Vec::new();
    let mut having = None;
    let grouped = rng.chance(55);
    let distinct = !grouped && rng.chance(15);
    if grouped {
        let keys: Vec<&ColRef> = cols.iter().filter(|c| c.group).collect();
        let nkeys = if keys.is_empty() { 0 } else { rng.below(3) };
        for _ in 0..nkeys {
            let key = if rng.chance(15) {
                match cols.iter().find(|c| matches!(c.ty, Ty::Date)) {
                    Some(d) => format!("YEAR({})", d.sql),
                    None => rng.pick(&keys).sql.clone(),
                }
            } else {
                rng.pick(&keys).sql.clone()
            };
            if !group_by.contains(&key) {
                group_by.push(key.clone());
                outputs.push((key, None));
            }
        }
        for _ in 0..rng.int(1, 3) {
            outputs.push((aggregate(rng, &cols), None));
        }
        if rng.chance(30) {
            having = Some(match rng.below(3) {
                0 => format!("COUNT(*) > {}", rng.int(0, 3)),
                1 if !group_by.is_empty() => format!("{} IS NOT NULL", group_by[0]),
                _ => format!("{} IS NOT NULL", aggregate(rng, &cols)),
            });
        }
    } else {
        for _ in 0..rng.int(1, 4) {
            let c = rng_pick_col(rng, &cols);
            outputs.push((scalar(rng, c), None));
        }
    }
    for (i, (_, alias)) in outputs.iter_mut().enumerate() {
        if rng.chance(25) {
            *alias = Some(format!("out{i}"));
        }
    }
    let mut sql = String::from("SELECT ");
    if distinct {
        sql.push_str("DISTINCT ");
    }
    let proj: Vec<String> = outputs
        .iter()
        .map(|(e, a)| match a {
            Some(a) => format!("{e} AS {a}"),
            None => e.clone(),
        })
        .collect();
    sql.push_str(&proj.join(", "));
    sql.push_str(&format!(" FROM {}", from.join(", ")));
    if !conj.is_empty() {
        sql.push_str(&format!(" WHERE {}", conj.join(" AND ")));
    }
    if !group_by.is_empty() {
        sql.push_str(&format!(" GROUP BY {}", group_by.join(", ")));
    }
    if let Some(h) = having {
        sql.push_str(&format!(" HAVING {h}"));
    }
    let mut order_keys = Vec::new();
    if rng.chance(50) {
        let (text, keys) = order_by(rng, &outputs);
        sql.push_str(&text);
        order_keys = keys;
    }
    let limited = rng.chance(if order_keys.is_empty() { 5 } else { 25 });
    if limited {
        sql.push_str(&format!(" LIMIT {}", rng.int(1, 12)));
        if rng.chance(30) {
            sql.push_str(&format!(" OFFSET {}", rng.int(1, 5)));
        }
    }
    Stmt {
        sql,
        order_keys,
        limited,
        dml_table: None,
    }
}

fn dml_stmt(rng: &mut Rng) -> Stmt {
    const TARGETS: &[(usize, &[&str])] = &[
        (
            7,
            &[
                "l_quantity = l_quantity + 1",
                "l_shipmode = 'AIR'",
                "l_discount = l_discount * 2",
                "l_quantity = CASE WHEN l_returnflag = 'R' THEN 0 ELSE l_quantity END",
            ],
        ),
        (
            6,
            &[
                "o_totalprice = o_totalprice * 1.1",
                "o_orderpriority = '1-URGENT'",
            ],
        ),
        (5, &["c_acctbal = c_acctbal - 100"]),
        (3, &["p_size = p_size + 1", "p_brand = UPPER(p_brand)"]),
        (4, &["ps_availqty = ps_availqty / 2"]),
    ];
    let (t, sets) = rng.pick(TARGETS);
    let table = &TABLES[*t];
    let qualified = rng.chance(30);
    let cols: Vec<ColRef> = table
        .cols
        .iter()
        .map(|c| ColRef {
            sql: if qualified {
                format!("{}.{}", table.name, c.name)
            } else {
                c.name.to_string()
            },
            ty: c.ty,
            group: c.group,
        })
        .collect();
    let mut conj = Vec::new();
    for _ in 0..rng.int(0, 2) {
        conj.push(predicate(rng, &cols));
    }
    let where_sql = if conj.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conj.join(" AND "))
    };
    let sql = if rng.chance(60) {
        format!("UPDATE {} SET {}{where_sql}", table.name, rng.pick(sets))
    } else {
        format!("DELETE FROM {}{where_sql}", table.name)
    };
    Stmt {
        sql,
        order_keys: Vec::new(),
        limited: false,
        dml_table: Some(table.name),
    }
}

/// Statements that must fail, binding or running.
fn failing_stmt(rng: &mut Rng) -> Stmt {
    let sql = match rng.below(5) {
        0 => "SELECT l_nope FROM lineitem".to_string(),
        1 => format!(
            "SELECT l_quantity / 0 FROM lineitem WHERE l_orderkey < {}",
            rng.int(2, 9)
        ),
        2 => "SELECT SUM(l_returnflag) FROM lineitem".to_string(),
        3 => format!(
            "SELECT l_orderkey FROM lineitem WHERE l_shipmode > {}",
            rng.int(1, 9)
        ),
        _ => "SELECT n_name FROM nation n1, nation n2".to_string(),
    };
    Stmt {
        sql,
        order_keys: Vec::new(),
        limited: false,
        dml_table: None,
    }
}

/// Self-joins need aliases on both sides; the random walk never makes one.
fn self_join_stmt(rng: &mut Rng) -> Stmt {
    let sql = format!(
        "SELECT n1.n_name, n2.n_name AS other FROM nation n1, nation n2 \
         WHERE n1.n_regionkey = n2.n_regionkey AND n1.n_nationkey < n2.n_nationkey \
         AND n1.n_regionkey = {} ORDER BY 1, 2",
        rng.int(0, 4)
    );
    Stmt {
        sql,
        order_keys: vec![0, 1],
        limited: false,
        dml_table: None,
    }
}

fn statement(seed: u64) -> Stmt {
    let mut rng = Rng(seed);
    match rng.below(100) {
        0..=3 => failing_stmt(&mut rng),
        4..=5 => self_join_stmt(&mut rng),
        6..=19 => dml_stmt(&mut rng),
        _ => select_stmt(&mut rng),
    }
}

// ---------------------------------------------------------------------------
// Running and summarising
// ---------------------------------------------------------------------------

struct Db {
    engine: Engine,
    sid: SessionId,
    dir: PathBuf,
}

impl Drop for Db {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn open_db(indexed: bool) -> Db {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("phoenix-exec-diff-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let config = EngineConfig {
        durability: Durability::Buffered,
        checkpoint_every: None,
        ..EngineConfig::default()
    };
    let engine = Engine::open(&dir, config).unwrap();
    let sid = engine.create_session("oracle");
    let setup = Tpch::new(TpchConfig::default().with_scale(0.1)).setup_sql();
    for sql in setup
        .iter()
        .map(String::as_str)
        .chain(NULLS.iter().copied())
    {
        engine
            .execute(sid, sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    if indexed {
        for (table, column) in INDEXES {
            let sql = format!("CREATE INDEX ix_{column} ON {table}({column})");
            engine.execute(sid, &sql).unwrap();
        }
    }
    Db { engine, sid, dir }
}

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(&[0]),
            Value::Int(i) => {
                self.bytes(&[1]);
                self.bytes(&i.to_le_bytes());
            }
            Value::Float(f) => {
                self.bytes(&[2]);
                self.bytes(&f.to_bits().to_le_bytes());
            }
            Value::Text(s) => {
                self.bytes(&[3]);
                self.bytes(&(s.len() as u64).to_le_bytes());
                self.bytes(s.as_bytes());
            }
            Value::Bool(b) => self.bytes(&[4, *b as u8]),
            Value::Date(d) => {
                self.bytes(&[5]);
                self.bytes(&d.to_le_bytes());
            }
        }
    }

    fn row(mut self, row: &[Value]) -> u64 {
        for v in row {
            self.value(v);
        }
        self.0
    }
}

fn code_of(e: &phoenix_engine::EngineError) -> String {
    format!("err:{:?}", e.code)
}

/// What a statement did, in the fixture's terms.
struct Answer {
    class: String,
    count: u64,
    /// Schema digest plus the wrapping sum of per-row digests.
    checksum: u64,
    /// ORDER BY key tuples in delivery order.
    order: u64,
    /// Every row in delivery order.
    sequence: u64,
    rows: Vec<Row>,
    keys: Vec<Row>,
    explain: u64,
}

impl Answer {
    fn line(&self, i: u64, sql: &str, indexed_explain: u64) -> String {
        format!(
            "{i:03} {:016x} {} {} {:016x} {:016x} {:016x} {:016x} {indexed_explain:016x}",
            Fnv::new().row(&[Value::Text(sql.to_string())]),
            self.class,
            self.count,
            self.checksum,
            self.order,
            self.sequence,
            self.explain,
        )
    }
}

fn run(db: &Db, stmt: &Stmt) -> Answer {
    let e = &db.engine;
    let explain = match e.execute(db.sid, &format!("EXPLAIN {}", stmt.sql)) {
        Ok(r) => r.rows().iter().fold(Fnv::new().0, |h, row| Fnv(h).row(row)),
        Err(err) => Fnv::new().row(&[Value::Text(code_of(&err))]),
    };
    let result = match stmt.dml_table {
        None => e.execute(db.sid, &stmt.sql),
        Some(table) => {
            e.execute(db.sid, "BEGIN").unwrap();
            let r = e.execute(db.sid, &stmt.sql).and_then(|r| {
                let after = e.execute(db.sid, &format!("SELECT * FROM {table}"))?;
                Ok((r.affected(), after))
            });
            e.execute(db.sid, "ROLLBACK").unwrap();
            r.map(|(affected, mut after)| {
                if let ExecOutcome::ResultSet { rows, .. } = &mut after.outcome {
                    // The table's new contents, with the affected count as
                    // the first "row".
                    rows.insert(0, vec![Value::Int(affected as i64)]);
                }
                after
            })
        }
    };
    match result {
        Err(err) => Answer {
            class: code_of(&err),
            count: 0,
            checksum: 0,
            order: 0,
            sequence: 0,
            rows: Vec::new(),
            keys: Vec::new(),
            explain,
        },
        Ok(r) => {
            let (schema, rows) = match r.outcome {
                ExecOutcome::ResultSet { schema, rows } => (schema, rows),
                other => panic!("{}: {other:?}", stmt.sql),
            };
            let mut sh = Fnv::new();
            for c in &schema.columns {
                sh.bytes(c.name.as_bytes());
                sh.bytes(&[0, c.dtype as u8, c.nullable as u8]);
            }
            let checksum = rows
                .iter()
                .fold(sh.0, |acc, row| acc.wrapping_add(Fnv::new().row(row)));
            let keys: Vec<Row> = rows
                .iter()
                .map(|row| stmt.order_keys.iter().map(|&k| row[k].clone()).collect())
                .collect();
            let order = keys.iter().fold(Fnv::new().0, |h, k| Fnv(h).row(k));
            let sequence = rows.iter().fold(Fnv::new().0, |h, r| Fnv(h).row(r));
            Answer {
                class: "ok".to_string(),
                count: rows.len() as u64,
                checksum,
                order,
                sequence,
                rows,
                keys,
                explain,
            }
        }
    }
}

fn close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| close(p, q)))
}

/// The plan differential for one statement.
fn check_plans(i: u64, stmt: &Stmt, plain: &Answer, indexed: &Answer) {
    let what = format!("statement {i}: {}", stmt.sql);
    assert_eq!(plain.class, indexed.class, "{what}: outcome");
    assert_eq!(plain.count, indexed.count, "{what}: row count");
    assert!(
        same_rows(&plain.keys, &indexed.keys),
        "{what}: ORDER BY keys"
    );
    if !stmt.limited {
        let mut a = plain.rows.clone();
        let mut b = indexed.rows.clone();
        a.sort();
        b.sort();
        assert!(same_rows(&a, &b), "{what}: row multisets differ");
    }
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/executor_golden.txt")
}

#[test]
fn golden_answers_and_plan_differential() {
    let plain = open_db(false);
    let indexed = open_db(true);
    let mut lines = Vec::new();
    let mut classes = std::collections::BTreeMap::new();
    for i in 0..GOLDEN_CASES {
        let stmt = statement(GOLDEN_SEED + i);
        let a = run(&plain, &stmt);
        let b = run(&indexed, &stmt);
        check_plans(i, &stmt, &a, &b);
        *classes.entry(a.class.clone()).or_insert(0) += 1;
        lines.push(a.line(i, &stmt.sql, b.explain));
    }
    // The generator must keep producing mostly answerable statements.
    assert!(
        classes.get("ok").copied().unwrap_or(0) > GOLDEN_CASES * 9 / 10,
        "{classes:?}"
    );

    let path = fixture_path();
    let text = lines.join("\n") + "\n";
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); run with BLESS=1", path.display()));
    for (i, (got, want)) in text.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "statement {i} differs from the fixture: {}",
            statement(GOLDEN_SEED + i as u64).sql
        );
    }
    assert_eq!(text.lines().count(), want.lines().count(), "fixture length");
}

/// The plan differential over many more statements (CI runs it in release).
#[test]
#[ignore]
fn plan_differential_many_statements() {
    let plain = open_db(false);
    let indexed = open_db(true);
    for i in 0..4_000 {
        let stmt = statement(0xD1FF_0000 + i);
        check_plans(i, &stmt, &run(&plain, &stmt), &run(&indexed, &stmt));
    }
}
