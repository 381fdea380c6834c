//! Seeded inputs. Everything a workload sends is a pure function of
//! `--seed`: the same seed gives a byte-identical statement stream, and the
//! server sees only the generated SQL.
//!
//! Each generator also knows the answer: the payload a read must return and
//! the last acknowledged value of every key a client wrote, which is what
//! the output oracles compare against.

use crate::adapter::{Row, Value};

/// SplitMix64: tiny, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        Rng(r.next())
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 82-character payload of row `id`: with two integer columns a row is
/// about 100 bytes.
pub fn payload(seed: u64, id: u64) -> String {
    let mut s = String::with_capacity(82);
    s.push_str("p-");
    for i in 0..5u64 {
        let h = mix(seed ^ id.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i));
        s.push_str(&format!("{h:016x}"));
    }
    s
}

/// Bytes of one `(id, int, payload)` row as the user wrote it.
pub fn row_bytes(payload_len: usize) -> u64 {
    16 + payload_len as u64
}

fn int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Text(s) => Some(s),
        _ => None,
    }
}

/// FNV-1a over a statement stream, for the determinism test and the run
/// record.
pub fn stream_hash<'a>(stmts: impl Iterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in stmts {
        for b in s.bytes().chain([b'\n']) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

// ---------------------------------------------------------------------------
// point_read
// ---------------------------------------------------------------------------

/// Rows per range read.
pub const RANGE_ROWS: u64 = 20;

/// `pr_items(id, sk, payload)`: `id` is the primary key, `sk` a permutation
/// of `id` under a secondary index, so a 20-wide `sk` range is 20 rows
/// scattered over the table.
#[derive(Debug, Clone)]
pub struct PointRead {
    pub seed: u64,
    pub rows: u64,
    mult: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOp {
    Point { id: u64 },
    Range { lo: u64 },
}

impl PointRead {
    pub fn new(seed: u64, rows: u64) -> PointRead {
        // A multiplier coprime with `rows`, so `id → id·mult mod rows` is a
        // bijection: every `sk` in `0..rows` belongs to exactly one row.
        let mut mult = 7919 % rows;
        while gcd(mult, rows) != 1 {
            mult += 1;
        }
        PointRead { seed, rows, mult }
    }

    pub fn sk(&self, id: u64) -> u64 {
        (id as u128 * self.mult as u128 % self.rows as u128) as u64
    }

    /// The load script. `CREATE INDEX` comes last so the index is built in
    /// one pass over the loaded rows. Few, large batches: every `INSERT`
    /// statement copies the table it writes to, and with 5 000-row batches a
    /// third of set-up was those copies — freshly faulted memory, the part of
    /// `setup_s` a shared host moves most (28 % between two sets of runs).
    pub fn setup_sql(&self) -> impl Iterator<Item = String> + '_ {
        const BATCH: u64 = 20_000;
        let create = "CREATE TABLE pr_items (id INT NOT NULL, sk INT NOT NULL, payload TEXT, \
                      PRIMARY KEY (id))"
            .to_string();
        let batches = (0..self.rows.div_ceil(BATCH)).map(move |b| {
            let values: Vec<String> = (b * BATCH..((b + 1) * BATCH).min(self.rows))
                .map(|id| format!("({id}, {}, '{}')", self.sk(id), payload(self.seed, id)))
                .collect();
            format!("INSERT INTO pr_items VALUES {}", values.join(", "))
        });
        std::iter::once(create)
            .chain(batches)
            .chain(std::iter::once(
                "CREATE INDEX ix_pr_sk ON pr_items(sk)".to_string(),
            ))
    }

    pub fn user_bytes(&self) -> u64 {
        self.rows * row_bytes(82)
    }

    /// 90 % primary-key reads, 10 % 20-row secondary-index range reads,
    /// keys uniform over the table.
    pub fn next_op(&self, rng: &mut Rng) -> ReadOp {
        if rng.below(10) == 0 {
            ReadOp::Range {
                lo: rng.below(self.rows - RANGE_ROWS + 1),
            }
        } else {
            ReadOp::Point {
                id: rng.below(self.rows),
            }
        }
    }

    pub fn sql(&self, op: ReadOp) -> String {
        match op {
            ReadOp::Point { id } => {
                format!("SELECT id, sk, payload FROM pr_items WHERE id = {id}")
            }
            ReadOp::Range { lo } => format!(
                "SELECT id, sk, payload FROM pr_items WHERE sk BETWEEN {lo} AND {}",
                lo + RANGE_ROWS - 1
            ),
        }
    }

    fn row_ok(&self, row: &Row) -> Option<u64> {
        let id = int(row.first()?)? as u64;
        let sk = int(row.get(1)?)? as u64;
        let ok =
            id < self.rows && sk == self.sk(id) && text(row.get(2)?)? == payload(self.seed, id);
        ok.then_some(sk)
    }

    /// Every returned row against the generator's expected payload, and the
    /// set of rows against the keys asked for.
    pub fn check(&self, op: ReadOp, rows: &[Row]) -> bool {
        match op {
            ReadOp::Point { id } => rows.len() == 1 && self.row_ok(&rows[0]) == Some(self.sk(id)),
            ReadOp::Range { lo } => {
                let mut seen = 0u32;
                for row in rows {
                    match self.row_ok(row) {
                        Some(sk) if (lo..lo + RANGE_ROWS).contains(&sk) => seen |= 1 << (sk - lo),
                        _ => return false,
                    }
                }
                rows.len() as u64 == RANGE_ROWS && seen == (1 << RANGE_ROWS) - 1
            }
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

// ---------------------------------------------------------------------------
// durable_write
// ---------------------------------------------------------------------------

/// Key space one client owns: client `c` writes only ids in
/// `c·STRIDE .. (c+1)·STRIDE`, so the last acknowledged value of every key
/// is known without coordination.
pub const STRIDE: u64 = 100_000_000;

/// One request of the write mix and what the server must answer.
#[derive(Debug, Clone)]
pub struct WriteStmt {
    pub sql: String,
    /// `Some(n)`: rows affected must be `n`. `None`: BEGIN / COMMIT.
    pub expect_affected: Option<u64>,
    /// Row bytes the user wrote with this statement.
    pub user_bytes: u64,
}

/// One client's deterministic stream plus its model of the two tables.
#[derive(Debug, Clone)]
pub struct WriteClient {
    seed: u64,
    rng: Rng,
    base: u64,
    next: u64,
    preloaded: u64,
    /// Live `(id, v)` of `dw_a` and `dw_b`, this client's keys only.
    pub live_a: Vec<(u64, i64)>,
    pub live_b: Vec<(u64, i64)>,
    pub deleted: u64,
}

/// Rows of `dw_b` per client for every `B_SHARE` rows of `dw_a`.
const B_SHARE: u64 = 10;

/// Single-row statements in one explicit transaction of the write workload.
const TXN_STMTS: usize = 16;

impl WriteClient {
    /// A client whose first `preloaded` keys are already in `dw_a`, and the
    /// `preloaded / B_SHARE` keys after them in `dw_b`.
    pub fn new(seed: u64, client: u64, preloaded: u64) -> WriteClient {
        let base = client * STRIDE;
        let in_b = preloaded / B_SHARE;
        let live = |keys: std::ops::Range<u64>| {
            keys.map(|k| (base + k, preload_value(base + k))).collect()
        };
        WriteClient {
            seed,
            rng: Rng::new(seed, 100 + client),
            base,
            next: preloaded + in_b,
            preloaded,
            live_a: live(0..preloaded),
            live_b: live(preloaded..preloaded + in_b),
            deleted: 0,
        }
    }

    pub fn key_range(&self) -> (u64, u64) {
        (self.base, self.base + STRIDE - 1)
    }

    fn value(&mut self) -> i64 {
        (self.rng.next() >> 24) as i64
    }

    fn insert(&mut self, table: &str) -> WriteStmt {
        let id = self.base + self.next;
        self.next += 1;
        let v = self.value();
        let p = payload(self.seed, id);
        let user_bytes = row_bytes(p.len());
        let live = if table == "dw_a" {
            &mut self.live_a
        } else {
            &mut self.live_b
        };
        live.push((id, v));
        WriteStmt {
            sql: format!("INSERT INTO {table} VALUES ({id}, {v}, '{p}')"),
            expect_affected: Some(1),
            user_bytes,
        }
    }

    fn update(&mut self) -> WriteStmt {
        let i = self.rng.below(self.live_a.len() as u64) as usize;
        let v = self.value();
        self.live_a[i].1 = v;
        WriteStmt {
            sql: format!("UPDATE dw_a SET v = {v} WHERE id = {}", self.live_a[i].0),
            expect_affected: Some(1),
            user_bytes: row_bytes(82),
        }
    }

    fn delete(&mut self, table: &str) -> WriteStmt {
        let live = if table == "dw_a" {
            &mut self.live_a
        } else {
            &mut self.live_b
        };
        let i = self.rng.below(live.len() as u64) as usize;
        let (id, _) = live.swap_remove(i);
        self.deleted += 1;
        WriteStmt {
            sql: format!("DELETE FROM {table} WHERE id = {id}"),
            expect_affected: Some(1),
            user_bytes: 0,
        }
    }

    /// One single-row statement on `dw_a`: 40 % `UPDATE` by key, 60 % an
    /// `INSERT` when the range holds no more rows than it started with and a
    /// `DELETE` otherwise (so 30 % each).
    ///
    /// Both tables keep their size, to the row: this server copies the table
    /// a statement writes to, so its write cost follows the table's size, and
    /// a table that grew (or wandered) through the window would make every
    /// number depend on how long the window was.
    pub fn single_row(&mut self) -> WriteStmt {
        match self.rng.below(10) {
            0..=3 => self.update(),
            _ if self.live_a.len() as u64 <= self.preloaded => self.insert("dw_a"),
            _ => self.delete("dw_a"),
        }
    }

    /// The next operation. Four times in five an explicit transaction of
    /// `TXN_STMTS` single-row statements — every tenth of them also inserts
    /// and deletes a row of `dw_b`, which lives in another log partition —
    /// and one time in five a lone autocommit statement.
    pub fn next_op(&mut self) -> Vec<WriteStmt> {
        let control = |sql: &str| WriteStmt {
            sql: sql.to_string(),
            expect_affected: None,
            user_bytes: 0,
        };
        if self.rng.below(5) == 0 {
            return vec![self.single_row()];
        }
        let mut txn = vec![control("BEGIN")];
        txn.extend((0..TXN_STMTS).map(|_| self.single_row()));
        if self.rng.below(10) == 0 {
            txn.extend([self.insert("dw_b"), self.delete("dw_b")]);
        }
        txn.push(control("COMMIT"));
        txn
    }
}

pub fn preload_value(id: u64) -> i64 {
    (mix(id) >> 24) as i64
}

/// DDL and preload of the write workload, as `WriteClient::new` models it:
/// `per_client` rows of `dw_a` and a tenth as many of `dw_b` for each client.
pub fn write_setup_sql(seed: u64, clients: u64, per_client: u64) -> Vec<String> {
    let mut out = vec![
        "CREATE TABLE dw_a (id INT NOT NULL, v INT NOT NULL, payload TEXT, PRIMARY KEY (id))"
            .to_string(),
        "CREATE TABLE dw_b (id INT NOT NULL, v INT NOT NULL, payload TEXT, PRIMARY KEY (id))"
            .to_string(),
    ];
    for c in 0..clients {
        let model = WriteClient::new(seed, c, per_client);
        for (table, live) in [("dw_a", &model.live_a), ("dw_b", &model.live_b)] {
            let values: Vec<String> = live
                .iter()
                .map(|(id, v)| format!("({id}, {v}, '{}')", payload(seed, *id)))
                .collect();
            if !values.is_empty() {
                out.push(format!("INSERT INTO {table} VALUES {}", values.join(", ")));
            }
        }
    }
    out
}

/// Compare what the restarted server holds in one client's key range with
/// the client's model. Returns the number of keys that are wrong: missing,
/// duplicated, resurrected, or holding another value than the last
/// acknowledged one.
pub fn write_mismatches(model: &[(u64, i64)], rows: &[Row]) -> u64 {
    let mut want: Vec<(u64, i64)> = model.to_vec();
    want.sort_unstable();
    let mut got: Vec<(u64, i64)> = rows
        .iter()
        .filter_map(|r| Some((int(r.first()?)? as u64, int(r.get(1)?)?)))
        .collect();
    let unreadable = rows.len() - got.len();
    got.sort_unstable();
    let (mut i, mut j, mut wrong) = (0, 0, unreadable as u64);
    while i < want.len() || j < got.len() {
        match (want.get(i), got.get(j)) {
            (Some(w), Some(g)) if w == g => {
                i += 1;
                j += 1;
            }
            (Some(w), Some(g)) if w.0 == g.0 => {
                wrong += 1;
                i += 1;
                j += 1;
            }
            (Some(w), Some(g)) if w.0 < g.0 => {
                wrong += 1;
                i += 1;
            }
            (Some(_), Some(_)) | (None, Some(_)) => {
                wrong += 1;
                j += 1;
            }
            (Some(_), None) => {
                wrong += 1;
                i += 1;
            }
            (None, None) => break,
        }
    }
    wrong
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_stream(seed: u64) -> u64 {
        let w = PointRead::new(seed, 10_000);
        let mut rng = Rng::new(seed, 0);
        let stmts: Vec<String> = w
            .setup_sql()
            .chain((0..2_000).map(|_| w.sql(w.next_op(&mut rng))))
            .collect();
        stream_hash(stmts.iter().map(String::as_str))
    }

    fn write_stream(seed: u64) -> u64 {
        let mut stmts = write_setup_sql(seed, 2, 100);
        for c in 0..2 {
            let mut client = WriteClient::new(seed, c, 100);
            for _ in 0..2_000 {
                stmts.extend(client.next_op().into_iter().map(|s| s.sql));
            }
        }
        stream_hash(stmts.iter().map(String::as_str))
    }

    /// Same `--seed` ⇒ byte-identical statement stream; another seed ⇒
    /// another stream.
    #[test]
    fn streams_are_a_function_of_the_seed() {
        for seed in [1u64, 0xDEAD_BEEF] {
            assert_eq!(read_stream(seed), read_stream(seed));
            assert_eq!(write_stream(seed), write_stream(seed));
        }
        assert_ne!(read_stream(1), read_stream(2));
        assert_ne!(write_stream(1), write_stream(2));
    }

    #[test]
    fn sk_is_a_bijection() {
        let w = PointRead::new(7, 20_000);
        let mut seen = vec![false; 20_000];
        for id in 0..20_000 {
            assert!(!std::mem::replace(&mut seen[w.sk(id) as usize], true));
        }
    }

    #[test]
    fn read_oracle_accepts_right_rows_and_rejects_wrong_ones() {
        let w = PointRead::new(7, 1_000);
        let id_of = |sk: u64| (0..1_000).find(|id| w.sk(*id) == sk).unwrap();
        let row = |id: u64| -> Row {
            vec![
                Value::Int(id as i64),
                Value::Int(w.sk(id) as i64),
                Value::Text(payload(7, id)),
            ]
        };
        assert!(w.check(ReadOp::Point { id: 5 }, &[row(5)]));
        assert!(!w.check(ReadOp::Point { id: 5 }, &[row(6)]));
        assert!(!w.check(ReadOp::Point { id: 5 }, &[]));
        let range: Vec<Row> = (100..120).map(|sk| row(id_of(sk))).collect();
        assert!(w.check(ReadOp::Range { lo: 100 }, &range));
        assert!(!w.check(ReadOp::Range { lo: 100 }, &range[1..]));
        let mut stale = range.clone();
        stale[3][2] = Value::Text("stale".into());
        assert!(!w.check(ReadOp::Range { lo: 100 }, &stale));
    }

    #[test]
    fn write_oracle_counts_every_kind_of_damage() {
        let row = |id: u64, v: i64| -> Row { vec![Value::Int(id as i64), Value::Int(v)] };
        let model = [(1, 10), (2, 20), (3, 30)];
        assert_eq!(
            write_mismatches(&model, &[row(1, 10), row(2, 20), row(3, 30)]),
            0
        );
        // lost insert, stale value, resurrected delete, duplicate
        assert_eq!(write_mismatches(&model, &[row(1, 10), row(3, 30)]), 1);
        assert_eq!(
            write_mismatches(&model, &[row(1, 10), row(2, 21), row(3, 30)]),
            1
        );
        assert_eq!(
            write_mismatches(&model, &[row(1, 10), row(2, 20), row(3, 30), row(4, 40)]),
            1
        );
        assert_eq!(
            write_mismatches(&model, &[row(1, 10), row(2, 20), row(2, 20), row(3, 30)]),
            1
        );
    }
}
