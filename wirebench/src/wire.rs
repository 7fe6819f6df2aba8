//! The TPC-C-like transaction set run through one SQL connection.
//!
//! NewOrder, Payment, OrderStatus, Delivery and StockLevel with the
//! statements and 45/43/4/4/4 mix of `tpcc::run_mix` (Payment as
//! `server_load::wire_payment` sends it), so `tpcc_mix` is the macro mix
//! served over TCP. Every transaction is written once against [`Sql`],
//! which the wire client and the engine's own transaction entry points
//! both implement, so the traced run can send the same statements
//! through the engine and time its write path.

use std::collections::BTreeMap;
use std::time::Instant;

use aimdb_bench::tpcc::{TpccScale, Zipf, ORDER_STRIDE};
use aimdb_common::{AimError, Value};
use aimdb_engine::{Database, QueryResult, TxnHandle};
use aimdb_server::{Client, Outcome};
use rand::{Rng, StdRng};

/// Conflict retries before a transaction is abandoned.
pub const MAX_RETRIES: usize = 32;

/// Why a statement did not produce a result.
#[derive(Debug)]
pub enum Fail {
    /// A retryable engine error (first-updater-wins conflict).
    Retry,
    /// The admission gate shed the statement.
    Shed,
    /// Anything else: a defect, which fails the run.
    Fatal(String),
}

fn classify(e: AimError) -> Fail {
    if e.is_retryable() {
        Fail::Retry
    } else {
        Fail::Fatal(e.to_string())
    }
}

/// One SQL connection, whatever carries it.
pub trait Sql {
    fn sql(&mut self, q: &str) -> Result<QueryResult, Fail>;
}

/// A wire client that times each statement it completes.
pub struct Conn {
    pub client: Client,
    /// Latency of each statement that returned a result, in µs.
    pub stmt_us: Vec<f64>,
}

impl Conn {
    pub fn new(client: Client) -> Conn {
        Conn {
            client,
            stmt_us: Vec::new(),
        }
    }

    /// Execute a prepared statement, timed like [`Sql::sql`].
    pub fn execute(&mut self, name: &str, params: &[Value]) -> Result<QueryResult, Fail> {
        let t = Instant::now();
        let out = self.client.execute(name, params);
        self.finish(t, out)
    }

    fn finish(
        &mut self,
        t: Instant,
        out: aimdb_common::Result<Outcome>,
    ) -> Result<QueryResult, Fail> {
        match out {
            Ok(Outcome::Ok(r, _)) => {
                self.stmt_us.push(t.elapsed().as_secs_f64() * 1e6);
                Ok(r)
            }
            Ok(Outcome::Shed(_)) => Err(Fail::Shed),
            Err(e) => Err(classify(e)),
        }
    }
}

impl Sql for Conn {
    fn sql(&mut self, q: &str) -> Result<QueryResult, Fail> {
        let t = Instant::now();
        let out = self.client.query(q);
        self.finish(t, out)
    }
}

/// Per-call times of the engine's write entry points.
#[derive(Debug, Default)]
pub struct EngineTimes {
    pub update_us: Vec<f64>,
    pub insert_us: Vec<f64>,
    pub commit_us: Vec<f64>,
    /// Buffer-pool accesses (hits + misses) of each UPDATE.
    pub update_pages: Vec<f64>,
    /// Every SELECT the transactions ran, for the read-path replay.
    pub selects: Vec<String>,
}

/// The engine's transaction entry points (`begin_txn`, `execute_in`,
/// `commit_txn`) driven by the same statements, timing writes and commits.
pub struct EngineSql<'a> {
    db: &'a Database,
    txn: Option<TxnHandle>,
    pub times: EngineTimes,
}

impl<'a> EngineSql<'a> {
    pub fn new(db: &'a Database) -> EngineSql<'a> {
        EngineSql {
            db,
            txn: None,
            times: EngineTimes::default(),
        }
    }
}

pub fn pool_accesses(db: &Database) -> u64 {
    let s = db.buffer_pool().stats();
    s.hits + s.misses
}

impl Sql for EngineSql<'_> {
    fn sql(&mut self, q: &str) -> Result<QueryResult, Fail> {
        let db = self.db;
        match q {
            "BEGIN" => {
                self.txn = Some(db.begin_txn().map_err(classify)?);
                return Ok(QueryResult::Text("BEGIN".into()));
            }
            "COMMIT" => {
                let h = self
                    .txn
                    .take()
                    .ok_or(Fail::Fatal("COMMIT outside a txn".into()))?;
                let t = Instant::now();
                db.commit_txn(&h).map_err(classify)?;
                self.times.commit_us.push(t.elapsed().as_secs_f64() * 1e6);
                return Ok(QueryResult::Text("COMMIT".into()));
            }
            "ROLLBACK" => {
                if let Some(h) = self.txn.take() {
                    db.rollback_txn(&h).map_err(classify)?;
                }
                return Ok(QueryResult::Text("ROLLBACK".into()));
            }
            _ => {}
        }
        if q.starts_with("SELECT") {
            self.times.selects.push(q.to_string());
        }
        let pages0 = pool_accesses(db);
        let t = Instant::now();
        let out = match &self.txn {
            Some(h) => db.execute_in(h, q),
            None => db.execute(q),
        }
        .map_err(classify)?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        if q.starts_with("UPDATE") {
            self.times.update_us.push(us);
            self.times
                .update_pages
                .push((pool_accesses(db) - pages0) as f64);
        } else if q.starts_with("INSERT") {
            self.times.insert_us.push(us);
        }
        Ok(out)
    }
}

// ------------------------------------------------------------ transactions

/// One transaction of the mix with its drawn parameters.
#[derive(Debug, Clone)]
pub enum Txn {
    NewOrder {
        w: i64,
        dk: i64,
        ck: i64,
        lines: Vec<(i64, i64)>,
    },
    Payment {
        w: i64,
        dk: i64,
        ck: i64,
        amount: i64,
    },
    OrderStatus {
        dk: i64,
    },
    Delivery {
        dk: i64,
        carrier: i64,
    },
    StockLevel {
        w: i64,
        threshold: i64,
    },
}

pub const TXN_KINDS: [&str; 5] = [
    "new_order",
    "payment",
    "order_status",
    "delivery",
    "stock_level",
];

impl Txn {
    /// Index into [`TXN_KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            Txn::NewOrder { .. } => 0,
            Txn::Payment { .. } => 1,
            Txn::OrderStatus { .. } => 2,
            Txn::Delivery { .. } => 3,
            Txn::StockLevel { .. } => 4,
        }
    }

    /// Draw the next transaction with `run_mix`'s weights and parameter
    /// ranges. Payment parameters are drawn in `wire_payment`'s order.
    pub fn draw(rng: &mut StdRng, scale: &TpccScale, zipf: &Zipf) -> Txn {
        let kind = rng.gen_range(0u32..100);
        if (45..88).contains(&kind) {
            let dk = zipf.sample(rng) as i64;
            let ck = scale.c_key(dk, rng.gen_range(0..scale.customers_per_district));
            let amount = rng.gen_range(1i64..5000);
            return Txn::Payment {
                w: dk / scale.districts_per_wh,
                dk,
                ck,
                amount,
            };
        }
        let dk = zipf.sample(rng) as i64;
        let w = dk / scale.districts_per_wh;
        let ck = scale.c_key(dk, rng.gen_range(0..scale.customers_per_district));
        if kind < 45 {
            let n = rng.gen_range(3usize..9);
            let lines = (0..n)
                .map(|_| (rng.gen_range(0..scale.items), rng.gen_range(1i64..10)))
                .collect();
            Txn::NewOrder { w, dk, ck, lines }
        } else if kind < 92 {
            Txn::OrderStatus { dk }
        } else if kind < 96 {
            Txn::Delivery {
                dk,
                carrier: rng.gen_range(1i64..10),
            }
        } else {
            Txn::StockLevel {
                w,
                threshold: rng.gen_range(10i64..80),
            }
        }
    }
}

fn opt_int(r: &QueryResult) -> Result<Option<i64>, Fail> {
    match r.scalar() {
        Ok(Value::Int(n)) => Ok(Some(*n)),
        Ok(Value::Null) => Ok(None),
        Ok(Value::Float(f)) if f.fract() == 0.0 => Ok(Some(*f as i64)),
        other => Err(Fail::Fatal(format!(
            "expected an int scalar, got {other:?}"
        ))),
    }
}

/// Roll back whatever is open; a shed ROLLBACK is resent so the session
/// never keeps a transaction the client gave up on.
fn rollback(c: &mut dyn Sql) {
    for _ in 0..100 {
        match c.sql("ROLLBACK") {
            Err(Fail::Shed) => continue,
            _ => return,
        }
    }
}

/// BEGIN, `body`, COMMIT; rolled back on any failure.
fn in_txn(
    c: &mut dyn Sql,
    body: impl FnOnce(&mut dyn Sql) -> Result<bool, Fail>,
) -> Result<bool, Fail> {
    let out = c
        .sql("BEGIN")
        .and_then(|_| body(c))
        .and_then(|v| c.sql("COMMIT").map(|_| v));
    if out.is_err() {
        rollback(c);
    }
    out
}

/// Run one attempt of `t`. `Ok(true)` for a Delivery means an order was
/// delivered.
pub fn attempt(c: &mut dyn Sql, scale: &TpccScale, t: &Txn) -> Result<bool, Fail> {
    match t {
        Txn::NewOrder { w, dk, ck, lines } => in_txn(c, |c| {
            let q = format!("SELECT d_next_o_id FROM district WHERE d_key = {dk}");
            let o_id = opt_int(&c.sql(&q)?)?
                .ok_or_else(|| Fail::Fatal(format!("district {dk} missing")))?;
            c.sql(&format!(
                "UPDATE district SET d_next_o_id = {} WHERE d_key = {dk}",
                o_id + 1
            ))?;
            let o_key = dk * ORDER_STRIDE + o_id;
            let mut rows = Vec::with_capacity(lines.len());
            for (n, &(item, qty)) in lines.iter().enumerate() {
                let q = format!("SELECT i_price FROM item WHERE i_id = {item}");
                let price = opt_int(&c.sql(&q)?)?
                    .ok_or_else(|| Fail::Fatal(format!("item {item} missing")))?;
                let sk = scale.s_key(*w, item);
                c.sql(&format!(
                    "UPDATE stock SET s_quantity = s_quantity - {qty}, \
                     s_ytd = s_ytd + {qty}, s_order_cnt = s_order_cnt + 1 \
                     WHERE s_key = {sk}"
                ))?;
                rows.push(format!("({o_key}, {n}, {item}, {qty}, {})", qty * price));
            }
            c.sql(&format!(
                "INSERT INTO orders VALUES ({o_key}, {dk}, {o_id}, {ck}, {}, 0)",
                lines.len()
            ))?;
            c.sql(&format!("INSERT INTO order_line VALUES {}", rows.join(",")))?;
            Ok(false)
        }),
        // The statements of `server_load::wire_payment`.
        Txn::Payment { w, dk, ck, amount } => in_txn(c, |c| {
            c.sql(&format!(
                "UPDATE warehouse SET w_ytd = w_ytd + {amount} WHERE w_id = {w}"
            ))?;
            c.sql(&format!(
                "UPDATE district SET d_ytd = d_ytd + {amount} WHERE d_key = {dk}"
            ))?;
            c.sql(&format!(
                "UPDATE customer SET c_balance = c_balance - {amount}, \
                 c_ytd_payment = c_ytd_payment + {amount}, \
                 c_payment_cnt = c_payment_cnt + 1 WHERE c_key = {ck}"
            ))?;
            Ok(false)
        }),
        Txn::OrderStatus { dk } => in_txn(c, |c| {
            let q = format!("SELECT MAX(o_id) FROM orders WHERE o_d_key = {dk}");
            if let Some(o_id) = opt_int(&c.sql(&q)?)? {
                let o_key = dk * ORDER_STRIDE + o_id;
                let r = c.sql(&format!(
                    "SELECT COUNT(*), SUM(ol_amount) FROM order_line WHERE ol_o_key = {o_key}"
                ))?;
                if r.rows().len() != 1 {
                    return Err(Fail::Fatal("order_status: no aggregate row".into()));
                }
            }
            Ok(false)
        }),
        Txn::Delivery { dk, carrier } => in_txn(c, |c| {
            let q = format!("SELECT MIN(o_id) FROM orders WHERE o_d_key = {dk} AND o_carrier = 0");
            let Some(o_id) = opt_int(&c.sql(&q)?)? else {
                return Ok(false);
            };
            let o_key = dk * ORDER_STRIDE + o_id;
            let q = format!("SELECT o_c_key FROM orders WHERE o_key = {o_key}");
            let Some(ck) = opt_int(&c.sql(&q)?)? else {
                return Ok(false);
            };
            c.sql(&format!(
                "UPDATE orders SET o_carrier = {carrier} WHERE o_key = {o_key}"
            ))?;
            let q = format!("SELECT SUM(ol_amount) FROM order_line WHERE ol_o_key = {o_key}");
            let total = opt_int(&c.sql(&q)?)?.unwrap_or(0);
            c.sql(&format!(
                "UPDATE customer SET c_balance = c_balance + {total}, \
                 c_delivery_cnt = c_delivery_cnt + 1 WHERE c_key = {ck}"
            ))?;
            Ok(true)
        }),
        Txn::StockLevel { w, threshold } => c
            .sql(&format!(
                "SELECT COUNT(*) FROM stock WHERE s_w = {w} AND s_quantity < {threshold}"
            ))
            .map(|_| false),
    }
}

/// What one transaction came to, retries included.
#[derive(Debug, Default, Clone, Copy)]
pub struct TxnOutcome {
    pub committed: bool,
    pub shed: bool,
    pub conflicts: u64,
}

/// Retry `once` on conflicts, backing off so the winner can commit, and
/// fold a commit into `tally`. A non-retryable, non-shed error is a
/// defect: `Err`.
fn retry(
    t: &Txn,
    tally: &mut Tally,
    mut once: impl FnMut() -> Result<bool, Fail>,
) -> Result<TxnOutcome, String> {
    let mut out = TxnOutcome::default();
    for n in 0..=MAX_RETRIES {
        match once() {
            Ok(delivered) => {
                out.committed = true;
                tally.commit(t, delivered);
                return Ok(out);
            }
            Err(Fail::Retry) => {
                out.conflicts += 1;
                let backoff_us = (250 * (n as u64 + 1)).min(5000);
                std::thread::sleep(std::time::Duration::from_micros(backoff_us));
            }
            Err(Fail::Shed) => {
                out.shed = true;
                return Ok(out);
            }
            Err(Fail::Fatal(e)) => return Err(format!("{}: {e}", TXN_KINDS[t.kind()])),
        }
    }
    Ok(out)
}

/// Run `t` with client-side conflict retries.
pub fn run(
    c: &mut dyn Sql,
    scale: &TpccScale,
    t: &Txn,
    tally: &mut Tally,
) -> Result<TxnOutcome, String> {
    retry(t, tally, || attempt(c, scale, t))
}

/// The client's own account of acknowledged commits, checked against the
/// database after recovery.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// District key → orders committed by NewOrder.
    pub new_orders: BTreeMap<i64, i64>,
    /// Warehouse → YTD paid in.
    pub ytd: BTreeMap<i64, i64>,
    /// Deliveries that delivered an order.
    pub deliveries: i64,
}

impl Tally {
    fn commit(&mut self, t: &Txn, delivered: bool) {
        match t {
            Txn::NewOrder { dk, .. } => *self.new_orders.entry(*dk).or_default() += 1,
            Txn::Payment { w, amount, .. } => *self.ytd.entry(*w).or_default() += amount,
            Txn::Delivery { .. } if delivered => self.deliveries += 1,
            _ => {}
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        for (k, v) in &other.new_orders {
            *self.new_orders.entry(*k).or_default() += v;
        }
        for (k, v) in &other.ytd {
            *self.ytd.entry(*k).or_default() += v;
        }
        self.deliveries += other.deliveries;
    }

    /// Orders per district, YTD per warehouse and delivered orders in
    /// `db` must be exactly the loaded state plus this tally.
    pub fn check(&self, db: &Database, scale: &TpccScale) -> Result<(), String> {
        let rows = |sql: &str| -> Result<Vec<(i64, i64)>, String> {
            let r = db.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
            r.rows()
                .iter()
                .map(|row| match (row.get(0), row.get(1)) {
                    (Value::Int(a), Value::Int(b)) => Ok((*a, *b)),
                    other => Err(format!("{sql}: unexpected row {other:?}")),
                })
                .collect()
        };
        let init = scale.initial_orders_per_district;
        let orders =
            rows("SELECT o_d_key, COUNT(*) FROM orders GROUP BY o_d_key ORDER BY o_d_key")?;
        if orders.len() != scale.districts() as usize {
            return Err(format!(
                "{} districts hold orders, expected {}",
                orders.len(),
                scale.districts()
            ));
        }
        for (dk, n) in orders {
            let want = init + self.new_orders.get(&dk).copied().unwrap_or(0);
            if n != want {
                return Err(format!(
                    "district {dk}: {n} orders, acknowledged commits imply {want}"
                ));
            }
        }
        for (w, ytd) in rows("SELECT w_id, w_ytd FROM warehouse ORDER BY w_id")? {
            let want = self.ytd.get(&w).copied().unwrap_or(0);
            if ytd != want {
                return Err(format!(
                    "warehouse {w}: w_ytd {ytd}, acknowledged payments sum to {want}"
                ));
            }
        }
        let delivered = rows("SELECT COUNT(*), COUNT(*) FROM orders WHERE o_carrier > 0")?;
        let preloaded = scale.districts() * (init - init / 3);
        let want = preloaded + self.deliveries;
        if delivered.first().map(|r| r.0) != Some(want) {
            return Err(format!(
                "{delivered:?} delivered orders, acknowledged deliveries imply {want}"
            ));
        }
        Ok(())
    }
}
