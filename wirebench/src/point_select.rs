//! `point_select`: read-only index point selects over a table that fits
//! the buffer pool, half as prepared Execute and half as plain Query, on
//! `nproc` connections. The fixed per-statement path (framing,
//! admission, session, parse, plan, lifecycle, index probe) is nearly
//! all the work; there is no WAL, scan or join.

use std::sync::Arc;

use aimdb_common::json::Json;
use aimdb_common::Value;
use aimdb_engine::{Database, QueryResult};
use rand::{Rng, SeedableRng, StdRng};

use crate::closed_loop::{self, Plan, Unit, Worker};
use crate::layers::{self, Probe};
use crate::report::{self, fnv, Report, FNV_SEED};
use crate::wire::{Conn, Fail, Sql};
use crate::{analyze, set_up, Opts};

const DDL: [&str; 2] = [
    "CREATE TABLE kv (id INT, a INT, b TEXT)",
    "CREATE INDEX kv_id_idx ON kv (id)",
];
const PREPARED: &str = "SELECT a, b FROM kv WHERE id = ?";

fn plain(key: i64) -> String {
    format!("SELECT a, b FROM kv WHERE id = {key}")
}

/// The seeded table contents: row `id` holds `rows[id]`.
pub fn rows(seed: u64, n: i64) -> Vec<(i64, String)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9017_5E1E);
    (0..n)
        .map(|_| {
            let a = rng.gen_range(0i64..1_000_000_000);
            let b = format!("v{:016x}", rng.gen::<u64>());
            (a, b)
        })
        .collect()
}

fn load(db: &Database, rows: &[(i64, String)]) -> Result<(), String> {
    for sql in DDL {
        db.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
    }
    let data = rows
        .iter()
        .enumerate()
        .map(|(id, (a, b))| {
            vec![
                Value::Int(id as i64),
                Value::Int(*a),
                Value::Text(b.clone()),
            ]
        })
        .collect();
    db.insert_rows("kv", data)
        .map_err(|e| format!("load kv: {e}"))?;
    analyze(db)
}

/// The returned row must be the one the generator wrote for `key`.
pub fn check_row(r: &QueryResult, key: i64, want: &(i64, String)) -> Result<(), String> {
    let expected = [Value::Int(want.0), Value::Text(want.1.clone())];
    match r.rows() {
        [row] if row.values() == expected => Ok(()),
        other => Err(format!("id {key}: got {other:?}, wrote {expected:?}")),
    }
}

/// The key stream of connection `conn`.
fn key_rng(seed: u64, conn: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (0x5E1EC7 + conn as u64 * 0x9E37_79B9))
}

struct PointWorker {
    rng: StdRng,
    rows: Arc<Vec<(i64, String)>>,
    sent: u64,
    violations: Vec<String>,
}

impl Worker for PointWorker {
    fn prepare(&mut self, conn: &mut Conn) -> Result<(), String> {
        conn.client
            .parse("point", PREPARED)
            .map_err(|e| format!("parse: {e}"))
    }

    fn unit(&mut self, conn: &mut Conn) -> Result<Unit, String> {
        let key = self.rng.gen_range(0..self.rows.len() as i64);
        let shape = (self.sent % 2) as usize;
        self.sent += 1;
        let out = if shape == 0 {
            conn.execute("point", &[Value::Int(key)])
        } else {
            conn.sql(&plain(key))
        };
        match out {
            Ok(r) => {
                if let Err(e) = check_row(&r, key, &self.rows[key as usize]) {
                    self.violations.push(e);
                }
                Ok(Unit { shape, ok: true })
            }
            Err(Fail::Shed) => Ok(Unit { shape, ok: false }),
            Err(e) => Err(format!("point select {key}: {e:?}")),
        }
    }
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let connections = report::nproc();
    report::record_host(&mut report, opts.seed, connections);
    let data = Arc::new(rows(opts.seed, opts.sizes.point_rows));
    let mut digest = FNV_SEED;
    let mut stream = key_rng(opts.seed, 0);
    for _ in 0..256 {
        digest = fnv(
            &stream.gen_range(0..opts.sizes.point_rows).to_le_bytes(),
            digest,
        );
    }
    for (a, b) in data.iter().take(256) {
        digest = fnv(b.as_bytes(), fnv(&a.to_le_bytes(), digest));
    }
    report.record("input_digest", Json::Str(format!("{digest:016x}")));

    let stack = set_up(&mut report, opts, |db| load(db, &data))?;
    let loaded = layers::crash_image(&stack.db)?;
    let loaded_len = loaded.len();
    let recovery = layers::RecoveryTimes::start(loaded)?;
    let mut workers: Vec<PointWorker> = (0..connections)
        .map(|c| PointWorker {
            rng: key_rng(opts.seed, c),
            rows: Arc::clone(&data),
            sent: 0,
            violations: Vec::new(),
        })
        .collect();
    let plan = Plan {
        seconds: opts.seconds,
        warmup_s: 0.5,
        units_per_pass: 2000,
        passes: None,
        shapes: 2,
    };
    let addr = stack.server.local_addr();
    let (stats, before) = closed_loop::run(addr, &mut workers, &plan, || {
        layers::counters(&stack.server, &stack.db)
    })?;
    let after = layers::counters(&stack.server, &stack.db);
    stats.count(&mut report);
    for w in &workers {
        for v in w.violations.iter().take(5) {
            report.violation(v.clone());
        }
    }

    if opts.traced {
        layers::report_loop(&mut report, &before, &after, stats.attempted, 0.0, 0.0);
        stats.report_traced(&mut report);
        layers::report_writes(&mut report, &Default::default());
        let mut stream = key_rng(opts.seed, 0);
        let probes: Vec<Probe> = (0..opts.sizes.replay_points)
            .map(|_| Probe {
                label: None,
                sql: plain(stream.gen_range(0..opts.sizes.point_rows)),
                point: true,
            })
            .collect();
        layers::replay_reads(&mut report, &stack.db, addr, &probes)?;
    } else {
        stats.report(&mut report);
    }
    let image = stack.crash(&mut report, loaded_len, recovery, opts.traced)?;

    let (_, recovered, _) = layers::recover(&image)?;
    let n = recovered
        .execute("SELECT COUNT(*) FROM kv")
        .map_err(|e| e.to_string())?;
    if n.scalar().ok() != Some(&Value::Int(opts.sizes.point_rows)) {
        report.violation(format!("recovered kv holds {:?} rows", n.scalar()));
    }
    Ok(report)
}
