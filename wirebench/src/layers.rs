//! The traced run's per-layer split, timed from outside the program
//! around calls into each layer's public functions, plus the crash →
//! recover step every workload ends with.
//!
//! A layer's self time is the difference between nested calls on the
//! same statement: `Client::query` ⊃ `Session::dispatch` ⊃
//! `Database::execute` ⊃ `parse_one` + `Database::plan` +
//! `Database::run_plan`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use aimdb_common::json::Json;
use aimdb_common::{wait, Value, WaitClass, WaitSet};
use aimdb_engine::{Database, QueryResult, RecoveryReport};
use aimdb_server::{protocol, AdmissionStats, Client, Server, Session, TunerStats};
use aimdb_sql::parser::parse_one;
use aimdb_sql::Statement;
use aimdb_storage::wal::{scan_wal, LogRecord};
use aimdb_storage::{BufferStats, Disk, PageStore};

use crate::report::{geomean, median, quantile, ratio, Report};
use crate::wire::{pool_accesses, EngineTimes};

/// The SSB query names, whose `run_plan` times are reported one by one.
pub fn ssb_query_names() -> Vec<&'static str> {
    aimdb_bench::tpch::queries()
        .into_iter()
        .map(|(n, _)| n)
        .collect()
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Counters the program keeps, read through their public accessors.
pub struct Counters {
    admission: AdmissionStats,
    tuner: TunerStats,
    waits: WaitSet,
    pool: BufferStats,
    flushes: u64,
    wal_bytes: usize,
    /// The gate's statement limit, as the tuner last set it.
    limit: usize,
}

pub fn counters(server: &Server, db: &Database) -> Counters {
    Counters {
        admission: server.admission_stats(),
        tuner: server.tuner_stats(),
        waits: wait::global_totals(),
        pool: db.buffer_pool().stats(),
        flushes: db.wal_flush_count(),
        wal_bytes: db.disk().wal_len(),
        limit: server.admission_limits().max_statements,
    }
}

/// Per-layer counters over the measured loop. Waits are per 1000 units
/// of work (statements, transactions or queries); `commits` counts the
/// acknowledged COMMITs and `conflicts` the client's retries.
pub fn report_loop(
    report: &mut Report,
    before: &Counters,
    after: &Counters,
    units: u64,
    commits: f64,
    conflicts: f64,
) {
    let (a, b) = (&after.admission, &before.admission);
    let decided = (a.admitted + a.rejected - b.admitted - b.rejected) as f64;
    report.metric(
        "server.admission_queued_frac",
        ratio((a.queued - b.queued) as f64, decided),
        "frac",
    );
    report.metric(
        "server.shed_frac",
        ratio((a.rejected - b.rejected) as f64, decided),
        "frac",
    );
    report.metric(
        "ai4db.tuner_shrinks",
        (after.tuner.shrinks - before.tuner.shrinks) as f64,
        "count",
    );
    report.metric(
        "ai4db.tuner_grows",
        (after.tuner.grows - before.tuner.grows) as f64,
        "count",
    );
    // Set-up and warm-up actuations fall outside the measured loop.
    report.record(
        "tuner",
        Json::obj(vec![
            ("shrinks_since_start", Json::Num(after.tuner.shrinks as f64)),
            ("grows_since_start", Json::Num(after.tuner.grows as f64)),
            ("statement_limit_at_start", Json::Num(before.limit as f64)),
            ("statement_limit_at_end", Json::Num(after.limit as f64)),
        ]),
    );
    let hits = (after.pool.hits - before.pool.hits) as f64;
    let misses = (after.pool.misses - before.pool.misses) as f64;
    report.metric(
        "storage.buffer_hit_rate",
        ratio(hits, hits + misses),
        "frac",
    );
    report.metric(
        "storage.fsyncs_per_commit",
        ratio((after.flushes - before.flushes) as f64, commits),
        "count",
    );
    report.metric(
        "storage.wal_bytes_per_commit",
        ratio((after.wal_bytes - before.wal_bytes) as f64, commits),
        "B",
    );
    report.metric(
        "engine.conflicts_per_txn",
        ratio(conflicts, units as f64),
        "count",
    );
    let per_1k = 1000.0 / (units.max(1) as f64);
    let waits = after.waits.delta_since(&before.waits);
    for class in WaitClass::ALL {
        report.metric(
            &format!("wait.{}_ms", class.name()),
            waits.ns[class.idx()] as f64 / 1e6 * per_1k,
            "ms",
        );
    }
}

/// The engine write-path times of a replayed transaction stream.
pub fn report_writes(report: &mut Report, t: &EngineTimes) {
    report.metric("engine.update_us_p50", median(&t.update_us), "us");
    report.metric("engine.update_us_p99", quantile(&t.update_us, 0.99), "us");
    report.metric("engine.insert_us", median(&t.insert_us), "us");
    report.metric("engine.commit_us_p50", median(&t.commit_us), "us");
    report.metric("engine.commit_us_p99", quantile(&t.commit_us, 0.99), "us");
    let pages = t.update_pages.iter().sum::<f64>();
    report.metric(
        "storage.pages_per_update",
        ratio(pages, t.update_pages.len() as f64),
        "count",
    );
}

/// A read statement for the layer split; `label` names an SSB query.
pub struct Probe {
    pub label: Option<&'static str>,
    pub sql: String,
    /// An index point select, counted for `storage.pages_per_point_select`.
    pub point: bool,
}

#[derive(Default)]
struct ProbeTimes {
    wire: f64,
    session: f64,
    execute: f64,
    execute_untraced: f64,
    parse: f64,
    plan: f64,
    run: f64,
    run_serial: f64,
    codec: f64,
    pages: f64,
}

/// Run `f` with knob `name` set to `value`, then restore it.
fn with_knob(
    db: &Database,
    name: &str,
    value: i64,
    f: impl FnOnce() -> Result<(), String>,
) -> Result<(), String> {
    let set = |v: i64| {
        db.knobs
            .set(name, &Value::Int(v))
            .map(|_| ())
            .map_err(|e| format!("SET {name}: {e}"))
    };
    let prev = db.knobs.get(name).map_err(|e| e.to_string())?;
    set(value)?;
    let out = f();
    set(prev)?;
    out
}

fn select_of(sql: &str) -> Result<aimdb_sql::ast::Select, String> {
    match parse_one(sql).map_err(|e| format!("{sql}: {e}"))? {
        Statement::Select(s) => Ok(s),
        _ => Err(format!("not a SELECT: {sql}")),
    }
}

/// Replay read statements one at a time on one wire connection, an
/// in-process `Session` and the engine entry points, and report the
/// layer split. Every path must return the same result bytes.
pub fn replay_reads(
    report: &mut Report,
    db: &Database,
    addr: SocketAddr,
    probes: &[Probe],
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut session = Session::new(u64::MAX);
    let mut times: Vec<ProbeTimes> = Vec::with_capacity(probes.len());
    for p in probes {
        let mut t = ProbeTimes::default();
        let t0 = Instant::now();
        let wire = client
            .query(&p.sql)
            .and_then(|o| o.expect_result())
            .map_err(|e| format!("wire {}: {e}", p.sql))?
            .0;
        t.wire = us(t0);
        let t0 = Instant::now();
        let via_session = session
            .dispatch(db, &p.sql)
            .map_err(|e| format!("session: {e}"))?;
        t.session = us(t0);
        let pages0 = pool_accesses(db);
        let t0 = Instant::now();
        let executed = db.execute(&p.sql).map_err(|e| format!("execute: {e}"))?;
        t.execute = us(t0);
        t.pages = (pool_accesses(db) - pages0) as f64;
        let t0 = Instant::now();
        let sel = select_of(&p.sql)?;
        t.parse = us(t0);
        let t0 = Instant::now();
        let plan = db.plan(&sel).map_err(|e| format!("plan: {e}"))?;
        t.plan = us(t0);
        let t0 = Instant::now();
        let ran = db.run_plan(&plan).map_err(|e| format!("run_plan: {e}"))?;
        t.run = us(t0);
        let t0 = Instant::now();
        let bytes = protocol::encode_result(&ran);
        let decoded = protocol::decode_result(&bytes).map_err(|e| format!("decode: {e}"))?;
        t.codec = us(t0);
        let same = |r: &QueryResult| protocol::encode_result(r) == bytes;
        if !(same(&wire) && same(&via_session) && same(&executed) && same(&decoded)) {
            report.violation(format!("paths disagree on the result of {}", p.sql));
        }
        times.push(t);
    }
    let _ = client.close();

    // The engine's own tracing, off for one pass (the knob is on by default).
    with_knob(db, "query_tracing", 0, || {
        for (p, t) in probes.iter().zip(times.iter_mut()) {
            let t0 = Instant::now();
            db.execute(&p.sql).map_err(|e| format!("execute: {e}"))?;
            t.execute_untraced = us(t0);
        }
        Ok(())
    })?;
    // Serial execution, against the default worker count above.
    with_knob(db, "exec_parallelism", 1, || {
        for (p, t) in probes.iter().zip(times.iter_mut()) {
            let plan = db
                .plan(&select_of(&p.sql)?)
                .map_err(|e| format!("plan: {e}"))?;
            let t0 = Instant::now();
            db.run_plan(&plan).map_err(|e| format!("run_plan: {e}"))?;
            t.run_serial = us(t0);
        }
        Ok(())
    })?;

    let col = |f: &dyn Fn(&ProbeTimes) -> f64| -> Vec<f64> { times.iter().map(f).collect() };
    report.metric(
        "server.wire_us",
        median(&col(&|t| t.wire - t.session)),
        "us",
    );
    report.metric(
        "server.session_us",
        median(&col(&|t| t.session - t.execute)),
        "us",
    );
    report.metric("server.codec_us", median(&col(&|t| t.codec)), "us");
    report.metric("sql.parse_us", median(&col(&|t| t.parse)), "us");
    report.metric("engine.plan_us", median(&col(&|t| t.plan)), "us");
    report.metric("engine.exec_us", median(&col(&|t| t.run)), "us");
    report.metric(
        "engine.lifecycle_us",
        median(&col(&|t| t.execute - t.parse - t.plan - t.run)),
        "us",
    );
    report.metric(
        "engine.trace_overhead_us",
        median(&col(&|t| t.execute - t.execute_untraced)),
        "us",
    );
    report.metric(
        "engine.parallel_speedup",
        geomean(&col(&|t| ratio(t.run_serial, t.run))),
        "ratio",
    );
    let point: Vec<f64> = probes
        .iter()
        .zip(&times)
        .filter(|(p, _)| p.point)
        .map(|(_, t)| t.pages)
        .collect();
    report.metric(
        "storage.pages_per_point_select",
        ratio(point.iter().sum(), point.len() as f64),
        "count",
    );
    for name in ssb_query_names() {
        let runs: Vec<f64> = probes
            .iter()
            .zip(&times)
            .filter(|(p, _)| p.label == Some(name))
            .map(|(_, t)| t.run / 1e3)
            .collect();
        report.metric(&format!("engine.exec_ms.{name}"), median(&runs), "ms");
    }
    Ok(())
}

/// Checkpoint records the measured run appended (`run_log` is the log
/// bytes written after set-up), `Table::visibility` on the largest table
/// and one `checkpoint_now`, on the database as the run left it.
pub fn report_end_of_run(report: &mut Report, db: &Database, run_log: &[u8]) -> Result<(), String> {
    let checkpoints = scan_wal(run_log)
        .records
        .iter()
        .filter(|(_, r)| matches!(r, LogRecord::Checkpoint(_)))
        .count();
    report.metric("engine.checkpoints", checkpoints as f64, "count");
    let mut largest = None;
    for name in db.catalog.table_names() {
        let t = db.catalog.table(&name).map_err(|e| e.to_string())?;
        let rows = t.row_count().map_err(|e| e.to_string())?;
        if largest.as_ref().is_none_or(|(n, _)| rows > *n) {
            largest = Some((rows, t));
        }
    }
    let (_, table) = largest.ok_or("no tables")?;
    let mut vis = Vec::new();
    for _ in 0..50 {
        let t0 = Instant::now();
        std::hint::black_box(table.visibility(None).map_err(|e| e.to_string())?);
        vis.push(us(t0));
    }
    report.metric("engine.visibility_us", median(&vis), "us");
    let mut cp = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        db.checkpoint_now()
            .map_err(|e| format!("checkpoint: {e}"))?;
        cp.push(us(t0) / 1e3);
    }
    report.metric("engine.checkpoint_ms", median(&cp), "ms");
    Ok(())
}

/// A crash image: the bytes of the log that reached the store. Buffered
/// pages and any unflushed log tail are lost, as in a killed process.
pub fn crash_image(db: &Database) -> Result<Vec<u8>, String> {
    db.disk().wal_bytes().map_err(|e| format!("wal bytes: {e}"))
}

/// `Database::recover` over a fresh store holding `image`.
pub fn recover(image: &[u8]) -> Result<(f64, Database, RecoveryReport), String> {
    let disk = Disk::new();
    disk.wal_append(image)
        .map_err(|e| format!("wal append: {e}"))?;
    let store: Arc<dyn PageStore> = Arc::new(disk);
    let t0 = Instant::now();
    let (db, rep) = Database::recover(store).map_err(|e| format!("recover: {e}"))?;
    Ok((t0.elapsed().as_secs_f64(), db, rep))
}

/// `Database::recover` times of one fixed crash image, sampled in two
/// windows, before and after the measured loop: the host's speed drifts
/// over seconds, and windows half a minute apart even that out.
pub struct RecoveryTimes {
    image: Vec<u8>,
    secs: Vec<f64>,
    last: Option<RecoveryReport>,
}

impl RecoveryTimes {
    /// Take the first window on `image`.
    pub fn start(image: Vec<u8>) -> Result<RecoveryTimes, String> {
        let mut times = RecoveryTimes {
            image,
            secs: Vec::new(),
            last: None,
        };
        times.sample()?;
        Ok(times)
    }

    /// One window: recover at least twice and for at least 2 s.
    fn sample(&mut self) -> Result<(), String> {
        let (mut n, mut spent) = (0, 0.0);
        while n < 2 || spent < 2.0 {
            let (s, _, rep) = recover(&self.image)?;
            self.secs.push(s);
            self.last = Some(rep);
            n += 1;
            spent += s;
        }
        Ok(())
    }

    /// Take the second window and report `recovery_s` (the median), or
    /// with `traced` the recovery layer's split.
    pub fn finish(mut self, report: &mut Report, traced: bool) -> Result<(), String> {
        self.sample()?;
        let rep = self.last.as_ref().ok_or("no recovery ran")?;
        let recovery_s = median(&self.secs);
        if !traced {
            report.metric("recovery_s", recovery_s, "s");
            return Ok(());
        }
        let mut scans = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            std::hint::black_box(scan_wal(&self.image));
            scans.push(us(t0) / 1e3);
        }
        report.metric("recovery.scan_ms", median(&scans), "ms");
        report.metric("recovery.log_records", rep.total_records as f64, "count");
        report.metric("recovery.replayed_records", rep.replayed as f64, "count");
        report.metric(
            "recovery.us_per_record",
            ratio(recovery_s * 1e6, rep.total_records as f64),
            "us",
        );
        Ok(())
    }
}
