//! `ssb_scan`: the 12-query SSB family of `tpch::queries()` over one
//! connection in back-to-back passes, the fact table several times the
//! buffer pool, default `exec_parallelism`. The executor, morsel
//! parallelism, joins and aggregation dominate; parse, plan and wire are
//! under 1%. Its recovery restores a checkpoint with no redo tail.

use std::collections::HashMap;

use aimdb_bench::tpch;
use aimdb_common::json::Json;
use aimdb_engine::QueryResult;

use crate::closed_loop::{self, Plan, Unit, Worker};
use crate::layers::{self, Probe};
use crate::report::{self, fnv, Report, FNV_SEED};
use crate::wire::{Conn, Fail, Sql};
use crate::{set_up, Opts};

/// Order-insensitive fingerprint of a result's rows.
pub fn fingerprint(r: &QueryResult) -> u64 {
    let mut rows: Vec<String> = r
        .rows()
        .iter()
        .map(|row| format!("{:?}", row.values()))
        .collect();
    rows.sort();
    rows.iter()
        .fold(FNV_SEED, |h, row| fnv(row.as_bytes(), fnv(b"\n", h)))
}

/// Each query's fingerprint must repeat across passes.
#[derive(Default)]
pub struct Fingerprints {
    seen: HashMap<&'static str, u64>,
    pub violations: Vec<String>,
}

impl Fingerprints {
    pub fn observe(&mut self, name: &'static str, fp: u64, path: &str) {
        match self.seen.get(name) {
            Some(prev) if *prev != fp => self.violations.push(format!(
                "{name}: {path} fingerprint {fp:016x} differs from {prev:016x}"
            )),
            Some(_) => {}
            None => {
                self.seen.insert(name, fp);
            }
        }
    }
}

struct SsbWorker {
    queries: Vec<(&'static str, String)>,
    next: usize,
    fingerprints: Fingerprints,
}

impl Worker for SsbWorker {
    fn unit(&mut self, conn: &mut Conn) -> Result<Unit, String> {
        let shape = self.next % self.queries.len();
        self.next += 1;
        let (name, sql) = &self.queries[shape];
        match conn.sql(sql) {
            Ok(r) => {
                self.fingerprints.observe(name, fingerprint(&r), "wire");
                Ok(Unit { shape, ok: true })
            }
            Err(Fail::Shed) => Ok(Unit { shape, ok: false }),
            Err(e) => Err(format!("{name}: {e:?}")),
        }
    }
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let scale = &opts.sizes.tpch;
    report::record_host(&mut report, opts.seed, 1);
    let stack = set_up(&mut report, opts, |db| tpch::load(db, scale, opts.seed))?;
    let db = &stack.db;
    let loaded = layers::crash_image(db)?;
    let loaded_len = loaded.len();
    let recovery = layers::RecoveryTimes::start(loaded)?;
    let sums = db
        .execute("SELECT SUM(lo_rev), SUM(lo_cust), SUM(lo_date) FROM lineorder")
        .map_err(|e| e.to_string())?;
    report.record(
        "input_digest",
        Json::Str(format!("{:016x}", fingerprint(&sums))),
    );

    let queries = tpch::queries();
    let mut workers = [SsbWorker {
        queries: queries.clone(),
        next: 0,
        fingerprints: Fingerprints::default(),
    }];
    let plan = Plan {
        seconds: opts.seconds,
        warmup_s: 1.0,
        passes: None,
        units_per_pass: queries.len(),
        shapes: queries.len(),
    };
    let addr = stack.server.local_addr();
    let (stats, before) = closed_loop::run(addr, &mut workers, &plan, || {
        layers::counters(&stack.server, db)
    })?;
    let after = layers::counters(&stack.server, db);
    stats.count(&mut report);
    let [worker] = workers;
    let mut fps = worker.fingerprints;
    // The wire results must equal an in-process execution.
    for (name, sql) in &queries {
        let r = db.execute(sql).map_err(|e| format!("{name}: {e}"))?;
        fps.observe(name, fingerprint(&r), "in-process");
    }

    if opts.traced {
        layers::report_loop(&mut report, &before, &after, stats.attempted, 0.0, 0.0);
        stats.report_traced(&mut report);
        layers::report_writes(&mut report, &Default::default());
        let probes: Vec<Probe> = queries
            .iter()
            .map(|(name, sql)| Probe {
                label: Some(name),
                sql: sql.clone(),
                point: false,
            })
            .collect();
        layers::replay_reads(&mut report, db, addr, &probes)?;
    } else {
        stats.report(&mut report);
    }
    let image = stack.crash(&mut report, loaded_len, recovery, opts.traced)?;

    let (_, recovered, _) = layers::recover(&image)?;
    for (name, sql) in queries.iter().take(3) {
        let r = recovered.execute(sql).map_err(|e| format!("{name}: {e}"))?;
        fps.observe(name, fingerprint(&r), "recovered");
    }
    for v in fps.violations.iter().take(5) {
        report.violation(v.clone());
    }
    Ok(report)
}
