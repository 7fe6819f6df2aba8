//! `tpcc_mix`: the 45/43/4/4/4 TPC-C-like mix of `tpcc::run_mix` served
//! over TCP to one writer, Zipfian districts, conflicts retried by the
//! client. DML row selection, commit and the WAL flush, checkpoints and
//! redo do most of their work here. With one writer there are no write
//! conflicts, lock waits or group-commit batching. The run ends by
//! killing the server and recovering the store it leaves.

use std::time::Instant;

use aimdb_bench::tpcc::{self, TpccScale, Zipf};
use aimdb_common::json::Json;
use aimdb_engine::Database;
use rand::{SeedableRng, StdRng};

use crate::closed_loop::{self, LoopStats, Plan, Unit, Worker};
use crate::layers::{self, Probe};
use crate::report::{self, fnv, Report, FNV_SEED};
use crate::wire::{self, Conn, EngineSql, Tally, Txn, TXN_KINDS};
use crate::{analyze, set_up, Opts, Stack};

/// District skew, as `macro_bench` runs the mix.
const ZIPF_THETA: f64 = 0.8;

/// Client connections. One, below `nproc`: with two, the admission
/// tuner's limit flips between one and two statements in flight, which
/// moved throughput and latency by 30-60% between runs (and by seed),
/// while one connection reaches the same throughput.
const CONNECTIONS: usize = 1;

fn txn_rng(seed: u64, conn: usize, round: u32) -> StdRng {
    let stream = conn as u64 + (u64::from(round) << 32);
    StdRng::seed_from_u64(seed ^ (0xA11CE + stream.wrapping_mul(0x9E37_79B9)))
}

struct TpccWorker<'a> {
    scale: &'a TpccScale,
    rng: StdRng,
    zipf: Zipf,
    tally: Tally,
    conflicts: u64,
    sheds: u64,
    /// Acknowledged COMMITs (StockLevel runs in autocommit).
    commits: u64,
}

impl<'a> TpccWorker<'a> {
    fn new(scale: &'a TpccScale, seed: u64, conn: usize, round: u32) -> TpccWorker<'a> {
        TpccWorker {
            scale,
            rng: txn_rng(seed, conn, round),
            zipf: Zipf::new(scale.districts() as usize, ZIPF_THETA),
            tally: Tally::default(),
            conflicts: 0,
            sheds: 0,
            commits: 0,
        }
    }
}

impl Worker for TpccWorker<'_> {
    fn unit(&mut self, conn: &mut Conn) -> Result<Unit, String> {
        let t = Txn::draw(&mut self.rng, self.scale, &self.zipf);
        let out = wire::run(conn, self.scale, &t, &mut self.tally)?;
        self.conflicts += out.conflicts;
        self.sheds += u64::from(out.shed);
        if out.committed && !matches!(t, Txn::StockLevel { .. }) {
            self.commits += 1;
        }
        Ok(Unit {
            shape: t.kind(),
            ok: out.committed,
        })
    }
}

/// The log a fixed amount of work leaves: the start of connection 0's
/// stream, run on one thread through the engine against a fresh load
/// until it has appended `recovery_records` log records. Recovery is
/// timed on this log, not on the measured run's, so a faster commit path
/// (a longer log in the same time) cannot read as a slower recovery, and
/// the log holds the same number of checkpoint images on every seed.
fn fixed_work_log(opts: &Opts) -> Result<Vec<u8>, String> {
    let scale = &opts.sizes.tpcc;
    let db = Database::new();
    tpcc::load(&db, scale, opts.seed)?;
    analyze(&db)?;
    db.checkpoint_now()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let mut stream = TpccWorker::new(scale, opts.seed, 0, 0);
    let mut engine = EngineSql::new(&db);
    let start = db.wal.next_lsn();
    while db.wal.next_lsn() - start < opts.sizes.recovery_records {
        let t = Txn::draw(&mut stream.rng, scale, &stream.zipf);
        wire::run(&mut engine, scale, &t, &mut stream.tally)?;
    }
    layers::crash_image(&db)
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let scale = &opts.sizes.tpcc;
    report::record_host(&mut report, opts.seed, CONNECTIONS);
    let mut digest = FNV_SEED;
    let mut probe = TpccWorker::new(scale, opts.seed, 0, 0);
    for _ in 0..64 {
        let t = Txn::draw(&mut probe.rng, scale, &probe.zipf);
        digest = fnv(format!("{t:?}").as_bytes(), digest);
    }
    report.record("input_digest", Json::Str(format!("{digest:016x}")));
    report.record(
        "txn_kinds",
        Json::Arr(TXN_KINDS.iter().map(|k| Json::Str(k.to_string())).collect()),
    );

    let load = |db: &Database| {
        tpcc::load(db, scale, opts.seed)?;
        analyze(db)
    };
    let mut stack = set_up(&mut report, opts, load)?;
    let recovery = layers::RecoveryTimes::start(fixed_work_log(opts)?)?;

    // Fixed-work rounds: each runs the same number of transactions, from
    // a seeded stream of its own, on a freshly loaded database, so every
    // round's passes see the same table sizes whatever the throughput.
    // Rounds repeat until the next one would end after `seconds`.
    let plan = Plan {
        seconds: opts.seconds,
        warmup_s: 0.0,
        units_per_pass: 100,
        passes: Some(opts.sizes.round_passes),
        shapes: TXN_KINDS.len(),
    };
    let mut stats = LoopStats::default();
    let started = Instant::now();
    let mut rounds = 0;
    let (workers, before, after, loaded_len) = loop {
        let round = Instant::now();
        let loaded_len = stack.db.disk().wal_len();
        let mut workers: Vec<TpccWorker> = (0..CONNECTIONS)
            .map(|c| TpccWorker::new(scale, opts.seed, c, rounds))
            .collect();
        let (s, before) = closed_loop::run(stack.server.local_addr(), &mut workers, &plan, || {
            layers::counters(&stack.server, &stack.db)
        })?;
        let after = layers::counters(&stack.server, &stack.db);
        stats.absorb(s);
        rounds += 1;
        let left = opts.seconds - started.elapsed().as_secs_f64();
        if left < round.elapsed().as_secs_f64() {
            break (workers, before, after, loaded_len);
        }
        stack
            .server
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        stack = Stack::build(load)?;
    };
    report.record("rounds", Json::Num(f64::from(rounds)));
    stats.count(&mut report);
    // The checks and the traced counters cover the last round: the
    // database the server leaves behind.
    let db = &stack.db;
    let mut tally = Tally::default();
    for w in &workers {
        tally.merge(&w.tally);
    }
    let conflicts: u64 = workers.iter().map(|w| w.conflicts).sum();
    let commits: u64 = workers.iter().map(|w| w.commits).sum();
    let sheds: u64 = workers.iter().map(|w| w.sheds).sum();
    report.record("shed_txns", Json::Num(sheds as f64));
    report.record("conflicts", Json::Num(conflicts as f64));

    if opts.traced {
        let units = workers.len() * plan.units_per_pass * opts.sizes.round_passes;
        layers::report_loop(
            &mut report,
            &before,
            &after,
            units as u64,
            commits as f64,
            conflicts as f64,
        );
        stats.report_traced(&mut report);
        // The start of connection 0's stream, through the engine's own
        // transaction entry points, then its reads through every layer.
        let mut replay = TpccWorker::new(scale, opts.seed, 0, 0);
        let mut engine = EngineSql::new(db);
        for _ in 0..opts.sizes.replay_txns {
            let t = Txn::draw(&mut replay.rng, scale, &replay.zipf);
            wire::run(&mut engine, scale, &t, &mut tally)?;
        }
        layers::report_writes(&mut report, &engine.times);
        let probes: Vec<Probe> = engine
            .times
            .selects
            .iter()
            .map(|sql| Probe {
                label: None,
                point: !sql.contains('(') && !sql.contains(" AND "),
                sql: sql.clone(),
            })
            .collect();
        layers::replay_reads(&mut report, db, stack.server.local_addr(), &probes)?;
    } else {
        stats.report(&mut report);
    }
    if let Err(e) = tpcc::check_invariants(db, scale) {
        report.violation(format!("before the crash: {e}"));
    }

    let image = stack.crash(&mut report, loaded_len, recovery, opts.traced)?;

    // Every acknowledged commit survives the crash.
    let (_, recovered, _) = layers::recover(&image)?;
    if let Err(e) = tpcc::check_invariants(&recovered, scale) {
        report.violation(format!("after recovery: {e}"));
    }
    if let Err(e) = tally.check(&recovered, scale) {
        report.violation(format!("after recovery: {e}"));
    }
    Ok(report)
}
