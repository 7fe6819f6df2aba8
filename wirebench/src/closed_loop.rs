//! A closed loop over wire connections: each connection's thread sends
//! its next unit of work only when the previous one has completed.
//!
//! Each connection's stream is cut into passes of a fixed number of
//! units. Rates and latency quantiles are computed per pass and reported
//! as the median over all passes, so a stall of a few passes (a
//! checkpoint, a neighbour on the host) moves the result less than it
//! would move one quantile over the whole run.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Instant;

use aimdb_common::json::Json;
use aimdb_server::Client;

use crate::report::{geomean, median, quantile, ratio, Report};
use crate::wire::Conn;

/// One completed unit of work (a statement, a transaction or a query).
pub struct Unit {
    /// Which of the workload's statement or transaction shapes it was.
    pub shape: usize,
    pub ok: bool,
}

/// A connection's seeded stream of work.
pub trait Worker: Send {
    /// Per-connection preparation before warm-up (e.g. Parse).
    fn prepare(&mut self, _conn: &mut Conn) -> Result<(), String> {
        Ok(())
    }

    /// Run the next unit. `Err` is a defect and fails the run.
    fn unit(&mut self, conn: &mut Conn) -> Result<Unit, String>;
}

/// Shape of one measured loop.
pub struct Plan {
    pub seconds: f64,
    /// Unmeasured lead-in, so caches fill and the admission tuner settles.
    pub warmup_s: f64,
    /// Units in one pass of a connection's stream. The measured window
    /// ends at the first pass boundary after `seconds`.
    pub units_per_pass: usize,
    /// When set, each connection measures exactly this many passes
    /// instead, whatever they take (fixed work).
    pub passes: Option<usize>,
    pub shapes: usize,
}

/// One connection's pass: its wall time and the latencies inside it.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    pub secs: f64,
    /// Latency of each successful unit, ms.
    pub unit_ms: Vec<f64>,
    /// Latency of each statement that returned a result, µs.
    pub stmt_us: Vec<f64>,
}

#[derive(Debug, Default)]
pub struct LoopStats {
    pub connections: usize,
    pub attempted: u64,
    pub failed: u64,
    pub passes: Vec<Pass>,
    /// Unit latencies by shape over the whole window, ms.
    pub shape_ms: Vec<Vec<f64>>,
}

impl LoopStats {
    /// Fold in another connection's or another round's stats.
    pub fn absorb(&mut self, other: LoopStats) {
        self.connections = self.connections.max(other.connections);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.passes.extend(other.passes);
        if self.shape_ms.len() < other.shape_ms.len() {
            self.shape_ms.resize(other.shape_ms.len(), Vec::new());
        }
        for (mine, theirs) in self.shape_ms.iter_mut().zip(other.shape_ms) {
            mine.extend(theirs);
        }
    }

    /// Median over passes of `f`.
    fn per_pass(&self, f: impl Fn(&Pass) -> f64) -> f64 {
        median(&self.passes.iter().map(f).collect::<Vec<_>>())
    }

    pub fn stmt_p50_us(&self) -> f64 {
        self.per_pass(|p| median(&p.stmt_us))
    }

    pub fn txn_p50_ms(&self) -> f64 {
        self.per_pass(|p| median(&p.unit_ms))
    }

    /// The traced run's own latencies, to set against the untraced run's:
    /// the difference is the tracing overhead.
    pub fn report_traced(&self, report: &mut Report) {
        report.metric("traced.stmt_p50_us", self.stmt_p50_us(), "us");
        report.metric("traced.txn_p50_ms", self.txn_p50_ms(), "ms");
    }

    /// Count the loop's units as the run's attempts and failures.
    pub fn count(&self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
    }

    /// The end-to-end metrics every workload reports.
    pub fn report(&self, report: &mut Report) {
        // Every connection runs the same stream shape, so the total rate
        // is the per-connection pass rate times the connections.
        let conns = self.connections as f64;
        report.metric(
            "stmt_per_s",
            conns * self.per_pass(|p| p.stmt_us.len() as f64 / p.secs),
            "1/s",
        );
        report.metric("stmt_p50_us", self.stmt_p50_us(), "us");
        report.metric(
            "txn_per_s",
            conns * self.per_pass(|p| p.unit_ms.len() as f64 / p.secs),
            "1/s",
        );
        // These go to the record, not the metrics, as they spread beyond
        // any bound between runs. The p99s follow CPU contention from
        // outside the process on a shared host. In `tpcc_mix` the p50
        // lies between the Payment and NewOrder latency modes, in the
        // upper tail of the shorter transactions.
        report.record(
            "unbounded_latency",
            Json::obj(vec![
                (
                    "stmt_p99_us",
                    Json::Num(self.per_pass(|p| quantile(&p.stmt_us, 0.99))),
                ),
                ("txn_p50_ms", Json::Num(self.txn_p50_ms())),
                (
                    "txn_p99_ms",
                    Json::Num(self.per_pass(|p| quantile(&p.unit_ms, 0.99))),
                ),
            ]),
        );
        let shape_medians: Vec<f64> = self.shape_ms.iter().map(|v| median(v)).collect();
        report.metric("query_geomean_ms", geomean(&shape_medians), "ms");
        report.metric("pass_s", self.per_pass(|p| p.secs), "s");
        report.record(
            "failed_frac",
            Json::Num(ratio(self.failed as f64, self.attempted as f64)),
        );
        let statements: usize = self.passes.iter().map(|p| p.stmt_us.len()).sum();
        let units: usize = self.passes.iter().map(|p| p.unit_ms.len()).sum();
        report.record(
            "samples",
            Json::obj(vec![
                ("statements", Json::Num(statements as f64)),
                ("units", Json::Num(units as f64)),
                ("passes", Json::Num(self.passes.len() as f64)),
            ]),
        );
    }
}

/// Connect one client per worker, warm up, then measure for
/// `plan.seconds`. `at_start` runs on the calling thread once every
/// connection has warmed up, just before measurement begins.
pub fn run<W: Worker, S>(
    addr: SocketAddr,
    workers: &mut [W],
    plan: &Plan,
    at_start: impl FnOnce() -> S,
) -> Result<(LoopStats, S), String> {
    let ready = Barrier::new(workers.len() + 1);
    let mut started = None;
    let results: Vec<Result<LoopStats, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| {
                let ready = &ready;
                s.spawn(move || {
                    let warmed = Client::connect(addr)
                        .map_err(|e| format!("connect: {e}"))
                        .and_then(|c| {
                            let mut conn = Conn::new(c);
                            w.prepare(&mut conn)?;
                            let warm = Instant::now();
                            while warm.elapsed().as_secs_f64() < plan.warmup_s {
                                w.unit(&mut conn)?;
                            }
                            Ok(conn)
                        });
                    // every thread reaches the barrier, failed or not
                    ready.wait();
                    let mut conn = warmed?;
                    let stats = measure(w, &mut conn, plan);
                    let _ = conn.client.close();
                    stats
                })
            })
            .collect();
        ready.wait();
        started = Some(at_start());
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut total = LoopStats::default();
    for r in results {
        total.absorb(r?);
    }
    total.connections = workers.len();
    let started = started.ok_or("the loop never started")?;
    Ok((total, started))
}

fn measure<W: Worker>(w: &mut W, conn: &mut Conn, plan: &Plan) -> Result<LoopStats, String> {
    let mut stats = LoopStats {
        shape_ms: vec![Vec::new(); plan.shapes],
        ..LoopStats::default()
    };
    let start = Instant::now();
    let mut pass = Pass::default();
    let mut pass_start = start;
    let mut in_pass = 0;
    conn.stmt_us.clear();
    let more = |passes: usize| match plan.passes {
        Some(n) => passes < n,
        None => start.elapsed().as_secs_f64() < plan.seconds,
    };
    while in_pass != 0 || more(stats.passes.len()) {
        let t = Instant::now();
        let unit = w.unit(conn)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        stats.attempted += 1;
        if unit.ok {
            pass.unit_ms.push(ms);
            if let Some(v) = stats.shape_ms.get_mut(unit.shape) {
                v.push(ms);
            }
        } else {
            stats.failed += 1;
        }
        in_pass += 1;
        if in_pass == plan.units_per_pass {
            pass.secs = pass_start.elapsed().as_secs_f64();
            pass.stmt_us = std::mem::take(&mut conn.stmt_us);
            stats.passes.push(std::mem::take(&mut pass));
            pass_start = Instant::now();
            in_pass = 0;
        }
    }
    Ok(stats)
}
