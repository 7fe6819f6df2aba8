//! Wire-level benchmark of the aimdb server.
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload point_select|tpcc_mix|ssb_scan --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is a seeded closed loop through `aimdb_server::Client`
//! against a `Server` with its default `ServerConfig` (AIMD admission
//! tuner on). `--trace 0` prints the end-to-end metrics; `--trace 1`
//! prints the per-layer split instead. The last stdout line is the
//! result object; the line before it is the host and input record.

mod closed_loop;
mod layers;
mod point_select;
mod report;
mod ssb_scan;
mod tpcc_mix;
mod wire;

use std::sync::Arc;
use std::time::Instant;

use aimdb_bench::tpcc::TpccScale;
use aimdb_bench::tpch::TpchScale;
use aimdb_engine::Database;
use aimdb_server::{Server, ServerConfig};

use report::{median, Report};

pub const WORKLOADS: [&str; 3] = ["point_select", "tpcc_mix", "ssb_scan"];

/// Input sizes. The benchmark always runs [`Sizes::bench`]; the
/// self-tests shrink them.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Rows of the point-select table (it fits the buffer pool).
    pub point_rows: i64,
    pub tpcc: TpccScale,
    pub tpch: TpchScale,
    /// Passes of 100 transactions in one `tpcc_mix` round.
    pub round_passes: usize,
    /// Log records of the fixed work whose log `tpcc_mix` recovers for
    /// `recovery_s`.
    pub recovery_records: u64,
    /// Statements of the point-select stream replayed in the traced run.
    pub replay_points: usize,
    /// Transactions of the TPC-C stream replayed in the traced run.
    pub replay_txns: usize,
}

impl Sizes {
    pub fn bench() -> Sizes {
        Sizes {
            point_rows: 5000,
            tpcc: TpccScale::standard(4),
            tpch: TpchScale::standard(1),
            round_passes: 5,
            recovery_records: 2600,
            replay_points: 2000,
            replay_txns: 100,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub sizes: Sizes,
}

/// A loaded database behind a started server.
pub struct Stack {
    pub db: Arc<Database>,
    pub server: Server,
}

impl Stack {
    /// Load a fresh database with `load`, checkpoint it and start a
    /// server on it.
    pub fn build(load: impl Fn(&Database) -> Result<(), String>) -> Result<Stack, String> {
        let db = Database::new();
        load(&db)?;
        // Recovery restores this checkpoint; the load is not redone.
        db.checkpoint_now()
            .map_err(|e| format!("checkpoint: {e}"))?;
        let db = Arc::new(db);
        let server = Server::start(Arc::clone(&db), ServerConfig::default())
            .map_err(|e| format!("server start: {e}"))?;
        Ok(Stack { db, server })
    }

    /// End a run: take the crash image (the log that reached the store;
    /// `loaded_len` bytes of it predate the run), with `traced` the
    /// end-of-run layer probes, then stop the server and finish the
    /// recovery timing. Returns the crash image.
    pub fn crash(
        self,
        report: &mut Report,
        loaded_len: usize,
        recovery: layers::RecoveryTimes,
        traced: bool,
    ) -> Result<Vec<u8>, String> {
        let image = layers::crash_image(&self.db)?;
        if traced {
            layers::report_end_of_run(report, &self.db, &image[loaded_len..])?;
        }
        self.server
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        recovery.finish(report, traced)?;
        Ok(image)
    }
}

/// Build the serving stack with `load` at least three times and for at
/// least 1.5 s, report the median build time as `setup_s`, and keep
/// the last one.
pub fn set_up(
    report: &mut Report,
    opts: &Opts,
    load: impl Fn(&Database) -> Result<(), String>,
) -> Result<Stack, String> {
    let mut times = Vec::new();
    let mut stack = None;
    while times.len() < 3 || times.iter().sum::<f64>() < 1.5 {
        drop(stack.take());
        let t0 = Instant::now();
        stack = Some(Stack::build(&load)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    if !opts.traced {
        report.metric("setup_s", median(&times), "s");
    }
    let stack = stack.ok_or("no set-up ran")?;
    report::record_tables(report, &stack.db);
    Ok(stack)
}

/// Collect optimizer statistics after a bulk load, as `tpch::load` does,
/// so the planner picks index probes.
pub fn analyze(db: &Database) -> Result<(), String> {
    db.execute("ANALYZE")
        .map(|_| ())
        .map_err(|e| format!("ANALYZE: {e}"))
}

pub fn run_workload(name: &str, opts: &Opts) -> Result<Report, String> {
    match name {
        "point_select" => point_select::run(opts),
        "tpcc_mix" => tpcc_mix::run(opts),
        "ssb_scan" => ssb_scan::run(opts),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

fn parse_args() -> Result<(String, Opts), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let opts = Opts {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: trace.ok_or("--trace is required")?,
        sizes: Sizes::bench(),
    };
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() {
    let (workload, opts) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("wirebench: {e}");
            eprintln!(
                "usage: wirebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let report = match run_workload(&workload, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wirebench {workload}: {e}");
            std::process::exit(1);
        }
    };
    for v in &report.violations {
        eprintln!("wirebench {workload}: correctness violation: {v}");
    }
    println!("{}", report.record_json().to_string_compact());
    println!("{}", report.result_line());
    if !report.violations.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests;
