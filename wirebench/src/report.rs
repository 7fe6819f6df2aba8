//! The result a run prints: metrics with units, attempt counts, the
//! correctness verdict, and the host/input record; plus the small
//! statistics the workloads share.

use std::collections::BTreeMap;
use std::path::Path;

use aimdb_common::json::Json;
use aimdb_engine::Database;

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; any entry makes the run incorrect.
    pub violations: Vec<String>,
    record: BTreeMap<String, Json>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    pub fn record(&mut self, key: &str, value: Json) {
        self.record.insert(key.to_string(), value);
    }

    /// Record a failed correctness check.
    pub fn violation(&mut self, msg: impl Into<String>) {
        self.violations.push(msg.into());
    }

    pub fn metrics(&self) -> &BTreeMap<String, (f64, &'static str)> {
        &self.metrics
    }

    pub fn record_value(&self, key: &str) -> Option<&Json> {
        self.record.get(key)
    }

    pub fn record_json(&self) -> Json {
        Json::obj(vec![("record", Json::Obj(self.record.clone()))])
    }

    /// The result line: `correct`, `attempted` and `failed` (whole
    /// numbers) and each metric's value with its unit.
    pub fn result_line(&self) -> String {
        let metrics: BTreeMap<String, Json> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let m = Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit.to_string())),
                ]);
                (name.clone(), m)
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            Json::Obj(metrics).to_string_compact()
        )
    }
}

/// Nearest-rank quantile of unsorted samples; 0 for an empty set (a
/// layer the workload never entered spent no time there).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of the positive entries; 0 when there are none.
pub fn geomean(xs: &[f64]) -> f64 {
    let pos: Vec<f64> = xs.iter().copied().filter(|x| *x > 0.0).collect();
    if pos.is_empty() {
        return 0.0;
    }
    (pos.iter().map(|x| x.ln()).sum::<f64>() / pos.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a, for input digests and result fingerprints.
pub fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The git revision of the checkout, read from `.git` when there is one:
/// a detached `HEAD`, or the branch's loose ref, or its line in
/// `packed-refs`.
pub fn git_revision() -> String {
    git_revision_in(Path::new(".git")).unwrap_or_else(|| "unavailable".into())
}

fn git_revision_in(git: &Path) -> Option<String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(&git.join("HEAD"))?;
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head);
    };
    read(&git.join(r)).or_else(|| {
        read(&git.join("packed-refs"))?.lines().find_map(|line| {
            let (rev, name) = line.split_once(' ')?;
            (name == r).then(|| rev.to_string())
        })
    })
}

/// Host, build and server facts every result carries.
pub fn record_host(report: &mut Report, seed: u64, connections: usize) {
    report.record("nproc", Json::Num(nproc() as f64));
    report.record(
        "profile",
        Json::Str(
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    );
    report.record("git_rev", Json::Str(git_revision()));
    report.record("seed", Json::Num(seed as f64));
    report.record("connections", Json::Num(connections as f64));
    let cfg = aimdb_server::ServerConfig::default();
    report.record(
        "server_config",
        Json::obj(vec![
            ("control_tick_ms", Json::Num(cfg.control_tick_ms as f64)),
            ("tuner_enabled", Json::Bool(cfg.tuner_enabled)),
        ]),
    );
}

/// Each table's rows and heap pages, against the buffer pool's size.
pub fn record_tables(report: &mut Report, db: &Database) {
    let mut tables = Vec::new();
    for name in db.catalog.table_names() {
        if let Ok(t) = db.catalog.table(&name) {
            let rows = t.row_count().unwrap_or(0);
            tables.push((
                name,
                Json::obj(vec![
                    ("rows", Json::Num(rows as f64)),
                    ("pages", Json::Num(t.heap.num_pages() as f64)),
                ]),
            ));
        }
    }
    report.record("tables", Json::Obj(tables.into_iter().collect()));
    report.record(
        "buffer_pool_pages",
        Json::Num(db.buffer_pool().capacity() as f64),
    );
}

/// Number of CPUs, the cap on client connections and threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn git_revision_falls_back_to_packed_refs() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/git-revision-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").expect("HEAD");
        std::fs::write(
            dir.join("packed-refs"),
            "# pack-refs with: peeled fully-peeled sorted\n\
             1111 refs/heads/other\n2222 refs/heads/main\n",
        )
        .expect("packed-refs");
        assert_eq!(git_revision_in(&dir).as_deref(), Some("2222"));
        std::fs::create_dir_all(dir.join("refs/heads")).expect("refs");
        std::fs::write(dir.join("refs/heads/main"), "3333\n").expect("loose ref");
        assert_eq!(git_revision_in(&dir).as_deref(), Some("3333"));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn result_line_counts_are_whole_numbers() {
        let mut r = Report {
            attempted: 5,
            failed: 1,
            ..Report::default()
        };
        r.metric("setup_s", 0.5, "s");
        let line = r.result_line();
        assert!(line.contains("\"attempted\":5,\"failed\":1,"), "{line}");
        let parsed = Json::parse(&line).expect("the result line is JSON");
        assert_eq!(parsed.field("correct").and_then(Json::as_bool), Ok(true));
        r.violation("wrong row");
        assert!(r.result_line().starts_with("{\"correct\":false,"));
    }
}
