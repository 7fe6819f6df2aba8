//! Self-tests of the benchmark: the metric contract in `BENCHMARK.json`,
//! seed handling, and that each correctness check rejects a corrupted
//! expectation.

use std::collections::BTreeMap;

use aimdb_bench::tpcc::{self, TpccScale};
use aimdb_bench::tpch::TpchScale;
use aimdb_common::json::Json;
use aimdb_engine::{Database, QueryResult};

use crate::report::Report;
use crate::{run_workload, Opts, Sizes, WORKLOADS};

fn smoke_opts(seed: u64, traced: bool) -> Opts {
    Opts {
        seed,
        seconds: 0.3,
        traced,
        sizes: Sizes {
            point_rows: 300,
            tpcc: TpccScale::smoke(),
            tpch: TpchScale::smoke(),
            round_passes: 1,
            recovery_records: 100,
            replay_points: 40,
            replay_txns: 10,
        },
    }
}

/// `name → unit` of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.field(list)
        .and_then(|l| l.as_arr().map(<[Json]>::to_vec))
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.field("name").and_then(Json::as_str).expect("name");
            let unit = m.field("unit").and_then(Json::as_str).expect("unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn emitted(r: &Report) -> BTreeMap<String, String> {
    r.metrics()
        .iter()
        .map(|(name, (_, unit))| (name.clone(), unit.to_string()))
        .collect()
}

fn run_ok(workload: &str, opts: &Opts) -> Report {
    let r = run_workload(workload, opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(r.violations.is_empty(), "{workload}: {:?}", r.violations);
    assert!(r.attempted > 0, "{workload}: nothing attempted");
    for (name, (value, _)) in r.metrics() {
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    r
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
    let workloads: Vec<String> = {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read")).expect("parse");
        let list = doc
            .field("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        list.iter()
            .map(|w| {
                w.field("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    assert_eq!(workloads, WORKLOADS);
    for w in WORKLOADS {
        assert_eq!(
            emitted(&run_ok(w, &smoke_opts(7, false))),
            e2e,
            "{w} end-to-end"
        );
        assert_eq!(
            emitted(&run_ok(w, &smoke_opts(7, true))),
            layers,
            "{w} per-layer"
        );
    }
}

#[test]
fn seed_changes_inputs_but_not_the_metric_set() {
    for w in WORKLOADS {
        let a = run_ok(w, &smoke_opts(1, false));
        let b = run_ok(w, &smoke_opts(2, false));
        let digest = |r: &Report| r.record_value("input_digest").cloned();
        assert!(digest(&a).is_some(), "{w} records its input digest");
        assert_ne!(
            digest(&a),
            digest(&b),
            "{w}: a new seed must change the inputs"
        );
        assert_eq!(
            emitted(&a),
            emitted(&b),
            "{w}: the metric set must not depend on the seed"
        );
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run_workload("nope", &smoke_opts(1, false)).is_err());
}

#[test]
fn point_select_check_rejects_a_wrong_row() {
    let rows = crate::point_select::rows(3, 10);
    let db = Database::new();
    db.execute("CREATE TABLE kv (id INT, a INT, b TEXT)")
        .unwrap();
    let (a, b) = &rows[4];
    db.execute(&format!("INSERT INTO kv VALUES (4, {a}, '{b}')"))
        .unwrap();
    let r = db.execute("SELECT a, b FROM kv WHERE id = 4").unwrap();
    assert!(crate::point_select::check_row(&r, 4, &rows[4]).is_ok());
    assert!(crate::point_select::check_row(&r, 4, &rows[5]).is_err());
    let mut corrupted = rows[4].clone();
    corrupted.1.push('x');
    assert!(crate::point_select::check_row(&r, 4, &corrupted).is_err());
}

#[test]
fn tpcc_tally_check_rejects_a_missing_commit() {
    let scale = TpccScale::smoke();
    let db = Database::new();
    tpcc::load(&db, &scale, 5).unwrap();
    let mut tally = crate::wire::Tally::default();
    assert_eq!(tally.check(&db, &scale), Ok(()));
    tally.new_orders.insert(0, 1);
    assert!(
        tally.check(&db, &scale).is_err(),
        "an acknowledged NewOrder is missing"
    );
    let mut tally = crate::wire::Tally::default();
    tally.ytd.insert(0, 17);
    assert!(
        tally.check(&db, &scale).is_err(),
        "an acknowledged Payment is missing"
    );
    let tally = crate::wire::Tally {
        deliveries: 1,
        ..Default::default()
    };
    assert!(
        tally.check(&db, &scale).is_err(),
        "an acknowledged Delivery is missing"
    );
}

#[test]
fn ssb_fingerprints_reject_a_changed_result() {
    let db = Database::new();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    let r: QueryResult = db.execute("SELECT a FROM t").unwrap();
    let fp = crate::ssb_scan::fingerprint(&r);
    let mut fps = crate::ssb_scan::Fingerprints::default();
    fps.observe("Q", fp, "wire");
    fps.observe("Q", fp, "in-process");
    assert!(fps.violations.is_empty());
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    let changed = crate::ssb_scan::fingerprint(&db.execute("SELECT a FROM t").unwrap());
    fps.observe("Q", changed, "in-process");
    assert_eq!(fps.violations.len(), 1);
}
