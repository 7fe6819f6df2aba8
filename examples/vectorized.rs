//! Drive the vectorized executor end-to-end through the public API:
//! run a workload through the batch pipeline, re-run each query's plan
//! through the row-at-a-time reference executor (`engine::exec`, the
//! differential oracle), compare results, and read the per-operator
//! metrics the batch executor records.

use aimdb::engine::exec::{execute, ExecContext};
use aimdb::engine::Database;
use aimdb::sql::expr::BuiltinFns;
use aimdb::sql::{parse, Statement};

fn main() {
    let db = Database::new();
    db.execute("CREATE TABLE events (id INT, grp INT, cat TEXT, amt FLOAT)")
        .expect("ddl");
    let rows: Vec<String> = (0..2000)
        .map(|i| {
            format!(
                "({i}, {}, '{}', {:.1})",
                i % 7,
                ["a", "b", "c"][i % 3],
                (i % 100) as f64 / 3.0
            )
        })
        .collect();
    db.execute(&format!("INSERT INTO events VALUES {}", rows.join(",")))
        .expect("load");
    db.execute("ANALYZE").expect("analyze");
    db.execute("CREATE INDEX idx_grp ON events(grp)")
        .expect("index");

    let workload = [
        "SELECT grp, COUNT(*), SUM(amt) FROM events GROUP BY grp ORDER BY grp",
        "SELECT COUNT(*), AVG(amt) FROM events WHERE cat LIKE '%a%' AND amt > 10.0",
        "SELECT id, amt * 2 FROM events WHERE grp = 3 ORDER BY id DESC LIMIT 5",
        "SELECT e.id, f.id FROM events e, events f WHERE e.id = f.id AND e.id < 4",
    ];

    println!("-- vectorized executor, then the row oracle, same workload --");
    let mut vectorized = Vec::new();
    for sql in workload {
        let r = db.execute(sql).expect("batch run");
        println!("  [batch] {} -> {} rows", sql, r.rows().len());
        vectorized.push(r.rows().to_vec());
    }

    println!("-- per-operator metrics recorded by the batch pipeline --");
    for ((name, node, worker), st) in db.metrics.operator_stats() {
        println!(
            "  {name:<17} node {node:<3} worker {worker:<3} {:>6} rows {:>4} batches {:>9} ns",
            st.rows, st.batches, st.ns
        );
    }

    for (sql, expect) in workload.iter().zip(&vectorized) {
        let Some(Statement::Select(sel)) = parse(sql).expect("parse").into_iter().next() else {
            panic!("workload holds only SELECTs: {sql}");
        };
        let plan = db.plan(&sel).expect("plan");
        let rows = execute(&plan, &ExecContext::new(&db.catalog, &BuiltinFns)).expect("row run");
        assert_eq!(rows, *expect, "executors disagree on {sql}");
    }
    println!(
        "-- row executor returned identical results on all {} queries --",
        workload.len()
    );

    db.execute("SET exec_batch_size = 64").expect("batch size");
    for (sql, expect) in workload.iter().zip(&vectorized) {
        let r = db.execute(sql).expect("small-batch run");
        assert_eq!(
            r.rows(),
            expect.as_slice(),
            "batch size changed results on {sql}"
        );
    }
    println!(
        "-- batch size 64 returned identical results on all {} queries --",
        workload.len()
    );
}
