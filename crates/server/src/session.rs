//! Per-connection session state: the active transaction, session-local
//! knob settings, and named prepared statements.
//!
//! The dispatcher classifies statements on their *normalized* shape
//! (reusing [`aimdb_engine::normalize`], the same normalizer that feeds
//! the fingerprint store), so `BEGIN`, ` begin ;` and `Begin` all hit the
//! transaction path. Everything else goes to the engine — inside the
//! session's MVCC transaction when one is open, autocommit otherwise.
//!
//! `SET knob = v` is session-scoped: the value is validated and clamped
//! against the global [`Knobs`](aimdb_engine::Knobs) spec but stored in a
//! per-session overlay, so one connection's experiment never leaks into
//! another's `SHOW` (or into the tuner's actuation path, which writes
//! the global knobs).
//!
//! Prepared statements reuse the fingerprint machinery: `Parse` stores
//! the template and its fingerprint; `Execute` substitutes parameters
//! *as SQL literals* into the `?` holes, which the normalizer folds
//! right back to `?` — so a bound statement fingerprints identically to
//! its template and the statement store aggregates them as one shape.
//! (NULL and booleans bind as keywords, not literals, so those
//! parameters change the shape; integer, float, and text parameters —
//! the hot path — are shape-preserving.)

use std::collections::{BTreeMap, HashMap};

use aimdb_common::{AimError, Result, Value};
use aimdb_engine::{fingerprint, normalize, Database, Knobs, QueryResult, TxnHandle};

use crate::protocol::value_to_sql_literal;

/// A parsed prepared statement.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The SQL template, possibly holding `?` parameter holes.
    pub sql: String,
    /// Fingerprint of the normalized template.
    pub fingerprint: u64,
}

/// One client connection's server-side state.
pub struct Session {
    id: u64,
    txn: Option<TxnHandle>,
    knob_overlay: BTreeMap<&'static str, i64>,
    prepared: HashMap<String, Prepared>,
    /// Statements dispatched through this session.
    pub statements: u64,
}

impl Session {
    pub fn new(id: u64) -> Session {
        Session {
            id,
            txn: None,
            knob_overlay: BTreeMap::new(),
            prepared: HashMap::new(),
            statements: 0,
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Execute one statement in this session's context.
    pub fn dispatch(&mut self, db: &Database, sql: &str) -> Result<QueryResult> {
        self.statements += 1;
        let shape = normalize(sql);
        if shape == "begin" || shape.starts_with("begin ") || shape.starts_with("begin;") {
            if self.txn.is_some() {
                return Err(AimError::NestedTxn(format!(
                    "session {} already has an open transaction",
                    self.id
                )));
            }
            let h = db.begin_txn()?;
            self.txn = Some(h);
            return Ok(QueryResult::Text("BEGIN".into()));
        }
        if shape == "commit" || shape.starts_with("commit;") {
            let h = self.txn.take().ok_or_else(|| {
                AimError::Execution(format!(
                    "session {}: COMMIT with no open transaction",
                    self.id
                ))
            })?;
            db.commit_txn(&h)?;
            return Ok(QueryResult::Text("COMMIT".into()));
        }
        if shape == "rollback" || shape.starts_with("rollback;") {
            let h = self.txn.take().ok_or_else(|| {
                AimError::Execution(format!(
                    "session {}: ROLLBACK with no open transaction",
                    self.id
                ))
            })?;
            db.rollback_txn(&h)?;
            return Ok(QueryResult::Text("ROLLBACK".into()));
        }
        if shape.starts_with("set ") {
            return self.set_knob(sql);
        }
        if shape.starts_with("show ") {
            return self.show_knob(db, sql);
        }
        match &self.txn {
            Some(h) => db.execute_in(h, sql),
            None => db.execute(sql),
        }
    }

    /// `SET <knob> = <int>` — session-local overlay, global knobs untouched.
    fn set_knob(&mut self, sql: &str) -> Result<QueryResult> {
        let (name, value) = parse_set(sql)?;
        let spec = Knobs::spec(&name).ok_or_else(|| AimError::NotFound(format!("knob {name}")))?;
        let v = value.clamp(spec.min, spec.max);
        self.knob_overlay.insert(spec.name, v);
        Ok(QueryResult::Text(format!("SET {} = {v}", spec.name)))
    }

    /// `SHOW <knob>` — session overlay wins over the global value.
    fn show_knob(&self, db: &Database, sql: &str) -> Result<QueryResult> {
        let name = sql
            .trim()
            .trim_end_matches(';')
            .split_whitespace()
            .nth(1)
            .ok_or_else(|| AimError::Parse("SHOW requires a knob name".into()))?
            .to_string();
        let spec = Knobs::spec(&name).ok_or_else(|| AimError::NotFound(format!("knob {name}")))?;
        let v = match self.knob_overlay.get(spec.name) {
            Some(v) => *v,
            None => db.knobs.get(spec.name)?,
        };
        Ok(QueryResult::Text(format!("{} = {v}", spec.name)))
    }

    /// Session-effective value of a knob, for tests and introspection.
    pub fn effective_knob(&self, db: &Database, name: &str) -> Result<i64> {
        let spec = Knobs::spec(name).ok_or_else(|| AimError::NotFound(format!("knob {name}")))?;
        match self.knob_overlay.get(spec.name) {
            Some(v) => Ok(*v),
            None => db.knobs.get(spec.name),
        }
    }

    /// Store a named prepared statement (Parse). Re-preparing a name
    /// replaces the previous template.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<&Prepared> {
        if sql.trim().is_empty() {
            return Err(AimError::Parse("prepare: empty statement".into()));
        }
        let fp = fingerprint(sql);
        self.prepared.insert(
            name.to_string(),
            Prepared {
                sql: sql.to_string(),
                fingerprint: fp,
            },
        );
        Ok(&self.prepared[name])
    }

    /// Bind parameters into a prepared template and execute it (Execute).
    pub fn execute_prepared(
        &mut self,
        db: &Database,
        name: &str,
        params: &[Value],
    ) -> Result<QueryResult> {
        let template = self
            .prepared
            .get(name)
            .ok_or_else(|| AimError::NotFound(format!("prepared statement {name}")))?
            .sql
            .clone();
        let bound = bind_params(&template, params)?;
        self.dispatch(db, &bound)
    }

    /// The prepared statement registered under `name`, if any.
    pub fn prepared(&self, name: &str) -> Option<&Prepared> {
        self.prepared.get(name)
    }

    /// Roll back any open transaction — called when the connection drops,
    /// so an abandoned `BEGIN` can never pin the vacuum horizon.
    pub fn close(&mut self, db: &Database) -> Result<()> {
        if let Some(h) = self.txn.take() {
            db.rollback_txn(&h)?;
        }
        Ok(())
    }
}

/// Parse `SET <name> = <int>` (case-insensitive, optional `;`).
fn parse_set(sql: &str) -> Result<(String, i64)> {
    let body = sql.trim().trim_end_matches(';');
    let rest = body
        .get(3..)
        .ok_or_else(|| AimError::Parse("SET requires a knob and value".into()))?;
    let mut parts = rest.splitn(2, '=');
    let name = parts
        .next()
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| AimError::Parse("SET requires a knob name".into()))?;
    let value = parts
        .next()
        .map(str::trim)
        .ok_or_else(|| AimError::Parse("SET requires '= <value>'".into()))?;
    let v: i64 = value
        .parse()
        .map_err(|_| AimError::Parse(format!("SET {name}: '{value}' is not an integer")))?;
    Ok((name.to_string(), v))
}

/// Substitute `?` holes (outside string literals) with SQL-rendered
/// parameter values, left to right. Errors on arity mismatch.
pub fn bind_params(template: &str, params: &[Value]) -> Result<String> {
    let mut out = String::with_capacity(template.len() + params.len() * 8);
    let mut next = 0;
    let mut in_string = false;
    let mut chars = template.chars().peekable();
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            if c == '\'' {
                // '' is an escaped quote, stay inside the literal
                if chars.peek() == Some(&'\'') {
                    if let Some(q) = chars.next() {
                        out.push(q);
                    }
                } else {
                    in_string = false;
                }
            }
            continue;
        }
        match c {
            '\'' => {
                in_string = true;
                out.push(c);
            }
            '?' => {
                let v = params.get(next).ok_or_else(|| {
                    AimError::InvalidInput(format!(
                        "bind: template has more than {} parameter holes",
                        params.len()
                    ))
                })?;
                out.push_str(&value_to_sql_literal(v));
                next += 1;
            }
            _ => out.push(c),
        }
    }
    if next != params.len() {
        return Err(AimError::InvalidInput(format!(
            "bind: {} parameters for {next} holes",
            params.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_kv() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE kv (k INT, v TEXT)")
            .expect("create");
        db.execute("INSERT INTO kv VALUES (1, 'one'), (2, 'two')")
            .expect("seed");
        db
    }

    #[test]
    fn begin_commit_roundtrip_and_nested_begin_rejected() {
        let db = db_with_kv();
        let mut s = Session::new(1);
        s.dispatch(&db, "BEGIN").expect("begin");
        assert!(s.in_txn());
        let e = s.dispatch(&db, "begin;").expect_err("nested");
        assert_eq!(e.category(), "nested_txn");
        s.dispatch(&db, "INSERT INTO kv VALUES (3, 'three')")
            .expect("insert");
        s.dispatch(&db, "COMMIT").expect("commit");
        assert!(!s.in_txn());
        let r = db.execute("SELECT k FROM kv WHERE k = 3").expect("select");
        assert_eq!(r.rows().len(), 1);
    }

    #[test]
    fn rollback_discards_and_close_rolls_back() {
        let db = db_with_kv();
        let mut s = Session::new(1);
        s.dispatch(&db, "BEGIN").expect("begin");
        s.dispatch(&db, "DELETE FROM kv WHERE k = 1")
            .expect("delete");
        s.dispatch(&db, "ROLLBACK").expect("rollback");
        assert_eq!(db.execute("SELECT k FROM kv").expect("q").rows().len(), 2);

        let mut s2 = Session::new(2);
        s2.dispatch(&db, "BEGIN").expect("begin");
        s2.dispatch(&db, "DELETE FROM kv").expect("delete");
        assert_eq!(db.active_txn_count(), 1);
        s2.close(&db).expect("close");
        assert_eq!(db.active_txn_count(), 0, "close released the snapshot");
        assert_eq!(db.execute("SELECT k FROM kv").expect("q").rows().len(), 2);
    }

    #[test]
    fn commit_without_txn_is_a_structured_error() {
        let db = db_with_kv();
        let mut s = Session::new(1);
        assert_eq!(
            s.dispatch(&db, "COMMIT").expect_err("commit").category(),
            "execution"
        );
        assert_eq!(
            s.dispatch(&db, "ROLLBACK")
                .expect_err("rollback")
                .category(),
            "execution"
        );
    }

    #[test]
    fn set_is_session_scoped_and_clamped() {
        let db = db_with_kv();
        let mut a = Session::new(1);
        let b = Session::new(2);
        a.dispatch(&db, "SET work_mem_kb = 128").expect("set");
        assert_eq!(a.effective_knob(&db, "work_mem_kb").expect("a"), 128);
        // the global knob and other sessions are untouched
        assert_eq!(db.knobs.get("work_mem_kb").expect("global"), 4096);
        assert_eq!(b.effective_knob(&db, "work_mem_kb").expect("b"), 4096);
        // clamped into the legal range
        a.dispatch(&db, "SET work_mem_kb = 999999999").expect("set");
        assert_eq!(a.effective_knob(&db, "work_mem_kb").expect("a"), 65536);
        // unknown knobs are not_found
        assert_eq!(
            a.dispatch(&db, "SET no_such_knob = 1")
                .expect_err("unknown")
                .category(),
            "not_found"
        );
        let _ = b;
    }

    #[test]
    fn show_prefers_the_overlay() {
        let db = db_with_kv();
        let mut s = Session::new(1);
        let r = s.dispatch(&db, "SHOW work_mem_kb").expect("show");
        assert_eq!(r, QueryResult::Text("work_mem_kb = 4096".into()));
        s.dispatch(&db, "SET work_mem_kb = 256").expect("set");
        let r = s.dispatch(&db, "SHOW work_mem_kb;").expect("show");
        assert_eq!(r, QueryResult::Text("work_mem_kb = 256".into()));
    }

    #[test]
    fn prepared_binding_preserves_the_fingerprint() {
        let db = db_with_kv();
        let mut s = Session::new(1);
        let template = "SELECT v FROM kv WHERE k = ?";
        let fp = s.prepare("get", template).expect("prepare").fingerprint;
        assert_eq!(fp, fingerprint("SELECT v FROM kv WHERE k = 42"));
        let bound = bind_params(template, &[Value::Int(2)]).expect("bind");
        assert_eq!(
            fingerprint(&bound),
            fp,
            "bound statement shares the template shape"
        );
        let r = s
            .execute_prepared(&db, "get", &[Value::Int(2)])
            .expect("execute");
        assert_eq!(r.rows().len(), 1);
        assert_eq!(r.rows()[0].values()[0], Value::Text("two".into()));
    }

    #[test]
    fn bind_respects_strings_and_arity() {
        let b = bind_params(
            "INSERT INTO kv VALUES (?, 'lit?eral'), (?, ?)",
            &[Value::Int(1), Value::Int(2), Value::Text("o'brien".into())],
        )
        .expect("bind");
        assert_eq!(b, "INSERT INTO kv VALUES (1, 'lit?eral'), (2, 'o''brien')");
        assert!(bind_params("SELECT ?", &[]).is_err(), "missing param");
        assert!(
            bind_params("SELECT 1", &[Value::Int(1)]).is_err(),
            "extra param"
        );
    }

    #[test]
    fn execute_unknown_prepared_is_not_found() {
        let db = db_with_kv();
        let mut s = Session::new(1);
        let e = s.execute_prepared(&db, "nope", &[]).expect_err("unknown");
        assert_eq!(e.category(), "not_found");
    }

    #[test]
    fn dispatch_observes_statements_like_the_engine_entry_points() {
        // One statement through a session, autocommit or inside BEGIN,
        // leaves exactly one stmt_begin/stmt_end pair, one statement-stats
        // call (plus one error when it fails) and one trace.
        let db = db_with_kv();
        let flight = db.flight_recorder();
        let totals = || {
            db.statement_stats()
                .iter()
                .fold((0, 0), |(c, e), st| (c + st.calls, e + st.errors))
        };
        for in_txn in [false, true] {
            let mut s = Session::new(1);
            if in_txn {
                s.dispatch(&db, "BEGIN").expect("begin");
            }
            for (sql, fails) in [
                ("SELECT v FROM kv WHERE k = 1", false),
                ("SELECT * FROM nope", true),
            ] {
                let mark = flight.events().last().map(|e| e.seq);
                let (calls0, errors0) = totals();
                db.tracer.clear();
                assert_eq!(s.dispatch(&db, sql).is_err(), fails, "{sql}");
                let events = flight.events();
                let count = |kind: &str| {
                    let new = events.iter().filter(|e| mark.is_none_or(|m| e.seq > m));
                    new.filter(|e| e.kind.name() == kind).count()
                };
                let (calls1, errors1) = totals();
                // (optimize span, execute span) of each recorded trace
                let spans: Vec<_> = db
                    .recent_traces()
                    .iter()
                    .map(|t| (t.span("optimize").is_some(), t.span("execute").is_some()))
                    .collect();
                assert_eq!(
                    (
                        count("stmt_begin"),
                        count("stmt_end"),
                        calls1 - calls0,
                        errors1 - errors0,
                        spans
                    ),
                    (1, 1, 1, fails as u64, vec![(true, !fails)]),
                    "in_txn={in_txn} {sql}"
                );
            }
            s.close(&db).expect("close");
        }
    }
}
