//! The persist side of the monitoring endpoint: a
//! [`evofd_obs::MonitorSource`] over a shared [`Database`] handle, so
//! `evofd serve-metrics` (and `--metrics-addr` on the long-running
//! commands) can answer `/health` and `/history` from the durable
//! engine state while `/metrics` reads the process-global registry.

use std::sync::{Arc, Mutex, MutexGuard};

use evofd_obs::{json_escape_str, HistoryQuery, MonitorSource};

use crate::history::HistoryFrame;
use crate::store::Database;

/// Serves `/health` and `/history` off a live [`Database`]; clone the
/// handle out of a [`crate::DurableEngine`] with
/// [`crate::DurableEngine::database_handle`].
#[derive(Debug, Clone)]
pub struct DbMonitorSource {
    db: Arc<Mutex<Database>>,
}

impl DbMonitorSource {
    /// Wrap a shared database handle.
    pub fn new(db: Arc<Mutex<Database>>) -> DbMonitorSource {
        DbMonitorSource { db }
    }

    fn lock(&self) -> MutexGuard<'_, Database> {
        self.db.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn push_frame_json(out: &mut String, frame: &HistoryFrame, fd_filter: Option<&str>) {
    out.push_str(&format!(
        "{{\"epoch\":{},\"seq\":{},\"rows\":{},\"samples\":[",
        frame.epoch, frame.seq, frame.rows
    ));
    let mut first = true;
    for s in &frame.samples {
        if fd_filter.is_some_and(|want| want != s.fd) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"fd\":\"{}\",\"confidence\":{},\"g3\":{},\"violating_groups\":{},\"violated\":{}}}",
            json_escape_str(&s.fd),
            s.confidence,
            s.g3,
            s.violating_groups,
            s.violated
        ));
    }
    out.push_str("],\"drifts\":[");
    let mut first = true;
    for d in &frame.drifts {
        if fd_filter.is_some_and(|want| want != d.fd) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"fd\":\"{}\",\"kind\":\"{}\",\"confidence_before\":{},\"confidence_after\":{},\
             \"groups\":[{}]}}",
            json_escape_str(&d.fd),
            json_escape_str(&d.kind),
            d.confidence_before,
            d.confidence_after,
            d.groups
                .iter()
                .map(|g| format!("\"{}\"", json_escape_str(g)))
                .collect::<Vec<_>>()
                .join(",")
        ));
    }
    out.push_str("],\"alerts\":[");
    let mut first = true;
    for a in &frame.alerts {
        if fd_filter.is_some_and(|want| want != a.fd) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"fd\":\"{}\",\"fired\":{}}}",
            json_escape_str(&a.rule),
            json_escape_str(&a.fd),
            a.fired
        ));
    }
    out.push_str("]}");
}

impl MonitorSource for DbMonitorSource {
    /// Per-table health: positions (epoch / last seq / snapshot seq /
    /// WAL bytes), what recovery did at open, and the alert rules with
    /// their live runtime. `status` is `"alerting"` iff any rule fires.
    fn health_json(&self) -> String {
        let db = self.lock();
        let mut firing_total = 0usize;
        let mut tables = Vec::new();
        for (name, t) in db.iter() {
            let r = t.recovery();
            let alerts = t.alerts();
            firing_total += alerts.firing_count();
            let mut rules = Vec::new();
            for (i, rule) in alerts.rules.iter().enumerate() {
                let rt = &alerts.runtime[i];
                rules.push(format!(
                    "{{\"rule\":\"{}\",\"firing\":{},\"consecutive\":{},\"fired_count\":{}}}",
                    json_escape_str(&rule.to_string()),
                    rt.firing,
                    rt.consecutive,
                    rt.fired_count
                ));
            }
            tables.push(format!(
                "{{\"table\":\"{}\",\"epoch\":{},\"rows\":{},\"last_seq\":{},\"snapshot_seq\":{},\
                 \"wal_bytes\":{},\"tracked_fds\":{},\"recovery\":{{\"snapshot_epoch\":{},\
                 \"replayed\":{},\"rolled_back\":{},\"torn_bytes\":{}}},\"alerts\":[{}]}}",
                json_escape_str(name),
                t.live().epoch(),
                t.live().row_count(),
                t.last_seq(),
                t.snapshot_seq(),
                t.wal_bytes(),
                t.validator().fds().len(),
                r.snapshot_epoch,
                r.replayed,
                r.rolled_back,
                r.torn_bytes,
                rules.join(",")
            ));
        }
        format!(
            "{{\"status\":\"{}\",\"firing_alerts\":{},\"tables\":[{}]}}\n",
            if firing_total == 0 { "ok" } else { "alerting" },
            firing_total,
            tables.join(",")
        )
    }

    /// The durable time series of one table (`?table=` required),
    /// optionally narrowed to one FD display string (`?fd=`) and to
    /// epochs at or after `?since=`.
    fn history_json(&self, query: &HistoryQuery) -> Result<String, String> {
        let Some(table) = query.table.as_deref() else {
            return Err("missing `table` query parameter".to_string());
        };
        let db = self.lock();
        let t = db.get(table).map_err(|e| e.to_string())?;
        let frames = t.history_frames().map_err(|e| e.to_string())?;
        let since = query.since_epoch.unwrap_or(0);
        let fd_filter = query.fd.as_deref();
        let mut out = format!("{{\"table\":\"{}\",\"frames\":[", json_escape_str(table));
        let mut first = true;
        for frame in frames.iter().filter(|f| f.epoch >= since) {
            if !first {
                out.push(',');
            }
            first = false;
            push_frame_json(&mut out, frame, fd_filter);
        }
        out.push_str("]}\n");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PersistOptions;
    use evofd_core::Fd;
    use evofd_incremental::{Delta, ValidatorConfig};
    use evofd_storage::{relation_of_strs, Value};
    use std::path::PathBuf;

    fn srow(a: &str, b: &str) -> Vec<Value> {
        vec![Value::str(a), Value::str(b)]
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("evofd_persist_monitor_tests_{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn seeded_db(dir: &std::path::Path) -> Database {
        let rel = relation_of_strs("t", &["X", "Y"], &[&["a", "1"], &["b", "2"]]).unwrap();
        let fds = vec![Fd::parse(rel.schema(), "X -> Y").unwrap()];
        let mut db = Database::open(dir, PersistOptions::default()).unwrap();
        db.create_table(rel, fds, ValidatorConfig::default()).unwrap();
        db
    }

    #[test]
    fn health_json_reports_tables_and_alerts() {
        let dir = tmpdir("health");
        let mut db = seeded_db(&dir);
        db.get_mut("t")
            .unwrap()
            .set_alerts(vec![crate::AlertRule::parse(
                "FD 'X -> Y' WHEN confidence < 0.99 FOR 1 EPOCHS",
            )
            .unwrap()])
            .unwrap();
        // Drift the FD so the alert fires.
        db.get_mut("t")
            .unwrap()
            .apply(&Delta { inserts: vec![srow("a", "9")], deletes: vec![] })
            .unwrap();
        let source = DbMonitorSource::new(Arc::new(Mutex::new(db)));
        let health = source.health_json();
        assert!(health.contains("\"status\":\"alerting\""), "{health}");
        assert!(health.contains("\"firing_alerts\":1"), "{health}");
        assert!(health.contains("\"table\":\"t\""), "{health}");
        assert!(health.contains("\"firing\":true"), "{health}");
        assert!(health.contains("\"tracked_fds\":1"), "{health}");
    }

    #[test]
    fn history_json_filters_by_fd_and_since() {
        let dir = tmpdir("history");
        let mut db = seeded_db(&dir);
        for v in ["3", "4", "5"] {
            db.get_mut("t")
                .unwrap()
                .apply(&Delta { inserts: vec![srow("c", v)], deletes: vec![] })
                .unwrap();
        }
        let source = DbMonitorSource::new(Arc::new(Mutex::new(db)));
        let all =
            source.history_json(&HistoryQuery { table: Some("t".into()), ..Default::default() });
        let all = all.unwrap();
        assert!(all.contains("\"table\":\"t\""), "{all}");
        assert!(all.contains("\"fd\":\"[X] -> [Y]\""), "{all}");
        let since = source
            .history_json(&HistoryQuery {
                table: Some("t".into()),
                fd: Some("[X] -> [Y]".into()),
                since_epoch: Some(3),
            })
            .unwrap();
        assert!(!since.contains("\"epoch\":2,"), "{since}");
        assert!(since.contains("\"epoch\":3,"), "{since}");
        // Errors: missing table param, unknown table.
        assert!(source.history_json(&HistoryQuery::default()).is_err());
        assert!(source
            .history_json(&HistoryQuery { table: Some("nope".into()), ..Default::default() })
            .is_err());
    }
}
