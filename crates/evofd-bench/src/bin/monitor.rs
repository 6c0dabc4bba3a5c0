//! `monitor` — end-to-end smoke bench for the durable FD-health monitor.
//!
//! One seeded run, written to `BENCH_monitor.json`:
//!
//! 1. stream N insert deltas through a durable engine with an alert
//!    rule installed, injecting **one** FD-breaking delta at a known
//!    WAL seq (timed: delta throughput with history sampling on);
//! 2. kill the engine and reopen it cold (timed: recovery), then ask
//!    `SHOW DRIFT HISTORY` to pinpoint the breaking delta — the run
//!    **fails** unless it names exactly the injected seq;
//! 3. check the alert fired exactly once and is still firing;
//! 4. serve `/metrics` and `/health` over a real TCP socket and scrape
//!    both (timed: scrape latency).
//!
//! This is the CI monitoring smoke gate (`--smoke` shrinks the sizes).
//!
//! Flags: `--deltas N` (default 5000), `--seed S`, `--out PATH`,
//! `--smoke`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use evofd_bench::{banner, timed, Args};
use evofd_core::TextTable;
use evofd_persist::{DbMonitorSource, DurableEngine, PersistOptions};
use evofd_storage::Value;

fn http_get(addr: std::net::SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header separator");
    (head.to_string(), body.to_string())
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let n_deltas = args.get_or("deltas", if smoke { 1000 } else { 5000usize });
    let seed = args.get_or("seed", 2016u64);
    let out_path = args.get("out").unwrap_or("BENCH_monitor.json").to_string();

    banner(
        "monitor — durable FD-health history, drift pinpoint, alerts, /metrics",
        "one seeded stream with a single planted violation; gates on provenance",
    );

    let dir = std::env::temp_dir()
        .join(format!("evofd_bench_monitor_{}", std::process::id()))
        .join(format!("run_{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine = DurableEngine::open(&dir, PersistOptions::default()).expect("open");
    engine
        .run_script(
            "CREATE TABLE t (zip TEXT, city TEXT);
             INSERT INTO t VALUES ('z0', 'c0');",
        )
        .expect("seed table");
    engine.execute("ALTER TABLE t ADD CONSTRAINT FD 'zip -> city'").expect("track FD");
    engine
        .execute("ALERT ON t FD 'zip -> city' WHEN confidence < 0.99999 FOR 1 EPOCHS")
        .expect("install alert");

    // Phase 1: the delta stream. Conforming inserts, with ONE breaking
    // delta planted in the middle at a seq we record.
    let break_at = n_deltas / 2 + (seed as usize % 10);
    let mut breaking_seq = 0u64;
    let (_, apply_elapsed) = timed(|| {
        for i in 0..n_deltas {
            if i == break_at {
                let db = engine.database_handle();
                let last = db.lock().unwrap().get("t").expect("table").last_seq();
                breaking_seq = last + 1;
                engine.execute("INSERT INTO t VALUES ('z0', 'conflict')").expect("breaking delta");
            } else {
                engine
                    .execute(&format!("INSERT INTO t VALUES ('z{i}', 'c{}')", i % 97))
                    .expect("conforming delta");
            }
        }
    });
    let apply_s = apply_elapsed.as_secs_f64();
    let history_bytes = {
        let db = engine.database_handle();
        let bytes = db.lock().unwrap().get("t").expect("table").history_bytes().len();
        bytes
    };

    // Phase 2: kill, reopen cold, pinpoint the breaking delta from the
    // durable history alone.
    drop(engine);
    let (mut engine, reopen_elapsed) =
        timed(|| DurableEngine::open(&dir, PersistOptions::default()).expect("reopen"));
    let reopen_s = reopen_elapsed.as_secs_f64();

    let drift = engine.query("SHOW DRIFT HISTORY FOR t FD 'zip -> city'").expect("drift history");
    let violated: Vec<u64> = (0..drift.row_count())
        .filter(|&i| drift.row(i)[3] == Value::str("violated"))
        .map(|i| match drift.row(i)[1] {
            Value::Int(n) => n as u64,
            ref v => panic!("seq column is not an int: {v:?}"),
        })
        .collect();
    let pinpointed = violated == vec![breaking_seq];

    // Phase 3: the alert fired exactly once and is still firing.
    let alerts = engine.query("SHOW ALERTS FOR t").expect("show alerts");
    let (firing, fired_count) = if alerts.row_count() == 1 {
        let row = alerts.row(0);
        (
            row[3] == Value::Bool(true),
            match row[5] {
                Value::Int(n) => n as u64,
                ref v => panic!("fired_count column is not an int: {v:?}"),
            },
        )
    } else {
        (false, 0)
    };

    // Phase 4: scrape /metrics and /health over a real socket.
    evofd_obs::enable();
    let source = Arc::new(DbMonitorSource::new(engine.database_handle()));
    let mut server = evofd_obs::serve("127.0.0.1:0", source).expect("serve");
    let addr = server.addr();
    let ((metrics_ok, health_ok), scrape_elapsed) = timed(|| {
        let (head, body) = http_get(addr, "/metrics");
        let metrics_ok = head.starts_with("HTTP/1.1 200") && body.contains("evofd_");
        let (head, body) = http_get(addr, "/health");
        let health_ok = head.starts_with("HTTP/1.1 200")
            && body.contains("\"table\":\"t\"")
            && body.contains("\"firing\":true");
        (metrics_ok, health_ok)
    });
    let scrape_ms = scrape_elapsed.as_secs_f64() * 1e3;
    server.shutdown();
    evofd_obs::disable();

    let deltas_per_s = n_deltas as f64 / apply_s.max(1e-12);
    let mut table = TextTable::new(["check", "result"]);
    table.row(["deltas applied".into(), format!("{n_deltas} ({deltas_per_s:.0}/s)")]);
    table.row(["history file".into(), format!("{history_bytes} bytes")]);
    table.row(["cold reopen".into(), format!("{reopen_s:.4}s")]);
    table.row([
        "drift pinpoint".into(),
        format!("seq {breaking_seq} -> {violated:?} ({})", if pinpointed { "ok" } else { "MISS" }),
    ]);
    table.row(["alert".into(), format!("firing={firing} fired_count={fired_count}")]);
    table.row([
        "scrape".into(),
        format!("{scrape_ms:.2}ms metrics={metrics_ok} health={health_ok}"),
    ]);
    print!("{}", table.render());

    let passed = pinpointed && firing && fired_count == 1 && metrics_ok && health_ok;
    let json = format!(
        "{{\n  \"deltas\": {n_deltas},\n  \"seed\": {seed},\n  \
         \"apply_s\": {apply_s:.6},\n  \"deltas_per_s\": {deltas_per_s:.1},\n  \
         \"history_bytes\": {history_bytes},\n  \"reopen_s\": {reopen_s:.6},\n  \
         \"breaking_seq\": {breaking_seq},\n  \"pinpointed\": {pinpointed},\n  \
         \"alert_firing\": {firing},\n  \"alert_fired_count\": {fired_count},\n  \
         \"scrape_ms\": {scrape_ms:.3},\n  \"metrics_ok\": {metrics_ok},\n  \
         \"health_ok\": {health_ok},\n  \"passed\": {passed}\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write BENCH_monitor.json");
    println!("\nwrote {out_path}");
    assert!(
        passed,
        "monitor smoke gate failed: pinpointed={pinpointed} firing={firing} \
         fired_count={fired_count} metrics_ok={metrics_ok} health_ok={health_ok}"
    );
    println!("monitor smoke gate PASSED");
}
