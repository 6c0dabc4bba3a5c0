//! `server` — multi-client throughput study of `evofd-server`.
//!
//! One experiment, written to `BENCH_server.json`, doubling as the CI
//! socket-service smoke gate (`--smoke`):
//!
//! 1. a durable engine with one FD-tracked table is served over loopback
//!    TCP;
//! 2. N concurrent clients each run a mixed workload — point reads,
//!    `COUNT(*)` scans and INSERT deltas — in their own sessions, while
//!    one subscriber client rides the push feed for drift events;
//! 3. after the run the final `COUNT(*)` is asserted to equal the base
//!    rows plus every acknowledged insert (no lost or duplicated
//!    statements under concurrency), and the subscriber must have seen
//!    the planted FD violations as pushed events. Any mismatch aborts.
//!
//! Flags: `--clients N` (default 8; `--smoke` forces 4), `--ops N` per
//! client (default 400; `--smoke` 120), `--seed S`, `--out PATH`.

use std::path::PathBuf;
use std::time::Duration;

use evofd_bench::{banner, timed, Args};
use evofd_core::{Fd, TextTable};
use evofd_incremental::ValidatorConfig;
use evofd_persist::{Database, DurableEngine, PersistOptions};
use evofd_server::{Client, EvofdServer, ServerOptions};
use evofd_storage::relation_of_strs;

fn bench_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("evofd_bench_server_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Parse the single numeric cell out of a rendered `COUNT(*)` result.
fn parse_count(text: &str) -> u64 {
    text.lines()
        .rev()
        .find_map(|l| l.trim().parse().ok())
        .unwrap_or_else(|| panic!("no count in {text:?}"))
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let clients = args.get_or("clients", if smoke { 4 } else { 8usize });
    let ops = args.get_or("ops", if smoke { 120 } else { 400usize });
    let out_path = args.get("out").unwrap_or("BENCH_server.json").to_string();

    banner(
        "server — N concurrent TCP sessions: point reads, scans, inserts, push feed",
        "final COUNT(*) must equal base + every acknowledged insert; drift must be pushed",
    );

    // 1. Serve a durable engine with one FD-tracked table.
    let rel =
        relation_of_strs("bench", &["X", "Y"], &[&["x0", "y0"], &["x1", "y1"], &["x2", "y2"]])
            .unwrap();
    let base_rows = rel.row_count() as u64;
    let fds = vec![Fd::parse(rel.schema(), "X -> Y").unwrap()];
    let mut db = Database::open(&bench_dir(), PersistOptions::default()).unwrap();
    db.create_table(rel, fds, ValidatorConfig::default()).unwrap();
    let engine = DurableEngine::from_database(db).unwrap();
    let server =
        EvofdServer::start(engine, "127.0.0.1:0", ServerOptions { read_only: false, poll_ms: 5 })
            .unwrap();
    let addr = server.addr().to_string();
    println!("serving bench table on {addr}: {clients} client(s) × {ops} op(s)");

    // 2. One subscriber rides the push feed for the whole run. The
    //    subscription is acknowledged BEFORE any worker starts, so the
    //    planted violations cannot race past it.
    let mut sub_client = Client::connect(&addr, "bench-subscriber").unwrap();
    sub_client.subscribe("bench").unwrap();
    let subscriber = std::thread::spawn(move || {
        let mut events = 0u64;
        while let Ok(Some(_)) = sub_client.next_event_timeout(Duration::from_millis(1500)) {
            events += 1;
        }
        events
    });

    // 3. N concurrent mixed-workload sessions. Each client's first
    //    insert violates X -> Y (x0 already maps to y0), feeding the
    //    subscriber; the rest are clean per-client keys.
    let (per_client, elapsed) = timed(|| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr, &format!("bench-client-{c}")).unwrap();
                    let mut inserts = 0u64;
                    for op in 0..ops {
                        match op % 4 {
                            0 => {
                                let key = if op == 0 {
                                    "x0".to_string() // planted violation
                                } else {
                                    format!("c{c}k{op}")
                                };
                                client
                                    .sql(&format!("INSERT INTO bench VALUES ('{key}', 'v{c}')"))
                                    .unwrap();
                                inserts += 1;
                            }
                            1 => {
                                let text =
                                    client.sql("SELECT Y FROM bench WHERE X = 'x1'").unwrap();
                                assert!(text.contains("y1"), "point read broke: {text}");
                            }
                            _ => {
                                client.sql("SELECT COUNT(*) FROM bench").unwrap();
                            }
                        }
                    }
                    inserts
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect::<Vec<u64>>()
    });
    let inserted: u64 = per_client.iter().sum();
    let total_ops = (clients * ops) as u64;

    // 4. Correctness: the served engine holds exactly base + inserted
    //    rows, and the subscriber saw the planted violations.
    let mut verify = Client::connect(&addr, "bench-verify").unwrap();
    let count = parse_count(&verify.sql("SELECT COUNT(*) FROM bench").unwrap());
    assert_eq!(
        count,
        base_rows + inserted,
        "{clients} sessions × {ops} ops lost or duplicated statements"
    );
    let events = subscriber.join().unwrap();
    assert!(events > 0, "the drift subscriber saw no pushed events");
    println!(
        "verified: {count} rows = {base_rows} base + {inserted} inserts; \
         {events} drift event(s) pushed"
    );

    let ops_per_sec = total_ops as f64 / elapsed.as_secs_f64().max(1e-12);
    let mut table = TextTable::new(["metric", "value"]);
    table.row(["clients".into(), clients.to_string()]);
    table.row(["ops (total)".into(), total_ops.to_string()]);
    table.row(["seconds".into(), format!("{:.4}", elapsed.as_secs_f64())]);
    table.row(["ops/sec".into(), format!("{ops_per_sec:.0}")]);
    table.row(["drift events pushed".into(), events.to_string()]);
    print!("{}", table.render());

    let json = format!(
        "{{\n  \"bench\": \"server\",\n  \"clients\": {clients},\n  \"ops_per_client\": {ops},\n  \
         \"total_ops\": {total_ops},\n  \"inserted\": {inserted},\n  \
         \"seconds\": {:.6},\n  \"ops_per_sec\": {ops_per_sec:.1},\n  \
         \"drift_events\": {events},\n  \"verified\": true\n}}\n",
        elapsed.as_secs_f64(),
    );
    std::fs::write(&out_path, json).expect("write bench json");
    println!("\nwrote {out_path}");
}
