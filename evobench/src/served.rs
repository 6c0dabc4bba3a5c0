//! `served`: reads beside writes over the network service, so that a
//! write-path gain that costs reads — for example through a longer hold
//! on the shared engine lock — shows up here.
//!
//! `EvofdServer` on loopback over a 10,000-row table (index on the key,
//! 2 tracked FDs, advisor materialised in set-up). Two client sessions on
//! two threads run closed loops — each waits for its reply — of 60%
//! indexed point SELECT, 10% FD-collapsible GROUP BY, 10% `COUNT(*)`, 5%
//! `SHOW FDS` and 15% single-row INSERT.

use std::time::Instant;

use evofd_incremental::ValidatorConfig;
use evofd_persist::{Database, DurableEngine};
use evofd_server::{Client, EvofdServer, ServerOptions};

use crate::bench::{ctx, gate, persist_opts, Bench, Probe, Res};
use crate::data::{self, check_point_render, parse_fds, Kind, Model, Rng, Stmt};

/// Client sessions, one thread each.
pub const CLIENTS: usize = 2;
/// Statements per client in the timed phase.
pub const OPS_PER_CLIENT: usize = 1500;

/// What one client thread measured: per statement its kind, start, end
/// and whether it succeeded; and the request and reply bytes it moved.
struct ClientLog {
    ops: Vec<(Kind, Instant, Instant, bool)>,
    bytes: u64,
}

/// Run the workload.
pub fn run(b: &mut Bench) -> Res<()> {
    let spec = data::served_table();
    let base = spec.generate();
    let mut model = Model::new(&spec, &base);
    let fds = parse_fds(&base, &spec.fds)?;
    b.rows.push((spec.name.into(), base.row_count()));
    let scripts: Vec<Vec<Stmt>> =
        (0..CLIENTS).map(|c| script(&mut model, &mut Rng::new(b.seed, 100 + c as u64))).collect();

    let (mut server, db_dir, mut followers) = b.setup(|b, dir| {
        let mut db = ctx(Database::open(dir, persist_opts()), "opening the database")?;
        ctx(db.create_table(base.clone(), fds.clone(), ValidatorConfig::default()), "import")?;
        let mut engine = ctx(DurableEngine::from_database(db), "engine")?;
        for sql in ["CREATE INDEX ON served (a0)", "SUGGEST REPAIRS FOR served LIMIT 1"] {
            ctx(engine.execute(sql), sql)?;
        }
        let followers = b.bootstrap_followers(dir, spec.name)?;
        let server = ctx(
            EvofdServer::start(engine, "127.0.0.1:0", ServerOptions::default()),
            "starting the server",
        )?;
        Ok((server, dir.to_path_buf(), followers))
    })?;
    let addr = server.addr().to_string();

    let logs = b.timed(|_| {
        let logs: Vec<Res<ClientLog>> = std::thread::scope(|scope| {
            let handles: Vec<_> = scripts
                .iter()
                .enumerate()
                .map(|(c, script)| {
                    let addr = addr.clone();
                    let base_rows = base.row_count();
                    scope.spawn(move || run_client(&addr, c, script, base_rows))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("a client thread panicked".into())))
                .collect()
        });
        let logs = logs.into_iter().collect::<Res<Vec<ClientLog>>>()?;
        let n = logs.iter().map(|l| l.ops.len() as u64).sum();
        Ok((logs, n))
    })?;
    server.shutdown();
    let mut engine = server.try_into_engine().ok_or("the server kept the engine")?;

    for log in &logs {
        for &(kind, start, end, ok) in &log.ops {
            let us = ok.then(|| (end - start).as_secs_f64() * 1e6);
            b.rec.record(kind.class(), us);
            if let Some(layers) = &mut b.layers {
                layers.record_roundtrip(start, end, log.bytes / log.ops.len() as u64);
            }
        }
    }
    b.check_table(&engine, &model)?;
    if let Some(layers) = &mut b.layers {
        let reads: Vec<String> = scripts
            .iter()
            .flatten()
            .filter(|s| s.sql.starts_with("SELECT"))
            .map(|s| s.sql.clone())
            .collect();
        layers.replay_reads(&mut engine, spec.name, &reads)?;
    }

    let mut engine = b.end_phase(engine, &db_dir, spec.name, &mut followers)?;
    let candidates: Vec<String> = spec.fds.iter().map(|s| s.to_string()).collect();
    b.probe(
        &mut engine,
        &mut model,
        &candidates,
        Probe { reads: false, inserts: false, modifies: true, designer_passes: 5 },
    )?;
    b.served_probe(engine, &model)
}

/// One client's statements: the served mix over base keys (never
/// modified here, so each point read has a known row) plus inserts of
/// fresh rows.
fn script(model: &mut Model, rng: &mut Rng) -> Vec<Stmt> {
    (0..OPS_PER_CLIENT)
        .map(|_| {
            let roll = rng.below(100);
            let (kind, sql) = match roll {
                0..=59 => return model.point(model.random_base_key(rng)),
                60..=69 => (Kind::GroupBy, "SELECT a1, a3, COUNT(*) FROM served GROUP BY a1, a3"),
                70..=79 => (Kind::Count, "SELECT COUNT(*) FROM served"),
                80..=84 => (Kind::ShowFds, "SHOW FDS FOR served"),
                _ => return model.insert(rng, 0.0),
            };
            Stmt { kind, sql: sql.to_string(), expect: None }
        })
        .collect()
}

/// Run one client's closed loop. Gates: every point read returns its
/// row; `COUNT(*)` never reads below base + this client's acknowledged
/// inserts.
fn run_client(addr: &str, c: usize, script: &[Stmt], base_rows: usize) -> Res<ClientLog> {
    let mut client = ctx(Client::connect(addr, &format!("bench-client-{c}")), "connect")?;
    let mut log = ClientLog { ops: Vec::with_capacity(script.len()), bytes: 0 };
    let mut acked = 0;
    for stmt in script {
        let start = Instant::now();
        let reply = client.sql(&stmt.sql);
        let end = Instant::now();
        let Ok(text) = reply else {
            log.ops.push((stmt.kind, start, end, false));
            continue;
        };
        log.ops.push((stmt.kind, start, end, true));
        log.bytes += (stmt.sql.len() + text.len()) as u64;
        match stmt.kind {
            Kind::Insert => acked += 1,
            Kind::Point => check_point_render(&text, stmt.expect.as_deref().unwrap_or_default())
                .map_err(|e| format!("correctness gate failed: {e}"))?,
            Kind::Count => {
                let count: usize =
                    text.lines().rev().find_map(|l| l.trim().parse().ok()).unwrap_or(0);
                gate(count >= base_rows + acked, || {
                    format!("COUNT(*) read {count} below {base_rows} base + {acked} acknowledged")
                })?;
            }
            _ => {}
        }
    }
    Ok(log)
}
