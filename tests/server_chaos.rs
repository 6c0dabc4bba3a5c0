//! Chaos driver for `evofd-server`: socket-level failure injection over
//! the multi-client SQL + replication service.
//!
//! * two concurrent sessions keep **independent** session state
//!   (read-only flag, render limit) over one shared engine;
//! * a follower tails a served leader over TCP and reaches
//!   **byte-identical** state, surviving a server kill/restart mid-tail;
//! * a leader checkpoint forces **re-bootstrap over the socket** when
//!   the follower predates the shipping horizon;
//! * requests fragmented at **every byte boundary** still execute (the
//!   server reassembles frames across arbitrarily small reads);
//! * connections cut **mid-frame** — a client killed mid-request, a
//!   follower killed mid-bootstrap — leave the engine consistent;
//! * a subscriber receives pushed drift events, including events that
//!   interleave with its own request/response traffic.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use evofd::core::Fd;
use evofd::incremental::ValidatorConfig;
use evofd::persist::{Database, DurableEngine, PersistOptions, ReplicaState, SyncPolicy};
use evofd::server::proto::{read_frame, write_frame, Request, Response};
use evofd::server::{Client, ClientError, EvofdServer, ServerOptions, SocketTransport};
use evofd::storage::relation_of_strs;

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("evofd_server_chaos_{}", std::process::id())).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> PersistOptions {
    PersistOptions { sync: SyncPolicy::PerCommit, ..PersistOptions::default() }
}

/// A durable engine over one table `t (X, Y TEXT)` tracking `X -> Y`.
fn engine_with_table(dir: &Path) -> DurableEngine {
    let rel =
        relation_of_strs("t", &["X", "Y"], &[&["x0", "y0"], &["x1", "y1"], &["x2", "y2"]]).unwrap();
    let fds = vec![Fd::parse(rel.schema(), "X -> Y").unwrap()];
    let mut db = Database::open(dir, opts()).unwrap();
    db.create_table(rel, fds, ValidatorConfig::default()).unwrap();
    DurableEngine::from_database(db).unwrap()
}

fn start_server(dir: &Path) -> EvofdServer {
    let engine = if dir.join("t").exists() {
        DurableEngine::open(dir, opts()).unwrap()
    } else {
        engine_with_table(dir)
    };
    EvofdServer::start(engine, "127.0.0.1:0", ServerOptions { read_only: false, poll_ms: 5 })
        .unwrap()
}

fn leader_image(server: &EvofdServer) -> Vec<u8> {
    server.with_engine(|e| e.with_database(|db| db.get("t").unwrap().encode_current_snapshot()))
}

#[test]
fn concurrent_sessions_keep_independent_state() {
    let dir = tmpdir("sessions");
    let server = start_server(&dir);
    let addr = server.addr().to_string();

    let mut a = Client::connect(&addr, "session-a").unwrap();
    let mut b = Client::connect(&addr, "session-b").unwrap();

    // A turns itself read-only; B stays writable on the SAME engine.
    a.set_session(true, 2).unwrap();
    let err = a.sql("INSERT INTO t VALUES ('x9', 'y9')").unwrap_err();
    assert!(
        matches!(&err, ClientError::Server(m) if m.to_lowercase().contains("read-only")),
        "read-only session must reject DML: {err}"
    );
    b.sql("INSERT INTO t VALUES ('x9', 'y9')").unwrap();

    // Render limits are per session too: A capped at 2 rows, B at 50.
    let rows_a = a.sql("SELECT X, Y FROM t").unwrap();
    let rows_b = b.sql("SELECT X, Y FROM t").unwrap();
    assert!(rows_b.lines().count() > rows_a.lines().count(), "a={rows_a}\nb={rows_b}");
    assert!(rows_b.contains("x9"), "B sees its own committed write: {rows_b}");

    // A flips back to writable without touching B's session.
    a.set_session(false, 50).unwrap();
    a.sql("INSERT INTO t VALUES ('x10', 'y10')").unwrap();

    // A `SET` in one session must not leak into the other or the base
    // engine (the swap-in/swap-out discipline around each statement).
    a.sql("SET compact_threshold = 0.9").unwrap();
    b.sql("INSERT INTO t VALUES ('x11', 'y11')").unwrap();
    server.with_engine(|e| {
        assert_ne!(
            e.engine().settings().compact_threshold,
            0.9,
            "a session SET leaked into the base engine settings"
        );
    });
}

#[test]
fn socket_follower_converges_and_survives_server_restart() {
    let ldir = tmpdir("restart_leader");
    let rdir = tmpdir("restart_replica");
    let mut server = start_server(&ldir);
    let addr = server.addr().to_string();

    let mut writer = Client::connect(&addr, "writer").unwrap();
    for i in 0..10 {
        writer.sql(&format!("INSERT INTO t VALUES ('a{i}', 'b{i}')")).unwrap();
    }

    // Cold bootstrap + tail over TCP.
    let mut transport = SocketTransport::new(&addr, "t", "chaos-follower");
    let mut replica =
        ReplicaState::open_or_bootstrap(&rdir.join("t"), &mut transport, opts()).unwrap();
    replica.sync(&mut transport).unwrap();
    assert_eq!(leader_image(&server), replica.table().encode_current_snapshot());

    // More writes land, then the server is killed mid-tail: the next
    // sync fails at the transport.
    for i in 10..16 {
        writer.sql(&format!("INSERT INTO t VALUES ('a{i}', 'b{i}')")).unwrap();
    }
    server.shutdown();
    let engine = server.try_into_engine().expect("all sessions severed");
    assert!(replica.sync(&mut transport).is_err(), "sync against a dead server must fail");

    // Restart on a fresh port (same durable engine), re-point the
    // transport, and the tail resumes exactly where it was acked.
    let server =
        EvofdServer::start(engine, "127.0.0.1:0", ServerOptions { read_only: false, poll_ms: 5 })
            .unwrap();
    transport.set_addr(&server.addr().to_string());
    let report = replica.sync(&mut transport).unwrap();
    assert!(!report.bootstrapped, "resume must tail frames, not re-bootstrap");
    assert_eq!(
        leader_image(&server),
        replica.table().encode_current_snapshot(),
        "replica must be byte-identical after the kill/restart"
    );

    // The resume fetch doubled as the follower's ack: the restarted
    // leader knows where this follower stands, by name.
    let acked = server
        .acks()
        .into_iter()
        .find(|(t, f, _)| t == "t" && f == "chaos-follower")
        .map(|(_, _, seq)| seq)
        .expect("leader tracks the follower's ack");
    assert!(acked >= 10, "acked {acked}");
}

#[test]
fn checkpoint_forces_rebootstrap_over_the_socket() {
    let ldir = tmpdir("rebootstrap_leader");
    let rdir = tmpdir("rebootstrap_replica");
    let server = start_server(&ldir);
    let addr = server.addr().to_string();

    let mut writer = Client::connect(&addr, "writer").unwrap();
    writer.sql("INSERT INTO t VALUES ('a0', 'b0')").unwrap();

    let mut transport = SocketTransport::new(&addr, "t", "reboot-follower");
    let mut replica =
        ReplicaState::open_or_bootstrap(&rdir.join("t"), &mut transport, opts()).unwrap();
    replica.sync(&mut transport).unwrap();

    // The leader keeps writing and then checkpoints (snapshot advances
    // PAST the follower's position, WAL resets): the follower now
    // predates the shipping horizon and must re-bootstrap over the
    // socket.
    writer.sql("INSERT INTO t VALUES ('a1', 'b1')").unwrap();
    writer.sql("INSERT INTO t VALUES ('a2', 'b2')").unwrap();
    server.with_engine(|e| e.checkpoint().unwrap());
    writer.sql("INSERT INTO t VALUES ('a3', 'b3')").unwrap();
    let report = replica.sync(&mut transport).unwrap();
    assert!(report.bootstrapped, "follower behind the snapshot horizon must re-bootstrap");
    assert_eq!(leader_image(&server), replica.table().encode_current_snapshot());
}

#[test]
fn requests_fragmented_at_every_split_point_still_execute() {
    let dir = tmpdir("fragment");
    let server = start_server(&dir);
    let addr = server.addr().to_string();

    let mut hello = Vec::new();
    write_frame(&mut hello, &Request::Hello { client: "frag".into() }.encode()).unwrap();
    let mut query = Vec::new();
    write_frame(&mut query, &Request::Sql { sql: "SELECT COUNT(*) FROM t".into() }.encode())
        .unwrap();
    let wire: Vec<u8> = hello.iter().chain(query.iter()).copied().collect();

    // Cut the two-request byte stream at every boundary — inside the
    // length header, the CRC, the payload, and across the frame border.
    for split in 1..wire.len() {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(&wire[..split]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
        stream.write_all(&wire[split..]).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let first = read_frame(&mut reader).unwrap().expect("hello response");
        assert!(matches!(Response::decode(&first).unwrap(), Response::Hello { .. }));
        let second = read_frame(&mut reader).unwrap().expect("sql response");
        match Response::decode(&second).unwrap() {
            Response::Sql { text } => {
                assert!(text.contains('3'), "split {split}: wrong result: {text}")
            }
            other => panic!("split {split}: unexpected response {other:?}"),
        }
    }
}

#[test]
fn mid_frame_cuts_leave_the_engine_consistent() {
    let dir = tmpdir("midframe");
    let server = start_server(&dir);
    let addr = server.addr().to_string();

    // 1. A client dies mid-request: half an INSERT frame, then the
    //    connection drops. The statement never ran.
    let mut torn = Vec::new();
    write_frame(
        &mut torn,
        &Request::Sql { sql: "INSERT INTO t VALUES ('zz', 'zz')".into() }.encode(),
    )
    .unwrap();
    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(&torn[..torn.len() / 2]).unwrap();
        stream.flush().unwrap();
    } // dropped mid-frame

    // 2. A follower dies mid-bootstrap: it requests the snapshot, reads
    //    a few bytes of the response and vanishes.
    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        write_frame(&mut stream, &Request::Bootstrap { table: "t".into() }.encode()).unwrap();
        let mut partial = [0u8; 4];
        stream.read_exact(&mut partial).unwrap();
    } // dropped mid-response

    // The engine is untouched: same row count, and a fresh bootstrap is
    // byte-identical to the leader.
    let mut client = Client::connect(&addr, "verify").unwrap();
    let count = client.sql("SELECT COUNT(*) FROM t").unwrap();
    assert!(count.contains('3'), "torn frames must not execute: {count}");

    let rdir = tmpdir("midframe_replica");
    let mut transport = SocketTransport::new(&addr, "t", "midframe-follower");
    let mut replica =
        ReplicaState::open_or_bootstrap(&rdir.join("t"), &mut transport, opts()).unwrap();
    replica.sync(&mut transport).unwrap();
    assert_eq!(leader_image(&server), replica.table().encode_current_snapshot());
}

#[test]
fn subscribers_receive_pushed_drift_events() {
    let dir = tmpdir("subscribe");
    let server = start_server(&dir);
    let addr = server.addr().to_string();

    let mut watcher = Client::connect(&addr, "watcher").unwrap();
    watcher.subscribe("t").unwrap();

    // Another session violates X -> Y: x0 already maps to y0.
    let mut writer = Client::connect(&addr, "writer").unwrap();
    writer.sql("INSERT INTO t VALUES ('x0', 'CONFLICT')").unwrap();

    let (table, event) = watcher
        .next_event_timeout(Duration::from_secs(10))
        .unwrap()
        .expect("drift event must be pushed");
    assert_eq!(table, "t");
    assert!(event.contains("VIOLATED"), "event should describe the drift: {event}");

    // Events interleave with the subscriber's own requests: run a query
    // on the watcher connection while more drift lands; the pushed frame
    // is buffered, not lost.
    writer.sql("DELETE FROM t WHERE Y = 'CONFLICT'").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    watcher.sql("SELECT COUNT(*) FROM t").unwrap();
    let next = watcher.next_event_timeout(Duration::from_secs(10)).unwrap();
    assert!(next.is_some(), "repair-side drift event must arrive too");

    drop(server);
}
