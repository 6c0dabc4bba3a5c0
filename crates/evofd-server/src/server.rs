//! The serving side: a TCP accept loop (shared listener plumbing from
//! `evofd-obs`) dispatching one [`crate::session::Session`] per
//! connection over one shared [`DurableEngine`], plus a background
//! poller that drains each table's drift feed and alert transitions into
//! pushed [`crate::proto::Response::Event`] frames for subscribed
//! clients.

use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use evofd_incremental::SubscriptionId;
use evofd_obs::net::{spawn_listener, TcpServer};
use evofd_persist::store::Database;
use evofd_persist::{AckTracker, DurableEngine};

use crate::session::Session;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Force every session read-only (serving a replica directory).
    pub read_only: bool,
    /// Subscription poll interval in milliseconds.
    pub poll_ms: u64,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions { read_only: false, poll_ms: 25 }
    }
}

/// One subscriber: connection id, table filter (empty = all) and the
/// channel its pusher thread drains.
struct Subscriber {
    conn: u64,
    table: String,
    sender: Sender<(String, String)>,
}

/// Subscription fan-out state shared between sessions and the poller.
#[derive(Default)]
struct SubRegistry {
    subscribers: Vec<Subscriber>,
    /// Per-table drift-feed cursor held by the poller.
    feeds: HashMap<String, SubscriptionId>,
    /// Per-table alert firing flags from the previous poll.
    alert_firing: HashMap<String, Vec<bool>>,
}

/// State shared by every connection and the poller.
pub(crate) struct Shared {
    pub(crate) engine: Mutex<DurableEngine>,
    pub(crate) db: Arc<Mutex<Database>>,
    pub(crate) acks: Mutex<AckTracker>,
    pub(crate) base_read_only: bool,
    subs: Mutex<SubRegistry>,
    conn_counter: AtomicU64,
    /// Live connection streams, shut down on server shutdown so session
    /// threads exit deterministically (the "kill the server" chaos case).
    conns: Mutex<Vec<(u64, TcpStream)>>,
}

impl Shared {
    pub(crate) fn lock_engine(&self) -> MutexGuard<'_, DurableEngine> {
        self.engine.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn lock_db(&self) -> MutexGuard<'_, Database> {
        self.db.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn lock_acks(&self) -> MutexGuard<'_, AckTracker> {
        self.acks.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_subs(&self) -> MutexGuard<'_, SubRegistry> {
        self.subs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register a subscription for connection `conn`; events for `table`
    /// (or every table when empty) flow through the returned channel.
    ///
    /// The per-table feed cursors are created HERE, not on the poller's
    /// next tick: once the subscribe request is acknowledged, no event
    /// published after it can fall into the gap before the first poll.
    pub(crate) fn subscribe(
        &self,
        conn: u64,
        table: String,
    ) -> std::sync::mpsc::Receiver<(String, String)> {
        let (sender, receiver) = std::sync::mpsc::channel();
        let mut subs = self.lock_subs();
        subs.subscribers.push(Subscriber { conn, table: table.clone(), sender });
        let mut db = self.lock_db();
        let names: Vec<String> = db.names().iter().map(|n| n.to_string()).collect();
        for name in names {
            if !table.is_empty() && table != name {
                continue;
            }
            let Ok(t) = db.get_mut(&name) else { continue };
            subs.feeds.entry(name).or_insert_with(|| t.validator_mut().subscribe());
        }
        receiver
    }

    /// Drop connection `conn`'s subscriptions (closing its pusher
    /// channel) and its ack records.
    pub(crate) fn disconnect(&self, conn: u64, follower: &str) {
        self.lock_subs().subscribers.retain(|s| s.conn != conn);
        self.lock_acks().forget(follower);
        self.lock_conns().retain(|(id, _)| *id != conn);
    }

    fn lock_conns(&self) -> MutexGuard<'_, Vec<(u64, TcpStream)>> {
        self.conns.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One poller pass: drain every table's drift feed and alert
    /// transitions, fanning events out to matching subscribers.
    fn poll_events(&self) {
        let mut subs = self.lock_subs();
        if subs.subscribers.is_empty() {
            // Nobody listening: drop the feed cursors so the validator
            // does not buffer events for a dead audience.
            if !subs.feeds.is_empty() {
                let mut db = self.lock_db();
                let feeds = std::mem::take(&mut subs.feeds);
                for (table, id) in feeds {
                    if let Ok(t) = db.get_mut(&table) {
                        t.validator_mut().unsubscribe(id);
                    }
                }
                subs.alert_firing.clear();
            }
            return;
        }
        let mut events: Vec<(String, String)> = Vec::new();
        {
            let mut db = self.lock_db();
            let names: Vec<String> = db.names().iter().map(|n| n.to_string()).collect();
            for name in names {
                let Ok(t) = db.get_mut(&name) else { continue };
                let feed = *subs
                    .feeds
                    .entry(name.clone())
                    .or_insert_with(|| t.validator_mut().subscribe());
                for drift in t.validator_mut().poll(feed) {
                    events.push((name.clone(), drift.to_string()));
                }
                let firing: Vec<bool> = t.alerts().runtime.iter().map(|r| r.firing).collect();
                let rules: Vec<String> = t.alerts().rules.iter().map(|r| r.to_string()).collect();
                match subs.alert_firing.get(&name) {
                    Some(prev) if prev.len() == firing.len() => {
                        for (i, (was, is)) in prev.iter().zip(&firing).enumerate() {
                            if was != is {
                                let verb = if *is { "fired" } else { "resolved" };
                                events.push((name.clone(), format!("alert {verb}: {}", rules[i])));
                            }
                        }
                    }
                    // First sight of the table (or a changed rule set):
                    // record without emitting — transitions only.
                    _ => {}
                }
                subs.alert_firing.insert(name.clone(), firing);
            }
        }
        if events.is_empty() {
            return;
        }
        // A send fails only when the pusher (and its connection) died;
        // the disconnect path removes the entry, so just skip here.
        for (table, event) in &events {
            for sub in &subs.subscribers {
                if sub.table.is_empty() || sub.table == *table {
                    let _ = sub.sender.send((table.clone(), event.clone()));
                }
            }
        }
    }
}

/// How long shutdown waits for severed sessions to finish their current
/// statement and exit.
const SESSION_EXIT_WAIT: Duration = Duration::from_secs(10);

/// The stop flag and the number of live session threads. It lives
/// outside [`Shared`] so a session thread can be counted before it takes
/// a reference to the engine.
#[derive(Default)]
struct Lifecycle {
    stop: AtomicBool,
    live: Mutex<usize>,
    idle: Condvar,
}

impl Lifecycle {
    fn lock_live(&self) -> MutexGuard<'_, usize> {
        self.live.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Count a new session thread, or `None` once shutdown has begun.
    /// The stop flag is read under the count's lock, so a session either
    /// is counted before shutdown waits or never starts.
    fn enter(&self) -> Option<LiveSession<'_>> {
        let mut live = self.lock_live();
        if self.stop.load(Ordering::SeqCst) {
            return None;
        }
        *live += 1;
        Some(LiveSession(self))
    }

    /// Wait (bounded) until every counted session thread has exited.
    fn wait_idle(&self) {
        let live = self.lock_live();
        let _ = self
            .idle
            .wait_timeout_while(live, SESSION_EXIT_WAIT, |n| *n > 0)
            .unwrap_or_else(|e| e.into_inner());
    }
}

/// A counted session thread; dropping it uncounts the thread.
struct LiveSession<'a>(&'a Lifecycle);

impl Drop for LiveSession<'_> {
    fn drop(&mut self) {
        let mut live = self.0.lock_live();
        *live -= 1;
        if *live == 0 {
            self.0.idle.notify_all();
        }
    }
}

/// A running `evofd-server`: accept loop + event poller over one durable
/// engine. Dropping it (or calling [`EvofdServer::shutdown`]) stops
/// accepting, severs every live connection, joins the poller and waits
/// for the session threads to exit.
pub struct EvofdServer {
    tcp: Option<TcpServer>,
    shared: Arc<Shared>,
    life: Arc<Lifecycle>,
    poller: Option<JoinHandle<()>>,
}

impl EvofdServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and serve `engine`.
    pub fn start(
        engine: DurableEngine,
        addr: &str,
        opts: ServerOptions,
    ) -> std::io::Result<EvofdServer> {
        let db = engine.database_handle();
        let shared = Arc::new(Shared {
            engine: Mutex::new(engine),
            db,
            acks: Mutex::new(AckTracker::new()),
            base_read_only: opts.read_only,
            subs: Mutex::new(SubRegistry::default()),
            conn_counter: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let life = Arc::new(Lifecycle::default());
        let conn_life = Arc::clone(&life);
        // Weak: the handler outlives each session on its thread, and only
        // sessions may hold the engine, so that the engine is free once
        // the live count reaches zero.
        let conn_shared = Arc::downgrade(&shared);
        let tcp = spawn_listener(addr, "evofd-server", move |stream| {
            let Some(_live) = conn_life.enter() else { return };
            let Some(shared) = conn_shared.upgrade() else { return };
            // Small request/response frames: Nagle+delayed-ACK would add
            // ~40ms per round trip.
            stream.set_nodelay(true).ok();
            let conn = shared.conn_counter.fetch_add(1, Ordering::SeqCst);
            let Ok(clone) = stream.try_clone() else { return };
            shared.lock_conns().push((conn, clone));
            if conn_life.stop.load(Ordering::SeqCst) {
                // Shutdown severed the registered connections before this
                // one was registered: sever it here.
                let _ = stream.shutdown(Shutdown::Both);
            }
            Session::new(shared, conn).run(stream);
        })?;
        let poll_life = Arc::clone(&life);
        let poll_shared = Arc::clone(&shared);
        let interval = Duration::from_millis(opts.poll_ms.max(1));
        let poller =
            std::thread::Builder::new().name("evofd-server-poll".into()).spawn(move || {
                while !poll_life.stop.load(Ordering::SeqCst) {
                    poll_shared.poll_events();
                    std::thread::sleep(interval);
                }
            })?;
        Ok(EvofdServer { tcp: Some(tcp), shared, life, poller: Some(poller) })
    }

    /// The bound address (port 0 resolved).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.tcp.as_ref().expect("server running").addr()
    }

    /// Run `f` against the served engine (tests and embedding callers).
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut DurableEngine) -> R) -> R {
        f(&mut self.shared.lock_engine())
    }

    /// Current `(table, follower, acked seq)` triples.
    pub fn acks(&self) -> Vec<(String, String, u64)> {
        self.shared.lock_acks().iter().map(|(t, f, s)| (t.to_string(), f.to_string(), s)).collect()
    }

    /// Stop accepting, sever live connections, join the poller and wait
    /// for the session threads to exit. The engine keeps its durable
    /// state — restart by calling [`EvofdServer::start`] on the same
    /// directory. Idempotent.
    pub fn shutdown(&mut self) {
        self.life.stop.store(true, Ordering::SeqCst);
        if let Some(mut tcp) = self.tcp.take() {
            tcp.shutdown();
        }
        // Sever in-flight connections mid-whatever-they-were-doing: the
        // chaos tests rely on this being an abrupt, kill-like cut.
        for (_, stream) in self.shared.lock_conns().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(poller) = self.poller.take() {
            let _ = poller.join();
        }
        self.life.wait_idle();
    }

    /// Shut down and hand back the engine **iff** this server holds the
    /// only reference (every session thread exited within the shutdown
    /// wait).
    pub fn try_into_engine(mut self) -> Option<DurableEngine> {
        self.shutdown();
        let shared = Arc::clone(&self.shared);
        drop(self);
        Arc::try_unwrap(shared)
            .ok()
            .map(|s| s.engine.into_inner().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Drop for EvofdServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Render one SQL script's results the way `evofd sql` prints them: row
/// relations as text tables (capped at `limit` rows), every other result
/// as its debug line.
pub fn render_results(results: &[evofd_sql::QueryResult], limit: usize) -> String {
    let mut out = String::new();
    for result in results {
        match result {
            evofd_sql::QueryResult::Rows(rel) => out.push_str(&rel.render(limit)),
            other => {
                out.push_str(&format!("{other:?}"));
                out.push('\n');
            }
        }
    }
    out
}
