//! The `evofd` subcommands.

use std::io::BufRead;
use std::path::Path;

use evofd_core::{
    bcnf_decompose, bcnf_violations, condition_repairs, discover_fds, find_fd_repairs,
    format_confidence, format_duration, minimal_cover, repair_fd, validate, violations,
    AdvisorSession, DiscoveryConfig, Fd, RepairConfig, SearchMode, TextTable,
};
use evofd_datagen as dg;
use evofd_incremental::{
    Delta, IncrementalValidator, LiveAdvisor, LiveRelation, ValidatorConfig, ValidatorStats,
    DEFAULT_COMPACT_THRESHOLD,
};
use evofd_persist::{
    read_position, Database, DirTransport, DurableEngine, DurableRelation, FrameTransport,
    PersistOptions, ReplicaState, SyncPolicy,
};
use evofd_server::{Client, EvofdServer, ServerOptions, SocketTransport};
use evofd_storage::{
    parse_cell, read_csv_path, read_csv_records, write_csv_path, CsvOptions, Relation, Value,
};

use crate::args::Cli;

/// Top-level error type: rendered messages only.
pub type CmdResult = Result<(), String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Load the `--csv` relation.
fn load_relation(cli: &Cli) -> Result<Relation, String> {
    let path = cli.require("csv")?;
    read_csv_path(Path::new(path), &CsvOptions::default()).map_err(err)
}

/// Parse every `--fd` option against the relation's schema.
fn parse_fds(cli: &Cli, rel: &Relation) -> Result<Vec<Fd>, String> {
    let texts = cli.get_all("fd");
    if texts.is_empty() {
        return Err("at least one --fd \"A, B -> C\" is required".into());
    }
    texts.iter().map(|t| Fd::parse(rel.schema(), t).map_err(err)).collect()
}

fn repair_config(cli: &Cli) -> RepairConfig {
    RepairConfig {
        mode: if cli.flag("all") { SearchMode::FindAll } else { SearchMode::FindFirst },
        max_added: cli.get_or("max-added", usize::MAX),
        goodness_threshold: cli.get("goodness-threshold").and_then(|v| v.parse().ok()),
        ..RepairConfig::default()
    }
}

/// `evofd validate --csv file.csv --fd "A -> B" [--fd ...]`
pub fn cmd_validate(cli: &Cli) -> CmdResult {
    let rel = load_relation(cli)?;
    let fds = parse_fds(cli, &rel)?;
    let report = validate(&rel, &fds);
    let mut t = TextTable::new(["FD", "confidence", "goodness", "status"]);
    for s in &report.statuses {
        t.row([
            s.fd.display(rel.schema()),
            format_confidence(s.measures.confidence),
            s.measures.goodness.to_string(),
            if s.satisfied() { "satisfied".into() } else { "VIOLATED".to_string() },
        ]);
    }
    print!("{}", t.render());
    println!(
        "{} of {} FDs violated over {} tuples",
        report.violation_count(),
        fds.len(),
        rel.row_count()
    );
    Ok(())
}

/// `evofd repair --csv file.csv --fd "A -> B" [--all] [--max-added N]
/// [--goodness-threshold G]`
pub fn cmd_repair(cli: &Cli) -> CmdResult {
    let rel = load_relation(cli)?;
    let fds = parse_fds(cli, &rel)?;
    let cfg = repair_config(cli);
    let outcomes = find_fd_repairs(&rel, &fds, &cfg);
    for outcome in outcomes {
        let fd_text = outcome.ranked.fd.display(rel.schema());
        if outcome.satisfied() {
            println!("{fd_text}: satisfied (confidence 1)");
            continue;
        }
        let search = outcome.search.as_ref().expect("violated outcome has a search");
        println!(
            "{fd_text}: VIOLATED (confidence {}, goodness {}) — searched in {}",
            format_confidence(search.original_measures.confidence),
            search.original_measures.goodness,
            format_duration(search.elapsed),
        );
        if search.repairs.is_empty() {
            println!("  no repair exists within the configured bounds");
            continue;
        }
        let mut t = TextTable::new(["#", "evolved FD", "added", "goodness"]);
        for (i, r) in search.repairs.iter().enumerate() {
            t.row([
                (i + 1).to_string(),
                r.fd.display(rel.schema()),
                rel.schema().render_attrs(&r.added),
                r.measures.goodness.to_string(),
            ]);
        }
        print!("{}", t.render());
    }
    Ok(())
}

/// `evofd advise --csv file.csv --fd ... [--auto]` — the semi-automatic
/// loop. `--auto` accepts the top proposal for every violated FD;
/// otherwise decisions are read from stdin (`accept <n>` / `keep` /
/// `drop`).
pub fn cmd_advise(cli: &Cli, input: &mut dyn BufRead) -> CmdResult {
    let rel = load_relation(cli)?;
    let fds = parse_fds(cli, &rel)?;
    let mut session = AdvisorSession::new(&rel, fds);
    session.analyze().map_err(err)?;
    println!("{}", session.summary());

    for idx in session.pending() {
        let fd_text = session.fds()[idx].display(rel.schema());
        let proposals = session.proposals(idx).map_err(err)?.to_vec();
        println!("\nFD #{idx}: {fd_text} is violated. Proposals:");
        let mut t = TextTable::new(["#", "evolved FD", "goodness"]);
        for (i, p) in proposals.iter().enumerate() {
            t.row([
                (i + 1).to_string(),
                p.fd.display(rel.schema()),
                p.measures.goodness.to_string(),
            ]);
        }
        print!("{}", t.render());
        if cli.flag("auto") {
            if proposals.is_empty() {
                session.keep(idx).map_err(err)?;
                println!("-> no proposals; keeping the FD unchanged");
            } else {
                let r = session.accept(idx, 0).map_err(err)?;
                println!("-> auto-accepted: {}", r.fd.display(rel.schema()));
            }
            continue;
        }
        println!("decision? (accept <n> | keep | drop)");
        let mut line = String::new();
        input.read_line(&mut line).map_err(err)?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["accept", n] => {
                let i: usize = n.parse().map_err(|_| "accept needs a number".to_string())?;
                let r = session.accept(idx, i.saturating_sub(1)).map_err(err)?;
                println!("-> accepted: {}", r.fd.display(rel.schema()));
            }
            ["drop"] => {
                session.drop_fd(idx).map_err(err)?;
                println!("-> dropped");
            }
            _ => {
                session.keep(idx).map_err(err)?;
                println!("-> kept unchanged");
            }
        }
    }

    println!("\naudit log:");
    for e in session.log() {
        println!("  - {e}");
    }
    let verification = session.verify();
    println!(
        "final FD set: {} FDs, {} still violated",
        session.evolved_fds().len(),
        verification.violation_count()
    );
    Ok(())
}

/// Parse one delta-stream record (`op, v1, v2, …`) against the base
/// schema. `+` inserts the tuple; `-` deletes the first live row whose
/// tuple equals the values.
fn parse_delta_record(
    live: &LiveRelation,
    record: &[String],
    line: usize,
    opts: &CsvOptions,
) -> Result<(bool, Vec<Value>), String> {
    let schema = live.schema();
    if record.len() != schema.arity() + 1 {
        return Err(format!(
            "delta line {line}: expected op + {} values, found {} fields",
            schema.arity(),
            record.len()
        ));
    }
    let insert = match record[0].trim() {
        "+" | "insert" | "i" => true,
        "-" | "delete" | "d" => false,
        other => return Err(format!("delta line {line}: unknown op `{other}` (use + or -)")),
    };
    let mut values = Vec::with_capacity(schema.arity());
    for (field, raw) in schema.fields().iter().zip(record[1..].iter()) {
        // Shared cell semantics with the --csv reader (null tokens, type
        // coercion) via storage's parse_cell.
        let v = parse_cell(raw, field, opts).ok_or_else(|| {
            format!(
                "delta line {line}: cannot parse `{raw}` as {} for `{}`",
                field.dtype, field.name
            )
        })?;
        values.push(v);
    }
    Ok((insert, values))
}

/// Parse the shared durability options (`--sync`, `--wal-compact-bytes`,
/// `--compact-threshold`).
fn persist_options(cli: &Cli) -> Result<PersistOptions, String> {
    let sync = match cli.get("sync") {
        None => SyncPolicy::PerCommit,
        Some(text) => SyncPolicy::parse(text)
            .ok_or_else(|| format!("bad --sync `{text}` (per-commit | group:N | no-sync)"))?,
    };
    Ok(PersistOptions {
        sync,
        wal_compact_bytes: cli.get_or("wal-compact-bytes", 4u64 << 20),
        compact_threshold: cli.get_or("compact-threshold", DEFAULT_COMPACT_THRESHOLD),
        history_stride: cli.get_or("history-stride", 1u64),
    })
}

/// The relation/validator pair `watch` mutates — in memory, or journaled
/// through `evofd-persist` when `--data-dir` is given. With `--advise` a
/// [`LiveAdvisor`] rides along, its proposal lists maintained per batch.
enum WatchState {
    Memory {
        live: Box<LiveRelation>,
        validator: Box<IncrementalValidator>,
        advisor: Option<Box<LiveAdvisor>>,
    },
    Durable {
        table: Box<DurableRelation>,
    },
}

impl WatchState {
    fn live(&self) -> &LiveRelation {
        match self {
            WatchState::Memory { live, .. } => live,
            WatchState::Durable { table } => table.live(),
        }
    }

    fn validator(&self) -> &IncrementalValidator {
        match self {
            WatchState::Memory { validator, .. } => validator,
            WatchState::Durable { table } => table.validator(),
        }
    }

    fn validator_mut(&mut self) -> &mut IncrementalValidator {
        match self {
            WatchState::Memory { validator, .. } => validator,
            WatchState::Durable { table } => table.validator_mut(),
        }
    }

    fn advisor(&self) -> Option<&LiveAdvisor> {
        match self {
            WatchState::Memory { advisor, .. } => advisor.as_deref(),
            WatchState::Durable { table } => table.advisor(),
        }
    }

    fn stats(&self) -> ValidatorStats {
        self.validator().stats()
    }

    /// Stream records already consumed by a previous run (durable only).
    fn cursor(&self) -> u64 {
        match self {
            WatchState::Memory { .. } => 0,
            WatchState::Durable { table } => table.cursor(),
        }
    }

    /// Apply one batch; `consumed` is the stream position after it (the
    /// durable path commits delta + cursor in one WAL record, and its
    /// table maintains any materialized advisor itself).
    fn apply(&mut self, delta: &Delta, consumed: u64) -> Result<(), String> {
        match self {
            WatchState::Memory { live, validator, advisor } => {
                let applied = live.apply(delta).map_err(err)?;
                validator.apply(live, &applied);
                if let Some(advisor) = advisor {
                    advisor.apply(live, validator, &applied);
                }
                if live.maybe_compact() > 0 {
                    validator.resync(live);
                    if let Some(advisor) = advisor {
                        advisor.resync(live, validator);
                    }
                }
            }
            WatchState::Durable { table } => {
                table.apply_with_cursor(delta, Some(consumed)).map_err(err)?;
            }
        }
        Ok(())
    }

    /// Rendered ranked proposals for FD `fd_index`, for `--advise` output
    /// after a drift event. `None` when no advisor is attached or the FD
    /// needs no decision.
    fn proposal_table(&self, fd_index: usize, limit: usize) -> Option<String> {
        let advisor = self.advisor()?;
        let schema = self.live().schema();
        match advisor.state(fd_index) {
            Ok(state) if state.needs_decision() => {
                let proposals = advisor.proposals(fd_index).ok()?;
                if proposals.is_empty() {
                    return Some("  (no repair exists within the configured bounds)\n".into());
                }
                let mut t = TextTable::new(["#", "evolved FD", "added", "goodness"]);
                for (i, p) in proposals.iter().take(limit).enumerate() {
                    t.row([
                        (i + 1).to_string(),
                        p.fd.display(schema),
                        schema.render_attrs(&p.added),
                        p.measures.goodness.to_string(),
                    ]);
                }
                let mut out = t.render();
                if proposals.len() > limit {
                    out.push_str(&format!("  … and {} more\n", proposals.len() - limit));
                }
                Some(out)
            }
            _ => None,
        }
    }
}

/// Drain and print pending drift events; with `--advise`, follow each
/// one with the advisor's current ranked proposals for the drifted FD.
fn print_drift(state: &mut WatchState, feed: evofd_incremental::SubscriptionId, advise: bool) {
    let events = state.validator_mut().poll(feed);
    for event in &events {
        println!("{event}");
        if advise {
            if let Some(text) = state.proposal_table(event.fd_index, 5) {
                print!("{text}");
            }
        }
    }
}

/// `evofd watch --connect ADDR [--table T] [--duration-ms N]` — subscribe
/// to a server's push feed and print every FD drift / alert event as the
/// server publishes it. Without `--table` the subscription covers every
/// served table. Runs until the connection drops (or `--duration-ms`).
fn watch_over_socket(cli: &Cli, addr: &str) -> CmdResult {
    let table = cli.get("table").unwrap_or("");
    let mut client = Client::connect(addr, "").map_err(err)?;
    client.subscribe(table).map_err(err)?;
    println!(
        "subscribed to {} at {addr}; waiting for drift/alert events",
        if table.is_empty() { "every table" } else { table }
    );
    match cli.get("duration-ms") {
        Some(ms) => {
            let ms: u64 =
                ms.parse().map_err(|_| format!("bad --duration-ms `{ms}` (milliseconds)"))?;
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(ms);
            loop {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    break;
                }
                match client.next_event_timeout(left).map_err(err)? {
                    Some((table, event)) => println!("[{table}] {event}"),
                    None => break,
                }
            }
        }
        None => loop {
            let (table, event) = client.next_event().map_err(err)?;
            println!("[{table}] {event}");
        },
    }
    Ok(())
}

/// `evofd watch --csv base.csv --deltas stream.csv --fd "A -> B" [--fd ...]
/// [--batch N] [--threshold T1,T2] [--compact-threshold F] [--quiet]
/// [--tracker-memory-limit BYTES]
/// [--data-dir DIR [--sync P] [--wal-compact-bytes N]]` — replay a CSV
/// delta stream against the base relation and print every FD drift event
/// as it occurs.
///
/// `--tracker-memory-limit` bounds each FD tracker's state; a tracker
/// that outgrows the bound degrades to sketched approximate measures
/// (flagged `approx` in `SHOW FDS`) instead of growing without bound.
///
/// The stream has one record per change: `+,v1,v2,…` inserts a tuple,
/// `-,v1,v2,…` deletes the first live tuple with those values. Records are
/// applied in batches of `--batch` (default 1).
///
/// With `--data-dir`, the relation and tracker state are journaled to
/// disk and the consumed stream position is committed atomically with
/// each batch, so a watch killed mid-stream resumes exactly where it
/// stopped when re-run with the same arguments.
pub fn cmd_watch(cli: &Cli) -> CmdResult {
    if let Some(addr) = cli.get("connect") {
        return watch_over_socket(cli, addr);
    }
    let csv_path = cli.require("csv")?;
    // Same table-naming rule as `read_csv_path`: the file stem. A durable
    // resume only needs the NAME to find the table directory — its state
    // comes from the snapshot + WAL — so the base CSV is parsed lazily,
    // only by the arms that actually build a relation from it.
    let table_name =
        Path::new(csv_path).file_stem().and_then(|s| s.to_str()).unwrap_or("table").to_string();
    let deltas_path = cli.require("deltas")?;
    let opts = CsvOptions::default();
    let text = std::fs::read_to_string(deltas_path).map_err(err)?;
    let records = read_csv_records(&text, &opts).map_err(err)?;
    let batch_size = cli.get_or("batch", 1usize).max(1);
    let thresholds: Vec<f64> = cli
        .get("threshold")
        .map(|t| t.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_default();
    let quiet = cli.flag("quiet");
    let advise = cli.flag("advise");
    let tracker_memory_limit = match cli.get("tracker-memory-limit") {
        Some(raw) => Some(
            raw.parse::<usize>()
                .map_err(|_| format!("--tracker-memory-limit: not a byte count: {raw:?}"))?,
        ),
        None => None,
    };
    let config = ValidatorConfig {
        confidence_thresholds: thresholds,
        tracker_memory_limit,
        ..ValidatorConfig::default()
    };

    let mut state = match cli.get("data-dir") {
        None => {
            let rel = load_relation(cli)?;
            let fds = parse_fds(cli, &rel)?;
            let mut live = LiveRelation::new(rel);
            live.set_compact_threshold(cli.get_or("compact-threshold", DEFAULT_COMPACT_THRESHOLD));
            let validator = IncrementalValidator::with_config(&live, fds, config);
            let advisor = advise.then(|| Box::new(LiveAdvisor::new(&live, &validator)));
            WatchState::Memory { live: Box::new(live), validator: Box::new(validator), advisor }
        }
        Some(dir) => {
            let popts = persist_options(cli)?;
            let table_dir = Path::new(dir).join(&table_name);
            if table_dir.join(evofd_persist::SNAPSHOT_FILE).exists() {
                let mut table = DurableRelation::open(&table_dir, popts).map_err(err)?;
                // The FD set is durable state: a reopen must not silently
                // watch different dependencies than the caller asked for.
                if !cli.get_all("fd").is_empty() {
                    let mut requested = parse_fds(cli, table.live().relation())?;
                    let mut stored = table.validator().fds().to_vec();
                    requested.sort();
                    stored.sort();
                    if requested != stored {
                        let schema = table.live().schema();
                        return Err(format!(
                            "{} already tracks [{}]; the given --fd set differs — rerun \
                             without --fd to keep it, or use a fresh --data-dir",
                            table.name(),
                            stored
                                .iter()
                                .map(|fd| fd.display(schema))
                                .collect::<Vec<_>>()
                                .join("; "),
                        ));
                    }
                }
                // Thresholds and the tracker memory bound are session
                // presentation, not durable state: this run's --threshold
                // and --tracker-memory-limit win over the snapshot's.
                table.validator_mut().set_config(config);
                let r = table.recovery();
                println!(
                    "recovered {} from {}: epoch {} snapshot + {} WAL record(s) replayed \
                     ({} rolled back, {} torn byte(s) truncated); stream cursor at {}",
                    table.name(),
                    table_dir.display(),
                    r.snapshot_epoch,
                    r.replayed,
                    r.rolled_back,
                    r.torn_bytes,
                    table.cursor()
                );
                let mut table = table;
                if advise {
                    table.ensure_advisor().map_err(err)?;
                }
                WatchState::Durable { table: Box::new(table) }
            } else {
                let rel = load_relation(cli)?;
                let fds = parse_fds(cli, &rel)?;
                let mut table =
                    DurableRelation::create(&table_dir, rel, fds, config, popts).map_err(err)?;
                if advise {
                    table.ensure_advisor().map_err(err)?;
                }
                println!("created durable table at {}", table_dir.display());
                WatchState::Durable { table: Box::new(table) }
            }
        }
    };

    // `--metrics-addr` exposes /metrics for the run; the single watched
    // table is not a Database, so /health and /history stay empty here
    // (use `evofd serve-metrics` on the data dir for those).
    let _metrics = maybe_serve_metrics(cli, std::sync::Arc::new(evofd_obs::NoSource))?;
    let feed = state.validator_mut().subscribe();
    let resume_at = state.cursor() as usize;
    if resume_at > 0 {
        println!("resuming: skipping the first {resume_at} already-applied stream record(s)");
    }
    println!(
        "watching {} ({} rows) over {} declared FD(s); replaying {} change(s) in batches of {batch_size}",
        state.live().schema().name(),
        state.live().row_count(),
        state.validator().fds().len(),
        records.len().saturating_sub(resume_at)
    );

    let mut applied_changes = 0usize;
    let mut skipped = 0usize;
    let mut delta = Delta::new();
    // Stream position (1-based record count) the current `delta` reaches.
    let mut consumed = resume_at as u64;

    for (i, record) in records.iter().enumerate().skip(resume_at) {
        let line = i + 1;
        let (insert, values) = parse_delta_record(state.live(), record, line, &opts)?;
        if insert {
            delta.inserts.push(values);
        } else {
            // Value-addressed delete. First try to resolve it against the
            // current live rows minus the deletes already queued in this
            // batch — that keeps `--batch` effective for delete-heavy
            // streams. Only if nothing matches (the target may be a
            // pending insert of this same batch) flush and retry once.
            let pending = delta.deletes.clone();
            let resolve = |live: &LiveRelation, excluded: &[usize]| {
                live.live_rows()
                    .find(|&r| !excluded.contains(&r) && live.relation().row(r) == values)
            };
            let row = match resolve(state.live(), &pending) {
                Some(row) => Some(row),
                None => {
                    state.apply(&delta, consumed)?;
                    delta = Delta::new();
                    resolve(state.live(), &[])
                }
            };
            match row {
                Some(row) => delta.deletes.push(row),
                None => {
                    skipped += 1;
                    consumed = line as u64;
                    if !quiet {
                        println!("  (line {line}: no live row matches the delete — skipped)");
                    }
                    continue;
                }
            }
        }
        applied_changes += 1;
        consumed = line as u64;
        if delta.len() >= batch_size {
            state.apply(&delta, consumed)?;
            delta = Delta::new();
        }
        print_drift(&mut state, feed, advise);
    }
    state.apply(&delta, consumed)?;
    print_drift(&mut state, feed, advise);

    let report = state.validator().report();
    let stats = state.stats();
    println!(
        "\nreplayed {applied_changes} change(s) ({skipped} skipped); final: {} rows, {} of {} FD(s) violated",
        state.live().row_count(),
        report.violation_count(),
        state.validator().fds().len()
    );
    let mut t = TextTable::new(["FD", "confidence", "goodness", "violating rows"]);
    for (i, s) in report.statuses.iter().enumerate() {
        t.row([
            s.fd.display(state.live().schema()),
            format_confidence(s.measures.confidence),
            s.measures.goodness.to_string(),
            state.validator().summary(i).violating_rows.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "maintenance: {} delta(s) applied incrementally, {} full recompute(s), {} drift event(s)",
        stats.incremental, stats.full_recomputes, stats.events
    );
    if let Some(advisor) = state.advisor() {
        println!("advisor: {}", advisor.summary());
    }
    if let WatchState::Durable { table } = &state {
        println!(
            "durable: WAL at {} byte(s), cursor {} ({})",
            table.wal_bytes(),
            table.cursor(),
            table.dir().display()
        );
    }
    Ok(())
}

/// `evofd gen --dataset tpch|places|country|rental|image|pagelinks|veterans
///  [--scale f] [--rows n] [--attrs k] [--seed s] --out DIR`
pub fn cmd_gen(cli: &Cli) -> CmdResult {
    let dataset = cli.require("dataset")?;
    let out = cli.require("out")?;
    let out_dir = Path::new(out);
    std::fs::create_dir_all(out_dir).map_err(err)?;
    let seed = cli.get_or("seed", 2016u64);
    let mut written: Vec<Relation> = Vec::new();
    match dataset {
        "tpch" => {
            let spec = dg::TpchSpec { scale: cli.get_or("scale", 0.01), seed };
            for table in dg::TpchTable::ALL {
                written.push(dg::generate_table(&spec, table));
            }
        }
        "places" => written.push(dg::places()),
        "country" => written.push(dg::country(seed)),
        "rental" => written.push(dg::rental(seed)),
        "image" => written.push(dg::image_sized(seed, cli.get_or("rows", 20_000))),
        "pagelinks" => written.push(dg::pagelinks_sized(seed, cli.get_or("rows", 100_000))),
        "veterans" => {
            written.push(dg::veterans(seed, cli.get_or("attrs", 30), cli.get_or("rows", 20_000)))
        }
        other => return Err(format!("unknown dataset `{other}`")),
    }
    for rel in &written {
        let path = out_dir.join(format!("{}.csv", rel.name()));
        write_csv_path(rel, &path).map_err(err)?;
        println!("wrote {} ({} rows × {} attrs)", path.display(), rel.row_count(), rel.arity());
    }
    Ok(())
}

/// `evofd sql --csv a.csv [--csv b.csv] --query "SELECT ..."
/// [--data-dir DIR [--replica] [--sync P] [--wal-compact-bytes N]
/// [--compact-threshold F]]`
///
/// Without `--data-dir`, runs against an in-memory catalog of the `--csv`
/// files. With it, opens (or creates) a durable database there: every
/// `--csv` not yet present is imported as a durable table, and every
/// INSERT/DELETE/UPDATE in `--query` is a write-ahead transaction that
/// survives a crash. With `--replica` the directory is a follower's: the
/// engine is read-only (SELECT / SHOW FDS / CHECK FD; DML rejected) and
/// serves whatever position the follower has caught up to.
pub fn cmd_sql(cli: &Cli) -> CmdResult {
    let query = cli.require("query")?;
    let limit = cli.get_or("limit", 50usize);
    if let Some(addr) = cli.get("connect") {
        // Client mode: the statements run in this connection's session on
        // the server; results arrive pre-rendered.
        let mut client = Client::connect(addr, "").map_err(err)?;
        client.set_session(cli.flag("replica"), limit as u64).map_err(err)?;
        let text = client.sql(query).map_err(err)?;
        print!("{text}");
        return Ok(());
    }
    if cli.flag("replica") {
        let dir = cli.require("data-dir")?;
        return run_replica_sql(cli, dir, query);
    }
    let results = match cli.get("data-dir") {
        None => {
            let mut catalog = evofd_storage::Catalog::new();
            for path in cli.get_all("csv") {
                let rel = read_csv_path(Path::new(path), &CsvOptions::default()).map_err(err)?;
                catalog.insert(rel).map_err(err)?;
            }
            let mut engine = evofd_sql::Engine::with_catalog(catalog);
            engine.run_script(query).map_err(err)?
        }
        Some(dir) => {
            let popts = persist_options(cli)?;
            let mut engine = DurableEngine::open(Path::new(dir), popts).map_err(err)?;
            for path in cli.get_all("csv") {
                let rel = read_csv_path(Path::new(path), &CsvOptions::default()).map_err(err)?;
                let name = rel.name().to_string();
                if engine.import_table(rel).map_err(err)? {
                    println!("importing {path} as durable table `{name}`");
                }
            }
            engine.run_script(query).map_err(err)?
        }
    };
    for result in results {
        match result {
            evofd_sql::QueryResult::Rows(rel) => print!("{}", rel.render(limit)),
            other => println!("{other:?}"),
        }
    }
    Ok(())
}

/// `evofd open --data-dir DIR [--sync P] [--compact-threshold F]
/// [--checkpoint] [--query "SELECT ..."]` — open a durable database,
/// print its recovery report and per-table FD state, optionally run a
/// query and/or checkpoint (snapshot + WAL reset) before exiting.
pub fn cmd_open(cli: &Cli) -> CmdResult {
    let dir = cli.require("data-dir")?;
    let popts = persist_options(cli)?;
    let mut db = Database::open(Path::new(dir), popts).map_err(err)?;
    println!("database {}: {} table(s)", dir, db.names().len());
    let mut t = TextTable::new([
        "table",
        "rows",
        "physical",
        "epoch",
        "WAL bytes",
        "replayed",
        "rolled back",
        "torn",
        "cursor",
    ]);
    for (name, table) in db.iter() {
        let r = table.recovery();
        t.row([
            name.to_string(),
            table.live().row_count().to_string(),
            table.live().physical_rows().to_string(),
            table.live().epoch().to_string(),
            table.wal_bytes().to_string(),
            r.replayed.to_string(),
            r.rolled_back.to_string(),
            r.torn_bytes.to_string(),
            table.cursor().to_string(),
        ]);
    }
    print!("{}", t.render());
    for (name, table) in db.iter() {
        let v = table.validator();
        if v.fds().is_empty() {
            continue;
        }
        println!("\n{name}: {} FD(s) under incremental validation", v.fds().len());
        let mut t = TextTable::new(["FD", "confidence", "goodness", "violating rows"]);
        for (i, fd) in v.fds().iter().enumerate() {
            let m = v.measures(i);
            t.row([
                fd.display(table.live().schema()),
                format_confidence(m.confidence),
                m.goodness.to_string(),
                v.summary(i).violating_rows.to_string(),
            ]);
        }
        print!("{}", t.render());
    }
    if cli.flag("checkpoint") {
        db.checkpoint_all().map_err(err)?;
        println!("\ncheckpointed: every table snapshotted, WALs reset");
    }
    if let Some(query) = cli.get("query") {
        // Reuse the already-recovered database — no second recovery pass.
        let mut engine = DurableEngine::from_database(db).map_err(err)?;
        for result in engine.run_script(query).map_err(err)? {
            match result {
                evofd_sql::QueryResult::Rows(rel) => {
                    print!("{}", rel.render(cli.get_or("limit", 50)))
                }
                other => println!("{other:?}"),
            }
        }
    }
    Ok(())
}

/// `evofd sql` in replica mode: open the follower's data directory
/// read-only and serve SELECT / SHOW FDS / CHECK FD; DML errors cleanly.
fn run_replica_sql(cli: &Cli, dir: &str, query: &str) -> CmdResult {
    if !cli.get_all("csv").is_empty() {
        return Err("--replica serves reads only; import CSVs on the leader instead".into());
    }
    let popts = persist_options(cli)?;
    let mut engine = DurableEngine::open_replica(Path::new(dir), popts).map_err(err)?;
    for result in engine.run_script(query).map_err(err)? {
        match result {
            evofd_sql::QueryResult::Rows(rel) => print!("{}", rel.render(cli.get_or("limit", 50))),
            other => println!("{other:?}"),
        }
    }
    Ok(())
}

/// The table directories a leader data directory ships (subdirectories
/// holding a snapshot), in name order.
fn replicated_tables(data_dir: &Path) -> Result<Vec<String>, String> {
    let mut tables = Vec::new();
    let entries = std::fs::read_dir(data_dir)
        .map_err(|e| format!("cannot read {}: {e}", data_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(err)?;
        let path = entry.path();
        if path.is_dir() && path.join(evofd_persist::SNAPSHOT_FILE).exists() {
            tables.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    tables.sort();
    Ok(tables)
}

/// `evofd serve --data-dir DIR [--csv FILE ...] [--sync P]
/// [--wal-compact-bytes N] [--checkpoint-on-exit]` — run a leader: open
/// (or create) the durable database, import any `--csv` tables, then
/// execute SQL statements read line-by-line from stdin as write-ahead
/// transactions. After every line the per-table shipping position is
/// printed, so followers tailing the directory (`evofd follow`) can be
/// watched converging. EOF (or a `quit` line) ends the session.
pub fn cmd_serve(cli: &Cli, input: &mut dyn BufRead) -> CmdResult {
    let dir = cli.require("data-dir")?;
    let popts = persist_options(cli)?;
    let mut engine = DurableEngine::open(Path::new(dir), popts).map_err(err)?;
    for path in cli.get_all("csv") {
        let rel = read_csv_path(Path::new(path), &CsvOptions::default()).map_err(err)?;
        let name = rel.name().to_string();
        if engine.import_table(rel).map_err(err)? {
            println!("importing {path} as durable table `{name}`");
        }
    }
    let positions = |engine: &DurableEngine| {
        engine.with_database(|db| {
            for (name, table) in db.iter() {
                println!(
                    "ship: {name} at seq {} (snapshot horizon {})",
                    table.last_seq(),
                    table.snapshot_seq()
                );
            }
        })
    };
    println!("serving {dir}; followers tail this directory with `evofd follow --from {dir}`");
    let _metrics = maybe_serve_metrics(
        cli,
        std::sync::Arc::new(evofd_persist::DbMonitorSource::new(engine.database_handle())),
    )?;
    positions(&engine);

    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line).map_err(err)? == 0 {
            break; // EOF
        }
        let sql = line.trim();
        if sql.is_empty() {
            continue;
        }
        if sql.eq_ignore_ascii_case("quit") || sql.eq_ignore_ascii_case("exit") {
            break;
        }
        match engine.run_script(sql) {
            Err(e) => println!("error: {e}"),
            Ok(results) => {
                for result in results {
                    match result {
                        evofd_sql::QueryResult::Rows(rel) => {
                            print!("{}", rel.render(cli.get_or("limit", 50)))
                        }
                        other => println!("{other:?}"),
                    }
                }
                positions(&engine);
            }
        }
    }
    if cli.flag("checkpoint-on-exit") {
        engine.checkpoint().map_err(err)?;
        println!("checkpointed (followers behind the new snapshot will re-bootstrap)");
    }
    Ok(())
}

/// `evofd server --data-dir DIR [--addr 127.0.0.1:9899] [--csv FILE ...]
/// [--read-only] [--poll-ms N] [--duration-ms N] [--sync P]` — run the
/// multi-client TCP service: open (or create) the durable database,
/// import any `--csv` tables, then serve concurrent sessions over the
/// framed wire protocol. Each connection gets its own session state
/// (`SET` settings, read-only flag, render limit); followers tail tables
/// with `evofd follow --connect`, and `evofd watch --connect` streams
/// pushed drift/alert events. `--read-only` rejects DML on every
/// session (serving a replica directory). Runs until killed, or for
/// `--duration-ms` when given.
pub fn cmd_server(cli: &Cli) -> CmdResult {
    let dir = cli.require("data-dir")?;
    let popts = persist_options(cli)?;
    let read_only = cli.flag("read-only");
    let mut engine = if read_only {
        DurableEngine::open_replica(Path::new(dir), popts).map_err(err)?
    } else {
        DurableEngine::open(Path::new(dir), popts).map_err(err)?
    };
    for path in cli.get_all("csv") {
        if read_only {
            return Err("--read-only serves existing tables; import CSVs without it".into());
        }
        let rel = read_csv_path(Path::new(path), &CsvOptions::default()).map_err(err)?;
        let name = rel.name().to_string();
        if engine.import_table(rel).map_err(err)? {
            println!("importing {path} as durable table `{name}`");
        }
    }
    let _metrics = maybe_serve_metrics(
        cli,
        std::sync::Arc::new(evofd_persist::DbMonitorSource::new(engine.database_handle())),
    )?;
    let opts = ServerOptions { read_only, poll_ms: cli.get_or("poll-ms", 25) };
    let addr = cli.get("addr").unwrap_or("127.0.0.1:9899");
    let server = EvofdServer::start(engine, addr, opts).map_err(err)?;
    println!(
        "evofd-server on {} serving {dir}{}; connect with `evofd sql --connect {}` or \
         `evofd follow --connect {}`",
        server.addr(),
        if read_only { " (read-only)" } else { "" },
        server.addr(),
        server.addr(),
    );
    match cli.get("duration-ms") {
        Some(ms) => {
            let ms: u64 =
                ms.parse().map_err(|_| format!("bad --duration-ms `{ms}` (milliseconds)"))?;
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
    Ok(())
}

/// One `follow` pass over every table: sync each replica against its
/// leader directory, reporting progress. Returns the total remaining lag.
fn follow_round(
    replicas: &mut [(String, ReplicaState, Box<dyn FrameTransport>)],
    max_frames: Option<usize>,
    quiet: bool,
) -> Result<u64, String> {
    let _span = evofd_obs::span("follow.round");
    let mut total_lag = 0;
    for (name, replica, transport) in replicas.iter_mut() {
        let report = replica.sync_with_limit(transport.as_mut(), max_frames).map_err(err)?;
        let lag = replica.lag(transport.as_mut()).map_err(err)?;
        if evofd_obs::enabled() {
            evofd_obs::metrics::REPL_LAG_FRAMES.with_label(name).set(lag as i64);
        }
        total_lag += lag;
        if !quiet {
            for event in &report.drift {
                println!("[{name}] {event}");
            }
            println!(
                "[{name}] {}applied {} frame(s) ({} rolled back, {} skipped); at seq {}, lag {lag}",
                if report.bootstrapped { "bootstrapped; " } else { "" },
                report.applied,
                report.rolled_back,
                report.skipped,
                report.last_seq,
            );
        }
    }
    Ok(total_lag)
}

/// `evofd follow --from LEADER_DIR | --connect ADDR  --data-dir REPLICA_DIR
/// [--table T ...] [--follower NAME] [--sync P] [--rounds N]
/// [--max-frames N] [--forever [--poll-ms N]] [--quiet]` — run a
/// follower: bootstrap every leader table (or the `--table` subset) into
/// the replica directory from a shipped snapshot, then tail the leaders'
/// WALs, applying each frame with recovery semantics. `--from` tails a
/// leader directory read-only; `--connect` tails a running
/// `evofd server` over TCP (each fetch acks the follower's position on
/// the leader, and under `--forever` a server restart is ridden out by
/// reconnecting). Only the **replica** directory is locked; a directory
/// leader may be live in another process.
///
/// By default the command exits once every table is caught up; `--forever`
/// keeps polling every `--poll-ms` (default 200). `--rounds`/`--max-frames`
/// bound the work per invocation (restarting later resumes exactly at the
/// acked position).
pub fn cmd_follow(cli: &Cli) -> CmdResult {
    let connect = cli.get("connect");
    let from = match connect {
        Some(_) => None,
        None => Some(Path::new(cli.require("from")?)),
    };
    let dir = Path::new(cli.require("data-dir")?);
    let popts = persist_options(cli)?;
    let mut tables: Vec<String> = cli.get_all("table").into_iter().map(String::from).collect();
    if tables.is_empty() {
        tables = match (connect, from) {
            (Some(addr), _) => {
                Client::connect(addr, "").and_then(|mut c| c.tables()).map_err(err)?
            }
            (None, Some(from)) => replicated_tables(from)?,
            (None, None) => unreachable!("either --connect or --from is required"),
        };
    }
    if tables.is_empty() {
        return Err(match connect {
            Some(addr) => format!("no tables to follow at {addr}"),
            None => format!("no tables to follow in {}", from.expect("local mode").display()),
        });
    }
    let quiet = cli.flag("quiet");
    // A typo in these bounds must error, not silently mean "unlimited".
    let parse_opt = |name: &str| -> Result<Option<usize>, String> {
        match cli.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad --{name} `{v}` (expected a non-negative integer)")),
        }
    };
    let max_frames = parse_opt("max-frames")?;
    let rounds = parse_opt("rounds")?;
    let forever = cli.flag("forever");
    let poll = std::time::Duration::from_millis(cli.get_or("poll-ms", 200));

    // /metrics carries the per-table replication lag gauges; /health and
    // /history need a Database handle the follower loop does not share.
    let _metrics = maybe_serve_metrics(cli, std::sync::Arc::new(evofd_obs::NoSource))?;
    // Stable follower identity (the leader tracks acked positions per
    // follower): default to the replica directory name.
    let follower = cli.get("follower").map(String::from).unwrap_or_else(|| {
        let stem = dir.file_name().map(|n| n.to_string_lossy().into_owned());
        format!("follow-{}", stem.unwrap_or_else(|| "replica".into()))
    });
    let mut replicas: Vec<(String, ReplicaState, Box<dyn FrameTransport>)> = Vec::new();
    for name in &tables {
        let mut transport: Box<dyn FrameTransport> = match connect {
            Some(addr) => Box::new(
                SocketTransport::new(addr, name, &follower)
                    .with_retry(2, std::time::Duration::from_millis(200)),
            ),
            None => Box::new(DirTransport::new(from.expect("local mode").join(name))),
        };
        let replica =
            ReplicaState::open_or_bootstrap(&dir.join(name), transport.as_mut(), popts.clone())
                .map_err(err)?;
        println!("following {name}: at seq {} ({})", replica.last_seq(), dir.join(name).display());
        replicas.push((name.clone(), replica, transport));
    }

    let mut round = 0usize;
    loop {
        let lag = match follow_round(&mut replicas, max_frames, quiet) {
            Ok(lag) => lag,
            // A tailed server may restart under --forever: report and
            // keep polling instead of giving up mid-tail.
            Err(e) if forever && connect.is_some() => {
                if !quiet {
                    println!("leader unreachable ({e}); retrying");
                }
                std::thread::sleep(poll);
                continue;
            }
            Err(e) => return Err(e),
        };
        round += 1;
        let done = match rounds {
            Some(n) => round >= n,
            None => lag == 0 && !forever,
        };
        if done {
            break;
        }
        std::thread::sleep(poll);
    }
    for (name, replica, transport) in replicas.iter_mut() {
        let lag = replica.lag(transport.as_mut()).map_err(err)?;
        if lag == 0 {
            println!("{name}: caught up at seq {}", replica.last_seq());
        } else {
            println!("{name}: stopped at seq {} (lag {lag})", replica.last_seq());
        }
    }
    Ok(())
}

/// Leader/replica positions and lag for one table pair — exposed for the
/// CLI integration tests.
pub fn replication_lag(
    leader_table_dir: &Path,
    replica_table_dir: &Path,
) -> Result<(u64, u64, u64), String> {
    let leader = read_position(leader_table_dir).map_err(err)?;
    let replica = read_position(replica_table_dir).map_err(err)?;
    Ok((leader.last_seq, replica.last_seq, leader.last_seq.saturating_sub(replica.last_seq)))
}

/// `evofd lag --from LEADER_DIR --data-dir REPLICA_DIR [--table T ...]` —
/// report each table's leader seq, replica seq and lag. Both directories
/// are probed read-only (no locks), so this works while a leader and a
/// follower are live in other processes.
pub fn cmd_lag(cli: &Cli) -> CmdResult {
    let dir = Path::new(cli.require("data-dir")?);
    if let Some(addr) = cli.get("connect") {
        // Probe the leader over the wire; the replica directory stays a
        // lock-free local read as in directory mode.
        let mut client = Client::connect(addr, "").map_err(err)?;
        let mut tables: Vec<String> = cli.get_all("table").into_iter().map(String::from).collect();
        if tables.is_empty() {
            tables = client.tables().map_err(err)?;
        }
        let mut t = TextTable::new(["table", "leader seq", "replica seq", "lag"]);
        for name in &tables {
            let (_, leader_seq) = client.position(name).map_err(err)?;
            let replica_dir = dir.join(name);
            if !replica_dir.join(evofd_persist::SNAPSHOT_FILE).exists() {
                t.row([
                    name.clone(),
                    leader_seq.to_string(),
                    "-".into(),
                    "∞ (not bootstrapped)".into(),
                ]);
                continue;
            }
            let replica_seq = read_position(&replica_dir).map_err(err)?.last_seq;
            t.row([
                name.clone(),
                leader_seq.to_string(),
                replica_seq.to_string(),
                leader_seq.saturating_sub(replica_seq).to_string(),
            ]);
        }
        print!("{}", t.render());
        return Ok(());
    }
    let from = Path::new(cli.require("from")?);
    let mut tables: Vec<String> = cli.get_all("table").into_iter().map(String::from).collect();
    if tables.is_empty() {
        tables = replicated_tables(from)?;
    }
    let mut t = TextTable::new(["table", "leader seq", "replica seq", "lag"]);
    for name in &tables {
        let replica_dir = dir.join(name);
        if !replica_dir.join(evofd_persist::SNAPSHOT_FILE).exists() {
            let leader = read_position(&from.join(name)).map_err(err)?;
            t.row([
                name.clone(),
                leader.last_seq.to_string(),
                "-".into(),
                "∞ (not bootstrapped)".into(),
            ]);
            continue;
        }
        let (leader, replica, lag) = replication_lag(&from.join(name), &replica_dir)?;
        t.row([name.clone(), leader.to_string(), replica.to_string(), lag.to_string()]);
    }
    print!("{}", t.render());
    Ok(())
}

/// Start the monitoring endpoint when `--metrics-addr ADDR` is given:
/// turns collection on, binds the address and returns the running server
/// — the caller keeps it alive for the command's lifetime.
fn maybe_serve_metrics(
    cli: &Cli,
    source: std::sync::Arc<dyn evofd_obs::MonitorSource>,
) -> Result<Option<evofd_obs::MetricsServer>, String> {
    let Some(addr) = cli.get("metrics-addr") else { return Ok(None) };
    evofd_obs::enable();
    let server = evofd_obs::serve(addr, source).map_err(err)?;
    println!("metrics endpoint on http://{}/metrics (also /health, /history)", server.addr());
    Ok(Some(server))
}

/// `evofd serve-metrics --data-dir DIR [--addr 127.0.0.1:9187]
/// [--duration-ms N]` — open the durable database (recovery replays each
/// table's WAL) and serve the monitoring endpoint over HTTP:
/// `/metrics` (Prometheus text exposition), `/health` (per-table
/// positions, recovery report and alert state as JSON) and
/// `/history?table=T[&fd=…][&since=N]` (the durable FD-health time
/// series as JSON). Runs until killed, or for `--duration-ms` when
/// given (tests and smoke benches use that to exit cleanly).
pub fn cmd_serve_metrics(cli: &Cli) -> CmdResult {
    evofd_obs::enable();
    let dir = cli.require("data-dir")?;
    let popts = persist_options(cli)?;
    let db = Database::open(Path::new(dir), popts).map_err(err)?;
    let source = std::sync::Arc::new(evofd_persist::DbMonitorSource::new(std::sync::Arc::new(
        std::sync::Mutex::new(db),
    )));
    let addr = cli.get("addr").unwrap_or("127.0.0.1:9187");
    let server = evofd_obs::serve(addr, source).map_err(err)?;
    println!("serving http://{}/metrics /health /history for {dir}", server.addr());
    match cli.get("duration-ms") {
        Some(ms) => {
            let ms: u64 =
                ms.parse().map_err(|_| format!("bad --duration-ms `{ms}` (milliseconds)"))?;
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
    Ok(())
}

/// `evofd history --data-dir DIR --table T [--fd 'A -> B'] [--since N]
/// [--json]` — print the table's durable FD-health time series: one row
/// per sampled FD per epoch, plus the drift and alert events each frame
/// retained. `--json` emits the same JSON the `/history` endpoint
/// serves.
pub fn cmd_history(cli: &Cli) -> CmdResult {
    let dir = cli.require("data-dir")?;
    let table = cli.require("table")?.to_string();
    let popts = persist_options(cli)?;
    let db = Database::open(Path::new(dir), popts).map_err(err)?;
    let since = cli.get_or("since", 0u64);
    // Canonicalise the FD filter against the table's schema so any
    // spelling that parses matches the stored display strings.
    let fd_filter = match cli.get("fd") {
        Some(text) => {
            let t = db.get(&table).map_err(err)?;
            Some(Fd::parse(t.live().schema(), text).map_err(err)?.display(t.live().schema()))
        }
        None => None,
    };
    if cli.flag("json") {
        use evofd_obs::MonitorSource;
        let source =
            evofd_persist::DbMonitorSource::new(std::sync::Arc::new(std::sync::Mutex::new(db)));
        let query = evofd_obs::HistoryQuery {
            table: Some(table),
            fd: fd_filter,
            since_epoch: (since > 0).then_some(since),
        };
        print!("{}", source.history_json(&query)?);
        return Ok(());
    }
    let t = db.get(&table).map_err(err)?;
    let frames = t.history_frames().map_err(err)?;
    let mut out = TextTable::new([
        "epoch",
        "seq",
        "rows",
        "fd",
        "confidence",
        "g3",
        "violating groups",
        "violated",
    ]);
    let mut events = Vec::new();
    for frame in frames.iter().filter(|f| f.epoch >= since) {
        for s in &frame.samples {
            if fd_filter.as_deref().is_some_and(|want| want != s.fd) {
                continue;
            }
            out.row([
                frame.epoch.to_string(),
                frame.seq.to_string(),
                frame.rows.to_string(),
                s.fd.clone(),
                format_confidence(s.confidence),
                format!("{:.4}", s.g3),
                s.violating_groups.to_string(),
                s.violated.to_string(),
            ]);
        }
        for d in &frame.drifts {
            if fd_filter.as_deref().is_some_and(|want| want != d.fd) {
                continue;
            }
            let groups = if d.groups.is_empty() {
                String::new()
            } else {
                format!(" [{}]", d.groups.join(", "))
            };
            events.push(format!(
                "epoch {} (seq {}): {} {} ({} -> {}){groups}",
                frame.epoch,
                frame.seq,
                d.fd,
                d.kind,
                format_confidence(d.confidence_before),
                format_confidence(d.confidence_after),
            ));
        }
        for a in &frame.alerts {
            if fd_filter.as_deref().is_some_and(|want| want != a.fd) {
                continue;
            }
            events.push(format!(
                "epoch {} (seq {}): alert {} on {}",
                frame.epoch,
                frame.seq,
                if a.fired { "FIRED" } else { "resolved" },
                a.rule,
            ));
        }
    }
    print!("{}", out.render());
    if !events.is_empty() {
        println!("events:");
        for e in &events {
            println!("  {e}");
        }
    }
    Ok(())
}

/// `evofd stats [--data-dir DIR] [--json | --prom] [--watch [--poll-ms N]
/// [--rounds N] [--rate]]` — dump the process-wide metrics registry.
///
/// Metrics are process-local, so a bare `evofd stats` only shows the
/// mintpool gauges; with `--data-dir` the durable database is opened
/// (recovery replays the WAL), populating the WAL, snapshot, recovery and
/// tracker families from a real workload before printing. `--prom` emits
/// Prometheus text exposition, `--json` a machine-readable dump; the
/// default is a human-readable table of flattened samples. `--watch`
/// reprints every `--poll-ms` (default 1000) until interrupted (or for
/// `--rounds N` iterations); in the table mode each counter row shows the
/// **delta since the previous poll**, and `--rate` adds a per-second
/// rate column computed from the measured (not nominal) poll interval.
pub fn cmd_stats(cli: &Cli) -> CmdResult {
    // Collection must be on before any instrumented path runs.
    evofd_obs::enable();
    let _db = match cli.get("data-dir") {
        None => None,
        Some(dir) => {
            let popts = persist_options(cli)?;
            Some(Database::open(Path::new(dir), popts).map_err(err)?)
        }
    };
    let watching = cli.flag("watch") || cli.get("rounds").is_some();
    let rate = cli.flag("rate");
    // Previous poll's sample values, keyed by metric + labels, for the
    // counter delta/rate columns.
    let mut prev: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    let render = |prev: &mut std::collections::HashMap<String, f64>, elapsed_s: f64| {
        if cli.flag("prom") {
            print!("{}", evofd_obs::render_prometheus());
            return;
        }
        if cli.flag("json") {
            println!("{}", evofd_obs::render_json());
            return;
        }
        let mut headers = vec!["metric", "labels", "value"];
        if watching {
            headers.push("delta");
            if rate {
                headers.push("rate/s");
            }
        }
        let mut t = TextTable::new(headers);
        for s in evofd_obs::flatten(None) {
            let value = if s.value.fract() == 0.0 && s.value.abs() < 1e15 {
                format!("{}", s.value as i64)
            } else {
                format!("{:.3}", s.value)
            };
            let mut row = vec![s.metric.clone(), s.labels.clone(), value];
            if watching {
                // Deltas are meaningful for monotonic counters only;
                // gauges and quantiles get a blank cell.
                let key = format!("{}\u{1}{}", s.metric, s.labels);
                let is_counter = s.metric.ends_with("_total")
                    || s.metric.ends_with("_count")
                    || s.metric.ends_with("_sum");
                if is_counter {
                    let delta = s.value - prev.get(&key).copied().unwrap_or(0.0);
                    row.push(if delta.fract() == 0.0 {
                        format!("{:+}", delta as i64)
                    } else {
                        format!("{delta:+.3}")
                    });
                    if rate {
                        row.push(if elapsed_s > 0.0 {
                            format!("{:.1}", delta / elapsed_s)
                        } else {
                            "-".into()
                        });
                    }
                } else {
                    row.push(String::new());
                    if rate {
                        row.push(String::new());
                    }
                }
                prev.insert(key, s.value);
            }
            t.row(row);
        }
        print!("{}", t.render());
    };
    if watching {
        let poll = std::time::Duration::from_millis(cli.get_or("poll-ms", 1000));
        let rounds: usize = cli.get_or("rounds", usize::MAX);
        let mut last = std::time::Instant::now();
        for round in 0..rounds {
            if round > 0 {
                std::thread::sleep(poll);
                println!();
            }
            let now = std::time::Instant::now();
            let elapsed = if round == 0 { 0.0 } else { now.duration_since(last).as_secs_f64() };
            last = now;
            render(&mut prev, elapsed);
        }
    } else {
        render(&mut prev, 0.0);
    }
    Ok(())
}

/// `evofd keys --csv file.csv --fd ...` — schema reasoning: minimal cover
/// and candidate keys implied by the declared FDs.
pub fn cmd_keys(cli: &Cli) -> CmdResult {
    let rel = load_relation(cli)?;
    let fds = parse_fds(cli, &rel)?;
    let cover = minimal_cover(&fds);
    println!("minimal cover ({} FDs):", cover.len());
    for fd in &cover {
        println!("  {}", fd.display(rel.schema()));
    }
    let keys = evofd_core::candidate_keys(rel.arity(), &cover, 32);
    println!("candidate keys ({}):", keys.len());
    for k in &keys {
        println!("  {}", rel.schema().render_attrs(k));
    }
    Ok(())
}

/// `evofd violations --csv file.csv --fd "A -> B" [--limit N]` — show the
/// tuples behind each violation (the evidence a designer inspects).
pub fn cmd_violations(cli: &Cli) -> CmdResult {
    let rel = load_relation(cli)?;
    let fds = parse_fds(cli, &rel)?;
    let limit = cli.get_or("limit", 10usize);
    for fd in &fds {
        let report = violations(&rel, fd);
        print!("{}", report.render(&rel, limit));
        if report.is_clean() {
            println!("  (satisfied)");
        }
    }
    Ok(())
}

/// `evofd discover --csv file.csv [--max-lhs K] [--min-confidence C]
/// [--limit N]` — mine minimal (approximate) FDs from the data.
pub fn cmd_discover(cli: &Cli) -> CmdResult {
    let rel = load_relation(cli)?;
    let config = DiscoveryConfig {
        max_lhs: cli.get_or("max-lhs", 2usize),
        min_confidence: cli.get_or("min-confidence", 1.0f64),
        max_results: cli.get_or("limit", 200usize),
        attributes: None,
    };
    let result = discover_fds(&rel, &config);
    let mut t = TextTable::new(["FD", "confidence", "goodness"]);
    for d in &result.fds {
        t.row([
            d.fd.display(rel.schema()),
            format_confidence(d.measures.confidence),
            d.measures.goodness.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "{} FDs mined ({} lattice nodes, {} checks{}) in {}",
        result.fds.len(),
        result.nodes_visited,
        result.checks,
        if result.truncated { ", truncated" } else { "" },
        format_duration(result.elapsed),
    );
    Ok(())
}

/// `evofd cfd --csv file.csv --fd "A -> B"` — propose *conditioning*
/// evolutions: scopes under which the violated FD still holds.
pub fn cmd_cfd(cli: &Cli) -> CmdResult {
    let rel = load_relation(cli)?;
    let fds = parse_fds(cli, &rel)?;
    for fd in &fds {
        println!("conditioning candidates for {}:", fd.display(rel.schema()));
        let repairs = condition_repairs(&rel, fd);
        let mut t = TextTable::new(["condition attr", "coverage", "clean values", "dirty values"]);
        for r in repairs.iter().take(cli.get_or("limit", 10usize)) {
            t.row([
                rel.schema().attr_name(r.attr).to_string(),
                format!("{:.1}%", r.coverage * 100.0),
                r.clean_cfds.len().to_string(),
                r.dirty_values.to_string(),
            ]);
        }
        print!("{}", t.render());
        if let Some(best) = repairs.first() {
            for cfd in best.clean_cfds.iter().take(3) {
                println!("  e.g. {}", cfd.display(rel.schema()));
            }
        }
    }
    Ok(())
}

/// `evofd bcnf --csv file.csv --fd ...` — normal-form analysis of the
/// declared FD set.
pub fn cmd_bcnf(cli: &Cli) -> CmdResult {
    let rel = load_relation(cli)?;
    let fds = parse_fds(cli, &rel)?;
    let arity = rel.arity();
    let viol = bcnf_violations(arity, &fds);
    if viol.is_empty() {
        println!("schema is in BCNF under the declared FDs");
        return Ok(());
    }
    println!("BCNF violations:");
    for fd in &viol {
        println!("  {}", fd.display(rel.schema()));
    }
    println!("suggested lossless decomposition:");
    for fragment in bcnf_decompose(arity, &fds) {
        println!("  {}", rel.schema().render_attrs(&fragment.attrs));
    }
    Ok(())
}

/// `evofd demo` — the paper's running example, end to end.
pub fn cmd_demo() -> CmdResult {
    let rel = dg::places();
    println!("The Places relation (Figure 1):\n");
    print!("{}", rel.render(11));
    let fds = dg::places_fds(&rel);
    println!("\nDeclared FDs:");
    for (i, fd) in fds.iter().enumerate() {
        println!("  F{}: {}", i + 1, fd.display(rel.schema()));
    }
    let report = validate(&rel, &fds);
    println!("\nValidation:");
    for s in &report.statuses {
        println!(
            "  {} — confidence {}, goodness {}{}",
            s.fd.display(rel.schema()),
            format_confidence(s.measures.confidence),
            s.measures.goodness,
            if s.satisfied() { "" } else { "  [VIOLATED]" }
        );
    }
    println!("\nRepairing F1 (find all single-attribute repairs — Table 1):");
    let search = repair_fd(&rel, &fds[0], &RepairConfig::find_all()).map_err(err)?;
    let mut t = TextTable::new(["evolved FD", "added", "goodness"]);
    for r in search.repairs.iter().filter(|r| r.added.len() == 1) {
        t.row([
            r.fd.display(rel.schema()),
            rel.schema().render_attrs(&r.added),
            r.measures.goodness.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("The paper picks Municipal: goodness 0 makes the cluster map bijective.");
    Ok(())
}

/// Print top-level usage.
pub fn usage() -> String {
    "evofd — semi-automatic support for evolving functional dependencies (EDBT 2016)\n\
     \n\
     USAGE: evofd <command> [options]\n\
     \n\
     GLOBAL OPTIONS:\n\
       --threads N     parallel execution width (default: all cores; 1 = sequential)\n\
       --trace-slow MS enable metrics + tracing; log spans slower than MS ms to\n\
                       stderr (sql / watch / follow hot paths are instrumented)\n\
     \n\
     DURABILITY OPTIONS (sql / open / watch with --data-dir):\n\
       --data-dir DIR            durable database directory (delta WAL + snapshots)\n\
       --sync P                  fsync policy: per-commit | group:N | no-sync\n\
       --wal-compact-bytes N     WAL size triggering snapshot-compaction (default 4 MiB)\n\
       --compact-threshold F     tombstone fraction triggering live compaction\n\
       --history-stride N        sample FD health every N epochs into the durable\n\
                                 HISTORY file (default 1; 0 disables sampling)\n\
       --metrics-addr ADDR       (watch / serve / follow) also serve /metrics,\n\
                                 /health and /history over HTTP on ADDR\n\
     \n\
     COMMANDS:\n\
       demo       run the paper's running example end to end\n\
       validate   --csv FILE --fd \"A, B -> C\" [--fd ...]\n\
       repair     --csv FILE --fd \"A -> B\" [--all] [--max-added N] [--goodness-threshold G]\n\
       advise     --csv FILE --fd ... [--auto]   (semi-automatic designer loop)\n\
       gen        --dataset tpch|places|country|rental|image|pagelinks|veterans\n\
                  [--scale F] [--rows N] [--attrs K] [--seed S] --out DIR\n\
       sql        --csv FILE [--csv FILE2] --query \"SELECT ...\" [--data-dir DIR]\n\
                  [--connect ADDR]  (with --connect: run in a session on a\n\
                  running `evofd server`)\n\
                  (with --data-dir: DML becomes durable write-ahead transactions;\n\
                  add --replica to serve a follower read-only: SELECT / SHOW FDS /\n\
                  CHECK FD work, DML is rejected. SHOW FDS [FOR t] lists tracked\n\
                  FDs; SUGGEST REPAIRS FOR t [LIMIT n] caps at 20 proposals by\n\
                  default; SHOW STATS [FOR t] dumps the metrics registry;\n\
                  CREATE INDEX ON t (col) builds a planner index (durable\n\
                  with --data-dir); EXPLAIN <stmt> prints the chosen plan;\n\
                  EXPLAIN ANALYZE <stmt> reports per-stage timings)\n\
       open       --data-dir DIR [--checkpoint] [--query \"...\"]\n\
                  (recover a durable database, print WAL/tracker state)\n\
       serve      --data-dir DIR [--csv FILE ...] [--checkpoint-on-exit]\n\
                  (leader: execute SQL from stdin durably, print ship positions)\n\
       server     --data-dir DIR [--addr 127.0.0.1:9899] [--csv FILE ...]\n\
                  [--read-only] [--duration-ms N]\n\
                  (multi-client TCP service over the durable database: each\n\
                  connection is its own SQL session; `sql`, `follow`, `lag`\n\
                  and `watch` take --connect ADDR to run against it)\n\
       follow     --from LEADER_DIR | --connect ADDR  --data-dir REPLICA_DIR\n\
                  [--table T ...] [--follower NAME] [--rounds N] [--max-frames N]\n\
                  [--forever [--poll-ms N]]\n\
                  (follower: bootstrap from shipped snapshots, tail the WALs —\n\
                  from a leader directory or over TCP; restart-safe — resumes\n\
                  at the exact acked position)\n\
       lag        --from LEADER_DIR | --connect ADDR  --data-dir REPLICA_DIR\n\
                  [--table T ...]\n\
                  (per-table leader seq, replica seq and lag; lock-free probes)\n\
       stats      [--data-dir DIR] [--json | --prom] [--watch [--poll-ms N]\n\
                  [--rounds N] [--rate]]\n\
                  (dump the metrics registry: WAL/snapshot/recovery, tracker,\n\
                  advisor, replication and pool families; --prom emits\n\
                  Prometheus text exposition; --watch adds a per-poll delta\n\
                  column for counters, --rate a per-second rate column)\n\
       serve-metrics  --data-dir DIR [--addr 127.0.0.1:9187] [--duration-ms N]\n\
                  (serve /metrics, /health and /history over HTTP for a\n\
                  durable database; SQL: ALERT ON t FD '...' WHEN confidence\n\
                  < 0.98 FOR 5 EPOCHS installs durable alert rules, SHOW\n\
                  ALERTS and SHOW DRIFT HISTORY FOR t read them back)\n\
       history    --data-dir DIR --table T [--fd 'A -> B'] [--since N] [--json]\n\
                  (print the durable FD-health time series + drift/alert events)\n\
       keys       --csv FILE --fd ...            (minimal cover + candidate keys)\n\
       violations --csv FILE --fd ... [--limit N] (show offending tuples)\n\
       watch      --csv FILE --deltas STREAM --fd ... [--batch N] [--threshold T1,T2]\n\
                  [--advise] [--data-dir DIR]  (replay +/- delta stream, print FD\n\
                  drift events; --advise prints the live advisor's ranked repair\n\
                  proposals as drift happens; with --data-dir the watch is durable\n\
                  and resumes mid-stream; --tracker-memory-limit BYTES bounds\n\
                  per-FD tracker state — over the bound a tracker degrades to\n\
                  sketched approximate measures, flagged in SHOW FDS)\n\
                  --connect ADDR [--table T] [--duration-ms N]  (subscribe to a\n\
                  running `evofd server` and print pushed drift/alert events)\n\
       discover   --csv FILE [--max-lhs K] [--min-confidence C] (mine FDs)\n\
       cfd        --csv FILE --fd ...            (conditioning evolutions)\n\
       bcnf       --csv FILE --fd ...            (normal-form analysis)\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(s: &str) -> Cli {
        Cli::parse(s.split_whitespace().map(String::from))
    }

    /// A path unique to `tag` and this process, cleared of any leftover:
    /// tests never share a fixture, within one run or across concurrent
    /// runs.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("evofd_cli_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The paper's Places table as a CSV in a directory of its own.
    fn places_csv(tag: &str) -> String {
        let dir = scratch(&format!("{tag}_places"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("places.csv");
        write_csv_path(&dg::places(), &path).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn demo_runs() {
        cmd_demo().unwrap();
    }

    #[test]
    fn validate_and_repair_run_on_places_csv() {
        let csv = places_csv("validate_and_repair_run_on_places_csv");
        let c = cli(&format!("validate --csv {csv} --fd District,Region->AreaCode"));
        cmd_validate(&c).unwrap();
        let c = cli(&format!("repair --csv {csv} --fd District,Region->AreaCode --all"));
        cmd_repair(&c).unwrap();
    }

    #[test]
    fn advise_auto_mode() {
        let csv = places_csv("advise_auto_mode");
        let c = cli(&format!("advise --csv {csv} --fd District->PhNo --auto"));
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        cmd_advise(&c, &mut empty).unwrap();
    }

    #[test]
    fn advise_interactive_accept() {
        let csv = places_csv("advise_interactive_accept");
        let c = cli(&format!("advise --csv {csv} --fd District->PhNo"));
        let mut input = std::io::Cursor::new(b"accept 1\n".to_vec());
        cmd_advise(&c, &mut input).unwrap();
    }

    #[test]
    fn gen_and_sql_round_trip() {
        let dir = scratch("gen");
        let c = cli(&format!("gen --dataset places --out {}", dir.display()));
        cmd_gen(&c).unwrap();
        let csv = dir.join("Places.csv");
        assert!(csv.exists());
        let c = cli(&format!("sql --csv {} --query SELECT_COUNT_PLACEHOLDER", csv.display()));
        // Build the query via options directly (spaces break the helper).
        let mut c = c;
        c.options.retain(|(n, _)| n != "query");
        c.options.push(("query".into(), "SELECT COUNT(DISTINCT Zip) FROM Places".into()));
        cmd_sql(&c).unwrap();
    }

    /// Acceptance path for `evofd server`: two `evofd sql --connect`
    /// clients run concurrent sessions with independent session state
    /// (one read-only, one writing) against one served engine.
    #[test]
    fn server_serves_two_concurrent_sql_sessions() {
        let dir = scratch("server");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("pair.csv");
        std::fs::write(&csv, "X,Y\nx0,y0\nx1,y1\n").unwrap();
        // Reserve a free port, then hand it to the server (bind-to-:0
        // would hide the resolved port from the test).
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let server_cli = cli(&format!(
            "server --data-dir {} --csv {} --addr {addr} --duration-ms 15000",
            dir.join("db").display(),
            csv.display()
        ));
        let server = std::thread::spawn(move || cmd_server(&server_cli));
        // Wait for the listener to come up.
        let mut up = false;
        for _ in 0..100 {
            if std::net::TcpStream::connect(&addr).is_ok() {
                up = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        assert!(up, "server did not come up on {addr}");

        let writer_addr = addr.clone();
        let writer = std::thread::spawn(move || {
            let mut c = cli(&format!("sql --connect {writer_addr}"));
            c.options.push(("query".into(), "INSERT INTO pair VALUES ('x2', 'y2')".into()));
            cmd_sql(&c)
        });
        // `--replica` with `--connect` makes THIS session read-only; the
        // concurrent writer session is unaffected.
        let mut reader = cli(&format!("sql --connect {addr} --replica"));
        reader.options.push(("query".into(), "INSERT INTO pair VALUES ('x3', 'y3')".into()));
        assert!(cmd_sql(&reader).is_err(), "read-only session must reject DML");
        writer.join().unwrap().unwrap();
        let mut count = cli(&format!("sql --connect {addr}"));
        count.options.push(("query".into(), "SELECT COUNT(*) FROM pair".into()));
        cmd_sql(&count).unwrap();
        drop(server); // the --duration-ms server thread exits on its own
    }

    #[test]
    fn keys_command() {
        let csv = places_csv("keys_command");
        let c =
            cli(&format!("keys --csv {csv} --fd Zip->City,State --fd District,Region->AreaCode"));
        cmd_keys(&c).unwrap();
    }

    #[test]
    fn missing_options_error() {
        assert!(cmd_validate(&cli("validate")).is_err());
        assert!(cmd_gen(&cli("gen --dataset nope --out /tmp/x")).is_err());
        let csv = places_csv("missing_options_error");
        assert!(cmd_validate(&cli(&format!("validate --csv {csv}"))).is_err());
    }

    #[test]
    fn usage_lists_commands() {
        let u = usage();
        for cmd in [
            "demo",
            "validate",
            "repair",
            "advise",
            "gen",
            "sql",
            "keys",
            "violations",
            "discover",
            "cfd",
            "bcnf",
        ] {
            assert!(u.contains(cmd), "{cmd}");
        }
        assert!(u.contains("--threads"), "global width flag documented");
    }

    #[test]
    fn watch_replays_delta_stream() {
        let csv = places_csv("watch_replays_delta_stream");
        let dir = scratch("watch");
        std::fs::create_dir_all(&dir).unwrap();
        let deltas = dir.join("deltas.csv");
        // Places columns: District,Region,Municipal,AreaCode,PhNo,Street,Zip,City,State.
        // Insert a tuple that breaks Municipal -> AreaCode, then remove it.
        let row = "Collin,R1,Glendale,999,111-1111,Pine,60415,Chicago,IL";
        std::fs::write(&deltas, format!("+,{row}\n-,{row}\n-,{row}\n")).unwrap();
        let c = cli(&format!(
            "watch --csv {csv} --deltas {} --fd Municipal->AreaCode --threshold 0.9",
            deltas.display()
        ));
        cmd_watch(&c).unwrap();
        // A tracker memory bound parses and replays the same stream.
        let c = cli(&format!(
            "watch --csv {csv} --deltas {} --fd Municipal->AreaCode \
             --tracker-memory-limit 1024",
            deltas.display()
        ));
        cmd_watch(&c).unwrap();
        // Missing required options error out, as does a malformed bound.
        assert!(cmd_watch(&cli(&format!("watch --csv {csv}"))).is_err());
        assert!(cmd_watch(&cli("watch --deltas nope.csv --fd A->B")).is_err());
        let c = cli(&format!(
            "watch --csv {csv} --deltas {} --fd Municipal->AreaCode \
             --tracker-memory-limit lots",
            deltas.display()
        ));
        assert!(cmd_watch(&c).unwrap_err().contains("--tracker-memory-limit"));
    }

    #[test]
    fn usage_lists_durable_commands() {
        let u = usage();
        assert!(u.contains("open"), "open command documented");
        assert!(u.contains("--data-dir"), "durable flag documented");
        assert!(u.contains("--compact-threshold"), "compaction flag documented");
        assert!(u.contains("--tracker-memory-limit"), "tracker bound documented");
    }

    #[test]
    fn stats_command_renders_all_formats() {
        let csv = places_csv("stats_command_renders_all_formats");
        let dir = scratch("stats");
        // Populate a durable dir so `stats --data-dir` has recovery work to
        // meter, then exercise every output format plus the bounded watch loop.
        let mut c = cli(&format!("sql --csv {csv} --data-dir {}", dir.display()));
        c.options.push(("query".into(), "SELECT COUNT(*) FROM places".into()));
        cmd_sql(&c).unwrap();
        cmd_stats(&cli(&format!("stats --data-dir {} --prom", dir.display()))).unwrap();
        cmd_stats(&cli("stats --json")).unwrap();
        cmd_stats(&cli("stats")).unwrap();
        cmd_stats(&cli("stats --rounds 2 --poll-ms 1")).unwrap();
        // The Prometheus exposition covers the WAL, tracker, replication-lag
        // and advisor families regardless of traffic.
        let prom = evofd_obs::render_prometheus();
        for family in [
            "evofd_wal_appends_total",
            "evofd_tracker_deltas_total",
            "evofd_repl_lag_frames",
            "evofd_advisor_deltas_total",
        ] {
            assert!(prom.contains(family), "{family} missing from exposition");
        }
    }

    #[test]
    fn stats_watch_supports_delta_and_rate_columns() {
        cmd_stats(&cli("stats --rounds 2 --poll-ms 1 --rate")).unwrap();
        cmd_stats(&cli("stats --watch --rounds 1")).unwrap();
    }

    #[test]
    fn serve_metrics_and_history_commands_run_on_a_durable_dir() {
        let csv = places_csv("serve_metrics_and_history_commands_run_on_a_durable_dir");
        let dir = scratch("serve_metrics");
        // Seed a durable table with a tracked FD and some drift so the
        // HISTORY file has frames and events to print.
        let mut c = cli(&format!("sql --csv {csv} --data-dir {}", dir.display()));
        c.options.push((
            "query".into(),
            "ALTER TABLE places ADD CONSTRAINT FD 'Zip -> City'; \
             ALERT ON places FD 'Zip -> City' WHEN confidence < 1.0 FOR 1 EPOCHS; \
             UPDATE places SET City = 'Elsewhere' WHERE District = 'Collin'; \
             DELETE FROM places WHERE District = 'Dallas'"
                .into(),
        ));
        cmd_sql(&c).unwrap();
        let d = dir.display();
        cmd_history(&cli(&format!("history --data-dir {d} --table places"))).unwrap();
        cmd_history(&cli(&format!("history --data-dir {d} --table places --json --since 1")))
            .unwrap();
        assert!(cmd_history(&cli(&format!("history --data-dir {d} --table nope"))).is_err());
        // The endpoint binds an ephemeral port, serves for a moment, exits.
        cmd_serve_metrics(&cli(&format!(
            "serve-metrics --data-dir {d} --addr 127.0.0.1:0 --duration-ms 10"
        )))
        .unwrap();
    }

    #[test]
    fn usage_lists_observability() {
        let u = usage();
        assert!(u.contains("stats"), "stats command documented");
        assert!(u.contains("--trace-slow"), "trace flag documented");
        assert!(u.contains("--prom"), "Prometheus flag documented");
        assert!(u.contains("LIMIT n"), "suggest pagination documented");
    }

    #[test]
    fn sql_durable_round_trip_and_open() {
        let csv = places_csv("sql_durable_round_trip_and_open");
        let dir = scratch("durable_sql");
        // Import + mutate durably.
        let mut c = cli(&format!("sql --csv {csv} --data-dir {} --limit 5", dir.display()));
        c.options.push((
            "query".into(),
            "DELETE FROM places WHERE District = 'Collin'; SELECT COUNT(*) FROM places".into(),
        ));
        cmd_sql(&c).unwrap();
        // Reopen: the delete survived the process "death".
        let c = cli(&format!("open --data-dir {}", dir.display()));
        cmd_open(&c).unwrap();
        let mut c = cli(&format!("sql --data-dir {}", dir.display()));
        c.options.push(("query".into(), "SELECT COUNT(DISTINCT District) FROM places".into()));
        cmd_sql(&c).unwrap();
        // Checkpoint path — combined with --query, BOTH must run.
        let mut c = cli(&format!("open --data-dir {} --checkpoint", dir.display()));
        c.options.push(("query".into(), "SELECT COUNT(*) FROM places".into()));
        cmd_open(&c).unwrap();
        let table =
            DurableRelation::open(&dir.join("places"), evofd_persist::PersistOptions::default())
                .unwrap();
        assert_eq!(
            table.wal_bytes(),
            evofd_persist::wal::WAL_HEADER_LEN,
            "--checkpoint ran even though --query was also given"
        );
        drop(table);
        // Missing data dir on open errors.
        assert!(cmd_open(&cli("open")).is_err());
        // Bad sync policy errors.
        assert!(cmd_open(&cli(&format!("open --data-dir {} --sync maybe", dir.display()))).is_err());
    }

    #[test]
    fn watch_durable_resumes_mid_stream() {
        let csv = places_csv("watch_durable_resumes_mid_stream");
        let dir = scratch("durable_watch");
        let stream_dir = scratch("durable_watch_streams");
        std::fs::create_dir_all(&stream_dir).unwrap();
        let row = "Collin,R1,Glendale,999,111-1111,Pine,60415,Chicago,IL";
        let row2 = "Denton,R2,Summit,888,222-2222,Oak,60601,Chicago,IL";

        // First run: two inserts.
        let deltas = stream_dir.join("part1.csv");
        std::fs::write(&deltas, format!("+,{row}\n+,{row2}\n")).unwrap();
        let c = cli(&format!(
            "watch --csv {csv} --deltas {} --fd Municipal->AreaCode --data-dir {} \
             --compact-threshold 0.5",
            deltas.display(),
            dir.display()
        ));
        cmd_watch(&c).unwrap();

        // Second run over a LONGER stream sharing the same prefix: the
        // first two records must be skipped (cursor resume), the third
        // applied.
        let deltas2 = stream_dir.join("part2.csv");
        std::fs::write(&deltas2, format!("+,{row}\n+,{row2}\n-,{row}\n")).unwrap();
        let c = cli(&format!(
            "watch --csv {csv} --deltas {} --fd Municipal->AreaCode --data-dir {}",
            deltas2.display(),
            dir.display()
        ));
        cmd_watch(&c).unwrap();

        // The durable table ends at base rows + 2 - 1.
        let table =
            DurableRelation::open(&dir.join("places"), evofd_persist::PersistOptions::default())
                .unwrap();
        assert_eq!(table.cursor(), 3, "all three stream records consumed");
        assert_eq!(table.live().row_count(), dg::places().row_count() + 1);
        drop(table);

        // Reopening with a DIFFERENT --fd set is rejected loudly instead
        // of silently watching the stored dependencies.
        let c = cli(&format!(
            "watch --csv {csv} --deltas {} --fd Zip->City --data-dir {}",
            deltas2.display(),
            dir.display()
        ));
        let msg = cmd_watch(&c).unwrap_err();
        assert!(msg.contains("already tracks"), "{msg}");
        // Same FD set (spelled identically) is accepted.
        let c = cli(&format!(
            "watch --csv {csv} --deltas {} --fd Municipal->AreaCode --data-dir {}",
            deltas2.display(),
            dir.display()
        ));
        cmd_watch(&c).unwrap();
    }

    #[test]
    fn watch_advise_prints_live_proposals() {
        let csv = places_csv("watch_advise_prints_live_proposals");
        let dir = scratch("watch_advise");
        std::fs::create_dir_all(&dir).unwrap();
        let deltas = dir.join("deltas.csv");
        // Break Municipal -> AreaCode, then repair it by the data again.
        let row = "Collin,R1,Glendale,999,111-1111,Pine,60415,Chicago,IL";
        std::fs::write(&deltas, format!("+,{row}\n-,{row}\n")).unwrap();
        let c = cli(&format!(
            "watch --csv {csv} --deltas {} --fd Municipal->AreaCode --advise",
            deltas.display()
        ));
        cmd_watch(&c).unwrap();

        // The durable path materializes the table's advisor session too.
        let data_dir = scratch("watch_advise_durable");
        let c = cli(&format!(
            "watch --csv {csv} --deltas {} --fd Municipal->AreaCode --advise --data-dir {}",
            deltas.display(),
            data_dir.display()
        ));
        cmd_watch(&c).unwrap();
        let table = DurableRelation::open(
            &data_dir.join("places"),
            evofd_persist::PersistOptions::default(),
        )
        .unwrap();
        assert_eq!(table.cursor(), 2);
        drop(table);
    }

    #[test]
    fn watch_rejects_malformed_stream() {
        let csv = places_csv("watch_rejects_malformed_stream");
        let dir = scratch("watch_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let deltas = dir.join("bad.csv");
        std::fs::write(&deltas, "?,a,b\n").unwrap();
        let c = cli(&format!(
            "watch --csv {csv} --deltas {} --fd Municipal->AreaCode",
            deltas.display()
        ));
        let msg = cmd_watch(&c).unwrap_err();
        assert!(msg.contains("expected op") || msg.contains("unknown op"), "{msg}");
    }

    #[test]
    fn serve_follow_lag_and_replica_sql() {
        let leader = scratch("repl_leader");
        let replica = scratch("repl_replica");

        // Leader: three DML lines = three WAL frames to ship.
        let c = cli(&format!("serve --data-dir {}", leader.display()));
        let sql = "CREATE TABLE t (a INT, b TEXT);\n\
                   INSERT INTO t VALUES (1, 'x'), (2, 'x');\n\
                   INSERT INTO t VALUES (3, 'y');\n\
                   UPDATE t SET b = 'z' WHERE a = 2;\n\
                   quit\n";
        let mut input = std::io::Cursor::new(sql.as_bytes().to_vec());
        cmd_serve(&c, &mut input).unwrap();

        // Follow one frame at a time: the reported lag must shrink
        // monotonically to zero across invocations.
        let mut lags = Vec::new();
        loop {
            let c = cli(&format!(
                "follow --from {} --data-dir {} --rounds 1 --max-frames 1",
                leader.display(),
                replica.display()
            ));
            cmd_follow(&c).unwrap();
            let (_, _, lag) = replication_lag(&leader.join("t"), &replica.join("t")).unwrap();
            lags.push(lag);
            // `evofd lag` renders the same probes without locking.
            cmd_lag(&cli(&format!(
                "lag --from {} --data-dir {}",
                leader.display(),
                replica.display()
            )))
            .unwrap();
            if lag == 0 {
                break;
            }
        }
        assert!(lags.windows(2).all(|w| w[1] < w[0]), "lag must shrink monotonically: {lags:?}");
        assert_eq!(*lags.last().unwrap(), 0);
        assert!(lags.len() >= 3, "one frame per round: {lags:?}");

        // Reads succeed on the replica mid- and post-catch-up…
        let mut r = DurableEngine::open_replica(&replica, evofd_persist::PersistOptions::default())
            .unwrap();
        assert_eq!(r.query_scalar("SELECT COUNT(*) FROM t").unwrap(), evofd_storage::Value::Int(3));
        assert_eq!(
            r.query("SELECT b FROM t WHERE a = 2").unwrap().row(0)[0],
            evofd_storage::Value::str("z")
        );
        drop(r);
        // …through the CLI too, and DML is rejected with the replica error.
        let mut c = cli(&format!("sql --data-dir {} --replica", replica.display()));
        c.options.push(("query".into(), "SELECT COUNT(*) FROM t".into()));
        cmd_sql(&c).unwrap();
        let mut c = cli(&format!("sql --data-dir {} --replica", replica.display()));
        c.options.push(("query".into(), "INSERT INTO t VALUES (9, 'w')".into()));
        let msg = cmd_sql(&c).unwrap_err();
        assert!(msg.contains("read-only replica"), "{msg}");
        // CHECK FD works against the replica's contents.
        let mut c = cli(&format!("sql --data-dir {} --replica", replica.display()));
        c.options.push(("query".into(), "CHECK FD 'a -> b' ON t".into()));
        cmd_sql(&c).unwrap();
        // --replica refuses CSV imports (writes belong on the leader).
        let csv = places_csv("serve_follow_lag_and_replica_sql");
        let mut c = cli(&format!("sql --data-dir {} --replica --csv {csv}", replica.display()));
        c.options.push(("query".into(), "SELECT COUNT(*) FROM t".into()));
        assert!(cmd_sql(&c).unwrap_err().contains("leader"));
    }

    #[test]
    fn follow_resumes_mid_catch_up_and_serves_partial_reads() {
        let leader = scratch("repl_partial_leader");
        let replica = scratch("repl_partial_replica");

        let c = cli(&format!("serve --data-dir {}", leader.display()));
        let sql = "CREATE TABLE t (a INT);\n\
                   INSERT INTO t VALUES (1);\n\
                   INSERT INTO t VALUES (2);\n\
                   INSERT INTO t VALUES (3);\n";
        cmd_serve(&c, &mut std::io::Cursor::new(sql.as_bytes().to_vec())).unwrap();

        // Apply only the first frame, then stop (simulated kill).
        let c = cli(&format!(
            "follow --from {} --data-dir {} --rounds 1 --max-frames 1 --quiet",
            leader.display(),
            replica.display()
        ));
        cmd_follow(&c).unwrap();
        // Mid-catch-up reads serve the acked prefix.
        let mut r = DurableEngine::open_replica(&replica, evofd_persist::PersistOptions::default())
            .unwrap();
        assert_eq!(r.query_scalar("SELECT COUNT(*) FROM t").unwrap(), evofd_storage::Value::Int(1));
        drop(r);
        // A later follow (fresh invocation = restart) finishes the job.
        let c =
            cli(&format!("follow --from {} --data-dir {}", leader.display(), replica.display()));
        cmd_follow(&c).unwrap();
        assert_eq!(replication_lag(&leader.join("t"), &replica.join("t")).unwrap().2, 0);
        // Missing options error cleanly.
        assert!(cmd_follow(&cli("follow")).is_err());
        assert!(cmd_lag(&cli("lag")).is_err());
        // Malformed numeric bounds error instead of silently meaning
        // "unlimited".
        let c = cli(&format!(
            "follow --from {} --data-dir {} --max-frames 10k",
            leader.display(),
            replica.display()
        ));
        assert!(cmd_follow(&c).unwrap_err().contains("bad --max-frames"));
        let c = cli(&format!(
            "follow --from {} --data-dir {} --rounds onee",
            leader.display(),
            replica.display()
        ));
        assert!(cmd_follow(&c).unwrap_err().contains("bad --rounds"));
        assert!(cmd_serve(&cli("serve"), &mut std::io::Cursor::new(Vec::<u8>::new())).is_err());
    }

    #[test]
    fn usage_lists_replication_commands() {
        let u = usage();
        for cmd in ["serve", "follow", "lag", "--replica", "--from"] {
            assert!(u.contains(cmd), "{cmd}");
        }
    }

    #[test]
    fn violations_and_discover_and_cfd_run() {
        let csv = places_csv("violations_and_discover_and_cfd_run");
        cmd_violations(&cli(&format!("violations --csv {csv} --fd Zip->City,State"))).unwrap();
        cmd_discover(&cli(&format!("discover --csv {csv} --max-lhs 2"))).unwrap();
        cmd_cfd(&cli(&format!("cfd --csv {csv} --fd Zip->City"))).unwrap();
        cmd_bcnf(&cli(&format!("bcnf --csv {csv} --fd Municipal->AreaCode --fd Zip->City")))
            .unwrap();
    }
}
