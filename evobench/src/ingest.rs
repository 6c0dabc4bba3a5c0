//! `ingest`: the write path, with every durable layer doing per-statement
//! work and nothing reading during the stream.
//!
//! A 50,000-row table (integer key `a0` with a secondary index, 8 tracked
//! FDs, one alert rule, history at stride 1, a live advisor) takes a
//! fixed stream of single-row statements from one caller: 80% INSERT
//! (~2% planting a violation), 10% UPDATE-by-key of an FD right-hand
//! side, 10% DELETE-by-key. The table is this large so that O(table)
//! costs stand clear of O(changed) ones.

use evofd_incremental::ValidatorConfig;
use evofd_persist::{Database, DurableEngine};

use crate::bench::{ctx, persist_opts, Bench, Probe, Res};
use crate::data::{self, parse_fds, Model, Rng};

/// Statements in the timed stream of one round.
pub const STREAM: usize = 300;

/// Run the workload.
pub fn run(b: &mut Bench) -> Res<()> {
    let spec = data::ingest_table();
    let base = spec.generate();
    let mut model = Model::new(&spec, &base);
    let stream = model.write_stream(&mut Rng::new(b.seed, 1), STREAM);
    let fds = parse_fds(&base, &spec.fds)?;
    b.rows.push((spec.name.into(), base.row_count()));

    let (mut engine, db_dir, mut followers) = b.setup(|b, dir| {
        let mut db = ctx(Database::open(dir, persist_opts()), "opening the database")?;
        ctx(db.create_table(base.clone(), fds.clone(), ValidatorConfig::default()), "import")?;
        let mut engine = ctx(DurableEngine::from_database(db), "engine")?;
        for sql in [
            "CREATE INDEX ON ingest (a0)",
            "ALERT ON ingest FD 'a1 -> a4' WHEN confidence < 0.999 FOR 3 EPOCHS",
            "SUGGEST REPAIRS FOR ingest LIMIT 1",
        ] {
            ctx(engine.execute(sql), sql)?;
        }
        let followers = b.bootstrap_followers(dir, spec.name)?;
        Ok((engine, dir.to_path_buf(), followers))
    })?;
    if let Some(layers) = &mut b.layers {
        layers.fork(&engine, spec.name, &b.dir)?;
    }

    b.timed(|b| {
        for stmt in &stream {
            b.exec_stmt(&mut engine, stmt)?;
        }
        Ok(((), stream.len() as u64))
    })?;
    b.check_table(&engine, &model)?;

    let mut engine = b.end_phase(engine, &db_dir, spec.name, &mut followers)?;
    let candidates: Vec<String> = spec.fds.iter().map(|s| s.to_string()).collect();
    b.probe(
        &mut engine,
        &mut model,
        &candidates,
        Probe { reads: true, inserts: false, modifies: false, designer_passes: 1 },
    )?;
    b.served_probe(engine, &model)
}
