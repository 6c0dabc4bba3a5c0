//! `designer`: the paper's designer loop over the paper's own data.
//!
//! The TPC-H catalog at scale 0.001 (lineitem ≈ 6k rows × 16 attributes)
//! with the eight FDs of the paper's Table 5, plus a 50,000-row synthetic
//! table carrying a pool of ten candidate FDs, so that `CHECK FD` counts
//! over a table larger than cache. Each timed pass runs the designer
//! loop over every table; there is no DML in the timed phase, so batch
//! counting, repair-lattice builds and tracker rebuilds do almost all the
//! work while the WAL, history, server and read operators stay idle.
//! Lineitem stays in so that advisor memory shows in `peak_rss_mb`.

use evofd_datagen::{generate_catalog, table5_fds, TpchSpec};
use evofd_incremental::ValidatorConfig;
use evofd_persist::{Database, DurableEngine};

use crate::bench::{ctx, persist_opts, Bench, Probe, Res};
use crate::data::{self, parse_fds, Model};

/// Designer passes in the timed phase of one round.
pub const PASSES: usize = 1;

/// Run the workload.
pub fn run(b: &mut Bench) -> Res<()> {
    // The TPC-H catalog is the paper's fixed data set (the generator's
    // own seed); `--seed` drives the probe's statements.
    let catalog = generate_catalog(&TpchSpec::new(0.001));
    let table5 = table5_fds(&catalog);
    let spec = data::designer_table();
    let base = spec.generate();
    let mut model = Model::new(&spec, &base);
    let key_fds = parse_fds(&base, &spec.fds)?;
    let pool: Vec<String> = data::designer_pool().iter().map(|s| s.to_string()).collect();

    let mut tables = Vec::new();
    for (t, fd) in &table5 {
        let rel = ctx(catalog.get(t.name()), "TPC-H table")?;
        b.rows.push((t.name().into(), rel.row_count()));
        tables.push((t.name().to_string(), vec![fd.display(rel.schema())]));
    }
    b.rows.push((spec.name.into(), base.row_count()));
    tables.push((spec.name.to_string(), pool.clone()));

    let (mut engine, db_dir, mut followers) = b.setup(|b, dir| {
        let mut db = ctx(Database::open(dir, persist_opts()), "opening the database")?;
        for (t, fd) in &table5 {
            let rel = ctx(catalog.get(t.name()), "TPC-H table")?.clone();
            ctx(db.create_table(rel, vec![fd.clone()], ValidatorConfig::default()), "import")?;
        }
        ctx(db.create_table(base.clone(), key_fds.clone(), ValidatorConfig::default()), "import")?;
        let mut engine = ctx(DurableEngine::from_database(db), "engine")?;
        ctx(engine.execute("CREATE INDEX ON pool (a0)"), "index")?;
        let followers = b.bootstrap_followers(dir, spec.name)?;
        Ok((engine, dir.to_path_buf(), followers))
    })?;

    b.timed(|b| {
        let before = b.rec.totals().0;
        // Every round's pass starts from the same state, so the
        // batch-analysis oracle runs in the first round only.
        for _ in 0..PASSES {
            let oracle = b.round == 0;
            b.designer_pass(&mut engine, &tables, oracle)?;
        }
        Ok(((), b.rec.totals().0 - before))
    })?;

    let mut engine = b.end_phase(engine, &db_dir, spec.name, &mut followers)?;
    b.probe(
        &mut engine,
        &mut model,
        &pool,
        Probe { reads: true, inserts: true, modifies: true, designer_passes: 0 },
    )?;
    b.served_probe(engine, &model)
}
