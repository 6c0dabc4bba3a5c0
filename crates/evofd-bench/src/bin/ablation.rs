//! Ablation benches for the design choices called out in DESIGN.md §6:
//!
//! 1. **distinct-count memoisation** on vs off during repair search;
//! 2. **hash-kernel counting** on dictionary codes vs naive row-hashing;
//! 3. **goodness threshold** (the §4.4 extension) steering the search away
//!    from UNIQUE-attribute repairs;
//! 4. **conflict-score modes** (formula as printed vs the variant matching
//!    the paper's running-example numbers) — order stability check.
//!
//! ```text
//! cargo run --release -p evofd-bench --bin ablation [--rows 20000] [--attrs 14]
//! ```

use evofd_bench::{banner, timed, Args};
use evofd_core::{
    format_duration, order_fds, repair_fd, ConflictMode, Fd, RepairConfig, TextTable,
};
use evofd_datagen::{places, places_fds, ColumnSpec, SyntheticSpec};
use evofd_storage::{count_distinct, count_distinct_naive, AttrSet, DistinctCache};

fn main() {
    let args = Args::from_env();
    if args.flag("help") {
        println!("ablation — design-choice studies. Flags: --rows n --attrs k --seed s");
        return;
    }
    let n_rows = args.get_or("rows", 20_000usize);
    let n_attrs = args.get_or("attrs", 14usize);
    let seed = args.get_or("seed", 7u64);
    banner("Ablations", "cache, counting strategy, goodness threshold, conflict mode");

    // 1. memoisation on/off.
    println!("\n[1] distinct-count memoisation (find-all on planted FD):");
    let spec = SyntheticSpec::planted_fd("ab1", 1, n_attrs - 3, n_rows, 30, 0.05, seed);
    let rel = spec.generate();
    let fd = Fd::parse(rel.schema(), &format!("a0 -> a{}", rel.arity() - 1)).expect("planted");
    let mut t = TextTable::new(["cache", "time", "hits", "misses", "repairs"]);
    for use_cache in [true, false] {
        let cfg = RepairConfig { use_cache, ..RepairConfig::find_all() };
        let (search, took) = timed(|| repair_fd(&rel, &fd, &cfg).expect("violated"));
        t.row([
            use_cache.to_string(),
            format_duration(took),
            search.stats.cache.hits.to_string(),
            search.stats.cache.misses.to_string(),
            search.repairs.len().to_string(),
        ]);
    }
    print!("{}", t.render());

    // 2. hash kernel vs naive hashing.
    println!("\n[2] distinct counting: hash kernel vs naive row hashing:");
    let wide = SyntheticSpec::uniform("ab2", 6, n_rows, 50, seed).generate();
    let attrs = AttrSet::full(6);
    let (a, t_fast) = timed(|| count_distinct(&wide, &attrs));
    let (b, t_naive) = timed(|| count_distinct_naive(&wide, &attrs));
    assert_eq!(a, b, "both strategies agree");
    let mut t = TextTable::new(["strategy", "time", "result"]);
    t.row(["hash kernel (codes)", &format_duration(t_fast), &a.to_string()]);
    t.row(["naive row hashing (values)", &format_duration(t_naive), &b.to_string()]);
    print!("{}", t.render());

    // 3. goodness threshold vs UNIQUE attribute.
    println!("\n[3] goodness threshold (§4.4 extension) vs a UNIQUE attribute:");
    let mut columns = vec![
        ColumnSpec::Categorical { cardinality: 20 }, // a0: X
        ColumnSpec::Unique,                          // a1: id
        ColumnSpec::Categorical { cardinality: 25 }, // a2: the good fix
        ColumnSpec::Derived { sources: vec![0, 2], cardinality: 2000, violation_rate: 0.0 },
    ];
    columns.push(ColumnSpec::Categorical { cardinality: 5 }); // noise
    let spec = SyntheticSpec { name: "ab3".into(), n_rows: 5_000, columns, seed };
    let rel3 = spec.generate();
    let fd3 = Fd::parse(rel3.schema(), "a0 -> a3").expect("planted");
    let mut t =
        TextTable::new(["threshold", "first repair", "abs(goodness)", "rejected by threshold"]);
    for thr in [None, Some(5_000u64), Some(50u64)] {
        let cfg = RepairConfig { goodness_threshold: thr, ..RepairConfig::find_first() };
        let search = repair_fd(&rel3, &fd3, &cfg).expect("violated");
        let (name, g) = match search.best() {
            Some(best) => {
                (rel3.schema().render_attrs(&best.added), best.measures.abs_goodness().to_string())
            }
            None => ("none".to_string(), "-".to_string()),
        };
        t.row([
            thr.map(|v| v.to_string()).unwrap_or_else(|| "off".to_string()),
            name,
            g,
            search.stats.rejected_by_goodness.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("  (the CB ranking already prefers low |g|; the threshold additionally *forbids*\n   over-specific repairs when exploring exhaustively)");

    // 4. conflict-score modes on the running example.
    println!("\n[4] conflict-score modes, Places running example (§4.1):");
    let places = places();
    let fds = places_fds(&places);
    let mut t = TextTable::new(["mode", "order", "ranks"]);
    for (label, mode) in [
        ("SharedAttrs (formula as printed)", ConflictMode::SharedAttrs),
        ("SharedConsequents (matches paper's numbers)", ConflictMode::SharedConsequents),
    ] {
        let ranked = order_fds(&places, &fds, mode, &DistinctCache::new());
        let order: Vec<String> = ranked
            .iter()
            .map(|r| {
                let idx = fds.iter().position(|f| *f == r.fd).expect("from set") + 1;
                format!("F{idx}")
            })
            .collect();
        let ranks: Vec<String> = ranked.iter().map(|r| format!("{:.3}", r.rank)).collect();
        t.row([label.to_string(), order.join(" > "), ranks.join(", ")]);
    }
    print!("{}", t.render());
    println!("  both modes produce the paper's repair order F1 > F2 > F3; only the\n  absolute rank values differ (see EXPERIMENTS.md).");
}
