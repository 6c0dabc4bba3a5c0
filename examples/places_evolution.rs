//! The full Section 3–4 walkthrough on the `Places` relation: FD
//! ordering (§4.1), candidate ranking for F1 (Table 1), the iterative
//! two-attribute repair of F4 (§4.3, Tables 2 and 3), and the UNIQUE-
//! attribute discussion.
//!
//! ```text
//! cargo run --release --example places_evolution
//! ```

use evofd::core::{
    candidate_pool, extend_by_one, format_confidence, order_fds, repair_fd, ConflictMode, Fd,
    RepairConfig, TextTable,
};
use evofd::prelude::*;

fn candidate_table(rel: &Relation, fd: &Fd) -> TextTable {
    let pool = candidate_pool(rel, fd);
    let cache = DistinctCache::new();
    let mut t = TextTable::new(["A", "confidence", "goodness"]);
    for cand in extend_by_one(rel, fd, &pool, &cache) {
        t.row([
            rel.schema().attr_name(cand.attr).to_string(),
            format_confidence(cand.measures.confidence),
            cand.measures.goodness.to_string(),
        ]);
    }
    t
}

fn main() {
    let places = evofd::datagen::places();
    let schema = places.schema();
    let fds = evofd::datagen::places_fds(&places);

    // ---- §4.1: in which order should violated FDs be repaired? ----
    println!("§4.1 FD ordering (rank = (inconsistency + conflict)/2):");
    let cache = DistinctCache::new();
    for ranked in order_fds(&places, &fds, ConflictMode::SharedConsequents, &cache) {
        println!(
            "  {:<40} c = {:<5} rank = {:.3}",
            ranked.fd.display(schema),
            format_confidence(ranked.measures.confidence),
            ranked.rank,
        );
    }
    println!("  (paper: F1 0.25, F2 0.167, F3 0.056 — same order)\n");

    // ---- Table 1: evolving F1 ----
    let f1 = &fds[0];
    println!("Table 1 — candidates for F1: {}", f1.display(schema));
    print!("{}", candidate_table(&places, f1).render());
    println!("Municipal and PhNo both yield exact FDs; Municipal wins with goodness 0.\n");

    // ---- §4.3 / Tables 2-3: F4 needs two attributes ----
    let f4 = Fd::parse(schema, "District -> PhNo").unwrap();
    println!("Table 2 — candidates for F4: {}", f4.display(schema));
    print!("{}", candidate_table(&places, &f4).render());
    println!("No candidate reaches confidence 1 — iterate with the best (Street).\n");

    let f4_street = f4.with_lhs_attr(schema.resolve("Street").unwrap());
    println!("Table 3 — candidates for {}:", f4_street.display(schema));
    print!("{}", candidate_table(&places, &f4_street).render());

    // The engine automates the same exploration (Algorithm 3):
    let search = repair_fd(&places, &f4, &RepairConfig::find_all()).unwrap();
    println!("\nAlgorithm 3 finds {} total repairs; the minimal ones:", search.repairs.len());
    let min_len = search.repairs.iter().map(|r| r.added.len()).min().unwrap();
    for r in search.repairs.iter().filter(|r| r.added.len() == min_len) {
        println!("  {}  (added {})", r.fd.display(schema), schema.render_attrs(&r.added));
    }
    println!(
        "\nThe paper reaches the same pair of minimal repairs — Street+Municipal and\n\
         Street+AreaCode — and leaves the final choice to the designer."
    );
}
