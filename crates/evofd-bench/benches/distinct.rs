//! Criterion micro-bench: distinct counting strategies.
//!
//! The `|π_X(r)|` primitive is the hot path of the whole CB method; this
//! bench compares the hash kernel on dictionary codes against naive row
//! hashing, across row counts and attribute-set widths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use evofd_datagen::SyntheticSpec;
use evofd_storage::{count_distinct, count_distinct_naive, AttrSet};

fn bench_distinct(c: &mut Criterion) {
    let mut group = c.benchmark_group("count_distinct");
    for &rows in &[1_000usize, 10_000, 50_000] {
        let rel = SyntheticSpec::uniform("b", 6, rows, 64, 1).generate();
        for &width in &[1usize, 3, 6] {
            let attrs = AttrSet::full(width);
            group.bench_with_input(
                BenchmarkId::new(format!("hash_w{width}"), rows),
                &rel,
                |b, rel| b.iter(|| count_distinct(rel, &attrs)),
            );
            if rows <= 10_000 {
                group.bench_with_input(
                    BenchmarkId::new(format!("naive_w{width}"), rows),
                    &rel,
                    |b, rel| b.iter(|| count_distinct_naive(rel, &attrs)),
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_distinct);
criterion_main!(benches);
