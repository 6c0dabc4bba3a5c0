//! Criterion micro-bench: confidence/goodness computation (Definition 3)
//! and FD ordering (§4.1) across relation sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use evofd_core::{order_fds, ConflictMode, Fd, Measures};
use evofd_datagen::SyntheticSpec;
use evofd_storage::DistinctCache;

fn bench_measures(c: &mut Criterion) {
    let mut group = c.benchmark_group("measures");
    for &rows in &[1_000usize, 10_000, 100_000] {
        let rel = SyntheticSpec::planted_fd("b", 2, 4, rows, 40, 0.1, 3).generate();
        let fd = Fd::parse(rel.schema(), "a0, a1 -> a6").expect("planted");
        group.bench_with_input(BenchmarkId::new("confidence_goodness", rows), &rel, |b, rel| {
            b.iter(|| {
                let cache = DistinctCache::disabled();
                Measures::compute(rel, &fd, &cache)
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("order_fds");
    let rel = SyntheticSpec::uniform("b", 8, 20_000, 32, 5).generate();
    let fds: Vec<Fd> =
        (1..8).map(|i| Fd::parse(rel.schema(), &format!("a0 -> a{i}")).expect("valid")).collect();
    group.bench_function("rank_7_fds_20k_rows", |b| {
        b.iter(|| order_fds(&rel, &fds, ConflictMode::SharedAttrs, &DistinctCache::new()))
    });
    group.finish();
}

criterion_group!(benches, bench_measures);
criterion_main!(benches);
