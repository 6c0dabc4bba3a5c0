//! Criterion micro-bench: CB vs EB candidate ranking on the same pool —
//! the §5 cost claim quantified.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use evofd_baseline::eb_rank_candidates;
use evofd_core::{candidate_pool, extend_by_one, Fd};
use evofd_datagen::SyntheticSpec;
use evofd_storage::DistinctCache;

fn bench_cb_vs_eb(c: &mut Criterion) {
    let mut group = c.benchmark_group("rank_candidates");
    group.sample_size(10);
    for &rows in &[2_000usize, 10_000, 40_000] {
        let spec = SyntheticSpec::planted_fd("b", 1, 9, rows, 40, 0.1, 13);
        let rel = spec.generate();
        let fd = Fd::parse(rel.schema(), &format!("a0 -> a{}", rel.arity() - 1)).expect("ok");
        let pool = candidate_pool(&rel, &fd);
        group.bench_with_input(BenchmarkId::new("cb_confidence", rows), &rel, |b, rel| {
            b.iter(|| {
                let cache = DistinctCache::new();
                extend_by_one(rel, &fd, &pool, &cache)
            })
        });
        group.bench_with_input(BenchmarkId::new("eb_entropy", rows), &rel, |b, rel| {
            b.iter(|| eb_rank_candidates(rel, &fd, &pool))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cb_vs_eb);
criterion_main!(benches);
