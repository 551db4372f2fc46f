//! Table 1 micro-benchmark: how long the metric analyzers take over the
//! full application source set (and a smoke check that the table builds).

use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1");
    g.bench_function("measure_all_sources", |b| {
        b.iter(|| {
            let rows = bench::table1::rows();
            assert_eq!(rows.len(), 15);
            std::hint::black_box(rows)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
