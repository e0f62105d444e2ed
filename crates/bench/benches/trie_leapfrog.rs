//! Microbenchmarks of the join kernel: trie construction, leapfrog
//! intersection (vs a hash-set intersection reference), sorted-seek
//! primitives (scalar gallop vs block-wise search), probe kernels
//! (scalar vs batched-block, plain vs bitset-indexed levels), and the full
//! triangle join (LFTJ vs level-wise generic vs binary hash joins) — the
//! relational substrate the multi-model engine stands on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relational::generator::random_relation;
use relational::generic::generic_join;
use relational::hashjoin::multiway_hash_join;
use relational::leapfrog::intersect;
use relational::lftj::lftj_join;
use relational::plan::JoinPlan;
use relational::{
    block_seek, gallop, Attr, Dict, LftjWalk, ProbeKernel, Schema, Trie, TrieBuilder, ValueId,
    ValueRange,
};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;

fn bench_trie_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("trie_build");
    for rows in [1_000usize, 10_000] {
        let mut dict = Dict::new();
        let rel = random_relation(&mut dict, Schema::of(&["a", "b", "c"]), rows, 64, 3);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| black_box(Trie::from_relation(&rel).num_tuples()))
        });
    }
    group.finish();
}

fn bench_leapfrog_intersect(c: &mut Criterion) {
    let mut group = c.benchmark_group("leapfrog_intersect");
    for size in [1_000usize, 100_000] {
        // Two sorted lists with every 3rd/5th value present: ~1/15 overlap.
        let a: Vec<ValueId> = (0..size as u32).map(|i| ValueId(3 * i)).collect();
        let b: Vec<ValueId> = (0..size as u32).map(|i| ValueId(5 * i)).collect();
        group.bench_with_input(BenchmarkId::new("leapfrog", size), &size, |bch, _| {
            bch.iter(|| black_box(intersect(&[&a, &b]).len()))
        });
        group.bench_with_input(BenchmarkId::new("hashset", size), &size, |bch, _| {
            bch.iter(|| {
                let set: HashSet<ValueId> = a.iter().copied().collect();
                black_box(b.iter().filter(|v| set.contains(v)).count())
            })
        });
    }
    group.finish();
}

fn bench_sorted_seek(c: &mut Criterion) {
    let mut group = c.benchmark_group("sorted_seek");
    for size in [1_000usize, 100_000] {
        // Seek every 7th value of a dense sorted level — the probe pattern of
        // a cursor marching through an intersection.
        let level: Vec<ValueId> = (0..size as u32).map(|i| ValueId(2 * i)).collect();
        let targets: Vec<ValueId> = (0..size as u32)
            .step_by(7)
            .map(|i| ValueId(2 * i))
            .collect();
        group.bench_with_input(BenchmarkId::new("gallop", size), &size, |bch, _| {
            bch.iter(|| {
                let mut pos = 0usize;
                for &t in &targets {
                    pos = gallop(&level, pos, t);
                }
                black_box(pos)
            })
        });
        group.bench_with_input(BenchmarkId::new("block_seek", size), &size, |bch, _| {
            bch.iter(|| {
                let mut pos = 0usize;
                for &t in &targets {
                    pos = block_seek(&level, pos, t);
                }
                black_box(pos)
            })
        });
    }
    group.finish();
}

fn bench_probe_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_kernels");
    for rows in [2_000usize, 20_000] {
        let domain = (rows as f64).sqrt() as u64 * 4;
        let mut dict = Dict::new();
        let r = random_relation(&mut dict, Schema::of(&["a", "b"]), rows, domain, 1);
        let s = random_relation(&mut dict, Schema::of(&["b", "c"]), rows, domain, 2);
        let t = random_relation(&mut dict, Schema::of(&["a", "c"]), rows, domain, 3);
        let order: Vec<Attr> = vec!["a".into(), "b".into(), "c".into()];
        let build = |bitsets: bool| -> Vec<Arc<Trie>> {
            let mut b = TrieBuilder::new().with_bitset_levels(bitsets);
            [&r, &s, &t]
                .iter()
                .map(|rel| {
                    let restricted = rel.schema().restrict_order(&order).expect("order covers");
                    Arc::new(b.build(rel, &restricted).expect("trie builds"))
                })
                .collect()
        };
        let plain = build(false);
        let indexed = build(true);
        for (label, kernel, tries) in [
            ("scalar", ProbeKernel::Scalar, &plain),
            ("block", ProbeKernel::Block, &plain),
            ("bitset", ProbeKernel::Block, &indexed),
        ] {
            group.bench_with_input(BenchmarkId::new(label, rows), &rows, |b, _| {
                b.iter(|| {
                    let plan = JoinPlan::from_shared(tries.clone(), &order).expect("plan builds");
                    let mut walk = LftjWalk::with_kernel(plan, ValueRange::all(), kernel);
                    let mut n = 0usize;
                    while walk.next_tuple().is_some() {
                        n += 1;
                    }
                    black_box(n)
                })
            });
        }
    }
    group.finish();
}

fn bench_triangle(c: &mut Criterion) {
    let mut group = c.benchmark_group("triangle_join");
    for rows in [500usize, 2_000] {
        let domain = (rows as f64).sqrt() as u64 * 4;
        let mut dict = Dict::new();
        let r = random_relation(&mut dict, Schema::of(&["a", "b"]), rows, domain, 1);
        let s = random_relation(&mut dict, Schema::of(&["b", "c"]), rows, domain, 2);
        let t = random_relation(&mut dict, Schema::of(&["a", "c"]), rows, domain, 3);
        let order: Vec<Attr> = vec!["a".into(), "b".into(), "c".into()];
        group.bench_with_input(BenchmarkId::new("lftj", rows), &rows, |b, _| {
            b.iter(|| {
                let plan = JoinPlan::new(&[&r, &s, &t], &order).expect("plan builds");
                let mut walk = LftjWalk::new(plan);
                let mut n = 0usize;
                while walk.next_tuple().is_some() {
                    n += 1;
                }
                black_box(n)
            })
        });
        group.bench_with_input(BenchmarkId::new("lftj_materialise", rows), &rows, |b, _| {
            b.iter(|| black_box(lftj_join(&[&r, &s, &t], &order).expect("join runs").len()))
        });
        group.bench_with_input(
            BenchmarkId::new("generic_levelwise", rows),
            &rows,
            |b, _| {
                b.iter(|| {
                    let (out, _) = generic_join(&[&r, &s, &t], &order).expect("join runs");
                    black_box(out.len())
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("hash_binary", rows), &rows, |b, _| {
            b.iter(|| {
                let (out, _) = multiway_hash_join(&[&r, &s, &t]).expect("join runs");
                black_box(out.len())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_trie_build,
    bench_leapfrog_intersect,
    bench_sorted_seek,
    bench_probe_kernels,
    bench_triangle
);
criterion_main!(benches);
