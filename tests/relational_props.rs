//! Property-based tests of the relational substrate: tries, leapfrog, the
//! equivalence of all three relational join engines against a naive
//! reference, and the level-wise driver against the depth-first walk on
//! solid and delta-layered plans.

use proptest::prelude::*;
use relational::generic::{generic_join, levelwise_join, naive_join};
use relational::hashjoin::multiway_hash_join;
use relational::leapfrog::{gallop, intersect};
use relational::lftj::lftj_join;
use relational::{Attr, JoinPlan, LftjWalk, Relation, Schema, Trie, ValueId, ValueRange};
use std::collections::BTreeSet;
use std::sync::Arc;
use xjoin_core::partition_root;

/// Every order of the variables `a`, `b`, `c`.
const ORDERS: [[&str; 3]; 6] = [
    ["a", "b", "c"],
    ["a", "c", "b"],
    ["b", "a", "c"],
    ["b", "c", "a"],
    ["c", "a", "b"],
    ["c", "b", "a"],
];

/// The triangle `R(a,b) ⋈ S(b,c) ⋈ T(a,c)` from run-tagged rows: returns
/// the plan and each atom's full (union) relation. With `runs == 0` the
/// plan is solid; otherwise every atom is a base trie plus `runs` delta
/// runs, row `(x, y, tag)` landing in run `tag % (runs + 1)` (0 = base).
fn triangle_plan(
    atoms: [&[(u32, u32, usize)]; 3],
    runs: usize,
    order: &[Attr],
) -> (JoinPlan, Vec<Relation>) {
    let mut unions = Vec::new();
    let mut bases = Vec::new();
    let mut layers = Vec::new();
    for (rows, names) in atoms.into_iter().zip([["a", "b"], ["b", "c"], ["a", "c"]]) {
        let schema = Schema::of(&names);
        let atom_order = schema.restrict_order(order).unwrap();
        let mut union = Relation::new(schema.clone());
        let mut parts = vec![Relation::new(schema); runs + 1];
        for &(x, y, tag) in rows {
            let row = [ValueId(x), ValueId(y)];
            union.push(&row).unwrap();
            parts[tag % (runs + 1)].push(&row).unwrap();
        }
        union.sort_dedup();
        unions.push(union);
        let mut tries = parts
            .iter()
            .map(|p| Arc::new(Trie::build(p, &atom_order).unwrap()));
        bases.push(tries.next().unwrap());
        layers.push(tries.collect());
    }
    let plan = if runs == 0 {
        JoinPlan::new(&unions.iter().collect::<Vec<_>>(), order)
    } else {
        JoinPlan::from_shared_layered(bases, layers, order)
    };
    (plan.unwrap(), unions)
}

fn rel_from(rows: &[(u32, u32)], a: &str, b: &str) -> Relation {
    let mut r = Relation::new(Schema::of(&[a, b]));
    for &(x, y) in rows {
        r.push(&[ValueId(x), ValueId(y)]).unwrap();
    }
    r
}

proptest! {
    // Full case count natively; reduced under Miri, which interprets every
    // join at ~1000x native cost (the CI miri job runs this suite).
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 64 }))]

    #[test]
    fn trie_round_trips_any_relation(
        rows in prop::collection::vec((0u32..12, 0u32..12), 0..60)
    ) {
        let rel = rel_from(&rows, "a", "b");
        let trie = Trie::from_relation(&rel);
        let mut expect = rel.clone();
        expect.sort_dedup();
        prop_assert_eq!(trie.to_relation(), expect);
    }

    #[test]
    fn trie_respects_any_column_order(
        rows in prop::collection::vec((0u32..12, 0u32..12), 0..60),
        flip in any::<bool>()
    ) {
        let rel = rel_from(&rows, "a", "b");
        let order: Vec<Attr> = if flip {
            vec!["b".into(), "a".into()]
        } else {
            vec!["a".into(), "b".into()]
        };
        let trie = Trie::build(&rel, &order).unwrap();
        let expect = rel.project(&order).unwrap();
        prop_assert!(trie.to_relation().set_eq(&expect));
        prop_assert_eq!(trie.num_tuples(), expect.len());
    }

    #[test]
    fn leapfrog_equals_set_intersection(
        a in prop::collection::btree_set(0u32..200, 0..80),
        b in prop::collection::btree_set(0u32..200, 0..80),
        c in prop::collection::btree_set(0u32..200, 0..80),
    ) {
        let to_ids = |s: &BTreeSet<u32>| s.iter().map(|&x| ValueId(x)).collect::<Vec<_>>();
        let (av, bv, cv) = (to_ids(&a), to_ids(&b), to_ids(&c));
        let got = intersect(&[&av, &bv, &cv]);
        let expect: Vec<ValueId> = a
            .intersection(&b)
            .copied()
            .collect::<BTreeSet<u32>>()
            .intersection(&c)
            .map(|&x| ValueId(x))
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn all_engines_agree_on_triangle_queries(
        r_rows in prop::collection::vec((0u32..6, 0u32..6), 0..25),
        s_rows in prop::collection::vec((0u32..6, 0u32..6), 0..25),
        t_rows in prop::collection::vec((0u32..6, 0u32..6), 0..25),
    ) {
        let r = rel_from(&r_rows, "a", "b");
        let s = rel_from(&s_rows, "b", "c");
        let t = rel_from(&t_rows, "a", "c");
        let order: Vec<Attr> = vec!["a".into(), "b".into(), "c".into()];
        let naive = naive_join(&[&r, &s, &t], &order).unwrap();
        let (generic, _) = generic_join(&[&r, &s, &t], &order).unwrap();
        prop_assert!(generic.set_eq(&naive), "generic != naive");
        let lftj = lftj_join(&[&r, &s, &t], &order).unwrap();
        prop_assert!(lftj.set_eq(&naive), "lftj != naive");
        if !r.is_empty() || !s.is_empty() || !t.is_empty() {
            let mut rd = r.clone(); rd.sort_dedup();
            let mut sd = s.clone(); sd.sort_dedup();
            let mut td = t.clone(); td.sort_dedup();
            let (hash, _) = multiway_hash_join(&[&rd, &sd, &td]).unwrap();
            let hash = hash.project(&order).unwrap();
            prop_assert!(hash.set_eq(&naive), "hash != naive");
        }
    }

    #[test]
    fn generic_join_agrees_for_any_variable_order(
        r_rows in prop::collection::vec((0u32..5, 0u32..5), 0..20),
        s_rows in prop::collection::vec((0u32..5, 0u32..5), 0..20),
        perm in 0usize..6,
    ) {
        let r = rel_from(&r_rows, "a", "b");
        let s = rel_from(&s_rows, "b", "c");
        let orders: [[&str; 3]; 6] = [
            ["a", "b", "c"], ["a", "c", "b"], ["b", "a", "c"],
            ["b", "c", "a"], ["c", "a", "b"], ["c", "b", "a"],
        ];
        let base: Vec<Attr> = orders[0].iter().map(|&n| Attr::new(n)).collect();
        let chosen: Vec<Attr> = orders[perm].iter().map(|&n| Attr::new(n)).collect();
        let (out_base, _) = generic_join(&[&r, &s], &base).unwrap();
        let (out_perm, _) = generic_join(&[&r, &s], &chosen).unwrap();
        prop_assert!(out_perm.project(&base).unwrap().set_eq(&out_base));
    }

    #[test]
    fn levelwise_driver_matches_walk_naive_and_morsels(
        r_rows in prop::collection::vec((0u32..7, 0u32..7, 0usize..4), 0..30),
        s_rows in prop::collection::vec((0u32..7, 0u32..7, 0usize..4), 0..30),
        t_rows in prop::collection::vec((0u32..7, 0u32..7, 0usize..4), 0..30),
        runs in 0usize..4,
        perm in 0usize..6,
        morsels in 2usize..6,
    ) {
        let order: Vec<Attr> = ORDERS[perm].iter().map(|&n| Attr::new(n)).collect();
        let (plan, unions) = triangle_plan([&r_rows, &s_rows, &t_rows], runs, &order);
        prop_assert_eq!(plan.layers().iter().map(Vec::len).sum::<usize>(), 3 * runs);
        let (got, stats) = levelwise_join(&plan, &ValueRange::all(), None);

        // Same rows, in the same (lexicographic) order, as the walk and the
        // naive reference.
        let mut walk = LftjWalk::new(plan.clone()).with_probe_counters();
        let mut walked = Relation::new(got.schema().clone());
        while let Some(t) = walk.next_tuple() {
            walked.push(t).unwrap();
        }
        prop_assert_eq!(&got, &walked, "driver vs walk");
        let refs: Vec<&Relation> = unions.iter().collect();
        prop_assert_eq!(&got, &naive_join(&refs, &order).unwrap(), "driver vs naive");

        // Each depth's stage count is the walk's binding count there.
        let counts: Vec<u64> = stats.stages.iter().map(|s| s.tuples as u64).collect();
        let bindings: Vec<u64> = walk.probe_stats().iter().map(|p| p.bindings).collect();
        prop_assert_eq!(counts, bindings);

        // A disjoint morsel cover concatenates to the same output and sums
        // to the same stage counts.
        let mut glued = Relation::new(got.schema().clone());
        let mut summed = vec![0usize; stats.stages.len()];
        for range in partition_root(&plan, morsels) {
            let (part, part_stats) = levelwise_join(&plan, &range, None);
            for row in part.rows() {
                glued.push(row).unwrap();
            }
            for (acc, stage) in summed.iter_mut().zip(&part_stats.stages) {
                *acc += stage.tuples;
            }
        }
        prop_assert_eq!(&glued, &got, "morsel concatenation");
        let full: Vec<usize> = stats.stages.iter().map(|s| s.tuples).collect();
        prop_assert_eq!(summed, full);
    }

    #[test]
    fn gallop_matches_naive_linear_scan(
        set in prop::collection::btree_set(0u32..300, 0..80),
        target in 0u32..320,
        lo in 0usize..100,
    ) {
        // `lo` ranges past the slice length (sets hold at most 80 values),
        // covering the empty-slice and `lo >= len` contract: gallop returns
        // `lo` unchanged there. Targets above 300 exercise the all-smaller
        // case (every element < target -> len).
        let slice: Vec<ValueId> = set.iter().map(|&x| ValueId(x)).collect();
        let got = gallop(&slice, lo, ValueId(target));
        let expect = if lo >= slice.len() {
            lo
        } else {
            (lo..slice.len())
                .find(|&i| slice[i] >= ValueId(target))
                .unwrap_or(slice.len())
        };
        prop_assert_eq!(got, expect, "slice len {}, lo {}, target {}", slice.len(), lo, target);
        if got < slice.len() && lo < slice.len() {
            prop_assert!(slice[got] >= ValueId(target));
        }
    }

    #[test]
    fn trie_build_ignores_duplicate_tuples(
        rows in prop::collection::vec((0u32..5, 0u32..5, 0u32..5), 0..30),
        perm in 0usize..6,
        dup_factor in 2usize..4,
    ) {
        // Building from a relation with duplicated tuples equals building
        // from its deduplicated form, for any attribute order.
        let orders: [[&str; 3]; 6] = [
            ["a", "b", "c"], ["a", "c", "b"], ["b", "a", "c"],
            ["b", "c", "a"], ["c", "a", "b"], ["c", "b", "a"],
        ];
        let order: Vec<Attr> = orders[perm].iter().map(|&n| Attr::new(n)).collect();
        let mut with_dups = Relation::new(Schema::of(&["a", "b", "c"]));
        for _ in 0..dup_factor {
            for &(x, y, z) in &rows {
                with_dups.push(&[ValueId(x), ValueId(y), ValueId(z)]).unwrap();
            }
        }
        let mut deduped = with_dups.clone();
        deduped.sort_dedup();
        let t_dups = Trie::build(&with_dups, &order).unwrap();
        let t_dedup = Trie::build(&deduped, &order).unwrap();
        prop_assert_eq!(t_dups.num_tuples(), t_dedup.num_tuples());
        prop_assert_eq!(t_dups.node_count(), t_dedup.node_count());
        prop_assert_eq!(t_dups.to_relation(), t_dedup.to_relation());
    }

    #[test]
    fn projection_is_idempotent(
        rows in prop::collection::vec((0u32..8, 0u32..8), 0..40)
    ) {
        let rel = rel_from(&rows, "a", "b");
        let p1 = rel.project(&["a".into()]).unwrap();
        let p2 = p1.project(&["a".into()]).unwrap();
        prop_assert_eq!(p1, p2);
    }

    #[test]
    fn sort_dedup_is_canonical(
        rows in prop::collection::vec((0u32..8, 0u32..8), 0..40)
    ) {
        let mut r1 = rel_from(&rows, "a", "b");
        let mut rev: Vec<(u32, u32)> = rows.clone();
        rev.reverse();
        let mut r2 = rel_from(&rev, "a", "b");
        r1.sort_dedup();
        r2.sort_dedup();
        prop_assert_eq!(r1, r2);
    }
}

#[test]
fn lftj_streams_in_sorted_order_on_random_data() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(3);
    let rows: Vec<(u32, u32)> = (0..200)
        .map(|_| (rng.gen_range(0..20), rng.gen_range(0..20)))
        .collect();
    let r = rel_from(&rows, "a", "b");
    let order: Vec<Attr> = vec!["a".into(), "b".into()];
    let plan = JoinPlan::new(&[&r], &order).unwrap();
    let mut walk = LftjWalk::new(plan);
    let mut prev: Option<Vec<ValueId>> = None;
    while let Some(t) = walk.next_tuple() {
        if let Some(p) = &prev {
            assert!(p.as_slice() < t, "not sorted: {p:?} !< {t:?}");
        }
        prev = Some(t.to_vec());
    }
}
