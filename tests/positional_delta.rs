//! Positional (MMQL-style) atoms under append churn: after any sequence of
//! `VersionedStore::append`s, a prepared statement whose atoms rename,
//! select on a constant, repeat a variable, or name a constant the
//! dictionary has not seen yet must return exactly what a from-scratch
//! store returns — for every plan-based engine, serial and morsel-parallel
//! (`XJOIN_TEST_THREADS`, default 4). A read right after one write must
//! resolve each written atom by one run trie plus one merge, never a full
//! rebuild; a read after more writes than the append log keeps must fall
//! back to rebuilding. Alongside: size-only pricing equals pricing over
//! materialised atoms bit for bit, and `append` equals the clone + re-sort
//! it replaced.

use bench::workloads::{bookstore, graph_instance};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relational::{Relation, Schema, Value, ValueId};
use xjoin_core::{
    collect_atoms, parse_query, query_log_bound, query_log_bound_of, DataContext, EngineKind,
    ExecOptions, MultiModelQuery, Parallelism,
};
use xjoin_store::{PreparedQuery, Snapshot, VersionedStore};
use xmldb::TagIndex;

/// A constant no row holds until the test appends it.
const UNSEEN: i64 = 4242;

/// One statement per positional shape, each over the edge relation `E`.
/// Variable names differ between statements so no two share a cached trie
/// and every execution pays for its own atoms.
const STATEMENTS: [&str; 4] = [
    // Pure renames: one relation under three variable pairs.
    "Q(a, b, c) :- E(a, b), E(b, c), E(a, c)",
    // A constant selection.
    "Q(p, q) :- E(3, p), E(p, q)",
    // A repeated variable (self-loops only arrive by append).
    "Q(u, w) :- E(u, u), E(u, w)",
    // A constant absent from the dictionary until an append interns it.
    "Q(x, y) :- E(x, y), E(y, 4242)",
];

/// Appends made without any read in between, to outrun the append log
/// (which keeps 16 batches) and force the rebuild fallback.
const GAP: std::ops::Range<usize> = 10..28;
const STEPS: usize = 34;

fn parallel_threads() -> usize {
    std::env::var("XJOIN_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &usize| n > 1)
        .unwrap_or(4)
}

/// A relation's rows as a sorted vector — the multiset signature.
fn multiset(rel: &Relation) -> Vec<Vec<ValueId>> {
    let mut rows: Vec<Vec<ValueId>> = rel.rows().map(|r| r.to_vec()).collect();
    rows.sort();
    rows
}

/// One write batch: two rows already stored, one self-loop, a few fresh
/// edges (possibly repeated within the batch), and at step 5 the unseen
/// constant.
fn batch(snap: &Snapshot, rng: &mut StdRng, step: usize) -> Vec<Vec<Value>> {
    let mut rows = snap.db().decode(snap.db().relation("E").unwrap());
    let mut out: Vec<Vec<Value>> = (0..2)
        .map(|_| rows.swap_remove(rng.gen_range(0..rows.len())))
        .collect();
    let n = rng.gen_range(0..10i64);
    out.push(vec![Value::Int(n), Value::Int(n)]);
    for _ in 0..3 {
        let (u, v) = (rng.gen_range(0..10i64), rng.gen_range(0..10i64));
        out.push(vec![Value::Int(u), Value::Int(v)]);
        out.push(vec![Value::Int(u), Value::Int(v)]);
    }
    if step == 5 {
        out.push(vec![Value::Int(1), Value::Int(UNSEEN)]);
        out.push(vec![Value::Int(UNSEEN), Value::Int(2)]);
    }
    out
}

/// The statement's rows on a store built from scratch over `snap`'s state
/// (empty trie cache, no append log).
fn from_scratch(snap: &Snapshot, query: &MultiModelQuery, opts: &ExecOptions) -> Relation {
    let fresh = VersionedStore::new(snap.db().clone(), snap.doc().clone());
    let fresh_snap = fresh.snapshot();
    PreparedQuery::prepare(&fresh_snap, query, opts.clone())
        .unwrap()
        .execute(&fresh_snap)
        .unwrap()
        .results
}

#[test]
fn positional_atoms_after_appends_match_a_from_scratch_store() {
    let queries: Vec<MultiModelQuery> =
        STATEMENTS.iter().map(|s| parse_query(s).unwrap()).collect();
    let engines: Vec<EngineKind> = EngineKind::all()
        .into_iter()
        .filter(|k| k.is_plan_based())
        .collect();
    for kind in engines {
        for par in [
            Parallelism::Serial,
            Parallelism::Threads(parallel_threads()),
        ] {
            let inst = graph_instance(10, 24, 7);
            let store = VersionedStore::new(inst.db, inst.doc);
            let opts = ExecOptions {
                engine: kind,
                parallelism: par,
                ..Default::default()
            };
            let prepared: Vec<PreparedQuery> = queries
                .iter()
                .map(|q| PreparedQuery::prepare(&store.snapshot(), q, opts.clone()).unwrap())
                .collect();
            for p in &prepared {
                p.execute(&store.snapshot()).unwrap();
            }
            let mut rng = StdRng::seed_from_u64(11);
            let mut unseen_rows = 0usize;
            for step in 0..STEPS {
                let rows = batch(&store.snapshot(), &mut rng, step);
                store.append("E", rows).unwrap();
                if GAP.contains(&step) {
                    continue;
                }
                let snap = store.snapshot();
                for ((text, q), p) in STATEMENTS.iter().zip(&queries).zip(&prepared) {
                    let builds_before = store.registry().stats().builds;
                    let out = p.execute(&snap).unwrap();
                    let ctx = format!("{kind}/{par:?} step {step} `{text}`");
                    assert_eq!(
                        multiset(&out.results),
                        multiset(&from_scratch(&snap, q, &opts)),
                        "{ctx}: delta-resolved rows diverge from a from-scratch store"
                    );
                    let atoms = q.relations.len();
                    let builds = store.registry().stats().builds - builds_before;
                    if step == GAP.end {
                        // The cached bases fell off the end of the log.
                        assert_eq!(out.stats.tries_built, atoms, "{ctx}: expected rebuilds");
                        assert_eq!(builds, atoms as u64, "{ctx}: expected rebuilds");
                    } else {
                        assert_eq!(
                            out.stats.tries_built,
                            2 * atoms,
                            "{ctx}: expected one run plus one merge per atom"
                        );
                        assert_eq!(builds, 0, "{ctx}: a written atom was fully rebuilt");
                    }
                    if text.contains("4242") {
                        unseen_rows = out.results.len();
                    }
                }
            }
            assert!(
                unseen_rows > 0,
                "{kind}/{par:?}: the appended constant never reached the selection"
            );
        }
    }
}

/// `query_log_bound_of` (sizes only) against `query_log_bound` over
/// materialised atoms: the same bits, or the same error. Returns the price.
fn assert_same_price(snap: &Snapshot, text: &str) -> Option<f64> {
    let index = TagIndex::build(snap.doc());
    let ctx = DataContext::new(snap.db(), snap.doc(), &index);
    let query = parse_query(text).unwrap();
    let sized = query_log_bound_of(&ctx, &query);
    let materialised = collect_atoms(&ctx, &query).and_then(|atoms| query_log_bound(&atoms));
    match (sized, materialised) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.to_bits(), b.to_bits(), "`{text}`: {a} vs {b}");
            Some(a)
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "`{text}`");
            None
        }
        (a, b) => panic!("`{text}`: sized {a:?} vs materialised {b:?}"),
    }
}

#[test]
fn size_only_pricing_equals_pricing_over_materialised_atoms() {
    let inst = graph_instance(10, 24, 7);
    let store = VersionedStore::new(inst.db, inst.doc);
    store
        .append("E", vec![vec![Value::Int(2), Value::Int(2)]])
        .unwrap();
    let snap = store.snapshot();
    for text in STATEMENTS {
        assert_same_price(&snap, text);
    }
    // Unseen constant: an empty atom prices at -inf.
    assert_eq!(
        assert_same_price(&snap, STATEMENTS[3]),
        Some(f64::NEG_INFINITY)
    );
    // Errors agree too: arity mismatch, no variables, unknown relation.
    for text in [
        "Q(a) :- E(a)",
        "Q(a) :- E(1, 2), E(a, b)",
        "Q(a) :- Missing(a)",
    ] {
        assert_eq!(assert_same_price(&snap, text), None, "`{text}` must fail");
    }

    // Twigs beside relational atoms with every positional shape.
    let inst = bookstore();
    let store = VersionedStore::new(inst.db, inst.doc);
    let snap = store.snapshot();
    for text in [
        "Q(userID, ISBN, price) :- R(orderID, userID), //invoices/orderLine[/orderID][/ISBN][/price]",
        "Q(who, price) :- R(orderID, who), //orderLine[/orderID][/price]",
        "Q(ISBN) :- R(orderID, \"jack\"), //orderLine[/orderID][/ISBN]",
        "Q(o) :- R(o, o), //orderLine/orderID",
        "Q(orderID) :- R(orderID, \"nobody\"), //orderLine/orderID",
        "Q(ISBN, price) :- //invoices/orderLine[/ISBN][/price]",
    ] {
        assert_same_price(&snap, text);
    }
}

/// The pre-splice append: clone the stored relation, push the batch, and
/// sort + dedup the whole of it.
fn resorted(stored: &Relation, batch: &[Vec<ValueId>]) -> Relation {
    let mut full = stored.clone();
    for row in batch {
        full.push(row).unwrap();
    }
    full.sort_dedup();
    full
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn append_equals_clone_push_and_sort_dedup(
        base in prop::collection::vec((0i64..30, 0i64..30), 0..40),
        batches in prop::collection::vec(
            prop::collection::vec((0i64..30, 0i64..30), 0..12),
            1..5,
        ),
    ) {
        let inst = graph_instance(1, 0, 0);
        let mut db = inst.db;
        db.load(
            "R",
            Schema::of(&["x", "y"]),
            base.iter().map(|&(x, y)| vec![Value::Int(x), Value::Int(y)]),
        )
        .unwrap();
        let store = VersionedStore::new(db, inst.doc);
        for rows in batches {
            let before = store.snapshot();
            let values: Vec<Vec<Value>> = rows
                .iter()
                .map(|&(x, y)| vec![Value::Int(x), Value::Int(y)])
                .collect();
            store.append("R", values.clone()).unwrap();
            let after = store.snapshot();
            // Every value is interned by now; encode the batch the same way.
            let ids: Vec<Vec<ValueId>> = values
                .iter()
                .map(|row| row.iter().map(|v| after.db().dict().lookup(v).unwrap()).collect())
                .collect();
            let expect = resorted(before.db().relation("R").unwrap(), &ids);
            let got = after.db().relation("R").unwrap();
            prop_assert!(got.is_sorted_set());
            prop_assert_eq!(got, &expect);
        }
    }
}
