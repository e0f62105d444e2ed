//! XJoin — the paper's Algorithm 1: a worst-case optimal join over
//! relational tables and XML twigs *as a whole*.
//!
//! ```text
//! S ← Sr ∪ transform(Sx)                  // atoms: tables + twig path relations
//! R ← ∅ ; A ← ∅
//! foreach p ∈ PA:
//!     E ← common values of p across S     // per-tuple leapfrog intersection
//!     filter E by relations between p and A   // implicit: candidates come
//!                                             // from trie nodes reached by A
//!     expand R by E
//!     A ← A ∪ {p}
//! filter R by validating structure of Sx  // final twig-structure check
//! ```
//!
//! Every intermediate `R` is the exact join of the atoms projected onto the
//! bound prefix, so its size obeys the AGM bound of the prefix hypergraph —
//! the paper's Lemma 3.5 (checked empirically by the test-suite and the
//! experiments harness).
//!
//! Two optional filters implement the paper's stated on-going work
//! ("filtering infeasible intermediate results and partially validating the
//! twig structure during the joining"):
//!
//! * `ad_filter` — prunes candidates violating a cut A-D edge's value pairs
//!   as soon as both endpoints are bound;
//! * `partial_validation` — runs the (memoised) structure check on bound
//!   prefixes instead of only at the end.
//!
//! The expansion loop itself is [`relational::generic::levelwise_join`],
//! which [`crate::EngineKind::Generic`] runs unfiltered; XJoin hands it the
//! two filters as its per-candidate hook, and both engines finish with the
//! same structure validation and projection (see [`crate::exec`]).

use crate::atoms::{collect_atoms, Atoms};
use crate::error::Result;
use crate::exec::{execute, execute_with_plan, EngineKind, ExecOptions, QueryOutput};
use crate::order::OrderStrategy;
use crate::query::{DataContext, MultiModelQuery};
use crate::validate::TwigValidator;
use relational::generic::levelwise_join;
use relational::{Attr, JoinPlan, JoinStats, Relation, ValueId, ValueRange};
use std::collections::HashSet;
use xmldb::transform::{ad_edge_relation, decompose};

/// Configuration of an XJoin run.
#[derive(Debug, Clone, Default)]
pub struct XJoinConfig {
    /// Variable expansion priority (the paper's `PA`).
    pub order: OrderStrategy,
    /// Validate twig structure incrementally during expansion (paper's
    /// on-going-work extension) instead of only at the end.
    pub partial_validation: bool,
    /// Prune candidates using the value pairs of cut A-D edges as soon as
    /// both endpoints are bound (paper's "filtering infeasible intermediate
    /// results").
    pub ad_filter: bool,
}

/// One A-D edge filter: order positions of the endpoints plus the legal
/// value pairs.
pub(crate) type AdCheck = (usize, usize, HashSet<(ValueId, ValueId)>);

impl XJoinConfig {
    /// The [`ExecOptions`] running [`EngineKind::XJoin`] under this
    /// configuration.
    fn options(&self) -> ExecOptions {
        ExecOptions {
            engine: EngineKind::XJoin,
            order: self.order.clone(),
            partial_validation: self.partial_validation,
            ad_filter: self.ad_filter,
            ..ExecOptions::default()
        }
    }
}

/// Runs XJoin on a multi-model query: lowers the query to atoms, builds a
/// plan (constructing fresh tries), and executes it. `stats.elapsed` covers
/// the whole run — lowering, trie construction, and execution — matching
/// what [`crate::baseline::baseline`] times. Shorthand for
/// [`crate::execute`] on [`EngineKind::XJoin`] with `cfg`'s order and
/// filters.
pub fn xjoin(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    cfg: &XJoinConfig,
) -> Result<QueryOutput> {
    execute(ctx, query, &cfg.options())
}

/// Executes XJoin over an already-assembled [`JoinPlan`] (whose tries may
/// come from a shared cache — see the `xjoin-store` crate; delta-run
/// overlays are unioned lazily). The plan's order must cover the query's
/// variables; `atom_sizes` / `first_path_atom` describe the plan's atoms as
/// [`Atoms::sizes`] / [`Atoms::first_path_atom`] would. `stats.elapsed`
/// covers execution over the given plan only — trie construction is the
/// caller's (typically a cache's) concern. Shorthand for
/// [`crate::execute_with_plan`] on [`EngineKind::XJoin`].
pub fn xjoin_with_plan(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    cfg: &XJoinConfig,
    plan: &JoinPlan,
    atom_sizes: Vec<(String, usize)>,
    first_path_atom: usize,
) -> Result<QueryOutput> {
    execute_with_plan(
        ctx,
        query,
        &cfg.options(),
        plan,
        atom_sizes,
        first_path_atom,
    )
}

/// Builds the A-D edge filters for a query under `order`: per expansion
/// level, the `(anc position, desc position, value-pair set)` checks
/// triggered at the level where the later endpoint binds. The sets are
/// immutable and depend only on the context, query, and order — the morsel
/// scheduler builds them **once** per query and shares them read-only
/// across all morsel workers (materialising each edge's value pairs is an
/// ancestor×descendant document scan, far too expensive to repeat per
/// morsel). Empty per-level vectors when `enabled` is false.
pub(crate) fn build_ad_checks(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    order: &[Attr],
    enabled: bool,
) -> Vec<Vec<AdCheck>> {
    let mut ad_checks: Vec<Vec<AdCheck>> = vec![Vec::new(); order.len()];
    if enabled {
        for twig in &query.twigs {
            let dec = decompose(twig);
            for &edge in &dec.ad_edges {
                let va = &twig.node(edge.0).var;
                let vd = &twig.node(edge.1).var;
                let pa = order
                    .iter()
                    .position(|o| o == va)
                    .expect("order covers vars");
                let pd = order
                    .iter()
                    .position(|o| o == vd)
                    .expect("order covers vars");
                let rel = ad_edge_relation(ctx.doc, ctx.index, twig, edge);
                let set: HashSet<(ValueId, ValueId)> = rel.rows().map(|r| (r[0], r[1])).collect();
                ad_checks[pa.max(pd)].push((pa, pd, set));
            }
        }
    }
    ad_checks
}

/// One morsel of the level-wise expansion under XJoin's candidate filters:
/// the shared A-D checks (see [`build_ad_checks`]) and, with
/// `partial_validation`, the structure check of every bound prefix. The
/// per-twig validators are constructed per call — they carry mutable
/// memoisation and cannot be shared across threads. With no filter in
/// force this is the plain generic expansion.
pub(crate) fn expand_filtered(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    plan: &JoinPlan,
    root: &ValueRange,
    ad_checks: &[Vec<AdCheck>],
    partial_validation: bool,
) -> Result<(Relation, JoinStats)> {
    let mut validators: Vec<TwigValidator<'_>> = if partial_validation {
        query
            .twigs
            .iter()
            .map(|t| TwigValidator::new(ctx.doc, ctx.index, t, plan.order()))
            .collect::<Result<_>>()?
    } else {
        Vec::new()
    };
    if validators.is_empty() && ad_checks.iter().all(Vec::is_empty) {
        return Ok(levelwise_join(plan, root, None));
    }
    let mut cand: Vec<ValueId> = Vec::with_capacity(plan.order().len());
    let mut keep = |d: usize, prefix: &[ValueId], v: ValueId| {
        // "Filter E by satisfying relation between p and A": the cut A-D
        // edges…
        for (pa, pd, set) in &ad_checks[d] {
            let va = if *pa == d { v } else { prefix[*pa] };
            let vd = if *pd == d { v } else { prefix[*pd] };
            if !set.contains(&(va, vd)) {
                return false;
            }
        }
        // …and (optionally) partial structure validation.
        if !validators.is_empty() {
            cand.clear();
            cand.extend_from_slice(prefix);
            cand.push(v);
            for val in validators.iter_mut() {
                if val.involves_position(d) && !val.check_prefix(&cand, d + 1) {
                    return false;
                }
            }
        }
        true
    };
    Ok(levelwise_join(plan, root, Some(&mut keep)))
}

/// Re-exported helper: lowers a query to its atom set without running the
/// join (the experiments harness uses this to compute bounds).
pub fn lower<'a>(ctx: &DataContext<'a>, query: &MultiModelQuery) -> Result<Atoms<'a>> {
    collect_atoms(ctx, query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{Database, Schema, Value};
    use xmldb::{TagIndex, XmlDocument};

    /// Figure 1 of the paper: orders table ⋈ invoice twig.
    fn bookstore() -> (Database, XmlDocument) {
        let mut db = Database::new();
        db.load(
            "R",
            Schema::of(&["orderID", "userID"]),
            vec![
                vec![Value::Int(10963), Value::str("jack")],
                vec![Value::Int(20134), Value::str("tom")],
                vec![Value::Int(35768), Value::str("bob")],
            ],
        )
        .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("invoices");
        b.begin("orderLine");
        b.leaf("orderID", 10963i64);
        b.leaf("ISBN", "978-3-16-1");
        b.leaf("price", 30i64);
        b.leaf("discount", "0.1");
        b.end();
        b.begin("orderLine");
        b.leaf("orderID", 20134i64);
        b.leaf("ISBN", "634-3-12-2");
        b.leaf("price", 20i64);
        b.leaf("discount", "0.3");
        b.end();
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        (db, doc)
    }

    #[test]
    fn figure_1_query_returns_expected_rows() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//invoices/orderLine[/orderID][/ISBN][/price]"])
            .unwrap()
            .with_output(&["userID", "ISBN", "price"]);
        let out = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        assert_eq!(out.results.len(), 2);
        let decoded = db.decode(&out.results);
        assert!(decoded.contains(&vec![
            Value::str("jack"),
            Value::str("978-3-16-1"),
            Value::Int(30)
        ]));
        assert!(decoded.contains(&vec![
            Value::str("tom"),
            Value::str("634-3-12-2"),
            Value::Int(20)
        ]));
    }

    #[test]
    fn pure_relational_query_works() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &[]).unwrap();
        let out = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        assert_eq!(out.results.len(), 3);
    }

    #[test]
    fn pure_twig_query_works() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new::<&str>(&[], &["//orderLine/price"]).unwrap();
        let out = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        assert_eq!(out.results.len(), 2); // ("", 30), ("", 20)
    }

    #[test]
    fn empty_query_is_an_error() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new::<&str>(&[], &[]).unwrap();
        assert!(xjoin(&ctx, &q, &XJoinConfig::default()).is_err());
    }

    #[test]
    fn validation_rejects_cross_node_combinations() {
        // Two orderLines with the same price but different ISBNs: the
        // value-level path join alone would fabricate (ISBN_1, discount_2)
        // pairs; validation must kill them.
        let mut db = Database::new();
        db.load("Dummy", Schema::of(&["price"]), vec![vec![Value::Int(30)]])
            .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("invoices");
        b.begin("orderLine");
        b.leaf("ISBN", "X");
        b.leaf("price", 30i64);
        b.end();
        b.begin("orderLine");
        b.leaf("ISBN", "Y");
        b.leaf("price", 30i64);
        b.end();
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        // Twig binds the *same* orderLine for ISBN and price; with output
        // (ISBN, price) there are exactly 2 valid combinations, not 2x2.
        let q = MultiModelQuery::new(&["Dummy"], &["//orderLine[/ISBN][/price]"])
            .unwrap()
            .with_output(&["ISBN", "price"]);
        let out = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        assert_eq!(out.results.len(), 2);
    }

    #[test]
    fn partial_validation_gives_same_results() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//invoices/orderLine[/orderID][/ISBN][/price]"])
            .unwrap();
        let base = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        let cfg = XJoinConfig {
            partial_validation: true,
            ad_filter: true,
            ..Default::default()
        };
        let opt = xjoin(&ctx, &q, &cfg).unwrap();
        assert!(base.results.set_eq(&opt.results));
        // Filtering can only shrink intermediates.
        assert!(opt.stats.max_intermediate() <= base.stats.max_intermediate());
    }

    #[test]
    fn ad_edges_are_enforced_by_validation() {
        // Twig //invoices//price with an A-D edge; prices exist under
        // orderLines which are under invoices -> both match; but a price
        // outside invoices must not.
        let mut db = Database::new();
        db.load(
            "Dummy",
            Schema::of(&["price"]),
            vec![vec![Value::Int(30)], vec![Value::Int(99)]],
        )
        .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("root");
        b.begin("invoices");
        b.begin("orderLine");
        b.leaf("price", 30i64);
        b.end();
        b.end();
        b.leaf("price", 99i64); // outside invoices
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["Dummy"], &["//invoices//price"])
            .unwrap()
            .with_output(&["price"]);
        for cfg in [
            XJoinConfig::default(),
            XJoinConfig {
                ad_filter: true,
                ..Default::default()
            },
            XJoinConfig {
                partial_validation: true,
                ..Default::default()
            },
        ] {
            let out = xjoin(&ctx, &q, &cfg).unwrap();
            assert_eq!(out.results.len(), 1, "cfg {cfg:?}");
            let decoded = db.decode(&out.results);
            assert_eq!(decoded[0][0], Value::Int(30));
        }
    }

    #[test]
    fn stats_track_every_stage() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//orderLine/orderID"]).unwrap();
        let out = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        // Stages: materialise path, 4 vars, validate.
        let labels: Vec<&str> = out.stats.stages.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.iter().any(|l| l.starts_with("materialise")));
        assert!(labels.iter().any(|l| l.starts_with("expand")));
        assert!(labels.last().unwrap().starts_with("validate"));
        assert_eq!(out.stats.output_rows, out.results.len());
    }
}
