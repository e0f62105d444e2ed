//! Pull-based result streaming: the [`Rows`] iterator behind the unified
//! execution API.
//!
//! The paper's Algorithm 1 is breadth-first (it materialises `R` after every
//! attribute expansion — which is what makes its intermediate sizes
//! measurable and Lemma 3.5 meaningful). For consumers that only need the
//! *results*, the same atom set can be walked depth-first, LFTJ-style: the
//! worst-case optimality of the total work is unchanged, and memory drops to
//! the recursion depth. [`Rows`] wraps that walk (an owned
//! [`relational::LftjWalk`]) behind a plain [`Iterator`]:
//!
//! * twig-structure validation runs per pulled tuple through the same
//!   memoised [`TwigValidator`] as the level-wise engine;
//! * the query's output projection is applied per row (with on-the-fly
//!   de-duplication when the projection drops variables, preserving the
//!   materialising engines' set semantics);
//! * a `limit` is pushed into the walk: after `k` rows the iterator fuses
//!   and the remaining search space is never visited —
//!   [`Rows::stats`] exposes the binding counter that proves it.
//!
//! Engines that must materialise anyway (level-wise XJoin, the baseline,
//! hash joins) return a buffered [`Rows`] over their finished result, so
//! every engine presents the same iterator type.

use crate::error::{CoreError, Result};
use crate::exec::{validate_output, ExecOptions};
use crate::morsel::ParallelTuples;
use crate::query::{DataContext, MultiModelQuery};
use crate::validate::TwigValidator;
use relational::{Attr, JoinPlan, LftjWalk, Relation, Schema, ValueId};
use std::collections::HashSet;

/// Counters of a [`Rows`] iteration (snapshot via [`Rows::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowsStats {
    /// Rows handed out so far (post validation / projection / limit).
    pub emitted: usize,
    /// Work the producer actually did: variable bindings made by the trie
    /// walk for streamed rows, or the full buffered size for materialised
    /// rows. A `limit` strictly shrinks this for streamed rows.
    ///
    /// **Aggregation under parallel execution is the sum**: for a
    /// morsel-parallel iterator this is the summed binding counters of all
    /// worker walks, updated as each worker retires (or abandons) a morsel.
    /// Because morsels disjointly partition the search space by first
    /// binding, a fully drained parallel iterator reports exactly the
    /// serial walk's count; under a `limit`, workers poll the consumer's
    /// emitted count between tuples, so the counter may include the small
    /// overshoot bound by the in-flight channel capacity.
    pub visited: u64,
}

enum Inner<'a> {
    /// A finished result relation (from a materialising engine), iterated
    /// in place — no per-row copies until a row is actually yielded.
    Buffered { rel: Relation, next: usize },
    /// A live depth-first trie walk with per-tuple validation.
    Walk {
        walk: Box<LftjWalk>,
        validators: Vec<TwigValidator<'a>>,
    },
    /// Morsel-parallel walks feeding a channel (see [`crate::morsel`]);
    /// validation/projection/dedup/limit stay on this consumer side.
    Parallel {
        source: ParallelTuples,
        validators: Vec<TwigValidator<'a>>,
    },
}

/// A pull-based iterator over a query's result rows — the one streaming
/// surface of the unified execution API (replacing the historical
/// callback-based `xjoin_stream`).
///
/// Yields one `Vec<ValueId>` per result row, laid out per [`Rows::schema`].
/// Construct via [`crate::exec::stream`], [`crate::exec::Query::rows`], or
/// the plan-level [`stream_with_plan`].
pub struct Rows<'a> {
    schema: Schema,
    order: Vec<Attr>,
    /// Positions of the output attributes within `order` (`None` =
    /// identity).
    projection: Option<Vec<usize>>,
    /// Set semantics for lossy projections: rows already emitted.
    seen: Option<HashSet<Vec<ValueId>>>,
    limit: Option<usize>,
    emitted: usize,
    inner: Inner<'a>,
}

impl<'a> Rows<'a> {
    /// Streams the results of `query` by walking `plan` depth-first,
    /// validating twig structure per tuple. `limit` is pushed into the
    /// walk. The output projection (if any) must already be validated
    /// against the plan's order — [`Rows::from_walk`] re-checks it.
    pub(crate) fn from_walk(
        ctx: &DataContext<'a>,
        query: &'a MultiModelQuery,
        plan: JoinPlan,
        limit: Option<usize>,
    ) -> Result<Rows<'a>> {
        let (order, validators, schema, projection, seen) = walk_setup(ctx, query, &plan)?;
        Ok(Rows {
            schema,
            order,
            projection,
            seen,
            limit,
            emitted: 0,
            inner: Inner::Walk {
                walk: Box::new(LftjWalk::new(plan)),
                validators,
            },
        })
    }

    /// Streams the results of `query` by walking `plan` morsel-parallel on
    /// `workers` threads (see [`crate::morsel`]). Per-tuple validation, the
    /// output projection, lossy-projection dedup, and the `limit` all run on
    /// the consumer side, exactly as in [`Rows::from_walk`]; workers observe
    /// the emitted-row count through a shared atomic so a `limit` still cuts
    /// the walks short. With `ordered`, tuples arrive in the serial walk's
    /// lexicographic order (morsels concatenated in domain order); otherwise
    /// in arrival order.
    pub(crate) fn from_parallel(
        ctx: &DataContext<'a>,
        query: &'a MultiModelQuery,
        plan: JoinPlan,
        limit: Option<usize>,
        workers: usize,
        ordered: bool,
    ) -> Result<Rows<'a>> {
        let (order, validators, schema, projection, seen) = walk_setup(ctx, query, &plan)?;
        Ok(Rows {
            schema,
            order,
            projection,
            seen,
            limit,
            emitted: 0,
            inner: Inner::Parallel {
                source: ParallelTuples::spawn(&plan, limit, workers, ordered),
                validators,
            },
        })
    }

    /// Wraps a finished result relation (already validated, projected, and
    /// deduplicated by its engine) in the common iterator type. `order` is
    /// the engine's unprojected tuple layout, kept for [`Rows::order`].
    pub(crate) fn from_relation(rel: Relation, order: Vec<Attr>) -> Rows<'static> {
        Rows {
            schema: rel.schema().clone(),
            order,
            projection: None,
            seen: None,
            limit: None,
            emitted: 0,
            inner: Inner::Buffered { rel, next: 0 },
        }
    }

    /// The schema of the yielded rows (output attributes, or the full
    /// variable order when the query has no projection).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The engine's global variable order (the unprojected tuple layout).
    pub fn order(&self) -> &[Attr] {
        &self.order
    }

    /// Current iteration counters. For walk-backed rows, `visited` is the
    /// number of variable bindings the trie walk has made — compare a
    /// limited run against a full one to observe `LIMIT` pushdown. For
    /// morsel-parallel rows it is the **sum** of all worker walks' binding
    /// counters (see [`RowsStats::visited`] for the exact semantics).
    pub fn stats(&self) -> RowsStats {
        let visited = match &self.inner {
            Inner::Buffered { rel, .. } => rel.len() as u64,
            Inner::Walk { walk, .. } => walk.bindings(),
            Inner::Parallel { source, .. } => source.visited(),
        };
        RowsStats {
            emitted: self.emitted,
            visited,
        }
    }

    /// Drains the remaining rows into a relation with [`Rows::schema`].
    pub fn into_relation(mut self) -> Relation {
        let mut rel = Relation::new(self.schema.clone());
        for row in self.by_ref() {
            rel.push(&row).expect("schema arity matches");
        }
        rel
    }
}

impl Iterator for Rows<'_> {
    type Item = Vec<ValueId>;

    fn next(&mut self) -> Option<Vec<ValueId>> {
        if self.limit.is_some_and(|k| self.emitted >= k) {
            return None;
        }
        loop {
            match &mut self.inner {
                Inner::Buffered { rel, next } => {
                    if *next >= rel.len() {
                        return None;
                    }
                    // `row()` panics on nullary relations; those hold only
                    // empty tuples, yielded directly.
                    let row = if rel.arity() == 0 {
                        Vec::new()
                    } else {
                        rel.row(*next).to_vec()
                    };
                    *next += 1;
                    self.emitted += 1;
                    return Some(row);
                }
                Inner::Walk { walk, validators } => {
                    let tuple = walk.next_tuple()?;
                    if !validators.iter_mut().all(|v| v.check(tuple)) {
                        continue;
                    }
                    let row: Vec<ValueId> = match &self.projection {
                        Some(positions) => positions.iter().map(|&p| tuple[p]).collect(),
                        None => tuple.to_vec(),
                    };
                    if let Some(seen) = &mut self.seen {
                        if !seen.insert(row.clone()) {
                            continue;
                        }
                    }
                    self.emitted += 1;
                    return Some(row);
                }
                Inner::Parallel { source, validators } => {
                    let tuple = source.next_tuple()?;
                    if !validators.iter_mut().all(|v| v.check(&tuple)) {
                        continue;
                    }
                    let row: Vec<ValueId> = match &self.projection {
                        Some(positions) => positions.iter().map(|&p| tuple[p]).collect(),
                        None => tuple,
                    };
                    if let Some(seen) = &mut self.seen {
                        if !seen.insert(row.clone()) {
                            continue;
                        }
                    }
                    self.emitted += 1;
                    // Publish the emitted count so workers can cut off once
                    // the limit is reached.
                    source.note_emitted(self.emitted as u64);
                    return Some(row);
                }
            }
        }
    }
}

impl std::fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rows")
            .field("schema", &self.schema)
            .field("emitted", &self.emitted)
            .field("limit", &self.limit)
            .field(
                "mode",
                &match self.inner {
                    Inner::Buffered { .. } => "buffered",
                    Inner::Walk { .. } => "walk",
                    Inner::Parallel { .. } => "parallel",
                },
            )
            .finish()
    }
}

/// The shared front half of the walk-backed constructors: validate the
/// output projection, build per-twig validators, and derive the yielded
/// schema, projection positions, and (for lossy projections) the dedup set.
type WalkSetup<'a> = (
    Vec<Attr>,
    Vec<TwigValidator<'a>>,
    Schema,
    Option<Vec<usize>>,
    Option<HashSet<Vec<ValueId>>>,
);

fn walk_setup<'a>(
    ctx: &DataContext<'a>,
    query: &'a MultiModelQuery,
    plan: &JoinPlan,
) -> Result<WalkSetup<'a>> {
    let order = plan.order().to_vec();
    validate_output(query, &order)?;
    let validators: Vec<TwigValidator<'a>> = query
        .twigs
        .iter()
        .map(|t| TwigValidator::new(ctx.doc, ctx.index, t, &order))
        .collect::<Result<_>>()?;
    let (schema, projection, seen) = match &query.output {
        None => (
            Schema::new(order.iter().cloned()).expect("order vars distinct"),
            None,
            None,
        ),
        Some(out) => {
            let positions: Vec<usize> = out
                .iter()
                .map(|a| order.iter().position(|o| o == a).expect("validated above"))
                .collect();
            // Dropping variables can collapse distinct full tuples onto
            // one projected row; dedup to keep set semantics. A pure
            // reorder is injective and needs no bookkeeping.
            let lossy = order.iter().any(|o| !out.contains(o));
            (
                Schema::new(out.iter().cloned()).map_err(CoreError::from)?,
                Some(positions),
                lossy.then(HashSet::new),
            )
        }
    };
    Ok((order, validators, schema, projection, seen))
}

/// Streams the query over an already-assembled plan, honouring the given
/// [`crate::ExecOptions`]: `limit` is pushed into the walk(s), and when
/// [`crate::ExecOptions::parallelism`] asks for more than one worker the
/// plan is walked morsel-parallel (see [`crate::morsel`]) — in the serial
/// walk's order unless [`crate::ExecOptions::unordered`] allows arrival
/// order. Zero-variable plans always stream serially.
pub fn stream_with_plan<'a>(
    ctx: &DataContext<'a>,
    query: &'a MultiModelQuery,
    plan: JoinPlan,
    opts: &ExecOptions,
) -> Result<Rows<'a>> {
    let workers = opts.parallelism.workers();
    if workers > 1 && !plan.var_plans().is_empty() {
        Rows::from_parallel(ctx, query, plan, opts.limit, workers, !opts.unordered)
    } else {
        Rows::from_walk(ctx, query, plan, opts.limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{xjoin, XJoinConfig};
    use crate::exec::EngineKind;
    use relational::{Database, Schema as RSchema, Value};
    use xmldb::{TagIndex, XmlDocument};

    fn setup() -> (Database, XmlDocument) {
        let mut db = Database::new();
        db.load(
            "R",
            RSchema::of(&["orderID", "userID"]),
            vec![
                vec![Value::Int(1), Value::str("jack")],
                vec![Value::Int(2), Value::str("tom")],
                vec![Value::Int(3), Value::str("bob")],
            ],
        )
        .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("lines");
        for (oid, price) in [(1i64, 30i64), (2, 20), (9, 99)] {
            b.begin("line");
            b.leaf("orderID", oid);
            b.leaf("price", price);
            b.end();
        }
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        (db, doc)
    }

    fn collect(rows: Rows<'_>) -> Relation {
        rows.into_relation()
    }

    /// The streaming engine's lazy rows over a freshly built plan.
    fn walk_rows<'a>(
        ctx: &DataContext<'a>,
        query: &'a MultiModelQuery,
        limit: Option<usize>,
    ) -> Result<Rows<'a>> {
        let opts = ExecOptions {
            engine: EngineKind::XJoinStream,
            limit,
            ..ExecOptions::default()
        };
        crate::exec::stream(ctx, query, &opts)
    }

    #[test]
    fn streaming_matches_levelwise() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//line[/orderID][/price]"]).unwrap();
        let cfg = XJoinConfig::default();
        let streamed = collect(walk_rows(&ctx, &q, None).unwrap());
        let levelwise = xjoin(&ctx, &q, &cfg).unwrap();
        assert!(streamed.set_eq(&levelwise.results));
    }

    #[test]
    fn streaming_respects_projection() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//line[/orderID][/price]"])
            .unwrap()
            .with_output(&["userID", "price"]);
        let streamed = collect(walk_rows(&ctx, &q, None).unwrap());
        let levelwise = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        assert!(streamed.set_eq(&levelwise.results));
        assert_eq!(streamed.len(), 2);
    }

    #[test]
    fn lossy_projection_deduplicates_like_the_engine() {
        // Two orders by the same user join two lines; projecting onto
        // userID alone must yield each user once (set semantics).
        let mut db = Database::new();
        db.load(
            "R",
            RSchema::of(&["orderID", "userID"]),
            vec![
                vec![Value::Int(1), Value::str("jack")],
                vec![Value::Int(2), Value::str("jack")],
            ],
        )
        .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("lines");
        for oid in [1i64, 2] {
            b.begin("line");
            b.leaf("orderID", oid);
            b.end();
        }
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//line/orderID"])
            .unwrap()
            .with_output(&["userID"]);
        let streamed = collect(walk_rows(&ctx, &q, None).unwrap());
        let levelwise = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        assert_eq!(streamed.len(), 1);
        assert!(streamed.set_eq(&levelwise.results));
    }

    #[test]
    fn streaming_validation_rejects_cross_node_tuples() {
        // Two lines with the same price but different orderIDs: streaming
        // validation must reject fabricated combinations exactly like the
        // level-wise engine.
        let mut db = Database::new();
        db.load("D", RSchema::of(&["price"]), vec![vec![Value::Int(7)]])
            .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("lines");
        for oid in [1i64, 2] {
            b.begin("line");
            b.leaf("orderID", oid);
            b.leaf("price", 7i64);
            b.end();
        }
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["D"], &["//line[/orderID][/price]"]).unwrap();
        let n = walk_rows(&ctx, &q, None).unwrap().count();
        // Valid: (line1, 1, 7) and (line2, 2, 7) — not the 2x2 cross.
        assert_eq!(n, 2);
    }

    #[test]
    fn results_stream_in_order() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//line/orderID"]).unwrap();
        let rows: Vec<Vec<ValueId>> = walk_rows(&ctx, &q, None).unwrap().collect();
        assert!(!rows.is_empty());
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(rows, sorted);
    }

    #[test]
    fn limit_fuses_and_stops_the_walk() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//line/orderID"]).unwrap();

        let mut full = walk_rows(&ctx, &q, None).unwrap();
        let total = full.by_ref().count();
        let full_visited = full.stats().visited;
        assert!(total > 1);

        let mut limited = walk_rows(&ctx, &q, Some(1)).unwrap();
        assert!(limited.next().is_some());
        assert!(limited.next().is_none(), "limited rows must fuse");
        let st = limited.stats();
        assert_eq!(st.emitted, 1);
        assert!(
            st.visited < full_visited,
            "limited visited {} !< full {}",
            st.visited,
            full_visited
        );
    }

    #[test]
    fn unknown_output_attribute_errors_before_walking() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//line/orderID"])
            .unwrap()
            .with_output(&["zz"]);
        assert!(matches!(
            walk_rows(&ctx, &q, None),
            Err(CoreError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn buffered_rows_iterate_a_finished_result() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &[]).unwrap();
        let out = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        let n = out.results.len();
        let rows = Rows::from_relation(out.results, out.order);
        assert_eq!(rows.stats().visited, n as u64);
        assert_eq!(rows.count(), n);
    }
}
