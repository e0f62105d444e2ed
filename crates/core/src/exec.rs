//! The unified execution API: **one** way to build and run a multi-model
//! query on **any** join engine.
//!
//! Historically every engine had its own entry point, configuration, and
//! output type (`xjoin`, the callback-only `xjoin_stream`, `baseline` with
//! `BaselineConfig`, and the relational crate's `lftj_join` /
//! `generic_join` / `multiway_hash_join`). This module folds them behind
//! three pieces:
//!
//! * [`EngineKind`] + [`ExecOptions`] — *what* to run and *how*: the engine
//!   selector, the variable-order strategy, the optional XJoin filters, and
//!   a `limit`;
//! * [`Engine`] — the `prepare` / `execute` / `stream` contract every engine
//!   implements. `prepare` validates (unknown relations, bad orders,
//!   unknown output attributes) *before any trie is built*; `execute`
//!   materialises one [`QueryOutput`]; `stream` returns a pull-based
//!   [`Rows`] iterator (engines that cannot stream lazily materialise
//!   first — only their `Rows` wrapper differs, never the result set);
//! * [`QueryBuilder`] / [`Query`] — one construction surface for MMQL text
//!   and programmatic queries, carrying the options alongside the query.
//!
//! Every engine returns the same result *set* on the same query (the
//! `engine_equivalence` and `exec_api` integration suites enforce this);
//! they differ in intermediate behaviour: the level-wise engines obey the
//! paper's Lemma 3.5 per-prefix bounds, the streaming engines enumerate in
//! constant memory with true `LIMIT` pushdown, and the baseline exhibits
//! exactly the per-model blow-up the paper measures.
//!
//! ```
//! use relational::{Database, Schema, Value};
//! use xjoin_core::{DataContext, EngineKind, QueryBuilder};
//! use xmldb::{parse_xml, TagIndex};
//!
//! let mut db = Database::new();
//! db.load("orders", Schema::of(&["orderID", "userID"]), vec![
//!     vec![Value::Int(1), Value::str("jack")],
//! ]).unwrap();
//! let mut dict = db.dict().clone();
//! let doc = parse_xml("<lines><line><orderID>1</orderID><price>30</price></line></lines>", &mut dict).unwrap();
//! *db.dict_mut() = dict;
//! let index = TagIndex::build(&doc);
//! let ctx = DataContext::new(&db, &doc, &index);
//!
//! let query = QueryBuilder::mmql("Q(userID, price) :- orders(orderID, userID), //line[/orderID][/price]")
//!     .unwrap()
//!     .engine(EngineKind::XJoinStream)
//!     .limit(10)
//!     .build()
//!     .unwrap();
//! let out = query.execute(&ctx).unwrap();
//! assert_eq!(out.results.len(), 1);
//! let rows: Vec<_> = query.rows(&ctx).unwrap().collect();
//! assert_eq!(rows.len(), 1);
//! ```

use crate::atoms::{collect_atoms, Atoms};
use crate::baseline::{baseline, BaselineConfig, RelAlg, XmlAlg};
use crate::engine::{build_ad_checks, expand_filtered};
use crate::error::{CoreError, Result};
use crate::mmql::parse_query_with_options;
use crate::morsel::{concat, map_morsels, Parallelism};
use crate::order::{compute_order, OrderStrategy};
use crate::query::{variables_of, DataContext, MultiModelQuery, RelAtom, Term};
use crate::stream::{stream_with_plan, Rows};
use crate::validate::TwigValidator;
use relational::hashjoin::multiway_hash_join;
use relational::lftj::lftj_in_range_counted;
use relational::{Attr, JoinPlan, JoinStats, Relation, Schema};
use std::fmt;
use std::time::Instant;
use xmldb::TwigPattern;

/// Selects which join engine executes a query. Every kind accepts the full
/// multi-model query language: the relational engines run over the same
/// lowered atom set (tables ∪ twig path relations) as XJoin, followed by
/// the same twig-structure validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The paper's Algorithm 1: level-wise worst-case optimal XJoin,
    /// materialising (and bounding) every intermediate. Honours
    /// [`ExecOptions::partial_validation`] and [`ExecOptions::ad_filter`].
    #[default]
    XJoin,
    /// Depth-first streaming XJoin: same atom set, LFTJ-style enumeration
    /// with per-tuple structure validation. The engine behind true
    /// `limit` pushdown — its [`Rows`] stop the trie walk after `k` rows.
    XJoinStream,
    /// Raw Leapfrog Triejoin over the lowered atoms, validating the twig
    /// structure *after* full enumeration (the relational engine wrapped
    /// for multi-model queries).
    Lftj,
    /// The relational crate's level-wise generic join over the lowered
    /// atoms (no A-D filtering / partial validation), then validation.
    Generic,
    /// Classical pairwise hash joins along a greedy left-deep plan over the
    /// lowered atoms, then validation. Not worst-case optimal — included as
    /// the conventional comparator.
    HashJoin,
    /// The paper's per-model baseline: Q1 with a relational engine, Q2 per
    /// twig with an XML engine, merged at the value level.
    Baseline {
        /// Engine for the relational part.
        rel_alg: RelAlg,
        /// Engine for each twig.
        xml_alg: XmlAlg,
    },
}

impl EngineKind {
    /// Every engine kind, baseline `RelAlg`×`XmlAlg` combinations included
    /// (the cross-engine equivalence tests sweep this list).
    pub fn all() -> Vec<EngineKind> {
        let mut kinds = vec![
            EngineKind::XJoin,
            EngineKind::XJoinStream,
            EngineKind::Lftj,
            EngineKind::Generic,
            EngineKind::HashJoin,
        ];
        for rel_alg in [RelAlg::Hash, RelAlg::Lftj] {
            for xml_alg in [XmlAlg::TwigStack, XmlAlg::Navigational, XmlAlg::Tjfast] {
                kinds.push(EngineKind::Baseline { rel_alg, xml_alg });
            }
        }
        kinds
    }

    /// Whether this engine executes from a pre-assembled trie [`JoinPlan`]
    /// (and can therefore be served by the `xjoin-store` cache). The
    /// baseline and the hash join consume raw relations instead.
    pub fn is_plan_based(&self) -> bool {
        self.strategy().is_some()
    }

    /// The one place the plan-based engine names map onto the two
    /// enumeration strategies (`None` for the baseline and the hash join).
    pub(crate) fn strategy(&self) -> Option<Strategy> {
        match self {
            EngineKind::XJoin => Some(Strategy::LevelWise { xjoin: true }),
            EngineKind::Generic => Some(Strategy::LevelWise { xjoin: false }),
            EngineKind::XJoinStream => Some(Strategy::Walk { per_tuple: true }),
            EngineKind::Lftj => Some(Strategy::Walk { per_tuple: false }),
            EngineKind::HashJoin | EngineKind::Baseline { .. } => None,
        }
    }
}

/// The two enumeration strategies behind the four plan-based engine names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Strategy {
    /// Breadth-first expansion (the paper's Algorithm 1) through
    /// [`relational::generic::levelwise_join`], materialising and counting
    /// every intermediate. `xjoin` adds XJoin's per-candidate filters (when
    /// [`ExecOptions::ad_filter`] / [`ExecOptions::partial_validation`]
    /// enable them) and its `materialise <path>` stage records.
    LevelWise { xjoin: bool },
    /// Depth-first [`relational::LftjWalk`]. `per_tuple` validates each
    /// walked tuple as it streams (with `limit` pushed into the walk);
    /// otherwise the full enumeration is validated afterwards.
    Walk { per_tuple: bool },
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::XJoin => write!(f, "xjoin"),
            EngineKind::XJoinStream => write!(f, "xjoin-stream"),
            EngineKind::Lftj => write!(f, "lftj"),
            EngineKind::Generic => write!(f, "generic"),
            EngineKind::HashJoin => write!(f, "hash"),
            EngineKind::Baseline { rel_alg, xml_alg } => {
                write!(f, "baseline({rel_alg:?},{xml_alg:?})")
            }
        }
    }
}

/// Everything about *how* to run a query, engine choice included — the
/// union of the historical `XJoinConfig` / `BaselineConfig` knobs plus
/// `limit`, under one roof.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Which engine runs the query.
    pub engine: EngineKind,
    /// Variable expansion priority (the paper's `PA`); ignored by the
    /// baseline, which has no global order.
    pub order: OrderStrategy,
    /// Validate twig structure incrementally during expansion
    /// ([`EngineKind::XJoin`] only).
    pub partial_validation: bool,
    /// Prune candidates via cut A-D edge value pairs
    /// ([`EngineKind::XJoin`] only).
    pub ad_filter: bool,
    /// Stop after this many result rows. Streaming engines push the limit
    /// into the trie walk; materialising engines truncate their result —
    /// and under parallel execution, workers observe the emitted-row count
    /// and abandon their walks once the limit is reached.
    pub limit: Option<usize>,
    /// Intra-query parallelism of the plan-based engines: the top join
    /// attribute's value domain is split into morsels executed on a thread
    /// pool (see [`crate::morsel`]). Ignored by the baseline and the hash
    /// join, which always run serially. Results are identical to serial
    /// execution whatever the setting.
    pub parallelism: Parallelism,
    /// Allow a parallel [`Rows`] stream to yield tuples in worker arrival
    /// order instead of the deterministic serial order (morsels concatenated
    /// in domain order). Only observable with
    /// [`EngineKind::XJoinStream`]'s streaming path under parallel
    /// execution; materialised outputs always merge deterministically.
    pub unordered: bool,
}

impl ExecOptions {
    /// Options running `engine` with all defaults.
    pub fn for_engine(engine: EngineKind) -> ExecOptions {
        ExecOptions {
            engine,
            ..ExecOptions::default()
        }
    }
}

/// The one output type every engine returns.
#[derive(Debug)]
pub struct QueryOutput {
    /// The query result (schema = output attributes, or the full variable
    /// layout when the query has no explicit output list).
    pub results: Relation,
    /// Per-stage intermediate sizes and timings.
    pub stats: JoinStats,
    /// Layout of the *unprojected* result tuples: the engine's global
    /// variable order (for the baseline, its merge layout).
    pub order: Vec<Attr>,
    /// `(name, cardinality)` of every lowered atom, path relations included
    /// (empty for the baseline, which does not lower twigs).
    pub atom_sizes: Vec<(String, usize)>,
    /// The engine that produced this output.
    pub engine: EngineKind,
}

/// An engine-agnostic description of a validated, resolvable query — what
/// [`Engine::prepare`] returns. Producing one proves the query will not fail
/// resolution: relations exist, terms match arities, the order covers every
/// variable, and all output attributes are query variables.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    /// The engine the plan was prepared for.
    pub engine: EngineKind,
    /// The global variable order execution will use.
    pub order: Vec<Attr>,
    /// `(name, cardinality)` of every lowered atom.
    pub atom_sizes: Vec<(String, usize)>,
    /// The validated output projection (`None` = all variables).
    pub output: Option<Vec<Attr>>,
}

/// The contract every join engine implements. Obtain an implementation via
/// [`engine_for`], or skip the trait entirely with the [`execute`] /
/// [`stream`] free functions (or [`Query::execute`] / [`Query::rows`]).
pub trait Engine {
    /// Which [`EngineKind`] this engine is.
    fn kind(&self) -> EngineKind;

    /// Resolves and validates the query without executing it: unknown
    /// relations, arity mismatches, unusable orders, and unknown output
    /// attributes all error **here**, before any trie is built.
    fn prepare(
        &self,
        ctx: &DataContext<'_>,
        query: &MultiModelQuery,
        opts: &ExecOptions,
    ) -> Result<ExecPlan> {
        let (atoms, order) = resolve(ctx, query, opts)?;
        Ok(ExecPlan {
            engine: self.kind(),
            order,
            atom_sizes: atoms.sizes(),
            output: query.output.clone(),
        })
    }

    /// Runs the query to completion, materialising one [`QueryOutput`].
    fn execute(
        &self,
        ctx: &DataContext<'_>,
        query: &MultiModelQuery,
        opts: &ExecOptions,
    ) -> Result<QueryOutput>;

    /// Returns a pull-based [`Rows`] iterator over the query's results.
    /// The default materialises via [`Engine::execute`] and iterates the
    /// buffer; streaming engines override this with true lazy enumeration.
    fn stream<'a>(
        &self,
        ctx: &DataContext<'a>,
        query: &'a MultiModelQuery,
        opts: &ExecOptions,
    ) -> Result<Rows<'a>> {
        let out = self.execute(ctx, query, opts)?;
        Ok(Rows::from_relation(out.results, out.order))
    }
}

/// Checks that every output attribute is a query variable. Engines (and
/// external preparers like `xjoin-store`) call this during preparation so
/// projection errors surface before execution — never after a join has run.
pub fn validate_output(query: &MultiModelQuery, vars: &[Attr]) -> Result<()> {
    if let Some(out) = &query.output {
        for a in out {
            if !vars.contains(a) {
                return Err(CoreError::UnknownAttribute(a.name().to_owned()));
            }
        }
    }
    Ok(())
}

/// Shared resolution front half: lower the query, fix the order, and
/// validate the output projection — no tries are built.
fn resolve<'a>(
    ctx: &DataContext<'a>,
    query: &MultiModelQuery,
    opts: &ExecOptions,
) -> Result<(Atoms<'a>, Vec<Attr>)> {
    let atoms = {
        let _span = xjoin_obs::span("resolve");
        collect_atoms(ctx, query)?
    };
    let order = {
        let mut span = xjoin_obs::span("order");
        let order = compute_order(&atoms, &opts.order)?;
        span.set_attr(|| order.iter().map(|a| a.name()).collect::<Vec<_>>().join(","));
        order
    };
    validate_output(query, &order)?;
    Ok((atoms, order))
}

/// Shared back half for the relational engines: validate twig structure on
/// the full-width result, project, apply the limit, and assemble the
/// [`QueryOutput`]. `rel`'s schema must be laid out per `order`. The morsel
/// scheduler reuses it to merge parallel runs identically to serial ones.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    order: Vec<Attr>,
    mut rel: Relation,
    mut stats: JoinStats,
    atom_sizes: Vec<(String, usize)>,
    opts: &ExecOptions,
    engine: EngineKind,
    start: Instant,
) -> Result<QueryOutput> {
    if !query.twigs.is_empty() {
        let mut validators: Vec<TwigValidator<'_>> = query
            .twigs
            .iter()
            .map(|t| TwigValidator::new(ctx.doc, ctx.index, t, &order))
            .collect::<Result<_>>()?;
        let mut valid = Relation::with_capacity(rel.schema().clone(), rel.len());
        for tuple in rel.rows() {
            if validators.iter_mut().all(|v| v.check(tuple)) {
                valid.push(tuple).expect("same schema");
            }
        }
        rel = valid;
        stats.record("validate structure", rel.len());
    }
    if let Some(out_attrs) = &query.output {
        rel = rel.project(out_attrs)?;
    }
    if let Some(k) = opts.limit {
        rel.truncate(k);
    }
    stats.output_rows = rel.len();
    stats.elapsed = start.elapsed();
    Ok(QueryOutput {
        results: rel,
        stats,
        order,
        atom_sizes,
        engine,
    })
}

/// Drains a walk-backed [`Rows`] into a materialised [`QueryOutput`] — the
/// shared execute path of the streaming engine, plan-assembled or not.
pub(crate) fn drain_rows(
    mut rows: Rows<'_>,
    order: Vec<Attr>,
    atom_sizes: Vec<(String, usize)>,
    engine: EngineKind,
    start: Instant,
) -> Result<QueryOutput> {
    let mut rel = Relation::new(rows.schema().clone());
    for row in rows.by_ref() {
        rel.push(&row).map_err(CoreError::from)?;
    }
    // No stage records: the streaming engine materialises nothing, so its
    // `max_intermediate()` is honestly zero — the walk's work counter lives
    // in [`crate::stream::RowsStats::visited`], not in the Lemma 3.5 axis.
    let stats = JoinStats {
        output_rows: rel.len(),
        elapsed: start.elapsed(),
        ..JoinStats::default()
    };
    Ok(QueryOutput {
        results: rel,
        stats,
        order,
        atom_sizes,
        engine,
    })
}

/// The shared execute body of every plan-based engine: resolve, build a
/// fresh trie plan, and delegate to [`execute_with_plan`] (so the per-kind
/// wiring exists exactly once). `stats.elapsed` is restamped to cover the
/// whole run — lowering and trie construction included — and
/// `stats.build_elapsed` / `stats.tries_built` carry the plan's
/// trie-construction bill so callers can split cold latency into build vs
/// probe.
fn execute_fresh_plan(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    opts: &ExecOptions,
    kind: EngineKind,
) -> Result<QueryOutput> {
    let start = Instant::now();
    let opts = ExecOptions {
        engine: kind,
        ..opts.clone()
    };
    let (atoms, order) = resolve(ctx, query, &opts)?;
    let plan = {
        let mut span = xjoin_obs::span("plan-build");
        let plan = JoinPlan::new(&atoms.rel_refs(), &order)?.with_ladder(opts.order.ladder());
        span.set_attr(|| format!("tries_built={}", plan.tries_built()));
        plan
    };
    let mut out = execute_with_plan(
        ctx,
        query,
        &opts,
        &plan,
        atoms.sizes(),
        atoms.first_path_atom,
    )?;
    out.stats.elapsed = start.elapsed();
    out.stats.build_elapsed = plan.build_elapsed();
    out.stats.tries_built = plan.tries_built();
    out.stats.bitset_levels = plan.tries().iter().map(|t| t.bitset_level_count()).sum();
    Ok(out)
}

/// Truncates a materialised output to the options' limit.
fn apply_limit(out: &mut QueryOutput, opts: &ExecOptions) {
    if let Some(k) = opts.limit {
        if out.results.len() > k {
            out.results.truncate(k);
            out.stats.output_rows = out.results.len();
        }
    }
}

/// Every plan-based engine ([`EngineKind::is_plan_based`]): resolve, build
/// a fresh trie plan, and run it through [`execute_with_plan`].
#[derive(Debug, Clone, Copy)]
pub struct PlanEngine(EngineKind);

impl Engine for PlanEngine {
    fn kind(&self) -> EngineKind {
        self.0
    }

    fn execute(
        &self,
        ctx: &DataContext<'_>,
        query: &MultiModelQuery,
        opts: &ExecOptions,
    ) -> Result<QueryOutput> {
        execute_fresh_plan(ctx, query, opts, self.0)
    }

    /// Streaming walks enumerate lazily; the other kinds materialise first.
    fn stream<'a>(
        &self,
        ctx: &DataContext<'a>,
        query: &'a MultiModelQuery,
        opts: &ExecOptions,
    ) -> Result<Rows<'a>> {
        if self.0.strategy() != Some(Strategy::Walk { per_tuple: true }) {
            let out = self.execute(ctx, query, opts)?;
            return Ok(Rows::from_relation(out.results, out.order));
        }
        let (atoms, order) = resolve(ctx, query, opts)?;
        let plan = {
            let _span = xjoin_obs::span("plan-build");
            JoinPlan::new(&atoms.rel_refs(), &order)?.with_ladder(opts.order.ladder())
        };
        stream_with_plan(ctx, query, plan, opts)
    }
}

/// Pairwise hash joins over the lowered atoms ([`EngineKind::HashJoin`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct HashJoinEngine;

impl Engine for HashJoinEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::HashJoin
    }

    fn execute(
        &self,
        ctx: &DataContext<'_>,
        query: &MultiModelQuery,
        opts: &ExecOptions,
    ) -> Result<QueryOutput> {
        let start = Instant::now();
        let (atoms, order) = resolve(ctx, query, opts)?;
        let atom_sizes = atoms.sizes();
        let refs = atoms.rel_refs();
        let (joined, mut stats) = multiway_hash_join(&refs)?;
        // Reorder the natural-join layout into the global order so the
        // shared validation/projection back half applies.
        let full = joined.project(&order)?;
        stats.record("reorder to global order", full.len());
        finish(
            ctx,
            query,
            order,
            full,
            stats,
            atom_sizes,
            opts,
            self.kind(),
            start,
        )
    }
}

/// The paper's per-model baseline ([`EngineKind::Baseline`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselineEngine {
    /// Which relational / XML engine combination to run.
    pub config: BaselineConfig,
}

impl Engine for BaselineEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Baseline {
            rel_alg: self.config.rel_alg,
            xml_alg: self.config.xml_alg,
        }
    }

    /// The baseline never lowers twigs to path relations, so its prepare
    /// skips the default's lowering too: resolve the relational atoms,
    /// union in the twig variables, and validate the projection — no
    /// per-path document scans.
    fn prepare(
        &self,
        ctx: &DataContext<'_>,
        query: &MultiModelQuery,
        _opts: &ExecOptions,
    ) -> Result<ExecPlan> {
        if query.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        let resolved = ctx.resolve_atoms(query)?;
        let vars = variables_of(&resolved, &query.twigs);
        if vars.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        validate_output(query, &vars)?;
        let atom_sizes = query
            .relations
            .iter()
            .zip(&resolved)
            .map(|(atom, rel)| (atom.name.clone(), rel.rel().len()))
            .collect();
        Ok(ExecPlan {
            engine: self.kind(),
            order: vars,
            atom_sizes,
            output: query.output.clone(),
        })
    }

    fn execute(
        &self,
        ctx: &DataContext<'_>,
        query: &MultiModelQuery,
        opts: &ExecOptions,
    ) -> Result<QueryOutput> {
        let mut out = baseline(ctx, query, &self.config)?;
        apply_limit(&mut out, opts);
        Ok(out)
    }
}

/// Returns the engine implementing `kind`.
pub fn engine_for(kind: EngineKind) -> Box<dyn Engine> {
    match kind {
        EngineKind::HashJoin => Box::new(HashJoinEngine),
        EngineKind::Baseline { rel_alg, xml_alg } => Box::new(BaselineEngine {
            config: BaselineConfig { rel_alg, xml_alg },
        }),
        plan_based => Box::new(PlanEngine(plan_based)),
    }
}

/// Executes `query` on the engine selected by `opts` — the single blessed
/// entry point for one-shot execution.
pub fn execute(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    opts: &ExecOptions,
) -> Result<QueryOutput> {
    engine_for(opts.engine).execute(ctx, query, opts)
}

/// Streams `query` on the engine selected by `opts`, returning the
/// pull-based [`Rows`] iterator.
pub fn stream<'a>(
    ctx: &DataContext<'a>,
    query: &'a MultiModelQuery,
    opts: &ExecOptions,
) -> Result<Rows<'a>> {
    engine_for(opts.engine).stream(ctx, query, opts)
}

/// Executes a **plan-based** engine over an already-assembled [`JoinPlan`]
/// (whose tries typically come from the `xjoin-store` cache). Supports
/// exactly the kinds for which [`EngineKind::is_plan_based`] is true; the
/// baseline and the hash join error with [`CoreError::Unsupported`] since
/// they do not consume trie plans. `atom_sizes` / `first_path_atom`
/// describe the plan's atoms as [`Atoms::sizes`] /
/// [`Atoms::first_path_atom`] would.
///
/// When [`ExecOptions::parallelism`] resolves to more than one worker, the
/// first variable's domain is partitioned into morsels (see
/// [`crate::morsel`]) and each part runs as an independent sub-join on a
/// thread pool, with per-morsel outputs (and per-stage stats) merged in
/// domain order — results are identical to a serial run. Zero-variable
/// plans always run serially. Layered plans (delta runs over cached base
/// tries) run on every kind.
pub fn execute_with_plan(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    opts: &ExecOptions,
    plan: &JoinPlan,
    atom_sizes: Vec<(String, usize)>,
    first_path_atom: usize,
) -> Result<QueryOutput> {
    let start = Instant::now();
    let mut exec_span = xjoin_obs::span("execute");
    exec_span.set_attr(|| opts.engine.to_string());
    let strategy = opts.engine.strategy().ok_or_else(|| {
        CoreError::Unsupported(format!(
            "engine `{}` does not execute from a trie plan",
            opts.engine
        ))
    })?;
    validate_output(query, plan.order())?;
    let workers = if plan.var_plans().is_empty() {
        1
    } else {
        opts.parallelism.workers()
    };
    let mut stats = JoinStats::default();
    let parts = match strategy {
        Strategy::LevelWise { xjoin } => {
            if xjoin {
                for (name, size) in atom_sizes.iter().skip(first_path_atom) {
                    stats.record(format!("materialise {name}"), *size);
                }
            }
            // A-D checks are immutable per-query state (each one a document
            // scan): build once, share read-only across all morsel workers.
            let ad_checks = build_ad_checks(ctx, query, plan.order(), xjoin && opts.ad_filter);
            let partial = xjoin && opts.partial_validation;
            let outs = map_morsels(plan, workers, |range| {
                expand_filtered(ctx, query, plan, range, &ad_checks, partial)
            })?;
            // Per-stage counts partition across the disjoint cover; summing
            // reproduces the serial Lemma 3.5 series exactly.
            for (i, stage) in outs[0].1.stages.iter().enumerate() {
                let tuples = outs.iter().map(|(_, st)| st.stages[i].tuples).sum();
                stats.record(stage.label.clone(), tuples);
            }
            outs.into_iter().map(|(rel, _)| rel).collect()
        }
        Strategy::Walk { per_tuple: true } => {
            // Materialised outputs drain in domain order whatever
            // `unordered` says (the flag only affects the streaming surface).
            let rows = if workers > 1 {
                Rows::from_parallel(ctx, query, plan.clone(), opts.limit, workers, true)?
            } else {
                Rows::from_walk(ctx, query, plan.clone(), opts.limit)?
            };
            return drain_rows(rows, plan.order().to_vec(), atom_sizes, opts.engine, start);
        }
        Strategy::Walk { per_tuple: false } => {
            let outs = map_morsels(plan, workers, |range| {
                Ok(lftj_in_range_counted(plan, range))
            })?;
            for (_, counters) in &outs {
                stats.reorders += counters.reorders;
                stats.estimate_probes += counters.estimate_probes;
            }
            let parts: Vec<Relation> = outs.into_iter().map(|(rel, _)| rel).collect();
            stats.record("lftj enumerate", parts.iter().map(Relation::len).sum());
            parts
        }
    };
    let schema = Schema::new(plan.order().iter().cloned()).expect("order vars distinct");
    finish(
        ctx,
        query,
        plan.order().to_vec(),
        concat(schema, parts),
        stats,
        atom_sizes,
        opts,
        opts.engine,
        start,
    )
}

/// Builds multi-model queries — MMQL text or programmatic atoms — together
/// with their [`ExecOptions`], replacing the historical per-engine
/// constructors. Construction methods never fail mid-chain: the first error
/// (e.g. a bad twig expression) is remembered and returned by
/// [`QueryBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct QueryBuilder {
    query: MultiModelQuery,
    options: ExecOptions,
    deferred: Option<CoreError>,
}

impl QueryBuilder {
    /// An empty builder (add atoms with [`QueryBuilder::relation`] /
    /// [`QueryBuilder::twig`]).
    pub fn new() -> QueryBuilder {
        QueryBuilder {
            query: MultiModelQuery {
                relations: Vec::new(),
                twigs: Vec::new(),
                output: None,
            },
            options: ExecOptions::default(),
            deferred: None,
        }
    }

    /// Seeds a builder from an MMQL query string (head = output). A trailing
    /// `WITH ORDER <strategy>` clause, when present, seeds the builder's
    /// [`OrderStrategy`] (see [`parse_query_with_options`]).
    pub fn mmql(text: &str) -> Result<QueryBuilder> {
        let (query, order) = parse_query_with_options(text)?;
        let mut options = ExecOptions::default();
        if let Some(order) = order {
            options.order = order;
        }
        Ok(QueryBuilder {
            query,
            options,
            deferred: None,
        })
    }

    /// Seeds a builder from an existing [`MultiModelQuery`].
    pub fn from_query(query: MultiModelQuery) -> QueryBuilder {
        QueryBuilder {
            query,
            options: ExecOptions::default(),
            deferred: None,
        }
    }

    /// Adds a relational atom using the stored schema unchanged.
    pub fn relation(mut self, name: &str) -> Self {
        self.query.relations.push(RelAtom::plain(name));
        self
    }

    /// Adds a relational atom with its columns rebound positionally.
    pub fn relation_as(mut self, name: &str, vars: &[&str]) -> Self {
        self.query.relations.push(RelAtom::renamed(
            name,
            vars.iter().map(|&v| Attr::new(v)).collect(),
        ));
        self
    }

    /// Adds a relational atom with arbitrary positional terms (variables,
    /// constants, repeated variables).
    pub fn relation_terms(mut self, name: &str, terms: Vec<Term>) -> Self {
        self.query.relations.push(RelAtom::with_terms(name, terms));
        self
    }

    /// Adds a twig atom from an XPath-like expression. A parse error is
    /// deferred to [`QueryBuilder::build`].
    pub fn twig(mut self, expr: &str) -> Self {
        match TwigPattern::parse(expr) {
            Ok(t) => self.query.twigs.push(t),
            Err(e) => {
                self.deferred.get_or_insert(CoreError::Twig(e));
            }
        }
        self
    }

    /// Restricts the output schema (the MMQL head).
    pub fn output(mut self, attrs: &[&str]) -> Self {
        self.query.output = Some(attrs.iter().map(|&a| Attr::new(a)).collect());
        self
    }

    /// Selects the engine.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.options.engine = engine;
        self
    }

    /// Sets the variable-order strategy.
    pub fn order(mut self, order: OrderStrategy) -> Self {
        self.options.order = order;
        self
    }

    /// Shorthand for [`OrderStrategy::Adaptive`] with the given ladder rung.
    pub fn adaptive(self, ladder: relational::Ladder) -> Self {
        self.order(OrderStrategy::Adaptive { ladder })
    }

    /// Enables partial twig validation during expansion (XJoin only).
    pub fn partial_validation(mut self, on: bool) -> Self {
        self.options.partial_validation = on;
        self
    }

    /// Enables A-D edge filtering (XJoin only).
    pub fn ad_filter(mut self, on: bool) -> Self {
        self.options.ad_filter = on;
        self
    }

    /// Stops after `k` result rows (pushed into the trie walk by streaming
    /// engines).
    pub fn limit(mut self, k: usize) -> Self {
        self.options.limit = Some(k);
        self
    }

    /// Sets the intra-query parallelism of the plan-based engines (see
    /// [`Parallelism`]).
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.options.parallelism = parallelism;
        self
    }

    /// Allows a parallel stream to yield rows in worker arrival order
    /// instead of the deterministic serial order.
    pub fn unordered(mut self, on: bool) -> Self {
        self.options.unordered = on;
        self
    }

    /// Replaces the whole option set at once.
    pub fn options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Finalises the builder, surfacing any deferred construction error and
    /// rejecting atom-less queries.
    pub fn build(self) -> Result<Query> {
        if let Some(e) = self.deferred {
            return Err(e);
        }
        if self.query.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        Ok(Query {
            query: self.query,
            options: self.options,
        })
    }
}

/// A built query: the [`MultiModelQuery`] plus its [`ExecOptions`], ready
/// to run against any [`DataContext`].
#[derive(Debug, Clone)]
pub struct Query {
    /// The query itself.
    pub query: MultiModelQuery,
    /// How (and on which engine) to run it.
    pub options: ExecOptions,
}

impl Query {
    /// Validates the query against `ctx` without executing (see
    /// [`Engine::prepare`]).
    pub fn prepare(&self, ctx: &DataContext<'_>) -> Result<ExecPlan> {
        engine_for(self.options.engine).prepare(ctx, &self.query, &self.options)
    }

    /// Runs the query to completion on the selected engine.
    pub fn execute(&self, ctx: &DataContext<'_>) -> Result<QueryOutput> {
        execute(ctx, &self.query, &self.options)
    }

    /// Streams the query's results as a pull-based [`Rows`] iterator.
    pub fn rows<'a>(&'a self, ctx: &DataContext<'a>) -> Result<Rows<'a>> {
        stream(ctx, &self.query, &self.options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{Database, Schema, Value};
    use xmldb::{TagIndex, XmlDocument};

    fn bookstore() -> (Database, XmlDocument) {
        let mut db = Database::new();
        db.load(
            "R",
            Schema::of(&["orderID", "userID"]),
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

    #[test]
    fn every_engine_kind_executes_the_same_query() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let query = MultiModelQuery::new(&["R"], &["//line[/orderID][/price]"])
            .unwrap()
            .with_output(&["userID", "price"]);
        let reference = execute(&ctx, &query, &ExecOptions::default()).unwrap();
        assert_eq!(reference.results.len(), 2);
        for kind in EngineKind::all() {
            let out = execute(&ctx, &query, &ExecOptions::for_engine(kind)).unwrap();
            assert!(
                out.results.set_eq(&reference.results),
                "engine {kind} diverged"
            );
            assert_eq!(out.engine, kind);
        }
    }

    #[test]
    fn unknown_output_attribute_errors_at_prepare() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let query = MultiModelQuery::new(&["R"], &["//line/orderID"])
            .unwrap()
            .with_output(&["nonexistent"]);
        for kind in EngineKind::all() {
            let engine = engine_for(kind);
            assert!(
                matches!(
                    engine.prepare(&ctx, &query, &ExecOptions::for_engine(kind)),
                    Err(CoreError::UnknownAttribute(a)) if a == "nonexistent"
                ),
                "engine {kind} did not reject at prepare"
            );
            assert!(
                matches!(
                    engine.execute(&ctx, &query, &ExecOptions::for_engine(kind)),
                    Err(CoreError::UnknownAttribute(_))
                ),
                "engine {kind} did not reject at execute"
            );
        }
    }

    #[test]
    fn limit_truncates_every_engine() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let query = MultiModelQuery::new(&["R"], &[]).unwrap();
        for kind in EngineKind::all() {
            let opts = ExecOptions {
                engine: kind,
                limit: Some(2),
                ..Default::default()
            };
            let out = execute(&ctx, &query, &opts).unwrap();
            assert_eq!(out.results.len(), 2, "engine {kind}");
        }
    }

    #[test]
    fn parallel_execution_matches_serial_for_every_plan_based_kind() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let query = MultiModelQuery::new(&["R"], &["//line[/orderID][/price]"])
            .unwrap()
            .with_output(&["userID", "price"]);
        for kind in EngineKind::all().into_iter().filter(|k| k.is_plan_based()) {
            let serial = execute(&ctx, &query, &ExecOptions::for_engine(kind)).unwrap();
            let parallel = execute(
                &ctx,
                &query,
                &ExecOptions {
                    engine: kind,
                    parallelism: Parallelism::Threads(3),
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(
                parallel.results.set_eq(&serial.results),
                "engine {kind} diverged under parallel execution"
            );
            assert_eq!(parallel.results.len(), serial.results.len());
            assert_eq!(
                parallel.stats.max_intermediate(),
                serial.stats.max_intermediate(),
                "engine {kind}: summed morsel stages must equal serial stages"
            );
        }
    }

    #[test]
    fn parallel_limit_truncates_like_serial() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let query = MultiModelQuery::new(&["R"], &[]).unwrap();
        for kind in EngineKind::all().into_iter().filter(|k| k.is_plan_based()) {
            let opts = ExecOptions {
                engine: kind,
                parallelism: Parallelism::Threads(2),
                limit: Some(2),
                ..Default::default()
            };
            let out = execute(&ctx, &query, &opts).unwrap();
            assert_eq!(out.results.len(), 2, "engine {kind}");
        }
    }

    #[test]
    fn plan_based_engines_report_trie_build_cost() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let query = MultiModelQuery::new(&["R"], &["//line[/orderID][/price]"]).unwrap();
        for kind in EngineKind::all() {
            let out = execute(&ctx, &query, &ExecOptions::for_engine(kind)).unwrap();
            if kind.is_plan_based() {
                // One trie per lowered atom, and the build time is part of
                // (hence bounded by) the total elapsed time.
                assert_eq!(out.stats.tries_built, out.atom_sizes.len(), "{kind}");
                assert!(out.stats.build_elapsed <= out.stats.elapsed, "{kind}");
            } else {
                assert_eq!(out.stats.tries_built, 0, "{kind}");
            }
        }
    }

    #[test]
    fn builder_and_mmql_agree() {
        let from_text = QueryBuilder::mmql("Q(userID) :- R(orderID, userID), //line/orderID")
            .unwrap()
            .build()
            .unwrap();
        let built = QueryBuilder::new()
            .relation_as("R", &["orderID", "userID"])
            .twig("//line/orderID")
            .output(&["userID"])
            .build()
            .unwrap();
        assert_eq!(from_text.query, built.query);
    }

    #[test]
    fn builder_defers_twig_errors_to_build() {
        let err = QueryBuilder::new()
            .relation("R")
            .twig("//bad[") // syntax error
            .twig("//ok")
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::Twig(_)));
    }

    #[test]
    fn builder_rejects_empty_queries() {
        assert!(matches!(
            QueryBuilder::new().build(),
            Err(CoreError::EmptyQuery)
        ));
    }

    #[test]
    fn query_prepare_describes_without_running() {
        let (db, doc) = bookstore();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = QueryBuilder::mmql("Q(userID) :- R(orderID, userID), //line/orderID")
            .unwrap()
            .build()
            .unwrap();
        let plan = q.prepare(&ctx).unwrap();
        assert_eq!(plan.engine, EngineKind::XJoin);
        assert_eq!(plan.output, Some(vec![Attr::new("userID")]));
        assert!(plan.order.len() >= 3);
        assert!(!plan.atom_sizes.is_empty());
    }

    #[test]
    fn plan_based_kinds_are_classified() {
        assert!(EngineKind::XJoin.is_plan_based());
        assert!(EngineKind::XJoinStream.is_plan_based());
        assert!(EngineKind::Lftj.is_plan_based());
        assert!(EngineKind::Generic.is_plan_based());
        assert!(!EngineKind::HashJoin.is_plan_based());
        assert!(!EngineKind::Baseline {
            rel_alg: RelAlg::Hash,
            xml_alg: XmlAlg::TwigStack
        }
        .is_plan_based());
    }

    #[test]
    fn display_names_are_distinct() {
        let mut names: Vec<String> = EngineKind::all().iter().map(|k| k.to_string()).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
