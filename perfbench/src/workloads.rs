//! The four workloads: seeded data, statement pools, request mixes, and the
//! independent oracle that fixes every statement's expected reply.
//!
//! Everything here is a pure function of `(workload, seed)`: the program
//! under test only ever receives the generated relations, documents,
//! statements and write batches.

use crate::stats::{below, fingerprint, permutation, shuffle, splitmix64, Fingerprint};
use bench::workloads::{
    branch_skew_instance, churn_instance, graph_instance, zipf_graph_instance, FIG3_TWIG,
};
use relational::{Database, Dict, Schema, Value};
use std::collections::HashSet;
use std::time::Duration;
use xjoin_core::{
    parse_query_with_options, BaselineConfig, DataContext, EngineKind, ExecOptions, Ladder,
    OrderStrategy, Parallelism,
};
use xjoin_serve::protocol::{encode_rows, MAX_PAYLOAD};
use xmldb::generator::{auction_document, AuctionConfig};
use xmldb::model::DocBuilder;
use xmldb::{TagIndex, XmlDocument};

/// The benchmark's workloads (see `perfbench/README.md` for why each one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GraphServe,
    XmlTwig,
    Churn,
    SkewAnalytic,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GraphServe,
        Workload::XmlTwig,
        Workload::Churn,
        Workload::SkewAnalytic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GraphServe => "graph-serve",
            Workload::XmlTwig => "xml-twig",
            Workload::Churn => "churn",
            Workload::SkewAnalytic => "skew-analytic",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How requests reach the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Statements are PREPAREd at set-up and sent as EXEC frames.
    Exec,
    /// Every request is an ad-hoc QUERY frame carrying its MMQL text.
    Query,
}

/// One statement of a workload's pool.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub text: String,
    pub opts: ExecOptions,
    /// Relative request frequency within the mix.
    pub weight: u32,
}

/// The expected reply of one statement, fixed by the oracle at set-up.
#[derive(Debug, Clone)]
pub struct Expect {
    pub columns: Vec<String>,
    /// Fingerprint of the complete result.
    pub full: Fingerprint,
    /// For `LIMIT` statements: every row of the complete result, since
    /// which rows survive the cut depends on the engine's order.
    pub members: Option<HashSet<Vec<Value>>>,
    pub limit: Option<usize>,
    /// Payload bytes of the encoded reply.
    pub reply_bytes: usize,
}

impl Expect {
    /// Whether a decoded reply is the right answer.
    pub fn accepts(&self, columns: &[String], rows: &[Vec<Value>]) -> bool {
        let (Some(k), Some(members)) = (self.limit, &self.members) else {
            return fingerprint(columns, rows, &self.columns) == Some(self.full);
        };
        let Some(perm) = permutation(columns, &self.columns) else {
            return false;
        };
        let got: HashSet<Vec<Value>> = rows
            .iter()
            .map(|r| perm.iter().map(|&p| r[p].clone()).collect())
            .collect();
        got.len() == rows.len() && rows.len() == k.min(self.full.rows) && got.is_subset(members)
    }
}

/// The churn writer's schedule: one append per tick, rotating over the
/// three edge relations.
#[derive(Debug, Clone)]
pub struct ChurnPlan {
    pub period: Duration,
    pub batches: Vec<(&'static str, Vec<Vec<Value>>)>,
}

/// Everything a workload run needs that the seed decides.
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    pub stmts: Vec<Stmt>,
    pub route: Route,
    /// Closed-loop client connections.
    pub clients: usize,
    /// Trie-cache byte budget (`None` = unbounded).
    pub cache_budget: Option<usize>,
    /// Statements issued once at set-up to warm the trie cache.
    pub warm: Vec<usize>,
    pub churn: Option<ChurnPlan>,
}

impl Spec {
    /// Draws the next statement index of the request mix.
    pub fn draw(&self, state: &mut u64) -> usize {
        let total: u32 = self.stmts.iter().map(|s| s.weight).sum();
        let mut x = (splitmix64(state) % total as u64) as u32;
        for (i, s) in self.stmts.iter().enumerate() {
            if x < s.weight {
                return i;
            }
            x -= s.weight;
        }
        unreachable!("draw below the total weight")
    }
}

// Sizes and mixes. Every request fits a latency mix (p99 needs >= 1000
// samples per run) and every reply stays far below MAX_PAYLOAD. Each mix
// has one heavy class of about 3 % of the requests, so `read_p99_ms` reads
// the middle of that class rather than the edge of a larger one, and the
// median falls inside one population rather than on the seam of two: both
// then move with the work, not with where a boundary lands.
const GRAPH_NODES: usize = 20_000;
const GRAPH_EDGES: usize = 100_000;
const GRAPH_FILTERS: usize = 8;
const GRAPH_FILTER_SIZE: usize = 256;
/// The heavy class: 4-cliques anchored on larger vertex filters.
const CLIQUE_FILTERS: usize = 4;
const CLIQUE_FILTER_SIZE: usize = 1024;
const GRAPH_SCANS: usize = 24;
const SCAN_LIMIT: usize = 16;

const FIG3_N: usize = 90;
/// The heavy class: fig3 texts, about one request in forty.
const FIG3_TEXTS: usize = 4;
const AUCTION: AuctionConfig = AuctionConfig {
    people: 40,
    items: 60,
    auctions: 80,
    seed: 0,
};
const WATCHLIST_ROWS: usize = 120;
/// Distinct texts of the pool, well above the server's 64-entry statement
/// cache (the three auction shapes allow 150).
const TWIG_POOL: usize = 148;
/// Fixed below the xml-twig working set of distinct tries (see README).
pub const TWIG_CACHE_BUDGET: usize = 12 << 10;

const CHURN_NODES: usize = 5_000;
const CHURN_EDGES: usize = 25_000;
const CHURN_FILTER: usize = 256;
const CHURN_PERIOD_MS: u64 = 100;
/// Small enough that the relations grow by ~2 % per 10 s, so the read cost
/// stays flat over a window (64-edge batches made the last third of a 30 s
/// window ~20 % slower than the first).
const CHURN_BATCH_EDGES: usize = 16;
/// Enough batches for a 60 s run at the churn period.
const CHURN_BATCHES: usize = 1300;
/// About five times churn's working set of tries (set-up prints both): only
/// superseded versions are evicted, so resident memory stays flat instead of
/// growing with every write.
const CHURN_CACHE_BUDGET: usize = 4 << 20;

const ZIPF_NODES: usize = 20_000;
const ZIPF_EDGES: usize = 100_000;
const ZIPF_SKEW: f64 = 1.0;
const SKEW_KEYS: usize = 2048;
const SKEW_HEAVY: usize = 64;

/// Generates the workload's data. Deterministic per seed.
pub fn generate(workload: Workload, seed: u64) -> (Database, XmlDocument) {
    match workload {
        Workload::GraphServe => {
            let inst = graph_instance(GRAPH_NODES, GRAPH_EDGES, seed);
            let mut db = inst.db;
            let mut state = seed ^ 0xf11e;
            let filters = (0..GRAPH_FILTERS).map(|f| (format!("F{f}"), GRAPH_FILTER_SIZE));
            let cliques = (0..CLIQUE_FILTERS).map(|f| (format!("C{f}"), CLIQUE_FILTER_SIZE));
            for (name, size) in filters.chain(cliques) {
                let rows: Vec<Vec<Value>> = (0..size)
                    .map(|_| vec![Value::Int(below(&mut state, GRAPH_NODES) as i64)])
                    .collect();
                db.load(&name, Schema::of(&["v"]), rows)
                    .expect("load vertex filter");
            }
            (db, inst.doc)
        }
        Workload::XmlTwig => {
            let mut state = seed ^ 0xa0c7;
            let mut db = Database::new();
            let mut b = DocBuilder::new();
            let root = b.add_node(None, "db", None);
            fig3_instance(&mut db, &mut b, root, FIG3_N, &mut state);
            // Balanced by construction: exactly one fifth of the people per
            // rating, three watched items per person.
            let mut ratings: Vec<i64> = (0..AUCTION.people as i64).map(|p| p % 5).collect();
            shuffle(&mut ratings, &mut state);
            db.load(
                "standing",
                Schema::of(&["personID", "rating"]),
                ratings
                    .iter()
                    .enumerate()
                    .map(|(p, &r)| vec![Value::Int(p as i64), Value::Int(r)])
                    .collect::<Vec<_>>(),
            )
            .expect("load standing");
            db.load(
                "watchlist",
                Schema::of(&["personID", "itemID"]),
                (0..WATCHLIST_ROWS)
                    .map(|i| {
                        vec![
                            Value::Int((i % AUCTION.people) as i64),
                            Value::Int(1000 + below(&mut state, AUCTION.items) as i64),
                        ]
                    })
                    .collect::<Vec<_>>(),
            )
            .expect("load watchlist");
            // One document holding both inputs: the fig3 tree and the
            // auction site side by side under a common root.
            let mut dict = db.dict().clone();
            let auction = auction_document(&mut dict, &AuctionConfig { seed, ..AUCTION });
            graft(&mut b, root, &auction, &dict);
            let doc = b.build(&mut dict);
            *db.dict_mut() = dict;
            (db, doc)
        }
        Workload::Churn => {
            let inst = churn_instance(CHURN_NODES, CHURN_EDGES, CHURN_FILTER, seed);
            (inst.db, inst.doc)
        }
        Workload::SkewAnalytic => {
            let zipf = zipf_graph_instance(ZIPF_NODES, ZIPF_EDGES, ZIPF_SKEW, seed);
            let branch = branch_skew_instance(SKEW_KEYS, SKEW_HEAVY);
            let mut db = zipf.db;
            for name in ["R", "S", "F", "G"] {
                copy_relation(&mut db, &branch.db, name);
            }
            // Vertex filters over the Zipf graph (vertex id = popularity
            // rank): heavy hitters just below the head, the shoulder, and the
            // tail, one vertex drawn per equal-width stratum of ranks so the
            // filters' total degree barely moves between seeds.
            let mut state = seed ^ 0x21bf;
            for (f, lo, hi, size) in [
                (0, 16, 256, 16),
                (1, 256, 2048, 48),
                (2, 2048, ZIPF_NODES, 48),
            ] {
                let width = (hi - lo) / size;
                let rows: Vec<Vec<Value>> = (0..size)
                    .map(|k| {
                        vec![Value::Int(
                            (lo + k * width + below(&mut state, width)) as i64,
                        )]
                    })
                    .collect();
                db.load(&format!("Z{f}"), Schema::of(&["v"]), rows)
                    .expect("load zipf filter");
            }
            (db, zipf.doc)
        }
    }
}

/// Draws `k` distinct values of `base..base + domain`.
fn sample(base: i64, domain: usize, k: usize, state: &mut u64) -> Vec<i64> {
    let mut all: Vec<i64> = (0..domain as i64).map(|v| base + v).collect();
    shuffle(&mut all, state);
    all.truncate(k);
    all
}

/// Picks a value of `set` when `inside`, else of `base..base + domain`
/// outside it.
fn pick(set: &[i64], inside: bool, base: i64, domain: usize, state: &mut u64) -> Value {
    if inside {
        return Value::Int(set[below(state, set.len())]);
    }
    loop {
        let v = base + below(state, domain) as i64;
        if !set.contains(&v) {
            return Value::Int(v);
        }
    }
}

/// A Figure 3-shaped random instance: `R1(A,B,C,D)` and `R2(E,F,G,H)` of
/// `2n` rows each and, under `root`, the tree `A[B*][D*][C[E[F[H*]][G*]*]]`
/// of `bench::workloads::fig3_random` (`n` children per level). Every draw
/// picks inside or outside a set of known size on a fixed alternation, so a
/// quarter of `R1` and an eighth of `R2` survive the twig's value filters
/// whatever the seed: which values match is random, how many match is not —
/// the per-request cost stays put from seed to seed.
fn fig3_instance(db: &mut Database, b: &mut DocBuilder, root: usize, n: usize, state: &mut u64) {
    const B0: i64 = 100_000;
    const D0: i64 = 200_000;
    const E0: i64 = 300_000;
    const H0: i64 = 400_000;
    const G0: i64 = 500_000;
    let (a, c, f) = (Value::Int(1), Value::Int(2), Value::Int(3));
    let dom = 2 * n;
    let bs = sample(B0, dom, n, state);
    let ds = sample(D0, dom, n, state);
    let es = sample(E0, dom, n, state);
    let a_node = b.add_node(Some(root), "A", Some(a.clone()));
    for &v in &bs {
        b.add_node(Some(a_node), "B", Some(Value::Int(v)));
    }
    for &v in &ds {
        b.add_node(Some(a_node), "D", Some(Value::Int(v)));
    }
    let c_node = b.add_node(Some(a_node), "C", Some(c.clone()));
    let mut below_e: Vec<(Vec<i64>, Vec<i64>)> = Vec::with_capacity(n);
    for &e in &es {
        let e_node = b.add_node(Some(c_node), "E", Some(Value::Int(e)));
        let f_node = b.add_node(Some(e_node), "F", Some(f.clone()));
        let hs = sample(H0, dom, n, state);
        let gs = sample(G0, dom, n, state);
        for &h in &hs {
            b.add_node(Some(f_node), "H", Some(Value::Int(h)));
        }
        for &g in &gs {
            b.add_node(Some(e_node), "G", Some(Value::Int(g)));
        }
        below_e.push((hs, gs));
    }
    let r1: Vec<Vec<Value>> = (0..2 * n)
        .map(|i| {
            vec![
                a.clone(),
                pick(&bs, i % 2 == 0, B0, dom, state),
                c.clone(),
                pick(&ds, i / 2 % 2 == 0, D0, dom, state),
            ]
        })
        .collect();
    db.load("R1", Schema::of(&["A", "B", "C", "D"]), r1)
        .expect("load R1");
    let r2: Vec<Vec<Value>> = (0..2 * n)
        .map(|j| {
            let k = below(state, n);
            let (e, (hs, gs)) = if j % 2 == 0 {
                (Value::Int(es[k]), below_e[k].clone())
            } else {
                (pick(&es, false, E0, dom, state), (Vec::new(), Vec::new()))
            };
            vec![
                e,
                f.clone(),
                pick(&gs, j / 4 % 2 == 0 && !gs.is_empty(), G0, dom, state),
                pick(&hs, j / 2 % 2 == 0 && !hs.is_empty(), H0, dom, state),
            ]
        })
        .collect();
    db.load("R2", Schema::of(&["E", "F", "G", "H"]), r2)
        .expect("load R2");
}

/// Copies `doc` under `parent` of a builder, re-staging every node with its
/// decoded value.
fn graft(b: &mut DocBuilder, parent: usize, doc: &XmlDocument, dict: &Dict) {
    let mut staged = vec![0usize; doc.len()];
    for id in doc.node_ids() {
        let node = doc.node(id);
        let p = node.parent.map_or(parent, |q| staged[q.index()]);
        staged[id.index()] = b.add_node(
            Some(p),
            doc.tag_name(id),
            Some(dict.decode(node.value).clone()),
        );
    }
}

/// Loads relation `name` of `src` into `dst`, re-interning its values.
fn copy_relation(dst: &mut Database, src: &Database, name: &str) {
    let rel = src.relation(name).expect("source relation exists");
    let names: Vec<&str> = rel.schema().attrs().iter().map(|a| a.name()).collect();
    let rows: Vec<Vec<Value>> = rel
        .rows()
        .map(|r| r.iter().map(|&v| src.dict().decode(v).clone()).collect())
        .collect();
    dst.load(name, Schema::of(&names), rows)
        .expect("load copied relation");
}

fn stmt(text: String, opts: ExecOptions, weight: u32) -> Stmt {
    Stmt { text, opts, weight }
}

/// Builds the workload's statement pool, mix and load model.
pub fn spec(workload: Workload, seed: u64) -> Spec {
    let mut state = seed ^ 0x5eed_5eed;
    match workload {
        Workload::GraphServe => {
            let mut stmts = Vec::new();
            let scan = ExecOptions {
                limit: Some(SCAN_LIMIT),
                ..ExecOptions::default()
            };
            for _ in 0..GRAPH_SCANS {
                let v = below(&mut state, GRAPH_NODES);
                stmts.push(stmt(format!("Q(d) :- E({v}, d)"), scan.clone(), 2));
            }
            for f in 0..GRAPH_FILTERS {
                stmts.push(stmt(
                    format!("Q(a, b, c) :- F{f}(a), E(a, b), E(b, c), E(a, c)"),
                    ExecOptions::default(),
                    14,
                ));
            }
            for f in 0..CLIQUE_FILTERS {
                stmts.push(stmt(
                    format!(
                        "Q(a, b, c, d) :- C{f}(a), E(a, b), E(a, c), E(a, d), E(b, c), E(b, d), E(c, d)"
                    ),
                    ExecOptions::default(),
                    1,
                ));
            }
            let warm = (0..stmts.len()).collect();
            Spec {
                workload,
                seed,
                stmts,
                route: Route::Exec,
                clients: 2,
                cache_budget: None,
                warm,
                churn: None,
            }
        }
        Workload::XmlTwig => {
            let vars = ["A", "B", "C", "D", "E", "F", "G", "H"];
            let mut texts: Vec<String> = Vec::new();
            let mut seen = HashSet::new();
            // The fig3 join under distinct output lists.
            while texts.len() < FIG3_TEXTS {
                let mask = 1 + below(&mut state, 255);
                if !seen.insert(mask) || (mask as u32).count_ones() > 4 {
                    continue;
                }
                let out: Vec<&str> = (0..8)
                    .filter(|b| mask >> b & 1 == 1)
                    .map(|b| vars[b])
                    .collect();
                texts.push(format!(
                    "Q({}) :- R1(A, B, C, D), R2(E, F, G, H), {FIG3_TWIG}",
                    out.join(", ")
                ));
            }
            // The three auction shapes of `examples/auction.rs`, each under
            // drawn constants and output lists.
            let mut seen = HashSet::new();
            while texts.len() < TWIG_POOL {
                let pick = |state: &mut u64, cols: [&str; 2]| match below(state, 3) {
                    0 => cols.join(", "),
                    k => cols[k - 1].to_string(),
                };
                let t = match below(&mut state, 3) {
                    0 => format!(
                        "Q({}) :- standing(personID, {}), //auction[/auctionID][/seller/personID]",
                        pick(&mut state, ["auctionID", "personID"]),
                        below(&mut state, 5)
                    ),
                    1 => format!(
                        "Q({}) :- watchlist({}, itemID), //auction[/itemref/itemID][/current]",
                        pick(&mut state, ["itemID", "current"]),
                        below(&mut state, AUCTION.people)
                    ),
                    _ => format!(
                        "Q({}) :- standing(personref, {}), watchlist(personref, itemID), \
                         //auction[/itemref/itemID][/bidder/personref]",
                        pick(&mut state, ["personref", "itemID"]),
                        below(&mut state, 5)
                    ),
                };
                if seen.insert(t.clone()) {
                    texts.push(t);
                }
            }
            let stmts: Vec<Stmt> = texts
                .into_iter()
                .map(|t| stmt(t, ExecOptions::default(), 1))
                .collect();
            // One representative of each shape warms the shared path tries.
            let mut warm = vec![0];
            for shape in ["seller", "current", "bidder"] {
                if let Some(i) = stmts.iter().position(|s| s.text.contains(shape)) {
                    warm.push(i);
                }
            }
            Spec {
                workload,
                seed,
                stmts,
                route: Route::Query,
                clients: 2,
                cache_budget: Some(TWIG_CACHE_BUDGET),
                warm,
                churn: None,
            }
        }
        Workload::Churn => {
            let opts = ExecOptions::for_engine(EngineKind::Lftj);
            let stmts = vec![stmt(
                "Q(a, b, c) :- F(a), R(a, b), S(b, c), T(a, c)".to_string(),
                opts,
                1,
            )];
            let relations = ["R", "S", "T"];
            let batches = (0..CHURN_BATCHES)
                .map(|k| {
                    let mut rows = Vec::with_capacity(CHURN_BATCH_EDGES * 2);
                    while rows.len() < CHURN_BATCH_EDGES * 2 {
                        let u = below(&mut state, CHURN_NODES) as i64;
                        let v = below(&mut state, CHURN_NODES) as i64;
                        if u != v {
                            rows.push(vec![Value::Int(u), Value::Int(v)]);
                            rows.push(vec![Value::Int(v), Value::Int(u)]);
                        }
                    }
                    (relations[k % 3], rows)
                })
                .collect();
            Spec {
                workload,
                seed,
                stmts,
                route: Route::Exec,
                clients: 2,
                cache_budget: Some(CHURN_CACHE_BUDGET),
                warm: vec![0],
                churn: Some(ChurnPlan {
                    period: Duration::from_millis(CHURN_PERIOD_MS),
                    batches,
                }),
            }
        }
        Workload::SkewAnalytic => {
            let opts = ExecOptions {
                engine: EngineKind::Lftj,
                order: OrderStrategy::Adaptive {
                    ladder: Ladder::Refined,
                },
                parallelism: Parallelism::Threads(2),
                ..ExecOptions::default()
            };
            // The heavy class is the projected triangle through the heavy
            // hitters (Z0), about one request in thirty.
            let triangle = "E(a, b), E(b, c), E(a, c)";
            let branch = "R(a, b), S(a, c), F(b), G(c)";
            let mix = [
                (format!("Q(a) :- Z0(a), {triangle}"), 1),
                (format!("Q(a, b, c) :- Z1(a), {triangle}"), 6),
                (format!("Q(a) :- Z1(a), {triangle}"), 6),
                (format!("Q(a, b, c) :- Z2(a), {triangle}"), 5),
                (format!("Q(a) :- Z2(a), {triangle}"), 5),
                (format!("Q(a, b, c) :- {branch}"), 2),
                (format!("Q(a) :- {branch}"), 8),
            ];
            let stmts: Vec<Stmt> = mix
                .into_iter()
                .map(|(text, weight)| stmt(text, opts.clone(), weight))
                .collect();
            let warm = (0..stmts.len()).collect();
            Spec {
                workload,
                seed,
                stmts,
                route: Route::Exec,
                clients: 1,
                cache_budget: None,
                warm,
                churn: None,
            }
        }
    }
}

/// Computes every statement's expected reply with an engine independent of
/// the serving path: the per-model baseline for twig queries, pairwise hash
/// joins for purely relational ones. Fails when a reply would not fit one
/// protocol frame.
pub fn oracle(spec: &Spec, db: &Database, doc: &XmlDocument) -> Result<Vec<Expect>, String> {
    let index = TagIndex::build(doc);
    let ctx = DataContext::new(db, doc, &index);
    spec.stmts
        .iter()
        .map(|s| {
            let (query, _) = parse_query_with_options(&s.text).map_err(|e| e.to_string())?;
            // The fig3 twig alone has n^5 matches, beyond the per-model
            // baseline; pairwise hash joins over the lowered atoms stay cheap.
            let engine = if query.twigs.is_empty() || s.text.contains(FIG3_TWIG) {
                EngineKind::HashJoin
            } else {
                EngineKind::Baseline {
                    rel_alg: BaselineConfig::default().rel_alg,
                    xml_alg: BaselineConfig::default().xml_alg,
                }
            };
            let out = xjoin_core::execute(&ctx, &query, &ExecOptions::for_engine(engine))
                .map_err(|e| format!("oracle failed on `{}`: {e}", s.text))?;
            expect_from(db.dict(), &out.results, s.opts.limit, &s.text)
        })
        .collect()
}

/// Bytes of the distinct tries the whole statement pool touches: every
/// statement prepared and executed once on an unbounded in-process store.
pub fn working_set_bytes(spec: &Spec, db: Database, doc: XmlDocument) -> Result<usize, String> {
    let store = xjoin_store::VersionedStore::new(db, doc);
    let snap = store.snapshot();
    for s in &spec.stmts {
        let (query, _) = parse_query_with_options(&s.text).map_err(|e| e.to_string())?;
        let prepared = xjoin_store::PreparedQuery::prepare(&snap, &query, s.opts.clone())
            .map_err(|e| e.to_string())?;
        prepared.execute(&snap).map_err(|e| e.to_string())?;
    }
    Ok(store.registry().stats().bytes_in_use)
}

/// Builds an [`Expect`] from a complete result relation.
pub fn expect_from(
    dict: &Dict,
    results: &relational::Relation,
    limit: Option<usize>,
    text: &str,
) -> Result<Expect, String> {
    let columns: Vec<String> = results
        .schema()
        .attrs()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let rows: Vec<Vec<Value>> = results
        .rows()
        .map(|r| r.iter().map(|&v| dict.decode(v).clone()).collect())
        .collect();
    let shown = limit.map_or(rows.len(), |k| k.min(rows.len()));
    let reply_bytes = encode_rows(&columns, &rows[..shown], false).len();
    if reply_bytes > MAX_PAYLOAD {
        return Err(format!(
            "statement `{text}` would reply with {reply_bytes} bytes, above the \
             {MAX_PAYLOAD}-byte frame cap; refusing to run it"
        ));
    }
    let full = fingerprint(&columns, &rows, &columns).expect("same columns");
    let members = limit.map(|_| rows.into_iter().collect());
    Ok(Expect {
        columns,
        full,
        members,
        limit,
        reply_bytes,
    })
}
