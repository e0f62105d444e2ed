//! The traced replay: spans recorded from the benchmark's own code around
//! calls into each layer's public functions, and the per-layer metrics
//! derived from them. Nothing inside the program is instrumented.
//!
//! For a seeded sample of a workload's requests, each request is replayed
//! through the layers in serving order — parse → lower → order → price →
//! prepare → per-atom trie build → walk (→ morsel walk) → validate →
//! `PreparedQuery::execute` → `QueryService` → wire round trip → codec —
//! each call under its own span, all children of one `request` span.
//! Churn requests first append the next scheduled batch (`store.append`).

use crate::load::{send, Served, WORKERS};
use crate::stats::mean;
use crate::workloads::Spec;
use relational::{JoinPlan, LftjWalk, TrieBuilder, ValueId};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xjoin_core::TwigValidator;
use xjoin_core::{compute_order, lower, parse_query_with_options, partition_root, query_log_bound};
use xjoin_serve::protocol::{decode_response, encode_rows, op};
use xjoin_serve::{Client, Response};
use xjoin_store::{PreparedQuery, QueryService};

/// Requests replayed per traced run.
pub const REPLAYS: usize = 24;

/// Morsels per worker, as the morsel scheduler plans them.
const MORSELS_PER_WORKER: usize = 4;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder; spans are written out when the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Duration of span `id`, in ms.
    pub fn ms(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e6
    }

    /// Runs `f` under a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, req, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Each span's duration minus the time its children cover, in ms.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Total self time per span name, in ms.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ms) in self.spans.iter().zip(self.self_ms()) {
            *out.entry(s.name).or_insert(0.0) += ms;
        }
        out
    }

    /// Writes the spans as JSON lines after a header line.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"req\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.req,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Counters gathered during the replay, beside the spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    pub requests: usize,
    pub failures: usize,
    pub trie_rows: u64,
    pub bindings: u64,
    pub walk_rows: u64,
    pub seeks: u64,
    pub seek_steps: u64,
    pub reorders: u64,
    pub estimate_probes: u64,
    pub validate_calls: u64,
    pub validate_lookups: u64,
    pub validate_passed: u64,
    pub reply_bytes: u64,
    pub delta_runs: u64,
    /// Per parallel request: serial walk ms, morsel walk ms, slowest and
    /// mean per-range walk ms.
    pub morsels: Vec<(f64, f64, f64, f64)>,
    /// Per request: queue wait inside the replay's own service.
    pub queue_wait_ms: Vec<f64>,
    /// Per request: round trip minus the layer self times on the server's
    /// path.
    pub unattributed_ms: Vec<f64>,
}

/// Replays `REPLAYS` seeded requests of `spec` through the layers.
/// `next_batch` is the index of the first churn batch not yet written.
pub fn replay(
    spec: &Spec,
    served: &Served,
    tracer: &mut Tracer,
    next_batch: usize,
) -> ReplayCounts {
    let mut counts = ReplayCounts::default();
    let service = QueryService::new(WORKERS);
    let mut client = Client::connect(served.addr).expect("replay connects");
    // A seeded permutation of the pool rather than draws by mix weight, so
    // that the rare heavy class is replayed too (and no statement twice
    // while others are left out).
    let mut state = spec.seed ^ 0x7eac_e000;
    let mut pool: Vec<usize> = (0..spec.stmts.len()).collect();
    crate::stats::shuffle(&mut pool, &mut state);
    for r in 0..REPLAYS as u64 {
        let i = pool[r as usize % pool.len()];
        if replay_one(
            spec,
            served,
            tracer,
            &service,
            &mut client,
            r,
            i,
            next_batch,
            &mut counts,
        )
        .is_none()
        {
            counts.failures += 1;
        }
        counts.requests += 1;
    }
    counts
}

#[allow(clippy::too_many_arguments)]
fn replay_one(
    spec: &Spec,
    served: &Served,
    tr: &mut Tracer,
    service: &QueryService,
    client: &mut Client,
    r: u64,
    i: usize,
    next_batch: usize,
    counts: &mut ReplayCounts,
) -> Option<()> {
    let stmt = &spec.stmts[i];
    let root = tr.open("request", r, None);
    if let Some(plan) = &spec.churn {
        let (name, rows) = plan.batches.get(next_batch + r as usize)?.clone();
        tr.time("store.append", r, root, || served.store.append(name, rows))
            .ok()?;
    }
    let (query, text_order) = tr
        .time("mmql.parse", r, root, || {
            parse_query_with_options(&stmt.text)
        })
        .ok()?;
    let mut opts = stmt.opts.clone();
    if let Some(order) = text_order {
        opts.order = order;
    }
    let snap = served.store.snapshot();
    let ctx = snap.ctx();
    let atoms = tr
        .time("engine.lower", r, root, || lower(&ctx, &query))
        .ok()?;
    let order = tr
        .time("order.compute", r, root, || {
            compute_order(&atoms, &opts.order)
        })
        .ok()?;
    tr.time("bounds.price", r, root, || query_log_bound(&atoms))
        .ok()?;
    let prepared = tr
        .time("prepared.prepare", r, root, || {
            PreparedQuery::prepare(&snap, &query, opts.clone())
        })
        .ok()?;

    let mut tries = Vec::with_capacity(atoms.rels.len());
    for atom in &atoms.rels {
        let rel = atom.rel();
        let levels = rel.schema().restrict_order(&order).ok()?;
        counts.trie_rows += rel.len() as u64;
        tries.push(
            tr.time("trie.build", r, root, || {
                TrieBuilder::new().build(rel, &levels)
            })
            .ok()?,
        );
    }
    let plan = JoinPlan::from_tries(tries, &order)
        .ok()?
        .with_ladder(opts.order.ladder());

    let walk_span = tr.open("lftj.walk", r, Some(root));
    let mut walk = LftjWalk::new(plan.clone()).with_probe_counters();
    let mut tuples: Vec<ValueId> = Vec::new();
    let mut walk_rows = 0u64;
    while let Some(t) = walk.next_tuple() {
        tuples.extend_from_slice(t);
        walk_rows += 1;
    }
    tr.close(walk_span);
    counts.walk_rows += walk_rows;
    counts.bindings += walk.bindings();
    counts.reorders += walk.reorders();
    counts.estimate_probes += walk.estimate_probes();
    for p in walk.probe_stats() {
        counts.seeks += p.seeks;
        counts.seek_steps += p.seek_steps;
    }

    // The morsel probe runs for every request, whatever its pinned
    // parallelism: the partition the scheduler would cut, walked on the
    // service's worker count.
    let workers = opts.parallelism.workers().max(WORKERS);
    {
        let serial_ms = tr.ms(walk_span);
        let ranges = partition_root(&plan, workers * MORSELS_PER_WORKER);
        let per_range = Mutex::new(vec![0.0f64; ranges.len()]);
        let next = AtomicUsize::new(0);
        let span = tr.open("morsel.walk", r, Some(root));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::SeqCst);
                    let Some(range) = ranges.get(k) else { break };
                    let t0 = Instant::now();
                    let mut w = LftjWalk::with_root_range(plan.clone(), range.clone());
                    while w.next_tuple().is_some() {}
                    per_range.lock().expect("range timings")[k] = t0.elapsed().as_secs_f64() * 1e3;
                });
            }
        });
        tr.close(span);
        let morsel_ms = tr.ms(span);
        let per_range = per_range.into_inner().expect("range timings");
        let slowest = per_range.iter().copied().fold(0.0, f64::max);
        counts
            .morsels
            .push((serial_ms, morsel_ms, slowest, mean(&per_range)));
    }

    if !query.twigs.is_empty() {
        let arity = order.len();
        let span = tr.open("validate", r, Some(root));
        let mut validators: Vec<TwigValidator<'_>> = query
            .twigs
            .iter()
            .map(|t| TwigValidator::new(ctx.doc, ctx.index, t, &order))
            .collect::<Result<_, _>>()
            .ok()?;
        for t in tuples.chunks_exact(arity) {
            if validators.iter_mut().all(|v| v.check(t)) {
                counts.validate_passed += 1;
            }
        }
        tr.close(span);
        for v in &validators {
            counts.validate_calls += v.calls as u64;
            counts.validate_lookups += v.lookups as u64;
        }
    }

    let out = tr
        .time("prepared.exec", r, root, || prepared.execute(&snap))
        .ok()?;
    counts.delta_runs += out.stats.delta_runs as u64;

    let prepared = Arc::new(prepared);
    let span = tr.open("service", r, Some(root));
    let served_out = service.submit(prepared, snap.clone()).wait().ok()?;
    tr.close(span);
    let service_ms = tr.ms(span);
    counts
        .queue_wait_ms
        .push(service_ms - served_out.stats.elapsed.as_secs_f64() * 1e3);

    let span = tr.open("server.roundtrip", r, Some(root));
    let reply = send(client, spec, &served.stmt_ids, i);
    tr.close(span);
    let wire_ms = tr.ms(span);
    let Ok(Response::Rows(rows)) = reply else {
        tr.close(root);
        return None;
    };

    let span = tr.open("server.codec", r, Some(root));
    let bytes = encode_rows(&rows.columns, &rows.rows, rows.truncated);
    let decoded = decode_response(op::ROWS, &bytes);
    tr.close(span);
    decoded.ok()?;
    counts.reply_bytes += bytes.len() as u64;
    let codec_ms = tr.ms(span);

    // The server's own path for this request: the service (queue +
    // execute) and the reply codec, plus parse + prepare on an ad-hoc QUERY
    // and lower + price after a write.
    let by_name = |name: &str| {
        (root..tr.spans.len())
            .filter(|&id| tr.spans[id].name == name)
            .map(|id| tr.ms(id))
            .sum::<f64>()
    };
    let mut attributed = service_ms + codec_ms;
    if spec.route == crate::workloads::Route::Query {
        attributed += by_name("mmql.parse") + by_name("prepared.prepare");
    }
    if spec.churn.is_some() {
        // The server re-prices a statement once per store epoch.
        attributed += by_name("engine.lower") + by_name("bounds.price");
    }
    counts.unattributed_ms.push(wire_ms - attributed);
    tr.close(root);
    Some(())
}
