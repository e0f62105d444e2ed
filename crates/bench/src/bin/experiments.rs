//! Regenerates every quantitative artefact of the paper as text tables, and
//! records the measured runs as machine-readable JSON.
//!
//! ```text
//! experiments [bounds|fig3|lemma35|bookstore|ablation|store|threads|build|probe|overhead|serve|churn|skew|trace|all|quick] \
//!             [--max-n N] [--json PATH] [--threads 1,2,4] [--quick]
//! experiments diff --baseline BENCH_results.json --current BENCH_quick.json \
//!             [--tolerance 1.5] [--skip PREFIX]... [--min-ms 1.0]
//! ```
//!
//! * `bounds` — E3/E4: LP-computed size-bound exponents of Examples 3.3
//!   and 3.4 against the paper's stated values;
//! * `fig3` — E1/E2: the Figure 3 bar chart (running time and intermediate
//!   size, Baseline vs XJoin) on AGM-tight and random instances, swept over n;
//! * `lemma35` — E5: empirical check that every XJoin intermediate obeys the
//!   prefix AGM bound;
//! * `bookstore` — E6: the Figure 1 end-to-end example;
//! * `ablation` — extensions: variable orders, partial validation, A-D
//!   filtering, baseline engine choices;
//! * `store` — serving layer: cold-build vs warm-cache prepared-query
//!   latency through `xjoin-store`;
//! * `threads` — morsel-parallel scaling: the triangle and 4-clique
//!   workloads swept over worker counts (`--threads`), speedups vs serial;
//! * `build` — cold trie-construction throughput: the columnar
//!   `TrieBuilder` vs the original row-materialising reference builder on
//!   shuffled and pre-sorted inputs (the PR-5 acceptance numbers);
//! * `probe` — LFTJ probe-kernel throughput on million-tuple random graphs:
//!   the scalar gallop kernel vs the batched block kernel, with and without
//!   per-level bitset indexes (the PR-6 acceptance numbers);
//! * `overhead` — the PR-7 observability acceptance gate: an interleaved
//!   A/B on the 4-clique probe asserting that a disabled `xjoin_obs` span
//!   guard per tuple pull costs under 2% vs the plain drain, with the
//!   probe-counter (`explain_analyze`) mode as an informational row;
//! * `serve` — the PR-8 serving front end under mixed load: an `xjoin-serve`
//!   TCP server over loopback, concurrent cheap (edge-scan) and expensive
//!   (4-clique) clients, run twice — AGM-based admission control on vs off —
//!   recording cheap-query p50/p99 latency, throughput, and admission
//!   accept/reject counts (`--quick` shrinks the workload and makes the
//!   p99 comparison informational);
//! * `churn` — the PR-9 delta-trie acceptance gate: warm-query latency
//!   right after appends on a filtered triangle over three edge relations,
//!   delta overlays on vs off, asserting the post-write median stays at
//!   least 5× below the full-rebuild median and within 1.25× of the
//!   no-write probe (`--quick` shrinks the workload and reports the
//!   comparison informationally);
//! * `skew` — the PR-10 adaptive-ordering acceptance gate: the
//!   skew-adversarial branch workload (`Q(a,b,c) :- R(a,b), S(a,c), F(b),
//!   G(c)` with parity-alternating heavy branches) where
//!   `OrderStrategy::Adaptive` must beat the best static order by >= 2x,
//!   plus uniform fig3/triangle/4-clique probes where it must stay within
//!   1.05x of the static walk (`--quick` shrinks the workload and makes
//!   both comparisons informational);
//! * `trace` — runs the fig3 and 4-clique workloads through the query
//!   service with tracing enabled and writes `trace.json` (Chrome
//!   trace-event, load at <https://ui.perfetto.dev>), `flamegraph.txt`
//!   (collapsed stacks), and `metrics.txt`/`metrics.json` (the serving
//!   metrics snapshot), printing `explain_analyze` for both workloads;
//! * `diff` — the CI regression gate: compares the tracked row families
//!   (`build/*`, `fig3/*`, `probe/*`) of two JSON reports by exact name and
//!   exits nonzero when a current `wall_ms` exceeds `--tolerance` (default
//!   1.5×) times its baseline; `--skip PREFIX` (repeatable) waives noisy
//!   families such as `threads/`, and rows whose baseline is under
//!   `--min-ms` (default 1 ms) are ignored as timer noise;
//! * `quick` — a fast subset (bounds, small fig3, bookstore, store,
//!   threads, build, probe, churn, skew) for CI.
//!
//! Every timed run is collected into a JSON report — an array of
//! `{"name", "wall_ms", "build_ms", "max_intermediate", "output_rows"}`
//! objects (`build_ms` = trie-construction share of `wall_ms`, 0 where not
//! applicable) — so the perf trajectory across PRs is recorded and
//! diffable. Only the full `all` suite writes to `BENCH_results.json` in
//! the working directory by default; `quick` defaults to a separate
//! `BENCH_quick.json` and single experiments only write when `--json PATH`
//! is given, so no partial trajectory ever clobbers the committed full
//! record.

use agm::{agm_exponent, vertex_packing, Hypergraph};
use bench::workloads::{
    bookstore, bookstore_query, clique4_query, fig2_instance, fig2_query, fig3_query, fig3_random,
    fig3_tight, graph_instance, triangle_query, FIG3_TWIG,
};
use std::fmt::Write as _;
use std::time::Instant;
use xjoin_core::{
    execute, explain_analyze, lower, prefix_bounds, query_bound, DataContext, EngineKind,
    ExecOptions, MultiModelQuery, OrderStrategy, Parallelism, RelAlg, XmlAlg,
};
use xjoin_store::{PreparedQuery, QueryService, VersionedStore};

/// One measured run, as serialised to the JSON report.
struct BenchRecord {
    name: String,
    wall_ms: f64,
    /// Trie-construction share of `wall_ms` (0 where unknown or n/a).
    build_ms: f64,
    max_intermediate: usize,
    output_rows: usize,
}

/// Collects [`BenchRecord`]s across experiments and writes them as JSON.
#[derive(Default)]
struct Report {
    records: Vec<BenchRecord>,
}

impl Report {
    fn add(&mut self, name: impl Into<String>, wall_ms: f64, max_int: usize, rows: usize) {
        self.add_with_build(name, wall_ms, 0.0, max_int, rows);
    }

    fn add_with_build(
        &mut self,
        name: impl Into<String>,
        wall_ms: f64,
        build_ms: f64,
        max_int: usize,
        rows: usize,
    ) {
        self.records.push(BenchRecord {
            name: name.into(),
            wall_ms,
            build_ms,
            max_intermediate: max_int,
            output_rows: rows,
        });
    }

    /// Renders the report as a JSON array (names are ASCII identifiers; only
    /// quotes and backslashes need escaping). The first element is a host
    /// metadata stamp — logical cores, `XJOIN_TEST_THREADS`, toolchain — so
    /// hardware-sensitive rows (`threads/*` especially) stay interpretable
    /// when the report is read away from the machine that produced it. It
    /// has no `"name"` key, so [`parse_report`] and the diff gate skip it.
    fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        let _ = write!(
            out,
            "  {{\"host_logical_cores\": {}, \"host_xjoin_test_threads\": \"{}\", \"host_toolchain\": \"{}\"}}",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            json_escape(&std::env::var("XJOIN_TEST_THREADS").unwrap_or_else(|_| "unset".into())),
            json_escape(&toolchain()),
        );
        out.push_str(if self.records.is_empty() { "\n" } else { ",\n" });
        for (i, r) in self.records.iter().enumerate() {
            let name = r.name.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(
                out,
                "  {{\"name\": \"{}\", \"wall_ms\": {:.4}, \"build_ms\": {:.4}, \"max_intermediate\": {}, \"output_rows\": {}}}",
                name, r.wall_ms, r.build_ms, r.max_intermediate, r.output_rows
            );
            out.push_str(if i + 1 < self.records.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }

    fn write(&self, path: &str) {
        match std::fs::write(path, self.to_json()) {
            Ok(()) => println!("\nwrote {} records to {path}", self.records.len()),
            Err(e) => eprintln!("\nfailed to write {path}: {e}"),
        }
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The compiler version string (`rustc -V`), or `"unknown"` when rustc is
/// not on PATH (e.g. running a prebuilt binary on a bare host).
fn toolchain() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = "all".to_string();
    let mut max_n = 12usize;
    let mut json_path: Option<String> = None;
    let mut threads: Vec<usize> = vec![1, 2, 4];
    let mut baseline = "BENCH_results.json".to_string();
    let mut current: Option<String> = None;
    let mut tolerance = 1.5f64;
    let mut skips: Vec<String> = Vec::new();
    let mut min_ms = 1.0f64;
    let mut quick_flag = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--max-n" => {
                i += 1;
                max_n = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--max-n needs an integer");
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).expect("--json needs a path").clone());
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .expect("--threads needs a comma-separated list, e.g. 1,2,4")
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads entries are integers"))
                    .filter(|&n| n >= 1)
                    .collect();
                assert!(!threads.is_empty(), "--threads needs at least one count");
            }
            "--baseline" => {
                i += 1;
                baseline = args.get(i).expect("--baseline needs a path").clone();
            }
            "--current" => {
                i += 1;
                current = Some(args.get(i).expect("--current needs a path").clone());
            }
            "--tolerance" => {
                i += 1;
                tolerance = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--tolerance needs a number, e.g. 1.5");
                assert!(tolerance >= 1.0, "--tolerance must be >= 1.0");
            }
            "--skip" => {
                i += 1;
                skips.push(args.get(i).expect("--skip needs a name prefix").clone());
            }
            "--min-ms" => {
                i += 1;
                min_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--min-ms needs a number, e.g. 1.0");
            }
            "--quick" => quick_flag = true,
            other => cmd = other.to_string(),
        }
        i += 1;
    }

    if cmd == "diff" {
        let current = current.unwrap_or_else(|| {
            eprintln!("diff needs --current PATH (the freshly measured report)");
            std::process::exit(2);
        });
        std::process::exit(run_diff(&baseline, &current, tolerance, &skips, min_ms));
    }

    let mut report = Report::default();
    // The acceptance gates (build >= 2x vs the reference builder, probe
    // >= 1.5x vs the scalar kernel, disabled-tracer overhead < 2%). Checked
    // after the report is written so a regression keeps its evidence.
    let mut build_ok = true;
    let mut probe_ok = true;
    let mut overhead_ok = true;
    let mut serve_ok = true;
    let mut churn_ok = true;
    let mut skew_ok = true;
    match cmd.as_str() {
        "bounds" => exp_bounds(),
        "fig3" => exp_fig3(max_n, &mut report),
        "lemma35" => exp_lemma35(&mut report),
        "bookstore" => exp_bookstore(&mut report),
        "ablation" => exp_ablation(&mut report),
        "store" => exp_store(&mut report),
        "threads" => exp_threads(&threads, &mut report),
        "build" => build_ok = exp_build(&mut report),
        "probe" => probe_ok = exp_probe(&mut report, false),
        "overhead" => overhead_ok = exp_overhead(&mut report, false),
        "serve" => serve_ok = exp_serve(&mut report, quick_flag),
        "churn" => churn_ok = exp_churn(&mut report, quick_flag),
        "skew" => skew_ok = exp_skew(&mut report, quick_flag),
        "trace" => exp_trace(),
        "all" => {
            exp_bounds();
            exp_fig3(max_n, &mut report);
            exp_lemma35(&mut report);
            exp_bookstore(&mut report);
            exp_ablation(&mut report);
            exp_store(&mut report);
            exp_threads(&threads, &mut report);
            build_ok = exp_build(&mut report);
            probe_ok = exp_probe(&mut report, false);
            overhead_ok = exp_overhead(&mut report, false);
            serve_ok = exp_serve(&mut report, false);
            churn_ok = exp_churn(&mut report, false);
            skew_ok = exp_skew(&mut report, false);
        }
        "quick" => {
            exp_bounds();
            exp_fig3(max_n.min(4), &mut report);
            exp_lemma35(&mut report);
            exp_bookstore(&mut report);
            exp_ablation(&mut report);
            exp_store(&mut report);
            exp_threads(&threads, &mut report);
            build_ok = exp_build(&mut report);
            probe_ok = exp_probe(&mut report, true);
            overhead_ok = exp_overhead(&mut report, true);
            churn_ok = exp_churn(&mut report, true);
            skew_ok = exp_skew(&mut report, true);
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!(
                "usage: experiments [bounds|fig3|lemma35|bookstore|ablation|store|threads|build|probe|overhead|serve|churn|skew|trace|all|quick] [--max-n N] [--json PATH] [--threads 1,2,4] [--quick]\n       experiments diff --baseline BASE.json --current CUR.json [--tolerance 1.5] [--skip PREFIX]... [--min-ms 1.0]"
            );
            std::process::exit(2);
        }
    }
    // `quick` gets its own default output file: CI uploads it as a fresh
    // measurement to diff against the committed BENCH_results.json, and the
    // partial trajectory never overwrites the full committed record.
    match (json_path, cmd.as_str()) {
        (Some(path), _) => report.write(&path),
        (None, "all") => report.write("BENCH_results.json"),
        (None, "quick") => report.write("BENCH_quick.json"),
        (None, _) => println!(
            "\n(partial run; pass --json PATH to record its {} timed runs)",
            report.records.len()
        ),
    }
    if !build_ok {
        eprintln!(
            "FAIL: columnar trie builder fell below the 2x acceptance bar vs the reference \
             (see the build/* records above)"
        );
    }
    if !probe_ok {
        eprintln!(
            "FAIL: probe kernels fell below the 1.5x acceptance bar vs the scalar kernel \
             (see the probe/* records above)"
        );
    }
    if !overhead_ok {
        eprintln!(
            "FAIL: the disabled tracer cost more than 2% on the 4-clique probe \
             (see the overhead/* records above)"
        );
    }
    if !serve_ok {
        eprintln!(
            "FAIL: admission control did not lower cheap-query p99 under mixed load \
             (see the serve/* records above)"
        );
    }
    if !churn_ok {
        eprintln!(
            "FAIL: post-write delta latency missed the 5x-vs-rebuild / 1.25x-vs-probe bar \
             (see the churn/* records above)"
        );
    }
    if !skew_ok {
        eprintln!(
            "FAIL: adaptive ordering missed the 2x-vs-best-static bar on the skewed branch \
             workload, or exceeded 1.05x a static walk on a uniform probe \
             (see the skew/* records above)"
        );
    }
    if !build_ok || !probe_ok || !overhead_ok || !serve_ok || !churn_ok || !skew_ok {
        std::process::exit(1);
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// E3 + E4: size-bound exponents of the paper's worked examples.
fn exp_bounds() {
    header("E3: Example 3.3 size bounds (Figure 2 query) — LP vs paper");
    // Build the hypergraphs exactly as the paper describes.
    let mut q = Hypergraph::new();
    q.edge("R1", &["B", "D"]);
    q.edge("R2", &["F", "G", "H"]);
    q.edge("R3", &["A", "B"]);
    q.edge("R4", &["A", "D"]);
    q.edge("R5", &["C", "E"]);
    q.edge("R6", &["F", "H"]);
    q.edge("R7", &["G"]);
    let mut twig_only = Hypergraph::new();
    twig_only.edge("R3", &["A", "B"]);
    twig_only.edge("R4", &["A", "D"]);
    twig_only.edge("R5", &["C", "E"]);
    twig_only.edge("R6", &["F", "H"]);
    twig_only.edge("R7", &["G"]);
    println!("{:<28} {:>10} {:>10}", "query", "LP rho*", "paper");
    println!(
        "{:<28} {:>10.3} {:>10}",
        "twig X (transformed)",
        agm_exponent(&twig_only).expect("covered"),
        "5"
    );
    println!(
        "{:<28} {:>10.3} {:>10}",
        "Q = R1 |><| R2 |><| X",
        agm_exponent(&q).expect("covered"),
        "7/2"
    );
    let dual = vertex_packing(&q).expect("covered");
    println!(
        "dual (Eq. 1) optimum = {:.3}  (strong duality holds: {})",
        dual.value,
        (dual.value - agm_exponent(&q).unwrap()).abs() < 1e-6
    );
    // Same numbers derived from an actual instance through the engine's own
    // lowering (twig parsed, decomposed, path relations materialised).
    let inst = fig2_instance(2);
    let idx = inst.index();
    let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
    let atoms = lower(&ctx, &fig2_query()).expect("lowering succeeds");
    println!(
        "engine-lowered exponent      {:>10.3}  (from parsed twig `{FIG3_TWIG}`)",
        xjoin_core::query_exponent(&atoms).expect("covered")
    );

    header("E4: Example 3.4 size bounds (Figure 3 query)");
    let mut q34 = Hypergraph::new();
    q34.edge("R1", &["A", "B", "C", "D"]);
    q34.edge("R2", &["E", "F", "G", "H"]);
    q34.edge("R3", &["A", "B"]);
    q34.edge("R4", &["A", "D"]);
    q34.edge("R5", &["C", "E"]);
    q34.edge("R6", &["F", "H"]);
    q34.edge("R7", &["G"]);
    let mut q1 = Hypergraph::new();
    q1.edge("R1", &["A", "B", "C", "D"]);
    q1.edge("R2", &["E", "F", "G", "H"]);
    println!("{:<28} {:>10} {:>10}", "query", "LP rho*", "paper");
    println!(
        "{:<28} {:>10.3} {:>10}",
        "Q (mixed)",
        agm_exponent(&q34).unwrap(),
        "2"
    );
    println!(
        "{:<28} {:>10.3} {:>10}",
        "Q1 (relational only)",
        agm_exponent(&q1).unwrap(),
        "2"
    );
    println!(
        "{:<28} {:>10.3} {:>10}",
        "Q2 (twig only)",
        agm_exponent(&twig_only).unwrap(),
        "5"
    );
}

struct Fig3Row {
    n: usize,
    xjoin_ms: f64,
    base_ms: f64,
    xjoin_max_int: usize,
    base_max_int: usize,
    result: usize,
    bound: f64,
}

fn run_fig3_instance(inst: &bench::workloads::Instance, q: &MultiModelQuery) -> Fig3Row {
    let idx = inst.index();
    let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
    let t0 = Instant::now();
    let x = execute(&ctx, q, &ExecOptions::default()).expect("xjoin runs");
    let xjoin_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let b = execute(
        &ctx,
        q,
        &ExecOptions::for_engine(EngineKind::Baseline {
            rel_alg: RelAlg::default(),
            xml_alg: XmlAlg::default(),
        }),
    )
    .expect("baseline runs");
    let base_ms = t0.elapsed().as_secs_f64() * 1e3;
    let atoms = lower(&ctx, q).expect("lowering succeeds");
    let bound = query_bound(&atoms).expect("bound computes");
    assert_eq!(x.results.len(), b.results.len(), "engines disagree");
    Fig3Row {
        n: 0,
        xjoin_ms,
        base_ms,
        xjoin_max_int: x.stats.max_intermediate(),
        base_max_int: b.stats.max_intermediate(),
        result: x.results.len(),
        bound,
    }
}

fn record_fig3_row(report: &mut Report, label: &str, row: &Fig3Row) {
    report.add(
        format!("fig3/{label}/n={}/xjoin", row.n),
        row.xjoin_ms,
        row.xjoin_max_int,
        row.result,
    );
    report.add(
        format!("fig3/{label}/n={}/baseline", row.n),
        row.base_ms,
        row.base_max_int,
        row.result,
    );
}

/// E1 + E2: the Figure 3 comparison.
fn exp_fig3(max_n: usize, report: &mut Report) {
    header("E1/E2: Figure 3 — Baseline vs XJoin (AGM-tight instances)");
    println!(
        "{:>4} {:>10} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "n",
        "|Q|",
        "xjoin ms",
        "base ms",
        "t-ratio",
        "xjoin maxI",
        "base maxI",
        "I-ratio",
        "bound n^2",
        "n^5"
    );
    let mut ns = vec![2usize, 4, 6, 8];
    ns.retain(|&n| n <= max_n);
    if !ns.contains(&max_n) {
        ns.push(max_n);
    }
    for &n in &ns {
        let inst = fig3_tight(n);
        let mut row = run_fig3_instance(&inst, &fig3_query());
        row.n = n;
        record_fig3_row(report, "tight", &row);
        println!(
            "{:>4} {:>10} {:>12.3} {:>12.3} {:>8.1} {:>12} {:>12} {:>8.1} {:>10.0} {:>10}",
            row.n,
            row.result,
            row.xjoin_ms,
            row.base_ms,
            row.base_ms / row.xjoin_ms,
            row.xjoin_max_int,
            row.base_max_int,
            row.base_max_int as f64 / row.xjoin_max_int.max(1) as f64,
            row.bound,
            n.pow(5),
        );
        assert!(
            row.xjoin_max_int as f64 <= row.bound + 1e-6,
            "Lemma 3.5 violated"
        );
    }

    header("E1/E2: Figure 3 — Baseline vs XJoin (random instances, domain = n)");
    println!(
        "{:>4} {:>6} {:>10} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8}",
        "n", "seed", "|Q|", "xjoin ms", "base ms", "t-ratio", "xjoin maxI", "base maxI", "I-ratio"
    );
    for &n in &ns {
        for seed in 0..2u64 {
            let inst = fig3_random(n, n as i64, seed);
            let mut row = run_fig3_instance(&inst, &fig3_query());
            row.n = n;
            record_fig3_row(report, &format!("random/seed={seed}"), &row);
            println!(
                "{:>4} {:>6} {:>10} {:>12.3} {:>12.3} {:>8.1} {:>12} {:>12} {:>8.1}",
                row.n,
                seed,
                row.result,
                row.xjoin_ms,
                row.base_ms,
                row.base_ms / row.xjoin_ms,
                row.xjoin_max_int,
                row.base_max_int,
                row.base_max_int as f64 / row.xjoin_max_int.max(1) as f64,
            );
        }
    }
}

/// E5: Lemma 3.5 — every intermediate obeys the prefix bound.
fn exp_lemma35(report: &mut Report) {
    header("E5: Lemma 3.5 — XJoin intermediates vs prefix AGM bounds");
    println!(
        "{:>4} {:>6} {:<10} {:>14} {:>14} {:>6}",
        "n", "seed", "stage", "intermediate", "prefix bound", "ok"
    );
    let mut all_ok = true;
    for n in [3usize, 5] {
        for seed in 0..2u64 {
            let inst = fig3_random(n, n as i64, seed);
            let idx = inst.index();
            let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
            let q = fig3_query();
            let t0 = Instant::now();
            let out = execute(&ctx, &q, &ExecOptions::default()).expect("xjoin runs");
            report.add(
                format!("lemma35/n={n}/seed={seed}/xjoin"),
                t0.elapsed().as_secs_f64() * 1e3,
                out.stats.max_intermediate(),
                out.results.len(),
            );
            let atoms = lower(&ctx, &q).expect("lowering succeeds");
            let bounds = prefix_bounds(&atoms, &out.order).expect("bounds compute");
            let expand: Vec<_> = out
                .stats
                .stages
                .iter()
                .filter(|s| s.label.starts_with("expand"))
                .collect();
            for (stage, bound) in expand.iter().zip(&bounds) {
                let ok = (stage.tuples as f64) <= bound + 1e-6;
                all_ok &= ok;
                println!(
                    "{:>4} {:>6} {:<10} {:>14} {:>14.1} {:>6}",
                    n,
                    seed,
                    stage.label.trim_start_matches("expand "),
                    stage.tuples,
                    bound,
                    if ok { "yes" } else { "NO" }
                );
            }
        }
    }
    println!("Lemma 3.5 holds on all sampled stages: {all_ok}");
    assert!(all_ok);
}

/// E6: the Figure 1 example.
fn exp_bookstore(report: &mut Report) {
    header("E6: Figure 1 — bookstore join (Q(userID, ISBN, price))");
    let inst = bookstore();
    let idx = inst.index();
    let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
    let t0 = Instant::now();
    let out = execute(&ctx, &bookstore_query(), &ExecOptions::default()).expect("xjoin runs");
    report.add(
        "bookstore/xjoin",
        t0.elapsed().as_secs_f64() * 1e3,
        out.stats.max_intermediate(),
        out.results.len(),
    );
    print!("{}", inst.db.render_table(&out.results));
    println!("(paper's expected rows: jack/978-3-16-1/30 and tom/634-3-12-2/20)");
}

/// Extensions: ablations over engine options.
fn exp_ablation(report: &mut Report) {
    header("Ablation: XJoin options on the tight instance (n = 6)");
    let inst = fig3_tight(6);
    let idx = inst.index();
    let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
    let q = fig3_query();
    // Every XJoin variant and every plan-based engine must return exactly
    // the default run's result set (compared in its column order).
    let reference = execute(&ctx, &q, &ExecOptions::default())
        .expect("xjoin runs")
        .results;
    let same_set = |out: &relational::Relation| {
        out.reorder(reference.schema().attrs())
            .is_ok_and(|r| r.set_eq(&reference))
    };
    println!(
        "{:<34} {:>10} {:>12} {:>12}",
        "configuration", "result", "max interm.", "time ms"
    );
    let configs: Vec<(&str, ExecOptions)> = vec![
        ("default (Algorithm 1)", ExecOptions::default()),
        (
            "+ A-D filter",
            ExecOptions {
                ad_filter: true,
                ..Default::default()
            },
        ),
        (
            "+ partial validation",
            ExecOptions {
                partial_validation: true,
                ..Default::default()
            },
        ),
        (
            "+ both (paper's future work)",
            ExecOptions {
                ad_filter: true,
                partial_validation: true,
                ..Default::default()
            },
        ),
        (
            "cardinality order",
            ExecOptions {
                order: OrderStrategy::Cardinality,
                ..Default::default()
            },
        ),
    ];
    for (name, opts) in configs {
        let t0 = Instant::now();
        let out = execute(&ctx, &q, &opts).expect("xjoin runs");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(same_set(&out.results), "xjoin variant `{name}` diverged");
        report.add(
            format!("ablation/xjoin/{name}"),
            ms,
            out.stats.max_intermediate(),
            out.results.len(),
        );
        println!(
            "{:<34} {:>10} {:>12} {:>12.3}",
            name,
            out.results.len(),
            out.stats.max_intermediate(),
            ms
        );
    }

    header("Ablation: baseline engine choices on the tight instance (n = 6)");
    println!(
        "{:<34} {:>10} {:>12} {:>12}",
        "configuration", "result", "max interm.", "time ms"
    );
    for (name, kind) in [
        (
            "hash + TwigStack",
            EngineKind::Baseline {
                rel_alg: RelAlg::Hash,
                xml_alg: XmlAlg::TwigStack,
            },
        ),
        (
            "LFTJ + TwigStack",
            EngineKind::Baseline {
                rel_alg: RelAlg::Lftj,
                xml_alg: XmlAlg::TwigStack,
            },
        ),
        (
            "hash + navigational",
            EngineKind::Baseline {
                rel_alg: RelAlg::Hash,
                xml_alg: XmlAlg::Navigational,
            },
        ),
        (
            "hash + TJFast (ext. Dewey)",
            EngineKind::Baseline {
                rel_alg: RelAlg::Hash,
                xml_alg: XmlAlg::Tjfast,
            },
        ),
    ] {
        let t0 = Instant::now();
        let out = execute(&ctx, &q, &ExecOptions::for_engine(kind)).expect("baseline runs");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        report.add(
            format!("ablation/baseline/{name}"),
            ms,
            out.stats.max_intermediate(),
            out.results.len(),
        );
        println!(
            "{:<34} {:>10} {:>12} {:>12.3}",
            name,
            out.results.len(),
            out.stats.max_intermediate(),
            ms
        );
    }

    header("Unified API: every EngineKind on the tight instance (n = 6)");
    println!(
        "{:<34} {:>10} {:>12} {:>12}",
        "engine", "result", "max interm.", "time ms"
    );
    for kind in EngineKind::all() {
        let t0 = Instant::now();
        let out = execute(&ctx, &q, &ExecOptions::for_engine(kind)).expect("engine runs");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let n = out.results.len();
        assert_eq!(reference.len(), n, "engine {kind} diverged");
        if kind.is_plan_based() {
            assert!(same_set(&out.results), "engine {kind} diverged");
        }
        report.add(
            format!("ablation/engine/{kind}"),
            ms,
            out.stats.max_intermediate(),
            n,
        );
        println!(
            "{:<34} {:>10} {:>12} {:>12.3}",
            kind.to_string(),
            n,
            out.stats.max_intermediate(),
            ms
        );
    }
}

/// Serving layer: cold-build vs warm-cache latency of a prepared query
/// through `xjoin-store` (the new-subsystem claim: repeated executions stop
/// paying the per-query index-construction cost).
fn exp_store(report: &mut Report) {
    header("Store: prepared-query latency, cold build vs warm trie cache (n = 8)");
    let inst = fig3_tight(8);
    let store = VersionedStore::new(inst.db, inst.doc);
    let snap = store.snapshot();
    let prepared =
        PreparedQuery::prepare(&snap, &fig3_query(), ExecOptions::default()).expect("prepare");

    const RUNS: usize = 5;
    let mut cold_ms = 0.0f64;
    let mut cold_build_ms = 0.0f64;
    let mut warm_ms = 0.0f64;
    let mut out_rows = 0usize;
    let mut max_int = 0usize;
    for _ in 0..RUNS {
        store.registry().clear();
        let t0 = Instant::now();
        let out = prepared.execute(&snap).expect("cold execute");
        cold_ms += t0.elapsed().as_secs_f64() * 1e3;
        cold_build_ms += out.stats.build_elapsed.as_secs_f64() * 1e3;
        out_rows = out.results.len();
        max_int = out.stats.max_intermediate();
    }
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let out = prepared.execute(&snap).expect("warm execute");
        warm_ms += t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(out.stats.tries_built, 0, "warm run rebuilt a trie");
    }
    cold_ms /= RUNS as f64;
    cold_build_ms /= RUNS as f64;
    warm_ms /= RUNS as f64;
    let stats = store.registry().stats();
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>10}",
        "mode", "avg ms", "build ms", "max interm.", "result"
    );
    println!(
        "{:<20} {:>12.3} {:>12.3} {:>12} {:>10}",
        "cold build", cold_ms, cold_build_ms, max_int, out_rows
    );
    println!(
        "{:<20} {:>12.3} {:>12.3} {:>12} {:>10}",
        "warm cache", warm_ms, 0.0, max_int, out_rows
    );
    println!(
        "speedup {:.1}x; cold spent {:.0}% of its time building tries; cache: {} hits / {} \
         misses ({} builds, {:.3} ms total build, hit rate {:.0}%), {} entries, {} bytes",
        cold_ms / warm_ms.max(1e-9),
        100.0 * cold_build_ms / cold_ms.max(1e-9),
        stats.hits,
        stats.misses,
        stats.builds,
        stats.build_time.as_secs_f64() * 1e3,
        stats.hit_rate() * 100.0,
        stats.entries,
        stats.bytes_in_use
    );
    report.add_with_build(
        "store/cold_build",
        cold_ms,
        cold_build_ms,
        max_int,
        out_rows,
    );
    report.add_with_build("store/warm_cache", warm_ms, 0.0, max_int, out_rows);
}

/// Build: cold trie-construction throughput of the columnar `TrieBuilder`
/// against the original row-materialising reference builder (PR 5's
/// acceptance measurement). Shuffled input pays the full sort; pre-sorted
/// input exercises the skip-the-sort fast path. `new/…` vs `ref/…` rows land
/// in the JSON report so the before/after is diffable across PRs.
///
/// Returns whether the ≥2× acceptance bar held on the 100k shuffled ternary
/// workload; the caller fails the process *after* the JSON report is
/// written, so a regression never destroys the evidence needed to diagnose
/// it.
#[must_use]
fn exp_build(report: &mut Report) -> bool {
    use relational::generator::{random_relation, random_relation_raw};
    use relational::{Dict, Schema, SortPath, TrieBuilder};

    header("Build: cold Trie::build throughput — columnar builder vs reference");
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>14} {:>8}  {:<11}",
        "workload", "rows", "ref ms", "new ms", "new rows/s", "speedup", "path"
    );
    const RUNS: usize = 5;
    let mut dict = Dict::new();
    let mut builder = TrieBuilder::new();
    let mut acceptance: Option<f64> = None;
    for &(rows, arity, sorted) in &[
        (10_000usize, 3usize, false),
        (100_000, 3, false),
        (100_000, 3, true),
        (100_000, 2, false),
    ] {
        let names: Vec<String> = (0..arity).map(|i| format!("a{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        // A dense integer domain (~rows/2 distinct values) keeps the radix
        // path in play on shuffled input, as dictionary encoding does in
        // practice.
        let domain = (rows / 2) as u64;
        let rel = if sorted {
            random_relation(&mut dict, Schema::of(&name_refs), rows, domain, rows as u64)
        } else {
            random_relation_raw(&mut dict, Schema::of(&name_refs), rows, domain, rows as u64)
        };
        let order = rel.schema().attrs().to_vec();
        let label = format!("k={arity}/{}", if sorted { "sorted" } else { "shuffled" });

        let mut ref_ms = f64::INFINITY;
        let mut new_ms = f64::INFINITY;
        let mut tuples = 0usize;
        let mut nodes = 0usize;
        let mut path = SortPath::Comparison;
        for _ in 0..RUNS {
            let t0 = Instant::now();
            let t = relational::Trie::build_reference(&rel, &order).expect("reference builds");
            ref_ms = ref_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            tuples = t.num_tuples();

            let t0 = Instant::now();
            let t = builder.build(&rel, &order).expect("builder builds");
            new_ms = new_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            nodes = t.node_count();
            path = builder.last_stats().expect("stats recorded").path;
        }
        let speedup = ref_ms / new_ms.max(1e-9);
        let throughput = rows as f64 / (new_ms / 1e3).max(1e-12);
        println!(
            "{:<28} {:>10} {:>12.3} {:>12.3} {:>14.0} {:>7.1}x  {:<11}",
            label, rows, ref_ms, new_ms, throughput, speedup, path
        );
        // node_count doubles as the size column so the JSON rows are
        // self-describing; wall == build for a pure construction benchmark.
        report.add_with_build(
            format!("build/{label}/n={rows}/reference"),
            ref_ms,
            ref_ms,
            nodes,
            tuples,
        );
        report.add_with_build(
            format!("build/{label}/n={rows}/new"),
            new_ms,
            new_ms,
            nodes,
            tuples,
        );
        if rows >= 100_000 && arity == 3 && !sorted {
            acceptance = Some(speedup);
        }
    }
    println!(
        "dictionary resident bytes after generation: {}",
        dict.estimated_bytes()
    );
    let acceptance = acceptance.expect("the 100k shuffled ternary workload ran");
    let ok = acceptance >= 2.0;
    println!(
        "acceptance (100k shuffled ternary): {acceptance:.1}x (required >= 2x) — {}",
        if ok { "PASS" } else { "FAIL" }
    );
    ok
}

/// Probe: LFTJ probe-kernel throughput on million-tuple random graphs (the
/// PR-6 acceptance measurement). Three rows per workload isolate the two
/// probe-side changes:
///
/// * `scalar` — the pre-existing gallop kernel on plain sorted levels (the
///   honest baseline: byte-for-byte the old seek path);
/// * `block`  — the batched kernel with block-wise branch-reduced search,
///   still on plain sorted levels;
/// * `bitset` — the batched kernel on default-built tries, where dense
///   levels carry per-sibling-group bitset indexes.
///
/// Tries are prebuilt outside the timed region, so `wall_ms` is pure probe
/// time; all kernels must agree on the result count. Returns whether the
/// best kernel beat `scalar` by >= 1.5x on at least one workload (always
/// `true` in quick mode, where the single noisy run is informational only);
/// the caller exits nonzero *after* the JSON report is written.
#[must_use]
fn exp_probe(report: &mut Report, quick: bool) -> bool {
    use relational::{
        JoinPlan, LftjWalk, ProbeKernel, Relation, Schema, Trie, TrieBuilder, ValueId, ValueRange,
    };
    use std::sync::Arc;

    header("Probe: LFTJ probe kernels on large random graphs (scalar vs block vs bitset)");
    let runs = if quick { 1 } else { 3 };
    println!("(best of {runs} run(s) per row; tries prebuilt — rows time the probe only)");
    println!(
        "{:<30} {:>10} {:>12} {:>10} {:>14} {:>14}",
        "workload/kernel", "tuples", "probe ms", "result", "tuples/s", "bitset levels"
    );

    struct Workload {
        name: &'static str,
        vertices: u32,
        undirected_edges: usize,
        atoms: &'static [[&'static str; 2]],
        order: &'static [&'static str],
    }
    let workloads = [
        Workload {
            name: "triangle",
            vertices: 65_536,
            undirected_edges: 1_048_576,
            atoms: &[["a", "b"], ["b", "c"], ["a", "c"]],
            order: &["a", "b", "c"],
        },
        Workload {
            name: "clique4",
            vertices: 16_384,
            undirected_edges: 524_288,
            atoms: &[
                ["a", "b"],
                ["a", "c"],
                ["a", "d"],
                ["b", "c"],
                ["b", "d"],
                ["c", "d"],
            ],
            order: &["a", "b", "c", "d"],
        },
    ];

    let mut best_ratio = 0.0f64;
    for wl in &workloads {
        // A deterministic uniform random graph, stored in both directions so
        // every atom can level the same edge set under its own two
        // attributes. Raw `ValueId`s skip the dictionary: the probe path
        // never consults it.
        let mut state = 0xc1e4_5eed_0000_0000u64 ^ u64::from(wl.vertices);
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(2 * wl.undirected_edges);
        while pairs.len() < 2 * wl.undirected_edges {
            let r = splitmix64(&mut state);
            let u = (r as u32) % wl.vertices;
            let v = ((r >> 32) as u32) % wl.vertices;
            if u != v {
                pairs.push((u, v));
                pairs.push((v, u));
            }
        }
        let order: Vec<relational::Attr> = wl.order.iter().map(|&a| a.into()).collect();
        let relations: Vec<Relation> = wl
            .atoms
            .iter()
            .map(|names| {
                let mut rel = Relation::new(Schema::of(names.as_slice()));
                for &(u, v) in &pairs {
                    rel.push(&[ValueId(u), ValueId(v)]).expect("arity matches");
                }
                rel.sort_dedup();
                rel
            })
            .collect();
        let tuples = relations[0].len();

        let build = |bitsets: bool| -> Vec<Arc<Trie>> {
            let mut b = TrieBuilder::new().with_bitset_levels(bitsets);
            relations
                .iter()
                .map(|rel| Arc::new(b.build(rel, rel.schema().attrs()).expect("trie builds")))
                .collect()
        };
        let plain = build(false);
        let indexed = build(true);
        let bitset_levels: usize = indexed.iter().map(|t| t.bitset_level_count()).sum();
        assert!(
            bitset_levels > 0,
            "{}: dense root levels must take the bitset layout",
            wl.name
        );

        let kernels: [(&str, ProbeKernel, &[Arc<Trie>], usize); 3] = [
            ("scalar", ProbeKernel::Scalar, &plain, 0),
            ("block", ProbeKernel::Block, &plain, 0),
            ("bitset", ProbeKernel::Block, &indexed, bitset_levels),
        ];
        let mut rows_seen: Option<usize> = None;
        let mut ms = [0.0f64; 3];
        for (slot, (label, kernel, tries, nbits)) in kernels.iter().enumerate() {
            let mut best = f64::INFINITY;
            let mut rows = 0usize;
            for _ in 0..runs {
                let plan = JoinPlan::from_shared(tries.to_vec(), &order).expect("plan builds");
                let mut walk = LftjWalk::with_kernel(plan, ValueRange::all(), *kernel);
                let t0 = Instant::now();
                let mut n = 0usize;
                while walk.next_tuple().is_some() {
                    n += 1;
                }
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
                rows = n;
            }
            assert_eq!(
                *rows_seen.get_or_insert(rows),
                rows,
                "{}/{label}: probe kernels disagree on the result count",
                wl.name
            );
            ms[slot] = best;
            report.add(
                format!("probe/{}/n={tuples}/{label}", wl.name),
                best,
                0,
                rows,
            );
            println!(
                "{:<30} {:>10} {:>12.3} {:>10} {:>14.0} {:>14}",
                format!("{}/{label}", wl.name),
                tuples,
                best,
                rows,
                tuples as f64 / (best / 1e3).max(1e-12),
                nbits
            );
        }
        let ratio = ms[0] / ms[1].min(ms[2]).max(1e-9);
        println!("{}: scalar vs best kernel = {ratio:.2}x", wl.name);
        best_ratio = best_ratio.max(ratio);
    }
    let ok = best_ratio >= 1.5;
    println!(
        "acceptance (best workload): {best_ratio:.2}x (required >= 1.5x) — {}",
        if ok {
            "PASS"
        } else if quick {
            "below bar, informational in quick mode"
        } else {
            "FAIL"
        }
    );
    ok || quick
}

/// Overhead: is tracing-off actually free on the probe path? An in-process
/// A/B on the 4-clique probe workload (the PR-6 acceptance workload, bitset
/// tries + block kernel): the baseline drains the walk exactly as
/// `exp_probe` does, the candidate drains the same walk with a disabled
/// [`xjoin_obs`] span guard opened around every `next_tuple` call — the
/// worst-granularity instrumentation the engine could ever carry on this
/// path. Rounds are interleaved (A, B, counted, A, B, counted, …) so clock
/// drift and cache warm-up hit both sides equally, and each side keeps its
/// best round. Asserts candidate/baseline < 1.02; the counted row (the
/// `explain_analyze` probe-counter mode, `TRACK = true`) is informational.
fn exp_overhead(report: &mut Report, quick: bool) -> bool {
    use relational::{
        JoinPlan, LftjWalk, ProbeKernel, Relation, Schema, TrieBuilder, ValueId, ValueRange,
    };
    use std::sync::Arc;

    header("Overhead: disabled-tracer penalty on the 4-clique probe (must stay < 2%)");
    let (vertices, undirected_edges, rounds) = if quick {
        (4_096u32, 65_536usize, 6)
    } else {
        (16_384u32, 524_288usize, 4)
    };
    let mut state = 0xc1e4_5eed_0000_0000u64 ^ u64::from(vertices);
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(2 * undirected_edges);
    while pairs.len() < 2 * undirected_edges {
        let r = splitmix64(&mut state);
        let u = (r as u32) % vertices;
        let v = ((r >> 32) as u32) % vertices;
        if u != v {
            pairs.push((u, v));
            pairs.push((v, u));
        }
    }
    let atoms: [[&str; 2]; 6] = [
        ["a", "b"],
        ["a", "c"],
        ["a", "d"],
        ["b", "c"],
        ["b", "d"],
        ["c", "d"],
    ];
    let order: Vec<relational::Attr> = ["a", "b", "c", "d"].iter().map(|&a| a.into()).collect();
    let mut builder = TrieBuilder::new();
    let tries: Vec<Arc<relational::Trie>> = atoms
        .iter()
        .map(|names| {
            let mut rel = Relation::new(Schema::of(names.as_slice()));
            for &(u, v) in &pairs {
                rel.push(&[ValueId(u), ValueId(v)]).expect("arity matches");
            }
            rel.sort_dedup();
            Arc::new(
                builder
                    .build(&rel, rel.schema().attrs())
                    .expect("trie builds"),
            )
        })
        .collect();
    let tuples = tries[0].level_len(1);

    assert!(
        !xjoin_obs::enabled(),
        "overhead rows measure the DISABLED path"
    );
    let walk = || {
        let plan = JoinPlan::from_shared(tries.clone(), &order).expect("plan builds");
        LftjWalk::with_kernel(plan, ValueRange::all(), ProbeKernel::Block)
    };
    // Variant 0 (plain): the production drain — what `exp_probe` (and
    // PR 6's committed probe/* baseline) times. Variant 1 (spans-off): the
    // same drain with a disabled span guard + instant per tuple pull, in
    // the same loop shape so the only difference is the obs calls.
    // Variant 2 (counters-on): the probe-counter mode explain_analyze uses.
    let run = |variant: usize| -> (f64, usize) {
        let mut w = walk();
        if variant == 2 {
            w = w.with_probe_counters();
        }
        let t0 = Instant::now();
        let mut n = 0usize;
        if variant == 1 {
            loop {
                let _g = xjoin_obs::span("tuple");
                if w.next_tuple().is_none() {
                    break;
                }
                xjoin_obs::instant("bound");
                n += 1;
            }
        } else {
            loop {
                if w.next_tuple().is_none() {
                    break;
                }
                n += 1;
            }
        }
        (t0.elapsed().as_secs_f64() * 1e3, n)
    };
    let mut best = [f64::INFINITY; 3];
    let mut rows = [0usize; 3];
    for round in 0..rounds {
        // Alternate which side goes first: the first drain of a round sees
        // colder caches/branch state, and that position penalty must not
        // land on one variant systematically.
        let order: [usize; 3] = if round % 2 == 0 { [0, 1, 2] } else { [1, 0, 2] };
        for v in order {
            let (ms, n) = run(v);
            best[v] = best[v].min(ms);
            rows[v] = n;
        }
    }
    assert!(
        rows[0] == rows[1] && rows[0] == rows[2],
        "instrumentation changed the result count: {rows:?}"
    );
    let labels = ["plain", "spans-off", "counters-on"];
    println!(
        "(best of {rounds} interleaved round(s); {tuples} tuples/atom, block kernel + bitset tries)"
    );
    println!(
        "{:<30} {:>12} {:>10} {:>12}",
        "variant", "probe ms", "result", "vs plain"
    );
    for i in 0..3 {
        report.add(
            format!("overhead/clique4/n={tuples}/{}", labels[i]),
            best[i],
            0,
            rows[i],
        );
        println!(
            "{:<30} {:>12.3} {:>10} {:>11.4}x",
            labels[i],
            best[i],
            rows[i],
            best[i] / best[0].max(1e-9)
        );
    }
    let ratio = best[1] / best[0].max(1e-9);
    let ok = ratio < 1.02;
    println!(
        "disabled-tracer overhead: {:.2}% (required < 2%) — {}",
        (ratio - 1.0) * 100.0,
        if ok { "PASS" } else { "FAIL" }
    );
    ok
}

/// Serve: the networked front end under mixed load (the PR-8 acceptance
/// measurement). An `xjoin-serve` server on a loopback port over a random
/// symmetric graph, hit concurrently by cheap clients (an edge scan with a
/// pinned limit — well under the admission policy's cheap threshold) and
/// expensive clients (the 4-clique, priced above it). The expensive clients
/// run open-loop against a shared stop flag so pressure is sustained for the
/// whole cheap window; on an `OVERLOAD` reply they back off briefly and
/// retry, as a real client would. The same workload runs twice — admission
/// on, then off — and the acceptance claim is that the cheap queries' p99
/// latency is lower *with* admission: rejecting expensive work the in-flight
/// budget cannot absorb keeps the service queue short, so cheap requests
/// stop waiting behind a convoy of 4-cliques.
///
/// Per mode the JSON report gains `serve/admission={on,off}/cheap_p50`,
/// `…/cheap_p99` (latency in `wall_ms`, request count in `output_rows`),
/// `…/expensive` (completed), and `…/rejected` rows. Returns whether the
/// p99 claim held; in `--quick` mode (CI smoke on shared runners) the
/// comparison is informational only, and the caller exits nonzero *after*
/// the report is written.
#[must_use]
fn exp_serve(report: &mut Report, quick: bool) -> bool {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use xjoin_serve::{AdmissionPolicy, Client, RequestOpts, Response, Server, ServerConfig};
    use xjoin_store::VersionedStore;

    header("Serve: wire front end under mixed load — AGM admission on vs off");
    const CHEAP_QUERY: &str = "Q(a, b) :- E(a, b)";
    const EXPENSIVE_QUERY: &str =
        "Q(a, b, c, d) :- E(a, b), E(a, c), E(a, d), E(b, c), E(b, d), E(c, d)";
    const CHEAP_CLIENTS: usize = 2;
    const EXPENSIVE_CLIENTS: usize = 2;
    // The policy prices the 4-clique (log2 bound ≈ 2·log2|E| ≈ 21) as
    // expensive and fits exactly one of them in the in-flight budget; the
    // edge scan (≈ log2|E| ≈ 11) rides the cheap lane.
    let policy = AdmissionPolicy {
        enabled: true,
        cheap_log2_bound: 15.0,
        max_inflight_cost: 25.0,
        max_queue_depth: 256,
    };
    let (nodes, edges, cheap_per_client) = if quick {
        (64usize, 700usize, 20usize)
    } else {
        (96, 1800, 60)
    };
    println!(
        "(graph {nodes}v/{edges}e; {CHEAP_CLIENTS} cheap client(s) x {cheap_per_client} \
         req, {EXPENSIVE_CLIENTS} sustained 4-clique client(s); 2 workers)"
    );
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "admission", "cheap req", "p50 ms", "p99 ms", "clique ok", "rejected", "wall ms", "req/s"
    );

    let percentile = |sorted: &[f64], p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    };

    let mut p99_by_mode = [0.0f64; 2];
    for (slot, (label, admission)) in [("on", policy), ("off", AdmissionPolicy::disabled())]
        .into_iter()
        .enumerate()
    {
        let inst = graph_instance(nodes, edges, 42);
        let store = Arc::new(VersionedStore::new(inst.db, inst.doc));
        let handle = Server::spawn(
            Arc::clone(&store),
            ServerConfig {
                workers: 2,
                admission,
                ..Default::default()
            },
        )
        .expect("bind loopback");
        let addr = handle.addr();

        // Warm the trie cache and the statement cache outside the timed
        // window, so both modes measure steady-state serving.
        let cheap_opts = ExecOptions {
            limit: Some(16),
            ..Default::default()
        };
        {
            let mut c = Client::connect(addr).expect("connect");
            let r = c
                .query(CHEAP_QUERY, &cheap_opts, RequestOpts::default())
                .expect("warm cheap");
            assert!(matches!(r, Response::Rows(_)), "warmup failed: {r:?}");
            let r = c
                .query(
                    EXPENSIVE_QUERY,
                    &ExecOptions::default(),
                    RequestOpts::default(),
                )
                .expect("warm expensive");
            assert!(matches!(r, Response::Rows(_)), "warmup failed: {r:?}");
        }

        let stop = Arc::new(AtomicBool::new(false));
        let t0 = Instant::now();
        let expensive: Vec<_> = (0..EXPENSIVE_CLIENTS)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let (mut completed, mut rejected) = (0usize, 0usize);
                    while !stop.load(Ordering::Relaxed) {
                        match c
                            .query(
                                EXPENSIVE_QUERY,
                                &ExecOptions::default(),
                                RequestOpts::default(),
                            )
                            .expect("expensive round trip")
                        {
                            Response::Rows(_) => completed += 1,
                            Response::Overload { .. } => {
                                rejected += 1;
                                // Back off instead of hammering the admission
                                // controller in a tight loop.
                                std::thread::sleep(std::time::Duration::from_millis(5));
                            }
                            other => panic!("expensive query failed: {other:?}"),
                        }
                    }
                    (completed, rejected)
                })
            })
            .collect();
        let cheap: Vec<_> = (0..CHEAP_CLIENTS)
            .map(|_| {
                let cheap_opts = cheap_opts.clone();
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let mut lat_ms = Vec::with_capacity(cheap_per_client);
                    for _ in 0..cheap_per_client {
                        let t = Instant::now();
                        match c
                            .query(CHEAP_QUERY, &cheap_opts, RequestOpts::default())
                            .expect("cheap round trip")
                        {
                            Response::Rows(_) => lat_ms.push(t.elapsed().as_secs_f64() * 1e3),
                            other => panic!("cheap query failed: {other:?}"),
                        }
                    }
                    lat_ms
                })
            })
            .collect();
        let mut latencies: Vec<f64> = cheap
            .into_iter()
            .flat_map(|h| h.join().expect("cheap client"))
            .collect();
        stop.store(true, Ordering::Relaxed);
        let (mut completed, mut rejected) = (0usize, 0usize);
        for h in expensive {
            let (c, r) = h.join().expect("expensive client");
            completed += c;
            rejected += r;
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        {
            let mut c = Client::connect(addr).expect("connect");
            assert!(matches!(c.shutdown().expect("shutdown"), Response::Bye));
        }
        handle.join();

        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let (p50, p99) = (percentile(&latencies, 0.50), percentile(&latencies, 0.99));
        p99_by_mode[slot] = p99;
        let total = latencies.len() + completed;
        let rps = total as f64 / (wall_ms / 1e3).max(1e-9);
        println!(
            "{:<14} {:>10} {:>10.3} {:>10.3} {:>10} {:>10} {:>10.1} {:>10.1}",
            label,
            latencies.len(),
            p50,
            p99,
            completed,
            rejected,
            wall_ms,
            rps
        );
        report.add(
            format!("serve/admission={label}/cheap_p50"),
            p50,
            0,
            latencies.len(),
        );
        report.add(
            format!("serve/admission={label}/cheap_p99"),
            p99,
            0,
            latencies.len(),
        );
        report.add(
            format!("serve/admission={label}/expensive"),
            wall_ms,
            0,
            completed,
        );
        report.add(
            format!("serve/admission={label}/rejected"),
            wall_ms,
            0,
            rejected,
        );
    }
    let (on, off) = (p99_by_mode[0], p99_by_mode[1]);
    let ok = on < off;
    println!(
        "cheap-query p99: admission on {on:.3} ms vs off {off:.3} ms — {}",
        if ok {
            "PASS (admission keeps the fast lane fast)"
        } else if quick {
            "no improvement, informational in quick mode"
        } else {
            "FAIL"
        }
    );
    ok || quick
}

/// Churn: warm-query latency right after a write — delta overlays vs full
/// rebuilds.
///
/// The [`bench::workloads::churn_instance`] workload joins three physically
/// distinct edge relations under a small filter; every write appends a
/// fresh edge batch to all three. `churn/probe` is the steady-state warm
/// probe with no writes; `churn/delta` times the first execution after each
/// write with the delta policy on (the registry overlays each cached base
/// with small run tries built from the append log); `churn/rebuild` times
/// the same writes with the policy off, paying three full trie rebuilds per
/// write. Full runs enforce the acceptance bar — median delta latency at
/// least 5x below the rebuild median and at most 1.25x the no-write probe;
/// `--quick` (CI smoke on shared runners) prints the same table
/// informationally and never fails the run.
#[must_use]
fn exp_churn(report: &mut Report, quick: bool) -> bool {
    use bench::workloads::{churn_instance, churn_query};
    use xjoin_store::DeltaPolicy;

    header("Churn: warm-query latency after appends — delta overlays vs full rebuilds");
    let (nodes, edges, filter, writes, batch) = if quick {
        (2_000usize, 60_000usize, 12usize, 4usize, 64usize)
    } else {
        (10_000, 300_000, 16, 16, 64)
    };
    println!(
        "({} edge rows per relation x 3 relations, filter |F|={filter}; {writes} write(s) \
         of {batch} edges each, appended to the churning relation R)",
        edges * 2
    );

    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        if v.is_empty() {
            0.0
        } else {
            v[v.len() / 2]
        }
    };

    // One store per mode so the two series cannot share cached tries. The
    // appended batches are identical across modes (same splitmix stream).
    let run_mode = |delta_on: bool| -> (f64, f64, usize, usize) {
        let inst = churn_instance(nodes, edges, filter, 42);
        let store = VersionedStore::new(inst.db, inst.doc);
        // The compaction ratio is the knob that caps probe degradation under
        // sustained churn: once the pending runs pass ~0.13% of the base,
        // one write pays a linear k-way merge and the overlay resets to a
        // fresh solid base (here: roughly every 4 writes).
        store.set_delta_policy(DeltaPolicy {
            enabled: delta_on,
            compact_ratio: 4.0 * (batch * 2) as f64 / (edges * 2) as f64,
        });
        let q = churn_query();
        let opts = ExecOptions::for_engine(EngineKind::Lftj);
        let snap = store.snapshot();
        let prepared =
            PreparedQuery::prepare(&snap, &q, opts.clone()).expect("prepare churn query");
        prepared.execute(&snap).expect("cold build"); // cold, outside timings

        // The no-write baseline is a pristine twin of the store that never
        // sees an append. Its probes are interleaved with the churned
        // store's post-write queries below, so both series sample the same
        // machine state and clock/cache drift cancels out of the
        // delta-vs-probe ratio.
        let twin = churn_instance(nodes, edges, filter, 42);
        let twin_store = VersionedStore::new(twin.db, twin.doc);
        let twin_snap = twin_store.snapshot();
        let twin_prepared =
            PreparedQuery::prepare(&twin_snap, &q, opts).expect("prepare twin query");
        twin_prepared.execute(&twin_snap).expect("twin cold build");
        twin_prepared.execute(&twin_snap).expect("twin warmup");

        let mut state = 0xc41e_5eed_0000_0000u64 ^ nodes as u64;
        let mut probes = Vec::with_capacity(writes);
        let mut latencies = Vec::with_capacity(writes);
        let (mut rows_out, mut delta_runs) = (0usize, 0usize);
        for _ in 0..writes {
            let mut rows: Vec<Vec<relational::Value>> = Vec::with_capacity(batch * 2);
            while rows.len() < batch * 2 {
                let r = splitmix64(&mut state);
                let u = (r % nodes as u64) as i64;
                let v = ((r >> 32) % nodes as u64) as i64;
                if u != v {
                    rows.push(vec![relational::Value::Int(u), relational::Value::Int(v)]);
                    rows.push(vec![relational::Value::Int(v), relational::Value::Int(u)]);
                }
            }
            let t0 = Instant::now();
            twin_prepared.execute(&twin_snap).expect("warm probe");
            probes.push(t0.elapsed().as_secs_f64() * 1e3);
            store.append("R", rows).expect("append batch");
            let snap = store.snapshot();
            let t0 = Instant::now();
            let out = prepared.execute(&snap).expect("post-write query");
            let total = t0.elapsed().as_secs_f64() * 1e3;
            latencies.push(total);
            rows_out = out.results.len();
            delta_runs = delta_runs.max(out.stats.delta_runs);
        }
        let series: Vec<String> = latencies.iter().map(|ms| format!("{ms:.2}")).collect();
        println!(
            "  policy {}: post-write latency trajectory [{}] ms",
            if delta_on { "on " } else { "off" },
            series.join(", ")
        );
        (median(probes), median(latencies), rows_out, delta_runs)
    };

    let (probe_ms, delta_ms, delta_rows, runs) = run_mode(true);
    let (_, rebuild_ms, rebuild_rows, _) = run_mode(false);
    assert_eq!(
        delta_rows, rebuild_rows,
        "delta overlays and rebuilds disagree on the final result"
    );

    println!(
        "{:<22} {:>12} {:>12} {:>12}",
        "series", "median ms", "result", "delta runs"
    );
    for (label, ms, rows, dr) in [
        ("probe (no write)", probe_ms, delta_rows, 0usize),
        ("delta (policy on)", delta_ms, delta_rows, runs),
        ("rebuild (policy off)", rebuild_ms, rebuild_rows, 0),
    ] {
        println!("{label:<22} {ms:>12.4} {rows:>12} {dr:>12}");
    }
    report.add("churn/probe", probe_ms, 0, delta_rows);
    report.add("churn/delta", delta_ms, 0, delta_rows);
    report.add("churn/rebuild", rebuild_ms, 0, rebuild_rows);

    let speedup = rebuild_ms / delta_ms.max(1e-9);
    let overhead = delta_ms / probe_ms.max(1e-9);
    let ok = speedup >= 5.0 && overhead <= 1.25;
    println!(
        "post-write latency: delta {delta_ms:.4} ms vs rebuild {rebuild_ms:.4} ms \
         ({speedup:.1}x; {overhead:.2}x the no-write probe) — {}",
        if ok {
            "PASS (>= 5x vs rebuild at <= 1.25x the probe)"
        } else if quick {
            "below the bar, informational in quick mode"
        } else {
            "FAIL"
        }
    );
    ok || quick
}

/// The adaptive-ordering acceptance gate: on the skew-adversarial branch
/// workload the runtime-adaptive walk must beat the *best* static order by
/// at least 2x (warm probes, medians of interleaved reps), while on uniform
/// probes (fig3 / triangle / 4-clique, where the skeleton leaves the walk
/// little or no freedom) it must stay within 1.05x of the static walk.
fn exp_skew(report: &mut Report, quick: bool) -> bool {
    use bench::workloads::{branch_skew_instance, branch_skew_query, zipf_graph_instance};
    use xjoin_core::Ladder;

    header("Skew: runtime-adaptive ordering (the Atreides ladder) vs static orders");
    let (keys, heavy, reps) = if quick {
        (512usize, 48usize, 3usize)
    } else {
        (3072, 192, 7)
    };
    println!(
        "(branch workload Q(a,b,c) :- R(a,b), S(a,c), F(b), G(c): {keys} keys, heavy fanout \
         {heavy}, thin-branch survival 1/16 per parity; warm probes, median of {reps})"
    );

    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        if v.is_empty() {
            0.0
        } else {
            v[v.len() / 2]
        }
    };

    // One store per arm so no trie cache is shared across orders (each order
    // levels the tries differently anyway).
    let prepare_arm = |order: OrderStrategy| -> (VersionedStore, PreparedQuery) {
        let inst = branch_skew_instance(keys, heavy);
        let store = VersionedStore::new(inst.db, inst.doc);
        let snap = store.snapshot();
        let opts = ExecOptions {
            order,
            ..ExecOptions::for_engine(EngineKind::Lftj)
        };
        let prepared =
            PreparedQuery::prepare(&snap, &branch_skew_query(), opts).expect("prepare skew arm");
        prepared.execute(&snap).expect("cold build"); // warm the trie cache
        (store, prepared)
    };

    let given = |names: [&str; 3]| OrderStrategy::Given(names.iter().map(|&n| n.into()).collect());
    let arms: Vec<(&str, &str, OrderStrategy)> = vec![
        (
            "adaptive (refined)",
            "skew/branch/adaptive-refined",
            OrderStrategy::Adaptive {
                ladder: Ladder::Refined,
            },
        ),
        (
            "adaptive (distinct)",
            "skew/branch/adaptive-distinct",
            OrderStrategy::Adaptive {
                ladder: Ladder::Distinct,
            },
        ),
        (
            "adaptive (rowcount)",
            "skew/branch/adaptive-rowcount",
            OrderStrategy::Adaptive {
                ladder: Ladder::RowCount,
            },
        ),
        (
            "static appearance",
            "skew/branch/static-appearance",
            OrderStrategy::Appearance,
        ),
        (
            "static cardinality",
            "skew/branch/static-cardinality",
            OrderStrategy::Cardinality,
        ),
        (
            "static given(a,b,c)",
            "skew/branch/static-given-abc",
            given(["a", "b", "c"]),
        ),
        (
            "static given(a,c,b)",
            "skew/branch/static-given-acb",
            given(["a", "c", "b"]),
        ),
    ];
    let runners: Vec<(&str, &str, (VersionedStore, PreparedQuery))> = arms
        .into_iter()
        .map(|(label, row, order)| (label, row, prepare_arm(order)))
        .collect();

    let mut wall: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); runners.len()];
    let mut rows_out = vec![0usize; runners.len()];
    let mut reorders = vec![0u64; runners.len()];
    let mut est_probes = vec![0u64; runners.len()];
    for _ in 0..reps {
        for (i, (_, _, (store, prepared))) in runners.iter().enumerate() {
            let snap = store.snapshot();
            let t0 = Instant::now();
            let out = prepared.execute(&snap).expect("warm skew probe");
            wall[i].push(t0.elapsed().as_secs_f64() * 1e3);
            rows_out[i] = out.results.len();
            reorders[i] = out.stats.reorders;
            est_probes[i] = out.stats.estimate_probes;
        }
    }
    assert!(
        rows_out.iter().all(|&r| r == rows_out[0]),
        "adaptive and static orders disagree on the skewed result: {rows_out:?}"
    );

    println!(
        "{:<22} {:>12} {:>10} {:>10} {:>14}",
        "order", "median ms", "result", "reorders", "estimate probes"
    );
    let mut adaptive_ms = f64::MAX;
    let mut best_static_ms = f64::MAX;
    for (i, (label, row, _)) in runners.iter().enumerate() {
        let ms = median(wall[i].clone());
        println!(
            "{label:<22} {ms:>12.4} {:>10} {:>10} {:>14}",
            rows_out[i], reorders[i], est_probes[i]
        );
        report.add(*row, ms, 0, rows_out[i]);
        if *row == "skew/branch/adaptive-refined" {
            adaptive_ms = ms;
        }
        if label.starts_with("static") {
            best_static_ms = best_static_ms.min(ms);
        }
    }
    let separation = best_static_ms / adaptive_ms.max(1e-9);
    let skew_ok = separation >= 2.0;
    println!(
        "skewed branch workload: adaptive(refined) {adaptive_ms:.4} ms vs best static \
         {best_static_ms:.4} ms = {separation:.2}x — {}",
        if skew_ok {
            "PASS (>= 2x over the best static order)"
        } else if quick {
            "below the bar, informational in quick mode"
        } else {
            "FAIL"
        }
    );

    // Uniform probes: the adaptive walk must not tax workloads where the
    // skeleton leaves it little freedom (triangle/4-clique: none; fig3:
    // some). Interleaved warm probes, adaptive(refined) vs static appearance.
    println!();
    // The uniform probes are micro-scale (fig3 runs in tens of µs), so the
    // 1.05x gate needs many more interleaved samples than the branch
    // workload for the median to sit above scheduler noise.
    let (tri_nodes, tri_edges, cl_nodes, cl_edges, fig_n, ureps) = if quick {
        (100usize, 600usize, 60usize, 360usize, 4usize, 7usize)
    } else {
        (240, 1800, 110, 800, 16, 41)
    };
    let uniform: Vec<(&str, &str, bench::workloads::Instance, MultiModelQuery)> = vec![
        (
            "fig3 (tight)",
            "skew/uniform/fig3",
            fig3_tight(fig_n),
            fig3_query(),
        ),
        (
            "triangle",
            "skew/uniform/triangle",
            graph_instance(tri_nodes, tri_edges, 1107),
            triangle_query(),
        ),
        (
            "4-clique",
            "skew/uniform/clique4",
            graph_instance(cl_nodes, cl_edges, 1108),
            clique4_query(),
        ),
        (
            "triangle (zipf 1.1)",
            "skew/zipf/triangle",
            zipf_graph_instance(tri_nodes, tri_edges, 1.1, 1109),
            triangle_query(),
        ),
    ];
    println!(
        "{:<22} {:>14} {:>14} {:>8} {:>10}",
        "uniform probe", "static ms", "adaptive ms", "ratio", "result"
    );
    let mut uniform_ok = true;
    for (label, row, inst, q) in uniform {
        let store = VersionedStore::new(inst.db, inst.doc);
        let snap = store.snapshot();
        let static_p = PreparedQuery::prepare(&snap, &q, ExecOptions::for_engine(EngineKind::Lftj))
            .expect("prepare static probe");
        let adaptive_p = PreparedQuery::prepare(
            &snap,
            &q,
            ExecOptions {
                order: OrderStrategy::Adaptive {
                    ladder: Ladder::Refined,
                },
                ..ExecOptions::for_engine(EngineKind::Lftj)
            },
        )
        .expect("prepare adaptive probe");
        static_p.execute(&snap).expect("cold static");
        adaptive_p.execute(&snap).expect("cold adaptive");
        let (mut st, mut ad) = (Vec::with_capacity(ureps), Vec::with_capacity(ureps));
        let mut rows = (0usize, 0usize);
        for _ in 0..ureps {
            let t0 = Instant::now();
            rows.0 = static_p.execute(&snap).expect("static probe").results.len();
            st.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            rows.1 = adaptive_p
                .execute(&snap)
                .expect("adaptive probe")
                .results
                .len();
            ad.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        assert_eq!(rows.0, rows.1, "uniform probe `{label}` disagrees");
        let (st_ms, ad_ms) = (median(st), median(ad));
        let ratio = ad_ms / st_ms.max(1e-9);
        // Zipf rows are informational (adaptive may win there); the 1.05x
        // bar applies to the uniform family only.
        let gated = row.starts_with("skew/uniform/");
        if gated {
            uniform_ok &= ratio <= 1.05;
        }
        println!(
            "{label:<22} {st_ms:>14.4} {ad_ms:>14.4} {ratio:>8.3} {:>10}{}",
            rows.0,
            if gated { "" } else { "  (informational)" }
        );
        report.add(format!("{row}-static"), st_ms, 0, rows.0);
        report.add(format!("{row}-adaptive"), ad_ms, 0, rows.1);
    }
    println!(
        "uniform probes: adaptive within 1.05x of static — {}",
        if uniform_ok {
            "PASS"
        } else if quick {
            "exceeded, informational in quick mode"
        } else {
            "FAIL"
        }
    );
    (skew_ok && uniform_ok) || quick
}

/// Trace: run the fig3 and 4-clique workloads through the query service
/// with tracing enabled, export the collected spans as Chrome trace-event
/// JSON (`trace.json`, loadable at <https://ui.perfetto.dev>) and a
/// collapsed-stack flamegraph (`flamegraph.txt`), dump the serving metrics
/// (`metrics.txt` / `metrics.json`), and print `explain_analyze` for both
/// workloads. Queries are pinned to morsel parallelism so the worker lanes
/// in the trace show per-morsel spans.
fn exp_trace() {
    use std::sync::Arc;

    header("Trace: span export (fig3 + 4-clique through the query service)");
    let workloads: Vec<(&str, bench::workloads::Instance, MultiModelQuery)> = vec![
        ("fig3", fig3_tight(8), fig3_query()),
        ("clique4", graph_instance(64, 700, 42), clique4_query()),
    ];

    // 1. EXPLAIN ANALYZE both workloads (serial, counted walk) before the
    //    traced service runs, so the printed tightness table and the trace
    //    cover the same data.
    for (name, inst, q) in &workloads {
        let idx = inst.index();
        let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
        let report = explain_analyze(&ctx, q, &OrderStrategy::default()).expect("analyze runs");
        println!("\n--- explain analyze: {name} ---");
        print!("{}", report.render());
    }

    // 2. The traced run: four submissions per workload through a 4-worker
    //    service, each execution fanned out over a morsel pool.
    xjoin_obs::enable();
    for (name, inst, q) in workloads {
        let store = VersionedStore::new(inst.db, inst.doc);
        let snapshot = store.snapshot();
        let opts = ExecOptions {
            engine: EngineKind::Lftj,
            parallelism: Parallelism::Threads(4),
            ..Default::default()
        };
        let prepared =
            Arc::new(PreparedQuery::prepare(&snapshot, &q, opts).expect("prepare succeeds"));
        let service = QueryService::new(4);
        let results = service.run_all((0..4).map(|_| (Arc::clone(&prepared), snapshot.clone())));
        let rows = results
            .into_iter()
            .map(|r| r.expect("query runs").results.len())
            .max()
            .unwrap_or(0);
        println!("{name}: 4 traced submissions, {rows} rows each");
        drop(service); // join workers so their span rings are flushed
    }
    xjoin_obs::disable();
    xjoin_obs::flush_thread();
    let trace = xjoin_obs::take_trace();

    let morsel_spans: usize = trace
        .threads
        .iter()
        .filter(|t| t.thread.starts_with("xjoin-morsel"))
        .map(|t| t.events.iter().filter(|e| e.name == "morsel").count())
        .sum();
    assert!(
        morsel_spans > 0,
        "trace must show per-morsel spans in worker lanes"
    );
    println!(
        "\ncollected {} span event(s) across {} thread lane(s) ({} morsel spans in worker lanes)",
        trace.total_events(),
        trace.threads.len(),
        morsel_spans
    );

    let write = |path: &str, body: String| match std::fs::write(path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    };
    write("trace.json", xjoin_obs::chrome_trace_json(&trace));
    write("flamegraph.txt", xjoin_obs::collapsed_stacks(&trace));
    let snapshot = xjoin_obs::global_metrics().snapshot();
    write("metrics.txt", snapshot.to_string());
    write("metrics.json", snapshot.to_json());
}

/// The deterministic 64-bit mixer behind the probe workload generator
/// (SplitMix64): full-period, seedable, and dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Row families `experiments diff` gates on. `threads/*` is deliberately
/// absent (scheduling noise on shared CI runners); waive further families at
/// the command line with `--skip PREFIX`.
const DIFF_PREFIXES: [&str; 3] = ["build/", "fig3/", "probe/"];

/// Extracts `(name, wall_ms)` pairs from a report written by
/// [`Report::to_json`] (one record per line; names are ASCII identifiers,
/// so a plain substring scan is exact).
fn parse_report(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("diff: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(name) = extract_after(line, "\"name\": \"")
            .and_then(|rest| rest.find('"').map(|end| rest[..end].to_string()))
        else {
            continue;
        };
        let Some(wall) = extract_after(line, "\"wall_ms\": ").and_then(|rest| {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse::<f64>().ok()
        }) else {
            continue;
        };
        rows.push((name, wall));
    }
    rows
}

fn extract_after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.find(key).map(|at| &line[at + key.len()..])
}

/// The CI bench-regression gate: compares tracked rows of `current` against
/// `baseline` by exact name and returns the process exit code (0 = pass,
/// 1 = regression). A row regresses when its current `wall_ms` exceeds
/// `tolerance` times the baseline; baselines under `min_ms` are skipped as
/// timer noise, and any name starting with a `skips` prefix is waived.
fn run_diff(
    baseline_path: &str,
    current_path: &str,
    tolerance: f64,
    skips: &[String],
    min_ms: f64,
) -> i32 {
    use std::collections::HashMap;

    header("Diff: bench-regression gate");
    println!("baseline: {baseline_path}\ncurrent:  {current_path}");
    let baseline: HashMap<String, f64> = parse_report(baseline_path).into_iter().collect();
    let current = parse_report(current_path);
    let tracked = |name: &str| {
        DIFF_PREFIXES.iter().any(|p| name.starts_with(p))
            && !skips.iter().any(|s| name.starts_with(s.as_str()))
    };
    let mut compared = 0usize;
    let mut too_fast = 0usize;
    let mut missing = 0usize;
    let mut improved = 0usize;
    let mut regressions: Vec<(&str, f64, f64)> = Vec::new();
    for (name, cur) in current.iter().filter(|(n, _)| tracked(n)) {
        let Some(&base) = baseline.get(name) else {
            missing += 1;
            continue;
        };
        if base < min_ms {
            too_fast += 1;
            continue;
        }
        compared += 1;
        if *cur > tolerance * base {
            regressions.push((name, base, *cur));
        } else if *cur * tolerance < base {
            improved += 1;
        }
    }
    if !skips.is_empty() {
        println!("waived prefixes: {}", skips.join(", "));
    }
    println!(
        "compared {compared} tracked row(s) across {} (tolerance {tolerance:.2}x; skipped {too_fast} with baseline < {min_ms} ms, {missing} absent from baseline); {improved} improved beyond the same factor",
        DIFF_PREFIXES.join(", ")
    );
    if regressions.is_empty() {
        println!("no wall-ms regressions beyond {tolerance:.2}x — PASS");
        return 0;
    }
    println!(
        "\n{:<44} {:>12} {:>12} {:>8}",
        "REGRESSED row", "baseline ms", "current ms", "ratio"
    );
    for (name, base, cur) in &regressions {
        println!("{name:<44} {base:>12.3} {cur:>12.3} {:>7.2}x", cur / base);
    }
    eprintln!(
        "\nFAIL: {} row(s) regressed beyond {tolerance:.2}x vs {baseline_path} (waive known-noisy families with --skip PREFIX)",
        regressions.len()
    );
    1
}

/// Threads sweep: morsel-parallel scaling of the plan-based engines on the
/// classic triangle and 4-clique workloads. Speedups are relative to the
/// serial run of the same engine; on a single-core box the table measures
/// scheduling overhead only (speedup ≈ 1), on multi-core hardware it shows
/// the sharding gain.
fn exp_threads(threads: &[usize], report: &mut Report) {
    header("Threads: morsel-parallel scaling on triangle / 4-clique workloads");
    println!(
        "(host reports {} available core(s))",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let workloads: Vec<(&str, bench::workloads::Instance, MultiModelQuery)> = vec![
        ("triangle", graph_instance(300, 2600, 42), triangle_query()),
        ("clique4", graph_instance(64, 700, 42), clique4_query()),
    ];
    // The serial run is always measured first so the speedup column is
    // genuinely relative to t=1, whatever `--threads` lists.
    let mut sweep: Vec<usize> = vec![1];
    sweep.extend(threads.iter().copied().filter(|&t| t != 1));
    const RUNS: usize = 3;
    println!(
        "{:<12} {:<14} {:>8} {:>12} {:>10} {:>10}",
        "workload", "engine", "threads", "best ms", "speedup", "result"
    );
    for (name, inst, q) in &workloads {
        let idx = inst.index();
        let ctx = DataContext::new(&inst.db, &inst.doc, &idx);
        for engine in [EngineKind::Lftj, EngineKind::XJoinStream] {
            let mut serial_ms: Option<f64> = None;
            let mut serial_rows: Option<usize> = None;
            for &t in &sweep {
                let opts = ExecOptions {
                    engine,
                    parallelism: if t <= 1 {
                        Parallelism::Serial
                    } else {
                        Parallelism::Threads(t)
                    },
                    ..Default::default()
                };
                let mut best = f64::INFINITY;
                let mut rows = 0usize;
                let mut max_int = 0usize;
                for _ in 0..RUNS {
                    let t0 = Instant::now();
                    let out = execute(&ctx, q, &opts).expect("graph query runs");
                    best = best.min(t0.elapsed().as_secs_f64() * 1e3);
                    rows = out.results.len();
                    max_int = out.stats.max_intermediate();
                }
                assert_eq!(
                    *serial_rows.get_or_insert(rows),
                    rows,
                    "{name}/{engine}: thread count changed the result"
                );
                let base = *serial_ms.get_or_insert(best);
                report.add(
                    format!("threads/{name}/{engine}/t={t}"),
                    best,
                    max_int,
                    rows,
                );
                println!(
                    "{:<12} {:<14} {:>8} {:>12.3} {:>10.2} {:>10}",
                    name,
                    engine.to_string(),
                    t,
                    best,
                    base / best.max(1e-9),
                    rows
                );
            }
        }
    }
}
