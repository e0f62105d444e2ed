//! perfbench — the repository benchmark: four seeded workloads served
//! through `xjoin-serve` on loopback, end-to-end metrics with tracing off,
//! and a separate traced replay for per-layer metrics.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload graph-serve --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--workload all` runs every workload (one process each) and prints every
//! end-to-end metric by name; `--steady K` runs one workload K times on
//! consecutive seeds and prints each metric's median, quartiles and max/min
//! ratio. See `perfbench/README.md`.

mod load;
mod stats;
mod trace;
mod workloads;

use load::{run_window, set_up, ChurnRead, ClientLog, Served, WriterLog};
use stats::{median, quantile, Fingerprint};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{expect_from, generate, oracle, spec, Expect, Spec, Workload};
use xjoin_core::{EngineKind, ExecOptions};
use xjoin_serve::Response;
use xjoin_store::CacheStats;

/// Set-ups per run; `setup_s` is their median. All but the last run in
/// child processes (`--setup-only`), so that the measured process holds one
/// set-up only: discarded set-ups would leave the allocator's arenas
/// fragmented by thread timing and make `peak_rss_mb` swing by a fifth
/// between identical runs.
const SETUPS: usize = 5;
/// Churn states re-evaluated from scratch after the window.
const CHURN_CHECKS: usize = 6;
const TOOLCHAIN: &str = env!("PERFBENCH_RUSTC");

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    steady: Option<usize>,
    corrupt: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        steady: None,
        corrupt: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?)
            }
            "--corrupt-expectation" => args.corrupt = true,
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of all, {}",
            Workload::ALL.map(Workload::name).join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <all|graph-serve|xml-twig|churn|skew-analytic> \
                 [--seed N] [--seconds S] [--trace 0|1] [--steady K] [--corrupt-expectation]"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let workload = Workload::parse(&args.workload).expect("checked in parse_args");
    if let Some(k) = args.steady {
        return run_steady(&args, k);
    }
    if args.setup_only {
        return match timed_set_up(&spec(workload, args.seed)) {
            Ok((seconds, served)) => {
                served.shutdown();
                println!("setup_s {seconds}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(3)
            }
        };
    }
    match run(workload, &args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}

/// One metric as printed: name, value, unit and sample count.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

/// The end-to-end metrics `BENCHMARK.json` gates, in order.
const GATED: [&str; 6] = [
    "setup_s",
    "qps",
    "read_p50_ms",
    "read_p99_ms",
    "peak_rss_mb",
    "cpu_ms_per_op",
];

fn host_stamp(workload: Workload, args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} toolchain=\"{TOOLCHAIN}\"",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

/// Prints the metric lines and the closing JSON object.
fn report(metrics: &[Metric], json_names: &[&str], correct: bool, attempted: u64, failed: u64) {
    for m in metrics {
        println!("metric {} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
    let body: Vec<String> = json_names
        .iter()
        .map(|n| {
            let m = metrics
                .iter()
                .find(|m| m.name == *n)
                .expect("every reported metric is measured");
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

/// Registry counters over an interval.
fn cache_delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        builds: after.builds - before.builds,
        build_time: after.build_time.saturating_sub(before.build_time),
        evictions: after.evictions - before.evictions,
        oversized: after.oversized - before.oversized,
        overlays: after.overlays - before.overlays,
        compactions: after.compactions - before.compactions,
        purged: after.purged - before.purged,
        entries: after.entries,
        bytes_in_use: after.bytes_in_use,
        budget: after.budget,
    }
}

/// Equal parts of the timed window. The gated rates and latencies are the
/// median over the parts, so a slow phase of the host that covers up to two
/// of the five parts does not set the run's value.
const SUB_WINDOWS: u32 = 5;

/// What one timed window measured.
struct Window {
    /// Nominal length.
    seconds: f64,
    logs: Vec<ClientLog>,
    writer: WriterLog,
    cpu_marks: Vec<f64>,
}

/// One sub-window's rates and latencies.
struct Part {
    reads: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    cpu_ms_per_op: f64,
}

impl Window {
    fn reads(&self) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| l.read_ms.iter().copied())
            .collect()
    }
    fn fresh(&self) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| l.fresh_ms.iter().copied())
            .collect()
    }
    fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.attempted).sum::<u64>() + self.writer.write_ms.len() as u64
    }
    fn failed(&self) -> u64 {
        self.logs
            .iter()
            .map(|l| l.errors + l.refused + l.wrong)
            .sum::<u64>()
            + self.writer.errors
    }
    fn ops(&self) -> usize {
        self.reads().len() + self.writer.write_ms.len()
    }

    /// Splits the window into its `SUB_WINDOWS` parts by completion time
    /// (a reply that lands after the window counts in the last part).
    fn parts(&self) -> Vec<Part> {
        let len = self.seconds / SUB_WINDOWS as f64;
        let part_of =
            |left_s: f64| (((self.seconds - left_s) / len) as usize).min(SUB_WINDOWS as usize - 1);
        let mut reads = vec![Vec::new(); SUB_WINDOWS as usize];
        for l in &self.logs {
            for (&ms, &left) in l.read_ms.iter().zip(&l.read_left_s) {
                reads[part_of(left)].push(ms);
            }
        }
        let mut writes = vec![0usize; SUB_WINDOWS as usize];
        for &left in &self.writer.write_left_s {
            writes[part_of(left)] += 1;
        }
        reads
            .iter()
            .enumerate()
            .map(|(i, r)| Part {
                reads: r.len(),
                qps: r.len() as f64 / len,
                p50_ms: median(r),
                p99_ms: quantile(r, 0.99),
                cpu_ms_per_op: (self.cpu_marks[i + 1] - self.cpu_marks[i])
                    / (r.len() + writes[i]).max(1) as f64,
            })
            .collect()
    }
}

fn timed_window(
    served: &Served,
    spec: &Spec,
    expects: &[Expect],
    seconds: f64,
    traced: Option<Instant>,
    batches_written: u64,
) -> Window {
    let logs = run_window(
        served,
        spec,
        expects,
        Duration::from_secs_f64(seconds),
        SUB_WINDOWS,
        traced,
        batches_written,
    );
    Window {
        seconds,
        logs: logs.clients,
        writer: logs.writer,
        cpu_marks: logs.cpu_marks,
    }
}

/// Re-evaluates a sample of the churn reads against a from-scratch store
/// built over the same rows, queried with pairwise hash joins. Returns the
/// number of reads checked and of reads that matched no admissible state.
fn verify_churn(spec: &Spec, reads: &[ChurnRead]) -> (usize, usize) {
    let plan = spec.churn.as_ref().expect("churn plan");
    let (base, _) = generate(spec.workload, spec.seed);
    let rows_of = |name: &str| -> Vec<Vec<relational::Value>> {
        let rel = base.relation(name).expect("churn relation");
        rel.rows()
            .map(|r| r.iter().map(|&v| base.dict().decode(v).clone()).collect())
            .collect()
    };
    let (query, _) =
        xjoin_core::parse_query_with_options(&spec.stmts[0].text).expect("churn query parses");
    let mut memo: BTreeMap<u64, Fingerprint> = BTreeMap::new();
    let mut state_fp = |k: u64| -> Fingerprint {
        *memo.entry(k).or_insert_with(|| {
            let mut db = relational::Database::new();
            for name in ["R", "S", "T", "F"] {
                let schema = base
                    .relation(name)
                    .expect("churn relation")
                    .schema()
                    .clone();
                let mut rows = rows_of(name);
                for (rel, batch) in &plan.batches[..k as usize] {
                    if *rel == name {
                        rows.extend(batch.iter().cloned());
                    }
                }
                db.load(name, schema, rows)
                    .expect("load from-scratch relation");
            }
            let mut dict = db.dict().clone();
            let mut b = xmldb::XmlDocument::builder();
            b.begin("graph");
            b.end();
            let doc = b.build(&mut dict);
            *db.dict_mut() = dict;
            let store = xjoin_store::VersionedStore::new(db, doc);
            let snap = store.snapshot();
            let out = xjoin_core::execute(
                &snap.ctx(),
                &query,
                &ExecOptions::for_engine(EngineKind::HashJoin),
            )
            .expect("from-scratch hash join");
            expect_from(snap.db().dict(), &out.results, None, &spec.stmts[0].text)
                .expect("from-scratch reply fits")
                .full
        })
    };
    let n = reads.len();
    let picks: Vec<&ChurnRead> = (0..CHURN_CHECKS.min(n))
        .map(|j| &reads[(j * n) / CHURN_CHECKS.min(n).max(1)])
        .collect();
    let mut wrong = 0;
    for read in &picks {
        let hi = (read.writes_after + 1).min(plan.batches.len() as u64);
        let ok = read
            .got
            .is_some_and(|got| (read.writes_before..=hi).any(|k| state_fp(k) == got));
        if !ok {
            wrong += 1;
        }
    }
    (picks.len(), wrong)
}

/// Parses a counter or a histogram `(count, mean)` out of a STATS JSON body.
fn stats_value(body: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": ");
    let Some(at) = body.find(&key) else {
        return 0.0;
    };
    let rest = &body[at + key.len()..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().unwrap_or(0.0)
}

fn stats_histogram(body: &str, name: &str) -> (f64, f64) {
    let key = format!("\"{name}\": {{");
    let Some(at) = body.find(&key) else {
        return (0.0, 0.0);
    };
    let obj = &body[at + key.len() - 1..];
    let obj = &obj[..obj.find('}').map_or(obj.len(), |e| e + 1)];
    (stats_value(obj, "count"), stats_value(obj, "mean"))
}

fn scrape(served: &Served) -> String {
    let mut client = match xjoin_serve::Client::connect(served.addr) {
        Ok(c) => c,
        Err(_) => return String::new(),
    };
    match client.stats(1) {
        Ok(Response::Stats { body, .. }) => body,
        _ => String::new(),
    }
}

/// One set-up, timed.
fn timed_set_up(spec: &Spec) -> Result<(f64, Served), String> {
    let t0 = Instant::now();
    let served = set_up(spec)?;
    Ok((t0.elapsed().as_secs_f64(), served))
}

fn run(workload: Workload, args: &Args) -> Result<ExitCode, String> {
    println!("{}", host_stamp(workload, args));
    let spec = spec(workload, args.seed);
    let mut expects = {
        let (db, doc) = generate(workload, args.seed);
        let expects = oracle(&spec, &db, &doc)?;
        if let Some(budget) = spec.cache_budget {
            println!(
                "# trie-cache budget {budget} bytes against a working set of {} bytes",
                workloads::working_set_bytes(&spec, db, doc)?
            );
        }
        expects
    };
    if args.corrupt {
        // A statement without LIMIT, whose reply is compared whole.
        let i = expects.iter().position(|e| e.limit.is_none()).unwrap_or(0);
        expects[i].full.checksum ^= 1;
        println!(
            "# --corrupt-expectation: perturbed the expected checksum of `{}`",
            spec.stmts[i].text
        );
    }

    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let mut child_args = child_args(workload.name(), args.seed, args);
        child_args.push("--setup-only".into());
        let out = child(&child_args)?;
        let seconds = out
            .lines()
            .find_map(|l| l.strip_prefix("setup_s ")?.parse::<f64>().ok())
            .ok_or("a --setup-only child printed no setup_s")?;
        setup_s.push(seconds);
    }
    let (seconds, served) = timed_set_up(&spec)?;
    setup_s.push(seconds);
    stats::reset_peak_rss();
    let stats0 = served.store.registry().stats();
    println!(
        "# set-up: {} statements{}, largest expected reply {} of {} bytes; trie cache {} entries / {} bytes (budget {})",
        spec.stmts.len(),
        if served.stmt_ids.is_empty() {
            String::new()
        } else {
            format!(" (highest price 2^{:.1})", served.max_log2_bound)
        },
        expects.iter().map(|e| e.reply_bytes).max().unwrap_or(0),
        xjoin_serve::protocol::MAX_PAYLOAD,
        stats0.entries,
        stats0.bytes_in_use,
        spec.cache_budget.map_or("unbounded".to_string(), |b| b.to_string())
    );

    if args.trace {
        let code = run_traced(&spec, &served, &expects, args, stats0);
        served.shutdown();
        return Ok(code);
    }

    let w = timed_window(&served, &spec, &expects, args.seconds as f64, None, 0);
    let fresh: Vec<ChurnRead> = w
        .logs
        .iter()
        .flat_map(|l| l.fresh_reads.iter().copied())
        .collect();
    let (churn_checked, churn_wrong) = if spec.churn.is_some() {
        verify_churn(&spec, &fresh)
    } else {
        (0, 0)
    };
    let reads = w.reads();
    let attempted = w.attempted();
    let failed = w.failed() + churn_wrong as u64;
    let refused: u64 = w.logs.iter().map(|l| l.refused).sum();
    let wrong: u64 = w.logs.iter().map(|l| l.wrong).sum::<u64>() + churn_wrong as u64;
    let errors: u64 = w.logs.iter().map(|l| l.errors).sum::<u64>() + w.writer.errors;
    println!(
        "# window: {} s in {SUB_WINDOWS} parts, {} reads, {} writes; errors {errors}, refused {refused}, wrong {wrong}{}",
        w.seconds,
        reads.len(),
        w.writer.write_ms.len(),
        if spec.churn.is_some() {
            format!(" (churn reads re-checked from scratch: {churn_checked})")
        } else {
            String::new()
        }
    );
    let parts = w.parts();
    let beyond_p99 = parts.iter().map(|p| p.reads / 100).min().unwrap_or(0);
    if beyond_p99 < 10 {
        println!("# warning: only {beyond_p99} samples beyond read_p99_ms in a sub-window");
    }
    for (i, p) in parts.iter().enumerate() {
        println!(
            "# part {i}: qps {:.1}, read_p50_ms {:.4}, read_p99_ms {:.4}, cpu_ms_per_op {:.4}",
            p.qps, p.p50_ms, p.p99_ms, p.cpu_ms_per_op
        );
    }
    let of_parts = |f: fn(&Part) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
    let fresh_ms = w.fresh();
    let metrics = vec![
        metric("setup_s", median(&setup_s), "s", setup_s.len()),
        metric("qps", of_parts(|p| p.qps), "1/s", reads.len()),
        metric("read_p50_ms", of_parts(|p| p.p50_ms), "ms", reads.len()),
        metric("read_p99_ms", of_parts(|p| p.p99_ms), "ms", reads.len()),
        metric(
            "write_p50_ms",
            median(&w.writer.write_ms),
            "ms",
            w.writer.write_ms.len(),
        ),
        metric("fresh_read_p50_ms", median(&fresh_ms), "ms", fresh_ms.len()),
        metric(
            "failed_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
            attempted as usize,
        ),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MiB", 1),
        metric(
            "cpu_ms_per_op",
            of_parts(|p| p.cpu_ms_per_op),
            "ms",
            w.ops(),
        ),
    ];
    served.shutdown();
    let correct = wrong == 0;
    report(&metrics, &GATED, correct, attempted, failed);
    Ok(if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {failed} of {attempted} operations failed ({wrong} wrong results)");
        ExitCode::from(1)
    })
}

/// The per-layer metrics `BENCHMARK.json` lists, in order.
const LAYERS: [(&str, &str); 42] = [
    ("server.roundtrip_ms", "ms"),
    ("server.codec_ms", "ms"),
    ("server.reply_bytes", "bytes"),
    ("server.refused", "count"),
    ("service.queue_wait_ms", "ms"),
    ("prepared.prepare_ms", "ms"),
    ("prepared.exec_ms", "ms"),
    ("mmql.parse_ms", "ms"),
    ("engine.lower_ms", "ms"),
    ("bounds.price_ms", "ms"),
    ("order.compute_ms", "ms"),
    ("order.reorders", "count"),
    ("order.estimate_probes", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.builds", "count"),
    ("cache.build_ms", "ms"),
    ("cache.evictions", "count"),
    ("cache.bytes_in_use", "bytes"),
    ("trie.build_ms", "ms"),
    ("trie.rows_per_s", "1/s"),
    ("lftj.walk_ms", "ms"),
    ("lftj.bindings", "count"),
    ("lftj.seeks", "count"),
    ("lftj.seek_steps", "count"),
    ("lftj.yield_ratio", "ratio"),
    ("validate.ms", "ms"),
    ("validate.calls", "count"),
    ("validate.lookups", "count"),
    ("validate.pass_ratio", "ratio"),
    ("morsel.walk_ms", "ms"),
    ("morsel.speedup", "ratio"),
    ("morsel.imbalance", "ratio"),
    ("store.append_ms", "ms"),
    ("store.overlays", "count"),
    ("store.compactions", "count"),
    ("store.delta_runs", "count"),
    ("load.lag_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("unattributed_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("fresh_read_p50_ms", "ms"),
    ("failed_ratio", "ratio"),
];

/// The traced run: an untraced half window, a traced half window (client
/// spans only, for `trace.overhead`), then the layer replay.
fn run_traced(
    spec: &Spec,
    served: &Served,
    expects: &[Expect],
    args: &Args,
    stats0: CacheStats,
) -> ExitCode {
    let origin = Instant::now();
    let body0 = scrape(served);
    let half = args.seconds as f64 / 2.0;
    let plain = timed_window(served, spec, expects, half, None, 0);
    let written = plain.writer.write_ms.len() as u64;
    let traced = timed_window(served, spec, expects, half, Some(origin), written);
    let written = written + traced.writer.write_ms.len() as u64;
    let body1 = scrape(served);
    let cache = cache_delta(&stats0, &served.store.registry().stats());

    let mut tracer = trace::Tracer::new(origin);
    for (c, log) in traced.logs.iter().enumerate() {
        for (n, &(start_ns, end_ns)) in log.spans.iter().enumerate() {
            let id = tracer.open("client.request", ((c as u64 + 1) << 32) | n as u64, None);
            tracer.spans[id].start_ns = start_ns;
            tracer.spans[id].end_ns = end_ns;
        }
    }
    let counts = trace::replay(spec, served, &mut tracer, written as usize);
    let self_ms = tracer.self_ms_by_name();

    let fresh: Vec<ChurnRead> = plain
        .logs
        .iter()
        .chain(&traced.logs)
        .flat_map(|l| l.fresh_reads.iter().copied())
        .collect();
    let (_, churn_wrong) = if spec.churn.is_some() {
        verify_churn(spec, &fresh)
    } else {
        (0, 0)
    };
    let attempted = plain.attempted() + traced.attempted();
    let failed = plain.failed() + traced.failed() + churn_wrong as u64 + counts.failures as u64;
    let wrong: u64 = plain
        .logs
        .iter()
        .chain(&traced.logs)
        .map(|l| l.wrong)
        .sum::<u64>()
        + churn_wrong as u64;

    let n = counts.requests.max(1) as f64;
    let per_req = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / n;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let untraced_p50 = median(&plain.reads());
    let traced_p50 = median(&traced.reads());
    let mut writes: Vec<f64> = plain.writer.write_ms.clone();
    writes.extend(&traced.writer.write_ms);
    let mut fresh_ms = plain.fresh();
    fresh_ms.extend(traced.fresh());
    let mut lag: Vec<f64> = plain.writer.lag_ms.clone();
    lag.extend(&traced.writer.lag_ms);
    let appends: Vec<f64> = (0..tracer.spans.len())
        .filter(|&id| tracer.spans[id].name == "store.append")
        .map(|id| tracer.ms(id))
        .collect();
    let morsel_n = counts.morsels.len();
    let (serial_ms, morsel_ms): (f64, f64) = counts
        .morsels
        .iter()
        .fold((0.0, 0.0), |a, m| (a.0 + m.0, a.1 + m.1));
    let imbalance = stats::mean(
        &counts
            .morsels
            .iter()
            .map(|m| ratio(m.2, m.3))
            .collect::<Vec<_>>(),
    );
    let (qw_count0, qw_mean0) = stats_histogram(&body0, "xjoin.service.queue_wait_us");
    let (qw_count1, qw_mean1) = stats_histogram(&body1, "xjoin.service.queue_wait_us");
    let stats_queue_ms = ratio(
        qw_count1 * qw_mean1 - qw_count0 * qw_mean0,
        qw_count1 - qw_count0,
    ) / 1e3;
    let refused = stats_value(&body1, "xjoin.server.admission.rejected")
        - stats_value(&body0, "xjoin.server.admission.rejected");
    let build_s = per_req("trie.build") * n / 1e3;
    let reqs = counts.requests;

    let values: BTreeMap<&str, (f64, usize)> = [
        ("server.roundtrip_ms", (per_req("server.roundtrip"), reqs)),
        ("server.codec_ms", (per_req("server.codec"), reqs)),
        ("server.reply_bytes", (counts.reply_bytes as f64 / n, reqs)),
        ("server.refused", (refused, 1)),
        (
            "service.queue_wait_ms",
            (
                stats::mean(&counts.queue_wait_ms),
                counts.queue_wait_ms.len(),
            ),
        ),
        ("prepared.prepare_ms", (per_req("prepared.prepare"), reqs)),
        ("prepared.exec_ms", (per_req("prepared.exec"), reqs)),
        ("mmql.parse_ms", (per_req("mmql.parse"), reqs)),
        ("engine.lower_ms", (per_req("engine.lower"), reqs)),
        ("bounds.price_ms", (per_req("bounds.price"), reqs)),
        ("order.compute_ms", (per_req("order.compute"), reqs)),
        ("order.reorders", (counts.reorders as f64 / n, reqs)),
        (
            "order.estimate_probes",
            (counts.estimate_probes as f64 / n, reqs),
        ),
        (
            "cache.hit_ratio",
            (
                ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
                (cache.hits + cache.misses) as usize,
            ),
        ),
        ("cache.builds", (cache.builds as f64, 1)),
        ("cache.build_ms", (cache.build_time.as_secs_f64() * 1e3, 1)),
        ("cache.evictions", (cache.evictions as f64, 1)),
        ("cache.bytes_in_use", (cache.bytes_in_use as f64, 1)),
        ("trie.build_ms", (per_req("trie.build"), reqs)),
        (
            "trie.rows_per_s",
            (ratio(counts.trie_rows as f64, build_s), reqs),
        ),
        ("lftj.walk_ms", (per_req("lftj.walk"), reqs)),
        ("lftj.bindings", (counts.bindings as f64 / n, reqs)),
        ("lftj.seeks", (counts.seeks as f64 / n, reqs)),
        ("lftj.seek_steps", (counts.seek_steps as f64 / n, reqs)),
        (
            "lftj.yield_ratio",
            (ratio(counts.walk_rows as f64, counts.bindings as f64), reqs),
        ),
        ("validate.ms", (per_req("validate"), reqs)),
        ("validate.calls", (counts.validate_calls as f64 / n, reqs)),
        (
            "validate.lookups",
            (counts.validate_lookups as f64 / n, reqs),
        ),
        (
            "validate.pass_ratio",
            (
                ratio(counts.validate_passed as f64, counts.validate_calls as f64),
                reqs,
            ),
        ),
        ("morsel.walk_ms", (per_req("morsel.walk"), morsel_n)),
        ("morsel.speedup", (ratio(serial_ms, morsel_ms), morsel_n)),
        ("morsel.imbalance", (imbalance, morsel_n)),
        ("store.append_ms", (stats::mean(&appends), appends.len())),
        ("store.overlays", (cache.overlays as f64, 1)),
        ("store.compactions", (cache.compactions as f64, 1)),
        ("store.delta_runs", (counts.delta_runs as f64 / n, reqs)),
        ("load.lag_ms", (median(&lag), lag.len())),
        (
            "trace.overhead",
            (
                ratio(traced_p50 - untraced_p50, untraced_p50),
                traced.reads().len(),
            ),
        ),
        (
            "unattributed_ms",
            (
                stats::mean(&counts.unattributed_ms),
                counts.unattributed_ms.len(),
            ),
        ),
        ("write_p50_ms", (median(&writes), writes.len())),
        ("fresh_read_p50_ms", (median(&fresh_ms), fresh_ms.len())),
        (
            "failed_ratio",
            (failed as f64 / attempted.max(1) as f64, attempted as usize),
        ),
    ]
    .into_iter()
    .collect();
    let metrics: Vec<Metric> = LAYERS
        .iter()
        .map(|&(name, unit)| {
            let (v, samples) = values[name];
            metric(name, v, unit, samples)
        })
        .collect();

    // Single layers ranked by self time per replayed request; the spans
    // that wrap several layers (execute, service, round trip) are left out.
    let mut ranked: Vec<(&str, f64)> = self_ms
        .iter()
        .filter(|(k, _)| {
            !matches!(
                **k,
                "request" | "client.request" | "server.roundtrip" | "service" | "prepared.exec"
            )
        })
        .map(|(k, v)| (*k, v / n))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: Vec<String> = ranked
        .iter()
        .take(4)
        .map(|(k, v)| format!("{k} {v:.3} ms"))
        .collect();
    println!(
        "# traced: {} requests replayed ({} failed); largest layers per request: {}; \
         STATS queue wait {stats_queue_ms:.4} ms over {} jobs",
        counts.requests,
        counts.failures,
        top.join(", "),
        qw_count1 - qw_count0
    );
    let path = std::path::Path::new("perfbench/results").join(format!(
        "trace-{}-seed{}.jsonl",
        spec.workload.name(),
        spec.seed
    ));
    match tracer.write(&path, &host_stamp(spec.workload, args)) {
        Ok(()) => println!(
            "# spans: {} written to {}",
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => println!("# spans: could not write {}: {e}", path.display()),
    }
    let names: Vec<&str> = LAYERS.iter().map(|l| l.0).collect();
    let correct = wrong == 0;
    report(&metrics, &names, correct, attempted, failed);
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs this program as a child and returns its stdout, or why it failed.
fn child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if out.status.success() {
        Ok(stdout)
    } else {
        Err(format!("exit {:?}\n{stdout}", out.status.code()))
    }
}

/// `metric <name> <value> <unit> n=<samples>` lines of a child's output.
fn metric_lines(out: &str) -> Vec<(String, f64, String, String)> {
    out.lines()
        .filter_map(|l| {
            let mut f = l.strip_prefix("metric ")?.split(' ');
            Some((
                f.next()?.to_string(),
                f.next()?.parse().ok()?,
                f.next()?.to_string(),
                f.next()?.to_string(),
            ))
        })
        .collect()
}

fn child_args(workload: &str, seed: u64, args: &Args) -> Vec<String> {
    vec![
        "--workload".into(),
        workload.into(),
        "--seed".into(),
        seed.to_string(),
        "--seconds".into(),
        args.seconds.to_string(),
        "--trace".into(),
        if args.trace { "1" } else { "0" }.into(),
    ]
}

/// `--workload all`: every workload in its own process, one table.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {}", w.name());
        match child(&child_args(w.name(), args.seed, args)) {
            Ok(out) => {
                for line in out.lines().filter(|l| l.starts_with('#')) {
                    println!("{line}");
                }
                for (name, value, unit, n) in metric_lines(&out) {
                    println!("  {name:<24} {value:>14.4} {unit:<6} {n}");
                }
            }
            Err(e) => {
                ok = false;
                println!("  FAILED: {e}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Python's `statistics.quantiles(values, n=4)` (the exclusive method).
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(|a, b| a.total_cmp(b));
    let ld = d.len() as i64;
    if ld < 2 {
        let v = d.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (d[(j - 1) as usize] * (4.0 - delta) + d[j as usize] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// `--steady K`: K back-to-back runs of one workload on seeds
/// `seed..seed+K`, summarised per metric.
fn run_steady(args: &Args, k: usize) -> ExitCode {
    let mut series: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    for i in 0..k as u64 {
        match child(&child_args(&args.workload, args.seed + i, args)) {
            Ok(out) => {
                for (name, value, unit, _) in metric_lines(&out) {
                    if !order.contains(&name) {
                        order.push(name.clone());
                    }
                    series
                        .entry(name)
                        .or_insert((unit, Vec::new()))
                        .1
                        .push(value);
                }
            }
            Err(e) => {
                println!("run {i} FAILED: {e}");
                return ExitCode::from(1);
            }
        }
    }
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "metric", "q1", "median", "q3", "iqr/med", "max/min"
    );
    for name in order {
        let (unit, v) = &series[&name];
        let (q1, q2, q3) = quartiles(v);
        let max = v.iter().copied().fold(f64::MIN, f64::max);
        let min = v.iter().copied().fold(f64::MAX, f64::min);
        let spread = if q2 != 0.0 { (q3 - q1) / q2 } else { 0.0 };
        let range = if min > 0.0 { max / min } else { 0.0 };
        let raw: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        println!(
            "{name:<24} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>9.4} {range:>9.3}  {unit} [{}]",
            raw.join(" ")
        );
    }
    ExitCode::SUCCESS
}
