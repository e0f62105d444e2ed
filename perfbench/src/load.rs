//! Set-up and the timed window: the store and server, the closed-loop
//! client connections, and the churn workload's open-loop writer.

use crate::stats::Fingerprint;
use crate::workloads::{generate, Expect, Route, Spec};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xjoin_serve::{
    AdmissionPolicy, Client, RequestOpts, Response, Server, ServerConfig, ServerHandle, WireResult,
};
use xjoin_store::VersionedStore;

/// Worker threads of the server's query service (the host has 2 cores).
pub const WORKERS: usize = 2;

/// The expensive-lane budget of the admission controller. Pricing stays on;
/// the budget admits two concurrent requests of the costliest statement
/// (set-up prints its price), so a correct run refuses nothing and every
/// `OVERLOAD` counts as a failure.
const ADMIT_COST: f64 = 256.0;

/// A served store: what set-up produces and the timed window uses.
pub struct Served {
    pub store: Arc<VersionedStore>,
    pub server: ServerHandle,
    pub addr: SocketAddr,
    /// Server statement id per pool statement (EXEC route only).
    pub stmt_ids: Vec<u64>,
    /// The highest AGM price (log2) among the PREPAREd statements.
    pub max_log2_bound: f64,
}

impl Served {
    /// Stops the server, waiting for its threads to drain.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Generates the data, loads the store, spawns the server, prepares the
/// statements and warms the trie cache — the work `setup_s` times.
pub fn set_up(spec: &Spec) -> Result<Served, String> {
    let (db, doc) = generate(spec.workload, spec.seed);
    let store = Arc::new(match spec.cache_budget {
        Some(budget) => VersionedStore::with_cache_budget(db, doc, budget),
        None => VersionedStore::new(db, doc),
    });
    let config = ServerConfig {
        workers: WORKERS,
        admission: AdmissionPolicy {
            max_inflight_cost: ADMIT_COST,
            ..AdmissionPolicy::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::spawn(Arc::clone(&store), config).map_err(|e| format!("spawn: {e}"))?;
    let addr = server.addr();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut stmt_ids = Vec::new();
    let mut max_log2_bound = f64::NEG_INFINITY;
    if spec.route == Route::Exec {
        for s in &spec.stmts {
            match client.prepare(&s.text, &s.opts) {
                Ok(Response::Prepared {
                    stmt_id,
                    log2_bound,
                    ..
                }) => {
                    stmt_ids.push(stmt_id);
                    max_log2_bound = max_log2_bound.max(log2_bound);
                }
                other => return Err(format!("PREPARE `{}` failed: {other:?}", s.text)),
            }
        }
    }
    let served = Served {
        store,
        server,
        addr,
        stmt_ids,
        max_log2_bound,
    };
    for &i in &spec.warm {
        match send(&mut client, spec, &served.stmt_ids, i) {
            Ok(Response::Rows(_)) => {}
            other => {
                return Err(format!(
                    "warm-up `{}` failed: {other:?}",
                    spec.stmts[i].text
                ))
            }
        }
    }
    Ok(served)
}

/// Sends pool statement `i` down `client` by the workload's route.
pub fn send(client: &mut Client, spec: &Spec, stmt_ids: &[u64], i: usize) -> WireResult<Response> {
    match spec.route {
        Route::Exec => client.exec(stmt_ids[i], RequestOpts::default()),
        Route::Query => client.query(
            &spec.stmts[i].text,
            &spec.stmts[i].opts,
            RequestOpts::default(),
        ),
    }
}

/// One fresh churn read kept for the post-window correctness check: the
/// writes completed before it was sent and after its reply arrived, and
/// what it returned.
#[derive(Debug, Clone, Copy)]
pub struct ChurnRead {
    pub writes_before: u64,
    pub writes_after: u64,
    pub got: Option<Fingerprint>,
}

/// What one closed-loop connection observed.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub read_ms: Vec<f64>,
    /// Per read: seconds left in the window when its reply arrived.
    pub read_left_s: Vec<f64>,
    /// Round trips of the first read sent after each write (churn only).
    pub fresh_ms: Vec<f64>,
    pub attempted: u64,
    pub errors: u64,
    pub refused: u64,
    pub wrong: u64,
    pub fresh_reads: Vec<ChurnRead>,
    /// `(start_ns, end_ns)` per request, when the window is traced.
    pub spans: Vec<(u64, u64)>,
}

/// Runs one closed-loop connection until `until`: draw a statement, send
/// it, wait for the reply, check it. With `writes` (churn), results depend
/// on the writes that landed, so they are recorded for the post-window
/// check instead of compared to the static expectation.
pub fn closed_loop(
    served: &Served,
    spec: &Spec,
    expects: &[Expect],
    client_no: u64,
    until: Instant,
    writes: Option<&AtomicU64>,
    traced: Option<Instant>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match Client::connect(served.addr) {
        Ok(c) => c,
        Err(_) => {
            log.attempted = 1;
            log.errors = 1;
            return log;
        }
    };
    let mut state = spec.seed ^ (0xc11e_0000 + client_no);
    let mut seen_writes = writes.map_or(0, |w| w.load(Ordering::SeqCst));
    while Instant::now() < until {
        let i = spec.draw(&mut state);
        let writes_before = writes.map_or(0, |w| w.load(Ordering::SeqCst));
        let t0 = Instant::now();
        let reply = send(&mut client, spec, &served.stmt_ids, i);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(origin) = traced {
            let start_ns = t0.duration_since(origin).as_nanos() as u64;
            log.spans.push((start_ns, start_ns + (ms * 1e6) as u64));
        }
        log.attempted += 1;
        match reply {
            Ok(Response::Rows(rows)) => {
                log.read_ms.push(ms);
                log.read_left_s.push(
                    until
                        .saturating_duration_since(Instant::now())
                        .as_secs_f64(),
                );
                match writes {
                    Some(w) => {
                        if writes_before > seen_writes {
                            seen_writes = writes_before;
                            log.fresh_ms.push(ms);
                            log.fresh_reads.push(ChurnRead {
                                writes_before,
                                writes_after: w.load(Ordering::SeqCst),
                                got: crate::stats::fingerprint(
                                    &rows.columns,
                                    &rows.rows,
                                    &expects[i].columns,
                                ),
                            });
                        }
                    }
                    None => {
                        if !expects[i].accepts(&rows.columns, &rows.rows) {
                            log.wrong += 1;
                        }
                    }
                }
            }
            Ok(Response::Overload { .. }) => log.refused += 1,
            Ok(_) | Err(_) => log.errors += 1,
        }
    }
    log
}

/// What the churn writer observed.
#[derive(Debug, Default)]
pub struct WriterLog {
    /// Completion time minus due time, per write.
    pub write_ms: Vec<f64>,
    /// Per write: seconds left in the window when it completed.
    pub write_left_s: Vec<f64>,
    /// Duration of the `VersionedStore::append` call alone.
    pub append_ms: Vec<f64>,
    /// How late each write started.
    pub lag_ms: Vec<f64>,
    pub errors: u64,
}

/// The open-loop writer: the `k`-th write of the window appends batch
/// `first + k` at `start + (k + 1) * period`, whatever the readers are
/// doing, until `until`. `writes` counts the batches applied since set-up.
pub fn writer(
    store: &VersionedStore,
    spec: &Spec,
    start: Instant,
    until: Instant,
    writes: &AtomicU64,
) -> WriterLog {
    let plan = spec.churn.as_ref().expect("churn plan");
    let first = writes.load(Ordering::SeqCst) as usize;
    let mut log = WriterLog::default();
    for (k, (name, rows)) in plan.batches[first..].iter().enumerate() {
        let due = start + plan.period * (k as u32 + 1);
        if due >= until {
            break;
        }
        let batch = rows.clone();
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let t0 = Instant::now();
        let ok = store.append(name, batch).is_ok();
        let done = Instant::now();
        if !ok {
            log.errors += 1;
        }
        writes.store((first + k) as u64 + 1, Ordering::SeqCst);
        log.lag_ms
            .push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
        log.append_ms.push((done - t0).as_secs_f64() * 1e3);
        log.write_ms.push((done - due).as_secs_f64() * 1e3);
        log.write_left_s
            .push(until.saturating_duration_since(done).as_secs_f64());
    }
    log
}

/// What one timed window observed.
pub struct WindowLogs {
    pub clients: Vec<ClientLog>,
    pub writer: WriterLog,
    /// Process CPU ms at the start of the window and at the end of each of
    /// its `sub_windows` equal parts.
    pub cpu_marks: Vec<f64>,
}

/// Runs the timed window: the workload's client connections (and, for
/// churn, the writer) for `window`, while this thread samples the process
/// CPU time at `sub_windows` equal steps.
pub fn run_window(
    served: &Served,
    spec: &Spec,
    expects: &[Expect],
    window: Duration,
    sub_windows: u32,
    traced: Option<Instant>,
    batches_written: u64,
) -> WindowLogs {
    let writes = AtomicU64::new(batches_written);
    let mut cpu_marks = vec![crate::stats::cpu_ms()];
    let start = Instant::now();
    let until = start + window;
    std::thread::scope(|s| {
        let writes = &writes;
        let churn = spec.churn.is_some();
        let readers: Vec<_> = (0..spec.clients as u64)
            .map(|c| {
                s.spawn(move || {
                    closed_loop(
                        served,
                        spec,
                        expects,
                        c,
                        until,
                        churn.then_some(writes),
                        traced,
                    )
                })
            })
            .collect();
        let writer_thread =
            churn.then(|| s.spawn(move || writer(&served.store, spec, start, until, writes)));
        for i in 1..=sub_windows {
            let mark = start + window * i / sub_windows;
            if let Some(wait) = mark.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            cpu_marks.push(crate::stats::cpu_ms());
        }
        WindowLogs {
            clients: readers
                .into_iter()
                .map(|r| r.join().expect("client thread panicked"))
                .collect(),
            writer: writer_thread.map_or_else(WriterLog::default, |w| {
                w.join().expect("writer thread panicked")
            }),
            cpu_marks,
        }
    })
}
