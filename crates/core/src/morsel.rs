//! Morsel-driven intra-query parallelism for the plan-based engines.
//!
//! Both enumeration strategies in this workspace (the level-wise driver
//! behind XJoin and the generic join, the depth-first walk behind LFTJ and
//! streaming XJoin) bind variables in one global order, starting from a
//! leapfrog intersection over the root levels of the participating tries.
//! Partitioning the **first** variable's value domain therefore splits the
//! whole join into independent sub-joins ("morsels"): each morsel is its
//! own expansion or walk, no coordination is needed, and the AGM-bounded
//! total work divides across cores.
//!
//! Three pieces implement this, one per concern — there is no per-engine
//! code here:
//!
//! * [`Parallelism`] — the knob on [`crate::ExecOptions`]: serial, a fixed
//!   thread count, or all available cores;
//! * [`partition_root`] — morsel planning: split the root trie's first-level
//!   values into `K` contiguous [`ValueRange`]s that disjointly cover the
//!   entire value space (so no atom's root value can fall between morsels);
//! * the scheduler — a crate-internal `map_morsels` that runs one job per
//!   morsel on a scoped `std` thread pool (workers pull morsel indices from
//!   an atomic counter) and returns the outputs in domain order; both arms
//!   of [`crate::execute_with_plan`] materialise through it. The streaming
//!   engine instead gets a channel-backed tuple source (detached workers
//!   feeding a bounded channel behind the pull-based [`crate::Rows`]
//!   iterator, reached through [`crate::stream_with_plan`]).
//!
//! **Determinism.** Because every result tuple belongs to exactly one morsel
//! (by its first binding) and morsels are contiguous value ranges,
//! concatenating morsel outputs in domain order reproduces the serial
//! engines' output *order*, not just the result set. The materialising
//! engines always merge this way; the streaming source does too unless
//! [`crate::ExecOptions::unordered`] opts into arrival order.
//!
//! **Stats.** Per-stage intermediate counts partition exactly across a
//! disjoint cover, so the merged [`relational::JoinStats`] sums each stage
//! over the morsels and equals the serial series — Lemma 3.5 measurements
//! survive parallel execution. Walk work counters aggregate the same way:
//! [`crate::RowsStats::visited`] on a parallel iterator is the **sum** of
//! all workers' binding counters (updated as each worker retires a morsel).
//!
//! **Limits.** The streaming consumer publishes its emitted-row count to a
//! shared atomic; workers poll it between tuples and abandon their walks
//! once the limit is reached, so `LIMIT k` still prunes the search space
//! under parallel execution.

use crate::error::Result;
use relational::{JoinPlan, LftjWalk, Relation, Schema, ValueId, ValueRange};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Morsels handed to the scheduler per worker thread: more morsels than
/// workers lets fast workers steal remaining ranges (dynamic load
/// balancing), while merge order keeps the output deterministic.
const MORSELS_PER_WORKER: usize = 4;

/// Tuples per channel message of the parallel streaming source: workers
/// batch result tuples to amortise channel synchronisation off the per-tuple
/// path.
const BATCH_SIZE: usize = 64;

/// Bounded channel capacity (in batches) of the parallel streaming source;
/// workers block once the consumer falls this far behind (backpressure).
const CHANNEL_CAPACITY: usize = 64;

/// Intra-query parallelism of the plan-based engines (a knob on
/// [`crate::ExecOptions`]). Non-plan engines (the baseline, the hash join)
/// ignore it and always run serially.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded execution (the default).
    #[default]
    Serial,
    /// A fixed number of worker threads (`Threads(0)` and `Threads(1)` both
    /// mean serial).
    Threads(usize),
    /// One worker per available core
    /// ([`std::thread::available_parallelism`]).
    Auto,
}

impl Parallelism {
    /// The effective worker count: at least 1; `Auto` resolves to the number
    /// of available cores (1 when that cannot be determined).
    pub fn workers(&self) -> usize {
        match *self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Whether this setting enables more than one worker.
    pub fn is_parallel(&self) -> bool {
        self.workers() > 1
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Serial => write!(f, "serial"),
            Parallelism::Threads(n) => write!(f, "threads({n})"),
            Parallelism::Auto => write!(f, "auto"),
        }
    }
}

/// Morsel planning: splits the value space into at most `morsels` contiguous
/// [`ValueRange`]s, seeded from the first-level values of the smallest root
/// trie participating in the plan's first variable.
///
/// The returned ranges are a **disjoint cover of the entire value space**:
/// the first range starts at [`ValueId`]`(0)`, each range's `hi` equals the
/// next range's `lo`, and the last range is unbounded — so every first-level
/// value of *every* atom (not just the sampled one) falls in exactly one
/// morsel, and no result tuple is lost or duplicated. Some morsels may turn
/// out empty for atoms whose values cluster differently; that is harmless.
///
/// Plans with no variables (or an empty sampled root level, or `morsels <=
/// 1`) yield the single full range.
pub fn partition_root(plan: &JoinPlan, morsels: usize) -> Vec<ValueRange> {
    let Some(vp) = plan.var_plans().first() else {
        return vec![ValueRange::all()];
    };
    if morsels <= 1 {
        return vec![ValueRange::all()];
    }
    let seed = vp
        .participants
        .iter()
        .min_by_key(|p| plan.tries()[p.atom].level_len(p.level))
        .expect("every variable has at least one participant");
    debug_assert_eq!(seed.level, 0, "first variable binds at the root level");
    let trie = &plan.tries()[seed.atom];
    let vals = trie.values(0, trie.root_range());
    if vals.is_empty() {
        return vec![ValueRange::all()];
    }
    let k = morsels.min(vals.len());
    (0..k)
        .map(|i| ValueRange {
            lo: if i == 0 {
                ValueId(0)
            } else {
                vals[i * vals.len() / k]
            },
            hi: if i + 1 == k {
                None
            } else {
                Some(vals[(i + 1) * vals.len() / k])
            },
        })
        .collect()
}

/// Runs `job` over every morsel on a scoped pool of `workers` threads
/// (workers pull morsel indices from a shared atomic), returning the
/// per-morsel outputs **in morsel order**. The first job error wins.
fn run_morsels<T, F>(morsels: &[ValueRange], workers: usize, job: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(&ValueRange) -> Result<T> + Sync,
{
    let n = morsels.len();
    if n <= 1 || workers <= 1 {
        return morsels
            .iter()
            .map(|range| {
                let _span = xjoin_obs::span("morsel");
                job(range)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for w in 0..workers.min(n) {
            let worker = || {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let mut span = xjoin_obs::span("morsel");
                    span.set_attr(|| format!("morsel={i}"));
                    let out = job(&morsels[i]);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                }
                // Scoped threads end with the scope, not the process: hand
                // this worker's span ring to the global collector now.
                xjoin_obs::flush_thread();
            };
            std::thread::Builder::new()
                .name(format!("xjoin-morsel-{w}"))
                .spawn_scoped(s, worker)
                .expect("spawn morsel worker");
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("scoped pool ran every morsel")
        })
        .collect()
}

/// Runs `job` over the morsels of `plan` planned for `workers` threads and
/// returns the per-morsel outputs **in domain order**: a single full-range
/// run when serial, otherwise [`MORSELS_PER_WORKER`] morsels per worker on
/// a scoped pool. The first job error wins.
pub(crate) fn map_morsels<T, F>(plan: &JoinPlan, workers: usize, job: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(&ValueRange) -> Result<T> + Sync,
{
    if workers <= 1 {
        return Ok(vec![job(&ValueRange::all())?]);
    }
    let morsels = partition_root(plan, workers.saturating_mul(MORSELS_PER_WORKER));
    let mut dispatch_span = xjoin_obs::span("morsel-dispatch");
    dispatch_span.set_attr(|| format!("morsels={} workers={workers}", morsels.len()));
    run_morsels(&morsels, workers, job)
}

/// Concatenates per-morsel relations (already in domain order) into one
/// relation over `schema` — a move, not a copy, for a single part.
pub(crate) fn concat(schema: Schema, mut parts: Vec<Relation>) -> Relation {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let total = parts.iter().map(Relation::len).sum();
    let mut merged = Relation::with_capacity(schema, total);
    for part in &parts {
        for row in part.rows() {
            merged.push(row).expect("morsel schema matches plan order");
        }
    }
    merged
}

/// A message from a morsel worker to the streaming consumer.
enum WorkerMsg {
    /// A batch of full-width result tuples of morsel `usize` (at most
    /// [`BATCH_SIZE`], in walk order).
    Tuples(usize, Vec<Vec<ValueId>>),
    /// Morsel `usize` is fully enumerated.
    Done(usize),
}

/// State shared between the streaming consumer and its morsel workers.
struct MorselShared {
    morsels: Vec<ValueRange>,
    /// Next unclaimed morsel index.
    next: AtomicUsize,
    /// Summed binding counters of retired (or abandoned) walks.
    visited: AtomicU64,
    /// Rows emitted by the consumer so far — workers poll this between
    /// tuples and abandon their walks once `limit` is reached.
    emitted: AtomicU64,
    limit: Option<u64>,
}

/// The channel-backed tuple source behind a parallel [`crate::Rows`]:
/// detached worker threads walk morsels and feed full-width tuples through a
/// bounded channel; validation, projection, deduplication, and the limit
/// stay on the consumer side, exactly as in the serial walk.
pub(crate) struct ParallelTuples {
    /// Dropped first (in `Drop`) so blocked workers fail their sends and
    /// exit before the joins below.
    rx: Option<Receiver<WorkerMsg>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<MorselShared>,
    /// Reassemble morsels in domain order (deterministic mode) instead of
    /// yielding in arrival order.
    ordered: bool,
    /// Ordered mode: tuples of not-yet-current morsels, buffered.
    buffers: Vec<VecDeque<Vec<ValueId>>>,
    done: Vec<bool>,
    cursor: usize,
    /// Arrival-order mode: the batch currently being drained.
    arrived: VecDeque<Vec<ValueId>>,
    /// All workers have exited (channel disconnected).
    closed: bool,
}

impl ParallelTuples {
    /// Plans morsels over `plan` and spawns up to `workers` walker threads.
    pub(crate) fn spawn(
        plan: &JoinPlan,
        limit: Option<usize>,
        workers: usize,
        ordered: bool,
    ) -> ParallelTuples {
        let morsels = partition_root(plan, workers.saturating_mul(MORSELS_PER_WORKER));
        let n = morsels.len();
        let shared = Arc::new(MorselShared {
            morsels,
            next: AtomicUsize::new(0),
            visited: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            limit: limit.map(|k| k as u64),
        });
        let (tx, rx) = sync_channel::<WorkerMsg>(CHANNEL_CAPACITY);
        let plan = Arc::new(plan.clone());
        let handles = (0..workers.min(n))
            .map(|w| {
                let tx = tx.clone();
                let plan = Arc::clone(&plan);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("xjoin-morsel-{w}"))
                    .spawn(move || worker_loop(&plan, &shared, &tx))
                    .expect("spawn morsel worker")
            })
            .collect();
        ParallelTuples {
            rx: Some(rx),
            workers: handles,
            shared,
            ordered,
            buffers: vec![VecDeque::new(); n],
            done: vec![false; n],
            cursor: 0,
            arrived: VecDeque::new(),
            closed: false,
        }
    }

    /// Summed binding counters of all workers (updated as walks retire).
    pub(crate) fn visited(&self) -> u64 {
        self.shared.visited.load(Ordering::Relaxed)
    }

    /// Publishes the consumer's emitted-row count for worker cut-off.
    pub(crate) fn note_emitted(&self, total: u64) {
        self.shared.emitted.store(total, Ordering::Relaxed);
    }

    fn recv(&mut self) -> Option<WorkerMsg> {
        self.rx.as_ref()?.recv().ok()
    }

    /// The next full-width tuple, or `None` when every morsel is drained.
    pub(crate) fn next_tuple(&mut self) -> Option<Vec<ValueId>> {
        if !self.ordered {
            loop {
                if let Some(t) = self.arrived.pop_front() {
                    return Some(t);
                }
                match self.recv()? {
                    WorkerMsg::Tuples(_, batch) => self.arrived.extend(batch),
                    WorkerMsg::Done(_) => continue,
                }
            }
        }
        loop {
            if self.cursor >= self.buffers.len() {
                return None;
            }
            if let Some(t) = self.buffers[self.cursor].pop_front() {
                return Some(t);
            }
            if self.done[self.cursor] || self.closed {
                self.cursor += 1;
                continue;
            }
            match self.recv() {
                Some(WorkerMsg::Tuples(i, batch)) => self.buffers[i].extend(batch),
                Some(WorkerMsg::Done(i)) => self.done[i] = true,
                // Workers gone: drain whatever is buffered, in order.
                None => self.closed = true,
            }
        }
    }
}

impl Drop for ParallelTuples {
    fn drop(&mut self) {
        // Disconnect the channel first: workers blocked in `send` wake with
        // an error and exit, so the joins below cannot hang.
        self.rx.take();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl fmt::Debug for ParallelTuples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelTuples")
            .field("morsels", &self.buffers.len())
            .field("workers", &self.workers.len())
            .field("ordered", &self.ordered)
            .finish()
    }
}

/// One worker: claim morsels from the shared counter, walk each with a
/// range-restricted [`LftjWalk`], and stream tuple batches to the consumer
/// (batching amortises channel synchronisation off the per-tuple path).
/// Each walk runs the default block probe kernel
/// ([`relational::ProbeKernel`]) — batch refills and bitset seeks work
/// unchanged under clamped root ranges, which the kernel-differential probe
/// suite exercises per morsel — so parallel and serial execution stay
/// bit-identical. Exits when morsels run out, when the consumer's emitted
/// count reaches the limit, or when the consumer hangs up (send error).
fn worker_loop(plan: &Arc<JoinPlan>, shared: &Arc<MorselShared>, tx: &SyncSender<WorkerMsg>) {
    loop {
        let i = shared.next.fetch_add(1, Ordering::Relaxed);
        let Some(range) = shared.morsels.get(i) else {
            return;
        };
        let mut span = xjoin_obs::span("morsel");
        span.set_attr(|| format!("morsel={i}"));
        let mut walk = LftjWalk::with_root_range(plan.as_ref().clone(), range.clone());
        let mut batch: Vec<Vec<ValueId>> = Vec::with_capacity(BATCH_SIZE);
        loop {
            if shared
                .limit
                .is_some_and(|k| shared.emitted.load(Ordering::Relaxed) >= k)
            {
                // Cut-off: the limit is already satisfied, so the unsent
                // batch is dropped; just account the work done.
                shared.visited.fetch_add(walk.bindings(), Ordering::Relaxed);
                return;
            }
            let Some(t) = walk.next_tuple() else { break };
            batch.push(t.to_vec());
            if batch.len() == BATCH_SIZE
                && tx
                    .send(WorkerMsg::Tuples(i, std::mem::take(&mut batch)))
                    .is_err()
            {
                shared.visited.fetch_add(walk.bindings(), Ordering::Relaxed);
                return;
            }
        }
        shared.visited.fetch_add(walk.bindings(), Ordering::Relaxed);
        if !batch.is_empty() && tx.send(WorkerMsg::Tuples(i, batch)).is_err() {
            return;
        }
        if tx.send(WorkerMsg::Done(i)).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{Relation, Schema};

    fn rel(names: &[&str], rows: &[&[u32]]) -> Relation {
        let mut r = Relation::new(Schema::of(names));
        for row in rows {
            let ids: Vec<ValueId> = row.iter().map(|&x| ValueId(x)).collect();
            r.push(&ids).unwrap();
        }
        r
    }

    fn attrs(names: &[&str]) -> Vec<relational::Attr> {
        names.iter().map(|&n| relational::Attr::new(n)).collect()
    }

    #[test]
    fn parallelism_resolves_worker_counts() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert_eq!(Parallelism::Threads(3).workers(), 3);
        assert!(Parallelism::Auto.workers() >= 1);
        assert!(!Parallelism::Serial.is_parallel());
        assert!(Parallelism::Threads(2).is_parallel());
        assert_eq!(Parallelism::Threads(2).to_string(), "threads(2)");
    }

    #[test]
    fn partition_covers_disjointly_and_caps_at_root_len() {
        let r = rel(&["a", "b"], &[&[1, 1], &[4, 1], &[9, 1], &[12, 1]]);
        let plan = JoinPlan::new(&[&r], &attrs(&["a", "b"])).unwrap();
        for k in [1usize, 2, 3, 4, 9, 100] {
            let ranges = partition_root(&plan, k);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= k.max(1));
            assert!(ranges.len() <= 4, "at most one morsel per root value");
            assert_eq!(ranges[0].lo, ValueId(0));
            assert!(ranges.last().unwrap().hi.is_none());
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].hi, Some(pair[1].lo), "ranges must be adjacent");
            }
            // Every root value falls in exactly one range.
            for v in [1u32, 4, 9, 12] {
                let hits = ranges.iter().filter(|r| r.contains(ValueId(v))).count();
                assert_eq!(hits, 1, "value {v} covered once for k={k}");
            }
        }
    }

    #[test]
    fn partition_of_empty_or_nullary_plans_is_the_full_range() {
        let empty = rel(&["a"], &[]);
        let plan = JoinPlan::new(&[&empty], &attrs(&["a"])).unwrap();
        assert_eq!(partition_root(&plan, 8), vec![ValueRange::all()]);
    }

    #[test]
    fn parallel_tuples_match_serial_walk_in_order() {
        let r = rel(&["a", "b"], &[&[1, 2], &[2, 3], &[3, 1], &[1, 3], &[5, 5]]);
        let s = rel(&["b", "c"], &[&[2, 3], &[3, 1], &[1, 2], &[5, 9]]);
        let plan = JoinPlan::new(&[&r, &s], &attrs(&["a", "b", "c"])).unwrap();
        let mut serial = LftjWalk::new(plan.clone());
        let mut expect = Vec::new();
        while let Some(t) = serial.next_tuple() {
            expect.push(t.to_vec());
        }
        let mut source = ParallelTuples::spawn(&plan, None, 3, true);
        let mut got = Vec::new();
        while let Some(t) = source.next_tuple() {
            got.push(t);
        }
        assert_eq!(got, expect, "ordered parallel source = serial walk order");
        assert_eq!(source.visited(), serial.bindings(), "visited sums exactly");

        // Unordered mode yields the same multiset.
        let mut unordered = ParallelTuples::spawn(&plan, None, 3, false);
        let mut got2 = Vec::new();
        while let Some(t) = unordered.next_tuple() {
            got2.push(t);
        }
        got2.sort();
        let mut sorted = expect;
        sorted.sort();
        assert_eq!(got2, sorted);
    }

    #[test]
    fn dropping_the_source_mid_stream_joins_workers() {
        let rows: Vec<Vec<ValueId>> = (0..200).map(|i| vec![ValueId(i)]).collect();
        let a = Relation::from_rows(Schema::of(&["a"]), rows.clone()).unwrap();
        let b = Relation::from_rows(
            Schema::of(&["b"]),
            (0..200).map(|i| vec![ValueId(i)]).collect::<Vec<_>>(),
        )
        .unwrap();
        let plan = JoinPlan::new(&[&a, &b], &attrs(&["a", "b"])).unwrap();
        let mut source = ParallelTuples::spawn(&plan, None, 2, true);
        assert!(source.next_tuple().is_some());
        drop(source); // must not hang: workers fail their sends and exit
    }
}
