//! Approximate approach 2 (§4.3): lattice climbing with a functional
//! timing oracle.
//!
//! Candidate required times form the lattice `R = R₁ × … × R_n`; the
//! bottom `r⊥` is topological analysis. A candidate `r` is *safe* when a
//! full functional (false-path-aware) timing analysis under arrival
//! times `r` still meets every output's required time. Safety is
//! downward closed, so greedy coordinate raises find a maximal safe
//! point; backtracking enumerates all of them.
//!
//! ## Oracle architecture
//!
//! The safety oracle is decomposed per output cone: each primary output
//! gets its own standalone cone network ([`Network::extract_cone`]) with
//! its own delay table, so each stability check runs a private χ engine
//! over just that cone. The climb itself is sequential (each raise
//! depends on the last verdict); validation is organised as **rounds**:
//!
//! - **Batched probes** — every pending `(cone, rung)` probe of a round
//!   is grouped by cone into one [`Batch`]. A batch's SAT probes share
//!   one selector-guarded χ engine ([`ChiSatEngine::new_varying`]):
//!   the CNF is built once with the raised coordinate varying over the
//!   batch's rung values, so learned clauses and the clause database
//!   carry across the rungs of a batch instead of being rebuilt per
//!   probe.
//! - **Parallel rounds** — the batches of one round are independent.
//!   Once the search has made [`WARMUP_ORACLE_CALLS`] oracle calls, a
//!   round with three or more batches runs its leading batch alone,
//!   then the rest inside one [`std::thread::scope`] with
//!   `min(threads, available_parallelism)` workers pulling batches
//!   from a shared cursor, so one slow cone cannot serialize the round.
//!   The leading batch often disproves the round's rung by itself,
//!   and then no sibling probe is spent. Trivial circuits finish under
//!   the warm-up and never spawn a thread.
//! - **Per-cone verdict stores** — cone verdicts are pure facts about
//!   `(cone, projected arrivals)`. Each cone has its own store, owned
//!   by the search; a round holds at most one batch per cone, so the
//!   worker running a batch borrows that cone's store exclusively and
//!   no lock guards it.
//! - **Deterministic merge** — the probe schedule is thread-count
//!   independent (fixed ladder width [`LADDER_PROBES`], batches formed
//!   in cone-index order, verdicts landed by rung slot and merged in
//!   batch order, duplicate maxima dropped min-attempt-index first), so
//!   the reported analysis is byte-identical for every thread count.
//!   Parallelism changes how *many* oracle calls run (the cross-cone
//!   short-circuit may fire later), never what the search concludes.
//!
//! Raising coordinate `i` only re-validates cones whose transitive
//! input support contains `i` (precomputed
//! [`Network::output_support_masks`]); every other cone inherits its
//! verdict from the current safe point. Safety is monotone decreasing
//! in the pointwise order, so verdict caches answer by dominance
//! ([`CacheStrategy::Dominance`], the default) and the per-coordinate
//! climb gallops: next rung, top rung, then bisect the frontier.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use xrta_bdd::{BddError, FxHashMap};
use xrta_chi::{ChiSatEngine, EngineKind, FunctionalTiming, Stability};
use xrta_network::{Network, NodeId};
use xrta_robust::mem::Subsystem;
use xrta_sat::StopReason;
use xrta_timing::{required_times, DelayModel, TableDelay, Time};

use crate::dominance::{CacheStrategy, DominanceCache};
use crate::governor::{AnalysisError, Budget};
use crate::plan::plan_leaves;

/// Rungs probed per bisection round of the galloping ascent. Fixed (not
/// derived from the thread count) so the probe schedule — and with it
/// the whole search transcript — is identical for every thread count.
/// Two trisection probes per round also give every cone batch two rungs
/// to amortise its χ engine over.
const LADDER_PROBES: usize = 2;

/// Oracle calls a search must accumulate before a round may run in
/// parallel. Trivial circuits (the C499 and C1355 surrogates climb in
/// 71 calls) finish their whole climb under this threshold and never
/// pay thread-spawn latency.
const WARMUP_ORACLE_CALLS: usize = 128;

/// Estimated bytes per cached cone verdict beyond the projection
/// payload: map entry header and hash-table slot bookkeeping.
const ENTRY_BASE_BYTES: u64 = 64;

/// Soft-pressure reclamation is skipped while the cone stores hold less
/// than this — a sweep that frees a few kilobytes only costs refills.
const RECLAIM_FLOOR_BYTES: u64 = 1 << 20;

/// Options for the lattice-climbing analysis.
#[derive(Clone, Copy, Debug)]
pub struct Approx2Options {
    /// Which χ engine validates candidates (the paper uses the SAT
    /// engine for scalability).
    pub engine: EngineKind,
    /// Also try `∞` ("never arrives") as the top candidate per input.
    pub allow_never: bool,
    /// Stop after this many maximal points.
    pub max_solutions: usize,
    /// Stop after this many oracle invocations.
    pub max_oracle_calls: usize,
    /// Wall-clock budget (the paper's 12-hour cap, scaled down). Also
    /// enforced *inside* long-running oracle probes, as an engine
    /// deadline.
    pub time_budget: Option<Duration>,
    /// SAT-conflict budget per oracle query; inconclusive queries count
    /// as unsafe (sound: a candidate is only accepted when provably
    /// safe). `None` = unlimited.
    pub oracle_conflict_budget: Option<u64>,
    /// Unit-propagation budget per oracle query — a hard wall-clock
    /// bound on multiplier-class χ networks. Same conservative
    /// treatment as the conflict budget. `None` = unlimited.
    pub oracle_propagation_budget: Option<u64>,
    /// Candidate clustering stride (the paper's conclusion: "group
    /// [required times] into clusters of neighboring required times
    /// conservatively; controlling the number of clusters gives a
    /// trade-off between accuracy and CPU time"). A stride of `k` keeps
    /// every `k`-th candidate per input (always keeping the bottom and,
    /// when enabled, the ∞ top). 1 = no clustering.
    pub cluster_stride: usize,
    /// Worker threads for cone validation. `0` = use
    /// [`std::thread::available_parallelism`]; `1` = fully sequential.
    /// Clamped to the machine's parallelism; any value produces the
    /// same analysis.
    pub threads: usize,
    /// Verdict-cache strategy; see [`CacheStrategy`].
    pub cache: CacheStrategy,
}

impl Default for Approx2Options {
    fn default() -> Self {
        Approx2Options {
            engine: EngineKind::Sat,
            allow_never: true,
            max_solutions: 8,
            max_oracle_calls: 10_000,
            time_budget: None,
            oracle_conflict_budget: None,
            oracle_propagation_budget: None,
            cluster_stride: 1,
            threads: 0,
            cache: CacheStrategy::Dominance,
        }
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Approx2Options {
    /// Resolves [`Approx2Options::threads`] (`0` → available
    /// parallelism).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            available_parallelism()
        } else {
            self.threads
        }
    }
}

/// Result of the lattice-climbing analysis.
#[derive(Clone, Debug)]
pub struct Approx2Result {
    /// The topological bottom `r⊥` (per input, aligned with
    /// `net.inputs()`).
    pub r_bottom: Vec<Time>,
    /// Maximal safe points found (each dominates `r_bottom`).
    pub maximal: Vec<Vec<Time>>,
    /// The candidate rungs per input the climb searched over (aligned
    /// with `net.inputs()`; each starts at the bottom, increasing).
    pub candidates: Vec<Vec<Time>>,
    /// Wall time until the first validated `r ≠ r⊥`, if any (the
    /// "CPU time first r ≠ r⊥" column of the paper's Table 2).
    pub first_nontrivial: Option<Duration>,
    /// Total wall time of the search ("CPU time r_max").
    pub total_time: Duration,
    /// Oracle invocations (χ-engine runs; cache hits excluded).
    pub oracle_calls: usize,
    /// Safety queries answered from the verdict caches (whole-vector
    /// and per-cone combined) without running a χ engine.
    pub cache_hits: usize,
    /// Worker threads the search was configured to use.
    pub threads_used: usize,
    /// Oracle batches executed (each shares one χ engine across its
    /// probes).
    pub batches: usize,
    /// Probes that rode in a multi-rung batch (engine state reused).
    pub batched_probes: usize,
    /// False when a budget cap stopped the enumeration early; the
    /// `maximal` found so far are still valid safe points.
    pub completed: bool,
    /// The governor cause that truncated the search, when a
    /// [`Budget`] deadline (rather than the options' own caps)
    /// stopped it. The partial `maximal` remain sound.
    pub stopped_by: Option<AnalysisError>,
    /// Cone validations that panicked; each read conservatively as
    /// "unsafe", so one poisoned cone cannot take down the session.
    pub worker_panics: usize,
}

impl Approx2Result {
    /// Did the analysis find any required time looser than topological?
    pub fn has_nontrivial_requirement(&self) -> bool {
        self.maximal.iter().any(|r| r != &self.r_bottom)
    }

    /// Fraction of safety queries answered without a χ-engine run.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.oracle_calls;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The maximal points as [`RequiredTimeTuple`]s (uniform deadlines,
    /// since this analysis is value-independent) — the same type the
    /// exact and parametric analyses report, for uniform consumption.
    pub fn maximal_conditions(&self) -> Vec<crate::types::RequiredTimeTuple> {
        self.maximal
            .iter()
            .map(|r| crate::types::RequiredTimeTuple::uniform(r))
            .collect()
    }
}

/// One output's standalone validation cone: a private network, delay
/// table and support mask, so the cone's χ engine can run on any thread
/// without touching shared state.
struct Cone {
    /// The cone as its own network (inputs = the original PIs feeding
    /// it).
    net: Network,
    /// The root output inside `net`.
    out: NodeId,
    /// Delays copied from the caller's model (cone node ids).
    delays: TableDelay,
    /// Original input positions, in `net.inputs()` order.
    input_pos: Vec<usize>,
    /// Support bitmask over original input positions.
    mask: Vec<u64>,
    /// Required time at this output.
    required: Time,
}

impl Cone {
    fn supports(&self, input_pos: usize) -> bool {
        (self.mask[input_pos / 64] >> (input_pos % 64)) & 1 == 1
    }
}

/// Verdicts keyed by arrival vector, stored per [`CacheStrategy`].
enum Verdicts {
    Exact(FxHashMap<Vec<Time>, bool>),
    Dominance(DominanceCache),
}

impl Verdicts {
    fn new(strategy: CacheStrategy) -> Self {
        match strategy {
            CacheStrategy::Exact => Verdicts::Exact(FxHashMap::default()),
            CacheStrategy::Dominance => Verdicts::Dominance(DominanceCache::new()),
        }
    }

    fn get(&self, r: &[Time]) -> Option<bool> {
        match self {
            Verdicts::Exact(m) => m.get(r).copied(),
            Verdicts::Dominance(d) => d.peek(r),
        }
    }

    fn insert(&mut self, r: &[Time], safe: bool) {
        match self {
            Verdicts::Exact(m) => {
                m.insert(r.to_vec(), safe);
            }
            Verdicts::Dominance(d) => d.insert(r, safe),
        }
    }

    fn clear(&mut self) {
        match self {
            Verdicts::Exact(m) => *m = FxHashMap::default(),
            Verdicts::Dominance(d) => *d = DominanceCache::new(),
        }
    }
}

/// One cone's verdict store. Owned by the search and lent `&mut` to the
/// one worker running that cone's batch, so it needs no lock. Every
/// insert is charged to the process meter's `Stripes` account.
struct ConeStore {
    verdicts: Verdicts,
    /// Queries answered from `verdicts`.
    hits: usize,
    /// Bytes currently charged to the meter for this store.
    bytes: u64,
}

impl ConeStore {
    fn new(strategy: CacheStrategy) -> Self {
        ConeStore {
            verdicts: Verdicts::new(strategy),
            hits: 0,
            bytes: 0,
        }
    }

    /// Answers `proj` from the store, if it can; counts a hit.
    fn query(&mut self, proj: &[Time]) -> Option<bool> {
        let verdict = self.verdicts.get(proj);
        if verdict.is_some() {
            self.hits += 1;
        }
        verdict
    }

    fn insert(&mut self, proj: &[Time], safe: bool) {
        let entry_bytes = ENTRY_BASE_BYTES + std::mem::size_of_val(proj) as u64;
        xrta_robust::mem::global().charge(Subsystem::Stripes, entry_bytes);
        self.bytes += entry_bytes;
        self.verdicts.insert(proj, safe);
    }

    /// Drops every verdict and releases the store's meter charge. Sound:
    /// verdicts are pure facts the oracle can re-derive.
    fn clear(&mut self) {
        self.verdicts.clear();
        xrta_robust::mem::global().release(Subsystem::Stripes, self.bytes);
        self.bytes = 0;
    }
}

impl Drop for ConeStore {
    fn drop(&mut self) {
        xrta_robust::mem::global().release(Subsystem::Stripes, self.bytes);
    }
}

/// Soft-pressure sweep over the cone stores: clears them all, unless
/// together they hold less than [`RECLAIM_FLOOR_BYTES`]. Returns the
/// bytes freed.
fn reclaim(stores: &mut [ConeStore]) -> u64 {
    let held: u64 = stores.iter().map(|s| s.bytes).sum();
    if held < RECLAIM_FLOOR_BYTES {
        return 0;
    }
    stores.iter_mut().for_each(ConeStore::clear);
    held
}

/// Governor state shared with every cone validation.
#[derive(Clone, Default)]
struct OracleGovernor {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
    node_limit: Option<usize>,
    mem_limit: Option<u64>,
}

impl OracleGovernor {
    /// Budget interrupt pending? Polled between rounds and at batch
    /// entry.
    fn stop(&self) -> Option<AnalysisError> {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Some(AnalysisError::Interrupted);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(AnalysisError::DeadlineExceeded);
            }
        }
        if let Some(limit) = self.mem_limit {
            if xrta_robust::mem::global().pressure(limit) == xrta_robust::mem::Pressure::Hard {
                return Some(AnalysisError::MemoryOut);
            }
        }
        None
    }

    /// Soft-pressure poll: true when the meter sits between the soft
    /// and hard watermarks, i.e. reclamation should run now so the
    /// search never has to be abandoned.
    fn soft_pressure(&self) -> bool {
        self.mem_limit.is_some_and(|limit| {
            xrta_robust::mem::global().pressure(limit) == xrta_robust::mem::Pressure::Soft
        })
    }
}

/// One round's oracle work for one cone: validate `rungs.len()` raises
/// of one coordinate, sharing a single χ engine.
struct Batch {
    /// Index into [`OracleShared::cones`].
    cone: usize,
    /// Position of the raised coordinate within the cone's projection.
    vary: usize,
    /// The cone's projected arrivals at the base point (the `vary`
    /// coordinate is overridden per rung).
    proj: Vec<Time>,
    /// `(rung slot, rung value)` pairs, slots indexing the caller's
    /// rung list.
    rungs: Vec<(usize, Time)>,
}

/// What one batch reports back. `verdicts` lands by rung slot;
/// `None` marks probes skipped because the rung was already disproved
/// by another cone, or cut off by a stop/budget condition.
struct BatchOut {
    verdicts: Vec<(usize, Option<bool>)>,
    /// Governor interrupt that must stop the whole search, if any.
    stop: Option<AnalysisError>,
    /// Did an options-level cap (oracle calls / wall clock) cut this
    /// batch short?
    truncated: bool,
    /// Probes that panicked inside this batch.
    panics: usize,
}

impl BatchOut {
    /// The conservative result of a batch whose worker died outside the
    /// per-probe containment: every probe reads "unsafe".
    fn poisoned(batch: &Batch) -> Self {
        BatchOut {
            verdicts: batch.rungs.iter().map(|&(k, _)| (k, Some(false))).collect(),
            stop: None,
            truncated: false,
            panics: batch.rungs.len(),
        }
    }
}

/// What every worker of a round reads: the cones and budgets, plus the
/// two counters workers update concurrently.
struct OracleShared {
    cones: Vec<Cone>,
    options: Approx2Options,
    gov: OracleGovernor,
    /// Earliest of the governor deadline and the options' own
    /// wall-clock budget; installed into every χ engine so a single
    /// long probe cannot blow through [`Approx2Options::time_budget`].
    engine_deadline: Option<Instant>,
    started: Instant,
    oracle_calls: AtomicUsize,
    /// Per-round bitmask of rung slots already proven unsafe by some
    /// cone; lets every other cone skip its probes for that rung
    /// (cross-cone short-circuit — the verdict is `false` either way).
    round_failed: AtomicU64,
}

impl OracleShared {
    fn time_exhausted(&self) -> bool {
        self.options
            .time_budget
            .is_some_and(|b| self.started.elapsed() >= b)
    }

    /// Builds the batch's shared selector-guarded SAT engine, with the
    /// same fault-injection site the per-probe engines of the BDD path
    /// evaluate during construction.
    fn build_engine(&self, batch: &Batch, values: &[Time]) -> Result<ChiSatEngine, BddError> {
        match xrta_robust::failpoint::eval("chi::construct") {
            Some(xrta_robust::failpoint::Outcome::Exhausted) => {
                return Err(BddError::Capacity {
                    limit: self.gov.node_limit.unwrap_or(usize::MAX),
                })
            }
            Some(xrta_robust::failpoint::Outcome::ReturnError) => return Err(BddError::Deadline),
            None => {}
        }
        let cone = &self.cones[batch.cone];
        let mut eng = ChiSatEngine::new_varying(
            &cone.net,
            &cone.delays,
            batch.proj.clone(),
            batch.vary,
            values.to_vec(),
        );
        eng.set_conflict_budget(self.options.oracle_conflict_budget);
        eng.set_propagation_budget(self.options.oracle_propagation_budget);
        eng.set_deadline(self.engine_deadline);
        eng.set_cancel_flag(self.gov.cancel.clone());
        eng.set_mem_limit(self.gov.mem_limit);
        Ok(eng)
    }
}

/// Runs one batch on the calling thread against its cone's store.
/// Every probe is individually contained (`catch_unwind`); verdicts are
/// pure functions of `(cone, projection)` plus the per-query budgets,
/// so any thread may execute any batch without affecting what the
/// search concludes.
fn execute_batch(shared: &OracleShared, batch: &Batch, store: &mut ConeStore) -> BatchOut {
    let cone = &shared.cones[batch.cone];
    let values: Vec<Time> = batch.rungs.iter().map(|&(_, v)| v).collect();
    let mut out = BatchOut {
        verdicts: Vec::with_capacity(batch.rungs.len()),
        stop: None,
        truncated: false,
        panics: 0,
    };
    out.stop = shared.gov.stop();
    let mut engine: Option<ChiSatEngine> = None;
    for (variant, &(k, value)) in batch.rungs.iter().enumerate() {
        if out.stop.is_some() || out.truncated {
            out.verdicts.push((k, None));
            continue;
        }
        if shared.round_failed.load(Ordering::Relaxed) >> k & 1 == 1 {
            // Another cone already disproved this rung; its verdict is
            // settled, skip the solve.
            out.verdicts.push((k, None));
            continue;
        }
        let mut proj = batch.proj.clone();
        proj[batch.vary] = value;
        if let Some(v) = store.query(&proj) {
            if !v {
                shared.round_failed.fetch_or(1 << k, Ordering::Relaxed);
            }
            out.verdicts.push((k, Some(v)));
            continue;
        }
        if shared.time_exhausted() {
            out.truncated = true;
            out.verdicts.push((k, None));
            continue;
        }
        // Reserve one oracle call; undo on overshoot so the final count
        // never exceeds the cap even under concurrent reservation.
        let prior = shared.oracle_calls.fetch_add(1, Ordering::Relaxed);
        if prior >= shared.options.max_oracle_calls {
            shared.oracle_calls.fetch_sub(1, Ordering::Relaxed);
            out.truncated = true;
            out.verdicts.push((k, None));
            continue;
        }
        let run = catch_unwind(AssertUnwindSafe(|| -> Result<bool, BddError> {
            // Fault-injection site at the top of a cone probe: a
            // `panic` schedule exercises the catch_unwind the same way
            // a real poisoned cone would; `err`/`exhaust` forge the
            // corresponding oracle failures.
            match xrta_robust::failpoint::eval("approx2::cone") {
                Some(xrta_robust::failpoint::Outcome::Exhausted) => {
                    return Err(BddError::Capacity {
                        limit: shared.gov.node_limit.unwrap_or(usize::MAX),
                    })
                }
                Some(xrta_robust::failpoint::Outcome::ReturnError) => {
                    return Err(BddError::Deadline)
                }
                None => {}
            }
            match shared.options.engine {
                EngineKind::Sat => {
                    if engine.is_none() {
                        engine = Some(shared.build_engine(batch, &values)?);
                    }
                    let eng = engine.as_mut().expect("engine just built");
                    match eng.check_stable_variant(&cone.net, cone.out, cone.required, variant) {
                        Stability::Stable => Ok(true),
                        Stability::Unstable => Ok(false),
                        Stability::Unknown => match eng.last_stop_reason() {
                            Some(StopReason::Deadline) => Err(BddError::Deadline),
                            Some(StopReason::Cancelled) => Err(BddError::Cancelled),
                            Some(StopReason::MemoryOut) => Err(BddError::MemoryOut),
                            // Conflict/propagation budget exhausted:
                            // conservatively not provably safe.
                            _ => Ok(false),
                        },
                    }
                }
                EngineKind::Bdd => {
                    let ft = FunctionalTiming::new(
                        &cone.net,
                        &cone.delays,
                        proj.clone(),
                        EngineKind::Bdd,
                    )
                    .with_conflict_budget(shared.options.oracle_conflict_budget)
                    .with_propagation_budget(shared.options.oracle_propagation_budget)
                    .with_node_limit(shared.gov.node_limit)
                    .with_mem_limit(shared.gov.mem_limit)
                    .with_deadline(shared.engine_deadline)
                    .with_cancel_flag(shared.gov.cancel.clone());
                    ft.try_stable_by(cone.out, cone.required)
                }
            }
        }));
        match run {
            Ok(Ok(safe)) => {
                store.insert(&proj, safe);
                if !safe {
                    shared.round_failed.fetch_or(1 << k, Ordering::Relaxed);
                }
                out.verdicts.push((k, Some(safe)));
            }
            // Node budget: this cone alone is too big for its oracle —
            // conservatively unsafe, but keep searching (other cones
            // may still answer). Deterministic, hence cacheable.
            Ok(Err(BddError::Capacity { .. })) => {
                store.insert(&proj, false);
                shared.round_failed.fetch_or(1 << k, Ordering::Relaxed);
                out.verdicts.push((k, Some(false)));
            }
            Ok(Err(BddError::Deadline)) => {
                // The engine deadline is the tighter of the governor's
                // deadline and the options' own wall-clock budget —
                // attribute accordingly. Interrupt artifacts are not
                // cached (they are not facts about the cone).
                if shared.gov.deadline.is_some_and(|d| Instant::now() >= d) {
                    out.stop = Some(AnalysisError::DeadlineExceeded);
                } else {
                    out.truncated = true;
                }
                out.verdicts.push((k, None));
            }
            Ok(Err(e)) => {
                out.stop = Some(e.into());
                out.verdicts.push((k, None));
            }
            Err(_) => {
                // Poisoned cone: conservative "unsafe", drop the shared
                // engine (its solver state is suspect) and keep going.
                out.panics += 1;
                engine = None;
                store.insert(&proj, false);
                shared.round_failed.fetch_or(1 << k, Ordering::Relaxed);
                out.verdicts.push((k, Some(false)));
            }
        }
    }
    out
}

/// Runs a round's batches on `workers` threads (the caller's
/// included) inside one scope. Workers pull the next batch through a
/// shared cursor; results come back in batch order. One worker spawns
/// nothing and runs the batches in order on the calling thread.
fn run_parallel(
    shared: &OracleShared,
    batches: &[Batch],
    stores: Vec<&mut ConeStore>,
    workers: usize,
) -> Vec<BatchOut> {
    let cursor = Mutex::new(batches.iter().zip(stores).enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            // Poison-tolerant: the lock guards only `next()` on a
            // slice iterator, which cannot panic half-way.
            let next = cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((j, (batch, store))) = next else {
                return done;
            };
            // `execute_batch` contains probe panics itself; this
            // outer net keeps a batch that panics anyway from
            // taking its worker, and the round, down with it.
            let out = catch_unwind(AssertUnwindSafe(|| execute_batch(shared, batch, store)))
                .unwrap_or_else(|_| BatchOut::poisoned(batch));
            done.push((j, out));
        }
    };
    let mut outs: Vec<Option<BatchOut>> = batches.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mine = work();
        let theirs = helpers
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default());
        for (j, out) in mine.into_iter().chain(theirs) {
            outs[j] = Some(out);
        }
    });
    // A result lost to a worker that died outside the batch net
    // reads conservatively unsafe.
    outs.into_iter()
        .zip(batches)
        .map(|(out, batch)| out.unwrap_or_else(|| BatchOut::poisoned(batch)))
        .collect()
}

struct Search {
    shared: OracleShared,
    /// Per-cone verdict stores, indexed like [`OracleShared::cones`].
    stores: Vec<ConeStore>,
    /// Threads a parallel round may use (the caller's included).
    workers: usize,
    candidates: Vec<Vec<Time>>,
    r_bottom: Vec<Time>,
    /// Whole-vector verdict cache.
    full: Verdicts,
    full_hits: usize,
    first_nontrivial: Option<Duration>,
    out_of_budget: bool,
    interrupted: Option<AnalysisError>,
    worker_panics: usize,
    batches: usize,
    batched_probes: usize,
    /// Rounds that ran on more than one thread.
    parallel_rounds: usize,
}

impl Search {
    fn options(&self) -> &Approx2Options {
        &self.shared.options
    }

    fn project(&self, cone: usize, r: &[Time]) -> Vec<Time> {
        self.shared.cones[cone]
            .input_pos
            .iter()
            .map(|&p| r[p])
            .collect()
    }

    fn record_full(&mut self, r: &[Time], safe: bool) {
        self.full.insert(r, safe);
        if safe && self.first_nontrivial.is_none() && r != self.r_bottom.as_slice() {
            self.first_nontrivial = Some(self.shared.started.elapsed());
        }
    }

    /// Executes one round of batches (one per cone, in cone order) and
    /// returns their results in the same order. Runs on the calling
    /// thread alone unless the search is warm, the round has three or
    /// more batches and more than one worker is available.
    fn run_round(&mut self, batches: Vec<Batch>) -> Vec<BatchOut> {
        let shared = &self.shared;
        shared.round_failed.store(0, Ordering::Relaxed);
        self.batches += batches.len();
        self.batched_probes += batches
            .iter()
            .map(|b| b.rungs.len())
            .filter(|&n| n > 1)
            .sum::<usize>();
        // Pair every batch with its cone's store; batches come in
        // strictly increasing cone order, so the borrows are disjoint.
        let mut by_cone = self.stores.iter_mut().enumerate();
        let mut stores: Vec<&mut ConeStore> = batches
            .iter()
            .map(|b| {
                by_cone
                    .find(|(c, _)| *c == b.cone)
                    .map(|(_, s)| s)
                    .expect("one batch per cone, in cone order")
            })
            .collect();
        // A still-cold search runs on this thread alone; with one
        // worker `run_parallel` spawns nothing and takes the batches in
        // cone order, so the cross-cone short-circuit still applies.
        let warm = shared.oracle_calls.load(Ordering::Relaxed) >= WARMUP_ORACLE_CALLS;
        let parallel = warm && self.workers > 1 && batches.len() > 2;
        // A parallel round first runs its leading batch alone. Most
        // single-rung rounds end there (the rung fails and every other
        // cone skips it); siblings probed beside it would be calls the
        // serial order never makes.
        let (lead, rest) = batches.split_at(usize::from(parallel));
        let rest_stores = stores.split_off(lead.len());
        let mut outs = run_parallel(shared, lead, stores, 1);
        let workers = if parallel {
            self.parallel_rounds += 1;
            self.workers.min(rest.len())
        } else {
            1
        };
        outs.extend(run_parallel(shared, rest, rest_stores, workers));
        outs
    }

    /// Safety verdicts for raising coordinate `i` of the **safe** point
    /// `base` to each value in `rungs`. Only cones whose support
    /// contains `i` are re-validated; every other cone inherits its
    /// verdict from `base` (the incremental re-check). Returns `None`
    /// when a budget stops evaluation.
    fn probe_rungs(&mut self, base: &[Time], i: usize, rungs: &[Time]) -> Option<Vec<bool>> {
        assert!(rungs.len() <= 64, "round bitmask width");
        if let Some(e) = self.shared.gov.stop() {
            self.interrupted.get_or_insert(e);
            self.out_of_budget = true;
            return None;
        }
        if self.shared.time_exhausted() {
            self.out_of_budget = true;
            return None;
        }
        // Soft memory pressure: shed the cone stores in place before
        // this round rather than letting the hard watermark end the
        // search. Verdicts are re-derivable, so this only costs refills.
        if self.shared.gov.soft_pressure() {
            reclaim(&mut self.stores);
        }
        let relevant: Vec<usize> = (0..self.shared.cones.len())
            .filter(|&c| self.shared.cones[c].supports(i))
            .collect();
        // Per rung: Some(verdict) once known, else the cones still
        // needing an oracle run.
        let mut verdicts: Vec<Option<bool>> = Vec::with_capacity(rungs.len());
        let mut unresolved: Vec<Vec<usize>> = Vec::with_capacity(rungs.len());
        for &rung in rungs {
            let mut v = base.to_vec();
            v[i] = rung;
            if let Some(known) = self.full.get(&v) {
                self.full_hits += 1;
                verdicts.push(Some(known));
                unresolved.push(Vec::new());
                continue;
            }
            let mut todo = Vec::new();
            let mut known_unsafe = false;
            for &c in &relevant {
                let proj = self.project(c, &v);
                match self.stores[c].query(&proj) {
                    Some(true) => {}
                    Some(false) => {
                        known_unsafe = true;
                        break;
                    }
                    None => todo.push(c),
                }
            }
            if known_unsafe {
                verdicts.push(Some(false));
                self.record_full(&v, false);
                unresolved.push(Vec::new());
            } else if todo.is_empty() {
                verdicts.push(Some(true));
                self.record_full(&v, true);
                unresolved.push(Vec::new());
            } else {
                verdicts.push(None);
                unresolved.push(todo);
            }
        }
        if unresolved.iter().any(|u| !u.is_empty()) {
            // One batch per cone, in cone-index order, carrying every
            // rung that still needs this cone's verdict.
            let mut batches: Vec<Batch> = Vec::new();
            for &c in &relevant {
                let pending: Vec<(usize, Time)> = (0..rungs.len())
                    .filter(|&k| unresolved[k].contains(&c))
                    .map(|k| (k, rungs[k]))
                    .collect();
                if pending.is_empty() {
                    continue;
                }
                let vary = self.shared.cones[c]
                    .input_pos
                    .iter()
                    .position(|&p| p == i)
                    .expect("cone supports the raised coordinate");
                batches.push(Batch {
                    cone: c,
                    vary,
                    proj: self.project(c, base),
                    rungs: pending,
                });
            }
            let outs = self.run_round(batches);
            let mut rung_unsafe = vec![false; rungs.len()];
            let mut stop: Option<AnalysisError> = None;
            let mut truncated = false;
            for out in outs {
                self.worker_panics += out.panics;
                for (k, v) in out.verdicts {
                    if v == Some(false) {
                        rung_unsafe[k] = true;
                    }
                }
                if let Some(e) = out.stop {
                    stop.get_or_insert(e);
                }
                truncated |= out.truncated;
            }
            if let Some(e) = stop {
                self.interrupted.get_or_insert(e);
                self.out_of_budget = true;
                return None;
            }
            if truncated {
                self.out_of_budget = true;
                return None;
            }
            let failed_mask = self.shared.round_failed.load(Ordering::Relaxed);
            for (k, verdict) in verdicts.iter_mut().enumerate() {
                if verdict.is_none() {
                    let safe = !rung_unsafe[k] && failed_mask >> k & 1 == 0;
                    let mut v = base.to_vec();
                    v[i] = rungs[k];
                    self.record_full(&v, safe);
                    *verdict = Some(safe);
                }
            }
        }
        Some(verdicts.into_iter().map(|v| v.expect("resolved")).collect())
    }

    /// Raises coordinate `i` of the safe point `r` as far as it goes.
    /// Returns whether it moved.
    fn ascend(&mut self, r: &mut [Time], i: usize) -> bool {
        let cands = self.candidates[i].clone();
        let pos = cands.iter().position(|&c| c == r[i]).expect("on lattice");
        if pos + 1 >= cands.len() {
            return false;
        }
        match self.options().cache {
            CacheStrategy::Exact => self.ascend_linear(r, i, &cands, pos),
            CacheStrategy::Dominance => self.ascend_ladder(r, i, &cands, pos),
        }
    }

    /// Rung-by-rung ascent (the original exact-key behaviour).
    fn ascend_linear(&mut self, r: &mut [Time], i: usize, cands: &[Time], pos: usize) -> bool {
        let mut cur = pos;
        while cur + 1 < cands.len() {
            match self.probe_rungs(r, i, &cands[cur + 1..cur + 2]) {
                Some(v) if v[0] => {
                    cur += 1;
                    r[i] = cands[cur];
                }
                _ => break,
            }
        }
        cur > pos
    }

    /// Galloping ascent exploiting monotonicity: next rung, then top
    /// rung, then a binary search of the frontier in between, probing
    /// [`LADDER_PROBES`] evenly spaced rungs per round. The probe width
    /// is fixed — never derived from the thread count — so the search
    /// transcript is identical for every thread count; parallelism only
    /// spreads a round's cone batches across workers.
    fn ascend_ladder(&mut self, r: &mut [Time], i: usize, cands: &[Time], pos: usize) -> bool {
        // Step 1: the immediate next rung (cheap "cannot move" exit —
        // the common case on tight coordinates).
        match self.probe_rungs(r, i, &cands[pos + 1..pos + 2]) {
            Some(v) if v[0] => r[i] = cands[pos + 1],
            _ => return false,
        }
        let mut lo = pos + 1; // highest rung verified safe
        let top = cands.len() - 1;
        if lo == top {
            return true;
        }
        // Step 2: the top rung (∞ when allow_never) — one probe jumps
        // the whole ladder when the coordinate is unconstrained.
        match self.probe_rungs(r, i, &cands[top..top + 1]) {
            Some(v) if v[0] => {
                r[i] = cands[top];
                return true;
            }
            Some(_) => {}
            None => {
                r[i] = cands[lo];
                return true;
            }
        }
        let mut hi = top; // lowest rung verified unsafe
                          // Step 3: bisect (lo, hi) with a fixed number
                          // of probes per round.
        while hi - lo > 1 {
            let k = LADDER_PROBES.min(hi - lo - 1).max(1);
            let mut picks: Vec<usize> = (1..=k)
                .map(|j| (lo + j * (hi - lo) / (k + 1)).clamp(lo + 1, hi - 1))
                .collect();
            picks.dedup();
            let rungs: Vec<Time> = picks.iter().map(|&ix| cands[ix]).collect();
            let Some(verdicts) = self.probe_rungs(r, i, &rungs) else {
                break;
            };
            for (&ix, &safe) in picks.iter().zip(&verdicts) {
                if safe {
                    lo = lo.max(ix);
                } else {
                    hi = hi.min(ix);
                }
            }
            if lo >= hi {
                // Only possible when per-query budgets made verdicts
                // non-monotone; `lo` itself was verified safe, stop here.
                break;
            }
        }
        r[i] = cands[lo];
        true
    }

    /// Greedy ascent from `r` to one maximal safe point.
    fn climb(&mut self, r: Vec<Time>) -> Vec<Time> {
        self.climb_rotated(r, 0)
    }

    /// Bounded enumeration of maximal safe points (§4.3's backtracking
    /// refinement, capped): up to `max_solutions` greedy climbs, each
    /// visiting the coordinates in a different rotation so incomparable
    /// maxima are found when the raise order matters. Duplicates merge
    /// min-attempt-index first, so the reported order is deterministic.
    /// Exhaustive DFS over the lattice is avoided — on wide circuits
    /// the number of intermediate safe points is combinatorial.
    fn enumerate(&mut self, bottom: Vec<Time>) -> Vec<Vec<Time>> {
        let n = bottom.len().max(1);
        let mut maximal: Vec<Vec<Time>> = Vec::new();
        let max_solutions = self.options().max_solutions;
        for attempt in 0..max_solutions {
            if self.out_of_budget {
                break;
            }
            let start = (attempt * n) / max_solutions.max(1);
            let m = self.climb_rotated(bottom.clone(), start);
            if !maximal.contains(&m) {
                maximal.push(m);
            }
        }
        maximal
    }

    /// Greedy ascent visiting coordinates starting from index `start`.
    /// Sequential: each raise depends on the last verdict.
    fn climb_rotated(&mut self, mut r: Vec<Time>, start: usize) -> Vec<Time> {
        let n = r.len();
        loop {
            let mut progressed = false;
            for k in 0..n {
                let i = (start + k) % n;
                progressed |= self.ascend(&mut r, i);
                if self.out_of_budget {
                    return r;
                }
            }
            if !progressed {
                return r;
            }
        }
    }
}

/// Runs the lattice-climbing analysis of §4.3.
///
/// The candidate set per input is the merged leaf-time list of the
/// planning pass (the times at which χ leaves are referenced), whose
/// minimum is the topological required time; `∞` is appended when
/// [`Approx2Options::allow_never`] is set. See the module docs for the
/// oracle architecture (per-cone engines and verdict stores, parallel
/// validation rounds).
///
/// # Panics
///
/// Panics if `output_required.len() != net.outputs().len()`.
pub fn approx2_required_times<D: DelayModel>(
    net: &Network,
    model: &D,
    output_required: &[Time],
    options: Approx2Options,
) -> Approx2Result {
    approx2_required_times_governed(net, model, output_required, options, &Budget::unlimited())
        .expect("ungoverned analysis cannot be interrupted")
}

/// Budget-governed form of [`approx2_required_times`]. The budget's
/// deadline and cancel flag are polled between validation rounds *and*
/// inside the per-cone engines; its SAT conflict budget tightens
/// [`Approx2Options::oracle_conflict_budget`] and its node limit bounds
/// the BDD oracle. A deadline yields `Ok` with the sound partial result
/// (provenance in [`Approx2Result::stopped_by`]); cancellation yields
/// [`AnalysisError::Interrupted`].
///
/// # Panics
///
/// Panics if `output_required.len() != net.outputs().len()`.
pub fn approx2_required_times_governed<D: DelayModel>(
    net: &Network,
    model: &D,
    output_required: &[Time],
    options: Approx2Options,
    budget: &Budget,
) -> Result<Approx2Result, AnalysisError> {
    // Cone probes are CPU-bound solves: threads beyond the machine's
    // parallelism only add context switches.
    let workers = options.effective_threads().min(available_parallelism());
    run_search(net, model, output_required, options, budget, workers).map(|(r, _)| r)
}

/// [`approx2_required_times_governed`] with an explicit worker count
/// for parallel rounds. Also returns how many rounds ran in parallel.
fn run_search<D: DelayModel>(
    net: &Network,
    model: &D,
    output_required: &[Time],
    mut options: Approx2Options,
    budget: &Budget,
    workers: usize,
) -> Result<(Approx2Result, usize), AnalysisError> {
    assert_eq!(output_required.len(), net.outputs().len());
    if budget.is_cancelled() {
        return Err(AnalysisError::Interrupted);
    }
    options.oracle_conflict_budget = match (options.oracle_conflict_budget, budget.sat_conflicts())
    {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let started = Instant::now();
    let plan = plan_leaves(net, model, output_required, |_| true);
    let topo_net = required_times(net, model, output_required);
    let r_bottom: Vec<Time> = net.inputs().iter().map(|i| topo_net[i.index()]).collect();
    let candidates: Vec<Vec<Time>> = plan
        .per_input
        .iter()
        .zip(&r_bottom)
        .map(|(lt, &bot)| {
            let mut c = lt.merged();
            if c.is_empty() || c[0] != bot {
                // Inputs outside every cone have no planned times; their
                // bottom is ∞ already.
                c.insert(0, bot);
                c.dedup();
            }
            if options.cluster_stride > 1 && c.len() > 2 {
                // Conservative coarsening: keep the bottom plus every
                // stride-th candidate (dropping a candidate only removes
                // an intermediate rung — the search stays sound, merely
                // less precise).
                let stride = options.cluster_stride;
                let kept: Vec<Time> = c
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % stride == 0 || *i + 1 == c.len())
                    .map(|(_, &t)| t)
                    .collect();
                c = kept;
            }
            if options.allow_never && *c.last().expect("non-empty") != Time::INF {
                c.push(Time::INF);
            }
            c
        })
        .collect();

    // Input positions in each output's transitive fanin cone.
    let input_pos_of: FxHashMap<usize, usize> = net
        .inputs()
        .iter()
        .enumerate()
        .map(|(pos, id)| (id.index(), pos))
        .collect();
    let masks = net.output_support_masks();
    // One standalone validation cone per finite-required output
    // (∞-required outputs constrain nothing).
    let cones: Vec<Cone> = net
        .outputs()
        .iter()
        .enumerate()
        .filter(|&(oi, _)| !output_required[oi].is_inf())
        .map(|(oi, &o)| {
            let (cnet, map) = net.extract_cone(&[o]);
            let rev: FxHashMap<usize, usize> = map
                .iter()
                .map(|(old, new)| (new.index(), old.index()))
                .collect();
            let input_pos: Vec<usize> = cnet
                .inputs()
                .iter()
                .map(|nid| input_pos_of[&rev[&nid.index()]])
                .collect();
            let mut delays = TableDelay::with_default(&cnet, 0);
            for (old, new) in &map {
                delays.set(*new, model.delay(net, *old));
            }
            Cone {
                out: map[&o],
                net: cnet,
                delays,
                input_pos,
                mask: masks[oi].clone(),
                required: output_required[oi],
            }
        })
        .collect();

    let gov = OracleGovernor {
        deadline: budget.deadline(),
        cancel: Some(budget.cancel_flag()),
        node_limit: budget.node_limit(),
        mem_limit: budget.mem_limit(),
    };
    let time_cap = options.time_budget.map(|b| started + b);
    let engine_deadline = match (gov.deadline, time_cap) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let stores = cones
        .iter()
        .map(|_| ConeStore::new(options.cache))
        .collect();
    let mut search = Search {
        shared: OracleShared {
            cones,
            options,
            gov,
            engine_deadline,
            started,
            oracle_calls: AtomicUsize::new(0),
            round_failed: AtomicU64::new(0),
        },
        stores,
        workers,
        candidates,
        r_bottom: r_bottom.clone(),
        full: Verdicts::new(options.cache),
        full_hits: 0,
        first_nontrivial: None,
        out_of_budget: false,
        interrupted: None,
        worker_panics: 0,
        batches: 0,
        batched_probes: 0,
        parallel_rounds: 0,
    };

    // The bottom is safe by construction (topological analysis is
    // conservative); seed the caches so a conflict budget cannot make
    // the search reject its own starting point.
    search.record_full(&r_bottom, true);
    for c in 0..search.stores.len() {
        let proj = search.project(c, &r_bottom);
        search.stores[c].insert(&proj, true);
    }

    let maximal = if options.max_solutions <= 1 {
        vec![search.climb(r_bottom.clone())]
    } else {
        let mut m = search.enumerate(r_bottom.clone());
        if m.is_empty() {
            m.push(search.climb(r_bottom.clone()));
        }
        m
    };

    if search.interrupted == Some(AnalysisError::Interrupted) {
        // Cancellation means "stop, the caller no longer wants an
        // answer" — unlike a deadline, there is no one left to use a
        // partial result.
        return Err(AnalysisError::Interrupted);
    }

    let result = Approx2Result {
        r_bottom,
        maximal,
        candidates: search.candidates,
        first_nontrivial: search.first_nontrivial,
        total_time: started.elapsed(),
        oracle_calls: search.shared.oracle_calls.load(Ordering::Relaxed),
        cache_hits: search.full_hits + search.stores.iter().map(|s| s.hits).sum::<usize>(),
        threads_used: options.effective_threads(),
        batches: search.batches,
        batched_probes: search.batched_probes,
        completed: !search.out_of_budget,
        stopped_by: search.interrupted,
        worker_panics: search.worker_panics,
    };
    Ok((result, search.parallel_rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrta_network::GateKind;
    use xrta_timing::UnitDelay;

    fn fig4() -> Network {
        let mut net = Network::new("fig4");
        let x1 = net.add_input("x1").unwrap();
        let x2 = net.add_input("x2").unwrap();
        let y1 = net.add_gate("y1", GateKind::Buf, &[x1]).unwrap();
        let y2 = net.add_gate("y2", GateKind::Buf, &[x2]).unwrap();
        let z = net.add_gate("z", GateKind::And, &[y1, x2, y2]).unwrap();
        net.mark_output(z);
        net
    }

    /// The canonical two-MUX bypass false path (see `xrta-chi`): the
    /// slow input x can arrive later than topological analysis says.
    fn mux_false_path() -> Network {
        let mut net = Network::new("fp");
        let s = net.add_input("s").unwrap();
        let x = net.add_input("x").unwrap();
        let c = net.add_input("c").unwrap();
        let b1 = net.add_gate("b1", GateKind::Buf, &[x]).unwrap();
        let b2 = net.add_gate("b2", GateKind::Buf, &[b1]).unwrap();
        let m1 = net.add_gate("m1", GateKind::Mux, &[s, x, b2]).unwrap();
        let z = net.add_gate("z", GateKind::Mux, &[s, m1, c]).unwrap();
        net.mark_output(z);
        net
    }

    #[test]
    fn fig4_value_independent_search_is_trivial() {
        // The §4.3 implementation searches value-independent times; for
        // Figure 4 the looseness is value-dependent only, so the climb
        // stays at r⊥ — matching the paper's observation that approx 1
        // can beat approx 2 on such circuits.
        let net = fig4();
        let r =
            approx2_required_times(&net, &UnitDelay, &[Time::new(2)], Approx2Options::default());
        assert_eq!(r.r_bottom, vec![Time::new(0), Time::new(0)]);
        assert!(!r.has_nontrivial_requirement());
        assert!(r.completed);
    }

    #[test]
    fn false_path_circuit_gives_loose_times() {
        let net = mux_false_path();
        let topo_req = Time::new(4);
        let r = approx2_required_times(&net, &UnitDelay, &[topo_req], Approx2Options::default());
        // Topological: x must arrive by 4 − 4 = 0. The false path lets
        // it arrive later in every maximal condition.
        let x_pos = 1;
        assert_eq!(r.r_bottom[x_pos], Time::new(0));
        assert!(r.has_nontrivial_requirement());
        // Several incomparable maximal points may exist (e.g. raising s
        // instead of x); at least one must loosen x.
        assert!(
            r.maximal.iter().any(|m| m[x_pos] > Time::new(0)),
            "x loosened in some maximal point: {:?}",
            r.maximal
        );
        assert!(r.first_nontrivial.is_some());
    }

    #[test]
    fn maximal_points_are_safe_and_unraisable() {
        let net = mux_false_path();
        let req = [Time::new(4)];
        let opts = Approx2Options::default();
        let r = approx2_required_times(&net, &UnitDelay, &req, opts);
        for m in &r.maximal {
            let ft = FunctionalTiming::new(&net, &UnitDelay, m.clone(), EngineKind::Bdd);
            assert!(ft.meets(&req), "maximal point {m:?} must be safe");
            // Unraisable: the next candidate rung of every coordinate is
            // unsafe.
            for (i, cands) in r.candidates.iter().enumerate() {
                let pos = cands.iter().position(|&c| c == m[i]).expect("on lattice");
                if pos + 1 < cands.len() {
                    let mut up = m.clone();
                    up[i] = cands[pos + 1];
                    let ft = FunctionalTiming::new(&net, &UnitDelay, up, EngineKind::Bdd);
                    assert!(!ft.meets(&req), "raise of coord {i} from {m:?} still safe");
                }
            }
        }
    }

    #[test]
    fn engines_agree() {
        let net = mux_false_path();
        let req = [Time::new(4)];
        let sat = approx2_required_times(
            &net,
            &UnitDelay,
            &req,
            Approx2Options {
                engine: EngineKind::Sat,
                ..Approx2Options::default()
            },
        );
        let bdd = approx2_required_times(
            &net,
            &UnitDelay,
            &req,
            Approx2Options {
                engine: EngineKind::Bdd,
                ..Approx2Options::default()
            },
        );
        let norm = |mut v: Vec<Vec<Time>>| {
            v.sort();
            v
        };
        assert_eq!(norm(sat.maximal), norm(bdd.maximal));
    }

    #[test]
    fn cache_strategies_find_identical_maximal_sets() {
        for threads in [1usize, 3] {
            let net = mux_false_path();
            let req = [Time::new(4)];
            let exact = approx2_required_times(
                &net,
                &UnitDelay,
                &req,
                Approx2Options {
                    cache: CacheStrategy::Exact,
                    threads,
                    ..Approx2Options::default()
                },
            );
            let dom = approx2_required_times(
                &net,
                &UnitDelay,
                &req,
                Approx2Options {
                    cache: CacheStrategy::Dominance,
                    threads,
                    ..Approx2Options::default()
                },
            );
            assert_eq!(exact.maximal, dom.maximal, "threads = {threads}");
            // The dominance cache must not need more oracle runs than the
            // exact-key baseline.
            assert!(
                dom.oracle_calls <= exact.oracle_calls,
                "dominance {} vs exact {} oracle calls",
                dom.oracle_calls,
                exact.oracle_calls
            );
        }
    }

    #[test]
    fn thread_counts_agree() {
        let net = mux_false_path();
        let req = [Time::new(4)];
        let run = |threads| {
            approx2_required_times(
                &net,
                &UnitDelay,
                &req,
                Approx2Options {
                    threads,
                    ..Approx2Options::default()
                },
            )
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.maximal, par.maximal);
        assert_eq!(seq.r_bottom, par.r_bottom);
        assert_eq!(par.threads_used, 4);
    }

    #[test]
    fn oracle_budget_respected() {
        let net = mux_false_path();
        let r = approx2_required_times(
            &net,
            &UnitDelay,
            &[Time::new(4)],
            Approx2Options {
                max_oracle_calls: 2,
                ..Approx2Options::default()
            },
        );
        assert!(r.oracle_calls <= 2);
        assert!(!r.completed);
    }

    #[test]
    fn single_solution_mode_climbs_greedily() {
        let net = mux_false_path();
        let r = approx2_required_times(
            &net,
            &UnitDelay,
            &[Time::new(4)],
            Approx2Options {
                max_solutions: 1,
                ..Approx2Options::default()
            },
        );
        assert_eq!(r.maximal.len(), 1);
        let m = &r.maximal[0];
        // Greedy result must dominate the bottom.
        assert!(m.iter().zip(&r.r_bottom).all(|(a, b)| a >= b));
    }

    #[test]
    fn clustering_is_sound_but_coarser() {
        let net = mux_false_path();
        let req = [Time::new(4)];
        let full = approx2_required_times(&net, &UnitDelay, &req, Approx2Options::default());
        let clustered = approx2_required_times(
            &net,
            &UnitDelay,
            &req,
            Approx2Options {
                cluster_stride: 2,
                ..Approx2Options::default()
            },
        );
        // Clustered results are still safe…
        for m in &clustered.maximal {
            let ft = FunctionalTiming::new(&net, &UnitDelay, m.clone(), EngineKind::Bdd);
            assert!(ft.meets(&req));
        }
        // …and never use more oracle calls than the full lattice needs
        // more rungs for.
        assert!(clustered.oracle_calls <= full.oracle_calls + 2);
    }

    #[test]
    fn table_delay_model_respected() {
        use xrta_timing::TableDelay;
        // Make the bypass buffers free: the "slow" branch stops being
        // slow and the topological bottom shifts accordingly.
        let net = mux_false_path();
        let mut model = TableDelay::with_default(&net, 1);
        for name in ["b1", "b2"] {
            model.set(net.find(name).unwrap(), 0);
        }
        let r = approx2_required_times(&net, &model, &[Time::new(2)], Approx2Options::default());
        // x's topological requirement: through m1 (delay 1) + z (1) with
        // free buffers → req(x) = 0.
        let x_pos = 1;
        assert_eq!(r.r_bottom[x_pos], Time::new(0));
        for m in &r.maximal {
            let ft = FunctionalTiming::new(&net, &model, m.clone(), EngineKind::Bdd);
            assert!(ft.meets(&[Time::new(2)]));
        }
    }

    #[test]
    fn never_candidate_found_for_unobserved_input() {
        // An input that no output depends on can arrive at ∞.
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let bb = net.add_gate("bb", GateKind::Buf, &[b]).unwrap();
        let z = net.add_gate("z", GateKind::Buf, &[a]).unwrap();
        net.mark_output(z);
        let _ = bb;
        let r =
            approx2_required_times(&net, &UnitDelay, &[Time::new(1)], Approx2Options::default());
        let b_pos = 1;
        assert!(r.maximal.iter().all(|m| m[b_pos].is_inf()));
    }

    #[test]
    fn dominance_reports_cache_hits() {
        let net = mux_false_path();
        let r =
            approx2_required_times(&net, &UnitDelay, &[Time::new(4)], Approx2Options::default());
        // Rotated restarts re-traverse the region below the first
        // maximal point — the dominance cache must absorb some of it.
        assert!(r.cache_hits > 0);
        assert!(r.cache_hit_rate() > 0.0 && r.cache_hit_rate() < 1.0);
    }

    /// `width` parallel mux-bypass slices sharing a select line and
    /// chaining data inputs — enough cones and rungs to push the
    /// oracle past its warm-up threshold.
    fn wide_bypass(width: usize) -> Network {
        let mut net = Network::new("wide");
        let s = net.add_input("s").unwrap();
        let xs: Vec<NodeId> = (0..=width)
            .map(|i| net.add_input(format!("x{i}").as_str()).unwrap())
            .collect();
        for i in 0..width {
            let b1 = net
                .add_gate(format!("b1_{i}").as_str(), GateKind::Buf, &[xs[i]])
                .unwrap();
            let b2 = net
                .add_gate(format!("b2_{i}").as_str(), GateKind::Buf, &[b1])
                .unwrap();
            let m1 = net
                .add_gate(format!("m1_{i}").as_str(), GateKind::Mux, &[s, xs[i], b2])
                .unwrap();
            let z = net
                .add_gate(format!("z{i}").as_str(), GateKind::Mux, &[s, m1, xs[i + 1]])
                .unwrap();
            net.mark_output(z);
        }
        net
    }

    /// The analysis at `workers` threads, however many cores the host
    /// has, plus the number of rounds that ran in parallel.
    fn run_with_workers(
        net: &Network,
        req: &[Time],
        options: Approx2Options,
        workers: usize,
    ) -> (Approx2Result, usize) {
        run_search(net, &UnitDelay, req, options, &Budget::unlimited(), workers)
            .expect("ungoverned analysis cannot be interrupted")
    }

    #[test]
    fn multiworker_rounds_agree_with_serial() {
        // Both adders climb well past the warm-up and have rounds of
        // three or more cone batches, the only ones that run in
        // parallel.
        for block in [2, 4] {
            let net = xrta_circuits::carry_skip_adder(8, block).expect("valid adder");
            let req = vec![Time::ZERO; net.outputs().len()];
            let (seq, seq_rounds) = run_with_workers(&net, &req, Approx2Options::default(), 1);
            assert_eq!(seq_rounds, 0);
            for workers in [2, 4] {
                let (par, rounds) =
                    run_with_workers(&net, &req, Approx2Options::default(), workers);
                assert!(rounds > 0, "no round ran in parallel at {workers} workers");
                assert_eq!(seq.maximal, par.maximal);
                assert_eq!(seq.candidates, par.candidates);
                assert_eq!(seq.r_bottom, par.r_bottom);
                assert_eq!(par.worker_panics, 0);
                assert!(par.completed);
                // A late cross-cone short-circuit may cost a few
                // extra probes, never a second climb's worth.
                assert!(
                    par.oracle_calls <= seq.oracle_calls + seq.oracle_calls / 10,
                    "{workers} workers made {} oracle calls against {} serial",
                    par.oracle_calls,
                    seq.oracle_calls
                );
            }
        }
    }

    #[test]
    fn below_warmup_no_round_runs_in_parallel() {
        // The whole climb on this circuit needs far fewer oracle calls
        // than the warm-up threshold, so every round runs on the
        // calling thread even when more workers are available.
        let net = mux_false_path();
        let (r, rounds) = run_with_workers(&net, &[Time::new(4)], Approx2Options::default(), 4);
        assert!(r.oracle_calls < WARMUP_ORACLE_CALLS);
        assert_eq!(rounds, 0, "cold search must not run a parallel round");
    }

    /// The sequential probe schedule, pinned: these counts and maxima
    /// were recorded from the work-stealing oracle this one replaced,
    /// at one thread. Any change to the ladder, the rotations, the
    /// batching or the cross-cone short-circuit shows up here.
    #[test]
    fn sequential_transcript_is_pinned() {
        use xrta_circuits::{c17, carry_skip_adder, random_circuit, RandomCircuitSpec};
        let rand7 = random_circuit(RandomCircuitSpec {
            inputs: 8,
            gates: 40,
            outputs: 4,
            max_fanin: 3,
            locality: 50,
            seed: 7,
        })
        .expect("valid spec");
        let csa = carry_skip_adder(8, 4).expect("valid adder");
        let zero = |net: &Network| vec![Time::ZERO; net.outputs().len()];
        const INF: i64 = i64::MAX;
        // (circuit, required, cache, engine, calls, hits, batches,
        // batched probes, maxima)
        #[allow(clippy::type_complexity)]
        let cases: Vec<(
            &str,
            Network,
            Vec<Time>,
            CacheStrategy,
            EngineKind,
            [usize; 4],
            Vec<Vec<i64>>,
        )> = vec![
            (
                "wide_bypass(6)",
                wide_bypass(6),
                vec![Time::new(4); 6],
                CacheStrategy::Dominance,
                EngineKind::Sat,
                [48, 183, 58, 0],
                vec![vec![3, 0, 0, 0, 0, 0, 0, 3], vec![2, 2, 2, 2, 2, 2, 2, 3]],
            ),
            (
                "wide_bypass(6)",
                wide_bypass(6),
                vec![Time::new(4); 6],
                CacheStrategy::Exact,
                EngineKind::Bdd,
                [53, 184, 58, 0],
                vec![vec![3, 0, 0, 0, 0, 0, 0, 3], vec![2, 2, 2, 2, 2, 2, 2, 3]],
            ),
            (
                "random seed 7",
                rand7.clone(),
                zero(&rand7),
                CacheStrategy::Dominance,
                EngineKind::Sat,
                [144, 282, 342, 192],
                vec![vec![-7, -7, -7, -4, -6, INF, -8, -8]],
            ),
            (
                "random seed 7",
                rand7.clone(),
                zero(&rand7),
                CacheStrategy::Exact,
                EngineKind::Sat,
                [753, 94, 872, 0],
                vec![vec![-7, -7, -7, -4, -6, INF, -8, -8]],
            ),
            (
                "carry-skip 8/4",
                csa.clone(),
                zero(&csa),
                CacheStrategy::Dominance,
                EngineKind::Sat,
                [324, 858, 517, 276],
                vec![vec![
                    -17, -15, -13, -11, -10, -8, -6, -4, -17, -15, -13, -11, -10, -8, -6, -4, -8,
                ]],
            ),
            (
                "c17",
                c17(),
                vec![Time::new(3); 2],
                CacheStrategy::Dominance,
                EngineKind::Sat,
                [5, 35, 8, 0],
                vec![vec![1, 1, 0, 0, 1]],
            ),
        ];
        for (name, net, req, cache, engine, counts, maxima) in cases {
            let r = approx2_required_times(
                &net,
                &UnitDelay,
                &req,
                Approx2Options {
                    threads: 1,
                    cache,
                    engine,
                    ..Approx2Options::default()
                },
            );
            let got: Vec<Vec<i64>> = r
                .maximal
                .iter()
                .map(|m| {
                    m.iter()
                        .map(|t| if t.is_inf() { INF } else { t.ticks() })
                        .collect()
                })
                .collect();
            assert_eq!(
                [r.oracle_calls, r.cache_hits, r.batches, r.batched_probes],
                counts,
                "{name} ({cache:?}, {engine:?}): calls, hits, batches, batched probes"
            );
            assert_eq!(got, maxima, "{name} ({cache:?}, {engine:?}): maxima");
            assert!(r.completed, "{name}");
        }
    }

    #[test]
    fn reclaim_frees_cone_stores_but_respects_the_floor() {
        let t = |v: &[i64]| -> Vec<Time> { v.iter().map(|&x| Time::new(x)).collect() };
        let mut stores: Vec<ConeStore> = (0..4)
            .map(|_| ConeStore::new(CacheStrategy::Exact))
            .collect();
        stores[0].insert(&t(&[1, 2]), true);
        // Below the floor: the sweep is a no-op and verdicts survive.
        assert_eq!(reclaim(&mut stores), 0);
        assert_eq!(stores[0].query(&t(&[1, 2])), Some(true));
        // Push past the floor, then the sweep really clears.
        let needed = (RECLAIM_FLOOR_BYTES / ENTRY_BASE_BYTES) as i64 + 1;
        for i in 0..needed {
            stores[(i % 4) as usize].insert(&t(&[i, i + 1]), true);
        }
        assert!(reclaim(&mut stores) >= RECLAIM_FLOOR_BYTES);
        assert_eq!(stores[0].query(&t(&[1, 2])), None, "verdicts were swept");
        assert!(stores.iter().all(|s| s.bytes == 0));
    }
}
