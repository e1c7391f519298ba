//! Running one job through its public analysis entry point, and the
//! correctness gate applied to its answer outside the timed section.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use xrta_chi::{EngineKind, FunctionalTiming};
use xrta_core::report::{render_approx1, render_approx2, render_exact_minterm};
use xrta_core::{
    approx1_required_times_governed, approx2_required_times_governed,
    exact_required_times_governed, AnalysisError, Approx1Analysis, Approx1Options, Approx2Options,
    Approx2Result, Budget, CacheStrategy, ExactAnalysis, ExactOptions,
};
use xrta_network::{parse_netlist, write_blif, Network, NodeId};
use xrta_timing::{arrival_times, Time, UnitDelay};
use xrta_verify::oracle;

use crate::jobs::{Job, Kind};
use crate::trace::Tracer;

/// Deterministic work caps. Every cap counts work, never wall time,
/// so a job's outcome and counters repeat exactly from run to run.
pub struct Caps {
    /// Oracle invocations per climb.
    pub oracle_calls: usize,
    /// SAT conflicts per stability query.
    pub conflicts: u64,
    /// Unit propagations per stability query.
    pub propagations: u64,
    /// BDD nodes per manager.
    pub bdd_nodes: usize,
}

/// Wall-clock safety net, far above any job's expected time. Hitting
/// it is counted as an error, never as an outcome.
const SAFETY_NET: Duration = Duration::from_secs(60);

/// Exhaustive-oracle reach of the correctness gate, in primary inputs.
const ORACLE_PIS: usize = 16;

/// Explicit leaf enumeration limit of `ExactAnalysis::latest_tuples`.
const EXACT_LEAVES: usize = 20;

/// What the analysis call returned, kept for the correctness gate.
enum Answer {
    Climb(Approx2Result),
    Arrivals(Vec<Time>),
    /// The relation and whether it admits a looser-than-topological
    /// condition.
    Exact(ExactAnalysis, bool),
    Approx1(Approx1Analysis),
    /// A BDD node cap stopped the job (a Table-1 "memory out").
    CapacityOut,
}

/// Counters the program returned for one job.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Counts {
    pub oracle_calls: usize,
    pub cache_hits: usize,
    pub batched_probes: usize,
}

/// One timed run of a job.
pub struct Run {
    answer: Option<Answer>,
    /// Analysis call plus report rendering.
    pub latency: Duration,
    /// Time to the first looser-than-topological result, if any.
    pub first_result: Option<Duration>,
    /// The rendered report.
    pub report: String,
    pub nontrivial: bool,
    pub counts: Counts,
    /// An unexpected error or a caught panic.
    pub error: Option<String>,
}

impl Run {
    pub fn capacity_out(&self) -> bool {
        matches!(self.answer, Some(Answer::CapacityOut))
    }
}

/// Required time 0 at every output, the paper's §6 protocol.
pub fn zero_required(net: &Network) -> Vec<Time> {
    vec![Time::ZERO; net.outputs().len()]
}

fn zero_arrivals(net: &Network) -> Vec<Time> {
    vec![Time::ZERO; net.inputs().len()]
}

fn safety_budget() -> Budget {
    Budget::unlimited().with_timeout(SAFETY_NET)
}

fn climb_options(caps: &Caps) -> Approx2Options {
    Approx2Options {
        engine: EngineKind::Sat,
        max_solutions: 4,
        max_oracle_calls: caps.oracle_calls,
        oracle_conflict_budget: Some(caps.conflicts),
        oracle_propagation_budget: Some(caps.propagations),
        threads: 1,
        cache: CacheStrategy::Dominance,
        ..Approx2Options::default()
    }
}

/// The analysis call and the rendering, each in its own span.
fn analyze(job: &Job, caps: &Caps, tracer: &mut Tracer) -> Result<Run, String> {
    let net = &job.net;
    let req = zero_required(net);
    let id = Some(job.id);
    let started = Instant::now();
    let mut first_result = None;
    let mut counts = Counts::default();
    let (mut answer, layer) = match job.kind {
        Kind::Climb => {
            let span = tracer.enter("core::approx2", id);
            let r = approx2_required_times_governed(
                net,
                &UnitDelay,
                &req,
                climb_options(caps),
                &safety_budget(),
            );
            tracer.exit(span);
            let r = r.map_err(|e| format!("approx2: {e}"))?;
            if let Some(e) = r.stopped_by {
                return Err(format!("approx2 stopped by {e}"));
            }
            if r.worker_panics > 0 {
                return Err(format!("approx2: {} worker panic(s)", r.worker_panics));
            }
            first_result = r.first_nontrivial;
            counts = Counts {
                oracle_calls: r.oracle_calls,
                cache_hits: r.cache_hits,
                batched_probes: r.batched_probes,
            };
            (Answer::Climb(r), "core::approx2")
        }
        Kind::TrueDelay(engine) => {
            let span = tracer.enter("chi::true_delay", id);
            let ft = FunctionalTiming::new(net, &UnitDelay, zero_arrivals(net), engine)
                .with_conflict_budget(Some(caps.conflicts))
                .with_propagation_budget(Some(caps.propagations))
                .with_node_limit(Some(caps.bdd_nodes))
                .with_deadline(Some(Instant::now() + SAFETY_NET));
            let topo = arrival_times(net, &UnitDelay, &zero_arrivals(net));
            let mut arrivals = Vec::with_capacity(net.outputs().len());
            let mut out = Ok(());
            for &o in net.outputs() {
                match ft.try_true_arrival(o) {
                    Ok(t) => {
                        if first_result.is_none() && t < topo[o.index()] {
                            first_result = Some(started.elapsed());
                        }
                        arrivals.push(t);
                    }
                    Err(e) => {
                        out = Err(e);
                        break;
                    }
                }
            }
            tracer.exit(span);
            match out {
                Ok(()) => (Answer::Arrivals(arrivals), "chi::true_delay"),
                Err(e) => match AnalysisError::from(e) {
                    AnalysisError::Capacity { .. } => (Answer::CapacityOut, "chi::true_delay"),
                    e => return Err(format!("true delay: {e}")),
                },
            }
        }
        Kind::Exact => {
            let span = tracer.enter("core::exact", id);
            let r = exact_required_times_governed(
                net,
                &UnitDelay,
                &req,
                ExactOptions {
                    node_limit: caps.bdd_nodes,
                    reorder: false,
                },
                &safety_budget(),
            )
            .map(|mut a| {
                let nontrivial = a.has_nontrivial_requirement();
                (a, nontrivial)
            });
            tracer.exit(span);
            match r {
                Ok((a, nontrivial)) => {
                    if nontrivial {
                        first_result = Some(started.elapsed());
                    }
                    (Answer::Exact(a, nontrivial), "core::exact")
                }
                Err(AnalysisError::Capacity { .. }) => (Answer::CapacityOut, "core::exact"),
                Err(e) => return Err(format!("exact: {e}")),
            }
        }
        Kind::Approx1 => {
            let span = tracer.enter("core::approx1", id);
            let r = approx1_required_times_governed(
                net,
                &UnitDelay,
                &req,
                Approx1Options {
                    node_limit: caps.bdd_nodes,
                    ..Approx1Options::default()
                },
                &safety_budget(),
            );
            tracer.exit(span);
            match r {
                Ok(a) => {
                    if a.has_nontrivial_requirement() {
                        first_result = Some(started.elapsed());
                    }
                    (Answer::Approx1(a), "core::approx1")
                }
                Err(AnalysisError::Capacity { .. }) => (Answer::CapacityOut, "core::approx1"),
                Err(e) => return Err(format!("approx1: {e}")),
            }
        }
    };
    let span = tracer.enter("core::report", id);
    let (report, nontrivial) = render(net, &mut answer, layer);
    tracer.exit(span);
    Ok(Run {
        answer: Some(answer),
        latency: started.elapsed(),
        first_result,
        report,
        nontrivial,
        counts,
        error: None,
    })
}

/// Renders the answer as the CLI would and says whether it is looser
/// than topological analysis.
fn render(net: &Network, answer: &mut Answer, layer: &str) -> (String, bool) {
    match answer {
        Answer::Climb(r) => (render_approx2(net, r), r.has_nontrivial_requirement()),
        Answer::Arrivals(arr) => {
            let topo = arrival_times(net, &UnitDelay, &zero_arrivals(net));
            let mut out = String::from("output | topological | true\n");
            let mut nontrivial = false;
            for (&o, &t) in net.outputs().iter().zip(arr.iter()) {
                nontrivial |= t < topo[o.index()];
                let _ = writeln!(out, "{} | {} | {}", net.node(o).name, topo[o.index()], t);
            }
            (out, nontrivial)
        }
        Answer::Exact(a, nontrivial) => {
            let nontrivial = *nontrivial;
            let mut out = format!(
                "exact relation: {} leaf variable(s), non-trivial: {nontrivial}\n",
                a.leaf_count()
            );
            if a.leaf_count() <= EXACT_LEAVES {
                out.push_str(&render_exact_minterm(
                    net,
                    a,
                    &vec![false; net.inputs().len()],
                ));
            }
            (out, nontrivial)
        }
        Answer::Approx1(a) => (render_approx1(net, a), a.has_nontrivial_requirement()),
        Answer::CapacityOut => (format!("{layer}: memory out\n"), false),
    }
}

/// Runs one job with panics caught: a panic or an unexpected error
/// becomes [`Run::error`].
pub fn run(job: &Job, caps: &Caps, tracer: &mut Tracer) -> Run {
    let started = Instant::now();
    let depth = tracer.depth();
    let result = catch_unwind(AssertUnwindSafe(|| analyze(job, caps, &mut *tracer)));
    let error = match result {
        Ok(Ok(run)) => return run,
        Ok(Err(e)) => e,
        Err(p) => format!(
            "panic: {}",
            p.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        ),
    };
    tracer.unwind_to(depth);
    Run {
        answer: None,
        latency: started.elapsed(),
        first_result: None,
        report: String::new(),
        nontrivial: false,
        counts: Counts::default(),
        error: Some(error),
    }
}

/// The correctness gate, run once per job outside the timed section.
/// `Ok(full)` says whether the answer is the complete one (no work cap
/// cut it short); `Err` is a wrong answer. Jobs within the exhaustive
/// oracle's reach are checked against it; larger ones against the
/// other χ engine.
pub fn check(job: &Job, run: &mut Run) -> Result<bool, String> {
    let net = &job.net;
    let req = zero_required(net);
    let small = net.inputs().len() <= ORACLE_PIS;
    let Some(answer) = &mut run.answer else {
        return Err(run.error.clone().unwrap_or_default());
    };
    match answer {
        Answer::CapacityOut => Ok(false),
        Answer::Climb(r) => {
            for point in std::iter::once(&r.r_bottom).chain(&r.maximal) {
                if !point_safe(net, &req, point, EngineKind::Bdd)? {
                    return Err(format!("unsafe point {point:?}"));
                }
            }
            Ok(r.completed)
        }
        Answer::Arrivals(got) => {
            let want = if small {
                oracle::exhaustive_true_arrivals(net, &UnitDelay, &zero_arrivals(net))
            } else {
                let other = match job.kind {
                    Kind::TrueDelay(EngineKind::Sat) => EngineKind::Bdd,
                    _ => EngineKind::Sat,
                };
                let (net, _) = dfs_ordered(net)?;
                FunctionalTiming::new(&net, &UnitDelay, zero_arrivals(&net), other)
                    .with_deadline(Some(Instant::now() + SAFETY_NET))
                    .try_true_arrivals()
                    .map_err(|e| format!("reference engine: {e:?}"))?
            };
            let got = &*got;
            if got.iter().zip(&want).any(|(g, w)| g < w) {
                return Err(format!("true arrivals {got:?} beat the reference {want:?}"));
            }
            // A later answer is sound but was cut by a work cap.
            Ok(got == &want)
        }
        Answer::Exact(a, _) => {
            if !point_safe(net, &req, &a.topo_required, EngineKind::Sat)? {
                return Err("topological requirement reported unsafe".into());
            }
            if a.leaf_count() <= EXACT_LEAVES {
                for x in [false, true] {
                    let x = vec![x; net.inputs().len()];
                    for cond in a.latest_tuples(&x) {
                        if !oracle::condition_safe_at(net, &UnitDelay, &req, &x, &cond) {
                            return Err(format!("latest condition {cond} unsafe at {x:?}"));
                        }
                    }
                }
            }
            Ok(true)
        }
        Answer::Approx1(a) => {
            for cond in &a.conditions {
                let safe = if small {
                    oracle::condition_safe(net, &UnitDelay, &req, cond)
                } else {
                    let earliest: Vec<Time> = cond.per_input.iter().map(|v| v.earliest()).collect();
                    point_safe(net, &req, &earliest, EngineKind::Sat)?
                };
                if !safe {
                    return Err(format!("condition {cond} unsafe"));
                }
            }
            Ok(true)
        }
    }
}

/// Is the uniform deadline vector `point` safe? Exhaustively within
/// the oracle's reach, else by `engine`.
fn point_safe(
    net: &Network,
    req: &[Time],
    point: &[Time],
    engine: EngineKind,
) -> Result<bool, String> {
    if net.inputs().len() <= ORACLE_PIS {
        return Ok(oracle::point_safe(net, &UnitDelay, req, point));
    }
    let (net, perm) = dfs_ordered(net)?;
    let point = perm.iter().map(|&p| point[p]).collect();
    FunctionalTiming::new(&net, &UnitDelay, point, engine)
        .with_deadline(Some(Instant::now() + SAFETY_NET))
        .try_meets(req)
        .map_err(|e| format!("reference engine: {e:?}"))
}

/// The same circuit with its inputs declared in depth-first fanin order
/// from the outputs, and `perm[i]`, the original position of new input
/// `i`. The BDD engine orders its variables by input position; this
/// order interleaves the operands of arithmetic circuits, which keeps
/// the reference engine's BDDs small.
fn dfs_ordered(net: &Network) -> Result<(Network, Vec<usize>), String> {
    fn visit(net: &Network, id: NodeId, seen: &mut [bool], order: &mut Vec<NodeId>) {
        if std::mem::replace(&mut seen[id.index()], true) {
            return;
        }
        if net.node(id).is_input() {
            order.push(id);
        }
        for &f in &net.node(id).fanins {
            visit(net, f, seen, order);
        }
    }
    let mut seen = vec![false; net.node_count()];
    let mut order = Vec::new();
    for &o in net.outputs() {
        visit(net, o, &mut seen, &mut order);
    }
    order.extend(net.inputs().iter().filter(|i| !seen[i.index()]));
    let names: Vec<&str> = order.iter().map(|&i| net.node(i).name.as_str()).collect();
    let text: String = write_blif(net)
        .lines()
        .map(|l| match l.starts_with(".inputs") {
            true => format!(".inputs {}\n", names.join(" ")),
            false => format!("{l}\n"),
        })
        .collect();
    let copy = parse_netlist("reference.blif", &text)?;
    let pos_of = |id: NodeId| {
        net.inputs()
            .iter()
            .position(|&i| i == id)
            .expect("an input")
    };
    Ok((copy, order.into_iter().map(pos_of).collect()))
}
