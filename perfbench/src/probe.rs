//! The probe phase of the traced run: direct calls into the leaf-plan,
//! χ-encoding and SAT layers, timed one by one.
//!
//! For every output of every SAT-oracle job, a fresh `ChiSatEngine`
//! answers the stability queries at t = topo and t = topo − 1, the two
//! queries a topological terminal case would collapse. The χ literals
//! are built first (`chi_lit` for χ¹ and χ⁰) so the `check_stable`
//! that follows measures the solve alone.

use xrta_chi::{ChiSatEngine, EngineKind};
use xrta_core::plan_leaves;
use xrta_robust::mem::{self, Subsystem};
use xrta_timing::{arrival_times, Time, UnitDelay};

use crate::exec::{zero_required, Caps};
use crate::jobs::{Job, Kind};
use crate::trace::Tracer;

/// Counters the probed layers returned, summed over the probe phase;
/// peaks are the largest seen by any one engine.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Probe {
    pub leaves: usize,
    pub decisions: u64,
    pub propagations: u64,
    pub conflicts: u64,
    pub memo_peak: u64,
    pub db_peak: u64,
}

pub fn run(jobs: &[Job], caps: &Caps, tracer: &mut Tracer) -> Probe {
    let mut p = Probe::default();
    let meter = mem::global();
    for job in jobs {
        let net = &job.net;
        let id = Some(job.id);
        if matches!(job.kind, Kind::Climb | Kind::Exact | Kind::Approx1) {
            let span = tracer.enter("core::plan", id);
            let plan = plan_leaves(net, &UnitDelay, &zero_required(net), |_| true);
            tracer.exit(span);
            p.leaves += plan.leaf_count();
        }
        if !matches!(job.kind, Kind::Climb | Kind::TrueDelay(EngineKind::Sat)) {
            continue;
        }
        let arrivals = vec![Time::ZERO; net.inputs().len()];
        let topo = arrival_times(net, &UnitDelay, &arrivals);
        for &o in net.outputs() {
            meter.reset_peaks();
            let mut eng = ChiSatEngine::new(net, &UnitDelay, arrivals.clone());
            eng.set_conflict_budget(Some(caps.conflicts));
            eng.set_propagation_budget(Some(caps.propagations));
            let t = topo[o.index()];
            for t in [t, t - 1] {
                let span = tracer.enter("chi::encode", id);
                eng.chi_lit(net, o, true, t);
                eng.chi_lit(net, o, false, t);
                tracer.exit(span);
                let span = tracer.enter("sat::solve", id);
                eng.check_stable(net, o, t);
                tracer.exit(span);
            }
            let s = eng.stats();
            p.decisions += s.decisions;
            p.propagations += s.propagations;
            p.conflicts += s.conflicts;
            p.memo_peak = p.memo_peak.max(meter.peak(Subsystem::ChiMemo));
            p.db_peak = p.db_peak.max(meter.peak(Subsystem::Sat));
        }
    }
    p
}
