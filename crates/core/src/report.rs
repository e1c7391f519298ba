//! Human-readable rendering of analysis results (paper-style tables).

use std::fmt::Write as _;

use xrta_network::Network;
use xrta_timing::Time;

use crate::approx1::Approx1Analysis;
use crate::approx2::Approx2Result;
use crate::exact::ExactAnalysis;
use crate::flex::SubcircuitArrivals;
use crate::session::SessionReport;
use crate::types::RequiredTimeTuple;

/// Renders a set of latest required-time conditions as a table with one
/// row per condition and one column per primary input.
pub fn render_conditions(net: &Network, conditions: &[RequiredTimeTuple]) -> String {
    let names: Vec<&str> = net
        .inputs()
        .iter()
        .map(|&i| net.node(i).name.as_str())
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "condition | {}", names.join(" | "));
    for (k, cond) in conditions.iter().enumerate() {
        let cells: Vec<String> = cond.per_input.iter().map(|vt| vt.to_string()).collect();
        let _ = writeln!(out, "#{k:<8} | {}", cells.join(" | "));
    }
    out
}

/// Renders the folded arrival table of a §5.1 analysis like the
/// paper's Figure 6 table; unreachable vectors show `(∞,…)` (SDC).
pub fn render_folded_arrivals(res: &SubcircuitArrivals) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "U vector | maximal arrival tuples");
    for (u_vec, tuples) in &res.folded {
        let label: String = u_vec.iter().map(|&b| if b { '1' } else { '0' }).collect();
        if tuples.is_empty() {
            let infs = vec!["∞"; u_vec.len()].join(",");
            let _ = writeln!(out, "{label:<8} | {{({infs})}}   (SDC)");
        } else {
            let ts: Vec<String> = tuples
                .iter()
                .map(|t| {
                    let inner: Vec<String> = t.iter().map(|x| x.to_string()).collect();
                    format!("({})", inner.join(","))
                })
                .collect();
            let _ = writeln!(out, "{label:<8} | {{{}}}", ts.join(", "));
        }
    }
    out
}

/// Renders an [`Approx1Analysis`] like the paper's §4.2 discussion:
/// parameter count, prime count, and each prime's required-time reading.
pub fn render_approx1(net: &Network, analysis: &Approx1Analysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "parametric analysis: {} parameters, {} prime(s), non-trivial: {}",
        analysis.param_vars.len(),
        analysis.primes.len(),
        analysis.has_nontrivial_requirement()
    );
    out.push_str(&render_conditions(net, &analysis.conditions));
    out
}

/// Renders an [`Approx2Result`] as a before/after table per input.
pub fn render_approx2(net: &Network, result: &Approx2Result) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "lattice climb: {} maximal point(s), {} oracle call(s), \
         {} cache hit(s) ({:.1}% hit rate), {} thread(s), complete: {}",
        result.maximal.len(),
        result.oracle_calls,
        result.cache_hits,
        100.0 * result.cache_hit_rate(),
        result.threads_used,
        result.completed
    );
    let _ = writeln!(
        out,
        "oracle: {} batch(es) ({} batched probe(s))",
        result.batches, result.batched_probes
    );
    let _ = writeln!(out, "input | topological | maximal points");
    for (pos, &pi) in net.inputs().iter().enumerate() {
        let points: Vec<String> = result.maximal.iter().map(|m| m[pos].to_string()).collect();
        let _ = writeln!(
            out,
            "{:<5} | {:<11} | {}",
            net.node(pi).name,
            result.r_bottom[pos],
            points.join(", ")
        );
    }
    out
}

/// Renders a session's provenance: requested vs answering rung and the
/// per-rung resource spend of every attempt.
pub fn render_session_provenance(report: &SessionReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "session: requested {}, answered {}{}",
        report.requested,
        report.verdict,
        if report.degraded() { " (degraded)" } else { "" }
    );
    for a in &report.attempts {
        let outcome = match a.error {
            None => "ok".to_string(),
            Some(e) => e.to_string(),
        };
        let _ = writeln!(
            out,
            "  rung {:<11} | {:>8.1?} | {}",
            a.rung.to_string(),
            a.wall,
            outcome
        );
    }
    out
}

/// Renders the exact latest relation for one input minterm like the
/// paper's §4.1 right-hand table.
pub fn render_exact_minterm(net: &Network, analysis: &mut ExactAnalysis, x: &[bool]) -> String {
    let mut out = String::new();
    let label: String = x.iter().map(|&b| if b { '1' } else { '0' }).collect();
    let tuples = analysis.latest_tuples(x);
    let readings: Vec<String> = tuples
        .iter()
        .map(|t| {
            let cells: Vec<String> = t
                .per_input
                .iter()
                .enumerate()
                .map(|(i, vt)| {
                    let active: Time = if x[i] { vt.value1 } else { vt.value0 };
                    active.to_string()
                })
                .collect();
            format!("({})", cells.join(","))
        })
        .collect();
    let _ = writeln!(out, "x = {label}: {{{}}}", readings.join(", "));
    let _ = net;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx1::{approx1_required_times, Approx1Options};
    use crate::approx2::{approx2_required_times, Approx2Options};
    use crate::exact::{exact_required_times, ExactOptions};
    use xrta_circuits::fig4;
    use xrta_timing::UnitDelay;

    #[test]
    fn renders_are_nonempty_and_mention_inputs() {
        let net = fig4();
        let req = [Time::new(2)];
        let a1 = approx1_required_times(&net, &UnitDelay, &req, Approx1Options::default()).unwrap();
        let s = render_approx1(&net, &a1);
        assert!(s.contains("x1"));
        assert!(s.contains("prime"));

        let a2 = approx2_required_times(&net, &UnitDelay, &req, Approx2Options::default());
        let s = render_approx2(&net, &a2);
        assert!(s.contains("topological"));
        assert!(s.contains("x2"));

        let mut ex = exact_required_times(&net, &UnitDelay, &req, ExactOptions::default()).unwrap();
        let s = render_exact_minterm(&net, &mut ex, &[false, false]);
        assert!(s.contains("x = 00"));
        assert!(s.contains("∞"), "infinite deadlines rendered: {s}");
    }

    #[test]
    fn folded_arrivals_render_includes_sdc() {
        use crate::flex::{subcircuit_arrival_times, ArrivalFlexOptions};
        let (net, u) = xrta_circuits::fig6();
        let res = subcircuit_arrival_times(
            &net,
            &UnitDelay,
            &[Time::ZERO; 3],
            &u,
            ArrivalFlexOptions::default(),
        )
        .unwrap();
        let s = render_folded_arrivals(&res);
        assert!(s.contains("SDC"), "{s}");
        assert!(s.contains("(1,2)"), "{s}");
    }

    #[test]
    fn session_provenance_names_rungs_and_exhaustion() {
        use crate::governor::Budget;
        use crate::session::{run_with_fallback, SessionOptions, Verdict};
        let net = fig4();
        let opts = SessionOptions {
            budget: Budget::unlimited().with_node_limit(Some(8)),
            fallback: true,
            ..SessionOptions::default()
        };
        let r =
            run_with_fallback(&net, &UnitDelay, &[Time::new(2)], Verdict::Exact, &opts).unwrap();
        let s = render_session_provenance(&r);
        assert!(s.contains("requested exact"), "{s}");
        assert!(s.contains("degraded"), "{s}");
        assert!(s.contains("node budget"), "{s}");
    }

    #[test]
    fn approx2_conditions_are_uniform_tuples() {
        let net = fig4();
        let r =
            approx2_required_times(&net, &UnitDelay, &[Time::new(2)], Approx2Options::default());
        let conds = r.maximal_conditions();
        assert_eq!(conds.len(), r.maximal.len());
        for (c, m) in conds.iter().zip(&r.maximal) {
            for (vt, &t) in c.per_input.iter().zip(m) {
                assert_eq!(vt.value1, t);
                assert_eq!(vt.value0, t);
            }
        }
    }
}
