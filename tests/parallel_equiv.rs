//! Equivalence of the parallel, dominance-pruned §4.3 oracle with the
//! sequential baseline: on random circuits the lattice climb must
//! return *identical* maximal sets for every thread count and for both
//! verdict-cache strategies, and every maximal point must be safe and
//! unraisable. (Cone verdicts are pure functions of the query, so
//! neither the fan-out across worker threads nor dominance pruning may
//! change what the search finds — only how fast it finds it.)

use xrta::circuits::{carry_skip_adder, random_circuit, RandomCircuitSpec};
use xrta::prelude::*;

fn spec(seed: u64) -> RandomCircuitSpec {
    RandomCircuitSpec {
        inputs: 5,
        gates: 12,
        outputs: 2,
        max_fanin: 3,
        locality: 50,
        seed,
    }
}

fn seeds() -> impl Iterator<Item = u64> {
    (0..10u64).map(|i| 0x9E37u64.wrapping_mul(2654435761).wrapping_add(i * 487))
}

fn opts(threads: usize, cache: CacheStrategy) -> Approx2Options {
    Approx2Options {
        max_solutions: 3,
        max_oracle_calls: 2_000,
        threads,
        cache,
        ..Approx2Options::default()
    }
}

#[test]
fn parallel_and_sequential_find_identical_maximal_sets() {
    for seed in seeds() {
        let net = random_circuit(spec(seed)).expect("valid spec");
        let req = vec![Time::ZERO; net.outputs().len()];
        let seq = approx2_required_times(&net, &UnitDelay, &req, opts(1, CacheStrategy::Dominance));
        for threads in [2usize, 4] {
            let par = approx2_required_times(
                &net,
                &UnitDelay,
                &req,
                opts(threads, CacheStrategy::Dominance),
            );
            assert_eq!(
                seq.maximal, par.maximal,
                "threads {threads} diverged (seed {seed})"
            );
            assert_eq!(seq.r_bottom, par.r_bottom, "seed {seed}");
        }
    }
}

#[test]
fn dominance_and_exact_caches_find_identical_maximal_sets() {
    for seed in seeds() {
        let net = random_circuit(spec(seed)).expect("valid spec");
        let req = vec![Time::ZERO; net.outputs().len()];
        let exact = approx2_required_times(&net, &UnitDelay, &req, opts(1, CacheStrategy::Exact));
        let dom = approx2_required_times(&net, &UnitDelay, &req, opts(1, CacheStrategy::Dominance));
        assert_eq!(exact.maximal, dom.maximal, "seed {seed}");
        // The point of the dominance cache: never more χ-engine runs
        // than the exact-key baseline.
        assert!(
            dom.oracle_calls <= exact.oracle_calls,
            "dominance used {} oracle calls, exact {} (seed {seed})",
            dom.oracle_calls,
            exact.oracle_calls
        );
    }
}

/// Thread count must not leak into the *analysis content* at all: the
/// rendered latest conditions — the user-visible report — must be
/// byte-identical at 1, 2, 4 and 8 threads. The random circuits finish
/// under the oracle's warm-up and stay on one thread; the carry-skip
/// adder needs hundreds of oracle calls, so on a multi-core host its
/// later validation rounds really run in parallel.
#[test]
fn rendered_report_is_byte_identical_across_thread_counts() {
    let adder = carry_skip_adder(8, 4).expect("valid adder");
    let circuits = seeds()
        .take(4)
        .map(|seed| random_circuit(spec(seed)).expect("valid spec"))
        .chain(std::iter::once(adder));
    for net in circuits {
        let req = vec![Time::ZERO; net.outputs().len()];
        let render = |threads: usize| {
            let r = approx2_required_times(
                &net,
                &UnitDelay,
                &req,
                opts(threads, CacheStrategy::Dominance),
            );
            xrta::core::report::render_conditions(&net, &r.maximal_conditions())
        };
        let baseline = render(1);
        for threads in [2usize, 4, 8] {
            assert_eq!(
                baseline,
                render(threads),
                "report diverged at {threads} threads ({})",
                net.name()
            );
        }
    }
}

#[test]
fn parallel_maximal_points_are_safe_and_unraisable() {
    for seed in seeds() {
        let net = random_circuit(spec(seed)).expect("valid spec");
        let req = vec![Time::ZERO; net.outputs().len()];
        let r = approx2_required_times(&net, &UnitDelay, &req, opts(4, CacheStrategy::Dominance));
        assert!(r.completed, "budget hit on a small circuit (seed {seed})");
        for m in &r.maximal {
            let ft = FunctionalTiming::new(&net, &UnitDelay, m.clone(), EngineKind::Bdd);
            assert!(ft.meets(&req), "point {m:?} unsafe (seed {seed})");
            // Unraisable: bumping any coordinate to its next candidate
            // rung breaks safety per the independent BDD oracle.
            for (i, cands) in r.candidates.iter().enumerate() {
                let pos = cands
                    .iter()
                    .position(|&c| c == m[i])
                    .expect("maximal point lies on the candidate lattice");
                if pos + 1 < cands.len() {
                    let mut up = m.clone();
                    up[i] = cands[pos + 1];
                    let ft = FunctionalTiming::new(&net, &UnitDelay, up.clone(), EngineKind::Bdd);
                    assert!(
                        !ft.meets(&req),
                        "raising coord {i} of {m:?} to {:?} stays safe (seed {seed})",
                        up[i]
                    );
                }
            }
        }
    }
}
