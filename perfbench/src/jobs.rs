//! Seeded job sets for the three workloads.
//!
//! Every job is a generated circuit written out as `.bench` text; the
//! program under test only ever sees that text, loaded through
//! `network::parse_netlist`. The seed picks the random DAGs and the
//! order of jobs within each family. Every other family cycles through
//! fixed sizes, so different seeds give job sets of the same shape and
//! nearly the same cost: the seed-spread of the benchmark's percentiles
//! stays small (see NOTES.md).

use xrta_chi::EngineKind;
use xrta_circuits::{
    array_multiplier, bypass_chain, carry_select_adder, carry_skip_adder, comparator, mcnc_rows,
    priority_chain, random_circuit, ripple_carry_adder, shared_select_bypass, RandomCircuitSpec,
    SuiteRow,
};
use xrta_network::{parse_netlist, write_bench, write_blif, Network};
use xrta_rng::Rng;

use crate::trace::Tracer;

/// The workloads `BENCHMARK.json` names.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Climb,
    Truedelay,
    Relation,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "climb" => Some(Workload::Climb),
            "truedelay" => Some(Workload::Truedelay),
            "relation" => Some(Workload::Relation),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Climb => "climb",
            Workload::Truedelay => "truedelay",
            Workload::Relation => "relation",
        }
    }
}

/// Which public analysis entry point a job calls.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// §4.3 `approx2_required_times` (SAT oracle, dominance cache).
    Climb,
    /// Per-output `FunctionalTiming::try_true_arrival`.
    TrueDelay(EngineKind),
    /// §4.1 `exact_required_times`.
    Exact,
    /// §4.2 `approx1_required_times`.
    Approx1,
}

/// A generated job before loading: the netlist text the program reads.
pub struct Spec {
    pub family: &'static str,
    pub kind: Kind,
    pub name: String,
    pub text: String,
}

/// A loaded job.
pub struct Job {
    pub id: usize,
    pub family: &'static str,
    pub kind: Kind,
    pub name: String,
    /// FNV-1a digest of the netlist text.
    pub source_hash: u64,
    pub net: Network,
}

/// One family: its label, the analysis it runs and its circuits.
type Family = (&'static str, Kind, Vec<Network>);

fn ok(net: Result<Network, xrta_network::NetworkError>) -> Network {
    net.expect("generator parameters are valid")
}

fn dag(rng: &mut Rng, inputs: (usize, usize), gates: (usize, usize), outputs: usize) -> Network {
    ok(random_circuit(RandomCircuitSpec {
        inputs: rng.range(inputs.0, inputs.1 + 1),
        gates: rng.range(gates.0, gates.1 + 1),
        outputs,
        max_fanin: 3,
        locality: 70,
        seed: rng.next_u64(),
    }))
}

/// MCNC-style block surrogate resized to `inputs` × `outputs`.
fn block(row: usize, inputs: usize, outputs: usize) -> Network {
    SuiteRow {
        inputs,
        outputs,
        ..mcnc_rows()[row]
    }
    .build()
}

/// `count` circuits cycling through `sizes`.
fn cycle<T: Copy>(count: usize, sizes: &[T], build: impl Fn(T) -> Network) -> Vec<Network> {
    (0..count).map(|i| build(sizes[i % sizes.len()])).collect()
}

/// `count` copies of `net`.
fn copies(count: usize, net: Network) -> Vec<Network> {
    vec![net; count]
}

/// The families of a workload. Fixed-size families are sized so that
/// the pass's median and 90th-percentile jobs fall inside a block of
/// identical jobs (for `climb`: mult3 and csk8x4; for `truedelay`:
/// csk8x4 and csk12x4; for `relation`'s 90th: ssb3x2), which keeps the
/// percentiles independent of the seeded DAGs; see NOTES.md.
fn families(workload: Workload, rng: &mut Rng) -> Vec<Family> {
    let sat = Kind::TrueDelay(EngineKind::Sat);
    let bdd = Kind::TrueDelay(EngineKind::Bdd);
    match workload {
        Workload::Climb => vec![
            (
                "csk",
                Kind::Climb,
                [
                    copies(14, ok(carry_skip_adder(8, 4))),
                    copies(3, ok(carry_skip_adder(8, 2))),
                    copies(1, ok(carry_skip_adder(12, 4))),
                    copies(1, ok(carry_skip_adder(16, 4))),
                ]
                .concat(),
            ),
            (
                "dag",
                Kind::Climb,
                (0..20).map(|_| dag(rng, (6, 8), (15, 25), 4)).collect(),
            ),
            (
                "bypass",
                Kind::Climb,
                cycle(
                    18,
                    &[(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)],
                    |(s, d)| ok(shared_select_bypass(s, d)),
                ),
            ),
            (
                "mult",
                Kind::Climb,
                [
                    copies(22, ok(array_multiplier(3))),
                    copies(2, ok(array_multiplier(4))),
                ]
                .concat(),
            ),
            (
                "control",
                Kind::Climb,
                [
                    copies(6, ok(comparator(5))),
                    copies(4, ok(ripple_carry_adder(4))),
                    copies(4, ok(ripple_carry_adder(7))),
                    copies(10, ok(carry_select_adder(8, 4))),
                    copies(14, ok(ripple_carry_adder(10))),
                ]
                .concat(),
            ),
        ],
        Workload::Truedelay => vec![
            (
                "mult",
                sat,
                [
                    copies(12, ok(array_multiplier(3))),
                    copies(13, ok(array_multiplier(4))),
                    copies(3, ok(array_multiplier(5))),
                ]
                .concat(),
            ),
            (
                "csk",
                sat,
                [
                    copies(16, ok(carry_skip_adder(8, 4))),
                    copies(13, ok(carry_skip_adder(8, 2))),
                    copies(10, ok(carry_skip_adder(12, 4))),
                    copies(3, ok(carry_skip_adder(16, 4))),
                ]
                .concat(),
            ),
            (
                "ripple",
                sat,
                cycle(12, &[6, 7, 8, 9, 10, 11], |n| ok(ripple_carry_adder(n))),
            ),
            (
                "dag",
                sat,
                (0..18).map(|_| dag(rng, (8, 11), (25, 40), 6)).collect(),
            ),
        ],
        Workload::Relation => vec![
            (
                "block.exact",
                Kind::Exact,
                (0..30)
                    .map(|i| block(i % 10, 14 + i % 10 % 7, 3 + i % 10 % 4))
                    .collect(),
            ),
            (
                "block.approx1",
                Kind::Approx1,
                (0..10).map(|i| block(i, 20 + i, 4 + i % 5)).collect(),
            ),
            (
                "chain.exact",
                Kind::Exact,
                [
                    copies(3, ok(bypass_chain(4, 3))),
                    copies(4, ok(bypass_chain(3, 3))),
                    copies(2, ok(priority_chain(9))),
                    copies(2, ok(priority_chain(12))),
                    copies(8, ok(shared_select_bypass(3, 2))),
                    copies(3, ok(shared_select_bypass(3, 3))),
                ]
                .concat(),
            ),
            (
                "chain.approx1",
                Kind::Approx1,
                cycle(10, &[0, 1, 2, 3], |k| match k % 2 {
                    0 => ok(bypass_chain(3 + k, 3)),
                    _ => ok(priority_chain(8 + k)),
                }),
            ),
            (
                "arith.bdd",
                bdd,
                [
                    copies(16, ok(array_multiplier(4))),
                    copies(8, ok(ripple_carry_adder(8))),
                    copies(6, ok(ripple_carry_adder(11))),
                    copies(7, ok(carry_skip_adder(12, 4))),
                ]
                .concat(),
            ),
        ],
    }
}

/// Writes `net` as netlist text, returning the text and its file
/// extension. `.bench` is used unless the circuit has constant nodes:
/// `write_bench` emits those as `CONST0()`/`CONST1()`, which
/// `parse_bench` rejects, so such circuits are written as BLIF.
fn emit(net: &Network) -> (String, &'static str) {
    let bench = write_bench(net);
    if bench.contains("= CONST") {
        (write_blif(net), "blif")
    } else {
        (bench, "bench")
    }
}

/// Generates the job set of `workload` for `seed`: each family in a
/// seeded order, families interleaved round-robin.
pub fn generate(workload: Workload, seed: u64) -> Vec<Spec> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x7865_7274_615f_6265);
    let fams = families(workload, &mut rng);
    let mut per_family: Vec<Vec<Spec>> = fams
        .into_iter()
        .map(|(family, kind, nets)| {
            nets.iter()
                .map(|net| {
                    let (text, ext) = emit(net);
                    Spec {
                        family,
                        kind,
                        name: format!("{family}/{}.{ext}", net.name()),
                        text,
                    }
                })
                .collect()
        })
        .collect();
    for f in &mut per_family {
        rng.shuffle(f);
    }
    let mut specs = Vec::new();
    while per_family.iter().any(|f| !f.is_empty()) {
        for f in &mut per_family {
            specs.extend(f.pop());
        }
    }
    specs
}

/// The warm-up job: the job of median gate count among the fixed-size
/// families, so it is the same circuit for every seed.
pub fn warm_up(jobs: &[Job]) -> &Job {
    let mut fixed: Vec<&Job> = jobs
        .iter()
        .filter(|j| !j.family.starts_with("dag"))
        .collect();
    fixed.sort_by_key(|j| (j.net.gate_count(), j.net.name().to_string()));
    fixed[fixed.len() / 2]
}

/// Loads every spec through `parse_netlist`, one `network::parse`
/// span each.
pub fn load(specs: &[Spec], tracer: &mut Tracer) -> Result<Vec<Job>, String> {
    specs
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let span = tracer.enter("network::parse", Some(id));
            let net = parse_netlist(&s.name, &s.text);
            tracer.exit(span);
            Ok(Job {
                id,
                family: s.family,
                kind: s.kind,
                name: s.name.clone(),
                source_hash: crate::fnv1a(crate::FNV_OFFSET, s.text.as_bytes()),
                net: net?,
            })
        })
        .collect()
}
