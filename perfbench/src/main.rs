//! End-to-end and per-layer benchmark of the xrta analyses.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload climb|truedelay|relation --seed N --seconds S --trace 0|1
//! ```
//!
//! One client, one job in flight: the seeded job set runs in a single
//! process at `threads = 1`, families interleaved round-robin. With
//! `--trace 0` the first pass is checked for correctness (outside the
//! timed sections) and later passes repeat the jobs until `S` seconds
//! of job time are measured; each repeat must reproduce the first
//! pass's report and counters exactly, and set-ups are timed between
//! jobs all through the run. With `--trace 1` every job runs
//! once untraced and once inside spans, then the probe phase times the
//! leaf-plan, χ and SAT layers directly. See `NOTES.md`.

mod exec;
mod jobs;
mod probe;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use xrta_robust::mem::{self, Subsystem};

use exec::{Caps, Counts, Run};
use jobs::{Job, Workload};
use trace::Tracer;

/// Set-ups per run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// With `--trace 0`, one more set-up is timed after every this many
/// jobs, so the set-up samples spread over the whole run rather than
/// one instant of it: the host's speed swings by up to half over a few
/// seconds, and seven back-to-back set-ups at the start of a run all
/// fell in the same swing.
const SETUP_EVERY: usize = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for --trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Work caps per workload. Today every `climb` job finishes within its
/// oracle-call cap and every `truedelay` answer equals the reference
/// (`full_answer_ratio` = 1 on both); `relation`'s node cap turns about
/// a quarter of its jobs into Table-1-style memory-outs. The cap is kept
/// low so that a memory-out job's tables stay near the size of the
/// caches: at 2^18 nodes those jobs filled 36 MiB, were most of the
/// pass's time, and their speed followed the host's memory traffic.
fn caps(workload: Workload) -> Caps {
    match workload {
        Workload::Climb => Caps {
            oracle_calls: 1500,
            conflicts: 20_000,
            propagations: 2_000_000,
            bdd_nodes: 1 << 20,
        },
        Workload::Truedelay => Caps {
            oracle_calls: 0,
            conflicts: 50_000,
            propagations: 5_000_000,
            bdd_nodes: 1 << 20,
        },
        Workload::Relation => Caps {
            oracle_calls: 0,
            conflicts: 50_000,
            propagations: 5_000_000,
            bdd_nodes: 1 << 16,
        },
    }
}

/// What the first, checked pass established about a job; every later
/// run of the job must reproduce it.
struct Reference {
    report_hash: u64,
    counts: Counts,
    nontrivial: bool,
    full: bool,
    capacity_out: bool,
    failed: bool,
}

pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Check verdicts by (netlist, report) digest: the gate is a function
/// of the circuit and the answer, so a job set's repeated circuits are
/// checked once.
type Verdicts = HashMap<(u64, u64), Result<bool, String>>;

fn reference(job: &Job, run: &mut Run, verdicts: &mut Verdicts) -> Reference {
    let report_hash = fnv1a(FNV_OFFSET, run.report.as_bytes());
    let checked = match &run.error {
        Some(e) => Err(e.clone()),
        None => verdicts
            .entry((job.source_hash, report_hash))
            .or_insert_with(|| exec::check(job, run))
            .clone(),
    };
    if let Err(e) = &checked {
        eprintln!("error: job {} ({}): {e}", job.id, job.name);
    }
    Reference {
        report_hash,
        counts: run.counts,
        nontrivial: run.nontrivial,
        full: checked == Ok(true),
        capacity_out: run.capacity_out(),
        failed: checked.is_err(),
    }
}

/// Did a repeat run reproduce the first pass?
fn reproduces(job: &Job, r: &Reference, run: &Run) -> bool {
    let same = run.error.is_none()
        && fnv1a(FNV_OFFSET, run.report.as_bytes()) == r.report_hash
        && run.counts == r.counts
        && run.nontrivial == r.nontrivial;
    if !same && !r.failed {
        eprintln!(
            "error: job {} ({}) did not reproduce its first run",
            job.id, job.name
        );
    }
    same
}

/// Linear-interpolated quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out revision, read from `.git` when there is one.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "none".into(),
    }
}

/// FNV-1a over the sources the benchmark builds from, so results from
/// checkouts without git history still name the code they measured.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h = FNV_OFFSET;
    for f in &files {
        h = fnv1a(h, f.to_string_lossy().as_bytes());
        h = fnv1a(h, &std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

/// One set-up: generate, emit, parse, and the untimed warm-up job. Its
/// time is pushed onto `times`, in seconds.
fn setup(
    args: &Args,
    caps: &Caps,
    tracer: &mut Tracer,
    times: &mut Vec<f64>,
) -> Result<Vec<Job>, String> {
    let started = Instant::now();
    let specs = jobs::generate(args.workload, args.seed);
    let jobs = jobs::load(&specs, tracer).map_err(|e| format!("set-up failed: {e}"))?;
    let warm = exec::run(jobs::warm_up(&jobs), caps, &mut Tracer::new(false));
    if let Some(e) = warm.error {
        return Err(format!("set-up failed: warm-up job failed: {e}"));
    }
    times.push(started.elapsed().as_secs_f64());
    Ok(jobs)
}

/// The fastest run so far of one circuit in one family, over every job
/// that runs it: a family's identical copies share one netlist text and
/// one analysis (two families may share a text, not the analysis). The
/// host's speed swings by up to half over a few seconds; the fastest of
/// a circuit's runs filters the slow stretches, and pooling the copies
/// gives it many more runs to choose from than one job has.
#[derive(Clone, Copy, Default)]
struct Best {
    latency: Option<Duration>,
    first_result: Option<Duration>,
}

impl Best {
    fn record(&mut self, run: &Run) {
        let min = |a: Option<Duration>, b: Duration| Some(a.map_or(b, |a| a.min(b)));
        self.latency = min(self.latency, run.latency);
        if let Some(f) = run.first_result {
            self.first_result = min(self.first_result, f);
        }
    }
}

/// Summed counters and peaks of the traced runs.
#[derive(Default)]
struct Layers {
    counts: Counts,
    capacity_outs: usize,
    stripes_peak: u64,
    bdd_peak: u64,
    traced: Duration,
    untraced: Duration,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: perfbench --workload climb|truedelay|relation --seed N --seconds S --trace 0|1\n{e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let caps = caps(args.workload);
    let mut tracer = Tracer::new(args.trace);

    let mut setups = Vec::new();
    let jobs = setup(args, &caps, &mut tracer, &mut setups)?;
    if args.trace {
        while setups.len() < SETUP_REPS {
            setup(args, &caps, &mut tracer, &mut setups)?;
        }
    }
    let n = jobs.len();

    // Pass 1: every job once, checked outside its timed section. In a
    // traced run the job then runs again inside spans.
    let mut refs = Vec::with_capacity(n);
    let mut verdicts = Verdicts::new();
    let mut best: HashMap<(&str, u64), Best> = HashMap::new();
    let mut attempted = 0;
    let mut busy = Duration::ZERO;
    let mut layers = Layers::default();
    let meter = mem::global();
    for job in &jobs {
        tracer.set_enabled(false);
        let t = Instant::now();
        let mut run = exec::run(job, &caps, &mut tracer);
        layers.untraced += t.elapsed();
        refs.push(reference(job, &mut run, &mut verdicts));
        if args.trace {
            tracer.set_enabled(true);
            meter.reset_peaks();
            let t = Instant::now();
            let span = tracer.enter("job", Some(job.id));
            let traced = exec::run(job, &caps, &mut tracer);
            tracer.exit(span);
            layers.traced += t.elapsed();
            layers.stripes_peak = layers.stripes_peak.max(meter.peak(Subsystem::Stripes));
            layers.bdd_peak = layers.bdd_peak.max(meter.peak(Subsystem::Bdd));
            layers.counts.oracle_calls += traced.counts.oracle_calls;
            layers.counts.cache_hits += traced.counts.cache_hits;
            layers.counts.batched_probes += traced.counts.batched_probes;
            layers.capacity_outs += usize::from(traced.capacity_out());
            if !reproduces(job, &refs[job.id], &traced) {
                refs[job.id].failed = true;
            }
        }
        best.entry((job.family, job.source_hash))
            .or_default()
            .record(&run);
        attempted += 1;
        busy += run.latency;
        if !args.trace && attempted % SETUP_EVERY == 0 {
            setup(args, &caps, &mut tracer, &mut setups)?;
        }
    }
    let mut failed: usize = refs.iter().filter(|r| r.failed).count();

    // Later passes: repeat whole passes until the measured job time
    // reaches --seconds. Whole passes keep the job mix, and with it the
    // percentiles, independent of where the window ends.
    let window = Duration::from_secs(args.seconds);
    while !args.trace && busy < window {
        for job in &jobs {
            let run = exec::run(job, &caps, &mut tracer);
            if refs[job.id].failed || !reproduces(job, &refs[job.id], &run) {
                failed += 1;
            }
            best.entry((job.family, job.source_hash))
                .or_default()
                .record(&run);
            attempted += 1;
            busy += run.latency;
            if attempted % SETUP_EVERY == 0 {
                setup(args, &caps, &mut tracer, &mut setups)?;
            }
        }
    }
    while setups.len() < SETUP_REPS {
        setup(args, &caps, &mut tracer, &mut setups)?;
    }

    let probe = if args.trace {
        tracer.set_enabled(true);
        probe::run(&jobs, &caps, &mut tracer)
    } else {
        probe::Probe::default()
    };

    let best: Vec<Best> = jobs
        .iter()
        .map(|j| best[&(j.family, j.source_hash)])
        .collect();
    let mut lat: Vec<f64> = best.iter().filter_map(|b| b.latency.map(ms)).collect();
    lat.sort_by(f64::total_cmp);
    let mut first: Vec<f64> = best.iter().filter_map(|b| b.first_result.map(ms)).collect();
    first.sort_by(f64::total_cmp);
    let share = |f: fn(&Reference) -> bool| refs.iter().filter(|r| f(r)).count() as f64 / n as f64;
    let pass1_hash = refs
        .iter()
        .fold(FNV_OFFSET, |h, r| fnv1a(h, &r.report_hash.to_le_bytes()));
    let pass1_calls: usize = refs.iter().map(|r| r.counts.oracle_calls).sum();
    let pass1_hits: usize = refs.iter().map(|r| r.counts.cache_hits).sum();

    // Per-family summary of the fastest runs, for sizing the job mix.
    let mut fam: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (job, b) in jobs.iter().zip(&best) {
        fam.entry(job.family).or_default().extend(b.latency.map(ms));
    }
    for (f, v) in &fam {
        eprintln!(
            "family {f:<14} jobs {:>4}  p50 {:>9.3} ms  max {:>9.3} ms  total {:>9.1} ms",
            v.len(),
            median(v),
            v.iter().copied().fold(0.0, f64::max),
            v.iter().sum::<f64>()
        );
    }

    let facts = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"jobs\":{n},\"attempted\":{attempted},\"nproc\":{},\"profile\":\"{}\",\"git_revision\":\"{}\",\"source_digest\":\"{}\",\"threads\":1}}",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_revision(),
        source_digest()
    );
    println!("facts {facts}");
    println!(
        "determinism {{\"report_digest\":\"{pass1_hash:016x}\",\"oracle_calls\":{pass1_calls},\"cache_hits\":{pass1_hits},\"full_answer_ratio\":{},\"nontrivial_ratio\":{},\"capacity_out_ratio\":{},\"probe_sat\":[{},{},{}]}}",
        share(|r| r.full),
        share(|r| r.nontrivial),
        share(|r| r.capacity_out),
        probe.decisions,
        probe.propagations,
        probe.conflicts
    );

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let st = tracer.self_times();
        let busy_ms = |name: &str| st.get(name).copied().map_or(0.0, ms);
        let approx2_ms = busy_ms("core::approx2");
        let c = layers.counts;
        let kib = |b: u64| b as f64 / 1024.0;
        metrics.extend([
            (
                "network.parse_ms",
                busy_ms("network::parse") / setups.len() as f64,
                "ms",
            ),
            ("plan.leaf_ms", busy_ms("core::plan"), "ms"),
            ("plan.leaves", probe.leaves as f64, "count"),
            ("chi.encode_ms", busy_ms("chi::encode"), "ms"),
            ("chi.memo_peak_kib", kib(probe.memo_peak), "KiB"),
            ("sat.solve_ms", busy_ms("sat::solve"), "ms"),
            ("sat.conflicts", probe.conflicts as f64, "count"),
            ("sat.propagations", probe.propagations as f64, "count"),
            ("sat.decisions", probe.decisions as f64, "count"),
            ("sat.db_peak_kib", kib(probe.db_peak), "KiB"),
            ("approx2.busy_ms", approx2_ms, "ms"),
            ("approx2.oracle_calls", c.oracle_calls as f64, "count"),
            ("approx2.cache_hits", c.cache_hits as f64, "count"),
            (
                "approx2.cache_hit_rate",
                if c.oracle_calls + c.cache_hits == 0 {
                    0.0
                } else {
                    c.cache_hits as f64 / (c.cache_hits + c.oracle_calls) as f64
                },
                "ratio",
            ),
            ("approx2.batched_probes", c.batched_probes as f64, "count"),
            (
                "approx2.calls_per_s",
                if approx2_ms > 0.0 {
                    c.oracle_calls as f64 / (approx2_ms / 1e3)
                } else {
                    0.0
                },
                "1/s",
            ),
            ("verdict_cache.peak_kib", kib(layers.stripes_peak), "KiB"),
            ("truedelay.busy_ms", busy_ms("chi::true_delay"), "ms"),
            ("exact.busy_ms", busy_ms("core::exact"), "ms"),
            ("approx1.busy_ms", busy_ms("core::approx1"), "ms"),
            ("bdd.peak_kib", kib(layers.bdd_peak), "KiB"),
            ("bdd.capacity_outs", layers.capacity_outs as f64, "count"),
            ("report.render_ms", busy_ms("core::report"), "ms"),
            (
                "trace.overhead_ratio",
                layers.traced.as_secs_f64() / layers.untraced.as_secs_f64(),
                "ratio",
            ),
        ]);
        let path = format!(".bench_trace/{}-{}.jsonl", args.workload.name(), args.seed);
        let written = std::fs::create_dir_all(".bench_trace")
            .and_then(|()| std::fs::write(&path, tracer.jsonl()));
        written.map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("spans written to {path}");
    } else {
        let best_s: f64 = lat.iter().sum::<f64>() / 1e3;
        metrics.extend([
            ("setup_s", median(&setups), "s"),
            ("jobs_per_s", n as f64 / best_s, "1/s"),
            ("latency_p50_ms", quantile(&lat, 0.5), "ms"),
            ("latency_p90_ms", quantile(&lat, 0.9), "ms"),
            ("first_result_p50_ms", quantile(&first, 0.5), "ms"),
            ("full_answer_ratio", share(|r| r.full), "ratio"),
            ("nontrivial_ratio", share(|r| r.nontrivial), "ratio"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]);
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{json}}}}}",
        failed == 0
    );
    Ok(())
}
