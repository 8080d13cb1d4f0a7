//! # perfbench — end-to-end and per-layer benchmark
//!
//! Four seeded workloads, each a list of ops replayed in whole passes
//! for a fixed wall-clock budget:
//!
//! * `corpus-bare` ([`corpus::Bare`]): each op runs one corpus program
//!   on a fresh bare machine with the fast engine;
//! * `corpus-kernel` ([`corpus::Hosted`]): each op is one guest-kernel
//!   job hosting a fixed slice of the corpus;
//! * `serve-open-loop` ([`serve::OpenLoop`]): the standard serving mix
//!   submitted to a two-worker fleet on a fixed schedule;
//! * `failover-kill` ([`failover::Kills`]): each op boots the failover
//!   cluster and kills its leader mid-run.
//!
//! Every op's output is checked against a reference computed outside
//! the code under test. An untraced run reports the end-to-end metrics
//! ([`END_TO_END`]); a traced run reports the layer ledger
//! ([`PER_LAYER`]), timed from outside by wrapping calls into each
//! crate's public functions. `README.md` beside this crate maps every
//! layer metric to the end-to-end metric and workload it should move.

pub mod corpus;
pub mod failover;
pub mod heap;
pub mod serve;
pub mod stats;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Set-up repetitions in an untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// End-to-end metrics of an untraced run, in print order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_heap_mb", "MB"),
];

/// Layer metrics of a traced run, in print order. `count` metrics are
/// deterministic: identical on every pass, run and host.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("trace.ops_per_s", "1/s"),
    ("hll.compile_ms", "ms"),
    ("reorg.reorganize_ms", "ms"),
    ("reorg.static_instrs", "count"),
    ("asm.kernel_ms", "ms"),
    ("verify.certify_ms", "ms"),
    ("sim.predecode_ms", "ms"),
    ("sim.exec_ms", "ms"),
    ("sim.fast_mips", "MIPS"),
    ("sim.ref_mips", "MIPS"),
    ("sim.instructions", "count"),
    ("sim.cert_elided", "count"),
    ("sim.cert_elided_frac", "ratio"),
    ("os.boot_ms", "ms"),
    ("os.run_ms", "ms"),
    ("os.hosted_mips", "MIPS"),
    ("os.instructions", "count"),
    ("os.kernel_instr_frac", "ratio"),
    ("os.cert_elided_frac", "ratio"),
    ("os.page_faults", "count"),
    ("os.switches", "count"),
    ("os.syscalls", "count"),
    ("net.boot_ms", "ms"),
    ("net.round_us", "us"),
    ("net.ckpt_round_us", "us"),
    ("net.kill_restore_us", "us"),
    ("net.rounds", "count"),
    ("net.frames_sent", "count"),
    ("fleet.queue_wait_ms", "ms"),
    ("fleet.service_bare_fast_ms", "ms"),
    ("fleet.service_bare_ref_ms", "ms"),
    ("fleet.service_kernel_ms", "ms"),
    ("serve.feeder_late_ms", "ms"),
    ("serve.op_p99_ms", "ms"),
];

/// One op's outcome: host latency, and whether its output matched the
/// reference. A failed op counts as infinitely slow, so it misses
/// every latency limit.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub ms: f64,
    pub ok: bool,
}

impl OpSample {
    fn latency(&self) -> f64 {
        if self.ok {
            self.ms
        } else {
            f64::INFINITY
        }
    }
}

/// What one traced pass records: host-time layer metrics and the
/// pass's deterministic counts.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    metrics: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// Records a host-time metric for this pass.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds `n` to a deterministic count.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// A count recorded so far (0 if never recorded).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// A seeded workload: set-up builds the op list and its reference
/// outputs; a pass replays the whole list once.
pub trait Workload: Sized {
    /// Builds the inputs and reference outputs for `seed`.
    fn setup(seed: u64) -> Self;
    /// Runs one whole pass, timing each op.
    fn pass(&mut self) -> Vec<OpSample>;
    /// Runs one whole pass with layer spans and counts recorded.
    fn traced_pass(&mut self, trace: &mut Trace) -> Vec<OpSample>;
}

/// Times each of `n` closed-loop ops; `op(i)` reports correctness.
pub fn closed_loop(n: usize, mut op: impl FnMut(usize) -> bool) -> Vec<OpSample> {
    (0..n)
        .map(|i| {
            let t = Instant::now();
            let ok = op(i);
            OpSample {
                ms: stats::ms(t.elapsed()),
                ok,
            }
        })
        .collect()
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CorpusBare,
    CorpusKernel,
    ServeOpenLoop,
    FailoverKill,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::CorpusBare,
        Kind::CorpusKernel,
        Kind::ServeOpenLoop,
        Kind::FailoverKill,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CorpusBare => "corpus-bare",
            Kind::CorpusKernel => "corpus-kernel",
            Kind::ServeOpenLoop => "serve-open-loop",
            Kind::FailoverKill => "failover-kill",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Kind,
    pub seed: u64,
    /// Measurement budget; the run always finishes the pass it is in.
    pub seconds: f64,
    pub trace: bool,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Deterministic counts of a traced run, every workload merged.
    pub counts: BTreeMap<&'static str, u64>,
    /// Whole passes the measured workload ran.
    pub passes: usize,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric a `{value, unit}` object.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            // A failed op reads as infinitely slow; JSON has no
            // infinity, so it prints as the largest finite number.
            let v = if value.is_finite() { *value } else { f64::MAX };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Runs one benchmark invocation.
pub fn run(cfg: &Config) -> Outcome {
    let (mut out, trace) = match cfg.workload {
        Kind::CorpusBare => measure::<corpus::Bare>(cfg),
        Kind::CorpusKernel => measure::<corpus::Hosted>(cfg),
        Kind::ServeOpenLoop => measure::<serve::OpenLoop>(cfg),
        Kind::FailoverKill => measure::<failover::Kills>(cfg),
    };
    if cfg.trace {
        ledger(cfg, &mut out, trace);
    }
    out
}

/// Setup, then whole passes until the budget is spent. An untraced
/// run returns its end-to-end metrics; a traced run returns its
/// passes' merged [`Trace`] instead.
fn measure<W: Workload>(cfg: &Config) -> (Outcome, Trace) {
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        let t = Instant::now();
        built = Some(W::setup(cfg.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = built.expect("at least one set-up");

    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let mut passes: Vec<Vec<OpSample>> = Vec::new();
    let mut traces: Vec<Trace> = Vec::new();
    heap::reset_peak();
    let start = Instant::now();
    loop {
        if cfg.trace {
            let mut t = Trace::default();
            passes.push(w.traced_pass(&mut t));
            traces.push(t);
        } else {
            passes.push(w.pass());
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let peak_mb = heap::peak_bytes() as f64 / 1e6;

    let attempted: u64 = passes.iter().map(|p| p.len() as u64).sum();
    let failed = passes.iter().flatten().filter(|s| !s.ok).count() as u64;
    let ops_per_s = attempted as f64 / elapsed;
    let mut out = Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: Vec::new(),
        counts: BTreeMap::new(),
        passes: passes.len(),
    };
    let mut merged = merge_passes(&traces);
    if cfg.trace {
        // Every pass replays the same ops, so its counts must repeat.
        out.correct &= traces.windows(2).all(|t| t[0].counts == t[1].counts);
        merged.metric("trace.ops_per_s", ops_per_s);
    } else {
        let latencies: Vec<Vec<f64>> = passes
            .iter()
            .map(|p| p.iter().map(OpSample::latency).collect())
            .collect();
        let per_op = stats::per_op_medians(&latencies);
        let values = [
            stats::median(&setup_s),
            ops_per_s,
            stats::percentile(&per_op, 0.5),
            stats::percentile(&per_op, 0.9),
            peak_mb,
        ];
        out.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect();
    }
    (out, merged)
}

/// Medians of every host-time metric across passes; the first pass's
/// counts (equal on every pass of a correct run).
fn merge_passes(traces: &[Trace]) -> Trace {
    let mut merged = Trace {
        metrics: BTreeMap::new(),
        counts: traces.first().map(|t| t.counts.clone()).unwrap_or_default(),
    };
    let names: BTreeSet<&'static str> = traces
        .iter()
        .flat_map(|t| t.metrics.keys().copied())
        .collect();
    for name in names {
        let values: Vec<f64> = traces
            .iter()
            .filter_map(|t| t.metrics.get(name))
            .copied()
            .collect();
        merged.metrics.insert(name, stats::median(&values));
    }
    merged
}

/// Completes a traced run's ledger: the census of the compile-side
/// layers, then one traced pass of every other workload so each layer
/// is measured on the workload whose ops exercise it.
fn ledger(cfg: &Config, out: &mut Outcome, mut merged: Trace) {
    census(&mut merged);
    for kind in Kind::ALL.into_iter().filter(|&k| k != cfg.workload) {
        let (samples, trace) = match kind {
            Kind::CorpusBare => owner_pass::<corpus::Bare>(cfg.seed),
            Kind::CorpusKernel => owner_pass::<corpus::Hosted>(cfg.seed),
            Kind::ServeOpenLoop => owner_pass::<serve::OpenLoop>(cfg.seed),
            Kind::FailoverKill => owner_pass::<failover::Kills>(cfg.seed),
        };
        out.attempted += samples.len() as u64;
        out.failed += samples.iter().filter(|s| !s.ok).count() as u64;
        merged.metrics.extend(trace.metrics);
        merged.counts.extend(trace.counts);
    }
    out.correct &= out.failed == 0;
    out.correct &= PER_LAYER
        .iter()
        .all(|(name, _)| merged.metrics.contains_key(name) || merged.counts.contains_key(name));
    out.counts = merged.counts.clone();
    out.metrics = ledger_metrics(&merged);
}

fn owner_pass<W: Workload>(seed: u64) -> (Vec<OpSample>, Trace) {
    let mut w = W::setup(seed);
    let mut trace = Trace::default();
    let samples = w.traced_pass(&mut trace);
    (samples, trace)
}

/// The layer ledger in [`PER_LAYER`] order (missing entries read 0).
fn ledger_metrics(t: &Trace) -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = if unit == "count" {
                t.get(name) as f64
            } else {
                t.metrics.get(name).copied().unwrap_or(0.0)
            };
            (name, unit, v)
        })
        .collect()
}

/// Census repetitions for the compile-side layers; the median is kept.
const CENSUS_REPS: usize = 5;

/// The compile-side layers, timed on the whole corpus on every traced
/// run: front end, reorganizer, certifier, kernel assembly, and one
/// reference-interpreter pass for the engine ratio.
fn census(t: &mut Trace) {
    let mut compile = Vec::new();
    let mut reorg = Vec::new();
    let mut certify = Vec::new();
    let mut programs = Vec::new();
    for _ in 0..CENSUS_REPS {
        let (c, r, built) = corpus::compile_timed();
        compile.push(c);
        reorg.push(r);
        let t0 = Instant::now();
        for out in &built {
            std::hint::black_box(mips_verify::certify(&out.program));
        }
        certify.push(stats::ms(t0.elapsed()));
        programs = built;
    }
    t.metric("hll.compile_ms", stats::median(&compile));
    t.metric("reorg.reorganize_ms", stats::median(&reorg));
    t.metric("verify.certify_ms", stats::median(&certify));
    t.count(
        "reorg.static_instrs",
        programs.iter().map(|o| o.program.len() as u64).sum(),
    );
    let kernel: Vec<f64> = (0..CENSUS_REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(mips_os::kernel_program());
            stats::ms(t0.elapsed())
        })
        .collect();
    t.metric("asm.kernel_ms", stats::median(&kernel));
    let (instructions, ms) = corpus::reference_pass(&programs);
    t.metric("sim.ref_mips", instructions as f64 / ms / 1e3);
}
