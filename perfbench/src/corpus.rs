//! The corpus workloads: every corpus program on a bare machine
//! ([`Bare`]), and the corpus cut into fixed guest-kernel jobs
//! ([`Hosted`]).

use crate::{closed_loop, stats, OpSample, Trace, Workload};
use mips_hll::{compile_mips, CodegenOptions};
use mips_os::{Kernel, KernelConfig, ProcStatus, RunReport};
use mips_qc::Rng;
use mips_reorg::{reorganize, ReorgOptions, ReorgOutput};
use mips_sim::{Engine, Machine};
use std::time::Instant;

/// One compiled corpus program with its reference output.
pub struct Compiled {
    pub name: &'static str,
    pub built: ReorgOutput,
    /// What the source interpreter prints: the reference outside the
    /// compiler, reorganizer and simulator under test.
    pub expected: Vec<u8>,
}

/// Compiles and reorganizes the whole corpus. Returns the front-end
/// and reorganizer milliseconds and the built programs, corpus order.
///
/// # Panics
///
/// Panics if an in-tree corpus program stops compiling.
pub fn compile_timed() -> (f64, f64, Vec<ReorgOutput>) {
    let (mut compile, mut reorg) = (0.0, 0.0);
    let built = mips_workloads::corpus()
        .iter()
        .map(|w| {
            let t0 = Instant::now();
            let lc = compile_mips(w.source, &CodegenOptions::standard()).expect("corpus compiles");
            let t1 = Instant::now();
            let out = reorganize(&lc, ReorgOptions::FULL).expect("corpus reorganizes");
            compile += stats::ms(t1 - t0);
            reorg += stats::ms(t1.elapsed());
            out
        })
        .collect();
    (compile, reorg, built)
}

/// The whole corpus, compiled, with interpreter reference outputs.
///
/// # Panics
///
/// Panics if an in-tree corpus program stops compiling or interpreting.
pub fn build() -> Vec<Compiled> {
    let (_, _, built) = compile_timed();
    mips_workloads::corpus()
        .iter()
        .zip(built)
        .map(|(w, built)| Compiled {
            name: w.name,
            built,
            expected: mips_hll::run_program(w.source)
                .expect("corpus interprets")
                .into_bytes(),
        })
        .collect()
}

/// A seeded permutation of `0..n`: the seed orders the ops of a pass
/// without changing which work a pass holds.
pub fn shuffled(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.usize(0..i + 1));
    }
    order
}

fn machine(out: &ReorgOutput, engine: Engine) -> Machine {
    let mut m = Machine::new(out.program.clone());
    m.set_refclass_map(out.refclass.clone());
    m.set_engine(engine);
    m
}

/// One reference-interpreter pass over built programs: total simulated
/// instructions and host milliseconds.
///
/// # Panics
///
/// Panics if a corpus program fails to run.
pub fn reference_pass(programs: &[ReorgOutput]) -> (u64, f64) {
    let (mut instructions, mut ms) = (0, 0.0);
    for out in programs {
        let mut m = machine(out, Engine::Reference);
        let t = Instant::now();
        m.run().expect("corpus runs");
        ms += stats::ms(t.elapsed());
        instructions += m.profile().instructions;
    }
    (instructions, ms)
}

/// `corpus-bare`: each op runs one of the corpus programs to halt on a
/// fresh bare machine with [`Engine::Fast`]; a pass runs every program
/// once, in seeded order.
pub struct Bare {
    programs: Vec<Compiled>,
    order: Vec<usize>,
}

impl Workload for Bare {
    fn setup(seed: u64) -> Bare {
        let programs = build();
        let order = shuffled(seed, programs.len());
        Bare { programs, order }
    }

    fn pass(&mut self) -> Vec<OpSample> {
        closed_loop(self.order.len(), |i| {
            let p = &self.programs[self.order[i]];
            let mut m = machine(&p.built, Engine::Fast);
            m.run().is_ok() && m.output() == p.expected
        })
    }

    fn traced_pass(&mut self, trace: &mut Trace) -> Vec<OpSample> {
        let (mut predecode, mut exec) = (0.0, 0.0);
        let samples = closed_loop(self.order.len(), |i| {
            let p = &self.programs[self.order[i]];
            let mut m = machine(&p.built, Engine::Fast);
            // The first step predecodes and certifies the program.
            let t0 = Instant::now();
            let first = m.run_steps(1);
            let t1 = Instant::now();
            let rest = m.run();
            predecode += stats::ms(t1 - t0);
            exec += stats::ms(t1.elapsed());
            trace.count("sim.instructions", m.profile().instructions);
            trace.count("sim.cert_elided", m.cert_elided());
            first.is_ok() && rest.is_ok() && m.output() == p.expected
        });
        let instructions = trace.get("sim.instructions") as f64;
        trace.metric("sim.predecode_ms", predecode);
        trace.metric("sim.exec_ms", exec);
        trace.metric("sim.fast_mips", instructions / exec / 1e3);
        trace.metric(
            "sim.cert_elided_frac",
            trace.get("sim.cert_elided") as f64 / instructions,
        );
        samples
    }
}

/// The corpus cut into fixed kernel jobs. The two puzzles, the longest
/// programs, sit in different jobs so no op outweighs the rest.
pub const JOBS: [&[&str]; 5] = [
    &["puzzle0", "scanner", "wordcount"],
    &["puzzle1", "strings", "formatter"],
    &["fib", "dispatch", "validate"],
    &["sort", "queens", "matmul"],
    &["hanoi", "sieve"],
];

/// `corpus-kernel`: each op is one guest-kernel job on [`Engine::Fast`]
/// multiprogramming one entry of [`JOBS`] under demand paging; a pass
/// runs every job once, in seeded order.
pub struct Hosted {
    jobs: Vec<Vec<Compiled>>,
    order: Vec<usize>,
}

impl Hosted {
    fn kernel(&self, job: usize) -> Kernel {
        let mut k = Kernel::with_config(KernelConfig {
            engine: Engine::Fast,
            ..KernelConfig::default()
        });
        for p in &self.jobs[job] {
            k.spawn(p.name, p.built.program.clone())
                .expect("a job fits the process table");
        }
        k
    }

    /// Every process exited with exactly its reference output.
    fn check(&self, job: usize, r: &RunReport) -> bool {
        r.panic.is_none()
            && r.procs.len() == self.jobs[job].len()
            && r.procs.iter().zip(&self.jobs[job]).all(|(proc_, p)| {
                matches!(proc_.status, ProcStatus::Exited(_)) && proc_.output == p.expected
            })
    }
}

impl Workload for Hosted {
    fn setup(seed: u64) -> Hosted {
        let mut all: Vec<Option<Compiled>> = build().into_iter().map(Some).collect();
        let mut take = |name: &str| {
            let i = mips_workloads::corpus()
                .iter()
                .position(|w| w.name == name)
                .expect("job names a corpus program");
            all[i].take().expect("each program sits in one job")
        };
        let jobs: Vec<Vec<Compiled>> = JOBS
            .iter()
            .map(|names| names.iter().map(|n| take(n)).collect())
            .collect();
        let order = shuffled(seed, jobs.len());
        Hosted { jobs, order }
    }

    fn pass(&mut self) -> Vec<OpSample> {
        closed_loop(self.order.len(), |i| {
            let job = self.order[i];
            match self.kernel(job).run_until_idle() {
                Ok(r) => self.check(job, &r),
                Err(_) => false,
            }
        })
    }

    fn traced_pass(&mut self, trace: &mut Trace) -> Vec<OpSample> {
        let (mut boot, mut run_ms, mut elided) = (0.0, 0.0, 0u64);
        let samples = closed_loop(self.order.len(), |i| {
            let job = self.order[i];
            let k = self.kernel(job);
            let t0 = Instant::now();
            let Ok(mut run) = k.start() else {
                return false;
            };
            let t1 = Instant::now();
            let finished = loop {
                match run.run_slice(u64::MAX, None) {
                    Ok(true) => break true,
                    Ok(false) => {}
                    Err(_) => break false,
                }
            };
            boot += stats::ms(t1 - t0);
            run_ms += stats::ms(t1.elapsed());
            let r = run.report();
            elided += run.machine().cert_elided();
            record_kernel(trace, &r);
            finished && self.check(job, &r)
        });
        let instructions = trace.get("os.instructions") as f64;
        let kernel = trace.get("os.cost.kernel_total") as f64;
        trace.metric("os.boot_ms", boot / self.order.len() as f64);
        trace.metric("os.run_ms", run_ms);
        trace.metric("os.hosted_mips", instructions / run_ms / 1e3);
        trace.metric(
            "os.kernel_instr_frac",
            kernel / (kernel + trace.get("os.cost.user") as f64),
        );
        trace.metric("os.cert_elided_frac", elided as f64 / instructions);
        trace.count("os.cert_elided", elided);
        samples
    }
}

/// Adds a kernel run's deterministic counts: instructions, every
/// kernel [`mips_os::Counters`] field and every `SystemsCost` bucket.
fn record_kernel(trace: &mut Trace, r: &RunReport) {
    let c = r.counters;
    let cost = r.cost;
    trace.count("os.instructions", r.instructions);
    trace.count("os.page_faults", c.faults);
    trace.count("os.switches", c.switches);
    trace.count("os.syscalls", c.syscalls);
    trace.count("os.counters.ticks", c.ticks);
    trace.count("os.counters.soft_faults", c.soft_faults);
    trace.count("os.counters.evictions", c.evictions);
    trace.count("os.counters.net_irqs", c.net_irqs);
    trace.count("os.counters.sends", c.sends);
    trace.count("os.counters.recvs", c.recvs);
    trace.count("os.cost.user", cost.user);
    trace.count("os.cost.save_restore", cost.save_restore);
    trace.count("os.cost.dispatch", cost.dispatch);
    trace.count("os.cost.syscall", cost.syscall);
    trace.count("os.cost.tick", cost.tick);
    trace.count("os.cost.sched", cost.sched);
    trace.count("os.cost.paging", cost.paging);
    trace.count("os.cost.recovery", cost.recovery);
    trace.count("os.cost.kernel_total", cost.kernel_total());
}
