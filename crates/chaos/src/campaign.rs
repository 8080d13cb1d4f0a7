//! The chaos campaign: run real workloads under the guest kernel,
//! break the hardware underneath them, and grade the blast radius.
//!
//! Each case draws (from the campaign seed alone) a workload set, a
//! victim, and a [`FaultPlan`]; runs the set once clean to get a
//! **baseline**; then replays it with the [`Injector`] attached and
//! classifies the divergence ([`Outcome`]). Baselines are computed once
//! per workload set, and every random draw is pinned to the seed, so the
//! whole campaign — including the JSON artifact — is replayable
//! byte-for-byte. The fleet driver in [`crate::parallel`] schedules
//! these pieces; [`run_campaign`] runs it on one worker.

use crate::fault::FaultPlan;
use crate::inject::Injector;
use crate::report::{CaseResult, ChaosReport, FaultRecord, Outcome};
use mips_core::Program;
use mips_hll::{compile_mips, CodegenOptions};
use mips_os::{
    Engine, Kernel, KernelConfig, OsError, ProcStatus, RestartPolicy, RunReport, SupervisorConfig,
};
use mips_qc::Rng;
use mips_reorg::{reorganize, ReorgOptions};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Number of cases.
    pub cases: u64,
    /// Maximum faults per case.
    pub max_faults: usize,
    /// Execution engine for the clean **baseline** runs. Injected runs
    /// always attach the fault-injection hook, which forces the
    /// per-step reference path regardless of this knob. The knob is a
    /// host-side tunable, not part of the campaign identity, so it is
    /// *not* serialized into the [`ChaosReport`] — and the report must
    /// be byte-identical either way (covered by tests).
    pub engine: Engine,
    /// Run injected cases under checkpoint/restart supervision
    /// ([`SUPERVISOR`]): detected kills roll the victim back and
    /// replay, and a case whose outputs still match baseline grades
    /// [`Outcome::Recovered`] instead of staying a kill. Part of the
    /// campaign identity, so it *is* serialized into the report.
    /// Baselines always run unsupervised (they are fault-free, so
    /// supervision would change nothing but the cache key).
    pub recover: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 0xA5,
            cases: 200,
            max_faults: 3,
            engine: Engine::Reference,
            recover: false,
        }
    }
}

/// Timer period for campaign runs: short enough that 2–3 small
/// workloads are preempted many times per run.
const TIME_SLICE: u64 = 2_000;
/// Frame budget: small enough that the paging machinery (the page-map
/// corruption target) stays busy.
const FRAMES: u32 = 32;
/// Step limit for baseline runs (honest workloads finish way under).
const BASE_STEP_LIMIT: u64 = 50_000_000;
/// Supervision knobs for recovery campaigns: checkpoints frequent
/// enough that most of a victim's progress survives a kill, a short
/// backoff (faults are instruction-count-triggered, not recurring),
/// and the default restart/rollback budgets.
pub const SUPERVISOR: SupervisorConfig = SupervisorConfig {
    checkpoint_every: 50_000,
    policy: RestartPolicy {
        max_restarts: 3,
        backoff: 2_000,
        max_panic_rollbacks: 2,
    },
};

/// A named, pre-built program for the campaign pool.
pub struct PoolEntry {
    pub name: &'static str,
    pub program: Program,
}

/// Prints the alphabet one `putchar` at a time, then exits 0.
const ALPHA_S: &str = "\
    mvi #65,r2
    mvi #91,r3
loop:
    mov r2,r1
    trap #1
    add r2,#1,r2
    blt r2,r3,loop
    nop
    mvi #0,r1
    trap #0
    halt
";

/// Prints 0..9 through `putint`, then exits 0.
const DIGITS_S: &str = "\
    mvi #0,r2
    mvi #10,r3
loop:
    mov r2,r1
    trap #2
    add r2,#1,r2
    blt r2,r3,loop
    nop
    mvi #0,r1
    trap #0
    halt
";

/// Walks six pages writing a counter, reads them back, prints the sum
/// (15) — a demand-paging workout whose output notices lost mappings.
const TOUCHER_S: &str = "\
    mvi #0,r2
    lim #16384,r3
    mvi #6,r5
wl:
    st r2,0(r3)
    lim #4096,r4
    add r3,r4,r3
    add r2,#1,r2
    blt r2,r5,wl
    nop
    mvi #0,r2
    lim #16384,r3
    mvi #0,r6
rl:
    ld 0(r3),r7
    lim #4096,r4
    add r3,r4,r3
    add r6,r7,r6
    add r2,#1,r2
    blt r2,r5,rl
    nop
    mov r6,r1
    trap #2
    mvi #0,r1
    trap #0
    halt
";

/// Corpus workloads small enough for a 200-case campaign (the puzzle
/// and queens programs run tens of millions of instructions each).
const CORPUS_POOL: [&str; 7] = [
    "fib",
    "strings",
    "wordcount",
    "formatter",
    "dispatch",
    "validate",
    "sort",
];

/// Builds the standard campaign pool: three hand-written assembly
/// victims plus the small half of the compiled corpus.
///
/// # Panics
///
/// Panics if the in-tree workloads stop compiling — a build-time
/// invariant, not a runtime condition.
pub fn standard_pool() -> Vec<PoolEntry> {
    let mut pool = vec![
        PoolEntry {
            name: "alpha",
            program: mips_asm::assemble(ALPHA_S).expect("alpha assembles"),
        },
        PoolEntry {
            name: "digits",
            program: mips_asm::assemble(DIGITS_S).expect("digits assembles"),
        },
        PoolEntry {
            name: "toucher",
            program: mips_asm::assemble(TOUCHER_S).expect("toucher assembles"),
        },
    ];
    for name in CORPUS_POOL {
        let w = mips_workloads::get(name).expect("corpus workload exists");
        let lc = compile_mips(w.source, &CodegenOptions::standard()).expect("corpus compiles");
        let out = reorganize(&lc, ReorgOptions::FULL).expect("corpus reorganizes");
        pool.push(PoolEntry {
            name,
            program: out.program,
        });
    }
    pool
}

/// A clean-run reference: total instructions and per-pid outcomes.
#[derive(Debug, Clone)]
pub(crate) struct Baseline {
    instructions: u64,
    procs: Vec<(ProcStatus, Vec<u8>)>,
}

/// The seed-derived identity of one case: its workload set and the
/// mid-state rng (advanced past the workload draw, about to generate
/// the fault plan). Splitting the draw from the run is what lets the
/// fleet executor run cases in any order while every random decision
/// stays pinned to `(seed, case)`.
#[derive(Debug, Clone)]
pub(crate) struct CasePlan {
    pub(crate) case: u64,
    pub(crate) chosen: Vec<usize>,
    rng: Rng,
}

/// Draws case `case`'s workload set (order fixes pid assignment),
/// leaving the rng where `FaultPlan::generate` expects it.
pub(crate) fn plan_case(cfg: &CampaignConfig, case: u64, pool_len: usize) -> CasePlan {
    let mut rng = case_rng(cfg.seed, case);
    let count = rng.usize(2..4);
    let mut avail: Vec<usize> = (0..pool_len).collect();
    let mut chosen = Vec::with_capacity(count);
    for _ in 0..count {
        chosen.push(avail.remove(rng.usize(0..avail.len())));
    }
    CasePlan { case, chosen, rng }
}

/// Runs a workload set clean and records the reference outcome.
pub(crate) fn compute_baseline(pool: &[PoolEntry], chosen: &[usize], engine: Engine) -> Baseline {
    let r = run_set(pool, chosen, None, BASE_STEP_LIMIT, engine, None, NO_HOOK)
        .expect("baseline run of honest workloads succeeds");
    assert!(r.panic.is_none(), "baseline run must not panic");
    Baseline {
        instructions: r.instructions,
        procs: r
            .procs
            .iter()
            .map(|p| (p.status, p.output.clone()))
            .collect(),
    }
}

fn run_set<F>(
    pool: &[PoolEntry],
    chosen: &[usize],
    watchdog: Option<u64>,
    step_limit: u64,
    engine: Engine,
    supervisor: Option<SupervisorConfig>,
    hook: Option<F>,
) -> Result<RunReport, OsError>
where
    F: FnMut(&mut mips_sim::Machine),
{
    let mut k = Kernel::with_config(KernelConfig {
        time_slice: TIME_SLICE,
        frames: FRAMES,
        step_limit,
        watchdog,
        engine,
        supervisor,
        nic: None,
    });
    for &i in chosen {
        k.spawn(pool[i].name, pool[i].program.clone())?;
    }
    match hook {
        Some(h) => k.run_with_hook(h),
        None => k.run_until_idle(),
    }
}

/// `None` hook with a concrete type, for clean runs.
const NO_HOOK: Option<fn(&mut mips_sim::Machine)> = None;

/// Per-case rng: decorrelated from the campaign seed by case index.
fn case_rng(seed: u64, case: u64) -> Rng {
    Rng::new(seed ^ case.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs a full campaign on one fleet worker: the driver of
/// [`crate::parallel::run_campaign_threaded`], whose report is
/// byte-identical at every worker count.
pub fn run_campaign(cfg: &CampaignConfig) -> ChaosReport {
    crate::parallel::run_campaign_threaded(cfg, 1)
}

/// Runs one planned case against its precomputed baseline — the
/// self-contained unit the fleet executor schedules.
pub(crate) fn run_planned_case(
    cfg: &CampaignConfig,
    plan_state: CasePlan,
    pool: &[PoolEntry],
    klen: u32,
    base: &Baseline,
) -> CaseResult {
    let CasePlan {
        case,
        chosen,
        mut rng,
    } = plan_state;
    let count = chosen.len();
    let workloads: Vec<&'static str> = chosen.iter().map(|&i| pool[i].name).collect();

    let plan = FaultPlan::generate(&mut rng, count as u32, base.instructions, cfg.max_faults);
    let victim = plan.victim;
    let faults: Vec<FaultRecord> = plan
        .faults
        .iter()
        .map(|f| FaultRecord {
            kind: f.kind.id(),
            desc: format!("@{} {}", f.at, f.kind),
        })
        .collect();

    // Budgets scale off the baseline: generous enough that fault-free
    // slowdowns (extra page faults, lost ticks) never trip them,
    // tight enough that a wedged victim is caught quickly. Recovery
    // runs get more headroom — a restarted victim replays work.
    let watchdog = base.instructions * 2 + 200_000;
    let step_limit = if cfg.recover {
        base.instructions * 10 + 4_000_000
    } else {
        base.instructions * 6 + 2_000_000
    };
    let supervisor = cfg.recover.then_some(SUPERVISOR);

    let mut injector = Injector::new(plan, klen);
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_set(
            pool,
            &chosen,
            Some(watchdog),
            step_limit,
            cfg.engine,
            supervisor,
            Some(|m: &mut mips_sim::Machine| injector.hook(m)),
        )
    }));
    let injected: Vec<String> = injector
        .log()
        .iter()
        .map(|(at, desc)| format!("@{at} {desc}"))
        .collect();

    let (outcome, note, kernel_panic, watchdog_fired, restarts) = classify(&run, base, victim);
    CaseResult {
        case,
        workloads,
        victim,
        faults,
        injected,
        outcome,
        note,
        kernel_panic,
        watchdog_fired,
        restarts,
        max_term: None,
    }
}

type RunOutcome = Result<Result<RunReport, OsError>, Box<dyn std::any::Any + Send>>;

fn classify(run: &RunOutcome, base: &Baseline, victim: u32) -> (Outcome, String, bool, bool, u64) {
    let report = match run {
        Err(_) => {
            return (
                Outcome::Escaped,
                "host panic crossed the simulation boundary".into(),
                false,
                false,
                0,
            )
        }
        Ok(Err(e)) => {
            return (
                Outcome::Escaped,
                format!("untyped simulator stop: {e}"),
                false,
                false,
                0,
            )
        }
        Ok(Ok(r)) => r,
    };
    let watchdog_fired = !report.watchdog_kills.is_empty();
    let restarts = report.recoveries.len() as u64;
    if let Some(p) = &report.panic {
        return (
            Outcome::Detected,
            format!(
                "controlled kernel panic: {:?} (detail {:#x}) at pc {}",
                p.cause, p.detail, p.pc
            ),
            true,
            watchdog_fired,
            restarts,
        );
    }
    let diffs: Vec<u32> = report
        .procs
        .iter()
        .zip(&base.procs)
        .filter(|(p, (bs, bo))| p.status != *bs || p.output != *bo)
        .map(|(p, _)| p.pid)
        .collect();
    if diffs.is_empty() {
        if restarts > 0 {
            // The kernel *detected* the fault (kill or panic) and the
            // supervisor rolled it back; baseline-identical output is
            // recovery, not masking.
            return (
                Outcome::Recovered,
                format!(
                    "detected and rolled back ({restarts} recovery events); \
                     all outputs byte-identical to baseline"
                ),
                false,
                watchdog_fired,
                restarts,
            );
        }
        return (
            Outcome::Masked,
            "all outputs byte-identical to baseline".into(),
            false,
            watchdog_fired,
            restarts,
        );
    }
    if diffs == [victim] {
        let v = &report.procs[victim as usize - 1];
        let killed = matches!(v.status, ProcStatus::Killed(_));
        if killed || report.watchdog_kills.contains(&victim) {
            let quarantined = report.quarantined.contains(&victim);
            return (
                Outcome::Detected,
                if quarantined {
                    format!(
                        "victim killed ({:?}) and quarantined after {} restarts; \
                         siblings byte-identical",
                        v.status,
                        restarts.saturating_sub(1)
                    )
                } else {
                    format!("victim killed ({:?}); siblings byte-identical", v.status)
                },
                false,
                watchdog_fired,
                restarts,
            );
        }
        return (
            Outcome::Isolated,
            format!(
                "victim diverged silently ({:?}); siblings byte-identical",
                v.status
            ),
            false,
            watchdog_fired,
            restarts,
        );
    }
    (
        Outcome::Escaped,
        format!("divergence beyond the victim: pids {diffs:?} (victim {victim})"),
        false,
        watchdog_fired,
        restarts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_builds_and_synthetics_behave() {
        let pool = standard_pool();
        assert!(pool.len() >= 10);
        // The synthetic victims produce their expected output clean.
        let idx: Vec<usize> = (0..3).collect();
        let r = run_set(
            &pool,
            &idx,
            None,
            BASE_STEP_LIMIT,
            Engine::Reference,
            None,
            NO_HOOK,
        )
        .unwrap();
        assert_eq!(r.procs[0].output, b"ABCDEFGHIJKLMNOPQRSTUVWXYZ");
        assert_eq!(r.procs[1].output, b"0123456789");
        assert_eq!(r.procs[2].output, b"15");
        for p in &r.procs {
            assert_eq!(p.status, ProcStatus::Exited(0));
        }
    }

    #[test]
    fn a_tiny_campaign_is_deterministic() {
        let cfg = CampaignConfig {
            seed: 7,
            cases: 4,
            max_faults: 2,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.to_json(), b.to_json());
    }
}
