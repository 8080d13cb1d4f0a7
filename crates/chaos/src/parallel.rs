//! Chaos campaigns on the fleet executor.
//!
//! A campaign is embarrassingly parallel per case — every case owns
//! its workload draw, fault plan, and kernel run — so it maps directly
//! onto [`mips_fleet`]'s work-stealing pool: each case becomes a
//! [`FleetWork`] job, results come back keyed by case id, and the
//! assembled [`ChaosReport`] is **byte-identical at every worker
//! count** (`run_ordered` places results by submission id, and every
//! value is a pure function of the seed). This is the campaign's only
//! driver; [`crate::run_campaign`] runs it on one worker.
//!
//! Two fleet phases:
//!
//! 1. **Baselines** — the distinct workload sets, in first-appearance
//!    order, each run clean once (the values are pure functions of
//!    `(set, engine)`).
//! 2. **Cases** — every case with its baseline attached, fanned out
//!    across the workers. The per-case `catch_unwind` inside
//!    `run_planned_case` still converts a host panic into
//!    [`Outcome::Escaped`](crate::Outcome::Escaped), so a poisoned
//!    case grades itself instead of killing a worker.

use crate::campaign::{
    compute_baseline, plan_case, run_planned_case, standard_pool, Baseline, CampaignConfig,
    CasePlan, PoolEntry,
};
use crate::report::{CaseResult, ChaosReport};
use mips_fleet::{run_ordered, FleetWork};
use mips_os::kernel_program;
use mips_sim::Engine;
use std::collections::HashMap;
use std::sync::Arc;

/// Phase-1 job: one distinct workload set run clean.
struct BaselineWork {
    pool: Arc<Vec<PoolEntry>>,
    chosen: Vec<usize>,
    engine: Engine,
}

impl FleetWork for BaselineWork {
    type Out = Baseline;
    fn execute(self) -> Baseline {
        compute_baseline(&self.pool, &self.chosen, self.engine)
    }
}

/// Phase-2 job: one planned case with its baseline attached.
struct CaseWork {
    cfg: CampaignConfig,
    plan: CasePlan,
    pool: Arc<Vec<PoolEntry>>,
    klen: u32,
    base: Baseline,
}

impl FleetWork for CaseWork {
    type Out = CaseResult;
    fn execute(self) -> CaseResult {
        run_planned_case(&self.cfg, self.plan, &self.pool, self.klen, &self.base)
    }
}

/// Runs a campaign with its cases fanned out over `threads` fleet
/// workers (0 = the host's available parallelism). The report —
/// including its JSON serialization — is byte-identical at every
/// thread count.
pub fn run_campaign_threaded(cfg: &CampaignConfig, threads: usize) -> ChaosReport {
    let pool = Arc::new(standard_pool());
    let klen = kernel_program().len() as u32;

    // Every case's seed-derived identity, then the distinct workload
    // sets in first-appearance order.
    let plans: Vec<CasePlan> = (0..cfg.cases)
        .map(|i| plan_case(cfg, i, pool.len()))
        .collect();
    let mut sets: Vec<Vec<usize>> = Vec::new();
    for p in &plans {
        if !sets.contains(&p.chosen) {
            sets.push(p.chosen.clone());
        }
    }

    // Phase 1: baselines on the fleet.
    let baseline_jobs: Vec<BaselineWork> = sets
        .iter()
        .map(|chosen| BaselineWork {
            pool: Arc::clone(&pool),
            chosen: chosen.clone(),
            engine: cfg.engine,
        })
        .collect();
    let baselines: HashMap<Vec<usize>, Baseline> = sets
        .iter()
        .cloned()
        .zip(run_ordered(baseline_jobs, threads))
        .collect();

    // Phase 2: cases on the fleet, reassembled in case order.
    let case_jobs: Vec<CaseWork> = plans
        .into_iter()
        .map(|plan| CaseWork {
            cfg: *cfg,
            base: baselines[&plan.chosen].clone(),
            plan,
            pool: Arc::clone(&pool),
            klen,
        })
        .collect();
    let cases = run_ordered(case_jobs, threads);

    ChaosReport {
        seed: cfg.seed,
        max_faults: cfg.max_faults,
        recover: cfg.recover,
        net: None,
        cases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaigns_match_the_one_worker_report_byte_for_byte() {
        let cfg = CampaignConfig {
            seed: 0x51,
            cases: 6,
            max_faults: 2,
            ..CampaignConfig::default()
        };
        let one = run_campaign_threaded(&cfg, 1).to_json();
        for threads in [2, 4] {
            let fleet = run_campaign_threaded(&cfg, threads).to_json();
            assert_eq!(fleet, one, "{threads} workers diverged");
        }
    }

    #[test]
    fn recovery_campaigns_ride_the_fleet_too() {
        let cfg = CampaignConfig {
            seed: 0x52,
            cases: 4,
            max_faults: 2,
            recover: true,
            ..CampaignConfig::default()
        };
        assert_eq!(
            run_campaign_threaded(&cfg, 3).to_json(),
            run_campaign_threaded(&cfg, 1).to_json()
        );
    }
}
