//! Distributed chaos: seeded fault campaigns against guest clusters.
//!
//! Each case boots a fresh cluster (ping/echo RPC or the replicated
//! counter, alternating), draws a [`NetFaultPlan`] whose primary kind
//! cycles through the whole taxonomy — so any stretch of six cases
//! covers drop, duplicate, reorder, corrupt, partition, and kill —
//! runs the cluster with the plan applied, and grades the result
//! against a fault-free baseline of the same cluster:
//!
//! * [`Outcome::Masked`] — every node's console bytes match the
//!   baseline and no node was restarted;
//! * [`Outcome::Recovered`] — bytes match *and* at least one node was
//!   rolled back to a checkpoint on the way: the protocols re-
//!   synchronised a crashed node. Every `net-kill` case must land
//!   here (or a stronger fault in the same plan must explain why
//!   not);
//! * [`Outcome::Detected`] — the victim gave up loudly (its retry
//!   budget printed the `'!'` marker);
//! * [`Outcome::Isolated`] — the victim's bytes silently diverged but
//!   every other node matched the baseline;
//! * [`Outcome::Escaped`] — a non-victim diverged, the run wedged,
//!   the simulator stopped untyped, or the host panicked.
//!
//! A case's outcome is the worst of its nodes' outcomes; the report's
//! `net` section carries the per-node counts. Everything is a pure
//! function of `(seed, case)`, and the one driver runs the cases on the
//! fleet, so the JSON artifact is byte-identical at every thread count
//! — CI replays the pinned seed and diffs bytes.
//!
//! With [`NetCampaignConfig::failover`] set, every case instead runs
//! the [`mips_net::failover`] workload: three symmetric members with
//! a durable write-ahead log and bully-style leader election. Kills
//! come from [`NetFaultPlan::draw_failover`] — drawn over the
//! *entire* run, biased toward the leader, sometimes doubled — and
//! the campaign still demands `kills_all_recovered`: there is no
//! round at which killing any node, the sitting leader included, is
//! allowed to change a byte of cluster output.

use crate::netfault::{NetFaultKind, NetFaultPlan};
use crate::report::{
    CaseResult, ChaosReport, FailoverSummary, FaultRecord, NetNodeRow, NetSummary, Outcome,
};
use mips_fleet::{run_ordered, FleetWork};
use mips_net::failover::{self, failover_kernels, FAILOVER_NODES};
use mips_net::workloads::{ping_echo_kernels, replicated_counter_kernels};
use mips_net::{Cluster, ClusterConfig, ClusterReport, FaultAction};
use mips_qc::Rng;
use mips_sim::Engine;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Distributed campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetCampaignConfig {
    /// Campaign seed; every case's plan derives from `(seed, case)`.
    pub seed: u64,
    /// Cases to run.
    pub cases: u64,
    /// Replicas in the counter cluster (its node count is this + 1).
    pub replicas: u32,
    /// Engine for every node.
    pub engine: Engine,
    /// Run the failover workload (WAL + leader election) on every
    /// case instead of alternating the v1 shapes. Kills are drawn
    /// over the *entire* run — the leader included — via
    /// [`NetFaultPlan::draw_failover`].
    pub failover: bool,
}

impl Default for NetCampaignConfig {
    fn default() -> NetCampaignConfig {
        NetCampaignConfig {
            seed: 0xA5,
            cases: 120,
            replicas: 2,
            engine: Engine::Fast,
            failover: false,
        }
    }
}

/// The cluster shapes a campaign runs: the two v1 shapes alternate;
/// `--failover` campaigns run the v2 workload on every case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    PingEcho,
    Counter,
    Failover,
}

impl Shape {
    /// Shape cycles with the *offset* `case / 6` so each of the six
    /// primary kinds (selected by `case % 6`) meets both shapes within
    /// any twelve consecutive cases — plain `case % 2` would alias
    /// against the kind cycle and pin every kind to one shape forever.
    fn of(cfg: &NetCampaignConfig, case: u64) -> Shape {
        if cfg.failover {
            Shape::Failover
        } else if (case + case / 6).is_multiple_of(2) {
            Shape::PingEcho
        } else {
            Shape::Counter
        }
    }

    fn nodes(self, cfg: &NetCampaignConfig) -> u32 {
        match self {
            Shape::PingEcho => 2,
            Shape::Counter => cfg.replicas + 1,
            Shape::Failover => FAILOVER_NODES,
        }
    }

    fn kernels(self, cfg: &NetCampaignConfig) -> Vec<mips_os::Kernel> {
        match self {
            Shape::PingEcho => ping_echo_kernels(cfg.engine),
            Shape::Counter => replicated_counter_kernels(cfg.engine, cfg.replicas),
            Shape::Failover => failover_kernels(cfg.engine),
        }
        .expect("workloads boot")
    }

    fn names(self, cfg: &NetCampaignConfig) -> Vec<&'static str> {
        match self {
            Shape::PingEcho => vec!["ping-client", "echo-server"],
            Shape::Counter => {
                let mut n = vec!["coordinator"];
                n.extend(std::iter::repeat_n("replica", cfg.replicas as usize));
                n
            }
            Shape::Failover => vec!["member"; FAILOVER_NODES as usize],
        }
    }
}

/// A fault-free run of one cluster shape: the comparison target.
#[derive(Debug, Clone)]
struct Baseline {
    sections: Vec<Vec<u8>>,
    /// Rounds the fault-free run took — the end of the failover kill
    /// window (`0..rounds`: a kill may fire at *any* point of the run).
    rounds: u64,
}

fn node_sections(report: &ClusterReport) -> Vec<Vec<u8>> {
    report
        .nodes
        .iter()
        .map(|n| {
            n.procs
                .iter()
                .flat_map(|p| p.output.iter().copied())
                .collect()
        })
        .collect()
}

fn cluster_config(seed: u64, shape: Shape) -> ClusterConfig {
    let base = match shape {
        Shape::Failover => failover::failover_cluster_config(),
        _ => ClusterConfig::default(),
    };
    ClusterConfig {
        fabric: mips_net::FabricConfig {
            seed,
            ..mips_net::FabricConfig::default()
        },
        ..base
    }
}

fn compute_baseline(cfg: &NetCampaignConfig, shape: Shape) -> Baseline {
    let kernels = shape.kernels(cfg);
    let mut c = Cluster::new(&kernels, cluster_config(cfg.seed, shape)).expect("baseline boots");
    let report = c.run_clean().expect("baseline runs");
    assert!(report.completed, "baseline exhausted its round budget");
    Baseline {
        sections: node_sections(&report),
        rounds: report.rounds,
    }
}

/// The per-case plan identity: shape, primary kind, drawn plan.
/// `rounds` is the shape's fault-free run length — the failover draw
/// spreads kills over all of it; the v1 draw ignores it.
fn plan_case(cfg: &NetCampaignConfig, case: u64, rounds: u64) -> (Shape, NetFaultPlan) {
    let shape = Shape::of(cfg, case);
    let primary = [
        NetFaultKind::Drop,
        NetFaultKind::Duplicate,
        NetFaultKind::Reorder,
        NetFaultKind::Corrupt,
        NetFaultKind::Partition,
        NetFaultKind::Kill,
    ][(case % 6) as usize];
    let mut rng = Rng::new(
        cfg.seed
            .wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let plan = match shape {
        Shape::Failover => NetFaultPlan::draw_failover(&mut rng, shape.nodes(cfg), primary, rounds),
        _ => NetFaultPlan::draw(&mut rng, shape.nodes(cfg), primary),
    };
    (shape, plan)
}

/// Runs one planned case and grades it. Pure function of its inputs;
/// a host panic inside the run grades the case [`Outcome::Escaped`]
/// instead of killing the campaign.
fn run_net_case(
    cfg: &NetCampaignConfig,
    case: u64,
    shape: Shape,
    plan: &NetFaultPlan,
    base: &Baseline,
) -> CaseResult {
    let faults: Vec<FaultRecord> = plan
        .describe()
        .into_iter()
        .map(|(kind, desc)| FaultRecord {
            kind: kind.id(),
            desc,
        })
        .collect();
    let victim = plan.victim();
    let shell = |outcome: Outcome,
                 note: String,
                 injected: Vec<String>,
                 restarts: u64,
                 max_term: Option<u64>| CaseResult {
        case,
        workloads: shape.names(cfg),
        victim,
        faults: faults.clone(),
        injected,
        outcome,
        note,
        kernel_panic: false,
        watchdog_fired: false,
        restarts,
        max_term,
    };

    let run = catch_unwind(AssertUnwindSafe(|| drive(cfg, shape, plan)));
    let (report, injected, max_term) = match run {
        Err(_) => {
            return shell(
                Outcome::Escaped,
                "host panic crossed the simulation boundary".into(),
                Vec::new(),
                0,
                None,
            )
        }
        Ok(Err(e)) => {
            return shell(
                Outcome::Escaped,
                format!("untyped simulator stop: {e}"),
                Vec::new(),
                0,
                None,
            )
        }
        Ok(Ok(drove)) => (drove.report, drove.injected, drove.max_term),
    };

    let restarts: u64 = report.restarts.iter().map(|&r| u64::from(r)).sum();
    if !report.completed {
        return shell(
            Outcome::Escaped,
            format!(
                "cluster wedged: round budget exhausted at {}",
                report.rounds
            ),
            injected,
            restarts,
            max_term,
        );
    }

    let sections = node_sections(&report);
    let mut worst = Outcome::Masked;
    let mut diverged: Vec<usize> = Vec::new();
    for (i, section) in sections.iter().enumerate() {
        let o = node_outcome(
            section,
            &base.sections[i],
            report.restarts[i],
            i as u32,
            victim,
        );
        diverged.extend((section != &base.sections[i]).then_some(i));
        worst = worst.max(o);
    }
    let note = match worst {
        Outcome::Masked => "all nodes byte-identical to baseline".into(),
        Outcome::Recovered => format!(
            "byte-identical after {restarts} checkpoint restart(s) on nodes {:?}",
            report
                .restarts
                .iter()
                .enumerate()
                .filter(|(_, &r)| r > 0)
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        ),
        Outcome::Detected => format!("victim node {victim} exhausted its retries loudly"),
        Outcome::Isolated => format!("victim node {victim} silently diverged; siblings intact"),
        Outcome::Escaped => format!("divergence crossed node boundaries: nodes {diverged:?}"),
    };
    shell(worst, note, injected, restarts, max_term)
}

/// Grades one node. `section`/`base` are its concatenated console
/// bytes, faulted and fault-free.
fn node_outcome(section: &[u8], base: &[u8], restarts: u32, node: u32, victim: u32) -> Outcome {
    if section == base {
        if restarts > 0 {
            Outcome::Recovered
        } else {
            Outcome::Masked
        }
    } else if node == victim {
        if section.contains(&b'!') {
            Outcome::Detected
        } else {
            Outcome::Isolated
        }
    } else {
        Outcome::Escaped
    }
}

/// What [`drive`] hands back: the cluster report, the descriptions of
/// faults that actually fired, and (failover runs only) the highest
/// election term any member's WAL reached.
struct Driven {
    report: ClusterReport,
    injected: Vec<String>,
    max_term: Option<u64>,
}

/// The current leader under the failover protocol: the term of node
/// `id`'s newest WAL record picks `term % FAILOVER_NODES`. An empty
/// log means term 0 — node 0 leads from boot.
fn wal_leader(c: &Cluster, id: usize) -> Option<u32> {
    let seg = c.wal(id)?;
    let term = failover::wal::latest(&seg).map_or(0, |r| r.term);
    Some(term % FAILOVER_NODES)
}

/// Boots the cluster and runs it under the plan; returns the report
/// and the descriptions of faults that actually fired.
fn drive(
    cfg: &NetCampaignConfig,
    shape: Shape,
    plan: &NetFaultPlan,
) -> Result<Driven, mips_os::OsError> {
    let kernels = shape.kernels(cfg);
    let config = cluster_config(cfg.seed, shape);
    let max_rounds = config.max_rounds;
    let mut c = Cluster::new(&kernels, config)?;
    let mut injected: Vec<String> = Vec::new();
    let mut frame_idx: u64 = 0;
    while !c.all_done() && c.round() < max_rounds {
        let round = c.round();
        if let Some(p) = plan.partition {
            if round == p.from {
                c.partition(p.a, p.b);
                injected.push(p.to_string());
            }
            if round == p.heal {
                c.heal(p.a, p.b);
            }
        }
        for k in &plan.kills {
            if round == k.round {
                // The *victim's own* newest WAL term decides whether
                // this kill hit the leader it believed in — judged at
                // fire time, since elections move the crown mid-run.
                let leads = wal_leader(&c, k.node as usize) == Some(k.node);
                c.kill_node(k.node as usize)?;
                injected.push(if leads {
                    format!(
                        "round {}: net-kill node {} (leader, restore last checkpoint)",
                        k.round, k.node
                    )
                } else {
                    k.to_string()
                });
            }
        }
        let frames = &plan.frames;
        let inj = &mut injected;
        let idx = &mut frame_idx;
        c.step(&mut |_, _frame| {
            let i = *idx;
            *idx += 1;
            match frames.iter().find(|f| f.frame == i) {
                None => FaultAction::Deliver,
                Some(f) => {
                    inj.push(f.to_string());
                    match f.kind {
                        NetFaultKind::Drop => FaultAction::Drop,
                        NetFaultKind::Duplicate => FaultAction::Duplicate,
                        NetFaultKind::Corrupt => FaultAction::Corrupt {
                            word: f.word,
                            bit: f.bit,
                        },
                        NetFaultKind::Reorder => FaultAction::Delay(f.delay),
                        // Partition/Kill never appear as frame faults.
                        _ => FaultAction::Deliver,
                    }
                }
            }
        })?;
    }
    let max_term = (shape == Shape::Failover).then(|| {
        (0..FAILOVER_NODES as usize)
            .filter_map(|i| c.wal(i))
            .filter_map(|seg| failover::wal::latest(&seg))
            .map(|r| u64::from(r.term))
            .max()
            .unwrap_or(0)
    });
    Ok(Driven {
        report: c.report(),
        injected,
        max_term,
    })
}

fn summarize(cfg: &NetCampaignConfig, cases: &[CaseResult]) -> NetSummary {
    let max_nodes = if cfg.failover {
        FAILOVER_NODES as usize
    } else {
        Shape::Counter.nodes(cfg).max(2) as usize
    };
    let mut nodes: Vec<NetNodeRow> = (0..max_nodes as u32)
        .map(|node| NetNodeRow {
            node,
            cases: 0,
            masked: 0,
            recovered: 0,
            isolated: 0,
            detected: 0,
            escaped: 0,
        })
        .collect();
    // Per-node rows re-derive each node's own outcome from the case:
    // a node participates in a case when its id is under the case's
    // cluster size (the workloads list length).
    for c in cases {
        for (node, row) in nodes.iter_mut().enumerate().take(c.workloads.len()) {
            row.cases += 1;
            // The case carries only the worst outcome; attribute it to
            // the victim and grade everyone else by whether the case
            // stayed byte-identical (masked/recovered apply cluster-
            // wide by definition).
            let o = match c.outcome {
                Outcome::Masked | Outcome::Recovered => c.outcome,
                worse if node as u32 == c.victim => worse,
                Outcome::Escaped => Outcome::Escaped,
                _ => Outcome::Masked,
            };
            match o {
                Outcome::Masked => row.masked += 1,
                Outcome::Recovered => row.recovered += 1,
                Outcome::Isolated => row.isolated += 1,
                Outcome::Detected => row.detected += 1,
                Outcome::Escaped => row.escaped += 1,
            }
        }
    }
    let (topology, failover) = if cfg.failover {
        let kills = |needle: &str| {
            cases
                .iter()
                .flat_map(|c| c.injected.iter())
                .filter(|s| s.contains(needle))
                .count() as u64
        };
        (
            format!("failover/{FAILOVER_NODES}"),
            Some(FailoverSummary {
                max_term: cases.iter().filter_map(|c| c.max_term).max().unwrap_or(0),
                kills_fired: kills("net-kill"),
                leader_kills_fired: kills("(leader,"),
            }),
        )
    } else {
        (format!("ping-echo/2 + counter/{}", cfg.replicas + 1), None)
    };
    NetSummary {
        fabric_seed: cfg.seed,
        topology,
        failover,
        nodes,
    }
}

/// The campaign's comparison targets, one per shape it runs.
fn compute_baselines(cfg: &NetCampaignConfig) -> Vec<Baseline> {
    if cfg.failover {
        vec![compute_baseline(cfg, Shape::Failover)]
    } else {
        vec![
            compute_baseline(cfg, Shape::PingEcho),
            compute_baseline(cfg, Shape::Counter),
        ]
    }
}

fn baseline_index(shape: Shape) -> usize {
    match shape {
        Shape::PingEcho | Shape::Failover => 0,
        Shape::Counter => 1,
    }
}

/// Runs the distributed campaign on one fleet worker: the driver of
/// [`run_net_campaign_threaded`], whose report is byte-identical at
/// every worker count.
pub fn run_net_campaign(cfg: &NetCampaignConfig) -> ChaosReport {
    run_net_campaign_threaded(cfg, 1)
}

struct NetCaseWork {
    cfg: NetCampaignConfig,
    case: u64,
    shape: Shape,
    plan: NetFaultPlan,
    base: Baseline,
}

impl FleetWork for NetCaseWork {
    type Out = CaseResult;
    fn execute(self) -> CaseResult {
        run_net_case(&self.cfg, self.case, self.shape, &self.plan, &self.base)
    }
}

/// Runs the distributed campaign with cases fanned out over `threads`
/// fleet workers (0 = host parallelism). Byte-identical at every
/// thread count.
pub fn run_net_campaign_threaded(cfg: &NetCampaignConfig, threads: usize) -> ChaosReport {
    let baselines = compute_baselines(cfg);
    let jobs: Vec<NetCaseWork> = (0..cfg.cases)
        .map(|case| {
            let base = baselines[baseline_index(Shape::of(cfg, case))].clone();
            let (shape, plan) = plan_case(cfg, case, base.rounds);
            NetCaseWork {
                cfg: *cfg,
                case,
                shape,
                plan,
                base,
            }
        })
        .collect();
    assemble(cfg, run_ordered(jobs, threads))
}

fn assemble(cfg: &NetCampaignConfig, cases: Vec<CaseResult>) -> ChaosReport {
    let net = summarize(cfg, &cases);
    ChaosReport {
        seed: cfg.seed,
        max_faults: 3,
        recover: true,
        net: Some(net),
        cases,
    }
}

/// The recovered floor: every case whose plan includes a `net-kill`
/// must grade [`Outcome::Recovered`] — a kill that leaves no trace
/// would mean checkpoint restore silently did nothing, and anything
/// worse means the protocols failed to re-synchronise the node.
pub fn kills_all_recovered(report: &ChaosReport) -> bool {
    report
        .cases
        .iter()
        .filter(|c| c.faults.iter().any(|f| f.kind == "net-kill"))
        .all(|c| c.outcome == Outcome::Recovered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NetCampaignConfig {
        NetCampaignConfig {
            seed: 0xBEEF,
            cases: 12,
            ..NetCampaignConfig::default()
        }
    }

    /// Twelve consecutive cases cover all six kinds on both cluster
    /// shapes, with zero escapes and every kill recovered.
    #[test]
    fn a_full_taxonomy_lap_is_clean_and_kills_recover() {
        let report = run_net_campaign(&small());
        assert!(report.clean(), "escape:\n{report}");
        assert!(
            kills_all_recovered(&report),
            "kill not recovered:\n{report}"
        );
        let kinds: std::collections::BTreeSet<&str> = report
            .cases
            .iter()
            .flat_map(|c| c.faults.iter().map(|f| f.kind))
            .collect();
        for id in NetFaultKind::IDS {
            assert!(kinds.contains(id), "kind {id} never planned");
        }
        let s = report.summary();
        assert_eq!(s.escaped, 0);
        assert!(s.recovered >= 2, "two kill cases in twelve: {s:?}");
    }

    #[test]
    fn net_campaigns_match_the_one_worker_report_byte_for_byte() {
        let cfg = NetCampaignConfig {
            cases: 6,
            ..small()
        };
        let one = run_net_campaign_threaded(&cfg, 1).to_json();
        for threads in [2, 4] {
            assert_eq!(
                run_net_campaign_threaded(&cfg, threads).to_json(),
                one,
                "{threads} workers diverged"
            );
        }
    }

    fn small_failover() -> NetCampaignConfig {
        NetCampaignConfig {
            failover: true,
            cases: 6,
            ..small()
        }
    }

    /// One lap of the taxonomy against the failover workload: kills
    /// drawn anywhere in the run — the sitting leader included — and
    /// every one of them recovered byte-identically.
    #[test]
    fn failover_campaign_recovers_every_kill_even_of_the_leader() {
        let report = run_net_campaign(&small_failover());
        assert!(report.clean(), "escape:\n{report}");
        assert!(
            kills_all_recovered(&report),
            "kill not recovered:\n{report}"
        );
        let net = report.net.as_ref().unwrap();
        assert_eq!(net.topology, "failover/3");
        let fo = net.failover.expect("failover campaigns carry the block");
        assert!(fo.kills_fired >= 1, "the kill case planned no kill");
        assert!(fo.kills_fired >= fo.leader_kills_fired);
        assert!(
            report.cases.iter().all(|c| c.max_term.is_some()),
            "every failover case reports its max term"
        );
        let json = report.to_json();
        assert!(json.contains("\"schema\":4,"), "failover lifts to schema 4");
        assert!(json.contains("\"failover\":{\"max_term\":"));
        assert!(json.contains("\"max_term\":"));
    }

    /// The failover campaign is byte-identical across fleet widths,
    /// like the v1 campaign.
    #[test]
    fn failover_campaigns_match_the_one_worker_report_byte_for_byte() {
        let cfg = NetCampaignConfig {
            cases: 3,
            ..small_failover()
        };
        let one = run_net_campaign_threaded(&cfg, 1).to_json();
        for threads in [2, 4] {
            assert_eq!(
                run_net_campaign_threaded(&cfg, threads).to_json(),
                one,
                "{threads} workers diverged"
            );
        }
    }

    #[test]
    fn the_net_section_counts_every_node_every_case() {
        let report = run_net_campaign(&small());
        let net = report.net.as_ref().unwrap();
        assert_eq!(net.nodes.len(), 3);
        // Node 0 and 1 are in every case; node 2 only in counter runs.
        assert_eq!(net.nodes[0].cases, 12);
        assert_eq!(net.nodes[1].cases, 12);
        assert_eq!(net.nodes[2].cases, 6);
        for row in &net.nodes {
            assert_eq!(
                row.cases,
                row.masked + row.recovered + row.isolated + row.detected + row.escaped,
                "row doesn't add up: {row:?}"
            );
        }
    }
}
