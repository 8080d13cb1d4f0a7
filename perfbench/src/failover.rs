//! `failover-kill`: each op boots the three-node failover cluster and
//! drives it to completion through `Cluster::step`, applying seeded,
//! leader-biased `kill_node`s and one dropped frame on the way.

use crate::{closed_loop, stats, OpSample, Trace, Workload};
use mips_net::failover::{self, FAILOVER_NODES};
use mips_net::{Cluster, ClusterConfig, ClusterReport, FaultAction};
use mips_os::Kernel;
use mips_qc::Rng;
use mips_sim::Engine;
use std::time::Instant;

/// Ops in one pass.
pub const OPS: usize = 64;

/// Whom a kill hits.
#[derive(Debug, Clone, Copy)]
enum Victim {
    /// The leader at fire time, read from the newest WAL term.
    Leader,
    Node(usize),
}

#[derive(Debug, Clone, Copy)]
struct Kill {
    round: u64,
    victim: Victim,
}

/// One op's fault plan.
#[derive(Debug, Clone)]
struct Plan {
    /// Sorted by round.
    kills: Vec<Kill>,
    /// Index, in send order, of the one frame the fabric drops.
    drop_frame: u64,
}

/// Host time per cluster phase, summed over a pass.
#[derive(Debug, Default)]
struct Spans {
    boot_ms: f64,
    round_ms: f64,
    rounds: u64,
    ckpt_ms: f64,
    ckpt_rounds: u64,
    kill_ms: f64,
    kills: u64,
}

pub struct Kills {
    kernels: Vec<Kernel>,
    config: ClusterConfig,
    expected: Vec<u8>,
    plans: Vec<Plan>,
}

/// The leader under the failover protocol: the newest election term
/// any member has logged picks `term % FAILOVER_NODES`.
fn leader(c: &Cluster) -> usize {
    let term = (0..FAILOVER_NODES as usize)
        .filter_map(|i| c.wal(i))
        .filter_map(|seg| failover::wal::latest(&seg))
        .map(|r| r.term)
        .max()
        .unwrap_or(0);
    (term % FAILOVER_NODES) as usize
}

impl Kills {
    /// Runs one plan to completion; `None` if the cluster errors.
    fn drive(&self, plan: &Plan, mut spans: Option<&mut Spans>) -> Option<ClusterReport> {
        let t = Instant::now();
        let mut c = Cluster::new(&self.kernels, self.config.clone()).ok()?;
        if let Some(s) = spans.as_deref_mut() {
            s.boot_ms += stats::ms(t.elapsed());
        }
        let mut kills = plan.kills.iter().peekable();
        let mut frame = 0u64;
        while !c.all_done() && c.round() < self.config.max_rounds {
            let round = c.round();
            while let Some(k) = kills.next_if(|k| k.round == round) {
                let node = match k.victim {
                    Victim::Leader => leader(&c),
                    Victim::Node(n) => n,
                };
                let t = Instant::now();
                c.kill_node(node).ok()?;
                if let Some(s) = spans.as_deref_mut() {
                    s.kill_ms += stats::ms(t.elapsed());
                    s.kills += 1;
                }
            }
            let t = Instant::now();
            c.step(&mut |_, _| {
                frame += 1;
                if frame - 1 == plan.drop_frame {
                    FaultAction::Drop
                } else {
                    FaultAction::Deliver
                }
            })
            .ok()?;
            if let Some(s) = spans.as_deref_mut() {
                let d = stats::ms(t.elapsed());
                // The step that ends on the cadence refreshes every
                // node's checkpoint snapshot.
                if (round + 1) % self.config.checkpoint_every == 0 {
                    s.ckpt_ms += d;
                    s.ckpt_rounds += 1;
                } else {
                    s.round_ms += d;
                    s.rounds += 1;
                }
            }
        }
        Some(c.report())
    }

    fn check(&self, r: &ClusterReport) -> bool {
        r.completed && r.output() == self.expected
    }
}

impl Workload for Kills {
    fn setup(seed: u64) -> Kills {
        let kernels = failover::failover_kernels(Engine::Fast).expect("failover members boot");
        let config = failover::failover_cluster_config();
        let expected = failover::failover_expected();
        // The fault-free baseline sizes the kill window and the frame
        // range, as the chaos campaign does.
        let baseline = Cluster::new(&kernels, config.clone())
            .and_then(|mut c| c.run_clean())
            .expect("clean failover run");
        assert!(
            baseline.completed && baseline.output() == expected,
            "clean failover run diverged"
        );
        let mut rng = Rng::new(seed);
        let plans = (0..OPS)
            .map(|_| {
                let n = if rng.ratio(1, 3) { 2 } else { 1 };
                let mut kills: Vec<Kill> = (0..n)
                    .map(|_| Kill {
                        round: rng.u64(0..baseline.rounds),
                        victim: if rng.bool() {
                            Victim::Leader
                        } else {
                            Victim::Node(rng.usize(0..FAILOVER_NODES as usize))
                        },
                    })
                    .collect();
                kills.sort_by_key(|k| k.round);
                Plan {
                    kills,
                    drop_frame: rng.u64(0..baseline.fabric.sent),
                }
            })
            .collect();
        Kills {
            kernels,
            config,
            expected,
            plans,
        }
    }

    fn pass(&mut self) -> Vec<OpSample> {
        closed_loop(self.plans.len(), |i| {
            self.drive(&self.plans[i], None)
                .is_some_and(|r| self.check(&r))
        })
    }

    fn traced_pass(&mut self, trace: &mut Trace) -> Vec<OpSample> {
        let mut s = Spans::default();
        let samples = closed_loop(self.plans.len(), |i| {
            let Some(r) = self.drive(&self.plans[i], Some(&mut s)) else {
                return false;
            };
            trace.count("net.rounds", r.rounds);
            trace.count("net.frames_sent", r.fabric.sent);
            trace.count("net.fabric.delivered", r.fabric.delivered);
            trace.count("net.fabric.retained", r.fabric.retained);
            trace.count("net.fabric.partition_dropped", r.fabric.partition_dropped);
            trace.count(
                "net.restarts",
                r.restarts.iter().map(|&n| u64::from(n)).sum(),
            );
            trace.count(
                "net.node_instructions",
                r.nodes.iter().map(|n| n.instructions).sum(),
            );
            self.check(&r)
        });
        trace.metric("net.boot_ms", s.boot_ms / self.plans.len() as f64);
        trace.metric("net.round_us", s.round_ms * 1e3 / s.rounds.max(1) as f64);
        trace.metric(
            "net.ckpt_round_us",
            s.ckpt_ms * 1e3 / s.ckpt_rounds.max(1) as f64,
        );
        trace.metric(
            "net.kill_restore_us",
            s.kill_ms * 1e3 / s.kills.max(1) as f64,
        );
        samples
    }
}
