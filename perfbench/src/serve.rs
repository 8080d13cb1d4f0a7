//! `serve-open-loop`: the standard serving mix submitted to a fleet on
//! a fixed schedule, latency timed from each job's due time.

use crate::{stats, OpSample, Trace, Workload};
use mips_fleet::{run_job, Fleet, FleetJob, FleetResult, FleetWork, JobSpec};
use mips_serve::{run_open_loop, standard_mix, DEFAULT_CAPACITY, MIX_WORKLOADS};
use mips_sim::Engine;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Fleet workers: the two host CPUs.
pub const WORKERS: usize = 2;
/// Submission rate, jobs per second: about half of what two workers
/// retire closed-loop, so queues stay short but real.
pub const RATE: u64 = 1_000;
/// Jobs in one pass: four seconds of schedule.
pub const JOBS: usize = 4_000;

/// Which service-time bucket a job falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    BareFast,
    BareRef,
    Kernel,
}

pub struct OpenLoop {
    jobs: Vec<FleetJob>,
    classes: Vec<Class>,
    /// Per job: the reference bytes its output must equal.
    expected: Vec<Vec<u8>>,
    /// Per job: due time from the start of the pass.
    due_ns: Vec<u64>,
}

/// The benchmark-side timing wrapper: records when a worker started
/// and finished `run_job`, on the pass's clock.
struct Timed {
    job: FleetJob,
    epoch: Instant,
}

impl FleetWork for Timed {
    type Out = (FleetResult, u64, u64);
    fn execute(self) -> Self::Out {
        let start = nanos(self.epoch);
        let r = run_job(self.job);
        (r, start, nanos(self.epoch))
    }
}

fn nanos(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Sleeps until `due` nanoseconds after `epoch`, as the serving
/// front end's feeder does; returns how late it woke.
fn wait_until(epoch: Instant, due: u64) -> u64 {
    loop {
        let now = nanos(epoch);
        if now >= due {
            return now - due;
        }
        std::thread::sleep(Duration::from_nanos((due - now).min(200_000)));
    }
}

/// FNV-1a, folding the byte-stable results of a pass into one count.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

impl OpenLoop {
    fn check(&self, i: usize, r: &FleetResult) -> bool {
        let status = if self.classes[i] == Class::Kernel {
            "idle"
        } else {
            "halt"
        };
        r.status == status && r.output == self.expected[i]
    }
}

impl Workload for OpenLoop {
    fn setup(seed: u64) -> OpenLoop {
        let refs: BTreeMap<&str, Vec<u8>> = MIX_WORKLOADS
            .iter()
            .map(|&name| {
                let w = mips_workloads::get(name).expect("mix workload exists");
                let out = mips_hll::run_program(w.source).expect("mix program interprets");
                (name, out.into_bytes())
            })
            .collect();
        let jobs = standard_mix(seed, JOBS);
        let (classes, expected) = jobs
            .iter()
            .map(|job| match &job.spec {
                JobSpec::Bare { engine, .. } => (
                    if *engine == Engine::Fast {
                        Class::BareFast
                    } else {
                        Class::BareRef
                    },
                    refs[job.name.as_str()].clone(),
                ),
                JobSpec::Kernel { procs, .. } => (
                    Class::Kernel,
                    procs
                        .iter()
                        .flat_map(|(name, _)| refs[name.as_str()].iter().copied())
                        .collect(),
                ),
            })
            .unzip();
        let period = 1_000_000_000 / RATE;
        OpenLoop {
            due_ns: (0..JOBS as u64).map(|i| i * period).collect(),
            jobs,
            classes,
            expected,
        }
    }

    fn pass(&mut self) -> Vec<OpSample> {
        let report = run_open_loop(self.jobs.clone(), &self.due_ns, WORKERS, DEFAULT_CAPACITY);
        report
            .results
            .iter()
            .zip(&report.latencies_ns)
            .enumerate()
            .map(|(i, (r, &ns))| OpSample {
                ms: ns as f64 / 1e6,
                ok: self.check(i, r),
            })
            .collect()
    }

    fn traced_pass(&mut self, trace: &mut Trace) -> Vec<OpSample> {
        let n = self.jobs.len();
        let jobs = self.jobs.clone();
        let (fleet, rx) = Fleet::new(WORKERS, DEFAULT_CAPACITY);
        let mut done: Vec<Option<(FleetResult, u64, u64, u64)>> = vec![None; n];
        let epoch = Instant::now();
        let late: Vec<u64> = std::thread::scope(|s| {
            let feeder = s.spawn(|| {
                let late: Vec<u64> = jobs
                    .into_iter()
                    .zip(&self.due_ns)
                    .map(|(job, &due)| {
                        let late = wait_until(epoch, due);
                        fleet.submit(Timed { job, epoch });
                        late
                    })
                    .collect();
                fleet.close();
                late
            });
            for (id, (r, start, end)) in rx {
                done[id as usize] = Some((r, start, end, nanos(epoch)));
            }
            feeder.join().expect("feeder thread panicked")
        });
        fleet.join();

        let mut wait_ms = 0.0;
        let mut service: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
        let mut latencies = Vec::with_capacity(n);
        let mut results_fnv = 0xCBF2_9CE4_8422_2325;
        let samples: Vec<OpSample> = done
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                let (r, start, end, recv) = d.expect("every job retires");
                let due = self.due_ns[i];
                wait_ms += start.saturating_sub(due) as f64 / 1e6;
                let bucket = match self.classes[i] {
                    Class::BareFast => "fleet.service_bare_fast_ms",
                    Class::BareRef => "fleet.service_bare_ref_ms",
                    Class::Kernel => "fleet.service_kernel_ms",
                };
                let e = service.entry(bucket).or_default();
                e.0 += (end - start) as f64 / 1e6;
                e.1 += 1;
                let ms = recv.saturating_sub(due) as f64 / 1e6;
                latencies.push(ms);
                trace.count("serve.instructions", r.instructions);
                results_fnv = fnv(results_fnv, &r.to_bytes());
                OpSample {
                    ms,
                    ok: self.check(i, &r),
                }
            })
            .collect();
        trace.count("serve.jobs", n as u64);
        trace.count("serve.results_fnv", results_fnv);
        trace.metric("fleet.queue_wait_ms", wait_ms / n as f64);
        for (bucket, (sum, count)) in service {
            trace.metric(bucket, sum / count as f64);
        }
        let late_ms: f64 = late.iter().map(|&ns| ns as f64 / 1e6).sum();
        trace.metric("serve.feeder_late_ms", late_ms / n as f64);
        trace.metric("serve.op_p99_ms", stats::percentile(&latencies, 0.99));
        samples
    }
}
