//! `mips-chaos` — seeded fault-injection campaigns against the stack.
//!
//! ```text
//! usage: mips-chaos [--seed N] [--cases N] [--faults N] [--fuzz N]
//!                   [--threads N] [--recover | --no-recover]
//!                   [--net [--replicas N] [--failover]] [--json]
//!
//!   --seed N      campaign seed (decimal or 0x-hex; default 0xA5)
//!   --cases N     chaos cases to run (default 200; 120 with --net)
//!   --faults N    maximum faults per case (default 3)
//!   --fuzz N      also run N differential-fuzz cases per harness
//!   --threads N   fan cases out over N fleet workers (0 = host
//!                 parallelism, the default). The report is
//!                 byte-identical at every thread count.
//!   --recover     supervise injected runs: detected kills roll back to
//!                 a checkpoint and replay; byte-identical survivors
//!                 grade `recovered` (default off)
//!   --no-recover  force supervision off (the default, spelled out)
//!   --net         run the *distributed* campaign instead: guest
//!                 clusters on the deterministic fabric under frame
//!                 faults, partitions, and node kills. Fails unless
//!                 nothing escaped AND every net-kill case graded
//!                 `recovered`. (--faults/--fuzz/--recover don't apply)
//!   --replicas N  counter-cluster replicas for --net (default 2)
//!   --failover    with --net: run the v2 failover workload (guest
//!                 write-ahead log + leader election) on every case,
//!                 with node kills — the sitting leader included —
//!                 drawn over the *entire* run instead of the v1
//!                 early window
//!   --json        emit the byte-stable JSON report instead of the table
//! ```
//!
//! Exit status: 0 when nothing escaped (and, with --net, every kill
//! recovered), 1 when any case escaped its victim (or the differential
//! fuzz found a divergence or host panic), 2 on usage errors.
//!
//! The JSON artifact is deterministic for a given seed: CI replays the
//! campaign and byte-compares the output.

use mips_chaos::{
    fuzz_bare_faults, fuzz_static_dynamic, kills_all_recovered, run_campaign_threaded,
    run_net_campaign_threaded, CampaignConfig, NetCampaignConfig,
};
use std::process::ExitCode;

const USAGE: &str = "usage: mips-chaos [--seed N] [--cases N] [--faults N] [--fuzz N] [--threads N] [--recover | --no-recover] [--net [--replicas N] [--failover]] [--json]";

fn parse_num(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() -> ExitCode {
    let mut cfg = CampaignConfig::default();
    let mut json = false;
    let mut fuzz: u64 = 0;
    let mut threads: usize = 0;
    let mut net = false;
    let mut failover = false;
    let mut cases_given = false;
    let mut replicas: u32 = 2;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> Result<u64, ExitCode> {
            args.next().as_deref().and_then(parse_num).ok_or_else(|| {
                eprintln!("mips-chaos: {name} needs a numeric argument\n{USAGE}");
                ExitCode::from(2)
            })
        };
        match arg.as_str() {
            "--seed" => match num("--seed") {
                Ok(v) => cfg.seed = v,
                Err(c) => return c,
            },
            "--cases" => match num("--cases") {
                Ok(v) => {
                    cfg.cases = v;
                    cases_given = true;
                }
                Err(c) => return c,
            },
            "--faults" => match num("--faults") {
                Ok(v) => cfg.max_faults = v as usize,
                Err(c) => return c,
            },
            "--fuzz" => match num("--fuzz") {
                Ok(v) => fuzz = v,
                Err(c) => return c,
            },
            "--threads" => match num("--threads") {
                Ok(v) => threads = v as usize,
                Err(c) => return c,
            },
            "--recover" => cfg.recover = true,
            "--no-recover" => cfg.recover = false,
            "--net" => net = true,
            "--failover" => failover = true,
            "--replicas" => match num("--replicas") {
                Ok(v) => replicas = v as u32,
                Err(c) => return c,
            },
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => {
                eprintln!("mips-chaos: unknown argument '{arg}'\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    if failover && !net {
        eprintln!("mips-chaos: --failover needs --net\n{USAGE}");
        return ExitCode::from(2);
    }
    if net {
        let ncfg = NetCampaignConfig {
            seed: cfg.seed,
            cases: if cases_given {
                cfg.cases
            } else {
                NetCampaignConfig::default().cases
            },
            replicas,
            failover,
            ..NetCampaignConfig::default()
        };
        let report = run_net_campaign_threaded(&ncfg, threads);
        if json {
            print!("{}", report.to_json());
        } else {
            print!("{report}");
        }
        let recovered_floor = kills_all_recovered(&report);
        if !recovered_floor {
            eprintln!("mips-chaos: a net-kill case did not grade `recovered`");
        }
        return if report.clean() && recovered_floor {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let report = run_campaign_threaded(&cfg, threads);
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{report}");
    }
    let mut failed = !report.clean();

    if fuzz > 0 {
        let diff = fuzz_static_dynamic(cfg.seed, fuzz);
        let bare = fuzz_bare_faults(cfg.seed, fuzz);
        if !json {
            println!(
                "\ndifferential fuzz: {} static/dynamic cases, {} mismatches; \
                 {} bare-fault cases, {} halted, {} typed errors, {} host panics",
                diff.cases,
                diff.mismatches.len(),
                bare.cases,
                bare.halted,
                bare.typed_errors,
                bare.host_panics
            );
        }
        for m in &diff.mismatches {
            eprintln!(
                "mips-chaos: fuzz mismatch (case {}, {}): {}",
                m.case, m.level, m.what
            );
        }
        if bare.host_panics > 0 {
            eprintln!(
                "mips-chaos: {} host panic(s) under bare-machine faults",
                bare.host_panics
            );
        }
        failed |= !diff.mismatches.is_empty() || bare.host_panics > 0;
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
