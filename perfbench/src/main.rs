//! Benchmark entry point:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus-bare --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Prints a summary line, then the result as one JSON object on the
//! last line of standard output. Exit code 0 on a finished run (the
//! JSON's `correct` says whether every output checked), 2 on bad usage.

use perfbench::{heap::CountingAlloc, run, Config, Kind};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload corpus-bare|corpus-kernel|serve-open-loop|failover-kill \
                     --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&cfg);
    println!(
        "# workload={} seed={} trace={} passes={} host_cpus={}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        out.passes,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
