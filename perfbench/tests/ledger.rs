//! The benchmark's own contract: traced counts repeat byte for byte,
//! a held-out seed runs clean, and the result line has the agreed shape.

use perfbench::{heap::CountingAlloc, run, Config, Kind, Outcome, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn once(workload: Kind, seed: u64, trace: bool) -> Outcome {
    // A zero budget still runs one whole pass.
    run(&Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
    })
}

#[test]
fn traced_counts_repeat_byte_for_byte() {
    // A traced run measures its own workload and one pass of every
    // other, so one workload's ledger holds every layer's counts.
    let a = once(Kind::FailoverKill, 11, true);
    let b = once(Kind::FailoverKill, 11, true);
    assert!(a.correct && b.correct, "{a:?}");
    for key in [
        "sim.instructions",
        "sim.cert_elided",
        "os.page_faults",
        "os.counters.ticks",
        "os.cost.paging",
        "os.cost.user",
        "net.rounds",
        "net.fabric.delivered",
        "serve.results_fnv",
    ] {
        assert!(a.counts.contains_key(key), "missing {key}");
    }
    assert_eq!(format!("{:?}", a.counts), format!("{:?}", b.counts));
}

#[test]
fn a_held_out_seed_runs_clean_on_every_workload() {
    for kind in Kind::ALL {
        let o = once(kind, 0xD1CE, false);
        assert!(o.correct, "{}: {o:?}", kind.name());
        assert_eq!(o.failed, 0);
        assert!(o.attempted > 0);
        assert!(o.metrics.iter().all(|&(_, _, v)| v > 0.0), "{o:?}");
    }
}

#[test]
fn the_result_line_names_every_metric_once() {
    let o = once(Kind::CorpusBare, 3, false);
    let json = o.to_json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    for (name, unit) in END_TO_END {
        let entry = format!("\"{name}\": {{\"value\": ");
        assert_eq!(json.matches(&entry).count(), 1, "{name} in {json}");
        assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
    }
    let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "layer names repeat");
}
