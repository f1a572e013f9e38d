//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics by name and unit, then, as
//! the last line, one JSON object with the verdict of its checks and the
//! metrics (`--trace 0`: end to end; `--trace 1`: per layer).

use std::process::ExitCode;

use perfbench::inputs::RtPlan;
use perfbench::{rt, sim};

const WORKLOADS: [&str; 3] = ["bulk_move", "op_churn", "sim_soak"];

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {val}"))
        };
        match (flag.as_str(), num()) {
            ("--workload", _) => workload = Some(val.clone()),
            ("--seed", Ok(n)) => seed = n,
            ("--seconds", Ok(n)) if n > 0 => seconds = n,
            ("--trace", Ok(n)) if n <= 1 => trace = n == 1,
            (_, Err(e)) => return usage(&e),
            _ => return usage(&format!("bad argument {flag} {val}")),
        }
    }
    // A traced run makes two passes (untraced, then traced) in the time
    // of one.
    let seconds = if trace { (seconds / 2).max(1) } else { seconds };
    let report = match workload.as_deref() {
        Some("bulk_move") => rt::run(RtPlan::bulk_move(seed, seconds), seconds, trace),
        Some("op_churn") => rt::run(RtPlan::op_churn(seed, seconds), seconds, trace),
        Some("sim_soak") => sim::run(seed, seconds, trace),
        Some(w) => return usage(&format!("unknown workload {w}")),
        None => return usage("--workload is required"),
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# available parallelism: {cpus}");
    print!("{}", report.text());
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
