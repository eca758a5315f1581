//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints every metric by name and unit, then one JSON result line.
//! Exits 1 when an output check fails, 2 on bad arguments.

use perfbench::{run, Config, WORKLOADS};

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let mut cfg =
        Config { workload: String::new(), seed: 1994, seconds: 10.0, trace: false, toy: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => cfg.workload = value(),
            "--seed" => cfg.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cfg.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        usage();
    }
    let out = run(&cfg);
    for line in &out.lines {
        println!("{line}");
    }
    println!("{}", out.result);
    std::process::exit(if out.correct { 0 } else { 1 });
}
