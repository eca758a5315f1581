//! The live fleet runs on OS threads (an agent per node, a reader per
//! interface socket). `run_live` must join every one of them before it
//! returns: a process that repeats live runs, as the benchmark does,
//! would otherwise pile up blocked readers.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use live::{run_live, LoopbackScenario};
use netsim::time::SimTime;
use workload::MovePlan;

/// This process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("status has a Threads: line")
}

/// The thread count once it settles at `want`, or the last reading
/// after a second: a joined thread can still be counted for a moment
/// while the kernel finishes its exit.
fn threads_settled_at(want: usize) -> usize {
    let t0 = Instant::now();
    loop {
        let n = threads();
        if n == want || t0.elapsed() > Duration::from_secs(1) {
            return n;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn repeated_live_runs_leave_no_threads_behind() {
    // The canonical first dwell only: one move to D and its three
    // probes, about a second of wall time.
    let mut sc = LoopbackScenario::canonical(1);
    let (at, op) = sc.moves.ops()[0];
    sc.moves = MovePlan::new().op(at, op);
    sc.probes.truncate(3);
    sc.end = SimTime::from_millis(800);

    let rt = tokio::runtime::Runtime::new().expect("runtime");
    for run in 0..2 {
        let before = threads();
        let live = rt.block_on(run_live(&sc)).expect("live run");
        assert_eq!(live.probes.len(), 3);
        assert_eq!(threads_settled_at(before), before, "run {run} left threads running");
    }
}
