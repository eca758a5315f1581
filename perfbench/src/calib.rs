//! The reference kernel that host times of the simulated workloads are
//! scaled by.
//!
//! On a shared virtual machine the host's speed for simulator-like code
//! drifts by up to 2× over minutes, while a plain arithmetic loop barely
//! moves. Ten 40 s runs of `roam_traffic_1k` gave medians of 1.54–2.71 s
//! for the same work. Repeating iterations inside a run cannot average
//! drift that lasts longer than the run.
//!
//! This kernel is a fixed piece of simulator-shaped work: a binary-heap
//! event queue, per-node state, a hash table with inserts and removals,
//! and a small allocation per event. It uses none of the workspace
//! crates, so no change to them moves it. A run times it before every
//! iteration. Each host time of a simulated workload is then reported
//! at the kernel's nominal speed: the run's median multiplied by
//! [`NOMINAL_S`] over the kernel's median time in the same run. A
//! change that makes the crates faster or slower moves the scaled
//! figure as much as the raw one. The raw medians are printed too.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// The kernel's host time at nominal speed, in seconds: about its
/// median on the 2-vCPU machine the figures in `README.md` come from.
pub const NOMINAL_S: f64 = 0.2;

/// Nodes whose state the events update.
const NODES: usize = 60_000;
/// Key space of the hash table.
const KEYS: u64 = 400_000;
/// Events processed per call.
const EVENTS: u32 = 400_000;

#[derive(Clone, Default)]
struct NodeState {
    seen: u64,
    last: u64,
    acc: [u32; 12],
}

/// Runs the kernel once and returns the host seconds of its event loop
/// (set-up excluded). The work is the same for every `seed`.
pub fn reference_s(seed: u64) -> f64 {
    let mut x = seed | 1;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut state = vec![NodeState::default(); NODES];
    let mut table: HashMap<u64, u64> = HashMap::new();
    let mut queue = BinaryHeap::with_capacity(NODES + 1);
    for node in 0..NODES as u64 {
        queue.push(Reverse((rnd() % 1_000_000, node)));
    }
    let t0 = Instant::now();
    let mut sink = 0u64;
    for _ in 0..EVENTS {
        let Some(Reverse((at, node))) = queue.pop() else { break };
        let s = &mut state[node as usize];
        s.seen += 1;
        s.last = at;
        let slot = (at % 12) as usize;
        s.acc[slot] = s.acc[slot].wrapping_add(node as u32);
        *table.entry(rnd() % KEYS).or_insert(0) += at;
        if rnd() % 4 == 0 {
            table.remove(&(rnd() % KEYS));
        }
        let payload = vec![(at & 0xff) as u8; 40 + (node % 80) as usize];
        sink = sink.wrapping_add(payload.iter().map(|&b| u64::from(b)).sum::<u64>());
        queue.push(Reverse((at + 1 + rnd() % 5_000, rnd() % NODES as u64)));
    }
    std::hint::black_box(sink);
    t0.elapsed().as_secs_f64()
}
