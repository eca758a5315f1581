//! Pins of the engine-generic hierarchy builder and soak driver: the
//! tiny classic and sharded random-waypoint soaks must keep their exact
//! SLO reports and event counts, and the hierarchy must hand out the
//! same node and segment ids on every engine and at every shard count
//! (DESIGN.md §9–§10).

use netsim::time::SimDuration;
use scenarios::hierarchy::{Hierarchy, HierarchyParams, ShardedHierarchy};
use scenarios::soak::{run_random_waypoint_soak, run_random_waypoint_soak_sharded, RwSoakConfig};

fn tiny(shards: usize) -> RwSoakConfig {
    RwSoakConfig {
        params: HierarchyParams {
            regions: 2,
            fas_per_region: 3,
            mobiles_per_region: 6,
            ..HierarchyParams::default()
        },
        duration: SimDuration::from_secs(3),
        telemetry: true,
        shards,
        ..RwSoakConfig::default()
    }
}

/// Global random-waypoint mobility on the classic world.
const CLASSIC_REPORT: &str = r#"{
  "checks": [
    {
      "measured": 0.9907692307692307,
      "name": "delivery_ratio",
      "pass": true,
      "threshold": 0.95
    },
    {
      "measured": 4914,
      "name": "p99_latency_us",
      "pass": true,
      "threshold": 50000
    },
    {
      "measured": 1.5,
      "name": "handoff_loss_per_handoff",
      "pass": false,
      "threshold": 1
    },
    {
      "measured": 8.836923076923076,
      "name": "overhead_per_packet",
      "pass": true,
      "threshold": 16
    },
    {
      "measured": 6.333333333333333,
      "name": "update_rate_per_sec",
      "pass": true,
      "threshold": 50
    }
  ],
  "measurements": {
    "completed": 468,
    "delivered": 644,
    "failed": 0,
    "handoffs": 4,
    "latency_max_us": 4914,
    "latency_p50_us": 4914,
    "latency_p99_us": 4914,
    "overhead_bytes": 5744,
    "retries": 4,
    "rtt_p99_us": 8516,
    "sent": 650,
    "sim_seconds": 3,
    "updates_sent": 19
  },
  "pass": false,
  "workload": "random-waypoint dwell 2-6s × 8 flows (6 poisson 10/s + 2 closed-loop)",
  "world": "hierarchy 2r x 3fa x 6m"
}"#;

/// Region-confined mobility on two shards.
const SHARDED_REPORT: &str = r#"{
  "checks": [
    {
      "measured": 0.9923076923076923,
      "name": "delivery_ratio",
      "pass": true,
      "threshold": 0.95
    },
    {
      "measured": 4992,
      "name": "p99_latency_us",
      "pass": true,
      "threshold": 50000
    },
    {
      "measured": 1.6666666666666667,
      "name": "handoff_loss_per_handoff",
      "pass": false,
      "threshold": 1
    },
    {
      "measured": 9.064615384615385,
      "name": "overhead_per_packet",
      "pass": true,
      "threshold": 16
    },
    {
      "measured": 4.666666666666667,
      "name": "update_rate_per_sec",
      "pass": true,
      "threshold": 50
    }
  ],
  "measurements": {
    "completed": 468,
    "delivered": 645,
    "failed": 0,
    "handoffs": 3,
    "latency_max_us": 4992,
    "latency_p50_us": 4992,
    "latency_p99_us": 4992,
    "overhead_bytes": 5892,
    "retries": 4,
    "rtt_p99_us": 8864,
    "sent": 650,
    "sim_seconds": 3,
    "updates_sent": 14
  },
  "pass": false,
  "workload": "random-waypoint (region-confined) dwell 2-6s × 8 flows (6 poisson 10/s + 2 closed-loop)",
  "world": "hierarchy 2r x 3fa x 6m / 2 shards"
}"#;

#[test]
fn tiny_classic_soak_report_is_pinned() {
    let run = run_random_waypoint_soak(&tiny(1));
    assert_eq!(run.report.to_json(), CLASSIC_REPORT);
    assert_eq!((run.events, run.events_log.len()), (3809, 9869));
}

#[test]
fn tiny_sharded_soak_report_is_pinned() {
    let run = run_random_waypoint_soak_sharded(&tiny(2));
    assert_eq!(run.report.to_json(), SHARDED_REPORT);
    assert_eq!((run.events, run.events_log.len()), (3839, 9945));
}

#[test]
fn hierarchy_ids_match_at_every_shard_count() {
    let p = HierarchyParams {
        regions: 3,
        fas_per_region: 2,
        mobiles_per_region: 4,
        attackers: 2,
        ..HierarchyParams::default()
    };
    let classic = Hierarchy::build(p.clone());
    for shards in [1, 2, 3] {
        let sharded = ShardedHierarchy::build(p.clone(), shards);
        assert_eq!(classic.routers, sharded.routers, "routers at {shards} shards");
        assert_eq!(classic.fas, sharded.fas, "foreign agents at {shards} shards");
        assert_eq!(classic.cells, sharded.cells, "cells at {shards} shards");
        assert_eq!(classic.mobiles, sharded.mobiles, "mobiles at {shards} shards");
        assert_eq!(
            classic.correspondent, sharded.correspondent,
            "correspondent at {shards} shards"
        );
        assert_eq!(classic.attackers, sharded.attackers, "attackers at {shards} shards");
    }
}
