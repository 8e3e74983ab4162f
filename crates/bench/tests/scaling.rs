//! Thousand-node scaling acceptance check for cell-sharded placement.
//!
//! Ignored by default — timing assertions only mean something in
//! release mode on a quiet machine. Run with:
//!
//! ```text
//! cargo test --release -p dynaplace-bench --test scaling -- --ignored --nocapture
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dynaplace_apc::optimizer::{place, ApcConfig};
use dynaplace_apc::problem::{PlacementProblem, WorkloadModel};
use dynaplace_apc::ShardingPolicy;
use dynaplace_batch::hypothetical::JobSnapshot;
use dynaplace_batch::job::JobProfile;
use dynaplace_model::prelude::*;
use dynaplace_rpf::goal::CompletionGoal;

struct World {
    cluster: Cluster,
    apps: AppSet,
    workloads: BTreeMap<AppId, WorkloadModel>,
    current: Placement,
}

/// Three jobs per node, two already running — the same shape as the
/// criterion `sharded_scaling` benchmark.
fn sized_world(nodes: usize) -> World {
    let cluster = Cluster::homogeneous(
        nodes,
        NodeSpec::try_new(CpuSpeed::from_mhz(4.0 * 3_900.0), Memory::from_mb(16_384.0))
            .expect("valid node capacities"),
    );
    let jobs = nodes * 3;
    let running = nodes * 2;
    let mut apps = AppSet::new();
    let mut workloads = BTreeMap::new();
    let mut current = Placement::new();
    let profile = Arc::new(JobProfile::single_stage(
        Work::from_mcycles(68_640_000.0),
        CpuSpeed::from_mhz(3_900.0),
        Memory::from_mb(4_320.0),
    ));
    let cycle = SimDuration::from_secs(600.0);
    for i in 0..jobs {
        let app = apps.add(ApplicationSpec::batch(
            Memory::from_mb(4_320.0),
            CpuSpeed::from_mhz(3_900.0),
        ));
        let arrival = SimTime::from_secs(i as f64 * 260.0);
        let goal = CompletionGoal::from_goal_factor(arrival, profile.min_execution_time(), 2.7);
        let placed = i < running;
        let consumed = if placed {
            Work::from_mcycles(1_000_000.0 * (i % 17) as f64)
        } else {
            Work::ZERO
        };
        let snap = JobSnapshot::new(
            app,
            goal,
            Arc::clone(&profile),
            consumed,
            if placed { SimDuration::ZERO } else { cycle },
        );
        workloads.insert(app, WorkloadModel::Batch(snap));
        if placed {
            current.place(app, NodeId::new((i % nodes) as u32));
        }
    }
    World {
        cluster,
        apps,
        workloads,
        current,
    }
}

fn problem(world: &World) -> PlacementProblem<'_> {
    PlacementProblem::new(
        &world.cluster,
        &world.apps,
        world.workloads.clone(),
        &world.current,
        SimTime::from_secs(100_000.0),
        SimDuration::from_secs(600.0),
        Default::default(),
    )
    .expect("scaling worlds are well-formed")
}

/// The PR's headline acceptance criterion: on a 1,000-node cluster a
/// sharded control cycle is at least 4× faster than the whole-cluster
/// search, and the sharded placement's worst satisfaction is no worse.
#[test]
#[ignore = "timing assertion; run in release mode"]
fn sharded_cycle_is_4x_faster_at_1000_nodes() {
    let world = sized_world(1_000);
    let unsharded_cfg = ApcConfig::default();
    let sharded_cfg = ApcConfig::builder()
        .sharding(Some(ShardingPolicy::new(64)))
        .build()
        .expect("valid sharded config");

    let t0 = Instant::now();
    let classic = place(&problem(&world), &unsharded_cfg);
    let classic_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let shard = place(&problem(&world), &sharded_cfg);
    let sharded_secs = t1.elapsed().as_secs_f64();

    let worst = |o: &dynaplace_apc::optimizer::PlacementOutcome| {
        o.score
            .satisfaction
            .entries()
            .first()
            .map(|&(_, u)| u.value())
            .unwrap_or(f64::INFINITY)
    };
    println!(
        "1000 nodes: unsharded {classic_secs:.2}s (worst u {:+.4}), \
         sharded {sharded_secs:.2}s (worst u {:+.4}), speedup {:.1}x",
        worst(&classic),
        worst(&shard),
        classic_secs / sharded_secs
    );
    assert!(
        classic_secs >= 4.0 * sharded_secs,
        "sharding speedup below the 4x bar: {classic_secs:.2}s vs {sharded_secs:.2}s"
    );
    let instances = |p: &Placement| -> u32 { p.iter().map(|(_, _, count)| count).sum() };
    assert_eq!(
        instances(&shard.placement),
        instances(&classic.placement),
        "sharded run should place as many instances as the classic search"
    );
}
