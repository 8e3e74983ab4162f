//! Directed end-to-end tests for the cell-sharded placement escalation
//! and rebalancing paths (`crates/core/src/shard.rs`), driven through
//! the public [`place_traced`] API:
//!
//! - a pin spanning two cells escalates with `CrossCellPin` and the
//!   residual pass still honors the pin;
//! - a footprint too large for any cell escalates with `Oversized` and
//!   is placed across cell boundaries;
//! - the cross-cell rebalancer adopts a move that clears
//!   `rebalance_threshold` and rejects the same move when the threshold
//!   is raised above the achievable gain, visible both in the final
//!   placement and in the `RebalanceMove` trace events.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::sync::Mutex;

use dynaplace_apc::optimizer::{place_traced, ApcConfig};
use dynaplace_apc::problem::{PlacementProblem, WorkloadModel};
use dynaplace_apc::ShardingPolicy;
use dynaplace_batch::hypothetical::JobSnapshot;
use dynaplace_batch::job::JobProfile;
use dynaplace_model::app::ApplicationSpec;
use dynaplace_model::cluster::{AppSet, Cluster};
use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_model::node::NodeSpec;
use dynaplace_model::placement::Placement;
use dynaplace_model::units::{CpuSpeed, Memory, SimDuration, SimTime, Work};
use dynaplace_rpf::goal::CompletionGoal;
use dynaplace_testutil::assert_placement_valid;
use dynaplace_trace::{EscalationReason, TraceEvent, TraceLevel, TraceSink};

/// A sink that keeps every decision-level event for later inspection.
#[derive(Debug, Default)]
struct CollectingSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl CollectingSink {
    fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace buffer poisoned").clone()
    }
}

impl TraceSink for CollectingSink {
    fn wants(&self, _level: TraceLevel) -> bool {
        true
    }

    fn record(&self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("trace buffer poisoned")
            .push(event.clone());
    }
}

struct World {
    cluster: Cluster,
    apps: AppSet,
    current: Placement,
    workloads: BTreeMap<AppId, WorkloadModel>,
}

impl World {
    fn new(nodes: usize) -> Self {
        let node = NodeSpec::try_new(CpuSpeed::from_mhz(1_000.0), Memory::from_mb(4_000.0))
            .expect("valid node capacities");
        World {
            cluster: Cluster::homogeneous(nodes, node),
            apps: AppSet::new(),
            current: Placement::new(),
            workloads: BTreeMap::new(),
        }
    }

    /// A single-stage batch job with `work` megacycles due `deadline`
    /// seconds from now, running at up to 500 MHz per instance.
    fn add_batch_spec(&mut self, spec: ApplicationSpec, work: f64, deadline: f64) -> AppId {
        let app = self.apps.add(spec);
        self.workloads.insert(
            app,
            WorkloadModel::Batch(JobSnapshot::new(
                app,
                CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(deadline)),
                Arc::new(JobProfile::single_stage(
                    Work::from_mcycles(work),
                    CpuSpeed::from_mhz(500.0),
                    Memory::from_mb(1_000.0),
                )),
                Work::ZERO,
                SimDuration::from_secs(30.0),
            )),
        );
        app
    }

    fn add_batch(&mut self, work: f64, deadline: f64) -> AppId {
        self.add_batch_spec(
            ApplicationSpec::batch(Memory::from_mb(1_000.0), CpuSpeed::from_mhz(500.0)),
            work,
            deadline,
        )
    }

    fn problem(&self) -> PlacementProblem<'_> {
        PlacementProblem {
            cluster: &self.cluster,
            apps: &self.apps,
            workloads: self.workloads.clone(),
            current: &self.current,
            now: SimTime::ZERO,
            cycle: SimDuration::from_secs(30.0),
            forbidden: BTreeSet::new(),
        }
    }
}

fn sharded_config(policy: ShardingPolicy) -> ApcConfig {
    ApcConfig::builder()
        .sharding(Some(policy))
        .build()
        .expect("valid sharded config")
}

fn escalations(events: &[TraceEvent]) -> Vec<(AppId, EscalationReason)> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::CellEscalated { app, reason, .. } => Some((*app, *reason)),
            _ => None,
        })
        .collect()
}

/// `(app, from_cell, to_cell, adopted)` for every rebalance attempt.
fn rebalance_moves(events: &[TraceEvent]) -> Vec<(AppId, u64, u64, bool)> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RebalanceMove {
                app,
                from_cell,
                to_cell,
                adopted,
                ..
            } => Some((*app, *from_cell, *to_cell, *adopted)),
            _ => None,
        })
        .collect()
}

fn placed_nodes(placement: &Placement, app: AppId) -> BTreeSet<NodeId> {
    placement
        .iter()
        .filter(|&(a, _, count)| a == app && count > 0)
        .map(|(_, node, _)| node)
        .collect()
}

#[test]
fn cross_cell_pin_escalates_and_residual_pass_honors_the_pin() {
    let mut world = World::new(8);
    // Pinned to one node in cell 0 and one in cell 1 (cell size 4).
    let pinned = world.add_batch_spec(
        ApplicationSpec::batch(Memory::from_mb(1_000.0), CpuSpeed::from_mhz(500.0))
            .with_allowed_nodes([NodeId::new(1), NodeId::new(6)]),
        10_000.0,
        600.0,
    );
    let plain = world.add_batch(10_000.0, 600.0);
    let problem = world.problem();

    let sink = CollectingSink::default();
    let outcome = place_traced(&problem, &sharded_config(ShardingPolicy::new(4)), &sink);

    let events = sink.events();
    assert_eq!(
        escalations(&events),
        vec![(pinned, EscalationReason::CrossCellPin)],
        "exactly the cross-cell pinned app escalates"
    );
    let nodes = placed_nodes(&outcome.placement, pinned);
    assert!(
        !nodes.is_empty(),
        "the residual pass places the escalated app"
    );
    assert!(
        nodes.is_subset(&[NodeId::new(1), NodeId::new(6)].into()),
        "escalated placement honors the pin, got {nodes:?}"
    );
    assert!(
        !placed_nodes(&outcome.placement, plain).is_empty(),
        "cell-confined apps are still placed"
    );
    assert_placement_valid(&problem, &outcome.placement, Some(&outcome.score.load));
}

#[test]
fn oversized_footprint_escalates_to_the_residual_pass() {
    let mut world = World::new(8);
    // 12 tasks x 500 MHz = 6000 MHz estimated *peak* demand, beyond any
    // 4-node (4000 MHz) cell — but not beyond the 8000 MHz cluster.
    // Escalation keys off the peak estimate; the residual pass is then
    // free to start only as many tasks as the goal actually needs.
    let huge = world.add_batch_spec(
        ApplicationSpec::batch_parallel(Memory::from_mb(100.0), CpuSpeed::from_mhz(500.0), 12),
        100_000.0,
        120.0,
    );
    let problem = world.problem();

    let sink = CollectingSink::default();
    let outcome = place_traced(&problem, &sharded_config(ShardingPolicy::new(4)), &sink);

    assert_eq!(
        escalations(&sink.events()),
        vec![(huge, EscalationReason::Oversized)],
        "the cell-oversized app escalates"
    );
    // Escalating must not cost capacity: the residual pass starts the
    // app exactly as the classic whole-cluster search would.
    let instance_count = |placement: &Placement| -> u32 {
        placement
            .iter()
            .filter(|&(app, _, _)| app == huge)
            .map(|(_, _, count)| count)
            .sum()
    };
    let classic = place_traced(
        &problem,
        &ApcConfig::builder().build().expect("valid classic config"),
        &dynaplace_trace::NoopSink,
    );
    let instances = instance_count(&outcome.placement);
    assert!(instances > 0, "the residual pass places the escalated app");
    assert_eq!(
        instances,
        instance_count(&classic.placement),
        "escalation starts as many tasks as the classic search"
    );
    assert_placement_valid(&problem, &outcome.placement, Some(&outcome.score.load));
}

/// Five tight-deadline jobs squeezed into cell 0 of a two-cell cluster:
/// cell 0 is oversubscribed (2500 MHz demand on 2000 MHz) while cell 1
/// idles, so moving one job across is the clear global win.
fn saturated_two_cell_world() -> (World, Vec<AppId>) {
    let mut world = World::new(4);
    let apps: Vec<AppId> = (0..5).map(|_| world.add_batch(250_000.0, 600.0)).collect();
    // Current instances keep each app sticky in cell 0 (nodes 0..2).
    for (i, &app) in apps.iter().enumerate() {
        world.current.place(app, NodeId::new(i as u32 % 2));
    }
    (world, apps)
}

#[test]
fn rebalance_adopts_a_move_that_clears_the_threshold() {
    let (world, _) = saturated_two_cell_world();
    let problem = world.problem();

    let policy = ShardingPolicy {
        cell_size: 2,
        rebalance_moves: 4,
        rebalance_threshold: 1e-6,
    };
    let sink = CollectingSink::default();
    let outcome = place_traced(&problem, &sharded_config(policy), &sink);

    let moves = rebalance_moves(&sink.events());
    assert!(
        moves
            .iter()
            .any(|&(_, from, to, adopted)| adopted && from == 0 && to == 1),
        "a cell-0 -> cell-1 move is adopted past a tiny threshold, got {moves:?}"
    );
    let cell1_nodes: BTreeSet<NodeId> = [NodeId::new(2), NodeId::new(3)].into();
    assert!(
        outcome
            .placement
            .iter()
            .any(|(_, node, count)| count > 0 && cell1_nodes.contains(&node)),
        "an adopted rebalance lands instances in cell 1"
    );
    assert!(outcome.stats.adoptions > 0);
    assert_placement_valid(&problem, &outcome.placement, Some(&outcome.score.load));
}

#[test]
fn rebalance_rejects_the_same_move_above_the_threshold() {
    let (world, _) = saturated_two_cell_world();
    let problem = world.problem();

    let policy = ShardingPolicy {
        cell_size: 2,
        rebalance_moves: 4,
        rebalance_threshold: 1e9,
    };
    let sink = CollectingSink::default();
    let outcome = place_traced(&problem, &sharded_config(policy), &sink);

    let moves = rebalance_moves(&sink.events());
    assert!(
        !moves.is_empty() && moves.iter().all(|&(.., adopted)| !adopted),
        "every attempted move is rejected under an unreachable threshold, got {moves:?}"
    );
    let cell1_nodes: BTreeSet<NodeId> = [NodeId::new(2), NodeId::new(3)].into();
    assert!(
        outcome
            .placement
            .iter()
            .all(|(_, node, count)| count == 0 || !cell1_nodes.contains(&node)),
        "rejected moves leave cell 1 empty"
    );
    assert_placement_valid(&problem, &outcome.placement, Some(&outcome.score.load));
}

#[test]
fn zero_rebalance_moves_disables_the_rebalancer() {
    let (world, _) = saturated_two_cell_world();
    let problem = world.problem();

    let policy = ShardingPolicy {
        cell_size: 2,
        rebalance_moves: 0,
        rebalance_threshold: 0.0,
    };
    let sink = CollectingSink::default();
    let outcome = place_traced(&problem, &sharded_config(policy), &sink);

    assert!(
        rebalance_moves(&sink.events()).is_empty(),
        "rebalance_moves = 0 must not attempt any move"
    );
    assert_placement_valid(&problem, &outcome.placement, Some(&outcome.score.load));
}
