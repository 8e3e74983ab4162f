//! Directed end-to-end tests for the cell-sharded placement escalation
//! paths and cell fences (`crates/core/src/shard.rs`), driven through
//! the public [`place_traced`] API:
//!
//! - a pin spanning two cells escalates with `CrossCellPin` and the
//!   residual pass still honors the pin;
//! - a footprint too large for any cell escalates with `Oversized` and
//!   is placed across cell boundaries;
//! - a saturated cell keeps its apps even while a neighbouring cell
//!   idles: cells are fences within one placement call;
//! - the pass totals equal the per-cell `CellExit` counters plus the one
//!   merge scoring.

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
/// idles, so moving one job across would be a global win.
fn saturated_two_cell_world() -> World {
    let mut world = World::new(4);
    // Current instances keep each app sticky in cell 0 (nodes 0..2).
    for i in 0..5 {
        let app = world.add_batch(250_000.0, 600.0);
        world.current.place(app, NodeId::new(i % 2));
    }
    world
}

#[test]
fn a_saturated_cell_keeps_its_apps_behind_the_fence() {
    let world = saturated_two_cell_world();
    let problem = world.problem();

    let sink = CollectingSink::default();
    let outcome = place_traced(&problem, &sharded_config(ShardingPolicy::new(2)), &sink);

    assert!(
        outcome
            .placement
            .iter()
            .all(|(_, node, count)| count == 0 || node.index() < 2),
        "no cell-0 app crosses into cell 1, got {:?}",
        outcome.placement
    );
    assert!(
        !sink
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::RebalanceMove { .. })),
        "no cross-cell move is tried"
    );
    assert_placement_valid(&problem, &outcome.placement, Some(&outcome.score.load));
}

#[test]
fn pass_totals_are_the_cell_exits_plus_the_merge_scoring() {
    // Four unplaced jobs packed across two cells; nothing escalates.
    let mut world = World::new(4);
    for _ in 0..4 {
        world.add_batch(50_000.0, 600.0);
    }
    let problem = world.problem();

    let sink = CollectingSink::default();
    let outcome = place_traced(&problem, &sharded_config(ShardingPolicy::new(2)), &sink);

    let events = sink.events();
    assert!(escalations(&events).is_empty(), "nothing escalates");
    let (mut cells, mut evaluations, mut adoptions) = (0, 0, 0);
    for event in &events {
        if let TraceEvent::CellExit {
            evaluations: e,
            adoptions: a,
            ..
        } = event
        {
            cells += 1;
            evaluations += e;
            adoptions += a;
        }
    }
    assert_eq!(cells, 2, "both cells are solved");
    assert!(adoptions > 0, "the cells start the jobs");
    assert_eq!(outcome.stats.evaluations as u64, evaluations + 1);
    assert_eq!(outcome.stats.adoptions as u64, adoptions);
}
