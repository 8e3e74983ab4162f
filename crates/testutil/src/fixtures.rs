//! Randomized placement-problem fixtures shared by the property and
//! differential test suites.
//!
//! The distribution mirrors the original in-tree generator of the core
//! property suite: 1–4 heterogeneous nodes, up to six single-stage
//! batch jobs with partial progress and optional initial placements,
//! and optionally one transactional application. A fixture owns its
//! world (`Cluster`/`AppSet`/`Placement`), because
//! [`PlacementProblem`] borrows.

use std::collections::BTreeMap;
use std::sync::Arc;

use dynaplace_apc::problem::{PlacementProblem, WorkloadModel};
use dynaplace_batch::hypothetical::JobSnapshot;
use dynaplace_batch::job::JobProfile;
use dynaplace_model::prelude::*;
use dynaplace_rpf::goal::{CompletionGoal, ResponseTimeGoal};
use dynaplace_txn::model::{TxnPerformanceModel, TxnWorkload};
use proptest::prelude::*;

/// Parameters of one randomized batch job.
#[derive(Debug, Clone)]
pub struct JobParams {
    /// Total work, Mcycles.
    pub work: f64,
    /// Per-instance speed cap, MHz.
    pub max_speed: f64,
    /// Per-instance memory, MB.
    pub memory: f64,
    /// Deadline slack multiplier over the minimum execution time.
    pub goal_factor: f64,
    /// Fraction of `work` already consumed, `[0, 0.9]`.
    pub progress: f64,
    /// Requested initial node (modulo node count); dropped when
    /// infeasible so inputs stay valid.
    pub placed_on: Option<u32>,
}

/// Parameters of the optional transactional application.
#[derive(Debug, Clone)]
pub struct TxnParams {
    /// Request arrival rate, 1/s.
    pub rate: f64,
    /// CPU demand per request, Mcycles.
    pub demand: f64,
    /// Per-instance memory, MB.
    pub memory: f64,
}

/// A full randomized problem description, pre-materialization.
#[derive(Debug, Clone)]
pub struct ProblemParams {
    /// Per-node (cpu MHz, memory MB).
    pub nodes: Vec<(f64, f64)>,
    /// Batch jobs.
    pub jobs: Vec<JobParams>,
    /// Optional transactional app.
    pub txn: Option<TxnParams>,
}

/// Proptest strategy over [`ProblemParams`].
pub fn arb_problem() -> impl Strategy<Value = ProblemParams> {
    arb_problem_sized(1..5, 0..7)
}

/// Like [`arb_problem`] with explicit node/job count ranges.
pub fn arb_problem_sized(
    nodes: std::ops::Range<usize>,
    jobs: std::ops::Range<usize>,
) -> impl Strategy<Value = ProblemParams> {
    let node = (500.0..4_000.0f64, 1_000.0..8_000.0f64);
    let job = (
        1_000.0..500_000.0f64,
        100.0..2_000.0f64,
        100.0..3_000.0f64,
        1.1..5.0f64,
        0.0..0.9f64,
        proptest::option::of(0u32..4),
    )
        .prop_map(
            |(work, max_speed, memory, goal_factor, progress, placed_on)| JobParams {
                work,
                max_speed,
                memory,
                goal_factor,
                progress,
                placed_on,
            },
        );
    let txn = proptest::option::of((1.0..100.0f64, 1.0..20.0f64, 50.0..1_000.0f64).prop_map(
        |(rate, demand, memory)| TxnParams {
            rate,
            demand,
            memory,
        },
    ));
    (
        proptest::collection::vec(node, nodes),
        proptest::collection::vec(job, jobs),
        txn,
    )
        .prop_map(|(nodes, jobs, txn)| ProblemParams { nodes, jobs, txn })
}

/// A materialized world a [`PlacementProblem`] can borrow from.
pub struct ProblemFixture {
    /// The cluster.
    pub cluster: Cluster,
    /// Application specs.
    pub apps: AppSet,
    /// Live workload models.
    pub workloads: BTreeMap<AppId, WorkloadModel>,
    /// The incumbent placement.
    pub current: Placement,
    /// Cycle start.
    pub now: SimTime,
    /// Cycle length.
    pub cycle: SimDuration,
}

impl ProblemFixture {
    /// Materializes a parameter set.
    pub fn build(params: &ProblemParams) -> Self {
        let now = SimTime::from_secs(1_000.0);
        let cycle = SimDuration::from_secs(60.0);
        let mut cluster = Cluster::new();
        for &(cpu, mem) in &params.nodes {
            cluster.add_node(
                NodeSpec::try_new(CpuSpeed::from_mhz(cpu), Memory::from_mb(mem))
                    .expect("valid node capacities"),
            );
        }
        let mut apps = AppSet::new();
        let mut workloads = BTreeMap::new();
        let mut current = Placement::new();
        for jp in &params.jobs {
            let app = apps.add(ApplicationSpec::batch(
                Memory::from_mb(jp.memory),
                CpuSpeed::from_mhz(jp.max_speed),
            ));
            let profile = Arc::new(JobProfile::single_stage(
                Work::from_mcycles(jp.work),
                CpuSpeed::from_mhz(jp.max_speed),
                Memory::from_mb(jp.memory),
            ));
            let goal =
                CompletionGoal::from_goal_factor(now, profile.min_execution_time(), jp.goal_factor);
            let mut placed = false;
            if let Some(n) = jp.placed_on {
                let node = NodeId::new(n % params.nodes.len() as u32);
                if current.checked_place(app, node, &cluster, &apps).is_ok() {
                    placed = true;
                }
            }
            workloads.insert(
                app,
                WorkloadModel::Batch(JobSnapshot::new(
                    app,
                    goal,
                    profile,
                    Work::from_mcycles(jp.work * jp.progress),
                    if placed { SimDuration::ZERO } else { cycle },
                )),
            );
        }
        if let Some(tp) = &params.txn {
            let app = apps.add(ApplicationSpec::transactional(
                Memory::from_mb(tp.memory),
                CpuSpeed::from_mhz(f64::INFINITY),
                params.nodes.len() as u32,
            ));
            workloads.insert(app, txn_model(tp));
        }
        ProblemFixture {
            cluster,
            apps,
            workloads,
            current,
            now,
            cycle,
        }
    }

    /// Adds one web tier per entry of `txns`, each placed on every node
    /// its memory still fits, so the tiers span several nodes and share
    /// them — the water-filler's max-flow path, which [`Self::build`]
    /// (at most one web tier, never pre-placed) does not reach.
    pub fn add_spanning_txns(&mut self, txns: &[TxnParams]) {
        let nodes: Vec<NodeId> = self.cluster.node_ids().collect();
        for tp in txns {
            let app = self.apps.add(ApplicationSpec::transactional(
                Memory::from_mb(tp.memory),
                CpuSpeed::from_mhz(f64::INFINITY),
                nodes.len() as u32,
            ));
            self.workloads.insert(app, txn_model(tp));
            for &node in &nodes {
                let _ = self
                    .current
                    .checked_place(app, node, &self.cluster, &self.apps);
            }
        }
    }

    /// Borrows the fixture as a [`PlacementProblem`].
    pub fn problem(&self) -> PlacementProblem<'_> {
        PlacementProblem {
            cluster: &self.cluster,
            apps: &self.apps,
            workloads: self.workloads.clone(),
            current: &self.current,
            now: self.now,
            cycle: self.cycle,
            forbidden: Default::default(),
        }
    }
}

/// The queueing model of a generated web tier.
fn txn_model(tp: &TxnParams) -> WorkloadModel {
    WorkloadModel::Transactional(TxnPerformanceModel::new(
        TxnWorkload::new(tp.rate, tp.demand, SimDuration::from_secs(0.004)),
        ResponseTimeGoal::new(SimDuration::from_secs(0.05)),
    ))
}
