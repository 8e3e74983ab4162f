//! Property-based tests for the placement controller: on randomized
//! problems, the optimizer's output must always satisfy every model
//! invariant, and the load distributor must be max-min optimal against a
//! brute-force reference on small instances.

use std::collections::BTreeMap;
use std::sync::Arc;

use dynaplace_apc::load::distribute;
use dynaplace_apc::optimizer::{fill_only, place, ApcConfig};
use dynaplace_apc::problem::{PlacementProblem, WorkloadModel};
use dynaplace_batch::hypothetical::JobSnapshot;
use dynaplace_batch::job::JobProfile;
use dynaplace_model::prelude::*;
use dynaplace_rpf::goal::{CompletionGoal, ResponseTimeGoal};
use dynaplace_rpf::model::PerformanceModel;
use dynaplace_rpf::value::Rp;
use dynaplace_txn::model::{TxnPerformanceModel, TxnWorkload};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct JobParams {
    work: f64,
    max_speed: f64,
    memory: f64,
    goal_factor: f64,
    progress: f64,
    placed_on: Option<u32>,
}

#[derive(Debug, Clone)]
struct TxnParams {
    rate: f64,
    demand: f64,
    memory: f64,
}

#[derive(Debug, Clone)]
struct ProblemParams {
    nodes: Vec<(f64, f64)>, // (cpu, memory)
    jobs: Vec<JobParams>,
    txn: Option<TxnParams>,
}

fn arb_problem() -> impl Strategy<Value = ProblemParams> {
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
        proptest::collection::vec(node, 1..5),
        proptest::collection::vec(job, 0..7),
        txn,
    )
        .prop_map(|(nodes, jobs, txn)| ProblemParams { nodes, jobs, txn })
}

struct World {
    cluster: Cluster,
    apps: AppSet,
    workloads: BTreeMap<AppId, WorkloadModel>,
    current: Placement,
}

fn build(params: &ProblemParams) -> World {
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
    let now = SimTime::from_secs(1_000.0);
    let cycle = SimDuration::from_secs(60.0);
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
        // Try to honour the requested placement; drop it if the node
        // doesn't exist or memory doesn't allow (keeps inputs valid).
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
        workloads.insert(
            app,
            WorkloadModel::Transactional(TxnPerformanceModel::new(
                TxnWorkload::new(tp.rate, tp.demand, SimDuration::from_secs(0.004)),
                ResponseTimeGoal::new(SimDuration::from_secs(0.05)),
            )),
        );
    }
    World {
        cluster,
        apps,
        workloads,
        current,
    }
}

fn problem<'a>(w: &'a World) -> PlacementProblem<'a> {
    PlacementProblem {
        cluster: &w.cluster,
        apps: &w.apps,
        workloads: w.workloads.clone(),
        current: &w.current,
        now: SimTime::from_secs(1_000.0),
        cycle: SimDuration::from_secs(60.0),
        forbidden: Default::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the optimizer returns is a valid placement with a valid
    /// load distribution, and it covers every live application in the
    /// satisfaction vector.
    #[test]
    fn optimizer_output_is_always_valid(params in arb_problem()) {
        let w = build(&params);
        let p = problem(&w);
        for outcome in [place(&p, &ApcConfig::default()), fill_only(&p, &ApcConfig::default())] {
            outcome
                .placement
                .validate(&w.cluster, &w.apps)
                .expect("placement must satisfy all constraints");
            outcome
                .score
                .load
                .validate(&outcome.placement, &w.cluster, &w.apps)
                .expect("load must satisfy all constraints");
            prop_assert_eq!(outcome.score.satisfaction.len(), w.workloads.len());
        }
    }

    /// The optimizer never makes things worse than the incumbent
    /// placement.
    #[test]
    fn optimizer_never_regresses(params in arb_problem()) {
        let w = build(&params);
        let p = problem(&w);
        let before = dynaplace_apc::evaluate::score_placement(&p, &w.current)
            .expect("incumbent feasible");
        let after = place(&p, &ApcConfig::default());
        prop_assert_ne!(
            after.score.satisfaction.compare(&before.satisfaction, 1e-9),
            std::cmp::Ordering::Less,
            "optimization regressed"
        );
    }

    /// fill_only's actions are starts only.
    #[test]
    fn fill_only_actions_are_starts(params in arb_problem()) {
        let w = build(&params);
        let p = problem(&w);
        let outcome = fill_only(&p, &ApcConfig::default());
        for action in &outcome.actions {
            let is_start = matches!(action, PlacementAction::Start { .. });
            prop_assert!(is_start, "non-start action: {}", action);
        }
    }

    /// The load distributor is max-min optimal against brute force on a
    /// single node with two placed jobs: no alternative split achieves a
    /// strictly better sorted performance pair.
    #[test]
    fn load_distribution_is_maxmin_optimal_two_jobs(
        cpu in 500.0..3_000.0f64,
        w1 in 1_000.0..200_000.0f64,
        w2 in 1_000.0..200_000.0f64,
        s1 in 200.0..2_000.0f64,
        s2 in 200.0..2_000.0f64,
        f1 in 1.2..5.0f64,
        f2 in 1.2..5.0f64,
    ) {
        let now = SimTime::from_secs(0.0);
        let mut cluster = Cluster::new();
        let n0 = cluster.add_node(NodeSpec::try_new(
            CpuSpeed::from_mhz(cpu),
            Memory::from_mb(10_000.0),
        ).expect("valid node capacities"));
        let mut apps = AppSet::new();
        let mut workloads = BTreeMap::new();
        let mut current = Placement::new();
        let mut snaps = Vec::new();
        for (work, speed, factor) in [(w1, s1, f1), (w2, s2, f2)] {
            let app = apps.add(ApplicationSpec::batch(
                Memory::from_mb(100.0),
                CpuSpeed::from_mhz(speed),
            ));
            let profile = Arc::new(JobProfile::single_stage(
                Work::from_mcycles(work),
                CpuSpeed::from_mhz(speed),
                Memory::from_mb(100.0),
            ));
            let goal = CompletionGoal::from_goal_factor(
                now,
                profile.min_execution_time(),
                factor,
            );
            let snap = JobSnapshot::new(app, goal, profile, Work::ZERO, SimDuration::ZERO);
            snaps.push(snap.clone());
            workloads.insert(app, WorkloadModel::Batch(snap));
            current.place(app, n0);
        }
        let p = PlacementProblem {
            cluster: &cluster,
            apps: &apps,
            workloads,
            current: &current,
            now,
            cycle: SimDuration::from_secs(60.0),
            forbidden: Default::default(),
        };
        let load = distribute(&p, &current).expect("feasible");
        let a0 = load.app_total(AppId::new(0)).as_mhz();
        let a1 = load.app_total(AppId::new(1)).as_mhz();

        // Direct performance of an allocation for job i: u such that
        // demand(u) = alloc (inverted numerically).
        let perf = |snap: &JobSnapshot, alloc: f64| -> f64 {
            // Find u by bisection on the monotone demand function.
            let mut lo = dynaplace_rpf::RP_FLOOR;
            let mut hi = snap.u_max(now).value();
            for _ in 0..60 {
                let mid = (lo + hi) / 2.0;
                if snap.demand_for(now, Rp::new(mid)).as_mhz() <= alloc {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        let mut ours = [perf(&snaps[0], a0), perf(&snaps[1], a1)];
        ours.sort_by(f64::total_cmp);

        // Brute force over 200 splits of the node's CPU.
        for k in 0..=200 {
            let b0 = (cpu * k as f64 / 200.0).min(snaps[0].max_speed().as_mhz());
            let b1 = (cpu - b0).min(snaps[1].max_speed().as_mhz()).max(0.0);
            let mut alt = [perf(&snaps[0], b0), perf(&snaps[1], b1)];
            alt.sort_by(f64::total_cmp);
            // Strict lexicographic with a small numeric slack: the
            // alternative must raise the minimum by more than the
            // tolerance, or — *without lowering the minimum at all* —
            // raise the second element. (A looser first-element band
            // would wrongly flag trades of −ε on the min for +δ on the
            // max, which max-min fairness forbids.)
            let tol = 2e-3;
            let beats = (alt[0] > ours[0] + tol)
                || (alt[0] > ours[0] - 1e-7 && alt[1] > ours[1] + tol);
            prop_assert!(
                !beats,
                "split {}/{} yields {:?}, ours {}/{} yields {:?}",
                b0, b1, alt, a0, a1, ours
            );
        }
    }

    /// Transactional demand/performance consistency holds across the
    /// whole performance range (fuzzed model parameters).
    #[test]
    fn txn_model_inverse_consistency(
        rate in 0.1..1_000.0f64,
        demand in 0.1..500.0f64,
        floor_ms in 0.5..50.0f64,
        goal_scale in 1.1..20.0f64,
        u in -5.0..0.95f64,
    ) {
        let floor = SimDuration::from_secs(floor_ms / 1_000.0);
        let goal = ResponseTimeGoal::new(SimDuration::from_secs(
            floor.as_secs() * goal_scale,
        ));
        let m = TxnPerformanceModel::new(TxnWorkload::new(rate, demand, floor), goal);
        let u = Rp::new(u.min(m.max_performance().value() - 1e-6));
        if u <= Rp::FLOOR {
            return Ok(());
        }
        let omega = m.demand(u);
        let back = m.performance(omega);
        prop_assert!(
            back.approx_eq(u, 1e-6),
            "u={} -> omega={} -> {}", u, omega, back
        );
    }
}
