//! Failure-injection tests: the controller must degrade gracefully when
//! its inputs (job profiles, arrival-rate estimates) are wrong — the
//! real system's profilers are regressions over noisy observations
//! (§3.1), so robustness to estimation error is part of the contract.

use dynaplace::model::units::SimDuration;
use dynaplace::sim::engine::{EstimationNoise, NodeOutage, SimConfig};
use dynaplace::sim::scenario::{experiment_one, experiment_three, experiment_two, SharingConfig};

/// ±30% misestimated job profiles: every job still completes, and most
/// deadlines are still met (the goals carry 2.7× slack).
#[test]
fn misestimated_job_profiles_degrade_gracefully() {
    let mut config = SimConfig::apc_default();
    config.noise = EstimationNoise {
        job_work: 0.3,
        txn_rate: 0.0,
    };
    let metrics = experiment_one(42, 60, 260.0, config).run();
    assert_eq!(metrics.completions.len(), 60, "all jobs must complete");
    assert!(
        metrics.deadline_met_ratio().unwrap() >= 0.95,
        "goals have 2.7x slack; ±30% error must not break them: {:?}",
        metrics.deadline_met_ratio()
    );
}

/// Misestimation must not be able to wedge the controller even under
/// contention with mixed shapes.
#[test]
fn misestimation_under_heavy_load_still_completes() {
    let mut config = SimConfig::apc_default();
    config.noise = EstimationNoise {
        job_work: 0.4,
        txn_rate: 0.0,
    };
    let metrics = experiment_two(7, 80, 80.0, config).run();
    assert_eq!(metrics.completions.len(), 80, "all jobs must complete");
    // Under misestimation the hit rate drops but the system still works.
    assert!(metrics.deadline_met_ratio().unwrap() > 0.5);
}

/// Underestimating the transactional arrival rate starves the web tier
/// of allocation; overestimating it starves batch. Both must remain
/// stable (jobs complete, no panic, allocations within capacity).
#[test]
fn txn_rate_misestimation_is_stable() {
    for bias in [-0.3, 0.3] {
        let mut config = SimConfig::apc_default();
        config.horizon = Some(SimDuration::from_secs(40_000.0));
        config.noise = EstimationNoise {
            job_work: 0.0,
            txn_rate: bias,
        };
        let metrics = experiment_three(42, 30, 200.0, 800.0, SharingConfig::Dynamic, config).run();
        assert_eq!(metrics.completions.len(), 30, "bias {bias}");
        // Total allocation never exceeds the 25-node cluster capacity.
        for s in &metrics.samples {
            let total = s.txn_allocation.as_mhz() + s.batch_allocation.as_mhz();
            assert!(total <= 390_000.0 + 1.0, "over-allocation at {:?}", s.time);
        }
        // The actual (truth-based) transactional performance is reported
        // from the router, so underestimation shows up as reduced u —
        // but never below the representable floor, and the run finishes.
        assert!(metrics.samples.iter().all(|s| s.txn_rp.is_some()));
    }
}

/// Noise is deterministic: the same configuration reproduces bit-equal
/// runs (the bias is a pure function of the application id).
#[test]
fn noisy_runs_are_deterministic() {
    let run = || {
        let mut config = SimConfig::apc_default();
        config.noise = EstimationNoise {
            job_work: 0.25,
            txn_rate: 0.1,
        };
        experiment_two(3, 40, 120.0, config).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.completions.len(), b.completions.len());
    for (x, y) in a.completions.iter().zip(&b.completions) {
        assert_eq!(x.completion, y.completion);
    }
}

/// A node failure mid-run: jobs on the failed node are suspended and
/// re-placed on survivors; everything still completes.
#[test]
fn node_failure_recovers() {
    use dynaplace::batch::job::{JobProfile, JobSpec};
    use dynaplace::model::cluster::Cluster;
    use dynaplace::model::node::NodeSpec;
    use dynaplace::model::units::*;
    use dynaplace::model::NodeId;
    use dynaplace::rpf::goal::CompletionGoal;
    use dynaplace::sim::engine::Simulation;

    let cluster = Cluster::homogeneous(
        3,
        NodeSpec::try_new(CpuSpeed::from_mhz(2_000.0), Memory::from_mb(4_000.0))
            .expect("valid node capacities"),
    );
    let mut config = SimConfig::apc_default();
    config.cycle = SimDuration::from_secs(10.0);
    config.horizon = Some(SimDuration::from_secs(5_000.0));
    // Node 0 dies 30 s in.
    config.node_failures = vec![NodeOutage::permanent(
        SimDuration::from_secs(30.0),
        NodeId::new(0),
    )];

    let mut sim = Simulation::new(cluster, config);
    for i in 0..6 {
        sim.add_job(move |app| {
            JobSpec::new(
                app,
                JobProfile::single_stage(
                    Work::from_mcycles(100_000.0),
                    CpuSpeed::from_mhz(1_000.0),
                    Memory::from_mb(1_500.0),
                ),
                SimTime::from_secs(i as f64),
                CompletionGoal::new(SimTime::from_secs(i as f64), SimTime::from_secs(2_000.0)),
            )
        });
    }
    let metrics = sim.run();
    assert_eq!(metrics.completions.len(), 6, "all jobs survive the failure");
    // Victims of the failure were suspended and resumed elsewhere.
    assert!(metrics.changes.suspends >= 1, "failure suspends residents");
    assert!(metrics.changes.resumes >= 1, "survivors resume elsewhere");
    assert!(
        metrics.completions.iter().all(|c| c.met_deadline),
        "loose goals absorb the failure"
    );
}

/// A failed node is never used again: with only one node and a failure,
/// nothing completes after it and the run ends at the horizon.
#[test]
fn failed_single_node_halts_progress() {
    use dynaplace::batch::job::{JobProfile, JobSpec};
    use dynaplace::model::cluster::Cluster;
    use dynaplace::model::node::NodeSpec;
    use dynaplace::model::units::*;
    use dynaplace::model::NodeId;
    use dynaplace::rpf::goal::CompletionGoal;
    use dynaplace::sim::engine::Simulation;

    let cluster = Cluster::homogeneous(
        1,
        NodeSpec::try_new(CpuSpeed::from_mhz(1_000.0), Memory::from_mb(4_000.0))
            .expect("valid node capacities"),
    );
    let mut config = SimConfig::apc_default();
    config.cycle = SimDuration::from_secs(5.0);
    config.horizon = Some(SimDuration::from_secs(500.0));
    config.node_failures = vec![NodeOutage::permanent(
        SimDuration::from_secs(10.0),
        NodeId::new(0),
    )];

    let mut sim = Simulation::new(cluster, config);
    sim.add_job(|app| {
        JobSpec::new(
            app,
            JobProfile::single_stage(
                Work::from_mcycles(100_000.0), // needs 100 s — dies at 10 s
                CpuSpeed::from_mhz(1_000.0),
                Memory::from_mb(1_000.0),
            ),
            SimTime::ZERO,
            CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(400.0)),
        )
    });
    let metrics = sim.run();
    assert!(metrics.completions.is_empty(), "no capacity after failure");
    assert!(metrics.changes.suspends >= 1);
}

/// Placement-level failure drill through the shared invariant checker:
/// after a node's capacity is zeroed (the engine's failure model) and
/// its residents evicted, re-placement lands only on survivors and the
/// outcome satisfies every [`PlacementInvariants`] clause.
#[test]
fn replacement_after_node_loss_respects_invariants() {
    use dynaplace::apc::optimizer::{place, ApcConfig};
    use dynaplace::apc::problem::PlacementProblem;
    use dynaplace::model::cluster::Cluster;
    use dynaplace::model::node::NodeSpec;
    use dynaplace::model::units::{CpuSpeed, Memory};
    use dynaplace::model::NodeId;
    use dynaplace_testutil::fixtures::{JobParams, ProblemFixture, ProblemParams};
    use dynaplace_testutil::PlacementInvariants;

    let params = ProblemParams {
        nodes: vec![(2_000.0, 4_000.0), (2_000.0, 4_000.0), (2_000.0, 4_000.0)],
        jobs: (0..5)
            .map(|i| JobParams {
                work: 60_000.0 + 5_000.0 * i as f64,
                max_speed: 900.0,
                memory: 1_100.0,
                goal_factor: 2.5,
                progress: 0.2,
                placed_on: Some(i % 3),
            })
            .collect(),
        txn: None,
    };
    let fixture = ProblemFixture::build(&params);
    let healthy = place(&fixture.problem(), &ApcConfig::default());
    PlacementInvariants::assert_outcome(&fixture.problem(), &healthy);

    // Node 0 fails: zero its capacity (as the engine does) and evict
    // its residents from the incumbent placement.
    let dead = NodeId::new(0);
    let mut degraded = Cluster::new();
    for (id, spec) in fixture.cluster.iter() {
        if id == dead {
            degraded.add_node(
                NodeSpec::try_new(CpuSpeed::ZERO, Memory::ZERO).expect("valid node capacities"),
            );
        } else {
            degraded.add_node(spec.clone());
        }
    }
    let mut incumbent = healthy.placement.clone();
    let victims: Vec<_> = incumbent.apps_on(dead).map(|(app, _)| app).collect();
    assert!(
        !victims.is_empty(),
        "drill needs residents on the dead node"
    );
    for app in victims {
        while incumbent.count(app, dead) > 0 {
            incumbent.remove(app, dead).unwrap();
        }
    }
    let problem = PlacementProblem {
        cluster: &degraded,
        apps: &fixture.apps,
        workloads: fixture.workloads.clone(),
        current: &incumbent,
        now: fixture.now,
        cycle: fixture.cycle,
        forbidden: Default::default(),
    };
    let recovered = place(&problem, &ApcConfig::default());
    PlacementInvariants::assert_outcome(&problem, &recovered);
    for (app, node, count) in recovered.placement.iter() {
        assert!(
            node != dead || count == 0,
            "instances of {app:?} re-placed on the failed node"
        );
    }
    assert!(
        recovered.placement.total_placed() > 0,
        "survivors must keep hosting work"
    );
}

/// The work-profiler loop (§3.1): with online demand estimation enabled,
/// Experiment Three still equalizes — the regression converges to the
/// true per-request demand within a couple of cycles.
#[test]
fn online_demand_estimation_still_equalizes() {
    use dynaplace::sim::scenario::{experiment_three, SharingConfig};

    let mut config = SimConfig::apc_default();
    config.horizon = Some(SimDuration::from_secs(40_000.0));
    config.estimate_txn_demand = true;
    let metrics = experiment_three(42, 30, 200.0, 800.0, SharingConfig::Dynamic, config).run();
    assert_eq!(metrics.completions.len(), 30);
    // Equalization still happens under estimated demand.
    let min_gap = metrics
        .samples
        .iter()
        .filter_map(|s| match (s.txn_rp, s.batch_hypothetical_rp) {
            (Some(t), Some(b)) if s.running_jobs > 10 => Some((t.value() - b.value()).abs()),
            _ => None,
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_gap < 0.07,
        "equalization gap {min_gap} under estimation"
    );
    // And the unloaded phase still pins TX at its saturation allocation
    // (the estimate is within the ±2% measurement error).
    let tx_max = metrics
        .samples
        .iter()
        .map(|s| s.txn_allocation.as_mhz())
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        (tx_max - 130_000.0).abs() < 6_000.0,
        "saturation under estimation: {tx_max}"
    );
}
