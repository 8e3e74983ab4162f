//! Reconciliation-loop properties: fallible actuation may delay
//! placement changes but must never lose them. Once faults stop
//! (`fail_until` has passed and every transient outage has recovered),
//! the desired and actual placements converge, every job completes,
//! and the whole run stays deterministic per seed.

use dynaplace::model::NodeId;
use dynaplace::sim::metrics::RunMetrics;
use dynaplace::sim::spec::{
    ActuationSpec, ArrivalSpec, JobGroupSpec, JobShapeSpec, NodeFailureSpec, NodeGroupSpec,
    ObservationSpec, ScenarioSpec,
};
use dynaplace::sim::GoalSubmission;
use proptest::prelude::*;

const NODES: usize = 3;
const NODE_CPU_MHZ: f64 = 3_000.0;
const NODE_MEMORY_MB: f64 = 6_000.0;
const JOBS: usize = 6;
const JOB_MEMORY_MB: f64 = 1_500.0;
const CYCLE_SECS: f64 = 60.0;
/// Faults stop here: operations issued later always succeed.
const FAIL_UNTIL_SECS: f64 = 4_000.0;
/// Slack after the last fault before convergence is demanded: one
/// quarantine window plus one max backoff, rounded up to whole cycles.
const GRACE_SECS: f64 = 600.0 + 240.0 + 2.0 * CYCLE_SECS;

/// A small serviceable cluster with flaky actuation and one transient
/// node outage. Goals are loose (factor 10) so delayed operations
/// cannot turn into missed capacity: only a lost instance could stop a
/// job from completing.
fn flaky_spec(
    seed: u64,
    actuation_seed: u64,
    failure_rate: f64,
    outage: Option<(f64, u32, f64)>,
) -> ScenarioSpec {
    ScenarioSpec {
        seed,
        scheduler: "apc".to_string(),
        cycle_secs: CYCLE_SECS,
        horizon_secs: Some(30_000.0),
        free_vm_costs: false,
        resources: vec![],
        nodes: vec![NodeGroupSpec {
            count: NODES,
            name: None,
            cpu_mhz: NODE_CPU_MHZ,
            memory_mb: NODE_MEMORY_MB,
            resources: Default::default(),
        }],
        jobs: vec![JobGroupSpec {
            count: JOBS,
            name: None,
            arrivals: ArrivalSpec::Periodic { every_secs: 120.0 },
            shape: JobShapeSpec {
                work_mcycles: 300_000.0,
                max_speed_mhz: 1_000.0,
                memory_mb: JOB_MEMORY_MB,
                goal: GoalSubmission::Factor(10.0),
                tasks: 1,
                class: None,
                resources: Default::default(),
            },
        }],
        txns: vec![],
        workload: None,
        node_failures: outage
            .map(|(at_secs, node, duration_secs)| NodeFailureSpec {
                at_secs,
                node,
                duration_secs: Some(duration_secs),
            })
            .into_iter()
            .collect(),
        actuation: ActuationSpec {
            failure_rate,
            latency_jitter: 0.2,
            fail_until_secs: Some(FAIL_UNTIL_SECS),
            seed: actuation_seed,
            base_backoff_secs: 30.0,
            backoff_factor: 2.0,
            max_backoff_secs: 240.0,
            quarantine_after: 3,
            quarantine_secs: 600.0,
            fallback_after: 2,
            ..Default::default()
        },
        deadline_secs: None,
        sharding: None,
        observation: None,
        trace: Default::default(),
    }
}

/// The instant after which no more faults can occur: the end of the
/// fallible window or the last outage recovery, whichever is later.
fn last_fault_secs(spec: &ScenarioSpec) -> f64 {
    spec.node_failures
        .iter()
        .map(|f| f.at_secs + f.duration_secs.unwrap_or(f64::INFINITY))
        .fold(FAIL_UNTIL_SECS, f64::max)
}

fn assert_converged(spec: &ScenarioSpec, metrics: &RunMetrics) {
    assert_eq!(
        metrics.completions.len(),
        JOBS,
        "every job completes despite faults (actuation: {:?})",
        metrics.actuation
    );
    // Convergence: once faults stop and the grace window (backoff +
    // quarantine drain) passes, the actual placement tracks the desired
    // one — no sample may still owe reconciliation work.
    let settled = last_fault_secs(spec) + GRACE_SECS;
    for s in &metrics.samples {
        if s.time.as_secs() >= settled {
            assert_eq!(
                s.pending_actions,
                0,
                "unreconciled actions at t={:.0}s, {:.0}s after the last fault",
                s.time.as_secs(),
                s.time.as_secs() - last_fault_secs(spec)
            );
        }
    }
    // Live-node capacity: jobs have uniform memory, so per-node
    // instance counts bound memory use exactly; and nothing may be
    // placed on a node while it is down.
    for record in &metrics.placements {
        let mut per_node = std::collections::BTreeMap::<NodeId, u32>::new();
        for (_, node, count) in record.placement.iter() {
            *per_node.entry(node).or_default() += count;
        }
        for (node, count) in per_node {
            assert!(
                f64::from(count) * JOB_MEMORY_MB <= NODE_MEMORY_MB,
                "node {node:?} over memory at t={:.0}s: {count} instances",
                record.time.as_secs()
            );
            let down = spec.node_failures.iter().any(|f| {
                u32::from(node.index() as u16) == f.node
                    && record.time.as_secs() > f.at_secs + CYCLE_SECS
                    && record.time.as_secs() < f.at_secs + f.duration_secs.unwrap_or(f64::INFINITY)
            });
            assert!(
                !down || count == 0,
                "instances on failed node {node:?} at t={:.0}s",
                record.time.as_secs()
            );
        }
    }
}

fn run(spec: &ScenarioSpec) -> RunMetrics {
    let mut sim = spec.build_checked().expect("generated specs are valid");
    sim.record_placements(true);
    sim.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized fault schedules (operation failure rate, failure-draw
    /// seed, transient outage timing) all converge: after the last
    /// fault, desired == actual within the grace window and every job
    /// completes.
    #[test]
    fn reconciliation_converges(
        seed in any::<u64>(),
        actuation_seed in any::<u64>(),
        failure_rate in 0.05..0.6f64,
        outage_at in 300.0..1_200.0f64,
        outage_node in 0u32..NODES as u32,
        outage_secs in 400.0..2_000.0f64,
    ) {
        let spec = flaky_spec(
            seed,
            actuation_seed,
            failure_rate,
            Some((outage_at, outage_node, outage_secs)),
        );
        assert_converged(&spec, &run(&spec));
    }

    /// Faults without an outage converge too (the outage path must not
    /// be what rescues reconciliation).
    #[test]
    fn reconciliation_converges_without_outage(
        seed in any::<u64>(),
        actuation_seed in any::<u64>(),
        failure_rate in 0.05..0.6f64,
    ) {
        let spec = flaky_spec(seed, actuation_seed, failure_rate, None);
        assert_converged(&spec, &run(&spec));
    }
}

/// Same seed ⇒ bit-equal metrics: failure draws, backoff schedules,
/// and retry events are all pure functions of the configuration.
#[test]
fn same_seed_runs_are_bit_equal() {
    let spec = flaky_spec(17, 23, 0.35, Some((600.0, 1, 1_500.0)));
    let a = run(&spec);
    let b = run(&spec);
    // `placement_compute_secs` is wall-clock measurement, the only
    // field allowed to differ; everything simulated must be bit-equal.
    assert_eq!(a.samples.len(), b.samples.len());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        let mut y = y.clone();
        y.placement_compute_secs = x.placement_compute_secs;
        assert_eq!(*x, y);
    }
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.changes, b.changes);
    assert_eq!(a.actuation, b.actuation);
    assert_eq!(a.placements, b.placements);
}

/// Different actuation seeds genuinely change the fault schedule (the
/// determinism test above is not vacuous).
#[test]
fn actuation_seed_matters() {
    let a = run(&flaky_spec(17, 1, 0.5, None));
    let b = run(&flaky_spec(17, 2, 0.5, None));
    assert_ne!(
        a.actuation, b.actuation,
        "distinct seeds should produce distinct fault schedules"
    );
}

// ---------------------------------------------------------------------
// False-positive believed deaths: the observation layer's node-health
// machine can evict residents from a perfectly healthy node and later
// reinstate it. These regressions pin the engine paths that become
// reachable only then — eviction of residents that were never actually
// failed, reinstatement racing the desired/actual machinery, and
// believed deaths overlapping true outages.
// ---------------------------------------------------------------------

/// `flaky_spec` with infallible actuation and a lossy-telemetry window
/// ending at `FAIL_UNTIL_SECS` instead: every fault is a false belief.
fn observed_spec(
    seed: u64,
    obs_seed: u64,
    loss: f64,
    outage: Option<(f64, u32, f64)>,
) -> ScenarioSpec {
    let mut spec = flaky_spec(seed, 0, 0.0, outage);
    spec.actuation = Default::default();
    spec.observation = Some(ObservationSpec {
        heartbeat_loss: loss,
        loss_until_secs: Some(FAIL_UNTIL_SECS),
        seed: obs_seed,
        ..Default::default()
    });
    spec
}

/// The instant by which a recovered observation layer must have settled:
/// end of telemetry loss, plus worst-case death-then-reinstatement
/// hysteresis, plus scheduling slack — in whole cycles.
const OBSERVATION_GRACE_SECS: f64 = (4 + 2 + 5) as f64 * CYCLE_SECS;

/// False-positive believed deaths evict healthy nodes' residents, yet
/// once telemetry recovers every node is reinstated, desired == actual,
/// and every job still completes.
#[test]
fn false_positive_deaths_reconverge() {
    let spec = observed_spec(11, 5, 0.55, None);
    assert_eq!(spec.validate(), Ok(()));
    let metrics = run(&spec);

    let obs = &metrics.observation;
    assert!(
        obs.deaths >= 1 && obs.reinstatements >= 1,
        "the regression must actually exercise believed death and reinstatement: {obs:?}"
    );
    assert_eq!(
        metrics.completions.len(),
        JOBS,
        "every job completes despite false-positive evictions"
    );
    let settled = FAIL_UNTIL_SECS + OBSERVATION_GRACE_SECS;
    for s in &metrics.samples {
        if s.time.as_secs() >= settled {
            assert_eq!(
                s.pending_actions,
                0,
                "unreconciled actions at t={:.0}s after telemetry recovered",
                s.time.as_secs()
            );
        }
    }
}

/// A believed death can land on a node that is *also* truly down (its
/// residents already evicted by the outage path), and a true recovery
/// can race reinstatement. Both orders must be graceful no-ops, not
/// panics, and the run still converges.
#[test]
fn believed_death_overlapping_true_outage_is_graceful() {
    let spec = observed_spec(7, 3, 0.55, Some((600.0, 1, 1_500.0)));
    assert_eq!(spec.validate(), Ok(()));
    let metrics = run(&spec);

    assert!(
        metrics.observation.deaths >= 1,
        "the overlap regression needs at least one believed death: {:?}",
        metrics.observation
    );
    assert_eq!(metrics.completions.len(), JOBS);
    let settled = last_fault_secs(&spec).max(FAIL_UNTIL_SECS) + OBSERVATION_GRACE_SECS + GRACE_SECS;
    for s in &metrics.samples {
        if s.time.as_secs() >= settled {
            assert_eq!(s.pending_actions, 0, "unreconciled at t={:?}", s.time);
        }
    }
}

/// Observation faults compose with fallible actuation: evictions issued
/// on believed deaths go through the same fallible operation queue, and
/// the combined system still converges once both fault windows close.
#[test]
fn observation_and_actuation_faults_compose() {
    let mut spec = flaky_spec(19, 29, 0.3, None);
    spec.observation = Some(ObservationSpec {
        heartbeat_loss: 0.5,
        loss_until_secs: Some(FAIL_UNTIL_SECS),
        seed: 13,
        ..Default::default()
    });
    assert_eq!(spec.validate(), Ok(()));
    let metrics = run(&spec);

    assert!(
        metrics.observation.missed_heartbeats > 0,
        "telemetry faults must fire: {:?}",
        metrics.observation
    );
    assert_eq!(metrics.completions.len(), JOBS);
    let settled = FAIL_UNTIL_SECS + GRACE_SECS + OBSERVATION_GRACE_SECS;
    for s in &metrics.samples {
        if s.time.as_secs() >= settled {
            assert_eq!(s.pending_actions, 0, "unreconciled at t={:?}", s.time);
        }
    }
}

/// The checked-in flaky golden scenario meets the acceptance bar
/// directly: nonzero failure rate plus a transient outage, yet all jobs
/// complete, total allocation stays within live capacity, and the run
/// converges after the last fault.
#[test]
fn flaky_cluster_scenario_converges() {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("scenarios/flaky_cluster.json")).unwrap();
    let spec = ScenarioSpec::from_json_str(&text).unwrap();
    let mut sim = spec.build();
    sim.record_placements(true);
    let metrics = sim.run();

    assert_eq!(metrics.completions.len(), 10, "all jobs complete");
    assert!(
        metrics.actuation.failed_ops + metrics.actuation.timed_out_ops > 0,
        "the golden scenario must actually exercise failures: {:?}",
        metrics.actuation
    );
    let recovery = spec.node_failures[0].at_secs + spec.node_failures[0].duration_secs.unwrap();
    let fail_until = spec.actuation.fail_until_secs.unwrap();
    let settled = recovery.max(fail_until) + GRACE_SECS;
    for s in &metrics.samples {
        if s.time.as_secs() >= settled {
            assert_eq!(s.pending_actions, 0, "unreconciled at t={:?}", s.time);
        }
        // Total allocation never exceeds live capacity: 3 nodes of
        // 6 GHz, minus the failed node while it is down.
        let live =
            if s.time.as_secs() > spec.node_failures[0].at_secs && s.time.as_secs() < recovery {
                2.0 * 6_000.0
            } else {
                3.0 * 6_000.0
            };
        let total = s.batch_allocation.as_mhz() + s.txn_allocation.as_mhz();
        assert!(
            total <= live + 1.0,
            "allocation {total} MHz over live capacity {live} at t={:?}",
            s.time
        );
    }
}
