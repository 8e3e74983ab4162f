//! The constant-memory contract of the streaming control plane, at a
//! size the debug-build fast tier can afford.
//!
//! Under [`MetricsRetention::Aggregate`] a finished job leaves the
//! engine entirely: its completion record folds into running totals, its
//! state is dropped, and its application id is recycled. This file pins
//! the observable half of that contract — aggregate totals are exactly
//! the fold of the per-record metrics a full-retention run produces —
//! and sanity-checks the `VmHWM` plumbing the CLI's `--max-rss-mb`
//! guard reads. The full-scale guard (a day-long, 100k-job generated
//! trace under a hard RSS bound) runs against the release binary in CI:
//! `simulate tests/perf/streaming_memory_guard.json --generate --strict
//! --max-rss-mb <MB>`, relaxed on every push and tight nightly.

use dynaplace::sim::spec::{
    BatchStreamSpec, JobShapeSpec, ScenarioSpec, TxnCurveSpec, TxnShapeSpec, TxnStreamSpec,
    WorkloadSpec,
};
use dynaplace::sim::{ArrivalProcess, GoalSubmission, MetricsRetention};

const JOBS: u64 = 1_000;

/// A purely generative scenario: no classic jobs, one Poisson batch
/// firehose plus a small transactional app, ending when the capped
/// stream drains.
fn firehose_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        seed: 7,
        scheduler: "apc".to_string(),
        cycle_secs: 60.0,
        horizon_secs: None,
        free_vm_costs: true,
        resources: vec![],
        nodes: vec![dynaplace::sim::spec::NodeGroupSpec {
            count: 2,
            name: None,
            cpu_mhz: 6_000.0,
            memory_mb: 8_192.0,
            resources: Default::default(),
        }],
        jobs: vec![],
        txns: vec![],
        workload: Some(WorkloadSpec {
            batch_streams: vec![BatchStreamSpec {
                name: Some("firehose".to_string()),
                process: ArrivalProcess::Poisson { rate_per_sec: 2.0 },
                count: Some(JOBS),
                shape: JobShapeSpec {
                    work_mcycles: 600.0,
                    max_speed_mhz: 600.0,
                    memory_mb: 256.0,
                    goal: GoalSubmission::Factor(20.0),
                    tasks: 1,
                    class: None,
                    resources: Default::default(),
                },
            }],
            txn_streams: vec![TxnStreamSpec {
                name: Some("portal".to_string()),
                curve: TxnCurveSpec::Population {
                    users: 100.0,
                    think_time_secs: 10.0,
                },
                shape: TxnShapeSpec {
                    demand_mcycles: 8.0,
                    floor_secs: 0.01,
                    goal_secs: 0.1,
                    memory_mb: 512.0,
                    max_instances: 1,
                    resources: Default::default(),
                },
            }],
        }),
        node_failures: vec![],
        actuation: Default::default(),
        deadline_secs: None,
        sharding: None,
        observation: None,
        trace: Default::default(),
    };
    assert_eq!(spec.validate(), Ok(()));
    // Ensure the run terminates: txn streams keep the control loop
    // armed, so bound the run just past the stream's expected drain.
    spec.horizon_secs = Some(1_000.0);
    spec
}

/// Aggregate retention drains the whole stream, keeps no per-job
/// records, and its folded totals agree with the full-retention run.
///
/// The comparison is semantic, not bit-exact: aggregate retention
/// recycles the application ids of finished jobs, and the optimizer's
/// documented ascending-app-id tie-break can then hand the luxury CPU
/// share to a different (relabeled) job, shifting individual
/// completion instants by floating-point noise. Lock-step vs streaming
/// bit-equality (tests/streaming_equivalence.rs) holds under *full*
/// retention, where ids are never recycled.
#[test]
fn aggregate_retention_folds_to_the_full_retention_totals() {
    let spec = firehose_spec();

    let full = {
        let sim = spec.build_streaming_checked().unwrap();
        sim.run()
    };
    let aggregate = {
        let mut sim = spec.build_streaming_checked().unwrap();
        sim.set_retention(MetricsRetention::Aggregate);
        sim.run()
    };

    assert_eq!(full.completions.len(), JOBS as usize);
    assert!(full.totals.is_none());
    assert!(
        aggregate.completions.is_empty(),
        "aggregate retention must not retain per-job records"
    );
    let totals = aggregate.totals.expect("aggregate run folds totals");
    assert_eq!(totals.count, JOBS);
    assert_eq!(aggregate.completed_jobs(), full.completed_jobs());

    let met = full.completions.iter().filter(|c| c.met_deadline).count() as u64;
    assert_eq!(totals.met_deadlines, met);
    let sum_rp: f64 = full.completions.iter().map(|c| c.rp.value()).sum();
    let drift = (totals.sum_rp - sum_rp).abs() / sum_rp.abs().max(1.0);
    assert!(
        drift < 1e-6,
        "aggregate rp sum drifted beyond id-relabeling noise: {} vs {} ({drift:e})",
        totals.sum_rp,
        sum_rp
    );
    assert_eq!(
        aggregate.deadline_met_ratio(),
        full.deadline_met_ratio(),
        "both runs met (or missed) the same fraction of deadlines"
    );

    // The cycle schedule is horizon-driven, identical across retention
    // modes even when individual allocations differ by relabeling.
    assert_eq!(aggregate.samples.len(), full.samples.len());
}

/// The `VmHWM` probe the CLI memory guard reads must parse on Linux;
/// elsewhere it degrades to a skip, never a panic.
#[test]
fn peak_rss_probe_parses_or_degrades() {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return; // not Linux: the CLI guard skips too
    };
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("Linux exposes VmHWM");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .expect("VmHWM carries a value")
        .parse()
        .expect("VmHWM value is numeric");
    assert!(kb > 0.0, "a running process has a nonzero peak RSS");
}
