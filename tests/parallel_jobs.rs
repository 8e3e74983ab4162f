//! Integration tests for malleable parallel jobs — the paper's stated
//! future work ("we expect to extend this technique in the future to
//! offer explicit support for parallel jobs"), implemented here as
//! multi-task jobs whose progress rate is the sum of their placed
//! tasks' speeds.

use dynaplace::batch::job::{JobProfile, JobSpec};
use dynaplace::model::cluster::Cluster;
use dynaplace::model::node::NodeSpec;
use dynaplace::model::units::*;
use dynaplace::rpf::goal::CompletionGoal;
use dynaplace::sim::engine::{SimConfig, Simulation};

fn cluster(nodes: usize) -> Cluster {
    Cluster::homogeneous(
        nodes,
        NodeSpec::try_new(CpuSpeed::from_mhz(2_000.0), Memory::from_mb(8_000.0))
            .expect("valid node capacities"),
    )
}

fn config() -> SimConfig {
    SimConfig {
        cycle: SimDuration::from_secs(10.0),
        horizon: Some(SimDuration::from_secs(5_000.0)),
        ..SimConfig::apc_default()
    }
}

/// A 4-task parallel job on 4 nodes finishes ≈4× faster than the same
/// work serially.
#[test]
fn parallel_job_uses_multiple_nodes() {
    // Serial reference: 80,000 Mc at ≤1,000 MHz → 80 s.
    let mut sim = Simulation::new(cluster(4), config());
    let serial = sim.add_job(|app| {
        JobSpec::new(
            app,
            JobProfile::single_stage(
                Work::from_mcycles(80_000.0),
                CpuSpeed::from_mhz(1_000.0),
                Memory::from_mb(1_000.0),
            ),
            SimTime::ZERO,
            CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(400.0)),
        )
    });
    let serial_metrics = sim.run();
    let serial_done = serial_metrics
        .completions
        .iter()
        .find(|c| c.app == serial)
        .unwrap()
        .completion;

    // Parallel: same work, 4 tasks at ≤1,000 MHz each.
    let mut sim = Simulation::new(cluster(4), config());
    let parallel = sim.add_parallel_job(4, |app| {
        JobSpec::new(
            app,
            JobProfile::single_stage(
                Work::from_mcycles(80_000.0),
                CpuSpeed::from_mhz(1_000.0),
                Memory::from_mb(1_000.0),
            ),
            SimTime::ZERO,
            CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(400.0)),
        )
    });
    let parallel_metrics = sim.run();
    let parallel_done = parallel_metrics
        .completions
        .iter()
        .find(|c| c.app == parallel)
        .unwrap()
        .completion;

    assert!(
        parallel_done.as_secs() < serial_done.as_secs() / 2.0,
        "4 tasks must be much faster than serial: {} vs {}",
        parallel_done,
        serial_done
    );
    // The speedup is bounded by 4x (plus scheduling granularity).
    assert!(parallel_done.as_secs() >= serial_done.as_secs() / 4.0 - 11.0);
}

/// A parallel job shares the cluster fairly with ordinary jobs: both
/// meet their goals, the parallel one using several nodes at once.
#[test]
fn parallel_job_coexists_with_serial_jobs() {
    let mut sim = Simulation::new(cluster(3), config());
    sim.add_parallel_job(3, |app| {
        JobSpec::new(
            app,
            JobProfile::single_stage(
                Work::from_mcycles(120_000.0),
                CpuSpeed::from_mhz(1_500.0),
                Memory::from_mb(1_000.0),
            ),
            SimTime::ZERO,
            CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(600.0)),
        )
    });
    for i in 0..3 {
        sim.add_job(move |app| {
            JobSpec::new(
                app,
                JobProfile::single_stage(
                    Work::from_mcycles(30_000.0),
                    CpuSpeed::from_mhz(1_000.0),
                    Memory::from_mb(1_000.0),
                ),
                SimTime::from_secs(i as f64 * 5.0),
                CompletionGoal::new(
                    SimTime::from_secs(i as f64 * 5.0),
                    SimTime::from_secs(300.0),
                ),
            )
        });
    }
    let metrics = sim.run();
    assert_eq!(metrics.completions.len(), 4, "everything completes");
    assert!(
        metrics.completions.iter().all(|c| c.met_deadline),
        "fair sharing meets every goal: {:?}",
        metrics
            .completions
            .iter()
            .map(|c| (c.app, c.distance.as_secs()))
            .collect::<Vec<_>>()
    );
}

/// Scaling down a parallel job (losing tasks to contention) does not
/// suspend it: it keeps running on the remaining tasks.
#[test]
fn parallel_job_is_malleable_under_contention() {
    let mut sim = Simulation::new(cluster(2), config());
    // Parallel job that would like both nodes.
    let par = sim.add_parallel_job(2, |app| {
        JobSpec::new(
            app,
            JobProfile::single_stage(
                Work::from_mcycles(200_000.0),
                CpuSpeed::from_mhz(2_000.0),
                Memory::from_mb(5_000.0), // large: one task per node
            ),
            SimTime::ZERO,
            CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(3_000.0)),
        )
    });
    // A memory-hungry urgent job arrives later and needs a whole node.
    sim.add_job(|app| {
        JobSpec::new(
            app,
            JobProfile::single_stage(
                Work::from_mcycles(40_000.0),
                CpuSpeed::from_mhz(2_000.0),
                Memory::from_mb(5_000.0),
            ),
            SimTime::from_secs(30.0),
            CompletionGoal::new(SimTime::from_secs(30.0), SimTime::from_secs(80.0)),
        )
    });
    let metrics = sim.run();
    assert_eq!(metrics.completions.len(), 2);
    let par_rec = metrics.completions.iter().find(|c| c.app == par).unwrap();
    assert!(par_rec.met_deadline, "malleable job still meets its goal");
}
