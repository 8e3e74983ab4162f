//! Multi-stage jobs (§4.1) through the full stack: per-stage speed caps
//! are honoured at the next control decision after a stage boundary.

use dynaplace::batch::job::{JobProfile, JobSpec, JobStage};
use dynaplace::model::cluster::Cluster;
use dynaplace::model::node::NodeSpec;
use dynaplace::model::units::*;
use dynaplace::rpf::goal::CompletionGoal;
use dynaplace::sim::costs::VmCostModel;
use dynaplace::sim::engine::{SimConfig, Simulation};

fn config(cycle_secs: f64) -> SimConfig {
    SimConfig {
        cycle: SimDuration::from_secs(cycle_secs),
        horizon: Some(SimDuration::from_secs(10_000.0)),
        costs: VmCostModel::free(),
        ..SimConfig::apc_default()
    }
}

fn two_stage_profile() -> JobProfile {
    JobProfile::new(vec![
        // Stage 1: I/O-ish — slow cap, small memory. 4,000 Mc at ≤500 MHz (8 s).
        JobStage::new(
            Work::from_mcycles(4_000.0),
            CpuSpeed::from_mhz(500.0),
            CpuSpeed::ZERO,
            Memory::from_mb(500.0),
        ),
        // Stage 2: compute — fast cap, more memory. 8,000 Mc at ≤1,000 MHz (8 s).
        JobStage::new(
            Work::from_mcycles(8_000.0),
            CpuSpeed::from_mhz(1_000.0),
            CpuSpeed::ZERO,
            Memory::from_mb(1_500.0),
        ),
    ])
}

/// Alone on a big node with a short control cycle, a two-stage job
/// completes in ≈ the sum of its per-stage minimum times: the controller
/// re-caps the allocation at each stage's maximum as stages change.
#[test]
fn stage_speed_caps_are_tracked() {
    let mut cluster = Cluster::new();
    cluster.add_node(
        NodeSpec::try_new(CpuSpeed::from_mhz(4_000.0), Memory::from_mb(8_000.0))
            .expect("valid node capacities"),
    );
    let mut sim = Simulation::new(cluster, config(1.0));
    let app = sim.add_job(|app| {
        JobSpec::new(
            app,
            two_stage_profile(),
            SimTime::ZERO,
            CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(100.0)),
        )
    });
    let metrics = sim.run();
    let c = metrics.completions.iter().find(|c| c.app == app).unwrap();
    // Ideal 16 s; allow up to two control cycles of stage-boundary lag.
    assert!(
        c.completion.as_secs() >= 16.0 - 1e-6 && c.completion.as_secs() <= 18.0,
        "two-stage job completed at {}",
        c.completion
    );
}

/// The same job under a coarse cycle loses at most one cycle at the
/// stage boundary (the allocation stays at the stage-1 cap until the
/// next decision).
#[test]
fn coarse_cycle_delays_stage_speedup() {
    let mut cluster = Cluster::new();
    cluster.add_node(
        NodeSpec::try_new(CpuSpeed::from_mhz(4_000.0), Memory::from_mb(8_000.0))
            .expect("valid node capacities"),
    );
    let mut sim = Simulation::new(cluster, config(10.0));
    let app = sim.add_job(|app| {
        JobSpec::new(
            app,
            two_stage_profile(),
            SimTime::ZERO,
            CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(100.0)),
        )
    });
    let metrics = sim.run();
    let c = metrics.completions.iter().find(|c| c.app == app).unwrap();
    // Stage 1 ends at t=8; the 500 MHz cap persists until t=10, then
    // stage 2's remaining 7,000 Mc runs at 1,000 MHz → 17 s total.
    assert!(
        c.completion.as_secs() >= 16.0 - 1e-6 && c.completion.as_secs() <= 20.0 + 1e-6,
        "completed at {}",
        c.completion
    );
}

/// Two multi-stage jobs share a node fairly across their stage changes
/// and both meet loose goals.
#[test]
fn multi_stage_jobs_share_fairly() {
    let mut cluster = Cluster::new();
    cluster.add_node(
        NodeSpec::try_new(CpuSpeed::from_mhz(1_200.0), Memory::from_mb(8_000.0))
            .expect("valid node capacities"),
    );
    let mut sim = Simulation::new(cluster, config(2.0));
    for i in 0..2 {
        sim.add_job(move |app| {
            JobSpec::new(
                app,
                two_stage_profile(),
                SimTime::from_secs(i as f64),
                CompletionGoal::new(SimTime::from_secs(i as f64), SimTime::from_secs(200.0)),
            )
        });
    }
    let metrics = sim.run();
    assert_eq!(metrics.completions.len(), 2);
    assert!(metrics.completions.iter().all(|c| c.met_deadline));
    // Total work 24,000 Mc through a 1,200 MHz node needs ≥ 20 s.
    let makespan = metrics
        .completions
        .iter()
        .map(|c| c.completion.as_secs())
        .fold(0.0, f64::max);
    assert!(makespan >= 20.0 - 1e-6);
}
