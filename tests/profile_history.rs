//! Integration tests for on-the-fly profile generation: the controller
//! plans with class-history work estimates instead of the (unknowable)
//! true profiles.

use dynaplace::batch::job::{JobProfile, JobSpec};
use dynaplace::model::cluster::Cluster;
use dynaplace::model::node::NodeSpec;
use dynaplace::model::units::*;
use dynaplace::rpf::goal::CompletionGoal;
use dynaplace::sim::engine::{SimConfig, Simulation};

fn cluster() -> Cluster {
    Cluster::homogeneous(
        2,
        NodeSpec::try_new(CpuSpeed::from_mhz(2_000.0), Memory::from_mb(4_000.0))
            .expect("valid node capacities"),
    )
}

fn config() -> SimConfig {
    SimConfig {
        cycle: SimDuration::from_secs(30.0),
        horizon: Some(SimDuration::from_secs(20_000.0)),
        profile_from_history: true,
        ..SimConfig::apc_default()
    }
}

fn classed_job(
    sim: &mut Simulation,
    class: &str,
    work: f64,
    arrival: f64,
    deadline: f64,
) -> dynaplace::model::AppId {
    let class = class.to_string();
    sim.add_job(move |app| {
        JobSpec::new(
            app,
            JobProfile::single_stage(
                Work::from_mcycles(work),
                CpuSpeed::from_mhz(1_000.0),
                Memory::from_mb(1_000.0),
            ),
            SimTime::from_secs(arrival),
            CompletionGoal::new(SimTime::from_secs(arrival), SimTime::from_secs(deadline)),
        )
        .with_class(class)
    })
}

/// A stream of identical classed jobs: once three have completed the
/// controller plans from history; estimates are exact, so behaviour is
/// unchanged and every goal is met.
#[test]
fn identical_class_history_is_exact() {
    let mut sim = Simulation::new(cluster(), config());
    for i in 0..12 {
        let arrival = i as f64 * 60.0;
        classed_job(&mut sim, "etl", 30_000.0, arrival, arrival + 300.0);
    }
    let metrics = sim.run();
    assert_eq!(metrics.completions.len(), 12);
    assert!(metrics.completions.iter().all(|c| c.met_deadline));
}

/// Heterogeneous work within a class: the controller plans with the
/// running mean. All jobs still complete; goals with 3× slack absorb the
/// estimation error.
#[test]
fn varied_class_history_degrades_gracefully() {
    let mut sim = Simulation::new(cluster(), config());
    let works = [
        24_000.0, 36_000.0, 30_000.0, 27_000.0, 33_000.0, 30_000.0, 21_000.0, 39_000.0,
    ];
    for (i, &work) in works.iter().enumerate() {
        let arrival = i as f64 * 60.0;
        // Deadline with 3x slack over the *true* work at 1,000 MHz.
        let deadline = arrival + 3.0 * work / 1_000.0;
        classed_job(&mut sim, "analytics", work, arrival, deadline);
    }
    let metrics = sim.run();
    assert_eq!(metrics.completions.len(), works.len());
    let met = metrics
        .completions
        .iter()
        .filter(|c| c.met_deadline)
        .count();
    assert!(
        met >= works.len() - 1,
        "at most one miss under ±30% class variance, got {met}/{}",
        works.len()
    );
}

/// Untagged jobs are unaffected by the flag: exact profiles are used.
#[test]
fn untagged_jobs_use_true_profiles() {
    let mut sim = Simulation::new(cluster(), config());
    let app = sim.add_job(|app| {
        JobSpec::new(
            app,
            JobProfile::single_stage(
                Work::from_mcycles(20_000.0),
                CpuSpeed::from_mhz(1_000.0),
                Memory::from_mb(1_000.0),
            ),
            SimTime::ZERO,
            CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(100.0)),
        )
    });
    let metrics = sim.run();
    let c = metrics.completions.iter().find(|c| c.app == app).unwrap();
    // Placed immediately; 3.6 s boot + 20 s at 1,000 MHz.
    assert!(
        (c.completion.as_secs() - 23.6).abs() < 0.1,
        "completed at {}",
        c.completion
    );
}
