//! Differential tests for the decision-provenance tracing contract:
//!
//! 1. tracing must be *inert* — a run with the default [`NoopSink`] and a
//!    run with a buffering [`JsonlSink`] produce bit-identical placements
//!    and metrics (tracing observes decisions, never influences them);
//! 2. trace *content* must be deterministic — two traced runs of the same
//!    scenario yield byte-identical deterministic JSONL.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use dynaplace::apc::optimizer::{place, place_traced, ApcConfig};
use dynaplace::apc::problem::{PlacementProblem, WorkloadModel};
use dynaplace::batch::hypothetical::JobSnapshot;
use dynaplace::batch::job::JobProfile;
use dynaplace::model::prelude::*;
use dynaplace::rpf::goal::CompletionGoal;
use dynaplace::sim::metrics::RunMetrics;
use dynaplace::sim::spec::ScenarioSpec;
use dynaplace::trace::{JsonlSink, TraceLevel, TraceSink};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn mixed_workload() -> ScenarioSpec {
    let path = repo_root().join("scenarios/mixed_workload.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    ScenarioSpec::from_json_str(&text).expect("valid scenario")
}

/// Strips the only legitimately nondeterministic quantity in a run's
/// metrics (host wall-clock compute times) so the rest can be compared
/// bit for bit.
fn deterministic_view(mut metrics: RunMetrics) -> RunMetrics {
    for sample in &mut metrics.samples {
        sample.placement_compute_secs = 0.0;
    }
    metrics
}

#[test]
fn traced_and_untraced_runs_are_bit_identical() {
    // Baseline: the default build path, which installs a NoopSink.
    let spec = mixed_workload();
    let mut baseline_sim = spec.build();
    baseline_sim.record_placements(true);
    let baseline = deterministic_view(baseline_sim.run());

    // Same scenario, but with a verbose buffering sink attached.
    let mut traced_sim = spec.build();
    traced_sim.record_placements(true);
    let sink = Arc::new(JsonlSink::new(TraceLevel::Verbose));
    traced_sim.set_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let traced = deterministic_view(traced_sim.run());

    assert!(!sink.is_empty(), "verbose trace of a real run is non-empty");
    assert_eq!(baseline.samples, traced.samples);
    assert_eq!(baseline.completions, traced.completions);
    assert_eq!(baseline.changes, traced.changes);
    assert_eq!(baseline.actuation, traced.actuation);
    assert_eq!(baseline.placements, traced.placements);
}

#[test]
fn trace_content_is_deterministic_across_runs() {
    let spec = mixed_workload();
    let run = || {
        let mut sim = spec.build();
        let sink = Arc::new(JsonlSink::new(TraceLevel::Decisions));
        sim.set_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        sim.run();
        sink.deterministic_jsonl()
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(first, second, "deterministic trace must be byte-identical");
}

/// A small two-node, two-job problem with one job already running, so
/// the optimizer exercises removals, adoption, and rejection paths.
fn small_problem(
    cluster: &Cluster,
    apps: &AppSet,
    current: &Placement,
    jobs: &[(AppId, f64)],
) -> PlacementProblem<'static> {
    // Leaked allocations keep the lifetimes simple inside the test; the
    // process exits right after.
    let cluster: &'static Cluster = Box::leak(Box::new(cluster.clone()));
    let apps: &'static AppSet = Box::leak(Box::new(apps.clone()));
    let current: &'static Placement = Box::leak(Box::new(current.clone()));
    let mut workloads = BTreeMap::new();
    for &(app, work) in jobs {
        workloads.insert(
            app,
            WorkloadModel::Batch(JobSnapshot::new(
                app,
                CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(30.0)),
                std::sync::Arc::new(JobProfile::single_stage(
                    Work::from_mcycles(work),
                    CpuSpeed::from_mhz(1_000.0),
                    Memory::from_mb(700.0),
                )),
                Work::ZERO,
                SimDuration::from_secs(1.0),
            )),
        );
    }
    PlacementProblem {
        cluster,
        apps,
        workloads,
        current,
        now: SimTime::ZERO,
        cycle: SimDuration::from_secs(1.0),
        forbidden: Default::default(),
    }
}

#[test]
fn place_traced_returns_the_same_outcome_bits_as_place() {
    let mut cluster = Cluster::new();
    let n0 = cluster.add_node(
        NodeSpec::try_new(CpuSpeed::from_mhz(1_000.0), Memory::from_mb(1_500.0))
            .expect("valid node capacities"),
    );
    cluster.add_node(
        NodeSpec::try_new(CpuSpeed::from_mhz(800.0), Memory::from_mb(1_500.0))
            .expect("valid node capacities"),
    );
    let mut apps = AppSet::new();
    let j1 = apps.add(ApplicationSpec::batch(
        Memory::from_mb(700.0),
        CpuSpeed::from_mhz(1_000.0),
    ));
    let j2 = apps.add(ApplicationSpec::batch(
        Memory::from_mb(700.0),
        CpuSpeed::from_mhz(1_000.0),
    ));
    let mut current = Placement::new();
    current.place(j1, n0);

    let problem = small_problem(&cluster, &apps, &current, &[(j1, 8_000.0), (j2, 20_000.0)]);
    let config = ApcConfig::default();

    let untraced = place(&problem, &config);
    let sink = JsonlSink::new(TraceLevel::Verbose);
    let traced = place_traced(&problem, &config, &sink);

    assert!(!sink.is_empty(), "a verbose optimizer trace is non-empty");
    // The Debug rendering prints every f64 in shortest-round-trip form,
    // so equal strings mean bit-identical outcomes.
    assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));
    assert_eq!(untraced.placement, traced.placement);
    assert_eq!(untraced.stats, traced.stats);
}
