//! Lock-step vs streaming control-plane equivalence over the checked-in
//! scenario corpus.
//!
//! The streaming control plane ([`ScenarioSpec::build_streaming`]) draws
//! submissions lazily from a [`dynaplace::sim::WorkloadSource`] instead
//! of registering everything up front. The contract is *bit-equality*:
//! replaying any scenario through the streaming adapter must produce a
//! run indistinguishable — every cycle sample, completion record,
//! placement, and counter compared via `to_bits` — from the classic
//! in-memory build. [`first_divergence`] names the first cycle, app, and
//! field that drifts, so a failure here is actionable without re-running
//! anything.

use std::path::PathBuf;

use dynaplace::sim::metrics::RunMetrics;
use dynaplace::sim::spec::ScenarioSpec;
use dynaplace_testutil::oracle::{first_divergence, DiffOptions};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn load_scenario(path: &std::path::Path) -> ScenarioSpec {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    ScenarioSpec::from_json_str(&text)
        .unwrap_or_else(|e| panic!("invalid scenario {}: {e}", path.display()))
}

fn run_lockstep(spec: &ScenarioSpec) -> RunMetrics {
    let mut sim = spec.build();
    sim.record_placements(true);
    sim.run()
}

fn run_streaming(spec: &ScenarioSpec) -> RunMetrics {
    let mut sim = spec
        .build_streaming_checked()
        .expect("scenario validated by the lock-step build");
    sim.record_placements(true);
    sim.run()
}

/// Every checked-in scenario — including the generative
/// `diurnal_stream` one — replayed through the streaming adapter is
/// bit-identical to the direct in-memory run.
#[test]
fn every_scenario_is_bit_identical_through_the_streaming_adapter() {
    let dir = repo_root().join("scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 7,
        "expected the full scenario corpus, found {paths:?}"
    );
    for path in paths {
        let spec = load_scenario(&path);
        let lockstep = run_lockstep(&spec);
        let streaming = run_streaming(&spec);
        if let Some(divergence) = first_divergence(&lockstep, &streaming, DiffOptions::default()) {
            panic!(
                "{}: streaming run diverges from lock-step:\n{divergence}",
                path.display()
            );
        }
    }
}

/// The pinned repro corpus (fuzz finds blessed as permanent scenarios)
/// holds the same contract: the streaming adapter is not allowed to
/// change a single bit of any regression run.
#[test]
fn every_pinned_repro_is_bit_identical_through_the_streaming_adapter() {
    let dir = repo_root().join("tests/repro");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return; // no repro corpus checked in
    };
    let mut paths: Vec<PathBuf> = entries
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let spec = load_scenario(&path);
        let lockstep = run_lockstep(&spec);
        let streaming = run_streaming(&spec);
        if let Some(divergence) = first_divergence(&lockstep, &streaming, DiffOptions::default()) {
            panic!(
                "{}: streaming run diverges from lock-step:\n{divergence}",
                path.display()
            );
        }
    }
}
