//! The benchmark's own checks: seeded generators, valid specs, and an
//! instrumented run that decides exactly like a plain one.

use std::path::Path;
use std::sync::Arc;

use dynaplace_json::ToJson;
use dynaplace_perfbench::measure::{self, fingerprint, quantile};
use dynaplace_perfbench::probe::Probe;
use dynaplace_perfbench::workloads::Workload;
use dynaplace_sim::{RunMetrics, ScenarioSpec};

#[test]
fn generators_are_deterministic_per_seed() {
    for workload in Workload::ALL {
        let a = workload.scenario_json(7);
        assert_eq!(a, workload.scenario_json(7), "{}", workload.name());
        assert_ne!(a, workload.scenario_json(8), "{}", workload.name());
    }
}

#[test]
fn generated_specs_validate() {
    for workload in Workload::ALL {
        for seed in [0, 1, 42, u64::MAX] {
            let text = workload.scenario_json(seed);
            let spec = ScenarioSpec::from_json_str(&text)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
            spec.validate().expect("from_json_str validated it");
            // A wall-clock budget would make decisions depend on the host.
            assert_eq!(spec.deadline_secs, None, "{}", workload.name());
            assert_eq!(spec.scheduler, "apc", "{}", workload.name());
        }
    }
}

#[test]
fn workload_names_round_trip() {
    for workload in Workload::ALL {
        assert_eq!(Workload::from_name(workload.name()), Some(workload));
    }
    assert_eq!(Workload::from_name("paper"), None);
}

/// The simulated statistics as text: every field except the host-timed
/// placement compute seconds.
fn simulated(metrics: &RunMetrics) -> String {
    let mut metrics = metrics.clone();
    for sample in &mut metrics.samples {
        sample.placement_compute_secs = 0.0;
    }
    metrics.to_json().compact()
}

/// Both scenarios in one test: the wrapper is registered under one
/// global name, so runs that use it must not overlap.
#[test]
fn timed_policy_decides_like_plain_apc() {
    let probe = Arc::new(Probe::default());
    for (file, sharded) in [
        ("mixed_workload.json", false),
        ("sharded_cluster.json", true),
    ] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../scenarios")
            .join(file);
        let text = std::fs::read_to_string(&path).expect("checked-in scenario");
        let plain = measure::untraced(&text, false).expect("plain run");
        let traced = measure::traced(&text, false, &probe).expect("traced run");
        assert_eq!(
            simulated(&plain.metrics),
            simulated(&traced.metrics),
            "{file}"
        );
        assert_eq!(fingerprint(&plain.metrics), fingerprint(&traced.metrics));
        let layers = traced.layers.expect("traced runs carry layer data");
        assert!(!layers.place_secs.is_empty(), "{file}: no place call timed");
        assert!(layers.events > 0, "{file}: the sink saw no event");
        // Sharding reaches the optimizer only if the wrapper re-wraps
        // the policy the scenario's APC settings rebuild.
        assert_eq!(layers.cells > 0, sharded, "{file}: cells {}", layers.cells);
    }
}

#[test]
fn quantiles_interpolate() {
    assert_eq!(quantile(&[], 0.5), 0.0);
    assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
    assert!((quantile(&[1.0, 2.0, 3.0], 0.9) - 2.8).abs() < 1e-12);
}
