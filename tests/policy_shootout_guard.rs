//! The shootout guard: APC must weakly dominate every baseline in the
//! registry on `scenarios/mixed_workload.json`.
//!
//! "Weakly dominate" is checked on the outcomes the paper's controller
//! is accountable for:
//!
//! - jobs completed,
//! - deadline-met ratio,
//! - mean final satisfaction — the mean satisfaction across the
//!   applications still live at the last control cycle (here the
//!   standing transactional service; every batch job has drained).
//!
//! Mid-run satisfaction is deliberately *not* guarded: during the
//! transactional burst APC chooses to sacrifice an already-doomed
//! (utility-floored) transactional cycle to protect batch deadlines,
//! which is the tradeoff the objective encodes, not a regression.
//!
//! Parallel (`tasks > 1`) stage-in is APC-only, so every policy —
//! including APC — runs the scenario with task counts clamped to one:
//! each cell is the identical workload and the comparison is fair.

use std::path::PathBuf;

use dynaplace::prelude::{policy_handles, PolicyClass};
use dynaplace::sim::metrics::RunMetrics;
use dynaplace::sim::spec::ScenarioSpec;

const EPS: f64 = 1e-6;

fn mixed_workload_single_task() -> ScenarioSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios/mixed_workload.json");
    let text = std::fs::read_to_string(&path).expect("mixed_workload.json is checked in");
    let mut spec = ScenarioSpec::from_json_str(&text).expect("mixed_workload.json parses");
    for group in &mut spec.jobs {
        group.shape.tasks = 1;
    }
    spec.trace.path = None;
    spec
}

fn run(spec: &ScenarioSpec, policy: &str) -> RunMetrics {
    let mut spec = spec.clone();
    spec.scheduler = policy.to_string();
    if policy != "apc" {
        // APC-only machinery a registered policy may not support.
        spec.observation = None;
        spec.sharding = None;
        spec.deadline_secs = None;
    }
    spec.build_checked()
        .unwrap_or_else(|e| panic!("{policy} rejects the guard scenario: {e}"))
        .run()
}

/// Mean satisfaction over whatever is still live at the final sample.
fn mean_final_satisfaction(metrics: &RunMetrics) -> f64 {
    let last = metrics.samples.last().expect("run produced samples");
    let parts: Vec<f64> = last
        .batch_hypothetical_rp
        .iter()
        .chain(last.txn_rp.iter())
        .map(|rp| rp.value())
        .collect();
    assert!(
        !parts.is_empty(),
        "final sample carries no satisfaction at all"
    );
    parts.iter().sum::<f64>() / parts.len() as f64
}

#[test]
fn apc_weakly_dominates_every_baseline_on_mixed_workload() {
    let spec = mixed_workload_single_task();
    let apc = run(&spec, "apc");
    let apc_final = mean_final_satisfaction(&apc);
    let apc_met = apc.deadline_met_ratio().unwrap_or(1.0);

    let mut compared = 0;
    for policy in policy_handles() {
        if policy.class() == PolicyClass::Apc {
            continue;
        }
        let name = policy.name().to_string();
        let baseline = run(&spec, &name);
        assert!(
            apc.completions.len() >= baseline.completions.len(),
            "{name} completed {} jobs, APC only {}",
            baseline.completions.len(),
            apc.completions.len()
        );
        let base_met = baseline.deadline_met_ratio().unwrap_or(1.0);
        assert!(
            apc_met + EPS >= base_met,
            "{name} met {base_met:.3} of deadlines, APC only {apc_met:.3}"
        );
        let base_final = mean_final_satisfaction(&baseline);
        assert!(
            apc_final + EPS >= base_final,
            "{name} ended at satisfaction {base_final:+.4}, APC at {apc_final:+.4}"
        );
        compared += 1;
    }
    assert!(
        compared >= 6,
        "registry should hold at least six baselines, found {compared}"
    );
}
