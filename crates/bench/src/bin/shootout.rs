//! The standing policy shootout: run every registered placement policy
//! over every scenario in `scenarios/` and print a comparison table.
//!
//! `shootout [scenario-dir] [--out <table.txt>]`
//!
//! Each cell reports `mean completion satisfaction / completions /
//! deadline-met %`. Scenario features only the APC control loop
//! supports are stripped (observation, sharding) or skipped (parallel
//! tasks, shown as `—`) for baseline-class policies, so every cell is
//! an apples-to-apples run of the same workload. A run that panics —
//! e.g. a memory-only reservation baseline meeting a multi-resource
//! cluster it cannot model — is reported as `panic`, not a crash: the
//! shootout's job is to chart where each policy breaks down, not to
//! fall over there.
//!
//! CI runs this over the checked-in scenario set and uploads the table
//! as a build artifact, giving every PR a standing comparison of the
//! full policy zoo.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use dynaplace_bench::ascii_table;
use dynaplace_sim::spec::ScenarioSpec;

const USAGE: &str = "usage: shootout [scenario-dir] [--out <table.txt>]";

/// One policy's result on one scenario, already formatted for a cell.
fn run_cell(spec: &ScenarioSpec, policy: &dynaplace_apc::PolicyHandle) -> String {
    let mut spec = spec.clone();
    spec.scheduler = policy.name().to_string();
    // Never let a shootout run write the scenario's own trace file.
    spec.trace.path = None;
    if policy.class() != dynaplace_apc::PolicyClass::Apc {
        // APC-only machinery: strip rather than fail validation, so the
        // baselines still run the same workload.
        spec.observation = None;
        spec.sharding = None;
        spec.deadline_secs = None;
        if spec.jobs.iter().any(|g| g.shape.tasks > 1) {
            // Parallel jobs are an APC-only feature; no comparable run.
            return "—".to_string();
        }
    }
    let sim = match spec.build_checked() {
        Ok(sim) => sim,
        Err(e) => return format!("invalid: {e}"),
    };
    let run = catch_unwind(AssertUnwindSafe(move || sim.run()));
    let metrics = match run {
        Ok(m) => m,
        Err(_) => return "panic".to_string(),
    };
    let rp = metrics
        .mean_completion_rp()
        .map(|u| format!("{:+.3}", u.value()))
        .unwrap_or_else(|| "n/a".to_string());
    let met = metrics
        .deadline_met_ratio()
        .map(|r| format!("{:.0}%", r * 100.0))
        .unwrap_or_else(|| "n/a".to_string());
    format!("{rp} / {} / {met}", metrics.completions.len())
}

fn main() -> ExitCode {
    let mut dir = "scenarios".to_string();
    let mut out: Option<String> = None;
    let mut positional = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(p) => out = Some(p),
                None => {
                    eprintln!("--out needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "-h" | "--help" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                if positional > 0 {
                    eprintln!("unexpected argument {other:?}\n{USAGE}");
                    return ExitCode::FAILURE;
                }
                dir = other.to_string();
                positional += 1;
            }
        }
    }

    let mut scenario_paths: Vec<std::path::PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) => {
            eprintln!("cannot read scenario dir {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    scenario_paths.sort();
    if scenario_paths.is_empty() {
        eprintln!("no *.json scenarios under {dir}");
        return ExitCode::FAILURE;
    }

    let policies = dynaplace_apc::policy_handles();
    let mut headers: Vec<String> = vec!["scenario".to_string()];
    headers.extend(policies.iter().map(|p| p.name().to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    for path in &scenario_paths {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let spec = match ScenarioSpec::from_json_str(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("invalid scenario {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let mut row = vec![name.clone()];
        for policy in &policies {
            eprintln!("running {name} under {}...", policy.name());
            row.push(run_cell(&spec, policy));
        }
        rows.push(row);
    }

    let mut table = String::new();
    table.push_str("cells: mean completion satisfaction / jobs completed / deadlines met\n");
    table.push_str(&ascii_table(&header_refs, &rows));
    print!("{table}");
    if let Some(out) = out {
        if let Err(e) = std::fs::write(&out, &table) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("table written to {out}");
    }
    ExitCode::SUCCESS
}
