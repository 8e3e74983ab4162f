//! Ablations of the controller's design choices (DESIGN.md §5a):
//!
//! 1. **Change rationing** — sweep `disruption_threshold` and watch the
//!    trade between placement churn and deadline hit rate (Experiment
//!    Two at a loaded arrival rate).
//! 2. **Between-cycle advice** — disable the start-only fill pass on
//!    arrivals/completions and watch tight jobs miss their goals
//!    (the 600 s control cycle alone cannot serve sub-cycle deadlines).
//! 3. **Paper-narrative start threshold** — the §4.3 S1 tie-break.
//!
//! Environment knobs: `ABLATION_JOBS` (default 300), `ABLATION_SEED` (42).

use dynaplace_apc::optimizer::ApcConfig;
use dynaplace_apc::PolicyHandle;
use dynaplace_bench::{ascii_table, write_csv};
use dynaplace_sim::engine::SimConfig;
use dynaplace_sim::scenario::experiment_two;

fn run(jobs: usize, seed: u64, config: ApcConfig, advice: bool, ia: f64) -> (f64, u64) {
    let sim_config = SimConfig {
        scheduler: PolicyHandle::apc_with(config, advice),
        ..SimConfig::apc_default()
    };
    let metrics = experiment_two(seed, jobs, ia, sim_config).run();
    (
        metrics.deadline_met_ratio().unwrap_or(0.0),
        metrics.changes.disruptive_total(),
    )
}

fn main() {
    let jobs: usize = std::env::var("ABLATION_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    let seed: u64 = std::env::var("ABLATION_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let ia = 80.0;

    // 1. Disruption threshold sweep.
    let mut rows = Vec::new();
    println!("ablation 1: disruption threshold (Exp. 2, ia = {ia} s, {jobs} jobs)");
    for threshold in [0.005, 0.01, 0.02, 0.05, 0.1] {
        let config = ApcConfig::builder()
            .disruption_threshold(threshold)
            .build()
            .expect("valid ablation config");
        let (met, changes) = run(jobs, seed, config, true, ia);
        rows.push(vec![
            format!("{threshold}"),
            format!("{:.1}", met * 100.0),
            format!("{changes}"),
        ]);
    }
    let headers = ["disruption_threshold", "met_pct", "changes"];
    println!("{}", ascii_table(&headers, &rows));
    write_csv("ablation_threshold", &headers, &rows);

    // 2. Between-cycle advice on/off.
    println!("ablation 2: between-cycle advice (same workload)");
    let mut rows = Vec::new();
    for advice in [true, false] {
        let (met, changes) = run(jobs, seed, ApcConfig::default(), advice, ia);
        rows.push(vec![
            format!("{advice}"),
            format!("{:.1}", met * 100.0),
            format!("{changes}"),
        ]);
    }
    let headers = ["advice_between_cycles", "met_pct", "changes"];
    println!("{}", ascii_table(&headers, &rows));
    write_csv("ablation_advice", &headers, &rows);
    let with_advice: f64 = rows[0][1].parse().expect("pct");
    let without: f64 = rows[1][1].parse().expect("pct");
    assert!(
        with_advice >= without,
        "arrival advice must not hurt the hit rate"
    );

    // 3. Start threshold (paper-narrative) on the same workload.
    println!("ablation 3: start threshold (default 1e-3 vs paper 1e-2)");
    let mut rows = Vec::new();
    for (name, config) in [
        ("default", ApcConfig::default()),
        ("paper_narrative", ApcConfig::paper_narrative()),
    ] {
        let (met, changes) = run(jobs, seed, config, true, ia);
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", met * 100.0),
            format!("{changes}"),
        ]);
    }
    let headers = ["start_threshold", "met_pct", "changes"];
    println!("{}", ascii_table(&headers, &rows));
    write_csv("ablation_start_threshold", &headers, &rows);

    // 4. Hypothetical-grid resolution: prediction accuracy vs grid size
    //    on an Experiment One-like state (the paper only says R "is a
    //    small constant").
    println!("ablation 4: hypothetical sampling-grid resolution");
    let mut rows = Vec::new();
    {
        use dynaplace_batch::hypothetical::{evaluate_batch_placement_with_grid, JobSnapshot};
        use dynaplace_batch::job::JobProfile;
        use dynaplace_model::ids::AppId;
        use dynaplace_model::units::*;
        use dynaplace_rpf::goal::CompletionGoal;
        use dynaplace_rpf::RP_FLOOR;
        use std::sync::Arc;

        // 40 staggered jobs, half placed at full speed.
        let now = SimTime::from_secs(50_000.0);
        let cycle = SimDuration::from_secs(600.0);
        let jobs: Vec<(JobSnapshot, CpuSpeed)> = (0..40)
            .map(|i| {
                let arrival = SimTime::from_secs(i as f64 * 600.0);
                let profile = Arc::new(JobProfile::single_stage(
                    Work::from_mcycles(68_640_000.0),
                    CpuSpeed::from_mhz(3_900.0),
                    Memory::from_mb(4_320.0),
                ));
                let goal =
                    CompletionGoal::from_goal_factor(arrival, profile.min_execution_time(), 2.7);
                let placed = i % 2 == 0;
                let snap = JobSnapshot::new(
                    AppId::new(i),
                    goal,
                    profile,
                    Work::from_mcycles(if placed { 3_900.0 * 5_000.0 } else { 0.0 }),
                    if placed { SimDuration::ZERO } else { cycle },
                );
                (
                    snap,
                    if placed {
                        CpuSpeed::from_mhz(3_900.0)
                    } else {
                        CpuSpeed::ZERO
                    },
                )
            })
            .collect();

        // Reference: a dense 257-point grid.
        let dense: Vec<f64> = (0..257)
            .map(|i| RP_FLOOR + (1.0 - RP_FLOOR) * i as f64 / 256.0)
            .collect();
        let reference = evaluate_batch_placement_with_grid(now, cycle, &jobs, &dense);
        let ref_map: std::collections::BTreeMap<_, _> =
            reference.performances.iter().cloned().collect();

        for points in [5usize, 9, 17, 33, 65] {
            let grid: Vec<f64> = (0..points)
                .map(|i| RP_FLOOR + (1.0 - RP_FLOOR) * i as f64 / (points - 1) as f64)
                .collect();
            let started = std::time::Instant::now();
            let mut evals = 0u32;
            let mut result = None;
            while started.elapsed().as_millis() < 20 {
                result = Some(evaluate_batch_placement_with_grid(now, cycle, &jobs, &grid));
                evals += 1;
            }
            let per_eval_us = started.elapsed().as_secs_f64() * 1e6 / f64::from(evals);
            let eval = result.expect("at least one evaluation");
            let max_err = eval
                .performances
                .iter()
                .map(|(app, u)| (u.value() - ref_map[app].value()).abs())
                .fold(0.0f64, f64::max);
            rows.push(vec![
                format!("{points}"),
                format!("{max_err:.4}"),
                format!("{per_eval_us:.1}"),
            ]);
        }
    }
    let headers = ["grid_points", "max_abs_error_vs_dense", "eval_micros"];
    println!("{}", ascii_table(&headers, &rows));
    // The wall-clock column varies run to run, so it stays on stdout and
    // the CSV keeps only the deterministic columns.
    let deterministic: Vec<Vec<String>> = rows.iter().map(|r| r[..2].to_vec()).collect();
    write_csv("ablation_grid", &headers[..2], &deterministic);

    println!("artifacts written under results/");
}
