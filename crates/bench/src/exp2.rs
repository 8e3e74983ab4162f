//! Shared Experiment Two sweep (feeds Figs. 3, 4, and 5).
//!
//! The paper submits jobs until 800 complete, for eight inter-arrival
//! times (400 → 50 s) and three schedulers (FCFS, EDF, APC). The sweep
//! is embarrassingly parallel, so runs execute on a scoped thread pool,
//! one worker per (inter-arrival, scheduler) pair up to the machine's
//! parallelism. There is no cache: each of `fig3`, `fig4` and `fig5`
//! re-runs the sweep on today's engine (about 13 s at paper scale on two
//! cores), so `results/` is always derived, never replayed.

use std::sync::Mutex;

use dynaplace_sim::engine::SimConfig;
use dynaplace_sim::metrics::RunMetrics;
use dynaplace_sim::scenario::experiment_two;

/// The paper's eight inter-arrival times, in seconds.
pub const EXP2_INTER_ARRIVALS: [f64; 8] = [400.0, 350.0, 300.0, 250.0, 200.0, 150.0, 100.0, 50.0];

/// One completed Experiment Two run.
#[derive(Debug, Clone)]
pub struct Exp2Run {
    /// Scheduler name: `FCFS`, `EDF`, or `APC`.
    pub scheduler: String,
    /// Mean inter-arrival time in seconds.
    pub inter_arrival: f64,
    /// The full metrics of the run.
    pub metrics: RunMetrics,
}

fn scheduler_configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("FCFS", SimConfig::fcfs_default()),
        ("EDF", SimConfig::edf_default()),
        ("APC", SimConfig::apc_default()),
    ]
}

/// Runs the full sweep: `jobs` jobs per run, all eight inter-arrival
/// times, all three schedulers.
///
/// Pass `jobs = 800` for the paper-scale sweep; smaller values are
/// useful for quick shape checks.
pub fn run_experiment_two_sweep(seed: u64, jobs: usize) -> Vec<Exp2Run> {
    let mut work: Vec<(String, f64, SimConfig)> = Vec::new();
    for &ia in &EXP2_INTER_ARRIVALS {
        for (name, config) in scheduler_configs() {
            work.push((name.to_string(), ia, config));
        }
    }

    let results: Mutex<Vec<Exp2Run>> = Mutex::new(Vec::with_capacity(work.len()));
    let next: Mutex<usize> = Mutex::new(0);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(work.len());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = {
                    let mut n = next.lock().expect("claim lock");
                    let i = *n;
                    *n += 1;
                    i
                };
                if index >= work.len() {
                    break;
                }
                let (name, ia, config) = &work[index];
                let started = std::time::Instant::now();
                let metrics = experiment_two(seed, jobs, *ia, config.clone()).run();
                eprintln!(
                    "  {name:<4} ia={ia:>5.0}s: {} completions, met {:.1}%, {} changes ({:.1?})",
                    metrics.completions.len(),
                    metrics.deadline_met_ratio().unwrap_or(0.0) * 100.0,
                    metrics.changes.disruptive_total(),
                    started.elapsed()
                );
                results.lock().expect("results lock").push(Exp2Run {
                    scheduler: name.clone(),
                    inter_arrival: *ia,
                    metrics,
                });
            });
        }
    });

    let mut runs = results.into_inner().expect("results lock");
    runs.sort_by(|a, b| {
        a.inter_arrival
            .total_cmp(&b.inter_arrival)
            .reverse()
            .then_with(|| a.scheduler.cmp(&b.scheduler))
    });
    runs
}

/// Looks up the run for a (scheduler, inter-arrival) pair.
pub fn find_run<'a>(runs: &'a [Exp2Run], scheduler: &str, ia: f64) -> &'a Exp2Run {
    runs.iter()
        .find(|r| r.scheduler == scheduler && (r.inter_arrival - ia).abs() < 1e-9)
        .unwrap_or_else(|| panic!("missing run {scheduler}@{ia}"))
}
