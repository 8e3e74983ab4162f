//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Generates [`VARIANTS`] inputs of the workload from the seed, repeats
//! them in turn (set up, run, check) until `--seconds` have passed, and
//! prints each metric by name and unit, then one JSON result object as
//! the last line of standard output. With `--trace 0` the
//! metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` they are the per-layer ones, from traced repetitions
//! interleaved with untraced ones (whose run times give the tracing
//! overhead). Exits 1 when a correctness check fails, 2 on bad usage.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use dynaplace_perfbench::measure::{self, fingerprint, median, quantile, ratio, Rep};
use dynaplace_perfbench::probe::{Layers, Probe};
use dynaplace_perfbench::workloads::Workload;

const USAGE: &str =
    "usage: perfbench --workload <paper-mix|fleet|day-stream> --seed <n> --seconds <n> --trace <0|1>";

/// Setups measured at least per run; cheap setups are repeated on their
/// own so their median rests on several samples.
const MIN_SETUPS: usize = 5;

/// Inputs each run measures, every one at least once. The controller's
/// decisions under memory pressure are chaotic — one input can take a
/// quarter more placement changes than the next — so each metric is a
/// median over several inputs rather than a single draw.
const VARIANTS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Correctness bookkeeping across the repetitions of one run.
#[derive(Default)]
struct Verdict {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    fingerprints: [Option<u64>; VARIANTS],
}

impl Verdict {
    /// Records one repetition of `variant` (or the error that ended it),
    /// and checks its fingerprint against the variant's first one.
    fn record(&mut self, variant: usize, rep: Result<Rep, String>) -> Option<Rep> {
        match rep {
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.failures.push(e);
                None
            }
            Ok(rep) => {
                let checked = rep.check();
                // The fingerprint comparison is one more check.
                self.attempted += checked.attempted + 1;
                self.failed += checked.failed;
                self.failures.extend(checked.failures);
                let print = fingerprint(&rep.metrics);
                let first = *self.fingerprints[variant].get_or_insert(print);
                if first != print {
                    self.failed += 1;
                    self.failures.push(format!(
                        "variant {variant}: fingerprint {print:016x} differs from {first:016x}"
                    ));
                }
                Some(rep)
            }
        }
    }
}

/// A named metric value with its unit.
type Metric = (&'static str, f64, &'static str);

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let texts: Vec<String> = (0..VARIANTS as u64)
        .map(|v| {
            let seed = args.seed.wrapping_mul(VARIANTS as u64).wrapping_add(v);
            args.workload.scenario_json(seed)
        })
        .collect();
    let mut verdict = Verdict::default();
    let metrics = if args.trace {
        layer_run(&args, &texts, &mut verdict)
    } else {
        end_to_end_run(&args, &texts, &mut verdict)
    };
    let correct = verdict.failed == 0;
    for failure in &verdict.failures {
        eprintln!("check failed: {failure}");
    }
    let prints: Vec<String> = verdict
        .fingerprints
        .iter()
        .map(|p| format!("{:016x}", p.unwrap_or_default()))
        .collect();
    println!(
        "workload {} seed {} fingerprints {}",
        args.workload.name(),
        args.seed,
        prints.join(" ")
    );
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        verdict.attempted.max(1),
        verdict.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// End-to-end metrics: untraced repetitions, cycling through the
/// variants, until the time is up. Times are medians over every
/// repetition; simulated statistics, which repeat exactly per variant,
/// are medians over the variants.
fn end_to_end_run(args: &Args, texts: &[String], verdict: &mut Verdict) -> Vec<Metric> {
    let streaming = args.workload.streaming();
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    let mut cycle_ms = Vec::new();
    let mut simulated: Vec<[f64; 4]> = Vec::new();
    while runs.len() < VARIANTS || started.elapsed().as_secs_f64() < args.seconds {
        let variant = runs.len() % VARIANTS;
        let text = &texts[variant];
        let Some(rep) = verdict.record(variant, measure::untraced(text, streaming)) else {
            break;
        };
        setups.push(rep.setup_secs);
        runs.push(rep.run_secs);
        cycle_ms.extend(
            rep.metrics
                .samples
                .iter()
                .map(|s| s.placement_compute_secs * 1e3),
        );
        if simulated.len() < VARIANTS {
            let m = &rep.metrics;
            let txn: Vec<f64> = m
                .samples
                .iter()
                .filter_map(|s| s.txn_rp.map(|u| u.value()))
                .collect();
            simulated.push([
                m.deadline_met_ratio().unwrap_or_default() * 100.0,
                m.changes.disruptive_total() as f64,
                m.mean_completion_rp()
                    .map(|u| u.value())
                    .unwrap_or_default(),
                ratio(txn.iter().sum(), txn.len() as f64),
            ]);
        }
        // While setups are cheap, repeat them on their own so their
        // median rests on several samples; a fifth of the time at most.
        while setups.len() < MIN_SETUPS * runs.len()
            && setups.iter().sum::<f64>() < 0.2 * args.seconds
        {
            let t = Instant::now();
            if let Err(e) = measure::setup(text, streaming) {
                verdict.record(variant, Err(e));
                break;
            }
            setups.push(t.elapsed().as_secs_f64());
        }
    }
    if simulated.is_empty() {
        return Vec::new();
    }
    let across = |i: usize| median(&simulated.iter().map(|v| v[i]).collect::<Vec<_>>());
    eprintln!(
        "{}: {} runs, {} setups, {} cycles",
        args.workload.name(),
        runs.len(),
        setups.len(),
        cycle_ms.len()
    );
    vec![
        ("setup_s", median(&setups), "s"),
        ("run_s", median(&runs), "s"),
        ("cycle_ms_p50", quantile(&cycle_ms, 0.5), "ms"),
        ("cycle_ms_p90", quantile(&cycle_ms, 0.9), "ms"),
        (
            "peak_rss_mb",
            measure::peak_rss_mb().unwrap_or_default(),
            "MB",
        ),
        ("deadline_met_pct", across(0), "%"),
        ("placement_changes", across(1), "count"),
        ("mean_completion_rp", across(2), "rp"),
        ("txn_rp_mean", across(3), "rp"),
    ]
}

/// Per-layer metrics: traced repetitions, each preceded by an untraced
/// one for the overhead comparison; every metric is the median over the
/// traced repetitions.
fn layer_run(args: &Args, texts: &[String], verdict: &mut Verdict) -> Vec<Metric> {
    let streaming = args.workload.streaming();
    let probe = Arc::new(Probe::default());
    let started = Instant::now();
    let mut plain_runs = Vec::new();
    let mut traced_runs = Vec::new();
    let mut per_rep: Vec<Vec<Metric>> = Vec::new();
    while per_rep.len() < VARIANTS || started.elapsed().as_secs_f64() < args.seconds {
        let variant = per_rep.len() % VARIANTS;
        let text = &texts[variant];
        let Some(plain) = verdict.record(variant, measure::untraced(text, streaming)) else {
            break;
        };
        let Some(traced) = verdict.record(variant, measure::traced(text, streaming, &probe)) else {
            break;
        };
        plain_runs.push(plain.run_secs);
        traced_runs.push(traced.run_secs);
        per_rep.push(layer_metrics(&traced, text.len() as f64 / 1e6));
    }
    let Some(template) = per_rep.first() else {
        return Vec::new();
    };
    let mut metrics: Vec<Metric> = template
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let values: Vec<f64> = per_rep.iter().map(|rep| rep[i].1).collect();
            (name, median(&values), unit)
        })
        .collect();
    let overhead = (ratio(median(&traced_runs), median(&plain_runs)) - 1.0) * 100.0;
    metrics.push(("trace.overhead_pct", overhead, "%"));
    let value = |name: &str| metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    eprintln!(
        "{}: {} traced runs; run_s untraced {:.4}, traced {:.4}; place_s + fill_s + engine.self_s {:.4}",
        args.workload.name(),
        traced_runs.len(),
        median(&plain_runs),
        median(&traced_runs),
        value("optimizer.place_s") + value("optimizer.fill_s") + value("engine.self_s")
    );
    metrics
}

/// The per-layer metrics of one traced repetition of a `text_mb`
/// megabyte scenario.
fn layer_metrics(rep: &Rep, text_mb: f64) -> Vec<Metric> {
    let stages = rep.stages.unwrap_or_default();
    let idle = Layers::default();
    let l = rep.layers.as_ref().unwrap_or(&idle);
    let (draw_secs, drawn) = rep.source.unwrap_or_default();
    let m = &rep.metrics;
    let place_s: f64 = l.place_secs.iter().sum();
    let fill_s: f64 = l.fill_secs.iter().sum();
    let hit = |i: usize| {
        ratio(
            l.cache_hits[i] as f64,
            (l.cache_hits[i] + l.cache_misses[i]) as f64,
        )
    };
    let us = |secs: &[f64]| quantile(secs, 0.5) * 1e6;
    vec![
        ("json.parse_s", stages.parse_secs, "s"),
        ("json.mb_per_s", ratio(text_mb, stages.parse_secs), "MB/s"),
        ("spec.validate_s", stages.validate_secs, "s"),
        ("spec.build_s", stages.build_secs, "s"),
        (
            "source.draw_us_per_job",
            ratio(draw_secs * 1e6, drawn as f64),
            "us",
        ),
        ("engine.events", l.events as f64, "count"),
        ("engine.self_s", rep.run_secs - l.policy_secs, "s"),
        ("engine.phase_actuate_s", l.phase_actuate_secs, "s"),
        ("engine.phase_reconcile_s", l.phase_reconcile_secs, "s"),
        ("engine.phase_sample_s", l.phase_sample_secs, "s"),
        ("optimizer.place_calls", l.place_secs.len() as f64, "count"),
        (
            "optimizer.place_ms_p50",
            quantile(&l.place_secs, 0.5) * 1e3,
            "ms",
        ),
        (
            "optimizer.place_ms_p90",
            quantile(&l.place_secs, 0.9) * 1e3,
            "ms",
        ),
        ("optimizer.place_s", place_s, "s"),
        ("optimizer.fill_calls", l.fill_secs.len() as f64, "count"),
        (
            "optimizer.fill_us_p50",
            quantile(&l.fill_secs, 0.5) * 1e6,
            "us",
        ),
        (
            "optimizer.fill_us_p90",
            quantile(&l.fill_secs, 0.9) * 1e6,
            "us",
        ),
        ("optimizer.fill_s", fill_s, "s"),
        ("optimizer.evaluations", l.evaluations as f64, "count"),
        ("optimizer.sweeps", l.sweeps as f64, "count"),
        ("optimizer.adoptions", l.adoptions as f64, "count"),
        (
            "optimizer.adopt_ratio",
            ratio(l.adoptions as f64, l.evaluations as f64),
            "ratio",
        ),
        (
            "optimizer.eval_us",
            ratio((place_s + fill_s) * 1e6, l.evaluations as f64),
            "us",
        ),
        ("optimizer.timed_out", l.timed_out as f64, "count"),
        ("cache.score_hit_ratio", hit(0), "ratio"),
        ("cache.demand_hit_ratio", hit(1), "ratio"),
        ("cache.batch_hit_ratio", hit(2), "ratio"),
        ("cache.column_hit_ratio", hit(3), "ratio"),
        ("evaluate.score_us", us(&l.score_secs), "us"),
        ("load.distribute_us", us(&l.distribute_secs), "us"),
        ("shard.cells", l.cells as f64, "count"),
        ("shard.cell_ms_p50", quantile(&l.cell_ms, 0.5), "ms"),
        ("shard.cell_ms_p90", quantile(&l.cell_ms, 0.9), "ms"),
        ("shard.residual_s", l.residual_secs, "s"),
        ("shard.escalations", l.escalations as f64, "count"),
        ("shard.rebalance_moves", l.rebalance_moves as f64, "count"),
        (
            "observe.missed_heartbeats",
            m.observation.missed_heartbeats as f64,
            "count",
        ),
        (
            "observe.stale_holds",
            m.observation.stale_holds as f64,
            "count",
        ),
        (
            "observe.fill_only_degrades",
            m.observation.fill_only_degrades as f64,
            "count",
        ),
        ("actuation.ops", l.ops as f64, "count"),
        (
            "actuation.op_success_ratio",
            ratio(l.ops_applied as f64, l.ops as f64),
            "ratio",
        ),
        ("actuation.retries", m.actuation.retries as f64, "count"),
        (
            "actuation.fill_only_fallbacks",
            m.actuation.fill_only_fallbacks as f64,
            "count",
        ),
    ]
}
