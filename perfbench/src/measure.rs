//! One measured repetition of a workload — set up, run, check — plus the
//! statistics the report is made of.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use dynaplace_apc::register_policy;
use dynaplace_apc::PolicyHandle;
use dynaplace_json::{FromJson, Json, ToJson};
use dynaplace_sim::{MetricsRetention, RunMetrics, ScenarioSpec, Simulation, Submission};

use crate::probe::{CountingSink, Layers, Probe, TimedPolicy, PROBE_POLICY};

/// Host seconds of each setup stage of a traced repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupStages {
    /// `Json::parse` of the scenario text.
    pub parse_secs: f64,
    /// Decoding the parsed tree into a `ScenarioSpec` and validating it.
    pub validate_secs: f64,
    /// `build_checked` / `build_streaming_checked` (which re-validates).
    pub build_secs: f64,
}

/// What one repetition measured and produced.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds from scenario text to a ready simulation.
    pub setup_secs: f64,
    /// Host seconds inside `Simulation::run`.
    pub run_secs: f64,
    /// The simulated statistics.
    pub metrics: RunMetrics,
    /// Jobs the scenario submits.
    pub submitted: usize,
    /// Whether the scenario has a horizon (so not every job must finish).
    pub has_horizon: bool,
    /// Per-stage setup times (traced repetitions only).
    pub stages: Option<SetupStages>,
    /// Layer measurements (traced repetitions only).
    pub layers: Option<Layers>,
    /// Seconds to drain the spec's generated submissions standalone, and
    /// how many jobs that yielded (traced repetitions only).
    pub source: Option<(f64, usize)>,
}

/// Builds the simulation: lock-step, or streaming with aggregate
/// metrics retention.
fn build(spec: &ScenarioSpec, streaming: bool) -> Result<Simulation, String> {
    if streaming {
        let mut sim = spec.build_streaming_checked().map_err(|e| e.to_string())?;
        sim.set_retention(MetricsRetention::Aggregate);
        Ok(sim)
    } else {
        spec.build_checked().map_err(|e| e.to_string())
    }
}

/// Parses, validates and builds `text` with tracing off.
pub fn setup(text: &str, streaming: bool) -> Result<(ScenarioSpec, Simulation), String> {
    let spec = ScenarioSpec::from_json_str(text).map_err(|e| e.to_string())?;
    let sim = build(&spec, streaming)?;
    Ok((spec, sim))
}

/// One untraced repetition: time the setup and the run.
pub fn untraced(text: &str, streaming: bool) -> Result<Rep, String> {
    let started = Instant::now();
    let (spec, sim) = setup(text, streaming)?;
    let setup_secs = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let metrics = run(sim)?;
    let run_secs = started.elapsed().as_secs_f64();
    Ok(Rep {
        setup_secs,
        run_secs,
        metrics,
        submitted: spec.job_count() + spec.generated_job_cap(),
        has_horizon: spec.horizon_secs.is_some(),
        stages: None,
        layers: None,
        source: None,
    })
}

/// One traced repetition: the scenario's policy runs inside a
/// [`TimedPolicy`] registered under [`PROBE_POLICY`], a [`CountingSink`]
/// receives the engine's decision-level events, and every setup stage
/// is timed on its own.
pub fn traced(text: &str, streaming: bool, probe: &Arc<Probe>) -> Result<Rep, String> {
    let started = Instant::now();
    let tree = Json::parse(text).map_err(|e| e.to_string())?;
    let parse_secs = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut spec = ScenarioSpec::from_json(&tree).map_err(|e| e.to_string())?;
    spec.validate().map_err(|e| e.to_string())?;
    let validate_secs = started.elapsed().as_secs_f64();

    let inner = spec.resolve_scheduler().map_err(|e| e.to_string())?;
    register_policy(PolicyHandle::new(TimedPolicy::new(
        inner,
        Arc::clone(probe),
    )));
    spec.scheduler = PROBE_POLICY.to_string();

    let started = Instant::now();
    let mut sim = build(&spec, streaming)?;
    let build_secs = started.elapsed().as_secs_f64();
    sim.set_trace_sink(Arc::new(CountingSink(Arc::clone(probe))));

    probe.take();
    let started = Instant::now();
    let metrics = run(sim)?;
    let run_secs = started.elapsed().as_secs_f64();
    let layers = probe.take();

    let started = Instant::now();
    let drawn = spec.generated_submissions();
    let draw_secs = started.elapsed().as_secs_f64();
    let jobs = drawn
        .iter()
        .filter(|s| matches!(s, Submission::Job(_)))
        .count();

    Ok(Rep {
        setup_secs: parse_secs + validate_secs + build_secs,
        run_secs,
        metrics,
        submitted: spec.job_count() + spec.generated_job_cap(),
        has_horizon: spec.horizon_secs.is_some(),
        stages: Some(SetupStages {
            parse_secs,
            validate_secs,
            build_secs,
        }),
        layers: Some(layers),
        source: Some((draw_secs, jobs)),
    })
}

/// Runs the simulation, turning a panic into an error.
fn run(sim: Simulation) -> Result<RunMetrics, String> {
    catch_unwind(AssertUnwindSafe(|| sim.run())).map_err(|payload| {
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("simulation panicked: {message}")
    })
}

/// The correctness verdict on one repetition.
#[derive(Debug, Default)]
pub struct Checked {
    /// Checks made: one per submitted job (did it complete, on a
    /// horizon-free run) plus one for the run as a whole.
    pub attempted: usize,
    /// Checks that failed.
    pub failed: usize,
    /// What failed, for the report.
    pub failures: Vec<String>,
}

impl Rep {
    /// Checks the run: no starvation report, at least one completion,
    /// and on horizon-free runs every submitted job completed.
    pub fn check(&self) -> Checked {
        let mut checked = Checked {
            attempted: self.submitted + 1,
            ..Checked::default()
        };
        let completed = self.metrics.completed_jobs();
        if !self.has_horizon && completed != self.submitted {
            checked.failed += self.submitted.abs_diff(completed);
            checked.failures.push(format!(
                "horizon-free run completed {completed} of {} submitted jobs",
                self.submitted
            ));
        }
        let mut run_failures = Vec::new();
        if let Some(s) = &self.metrics.starvation {
            run_failures.push(format!(
                "starvation breaker fired at t={}s with {} jobs left",
                s.time.as_secs(),
                s.apps.len()
            ));
        }
        if completed == 0 {
            run_failures.push("no job completed".to_string());
        }
        if !run_failures.is_empty() {
            checked.failed += 1;
            checked.failures.extend(run_failures);
        }
        checked
    }
}

/// 64-bit FNV-1a over the run's simulated statistics — every field of
/// `RunMetrics` except the host-measured `placement_compute_secs`.
/// Equal fingerprints mean the runs made the same decisions.
pub fn fingerprint(metrics: &RunMetrics) -> u64 {
    let mut simulated = metrics.clone();
    for sample in &mut simulated.samples {
        sample.placement_compute_secs = 0.0;
    }
    simulated
        .to_json()
        .compact()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`; zero for
/// an empty list.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`; zero for an empty list.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or zero when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`) in MB, when the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
