//! Per-layer instruments that sit outside the program: a policy wrapper
//! that times every optimizer call (and probes the scoring and load
//! layers on each cycle's real problem), and a trace sink that
//! timestamps engine events as they arrive. Both record into one shared
//! [`Layers`] tally; neither changes a decision, which the benchmark
//! proves by comparing run fingerprints with an unwrapped run.

use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use dynaplace_apc::optimizer::{ApcConfig, PlacementOutcome};
use dynaplace_apc::{
    distribute, score_placement, PlacementPolicy, PlacementProblem, PolicyClass, PolicyHandle,
};
use dynaplace_trace::{Phase, TraceEvent, TraceLevel, TraceSink};

/// Registry name of the wrapper policy.
pub const PROBE_POLICY: &str = "perfbench-probe";

/// Everything the instruments measured over one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Wall seconds of each `place` call.
    pub place_secs: Vec<f64>,
    /// Wall seconds of each `fill_only` call.
    pub fill_secs: Vec<f64>,
    /// Wall seconds spent inside the wrapper, probes included.
    pub policy_secs: f64,
    /// Optimizer search counters summed over every call.
    pub evaluations: u64,
    /// Improvement sweeps summed over every call.
    pub sweeps: u64,
    /// Candidates adopted summed over every call.
    pub adoptions: u64,
    /// Calls the anytime deadline cut short.
    pub timed_out: u64,
    /// Wall seconds of each `score_placement` probe.
    pub score_secs: Vec<f64>,
    /// Wall seconds of each `distribute` probe.
    pub distribute_secs: Vec<f64>,
    /// Decision-level trace events received.
    pub events: u64,
    /// Summed `PhaseSpan` wall seconds of the actuate phase.
    pub phase_actuate_secs: f64,
    /// Summed `PhaseSpan` wall seconds of the reconcile phase.
    pub phase_reconcile_secs: f64,
    /// Summed `PhaseSpan` wall seconds of the sample phase.
    pub phase_sample_secs: f64,
    /// Score-cache hits and misses per memo layer, summed over passes:
    /// `[score, demand, batch, column]`.
    pub cache_hits: [u64; 4],
    /// See [`Layers::cache_hits`].
    pub cache_misses: [u64; 4],
    /// Actuation operations resolved.
    pub ops: u64,
    /// Actuation operations that took effect.
    pub ops_applied: u64,
    /// Most cells any sharded call solved.
    pub cells: u64,
    /// Per sharded call: milliseconds before the first cell was replayed,
    /// divided by its cell count.
    pub cell_ms: Vec<f64>,
    /// Seconds sharded calls spent after their last cell: merge, the
    /// residual pass for escalated apps and the rebalancer.
    pub residual_secs: f64,
    /// Applications escalated out of their cell.
    pub escalations: u64,
    /// Cross-cell rebalance moves tried.
    pub rebalance_moves: u64,
    call: CallMarks,
}

/// Arrival instants of the cell events inside the call in flight.
#[derive(Debug, Default)]
struct CallMarks {
    cells: u64,
    first_cell: Option<Instant>,
    last_cell: Option<Instant>,
}

/// The tally the wrapper and the sink share.
#[derive(Debug, Default)]
pub struct Probe {
    layers: Mutex<Layers>,
}

impl Probe {
    /// Takes the tally, leaving an empty one for the next run.
    pub fn take(&self) -> Layers {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> MutexGuard<'_, Layers> {
        self.layers.lock().expect("a probe call panicked")
    }
}

/// A trace sink that counts and timestamps decision-level events.
#[derive(Debug)]
pub struct CountingSink(pub Arc<Probe>);

impl TraceSink for CountingSink {
    fn wants(&self, level: TraceLevel) -> bool {
        level == TraceLevel::Decisions
    }

    fn record(&self, event: &TraceEvent) {
        if event.level() != TraceLevel::Decisions {
            return;
        }
        let now = Instant::now();
        let mut l = self.0.lock();
        l.events += 1;
        match event {
            TraceEvent::PhaseSpan {
                phase, wall_secs, ..
            } => match phase {
                Phase::Actuate => l.phase_actuate_secs += wall_secs,
                Phase::Reconcile => l.phase_reconcile_secs += wall_secs,
                Phase::Sample => l.phase_sample_secs += wall_secs,
                Phase::Optimize => {}
            },
            TraceEvent::CachePassStats { counters: c, .. } => {
                let hits = [c.score_hits, c.demand_hits, c.batch_hits, c.column_hits];
                let misses = [
                    c.score_misses,
                    c.demand_misses,
                    c.batch_misses,
                    c.column_misses,
                ];
                for i in 0..4 {
                    l.cache_hits[i] += hits[i];
                    l.cache_misses[i] += misses[i];
                }
            }
            TraceEvent::OpResolved { outcome, .. } => {
                l.ops += 1;
                if *outcome == "applied" {
                    l.ops_applied += 1;
                }
            }
            TraceEvent::CellEnter { .. } => {
                l.call.cells += 1;
                l.call.first_cell.get_or_insert(now);
            }
            TraceEvent::CellExit { .. } => l.call.last_cell = Some(now),
            TraceEvent::CellEscalated { .. } => l.escalations += 1,
            TraceEvent::RebalanceMove { .. } => l.rebalance_moves += 1,
            _ => {}
        }
    }
}

/// Wraps a policy, timing its optimizer calls into a [`Probe`].
#[derive(Debug)]
pub struct TimedPolicy {
    inner: PolicyHandle,
    probe: Arc<Probe>,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: PolicyHandle, probe: Arc<Probe>) -> Self {
        TimedPolicy { inner, probe }
    }

    fn timed(
        &self,
        problem: &PlacementProblem<'_>,
        call: impl FnOnce() -> PlacementOutcome,
        full: bool,
    ) -> PlacementOutcome {
        self.probe.lock().call = CallMarks::default();
        let started = Instant::now();
        let outcome = call();
        let ended = Instant::now();
        let secs = ended.duration_since(started).as_secs_f64();
        // On full cycles, probe the scoring and water-filling layers on
        // the cycle's real problem and chosen placement. Both are pure.
        let probes = full.then(|| {
            let score = time(|| score_placement(problem, black_box(&outcome.placement)));
            let load = time(|| distribute(problem, black_box(&outcome.placement)));
            (score, load)
        });
        let mut l = self.probe.lock();
        if full {
            l.place_secs.push(secs);
        } else {
            l.fill_secs.push(secs);
        }
        if let Some((score, load)) = probes {
            l.score_secs.push(score);
            l.distribute_secs.push(load);
        }
        l.policy_secs += started.elapsed().as_secs_f64();
        l.evaluations += outcome.stats.evaluations as u64;
        l.sweeps += outcome.stats.sweeps as u64;
        l.adoptions += outcome.stats.adoptions as u64;
        l.timed_out += u64::from(outcome.timed_out);
        let marks = std::mem::take(&mut l.call);
        if let (Some(first), Some(last)) = (marks.first_cell, marks.last_cell) {
            // Cells are solved first and their events replayed together
            // afterwards, so only the whole cell phase is visible here.
            let cell_phase = first.duration_since(started);
            l.cell_ms
                .push(cell_phase.as_secs_f64() * 1e3 / marks.cells as f64);
            l.residual_secs += ended.saturating_duration_since(last).as_secs_f64();
            l.cells = l.cells.max(marks.cells);
        }
        outcome
    }
}

fn time<T>(f: impl FnOnce() -> T) -> f64 {
    let started = Instant::now();
    black_box(f());
    started.elapsed().as_secs_f64()
}

impl PlacementPolicy for TimedPolicy {
    fn name(&self) -> &str {
        PROBE_POLICY
    }

    fn description(&self) -> &str {
        "benchmark wrapper timing each optimizer call of the wrapped policy"
    }

    fn class(&self) -> PolicyClass {
        self.inner.class()
    }

    fn place(&self, problem: &PlacementProblem<'_>, sink: &dyn TraceSink) -> PlacementOutcome {
        self.timed(problem, || self.inner.place(problem, sink), true)
    }

    fn fill_only(&self, problem: &PlacementProblem<'_>, sink: &dyn TraceSink) -> PlacementOutcome {
        self.timed(problem, || self.inner.fill_only(problem, sink), false)
    }

    fn apc_config(&self) -> Option<&ApcConfig> {
        self.inner.apc_config()
    }

    fn advises_between_cycles(&self) -> bool {
        self.inner.advises_between_cycles()
    }

    /// Re-wraps the rebuilt policy, so the scenario's sharding and other
    /// APC settings still reach the optimizer under the wrapper.
    fn with_apc_config(&self, config: ApcConfig) -> Option<PolicyHandle> {
        self.inner
            .with_apc_config(config)
            .map(|inner| PolicyHandle::new(TimedPolicy::new(inner, Arc::clone(&self.probe))))
    }
}
