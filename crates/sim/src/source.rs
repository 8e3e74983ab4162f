//! Streaming workload sources.
//!
//! A [`WorkloadSource`] yields [`Submission`]s lazily, in non-decreasing
//! time order, so the engine can admit work just before it arrives
//! instead of materializing every job up front. Three implementations:
//!
//! - [`ScenarioSource`] — a replay adapter over a scenario's classic
//!   `jobs`/`txns` blocks, with pre-assigned application ids so a
//!   streamed replay is bit-identical to the lock-step build;
//! - [`GenerativeSource`] — stochastic batch arrival streams (Poisson,
//!   cyclic MMPP, diurnal curves, flash crowds) plus open-loop
//!   transactional populations, drawn lazily from per-stream RNGs;
//! - [`MergedSource`] — a deterministic merge of both, ordered by
//!   `(time, child index)`.
//!
//! The ordering contract: `peek` returns the time of the submission the
//! next `next` call will yield, times never decrease, and a source is
//! exhausted exactly when `peek` returns `None`.

use std::collections::VecDeque;

use dynaplace_model::ids::AppId;
use dynaplace_model::units::{SimDuration, SimTime};
use dynaplace_txn::workload::ArrivalPattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a job's deadline is derived — the scenario `goal` block of either
/// job list; the engine resolves it against the job's profile at
/// admission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GoalSubmission {
    /// Deadline = arrival + factor × best execution time.
    Factor(f64),
    /// Deadline = arrival + this many seconds.
    RelativeSecs(f64),
}

/// One batch job submission, in raw scenario units. The engine builds
/// the [`dynaplace_batch::job::JobSpec`] at admission, using `id` when
/// pre-assigned (replay sources) or the next free application id
/// (generative sources — which is what lets constant-memory runs
/// recycle ids).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSubmission {
    /// Pre-assigned application id; `None` = assign at admission.
    pub id: Option<AppId>,
    /// Submission instant.
    pub arrival: SimTime,
    /// Total work, megacycles.
    pub work_mcycles: f64,
    /// Maximum speed per task, MHz.
    pub max_speed_mhz: f64,
    /// Memory per task, MB.
    pub memory_mb: f64,
    /// Deadline derivation.
    pub goal: GoalSubmission,
    /// Parallel tasks (1 = ordinary job).
    pub tasks: u32,
    /// Optional job class tag.
    pub class: Option<String>,
    /// Demand in the cluster's extra rigid dimensions, registry order.
    pub extra_rigid: Vec<f64>,
}

/// One transactional application registration (always at time zero —
/// transactional load is a rate curve, not a job stream).
pub struct TxnSubmission {
    /// Pre-assigned application id; `None` = assign at admission.
    pub id: Option<AppId>,
    /// Memory per instance, MB.
    pub memory_mb: f64,
    /// Maximum instances.
    pub max_instances: u32,
    /// Per-request CPU demand, megacycles.
    pub demand_mcycles: f64,
    /// Response-time floor, seconds.
    pub floor_secs: f64,
    /// Response-time goal, seconds.
    pub goal_secs: f64,
    /// The arrival-rate curve.
    pub pattern: Box<dyn ArrivalPattern + Send>,
    /// Demand in the cluster's extra rigid dimensions, registry order.
    pub extra_rigid: Vec<f64>,
}

impl std::fmt::Debug for TxnSubmission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnSubmission")
            .field("id", &self.id)
            .field("memory_mb", &self.memory_mb)
            .field("max_instances", &self.max_instances)
            .field("demand_mcycles", &self.demand_mcycles)
            .finish_non_exhaustive()
    }
}

/// One unit of streamed workload.
#[derive(Debug)]
pub enum Submission {
    /// A batch job arriving at [`JobSubmission::arrival`].
    Job(JobSubmission),
    /// A transactional application registering at time zero.
    Txn(TxnSubmission),
}

impl Submission {
    /// The instant this submission takes effect.
    pub fn time(&self) -> SimTime {
        match self {
            Submission::Job(job) => job.arrival,
            Submission::Txn(_) => SimTime::ZERO,
        }
    }
}

/// A lazy, time-ordered stream of workload submissions.
///
/// Contract: `peek` returns the time of the submission the next call to
/// `next` yields (`None` = exhausted), and yielded times never
/// decrease. `peek` takes `&mut self` so generative implementations can
/// draw the next arrival on demand.
pub trait WorkloadSource: std::fmt::Debug + Send {
    /// Time of the next submission, or `None` when exhausted.
    fn peek(&mut self) -> Option<SimTime>;
    /// Yields the next submission in time order.
    fn next(&mut self) -> Option<Submission>;
    /// Number of application ids `0..reserved_ids()` this source
    /// pre-assigns. The engine keeps automatic id assignment above this
    /// range so lazily admitted submissions never collide with a
    /// pre-assigned id that has not been admitted yet.
    fn reserved_ids(&self) -> u32 {
        0
    }
}

/// A replay source over pre-materialized submissions (the adapter that
/// wraps a scenario's classic `jobs`/`txns` blocks).
///
/// The caller supplies submissions already sorted by time (stable, so
/// same-instant submissions keep declaration order) with ids
/// pre-assigned in declaration order — which makes a streamed replay
/// admit exactly the applications, under exactly the ids, that the
/// lock-step build registers up front.
#[derive(Debug)]
pub struct ScenarioSource {
    submissions: VecDeque<Submission>,
    reserved: u32,
}

impl ScenarioSource {
    /// Wraps `submissions` (must be sorted by [`Submission::time`]) that
    /// pre-assign ids `0..reserved`.
    ///
    /// # Panics
    ///
    /// Panics if the submissions are not in non-decreasing time order.
    pub fn from_parts(submissions: Vec<Submission>, reserved: u32) -> Self {
        for pair in submissions.windows(2) {
            assert!(
                pair[0].time() <= pair[1].time(),
                "scenario submissions must be sorted by time"
            );
        }
        Self {
            submissions: submissions.into(),
            reserved,
        }
    }
}

impl WorkloadSource for ScenarioSource {
    fn peek(&mut self) -> Option<SimTime> {
        self.submissions.front().map(Submission::time)
    }

    fn next(&mut self) -> Option<Submission> {
        self.submissions.pop_front()
    }

    fn reserved_ids(&self) -> u32 {
        self.reserved
    }
}

/// A stochastic arrival process for one generated batch stream.
///
/// All stochastic variants are sampled by thinning a homogeneous
/// Poisson process at the variant's maximum rate, so one stream
/// consumes its RNG in a single deterministic order regardless of how
/// the acceptance draws fall.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals.
    Poisson {
        /// Arrival rate, jobs per second.
        rate_per_sec: f64,
    },
    /// Cyclic Markov-modulated Poisson process: the stream dwells in
    /// each `(rate_per_sec, mean_dwell_secs)` state for an
    /// exponentially distributed time, then moves to the next state
    /// (wrapping around). Two states give the classic on/off burst
    /// model.
    Mmpp {
        /// `(rate_per_sec, mean_dwell_secs)` per state, visited in
        /// order.
        states: Vec<(f64, f64)>,
    },
    /// Diurnal curve: a non-homogeneous Poisson process with rate
    /// `base + amplitude·sin(2π·t/period)`, floored at zero.
    Diurnal {
        /// Mean rate, jobs per second.
        base_rate_per_sec: f64,
        /// Peak deviation from the mean, jobs per second.
        amplitude: f64,
        /// Period in seconds (86 400 = one day).
        period_secs: f64,
    },
    /// Flash crowds: `base` rate with a `multiplier×` spike of
    /// `duration_secs` starting every `every_secs`.
    FlashCrowd {
        /// Baseline rate, jobs per second.
        base_rate_per_sec: f64,
        /// Rate multiplier during a spike.
        multiplier: f64,
        /// Spike spacing, seconds (first spike starts at this offset).
        every_secs: f64,
        /// Spike length, seconds.
        duration_secs: f64,
    },
}

impl ArrivalProcess {
    /// The thinning envelope: an upper bound on the instantaneous rate.
    fn max_rate(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_sec } => *rate_per_sec,
            ArrivalProcess::Mmpp { states } => states.iter().map(|&(r, _)| r).fold(0.0, f64::max),
            ArrivalProcess::Diurnal {
                base_rate_per_sec,
                amplitude,
                ..
            } => base_rate_per_sec + amplitude.abs(),
            ArrivalProcess::FlashCrowd {
                base_rate_per_sec,
                multiplier,
                ..
            } => base_rate_per_sec * multiplier.max(1.0),
        }
    }
}

/// Mutable sampling state of one [`ArrivalProcess`] (the MMPP state
/// trajectory is drawn lazily as time advances).
#[derive(Debug, Clone, Default)]
struct ProcessState {
    /// Current MMPP state index.
    mmpp_state: usize,
    /// Instant the current MMPP dwell ends.
    mmpp_dwell_end: SimTime,
}

impl ArrivalProcess {
    /// Instantaneous rate at `t`, advancing `state` (and drawing dwell
    /// times from `rng`) as needed. `t` must not decrease across calls
    /// on one stream.
    fn rate_at(&self, t: SimTime, state: &mut ProcessState, rng: &mut StdRng) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_sec } => *rate_per_sec,
            ArrivalProcess::Mmpp { states } => {
                while t >= state.mmpp_dwell_end {
                    state.mmpp_state = (state.mmpp_state + 1) % states.len();
                    let (_, mean_dwell) = states[state.mmpp_state];
                    let u: f64 = rng.gen::<f64>().max(1e-12);
                    state.mmpp_dwell_end += SimDuration::from_secs(-mean_dwell * u.ln());
                }
                states[state.mmpp_state].0
            }
            ArrivalProcess::Diurnal {
                base_rate_per_sec,
                amplitude,
                period_secs,
            } => {
                let phase = 2.0 * std::f64::consts::PI * t.as_secs() / period_secs;
                (base_rate_per_sec + amplitude * phase.sin()).max(0.0)
            }
            ArrivalProcess::FlashCrowd {
                base_rate_per_sec,
                multiplier,
                every_secs,
                duration_secs,
            } => {
                let into_cycle = t.as_secs().rem_euclid(*every_secs);
                if into_cycle < *duration_secs {
                    base_rate_per_sec * multiplier
                } else {
                    *base_rate_per_sec
                }
            }
        }
    }
}

/// The per-job template of a classic job group or a generated batch
/// stream: every job either submits is an instance of this shape.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTemplate {
    /// Total work per job, megacycles.
    pub work_mcycles: f64,
    /// Maximum speed per task, MHz.
    pub max_speed_mhz: f64,
    /// Memory per task, MB.
    pub memory_mb: f64,
    /// Deadline derivation.
    pub goal: GoalSubmission,
    /// Parallel tasks per job.
    pub tasks: u32,
    /// Optional job class tag.
    pub class: Option<String>,
    /// Demand in the cluster's extra rigid dimensions, registry order.
    pub extra_rigid: Vec<f64>,
}

impl JobTemplate {
    /// One job of this shape arriving at `arrival`, under the
    /// pre-assigned `id` (replay sources) or none (assign at admission).
    pub(crate) fn instantiate(&self, id: Option<AppId>, arrival: SimTime) -> JobSubmission {
        JobSubmission {
            id,
            arrival,
            work_mcycles: self.work_mcycles,
            max_speed_mhz: self.max_speed_mhz,
            memory_mb: self.memory_mb,
            goal: self.goal,
            tasks: self.tasks,
            class: self.class.clone(),
            extra_rigid: self.extra_rigid.clone(),
        }
    }
}

/// One generated batch stream: an arrival process, a job template, and
/// termination caps.
#[derive(Debug)]
struct BatchStream {
    process: ArrivalProcess,
    state: ProcessState,
    template: JobTemplate,
    rng: StdRng,
    /// Jobs left to yield; `None` = unbounded (horizon-capped).
    remaining: Option<u64>,
    /// Arrivals strictly after this instant are never yielded.
    horizon: Option<SimTime>,
    /// Envelope-process clock for thinning.
    t: SimTime,
    /// The next accepted arrival, drawn ahead for `peek`.
    pending: Option<SimTime>,
    exhausted: bool,
}

impl BatchStream {
    /// Draws the next accepted arrival by thinning, or `None` when the
    /// stream hit its count cap or horizon.
    fn draw(&mut self) -> Option<SimTime> {
        if self.remaining == Some(0) {
            return None;
        }
        let max = self.process.max_rate();
        if max <= 0.0 {
            return None;
        }
        loop {
            let u: f64 = self.rng.gen::<f64>().max(1e-12);
            self.t += SimDuration::from_secs(-u.ln() / max);
            if let Some(h) = self.horizon {
                if self.t > h {
                    return None;
                }
            }
            let rate = self.process.rate_at(self.t, &mut self.state, &mut self.rng);
            if rate >= max || self.rng.gen::<f64>() * max < rate {
                if let Some(c) = &mut self.remaining {
                    *c -= 1;
                }
                return Some(self.t);
            }
        }
    }

    fn peek(&mut self) -> Option<SimTime> {
        if self.pending.is_none() && !self.exhausted {
            self.pending = self.draw();
            self.exhausted = self.pending.is_none();
        }
        self.pending
    }
}

/// A generative workload source: open-loop transactional populations
/// registered at time zero, then batch arrivals drawn lazily from
/// per-stream arrival processes — memory use is independent of how many
/// jobs the run generates.
///
/// Determinism: stream `i` samples from its own
/// [`StdRng`] seeded as a pure function of `(seed, i)`, and same-instant
/// arrivals across streams are yielded lowest-stream-first, so the
/// submission sequence is a pure function of the configuration.
#[derive(Debug, Default)]
pub struct GenerativeSource {
    txns: VecDeque<TxnSubmission>,
    streams: Vec<BatchStream>,
}

impl GenerativeSource {
    /// Creates an empty source (populate with
    /// [`GenerativeSource::push_txn`] / [`GenerativeSource::push_batch`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Derives the RNG seed of stream `index` from the scenario seed
    /// (splitmix-style spread so neighboring streams decorrelate).
    pub fn stream_seed(seed: u64, index: usize) -> u64 {
        seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Registers an open-loop transactional population (yielded at time
    /// zero, before any batch arrival).
    pub fn push_txn(&mut self, txn: TxnSubmission) {
        self.txns.push_back(txn);
    }

    /// Adds a generated batch stream. `stream_rng_seed` should come from
    /// [`GenerativeSource::stream_seed`]; `count`/`horizon` bound the
    /// stream (at least one must be finite for the stream to terminate).
    pub fn push_batch(
        &mut self,
        process: ArrivalProcess,
        template: JobTemplate,
        stream_rng_seed: u64,
        count: Option<u64>,
        horizon: Option<SimTime>,
    ) {
        self.streams.push(BatchStream {
            process,
            state: ProcessState::default(),
            template,
            rng: StdRng::seed_from_u64(stream_rng_seed),
            remaining: count,
            horizon,
            t: SimTime::ZERO,
            pending: None,
            exhausted: false,
        });
    }

    /// Index of the stream with the earliest pending arrival (ties go to
    /// the lowest stream index).
    fn earliest_stream(&mut self) -> Option<usize> {
        let mut best: Option<(SimTime, usize)> = None;
        for i in 0..self.streams.len() {
            if let Some(t) = self.streams[i].peek() {
                let better = match best {
                    None => true,
                    Some((bt, _)) => t.as_secs() < bt.as_secs(),
                };
                if better {
                    best = Some((t, i));
                }
            }
        }
        best.map(|(_, i)| i)
    }
}

impl WorkloadSource for GenerativeSource {
    fn peek(&mut self) -> Option<SimTime> {
        if !self.txns.is_empty() {
            return Some(SimTime::ZERO);
        }
        let i = self.earliest_stream()?;
        self.streams[i].peek()
    }

    fn next(&mut self) -> Option<Submission> {
        if let Some(txn) = self.txns.pop_front() {
            return Some(Submission::Txn(txn));
        }
        let i = self.earliest_stream()?;
        let arrival = self.streams[i].pending.take()?;
        let job = self.streams[i].template.instantiate(None, arrival);
        Some(Submission::Job(job))
    }
}

/// A deterministic merge of several sources, ordered by
/// `(time, child index)` — so a scenario's classic submissions (child 0)
/// win ties against generated ones, matching the lock-step build's
/// registration order.
#[derive(Debug, Default)]
pub struct MergedSource {
    children: Vec<Box<dyn WorkloadSource>>,
}

impl MergedSource {
    /// Creates an empty merge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a child; earlier children win same-instant ties.
    pub fn push(&mut self, child: Box<dyn WorkloadSource>) {
        self.children.push(child);
    }

    fn earliest_child(&mut self) -> Option<usize> {
        let mut best: Option<(SimTime, usize)> = None;
        for i in 0..self.children.len() {
            if let Some(t) = self.children[i].peek() {
                let better = match best {
                    None => true,
                    Some((bt, _)) => t.as_secs() < bt.as_secs(),
                };
                if better {
                    best = Some((t, i));
                }
            }
        }
        best.map(|(_, i)| i)
    }
}

impl WorkloadSource for MergedSource {
    fn peek(&mut self) -> Option<SimTime> {
        let i = self.earliest_child()?;
        self.children[i].peek()
    }

    fn next(&mut self) -> Option<Submission> {
        let i = self.earliest_child()?;
        self.children[i].next()
    }

    fn reserved_ids(&self) -> u32 {
        self.children
            .iter()
            .map(|c| c.reserved_ids())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template() -> JobTemplate {
        JobTemplate {
            work_mcycles: 1_000.0,
            max_speed_mhz: 500.0,
            memory_mb: 256.0,
            goal: GoalSubmission::Factor(2.0),
            tasks: 1,
            class: None,
            extra_rigid: Vec::new(),
        }
    }

    fn drain_times(source: &mut dyn WorkloadSource) -> Vec<f64> {
        let mut times = Vec::new();
        while let Some(t) = source.peek() {
            let sub = source.next().expect("peek promised a submission");
            assert_eq!(sub.time(), t, "peek must match the yielded time");
            times.push(t.as_secs());
        }
        times
    }

    #[test]
    fn poisson_stream_is_deterministic_and_ordered() {
        let build = || {
            let mut s = GenerativeSource::new();
            s.push_batch(
                ArrivalProcess::Poisson { rate_per_sec: 0.5 },
                template(),
                GenerativeSource::stream_seed(7, 0),
                Some(50),
                None,
            );
            s
        };
        let a = drain_times(&mut build());
        let b = drain_times(&mut build());
        assert_eq!(a, b, "same seed must reproduce the same stream");
        assert_eq!(a.len(), 50);
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "times must not decrease"
        );
        // Mean gap should be in the ballpark of 1/rate = 2 s.
        let mean_gap = a.last().unwrap() / a.len() as f64;
        assert!(
            (0.5..8.0).contains(&mean_gap),
            "implausible mean gap {mean_gap}"
        );
    }

    #[test]
    fn horizon_caps_an_unbounded_stream() {
        let mut s = GenerativeSource::new();
        s.push_batch(
            ArrivalProcess::Diurnal {
                base_rate_per_sec: 0.2,
                amplitude: 0.1,
                period_secs: 600.0,
            },
            template(),
            GenerativeSource::stream_seed(3, 0),
            None,
            Some(SimTime::from_secs(1_000.0)),
        );
        let times = drain_times(&mut s);
        assert!(!times.is_empty());
        assert!(times.iter().all(|&t| t <= 1_000.0));
    }

    #[test]
    fn mmpp_and_flash_streams_terminate_and_order() {
        let mut s = GenerativeSource::new();
        s.push_batch(
            ArrivalProcess::Mmpp {
                states: vec![(2.0, 30.0), (0.05, 60.0)],
            },
            template(),
            GenerativeSource::stream_seed(11, 0),
            Some(40),
            None,
        );
        s.push_batch(
            ArrivalProcess::FlashCrowd {
                base_rate_per_sec: 0.1,
                multiplier: 20.0,
                every_secs: 300.0,
                duration_secs: 30.0,
            },
            template(),
            GenerativeSource::stream_seed(11, 1),
            Some(40),
            None,
        );
        let times = drain_times(&mut s);
        assert_eq!(times.len(), 80);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn merged_source_orders_children_and_breaks_ties_low_first() {
        let job = |id: Option<u32>, secs: f64| {
            Submission::Job(template().instantiate(id.map(AppId::new), SimTime::from_secs(secs)))
        };
        let classic = ScenarioSource::from_parts(vec![job(Some(0), 5.0), job(Some(1), 10.0)], 2);
        let gen_only = ScenarioSource::from_parts(vec![job(None, 5.0)], 0);
        let mut merged = MergedSource::new();
        merged.push(Box::new(classic));
        merged.push(Box::new(gen_only));
        assert_eq!(merged.reserved_ids(), 2);
        // Tie at t=5: the classic child (index 0) yields first.
        assert_eq!(merged.peek(), Some(SimTime::from_secs(5.0)));
        match merged.next() {
            Some(Submission::Job(j)) => assert_eq!(j.id, Some(AppId::new(0))),
            other => panic!("expected classic job first, got {other:?}"),
        }
        match merged.next() {
            Some(Submission::Job(j)) => assert_eq!(j.id, None),
            other => panic!("expected generated job second, got {other:?}"),
        }
        match merged.next() {
            Some(Submission::Job(j)) => assert_eq!(j.id, Some(AppId::new(1))),
            other => panic!("expected trailing classic job, got {other:?}"),
        }
        assert!(merged.next().is_none());
        assert!(merged.peek().is_none());
    }

    #[test]
    fn txn_submissions_yield_before_batch_arrivals() {
        let mut s = GenerativeSource::new();
        s.push_batch(
            ArrivalProcess::Poisson { rate_per_sec: 1.0 },
            template(),
            GenerativeSource::stream_seed(1, 0),
            Some(3),
            None,
        );
        s.push_txn(TxnSubmission {
            id: None,
            memory_mb: 512.0,
            max_instances: 4,
            demand_mcycles: 10.0,
            floor_secs: 0.1,
            goal_secs: 1.0,
            pattern: Box::new(dynaplace_txn::workload::ConstantRate(5.0)),
            extra_rigid: Vec::new(),
        });
        assert_eq!(s.peek(), Some(SimTime::ZERO));
        assert!(matches!(s.next(), Some(Submission::Txn(_))));
        for _ in 0..3 {
            assert!(matches!(s.next(), Some(Submission::Job(_))));
        }
        assert!(s.next().is_none());
    }
}
