//! Declarative scenario specifications: build a [`Simulation`] from a
//! serializable description instead of code, so experiments can be
//! defined in JSON files and run by the `simulate` harness binary.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use dynaplace_json::{obj, FromJson, Json, JsonError, ToJson};

use dynaplace_batch::job::JobProfile;
use dynaplace_model::cluster::Cluster;
use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_model::node::NodeSpec;
use dynaplace_model::resources::{ResourceDims, Resources};
use dynaplace_model::units::{CpuSpeed, Memory, SimDuration, SimTime, Work};

use dynaplace_txn::workload::{ArrivalPattern, ConstantRate, SinusoidPattern, StepPattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dynaplace_trace::{TraceConfig, TraceLevel};

use dynaplace_apc::policy::registry as policy_registry;
use dynaplace_apc::{PolicyClass, PolicyHandle};

use crate::actuation::ActuationConfig;
use crate::costs::VmCostModel;
use crate::engine::{NodeOutage, SimConfig, Simulation};
use crate::observe::{DegradedMode, ObservationConfig};
use crate::source::{
    ArrivalProcess, GenerativeSource, GoalSubmission, JobTemplate, MergedSource, ScenarioSource,
    Submission, TxnSubmission, WorkloadSource,
};

/// A group of identical nodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeGroupSpec {
    /// How many nodes in this group.
    pub count: usize,
    /// Optional group name (diagnostics and duplicate detection).
    #[serde(default)]
    pub name: Option<String>,
    /// CPU capacity per node, MHz.
    pub cpu_mhz: f64,
    /// Memory per node, MB.
    pub memory_mb: f64,
    /// Capacity per node in each *extra* rigid dimension, keyed by the
    /// dimension names [`ScenarioSpec::resources`] declares. Undeclared
    /// names are a load-time error; declared dimensions missing here
    /// default to zero capacity. On the wire the block also accepts
    /// `cpu_mhz` / `memory_mb` entries, which canonicalize to the
    /// dedicated fields above.
    #[serde(default)]
    pub resources: BTreeMap<String, f64>,
}

/// How classic job arrival times are generated. Deliberately separate
/// from the streams' [`ArrivalProcess`]: classic groups share one seed
/// RNG drawn in declaration order and take a pre-assigned id block (see
/// DESIGN.md §17).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ArrivalSpec {
    /// Exponential inter-arrival times with the given mean (seconds).
    Exponential {
        /// Mean inter-arrival time in seconds.
        mean_secs: f64,
    },
    /// Fixed inter-arrival spacing (seconds).
    Periodic {
        /// Spacing in seconds.
        every_secs: f64,
    },
    /// Explicit submission instants (seconds); `count` is ignored beyond
    /// the listed times.
    At(Vec<f64>),
}

/// The shape of one batch job, whichever list submits it: the paper
/// defines a job by its work, speed, memory and completion goal alone
/// (§4). Both [`JobGroupSpec`] and [`BatchStreamSpec`] embed it, and on
/// the wire its fields sit flat beside the list's own.
#[derive(Debug, Clone, PartialEq)]
pub struct JobShapeSpec {
    /// Total work per job, megacycles.
    pub work_mcycles: f64,
    /// Maximum speed per task, MHz.
    pub max_speed_mhz: f64,
    /// Memory per task, MB.
    pub memory_mb: f64,
    /// Deadline derivation.
    pub goal: GoalSubmission,
    /// Parallel tasks per job (1 = ordinary job).
    pub tasks: u32,
    /// Optional job class tag (for on-the-fly profile estimation).
    pub class: Option<String>,
    /// Per-task demand in each *extra* rigid dimension (beyond memory),
    /// keyed by declared dimension name; missing dimensions demand zero.
    /// The wire block also accepts a `memory_mb` entry, canonicalized to
    /// the dedicated field.
    pub resources: BTreeMap<String, f64>,
}

impl JobShapeSpec {
    /// The submission template every job of this shape instantiates,
    /// with extra-rigid demands laid out in the order of `dims`.
    pub fn template(&self, dims: &[String]) -> JobTemplate {
        JobTemplate {
            work_mcycles: self.work_mcycles,
            max_speed_mhz: self.max_speed_mhz,
            memory_mb: self.memory_mb,
            goal: self.goal,
            tasks: self.tasks,
            class: self.class.clone(),
            extra_rigid: extra_rigid(dims, &self.resources),
        }
    }
}

/// A group of identical batch jobs with a classic arrival process.
#[derive(Debug, Clone)]
pub struct JobGroupSpec {
    /// Number of jobs submitted.
    pub count: usize,
    /// Optional group name (diagnostics and duplicate detection; shares
    /// a namespace with every other application list).
    pub name: Option<String>,
    /// Arrival process for this group.
    pub arrivals: ArrivalSpec,
    /// What each job looks like.
    pub shape: JobShapeSpec,
}

impl JobGroupSpec {
    /// Number of jobs the group submits: [`JobGroupSpec::count`], except
    /// for explicit [`ArrivalSpec::At`] groups, which submit one per
    /// listed instant.
    pub fn job_count(&self) -> usize {
        match &self.arrivals {
            ArrivalSpec::At(times) => times.len(),
            _ => self.count,
        }
    }
}

/// The shape of one transactional application, whichever list declares
/// it; only the request-rate description differs between [`TxnSpec`]
/// and [`TxnStreamSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct TxnShapeSpec {
    /// Per-request CPU demand, megacycles.
    pub demand_mcycles: f64,
    /// Response-time floor, seconds.
    pub floor_secs: f64,
    /// Response-time goal, seconds.
    pub goal_secs: f64,
    /// Memory per instance, MB.
    pub memory_mb: f64,
    /// Maximum instances (usually the node count).
    pub max_instances: u32,
    /// Per-instance demand in each *extra* rigid dimension (beyond
    /// memory), keyed by declared dimension name; missing dimensions
    /// demand zero. The wire block also accepts a `memory_mb` entry,
    /// canonicalized to the dedicated field.
    pub resources: BTreeMap<String, f64>,
}

impl TxnShapeSpec {
    /// The registration of an application of this shape under `pattern`,
    /// with extra-rigid demands laid out in the order of `dims`.
    pub(crate) fn submission(
        &self,
        id: Option<AppId>,
        pattern: Box<dyn ArrivalPattern + Send>,
        dims: &[String],
    ) -> TxnSubmission {
        TxnSubmission {
            id,
            memory_mb: self.memory_mb,
            max_instances: self.max_instances,
            demand_mcycles: self.demand_mcycles,
            floor_secs: self.floor_secs,
            goal_secs: self.goal_secs,
            pattern,
            extra_rigid: extra_rigid(dims, &self.resources),
        }
    }
}

/// A transactional application with a constant or stepped rate.
#[derive(Debug, Clone)]
pub struct TxnSpec {
    /// Optional application name (diagnostics and duplicate detection;
    /// shares a namespace with every other application list).
    pub name: Option<String>,
    /// Arrival rate, requests per second. A single value means constant;
    /// multiple (time, rate) steps describe a piecewise-constant curve.
    pub rate: RateSpec,
    /// What the application looks like.
    pub shape: TxnShapeSpec,
}

/// Constant or stepped arrival rate.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(untagged)]
pub enum RateSpec {
    /// Constant rate.
    Constant(f64),
    /// `(start_secs, rate)` steps, strictly increasing starts.
    Steps(Vec<(f64, f64)>),
}

impl RateSpec {
    fn to_pattern(&self) -> Box<dyn ArrivalPattern + Send> {
        match self {
            RateSpec::Constant(rate) => Box::new(ConstantRate(*rate)),
            RateSpec::Steps(steps) => Box::new(StepPattern::new(
                steps
                    .iter()
                    .map(|&(t, r)| (SimTime::from_secs(t), r))
                    .collect(),
            )),
        }
    }
}

/// The optional `"workload"` block: generative streaming workload on
/// top of (or instead of) the classic `jobs`/`txns` lists. Streams are
/// drawn lazily by a [`crate::source::GenerativeSource`], so a scenario
/// can describe day-long traces with hundreds of thousands of jobs
/// without ever materializing them.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Generated batch job streams.
    #[serde(default)]
    pub batch_streams: Vec<BatchStreamSpec>,
    /// Generated transactional applications (registered at time zero).
    #[serde(default)]
    pub txn_streams: Vec<TxnStreamSpec>,
}

/// One generated batch stream: an arrival process plus the job shape
/// every arrival instantiates.
#[derive(Debug, Clone)]
pub struct BatchStreamSpec {
    /// Optional stream name (diagnostics and duplicate detection; shares
    /// the application namespace with jobs and txns).
    pub name: Option<String>,
    /// The arrival process.
    pub process: ArrivalProcess,
    /// Number of jobs to generate; `None` = unbounded, in which case the
    /// scenario must set `horizon_secs` to bound the stream.
    pub count: Option<u64>,
    /// What each job looks like.
    pub shape: JobShapeSpec,
}

/// One generated transactional application.
#[derive(Debug, Clone)]
pub struct TxnStreamSpec {
    /// Optional name (shares the application namespace with jobs and
    /// txns).
    pub name: Option<String>,
    /// The request-rate curve.
    pub curve: TxnCurveSpec,
    /// What the application looks like.
    pub shape: TxnShapeSpec,
}

/// The request-rate curve of a generated transactional application.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum TxnCurveSpec {
    /// Constant request rate.
    Constant {
        /// Requests per second.
        rate_per_sec: f64,
    },
    /// Diurnal rate `base + amplitude·sin(2π·t/period)`, floored at
    /// zero.
    Diurnal {
        /// Mean rate, requests per second.
        base_rate_per_sec: f64,
        /// Peak deviation from the mean, requests per second.
        amplitude_per_sec: f64,
        /// Period, seconds.
        period_secs: f64,
    },
    /// An open-loop user population: `users` users each issuing one
    /// request per `think_time_secs`, i.e. an offered rate of
    /// `users / think_time_secs` independent of response times.
    Population {
        /// Number of users.
        users: f64,
        /// Mean think time between requests, seconds.
        think_time_secs: f64,
    },
}

impl TxnCurveSpec {
    fn to_pattern(&self) -> Box<dyn ArrivalPattern + Send> {
        match self {
            TxnCurveSpec::Constant { rate_per_sec } => Box::new(ConstantRate(*rate_per_sec)),
            TxnCurveSpec::Diurnal {
                base_rate_per_sec,
                amplitude_per_sec,
                period_secs,
            } => Box::new(SinusoidPattern {
                base: *base_rate_per_sec,
                amplitude: *amplitude_per_sec,
                period_secs: *period_secs,
            }),
            TxnCurveSpec::Population {
                users,
                think_time_secs,
            } => Box::new(ConstantRate(users / think_time_secs)),
        }
    }
}

/// One scripted node outage. The wire format is a 2- or 3-element array:
/// `[offset_secs, node]` is a permanent failure (the historical form),
/// `[offset_secs, node, duration_secs]` a transient one that recovers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeFailureSpec {
    /// Offset of the failure from the start of the run, seconds.
    pub at_secs: f64,
    /// Index of the failing node.
    pub node: u32,
    /// Outage length in seconds; `None` means permanent.
    pub duration_secs: Option<f64>,
}

impl NodeFailureSpec {
    fn to_outage(self) -> NodeOutage {
        NodeOutage {
            at: SimDuration::from_secs(self.at_secs),
            node: NodeId::new(self.node),
            duration: self.duration_secs.map(SimDuration::from_secs),
        }
    }
}

/// The fallible actuation layer, in scenario-file units. Every field
/// defaults to the exactly-off [`ActuationConfig::default`], so scenarios
/// written before this block existed behave bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActuationSpec {
    /// Per-operation failure probability, `[0, 1)`.
    pub failure_rate: f64,
    /// Relative latency inflation factor bound.
    pub latency_jitter: f64,
    /// Operation timeout, seconds.
    pub timeout_secs: Option<f64>,
    /// Operations issued at or after this instant never fail.
    pub fail_until_secs: Option<f64>,
    /// Seed for the failure/jitter draws.
    pub seed: u64,
    /// First retry delay, seconds.
    pub base_backoff_secs: f64,
    /// Backoff multiplier per consecutive failure.
    pub backoff_factor: f64,
    /// Backoff cap, seconds.
    pub max_backoff_secs: f64,
    /// Consecutive failures before an (app, node) pair is quarantined.
    pub quarantine_after: u32,
    /// Quarantine length, seconds.
    pub quarantine_secs: f64,
    /// Stalled control cycles before the `fill_only` fallback.
    pub fallback_after: u32,
}

impl Default for ActuationSpec {
    fn default() -> Self {
        let c = ActuationConfig::default();
        Self {
            failure_rate: c.failure_rate,
            latency_jitter: c.latency_jitter,
            timeout_secs: c.timeout.map(|d| d.as_secs()),
            fail_until_secs: c.fail_until.map(|t| t.as_secs()),
            seed: c.seed,
            base_backoff_secs: c.base_backoff.as_secs(),
            backoff_factor: c.backoff_factor,
            max_backoff_secs: c.max_backoff.as_secs(),
            quarantine_after: c.quarantine_after,
            quarantine_secs: c.quarantine.as_secs(),
            fallback_after: c.fallback_after,
        }
    }
}

impl ActuationSpec {
    fn to_config(self) -> ActuationConfig {
        ActuationConfig {
            failure_rate: self.failure_rate,
            latency_jitter: self.latency_jitter,
            timeout: self.timeout_secs.map(SimDuration::from_secs),
            fail_until: self.fail_until_secs.map(SimTime::from_secs),
            seed: self.seed,
            base_backoff: SimDuration::from_secs(self.base_backoff_secs),
            backoff_factor: self.backoff_factor,
            max_backoff: SimDuration::from_secs(self.max_backoff_secs),
            quarantine_after: self.quarantine_after,
            quarantine: SimDuration::from_secs(self.quarantine_secs),
            fallback_after: self.fallback_after,
        }
    }
}

/// The imperfect-telemetry observation layer, in scenario-file units.
/// Absent means perfect telemetry — the engine skips the layer entirely
/// and runs bit-identically to a simulator without one (APC only, like
/// `sharding`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservationSpec {
    /// Per-source/per-cycle report loss probability, `[0, 1)`.
    pub heartbeat_loss: f64,
    /// Maximum app-report delivery lag, control cycles.
    pub max_staleness_cycles: u32,
    /// Relative multiplicative noise bound on demand values, `[0, 1)`.
    pub noise: f64,
    /// Transport faults stop at this instant; `None` = whole run.
    pub loss_until_secs: Option<f64>,
    /// Seed for the loss/staleness/noise draws.
    pub seed: u64,
    /// Consecutive misses before Healthy → Suspect; at least 1.
    pub suspect_after: u32,
    /// Consecutive misses before Suspect → Dead; `> suspect_after`.
    pub dead_after: u32,
    /// Consecutive delivered heartbeats before reinstatement; at
    /// least 1.
    pub reinstate_after: u32,
    /// EWMA smoothing factor for txn demand, `(0, 1]`; `1.0` = off.
    pub ewma_alpha: f64,
    /// Safety-margin inflation on presented txn demand; `>= 0`.
    pub headroom: f64,
    /// Degrade when the snapshot is older than this many cycles;
    /// `0` disables the budget.
    pub staleness_budget_cycles: u32,
    /// Budget-breach behavior: `"hold"` or `"fill_only"`.
    pub degraded_mode: String,
}

impl Default for ObservationSpec {
    fn default() -> Self {
        let c = ObservationConfig::default();
        Self {
            heartbeat_loss: c.heartbeat_loss,
            max_staleness_cycles: c.max_staleness_cycles,
            noise: c.noise,
            loss_until_secs: c.loss_until.map(|t| t.as_secs()),
            seed: c.seed,
            suspect_after: c.suspect_after,
            dead_after: c.dead_after,
            reinstate_after: c.reinstate_after,
            ewma_alpha: c.ewma_alpha,
            headroom: c.headroom,
            staleness_budget_cycles: c.staleness_budget_cycles,
            degraded_mode: c.degraded_mode.name().to_string(),
        }
    }
}

impl ObservationSpec {
    /// The engine-side [`ObservationConfig`] this block denotes. An
    /// unrecognized `degraded_mode` (already rejected by `validate`)
    /// falls back to `Hold`.
    pub fn to_config(&self) -> ObservationConfig {
        ObservationConfig {
            heartbeat_loss: self.heartbeat_loss,
            max_staleness_cycles: self.max_staleness_cycles,
            noise: self.noise,
            loss_until: self.loss_until_secs.map(SimTime::from_secs),
            seed: self.seed,
            suspect_after: self.suspect_after,
            dead_after: self.dead_after,
            reinstate_after: self.reinstate_after,
            ewma_alpha: self.ewma_alpha,
            headroom: self.headroom,
            staleness_budget_cycles: self.staleness_budget_cycles,
            // `validate` has already rejected unknown names.
            degraded_mode: DegradedMode::from_name(&self.degraded_mode)
                .unwrap_or(DegradedMode::Hold),
        }
    }
}

/// Decision-provenance tracing (see `dynaplace-trace`), in scenario-file
/// form. Absent, or present without a `path`, means tracing is off and
/// the run is bit-identical to an untraced one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// JSONL output path; `None` disables tracing entirely.
    pub path: Option<String>,
    /// Verbosity: `"decisions"` (the default) or `"verbose"`.
    pub level: String,
}

impl Default for TraceSpec {
    fn default() -> Self {
        Self {
            path: None,
            level: TraceLevel::Decisions.name().to_string(),
        }
    }
}

impl TraceSpec {
    fn to_config(&self) -> TraceConfig {
        TraceConfig {
            path: self.path.clone(),
            // `validate` has already rejected unknown names.
            level: TraceLevel::from_name(&self.level).unwrap_or(TraceLevel::Decisions),
        }
    }
}

/// Cell-sharded placement (APC only), in scenario-file form. Absent
/// means the classic single-cell search — bit-identical to every
/// scenario written before sharding existed. Cells are fences within
/// one placement call (see `dynaplace_apc::shard`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardingSpec {
    /// Nodes per cell (see `dynaplace_apc::ShardingPolicy::cell_size`).
    pub cell_size: usize,
}

impl ShardingSpec {
    /// A spec with the given cell size.
    pub fn new(cell_size: usize) -> Self {
        ShardingSpec { cell_size }
    }

    fn to_policy(&self) -> dynaplace_apc::ShardingPolicy {
        dynaplace_apc::ShardingPolicy::new(self.cell_size)
    }
}

/// Memory `build` may commit up front to the node list, and again to the
/// classic job list: 256 MiB each.
const BUILD_BUDGET_BYTES: usize = 256 << 20;

/// Bytes `build` commits per node (its `NodeSpec` and the engine's node
/// state) and per classic job (its arrival instant, its `Submission` and
/// the admitted application's state): the ≈380 B and ≈780 B of peak-RSS
/// growth per entry that `simulate` shows between 100,000 and 200,000
/// of them (x86-64 Linux, release build), rounded up.
const BYTES_PER_NODE: usize = 512;
const BYTES_PER_CLASSIC_JOB: usize = 1024;

/// Most nodes a scenario may declare (524,288).
pub const MAX_NODES: usize = BUILD_BUDGET_BYTES / BYTES_PER_NODE;

/// Most classic (`jobs`) batch jobs a scenario may declare (262,144).
/// Generated streams are admitted lazily and stay uncapped.
pub const MAX_CLASSIC_JOBS: usize = BUILD_BUDGET_BYTES / BYTES_PER_CLASSIC_JOB;

/// Sums `counts`, failing at the first entry (named by `field(index)`)
/// that takes the total past `limit`.
fn capped_total(
    limit: usize,
    counts: impl Iterator<Item = usize>,
    field: impl Fn(usize) -> String,
) -> Result<usize, ScenarioError> {
    let mut total = 0usize;
    for (i, count) in counts.enumerate() {
        total = total.saturating_add(count);
        if total > limit {
            return Err(ScenarioError::TooMany {
                field: field(i),
                total,
                limit,
            });
        }
    }
    Ok(total)
}

/// A structurally invalid scenario, detected at load time instead of as
/// a mid-run panic (or, worse, a silent no-op).
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The `nodes` list is empty.
    NoNodes,
    /// `node_failures[failure_index]` names a node the cluster does not
    /// have. Historically this was silently ignored.
    NodeFailureOutOfRange {
        /// Index into `node_failures`.
        failure_index: usize,
        /// The out-of-range node index.
        node: u32,
        /// Number of nodes the cluster actually has.
        nodes: usize,
    },
    /// `actuation.failure_rate` is outside `[0, 1)` (at 1.0 retries can
    /// never converge).
    FailureRateOutOfRange {
        /// The offending rate.
        rate: f64,
    },
    /// `scheduler` names no policy in the registry.
    UnknownPolicy {
        /// The unresolvable name.
        name: String,
        /// The closest registered name or alias, when one is plausibly
        /// a typo away.
        suggestion: Option<String>,
    },
    /// A job group or batch stream asks for parallel tasks under a
    /// baseline scheduler, which only models single-instance jobs.
    ParallelJobsNeedApc {
        /// Dotted path of the offending `tasks` field, e.g.
        /// `jobs[0].tasks`.
        field: String,
    },
    /// `trace.level` is not a known trace verbosity name.
    UnknownTraceLevel {
        /// The unrecognized name.
        level: String,
    },
    /// The `sharding` block is structurally invalid or used with a
    /// baseline scheduler (only APC shards).
    InvalidSharding {
        /// What is wrong with it.
        message: String,
    },
    /// The `observation` block is structurally invalid or used with a
    /// baseline scheduler (only the APC control loop reads the observed
    /// snapshot).
    InvalidObservation {
        /// What is wrong with it.
        message: String,
    },
    /// A numeric field that feeds simulated time is NaN or infinite.
    /// Letting these through used to panic deep inside the baseline
    /// schedulers' comparison sorts instead of failing at load time.
    NonFiniteNumber {
        /// Dotted path of the offending field, e.g. `jobs[0].arrivals.at[2]`.
        field: String,
        /// The non-finite value.
        value: f64,
    },
    /// Two named entries of the same kind share a name. Jobs and txns
    /// share one application namespace; node groups have their own.
    DuplicateName {
        /// Which list: `nodes` or `applications`.
        kind: &'static str,
        /// The repeated name.
        name: String,
    },
    /// The top-level `resources` registry is malformed (an empty name, a
    /// duplicate, or a restatement of the implicit `memory_mb`).
    InvalidResources {
        /// What is wrong with it.
        message: String,
    },
    /// A `resources` block names a dimension the top-level `resources`
    /// list does not declare — almost always a typo that would otherwise
    /// silently demand (or supply) nothing.
    UnknownResource {
        /// Dotted path of the offending block, e.g. `nodes[1].resources`.
        field: String,
        /// The undeclared dimension name.
        name: String,
    },
    /// A numeric field that must be strictly positive is zero or
    /// negative: a zero control cycle would never advance time, a
    /// zero-work job has no best execution time to derive a deadline
    /// from, and a zero-task job silently degrades to an ordinary one.
    NonPositiveNumber {
        /// Dotted path of the offending field, e.g. `cycle_secs`.
        field: String,
        /// The non-positive value.
        value: f64,
    },
    /// A capacity, demand, rate, or delay is negative. Negative node
    /// capacities used to panic inside `build` instead of failing at
    /// load time; negative backoffs and arrival instants would move
    /// simulated time backwards.
    NegativeNumber {
        /// Dotted path of the offending field, e.g. `nodes[0].memory_mb`.
        field: String,
        /// The negative value.
        value: f64,
    },
    /// The node groups, or the classic job groups, sum to more entries
    /// than `build` materializes up front ([`MAX_NODES`],
    /// [`MAX_CLASSIC_JOBS`]). Such counts used to abort the process on
    /// allocation failure instead of failing at load time.
    TooMany {
        /// Dotted path of the count that crosses the limit, e.g.
        /// `nodes[0].count`.
        field: String,
        /// The running total at that field.
        total: usize,
        /// The limit it crosses.
        limit: usize,
    },
    /// A job goal so short that a deadline set that long after an
    /// arrival rounds back onto the arrival instant itself (in `f64`
    /// seconds) at some arrival up to `reach_secs`. Such goals used to
    /// pass validation and panic mid-run when the engine built the
    /// job's completion goal.
    GoalTooShort {
        /// Dotted path of the offending field, e.g.
        /// `jobs[0].goal.relative_secs`.
        field: String,
        /// The field's value.
        value: f64,
        /// The latest arrival instant the check covers, seconds.
        reach_secs: f64,
    },
    /// The `workload` block is structurally invalid: an MMPP with no
    /// state that produces arrivals, or an unbounded stream in a
    /// scenario without `horizon_secs` (such a run would generate
    /// arrivals forever).
    InvalidWorkload {
        /// What is wrong with it.
        message: String,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NoNodes => write!(
                f,
                "scenario needs at least one node (a non-empty nodes list with a positive \
                 total count)"
            ),
            ScenarioError::NodeFailureOutOfRange {
                failure_index,
                node,
                nodes,
            } => write!(
                f,
                "node_failures[{failure_index}] names node {node}, but the cluster has only \
                 {nodes} nodes (indices 0..{nodes})"
            ),
            ScenarioError::FailureRateOutOfRange { rate } => {
                write!(f, "actuation.failure_rate must be in [0, 1), got {rate}")
            }
            ScenarioError::UnknownPolicy { name, suggestion } => {
                write!(f, "unknown scheduler policy {name:?}")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean {s:?}?)")?;
                }
                write!(
                    f,
                    "; registered policies: {}",
                    policy_registry::policy_names().join(", ")
                )
            }
            ScenarioError::ParallelJobsNeedApc { field } => write!(
                f,
                "{field} asks for parallel tasks, which only the apc scheduler supports"
            ),
            ScenarioError::UnknownTraceLevel { level } => {
                write!(f, "trace.level must be decisions|verbose, got {level:?}")
            }
            ScenarioError::InvalidSharding { message } => {
                write!(f, "sharding: {message}")
            }
            ScenarioError::InvalidObservation { message } => {
                write!(f, "observation: {message}")
            }
            ScenarioError::NonFiniteNumber { field, value } => {
                write!(f, "{field} must be finite, got {value}")
            }
            ScenarioError::DuplicateName { kind, name } => {
                write!(f, "{kind} contain the name {name:?} more than once")
            }
            ScenarioError::InvalidResources { message } => {
                write!(f, "resources: {message}")
            }
            ScenarioError::UnknownResource { field, name } => {
                write!(
                    f,
                    "{field} names {name:?}, which the scenario's resources list does not declare"
                )
            }
            ScenarioError::NonPositiveNumber { field, value } => {
                write!(f, "{field} must be > 0, got {value}")
            }
            ScenarioError::NegativeNumber { field, value } => {
                write!(f, "{field} must be >= 0, got {value}")
            }
            ScenarioError::TooMany {
                field,
                total,
                limit,
            } => write!(
                f,
                "{field} brings the total to {total}, more than the {limit} a build can \
                 materialize"
            ),
            ScenarioError::GoalTooShort {
                field,
                value,
                reach_secs,
            } => write!(
                f,
                "{field} = {value:e} is too small: the deadline would round onto the arrival \
                 instant for arrivals up to {reach_secs} s"
            ),
            ScenarioError::InvalidWorkload { message } => {
                write!(f, "invalid workload block: {message}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A complete, self-contained scenario.
///
/// ```
/// use dynaplace_sim::spec::*;
///
/// let json = r#"{
///   "seed": 7,
///   "scheduler": "apc",
///   "cycle_secs": 60.0,
///   "nodes": [{ "count": 2, "cpu_mhz": 2000.0, "memory_mb": 4000.0 }],
///   "jobs": [{
///     "count": 3, "work_mcycles": 30000.0, "max_speed_mhz": 1000.0,
///     "memory_mb": 1000.0, "goal": { "factor": 3.0 },
///     "arrivals": { "periodic": { "every_secs": 10.0 } }
///   }],
///   "txns": []
/// }"#;
/// let spec = ScenarioSpec::from_json_str(json).unwrap();
/// let metrics = spec.build().run();
/// assert_eq!(metrics.completions.len(), 3);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// RNG seed for stochastic arrival processes.
    #[serde(default)]
    pub seed: u64,
    /// The scheduler: a policy name (or alias) resolved against the
    /// [`dynaplace_apc::PolicyRegistry`] — `"apc"`, `"fcfs"`, `"edf"`,
    /// `"static-partition"`, `"vector-bin-packing"`, `"yield-max"`,
    /// `"dfrs"`, or any policy registered at runtime. Unknown names are
    /// a validate-time [`ScenarioError::UnknownPolicy`].
    pub scheduler: String,
    /// Control cycle length, seconds.
    pub cycle_secs: f64,
    /// Optional hard stop, seconds.
    #[serde(default)]
    pub horizon_secs: Option<f64>,
    /// Disable the paper's VM operation costs.
    #[serde(default)]
    pub free_vm_costs: bool,
    /// Extra rigid resource dimensions, in registry order. `memory_mb`
    /// is always implicit (dimension 0) and must not be restated here.
    /// An empty list is the classic memory-only model, bit-identical to
    /// scenarios written before this field existed.
    #[serde(default)]
    pub resources: Vec<String>,
    /// Node groups.
    pub nodes: Vec<NodeGroupSpec>,
    /// Batch job groups.
    pub jobs: Vec<JobGroupSpec>,
    /// Transactional applications.
    pub txns: Vec<TxnSpec>,
    /// Generative streaming workload (see [`WorkloadSpec`]); absent =
    /// the classic fully materialized model, bit-identical to scenarios
    /// written before this block existed.
    #[serde(default)]
    pub workload: Option<WorkloadSpec>,
    /// Scripted node failures (see [`NodeFailureSpec`] for the wire
    /// format). Node indices are validated against the cluster size at
    /// load time.
    #[serde(default)]
    pub node_failures: Vec<NodeFailureSpec>,
    /// The fallible actuation layer; defaults to exactly-off.
    #[serde(default)]
    pub actuation: ActuationSpec,
    /// Optional wall-clock budget for each optimization run, seconds
    /// (APC only). Makes the chosen placement depend on machine speed —
    /// leave unset for reproducible runs.
    #[serde(default)]
    pub deadline_secs: Option<f64>,
    /// Cell-sharded placement (APC only); absent = classic single-cell.
    #[serde(default)]
    pub sharding: Option<ShardingSpec>,
    /// The imperfect-telemetry observation layer (APC only); absent =
    /// perfect telemetry, bit-identical to scenarios written before the
    /// layer existed.
    #[serde(default)]
    pub observation: Option<ObservationSpec>,
    /// Decision-provenance tracing; defaults to off.
    #[serde(default)]
    pub trace: TraceSpec,
}

impl ScenarioSpec {
    /// Total number of nodes across all groups.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().map(|g| g.count).sum()
    }

    /// Total number of *classic* batch jobs the scenario will submit
    /// (see [`JobGroupSpec::job_count`]). Generated streams are excluded
    /// (the classic id layout depends on this count) — see
    /// [`ScenarioSpec::generated_job_cap`] for their contribution.
    pub fn job_count(&self) -> usize {
        self.jobs.iter().map(JobGroupSpec::job_count).sum()
    }

    /// Total count cap across generated batch streams. Exact for
    /// horizon-free scenarios (where validation forces every stream to
    /// carry a cap); an upper bound when a horizon can cut a stream
    /// short; zero contribution from uncapped streams.
    pub fn generated_job_cap(&self) -> usize {
        self.workload
            .as_ref()
            .map(|w| {
                w.batch_streams
                    .iter()
                    .map(|s| s.count.unwrap_or(0) as usize)
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Checks the scenario's structural consistency: at least one node
    /// (an all-`count: 0` fleet is as empty as no `nodes` list at all),
    /// node and classic job totals within [`MAX_NODES`] and
    /// [`MAX_CLASSIC_JOBS`], every scripted node failure inside the
    /// cluster, a convergent actuation failure rate,
    /// parallel jobs only under APC, a known trace level, finite values
    /// everywhere a number feeds simulated time (NaN arrivals or
    /// deadlines used to surface as panics inside the baseline
    /// schedulers' sorts), and sign constraints on every quantity with
    /// one (negative node capacities used to panic inside `build`; a
    /// zero `cycle_secs` would spin the control loop without advancing
    /// time).
    ///
    /// # Errors
    ///
    /// Returns the first violation in field order.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let policy = self.resolve_scheduler()?;
        let is_apc = policy.class() == PolicyClass::Apc;
        let nodes = capped_total(MAX_NODES, self.nodes.iter().map(|g| g.count), |i| {
            format!("nodes[{i}].count")
        })?;
        if nodes == 0 {
            return Err(ScenarioError::NoNodes);
        }
        capped_total(
            MAX_CLASSIC_JOBS,
            self.jobs.iter().map(JobGroupSpec::job_count),
            |i| match self.jobs[i].arrivals {
                ArrivalSpec::At(_) => format!("jobs[{i}].arrivals.at"),
                _ => format!("jobs[{i}].count"),
            },
        )?;
        for (failure_index, failure) in self.node_failures.iter().enumerate() {
            if failure.node as usize >= nodes {
                return Err(ScenarioError::NodeFailureOutOfRange {
                    failure_index,
                    node: failure.node,
                    nodes,
                });
            }
        }
        if !(0.0..1.0).contains(&self.actuation.failure_rate) {
            return Err(ScenarioError::FailureRateOutOfRange {
                rate: self.actuation.failure_rate,
            });
        }
        if TraceLevel::from_name(&self.trace.level).is_none() {
            return Err(ScenarioError::UnknownTraceLevel {
                level: self.trace.level.clone(),
            });
        }
        if let Some(sharding) = &self.sharding {
            if !is_apc {
                return Err(ScenarioError::InvalidSharding {
                    message: "only the apc scheduler supports sharding".to_string(),
                });
            }
            if sharding.cell_size == 0 {
                return Err(ScenarioError::InvalidSharding {
                    message: "cell_size must be at least 1".to_string(),
                });
            }
        }
        self.validate_observation(is_apc)?;
        self.validate_names()?;
        if let Err(e) = ResourceDims::with_extra(self.resources.iter().cloned()) {
            return Err(ScenarioError::InvalidResources {
                message: e.to_string(),
            });
        }
        self.validate_numbers(is_apc)?;
        self.validate_workload()
    }

    /// The rules only generated streams have: an unbounded stream needs
    /// a horizon to cut it, an MMPP needs a state that produces
    /// arrivals, and every process and curve parameter needs a sign and
    /// a finite value. Stream shapes are checked with the classic lists'
    /// by `validate_numbers`.
    fn validate_workload(&self) -> Result<(), ScenarioError> {
        let Some(workload) = &self.workload else {
            return Ok(());
        };
        let bad = |message: String| Err(ScenarioError::InvalidWorkload { message });
        for (i, stream) in workload.batch_streams.iter().enumerate() {
            let at = |leaf: &str| format!("workload.batch_streams[{i}].process.{leaf}");
            if stream.count.is_none() && self.horizon_secs.is_none() {
                return bad(format!(
                    "workload.batch_streams[{i}] is unbounded (no count) in a scenario \
                     without horizon_secs"
                ));
            }
            match &stream.process {
                ArrivalProcess::Poisson { rate_per_sec } => {
                    positive(&at("poisson.rate_per_sec"), *rate_per_sec)?;
                }
                ArrivalProcess::Mmpp { states } => {
                    for (j, &(rate, dwell)) in states.iter().enumerate() {
                        non_negative(&at(&format!("mmpp.states[{j}].rate")), rate)?;
                        positive(&at(&format!("mmpp.states[{j}].mean_dwell_secs")), dwell)?;
                    }
                    if !states.iter().any(|&(rate, _)| rate > 0.0) {
                        return bad(format!(
                            "{} has no state with a positive rate, so the stream \
                             never produces an arrival",
                            at("mmpp")
                        ));
                    }
                }
                ArrivalProcess::Diurnal {
                    base_rate_per_sec,
                    amplitude,
                    period_secs,
                } => {
                    positive(&at("diurnal.base_rate_per_sec"), *base_rate_per_sec)?;
                    finite(&at("diurnal.amplitude"), *amplitude)?;
                    positive(&at("diurnal.period_secs"), *period_secs)?;
                }
                ArrivalProcess::FlashCrowd {
                    base_rate_per_sec,
                    multiplier,
                    every_secs,
                    duration_secs,
                } => {
                    positive(&at("flash_crowd.base_rate_per_sec"), *base_rate_per_sec)?;
                    positive(&at("flash_crowd.multiplier"), *multiplier)?;
                    positive(&at("flash_crowd.every_secs"), *every_secs)?;
                    non_negative(&at("flash_crowd.duration_secs"), *duration_secs)?;
                }
            }
        }
        for (i, stream) in workload.txn_streams.iter().enumerate() {
            let at = |leaf: &str| format!("workload.txn_streams[{i}].curve.{leaf}");
            match &stream.curve {
                TxnCurveSpec::Constant { rate_per_sec } => {
                    non_negative(&at("constant.rate_per_sec"), *rate_per_sec)?;
                }
                TxnCurveSpec::Diurnal {
                    base_rate_per_sec,
                    amplitude_per_sec,
                    period_secs,
                } => {
                    non_negative(&at("diurnal.base_rate_per_sec"), *base_rate_per_sec)?;
                    finite(&at("diurnal.amplitude_per_sec"), *amplitude_per_sec)?;
                    positive(&at("diurnal.period_secs"), *period_secs)?;
                }
                TxnCurveSpec::Population {
                    users,
                    think_time_secs,
                } => {
                    non_negative(&at("population.users"), *users)?;
                    positive(&at("population.think_time_secs"), *think_time_secs)?;
                }
            }
        }
        Ok(())
    }

    /// Rejects degenerate observation-layer parameters: probabilities
    /// that can never recover (a loss rate of 1.0 means telemetry is
    /// permanently dark), thresholds that break the state machine's
    /// ordering (`dead_after <= suspect_after` would skip Suspect), and
    /// a smoothing factor of zero (the estimate would never track
    /// demand at all).
    fn validate_observation(&self, is_apc: bool) -> Result<(), ScenarioError> {
        let Some(o) = &self.observation else {
            return Ok(());
        };
        let bad = |message: String| Err(ScenarioError::InvalidObservation { message });
        if !is_apc {
            return bad("only the apc scheduler supports an observation layer".to_string());
        }
        if !(0.0..1.0).contains(&o.heartbeat_loss) {
            return bad(format!(
                "heartbeat_loss must be in [0, 1), got {}",
                o.heartbeat_loss
            ));
        }
        if !o.noise.is_finite() || !(0.0..1.0).contains(&o.noise) {
            return bad(format!("noise must be in [0, 1), got {}", o.noise));
        }
        if !o.ewma_alpha.is_finite() || o.ewma_alpha <= 0.0 || o.ewma_alpha > 1.0 {
            return bad(format!(
                "ewma_alpha must be in (0, 1], got {}",
                o.ewma_alpha
            ));
        }
        if !o.headroom.is_finite() || o.headroom < 0.0 {
            return bad(format!(
                "headroom must be finite and >= 0, got {}",
                o.headroom
            ));
        }
        if o.suspect_after == 0 {
            return bad("suspect_after must be at least 1".to_string());
        }
        if o.dead_after <= o.suspect_after {
            return bad(format!(
                "dead_after ({}) must exceed suspect_after ({})",
                o.dead_after, o.suspect_after
            ));
        }
        if o.reinstate_after == 0 {
            return bad("reinstate_after must be at least 1".to_string());
        }
        if let Some(until) = o.loss_until_secs {
            if !until.is_finite() || until < 0.0 {
                return bad(format!(
                    "loss_until_secs must be finite and >= 0, got {until}"
                ));
            }
        }
        if DegradedMode::from_name(&o.degraded_mode).is_none() {
            return bad(format!(
                "degraded_mode must be hold|fill_only, got {:?}",
                o.degraded_mode
            ));
        }
        Ok(())
    }

    /// Rejects repeated names: node groups among themselves, and jobs +
    /// txns across their shared application namespace. A repeated name
    /// is almost always a copy-paste slip that would otherwise make
    /// per-name diagnostics ambiguous.
    fn validate_names(&self) -> Result<(), ScenarioError> {
        fn first_duplicate<'a>(
            kind: &'static str,
            names: impl Iterator<Item = &'a String>,
        ) -> Result<(), ScenarioError> {
            let mut seen = std::collections::BTreeSet::new();
            for name in names {
                if !seen.insert(name.as_str()) {
                    return Err(ScenarioError::DuplicateName {
                        kind,
                        name: name.clone(),
                    });
                }
            }
            Ok(())
        }
        first_duplicate("nodes", self.nodes.iter().filter_map(|g| g.name.as_ref()))?;
        first_duplicate(
            "applications",
            self.jobs
                .iter()
                .filter_map(|g| g.name.as_ref())
                .chain(self.txns.iter().filter_map(|t| t.name.as_ref()))
                .chain(self.workload.iter().flat_map(|w| {
                    w.batch_streams
                        .iter()
                        .filter_map(|s| s.name.as_ref())
                        .chain(w.txn_streams.iter().filter_map(|s| s.name.as_ref()))
                })),
        )
    }

    /// Every number in field order: finite wherever it feeds simulated
    /// time, strictly positive where zero is meaningless (`cycle_secs`,
    /// per-job work, speed and goal, per-request demand, response-time
    /// goals, task and instance counts), non-negative everywhere else a
    /// negative value would either panic mid-build (node capacities) or
    /// move simulated time backwards (arrival instants, backoffs, outage
    /// offsets). Job and txn shapes get the same checks in whichever
    /// list declares them.
    fn validate_numbers(&self, is_apc: bool) -> Result<(), ScenarioError> {
        let dims = &self.resources;
        positive("cycle_secs", self.cycle_secs)?;
        if let Some(h) = self.horizon_secs {
            non_negative("horizon_secs", h)?;
        }
        let reach = SimTime::from_secs(goal_reach_secs(self.horizon_secs));
        if let Some(d) = self.deadline_secs {
            // A NaN deadline used to panic inside Duration::from_secs_f64
            // mid-build.
            positive("deadline_secs", d)?;
        }
        for (i, group) in self.nodes.iter().enumerate() {
            non_negative(&format!("nodes[{i}].cpu_mhz"), group.cpu_mhz)?;
            non_negative(&format!("nodes[{i}].memory_mb"), group.memory_mb)?;
            validate_resources(&format!("nodes[{i}]"), &group.resources, dims)?;
        }
        for (i, group) in self.jobs.iter().enumerate() {
            let path = format!("jobs[{i}]");
            validate_job_shape(&path, &group.shape, dims, is_apc, reach)?;
            match &group.arrivals {
                ArrivalSpec::Exponential { mean_secs } => {
                    positive(
                        &format!("{path}.arrivals.exponential.mean_secs"),
                        *mean_secs,
                    )?;
                }
                ArrivalSpec::Periodic { every_secs } => {
                    non_negative(&format!("{path}.arrivals.periodic.every_secs"), *every_secs)?;
                }
                ArrivalSpec::At(times) => {
                    for (j, &t) in times.iter().enumerate() {
                        non_negative(&format!("{path}.arrivals.at[{j}]"), t)?;
                    }
                }
            }
        }
        for (i, txn) in self.txns.iter().enumerate() {
            let path = format!("txns[{i}]");
            validate_txn_shape(&path, &txn.shape, dims)?;
            match &txn.rate {
                RateSpec::Constant(rate) => non_negative(&format!("{path}.rate"), *rate)?,
                RateSpec::Steps(steps) => {
                    for (j, &(start, rate)) in steps.iter().enumerate() {
                        non_negative(&format!("{path}.rate[{j}].start_secs"), start)?;
                        non_negative(&format!("{path}.rate[{j}].rate"), rate)?;
                    }
                }
            }
        }
        if let Some(workload) = &self.workload {
            for (i, stream) in workload.batch_streams.iter().enumerate() {
                let path = format!("workload.batch_streams[{i}]");
                validate_job_shape(&path, &stream.shape, dims, is_apc, reach)?;
            }
            for (i, stream) in workload.txn_streams.iter().enumerate() {
                validate_txn_shape(&format!("workload.txn_streams[{i}]"), &stream.shape, dims)?;
            }
        }
        for (i, failure) in self.node_failures.iter().enumerate() {
            non_negative(&format!("node_failures[{i}].at_secs"), failure.at_secs)?;
            if let Some(d) = failure.duration_secs {
                non_negative(&format!("node_failures[{i}].duration_secs"), d)?;
            }
        }
        let a = &self.actuation;
        non_negative("actuation.latency_jitter", a.latency_jitter)?;
        if let Some(t) = a.timeout_secs {
            positive("actuation.timeout_secs", t)?;
        }
        if let Some(t) = a.fail_until_secs {
            non_negative("actuation.fail_until_secs", t)?;
        }
        non_negative("actuation.base_backoff_secs", a.base_backoff_secs)?;
        non_negative("actuation.backoff_factor", a.backoff_factor)?;
        non_negative("actuation.max_backoff_secs", a.max_backoff_secs)?;
        non_negative("actuation.quarantine_secs", a.quarantine_secs)
    }

    /// Resolves [`ScenarioSpec::scheduler`] against the global policy
    /// registry.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownPolicy`] (with a did-you-mean suggestion
    /// where one is plausible) when the name matches no registered
    /// policy or alias.
    pub fn resolve_scheduler(&self) -> Result<PolicyHandle, ScenarioError> {
        policy_registry::resolve(&self.scheduler).ok_or_else(|| ScenarioError::UnknownPolicy {
            name: self.scheduler.clone(),
            suggestion: policy_registry::suggest(&self.scheduler),
        })
    }

    /// Materializes the scenario into a ready-to-run [`Simulation`].
    ///
    /// # Panics
    ///
    /// Panics on inconsistent specifications with a message naming the
    /// offending field; use [`ScenarioSpec::build_checked`] to handle the
    /// error instead.
    pub fn build(&self) -> Simulation {
        self.build_checked()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"))
    }

    /// Validates and materializes the scenario.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] found by
    /// [`ScenarioSpec::validate`].
    pub fn build_checked(&self) -> Result<Simulation, ScenarioError> {
        self.validate()?;
        let mut sim = self.empty_simulation();
        for submission in self.classic_submissions().0 {
            sim.admit(submission);
        }
        // Lock-step compatibility mode for generative workloads: drain
        // the source streaming mode would attach, registering every
        // generated submission up front through the same admission path
        // (and therefore under the same application ids).
        let mut generated = self.generative_source();
        while let Some(submission) = generated.next() {
            sim.admit(submission);
        }
        Ok(sim)
    }

    /// Materializes the scenario in streaming mode: submissions are
    /// admitted lazily from a [`WorkloadSource`] just before they
    /// arrive, instead of all being registered up front. Proven
    /// bit-equal to [`ScenarioSpec::build`] for every scenario (the
    /// `streaming_vs_lockstep` differential family); combine with
    /// [`crate::engine::MetricsRetention::Aggregate`] for constant-memory
    /// runs over unbounded generated traces.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent specifications; use
    /// [`ScenarioSpec::build_streaming_checked`] to handle the error
    /// instead.
    pub fn build_streaming(&self) -> Simulation {
        self.build_streaming_checked()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"))
    }

    /// Validates and materializes the scenario in streaming mode (see
    /// [`ScenarioSpec::build_streaming`]).
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] found by
    /// [`ScenarioSpec::validate`].
    pub fn build_streaming_checked(&self) -> Result<Simulation, ScenarioError> {
        self.validate()?;
        let mut sim = self.empty_simulation();
        let (mut classic, reserved) = self.classic_submissions();
        // Stable sort: same-instant submissions keep declaration order,
        // and the zero-time txn registrations move ahead of every job —
        // the order the lock-step event queue fires them in.
        classic.sort_by(|a, b| a.time().as_secs().total_cmp(&b.time().as_secs()));
        let mut merged = MergedSource::new();
        merged.push(Box::new(ScenarioSource::from_parts(classic, reserved)));
        if self.workload.is_some() {
            merged.push(Box::new(self.generative_source()));
        }
        sim.attach_source(Box::new(merged));
        Ok(sim)
    }

    /// Materializes every submission the `workload` block generates, in
    /// admission order — the order the lock-step build drains the
    /// [`GenerativeSource`] in, which is also the order streaming mode
    /// assigns their application ids (time order: zero-time txn
    /// registrations first, then batch jobs by arrival). Intended for
    /// oracles and tests that re-derive per-app expectations from the
    /// spec alone; streaming runs themselves never materialize this
    /// list.
    pub fn generated_submissions(&self) -> Vec<Submission> {
        let mut source = self.generative_source();
        let mut out = Vec::new();
        while let Some(submission) = source.next() {
            out.push(submission);
        }
        out
    }

    /// The classic (`jobs`/`txns`) submissions with their pre-assigned
    /// application ids, in declaration order (all jobs, then all txns —
    /// the id layout every lock-step build has always produced), plus
    /// the size of the id block they reserve.
    fn classic_submissions(&self) -> (Vec<Submission>, u32) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut submissions = Vec::new();
        let mut next = 0u32;
        for group in &self.jobs {
            let template = group.shape.template(&self.resources);
            for arrival in arrival_times(&mut rng, &group.arrivals, group.count) {
                let job = template.instantiate(Some(AppId::new(next)), arrival);
                submissions.push(Submission::Job(job));
                next += 1;
            }
        }
        for txn in &self.txns {
            let id = Some(AppId::new(next));
            let pattern = txn.rate.to_pattern();
            submissions.push(Submission::Txn(txn.shape.submission(
                id,
                pattern,
                &self.resources,
            )));
            next += 1;
        }
        (submissions, next)
    }

    /// The generative source described by the `workload` block (empty
    /// when the scenario has none). Each stream draws from its own RNG
    /// seeded from `(seed, stream index)`, independent of the classic
    /// arrival RNG — so adding a workload block never perturbs the
    /// classic jobs.
    fn generative_source(&self) -> GenerativeSource {
        let mut source = GenerativeSource::new();
        let Some(workload) = &self.workload else {
            return source;
        };
        for txn in &workload.txn_streams {
            let pattern = txn.curve.to_pattern();
            source.push_txn(txn.shape.submission(None, pattern, &self.resources));
        }
        let horizon = self.horizon_secs.map(SimTime::from_secs);
        for (index, stream) in workload.batch_streams.iter().enumerate() {
            source.push_batch(
                stream.process.clone(),
                stream.shape.template(&self.resources),
                GenerativeSource::stream_seed(self.seed, index),
                stream.count,
                horizon,
            );
        }
        source
    }

    /// An empty [`Simulation`] over the scenario's cluster and
    /// configuration, ready for submissions — the part of `build` shared
    /// by the lock-step and streaming modes.
    fn empty_simulation(&self) -> Simulation {
        let mut cluster = Cluster::new();
        if !self.resources.is_empty() {
            cluster.set_dims(
                ResourceDims::with_extra(self.resources.iter().cloned())
                    .expect("validate() accepted the resource registry"),
            );
        }
        for group in &self.nodes {
            // Memory-only groups keep the scalar constructor's exact
            // vector shape; declared dimensions missing from the block
            // contribute zero capacity.
            let mut rigid = vec![group.memory_mb];
            rigid.extend(
                self.resources
                    .iter()
                    .map(|name| group.resources.get(name).copied().unwrap_or(0.0)),
            );
            let mut spec = NodeSpec::try_with_resources(
                CpuSpeed::from_mhz(group.cpu_mhz),
                Resources::new(rigid),
            )
            .expect("valid node capacities");
            if let Some(name) = &group.name {
                spec = spec.with_name(name.clone());
            }
            for _ in 0..group.count {
                cluster.add_node(spec.clone());
            }
        }
        let config = SimConfig {
            cycle: SimDuration::from_secs(self.cycle_secs),
            horizon: self.horizon_secs.map(SimDuration::from_secs),
            costs: if self.free_vm_costs {
                VmCostModel::free()
            } else {
                VmCostModel::default()
            },
            scheduler: {
                let policy = self
                    .resolve_scheduler()
                    .expect("validate() resolved the scheduler");
                if policy.class() == PolicyClass::Apc {
                    let apc = dynaplace_apc::optimizer::ApcConfig::builder()
                        .deadline(self.deadline_secs.map(std::time::Duration::from_secs_f64))
                        .sharding(self.sharding.as_ref().map(ShardingSpec::to_policy))
                        .build()
                        .expect("validated scenario yields a valid APC config");
                    policy.with_apc_config(apc).unwrap_or(policy)
                } else {
                    policy
                }
            },
            node_failures: self.node_failures.iter().map(|f| f.to_outage()).collect(),
            actuation: self.actuation.to_config(),
            observation: self
                .observation
                .as_ref()
                .map(ObservationSpec::to_config)
                .unwrap_or_default(),
            trace: self.trace.to_config(),
            ..SimConfig::apc_default()
        };
        Simulation::new(cluster, config)
    }
}

/// Requires `value` to be finite.
fn finite(field: &str, value: f64) -> Result<(), ScenarioError> {
    if value.is_finite() {
        Ok(())
    } else {
        let field = field.to_string();
        Err(ScenarioError::NonFiniteNumber { field, value })
    }
}

/// Requires `value` to be finite and strictly positive.
fn positive(field: &str, value: f64) -> Result<(), ScenarioError> {
    finite(field, value)?;
    if value > 0.0 {
        Ok(())
    } else {
        let field = field.to_string();
        Err(ScenarioError::NonPositiveNumber { field, value })
    }
}

/// Requires `value` to be finite and non-negative.
fn non_negative(field: &str, value: f64) -> Result<(), ScenarioError> {
    finite(field, value)?;
    if value >= 0.0 {
        Ok(())
    } else {
        let field = field.to_string();
        Err(ScenarioError::NegativeNumber { field, value })
    }
}

/// Checks the `resources` block of the entry at `path`: every name is
/// declared in `dims` (an undeclared one is almost always a typo that
/// would silently demand, or supply, nothing) and every value is finite
/// and non-negative.
fn validate_resources(
    path: &str,
    block: &BTreeMap<String, f64>,
    dims: &[String],
) -> Result<(), ScenarioError> {
    for (name, &value) in block {
        if !dims.contains(name) {
            return Err(ScenarioError::UnknownResource {
                field: format!("{path}.resources"),
                name: name.clone(),
            });
        }
        non_negative(&format!("{path}.resources.{name}"), value)?;
    }
    Ok(())
}

/// The latest arrival instant job goals are checked against: the first
/// power of two at or past both 2^32 s (about 136 years) and the
/// horizon. A power of two has an even significand, so a goal that
/// clears it (no tie rounds back onto it) clears every earlier arrival.
fn goal_reach_secs(horizon: Option<f64>) -> f64 {
    let mut reach = 4_294_967_296.0;
    while reach < horizon.unwrap_or(0.0) {
        reach *= 2.0;
    }
    reach
}

/// Checks the job shape of the list entry at `path` (`jobs[0]`,
/// `workload.batch_streams[1]`, ...), the same way for either list.
/// `reach` is the latest arrival instant the goal check covers.
fn validate_job_shape(
    path: &str,
    shape: &JobShapeSpec,
    dims: &[String],
    is_apc: bool,
    reach: SimTime,
) -> Result<(), ScenarioError> {
    // `tasks: 0` used to silently degrade to an ordinary job.
    if shape.tasks == 0 {
        return Err(ScenarioError::NonPositiveNumber {
            field: format!("{path}.tasks"),
            value: 0.0,
        });
    }
    if shape.tasks > 1 && !is_apc {
        return Err(ScenarioError::ParallelJobsNeedApc {
            field: format!("{path}.tasks"),
        });
    }
    positive(&format!("{path}.work_mcycles"), shape.work_mcycles)?;
    positive(&format!("{path}.max_speed_mhz"), shape.max_speed_mhz)?;
    non_negative(&format!("{path}.memory_mb"), shape.memory_mb)?;
    // A deadline at the arrival instant (or before it) used to panic
    // mid-run when the engine built the job's completion goal.
    let (name, value, relative) = match shape.goal {
        GoalSubmission::Factor(f) => {
            positive(&format!("{path}.goal.factor"), f)?;
            // The engine's own arithmetic: factor × the parallel best
            // execution time.
            let profile = JobProfile::single_stage(
                Work::from_mcycles(shape.work_mcycles),
                CpuSpeed::from_mhz(shape.max_speed_mhz),
                Memory::from_mb(shape.memory_mb),
            );
            let best = profile.min_execution_time() / f64::from(shape.tasks);
            ("factor", f, SimDuration::from_secs(best.as_secs() * f))
        }
        GoalSubmission::RelativeSecs(s) => {
            positive(&format!("{path}.goal.relative_secs"), s)?;
            ("relative_secs", s, SimDuration::from_secs(s))
        }
    };
    // A positive goal can still be so small that `arrival + goal`
    // rounds back onto the arrival; the later the arrival, the larger
    // the gap must be, so checking at `reach` covers every earlier one.
    if reach + relative <= reach {
        return Err(ScenarioError::GoalTooShort {
            field: format!("{path}.goal.{name}"),
            value,
            reach_secs: reach.as_secs(),
        });
    }
    validate_resources(path, &shape.resources, dims)
}

/// Checks the txn shape of the list entry at `path` (`txns[0]`,
/// `workload.txn_streams[1]`, ...), the same way for either list.
fn validate_txn_shape(
    path: &str,
    shape: &TxnShapeSpec,
    dims: &[String],
) -> Result<(), ScenarioError> {
    // A txn capped at zero instances can never be placed at all.
    if shape.max_instances == 0 {
        return Err(ScenarioError::NonPositiveNumber {
            field: format!("{path}.max_instances"),
            value: 0.0,
        });
    }
    positive(&format!("{path}.demand_mcycles"), shape.demand_mcycles)?;
    non_negative(&format!("{path}.floor_secs"), shape.floor_secs)?;
    positive(&format!("{path}.goal_secs"), shape.goal_secs)?;
    non_negative(&format!("{path}.memory_mb"), shape.memory_mb)?;
    validate_resources(path, &shape.resources, dims)
}

/// A `resources` block as a demand vector in the order of `dims`; empty
/// when the scenario declares no extra dimensions, so memory-only specs
/// take the exact legacy code path.
fn extra_rigid(dims: &[String], block: &BTreeMap<String, f64>) -> Vec<f64> {
    dims.iter()
        .map(|name| block.get(name).copied().unwrap_or(0.0))
        .collect()
}

impl ScenarioSpec {
    /// Parses a scenario from its JSON text and validates it, so a bad
    /// file fails at load time rather than silently misbehaving mid-run.
    pub fn from_json_str(text: &str) -> Result<Self, JsonError> {
        let spec = Self::from_json(&Json::parse(text)?)?;
        spec.validate().map_err(|e| JsonError {
            message: format!("invalid scenario: {e}"),
        })?;
        Ok(spec)
    }

    /// Renders the scenario as pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }
}

// Explicit JSON conversions. The wire format is the one the checked-in
// scenario files use: lowercase scheduler names, externally tagged
// snake_case enum payloads, an untagged constant-or-steps rate, and
// defaults for seed / horizon_secs / free_vm_costs / tasks / class /
// node_failures.

/// Appends a list entry's `name` when it has one; anonymous entries
/// render without the key.
fn push_name(fields: &mut Vec<(&'static str, Json)>, name: &Option<String>) {
    if let Some(name) = name {
        fields.push(("name", Json::Str(name.clone())));
    }
}

/// Appends an extras block (`{name: value}`) when it is non-empty, so
/// memory-only scenarios render byte-identically to legacy files.
fn push_resources(fields: &mut Vec<(&'static str, Json)>, block: &BTreeMap<String, f64>) {
    if !block.is_empty() {
        fields.push(("resources", block.to_json()));
    }
}

/// Parses an optional extras block into a name → value map.
fn resources_from_json(v: Option<&Json>) -> Result<BTreeMap<String, f64>, JsonError> {
    match v {
        None | Some(Json::Null) => Ok(BTreeMap::new()),
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, value)| Ok((name.clone(), f64::from_json(value)?)))
            .collect(),
        Some(other) => Err(JsonError {
            message: format!("resources must be an object of name: value pairs, got {other:?}"),
        }),
    }
}

/// Canonicalizes one legacy scalar out of an extras block: the value may
/// sit at the top level (the historical layout) or inside `resources`;
/// the top level wins when both are present, and the block entry is
/// consumed either way so only true extras remain in the map.
fn canonical_scalar(
    v: &Json,
    block: &mut BTreeMap<String, f64>,
    key: &str,
    context: &str,
) -> Result<f64, JsonError> {
    let from_block = block.remove(key);
    match v.get(key) {
        Some(value) => f64::from_json(value),
        None => from_block.ok_or_else(|| JsonError {
            message: format!("{context} is missing {key}"),
        }),
    }
}

impl ToJson for NodeGroupSpec {
    fn to_json(&self) -> Json {
        let mut fields = vec![("count", self.count.to_json())];
        push_name(&mut fields, &self.name);
        fields.push(("cpu_mhz", self.cpu_mhz.to_json()));
        fields.push(("memory_mb", self.memory_mb.to_json()));
        push_resources(&mut fields, &self.resources);
        obj(fields)
    }
}

impl FromJson for NodeGroupSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut resources = resources_from_json(v.get("resources"))?;
        let cpu_mhz = canonical_scalar(v, &mut resources, "cpu_mhz", "node group")?;
        let memory_mb = canonical_scalar(v, &mut resources, "memory_mb", "node group")?;
        Ok(NodeGroupSpec {
            count: v.field("count")?,
            name: v.field_or("name")?,
            cpu_mhz,
            memory_mb,
            resources,
        })
    }
}

impl ToJson for ArrivalSpec {
    fn to_json(&self) -> Json {
        match self {
            ArrivalSpec::Exponential { mean_secs } => {
                obj([("exponential", obj([("mean_secs", mean_secs.to_json())]))])
            }
            ArrivalSpec::Periodic { every_secs } => {
                obj([("periodic", obj([("every_secs", every_secs.to_json())]))])
            }
            ArrivalSpec::At(times) => obj([("at", times.to_json())]),
        }
    }
}

impl FromJson for ArrivalSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Some(inner) = v.get("exponential") {
            Ok(ArrivalSpec::Exponential {
                mean_secs: inner.field("mean_secs")?,
            })
        } else if let Some(inner) = v.get("periodic") {
            Ok(ArrivalSpec::Periodic {
                every_secs: inner.field("every_secs")?,
            })
        } else if let Some(times) = v.get("at") {
            Ok(ArrivalSpec::At(Vec::from_json(times)?))
        } else {
            Err(JsonError {
                message: "arrivals must be exponential|periodic|at".to_string(),
            })
        }
    }
}

impl ToJson for GoalSubmission {
    fn to_json(&self) -> Json {
        match self {
            GoalSubmission::Factor(f) => obj([("factor", f.to_json())]),
            GoalSubmission::RelativeSecs(s) => obj([("relative_secs", s.to_json())]),
        }
    }
}

impl FromJson for GoalSubmission {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Some(f) = v.get("factor") {
            Ok(GoalSubmission::Factor(f64::from_json(f)?))
        } else if let Some(s) = v.get("relative_secs") {
            Ok(GoalSubmission::RelativeSecs(f64::from_json(s)?))
        } else {
            Err(JsonError {
                message: "goal must be factor|relative_secs".to_string(),
            })
        }
    }
}

impl JobShapeSpec {
    /// Writes the shape flat into a list entry's `fields`. `after_goal`
    /// lands between `goal` and `tasks`, where job groups have always
    /// written their `arrivals`.
    fn write_json(
        &self,
        fields: &mut Vec<(&'static str, Json)>,
        after_goal: Option<(&'static str, Json)>,
    ) {
        fields.extend([
            ("work_mcycles", self.work_mcycles.to_json()),
            ("max_speed_mhz", self.max_speed_mhz.to_json()),
            ("memory_mb", self.memory_mb.to_json()),
            ("goal", self.goal.to_json()),
        ]);
        fields.extend(after_goal);
        fields.extend([
            ("tasks", self.tasks.to_json()),
            ("class", self.class.to_json()),
        ]);
        push_resources(fields, &self.resources);
    }

    /// Reads the shape from a list entry's flat fields; `context` names
    /// the entry kind in errors.
    fn read_json(v: &Json, context: &str) -> Result<Self, JsonError> {
        let mut resources = resources_from_json(v.get("resources"))?;
        let memory_mb = canonical_scalar(v, &mut resources, "memory_mb", context)?;
        Ok(JobShapeSpec {
            work_mcycles: v.field("work_mcycles")?,
            max_speed_mhz: v.field("max_speed_mhz")?,
            memory_mb,
            goal: v.field("goal")?,
            tasks: match v.get("tasks") {
                None => 1,
                Some(t) => u32::from_json(t)?,
            },
            class: v.field_or("class")?,
            resources,
        })
    }
}

impl TxnShapeSpec {
    /// Writes the shape flat into a list entry's `fields`.
    fn write_json(&self, fields: &mut Vec<(&'static str, Json)>) {
        fields.extend([
            ("demand_mcycles", self.demand_mcycles.to_json()),
            ("floor_secs", self.floor_secs.to_json()),
            ("goal_secs", self.goal_secs.to_json()),
            ("memory_mb", self.memory_mb.to_json()),
            ("max_instances", self.max_instances.to_json()),
        ]);
        push_resources(fields, &self.resources);
    }

    /// Reads the shape from a list entry's flat fields; `context` names
    /// the entry kind in errors.
    fn read_json(v: &Json, context: &str) -> Result<Self, JsonError> {
        let mut resources = resources_from_json(v.get("resources"))?;
        let memory_mb = canonical_scalar(v, &mut resources, "memory_mb", context)?;
        Ok(TxnShapeSpec {
            demand_mcycles: v.field("demand_mcycles")?,
            floor_secs: v.field("floor_secs")?,
            goal_secs: v.field("goal_secs")?,
            memory_mb,
            max_instances: v.field("max_instances")?,
            resources,
        })
    }
}

impl ToJson for JobGroupSpec {
    fn to_json(&self) -> Json {
        let mut fields = vec![("count", self.count.to_json())];
        push_name(&mut fields, &self.name);
        let arrivals = ("arrivals", self.arrivals.to_json());
        self.shape.write_json(&mut fields, Some(arrivals));
        obj(fields)
    }
}

impl FromJson for JobGroupSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(JobGroupSpec {
            count: v.field("count")?,
            name: v.field_or("name")?,
            arrivals: v.field("arrivals")?,
            shape: JobShapeSpec::read_json(v, "job group")?,
        })
    }
}

impl ToJson for TxnSpec {
    fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        push_name(&mut fields, &self.name);
        fields.push(("rate", self.rate.to_json()));
        self.shape.write_json(&mut fields);
        obj(fields)
    }
}

impl FromJson for TxnSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(TxnSpec {
            name: v.field_or("name")?,
            rate: v.field("rate")?,
            shape: TxnShapeSpec::read_json(v, "txn")?,
        })
    }
}

impl ToJson for WorkloadSpec {
    fn to_json(&self) -> Json {
        obj([
            ("batch_streams", self.batch_streams.to_json()),
            ("txn_streams", self.txn_streams.to_json()),
        ])
    }
}

impl FromJson for WorkloadSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(WorkloadSpec {
            batch_streams: v.field_or("batch_streams")?,
            txn_streams: v.field_or("txn_streams")?,
        })
    }
}

impl ToJson for BatchStreamSpec {
    fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        push_name(&mut fields, &self.name);
        fields.extend([
            ("process", self.process.to_json()),
            ("count", self.count.to_json()),
        ]);
        self.shape.write_json(&mut fields, None);
        obj(fields)
    }
}

impl FromJson for BatchStreamSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(BatchStreamSpec {
            name: v.field_or("name")?,
            process: v.field("process")?,
            count: v.field_or("count")?,
            shape: JobShapeSpec::read_json(v, "batch stream")?,
        })
    }
}

impl ToJson for ArrivalProcess {
    fn to_json(&self) -> Json {
        match self {
            ArrivalProcess::Poisson { rate_per_sec } => {
                obj([("poisson", obj([("rate_per_sec", rate_per_sec.to_json())]))])
            }
            ArrivalProcess::Mmpp { states } => obj([("mmpp", obj([("states", states.to_json())]))]),
            ArrivalProcess::Diurnal {
                base_rate_per_sec,
                amplitude,
                period_secs,
            } => obj([(
                "diurnal",
                obj([
                    ("base_rate_per_sec", base_rate_per_sec.to_json()),
                    ("amplitude", amplitude.to_json()),
                    ("period_secs", period_secs.to_json()),
                ]),
            )]),
            ArrivalProcess::FlashCrowd {
                base_rate_per_sec,
                multiplier,
                every_secs,
                duration_secs,
            } => obj([(
                "flash_crowd",
                obj([
                    ("base_rate_per_sec", base_rate_per_sec.to_json()),
                    ("multiplier", multiplier.to_json()),
                    ("every_secs", every_secs.to_json()),
                    ("duration_secs", duration_secs.to_json()),
                ]),
            )]),
        }
    }
}

impl FromJson for ArrivalProcess {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Some(inner) = v.get("poisson") {
            Ok(ArrivalProcess::Poisson {
                rate_per_sec: inner.field("rate_per_sec")?,
            })
        } else if let Some(inner) = v.get("mmpp") {
            Ok(ArrivalProcess::Mmpp {
                states: inner.field("states")?,
            })
        } else if let Some(inner) = v.get("diurnal") {
            Ok(ArrivalProcess::Diurnal {
                base_rate_per_sec: inner.field("base_rate_per_sec")?,
                amplitude: inner.field("amplitude")?,
                period_secs: inner.field("period_secs")?,
            })
        } else if let Some(inner) = v.get("flash_crowd") {
            Ok(ArrivalProcess::FlashCrowd {
                base_rate_per_sec: inner.field("base_rate_per_sec")?,
                multiplier: inner.field("multiplier")?,
                every_secs: inner.field("every_secs")?,
                duration_secs: inner.field("duration_secs")?,
            })
        } else {
            Err(JsonError {
                message: "process must be poisson|mmpp|diurnal|flash_crowd".to_string(),
            })
        }
    }
}

impl ToJson for TxnStreamSpec {
    fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        push_name(&mut fields, &self.name);
        fields.push(("curve", self.curve.to_json()));
        self.shape.write_json(&mut fields);
        obj(fields)
    }
}

impl FromJson for TxnStreamSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(TxnStreamSpec {
            name: v.field_or("name")?,
            curve: v.field("curve")?,
            shape: TxnShapeSpec::read_json(v, "txn stream")?,
        })
    }
}

impl ToJson for TxnCurveSpec {
    fn to_json(&self) -> Json {
        match self {
            TxnCurveSpec::Constant { rate_per_sec } => {
                obj([("constant", obj([("rate_per_sec", rate_per_sec.to_json())]))])
            }
            TxnCurveSpec::Diurnal {
                base_rate_per_sec,
                amplitude_per_sec,
                period_secs,
            } => obj([(
                "diurnal",
                obj([
                    ("base_rate_per_sec", base_rate_per_sec.to_json()),
                    ("amplitude_per_sec", amplitude_per_sec.to_json()),
                    ("period_secs", period_secs.to_json()),
                ]),
            )]),
            TxnCurveSpec::Population {
                users,
                think_time_secs,
            } => obj([(
                "population",
                obj([
                    ("users", users.to_json()),
                    ("think_time_secs", think_time_secs.to_json()),
                ]),
            )]),
        }
    }
}

impl FromJson for TxnCurveSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Some(inner) = v.get("constant") {
            Ok(TxnCurveSpec::Constant {
                rate_per_sec: inner.field("rate_per_sec")?,
            })
        } else if let Some(inner) = v.get("diurnal") {
            Ok(TxnCurveSpec::Diurnal {
                base_rate_per_sec: inner.field("base_rate_per_sec")?,
                amplitude_per_sec: inner.field("amplitude_per_sec")?,
                period_secs: inner.field("period_secs")?,
            })
        } else if let Some(inner) = v.get("population") {
            Ok(TxnCurveSpec::Population {
                users: inner.field("users")?,
                think_time_secs: inner.field("think_time_secs")?,
            })
        } else {
            Err(JsonError {
                message: "curve must be constant|diurnal|population".to_string(),
            })
        }
    }
}

impl ToJson for NodeFailureSpec {
    fn to_json(&self) -> Json {
        let mut parts = vec![self.at_secs.to_json(), f64::from(self.node).to_json()];
        if let Some(duration) = self.duration_secs {
            parts.push(duration.to_json());
        }
        Json::Arr(parts)
    }
}

impl FromJson for NodeFailureSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let Json::Arr(parts) = v else {
            return Err(JsonError {
                message: "node failure must be [offset_secs, node] or \
                          [offset_secs, node, duration_secs]"
                    .to_string(),
            });
        };
        if parts.len() != 2 && parts.len() != 3 {
            return Err(JsonError {
                message: format!(
                    "node failure must have 2 or 3 elements, got {}",
                    parts.len()
                ),
            });
        }
        Ok(NodeFailureSpec {
            at_secs: f64::from_json(&parts[0])?,
            node: u32::from_json(&parts[1])?,
            duration_secs: parts.get(2).map(f64::from_json).transpose()?,
        })
    }
}

impl ToJson for ActuationSpec {
    fn to_json(&self) -> Json {
        obj([
            ("failure_rate", self.failure_rate.to_json()),
            ("latency_jitter", self.latency_jitter.to_json()),
            ("timeout_secs", self.timeout_secs.to_json()),
            ("fail_until_secs", self.fail_until_secs.to_json()),
            ("seed", self.seed.to_json()),
            ("base_backoff_secs", self.base_backoff_secs.to_json()),
            ("backoff_factor", self.backoff_factor.to_json()),
            ("max_backoff_secs", self.max_backoff_secs.to_json()),
            ("quarantine_after", self.quarantine_after.to_json()),
            ("quarantine_secs", self.quarantine_secs.to_json()),
            ("fallback_after", self.fallback_after.to_json()),
        ])
    }
}

impl FromJson for ActuationSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let d = ActuationSpec::default();
        Ok(ActuationSpec {
            failure_rate: v.field_or_else("failure_rate", || d.failure_rate)?,
            latency_jitter: v.field_or_else("latency_jitter", || d.latency_jitter)?,
            timeout_secs: v.field_or("timeout_secs")?,
            fail_until_secs: v.field_or("fail_until_secs")?,
            seed: v.field_or_else("seed", || d.seed)?,
            base_backoff_secs: v.field_or_else("base_backoff_secs", || d.base_backoff_secs)?,
            backoff_factor: v.field_or_else("backoff_factor", || d.backoff_factor)?,
            max_backoff_secs: v.field_or_else("max_backoff_secs", || d.max_backoff_secs)?,
            quarantine_after: v.field_or_else("quarantine_after", || d.quarantine_after)?,
            quarantine_secs: v.field_or_else("quarantine_secs", || d.quarantine_secs)?,
            fallback_after: v.field_or_else("fallback_after", || d.fallback_after)?,
        })
    }
}

impl ToJson for ObservationSpec {
    fn to_json(&self) -> Json {
        obj([
            ("heartbeat_loss", self.heartbeat_loss.to_json()),
            ("max_staleness_cycles", self.max_staleness_cycles.to_json()),
            ("noise", self.noise.to_json()),
            ("loss_until_secs", self.loss_until_secs.to_json()),
            ("seed", self.seed.to_json()),
            ("suspect_after", self.suspect_after.to_json()),
            ("dead_after", self.dead_after.to_json()),
            ("reinstate_after", self.reinstate_after.to_json()),
            ("ewma_alpha", self.ewma_alpha.to_json()),
            ("headroom", self.headroom.to_json()),
            (
                "staleness_budget_cycles",
                self.staleness_budget_cycles.to_json(),
            ),
            ("degraded_mode", Json::Str(self.degraded_mode.clone())),
        ])
    }
}

impl FromJson for ObservationSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let d = ObservationSpec::default();
        Ok(ObservationSpec {
            heartbeat_loss: v.field_or_else("heartbeat_loss", || d.heartbeat_loss)?,
            max_staleness_cycles: v
                .field_or_else("max_staleness_cycles", || d.max_staleness_cycles)?,
            noise: v.field_or_else("noise", || d.noise)?,
            loss_until_secs: v.field_or("loss_until_secs")?,
            seed: v.field_or_else("seed", || d.seed)?,
            suspect_after: v.field_or_else("suspect_after", || d.suspect_after)?,
            dead_after: v.field_or_else("dead_after", || d.dead_after)?,
            reinstate_after: v.field_or_else("reinstate_after", || d.reinstate_after)?,
            ewma_alpha: v.field_or_else("ewma_alpha", || d.ewma_alpha)?,
            headroom: v.field_or_else("headroom", || d.headroom)?,
            staleness_budget_cycles: v
                .field_or_else("staleness_budget_cycles", || d.staleness_budget_cycles)?,
            degraded_mode: v.field_or_else("degraded_mode", || d.degraded_mode.clone())?,
        })
    }
}

impl ToJson for TraceSpec {
    fn to_json(&self) -> Json {
        obj([
            ("path", self.path.to_json()),
            ("level", Json::Str(self.level.clone())),
        ])
    }
}

impl FromJson for TraceSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let d = TraceSpec::default();
        Ok(TraceSpec {
            path: v.field_or("path")?,
            level: v.field_or_else("level", || d.level)?,
        })
    }
}

impl ToJson for ShardingSpec {
    fn to_json(&self) -> Json {
        obj([("cell_size", self.cell_size.to_json())])
    }
}

impl FromJson for ShardingSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(ShardingSpec {
            cell_size: v.field("cell_size")?,
        })
    }
}

impl ToJson for RateSpec {
    fn to_json(&self) -> Json {
        match self {
            RateSpec::Constant(rate) => rate.to_json(),
            RateSpec::Steps(steps) => steps.to_json(),
        }
    }
}

impl FromJson for RateSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Num(rate) => Ok(RateSpec::Constant(*rate)),
            Json::Arr(_) => Ok(RateSpec::Steps(Vec::from_json(v)?)),
            _ => Err(JsonError {
                message: "rate must be a number or a list of (secs, rate) steps".to_string(),
            }),
        }
    }
}

impl ToJson for ScenarioSpec {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("seed", self.seed.to_json()),
            ("scheduler", self.scheduler.to_json()),
            ("cycle_secs", self.cycle_secs.to_json()),
            ("horizon_secs", self.horizon_secs.to_json()),
            ("free_vm_costs", self.free_vm_costs.to_json()),
        ];
        if !self.resources.is_empty() {
            fields.push(("resources", self.resources.to_json()));
        }
        fields.extend([
            ("nodes", self.nodes.to_json()),
            ("jobs", self.jobs.to_json()),
            ("txns", self.txns.to_json()),
        ]);
        if let Some(workload) = &self.workload {
            fields.push(("workload", workload.to_json()));
        }
        fields.extend([
            ("node_failures", self.node_failures.to_json()),
            ("actuation", self.actuation.to_json()),
            ("deadline_secs", self.deadline_secs.to_json()),
            ("sharding", self.sharding.to_json()),
        ]);
        if let Some(observation) = &self.observation {
            fields.push(("observation", observation.to_json()));
        }
        fields.push(("trace", self.trace.to_json()));
        obj(fields)
    }
}

impl FromJson for ScenarioSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(ScenarioSpec {
            seed: v.field_or("seed")?,
            scheduler: v.field("scheduler")?,
            cycle_secs: v.field("cycle_secs")?,
            horizon_secs: v.field_or("horizon_secs")?,
            free_vm_costs: v.field_or("free_vm_costs")?,
            resources: v.field_or("resources")?,
            nodes: v.field("nodes")?,
            jobs: v.field("jobs")?,
            txns: v.field("txns")?,
            workload: v.field_or("workload")?,
            node_failures: v.field_or("node_failures")?,
            actuation: v.field_or_else("actuation", ActuationSpec::default)?,
            deadline_secs: v.field_or("deadline_secs")?,
            sharding: v.field_or("sharding")?,
            observation: v.field_or("observation")?,
            trace: v.field_or_else("trace", TraceSpec::default)?,
        })
    }
}

fn arrival_times(rng: &mut StdRng, spec: &ArrivalSpec, count: usize) -> Vec<SimTime> {
    match spec {
        ArrivalSpec::Exponential { mean_secs } => {
            let mut t = SimTime::ZERO;
            (0..count)
                .map(|_| {
                    let u: f64 = rng.gen::<f64>().max(1e-12);
                    t += SimDuration::from_secs(-mean_secs * u.ln());
                    t
                })
                .collect()
        }
        ArrivalSpec::Periodic { every_secs } => (0..count)
            .map(|i| SimTime::from_secs(i as f64 * every_secs))
            .collect(),
        ArrivalSpec::At(times) => times.iter().map(|&t| SimTime::from_secs(t)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(scheduler: &str) -> ScenarioSpec {
        ScenarioSpec {
            seed: 1,
            scheduler: scheduler.to_string(),
            cycle_secs: 10.0,
            horizon_secs: Some(10_000.0),
            free_vm_costs: true,
            resources: vec![],
            nodes: vec![NodeGroupSpec {
                count: 2,
                name: None,
                cpu_mhz: 2_000.0,
                memory_mb: 4_000.0,
                resources: BTreeMap::new(),
            }],
            jobs: vec![JobGroupSpec {
                count: 4,
                name: None,
                arrivals: ArrivalSpec::Periodic { every_secs: 15.0 },
                shape: JobShapeSpec {
                    work_mcycles: 20_000.0,
                    max_speed_mhz: 1_000.0,
                    memory_mb: 1_000.0,
                    goal: GoalSubmission::Factor(4.0),
                    tasks: 1,
                    class: None,
                    resources: BTreeMap::new(),
                },
            }],
            txns: vec![],
            workload: None,
            node_failures: vec![],
            actuation: ActuationSpec::default(),
            deadline_secs: None,
            sharding: None,
            observation: None,
            trace: TraceSpec::default(),
        }
    }

    /// A small constant-rate web tier.
    fn web_txn(name: Option<&str>) -> TxnSpec {
        TxnSpec {
            name: name.map(str::to_string),
            rate: RateSpec::Constant(5.0),
            shape: TxnShapeSpec {
                demand_mcycles: 10.0,
                floor_secs: 0.005,
                goal_secs: 0.05,
                memory_mb: 500.0,
                max_instances: 2,
                resources: BTreeMap::new(),
            },
        }
    }

    #[test]
    fn builds_and_runs_every_scheduler() {
        for scheduler in ["apc", "fcfs", "edf"] {
            let metrics = minimal(scheduler).build().run();
            assert_eq!(metrics.completions.len(), 4, "{scheduler:?}");
        }
    }

    #[test]
    fn unknown_policy_is_a_typed_error_with_a_suggestion() {
        let spec = minimal("apx");
        match spec.build_checked() {
            Err(ScenarioError::UnknownPolicy { name, suggestion }) => {
                assert_eq!(name, "apx");
                assert_eq!(suggestion.as_deref(), Some("apc"));
            }
            Err(other) => panic!("expected UnknownPolicy, got {other:?}"),
            Ok(_) => panic!("expected UnknownPolicy, got a simulation"),
        }
        let msg = spec.validate().unwrap_err().to_string();
        assert!(msg.contains("did you mean \"apc\"?"), "{msg}");
        assert!(msg.contains("registered policies"), "{msg}");
    }

    #[test]
    fn aliases_resolve_in_scenarios() {
        // The registry's alias layer works end to end from a spec.
        let metrics = minimal("VBP").build().run();
        assert_eq!(metrics.completions.len(), 4);
    }

    #[test]
    fn round_trips_through_json() {
        let spec = minimal("apc");
        let json = spec.to_json_string();
        let back = ScenarioSpec::from_json_str(&json).unwrap();
        let a = spec.build().run();
        let b = back.build().run();
        assert_eq!(a.completions.len(), b.completions.len());
        for (x, y) in a.completions.iter().zip(&b.completions) {
            assert_eq!(x.completion, y.completion);
        }
    }

    #[test]
    fn explicit_arrivals_and_relative_goals() {
        let mut spec = minimal("apc");
        spec.jobs[0].arrivals = ArrivalSpec::At(vec![0.0, 5.0, 7.5]);
        spec.jobs[0].count = 3;
        spec.jobs[0].shape.goal = GoalSubmission::RelativeSecs(500.0);
        let metrics = spec.build().run();
        assert_eq!(metrics.completions.len(), 3);
        assert!(metrics.completions.iter().all(|c| c.met_deadline));
    }

    #[test]
    fn parallel_group_under_apc() {
        let mut spec = minimal("apc");
        spec.jobs[0].shape.tasks = 2;
        spec.jobs[0].count = 2;
        let metrics = spec.build().run();
        assert_eq!(metrics.completions.len(), 2);
    }

    #[test]
    fn out_of_range_node_failure_is_a_typed_error() {
        let mut spec = minimal("apc");
        spec.node_failures = vec![NodeFailureSpec {
            at_secs: 30.0,
            node: 7, // cluster has 2 nodes
            duration_secs: None,
        }];
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::NodeFailureOutOfRange {
                failure_index: 0,
                node: 7,
                nodes: 2,
            })
        );
        let err = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap_err();
        assert!(err.message.contains("node_failures[0]"), "{}", err.message);
    }

    #[test]
    fn failure_rate_of_one_is_rejected() {
        let mut spec = minimal("apc");
        spec.actuation.failure_rate = 1.0;
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::FailureRateOutOfRange { rate: 1.0 })
        );
    }

    #[test]
    fn parallel_jobs_under_baseline_rejected_at_load_time() {
        let mut spec = minimal("fcfs");
        spec.jobs[0].shape.tasks = 2;
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::ParallelJobsNeedApc {
                field: "jobs[0].tasks".to_string(),
            })
        );
    }

    #[test]
    fn sharding_block_round_trips_and_validates() {
        let mut spec = minimal("apc");
        spec.sharding = Some(ShardingSpec::new(1));
        let back = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back.sharding, spec.sharding);

        let json = r#"{
            "scheduler": "apc", "cycle_secs": 10.0,
            "nodes": [{ "count": 2, "cpu_mhz": 2000.0, "memory_mb": 4000.0 }],
            "jobs": [], "txns": [],
            "sharding": { "cell_size": 8 }
        }"#;
        let parsed = ScenarioSpec::from_json_str(json).unwrap();
        assert_eq!(parsed.sharding, Some(ShardingSpec::new(8)));

        // Degenerate blocks and baseline schedulers are load-time errors.
        spec.sharding = Some(ShardingSpec::new(0));
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::InvalidSharding { .. })
        ));
        let mut baseline = minimal("fcfs");
        baseline.sharding = Some(ShardingSpec::new(1));
        assert!(matches!(
            baseline.validate(),
            Err(ScenarioError::InvalidSharding { .. })
        ));
    }

    #[test]
    fn sharded_scenario_builds_and_completes_jobs() {
        let mut spec = minimal("apc");
        spec.sharding = Some(ShardingSpec::new(1));
        let metrics = spec.build().run();
        assert_eq!(metrics.completions.len(), 4);
    }

    #[test]
    fn node_failure_wire_formats_round_trip() {
        let permanent = NodeFailureSpec {
            at_secs: 30.0,
            node: 1,
            duration_secs: None,
        };
        let transient = NodeFailureSpec {
            at_secs: 30.0,
            node: 1,
            duration_secs: Some(600.0),
        };
        assert_eq!(permanent.to_json(), Json::parse("[30.0, 1]").unwrap());
        assert_eq!(
            transient.to_json(),
            Json::parse("[30.0, 1, 600.0]").unwrap()
        );
        for spec in [permanent, transient] {
            let back = NodeFailureSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back, spec);
        }
        // The historical 2-element tuples still parse.
        let legacy = Json::parse("[[45.5, 0]]").unwrap();
        let parsed = Vec::<NodeFailureSpec>::from_json(&legacy).unwrap();
        assert_eq!(parsed[0].at_secs, 45.5);
        assert_eq!(parsed[0].duration_secs, None);
    }

    #[test]
    fn actuation_block_defaults_to_exactly_off() {
        // A scenario without an actuation block gets the exactly-off
        // default, and the default round-trips unchanged.
        let spec = minimal("apc");
        let back = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back.actuation, ActuationSpec::default());
        assert_eq!(back.deadline_secs, None);
        // A partial block inherits every other default.
        let partial = Json::parse(r#"{ "failure_rate": 0.25 }"#).unwrap();
        let parsed = ActuationSpec::from_json(&partial).unwrap();
        assert_eq!(parsed.failure_rate, 0.25);
        assert_eq!(
            parsed.backoff_factor,
            ActuationSpec::default().backoff_factor
        );
    }

    #[test]
    fn trace_block_defaults_to_off_and_round_trips() {
        // No trace block: off, and the default round-trips unchanged.
        let spec = minimal("apc");
        let back = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back.trace, TraceSpec::default());
        assert_eq!(back.trace.path, None);
        // A partial block inherits the decisions default level.
        let partial = Json::parse(r#"{ "path": "out.jsonl" }"#).unwrap();
        let parsed = TraceSpec::from_json(&partial).unwrap();
        assert_eq!(parsed.path.as_deref(), Some("out.jsonl"));
        assert_eq!(parsed.level, "decisions");
    }

    #[test]
    fn unknown_trace_level_is_a_typed_error() {
        let mut spec = minimal("apc");
        spec.trace.level = "chatty".to_string();
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::UnknownTraceLevel {
                level: "chatty".to_string(),
            })
        );
        let err = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap_err();
        assert!(err.message.contains("trace.level"), "{}", err.message);
    }

    #[test]
    fn non_finite_times_are_rejected_at_load_time() {
        // A NaN explicit arrival used to reach the FCFS/EDF sort and
        // panic mid-run; now it is a typed load-time error.
        let mut spec = minimal("fcfs");
        spec.jobs[0].arrivals = ArrivalSpec::At(vec![0.0, f64::NAN]);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonFiniteNumber { ref field, value })
                if field == "jobs[0].arrivals.at[1]" && value.is_nan()
        ));

        let mut spec = minimal("edf");
        spec.jobs[0].shape.goal = GoalSubmission::RelativeSecs(f64::INFINITY);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonFiniteNumber { ref field, .. })
                if field == "jobs[0].goal.relative_secs"
        ));

        // A deadline at or before the arrival used to pass validation and
        // panic mid-run inside CompletionGoal::new; the CLI surfaces the
        // typed error and exits 1 instead.
        for secs in [0.0, -5.0] {
            let mut spec = minimal("apc");
            spec.jobs[0].shape.goal = GoalSubmission::RelativeSecs(secs);
            assert_eq!(
                spec.validate(),
                Err(ScenarioError::NonPositiveNumber {
                    field: "jobs[0].goal.relative_secs".to_string(),
                    value: secs,
                })
            );
            assert!(spec.build_checked().is_err());
            let err = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap_err();
            assert!(
                err.message
                    .contains("jobs[0].goal.relative_secs must be > 0"),
                "{}",
                err.message
            );
        }

        // A positive goal so small that `arrival + goal == arrival` in
        // f64 used to pass validation and panic mid-run inside
        // CompletionGoal::new; both goal kinds now fail at load time,
        // naming the field.
        for (goal, field) in [
            (
                GoalSubmission::RelativeSecs(1e-300),
                "jobs[0].goal.relative_secs",
            ),
            (GoalSubmission::Factor(1e-300), "jobs[0].goal.factor"),
        ] {
            let mut spec = minimal("apc");
            spec.jobs[0].shape.goal = goal;
            assert!(
                matches!(
                    spec.validate(),
                    Err(ScenarioError::GoalTooShort { field: ref f, value, .. })
                        if f == field && value == 1e-300
                ),
                "{:?}",
                spec.validate()
            );
            let err = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap_err();
            assert!(
                err.message
                    .contains(&format!("{field} = 1e-300 is too small")),
                "{}",
                err.message
            );
        }
        // Short but resolvable goals stay valid.
        let mut spec = minimal("apc");
        spec.jobs[0].shape.goal = GoalSubmission::RelativeSecs(1e-3);
        assert_eq!(spec.validate(), Ok(()));
        // The check reaches past 2^32 s when the horizon does.
        assert_eq!(goal_reach_secs(None), 4_294_967_296.0);
        assert_eq!(goal_reach_secs(Some(5e4)), 4_294_967_296.0);
        assert_eq!(goal_reach_secs(Some(1e10)), 17_179_869_184.0);

        // Stream shapes report through the same variants and full paths.
        let mut spec = minimal("apc");
        spec.workload = Some(WorkloadSpec {
            batch_streams: vec![BatchStreamSpec {
                name: None,
                process: ArrivalProcess::Poisson { rate_per_sec: 0.5 },
                count: Some(2),
                shape: JobShapeSpec {
                    goal: GoalSubmission::RelativeSecs(0.0),
                    ..spec.jobs[0].shape.clone()
                },
            }],
            txn_streams: vec![],
        });
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::NonPositiveNumber {
                field: "workload.batch_streams[0].goal.relative_secs".to_string(),
                value: 0.0,
            })
        );

        let mut spec = minimal("apc");
        spec.cycle_secs = f64::NAN;
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonFiniteNumber { ref field, .. }) if field == "cycle_secs"
        ));
    }

    #[test]
    fn transient_failure_recovers_and_jobs_complete() {
        let mut spec = minimal("apc");
        spec.free_vm_costs = false;
        spec.node_failures = vec![NodeFailureSpec {
            at_secs: 40.0,
            node: 0,
            duration_secs: Some(200.0),
        }];
        let metrics = spec.build().run();
        assert_eq!(metrics.completions.len(), 4);
    }

    #[test]
    fn txn_steps_pattern() {
        let mut spec = minimal("apc");
        spec.txns = vec![TxnSpec {
            rate: RateSpec::Steps(vec![(0.0, 10.0), (100.0, 50.0)]),
            ..web_txn(None)
        }];
        let metrics = spec.build().run();
        assert!(metrics.samples.iter().any(|s| s.txn_rp.is_some()));
    }

    #[test]
    fn duplicate_names_are_typed_errors() {
        // Node groups sharing a name.
        let mut spec = minimal("apc");
        spec.nodes[0].name = Some("rack".to_string());
        spec.nodes.push(spec.nodes[0].clone());
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::DuplicateName {
                kind: "nodes",
                name: "rack".to_string(),
            })
        );

        // A job and a txn collide in the shared application namespace.
        let mut spec = minimal("apc");
        spec.jobs[0].name = Some("web".to_string());
        spec.txns = vec![web_txn(Some("web"))];
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::DuplicateName {
                kind: "applications",
                name: "web".to_string(),
            })
        );

        // Distinct names (and the all-anonymous default) stay valid.
        spec.txns[0].name = Some("db".to_string());
        assert_eq!(spec.validate(), Ok(()));
        assert_eq!(minimal("apc").validate(), Ok(()));
    }

    #[test]
    fn undeclared_resource_is_a_typed_error() {
        let mut spec = minimal("apc");
        spec.jobs[0]
            .shape
            .resources
            .insert("disk_mb".to_string(), 100.0);
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::UnknownResource {
                field: "jobs[0].resources".to_string(),
                name: "disk_mb".to_string(),
            })
        );
        // Declaring the dimension fixes it; nodes default to zero
        // capacity for it, which is still structurally valid.
        spec.resources = vec!["disk_mb".to_string()];
        assert_eq!(spec.validate(), Ok(()));
        // Restating the implicit memory dimension is rejected.
        spec.resources = vec!["disk_mb".to_string(), "memory_mb".to_string()];
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::InvalidResources { .. })
        ));
    }

    #[test]
    fn multi_resource_scenario_builds_runs_and_round_trips() {
        let mut spec = minimal("apc");
        spec.resources = vec!["disk_mb".to_string(), "net_mbps".to_string()];
        spec.nodes[0].resources = BTreeMap::from([
            ("disk_mb".to_string(), 10_000.0),
            ("net_mbps".to_string(), 1_000.0),
        ]);
        spec.jobs[0]
            .shape
            .resources
            .insert("disk_mb".to_string(), 2_000.0);
        let mut frontend = web_txn(Some("frontend"));
        frontend.rate = RateSpec::Constant(20.0);
        frontend.shape.resources = BTreeMap::from([("net_mbps".to_string(), 200.0)]);
        spec.txns = vec![frontend];
        let metrics = spec.build().run();
        assert_eq!(metrics.completions.len(), 4);
        // Per-dimension utilization is sampled for the extra dimensions.
        assert!(metrics
            .samples
            .iter()
            .any(|s| s.rigid_utilization.iter().any(|r| r.dim == "disk_mb")));
        let back = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back.resources, spec.resources);
        assert_eq!(back.nodes[0].resources, spec.nodes[0].resources);
        assert_eq!(back.txns[0].shape, spec.txns[0].shape);
    }

    #[test]
    fn zero_node_fleet_is_rejected_like_an_empty_one() {
        // `nodes: [{count: 0, ...}]` parses fine but builds an empty
        // cluster; it must fail exactly like a missing nodes list.
        let mut spec = minimal("apc");
        spec.nodes[0].count = 0;
        assert_eq!(spec.validate(), Err(ScenarioError::NoNodes));
        spec.nodes.clear();
        assert_eq!(spec.validate(), Err(ScenarioError::NoNodes));
    }

    #[test]
    fn node_and_classic_job_totals_are_capped_at_the_build_budget() {
        // Totals sum across groups; the error names the crossing count.
        let mut spec = minimal("apc");
        spec.nodes.push(spec.nodes[0].clone());
        spec.nodes[0].count = MAX_NODES - 1;
        spec.nodes[1].count = 1;
        assert_eq!(spec.validate(), Ok(()));
        spec.nodes[1].count = usize::MAX;
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::TooMany {
                field: "nodes[1].count".to_string(),
                total: usize::MAX,
                limit: MAX_NODES,
            })
        );

        let mut spec = minimal("apc");
        spec.jobs[0].count = MAX_CLASSIC_JOBS;
        assert_eq!(spec.validate(), Ok(()));
        spec.jobs[0].count = 2_000_000_000;
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().starts_with("jobs[0].count "), "{err}");
        // Explicit arrival lists count their instants, not `count`.
        spec.jobs[0].arrivals = ArrivalSpec::At(vec![0.0; 3]);
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn zero_cycle_secs_is_rejected() {
        // A zero control cycle would re-arm forever without advancing
        // simulated time.
        let mut spec = minimal("apc");
        spec.cycle_secs = 0.0;
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonPositiveNumber { ref field, .. }) if field == "cycle_secs"
        ));
    }

    #[test]
    fn negative_node_capacity_is_a_typed_error_not_a_build_panic() {
        // Negative capacities used to reach NodeSpec::try_with_resources
        // and panic via its expect() inside build().
        let mut spec = minimal("apc");
        spec.nodes[0].memory_mb = -1.0;
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NegativeNumber { ref field, value })
                if field == "nodes[0].memory_mb" && value == -1.0
        ));
        assert!(spec.build_checked().is_err());
    }

    #[test]
    fn empty_registry_with_resource_blocks_is_rejected() {
        // With no top-level `resources` list, any per-group block is
        // necessarily undeclared: the demand would silently bind to
        // nothing.
        let mut spec = minimal("apc");
        assert!(spec.resources.is_empty());
        spec.nodes[0]
            .resources
            .insert("gpu_ram_mb".to_string(), 8_000.0);
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::UnknownResource {
                field: "nodes[0].resources".to_string(),
                name: "gpu_ram_mb".to_string(),
            })
        );
    }

    #[test]
    fn zero_tasks_and_zero_max_instances_are_rejected() {
        // `tasks: 0` used to silently degrade to an ordinary job.
        let mut spec = minimal("apc");
        spec.jobs[0].shape.tasks = 0;
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonPositiveNumber { ref field, .. }) if field == "jobs[0].tasks"
        ));

        // A txn capped at zero instances can never be placed at all.
        let mut spec = minimal("apc");
        spec.txns = vec![web_txn(None)];
        spec.txns[0].shape.max_instances = 0;
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonPositiveNumber { ref field, .. })
                if field == "txns[0].max_instances"
        ));
    }

    #[test]
    fn degenerate_arrival_processes_are_rejected() {
        // A non-positive exponential mean draws negative inter-arrival
        // gaps: simulated time would run backwards.
        let mut spec = minimal("apc");
        spec.jobs[0].arrivals = ArrivalSpec::Exponential { mean_secs: 0.0 };
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonPositiveNumber { ref field, .. })
                if field == "jobs[0].arrivals.exponential.mean_secs"
        ));
        spec.jobs[0].arrivals = ArrivalSpec::At(vec![10.0, -5.0]);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NegativeNumber { ref field, .. })
                if field == "jobs[0].arrivals.at[1]"
        ));
        // An all-at-once burst (zero periodic spacing) stays legal.
        spec.jobs[0].arrivals = ArrivalSpec::Periodic { every_secs: 0.0 };
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn degenerate_optimizer_deadline_is_rejected() {
        // Duration::from_secs_f64 panics on negatives and NaN; both now
        // fail at load time instead.
        let mut spec = minimal("apc");
        spec.deadline_secs = Some(-0.5);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonPositiveNumber { ref field, .. }) if field == "deadline_secs"
        ));
        spec.deadline_secs = Some(f64::NAN);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonFiniteNumber { ref field, .. }) if field == "deadline_secs"
        ));
    }

    #[test]
    fn degenerate_actuation_timings_are_rejected() {
        let mut spec = minimal("apc");
        spec.actuation.base_backoff_secs = -1.0;
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NegativeNumber { ref field, .. })
                if field == "actuation.base_backoff_secs"
        ));
        let mut spec = minimal("apc");
        spec.actuation.timeout_secs = Some(0.0);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonPositiveNumber { ref field, .. })
                if field == "actuation.timeout_secs"
        ));
        let mut spec = minimal("apc");
        spec.actuation.quarantine_secs = f64::INFINITY;
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonFiniteNumber { ref field, .. })
                if field == "actuation.quarantine_secs"
        ));
    }

    #[test]
    fn partial_observation_block_fills_defaults_and_activates() {
        let json = r#"{
            "scheduler": "apc", "cycle_secs": 10.0, "horizon_secs": 500.0,
            "nodes": [{ "count": 2, "cpu_mhz": 2000.0, "memory_mb": 4000.0 }],
            "jobs": [], "txns": [],
            "observation": { "heartbeat_loss": 0.2, "seed": 9 }
        }"#;
        let spec = ScenarioSpec::from_json_str(json).unwrap();
        let o = spec.observation.as_ref().unwrap();
        assert_eq!(o.heartbeat_loss, 0.2);
        assert_eq!(o.seed, 9);
        // Unstated knobs take the exactly-off defaults.
        assert_eq!(o.suspect_after, ObservationConfig::default().suspect_after);
        assert_eq!(o.dead_after, ObservationConfig::default().dead_after);
        assert_eq!(o.ewma_alpha, 1.0);
        assert_eq!(o.degraded_mode, "hold");
        assert!(o.to_config().is_active());
        // No block at all renders without the key, keeping legacy
        // scenario files byte-stable, and builds an inactive config.
        let legacy = minimal("apc");
        assert!(!legacy.to_json_string().contains("observation"));
        assert!(!ObservationConfig::default().is_active());
    }

    #[test]
    fn observation_round_trips_through_json() {
        let mut spec = minimal("apc");
        spec.observation = Some(ObservationSpec {
            heartbeat_loss: 0.3,
            max_staleness_cycles: 2,
            noise: 0.1,
            loss_until_secs: Some(400.0),
            seed: 11,
            suspect_after: 2,
            dead_after: 5,
            reinstate_after: 3,
            ewma_alpha: 0.5,
            headroom: 0.1,
            staleness_budget_cycles: 1,
            degraded_mode: "fill_only".to_string(),
        });
        let text = spec.to_json_string();
        let back = ScenarioSpec::from_json_str(&text).unwrap();
        assert_eq!(back.observation, spec.observation);
    }

    #[test]
    fn degenerate_observation_blocks_are_rejected() {
        type Mutation = fn(&mut ObservationSpec);
        let cases: &[(&str, Mutation)] = &[
            ("heartbeat_loss", |o| o.heartbeat_loss = 1.0),
            ("heartbeat_loss", |o| o.heartbeat_loss = -0.1),
            ("noise", |o| o.noise = 1.5),
            ("noise", |o| o.noise = f64::NAN),
            ("ewma_alpha", |o| o.ewma_alpha = 0.0),
            ("ewma_alpha", |o| o.ewma_alpha = 1.5),
            ("headroom", |o| o.headroom = -0.5),
            ("suspect_after", |o| o.suspect_after = 0),
            ("dead_after", |o| o.dead_after = 2),
            ("reinstate_after", |o| o.reinstate_after = 0),
            ("loss_until_secs", |o| o.loss_until_secs = Some(-1.0)),
            ("degraded_mode", |o| o.degraded_mode = "panic".to_string()),
        ];
        for (what, mutate) in cases {
            let mut spec = minimal("apc");
            let mut o = ObservationSpec::default();
            mutate(&mut o);
            spec.observation = Some(o);
            assert!(
                matches!(
                    spec.validate(),
                    Err(ScenarioError::InvalidObservation { .. })
                ),
                "{what} should be rejected"
            );
        }
        // And the layer is APC-only, like sharding.
        let mut spec = minimal("fcfs");
        spec.observation = Some(ObservationSpec::default());
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::InvalidObservation { ref message })
                if message.contains("apc")
        ));
    }

    #[test]
    fn legacy_scalars_canonicalize_out_of_the_resources_block() {
        // cpu_mhz / memory_mb may live inside the resources block; they
        // hoist to the dedicated fields and leave only true extras.
        let json = r#"{
            "scheduler": "apc", "cycle_secs": 10.0, "horizon_secs": 500.0,
            "resources": ["disk_mb"],
            "nodes": [{ "count": 2,
                        "resources": { "cpu_mhz": 2000.0, "memory_mb": 4000.0,
                                       "disk_mb": 8000.0 } }],
            "jobs": [], "txns": []
        }"#;
        let spec = ScenarioSpec::from_json_str(json).unwrap();
        assert_eq!(spec.nodes[0].cpu_mhz, 2_000.0);
        assert_eq!(spec.nodes[0].memory_mb, 4_000.0);
        assert_eq!(
            spec.nodes[0].resources,
            BTreeMap::from([("disk_mb".to_string(), 8_000.0)])
        );
        // Both stream lists accept the same spelling, and parse to the
        // spec the top-level spelling gives.
        let streams = |batch_memory: &str, txn_memory: &str| {
            let json = format!(
                r#"{{
                "scheduler": "apc", "cycle_secs": 10.0, "horizon_secs": 500.0,
                "resources": ["disk_mb"],
                "nodes": [{{ "count": 2, "cpu_mhz": 2000.0, "memory_mb": 4000.0 }}],
                "jobs": [], "txns": [],
                "workload": {{
                    "batch_streams": [{{
                        "process": {{ "poisson": {{ "rate_per_sec": 0.1 }} }}, "count": 3,
                        "work_mcycles": 2000.0, "max_speed_mhz": 500.0,
                        "goal": {{ "factor": 3.0 }}, {batch_memory}
                    }}],
                    "txn_streams": [{{
                        "curve": {{ "constant": {{ "rate_per_sec": 5.0 }} }},
                        "demand_mcycles": 10.0, "floor_secs": 0.005, "goal_secs": 0.05,
                        "max_instances": 2, {txn_memory}
                    }}]
                }}
            }}"#
            );
            ScenarioSpec::from_json_str(&json).unwrap()
        };
        let nested = streams(
            r#""resources": { "memory_mb": 256.0, "disk_mb": 10.0 }"#,
            r#""resources": { "memory_mb": 512.0 }"#,
        );
        let flat = streams(
            r#""memory_mb": 256.0, "resources": { "disk_mb": 10.0 }"#,
            r#""memory_mb": 512.0"#,
        );
        let (a, b) = (nested.workload.as_ref(), flat.workload.as_ref());
        assert_eq!(a.unwrap().batch_streams[0].shape.memory_mb, 256.0);
        assert_eq!(
            a.unwrap().batch_streams[0].shape,
            b.unwrap().batch_streams[0].shape
        );
        assert_eq!(a.unwrap().txn_streams[0].shape.memory_mb, 512.0);
        assert_eq!(
            a.unwrap().txn_streams[0].shape,
            b.unwrap().txn_streams[0].shape
        );
        assert_eq!(nested.to_json_string(), flat.to_json_string());

        // Memory-only scenarios render without any resources fields, so
        // checked-in legacy files and goldens stay byte-stable.
        let legacy = minimal("apc");
        let text = legacy.to_json_string();
        assert!(!text.contains("resources"), "{text}");
    }
}
