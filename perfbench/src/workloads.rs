//! Seeded generators for the benchmark's scenario-JSON workloads.
//!
//! Each generator writes the scenario text itself, drawing from a small
//! self-contained RNG, so a seed fixes the input bytes independently of
//! the program under test: the program only ever sees the generated
//! JSON. No workload sets `deadline_secs` — a wall-clock budget would
//! make the simulated results depend on the speed of the host.
//!
//! The benchmark gates on simulated statistics (deadlines met, placement
//! changes) across runs with different seeds, so the generators draw
//! job mixes in exact proportions and arrival instants jittered within
//! evenly spaced slots: each seed gives different inputs of the same
//! shape, and the statistics move little from seed to seed.

use std::fmt::Write;

use dynaplace_sim::scenario::{
    experiment_three_txn, EXPERIMENT_TWO_FACTORS, EXPERIMENT_TWO_SHAPES,
};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's setting: Experiment Two's job mix plus Experiment
    /// Three's transactional app on the 25-node Experiment One cluster.
    PaperMix,
    /// 256 nodes in four 64-node cells: lax jobs on the batch nodes,
    /// urgent jobs that preempt them, diurnal web load, telemetry faults
    /// and node outages.
    Fleet,
    /// A day on two nodes in streaming mode: a recorded per-job trace
    /// merged with a 100,000-job generative firehose.
    DayStream,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [Workload::PaperMix, Workload::Fleet, Workload::DayStream];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper-mix",
            Workload::Fleet => "fleet",
            Workload::DayStream => "day-stream",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs through the streaming control plane
    /// with aggregate metrics retention (instead of a lock-step build).
    pub fn streaming(self) -> bool {
        self == Workload::DayStream
    }

    /// The scenario JSON text for `seed`.
    pub fn scenario_json(self, seed: u64) -> String {
        match self {
            Workload::PaperMix => paper_mix(seed),
            Workload::Fleet => fleet(seed),
            Workload::DayStream => day_stream(seed),
        }
    }
}

/// SplitMix64: tiny, fast, and fixed forever, so a seed names the same
/// input bytes whatever happens to the program's own RNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seed for the scenario's own RNGs, small enough that a JSON
    /// number carries it exactly.
    fn seed(&mut self) -> u64 {
        self.next_u64() >> 12
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// `count` instants spread over `[0, span)`, one uniformly placed
    /// in each of `count` equal slots.
    fn jittered(&mut self, count: usize, span: f64) -> Vec<f64> {
        let slot = span / count as f64;
        (0..count)
            .map(|k| (k as f64 + self.unit()) * slot)
            .collect()
    }

    /// Index drawn with the given weights.
    fn pick(&mut self, weights: &[f64]) -> usize {
        let mut x = self.unit() * weights.iter().sum::<f64>();
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

/// Experiment One's node: four 3.9 GHz cores and 16 GB.
const PAPER_NODE_MHZ: f64 = 4.0 * 3_900.0;
const PAPER_NODE_MB: f64 = 16_384.0;
/// Experiment Two's per-job memory: three jobs fit a node.
const PAPER_JOB_MB: f64 = 4_320.0;

const PAPER_MIX_JOBS: usize = 800;
const GOLDEN_RATIO_CONJUGATE: f64 = 0.618_033_988_749_894_9;
/// Twice the tightest inter-arrival time of the paper's Experiment Two
/// sweep: still memory-bound (about 82 jobs wanted at once against 75
/// slots), while the queue stays short enough to drain.
const PAPER_MIX_INTER_ARRIVAL_SECS: f64 = 100.0;

fn paper_mix(seed: u64) -> String {
    let mut rng = Rng::new(seed, 1);
    let factors = EXPERIMENT_TWO_FACTORS.len();
    // Job kinds spread evenly through the arrivals: job `i` takes the
    // (shape, goal factor) pair whose slice of the cumulative mix holds
    // the `i`-th point of a golden-ratio sequence from a seeded start.
    let start = rng.unit();
    let mut mix = Vec::new();
    for (s, shape) in EXPERIMENT_TWO_SHAPES.iter().enumerate() {
        for (f, &(_, p)) in EXPERIMENT_TWO_FACTORS.iter().enumerate() {
            mix.push((s * factors + f, shape.probability * p));
        }
    }
    let kinds: Vec<usize> = (0..PAPER_MIX_JOBS)
        .map(|i| {
            let mut u = (start + i as f64 * GOLDEN_RATIO_CONJUGATE).fract();
            for &(kind, share) in &mix {
                if u < share {
                    return kind;
                }
                u -= share;
            }
            mix[mix.len() - 1].0
        })
        .collect();
    let span = kinds.len() as f64 * PAPER_MIX_INTER_ARRIVAL_SECS;
    let arrivals = rng.jittered(kinds.len(), span);
    // One job group per pair, listing its members' arrival instants.
    let mut groups = vec![Vec::new(); EXPERIMENT_TWO_SHAPES.len() * factors];
    for (kind, at) in kinds.into_iter().zip(arrivals) {
        groups[kind].push(at);
    }
    let mut jobs = Vec::new();
    for (index, arrivals) in groups.iter().enumerate() {
        if arrivals.is_empty() {
            continue;
        }
        let shape = EXPERIMENT_TWO_SHAPES[index / factors];
        let factor = EXPERIMENT_TWO_FACTORS[index % factors].0;
        jobs.push(format!(
            r#"    {{ "count": {}, "name": "exp2-shape{}-goal{}", "work_mcycles": {}, "max_speed_mhz": {}, "memory_mb": {}, "goal": {{ "factor": {} }}, "arrivals": {{ "at": [{}] }} }}"#,
            arrivals.len(),
            index / factors,
            index % factors,
            shape.min_exec_secs * shape.max_speed_mhz,
            shape.max_speed_mhz,
            PAPER_JOB_MB,
            factor,
            join(arrivals),
        ));
    }
    let (rate, demand, floor, goal) = experiment_three_txn();
    let spec_seed = rng.seed();
    format!(
        r#"{{
  "seed": {spec_seed},
  "scheduler": "apc",
  "cycle_secs": 600.0,
  "nodes": [{{ "count": 25, "cpu_mhz": {PAPER_NODE_MHZ}, "memory_mb": {PAPER_NODE_MB} }}],
  "jobs": [
{}
  ],
  "txns": [
    {{ "name": "exp3-web", "rate": {rate}, "demand_mcycles": {demand}, "floor_secs": {}, "goal_secs": {}, "memory_mb": 1024.0, "max_instances": 25 }}
  ]
}}
"#,
        jobs.join(",\n"),
        floor.as_secs(),
        goal.goal().as_secs(),
    )
}

const FLEET_NODES: u32 = 256;
const FLEET_CELL: u32 = 64;
const FLEET_CYCLE_SECS: f64 = 600.0;
const FLEET_CYCLES: f64 = 120.0;
/// A job leaves room for web instances beside it on its node.
const FLEET_JOB_MB: f64 = 12_000.0;
const FLEET_JOB_SPEED_MHZ: f64 = 3_900.0;
/// Each 64-node cell has this many batch nodes, the only ones with the
/// `gpu` every job needs; the rest serve the web tiers.
const FLEET_BATCH_PER_CELL: u32 = 16;
/// Long lax jobs submitted in the first cycle hold every batch node for
/// the whole run.
const FLEET_LAX_JOBS: usize = (FLEET_NODES / FLEET_CELL * FLEET_BATCH_PER_CELL) as usize;
const FLEET_LAX_SECS: f64 = 200_000.0;
/// Urgent jobs arrive through the run; each can only start by
/// suspending a lax job, which resumes once it is done.
const FLEET_URGENT_JOBS: usize = 150;
const FLEET_WEB_MB: f64 = 1_024.0;
/// Two web peaks within the run.
const FLEET_WEB_PERIOD_SECS: f64 = 36_000.0;

fn fleet(seed: u64) -> String {
    let mut rng = Rng::new(seed, 2);
    let horizon = FLEET_CYCLE_SECS * FLEET_CYCLES;
    let lax = rng.jittered(FLEET_LAX_JOBS, FLEET_CYCLE_SECS);
    let urgent = rng.jittered(FLEET_URGENT_JOBS, horizon - 12.0 * FLEET_CYCLE_SECS);
    let urgent_secs: Vec<f64> = urgent.iter().map(|_| rng.range(3_000.0, 6_000.0)).collect();
    let group = |name: &str, secs: f64, factor: f64, at: &[f64]| {
        format!(
            r#"    {{ "count": {}, "name": "{name}", "work_mcycles": {}, "max_speed_mhz": {FLEET_JOB_SPEED_MHZ}, "memory_mb": {FLEET_JOB_MB}, "resources": {{ "gpu": 1 }}, "goal": {{ "factor": {factor} }}, "arrivals": {{ "at": [{}] }} }}"#,
            at.len(),
            secs * FLEET_JOB_SPEED_MHZ,
            join(at),
        )
    };
    let mut jobs = vec![group("batch-lax", FLEET_LAX_SECS, 4.0, &lax)];
    jobs.extend(
        urgent
            .iter()
            .zip(&urgent_secs)
            .enumerate()
            .map(|(i, (&at, &secs))| group(&format!("batch-urgent-{i}"), secs, 1.3, &[at])),
    );
    let jobs = jobs.join(",\n");
    let nodes: Vec<String> = (0..FLEET_NODES / FLEET_CELL)
        .map(|cell| {
            format!(
                r#"    {{ "count": {FLEET_BATCH_PER_CELL}, "name": "batch-{cell}", "cpu_mhz": {PAPER_NODE_MHZ}, "memory_mb": {PAPER_NODE_MB}, "resources": {{ "gpu": 1 }} }},
    {{ "count": {}, "name": "web-{cell}", "cpu_mhz": {PAPER_NODE_MHZ}, "memory_mb": {PAPER_NODE_MB} }}"#,
                FLEET_CELL - FLEET_BATCH_PER_CELL
            )
        })
        .collect();
    let nodes = nodes.join(",\n");
    // Four web tiers whose peaks together want about seventy nodes.
    let txns: Vec<String> = (0..4)
        .map(|i| {
            let peak = rng.range(1_400.0, 1_700.0);
            let demand = 173.5;
            let floor = demand / 95_300.0;
            format!(
                r#"      {{ "name": "web-{i}", "curve": {{ "diurnal": {{ "base_rate_per_sec": {}, "amplitude_per_sec": {}, "period_secs": {FLEET_WEB_PERIOD_SECS} }} }}, "demand_mcycles": {demand}, "floor_secs": {floor}, "goal_secs": {}, "memory_mb": {FLEET_WEB_MB}, "max_instances": 64 }}"#,
                0.6 * peak,
                0.4 * peak,
                floor / 0.34,
            )
        })
        .collect();
    // Three transient outages in different quarters of the fleet, spread
    // over the middle of the run.
    let outages: Vec<String> = rng
        .jittered(3, 0.5 * horizon)
        .into_iter()
        .enumerate()
        .map(|(i, at)| {
            let quarter = u64::from(FLEET_NODES) / 4;
            let node = i as u64 * quarter + rng.next_u64() % quarter;
            let secs = rng.range(1_800.0, 5_400.0);
            format!("[{}, {node}, {secs}]", 0.25 * horizon + at)
        })
        .collect();
    let (spec_seed, actuation_seed, observation_seed) = (rng.seed(), rng.seed(), rng.seed());
    // Operations take jittered time but do not fail, and VM operations
    // are free: failing operations, with either the telemetry faults or
    // the paper's suspend and resume latencies, can stretch a run of this
    // fleet from seconds to minutes (generator seed 435 with a 5% failure
    // rate: over a minute instead of 7 s).
    format!(
        r#"{{
  "seed": {spec_seed},
  "scheduler": "apc",
  "cycle_secs": {FLEET_CYCLE_SECS},
  "horizon_secs": {horizon},
  "free_vm_costs": true,
  "resources": ["gpu"],
  "nodes": [
{nodes}
  ],
  "jobs": [
{jobs}
  ],
  "txns": [],
  "workload": {{
    "txn_streams": [
{}
    ]
  }},
  "node_failures": [{}],
  "actuation": {{ "latency_jitter": 0.2, "seed": {actuation_seed} }},
  "observation": {{ "heartbeat_loss": 0.05, "max_staleness_cycles": 1, "noise": 0.05, "seed": {observation_seed}, "ewma_alpha": 0.5, "headroom": 0.05, "staleness_budget_cycles": 2, "degraded_mode": "fill_only" }},
  "sharding": {{ "cell_size": {FLEET_CELL} }}
}}
"#,
        txns.join(",\n"),
        outages.join(", "),
    )
}

const DAY_SECS: f64 = 86_400.0;
const DAY_RECORDS: usize = 2_000;
const DAY_FIREHOSE_JOBS: u64 = 100_000;
/// Urgent memory-heavy records. Each node holds one heavy job beside
/// its web instance, and two day-long background jobs hold both of those
/// places, so every urgent record preempts one: the controller suspends
/// a background job and resumes it once the urgent job is done.
const DAY_URGENT_RECORDS: usize = 200;
const DAY_BACKGROUND_RECORDS: usize = 2;
const DAY_HEAVY_MB: f64 = 6_144.0;

#[derive(Clone, Copy)]
enum Record {
    Light,
    Urgent,
    Background,
}

fn day_stream(seed: u64) -> String {
    let mut rng = Rng::new(seed, 3);
    let light = DAY_RECORDS - DAY_URGENT_RECORDS - DAY_BACKGROUND_RECORDS;
    let mut arrivals: Vec<(f64, Record)> = Vec::with_capacity(DAY_RECORDS);
    arrivals
        .extend((0..DAY_BACKGROUND_RECORDS).map(|_| (rng.range(0.0, 60.0), Record::Background)));
    // Urgent records stop well before the background jobs can finish.
    arrivals.extend(
        rng.jittered(DAY_URGENT_RECORDS, 0.8 * DAY_SECS)
            .into_iter()
            .map(|at| (at, Record::Urgent)),
    );
    arrivals.extend(
        rng.jittered(light, DAY_SECS)
            .into_iter()
            .map(|at| (at, Record::Light)),
    );
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
    // The recorded trace: one keyed record per job in arrival order, as
    // an export from a job history would write it.
    let mut records = String::new();
    for (i, (at, record)) in arrivals.into_iter().enumerate() {
        let (speed, secs, memory, factor, class) = match record {
            Record::Light => (
                [600.0, 1_200.0, 1_500.0][rng.pick(&[0.5, 0.3, 0.2])],
                rng.range(5.0, 60.0),
                [256.0, 512.0][rng.pick(&[0.7, 0.3])],
                [1.5, 3.0, 6.0][rng.pick(&[0.2, 0.4, 0.4])],
                "report-render",
            ),
            Record::Urgent => (
                1_500.0,
                rng.range(60.0, 200.0),
                DAY_HEAVY_MB,
                rng.range(1.5, 3.0),
                "model-refresh",
            ),
            Record::Background => (1_500.0, DAY_SECS, DAY_HEAVY_MB, 1.5, "reindex"),
        };
        let _ = write!(
            records,
            r#"{}    {{
      "name": "trace-{i:07}",
      "class": "{class}",
      "count": 1,
      "work_mcycles": {},
      "max_speed_mhz": {speed},
      "memory_mb": {memory},
      "goal": {{ "factor": {factor} }},
      "arrivals": {{ "at": [{at}] }}
    }}"#,
            if i == 0 { "" } else { ",\n" },
            speed * secs,
        );
    }
    let spec_seed = rng.seed();
    format!(
        r#"{{
  "seed": {spec_seed},
  "scheduler": "apc",
  "cycle_secs": 120.0,
  "free_vm_costs": true,
  "nodes": [{{ "count": 2, "cpu_mhz": 6000.0, "memory_mb": 8192.0 }}],
  "jobs": [
{records}
  ],
  "txns": [],
  "workload": {{
    "batch_streams": [
      {{ "name": "firehose", "process": {{ "diurnal": {{ "base_rate_per_sec": 1.3, "amplitude": 1.0, "period_secs": {DAY_SECS} }} }}, "count": {DAY_FIREHOSE_JOBS}, "work_mcycles": 600.0, "max_speed_mhz": 600.0, "memory_mb": 256.0, "goal": {{ "factor": 20.0 }} }}
    ],
    "txn_streams": [
      {{ "name": "storefront", "curve": {{ "diurnal": {{ "base_rate_per_sec": 30.0, "amplitude_per_sec": 20.0, "period_secs": {DAY_SECS} }} }}, "demand_mcycles": 12.0, "floor_secs": 0.01, "goal_secs": 0.1, "memory_mb": 1024.0, "max_instances": 2 }}
    ]
  }}
}}
"#
    )
}

fn join(values: &[f64]) -> String {
    values
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}
