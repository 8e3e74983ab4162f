//! Generative scenario fuzzing: a compositional generator of random
//! **valid** [`ScenarioSpec`]s, a structured shrinker, and failing-spec
//! persistence.
//!
//! Every spec this module produces passes [`ScenarioSpec::validate`]
//! *by construction* — the generator never emits a value a later check
//! would reject — and satisfies three stronger guarantees the whole-run
//! oracles lean on:
//!
//! - **Placeability.** Every job task and txn instance fits on *every*
//!   node: memory and extra-rigid demands are drawn below the fleet-wide
//!   minimum capacity of each dimension. A generated workload can never
//!   be structurally impossible to run.
//! - **Survivability.** Permanent node failures hit distinct nodes and
//!   always leave at least one node alive, so no job is stranded.
//! - **Termination.** Horizon-free specs end when the last job
//!   completes; specs with a horizon are explicitly bounded. Actuation
//!   faults always carry a `fail_until` instant, after which the
//!   reconciliation loop provably converges.
//!
//! The shrinker is structural (the vendored proptest stub does not
//! shrink): it deletes txns, job groups, node groups, failures,
//! generative workload streams, and config blocks, then reduces counts
//! and simplifies fields, keeping
//! only mutations that still fail the caller's oracle. Minimized specs
//! are persisted as ready-to-bless JSON so every fuzz find can become a
//! permanent regression scenario under `tests/repro/`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use dynaplace_sim::spec::{
    ActuationSpec, ArrivalSpec, BatchStreamSpec, JobGroupSpec, JobShapeSpec, NodeFailureSpec,
    NodeGroupSpec, ObservationSpec, RateSpec, ScenarioSpec, ShardingSpec, TraceSpec, TxnCurveSpec,
    TxnShapeSpec, TxnSpec, TxnStreamSpec, WorkloadSpec,
};
use dynaplace_sim::{ArrivalProcess, GoalSubmission};
use proptest::{Strategy, TestCaseError, TestCaseResult, TestRng};

/// Tuning knobs for [`gen_scenario`]. Presets cover the common fuzzing
/// regimes; tests that need something else can build their own.
#[derive(Debug, Clone)]
pub struct GenProfile {
    /// Registry policy names to draw from (repeats weight the draw).
    pub schedulers: Vec<String>,
    /// Maximum heterogeneous node groups (at least one is generated).
    pub max_node_groups: usize,
    /// Maximum nodes per group (at least one).
    pub max_nodes_per_group: usize,
    /// Maximum job groups (at least one is generated, so every run has
    /// work to finish).
    pub max_job_groups: usize,
    /// Maximum jobs per group (at least one).
    pub max_jobs_per_group: usize,
    /// Maximum transactional applications (zero is allowed).
    pub max_txns: usize,
    /// Maximum extra rigid resource dimensions (zero = memory-only).
    pub max_extra_dims: usize,
    /// Script node outages (always survivable; see module docs).
    pub failures: bool,
    /// Draw fallible-actuation configs (always with a `fail_until`).
    pub chaos: bool,
    /// Draw imperfect-telemetry observation configs (APC only, always
    /// with a `loss_until` so telemetry provably recovers).
    pub observation: bool,
    /// Draw cell-sharded placement configs (APC only).
    pub sharding: bool,
    /// Draw multi-task parallel jobs (APC only).
    pub parallel_jobs: bool,
    /// Allow exponential (RNG-consuming) arrival processes. Disable for
    /// metamorphic relations that permute declaration order: the seed
    /// stream is consumed in declaration order.
    pub stochastic_arrivals: bool,
    /// Sometimes bound the run with an explicit horizon (only ever done
    /// when txns are present; horizon-free runs end at the last job
    /// completion, which the no-starvation oracle keys on).
    pub horizons: bool,
    /// Salt names with non-ASCII (including astral-plane) characters so
    /// JSON round-trips chew on the hard cases.
    pub unicode_names: bool,
    /// Rescale rigid demands so every app fits simultaneously on the
    /// smallest node. Under contention the greedy optimizer must choose
    /// which apps coexist, and that packing choice legitimately depends
    /// on iteration (declaration) order — so order-permutation
    /// metamorphic relations only hold on uncontended specs, where the
    /// optimum is unique.
    pub uncontended: bool,
    /// Draw generative `"workload"` blocks: streamed batch sources
    /// (Poisson/MMPP/diurnal/flash-crowd) and open-loop txn curves.
    /// Streams always carry a bounded `count` and placeable demands, so
    /// horizon-free runs still terminate at the last completion and the
    /// no-starvation oracle stays applicable. Never drawn on
    /// `uncontended` profiles (the uncontended rescale covers only the
    /// classic app lists).
    pub workloads: bool,
}

impl GenProfile {
    /// Everything on: the widest scenario space the oracles accept.
    pub fn full() -> Self {
        GenProfile {
            // APC triple-weighted (it is the system under test), then
            // every baseline in the registry so the whole-run oracles
            // sweep the full policy zoo.
            schedulers: [
                "apc",
                "apc",
                "apc",
                "fcfs",
                "edf",
                "static-partition",
                "vector-bin-packing",
                "yield-max",
                "dfrs",
            ]
            .map(str::to_string)
            .to_vec(),
            max_node_groups: 2,
            max_nodes_per_group: 3,
            max_job_groups: 3,
            max_jobs_per_group: 4,
            max_txns: 2,
            max_extra_dims: 2,
            failures: true,
            chaos: true,
            observation: true,
            sharding: true,
            parallel_jobs: true,
            stochastic_arrivals: true,
            horizons: true,
            unicode_names: true,
            uncontended: false,
            workloads: true,
        }
    }

    /// Small APC-only scenarios for the differential suites, which run
    /// each spec several times over.
    pub fn quick() -> Self {
        GenProfile {
            schedulers: vec!["apc".to_string()],
            max_node_groups: 2,
            max_nodes_per_group: 2,
            max_job_groups: 2,
            max_jobs_per_group: 3,
            max_txns: 1,
            max_extra_dims: 1,
            failures: true,
            chaos: false,
            observation: false,
            sharding: false,
            parallel_jobs: true,
            stochastic_arrivals: true,
            horizons: false,
            unicode_names: true,
            uncontended: false,
            workloads: true,
        }
    }

    /// Fully deterministic builds (no RNG-consuming arrivals, no chaos,
    /// no sharding) for metamorphic relations that permute declaration
    /// order. Single-node on purpose: with two or more nodes, *which*
    /// txn shares a node with a batch job is an objective tie between
    /// symmetric assignments, greedy placement breaks ties by iteration
    /// order, and the utility optimizer then legitimately allocates the
    /// job different CPU depending on its node-mates — so exact
    /// outcome invariance under reordering only holds when placement is
    /// forced.
    pub fn deterministic() -> Self {
        GenProfile {
            schedulers: vec!["apc".to_string()],
            max_node_groups: 1,
            max_nodes_per_group: 1,
            max_job_groups: 3,
            max_jobs_per_group: 3,
            max_txns: 2,
            max_extra_dims: 1,
            failures: false,
            chaos: false,
            observation: false,
            sharding: false,
            parallel_jobs: false,
            stochastic_arrivals: false,
            horizons: false,
            unicode_names: false,
            uncontended: true,
            workloads: false,
        }
    }
}

/// A [`Strategy`] over whole scenarios, so `proptest!` bodies can take
/// `spec in gen::scenarios(profile)` like any other input.
pub struct ScenarioStrategy {
    profile: GenProfile,
}

/// Strategy constructor: random valid scenarios under `profile`.
pub fn scenarios(profile: GenProfile) -> ScenarioStrategy {
    ScenarioStrategy { profile }
}

impl Strategy for ScenarioStrategy {
    type Value = ScenarioSpec;
    fn generate(&self, rng: &mut TestRng) -> ScenarioSpec {
        gen_scenario(rng, &self.profile)
    }
}

/// Uniform draw in `[lo, hi]`, rounded to an exact binary eighth so any
/// JSON printer round-trips the value bit-for-bit and shrunken specs
/// stay readable.
fn f8(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    let raw = lo + rng.unit_f64() * (hi - lo);
    ((raw * 8.0).round() / 8.0).clamp(lo, hi)
}

/// Uniform integer in `[lo, hi]`.
fn int(rng: &mut TestRng, lo: usize, hi: usize) -> usize {
    debug_assert!(lo <= hi);
    lo + rng.below((hi - lo + 1) as u64) as usize
}

/// One-in-`n` coin.
fn chance(rng: &mut TestRng, n: u64) -> bool {
    rng.below(n) == 0
}

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

/// Name bases; the astral-plane entries exist to stress the JSON
/// surrogate-pair path that PR 5's round-trip proptest caught a real
/// bug in.
const ASCII_NAMES: &[&str] = &["rack", "zone", "batch", "web", "analytics", "cad"];
const UNICODE_NAMES: &[&str] = &[
    "r\u{e4}ck",
    "z\u{14d}ne",
    "j\u{14f}b\u{1F600}",
    "tx\u{1F680}",
];

fn gen_name(rng: &mut TestRng, profile: &GenProfile, prefix: &str, index: usize) -> Option<String> {
    if !chance(rng, 2) {
        return None;
    }
    let base = if profile.unicode_names && chance(rng, 3) {
        pick(rng, UNICODE_NAMES)
    } else {
        pick(rng, ASCII_NAMES)
    };
    // The index suffix keeps names unique within their namespace, so
    // DuplicateName can never fire.
    Some(format!("{prefix}-{base}-{index}"))
}

const DIM_PALETTE: &[&str] = &["disk_mb", "net_mbps", "license_slots", "gpu_ram_mb"];

/// Draws one random scenario under `profile`. See the module docs for
/// the invariants the construction guarantees; [`scenarios`] wraps this
/// as a [`Strategy`].
pub fn gen_scenario(rng: &mut TestRng, profile: &GenProfile) -> ScenarioSpec {
    let scheduler = pick(rng, &profile.schedulers).clone();
    let apc = scheduler == "apc";
    let cycle_secs = f8(rng, 60.0, 300.0);

    // Extra rigid dimensions. The FCFS/EDF baselines are memory-only
    // schedulers, so extra dims are drawn for APC scenarios only.
    let n_dims = if apc {
        int(rng, 0, profile.max_extra_dims.min(DIM_PALETTE.len()))
    } else {
        0
    };
    let resources: Vec<String> = DIM_PALETTE[..n_dims]
        .iter()
        .map(|s| s.to_string())
        .collect();

    // Heterogeneous node fleet. Every declared dimension gets a strictly
    // positive capacity on every group so fleet-wide minima are positive.
    let n_groups = int(rng, 1, profile.max_node_groups);
    let mut nodes = Vec::with_capacity(n_groups);
    for g in 0..n_groups {
        let mut extra = BTreeMap::new();
        for dim in &resources {
            extra.insert(dim.clone(), f8(rng, 400.0, 4_000.0));
        }
        nodes.push(NodeGroupSpec {
            count: int(rng, 1, profile.max_nodes_per_group),
            name: gen_name(rng, profile, "n", g),
            cpu_mhz: f8(rng, 800.0, 3_200.0),
            memory_mb: f8(rng, 2_000.0, 8_000.0),
            resources: extra,
        });
    }
    let node_count: usize = nodes.iter().map(|g| g.count).sum();
    let min_mem = nodes.iter().map(|g| g.memory_mb).fold(f64::MAX, f64::min);
    let min_cap: BTreeMap<&str, f64> = resources
        .iter()
        .map(|dim| {
            let cap = nodes
                .iter()
                .map(|g| g.resources[dim])
                .fold(f64::MAX, f64::min);
            (dim.as_str(), cap)
        })
        .collect();

    // Placeable demands: at most `frac` of the fleet-wide minimum
    // capacity of each dimension, so one instance fits on any node.
    let rigid_demands = |rng: &mut TestRng, frac: f64, keep: u64| {
        let mut block = BTreeMap::new();
        for dim in &resources {
            if chance(rng, keep) {
                // A rare near-minimum draw makes the dimension *binding*
                // (forces spreading); the common case leaves it slack.
                let hi = if chance(rng, 8) { 0.95 } else { frac };
                block.insert(dim.clone(), f8(rng, 0.0, min_cap[dim.as_str()] * hi));
            }
        }
        block
    };
    let draw_tasks = |rng: &mut TestRng| {
        if profile.parallel_jobs && apc && node_count > 1 && chance(rng, 4) {
            int(rng, 2, node_count.min(3)) as u32
        } else {
            1
        }
    };
    // One job shape, whichever list it rides in; the lists differ only
    // in their work range, memory and demand bounds, and class tag. The
    // shapes draw in the field order both lists always used, so a seed
    // still yields the same spec.
    let job_shape = |rng: &mut TestRng,
                     work: (f64, f64),
                     memory_frac: f64,
                     (demand_frac, keep): (f64, u64),
                     tasks: u32,
                     class: String| JobShapeSpec {
        work_mcycles: f8(rng, work.0, work.1),
        max_speed_mhz: f8(rng, 300.0, 1_200.0),
        memory_mb: f8(rng, 64.0, min_mem * memory_frac),
        goal: if chance(rng, 2) {
            GoalSubmission::Factor(f8(rng, 2.0, 8.0))
        } else {
            GoalSubmission::RelativeSecs(f8(rng, 600.0, 5_000.0))
        },
        tasks,
        class: chance(rng, 6).then_some(class),
        resources: rigid_demands(rng, demand_frac, keep),
    };
    let txn_shape = |rng: &mut TestRng| TxnShapeSpec {
        demand_mcycles: f8(rng, 5.0, 40.0),
        floor_secs: f8(rng, 0.002, 0.01).max(0.002),
        goal_secs: f8(rng, 0.05, 0.3),
        memory_mb: f8(rng, 64.0, min_mem * 0.5),
        max_instances: int(rng, 1, node_count.min(4)) as u32,
        resources: rigid_demands(rng, 0.3, 3),
    };

    // Batch job groups (always at least one: every run has work, so
    // horizon-free runs terminate at the last completion).
    let n_jobs = int(rng, 1, profile.max_job_groups);
    let mut jobs = Vec::with_capacity(n_jobs);
    for j in 0..n_jobs {
        let mut count = int(rng, 1, profile.max_jobs_per_group);
        let arrivals = match int(rng, 0, if profile.stochastic_arrivals { 2 } else { 1 }) {
            0 => ArrivalSpec::Periodic {
                every_secs: f8(rng, 0.0, 300.0),
            },
            1 => {
                // Explicit instants double as arrival *bursts*: a base
                // instant with tight spacing. `count` is defined by the
                // listed times for `at` arrivals.
                let base = f8(rng, 0.0, 600.0);
                let spacing = if chance(rng, 2) { 0.25 } else { 45.0 };
                let times: Vec<f64> = (0..count).map(|i| base + i as f64 * spacing).collect();
                count = times.len();
                ArrivalSpec::At(times)
            }
            _ => ArrivalSpec::Exponential {
                mean_secs: f8(rng, 30.0, 300.0),
            },
        };
        let tasks = draw_tasks(rng);
        let name = gen_name(rng, profile, "j", j);
        let class = format!("class-{j}");
        let shape = job_shape(rng, (4_000.0, 30_000.0), 0.6, (0.4, 2), tasks, class);
        jobs.push(JobGroupSpec {
            count,
            name,
            arrivals,
            shape,
        });
    }
    // Distinct per-group work values keep objective ties (and therefore
    // id-dependent tie-breaks) out of the metamorphic relations.
    let mut seen_work = std::collections::BTreeSet::new();
    for group in &mut jobs {
        while !seen_work.insert(group.shape.work_mcycles.to_bits()) {
            group.shape.work_mcycles += 0.125;
        }
    }

    // Transactional applications with shifting demand profiles.
    let n_txns = int(rng, 0, profile.max_txns);
    let mut txns = Vec::with_capacity(n_txns);
    for t in 0..n_txns {
        let rate = if chance(rng, 2) {
            RateSpec::Constant(f8(rng, 1.0, 25.0))
        } else {
            let mut steps = Vec::new();
            let mut at = 0.0;
            for _ in 0..int(rng, 2, 4) {
                steps.push((at, f8(rng, 1.0, 25.0)));
                at += f8(rng, 100.0, 500.0);
            }
            RateSpec::Steps(steps)
        };
        let name = gen_name(rng, profile, "t", t);
        txns.push(TxnSpec {
            name,
            rate,
            shape: txn_shape(rng),
        });
    }

    // Generative workload streams: bounded batch sources over every
    // process family plus an optional open-loop txn curve. Counts stay
    // small (the streams ride inside full simulations) and every
    // template demand obeys the same placeability bound as the classic
    // lists, so the whole-run oracles apply unchanged.
    let workload = if profile.workloads && !profile.uncontended && chance(rng, 2) {
        let n_streams = int(rng, 1, 2);
        let mut batch_streams = Vec::with_capacity(n_streams);
        for s in 0..n_streams {
            let process = match int(rng, 0, 3) {
                0 => ArrivalProcess::Poisson {
                    rate_per_sec: f8(rng, 0.125, 0.5),
                },
                1 => {
                    // First state always productive, so the stream is
                    // guaranteed to emit (validate requires one
                    // positive-rate state).
                    let mut states = vec![(f8(rng, 0.125, 0.5), f8(rng, 60.0, 600.0))];
                    for _ in 0..int(rng, 1, 2) {
                        states.push((f8(rng, 0.0, 0.375), f8(rng, 60.0, 600.0)));
                    }
                    ArrivalProcess::Mmpp { states }
                }
                2 => {
                    let base = f8(rng, 0.125, 0.5);
                    ArrivalProcess::Diurnal {
                        base_rate_per_sec: base,
                        // Amplitude may exceed nothing: troughs clamp
                        // at zero inside the process itself.
                        amplitude: f8(rng, 0.0, base),
                        period_secs: f8(rng, 600.0, 3_000.0),
                    }
                }
                _ => ArrivalProcess::FlashCrowd {
                    base_rate_per_sec: f8(rng, 0.125, 0.375),
                    multiplier: f8(rng, 2.0, 8.0),
                    every_secs: f8(rng, 200.0, 800.0),
                    duration_secs: f8(rng, 30.0, 120.0),
                },
            };
            let tasks = draw_tasks(rng);
            let name = gen_name(rng, profile, "ws", s);
            // Always bounded, so horizon-free runs terminate and the
            // no-starvation oracle covers every generated job.
            let count = Some(int(rng, 1, 4) as u64);
            let class = format!("stream-{s}");
            let shape = job_shape(rng, (2_000.0, 12_000.0), 0.5, (0.3, 3), tasks, class);
            batch_streams.push(BatchStreamSpec {
                name,
                process,
                count,
                shape,
            });
        }
        let mut txn_streams = Vec::new();
        if chance(rng, 2) {
            let curve = match int(rng, 0, 2) {
                0 => TxnCurveSpec::Constant {
                    rate_per_sec: f8(rng, 1.0, 25.0),
                },
                1 => {
                    let base = f8(rng, 5.0, 25.0);
                    TxnCurveSpec::Diurnal {
                        base_rate_per_sec: base,
                        amplitude_per_sec: f8(rng, 0.0, base),
                        period_secs: f8(rng, 600.0, 3_000.0),
                    }
                }
                _ => TxnCurveSpec::Population {
                    users: f8(rng, 10.0, 150.0),
                    think_time_secs: f8(rng, 2.0, 10.0),
                },
            };
            let name = gen_name(rng, profile, "wt", 0);
            txn_streams.push(TxnStreamSpec {
                name,
                curve,
                shape: txn_shape(rng),
            });
        }
        Some(WorkloadSpec {
            batch_streams,
            txn_streams,
        })
    } else {
        None
    };

    // Uncontended profiles: rescale rigid demands so every instance of
    // every app fits on the *smallest* node simultaneously. With no
    // packing choice to make, the optimum is unique and outcomes cannot
    // depend on declaration order (see GenProfile::uncontended).
    if profile.uncontended {
        let floor8 = |v: f64| (v * 8.0).floor() / 8.0;
        let job_total = |jobs: &[JobGroupSpec], f: &dyn Fn(&JobShapeSpec) -> f64| -> f64 {
            jobs.iter()
                .map(|g| f(&g.shape) * g.count as f64 * f64::from(g.shape.tasks))
                .sum()
        };
        let txn_total = |txns: &[TxnSpec], f: &dyn Fn(&TxnShapeSpec) -> f64| -> f64 {
            txns.iter()
                .map(|t| f(&t.shape) * f64::from(t.shape.max_instances))
                .sum()
        };
        let mem_total = job_total(&jobs, &|g| g.memory_mb) + txn_total(&txns, &|t| t.memory_mb);
        if mem_total > min_mem * 0.85 {
            let scale = min_mem * 0.85 / mem_total;
            for g in &mut jobs {
                g.shape.memory_mb = floor8(g.shape.memory_mb * scale).max(1.0);
            }
            for t in &mut txns {
                t.shape.memory_mb = floor8(t.shape.memory_mb * scale).max(1.0);
            }
        }
        for dim in &resources {
            let cap = min_cap[dim.as_str()];
            let total = job_total(&jobs, &|g| g.resources.get(dim).copied().unwrap_or(0.0))
                + txn_total(&txns, &|t| t.resources.get(dim).copied().unwrap_or(0.0));
            if total > cap * 0.85 {
                let scale = cap * 0.85 / total;
                for g in &mut jobs {
                    if let Some(v) = g.shape.resources.get_mut(dim) {
                        *v = floor8(*v * scale);
                    }
                }
                for t in &mut txns {
                    if let Some(v) = t.shape.resources.get_mut(dim) {
                        *v = floor8(*v * scale);
                    }
                }
            }
        }
        // CPU is fluid, not rigid, but a saturated node still forces an
        // order-dependent division of speed among co-located apps: once
        // aggregate appetite exceeds capacity, the leftover after
        // goal-equalizing water-filling is handed out in ascending app-id
        // order (a documented tie-break), so relabeling changes who gets
        // the luxury. Keep the aggregate *saturation* appetite — every
        // job at max speed plus every txn at its full saturation demand
        // (peak arrival rate work plus the response-time-floor term
        // `d / floor_secs`, which dominates) — within the smallest node,
        // so every app can be driven to its maximum simultaneously and
        // the optimum is unique.
        let min_cpu = nodes.iter().map(|g| g.cpu_mhz).fold(f64::MAX, f64::min);
        let peak_rate = |t: &TxnSpec| match &t.rate {
            RateSpec::Constant(r) => *r,
            RateSpec::Steps(steps) => steps.iter().map(|(_, r)| *r).fold(0.0, f64::max),
        };
        let txn_appetite =
            |t: &TxnSpec| t.shape.demand_mcycles * (peak_rate(t) + 1.0 / t.shape.floor_secs);
        let cpu_total: f64 =
            job_total(&jobs, &|g| g.max_speed_mhz) + txns.iter().map(txn_appetite).sum::<f64>();
        if cpu_total > min_cpu * 0.85 {
            let scale = min_cpu * 0.85 / cpu_total;
            for g in &mut jobs {
                g.shape.max_speed_mhz = floor8(g.shape.max_speed_mhz * scale).max(8.0);
            }
            // Appetite is linear in the per-request demand for a fixed
            // floor and rate, so scaling `d` scales the whole term.
            for t in &mut txns {
                t.shape.demand_mcycles = floor8(t.shape.demand_mcycles * scale).max(0.125);
            }
        }
    }

    // Failure schedules: transient outages freely; permanent failures
    // only on distinct nodes and never the whole fleet.
    let mut node_failures = Vec::new();
    if profile.failures && chance(rng, 2) {
        let mut permanent_used = std::collections::BTreeSet::new();
        for i in 0..int(rng, 1, 2) {
            let node = int(rng, 0, node_count - 1) as u32;
            let permanent = chance(rng, 3)
                && permanent_used.len() + 1 < node_count
                && permanent_used.insert(node);
            node_failures.push(NodeFailureSpec {
                // The index offset keeps outage instants distinct, so
                // event order is independent of declaration order.
                at_secs: f8(rng, cycle_secs, 1_500.0) + i as f64 * 0.125,
                node,
                duration_secs: if permanent {
                    None
                } else {
                    Some(f8(rng, 60.0, 900.0))
                },
            });
        }
    }

    // Actuation faults: always bounded by `fail_until`, so the
    // desired/actual convergence oracle has a grace window to key on.
    let actuation = if profile.chaos && chance(rng, 2) {
        ActuationSpec {
            failure_rate: f8(rng, 0.05, 0.35),
            latency_jitter: f8(rng, 0.0, 0.2),
            timeout_secs: if chance(rng, 3) {
                Some(f8(rng, 5.0, 60.0))
            } else {
                None
            },
            fail_until_secs: Some(f8(rng, 500.0, 2_500.0)),
            seed: rng.next_u64() & 0xFFFF,
            base_backoff_secs: f8(rng, 2.0, 20.0),
            backoff_factor: f8(rng, 1.25, 2.5),
            max_backoff_secs: f8(rng, 30.0, 240.0),
            quarantine_after: int(rng, 2, 4) as u32,
            quarantine_secs: f8(rng, 60.0, 600.0),
            fallback_after: int(rng, 2, 4) as u32,
        }
    } else {
        ActuationSpec::default()
    };

    // Observation faults: always bounded by `loss_until`, so after it
    // telemetry is perfect, the health machine reinstates every
    // false-positive death, and the convergence oracle has a provable
    // grace window. Modest loss rates keep Dead declarations rare but
    // reachable within typical horizons.
    let observation = if profile.observation && apc && chance(rng, 2) {
        Some(ObservationSpec {
            heartbeat_loss: f8(rng, 0.125, 0.5),
            max_staleness_cycles: int(rng, 0, 2) as u32,
            noise: f8(rng, 0.0, 0.25),
            loss_until_secs: Some(f8(rng, 500.0, 2_000.0)),
            seed: rng.next_u64() & 0xFFFF,
            suspect_after: int(rng, 1, 2) as u32,
            dead_after: int(rng, 3, 5) as u32,
            reinstate_after: int(rng, 1, 3) as u32,
            ewma_alpha: f8(rng, 0.25, 1.0),
            headroom: f8(rng, 0.0, 0.25),
            staleness_budget_cycles: int(rng, 0, 2) as u32,
            degraded_mode: if chance(rng, 2) { "hold" } else { "fill_only" }.to_string(),
        })
    } else {
        None
    };

    let sharding = if profile.sharding && apc && chance(rng, 3) {
        Some(ShardingSpec::new(int(rng, 1, node_count + 1)))
    } else {
        None
    };

    // A horizon only changes behavior when txns (classic or streamed)
    // keep the control loop armed; horizon-free runs end at the last
    // job completion and the no-starvation oracle requires every job to
    // finish.
    let has_txn_load =
        !txns.is_empty() || workload.as_ref().is_some_and(|w| !w.txn_streams.is_empty());
    let horizon_secs = if profile.horizons && has_txn_load && chance(rng, 4) {
        Some(f8(rng, 1_500.0, 3_000.0))
    } else {
        None
    };

    let spec = ScenarioSpec {
        seed: rng.next_u64() & 0xFFFF,
        scheduler,
        cycle_secs,
        horizon_secs,
        free_vm_costs: chance(rng, 2),
        resources,
        nodes,
        jobs,
        txns,
        node_failures,
        actuation,
        // Wall-clock optimizer deadlines make runs machine-dependent;
        // the fuzz harness never draws one.
        deadline_secs: None,
        workload,
        sharding,
        observation,
        trace: TraceSpec {
            path: None,
            level: if chance(rng, 4) {
                "verbose"
            } else {
                "decisions"
            }
            .to_string(),
        },
    };
    debug_assert_eq!(spec.validate(), Ok(()), "generator emitted an invalid spec");
    spec
}

/// Structurally shrinks a failing spec: tries deletions and reductions
/// in rough order of how much they simplify, keeping each mutation only
/// if the candidate is still valid *and* still fails. Deterministic,
/// and bounded to keep worst-case shrink time sane.
pub fn shrink_spec<F>(spec: &ScenarioSpec, fails: F) -> ScenarioSpec
where
    F: Fn(&ScenarioSpec) -> bool,
{
    let mut best = spec.clone();
    let mut budget = 600usize;
    loop {
        let mut improved = false;
        for candidate in mutations(&best) {
            if budget == 0 {
                return best;
            }
            budget -= 1;
            if candidate.validate().is_ok() && fails(&candidate) {
                best = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// One round of candidate mutations, most aggressive first.
fn mutations(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    // Drop whole txns / job groups / node groups.
    for i in 0..spec.txns.len() {
        let mut s = spec.clone();
        s.txns.remove(i);
        if s.txns.is_empty() {
            s.horizon_secs = None;
        }
        out.push(s);
    }
    for i in 0..spec.jobs.len() {
        let mut s = spec.clone();
        s.jobs.remove(i);
        out.push(s);
    }
    if spec.nodes.len() > 1 {
        for i in 0..spec.nodes.len() {
            let mut s = spec.clone();
            s.nodes.remove(i);
            let remaining: usize = s.nodes.iter().map(|g| g.count).sum();
            s.node_failures.retain(|f| (f.node as usize) < remaining);
            out.push(s);
        }
    }
    // Drop scripted failures and config blocks.
    for i in 0..spec.node_failures.len() {
        let mut s = spec.clone();
        s.node_failures.remove(i);
        out.push(s);
    }
    if spec.actuation != ActuationSpec::default() {
        let mut s = spec.clone();
        s.actuation = ActuationSpec::default();
        out.push(s);
    }
    if spec.sharding.is_some() {
        let mut s = spec.clone();
        s.sharding = None;
        out.push(s);
    }
    if spec.observation.is_some() {
        let mut s = spec.clone();
        s.observation = None;
        out.push(s);
    }
    if spec.trace != TraceSpec::default() {
        let mut s = spec.clone();
        s.trace = TraceSpec::default();
        out.push(s);
    }
    // Drop the generative workload block, then its individual streams.
    if let Some(workload) = &spec.workload {
        let mut s = spec.clone();
        s.workload = None;
        out.push(s);
        for i in 0..workload.batch_streams.len() {
            let mut s = spec.clone();
            let w = s.workload.as_mut().expect("cloned with a workload");
            w.batch_streams.remove(i);
            if w.batch_streams.is_empty() && w.txn_streams.is_empty() {
                s.workload = None;
            }
            out.push(s);
        }
        for i in 0..workload.txn_streams.len() {
            let mut s = spec.clone();
            let w = s.workload.as_mut().expect("cloned with a workload");
            w.txn_streams.remove(i);
            if w.batch_streams.is_empty() && w.txn_streams.is_empty() {
                s.workload = None;
            }
            out.push(s);
        }
    }
    if spec.horizon_secs.is_some() {
        let mut s = spec.clone();
        s.horizon_secs = None;
        out.push(s);
    }
    // Remove one extra rigid dimension end to end.
    for dim in spec.resources.clone() {
        let mut s = spec.clone();
        s.resources.retain(|d| *d != dim);
        for g in &mut s.nodes {
            g.resources.remove(&dim);
        }
        for g in &mut s.jobs {
            g.shape.resources.remove(&dim);
        }
        for t in &mut s.txns {
            t.shape.resources.remove(&dim);
        }
        if let Some(w) = &mut s.workload {
            for b in &mut w.batch_streams {
                b.shape.resources.remove(&dim);
            }
            for t in &mut w.txn_streams {
                t.shape.resources.remove(&dim);
            }
        }
        out.push(s);
    }
    // Reduce counts toward one.
    for i in 0..spec.nodes.len() {
        if spec.nodes[i].count > 1 {
            let mut s = spec.clone();
            s.nodes[i].count /= 2;
            let remaining: usize = s.nodes.iter().map(|g| g.count).sum();
            s.node_failures.retain(|f| (f.node as usize) < remaining);
            out.push(s);
        }
    }
    for i in 0..spec.jobs.len() {
        let group = &spec.jobs[i];
        if group.count > 1 {
            let mut s = spec.clone();
            let halved = group.count / 2;
            if let ArrivalSpec::At(times) = &mut s.jobs[i].arrivals {
                times.truncate(halved);
            }
            s.jobs[i].count = halved;
            out.push(s);
        }
        out.extend(job_entry_mutations(&group.name, &group.shape, |edit| {
            let mut s = spec.clone();
            let g = &mut s.jobs[i];
            edit(&mut g.name, &mut g.shape);
            s
        }));
    }
    for i in 0..spec.txns.len() {
        if spec.txns[i].shape.max_instances > 1 {
            let mut s = spec.clone();
            s.txns[i].shape.max_instances = 1;
            out.push(s);
        }
        if spec.txns[i].name.is_some() {
            let mut s = spec.clone();
            s.txns[i].name = None;
            out.push(s);
        }
        if matches!(spec.txns[i].rate, RateSpec::Steps(_)) {
            let mut s = spec.clone();
            if let RateSpec::Steps(steps) = &spec.txns[i].rate {
                s.txns[i].rate = RateSpec::Constant(steps[0].1);
            }
            out.push(s);
        }
    }
    // Simplify surviving workload streams: halve counts, collapse
    // processes and curves to their simplest family, strip decorations.
    if let Some(workload) = &spec.workload {
        for i in 0..workload.batch_streams.len() {
            let stream = &workload.batch_streams[i];
            let with = |f: &dyn Fn(&mut BatchStreamSpec)| {
                let mut s = spec.clone();
                f(&mut s.workload.as_mut().expect("cloned").batch_streams[i]);
                s
            };
            if stream.count.is_some_and(|c| c > 1) {
                out.push(with(&|b| b.count = b.count.map(|c| c / 2)));
            }
            if !matches!(stream.process, ArrivalProcess::Poisson { .. }) {
                out.push(with(&|b| {
                    b.process = ArrivalProcess::Poisson { rate_per_sec: 0.25 }
                }));
            }
            out.extend(job_entry_mutations(&stream.name, &stream.shape, |edit| {
                with(&|b| edit(&mut b.name, &mut b.shape))
            }));
        }
        for i in 0..workload.txn_streams.len() {
            let stream = &workload.txn_streams[i];
            let with = |f: &dyn Fn(&mut TxnStreamSpec)| {
                let mut s = spec.clone();
                f(&mut s.workload.as_mut().expect("cloned").txn_streams[i]);
                s
            };
            if stream.shape.max_instances > 1 {
                out.push(with(&|t| t.shape.max_instances = 1));
            }
            if !matches!(stream.curve, TxnCurveSpec::Constant { .. }) {
                out.push(with(&|t| {
                    t.curve = TxnCurveSpec::Constant { rate_per_sec: 10.0 }
                }));
            }
            if stream.name.is_some() {
                out.push(with(&|t| t.name = None));
            }
        }
    }
    for i in 0..spec.nodes.len() {
        if spec.nodes[i].name.is_some() {
            let mut s = spec.clone();
            s.nodes[i].name = None;
            out.push(s);
        }
    }
    // Simplify surviving name strings one character at a time (keeps
    // the failing character when a specific one — e.g. an astral-plane
    // char — is what matters).
    let shorten = |name: &str| -> Vec<String> {
        name.char_indices()
            .map(|(i, c)| {
                let mut shorter = String::with_capacity(name.len());
                shorter.push_str(&name[..i]);
                shorter.push_str(&name[i + c.len_utf8()..]);
                shorter
            })
            .filter(|s| !s.is_empty())
            .collect()
    };
    for i in 0..spec.jobs.len() {
        if let Some(name) = &spec.jobs[i].name {
            for shorter in shorten(name) {
                let mut s = spec.clone();
                s.jobs[i].name = Some(shorter);
                out.push(s);
            }
        }
    }
    for i in 0..spec.nodes.len() {
        if let Some(name) = &spec.nodes[i].name {
            for shorter in shorten(name) {
                let mut s = spec.clone();
                s.nodes[i].name = Some(shorter);
                out.push(s);
            }
        }
    }
    out
}

/// The simplifications every job list entry shares, in the order the
/// shrinker tries them: one task, no name, no class. `edit` applies one
/// to the entry's name and shape inside a fresh copy of the spec.
fn job_entry_mutations(
    name: &Option<String>,
    shape: &JobShapeSpec,
    edit: impl Fn(&dyn Fn(&mut Option<String>, &mut JobShapeSpec)) -> ScenarioSpec,
) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    if shape.tasks > 1 {
        out.push(edit(&|_, shape| shape.tasks = 1));
    }
    if name.is_some() {
        out.push(edit(&|name, _| *name = None));
    }
    if shape.class.is_some() {
        out.push(edit(&|_, shape| shape.class = None));
    }
    out
}

/// Where minimized failing specs are persisted: `$FUZZ_FAILURE_DIR`
/// when set (CI uploads this directory as an artifact on failure), else
/// `target/fuzz/failures` under the workspace root.
pub fn failure_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("FUZZ_FAILURE_DIR") {
        return PathBuf::from(dir);
    }
    // crates/testutil -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("testutil lives two levels below the workspace root")
        .join("target/fuzz/failures")
}

/// Persists a minimized failing spec as pretty JSON, ready to copy into
/// `tests/repro/` as a permanent regression scenario. Returns the path.
pub fn persist_failure(property: &str, spec: &ScenarioSpec) -> PathBuf {
    let dir = failure_dir();
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let path = dir.join(format!("{property}.json"));
    let mut text = spec.to_json_string();
    text.push('\n');
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path
}

/// Runs `oracle` on `spec`, treating panics inside the oracle (an
/// engine crash is a finding, not a test error) as failures. On
/// failure, shrinks the spec against the same oracle, persists the
/// minimized JSON, and reports everything in one message.
pub fn check_scenario<O>(property: &str, spec: &ScenarioSpec, oracle: O) -> TestCaseResult
where
    O: Fn(&ScenarioSpec) -> Result<(), String> + std::panic::RefUnwindSafe,
{
    let outcome = |candidate: &ScenarioSpec| -> Result<(), String> {
        std::panic::catch_unwind(|| oracle(candidate))
            .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_message(&payload))))
    };
    let first = match outcome(spec) {
        Ok(()) => return Ok(()),
        Err(message) => message,
    };
    let minimized = shrink_spec(spec, |candidate| outcome(candidate).is_err());
    let minimized_err = outcome(&minimized).err().unwrap_or_else(|| first.clone());
    let path = persist_failure(property, &minimized);
    Err(TestCaseError::fail(format!(
        "{property}: {first}\n\
         minimized failure: {minimized_err}\n\
         minimized spec persisted to {} — copy into tests/repro/ to bless it as a regression\n\
         minimized spec:\n{}",
        path.display(),
        minimized.to_json_string(),
    )))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
