//! Behavioural tests of the placement optimizer, including the paper's
//! §4.3 worked example as golden cases.

use std::collections::BTreeMap;
use std::sync::Arc;

use dynaplace_apc::optimizer::{fill_only, place, ApcConfig};
use dynaplace_apc::problem::{PlacementProblem, WorkloadModel};
use dynaplace_batch::hypothetical::JobSnapshot;
use dynaplace_batch::job::JobProfile;
use dynaplace_model::prelude::*;
use dynaplace_rpf::goal::{CompletionGoal, ResponseTimeGoal};
use dynaplace_rpf::value::Rp;
use dynaplace_txn::model::{TxnPerformanceModel, TxnWorkload};

fn mhz(x: f64) -> CpuSpeed {
    CpuSpeed::from_mhz(x)
}
fn mb(x: f64) -> Memory {
    Memory::from_mb(x)
}
fn t(x: f64) -> SimTime {
    SimTime::from_secs(x)
}
fn secs(x: f64) -> SimDuration {
    SimDuration::from_secs(x)
}

struct World {
    cluster: Cluster,
    apps: AppSet,
    workloads: BTreeMap<AppId, WorkloadModel>,
    current: Placement,
    now: SimTime,
    cycle: SimDuration,
}

impl World {
    fn new(now: f64, cycle: f64) -> Self {
        Self {
            cluster: Cluster::new(),
            apps: AppSet::new(),
            workloads: BTreeMap::new(),
            current: Placement::new(),
            now: t(now),
            cycle: secs(cycle),
        }
    }

    fn node(&mut self, cpu: f64, memory: f64) -> NodeId {
        self.cluster
            .add_node(NodeSpec::try_new(mhz(cpu), mb(memory)).expect("valid node capacities"))
    }

    /// Adds a batch job; `consumed` is work already done; `placed_delay`
    /// is zero for jobs that can progress now.
    #[allow(clippy::too_many_arguments)]
    fn job(
        &mut self,
        work: f64,
        max_speed: f64,
        memory: f64,
        submit: f64,
        deadline: f64,
        consumed: f64,
        queued: bool,
    ) -> AppId {
        let app = self
            .apps
            .add(ApplicationSpec::batch(mb(memory), mhz(max_speed)));
        let snap = JobSnapshot::new(
            app,
            CompletionGoal::new(t(submit), t(deadline)),
            Arc::new(JobProfile::single_stage(
                Work::from_mcycles(work),
                mhz(max_speed),
                mb(memory),
            )),
            Work::from_mcycles(consumed),
            if queued {
                self.cycle
            } else {
                SimDuration::ZERO
            },
        );
        self.workloads.insert(app, WorkloadModel::Batch(snap));
        app
    }

    fn web(
        &mut self,
        memory: f64,
        max_instances: u32,
        rate: f64,
        demand: f64,
        floor: f64,
        goal: f64,
    ) -> AppId {
        let app = self.apps.add(ApplicationSpec::transactional(
            mb(memory),
            mhz(f64::INFINITY),
            max_instances,
        ));
        let model = TxnPerformanceModel::new(
            TxnWorkload::new(rate, demand, secs(floor)),
            ResponseTimeGoal::new(secs(goal)),
        );
        self.workloads
            .insert(app, WorkloadModel::Transactional(model));
        app
    }

    fn problem(&self) -> PlacementProblem<'_> {
        PlacementProblem {
            cluster: &self.cluster,
            apps: &self.apps,
            workloads: self.workloads.clone(),
            current: &self.current,
            now: self.now,
            cycle: self.cycle,
            forbidden: Default::default(),
        }
    }
}

/// An idle cluster starts a queued job immediately.
#[test]
fn queued_job_is_started() {
    let mut w = World::new(0.0, 1.0);
    let n0 = w.node(1_000.0, 2_000.0);
    let j = w.job(4_000.0, 1_000.0, 750.0, 0.0, 20.0, 0.0, true);
    let out = place(&w.problem(), &ApcConfig::default());
    assert_eq!(out.placement.count(j, n0), 1);
    assert_eq!(out.actions.len(), 1);
    assert!(matches!(out.actions[0], PlacementAction::Start { .. }));
    // Full speed once placed.
    assert!(out.score.load.app_total(j).approx_eq(mhz(1_000.0), 1.0));
}

/// Memory limits how many jobs fit; the tightest jobs are started first.
#[test]
fn memory_limits_fills_and_tight_jobs_win() {
    let mut w = World::new(0.0, 1.0);
    let _n0 = w.node(3_000.0, 2_000.0); // memory fits only 2 × 750 MB
    let loose = w.job(2_000.0, 1_000.0, 750.0, 0.0, 100.0, 0.0, true);
    let tight_a = w.job(2_000.0, 1_000.0, 750.0, 0.0, 5.0, 0.0, true);
    let tight_b = w.job(2_000.0, 1_000.0, 750.0, 0.0, 6.0, 0.0, true);
    let out = place(&w.problem(), &ApcConfig::default());
    assert!(out.placement.is_placed(tight_a), "tightest job must start");
    assert!(out.placement.is_placed(tight_b));
    assert!(
        !out.placement.is_placed(loose),
        "loose job must wait for memory"
    );
}

/// §4.3 Scenario S1, cycle 2, with the paper-narrative configuration:
/// keeping J1 alone (no change) is preferred because starting J2 gains
/// less than the ≈0.01 tie tolerance.
#[test]
fn paper_s1_cycle2_keeps_j1_alone_under_narrative_config() {
    let mut w = World::new(1.0, 1.0);
    let n0 = w.node(1_000.0, 2_000.0);
    // J1: arrived t=0, goal 20, already ran cycle 1 at 1,000 MHz.
    let j1 = w.job(4_000.0, 1_000.0, 750.0, 0.0, 20.0, 1_000.0, false);
    // J2: arrives t=1, S1 goal factor 4 → deadline 17. Queued.
    let j2 = w.job(2_000.0, 500.0, 750.0, 1.0, 17.0, 0.0, true);
    w.current.place(j1, n0);

    let out = place(&w.problem(), &ApcConfig::paper_narrative());
    assert_eq!(
        out.placement.count(j1, n0),
        1,
        "J1 keeps running at full speed"
    );
    assert!(
        !out.placement.is_placed(j2),
        "paper narrative: no placement changes on a tie"
    );
    assert!(out.actions.is_empty());

    // With exact arithmetic (default config) the optimizer may start J2
    // (gain ≈ 0.008); both choices must keep J1 placed.
    let out2 = place(&w.problem(), &ApcConfig::default());
    assert_eq!(out2.placement.count(j1, n0), 1);
}

/// §4.3 Scenario S2, cycle 2: J2's tighter goal (13) makes sharing the
/// node the better choice under every configuration (0.65/0.65 beats
/// 0.58/0.70).
#[test]
fn paper_s2_cycle2_shares_the_node() {
    let mut w = World::new(1.0, 1.0);
    let n0 = w.node(1_000.0, 2_000.0);
    let j1 = w.job(4_000.0, 1_000.0, 750.0, 0.0, 20.0, 1_000.0, false);
    let j2 = w.job(2_000.0, 500.0, 750.0, 1.0, 13.0, 0.0, true);
    w.current.place(j1, n0);

    for config in [ApcConfig::default(), ApcConfig::paper_narrative()] {
        let out = place(&w.problem(), &config);
        assert_eq!(out.placement.count(j1, n0), 1, "J1 stays");
        assert_eq!(out.placement.count(j2, n0), 1, "J2 must be started");
        // Load splits 500/500 (J2's max is 500).
        assert!(out.score.load.app_total(j2) <= mhz(500.0) + mhz(0.01));
        let worst = out.score.worst().unwrap();
        assert!(
            worst.approx_eq(Rp::new(0.65), 0.04),
            "worst should be ≈0.65, got {worst}"
        );
    }
}

/// Contention between a web application and a batch job is resolved by
/// the water-filler equalizing their relative performance (the paper's
/// Experiment Three behaviour) — no suspension needed.
#[test]
fn web_and_job_equalize_under_contention() {
    let mut w = World::new(0.0, 60.0);
    let n0 = w.node(1_000.0, 4_000.0);
    // Web: λ·d = 300 MHz, goal 25 ms → ω(u=0) = 300 + 400 = 700 MHz.
    let web = w.web(100.0, 1, 30.0, 10.0, 0.005, 0.025);
    // Job: 30,000 Mc, ≤1,000 MHz, deadline t=50 → ω(u=0) = 600 MHz.
    // Joint demand at u=0 (1,300) exceeds the node: both end below goal.
    let job = w.job(30_000.0, 1_000.0, 750.0, 0.0, 50.0, 0.0, false);
    w.current.place(web, n0);
    w.current.place(job, n0);

    let out = place(&w.problem(), &ApcConfig::default());
    assert!(out.placement.is_placed(job));
    assert!(out.placement.is_placed(web));
    // The whole node is in use.
    assert!(out.score.load.node_total(n0) >= mhz(999.0));
    // Both workloads are equally (un)satisfied: |u_web − u_job| small
    // and both below goal.
    let entries = out.score.satisfaction.entries();
    let spread = entries.last().unwrap().1.value() - entries[0].1.value();
    assert!(
        spread < 0.15,
        "performance should be equalized, spread {spread}"
    );
    assert!(
        entries[0].1.value() < 0.0,
        "contention pushes both below goal"
    );
}

/// Memory pressure drives preemption: a tight job that cannot fit
/// because loose jobs hold all the memory gets a slot by suspending one
/// of them (the lowest relative performance first policy at work).
#[test]
fn tight_job_preempts_loose_job_for_memory() {
    let mut w = World::new(0.0, 60.0);
    let n0 = w.node(1_000.0, 1_500.0); // memory fits exactly 2 × 750 MB
                                       // Two loose jobs: 50,000 Mc, ≤500 MHz, deadline t=1,000.
    let loose_a = w.job(50_000.0, 500.0, 750.0, 0.0, 1_000.0, 0.0, false);
    let loose_b = w.job(50_000.0, 500.0, 750.0, 0.0, 1_000.0, 0.0, false);
    // Tight job: 50,000 Mc at ≤1,000 MHz (50 s best), deadline t=120.
    // Waiting a cycle caps its achievable performance at ≈0.08; starting
    // now lets it finish within the cycle at u ≈ 0.53.
    let tight = w.job(50_000.0, 1_000.0, 750.0, 0.0, 120.0, 0.0, true);
    w.current.place(loose_a, n0);
    w.current.place(loose_b, n0);

    let out = place(&w.problem(), &ApcConfig::default());
    assert!(
        out.placement.is_placed(tight),
        "the tight job must get a memory slot"
    );
    // At least one loose job is preempted to make room; the optimizer
    // may suspend both so the tight job runs at its full 1,000 MHz (the
    // fluid objective prefers letting loose jobs catch up afterwards).
    let suspended = [loose_a, loose_b]
        .iter()
        .filter(|&&j| !out.placement.is_placed(j))
        .count();
    assert!(suspended >= 1, "memory preemption must occur");
    assert_eq!(out.disruptions(), suspended);
    // The tight job ends up with (almost) the whole node.
    assert!(out.score.load.app_total(tight) >= mhz(880.0));
}

/// fill_only never disturbs running instances even when doing so would
/// improve the objective.
#[test]
fn fill_only_never_removes() {
    let mut w = World::new(0.0, 60.0);
    let n0 = w.node(1_000.0, 1_500.0);
    let loose_a = w.job(50_000.0, 500.0, 750.0, 0.0, 1_000.0, 0.0, false);
    let loose_b = w.job(50_000.0, 500.0, 750.0, 0.0, 1_000.0, 0.0, false);
    let tight = w.job(50_000.0, 1_000.0, 750.0, 0.0, 120.0, 0.0, true);
    w.current.place(loose_a, n0);
    w.current.place(loose_b, n0);

    let out = fill_only(&w.problem(), &ApcConfig::default());
    assert!(
        out.placement.is_placed(loose_a),
        "fill_only must not suspend"
    );
    assert!(
        out.placement.is_placed(loose_b),
        "fill_only must not suspend"
    );
    assert!(
        !out.placement.is_placed(tight),
        "no memory without preemption"
    );
    assert_eq!(out.disruptions(), 0);
}

/// Pinning is respected even when the pinned node is the worse choice.
#[test]
fn pinning_is_respected() {
    let mut w = World::new(0.0, 1.0);
    let big = w.node(10_000.0, 8_000.0);
    let small = w.node(1_000.0, 8_000.0);
    let app = w
        .apps
        .add(ApplicationSpec::batch(mb(750.0), mhz(5_000.0)).with_allowed_nodes([small]));
    let snap = JobSnapshot::new(
        app,
        CompletionGoal::new(t(0.0), t(100.0)),
        Arc::new(JobProfile::single_stage(
            Work::from_mcycles(50_000.0),
            mhz(5_000.0),
            mb(750.0),
        )),
        Work::ZERO,
        w.cycle,
    );
    w.workloads.insert(app, WorkloadModel::Batch(snap));

    let out = place(&w.problem(), &ApcConfig::default());
    assert_eq!(out.placement.count(app, small), 1);
    assert_eq!(out.placement.count(app, big), 0);
}

/// Anti-affinity keeps two group members on different nodes.
#[test]
fn anti_affinity_separates() {
    let mut w = World::new(0.0, 1.0);
    let n0 = w.node(1_000.0, 8_000.0);
    let n1 = w.node(1_000.0, 8_000.0);
    let group = AntiAffinityGroup(1);
    let mut mk = |name: &str| {
        let app = w.apps.add(
            ApplicationSpec::batch(mb(500.0), mhz(1_000.0))
                .with_name(name)
                .with_anti_affinity(group),
        );
        let snap = JobSnapshot::new(
            app,
            CompletionGoal::new(t(0.0), t(20.0)),
            Arc::new(JobProfile::single_stage(
                Work::from_mcycles(4_000.0),
                mhz(1_000.0),
                mb(500.0),
            )),
            Work::ZERO,
            secs(1.0),
        );
        w.workloads.insert(app, WorkloadModel::Batch(snap));
        app
    };
    let a = mk("a");
    let b = mk("b");
    let out = place(&w.problem(), &ApcConfig::default());
    assert!(out.placement.is_placed(a));
    assert!(out.placement.is_placed(b));
    let na = out.placement.single_node_of(a).unwrap();
    let nb = out.placement.single_node_of(b).unwrap();
    assert_ne!(na, nb, "anti-affinity group members must not collocate");
    assert!([n0, n1].contains(&na) && [n0, n1].contains(&nb));
}

/// With identical jobs saturating the cluster, the optimizer makes no
/// disruptive changes (Experiment One's property).
#[test]
fn identical_jobs_no_disruptions() {
    let mut w = World::new(10_000.0, 600.0);
    for _ in 0..3 {
        w.node(15_600.0, 16_384.0);
    }
    // 9 running identical jobs (3 per node), 4 queued.
    let mut running = Vec::new();
    for _ in 0..9 {
        let j = w.job(
            68_640_000.0,
            3_900.0,
            4_320.0,
            9_000.0,
            9_000.0 + 47_520.0,
            3_900.0 * 1_000.0,
            false,
        );
        running.push(j);
    }
    let queued: Vec<AppId> = (0..4)
        .map(|i| {
            w.job(
                68_640_000.0,
                3_900.0,
                4_320.0,
                9_500.0 + i as f64,
                9_500.0 + i as f64 + 47_520.0,
                0.0,
                true,
            )
        })
        .collect();
    for (i, &j) in running.iter().enumerate() {
        w.current.place(j, NodeId::new((i % 3) as u32));
    }
    let out = place(&w.problem(), &ApcConfig::default());
    assert_eq!(
        out.disruptions(),
        0,
        "identical jobs must never be suspended or migrated"
    );
    // All running jobs still placed.
    for &j in &running {
        assert!(out.placement.is_placed(j));
    }
    // Memory allows 3 jobs per node → all 9 stay, queue waits.
    for &q in &queued {
        assert!(!out.placement.is_placed(q), "no memory for queued jobs yet");
    }
}
