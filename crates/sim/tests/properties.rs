//! Property-based tests of the simulator: randomized declarative
//! scenarios must uphold global invariants under every scheduler.

use dynaplace_sim::spec::{ArrivalSpec, JobGroupSpec, JobShapeSpec, NodeGroupSpec, ScenarioSpec};
use dynaplace_sim::GoalSubmission;
use proptest::prelude::*;

fn arb_scenario() -> impl Strategy<Value = ScenarioSpec> {
    let nodes =
        (1usize..4, 800.0..4_000.0f64, 2_000.0..8_000.0f64).prop_map(|(count, cpu, mem)| {
            NodeGroupSpec {
                count,
                name: None,
                cpu_mhz: cpu,
                memory_mb: mem,
                resources: Default::default(),
            }
        });
    let jobs = (
        1usize..8,
        5_000.0..100_000.0f64,
        200.0..1_500.0f64,
        200.0..1_800.0f64,
        1.5..6.0f64,
        5.0..120.0f64,
    )
        .prop_map(
            |(count, work, speed, memory, factor, spacing)| JobGroupSpec {
                count,
                name: None,
                arrivals: ArrivalSpec::Periodic {
                    every_secs: spacing,
                },
                shape: JobShapeSpec {
                    work_mcycles: work,
                    max_speed_mhz: speed,
                    memory_mb: memory,
                    goal: GoalSubmission::Factor(factor),
                    tasks: 1,
                    class: None,
                    resources: Default::default(),
                },
            },
        );
    (
        any::<u64>(),
        prop_oneof![
            Just("apc".to_string()),
            Just("fcfs".to_string()),
            Just("edf".to_string())
        ],
        nodes,
        proptest::collection::vec(jobs, 1..3),
    )
        .prop_map(|(seed, scheduler, nodes, jobs)| ScenarioSpec {
            seed,
            scheduler,
            cycle_secs: 20.0,
            horizon_secs: Some(50_000.0),
            free_vm_costs: false,
            resources: vec![],
            nodes: vec![nodes],
            jobs,
            txns: vec![],
            workload: None,
            node_failures: vec![],
            actuation: Default::default(),
            deadline_secs: None,
            sharding: None,
            observation: None,
            trace: Default::default(),
        })
}

/// A scenario is *serviceable* when every job group fits the nodes
/// (memory and speed), so all jobs must eventually complete.
fn serviceable(spec: &ScenarioSpec) -> bool {
    let node = &spec.nodes[0];
    spec.jobs
        .iter()
        .all(|g| g.shape.memory_mb <= node.memory_mb && g.shape.max_speed_mhz > 0.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every serviceable job completes exactly once, and completion
    /// records are internally consistent.
    #[test]
    fn completions_are_consistent(spec in arb_scenario()) {
        prop_assume!(serviceable(&spec));
        let total: usize = spec.jobs.iter().map(|g| g.count).sum();
        let metrics = spec.build().run();
        prop_assert_eq!(metrics.completions.len(), total);
        let mut seen = std::collections::BTreeSet::new();
        for c in &metrics.completions {
            prop_assert!(seen.insert(c.app), "duplicate completion for {}", c.app);
            // distance = deadline − completion, met ⇔ distance ≥ 0.
            let expect = c.deadline.as_secs() - c.completion.as_secs();
            prop_assert!((c.distance.as_secs() - expect).abs() < 1e-6);
            prop_assert_eq!(c.met_deadline, c.distance.as_secs() >= 0.0);
            // Completion cannot precede arrival plus best execution.
            prop_assert!(c.completion >= c.arrival);
        }
    }

    /// No job completes faster than physics allows: completion −
    /// arrival ≥ work / max_speed (single-task jobs).
    #[test]
    fn no_superluminal_jobs(spec in arb_scenario()) {
        prop_assume!(serviceable(&spec));
        let metrics = spec.build().run();
        // Recover each group's best time from the spec: jobs are created
        // group by group in order, `count` apiece.
        let mut best = Vec::new();
        for g in &spec.jobs {
            for _ in 0..g.count {
                best.push(g.shape.work_mcycles / g.shape.max_speed_mhz);
            }
        }
        for c in &metrics.completions {
            let idx = c.app.index();
            let min_time = best[idx];
            let elapsed = c.completion.as_secs() - c.arrival.as_secs();
            prop_assert!(
                elapsed >= min_time - 1e-6,
                "{} finished in {elapsed}s < physical minimum {min_time}s",
                c.app
            );
        }
    }

    /// The same spec always produces the same run (bitwise determinism),
    /// regardless of scheduler.
    #[test]
    fn scenarios_are_deterministic(spec in arb_scenario()) {
        prop_assume!(serviceable(&spec));
        let a = spec.build().run();
        let b = spec.build().run();
        prop_assert_eq!(a.completions.len(), b.completions.len());
        for (x, y) in a.completions.iter().zip(&b.completions) {
            prop_assert_eq!(x.app, y.app);
            prop_assert_eq!(x.completion, y.completion);
        }
        prop_assert_eq!(a.changes, b.changes);
    }

    /// Change counters are consistent: resumes never exceed suspends,
    /// and every live job boots exactly once.
    #[test]
    fn change_counters_are_consistent(spec in arb_scenario()) {
        prop_assume!(serviceable(&spec));
        let total: u64 = spec.jobs.iter().map(|g| g.count as u64).sum();
        let metrics = spec.build().run();
        prop_assert_eq!(metrics.changes.starts, total, "each job boots once");
        prop_assert!(metrics.changes.resumes <= metrics.changes.suspends);
    }
}
