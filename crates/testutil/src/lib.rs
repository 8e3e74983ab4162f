//! Shared test support for the dynaplace workspace.
//!
//! Two things live here so every suite checks the same contract the same
//! way:
//!
//! - [`PlacementInvariants`]: the single checker for "this placement and
//!   load distribution are physically meaningful" — capacity never
//!   exceeded, no orphan instances, load routes sum to each
//!   application's delivered demand. Integration suites, the
//!   failure-injection suite, and the differential scoring harness all
//!   call it instead of re-deriving ad-hoc assertions.
//! - [`fixtures`]: the randomized placement-problem generator used by
//!   the property and differential suites, so "a random cluster" means
//!   the same distribution everywhere.
//! - [`gen`] and [`oracle`]: the scenario fuzzing facility — a
//!   generator of random valid [`dynaplace_sim::spec::ScenarioSpec`]s
//!   with a structural shrinker, and whole-run invariant/differential
//!   oracles over full simulations (DESIGN.md §14).
//!
//! This crate is a dev-dependency only; it never ships in the library.

use std::fmt::Write as _;

use dynaplace_apc::optimizer::PlacementOutcome;
use dynaplace_apc::problem::PlacementProblem;
use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_model::load::LoadDistribution;
use dynaplace_model::placement::Placement;
use dynaplace_model::units::CpuSpeed;

pub mod fixtures;
pub mod gen;
pub mod oracle;

/// Numeric slack for capacity comparisons, matching the feasibility
/// epsilon the load distributor itself works to.
const CAP_EPS: f64 = 1e-6;

/// The shared placement-invariant checker.
///
/// [`check`](Self::check) collects every violation instead of stopping
/// at the first, so a failing test prints the full picture.
pub struct PlacementInvariants {
    violations: Vec<String>,
}

impl PlacementInvariants {
    /// Checks `placement` (and, when given, its load distribution)
    /// against `problem`. Returns every violated invariant, one message
    /// per violation; an empty `Ok(())` means all invariants hold.
    pub fn check(
        problem: &PlacementProblem<'_>,
        placement: &Placement,
        load: Option<&LoadDistribution>,
    ) -> Result<(), Vec<String>> {
        let mut inv = PlacementInvariants {
            violations: Vec::new(),
        };
        inv.check_structure(problem, placement);
        inv.check_memory_capacity(problem, placement);
        if let Some(load) = load {
            inv.check_load(problem, placement, load);
        }
        if inv.violations.is_empty() {
            Ok(())
        } else {
            Err(inv.violations)
        }
    }

    /// Asserts that an optimizer outcome satisfies every invariant,
    /// panicking with a readable report otherwise. This is the entry
    /// point test suites call.
    pub fn assert_outcome(problem: &PlacementProblem<'_>, outcome: &PlacementOutcome) {
        if let Err(violations) = Self::check(problem, &outcome.placement, Some(&outcome.score.load))
        {
            let mut report = String::from("placement invariants violated:\n");
            for v in &violations {
                let _ = writeln!(report, "  - {v}");
            }
            panic!("{report}");
        }
    }

    fn violation(&mut self, message: String) {
        self.violations.push(message);
    }

    /// Structural soundness: the model's own validation (pinning,
    /// anti-affinity, instance limits, spec memory) plus liveness — a
    /// placement may only hold instances of live applications on nodes
    /// that exist ("no orphan instances").
    fn check_structure(&mut self, problem: &PlacementProblem<'_>, placement: &Placement) {
        if let Err(e) = placement.validate(problem.cluster, problem.apps) {
            self.violation(format!("model validation failed: {e}"));
        }
        for (app, node, count) in placement.iter() {
            if !problem.workloads.contains_key(&app) {
                self.violation(format!(
                    "orphan instances: {count} instance(s) of non-live {app:?} on {node:?}"
                ));
            }
            if !problem.cluster.contains(node) {
                self.violation(format!("instances of {app:?} on unknown {node:?}"));
            }
        }
    }

    /// Rigid capacity in every declared dimension, with *effective*
    /// per-instance sizes (a batch job's current stage may pin less
    /// memory than its spec maximum; extra dimensions come from the
    /// static spec).
    fn check_memory_capacity(&mut self, problem: &PlacementProblem<'_>, placement: &Placement) {
        let dims = problem.rigid_dims().clone();
        for (node, spec) in problem.cluster.iter() {
            let mut used = vec![0.0; dims.len().max(spec.rigid_capacity().len())];
            for (app, count) in placement.apps_on(node) {
                if let Ok(rigid) = problem.try_effective_rigid(app) {
                    for (d, u) in used.iter_mut().enumerate() {
                        *u += rigid.get(d) * count as f64;
                    }
                }
            }
            for (d, &u) in used.iter().enumerate() {
                let cap = spec.rigid_capacity().get(d);
                if u > cap * (1.0 + CAP_EPS) + CAP_EPS {
                    let name = if d < dims.len() { dims.name(d) } else { "?" };
                    self.violation(format!(
                        "{name} (dim {d}) over-committed on {node:?}: {u:.3} used of {cap:.3}"
                    ));
                }
            }
        }
    }

    /// Load-distribution invariants: CPU capacity per node, routes only
    /// where instances exist, per-route and per-app ceilings respected,
    /// and per-app routes summing to the app's delivered total.
    fn check_load(
        &mut self,
        problem: &PlacementProblem<'_>,
        placement: &Placement,
        load: &LoadDistribution,
    ) {
        // CPU capacity never exceeded.
        for (node, spec) in problem.cluster.iter() {
            let total = load.node_total(node).as_mhz();
            let cap = spec.cpu_capacity().as_mhz();
            if total > cap * (1.0 + CAP_EPS) + CAP_EPS {
                self.violation(format!(
                    "CPU over-committed on {node:?}: {total:.3} MHz routed of {cap:.3} MHz"
                ));
            }
        }
        // Routes only flow to hosted instances, and each route respects
        // the per-instance speed ceiling times the instance count.
        for (app, node, speed) in load.iter() {
            if speed.is_zero() {
                continue;
            }
            let count = placement.count(app, node);
            if count == 0 {
                self.violation(format!(
                    "load routed to absent instances: {app:?} gets {speed} on {node:?}"
                ));
                continue;
            }
            if !problem.workloads.contains_key(&app) {
                self.violation(format!("load routed to non-live {app:?} on {node:?}"));
                continue;
            }
            let (_, max) = problem
                .try_effective_speed_bounds(app)
                .expect("live app has speed bounds");
            let node_cpu = problem
                .cluster
                .node(node)
                .map(|s| s.cpu_capacity())
                .unwrap_or(CpuSpeed::ZERO);
            let ceiling = (max * count as f64).min(node_cpu).as_mhz();
            if speed.as_mhz() > ceiling * (1.0 + CAP_EPS) + CAP_EPS {
                self.violation(format!(
                    "route ceiling exceeded for {app:?} on {node:?}: {speed} > {ceiling:.3} MHz"
                ));
            }
        }
        // Per-app routes sum to the delivered demand, and a placed batch
        // app that receives anything receives at least its minimum.
        for &app in problem.workloads.keys() {
            let total: CpuSpeed = load.allocations_of(app).map(|(_, s)| s).sum();
            let reported = load.app_total(app);
            if !total.approx_eq(reported, CAP_EPS * (1.0 + reported.as_mhz())) {
                self.violation(format!(
                    "routes of {app:?} sum to {total} but app_total reports {reported}"
                ));
            }
            let (min, _) = problem
                .try_effective_speed_bounds(app)
                .expect("live app has speed bounds");
            if !reported.is_zero() && !min.is_zero() {
                let instances = placement.total_instances(app);
                let min_total = min.as_mhz() * instances as f64;
                // Placed apps' minimum speeds must be honoured; the
                // distributor caps cells at node capacity, so compare
                // against the smaller of the two.
                let floor = placement
                    .instances_of(app)
                    .map(|(node, count)| {
                        let cpu = problem
                            .cluster
                            .node(node)
                            .map(|s| s.cpu_capacity().as_mhz())
                            .unwrap_or(0.0);
                        (min.as_mhz() * count as f64).min(cpu)
                    })
                    .sum::<f64>()
                    .min(min_total);
                if reported.as_mhz() + CAP_EPS < floor * (1.0 - CAP_EPS) {
                    self.violation(format!(
                        "minimum speed unmet for {app:?}: {reported} < {floor:.3} MHz floor"
                    ));
                }
            }
        }
        // No load attributed to apps that hold no instances at all.
        for &app in problem.workloads.keys() {
            if !placement.is_placed(app) && !load.app_total(app).is_zero() {
                self.violation(format!(
                    "unplaced {app:?} reports nonzero total {}",
                    load.app_total(app)
                ));
            }
        }
    }
}

/// Convenience: checks a placement/load pair and panics with the full
/// violation report on failure. For suites that score placements
/// themselves rather than going through the optimizer.
pub fn assert_placement_valid(
    problem: &PlacementProblem<'_>,
    placement: &Placement,
    load: Option<&LoadDistribution>,
) {
    if let Err(violations) = PlacementInvariants::check(problem, placement, load) {
        let mut report = String::from("placement invariants violated:\n");
        for v in &violations {
            let _ = writeln!(report, "  - {v}");
        }
        panic!("{report}");
    }
}

/// Renders the per-(app, node) differences between two placements.
pub fn render_placement_diff(before: &Placement, after: &Placement) -> String {
    let mut keys: Vec<(AppId, NodeId)> = before
        .iter()
        .chain(after.iter())
        .map(|(a, n, _)| (a, n))
        .collect();
    keys.sort();
    keys.dedup();
    let mut out = Vec::new();
    for (app, node) in keys {
        let b = before.count(app, node);
        let a = after.count(app, node);
        if b != a {
            out.push(format!("a{}@n{}: {b} -> {a}", app.index(), node.index()));
        }
    }
    if out.is_empty() {
        "(no change)".to_string()
    } else {
        out.join("\n")
    }
}
