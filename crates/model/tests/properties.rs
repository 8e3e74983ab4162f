//! Property-based tests for the cluster model.

use dynaplace_model::prelude::*;
use proptest::prelude::*;

fn arb_speed() -> impl Strategy<Value = CpuSpeed> {
    (0.0..1.0e6f64).prop_map(CpuSpeed::from_mhz)
}

fn arb_duration() -> impl Strategy<Value = SimDuration> {
    (0.0..1.0e6f64).prop_map(SimDuration::from_secs)
}

fn arb_work() -> impl Strategy<Value = Work> {
    (0.0..1.0e9f64).prop_map(Work::from_mcycles)
}

proptest! {
    /// speed * (work / speed) == work (within floating-point tolerance).
    #[test]
    fn work_speed_duration_round_trip(
        work in arb_work(),
        speed in (1.0..1.0e6f64).prop_map(CpuSpeed::from_mhz),
    ) {
        let t = work / speed;
        let back = speed * t;
        prop_assert!((back.as_mcycles() - work.as_mcycles()).abs()
            <= 1e-9 * work.as_mcycles().max(1.0));
    }

    /// Unit addition is commutative and associative within tolerance.
    #[test]
    fn addition_laws(a in arb_speed(), b in arb_speed(), c in arb_speed()) {
        prop_assert_eq!(a + b, b + a);
        let l = (a + b) + c;
        let r = a + (b + c);
        prop_assert!(l.approx_eq(r, 1e-6 * (l.as_mhz().abs() + 1.0)));
    }

    /// Saturating subtraction never yields a negative magnitude.
    #[test]
    fn saturating_sub_non_negative(a in arb_speed(), b in arb_speed()) {
        prop_assert!(a.saturating_sub(b).as_mhz() >= 0.0);
    }

    /// SimTime +/- duration round-trips.
    #[test]
    fn time_shift_round_trip(
        t in (0.0..1.0e7f64).prop_map(SimTime::from_secs),
        d in arb_duration(),
    ) {
        let shifted = t + d;
        prop_assert!((shifted - t).as_secs() - d.as_secs() <= 1e-6);
        prop_assert!(((shifted - d).as_secs() - t.as_secs()).abs() <= 1e-6);
    }

    /// Clamp always lands inside the bounds.
    #[test]
    fn clamp_in_bounds(v in arb_speed(), a in arb_speed(), b in arb_speed()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let c = v.clamp(lo, hi);
        prop_assert!(c >= lo && c <= hi);
    }
}

/// Strategy for a random placement over `apps x nodes` with counts 0..3.
fn arb_placement(apps: u32, nodes: u32) -> impl Strategy<Value = Placement> {
    proptest::collection::vec(
        (0..apps, 0..nodes, 0u32..3),
        0..(apps as usize * nodes as usize).min(32),
    )
    .prop_map(|cells| {
        cells
            .into_iter()
            .map(|(a, n, c)| (AppId::new(a), NodeId::new(n), c))
            .collect()
    })
}

proptest! {
    /// Applying the diff of (from -> to) to `from` always produces `to`.
    #[test]
    fn diff_apply_reaches_target(
        from in arb_placement(6, 4),
        to in arb_placement(6, 4),
    ) {
        let mut current = from.clone();
        for action in from.diff(&to) {
            match action {
                PlacementAction::Start { app, node } => current.place(app, node),
                PlacementAction::Stop { app, node } => {
                    current.remove(app, node).expect("diff stops placed instance");
                }
                PlacementAction::Migrate { app, from, to } => {
                    current.remove(app, from).expect("diff migrates placed instance");
                    current.place(app, to);
                }
            }
        }
        prop_assert_eq!(current, to);
    }

    /// The diff of a placement with itself is empty.
    #[test]
    fn diff_self_is_empty(p in arb_placement(6, 4)) {
        prop_assert!(p.diff(&p).is_empty());
    }

    /// Total instance counts agree between iter() and total_placed().
    #[test]
    fn placement_totals_consistent(p in arb_placement(6, 4)) {
        let by_iter: u32 = p.iter().map(|(_, _, c)| c).sum();
        prop_assert_eq!(by_iter, p.total_placed());
        let by_apps: u32 = (0..6).map(|a| p.total_instances(AppId::new(a))).sum();
        prop_assert_eq!(by_apps, p.total_placed());
    }

    /// Load distribution totals are consistent across views.
    #[test]
    fn load_totals_consistent(
        cells in proptest::collection::vec((0u32..5, 0u32..4, 0.0..1e4f64), 0..24),
    ) {
        let l: LoadDistribution = cells
            .iter()
            .map(|&(a, n, s)| (AppId::new(a), NodeId::new(n), CpuSpeed::from_mhz(s)))
            .collect();
        let by_apps: CpuSpeed = (0..5).map(|a| l.app_total(AppId::new(a))).sum();
        let by_nodes: CpuSpeed = (0..4).map(|n| l.node_total(NodeId::new(n))).sum();
        prop_assert!(by_apps.approx_eq(l.total(), 1e-6));
        prop_assert!(by_nodes.approx_eq(l.total(), 1e-6));
    }
}
