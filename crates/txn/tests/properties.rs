//! Property-based tests for the transactional substrate.

use dynaplace_model::units::{CpuSpeed, SimDuration};
use dynaplace_rpf::goal::ResponseTimeGoal;
use dynaplace_rpf::model::PerformanceModel;
use dynaplace_rpf::value::Rp;
use dynaplace_txn::model::{TxnPerformanceModel, TxnWorkload};
use dynaplace_txn::router::RequestRouter;
use proptest::prelude::*;

fn arb_workload() -> impl Strategy<Value = TxnWorkload> {
    (0.0..500.0f64, 0.5..100.0f64, 0.001..0.1f64).prop_map(|(rate, demand, floor)| {
        TxnWorkload::new(rate, demand, SimDuration::from_secs(floor))
    })
}

proptest! {
    /// Router conservation: admitted ≤ offered per instance, totals add
    /// up, and shed = λ − admitted.
    #[test]
    fn router_conserves_traffic(
        workload in arb_workload(),
        allocs in proptest::collection::vec(0.0..10_000.0f64, 0..6),
    ) {
        let router = RequestRouter::default();
        let allocations: Vec<CpuSpeed> =
            allocs.iter().map(|&a| CpuSpeed::from_mhz(a)).collect();
        let out = router.route(&workload, &allocations);
        let mut offered_total = 0.0;
        let mut admitted_total = 0.0;
        for i in &out.instances {
            prop_assert!(i.admitted_rate <= i.offered_rate + 1e-9);
            prop_assert!(i.utilization <= router.max_utilization() + 1e-9);
            offered_total += i.offered_rate;
            admitted_total += i.admitted_rate;
        }
        if !allocations.is_empty() && allocations.iter().any(|a| a.as_mhz() > 0.0) {
            prop_assert!((offered_total - workload.arrival_rate).abs() < 1e-6);
        }
        prop_assert!((admitted_total - out.admitted_rate).abs() < 1e-6);
        prop_assert!(
            (out.shed_rate - (workload.arrival_rate - out.admitted_rate).max(0.0)).abs() < 1e-6
        );
    }

    /// The pooled response time is monotone non-increasing in total
    /// allocation (splitting the same total differently cannot change
    /// it).
    #[test]
    fn pooled_response_monotone(
        workload in arb_workload(),
        total in 1.0..50_000.0f64,
        extra in 0.0..50_000.0f64,
        split in 0.01..0.99f64,
    ) {
        let router = RequestRouter::default();
        let one = router.route(&workload, &[CpuSpeed::from_mhz(total)]);
        let two = router.route(
            &workload,
            &[
                CpuSpeed::from_mhz(total * split),
                CpuSpeed::from_mhz(total * (1.0 - split)),
            ],
        );
        if let (Some(a), Some(b)) = (one.mean_response, two.mean_response) {
            prop_assert!(a.approx_eq(b, 1e-9), "split changed pooled response");
        }
        let bigger = router.route(&workload, &[CpuSpeed::from_mhz(total + extra)]);
        if let (Some(a), Some(b)) = (one.mean_response, bigger.mean_response) {
            prop_assert!(b <= a + SimDuration::from_secs(1e-12));
        }
    }

    /// Model round trip: performance(demand(u)) == u wherever u is
    /// attainable and above the floor plateau.
    #[test]
    fn model_round_trip(
        workload in arb_workload(),
        goal_scale in 1.5..30.0f64,
        u in -8.0..0.99f64,
    ) {
        let goal = ResponseTimeGoal::new(SimDuration::from_secs(
            workload.floor.as_secs() * goal_scale,
        ));
        let m = TxnPerformanceModel::new(workload, goal);
        let target = Rp::new(u).min(m.max_performance());
        if target <= Rp::FLOOR {
            return Ok(());
        }
        let back = m.performance(m.demand(target));
        prop_assert!(back.approx_eq(target, 1e-6));
    }

    /// Saturation: allocations beyond max_useful_demand never improve
    /// performance.
    #[test]
    fn saturation_is_flat(workload in arb_workload(), goal_scale in 1.5..30.0f64, surplus in 0.0..1e6f64) {
        let goal = ResponseTimeGoal::new(SimDuration::from_secs(
            workload.floor.as_secs() * goal_scale,
        ));
        let m = TxnPerformanceModel::new(workload, goal);
        let at_sat = m.performance(m.max_useful_demand());
        let beyond = m.performance(m.max_useful_demand() + CpuSpeed::from_mhz(surplus));
        prop_assert!(beyond.approx_eq(at_sat, 1e-9));
        prop_assert!(at_sat.approx_eq(m.max_performance(), 1e-9));
    }
}
