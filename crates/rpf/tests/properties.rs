//! Property-based tests for the RPF framework.

use std::cmp::Ordering;

use dynaplace_model::ids::AppId;
use dynaplace_model::units::{CpuSpeed, SimDuration, SimTime};
use dynaplace_rpf::goal::{CompletionGoal, ResponseTimeGoal};
use dynaplace_rpf::model::{PerformanceModel, SampledRpf};
use dynaplace_rpf::satisfaction::SatisfactionVector;
use dynaplace_rpf::value::Rp;
use proptest::prelude::*;

fn arb_rp() -> impl Strategy<Value = Rp> {
    (-12.0..1.2f64).prop_map(Rp::new)
}

fn arb_sv(len: usize) -> impl Strategy<Value = SatisfactionVector> {
    proptest::collection::vec(arb_rp(), len).prop_map(|us| {
        us.into_iter()
            .enumerate()
            .map(|(i, u)| (AppId::new(i as u32), u))
            .collect()
    })
}

proptest! {
    /// Completion goal: performance_at and completion_for invert each
    /// other inside the representable range.
    #[test]
    fn completion_goal_inverse(
        start in 0.0..1e5f64,
        rel in 1.0..1e5f64,
        u in -9.9..0.99f64,
    ) {
        let g = CompletionGoal::new(
            SimTime::from_secs(start),
            SimTime::from_secs(start + rel),
        );
        let t = g.completion_for(Rp::new(u));
        let back = g.performance_at(t);
        prop_assert!(back.approx_eq(Rp::new(u), 1e-9));
    }

    /// Completion performance is monotone decreasing in completion time.
    #[test]
    fn later_completion_is_never_better(
        start in 0.0..1e5f64,
        rel in 1.0..1e5f64,
        t1 in 0.0..2e5f64,
        dt in 0.0..1e5f64,
    ) {
        let g = CompletionGoal::new(
            SimTime::from_secs(start),
            SimTime::from_secs(start + rel),
        );
        let early = g.performance_at(SimTime::from_secs(t1));
        let late = g.performance_at(SimTime::from_secs(t1 + dt));
        prop_assert!(late <= early);
    }

    /// Response goal: response_for inverts performance_at.
    #[test]
    fn response_goal_inverse(goal in 0.001..10.0f64, u in -9.9..0.99f64) {
        let g = ResponseTimeGoal::new(SimDuration::from_secs(goal));
        let t = g.response_for(Rp::new(u));
        prop_assert!(g.performance_at(t).approx_eq(Rp::new(u), 1e-9));
    }

    /// SatisfactionVector comparison (with eps=0) is antisymmetric and
    /// consistent with dominance.
    #[test]
    fn comparison_antisymmetric(a in arb_sv(5), b in arb_sv(5)) {
        let ab = a.compare(&b, 0.0);
        let ba = b.compare(&a, 0.0);
        prop_assert_eq!(ab, ba.reverse());
        if ab == Ordering::Greater {
            prop_assert!(a.dominates(&b, 0.0));
            prop_assert!(!b.dominates(&a, 0.0));
        }
    }

    /// Raising any single application's performance never makes the
    /// vector compare worse (monotonicity of the max-min extension).
    #[test]
    fn raising_one_entry_never_hurts(
        us in proptest::collection::vec(-5.0..0.9f64, 1..6),
        idx in any::<prop::sample::Index>(),
        boost in 0.0..5.0f64,
    ) {
        let base: SatisfactionVector = us
            .iter()
            .enumerate()
            .map(|(i, &u)| (AppId::new(i as u32), Rp::new(u)))
            .collect();
        let i = idx.index(us.len());
        let improved: SatisfactionVector = us
            .iter()
            .enumerate()
            .map(|(j, &u)| {
                let v = if j == i { u + boost } else { u };
                (AppId::new(j as u32), Rp::new(v))
            })
            .collect();
        prop_assert_ne!(improved.compare(&base, 0.0), Ordering::Less);
    }

    /// SampledRpf: performance is monotone in allocation and demand is a
    /// left inverse within the active region.
    #[test]
    fn sampled_rpf_monotone(
        deltas in proptest::collection::vec((1.0..500.0f64, 0.0..0.3f64), 2..10),
        probe in 0.0..1.0f64,
    ) {
        let mut omega = 0.0;
        let mut u = -3.0;
        let mut samples = vec![(CpuSpeed::ZERO, Rp::new(u))];
        for (dw, du) in deltas {
            omega += dw;
            u = (u + du).min(1.0);
            samples.push((CpuSpeed::from_mhz(omega), Rp::new(u)));
        }
        let rpf = SampledRpf::from_samples(samples).unwrap();
        let w1 = CpuSpeed::from_mhz(probe * omega);
        let w2 = CpuSpeed::from_mhz(omega);
        prop_assert!(rpf.performance(w1) <= rpf.performance(w2));
        // demand(performance(w)) <= w: the inverse is the *cheapest*
        // allocation achieving that performance.
        prop_assert!(rpf.demand(rpf.performance(w1)).as_mhz() <= w1.as_mhz() + 1e-9);
    }
}
