//! Property-based tests for the solvers.

use dynaplace_solver::bisect::bisect_max;
use dynaplace_solver::maxflow::FlowNetwork;
use dynaplace_solver::piecewise::PiecewiseLinear;
use dynaplace_solver::regression::{least_squares, through_origin};
use proptest::prelude::*;

fn arb_monotone_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
    // Strictly increasing x, non-decreasing y, built from positive deltas.
    (
        -100.0..100.0f64,
        -100.0..100.0f64,
        proptest::collection::vec((0.01..10.0f64, 0.0..10.0f64), 1..12),
    )
        .prop_map(|(x0, y0, deltas)| {
            let mut pts = vec![(x0, y0)];
            let (mut x, mut y) = (x0, y0);
            for (dx, dy) in deltas {
                x += dx;
                y += dy;
                pts.push((x, y));
            }
            pts
        })
}

proptest! {
    /// eval() stays within the sampled y-range for monotone functions.
    #[test]
    fn piecewise_eval_in_range(pts in arb_monotone_points(), x in -200.0..300.0f64) {
        let f = PiecewiseLinear::new(pts.clone()).unwrap();
        let y = f.eval(x);
        let y_min = pts.first().unwrap().1;
        let y_max = pts.last().unwrap().1;
        prop_assert!(y >= y_min - 1e-9 && y <= y_max + 1e-9);
    }

    /// inverse(eval(x)) maps back to a point with the same value.
    #[test]
    fn piecewise_inverse_consistent(pts in arb_monotone_points(), t in 0.0..1.0f64) {
        let f = PiecewiseLinear::new(pts).unwrap();
        let x = f.x_min() + t * (f.x_max() - f.x_min());
        let y = f.eval(x);
        let x_back = f.inverse(y);
        // On flat segments x_back may be earlier than x, but its value
        // must match (within tolerance scaled by the value range).
        let scale = 1.0 + y.abs();
        prop_assert!((f.eval(x_back) - y).abs() < 1e-6 * scale);
        prop_assert!(x_back <= x + 1e-6);
    }

    /// bisect_max returns a feasible point whose successor is infeasible.
    #[test]
    fn bisect_bracket_is_tight(threshold in 0.0..100.0f64) {
        let r = bisect_max(0.0, 100.0, 1e-7, |x| x <= threshold).unwrap();
        prop_assert!(r.accepted <= threshold + 1e-6);
        if let Some(rej) = r.rejected {
            prop_assert!(rej > threshold);
            prop_assert!(rej - r.accepted <= 1e-6);
        }
    }

    /// Max flow through a bipartite assignment never exceeds either side's
    /// capacity and is monotone in demand.
    #[test]
    fn maxflow_bounded_by_cuts(
        demands in proptest::collection::vec(0.0..50.0f64, 1..5),
        caps in proptest::collection::vec(1.0..50.0f64, 1..5),
    ) {
        let a = demands.len();
        let n = caps.len();
        // s=0, apps 1..=a, nodes a+1..=a+n, t=a+n+1.
        let t = a + n + 1;
        let mut net = FlowNetwork::new(t + 1);
        for (i, &d) in demands.iter().enumerate() {
            net.add_edge(0, 1 + i, d);
            for j in 0..n {
                net.add_edge(1 + i, 1 + a + j, f64::INFINITY);
            }
        }
        for (j, &c) in caps.iter().enumerate() {
            net.add_edge(1 + a + j, t, c);
        }
        let flow = net.max_flow(0, t);
        let total_demand: f64 = demands.iter().sum();
        let total_cap: f64 = caps.iter().sum();
        prop_assert!(flow <= total_demand + 1e-6);
        prop_assert!(flow <= total_cap + 1e-6);
        // With full bipartite connectivity the flow equals min(cut, cut).
        prop_assert!((flow - total_demand.min(total_cap)).abs() < 1e-6);
    }

    /// least_squares recovers exact coefficients from exact data.
    #[test]
    fn least_squares_exact_recovery(
        b0 in -10.0..10.0f64,
        b1 in -10.0..10.0f64,
    ) {
        let xs: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64, ((i * 3) % 7) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|r| b0 * r[0] + b1 * r[1]).collect();
        let beta = least_squares(&xs, &ys).unwrap();
        prop_assert!((beta[0] - b0).abs() < 1e-6);
        prop_assert!((beta[1] - b1).abs() < 1e-6);
    }

    /// through_origin recovers the slope from exact proportional data.
    #[test]
    fn through_origin_recovers_slope(d in 0.01..100.0f64) {
        let samples: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, d * i as f64)).collect();
        let est = through_origin(&samples).unwrap();
        prop_assert!((est - d).abs() < 1e-9 * d.max(1.0));
    }
}
