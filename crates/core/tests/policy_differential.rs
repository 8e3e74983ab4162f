//! Differential proof for the policy trait surface.
//!
//! Two claims over randomized problems:
//!
//! 1. **APC through the trait is the APC.** [`ApcPolicy`] driven via
//!    `dyn PlacementPolicy` reproduces a direct
//!    [`place`](dynaplace_apc::optimizer::place) /
//!    [`fill_only`](dynaplace_apc::optimizer::fill_only) call
//!    bit-for-bit — same placement, actions, load cells, satisfaction
//!    entries, and search stats — across classic and sharded search,
//!    each under cached (incremental) and from-scratch oracle scoring.
//!    This is what lets the engine swap its `SchedulerKind` match for a
//!    trait object without re-blessing a single golden.
//! 2. **The whole registry is physically sound.** Every registered
//!    policy's `place` and `fill_only` outcomes uphold the shared
//!    [`PlacementInvariants`] (model validation, no orphan instances,
//!    rigid capacity in every dimension, load routed only where
//!    instances exist and summing to each app's delivered demand).
//!
//! The whole-run counterpart — full simulations under every registered
//! scheduler checked by the `dynaplace_testutil::oracle` suite — rides
//! in `tests/fuzz_scenarios.rs` at the workspace root, whose generator
//! profile samples every registry name.
//!
//! Floats are compared through `to_bits`, so even a last-ulp divergence
//! fails.

use dynaplace_apc::optimizer::{fill_only, place, ApcConfig, PlacementOutcome, ScoringMode};
use dynaplace_apc::policy::PolicyHandle;
use dynaplace_apc::{policy_handles, ShardingPolicy};
use dynaplace_testutil::fixtures::{arb_problem, ProblemFixture};
use dynaplace_testutil::PlacementInvariants;
use dynaplace_trace::NoopSink;
use proptest::prelude::*;

/// The four corners the engine can drive APC in: classic vs sharded
/// search, cached (incremental) vs from-scratch oracle scoring.
fn apc_corners() -> Vec<(&'static str, ApcConfig)> {
    let build = |scoring, sharding: Option<ShardingPolicy>| {
        let mut builder = ApcConfig::builder().scoring(scoring);
        if let Some(policy) = sharding {
            builder = builder.sharding(Some(policy));
        }
        builder.build().expect("valid differential config")
    };
    vec![
        ("classic/cached", build(ScoringMode::Incremental, None)),
        ("classic/oracle", build(ScoringMode::FromScratch, None)),
        (
            "sharded/cached",
            build(ScoringMode::Incremental, Some(ShardingPolicy::new(2))),
        ),
        (
            "sharded/oracle",
            build(ScoringMode::FromScratch, Some(ShardingPolicy::new(2))),
        ),
    ]
}

/// Bit-exact equality of two optimizer outcomes, including every float.
fn assert_outcomes_identical(a: &PlacementOutcome, b: &PlacementOutcome, what: &str) {
    assert_eq!(a.placement, b.placement, "{what}: placements differ");
    assert_eq!(a.actions, b.actions, "{what}: action lists differ");
    assert_eq!(a.stats, b.stats, "{what}: search stats differ");
    let cells = |o: &PlacementOutcome| -> Vec<(usize, usize, u64)> {
        o.score
            .load
            .iter()
            .map(|(app, node, speed)| (app.index(), node.index(), speed.as_mhz().to_bits()))
            .collect()
    };
    assert_eq!(cells(a), cells(b), "{what}: load distributions differ");
    let sat = |o: &PlacementOutcome| -> Vec<(usize, u64)> {
        o.score
            .satisfaction
            .entries()
            .iter()
            .map(|&(app, u)| (app.index(), u.value().to_bits()))
            .collect()
    };
    assert_eq!(sat(a), sat(b), "{what}: satisfaction vectors differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Claim 1: the trait path is argument-identical to the direct
    /// optimizer entry points, in all four engine corners.
    #[test]
    fn apc_via_trait_is_bit_identical_to_direct_calls(params in arb_problem()) {
        let fixture = ProblemFixture::build(&params);
        let problem = fixture.problem();
        for (corner, config) in apc_corners() {
            let policy = PolicyHandle::apc_with(config.clone(), true);
            let direct = place(&problem, &config);
            let via_trait = policy.place(&problem, &NoopSink);
            assert_outcomes_identical(&direct, &via_trait, &format!("{corner} place"));

            let direct_fill = fill_only(&problem, &config);
            let trait_fill = policy.fill_only(&problem, &NoopSink);
            assert_outcomes_identical(&direct_fill, &trait_fill, &format!("{corner} fill_only"));
        }
    }

    /// Claim 2: every policy in the registry — APC and all baselines —
    /// produces physically meaningful outcomes on random problems.
    #[test]
    fn every_registered_policy_upholds_placement_invariants(params in arb_problem()) {
        let fixture = ProblemFixture::build(&params);
        let problem = fixture.problem();
        for policy in policy_handles() {
            let name = policy.name().to_string();
            let outcome = policy.place(&problem, &NoopSink);
            if let Err(violations) =
                PlacementInvariants::check(&problem, &outcome.placement, Some(&outcome.score.load))
            {
                panic!("{name} place violates invariants: {violations:#?}");
            }
            let fill = policy.fill_only(&problem, &NoopSink);
            if let Err(violations) =
                PlacementInvariants::check(&problem, &fill.placement, Some(&fill.score.load))
            {
                panic!("{name} fill_only violates invariants: {violations:#?}");
            }
        }
    }
}

/// `with_apc_config` rebuilds must behave like a fresh handle with that
/// config — the path scenario builds take when threading deadlines and
/// sharding into a registry-resolved `"apc"`.
#[test]
fn with_apc_config_rebuild_matches_fresh_handle() {
    let params = dynaplace_testutil::fixtures::ProblemParams {
        nodes: vec![(2_000.0, 6_000.0), (1_500.0, 4_000.0), (3_000.0, 8_000.0)],
        jobs: (0..5)
            .map(|i| dynaplace_testutil::fixtures::JobParams {
                work: 50_000.0 + 10_000.0 * i as f64,
                max_speed: 700.0 + 150.0 * i as f64,
                memory: 800.0,
                goal_factor: 1.4 + 0.4 * i as f64,
                progress: 0.15 * i as f64,
                placed_on: if i % 2 == 0 { Some(i as u32) } else { None },
            })
            .collect(),
        txn: Some(dynaplace_testutil::fixtures::TxnParams {
            rate: 40.0,
            demand: 8.0,
            memory: 600.0,
        }),
    };
    let fixture = ProblemFixture::build(&params);
    let problem = fixture.problem();
    let config = ApcConfig::builder()
        .sharding(Some(ShardingPolicy::new(2)))
        .build()
        .expect("valid config");
    let resolved = dynaplace_apc::resolve_policy("apc").expect("apc is registered");
    let rebuilt = resolved
        .with_apc_config(config.clone())
        .expect("apc accepts config replacement");
    let fresh = PolicyHandle::apc_with(config, true);
    assert_outcomes_identical(
        &fresh.place(&problem, &NoopSink),
        &rebuilt.place(&problem, &NoopSink),
        "rebuilt handle",
    );
}
