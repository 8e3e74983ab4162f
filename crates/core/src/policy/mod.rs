//! Pluggable placement policies: one trait the engine drives, many
//! interchangeable implementations behind a string-keyed registry.
//!
//! A [`PlacementPolicy`] consumes a [`PlacementProblem`] and returns a
//! [`PlacementOutcome`] — the same contract the APC optimizer has always
//! satisfied, now abstracted so the simulator's control cycle calls one
//! trait object instead of matching on a closed enum. The module splits
//! into:
//!
//! - [`ApcPolicy`] (here): the paper's controller routed through the
//!   trait, argument-identical to calling
//!   [`crate::optimizer::place_traced`] directly — and
//!   therefore bit-identical, which the differential suite proves;
//! - [`baselines`]: reservation-based FCFS, EDF, and static-partition
//!   adapters over `dynaplace-batch`'s schedulers;
//! - [`predprio`]: the composable [`Predicate`](predprio::Predicate)
//!   (node veto) and [`Priority`](predprio::Priority) (node scoring)
//!   stages new policies are assembled from;
//! - [`zoo`]: greedy vector-bin-packing, yield maximization, and
//!   DFRS-style dynamic fractional scheduling built on those stages;
//! - [`registry`]: the global name → policy table scenario JSON and the
//!   `simulate` CLI resolve through.
//!
//! # Determinism contract
//!
//! Every policy must be a pure function of the problem: same
//! [`PlacementProblem`] in, bit-identical [`PlacementOutcome`] out, with
//! no wall-clock, RNG, or iteration-order dependence (iterate the
//! problem's `BTreeMap`s, break ties by id, compare floats with
//! `total_cmp`). The scenario goldens and the fuzz oracles both lean on
//! this.

pub mod baselines;
pub mod predprio;
pub mod registry;
pub mod zoo;

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use dynaplace_trace::TraceSink;

use crate::optimizer::{fill_only_traced, place_traced, ApcConfig, PlacementOutcome};
use crate::problem::PlacementProblem;

/// Which side of the paper's evaluation a policy belongs to. The engine
/// branches its control cycle on this: APC-class policies get the full
/// observation / degraded-mode / fallback machinery, baseline-class
/// policies get the simpler reservation cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyClass {
    /// The paper's contribution: utility-driven, supports sharding,
    /// observation layers, parallel jobs, and between-cycle advice.
    Apc,
    /// A comparison baseline: one placement pass per control cycle.
    Baseline,
}

impl PolicyClass {
    /// Stable lowercase tag (`"apc"` / `"baseline"`) for tables and
    /// trace events.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyClass::Apc => "apc",
            PolicyClass::Baseline => "baseline",
        }
    }
}

/// A placement policy: the one interface the simulation engine drives.
///
/// Implementations must uphold the module-level determinism contract
/// and produce outcomes that satisfy the shared placement invariants
/// (capacity in every rigid dimension, instance bounds, pinning,
/// per-route speed ceilings, minimum-speed floors).
pub trait PlacementPolicy: Send + Sync + fmt::Debug {
    /// Registry key: lowercase, stable, unique (e.g. `"apc"`,
    /// `"vector-bin-packing"`).
    fn name(&self) -> &str;

    /// One-line human description for `simulate --list-policies`.
    fn description(&self) -> &str;

    /// Baseline or APC class (drives the engine's cycle shape).
    fn class(&self) -> PolicyClass;

    /// Computes a full placement for the problem. May move, suspend, or
    /// evict existing instances.
    fn place(&self, problem: &PlacementProblem<'_>, sink: &dyn TraceSink) -> PlacementOutcome;

    /// Non-disruptive variant: improve the current placement without
    /// moving what already runs. Policies without a cheaper
    /// incremental pass fall back to [`place`](Self::place).
    fn fill_only(&self, problem: &PlacementProblem<'_>, sink: &dyn TraceSink) -> PlacementOutcome {
        self.place(problem, sink)
    }

    /// The APC configuration this policy runs, when it is APC-backed.
    /// `None` for baselines; the engine uses this to thread scenario
    /// deadlines and sharding into the optimizer.
    fn apc_config(&self) -> Option<&ApcConfig> {
        None
    }

    /// Whether the engine should run a non-disruptive
    /// [`fill_only`](Self::fill_only) pass on job arrival/completion
    /// events between control cycles.
    fn advises_between_cycles(&self) -> bool {
        false
    }

    /// Rebuilds this policy around a replacement APC configuration.
    /// `None` for policies that have no APC configuration to replace.
    fn with_apc_config(&self, config: ApcConfig) -> Option<PolicyHandle> {
        let _ = config;
        None
    }
}

/// A cheaply clonable, shared handle to a [`PlacementPolicy`] trait
/// object. This is what the engine stores, the registry hands out, and
/// scenario specs resolve to.
pub struct PolicyHandle(Arc<dyn PlacementPolicy>);

impl PolicyHandle {
    /// Wraps a concrete policy.
    pub fn new(policy: impl PlacementPolicy + 'static) -> Self {
        PolicyHandle(Arc::new(policy))
    }

    /// The default APC policy: [`ApcConfig::default`], with
    /// between-cycle advice on (the configuration scenario JSON builds).
    pub fn apc() -> Self {
        PolicyHandle::new(ApcPolicy::new(ApcConfig::default(), true))
    }

    /// An APC policy with an explicit configuration and between-cycle
    /// advice setting.
    pub fn apc_with(config: ApcConfig, advice_between_cycles: bool) -> Self {
        PolicyHandle::new(ApcPolicy::new(config, advice_between_cycles))
    }
}

impl Clone for PolicyHandle {
    fn clone(&self) -> Self {
        PolicyHandle(Arc::clone(&self.0))
    }
}

impl fmt::Debug for PolicyHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl Deref for PolicyHandle {
    type Target = dyn PlacementPolicy;
    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl<P: PlacementPolicy + 'static> From<P> for PolicyHandle {
    fn from(policy: P) -> Self {
        PolicyHandle::new(policy)
    }
}

/// The paper's Application Placement Controller behind the policy
/// trait.
///
/// [`place`](PlacementPolicy::place) and
/// [`fill_only`](PlacementPolicy::fill_only) forward to
/// [`place_traced`] / [`fill_only_traced`] with exactly the arguments
/// the engine used to pass directly, so routing APC through the trait
/// is bit-identical to the pre-trait path (proven by
/// `crates/core/tests/policy_differential.rs` and the scenario
/// goldens).
#[derive(Debug, Clone)]
pub struct ApcPolicy {
    config: ApcConfig,
    advice_between_cycles: bool,
}

impl ApcPolicy {
    /// Wraps an APC configuration as a policy.
    pub fn new(config: ApcConfig, advice_between_cycles: bool) -> Self {
        ApcPolicy {
            config,
            advice_between_cycles,
        }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &ApcConfig {
        &self.config
    }
}

impl PlacementPolicy for ApcPolicy {
    fn name(&self) -> &str {
        "apc"
    }

    fn description(&self) -> &str {
        "max-min fair utility optimizer (the paper's controller)"
    }

    fn class(&self) -> PolicyClass {
        PolicyClass::Apc
    }

    fn place(&self, problem: &PlacementProblem<'_>, sink: &dyn TraceSink) -> PlacementOutcome {
        place_traced(problem, &self.config, sink)
    }

    fn fill_only(&self, problem: &PlacementProblem<'_>, sink: &dyn TraceSink) -> PlacementOutcome {
        fill_only_traced(problem, &self.config, sink)
    }

    fn apc_config(&self) -> Option<&ApcConfig> {
        Some(&self.config)
    }

    fn advises_between_cycles(&self) -> bool {
        self.advice_between_cycles
    }

    fn with_apc_config(&self, config: ApcConfig) -> Option<PolicyHandle> {
        Some(PolicyHandle::new(ApcPolicy {
            config,
            advice_between_cycles: self.advice_between_cycles,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apc_policy_reports_its_surface() {
        let policy = ApcPolicy::new(ApcConfig::default(), true);
        assert_eq!(policy.name(), "apc");
        assert_eq!(policy.class(), PolicyClass::Apc);
        assert!(policy.advises_between_cycles());
        assert!(policy.apc_config().is_some());
    }

    #[test]
    fn with_apc_config_preserves_advice_flag() {
        let quiet = ApcPolicy::new(ApcConfig::default(), false);
        let rebuilt = quiet
            .with_apc_config(ApcConfig::default())
            .expect("apc accepts config replacement");
        assert!(!rebuilt.advises_between_cycles());
        assert_eq!(rebuilt.name(), "apc");
    }

    #[test]
    fn handle_derefs_to_the_policy() {
        let handle = PolicyHandle::apc();
        assert_eq!(handle.name(), "apc");
        assert_eq!(handle.class().name(), "apc");
        let clone = handle.clone();
        assert_eq!(clone.description(), handle.description());
    }
}
