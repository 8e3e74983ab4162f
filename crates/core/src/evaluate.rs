//! Scoring a candidate placement: load distribution plus the combined
//! satisfaction vector over transactional and batch applications.

use dynaplace_batch::hypothetical::{
    default_grid, evaluate_batch_placement, evaluate_batch_placement_with_columns, JobColumn,
    JobSnapshot,
};
use dynaplace_model::load::LoadDistribution;
use dynaplace_model::placement::Placement;
use dynaplace_model::units::CpuSpeed;
use dynaplace_rpf::model::PerformanceModel;
use dynaplace_rpf::satisfaction::SatisfactionVector;
use dynaplace_rpf::value::Rp;

use crate::cache::ScoreCache;
use crate::load::{distribute_with, Prelude};
use crate::problem::{PlacementProblem, WorkloadModel};

/// A fully scored candidate placement.
#[derive(Debug, Clone)]
pub struct PlacementScore {
    /// The max-min fair load distribution for the candidate.
    pub load: LoadDistribution,
    /// Every live application's (predicted) relative performance, sorted
    /// worst-first.
    pub satisfaction: SatisfactionVector,
}

impl PlacementScore {
    /// The lowest relative performance in the system (the primary
    /// max-min objective).
    pub fn worst(&self) -> Option<Rp> {
        self.satisfaction.worst().map(|(_, u)| u)
    }
}

/// Scores `placement` for `problem`: distributes load max-min fairly,
/// reads transactional performance from the queueing models, and
/// evaluates the batch workload one cycle ahead through the hypothetical
/// relative performance function (§4.2).
///
/// Returns `None` when the placement is infeasible (minimum speeds cannot
/// be routed).
pub fn score_placement(
    problem: &PlacementProblem<'_>,
    placement: &Placement,
) -> Option<PlacementScore> {
    score_placement_with(problem, placement, &Prelude::new(problem))
}

/// [`score_placement`] against an already-built [`Prelude`] of `problem`
/// (the prelude is a pure function of the problem, so this is the same
/// oracle, minus rebuilding it per candidate).
pub(crate) fn score_placement_with(
    problem: &PlacementProblem<'_>,
    placement: &Placement,
    prelude: &Prelude,
) -> Option<PlacementScore> {
    score_placement_impl(problem, placement, prelude, None)
}

/// [`score_placement`] through a per-problem [`ScoreCache`]: identical
/// results (the memos store the exact values the from-scratch path
/// computes — see [`crate::cache`]), repeated candidates come back from
/// the whole-placement memo, and even novel candidates reuse the memoized
/// raw-demand and batch-evaluation layers. `score_placement` itself stays
/// the uncached oracle the differential suite compares against.
///
/// The cache must only ever be used with the problem it was first
/// populated against.
pub fn score_placement_cached(
    problem: &PlacementProblem<'_>,
    placement: &Placement,
    cache: &ScoreCache,
) -> Option<std::sync::Arc<PlacementScore>> {
    let key = ScoreCache::placement_key(placement);
    if let Some(score) = cache.lookup_score(&key) {
        return score;
    }
    let score = score_placement_impl(problem, placement, cache.prelude(problem), Some(cache))
        .map(std::sync::Arc::new);
    cache.insert_score(key, score.clone());
    score
}

fn score_placement_impl(
    problem: &PlacementProblem<'_>,
    placement: &Placement,
    prelude: &Prelude,
    cache: Option<&ScoreCache>,
) -> Option<PlacementScore> {
    let load = distribute_with(problem, placement, prelude, cache)?;

    // All per-app totals in one walk over the (app-sorted) distribution:
    // cells of one app are summed in the same ascending-node order
    // `LoadDistribution::app_total` uses, so each total is the identical
    // f64 — this just replaces one range query per application.
    let mut totals: Vec<(dynaplace_model::ids::AppId, CpuSpeed)> = Vec::new();
    for (app, _, speed) in load.iter() {
        match totals.last_mut() {
            Some((last, sum)) if *last == app => *sum += speed,
            _ => totals.push((app, speed)),
        }
    }
    let total_of = |app| {
        totals
            .binary_search_by_key(&app, |&(a, _)| a)
            .map(|i| totals[i].1)
            .unwrap_or(CpuSpeed::ZERO)
    };

    let mut entries: Vec<_> = Vec::with_capacity(problem.live_count());
    // Borrow the snapshots here; owned pairs are materialized only on the
    // memo-miss (or uncached) paths that actually evaluate them.
    let mut batch: Vec<(&JobSnapshot, CpuSpeed)> = Vec::new();
    for (&app, model) in &problem.workloads {
        match model {
            WorkloadModel::Transactional(m) => {
                entries.push((app, m.performance(total_of(app))));
            }
            WorkloadModel::Batch(snap) => {
                batch.push((snap, total_of(app)));
            }
        }
    }
    if !batch.is_empty() {
        let performances = match cache {
            Some(c) => {
                let key: Vec<(u32, u64)> = batch
                    .iter()
                    .map(|(snap, alloc)| (snap.app().index() as u32, alloc.as_mhz().to_bits()))
                    .collect();
                c.batch_eval(key, || {
                    // Identical allocation vectors short-circuit above;
                    // novel vectors still reuse every per-job column
                    // whose own allocation is unchanged.
                    let grid = default_grid();
                    let horizon = problem.now + problem.cycle;
                    let owned: Vec<(JobSnapshot, CpuSpeed)> =
                        batch.iter().map(|&(s, w)| (s.clone(), w)).collect();
                    evaluate_batch_placement_with_columns(
                        problem.now,
                        problem.cycle,
                        &owned,
                        &grid,
                        |survivor, omega| {
                            c.job_column(survivor.app(), omega.as_mhz().to_bits(), || {
                                std::sync::Arc::new(JobColumn::build(horizon, survivor, &grid))
                            })
                        },
                    )
                    .performances
                })
            }
            None => {
                let owned: Vec<(JobSnapshot, CpuSpeed)> =
                    batch.iter().map(|&(s, w)| (s.clone(), w)).collect();
                evaluate_batch_placement(problem.now, problem.cycle, &owned).performances
            }
        };
        entries.extend(performances);
    }
    Some(PlacementScore {
        load,
        satisfaction: SatisfactionVector::from_entries(entries),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use dynaplace_batch::job::JobProfile;
    use dynaplace_model::app::ApplicationSpec;
    use dynaplace_model::cluster::{AppSet, Cluster};
    use dynaplace_model::ids::AppId;
    use dynaplace_model::node::NodeSpec;
    use dynaplace_model::units::{Memory, SimDuration, SimTime, Work};
    use dynaplace_rpf::goal::CompletionGoal;

    fn mhz(x: f64) -> CpuSpeed {
        CpuSpeed::from_mhz(x)
    }

    #[test]
    fn scores_cover_placed_and_queued_jobs() {
        let mut cluster = Cluster::new();
        let n0 = cluster.add_node(
            NodeSpec::try_new(mhz(1_000.0), Memory::from_mb(2_000.0))
                .expect("valid node capacities"),
        );
        let mut apps = AppSet::new();
        let running = apps.add(ApplicationSpec::batch(Memory::from_mb(750.0), mhz(1_000.0)));
        let queued = apps.add(ApplicationSpec::batch(Memory::from_mb(750.0), mhz(500.0)));
        let mut placement = Placement::new();
        placement.place(running, n0);

        let snap = |app: AppId, work: f64, speed: f64, deadline: f64, delay: f64| {
            WorkloadModel::Batch(JobSnapshot::new(
                app,
                CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(deadline)),
                Arc::new(JobProfile::single_stage(
                    Work::from_mcycles(work),
                    mhz(speed),
                    Memory::from_mb(750.0),
                )),
                Work::ZERO,
                SimDuration::from_secs(delay),
            ))
        };
        let mut workloads = BTreeMap::new();
        workloads.insert(running, snap(running, 4_000.0, 1_000.0, 20.0, 0.0));
        workloads.insert(queued, snap(queued, 2_000.0, 500.0, 17.0, 1.0));
        let problem = PlacementProblem {
            cluster: &cluster,
            apps: &apps,
            workloads,
            current: &placement,
            now: SimTime::ZERO,
            cycle: SimDuration::from_secs(1.0),
            forbidden: Default::default(),
        };
        let score = score_placement(&problem, &placement).unwrap();
        assert_eq!(score.satisfaction.len(), 2);
        // The running job holds the whole node.
        assert!(score.load.app_total(running).approx_eq(mhz(1_000.0), 1.0));
        assert_eq!(score.load.app_total(queued), CpuSpeed::ZERO);
        assert!(score.worst().is_some());
    }
}
