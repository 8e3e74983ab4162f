//! Metric collection: everything the paper's figures plot.

use serde::Serialize;

use dynaplace_json::{obj, Json, ToJson};
use dynaplace_model::ids::AppId;
use dynaplace_model::placement::Placement;
use dynaplace_model::units::{CpuSpeed, SimDuration, SimTime};
use dynaplace_rpf::value::Rp;

/// One per-cycle sample of system state (the time axes of Figs. 2, 6, 7).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CycleSample {
    /// Sample instant.
    pub time: SimTime,
    /// Mean hypothetical relative performance over live jobs, if any.
    pub batch_hypothetical_rp: Option<Rp>,
    /// Actual relative performance of the transactional workload (from
    /// the router's observed response time), if present.
    pub txn_rp: Option<Rp>,
    /// Total CPU allocated to batch jobs.
    pub batch_allocation: CpuSpeed,
    /// Total CPU allocated to transactional applications.
    pub txn_allocation: CpuSpeed,
    /// Jobs currently running.
    pub running_jobs: usize,
    /// Jobs waiting (queued or suspended).
    pub waiting_jobs: usize,
    /// Wall-clock seconds the placement computation took this cycle.
    pub placement_compute_secs: f64,
    /// Placement actions the reconciliation loop still owes: the size of
    /// the diff between the actual placement and the (live, surviving)
    /// desired placement at sample time. Always zero with infallible
    /// actuation.
    pub pending_actions: usize,
    /// Cluster-wide utilization of each *extra* rigid dimension (beyond
    /// memory) at sample time, in registry order. Empty for memory-only
    /// deployments, leaving legacy artifacts unchanged.
    pub rigid_utilization: Vec<RigidDimSample>,
}

/// Utilization of one extra rigid resource dimension in one
/// [`CycleSample`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RigidDimSample {
    /// Registry name of the dimension (e.g. `disk_mb`).
    pub dim: String,
    /// Total demand pinned across the cluster, in the dimension's native
    /// unit.
    pub used: f64,
    /// Total capacity across the scheduler-visible cluster.
    pub capacity: f64,
}

/// One completed job (the scatter points of Fig. 5).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompletionRecord {
    /// The job.
    pub app: AppId,
    /// Submission time.
    pub arrival: SimTime,
    /// Completion time.
    pub completion: SimTime,
    /// Completion deadline.
    pub deadline: SimTime,
    /// Signed distance to the deadline (positive = early).
    pub distance: SimDuration,
    /// Relative performance at completion (eq. 2).
    pub rp: Rp,
    /// The job's relative goal factor (deadline slack / best execution).
    pub goal_factor: f64,
    /// Whether the completion met the deadline.
    pub met_deadline: bool,
}

/// Counters of placement changes (Fig. 4 counts suspends + resumes +
/// migrations; starts of never-run jobs are not changes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ChangeCounters {
    /// First-time starts (boots).
    pub starts: u64,
    /// Running or paused instances suspended off their node.
    pub suspends: u64,
    /// Suspended instances resumed onto a node.
    pub resumes: u64,
    /// Instances live-migrated between nodes.
    pub migrations: u64,
}

impl ChangeCounters {
    /// The paper's "number of placement changes": suspends + resumes +
    /// migrations.
    pub fn disruptive_total(&self) -> u64 {
        self.suspends + self.resumes + self.migrations
    }
}

/// Counters of the fault-tolerant actuation layer and its reconciliation
/// loop. All-zero whenever the actuation configuration is the default
/// (infallible) one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ActuationCounters {
    /// Operations that failed outright (placement unchanged).
    pub failed_ops: u64,
    /// Operations abandoned at their timeout (placement unchanged).
    pub timed_out_ops: u64,
    /// Successful operations that were retries of earlier failures.
    pub retries: u64,
    /// Actions skipped because their (app, node) pair was inside a
    /// backoff window or quarantine when the action was issued.
    pub deferrals: u64,
    /// Times an (app, node) pair entered quarantine.
    pub quarantines: u64,
    /// Control cycles where the controller fell back to a non-disruptive
    /// `fill_only` pass because full placements kept failing to actuate.
    pub fill_only_fallbacks: u64,
    /// Optimizer runs cut short by the wall-clock deadline.
    pub deadline_truncations: u64,
    /// Scheduler-visible invariants that legitimately did not hold under
    /// fallible actuation and were skipped instead of panicking.
    pub invariant_skips: u64,
}

impl ActuationCounters {
    /// Total operations that did not take effect when issued.
    pub fn unapplied_total(&self) -> u64 {
        self.failed_ops + self.timed_out_ops + self.deferrals
    }
}

/// Counters of the imperfect-telemetry observation layer: heartbeat and
/// report transport faults, node-health transitions, and staleness-
/// budget degradations. All-zero whenever the observation configuration
/// is the default (perfect-telemetry) one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ObservationCounters {
    /// Node heartbeats lost in transport.
    pub missed_heartbeats: u64,
    /// Application state reports lost in transport (the controller
    /// reused its cached previous report).
    pub lost_reports: u64,
    /// Healthy → Suspect transitions (node frozen for new placements).
    pub suspects: u64,
    /// Suspect → Dead transitions (residents evicted, capacity zeroed
    /// in the controller's believed cluster).
    pub deaths: u64,
    /// Suspect/Dead → Healthy transitions after heartbeats resumed.
    pub reinstatements: u64,
    /// Control cycles where placement changes were held because the
    /// observed snapshot was older than the staleness budget.
    pub stale_holds: u64,
    /// Control cycles dropped to a non-disruptive `fill_only` pass by
    /// the staleness budget (distinct from the actuation layer's
    /// `fill_only_fallbacks`).
    pub fill_only_degrades: u64,
}

impl ObservationCounters {
    /// Total transport losses (heartbeats + reports).
    pub fn lost_total(&self) -> u64 {
        self.missed_heartbeats + self.lost_reports
    }
}

/// The placement in effect at the end of one control cycle. Only
/// recorded when [`crate::engine::SimConfig::record_placements`] is set
/// (golden-file regression tests diff consecutive records).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlacementRecord {
    /// Sample instant (matches the [`CycleSample`] at the same time).
    pub time: SimTime,
    /// The full placement.
    pub placement: Placement,
}

/// The starvation breaker fired: live jobs existed but the system made
/// provably zero progress for [`crate::engine::SimConfig::stall_limit`]
/// consecutive control cycles with nothing else pending, so the run was
/// terminated instead of cycling forever. The canonical trigger is a
/// job whose deadline is so hopelessly blown that its relative
/// performance sits at the floor whatever it receives, on a cluster
/// whose capacity a transactional workload legitimately absorbs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StarvationReport {
    /// When the stall was declared (end of the last identical cycle).
    pub time: SimTime,
    /// The live, unfinished jobs at that instant, in id order.
    pub apps: Vec<AppId>,
}

/// Streaming (constant-memory) completion aggregates: the fold of every
/// [`CompletionRecord`] a run would otherwise have kept. Carried only by
/// runs with [`MetricsRetention::Aggregate`], where per-job records are
/// folded in at completion and dropped so memory stays O(live jobs)
/// instead of O(all jobs).
///
/// [`MetricsRetention::Aggregate`]: crate::engine::MetricsRetention
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct CompletionTotals {
    /// Jobs completed.
    pub count: u64,
    /// Completions that met their deadline.
    pub met_deadlines: u64,
    /// Sum of relative performance at completion (for the mean).
    pub sum_rp: f64,
}

impl CompletionTotals {
    /// Folds one completion into the totals.
    pub fn fold(&mut self, record: &CompletionRecord) {
        self.count += 1;
        if record.met_deadline {
            self.met_deadlines += 1;
        }
        self.sum_rp += record.rp.value();
    }
}

/// Everything recorded over one simulation run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RunMetrics {
    /// Per-cycle samples in time order.
    pub samples: Vec<CycleSample>,
    /// Completion records in completion order. Empty under aggregate
    /// retention — see [`RunMetrics::totals`].
    pub completions: Vec<CompletionRecord>,
    /// Folded completion aggregates; `Some` only under aggregate
    /// retention, where `completions` stays empty.
    pub totals: Option<CompletionTotals>,
    /// Placement change counters.
    pub changes: ChangeCounters,
    /// Actuation-layer counters (failures, retries, quarantines).
    pub actuation: ActuationCounters,
    /// Observation-layer counters (transport faults, health
    /// transitions, staleness degradations).
    pub observation: ObservationCounters,
    /// Per-cycle placements; empty unless recording was enabled.
    pub placements: Vec<PlacementRecord>,
    /// Set when the run ended because the starvation breaker fired
    /// rather than because every job completed.
    pub starvation: Option<StarvationReport>,
}

impl RunMetrics {
    /// Number of jobs that completed, whichever retention mode recorded
    /// them (per-job records or folded totals).
    pub fn completed_jobs(&self) -> usize {
        match &self.totals {
            Some(t) => t.count as usize,
            None => self.completions.len(),
        }
    }

    /// Fraction of completed jobs that met their deadline, `None` when
    /// nothing completed.
    pub fn deadline_met_ratio(&self) -> Option<f64> {
        if let Some(t) = &self.totals {
            if t.count == 0 {
                return None;
            }
            return Some(t.met_deadlines as f64 / t.count as f64);
        }
        if self.completions.is_empty() {
            return None;
        }
        let met = self.completions.iter().filter(|c| c.met_deadline).count();
        Some(met as f64 / self.completions.len() as f64)
    }

    /// Completion records for jobs with (approximately) the given goal
    /// factor. The comparison is relative, so factors large enough that
    /// one ulp exceeds an absolute tolerance still match themselves
    /// after a JSON round trip.
    pub fn completions_with_factor(&self, factor: f64) -> impl Iterator<Item = &CompletionRecord> {
        self.completions.iter().filter(move |c| {
            let scale = c.goal_factor.abs().max(factor.abs()).max(1.0);
            (c.goal_factor - factor).abs() <= 1e-9 * scale
        })
    }

    /// Mean relative performance at completion.
    pub fn mean_completion_rp(&self) -> Option<Rp> {
        if let Some(t) = &self.totals {
            if t.count == 0 {
                return None;
            }
            return Some(Rp::new(t.sum_rp / t.count as f64));
        }
        if self.completions.is_empty() {
            return None;
        }
        let sum: f64 = self.completions.iter().map(|c| c.rp.value()).sum();
        Some(Rp::new(sum / self.completions.len() as f64))
    }

    /// Mean wall-clock placement compute time per cycle, in seconds,
    /// over *all* sampled cycles. Cycles fast enough to measure as
    /// exactly zero count toward the mean — dropping them (as an
    /// earlier version did) biased the estimate upward on clusters
    /// small enough that many cycles finish below timer resolution.
    /// `None` only when no cycle was sampled at all.
    pub fn mean_placement_compute_secs(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: f64 = self.samples.iter().map(|s| s.placement_compute_secs).sum();
        Some(sum / self.samples.len() as f64)
    }

    /// Number of sampled cycles whose placement computation measured as
    /// exactly zero seconds, i.e. finished below wall-clock timer
    /// resolution.
    pub fn sub_resolution_compute_cycles(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.placement_compute_secs == 0.0)
            .count()
    }
}

// JSON encoding, written as `simulate`'s metrics output and hashed by the
// benchmark's run fingerprint: unit newtypes and ids render as plain numbers, absent
// optionals as `null`. Nothing decodes metrics JSON, so there is no
// `FromJson`; `encoding_is_pinned` guards the bytes.

impl ToJson for CycleSample {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("time", self.time.as_secs().to_json()),
            (
                "batch_hypothetical_rp",
                self.batch_hypothetical_rp.map(|u| u.value()).to_json(),
            ),
            ("txn_rp", self.txn_rp.map(|u| u.value()).to_json()),
            ("batch_allocation", self.batch_allocation.as_mhz().to_json()),
            ("txn_allocation", self.txn_allocation.as_mhz().to_json()),
            ("running_jobs", self.running_jobs.to_json()),
            ("waiting_jobs", self.waiting_jobs.to_json()),
            (
                "placement_compute_secs",
                self.placement_compute_secs.to_json(),
            ),
            ("pending_actions", self.pending_actions.to_json()),
        ];
        // Only multi-dimensional deployments carry the field, so
        // memory-only artifacts stay byte-identical to older writers.
        if !self.rigid_utilization.is_empty() {
            fields.push(("rigid_utilization", self.rigid_utilization.to_json()));
        }
        obj(fields)
    }
}

impl ToJson for RigidDimSample {
    fn to_json(&self) -> Json {
        obj([
            ("dim", self.dim.to_json()),
            ("used", self.used.to_json()),
            ("capacity", self.capacity.to_json()),
        ])
    }
}

impl ToJson for CompletionRecord {
    fn to_json(&self) -> Json {
        obj([
            ("app", (self.app.index() as u64).to_json()),
            ("arrival", self.arrival.as_secs().to_json()),
            ("completion", self.completion.as_secs().to_json()),
            ("deadline", self.deadline.as_secs().to_json()),
            ("distance", self.distance.as_secs().to_json()),
            ("rp", self.rp.value().to_json()),
            ("goal_factor", self.goal_factor.to_json()),
            ("met_deadline", self.met_deadline.to_json()),
        ])
    }
}

impl ToJson for ChangeCounters {
    fn to_json(&self) -> Json {
        obj([
            ("starts", self.starts.to_json()),
            ("suspends", self.suspends.to_json()),
            ("resumes", self.resumes.to_json()),
            ("migrations", self.migrations.to_json()),
        ])
    }
}

impl ToJson for ActuationCounters {
    fn to_json(&self) -> Json {
        obj([
            ("failed_ops", self.failed_ops.to_json()),
            ("timed_out_ops", self.timed_out_ops.to_json()),
            ("retries", self.retries.to_json()),
            ("deferrals", self.deferrals.to_json()),
            ("quarantines", self.quarantines.to_json()),
            ("fill_only_fallbacks", self.fill_only_fallbacks.to_json()),
            ("deadline_truncations", self.deadline_truncations.to_json()),
            ("invariant_skips", self.invariant_skips.to_json()),
        ])
    }
}

impl ToJson for ObservationCounters {
    fn to_json(&self) -> Json {
        obj([
            ("missed_heartbeats", self.missed_heartbeats.to_json()),
            ("lost_reports", self.lost_reports.to_json()),
            ("suspects", self.suspects.to_json()),
            ("deaths", self.deaths.to_json()),
            ("reinstatements", self.reinstatements.to_json()),
            ("stale_holds", self.stale_holds.to_json()),
            ("fill_only_degrades", self.fill_only_degrades.to_json()),
        ])
    }
}

impl ToJson for PlacementRecord {
    fn to_json(&self) -> Json {
        let instances: Vec<Json> = self
            .placement
            .iter()
            .map(|(app, node, count)| {
                Json::Arr(vec![
                    (app.index() as u64).to_json(),
                    (node.index() as u64).to_json(),
                    u64::from(count).to_json(),
                ])
            })
            .collect();
        obj([
            ("time", self.time.as_secs().to_json()),
            ("instances", Json::Arr(instances)),
        ])
    }
}

impl ToJson for StarvationReport {
    fn to_json(&self) -> Json {
        let apps: Vec<Json> = self
            .apps
            .iter()
            .map(|a| (a.index() as u64).to_json())
            .collect();
        obj([
            ("time", self.time.as_secs().to_json()),
            ("apps", Json::Arr(apps)),
        ])
    }
}

impl ToJson for CompletionTotals {
    fn to_json(&self) -> Json {
        obj([
            ("count", self.count.to_json()),
            ("met_deadlines", self.met_deadlines.to_json()),
            ("sum_rp", self.sum_rp.to_json()),
        ])
    }
}

impl ToJson for RunMetrics {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("samples", self.samples.to_json()),
            ("completions", self.completions.to_json()),
        ];
        // Only aggregate-retention runs carry the field, so full-record
        // artifacts stay byte-identical to older writers.
        if let Some(totals) = &self.totals {
            fields.push(("totals", totals.to_json()));
        }
        fields.extend([
            ("changes", self.changes.to_json()),
            ("actuation", self.actuation.to_json()),
        ]);
        // Only runs with an active observation layer carry the field, so
        // perfect-telemetry artifacts stay byte-identical to older
        // writers.
        if self.observation != ObservationCounters::default() {
            fields.push(("observation", self.observation.to_json()));
        }
        fields.push(("placements", self.placements.to_json()));
        fields.push(("starvation", self.starvation.to_json()));
        obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaplace_model::ids::NodeId;

    fn completion(met: bool, factor: f64, rp: f64) -> CompletionRecord {
        CompletionRecord {
            app: AppId::new(0),
            arrival: SimTime::ZERO,
            completion: SimTime::from_secs(10.0),
            deadline: SimTime::from_secs(20.0),
            distance: SimDuration::from_secs(if met { 10.0 } else { -5.0 }),
            rp: Rp::new(rp),
            goal_factor: factor,
            met_deadline: met,
        }
    }

    #[test]
    fn deadline_ratio() {
        let mut m = RunMetrics::default();
        assert_eq!(m.deadline_met_ratio(), None);
        m.completions.push(completion(true, 1.3, 0.5));
        m.completions.push(completion(false, 2.5, -0.1));
        m.completions.push(completion(true, 1.3, 0.4));
        assert!((m.deadline_met_ratio().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn filter_by_factor() {
        let mut m = RunMetrics::default();
        m.completions.push(completion(true, 1.3, 0.5));
        m.completions.push(completion(true, 4.0, 0.5));
        assert_eq!(m.completions_with_factor(1.3).count(), 1);
        assert_eq!(m.completions_with_factor(4.0).count(), 1);
        assert_eq!(m.completions_with_factor(2.5).count(), 0);
    }

    #[test]
    fn filter_by_factor_is_relative_not_absolute() {
        // One ulp at 1e13 is ~2e-3 — far beyond the old absolute 1e-6
        // tolerance, so a record could fail to match its own factor.
        let big = 12_345_678_901_234.5_f64;
        let nudged = f64::from_bits(big.to_bits() + 1);
        let mut m = RunMetrics::default();
        m.completions.push(completion(true, nudged, 0.5));
        assert_eq!(m.completions_with_factor(big).count(), 1);
        // Genuinely different factors still do not match.
        assert_eq!(m.completions_with_factor(big * 1.5).count(), 0);
    }

    fn sample_with_compute(secs: f64) -> CycleSample {
        CycleSample {
            time: SimTime::ZERO,
            batch_hypothetical_rp: None,
            txn_rp: None,
            batch_allocation: CpuSpeed::ZERO,
            txn_allocation: CpuSpeed::ZERO,
            running_jobs: 0,
            waiting_jobs: 0,
            placement_compute_secs: secs,
            pending_actions: 0,
            rigid_utilization: Vec::new(),
        }
    }

    #[test]
    fn mean_compute_time_counts_sub_resolution_cycles() {
        let mut m = RunMetrics::default();
        assert_eq!(m.mean_placement_compute_secs(), None);
        // One cycle below timer resolution, one at 0.2 s. The old
        // implementation dropped the zero and reported 0.2.
        m.samples.push(sample_with_compute(0.0));
        m.samples.push(sample_with_compute(0.2));
        let mean = m.mean_placement_compute_secs().unwrap();
        assert!((mean - 0.1).abs() < 1e-12, "got {mean}");
        assert_eq!(m.sub_resolution_compute_cycles(), 1);
    }

    #[test]
    fn change_totals() {
        let c = ChangeCounters {
            starts: 10,
            suspends: 3,
            resumes: 2,
            migrations: 4,
        };
        assert_eq!(c.disruptive_total(), 9);
    }

    #[test]
    fn mean_rp() {
        let mut m = RunMetrics::default();
        m.completions.push(completion(true, 1.3, 0.2));
        m.completions.push(completion(true, 1.3, 0.6));
        assert!(m
            .mean_completion_rp()
            .unwrap()
            .approx_eq(Rp::new(0.4), 1e-12));
    }

    /// `simulate`'s metrics files and the benchmark's run fingerprint
    /// hash these exact bytes. Covers full retention, aggregate `totals`
    /// with the conditionally omitted `observation` and
    /// `rigid_utilization` fields present, and a goal factor beyond 10^12.
    #[test]
    fn encoding_is_pinned() {
        let mut full = RunMetrics::default();
        full.samples.push(sample_with_compute(0.0125));
        full.completions.push(completion(true, 2.5, 0.375));
        full.completions.push(completion(false, 1.3, -0.125));
        full.changes.migrations = 2;
        full.actuation.retries = 3;
        let mut placement = Placement::new();
        placement.place(AppId::new(7), NodeId::new(1));
        placement.place(AppId::new(7), NodeId::new(1));
        placement.place(AppId::new(2), NodeId::new(0));
        full.placements.push(PlacementRecord {
            time: SimTime::from_secs(600.0),
            placement,
        });
        full.starvation = Some(StarvationReport {
            time: SimTime::from_secs(1200.0),
            apps: vec![AppId::new(2), AppId::new(9)],
        });

        let mut aggregate = RunMetrics::default();
        let mut sample = sample_with_compute(0.0);
        sample.batch_hypothetical_rp = Some(Rp::new(0.25));
        sample.rigid_utilization.push(RigidDimSample {
            dim: "disk_mb".to_string(),
            used: 2_048.0,
            capacity: 8_192.0,
        });
        aggregate.samples.push(sample);
        aggregate.totals = Some(CompletionTotals {
            count: 5,
            met_deadlines: 4,
            sum_rp: 1.75,
        });
        aggregate.observation.lost_reports = 7;

        let mut huge = RunMetrics::default();
        huge.completions.push(completion(true, 9.87654321e12, 0.25));

        let pinned = [
            (
                &full,
                r#"{"samples":[{"time":0.0,"batch_hypothetical_rp":null,"txn_rp":null,"batch_allocation":0.0,"txn_allocation":0.0,"running_jobs":0.0,"waiting_jobs":0.0,"placement_compute_secs":0.0125,"pending_actions":0.0}],"completions":[{"app":0.0,"arrival":0.0,"completion":10.0,"deadline":20.0,"distance":10.0,"rp":0.375,"goal_factor":2.5,"met_deadline":true},{"app":0.0,"arrival":0.0,"completion":10.0,"deadline":20.0,"distance":-5.0,"rp":-0.125,"goal_factor":1.3,"met_deadline":false}],"changes":{"starts":0.0,"suspends":0.0,"resumes":0.0,"migrations":2.0},"actuation":{"failed_ops":0.0,"timed_out_ops":0.0,"retries":3.0,"deferrals":0.0,"quarantines":0.0,"fill_only_fallbacks":0.0,"deadline_truncations":0.0,"invariant_skips":0.0},"placements":[{"time":600.0,"instances":[[2.0,0.0,1.0],[7.0,1.0,2.0]]}],"starvation":{"time":1200.0,"apps":[2.0,9.0]}}"#,
            ),
            (
                &aggregate,
                r#"{"samples":[{"time":0.0,"batch_hypothetical_rp":0.25,"txn_rp":null,"batch_allocation":0.0,"txn_allocation":0.0,"running_jobs":0.0,"waiting_jobs":0.0,"placement_compute_secs":0.0,"pending_actions":0.0,"rigid_utilization":[{"dim":"disk_mb","used":2048.0,"capacity":8192.0}]}],"completions":[],"totals":{"count":5.0,"met_deadlines":4.0,"sum_rp":1.75},"changes":{"starts":0.0,"suspends":0.0,"resumes":0.0,"migrations":0.0},"actuation":{"failed_ops":0.0,"timed_out_ops":0.0,"retries":0.0,"deferrals":0.0,"quarantines":0.0,"fill_only_fallbacks":0.0,"deadline_truncations":0.0,"invariant_skips":0.0},"observation":{"missed_heartbeats":0.0,"lost_reports":7.0,"suspects":0.0,"deaths":0.0,"reinstatements":0.0,"stale_holds":0.0,"fill_only_degrades":0.0},"placements":[],"starvation":null}"#,
            ),
            (
                &huge,
                r#"{"samples":[],"completions":[{"app":0.0,"arrival":0.0,"completion":10.0,"deadline":20.0,"distance":10.0,"rp":0.25,"goal_factor":9876543210000.0,"met_deadline":true}],"changes":{"starts":0.0,"suspends":0.0,"resumes":0.0,"migrations":0.0},"actuation":{"failed_ops":0.0,"timed_out_ops":0.0,"retries":0.0,"deferrals":0.0,"quarantines":0.0,"fill_only_fallbacks":0.0,"deadline_truncations":0.0,"invariant_skips":0.0},"placements":[],"starvation":null}"#,
            ),
        ];
        for (metrics, bytes) in pinned {
            assert_eq!(metrics.to_json().compact(), bytes);
        }
    }
}
