//! Completion accounting: job arrival/completion events, work
//! progress integration, projected-completion scheduling, and the
//! transactional demand observations feeding the work profilers.

use super::*;

impl Simulation {
    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    pub(super) fn on_arrival(&mut self, app: AppId) {
        self.advance_progress();
        let Some(job) = self.jobs.get_mut(&app) else {
            // An arrival event for an unknown job: count and skip rather
            // than taking the whole run down.
            self.metrics.actuation.invariant_skips += 1;
            return;
        };
        job.arrived = true;
        self.live_jobs += 1;
        self.between_cycle_advice();
    }

    pub(super) fn on_completion(&mut self, app: AppId, generation: u64) {
        {
            // Under aggregate retention a finished job leaves the map
            // entirely, so a projection it scheduled may outlive it —
            // that is ordinary staleness, not an invariant breach.
            let Some(job) = self.jobs.get(&app) else {
                return;
            };
            if !job.is_running() || job.generation != generation {
                return; // stale projection (or completed inline already)
            }
        }
        // advance_progress completes this job (and any peer finishing at
        // the same instant) inline.
        self.advance_progress();
        if let Some(job) = self.jobs.get_mut(&app) {
            if job.is_running() {
                // Numerical drift: reschedule precisely.
                let remaining = job.state.remaining_work(&job.profile);
                job.generation += 1;
                if job.allocation.as_mhz() > 0.0 && remaining.as_mcycles() > 0.0 {
                    let t = self.now.max(job.transition_until) + remaining / job.allocation;
                    self.events.push(
                        t,
                        EventKind::JobCompletion {
                            app,
                            generation: job.generation,
                        },
                    );
                }
                return;
            }
        }
        self.between_cycle_advice();
    }

    /// Records one (throughput, CPU-used) observation per transactional
    /// application into its work profiler — the measurement the real
    /// router takes every interval (§3.1). A deterministic ±2%
    /// alternating error keeps the regression honest.
    pub(super) fn observe_txn_demand(&mut self) {
        let placement = &self.placement;
        let load = &self.load;
        let now = self.now;
        for (&app, txn) in self.txns.iter_mut() {
            let rate = txn.pattern.rate_at(now);
            let allocations: Vec<CpuSpeed> = placement
                .instances_of(app)
                .map(|(node, _)| load.get(app, node))
                .collect();
            let workload = TxnWorkload::new(rate, txn.demand_per_request, txn.floor);
            let outcome = txn.router.route(&workload, &allocations);
            if outcome.admitted_rate <= 0.0 {
                continue; // nothing served: no signal this interval
            }
            let error = if txn.observations % 2 == 0 {
                0.02
            } else {
                -0.02
            };
            txn.observations += 1;
            txn.profiler
                .record(dynaplace_txn::profiler::UtilizationSample {
                    throughput: vec![outcome.admitted_rate],
                    cpu_used_mhz: outcome.admitted_rate * txn.demand_per_request * (1.0 + error),
                });
        }
    }

    /// Marks a running job as finished now: records the completion and
    /// releases its resources.
    pub(super) fn finish_job(&mut self, app: AppId) {
        let Some(job) = self.jobs.get_mut(&app) else {
            self.metrics.actuation.invariant_skips += 1;
            return;
        };
        debug_assert!(job.is_running());
        job.state.complete(self.now);
        job.allocation = CpuSpeed::ZERO;
        job.node = None;
        self.live_jobs -= 1;
        let goal = job.spec.goal();
        let best = job.profile.min_execution_time();
        let record = CompletionRecord {
            app,
            arrival: job.spec.arrival(),
            completion: self.now,
            deadline: goal.deadline(),
            distance: goal.distance_to_deadline(self.now),
            rp: goal.performance_at(self.now),
            goal_factor: goal.relative_goal().as_secs() / best.as_secs(),
            met_deadline: self.now <= goal.deadline(),
        };
        match self.config.retention {
            MetricsRetention::Full => self.metrics.completions.push(record),
            MetricsRetention::Aggregate => {
                self.metrics
                    .totals
                    .get_or_insert_with(Default::default)
                    .fold(&record);
            }
        }
        if let Some(class) = self.jobs[&app].spec.class() {
            let total = self.jobs[&app].profile.total_work();
            self.class_profiler.record_completion(class, total);
        }
        self.placement.evict(app);
        self.load.evict(app);
        // Completed jobs leave the control loop entirely: no stale desired
        // cells, no pending retries, no quarantine bookkeeping.
        self.desired.evict(app);
        self.desired_load.evict(app);
        self.actuation.forget_app(app);
        if self.config.retention == MetricsRetention::Aggregate {
            // Constant-memory mode: drop the finished job's state and
            // recycle its application id instead of keeping a tombstone
            // for every job the stream ever produced.
            self.jobs.remove(&app);
            self.apps.retire(app);
        }
    }

    // ------------------------------------------------------------------
    // Progress accounting
    // ------------------------------------------------------------------

    /// Advances every running job's consumed work from `last_advance` to
    /// `now` at its current allocation, excluding in-flight transition
    /// time.
    pub(super) fn advance_progress(&mut self) {
        let from = self.last_advance;
        let to = self.now;
        if to <= from {
            self.last_advance = to.max(from);
            return;
        }
        let mut exhausted = Vec::new();
        for (&app, job) in self.jobs.iter_mut() {
            if !job.is_running() || job.allocation.is_zero() {
                continue;
            }
            let start = from.max(job.transition_until);
            if to > start {
                let done = job.allocation * (to - start);
                job.state.advance(&job.profile, done);
            }
            let remaining = job.state.remaining_work(&job.profile);
            if remaining.as_mcycles() <= COMPLETION_EPS {
                // Snap to done and complete inline, so jobs finishing at
                // the same instant as the current event are never seen
                // as live-with-zero-work by the decision makers.
                job.state.advance(&job.profile, remaining);
                exhausted.push(app);
            }
        }
        self.last_advance = to;
        for app in exhausted {
            self.finish_job(app);
        }
    }

    /// Bumps a job's generation and schedules its projected completion.
    pub(super) fn reschedule_completion(&mut self, app: AppId) {
        let Some(job) = self.jobs.get_mut(&app) else {
            self.metrics.actuation.invariant_skips += 1;
            return;
        };
        job.generation += 1;
        if !job.is_running() || job.allocation.is_zero() {
            return;
        }
        let remaining = job.state.remaining_work(&job.profile);
        if remaining.is_zero() {
            return;
        }
        let t = self.now.max(job.transition_until) + remaining / job.allocation;
        self.events.push(
            t,
            EventKind::JobCompletion {
                app,
                generation: job.generation,
            },
        );
    }
}
