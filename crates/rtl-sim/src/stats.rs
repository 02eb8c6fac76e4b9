//! Statistics the designs report: per-instruction latency histograms,
//! scheduler-level counters ([`SimStats`]) of activity-gated stepping and
//! quiet-span skipping, and the recovery and serving counters.

use std::fmt;

/// A fixed-size log2-bucket latency histogram.
///
/// Bucket 0 counts zero-cycle latencies; bucket `i` (for `i >= 1`) counts
/// values in `[2^(i-1), 2^i)`. 32 buckets cover every latency below 2^31
/// cycles, far beyond any bounded simulation, and the array is plain
/// integers so the histogram is `Eq` (bit-identical across runs) and merges
/// with element-wise addition for farm rollups.
///
/// Recording is a handful of integer ops with no allocation, cheap enough
/// to stay enabled unconditionally — which keeps [`SimStats`] identical
/// whether event tracing is on or off (the non-perturbation rule).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 32],
    count: u64,
    total: u64,
    max: u64,
}

/// The three headline percentiles of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Percentiles {
    /// Median latency upper bound, in cycles.
    pub p50: u64,
    /// 95th-percentile latency upper bound, in cycles.
    pub p95: u64,
    /// 99th-percentile latency upper bound, in cycles.
    pub p99: u64,
}

/// Percentile snapshot of the three per-instruction latency legs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Decoded-head arrival at the dispatcher → dispatch to a unit.
    pub issue_to_dispatch: Percentiles,
    /// Dispatch to a unit → retirement by the write arbiter.
    pub dispatch_to_retire: Percentiles,
    /// End-to-end: decoded-head arrival → retirement.
    pub issue_to_retire: Percentiles,
}

impl LatencyHistogram {
    fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(31)
        }
    }

    /// Bucket upper bound (inclusive) for index `i`.
    fn upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one latency sample, in cycles.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket(v)] += 1;
        self.count += 1;
        self.total = self.total.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (exact; the total is kept aside).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `p`-th percentile sample
    /// (`p` in `[0, 1]`), clamped to the observed maximum. 0 when empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The last bucket is open-ended; report the observed max.
                if i == self.buckets.len() - 1 {
                    return self.max;
                }
                return Self::upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// p50/p95/p99 in one call.
    #[must_use]
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }
}

impl std::ops::AddAssign<&LatencyHistogram> for LatencyHistogram {
    fn add_assign(&mut self, rhs: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(rhs.buckets.iter()) {
            *a += b;
        }
        self.count += rhs.count;
        self.total = self.total.saturating_add(rhs.total);
        self.max = self.max.max(rhs.max);
    }
}

/// Per-tenant serving counters: admission, shedding, completion and the
/// arrival→completion latency histogram for one tenant of a multi-tenant
/// serving front-end.
///
/// Everything here is integer state (the histogram is log2-bucketed), so
/// the struct is `Eq` — bit-identical across runs — and merges with
/// element-wise addition, exactly like [`SimStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Jobs the tenant offered to the service.
    pub submitted: u64,
    /// Jobs accepted into the tenant's queue.
    pub admitted: u64,
    /// Jobs rejected in-band at admission (queue full — load shedding).
    pub shed: u64,
    /// Admitted jobs discarded because the tenant disconnected before
    /// they were dispatched.
    pub cancelled: u64,
    /// Admitted jobs that completed successfully.
    pub completed: u64,
    /// Admitted jobs that completed with a driver error (the error is
    /// data in the completion record, not a lost job).
    pub failed: u64,
    /// Shard cycles consumed executing this tenant's jobs.
    pub work_cycles: u64,
    /// Cost units (job weight) dispatched for this tenant — the quantity
    /// deficit-round-robin fairness is defined over.
    pub work_cost: u64,
    /// Submission→completion latency, in virtual service cycles.
    pub latency: LatencyHistogram,
}

impl TenantCounters {
    /// Fraction of submitted jobs rejected at admission, in `[0, 1]`.
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.shed as f64 / self.submitted as f64
        }
    }

    /// Jobs still accounted as queued (admitted but not yet resolved).
    #[must_use]
    pub fn in_queue(&self) -> u64 {
        self.admitted - self.completed - self.failed - self.cancelled
    }
}

impl std::ops::AddAssign<&TenantCounters> for TenantCounters {
    fn add_assign(&mut self, rhs: &TenantCounters) {
        self.submitted += rhs.submitted;
        self.admitted += rhs.admitted;
        self.shed += rhs.shed;
        self.cancelled += rhs.cancelled;
        self.completed += rhs.completed;
        self.failed += rhs.failed;
        self.work_cycles += rhs.work_cycles;
        self.work_cost += rhs.work_cost;
        self.latency += &rhs.latency;
    }
}

/// Tenant-keyed serving statistics: one [`TenantCounters`] per tenant id
/// plus service-wide round/dispatch counters.
///
/// Like `SimStats::stage_evals`, the per-tenant entries merge *by key*:
/// summing two `ServeStats` adds counters for tenants present in both and
/// appends tenants seen only on one side, so rollups across service
/// instances (or time slices) work exactly like farm shard rollups.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Per-tenant counters, keyed by tenant id, in first-seen order.
    pub tenants: Vec<(u32, TenantCounters)>,
    /// Scheduling rounds the service ran.
    pub rounds: u64,
    /// Jobs handed to the farm across all rounds.
    pub dispatched: u64,
}

impl ServeStats {
    /// The counters for tenant `id`, if it has any.
    #[must_use]
    pub fn tenant(&self, id: u32) -> Option<&TenantCounters> {
        self.tenants.iter().find(|(t, _)| *t == id).map(|(_, c)| c)
    }

    /// Mutable counters for tenant `id`, created on first touch.
    pub fn tenant_mut(&mut self, id: u32) -> &mut TenantCounters {
        if let Some(at) = self.tenants.iter().position(|(t, _)| *t == id) {
            return &mut self.tenants[at].1;
        }
        self.tenants.push((id, TenantCounters::default()));
        &mut self.tenants.last_mut().expect("just pushed").1
    }

    /// Counters summed over every tenant.
    #[must_use]
    pub fn totals(&self) -> TenantCounters {
        let mut all = TenantCounters::default();
        for (_, c) in &self.tenants {
            all += c;
        }
        all
    }
}

impl std::ops::AddAssign<&ServeStats> for ServeStats {
    fn add_assign(&mut self, rhs: &ServeStats) {
        for (id, c) in &rhs.tenants {
            *self.tenant_mut(*id) += c;
        }
        self.rounds += rhs.rounds;
        self.dispatched += rhs.dispatched;
    }
}

impl std::ops::AddAssign for ServeStats {
    fn add_assign(&mut self, rhs: ServeStats) {
        *self += &rhs;
    }
}

impl std::ops::Add for ServeStats {
    type Output = ServeStats;

    fn add(mut self, rhs: ServeStats) -> ServeStats {
        self += &rhs;
        self
    }
}

impl std::iter::Sum for ServeStats {
    fn sum<I: Iterator<Item = ServeStats>>(iter: I) -> ServeStats {
        iter.fold(ServeStats::default(), |acc, s| acc + s)
    }
}

impl<'a> std::iter::Sum<&'a ServeStats> for ServeStats {
    fn sum<I: Iterator<Item = &'a ServeStats>>(iter: I) -> ServeStats {
        iter.fold(ServeStats::default(), |mut acc, s| {
            acc += s;
            acc
        })
    }
}

/// Deadline counters of a quiet-span scheduler: how many deadlines its
/// scheduling decisions registered, and how many of them a skip reached.
///
/// Both are pure functions of the workload within one scheduling mode —
/// no wall clock, no allocation behaviour — so they are safe to compare
/// bit-for-bit in CI and across traced/untraced runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Deadlines registered by scheduling decisions (unit wake hints,
    /// watchdog deadlines, the transport's retransmit deadline).
    pub wakes_scheduled: u64,
    /// Deadlines a skip reached: when a skip runs all the way to its
    /// decision's earliest deadline, every deadline tied at it counts.
    pub wakes_fired: u64,
}

impl std::ops::AddAssign<&WheelStats> for WheelStats {
    fn add_assign(&mut self, rhs: &WheelStats) {
        self.wakes_scheduled += rhs.wakes_scheduled;
        self.wakes_fired += rhs.wakes_fired;
    }
}

/// Why a quiet-span scheduler stepped a cycle instead of skipping it:
/// the first event source that forbade the skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepReason {
    /// A stage input or output is occupied, or the decoded head would
    /// make progress.
    Stage,
    /// An active unit holds an unretired output or cannot bound its next
    /// change with a wake hint.
    Unit,
    /// A unit, watchdog or transport deadline is due this cycle.
    Deadline,
    /// The driving host has an event this cycle (a frame to send or
    /// deliver, a message to inject, a frame arriving).
    Host,
    /// The cycle was stepped without a scheduling decision: the caller
    /// stepped directly, or the kernel never skips
    /// (`ActivityMode::Exhaustive`).
    Direct,
}

/// Stepped cycles by [`StepReason`]. The five counters always sum to
/// [`SimStats::cycles_stepped`]. Like `cycles_stepped` they describe how
/// the simulation was driven, so they differ across scheduling modes but
/// are exact deterministic functions of the workload within one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepReasons {
    /// Stepped for pipeline stage work.
    pub stage: u64,
    /// Stepped for an active unit.
    pub unit: u64,
    /// Stepped for a deadline due now.
    pub deadline: u64,
    /// Stepped for a host event due now.
    pub host: u64,
    /// Stepped without a scheduling decision.
    pub direct: u64,
}

impl StepReasons {
    /// Count one stepped cycle.
    #[inline]
    pub fn record(&mut self, reason: StepReason) {
        match reason {
            StepReason::Stage => self.stage += 1,
            StepReason::Unit => self.unit += 1,
            StepReason::Deadline => self.deadline += 1,
            StepReason::Host => self.host += 1,
            StepReason::Direct => self.direct += 1,
        }
    }

    /// All stepped cycles (equals [`SimStats::cycles_stepped`]).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.stage + self.unit + self.deadline + self.host + self.direct
    }
}

impl std::ops::AddAssign<&StepReasons> for StepReasons {
    fn add_assign(&mut self, rhs: &StepReasons) {
        self.stage += rhs.stage;
        self.unit += rhs.unit;
        self.deadline += rhs.deadline;
        self.host += rhs.host;
        self.direct += rhs.direct;
    }
}

/// Scheduler-level counters for an activity-aware simulation.
///
/// `cycles_simulated` is the authoritative simulated-time clock:
/// `cycles_stepped` of those ran through the full evaluate/commit loop and
/// `cycles_skipped` were jumped while the design was provably quiet. The
/// two partitions always sum to `cycles_simulated`, and all
/// architecturally visible state is identical whether a span of cycles
/// was stepped or skipped.
///
/// `stage_evals` counts how often each named pipeline stage's evaluate
/// function actually ran; with activity gating enabled these fall well
/// below `cycles_stepped` on sparse workloads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total simulated cycles (stepped + skipped).
    pub cycles_simulated: u64,
    /// Cycles run through the full evaluate/commit loop.
    pub cycles_stepped: u64,
    /// Cycles fast-forwarded without evaluating any stage.
    pub cycles_skipped: u64,
    /// Per-stage evaluate counts, in pipeline order.
    pub stage_evals: Vec<(&'static str, u64)>,
    /// Per-stage busy-cycle counts (cycles the stage had work), in
    /// pipeline order. Busy-ness is judged from the same activity
    /// predicates used for gating, so the counts are identical across
    /// scheduling modes.
    pub stage_busy: Vec<(&'static str, u64)>,
    /// Issue (decoded head visible to the dispatcher) → dispatch latency.
    pub lat_issue_dispatch: LatencyHistogram,
    /// Dispatch → retire (write arbiter ack) latency.
    pub lat_dispatch_retire: LatencyHistogram,
    /// End-to-end issue → retire latency.
    pub lat_issue_retire: LatencyHistogram,
    /// Deadline counters of the quiet-span scheduler (zero unless the
    /// design skipped quiet spans). Like `stage_evals`, these describe *how*
    /// the simulation was driven, not what it computed, so they may
    /// legitimately differ across scheduling modes — but they are exact
    /// deterministic functions of the workload within one mode.
    pub wheel: WheelStats,
    /// Stepped cycles by the reason the scheduler could not skip them.
    /// Mode-dependent like `cycles_stepped`, which they sum to.
    pub step_reasons: StepReasons,
    /// Soft-error resilience counters (zero unless SEU injection or
    /// recovery ran). Like `wheel`, these describe the fault history of
    /// the run, not what it computed: a faulty protected run and its
    /// fault-free twin produce identical results and latency histograms
    /// but legitimately differ here. Deterministic within one (seed,
    /// mode) configuration.
    pub recovery: RecoveryStats,
}

/// Counters for the soft-error resilience layer: SEU injection, parity /
/// voting detection, checkpoint rollback and farm-level job failover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Bit flips the SEU model applied to device state.
    pub seus_injected: u64,
    /// Strikes that landed on state with no live target (e.g. a result
    /// latch with nothing in flight) and vanished without effect.
    pub seus_absorbed: u64,
    /// Upsets caught by a parity check or a DMR vote disagreement.
    pub seus_detected: u64,
    /// Upsets repaired in place (TMR majority vote, scoreboard shadow).
    pub seus_corrected: u64,
    /// Checkpoint restores triggered by uncorrected soft errors.
    pub rollbacks: u64,
    /// Cycles of work discarded across all rollbacks (work lost).
    pub cycles_lost: u64,
    /// Jobs re-executed on a healthy shard after their home shard
    /// panicked or reported an unrecovered soft error.
    pub jobs_failed_over: u64,
    /// Total job retry attempts consumed by the farm's failover pass.
    pub job_retries: u64,
}

impl std::ops::AddAssign<&RecoveryStats> for RecoveryStats {
    fn add_assign(&mut self, rhs: &RecoveryStats) {
        self.seus_injected += rhs.seus_injected;
        self.seus_absorbed += rhs.seus_absorbed;
        self.seus_detected += rhs.seus_detected;
        self.seus_corrected += rhs.seus_corrected;
        self.rollbacks += rhs.rollbacks;
        self.cycles_lost += rhs.cycles_lost;
        self.jobs_failed_over += rhs.jobs_failed_over;
        self.job_retries += rhs.job_retries;
    }
}

impl SimStats {
    /// Add one pipeline stage's evaluation and busy counts by name; a
    /// stage new to this roll-up goes at the end.
    pub fn add_stage(&mut self, name: &'static str, evals: u64, busy: u64) {
        add_named(&mut self.stage_evals, name, evals);
        add_named(&mut self.stage_busy, name, busy);
    }

    /// Fraction of simulated cycles that were fast-forwarded, in `[0, 1]`.
    #[must_use]
    pub fn skip_fraction(&self) -> f64 {
        if self.cycles_simulated == 0 {
            0.0
        } else {
            self.cycles_skipped as f64 / self.cycles_simulated as f64
        }
    }

    /// Per-stage utilization: busy cycles over simulated cycles, in
    /// pipeline order. Empty when no busy counters were collected.
    #[must_use]
    pub fn utilization(&self) -> Vec<(&'static str, f64)> {
        if self.cycles_simulated == 0 {
            return Vec::new();
        }
        self.stage_busy
            .iter()
            .map(|&(name, busy)| (name, busy as f64 / self.cycles_simulated as f64))
            .collect()
    }

    /// p50/p95/p99 of the three per-instruction latency legs.
    #[must_use]
    pub fn latency_snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            issue_to_dispatch: self.lat_issue_dispatch.percentiles(),
            dispatch_to_retire: self.lat_dispatch_retire.percentiles(),
            issue_to_retire: self.lat_issue_retire.percentiles(),
        }
    }
}

// Shard-level rollups (e.g. a farm of coprocessors) sum per-shard stats.
// Stage-eval counters are merged *by stage name*: homogeneous shards share
// a pipeline and zip cleanly, while heterogeneous shards contribute their
// extra stages at the end in first-seen order.
impl std::ops::AddAssign<&SimStats> for SimStats {
    fn add_assign(&mut self, rhs: &SimStats) {
        self.cycles_simulated += rhs.cycles_simulated;
        self.cycles_stepped += rhs.cycles_stepped;
        self.cycles_skipped += rhs.cycles_skipped;
        for &(name, n) in &rhs.stage_evals {
            add_named(&mut self.stage_evals, name, n);
        }
        for &(name, n) in &rhs.stage_busy {
            add_named(&mut self.stage_busy, name, n);
        }
        self.lat_issue_dispatch += &rhs.lat_issue_dispatch;
        self.lat_dispatch_retire += &rhs.lat_dispatch_retire;
        self.lat_issue_retire += &rhs.lat_issue_retire;
        self.wheel += &rhs.wheel;
        self.step_reasons += &rhs.step_reasons;
        self.recovery += &rhs.recovery;
    }
}

fn add_named(list: &mut Vec<(&'static str, u64)>, name: &'static str, n: u64) {
    match list.iter_mut().find(|(s, _)| *s == name) {
        Some((_, total)) => *total += n,
        None => list.push((name, n)),
    }
}

impl std::ops::Add for SimStats {
    type Output = SimStats;

    fn add(mut self, rhs: SimStats) -> SimStats {
        self += &rhs;
        self
    }
}

impl std::iter::Sum for SimStats {
    fn sum<I: Iterator<Item = SimStats>>(iter: I) -> SimStats {
        iter.fold(SimStats::default(), |acc, s| acc + s)
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sim: {} cycles ({} stepped, {} skipped, {:.1}% fast-forwarded)",
            self.cycles_simulated,
            self.cycles_stepped,
            self.cycles_skipped,
            self.skip_fraction() * 100.0
        )?;
        if !self.stage_evals.is_empty() {
            write!(f, "; stage evals:")?;
            for (name, n) in &self.stage_evals {
                write!(f, " {name}={n}")?;
            }
        }
        if self.wheel.wakes_scheduled > 0 {
            write!(
                f,
                "; wheel: {} wakes scheduled, {} fired",
                self.wheel.wakes_scheduled, self.wheel.wakes_fired
            )?;
        }
        if self.recovery.seus_injected > 0 || self.recovery.rollbacks > 0 {
            write!(
                f,
                "; seu: {} injected, {} detected, {} corrected, {} rollbacks ({} cycles lost)",
                self.recovery.seus_injected,
                self.recovery.seus_detected,
                self.recovery.seus_corrected,
                self.recovery.rollbacks,
                self.recovery.cycles_lost
            )?;
        }
        if self.lat_issue_retire.count() > 0 {
            let p = self.lat_issue_retire.percentiles();
            write!(
                f,
                "; issue->retire p50<={} p95<={} p99<={} ({} instrs)",
                p.p50,
                p.p95,
                p.p99,
                self.lat_issue_retire.count()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_stats_ratios() {
        let s = SimStats {
            cycles_simulated: 1000,
            cycles_stepped: 250,
            cycles_skipped: 750,
            stage_evals: vec![("decode", 40)],
            ..SimStats::default()
        };
        assert_eq!(s.skip_fraction(), 0.75);
        let text = s.to_string();
        assert!(text.contains("75.0% fast-forwarded"), "{text}");
        assert!(text.contains("decode=40"), "{text}");
    }

    #[test]
    fn sim_stats_sum_merges_stages_by_name() {
        let mut a = SimStats {
            cycles_simulated: 100,
            cycles_stepped: 60,
            cycles_skipped: 40,
            stage_evals: vec![("decode", 10), ("dispatch", 5)],
            stage_busy: vec![("decode", 8), ("dispatch", 4)],
            ..SimStats::default()
        };
        a.lat_issue_retire.record(5);
        for r in [StepReason::Stage, StepReason::Host, StepReason::Host] {
            a.step_reasons.record(r);
        }
        let mut b = SimStats {
            cycles_simulated: 50,
            cycles_stepped: 50,
            cycles_skipped: 0,
            stage_evals: vec![("decode", 3), ("encode", 7)],
            stage_busy: vec![("decode", 2), ("encode", 6)],
            ..SimStats::default()
        };
        b.lat_issue_retire.record(9);
        b.step_reasons.record(StepReason::Direct);
        let total: SimStats = [a.clone(), b].into_iter().sum();
        assert_eq!(total.cycles_simulated, 150);
        assert_eq!(total.cycles_stepped, 110);
        assert_eq!(total.cycles_skipped, 40);
        assert_eq!(
            total.stage_evals,
            vec![("decode", 13), ("dispatch", 5), ("encode", 7)]
        );
        assert_eq!(
            total.stage_busy,
            vec![("decode", 10), ("dispatch", 4), ("encode", 6)]
        );
        assert_eq!(total.lat_issue_retire.count(), 2);
        let r = total.step_reasons;
        assert_eq!(
            (r.stage, r.unit, r.deadline, r.host, r.direct),
            (1, 0, 0, 2, 1)
        );
        assert_eq!(r.total(), 4);
        assert_eq!(total.lat_issue_retire.max(), 9);
        // Identity element.
        assert_eq!(a.clone() + SimStats::default(), a);
    }

    #[test]
    fn latency_histogram_buckets_and_percentiles() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentiles(), Percentiles::default());
        // 90 fast samples, 10 slow ones.
        for _ in 0..90 {
            h.record(3);
        }
        for _ in 0..10 {
            h.record(100);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - (90.0 * 3.0 + 10.0 * 100.0) / 100.0).abs() < 1e-9);
        // 3 lives in bucket [2,4) -> upper bound 3; 100 in [64,128) -> 127,
        // clamped to the observed max of 100.
        assert_eq!(h.percentile(0.50), 3);
        assert_eq!(h.percentile(0.90), 3);
        assert_eq!(h.percentile(0.95), 100);
        assert_eq!(h.percentile(0.99), 100);
        let p = h.percentiles();
        assert!(p.p50 <= p.p95 && p.p95 <= p.p99);
    }

    #[test]
    fn latency_histogram_edge_values() {
        let mut h = LatencyHistogram::default();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        // Zero lands in bucket 0; percentile of the first sample is 0.
        assert_eq!(h.percentile(0.01), 0);
        // The overflow bucket clamps to the observed max.
        assert_eq!(h.percentile(1.0), u64::MAX);
        // Merge is element-wise and keeps the max.
        let mut m = LatencyHistogram::default();
        m += &h;
        m += &h;
        assert_eq!(m.count(), 6);
        assert_eq!(m.max(), u64::MAX);
    }

    #[test]
    fn utilization_and_snapshot() {
        let mut s = SimStats {
            cycles_simulated: 100,
            cycles_stepped: 100,
            cycles_skipped: 0,
            stage_busy: vec![("decode", 25), ("dispatch", 50)],
            ..SimStats::default()
        };
        for v in [1u64, 2, 3, 4] {
            s.lat_issue_retire.record(v);
        }
        let u = s.utilization();
        assert_eq!(u, vec![("decode", 0.25), ("dispatch", 0.5)]);
        let snap = s.latency_snapshot();
        assert_eq!(snap.issue_to_dispatch, Percentiles::default());
        assert!(snap.issue_to_retire.p99 >= snap.issue_to_retire.p50);
        assert_eq!(SimStats::default().utilization(), Vec::new());
        let text = s.to_string();
        assert!(text.contains("issue->retire p50<="), "{text}");
    }

    #[test]
    fn wheel_counters_roll_up_and_display() {
        let mut a = SimStats {
            cycles_simulated: 10,
            wheel: WheelStats {
                wakes_scheduled: 4,
                wakes_fired: 3,
            },
            ..SimStats::default()
        };
        let b = SimStats {
            wheel: WheelStats {
                wakes_scheduled: 1,
                wakes_fired: 1,
            },
            ..SimStats::default()
        };
        a += &b;
        assert_eq!(a.wheel.wakes_scheduled, 5);
        assert_eq!(a.wheel.wakes_fired, 4);
        let text = a.to_string();
        assert!(text.contains("5 wakes scheduled"), "{text}");
        // Modes that never schedule stay silent.
        assert!(!SimStats::default().to_string().contains("wheel"));
    }

    #[test]
    fn serve_stats_merge_by_tenant_id() {
        let mut a = ServeStats::default();
        a.tenant_mut(0).submitted = 10;
        a.tenant_mut(0).shed = 2;
        a.tenant_mut(3).submitted = 4;
        a.tenant_mut(3).latency.record(8);
        a.rounds = 2;
        a.dispatched = 12;
        let mut b = ServeStats::default();
        b.tenant_mut(3).submitted = 6;
        b.tenant_mut(3).latency.record(16);
        b.tenant_mut(7).submitted = 1;
        b.rounds = 1;
        b.dispatched = 7;
        let total: ServeStats = [a.clone(), b].iter().sum();
        assert_eq!(total.rounds, 3);
        assert_eq!(total.dispatched, 19);
        assert_eq!(total.tenant(0).unwrap().submitted, 10);
        assert_eq!(total.tenant(3).unwrap().submitted, 10);
        assert_eq!(total.tenant(3).unwrap().latency.count(), 2);
        assert_eq!(total.tenant(7).unwrap().submitted, 1);
        assert_eq!(total.totals().submitted, 21);
        // Identity element.
        assert_eq!(a.clone() + ServeStats::default(), a);
    }

    #[test]
    fn tenant_counters_ratios() {
        let mut c = TenantCounters {
            submitted: 10,
            admitted: 8,
            shed: 2,
            completed: 5,
            failed: 1,
            cancelled: 1,
            ..TenantCounters::default()
        };
        c.latency.record(4);
        assert_eq!(c.shed_rate(), 0.2);
        assert_eq!(c.in_queue(), 1);
        assert_eq!(TenantCounters::default().shed_rate(), 0.0);
    }

    #[test]
    fn sim_stats_zero_safe() {
        let s = SimStats::default();
        assert_eq!(s.skip_fraction(), 0.0);
    }
}
