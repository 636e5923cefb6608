//! Spot-aware elasticity: a fleet-mix policy and a preemption-aware
//! episode driver.
//!
//! The plain controller treats every worker as on-demand capacity. This
//! module adds the economics: a [`SpotMix`] wrapper partitions the worker
//! index space into an on-demand core and a spot tail (the provision
//! layer's spot floor), and [`run_spot_episode`] drives a workload through
//! the closed loop while a [`SpotMarket`] reclaims spot workers along a
//! seeded preemption timeline. Each reclaim plays out end to end inside
//! the DES:
//!
//! 1. the market strikes a running spot instance — a two-minute
//!    interruption notice is served ([`Ec2Sim::preempt_instance`] via the
//!    market's [`Disruptable`] seam);
//! 2. at the deadline the instance settles to `Preempted`, billing stops,
//!    and [`GpCloud::repair_instance`] purges the lost host — **requeueing
//!    its in-flight jobs** — and relaunches the slot (as spot again, per
//!    the floor);
//! 3. the replacement joins the pool only when its provisioning
//!    completes (the same deferred-join rule scale-outs obey), and the
//!    requeued jobs renegotiate onto whatever capacity survives.
//!
//! The episode is byte-deterministic for a seed: the market timeline and
//! victim choices come from named [`RngStream`]s. There is one episode
//! driver: [`run_episode`] is this episode with a calm market and no spot
//! floor.
//!
//! [`SpotMarket`]: cumulus_cloud::SpotMarket
//! [`RngStream`]: cumulus_simkit::rng::RngStream
//! [`Ec2Sim::preempt_instance`]: cumulus_cloud::Ec2Sim::preempt_instance
//! [`GpCloud::repair_instance`]: cumulus_provision::deploy::GpCloud
//! [`Disruptable`]: cumulus_simkit::disrupt::Disruptable
//! [`run_episode`]: crate::controller::run_episode

use cumulus_simkit::runner::{run_replicas, ReplicaPlan};
use cumulus_simkit::time::SimDuration;

use crate::controller::{run_episode_with_market, ControllerConfig, EpisodeReport};
use crate::policy::ScalingPolicy;
use crate::workload::Workload;

/// Fleet-mix parameters for [`SpotMix`].
#[derive(Debug, Clone)]
pub struct SpotMixConfig {
    /// Fraction of the fleet cap eligible to run on spot, in `[0, 1]`.
    /// `0.0` is an all-on-demand fleet; `1.0` puts every worker on spot.
    pub spot_fraction: f64,
    /// The fleet cap the fraction is measured against (typically the
    /// wrapped policy's `max_workers` bound).
    pub max_workers: usize,
}

/// Wraps a sizing policy with a spot/on-demand fleet mix.
///
/// Sizing passes straight through to the inner policy (typically a
/// [`Hysteresis`]-wrapped one) — the mix never changes *how many* workers
/// run, only *what they cost*: workers at index `>=`
/// [`on_demand_floor`][SpotMix::on_demand_floor] launch as spot capacity.
/// Keeping the split positional means the on-demand core occupies the low
/// indexes the controller releases last, so scale-ins shed the reclaimable
/// spot tail first.
///
/// [`Hysteresis`]: crate::policy::Hysteresis
#[derive(Debug, Clone)]
pub struct SpotMix<P> {
    inner: P,
    /// The active mix.
    pub config: SpotMixConfig,
}

impl<P: ScalingPolicy> SpotMix<P> {
    /// Wrap `inner` with a fleet mix (`spot_fraction` clamped to `[0, 1]`).
    pub fn new(inner: P, config: SpotMixConfig) -> SpotMix<P> {
        SpotMix {
            inner,
            config: SpotMixConfig {
                spot_fraction: config.spot_fraction.clamp(0.0, 1.0),
                ..config
            },
        }
    }

    /// The worker index at and above which workers launch as spot —
    /// the value to hand to
    /// [`GpCloud::set_spot_worker_floor`](cumulus_provision::deploy::GpCloud::set_spot_worker_floor).
    /// `None` for a zero spot fraction (pure on-demand fleet).
    pub fn on_demand_floor(&self) -> Option<usize> {
        if self.config.spot_fraction <= 0.0 {
            return None;
        }
        let spot = (self.config.max_workers as f64 * self.config.spot_fraction).round() as usize;
        Some(self.config.max_workers.saturating_sub(spot))
    }
}

impl<P: ScalingPolicy> ScalingPolicy for SpotMix<P> {
    fn name(&self) -> String {
        format!(
            "{}+spot/{:.0}%",
            self.inner.name(),
            self.config.spot_fraction * 100.0
        )
    }

    fn desired_workers(&mut self, window: &crate::signal::SignalWindow) -> usize {
        self.inner.desired_workers(window)
    }

    fn observe_actuation(&mut self, feedback: &crate::policy::ActuationFeedback) {
        self.inner.observe_actuation(feedback);
    }
}

/// Parameters for a spot episode beyond the plain controller config.
#[derive(Debug, Clone)]
pub struct SpotEpisodeConfig {
    /// The controller parameters (tick, window, worker type).
    pub controller: ControllerConfig,
    /// Mean interval between market strikes (Poisson); `None` is a calm
    /// market that never reclaims anything.
    pub mean_preemption_interval: Option<SimDuration>,
    /// Extra time past the last arrival the market timeline covers (the
    /// drain tail is still exposed to reclaims).
    pub horizon_slack: SimDuration,
}

impl Default for SpotEpisodeConfig {
    fn default() -> Self {
        SpotEpisodeConfig {
            controller: ControllerConfig::default(),
            mean_preemption_interval: None,
            horizon_slack: SimDuration::from_hours(24),
        }
    }
}

/// Everything measured over one spot episode: the plain episode report
/// plus the disruption ledger.
#[derive(Debug, Clone)]
pub struct SpotEpisodeReport {
    /// The metrics every episode reports (cost, waits, makespan, log).
    pub base: EpisodeReport,
    /// Market strikes that actually reclaimed a spot worker.
    pub preemptions: usize,
    /// In-flight jobs requeued by reclaims (a job preempted twice counts
    /// twice).
    pub requeued_jobs: usize,
    /// Pool-wide eviction count at episode end (includes any non-market
    /// evictions, of which the episode driver produces none).
    pub total_evictions: u64,
    /// Completed-or-queued jobs that were evicted at least once.
    pub retried_jobs: usize,
}

/// Deploy a single-node Galaxy instance and run `workload` through it
/// under a spot/on-demand fleet mix while a seeded spot market reclaims
/// spot workers. See the module docs for the reclaim lifecycle; the
/// episode is [`run_episode`][crate::controller::run_episode]'s — same
/// deployment, same arrival wiring, same control loop — so a calm market
/// with a zero spot fraction reproduces it number for number.
///
/// # Panics
/// Panics if the deployment fails or the episode exceeds its step budget
/// (both indicate a model bug, not a data-dependent condition).
pub fn run_spot_episode<P: ScalingPolicy + 'static>(
    seed: u64,
    policy: SpotMix<P>,
    config: SpotEpisodeConfig,
    workload: &Workload,
) -> SpotEpisodeReport {
    let floor = policy.on_demand_floor();
    run_episode_with_market(seed, Box::new(policy), floor, &config, workload)
}

/// Run `combos` independent spot episodes against the same workload and
/// seed, fanned out over the parallel replica runner, and return the
/// reports **in combo order** — the spot analogue of
/// [`run_sweep`][crate::controller::run_sweep], with the same
/// serial-equals-parallel byte-identity guarantee.
pub fn run_spot_sweep<P, F>(
    seed: u64,
    combos: usize,
    make: F,
    workload: &Workload,
    threads: usize,
) -> Vec<SpotEpisodeReport>
where
    P: ScalingPolicy + 'static,
    F: Fn(usize) -> (SpotMix<P>, SpotEpisodeConfig) + Sync,
{
    let plan = ReplicaPlan::new(seed, combos).with_threads(threads);
    run_replicas(plan, |i, _seeds| {
        let (policy, config) = make(i);
        run_spot_episode(seed, policy, config, workload)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::run_episode;
    use crate::policy::{Hysteresis, HysteresisConfig, QueueStep};
    use cumulus_htc::WorkSpec;

    fn mix(fraction: f64, max: usize) -> SpotMix<Hysteresis<QueueStep>> {
        SpotMix::new(
            Hysteresis::new(
                QueueStep::new(2),
                HysteresisConfig {
                    min_workers: 0,
                    max_workers: max,
                    scale_out_cooldown: SimDuration::from_mins(2),
                    scale_in_cooldown: SimDuration::from_mins(5),
                },
            ),
            SpotMixConfig {
                spot_fraction: fraction,
                max_workers: max,
            },
        )
    }

    fn burst(n: usize) -> Workload {
        let work = WorkSpec {
            serial_secs: 112.0,
            cu_work: 418.0,
        };
        Workload::burst("burst", n, SimDuration::ZERO, work)
    }

    #[test]
    fn spot_mix_places_the_floor() {
        assert_eq!(mix(0.0, 8).on_demand_floor(), None);
        assert_eq!(mix(1.0, 8).on_demand_floor(), Some(0));
        assert_eq!(mix(0.5, 8).on_demand_floor(), Some(4));
        assert_eq!(mix(0.25, 8).on_demand_floor(), Some(6));
        assert_eq!(
            mix(0.5, 8).name(),
            "queue-step/2+hysteresis+spot/50%",
            "stable log name"
        );
    }

    #[test]
    fn calm_all_on_demand_episode_reproduces_run_episode() {
        let workload = burst(8);
        let spot = run_spot_episode(7, mix(0.0, 8), SpotEpisodeConfig::default(), &workload);
        let plain = run_episode(
            7,
            Box::new(Hysteresis::new(
                QueueStep::new(2),
                HysteresisConfig {
                    min_workers: 0,
                    max_workers: 8,
                    scale_out_cooldown: SimDuration::from_mins(2),
                    scale_in_cooldown: SimDuration::from_mins(5),
                },
            )),
            ControllerConfig::default(),
            &workload,
        );
        assert_eq!(spot.preemptions, 0);
        assert_eq!(spot.total_evictions, 0);
        assert_eq!(spot.base.jobs, plain.jobs);
        assert_eq!(spot.base.cost_usd, plain.cost_usd);
        assert_eq!(spot.base.wait_p95_mins, plain.wait_p95_mins);
        assert_eq!(spot.base.end_at, plain.end_at);
        assert_eq!(spot.base.log.render(), plain.log.render());
    }

    #[test]
    fn calm_spot_fleet_is_cheaper_at_identical_service() {
        let workload = burst(8);
        let od = run_spot_episode(7, mix(0.0, 8), SpotEpisodeConfig::default(), &workload);
        let spot = run_spot_episode(7, mix(1.0, 8), SpotEpisodeConfig::default(), &workload);
        // A calm market never reclaims, so the schedule is identical and
        // the only difference is the price of the worker fleet.
        assert_eq!(spot.base.wait_p95_mins, od.base.wait_p95_mins);
        assert_eq!(spot.base.makespan_mins, od.base.makespan_mins);
        assert!(
            spot.base.cost_usd < od.base.cost_usd,
            "spot {} !< on-demand {}",
            spot.base.cost_usd,
            od.base.cost_usd
        );
    }

    #[test]
    fn preemptions_requeue_work_and_the_episode_still_drains() {
        let workload = burst(12);
        let config = SpotEpisodeConfig {
            mean_preemption_interval: Some(SimDuration::from_mins(20)),
            ..SpotEpisodeConfig::default()
        };
        let report = run_spot_episode(11, mix(1.0, 8), config, &workload);
        assert_eq!(report.base.jobs, 12, "every job completes despite reclaims");
        assert!(report.preemptions >= 1, "market struck at least once");
        assert_eq!(
            report.requeued_jobs as u64, report.total_evictions,
            "every requeue is accounted as an eviction"
        );
        assert!(report.retried_jobs <= report.requeued_jobs);
        // Reclaims can only hurt service relative to a calm market.
        let calm = run_spot_episode(11, mix(1.0, 8), SpotEpisodeConfig::default(), &workload);
        assert!(report.base.end_at >= calm.base.end_at);
    }

    #[test]
    fn spot_episode_is_seed_deterministic() {
        let workload = burst(10);
        let config = SpotEpisodeConfig {
            mean_preemption_interval: Some(SimDuration::from_mins(30)),
            ..SpotEpisodeConfig::default()
        };
        let a = run_spot_episode(5, mix(0.5, 8), config.clone(), &workload);
        let b = run_spot_episode(5, mix(0.5, 8), config, &workload);
        assert_eq!(a.base.cost_usd, b.base.cost_usd);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.requeued_jobs, b.requeued_jobs);
        assert_eq!(a.base.log.render(), b.base.log.render());
    }
}
