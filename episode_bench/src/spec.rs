//! The benchmark's workloads and the inputs it generates for them.
//!
//! Every workload is a scaled copy of a shipped experiment loop: E13's
//! data-sharing cell (`cached_reuse`, `nfs_cold`), E15's federated cell
//! (`federated_costgreedy`), and E9e's closed-loop diurnal episode
//! (`elastic_diurnal`). Each spec also has a `shipped` constructor with
//! the experiment's own parameters, at which the benchmark's drivers must
//! reproduce the experiment field for field.
//!
//! The benchmark generates every job stream and arrival trace from the
//! workload seed; the program under test only receives the generated
//! inputs.

use cumulus::autoscale::policy::{Hysteresis, HysteresisConfig, QueueStep, ScalingPolicy};
use cumulus::htc::WorkSpec;
use cumulus::simkit::rng::RngStream;
use cumulus::simkit::time::{SimDuration, SimTime};
use cumulus::store::{ContentId, DataSize};

/// Every dataset in every workload is this big.
pub const DATASET_MB: u64 = 200;

/// The named workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E13's cached object store, scaled 250x.
    CachedReuse,
    /// The same pool and clock on the paper's NFS export, no reuse.
    NfsCold,
    /// E15's spread scenario under cost-greedy placement, scaled.
    FederatedCostGreedy,
    /// E9e's closed loop on a 30-day diurnal trace.
    ElasticDiurnal,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::CachedReuse,
        Workload::NfsCold,
        Workload::FederatedCostGreedy,
        Workload::ElasticDiurnal,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CachedReuse => "cached_reuse",
            Workload::NfsCold => "nfs_cold",
            Workload::FederatedCostGreedy => "federated_costgreedy",
            Workload::ElasticDiurnal => "elastic_diurnal",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's full-size spec.
    pub fn spec(self) -> Spec {
        match self {
            Workload::CachedReuse => Spec::Datashare(DatashareSpec {
                jobs: 60_000,
                workers: 1_000,
                rate_scale: 250.0,
                datasets: 7_500,
                backend: Backend::Cached { cache_mb: 2048 },
                nfs_mbps: 400.0,
            }),
            Workload::NfsCold => Spec::Datashare(DatashareSpec {
                jobs: 60_000,
                workers: 1_000,
                rate_scale: 250.0,
                datasets: 60_000,
                backend: Backend::Nfs,
                nfs_mbps: 400.0,
            }),
            Workload::FederatedCostGreedy => Spec::Federated(FedSpec {
                users: 64,
                invocations_per_user: 500,
                max_workers: 100,
                rate_scale: 16.7,
                ..FedSpec::shipped()
            }),
            Workload::ElasticDiurnal => Spec::Elastic(ElasticSpec {
                base_per_hour: 20.0,
                peak_per_hour: 600.0,
                duration_hours: 720,
                max_workers: 19,
                ..ElasticSpec::shipped()
            }),
        }
    }
}

/// A workload's parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// An E13-shaped single-pool episode.
    Datashare(DatashareSpec),
    /// An E15-shaped federated episode.
    Federated(FedSpec),
    /// An E9e-shaped closed-loop episode on the DES.
    Elastic(ElasticSpec),
}

impl Spec {
    /// The spec regenerated at about `jobs` jobs, with workers and the
    /// arrival rate scaled by the same factor (the scaling ladder). The
    /// gated workloads never pass through here.
    pub fn scaled(&self, jobs: usize) -> Spec {
        match self {
            Spec::Datashare(s) => Spec::Datashare(s.scaled(jobs)),
            Spec::Federated(s) => Spec::Federated(s.scaled(jobs)),
            Spec::Elastic(s) => Spec::Elastic(s.scaled(jobs)),
        }
    }
}

fn scale_count(n: usize, k: f64) -> usize {
    ((n as f64 * k).round() as usize).max(1)
}

/// How an E13-shaped pool shares its datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Every input over the shared NFS export.
    Nfs,
    /// Object store plus per-worker LRU caches of `cache_mb`.
    Cached {
        /// Per-worker cache capacity, MB.
        cache_mb: u64,
    },
}

/// An E13-shaped episode: one Condor pool, one data plane, a job stream
/// on a seeded clock.
#[derive(Debug, Clone, PartialEq)]
pub struct DatashareSpec {
    /// Jobs in the stream.
    pub jobs: usize,
    /// Pool workers.
    pub workers: usize,
    /// Arrival gaps are E13's U(10, 50) s divided by this.
    pub rate_scale: f64,
    /// Distinct datasets; job `j` reads dataset `j mod datasets`.
    pub datasets: usize,
    /// The sharing backend.
    pub backend: Backend,
    /// NFS export bandwidth, Mbit/s.
    pub nfs_mbps: f64,
}

impl DatashareSpec {
    /// E13's own cell: 24 jobs on 4 workers; high reuse reads 3
    /// datasets, low reuse 24.
    pub fn shipped(backend: Backend, high_reuse: bool) -> DatashareSpec {
        DatashareSpec {
            jobs: 24,
            workers: 4,
            rate_scale: 1.0,
            datasets: if high_reuse { 3 } else { 24 },
            backend,
            nfs_mbps: 400.0,
        }
    }

    fn scaled(&self, jobs: usize) -> DatashareSpec {
        let k = jobs as f64 / self.jobs as f64;
        DatashareSpec {
            jobs,
            workers: scale_count(self.workers, k),
            rate_scale: self.rate_scale * k,
            datasets: scale_count(self.datasets, k).min(jobs),
            ..self.clone()
        }
    }

    /// The job stream (E13's generator with the gaps divided by
    /// `rate_scale`; at 1.0, E13's stream exactly) and E13's stable
    /// dataset ids.
    pub fn inputs(&self, seed: u64) -> Inputs {
        let mut arrivals = RngStream::derive(seed, "e13-arrivals");
        let mut work = RngStream::derive(seed, "e13-work");
        let mut at = SimTime::ZERO;
        let stream = (0..self.jobs)
            .map(|j| {
                at += SimDuration::from_secs_f64(
                    arrivals.uniform_range(10.0, 50.0) / self.rate_scale,
                );
                StreamJob {
                    submit_at: at,
                    work: WorkSpec::serial(90.0 + work.uniform_range(0.0, 60.0)),
                    dataset: j % self.datasets,
                    user: 0,
                }
            })
            .collect();
        Inputs {
            stream,
            cids: cids("e13", self.datasets),
        }
    }
}

/// The generated inputs of a datashare or federated episode.
#[derive(Debug)]
pub struct Inputs {
    /// The job stream, in submission order.
    pub stream: Vec<StreamJob>,
    /// Dataset content ids, by index.
    pub cids: Vec<ContentId>,
}

/// Stable dataset ids: the same names every cell and seed stages.
fn cids(experiment: &str, n: usize) -> Vec<ContentId> {
    (0..n)
        .map(|i| ContentId::of_str(&format!("{experiment}-dataset-{i}")))
        .collect()
}

/// One job of a generated stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamJob {
    /// When it is submitted.
    pub submit_at: SimTime,
    /// Its work.
    pub work: WorkSpec,
    /// The dataset it reads.
    pub dataset: usize,
    /// The submitting user (federated streams only).
    pub user: usize,
}

/// An E15-shaped episode: a federation of sites over a WAN, cost-greedy
/// placement, per-site queue-step scalers, the spread data scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FedSpec {
    /// Users submitting invocations, round-robin.
    pub users: usize,
    /// Invocations per user.
    pub invocations_per_user: usize,
    /// Datasets each user alternates between.
    pub datasets_per_user: usize,
    /// Sites (prefix of E15's catalog, cheapest first).
    pub sites: usize,
    /// Workers each site provisions at start.
    pub site_workers: usize,
    /// Per-site autoscale floor.
    pub min_workers: usize,
    /// Per-site autoscale ceiling.
    pub max_workers: usize,
    /// Queue-step jobs per worker.
    pub jobs_per_worker: usize,
    /// Scaler signal window, samples.
    pub window: usize,
    /// One-way WAN latency, ms.
    pub wan_latency_ms: f64,
    /// WAN bandwidth between every site pair, Mbit/s.
    pub wan_mbps: f64,
    /// Arrival gaps are E15's U(5, 20) s divided by this.
    pub rate_scale: f64,
}

impl FedSpec {
    /// E15's claim cell: 4 users x 8 invocations, 3 sites, 50 Mbit/s.
    pub fn shipped() -> FedSpec {
        FedSpec {
            users: 4,
            invocations_per_user: 8,
            datasets_per_user: 2,
            sites: 3,
            site_workers: 3,
            min_workers: 0,
            max_workers: 6,
            jobs_per_worker: 2,
            window: 3,
            wan_latency_ms: 40.0,
            wan_mbps: 50.0,
            rate_scale: 1.0,
        }
    }

    /// Jobs in the stream.
    pub fn jobs(&self) -> usize {
        self.users * self.invocations_per_user
    }

    /// Distinct datasets.
    pub fn datasets(&self) -> usize {
        self.users * self.datasets_per_user
    }

    fn scaled(&self, jobs: usize) -> FedSpec {
        let k = jobs as f64 / self.jobs() as f64;
        let users = self.users.min(jobs.max(1));
        FedSpec {
            users,
            invocations_per_user: (jobs / users).max(1),
            max_workers: scale_count(self.max_workers, k),
            rate_scale: self.rate_scale * k,
            ..self.clone()
        }
    }

    /// The invocation stream (E15's generator with the gaps divided by
    /// `rate_scale`) and E15's stable dataset ids.
    pub fn inputs(&self, seed: u64) -> Inputs {
        let mut arrivals = RngStream::derive(seed, "e15-arrivals");
        let mut work = RngStream::derive(seed, "e15-work");
        let mut at = SimTime::ZERO;
        let stream = (0..self.jobs())
            .map(|j| {
                at +=
                    SimDuration::from_secs_f64(arrivals.uniform_range(5.0, 20.0) / self.rate_scale);
                let user = j % self.users;
                StreamJob {
                    submit_at: at,
                    work: WorkSpec::serial(90.0 + work.uniform_range(0.0, 60.0)),
                    dataset: user * self.datasets_per_user
                        + (j / self.users) % self.datasets_per_user,
                    user,
                }
            })
            .collect();
        Inputs {
            stream,
            cids: cids("e15", self.datasets()),
        }
    }
}

/// An E9e-shaped episode: one Galaxy instance on the simulated EC2, a
/// diurnal arrival trace, and the closed-loop `Hysteresis(QueueStep(3))`
/// controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticSpec {
    /// Night arrival rate, jobs/h.
    pub base_per_hour: f64,
    /// Mid-day arrival rate, jobs/h.
    pub peak_per_hour: f64,
    /// Diurnal period, hours.
    pub period_hours: u64,
    /// Trace length, hours.
    pub duration_hours: u64,
    /// Jobs already queued at the trace start.
    pub initial_burst: usize,
    /// Controller ceiling. The simulated region allows 20 instances, so
    /// 19 workers beside the head node is the largest that can deploy.
    pub max_workers: usize,
}

/// One arrival of a generated trace.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Offset from the deployment being ready.
    pub at: SimDuration,
    /// Submitting user.
    pub owner: String,
    /// The job's work.
    pub work: WorkSpec,
}

impl ElasticSpec {
    /// E9e's diurnal cell: 2 to 60 jobs/h over 12 h, cap 8.
    pub fn shipped() -> ElasticSpec {
        ElasticSpec {
            base_per_hour: 2.0,
            peak_per_hour: 60.0,
            period_hours: 6,
            duration_hours: 12,
            initial_burst: 4,
            max_workers: 8,
        }
    }

    fn scaled(&self, jobs: usize) -> ElasticSpec {
        let mean_per_hour = (self.base_per_hour + self.peak_per_hour) / 2.0;
        let k = jobs as f64 / (mean_per_hour * self.duration_hours as f64);
        ElasticSpec {
            base_per_hour: self.base_per_hour * k,
            peak_per_hour: self.peak_per_hour * k,
            max_workers: scale_count(self.max_workers, k).min(self.max_workers),
            ..self.clone()
        }
    }

    /// The diurnal job shape: 60 s serial + 240 CU-s.
    pub fn work() -> WorkSpec {
        WorkSpec {
            serial_secs: 60.0,
            cu_work: 240.0,
        }
    }

    /// The closed-loop policy E9e runs, with this spec's ceiling.
    pub fn policy(&self) -> Box<dyn ScalingPolicy> {
        Box::new(Hysteresis::new(
            QueueStep::new(3),
            HysteresisConfig {
                min_workers: 0,
                max_workers: self.max_workers,
                scale_out_cooldown: SimDuration::from_mins(3),
                scale_in_cooldown: SimDuration::from_mins(6),
            },
        ))
    }

    /// The arrival trace: a nonhomogeneous Poisson stream by thinning at
    /// the peak rate (the construction of E9e's trace), behind the
    /// initial backlog.
    pub fn trace(&self, seed: u64) -> Vec<Arrival> {
        let mut rng = RngStream::derive(seed, "workload/diurnal");
        let work = ElasticSpec::work();
        let mean_gap_secs = 3600.0 / self.peak_per_hour;
        let period_secs = SimDuration::from_hours(self.period_hours).as_secs_f64();
        let duration_secs = SimDuration::from_hours(self.duration_hours).as_secs_f64();
        let rate_at = |t: f64| {
            let phase = (t / period_secs) * std::f64::consts::TAU;
            self.base_per_hour
                + (self.peak_per_hour - self.base_per_hour) * 0.5 * (1.0 - phase.cos())
        };
        let owner = || "user1".to_string();
        let mut arrivals: Vec<Arrival> = (0..self.initial_burst)
            .map(|_| Arrival {
                at: SimDuration::ZERO,
                owner: owner(),
                work,
            })
            .collect();
        let mut at = 0.0;
        loop {
            at += rng.exponential(mean_gap_secs);
            if at > duration_secs {
                break;
            }
            if rng.uniform() < rate_at(at) / self.peak_per_hour {
                arrivals.push(Arrival {
                    at: SimDuration::from_secs_f64(at),
                    owner: owner(),
                    work,
                });
            }
        }
        arrivals
    }
}

/// Size of every dataset.
pub fn dataset_size() -> DataSize {
    DataSize::from_mb(DATASET_MB)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn full_size_specs_match_their_stated_shapes() {
        let Spec::Datashare(c) = Workload::CachedReuse.spec() else {
            panic!("cached_reuse is a datashare episode")
        };
        assert_eq!((c.jobs, c.workers, c.datasets), (60_000, 1_000, 7_500));
        let Spec::Federated(f) = Workload::FederatedCostGreedy.spec() else {
            panic!("federated_costgreedy is federated")
        };
        assert_eq!(f.jobs(), 32_000);
        let Spec::Elastic(e) = Workload::ElasticDiurnal.spec() else {
            panic!("elastic_diurnal is elastic")
        };
        let n = e.trace(1).len();
        assert!((200_000..245_000).contains(&n), "{n} arrivals");
    }

    #[test]
    fn scaling_keeps_jobs_per_worker_and_reaches_the_target() {
        for w in Workload::ALL {
            for jobs in [100usize, 1_000, 10_000] {
                let jobs_out = match w.spec().scaled(jobs) {
                    Spec::Datashare(s) => s.inputs(5).stream.len(),
                    Spec::Federated(s) => s.inputs(5).stream.len(),
                    Spec::Elastic(s) => s.trace(5).len(),
                };
                let ratio = jobs_out as f64 / jobs as f64;
                assert!(
                    (0.5..1.5).contains(&ratio),
                    "{} at {jobs}: {jobs_out}",
                    w.name()
                );
            }
        }
    }
}
