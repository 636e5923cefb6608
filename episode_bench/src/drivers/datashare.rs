//! The E13-shaped episode (`cached_reuse`, `nfs_cold`): an instrumented
//! copy of `datashare::run_cell`'s loop.
//!
//! One Condor pool and one data plane. Jobs arrive on the generated
//! clock; every 20 s cycle settles completions, submits the arrivals,
//! negotiates, charges each match its staging plan, and (cached backend
//! only) re-advertises the matched machine's cache contents.

use std::collections::BTreeMap;

use cumulus::htc::{
    CondorPool, Job, JobId, Machine, Value, JOB_INPUT_CIDS_ATTR, MACHINE_CACHE_CIDS_ATTR,
    NEGOTIATION_INTERVAL,
};
use cumulus::simkit::metrics::Metrics;
use cumulus::simkit::time::{SimDuration, SimTime};
use cumulus::store::staging::keys as staging_keys;
use cumulus::store::{
    DataPlane, DataSize, EvictionPolicy, InputSpec, ObjectStoreConfig, SharingBackend,
};

use crate::outcome::{exact, Outcome};
use crate::spec::{dataset_size, Backend, DatashareSpec, Inputs};
use crate::trace::{Name, Tracer};

/// Cycles after which an episode that has not drained counts as failed.
const MAX_CYCLES: u32 = 10_000_000;

/// The deployment an episode runs on.
#[derive(Debug)]
pub struct Deployment {
    pool: CondorPool,
    plane: DataPlane,
    metrics: Metrics,
}

/// The E13 cell report, field for field (`datashare::CellReport`).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Jobs completed.
    pub jobs: usize,
    /// First submission to last completion, minutes.
    pub makespan_mins: f64,
    /// Staging time charged across all jobs, seconds.
    pub staging_secs: f64,
    /// Bytes from the worker's own cache.
    pub bytes_local: u64,
    /// Bytes copied from peer workers.
    pub bytes_peer: u64,
    /// Bytes fetched from the object store.
    pub bytes_object: u64,
    /// Bytes through the NFS export.
    pub bytes_nfs: u64,
    /// Bytes ingested over GridFTP.
    pub bytes_ingest: u64,
    /// Object-store request charges, dollars.
    pub object_cost_usd: f64,
    /// Cache lookups that hit.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
}

fn sharing(backend: Backend) -> (SharingBackend, DataSize) {
    match backend {
        Backend::Nfs => (SharingBackend::Nfs, DataSize::ZERO),
        Backend::Cached { cache_mb } => (
            SharingBackend::CachedObjectStore,
            DataSize::from_mb(cache_mb),
        ),
    }
}

/// Build the pool's machines and the data plane, and seed every dataset.
pub fn setup(spec: &DatashareSpec, inputs: &Inputs, tracer: &mut Tracer) -> Deployment {
    tracer.open(Name::Setup);
    let (backend, cache) = sharing(spec.backend);
    let (plane, metrics) = tracer.span(Name::Seed, || {
        let metrics = Metrics::new();
        let mut plane = DataPlane::new(
            backend,
            spec.nfs_mbps,
            ObjectStoreConfig::default(),
            cache,
            EvictionPolicy::Lru,
        );
        plane.set_metrics(metrics.clone());
        for &cid in &inputs.cids {
            plane.seed_dataset(cid, dataset_size());
        }
        (plane, metrics)
    });
    let pool = tracer.span(Name::AddMachines, || {
        let mut pool = CondorPool::new();
        for w in 0..spec.workers {
            pool.add_machine(Machine::new(&format!("worker-{w}"), 5.0, 1700, 1))
                .expect("worker names are distinct");
        }
        pool
    });
    tracer.close();
    Deployment {
        pool,
        plane,
        metrics,
    }
}

/// Drive the episode to drain. Returns the cell report and the outcome
/// (outputs, counters, checks).
pub fn run(
    spec: &DatashareSpec,
    inputs: &Inputs,
    dep: Deployment,
    tracer: &mut Tracer,
) -> (Report, Outcome) {
    let Deployment {
        mut pool,
        mut plane,
        metrics,
    } = dep;
    let stream = &inputs.stream;
    let cached = matches!(spec.backend, Backend::Cached { .. });
    let size = dataset_size();
    let mut out = Outcome::default();
    let c = &mut out.counters;

    let clock = std::time::Instant::now();
    tracer.open(Name::Episode);
    let mut inputs_of: BTreeMap<JobId, InputSpec> = BTreeMap::new();
    let mut now = SimTime::ZERO;
    let mut submitted = 0;
    let mut completed = 0;
    let mut staging = SimDuration::ZERO;
    let mut cycles = 0u32;
    while completed < stream.len() && cycles < MAX_CYCLES {
        cycles += 1;
        completed += tracer.span(Name::Settle, || pool.settle(now)).len();

        while submitted < stream.len() && stream[submitted].submit_at <= now {
            let job = &stream[submitted];
            let cid = inputs.cids[job.dataset];
            let id = tracer.span(Name::Submit, || {
                let builder =
                    Job::new("galaxy", job.work).attr(JOB_INPUT_CIDS_ATTR, Value::Str(cid.hex()));
                pool.submit(builder, now)
            });
            inputs_of.insert(id, InputSpec { cid, size });
            submitted += 1;
        }

        if tracer.is_on() {
            c.idle_max = c.idle_max.max(pool.idle_count() as u64);
        }
        let matches = tracer.span(Name::Negotiate, || pool.negotiate(now));
        c.negotiate_calls += 1;
        c.negotiate_empty += u64::from(matches.is_empty());
        c.matches += matches.len() as u64;
        let concurrent = matches.len() as u32;
        for m in &matches {
            let input = inputs_of[&m.job];
            let plan = tracer.span(Name::StageJob, || {
                plane.stage_job(&m.machine.0, &[input], concurrent)
            });
            staging += plan.total;
            tracer.span(Name::Advertise, || {
                pool.extend_job(m.job, plan.total)
                    .expect("freshly matched job is running")
            });
            if cached {
                let ad = tracer.span(Name::AttrString, || plane.fleet.attr_string(&m.machine.0));
                tracer.span(Name::Advertise, || {
                    let machine = pool.machine_mut(&m.machine.0).expect("matched machine");
                    machine.ad.set(MACHINE_CACHE_CIDS_ATTR, Value::Str(ad));
                });
            }
        }

        now += NEGOTIATION_INTERVAL;
    }
    tracer.close();
    out.episode_ns = clock.elapsed().as_nanos() as u64;

    let makespan = pool
        .last_completion_at()
        .map_or(SimDuration::ZERO, |t| t.since(SimTime::ZERO));
    let (cache_hits, cache_misses, evictions) = plane.fleet.totals();
    let report = Report {
        jobs: completed,
        makespan_mins: makespan.as_mins_f64(),
        staging_secs: staging.as_secs_f64(),
        bytes_local: metrics.counter(staging_keys::BYTES_LOCAL),
        bytes_peer: metrics.counter(staging_keys::BYTES_PEER),
        bytes_object: metrics.counter(staging_keys::BYTES_OBJECT),
        bytes_nfs: metrics.counter(staging_keys::BYTES_NFS),
        bytes_ingest: metrics.counter(staging_keys::BYTES_INGEST),
        object_cost_usd: plane.object.cost_usd(),
        cache_hits,
        cache_misses,
    };

    let c = &mut out.counters;
    c.bytes = [
        report.bytes_local,
        report.bytes_peer,
        report.bytes_object,
        metrics.counter(staging_keys::BYTES_REMOTE),
        report.bytes_nfs,
        report.bytes_ingest,
    ];
    c.evictions = evictions;
    c.object_puts = plane.object.puts();
    let matched = c.matches;
    let rung_bytes: u64 = c.bytes.iter().sum();

    out.submitted = submitted as u64;
    out.completed = completed as u64;
    out.check(cycles < MAX_CYCLES, || {
        format!("episode did not drain within {MAX_CYCLES} cycles")
    });
    out.check(
        completed == stream.len() && submitted == stream.len(),
        || format!("{completed} of {} jobs completed", stream.len()),
    );
    out.check(matched == stream.len() as u64, || {
        format!("{matched} matches for {} jobs", stream.len())
    });
    out.check(rung_bytes == matched * size.as_bytes(), || {
        format!(
            "rungs staged {rung_bytes} B, expected {matched} x {} B",
            size.as_bytes()
        )
    });
    out.output("jobs", report.jobs);
    out.output("makespan_mins", exact(report.makespan_mins));
    out.output("staging_secs", exact(report.staging_secs));
    out.output("bytes_local", report.bytes_local);
    out.output("bytes_peer", report.bytes_peer);
    out.output("bytes_object", report.bytes_object);
    out.output("bytes_nfs", report.bytes_nfs);
    out.output("bytes_ingest", report.bytes_ingest);
    out.output("object_cost_usd", exact(report.object_cost_usd));
    out.output("cache_hits", report.cache_hits);
    out.output("cache_misses", report.cache_misses);
    (report, out)
}
