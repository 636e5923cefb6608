//! The E15-shaped episode (`federated_costgreedy`): an instrumented copy
//! of `federation::run_cell`'s loop for the spread scenario under
//! cost-greedy placement, with episode telemetry on and E13's `--report`
//! decomposition (span assembly, `JobBreakdown`, digest) at the end.

use std::collections::BTreeMap;

use cumulus::autoscale::policy::QueueStep;
use cumulus::cloud::{BillingMode, InstanceType};
use cumulus::federation::{
    Federation, PlacementPolicy, Placer, SiteConfig, SiteScaler, WanLink, WanTopology,
};
use cumulus::galaxy::routing::InvocationRequest;
use cumulus::htc::{
    Job, JobId, Value, JOB_INPUT_CIDS_ATTR, MACHINE_CACHE_CIDS_ATTR, NEGOTIATION_INTERVAL,
};
use cumulus::simkit::telemetry::{assemble, wan as wan_keys, JobBreakdown, SpanKind, Telemetry};
use cumulus::simkit::time::{SimDuration, SimTime};
use cumulus::store::staging::keys as staging_keys;
use cumulus::store::InputSpec;

use crate::outcome::{exact, Outcome};
use crate::spec::{dataset_size, FedSpec, Inputs};
use crate::trace::{Name, Tracer};

/// Cycles after which an episode that has not drained counts as failed.
const MAX_CYCLES: u32 = 10_000_000;

/// E15's site catalog, cheapest first.
const CATALOG: [(&str, InstanceType); 3] = [
    ("us-east", InstanceType::M1Small),
    ("us-west", InstanceType::C1Medium),
    ("eu-west", InstanceType::M1Large),
];

/// The provisioned federation and its telemetry handle.
#[derive(Debug)]
pub struct Deployment {
    fed: Federation,
    telemetry: Telemetry,
}

/// The E15 cell report, field for field (`federation::FedCellReport`).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Jobs completed.
    pub jobs: usize,
    /// First submission to last completion, minutes.
    pub makespan_mins: f64,
    /// Staging time charged across all sites, seconds.
    pub staging_secs: f64,
    /// Bytes staged from sources inside their own site.
    pub bytes_intra: u64,
    /// Bytes pulled over the WAN.
    pub bytes_cross: u64,
    /// WAN crossings.
    pub crossings: u64,
    /// Egress dollars.
    pub egress_usd: f64,
    /// Worker-tenure plus object-store dollars.
    pub compute_usd: f64,
    /// Invocations routed to each site.
    pub placements: Vec<usize>,
}

/// Provision the federation and seed the spread scenario: dataset `k` on
/// site `k mod sites`.
pub fn setup(spec: &FedSpec, inputs: &Inputs, tracer: &mut Tracer) -> Deployment {
    tracer.open(Name::Setup);
    let deployment = tracer.span(Name::FedProvision, || {
        let configs: Vec<SiteConfig> = CATALOG[..spec.sites]
            .iter()
            .map(|&(name, itype)| SiteConfig::new(name, spec.site_workers, itype))
            .collect();
        let wan = WanTopology::full_mesh(WanLink::new(spec.wan_latency_ms, spec.wan_mbps));
        let mut fed = Federation::provision(configs, wan, SimTime::ZERO);
        let telemetry = Telemetry::enabled();
        fed.set_telemetry(telemetry.clone());
        for (idx, &cid) in inputs.cids.iter().enumerate() {
            fed.seed_dataset(idx % spec.sites, cid, dataset_size());
        }
        Deployment { fed, telemetry }
    });
    tracer.close();
    deployment
}

/// Drive the episode to drain, close billing, and decompose the telemetry.
pub fn run(
    spec: &FedSpec,
    inputs: &Inputs,
    dep: Deployment,
    tracer: &mut Tracer,
) -> (Report, Outcome) {
    let Deployment { mut fed, telemetry } = dep;
    let stream = &inputs.stream;
    let size = dataset_size();
    let sites = spec.sites;
    let mut out = Outcome::default();
    let c = &mut out.counters;

    let clock = std::time::Instant::now();
    tracer.open(Name::Episode);
    let mut placer = Placer::new(PlacementPolicy::CostGreedy);
    let mut scalers: Vec<SiteScaler> = (0..sites)
        .map(|_| {
            SiteScaler::new(
                Box::new(QueueStep::new(spec.jobs_per_worker)),
                spec.window,
                spec.min_workers,
                spec.max_workers,
            )
        })
        .collect();
    let mut placements = vec![0usize; sites];
    let mut inputs_of: Vec<BTreeMap<JobId, InputSpec>> = vec![BTreeMap::new(); sites];

    let mut now = SimTime::ZERO;
    let mut submitted = 0;
    let mut completed = 0;
    let mut staging = SimDuration::ZERO;
    let mut cycles = 0u32;
    while completed < stream.len() && cycles < MAX_CYCLES {
        cycles += 1;
        for s in 0..sites {
            completed += tracer
                .span(Name::Settle, || fed.site_mut(s).pool.settle(now))
                .len();
        }

        while submitted < stream.len() && stream[submitted].submit_at <= now {
            let inv = &stream[submitted];
            let cid = inputs.cids[inv.dataset];
            let input = InputSpec { cid, size };
            let request = InvocationRequest {
                id: submitted as u64,
                user: format!("user-{}", inv.user),
                workflow: "rna-seq".to_string(),
                inputs: vec![input],
            };
            let site = tracer.span(Name::FedRoute, || fed.route(&mut placer, &request));
            placements[site] += 1;
            let id = tracer.span(Name::Submit, || {
                let builder = Job::new(&request.user, inv.work)
                    .attr(JOB_INPUT_CIDS_ATTR, Value::Str(cid.hex()));
                fed.site_mut(site).pool.submit(builder, now)
            });
            inputs_of[site].insert(id, input);
            submitted += 1;
        }

        if tracer.is_on() {
            let idle: usize = fed.sites().iter().map(|s| s.pool.idle_count()).sum();
            c.idle_max = c.idle_max.max(idle as u64);
        }
        for (s, inputs) in inputs_of.iter().enumerate() {
            let matches = tracer.span(Name::Negotiate, || fed.site_mut(s).pool.negotiate(now));
            c.negotiate_calls += 1;
            c.negotiate_empty += u64::from(matches.is_empty());
            c.matches += matches.len() as u64;
            let concurrent = matches.len() as u32;
            for m in &matches {
                let input = inputs[&m.job];
                let plan = tracer.span(Name::FedStageJob, || {
                    fed.stage_job(s, &m.machine.0, &[input], concurrent, now)
                });
                staging += plan.total;
                let ad = tracer.span(Name::AttrString, || {
                    fed.site(s).plane.fleet.attr_string(&m.machine.0)
                });
                tracer.span(Name::Advertise, || {
                    let site = fed.site_mut(s);
                    site.pool
                        .extend_job(m.job, plan.total)
                        .expect("freshly matched job is running");
                    let machine = site
                        .pool
                        .machine_mut(&m.machine.0)
                        .expect("matched machine");
                    machine.ad.set(MACHINE_CACHE_CIDS_ATTR, Value::Str(ad));
                });
            }
        }

        for (s, scaler) in scalers.iter_mut().enumerate() {
            let workers = fed.site(s).worker_count();
            let desired = tracer.span(Name::Desired, || {
                scaler.desired(now, &fed.site(s).pool, workers)
            });
            if desired != workers {
                c.scale_actions += 1;
                let actions = tracer.span(Name::FedScale, || {
                    let site = fed.site_mut(s);
                    let mut actions = 0u64;
                    while site.worker_count() < desired {
                        site.add_worker(now);
                        actions += 1;
                    }
                    while site.worker_count() > desired {
                        if !site.remove_idle_worker(now) {
                            break;
                        }
                        actions += 1;
                    }
                    actions
                });
                c.fed_scale_actions += actions;
            }
        }

        now += NEGOTIATION_INTERVAL;
    }

    let end = fed.last_completion_at().unwrap_or(SimTime::ZERO);
    let (egress_usd, compute_usd) = tracer.span(Name::FedBilling, || {
        fed.close_billing(end);
        (fed.egress_cost_usd(end), fed.compute_cost_usd(end))
    });
    let report_result = tracer.span(Name::TelemetryReport, || telemetry_report(&telemetry));
    tracer.close();
    out.episode_ns = clock.elapsed().as_nanos() as u64;

    let mut bytes = [0u64; 6];
    for s in 0..sites {
        let m = &fed.site(s).metrics;
        for (slot, key) in [
            staging_keys::BYTES_LOCAL,
            staging_keys::BYTES_PEER,
            staging_keys::BYTES_OBJECT,
            staging_keys::BYTES_REMOTE,
            staging_keys::BYTES_NFS,
            staging_keys::BYTES_INGEST,
        ]
        .into_iter()
        .enumerate()
        {
            bytes[slot] += m.counter(key);
        }
    }
    let report = Report {
        jobs: completed,
        makespan_mins: end.since(SimTime::ZERO).as_mins_f64(),
        staging_secs: staging.as_secs_f64(),
        bytes_intra: bytes[0] + bytes[1] + bytes[2] + bytes[4] + bytes[5],
        bytes_cross: fed.wan_metrics().counter(wan_keys::BYTES_EGRESS),
        crossings: fed.wan_metrics().counter(wan_keys::CROSSINGS),
        egress_usd,
        compute_usd,
        placements,
    };

    // An independent total: every billing segment, every object-store
    // request, every egress charge.
    let mut total_usd = 0.0;
    for site in fed.sites() {
        total_usd += site
            .ledger
            .segments()
            .iter()
            .map(|seg| seg.cost(BillingMode::PerSecond, end))
            .sum::<f64>();
        total_usd += site.plane.object.cost_usd();
    }
    total_usd += fed
        .egress_ledger()
        .egress_charges()
        .iter()
        .map(|e| e.cost())
        .sum::<f64>();

    let c = &mut out.counters;
    c.bytes = bytes;
    for site in fed.sites() {
        c.evictions += site.plane.fleet.totals().2;
        c.object_puts += site.plane.object.puts();
    }
    c.wan_crossings = report.crossings;
    c.wan_bytes_egress = report.bytes_cross;
    c.telemetry_events = telemetry.len() as u64;
    let matched = c.matches;
    let rung_bytes: u64 = bytes.iter().sum();

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
    out.check(bytes[3] == report.bytes_cross, || {
        format!(
            "remote rung {} B but WAN egress {} B",
            bytes[3], report.bytes_cross
        )
    });
    out.check(
        (egress_usd + compute_usd - total_usd).abs() <= 1e-9 * total_usd.max(1.0),
        || format!("egress {egress_usd} + compute {compute_usd} != total {total_usd}"),
    );
    let telemetry_digest = match report_result {
        Ok((digest, decomposed)) => {
            out.check(decomposed == completed, || {
                format!("{decomposed} job spans decomposed for {completed} jobs")
            });
            digest
        }
        Err(e) => {
            out.failures.push(e);
            0
        }
    };

    out.output("jobs", report.jobs);
    out.output("makespan_mins", exact(report.makespan_mins));
    out.output("staging_secs", exact(report.staging_secs));
    out.output("bytes_intra", report.bytes_intra);
    out.output("bytes_cross", report.bytes_cross);
    out.output("crossings", report.crossings);
    out.output("egress_usd", exact(report.egress_usd));
    out.output("compute_usd", exact(report.compute_usd));
    out.output(
        "placements",
        report
            .placements
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join("/"),
    );
    out.output("telemetry_digest", format!("{telemetry_digest:#018x}"));
    (report, out)
}

/// The `--report` decomposition: assemble the job spans, break every
/// job's walltime into its phases (asserting they sum exactly), digest
/// the stream. Returns the digest and the number of jobs decomposed.
fn telemetry_report(telemetry: &Telemetry) -> Result<(u64, usize), String> {
    let spans = assemble(&telemetry.events()).map_err(|e| format!("span assembly: {e:?}"))?;
    let mut jobs = 0;
    for span in spans.iter().filter(|s| s.kind == SpanKind::Job) {
        let bd = JobBreakdown::of(span).ok_or_else(|| format!("job {} never ran", span.id))?;
        if bd.total() != span.duration() {
            return Err(format!(
                "job {} breakdown does not sum to its walltime",
                span.id
            ));
        }
        jobs += 1;
    }
    Ok((telemetry.digest(), jobs))
}
