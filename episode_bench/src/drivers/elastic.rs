//! The E9e-shaped episode (`elastic_diurnal`): an instrumented copy of
//! `autoscale::run_episode`, driven on `simkit::Sim` from this file so
//! that the DES's own time can be told apart from its handlers.
//!
//! Arrivals are events that submit, settle and negotiate; the control
//! loop is a recurring 60 s tick that settles, runs `AutoScaler::tick`,
//! holds freshly launched workers out of the pool until their
//! provisioning completes (with the pool's public `drain_machine` and
//! `add_machine`), renegotiates, and tears the cluster down once the
//! queue drains.

use cumulus::autoscale::controller::{Action, AutoScaler, ControllerConfig, EpisodeReport};
use cumulus::autoscale::signal::percentile;
use cumulus::cloud::InstanceType;
use cumulus::htc::{Job, Machine};
use cumulus::provision::{GpCloud, GpInstanceId, Topology};
use cumulus::simkit::engine::Sim;
use cumulus::simkit::time::SimTime;

use crate::outcome::{exact, fnv64, Counters, Outcome};
use crate::spec::{Arrival, ElasticSpec, Workload};
use crate::trace::{Name, Tracer};

/// The DES step budget of one episode (`run_episode`'s).
const MAX_STEPS: u64 = 50_000_000;

/// The deployed single-node instance, ready for jobs.
pub struct Deployment {
    cloud: GpCloud,
    id: GpInstanceId,
    ready: SimTime,
}

struct World {
    cloud: GpCloud,
    scaler: AutoScaler,
    total_jobs: usize,
    submitted: usize,
    end_at: Option<SimTime>,
    tracer: Tracer,
    counters: Counters,
}

/// Deploy the single-node Galaxy instance on the deterministic cloud.
pub fn setup(seed: u64, tracer: &mut Tracer) -> Deployment {
    tracer.open(Name::Setup);
    let dep = tracer.span(Name::CloudDeploy, || {
        let mut cloud = GpCloud::deterministic(seed);
        let id = cloud.create_instance(Topology::single_node(InstanceType::M1Small));
        let ready = cloud
            .start_instance(SimTime::ZERO, &id)
            .expect("single-node deployment succeeds")
            .ready_at;
        Deployment { cloud, id, ready }
    });
    tracer.close();
    dep
}

/// Negotiate the instance's pool, counting what it matched.
fn negotiate(w: &mut World, id: &GpInstanceId, now: SimTime) {
    let Ok(inst) = w.cloud.instance_mut(id) else {
        return;
    };
    if w.tracer.is_on() {
        w.counters.idle_max = w.counters.idle_max.max(inst.pool.idle_count() as u64);
    }
    let matches = w.tracer.span(Name::Negotiate, || inst.pool.negotiate(now));
    w.counters.negotiate_calls += 1;
    w.counters.negotiate_empty += u64::from(matches.is_empty());
    w.counters.matches += matches.len() as u64;
}

/// Hold `worker-{idx}` out of the pool and schedule its join at `done`,
/// reading its instance type from the topology at join time.
fn defer_join(sim: &mut Sim<World>, id: &GpInstanceId, idx: usize, done: SimTime) {
    let w = &mut sim.world;
    if let Ok(inst) = w.cloud.instance_mut(id) {
        let name = format!("{id}.worker-{idx}");
        w.tracer.span(Name::Advertise, || {
            let _ = inst.pool.drain_machine(&name);
        });
    }
    let jid = id.clone();
    sim.world.tracer.open(Name::SimSchedule);
    sim.schedule_at(done, move |sim| {
        let now = sim.now();
        let w = &mut sim.world;
        w.tracer.open(Name::Handler);
        join(w, &jid, idx, now);
        w.tracer.close();
    });
    sim.world.tracer.close();
}

fn join(w: &mut World, id: &GpInstanceId, idx: usize, now: SimTime) {
    let Ok(inst) = w.cloud.instance_mut(id) else {
        return;
    };
    // The worker may have been scaled away meanwhile; if it was
    // re-launched, its current type is authoritative.
    let Some(wtype) = inst.topology.workers.get(idx).copied() else {
        return;
    };
    let machine = Machine::new(
        &format!("{id}.worker-{idx}"),
        wtype.compute_units(),
        (wtype.memory_gb() * 1024.0) as i64,
        1,
    );
    w.tracer.span(Name::Advertise, || {
        let _ = inst.pool.add_machine(machine);
    });
    negotiate(w, id, now);
}

/// Run the trace through the closed loop until the queue drains and the
/// cluster is torn down; close the billing window.
pub fn run(
    spec: &ElasticSpec,
    arrivals: &[Arrival],
    dep: Deployment,
    tracer: &mut Tracer,
) -> (EpisodeReport, Outcome) {
    let Deployment { cloud, id, ready } = dep;
    let config = ControllerConfig::default();
    let tick = config.tick;

    let clock = std::time::Instant::now();
    tracer.open(Name::Episode);
    let scaler = AutoScaler::new(spec.policy(), config);
    let policy = scaler.policy_name();
    let mut sim = Sim::new(World {
        cloud,
        scaler,
        total_jobs: arrivals.len(),
        submitted: 0,
        end_at: None,
        tracer: std::mem::replace(tracer, Tracer::off()),
        counters: Counters::default(),
    });
    sim.fast_forward(ready);

    sim.world.tracer.open(Name::SimSchedule);
    for a in arrivals {
        let aid = id.clone();
        let owner = a.owner.clone();
        let work = a.work;
        sim.schedule_at(ready + a.at, move |sim| {
            let now = sim.now();
            let w = &mut sim.world;
            w.tracer.open(Name::Handler);
            if let Ok(inst) = w.cloud.instance_mut(&aid) {
                w.tracer.span(Name::Submit, || {
                    inst.pool.submit(Job::new(&owner, work), now)
                });
                w.tracer.span(Name::Settle, || inst.pool.settle(now));
                negotiate(w, &aid, now);
            }
            w.submitted += 1;
            w.tracer.close();
        });
    }

    let tid = id.clone();
    sim.schedule_every(ready, tick, move |sim| {
        let now = sim.now();
        let w = &mut sim.world;
        w.tracer.open(Name::Handler);
        if let Ok(inst) = w.cloud.instance_mut(&tid) {
            w.tracer.span(Name::Settle, || inst.pool.settle(now));
        }
        let decision = w
            .tracer
            .span(Name::Tick, || w.scaler.tick(now, &mut w.cloud, &tid))
            .expect("controller tick against a running instance");
        if matches!(
            decision.action,
            Action::ScaleOut { .. } | Action::ScaleIn { .. }
        ) {
            w.counters.scale_actions += 1;
        }

        // Freshly launched workers leave the pool until provisioning
        // completes, before the queue is renegotiated below.
        if let (Action::ScaleOut { from, to }, Some(done)) = (&decision.action, decision.done_at) {
            for idx in *from..*to {
                defer_join(sim, &tid, idx, done);
            }
        }

        let w = &mut sim.world;
        negotiate(w, &tid, now);

        let inst = w.cloud.instance(&tid).expect("instance exists");
        let drained = w.submitted == w.total_jobs
            && inst.pool.idle_count() == 0
            && inst.pool.running_count() == 0;
        if drained {
            let wtype = w.scaler.config.worker_type;
            w.tracer.span(Name::CloudBilling, || {
                let _ = w.cloud.scale_workers(now, &tid, 0, wtype);
            });
            w.end_at = Some(now);
        }
        w.tracer.close();
        !drained
    });
    sim.world.tracer.close();

    sim.world.tracer.open(Name::SimRun);
    let _ = sim.run(SimTime::MAX, MAX_STEPS);
    sim.world.tracer.close();
    let des_events = sim.steps_executed();

    let mut world = sim.world;
    let end_at = world.end_at;
    let cost_usd = end_at.map_or(0.0, |end| {
        world.tracer.span(Name::CloudBilling, || {
            world.cloud.ec2.ledger.window_cost(ready, end)
        })
    });
    world.tracer.close();
    *tracer = std::mem::replace(&mut world.tracer, Tracer::off());
    let episode_ns = clock.elapsed().as_nanos() as u64;

    let pool = &world.cloud.instance(&id).expect("instance exists").pool;
    let waits_mins: Vec<f64> = pool
        .completed_waits()
        .iter()
        .map(|d| d.as_mins_f64())
        .collect();
    let makespan_mins = pool
        .last_completion_at()
        .map(|t| t.since(ready).as_mins_f64())
        .unwrap_or(0.0);
    let log = std::mem::take(&mut world.scaler.log);
    let report = EpisodeReport {
        policy,
        workload: Workload::ElasticDiurnal.name().to_string(),
        ready_at: ready,
        end_at: end_at.unwrap_or(ready),
        makespan_mins,
        cost_usd,
        wait_p50_mins: percentile(&waits_mins, 0.50),
        wait_p95_mins: percentile(&waits_mins, 0.95),
        jobs: waits_mins.len(),
        peak_workers: log
            .entries
            .iter()
            .map(|d| d.sample.workers)
            .max()
            .unwrap_or(0),
        log,
    };

    let mut out = Outcome {
        submitted: world.submitted as u64,
        completed: report.jobs as u64,
        episode_ns,
        counters: world.counters,
        ..Outcome::default()
    };
    out.counters.des_events = des_events;
    out.check(end_at.is_some(), || {
        format!("episode did not drain within {MAX_STEPS} DES steps")
    });
    out.check(report.jobs == arrivals.len(), || {
        format!("{} of {} jobs completed", report.jobs, arrivals.len())
    });
    out.check(report.peak_workers <= spec.max_workers, || {
        format!(
            "{} workers above the cap {}",
            report.peak_workers, spec.max_workers
        )
    });
    out.check(report.cost_usd.is_finite() && report.cost_usd > 0.0, || {
        format!("episode cost {}", report.cost_usd)
    });

    out.output("policy", &report.policy);
    out.output("ready_at", report.ready_at);
    out.output("end_at", report.end_at);
    out.output("makespan_mins", exact(report.makespan_mins));
    out.output("cost_usd", exact(report.cost_usd));
    out.output("wait_p50_mins", exact(report.wait_p50_mins));
    out.output("wait_p95_mins", exact(report.wait_p95_mins));
    out.output("jobs", report.jobs);
    out.output("peak_workers", report.peak_workers);
    out.output("scale_outs", report.log.scale_outs());
    out.output("scale_ins", report.log.scale_ins());
    out.output(
        "log_digest",
        format!("{:#018x}", fnv64(report.log.render().into_bytes())),
    );
    (report, out)
}
