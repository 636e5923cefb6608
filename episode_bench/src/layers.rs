//! The per-layer metrics of a traced episode.
//!
//! Busy times come from the benchmark's spans around each public call;
//! counts come from the values those calls return or from the layer's own
//! counters read after the episode. The episode decomposes exactly:
//! `driver.self_s` plus every layer's `busy_s` equals `episode.span_s`
//! (nanosecond sums, checked on every traced run). Each `busy_s` of a
//! call is also given per simulated job (`us_per_job`), so a layer that
//! grows faster than linearly shows when workloads are compared.
//!
//! Which end-to-end metric each layer metric should move, and where,
//! written down before any optimisation is measured:
//!
//! | layer metrics | moves | on |
//! |---|---|---|
//! | `htc.negotiate.*`, `htc.settle`, `htc.submit`, `htc.advertise`, `htc.queue.idle_max` | `jobs_per_s` | `cached_reuse`, `nfs_cold` (not `elastic_diurnal`) |
//! | `store.stage_job.*`, `store.attr_string`, `store.bytes.*`, `store.cache.*`, `store.object.puts` | `jobs_per_s` | `cached_reuse`; no move predicted on `nfs_cold` |
//! | `store.seed.busy_s` | `setup_s` | `nfs_cold` |
//! | `federation.*` | `jobs_per_s`, `setup_s` | `federated_costgreedy` |
//! | `autoscale.desired.*` / `autoscale.tick.*` | `jobs_per_s` | `federated_costgreedy` / `elastic_diurnal` |
//! | `simkit.des.*` / `simkit.telemetry.*` | `jobs_per_s`; telemetry also `peak_rss_mb` | `elastic_diurnal` / `federated_costgreedy` |
//! | `cloud.deploy_s`, `cloud.billing.busy_s` | `setup_s`, `jobs_per_s` | `elastic_diurnal` |
//! | `driver.self_s` | `jobs_per_s` | all |

use std::collections::BTreeMap;

use crate::outcome::Counters;
use crate::runner::Run;
use crate::trace::{Layer, Name, Profile};

/// Every per-layer metric, with its unit, in report order. The traced
/// run prints exactly these; `BENCHMARK.json` lists the same names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("episode.span_s", "s"),
    ("setup.span_s", "s"),
    ("driver.self_s", "s"),
    ("driver.self.us_per_job", "us/job"),
    ("trace.overhead", "ratio"),
    ("trace.jobs_per_s", "jobs/s"),
    ("htc.busy_s", "s"),
    ("htc.us_per_job", "us/job"),
    ("htc.negotiate.busy_s", "s"),
    ("htc.negotiate.us_per_job", "us/job"),
    ("htc.negotiate.calls", "count"),
    ("htc.negotiate.p99_ms", "ms"),
    ("htc.negotiate.matches", "count"),
    ("htc.negotiate.empty_frac", "ratio"),
    ("htc.settle.busy_s", "s"),
    ("htc.settle.us_per_job", "us/job"),
    ("htc.submit.busy_s", "s"),
    ("htc.submit.us_per_job", "us/job"),
    ("htc.advertise.busy_s", "s"),
    ("htc.advertise.us_per_job", "us/job"),
    ("htc.queue.idle_max", "count"),
    ("htc.add_machines_s", "s"),
    ("store.busy_s", "s"),
    ("store.us_per_job", "us/job"),
    ("store.stage_job.busy_s", "s"),
    ("store.stage_job.us_per_job", "us/job"),
    ("store.stage_job.calls", "count"),
    ("store.stage_job.p99_us", "us"),
    ("store.attr_string.busy_s", "s"),
    ("store.attr_string.us_per_job", "us/job"),
    ("store.bytes.local", "bytes"),
    ("store.bytes.peer", "bytes"),
    ("store.bytes.object", "bytes"),
    ("store.bytes.remote", "bytes"),
    ("store.bytes.nfs", "bytes"),
    ("store.bytes.ingest", "bytes"),
    ("store.cache.hit_rate", "ratio"),
    ("store.cache.evictions", "count"),
    ("store.object.puts", "count"),
    ("store.seed.busy_s", "s"),
    ("federation.busy_s", "s"),
    ("federation.us_per_job", "us/job"),
    ("federation.route.busy_s", "s"),
    ("federation.route.us_per_job", "us/job"),
    ("federation.stage_job.busy_s", "s"),
    ("federation.stage_job.us_per_job", "us/job"),
    ("federation.wan.crossings", "count"),
    ("federation.wan.bytes_egress", "bytes"),
    ("federation.scale.busy_s", "s"),
    ("federation.scale.us_per_job", "us/job"),
    ("federation.scale.actions", "count"),
    ("federation.billing.busy_s", "s"),
    ("federation.billing.us_per_job", "us/job"),
    ("federation.provision_s", "s"),
    ("autoscale.busy_s", "s"),
    ("autoscale.us_per_job", "us/job"),
    ("autoscale.desired.busy_s", "s"),
    ("autoscale.desired.us_per_job", "us/job"),
    ("autoscale.desired.calls", "count"),
    ("autoscale.desired.p99_us", "us"),
    ("autoscale.tick.busy_s", "s"),
    ("autoscale.tick.us_per_job", "us/job"),
    ("autoscale.tick.calls", "count"),
    ("autoscale.scale_actions", "count"),
    ("simkit.busy_s", "s"),
    ("simkit.us_per_job", "us/job"),
    ("simkit.des.events", "count"),
    ("simkit.des.self_s", "s"),
    ("simkit.des.self.us_per_job", "us/job"),
    ("simkit.des.schedule_s", "s"),
    ("simkit.telemetry.events", "count"),
    ("simkit.telemetry.report_s", "s"),
    ("cloud.busy_s", "s"),
    ("cloud.us_per_job", "us/job"),
    ("cloud.deploy_s", "s"),
    ("cloud.billing.busy_s", "s"),
    ("cloud.billing.us_per_job", "us/job"),
];

/// Per-layer metrics of one traced episode, by name. `trace.overhead` and
/// `trace.jobs_per_s` compare runs, so the caller adds them.
pub fn metrics(run: &Run) -> BTreeMap<&'static str, f64> {
    let ep = Profile::of(&run.episode_spans);
    let setup = Profile::of(&run.setup_spans);
    let c: &Counters = &run.outcome.counters;
    let s = |ns: u64| ns as f64 / 1e9;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |k: &'static str, v: f64| {
        m.insert(k, v);
    };
    put("episode.span_s", s(ep.busy_ns(Name::Episode)));
    put("setup.span_s", s(setup.busy_ns(Name::Setup)));
    put("driver.self_s", s(ep.layer_self_ns(Layer::Driver)));
    for (layer, key) in [
        (Layer::Htc, "htc.busy_s"),
        (Layer::Store, "store.busy_s"),
        (Layer::Federation, "federation.busy_s"),
        (Layer::Autoscale, "autoscale.busy_s"),
        (Layer::Simkit, "simkit.busy_s"),
        (Layer::Cloud, "cloud.busy_s"),
    ] {
        put(key, s(ep.layer_self_ns(layer)));
    }
    for (name, key) in [
        (Name::Negotiate, "htc.negotiate.busy_s"),
        (Name::Settle, "htc.settle.busy_s"),
        (Name::Submit, "htc.submit.busy_s"),
        (Name::Advertise, "htc.advertise.busy_s"),
        (Name::StageJob, "store.stage_job.busy_s"),
        (Name::AttrString, "store.attr_string.busy_s"),
        (Name::FedRoute, "federation.route.busy_s"),
        (Name::FedStageJob, "federation.stage_job.busy_s"),
        (Name::FedScale, "federation.scale.busy_s"),
        (Name::FedBilling, "federation.billing.busy_s"),
        (Name::Desired, "autoscale.desired.busy_s"),
        (Name::Tick, "autoscale.tick.busy_s"),
        (Name::CloudBilling, "cloud.billing.busy_s"),
    ] {
        put(key, s(ep.busy_ns(name)));
    }
    put("store.seed.busy_s", s(setup.busy_ns(Name::Seed)));
    put("htc.add_machines_s", s(setup.busy_ns(Name::AddMachines)));
    put(
        "federation.provision_s",
        s(setup.busy_ns(Name::FedProvision)),
    );
    put("cloud.deploy_s", s(setup.busy_ns(Name::CloudDeploy)));
    put("simkit.des.self_s", s(ep.self_ns(Name::SimRun)));
    put("simkit.des.schedule_s", s(ep.busy_ns(Name::SimSchedule)));
    put(
        "simkit.telemetry.report_s",
        s(ep.busy_ns(Name::TelemetryReport)),
    );

    put("htc.negotiate.calls", c.negotiate_calls as f64);
    put(
        "htc.negotiate.p99_ms",
        ep.quantile_ns(Name::Negotiate, 0.99) as f64 / 1e6,
    );
    put("htc.negotiate.matches", c.matches as f64);
    put(
        "htc.negotiate.empty_frac",
        ratio(c.negotiate_empty, c.negotiate_calls),
    );
    put("htc.queue.idle_max", c.idle_max as f64);
    put("store.stage_job.calls", ep.calls(Name::StageJob) as f64);
    put(
        "store.stage_job.p99_us",
        ep.quantile_ns(Name::StageJob, 0.99) as f64 / 1e3,
    );
    let rungs = [
        "store.bytes.local",
        "store.bytes.peer",
        "store.bytes.object",
        "store.bytes.remote",
        "store.bytes.nfs",
        "store.bytes.ingest",
    ];
    for (key, bytes) in rungs.into_iter().zip(c.bytes) {
        put(key, bytes as f64);
    }
    // Bytes served from the worker's own cache over all staged bytes:
    // per-worker lookup counters vanish with a scaled-in worker, the
    // rung counters do not.
    put(
        "store.cache.hit_rate",
        ratio(c.bytes[0], c.bytes.iter().sum()),
    );
    put("store.cache.evictions", c.evictions as f64);
    put("store.object.puts", c.object_puts as f64);
    put("federation.wan.crossings", c.wan_crossings as f64);
    put("federation.wan.bytes_egress", c.wan_bytes_egress as f64);
    put("federation.scale.actions", c.fed_scale_actions as f64);
    put("autoscale.desired.calls", ep.calls(Name::Desired) as f64);
    put(
        "autoscale.desired.p99_us",
        ep.quantile_ns(Name::Desired, 0.99) as f64 / 1e3,
    );
    put("autoscale.tick.calls", ep.calls(Name::Tick) as f64);
    put("autoscale.scale_actions", c.scale_actions as f64);
    put("simkit.des.events", c.des_events as f64);
    put("simkit.telemetry.events", c.telemetry_events as f64);

    // Every episode busy time again per simulated job: `x.us_per_job` from
    // `x.busy_s` (or `x_s` for self times).
    let jobs = run.outcome.completed.max(1) as f64;
    for &(name, _) in PER_LAYER {
        if let Some(base) = name.strip_suffix(".us_per_job") {
            let secs = m
                .get(format!("{base}.busy_s").as_str())
                .or_else(|| m.get(format!("{base}_s").as_str()))
                .copied()
                .unwrap_or_else(|| panic!("{name} has no time to divide"));
            m.insert(name, secs * 1e6 / jobs);
        }
    }
    m
}

/// Check that the episode span decomposes exactly into driver self time
/// plus every layer's self time (`Err` names the gap).
pub fn check_decomposition(run: &Run) -> Result<(), String> {
    for (what, spans, root) in [
        ("episode", &run.episode_spans, Name::Episode),
        ("setup", &run.setup_spans, Name::Setup),
    ] {
        let p = Profile::of(spans);
        let root_ns = p.busy_ns(root);
        let roots = p.calls(root);
        let parts: u64 = Layer::ALL.iter().map(|&l| p.layer_self_ns(l)).sum();
        if roots != 1 || parts != root_ns {
            return Err(format!(
                "{what}: {roots} root spans; layer self times sum to {parts} ns, root span is {root_ns} ns"
            ));
        }
    }
    Ok(())
}
