//! At the shipped parameters and the report seed, each benchmark driver
//! reproduces the experiment it copies, field for field: E13's
//! `datashare::run_cell`, E15's `federation::run_cell`, and E9e's
//! `run_episode` on the diurnal trace. What the benchmark measures is
//! therefore the program the experiments run.

use cumulus::autoscale::{run_episode, ControllerConfig};
use cumulus::federation::PlacementPolicy;
use cumulus_bench::experiments::{datashare as e13, extensions, federation as e15};
use cumulus_bench::REPORT_SEED;
use cumulus_episode_bench::drivers::{datashare, elastic, federated};
use cumulus_episode_bench::spec::{Backend, DatashareSpec, ElasticSpec, FedSpec};
use cumulus_episode_bench::trace::Tracer;

macro_rules! assert_fields_eq {
    ($ours:expr, $theirs:expr, $($field:ident),+ $(,)?) => {
        $(assert_eq!($ours.$field, $theirs.$field, concat!("field `", stringify!($field), "`"));)+
    };
}

fn run_datashare(spec: &DatashareSpec, traced: bool) -> datashare::Report {
    let inputs = spec.inputs(REPORT_SEED);
    let mut tracer = if traced { Tracer::on(0) } else { Tracer::off() };
    let dep = datashare::setup(spec, &inputs, &mut tracer);
    let (report, outcome) = datashare::run(spec, &inputs, dep, &mut tracer);
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    report
}

fn check_e13_cell(backend: Backend, spec: e13::BackendSpec, reuse: e13::Reuse) {
    let ours = DatashareSpec::shipped(backend, reuse == e13::Reuse::High);
    let theirs = e13::run_cell(REPORT_SEED, spec, reuse);
    for traced in [false, true] {
        let report = run_datashare(&ours, traced);
        assert_fields_eq!(
            report,
            theirs,
            jobs,
            makespan_mins,
            staging_secs,
            bytes_local,
            bytes_peer,
            bytes_object,
            bytes_nfs,
            bytes_ingest,
            object_cost_usd,
            cache_hits,
            cache_misses,
        );
    }
}

#[test]
fn e13_cached_high_reuse_cell_is_reproduced() {
    check_e13_cell(
        Backend::Cached { cache_mb: 2048 },
        e13::BackendSpec::Cached(2048),
        e13::Reuse::High,
    );
}

#[test]
fn e13_nfs_low_reuse_cell_is_reproduced() {
    check_e13_cell(Backend::Nfs, e13::BackendSpec::Nfs, e13::Reuse::Low);
}

#[test]
fn e15_cost_greedy_spread_cell_is_reproduced() {
    let theirs = e15::run_cell(
        REPORT_SEED,
        e15::CellSpec {
            policy: PlacementPolicy::CostGreedy,
            wan_mbps: 50.0,
            sites: 3,
            scenario: e15::Scenario::Spread,
        },
    );
    let spec = FedSpec::shipped();
    let inputs = spec.inputs(REPORT_SEED);
    for traced in [false, true] {
        let mut tracer = if traced { Tracer::on(0) } else { Tracer::off() };
        let dep = federated::setup(&spec, &inputs, &mut tracer);
        let (report, outcome) = federated::run(&spec, &inputs, dep, &mut tracer);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert_fields_eq!(
            report,
            theirs,
            jobs,
            makespan_mins,
            staging_secs,
            bytes_intra,
            bytes_cross,
            crossings,
            egress_usd,
            compute_usd,
            placements,
        );
    }
}

#[test]
fn e9e_diurnal_trace_is_regenerated_exactly() {
    let theirs = extensions::diurnal_trace(REPORT_SEED);
    let ours = ElasticSpec::shipped().trace(REPORT_SEED);
    assert_eq!(ours.len(), theirs.arrivals.len());
    for (a, b) in ours.iter().zip(&theirs.arrivals) {
        assert_eq!(a.at, b.at);
        assert_eq!(a.owner, b.owner);
        assert_eq!(a.work, b.work);
    }
}

#[test]
fn e9e_closed_loop_episode_is_reproduced() {
    let spec = ElasticSpec::shipped();
    let theirs = run_episode(
        REPORT_SEED,
        spec.policy(),
        ControllerConfig::default(),
        &extensions::diurnal_trace(REPORT_SEED),
    );
    let arrivals = spec.trace(REPORT_SEED);
    for traced in [false, true] {
        let mut tracer = if traced { Tracer::on(0) } else { Tracer::off() };
        let dep = elastic::setup(REPORT_SEED, &mut tracer);
        let (report, outcome) = elastic::run(&spec, &arrivals, dep, &mut tracer);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert_fields_eq!(
            report,
            theirs,
            policy,
            ready_at,
            end_at,
            makespan_mins,
            cost_usd,
            wait_p50_mins,
            wait_p95_mins,
            jobs,
            peak_workers,
        );
        assert_eq!(report.log.render(), theirs.log.render());
    }
}
