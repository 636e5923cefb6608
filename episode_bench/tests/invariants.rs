//! Reduced-scale runs of every workload: every job completes, the rung
//! bytes and the cost ledger balance (the drivers' own output checks),
//! the output digest is the same across runs of one seed and between
//! traced and untraced runs, and the traced episode decomposes exactly
//! into driver self time plus layer busy times.

use cumulus_episode_bench::layers::{self, PER_LAYER};
use cumulus_episode_bench::runner::run_episode;
use cumulus_episode_bench::spec::Workload;

/// Jobs per reduced-scale episode.
const JOBS: usize = 1_500;

#[test]
fn reduced_scale_episodes_pass_their_checks_and_agree_traced_and_untraced() {
    for w in Workload::ALL {
        let spec = w.spec().scaled(JOBS);
        let plain = run_episode(&spec, 7, false, 0);
        let again = run_episode(&spec, 7, false, 1);
        let traced = run_episode(&spec, 7, true, 2);
        for run in [&plain, &again, &traced] {
            let o = &run.outcome;
            assert!(o.failures.is_empty(), "{}: {:?}", w.name(), o.failures);
            assert!(o.submitted > 0, "{}", w.name());
            assert_eq!(o.submitted, o.completed, "{}", w.name());
        }
        assert_eq!(
            plain.outcome.digest(),
            again.outcome.digest(),
            "{}",
            w.name()
        );
        assert_eq!(
            plain.outcome.digest(),
            traced.outcome.digest(),
            "{}",
            w.name()
        );
        assert_eq!(
            plain.outcome.counters.matches,
            traced.outcome.counters.matches
        );
        assert!(plain.episode_spans.is_empty() && plain.setup_spans.is_empty());

        layers::check_decomposition(&traced).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let m = layers::metrics(&traced);
        for (name, _) in PER_LAYER {
            if !name.starts_with("trace.") {
                assert!(m.contains_key(name), "{}: no {name}", w.name());
            }
        }
        assert!(m["episode.span_s"] > 0.0);
        assert!(m["htc.negotiate.calls"] > 0.0);
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    let spec = Workload::CachedReuse.spec().scaled(JOBS);
    let a = run_episode(&spec, 1, false, 0);
    let b = run_episode(&spec, 2, false, 0);
    assert_ne!(a.outcome.digest(), b.outcome.digest());
}

/// `BENCHMARK.json` lists exactly the metrics the benchmark prints.
#[test]
fn benchmark_json_names_every_printed_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = cumulus::provision::Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("named")
                    .to_string()
            })
            .collect()
    };
    let per_layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names("per_layer"), per_layer);
    assert_eq!(
        names("end_to_end"),
        ["jobs_per_s", "setup_s", "peak_rss_mb"]
    );
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names("workloads"), workloads);
}
