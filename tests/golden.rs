//! Golden outputs: the committed `BENCH_e1x.json` grids and the E13
//! telemetry digests are what the experiment code produces today.
//!
//! Each grid is regenerated at `REPORT_SEED` on one thread and its JSON
//! document compared byte for byte with the file at the repo root. A
//! refactor of an episode driver that shifts any number by one ulp, or
//! any telemetry event, fails here rather than in a reader's diff of the
//! committed results.

use cumulus_bench::experiments::{datashare, federation, predictive, recovery, spot};
use cumulus_bench::REPORT_SEED;

fn committed(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn assert_golden(file: &str, doc: cumulus::provision::Json) {
    assert!(
        doc.render() + "\n" == committed(file),
        "{file} no longer regenerates byte-identically at REPORT_SEED"
    );
}

#[test]
fn e10_spot_grid_matches_the_committed_file() {
    let rows = spot::run_grid(REPORT_SEED, 1, false);
    assert_golden("BENCH_e10.json", spot::json_doc(REPORT_SEED, &rows));
}

#[test]
fn e12_predictive_grid_matches_the_committed_file() {
    let rows = predictive::run_grid(REPORT_SEED, 1, false);
    assert_golden("BENCH_e12.json", predictive::json_doc(REPORT_SEED, &rows));
}

#[test]
fn e13_datashare_grid_matches_the_committed_file() {
    let rows = datashare::run_grid(REPORT_SEED, 1, false);
    assert_golden("BENCH_e13.json", datashare::json_doc(REPORT_SEED, &rows));
}

#[test]
fn e14_recovery_grid_matches_the_committed_file() {
    let rows = recovery::run_grid(REPORT_SEED, 1, false);
    assert_golden("BENCH_e14.json", recovery::json_doc(REPORT_SEED, &rows));
}

#[test]
fn e15_federation_grid_matches_the_committed_file() {
    let rows = federation::run_grid(REPORT_SEED, 1, false);
    assert_golden("BENCH_e15.json", federation::json_doc(REPORT_SEED, &rows));
}

#[test]
fn e13_episode_report_digests_are_pinned() {
    for (quick, digest) in [(false, "0x4a422713d0498c43"), (true, "0xf7d2b858fd2bb737")] {
        let rows = datashare::run_grid_instrumented(REPORT_SEED, 1, quick);
        let report = datashare::episode_report(&rows);
        assert!(
            report.ends_with(&format!("telemetry digest {digest}\n")),
            "E13 report digest moved (quick = {quick}):\n{}",
            report.lines().last().unwrap_or_default()
        );
    }
}
