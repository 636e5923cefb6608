//! E13 — data-sharing options for the Galaxy pool.
//!
//! Runs the sharing-backend × reuse-factor grid twice — serially and
//! fanned out over the replica runner (`--threads N`) — asserts the two
//! reports are byte-identical, prints the table, and records the grid in
//! `BENCH_e13.json` at the repo root. The JSON contains only
//! seed-deterministic quantities (never wall times), so it too is
//! byte-identical at any thread count.
//!
//! `--quick` trims the grid to the CI smoke shape (the two cells the
//! ≥ 2× staging-reduction claim compares); the determinism assertion and
//! the claim check still run, and the committed JSON is left as it is.

//!
//! `--report` appends the telemetry episode report: every job's walltime
//! decomposed into queue/repair/staging/compute from its assembled
//! lifecycle span, digest-gated to be identical at any `--threads`.

use cumulus_bench::experiments::datashare;

fn main() {
    let seed = cumulus_bench::seed_from_args(cumulus_bench::REPORT_SEED);
    let threads = cumulus_bench::threads_from_args(0);
    let quick = std::env::args().any(|a| a == "--quick");
    let report = cumulus_bench::report_from_args();

    let serial = datashare::run_grid(seed, 1, quick);
    let parallel = datashare::run_grid(seed, threads, quick);
    let table = datashare::render(&parallel);
    assert_eq!(
        datashare::render(&serial),
        table,
        "parallel datashare grid diverged from the serial render"
    );
    let doc = datashare::json_doc(seed, &parallel);
    assert_eq!(
        datashare::json_doc(seed, &serial).render(),
        doc.render(),
        "parallel datashare grid JSON diverged from the serial one"
    );
    let reduction = datashare::staging_reduction(&parallel);
    assert!(
        reduction >= datashare::MIN_STAGING_REDUCTION,
        "warm caches must cut staging at least {}x on high reuse, got {reduction:.2}",
        datashare::MIN_STAGING_REDUCTION
    );

    print!("{table}");

    if report {
        let serial = datashare::run_grid_instrumented(seed, 1, quick);
        let parallel = datashare::run_grid_instrumented(seed, threads, quick);
        let episode = datashare::episode_report(&parallel);
        assert_eq!(
            datashare::episode_report(&serial),
            episode,
            "parallel episode report (telemetry digest included) diverged from serial"
        );
        print!("\n{episode}");
    }

    if !quick {
        cumulus_bench::write_repo_file("BENCH_e13.json", &doc);
    }
}
