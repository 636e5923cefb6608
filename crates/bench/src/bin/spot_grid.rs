//! E10 — spot-fleet economics under preemption.
//!
//! Runs the spot-fraction × preemption-rate grid twice — serially and
//! fanned out over the replica runner (`--threads N`) — asserts the two
//! reports are byte-identical, prints the table, and records the grid in
//! `BENCH_e10.json` at the repo root. The JSON contains only
//! seed-deterministic quantities (never wall times), so it too is
//! byte-identical at any thread count.
//!
//! `--quick` trims the grid to the CI smoke shape (baseline + all-spot
//! column); the determinism assertion and the domination check still run,
//! and the committed JSON is left as it is.

use cumulus_bench::experiments::spot;

fn main() {
    let seed = cumulus_bench::seed_from_args(cumulus_bench::REPORT_SEED);
    let threads = cumulus_bench::threads_from_args(0);
    let quick = std::env::args().any(|a| a == "--quick");

    let serial = spot::run_grid(seed, 1, quick);
    let parallel = spot::run_grid(seed, threads, quick);
    let table = spot::render(&parallel);
    assert_eq!(
        spot::render(&serial),
        table,
        "parallel spot grid diverged from the serial render"
    );
    let doc = spot::json_doc(seed, &parallel);
    assert_eq!(
        spot::json_doc(seed, &serial).render(),
        doc.render(),
        "parallel spot grid JSON diverged from the serial one"
    );

    print!("{table}");

    if !quick {
        cumulus_bench::write_repo_file("BENCH_e10.json", &doc);
    }
}
