//! E14 — workflow recovery policies on a spot-heavy pool.
//!
//! Runs the disruption-rate × recovery-policy grid twice — serially and
//! fanned out over the replica runner (`--threads N`) — asserts the two
//! reports are byte-identical, prints the table, and records the grid in
//! `BENCH_e14.json` at the repo root. The JSON contains only
//! seed-deterministic quantities (never wall times), so it too is
//! byte-identical at any thread count.
//!
//! `--quick` trims the grid to the CI smoke shape (the three cells at the
//! claim rate); the determinism assertion and the claim checks still run:
//! no-recovery fails where retry+resume completes, and blind retry
//! re-stages at least the claimed multiple of resume's repeat bytes. The
//! committed JSON is left as it is.

use cumulus_bench::experiments::recovery;

fn main() {
    let seed = cumulus_bench::seed_from_args(cumulus_bench::REPORT_SEED);
    let threads = cumulus_bench::threads_from_args(0);
    let quick = std::env::args().any(|a| a == "--quick");

    let serial = recovery::run_grid(seed, 1, quick);
    let parallel = recovery::run_grid(seed, threads, quick);
    let table = recovery::render(&parallel);
    assert_eq!(
        recovery::render(&serial),
        table,
        "parallel recovery grid diverged from the serial render"
    );
    let doc = recovery::json_doc(seed, &parallel);
    assert_eq!(
        recovery::json_doc(seed, &serial).render(),
        doc.render(),
        "parallel recovery grid JSON diverged from the serial one"
    );

    let none = parallel
        .iter()
        .find(|r| r.rate_per_hour == recovery::CLAIM_RATE && r.policy == recovery::Policy::None)
        .expect("the grid contains the claim rate");
    let resume = parallel
        .iter()
        .find(|r| {
            r.rate_per_hour == recovery::CLAIM_RATE && r.policy == recovery::Policy::RetryResume
        })
        .expect("the grid contains the claim rate");
    assert!(
        !none.report.completed && resume.report.completed,
        "at {}/h the unprotected run must fail while retry+resume completes",
        recovery::CLAIM_RATE
    );
    let reduction = recovery::restage_reduction(&parallel);
    assert!(
        reduction >= recovery::MIN_RESTAGE_REDUCTION,
        "resume must re-stage at least {}x fewer repeat bytes than blind retry, got {reduction:.2}",
        recovery::MIN_RESTAGE_REDUCTION
    );

    print!("{table}");

    if !quick {
        cumulus_bench::write_repo_file("BENCH_e14.json", &doc);
    }
}
