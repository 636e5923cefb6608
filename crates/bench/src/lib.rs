//! `cumulus-bench` — the benchmark harness that regenerates every table
//! and figure of the paper's evaluation, plus ablations.
//!
//! | id | artifact | binary |
//! |----|----------|--------|
//! | E1 | §V.A use case | `usecase` |
//! | E2–E4 | Figure 10 (exec / deploy / cost) | `fig10` |
//! | E5, E7 | Figure 11 + order-of-magnitude claim | `fig11` |
//! | E6 | §III.C reconfiguration latency | `reconfig` |
//! | E8 | §VI CloudMan comparison | `ablation_cloudman` |
//! | E9 | extensions (streams, faults, autoscaling, policy sweep) | `extensions` |
//! | E10 | spot-fleet preemption grid | `spot_grid` |
//! | E11 | AMI-baking deployment ablation | `ami_ablation` (its printed table keeps the historical "E10" label) |
//! | E12 | predictive vs reactive scaling grid | `predictive_grid` |
//! | E13 | data-sharing options grid | `datashare_grid` |
//! | E14 | workflow-recovery policy grid | `recovery_grid` |
//! | E15 | federated placement grid | `federation_grid` |
//!
//! `cargo run --release -p cumulus-bench --bin all_experiments` prints the
//! full report recorded in EXPERIMENTS.md; every binary accepts
//! `--seed N` to vary the synthetic data and `--threads N` to size the
//! parallel sweep pool (`0` = one per CPU, the default; `1` = serial —
//! the report is byte-identical either way). Benches (`cargo bench`)
//! measure the simulator's own performance.

pub mod experiments {
    //! Experiment implementations, one module per paper artifact.
    pub mod ami;
    pub mod cloudman;
    pub mod datashare;
    pub mod extensions;
    pub mod federation;
    pub mod fig10;
    pub mod fig11;
    pub mod predictive;
    pub mod reconfig;
    pub mod recovery;
    pub mod spot;
    pub mod usecase;
}

pub mod table;

/// Default seed used by the report binaries (any seed reproduces the same
/// calibrated timings; the seed only varies synthetic data).
pub const REPORT_SEED: u64 = 20120512;

/// Parse `--seed N` (or `--seed=N`) from the process arguments, falling
/// back to `default`. Every report binary accepts this flag so a sweep
/// over seeds is a shell loop away. Panics with a usage message on a
/// malformed value rather than silently benchmarking the wrong thing.
pub fn seed_from_args(default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let arg = &args[i];
        let value = if arg == "--seed" {
            i += 1;
            args.get(i).cloned()
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            Some(v.to_string())
        } else {
            i += 1;
            continue;
        };
        let Some(value) = value else {
            panic!("--seed requires a value, e.g. --seed 42");
        };
        return value
            .parse()
            .unwrap_or_else(|_| panic!("--seed expects an unsigned integer, got {value:?}"));
    }
    default
}

/// Parse `--threads N` (or `--threads=N`) from the process arguments,
/// falling back to `default`. `0` means one worker per CPU; `1` forces a
/// serial sweep. Thread count never changes the report — parallel sweeps
/// merge in replica order — only how fast it is produced.
pub fn threads_from_args(default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let arg = &args[i];
        let value = if arg == "--threads" {
            i += 1;
            args.get(i).cloned()
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            Some(v.to_string())
        } else {
            i += 1;
            continue;
        };
        let Some(value) = value else {
            panic!("--threads requires a value, e.g. --threads 4");
        };
        return value
            .parse()
            .unwrap_or_else(|_| panic!("--threads expects an unsigned integer, got {value:?}"));
    }
    default
}

/// Write `doc` as `file` at the repo root. The grid binaries call it on
/// full-grid runs only: a `--quick` grid is the trimmed CI smoke shape and
/// must not replace the committed full-grid results.
pub fn write_repo_file(file: &str, doc: &cumulus::provision::json::Json) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, doc.render() + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// Whether `--report` was passed: experiment binaries then append their
/// telemetry episode report (per-job walltime decomposition assembled
/// from lifecycle spans) after the regular table. Off by default so the
/// standard outputs stay byte-identical to the pre-telemetry tree.
pub fn report_from_args() -> bool {
    std::env::args().any(|a| a == "--report")
}

/// First positional argument (ignoring `--seed`/`--threads` flags and
/// their values), parsed, or `default`. The replica-count argument of the
/// Monte-Carlo binaries.
pub fn positional_from_args(default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let arg = &args[i];
        if arg == "--seed" || arg == "--threads" {
            i += 2;
            continue;
        }
        if arg.starts_with("--seed=") || arg.starts_with("--threads=") {
            i += 1;
            continue;
        }
        return arg
            .parse()
            .unwrap_or_else(|_| panic!("expected a replica count, got {arg:?}"));
    }
    default
}

/// Assemble the full experiment report (what EXPERIMENTS.md records).
pub fn full_report(fault_replicas: usize) -> String {
    full_report_seeded(REPORT_SEED, fault_replicas)
}

/// [`full_report`] with an explicit seed (the `--seed` flag of
/// `all_experiments`).
pub fn full_report_seeded(seed: u64, fault_replicas: usize) -> String {
    let mut out = String::new();
    out.push_str("# cumulus experiment report\n\n");
    out.push_str(&experiments::usecase::run(seed));
    out.push('\n');
    out.push_str(&experiments::fig10::run(seed));
    out.push('\n');
    out.push_str(&experiments::fig11::run());
    out.push('\n');
    out.push_str(&experiments::reconfig::run(seed));
    out.push('\n');
    out.push_str(&experiments::cloudman::run(seed));
    out.push('\n');
    out.push_str(&experiments::extensions::run_stream_sweep());
    out.push('\n');
    out.push_str(&experiments::extensions::run_fault_sensitivity(
        fault_replicas,
    ));
    out.push('\n');
    out.push_str(&experiments::extensions::run_autoscale(seed));
    out.push('\n');
    out.push_str(&experiments::extensions::run_policy_sweep(seed));
    out.push('\n');
    out.push_str(&experiments::extensions::run_nfs_contention());
    out.push('\n');
    out.push_str(&experiments::ami::run(seed));
    out
}
