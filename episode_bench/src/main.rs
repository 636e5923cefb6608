//! The episode benchmark's command line.
//!
//! ```text
//! episode_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--jobs <n>]
//! ```
//!
//! Runs whole episodes of the workload, one after another in this one
//! process, until `--seconds` of host time are spent. The first episode
//! is a warm-up: its outputs are checked but its times are not reported.
//! With `--trace 0` it prints the end-to-end metrics: the median
//! throughput and set-up time of the timed episodes, each scaled to the
//! reference host speed measured around it (see [`calibrate`]), and the
//! process's peak memory. With `--trace 1` it alternates traced and
//! untraced episodes and prints the per-layer medians (host time, not
//! scaled) plus the tracing overhead. Episodes cycle through
//! [`INPUT_SETS`] input sets generated from seeds derived from `--seed`.
//! Every episode's outputs are checked, and all episodes of one input
//! set, traced or not, must produce the same output digest. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. The process exits non-zero when any check fails.
//!
//! `--jobs <n>` regenerates the workload at about `n` jobs (workers and
//! arrival rate scaled together) for the scaling ladder; the default is
//! the full-size workload.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use cumulus::provision::Json;
use cumulus_episode_bench::calibrate;
use cumulus_episode_bench::layers::{self, PER_LAYER};
use cumulus_episode_bench::runner::run_episode;
use cumulus_episode_bench::spec::{Spec, Workload};
use cumulus_episode_bench::trace::{render_tsv, Span};

/// Input sets per run. The E13 and E15 shapes are critically loaded, so
/// one arrival realization's backlog moves host time by several percent;
/// cycling episodes through several realizations keeps a run's median
/// from resting on one. Each run covers every set at least once (once
/// traced and once untraced with `--trace 1`).
const INPUT_SETS: usize = 4;
/// Episodes per measured run, at most (only small `--jobs` episodes come
/// near it).
const MAX_EPISODES: usize = 200;
/// Largest `--jobs` the scaling ladder accepts.
const MAX_JOBS: u64 = 10_000_000;
/// Episodes at the start of a run whose times are not reported: the first
/// episode of a process pays page faults and cold caches that later ones
/// do not.
const WARM_UP: usize = 1;
/// Where a traced run writes the spans of its last traced episode,
/// relative to the working directory.
const SPANS_DIR: &str = ".bench_spans";

/// The end-to-end metrics with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    jobs: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {:?}", argv[i]))?;
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    let get = |k: &str| flags.get(k).map(String::as_str);
    let num = |k: &str| -> Result<Option<u64>, String> {
        get(k)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("--{k} {v:?} is not a number"))
            })
            .transpose()
    };
    for k in flags.keys() {
        if !["workload", "seed", "seconds", "trace", "jobs"].contains(&k.as_str()) {
            return Err(format!("unknown flag --{k}"));
        }
    }
    let name = get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let trace = match get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace {v:?} must be 0 or 1")),
    };
    let jobs = num("jobs")?;
    if jobs.is_some_and(|n| !(1..=MAX_JOBS).contains(&n)) {
        return Err(format!("--jobs must be between 1 and {MAX_JOBS}"));
    }
    Ok(Args {
        workload,
        seed: num("seed")?.unwrap_or(1),
        seconds: num("seconds")?.unwrap_or(10),
        trace,
        jobs: jobs.map(|n| n as usize),
    })
}

fn spec_of(args: &Args) -> Spec {
    let spec = args.workload.spec();
    match args.jobs {
        Some(n) => spec.scaled(n),
        None => spec,
    }
}

/// Peak resident memory of this process (VmHWM), kB.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// What one episode of the run contributes to the report.
struct Episode {
    input_set: usize,
    traced: bool,
    setup_ns: u64,
    episode_ns: u64,
    submitted: u64,
    completed: u64,
    digest: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// [`calibrate::NOMINAL_NS`] over the reference kernel's time around
    /// the episode: below 1 while the host runs slow.
    host_scale: f64,
}

impl Episode {
    /// Jobs per second of host time, as measured.
    fn host_jobs_per_s(&self) -> f64 {
        self.completed as f64 / (self.episode_ns.max(1) as f64 / 1e9)
    }

    /// Jobs per second at the reference host speed.
    fn jobs_per_s(&self) -> f64 {
        self.host_jobs_per_s() / self.host_scale
    }

    /// Set-up time at the reference host speed, seconds.
    fn setup_s(&self) -> f64 {
        self.setup_ns as f64 / 1e9 * self.host_scale
    }
}

/// The seed that generates input set `set` of a run with `seed`.
fn input_seed(seed: u64, set: usize) -> u64 {
    seed.wrapping_mul(INPUT_SETS as u64)
        .wrapping_add(set as u64)
}

/// Run one episode on input set `input_set`; when traced, also derive its
/// per-layer metrics, check the span decomposition, and return its set-up
/// and episode spans as one list.
fn episode(
    args: &Args,
    spec: &Spec,
    index: u32,
    input_set: usize,
    traced: bool,
) -> (Episode, Vec<(&'static str, String)>, Vec<Span>) {
    let run = run_episode(spec, input_seed(args.seed, input_set), traced, index);
    let mut failures = run.outcome.failures.clone();
    let mut metrics = BTreeMap::new();
    let mut spans = Vec::new();
    if traced {
        if let Err(e) = layers::check_decomposition(&run) {
            failures.push(e);
        }
        metrics = layers::metrics(&run);
        let base = run.setup_spans.len() as u32;
        spans = run
            .setup_spans
            .iter()
            .copied()
            .chain(run.episode_spans.iter().map(|s| Span {
                parent: s.parent.map(|p| p + base),
                ..*s
            }))
            .collect();
    }
    let o = &run.outcome;
    let e = Episode {
        input_set,
        traced,
        setup_ns: run.setup_median_ns(),
        episode_ns: o.episode_ns,
        submitted: o.submitted,
        completed: o.completed,
        digest: o.digest(),
        failures,
        metrics,
        host_scale: 1.0,
    };
    (e, run.outcome.outputs, spans)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn run(args: &Args) -> ExitCode {
    let spec = spec_of(args);
    let start = Instant::now();
    let per_set = if args.trace { 2 } else { 1 };
    let min_episodes = WARM_UP + per_set * INPUT_SETS;
    let mut episodes: Vec<Episode> = Vec::new();
    let mut outputs = Vec::new();
    let mut last_spans = Vec::new();
    let mut slowest = 0.0f64;
    let mut reference_ns = calibrate::reference_ns();
    loop {
        // Traced runs alternate a traced and an untraced episode on the
        // same input set, so the overhead compares like with like.
        let timed = episodes.len().saturating_sub(WARM_UP);
        let traced = args.trace && episodes.len() >= WARM_UP && timed.is_multiple_of(2);
        let input_set = timed / per_set % INPUT_SETS;
        let t0 = Instant::now();
        let (mut e, o, spans) = episode(args, &spec, episodes.len() as u32, input_set, traced);
        let after_ns = calibrate::reference_ns();
        e.host_scale = calibrate::NOMINAL_NS / ((reference_ns + after_ns) / 2.0);
        reference_ns = after_ns;
        eprintln!(
            "episode {} (input set {input_set}, {}): {:.0} jobs/s, set-up {:.6} s on the host; \
             host scale {:.4}; {:.0} jobs/s, set-up {:.6} s scaled",
            episodes.len(),
            if traced { "traced" } else { "untraced" },
            e.host_jobs_per_s(),
            e.setup_ns as f64 / 1e9,
            e.host_scale,
            e.jobs_per_s(),
            e.setup_s(),
        );
        if episodes.is_empty() {
            outputs = o;
        }
        if traced {
            last_spans = spans;
        }
        episodes.push(e);
        slowest = slowest.max(t0.elapsed().as_secs_f64());
        let elapsed = start.elapsed().as_secs_f64();
        if episodes.len() >= min_episodes
            && (elapsed + slowest > args.seconds as f64 || episodes.len() >= MAX_EPISODES)
        {
            break;
        }
    }
    let rss_mb = peak_rss_kb() as f64 / 1024.0;
    if args.trace {
        // The last traced episode's spans, written once the run is over.
        let path = format!("{SPANS_DIR}/{}-seed{}.tsv", args.workload.name(), args.seed);
        if let Err(e) = std::fs::create_dir_all(SPANS_DIR)
            .and_then(|()| std::fs::write(&path, render_tsv(&last_spans)))
        {
            eprintln!("episode_bench: could not write {path}: {e}");
        }
    }

    let digests: BTreeMap<usize, u64> = episodes.iter().map(|e| (e.input_set, e.digest)).collect();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (i, e) in episodes.iter().enumerate() {
        attempted += e.submitted;
        if e.failures.is_empty() {
            failed += e.submitted - e.completed.min(e.submitted);
        } else {
            // A run that fails an output check counts all its jobs failed.
            failed += e.submitted;
            failures.extend(e.failures.iter().map(|f| format!("episode {i}: {f}")));
        }
        let reference = digests[&e.input_set];
        if e.digest != reference {
            failures.push(format!(
                "episode {i} ({}) output digest {:#018x} differs from {reference:#018x} on input set {}",
                if e.traced { "traced" } else { "untraced" },
                e.digest,
                e.input_set,
            ));
        }
    }
    let correct = failures.is_empty();

    let timed = &episodes[WARM_UP.min(episodes.len())..];
    let untraced: Vec<&Episode> = timed.iter().filter(|e| !e.traced).collect();
    let traced: Vec<&Episode> = timed.iter().filter(|e| e.traced).collect();
    let jobs_per_s = |es: &[&Episode]| median(es.iter().map(|e| e.jobs_per_s()).collect());
    let mut metrics: Vec<(&'static str, f64, &str)> = Vec::new();
    if args.trace {
        let traced_jps = jobs_per_s(&traced);
        for &(name, unit) in PER_LAYER {
            let value = match name {
                "trace.jobs_per_s" => traced_jps,
                "trace.overhead" => jobs_per_s(&untraced) / traced_jps,
                _ => median(traced.iter().map(|e| e.metrics[name]).collect()),
            };
            metrics.push((name, value, unit));
        }
    } else {
        let setup_s = median(untraced.iter().map(|e| e.setup_s()).collect());
        for &(name, unit) in END_TO_END {
            let value = match name {
                "jobs_per_s" => jobs_per_s(&untraced),
                "setup_s" => setup_s,
                _ => rss_mb,
            };
            metrics.push((name, value, unit));
        }
    }

    println!(
        "workload {} seed {} episodes {} ({} traced) wall {:.1} s",
        args.workload.name(),
        args.seed,
        episodes.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "host (unscaled) medians: {:.0} jobs/s, set-up {:.6} s, host scale {:.4}",
        median(untraced.iter().map(|e| e.host_jobs_per_s()).collect()),
        median(untraced.iter().map(|e| e.setup_ns as f64 / 1e9).collect()),
        median(timed.iter().map(|e| e.host_scale).collect()),
    );
    for (set, digest) in &digests {
        println!(
            "output_digest input set {set} (seed {}) {digest:#018x}",
            input_seed(args.seed, *set)
        );
    }
    for (k, v) in &outputs {
        println!("output input set 0 {k} {v}");
    }
    for f in &failures {
        println!("FAILED {f}");
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }

    // Non-finite values (a ratio over an empty count) are written as 0.
    let metrics = metrics.iter().map(|&(name, value, unit)| {
        let value = if value.is_finite() { value } else { 0.0 };
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    });
    let summary = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", summary.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("episode_bench: {e}");
            eprintln!(
                "usage: episode_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--jobs <n>]"
            );
            ExitCode::from(2)
        }
    }
}
