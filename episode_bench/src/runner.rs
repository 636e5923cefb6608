//! One episode of one workload: generate the inputs, time the set-up
//! (several repetitions, the last of which the episode runs on), run the
//! episode, and keep the spans when traced.

use std::time::Instant;

use crate::drivers::{datashare, elastic, federated};
use crate::outcome::Outcome;
use crate::spec::Spec;
use crate::trace::{Span, Tracer};

/// Set-up repetitions per episode: at least this many, and more until
/// their total reaches [`SETUP_BUDGET_NS`], so that set-ups of a few
/// microseconds are timed as often as slow ones fit.
const MIN_SETUP_REPS: usize = 3;
/// Host time spent on set-up repetitions per episode.
const SETUP_BUDGET_NS: u64 = 100_000_000;

/// The measured result of one episode.
#[derive(Debug)]
pub struct Run {
    /// Host time of every set-up repetition, nanoseconds.
    pub setup_ns: Vec<u64>,
    /// The episode's outcome.
    pub outcome: Outcome,
    /// Spans of the set-up the episode ran on (traced runs only).
    pub setup_spans: Vec<Span>,
    /// Spans of the episode (traced runs only).
    pub episode_spans: Vec<Span>,
}

impl Run {
    /// Median set-up time, nanoseconds.
    pub fn setup_median_ns(&self) -> u64 {
        let mut v = self.setup_ns.clone();
        v.sort_unstable();
        v[v.len() / 2]
    }
}

fn tracer(traced: bool, episode: u32) -> Tracer {
    if traced {
        Tracer::on(episode)
    } else {
        Tracer::off()
    }
}

fn measure<D>(
    traced: bool,
    episode: u32,
    mut setup: impl FnMut(&mut Tracer) -> D,
    run: impl FnOnce(D, &mut Tracer) -> Outcome,
) -> Run {
    let mut setup_tracer = tracer(traced, episode);
    let mut setup_ns = Vec::new();
    let mut total_ns = 0;
    let mut deployment = None;
    while setup_ns.len() < MIN_SETUP_REPS || total_ns < SETUP_BUDGET_NS {
        // Only one deployment is alive at a time, so repetitions do not
        // raise the peak memory the episode reports.
        drop(deployment.take());
        setup_tracer.clear();
        let t0 = Instant::now();
        let d = setup(&mut setup_tracer);
        let ns = t0.elapsed().as_nanos() as u64;
        setup_ns.push(ns);
        total_ns += ns;
        deployment = Some(d);
    }
    let mut episode_tracer = tracer(traced, episode);
    let outcome = run(
        deployment.expect("at least one set-up ran"),
        &mut episode_tracer,
    );
    Run {
        setup_ns,
        outcome,
        setup_spans: setup_tracer.spans().to_vec(),
        episode_spans: episode_tracer.spans().to_vec(),
    }
}

/// Run one episode of `spec` on the inputs generated from `seed`.
pub fn run_episode(spec: &Spec, seed: u64, traced: bool, episode: u32) -> Run {
    match spec {
        Spec::Datashare(s) => {
            let inputs = s.inputs(seed);
            measure(
                traced,
                episode,
                |t| datashare::setup(s, &inputs, t),
                |d, t| datashare::run(s, &inputs, d, t).1,
            )
        }
        Spec::Federated(s) => {
            let inputs = s.inputs(seed);
            measure(
                traced,
                episode,
                |t| federated::setup(s, &inputs, t),
                |d, t| federated::run(s, &inputs, d, t).1,
            )
        }
        Spec::Elastic(s) => {
            let arrivals = s.trace(seed);
            measure(
                traced,
                episode,
                |t| elastic::setup(seed, t),
                |d, t| elastic::run(s, &arrivals, d, t).1,
            )
        }
    }
}
