//! Host-time spans recorded around every call the episode drivers make
//! into a layer.
//!
//! A span has a name, a start, an end, a parent, and the id of the
//! episode it belongs to. Spans are kept in memory and summarised (or
//! written out) when the episode ends. A disabled tracer records nothing:
//! `open`/`close` are a single branch, so the untraced run measures the
//! program and not the instrument.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own episode loop and event handlers.
    Driver,
    /// `cumulus::htc` (Condor pool).
    Htc,
    /// `cumulus::store` (data plane).
    Store,
    /// `cumulus::federation`.
    Federation,
    /// `cumulus::autoscale`.
    Autoscale,
    /// `cumulus::simkit` (DES and telemetry).
    Simkit,
    /// `cumulus::cloud` / `cumulus::provision` (deploy and billing).
    Cloud,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Driver,
        Layer::Htc,
        Layer::Store,
        Layer::Federation,
        Layer::Autoscale,
        Layer::Simkit,
        Layer::Cloud,
    ];
}

/// What a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    /// Root of the set-up phase (the deployment the episode runs on).
    Setup,
    /// Root of the episode phase: first arrival through billing close.
    Episode,
    /// One event handler of the benchmark running inside `Sim::run`.
    Handler,
    /// `CondorPool::negotiate`.
    Negotiate,
    /// `CondorPool::settle`.
    Settle,
    /// Building the job ad and `CondorPool::submit`.
    Submit,
    /// Machine-ad changes: `extend_job`, the cache-ad `set`, and machine
    /// joins and drains.
    Advertise,
    /// Pool machines added at set-up.
    AddMachines,
    /// `DataPlane::stage_job`.
    StageJob,
    /// `CacheFleet::attr_string`.
    AttrString,
    /// `DataPlane::new` plus `seed_dataset` for every dataset.
    Seed,
    /// `Federation::route`.
    FedRoute,
    /// `Federation::stage_job`.
    FedStageJob,
    /// `Site::add_worker` / `Site::remove_idle_worker`.
    FedScale,
    /// `Federation::close_billing` and the cost queries.
    FedBilling,
    /// `Federation::provision` plus its dataset seeding.
    FedProvision,
    /// `SiteScaler::desired`.
    Desired,
    /// `AutoScaler::tick`.
    Tick,
    /// `Sim::run`.
    SimRun,
    /// `Sim::schedule_at` / `schedule_every` for the arrival stream and the
    /// control loop.
    SimSchedule,
    /// Span assembly, `JobBreakdown`, and digest of the episode telemetry.
    TelemetryReport,
    /// `GpCloud` creation, instance creation and start.
    CloudDeploy,
    /// Teardown scale-to-zero and the billing-window cost.
    CloudBilling,
}

impl Name {
    /// The layer this span is charged to.
    pub fn layer(self) -> Layer {
        match self {
            Name::Setup | Name::Episode | Name::Handler => Layer::Driver,
            Name::Negotiate | Name::Settle | Name::Submit | Name::Advertise | Name::AddMachines => {
                Layer::Htc
            }
            Name::StageJob | Name::AttrString | Name::Seed => Layer::Store,
            Name::FedRoute
            | Name::FedStageJob
            | Name::FedScale
            | Name::FedBilling
            | Name::FedProvision => Layer::Federation,
            Name::Desired | Name::Tick => Layer::Autoscale,
            Name::SimRun | Name::SimSchedule | Name::TelemetryReport => Layer::Simkit,
            Name::CloudDeploy | Name::CloudBilling => Layer::Cloud,
        }
    }

    /// The span's name in the written trace and in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Name::Setup => "driver.setup",
            Name::Episode => "driver.episode",
            Name::Handler => "driver.handler",
            Name::Negotiate => "htc.negotiate",
            Name::Settle => "htc.settle",
            Name::Submit => "htc.submit",
            Name::Advertise => "htc.advertise",
            Name::AddMachines => "htc.add_machines",
            Name::StageJob => "store.stage_job",
            Name::AttrString => "store.attr_string",
            Name::Seed => "store.seed",
            Name::FedRoute => "federation.route",
            Name::FedStageJob => "federation.stage_job",
            Name::FedScale => "federation.scale",
            Name::FedBilling => "federation.billing",
            Name::FedProvision => "federation.provision",
            Name::Desired => "autoscale.desired",
            Name::Tick => "autoscale.tick",
            Name::SimRun => "simkit.des.run",
            Name::SimSchedule => "simkit.des.schedule",
            Name::TelemetryReport => "simkit.telemetry.report",
            Name::CloudDeploy => "cloud.deploy",
            Name::CloudBilling => "cloud.billing",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span wraps.
    pub name: Name,
    /// Open time.
    pub start_ns: u64,
    /// Close time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The episode the span belongs to.
    pub episode: u32,
}

impl Span {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder of one process.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    episode: u32,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            episode: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer whose spans carry `episode`.
    pub fn on(episode: u32) -> Tracer {
        Tracer {
            on: true,
            episode,
            ..Tracer::off()
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    #[inline]
    pub fn open(&mut self, name: Name) {
        if !self.on {
            return;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            episode: self.episode,
        });
        self.stack.push(idx);
    }

    /// Close the innermost open span.
    #[inline]
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let idx = self.stack.pop().expect("close matches an open span");
        self.spans[idx as usize].end_ns = end;
    }

    /// Run `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// The spans recorded so far. Every span is closed once the phase
    /// that opened them returns.
    pub fn spans(&self) -> &[Span] {
        assert!(self.stack.is_empty(), "spans read while one is open");
        &self.spans
    }

    /// Drop every recorded span (the set-up phase is repeated to time it;
    /// only the repetition the episode runs on is kept).
    pub fn clear(&mut self) {
        assert!(self.stack.is_empty(), "tracer cleared while a span is open");
        self.spans.clear();
    }
}

/// Per-name aggregates of a span list, plus self time per layer.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    /// Total duration per span name.
    pub busy_ns: BTreeMap<Name, u64>,
    /// Spans per name.
    pub calls: BTreeMap<Name, u64>,
    /// Every duration per name, for percentiles.
    pub durations: BTreeMap<Name, Vec<u64>>,
    /// Self time (duration minus the part covered by children) per name.
    pub self_ns: BTreeMap<Name, u64>,
}

impl Profile {
    /// Aggregate `spans`. Children of one parent never overlap (the
    /// drivers are single-threaded and spans nest as a stack), so a
    /// span's self time is its duration minus its children's durations.
    pub fn of(spans: &[Span]) -> Profile {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut prof = Profile::default();
        for (i, s) in spans.iter().enumerate() {
            let d = s.dur_ns();
            *prof.busy_ns.entry(s.name).or_default() += d;
            *prof.calls.entry(s.name).or_default() += 1;
            prof.durations.entry(s.name).or_default().push(d);
            *prof.self_ns.entry(s.name).or_default() += d - child_ns[i];
        }
        prof
    }

    /// Total duration of `name` spans, nanoseconds.
    pub fn busy_ns(&self, name: Name) -> u64 {
        self.busy_ns.get(&name).copied().unwrap_or(0)
    }

    /// Number of `name` spans.
    pub fn calls(&self, name: Name) -> u64 {
        self.calls.get(&name).copied().unwrap_or(0)
    }

    /// Self time of `name` spans, nanoseconds.
    pub fn self_ns(&self, name: Name) -> u64 {
        self.self_ns.get(&name).copied().unwrap_or(0)
    }

    /// Self time summed over every span of `layer`, nanoseconds.
    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        self.self_ns
            .iter()
            .filter(|(n, _)| n.layer() == layer)
            .map(|(_, v)| *v)
            .sum()
    }

    /// The `q` quantile (nearest rank) of `name` durations, nanoseconds.
    pub fn quantile_ns(&self, name: Name, q: f64) -> u64 {
        let Some(d) = self.durations.get(&name) else {
            return 0;
        };
        let mut d = d.clone();
        d.sort_unstable();
        let rank = ((q * d.len() as f64).ceil() as usize).clamp(1, d.len());
        d[rank - 1]
    }
}

/// Render spans as tab-separated lines: episode, index, parent (or -1),
/// name, start and end in nanoseconds.
pub fn render_tsv(spans: &[Span]) -> String {
    let mut out = String::from("episode\tspan\tparent\tname\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, i64::from);
        let _ = writeln!(
            out,
            "{}\t{i}\t{parent}\t{}\t{}\t{}",
            s.episode,
            s.name.label(),
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span(Name::Negotiate, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let mut t = Tracer::on(3);
        t.open(Name::Episode);
        t.span(Name::Negotiate, || std::hint::black_box(0));
        t.open(Name::SimRun);
        t.open(Name::Handler);
        t.span(Name::Settle, || std::hint::black_box(0));
        t.close();
        t.close();
        t.close();
        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        assert!(spans.iter().all(|s| s.episode == 3));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        let p = Profile::of(spans);
        let total: u64 = Layer::ALL.iter().map(|&l| p.layer_self_ns(l)).sum();
        assert_eq!(total, spans[0].dur_ns());
        assert!(render_tsv(spans).lines().count() == 6);
    }
}
