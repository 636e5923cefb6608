//! What one episode hands back to the runner: job counts, the simulated
//! outputs that are checked and digested, the layer counters the traced
//! report needs, and any failed output check.

/// Layer counters read at the call boundaries. They are simulated-work
/// counts, not times, so the untraced and traced runs agree on them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// `negotiate` calls.
    pub negotiate_calls: u64,
    /// `negotiate` calls that matched nothing.
    pub negotiate_empty: u64,
    /// Matches returned by `negotiate`.
    pub matches: u64,
    /// Largest idle queue seen at a negotiation (summed over sites);
    /// sampled in the traced run only.
    pub idle_max: u64,
    /// Bytes staged per rung: local, peer, object, remote, nfs, ingest.
    pub bytes: [u64; 6],
    /// Worker-cache evictions.
    pub evictions: u64,
    /// Object-store PUTs (WAN replication).
    pub object_puts: u64,
    /// WAN crossings.
    pub wan_crossings: u64,
    /// Bytes that left a site over the WAN.
    pub wan_bytes_egress: u64,
    /// Site workers added or removed.
    pub fed_scale_actions: u64,
    /// Controller decisions that changed the worker count.
    pub scale_actions: u64,
    /// Events executed by the DES.
    pub des_events: u64,
    /// Telemetry events recorded.
    pub telemetry_events: u64,
}

/// The result of one episode.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Host time from the first arrival through drain, billing close and
    /// the telemetry report, nanoseconds.
    pub episode_ns: u64,
    /// Simulated results, in a fixed order: what the output digest
    /// covers. Outputs, never metrics.
    pub outputs: Vec<(&'static str, String)>,
    /// Layer counters.
    pub counters: Counters,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record a simulated output.
    pub fn output(&mut self, key: &'static str, value: impl ToString) {
        self.outputs.push((key, value.to_string()));
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// FNV-1a over the rendered outputs: identical across runs of one
    /// seed, and between traced and untraced runs.
    pub fn digest(&self) -> u64 {
        fnv64(
            self.outputs
                .iter()
                .flat_map(|(k, v)| k.bytes().chain([b'=']).chain(v.bytes()).chain([b'\n'])),
        )
    }
}

/// FNV-1a, 64 bit.
pub fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Render an `f64` with every digit, so the digest sees the exact value.
pub fn exact(x: f64) -> String {
    format!("{x:?}")
}
