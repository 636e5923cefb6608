//! A fixed reference kernel that measures how fast the host runs at the
//! moment.
//!
//! On a shared host, other tenants slow every episode by a common factor
//! that drifts over minutes (up to about 1.5x on a 2-vCPU Xeon VM, where
//! every workload and its set-up slowed together). The
//! benchmark times this kernel between episodes and scales each
//! episode's host time by [`NOMINAL_NS`] over the kernel's time around
//! it, so its end-to-end metrics read as they would on a host running the
//! kernel at its nominal speed. The kernel uses only `std` and none of
//! the program under test, so a change to the program cannot move it.
//! Like the workloads, it is pointer-heavy, allocates, and works on a few
//! megabytes, more than one core's L2.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Keys in the kernel's tree and map.
const KEYS: u64 = 50_000;
/// Kernel repetitions per measurement; the median is kept.
const REPS: usize = 3;
/// A typical time of the kernel on the 2-vCPU Xeon VM the bounds were
/// tuned on: the host speed the end-to-end metrics are scaled to.
pub const NOMINAL_NS: f64 = 32e6;

/// The reference kernel: build a B-tree and a hash map of `KEYS` random
/// keys, mix lookups, inserts and removals, then sort the survivors.
fn kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 17) % (4 * KEYS)
    };
    let mut tree = BTreeMap::new();
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..KEYS {
        tree.insert(next(), i);
        map.insert(next(), i);
    }
    let mut acc = 0u64;
    for i in 0..KEYS {
        acc = acc.wrapping_add(tree.get(&next()).copied().unwrap_or(i));
        acc = acc.wrapping_add(map.get(&next()).copied().unwrap_or(i));
        tree.remove(&next());
        map.insert(next(), acc);
    }
    let mut keys: Vec<u64> = tree.keys().chain(map.keys()).map(|k| k ^ acc).collect();
    keys.sort_unstable();
    acc.wrapping_add(keys[keys.len() / 2])
}

/// Time the reference kernel: the median of [`REPS`] runs, nanoseconds.
pub fn reference_ns() -> f64 {
    let mut times: Vec<u64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(kernel());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[REPS / 2] as f64
}
