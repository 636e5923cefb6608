//! End-to-end episode benchmark for cumulus.
//!
//! Four scaled Galaxy/Condor episodes drive every layer through its
//! public functions: the Condor pool, the data plane, the federation,
//! the scalers, the DES and telemetry, and cloud deploy and billing. The
//! drivers are instrumented copies of the shipped E13, E15 and E9e loops
//! and reproduce those experiments field for field at their shipped
//! parameters (see `tests/shipped.rs`). An untraced run gives the
//! end-to-end numbers; a traced run records a host-time span around every
//! layer call and gives the per-layer numbers. Run it from the repository
//! root:
//!
//! ```text
//! cargo run --release --manifest-path episode_bench/Cargo.toml -- \
//!     --workload cached_reuse --seed 1 --seconds 20 --trace 0
//! ```

pub mod drivers {
    //! One instrumented episode loop per shipped experiment shape.
    pub mod datashare;
    pub mod elastic;
    pub mod federated;
}
pub mod calibrate;
pub mod layers;
pub mod outcome;
pub mod runner;
pub mod spec;
pub mod trace;
