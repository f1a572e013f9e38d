//! The repository benchmark: seeded workloads over the threaded runtime
//! and the simulator, their correctness checks, and the end-to-end and
//! per-layer metrics they print. See README.md for the workloads and the
//! layer map.

pub mod inputs;
mod layers;
mod probe;
pub mod report;
pub mod rt;
pub mod sim;
pub mod stats;
