//! # perfbench — the outside-in benchmark of MATCH-RS
//!
//! One command runs one of four workloads (`figures-cold`, `figures-warm`,
//! `explore`, `scale-16k`) and prints its end-to-end metrics, or — with
//! `--trace 1` — the per-layer metrics of a traced run. The benchmark measures
//! each layer from outside: it times calls into the public functions of the
//! program's crates and reads their exact counters; the program itself carries
//! no tracing. See `perfbench/METRICS.md` for every metric, its unit and the
//! end-to-end metric and workload it is predicted to move.

mod figures;
pub mod host;
pub mod layers;
mod redrive;
pub mod stats;
pub mod workloads;
