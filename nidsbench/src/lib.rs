//! End-to-end benchmark of the NIDS pipeline: seeded workloads driven
//! through `mpm_stream::PipelineScanner`, every alert of a sampled set of
//! flows checked against an independent oracle, and a separate traced run
//! that charges each layer for what it costs. See `README.md`.

pub mod drive;
pub mod layers;
pub mod run;
pub mod setup;
pub mod spans;
pub mod workload;
