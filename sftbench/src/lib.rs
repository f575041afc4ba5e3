//! End-to-end and per-layer benchmark of an n = 4 SFT-DiemBFT cluster
//! over loopback TCP. `NOTES.md` explains the workloads and metrics.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod count;
pub mod isolated;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
