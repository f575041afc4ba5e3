//! The exact-count pass: the workload's replica set under the
//! deterministic simulator (`SimConfig::run`, write-through in-memory
//! WAL, pre-fed full batches of the workload's transaction size). Its
//! counts repeat byte for byte, so a count claim can rest on them.

use sft_sim::{DurabilityMode, SimReport};
use sft_types::EndorseMode;

use crate::cluster::sim_config;
use crate::stats::{metric, Metric};
use crate::workload::{Workload, BATCH_SIZE};

/// Rounds the pass runs to.
const ROUNDS: u64 = 60;

fn pass(w: &Workload) -> SimReport {
    sim_config(w, ROUNDS)
        .with_live_clients(false)
        .with_workload(BATCH_SIZE, w.payload_bytes as u32)
        .with_durability(DurabilityMode::WriteThrough)
        .run()
}

/// Runs the pass on `w`, and on `w` with vanilla votes for the messages
/// and bytes the §3 bookkeeping must leave linear, and returns the
/// per-committed-block counts.
pub fn exact_counts(w: &Workload) -> Vec<Metric> {
    let report = pass(w);
    let blocks = report.max_committed().max(1) as f64;
    let per_block = |v: u64| v as f64 / blocks;
    let vanilla = pass(&Workload {
        endorse: EndorseMode::Vanilla,
        ..*w
    });
    let vanilla_blocks = vanilla.max_committed().max(1) as f64;
    vec![
        metric(
            "count.msgs_per_block",
            "msgs",
            per_block(report.net.messages),
        ),
        metric("count.bytes_per_block", "B", per_block(report.net.bytes)),
        metric(
            "count.sig_verifications_per_block",
            "count",
            per_block(report.sig_verifications),
        ),
        metric(
            "count.walk_steps_per_block",
            "steps",
            per_block(report.walk_steps),
        ),
        // Write-through fsyncs once per record.
        metric(
            "count.wal_records_per_block",
            "records",
            per_block(report.wal_fsyncs),
        ),
        metric(
            "count.vanilla_msgs_per_block",
            "msgs",
            vanilla.net.messages as f64 / vanilla_blocks,
        ),
        metric(
            "count.vanilla_bytes_per_block",
            "B",
            vanilla.net.bytes as f64 / vanilla_blocks,
        ),
    ]
}
