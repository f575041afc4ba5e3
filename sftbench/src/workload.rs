//! The benchmark's workloads and the seeded inputs each trial sends.
//!
//! Every workload differs from `sft_small` in exactly one input, so a
//! change that moves one workload and not its sibling points at the layer
//! that input loads. Why each one exists is recorded in `NOTES.md`.

use sft_crypto::rng::{RngCore, SplitMix64};
use sft_types::EndorseMode;

/// Closed-loop window per client connection.
pub const WINDOW: usize = 32;
/// Replicas whose client gateways the two connections dial.
pub const GATEWAYS: [u16; 2] = [0, 1];
/// Ack strength each connection requests: standard commit (`x = 0`) on
/// the first, the `2f = 2` ceiling on the second.
pub const ACK_AT: [u64; 2] = [0, 2];
/// Transactions a leader drains per proposal.
pub const BATCH_SIZE: u32 = 64;
/// Replicas in the cluster (`f = 1`).
pub const N: usize = 4;

/// One set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Endorsement info honest voters attach.
    pub endorse: EndorseMode,
    /// Payload bytes per transaction.
    pub payload_bytes: usize,
    /// Requests each client connection submits per trial.
    pub per_client: u64,
}

/// Every workload `--workload` accepts.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sft_small",
        endorse: EndorseMode::Marker,
        payload_bytes: 128,
        per_client: 2500,
    },
    Workload {
        name: "vanilla_small",
        endorse: EndorseMode::Vanilla,
        payload_bytes: 128,
        per_client: 2500,
    },
    Workload {
        name: "sft_bulk",
        endorse: EndorseMode::Marker,
        payload_bytes: 4096,
        per_client: 2500,
    },
];

/// The workloads `BENCHMARK.json` lists and `--workload all` runs.
/// `vanilla_small` is left out: its laggard-replica stall sometimes
/// turns into acks that never come, so its runs neither agree nor pass
/// the correctness gate (see `NOTES.md`). It stays runnable, to
/// reproduce that defect.
pub const KEPT: [&str; 2] = ["sft_small", "sft_bulk"];

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }
}

/// What one client connection sends in one trial, all derived from the
/// run's seed: its identity and the seed of its payload stream. The
/// replicas see only the requests built from these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientInputs {
    /// The client id (hello frame source and `Transaction::client`).
    pub client: u16,
    /// Seed of the payload byte stream.
    pub payload_seed: u64,
}

/// Derives both connections' inputs for trial `trial` of a run seeded
/// with `seed`. Ids stay clear of the replica ids and never repeat within
/// a trial.
pub fn client_inputs(seed: u64, trial: u64) -> [ClientInputs; 2] {
    let mut rng = SplitMix64::new(seed ^ trial.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let first = 1_000 + rng.next_below(30_000) as u16;
    let second = 31_000 + rng.next_below(30_000) as u16;
    [
        ClientInputs {
            client: first,
            payload_seed: rng.next_u64(),
        },
        ClientInputs {
            client: second,
            payload_seed: rng.next_u64(),
        },
    ]
}

/// The payload of a client's next transaction, drawn from its stream.
pub fn next_payload(rng: &mut SplitMix64, bytes: usize) -> Vec<u8> {
    let mut payload = vec![0u8; bytes];
    rng.fill_bytes(&mut payload);
    payload
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(client_inputs(7, 0), client_inputs(7, 0));
        assert_ne!(client_inputs(7, 0), client_inputs(8, 0));
        assert_ne!(client_inputs(7, 0), client_inputs(7, 1));
        let [a, b] = client_inputs(7, 3);
        assert_ne!(a.client, b.client);
        assert!(a.client as usize >= N && b.client as usize >= N);
    }

    #[test]
    fn workloads_differ_from_sft_small_in_one_input() {
        let base = WORKLOADS[0];
        for w in &WORKLOADS[1..] {
            let differs = usize::from(w.endorse != base.endorse)
                + usize::from(w.payload_bytes != base.payload_bytes)
                + usize::from(w.per_client != base.per_client);
            assert_eq!(differs, 1, "{}", w.name);
        }
    }
}
