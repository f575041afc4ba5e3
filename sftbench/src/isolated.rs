//! Isolated costs of public functions, at a workload's shapes, to set
//! against each layer's measured share of the end-to-end time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sft_core::{honest_endorse_info, Block, BlockStore, Mempool};
use sft_crypto::rng::SplitMix64;
use sft_crypto::{BatchItem, HashValue, KeyRegistry};
use sft_fbft::FbftMessage;
use sft_types::{
    BatchConfig, ClientFrame, ClientRequest, Decode, Encode, EndorseMode, Envelope, Payload,
    ProtocolTag, ReplicaId, Round, Transaction,
};

use crate::workload::{next_payload, BATCH_SIZE};

/// Each measurement repeats its call for at least this long.
const BUDGET: Duration = Duration::from_millis(100);
/// …and at least this many times.
const MIN_CALLS: usize = 5;

/// The median time of one call to `f`, in microseconds. Calls are timed
/// in batches sized so each batch takes about a millisecond.
fn micros_per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let first = start.elapsed().max(Duration::from_nanos(1));
    let per_batch = (Duration::from_millis(1).as_nanos() / first.as_nanos()).clamp(1, 100_000);
    let mut samples = Vec::new();
    let started = Instant::now();
    while started.elapsed() < BUDGET || samples.len() < MIN_CALLS {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / per_batch as f64);
    }
    crate::stats::median(&samples)
}

fn transactions(count: usize, payload_bytes: usize) -> Vec<Transaction> {
    let mut rng = SplitMix64::new(count as u64);
    (0..count as u64)
        .map(|seq| Transaction::new(1, seq, next_payload(&mut rng, payload_bytes)))
        .collect()
}

/// `honest_endorse_info` in Marker mode for a vote on the block after a
/// chain `depth` blocks deep, the voter having voted for every block of
/// it (an honest voter's history on a fault-free run).
pub fn endorse_info_us(depth: u64) -> f64 {
    let mut store = BlockStore::new();
    let mut voted = Vec::with_capacity(depth as usize);
    let mut tip = store.genesis().clone();
    for round in 1..=depth {
        let block = Block::new(&tip, Round::new(round), ReplicaId::new(0), Payload::empty());
        store.insert(block.clone()).expect("chain block inserts");
        voted.push((block.round(), block.id()));
        tip = block;
    }
    let next = Block::new(
        &tip,
        Round::new(depth + 1),
        ReplicaId::new(0),
        Payload::empty(),
    );
    store.insert(next.clone()).expect("next block inserts");
    micros_per_call(|| {
        black_box(honest_endorse_info(
            EndorseMode::Marker,
            black_box(&store),
            black_box(&voted),
            black_box(&next),
        ));
    })
}

/// `Mempool::try_submit` per transaction and `Mempool::next_batch` per
/// call, at `payload_bytes` per transaction and one full batch.
pub fn mempool_us(payload_bytes: usize) -> (f64, f64) {
    let template = transactions(BATCH_SIZE as usize, payload_bytes);
    let batch = BatchConfig::with_max_txns(BATCH_SIZE);
    let mut submit = Vec::new();
    let mut drain = Vec::new();
    let started = Instant::now();
    while started.elapsed() < BUDGET || submit.len() < MIN_CALLS {
        let txns = template.clone();
        let mut pool = Mempool::new();
        let t = Instant::now();
        for txn in txns {
            black_box(pool.try_submit(txn));
        }
        submit.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(BATCH_SIZE));
        let t = Instant::now();
        black_box(pool.next_batch(batch));
        drain.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (crate::stats::median(&submit), crate::stats::median(&drain))
}

/// The payload digest (SHA-256 over every transaction) of one block
/// carrying `txns` transactions of `payload_bytes`.
pub fn sha256_block_us(txns: usize, payload_bytes: usize) -> f64 {
    let payload = Payload::Transactions(transactions(txns.max(1), payload_bytes));
    micros_per_call(|| {
        black_box(black_box(&payload).digest());
    })
}

/// One HMAC signature over a vote-sized digest.
pub fn hmac_sign_us() -> f64 {
    let key = KeyRegistry::deterministic(4).key_pair(0).expect("key 0");
    let message = HashValue::of(b"vote");
    micros_per_call(|| {
        black_box(key.sign(black_box(message.as_ref())));
    })
}

/// One batched verification of a quorum of three signatures (n = 4).
pub fn verify_batch_q3_us() -> f64 {
    let registry = KeyRegistry::deterministic(4);
    let message = HashValue::of(b"vote");
    let sigs: Vec<_> = (0..3u64)
        .map(|i| registry.key_pair(i).expect("key").sign(message.as_ref()))
        .collect();
    let items: Vec<BatchItem<'_>> = sigs
        .iter()
        .enumerate()
        .map(|(i, sig)| BatchItem::new(i as u64, message.as_ref(), sig))
        .collect();
    micros_per_call(|| {
        black_box(registry.verify_batch(black_box(&items))).expect("valid quorum");
    })
}

/// Decoding one proposal as it arrives: the envelope frame, then the
/// protocol message inside it.
pub fn proposal_decode_us(proposal: &[u8]) -> f64 {
    let frame =
        Envelope::broadcast(ReplicaId::new(0), ProtocolTag::Fbft, proposal.to_vec()).to_frame();
    micros_per_call(|| {
        let (env, _) = Envelope::decode_frame(black_box(&frame))
            .expect("frame decodes")
            .expect("frame is whole");
        black_box(FbftMessage::from_bytes(&env.payload).expect("proposal decodes"));
    })
}

/// Encoding one client request frame and decoding it at the gateway.
pub fn client_frame_us(payload_bytes: usize) -> f64 {
    let txn = transactions(1, payload_bytes).remove(0);
    let req = ClientRequest::new(txn, 2);
    micros_per_call(|| {
        let frame = Envelope::to_peer(
            ReplicaId::new(1000),
            ReplicaId::new(0),
            ProtocolTag::Client,
            ClientFrame::Request(black_box(&req).clone()).to_bytes(),
        )
        .to_frame();
        let (env, _) = Envelope::decode_frame(&frame)
            .expect("frame decodes")
            .expect("frame is whole");
        black_box(ClientFrame::from_bytes(&env.payload).expect("request decodes"));
    })
}
