//! Scale stress for the loopback TCP mesh: the event-driven thread model
//! must hold its O(n) thread budget and lose nothing under an
//! all-to-all broadcast storm at n = 31 (f = 10, the first of the
//! paper's large sweep sizes).

use std::sync::{Arc, Mutex, MutexGuard};

use sft_network::{ProtocolTag, TcpCluster, Transport};
use sft_types::{ReplicaId, SimDuration};

/// Serializes the tests in this file. Each one measures the process-wide
/// thread count, so a second test running alongside would spend the
/// first one's budget.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]; a test that failed while holding it does not fail
/// the other.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Threads currently alive in this process (Linux; test-only).
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn n31_broadcast_storm_loses_nothing_on_an_o_n_thread_budget() {
    let _serial = serial();
    const N: usize = 31;
    const ROUNDS: usize = 8;

    #[cfg(target_os = "linux")]
    let before = thread_count();

    let mut cluster = TcpCluster::loopback(N, ProtocolTag::Streamlet).unwrap();

    // The whole point of the rewrite: n reader threads + 1 writer, not
    // n(n − 1) writers + n(n − 1) readers (~1.9k threads at n = 31).
    #[cfg(target_os = "linux")]
    {
        let spawned = thread_count().saturating_sub(before);
        assert!(
            spawned <= N + 2,
            "mesh construction spawned {spawned} threads; budget is n + 2"
        );
    }

    // Every replica broadcasts every round: n × rounds × (n − 1)
    // deliveries in flight through one writer thread and n readers.
    let mut expected = 0usize;
    for round in 0..ROUNDS {
        for from in 0..N as u16 {
            let payload: Arc<[u8]> = vec![round as u8, from as u8, 0xee].into();
            cluster.broadcast(ReplicaId::new(from), payload);
            expected += N - 1;
        }
    }

    let mut got = 0usize;
    let deadline = cluster.now() + SimDuration::from_secs(30);
    while got < expected && cluster.now() < deadline {
        got += cluster
            .poll_deliver(cluster.now() + SimDuration::from_millis(100))
            .len();
    }
    assert_eq!(got, expected, "every frame of the storm arrives");

    let stats = cluster.stats();
    assert_eq!(stats.messages as usize, expected);
    assert_eq!(stats.dropped, 0, "backpressure, not loss");
    assert_eq!(stats.disconnects, 0, "no connection died under load");
    assert!(cluster.is_idle());
}

/// The full pipelined runtime at n = 31 — mesh, one group-commit WAL
/// writer per replica, and the shared signature-verification pool — still
/// holds an O(n) thread budget: (n readers + 1 writer) for the mesh, n
/// WAL writers, and a fixed pool of [`sft_crypto::pool_workers`] crypto
/// workers. Nothing in the pipeline spawns per-message or per-connection
/// threads.
#[test]
#[cfg(target_os = "linux")]
fn n31_pipelined_runtime_stays_within_the_extended_thread_budget() {
    let _serial = serial();
    use sft_core::{DurableWal, GroupCommitWal, MemSink};
    use sft_crypto::{BatchItem, KeyRegistry, Signature, PARALLEL_THRESHOLD};

    const N: usize = 31;
    let before = thread_count();

    let cluster = TcpCluster::loopback(N, ProtocolTag::Streamlet).unwrap();

    // One durability writer per replica, as the per-process node runtime
    // and the TCP harness run them.
    let mut wals: Vec<GroupCommitWal> = (0..N)
        .map(|_| GroupCommitWal::spawn(MemSink::new(), sft_obs::noop(), None).unwrap())
        .collect();

    // Force the lazily-spawned crypto pool up with a batch over the
    // parallelism threshold.
    let registry = KeyRegistry::deterministic(N);
    let message = b"stress-batch";
    let signatures: Vec<Signature> = (0..N as u64)
        .map(|signer| registry.key_pair(signer).unwrap().sign(message))
        .collect();
    let items: Vec<BatchItem> = signatures
        .iter()
        .enumerate()
        .map(|(i, sig)| BatchItem::new(i as u64, message, sig))
        .collect();
    assert!(items.len() >= PARALLEL_THRESHOLD);
    assert_eq!(registry.verify_batch_pooled(&items), Ok(()));

    let spawned = thread_count().saturating_sub(before);
    let budget = (N + 2) + N + sft_crypto::pool_workers();
    assert!(
        spawned <= budget,
        "pipelined runtime spawned {spawned} threads; budget is \
         (n + 2) mesh + n wal writers + {} crypto workers = {budget}",
        sft_crypto::pool_workers()
    );

    // The writers are healthy, not just counted: a synced append on each
    // advances its watermark.
    let hash = sft_crypto::HashValue::of(b"stress-qc");
    let record = sft_core::WalRecord::QcFormed(sft_core::QuorumCertificate::new(
        sft_types::VoteData::new(
            hash,
            sft_types::Round::new(1),
            hash,
            sft_types::Round::new(0),
        ),
        sft_types::SignerSet::from_iter_with_capacity(N, (0..1).map(sft_types::ReplicaId::new)),
    ));
    for wal in &mut wals {
        let seq = wal
            .append(&record)
            .unwrap_or_else(|e| panic!("wal append: {e}"));
        wal.barrier().unwrap_or_else(|e| panic!("wal barrier: {e}"));
        assert!(wal.watermark().covers(seq));
    }
    drop(cluster);
}
