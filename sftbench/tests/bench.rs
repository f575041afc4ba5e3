//! The benchmark's own checks: stage stamps add up, the timing wrappers
//! change nothing they wrap, and the exact-count pass repeats exactly.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use sft_core::{DurableWal, MemSink, ReplicaEngine, WriteThroughWal};
use sft_network::{ProtocolTag, SimNetwork, SimTransport, TcpCluster, Transport};
use sft_sim::{
    build_fbft_engines, Behavior, DurabilityMode, EngineRunner, NoMischief, RunPlan, RunnerConfig,
    SimReport,
};
use sft_types::{
    ClientAck, ClientRequest, PersistSeq, ReplicaId, Round, SendGate, SimDuration, SimTime,
    Transaction, Watermark,
};
use sftbench::cluster::{run_trial, sim_config};
use sftbench::count::exact_counts;
use sftbench::report::stage_splits;
use sftbench::trace::{TracedEngine, TracedTransport, TracedWal, WalTrace};
use sftbench::workload::{client_inputs, Workload, N, WORKLOADS};

fn tmp_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn short(w: Workload) -> Workload {
    Workload {
        per_client: 200,
        ..w
    }
}

#[test]
fn traced_stages_add_up_to_client_latency_and_pass_the_gate() {
    let w = short(WORKLOADS[0]);
    let trial = run_trial(&w, client_inputs(9, 0), &tmp_dir("stages"), true).expect("trial runs");
    assert_eq!(trial.gate_failures(), Vec::<String>::new());
    assert_eq!(trial.failed(), 0);
    let splits = stage_splits(&trial);
    assert_eq!(
        splits.len() as u64,
        trial.attempted,
        "one split per request"
    );
    let mut total = 0.0;
    let mut unattributed = 0.0;
    for s in &splits {
        let sum: f64 = s.stages().iter().sum();
        assert!(
            (s.total - sum).abs() < 1.0,
            "stages {:?} add to {sum} us, client saw {} us",
            s.stages(),
            s.total
        );
        assert!(s.admit_to_commit > 0.0, "every request waits for a commit");
        total += s.total;
        unattributed += s.unattributed();
    }
    let share = unattributed / total;
    println!("unattributed share of ack latency: {share:e}");
    assert!(share < 1e-6);
}

#[test]
fn untraced_trial_passes_the_gate() {
    let w = short(WORKLOADS[2]);
    let trial =
        run_trial(&w, client_inputs(3, 1), &tmp_dir("untraced"), false).expect("trial runs");
    assert_eq!(trial.gate_failures(), Vec::<String>::new());
    assert!(trial.trace.is_none());
    assert_eq!(trial.chain.distinct.len() as u64, trial.attempted);
}

/// Runs `w`'s replica set for 30 rounds under the simulator with
/// write-through in-memory WALs, wrapped or not.
fn sim_run(w: &Workload, wrapped: bool) -> (SimReport, Vec<sft_core::WalRecord>) {
    let config = sim_config(w, 30)
        .with_live_clients(false)
        .with_durability(DurabilityMode::WriteThrough);
    let engines = build_fbft_engines(&config, config.base_timeout);
    let transport = SimTransport::new(SimNetwork::new(config.delay), N);
    let run_config = RunnerConfig {
        plan: RunPlan::PastRound(Round::new(30)),
        horizon: SimTime::ZERO + config.run_horizon,
        drain_bound: config.drain_sync_bound,
        drain_step: config.delay,
    };
    let wals = || -> Vec<Box<dyn DurableWal>> {
        (0..N)
            .map(|_| {
                let wal = WriteThroughWal::new(MemSink::new(), sft_obs::noop());
                if wrapped {
                    Box::new(TracedWal::new(Box::new(wal), Arc::default())) as Box<dyn DurableWal>
                } else {
                    Box::new(wal)
                }
            })
            .collect()
    };
    let behaviors = vec![Behavior::Honest; N];
    if wrapped {
        let engines = engines.into_iter().map(TracedEngine::new).collect();
        let mut runner = EngineRunner::new(
            engines,
            behaviors,
            TracedTransport::new(transport),
            NoMischief,
            run_config,
        );
        runner.set_wals(wals());
        runner.run_until(SimTime::from_secs(30));
        let persisted = runner.persisted(0).to_vec();
        let engine = runner.engine(0);
        assert_eq!(engine.sig_stats(), engine.inner().sig_stats());
        assert_eq!(
            engine.endorsement_walk_steps(),
            engine.inner().endorsement_walk_steps()
        );
        assert!(engine.trace().on_envelope.calls > 0);
        assert!(runner.transport().trace().poll_deliver.calls > 0);
        (runner.report(), persisted)
    } else {
        let mut runner = EngineRunner::new(engines, behaviors, transport, NoMischief, run_config);
        runner.set_wals(wals());
        runner.run_until(SimTime::from_secs(30));
        (runner.report(), runner.persisted(0).to_vec())
    }
}

#[test]
fn wrapped_layers_run_exactly_like_the_bare_ones() {
    for w in &WORKLOADS {
        let (bare, bare_wal) = sim_run(w, false);
        let (wrapped, wrapped_wal) = sim_run(w, true);
        assert!(bare.max_committed() > 10, "{}", w.name);
        assert_eq!(bare.chains, wrapped.chains, "{}", w.name);
        assert_eq!(bare.commit_logs, wrapped.commit_logs);
        assert_eq!(bare.net, wrapped.net);
        assert_eq!(bare.walk_steps, wrapped.walk_steps);
        assert_eq!(bare.sig_verifications, wrapped.sig_verifications);
        assert_eq!(bare.batch_verify_calls, wrapped.batch_verify_calls);
        assert_eq!(bare.sync_requests, wrapped.sync_requests);
        assert_eq!(bare.wal_fsyncs, wrapped.wal_fsyncs);
        assert!(bare.wal_fsyncs > 0);
        assert_eq!(bare_wal, wrapped_wal);
    }
}

#[test]
fn traced_engine_delegates_client_calls() {
    let config = sim_config(&WORKLOADS[0], 0);
    let mut engines = build_fbft_engines(&config, config.base_timeout);
    let mut traced = TracedEngine::new(engines.pop().expect("engine"));
    let mut bare = engines.pop().expect("engine");
    let req = ClientRequest::new(Transaction::new(7, 0, vec![1; 16]), 2);
    for _ in 0..2 {
        assert_eq!(
            traced.submit(&req, SimTime::ZERO),
            bare.submit(&req, SimTime::ZERO)
        );
    }
    assert_eq!(
        traced.submit(&req, SimTime::ZERO),
        Some(ClientAck::Duplicate {
            txn_id: req.txn_id()
        })
    );
    assert_eq!(traced.drain_acks(), bare.drain_acks());
    assert_eq!(traced.trace().submit.calls, 3);
    assert_eq!(
        traced.trace().stamps.len(),
        1,
        "only the admission is stamped"
    );
    assert_eq!(traced.round(), bare.round());
    assert_eq!(traced.next_deadline(), bare.next_deadline());
    assert_eq!(traced.is_syncing(), bare.is_syncing());
    assert_eq!(traced.safety_violated(), bare.safety_violated());
    assert_eq!(traced.sync_stats(), bare.sync_stats());
    assert_eq!(traced.store().len(), bare.store().len());
}

#[test]
fn traced_transport_delegates_gating() {
    let sim = TracedTransport::new(SimTransport::new(
        SimNetwork::new(SimDuration::from_millis(1)),
        2,
    ));
    assert!(!sim.supports_gating());
    let mut tcp = TracedTransport::new(TcpCluster::loopback(2, ProtocolTag::Fbft).expect("mesh"));
    assert!(tcp.supports_gating());
    let watermark = Watermark::new();
    let seq: PersistSeq = 1;
    tcp.send_gated(
        ReplicaId::new(0),
        ReplicaId::new(1),
        vec![7u8; 8].into(),
        SendGate::new(watermark.clone(), seq),
    );
    // Held until the watermark covers the gate.
    assert!(tcp
        .poll_deliver(tcp.now() + SimDuration::from_millis(50))
        .is_empty());
    watermark.advance(seq);
    let deadline = tcp.now() + SimDuration::from_secs(5);
    let mut got = Vec::new();
    while got.is_empty() && tcp.now() < deadline {
        tcp.inner().writer_wake_hook()();
        got = tcp.poll_deliver(tcp.now() + SimDuration::from_millis(10));
    }
    assert_eq!(got.len(), 1);
    assert_eq!(tcp.trace().send_gated.calls, 1);
    assert_eq!(tcp.stats(), tcp.inner().stats());
    assert_eq!(tcp.replica_count(), 2);
}

#[test]
fn traced_wal_delegates_barrier_and_fsyncs() {
    let (_, records) = sim_run(&WORKLOADS[0], false);
    let trace = Arc::new(Mutex::new(WalTrace::default()));
    let mut wal = TracedWal::new(
        Box::new(WriteThroughWal::new(MemSink::new(), sft_obs::noop())),
        Arc::clone(&trace),
    );
    for (i, record) in records.iter().take(3).enumerate() {
        assert_eq!(wal.append(record).expect("append"), i as u64 + 1);
    }
    assert_eq!(wal.fsyncs(), 3);
    assert!(wal.watermark().covers(3));
    wal.barrier().expect("barrier");
    drop(wal);
    let trace = trace.lock().expect("trace");
    assert_eq!(
        (trace.append.calls, trace.barrier.calls, trace.fsyncs),
        (3, 1, 3)
    );
}

#[test]
fn exact_counts_repeat_byte_for_byte() {
    for w in [WORKLOADS[0], WORKLOADS[2]] {
        let a = format!("{:?}", exact_counts(&w));
        let b = format!("{:?}", exact_counts(&w));
        assert_eq!(a, b, "{}", w.name);
        assert!(a.contains("count.msgs_per_block"));
    }
}
