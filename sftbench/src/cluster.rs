//! One trial: a fresh n = 4 SFT-DiemBFT cluster over the loopback TCP
//! mesh, file-backed group-commit WALs, and two closed-loop client
//! connections, stepped until the clients are done.
//!
//! The cluster is assembled from the same public parts the repository's
//! load generator uses (`build_fbft_engines`, `TcpCluster::loopback`,
//! `WalStore::into_group_commit` with the mesh's writer wake hook) and
//! stepped with `EngineRunner::run_until`, so a trial ends when its load
//! ends rather than at a round target.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use sft_core::{DurableWal, ReplicaEngine, WalStore};
use sft_crypto::HashValue;
use sft_network::{ProtocolTag, TcpCluster, Transport};
use sft_sim::{
    build_fbft_engines, Behavior, EngineRunner, NoMischief, Protocol, RunPlan, RunnerConfig,
    SimConfig, SimReport, TcpPacing,
};
use sft_types::{Payload, ReplicaId, Round, SimDuration, SimTime};

use crate::client::{self, ClientOutcome, ClientSpec};
use crate::trace::{
    EngineTrace, TracedEngine, TracedTransport, TracedWal, TransportTrace, WalTrace,
};
use crate::workload::{ClientInputs, Workload, ACK_AT, BATCH_SIZE, GATEWAYS, N, WINDOW};

/// How long the run loop may block waiting for replica traffic before it
/// polls the client gateways again.
const SLICE: SimDuration = SimDuration::from_millis(1);
/// A trial whose clients are not done by then has failed.
const CLIENT_DEADLINE: Duration = Duration::from_secs(60);

/// The longest committed chain, resolved into client transactions.
#[derive(Clone, Debug, Default)]
pub struct ChainContents {
    /// Committed blocks.
    pub blocks: u64,
    /// Committed blocks carrying no transaction.
    pub empty_blocks: u64,
    /// Transactions in them, repeats included.
    pub txns: u64,
    /// Distinct transaction ids in them.
    pub distinct: HashSet<HashValue>,
}

/// What the traced run measured at each layer boundary.
#[derive(Debug, Default)]
pub struct LayerTrace {
    /// One per replica.
    pub engines: Vec<EngineTrace>,
    /// The mesh.
    pub transport: TransportTrace,
    /// One per replica.
    pub wals: Vec<WalTrace>,
    /// Bytes the WAL files hold at the end of the trial.
    pub wal_bytes: u64,
}

/// Everything one trial produced.
#[derive(Debug)]
pub struct Trial {
    /// Engine build, mesh connect, WAL open, writer spawn and client
    /// connect, up to the first submission.
    pub setup: Duration,
    /// First submission until both clients are done.
    pub load: Duration,
    /// One per connection, in [`GATEWAYS`] order.
    pub clients: Vec<ClientOutcome>,
    /// Requests the clients were asked to submit.
    pub attempted: u64,
    /// The run loop's report at the end of the load.
    pub report: SimReport,
    /// The longest committed chain's contents.
    pub chain: ChainContents,
    /// Present on traced trials.
    pub trace: Option<LayerTrace>,
}

impl Trial {
    /// Every way this trial broke the correctness gate; empty when it
    /// passed.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !self.report.agreement() {
            out.push("replicas committed conflicting chains".to_string());
        }
        if !self.report.commit_strength_monotone() {
            out.push("a block's commit strength decreased".to_string());
        }
        if self.report.safety_violations > 0 {
            out.push(format!(
                "{} replicas flagged a safety violation",
                self.report.safety_violations
            ));
        }
        let under: u64 = self.clients.iter().map(|c| c.under_strength).sum();
        if under > 0 {
            out.push(format!("{under} acks below their requested strength"));
        }
        let refused: u64 = self.clients.iter().map(|c| c.duplicates).sum();
        if refused > 0 {
            out.push(format!("{refused} requests refused as duplicates"));
        }
        for (i, c) in self.clients.iter().enumerate() {
            if let Some(e) = &c.error {
                out.push(format!("client {i}: {e}"));
            }
        }
        if self.failed() > 0 {
            out.push(format!(
                "{} of {} requests failed",
                self.failed(),
                self.attempted
            ));
        }
        let acked: HashSet<HashValue> = self
            .clients
            .iter()
            .flat_map(|c| c.records.iter())
            .filter(|r| r.acked.is_some())
            .map(|r| r.txn_id)
            .collect();
        if self.chain.txns != self.chain.distinct.len() as u64 {
            out.push(format!(
                "{} transactions included more than once",
                self.chain.txns - self.chain.distinct.len() as u64
            ));
        }
        if acked != self.chain.distinct {
            out.push(format!(
                "{} acked-committed transactions but {} in the longest committed chain",
                acked.len(),
                self.chain.distinct.len()
            ));
        }
        out
    }

    /// Requests without a `Committed` ack at their requested strength:
    /// lost, refused and not retried, under strength, or cut short by a
    /// client error.
    pub fn failed(&self) -> u64 {
        let good = self
            .clients
            .iter()
            .flat_map(|c| c.records.iter())
            .filter(|r| r.acked.is_some() && r.strength >= r.ack_at)
            .count() as u64;
        self.attempted - good
    }
}

/// The replica-set configuration of `w`, run to `rounds` under the
/// simulator; trials build their engines from it and ignore `rounds`.
pub fn sim_config(w: &Workload, rounds: u64) -> SimConfig {
    SimConfig::new(N, rounds)
        .with_protocol(Protocol::Fbft)
        .with_endorse_mode(w.endorse)
        .with_batch_size(BATCH_SIZE)
        .with_live_clients(true)
}

/// Runs one trial of `w` with `inputs`, keeping its WALs under `wal_dir`
/// (removed afterwards). `traced` wraps every layer in its timing
/// wrapper.
///
/// # Errors
///
/// Returns a description of any set-up failure (socket, WAL, thread).
pub fn run_trial(
    w: &Workload,
    inputs: [ClientInputs; 2],
    wal_dir: &Path,
    traced: bool,
) -> Result<Trial, String> {
    let started = Instant::now();
    let engines = build_fbft_engines(&sim_config(w, 0), TcpPacing::default().base_timeout);
    let cluster = TcpCluster::loopback(N, ProtocolTag::Fbft).map_err(|e| format!("mesh: {e}"))?;
    let addrs: Vec<SocketAddr> = (0..N as u16)
        .map(|id| cluster.client_addr(ReplicaId::new(id)))
        .collect::<std::io::Result<_>>()
        .map_err(|e| format!("gateway address: {e}"))?;
    let wals = open_wals(wal_dir, &cluster)?;
    let specs: Vec<ClientSpec> = (0..2)
        .map(|i| ClientSpec {
            addr: addrs[usize::from(GATEWAYS[i])],
            replica: ReplicaId::new(GATEWAYS[i]),
            inputs: inputs[i],
            ack_at: ACK_AT[i],
            count: w.per_client,
            window: WINDOW,
            payload_bytes: w.payload_bytes,
            deadline: CLIENT_DEADLINE,
        })
        .collect();
    let trial = if traced {
        let wal_traces: Vec<Arc<Mutex<WalTrace>>> = (0..N).map(|_| Arc::default()).collect();
        let wals = wals
            .into_iter()
            .zip(&wal_traces)
            .map(|(w, t)| Box::new(TracedWal::new(w, Arc::clone(t))) as Box<dyn DurableWal>)
            .collect();
        let engines = engines.into_iter().map(TracedEngine::new).collect();
        let runner = runner(engines, TracedTransport::new(cluster), wals);
        let mut trial = load(runner, started, &specs, |r| {
            Some(LayerTrace {
                engines: (0..N).map(|i| r.engine(i).trace().clone()).collect(),
                transport: r.transport().trace().clone(),
                ..LayerTrace::default()
            })
        });
        if let Some(trace) = &mut trial.trace {
            trace.wals = wal_traces
                .iter()
                .map(|t| t.lock().expect("wal trace lock").clone())
                .collect();
            trace.wal_bytes = dir_bytes(wal_dir);
        }
        trial
    } else {
        load(runner(engines, cluster, wals), started, &specs, |_| None)
    };
    std::fs::remove_dir_all(wal_dir).map_err(|e| format!("removing {wal_dir:?}: {e}"))?;
    Ok(trial)
}

fn runner<E: ReplicaEngine, T: Transport>(
    engines: Vec<E>,
    transport: T,
    wals: Vec<Box<dyn DurableWal>>,
) -> EngineRunner<E, T, NoMischief> {
    let mut runner = EngineRunner::new(
        engines,
        vec![Behavior::Honest; N],
        transport,
        NoMischief,
        // `run_until` consults none of these; they only bound `run`.
        RunnerConfig {
            plan: RunPlan::PastRound(Round::new(u64::MAX)),
            horizon: SimTime::ZERO + SimDuration::from_secs(CLIENT_DEADLINE.as_secs()),
            drain_bound: 0,
            drain_step: SLICE,
        },
    );
    runner.set_wals(wals);
    runner
}

/// One file-backed group-commit log per replica, each waking the mesh's
/// writer when its watermark advances.
fn open_wals(dir: &Path, cluster: &TcpCluster) -> Result<Vec<Box<dyn DurableWal>>, String> {
    (0..N)
        .map(|id| {
            let store =
                WalStore::open(&replica_dir(dir, id), 1).map_err(|e| format!("wal open: {e}"))?;
            let wal = store
                .into_group_commit(sft_obs::noop(), Some(cluster.writer_wake_hook()))
                .map_err(|e| format!("wal writer: {e}"))?;
            Ok(Box::new(wal) as Box<dyn DurableWal>)
        })
        .collect()
}

fn replica_dir(dir: &Path, id: usize) -> PathBuf {
    dir.join(format!("replica-{id}"))
}

/// Total size of the files under `dir`'s replica directories.
fn dir_bytes(dir: &Path) -> u64 {
    (0..N)
        .filter_map(|id| std::fs::read_dir(replica_dir(dir, id)).ok())
        .flatten()
        .filter_map(|entry| entry.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Connects the clients, steps the cluster until both are done, and
/// collects the result. `collect` reads layer traces off the runner
/// before it is dropped.
fn load<E: ReplicaEngine, T: Transport>(
    mut runner: EngineRunner<E, T, NoMischief>,
    started: Instant,
    specs: &[ClientSpec],
    collect: impl FnOnce(&EngineRunner<E, T, NoMischief>) -> Option<LayerTrace>,
) -> Trial {
    let ready = Barrier::new(specs.len() + 1);
    let (setup, load, clients) = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|spec| {
                let ready = &ready;
                scope.spawn(move || {
                    let sock = client::connect(spec);
                    ready.wait();
                    match sock {
                        Ok(sock) => client::drive(sock, spec),
                        Err(e) => ClientOutcome {
                            error: Some(format!("connect: {e}")),
                            ..ClientOutcome::default()
                        },
                    }
                })
            })
            .collect();
        ready.wait();
        let setup = started.elapsed();
        let load_start = Instant::now();
        while !handles.iter().all(|h| h.is_finished()) {
            let until = runner.transport().now() + SLICE;
            runner.run_until(until);
        }
        let load = load_start.elapsed();
        let clients: Vec<ClientOutcome> = handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientOutcome {
                    error: Some("client thread panicked".to_string()),
                    ..ClientOutcome::default()
                })
            })
            .collect();
        (setup, load, clients)
    });
    let report = runner.report();
    let chain = chain_contents(&runner);
    let trace = collect(&runner);
    drop(runner);
    Trial {
        setup,
        load,
        clients,
        attempted: specs.iter().map(|s| s.count).sum(),
        report,
        chain,
        trace,
    }
}

/// Resolves the longest committed chain into its transactions.
fn chain_contents<E: ReplicaEngine, T: Transport>(
    runner: &EngineRunner<E, T, NoMischief>,
) -> ChainContents {
    let longest = (0..N)
        .max_by_key(|&i| runner.engine(i).committed_chain().len())
        .expect("replicas");
    let engine = runner.engine(longest);
    let mut out = ChainContents::default();
    for id in engine.committed_chain() {
        out.blocks += 1;
        let txns = match engine.store().get(*id).map(|b| b.payload()) {
            Some(Payload::Transactions(txns)) => txns.as_slice(),
            _ => &[],
        };
        if txns.is_empty() {
            out.empty_blocks += 1;
        }
        out.txns += txns.len() as u64;
        out.distinct.extend(txns.iter().map(|t| t.id()));
    }
    out
}
