//! Timing wrappers around each layer's public trait, for the traced run.
//!
//! [`TracedEngine`] wraps a [`ReplicaEngine`], [`TracedTransport`] a
//! [`Transport`] and [`TracedWal`] a [`DurableWal`]. Each delegates every
//! trait method, default methods included, and times the calls that do
//! work. Nothing inside the program is instrumented: the spans are the
//! boundaries between the run loop and the layers it calls.
//!
//! The engine wrapper also stamps each admitted transaction's stages:
//! `submit`, the first commit update of its block, the update that made
//! the block as strong as the request asked, and the `drain_acks` that
//! handed its ack over. The client stamps the write before and the read
//! after, so the stages telescope into the client-observed latency.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sft_core::{
    BlockStore, DurableWal, EngineStep, MsgKind, ReplicaEngine, SyncStats, WalError, WalRecord,
};
use sft_crypto::{HashValue, SigStats};
use sft_network::{ClientDelivery, Delivery, NetworkStats, Transport};
use sft_types::{
    ClientAck, ClientRequest, Payload, PersistSeq, ReplicaId, Round, SendGate, SimTime,
    StrongCommitUpdate, Watermark,
};

/// Calls into one trait method: how many, their total time, and each
/// call's duration when percentiles are wanted.
#[derive(Clone, Debug, Default)]
pub struct CallStats {
    /// Calls made.
    pub calls: u64,
    /// Time spent inside them.
    pub busy: Duration,
    /// Per-call durations in nanoseconds (kept only where percentiles
    /// are reported).
    pub samples: Vec<u64>,
}

impl CallStats {
    fn add(&mut self, took: Duration, keep_sample: bool) {
        self.calls += 1;
        self.busy += took;
        if keep_sample {
            self.samples.push(took.as_nanos() as u64);
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &CallStats) {
        self.calls += other.calls;
        self.busy += other.busy;
        self.samples.extend_from_slice(&other.samples);
    }
}

/// Times `f` and records it into `stats`.
fn timed<R>(stats: &mut CallStats, keep_sample: bool, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    stats.add(start.elapsed(), keep_sample);
    out
}

/// One admitted transaction's engine-side stamps.
#[derive(Clone, Copy, Debug)]
pub struct Stamps {
    /// Requested strength.
    pub ack_at: u64,
    /// Entry into `submit`.
    pub submit: Instant,
    /// Return of the call whose step first committed the block.
    pub commit: Option<Instant>,
    /// Return of the call whose step made the block `ack_at`-strong.
    pub strong: Option<Instant>,
    /// Return of the `drain_acks` that handed the ack over.
    pub drained: Option<Instant>,
}

/// Everything a [`TracedEngine`] measured.
#[derive(Clone, Debug, Default)]
pub struct EngineTrace {
    /// `on_envelope` calls.
    pub on_envelope: CallStats,
    /// `on_tick` calls.
    pub on_tick: CallStats,
    /// `poll_sync` calls.
    pub poll_sync: CallStats,
    /// `submit` calls.
    pub submit: CallStats,
    /// `drain_acks` calls.
    pub drain_acks: CallStats,
    /// Outbound `Timeout` messages in returned steps.
    pub timeouts: u64,
    /// Outbound `SyncRequest` messages in returned steps.
    pub sync_requests: u64,
    /// The largest proposal this engine sent, as encoded — the shape the
    /// isolated decode cost is measured at.
    pub proposal: Option<Arc<[u8]>>,
    /// Stage stamps of every transaction admitted here.
    pub stamps: HashMap<HashValue, Stamps>,
}

impl EngineTrace {
    /// Time spent in every engine call.
    pub fn busy(&self) -> Duration {
        self.on_envelope.busy
            + self.on_tick.busy
            + self.poll_sync.busy
            + self.submit.busy
            + self.drain_acks.busy
    }
}

/// A [`ReplicaEngine`] that times every call into `E`.
pub struct TracedEngine<E> {
    inner: E,
    trace: EngineTrace,
    /// Admitted transactions not yet seen in a committed block.
    uncommitted: HashSet<HashValue>,
    /// Blocks already scanned for admitted transactions.
    scanned: HashSet<HashValue>,
    /// Committed blocks holding transactions still short of their
    /// requested strength.
    watch: HashMap<HashValue, Vec<HashValue>>,
}

impl<E: ReplicaEngine> TracedEngine<E> {
    /// Wraps `inner`.
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            trace: EngineTrace::default(),
            uncommitted: HashSet::new(),
            scanned: HashSet::new(),
            watch: HashMap::new(),
        }
    }

    /// What was measured so far.
    pub fn trace(&self) -> &EngineTrace {
        &self.trace
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Counts the step's outbound kinds, keeps the largest proposal, and stamps
    /// the stages its commit updates complete.
    fn observe(&mut self, step: &EngineStep, at: Instant) {
        for out in &step.outbound {
            match out.kind {
                MsgKind::Timeout => self.trace.timeouts += 1,
                MsgKind::SyncRequest => self.trace.sync_requests += 1,
                MsgKind::Proposal => {
                    let larger = self
                        .trace
                        .proposal
                        .as_ref()
                        .is_none_or(|p| p.len() < out.bytes.len());
                    if larger {
                        self.trace.proposal = Some(Arc::clone(&out.bytes));
                    }
                }
                MsgKind::Vote | MsgKind::SyncResponse => {}
            }
        }
        for update in &step.updates {
            self.observe_update(update, at);
        }
    }

    fn observe_update(&mut self, update: &StrongCommitUpdate, at: Instant) {
        let block_id = update.block_id();
        if !self.uncommitted.is_empty() && self.scanned.insert(block_id) {
            if let Some(block) = self.inner.store().get(block_id) {
                if let Payload::Transactions(txns) = block.payload() {
                    for txn in txns {
                        let id = txn.id();
                        if self.uncommitted.remove(&id) {
                            if let Some(stamps) = self.trace.stamps.get_mut(&id) {
                                stamps.commit = Some(at);
                            }
                            self.watch.entry(block_id).or_default().push(id);
                        }
                    }
                }
            }
        }
        let Some(mut waiting) = self.watch.remove(&block_id) else {
            return;
        };
        let stamps = &mut self.trace.stamps;
        waiting.retain(|id| match stamps.get_mut(id) {
            Some(s) if s.ack_at <= update.level() => {
                s.strong = Some(at);
                false
            }
            Some(_) => true,
            None => false,
        });
        if !waiting.is_empty() {
            self.watch.insert(block_id, waiting);
        }
    }
}

impl<E: ReplicaEngine> ReplicaEngine for TracedEngine<E> {
    fn id(&self) -> ReplicaId {
        self.inner.id()
    }

    fn on_envelope(&mut self, from: ReplicaId, payload: &[u8], now: SimTime) -> EngineStep {
        let inner = &mut self.inner;
        let step = timed(&mut self.trace.on_envelope, true, || {
            inner.on_envelope(from, payload, now)
        });
        self.observe(&step, Instant::now());
        step
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.inner.next_deadline()
    }

    fn on_tick(&mut self, now: SimTime) -> EngineStep {
        let inner = &mut self.inner;
        let step = timed(&mut self.trace.on_tick, false, || inner.on_tick(now));
        self.observe(&step, Instant::now());
        step
    }

    fn poll_sync(&mut self, now: SimTime) -> EngineStep {
        let inner = &mut self.inner;
        let step = timed(&mut self.trace.poll_sync, false, || inner.poll_sync(now));
        self.observe(&step, Instant::now());
        step
    }

    fn submit(&mut self, req: &ClientRequest, now: SimTime) -> Option<ClientAck> {
        let entered = Instant::now();
        let inner = &mut self.inner;
        let verdict = timed(&mut self.trace.submit, true, || inner.submit(req, now));
        if verdict.is_none() {
            let id = req.txn_id();
            self.uncommitted.insert(id);
            self.trace.stamps.insert(
                id,
                Stamps {
                    ack_at: req.ack_at,
                    submit: entered,
                    commit: None,
                    strong: None,
                    drained: None,
                },
            );
        }
        verdict
    }

    fn drain_acks(&mut self) -> Vec<ClientAck> {
        let inner = &mut self.inner;
        let acks = timed(&mut self.trace.drain_acks, false, || inner.drain_acks());
        let at = Instant::now();
        for ack in &acks {
            if let Some(stamps) = self.trace.stamps.get_mut(&ack.txn_id()) {
                stamps.drained = Some(at);
            }
        }
        acks
    }

    fn restore(&mut self, record: &WalRecord, now: SimTime) {
        self.inner.restore(record, now);
    }

    fn set_recorder(&mut self, recorder: sft_obs::SharedRecorder) {
        self.inner.set_recorder(recorder);
    }

    fn endorsement_walk_steps(&self) -> u64 {
        self.inner.endorsement_walk_steps()
    }

    fn sig_stats(&self) -> SigStats {
        self.inner.sig_stats()
    }

    fn round(&self) -> Round {
        self.inner.round()
    }

    fn is_syncing(&self) -> bool {
        self.inner.is_syncing()
    }

    fn committed_chain(&self) -> &[HashValue] {
        self.inner.committed_chain()
    }

    fn commit_log(&self) -> &[StrongCommitUpdate] {
        self.inner.commit_log()
    }

    fn safety_violated(&self) -> bool {
        self.inner.safety_violated()
    }

    fn equivocators_observed(&self) -> usize {
        self.inner.equivocators_observed()
    }

    fn sync_stats(&self) -> SyncStats {
        self.inner.sync_stats()
    }

    fn store(&self) -> &BlockStore {
        self.inner.store()
    }
}

/// Everything a [`TracedTransport`] measured.
#[derive(Clone, Debug, Default)]
pub struct TransportTrace {
    /// `poll_deliver` calls: time blocked waiting for (and collecting)
    /// deliveries.
    pub poll_deliver: CallStats,
    /// `send` and `broadcast` calls.
    pub send: CallStats,
    /// `send_gated` and `broadcast_gated` calls.
    pub send_gated: CallStats,
    /// `send_client` calls.
    pub send_client: CallStats,
}

/// A [`Transport`] that times every call into `T`.
pub struct TracedTransport<T> {
    inner: T,
    trace: TransportTrace,
}

impl<T: Transport> TracedTransport<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        Self {
            inner,
            trace: TransportTrace::default(),
        }
    }

    /// What was measured so far.
    pub fn trace(&self) -> &TransportTrace {
        &self.trace
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn replica_count(&self) -> usize {
        self.inner.replica_count()
    }

    fn send(&mut self, from: ReplicaId, to: ReplicaId, payload: Arc<[u8]>) {
        let inner = &mut self.inner;
        timed(&mut self.trace.send, false, || {
            inner.send(from, to, payload)
        });
    }

    fn broadcast(&mut self, from: ReplicaId, payload: Arc<[u8]>) {
        let inner = &mut self.inner;
        timed(&mut self.trace.send, false, || {
            inner.broadcast(from, payload)
        });
    }

    fn poll_deliver(&mut self, deadline: SimTime) -> Vec<Delivery> {
        let inner = &mut self.inner;
        timed(&mut self.trace.poll_deliver, false, || {
            inner.poll_deliver(deadline)
        })
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn next_deliver_at(&self) -> Option<SimTime> {
        self.inner.next_deliver_at()
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn stats(&self) -> NetworkStats {
        self.inner.stats()
    }

    fn poll_clients(&mut self) -> Vec<ClientDelivery> {
        self.inner.poll_clients()
    }

    fn send_client(&mut self, conn: u64, replica: ReplicaId, payload: Arc<[u8]>) {
        let inner = &mut self.inner;
        timed(&mut self.trace.send_client, false, || {
            inner.send_client(conn, replica, payload)
        });
    }

    fn supports_gating(&self) -> bool {
        self.inner.supports_gating()
    }

    fn send_gated(&mut self, from: ReplicaId, to: ReplicaId, payload: Arc<[u8]>, gate: SendGate) {
        let inner = &mut self.inner;
        timed(&mut self.trace.send_gated, false, || {
            inner.send_gated(from, to, payload, gate)
        });
    }

    fn broadcast_gated(&mut self, from: ReplicaId, payload: Arc<[u8]>, gate: SendGate) {
        let inner = &mut self.inner;
        timed(&mut self.trace.send_gated, false, || {
            inner.broadcast_gated(from, payload, gate)
        });
    }
}

/// Everything a [`TracedWal`] measured. Shared with the benchmark,
/// because the run loop owns the logs once they are installed.
#[derive(Clone, Debug, Default)]
pub struct WalTrace {
    /// `append` calls.
    pub append: CallStats,
    /// `barrier` calls.
    pub barrier: CallStats,
    /// The log's fsync count, read when the wrapper is dropped (after a
    /// final barrier, so it is settled).
    pub fsyncs: u64,
}

/// A [`DurableWal`] that times every call into the wrapped log.
pub struct TracedWal {
    inner: Box<dyn DurableWal>,
    trace: Arc<Mutex<WalTrace>>,
}

impl TracedWal {
    /// Wraps `inner`; measurements land in `trace`.
    pub fn new(inner: Box<dyn DurableWal>, trace: Arc<Mutex<WalTrace>>) -> Self {
        Self { inner, trace }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalTrace> {
        self.trace
            .lock()
            .expect("wal trace lock poisoned by a panic")
    }
}

impl DurableWal for TracedWal {
    fn append(&mut self, record: &WalRecord) -> Result<PersistSeq, WalError> {
        let start = Instant::now();
        let out = self.inner.append(record);
        let took = start.elapsed();
        self.lock().append.add(took, true);
        out
    }

    fn watermark(&self) -> Watermark {
        self.inner.watermark()
    }

    fn barrier(&mut self) -> Result<(), WalError> {
        let start = Instant::now();
        let out = self.inner.barrier();
        let took = start.elapsed();
        self.lock().barrier.add(took, false);
        out
    }

    fn fsyncs(&self) -> u64 {
        self.inner.fsyncs()
    }
}

impl Drop for TracedWal {
    fn drop(&mut self) {
        // Settle the log so its fsync count is final; an error here only
        // means the count is what it was.
        let _ = self.inner.barrier();
        let fsyncs = self.inner.fsyncs();
        if let Ok(mut trace) = self.trace.lock() {
            trace.fsyncs = fsyncs;
        }
    }
}
