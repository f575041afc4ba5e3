//! The protocol-agnostic replica engine interface.
//!
//! A [`ReplicaEngine`] is a consensus replica viewed from its transport: it
//! ingests opaque envelope payloads, asks for wake-ups via deadlines, and
//! answers everything a harness needs to report on a run. Both protocol
//! families implement it (`sft-streamlet`'s `StreamletEngine` and
//! `sft-fbft`'s `FbftEngine`), which is what lets one generic run loop
//! drive either protocol over any transport — the deterministic simulator
//! or real sockets — without knowing a single message type.
//!
//! The shape mirrors the transport-oblivious replica of FeBFT and the
//! RECIPE argument: replication logic should not know how bytes move.
//! Everything an engine does is expressed as:
//!
//! - **inputs**: [`ReplicaEngine::on_envelope`] (a delivered payload),
//!   [`ReplicaEngine::on_tick`] (a due deadline), and
//!   [`ReplicaEngine::poll_sync`] (a periodic block-sync drain);
//! - **outputs**: an [`EngineStep`] of [`OutboundMsg`]s to route plus the
//!   commit-log entries the step produced.
//!
//! Outbound messages carry a [`MsgKind`] tag so a harness can apply
//! *behavioral* policy (a vote-withholding fault drops `Vote`s, a stalled
//! leader drops `Proposal`s) without decoding protocol bytes.

use std::sync::Arc;

use sft_crypto::{HashValue, SigStats};
use sft_types::{ClientAck, ClientRequest, ReplicaId, Round, SimTime, StrongCommitUpdate};

use crate::wal::WalRecord;
use crate::{BlockStore, SyncStats};

/// What kind of protocol message an outbound payload encodes. The tag is
/// harness-facing metadata only — it never goes on the wire (the payload
/// bytes carry their own discriminant) — and exists so transport-level
/// policy can act on message class without protocol knowledge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// A leader's block proposal.
    Proposal,
    /// A replica's (strong-)vote.
    Vote,
    /// A round-timeout declaration (SFT-DiemBFT only).
    Timeout,
    /// A point-to-point block-sync fetch.
    SyncRequest,
    /// The chain segment answering a sync request.
    SyncResponse,
}

/// Where an outbound message goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// To every replica (the sender hears itself without transport delay).
    Broadcast,
    /// To exactly one peer.
    To(ReplicaId),
}

/// One message an engine wants sent: routing, kind tag, and the encoded
/// bytes (shared, so broadcasts encode once).
#[derive(Clone, Debug)]
pub struct OutboundMsg {
    /// Broadcast or point-to-point.
    pub route: Route,
    /// Message class, for harness-level behavioral policy.
    pub kind: MsgKind,
    /// The encoded wire payload.
    pub bytes: Arc<[u8]>,
}

impl OutboundMsg {
    /// A broadcast of `bytes` tagged `kind`.
    pub fn broadcast(kind: MsgKind, bytes: impl Into<Arc<[u8]>>) -> Self {
        Self {
            route: Route::Broadcast,
            kind,
            bytes: bytes.into(),
        }
    }

    /// A point-to-point send of `bytes` tagged `kind`.
    pub fn to(peer: ReplicaId, kind: MsgKind, bytes: impl Into<Arc<[u8]>>) -> Self {
        Self {
            route: Route::To(peer),
            kind,
            bytes: bytes.into(),
        }
    }
}

/// Everything one engine input produced: messages to route and commit-log
/// entries for the run's timeline. Ordering matters — the harness sends
/// `outbound` in order, which keeps runs deterministic.
#[derive(Clone, Debug, Default)]
pub struct EngineStep {
    /// Messages to send, in send order.
    pub outbound: Vec<OutboundMsg>,
    /// Commit-log entries this step produced (standard commits and
    /// strength increases), in occurrence order.
    pub updates: Vec<StrongCommitUpdate>,
    /// Durable consensus events this step produced, in occurrence order.
    /// A crash-safe harness appends these to the replica's write-ahead
    /// log *before* routing `outbound` — the write-ahead discipline that
    /// makes a restarted replica honor its pre-crash votes.
    pub persist: Vec<WalRecord>,
}

impl EngineStep {
    /// A step that produced nothing.
    pub fn empty() -> Self {
        Self::default()
    }

    /// True if the step produced no messages, commit entries, or durable
    /// events.
    pub fn is_empty(&self) -> bool {
        self.outbound.is_empty() && self.updates.is_empty() && self.persist.is_empty()
    }
}

/// A consensus replica as its transport sees it: opaque payloads in,
/// [`EngineStep`]s out, plus the deadline and reporting surface a run
/// harness needs. See the [module docs](self) for the contract.
pub trait ReplicaEngine {
    /// This replica's id.
    fn id(&self) -> ReplicaId;

    /// Ingests one delivered payload at `now`. Undecodable bytes are
    /// ignored (a transport can carry garbage; the codec's rejection is
    /// property-tested separately) and return an empty step.
    fn on_envelope(&mut self, from: ReplicaId, payload: &[u8], now: SimTime) -> EngineStep;

    /// The next instant this engine needs a wake-up — a pacemaker
    /// deadline, an epoch-clock tick — or `None` if it never will.
    fn next_deadline(&self) -> Option<SimTime>;

    /// Fires every internal timer due at `now` (timeout broadcasts, epoch
    /// openings). Must advance [`next_deadline`](Self::next_deadline) past
    /// `now`, or the run loop could not make progress.
    fn on_tick(&mut self, now: SimTime) -> EngineStep;

    /// Drains block-sync fetches due at `now` (new targets and expired
    /// retries) as point-to-point requests. Engines that surface sync
    /// requests through their event steps instead return nothing here.
    fn poll_sync(&mut self, now: SimTime) -> EngineStep {
        let _ = now;
        EngineStep::empty()
    }

    /// Submits one client transaction at `now` — the public ingestion API
    /// every harness and transport feeds (the driver-side mempool pre-feed
    /// this replaces is gone).
    ///
    /// Returns `None` when the transaction was admitted (the strength-graded
    /// [`ClientAck::Committed`] arrives later via
    /// [`drain_acks`](Self::drain_acks)), or an immediate
    /// [`ClientAck::Busy`] / [`ClientAck::Duplicate`] rejection. The default
    /// is an engine without a mempool: every submission bounces `Busy`.
    fn submit(&mut self, req: &ClientRequest, now: SimTime) -> Option<ClientAck> {
        let _ = now;
        Some(ClientAck::Busy {
            txn_id: req.txn_id(),
        })
    }

    /// Takes the strength-graded commit acks emitted since the last drain:
    /// one [`ClientAck::Committed`] per admitted submission, fired the
    /// moment its block's strong-commit level reached the requested
    /// `ack_at`. Engines without client ingestion emit none.
    fn drain_acks(&mut self) -> Vec<ClientAck> {
        Vec::new()
    }

    /// Re-applies one recovered write-ahead-log record at restart instant
    /// `now`, before the engine's first tick. Replaying a log front to
    /// back restores vote dedup (no equivocation against the pre-crash
    /// self), the locked round and high-QC, and the committed prefix.
    /// Engines without durable state ignore the record.
    fn restore(&mut self, record: &WalRecord, now: SimTime) {
        let _ = (record, now);
    }

    /// Installs a metrics/trace recorder. Engines that record forward it
    /// to their [`EngineObs`](crate::EngineObs) and sync manager; the
    /// default keeps the free no-op recorder.
    fn set_recorder(&mut self, recorder: sft_obs::SharedRecorder) {
        let _ = recorder;
    }

    /// Total endorsement-frontier walk steps taken so far — the
    /// amortization counter behind the `walk_steps` bench field. Engines
    /// without an endorsement tracker report 0.
    fn endorsement_walk_steps(&self) -> u64 {
        0
    }

    /// Signature-verification counters accumulated by the replica's vote
    /// and timeout aggregation — the evidence behind the verify-on-quorum
    /// scaling claim (individual verifies drop from O(n²) to O(n) per
    /// certified round). Engines without signature checking report zeros.
    fn sig_stats(&self) -> SigStats {
        SigStats::default()
    }

    /// The replica's current round (Streamlet: epoch) — the progress
    /// measure self-pacing run plans stop on.
    fn round(&self) -> Round;

    /// True while the replica is still chasing missing blocks.
    fn is_syncing(&self) -> bool;

    /// The committed chain, oldest first (genesis excluded).
    fn committed_chain(&self) -> &[HashValue];

    /// The strong-commit log (§5), in occurrence order.
    fn commit_log(&self) -> &[StrongCommitUpdate];

    /// True if the replica ever observed conflicting committed chains.
    fn safety_violated(&self) -> bool;

    /// How many distinct equivocators this replica's vote tracker caught.
    fn equivocators_observed(&self) -> usize;

    /// Block-sync counters (requests sent, blocks admitted, …).
    fn sync_stats(&self) -> SyncStats;

    /// The replica's block store, for resolving committed chains into
    /// transaction counts.
    fn store(&self) -> &BlockStore;
}
