//! One closed-loop client connection: keeps [`WINDOW`](crate::workload::WINDOW)
//! requests in flight against one replica gateway and stamps every
//! request's write and the read that brought its ack back.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sft_crypto::rng::SplitMix64;
use sft_crypto::HashValue;
use sft_types::{
    ClientAck, ClientFrame, ClientRequest, Decode, Encode, Envelope, ProtocolTag, ReplicaId,
    Transaction,
};

use crate::workload::{next_payload, ClientInputs};

/// One connection's parameters for one trial.
#[derive(Clone, Copy, Debug)]
pub struct ClientSpec {
    /// The gateway address to dial.
    pub addr: SocketAddr,
    /// The replica behind `addr`.
    pub replica: ReplicaId,
    /// Identity and payload stream.
    pub inputs: ClientInputs,
    /// Strength to request acks at.
    pub ack_at: u64,
    /// Requests to submit.
    pub count: u64,
    /// Requests in flight at once.
    pub window: usize,
    /// Payload bytes per transaction.
    pub payload_bytes: usize,
    /// Give up on unresolved requests after this long.
    pub deadline: Duration,
}

/// One request's client-side story.
#[derive(Clone, Copy, Debug)]
pub struct RequestRecord {
    /// The transaction id every ack echoes.
    pub txn_id: HashValue,
    /// Requested strength.
    pub ack_at: u64,
    /// Just before the first write of the request frame.
    pub sent: Instant,
    /// Just after the read that delivered its `Committed` ack.
    pub acked: Option<Instant>,
    /// Strength the ack reported.
    pub strength: u64,
}

/// What one connection observed over a trial.
#[derive(Debug, Default)]
pub struct ClientOutcome {
    /// Every distinct request, in submission order.
    pub records: Vec<RequestRecord>,
    /// Request frames written, retries included.
    pub requests_sent: u64,
    /// `Busy` answers (each one is retried).
    pub busy_retries: u64,
    /// `Duplicate` answers (refused, not retried).
    pub duplicates: u64,
    /// `Committed` acks below the requested strength.
    pub under_strength: u64,
    /// A socket or protocol error that ended the connection early.
    pub error: Option<String>,
}

/// Dials the gateway and says hello; the connection is ready to submit.
///
/// # Errors
///
/// Returns the connect or write error.
pub fn connect(spec: &ClientSpec) -> io::Result<TcpStream> {
    let mut sock = TcpStream::connect(spec.addr)?;
    sock.set_nodelay(true)?;
    sock.set_read_timeout(Some(Duration::from_millis(5)))?;
    let me = ReplicaId::new(spec.inputs.client);
    sock.write_all(
        &Envelope::to_peer(me, spec.replica, ProtocolTag::Client, Vec::new()).to_frame(),
    )?;
    Ok(sock)
}

/// Runs the closed loop to completion: every one of `spec.count`
/// requests resolves to an ack, or the deadline passes.
pub fn drive(mut sock: TcpStream, spec: &ClientSpec) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    if let Err(e) = closed_loop(&mut sock, spec, &mut out) {
        out.error = Some(e.to_string());
    }
    out
}

fn closed_loop(sock: &mut TcpStream, spec: &ClientSpec, out: &mut ClientOutcome) -> io::Result<()> {
    let me = ReplicaId::new(spec.inputs.client);
    let mut rng = SplitMix64::new(spec.inputs.payload_seed);
    let started = Instant::now();
    // Frames of requests still in flight, by transaction id, kept for
    // `Busy` retries; the value also indexes `out.records`.
    let mut inflight: HashMap<HashValue, (usize, Vec<u8>)> = HashMap::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next_seq = 0u64;
    let mut resolved = 0u64;
    while resolved < spec.count && started.elapsed() < spec.deadline {
        while inflight.len() < spec.window && next_seq < spec.count {
            let txn = Transaction::new(
                u64::from(spec.inputs.client),
                next_seq,
                next_payload(&mut rng, spec.payload_bytes),
            );
            let req = ClientRequest::new(txn, spec.ack_at);
            let txn_id = req.txn_id();
            let frame = Envelope::to_peer(
                me,
                spec.replica,
                ProtocolTag::Client,
                ClientFrame::Request(req).to_bytes(),
            )
            .to_frame();
            let sent = Instant::now();
            sock.write_all(&frame)?;
            out.requests_sent += 1;
            out.records.push(RequestRecord {
                txn_id,
                ack_at: spec.ack_at,
                sent,
                acked: None,
                strength: 0,
            });
            inflight.insert(txn_id, (out.records.len() - 1, frame));
            next_seq += 1;
        }
        let read = match sock.read(&mut chunk) {
            Ok(0) => return Err(io::Error::other("gateway closed the connection")),
            Ok(read) => read,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        };
        let arrived = Instant::now();
        buf.extend_from_slice(&chunk[..read]);
        let mut used_total = 0;
        while let Some((env, used)) = Envelope::decode_frame(&buf[used_total..])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?
        {
            used_total += used;
            let Ok(ClientFrame::Ack(ack)) = ClientFrame::from_bytes(&env.payload) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "gateway sent something other than an ack",
                ));
            };
            let Some((index, frame)) = inflight.remove(&ack.txn_id()) else {
                continue;
            };
            match ack {
                ClientAck::Committed { strength, .. } => {
                    let record = &mut out.records[index];
                    record.acked = Some(arrived);
                    record.strength = strength;
                    if strength < spec.ack_at {
                        out.under_strength += 1;
                    }
                    resolved += 1;
                }
                ClientAck::Busy { txn_id } => {
                    out.busy_retries += 1;
                    out.requests_sent += 1;
                    sock.write_all(&frame)?;
                    inflight.insert(txn_id, (index, frame));
                }
                ClientAck::Duplicate { .. } => {
                    out.duplicates += 1;
                    resolved += 1;
                }
            }
        }
        buf.drain(..used_total);
    }
    Ok(())
}
