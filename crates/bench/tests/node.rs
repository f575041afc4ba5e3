//! In-process runs of [`run_node`], the loop behind `sft-node`: four
//! node endpoints on loopback threads, each with its own data directory,
//! driven by the same `EngineRunner` the simulator uses.
//!
//! Per protocol: the `commit.out` chains agree on their common prefix, a
//! node run again on its data directory recovers its WAL and keeps its
//! committed prefix, and (fbft) a client request sent to node 0's
//! gateway is proposed, committed and acked.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use sft_bench::node::{run_node, NodeOpts, NodeOutcome, COMMIT_FILE_NAME};
use sft_sim::Protocol;
use sft_types::{
    ClientAck, ClientFrame, ClientRequest, Decode, Encode, Envelope, ProtocolTag, ReplicaId,
    Transaction,
};

const N: usize = 4;

/// `count` distinct loopback addresses, reserved by bind-then-drop.
fn free_addrs(count: usize) -> Vec<SocketAddr> {
    let holds: Vec<TcpListener> = (0..count)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    holds.iter().map(|l| l.local_addr().unwrap()).collect()
}

/// A fresh, empty directory for this test's node data.
fn data_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("sft-node-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    root
}

fn opts(
    id: usize,
    peers: &[SocketAddr],
    protocol: Protocol,
    root: &Path,
    genesis: Duration,
) -> NodeOpts {
    NodeOpts {
        id: id as u16,
        listen: peers[id],
        peers: peers.to_vec(),
        protocol,
        data_dir: root.join(format!("node-{id}")),
        epochs: 12,
        budget: Duration::from_secs(30),
        linger: Duration::from_millis(1500),
        delta: Duration::from_millis(20),
        base_timeout: Duration::from_millis(400),
        start_at: Some(genesis),
        trace_out: None,
    }
}

/// Dials `addr` as a client, submits one transaction at `ack_at: 0`,
/// and waits for its ack (`None` if the node hangs up or `wait` runs
/// out first).
fn submit_one(addr: SocketAddr, wait: Duration) -> Option<ClientAck> {
    let give_up = Instant::now() + wait;
    // The node binds on its own thread; retry until it listens.
    let mut sock = loop {
        match TcpStream::connect(addr) {
            Ok(sock) => break sock,
            Err(_) if Instant::now() < give_up => std::thread::sleep(Duration::from_millis(10)),
            Err(_) => return None,
        }
    };
    let (me, replica) = (ReplicaId::new(900), ReplicaId::new(0));
    let req = ClientRequest::new(Transaction::new(900, 0, vec![0x5a; 32]), 0);
    let payload = ClientFrame::Request(req).to_bytes();
    sock.write_all(&Envelope::to_peer(me, replica, ProtocolTag::Client, Vec::new()).to_frame())
        .ok()?;
    sock.write_all(&Envelope::to_peer(me, replica, ProtocolTag::Client, payload).to_frame())
        .ok()?;
    sock.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let (mut buf, mut chunk) = (Vec::new(), [0u8; 4096]);
    while Instant::now() < give_up {
        match sock.read(&mut chunk) {
            Ok(0) => return None,
            Ok(read) => buf.extend_from_slice(&chunk[..read]),
            Err(_) => continue, // read timeout: keep waiting
        }
        if let Ok(Some((env, _))) = Envelope::decode_frame(&buf) {
            return match ClientFrame::from_bytes(&env.payload) {
                Ok(ClientFrame::Ack(ack)) => Some(ack),
                _ => None,
            };
        }
    }
    None
}

/// Runs the four nodes to completion (and, with `client`, one client
/// against node 0 alongside them).
fn run_cluster(
    protocol: Protocol,
    root: &Path,
    client: bool,
) -> (Vec<NodeOutcome>, Option<ClientAck>) {
    let peers = free_addrs(N);
    let genesis = SystemTime::now().duration_since(UNIX_EPOCH).unwrap();
    std::thread::scope(|scope| {
        let nodes: Vec<_> = (0..N)
            .map(|id| {
                let opts = opts(id, &peers, protocol, root, genesis);
                scope.spawn(move || run_node(&opts))
            })
            .collect();
        let ack = client.then(|| submit_one(peers[0], Duration::from_secs(20)));
        let outcomes = nodes
            .into_iter()
            .map(|h| h.join().expect("node thread").expect("node run"))
            .collect();
        (outcomes, ack.flatten())
    })
}

/// The committed chain a node left in its `commit.out`.
fn commit_file(root: &Path, id: usize) -> Vec<String> {
    let path = root.join(format!("node-{id}")).join(COMMIT_FILE_NAME);
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// The cluster commits, agrees, and a restarted node keeps its prefix.
fn nodes_agree_and_recover(protocol: Protocol, tag: &str, client: bool) -> Option<ClientAck> {
    let root = data_root(tag);
    let (outcomes, ack) = run_cluster(protocol, &root, client);

    let chains: Vec<Vec<String>> = (0..N).map(|id| commit_file(&root, id)).collect();
    for (id, (chain, outcome)) in chains.iter().zip(&outcomes).enumerate() {
        assert_eq!(
            chain, &outcome.committed,
            "node {id}: commit.out is its chain"
        );
        assert!(!chain.is_empty(), "node {id} committed nothing");
        assert_eq!(outcome.recovered, 0, "node {id}: fresh data dir");
        assert!(outcome.appended > 0, "node {id} persisted nothing");
    }
    for a in &chains {
        for b in &chains {
            let common = a.len().min(b.len());
            assert_eq!(a[..common], b[..common], "committed prefixes diverge");
        }
    }

    // Node 1 again, alone, on its data dir: its WAL replays before it
    // does anything else, and everything it had committed stays so.
    let peers = free_addrs(N);
    let genesis = SystemTime::now().duration_since(UNIX_EPOCH).unwrap();
    let mut again = opts(1, &peers, protocol, &root, genesis);
    again.budget = Duration::from_millis(300);
    let restarted = run_node(&again).expect("restart");
    assert!(restarted.recovered > 0, "nothing recovered");
    assert!(
        restarted.committed.starts_with(&chains[1]),
        "restart lost committed blocks: {} before, {} after",
        chains[1].len(),
        restarted.committed.len()
    );

    let _ = std::fs::remove_dir_all(&root);
    ack
}

#[test]
fn fbft_nodes_agree_recover_and_ack_a_client() {
    let ack = nodes_agree_and_recover(Protocol::Fbft, "fbft", true);
    assert!(
        matches!(ack, Some(ClientAck::Committed { .. })),
        "client request was not committed: {ack:?}"
    );
}

#[test]
fn streamlet_nodes_agree_and_recover() {
    nodes_agree_and_recover(Protocol::Streamlet, "streamlet", false);
}
