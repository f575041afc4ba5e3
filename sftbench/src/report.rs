//! Turns trials into the end-to-end and per-layer metrics.

use std::time::{Duration, Instant};

use crate::cluster::Trial;
use crate::stats::{median, metric, summarize, Metric, Summary};
use crate::trace::CallStats;
use crate::workload::{ACK_AT, GATEWAYS};

/// Acks before the measured window opens: one full window per client,
/// so the window starts with the loop already closed.
const WARMUP_ACKS: usize = 64;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// When trial `t`'s measured window opens: the arrival of its
/// [`WARMUP_ACKS`]-th ack, and the arrival of its last one.
fn window(t: &Trial) -> Option<(Instant, Instant)> {
    let mut acked: Vec<Instant> = t
        .clients
        .iter()
        .flat_map(|c| c.records.iter().filter_map(|r| r.acked))
        .collect();
    acked.sort();
    let first = *acked.get(WARMUP_ACKS)?;
    Some((first, *acked.last()?))
}

/// Committed acks per second over trial `t`'s measured window.
pub fn txns_per_s(t: &Trial) -> f64 {
    let Some((open, close)) = window(t) else {
        return 0.0;
    };
    let acks = t
        .clients
        .iter()
        .flat_map(|c| c.records.iter().filter_map(|r| r.acked))
        .filter(|&a| a > open)
        .count();
    acks as f64 / close.duration_since(open).as_secs_f64()
}

/// Ack latencies (ms) of requests at strength `ack_at` acked inside
/// trial `t`'s measured window.
fn latencies(t: &Trial, ack_at: u64) -> Vec<f64> {
    let Some((open, _)) = window(t) else {
        return Vec::new();
    };
    t.clients
        .iter()
        .flat_map(|c| c.records.iter())
        .filter(|r| r.ack_at == ack_at)
        .filter_map(|r| match r.acked {
            Some(acked) if acked > open => Some(ms(acked.duration_since(r.sent))),
            _ => None,
        })
        .collect()
}

/// The process's peak resident set since the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the peak resident set from the current one, so each trial's
/// peak is its own and not that of the trials before it.
pub fn reset_peak_rss() {
    // Not every kernel allows it; the peak then spans the whole run.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// What an untraced trial contributes to the end-to-end metrics; the
/// trial itself is dropped, so memory does not grow with the trial count.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Committed acks per second over the measured window.
    pub txns_per_s: f64,
    /// Ack latencies at standard commit, in ms.
    pub ack_ms: Vec<f64>,
    /// Ack latencies at the strength ceiling, in ms.
    pub strong_ms: Vec<f64>,
    /// The trial's peak resident set, in MiB.
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// Summarizes trial `t`, whose peak resident set was `peak_rss_mb`.
    pub fn of(t: &Trial, peak_rss_mb: f64) -> Self {
        Self {
            txns_per_s: txns_per_s(t),
            ack_ms: latencies(t, ACK_AT[0]),
            strong_ms: latencies(t, ACK_AT[1]),
            peak_rss_mb,
        }
    }
}

/// The end-to-end metrics of untraced trials and the run's set-up
/// samples (seconds), plus one human-readable line per metric.
pub fn end_to_end(trials: &[Outcome], setups: &[f64]) -> (Vec<Metric>, Vec<String>) {
    let column = |f: fn(&Outcome) -> f64| trials.iter().map(f).collect::<Vec<_>>();
    let pooled = |f: fn(&Outcome) -> &Vec<f64>| {
        summarize(
            &trials
                .iter()
                .flat_map(|t| f(t).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let acks = pooled(|t| &t.ack_ms);
    let strong = pooled(|t| &t.strong_ms);
    let metrics = vec![
        metric("txns_per_s", "1/s", median(&column(|t| t.txns_per_s))),
        metric("ack_p50_ms", "ms", acks.p50),
        metric("ack_tail_ms", "ms", acks.tail),
        metric("strong_ack_p50_ms", "ms", strong.p50),
        metric("strong_ack_tail_ms", "ms", strong.tail),
        metric("setup_s", "s", median(setups)),
        metric("peak_rss_mb", "MiB", median(&column(|t| t.peak_rss_mb))),
    ];
    let tail = |s: &Summary| format!(" (p{} of {} samples)", s.tail_pct, s.count);
    let lines = metrics
        .iter()
        .map(|m| {
            let extra = match m.name.as_str() {
                "ack_tail_ms" => tail(&acks),
                "strong_ack_tail_ms" => tail(&strong),
                "ack_p50_ms" | "strong_ack_p50_ms" => String::new(),
                "setup_s" => format!(" (median of {} unloaded set-ups)", setups.len()),
                _ => format!(" (median of {} trials)", trials.len()),
            };
            format!("{:<20} {:>12.4} {}{extra}", m.name, m.value, m.unit)
        })
        .collect();
    (metrics, lines)
}

/// One request's five stages, in microseconds, and its client-observed
/// latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageSplit {
    /// Client write → `submit`.
    pub ingress: f64,
    /// `submit` → the step that committed its block.
    pub admit_to_commit: f64,
    /// Commit → the step that made the block as strong as requested.
    pub commit_to_strong: f64,
    /// That step → the `drain_acks` that handed the ack over.
    pub strong_to_ack: f64,
    /// `drain_acks` → the client's read.
    pub egress: f64,
    /// Client write → client read.
    pub total: f64,
}

impl StageSplit {
    /// The five stages, in order.
    pub fn stages(&self) -> [f64; 5] {
        [
            self.ingress,
            self.admit_to_commit,
            self.commit_to_strong,
            self.strong_to_ack,
            self.egress,
        ]
    }

    /// Latency the stages do not account for (missing stamps, clock
    /// disorder).
    pub fn unattributed(&self) -> f64 {
        (self.total - self.stages().iter().sum::<f64>()).abs()
    }
}

/// The stage split of every acked request of a traced trial. A stamp the
/// trace lacks leaves its stages at zero, which shows as unattributed.
pub fn stage_splits(t: &Trial) -> Vec<StageSplit> {
    let Some(trace) = &t.trace else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (c, client) in t.clients.iter().enumerate() {
        let engine = &trace.engines[usize::from(GATEWAYS[c])];
        for r in &client.records {
            let Some(acked) = r.acked else { continue };
            let between = |a: Option<Instant>, b: Option<Instant>| match (a, b) {
                (Some(a), Some(b)) => us(b.saturating_duration_since(a)),
                _ => 0.0,
            };
            let s = engine.stamps.get(&r.txn_id);
            let submit = s.map(|s| s.submit);
            let commit = s.and_then(|s| s.commit);
            let strong = s.and_then(|s| s.strong);
            let drained = s.and_then(|s| s.drained);
            out.push(StageSplit {
                ingress: between(Some(r.sent), submit),
                admit_to_commit: between(submit, commit),
                commit_to_strong: between(commit, strong),
                strong_to_ack: between(strong, drained),
                egress: between(drained, Some(acked)),
                total: us(acked.duration_since(r.sent)),
            });
        }
    }
    out
}

/// Inputs the per-layer metrics need beyond the traced trials.
pub struct Isolated {
    /// `honest_endorse_info` at the traced trials' final committed depth.
    pub endorse_info_us: f64,
    /// Per-transaction admission.
    pub try_submit_us: f64,
    /// One batch drain.
    pub next_batch_us: f64,
    /// One block payload digest.
    pub sha256_block_us: f64,
    /// One HMAC signature.
    pub hmac_sign_us: f64,
    /// One batched verification of three signatures.
    pub verify_batch_q3_us: f64,
    /// One proposal envelope decode.
    pub proposal_decode_us: f64,
    /// One client request frame, encoded and decoded.
    pub client_frame_us: f64,
}

/// The committed depth per-layer costs are set against: the median
/// final depth of the traced trials.
pub fn depth_end(traced: &[&Trial]) -> f64 {
    median(
        &traced
            .iter()
            .map(|t| t.chain.blocks as f64)
            .collect::<Vec<_>>(),
    )
}

/// Mean committed transactions per committed block over the traced
/// trials.
pub fn txns_per_block(traced: &[&Trial]) -> f64 {
    let blocks: u64 = traced.iter().map(|t| t.chain.blocks).sum();
    let txns: u64 = traced.iter().map(|t| t.chain.txns).sum();
    txns as f64 / blocks.max(1) as f64
}

/// The per-layer metrics of `traced` trials; `untraced` trials of the
/// same run give the tracing overhead, `isolated` the isolated costs,
/// and `counts` the exact-count pass.
pub fn per_layer(
    traced: &[&Trial],
    untraced: &[Outcome],
    isolated: &Isolated,
    counts: Vec<Metric>,
) -> Vec<Metric> {
    let n = traced.len().max(1) as f64;
    let wall: Duration = traced.iter().map(|t| t.load).sum();
    let blocks = traced.iter().map(|t| t.chain.blocks).sum::<u64>().max(1) as f64;
    let traces: Vec<_> = traced.iter().filter_map(|t| t.trace.as_ref()).collect();
    let engines: Vec<_> = traces.iter().flat_map(|t| t.engines.iter()).collect();
    let fold = |pick: &dyn Fn(&crate::trace::EngineTrace) -> &CallStats| {
        let mut all = CallStats::default();
        for e in &engines {
            all.merge(pick(e));
        }
        all
    };
    let on_envelope = fold(&|e| &e.on_envelope);
    let on_tick = fold(&|e| &e.on_tick);
    let submit = fold(&|e| &e.submit);
    let drain_acks = fold(&|e| &e.drain_acks);
    let engine_busy: Duration = engines.iter().map(|e| e.busy()).sum();
    let mut poll_deliver = CallStats::default();
    let mut send = CallStats::default();
    let mut send_client = CallStats::default();
    for t in &traces {
        poll_deliver.merge(&t.transport.poll_deliver);
        send.merge(&t.transport.send);
        send.merge(&t.transport.send_gated);
        send_client.merge(&t.transport.send_client);
    }
    let mut append = CallStats::default();
    let mut fsyncs = 0u64;
    for w in traces.iter().flat_map(|t| t.wals.iter()) {
        append.merge(&w.append);
        fsyncs += w.fsyncs;
    }
    let wal_bytes: u64 = traces.iter().map(|t| t.wal_bytes).sum();
    let sum_report = |f: &dyn Fn(&Trial) -> u64| traced.iter().map(|t| f(t)).sum::<u64>() as f64;
    let pct = |stats: &CallStats, q: f64| {
        let mut s: Vec<f64> = stats.samples.iter().map(|&ns| ns as f64 / 1e3).collect();
        if s.is_empty() {
            return 0.0;
        }
        s.sort_by(f64::total_cmp);
        crate::stats::quantile(&s, q)
    };
    let frac = |d: Duration| d.as_secs_f64() / wall.as_secs_f64().max(f64::MIN_POSITIVE);
    let per_trial_ms = |d: Duration| ms(d) / n;

    let splits: Vec<StageSplit> = traced.iter().flat_map(|t| stage_splits(t)).collect();
    let stage = |f: fn(&StageSplit) -> f64| summarize(&splits.iter().map(f).collect::<Vec<_>>());
    let total_latency: f64 = splits.iter().map(|s| s.total).sum();
    let unattributed: f64 = splits.iter().map(StageSplit::unattributed).sum();

    let traced_tps = median(&traced.iter().map(|t| txns_per_s(t)).collect::<Vec<_>>());
    let untraced_tps = median(&untraced.iter().map(|t| t.txns_per_s).collect::<Vec<_>>());
    let client_sum = |f: fn(&crate::client::ClientOutcome) -> u64| {
        traced
            .iter()
            .flat_map(|t| t.clients.iter())
            .map(f)
            .sum::<u64>() as f64
            / n
    };

    let mut out = vec![
        metric("runner.busy_frac", "fraction", frac(engine_busy)),
        metric("runner.wait_frac", "fraction", frac(poll_deliver.busy)),
        metric(
            "engine.on_envelope.calls",
            "count",
            on_envelope.calls as f64 / n,
        ),
        metric("engine.on_envelope.p50_us", "us", pct(&on_envelope, 0.5)),
        metric("engine.on_envelope.p99_us", "us", pct(&on_envelope, 0.99)),
        metric(
            "engine.on_envelope.busy_ms",
            "ms",
            per_trial_ms(on_envelope.busy),
        ),
        metric("engine.on_tick.busy_ms", "ms", per_trial_ms(on_tick.busy)),
        metric("engine.busy_us_per_block", "us", us(engine_busy) / blocks),
        metric("endorse.info_us_at_depth", "us", isolated.endorse_info_us),
        metric(
            "endorse.walk_steps_per_block",
            "steps",
            sum_report(&|t| t.report.walk_steps) / blocks,
        ),
        metric("consensus.blocks_per_s", "1/s", blocks / wall.as_secs_f64()),
        metric("consensus.chain_depth_end", "blocks", depth_end(traced)),
        metric("consensus.txns_per_block", "txns", txns_per_block(traced)),
        metric(
            "consensus.empty_block_frac",
            "fraction",
            sum_report(&|t| t.chain.empty_blocks) / blocks,
        ),
        metric(
            "consensus.timeouts",
            "msgs",
            engines.iter().map(|e| e.timeouts).sum::<u64>() as f64 / n,
        ),
        metric(
            "consensus.sync_requests",
            "msgs",
            engines.iter().map(|e| e.sync_requests).sum::<u64>() as f64 / n,
        ),
        metric("engine.submit.calls", "count", submit.calls as f64 / n),
        metric("engine.submit.p99_us", "us", pct(&submit, 0.99)),
        metric(
            "engine.drain_acks.busy_ms",
            "ms",
            per_trial_ms(drain_acks.busy),
        ),
        metric("mempool.try_submit_us", "us", isolated.try_submit_us),
        metric("mempool.next_batch_us", "us", isolated.next_batch_us),
    ];
    for (name, f) in [
        (
            "ingress",
            (|s: &StageSplit| s.ingress) as fn(&StageSplit) -> f64,
        ),
        ("admit_to_commit", |s| s.admit_to_commit),
        ("commit_to_strong", |s| s.commit_to_strong),
        ("strong_to_ack", |s| s.strong_to_ack),
        ("egress", |s| s.egress),
    ] {
        let s = stage(f);
        out.push(metric(format!("stage.{name}_us.p50"), "us", s.p50));
        out.push(metric(format!("stage.{name}_us.p99"), "us", s.tail));
    }
    out.extend([
        metric(
            "stage.unattributed_frac",
            "fraction",
            unattributed / total_latency.max(f64::MIN_POSITIVE),
        ),
        metric(
            "net.poll_deliver.wait_ms",
            "ms",
            per_trial_ms(poll_deliver.busy),
        ),
        metric("net.send.busy_ms", "ms", per_trial_ms(send.busy)),
        metric(
            "net.send_client.busy_ms",
            "ms",
            per_trial_ms(send_client.busy),
        ),
        metric(
            "net.msgs_per_block",
            "msgs",
            sum_report(&|t| t.report.net.messages) / blocks,
        ),
        metric(
            "net.bytes_per_block",
            "B",
            sum_report(&|t| t.report.net.bytes) / blocks,
        ),
        metric("wal.append.calls", "count", append.calls as f64 / n),
        metric("wal.append.p99_us", "us", pct(&append, 0.99)),
        metric("wal.bytes_per_block", "B", wal_bytes as f64 / blocks),
        metric("wal.fsyncs_per_block", "count", fsyncs as f64 / blocks),
        metric(
            "wal.records_per_fsync",
            "records",
            append.calls as f64 / fsyncs.max(1) as f64,
        ),
        metric("crypto.sha256_us_per_block", "us", isolated.sha256_block_us),
        metric("crypto.hmac_sign_us", "us", isolated.hmac_sign_us),
        metric(
            "crypto.verify_batch_q3_us",
            "us",
            isolated.verify_batch_q3_us,
        ),
        metric(
            "crypto.sig_verifications_per_block",
            "count",
            sum_report(&|t| t.report.sig_verifications) / blocks,
        ),
        metric(
            "crypto.batch_calls_per_block",
            "count",
            sum_report(&|t| t.report.batch_verify_calls) / blocks,
        ),
        metric(
            "codec.envelope_decode_us_per_block",
            "us",
            isolated.proposal_decode_us,
        ),
        metric("codec.client_frame_us", "us", isolated.client_frame_us),
        metric(
            "client.requests_sent",
            "count",
            client_sum(|c| c.requests_sent),
        ),
        metric(
            "client.busy_retries",
            "count",
            client_sum(|c| c.busy_retries),
        ),
        metric(
            "trace.overhead_frac",
            "fraction",
            1.0 - traced_tps / untraced_tps.max(f64::MIN_POSITIVE),
        ),
    ]);
    out.extend(counts);
    out
}
