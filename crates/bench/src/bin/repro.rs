//! End-to-end reproduction driver: runs simulated consensus instances of
//! one (or both) protocols and prints what they did.
//!
//! ```text
//! cargo run -p sft-bench --bin repro [-- n epochs [scenario] [flags]]
//!   n          replica count           (default 4)
//!   epochs     epochs/rounds to run    (default 10)
//!   scenario   equivocate | withhold | silent | stall — behavior of replica n-1
//!              partition — replica n-1 cut off until mid-run while replica 0
//!                          equivocates; recovery via block-sync is asserted
//!              lossy     — 15% seeded message loss until GST at mid-run
//!              crash     — replica 0 crash-stops mid-run; survivors must keep going
//!              restart   — replica 0 crash-stops mid-run, then restarts from a
//!                          write-ahead-log replay; committed-prefix parity and
//!                          zero equivocation are asserted
//!
//! flags:
//!   --protocol streamlet | fbft | both   which protocol(s) to run (default streamlet)
//!   --transport sim | tcp                sim (default): deterministic simulator;
//!                                        tcp: the same honest replica set over a
//!                                        loopback TCP mesh, asserting its committed
//!                                        prefix matches the sim run's
//!   --batch-size B                       txns per drained mempool batch; 0 = synthetic
//!                                        descriptor workload (default 256)
//!   --replicas LIST                      comma-separated n sweep, e.g. 4,7,10; the
//!                                        first entry is the headline run
//!   --sweep-delay LIST                   comma-separated network δ sweep in ms,
//!                                        e.g. 50,100,200, recorded in the summary's
//!                                        sweep array
//!   --json-dir DIR                       also write BENCH_<protocol>.json summaries
//! ```
//!
//! Every batched headline run is compared against an *unbatched* baseline
//! (the same scenario at batch size 1, equal simulated time); the run fails
//! if batching does not commit at least twice the transactions — the
//! regression bar CI holds the batching/pipelining path to.
//!
//! The JSON summaries (`BENCH_streamlet.json` / `BENCH_fbft.json`) are the
//! machine-readable perf trajectory CI archives on every run and feeds to
//! `scripts/bench_gate`, so future changes are compared against a recorded
//! baseline instead of asserted fast.

use std::fmt::Write as _;
use std::process::ExitCode;

use sft_core::{scan_wal, MemSink, ProtocolConfig, ReplicaEngine, Wal, WalRecord};
use sft_network::{SimNetwork, SimTransport, Transport};
use sft_sim::{
    build_fbft_engines, build_streamlet_engines, run_over_tcp, Behavior, EngineRunner, NoMischief,
    Protocol, RunPlan, RunnerConfig, SimConfig, SimReport, TcpPacing,
};
use sft_types::{Round, SimDuration, SimTime};

/// What the optional third positional argument selects: a Byzantine
/// behavior for replica `n − 1`, or a partial-synchrony fault schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
enum Scenario {
    #[default]
    Honest,
    Byzantine(Behavior),
    /// Replica n−1 partitioned until mid-run while replica 0 equivocates;
    /// the catch-up acceptance criterion (recovery via block-sync) is
    /// asserted on top of the usual invariants.
    Partition,
    /// 15% seeded message loss until GST at mid-run, all replicas honest.
    Lossy,
    /// Replica 0 crash-stops mid-run (engine dropped, never restarted);
    /// the survivors must keep committing and agreeing.
    Crash,
    /// Replica 0 crash-stops mid-run and is later rebuilt from a
    /// write-ahead-log replay through the real frame codec; committed-
    /// prefix parity and zero equivocation are asserted.
    Restart,
}

/// Which transport the run goes over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
enum TransportKind {
    /// The deterministic in-process simulator.
    #[default]
    Sim,
    /// A loopback TCP mesh: same replicas, real sockets, wall-clock time.
    Tcp,
}

struct Args {
    n: usize,
    epochs: u64,
    scenario: Scenario,
    protocols: Vec<Protocol>,
    transport: TransportKind,
    batch_size: u32,
    sweep: Vec<usize>,
    delay_sweep_ms: Vec<u64>,
    json_dir: Option<String>,
}

fn parse_replica_count(value: &str) -> Result<usize, String> {
    value
        .parse()
        .ok()
        .filter(|n| *n >= 4)
        .ok_or_else(|| format!("bad replica count {value:?}; need >= 4"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        n: 4,
        epochs: 10,
        scenario: Scenario::Honest,
        protocols: vec![Protocol::Streamlet],
        transport: TransportKind::Sim,
        batch_size: 256,
        sweep: Vec::new(),
        delay_sweep_ms: Vec::new(),
        json_dir: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = 0usize;
    let mut iter = raw.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--protocol" => {
                let value = iter.next().ok_or("--protocol needs a value")?;
                args.protocols = match value.as_str() {
                    "streamlet" => vec![Protocol::Streamlet],
                    "fbft" => vec![Protocol::Fbft],
                    "both" => vec![Protocol::Streamlet, Protocol::Fbft],
                    other => return Err(format!("unknown protocol {other:?}")),
                };
            }
            "--transport" => {
                let value = iter.next().ok_or("--transport needs a value")?;
                args.transport = match value.as_str() {
                    "sim" => TransportKind::Sim,
                    "tcp" => TransportKind::Tcp,
                    other => return Err(format!("unknown transport {other:?}")),
                };
            }
            "--sweep-delay" => {
                let value = iter.next().ok_or("--sweep-delay needs a value")?;
                args.delay_sweep_ms = value
                    .split(',')
                    .map(|v| {
                        v.parse()
                            .ok()
                            .filter(|ms| *ms > 0)
                            .ok_or_else(|| format!("bad delay {v:?}; need positive ms"))
                    })
                    .collect::<Result<_, _>>()?;
                if args.delay_sweep_ms.is_empty() {
                    return Err("--sweep-delay needs at least one value".to_string());
                }
            }
            "--batch-size" => {
                let value = iter.next().ok_or("--batch-size needs a value")?;
                args.batch_size = value
                    .parse()
                    .map_err(|_| format!("bad batch size {value:?}"))?;
            }
            "--replicas" => {
                let value = iter.next().ok_or("--replicas needs a value")?;
                args.sweep = value
                    .split(',')
                    .map(parse_replica_count)
                    .collect::<Result<_, _>>()?;
                if args.sweep.is_empty() {
                    return Err("--replicas needs at least one value".to_string());
                }
            }
            "--json-dir" => {
                args.json_dir = Some(iter.next().ok_or("--json-dir needs a value")?.clone());
            }
            value => {
                match positional {
                    0 => args.n = parse_replica_count(value)?,
                    1 => {
                        args.epochs = value
                            .parse()
                            .map_err(|_| format!("bad epoch count {value:?}"))?;
                    }
                    2 => {
                        args.scenario = match value {
                            "equivocate" => Scenario::Byzantine(Behavior::Equivocate),
                            "withhold" => Scenario::Byzantine(Behavior::WithholdVote),
                            "silent" => Scenario::Byzantine(Behavior::Silent),
                            "stall" => Scenario::Byzantine(Behavior::StallLeader),
                            "partition" => Scenario::Partition,
                            "lossy" => Scenario::Lossy,
                            "crash" => Scenario::Crash,
                            "restart" => Scenario::Restart,
                            other => {
                                return Err(format!(
                                    "unknown scenario {other:?}; use equivocate | withhold | \
                                     silent | stall | partition | lossy | crash | restart"
                                ))
                            }
                        };
                    }
                    _ => return Err(format!("unexpected argument {value:?}")),
                }
                positional += 1;
            }
        }
    }
    if args.sweep.is_empty() {
        args.sweep = vec![args.n];
    } else {
        args.n = args.sweep[0];
    }
    if matches!(args.scenario, Scenario::Crash | Scenario::Restart)
        && (args.json_dir.is_some() || args.sweep.len() > 1 || !args.delay_sweep_ms.is_empty())
    {
        return Err(
            "crash/restart are acceptance scenarios, not bench runs: they support none of \
             --json-dir / --replicas / --sweep-delay"
                .to_string(),
        );
    }
    if args.transport == TransportKind::Tcp {
        if args.scenario != Scenario::Honest {
            return Err(
                "--transport tcp runs the honest scenario only (fault injection is a \
                 simulator feature)"
                    .to_string(),
            );
        }
        if args.json_dir.is_some() || args.sweep.len() > 1 || !args.delay_sweep_ms.is_empty() {
            return Err(
                "--transport tcp is a parity check, not a bench run: it supports none of \
                 --json-dir / --replicas / --sweep-delay"
                    .to_string(),
            );
        }
    }
    Ok(args)
}

fn protocol_name(protocol: Protocol) -> &'static str {
    match protocol {
        Protocol::Streamlet => "streamlet",
        Protocol::Fbft => "fbft",
    }
}

fn scenario_name(scenario: Scenario) -> &'static str {
    match scenario {
        Scenario::Honest | Scenario::Byzantine(Behavior::Honest) => "honest",
        Scenario::Byzantine(Behavior::Equivocate) => "equivocate",
        Scenario::Byzantine(Behavior::WithholdVote) => "withhold",
        Scenario::Byzantine(Behavior::Silent) => "silent",
        Scenario::Byzantine(Behavior::StallLeader) => "stall",
        Scenario::Partition => "partition",
        Scenario::Lossy => "lossy",
        Scenario::Crash => "crash",
        Scenario::Restart => "restart",
    }
}

/// Seed for the lossy scenario's drop stream — fixed so CI runs are
/// reproducible; the test suite sweeps seeds.
const LOSSY_SEED: u64 = 7;

/// One simulated scenario, ready to run. A non-default `delay` must be
/// applied here, *before* the scenario presets: the partition heal time
/// and the lossy GST are derived from δ, so layering `with_delay` on an
/// already-configured scenario would silently change its shape.
fn configure(
    args: &Args,
    protocol: Protocol,
    n: usize,
    batch_size: u32,
    delay: Option<SimDuration>,
) -> SimConfig {
    let mut config = SimConfig::new(n, args.epochs)
        .with_protocol(protocol)
        .with_batch_size(batch_size)
        // Bench runs record phase timings and per-round latencies for
        // the JSON summary; interactive runs keep the free no-op path.
        .with_recording(args.json_dir.is_some());
    if let Some(delay) = delay {
        config = config.with_delay(delay);
    }
    match args.scenario {
        Scenario::Honest => {}
        Scenario::Byzantine(behavior) => {
            config = config.with_behavior((n - 1) as u16, behavior);
        }
        Scenario::Partition => {
            config = config
                .with_behavior(0, Behavior::Equivocate)
                .with_partitioned_straggler();
        }
        Scenario::Lossy => {
            config = config.with_lossy_links(LOSSY_SEED, 0.15);
        }
        // Crash scenarios need mid-run engine surgery, which a static
        // config cannot express; `run_crash_scenario` drives the runner
        // directly and never comes through here.
        Scenario::Crash | Scenario::Restart => unreachable!("crash scenarios bypass configure"),
    }
    config
}

/// Sanity-checks every run, batched or not: agreement, liveness, and
/// monotone commit strength — plus, for the partition scenario, the
/// block-sync acceptance criterion (the straggler actually recovered).
fn validate(report: &SimReport, scenario: Scenario) -> Result<(), String> {
    if !report.agreement() || report.safety_violations > 0 {
        return Err(format!(
            "replicas disagree (violations: {})",
            report.safety_violations
        ));
    }
    if report.max_committed() == 0 {
        return Err("nothing committed".to_string());
    }
    if !report.commit_strength_monotone() {
        return Err("commit strength regressed".to_string());
    }
    if scenario == Scenario::Partition {
        if report.sync_blocks_fetched == 0 {
            return Err("partition scenario fetched no blocks via sync".to_string());
        }
        if report.recovered_replicas == 0 {
            return Err("partitioned replica did not recover the committed prefix".to_string());
        }
    }
    Ok(())
}

/// One `sweep` array entry: a run at a replica count and network delay.
struct SweepEntry {
    n: usize,
    delay_us: u64,
    report: SimReport,
}

/// Renders the run summary as a flat JSON object (plus a small `sweep`
/// array). Written by hand — the offline dependency set has no serde, and
/// the schema is a dozen scalar fields.
fn summary_json(
    args: &Args,
    protocol: Protocol,
    cfg: ProtocolConfig,
    report: &SimReport,
    baseline: Option<&SimReport>,
    sweep: &[SweepEntry],
) -> String {
    let mut out = String::from("{\n");
    let mut field = |key: &str, value: String| {
        let _ = writeln!(out, "  \"{key}\": {value},");
    };
    field("protocol", format!("\"{}\"", protocol_name(protocol)));
    field("n", args.n.to_string());
    field("f", cfg.f().to_string());
    field("epochs", args.epochs.to_string());
    field("behavior", format!("\"{}\"", scenario_name(args.scenario)));
    field("batch_size", args.batch_size.to_string());
    field("committed_blocks", report.max_committed().to_string());
    field("txns_committed", report.txns_committed.to_string());
    field("txns_per_sec", format!("{:.3}", report.txns_per_sec()));
    field(
        "baseline_txns_committed",
        baseline.map_or("null".to_string(), |b| b.txns_committed.to_string()),
    );
    field(
        "baseline_txns_per_sec",
        baseline.map_or("null".to_string(), |b| format!("{:.3}", b.txns_per_sec())),
    );
    field(
        "batch_speedup",
        baseline.map_or("null".to_string(), |b| {
            format!(
                "{:.3}",
                report.txns_committed as f64 / (b.txns_committed.max(1)) as f64
            )
        }),
    );
    field("max_commit_level", report.max_commit_level().to_string());
    field("strength_ceiling", cfg.max_strength().to_string());
    field("agreement", report.agreement().to_string());
    field(
        "strength_monotone",
        report.commit_strength_monotone().to_string(),
    );
    field(
        "first_commit_us",
        report
            .first_commit_at(0)
            .map_or("null".to_string(), |t| t.as_micros().to_string()),
    );
    field("elapsed_us", report.elapsed.as_micros().to_string());
    field("messages", report.net.messages.to_string());
    field("bytes", report.net.bytes.to_string());
    field("dropped", report.net.dropped.to_string());
    field("sync_requests", report.sync_requests.to_string());
    field(
        "sync_blocks_fetched",
        report.sync_blocks_fetched.to_string(),
    );
    field("recovered_replicas", report.recovered_replicas.to_string());
    field("disconnects", report.net.disconnects.to_string());
    field("walk_steps", report.walk_steps.to_string());
    field("wal_fsyncs", report.wal_fsyncs.to_string());
    field("sig_verifications", report.sig_verifications.to_string());
    field("batch_verify_calls", report.batch_verify_calls.to_string());
    // Recorded counters and histogram digests, one scalar per line so the
    // gate's flat line scanner picks every one of them up individually.
    let flat = report.metrics.flat_fields();
    if !flat.is_empty() {
        let _ = writeln!(out, "  \"metrics\": {{");
        for (i, (name, value)) in flat.iter().enumerate() {
            let comma = if i + 1 == flat.len() { "" } else { "," };
            let _ = writeln!(out, "    \"{name}\": {value}{comma}");
        }
        let _ = writeln!(out, "  }},");
    }
    // The sweep grid: throughput scaling over replica counts (at the
    // default δ) and over network delays (at the headline n).
    let entries: Vec<String> = sweep
        .iter()
        .map(|e| {
            let r = &e.report;
            format!(
                "    {{\"n\": {}, \"delay_us\": {}, \"txns_committed\": {}, \"txns_per_sec\": {:.3}, \"elapsed_us\": {}, \"messages\": {}, \"sig_verifications\": {}, \"batch_verify_calls\": {}}}",
                e.n,
                e.delay_us,
                r.txns_committed,
                r.txns_per_sec(),
                r.elapsed.as_micros(),
                r.net.messages,
                r.sig_verifications,
                r.batch_verify_calls
            )
        })
        .collect();
    let _ = write!(out, "  \"sweep\": [\n{}\n  ]\n}}\n", entries.join(",\n"));
    out
}

fn run_protocol(args: &Args, protocol: Protocol) -> Result<(), String> {
    let cfg = ProtocolConfig::for_replicas(args.n);
    let config = configure(args, protocol, args.n, args.batch_size, None);
    let default_delay_us = config.delay.as_micros();
    println!(
        "running SFT-{}: n={} (f={}), {} {}, δ={}, quorum={}, 2f ceiling={}, batch={}",
        if protocol == Protocol::Fbft {
            "DiemBFT"
        } else {
            "Streamlet"
        },
        args.n,
        cfg.f(),
        args.epochs,
        if protocol == Protocol::Fbft {
            "rounds"
        } else {
            "epochs"
        },
        config.delay,
        cfg.quorum(),
        cfg.max_strength(),
        if args.batch_size == 0 {
            "synthetic".to_string()
        } else {
            args.batch_size.to_string()
        },
    );
    match args.scenario {
        Scenario::Honest => {}
        Scenario::Byzantine(behavior) => println!("replica {} is {:?}", args.n - 1, behavior),
        Scenario::Partition => println!(
            "replica {} partitioned until mid-run; replica 0 equivocates",
            args.n - 1
        ),
        Scenario::Lossy => println!("15% message loss (seed {LOSSY_SEED}) until GST at mid-run"),
        Scenario::Crash | Scenario::Restart => {
            unreachable!("crash scenarios run through run_crash_scenario")
        }
    }

    let report = config.run();
    validate(&report, args.scenario)?;

    println!(
        "\ncommitted chain (replica 0): {} blocks, {} txns ({:.1} txns/s virtual)",
        report.chains[0].len(),
        report.txns_committed,
        report.txns_per_sec(),
    );
    for (at, update) in &report.timelines[0] {
        println!(
            "  t={at}  block r={} h={}  -> level {} ({})",
            update.round(),
            update.height(),
            update.level(),
            if update.level() >= cfg.max_strength() {
                "strong commit, 2f ceiling"
            } else if update.level() as usize == cfg.f() {
                "standard commit"
            } else {
                "strengthened"
            }
        );
    }

    println!(
        "\nnetwork: {} messages, {} bytes, elapsed {}",
        report.net.messages, report.net.bytes, report.elapsed
    );
    println!(
        "signatures: {} verified across {} batch checks",
        report.sig_verifications, report.batch_verify_calls
    );
    if report.equivocators_detected > 0 {
        println!("equivocators detected: {}", report.equivocators_detected);
    }
    if report.net.dropped > 0 || report.sync_requests > 0 {
        println!(
            "faults: {} messages dropped; sync fetched {} blocks over {} requests, {} replica(s) recovered",
            report.net.dropped, report.sync_blocks_fetched, report.sync_requests, report.recovered_replicas
        );
    }

    // The batching bar: against an unbatched (batch-size 1) baseline at
    // equal simulated time, batched+pipelined runs must commit at least
    // twice the transactions. Skipped in synthetic-workload mode.
    let baseline = if args.batch_size >= 2 {
        let baseline = configure(args, protocol, args.n, 1, None).run();
        validate(&baseline, args.scenario)?;
        let speedup = report.txns_committed as f64 / baseline.txns_committed.max(1) as f64;
        println!(
            "batching: {} txns vs {} unbatched at equal simulated time ({speedup:.1}x)",
            report.txns_committed, baseline.txns_committed
        );
        if speedup < 2.0 {
            return Err(format!(
                "batching speedup {speedup:.2}x below the 2x bar (batched {} vs baseline {})",
                report.txns_committed, baseline.txns_committed
            ));
        }
        Some(baseline)
    } else {
        None
    };

    // The sweep grid (headline run reused): larger replica counts at the
    // configured batch size, then the network-δ axis at the headline n.
    let mut sweep: Vec<SweepEntry> = vec![SweepEntry {
        n: args.n,
        delay_us: default_delay_us,
        report: report.clone(),
    }];
    for &n in args.sweep.iter().skip(1) {
        let r = configure(args, protocol, n, args.batch_size, None).run();
        validate(&r, args.scenario)?;
        println!(
            "sweep n={n}: {} committed, {} txns ({:.1} txns/s), {} msgs, {} sig verifies, elapsed {}",
            r.max_committed(),
            r.txns_committed,
            r.txns_per_sec(),
            r.net.messages,
            r.sig_verifications,
            r.elapsed
        );
        sweep.push(SweepEntry {
            n,
            delay_us: default_delay_us,
            report: r,
        });
    }
    for &ms in &args.delay_sweep_ms {
        let delay = SimDuration::from_millis(ms);
        if delay.as_micros() == default_delay_us {
            continue; // the headline entry already covers the default δ
        }
        let r = configure(args, protocol, args.n, args.batch_size, Some(delay)).run();
        validate(&r, args.scenario)?;
        println!(
            "sweep δ={delay}: {} committed, {} txns ({:.1} txns/s), {} msgs, elapsed {}",
            r.max_committed(),
            r.txns_committed,
            r.txns_per_sec(),
            r.net.messages,
            r.elapsed
        );
        sweep.push(SweepEntry {
            n: args.n,
            delay_us: delay.as_micros(),
            report: r,
        });
    }

    println!(
        "\nOK: agreement holds, max commit level {}",
        report.max_commit_level()
    );

    if let Some(dir) = &args.json_dir {
        // Honest runs keep the historical file name; fault scenarios get
        // their own, so one artifact can carry the lossless baseline and
        // the catch-up-cost trajectory side by side and the gate compares
        // like with like (the file name pins the scenario, and the
        // in-file identity fields double-check it).
        let path = match scenario_name(args.scenario) {
            "honest" => format!("{dir}/BENCH_{}.json", protocol_name(protocol)),
            scenario => format!("{dir}/BENCH_{}_{scenario}.json", protocol_name(protocol)),
        };
        let json = summary_json(args, protocol, cfg, &report, baseline.as_ref(), &sweep);
        std::fs::write(&path, json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Round-trips `records` through the on-disk frame codec — encode, then
/// scan back — so the restart replay exercises exactly what a rebooted
/// process would read from `wal.log`, not the in-memory records the
/// runner collected.
fn through_wal_codec(records: &[WalRecord]) -> Result<Vec<WalRecord>, String> {
    let mut wal = Wal::new(MemSink::new(), 4);
    for record in records {
        wal.append(record).map_err(|e| format!("wal encode: {e}"))?;
    }
    wal.flush().map_err(|e| format!("wal flush: {e}"))?;
    let scan = scan_wal(wal.sink().bytes()).map_err(|e| format!("wal scan: {e}"))?;
    if scan.records.len() != records.len() {
        return Err(format!(
            "lossy wal round-trip: {} in, {} out",
            records.len(),
            scan.records.len()
        ));
    }
    Ok(scan.records)
}

/// The `crash` / `restart` scenarios: replica 0 is killed mid-run (its
/// engine — all in-memory state — dropped on the floor, exactly what
/// `kill -9` does to a process), and for `restart` later rebuilt from a
/// write-ahead-log replay through the real frame codec. This is the
/// simulated twin of the `crash-harness` binary's OS-process run, on the
/// CI scenario matrix where it is cheap enough to run everywhere.
fn run_crash_scenario(args: &Args, protocol: Protocol) -> Result<(), String> {
    let config = SimConfig::new(args.n, args.epochs)
        .with_protocol(protocol)
        .with_batch_size(args.batch_size);
    let restart = args.scenario == Scenario::Restart;
    println!(
        "running SFT-{} {}: n={}, {} {} — replica 0 killed mid-run{}",
        if protocol == Protocol::Fbft {
            "DiemBFT"
        } else {
            "Streamlet"
        },
        scenario_name(args.scenario),
        args.n,
        args.epochs,
        if protocol == Protocol::Fbft {
            "rounds"
        } else {
            "epochs"
        },
        if restart {
            ", later restarted from its WAL"
        } else {
            ", never restarted"
        },
    );
    match protocol {
        Protocol::Streamlet => {
            let period = config.delay * 2;
            let build = || build_streamlet_engines(&config, period);
            drive_crash(args, &config, build, RunPlan::UntilQuiescent, restart)
        }
        Protocol::Fbft => {
            let build = || build_fbft_engines(&config, config.base_timeout);
            let plan = RunPlan::PastRound(Round::new(args.epochs));
            drive_crash(args, &config, build, plan, restart)
        }
    }
}

/// The crash-scenario event schedule, shared by both protocols: run a
/// third of the schedule, kill replica 0, (optionally) restart it from a
/// codec-round-tripped WAL replay two periods later, then drive well past
/// the target with a sync drain so catch-up fetches and retries fire.
fn drive_crash<E: ReplicaEngine>(
    args: &Args,
    config: &SimConfig,
    build: impl Fn() -> Vec<E>,
    plan: RunPlan,
    restart: bool,
) -> Result<(), String> {
    let victim = 0usize;
    let period = config.delay * 2;
    let transport = SimTransport::new(SimNetwork::new(config.delay), args.n);
    let mut runner = EngineRunner::new(
        build(),
        vec![Behavior::Honest; args.n],
        transport,
        NoMischief,
        RunnerConfig {
            plan,
            horizon: SimTime::ZERO + config.run_horizon,
            drain_bound: config.drain_sync_bound,
            drain_step: config.delay,
        },
    );

    let crash_at = SimTime::ZERO + period * (args.epochs / 3).max(1);
    runner.run_until(crash_at);
    let pre_crash = runner.engine(victim).committed_chain().to_vec();
    let wal_records = runner.persisted(victim).len();
    if wal_records == 0 {
        return Err("victim crashed with an empty WAL; crash point too early".to_string());
    }
    runner.set_behavior(victim, Behavior::Silent);
    println!(
        "replica {victim} killed at {crash_at}: {wal_records} WAL records, {} committed blocks",
        pre_crash.len()
    );

    if restart {
        let restart_at = crash_at + period * 2;
        runner.run_until(restart_at);
        let replayed = through_wal_codec(runner.persisted(victim))?;
        let mut fresh = build().remove(victim);
        for record in &replayed {
            fresh.restore(record, restart_at);
        }
        runner.replace_engine(victim, fresh);
        runner.set_behavior(victim, Behavior::Honest);
        println!(
            "replica {victim} restarted at {restart_at}: {} records replayed through the \
             frame codec",
            replayed.len()
        );
    }

    // Generous tail: self-pacing fbft rounds stall for a timeout whenever
    // the dead (or catching-up) victim holds the leader slot, so give the
    // survivors room; Streamlet's epoch clock simply runs out. Driving in
    // δ steps fires the victim's sync polls and retries along the way.
    let end = match plan {
        RunPlan::UntilQuiescent => SimTime::ZERO + period * (args.epochs + 2),
        RunPlan::PastRound(_) => crash_at + config.base_timeout * 2 * (args.epochs + 6),
    };
    let mut at = runner.transport().now();
    while at < end {
        at += config.delay;
        runner.run_until(at);
    }
    for step in 1..=60u64 {
        runner.run_until(end + config.delay * step);
    }

    let report = runner.report();
    if !report.agreement() || report.safety_violations > 0 {
        return Err(format!(
            "committed prefixes diverge after the crash (violations: {})",
            report.safety_violations
        ));
    }
    if report.equivocators_detected > 0 {
        return Err(format!(
            "{} equivocator(s) observed — a recovered replica contradicted itself",
            report.equivocators_detected
        ));
    }
    let survivor_best = report
        .chains
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != victim)
        .map(|(_, c)| c.len())
        .max()
        .unwrap_or(0);
    if survivor_best <= pre_crash.len() {
        return Err(format!(
            "survivors made no progress past the crash ({survivor_best} vs {} pre-crash)",
            pre_crash.len()
        ));
    }
    let victim_chain = &report.chains[victim];
    if victim_chain.len() < pre_crash.len() || victim_chain[..pre_crash.len()] != pre_crash[..] {
        return Err("the victim's committed prefix rolled back".to_string());
    }
    if restart && victim_chain.len() <= pre_crash.len() {
        return Err(format!(
            "restarted replica made no progress past its pre-crash prefix ({} blocks)",
            pre_crash.len()
        ));
    }
    println!(
        "\nOK: agreement holds; survivors reached {survivor_best} blocks{}",
        if restart {
            format!(
                "; the restarted replica kept {} pre-crash blocks and committed {} more",
                pre_crash.len(),
                report.chains[victim].len() - pre_crash.len()
            )
        } else {
            format!(
                "; the dead replica's chain froze at {} blocks",
                report.chains[victim].len()
            )
        }
    );
    Ok(())
}

/// Runs the honest scenario over a loopback TCP mesh — the same engines
/// the simulator builds, over real sockets, via [`sft_sim::run_over_tcp`]
/// — and asserts the committed prefix matches the deterministic sim
/// run's. This is the acceptance check that the replica runtime is
/// genuinely transport-agnostic.
fn run_tcp_protocol(args: &Args, protocol: Protocol) -> Result<(), String> {
    let config = configure(args, protocol, args.n, args.batch_size, None);
    println!(
        "running SFT-{} over loopback TCP: n={}, {} {}, batch={} (sim reference first)",
        if protocol == Protocol::Fbft {
            "DiemBFT"
        } else {
            "Streamlet"
        },
        args.n,
        args.epochs,
        if protocol == Protocol::Fbft {
            "rounds"
        } else {
            "epochs"
        },
        args.batch_size,
    );

    let sim_report = config.clone().run();
    validate(&sim_report, args.scenario)?;

    // One process hosts every replica, so per-epoch engine work grows
    // with n while the wall-clock epoch does not: widen the pacing unit
    // for large meshes or proposals stop landing inside their epochs.
    let mut pacing = TcpPacing::default();
    pacing.delta = pacing.delta * (1 + args.n as u64 / 8);
    let tcp_report = run_over_tcp(&config, pacing).map_err(|e| format!("tcp mesh: {e}"))?;

    if !tcp_report.agreement() || tcp_report.safety_violations > 0 {
        return Err("tcp replicas disagree".to_string());
    }
    if tcp_report.max_committed() == 0 {
        return Err("tcp run committed nothing".to_string());
    }
    tcp_report
        .check_committed_prefix_of(&sim_report)
        .map_err(|e| format!("tcp vs sim: {e}"))?;
    println!(
        "tcp: {} blocks / {} txns committed in {} wall ({} messages, {} bytes); \
         sim reference: {} blocks — prefixes match on all {} replicas",
        tcp_report.max_committed(),
        tcp_report.txns_committed,
        tcp_report.elapsed,
        tcp_report.net.messages,
        tcp_report.net.bytes,
        sim_report.max_committed(),
        args.n,
    );
    println!("OK: loopback TCP commits the sim run's prefix");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    // Before the run, not after it: a bad directory fails in a moment.
    if let Some(dir) = &args.json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("creating {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }
    for (i, &protocol) in args.protocols.iter().enumerate() {
        if i > 0 {
            println!("\n{}\n", "=".repeat(64));
        }
        let outcome = match (args.transport, args.scenario) {
            (TransportKind::Sim, Scenario::Crash | Scenario::Restart) => {
                run_crash_scenario(&args, protocol)
            }
            (TransportKind::Sim, _) => run_protocol(&args, protocol),
            (TransportKind::Tcp, _) => run_tcp_protocol(&args, protocol),
        };
        if let Err(message) = outcome {
            eprintln!("FAIL ({}): {message}", protocol_name(protocol));
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
