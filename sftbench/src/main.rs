//! `sftbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs fresh-cluster trials of one workload for about `S` seconds and
//! prints every metric with its unit, then one JSON result line. With
//! `--trace 0` the trials are untraced and the metrics are end to end;
//! with `--trace 1` traced and untraced trials alternate and the metrics
//! are per layer. `--workload all` runs every workload, each in a fresh
//! process. Exits non-zero when any trial fails the correctness gate.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use sftbench::cluster::{run_trial, Trial};
use sftbench::report::{self, Isolated, Outcome};
use sftbench::stats::{median, result_json};
use sftbench::workload::{client_inputs, Workload, KEPT};
use sftbench::{count, isolated};

/// Trials every run makes at least, so its medians have something to
/// take the middle of.
const MIN_TRIALS: usize = 3;
/// Clusters an untraced run sets up, and tears down unloaded, before its
/// first trial; `setup_s` is their median. Timing set-up apart from the
/// trials keeps a previous trial's teardown (hundreds of MB of WAL on
/// `sft_bulk`) out of it.
const SETUP_SAMPLES: usize = 21;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `--workload all`: every kept workload in a fresh process of its own,
/// so each one's peak memory is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("sftbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in KEPT {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sftbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!("sftbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    match run(&w, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sftbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the trials and prints the result; `Ok(false)` when the
/// correctness gate failed.
fn run(w: &Workload, args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let wal_root = PathBuf::from(".bench_wal").join(std::process::id().to_string());
    let mut traced: Vec<Trial> = Vec::new();
    let mut untraced: Vec<Outcome> = Vec::new();
    let mut durations: Vec<f64> = Vec::new();
    let mut loads: Vec<f64> = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut setups = Vec::new();
    if !args.trace {
        let unloaded = Workload {
            per_client: 0,
            ..*w
        };
        for i in 0..SETUP_SAMPLES {
            let dir = wal_root.join(format!("setup-{i}"));
            let trial = run_trial(
                &unloaded,
                client_inputs(args.seed, u64::MAX - i as u64),
                &dir,
                false,
            )?;
            setups.push(trial.setup.as_secs_f64());
        }
    }
    loop {
        let index = durations.len();
        let enough = index >= MIN_TRIALS * if args.trace { 2 } else { 1 };
        // Start another trial only if a typical one still fits: a trial
        // that stalled does not cut the run short.
        let typical = Duration::from_secs_f64(median(&durations));
        if enough && started.elapsed() + typical > budget {
            break;
        }
        // A traced run alternates traced and untraced trials, so both
        // see the same machine state and the overhead is a fair ratio.
        let tracing = args.trace && index % 2 == 1;
        let t0 = Instant::now();
        report::reset_peak_rss();
        let trial = run_trial(
            w,
            client_inputs(args.seed, index as u64),
            &wal_root.join(format!("trial-{index}")),
            tracing,
        )?;
        let peak_rss_mb = report::peak_rss_mb();
        eprintln!(
            "trial {index}: traced={} load {:.3} s, {:.1} txns/s, {} blocks",
            u8::from(tracing),
            trial.load.as_secs_f64(),
            report::txns_per_s(&trial),
            trial.chain.blocks
        );
        durations.push(t0.elapsed().as_secs_f64());
        loads.push(trial.load.as_secs_f64());
        for failure in trial.gate_failures() {
            eprintln!("sftbench: trial {index}: {failure}");
            correct = false;
        }
        attempted += trial.attempted;
        failed += trial.failed();
        if tracing {
            traced.push(trial);
        } else {
            untraced.push(Outcome::of(&trial, peak_rss_mb));
        }
    }
    let _ = std::fs::remove_dir(&wal_root);
    let _ = std::fs::remove_dir(".bench_wal");

    loads.sort_by(f64::total_cmp);
    println!(
        "sftbench workload={} seed={} trace={} trials={} trial_load_s=[min {:.3}, median {:.3}, max {:.3}]",
        w.name,
        args.seed,
        u8::from(args.trace),
        loads.len(),
        loads[0],
        median(&loads),
        loads[loads.len() - 1],
    );
    let metrics = if args.trace {
        let traced: Vec<&Trial> = traced.iter().collect();
        let metrics = report::per_layer(
            &traced,
            &untraced,
            &measure_isolated(w, &traced),
            count::exact_counts(w),
        );
        for m in &metrics {
            println!("{:<40} {:>14.4} {}", m.name, m.value, m.unit);
        }
        metrics
    } else {
        let (metrics, lines) = report::end_to_end(&untraced, &setups);
        for line in lines {
            println!("{line}");
        }
        metrics
    };
    // Zero on a healthy run, so it is no gated metric; the result line
    // carries it as `failed` over `attempted`.
    println!(
        "{:<20} {:>12.4} fraction ({failed} of {attempted})",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// The isolated costs, at the shapes the traced trials produced.
fn measure_isolated(w: &Workload, traced: &[&Trial]) -> Isolated {
    let depth = report::depth_end(traced).round() as u64;
    let txns = report::txns_per_block(traced).round() as usize;
    let proposal = traced
        .iter()
        .filter_map(|t| t.trace.as_ref())
        .flat_map(|t| t.engines.iter())
        .filter_map(|e| e.proposal.clone())
        .max_by_key(|p| p.len());
    let (try_submit_us, next_batch_us) = isolated::mempool_us(w.payload_bytes);
    Isolated {
        endorse_info_us: isolated::endorse_info_us(depth),
        try_submit_us,
        next_batch_us,
        sha256_block_us: isolated::sha256_block_us(txns, w.payload_bytes),
        hmac_sign_us: isolated::hmac_sign_us(),
        verify_batch_q3_us: isolated::verify_batch_q3_us(),
        proposal_decode_us: proposal.map_or(0.0, |p| isolated::proposal_decode_us(&p)),
        client_frame_us: isolated::client_frame_us(w.payload_bytes),
    }
}
