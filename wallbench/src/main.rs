//! Wall-clock benchmark of the thread executor.
//!
//! ```text
//! hs-wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--worker <hs-worker>]
//! ```
//!
//! Runs one workload as a closed loop (one solve at a time from this
//! thread) for `--seconds`, checks every solve, and prints its metrics by
//! name with units. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with lifecycle recording off;
//! with `--trace 1` they are the per-layer ones of traced solves, which
//! alternate with untraced ones so the two can be set against each other.
//! The exit code is 0 when every solve was correct, 1 when one was wrong
//! or failed, and 2 when the run could not be made at all. See `README.md`
//! for the workloads.

mod host;
mod ledger;
mod phases;
mod probes;
mod stats;
mod workload;

use host::{rss_peak_mb, Fingerprint};
use ledger::{Metric, Probes};
use stats::{median, quartiles, tail, valid_metric_name};
use std::path::PathBuf;
use std::time::Instant;
use workload::{Runner, Solve, Workload};

const USAGE: &str = "usage: hs-wallbench --workload <matmul_native|cholesky_fine|matmul_remote> \
--seed <n> --seconds <s> --trace <0|1> [--worker <hs-worker>]";

/// The closed loop runs past `--seconds` to reach its sample minimum, but
/// never longer than this in total.
const MAX_LOOP_S: f64 = 100.0;

/// A reported tail needs ten samples beyond it, so at least eleven.
const MIN_TAIL_SAMPLES: usize = stats::TAIL_BEYOND + 1;

/// Traced and untraced solves a traced run keeps at least, each.
const MIN_TRACE_SAMPLES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: Option<PathBuf>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut worker = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?,
                    )
                }
                "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} is outside (0, 600]"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                    })
                }
                "--worker" => worker = Some(PathBuf::from(val)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            worker,
        })
    }
}

/// Solves attempted and failed over the whole run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, r: Result<Solve, String>) -> Option<Solve> {
        self.attempted += 1;
        match r {
            Ok(s) => Some(s),
            Err(e) => {
                self.failed += 1;
                eprintln!("wallbench: solve {} failed: {e}", self.attempted);
                None
            }
        }
    }
}

/// Run solves back to back until `seconds` have passed and at least
/// `min_samples` succeeded (the latter bounded by [`MAX_LOOP_S`], and
/// waived once a solve has failed). With `alternate`, every other solve is
/// traced, so traced and untraced solves meet the same host conditions,
/// and `after_traced` runs after each traced solve.
fn closed_loop(
    runner: &mut Runner,
    tally: &mut Tally,
    seconds: f64,
    min_samples: usize,
    alternate: bool,
    mut after_traced: impl FnMut(),
) -> Vec<Solve> {
    let start = Instant::now();
    let mut out = Vec::new();
    for i in 0.. {
        let t = start.elapsed().as_secs_f64();
        // A run that has seen a failure is already wrong: it does not chase
        // the sample minimum.
        if t >= MAX_LOOP_S || (t >= seconds && (out.len() >= min_samples || tally.failed > 0)) {
            break;
        }
        let traced = alternate && i % 2 == 1;
        out.extend(tally.record(runner.solve(traced)));
        if traced {
            after_traced();
        }
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; a non-finite value (a bug upstream) is reported and
/// written as 0 so the line stays parseable.
fn json_num(name: &str, v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("wallbench: metric {name} is {v}; written as 0");
        "0".to_string()
    }
}

fn print_metrics(ms: &[Metric]) {
    for m in ms {
        assert!(valid_metric_name(m.name), "invalid metric name {}", m.name);
        println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn result_line(correct: bool, tally: &Tally, ms: &[Metric]) -> String {
    let metrics: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.name, m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

fn solve_times(solves: &[Solve]) -> Vec<f64> {
    solves.iter().map(|s| s.solve_s).collect()
}

/// The run; `Ok(correct)` once a result line has been printed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let fp = Fingerprint::detect();
    let lanes = w.lanes();
    if lanes > fp.nproc {
        return Err(format!(
            "{} runs {lanes} compute lanes but nproc is {}: refusing to oversubscribe",
            w.name(),
            fp.nproc
        ));
    }
    let mut runner = Runner::new(w, args.worker.clone())?;
    println!(
        "run_record {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"lanes\": {lanes}, \
         \"n\": {}, \"tile\": {}, \"nproc\": {}, \"cpu_model\": {}, \"avx2\": {}, \"fma\": {}}}",
        json_str(w.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::N,
        w.tile(),
        fp.nproc,
        json_str(&fp.cpu_model),
        fp.avx2,
        fp.fma
    );

    // One warm-up solve, inside the measured seconds: checked and counted,
    // its times dropped.
    let warm_up = Instant::now();
    let mut tally = Tally::default();
    tally.record(runner.solve(false));
    let left = args.seconds - warm_up.elapsed().as_secs_f64();

    let min_samples = if args.trace {
        2 * MIN_TRACE_SAMPLES
    } else {
        MIN_TAIL_SAMPLES
    };
    // Bare kernels are timed between traced solves, so the ledger sets them
    // against solves made under the same host conditions.
    let mut kernel_runs = Vec::new();
    let solves = closed_loop(
        &mut runner,
        &mut tally,
        left,
        min_samples,
        args.trace,
        || kernel_runs.push(probes::kernels(w, args.seed)),
    );
    let (traced, plain): (Vec<Solve>, Vec<Solve>) =
        solves.into_iter().partition(|s| s.trace.is_some());
    let rss_mb = rss_peak_mb().unwrap_or(0.0);
    let in_process_s = runner.reference().unwrap_or_else(|e| {
        // Every remote solve reproduced one checksum; if the in-process
        // run disagrees with it, all of them were wrong.
        eprintln!("wallbench: {e}");
        tally.failed = tally.attempted;
        None
    });

    let metrics = if args.trace {
        let untraced_p50 = median(&solve_times(&plain)).unwrap_or(0.0);
        let wire = if w.is_remote() {
            let worker = runner.spawn_worker()?;
            Some(probes::wire(&worker, w.tile() * w.tile() * 8, args.seed)?)
        } else {
            None
        };
        let probes = Probes {
            kernels: probes::median_kernels(&kernel_runs),
            serial_s: probes::serial(w, args.seed),
            wire,
            in_process_s,
        };
        let ms = ledger::per_layer(w, untraced_p50, &traced, &probes);
        print_metrics(&ms);
        println!(
            "{}: {} untraced and {} traced solves, untraced solve_s.p50 = {untraced_p50:.6} s",
            w.name(),
            plain.len(),
            traced.len()
        );
        let (holds, why) = ledger::layer_check(w, &ms);
        println!(
            "finding: the ledger {} that {} loads {why}",
            if holds { "shows" } else { "does NOT show" },
            w.name()
        );
        let ratio = ledger::value(&ms, "ledger.bare_over_busy");
        if ratio > 1.1 {
            println!(
                "finding: the ledger does not close: bare kernel time is {ratio:.3}x sink busy time"
            );
        }
        ms
    } else {
        let times = solve_times(&plain);
        let setups: Vec<f64> = plain.iter().map(|s| s.setup_s).collect();
        let t = tail(&times);
        let ms = ledger::end_to_end(w, &times, &setups, rss_mb);
        print_metrics(&ms);
        // fail_ratio is printed but left out of the result line: it reads 0
        // on a correct run, and the result line carries failed/attempted.
        println!(
            "  {:<30} {:>16.6} ratio ({} of {} solves)",
            "fail_ratio",
            tally.failed as f64 / tally.attempted as f64,
            tally.failed,
            tally.attempted
        );
        let listed: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
        println!(
            "{}: solve_s samples in run order: {}",
            w.name(),
            listed.join(" ")
        );
        match (t, quartiles(&times)) {
            (Some(t), Some((q1, q3))) => println!(
                "{}: solve_s quartiles {q1:.6} / {q3:.6} s; solve_s.tail is p{:.1} of {} \
                 samples ({} beyond it)",
                w.name(),
                t.percentile,
                t.samples,
                stats::TAIL_BEYOND
            ),
            _ => println!(
                "{}: only {} solves succeeded, too few for a tail",
                w.name(),
                times.len()
            ),
        }
        ms
    };
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!("{}", result_line(correct, &tally, &metrics));
    Ok(correct)
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("wallbench: {e}");
            std::process::exit(2);
        }
    }
}
