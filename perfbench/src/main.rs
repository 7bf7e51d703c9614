//! Command-line entry point.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke [--seed <n>]
//! ```
//!
//! Runs on rayon's global pool, whose size `RAYON_NUM_THREADS` sets (default:
//! every core).  Prints the provenance header, one line per metric with its
//! unit, and as its last line one JSON object: `correct`, `attempted`,
//! `failed` and the end-to-end (`--trace 0`) or per-layer (`--trace 1`)
//! metrics.  Exits 1 when any operation or check failed, 2 on a usage error
//! or when the pool has more threads than the host has cores.

use perfbench::inputs::Scale;
use perfbench::provenance::{host_cores, Provenance};
use perfbench::runner::{run, Report, RunOptions, END_TO_END, PER_LAYER};
use perfbench::workload::Kind;
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.smoke && args.workload.is_none() {
        return Err("--workload is required (or --smoke)".into());
    }
    Ok(args)
}

fn print_report(kind: Kind, report: &Report) {
    for line in &report.lines {
        println!("{kind_name} {line}", kind_name = kind.name());
    }
    for (name, value, unit) in &report.e2e {
        println!("e2e {} {name} = {value} {unit}", kind.name());
    }
    for (name, value, unit) in &report.layers {
        let computed = if unit.ends_with("/s") {
            " (computed: KernelCost count / measured host time)"
        } else {
            ""
        };
        println!("layer {} {name} = {value} {unit}{computed}", kind.name());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = rayon::current_num_threads();
    if threads > host_cores() {
        eprintln!(
            "perfbench: refusing to run {threads} threads on a host with {} cores \
             (RAYON_NUM_THREADS sets the thread count)",
            host_cores()
        );
        return ExitCode::from(2);
    }
    let provenance = Provenance::collect(threads);
    for line in provenance.lines(args.seed) {
        println!("{line}");
    }

    let kinds: Vec<Kind> = if args.smoke {
        Kind::ALL.to_vec()
    } else {
        args.workload.into_iter().collect()
    };
    let mut total = Report::default();
    let mut last = Report::default();
    for kind in kinds {
        let opts = RunOptions {
            kind,
            scale: if args.smoke {
                Scale::Smoke
            } else {
                Scale::Full
            },
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace || args.smoke,
            setups: if args.smoke { 1 } else { SETUPS },
            fixed_ops: args.smoke.then_some((2, 2)),
            trace_path: PathBuf::from(format!(
                "{}/out/trace-{}-seed{}.json",
                env!("CARGO_MANIFEST_DIR"),
                kind.name(),
                args.seed
            )),
        };
        let report = run(&opts, &provenance);
        print_report(kind, &report);
        total.attempted += report.attempted;
        total.failed += report.failed;
        last = report;
    }
    let line = if args.smoke {
        total.json_line(&[])
    } else if args.trace {
        last.json_line(&PER_LAYER)
    } else {
        last.json_line(&END_TO_END)
    };
    println!("{line}");
    if total.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
