//! `sketch_serve` — replay a job file through the multi-tenant service.
//!
//! ```text
//! sketch_serve --jobs examples/jobs/mixed_tenants.json --devices 4 \
//!     --out SERVE_report.json --trace serve_trace.json
//! ```
//!
//! Reads a [`JobFile`], submits every job through admission control and the
//! bounded fair queue, co-schedules the admitted jobs on a modelled
//! [`DevicePool`], and prints the per-tenant ledger.  `--out` writes the full
//! report JSON; `--trace` writes a Perfetto-compatible trace of the merged
//! service timeline.  `--smoke` is accepted for CI parity (the run is already
//! deterministic and cheap; the flag only shrinks the pool default).

use sketch_gpu_sim::DevicePool;
use sketch_obs::{chrome_trace_with_metrics, write_json, MetricsRegistry};
use sketch_serve::{JobFile, ServeEngine, ServiceReport};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    jobs: PathBuf,
    devices: usize,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut jobs = None;
    let mut devices = None;
    let mut out = None;
    let mut trace = None;
    let mut smoke = false;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--jobs" => jobs = Some(PathBuf::from(value("--jobs")?)),
            "--devices" => {
                devices = Some(
                    value("--devices")?
                        .parse::<usize>()
                        .map_err(|_| "--devices needs a positive integer".to_string())
                        .and_then(|n| {
                            if n == 0 {
                                Err("--devices needs a positive integer".into())
                            } else {
                                Ok(n)
                            }
                        })?,
                );
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--trace" => trace = Some(PathBuf::from(value("--trace")?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let jobs = jobs.ok_or_else(|| "--jobs FILE is required".to_string())?;
    Ok(Args {
        jobs,
        devices: devices.unwrap_or(if smoke { 2 } else { 4 }),
        out,
        trace,
        smoke,
    })
}

fn print_ledger(report: &ServiceReport) {
    println!(
        "{:<12} {:>8} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "tenant", "run", "rejected", "compute_s", "comm_bytes", "wait_p50_s", "wait_p95_s"
    );
    for (tenant, ledger) in &report.tenants {
        println!(
            "{:<12} {:>8} {:>9} {:>12.6} {:>12} {:>12.6} {:>12.6}",
            tenant,
            ledger.jobs_run,
            ledger.jobs_rejected,
            ledger.compute_seconds,
            ledger.comm_bytes,
            ledger.queue_wait_p50(),
            ledger.queue_wait_p95(),
        );
    }
    println!(
        "service: {} devices, makespan {:.6} s, serialized timeline {:.6} s",
        report.service.devices,
        report.service.makespan(),
        report.service.timeline.serial_seconds()
    );
}

fn run(args: &Args) -> Result<(), String> {
    let text = std::fs::read_to_string(&args.jobs)
        .map_err(|e| format!("cannot read {}: {e}", args.jobs.display()))?;
    let file = JobFile::from_json(&text).map_err(|e| e.to_string())?;
    let pool = DevicePool::h100(args.devices);
    let mut engine = ServeEngine::new(&pool, file.admission(), file.queue_capacity);
    for job in file.jobs {
        // Rejections are part of the service record, not a driver failure.
        if let Err(err) = engine.submit(job) {
            eprintln!("rejected: {err}");
        }
    }
    let report = engine.run().map_err(|e| e.to_string())?;
    print_ledger(&report);
    let metrics = MetricsRegistry::new();
    report.record_metrics(&metrics);
    if let Some(out) = &args.out {
        write_json(out, &report.to_json())
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!("report: {}", out.display());
    }
    if let Some(trace) = &args.trace {
        let events = report.service.to_trace_events();
        let doc = chrome_trace_with_metrics(&events, Some(&metrics));
        write_json(trace, &doc).map_err(|e| format!("cannot write {}: {e}", trace.display()))?;
        println!("trace: {}", trace.display());
    }
    if args.smoke && report.jobs_run() == 0 {
        return Err("smoke run executed zero jobs".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("sketch_serve: {msg}");
            eprintln!(
                "usage: sketch_serve --jobs FILE [--devices N] [--out FILE] [--trace FILE] [--smoke]"
            );
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sketch_serve: {msg}");
            ExitCode::FAILURE
        }
    }
}
