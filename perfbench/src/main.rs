//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! perfbench --workload <replay_sqe_c|ingest_sharded|open_loop> --seed <n>
//!           --seconds <s> --trace <0|1>
//!           [--out-dir <dir>] [--commit <id>] [--source <digest>]
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics, with `--trace 1`
//! the per-layer metrics of a traced run. The last stdout line is the
//! result object; the line before it carries provenance and sample
//! details. See README.md for the workloads and metrics.

mod bed;
mod calib;
mod ingest;
mod layers;
mod open_loop;
mod replay;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::{quote, Outcome};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub run: Duration,
    pub trace: bool,
    pub out_dir: PathBuf,
    pub commit: String,
    pub source: String,
}

/// Share of the run length spent warming up before timing starts, so
/// that caches fill and lazy set-up finishes first.
pub const WARMUP_SHARE: f64 = 0.1;

/// Client threads of the closed loop: `min(nproc, 2)`.
pub fn clients() -> usize {
    nproc().clamp(1, 2)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        run: Duration::from_secs(10),
        trace: false,
        out_dir: PathBuf::from(".bench_build/perfbench"),
        commit: String::from("unknown"),
        source: String::from("unknown"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| bad(&e))?;
                if s == 0 {
                    return Err(bad(&"must be at least 1"));
                }
                args.run = Duration::from_secs(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--commit" => args.commit = value.clone(),
            "--source" => args.source = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let mut out: Outcome = match args.workload.as_str() {
        "replay_sqe_c" => replay::run(&args),
        "ingest_sharded" => ingest::run(&args),
        "open_loop" => open_loop::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    out.detail("workload", quote(&args.workload));
    out.detail("seed", args.seed.to_string());
    out.detail("seconds", args.run.as_secs().to_string());
    out.detail("trace", args.trace.to_string());
    out.detail("commit", quote(&args.commit));
    out.detail("source_sha256", quote(&args.source));
    out.detail("nproc", nproc().to_string());
    out.print();
    ExitCode::SUCCESS
}
