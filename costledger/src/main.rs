//! `costledger` — run one workload of the cost ledger and print its
//! result.
//!
//! ```text
//! costledger --workload <nsite64|most_public|most_resume|portal_load>
//!            [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! the result: `{"correct", "attempted", "failed", "metrics"}`, with
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). The line before it records the host (`nproc`), the
//! source revision and figures that are not metrics. Oracle mismatches
//! go to standard error.

use neesgrid_costledger::alloc::CountingAlloc;
use neesgrid_costledger::ledger::{detail_line, result_line, END_TO_END, PER_LAYER};
use neesgrid_costledger::sys;
use neesgrid_costledger::workloads::{self, Opts, DEFAULT_SEED};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn parse() -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(format!("--seconds {value}: not a duration"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() {
    let (workload, opts) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("costledger: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match workloads::run(&workload, opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("costledger: {e}");
            std::process::exit(2);
        }
    };
    for m in &out.mismatches {
        eprintln!("costledger: oracle mismatch: {m}");
    }
    out.detail.insert("nproc", sys::nproc() as f64);
    let mut strings = vec![
        ("workload".to_string(), workload.clone()),
        ("git_rev".to_string(), sys::git_rev()),
    ];
    strings.extend(out.detail_pass.iter().map(|p| {
        (
            format!("{}.samples", p.name),
            format!(
                "n {}, min {:?}, median {:?}, max {:?}",
                p.passes, p.min, p.median, p.max
            ),
        )
    }));
    out.detail.insert("seed", opts.seed as f64);
    println!("{}", detail_line(&strings, &out.detail));
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    match result_line(&out, table, opts.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("costledger: {e}");
            std::process::exit(1);
        }
    }
}
