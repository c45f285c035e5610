//! `hbench` — the repository's benchmark of record.
//!
//! ```text
//! hbench --workload paper_tensor|paper_memory|hsimd_open --seed N
//!        --seconds S --trace 0|1 [--hsimd PATH] [--rate R]
//! ```
//!
//! Prints progress on stderr and, as the last stdout line, one JSON object
//! `{"correct","attempted","failed","metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer ledger with `--trace 1`.  Exits 1 when
//! an operation failed or an output broke a check, 2 on bad arguments.
//! Normally started through `run.py`, which builds it and `hsimd` first.

mod checks;
mod hsimd;
mod kernels;
mod paper;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

/// The metric list `BENCHMARK.json` (in the working directory, the
/// repository root) fixes for this mode: name and unit.  Every run prints
/// exactly these; a layer a workload never calls reads 0.
fn listed_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let spec = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    spec.get(key)
        .and_then(serde_json::Value::as_array)
        .into_iter()
        .flatten()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(serde_json::Value::as_str)
                    .map(String::from)
            };
            field("name").zip(field("unit"))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("BENCHMARK.json: malformed `{key}` list"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    hsimd: PathBuf,
    /// Run one paper round in this process and print its record.
    round: Option<u64>,
    /// `hsimd_open` offered rate (requests/s).
    rate: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        hsimd: PathBuf::from("target/release/hsimd"),
        round: None,
        rate: hsimd::RATE,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad_val = || format!("{flag}: bad value `{val}`");
        let bad = |_| bad_val();
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().map_err(bad)?,
            "--seconds" => args.seconds = val.parse().map_err(|_| bad_val())?,
            "--trace" => args.trace = val.parse::<u8>().map_err(bad)? != 0,
            "--hsimd" => args.hsimd = PathBuf::from(val),
            "--round" => args.round = Some(val.parse().map_err(bad)?),
            "--rate" => args.rate = val.parse().map_err(|_| bad_val())?,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hbench: {e}");
            return ExitCode::from(2);
        }
    };
    let memory = args.workload == "paper_memory";
    if let (Some(r), "paper_tensor" | "paper_memory") = (args.round, args.workload.as_str()) {
        println!("{}", paper::round(memory, args.seed, r, args.trace));
        return ExitCode::SUCCESS;
    }
    let outcome = match args.workload.as_str() {
        "paper_tensor" | "paper_memory" => {
            paper::run(&args.workload, args.seed, args.seconds, args.trace)
        }
        "hsimd_open" => hsimd::run(&args.hsimd, args.seed, args.seconds, args.rate, args.trace),
        other => {
            eprintln!("hbench: unknown workload `{other}` (paper_tensor|paper_memory|hsimd_open)");
            return ExitCode::from(2);
        }
    };
    let listed = outcome.and_then(|r| Ok((r, listed_metrics(args.trace)?)));
    let ((mut metrics, tally), listed) = match listed {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        for (name, unit) in &listed {
            metrics.fill(name, unit);
        }
    }
    if let Err(e) = metrics.conforms(&listed) {
        eprintln!("hbench: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        metrics.result_line(tally.correct(), tally.attempted, tally.failed)
    );
    if tally.correct() && tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "hbench: {} failed operations, {} check violations",
            tally.failed, tally.violations
        );
        ExitCode::FAILURE
    }
}
