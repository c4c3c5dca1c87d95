//! `perfbench`: the relgraph benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload query|serve_read|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric, or with `--trace 1` every per-layer metric). The line
//! before it holds the details: host fingerprint, per-rep spreads, per-phase
//! request accounting and any failed check. See `perfbench/README.md`.

mod load;
mod query;
mod report;
mod serve;
mod stats;
mod sys;

use std::time::Duration;

/// Worker threads for the program's data-parallel sections.
const RAYON_THREADS: &str = "1";

/// Every run ends within this long, whatever the program does.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
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

fn main() -> std::process::ExitCode {
    // One worker per parallel section, set before any thread exists. The
    // program's data-parallel layer spawns scoped threads per call; on a
    // shared 2-core host that made the query pass slower and its time far
    // noisier than running inline, so the benchmark fixes it at one.
    std::env::set_var("RAYON_NUM_THREADS", RAYON_THREADS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload query|serve_read|serve_mixed \
                 --seed N --seconds S --trace 0|1"
            );
            return std::process::ExitCode::from(2);
        }
    };
    if !std::path::Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root");
        return std::process::ExitCode::from(2);
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: watchdog expired after {WATCHDOG:?}");
        std::process::exit(3);
    });

    let mut r = report::RunResult::default();
    match args.workload.as_str() {
        "query" if args.trace => query::run_traced(args.seed, &mut r),
        "query" => query::run(args.seed, args.seconds, &mut r),
        "serve_read" => serve::run(args.seed, args.seconds, false, args.trace, &mut r),
        "serve_mixed" => serve::run(args.seed, args.seconds, true, args.trace, &mut r),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return std::process::ExitCode::from(2);
        }
    }
    let fp = sys::fingerprint(1);
    let (detail, last) = report::render(&args.workload, args.seed, args.trace, &fp, &mut r);
    for p in &r.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{detail}");
    println!("{last}");
    std::process::ExitCode::SUCCESS
}
