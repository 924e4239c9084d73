//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <site-agents|site-manual|evidence-serve>
//!           --seed <n> --seconds <s> --trace <0|1> [--work-dir DIR]
//! ```
//!
//! Runs one workload from one seed for about `--seconds`, checks its
//! outputs, and prints one JSON result as the last line of standard
//! output: the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics of a profiled run. Exits 1 without a result when the run
//! could not be measured. See `README.md` next to this crate.

mod evidence;
mod layers;
mod report;
mod site;
mod stats;

use std::path::PathBuf;

use report::Outcome;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Peak resident set of this process since start or the last
/// [`reset_peak_rss`], in MB (`VmHWM`); NaN when unreadable.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Restart the peak-resident-set count from the current resident set,
/// after handing freed heap pages back to the kernel: otherwise memory
/// an earlier repetition freed but the allocator kept would count
/// against the next one.
pub(crate) fn reset_peak_rss() -> Result<(), String> {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` only releases free memory from the
    // allocator's own arenas; it takes no pointers and may be called at
    // any time.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    let out = match args.workload.as_str() {
        "site-agents" => site::run(site::AGENTS, args.seed, args.seconds, args.traced),
        "site-manual" => site::run(site::MANUAL, args.seed, args.seconds, args.traced),
        "evidence-serve" => {
            let out = evidence::run(&work, args.seed, args.seconds, args.traced);
            std::fs::remove_dir_all(&work)
                .map_err(|e| format!("remove {}: {e}", work.display()))?;
            // Leave the shared work directory behind only if another
            // run is still using it.
            let _ = std::fs::remove_dir(&args.work_dir);
            out
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(out)
}

fn main() {
    let outcome = parse_args().and_then(|args| {
        let out = run(&args)?;
        if !out.complete(args.traced) {
            return Err("the run produced no complete measurement".into());
        }
        Ok((out, args.traced))
    });
    match outcome {
        Ok((out, traced)) => {
            for line in &out.details {
                println!("{line}");
            }
            let t = out.tally;
            println!(
                "ops attempted={} succeeded={} failed={} failed_frac={}",
                t.attempted,
                t.succeeded(),
                t.failed,
                t.failed_frac()
            );
            println!("{}", out.into_json(traced));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
