//! The full-site simulator workloads: one `World` on one thread, driven
//! by `World::run_until` in one-hour slices.

use std::time::Instant;

use intelliqos_core::{ManagementMode, ScenarioConfig, World};
use intelliqos_simkern::{SimDuration, SimTime};

use crate::layers::{self, Layers};
use crate::report::Outcome;
use crate::stats::{median, Summary, Tally};

/// One site workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct SiteSpec {
    /// Who runs the site.
    pub mode: ManagementMode,
    /// Simulated hours per repetition.
    pub hours: u64,
    /// Repetitions always run, whatever the time budget: enough for
    /// the p90 to have ten hour samples beyond it and for the median
    /// repetition to mean something.
    pub min_reps: usize,
}

/// `site-agents`: a day of the 217-server site under intelliagents.
pub const AGENTS: SiteSpec = SiteSpec {
    mode: ManagementMode::Intelliagents,
    hours: 24,
    min_reps: 5,
};

/// `site-manual`: thirty days of the same site under manual operations.
pub const MANUAL: SiteSpec = SiteSpec {
    mode: ManagementMode::ManualOps,
    hours: 30 * 24,
    min_reps: 5,
};

/// Builds timed back to back as one set-up sample (a build takes a
/// few milliseconds, too short to time alone against allocator and
/// cache state); a sample is the batch time over its count.
const SETUP_BATCH: usize = 8;
/// Set-up samples taken before the first repetition runs.
const SETUP_SAMPLES_BEFORE: usize = 4;
/// Set-up samples taken between repetitions, at most one per this
/// share of the run, so the median spans the whole run.
const SETUP_SAMPLES_DURING: usize = 20;

/// The simulated scenario of one repetition.
pub fn config(spec: SiteSpec, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::financial_site(seed, spec.mode);
    cfg.horizon = SimDuration::from_hours(spec.hours);
    cfg
}

/// FNV-1a, the digest of the simulated outputs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a finished world's outputs (`ScenarioReport`, ledger
/// totals, SLO report), after checking that the ledger's own totals
/// agree with the report and the SLO observatory. `Err` names the
/// first disagreement.
pub fn digest(world: &World) -> Result<u64, String> {
    let horizon = world.cfg.horizon;
    let report = world.report(SimTime::ZERO + horizon);
    let slo = world.slo.report(horizon);
    let closed: Vec<_> = world
        .ledger
        .incidents()
        .filter(|i| i.restored.is_some())
        .collect();
    let ledger_secs: u64 = closed
        .iter()
        .filter_map(|i| i.downtime())
        .map(|d| d.as_secs())
        .sum();
    let slo_incidents: u64 = slo.services.iter().map(|s| s.incidents).sum();
    if closed.len() as u64 != report.incidents || slo_incidents != report.incidents {
        return Err(format!(
            "incident totals disagree: ledger={} report={} slo={slo_incidents}",
            closed.len(),
            report.incidents
        ));
    }
    if slo.total_downtime_secs() != ledger_secs {
        return Err(format!(
            "downtime disagrees: ledger={ledger_secs}s slo={}s",
            slo.total_downtime_secs()
        ));
    }
    let report_secs = report.total_downtime_hours * 3600.0;
    if (report_secs - ledger_secs as f64).abs() > 1e-6 * (ledger_secs as f64).max(1.0) {
        return Err(format!(
            "downtime disagrees: ledger={ledger_secs}s report={report_secs}s"
        ));
    }
    let text = format!(
        "{report:?}\nledger closed={} secs={ledger_secs} open={}\n{}",
        closed.len(),
        world.ledger.open_incidents().len(),
        slo.to_json()
    );
    Ok(fnv64(text.as_bytes()))
}

/// One set-up sample: seconds per `World::try_build` of world seed
/// `world_seed`, over a batch of [`SETUP_BATCH`] builds. The worlds
/// are dropped after the clock stops.
fn setup_sample(spec: SiteSpec, world_seed: u64) -> Result<f64, String> {
    let cfgs: Vec<_> = (0..SETUP_BATCH).map(|_| config(spec, world_seed)).collect();
    let t = Instant::now();
    let worlds = cfgs
        .into_iter()
        .map(World::try_build)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let s = t.elapsed().as_secs_f64() / SETUP_BATCH as f64;
    drop(worlds);
    Ok(s)
}

/// One repetition: build, run in hour slices (each timed), digest the
/// outputs.
struct Rep {
    world: World,
    files_start: u64,
    slice_ms: Vec<f64>,
    /// Peak resident set while the repetition ran.
    peak_rss_mb: f64,
    digest: Result<u64, String>,
}

fn run_rep(spec: SiteSpec, seed: u64, instrument: bool) -> Result<Rep, String> {
    let world = World::try_build(config(spec, seed)).map_err(|e| e.to_string())?;
    let mut world = if instrument {
        world.enable_profile().enable_trace()
    } else {
        world
    };
    let files_start = layers::fs_files(&world);
    crate::reset_peak_rss()?;
    let mut slice_ms = Vec::with_capacity(spec.hours as usize);
    for h in 1..=spec.hours {
        let t = Instant::now();
        world.run_until(SimTime::from_hours(h));
        slice_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let peak_rss_mb = crate::peak_rss_mb();
    let digest = digest(&world);
    Ok(Rep {
        world,
        files_start,
        slice_ms,
        peak_rss_mb,
        digest,
    })
}

/// The world seed of repetition `j`. Every repetition simulates a world
/// of its own, so one run's figures rest on many fault tapes rather
/// than on whichever rare faults one tape happens to hold.
pub fn rep_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(j)
}

/// Outcome of comparing a repetition's digest with an earlier one of
/// the same world seed (`None`: nothing to compare against yet).
fn check(rep: &Rep, earlier: Option<u64>) -> bool {
    match (&rep.digest, earlier) {
        (Err(e), _) => {
            eprintln!("site: output check failed: {e}");
            false
        }
        (Ok(d), Some(first)) if *d != first => {
            eprintln!("site: digest {d:016x} differs from {first:016x} for one seed");
            false
        }
        (Ok(_), _) => true,
    }
}

/// Run a site workload for `seconds`: repetitions over successive
/// world seeds until the time is up, then the first world seed once
/// more, whose digest must match. With `traced`, every world seed runs
/// twice, plain and then profiled-and-traced; the digests must match,
/// the per-layer numbers come from the first profiled world, and the
/// median slowdown of the pairs is the tracing overhead.
pub fn run(spec: SiteSpec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut slices = Vec::new();
    let mut rates = Vec::new();
    let mut peaks = Vec::new();
    let mut overheads = Vec::new();
    let mut first_digest = None;
    let mut l = Layers::default();
    let start = Instant::now();
    // Each set-up sample is one operation.
    let sample_setup =
        |setups: &mut Vec<f64>, tally: &mut Tally, world_seed| match setup_sample(spec, world_seed)
        {
            Ok(s) => {
                setups.push(s);
                tally.record(true);
            }
            Err(e) => {
                eprintln!("site: build failed: {e}");
                tally.record(false);
            }
        };
    for _ in 0..SETUP_SAMPLES_BEFORE {
        sample_setup(&mut setups, &mut tally, rep_seed(seed, 0));
    }
    let mut next_setup_at = 0.0;
    let mut j = 0;
    while j < spec.min_reps as u64 || start.elapsed().as_secs_f64() < seconds {
        let rep = match run_rep(spec, rep_seed(seed, j), false) {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("site: build failed: {e}");
                tally.record(false);
                break;
            }
        };
        // Every hour slice is an operation; the output check one more.
        for _ in &rep.slice_ms {
            tally.record(true);
        }
        tally.record(check(&rep, None));
        if j == 0 {
            first_digest = rep.digest.as_ref().ok().copied();
        }
        let rep_ms: f64 = rep.slice_ms.iter().sum();
        rates.push(spec.hours as f64 / 24.0 / (rep_ms / 1e3).max(1e-12));
        slices.extend_from_slice(&rep.slice_ms);
        peaks.push(rep.peak_rss_mb);
        if traced {
            // One world at a time: a disk-fill fault holds ~1 GB.
            let plain_digest = rep.digest.as_ref().ok().copied();
            drop(rep);
            match run_rep(spec, rep_seed(seed, j), true) {
                Ok(prof) => {
                    tally.record(check(&prof, plain_digest));
                    let prof_ms: f64 = prof.slice_ms.iter().sum();
                    overheads.push(prof_ms / rep_ms.max(1e-12) - 1.0);
                    if j == 0 {
                        // Per-layer numbers come from the first profiled
                        // world, which is then dropped like every other.
                        let mut world = prof.world;
                        l.files_start(prof.files_start);
                        layers::from_world(&mut l, &world);
                        layers::probe_world(&mut l, &mut world);
                    }
                }
                Err(e) => {
                    eprintln!("site: build failed: {e}");
                    tally.record(false);
                }
            }
        }
        if start.elapsed().as_secs_f64() >= next_setup_at {
            sample_setup(&mut setups, &mut tally, rep_seed(seed, j));
            next_setup_at += seconds / SETUP_SAMPLES_DURING as f64;
        }
        j += 1;
    }
    if !traced {
        match run_rep(spec, rep_seed(seed, 0), false) {
            Ok(again) => tally.record(check(&again, first_digest)),
            Err(e) => {
                eprintln!("site: build failed: {e}");
                tally.record(false);
            }
        }
    }

    let summary = Summary::of(&slices, 0.9);
    let sim_days_per_s = median(&rates);
    eprintln!(
        "site: reps={j} hour-samples={} p90-supported={} highest-supported={:?}",
        summary.n,
        summary.tail_supported(),
        summary.supported_q
    );
    let mut out = Outcome::new(tally);
    if let Some(d) = first_digest {
        out.detail(format!(
            "digest {d:016x} (world seed {})",
            rep_seed(seed, 0)
        ));
    }
    out.metric("setup_s", median(&setups), "s");
    out.metric("work_per_s", sim_days_per_s, "1/s");
    out.metric("op_ms_p50", summary.p50, "ms");
    out.metric("op_ms_tail", summary.tail, "ms");
    out.metric("peak_rss_mb", median(&peaks), "MB");
    let mean_rate = slices.len() as f64 / 24.0 / (slices.iter().sum::<f64>() / 1e3).max(1e-12);
    out.detail(format!(
        "sim_days_per_s={sim_days_per_s:.4} (median of {j} repetitions; over all: {mean_rate:.4}) \
         sim_hour_ms_p50={:.4} sim_hour_ms_p90={:.4} hour_samples={}",
        summary.p50, summary.tail, summary.n
    ));
    if traced {
        l.set("trace.overhead_frac", median(&overheads));
        l.set(
            "mem.peak_rss_mb_max",
            peaks.iter().copied().fold(0.0, f64::max),
        );
        l.set("failed_frac", tally.failed_frac());
        out.layers = Some(l);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64, mode: ManagementMode, hours: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::small(seed, mode);
        cfg.horizon = SimDuration::from_hours(hours);
        cfg
    }

    #[test]
    fn hour_slices_match_run_to_end() {
        for mode in [ManagementMode::ManualOps, ManagementMode::Intelliagents] {
            let mut whole = World::build(small(5, mode, 36));
            whole.run_to_end();
            let mut sliced = World::build(small(5, mode, 36));
            for h in 1..=36 {
                sliced.run_until(SimTime::from_hours(h));
            }
            assert_eq!(
                digest(&whole).unwrap(),
                digest(&sliced).unwrap(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn digest_separates_seeds() {
        let mut a = World::build(small(1, ManagementMode::ManualOps, 72));
        a.run_to_end();
        let mut b = World::build(small(2, ManagementMode::ManualOps, 72));
        b.run_to_end();
        assert_ne!(digest(&a).unwrap(), digest(&b).unwrap());
    }
}
