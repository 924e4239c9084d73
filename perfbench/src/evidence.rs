//! `evidence-serve`: simulate small-site runs with the trace spilled,
//! export and full-ingest them into an `evdb` store (set-up), then
//! drive one closed-loop client of seeded `Store::query` calls while
//! new runs' evidence arrives and is ingested incrementally.

use std::path::{Path, PathBuf};
use std::time::Instant;

use intelliqos_cluster::faults::FaultRates;
use intelliqos_core::{run_export_json, ManagementMode, ScenarioConfig, World};
use intelliqos_evdb::{scan_query, Kind, Query, QueryStats, Rec, Store};
use intelliqos_simkern::trace::{SpillConfig, TraceOptions};
use intelliqos_simkern::{SimDuration, SimRng};

use crate::layers::{self, Layers};
use crate::report::Outcome;
use crate::site::fnv64;
use crate::stats::{median, Summary, Tally};

/// Runs in the evidence directory before the client starts.
const BASE_RUNS: u64 = 4;
/// Runs whose evidence arrives while the client is querying.
const ARRIVALS: u64 = 6;
/// Simulated days per run (the small 14-server site).
const RUN_DAYS: u64 = 3;
/// Fault rates relative to the small preset (performance faults aside).
const FAULT_DENSITY: f64 = 10.0;
/// Trace events the run export keeps in memory (the spill has all).
const TRACE_TAIL: usize = 1024;
/// Queries between two arrivals. An assumed cadence, not one measured
/// from real traffic: it lets all six arrivals land within a run.
const ARRIVAL_EVERY: usize = 4000;
/// Length of the pre-generated query stream (it wraps around).
const STREAM_LEN: usize = 20_000;
/// Share of keyed queries that ask for a key the store does not hold
/// (an assumption; no query log backs it).
const MISS_P: f64 = 0.1;
/// Set-ups before the client starts and after it stops (`setup_s` is
/// their median; each must build the same store).
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;

/// The query plans the stream covers, in the store planner's order.
pub const PLANS: [&str; 9] = [
    "corr",
    "service",
    "category",
    "subsystem",
    "class",
    "actionable",
    "run",
    "window",
    "scan",
];

fn run_label(i: u64) -> String {
    format!("r{i:03}")
}

fn run_config(seed: u64, i: u64) -> ScenarioConfig {
    let mode = if i.is_multiple_of(2) {
        ManagementMode::ManualOps
    } else {
        ManagementMode::Intelliagents
    };
    let mut cfg = ScenarioConfig::small(seed.wrapping_mul(1000).wrapping_add(i), mode);
    cfg.horizon = SimDuration::from_days(RUN_DAYS);
    // Dense faults, so the store's shape does not hinge on a handful of
    // Poisson draws per seed. Performance faults stay at the full-site
    // rate: one in six is a disk fill, which writes ~0.9 GB of real
    // strings into the simulated /logs and would make set-up time a
    // lottery. That cost is measured on site-manual, where every run
    // meets it.
    cfg.fault_rates = cfg.fault_rates.scaled(FAULT_DENSITY);
    cfg.fault_rates.performance_per_year = FaultRates::default().performance_per_year;
    cfg
}

/// Simulate run `i` with its trace spilled under `dir/spill/<label>`,
/// then write its run export and SLO report next to it. Returns the
/// finished world and its file count when it was built.
fn generate_run(dir: &Path, seed: u64, i: u64, profile: bool) -> Result<(World, u64), String> {
    let label = run_label(i);
    let opts = TraceOptions {
        capacity: TRACE_TAIL,
        spill: Some(SpillConfig::new(dir.join("spill").join(&label))),
        ..TraceOptions::default()
    };
    let world = World::try_build(run_config(seed, i)).map_err(|e| e.to_string())?;
    let files_start = layers::fs_files(&world);
    let mut world = world.enable_trace_with(opts);
    if profile {
        world = world.enable_profile();
    }
    world.run_to_end();
    let write = |name: String, body: String| {
        std::fs::write(dir.join(&name), body).map_err(|e| format!("write {name}: {e}"))
    };
    write(format!("{label}.json"), run_export_json(&world))?;
    let slo = world.slo.report(world.cfg.horizon);
    let mode = format!("{:?}", world.cfg.mode);
    write(
        format!("{label}_slo.json"),
        slo.to_json_with_run(world.cfg.seed, &mode),
    )?;
    Ok((world, files_start))
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

fn dir_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    files.sort();
    files
}

/// Bytes of every file under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    dir_files(dir)
        .iter()
        .map(|p| {
            if p.is_dir() {
                dir_bytes(p)
            } else {
                std::fs::metadata(p).map_or(0, |m| m.len())
            }
        })
        .sum()
}

/// Digest of the store's records and indexes (segments and index
/// files; the manifest and ingest report also carry source sizes and
/// cost counters, which legitimately differ between profiled runs).
fn store_digest(store: &Path) -> u64 {
    let mut text = Vec::new();
    for p in dir_files(store) {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".evseg") || name.ends_with(".evx") {
            text.extend_from_slice(name.as_bytes());
            text.extend(std::fs::read(&p).unwrap_or_default());
        }
    }
    fnv64(&text)
}

/// One set-up: generate the base evidence and full-ingest it.
struct Setup {
    seconds: f64,
    full_ingest_s: f64,
    digest: u64,
    /// Each finished world with its file count at build.
    worlds: Vec<(World, u64)>,
}

fn set_up(evidence: &Path, store: &Path, seed: u64, profile: bool) -> Result<Setup, String> {
    fresh_dir(evidence)?;
    if store.exists() {
        std::fs::remove_dir_all(store).map_err(|e| format!("clear store: {e}"))?;
    }
    let t = Instant::now();
    let mut worlds = Vec::new();
    for i in 0..BASE_RUNS {
        worlds.push(generate_run(evidence, seed, i, profile)?);
    }
    let t_ingest = Instant::now();
    let report = Store::build(evidence, store)?;
    let full_ingest_s = t_ingest.elapsed().as_secs_f64();
    let seconds = t.elapsed().as_secs_f64();
    if !report.warnings.is_empty() {
        return Err(format!("ingest warnings: {:?}", report.warnings));
    }
    Ok(Setup {
        seconds,
        full_ingest_s,
        digest: store_digest(store),
        worlds,
    })
}

/// Timings and digests of every set-up of one run.
#[derive(Default)]
struct Setups {
    /// Set-up seconds: plain, then profiled.
    seconds: [Vec<f64>; 2],
    full_ingest_s: Vec<f64>,
    digest: Option<u64>,
    /// Worlds of the first profiled set-up, with their file counts at
    /// build.
    profiled: Option<Vec<(World, u64)>>,
}

impl Setups {
    /// Set up once more; a store that differs from the first set-up's
    /// is a failed operation.
    fn run(
        &mut self,
        evidence: &Path,
        store: &Path,
        seed: u64,
        profile: bool,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let s = set_up(evidence, store, seed, profile)?;
        self.seconds[usize::from(profile)].push(s.seconds);
        self.full_ingest_s.push(s.full_ingest_s);
        let same = *self.digest.get_or_insert(s.digest) == s.digest;
        if !same {
            eprintln!("evidence: a set-up built a different store from one seed");
        }
        tally.record(same);
        if profile && self.profiled.is_none() {
            self.profiled = Some(s.worlds);
        }
        Ok(())
    }
}

/// Values the query stream draws its keys from.
#[derive(Debug, Default)]
struct Pools {
    services: Vec<String>,
    categories: Vec<String>,
    subsystems: Vec<String>,
    classes: Vec<String>,
    corrs: Vec<u64>,
    runs: Vec<String>,
    horizon_secs: u64,
}

fn pools(store: &Store, rng: &mut SimRng) -> Result<Pools, String> {
    use std::collections::BTreeMap;
    type Counts = BTreeMap<String, u64>;
    let (recs, _) = store.query(&Query::default())?;
    let (mut services, mut categories, mut subsystems, mut classes) =
        (Counts::new(), Counts::new(), Counts::new(), Counts::new());
    let mut corrs: BTreeMap<u64, u64> = BTreeMap::new();
    let mut horizon_secs = 0;
    let bump = |m: &mut Counts, k: &str| *m.entry(k.to_string()).or_default() += 1;
    for rec in &recs {
        match rec {
            Rec::Incident(r) => {
                bump(&mut services, &r.service);
                bump(&mut categories, &r.category);
                bump(&mut classes, &r.failure_class);
                *corrs.entry(r.id).or_default() += 1;
                horizon_secs = horizon_secs.max(r.onset);
            }
            Rec::Trace(r) => {
                bump(&mut categories, &r.code);
                bump(&mut subsystems, &r.subsystem);
                horizon_secs = horizon_secs.max(r.at);
            }
            Rec::Slo(r) => bump(&mut services, &r.service),
        }
    }
    // Popularity follows the data: the keys with the most records are
    // asked for most, as an operator watching the busiest services
    // would. Ties keep key order.
    fn ranked<K: Ord + Clone>(counts: BTreeMap<K, u64>) -> Vec<K> {
        let mut v: Vec<(K, u64)> = counts.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter().map(|(k, _)| k).collect()
    }
    let mut runs: Vec<String> = (0..BASE_RUNS + ARRIVALS).map(run_label).collect();
    rng.shuffle(&mut runs);
    Ok(Pools {
        services: ranked(services),
        categories: ranked(categories),
        subsystems: ranked(subsystems),
        classes: ranked(classes),
        corrs: ranked(corrs),
        runs,
        horizon_secs,
    })
}

/// Zipf-like pick: rank `r` has weight `1 / (r + 1)`.
fn skewed<'a, T>(rng: &mut SimRng, items: &'a [T]) -> Option<&'a T> {
    let weights: Vec<f64> = (0..items.len()).map(|r| 1.0 / (r as f64 + 1.0)).collect();
    rng.choose_weighted(&weights).map(|i| &items[i])
}

/// One planned query of the stream.
#[derive(Debug, Clone)]
struct Planned {
    plan: usize,
    query: Query,
}

/// `a` or `b` with even odds.
fn either(rng: &mut SimRng, a: Kind, b: Kind) -> Kind {
    if rng.chance(0.5) {
        a
    } else {
        b
    }
}

fn plan_query(rng: &mut SimRng, p: &Pools, plan: usize) -> Query {
    let miss = rng.chance(MISS_P);
    let pick_str = |rng: &mut SimRng, items: &[String], absent: &str| match skewed(rng, items) {
        Some(s) if !miss => s.clone(),
        _ => format!("{absent}-{}", rng.index(1000)),
    };
    let mut q = Query::default();
    match PLANS[plan] {
        "corr" => {
            q.corr = Some(match skewed(rng, &p.corrs) {
                Some(&c) if !miss => c,
                _ => 1_000_000 + rng.index(1000) as u64,
            });
        }
        "service" => {
            q.kind = Some(either(rng, Kind::Incident, Kind::Slo));
            q.service = Some(pick_str(rng, &p.services, "svc-absent"));
        }
        "category" => {
            q.kind = Some(either(rng, Kind::Incident, Kind::Trace));
            q.category = Some(pick_str(rng, &p.categories, "absent-code"));
        }
        "subsystem" => {
            q.subsystem = Some(pick_str(rng, &p.subsystems, "absent-subsystem"));
        }
        "class" => {
            q.class = Some(pick_str(rng, &p.classes, "absent-class"));
        }
        "actionable" => {
            q.actionable = Some(rng.chance(0.5));
        }
        "run" => {
            q.kind = Some(either(rng, Kind::Incident, Kind::Slo));
            q.run = Some(pick_str(rng, &p.runs, "run-absent"));
        }
        "window" => {
            q.kind = Some(either(rng, Kind::Incident, Kind::Trace));
            let width = 3600 * (1 + rng.index(4) as u64);
            let t0 = if miss {
                p.horizon_secs + 86_400 + rng.index(86_400) as u64
            } else {
                rng.uniform_u64(0, p.horizon_secs.max(1))
            };
            q.window = Some((t0, t0 + width));
        }
        _ => {
            // No filter an index serves: the planner scans every
            // segment of the kind.
            q.kind = Some(either(rng, Kind::Incident, Kind::Slo));
        }
    }
    q
}

fn plan_stream(rng: &mut SimRng, p: &Pools) -> Vec<Planned> {
    (0..STREAM_LEN)
        .map(|i| {
            // The first PLANS.len() queries visit every plan once; the
            // rest pick plans with equal odds, as no record of real
            // traffic ranks them.
            let plan = if i < PLANS.len() {
                i
            } else {
                rng.index(PLANS.len())
            };
            let query = plan_query(rng, p, plan);
            Planned { plan, query }
        })
        .collect()
}

/// Which queries are checked against the linear scan: the first
/// [`PLANS`]`.len()` (one per plan) and one at a seeded position in
/// each stretch between arrivals. A scan re-reads all evidence, so the
/// sample stays small.
fn sample_positions(rng: &mut SimRng) -> Vec<usize> {
    let mut at: Vec<usize> = (0..PLANS.len()).collect();
    for epoch in 0..=ARRIVALS as usize {
        at.push(epoch * ARRIVAL_EVERY + PLANS.len() + rng.index(ARRIVAL_EVERY - PLANS.len()));
    }
    at
}

fn render(recs: &[Rec]) -> String {
    recs.iter().map(|r| r.render_line() + "\n").collect()
}

/// Compare every pending sampled answer with the linear scan of the
/// evidence directory as it stood when the answer was given. Returns
/// the number of mismatches.
fn check_samples(evidence: &Path, pending: &mut Vec<(Query, String)>) -> u64 {
    let mut bad = 0;
    for (q, indexed) in pending.drain(..) {
        match scan_query(evidence, &q) {
            Ok((recs, _, _)) if render(&recs) == indexed => {}
            Ok(_) => {
                eprintln!("evidence: indexed answer differs from scan for {q:?}");
                bad += 1;
            }
            Err(e) => {
                eprintln!("evidence: scan failed for {q:?}: {e}");
                bad += 1;
            }
        }
    }
    bad
}

/// Move staged run `i` into the evidence directory (its "arrival").
fn arrive(staging: &Path, evidence: &Path, i: u64) -> Result<(), String> {
    let label = run_label(i);
    let mv = |from: PathBuf, to: PathBuf| {
        std::fs::rename(&from, &to).map_err(|e| format!("move {}: {e}", from.display()))
    };
    std::fs::create_dir_all(evidence.join("spill")).map_err(|e| e.to_string())?;
    mv(
        staging.join("spill").join(&label),
        evidence.join("spill").join(&label),
    )?;
    mv(
        staging.join(format!("{label}.json")),
        evidence.join(format!("{label}.json")),
    )?;
    mv(
        staging.join(format!("{label}_slo.json")),
        evidence.join(format!("{label}_slo.json")),
    )
}

fn add_stats(l: &mut Layers, s: &QueryStats) {
    l.add("evdb.q_index_files_read", s.index_files_read as f64);
    l.add("evdb.q_segments_read", s.segments_read as f64);
    l.add("evdb.q_rows_loaded", s.rows_loaded as f64);
    l.add("evdb.q_rows_matched", s.rows_matched as f64);
    l.add("evdb.q_bytes_read", s.bytes_read as f64);
}

/// Run the workload under `work` for `seconds`.
pub fn run(work: &Path, seed: u64, seconds: f64, traced: bool) -> Outcome {
    match run_inner(work, seed, seconds, traced) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("evidence: {e}");
            let mut t = Tally::default();
            t.record(false);
            Outcome::new(t)
        }
    }
}

fn run_inner(work: &Path, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let evidence = work.join("evidence");
    let store_dir = work.join("store");
    let staging = work.join("staging");
    let mut tally = Tally::default();
    let mut l = Layers::default();

    // Set-up, repeated before and after the client; traced runs
    // alternate plain and profiled set-ups.
    let mut setups = Setups::default();
    for rep in 0..SETUPS_BEFORE {
        setups.run(
            &evidence,
            &store_dir,
            seed,
            traced && rep % 2 == 1,
            &mut tally,
        )?;
    }
    if let Some(worlds) = setups.profiled.as_mut() {
        for (world, files_start) in worlds.iter_mut() {
            l.files_start(*files_start);
            layers::from_world(&mut l, world);
            layers::probe_world(&mut l, world);
        }
    }

    // Evidence that will arrive later, staged outside the evidence
    // directory (not part of the measured set-up).
    fresh_dir(&staging)?;
    for i in BASE_RUNS..BASE_RUNS + ARRIVALS {
        generate_run(&staging, seed, i, false)?;
    }

    let mut store = Store::open(&store_dir)?;
    let records0 = store.records;
    let mut rng = SimRng::stream(seed, "perfbench-evidence-queries");
    let p = pools(&store, &mut rng)?;
    let stream = plan_stream(&mut rng, &p);
    let sampled = sample_positions(&mut rng);

    // The closed loop: one client, next query after the previous one.
    let mut lat_ms = Vec::new();
    let mut plan_ms: Vec<Vec<f64>> = vec![Vec::new(); PLANS.len()];
    let mut ingest_ms = Vec::new();
    let mut open_ms = Vec::new();
    let mut pending: Vec<(Query, String)> = Vec::new();
    let mut paused = 0.0f64;
    // Memory is measured over the serving phase.
    crate::reset_peak_rss()?;
    let mut arrived = 0;
    let mut check_failures = 0;
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() - paused < seconds || i < PLANS.len() {
        if i > 0 && i.is_multiple_of(ARRIVAL_EVERY) && arrived < ARRIVALS {
            // Checks run against the evidence as the answers saw it,
            // with the clock stopped.
            let t = Instant::now();
            check_failures += check_samples(&evidence, &mut pending);
            arrive(&staging, &evidence, BASE_RUNS + arrived)?;
            paused += t.elapsed().as_secs_f64();
            arrived += 1;
            let t = Instant::now();
            let ingested = Store::build_incremental(&evidence, &store_dir);
            let t_open = Instant::now();
            let opened = ingested.and_then(|r| Store::open(&store_dir).map(|s| (r, s)));
            let done = Instant::now();
            match opened {
                Ok((report, s)) => {
                    ingest_ms.push((done - t).as_secs_f64() * 1e3);
                    open_ms.push((done - t_open).as_secs_f64() * 1e3);
                    l.add("evdb.sources_parsed", report.sources_parsed as f64);
                    l.add("evdb.sources_reused", report.sources_reused as f64);
                    store = s;
                    tally.record(report.warnings.is_empty());
                }
                Err(e) => {
                    eprintln!("evidence: incremental ingest failed: {e}");
                    tally.record(false);
                }
            }
        }
        let planned = &stream[i % stream.len()];
        let t = Instant::now();
        let answer = store.query(&planned.query);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let checked = sampled.binary_search(&i).is_ok();
        i += 1;
        match answer {
            Ok((recs, stats)) => {
                lat_ms.push(ms);
                plan_ms[planned.plan].push(ms);
                if traced {
                    add_stats(&mut l, &stats);
                }
                let ok = stats.source_files_read == 0;
                if !ok {
                    eprintln!("evidence: indexed query re-read raw evidence");
                }
                tally.record(ok);
                if checked {
                    let t = Instant::now();
                    pending.push((planned.query.clone(), render(&recs)));
                    paused += t.elapsed().as_secs_f64();
                }
            }
            Err(e) => {
                eprintln!("evidence: query failed: {e}");
                tally.record(false);
            }
        }
    }
    let loop_s = start.elapsed().as_secs_f64() - paused;
    let peak_rss_mb = crate::peak_rss_mb();
    check_failures += check_samples(&evidence, &mut pending);
    tally.failed += check_failures;

    for (plan, samples) in plan_ms.iter().enumerate() {
        if samples.is_empty() {
            eprintln!("evidence: plan {} never ran", PLANS[plan]);
            tally.record(false);
        }
    }

    let summary = Summary::of(&lat_ms, 0.99);
    let queries_per_s = lat_ms.len() as f64 / loop_s.max(1e-12);
    let store_bytes = dir_bytes(&store_dir);
    let source_bytes: u64 = store.sources.iter().map(|s| s.bytes).sum();

    let after = SETUPS_AFTER + usize::from(traced);
    for rep in SETUPS_BEFORE..SETUPS_BEFORE + after {
        setups.run(
            &evidence,
            &store_dir,
            seed,
            traced && rep % 2 == 1,
            &mut tally,
        )?;
    }
    let full_ingest_s = median(&setups.full_ingest_s);
    let all_setups: Vec<f64> = setups.seconds.concat();
    eprintln!(
        "evidence: queries={} arrivals={arrived} paused={paused:.2}s records={}->{} p99-supported={}",
        lat_ms.len(),
        records0,
        store.records,
        summary.tail_supported()
    );
    let mut out = Outcome::new(tally);
    if let Some(d) = setups.digest {
        out.detail(format!("store digest {d:016x}"));
    }
    out.metric("setup_s", median(&all_setups), "s");
    out.metric("work_per_s", queries_per_s, "1/s");
    out.metric("op_ms_p50", summary.p50, "ms");
    out.metric("op_ms_tail", summary.tail, "ms");
    out.metric("peak_rss_mb", peak_rss_mb, "MB");
    out.detail(format!(
        "queries_per_s={queries_per_s:.2} query_ms_p50={:.4} query_ms_p99={:.4} samples={} \
         ingest_ms_p50={:.2} full_ingest_s={full_ingest_s:.4} store_bytes_per_source_byte={:.4}",
        summary.p50,
        summary.tail,
        summary.n,
        median(&ingest_ms),
        store_bytes as f64 / source_bytes.max(1) as f64
    ));
    if traced {
        l.set("evdb.ingest_records", store.records as f64);
        l.set(
            "evdb.ingest_us_per_record",
            full_ingest_s * 1e6 / records0.max(1) as f64,
        );
        l.set("evdb.open_ms", median(&open_ms));
        l.set("evdb.store_bytes", store_bytes as f64);
        l.set("evdb.full_ingest_s", full_ingest_s);
        l.set("evdb.ingest_ms_p50", median(&ingest_ms));
        l.set(
            "evdb.store_bytes_per_source_byte",
            store_bytes as f64 / source_bytes.max(1) as f64,
        );
        for (plan, samples) in plan_ms.iter().enumerate() {
            let name = format!("evdb.q_ms_p50.{}", PLANS[plan]);
            l.set(&name, median(samples));
        }
        l.set(
            "trace.overhead_frac",
            median(&setups.seconds[1]) / median(&setups.seconds[0]).max(1e-12) - 1.0,
        );
        l.set("mem.peak_rss_mb_max", peak_rss_mb);
        l.set("failed_frac", tally.failed_frac());
        out.layers = Some(l);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_covers_every_plan_and_is_seeded() {
        let p = Pools {
            services: vec!["a".into(), "b".into()],
            categories: vec!["c".into()],
            subsystems: vec!["agent".into()],
            classes: vec!["service-fault".into()],
            corrs: vec![1, 2, 3],
            runs: vec!["r000".into()],
            horizon_secs: 86_400,
        };
        let a = plan_stream(&mut SimRng::stream(3, "t"), &p);
        let b = plan_stream(&mut SimRng::stream(3, "t"), &p);
        assert_eq!(
            format!("{:?}", a[..50].to_vec()),
            format!("{:?}", b[..50].to_vec())
        );
        for (plan, q) in a.iter().take(PLANS.len()).enumerate() {
            assert_eq!(q.plan, plan);
        }
        let at = sample_positions(&mut SimRng::stream(3, "t"));
        assert!(at.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(at.len(), PLANS.len() + ARRIVALS as usize + 1);
    }
}
