//! Per-layer metrics of the traced run: the program's own profiler
//! spans and counters (read through `World::enable_profile`), plus
//! probes that time calls into each layer's public functions from here.

use std::collections::BTreeMap;
use std::time::Instant;

use intelliqos_cluster::ServerModel;
use intelliqos_core::agents::{run_service_agent, AgentKind};
use intelliqos_core::status::run_status_agent;
use intelliqos_core::{flags, run_export_json, ManagementMode, ProfileReport, World};
use intelliqos_simkern::SimRng;

use crate::stats::median;

/// Every per-layer metric with its unit, in print order. The traced
/// run prints all of them for every workload; a layer a workload never
/// reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("world.events", "count"),
    ("world.ns_per_event", "ns"),
    ("world.dispatch_self_ns", "ns"),
    ("world.agent_layer_share", "frac"),
    ("world.crash_sweep_ns", "ns"),
    ("world.submit_arrival_ns", "ns"),
    ("agents.sweep_service_ns", "ns"),
    ("agents.sweep_os_resource_ns", "ns"),
    ("agents.sweep_hardware_ns", "ns"),
    ("agents.sweep_status_ns", "ns"),
    ("agents.sweep_calls", "count"),
    ("agents.probe_service_sweep_ms", "ms"),
    ("agents.probe_status_sweep_ms", "ms"),
    ("admin.dgspl_regen_ns", "ns"),
    ("admin.dgspl_generate_ns", "ns"),
    ("admin.admin_sweep_ns", "ns"),
    ("admin.probe_generate_dgspl_ms", "ms"),
    ("telemetry.perf_sweep_ns", "ns"),
    ("fs.files_end", "count"),
    ("fs.files_per_sim_day", "count"),
    ("fs.bytes_used_end", "bytes"),
    ("fs.probe_read_flags_ms", "ms"),
    ("lsf.dispatch_ns", "ns"),
    ("lsf.dispatch_calls", "count"),
    ("lsf.jobs_dispatched", "count"),
    ("lsf.submitted", "count"),
    ("lsf.completed", "count"),
    ("lsf.failed", "count"),
    ("lsf.dispatched", "count"),
    ("lsf.resubmitted", "count"),
    ("ledger.incidents_closed", "count"),
    ("ledger.open_at_horizon", "count"),
    ("slo.probe_report_ms", "ms"),
    ("export.probe_run_export_ms", "ms"),
    ("export.bytes", "bytes"),
    ("trace.events_total", "count"),
    ("trace.dropped", "count"),
    ("trace.overhead_frac", "frac"),
    ("evdb.ingest_records", "count"),
    ("evdb.ingest_us_per_record", "us"),
    ("evdb.sources_parsed", "count"),
    ("evdb.sources_reused", "count"),
    ("evdb.open_ms", "ms"),
    ("evdb.store_bytes", "bytes"),
    ("evdb.full_ingest_s", "s"),
    ("evdb.ingest_ms_p50", "ms"),
    ("evdb.store_bytes_per_source_byte", "ratio"),
    ("evdb.q_index_files_read", "count"),
    ("evdb.q_segments_read", "count"),
    ("evdb.q_rows_loaded", "count"),
    ("evdb.q_rows_matched", "count"),
    ("evdb.q_match_ratio", "frac"),
    ("evdb.q_bytes_read", "bytes"),
    ("evdb.q_ms_p50.corr", "ms"),
    ("evdb.q_ms_p50.service", "ms"),
    ("evdb.q_ms_p50.category", "ms"),
    ("evdb.q_ms_p50.subsystem", "ms"),
    ("evdb.q_ms_p50.class", "ms"),
    ("evdb.q_ms_p50.actionable", "ms"),
    ("evdb.q_ms_p50.run", "ms"),
    ("evdb.q_ms_p50.window", "ms"),
    ("evdb.q_ms_p50.scan", "ms"),
    ("mem.peak_rss_mb_max", "MB"),
    ("failed_frac", "frac"),
];

/// Probe repetitions; each probe reports its median.
const PROBE_REPS: usize = 5;

/// Accumulated per-layer values. Sums across worlds add up; ratios are
/// derived in [`Layers::finish`].
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    run_total_ns: f64,
    kinds_ns: f64,
    agent_admin_ns: f64,
    files_start: f64,
    sim_days: f64,
}

fn known(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .unwrap_or_else(|| panic!("unknown per-layer metric {name}"))
}

impl Layers {
    /// Set one metric.
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(known(name), v);
    }

    /// Add to one metric.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.values.entry(known(name)).or_default() += v;
    }

    /// Current value (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(known(name)).copied().unwrap_or(0.0)
    }

    /// Note a freshly built world's file count (the growth baseline).
    pub fn files_start(&mut self, files: u64) {
        self.files_start += files as f64;
    }

    /// Derive the ratio metrics and return every metric in print order.
    pub fn finish(mut self) -> Vec<(&'static str, f64, &'static str)> {
        let events = self.get("world.events");
        if events > 0.0 {
            self.set("world.ns_per_event", self.run_total_ns / events);
        }
        if self.run_total_ns > 0.0 {
            self.set("world.dispatch_self_ns", self.run_total_ns - self.kinds_ns);
            self.set(
                "world.agent_layer_share",
                self.agent_admin_ns / self.run_total_ns,
            );
        }
        if self.sim_days > 0.0 {
            let growth = self.get("fs.files_end") - self.files_start;
            self.set("fs.files_per_sim_day", growth / self.sim_days);
        }
        let loaded = self.get("evdb.q_rows_loaded");
        if loaded > 0.0 {
            self.set(
                "evdb.q_match_ratio",
                self.get("evdb.q_rows_matched") / loaded,
            );
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Files on every server's filesystem.
pub fn fs_files(world: &World) -> u64 {
    world
        .servers
        .values()
        .map(|s| s.fs.list("/").len() as u64)
        .sum()
}

/// Fold a finished, profiled world's spans and counters into `l`,
/// read through the world's [`ProfileReport`].
pub fn from_world(l: &mut Layers, world: &World) {
    let report = ProfileReport::from_world(world);
    let kind_ns = |kind: &str| {
        report
            .kinds
            .iter()
            .find(|k| k.kind == kind)
            .map_or(0, |k| k.ns.sum) as f64
    };
    // Inner spans, from the report's hottest list; a span it truncated
    // is read from the profiler.
    let inner = |name: &str| {
        report
            .hottest
            .iter()
            .find(|h| h.span == name)
            .map(|h| h.ns)
            .unwrap_or_else(|| {
                world
                    .profiler
                    .span(name)
                    .map(|h| h.summary())
                    .unwrap_or_default()
            })
    };
    let counter = |name: &str| {
        report
            .counters
            .iter()
            .find(|(c, _)| *c == name)
            .map_or(0, |&(_, v)| v) as f64
    };
    l.run_total_ns += report.wall_ns as f64;
    l.kinds_ns += report.kinds.iter().map(|k| k.ns.sum as f64).sum::<f64>();
    // The agent and admin subsystems of the report hold the agent,
    // end-to-end, performance (telemetry), service-ready, admin and
    // DGSPL event kinds.
    l.agent_admin_ns += report
        .subsystems
        .iter()
        .filter(|s| matches!(s.subsystem, "agent" | "admin"))
        .map(|s| s.ns as f64)
        .sum::<f64>();
    l.sim_days += world.now().as_secs() as f64 / 86_400.0;
    l.add("world.events", report.events_processed as f64);
    l.add("world.crash_sweep_ns", kind_ns("crash-sweep"));
    l.add("world.submit_arrival_ns", kind_ns("submit-arrival"));
    l.add("agents.sweep_service_ns", inner("sweep.service").sum as f64);
    l.add(
        "agents.sweep_os_resource_ns",
        inner("sweep.os-resource").sum as f64,
    );
    l.add(
        "agents.sweep_hardware_ns",
        inner("sweep.hardware").sum as f64,
    );
    l.add("agents.sweep_status_ns", inner("sweep.status").sum as f64);
    l.add("agents.sweep_calls", inner("sweep.service").count as f64);
    l.add("admin.dgspl_regen_ns", kind_ns("dgspl-regen"));
    l.add(
        "admin.dgspl_generate_ns",
        inner("dgspl.generate").sum as f64,
    );
    l.add("admin.admin_sweep_ns", kind_ns("admin-sweep"));
    l.add(
        "telemetry.perf_sweep_ns",
        inner("sweep.performance").sum as f64,
    );
    l.add("lsf.dispatch_ns", inner("lsf.dispatch").sum as f64);
    l.add("lsf.dispatch_calls", inner("lsf.dispatch").count as f64);
    l.add("lsf.jobs_dispatched", counter("lsf.dispatched"));
    let lsf = world.lsf.stats();
    l.add("lsf.submitted", lsf.submitted as f64);
    l.add("lsf.completed", lsf.completed as f64);
    l.add("lsf.failed", lsf.failed as f64);
    l.add("lsf.dispatched", lsf.dispatched as f64);
    l.add("lsf.resubmitted", lsf.resubmitted as f64);
    let closed = world
        .ledger
        .incidents()
        .filter(|i| i.restored.is_some())
        .count();
    l.add("ledger.incidents_closed", closed as f64);
    l.add(
        "ledger.open_at_horizon",
        world.ledger.open_incidents().len() as f64,
    );
    l.add("trace.events_total", world.trace.total() as f64);
    l.add("trace.dropped", world.trace.dropped() as f64);
    l.add("fs.files_end", fs_files(world) as f64);
    let bytes: u64 = world
        .servers
        .values()
        .flat_map(|s| {
            s.fs.list("/")
                .into_iter()
                .filter_map(|p| s.fs.read(p).ok().map(|f| f.size_bytes()))
        })
        .sum();
    l.add("fs.bytes_used_end", bytes as f64);
}

/// Median milliseconds of `PROBE_REPS` calls of `f`.
fn probe_ms(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// End-state probes, timed from here on the finished world: flag
/// reads, SLO report, run export, and — when agents manage the site —
/// a service-agent and status-agent sweep over every server and a
/// DGSPL generation. Run after the world's digest; the agent probes
/// mutate it.
pub fn probe_world(l: &mut Layers, world: &mut World) {
    let horizon = world.cfg.horizon;
    l.add(
        "fs.probe_read_flags_ms",
        probe_ms(|| {
            for server in world.servers.values() {
                for kind in AgentKind::ALL {
                    std::hint::black_box(flags::read_flags(&server.fs, kind.name()));
                }
            }
        }),
    );
    l.add(
        "slo.probe_report_ms",
        probe_ms(|| {
            std::hint::black_box(world.slo.report(horizon));
        }),
    );
    let mut export_bytes = 0;
    l.add(
        "export.probe_run_export_ms",
        probe_ms(|| export_bytes = run_export_json(world).len()),
    );
    l.add("export.bytes", export_bytes as f64);
    if world.cfg.mode != ManagementMode::Intelliagents {
        return;
    }
    let now = world.now();
    let parts = world.cfg.agent_parts;
    let mut rng = SimRng::stream(world.cfg.seed, "perfbench-probe");
    let ids: Vec<_> = world.servers.keys().copied().collect();
    l.add(
        "agents.probe_service_sweep_ms",
        probe_ms(|| {
            for id in &ids {
                let server = world.servers.get_mut(id).expect("server exists");
                std::hint::black_box(run_service_agent(
                    server,
                    &mut world.registry,
                    parts,
                    &mut world.bus,
                    &mut rng,
                    now,
                ));
            }
        }),
    );
    l.add(
        "agents.probe_status_sweep_ms",
        probe_ms(|| {
            for id in &ids {
                let server = world.servers.get_mut(id).expect("server exists");
                std::hint::black_box(run_status_agent(server, &world.registry, &mut rng, now));
            }
        }),
    );
    let max_age = world.cfg.dgspl_period.times(2);
    l.add(
        "admin.probe_generate_dgspl_ms",
        probe_ms(|| {
            std::hint::black_box(world.admin.generate_dgspl(now, max_age, |model, cpus| {
                ServerModel::ALL
                    .iter()
                    .find(|m| m.to_string() == model)
                    .map(|m| m.cpu_power() * cpus as f64)
                    .unwrap_or(cpus as f64 * 0.5)
            }));
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_is_printed_once() {
        let rows = Layers::default().finish();
        assert_eq!(rows.len(), PER_LAYER.len());
        let mut names: Vec<_> = rows.iter().map(|r| r.0).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        assert!(rows.iter().all(|r| r.1 == 0.0));
    }

    #[test]
    #[should_panic(expected = "unknown per-layer metric")]
    fn typos_are_refused() {
        Layers::default().set("agents.sweep_servce_ns", 1.0);
    }
}
