//! The performance-collection pipeline.
//!
//! A [`PerfCollector`] is the state a performance intelliagent carries
//! for one server: per-metric time series (timestamp-ordered, §3.5),
//! circular-queue log files written into the server's `/logs/perf/…`
//! tree, threshold baselines, and the breach notifications it raised.
//!
//! "All techniques were non-intrusive as they did not load the system
//! they were monitoring" — collection itself costs nothing in the
//! simulation's load model; the *footprint* of the monitoring process is
//! modelled separately for Figures 3–4.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use intelliqos_simkern::{CircularQueue, SimTime, TimeSeries};

use intelliqos_cluster::server::Server;

use intelliqos_ontology::constraint::{ConstraintStore, Violation};

use crate::metrics::{MetricGroup, MetricSnapshot};

/// A threshold-breach notification (§3.5: "Every time a threshold was
/// exceeded they notified us via email or SMS").
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    /// When it was detected.
    pub at: SimTime,
    /// Hostname.
    pub hostname: String,
    /// Measurement group.
    pub group: MetricGroup,
    /// The violation itself.
    pub violation: Violation,
}

/// Per-server, per-group collection state.
#[derive(Debug, Clone)]
pub struct PerfCollector {
    /// Hostname this collector watches.
    pub hostname: String,
    /// Which measurement group it owns ("for each monitored resource
    /// type or workgroup, a dedicated performance intelliagent").
    pub group: MetricGroup,
    /// Baseline thresholds.
    pub thresholds: ConstraintStore,
    /// Circular log length (lines) — "managed as a circular queue, the
    /// length of which was configurable".
    pub log_capacity: usize,
    series: BTreeMap<String, TimeSeries>,
    log: CircularQueue<String>,
    /// The on-disk log file is known to hold exactly `log`, so the next
    /// sample can update it in place instead of rewriting it.
    disk_in_sync: bool,
    breaches: Vec<Breach>,
}

impl PerfCollector {
    /// New collector.
    pub fn new(
        hostname: impl Into<String>,
        group: MetricGroup,
        thresholds: ConstraintStore,
        log_capacity: usize,
    ) -> Self {
        PerfCollector {
            hostname: hostname.into(),
            group,
            thresholds,
            log_capacity,
            series: BTreeMap::new(),
            log: CircularQueue::new(log_capacity.max(1)),
            disk_in_sync: false,
            breaches: Vec::new(),
        }
    }

    /// Path of this collector's log file on the server.
    pub fn log_path(&self) -> String {
        format!("/logs/perf/{}/{}", self.hostname, self.group.dir_name())
    }

    /// Ingest one snapshot: extend the series, write the circular log
    /// file onto the server's filesystem, check thresholds. Returns the
    /// breaches raised by this sample.
    pub fn ingest(
        &mut self,
        snapshot: &MetricSnapshot,
        server: &mut Server,
        now: SimTime,
    ) -> Vec<Breach> {
        // Series, timestamp-ordered.
        for (name, &value) in snapshot {
            match self.series.get_mut(name.as_str()) {
                Some(series) => series.push(now, value),
                None => {
                    let mut series = TimeSeries::default();
                    series.push(now, value);
                    self.series.insert(name.clone(), series);
                }
            }
        }
        // One ASCII log line per sample: "ts k=v k=v …" — the flat
        // format the paper's operators could grep.
        let mut line = String::with_capacity(16 + 24 * snapshot.len());
        let _ = write!(line, "t={}", now.as_secs());
        for (name, value) in snapshot {
            let _ = write!(line, " {name}={value:.3}");
        }
        self.log.push(line.clone());
        // Keep the circular file equal to the window (oldest → newest):
        // in place while the file is known to match, else a full
        // rewrite. A full /logs filesystem makes the write fail — that
        // is a real fault the resource agent must notice; the collector
        // itself soldiers on with its in-memory window.
        let path = self.log_path();
        let in_place = self.disk_in_sync
            && server
                .fs
                .push_rotating(&path, line, self.log.capacity(), now)
                .is_ok();
        self.disk_in_sync = in_place
            || server
                .fs
                .write(path, self.log.iter().cloned().collect(), now)
                .is_ok();
        // Threshold checks.
        let violations = self.thresholds.check(snapshot);
        let breaches: Vec<Breach> = violations
            .into_iter()
            .map(|violation| Breach {
                at: now,
                hostname: self.hostname.clone(),
                group: self.group,
                violation,
            })
            .collect();
        self.breaches.extend(breaches.iter().cloned());
        breaches
    }

    /// Time series for a metric.
    pub fn series(&self, metric: &str) -> Option<&TimeSeries> {
        self.series.get(metric)
    }

    /// Names of all collected metrics.
    pub fn metric_names(&self) -> Vec<&str> {
        self.series.keys().map(|s| s.as_str()).collect()
    }

    /// All breaches raised so far.
    pub fn breaches(&self) -> &[Breach] {
        &self.breaches
    }

    /// The retained log window (oldest → newest).
    pub fn log_lines(&self) -> Vec<&str> {
        self.log.iter().map(|s| s.as_str()).collect()
    }

    /// Associate two metrics by timestamp (§3.5: "Different types of
    /// measurements were associated together by matching their
    /// timestamps"), applying `f` to each matched pair.
    pub fn correlate<F>(&self, a: &str, b: &str, f: F) -> Option<TimeSeries>
    where
        F: FnMut(SimTime, f64, f64) -> f64,
    {
        Some(self.series.get(a)?.join_with(self.series.get(b)?, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intelliqos_cluster::hardware::{HardwareSpec, ServerModel};
    use intelliqos_cluster::ids::{ServerId, Site};
    use intelliqos_ontology::constraint::Bounds;

    fn server() -> Server {
        Server::new(
            ServerId(0),
            "db000",
            HardwareSpec::new(ServerModel::SunE4500, 8, 8, 6),
            Site::new("London", "LDN"),
        )
    }

    fn snapshot(pairs: &[(&str, f64)]) -> MetricSnapshot {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn collector(cap: usize) -> PerfCollector {
        let mut thresholds = ConstraintStore::new();
        thresholds.set("run_queue", Bounds::at_most(4.0));
        PerfCollector::new("db000", MetricGroup::OperatingSystem, thresholds, cap)
    }

    #[test]
    fn ingest_builds_series_and_log_file() {
        let mut c = collector(100);
        let mut s = server();
        for i in 0..5 {
            c.ingest(
                &snapshot(&[("run_queue", i as f64), ("cpu_idle_pct", 90.0)]),
                &mut s,
                SimTime::from_mins(i * 10),
            );
        }
        assert_eq!(c.series("run_queue").unwrap().len(), 5);
        assert_eq!(c.metric_names(), vec!["cpu_idle_pct", "run_queue"]);
        // The on-disk circular file exists and has 5 lines.
        let f = s.fs.read("/logs/perf/db000/os").unwrap();
        assert_eq!(f.lines.len(), 5);
        assert!(f.lines[0].starts_with("t=0 "));
    }

    #[test]
    fn circular_log_rotates() {
        let mut c = collector(3);
        let mut s = server();
        for i in 0..10u64 {
            c.ingest(
                &snapshot(&[("run_queue", 0.0)]),
                &mut s,
                SimTime::from_mins(i),
            );
        }
        let lines = c.log_lines();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("t=420")); // minute 7
        let f = s.fs.read("/logs/perf/db000/os").unwrap();
        assert_eq!(f.lines.len(), 3);
    }

    #[test]
    fn breaches_fire_on_threshold() {
        let mut c = collector(10);
        let mut s = server();
        let quiet = c.ingest(&snapshot(&[("run_queue", 1.0)]), &mut s, SimTime::ZERO);
        assert!(quiet.is_empty());
        let noisy = c.ingest(
            &snapshot(&[("run_queue", 9.0)]),
            &mut s,
            SimTime::from_mins(10),
        );
        assert_eq!(noisy.len(), 1);
        assert_eq!(noisy[0].violation.var, "run_queue");
        assert_eq!(noisy[0].hostname, "db000");
        assert_eq!(c.breaches().len(), 1);
    }

    #[test]
    fn full_logs_filesystem_does_not_kill_collection() {
        let mut c = collector(10);
        let mut s = server();
        // Re-mount /logs tiny and fill it completely.
        s.fs.add_mount("/logs", 4096);
        let big = "x".repeat(1024);
        while s
            .fs
            .append("/logs/filler", big.clone(), SimTime::ZERO)
            .is_ok()
        {}
        let breaches = c.ingest(&snapshot(&[("run_queue", 9.0)]), &mut s, SimTime::ZERO);
        // Breach detection still works from memory even though the
        // on-disk write failed.
        assert_eq!(breaches.len(), 1);
        assert_eq!(c.log_lines().len(), 1);
    }

    #[test]
    fn disk_log_tracks_the_window_through_failures() {
        let mut c = collector(4);
        let mut s = server();
        s.fs.add_mount("/logs", 4096);
        let path = c.log_path();
        let mut t = 0i32;
        let mut sample = |c: &mut PerfCollector, s: &mut Server| {
            t += 1;
            // Each line is one digit longer than the one before.
            let snap = snapshot(&[("run_queue", 0.5), ("cpu_idle_pct", 10f64.powi(t))]);
            c.ingest(&snap, s, SimTime::from_mins(t as u64));
        };
        let on_disk = |s: &Server| -> Vec<String> { s.fs.read(&path).unwrap().lines.clone() };
        let files_size = |s: &Server| -> u64 {
            s.fs.list("/logs")
                .iter()
                .map(|p| s.fs.read(p).unwrap().size_bytes())
                .sum()
        };
        for _ in 0..6 {
            sample(&mut c, &mut s);
            assert_eq!(on_disk(&s), c.log_lines());
        }
        // Fill /logs: the samples that follow fail with NoSpace and the
        // file falls behind the window.
        let filler = "f".repeat(1000);
        while s
            .fs
            .append("/logs/filler", filler.clone(), SimTime::ZERO)
            .is_ok()
        {}
        let line = "g".repeat(3);
        while s
            .fs
            .append("/logs/filler", line.clone(), SimTime::ZERO)
            .is_ok()
        {}
        sample(&mut c, &mut s);
        sample(&mut c, &mut s);
        assert_ne!(on_disk(&s), c.log_lines());
        assert_eq!(s.fs.used_bytes("/logs"), Some(files_size(&s)));
        // Rotation frees the space; the next sample rewrites the file.
        s.fs.remove("/logs/filler").unwrap();
        sample(&mut c, &mut s);
        assert_eq!(on_disk(&s), c.log_lines());
        // An unmount hides the file; samples taken meanwhile reach the
        // disk only through the rewrite after the remount.
        s.fs.set_mounted("/logs", false);
        sample(&mut c, &mut s);
        s.fs.set_mounted("/logs", true);
        assert_ne!(on_disk(&s), c.log_lines());
        sample(&mut c, &mut s);
        assert_eq!(on_disk(&s), c.log_lines());
        // A deleted file is recreated whole.
        s.fs.remove(&path).unwrap();
        sample(&mut c, &mut s);
        for _ in 0..5 {
            assert_eq!(on_disk(&s), c.log_lines());
            assert_eq!(s.fs.used_bytes("/logs"), Some(files_size(&s)));
            sample(&mut c, &mut s);
        }
        assert_eq!(c.log_lines().len(), 4);
    }

    #[test]
    fn correlate_joins_by_timestamp() {
        let mut c = collector(10);
        let mut s = server();
        c.ingest(&snapshot(&[("a", 2.0), ("b", 3.0)]), &mut s, SimTime::ZERO);
        c.ingest(
            &snapshot(&[("a", 4.0), ("b", 5.0)]),
            &mut s,
            SimTime::from_mins(1),
        );
        let prod = c.correlate("a", "b", |_, x, y| x * y).unwrap();
        assert_eq!(prod.points()[0].1, 6.0);
        assert_eq!(prod.points()[1].1, 20.0);
        assert!(c.correlate("a", "ghost", |_, x, _| x).is_none());
    }
}
