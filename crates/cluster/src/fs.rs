//! Simulated Unix filesystem.
//!
//! Everything the paper's agents persist is "flat ASCII files generated
//! by I/O Unix pipes": flags in `/logs/intelliagents/<agent>`, circular
//! measurement logs, ontology files, application error logs. This module
//! provides a per-server filesystem of line-oriented ASCII files under
//! mount points with finite capacity — so a full `/logs` filesystem is a
//! *real* fault the resource agents must detect (from a failed write)
//! and heal (by rotating old logs).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Bound;

use intelliqos_simkern::SimTime;

/// Errors from filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// No mount point covers the path.
    NoSuchMount(String),
    /// The covering filesystem has no space left.
    NoSpace(String),
    /// The path does not exist.
    NotFound(String),
    /// The covering filesystem is not mounted (e.g. NFS server down).
    NotMounted(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NoSuchMount(p) => write!(f, "no filesystem covers {p}"),
            FsError::NoSpace(p) => write!(f, "no space left on device: {p}"),
            FsError::NotFound(p) => write!(f, "no such file: {p}"),
            FsError::NotMounted(p) => write!(f, "filesystem not mounted: {p}"),
        }
    }
}

impl std::error::Error for FsError {}

/// One ASCII file.
#[derive(Debug, Clone)]
pub struct SimFile {
    /// File body as lines (no trailing newlines stored).
    pub lines: Vec<String>,
    /// Creation time.
    pub created_at: SimTime,
    /// Last modification time.
    pub modified_at: SimTime,
}

impl SimFile {
    /// Total size in bytes (each line plus one newline).
    pub fn size_bytes(&self) -> u64 {
        lines_size(&self.lines)
    }
}

/// A mounted filesystem with finite capacity.
#[derive(Debug, Clone)]
struct Mount {
    capacity_bytes: u64,
    used_bytes: u64,
    mounted: bool,
}

/// A per-server tree of ASCII files under capacity-limited mounts.
#[derive(Debug, Clone, Default)]
pub struct SimFs {
    /// Mount point path → mount state. Longest-prefix match wins.
    mounts: BTreeMap<String, Mount>,
    files: BTreeMap<String, SimFile>,
}

impl SimFs {
    /// Empty filesystem with no mounts.
    pub fn new() -> Self {
        SimFs::default()
    }

    /// A filesystem with the standard layout the paper assumes:
    /// `/` (2 GB), `/apps` (4 GB, agent binaries live in
    /// `/apps/intelliagents`), `/logs` (1 GB, flags and measurements).
    pub fn with_standard_layout() -> Self {
        let mut fs = SimFs::new();
        fs.add_mount("/", 2 * 1024 * 1024 * 1024);
        fs.add_mount("/apps", 4 * 1024 * 1024 * 1024);
        fs.add_mount("/logs", 1024 * 1024 * 1024);
        fs
    }

    /// Register a mount point with the given capacity.
    pub fn add_mount(&mut self, path: impl Into<String>, capacity_bytes: u64) {
        self.mounts.insert(
            normalize(path.into()),
            Mount {
                capacity_bytes,
                used_bytes: 0,
                mounted: true,
            },
        );
    }

    /// Unmount (NFS outage, device failure). Files are preserved but
    /// inaccessible until remounted.
    pub fn set_mounted(&mut self, mount: &str, mounted: bool) -> bool {
        if let Some(m) = self.mounts.get_mut(&normalize(mount.to_string())) {
            m.mounted = mounted;
            true
        } else {
            false
        }
    }

    /// Is the given mount point currently mounted?
    pub fn is_mounted(&self, mount: &str) -> bool {
        self.mounts
            .get(&normalize(mount.to_string()))
            .map(|m| m.mounted)
            .unwrap_or(false)
    }

    /// Find the longest mount-point prefix covering `path`.
    fn mount_for(&self, path: &str) -> Option<(&str, &Mount)> {
        self.mounts
            .iter()
            .filter(|(mp, _)| covers(mp, path))
            .max_by_key(|(mp, _)| mp.len())
            .map(|(mp, m)| (mp.as_str(), m))
    }

    /// Usage fraction (0–1) of the filesystem covering `path`.
    pub fn usage_fraction(&self, path: &str) -> Option<f64> {
        self.mount_for(path)
            .map(|(_, m)| m.used_bytes as f64 / m.capacity_bytes.max(1) as f64)
    }

    /// Create or truncate a file with the given lines.
    pub fn write(
        &mut self,
        path: impl Into<String>,
        lines: Vec<String>,
        now: SimTime,
    ) -> Result<(), FsError> {
        let path = normalize(path.into());
        let new_size = lines_size(&lines);
        let old = self.files.get_mut(&path);
        let Some(mount) = mount_covering(&mut self.mounts, &path) else {
            return Err(FsError::NoSuchMount(path));
        };
        if !mount.mounted {
            return Err(FsError::NotMounted(path));
        }
        let old_size = old.as_ref().map_or(0, |f| f.size_bytes());
        let projected = mount.used_bytes - old_size + new_size;
        if projected > mount.capacity_bytes {
            return Err(FsError::NoSpace(path));
        }
        mount.used_bytes = projected;
        match old {
            Some(file) => {
                file.lines = lines;
                file.modified_at = now;
            }
            None => {
                self.files.insert(
                    path,
                    SimFile {
                        lines,
                        created_at: now,
                        modified_at: now,
                    },
                );
            }
        }
        Ok(())
    }

    /// One step of a circular log kept on disk: append `line` to the
    /// existing file at `path`, then drop its oldest lines until it
    /// holds at most `max_lines` (never fewer than the new line). Space
    /// is accounted exactly as a [`SimFs::write`] of the resulting lines
    /// would account it, and a failed call changes nothing. A missing
    /// file is `NotFound`.
    pub fn push_rotating(
        &mut self,
        path: &str,
        line: String,
        max_lines: usize,
        now: SimTime,
    ) -> Result<(), FsError> {
        let path = normalized(path);
        let Some(mount) = mount_covering(&mut self.mounts, &path) else {
            return Err(FsError::NoSuchMount(path.into_owned()));
        };
        if !mount.mounted {
            return Err(FsError::NotMounted(path.into_owned()));
        }
        let Some(file) = self.files.get_mut(path.as_ref()) else {
            return Err(FsError::NotFound(path.into_owned()));
        };
        let dropped = (file.lines.len() + 1).saturating_sub(max_lines.max(1));
        let freed = lines_size(&file.lines[..dropped]);
        let projected = mount.used_bytes - freed + line.len() as u64 + 1;
        if projected > mount.capacity_bytes {
            return Err(FsError::NoSpace(path.into_owned()));
        }
        mount.used_bytes = projected;
        file.lines.push(line);
        file.lines.drain(..dropped);
        file.modified_at = now;
        Ok(())
    }

    /// Append one line to a file, creating it if missing.
    pub fn append(
        &mut self,
        path: impl Into<String>,
        line: impl Into<String>,
        now: SimTime,
    ) -> Result<(), FsError> {
        let path = normalize(path.into());
        let line = line.into();
        let add = line.len() as u64 + 1;
        let Some(mount) = mount_covering(&mut self.mounts, &path) else {
            return Err(FsError::NoSuchMount(path));
        };
        if !mount.mounted {
            return Err(FsError::NotMounted(path));
        }
        if mount.used_bytes + add > mount.capacity_bytes {
            return Err(FsError::NoSpace(path));
        }
        mount.used_bytes += add;
        let entry = self.files.entry(path).or_insert_with(|| SimFile {
            lines: Vec::new(),
            created_at: now,
            modified_at: now,
        });
        entry.lines.push(line);
        entry.modified_at = now;
        Ok(())
    }

    /// Read a file.
    pub fn read(&self, path: &str) -> Result<&SimFile, FsError> {
        let path = normalized(path);
        if let Some((_, m)) = self.mount_for(&path) {
            if !m.mounted {
                return Err(FsError::NotMounted(path.into_owned()));
            }
        }
        self.files
            .get(path.as_ref())
            .ok_or_else(|| FsError::NotFound(path.into_owned()))
    }

    /// Does the path exist (and its filesystem is mounted)?
    pub fn exists(&self, path: &str) -> bool {
        self.read(path).is_ok()
    }

    /// Remove a file, freeing its space. Returns the removed file.
    pub fn remove(&mut self, path: &str) -> Result<SimFile, FsError> {
        let path = normalized(path);
        let file = self
            .files
            .remove(path.as_ref())
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        if let Some(m) = mount_covering(&mut self.mounts, &path) {
            m.used_bytes = m.used_bytes.saturating_sub(file.size_bytes());
        }
        Ok(file)
    }

    /// Paths under a directory prefix (recursive), in key order: the
    /// file named `dir` itself, then every `dir/…` path. An ordered range
    /// scan from `dir/`, not a pass over every file. Siblings such as
    /// `dir-x` or `dir.x` sort between `dir` and `dir/` (`-` and `.`
    /// come before `/`), so they are stepped over, never listed.
    fn under<'a>(&'a self, dir: &str) -> impl Iterator<Item = &'a String> + 'a {
        let dir = normalized(dir);
        let (own, prefix) = if dir == "/" {
            (None, String::from("/"))
        } else {
            let own = self.files.get_key_value(dir.as_ref()).map(|(k, _)| k);
            (own, format!("{dir}/"))
        };
        let nested = self
            .files
            .range::<str, _>((Bound::Included(prefix.as_str()), Bound::Unbounded))
            .map(|(k, _)| k)
            .take_while(move |k| k.starts_with(prefix.as_str()));
        own.into_iter().chain(nested)
    }

    /// List paths under a directory prefix (recursive), sorted.
    pub fn list(&self, dir: &str) -> Vec<&str> {
        self.under(dir).map(|s| s.as_str()).collect()
    }

    /// Remove every file under a directory prefix; returns the count.
    /// This is the agents' self-maintenance "remove flags from previous
    /// runs and old local dynamic service profiles".
    pub fn remove_dir(&mut self, dir: &str) -> usize {
        let doomed: Vec<String> = self.under(dir).cloned().collect();
        for p in &doomed {
            let _ = self.remove(p);
        }
        doomed.len()
    }

    /// Total bytes used on the filesystem covering `path`.
    pub fn used_bytes(&self, path: &str) -> Option<u64> {
        self.mount_for(path).map(|(_, m)| m.used_bytes)
    }
}

/// The longest mount-point prefix covering `path`, for update. A free
/// function over the mount table so callers can hold a file borrowed
/// at the same time.
fn mount_covering<'a>(
    mounts: &'a mut BTreeMap<String, Mount>,
    path: &str,
) -> Option<&'a mut Mount> {
    mounts
        .iter_mut()
        .filter(|(mp, _)| covers(mp, path))
        .max_by_key(|(mp, _)| mp.len())
        .map(|(_, m)| m)
}

/// Bytes the lines take on disk (each plus one newline).
fn lines_size(lines: &[String]) -> u64 {
    lines.iter().map(|l| l.len() as u64 + 1).sum()
}

/// Normalise: ensure a single leading slash, strip any trailing slash
/// (except for the root itself).
fn normalize(mut p: String) -> String {
    if !p.starts_with('/') {
        p.insert(0, '/');
    }
    while p.len() > 1 && p.ends_with('/') {
        p.pop();
    }
    p
}

/// [`normalize`] without allocating when `p` is already normal, as
/// nearly every path on the agents' hot path is.
fn normalized(p: &str) -> Cow<'_, str> {
    if p.starts_with('/') && (p.len() == 1 || !p.ends_with('/')) {
        Cow::Borrowed(p)
    } else {
        Cow::Owned(normalize(p.to_string()))
    }
}

/// Does directory/mount `prefix` cover `path`? (Allocation-free: this
/// sits on the hot path of every agent flag write.)
fn covers(prefix: &str, path: &str) -> bool {
    if prefix == "/" {
        return true;
    }
    match path.strip_prefix(prefix) {
        Some("") => true,
        Some(rest) => rest.starts_with('/'),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intelliqos_simkern::SimRng;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn write_read_roundtrip() {
        let mut fs = SimFs::with_standard_layout();
        fs.write("/logs/a.log", vec!["one".into(), "two".into()], t0())
            .unwrap();
        let f = fs.read("/logs/a.log").unwrap();
        assert_eq!(f.lines, vec!["one", "two"]);
        assert_eq!(f.size_bytes(), 8);
    }

    #[test]
    fn append_creates_and_grows() {
        let mut fs = SimFs::with_standard_layout();
        fs.append("/logs/x", "hello", t0()).unwrap();
        fs.append("/logs/x", "world", SimTime::from_secs(5))
            .unwrap();
        let f = fs.read("/logs/x").unwrap();
        assert_eq!(f.lines.len(), 2);
        assert_eq!(f.created_at, t0());
        assert_eq!(f.modified_at, SimTime::from_secs(5));
    }

    #[test]
    fn longest_prefix_mount_wins() {
        let mut fs = SimFs::new();
        fs.add_mount("/", 1000);
        fs.add_mount("/logs", 10);
        // A 20-byte file fits on / but not /logs.
        let big = vec!["x".repeat(19)];
        assert!(matches!(
            fs.write("/logs/big", big.clone(), t0()),
            Err(FsError::NoSpace(_))
        ));
        fs.write("/big", big, t0()).unwrap();
    }

    #[test]
    fn no_mount_is_an_error() {
        let mut fs = SimFs::new();
        assert!(matches!(
            fs.write("/x", vec![], t0()),
            Err(FsError::NoSuchMount(_))
        ));
    }

    #[test]
    fn disk_full_then_rotation_frees_space() {
        let mut fs = SimFs::new();
        fs.add_mount("/logs", 30);
        fs.append("/logs/old", "x".repeat(19), t0()).unwrap(); // 20 bytes
        assert!(matches!(
            fs.append("/logs/new", "y".repeat(19), t0()),
            Err(FsError::NoSpace(_))
        ));
        // The resource agent's repair: rotate (remove) old logs.
        fs.remove("/logs/old").unwrap();
        fs.append("/logs/new", "y".repeat(19), t0()).unwrap();
        assert!(fs.exists("/logs/new"));
    }

    #[test]
    fn usage_fraction_tracks_writes() {
        let mut fs = SimFs::new();
        fs.add_mount("/logs", 100);
        assert_eq!(fs.usage_fraction("/logs/a"), Some(0.0));
        fs.append("/logs/a", "x".repeat(49), t0()).unwrap(); // 50 bytes
        assert_eq!(fs.usage_fraction("/logs/a"), Some(0.5));
    }

    #[test]
    fn overwrite_reuses_space() {
        let mut fs = SimFs::new();
        fs.add_mount("/d", 25);
        fs.write("/d/f", vec!["x".repeat(19)], t0()).unwrap(); // 20 bytes
                                                               // Overwriting with the same size must succeed (not count double).
        fs.write("/d/f", vec!["y".repeat(19)], t0()).unwrap();
        assert_eq!(fs.read("/d/f").unwrap().lines[0], "y".repeat(19));
    }

    #[test]
    fn unmounted_filesystem_rejects_io_but_keeps_files() {
        let mut fs = SimFs::with_standard_layout();
        fs.write("/logs/f", vec!["data".into()], t0()).unwrap();
        assert!(fs.set_mounted("/logs", false));
        assert!(matches!(fs.read("/logs/f"), Err(FsError::NotMounted(_))));
        assert!(matches!(
            fs.append("/logs/f", "more", t0()),
            Err(FsError::NotMounted(_))
        ));
        assert!(!fs.exists("/logs/f"));
        fs.set_mounted("/logs", true);
        assert_eq!(fs.read("/logs/f").unwrap().lines, vec!["data"]);
    }

    #[test]
    fn list_and_remove_dir() {
        let mut fs = SimFs::with_standard_layout();
        fs.append("/logs/intelliagents/cpu/flag1", "ok", t0())
            .unwrap();
        fs.append("/logs/intelliagents/cpu/flag2", "ok", t0())
            .unwrap();
        fs.append("/logs/intelliagents/net/flag1", "ok", t0())
            .unwrap();
        assert_eq!(fs.list("/logs/intelliagents/cpu").len(), 2);
        assert_eq!(fs.list("/logs/intelliagents").len(), 3);
        // Sibling prefix must not match (cpu vs cpu2).
        fs.append("/logs/intelliagents/cpu2/flag", "ok", t0())
            .unwrap();
        assert_eq!(fs.list("/logs/intelliagents/cpu").len(), 2);
        assert_eq!(fs.remove_dir("/logs/intelliagents/cpu"), 2);
        assert_eq!(fs.list("/logs/intelliagents").len(), 2);
    }

    #[test]
    fn range_scans_match_a_full_key_filter() {
        // Sibling names that sort next to `cpu` on either side of `/`.
        const NAMES: [&str; 6] = ["cpu", "cpu-x", "cpu.x", "cpu2", "net", "a"];
        const ROOTS: [&str; 4] = ["", "/logs", "/apps", "/logs/ia"];
        fn path(rng: &mut SimRng, depth: usize) -> String {
            let mut p = ROOTS[rng.index(ROOTS.len())].to_string();
            for _ in 0..depth {
                p.push('/');
                p.push_str(NAMES[rng.index(NAMES.len())]);
            }
            p
        }
        for trial in 0..300 {
            let mut rng = SimRng::stream(trial, "fs-range-scan");
            let mut fs = SimFs::with_standard_layout();
            for _ in 0..rng.uniform_u64(0, 60) {
                let depth = 1 + rng.index(3);
                let p = path(&mut rng, depth);
                let body = "x".repeat(rng.index(30));
                fs.append(p, body, t0()).unwrap();
            }
            let depth = rng.index(3);
            let mut dir = path(&mut rng, depth);
            if rng.chance(0.3) {
                dir.push('/'); // e.g. `cpu/`
            }
            let norm = normalize(dir.clone());
            let naive: Vec<String> = fs
                .files
                .keys()
                .filter(|p| covers(&norm, p))
                .cloned()
                .collect();
            assert_eq!(fs.list(&dir), naive, "trial {trial}, dir {dir}");
            assert_eq!(fs.remove_dir(&dir), naive.len(), "trial {trial}");
            assert!(naive.iter().all(|p| !fs.files.contains_key(p)));
            for (mp, m) in &fs.mounts {
                let expect: u64 = fs
                    .files
                    .iter()
                    .filter(|(p, _)| fs.mount_for(p).map(|(k, _)| k) == Some(mp.as_str()))
                    .map(|(_, f)| f.size_bytes())
                    .sum();
                assert_eq!(m.used_bytes, expect, "trial {trial}, mount {mp}");
            }
        }
    }

    #[test]
    fn push_rotating_accounts_like_a_rewrite() {
        let lines = |r: std::ops::Range<u32>| -> Vec<String> {
            r.map(|i| format!("t={i} {}", "v".repeat(i as usize % 7)))
                .collect()
        };
        let mut a = SimFs::new();
        a.add_mount("/logs", 200);
        let mut b = a.clone();
        a.write("/logs/perf", lines(0..1), t0()).unwrap();
        b.write("/logs/perf", lines(0..1), t0()).unwrap();
        for i in 1..12u32 {
            let now = SimTime::from_secs(i as u64);
            a.push_rotating("/logs/perf", lines(i..i + 1).remove(0), 4, now)
                .unwrap();
            b.write("/logs/perf", lines(i.saturating_sub(3)..i + 1), now)
                .unwrap();
            assert_eq!(
                a.read("/logs/perf").unwrap().lines,
                b.read("/logs/perf").unwrap().lines
            );
            assert_eq!(a.used_bytes("/logs"), b.used_bytes("/logs"));
        }
        assert_eq!(a.read("/logs/perf").unwrap().created_at, t0());
        // A push that does not fit changes nothing.
        a.append("/logs/filler", "f".repeat(140), t0()).unwrap();
        let before = a.read("/logs/perf").unwrap().lines.clone();
        let used = a.used_bytes("/logs");
        let long = "z".repeat(80);
        assert!(matches!(
            a.push_rotating("/logs/perf", long, 4, t0()),
            Err(FsError::NoSpace(_))
        ));
        assert_eq!(a.read("/logs/perf").unwrap().lines, before);
        assert_eq!(a.used_bytes("/logs"), used);
        assert!(matches!(
            a.push_rotating("/logs/ghost", "x".into(), 4, t0()),
            Err(FsError::NotFound(_))
        ));
        a.set_mounted("/logs", false);
        assert!(matches!(
            a.push_rotating("/logs/perf", "x".into(), 4, t0()),
            Err(FsError::NotMounted(_))
        ));
    }

    #[test]
    fn normalize_paths() {
        let mut fs = SimFs::with_standard_layout();
        fs.append("logs/a/", "x", t0()).unwrap();
        assert!(fs.exists("/logs/a"));
    }

    #[test]
    fn remove_missing_is_not_found() {
        let mut fs = SimFs::with_standard_layout();
        assert!(matches!(
            fs.remove("/logs/ghost"),
            Err(FsError::NotFound(_))
        ));
    }
}
