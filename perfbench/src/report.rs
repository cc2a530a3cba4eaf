//! Statistics, the run header, and the JSON the benchmark prints.

use std::fmt::{self, Write as _};
use std::path::Path;

/// A minimal JSON value (the benchmark has no serializer dependency).
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // `{:?}` prints every digit an f64 holds; JSON has no NaN.
            Json::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Str(s) => write_str(f, s),
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Nearest-rank percentile of `samples` (`q` in `[0, 1]`); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, q)
}

/// [`percentile`] of integer samples (nanoseconds).
pub fn percentile_u64(samples: &[u64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    nearest_rank(&sorted, q) as f64
}

fn nearest_rank<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One reported metric: its value, unit, and the per-round values it
/// summarises (for the header's quartiles).
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub per_round: Vec<f64>,
    /// How `value` was formed from the rounds.
    pub how: &'static str,
}

impl Metric {
    /// The median of per-round values.
    pub fn median(name: &'static str, unit: &'static str, per_round: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            value: percentile(&per_round, 0.5),
            per_round,
            how: "median of rounds",
        }
    }

    /// A value pooled over every round's samples (per-round values are
    /// the same statistic over one round).
    pub fn pooled(
        name: &'static str,
        unit: &'static str,
        value: f64,
        per_round: Vec<f64>,
    ) -> Metric {
        Metric {
            name,
            unit,
            value,
            per_round,
            how: "pooled samples of all rounds",
        }
    }

    /// The `metrics` entry of the result line.
    pub fn entry(&self) -> (String, Json) {
        (
            self.name.to_string(),
            Json::obj([
                ("value", Json::Num(self.value)),
                ("unit", Json::Str(self.unit.into())),
            ]),
        )
    }

    /// The header's summary: median and quartiles over rounds.
    pub fn summary(&self) -> (String, Json) {
        let q = |p| Json::Num(percentile(&self.per_round, p));
        (
            self.name.to_string(),
            Json::obj([
                ("value", Json::Num(self.value)),
                ("unit", Json::Str(self.unit.into())),
                ("how", Json::Str(self.how.into())),
                ("rounds", Json::Int(self.per_round.len() as u64)),
                ("q1", q(0.25)),
                ("median", q(0.5)),
                ("q3", q(0.75)),
            ]),
        )
    }
}

/// Peak resident set size of this process so far, in MB (Linux).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores visible to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// FNV-1a digest of the sources the benchmark builds from, relative to
/// the working directory. It stands in for a commit id, since the
/// benchmark may run in a checkout that is not a git repository.
pub fn source_digest() -> String {
    fn walk(path: &Path, files: &mut Vec<std::path::PathBuf>) {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                return;
            }
            if let Ok(entries) = std::fs::read_dir(path) {
                for entry in entries.flatten() {
                    walk(&entry.path(), files);
                }
            }
        } else if path.is_file() {
            files.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "perfbench/Cargo.toml",
        "perfbench/Cargo.lock",
        "perfbench/src",
    ] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        eat(file.to_string_lossy().as_bytes());
        eat(&std::fs::read(file).unwrap_or_default());
    }
    format!("fnv1a64:{h:016x} ({} files)", files.len())
}
