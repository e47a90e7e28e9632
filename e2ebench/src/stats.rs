//! Order statistics, process memory, provenance and a small JSON writer.

use std::fmt::Write as _;
use std::path::Path;

/// The `q`-quantile of `values` by nearest rank (`q` in `[0, 1]`); `None`
/// for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = nearest_rank(sorted.len(), q)?;
    Some(sorted[index])
}

/// The median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// The highest of the usual percentiles that still has at least ten
/// samples above it, with its value: how far into the tail `n` samples
/// support a claim. `None` when fewer than eleven samples exist.
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    const CANDIDATES: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];
    let n = values.len();
    let q = CANDIDATES
        .into_iter()
        .find(|&q| nearest_rank(n, q).is_some_and(|i| n - 1 - i >= 10))?;
    Some((q, quantile(values, q)?))
}

/// A timing summary: median, supported tail percentile, sample count.
pub fn describe(values: &[f64]) -> String {
    let med = median(values).unwrap_or(f64::NAN);
    match supported_tail(values) {
        Some((q, v)) if q > 0.5 => {
            format!("median {med:.6} p{} {v:.6} (n={})", q * 100.0, values.len())
        }
        _ => format!(
            "median {med:.6} (n={}; too few samples for a tail)",
            values.len()
        ),
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit of the checkout, when it is a git work tree (read from
/// `.git` in the working directory only; nothing above it is consulted).
pub fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// FNV-1a digest of the library sources (`crates/` and `shims/`: every
/// `.rs` and `Cargo.toml`, in path order), identifying the code measured
/// when the checkout carries no git metadata.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "shims"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        feed(file.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(file) {
            feed(&bytes);
        }
    }
    format!("{hash:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// A JSON value, written without external crates.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact one-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `{}` prints the shortest digits that read back to the same
            // f64: every measured digit, no rounding.
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((0.99, 990.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((0.9, 90.0)));
        assert_eq!(supported_tail(&[1.0; 10]), None);
    }

    #[test]
    fn json_renders_compactly() {
        let j = Json::obj([
            ("a", Json::Num(1.25)),
            ("b", Json::Arr(vec![Json::Int(3), Json::Null])),
            ("c", Json::str("x\"y")),
        ]);
        assert_eq!(j.render(), r#"{"a":1.25,"b":[3,null],"c":"x\"y"}"#);
    }
}
