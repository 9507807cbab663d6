//! Small helpers: flag parsing, order statistics, `/proc` readings.

use std::collections::HashMap;
use std::str::FromStr;

/// `--key value` flags.
pub struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    pub fn parse(argv: &[String]) -> Args {
        let mut flags = HashMap::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                flags.insert(key.to_string(), it.next().cloned().unwrap_or_default());
            }
        }
        Args { flags }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    pub fn num<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} {v}: not a number")),
        }
    }
}

/// Median (mean of the two middle values for even lengths); NaN if empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank quantile (`q` in (0, 1]); infinities (failed requests)
/// sort last. NaN if empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set size (`VmHWM`) of a process, in MB (10^6 bytes).
pub fn vm_hwm_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Deterministic 64-bit mixer for seed-derived choices (splitmix64).
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bytes of a CSR with `nrows` rows, `nnz` entries and `value_bytes`-wide
/// values: `rowptr` (8 B per row + 1), `colidx` (4 B) and values.
pub fn csr_bytes(nrows: usize, nnz: usize, value_bytes: usize) -> f64 {
    ((nrows + 1) * 8 + nnz * (4 + value_bytes)) as f64
}

/// Aggregate CPU time counters from `/proc/stat` as `(steal, total)`
/// ticks, for the host-noise note in the run record.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}
