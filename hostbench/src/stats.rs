//! Order statistics for host-time samples, and the process's peak
//! resident memory.

/// Why a statistic could not be reported.
#[derive(Debug, PartialEq)]
pub enum StatsError {
    /// No samples at all.
    Empty,
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the requested
    /// percentile, so its value would rest on a handful of outliers.
    TooFewBeyond {
        /// The requested percentile, in (0, 1).
        p: f64,
        /// Samples available.
        n: usize,
        /// Samples beyond the percentile.
        beyond: usize,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Empty => write!(f, "no samples"),
            StatsError::TooFewBeyond { p, n, beyond } => write!(
                f,
                "p{:.0} of {n} samples has only {beyond} beyond it (need {MIN_BEYOND})",
                p * 100.0
            ),
        }
    }
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> Result<f64, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::Empty);
    }
    let v = sorted(samples);
    let n = v.len();
    Ok(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First quartile, median and third quartile, by the same rule as
/// Python's `statistics.quantiles(data, n=4)` (the "exclusive" method),
/// so spreads computed here and by `spread.py` agree.
pub fn quartiles(samples: &[f64]) -> Result<[f64; 3], StatsError> {
    let v = sorted(samples);
    let ld = v.len();
    match ld {
        0 => return Err(StatsError::Empty),
        1 => return Ok([v[0]; 3]),
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Ok(out)
}

/// Nearest-rank percentile `p` in (0, 1), reported only when at least
/// [`MIN_BEYOND`] samples lie above its rank.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, StatsError> {
    assert!(p > 0.0 && p < 1.0, "percentile must lie in (0, 1)");
    if samples.is_empty() {
        return Err(StatsError::Empty);
    }
    let v = sorted(samples);
    let n = v.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(StatsError::TooFewBeyond { p, n, beyond });
    }
    Ok(v[rank - 1])
}

/// Peak resident set size in MB from the text of `/proc/<pid>/status`
/// (its `VmHWM:` line, in kB).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set size, MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    parse_vm_hwm_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Ok(2.5));
        assert_eq!(median(&[]), Err(StatsError::Empty));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Ok([2.75, 5.5, 8.25]));
        // statistics.quantiles([7, 1, 4], n=4) == [1.0, 4.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 4.0]), Ok([1.0, 4.0, 7.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Ok([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[5.0]), Ok([5.0; 3]));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Nearest rank 90 of 100 leaves exactly ten samples above it.
        assert_eq!(percentile(&v, 0.9), Ok(90.0));
        assert_eq!(percentile(&v, 0.5), Ok(50.0));
        assert_eq!(
            percentile(&v[..99], 0.9),
            Err(StatsError::TooFewBeyond {
                p: 0.9,
                n: 99,
                beyond: 9
            })
        );
        assert_eq!(percentile(&[], 0.9), Err(StatsError::Empty));
    }

    #[test]
    fn vm_hwm_is_parsed_in_megabytes() {
        let status = "Name:\thostbench\nVmPeak:\t  90000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t lots kB\n"), None);
        assert!(peak_rss_mb().expect("Linux exposes VmHWM") > 0.0);
    }
}
