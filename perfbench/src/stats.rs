//! Clocks, summaries of timing samples, process memory, and the metric
//! records the benchmark prints.

use std::time::Instant;

/// Seconds of core time since the process started: process CPU time, minus
/// the CPU spent inside rayon parallel regions, plus each region's critical
/// path (its slowest chunk), all from thread CPU clocks kept by the rayon
/// engine.  Across code that runs alone in the process, the difference of
/// two readings is the wall time that code takes with one dedicated core per
/// worker.  Unlike wall time it does not grow when the host steals or
/// time-slices the cores, which on a shared 2-core host moves
/// wall times by tens of percent from one minute to the next.
pub fn core_now() -> f64 {
    let engine = rayon::engine_stats();
    rayon::process_cpu_nanos() as f64 * 1e-9 - engine.parallel_work_seconds
        + engine.parallel_span_seconds
}

/// Wall and core clocks started together.
pub struct Clocks {
    wall: Instant,
    core: f64,
}

impl Clocks {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            core: core_now(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn core_s(&self) -> f64 {
        core_now() - self.core
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Render metrics as a JSON object body: `"name": {"value": v, "unit": u}`.
/// Values keep every digit Rust's shortest round-trip formatting gives.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A finite float as a JSON number; non-finite values (which would make the
/// line unparseable) become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Median of the samples (mean of the middle two for an even count; 0 for
/// none).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of the samples (0 for none).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_follow_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 50.0), 500.0);
    }

    #[test]
    fn non_finite_values_render_as_null() {
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(1.5), "1.5");
    }
}
