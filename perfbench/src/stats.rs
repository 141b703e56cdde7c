//! Sample summaries, process memory, and the one-line JSON result.

/// Value at quantile `q` of `samples` by the nearest-rank rule. A tail
/// quantile (`q > 0.5`) is `None` unless at least ten samples lie beyond
/// it, the rule every reported percentile follows.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// [`quantile`] where the sample supports it, else the highest quantile
/// below `q` that still leaves ten samples beyond it (with the quantile
/// actually taken). Used only for per-layer tails whose sample is bounded
/// by the workload, never for an end-to-end metric.
pub fn supported_tail(samples: &[f64], q: f64) -> Option<(f64, f64)> {
    if let Some(v) = quantile(samples, q) {
        return Some((v, q));
    }
    let n = samples.len();
    let rank = n.checked_sub(10).filter(|&r| r > 0)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((sorted[rank - 1], rank as f64 / n as f64))
}

/// Median (nearest rank); `None` on no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The process's high-water resident set, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Record `name = value unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// Record a value that may be missing (too few samples, nothing of
    /// that kind in the workload); a missing value fails the run.
    pub fn put_opt(
        &mut self,
        name: &str,
        value: Option<f64>,
        unit: &'static str,
    ) -> Result<(), String> {
        let v = value.ok_or_else(|| format!("metric {name}: too few samples to report"))?;
        self.put(name, v, unit);
        Ok(())
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Every metric, for the human-readable summary.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> Result<String, String> {
        let mut body = Vec::with_capacity(self.0.len());
        for (name, value, unit) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_needs_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), Some(990.0));
        assert_eq!(quantile(&v[..999], 0.99), None);
        assert_eq!(median(&v), Some(500.0));
        assert_eq!(median(&[]), None);
    }
}
