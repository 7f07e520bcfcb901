//! Metric collection, failure accounting, and the printed result.

/// One reported metric; `value` is `None` when nothing could be measured
/// (the result is then not correct).
struct Metric {
    name: String,
    value: Option<f64>,
    unit: &'static str,
    samples: usize,
}

#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Executor and traced-call runs attempted.
    pub attempted: u64,
    /// Runs that errored, panicked, or failed a correctness check.
    pub failed: u64,
    /// Whether some metric could not be measured.
    missing: bool,
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

impl Report {
    /// Counts one attempted run and passes its value on; a failure is
    /// printed and counted.
    pub fn attempt<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(msg) => {
                self.failed += 1;
                eprintln!("recbench: FAILED {what}: {msg}");
                None
            }
        }
    }

    pub fn value(&mut self, name: &str, unit: &'static str, value: Option<f64>, samples: usize) {
        let value = value.filter(|v| v.is_finite());
        if value.is_none() {
            self.missing = true;
            eprintln!("recbench: FAILED {name}: not measured");
        }
        self.metrics.push(Metric { name: name.to_string(), value, unit, samples });
    }

    pub fn median(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        self.value(name, unit, median(samples), samples.len());
    }

    /// Prints a table of every metric, then the result line.
    pub fn print(&self) {
        println!("{:<32} {:>16} {:<8} samples", "metric", "value", "unit");
        for m in &self.metrics {
            let value = m.value.map_or("-".to_string(), |v| format!("{v:.6}"));
            println!("{:<32} {:>16} {:<8} {}", m.name, value, m.unit, m.samples);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = m.value.map_or("null".to_string(), |v| format!("{v:?}"));
                format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && !self.missing,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Resets the process's resident-set high-water mark, so that the peak
/// read later belongs to the runs that follow (the inputs stay resident and
/// are included). Without `/proc/self/clear_refs` the peak covers the whole
/// process.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("recbench: cannot reset the peak RSS ({e}); peak_rss_mb covers input generation");
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
