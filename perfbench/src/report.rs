//! What one workload run produces, and how it is printed: a readable
//! table (name, value, unit, clock) followed by the one-line JSON
//! result line that tools read.

use crate::catalog::{self, Def};
use polygpu::obs::{chrome_trace_json, Span};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One correctness gate's verdict.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations the run attempted (evaluation calls, solves, jobs).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    pub gates: Vec<Gate>,
    /// Free-form lines printed above the table.
    pub notes: Vec<String>,
    /// Modeled-clock spans to export, by file stem.
    pub modeled_spans: Vec<(String, Vec<Span>)>,
    /// Host-clock spans to export (Chrome-trace JSON).
    pub host_spans: Option<String>,
}

impl Report {
    /// Record a metric; the name must be in the catalog.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = catalog::find(name).unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        self.values.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn gate(&mut self, name: &str, passed: bool, detail: String) {
        self.gates.push(Gate {
            name: name.to_string(),
            passed,
            detail,
        });
    }

    pub fn correct(&self) -> bool {
        !self.gates.is_empty() && self.gates.iter().all(|g| g.passed)
    }

    /// The metrics the JSON line carries: every end-to-end metric with
    /// tracing off, every workload and per-layer metric with it on
    /// (zero for a layer this workload does not exercise). An
    /// end-to-end metric a failed run never measured reads NaN, which
    /// fails the run's `finite-metrics` gate.
    pub fn json_metrics(&self, traced: bool) -> Vec<(&'static Def, f64)> {
        let (lists, missing): (&[&[Def]], f64) = if traced {
            (&[catalog::WORKLOAD, catalog::LAYERS], 0.0)
        } else {
            (&[catalog::END_TO_END], f64::NAN)
        };
        lists
            .iter()
            .flat_map(|l| l.iter())
            .map(|d| (d, self.get(d.name).unwrap_or(missing)))
            .collect()
    }

    /// Readable lines: notes, gates, then every metric this run set.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        for g in &self.gates {
            let verdict = if g.passed { "PASS" } else { "FAIL" };
            let _ = writeln!(out, "gate {workload}/{}: {verdict} ({})", g.name, g.detail);
        }
        let lists: &[&[Def]] = if traced {
            &[catalog::END_TO_END, catalog::WORKLOAD, catalog::LAYERS]
        } else {
            &[catalog::END_TO_END, catalog::WORKLOAD]
        };
        let _ = writeln!(out, "| workload | metric | value | unit | clock | better |");
        let _ = writeln!(out, "|---|---|---:|---|---|---|");
        for d in lists.iter().flat_map(|l| l.iter()) {
            if let Some(v) = self.get(d.name) {
                let _ = writeln!(
                    out,
                    "| {workload} | {} | {v:.6e} | {} | {} | {} |",
                    d.name,
                    d.unit,
                    d.clock.name(),
                    if d.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    }
                );
            }
        }
        out
    }

    /// Write the collected spans under `dir` (Chrome-trace JSON).
    pub fn write_traces(&self, dir: &Path, stem: &str) -> std::io::Result<Vec<String>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (name, spans) in &self.modeled_spans {
            let path = dir.join(format!("{stem}-{name}.modeled.json"));
            std::fs::write(&path, chrome_trace_json(spans))?;
            written.push(path.display().to_string());
        }
        if let Some(host) = &self.host_spans {
            let path = dir.join(format!("{stem}.host.json"));
            std::fs::write(&path, host)?;
            written.push(path.display().to_string());
        }
        Ok(written)
    }
}

/// Format a JSON number: all its digits, and never NaN or infinite.
pub fn json_number(v: f64) -> Option<String> {
    v.is_finite().then(|| format!("{v:?}"))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let number = json_number(*value).expect("metrics are finite (checked before printing)");
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {number}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let line = json_line(true, 3, 0, &[("setup_s".into(), 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn json_numbers_keep_all_digits_and_reject_non_finite() {
        assert_eq!(json_number(0.1 + 0.2).unwrap(), "0.30000000000000004");
        assert_eq!(json_number(2.0).unwrap(), "2.0");
        assert!(json_number(f64::NAN).is_none());
        assert!(json_number(f64::INFINITY).is_none());
    }

    #[test]
    fn unmeasured_metrics_read_zero_when_traced_and_nan_otherwise() {
        let mut r = Report::default();
        r.set("gpusim.warps", 7.0);
        let m = r.json_metrics(true);
        assert_eq!(m.len(), catalog::WORKLOAD.len() + catalog::LAYERS.len());
        assert!(m.iter().any(|(d, v)| d.name == "gpusim.warps" && *v == 7.0));
        assert!(m
            .iter()
            .any(|(d, v)| d.name == "serve.busy_frac" && *v == 0.0));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
