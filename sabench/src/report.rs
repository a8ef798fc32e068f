//! Results: statistics helpers, the output checks' ledger, provenance, and
//! the final JSON line.

use std::error::Error;
use std::fmt::Write as _;
use std::path::Path;

use sablock::serve::persist::fnv1a64;

use crate::{RunConfig, E2E, LAYERS};

/// The median of `values` (the mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The linearly interpolated `q`-th percentile (`q` in [0, 100]); 0 for an
/// empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Steal and total CPU time of the machine so far, in clock ticks, from the
/// first line of `/proc/stat`; `None` where that is not readable. Steal is
/// time the host ran something else while this machine's CPUs had work.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// A compact JSON value. Numbers print in Rust's shortest round-trip form,
/// so every measured digit is kept.
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Num(value) if value.is_finite() => {
                let _ = write!(out, "{value}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(value) => {
                let _ = write!(out, "{value}");
            }
            Json::Bool(value) => {
                let _ = write!(out, "{value}");
            }
            Json::Str(text) => render_str(out, text),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(out, key);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_str(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload parameters folded into the config hash (with the seed).
    pub params: Vec<(String, String)>,
    /// End-to-end metrics, reported with `--trace 0`.
    pub e2e: Vec<(String, f64)>,
    /// Per-layer metrics, reported with `--trace 1`.
    pub layers: Vec<(String, f64)>,
    /// Extra named figures for the human-readable table and the results
    /// file (the workload's own metric names, sample counts, ladders).
    pub details: Vec<(String, f64, String)>,
    /// Operations attempted / failed in the timed window.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks: (description, passed).
    pub checks: Vec<(String, bool)>,
}

impl Report {
    pub fn param(&mut self, name: &str, value: impl ToString) {
        self.params.push((name.to_string(), value.to_string()));
    }

    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.push((name.to_string(), value));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &str) {
        self.details
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records one output check and prints its verdict.
    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        let what = what.into();
        println!("check {}: {what}", if passed { "ok  " } else { "FAIL" });
        self.checks.push((what, passed));
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, passed)| *passed)
    }

    /// A stable hash of the workload, its parameters and the seed.
    fn config_hash(&self, config: &RunConfig) -> String {
        let mut canonical = format!(
            "workload={};seed={};seconds={};quick={}",
            config.workload, config.seed, config.seconds, config.quick
        );
        for (name, value) in &self.params {
            let _ = write!(canonical, ";{name}={value}");
        }
        format!("{:016x}", fnv1a64(canonical.as_bytes()))
    }

    /// Prints the table and the final JSON line, writes the results file,
    /// and returns whether every output check passed.
    pub fn finish(self, config: &RunConfig) -> Result<bool, Box<dyn Error>> {
        let correct = self.correct();
        let list: &[(&str, &str)] = if config.trace { &LAYERS } else { &E2E };
        let chosen = if config.trace {
            &self.layers
        } else {
            &self.e2e
        };
        let mut metrics = Vec::new();
        for (name, unit) in list {
            let value = match chosen.iter().find(|(have, _)| have == name) {
                Some((_, value)) => *value,
                // Per-layer only: a layer this workload leaves idle did no work.
                None if config.trace => 0.0,
                None => {
                    return Err(
                        format!("workload {} did not measure {name}", config.workload).into(),
                    )
                }
            };
            if !value.is_finite() {
                return Err(format!("{name} is not finite").into());
            }
            metrics.push((name.to_string(), value, unit.to_string()));
        }
        for (name, value, unit) in self.details.iter().chain(metrics.iter()) {
            println!(
                "{:<40} {value:>16.6} {unit}",
                format!("{}.{name}", config.workload)
            );
        }

        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let machine = Json::Obj(vec![
            ("cores".into(), Json::Int(cores as u64)),
            ("commit".into(), Json::Str(commit())),
            ("config_hash".into(), Json::Str(self.config_hash(config))),
        ]);
        let as_object = |items: &[(String, f64, String)]| {
            Json::Obj(
                items
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(*value)),
                                ("unit".into(), Json::Str(unit.clone())),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        let record = Json::Obj(vec![
            ("workload".into(), Json::Str(config.workload.clone())),
            ("seed".into(), Json::Int(config.seed)),
            ("trace".into(), Json::Bool(config.trace)),
            ("machine".into(), machine),
            (
                "params".into(),
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Int(self.attempted)),
            ("failed".into(), Json::Int(self.failed)),
            ("metrics".into(), as_object(&metrics)),
            ("details".into(), as_object(&self.details)),
            (
                "checks".into(),
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|(what, passed)| {
                            Json::Obj(vec![
                                ("check".into(), Json::Str(what.clone())),
                                ("passed".into(), Json::Bool(*passed)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let path = config.out_dir.join(format!(
            "{}-seed{}-trace{}{}.json",
            config.workload,
            config.seed,
            u8::from(config.trace),
            if config.quick { "-quick" } else { "" }
        ));
        std::fs::write(&path, record.render() + "\n")?;
        eprintln!("sabench: wrote {}", path.display());

        let line = Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Int(self.attempted.max(1))),
            ("failed".into(), Json::Int(self.failed)),
            ("metrics".into(), as_object(&metrics)),
        ]);
        println!("{}", line.render());
        Ok(correct)
    }
}

/// The commit the sources came from: `SABLOCK_COMMIT` when set, else read
/// from a `.git` directory at or above the working directory, else
/// `unknown` (an exported source tree carries no history).
fn commit() -> String {
    if let Ok(commit) = std::env::var("SABLOCK_COMMIT") {
        return commit;
    }
    let mut dir = std::env::current_dir().ok();
    while let Some(current) = dir {
        let git = current.join(".git");
        if git.is_dir() {
            return read_head(&git).unwrap_or_else(|| "unknown".into());
        }
        dir = current.parent().map(Path::to_path_buf);
    }
    "unknown".into()
}

fn read_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|line| line.ends_with(reference))
        .and_then(|line| line.split_whitespace().next())
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
