//! Result aggregation, mirroring the artifact's `results.py`: each CSV
//! carries one benchmark's samples with one column per run; the
//! evaluation methodology takes the *average per run* and then the
//! *best* average ("choose the best performance number among the
//! average numbers for each run", artifact §A.6).

use std::fmt;

/// A parsed result file: a benchmark name plus a samples-by-runs
/// matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    /// Benchmark name (first non-comment line).
    pub name: String,
    /// `samples[row][run]`.
    pub samples: Vec<Vec<f64>>,
}

/// Parse or aggregation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultError(pub String);

impl fmt::Display for ResultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ResultError {}

impl ResultFile {
    /// Parses the artifact-style format: a name line, then CSV rows
    /// (one column per run). Lines starting with `-` or `#` are
    /// decoration and skipped. The name is the first other line unless
    /// that line starts with a digit; every line after it is a row.
    ///
    /// # Errors
    ///
    /// Fails on ragged rows or on any row with a non-numeric cell,
    /// naming the line.
    pub fn parse(text: &str) -> Result<ResultFile, ResultError> {
        let mut name = String::new();
        let mut samples: Vec<Vec<f64>> = Vec::new();
        let mut in_rows = false;
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('-') || line.starts_with('#') {
                continue;
            }
            if !in_rows {
                in_rows = true;
                if !line.starts_with(|c: char| c.is_ascii_digit()) {
                    name = line.to_string();
                    continue;
                }
            }
            let row: Result<Vec<f64>, _> =
                line.split(',').map(|c| c.trim().parse::<f64>()).collect();
            let row =
                row.map_err(|e| ResultError(format!("line {}: bad cell in '{line}': {e}", n + 1)))?;
            if let Some(first) = samples.first() {
                if first.len() != row.len() {
                    return Err(ResultError(format!(
                        "line {}: ragged rows: expected {} runs, '{line}' has {}",
                        n + 1,
                        first.len(),
                        row.len()
                    )));
                }
            }
            samples.push(row);
        }
        if samples.is_empty() {
            return Err(ResultError("no data rows found".into()));
        }
        Ok(ResultFile {
            name: if name.is_empty() {
                "unnamed".into()
            } else {
                name
            },
            samples,
        })
    }

    /// Number of runs (columns).
    pub fn runs(&self) -> usize {
        self.samples.first().map_or(0, Vec::len)
    }

    /// Per-run averages.
    pub fn run_averages(&self) -> Vec<f64> {
        let runs = self.runs();
        let mut sums = vec![0.0; runs];
        for row in &self.samples {
            for (s, v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
        sums.iter().map(|s| s / self.samples.len() as f64).collect()
    }

    /// The artifact's "best number": the highest per-run average for
    /// rate-style benchmarks, the lowest for time-style ones.
    pub fn best(&self, higher_is_better: bool) -> f64 {
        let avgs = self.run_averages();
        avgs.into_iter()
            .fold(None::<f64>, |acc, v| {
                Some(match acc {
                    None => v,
                    Some(a) if higher_is_better => a.max(v),
                    Some(a) => a.min(v),
                })
            })
            .unwrap_or(f64::NAN)
    }
}

/// Formats a CSV body for one benchmark: `name` line then one row per
/// sample group (the inverse of [`ResultFile::parse`]).
pub fn to_csv(name: &str, samples: &[Vec<f64>]) -> String {
    let mut out = format!("{name}\n");
    for row in samples {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.4}")).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
netperf-stream
----------netperf-stream------
9413.81,9413.92,9412.64
9414.22,9413.71,9413.46
9414.13,9414.27,9414.41
----------------------------
";

    #[test]
    fn parses_artifact_style_output() {
        let r = ResultFile::parse(SAMPLE).unwrap();
        assert_eq!(r.name, "netperf-stream");
        assert_eq!(r.runs(), 3);
        assert_eq!(r.samples.len(), 3);
    }

    #[test]
    fn per_run_averages_and_best() {
        let r = ResultFile::parse(SAMPLE).unwrap();
        let avgs = r.run_averages();
        assert_eq!(avgs.len(), 3);
        // Column 1: (9413.92 + 9413.71 + 9414.27) / 3.
        assert!((avgs[1] - 9413.9666).abs() < 1e-3);
        // Best for a throughput benchmark = the max average.
        let best = r.best(true);
        assert!(avgs.iter().all(|a| *a <= best + 1e-9));
        // Best for a runtime benchmark = the min average.
        let worst_is_best = r.best(false);
        assert!(avgs.iter().all(|a| *a >= worst_is_best - 1e-9));
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = ResultFile::parse("x\n1,2\n1,2,3\n").unwrap_err();
        assert!(err.0.starts_with("line 3: "), "{err}");
    }

    #[test]
    fn non_numeric_rows_rejected() {
        let err = ResultFile::parse("Hackbench\n1.0,2.0\nx,3.0\n").unwrap_err();
        assert!(err.0.starts_with("line 3: "), "{err}");
        // A row that does not start with a digit is still a row.
        let r = ResultFile::parse("Hackbench\n1.0,2.0\n.5,3.0\n").unwrap();
        assert_eq!(r.samples, vec![vec![1.0, 2.0], vec![0.5, 3.0]]);
    }

    #[test]
    fn empty_rejected() {
        assert!(ResultFile::parse("just a name\n").is_err());
    }

    #[test]
    fn csv_round_trip() {
        let csv = to_csv("bench", &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let r = ResultFile::parse(&csv).unwrap();
        assert_eq!(r.name, "bench");
        assert_eq!(r.samples, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
    }
}
