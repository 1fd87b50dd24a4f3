//! Structured experiment records: a uniform, serialisable envelope for
//! every table/figure reproduction, so results can be archived, diffed
//! and plotted outside the harness (`--json` on the bench binaries).

use serde::{Deserialize, Serialize};

/// One named scalar result with its paper reference value, when the
/// paper states one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, e.g. `"total_speedup"`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// The paper's value, when quoted.
    pub paper: Option<f64>,
}

impl Metric {
    /// A measured-only metric.
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        Self {
            name: name.into(),
            value,
            paper: None,
        }
    }
}

/// One row of a result table (free-form columns).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Row label (layer/model/configuration name).
    pub label: String,
    /// `(column, value)` pairs.
    pub values: Vec<(String, f64)>,
}

/// A complete experiment record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Experiment id, e.g. `"table1"` or `"fig9"`.
    pub id: String,
    /// What the experiment reproduces.
    pub reproduces: String,
    /// Headline metrics.
    pub metrics: Vec<Metric>,
    /// Tabular data.
    pub rows: Vec<Row>,
}

impl ExperimentRecord {
    /// Creates an empty record.
    pub fn new(id: impl Into<String>, reproduces: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            reproduces: reproduces.into(),
            metrics: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Adds a metric (builder style).
    pub fn metric(mut self, m: Metric) -> Self {
        self.metrics.push(m);
        self
    }

    /// Adds a row (builder style).
    pub fn row(mut self, label: impl Into<String>, values: Vec<(String, f64)>) -> Self {
        self.rows.push(Row {
            label: label.into(),
            values,
        });
        self
    }

    /// Serialises to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialisation failures (never for this type in
    /// practice).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentRecord {
        ExperimentRecord::new("table1", "Table I, ResNet-18 benefits")
            .metric(Metric {
                paper: Some(5.64),
                ..Metric::new("total_speedup", 5.72)
            })
            .metric(Metric::new("cs_count", 8.0))
            .row(
                "L4.1 CONV2",
                vec![("speedup".into(), 8.0), ("edp".into(), 8.06)],
            )
    }

    #[test]
    fn json_round_trip() {
        let r = sample();
        let s = r.to_json().unwrap();
        let back: ExperimentRecord = serde_json::from_str(&s).unwrap();
        assert_eq!(back, r);
        assert!(s.contains("\"table1\""));
        assert!(s.contains("total_speedup"));
    }
}
