//! Paper-vs-measured reporting helpers shared by the `fig*` binaries.

use serde::Serialize;

/// One row of a reproduced figure/table: a named quantity, the paper's
/// reported value (when one exists), and ours.
#[derive(Debug, Clone, Serialize)]
pub struct FigureRow {
    /// Row label (e.g., "parallel/parallel gain").
    pub label: String,
    /// The paper's reported value, if it states one.
    pub paper: Option<f64>,
    /// Our measured value.
    pub measured: f64,
    /// Unit for display ("%", "cores", "ops/s", "ms").
    pub unit: String,
}

/// A reproduced figure/table: id, caption, and rows.
#[derive(Debug, Clone, Serialize)]
pub struct FigureTable {
    /// Paper artifact id ("fig4", "table-batching", …).
    pub id: String,
    /// What the artifact shows.
    pub caption: String,
    /// The rows.
    pub rows: Vec<FigureRow>,
}

impl FigureTable {
    /// New empty table.
    pub fn new(id: impl Into<String>, caption: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            caption: caption.into(),
            rows: Vec::new(),
        }
    }

    /// Append a row with a paper-reported reference value.
    pub fn row(
        &mut self,
        label: impl Into<String>,
        paper: f64,
        measured: f64,
        unit: impl Into<String>,
    ) -> &mut Self {
        self.rows.push(FigureRow {
            label: label.into(),
            paper: Some(paper),
            measured,
            unit: unit.into(),
        });
        self
    }

    /// Append a measurement-only row.
    pub fn row_measured(
        &mut self,
        label: impl Into<String>,
        measured: f64,
        unit: impl Into<String>,
    ) -> &mut Self {
        self.rows.push(FigureRow {
            label: label.into(),
            paper: None,
            measured,
            unit: unit.into(),
        });
        self
    }

    /// Render as an aligned text table (what the `fig*` binaries print).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.caption));
        out.push_str(&format!(
            "{:<44} {:>12} {:>12}  {}\n",
            "quantity", "paper", "measured", "unit"
        ));
        for r in &self.rows {
            let paper = r
                .paper
                .map(|p| format!("{p:.2}"))
                .unwrap_or_else(|| "—".to_string());
            out.push_str(&format!(
                "{:<44} {:>12} {:>12.2}  {}\n",
                r.label, paper, r.measured, r.unit
            ));
        }
        out
    }

    /// Serialize to JSON (machine-readable record for EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("FigureTable serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_all_rows() {
        let mut t = FigureTable::new("fig4", "seq write permutations");
        t.row("both parallel gain", 274.0, 265.3, "%");
        t.row_measured("bucket stalls", 12.0, "count");
        let s = t.render();
        assert!(s.contains("fig4"));
        assert!(s.contains("274.00"));
        assert!(s.contains("265.30"));
        assert!(s.contains("—"));
    }

    #[test]
    fn json_roundtrips() {
        let mut t = FigureTable::new("fig7", "random write");
        t.row("gain", 50.0, 48.0, "%");
        let doc = serde_json::from_str(&t.to_json()).unwrap();
        assert_eq!(doc, t.to_value(), "the JSON carries every field");
        let rows = doc.get("rows").and_then(serde::Value::as_seq).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("paper"), Some(&serde::Value::Float(50.0)));
    }
}
