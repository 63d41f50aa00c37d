//! Time-series containers and rendering for figures.
//!
//! A [`Figure`] is a set of monthly percentage series plus optional
//! event annotations (the vertical attack lines of the paper's plots).
//! Rendering targets are CSV (for external plotting) and a compact
//! ASCII chart (for terminal inspection and the repro harness output).

use tlscope_chron::{Date, Month};

/// One named series over a shared month axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// One value per month of the figure's axis (NaN = no data).
    pub values: Vec<f64>,
}

impl Series {
    /// Build from a label and values.
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Series {
            label: label.into(),
            values,
        }
    }

    /// Value at an axis index.
    pub fn at(&self, idx: usize) -> f64 {
        self.values.get(idx).copied().unwrap_or(f64::NAN)
    }

    /// Maximum finite value.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// An event annotation (attack disclosure, browser release, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// Event date.
    pub date: Date,
    /// Short label.
    pub label: String,
}

/// A complete figure: axis, series, annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Identifier ("fig1").
    pub id: String,
    /// Human title.
    pub title: String,
    /// Month axis.
    pub months: Vec<Month>,
    /// The series.
    pub series: Vec<Series>,
    /// Vertical-line annotations.
    pub annotations: Vec<Annotation>,
}

impl Figure {
    /// Build an empty figure over a month axis.
    pub fn new(id: impl Into<String>, title: impl Into<String>, months: Vec<Month>) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            months,
            series: Vec::new(),
            annotations: Vec::new(),
        }
    }

    /// Add a series; panics if the length does not match the axis.
    pub fn push_series(&mut self, s: Series) {
        assert_eq!(
            s.values.len(),
            self.months.len(),
            "series '{}' length mismatch",
            s.label
        );
        self.series.push(s);
    }

    /// Find a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Value of a labelled series at a month.
    pub fn value_at(&self, label: &str, month: Month) -> Option<f64> {
        let idx = self.months.iter().position(|m| *m == month)?;
        let v = self.series(label)?.at(idx);
        v.is_finite().then_some(v)
    }

    /// Emit CSV: `month,series1,series2,...`.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("month");
        for s in &self.series {
            out.push(',');
            out.push_str(&csv_field(&s.label));
        }
        out.push('\n');
        for (i, m) in self.months.iter().enumerate() {
            out.push_str(&m.to_string());
            for s in &self.series {
                let v = s.at(i);
                if v.is_finite() {
                    out.push_str(&format!(",{v:.3}"));
                } else {
                    out.push(',');
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render a compact ASCII chart (one row per series, sampled).
    pub fn to_ascii(&self, width: usize) -> String {
        const GLYPHS: &[u8] = b" .:-=+*#%@";
        let mut out = String::new();
        out.push_str(&format!("{} — {}\n", self.id, self.title));
        if self.months.is_empty() {
            return out;
        }
        let max = self.series.iter().map(|s| s.max()).fold(1.0f64, f64::max);
        let label_w = self.series.iter().map(|s| s.label.len()).max().unwrap_or(0);
        for s in &self.series {
            out.push_str(&format!("{:label_w$} |", s.label));
            for col in 0..width {
                let idx = col * self.months.len() / width.max(1);
                let v = s.at(idx.min(self.months.len() - 1));
                let g = if v.is_finite() {
                    let t = (v / max).clamp(0.0, 1.0);
                    GLYPHS[((t * (GLYPHS.len() - 1) as f64).round()) as usize]
                } else {
                    b' '
                };
                out.push(g as char);
            }
            out.push_str(&format!("| max {:.1}\n", s.max()));
        }
        out.push_str(&format!(
            "{:label_w$}  {} .. {}   (peak scale {:.1})\n",
            "",
            self.months[0],
            self.months[self.months.len() - 1],
            max
        ));
        for a in &self.annotations {
            out.push_str(&format!("{:label_w$}  | {}: {}\n", "", a.date, a.label));
        }
        out
    }
}

/// A generic table (for Tables 1–6 and the section summaries).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Identifier ("table2").
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Build an empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: Vec<&str>) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; panics on column-count mismatch.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "column mismatch");
        self.rows.push(row);
    }

    /// Render aligned ASCII.
    pub fn to_ascii(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = format!("{} — {}\n", self.id, self.title);
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            line.push_str(&format!("{:w$}  ", h, w = widths[i]));
        }
        out.push_str(line.trim_end());
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                line.push_str(&format!("{:w$}  ", cell, w = widths[i]));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }

    /// Emit CSV, one line per row, each cell quoted where RFC 4180
    /// needs it.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for cells in std::iter::once(&self.headers).chain(&self.rows) {
            let fields: Vec<_> = cells.iter().map(|c| csv_field(c)).collect();
            out += &(fields.join(",") + "\n");
        }
        out
    }
}

/// `cell` as one CSV field (RFC 4180): in double quotes, with each
/// inner quote doubled, when it holds a comma, a quote or a line
/// break; as it is otherwise.
fn csv_field(cell: &str) -> std::borrow::Cow<'_, str> {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\"")).into()
    } else {
        cell.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        let months: Vec<Month> = Month::ym(2015, 1)
            .iter_through(Month::ym(2015, 4))
            .collect();
        let mut f = Figure::new("figX", "test", months);
        f.push_series(Series::new("a", vec![10.0, 20.0, 30.0, 40.0]));
        f.push_series(Series::new("b", vec![5.0, f64::NAN, 15.0, 20.0]));
        f
    }

    #[test]
    fn value_lookup() {
        let f = fig();
        assert_eq!(f.value_at("a", Month::ym(2015, 3)), Some(30.0));
        assert_eq!(f.value_at("b", Month::ym(2015, 2)), None); // NaN
        assert_eq!(f.value_at("c", Month::ym(2015, 1)), None);
        assert_eq!(f.value_at("a", Month::ym(2016, 1)), None);
    }

    #[test]
    fn csv_layout() {
        let csv = fig().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "month,a,b");
        assert_eq!(lines[1], "2015-01,10.000,5.000");
        assert_eq!(lines[2], "2015-02,20.000,"); // NaN → empty cell
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn series_length_enforced() {
        let mut f = fig();
        f.push_series(Series::new("short", vec![1.0]));
    }

    #[test]
    fn ascii_chart_renders() {
        let text = fig().to_ascii(20);
        assert!(text.contains("figX"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("t1", "versions", vec!["Version", "Date"]);
        t.push_row(vec!["SSL 2".into(), "Feb. 1995".into()]);
        t.push_row(vec!["TLS 1.3".into(), "Aug. 2018".into()]);
        let ascii = t.to_ascii();
        assert!(ascii.contains("SSL 2"));
        let csv = t.to_csv();
        assert!(csv.starts_with("Version,Date\n"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn csv_fields_are_quoted_when_they_must_be() {
        assert_eq!(csv_field("TLS 1.2"), "TLS 1.2");
        assert_eq!(csv_field("75 (41.7%, 75)"), "\"75 (41.7%, 75)\"");
        assert_eq!(csv_field("a \"b\""), "\"a \"\"b\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
        let mut t = Table::new("t", "quoting", vec!["Statistic", "Value"]);
        t.push_row(vec!["single-day".into(), "590 (84.8%, 590)".into()]);
        assert_eq!(
            t.to_csv(),
            "Statistic,Value\nsingle-day,\"590 (84.8%, 590)\"\n"
        );
    }

    #[test]
    fn series_max_skips_nan() {
        let s = Series::new("x", vec![f64::NAN, 3.0, 2.0]);
        assert_eq!(s.max(), 3.0);
    }
}
