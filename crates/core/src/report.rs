//! Plain-text table rendering for `stacksim run --show` and the CLI reports.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header count.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns (first column left-aligned,
    /// the rest right-aligned).
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    let _ = write!(out, "{:<w$}", c, w = widths[i]);
                } else {
                    let _ = write!(out, "{:>w$}", c, w = widths[i]);
                }
            }
            out.push('\n');
        };
        line(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with the given precision (helper for report rows).
pub fn fmt_f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TextTable {
        let mut t = TextTable::new(["bench", "CPMA", "BW"]);
        t.row(["gauss", "3.10", "15.42"]);
        t.row(["svm", "7.08", "9.72"]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let r = table().render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("bench"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // right-aligned numeric columns line up
        let c1 = lines[2].rfind("3.10").unwrap() + 4;
        let c2 = lines[3].rfind("7.08").unwrap() + 4;
        assert_eq!(c1, c2);
    }

    #[test]
    fn csv_roundtrip_structure() {
        let csv = table().to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().next().unwrap(), "bench,CPMA,BW");
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = TextTable::new(["a"]);
        t.row(["x,y"]);
        assert!(t.to_csv().contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn fmt_helper() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
    }
}
