//! Tabular experiment reports, rendered for EXPERIMENTS.md.

use std::fmt;

use crate::json::{obj, s, Value};

/// One experiment's results as a table plus free-form notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment id (`"E2"`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Prose notes (listings, caveats, observed-vs-paper commentary).
    pub notes: Vec<String>,
}

impl Table {
    /// Starts an empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row; cell count should match the header.
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        debug_assert_eq!(row.len(), self.header.len(), "row width matches header");
        self.rows.push(row);
    }

    /// Appends a note paragraph.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r.get(i).map_or(0, |c| c.chars().count()))
                    .chain([h.chars().count()])
                    .max()
                    .unwrap_or(1)
            })
            .collect();
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<width$}", width = widths.get(i).copied().unwrap_or(1)))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.header));
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|\n", dashes.join("-|-")));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        for note in &self.notes {
            out.push_str(&format!("\n{note}\n"));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

/// A full suite run: every experiment's table in order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Suite {
    /// The tables, in experiment order.
    pub tables: Vec<Table>,
}

impl Suite {
    /// Renders the whole suite as one markdown document body.
    pub fn to_markdown(&self) -> String {
        self.tables
            .iter()
            .map(Table::to_markdown)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The machine-readable rendering behind `repro --json`: every
    /// table's id, title, header, rows and notes, in order.
    pub fn to_json(&self) -> Value<'_> {
        fn strs(xs: &[String]) -> Value<'_> {
            Value::Arr(xs.iter().map(|x| s(x.as_str())).collect())
        }
        let tables = self.tables.iter().map(|t| {
            obj([
                ("id", s(t.id.as_str())),
                ("title", s(t.title.as_str())),
                ("header", strs(&t.header)),
                ("rows", Value::Arr(t.rows.iter().map(|r| strs(r)).collect())),
                ("notes", strs(&t.notes)),
            ])
        });
        obj([("tables", Value::Arr(tables.collect()))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_json_shape() {
        let mut t = Table::new("E0", "a \"demo\"", &["arch"]);
        t.row(["x86"]);
        t.note("line\nbreak");
        let suite = Suite { tables: vec![t] };
        assert_eq!(
            suite.to_json().to_string(),
            r#"{"tables":[{"id":"E0","title":"a \"demo\"","header":["arch"],"rows":[["x86"]],"notes":["line\nbreak"]}]}"#
        );
    }

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("E0", "demo", &["arch", "result"]);
        t.row(["x86", "shell"]);
        t.row(["ARMv7", "shell"]);
        t.note("both succeed");
        let md = t.to_markdown();
        assert!(md.starts_with("### E0 — demo"));
        assert!(md.contains("| arch  | result |"));
        assert!(md.contains("| ARMv7 | shell  |"));
        assert!(md.contains("both succeed"));
    }

    #[test]
    fn suite_concatenates() {
        let mut s = Suite::default();
        s.tables.push(Table::new("E1", "a", &["x"]));
        s.tables.push(Table::new("E2", "b", &["y"]));
        let md = s.to_markdown();
        assert!(md.contains("E1") && md.contains("E2"));
    }
}
