//! Committed reference outputs for the canary inputs, and the check of a
//! run's outputs against them.
//!
//! A reference file holds one row per line: a key, then cells. A cell is
//! either an `f64` written as its 16-hex-digit bit pattern or a word.
//! Numbers match when they are within [`REL_TOL`] of each other
//! (relative), words when they are equal. `#` starts a comment line.
//! `perfbench --write-reference` regenerates every file.

use std::collections::BTreeMap;

/// Relative tolerance on every reference number. Loose enough for a
/// reordered floating-point sum, far tighter than any real change of a
/// performance figure.
pub const REL_TOL: f64 = 1e-9;

/// One output row: a key and its cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub key: String,
    pub cells: Vec<String>,
}

impl Row {
    pub fn new(key: impl Into<String>) -> Self {
        Self {
            key: key.into(),
            cells: Vec::new(),
        }
    }

    pub fn num(mut self, v: f64) -> Self {
        self.cells.push(format!("{:016x}", v.to_bits()));
        self
    }

    pub fn nums(self, vs: impl IntoIterator<Item = f64>) -> Self {
        vs.into_iter().fold(self, Row::num)
    }

    pub fn word(mut self, w: &str) -> Self {
        debug_assert!(!w.is_empty() && !w.contains(char::is_whitespace));
        self.cells.push(w.to_owned());
        self
    }

    fn line(&self) -> String {
        std::iter::once(self.key.as_str())
            .chain(self.cells.iter().map(String::as_str))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Decode a cell written by [`Row::num`].
fn as_f64(cell: &str) -> Option<f64> {
    (cell.len() == 16)
        .then(|| u64::from_str_radix(cell, 16).ok())
        .flatten()
        .map(f64::from_bits)
}

/// Relative difference of two numbers: 0 when their bits are equal, NaN
/// when only one is NaN.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a.to_bits() == b.to_bits() {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs())
    }
}

fn cells_match(want: &str, got: &str) -> bool {
    match (as_f64(want), as_f64(got)) {
        (Some(a), Some(b)) => rel_diff(a, b) <= REL_TOL,
        _ => want == got,
    }
}

fn show(cell: &str) -> String {
    as_f64(cell).map_or_else(|| cell.to_owned(), |v| format!("{v:e}"))
}

/// A parsed reference file.
pub struct Reference {
    rows: BTreeMap<String, Vec<String>>,
}

impl Reference {
    pub fn parse(text: &str) -> Self {
        let rows = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let mut tokens = l.split_whitespace().map(str::to_owned);
                let key = tokens.next().expect("non-empty line has a key");
                (key, tokens.collect())
            })
            .collect();
        Self { rows }
    }

    /// `None` when `row` matches its reference row, else what differs.
    pub fn check(&self, row: &Row) -> Option<String> {
        let Some(want) = self.rows.get(&row.key) else {
            return Some(format!("{}: no reference row", row.key));
        };
        if want.len() != row.cells.len() {
            return Some(format!(
                "{}: {} cells, reference has {}",
                row.key,
                row.cells.len(),
                want.len()
            ));
        }
        let diffs: Vec<String> = want
            .iter()
            .zip(&row.cells)
            .enumerate()
            .filter(|(_, (w, g))| !cells_match(w, g))
            .map(|(i, (w, g))| format!("cell {i}: {} != reference {}", show(g), show(w)))
            .collect();
        (!diffs.is_empty()).then(|| format!("{}: {}", row.key, diffs.join(", ")))
    }

    /// Check a complete set of rows: every row matches and no reference
    /// row is missing.
    pub fn check_all(&self, rows: &[Row]) -> Vec<String> {
        let mut problems: Vec<String> = rows.iter().filter_map(|r| self.check(r)).collect();
        for key in self.rows.keys() {
            if !rows.iter().any(|r| &r.key == key) {
                problems.push(format!("{key}: missing from the output"));
            }
        }
        problems
    }
}

/// Render rows as a reference file under a comment header.
pub fn render(header: &str, rows: &[Row]) -> String {
    let mut out: String = header.lines().map(|l| format!("# {l}\n")).collect();
    for row in rows {
        out.push_str(&row.line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_and_tolerate_only_rounding() {
        let row = Row::new("fc/1").num(65.0e6).num(f64::NAN).word("finished");
        let reference = Reference::parse(&render("header", std::slice::from_ref(&row)));
        assert_eq!(reference.check(&row), None);
        let rounded = Row::new("fc/1")
            .num(65.0e6 * (1.0 + 1e-12))
            .num(f64::NAN)
            .word("finished");
        assert_eq!(reference.check(&rounded), None);
        let moved = Row::new("fc/1").num(65.1e6).num(f64::NAN).word("failed");
        let problem = reference.check(&moved).expect("two cells differ");
        assert!(
            problem.contains("cell 0") && problem.contains("cell 2"),
            "{problem}"
        );
        assert_eq!(reference.check_all(&[]).len(), 1);
    }
}
