//! The one exact snapshot gate.
//!
//! The modelled clock is deterministic, so every committed artifact is
//! gated by exact comparison.  A `results/*.csv` file is regenerated
//! through the code that wrote it and diffed cell by cell with
//! [`diff`]; a golden under `tests/snapshots/` is compared as text with
//! [`check_golden`].  `#` provenance lines and blank lines are ignored
//! when a CSV is parsed ([`Table::parse`]), so a moved git SHA never
//! trips the gate and a moved number always does.

use std::fmt;
use std::path::Path;

/// Why a text is not a table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Nothing but blank and `#` lines: no header.
    Empty,
    /// A header and no data row.
    HeaderOnly,
    /// A data row whose field count differs from the header's.
    Ragged {
        /// 1-based line number in the input text.
        line: usize,
        /// Fields on that line.
        fields: usize,
        /// Columns in the header.
        columns: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Empty => write!(f, "no header line"),
            ParseError::HeaderOnly => write!(f, "a header but no data rows"),
            ParseError::Ragged {
                line,
                fields,
                columns,
            } => write!(
                f,
                "line {line} has {fields} fields, the header {columns} columns"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed CSV: header names and data rows, every row as wide as the
/// header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

fn fields(line: &str) -> Vec<String> {
    line.split(',').map(str::to_string).collect()
}

impl Table {
    /// Parse CSV text, skipping `#` and blank lines.  The first
    /// remaining line is the header.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty() && !l.starts_with('#'));
        let header = fields(lines.next().ok_or(ParseError::Empty)?.1);
        let mut rows = Vec::new();
        for (i, line) in lines {
            let row = fields(line);
            if row.len() != header.len() {
                return Err(ParseError::Ragged {
                    line: i + 1,
                    fields: row.len(),
                    columns: header.len(),
                });
            }
            rows.push(row);
        }
        if rows.is_empty() {
            return Err(ParseError::HeaderOnly);
        }
        Ok(Self { header, rows })
    }

    /// The data rows, in file order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The index of the named column.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.header.iter().position(|h| h == name)
    }

    /// The cell of row `row` in the named column.
    pub fn cell(&self, row: usize, column: &str) -> Option<&str> {
        let c = self.column(column)?;
        self.rows.get(row).map(|r| r[c].as_str())
    }

    /// Mutable access to one cell (gate self-tests perturb one).
    pub fn cell_mut(&mut self, row: usize, column: &str) -> Option<&mut String> {
        let c = self.column(column)?;
        self.rows.get_mut(row).map(|r| &mut r[c])
    }

    /// The key of row `row`: its first `key_columns` cells, joined by
    /// spaces.
    pub fn key(&self, row: usize, key_columns: usize) -> String {
        self.rows[row][..key_columns.min(self.header.len())].join(" ")
    }
}

/// One difference between a committed table and a regenerated one.
/// A missing or extra row names the column `*`; a changed header names
/// the key `(header)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellDiff {
    /// The gated file.
    pub file: String,
    /// Row key.
    pub key: String,
    /// Column name.
    pub column: String,
    /// The committed value.
    pub want: String,
    /// The regenerated value.
    pub got: String,
}

impl fmt::Display for CellDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}: want {:?}, got {:?}",
            self.file, self.key, self.column, self.want, self.got
        )
    }
}

/// Diff `got` against `want` exactly.  Rows are matched by key (the
/// first `key_columns` cells; a repeated key matches its n-th
/// occurrence), every other cell is compared as text except the
/// `ignore`d columns.  A changed header is one diff and stops the
/// comparison; a missing or extra row is one diff each.
pub fn diff(
    file: &str,
    want: &Table,
    got: &Table,
    key_columns: usize,
    ignore: &[&str],
) -> Vec<CellDiff> {
    let mismatch = |key: String, column: &str, want: String, got: String| CellDiff {
        file: file.to_string(),
        key,
        column: column.to_string(),
        want,
        got,
    };
    if want.header != got.header {
        return vec![mismatch(
            "(header)".into(),
            "*",
            want.header.join(","),
            got.header.join(","),
        )];
    }
    let keys =
        |t: &Table| -> Vec<String> { (0..t.rows.len()).map(|i| t.key(i, key_columns)).collect() };
    let (want_keys, got_keys) = (keys(want), keys(got));
    let mut matched = vec![false; got.rows.len()];
    let mut out = Vec::new();
    for (i, key) in want_keys.iter().enumerate() {
        let nth = want_keys[..i].iter().filter(|k| *k == key).count();
        let Some(j) = got_keys
            .iter()
            .enumerate()
            .filter(|(_, k)| *k == key)
            .map(|(j, _)| j)
            .nth(nth)
        else {
            out.push(mismatch(
                key.clone(),
                "*",
                want.rows[i].join(","),
                "(missing)".into(),
            ));
            continue;
        };
        matched[j] = true;
        for (c, name) in want.header.iter().enumerate().skip(key_columns) {
            let (w, g) = (&want.rows[i][c], &got.rows[j][c]);
            if w != g && !ignore.contains(&name.as_str()) {
                out.push(mismatch(key.clone(), name, w.clone(), g.clone()));
            }
        }
    }
    for (j, _) in matched.iter().enumerate().filter(|(_, m)| !**m) {
        out.push(mismatch(
            got_keys[j].clone(),
            "*",
            "(absent)".into(),
            got.rows[j].join(","),
        ));
    }
    out
}

/// Compare `rendered` with the golden file at `path`, byte for byte, or
/// rewrite the golden when `GOLDEN_UPDATE=1` is set.
///
/// # Panics
///
/// This is a test assertion: it panics, listing the differing lines,
/// when the golden is missing or differs, and when an update cannot be
/// written.
pub fn check_golden(path: impl AsRef<Path>, rendered: &str) {
    let path = path.as_ref();
    if std::env::var("GOLDEN_UPDATE").is_ok_and(|v| v == "1") {
        std::fs::write(path, rendered).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("golden updated: {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); generate it with GOLDEN_UPDATE=1",
            path.display()
        )
    });
    if golden == rendered {
        return;
    }
    let (want, got): (Vec<&str>, Vec<&str>) =
        (golden.lines().collect(), rendered.lines().collect());
    let moved: Vec<String> = (0..want.len().max(got.len()))
        .filter(|&i| want.get(i) != got.get(i))
        .take(20)
        .map(|i| {
            let line = |v: &[&str]| v.get(i).map_or("(none)".to_string(), |l| format!("`{l}`"));
            format!("  line {}: want {}, got {}", i + 1, line(&want), line(&got))
        })
        .collect();
    panic!(
        "{} differs from the rendered output ({} vs {} lines; line endings or \
         the final newline when no line is listed); if the change is \
         intentional, regenerate with GOLDEN_UPDATE=1 and review the diff:\n{}",
        path.display(),
        want.len(),
        got.len(),
        moved.join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "config,a,b\n1LP,1.0,2\n3LP-1 k,3.5,4\n";

    fn table(text: &str) -> Table {
        Table::parse(text).expect("valid table")
    }

    fn diffs(want: &str, got: &str) -> Vec<CellDiff> {
        diff("t.csv", &table(want), &table(got), 1, &[])
    }

    /// `(key, column)` of each diff.
    fn places(d: &[CellDiff]) -> Vec<(&str, &str)> {
        d.iter()
            .map(|d| (d.key.as_str(), d.column.as_str()))
            .collect()
    }

    #[test]
    fn identical_text_passes_and_provenance_lines_are_ignored() {
        assert!(diffs(CSV, CSV).is_empty());
        let stamped = format!("# git: abc\n\n# device_hash: 1\n{CSV}");
        let restamped = format!("# git: def\n{CSV}\n# trailing\n");
        assert!(diffs(&stamped, &restamped).is_empty());
        assert_eq!(table(&stamped), table(CSV));
        // Rows match by key, not position; a repeated key matches its
        // n-th occurrence.
        assert!(diffs(CSV, "config,a,b\n3LP-1 k,3.5,4\n1LP,1.0,2\n").is_empty());
        assert!(diffs("k,a\nx,1\nx,2\n", "k,a\nx,1\nx,2\n").is_empty());
    }

    #[test]
    fn one_changed_cell_is_exactly_one_diff() {
        let d = diffs(CSV, "config,a,b\n1LP,1.0,2\n3LP-1 k,3.6,4\n");
        assert_eq!(places(&d), [("3LP-1 k", "a")]);
        assert_eq!((d[0].want.as_str(), d[0].got.as_str()), ("3.5", "3.6"));
        assert_eq!(
            d[0].to_string(),
            r#"t.csv: [3LP-1 k] a: want "3.5", got "3.6""#
        );
        // An ignored column is not compared.
        let got = table("config,a,b\n1LP,1.0,9\n3LP-1 k,3.5,4\n");
        assert!(diff("t", &table(CSV), &got, 1, &["b"]).is_empty());
    }

    #[test]
    fn missing_extra_rows_and_a_changed_header_fail() {
        let missing = diffs(CSV, "config,a,b\n1LP,1.0,2\n");
        assert_eq!(places(&missing), [("3LP-1 k", "*")]);
        assert_eq!(missing[0].got, "(missing)");
        let extra = diffs(CSV, &format!("{CSV}4LP-1 k,5,6\n"));
        assert_eq!(places(&extra), [("4LP-1 k", "*")]);
        assert_eq!(extra[0].want, "(absent)");
        assert_eq!(
            places(&diffs("k,a\nx,1\nx,2\n", "k,a\nx,1\n")),
            [("x", "*")]
        );
        // Two key columns: a moved `a` is a missing plus an extra row.
        let moved = table("config,a,b\n1LP,1.5,2\n3LP-1 k,3.5,4\n");
        let d = diff("t", &table(CSV), &moved, 2, &[]);
        assert_eq!(places(&d), [("1LP 1.0", "*"), ("1LP 1.5", "*")]);

        let header = diffs(CSV, "config,a,c\n1LP,1.0,2\n3LP-1 k,3.5,4\n");
        assert_eq!(places(&header), [("(header)", "*")]);
        assert_eq!(
            (header[0].want.as_str(), header[0].got.as_str()),
            ("config,a,b", "config,a,c")
        );
    }

    #[test]
    fn empty_header_only_and_ragged_input_are_errors() {
        assert_eq!(Table::parse(""), Err(ParseError::Empty));
        assert_eq!(
            Table::parse("# only provenance\n\n"),
            Err(ParseError::Empty)
        );
        assert_eq!(Table::parse("config,a\n# x\n"), Err(ParseError::HeaderOnly));
        assert_eq!(
            Table::parse("# p\nconfig,a,b\n1LP,1.0,2\n3LP-1 k,3.5\n"),
            Err(ParseError::Ragged {
                line: 4,
                fields: 2,
                columns: 3
            })
        );
        assert!(Table::parse("config,a\n1LP,1,2\n").is_err());
    }

    #[test]
    fn cells_by_column_name() {
        let mut t = table(CSV);
        assert_eq!(
            (t.cell(1, "a"), t.cell(2, "a"), t.cell(0, "zz")),
            (Some("3.5"), None, None)
        );
        *t.cell_mut(0, "b").expect("cell") = "7".into();
        assert_eq!(t.cell(0, "b"), Some("7"));
        assert_eq!(t.key(1, 1), "3LP-1 k");
    }
}
