//! Console tables and CSV/JSON persistence for experiment outputs.
//!
//! The JSON writer is hand-rolled (escaping per RFC 8259) so the harness
//! needs no serialization dependency; tables are small and the schema is
//! fixed, so a few lines of careful escaping beat a crate.

use std::io::Write;
use std::path::Path;

/// Core count of the host running the benchmark, as recorded in the JSON
/// metadata of every written table. Absolute numbers in `results/` are only
/// comparable across runs on similarly-sized hosts; recording the count in
/// the file (instead of only in free-text table titles) lets tooling check.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A simple printable/serializable table.
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Core count of the host that produced the rows (serialized as the
    /// `host_cores` JSON field; defaults to this host's).
    pub host_cores: usize,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (each as wide as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with the given caption and columns.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            host_cores: host_cores(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; panics if the width disagrees with the headers.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Prints a fixed-width console rendering.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        println!("\n== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let parts: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("| {} |", parts.join(" | "));
        };
        line(&self.headers, &widths);
        println!(
            "|{}|",
            widths
                .iter()
                .map(|w| "-".repeat(w + 2))
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            line(row, &widths);
        }
    }

    /// CSV rendering (quoted only when needed).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
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

    /// JSON rendering: `{"title", "host_cores", "headers", "rows"}` with
    /// all cells as strings, matching the CSV contents exactly.
    pub fn to_json(&self) -> String {
        let str_array = |items: &[String]| {
            let parts: Vec<String> = items.iter().map(|s| json_string(s)).collect();
            format!("[{}]", parts.join(", "))
        };
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("    {}", str_array(r)))
            .collect();
        format!(
            "{{\n  \"title\": {},\n  \"host_cores\": \"{}\",\n  \"headers\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
            json_string(&self.title),
            self.host_cores,
            str_array(&self.headers),
            rows.join(",\n")
        )
    }
}

/// Escapes `s` as a JSON string literal (RFC 8259 §7: quote, backslash and
/// control characters; everything else passes through as UTF-8).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes a table as CSV under `dir/name.csv` (directory created on demand).
pub fn write_csv(table: &Table, dir: &Path, name: &str) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(table.to_csv().as_bytes())?;
    Ok(path)
}

/// Writes a table as JSON under `dir/name.json` (directory created on
/// demand).
pub fn write_json(table: &Table, dir: &Path, name: &str) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(table.to_json().as_bytes())?;
    Ok(path)
}

/// Writes a table as JSON under `dir/name.json`, *merging* with an existing
/// file of the same schema instead of clobbering it.
///
/// Benches with gated arms (e.g. the 1M-entity arm of `kg_retrieval` behind
/// `CF_BENCH_KG_LARGE=1`) run partially most of the time; a plain
/// [`write_json`] would silently drop the expensive rows from the previous
/// full run. Here rows are keyed on their first `key_cols` cells: new rows
/// replace existing rows with the same key and append otherwise, existing
/// rows with keys this run didn't produce survive. If the existing file is
/// unreadable, malformed, or has different headers, the new table replaces
/// it wholesale.
pub fn write_json_merged(
    table: &Table,
    dir: &Path,
    name: &str,
    key_cols: usize,
) -> std::io::Result<std::path::PathBuf> {
    assert!(
        key_cols >= 1 && key_cols <= table.headers.len(),
        "key_cols out of range"
    );
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let old = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| parse_table_json(&t));
    let merged = match old {
        Some(old) if old.headers == table.headers => {
            let mut rows = old.rows;
            for row in &table.rows {
                match rows.iter_mut().find(|r| r[..key_cols] == row[..key_cols]) {
                    Some(existing) => *existing = row.clone(),
                    None => rows.push(row.clone()),
                }
            }
            Table {
                title: table.title.clone(),
                // Always stamp the *current* host: after a merge the file
                // claims this machine's shape, and mixing hosts in one file
                // is exactly what the field exists to surface.
                host_cores: table.host_cores,
                headers: table.headers.clone(),
                rows,
            }
        }
        _ => Table {
            title: table.title.clone(),
            host_cores: table.host_cores,
            headers: table.headers.clone(),
            rows: table.rows.clone(),
        },
    };
    let mut f = std::fs::File::create(&path)?;
    f.write_all(merged.to_json().as_bytes())?;
    Ok(path)
}

/// Parses the fixed `{"title", "host_cores", "headers", "rows"}` JSON shape
/// produced by [`Table::to_json`]. Returns `None` on anything else — the
/// merge writer then falls back to replacing the file. (Pre-`host_cores`
/// files fail here and are replaced wholesale on the next write.)
fn parse_table_json(text: &str) -> Option<Table> {
    let mut p = JsonParser {
        chars: text.chars().peekable(),
    };
    p.expect('{')?;
    p.key("title")?;
    let title = p.string()?;
    p.expect(',')?;
    p.key("host_cores")?;
    let host_cores: usize = p.string()?.parse().ok()?;
    p.expect(',')?;
    p.key("headers")?;
    let headers = p.string_array()?;
    p.expect(',')?;
    p.key("rows")?;
    p.expect('[')?;
    let mut rows = Vec::new();
    if p.peek()? == ']' {
        p.expect(']')?;
    } else {
        loop {
            let row = p.string_array()?;
            if row.len() != headers.len() {
                return None;
            }
            rows.push(row);
            match p.next_non_ws()? {
                ',' => continue,
                ']' => break,
                _ => return None,
            }
        }
    }
    p.expect('}')?;
    Some(Table {
        title,
        host_cores,
        headers,
        rows,
    })
}

/// Minimal recursive-descent reader for [`parse_table_json`]; any deviation
/// from the expected shape surfaces as `None`.
struct JsonParser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl JsonParser<'_> {
    fn peek(&mut self) -> Option<char> {
        while self.chars.peek().is_some_and(|c| c.is_whitespace()) {
            self.chars.next();
        }
        self.chars.peek().copied()
    }

    fn next_non_ws(&mut self) -> Option<char> {
        self.peek()?;
        self.chars.next()
    }

    fn expect(&mut self, want: char) -> Option<()> {
        (self.next_non_ws()? == want).then_some(())
    }

    /// `"name":` with the exact given name.
    fn key(&mut self, name: &str) -> Option<()> {
        (self.string()? == name).then_some(())?;
        self.expect(':')
    }

    fn string(&mut self) -> Option<String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next()? {
                '"' => return Some(out),
                '\\' => match self.chars.next()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let mut v = 0u32;
                        for _ in 0..4 {
                            v = v * 16 + self.chars.next()?.to_digit(16)?;
                        }
                        out.push(char::from_u32(v)?);
                    }
                    _ => return None,
                },
                c => out.push(c),
            }
        }
    }

    fn string_array(&mut self) -> Option<Vec<String>> {
        self.expect('[')?;
        let mut out = Vec::new();
        if self.peek()? == ']' {
            self.expect(']')?;
            return Some(out);
        }
        loop {
            out.push(self.string()?);
            match self.next_non_ws()? {
                ',' => continue,
                ']' => return Some(out),
                _ => return None,
            }
        }
    }
}

/// Formats an error the way the paper's tables do: sensible precision for
/// magnitudes from 1e-4 to 1e9.
pub fn fmt_err(v: f64) -> String {
    if !v.is_finite() {
        "n/a".into()
    } else if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e5 {
        format!("{v:.1e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_check::TempDir;

    #[test]
    fn csv_round_trips_simple_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1".into(), "x,y".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,\"x,y\"\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn fmt_err_covers_magnitudes() {
        assert_eq!(fmt_err(0.0), "0");
        assert_eq!(fmt_err(0.0163), "0.0163");
        assert_eq!(fmt_err(15.53), "15.53");
        assert_eq!(fmt_err(205.1), "205.1");
        assert_eq!(fmt_err(1.7e8), "1.7e8");
        assert_eq!(fmt_err(f64::NAN), "n/a");
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut t = Table::new("q\"uote\\slash", &["h"]);
        t.row(vec!["line\nbreak\ttab\u{1}".into()]);
        let json = t.to_json();
        assert!(json.contains(r#""q\"uote\\slash""#));
        assert!(json.contains(r#""line\nbreak\ttab\u0001""#));
    }

    #[test]
    fn json_has_expected_shape() {
        let mut t = Table::new("t", &["a", "b"]);
        t.host_cores = 32; // pin for an exact-format assertion
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["3".into(), "4".into()]);
        assert_eq!(
            t.to_json(),
            "{\n  \"title\": \"t\",\n  \"host_cores\": \"32\",\n  \"headers\": [\"a\", \"b\"],\n  \"rows\": [\n    [\"1\", \"2\"],\n    [\"3\", \"4\"]\n  ]\n}\n"
        );
    }

    #[test]
    fn json_metadata_records_this_hosts_cores() {
        let t = Table::new("t", &["a"]);
        assert_eq!(t.host_cores, host_cores());
        assert!(host_cores() >= 1);
        let back = parse_table_json(&t.to_json()).unwrap();
        assert_eq!(back.host_cores, host_cores());
        // Pre-metadata files (no host_cores key) are rejected, which makes
        // the merge writer replace them wholesale rather than guess.
        let legacy =
            "{\n  \"title\": \"t\",\n  \"headers\": [\"a\"],\n  \"rows\": [\n    [\"1\"]\n  ]\n}\n";
        assert!(parse_table_json(legacy).is_none());
    }

    #[test]
    fn write_json_creates_file() {
        let dir = TempDir::new("bench_test_json");
        let mut t = Table::new("t", &["a"]);
        t.row(vec!["1".into()]);
        let path = write_json(&t, dir.path(), "unit").unwrap();
        assert!(path.exists());
    }

    #[test]
    fn parse_table_json_round_trips() {
        let mut t = Table::new("ti\"tle\n", &["k", "v"]);
        t.row(vec!["a\\b".into(), "1".into()]);
        t.row(vec!["c\td".into(), "2".into()]);
        let back = parse_table_json(&t.to_json()).unwrap();
        assert_eq!(back.title, t.title);
        assert_eq!(back.headers, t.headers);
        assert_eq!(back.rows, t.rows);
    }

    #[test]
    fn parse_table_json_rejects_malformed() {
        assert!(parse_table_json("").is_none());
        assert!(parse_table_json("{}").is_none());
        assert!(parse_table_json("not json at all").is_none());
        // ragged row (width != headers)
        let ragged = "{\n  \"title\": \"t\",\n  \"host_cores\": \"8\",\n  \"headers\": [\"a\", \"b\"],\n  \"rows\": [\n    [\"1\"]\n  ]\n}\n";
        assert!(parse_table_json(ragged).is_none());
        // truncated file (e.g. interrupted write)
        let mut t = Table::new("t", &["a"]);
        t.row(vec!["1".into()]);
        let full = t.to_json();
        assert!(parse_table_json(&full[..full.len() / 2]).is_none());
    }

    #[test]
    fn write_json_merged_keeps_rows_from_other_arms() {
        let dir = TempDir::new("bench_merge");
        // First run: the expensive arm writes its rows.
        let mut big = Table::new("t", &["scale", "metric", "value"]);
        big.row(vec!["1m".into(), "p99".into(), "500".into()]);
        write_json_merged(&big, dir.path(), "unit_merge", 2).unwrap();
        // Second run: only the small arm runs; it must not clobber "1m".
        let mut small = Table::new("t", &["scale", "metric", "value"]);
        small.row(vec!["15k".into(), "p99".into(), "20".into()]);
        let path = write_json_merged(&small, dir.path(), "unit_merge", 2).unwrap();
        let merged = parse_table_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(merged.rows.len(), 2);
        assert!(merged.rows.iter().any(|r| r[0] == "1m" && r[2] == "500"));
        assert!(merged.rows.iter().any(|r| r[0] == "15k" && r[2] == "20"));
        // Third run: small arm again with a new value replaces its row in place.
        let mut rerun = Table::new("t", &["scale", "metric", "value"]);
        rerun.row(vec!["15k".into(), "p99".into(), "25".into()]);
        write_json_merged(&rerun, dir.path(), "unit_merge", 2).unwrap();
        let merged = parse_table_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(merged.rows.len(), 2);
        assert!(merged.rows.iter().any(|r| r[0] == "15k" && r[2] == "25"));
    }

    #[test]
    fn write_json_merged_replaces_on_schema_change() {
        let dir = TempDir::new("bench_merge_schema");
        let mut old = Table::new("t", &["a", "b"]);
        old.row(vec!["1".into(), "2".into()]);
        write_json_merged(&old, dir.path(), "unit_schema", 1).unwrap();
        let mut new = Table::new("t", &["a", "b", "c"]);
        new.row(vec!["1".into(), "2".into(), "3".into()]);
        let path = write_json_merged(&new, dir.path(), "unit_schema", 1).unwrap();
        let got = parse_table_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(got.headers, vec!["a", "b", "c"]);
        assert_eq!(got.rows.len(), 1);
    }

    #[test]
    fn write_json_merged_replaces_corrupt_file() {
        let dir = TempDir::new("bench_merge_corrupt");
        let path = dir.join("unit_corrupt.json");
        std::fs::write(&path, b"{ truncated garba").unwrap();
        let mut t = Table::new("t", &["a"]);
        t.row(vec!["1".into()]);
        write_json_merged(&t, dir.path(), "unit_corrupt", 1).unwrap();
        let got = parse_table_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(got.rows, vec![vec!["1".to_string()]]);
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = TempDir::new("bench_test");
        let mut t = Table::new("t", &["a"]);
        t.row(vec!["1".into()]);
        let path = write_csv(&t, dir.path(), "unit").unwrap();
        assert!(path.exists());
    }
}
