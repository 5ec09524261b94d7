//! TSV serialization in the MMKG convention, so real FB15K-237/YAGO15K dumps
//! (when available) drop into the same pipeline the synthetic twins use.
//!
//! Formats:
//! - relational triples: `head<TAB>relation<TAB>tail`
//! - numeric triples: `entity<TAB>attribute<TAB>value`

use crate::graph::KnowledgeGraph;
use std::collections::HashMap;
use std::io::{BufRead, Read, Write};

/// Cap on a single TSV line, enforced *before* the line is buffered — the
/// same length-cap-before-allocation discipline as the CFT2/CFKG1 binary
/// readers. A malicious or corrupt dump can therefore never balloon memory.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Cap on a single token (entity/relation/attribute name or number).
pub const MAX_TOKEN_BYTES: usize = 1 << 16;

/// Errors raised while parsing TSV dumps.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// `(line_number, message)`
    Malformed(usize, String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "io error: {e}"),
            LoadError::Malformed(line, msg) => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Streaming loader that interns entity/relation/attribute names on the fly.
pub struct TsvLoader {
    graph: KnowledgeGraph,
    entities: HashMap<String, crate::ids::EntityId>,
    relations: HashMap<String, crate::ids::RelationId>,
    attributes: HashMap<String, crate::ids::AttributeId>,
}

impl Default for TsvLoader {
    fn default() -> Self {
        Self::new()
    }
}

impl TsvLoader {
    /// A loader with empty vocabularies.
    pub fn new() -> Self {
        TsvLoader {
            graph: KnowledgeGraph::new(),
            entities: HashMap::new(),
            relations: HashMap::new(),
            attributes: HashMap::new(),
        }
    }

    fn entity(&mut self, name: &str) -> crate::ids::EntityId {
        if let Some(&id) = self.entities.get(name) {
            return id;
        }
        let id = self.graph.add_entity(name);
        self.entities.insert(name.to_string(), id);
        id
    }

    /// Reads relational triples from a TSV reader.
    pub fn load_triples(&mut self, reader: impl BufRead) -> Result<usize, LoadError> {
        for_each_row(reader, |_, [h, r, t]| {
            let h = self.entity(h);
            let rel = if let Some(&id) = self.relations.get(r) {
                id
            } else {
                let id = self.graph.add_relation_type(r);
                self.relations.insert(r.to_string(), id);
                id
            };
            let t = self.entity(t);
            self.graph.add_triple(h, rel, t);
            Ok(())
        })
    }

    /// Reads numeric triples from a TSV reader.
    pub fn load_numerics(&mut self, reader: impl BufRead) -> Result<usize, LoadError> {
        for_each_row(reader, |lineno, [e, a, v]| {
            let value: f64 = v
                .parse()
                .map_err(|_| LoadError::Malformed(lineno, format!("bad number {v:?}")))?;
            if !value.is_finite() {
                return Err(LoadError::Malformed(
                    lineno,
                    format!("non-finite number {v:?}"),
                ));
            }
            let e = self.entity(e);
            let attr = if let Some(&id) = self.attributes.get(a) {
                id
            } else {
                let id = self.graph.add_attribute_type(a);
                self.attributes.insert(a.to_string(), id);
                id
            };
            self.graph.add_numeric(e, attr, value);
            Ok(())
        })
    }

    /// Finishes loading: builds indexes and returns the graph.
    pub fn finish(mut self) -> KnowledgeGraph {
        self.graph.build_index();
        self.graph
    }
}

/// The TSV row loop both loaders share: reads each line under the
/// [`MAX_LINE_BYTES`] cap (applied before buffering), trims it, skips blank
/// and `#` lines, splits the first three tab fields, checks each against
/// [`MAX_TOKEN_BYTES`] and hands them to `row` with the line's 1-based
/// number. Returns how many rows `row` accepted.
fn for_each_row(
    mut reader: impl BufRead,
    mut row: impl FnMut(usize, [&str; 3]) -> Result<(), LoadError>,
) -> Result<usize, LoadError> {
    let mut rows = 0;
    let mut buf = String::new();
    let mut lineno = 0usize;
    loop {
        lineno += 1;
        buf.clear();
        // Reading through a Take means an overlong line stops growing the
        // buffer at the cap instead of allocating without bound.
        let n = reader
            .by_ref()
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_line(&mut buf)
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::InvalidData {
                    LoadError::Malformed(lineno, "line is not valid UTF-8".into())
                } else {
                    LoadError::Io(e)
                }
            })?;
        if n > MAX_LINE_BYTES {
            return Err(LoadError::Malformed(
                lineno,
                format!("line exceeds {MAX_LINE_BYTES} bytes"),
            ));
        }
        if n == 0 {
            return Ok(rows);
        }
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let fields = match (parts.next(), parts.next(), parts.next()) {
            (Some(a), Some(b), Some(c)) => [a, b, c],
            _ => {
                return Err(LoadError::Malformed(
                    lineno,
                    format!("expected 3 fields, got {line:?}"),
                ))
            }
        };
        if fields.iter().any(|tok| tok.len() > MAX_TOKEN_BYTES) {
            return Err(LoadError::Malformed(
                lineno,
                format!("token exceeds {MAX_TOKEN_BYTES} bytes"),
            ));
        }
        row(lineno, fields)?;
        rows += 1;
    }
}

/// Writes relational triples as TSV.
pub fn write_triples(g: &KnowledgeGraph, mut w: impl Write) -> std::io::Result<()> {
    for t in g.triples() {
        writeln!(
            w,
            "{}\t{}\t{}",
            g.entity_name(t.head),
            g.relation_name(t.rel),
            g.entity_name(t.tail)
        )?;
    }
    Ok(())
}

/// Writes numeric triples as TSV.
pub fn write_numerics(g: &KnowledgeGraph, mut w: impl Write) -> std::io::Result<()> {
    for t in g.numerics() {
        writeln!(
            w,
            "{}\t{}\t{}",
            g.entity_name(t.entity),
            g.attribute_name(t.attr),
            t.value
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_tsv() {
        let mut g = KnowledgeGraph::new();
        let a = g.add_entity("alice");
        let b = g.add_entity("bob");
        let r = g.add_relation_type("knows");
        let at = g.add_attribute_type("age");
        g.add_triple(a, r, b);
        g.add_numeric(a, at, 31.5);
        g.build_index();

        let mut t_buf = Vec::new();
        write_triples(&g, &mut t_buf).unwrap();
        let mut n_buf = Vec::new();
        write_numerics(&g, &mut n_buf).unwrap();

        let mut loader = TsvLoader::new();
        loader.load_triples(&t_buf[..]).unwrap();
        loader.load_numerics(&n_buf[..]).unwrap();
        let g2 = loader.finish();

        assert_eq!(g2.num_entities(), 2);
        assert_eq!(g2.triples().len(), 1);
        let alice = g2.entity_by_name("alice").unwrap();
        let age = g2.attribute_by_name("age").unwrap();
        assert_eq!(g2.value_of(alice, age), Some(31.5));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let input = b"# comment\n\nalice\tknows\tbob\n";
        let mut loader = TsvLoader::new();
        let n = loader.load_triples(&input[..]).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn reports_malformed_lines_with_numbers() {
        let input = b"alice\tknows\n";
        let mut loader = TsvLoader::new();
        match loader.load_triples(&input[..]) {
            Err(LoadError::Malformed(1, _)) => {}
            other => panic!("expected Malformed(1), got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_numbers() {
        let input = b"alice\tage\tNaN\n";
        let mut loader = TsvLoader::new();
        assert!(loader.load_numerics(&input[..]).is_err());
        let input2 = b"alice\tage\tabc\n";
        let mut loader2 = TsvLoader::new();
        assert!(loader2.load_numerics(&input2[..]).is_err());
    }

    #[test]
    fn reports_line_numbers_after_skipped_lines() {
        // Comments and blanks still advance the reported line number.
        let input = b"# header\n\na\tr\tb\nbroken line\n";
        let mut loader = TsvLoader::new();
        match loader.load_triples(&input[..]) {
            Err(LoadError::Malformed(4, msg)) => assert!(msg.contains("3 fields"), "{msg}"),
            other => panic!("expected Malformed(4), got {other:?}"),
        }
    }

    #[test]
    fn overlong_line_is_rejected_before_buffering() {
        let mut input = Vec::new();
        input.extend_from_slice(b"a\tr\t");
        input.resize(input.len() + MAX_LINE_BYTES + 10, b'x');
        input.push(b'\n');
        let mut loader = TsvLoader::new();
        match loader.load_triples(&input[..]) {
            Err(LoadError::Malformed(1, msg)) => assert!(msg.contains("exceeds"), "{msg}"),
            other => panic!("expected Malformed(1), got {other:?}"),
        }
        // The graph must not have interned anything from the bad line.
        assert_eq!(loader.finish().num_entities(), 0);
    }

    #[test]
    fn overlong_token_is_rejected() {
        let mut input = Vec::new();
        input.extend_from_slice(b"a\t");
        input.resize(input.len() + MAX_TOKEN_BYTES + 1, b'r');
        input.extend_from_slice(b"\tb\n");
        let mut loader = TsvLoader::new();
        match loader.load_triples(&input[..]) {
            Err(LoadError::Malformed(1, msg)) => assert!(msg.contains("token"), "{msg}"),
            other => panic!("expected Malformed(1), got {other:?}"),
        }
    }

    #[test]
    fn invalid_utf8_is_a_parse_error_not_io() {
        let input: &[u8] = b"a\tr\t\xFF\xFE\n";
        let mut loader = TsvLoader::new();
        match loader.load_triples(input) {
            Err(LoadError::Malformed(1, msg)) => assert!(msg.contains("UTF-8"), "{msg}"),
            other => panic!("expected Malformed(1), got {other:?}"),
        }
    }

    #[test]
    fn malformed_numeric_rows_keep_line_numbers() {
        let input = b"e\tage\t1.0\ne\tage\n";
        let mut loader = TsvLoader::new();
        match loader.load_numerics(&input[..]) {
            Err(LoadError::Malformed(2, _)) => {}
            other => panic!("expected Malformed(2), got {other:?}"),
        }
    }

    #[test]
    fn interning_reuses_ids() {
        let input = b"a\tr\tb\nb\tr\ta\n";
        let mut loader = TsvLoader::new();
        loader.load_triples(&input[..]).unwrap();
        let g = loader.finish();
        assert_eq!(g.num_entities(), 2);
        assert_eq!(g.num_relations(), 1);
    }
}
