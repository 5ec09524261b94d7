//! Robustness of the MMKG TSV reader against untrusted input: arbitrary
//! bytes never panic it, over-long lines and tokens are typed errors that
//! carry their line number, and a generated graph survives a write → load
//! round trip fact for fact.

use cf_check::prelude::*;
use cf_kg::io::TsvLoader;
use cf_kg::io::{write_numerics, write_triples, LoadError, MAX_LINE_BYTES, MAX_TOKEN_BYTES};
use cf_kg::KnowledgeGraph;

/// Bytes that steer generated input toward TSV structure: separators,
/// comments, numbers and multi-byte or invalid UTF-8.
const TSVISH: &[u8] = b"\t\n\r #ab_0123456789.-+eEinfNa\xc3\xa9\xff\x00";

/// What a generated name is made of besides its unique prefix: ASCII,
/// inner spaces, a `#` that is not at the start of a line, quotes and
/// multi-byte UTF-8.
const NAME_CHARS: &[char] = &['a', 'Z', '0', '_', ' ', '#', '"', '\\', 'é', '中', '🦀'];

/// A name unique to `(kind, i)`: the prefix keeps it distinct and not a
/// comment, the closing `:` keeps the loader's trim away from its spaces.
fn name(kind: char, i: usize, picks: &[usize]) -> String {
    let word: String = picks.iter().map(|&p| NAME_CHARS[p]).collect();
    format!("{kind}{i}:{word}:")
}

fn load(triples: &[u8], numerics: &[u8]) -> Result<KnowledgeGraph, LoadError> {
    let mut loader = TsvLoader::new();
    loader.load_triples(triples)?;
    loader.load_numerics(numerics)?;
    Ok(loader.finish())
}

/// A graph's relational and numeric facts by name, values as bits, sorted.
type Facts = (Vec<[String; 3]>, Vec<(String, String, u64)>);

/// The graph's facts: what a round trip must keep.
fn facts(g: &KnowledgeGraph) -> Facts {
    let mut triples: Vec<[String; 3]> = g
        .triples()
        .iter()
        .map(|t| {
            [
                g.entity_name(t.head).to_string(),
                g.relation_name(t.rel).to_string(),
                g.entity_name(t.tail).to_string(),
            ]
        })
        .collect();
    let mut numerics: Vec<(String, String, u64)> = g
        .numerics()
        .iter()
        .map(|t| {
            (
                g.entity_name(t.entity).to_string(),
                g.attribute_name(t.attr).to_string(),
                t.value.to_bits(),
            )
        })
        .collect();
    triples.sort();
    numerics.sort();
    (triples, numerics)
}

/// `lines` valid lines for the given reader, then `bad`, then one more.
fn with_bad_line(numeric: bool, lines: usize, bad: &[u8]) -> Vec<u8> {
    let mut input = Vec::new();
    for i in 0..lines {
        let line = if numeric {
            format!("e{i}\tage\t{i}.5\n")
        } else {
            format!("e{i}\tknows\te{}\n", i + 1)
        };
        input.extend_from_slice(line.as_bytes());
    }
    input.extend_from_slice(bad);
    input.extend_from_slice(if numeric {
        b"\nz\tage\t1\n"
    } else {
        b"\nz\tknows\ty\n"
    });
    input
}

property! {
    #![config(cases = 256)]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(0u8..=255, 0..512)) {
        let _ = TsvLoader::new().load_triples(&bytes[..]);
        let _ = TsvLoader::new().load_numerics(&bytes[..]);
    }

    #[test]
    fn tsv_like_bytes_never_panic(picks in vec(0usize..TSVISH.len(), 0..512)) {
        let bytes: Vec<u8> = picks.iter().map(|&i| TSVISH[i]).collect();
        let _ = TsvLoader::new().load_triples(&bytes[..]);
        let _ = TsvLoader::new().load_numerics(&bytes[..]);
    }

    #[test]
    fn written_graphs_load_back_fact_for_fact(
        names in vec(vec(0usize..NAME_CHARS.len(), 0..6), 1..10),
        relations in 1usize..4,
        attributes in 1usize..4,
        edges in vec((0usize..64, 0usize..64, 0usize..64), 0..24),
        values in vec((0usize..64, 0usize..64, 0u64..u64::MAX), 0..24),
    ) {
        let mut g = KnowledgeGraph::new();
        let entities: Vec<_> = names
            .iter()
            .enumerate()
            .map(|(i, w)| g.add_entity(name('e', i, w)))
            .collect();
        let rels: Vec<_> = (0..relations)
            .map(|i| g.add_relation_type(name('r', i, &[i % NAME_CHARS.len()])))
            .collect();
        let attrs: Vec<_> = (0..attributes)
            .map(|i| g.add_attribute_type(name('a', i, &[4, i % NAME_CHARS.len()])))
            .collect();
        for &(h, r, t) in &edges {
            g.add_triple(
                entities[h % entities.len()],
                rels[r % rels.len()],
                entities[t % entities.len()],
            );
        }
        for &(e, a, bits) in &values {
            // Every finite value, subnormals and -0.0 included.
            let v = f64::from_bits(bits);
            let v = if v.is_finite() { v } else { bits as f64 };
            g.add_numeric(entities[e % entities.len()], attrs[a % attrs.len()], v);
        }
        g.build_index();
        let (mut triples, mut numerics) = (Vec::new(), Vec::new());
        write_triples(&g, &mut triples).map_err(|e| CaseError::fail(e.to_string()))?;
        write_numerics(&g, &mut numerics).map_err(|e| CaseError::fail(e.to_string()))?;
        let back = load(&triples, &numerics).map_err(|e| CaseError::fail(e.to_string()))?;
        check_assert_eq!(facts(&back), facts(&g));
    }

    /// A line past the cap fails at its own line number, whichever reader
    /// reads it and however many good lines precede it.
    #[test]
    fn overlong_lines_are_malformed_at_their_line(
        numeric in 0u8..2,
        lines in 0usize..5,
        extra in 1usize..64,
    ) {
        let mut bad = b"e\tknows\t".to_vec();
        bad.resize(MAX_LINE_BYTES + extra, b'x');
        let input = with_bad_line(numeric == 1, lines, &bad);
        let mut loader = TsvLoader::new();
        let got = if numeric == 1 {
            loader.load_numerics(&input[..])
        } else {
            loader.load_triples(&input[..])
        };
        match got {
            Err(LoadError::Malformed(line, msg)) => {
                check_assert_eq!(line, lines + 1);
                check_assert!(msg.contains("line exceeds"), "{msg}");
            }
            other => return Err(CaseError::fail(format!("expected Malformed, got {other:?}"))),
        }
    }

    /// A token past the cap, in any of a line's three fields, fails at its
    /// line number even when the line itself is within its cap.
    #[test]
    fn overlong_tokens_are_malformed_at_their_line(
        numeric in 0u8..2,
        lines in 0usize..5,
        field in 0usize..3,
        extra in 1usize..64,
    ) {
        let mut fields = if numeric == 1 {
            vec!["e".to_string(), "age".into(), "1.5".into()]
        } else {
            vec!["e".to_string(), "knows".into(), "f".into()]
        };
        fields[field] = "9".repeat(MAX_TOKEN_BYTES + extra);
        let input = with_bad_line(numeric == 1, lines, fields.join("\t").as_bytes());
        let mut loader = TsvLoader::new();
        let got = if numeric == 1 {
            loader.load_numerics(&input[..])
        } else {
            loader.load_triples(&input[..])
        };
        match got {
            Err(LoadError::Malformed(line, msg)) => {
                check_assert_eq!(line, lines + 1);
                check_assert!(msg.contains("token exceeds"), "{msg}");
            }
            other => return Err(CaseError::fail(format!("expected Malformed, got {other:?}"))),
        }
    }
}
