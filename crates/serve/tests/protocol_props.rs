//! Robustness of the wire protocol against untrusted input: arbitrary bytes
//! and deep nesting never panic or abort the parser, and the requests and
//! error lines the protocol carries survive a render → parse round trip.

use cf_check::prelude::*;
use cf_serve::protocol::{
    err_response, parse_command, parse_json, Command, Json, Request, MAX_DEPTH,
};

/// Bytes that steer generated input toward JSON structure, so cases get past
/// the first byte and into strings, escapes, numbers and nesting.
const JSONISH: &[u8] = b"{}[]\":,\\ -0123456789.eE+truefalsnu\n\t\x00\xc3\xa9\xff";

/// What a generated name is made of: plain ASCII, the characters a renderer
/// must escape, and multi-byte UTF-8.
const NAME_CHARS: &[char] = &[
    'a', 'Z', '0', '_', ' ', '/', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', 'é', '中', '🦀',
];

fn name(picks: &[usize]) -> String {
    picks.iter().map(|&i| NAME_CHARS[i]).collect()
}

/// Renders `s` as a JSON string literal, as a client would.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

property! {
    #![config(cases = 256)]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(0u8..=255, 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_json(&text);
        let _ = parse_command(&text);
    }

    #[test]
    fn json_like_bytes_never_panic(picks in vec(0usize..JSONISH.len(), 0..512)) {
        let bytes: Vec<u8> = picks.iter().map(|&i| JSONISH[i]).collect();
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_json(&text);
        let _ = parse_command(&text);
    }

    /// Nesting past the limit is an error, never a stack overflow, whether
    /// or not the brackets close; within the limit a closed document parses.
    #[test]
    fn deep_nesting_is_an_error_not_an_abort(
        levels in 0usize..2 * MAX_DEPTH,
        scale in 0u8..2,
        object in 0u8..2,
        closed in 0u8..2,
    ) {
        // Half the cases reach half a million levels.
        let depth = if scale == 1 { levels * 4096 } else { levels };
        let (open, close) = if object == 1 { ("{\"k\":", "}") } else { ("[", "]") };
        let mut text = open.repeat(depth);
        text.push('1');
        if closed == 1 {
            text.push_str(&close.repeat(depth));
        }
        let parses = depth <= MAX_DEPTH && (closed == 1 || depth == 0);
        check_assert!(parse_json(&text).is_ok() == parses, "depth {depth}, closed {closed}");
        check_assert!(parse_command(&text).is_err());
    }

    #[test]
    fn rendered_requests_parse_back(
        entity in vec(0usize..NAME_CHARS.len(), 0..12),
        attr in vec(0usize..NAME_CHARS.len(), 0..12),
        id in 0u64..(1 << 53),
        has_id in 0u8..2,
        deadline_ms in 0u64..100_000,
        has_deadline in 0u8..2,
    ) {
        let req = Request {
            entity: name(&entity),
            attr: name(&attr),
            id: (has_id == 1).then_some(id),
            deadline_ms: (has_deadline == 1).then_some(deadline_ms),
        };
        let mut line = format!(
            "{{\"entity\":{},\"attr\":{}",
            json_string(&req.entity),
            json_string(&req.attr)
        );
        if let Some(id) = req.id {
            line.push_str(&format!(",\"id\":{id}"));
        }
        if let Some(ms) = req.deadline_ms {
            line.push_str(&format!(", \"deadline_ms\": {ms}"));
        }
        line.push('}');
        check_assert_eq!(parse_command(&line), Ok(Command::Predict(req)));
    }

    #[test]
    fn error_lines_parse_back(msg in vec(0usize..NAME_CHARS.len(), 0..24), id in 0u64..1000) {
        let msg = name(&msg);
        let parsed = parse_json(&err_response(Some(id), &msg));
        let Ok(Json::Obj(o)) = &parsed else {
            return Err(CaseError::fail(format!("unparseable error line: {parsed:?}")));
        };
        check_assert_eq!(o.get("error"), Some(&Json::Str(msg)));
        check_assert_eq!(o.get("id"), Some(&Json::Num(id as f64)));
    }
}
