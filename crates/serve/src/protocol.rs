//! The line-delimited JSON wire protocol, hand-rolled (the workspace has no
//! serde — see DESIGN.md "Offline substrate").
//!
//! Requests, one JSON object per line:
//! ```text
//! {"entity": "person_0", "attr": "birth", "id": 7, "deadline_ms": 250}
//! ```
//! `id` and `deadline_ms` are optional. Responses mirror the id:
//! ```text
//! {"id":7,"ok":true,"value":1957.3,"fallback":false,"retrieved":12,"chains":5,"micros":842}
//! {"id":7,"ok":false,"error":"overloaded"}
//! ```
//!
//! Two admin commands share the line format. An object with a `"reload"`
//! key asks the server to hot-swap its model parameters from a checkpoint
//! on the server's filesystem:
//! ```text
//! {"reload": "runs/model.ckpt", "id": 3}
//! {"id":3,"ok":true,"reloaded":true}
//! {"id":3,"ok":false,"error":"reload: corrupt checkpoint: …"}
//! ```
//! An object with a `"mutate"` key carries one mutation object or an array
//! of them, applied atomically (journaled before visible):
//! ```text
//! {"mutate": {"op":"upsert","entity":"person_0","attr":"birth","value":1957.0}, "id": 4}
//! {"mutate": [{"op":"add_entity","name":"e9"},{"op":"add_edge","head":"e9","rel":"knows","tail":"person_0"}]}
//! {"id":4,"ok":true,"mutated":true,"applied":1,"changed":1}
//! {"id":4,"ok":false,"error":"field \"mutate.value\" must be a finite number"}
//! ```

use cf_kg::Mutation;
use std::collections::HashMap;

/// A parsed JSON value (only what the protocol needs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as f64.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(HashMap<String, Json>),
}

/// A parsed prediction request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Entity name to answer for.
    pub entity: String,
    /// Attribute name to predict.
    pub attr: String,
    /// Client-chosen correlation id, echoed back verbatim.
    pub id: Option<u64>,
    /// Per-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// One parsed protocol line: a prediction request or an admin command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// An ordinary prediction request.
    Predict(Request),
    /// Hot-reload the serving model's parameters from a checkpoint file
    /// (path as seen by the server process).
    Reload {
        /// Checkpoint path on the server's filesystem.
        ckpt: String,
        /// Correlation id, echoed back.
        id: Option<u64>,
    },
    /// Apply a batch of live-graph mutations atomically.
    Mutate {
        /// The mutations, request order.
        muts: Vec<Mutation>,
        /// Correlation id, echoed back.
        id: Option<u64>,
    },
}

/// Parses one line into a [`Command`]. An object carrying a `"reload"` key
/// is the admin reload request; everything else must be a prediction
/// request. Errors are human-readable — the server turns them into
/// structured `ok:false` responses.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let obj = parse_object(line)?;
    if let Some(r) = obj.get("reload") {
        let Json::Str(ckpt) = r else {
            return Err("field \"reload\" must be a string path".into());
        };
        return Ok(Command::Reload {
            ckpt: ckpt.clone(),
            id: field_u64(&obj, "id")?,
        });
    }
    if let Some(m) = obj.get("mutate") {
        let id = field_u64(&obj, "id")?;
        let muts = parse_mutations(m)?;
        return Ok(Command::Mutate { muts, id });
    }
    request_of(obj).map(Command::Predict)
}

/// Parses a line that must hold one JSON object.
fn parse_object(line: &str) -> Result<HashMap<String, Json>, String> {
    match parse_json(line)? {
        Json::Obj(obj) => Ok(obj),
        _ => Err("request must be a JSON object".into()),
    }
}

/// An optional non-negative integer field: absent or `null` is `None`.
fn field_u64(obj: &HashMap<String, Json>, k: &str) -> Result<Option<u64>, String> {
    match obj.get(k) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
        Some(_) => Err(format!("field {k:?} must be a non-negative integer")),
    }
}

/// The prediction request a parsed line's object holds.
fn request_of(mut obj: HashMap<String, Json>) -> Result<Request, String> {
    let mut field_str = |k: &str| -> Result<String, String> {
        match obj.remove(k) {
            Some(Json::Str(s)) => Ok(s),
            Some(_) => Err(format!("field {k:?} must be a string")),
            None => Err(format!("missing field {k:?}")),
        }
    };
    let entity = field_str("entity")?;
    let attr = field_str("attr")?;
    Ok(Request {
        entity,
        attr,
        id: field_u64(&obj, "id")?,
        deadline_ms: field_u64(&obj, "deadline_ms")?,
    })
}

/// Parses the body of a `"mutate"` key: one mutation object or an array of
/// them. Every error names the exact field (`mutate.value`,
/// `mutate[2].head`, …) — admin requests fail with a typed per-field line,
/// never a generic parse failure.
fn parse_mutations(v: &Json) -> Result<Vec<Mutation>, String> {
    match v {
        Json::Obj(_) => Ok(vec![parse_mutation(v, "mutate")?]),
        Json::Arr(items) => {
            if items.is_empty() {
                return Err("field \"mutate\" must not be an empty array".into());
            }
            items
                .iter()
                .enumerate()
                .map(|(i, m)| parse_mutation(m, &format!("mutate[{i}]")))
                .collect()
        }
        _ => Err("field \"mutate\" must be a mutation object or an array of them".into()),
    }
}

fn parse_mutation(v: &Json, path: &str) -> Result<Mutation, String> {
    let Json::Obj(obj) = v else {
        return Err(format!("field \"{path}\" must be a mutation object"));
    };
    let field_str = |k: &str| -> Result<String, String> {
        match obj.get(k) {
            Some(Json::Str(s)) => Ok(s.clone()),
            Some(_) => Err(format!("field \"{path}.{k}\" must be a string")),
            None => Err(format!("missing field \"{path}.{k}\"")),
        }
    };
    let op = field_str("op")?;
    match op.as_str() {
        "upsert" => {
            let entity = field_str("entity")?;
            let attr = field_str("attr")?;
            let value = match obj.get("value") {
                Some(Json::Num(n)) => *n,
                Some(_) => return Err(format!("field \"{path}.value\" must be a finite number")),
                None => return Err(format!("missing field \"{path}.value\"")),
            };
            Ok(Mutation::UpsertNumeric {
                entity,
                attr,
                value,
            })
        }
        "add_entity" => Ok(Mutation::AddEntity {
            name: field_str("name")?,
        }),
        "add_edge" => Ok(Mutation::AddEdge {
            head: field_str("head")?,
            rel: field_str("rel")?,
            tail: field_str("tail")?,
        }),
        other => Err(format!(
            "field \"{path}.op\" must be \"upsert\", \"add_entity\" or \"add_edge\", got {other:?}"
        )),
    }
}

/// Serializes the success response to a reload command.
pub fn reload_ok_response(id: Option<u64>) -> String {
    format!("{{\"id\":{},\"ok\":true,\"reloaded\":true}}", id_json(id))
}

/// Serializes the success response to a mutate command: how many mutations
/// the batch carried and how many actually changed the graph. (Both are
/// pure functions of the request stream, so response bytes stay
/// reproducible across runs and shard counts.)
pub fn mutate_ok_response(id: Option<u64>, applied: usize, changed: usize) -> String {
    format!(
        "{{\"id\":{},\"ok\":true,\"mutated\":true,\"applied\":{applied},\"changed\":{changed}}}",
        id_json(id)
    )
}

/// Serializes a success response.
pub fn ok_response(
    id: Option<u64>,
    value: f64,
    fallback: bool,
    retrieved: usize,
    chains: usize,
    micros: u64,
) -> String {
    format!(
        "{{\"id\":{},\"ok\":true,\"value\":{},\"fallback\":{},\"retrieved\":{},\"chains\":{},\"micros\":{}}}",
        id_json(id),
        fmt_f64(value),
        fallback,
        retrieved,
        chains,
        micros
    )
}

/// Serializes a failure response (`error` is escaped).
pub fn err_response(id: Option<u64>, error: &str) -> String {
    format!(
        "{{\"id\":{},\"ok\":false,\"error\":\"{}\"}}",
        id_json(id),
        escape(error)
    )
}

fn id_json(id: Option<u64>) -> String {
    match id {
        Some(i) => i.to_string(),
        None => "null".into(),
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers are valid JSON numbers, but keep the float-ness
        // explicit so clients parse a stable type.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".into()
    }
}

/// Escapes `s` for the body of a JSON string literal: `"` and `\`, the
/// short forms `\n`, `\r` and `\t`, and `\u00XX` for the other control
/// characters. Error responses and load-generator request lines
/// both render names through it.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// The deepest nesting of arrays and objects [`parse_json`] accepts. The
/// parser recurses once per level, so without a limit one request line of
/// open brackets would overflow the connection thread's stack and abort the
/// whole server.
pub const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document (trailing non-whitespace is an error).
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            // Surrogate pairs are out of scope for entity
                            // names; map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape in one
                    // piece. Both are ASCII, so the run ends on a character
                    // boundary of the (valid UTF-8) input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8 in string")?;
                    out.push_str(run);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = HashMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line that must parse as a prediction request.
    fn predict_request(line: &str) -> Request {
        match parse_command(line) {
            Ok(Command::Predict(r)) => r,
            other => panic!("{line:?} parsed as {other:?}"),
        }
    }

    #[test]
    fn parses_full_request() {
        let r = predict_request(
            r#"{"entity": "person_0", "attr": "birth", "id": 3, "deadline_ms": 250}"#,
        );
        assert_eq!(r.entity, "person_0");
        assert_eq!(r.attr, "birth");
        assert_eq!(r.id, Some(3));
        assert_eq!(r.deadline_ms, Some(250));
    }

    #[test]
    fn optional_fields_default_to_none() {
        let r = predict_request(r#"{"entity":"e","attr":"a"}"#);
        assert_eq!(r.id, None);
        assert_eq!(r.deadline_ms, None);
    }

    #[test]
    fn malformed_requests_give_errors_not_panics() {
        for bad in [
            "",
            "not json",
            "{",
            "[1,2]",
            r#"{"entity": 5, "attr": "a"}"#,
            r#"{"attr": "a"}"#,
            r#"{"entity":"e","attr":"a","id":-1}"#,
            r#"{"entity":"e","attr":"a"} extra"#,
            r#"{"entity":"e","attr":"a","deadline_ms":1.5}"#,
        ] {
            assert!(parse_command(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn reload_command_parses_and_responds() {
        let c = parse_command(r#"{"reload": "runs/model.ckpt", "id": 3}"#).unwrap();
        assert_eq!(
            c,
            Command::Reload {
                ckpt: "runs/model.ckpt".into(),
                id: Some(3)
            }
        );
        let c = parse_command(r#"{"reload":"m.ckpt"}"#).unwrap();
        assert!(matches!(c, Command::Reload { id: None, .. }));
        // A prediction line still parses as Predict through the same entry.
        let c = parse_command(r#"{"entity":"e","attr":"a"}"#).unwrap();
        assert!(matches!(c, Command::Predict(_)));
        // Malformed admin lines are errors, not silent predictions.
        assert!(parse_command(r#"{"reload": 5}"#).is_err());
        assert!(parse_command(r#"{"reload":"m.ckpt","id":-1}"#).is_err());

        let ok = reload_ok_response(Some(3));
        let Json::Obj(o) = parse_json(&ok).unwrap() else {
            panic!("not an object")
        };
        assert_eq!(o["ok"], Json::Bool(true));
        assert_eq!(o["reloaded"], Json::Bool(true));
        assert_eq!(o["id"], Json::Num(3.0));
    }

    #[test]
    fn mutate_command_parses_single_and_batch() {
        let c = parse_command(
            r#"{"mutate": {"op":"upsert","entity":"e0","attr":"birth","value":1957.5}, "id": 4}"#,
        )
        .unwrap();
        assert_eq!(
            c,
            Command::Mutate {
                muts: vec![Mutation::UpsertNumeric {
                    entity: "e0".into(),
                    attr: "birth".into(),
                    value: 1957.5
                }],
                id: Some(4)
            }
        );
        let c = parse_command(
            r#"{"mutate": [{"op":"add_entity","name":"e9"},{"op":"add_edge","head":"e9","rel":"knows","tail":"e0"}]}"#,
        )
        .unwrap();
        let Command::Mutate { muts, id } = c else {
            panic!("not a mutate");
        };
        assert_eq!(id, None);
        assert_eq!(muts.len(), 2);
        assert_eq!(muts[0], Mutation::AddEntity { name: "e9".into() });

        let ok = mutate_ok_response(Some(4), 2, 1);
        let Json::Obj(o) = parse_json(&ok).unwrap() else {
            panic!("not an object")
        };
        assert_eq!(o["ok"], Json::Bool(true));
        assert_eq!(o["mutated"], Json::Bool(true));
        assert_eq!(o["applied"], Json::Num(2.0));
        assert_eq!(o["changed"], Json::Num(1.0));
    }

    #[test]
    fn malformed_mutate_bodies_name_the_failing_field() {
        for (line, needle) in [
            (r#"{"mutate": 5}"#, "field \"mutate\" must be"),
            (r#"{"mutate": []}"#, "empty array"),
            (
                r#"{"mutate": {"entity":"e"}}"#,
                "missing field \"mutate.op\"",
            ),
            (
                r#"{"mutate": {"op":"frobnicate"}}"#,
                "field \"mutate.op\" must be",
            ),
            (
                r#"{"mutate": {"op":"upsert","entity":"e","attr":"a"}}"#,
                "missing field \"mutate.value\"",
            ),
            (
                r#"{"mutate": {"op":"upsert","entity":"e","attr":"a","value":"x"}}"#,
                "field \"mutate.value\" must be a finite number",
            ),
            (
                r#"{"mutate": [{"op":"add_edge","head":"h","rel":"r"}]}"#,
                "missing field \"mutate[0].tail\"",
            ),
            (
                r#"{"mutate": [{"op":"add_entity","name":"x"},{"op":"add_entity","name":5}]}"#,
                "field \"mutate[1].name\" must be a string",
            ),
            (
                r#"{"mutate": {"op":"add_entity","name":"x"}, "id": -1}"#,
                "field \"id\" must be a non-negative integer",
            ),
        ] {
            let err = parse_command(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err:?} missing {needle:?}");
        }
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        // One line of half a million open brackets used to abort the server.
        for open in ["[", "{\"k\":"] {
            let line = open.repeat(500_000);
            assert!(parse_json(&line).is_err());
            assert!(parse_command(&line).is_err());
        }
    }

    #[test]
    fn line_sized_strings_parse_in_one_pass() {
        // Each character used to re-validate the rest of the input, which
        // took minutes for a string the size of the line cap.
        let half = "é".repeat(1 << 18);
        let v = parse_json(&format!("\"{half}\\n{half}\"")).unwrap();
        assert_eq!(v, Json::Str(format!("{half}\n{half}")));
    }

    #[test]
    fn string_escapes_decode() {
        let v = parse_json(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v, Json::Str("a\"b\\c\ndA".into()));
    }

    #[test]
    fn responses_are_reparseable() {
        let ok = ok_response(Some(9), 1957.25, false, 12, 5, 840);
        let Json::Obj(o) = parse_json(&ok).unwrap() else {
            panic!("not an object")
        };
        assert_eq!(o["ok"], Json::Bool(true));
        assert_eq!(o["value"], Json::Num(1957.25));
        assert_eq!(o["id"], Json::Num(9.0));

        let err = err_response(None, "bad \"quote\"\nline");
        let Json::Obj(o) = parse_json(&err).unwrap() else {
            panic!("not an object")
        };
        assert_eq!(o["ok"], Json::Bool(false));
        assert_eq!(o["id"], Json::Null);
        assert_eq!(o["error"], Json::Str("bad \"quote\"\nline".into()));
    }

    #[test]
    fn whole_valued_floats_stay_json_numbers() {
        let ok = ok_response(None, 1930.0, true, 0, 0, 1);
        assert!(ok.contains("\"value\":1930.0"), "{ok}");
        let Json::Obj(o) = parse_json(&ok).unwrap() else {
            panic!("not an object")
        };
        assert_eq!(o["value"], Json::Num(1930.0));
    }

    #[test]
    fn nested_json_values_parse() {
        let v = parse_json(r#"{"a":[1,true,null,{"b":"c"}],"d":-2.5e2}"#).unwrap();
        let Json::Obj(o) = v else { panic!() };
        assert_eq!(o["d"], Json::Num(-250.0));
        let Json::Arr(a) = &o["a"] else { panic!() };
        assert_eq!(a.len(), 4);
    }
}
