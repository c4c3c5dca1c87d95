//! The `relgraph serve` wire format: one JSON object per line.
//!
//! Requests:
//!
//! ```text
//! {"id": 7, "entity": 1042}        // integer primary key
//! {"id": 8, "entity": "C-1042"}    // text primary key
//! ```
//!
//! Responses (one per request, in completion order):
//!
//! ```text
//! {"id": 7, "prediction": 0.8315}
//! {"id": 8, "error": "unknown entity `C-1042`"}
//! ```
//!
//! A line that cannot be parsed still produces a response so response
//! count always equals request count; the error message echoes the
//! (truncated) offending line, and [`recover_id`] makes a best-effort
//! scan for an `"id"` even in malformed input so the client can correlate
//! the error (`"id": null` only when no id is recoverable). A line that
//! is not valid UTF-8 gets the error [`NOT_UTF8`] with `"id": null`, and
//! the stream keeps serving. The parser is
//! a small hand-rolled flat-object scanner — the protocol needs no
//! nesting and the build environment has no JSON dependency.

use relgraph_store::Value;

/// The error message both front-ends answer a non-UTF-8 request line with.
pub const NOT_UTF8: &str = "request line is not valid UTF-8";

/// One parsed prediction request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Primary-key value of the entity to score.
    pub entity: Value,
}

/// Parse one request line. Unknown keys are rejected (they are always a
/// client bug at this protocol size). Errors echo the offending line
/// (truncated) so a client staring at a multiplexed log can find the
/// request that broke.
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_request_inner(line).map_err(|e| format!("{e} in `{}`", line_snippet(line)))
}

fn parse_request_inner(line: &str) -> Result<Request, String> {
    let mut p = Parser::new(line);
    p.expect('{')?;
    let mut id: Option<u64> = None;
    let mut entity: Option<Value> = None;
    if !p.peek_is('}') {
        loop {
            let key = p.string()?;
            p.expect(':')?;
            match key.as_str() {
                "id" => {
                    let n = p.number()?;
                    if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
                        return Err(format!("`id` must be a non-negative integer, got {n}"));
                    }
                    id = Some(n as u64);
                }
                "entity" => entity = Some(p.value()?),
                other => return Err(format!("unknown key `{other}`")),
            }
            if p.peek_is(',') {
                p.expect(',')?;
            } else {
                break;
            }
        }
    }
    p.expect('}')?;
    p.end()?;
    match (id, entity) {
        (Some(id), Some(entity)) => Ok(Request { id, entity }),
        (None, _) => Err("missing `id`".to_string()),
        (_, None) => Err("missing `entity`".to_string()),
    }
}

/// Successful response line (no trailing newline).
pub fn response_ok(id: u64, prediction: f64) -> String {
    format!("{{\"id\": {id}, \"prediction\": {prediction}}}")
}

/// Error response line; `id` is `null` when the request line itself was
/// unparseable.
pub fn response_err(id: Option<u64>, message: &str) -> String {
    let id = match id {
        Some(id) => id.to_string(),
        None => "null".to_string(),
    };
    format!("{{\"id\": {id}, \"error\": \"{}\"}}", escape_json(message))
}

/// Best-effort id recovery from a line [`parse_request`] rejected: scan
/// for a `"id"` key followed by a non-negative integer, ignoring every
/// other malformation. Lets error responses carry the caller's
/// correlation id instead of `null` whenever one is legible at all.
pub fn recover_id(line: &str) -> Option<u64> {
    let bytes = line.as_bytes();
    let needle = b"\"id\"";
    let mut i = 0usize;
    while i + needle.len() <= bytes.len() {
        if &bytes[i..i + needle.len()] != needle {
            i += 1;
            continue;
        }
        let mut j = i + needle.len();
        while bytes.get(j).is_some_and(|b| b.is_ascii_whitespace()) {
            j += 1;
        }
        if bytes.get(j) == Some(&b':') {
            j += 1;
            while bytes.get(j).is_some_and(|b| b.is_ascii_whitespace()) {
                j += 1;
            }
            let start = j;
            while bytes.get(j).is_some_and(|b| b.is_ascii_digit()) {
                j += 1;
            }
            // A digit run followed by more number syntax (`1.5`, `2e3`)
            // is not a clean integer id — keep scanning.
            let clean = j > start
                && !bytes
                    .get(j)
                    .is_some_and(|b| matches!(b, b'.' | b'e' | b'E' | b'0'..=b'9'));
            if clean {
                if let Ok(n) = std::str::from_utf8(&bytes[start..j])
                    .unwrap()
                    .parse::<u64>()
                {
                    return Some(n);
                }
            }
        }
        i += 1;
    }
    None
}

/// At most this many characters of a rejected line are echoed back.
const SNIPPET_CHARS: usize = 60;

/// The offending line, shortened for an error message: control characters
/// made visible by `escape_json` later, length capped at
/// [`SNIPPET_CHARS`] characters with a `…` marker.
fn line_snippet(line: &str) -> String {
    let mut out = String::new();
    for (taken, c) in line.chars().enumerate() {
        if taken == SNIPPET_CHARS {
            out.push('…');
            return out;
        }
        out.push(c);
    }
    out
}

/// Minimal JSON string escaping for response payloads.
fn escape_json(s: &str) -> String {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek_is(&mut self, c: char) -> bool {
        self.skip_ws();
        self.bytes.get(self.pos) == Some(&(c as u8))
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&(c as u8)) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{c}` at byte {}", self.pos))
        }
    }

    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        other => return Err(format!("unsupported escape `\\{other:?}`")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input came from &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map_err(|_| format!("invalid number at byte {start}"))
    }

    /// A request value: string → `Value::Text`, integer → `Value::Int`,
    /// anything else (floats, bools, null, nesting) is rejected — primary
    /// keys are ints or text in this store.
    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'"') => Ok(Value::Text(self.string()?)),
            Some(b) if b.is_ascii_digit() || *b == b'-' => {
                let n = self.number()?;
                if n.fract() != 0.0 || n.abs() > i64::MAX as f64 {
                    return Err(format!("`entity` must be an integer or string, got {n}"));
                }
                Ok(Value::Int(n as i64))
            }
            _ => Err(format!(
                "`entity` must be an integer or string (byte {})",
                self.pos
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_integer_and_text_entities() {
        assert_eq!(
            parse_request(r#"{"id": 7, "entity": 1042}"#).unwrap(),
            Request {
                id: 7,
                entity: Value::Int(1042)
            }
        );
        assert_eq!(
            parse_request(r#"  {"entity":"C-\"10\\42\"" , "id":0}  "#).unwrap(),
            Request {
                id: 0,
                entity: Value::Text("C-\"10\\42\"".to_string())
            }
        );
    }

    #[test]
    fn malformed_lines_are_structured_errors() {
        for bad in [
            "",
            "{",
            "{}",
            r#"{"id": 1}"#,
            r#"{"entity": 3}"#,
            r#"{"id": -1, "entity": 3}"#,
            r#"{"id": 1.5, "entity": 3}"#,
            r#"{"id": 1, "entity": 3.25}"#,
            r#"{"id": 1, "entity": null}"#,
            r#"{"id": 1, "entity": 3} trailing"#,
            r#"{"id": 1, "entity": 3, "extra": true}"#,
            r#"["id", 1]"#,
        ] {
            assert!(parse_request(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn parse_errors_echo_the_offending_line_truncated() {
        let err = parse_request(r#"{"id": 1, "entity": 3} trailing"#).unwrap_err();
        assert!(
            err.contains(r#"in `{"id": 1, "entity": 3} trailing`"#),
            "error should quote the line: {err}"
        );
        let long = format!(r#"{{"id": 1, "entity": "{}"}} trailing"#, "x".repeat(500));
        let err = parse_request(&long).unwrap_err();
        assert!(err.contains('…'), "long lines are truncated: {err}");
        assert!(
            err.len() < 160,
            "echo must stay bounded, got {} bytes",
            err.len()
        );
    }

    /// A corpus of malformed requests: every line must (a) be rejected,
    /// (b) echo itself in the error, and (c) yield exactly the id that a
    /// human could still read off the wreckage.
    #[test]
    fn malformed_corpus_recovers_ids_where_legible() {
        let corpus: &[(&str, Option<u64>)] = &[
            ("", None),
            ("{", None),
            ("{}", None),
            ("garbage", None),
            (r#"{"id": 41"#, Some(41)),
            (r#"{"id": 42, "entity"#, Some(42)),
            (r#"{"id": 43, "entity": }"#, Some(43)),
            (r#"{"id": 44, "entity": 3} trailing"#, Some(44)),
            (r#"{"id": 45, "entity": 3, "extra": 1}"#, Some(45)),
            (r#"{"id": 46, "entity": null}"#, Some(46)),
            (r#"{"entity": 3, "id": 47"#, Some(47)),
            (r#"{"id":48,"id":1,"entity":}"#, Some(48)),
            (r#"{"id": -1, "entity": 3}"#, None),
            (r#"{"id": 1.5, "entity": 3}"#, None),
            (r#"{"id": "7", "entity": 3}"#, None),
            (r#"{"entity": 3}"#, None),
            (r#"["id", 9]"#, None),
            (r#"["id": 9]"#, Some(9)),
        ];
        for &(line, want_id) in corpus {
            let err = parse_request(line).expect_err(line);
            if !line.is_empty() {
                let snippet: String = line.chars().take(20).collect();
                assert!(err.contains(&snippet), "error `{err}` should echo `{line}`");
            }
            assert_eq!(recover_id(line), want_id, "id recovery for `{line}`");
            // The pipeline a front-end runs on a bad line must always
            // produce one well-formed error response.
            let resp = response_err(recover_id(line), &err);
            assert!(resp.starts_with("{\"id\": "), "bad response: {resp}");
        }
    }

    #[test]
    fn recover_id_agrees_with_the_parser_on_valid_lines() {
        for line in [
            r#"{"id": 7, "entity": 1042}"#,
            r#"{"entity":"C-1","id":99}"#,
            r#"{"id": 0, "entity": "x"}"#,
        ] {
            let parsed = parse_request(line).unwrap();
            assert_eq!(recover_id(line), Some(parsed.id), "on `{line}`");
        }
    }

    #[test]
    fn responses_are_single_line_json() {
        assert_eq!(
            response_ok(7, 0.25),
            r#"{"id": 7, "prediction": 0.25}"#.to_string()
        );
        assert_eq!(
            response_err(Some(3), "boom \"quoted\"\npath\\x"),
            "{\"id\": 3, \"error\": \"boom \\\"quoted\\\"\\npath\\\\x\"}"
        );
        assert!(response_err(None, "bad line").starts_with("{\"id\": null,"));
    }
}
