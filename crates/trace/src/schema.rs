//! A small schema checker for Chrome trace-event JSON.
//!
//! The workspace writes all its JSON by hand, so it validates it the same
//! way: a minimal recursive-descent JSON parser (values only, no
//! serde-style binding) plus the structural rules a trace viewer relies
//! on — `traceEvents` array, known `ph` types, numeric `pid`/`tid`/`ts`,
//! named begin/instant/counter events, and begin/end balance per thread.
//! `solve --trace` self-checks its output through this module and the CI
//! `trace` leg re-checks the artifact with the `tracecheck` binary.

use std::collections::BTreeSet;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys kept).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn is_num(&self) -> bool {
        matches!(self, Json::Num(_))
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.i)
    }

    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).map_err(|_| self.err("bad utf8"))?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number {s:?}")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.b[self.i..].starts_with(b"\\u") {
                                    self.i += 2;
                                    let lo = self.hex4()?;
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(ch.ok_or_else(|| self.err("bad \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                c if c < 0x20 => return Err(self.err("raw control char in string")),
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: copy the sequence through.
                    let start = self.i - 1;
                    while self.peek().is_some_and(|b| b & 0xC0 == 0x80) {
                        self.i += 1;
                    }
                    let s = std::str::from_utf8(&self.b[start..self.i])
                        .map_err(|_| self.err("bad utf8 in string"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.i + 4 > self.b.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.b[self.i..self.i + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.i += 4;
        Ok(v)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document (rejecting trailing garbage).
///
/// # Errors
///
/// A human-readable message with the failing byte offset.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: src.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

/// What [`check_chrome_trace`] learned about a valid trace.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Distinct duration-span names (`B`/`X` events).
    pub span_names: BTreeSet<String>,
    /// Distinct counter-track names (`C` events).
    pub counter_tracks: BTreeSet<String>,
    /// Distinct `(pid, tid)` pairs seen.
    pub threads: usize,
}

const PHASES: [&str; 6] = ["B", "E", "X", "i", "C", "M"];

/// Validates Chrome trace-event JSON and summarizes its contents.
///
/// # Errors
///
/// The first structural violation, with the offending event index.
pub fn check_chrome_trace(src: &str) -> Result<TraceSummary, String> {
    let doc = parse(src)?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("top-level object must carry a \"traceEvents\" array".to_owned());
    };
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    let mut threads: BTreeSet<(u64, u64)> = BTreeSet::new();
    // Begin/end nesting depth per (pid, tid).
    let mut depth: std::collections::BTreeMap<(u64, u64), i64> = Default::default();
    for (i, ev) in events.iter().enumerate() {
        let fail = |msg: &str| Err(format!("event {i}: {msg}"));
        if !matches!(ev, Json::Obj(_)) {
            return fail("not an object");
        }
        let Some(ph) = ev.get("ph").and_then(Json::as_str) else {
            return fail("missing \"ph\"");
        };
        if !PHASES.contains(&ph) {
            return fail(&format!("unknown phase type {ph:?}"));
        }
        let num = |key: &str| -> Result<u64, String> {
            match ev.get(key) {
                Some(Json::Num(n)) if *n >= 0.0 => Ok(*n as u64),
                Some(Json::Num(_)) => Err(format!("event {i}: negative \"{key}\"")),
                _ => Err(format!("event {i}: missing numeric \"{key}\"")),
            }
        };
        let pid = num("pid")?;
        let tid = num("tid")?;
        threads.insert((pid, tid));
        if ph != "M" {
            num("ts")?;
        }
        let name = ev.get("name").and_then(Json::as_str);
        if name.is_none() && ph != "E" {
            return fail("missing \"name\"");
        }
        match ph {
            "B" => {
                summary.span_names.insert(name.unwrap().to_owned());
                *depth.entry((pid, tid)).or_default() += 1;
            }
            "E" => {
                let d = depth.entry((pid, tid)).or_default();
                *d -= 1;
                if *d < 0 {
                    return fail("end without a matching begin on its thread");
                }
            }
            "X" => {
                num("dur")?;
                summary.span_names.insert(name.unwrap().to_owned());
            }
            "C" => {
                summary.counter_tracks.insert(name.unwrap().to_owned());
                match ev.get("args") {
                    Some(Json::Obj(members)) if !members.is_empty() => {
                        if members.iter().any(|(_, v)| !v.is_num()) {
                            return fail("counter args must be numeric");
                        }
                    }
                    _ => return fail("counter needs a non-empty \"args\" object"),
                }
            }
            "i" | "M" => {}
            _ => unreachable!(),
        }
    }
    if let Some(((pid, tid), d)) = depth.iter().find(|(_, d)| **d != 0) {
        return Err(format!(
            "thread ({pid},{tid}) ends with unbalanced span depth {d}"
        ));
    }
    summary.threads = threads.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects_and_escapes() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(
            parse(" [1, 2.5, -3e2] ").unwrap(),
            Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        let obj = parse(r#"{"a": "x\n\"y\"", "b": true}"#).unwrap();
        assert_eq!(obj.get("a").unwrap(), &Json::Str("x\n\"y\"".to_owned()));
        assert_eq!(parse(r#""é😀""#).unwrap(), Json::Str("é😀".to_owned()));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn accepts_a_minimal_trace_and_reports_contents() {
        let src = r#"{"traceEvents":[
            {"ph":"B","name":"generate","pid":1,"tid":0,"ts":0.0},
            {"ph":"i","name":"frontier_pop","s":"t","pid":1,"tid":0,"ts":1.0},
            {"ph":"C","name":"search-stats","pid":1,"tid":0,"ts":2.0,"args":{"popped":3}},
            {"ph":"E","pid":1,"tid":0,"ts":5.0}
        ]}"#;
        let s = check_chrome_trace(src).unwrap();
        assert_eq!(s.events, 4);
        assert!(s.span_names.contains("generate"));
        assert!(s.counter_tracks.contains("search-stats"));
        assert_eq!(s.threads, 1);
    }

    #[test]
    fn rejects_unbalanced_and_untyped_events() {
        let unbalanced = r#"{"traceEvents":[{"ph":"E","pid":1,"tid":0,"ts":1.0}]}"#;
        assert!(check_chrome_trace(unbalanced)
            .unwrap_err()
            .contains("without a matching begin"));
        let open = r#"{"traceEvents":[{"ph":"B","name":"x","pid":1,"tid":0,"ts":1.0}]}"#;
        assert!(check_chrome_trace(open).unwrap_err().contains("unbalanced"));
        let bad_ph = r#"{"traceEvents":[{"ph":"Z","name":"x","pid":1,"tid":0,"ts":1.0}]}"#;
        assert!(check_chrome_trace(bad_ph).is_err());
        let bad_counter =
            r#"{"traceEvents":[{"ph":"C","name":"c","pid":1,"tid":0,"ts":1.0,"args":{}}]}"#;
        assert!(check_chrome_trace(bad_counter).is_err());
    }
}
