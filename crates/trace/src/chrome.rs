//! Chrome trace-event JSON export (the "JSON Array Format" with the
//! object envelope), loadable in Perfetto and `chrome://tracing`.
//!
//! One process (`pid` 1), one Chrome thread per [`ThreadTrack`]. Span
//! begin/end pairs become `B`/`E` events, instants become `i` (thread
//! scope), counter samples become `C`. Timestamps are microseconds with
//! nanosecond precision kept in the fractional part. Hand-rolled like
//! every other JSON writer in the workspace — no serializer dependency.

use crate::schema::{parse, Json};
use crate::{Event, EventKind, Phase, ThreadTrack, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` as JSON string *content* (no surrounding quotes).
pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds → microsecond timestamp string (`123.456`).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn meta_event(out: &mut String, name: &str, tid: u64, value: &str) {
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"name\":\"{name}\",\"pid\":1,\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        esc(value)
    );
}

impl Trace {
    /// Renders the trace as Chrome trace-event JSON. `meta` lands in the
    /// envelope's `otherData` (benchmark id, host facts, …). Unbalanced
    /// spans are repaired: a stray close is skipped, a span still open at
    /// the end of its track is closed at the track's last timestamp — the
    /// export never produces an event stream a viewer rejects.
    pub fn to_chrome_json(&self, meta: &[(&str, &str)]) -> String {
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        let _ = write!(out, "\"dropped_events\":\"{}\"", self.dropped);
        for (k, v) in meta {
            let _ = write!(out, ",\"{}\":\"{}\"", esc(k), esc(v));
        }
        out.push_str("},\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, ev: &str| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(ev);
        };
        {
            let mut m = String::new();
            meta_event(&mut m, "process_name", 0, "rbsyn");
            push(&mut out, &m);
        }
        for track in &self.tracks {
            let mut m = String::new();
            meta_event(&mut m, "thread_name", track.tid, &track.name);
            push(&mut out, &m);
            // Name stack: E events echo the matching B's name, and spans
            // left open (a search cut short by a panic-path flush) are
            // closed at the track's final timestamp.
            let mut open: Vec<&str> = Vec::new();
            let last_ts = track.events.last().map_or(0, |e| e.ts);
            for Event { ts, kind } in &track.events {
                let tid = track.tid;
                let ts = us(*ts);
                match kind {
                    EventKind::Begin { name, detail } => {
                        open.push(name);
                        let args = match detail {
                            Some(d) => format!(",\"args\":{{\"detail\":\"{}\"}}", esc(d)),
                            None => String::new(),
                        };
                        push(
                            &mut out,
                            &format!(
                                "{{\"ph\":\"B\",\"name\":\"{name}\",\"cat\":\"phase\",\
                                 \"pid\":1,\"tid\":{tid},\"ts\":{ts}{args}}}"
                            ),
                        );
                    }
                    EventKind::End => {
                        let Some(name) = open.pop() else { continue };
                        push(
                            &mut out,
                            &format!(
                                "{{\"ph\":\"E\",\"name\":\"{name}\",\"cat\":\"phase\",\
                                 \"pid\":1,\"tid\":{tid},\"ts\":{ts}}}"
                            ),
                        );
                    }
                    EventKind::Instant(name) => push(
                        &mut out,
                        &format!(
                            "{{\"ph\":\"i\",\"name\":\"{name}\",\"cat\":\"mark\",\"s\":\"t\",\
                             \"pid\":1,\"tid\":{tid},\"ts\":{ts}}}"
                        ),
                    ),
                    EventKind::Counter {
                        track: ctrack,
                        values,
                    } => {
                        let mut args = String::new();
                        for (i, (k, v)) in values.iter().enumerate() {
                            if i > 0 {
                                args.push(',');
                            }
                            let _ = write!(args, "\"{k}\":{v}");
                        }
                        push(
                            &mut out,
                            &format!(
                                "{{\"ph\":\"C\",\"name\":\"{ctrack}\",\"pid\":1,\
                                 \"tid\":{tid},\"ts\":{ts},\"args\":{{{args}}}}}"
                            ),
                        );
                    }
                }
            }
            while let Some(name) = open.pop() {
                push(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"E\",\"name\":\"{name}\",\"cat\":\"phase\",\
                         \"pid\":1,\"tid\":{},\"ts\":{}}}",
                        track.tid,
                        us(last_ts)
                    ),
                );
            }
        }
        out.push_str("]}\n");
        out
    }
}

impl Trace {
    /// Rebuilds the span skeleton of a trace written by
    /// [`Trace::to_chrome_json`]: one track per `tid`, named by its
    /// `thread_name` metadata, holding its `B`/`E` events (with their
    /// `detail`) in file order. Instants and counters are not restored.
    /// Lets a checker re-fold an exported trace with [`Trace::profile`].
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing `traceEvents` array, an event without a
    /// numeric `tid`/`ts`, or a span named after no [`Phase`].
    pub fn spans_from_chrome_json(src: &str) -> Result<Trace, String> {
        let doc = parse(src)?;
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            return Err("top-level object must carry a \"traceEvents\" array".to_owned());
        };
        let mut tracks: BTreeMap<u64, ThreadTrack> = BTreeMap::new();
        for (i, ev) in events.iter().enumerate() {
            let num = |key: &str| match ev.get(key) {
                Some(Json::Num(n)) if *n >= 0.0 => Ok(*n),
                _ => Err(format!("event {i}: missing numeric \"{key}\"")),
            };
            let ph = ev.get("ph").and_then(Json::as_str).unwrap_or_default();
            if !matches!(ph, "M" | "B" | "E") {
                continue;
            }
            let tid = num("tid")? as u64;
            let track = tracks.entry(tid).or_insert_with(|| ThreadTrack {
                tid,
                name: String::new(),
                events: Vec::new(),
            });
            let arg = |key: &str| {
                ev.get("args")
                    .and_then(|a| a.get(key))
                    .and_then(Json::as_str)
            };
            let kind = match ph {
                "M" => {
                    if ev.get("name").and_then(Json::as_str) == Some("thread_name") {
                        track.name = arg("name").unwrap_or_default().to_owned();
                    }
                    continue;
                }
                "B" => {
                    let name = ev.get("name").and_then(Json::as_str).unwrap_or_default();
                    let phase = Phase::from_name(name)
                        .ok_or_else(|| format!("event {i}: unknown span {name:?}"))?;
                    EventKind::Begin {
                        name: phase.name(),
                        detail: arg("detail").map(Into::into),
                    }
                }
                _ => EventKind::End,
            };
            // Microseconds with nanosecond fractions (see `us`).
            let ts = (num("ts")? * 1_000.0).round() as u64;
            track.events.push(Event { ts, kind });
        }
        Ok(Trace {
            tracks: tracks.into_values().collect(),
            dropped: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mark, Phase, Session, TraceConfig};

    #[test]
    fn span_import_inverts_the_export() {
        let s = Session::new(TraceConfig::default());
        {
            let _solve = s.span(Phase::Solve);
            let _gen = s.span_with(Phase::Generate, Some("Bool".to_owned()));
            s.mark(Mark::OracleRun);
        }
        s.phase_totals(crate::PHASE_TOTALS_TRACK, &[(Phase::Guard, 7)]);
        let trace = s.finish();
        let back = Trace::spans_from_chrome_json(&trace.to_chrome_json(&[])).unwrap();
        assert_eq!(back.tracks.len(), 2);
        assert_eq!(back.tracks[1].name, crate::PHASE_TOTALS_TRACK);
        assert_eq!(trace.profile().rows, back.profile().rows);
        assert!(Trace::spans_from_chrome_json(
            r#"{"traceEvents":[{"ph":"B","name":"nope","pid":1,"tid":0,"ts":0}]}"#
        )
        .is_err());
    }

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(esc("a\"b"), "a\\\"b");
        assert_eq!(esc("a\\b"), "a\\\\b");
        assert_eq!(esc("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn detail_strings_are_escaped_into_valid_json() {
        let s = Session::new(TraceConfig::default());
        {
            let _sp = s.span_with(Phase::Generate, Some("Array<\"x\">\n".to_owned()));
            s.mark(Mark::OracleRun);
        }
        let json = s.finish().to_chrome_json(&[("quote\"key", "va\\lue")]);
        let summary = crate::schema::check_chrome_trace(&json).expect("valid JSON");
        assert!(summary.span_names.contains("generate"));
    }

    #[test]
    fn unbalanced_spans_are_repaired() {
        let s = Session::new(TraceConfig::default());
        let sp = s.span(Phase::Merge);
        std::mem::forget(sp); // simulate a span never closed
        let json = s.finish().to_chrome_json(&[]);
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e, "open spans are closed at track end");
        crate::schema::check_chrome_trace(&json).expect("valid after repair");
    }
}
