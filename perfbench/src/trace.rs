//! The benchmark's span recorder: spans around the public calls it makes
//! into the synthesizer, kept in memory and written at exit as Chrome
//! trace-event JSON (complete `X` events, one track per thread).

use crate::stats::{self, Interval};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Starts the trace clock; call once at process start so the main thread
/// is track 0.
pub fn init() {
    EPOCH.get_or_init(Instant::now);
    current_tid();
}

/// Small stable id of the calling thread (its track in the trace).
pub fn current_tid() -> u32 {
    TID.with(|t| *t)
}

/// Nanoseconds from the trace epoch to `t`.
pub fn ns(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// One recorded span.
pub struct Span {
    name: &'static str,
    interval: Interval,
    /// Pre-rendered JSON members of the span's `args` object.
    args: String,
}

/// An in-memory list of spans; parents are recorded before children.
#[derive(Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    /// Records a span on thread `tid` over `[start, end]` ns and returns
    /// its index, the handle children use as their parent.
    pub fn push(
        &mut self,
        name: &'static str,
        tid: u32,
        (start, end): (u64, u64),
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            interval: Interval {
                start,
                end: end.max(start),
                tid,
                parent,
            },
            args: String::new(),
        });
        self.spans.len() - 1
    }

    /// Sets a span's end, for spans opened before their children.
    pub fn close(&mut self, span: usize, end: u64) {
        let iv = &mut self.spans[span].interval;
        iv.end = end.max(iv.start);
    }

    /// Attaches a numeric argument to a span.
    pub fn arg_num(&mut self, span: usize, key: &str, value: f64) {
        let args = &mut self.spans[span].args;
        let sep = if args.is_empty() { "" } else { "," };
        let _ = write!(args, "{sep}\"{key}\":{}", json_num(value));
    }

    /// Attaches a string argument to a span.
    pub fn arg_str(&mut self, span: usize, key: &str, value: &str) {
        let args = &mut self.spans[span].args;
        let sep = if args.is_empty() { "" } else { "," };
        let _ = write!(args, "{sep}\"{key}\":\"{}\"", json_escape(value));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Checks the subtree of the batch span `root` with
    /// [`stats::check_subtree`] and returns the largest per-thread sum of
    /// its self times, in ns.
    pub fn check_batch(&self, root: usize) -> Result<u64, String> {
        let intervals: Vec<Interval> = self.spans.iter().map(|s| s.interval).collect();
        stats::check_subtree(&intervals, root)
    }

    /// Duration of a span, in ns.
    pub fn duration_ns(&self, span: usize) -> u64 {
        let iv = self.spans[span].interval;
        iv.end - iv.start
    }

    /// Renders the spans as Chrome trace-event JSON (timestamps in µs).
    pub fn to_chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let iv = s.interval;
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{{}}}}}",
                s.name,
                iv.tid,
                json_num(iv.start as f64 / 1e3),
                json_num((iv.end - iv.start) as f64 / 1e3),
                s.args
            );
        }
        out.push_str("\n],\"metadata\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("}}\n");
        out
    }
}

/// A finite JSON number (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
