//! Validates a Chrome trace-event JSON file produced by `solve --trace`.
//!
//! ```text
//! cargo run -p rbsyn-bench --bin tracecheck -- out.trace.json
//! ```
//!
//! Runs the `rbsyn_trace` in-crate schema checker (well-formed JSON,
//! known event kinds, balanced span begin/end per thread, numeric
//! counter args) and then asserts the engine-level content contract: the
//! trace of a solved benchmark must contain `generate`, `guard`, `eval`
//! and `merge` spans plus at least one counter track, and its profile
//! must add up: re-folded with `Trace::profile`, the span self times of
//! every thread sum to at most the run's `solve` total. CI's `trace` leg
//! runs this on the artifact it uploads, so a regression in either the
//! exporter or the instrumentation fails the build rather than shipping
//! an unreadable trace.
//!
//! Exit codes: `0` valid · `1` validation failure · `2` usage/IO.

use rbsyn_trace::schema::check_chrome_trace;
use rbsyn_trace::Trace;

/// Spans a solved run must contain — the phase-totals track guarantees
/// them even when the run was too fast for any live span to be recorded.
const REQUIRED_SPANS: [&str; 4] = ["generate", "guard", "eval", "merge"];

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(path), None) = (args.next(), args.next()) else {
        eprintln!("usage: tracecheck FILE.json");
        std::process::exit(2);
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tracecheck: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let summary = match check_chrome_trace(&src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tracecheck: {path} is not a valid Chrome trace: {e}");
            std::process::exit(1);
        }
    };
    let mut ok = true;
    for name in REQUIRED_SPANS {
        if !summary.span_names.contains(name) {
            eprintln!("tracecheck: missing required span {name:?}");
            ok = false;
        }
    }
    if summary.counter_tracks.is_empty() {
        eprintln!("tracecheck: no counter track (expected at least `search-stats`)");
        ok = false;
    }
    match Trace::spans_from_chrome_json(&src) {
        Ok(trace) => ok &= self_time_fits_solve(trace),
        Err(e) => {
            eprintln!("tracecheck: cannot re-read spans: {e}");
            ok = false;
        }
    }
    if !ok {
        eprintln!(
            "tracecheck: {path} has spans {:?} and counter tracks {:?}",
            summary.span_names, summary.counter_tracks
        );
        std::process::exit(1);
    }
    println!(
        "tracecheck: {path} OK — {} events on {} thread(s), spans {:?}, counters {:?}",
        summary.events,
        summary.threads,
        summary.span_names.iter().collect::<Vec<_>>(),
        summary.counter_tracks.iter().collect::<Vec<_>>()
    );
}

/// Each thread's spans nest, so their self times sum to the time the
/// thread spent inside any span — at most the `solve` span they all run
/// within. Checked per thread: worker threads overlap the main thread in
/// wall time, so only a per-thread sum has that bound.
fn self_time_fits_solve(trace: Trace) -> bool {
    let Some(solve_ns) = trace
        .profile()
        .rows
        .iter()
        .find(|r| r.name == "solve")
        .map(|r| r.total_ns)
    else {
        eprintln!("tracecheck: missing required span \"solve\"");
        return false;
    };
    let mut ok = true;
    for track in trace.tracks {
        let name = track.name.clone();
        let one = Trace {
            tracks: vec![track],
            dropped: 0,
        };
        let self_ns: u64 = one.profile().rows.iter().map(|r| r.self_ns).sum();
        if self_ns > solve_ns {
            eprintln!(
                "tracecheck: thread {name:?} folds {self_ns} ns of self time, \
                 more than the solve total {solve_ns} ns"
            );
            ok = false;
        }
    }
    ok
}
