//! The benchmark's own arithmetic: nearest-rank percentiles and which of
//! them a sample count can support, span self time, and the metric-name
//! grammar. Pure functions, unit-tested below.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, it is one or two slow inputs, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first, by [`tail_percentile`].
const TAIL_CANDIDATES: [f64; 5] = [99.0, 98.0, 95.0, 90.0, 75.0];

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Nearest-rank percentile of ascending `sorted` samples.
///
/// # Panics
///
/// On an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest percentile above the median with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when `n` samples support none (then only
/// the median may be reported).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// One span's interval in nanoseconds, its thread, and the index of its
/// parent span. A parent may have children on other threads, which may
/// overlap.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch (≥ `start`).
    pub end: u64,
    /// The thread (trace track) the span ran on.
    pub tid: u32,
    /// Index of the parent span in the same slice; parents come first.
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers. Overlapping children (on other
/// threads) are counted once, so self time is never negative.
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = spans[p];
            let (start, end) = (s.start.max(parent.start), s.end.min(parent.end));
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Checks the spans under `root` (a batch span, whose duration is the
/// batch's wall time) and returns the largest per-thread sum of their self
/// times. It fails when two children of one span overlap on the same
/// thread (one thread runs one job at a time), or when the self times of
/// one thread's spans in the subtree add up to more than the root's
/// duration.
pub fn check_subtree(spans: &[Interval], root: usize) -> Result<u64, String> {
    let mut inside = vec![false; spans.len()];
    inside[root] = true;
    for i in root + 1..spans.len() {
        inside[i] = spans[i].parent.is_some_and(|p| inside[p]);
    }
    let mut siblings: Vec<(usize, u32, u64, u64)> = spans
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != root && inside[i])
        .map(|(_, s)| (s.parent.unwrap_or(root), s.tid, s.start, s.end))
        .collect();
    siblings.sort_unstable();
    for pair in siblings.windows(2) {
        let ((pa, ta, _, end), (pb, tb, start, _)) = (pair[0], pair[1]);
        if pa == pb && ta == tb && start < end {
            return Err(format!(
                "spans under span {pa} overlap on thread {ta}: one ends at {end} ns, \
                 the next starts at {start} ns"
            ));
        }
    }
    let own = self_times(spans);
    let mut per_thread = std::collections::BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|&(i, _)| inside[i]) {
        *per_thread.entry(s.tid).or_insert(0) += own[i];
    }
    let wall = spans[root].end - spans[root].start;
    let (tid, most) = per_thread
        .into_iter()
        .max_by_key(|&(_, sum)| sum)
        .unwrap_or((spans[root].tid, 0));
    if most > wall {
        return Err(format!(
            "thread {tid}: self time {most} ns exceeds the batch's {wall} ns"
        ));
    }
    Ok(most)
}

/// Trims the end of each `(tid, start, end)` interval that runs past the
/// start of the next interval on the same thread by at most `slack` ns,
/// so that it ends where the next one starts. A longer overlap is left as
/// it is, for [`check_subtree`] to reject.
///
/// A job's span starts at the stamp its build closure takes, shortly after
/// the batch driver starts the job's clock, and lasts the job's measured
/// elapsed time, so it can end that much after the job really ended and
/// the next job on the thread began.
pub fn trim_overhang(intervals: &mut [(u32, u64, u64)], slack: u64) {
    let mut order: Vec<usize> = (0..intervals.len()).collect();
    order.sort_unstable_by_key(|&i| (intervals[i].0, intervals[i].1));
    for pair in order.windows(2) {
        let (next_tid, next_start, _) = intervals[pair[1]];
        let (tid, _, end) = &mut intervals[pair[0]];
        if *tid == next_tid && *end > next_start && *end - next_start <= slack {
            *end = next_start;
        }
    }
}

/// Is `name` a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`, starting
/// with a letter or digit?
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, tid: u32, parent: Option<usize>) -> Interval {
        Interval {
            start,
            end,
            tid,
            parent,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_on_two_threads_once() {
        // batch [0,100] on thread 0 with jobs on threads 1 and 2: [10,60]
        // and [40,90] overlap on [40,60]; each job has a build child.
        let spans = [
            span(0, 100, 0, None),
            span(10, 60, 1, Some(0)),
            span(40, 90, 2, Some(0)),
            span(10, 15, 1, Some(1)),
            span(40, 42, 2, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 45, 48, 5, 2]);
        // Per thread, self time stays within the batch: thread 0 has the
        // batch's 20, thread 1 job 1 + build 1 = 50, thread 2 = 50.
        assert_eq!(check_subtree(&spans, 0), Ok(50));
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [
            span(10, 20, 0, None),
            span(5, 12, 0, Some(0)),
            span(18, 30, 0, Some(0)),
            span(11, 11, 0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 6);
    }

    #[test]
    fn sequential_jobs_on_one_thread_pass_the_check() {
        // One worker on the batch's own thread, as with one worker.
        let spans = [
            span(0, 100, 0, None),
            span(5, 40, 0, Some(0)),
            span(40, 95, 0, Some(0)),
            span(5, 6, 0, Some(1)),
        ];
        assert_eq!(check_subtree(&spans, 0), Ok(100));
    }

    #[test]
    fn overlapping_jobs_on_one_thread_fail_the_check() {
        let spans = [
            span(0, 100, 0, None),
            span(10, 60, 1, Some(0)),
            span(50, 90, 1, Some(0)),
        ];
        let err = check_subtree(&spans, 0).unwrap_err();
        assert!(err.contains("overlap on thread 1"), "{err}");
    }

    #[test]
    fn self_time_beyond_the_batch_fails_the_check() {
        // Two children of different parents on one thread, each within its
        // parent, together longer than the batch.
        let spans = [
            span(0, 100, 0, None),
            span(0, 100, 1, Some(0)),
            span(0, 100, 2, Some(0)),
            span(0, 60, 3, Some(1)),
            span(30, 90, 3, Some(2)),
        ];
        let err = check_subtree(&spans, 0).unwrap_err();
        assert!(err.contains("thread 3: self time 120 ns"), "{err}");
    }

    #[test]
    fn spans_outside_the_subtree_are_not_checked() {
        let spans = [
            span(0, 10, 0, None),
            span(0, 10, 0, Some(0)),
            span(20, 100, 0, None),
            span(20, 100, 0, Some(2)),
            span(30, 60, 0, Some(2)),
        ];
        assert_eq!(check_subtree(&spans, 0), Ok(10));
        assert!(check_subtree(&spans, 2).is_err());
    }

    #[test]
    fn stamp_overhang_is_trimmed_and_a_real_overlap_is_kept() {
        let mut jobs = [
            (1, 1_000, 2_300),
            (2, 1_000, 9_000),
            (1, 2_000, 4_000),
            (1, 3_000, 5_000),
        ];
        trim_overhang(&mut jobs, 1_000);
        // 300 ns past the next job's start: trimmed. 1 µs: trimmed. On
        // another thread: untouched.
        assert_eq!(jobs[0], (1, 1_000, 2_000));
        assert_eq!(jobs[2], (1, 2_000, 3_000));
        assert_eq!(jobs[1], (2, 1_000, 9_000));
        let mut jobs = [(1, 0, 5_000), (1, 2_000, 6_000)];
        trim_overhang(&mut jobs, 1_000);
        assert_eq!(jobs[0], (1, 0, 5_000));
        let spans: Vec<Interval> = [(0, 0, 10_000, None)]
            .into_iter()
            .chain(
                jobs.iter()
                    .map(|&(tid, start, end)| (tid, start, end, Some(0))),
            )
            .map(|(tid, start, end, parent)| span(start, end, tid, parent))
            .collect();
        assert!(check_subtree(&spans, 0).is_err());
    }

    #[test]
    fn p98_is_eligible_on_500_samples() {
        assert_eq!(beyond(500, 98.0), 10);
        assert_eq!(beyond(500, 99.0), 5);
        assert_eq!(tail_percentile(500), Some(98.0));
    }

    #[test]
    fn nothing_above_the_median_is_eligible_on_19_samples() {
        for p in [55.0, 75.0, 90.0, 98.0, 99.0] {
            assert!(beyond(19, p) < MIN_BEYOND, "p{p}");
        }
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 19.0);
        assert_eq!(percentile(&s, 10.0), 2.0);
        let s: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(percentile(&s, 98.0), 490.0);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in [
            "wall_s",
            "latency_s.p50",
            "solve_s.top1",
            "cache.template-hits",
            "1x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "wall s",
            "lat/s",
            "é",
            "a:b",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }
}
