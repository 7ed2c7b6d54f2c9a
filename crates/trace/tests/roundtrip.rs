//! End-to-end: record a multi-thread session, export it, and re-validate
//! the export with the crate's own schema checker — the same round trip
//! `solve --trace` performs on every run.

use rbsyn_trace::{flush_current_thread, Mark, Phase, Session, TraceConfig};

#[test]
fn session_exports_valid_chrome_json_with_all_tracks() {
    let s = Session::new(TraceConfig::with_sample(1));
    {
        let _solve = s.span(Phase::Solve);
        {
            let _gen = s.span_with(Phase::Generate, Some("Bool".to_owned()));
            s.mark(Mark::FrontierPop);
            s.mark(Mark::OracleRun);
        }
        {
            let _merge = s.span(Phase::Merge);
            let _guard = s.span(Phase::Guard);
            s.mark(Mark::CoveringQuery);
        }
        s.counter("search-stats", &[("popped", 12), ("tested", 7)]);
    }
    let worker = s.clone();
    std::thread::Builder::new()
        .name("intra-worker".to_owned())
        .spawn(move || {
            let _eval = worker.span(Phase::Eval);
            worker.mark(Mark::OracleRun);
            drop(_eval);
            flush_current_thread();
        })
        .unwrap()
        .join()
        .unwrap();
    s.phase_totals(
        rbsyn_trace::PHASE_TOTALS_TRACK,
        &[
            (Phase::Generate, 1_000),
            (Phase::Guard, 500),
            (Phase::Merge, 200),
            (Phase::Eval, 700),
        ],
    );

    let trace = s.finish();
    assert_eq!(trace.tracks.len(), 3, "main, worker and synthetic tracks");
    let json = trace.to_chrome_json(&[("benchmark", "roundtrip")]);
    let summary = rbsyn_trace::schema::check_chrome_trace(&json).expect("self-check passes");
    for phase in ["solve", "generate [Bool]", "guard", "merge", "eval"] {
        let bare = phase.split(' ').next().unwrap();
        assert!(
            summary.span_names.iter().any(|n| n == bare),
            "missing span {bare:?} in {:?}",
            summary.span_names
        );
    }
    assert!(summary.counter_tracks.contains("search-stats"));
    assert!(json.contains("\"intra-worker\""), "worker track is named");

    let profile = trace.profile();
    let solve = profile.rows.iter().find(|r| r.name == "solve").unwrap();
    assert!(
        solve.self_ns <= solve.total_ns,
        "self time excludes children"
    );
    assert!(profile
        .marks
        .iter()
        .any(|(n, c)| n == "oracle_run" && *c == 2));
}
