//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload table1|specgen-par2 [--seed N] [--seconds S]
//!           [--trace 0|1] [--corpus-seed N]
//! ```
//!
//! Run from the repository root (see README.md). One run is one process
//! that does what `solve --all --spec-dir DIR --parallel W --timeout 120`
//! does, several times over: it loads the workload's `.rbspec` files with
//! `rbsyn_suite::benchmarks_from_dir`, builds the jobs with
//! `rbsyn_bench::harness::suite_jobs`, and runs them through
//! `run_batch_with` on `W` workers, once per pass. The first pass is cold;
//! `--seconds` sets how many passes a run makes. Every synthesized program
//! is re-checked against its specs with `rbsyn_interp::run_spec` on a
//! freshly built environment that shares no cache with the search, and
//! every pass must give every problem the same program and search effort.
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! The host this was tuned on runs any code up to about twice as slow for
//! tens of seconds at a time, so one timing of one pass spreads by a fifth
//! from run to run. `wall_s` is therefore the fastest pass's wall time,
//! and set-up is timed several times after every pass and reported as a
//! low percentile; the cold pass and the cold set-up are per-layer metrics.
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off. With `--trace 1` every second pass is traced: spans are
//! recorded around each public call, the per-layer metrics come from the
//! fastest traced pass, and the spans are written to
//! `perfbench/out/<workload>.trace.json`.
//!
//! The workloads are pinned corpora, so the effort counters repeat exactly
//! from run to run; `--seed` does not change them. `--corpus-seed N` (the
//! specgen workload only) swaps the pinned corpus for a fresh one that
//! `rbsyn_specgen::write_corpus` generates from seed `N` before timing
//! starts.

mod rusage;
mod stats;
mod trace;

use rbsyn_bench::harness::{suite_jobs, Config};
use rbsyn_core::{run_batch_with, BatchJob, BatchOutcome, BatchPolicy, BatchReport, Guidance};
use rbsyn_suite::{benchmarks_from_dir, Benchmark};
use rbsyn_ty::EffectPrecision;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use trace::{ns, Recorder};

const USAGE: &str = "usage: perfbench --workload table1|specgen-par2 [--seed N] \
                     [--seconds S] [--trace 0|1] [--corpus-seed N]";

/// Per-problem deadline: far above the slowest problem (about 15 s), so
/// a slow host cannot turn a solve into a timeout.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// Fewest passes in a run: the cold one and at least one more, so that
/// `wall_s` is a minimum over two samples.
const MIN_PASSES: u64 = 2;

/// Set-ups timed after each pass, in addition to the run's first (cold)
/// one; `setup_s` is their `SETUP_PERCENTILE`.
const SETUP_SAMPLES: usize = 10;

/// Set-up is parsing and lowering, the code the host's slow spells slow
/// most (up to twice), and they last seconds, so the samples after one
/// pass are often all slow and a median flips with the share of slow
/// ones. In 20 alternated runs per workload the median of each run moved
/// by 33–45% (quartile spread) and the 10th percentile by 8–36%.
const SETUP_PERCENTILE: f64 = 10.0;

/// How many of the slowest problems get a `solve_s.topN` metric.
const TOP_PROBLEMS: usize = 5;

/// Where traces and generated corpora go, inside the checkout.
const OUT_DIR: &str = "perfbench/out";

const TABLE1_DIR: &str = "benchmarks";
const SPECGEN_DIR: &str = "benchmarks/generated";

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    Table1,
    SpecgenPar2,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "table1" => Some(Workload::Table1),
            "specgen-par2" => Some(Workload::SpecgenPar2),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::SpecgenPar2 => "specgen-par2",
        }
    }

    fn workers(self) -> usize {
        match self {
            Workload::Table1 => 1,
            Workload::SpecgenPar2 => 2,
        }
    }

    /// Passes for a run of `seconds`: a fixed function of the arguments,
    /// never of measured speed, so every run makes the same number of
    /// samples. The divisor is about one pass on a 2-vCPU host.
    fn passes(self, seconds: u64) -> usize {
        let pass_seconds = match self {
            Workload::Table1 => 25,
            Workload::SpecgenPar2 => 16,
        };
        usize::try_from((seconds / pass_seconds).max(MIN_PASSES)).unwrap_or(usize::MAX)
    }
}

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    corpus_seed: Option<u64>,
}

fn parse_cli(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut workload = None;
    let mut cli = Cli {
        workload: Workload::Table1,
        seed: 0,
        seconds: 1,
        trace: false,
        corpus_seed: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("bad number {v:?}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => cli.seed = number(value()?)?,
            "--seconds" => cli.seconds = number(value()?)?,
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--corpus-seed" => cli.corpus_seed = Some(number(value()?)?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    cli.workload = workload.ok_or("--workload is required")?;
    if cli.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    if cli.workload == Workload::Table1 && cli.corpus_seed.is_some() {
        return Err("--corpus-seed applies to the specgen workload only".to_owned());
    }
    Ok(cli)
}

/// A workload's corpus directory; a generated one is deleted on drop.
struct Corpus {
    dir: PathBuf,
    generated: bool,
}

impl Drop for Corpus {
    fn drop(&mut self) {
        if self.generated {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

fn corpus(cli: &Cli) -> Result<Corpus, String> {
    let pinned = |dir: &str| Corpus {
        dir: PathBuf::from(dir),
        generated: false,
    };
    if cli.workload == Workload::Table1 {
        return Ok(pinned(TABLE1_DIR));
    }
    let (pinned_seed, count) = rbsyn_specgen::read_manifest(Path::new(SPECGEN_DIR))?;
    match cli.corpus_seed {
        None => Ok(pinned(SPECGEN_DIR)),
        Some(seed) if seed == pinned_seed => Ok(pinned(SPECGEN_DIR)),
        Some(seed) => {
            let corpus = Corpus {
                dir: Path::new(OUT_DIR).join(format!("corpus-{seed}-{}", std::process::id())),
                generated: true,
            };
            eprintln!("perfbench: generating a {count}-problem corpus from seed {seed}");
            rbsyn_specgen::write_corpus(&corpus.dir, seed, count, false)?;
            Ok(corpus)
        }
    }
}

/// A set-up workload: its benchmarks in the order `solve --all` runs them,
/// and one batch job per benchmark.
struct Loaded {
    benchmarks: Vec<Benchmark>,
    jobs: Vec<BatchJob>,
}

/// The jobs `solve --all` builds for `benchmarks`.
fn jobs_for(benchmarks: Vec<Benchmark>, cfg: &Config) -> Vec<BatchJob> {
    suite_jobs(
        benchmarks,
        Guidance::both(),
        EffectPrecision::Precise,
        cfg.timeout,
        cfg,
    )
}

/// Set-up as `solve --all --spec-dir` does it: load the corpus, build the
/// jobs.
fn set_up(dir: &Path, cfg: &Config) -> Result<Loaded, String> {
    let benchmarks = benchmarks_from_dir(dir)?;
    let jobs = jobs_for(benchmarks.clone(), cfg);
    Ok(Loaded { benchmarks, jobs })
}

/// Set-up with one `front.load` span per file under `parent`: each file
/// goes through `rbsyn_front::load_file` and `Benchmark::from_spec`, the
/// steps of `benchmarks_from_dir`, and the jobs are built and dropped.
/// Returns the source bytes read and the time spent in `load_file`.
fn set_up_traced(
    dir: &Path,
    cfg: &Config,
    (rec, parent): (&mut Recorder, usize),
) -> Result<(usize, Duration), String> {
    let mut benchmarks = Vec::new();
    let mut bytes = 0;
    let mut busy = Duration::ZERO;
    for path in rbsyn_front::spec_paths(dir)? {
        let start = Instant::now();
        let spec = rbsyn_front::load_file(&path)?;
        busy += start.elapsed();
        let span = rec.push(
            "front.load",
            trace::current_tid(),
            (ns(start), ns(Instant::now())),
            Some(parent),
        );
        rec.arg_str(span, "file", &path.display().to_string());
        bytes += spec.source.len();
        benchmarks.push(Benchmark::from_spec(spec));
    }
    jobs_for(benchmarks, cfg);
    Ok((bytes, busy))
}

/// When and on which thread a job's build closure ran, and for how long.
#[derive(Clone, Copy)]
struct Stamp {
    start: Instant,
    tid: u32,
    build: Duration,
}

type Stamps = Arc<Vec<OnceLock<Stamp>>>;

/// `benchmarks` with each build closure wrapped to record its stamp in
/// `stamps`.
fn stamped(benchmarks: &[Benchmark], stamps: &Stamps) -> Vec<Benchmark> {
    benchmarks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let build = Arc::clone(&b.build);
            let stamps = Arc::clone(stamps);
            Benchmark {
                build: Arc::new(move || {
                    let start = Instant::now();
                    let built = build();
                    let _ = stamps[i].set(Stamp {
                        start,
                        tid: trace::current_tid(),
                        build: start.elapsed(),
                    });
                    built
                }),
                ..b.clone()
            }
        })
        .collect()
}

/// One pass over the workload.
struct Pass {
    report: BatchReport,
    /// For a traced pass, each job's build stamp.
    stamps: Option<Vec<Option<Stamp>>>,
    start: Instant,
    end: Instant,
    usage: rusage::Usage,
}

impl Pass {
    fn wall(&self) -> f64 {
        self.report.stats.wall_clock.as_secs_f64()
    }
}

/// Runs every job once through `run_batch_with`. A traced pass runs jobs
/// whose build closures are wrapped to stamp their start, built before the
/// clock starts.
fn run_pass(loaded: &Loaded, cfg: &Config, workers: usize, traced: bool) -> Pass {
    let stamps: Option<Stamps> = traced.then(|| {
        Arc::new(
            (0..loaded.benchmarks.len())
                .map(|_| OnceLock::new())
                .collect(),
        )
    });
    let stamped_jobs = stamps
        .as_ref()
        .map(|s| jobs_for(stamped(&loaded.benchmarks, s), cfg));
    let jobs = stamped_jobs.as_ref().unwrap_or(&loaded.jobs);
    let before = rusage::now();
    let start = Instant::now();
    let report = run_batch_with(jobs, workers, &BatchPolicy::default());
    let end = Instant::now();
    let usage = rusage::now().since(&before);
    Pass {
        report,
        stamps: stamps.map(|s| s.iter().map(|c| c.get().copied()).collect()),
        start,
        end,
        usage,
    }
}

/// Does `pass` give every problem the same program and search effort as
/// `first`?
fn same_outcomes(first: &BatchReport, pass: &BatchReport) -> bool {
    first.outcomes.len() == pass.outcomes.len()
        && first.outcomes.iter().zip(&pass.outcomes).all(|(a, b)| {
            a.id == b.id
                && match (&a.result, &b.result) {
                    (Ok(x), Ok(y)) => {
                        x.program == y.program
                            && x.stats.solution_size == y.stats.solution_size
                            && x.stats.search.tested == y.stats.search.tested
                    }
                    _ => false,
                }
        })
}

/// Result of re-checking every program against its specs.
struct Verification {
    /// Per problem: solved, and the program passes every spec.
    ok: Vec<bool>,
    spec_runs: u64,
    /// Time inside `run_spec` calls.
    busy: Duration,
}

/// Re-runs every synthesized program against its problem's specs on a
/// freshly built environment, with no search cache involved. Timeouts,
/// failures and panics count as failed.
fn verify(
    benchmarks: &[Benchmark],
    report: &BatchReport,
    mut trace: Option<(&mut Recorder, usize)>,
) -> Verification {
    let mut v = Verification {
        ok: Vec::with_capacity(benchmarks.len()),
        spec_runs: 0,
        busy: Duration::ZERO,
    };
    for (b, outcome) in benchmarks.iter().zip(&report.outcomes) {
        let start = Instant::now();
        let mut passed = 0;
        let mut specs = 0;
        if let (Ok(result), true) = (&outcome.result, outcome.id == b.id) {
            let (env, problem) = (b.build)();
            specs = problem.specs.len();
            for spec in &problem.specs {
                let t = Instant::now();
                let outcome = rbsyn_interp::run_spec(&env, spec, &result.program);
                v.busy += t.elapsed();
                v.spec_runs += 1;
                passed += usize::from(outcome.passed());
            }
        }
        v.ok.push(specs > 0 && passed == specs);
        if let Some((rec, parent)) = trace.as_mut() {
            let span = rec.push(
                "verify.problem",
                trace::current_tid(),
                (ns(start), ns(Instant::now())),
                Some(*parent),
            );
            rec.arg_str(span, "id", &b.id);
            rec.arg_num(span, "specs", specs as f64);
            rec.arg_num(span, "passed", passed as f64);
        }
    }
    v
}

/// How far past the next job's start on its thread a job's span may end
/// and still be trimmed (see [`stats::trim_overhang`]). The stamp usually
/// trails the job's clock by well under 1 µs, but a page fault on a new
/// worker's stack or a preemption can stretch that (22 µs was seen); 10 ms
/// covers a scheduler time slice, and an overlap beyond it is a wrong span.
const STAMP_SLACK_NS: u64 = 10_000_000;

/// Records a traced pass: a `batch` span over the `run_batch_with` call,
/// a `job` span per problem from its stamp to stamp + elapsed, carrying
/// its `SynthStats`, and a `suite.build` span inside each job. Returns
/// the batch span, the summed build time and the summed synthesis fixed
/// cost (elapsed minus build, generate, guard and merge).
fn record_pass(rec: &mut Recorder, pass: &Pass, tid: u32) -> (usize, Duration, Duration) {
    let batch = rec.push("batch", tid, (ns(pass.start), ns(pass.end)), None);
    let jobs: Vec<(&Stamp, &BatchOutcome)> = pass
        .stamps
        .iter()
        .flatten()
        .zip(&pass.report.outcomes)
        .filter_map(|(stamp, o)| Some((stamp.as_ref()?, o)))
        .collect();
    let mut intervals: Vec<(u32, u64, u64)> = jobs
        .iter()
        .map(|(stamp, o)| {
            let start = ns(stamp.start);
            let elapsed = u64::try_from(o.elapsed.as_nanos()).unwrap_or(u64::MAX);
            (stamp.tid, start, start.saturating_add(elapsed))
        })
        .collect();
    stats::trim_overhang(&mut intervals, STAMP_SLACK_NS);
    let mut build = Duration::ZERO;
    let mut fixed = Duration::ZERO;
    for ((stamp, o), (job_tid, start, end)) in jobs.into_iter().zip(intervals) {
        build += stamp.build;
        let job = rec.push("job", job_tid, (start, end), Some(batch));
        rec.arg_str(job, "id", &o.id);
        rec.arg_num(job, "build_s", stamp.build.as_secs_f64());
        match &o.result {
            Ok(r) => {
                let s = &r.stats;
                fixed += o
                    .elapsed
                    .saturating_sub(stamp.build + s.generate_time + s.guard_time + s.merge_time);
                rec.arg_str(job, "status", "solved");
                rec.arg_num(job, "generate_s", s.generate_time.as_secs_f64());
                rec.arg_num(job, "guard_s", s.guard_time.as_secs_f64());
                rec.arg_num(job, "merge_s", s.merge_time.as_secs_f64());
                rec.arg_num(job, "eval_s", s.search.eval_nanos as f64 / 1e9);
                rec.arg_num(job, "popped", s.search.popped as f64);
                rec.arg_num(job, "expanded", s.search.expanded as f64);
                rec.arg_num(job, "tested", s.search.tested as f64);
                rec.arg_num(job, "solution_size", s.solution_size as f64);
            }
            Err(e) => rec.arg_str(job, "status", &format!("{e:?}")),
        }
        rec.push(
            "suite.build",
            job_tid,
            (start, ns(stamp.start + stamp.build)),
            Some(job),
        );
    }
    (batch, build, fixed)
}

/// Metrics in output order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(stats::valid_metric_name(&name), "bad metric name {name:?}");
        self.0.push((name, value, unit));
    }

    fn secs(&mut self, name: &str, d: Duration) {
        self.put(name, d.as_secs_f64(), "s");
    }

    fn count(&mut self, name: &str, n: u64) {
        self.put(name, n as f64, "count");
    }

    fn json(&self) -> String {
        let members: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    trace::json_num(*value)
                )
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }
}

/// Sorted per-problem latencies in seconds.
fn latencies(report: &BatchReport) -> Vec<f64> {
    let mut l: Vec<f64> = report
        .outcomes
        .iter()
        .map(|o| o.elapsed.as_secs_f64())
        .collect();
    l.sort_by(f64::total_cmp);
    l
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn host_header() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("os", std::env::consts::OS.to_owned()),
        ("arch", std::env::consts::ARCH.to_owned()),
        (
            "toolchain",
            std::env::var("RUSTUP_TOOLCHAIN").unwrap_or_else(|_| "unknown".to_owned()),
        ),
    ]
}

/// The outcome of a run: what the last stdout line reports.
struct RunResult {
    attempted: usize,
    failed: usize,
    correct: bool,
    metrics: Metrics,
}

impl RunResult {
    fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.json()
        )
    }
}

/// A traced pass as recorded.
struct Traced {
    /// Index of the pass.
    pass: usize,
    /// Its `batch` span.
    batch: usize,
    /// Summed build-closure time.
    build: Duration,
    /// Summed synthesis fixed cost.
    fixed: Duration,
    /// The span check: the largest per-thread self time under the batch.
    self_ns: Result<u64, String>,
}

/// Runs the workload: the cold set-up, the passes, each followed by
/// verification and set-up samples, then the metrics.
fn run(cli: &Cli, dir: &Path) -> Result<RunResult, String> {
    // What `solve --all --timeout 120` runs with.
    let mut cfg = Config::from_env();
    cfg.timeout = JOB_TIMEOUT;
    let workers = cli.workload.workers();
    let main_tid = trace::current_tid();

    let start = Instant::now();
    let loaded = set_up(dir, &cfg)?;
    let mut setup_times = vec![start.elapsed().as_secs_f64()];
    let n = loaded.benchmarks.len();

    let mut rec = Recorder::default();
    let mut passes = Vec::new();
    let mut verifications = Vec::new();
    let mut traced = Vec::new();
    let mut cold_rss_kib = 0;
    for k in 0..cli.workload.passes(cli.seconds) {
        let is_traced = cli.trace && k % 2 == 1;
        let pass = run_pass(&loaded, &cfg, workers, is_traced);
        if k == 0 {
            // Later passes start new worker threads whose allocator arenas
            // fragment differently from run to run; the cold process's
            // peak is what one `solve` invocation sees, and it repeats.
            cold_rss_kib = rusage::now().maxrss_kib;
        }
        let v = if is_traced {
            let (batch, build, fixed) = record_pass(&mut rec, &pass, main_tid);
            traced.push(Traced {
                pass: k,
                batch,
                build,
                fixed,
                self_ns: rec.check_batch(batch),
            });
            let start = Instant::now();
            let span = rec.push("verify", main_tid, (ns(start), ns(start)), None);
            let v = verify(&loaded.benchmarks, &pass.report, Some((&mut rec, span)));
            rec.close(span, ns(Instant::now()));
            v
        } else {
            verify(&loaded.benchmarks, &pass.report, None)
        };
        passes.push(pass);
        verifications.push(v);
        for _ in 0..SETUP_SAMPLES {
            let start = Instant::now();
            let again = set_up(dir, &cfg)?;
            setup_times.push(start.elapsed().as_secs_f64());
            drop(again);
        }
    }

    let verified = (0..n)
        .filter(|&i| verifications.iter().all(|v| v.ok[i]))
        .count();
    let consistent = passes
        .iter()
        .all(|p| same_outcomes(&passes[0].report, &p.report));
    if !consistent {
        eprintln!("perfbench: passes disagree on a program or on its search effort");
    }
    summarize(cli, &passes, &setup_times, verified);

    let mut correct = verified == n && consistent;
    let metrics = if cli.trace {
        let start = Instant::now();
        let setup_span = rec.push("setup", main_tid, (ns(start), ns(start)), None);
        let front = set_up_traced(dir, &cfg, (&mut rec, setup_span))?;
        rec.close(setup_span, ns(Instant::now()));
        for t in &traced {
            if let Err(e) = &t.self_ns {
                eprintln!("perfbench: pass {}: {e}", t.pass + 1);
                correct = false;
            }
        }
        correct &= write_trace(cli, &rec);
        per_layer(
            &passes,
            &verifications,
            &traced,
            &rec,
            setup_times[0],
            front,
        )
    } else {
        let mut m = Metrics::default();
        let mut setups = setup_times.clone();
        setups.sort_by(f64::total_cmp);
        m.put("setup_s", stats::percentile(&setups, SETUP_PERCENTILE), "s");
        m.put(
            "wall_s",
            passes.iter().map(Pass::wall).fold(f64::INFINITY, f64::min),
            "s",
        );
        m.put("verified_frac", ratio(verified as f64, n as f64), "1");
        let program_nodes: usize = passes[0]
            .report
            .outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .map(|r| r.stats.solution_size)
            .sum();
        m.count("program_nodes", program_nodes as u64);
        m.put("peak_rss_mib", cold_rss_kib as f64 / 1024.0, "MiB");
        m
    };
    Ok(RunResult {
        attempted: n,
        failed: n - verified,
        correct,
        metrics,
    })
}

/// The per-layer metrics of a traced run, from its fastest traced pass.
fn per_layer(
    passes: &[Pass],
    verifications: &[Verification],
    traced: &[Traced],
    rec: &Recorder,
    cold_setup: f64,
    (bytes, front_load): (usize, Duration),
) -> Metrics {
    let wall_of = |k: usize| passes[k].wall();
    let t = traced
        .iter()
        .min_by(|a, b| wall_of(a.pass).total_cmp(&wall_of(b.pass)))
        .expect("a run of two or more passes traces one");
    let untraced_wall = (0..passes.len())
        .filter(|k| traced.iter().all(|t| t.pass != *k))
        .map(wall_of)
        .fold(f64::INFINITY, f64::min);
    let pass = &passes[t.pass];
    let v = &verifications[t.pass];
    let st = &pass.report.stats;
    let wall = pass.wall();
    let busy: Duration = pass.report.outcomes.iter().map(|o| o.elapsed).sum();
    let workers = st.threads.max(1);
    let l = latencies(&pass.report);
    let tail = stats::tail_percentile(l.len()).unwrap_or(50.0);

    let mut m = Metrics::default();
    m.put("cold.setup_s", cold_setup, "s");
    m.put("cold.wall_s", wall_of(0), "s");
    m.put("latency_s.p50", stats::percentile(&l, 50.0), "s");
    m.put("latency_s.tail", stats::percentile(&l, tail), "s");
    m.secs("front.load_s", front_load);
    m.put("front.bytes", bytes as f64, "bytes");
    m.secs("suite.build_s", t.build);
    m.secs("synth.fixed_s", t.fixed);
    m.secs("generate.busy_s", st.generate_time);
    m.count("generate.popped", st.popped);
    m.count("generate.expanded", st.expanded);
    m.count("generate.tested", st.tested);
    m.count("generate.deduped", st.deduped);
    m.count("generate.obs_pruned", st.obs_pruned);
    m.put(
        "generate.tested_per_expanded",
        ratio(st.tested as f64, st.expanded as f64),
        "1",
    );
    m.put(
        "generate.ns_per_expanded",
        ratio(st.generate_time.as_nanos() as f64, st.expanded as f64),
        "ns",
    );
    m.secs("eval.busy_s", st.eval_time);
    m.put(
        "eval.ns_per_tested",
        ratio(st.eval_time.as_nanos() as f64, st.tested as f64),
        "ns",
    );
    m.secs("guard.busy_s", st.guard_time);
    m.count("guard.vector_hits", st.vector_hits);
    m.count("guard.guard_dedup", st.guard_dedup);
    m.count("guard.bdd_nodes", st.bdd_nodes);
    m.secs("merge.busy_s", st.merge_time);
    for k in 0..TOP_PROBLEMS {
        m.put(
            format!("solve_s.top{}", k + 1),
            l.len().checked_sub(k + 1).map_or(0.0, |i| l[i]),
            "s",
        );
    }
    m.put(
        "solve_s.rest",
        l.iter().rev().skip(TOP_PROBLEMS).sum::<f64>(),
        "s",
    );
    m.count("cache.template_hits", st.template_hits);
    m.count("cache.template_misses", st.template_misses);
    m.count("cache.expand_hits", st.expand_hits);
    m.count("cache.type_hits", st.type_hits);
    m.count("cache.oracle_hits", st.oracle_hits);
    m.put("batch.wall_s", wall, "s");
    m.secs("batch.busy_s", busy);
    m.put(
        "batch.idle_s",
        workers as f64 * wall - busy.as_secs_f64(),
        "s",
    );
    m.count("batch.timeouts", st.timeouts as u64);
    m.count("batch.failures", st.failures as u64);
    m.count("batch.panics", st.panics as u64);
    m.secs("verify.busy_s", v.busy);
    m.count("verify.spec_runs", v.spec_runs);
    m.put(
        "verify.us_per_spec_run",
        ratio(v.busy.as_secs_f64() * 1e6, v.spec_runs as f64),
        "us",
    );
    m.secs("proc.user_s", pass.usage.user);
    m.secs("proc.sys_s", pass.usage.sys);
    m.count("proc.minflt", pass.usage.minflt);
    m.count("proc.nivcsw", pass.usage.nivcsw);
    m.put("trace.overhead_s", wall - untraced_wall, "s");
    m.put(
        "trace.self_s",
        *t.self_ns.as_ref().unwrap_or(&0) as f64 / 1e9,
        "s",
    );
    m.put("trace.batch_s", rec.duration_ns(t.batch) as f64 / 1e9, "s");
    m.count("trace.spans", rec.len() as u64);
    m
}

/// One stderr line: verification, pass walls, set-up times and the five
/// slowest problems of the fastest pass.
fn summarize(cli: &Cli, passes: &[Pass], setup_times: &[f64], verified: usize) {
    let fastest = passes
        .iter()
        .min_by(|a, b| a.wall().total_cmp(&b.wall()))
        .expect("a run makes two or more passes");
    let mut by_time: Vec<(f64, &str)> = fastest
        .report
        .outcomes
        .iter()
        .map(|o| (o.elapsed.as_secs_f64(), o.id.as_str()))
        .collect();
    by_time.sort_by(|a, b| b.0.total_cmp(&a.0));
    let top: Vec<String> = by_time
        .iter()
        .take(TOP_PROBLEMS)
        .map(|(t, id)| format!("{id} {t:.2}s"))
        .collect();
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall())).collect();
    let mut setups = setup_times.to_vec();
    setups.sort_by(f64::total_cmp);
    let setup_ms = |p: f64| stats::percentile(&setups, p) * 1e3;
    eprintln!(
        "perfbench: {} seed {} trace {}: {verified}/{} verified; pass walls [{}] s; \
         set-up p10/p50/p90 {:.2}/{:.2}/{:.2} ms; {} tested per pass; slowest: {}",
        cli.workload.name(),
        cli.seed,
        u8::from(cli.trace),
        by_time.len(),
        walls.join(", "),
        setup_ms(10.0),
        setup_ms(50.0),
        setup_ms(90.0),
        fastest.report.stats.tested,
        top.join(", ")
    );
}

/// Writes the trace and checks it reads back as valid Chrome-trace JSON.
fn write_trace(cli: &Cli, rec: &Recorder) -> bool {
    let path = Path::new(OUT_DIR).join(format!("{}.trace.json", cli.workload.name()));
    let mut meta: Vec<(&str, String)> = host_header();
    meta.push(("workload", cli.workload.name().to_owned()));
    meta.push(("seed", cli.seed.to_string()));
    let json = rec.to_chrome_json(&meta);
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, &json))
        .and_then(|()| std::fs::read_to_string(&path));
    match written
        .map_err(|e| e.to_string())
        .and_then(|s| rbsyn_trace::schema::check_chrome_trace(&s))
    {
        Ok(summary) => {
            eprintln!(
                "perfbench: trace {} ({} events, {} threads)",
                path.display(),
                summary.events,
                summary.threads
            );
            true
        }
        Err(e) => {
            eprintln!("perfbench: trace {}: {e}", path.display());
            false
        }
    }
}

fn main() {
    trace::init();
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let header: Vec<String> = host_header()
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!("perfbench: host {}", header.join(" "));
    let result = corpus(&cli).and_then(|corpus| run(&cli, &corpus.dir));
    match result {
        Ok(r) => println!("{}", r.json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
