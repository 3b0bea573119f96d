//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_mix|jits_heavy|durable_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one client, closed loop. A run is a series of episodes:
//! each sets the engine up afresh and sends it one op stream from the
//! paper's §4.2 generator, seeded from `--seed` and the episode number.
//! `--seconds` sets the number of episodes (see `workload.rs`), so every
//! run of a workload does the same work. With `--trace 0` the run prints
//! the end-to-end metrics; with `--trace 1` it also replays every episode
//! with spans and prints the per-layer metrics. Either way the answers are
//! checked against a no-statistics oracle, the durable workload's recovery
//! is checked, and the last stdout line is one JSON object. Results and
//! spans are also written under `perfbench/out/`.

mod run;
mod stats;
mod trace;
mod workload;

use jits_workload::WorkloadOp;
use run::{Answer, Ledger, Pass};
use stats::{median, percentile, tail};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Engine, WorkloadDef};

struct Args {
    workload: WorkloadDef,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag without a value: {}", pair[0]));
        };
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn fingerprint(args: &Args) -> Vec<(&'static str, String)> {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    vec![
        ("workload", args.workload.name.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "rustc",
            command_line(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        (
            "commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        ),
    ]
}

/// Median over episodes of each episode's p50 and tail latency (ms), and
/// a note naming the tail percentile and the per-episode sample count.
fn latency(
    name: &str,
    episodes: &[Episode],
    pick: fn(&Pass) -> &[f64],
) -> Result<(f64, f64, String), String> {
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    let mut note = String::new();
    for e in episodes {
        let v = sorted(pick(&e.pass).iter().copied());
        p50s.push(percentile(&v, 50.0).ok_or(format!("no {name} latencies"))?);
        let t = tail(&v).ok_or(format!("{name}: {} samples leave no tail", v.len()))?;
        tails.push(t.value);
        note = format!("p{:.2} of {} samples per episode", t.percentile, t.samples);
    }
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    Ok((
        med(&p50s),
        med(&tails),
        format!("median over episodes; tail {note}"),
    ))
}

/// What the durable workload's shutdown and reopen showed.
struct Reopen {
    wall: f64,
    replayed_records: usize,
    disk_bytes: u64,
    failures: Vec<String>,
}

const COUNT_TABLES: [&str; 4] = ["car", "owner", "demographics", "accidents"];

fn table_counts(
    exec: &mut dyn FnMut(&str) -> jits_common::Result<jits_engine::QueryResult>,
) -> Result<Vec<String>, String> {
    COUNT_TABLES
        .iter()
        .map(|t| {
            exec(&format!("SELECT COUNT(*) FROM {t}"))
                .map(|r| format!("{t}={:?}", r.rows))
                .map_err(|e| format!("COUNT(*) on {t}: {e}"))
        })
        .collect()
}

/// Counts every table, shuts the durable engine down cleanly, reopens the
/// data dir (timed), and checks that the clock and the counts survived.
fn reopen(mut engine: Engine, def: &WorkloadDef, seed: u64, dir: &Path) -> Result<Reopen, String> {
    let mut failures = Vec::new();
    let before = table_counts(&mut |sql| engine.execute(sql))?;
    let clock = engine.clock();
    drop(engine);
    let disk_bytes = workload::dir_files(dir).iter().map(|(_, len)| len).sum();
    let t = Instant::now();
    let mut db = workload::reopen(def, seed, dir).map_err(|e| format!("reopen: {e}"))?;
    let wall = t.elapsed().as_secs_f64();
    let report = db.recovery_report().clone();
    if report.replay_errors > 0 {
        failures.push(format!("{} replay errors", report.replay_errors));
    }
    if db.clock() != clock {
        failures.push(format!("clock {} after reopen, {clock} before", db.clock()));
    }
    let after = table_counts(&mut |sql| db.execute(sql))?;
    if after != before {
        failures.push(format!("counts {after:?} after reopen, {before:?} before"));
    }
    Ok(Reopen {
        wall,
        replayed_records: report.replayed_records as usize,
        disk_bytes,
        failures,
    })
}

/// Replays the op stream on the oracle and lists the ops whose answers
/// disagree with `answers`.
fn answer_check(
    def: &WorkloadDef,
    seed: u64,
    ops: &[WorkloadOp],
    answers: &[Answer],
) -> Result<Vec<String>, String> {
    let mut oracle = workload::oracle(def, seed).map_err(|e| format!("oracle set-up: {e}"))?;
    let mut mismatches = Vec::new();
    for (i, (op, answer)) in ops.iter().zip(answers).enumerate() {
        let expected = Answer::of(&oracle.execute(&op.sql), op.is_query);
        if !answer.matches(&expected) {
            mismatches.push(format!(
                "op {i}: got {answer:?}, oracle {expected:?}: {}",
                op.sql
            ));
        }
    }
    Ok(mismatches)
}

/// One episode's inputs and untraced outcome.
struct Episode {
    seed: u64,
    ops: Vec<WorkloadOp>,
    pass: Pass,
}

fn data_dir(out: &Path, def: &WorkloadDef, label: &str) -> Option<PathBuf> {
    def.durable
        .then(|| out.join(format!("data-{}-{}-{label}", def.name, std::process::id())))
}

fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

struct Report {
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    lines: Vec<String>,
    correct: bool,
    attempted: usize,
    failed: usize,
}

/// The traced replays. Each episode is replayed with spans right after its
/// untraced pass, so the pair runs under the same machine conditions and
/// drift cancels in the trace overhead.
struct Traced {
    dir: Option<PathBuf>,
    ledger: Ledger,
    spans: trace::Spans,
    /// Per episode: untraced over traced throughput, minus one.
    overheads: Vec<f64>,
    diverged: usize,
    first_stmt: usize,
}

impl Traced {
    fn new(out: &Path, def: &WorkloadDef) -> Traced {
        Traced {
            dir: data_dir(out, def, "traced"),
            ledger: Ledger::default(),
            spans: trace::Spans::new(),
            overheads: Vec::new(),
            diverged: 0,
            first_stmt: 0,
        }
    }

    fn replay(&mut self, def: &WorkloadDef, e: &Episode) -> Result<(), String> {
        let dir = self.dir.as_deref();
        let mut setup = workload::setup(def, e.seed, dir).map_err(|e| format!("set-up: {e}"))?;
        let pass = run::traced(
            &mut setup.engine,
            &e.ops,
            def,
            dir,
            &mut self.ledger,
            &mut self.spans,
            self.first_stmt,
        );
        drop(setup);
        if let Some(dir) = dir {
            workload::remove_dir(dir);
        }
        self.first_stmt += e.ops.len();
        self.overheads
            .push(e.pass.throughput() / pass.throughput() - 1.0);
        self.diverged += pass
            .answers
            .iter()
            .zip(&e.pass.answers)
            .filter(|(a, b)| !a.matches(b))
            .count();
        Ok(())
    }
}

fn bench(args: &Args, out: &Path) -> Result<Report, String> {
    let def = &args.workload;
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    let dir = data_dir(out, def, "plain");

    // the episodes: set-up, the timed statements, and for the durable
    // engine a clean shutdown and a timed reopen; a traced run replays
    // each episode with spans right after it
    let n_episodes = def.episodes(args.seconds);
    // set-up is short and noisy: each episode times several set-ups (and
    // runs on the last), so `setup_s` is a median of samples spread over
    // the whole run
    let (mut setup_s, mut populate_ms) = (Vec::new(), Vec::new());
    let mut traced = args.trace.then(|| Traced::new(out, def));
    let mut episodes = Vec::new();
    let mut reopens = Vec::new();
    for k in 0..n_episodes {
        let seed = WorkloadDef::episode_seed(args.seed, k);
        let ops = def.ops(seed);
        let mut setup = None;
        for _ in 0..def.setups_per_episode {
            // the last set-up's engine must be shut down before the next
            // one reuses its data dir
            drop(setup.take());
            let s =
                workload::setup(def, seed, dir.as_deref()).map_err(|e| format!("set-up: {e}"))?;
            setup_s.push(s.total.as_secs_f64());
            populate_ms.push(ms(s.populate));
            setup = Some(s);
        }
        let mut setup = setup.ok_or("no set-up")?;
        let pass = run::plain(&mut setup.engine, &ops);
        if let Some(dir) = &dir {
            let r = reopen(setup.engine, def, seed, dir);
            workload::remove_dir(dir);
            reopens.push(r?);
        }
        let episode = Episode { seed, ops, pass };
        if let Some(t) = &mut traced {
            t.replay(def, &episode)?;
        }
        episodes.push(episode);
    }
    let rss = peak_rss_mb()?;

    let attempted: usize = episodes.iter().map(|e| e.pass.answers.len()).sum();
    let failed: usize = episodes.iter().map(|e| e.pass.failed).sum();
    let tputs = sorted(episodes.iter().map(|e| e.pass.throughput()));
    let tput = percentile(&tputs, 50.0).ok_or("no episodes")?;
    let (q50, qtail, qnote) = latency("query", &episodes, |p| &p.query_ms)?;
    let (w50, wtail, wnote) = latency("write", &episodes, |p| &p.write_ms)?;
    let e2e = vec![
        metric(
            "throughput_ops_s",
            tput,
            "1/s",
            format!("median over {} episodes of {:.1?}", tputs.len(), tputs),
        ),
        metric("query_p50_ms", q50, "ms", qnote.clone()),
        metric("query_tail_ms", qtail, "ms", qnote),
        metric("write_p50_ms", w50, "ms", wnote.clone()),
        metric("write_tail_ms", wtail, "ms", wnote),
        metric(
            "setup_s",
            median(&setup_s).unwrap_or(0.0),
            "s",
            format!("median of {setup_s:.4?}"),
        ),
        metric(
            "peak_rss_mb",
            rss,
            "MB",
            if args.trace {
                "VmHWM after the episodes and their traced replays"
            } else {
                "VmHWM after the timed episodes"
            },
        ),
    ];
    lines.push(format!(
        "episodes: {} x {} statements (seeds derived from --seed {})",
        episodes.len(),
        def.episode_ops,
        args.seed
    ));
    lines.push(format!(
        "error_rate {} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted as f64
    ));
    let durable = (!reopens.is_empty()).then(|| {
        let [on_queries, on_writes] = episodes.iter().fold([0, 0], |[q, w], e| {
            [q + e.pass.checkpointed[0], w + e.pass.checkpointed[1]]
        });
        lines.push(format!(
            "checkpoints inside timed statements: {on_queries} SELECTs, {on_writes} DMLs"
        ));
        let walls: Vec<f64> = reopens.iter().map(|r| r.wall).collect();
        let replayed: usize = reopens.iter().map(|r| r.replayed_records).sum();
        let disk: u64 = reopens.iter().map(|r| r.disk_bytes).sum();
        lines.push(format!(
            "recovery_s {} s (median reopen of {walls:.4?}; {replayed} records replayed in all)",
            median(&walls).unwrap_or(0.0)
        ));
        lines.push(format!(
            "disk_bytes_per_stmt {} B ({disk} B in the data dirs after {attempted} statements)",
            disk as f64 / attempted as f64
        ));
        let bad: Vec<String> = reopens
            .iter()
            .flat_map(|r| r.failures.iter().cloned())
            .collect();
        lines.push(format!(
            "recovery check: {}",
            if bad.is_empty() {
                "clock and table counts survived every reopen".to_string()
            } else {
                bad.join("; ")
            }
        ));
        failures.extend(bad);
        Durable {
            recovery_s: median(&walls).unwrap_or(0.0),
            replayed: replayed as f64 / reopens.len() as f64,
            disk_per_stmt: disk as f64 / attempted as f64,
        }
    });

    // answer check, outside any timed window
    let mut mismatches = Vec::new();
    for e in &episodes {
        mismatches.extend(answer_check(def, e.seed, &e.ops, &e.pass.answers)?);
    }
    lines.push(format!(
        "answer check: {attempted} ops replayed on a no-statistics, no-skipping oracle; {} mismatches (float rel tol {:e})",
        mismatches.len(),
        stats::FLOAT_REL_TOL
    ));
    failures.extend(mismatches.into_iter().take(5));

    let mut layers = Vec::new();
    if let Some(t) = traced {
        if t.diverged > 0 {
            failures.push(format!(
                "{} answers differ between the plain and the traced run",
                t.diverged
            ));
        }
        let spans_path = out.join(format!("spans-{}.jsonl", def.name));
        t.spans
            .write_jsonl(&spans_path)
            .map_err(|e| format!("write spans: {e}"))?;
        lines.push(format!(
            "spans: {} written to {}",
            t.spans.spans().len(),
            spans_path.display()
        ));
        let overhead = median(&t.overheads).unwrap_or(0.0) * 100.0;
        let pct: Vec<f64> = t.overheads.iter().map(|o| o * 100.0).collect();
        lines.push(format!(
            "trace overhead: {overhead:.2}% (median over episodes of untraced vs traced statement throughput, each pair run back to back: {pct:.2?}%; the re-driven calls run between statements and are not counted)"
        ));
        layers = layer_metrics(
            &t.ledger,
            &t.spans,
            episodes.len(),
            overhead,
            durable.as_ref(),
            &populate_ms,
            &mut lines,
        );
    }

    for f in &failures {
        lines.push(format!("FAILED: {f}"));
    }
    Ok(Report {
        e2e,
        layers,
        lines,
        correct: failures.is_empty(),
        attempted,
        failed,
    })
}

/// The durable workload's recovery and disk figures.
struct Durable {
    recovery_s: f64,
    replayed: f64,
    disk_per_stmt: f64,
}

fn layer_metrics(
    l: &Ledger,
    spans: &trace::Spans,
    episodes: usize,
    overhead: f64,
    durable: Option<&Durable>,
    populate_ms: &[f64],
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let n = spans
        .spans()
        .iter()
        .filter(|s| s.name == "statement")
        .count()
        .max(1) as f64;
    let selects = l.selects.max(1) as f64;
    let span_ms = |name| spans.total_nanos(name) as f64 / 1e6;
    let stmt_wall = span_ms("statement");
    let parse_bind = span_ms("query.parse_bind");
    let optimize = span_ms("optimizer.optimize");
    let checkpoint = span_ms("wal.checkpoint");
    let mut q = l.q_errors.clone();
    q.sort_by(f64::total_cmp);
    let non_index_scans = (l.scans[0] + l.scans[1]).max(1) as f64;
    let stages = l.analyze + l.sensitivity + l.collect + l.refine;
    let (recovery_s, replayed, disk_per_stmt) = durable.map_or((0.0, 0.0, 0.0), |d| {
        (d.recovery_s, d.replayed, d.disk_per_stmt)
    });

    // self time by layer, against the summed statement wall
    let ledger = [
        ("query (parse + bind, re-driven)", parse_bind),
        (
            "jits (analysis + sensitivity + collect)",
            ms(l.analyze + l.sensitivity + l.collect),
        ),
        ("histogram (archive refine)", ms(l.refine)),
        ("optimizer (DP, re-driven)", optimize),
        ("executor (SELECT execution)", ms(l.select_exec)),
        ("storage (DML apply)", ms(l.dml_exec)),
        ("wal (checkpoint)", checkpoint),
    ];
    let attributed: f64 = ledger.iter().map(|(_, v)| v).sum();
    let residual = stmt_wall - attributed;
    lines.push(format!(
        "layer self time over {n} statements ({stmt_wall:.3} ms statement wall):"
    ));
    for (layer, v) in ledger {
        lines.push(format!(
            "  {layer:<42} {v:>12.3} ms {:>6.2}%",
            100.0 * v / stmt_wall
        ));
    }
    lines.push(format!(
        "  {:<42} {residual:>12.3} ms {:>6.2}%   (engine: WAL append, plumbing; lock wait {:.3} ms inside the walls)",
        "residual (unattributed)",
        100.0 * residual / stmt_wall,
        ms(l.lock_wait)
    ));
    lines.push(format!(
        "  {:<42} {:>12.3} ms   (benchmark bookkeeping inside statement spans)",
        "statement span self time",
        spans.self_nanos("statement") as f64 / 1e6
    ));
    lines.push(format!(
        "sample cache: {} hits of {} lookups",
        l.cache_hits, l.cache_lookups
    ));

    vec![
        metric(
            "query.parse_bind_us",
            parse_bind * 1e3 / n,
            "us",
            "mean re-driven parse + bind per statement",
        ),
        metric(
            "jits.analysis_us",
            span_ms("jits.query_analysis") * 1e3 / selects,
            "us",
            "mean re-driven Alg. 1 per SELECT",
        ),
        metric(
            "jits.candidate_groups",
            l.candidate_groups as f64,
            "count",
            "Alg. 1 candidate groups, summed",
        ),
        metric(
            "jits.sensitivity_ms",
            ms(l.sensitivity),
            "ms",
            "sensitivity stage walls, summed",
        ),
        metric(
            "jits.collect_ms",
            ms(l.collect),
            "ms",
            "collection stage walls, summed",
        ),
        metric("jits.tables_sampled", l.tables_sampled as f64, "count", ""),
        metric("jits.compile_work_units", l.compile_work, "units", ""),
        metric(
            "jits.refine_ms",
            ms(l.refine),
            "ms",
            "archive refine stage walls, summed",
        ),
        metric(
            "jits.groups_materialized",
            l.groups_materialized as f64,
            "count",
            "",
        ),
        metric(
            "jits.archive_buckets",
            l.archive_buckets as f64 / episodes.max(1) as f64,
            "count",
            "mean at the end of an episode",
        ),
        metric(
            "storage.sample_cache_hit_ratio",
            l.cache_hits as f64 / l.cache_lookups.max(1) as f64,
            "ratio",
            format!("{} of {} lookups", l.cache_hits, l.cache_lookups),
        ),
        metric(
            "storage.sample_cache_lookups",
            l.cache_lookups as f64,
            "count",
            "",
        ),
        metric(
            "storage.populate_ms",
            median(populate_ms).unwrap_or(0.0),
            "ms",
            "median over set-ups",
        ),
        metric(
            "storage.dml_apply_ms",
            ms(l.dml_exec),
            "ms",
            "DML execution walls, summed",
        ),
        metric(
            "optimizer.plan_us",
            optimize * 1e3 / selects,
            "us",
            "mean re-driven optimize per SELECT",
        ),
        metric(
            "optimizer.q_error_p90",
            percentile(&q, 90.0).unwrap_or(1.0),
            "ratio",
            format!("{} operators", q.len()),
        ),
        metric(
            "optimizer.pruned_scan_share",
            l.scans[1] as f64 / non_index_scans,
            "ratio",
            format!(
                "{} pruned of {} non-index scans",
                l.scans[1],
                l.scans[0] + l.scans[1]
            ),
        ),
        metric(
            "executor.exec_ms",
            ms(l.select_exec),
            "ms",
            "SELECT execution walls, summed",
        ),
        metric("executor.work_units", l.exec_work, "units", ""),
        metric(
            "executor.ns_per_work_unit",
            l.select_exec.as_nanos() as f64 / l.exec_work.max(1.0),
            "ns",
            "",
        ),
        metric(
            "executor.rows_returned",
            l.rows_returned as f64,
            "count",
            "",
        ),
        metric(
            "executor.scan_self_ms",
            ms(l.scan_self),
            "ms",
            "scan operator self walls",
        ),
        metric(
            "executor.join_self_ms",
            ms(l.join_self),
            "ms",
            "join operator self walls",
        ),
        metric("wal.checkpoints", l.checkpoints as f64, "count", ""),
        metric(
            "wal.checkpoint_ms",
            checkpoint / l.checkpoints.max(1) as f64,
            "ms",
            "mean per checkpoint",
        ),
        metric(
            "wal.checkpoint_bytes",
            l.checkpoint_bytes as f64 / l.checkpoints.max(1) as f64,
            "B",
            "mean segment size",
        ),
        metric("wal.log_bytes_per_stmt", l.log_bytes as f64 / n, "B", ""),
        metric("wal.replayed_records", replayed, "count", "mean per reopen"),
        metric("wal.recovery_s", recovery_s, "s", "median reopen wall"),
        metric(
            "wal.disk_bytes_per_stmt",
            disk_per_stmt,
            "B",
            "data dirs after shutdown",
        ),
        metric(
            "engine.stmt_wall_ms",
            stmt_wall,
            "ms",
            "statement spans, summed",
        ),
        metric("engine.stmt_max_ms", ms(l.stmt_max), "ms", ""),
        metric("engine.lock_wait_ms", ms(l.lock_wait), "ms", ""),
        metric(
            "engine.compile_residual_ms",
            ms(l.compile.saturating_sub(stages)),
            "ms",
            "compile wall minus the four JITS stage walls",
        ),
        metric(
            "engine.residual_ms",
            residual,
            "ms",
            "statement wall not attributed to a layer",
        ),
        metric(
            "trace_overhead_pct",
            overhead,
            "%",
            "median over episodes of paired untraced vs traced throughput",
        ),
    ]
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        std::process::exit(2);
    }
    let fp = fingerprint(&args);
    println!(
        "perfbench {}",
        fp.iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let report = match bench(&args, &out) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for m in report.e2e.iter().chain(&report.layers) {
        println!("{:<32} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for l in &report.lines {
        println!("{l}");
    }
    let shown = if args.trace {
        &report.layers
    } else {
        &report.e2e
    };
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        json_metrics(shown)
    );
    let mut record = String::from("{\"fingerprint\": {");
    let fields: Vec<String> = fp.iter().map(|(k, v)| format!("\"{k}\": {v:?}")).collect();
    let _ = write!(
        record,
        "{}}}, \"end_to_end\": {}, \"per_layer\": {}, \"result\": {result}}}",
        fields.join(", "),
        json_metrics(&report.e2e),
        json_metrics(&report.layers)
    );
    let path = out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record + "\n") {
        eprintln!("perfbench: write {}: {e}", path.display());
    }
    println!("{result}");
    if !report.correct {
        std::process::exit(1);
    }
}
