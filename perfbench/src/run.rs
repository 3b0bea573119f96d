//! The closed loop: one client sends the next statement only after the
//! previous one returned. The plain run measures; the traced run records
//! spans and re-drives the pure layer calls between statements.

use crate::stats::Digest;
use crate::trace::Spans;
use crate::workload::{dir_files, Engine, WorkloadDef};
use jits::{query_analysis, CollectedStats, JitsStatisticsProvider};
use jits_engine::{QueryResult, DEFAULT_CHECKPOINT_EVERY};
use jits_obs::ProfileNodeRow;
use jits_optimizer::{optimize, CardinalityEstimator, CostModel, DefaultSelectivities};
use jits_query::{bind_statement, parse, BoundStatement};
use jits_workload::WorkloadOp;
use std::path::Path;
use std::time::{Duration, Instant};

/// What one statement answered.
#[derive(Debug, Clone)]
pub enum Answer {
    /// A SELECT's result rows.
    Rows(Digest),
    /// A DML statement's affected-row count.
    Affected(usize),
    /// The statement returned an error (the message shows in mismatch
    /// reports).
    Failed(#[allow(dead_code)] String),
}

impl Answer {
    /// The answer of one `execute` call.
    pub fn of(result: &jits_common::Result<QueryResult>, is_query: bool) -> Answer {
        match result {
            Ok(r) if is_query => Answer::Rows(Digest::of(&r.rows)),
            Ok(r) => Answer::Affected(r.metrics.result_rows),
            Err(e) => Answer::Failed(e.to_string()),
        }
    }

    /// Whether two answers agree (floats within tolerance; any two
    /// failures agree, since the oracle may fail with another message).
    pub fn matches(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Rows(a), Answer::Rows(b)) => a.matches(b),
            (Answer::Affected(a), Answer::Affected(b)) => a == b,
            (Answer::Failed(_), Answer::Failed(_)) => true,
            _ => false,
        }
    }
}

/// Latencies and answers of one pass over the op stream.
#[derive(Debug, Default)]
pub struct Pass {
    /// One answer per op.
    pub answers: Vec<Answer>,
    /// Wall of each successful read statement, in ms.
    pub query_ms: Vec<f64>,
    /// Wall of each successful write statement, in ms.
    pub write_ms: Vec<f64>,
    /// Summed wall of every statement (the client's time blocked on the
    /// program; digesting answers is excluded).
    pub busy: Duration,
    /// Statements whose `execute` returned an error.
    pub failed: usize,
    /// Read and write statements whose wall includes a checkpoint.
    pub checkpointed: [usize; 2],
}

impl Pass {
    fn note(
        &mut self,
        op: &WorkloadOp,
        wall: Duration,
        result: &jits_common::Result<QueryResult>,
        checkpointed: bool,
    ) {
        self.busy += wall;
        let answer = Answer::of(result, op.is_query);
        match (&answer, op.is_query) {
            (Answer::Failed(_), _) => self.failed += 1,
            (_, true) => self.query_ms.push(wall.as_secs_f64() * 1e3),
            (_, false) => self.write_ms.push(wall.as_secs_f64() * 1e3),
        }
        self.checkpointed[usize::from(!op.is_query)] += usize::from(checkpointed);
        self.answers.push(answer);
    }

    /// Statements per second of busy wall.
    pub fn throughput(&self) -> f64 {
        self.answers.len() as f64 / self.busy.as_secs_f64()
    }
}

/// Checkpoints the engine has taken (always 0 in memory).
fn checkpoints(engine: &Engine) -> u64 {
    engine
        .obs()
        .registry
        .counter("jits.wal.checkpoints", jits_obs::Volatility::Volatile)
        .get()
}

/// Runs the op stream untraced.
pub fn plain(engine: &mut Engine, ops: &[WorkloadOp]) -> Pass {
    let mut pass = Pass::default();
    let mut taken = checkpoints(engine);
    for op in ops {
        let t = Instant::now();
        let result = engine.execute(&op.sql);
        let wall = t.elapsed();
        let now = checkpoints(engine);
        pass.note(op, wall, &result, now > taken);
        taken = now;
    }
    pass
}

/// Sums read from what the traced run's calls returned.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Read statements executed.
    pub selects: usize,
    /// Slowest statement wall.
    pub stmt_max: Duration,
    /// Reported compile walls (parse through optimize).
    pub compile: Duration,
    /// Reported Alg. 1 analysis stage walls.
    pub analyze: Duration,
    /// Reported Alg. 2–4 sensitivity stage walls.
    pub sensitivity: Duration,
    /// Reported sampling/collection stage walls.
    pub collect: Duration,
    /// Reported archive materialize + max-entropy refine stage walls.
    pub refine: Duration,
    /// Reported execution walls of SELECTs.
    pub select_exec: Duration,
    /// Reported execution walls of DML (table mutation).
    pub dml_exec: Duration,
    /// Reported lock waits.
    pub lock_wait: Duration,
    /// JITS compile work units.
    pub compile_work: f64,
    /// Executor work units of SELECTs.
    pub exec_work: f64,
    /// Rows returned by SELECTs.
    pub rows_returned: usize,
    /// Tables JITS sampled.
    pub tables_sampled: usize,
    /// Groups materialized into the archive.
    pub groups_materialized: usize,
    /// Candidate groups from the re-driven Alg. 1 analysis.
    pub candidate_groups: usize,
    /// Per-operator q-errors over all profiled plans.
    pub q_errors: Vec<f64>,
    /// Scan operators by access path: sequential, pruned, index.
    pub scans: [usize; 3],
    /// Operator self time of scans.
    pub scan_self: Duration,
    /// Operator self time of joins.
    pub join_self: Duration,
    /// Checkpoints taken.
    pub checkpoints: usize,
    /// Bytes of the checkpoint segments written.
    pub checkpoint_bytes: u64,
    /// Bytes appended to the log.
    pub log_bytes: u64,
    /// Sample-cache lookups and hits over the run.
    pub cache_lookups: u64,
    /// Sample-cache hits over the run.
    pub cache_hits: u64,
    /// QSS archive buckets at the end of each episode, summed.
    pub archive_buckets: usize,
}

impl Ledger {
    fn note(&mut self, op: &WorkloadOp, r: &QueryResult) {
        let m = &r.metrics;
        self.compile += m.compile_wall;
        self.analyze += m.analyze_wall;
        self.sensitivity += m.sensitivity_wall;
        self.collect += m.collect_wall;
        self.refine += m.refine_wall;
        self.lock_wait += m.lock_wait;
        self.compile_work += m.compile_work;
        self.tables_sampled += m.sampled_tables;
        self.groups_materialized += m.materialized_groups;
        if !op.is_query {
            self.dml_exec += m.exec_wall;
            return;
        }
        self.selects += 1;
        self.select_exec += m.exec_wall;
        self.exec_work += m.exec_work;
        self.rows_returned += r.rows.len();
        if let Some(profile) = &m.profile {
            for (node, self_nanos) in profile.nodes.iter().zip(operator_self(&profile.nodes)) {
                self.q_errors.push(node.q_error);
                let self_time = Duration::from_nanos(self_nanos);
                match node.kind.as_str() {
                    "seq_scan" => self.scans[0] += 1,
                    "pruned_scan" => self.scans[1] += 1,
                    "index_scan" => self.scans[2] += 1,
                    _ => {}
                }
                if node.kind.ends_with("_scan") {
                    self.scan_self += self_time;
                } else {
                    self.join_self += self_time;
                }
            }
        }
    }
}

/// Self wall of each operator of a preorder profile: its inclusive wall
/// minus its direct children's.
pub fn operator_self(nodes: &[ProfileNodeRow]) -> Vec<u64> {
    nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let children: u64 = nodes[i + 1..]
                .iter()
                .take_while(|c| c.depth > n.depth)
                .filter(|c| c.depth == n.depth + 1)
                .map(|c| c.wall_nanos)
                .sum();
            n.wall_nanos.saturating_sub(children)
        })
        .collect()
}

fn cache_counts(engine: &Engine) -> (u64, u64) {
    let reg = &engine.obs().registry;
    let get = |name: &str| reg.counter(name, jits_obs::Volatility::Deterministic).get();
    let hits = get("jits.samplecache.hits");
    (
        hits + get("jits.samplecache.misses") + get("jits.samplecache.stale_redraws"),
        hits,
    )
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Runs the op stream with spans. Each statement gets a `statement` span
/// around `engine.execute` (and, for the durable engine, the checkpoint the
/// benchmark takes at the engine's own cadence — automatic checkpoints are
/// off in this run so their stall becomes a span of its own). Between
/// statements, outside those spans, parse + bind, Alg. 1 analysis and the
/// optimizer are re-driven as pure calls on the statement's text.
///
/// Sums go into `ledger` and spans into `spans`, whose statement ids
/// continue from `first_stmt`, so the episodes of a run share both.
pub fn traced(
    engine: &mut Engine,
    ops: &[WorkloadOp],
    def: &WorkloadDef,
    dir: Option<&Path>,
    ledger: &mut Ledger,
    spans: &mut Spans,
    first_stmt: usize,
) -> Pass {
    let mut pass = Pass::default();
    let cfg = def.jits_config();
    let (lookups0, hits0) = cache_counts(engine);
    let log = dir.map(|d| d.join(jits_wal::WAL_FILE));
    let mut log_base = log.as_deref().map_or(0, file_len);
    if dir.is_some() {
        engine.set_checkpoint_every(0);
    }
    for (i, op) in ops.iter().enumerate() {
        let stmt = first_stmt + i;
        let start = Instant::now();
        let mut children = Vec::with_capacity(2);
        let mut checkpointed = false;
        if let (Some(dir), Some(log)) = (dir, &log) {
            if i > 0 && (i as u64).is_multiple_of(DEFAULT_CHECKPOINT_EVERY) {
                ledger.log_bytes += file_len(log).saturating_sub(log_base);
                let (done, id) = spans.time("wal.checkpoint", None, stmt, || engine.checkpoint());
                children.push(id);
                checkpointed = true;
                if done.is_ok() {
                    ledger.checkpoints += 1;
                    ledger.checkpoint_bytes += newest_segment(dir);
                }
                log_base = file_len(log);
            }
        }
        let (result, id) = spans.time("engine.execute", None, stmt, || engine.execute(&op.sql));
        children.push(id);
        let end = Instant::now();
        let root = spans.record("statement", start, end, None, stmt);
        for c in children {
            spans.set_parent(c, root);
        }
        let wall = end - start;
        ledger.stmt_max = ledger.stmt_max.max(wall);
        if let Ok(r) = &result {
            ledger.note(op, r);
        }
        pass.note(op, wall, &result, checkpointed);
        drop(result);

        // re-driven pure calls, between statements
        let (bound, _) = spans.time("query.parse_bind", None, stmt, || {
            engine.with_state(|catalog, _, _| bind_statement(&parse(&op.sql)?, catalog))
        });
        if let Ok(BoundStatement::Select(block)) = bound {
            let (groups, _) = spans.time("jits.query_analysis", None, stmt, || {
                query_analysis(&block, cfg.max_group_enumeration)
            });
            ledger.candidate_groups += groups.len();
            spans.time("optimizer.optimize", None, stmt, || {
                engine.with_state(|catalog, tables, archive| {
                    let fresh = CollectedStats::default();
                    let provider = JitsStatisticsProvider::new(&fresh, archive, catalog, tables)
                        .with_accuracy_gate(cfg.archive_accuracy_gate)
                        .with_superset_inference(cfg.infer_from_supersets);
                    let est = CardinalityEstimator::new(&provider, DefaultSelectivities::default());
                    optimize(&block, &est, &CostModel::default(), catalog).is_ok()
                })
            });
        }
    }
    if let Some(log) = &log {
        ledger.log_bytes += file_len(log).saturating_sub(log_base);
    }
    let (lookups1, hits1) = cache_counts(engine);
    ledger.cache_lookups += lookups1 - lookups0;
    ledger.cache_hits += hits1 - hits0;
    ledger.archive_buckets += engine.with_state(|_, _, archive| archive.total_buckets());
    pass
}

/// Size of the newest checkpoint segment in a data dir.
fn newest_segment(dir: &Path) -> u64 {
    dir_files(dir)
        .into_iter()
        .rfind(|(p, _)| p.extension().is_some_and(|e| e == "seg"))
        .map_or(0, |(_, len)| len)
}
