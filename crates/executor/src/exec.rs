//! Execution results and options, plus the per-row helpers the evaluator
//! ([`crate::batch`]) builds on: predicate matching, zone-map and index
//! interval merging, scan observation recording, and aggregate
//! accumulation.

use crate::monitor::{ExecStats, NodeKind, NodeObservation, ScanObservation};
use jits_common::{ColumnId, Interval, JitsError, Result, Value};
use jits_optimizer::ScanGroupEstimate;
use jits_query::ast::AggFunc;
use jits_query::{PredKind, QueryBlock};
use jits_storage::{Row, RowId, Table};

/// The result of executing a SELECT block.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// Projected result rows.
    pub rows: Vec<Vec<Value>>,
    /// Execution statistics (work + observations).
    pub stats: ExecStats,
}

/// Per-execution options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Whether pruned scans physically skip zone-map-pruned blocks. The
    /// skip list is computed and work is charged from it either way, so
    /// rows, work, and observations are bit-identical on and off; the knob
    /// only changes wall-clock time.
    pub data_skipping: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            data_skipping: true,
        }
    }
}

/// Index of `qun` within a covered-quantifier list; a typed error (not a
/// panic) when a malformed plan references an uncovered quantifier.
pub(crate) fn position_in(quns: &[usize], qun: usize) -> Result<usize> {
    quns.iter().position(|q| *q == qun).ok_or_else(|| {
        JitsError::Execution(format!("quantifier q{qun} is not covered by the batch"))
    })
}

pub(crate) fn table_of<'a>(
    tables: &'a [Table],
    block: &QueryBlock,
    qun: usize,
) -> Result<&'a Table> {
    let tid = block.quns[qun].table;
    tables
        .get(tid.index())
        .ok_or_else(|| JitsError::Execution(format!("table {tid} missing from execution context")))
}

/// Whether a row satisfies all the given local predicates.
pub(crate) fn matches_preds(
    table: &Table,
    row: RowId,
    block: &QueryBlock,
    pred_indices: &[usize],
) -> bool {
    pred_indices.iter().all(|&i| {
        let p = &block.local_predicates[i];
        p.matches(&table.value(row, p.column))
    })
}

/// The per-column zone-map constraints of a scan's predicate group: every
/// interval predicate, merged per column by intersection.
pub(crate) fn zone_constraints(
    block: &QueryBlock,
    pred_indices: &[usize],
) -> Vec<(ColumnId, Interval)> {
    let mut merged: std::collections::BTreeMap<ColumnId, Interval> = Default::default();
    for &i in pred_indices {
        let p = &block.local_predicates[i];
        if let PredKind::Interval(iv) = &p.kind {
            let next = match merged.remove(&p.column) {
                Some(existing) => existing.intersect(iv),
                None => iv.clone(),
            };
            merged.insert(p.column, next);
        }
    }
    merged.into_iter().collect()
}

/// The merged index-driving interval for `column` among the scan's
/// predicates.
pub(crate) fn index_interval(
    block: &QueryBlock,
    pred_indices: &[usize],
    column: ColumnId,
) -> Result<Interval> {
    let mut interval: Option<Interval> = None;
    for &i in pred_indices {
        let p = &block.local_predicates[i];
        if p.column != column {
            continue;
        }
        if let PredKind::Interval(iv) = &p.kind {
            interval = Some(match interval {
                Some(existing) => existing.intersect(iv),
                None => iv.clone(),
            });
        }
    }
    interval.ok_or_else(|| {
        JitsError::Execution(format!("index scan on {column} has no interval predicate"))
    })
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn record_scan(
    stats: &mut ExecStats,
    scan: &ScanGroupEstimate,
    kind: NodeKind,
    est_rows: f64,
    actual: usize,
    table: &Table,
    work: f64,
    wall_nanos: u64,
) {
    stats.nodes.push(NodeObservation {
        kind,
        est_rows,
        actual_rows: actual as f64,
        work,
    });
    stats.node_walls.push(wall_nanos);
    if !scan.pred_indices.is_empty() {
        stats.scans.push(ScanObservation {
            qun: scan.qun,
            table: scan.table,
            pred_indices: scan.pred_indices.clone(),
            est_selectivity: scan.selectivity,
            statlist: scan.statlist.clone(),
            source: scan.source,
            actual_rows: actual as f64,
            table_rows: table.row_count() as f64,
        });
    }
}

/// A streaming accumulator for one aggregate.
///
/// Integer inputs additionally accumulate in a checked `i64` so pure-integer
/// `SUM` stays exact past 2^53 (the `f64` mirror still drives `AVG` and the
/// float/overflow fallbacks).
#[derive(Debug, Clone)]
pub(crate) struct AggAcc {
    count: i64,
    sum: f64,
    int_sum: i64,
    int_exact: bool,
    any_float: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggAcc {
    pub(crate) fn new() -> Self {
        AggAcc {
            count: 0,
            sum: 0.0,
            int_sum: 0,
            int_exact: true,
            any_float: false,
            min: None,
            max: None,
        }
    }

    pub(crate) fn push(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(x) = v.as_f64() {
            self.any_float |= matches!(v, Value::Float(_));
            self.sum += x;
        }
        if let Value::Int(i) = v {
            match self.int_sum.checked_add(i) {
                Some(s) => self.int_sum = s,
                None => self.int_exact = false,
            }
        }
        if self
            .min
            .as_ref()
            .is_none_or(|m| v.cmp_total(m) == std::cmp::Ordering::Less)
        {
            self.min = Some(v.clone());
        }
        if self
            .max
            .as_ref()
            .is_none_or(|m| v.cmp_total(m) == std::cmp::Ordering::Greater)
        {
            self.max = Some(v);
        }
    }

    pub(crate) fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if self.any_float {
                    Value::Float(self.sum)
                } else if self.int_exact {
                    Value::Int(self.int_sum)
                } else {
                    // pure-int input overflowed i64: degrade to the float
                    // mirror rather than wrapping
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Feeds one input value to an accumulator, surfacing the typed error the
/// executor reports for `SUM`/`AVG` over non-numeric input.
pub(crate) fn accumulate(acc: &mut AggAcc, func: AggFunc, col: ColumnId, v: Value) -> Result<()> {
    if matches!(func, AggFunc::Sum | AggFunc::Avg) && !v.is_null() && v.as_f64().is_none() {
        return Err(JitsError::Execution(format!(
            "{func}({col}) over non-numeric value"
        )));
    }
    acc.push(v);
    Ok(())
}

/// Emits one row per group in first-seen order.
pub(crate) fn finish_groups(
    items: &[jits_query::qgm::GroupItem],
    order: Vec<Vec<Value>>,
    accs: Vec<(Vec<AggAcc>, i64)>,
) -> Vec<Row> {
    use jits_query::qgm::GroupItem;
    order
        .into_iter()
        .zip(accs)
        .map(|(key, (group_accs, star))| {
            items
                .iter()
                .enumerate()
                .map(|(i, item)| match item {
                    GroupItem::Key(k) => key[*k].clone(),
                    GroupItem::Agg(a) => match a.col {
                        None => Value::Int(star),
                        Some(_) => group_accs[i].finish(a.func),
                    },
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jits_catalog::{runstats, Catalog, RunstatsOptions};
    use jits_common::{DataType, Schema};
    use jits_optimizer::{
        optimize, CardinalityEstimator, CatalogStatisticsProvider, CostModel, DefaultSelectivities,
    };
    use jits_query::{bind_statement, parse, BoundStatement};

    /// car(1000) with FK ownerid -> owner(100, PK indexed); make correlates
    /// with owner bucket.
    fn setup() -> (Catalog, Vec<Table>) {
        let mut catalog = Catalog::new();
        let car_schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("ownerid", DataType::Int),
            ("make", DataType::Str),
            ("year", DataType::Int),
        ]);
        let owner_schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("salary", DataType::Int),
        ]);
        let car_id = catalog.register_table("car", car_schema.clone()).unwrap();
        let owner_id = catalog
            .register_table("owner", owner_schema.clone())
            .unwrap();

        let mut car = Table::new("car", car_schema);
        for i in 0..1000i64 {
            let make = if i % 5 == 0 { "Toyota" } else { "Honda" };
            car.insert(vec![
                Value::Int(i),
                Value::Int(i % 100),
                Value::str(make),
                Value::Int(1990 + i % 17),
            ])
            .unwrap();
        }
        let mut owner = Table::new("owner", owner_schema);
        for i in 0..100i64 {
            owner
                .insert(vec![
                    Value::Int(i),
                    Value::str(format!("owner{i}")),
                    Value::Int(i * 1000),
                ])
                .unwrap();
        }
        owner.create_index(ColumnId(0)).unwrap();
        catalog.add_index(owner_id, ColumnId(0)).unwrap();
        car.create_index(ColumnId(0)).unwrap();
        catalog.add_index(car_id, ColumnId(0)).unwrap();

        let (ts, cs) = runstats(&car, RunstatsOptions::default(), 1);
        catalog.set_stats(car_id, ts, cs).unwrap();
        let (ts, cs) = runstats(&owner, RunstatsOptions::default(), 1);
        catalog.set_stats(owner_id, ts, cs).unwrap();
        (catalog, vec![car, owner])
    }

    fn run_sql(catalog: &Catalog, tables: &[Table], sql: &str) -> ExecOutput {
        let BoundStatement::Select(block) = bind_statement(&parse(sql).unwrap(), catalog).unwrap()
        else {
            panic!()
        };
        let provider = CatalogStatisticsProvider::new(catalog);
        let est = CardinalityEstimator::new(&provider, DefaultSelectivities::default());
        let cost = CostModel::default();
        let plan = optimize(&block, &est, &cost, catalog).unwrap();
        crate::execute(&plan, &block, tables, &cost, ExecOptions::default()).unwrap()
    }

    #[test]
    fn filter_scan_returns_matching_rows() {
        let (catalog, tables) = setup();
        let out = run_sql(
            &catalog,
            &tables,
            "SELECT id FROM car WHERE make = 'Toyota'",
        );
        assert_eq!(out.rows.len(), 200);
        assert!(out.stats.work > 0.0);
        // observation recorded with correct actual selectivity
        let scan = &out.stats.scans[0];
        assert_eq!(scan.actual_rows, 200.0);
        assert!((scan.actual_selectivity() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn count_star() {
        let (catalog, tables) = setup();
        let out = run_sql(
            &catalog,
            &tables,
            "SELECT COUNT(*) FROM car WHERE year > 2000",
        );
        assert_eq!(out.rows.len(), 1);
        let Value::Int(n) = out.rows[0][0] else {
            panic!()
        };
        // years 2001..=2006 -> 6 of 17 buckets
        let expected: i64 = (0..1000).filter(|i| 1990 + i % 17 > 2000).count() as i64;
        assert_eq!(n, expected);
    }

    #[test]
    fn join_results_match_naive_evaluation() {
        let (catalog, tables) = setup();
        let out = run_sql(
            &catalog,
            &tables,
            "SELECT c.id, o.name FROM car c, owner o \
             WHERE c.ownerid = o.id AND make = 'Toyota' AND salary >= 50000",
        );
        // naive: Toyota cars are ids 0,5,10,...,995; ownerid = id % 100;
        // salary >= 50000 -> owner id >= 50
        let expected = (0..1000i64)
            .filter(|i| i % 5 == 0 && (i % 100) >= 50)
            .count();
        assert_eq!(out.rows.len(), expected);
        // join observation recorded
        assert!(out
            .stats
            .nodes
            .iter()
            .any(|n| matches!(n.kind, NodeKind::HashJoin | NodeKind::IndexNLJoin)));
    }

    #[test]
    fn projection_wildcard_has_all_columns() {
        let (catalog, tables) = setup();
        let out = run_sql(
            &catalog,
            &tables,
            "SELECT * FROM car c, owner o WHERE c.ownerid = o.id AND c.id = 7",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].len(), 4 + 3);
        assert_eq!(out.rows[0][0], Value::Int(7));
        assert_eq!(out.rows[0][4], Value::Int(7)); // owner.id == ownerid
    }

    #[test]
    fn tombstoned_rows_invisible() {
        let (catalog, mut tables) = setup();
        // delete all Toyotas
        let doomed: Vec<RowId> = tables[0]
            .scan()
            .filter(|r| tables[0].value(*r, ColumnId(2)) == Value::str("Toyota"))
            .collect();
        for r in doomed {
            tables[0].delete(r);
        }
        let out = run_sql(
            &catalog,
            &tables,
            "SELECT id FROM car WHERE make = 'Toyota'",
        );
        assert!(out.rows.is_empty());
    }

    #[test]
    fn observed_error_factor_reflects_stale_stats() {
        let (catalog, mut tables) = setup();
        // churn the data after stats were collected: make everything Toyota
        let all: Vec<RowId> = tables[0].scan().collect();
        for r in all {
            tables[0]
                .update(r, ColumnId(2), Value::str("Toyota"))
                .unwrap();
        }
        let out = run_sql(
            &catalog,
            &tables,
            "SELECT id FROM car WHERE make = 'Toyota'",
        );
        assert_eq!(out.rows.len(), 1000);
        let scan = &out.stats.scans[0];
        // estimate said ~0.2, actual is 1.0 -> errorFactor ~0.2
        assert!(scan.error_factor() < 0.3, "ef {}", scan.error_factor());
    }
}

#[cfg(test)]
mod additional_tests {
    use super::*;
    use jits_catalog::{runstats, Catalog, RunstatsOptions};
    use jits_common::{DataType, Schema};
    use jits_optimizer::{
        optimize, CardinalityEstimator, CatalogStatisticsProvider, CostModel, DefaultSelectivities,
    };
    use jits_query::{bind_statement, parse, BoundStatement};

    fn setup() -> (Catalog, Vec<Table>) {
        let mut catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("grp", DataType::Int),
            ("v", DataType::Int),
        ]);
        let tid = catalog.register_table("t", schema.clone()).unwrap();
        let mut t = Table::new("t", schema);
        for i in 0..100i64 {
            // rows 10 and 20 carry NULL join keys
            let grp = if i == 10 || i == 20 {
                Value::Null
            } else {
                Value::Int(i % 5)
            };
            t.insert(vec![Value::Int(i), grp, Value::Int(i * 2)])
                .unwrap();
        }
        let (ts, cs) = runstats(&t, RunstatsOptions::default(), 1);
        catalog.set_stats(tid, ts, cs).unwrap();

        let other = Schema::from_pairs(&[("grp", DataType::Int), ("name", DataType::Str)]);
        let oid = catalog.register_table("g", other.clone()).unwrap();
        let mut o = Table::new("g", other);
        for i in 0..5i64 {
            o.insert(vec![Value::Int(i), Value::str(format!("g{i}"))])
                .unwrap();
        }
        let (ts, cs) = runstats(&o, RunstatsOptions::default(), 1);
        catalog.set_stats(oid, ts, cs).unwrap();
        (catalog, vec![t, o])
    }

    fn run_sql(catalog: &Catalog, tables: &[Table], sql: &str) -> ExecOutput {
        let BoundStatement::Select(block) = bind_statement(&parse(sql).unwrap(), catalog).unwrap()
        else {
            panic!()
        };
        let provider = CatalogStatisticsProvider::new(catalog);
        let est = CardinalityEstimator::new(&provider, DefaultSelectivities::default());
        let cost = CostModel::default();
        let plan = optimize(&block, &est, &cost, catalog).unwrap();
        crate::execute(&plan, &block, tables, &cost, ExecOptions::default()).unwrap()
    }

    #[test]
    fn null_join_keys_never_match() {
        let (catalog, tables) = setup();
        let out = run_sql(
            &catalog,
            &tables,
            "SELECT COUNT(*) FROM t, g WHERE t.grp = g.grp",
        );
        // 98 non-NULL rows each match exactly one group row
        assert_eq!(out.rows[0][0], Value::Int(98));
    }

    #[test]
    fn order_by_after_join() {
        let (catalog, tables) = setup();
        let out = run_sql(
            &catalog,
            &tables,
            "SELECT t.id FROM t, g WHERE t.grp = g.grp AND t.id < 7 ORDER BY t.v DESC LIMIT 3",
        );
        let ids: Vec<i64> = out.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![6, 5, 4]);
    }

    #[test]
    fn work_increases_with_sort() {
        let (catalog, tables) = setup();
        let plain = run_sql(&catalog, &tables, "SELECT id FROM t WHERE v > 10");
        let sorted = run_sql(
            &catalog,
            &tables,
            "SELECT id FROM t WHERE v > 10 ORDER BY id",
        );
        assert!(sorted.stats.work > plain.stats.work);
    }
}
