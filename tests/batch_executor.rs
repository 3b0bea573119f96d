//! Executor integration tests: on every plan shape the vectorized executor
//! must reproduce pinned goldens bit for bit — the same rows in the same
//! order, the same `ExecStats.work` bit pattern, the same node and scan
//! observations — and engine replays must stay bit-identical at any
//! collection fan-out.
//!
//! The goldens were captured while a row-at-a-time executor still ran
//! beside the vectorized one and the two agreed on every entry, so they
//! pin the output-order conventions both shared: hash-join output is probe
//! order × build-insertion order, GROUP BY emits groups in first-seen
//! order, and ORDER BY is a stable sort. A deliberate change to any of
//! them, or to a cost formula, shows up here as a golden mismatch.

use jits_repro::catalog::{runstats, Catalog, RunstatsOptions};
use jits_repro::common::{ColumnId, DataType, JitsError, Schema, TableId, Value};
use jits_repro::core::JitsConfig;
use jits_repro::engine::{Database, StatsSetting};
use jits_repro::executor::{execute, ExecOptions, ExecOutput, NodeKind};
use jits_repro::optimizer::{
    optimize, CardinalityEstimator, CatalogStatisticsProvider, CostModel, DefaultSelectivities,
    NodeEst, PhysicalPlan, ScanGroupEstimate, StatSource,
};
use jits_repro::query::{bind_statement, parse, BoundStatement};
use jits_repro::storage::Table;

/// car(1200, some NULL join keys) joins owner(100) on `ownerid = id` and —
/// for the multi-key corpus entries — additionally on `year`.
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
        ("year", DataType::Int),
    ]);
    let car_id = catalog.register_table("car", car_schema.clone()).unwrap();
    let owner_id = catalog
        .register_table("owner", owner_schema.clone())
        .unwrap();

    let mut car = Table::new("car", car_schema);
    for i in 0..1200i64 {
        let owner = if i % 11 == 0 {
            Value::Null // NULL join keys must match nothing on either path
        } else {
            Value::Int(i % 100)
        };
        let make = ["Toyota", "Honda", "Audi"][(i % 3) as usize];
        car.insert(vec![
            Value::Int(i),
            owner,
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
                Value::Int(1990 + i % 17),
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

fn plan_of(
    catalog: &Catalog,
    sql: &str,
) -> (jits_repro::query::QueryBlock, PhysicalPlan, CostModel) {
    let BoundStatement::Select(block) = bind_statement(&parse(sql).unwrap(), catalog).unwrap()
    else {
        panic!("not a SELECT: {sql}")
    };
    let provider = CatalogStatisticsProvider::new(catalog);
    let est = CardinalityEstimator::new(&provider, DefaultSelectivities::default());
    let cost = CostModel::default();
    let plan = optimize(&block, &est, &cost, catalog).unwrap();
    (block, plan, cost)
}

/// Every plan shape the optimizer can emit, plus the epilogue combinations
/// the issue calls out: ORDER BY + LIMIT, GROUP BY, NULL join keys, and a
/// multi-key join.
const CORPUS: &[&str] = &[
    "SELECT id FROM car WHERE make = 'Toyota'",
    "SELECT id, year FROM car WHERE id >= 100 AND id < 300 ORDER BY year DESC LIMIT 7",
    "SELECT make FROM car WHERE year > 2000 ORDER BY make LIMIT 5",
    "SELECT id FROM car LIMIT 0",
    "SELECT COUNT(*) FROM car WHERE year > 2000",
    "SELECT COUNT(*), SUM(year), AVG(year), MIN(id), MAX(id) FROM car WHERE make = 'Audi'",
    "SELECT make, COUNT(*), SUM(year), MIN(id), MAX(id) FROM car GROUP BY make",
    "SELECT year, COUNT(*) FROM car WHERE make = 'Toyota' GROUP BY year LIMIT 4",
    "SELECT COUNT(*) FROM car WHERE ownerid IS NULL",
    "SELECT c.id, o.name FROM car c, owner o WHERE c.ownerid = o.id AND salary >= 50000",
    "SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id AND c.year = o.year",
    "SELECT * FROM car c, owner o WHERE c.ownerid = o.id AND c.id = 7",
    "SELECT c.make, COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id \
     GROUP BY c.make LIMIT 2",
    "SELECT o.name FROM car c, owner o WHERE c.ownerid = o.id AND c.year > 2002 \
     ORDER BY o.name LIMIT 9",
];

/// FNV-1a over bytes: a digest that is stable across platforms and Rust
/// releases, unlike `std`'s `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a value's `Debug` rendering (exact for floats: `Debug` prints
/// the shortest string that round-trips to the same bits).
fn digest(x: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{x:?}").as_bytes())
}

fn run(catalog: &Catalog, tables: &[Table], sql: &str) -> ExecOutput {
    let (block, plan, cost) = plan_of(catalog, sql);
    execute(&plan, &block, tables, &cost, ExecOptions::default()).unwrap()
}

/// Per CORPUS entry: (row count, rows digest, `ExecStats.work` bits, node
/// observations digest, scan observations digest).
#[rustfmt::skip]
const CORPUS_GOLDENS: &[(usize, u64, u64, u64, u64)] = &[
    (400, 0x5cb8dd4f565a7ea5, 0x4099000000000000, 0x0c4a797fe695c63f, 0x806427efbebe70a2),
    (7, 0xe2933838c95c7aa2, 0x409aaf8adfb383d8, 0x314583b9b4d04454, 0x3aa3f5cbd1023306),
    (5, 0x80faa7faed403cee, 0x40a954fbad954e0c, 0x652501437ef73adc, 0xf710d6981647480d),
    (0, 0x09612b07b5ecb5a5, 0x409c200000000000, 0xc75b75d79fe5e29d, 0x09612b07b5ecb5a5),
    (1, 0xfaa187faa77947a3, 0x40960a0000000000, 0x652501437ef73adc, 0xf710d6981647480d),
    (1, 0xe8ab04135052c64c, 0x4095e20000000000, 0x0c4a797fe695c63f, 0x806427efbebe70a2),
    (3, 0x37ed07cc1dfe7f7a, 0x409c260000000000, 0xc75b75d79fe5e29d, 0x09612b07b5ecb5a5),
    (4, 0x85c73d481361ae31, 0x4095e80000000000, 0x0c4a797fe695c63f, 0x806427efbebe70a2),
    (1, 0xd6ad2b7b5c3af807, 0x40939e0000000000, 0x9cd22fd8acc6f321, 0xd791b8d1259abf17),
    (545, 0x8fef915d081962db, 0x40ad740000000000, 0xd646d88e8e1612a5, 0x35b9f899c60590a9),
    (1, 0x15cec92989036b4a, 0x40aa870000000000, 0x7b902bc7a735bc15, 0x09612b07b5ecb5a5),
    (1, 0x1a0fe9e019ff9579, 0x4056600000000000, 0x801cff45ed1dc72a, 0x722c3a1392db12c9),
    (2, 0x1a3dacaf7cb363eb, 0x40ae700000000000, 0xcf0f502af6443e69, 0x09612b07b5ecb5a5),
    (9, 0x431f47fd2bb2f725, 0x40a858203baaa695, 0x1bc3a9e1b7aa62b6, 0x5f53b740914f8c28),
];

/// Per CORPUS entry: each node observation's kind and charged-work bits,
/// in the executor's post-order push order.
#[rustfmt::skip]
const NODE_WORK_GOLDENS: &[&[(NodeKind, u64)]] = &[
    &[(NodeKind::SeqScan, 0x4095e00000000000)],
    &[(NodeKind::IndexScan, 0x408d600000000000)],
    &[(NodeKind::SeqScan, 0x4096080000000000)],
    &[(NodeKind::SeqScan, 0x409c200000000000)],
    &[(NodeKind::SeqScan, 0x4096080000000000)],
    &[(NodeKind::SeqScan, 0x4095e00000000000)],
    &[(NodeKind::SeqScan, 0x409c200000000000)],
    &[(NodeKind::SeqScan, 0x4095e00000000000)],
    &[(NodeKind::SeqScan, 0x40939c0000000000)],
    &[
        (NodeKind::SeqScan, 0x405f400000000000),
        (NodeKind::SeqScan, 0x409c200000000000),
        (NodeKind::HashJoin, 0x4098920000000000),
    ],
    &[
        (NodeKind::SeqScan, 0x4062c00000000000),
        (NodeKind::SeqScan, 0x409c200000000000),
        (NodeKind::HashJoin, 0x4096940000000000),
    ],
    &[(NodeKind::IndexScan, 0x4046400000000000), (NodeKind::IndexNLJoin, 0x4046400000000000)],
    &[
        (NodeKind::SeqScan, 0x4062c00000000000),
        (NodeKind::SeqScan, 0x409c200000000000),
        (NodeKind::HashJoin, 0x409e640000000000),
    ],
    &[
        (NodeKind::SeqScan, 0x4062c00000000000),
        (NodeKind::SeqScan, 0x4094f00000000000),
        (NodeKind::HashJoin, 0x4082f80000000000),
    ],
];

/// The core contract: for the optimizer's chosen plan, the executor
/// reproduces the pinned rows, work, and both observation streams bit for
/// bit. The goldens are the values the row-at-a-time and vectorized
/// executors both produced when the two were last compared.
#[test]
fn batch_matches_row_bit_for_bit_across_corpus() {
    let (catalog, tables) = setup();
    assert_eq!(CORPUS.len(), CORPUS_GOLDENS.len());
    for (sql, golden) in CORPUS.iter().zip(CORPUS_GOLDENS) {
        let out = run(&catalog, &tables, sql);
        let got = (
            out.rows.len(),
            digest(&out.rows),
            out.stats.work.to_bits(),
            digest(&out.stats.nodes),
            digest(&out.stats.scans),
        );
        assert_eq!(
            got, *golden,
            "{sql}: (rows, rows digest, work bits, nodes digest, scans digest) \
             diverged from the golden; work {}",
            out.stats.work
        );
    }
}

/// Per-operator charged work: each node observation's kind and `work`
/// slice must match the golden captured when both executors agreed (the
/// debug-build validator checks the structural side — selection-vector
/// lengths, scan monotonicity, one finite non-negative charge per node —
/// on every run of this suite), and the node slices must account for no
/// more than the total (the remainder is the sort/output epilogue).
#[test]
fn per_node_charged_work_matches_across_executors() {
    let (catalog, tables) = setup();
    assert_eq!(CORPUS.len(), NODE_WORK_GOLDENS.len());
    for (sql, golden) in CORPUS.iter().zip(NODE_WORK_GOLDENS) {
        let out = run(&catalog, &tables, sql);
        let got: Vec<(NodeKind, u64)> = out
            .stats
            .nodes
            .iter()
            .map(|n| (n.kind, n.work.to_bits()))
            .collect();
        assert_eq!(got, *golden, "per-node kinds/work diverged: {sql}");
        for n in &out.stats.nodes {
            assert!(
                n.work.is_finite() && n.work >= 0.0,
                "non-finite or negative node work: {sql} ({:?})",
                n.kind
            );
        }
        let node_sum: f64 = out.stats.nodes.iter().map(|n| n.work).sum();
        assert!(
            node_sum <= out.stats.work * (1.0 + 1e-12) + 1e-9,
            "node work slices exceed the total: {sql} ({node_sum} > {})",
            out.stats.work
        );
    }
}

/// A malformed index nested-loop plan (no equality keys) must fail with a
/// typed execution error, never a panic.
#[test]
fn keyless_index_nl_join_is_a_typed_error() {
    let (catalog, tables) = setup();
    let (block, _, cost) = plan_of(
        &catalog,
        "SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id",
    );
    let scan = |qun: usize, table: u32, base_rows: f64| ScanGroupEstimate {
        qun,
        table: TableId(table),
        pred_indices: vec![],
        selectivity: 1.0,
        base_rows,
        statlist: vec![],
        source: StatSource::Default,
    };
    let est = NodeEst {
        rows: 1200.0,
        cost: 1.0,
    };
    let plan = PhysicalPlan::IndexNLJoin {
        outer: Box::new(PhysicalPlan::SeqScan {
            scan: scan(0, 0, 1200.0),
            est,
        }),
        inner: scan(1, 1, 100.0),
        index_column: ColumnId(0),
        keys: vec![], // malformed: nothing to probe the index with
        est,
    };
    match execute(&plan, &block, &tables, &cost, ExecOptions::default()) {
        Err(JitsError::Execution(m)) => assert!(m.contains("without keys"), "{m}"),
        other => panic!("expected typed execution error, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Engine-level replay
// ---------------------------------------------------------------------------

fn build_engine_db(seed: u64) -> Database {
    let mut db = Database::new(seed);
    db.create_table(
        "car",
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("ownerid", DataType::Int),
            ("make", DataType::Str),
            ("year", DataType::Int),
        ]),
    )
    .unwrap();
    db.create_table(
        "owner",
        Schema::from_pairs(&[("id", DataType::Int), ("salary", DataType::Int)]),
    )
    .unwrap();
    db.set_primary_key("car", "id").unwrap();
    db.set_primary_key("owner", "id").unwrap();
    let car_rows = (0..2000i64)
        .map(|i| {
            vec![
                Value::Int(i),
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 200)
                },
                Value::str(if i % 3 == 0 { "Toyota" } else { "Honda" }),
                Value::Int(1990 + i % 17),
            ]
        })
        .collect();
    db.load_rows("car", car_rows).unwrap();
    let owner_rows = (0..200i64)
        .map(|i| vec![Value::Int(i), Value::Int(i * 250)])
        .collect();
    db.load_rows("owner", owner_rows).unwrap();
    db
}

fn always_collect() -> JitsConfig {
    JitsConfig {
        s_max: 0.0,
        ..JitsConfig::default()
    }
}

const SCRIPT: &[&str] = &[
    "SELECT COUNT(*) FROM car WHERE make = 'Toyota' AND year > 1995",
    "SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id AND salary > 25000",
    "SELECT make, COUNT(*) FROM car GROUP BY make",
    "SELECT id FROM car WHERE year > 2003 ORDER BY id DESC LIMIT 5",
    "UPDATE car SET year = 2007 WHERE id = 3",
    "SELECT COUNT(*) FROM car WHERE ownerid IS NULL",
    "SELECT COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id AND salary > 25000",
];

/// Per-statement trace: result rows plus the bit patterns of the two
/// deterministic work counters.
type OpTrace = Vec<(Vec<Vec<Value>>, u64, u64)>;

/// Per SCRIPT statement: (rows digest, compile-work bits, exec-work bits).
#[rustfmt::skip]
const SCRIPT_GOLDENS: &[(u64, u64, u64)] = &[
    (0xf0a6c71d1bfd000d, 0x40af4c0000000000, 0x40a1500000000000),
    (0xbd2478706bc57af3, 0x4082c40000000000, 0x40b7110000000000),
    (0xd60184dfefe7b8b6, 0x0000000000000000, 0x40a7720000000000),
    (0xf613eacc0c6f96d5, 0x40a7740000000000, 0x40ac9bd1e1f92186),
    (0x09612b07b5ecb5a5, 0x0000000000000000, 0x409f440000000000),
    (0xf96a4fb99b3a7257, 0x40a7740000000000, 0x40a03b0000000000),
    (0xbd2478706bc57af3, 0x4082c40000000000, 0x40b7110000000000),
];

/// The full query+DML script, with JITS collecting on every statement,
/// replays bit for bit against the goldens captured when the row-at-a-time
/// and vectorized executors both produced them.
#[test]
fn engine_ab_replays_bit_for_bit() {
    let mut db = build_engine_db(52);
    db.set_setting(StatsSetting::Jits(always_collect()));
    assert_eq!(SCRIPT.len(), SCRIPT_GOLDENS.len());
    for (sql, golden) in SCRIPT.iter().zip(SCRIPT_GOLDENS) {
        let r = db.execute(sql).unwrap();
        let got = (
            digest(&r.rows),
            r.metrics.compile_work.to_bits(),
            r.metrics.exec_work.to_bits(),
        );
        assert_eq!(
            got, *golden,
            "{sql}: (rows digest, compile work bits, exec work bits) diverged"
        );
    }
}

/// Replaying through shared sessions stays bit-deterministic at any
/// collection fan-out, and the executor-fed access-path counters land in
/// the deterministic metrics export.
#[test]
fn executor_bit_identical_at_1_and_8_collect_threads() {
    let drive = |threads: usize| -> (OpTrace, String) {
        let mut db = build_engine_db(53);
        db.set_setting(StatsSetting::Jits(JitsConfig {
            collect_threads: threads,
            ..always_collect()
        }));
        let shared = db.into_shared();
        let mut session = shared.session();
        let traces = SCRIPT
            .iter()
            .map(|sql| {
                let r = session.execute(sql).unwrap();
                (
                    r.rows,
                    r.metrics.compile_work.to_bits(),
                    r.metrics.exec_work.to_bits(),
                )
            })
            .collect();
        (traces, shared.metrics_json(false))
    };
    let one = drive(1);
    let eight = drive(8);
    assert_eq!(one.0, eight.0, "per-op traces diverged across fan-out");
    assert_eq!(one.1, eight.1, "deterministic metrics diverged");
    assert!(one.1.contains("jits.skip.seq_scans"));
}

// ---------------------------------------------------------------------------
// Integer SUM precision
// ---------------------------------------------------------------------------

fn nums_db(rows: &[i64]) -> Database {
    let mut db = Database::new(7);
    db.create_table(
        "nums",
        Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Int)]),
    )
    .unwrap();
    db.load_rows(
        "nums",
        rows.iter()
            .enumerate()
            .map(|(i, v)| vec![Value::Int(i as i64), Value::Int(*v)])
            .collect(),
    )
    .unwrap();
    db
}

/// 2^53 is where f64 stops representing every integer: an f64 accumulator
/// would return 2^53 for this sum, losing the +1.
#[test]
fn int_sum_is_exact_past_the_f64_boundary() {
    const B: i64 = 1 << 53;
    let mut db = nums_db(&[B - 1, 1, 1, 1]);
    let r = db.execute("SELECT SUM(v) FROM nums").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(B + 2));

    // the same digits through GROUP BY accumulation
    let r = db
        .execute("SELECT id, SUM(v) FROM nums WHERE id < 2 GROUP BY id")
        .unwrap();
    assert_eq!(r.rows[0][1], Value::Int(B - 1));

    // AVG stays floating-point
    let r = db.execute("SELECT AVG(v) FROM nums WHERE id > 0").unwrap();
    assert_eq!(r.rows[0][0], Value::Float(1.0));
}

/// Overflowing i64 must not wrap or panic: the sum degrades to the f64
/// mirror.
#[test]
fn int_sum_overflow_promotes_to_float() {
    let mut db = nums_db(&[i64::MAX, i64::MAX, 5]);
    let sum = db.execute("SELECT SUM(v) FROM nums").unwrap().rows[0][0].clone();
    let Value::Float(f) = sum else {
        panic!("overflowed SUM must promote to Float, got {sum:?}")
    };
    assert!((f - (i64::MAX as f64) * 2.0).abs() / f < 1e-9);
}
