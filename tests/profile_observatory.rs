//! The estimation-quality observatory, end to end: per-operator profile
//! trees, the q-error metrics they aggregate into, the flight recorder that
//! retains them, and the system views / dumps that surface both
//! (DESIGN.md §12).

use jits::JitsConfig;
use jits_engine::StatsSetting;
use jits_obs::{Observability, QueryProfile, Volatility};
use jits_workload::{
    generate_workload, prepare, setup_database, DataGenConfig, Setting, WorkloadSpec,
};

/// The paper's §4.1 four-table query: three joins plus five predicates,
/// enough plan to make a profile tree worth reading.
const PAPER_QUERY: &str = "SELECT o.name, driver, damage \
    FROM car as c, accidents as a, demographics as d, owner as o \
    WHERE d.ownerid = o.id AND a.carid = c.id AND c.ownerid = o.id \
    AND make = 'Toyota' AND model = 'Camry' AND city = 'Ottawa' \
    AND country = 'CA' AND salary > 5000";

fn datagen() -> DataGenConfig {
    DataGenConfig {
        scale: 0.002,
        seed: 0x0B5E,
    }
}

/// The deterministic skeleton of a profile: everything except the volatile
/// wall fields.
fn fingerprint(p: &QueryProfile) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "clock={} session={} sql={} rows={} work={} maxq={} degraded={}\n",
        p.clock,
        p.session,
        p.sql,
        p.result_rows,
        p.total_work.to_bits(),
        p.max_q_error.to_bits(),
        p.degraded,
    );
    for n in &p.nodes {
        let _ = writeln!(
            out,
            "{} {} [{}] est={} act={} q={} work={}",
            n.depth,
            n.kind,
            n.table,
            n.est_rows.to_bits(),
            n.actual_rows.to_bits(),
            n.q_error.to_bits(),
            n.work.to_bits(),
        );
    }
    out
}

/// Masks the volatile parts of a rendered `EXPLAIN ANALYZE`: the per-node
/// `wall=<n>ns` readings.
fn mask_render(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find("wall=") {
        out.push_str(&rest[..at]);
        out.push_str("wall=_");
        let tail = &rest[at + 5..];
        let digits = tail.bytes().take_while(|b| b.is_ascii_digit()).count();
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// `fingerprint` of the paper query's profile (estimates, actuals,
/// q-errors, and work as f64 bits), captured when the row-at-a-time and
/// vectorized executors both produced it.
const PAPER_PROFILE_FINGERPRINT: &str = concat!(
    "clock=1 session=0 sql=SELECT o.name, driver, damage ",
    "FROM car as c, accidents as a, demographics as d, owner as o ",
    "WHERE d.ownerid = o.id AND a.carid = c.id AND c.ownerid = o.id ",
    "AND make = 'Toyota' AND model = 'Camry' AND city = 'Ottawa' ",
    "AND country = 'CA' AND salary > 5000 ",
    "rows=606 work=4672735027170115584 maxq=4607435808556924716 degraded=false\n",
    "0 index_nl_join [accidents] est=4648428942795014710 act=4648541648190439424 q=4607279698703540314 work=4667320757037039616\n",
    "1 hash_join [] est=4641165850879115632 act=4641557550330806272 q=4607435808556924716 work=4656614262561570816\n",
    "2 hash_join [] est=4648453687260217344 act=4648691181771816960 q=4607386440930787548 work=4660041440305348608\n",
    "3 seq_scan [demographics] est=4648453687260217344 act=4648691181771816960 q=4607386440930787548 work=4657301457328930816\n",
    "3 seq_scan [owner] est=4656510908468559872 act=4656510908468559872 q=4607182418800017408 work=4658815484840378368\n",
    "2 pruned_scan [car] est=4649051680848239133 act=4649130986422927360 q=4607243571560084476 work=4659265185096138752\n",
);

/// The paper query's `EXPLAIN ANALYZE` with walls masked, captured when
/// both executors rendered it (its header then named the executor; that
/// label is gone, the rest is unchanged).
const PAPER_EXPLAIN_ANALYZE: &str = concat!(
    "EXPLAIN ANALYZE: 606 rows, work 25487, max q-error 1.06\n",
    "  index_nl_join on accidents (est=593.2 actual=606.0 q-error=1.02 work=11087 wall=_ns)\n",
    "    hash_join (est=197.9 actual=209.0 q-error=1.06 work=2024 wall=_ns)\n",
    "      hash_join (est=596.0 actual=623.0 q-error=1.05 work=3558 wall=_ns)\n",
    "        seq_scan on demographics (est=596.0 actual=623.0 q-error=1.05 work=2312 wall=_ns)\n",
    "        seq_scan on owner (est=2000.0 actual=2000.0 q-error=1.00 work=3000 wall=_ns)\n",
    "      pruned_scan on car (est=664.0 actual=673.0 q-error=1.01 work=3204 wall=_ns)\n",
);

fn paper_db() -> jits_engine::Database {
    let mut db = setup_database(&datagen()).unwrap();
    prepare(&mut db, &Setting::Jits(JitsConfig::default()), &[]).unwrap();
    db
}

#[test]
fn profile_trees_identical_row_vs_batch() {
    let profile = paper_db()
        .execute(PAPER_QUERY)
        .unwrap()
        .metrics
        .profile
        .expect("profiling is on by default");
    let joins = profile
        .nodes
        .iter()
        .filter(|n| n.kind.contains("join"))
        .count();
    assert!(
        joins >= 3,
        "four tables need three joins: {:#?}",
        profile.nodes
    );
    assert!(
        profile.nodes.iter().all(|n| n.q_error >= 1.0),
        "q-errors are clamped to [1, cap]"
    );
    // the deterministic skeleton must match the golden bit for bit
    assert_eq!(fingerprint(&profile), PAPER_PROFILE_FINGERPRINT);
}

#[test]
fn explain_analyze_shows_per_operator_rows_bit_identically() {
    let text = paper_db().explain_analyze(PAPER_QUERY).unwrap();
    assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
    assert!(text.contains("max q-error"), "{text}");
    assert!(text.contains("est="), "{text}");
    assert!(text.contains("actual="), "{text}");
    assert!(text.contains("q-error="), "{text}");
    assert!(text.contains("_scan"), "scans must appear: {text}");
    assert!(text.contains("join"), "joins must appear: {text}");
    // with walls masked, the render matches the golden byte for byte
    assert_eq!(mask_render(&text), PAPER_EXPLAIN_ANALYZE);
}

/// Samples recorded by the three collection-phase latency histograms.
fn collect_histogram_counts(obs: &Observability) -> [u64; 3] {
    [
        "jits.collect.table_nanos",
        "jits.collect.gather_nanos",
        "jits.collect.eval_nanos",
    ]
    .map(|name| obs.registry.histogram(name, Volatility::Volatile).count())
}

/// The collection-phase histograms are fed whether or not tracing is on:
/// one collecting SELECT with tracing off (the default) records per-table,
/// gather, and eval timings on both the single-owner and session paths.
#[test]
fn collect_histograms_fill_with_tracing_off() {
    let collect_all = || {
        let mut db = setup_database(&datagen()).unwrap();
        db.set_setting(StatsSetting::Jits(JitsConfig {
            s_max: 0.0,
            ..JitsConfig::default()
        }));
        assert!(!db.obs().tracer.enabled(), "tracing is off by default");
        db
    };

    let mut db = collect_all();
    let r = db.execute(PAPER_QUERY).unwrap();
    assert!(r.metrics.sampled_tables > 0, "the SELECT must collect");
    let counts = collect_histogram_counts(db.obs());
    assert!(counts.iter().all(|&c| c > 0), "Database: {counts:?}");

    let shared = collect_all().into_shared();
    let r = shared.session().execute(PAPER_QUERY).unwrap();
    assert!(r.metrics.sampled_tables > 0, "the SELECT must collect");
    let counts = collect_histogram_counts(shared.obs());
    assert!(counts.iter().all(|&c| c > 0), "Session: {counts:?}");
}

#[test]
fn qerror_metrics_shrink_after_collection_pass() {
    let mut db = setup_database(&datagen()).unwrap();

    // pass 1: no statistics — the optimizer guesses, and the observatory
    // must record how badly
    db.set_setting(StatsSetting::NoStatistics);
    db.execute(PAPER_QUERY).unwrap();
    let before = db
        .obs()
        .registry
        .gauge("jits.qerror.last_max_milli", Volatility::Deterministic)
        .get();
    let scans_before: Vec<(String, f64)> = db.obs().qerror_last().into_iter().collect();
    assert!(!scans_before.is_empty(), "scan q-errors must be recorded");
    assert!(
        before > 2_000,
        "without statistics the paper query must mispredict (got {before} milli-q)"
    );

    // pass 2: JITS collects just-in-time for the same query — estimates
    // (and the recorded q-errors) must improve
    db.set_setting(StatsSetting::Jits(JitsConfig::default()));
    db.execute(PAPER_QUERY).unwrap();
    let after = db
        .obs()
        .registry
        .gauge("jits.qerror.last_max_milli", Volatility::Deterministic)
        .get();
    assert!(
        after < before,
        "a collection pass must shrink the recorded q-error: {before} -> {after}"
    );

    let statements = db
        .obs()
        .registry
        .counter("jits.profile.statements", Volatility::Deterministic)
        .get();
    assert_eq!(statements, 2, "both executions were profiled");
    // the second (JITS) plan may be fully index-driven, where inner index
    // probes ride inside the join nodes — only the no-stats pass is
    // guaranteed to expose all four base scans
    let scans = db
        .obs()
        .registry
        .counter("jits.qerror.scans", Volatility::Deterministic)
        .get();
    assert!(scans >= 4, "the no-stats pass scans four tables: {scans}");
}

#[test]
fn profile_and_flight_views_return_rows() {
    let mut db = setup_database(&datagen()).unwrap();
    prepare(&mut db, &Setting::Jits(JitsConfig::default()), &[]).unwrap();
    db.execute(PAPER_QUERY).unwrap();

    let profile = db.execute("SELECT * FROM jits_profile").unwrap().rows;
    assert!(
        !profile.is_empty(),
        "jits_profile must show the last profile"
    );
    assert!(profile.iter().all(|r| r.len() == 9), "{profile:#?}");

    let flight = db.execute("SELECT * FROM jits_flight").unwrap().rows;
    assert!(!flight.is_empty(), "jits_flight must retain events");
    assert!(flight.iter().all(|r| r.len() == 3), "{flight:#?}");
    let kinds: Vec<String> = flight.iter().map(|r| r[1].to_string()).collect();
    assert!(
        kinds.iter().any(|k| k.contains("profile")),
        "the executed statement's profile must be in the ring: {kinds:?}"
    );

    // system-view reads must not themselves pollute the ring with profiles
    // (they bypass planning entirely)
    let again = db.execute("SELECT * FROM jits_flight").unwrap().rows;
    assert_eq!(flight.len(), again.len());
}

#[test]
fn flight_and_qerror_accounting_replay_at_1_and_8_collect_threads() {
    let run = |threads: usize| {
        let dg = datagen();
        let ws = WorkloadSpec {
            total_ops: 24,
            dml_every: 6,
            seed: 0xF11,
        };
        let ops = generate_workload(&ws, &dg);
        let cfg = JitsConfig {
            collect_threads: threads,
            ..JitsConfig::default()
        };
        let mut db = setup_database(&dg).unwrap();
        prepare(&mut db, &Setting::Jits(cfg), &ops).unwrap();
        let shared = db.into_shared();
        let mut session = shared.session();
        for op in &ops {
            session.execute(&op.sql).unwrap();
        }
        let obs = shared.obs().clone();
        let flight = obs.flight.to_json(false);
        let scans = obs
            .registry
            .counter("jits.qerror.scans", Volatility::Deterministic)
            .get();
        let mispredicted = obs
            .registry
            .counter("jits.qerror.mispredicted_scans", Volatility::Deterministic)
            .get();
        let last_max = obs
            .registry
            .gauge("jits.qerror.last_max_milli", Volatility::Deterministic)
            .get();
        (flight, scans, mispredicted, last_max)
    };
    let one = run(1);
    let eight = run(8);
    assert_eq!(
        one.0, eight.0,
        "masked flight dumps must be byte-equal at any collection parallelism"
    );
    assert_eq!((one.1, one.2, one.3), (eight.1, eight.2, eight.3));
    assert!(one.1 > 0, "the workload must profile some scans");
}

#[test]
fn anomaly_auto_dump_writes_flight_json() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("flight");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("observatory-anomaly.json");
    let _ = std::fs::remove_file(&path);

    let mut db = setup_database(&datagen()).unwrap();
    db.set_setting(StatsSetting::NoStatistics);
    db.obs().flight.set_auto_dump(Some(path.clone()));
    // without statistics the paper query's q-error crosses the default
    // threshold, which must trip an anomaly and the auto-dump
    db.execute(PAPER_QUERY).unwrap();

    let dump = std::fs::read_to_string(&path).expect("anomaly must write the dump");
    assert!(dump.contains("\"anomaly\""), "{dump}");
    assert!(dump.contains("q-error"), "{dump}");
    assert!(dump.contains("\"profile\""), "{dump}");
    let _ = std::fs::remove_file(&path);
}
