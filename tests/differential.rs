//! Differential testing: the full engine (parser → optimizer → executor)
//! against a brute-force nested-loop reference evaluator, over randomized
//! databases (including NULL join keys), predicates, and statistics
//! settings. Whatever plan the optimizer picks, the rows must match: filter
//! and join counts, `ORDER BY … LIMIT k` sort keys, and `GROUP BY`
//! aggregates.

use std::collections::{BTreeMap, BTreeSet};

use jits_repro::common::{DataType, Schema, SplitMix64, Value};
use jits_repro::core::JitsConfig;
use jits_repro::engine::{Database, StatsSetting};
use proptest::prelude::*;

const MAKES: [&str; 5] = ["Toyota", "Honda", "Audi", "BMW", "Ford"];

#[derive(Debug, Clone)]
struct CarRow {
    id: i64,
    /// `None` is a NULL join key: it never matches an owner.
    owner: Option<i64>,
    make: &'static str,
    year: i64,
}

#[derive(Debug, Clone)]
struct OwnerRow {
    id: i64,
    salary: i64,
}

fn build_db(cars: &[CarRow], owners: &[OwnerRow], with_indexes: bool) -> Database {
    let mut db = Database::new(5);
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
    if with_indexes {
        db.set_primary_key("owner", "id").unwrap();
        db.create_index("car", "ownerid").unwrap();
    }
    db.load_rows(
        "car",
        cars.iter()
            .map(|c| {
                vec![
                    Value::Int(c.id),
                    c.owner.map_or(Value::Null, Value::Int),
                    Value::str(c.make),
                    Value::Int(c.year),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.load_rows(
        "owner",
        owners
            .iter()
            .map(|o| vec![Value::Int(o.id), Value::Int(o.salary)])
            .collect(),
    )
    .unwrap();
    db
}

/// A randomly generated single-table filter.
#[derive(Debug, Clone)]
enum Filter {
    MakeEq(usize),
    MakeNe(usize),
    YearGt(i64),
    YearLe(i64),
    YearBetween(i64, i64),
    SalaryGt(i64),
}

impl Filter {
    fn sql(&self) -> String {
        match self {
            Filter::MakeEq(i) => format!("make = '{}'", MAKES[*i]),
            Filter::MakeNe(i) => format!("make <> '{}'", MAKES[*i]),
            Filter::YearGt(y) => format!("year > {y}"),
            Filter::YearLe(y) => format!("year <= {y}"),
            Filter::YearBetween(a, b) => format!("year BETWEEN {a} AND {b}"),
            Filter::SalaryGt(s) => format!("salary > {s}"),
        }
    }

    fn on_owner(&self) -> bool {
        matches!(self, Filter::SalaryGt(_))
    }

    fn matches_car(&self, c: &CarRow) -> bool {
        match self {
            Filter::MakeEq(i) => c.make == MAKES[*i],
            Filter::MakeNe(i) => c.make != MAKES[*i],
            Filter::YearGt(y) => c.year > *y,
            Filter::YearLe(y) => c.year <= *y,
            Filter::YearBetween(a, b) => c.year >= *a && c.year <= *b,
            Filter::SalaryGt(_) => true,
        }
    }

    fn matches_owner(&self, o: &OwnerRow) -> bool {
        match self {
            Filter::SalaryGt(s) => o.salary > *s,
            _ => true,
        }
    }
}

fn filter_strategy() -> impl Strategy<Value = Filter> {
    prop_oneof![
        (0..MAKES.len()).prop_map(Filter::MakeEq),
        (0..MAKES.len()).prop_map(Filter::MakeNe),
        (1990i64..2007).prop_map(Filter::YearGt),
        (1990i64..2007).prop_map(Filter::YearLe),
        (1990i64..2000, 0i64..10).prop_map(|(a, d)| Filter::YearBetween(a, a + d)),
        (0i64..100_000).prop_map(Filter::SalaryGt),
    ]
}

fn rows_strategy() -> impl Strategy<Value = (Vec<CarRow>, Vec<OwnerRow>)> {
    (1usize..120, 1usize..40, any::<u64>()).prop_map(|(n_cars, n_owners, seed)| {
        let mut rng = SplitMix64::new(seed);
        let cars = (0..n_cars)
            .map(|i| CarRow {
                id: i as i64,
                owner: if rng.next_bounded(8) == 0 {
                    None
                } else {
                    Some(rng.next_bounded(n_owners as u64) as i64)
                },
                make: MAKES[rng.next_index(MAKES.len())],
                year: 1990 + rng.next_bounded(17) as i64,
            })
            .collect();
        let owners = (0..n_owners)
            .map(|i| OwnerRow {
                id: i as i64,
                salary: rng.next_bounded(100_000) as i64,
            })
            .collect();
        (cars, owners)
    })
}

/// Every row of the reference join: each car passing the filters, paired
/// with each owner it references that passes them too (a NULL `ownerid`
/// matches nothing). Without `join`, each passing car on its own.
fn reference_rows<'a>(
    cars: &'a [CarRow],
    owners: &'a [OwnerRow],
    filters: &[Filter],
    join: bool,
) -> Vec<(&'a CarRow, Option<&'a OwnerRow>)> {
    let mut out = Vec::new();
    for c in cars
        .iter()
        .filter(|c| filters.iter().all(|f| f.matches_car(c)))
    {
        if !join {
            out.push((c, None));
            continue;
        }
        for o in owners {
            if c.owner == Some(o.id) && filters.iter().all(|f| f.matches_owner(o)) {
                out.push((c, Some(o)));
            }
        }
    }
    out
}

/// The filters a query may carry: owner filters need the join.
fn usable_filters(filters: Vec<Filter>, join: bool) -> Vec<Filter> {
    filters
        .into_iter()
        .filter(|f| join || !f.on_owner())
        .collect()
}

fn where_clause(join: bool, filters: &[Filter]) -> String {
    let mut wheres: Vec<String> = Vec::new();
    if join {
        wheres.push("c.ownerid = o.id".to_string());
    }
    wheres.extend(filters.iter().map(Filter::sql));
    if wheres.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", wheres.join(" AND "))
    }
}

/// A sort key in the reference's own total order: NULL first, then
/// integers numerically, then strings bytewise. One sort column holds one
/// type, so only NULL ever meets another variant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Null,
    Int(i64),
    Str(String),
}

fn key_of(v: &Value) -> Key {
    match v {
        Value::Null => Key::Null,
        Value::Int(i) => Key::Int(*i),
        Value::Str(s) => Key::Str(s.to_string()),
        other => panic!("unexpected sort key {other:?}"),
    }
}

/// The `ORDER BY` column of a generated query.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SortCol {
    Year,
    Make,
    /// Nullable: NULL keys sort first.
    OwnerId,
    /// Owner column, so only for joins.
    Salary,
}

const SORT_COLS: [SortCol; 4] = [
    SortCol::Year,
    SortCol::Make,
    SortCol::OwnerId,
    SortCol::Salary,
];

impl SortCol {
    fn sql(self) -> &'static str {
        match self {
            SortCol::Year => "c.year",
            SortCol::Make => "c.make",
            SortCol::OwnerId => "c.ownerid",
            SortCol::Salary => "o.salary",
        }
    }

    fn key(self, c: &CarRow, o: Option<&OwnerRow>) -> Key {
        match self {
            SortCol::Year => Key::Int(c.year),
            SortCol::Make => Key::Str(c.make.to_string()),
            SortCol::OwnerId => c.owner.map_or(Key::Null, Key::Int),
            SortCol::Salary => Key::Int(o.expect("salary sorts only joins").salary),
        }
    }
}

fn settings_strategy() -> impl Strategy<Value = u8> {
    0u8..4
}

fn apply_setting(db: &mut Database, which: u8) {
    match which {
        0 => db.set_setting(StatsSetting::NoStatistics),
        1 => {
            db.runstats_all().unwrap();
            db.set_setting(StatsSetting::CatalogOnly);
        }
        2 => db.set_setting(StatsSetting::Jits(JitsConfig::default())),
        _ => db.set_setting(StatsSetting::Jits(JitsConfig {
            s_max: 0.0,
            ..JitsConfig::default()
        })),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-table filters: engine count == reference count.
    #[test]
    fn single_table_counts_match_reference(
        (cars, owners) in rows_strategy(),
        filters in proptest::collection::vec(filter_strategy(), 1..4),
        setting in settings_strategy(),
        with_indexes in any::<bool>(),
    ) {
        let car_filters: Vec<&Filter> =
            filters.iter().filter(|f| !f.on_owner()).collect();
        prop_assume!(!car_filters.is_empty());
        let mut db = build_db(&cars, &owners, with_indexes);
        apply_setting(&mut db, setting);
        let wheres: Vec<String> = car_filters.iter().map(|f| f.sql()).collect();
        let sql = format!(
            "SELECT COUNT(*) FROM car WHERE {}",
            wheres.join(" AND ")
        );
        let got = db.execute(&sql).unwrap().rows[0][0].as_i64().unwrap();
        let expected = cars
            .iter()
            .filter(|c| car_filters.iter().all(|f| f.matches_car(c)))
            .count() as i64;
        prop_assert_eq!(got, expected, "{}", sql);
    }

    /// Joins with mixed filters: engine count == nested-loop reference.
    #[test]
    fn join_counts_match_reference(
        (cars, owners) in rows_strategy(),
        filters in proptest::collection::vec(filter_strategy(), 0..4),
        setting in settings_strategy(),
        with_indexes in any::<bool>(),
    ) {
        let mut db = build_db(&cars, &owners, with_indexes);
        apply_setting(&mut db, setting);
        let mut wheres = vec!["c.ownerid = o.id".to_string()];
        wheres.extend(filters.iter().map(|f| f.sql()));
        let sql = format!(
            "SELECT COUNT(*) FROM car c, owner o WHERE {}",
            wheres.join(" AND ")
        );
        let got = db.execute(&sql).unwrap().rows[0][0].as_i64().unwrap();
        let expected = cars
            .iter()
            .filter(|c| filters.iter().all(|f| f.matches_car(c)))
            .map(|c| {
                owners
                    .iter()
                    .filter(|o| c.owner == Some(o.id))
                    .filter(|o| filters.iter().all(|f| f.matches_owner(o)))
                    .count() as i64
            })
            .sum::<i64>();
        prop_assert_eq!(got, expected, "{}", sql);
    }

    /// DML then query: the engine stays consistent with an incrementally
    /// maintained reference.
    #[test]
    fn dml_then_query_matches_reference(
        (mut cars, owners) in rows_strategy(),
        cutoff in 1990i64..2007,
        make_idx in 0..MAKES.len(),
        setting in settings_strategy(),
    ) {
        let mut db = build_db(&cars, &owners, true);
        apply_setting(&mut db, setting);
        // delete old cars
        db.execute(&format!("DELETE FROM car WHERE year < {cutoff}")).unwrap();
        cars.retain(|c| c.year >= cutoff);
        // retag a make
        db.execute(&format!(
            "UPDATE car SET make = 'Retagged' WHERE make = '{}'",
            MAKES[make_idx]
        ))
        .unwrap();
        let expected = cars.iter().filter(|c| c.make == MAKES[make_idx]).count();
        let got = db
            .execute("SELECT COUNT(*) FROM car WHERE make = 'Retagged'")
            .unwrap()
            .rows[0][0]
            .as_i64()
            .unwrap();
        prop_assert_eq!(got, expected as i64);
    }

    /// `ORDER BY … LIMIT k`, on one table or the join, ascending or
    /// descending: the returned sort keys are, in order, the reference's k
    /// smallest (largest) keys. Ties leave the engine free to pick among
    /// equal-keyed rows, so each returned row is checked on its own: it
    /// satisfies the filters and join, carries its own key, and appears once.
    #[test]
    fn order_by_limit_matches_reference(
        (cars, owners) in rows_strategy(),
        filters in proptest::collection::vec(filter_strategy(), 0..3),
        (join, sort, desc, k) in (any::<bool>(), 0..SORT_COLS.len(), any::<bool>(), 0usize..12),
        setting in settings_strategy(),
        with_indexes in any::<bool>(),
    ) {
        let sort = SORT_COLS[sort];
        prop_assume!(join || sort != SortCol::Salary);
        let filters = usable_filters(filters, join);
        let mut db = build_db(&cars, &owners, with_indexes);
        apply_setting(&mut db, setting);
        let (select, from) = if join {
            (format!("c.id, o.id, {}", sort.sql()), "car c, owner o")
        } else {
            (format!("c.id, {}", sort.sql()), "car c")
        };
        let sql = format!(
            "SELECT {select} FROM {from}{} ORDER BY {} {} LIMIT {k}",
            where_clause(join, &filters),
            sort.sql(),
            if desc { "DESC" } else { "ASC" },
        );
        let got = db.execute(&sql).unwrap().rows;

        let mut want: Vec<Key> = reference_rows(&cars, &owners, &filters, join)
            .into_iter()
            .map(|(c, o)| sort.key(c, o))
            .collect();
        want.sort();
        if desc {
            want.reverse();
        }
        want.truncate(k);
        let got_keys: Vec<Key> = got.iter().map(|r| key_of(&r[r.len() - 1])).collect();
        prop_assert_eq!(got_keys, want, "{}", sql);

        let mut seen = BTreeSet::new();
        for r in &got {
            let car = &cars[r[0].as_i64().unwrap() as usize];
            prop_assert!(filters.iter().all(|f| f.matches_car(car)), "{} returned {:?}", sql, r);
            let owner = if join {
                let o = &owners[r[1].as_i64().unwrap() as usize];
                prop_assert_eq!(car.owner, Some(o.id), "{}", sql);
                prop_assert!(filters.iter().all(|f| f.matches_owner(o)), "{} returned {:?}", sql, r);
                Some(o)
            } else {
                None
            };
            prop_assert_eq!(key_of(&r[r.len() - 1]), sort.key(car, owner), "{}", sql);
            prop_assert!(seen.insert((car.id, owner.map(|o| o.id))), "{} repeats {:?}", sql, r);
        }
    }

    /// `GROUP BY make` with `COUNT/SUM/MIN/MAX`, on one table (MIN/MAX over
    /// the nullable `ownerid`, so NULLs are skipped and an all-NULL group
    /// yields NULL) or the join. Group order is free, so groups compare
    /// keyed by make.
    #[test]
    fn group_by_make_matches_reference(
        (cars, owners) in rows_strategy(),
        filters in proptest::collection::vec(filter_strategy(), 0..3),
        join in any::<bool>(),
        setting in settings_strategy(),
        with_indexes in any::<bool>(),
    ) {
        let filters = usable_filters(filters, join);
        let mut db = build_db(&cars, &owners, with_indexes);
        apply_setting(&mut db, setting);
        let (select, from) = if join {
            ("c.make, COUNT(*), SUM(o.salary), MIN(c.year), MAX(c.year)", "car c, owner o")
        } else {
            ("c.make, COUNT(*), SUM(c.year), MIN(c.ownerid), MAX(c.ownerid)", "car c")
        };
        let sql = format!(
            "SELECT {select} FROM {from}{} GROUP BY c.make",
            where_clause(join, &filters)
        );
        let rows = db.execute(&sql).unwrap().rows;
        let n_rows = rows.len();
        let got: BTreeMap<String, Vec<Value>> = rows
            .into_iter()
            .map(|r| {
                let Value::Str(make) = &r[0] else {
                    panic!("{sql}: group key {:?} is not a make", r[0])
                };
                (make.to_string(), r[1..].to_vec())
            })
            .collect();
        prop_assert_eq!(got.len(), n_rows, "{} emitted a group twice", sql);

        // per make: (count, sum, min, max) of the reference rows
        let mut groups: BTreeMap<String, (i64, i64, Option<i64>, Option<i64>)> = BTreeMap::new();
        for (c, o) in reference_rows(&cars, &owners, &filters, join) {
            let (summed, extreme) = match o {
                Some(o) => (o.salary, Some(c.year)),
                None => (c.year, c.owner),
            };
            let g = groups.entry(c.make.to_string()).or_insert((0, 0, None, None));
            g.0 += 1;
            g.1 += summed;
            if let Some(v) = extreme {
                g.2 = Some(g.2.map_or(v, |m| m.min(v)));
                g.3 = Some(g.3.map_or(v, |m| m.max(v)));
            }
        }
        let want: BTreeMap<String, Vec<Value>> = groups
            .into_iter()
            .map(|(make, (count, sum, min, max))| {
                let nullable = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
                (make, vec![Value::Int(count), Value::Int(sum), nullable(min), nullable(max)])
            })
            .collect();
        prop_assert_eq!(got, want, "{}", sql);
    }
}
