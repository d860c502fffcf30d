//! Cross-query profile reuse: the `ProfileCache` consulted by the cached
//! execution paths must (a) return bit-for-bit the uncached results, (b) hit
//! on repeated identical queries — counter-asserted, including that a hit
//! performs zero statistics builds, (c) evict least-recently-used entries at
//! capacity, and (d) invalidate on table mutation so results always reflect
//! the current table state.

use uu_query::catalog::Catalog;
use uu_query::exec::{
    execute_cached, execute_grouped_cached, execute_sql, execute_sql_grouped, CorrectionMethod,
    QueryProfileCache,
};
use uu_query::schema::{ColumnType, Schema};
use uu_query::sql::parse;
use uu_query::table::IntegratedTable;
use uu_query::value::Value;

fn tech_table() -> IntegratedTable {
    let schema = Schema::new([
        ("company", ColumnType::Str),
        ("employees", ColumnType::Float),
        ("state", ColumnType::Str),
    ]);
    let mut t = IntegratedTable::new("companies", schema, "company").unwrap();
    let rows: [(u32, &str, f64, &str); 9] = [
        (0, "A", 1000.0, "CA"),
        (0, "B", 2000.0, "CA"),
        (0, "D", 10_000.0, "WA"),
        (1, "B", 2000.0, "CA"),
        (1, "D", 10_000.0, "WA"),
        (2, "D", 10_000.0, "WA"),
        (3, "D", 10_000.0, "WA"),
        (4, "A", 1000.0, "CA"),
        (4, "E", 300.0, "CA"),
    ];
    for (src, name, emp, state) in rows {
        t.insert_observation(
            src,
            vec![Value::from(name), Value::from(emp), Value::from(state)],
        )
        .unwrap();
    }
    t
}

/// Exact-equality comparison of the fields a cached run could plausibly
/// corrupt.
fn assert_same(a: &uu_query::exec::QueryResult, b: &uu_query::exec::QueryResult) {
    assert_eq!(a.observed.to_bits(), b.observed.to_bits());
    assert_eq!(a.corrected, b.corrected);
    assert_eq!(a.n_hat, b.n_hat);
    assert_eq!(a.upper_bound, b.upper_bound);
    assert_eq!(a.method, b.method);
    assert_eq!(a.recommendation, b.recommendation);
}

#[test]
fn repeated_queries_hit_and_match_the_uncached_path() {
    let table = tech_table();
    let cache = QueryProfileCache::new(16);
    let sql = "SELECT SUM(employees) FROM companies WHERE employees < 5000";
    let query = parse(sql).unwrap();

    let uncached = execute_sql(&table, sql, CorrectionMethod::Bucket).unwrap();
    let first = execute_cached(&table, &query, CorrectionMethod::Bucket, &cache).unwrap();
    let second = execute_cached(&table, &query, CorrectionMethod::Bucket, &cache).unwrap();
    assert_same(&uncached, &first);
    assert_same(&first, &second);

    let m = cache.metrics();
    assert_eq!(m.misses, 1, "first run misses");
    assert_eq!(m.hits, 1, "second run hits");
    assert_eq!(m.len, 1);

    // One cached selection serves every aggregate and correction method.
    for (sql, method) in [
        (
            "SELECT AVG(employees) FROM companies WHERE employees < 5000",
            CorrectionMethod::Bucket,
        ),
        (
            "SELECT MIN(employees) FROM companies WHERE employees < 5000",
            CorrectionMethod::Bucket,
        ),
        (
            "SELECT SUM(employees) FROM companies WHERE employees < 5000",
            CorrectionMethod::Naive,
        ),
    ] {
        let query = parse(sql).unwrap();
        let cached = execute_cached(&table, &query, method, &cache).unwrap();
        let direct = execute_sql(&table, sql, method).unwrap();
        assert_same(&direct, &cached);
    }
    let m = cache.metrics();
    assert_eq!(m.misses, 1, "same universe: no further misses");
    assert_eq!(m.hits, 4);
}

#[test]
fn a_cache_hit_rebuilds_no_statistics() {
    // What the executor does on a hit: profile the selection's snapshot and
    // run estimators over it. Even a full 5-estimator session pass must
    // perform zero statistics builds and copy no frozen statistic.
    let table = tech_table();
    let view = table
        .sample_view(Some("employees"), &uu_query::predicate::Predicate::True)
        .unwrap();
    let snapshot = uu_core::profile::ProfileSnapshot::capture(view);
    let profile = snapshot.profile();
    let results = uu_core::engine::EstimationSession::all().run_profiled(&profile);
    assert_eq!(results.len(), 5);
    assert!(results.iter().any(|r| r.corrected.is_some()));
    assert_eq!(
        profile.metrics().total_builds(),
        0,
        "the hit path must reuse every frozen statistic"
    );
    // Every profile of the snapshot borrows the same frozen buffers.
    let again = snapshot.profile();
    assert_eq!(
        profile.bucket_reports().as_ptr(),
        again.bucket_reports().as_ptr()
    );
    assert_eq!(
        profile.rank_multiplicities().as_ptr(),
        again.rank_multiplicities().as_ptr()
    );
}

#[test]
fn grouped_queries_cache_per_group_universes() {
    let table = tech_table();
    let cache = QueryProfileCache::new(8);
    let sql = "SELECT SUM(employees) FROM companies GROUP BY state";
    let query = parse(sql).unwrap();

    let direct = execute_sql_grouped(&table, sql, CorrectionMethod::Naive).unwrap();
    let cached1 = execute_grouped_cached(&table, &query, CorrectionMethod::Naive, &cache).unwrap();
    let cached2 = execute_grouped_cached(&table, &query, CorrectionMethod::Naive, &cache).unwrap();

    assert_eq!(direct.len(), cached1.len());
    for ((d, c1), c2) in direct.iter().zip(&cached1).zip(&cached2) {
        assert_eq!(d.key, c1.key);
        assert_eq!(c1.key, c2.key);
        assert_same(&d.result, &c1.result);
        assert_same(&c1.result, &c2.result);
    }
    let m = cache.metrics();
    assert_eq!(m.misses, 1, "one entry for the whole grouped selection");
    assert_eq!(m.hits, 1);
}

#[test]
fn capacity_bound_evicts_lru_selections() {
    let table = tech_table();
    let cache = QueryProfileCache::new(2);
    let queries = [
        "SELECT SUM(employees) FROM companies WHERE employees < 1500",
        "SELECT SUM(employees) FROM companies WHERE employees < 2500",
        "SELECT SUM(employees) FROM companies WHERE employees < 99999",
    ];
    for sql in queries {
        let q = parse(sql).unwrap();
        let _ = execute_cached(&table, &q, CorrectionMethod::Bucket, &cache).unwrap();
    }
    let m = cache.metrics();
    assert_eq!(m.misses, 3);
    assert_eq!(m.evictions, 1, "third insert evicts the LRU entry");
    assert_eq!(m.len, 2);
    // The oldest selection was evicted: running it again misses …
    let q0 = parse(queries[0]).unwrap();
    let _ = execute_cached(&table, &q0, CorrectionMethod::Bucket, &cache).unwrap();
    assert_eq!(cache.metrics().misses, 4);
    // … while the most recent one still hits.
    let q2 = parse(queries[2]).unwrap();
    let _ = execute_cached(&table, &q2, CorrectionMethod::Bucket, &cache).unwrap();
    assert_eq!(cache.metrics().hits, 1);
}

#[test]
fn catalog_mutation_invalidates_and_results_track_the_new_state() {
    let mut catalog = Catalog::new();
    catalog.register(tech_table()).unwrap();
    let sql = "SELECT COUNT(*) FROM companies";

    let before = catalog
        .execute_sql_cached(sql, CorrectionMethod::Naive)
        .unwrap();
    assert_eq!(before.observed, 4.0);
    let _ = catalog
        .execute_sql_cached(sql, CorrectionMethod::Naive)
        .unwrap();
    assert_eq!(catalog.cache().metrics().hits, 1);

    // Mutate: a brand-new entity arrives.
    catalog
        .get_mut("companies")
        .unwrap()
        .insert_observation(
            5,
            vec![Value::from("F"), Value::from(750.0), Value::from("OR")],
        )
        .unwrap();
    assert!(
        catalog.cache().metrics().invalidations > 0,
        "get_mut must invalidate the table's entries"
    );

    let after = catalog
        .execute_sql_cached(sql, CorrectionMethod::Naive)
        .unwrap();
    assert_eq!(after.observed, 5.0, "cached result reflects the new row");
    // And the fresh state is itself cached again.
    let again = catalog
        .execute_sql_cached(sql, CorrectionMethod::Naive)
        .unwrap();
    assert_eq!(again.observed, 5.0);
    assert_eq!(catalog.cache().metrics().hits, 2);
}

#[test]
fn distinct_tables_with_equal_name_and_version_do_not_share_entries() {
    // Two tables named "companies", both at version 9, different contents:
    // the per-object instance id must keep their cache entries apart even
    // through one shared cache.
    let a = tech_table();
    let mut b = IntegratedTable::new(
        "companies",
        Schema::new([
            ("company", ColumnType::Str),
            ("employees", ColumnType::Float),
            ("state", ColumnType::Str),
        ]),
        "company",
    )
    .unwrap();
    for i in 0..9u32 {
        b.insert_observation(
            i % 3,
            vec![
                Value::from(format!("X{}", i % 5)),
                Value::from(77.0),
                Value::from("NV"),
            ],
        )
        .unwrap();
    }
    assert_eq!(a.version(), b.version());
    assert_ne!(a.instance(), b.instance());

    let cache = QueryProfileCache::new(8);
    let sql = "SELECT SUM(employees) FROM companies";
    let query = parse(sql).unwrap();
    let ra = execute_cached(&a, &query, CorrectionMethod::None, &cache).unwrap();
    let rb = execute_cached(&b, &query, CorrectionMethod::None, &cache).unwrap();
    assert_eq!(ra.observed, 13_300.0);
    assert_eq!(rb.observed, 5.0 * 77.0);
    assert_eq!(cache.metrics().misses, 2, "no cross-table hit");

    // A clone is a new table object too: it may diverge from the original.
    let c = a.clone();
    assert_ne!(a.instance(), c.instance());
    let _ = execute_cached(&c, &query, CorrectionMethod::None, &cache).unwrap();
    assert_eq!(cache.metrics().misses, 3);
}

#[test]
fn predicate_fingerprints_are_column_case_insensitive() {
    // Predicate evaluation matches columns case-insensitively, so the two
    // spellings denote the same estimation universe and must share an entry.
    let table = tech_table();
    let cache = QueryProfileCache::new(8);
    let lower = parse("SELECT SUM(employees) FROM companies WHERE employees < 5000").unwrap();
    let upper = parse("SELECT SUM(employees) FROM companies WHERE EMPLOYEES < 5000").unwrap();
    let r1 = execute_cached(&table, &lower, CorrectionMethod::Bucket, &cache).unwrap();
    let r2 = execute_cached(&table, &upper, CorrectionMethod::Bucket, &cache).unwrap();
    assert_same(&r1, &r2);
    let m = cache.metrics();
    assert_eq!(m.misses, 1, "one universe, one entry");
    assert_eq!(m.hits, 1);
}

#[test]
fn grouped_cached_without_group_by_degrades_to_single_null_group() {
    let table = tech_table();
    let cache = QueryProfileCache::new(4);
    let query = parse("SELECT SUM(employees) FROM companies").unwrap();
    let rows = execute_grouped_cached(&table, &query, CorrectionMethod::Bucket, &cache).unwrap();
    assert_eq!(rows.len(), 1);
    assert!(rows[0].key.is_null());
    let direct = execute_sql(
        &table,
        "SELECT SUM(employees) FROM companies",
        CorrectionMethod::Bucket,
    )
    .unwrap();
    assert_same(&direct, &rows[0].result);
}
