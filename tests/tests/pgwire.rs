//! Loopback tests for the pgwire-lite front: raw PostgreSQL wire messages
//! over a plain socket (the same driver CI uses — no `psql` anywhere).
//!
//! The front must be a pure framing over `Service::dispatch`: every cell it
//! returns is re-derivable from the JSON protocol's answers for the same SQL
//! (`panel_rows` is shared between the server and these expectations, so the
//! comparison pins the dispatch path, not the formatter).

use uu_server::client::Client;
use uu_server::pgwire::{panel_rows, PgClient};
use uu_server::protocol::{LoadCsvRequest, Request, Response};
use uu_server::server::{spawn, ServerConfig};

const TOY_CSV: &str = "\
worker,company,employees,state
0,A,1000,CA
0,B,2000,CA
0,D,10000,WA
1,B,2000,CA
1,D,10000,WA
2,D,10000,WA
3,D,10000,WA
4,A,1000,CA
4,E,300,CA
";

fn spawn_with_pgwire() -> uu_server::ServerHandle {
    let config = ServerConfig {
        pgwire_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    spawn(config).unwrap()
}

fn load_toy(addr: std::net::SocketAddr) {
    let mut client = Client::connect(addr).unwrap();
    let response = client
        .request(&Request::LoadCsv(LoadCsvRequest {
            table: "companies".into(),
            columns: vec![
                ("company".into(), "str".into()),
                ("employees".into(), "float".into()),
                ("state".into(), "str".into()),
            ],
            entity_column: "company".into(),
            source_column: "worker".into(),
            csv: TOY_CSV.into(),
            append: false,
        }))
        .unwrap();
    assert!(matches!(response, Response::Loaded { .. }));
}

/// The expectation for one SQL text, computed through the *JSON* protocol
/// (one query per registry estimator) and laid out by the same `panel_rows`
/// the pgwire front uses — so agreement means both fronts answered from the
/// same dispatch with the same numbers.
fn expected_panel(
    addr: std::net::SocketAddr,
    sql: &str,
) -> (Vec<String>, Vec<Vec<Option<String>>>) {
    let mut client = Client::connect(addr).unwrap();
    let replies: Vec<(&'static str, _)> = uu_core::engine::EstimatorKind::all()
        .into_iter()
        .map(|kind| {
            let reply = client.query(sql, &[kind.name()], true).unwrap();
            (kind.name(), reply)
        })
        .collect();
    panel_rows(&replies)
}

#[test]
fn simple_query_answers_one_row_per_estimator_matching_the_json_front() {
    let handle = spawn_with_pgwire();
    load_toy(handle.addr());
    let pg_addr = handle.pgwire_addr().expect("pgwire front enabled");

    let mut pg = PgClient::connect(pg_addr).unwrap();
    for sql in [
        "SELECT SUM(employees) FROM companies",
        "SELECT AVG(employees) FROM companies WHERE employees < 5000",
        "SELECT COUNT(*) FROM companies",
        "SELECT MIN(employees) FROM companies",
    ] {
        let result = pg.simple_query(sql).unwrap();
        let (want_columns, want_rows) = expected_panel(handle.addr(), sql);
        assert_eq!(result.columns, want_columns, "{sql}");
        assert_eq!(result.rows, want_rows, "{sql}");
        assert_eq!(
            result.rows.len(),
            uu_core::engine::EstimatorKind::all().len(),
            "one row per registry estimator: {sql}"
        );
        assert_eq!(result.command_tag, format!("SELECT {}", result.rows.len()));
    }
    handle.shutdown();
}

#[test]
fn grouped_queries_lead_with_the_group_column() {
    let handle = spawn_with_pgwire();
    load_toy(handle.addr());
    let pg_addr = handle.pgwire_addr().unwrap();
    let sql = "SELECT SUM(employees) FROM companies GROUP BY state";

    let mut pg = PgClient::connect(pg_addr).unwrap();
    let result = pg.simple_query(sql).unwrap();
    let (want_columns, want_rows) = expected_panel(handle.addr(), sql);
    assert_eq!(result.columns, want_columns);
    assert_eq!(result.columns[0], "group");
    assert_eq!(result.rows, want_rows);
    // 2 states × the registry panel.
    assert_eq!(
        result.rows.len(),
        2 * uu_core::engine::EstimatorKind::all().len()
    );
    let groups: std::collections::BTreeSet<_> =
        result.rows.iter().map(|r| r[0].clone().unwrap()).collect();
    assert_eq!(
        groups.into_iter().collect::<Vec<_>>(),
        vec!["CA".to_string(), "WA".to_string()]
    );
    handle.shutdown();
}

#[test]
fn errors_are_error_responses_and_the_connection_survives() {
    let handle = spawn_with_pgwire();
    load_toy(handle.addr());
    let mut pg = PgClient::connect(handle.pgwire_addr().unwrap()).unwrap();

    let err = pg.simple_query("SELEKT nonsense").unwrap_err();
    assert_eq!(err.sqlstate, "42601", "{err}");
    let err = pg.simple_query("SELECT SUM(x) FROM missing").unwrap_err();
    assert_eq!(err.sqlstate, "42P01", "{err}");
    let err = pg
        .simple_query("SELECT SUM(nope) FROM companies")
        .unwrap_err();
    assert_eq!(err.sqlstate, "42703", "{err}");
    // 50 000 parentheses: refused at the nesting bound, not a stack overflow.
    let deep = format!(
        "SELECT SUM(employees) FROM companies WHERE {}employees > 1{}",
        "(".repeat(50_000),
        ")".repeat(50_000)
    );
    let err = pg.simple_query(&deep).unwrap_err();
    assert_eq!(err.sqlstate, "42601", "{err}");

    // Empty query: a clean empty response.
    let empty = pg.simple_query("   ").unwrap();
    assert!(empty.rows.is_empty());
    assert!(empty.command_tag.is_empty());

    // The connection survived all of it.
    let result = pg
        .simple_query("SELECT SUM(employees) FROM companies")
        .unwrap();
    assert!(!result.rows.is_empty());
    handle.shutdown();
}

#[test]
fn both_fronts_share_one_catalog_and_one_request_counter() {
    let handle = spawn_with_pgwire();
    load_toy(handle.addr());
    let mut json = Client::connect(handle.addr()).unwrap();
    let requests_before = json.stats().unwrap().requests;

    let mut pg = PgClient::connect(handle.pgwire_addr().unwrap()).unwrap();
    let result = pg
        .simple_query("SELECT SUM(employees) FROM companies")
        .unwrap();
    assert!(!result.rows.is_empty());

    let stats = json.stats().unwrap();
    assert!(
        stats.requests > requests_before,
        "pgwire queries dispatch through the shared service ({} -> {})",
        requests_before,
        stats.requests
    );
    // server_info reports both fronts.
    let info = json.server_info().unwrap();
    assert_eq!(info.fronts, vec!["json".to_string(), "pgwire".to_string()]);
    handle.shutdown();
}

#[test]
fn pgwire_front_is_off_by_default() {
    let handle = spawn(ServerConfig::default()).unwrap();
    assert_eq!(handle.pgwire_addr(), None);
    let mut json = Client::connect(handle.addr()).unwrap();
    assert_eq!(json.server_info().unwrap().fronts, vec!["json".to_string()]);
    handle.shutdown();
}

/// Ten companies seen by four workers, seven of them once: Chao92 opens a
/// real search box, so the Monte-Carlo panel row runs Algorithm 3.
const SPARSE_CSV: &str = "\
worker,company,employees,state
0,A,1000,CA
0,B,2000,CA
0,C,300,WA
0,D,4000,WA
0,E,500,CA
1,A,1000,CA
1,B,2000,CA
1,F,600,WA
1,G,7000,CA
2,A,1000,CA
2,C,300,WA
2,H,800,WA
3,A,1000,CA
3,I,900,CA
3,J,10000,WA
";

/// A fifth worker re-observes four singletons: no new entity and no new
/// value, so the observed SUM stays put while the frequency ladder — and
/// with it N̂_MC — moves.
const REOBSERVE_CSV: &str = "\
worker,company,employees,state
4,D,4000,WA
4,E,500,CA
4,F,600,WA
4,G,7000,CA
";

fn load(addr: std::net::SocketAddr, csv: &str, append: bool) {
    let mut client = Client::connect(addr).unwrap();
    let response = client
        .request(&Request::LoadCsv(LoadCsvRequest {
            table: "companies".into(),
            columns: vec![
                ("company".into(), "str".into()),
                ("employees".into(), "float".into()),
                ("state".into(), "str".into()),
            ],
            entity_column: "company".into(),
            source_column: "worker".into(),
            csv: csv.into(),
            append,
        }))
        .unwrap();
    assert!(matches!(response, Response::Loaded { .. }), "{response:?}");
}

/// The panel rows for `sql` recomputed from scratch through the JSON front
/// (`cached: false`), bypassing every frozen selection.
fn uncached_panel(addr: std::net::SocketAddr, sql: &str) -> Vec<Vec<Option<String>>> {
    let mut client = Client::connect(addr).unwrap();
    let replies: Vec<(&'static str, _)> = uu_core::engine::EstimatorKind::all()
        .into_iter()
        .map(|kind| {
            (
                kind.name(),
                client.query(sql, &[kind.name()], false).unwrap(),
            )
        })
        .collect();
    panel_rows(&replies).1
}

fn montecarlo_row(rows: &[Vec<Option<String>>]) -> &Vec<Option<String>> {
    rows.iter()
        .find(|row| row[0].as_deref() == Some("monte-carlo"))
        .expect("the panel has a monte-carlo row")
}

#[test]
fn an_append_never_serves_a_stale_montecarlo_count() {
    let handle = spawn_with_pgwire();
    load(handle.addr(), SPARSE_CSV, false);
    let sql = "SELECT SUM(employees) FROM companies";
    let mut pg = PgClient::connect(handle.pgwire_addr().unwrap()).unwrap();

    // Twice: the second panel reads the memoized N̂_MC off the frozen
    // selection, and must still equal the from-scratch answer.
    let before = pg.simple_query(sql).unwrap();
    assert_eq!(before.rows, uncached_panel(handle.addr(), sql));
    assert_eq!(pg.simple_query(sql).unwrap().rows, before.rows);

    load(handle.addr(), REOBSERVE_CSV, true);
    let after = pg.simple_query(sql).unwrap();
    assert_eq!(after.rows, uncached_panel(handle.addr(), sql));
    let (was, now) = (montecarlo_row(&before.rows), montecarlo_row(&after.rows));
    assert_eq!(
        was[2], now[2],
        "re-observations leave the observed SUM alone"
    );
    assert_ne!(was[1], now[1], "the Monte-Carlo estimate moved with N̂_MC");

    // The post-append panel was served by the refrozen selection, not a
    // cold rebuild, so it is the refreeze that started with an empty slot.
    let mut json = Client::connect(handle.addr()).unwrap();
    if json.stats().unwrap().incremental.snapshots_refrozen >= 1 {
        assert!(json.query(sql, &["monte-carlo"], true).unwrap().cache_hit);
    }
    handle.shutdown();
}
