//! Property tests for the wire protocol: every `Request` / `Response`
//! variant — including the session/prepared verbs and NaN/±inf estimate
//! payloads — must survive `encode` → `decode` exactly.
//!
//! Structural equality (`==`) pins finite payloads; NaN-bearing payloads are
//! pinned through a second encode (`encode(decode(encode(x))) == encode(x)`),
//! which is exactly the bit-for-bit canonical-text guarantee the parity
//! tests rely on. The golden tests at the end pin the exact encoded line of
//! fixed instances, so a field renamed the same way in both directions still
//! fails.

use proptest::prelude::*;
use uu_query::value::Value;
use uu_server::protocol::{
    ErrorCode, GroupReply, LoadCsvRequest, MetricsReply, QueryReply, QueryRequest, Request,
    Response, ServerInfoReply, StatsReply, WireCacheStats, WireConnStats, WireDiagnostics,
    WireError, WireEstimate, WireExecStats, WireExtreme, WireIncrementalStats, WireProjectionStats,
    WireResult, WireSessionStats, WireSpan, WireStageMetrics, WireStorageStats, WireValue,
    PROTOCOL_VERSION,
};

/// An interesting `f64` from two generated numbers: finite values of many
/// magnitudes plus the non-finite and signed-zero corners.
fn float_from(selector: u64, mantissa: f64) -> f64 {
    match selector % 8 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => mantissa,
        5 => -mantissa * 1e300,
        6 => mantissa * f64::MIN_POSITIVE,
        _ => 1.0 / mantissa.abs().max(1e-12),
    }
}

fn opt_float(selector: u64, mantissa: f64) -> Option<f64> {
    if selector % 9 == 8 {
        None
    } else {
        Some(float_from(selector, mantissa))
    }
}

fn value_from(selector: u64, text: &str, number: f64) -> Value {
    match selector % 4 {
        0 => Value::Null,
        1 => Value::Int(selector as i64 - 500),
        2 => Value::Float(number),
        _ => Value::Str(text.to_string()),
    }
}

fn request_from(selector: u64, text: &str, text2: &str, flag: bool) -> Request {
    match selector % 12 {
        0 => Request::Query(QueryRequest {
            sql: text.to_string(),
            estimators: vec![text2.to_string()],
            cached: flag,
            trace: selector % 3 == 0,
        }),
        1 => Request::LoadCsv(LoadCsvRequest {
            table: text.to_string(),
            columns: vec![(text2.to_string(), "float".to_string())],
            entity_column: text2.to_string(),
            source_column: "worker".to_string(),
            csv: format!("worker,{text2}\n0,{text}\n"),
            append: flag,
        }),
        2 => Request::Warm {
            sql: text.to_string(),
        },
        3 => Request::SessionOpen {
            name: text.to_string(),
            estimators: if flag {
                vec![text2.to_string(), "bucket".to_string()]
            } else {
                Vec::new()
            },
        },
        4 => Request::SessionClose {
            name: text.to_string(),
        },
        5 => Request::Prepare {
            session: text.to_string(),
            name: text2.to_string(),
            sql: format!("SELECT SUM(v) FROM {text}"),
        },
        6 => Request::ExecutePrepared {
            session: text.to_string(),
            name: text2.to_string(),
        },
        7 => Request::Deallocate {
            session: text.to_string(),
            name: text2.to_string(),
        },
        8 => Request::ServerInfo,
        9 => Request::AppendStream {
            table: text.to_string(),
            source_column: text2.to_string(),
            csv: format!("{text2},k,v\n0,{text},1\n"),
        },
        10 => Request::Checkpoint,
        _ => [
            Request::Stats,
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
        ][selector as usize % 4]
            .clone(),
    }
}

fn wire_result(sel: &[u64], text: &str, numbers: &[f64]) -> WireResult {
    WireResult {
        query: text.to_string(),
        observed: float_from(sel[0], numbers[0]),
        corrected: opt_float(sel[1], numbers[1]),
        method: "bucket".to_string(),
        n_hat: opt_float(sel[2], numbers[2]),
        upper_bound: opt_float(sel[3], numbers[0] + numbers[1]),
        extreme: if sel[4] % 3 == 0 {
            Some(WireExtreme {
                trusted: sel[4] % 2 == 0,
                observed: float_from(sel[5], numbers[2]),
                estimated_missing: opt_float(sel[6], numbers[0]),
            })
        } else {
            None
        },
        diagnostics: WireDiagnostics {
            coverage: opt_float(sel[5], numbers[1]),
            contributing_sources: sel[6],
            max_source_share: opt_float(sel[7], numbers[2]),
            source_gini: opt_float(sel[0].wrapping_add(4), numbers[0]),
        },
        recommendation: "collect-more-data".to_string(),
        estimates: vec![WireEstimate {
            name: "naive".to_string(),
            delta: opt_float(sel[1].wrapping_add(1), numbers[1]),
            n_hat: opt_float(sel[2].wrapping_add(2), numbers[2]),
            corrected: opt_float(sel[3].wrapping_add(3), numbers[0]),
        }],
    }
}

/// A generated span tree: `None`, an empty tree, or a two-span parent/child
/// chain with an optional label.
fn trace_from(selector: u64, text: &str, sel: &[u64]) -> Option<Vec<WireSpan>> {
    match selector % 3 {
        0 => None,
        1 => Some(Vec::new()),
        _ => Some(vec![
            WireSpan {
                stage: "request".to_string(),
                label: None,
                parent: None,
                start_ns: sel[0],
                dur_ns: sel[1],
            },
            WireSpan {
                stage: "estimator_fanout".to_string(),
                label: if sel[2] % 2 == 0 {
                    Some(text.to_string())
                } else {
                    None
                },
                parent: Some(0),
                start_ns: sel[0].wrapping_add(sel[3]),
                dur_ns: sel[4],
            },
        ]),
    }
}

fn response_from(selector: u64, sel: &[u64], text: &str, numbers: &[f64], flag: bool) -> Response {
    match selector % 13 {
        0 => Response::Query(QueryReply {
            sql: text.to_string(),
            cache_hit: flag,
            elapsed_us: sel[0],
            grouped: flag,
            groups: vec![GroupReply {
                key: WireValue(value_from(sel[1], text, numbers[0])),
                result: wire_result(sel, text, numbers),
            }],
            trace: trace_from(sel[2], text, sel),
        }),
        1 => Response::Loaded {
            table: text.to_string(),
            observations: sel[0],
            entities: sel[1],
        },
        2 => Response::Warmed {
            sql: text.to_string(),
            universes: sel[0],
            already_cached: flag,
        },
        3 => Response::SessionOpened {
            name: text.to_string(),
            estimators: vec!["bucket".to_string()],
        },
        4 => Response::SessionClosed {
            name: text.to_string(),
            prepared_dropped: sel[0],
        },
        5 => Response::Prepared {
            session: text.to_string(),
            name: "q".to_string(),
            sql: format!("SELECT SUM(v) FROM {text}"),
            universes: sel[0],
            already_cached: flag,
        },
        6 => Response::Deallocated {
            session: text.to_string(),
            name: "q".to_string(),
        },
        7 => Response::Info(ServerInfoReply {
            version: "0.1.0".to_string(),
            protocol: PROTOCOL_VERSION,
            uptime_ms: sel[0],
            active_sessions: sel[1],
            fronts: if flag {
                vec!["json".to_string(), "pgwire".to_string()]
            } else {
                Vec::new()
            },
            workers: sel[2],
            data_dir: if flag {
                Some(format!("/var/lib/uu/{text}"))
            } else {
                None
            },
            durability: if flag { "batch" } else { "off" }.to_string(),
            last_checkpoint_age_ms: opt_float(sel[3], numbers[0].abs()),
        }),
        8 => Response::Stats(Box::new(StatsReply {
            protocol: PROTOCOL_VERSION,
            tables: vec![text.to_string()],
            workers: sel[0],
            connections: sel[1],
            requests: sel[2],
            errors: sel[3],
            uptime_ms: sel[4],
            sessions: vec![WireSessionStats {
                name: text.to_string(),
                estimators: vec!["bucket".to_string()],
                prepared: sel[5],
                executes: sel[6],
                frozen_hits: sel[7],
                age_ms: sel[0],
            }],
            cache: WireCacheStats {
                hits: sel[1],
                misses: sel[2],
                insertions: sel[3],
                evictions: sel[4],
                invalidations: sel[5],
                expirations: sel[6],
                len: sel[7],
                bytes: sel[0],
                capacity: sel[1],
                byte_budget: opt_float(sel[2], numbers[0].abs()),
                ttl_ms: opt_float(sel[3], numbers[1].abs()),
            },
            projection: WireProjectionStats {
                builds: sel[2],
                reuses: sel[3],
                bytes: sel[4],
            },
            exec: WireExecStats {
                threads: sel[4],
                regions: sel[5],
                parallel_regions: sel[6],
                tasks: sel[7],
                steals: sel[0],
                peak_workers: sel[1],
            },
            conn: WireConnStats {
                open: sel[5],
                peak_open: sel[6],
                frames_in: sel[7],
                frames_out: sel[0],
                bytes_in: sel[1],
                bytes_out: sel[2],
                idle_reaped: sel[3],
                backpressure: sel[4],
                queue_depth_peak: sel[5],
                queue_wait_us_total: sel[6],
                queue_wait_us_max: sel[7],
                backend: if sel[5] % 2 == 0 {
                    "epoll".to_string()
                } else {
                    "poll".to_string()
                },
            },
            incremental: WireIncrementalStats {
                delta_batches: sel[6],
                rows_appended: sel[7],
                permutation_merges: sel[0],
                snapshots_refrozen: sel[1],
                fallback_rebuilds: sel[2],
            },
            storage: WireStorageStats {
                wal_records: sel[3],
                wal_bytes: sel[4],
                fsyncs: sel[5],
                checkpoints: sel[6],
                recovered_tables: sel[7],
                replayed_records: sel[0],
                truncated_tail_bytes: sel[1],
            },
        })),
        9 => Response::Appended {
            table: text.to_string(),
            observations: sel[0],
            entities: sel[1],
            refrozen: sel[2],
            incremental: flag,
        },
        11 => Response::Checkpointed {
            tables: sel[0],
            bytes: sel[1],
        },
        10 => Response::Metrics(MetricsReply {
            entries: if flag {
                vec![WireStageMetrics {
                    verb: "query".to_string(),
                    stage: "request".to_string(),
                    count: sel[0],
                    p50_us: numbers[0],
                    p90_us: numbers[1],
                    p99_us: numbers[2],
                    max_us: numbers[2] * 2.0,
                    mean_us: numbers[0] / 3.0,
                }]
            } else {
                Vec::new()
            },
        }),
        _ => match selector % 4 {
            0 => Response::Pong,
            1 => Response::Bye,
            2 => Response::Error(WireError::new(
                ErrorCode::all()[sel[0] as usize % ErrorCode::all().len()],
                text.to_string(),
            )),
            _ => Response::Error(WireError {
                code: ErrorCode::UnknownEstimator,
                message: text.to_string(),
                accepted: vec!["naive".to_string(), "bucket".to_string()],
            }),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Every request variant survives encode → decode structurally.
    #[test]
    fn requests_round_trip(
        selector in 0u64..1_000_000,
        text in "[ -~]{0,24}",
        text2 in "[a-z][a-z0-9_-]{0,10}",
        flag in proptest::bool::ANY,
    ) {
        let request = request_from(selector, &text, &text2, flag);
        let line = request.encode();
        prop_assert!(!line.contains('\n'), "one request per line: {line}");
        let decoded = Request::decode(&line);
        prop_assert!(decoded.is_ok(), "{line}: {decoded:?}");
        prop_assert_eq!(decoded.unwrap(), request, "{}", line);
    }

    /// Every response variant — NaN/±inf payloads included — survives
    /// encode → decode: the canonical line is a fixed point, and NaN-free
    /// payloads additionally compare structurally equal.
    #[test]
    fn responses_round_trip(
        selector in 0u64..1_000_000,
        sel in proptest::collection::vec(0u64..1_000_000, 8),
        text in "[ -~]{0,24}",
        numbers in proptest::collection::vec(0.000001f64..1e9, 3),
        flag in proptest::bool::ANY,
    ) {
        let response = response_from(selector, &sel, &text, &numbers, flag);
        let line = response.encode();
        prop_assert!(!line.contains('\n'), "one response per line: {line}");
        let decoded = Response::decode(&line);
        prop_assert!(decoded.is_ok(), "{line}: {decoded:?}");
        let decoded = decoded.unwrap();
        // The canonical rendering is a fixed point (pins NaN payloads, which
        // are structurally un-comparable with ==).
        prop_assert_eq!(decoded.encode(), line.clone());
        if !line.contains("\"NaN\"") {
            prop_assert_eq!(decoded, response, "{}", line);
        }
    }
}

// ---------------------------------------------------------------------------
// Golden wire bytes
// ---------------------------------------------------------------------------
//
// The proptests above cannot catch a field renamed the same way in both
// directions; these fixed instances pin the exact encoded line of every
// variant, every optional field in both its `None` and `Some` form, the
// non-finite and signed-zero floats, and one error line per error code.

/// Asserts `value` encodes to exactly `line` and decodes back to `value`.
/// Debug text pins NaN payloads and the sign of zero, which `==` cannot.
fn assert_golden<T: std::fmt::Debug + PartialEq>(
    value: &T,
    line: &str,
    encode: impl Fn(&T) -> String,
    decode: impl Fn(&str) -> T,
) {
    assert_eq!(encode(value), line);
    let back = decode(line);
    assert_eq!(format!("{back:?}"), format!("{value:?}"), "{line}");
    if !line.contains("\"NaN\"") {
        assert_eq!(&back, value, "{line}");
    }
}

fn golden_result(observed: f64) -> WireResult {
    WireResult {
        query: "SELECT SUM(v) FROM t".to_string(),
        observed,
        corrected: Some(f64::INFINITY),
        method: "bucket".to_string(),
        n_hat: Some(-0.0),
        upper_bound: Some(f64::NEG_INFINITY),
        extreme: Some(WireExtreme {
            trusted: false,
            observed: 300.0,
            estimated_missing: Some(0.75),
        }),
        diagnostics: WireDiagnostics {
            coverage: Some(0.8),
            contributing_sources: 5,
            max_source_share: Some(f64::NAN),
            source_gini: Some(0.125),
        },
        recommendation: "bucket".to_string(),
        estimates: vec![
            WireEstimate {
                name: "naive".to_string(),
                delta: Some(1_662.5),
                n_hat: Some(4.5),
                corrected: Some(14_962.5),
            },
            WireEstimate {
                name: "freq".to_string(),
                delta: None,
                n_hat: None,
                corrected: None,
            },
        ],
    }
}

fn golden_bare_result() -> WireResult {
    WireResult {
        query: "SELECT MAX(v) FROM t GROUP BY g".to_string(),
        observed: -0.0,
        corrected: None,
        method: "none".to_string(),
        n_hat: None,
        upper_bound: None,
        extreme: None,
        diagnostics: WireDiagnostics {
            coverage: None,
            contributing_sources: 0,
            max_source_share: None,
            source_gini: None,
        },
        recommendation: "collect-more-data".to_string(),
        estimates: Vec::new(),
    }
}

fn golden_stats(sessions: Vec<WireSessionStats>, byte_budget: Option<f64>) -> StatsReply {
    StatsReply {
        protocol: PROTOCOL_VERSION,
        tables: vec!["companies".to_string(), "t".to_string()],
        workers: 4,
        connections: 10,
        requests: 25,
        errors: 2,
        uptime_ms: 1_234,
        sessions,
        cache: WireCacheStats {
            hits: 7,
            misses: 3,
            insertions: 3,
            evictions: 1,
            invalidations: 0,
            expirations: 0,
            len: 2,
            bytes: 4_096,
            capacity: 128,
            byte_budget,
            ttl_ms: byte_budget.map(|b| b / 4.0),
        },
        projection: WireProjectionStats {
            builds: 3,
            reuses: 17,
            bytes: 65_536,
        },
        exec: WireExecStats {
            threads: 8,
            regions: 100,
            parallel_regions: 20,
            tasks: 500,
            steals: 9,
            peak_workers: 8,
        },
        conn: WireConnStats {
            open: 1_003,
            peak_open: 1_005,
            frames_in: 90,
            frames_out: 92,
            bytes_in: 16_384,
            bytes_out: 65_000,
            idle_reaped: 4,
            backpressure: 1,
            queue_depth_peak: 17,
            queue_wait_us_total: 4_200,
            queue_wait_us_max: 950,
            backend: "epoll".to_string(),
        },
        incremental: WireIncrementalStats {
            delta_batches: 6,
            rows_appended: 600,
            permutation_merges: 11,
            snapshots_refrozen: 5,
            fallback_rebuilds: 1,
        },
        storage: WireStorageStats {
            wal_records: 8,
            wal_bytes: 12_288,
            fsyncs: 9,
            checkpoints: 2,
            recovered_tables: 1,
            replayed_records: 3,
            truncated_tail_bytes: 17,
        },
    }
}

#[test]
fn golden_request_lines() {
    let cases = [
        (
            Request::Query(QueryRequest {
                sql: "SELECT SUM(v) FROM t WHERE v < 10 GROUP BY g".to_string(),
                estimators: vec!["bucket".to_string(), "naive".to_string()],
                cached: false,
                trace: true,
            }),
            r#"{"op":"query","sql":"SELECT SUM(v) FROM t WHERE v < 10 GROUP BY g","estimators":["bucket","naive"],"cached":false,"trace":true}"#,
        ),
        (
            Request::Query(QueryRequest {
                sql: "SELECT COUNT(*) FROM t".to_string(),
                estimators: Vec::new(),
                cached: true,
                trace: false,
            }),
            r#"{"op":"query","sql":"SELECT COUNT(*) FROM t","estimators":[],"cached":true,"trace":false}"#,
        ),
        (
            Request::LoadCsv(LoadCsvRequest {
                table: "t".to_string(),
                columns: vec![
                    ("k".to_string(), "str".to_string()),
                    ("v".to_string(), "float".to_string()),
                ],
                entity_column: "k".to_string(),
                source_column: "worker".to_string(),
                csv: "worker,k,v\n0,\"A\\B\",1\n".to_string(),
                append: false,
            }),
            r#"{"op":"load_csv","table":"t","columns":[["k","str"],["v","float"]],"entity_column":"k","source_column":"worker","append":false,"csv":"worker,k,v\n0,\"A\\B\",1\n"}"#,
        ),
        (
            Request::LoadCsv(LoadCsvRequest {
                table: "t".to_string(),
                columns: Vec::new(),
                entity_column: "k".to_string(),
                source_column: "worker".to_string(),
                csv: String::new(),
                append: true,
            }),
            r#"{"op":"load_csv","table":"t","columns":[],"entity_column":"k","source_column":"worker","append":true,"csv":""}"#,
        ),
        (
            Request::AppendStream {
                table: "t".to_string(),
                source_column: "worker".to_string(),
                csv: "worker,k,v\n0,B,2\n".to_string(),
            },
            r#"{"op":"append_stream","table":"t","source_column":"worker","csv":"worker,k,v\n0,B,2\n"}"#,
        ),
        (
            Request::Warm {
                sql: "SELECT SUM(v) FROM t".to_string(),
            },
            r#"{"op":"warm","sql":"SELECT SUM(v) FROM t"}"#,
        ),
        (
            Request::SessionOpen {
                name: "analyst-1".to_string(),
                estimators: vec!["bucket".to_string(), "monte-carlo".to_string()],
            },
            r#"{"op":"session_open","name":"analyst-1","estimators":["bucket","monte-carlo"]}"#,
        ),
        (
            Request::SessionOpen {
                name: "bare".to_string(),
                estimators: Vec::new(),
            },
            r#"{"op":"session_open","name":"bare","estimators":[]}"#,
        ),
        (
            Request::SessionClose {
                name: "analyst-1".to_string(),
            },
            r#"{"op":"session_close","name":"analyst-1"}"#,
        ),
        (
            Request::Prepare {
                session: "analyst-1".to_string(),
                name: "q1".to_string(),
                sql: "SELECT SUM(v) FROM t".to_string(),
            },
            r#"{"op":"prepare","session":"analyst-1","name":"q1","sql":"SELECT SUM(v) FROM t"}"#,
        ),
        (
            Request::ExecutePrepared {
                session: "analyst-1".to_string(),
                name: "q1".to_string(),
            },
            r#"{"op":"execute_prepared","session":"analyst-1","name":"q1"}"#,
        ),
        (
            Request::Deallocate {
                session: "analyst-1".to_string(),
                name: "q1".to_string(),
            },
            r#"{"op":"deallocate","session":"analyst-1","name":"q1"}"#,
        ),
        (Request::ServerInfo, r#"{"op":"server_info"}"#),
        (Request::Stats, r#"{"op":"stats"}"#),
        (Request::Metrics, r#"{"op":"metrics"}"#),
        (Request::Ping, r#"{"op":"ping"}"#),
        (Request::Checkpoint, r#"{"op":"checkpoint"}"#),
        (Request::Shutdown, r#"{"op":"shutdown"}"#),
    ];
    for (request, line) in &cases {
        assert_golden(request, line, Request::encode, |l| {
            Request::decode(l).unwrap()
        });
    }
}

#[test]
fn golden_response_lines() {
    let mut cases = vec![
        (
            Response::Query(QueryReply {
                sql: "SELECT SUM(v) FROM t".to_string(),
                cache_hit: true,
                elapsed_us: 123,
                grouped: false,
                groups: vec![GroupReply {
                    key: WireValue(Value::Null),
                    result: golden_result(13_300.0),
                }],
                trace: None,
            }),
            r#"{"ok":true,"op":"query","sql":"SELECT SUM(v) FROM t","cache_hit":true,"elapsed_us":123,"grouped":false,"groups":[{"key":null,"result":{"query":"SELECT SUM(v) FROM t","observed":13300,"corrected":"inf","method":"bucket","n_hat":-0,"upper_bound":"-inf","extreme":{"trusted":false,"observed":300,"estimated_missing":0.75},"diagnostics":{"coverage":0.8,"contributing_sources":5,"max_source_share":"NaN","source_gini":0.125},"recommendation":"bucket","estimates":[{"name":"naive","delta":1662.5,"n_hat":4.5,"corrected":14962.5},{"name":"freq","delta":null,"n_hat":null,"corrected":null}]}}]}"#,
        ),
        (
            Response::Query(QueryReply {
                sql: "SELECT MAX(v) FROM t GROUP BY g".to_string(),
                cache_hit: false,
                elapsed_us: 870,
                grouped: true,
                groups: vec![
                    GroupReply {
                        key: WireValue(Value::Str("CA".to_string())),
                        result: golden_result(f64::NAN),
                    },
                    GroupReply {
                        key: WireValue(Value::Int(-3)),
                        result: golden_bare_result(),
                    },
                    GroupReply {
                        key: WireValue(Value::Float(-0.0)),
                        result: golden_bare_result(),
                    },
                    GroupReply {
                        key: WireValue(Value::Float(f64::INFINITY)),
                        result: golden_bare_result(),
                    },
                ],
                trace: Some(vec![
                    WireSpan {
                        stage: "request".to_string(),
                        label: None,
                        parent: None,
                        start_ns: 0,
                        dur_ns: 870_000,
                    },
                    WireSpan {
                        stage: "estimator_fanout".to_string(),
                        label: Some("bucket".to_string()),
                        parent: Some(0),
                        start_ns: 12_500,
                        dur_ns: 700_000,
                    },
                ]),
            }),
            r#"{"ok":true,"op":"query","sql":"SELECT MAX(v) FROM t GROUP BY g","cache_hit":false,"elapsed_us":870,"grouped":true,"groups":[{"key":{"t":"str","v":"CA"},"result":{"query":"SELECT SUM(v) FROM t","observed":"NaN","corrected":"inf","method":"bucket","n_hat":-0,"upper_bound":"-inf","extreme":{"trusted":false,"observed":300,"estimated_missing":0.75},"diagnostics":{"coverage":0.8,"contributing_sources":5,"max_source_share":"NaN","source_gini":0.125},"recommendation":"bucket","estimates":[{"name":"naive","delta":1662.5,"n_hat":4.5,"corrected":14962.5},{"name":"freq","delta":null,"n_hat":null,"corrected":null}]}},{"key":{"t":"int","v":-3},"result":{"query":"SELECT MAX(v) FROM t GROUP BY g","observed":-0,"corrected":null,"method":"none","n_hat":null,"upper_bound":null,"extreme":null,"diagnostics":{"coverage":null,"contributing_sources":0,"max_source_share":null,"source_gini":null},"recommendation":"collect-more-data","estimates":[]}},{"key":{"t":"float","v":-0},"result":{"query":"SELECT MAX(v) FROM t GROUP BY g","observed":-0,"corrected":null,"method":"none","n_hat":null,"upper_bound":null,"extreme":null,"diagnostics":{"coverage":null,"contributing_sources":0,"max_source_share":null,"source_gini":null},"recommendation":"collect-more-data","estimates":[]}},{"key":{"t":"float","v":"inf"},"result":{"query":"SELECT MAX(v) FROM t GROUP BY g","observed":-0,"corrected":null,"method":"none","n_hat":null,"upper_bound":null,"extreme":null,"diagnostics":{"coverage":null,"contributing_sources":0,"max_source_share":null,"source_gini":null},"recommendation":"collect-more-data","estimates":[]}}],"trace":[{"stage":"request","parent":null,"start_ns":0,"dur_ns":870000},{"stage":"estimator_fanout","label":"bucket","parent":0,"start_ns":12500,"dur_ns":700000}]}"#,
        ),
        (
            Response::Query(QueryReply {
                sql: "SELECT COUNT(*) FROM t".to_string(),
                cache_hit: false,
                elapsed_us: 0,
                grouped: false,
                groups: Vec::new(),
                trace: Some(Vec::new()),
            }),
            r#"{"ok":true,"op":"query","sql":"SELECT COUNT(*) FROM t","cache_hit":false,"elapsed_us":0,"grouped":false,"groups":[],"trace":[]}"#,
        ),
        (
            Response::Loaded {
                table: "t".to_string(),
                observations: 9,
                entities: 4,
            },
            r#"{"ok":true,"op":"load_csv","table":"t","observations":9,"entities":4}"#,
        ),
        (
            Response::Appended {
                table: "t".to_string(),
                observations: 100,
                entities: 54,
                refrozen: 3,
                incremental: true,
            },
            r#"{"ok":true,"op":"append_stream","table":"t","observations":100,"entities":54,"refrozen":3,"incremental":true}"#,
        ),
        (
            Response::Appended {
                table: "t".to_string(),
                observations: 2,
                entities: 54,
                refrozen: 0,
                incremental: false,
            },
            r#"{"ok":true,"op":"append_stream","table":"t","observations":2,"entities":54,"refrozen":0,"incremental":false}"#,
        ),
        (
            Response::Warmed {
                sql: "SELECT SUM(v) FROM t".to_string(),
                universes: 4,
                already_cached: true,
            },
            r#"{"ok":true,"op":"warm","sql":"SELECT SUM(v) FROM t","universes":4,"already_cached":true}"#,
        ),
        (
            Response::Warmed {
                sql: "SELECT SUM(v) FROM t".to_string(),
                universes: 0,
                already_cached: false,
            },
            r#"{"ok":true,"op":"warm","sql":"SELECT SUM(v) FROM t","universes":0,"already_cached":false}"#,
        ),
        (
            Response::SessionOpened {
                name: "analyst-1".to_string(),
                estimators: vec!["bucket".to_string(), "naive".to_string()],
            },
            r#"{"ok":true,"op":"session_open","name":"analyst-1","estimators":["bucket","naive"]}"#,
        ),
        (
            Response::SessionOpened {
                name: "bare".to_string(),
                estimators: Vec::new(),
            },
            r#"{"ok":true,"op":"session_open","name":"bare","estimators":[]}"#,
        ),
        (
            Response::SessionClosed {
                name: "analyst-1".to_string(),
                prepared_dropped: 2,
            },
            r#"{"ok":true,"op":"session_close","name":"analyst-1","prepared_dropped":2}"#,
        ),
        (
            Response::Prepared {
                session: "analyst-1".to_string(),
                name: "q1".to_string(),
                sql: "SELECT SUM(v) FROM t".to_string(),
                universes: 1,
                already_cached: false,
            },
            r#"{"ok":true,"op":"prepare","session":"analyst-1","name":"q1","sql":"SELECT SUM(v) FROM t","universes":1,"already_cached":false}"#,
        ),
        (
            Response::Prepared {
                session: "analyst-1".to_string(),
                name: "q2".to_string(),
                sql: "SELECT SUM(v) FROM t".to_string(),
                universes: 1,
                already_cached: true,
            },
            r#"{"ok":true,"op":"prepare","session":"analyst-1","name":"q2","sql":"SELECT SUM(v) FROM t","universes":1,"already_cached":true}"#,
        ),
        (
            Response::Deallocated {
                session: "analyst-1".to_string(),
                name: "q1".to_string(),
            },
            r#"{"ok":true,"op":"deallocate","session":"analyst-1","name":"q1"}"#,
        ),
        (
            Response::Info(ServerInfoReply {
                version: "0.1.0".to_string(),
                protocol: PROTOCOL_VERSION,
                uptime_ms: 12,
                active_sessions: 3,
                fronts: vec!["json".to_string(), "pgwire".to_string()],
                workers: 4,
                data_dir: None,
                durability: "off".to_string(),
                last_checkpoint_age_ms: None,
            }),
            r#"{"ok":true,"op":"server_info","version":"0.1.0","protocol":7,"uptime_ms":12,"active_sessions":3,"fronts":["json","pgwire"],"workers":4,"data_dir":null,"durability":"off","last_checkpoint_age_ms":null}"#,
        ),
        (
            Response::Info(ServerInfoReply {
                version: "0.1.0".to_string(),
                protocol: PROTOCOL_VERSION,
                uptime_ms: 90_000,
                active_sessions: 0,
                fronts: Vec::new(),
                workers: 2,
                data_dir: Some("/var/lib/uu".to_string()),
                durability: "batch".to_string(),
                last_checkpoint_age_ms: Some(1_234.5),
            }),
            r#"{"ok":true,"op":"server_info","version":"0.1.0","protocol":7,"uptime_ms":90000,"active_sessions":0,"fronts":[],"workers":2,"data_dir":"/var/lib/uu","durability":"batch","last_checkpoint_age_ms":1234.5}"#,
        ),
        (
            Response::Stats(Box::new(golden_stats(
                vec![WireSessionStats {
                    name: "analyst-1".to_string(),
                    estimators: vec!["bucket".to_string()],
                    prepared: 2,
                    executes: 40,
                    frozen_hits: 38,
                    age_ms: 600,
                }],
                Some(1e6),
            ))),
            r#"{"ok":true,"op":"stats","protocol":7,"tables":["companies","t"],"workers":4,"connections":10,"requests":25,"errors":2,"uptime_ms":1234,"sessions":[{"name":"analyst-1","estimators":["bucket"],"prepared":2,"executes":40,"frozen_hits":38,"age_ms":600}],"cache":{"hits":7,"misses":3,"insertions":3,"evictions":1,"invalidations":0,"expirations":0,"len":2,"bytes":4096,"capacity":128,"byte_budget":1000000,"ttl_ms":250000},"projection":{"builds":3,"reuses":17,"bytes":65536},"exec":{"threads":8,"regions":100,"parallel_regions":20,"tasks":500,"steals":9,"peak_workers":8},"conn":{"open":1003,"peak_open":1005,"frames_in":90,"frames_out":92,"bytes_in":16384,"bytes_out":65000,"idle_reaped":4,"backpressure":1,"queue_depth_peak":17,"queue_wait_us_total":4200,"queue_wait_us_max":950,"backend":"epoll"},"incremental":{"delta_batches":6,"rows_appended":600,"permutation_merges":11,"snapshots_refrozen":5,"fallback_rebuilds":1},"storage":{"wal_records":8,"wal_bytes":12288,"fsyncs":9,"checkpoints":2,"recovered_tables":1,"replayed_records":3,"truncated_tail_bytes":17}}"#,
        ),
        (
            Response::Stats(Box::new(golden_stats(Vec::new(), None))),
            r#"{"ok":true,"op":"stats","protocol":7,"tables":["companies","t"],"workers":4,"connections":10,"requests":25,"errors":2,"uptime_ms":1234,"sessions":[],"cache":{"hits":7,"misses":3,"insertions":3,"evictions":1,"invalidations":0,"expirations":0,"len":2,"bytes":4096,"capacity":128,"byte_budget":null,"ttl_ms":null},"projection":{"builds":3,"reuses":17,"bytes":65536},"exec":{"threads":8,"regions":100,"parallel_regions":20,"tasks":500,"steals":9,"peak_workers":8},"conn":{"open":1003,"peak_open":1005,"frames_in":90,"frames_out":92,"bytes_in":16384,"bytes_out":65000,"idle_reaped":4,"backpressure":1,"queue_depth_peak":17,"queue_wait_us_total":4200,"queue_wait_us_max":950,"backend":"epoll"},"incremental":{"delta_batches":6,"rows_appended":600,"permutation_merges":11,"snapshots_refrozen":5,"fallback_rebuilds":1},"storage":{"wal_records":8,"wal_bytes":12288,"fsyncs":9,"checkpoints":2,"recovered_tables":1,"replayed_records":3,"truncated_tail_bytes":17}}"#,
        ),
        (
            Response::Metrics(MetricsReply {
                entries: vec![
                    WireStageMetrics {
                        verb: "query".to_string(),
                        stage: "request".to_string(),
                        count: 41,
                        p50_us: 420.5,
                        p90_us: 1_000.0,
                        p99_us: 2_830.0,
                        max_us: f64::INFINITY,
                        mean_us: -0.0,
                    },
                    WireStageMetrics {
                        verb: "append_stream".to_string(),
                        stage: "refreeze".to_string(),
                        count: 0,
                        p50_us: f64::NAN,
                        p90_us: f64::NEG_INFINITY,
                        p99_us: 120.0,
                        max_us: 118.75,
                        mean_us: 99.5,
                    },
                ],
            }),
            r#"{"ok":true,"op":"metrics","entries":[{"verb":"query","stage":"request","count":41,"p50_us":420.5,"p90_us":1000,"p99_us":2830,"max_us":"inf","mean_us":-0},{"verb":"append_stream","stage":"refreeze","count":0,"p50_us":"NaN","p90_us":"-inf","p99_us":120,"max_us":118.75,"mean_us":99.5}]}"#,
        ),
        (
            Response::Metrics(MetricsReply {
                entries: Vec::new(),
            }),
            r#"{"ok":true,"op":"metrics","entries":[]}"#,
        ),
        (Response::Pong, r#"{"ok":true,"op":"ping"}"#),
        (
            Response::Checkpointed {
                tables: 2,
                bytes: 40_960,
            },
            r#"{"ok":true,"op":"checkpoint","tables":2,"bytes":40960}"#,
        ),
        (Response::Bye, r#"{"ok":true,"op":"shutdown"}"#),
        (
            Response::Error(WireError {
                code: ErrorCode::UnknownEstimator,
                message: "unknown estimator \"chao2000\"".to_string(),
                accepted: vec!["naive".to_string(), "bucket".to_string()],
            }),
            r#"{"ok":false,"error":{"code":"unknown_estimator","message":"unknown estimator \"chao2000\"","accepted":["naive","bucket"]}}"#,
        ),
    ];
    let error_lines = [
        r#"{"ok":false,"error":{"code":"malformed_request","message":"boom","accepted":[]}}"#,
        r#"{"ok":false,"error":{"code":"parse","message":"boom","accepted":[]}}"#,
        r#"{"ok":false,"error":{"code":"unknown_table","message":"boom","accepted":[]}}"#,
        r#"{"ok":false,"error":{"code":"unknown_estimator","message":"boom","accepted":[]}}"#,
        r#"{"ok":false,"error":{"code":"table","message":"boom","accepted":[]}}"#,
        r#"{"ok":false,"error":{"code":"csv","message":"boom","accepted":[]}}"#,
        r#"{"ok":false,"error":{"code":"duplicate_table","message":"boom","accepted":[]}}"#,
        r#"{"ok":false,"error":{"code":"unknown_session","message":"boom","accepted":[]}}"#,
        r#"{"ok":false,"error":{"code":"duplicate_session","message":"boom","accepted":[]}}"#,
        r#"{"ok":false,"error":{"code":"unknown_prepared","message":"boom","accepted":[]}}"#,
        r#"{"ok":false,"error":{"code":"duplicate_prepared","message":"boom","accepted":[]}}"#,
        r#"{"ok":false,"error":{"code":"frame_too_large","message":"boom","accepted":[]}}"#,
        r#"{"ok":false,"error":{"code":"resource_limit","message":"boom","accepted":[]}}"#,
        r#"{"ok":false,"error":{"code":"storage","message":"boom","accepted":[]}}"#,
        r#"{"ok":false,"error":{"code":"internal","message":"boom","accepted":[]}}"#,
    ];
    for (code, line) in ErrorCode::all().into_iter().zip(error_lines) {
        cases.push((Response::Error(WireError::new(code, "boom")), line));
    }
    for (response, line) in &cases {
        assert_golden(response, line, Response::encode, |l| {
            Response::decode(l).unwrap()
        });
    }
}
