//! Per-layer metrics of the traced run.
//!
//! Three sources, all recorded in one span buffer:
//! - the traced window: every client exchange is a span tree (`rt` →
//!   encode / wire / decode, with the server's own stage spans grafted under
//!   the wire), giving each layer's self time;
//! - the server's own counters (`stats`) around the untraced window;
//! - an in-process replay of the workload's requests and batches, where
//!   every call the benchmark makes into a layer's public function is one
//!   span.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use uu_core::engine::{bucket_estimator, EstimationSession, EstimatorKind};
use uu_core::profile::ProfileSnapshot;
use uu_core::MonteCarloConfig;
use uu_query::csv::parse_observations;
use uu_query::exec::refreeze_selection;
use uu_query::sql::parse;
use uu_server::pgwire::PgClient;
use uu_server::protocol::{Request, Response, StatsReply};
use uu_server::service::{Service, SessionCtx};
use uu_store::{FsyncPolicy, Store};

use crate::client::{query, JsonConn};
use crate::data::{ENTITY_COLUMN, SOURCE_COLUMN, TABLE};
use crate::oracle::{schema, Replica};
use crate::plan::{Kind, Plan, JSON_ESTIMATORS};
use crate::report::{mean, median, metric, us, Metric};
use crate::trace::Tracer;
use crate::window::WindowOut;

/// Wall-clock budget of each query-path replay phase.
const BUDGET: Duration = Duration::from_millis(1000);
/// Batches the append replay applies, with a store checkpoint after every
/// `CHECKPOINT_EVERY` of them.
const APPEND_REPLAY: usize = 16;
const CHECKPOINT_EVERY: usize = 5;

/// Measurements taken against the live server after the traced window.
#[derive(Default)]
pub struct LiveProbe {
    /// Serial pgwire round trips of the plan's probe SQL, ms.
    pub pg_ms: Vec<f64>,
    /// JSON round trips minus `elapsed_us`, and `elapsed_us` (`bi` only).
    pub wire_us: Vec<f64>,
    pub elapsed_us: Vec<f64>,
}

/// A serial pgwire probe of the plan's probe SQL, and on `bi` (whose window
/// speaks only pgwire) a JSON probe of its panel.
pub fn live_probe(
    plan: &Plan,
    addr: std::net::SocketAddr,
    pg: std::net::SocketAddr,
) -> Result<LiveProbe, String> {
    let mut out = LiveProbe::default();
    let mut client = PgClient::connect(pg)?;
    for sql in &plan.pg_probe {
        let t0 = Instant::now();
        client
            .simple_query(sql)
            .map_err(|e| format!("pgwire probe: {}", e.message))?;
        out.pg_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    if plan.pgwire {
        let mut conn = JsonConn::connect(addr, Duration::ZERO)?;
        for i in 0..100 {
            let sql = plan.sels[i % plan.sels.len()].sql();
            let ex = conn.call_ok(&query(&sql, JSON_ESTIMATORS))?;
            if let Response::Query(r) = &ex.response {
                out.wire_us
                    .push(ex.round_trip().as_secs_f64() * 1e6 - r.elapsed_us as f64);
                out.elapsed_us.push(r.elapsed_us as f64);
            }
        }
    }
    Ok(out)
}

pub struct Inputs<'a> {
    pub plan: &'a Plan,
    pub plain: &'a WindowOut,
    pub traced: &'a WindowOut,
    /// Server counters before and after the untraced window.
    pub stats0: &'a StatsReply,
    pub stats1: &'a StatsReply,
    /// Server counters around the write probe.
    pub probe_stats: (&'a StatsReply, &'a StatsReply),
    pub ping_us: f64,
    pub live: &'a LiveProbe,
    pub run_dir: &'a Path,
    /// The server's peak resident set and the durable state's restart time.
    pub peak_rss_mb: f64,
    pub restart_s: f64,
}

/// Times `f` as a span named `name` under `parent`.
fn span<T>(tr: &mut Tracer, name: &str, parent: usize, req: u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    tr.record(name, t0, Instant::now(), Some(parent), req);
    out
}

/// Replays the workload in process; every layer call is a span.
fn replay(inp: &Inputs, tr: &mut Tracer) -> Result<Replayed, String> {
    let plan = inp.plan;
    let mut out = Replayed::default();
    let initial = plan.data.initial_csv();
    let state = || Replica::new(&initial);
    let kinds: Vec<EstimatorKind> = if plan.pgwire {
        EstimatorKind::all()
    } else {
        JSON_ESTIMATORS
            .iter()
            .map(|n| EstimatorKind::by_name(n).expect("registry name"))
            .collect()
    };

    // Query path, against replicas warmed like the server at window start.
    let replica = state()?;
    for sql in &plan.warm {
        replica.catalog.warm_sql(sql).map_err(|e| e.to_string())?;
    }
    let service = Service::new(state()?.catalog, 0);
    let mut ctx = SessionCtx::new();
    for sql in &plan.warm {
        service.dispatch(&mut ctx, Request::Warm { sql: sql.clone() });
    }
    let seq: Vec<usize> = if plan.pgwire {
        (0..plan.sels.len()).collect()
    } else {
        plan.seqs[0].clone()
    };
    let t_end = Instant::now() + BUDGET;
    let mut req = 1u64 << 48;
    for (i, &sel) in seq.iter().enumerate() {
        if Instant::now() > t_end && i > 0 {
            break;
        }
        req += 1;
        let sql = plan.sels[sel].sql();
        let t0 = Instant::now();
        let root = tr.record("replay.query", t0, t0, None, req);
        span(tr, "sql.parse", root, req, || parse(&sql)).map_err(|e| e.to_string())?;
        span(tr, "catalog.selection", root, req, || {
            replica.catalog.selection_sql(&sql)
        })
        .map_err(|e| e.to_string())?;
        if plan.pgwire {
            for kind in &kinds {
                let r = span(tr, "service.dispatch", root, req, || {
                    service.dispatch(&mut ctx, query(&sql, &[kind.name()]))
                });
                let Response::Query(reply) = r else {
                    return Err(format!("in-process dispatch answered {}", r.encode()));
                };
                let request = query(&sql, &[kind.name()]);
                span(tr, "protocol.encode", root, req, || request.encode());
                let line = Response::Query(reply).encode();
                out.reply_bytes.push(line.len() as f64 + 1.0);
                span(tr, "protocol.decode", root, req, || Response::decode(&line))
                    .map_err(|e| e.to_string())?;
            }
        } else {
            let r = span(tr, "service.dispatch", root, req, || {
                service.dispatch(&mut ctx, query(&sql, JSON_ESTIMATORS))
            });
            if let Response::Error(e) = r {
                return Err(format!("in-process dispatch failed: {}", e.message));
            }
        }
        tr.spans[root].end_ns = tr.ns(Instant::now());
    }
    // The pgwire front's work for the probe SQL, dispatched in process.
    for sql in &plan.pg_probe {
        let p0 = Instant::now();
        for kind in EstimatorKind::all() {
            service.dispatch(&mut ctx, query(sql, &[kind.name()]));
        }
        out.panel_dispatch_ms.push(p0.elapsed().as_secs_f64() * 1e3);
    }

    // Cold-path kernels over the workload's distinct selections.
    let table = replica.catalog.get(TABLE).expect("table registered");
    let mut distinct: Vec<usize> = Vec::new();
    for &s in &seq {
        if !distinct.contains(&s) {
            distinct.push(s);
        }
    }
    let t_end = Instant::now() + BUDGET;
    for (i, &sel) in distinct.iter().enumerate() {
        if Instant::now() > t_end && i > 0 {
            break;
        }
        req += 1;
        let q = parse(&plan.sels[sel].sql()).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let root = tr.record("replay.kernels", t0, t0, None, req);
        let universes = span(tr, "columnar.select", root, req, || match &q.group_by {
            Some(g) => table.grouped_sample_views_with_sorted(q.column.as_deref(), &q.predicate, g),
            None => table
                .sample_view_with_sorted(q.column.as_deref(), &q.predicate)
                .map(|(v, s)| vec![(uu_query::value::Value::Null, v, s)]),
        })
        .map_err(|e| e.to_string())?;
        let snapshots: Vec<ProfileSnapshot> = span(tr, "profile.freeze", root, req, || {
            universes
                .into_iter()
                .map(|(_, view, sorted)| ProfileSnapshot::capture_presorted(view, sorted))
                .collect()
        });
        let session = EstimationSession::new(kinds.clone());
        for snap in &snapshots {
            let profile = snap.profile();
            let sorted = profile.sorted_items();
            span(tr, "bucket.partition", root, req, || {
                bucket_estimator().bucketize_sorted(sorted)
            });
            span(tr, "species.ladder", root, req, || {
                uu_stats::species::chao92(snap.view().freq())
            });
            span(tr, "engine.fanout", root, req, || {
                session.run_profiled(&snap.profile())
            });
        }
        // Monte-Carlo is the costly kind: time it on the first universe of
        // the first selection, or of each panel query on `bi`.
        if i == 0 || (plan.pgwire && i < plan.sels.len()) {
            let mc =
                EstimationSession::new([EstimatorKind::MonteCarlo(MonteCarloConfig::default())]);
            if let Some(snap) = snapshots.first() {
                span(tr, "montecarlo.estimate", root, req, || {
                    mc.run_profiled(&snap.profile())
                });
            }
        }
        tr.spans[root].end_ns = tr.ns(Instant::now());
    }

    // Append path and storage, in the service's order: parse, log, apply;
    // against the set-up load with the workload's selections cached, as
    // `ingest`'s appends see it.
    let mut appender = Replica::new(&initial)?;
    let rewarm: Vec<String> = plan
        .warm
        .iter()
        .cloned()
        .chain(if plan.kind == Kind::Explore {
            distinct
                .iter()
                .take(16)
                .map(|&s| plan.sels[s].sql())
                .collect()
        } else {
            Vec::new()
        })
        .collect();
    let store_dir = inp.run_dir.join("replay-store");
    let policy = FsyncPolicy::parse(plan.fsync).expect("a valid fsync policy");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = Store::open(&store_dir, policy, u64::MAX, u64::MAX).map_err(|e| e.to_string())?;
    let columns: Vec<_> = schema()
        .columns()
        .iter()
        .map(|c| (c.name.clone(), c.ty))
        .collect();
    let initial_batch =
        parse_observations(&schema(), &initial, SOURCE_COLUMN).map_err(|e| e.to_string())?;
    store
        .log_fresh(TABLE, &columns, ENTITY_COLUMN, &initial_batch)
        .map_err(|e| e.to_string())?;
    let batches = &plan.batches[..APPEND_REPLAY];
    for (i, b) in batches.iter().enumerate() {
        for sql in &rewarm {
            appender
                .catalog
                .selection_sql(sql)
                .map_err(|e| e.to_string())?;
        }
        req += 1;
        let t0 = Instant::now();
        let root = tr.record("replay.append", t0, t0, None, req);
        let batch = span(tr, "csv.parse", root, req, || {
            parse_observations(&schema(), &b.csv, SOURCE_COLUMN)
        })
        .map_err(|e| e.to_string())?;
        let version = appender.catalog.get(TABLE).expect("table").version();
        span(tr, "store.wal_append", root, req, || {
            store.log_append(TABLE, version, &batch)
        })
        .map_err(|e| e.to_string())?;
        let cached = appender.catalog.cache().entries_for_table(TABLE);
        let inc0 = appender.catalog.incremental_stats();
        let (delta, refrozen) = span(tr, "catalog.append", root, req, || {
            appender.catalog.append_observations(TABLE, batch)
        })
        .map_err(|e| e.to_string())?;
        let inc1 = appender.catalog.incremental_stats();
        out.refrozen.push(refrozen as f64);
        out.fallbacks += inc1.fallback_rebuilds - inc0.fallback_rebuilds;
        out.refreezes += refrozen;
        let table = appender.catalog.get(TABLE).expect("table");
        for (_, sel) in cached.iter().take(4) {
            span(tr, "profile.refreeze", root, req, || {
                refreeze_selection(table, sel, &delta)
            });
        }
        tr.spans[root].end_ns = tr.ns(Instant::now());
        if (i + 1) % CHECKPOINT_EVERY == 0 || i + 1 == batches.len() {
            let c0 = Instant::now();
            store
                .checkpoint(&appender.catalog)
                .map_err(|e| e.to_string())?;
            let c1 = Instant::now();
            tr.record("store.checkpoint", c0, c1, None, req);
            out.checkpoint_ms.push((c1 - c0).as_secs_f64() * 1e3);
        }
    }
    drop(store);
    for _ in 0..3 {
        let store =
            Store::open(&store_dir, policy, u64::MAX, u64::MAX).map_err(|e| e.to_string())?;
        let mut catalog = uu_query::catalog::Catalog::new();
        let r0 = Instant::now();
        store.recover(&mut catalog).map_err(|e| e.to_string())?;
        let r1 = Instant::now();
        tr.record("store.recover", r0, r1, None, req);
        out.recover_ms.push((r1 - r0).as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(out)
}

#[derive(Default)]
struct Replayed {
    panel_dispatch_ms: Vec<f64>,
    reply_bytes: Vec<f64>,
    refrozen: Vec<f64>,
    refreezes: u64,
    fallbacks: u64,
    checkpoint_ms: Vec<f64>,
    recover_ms: Vec<f64>,
}

fn self_us(by_name: &BTreeMap<String, Vec<u64>>, name: &str) -> (f64, usize) {
    match by_name.get(name) {
        Some(v) => (median(&us(v)), v.len()),
        None => (f64::NAN, 0),
    }
}

fn delta(a: u64, b: u64) -> f64 {
    b.saturating_sub(a) as f64
}

/// The per-layer metrics. `tr` holds the traced window's spans on entry;
/// the replay's spans are appended to it.
pub fn per_layer(inp: &Inputs, tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    let plan = inp.plan;
    let window_spans = tr.spans.len();
    let (gap_ns, roots) = tr.tiling_gap("rt");
    let rp = replay(inp, tr)?;
    let by_name = tr.self_by_name();

    let mut m = Vec::new();
    let n = |name: &str| self_us(&by_name, name);
    let layer = |m: &mut Vec<Metric>, key: &'static str, span: &str, unit_ms: bool| {
        let (v, count) = n(span);
        let (v, unit) = if unit_ms { (v / 1e3, "ms") } else { (v, "us") };
        m.push(metric(
            key,
            v,
            unit,
            format!("(median self time, n={count})"),
        ));
    };

    // Client codec and transport.
    layer(&mut m, "protocol.encode_us", "protocol.encode", false);
    layer(&mut m, "protocol.decode_us", "protocol.decode", false);
    let reply_bytes = if plan.pgwire {
        &rp.reply_bytes
    } else {
        &inp.plain.reply_bytes
    };
    m.push(metric(
        "protocol.reply_bytes",
        median(reply_bytes),
        "bytes",
        format!("(median, n={})", reply_bytes.len()),
    ));
    m.push(metric(
        "reactor.ping_us",
        inp.ping_us,
        "us",
        "(median of pings)".into(),
    ));
    let (wire, elapsed) = if plan.pgwire {
        (&inp.live.wire_us, &inp.live.elapsed_us)
    } else {
        (&inp.plain.wire_us, &inp.plain.elapsed_us)
    };
    m.push(metric(
        "reactor.wire_us",
        median(wire),
        "us",
        format!("(client wait - server elapsed_us, n={})", wire.len()),
    ));
    let (s0, s1) = (inp.stats0, inp.stats1);
    let frames = delta(s0.conn.frames_in, s1.conn.frames_in).max(1.0);
    m.push(metric(
        "reactor.queue_wait_us",
        delta(s0.conn.queue_wait_us_total, s1.conn.queue_wait_us_total) / frames,
        "us",
        format!("(stats, per frame over {frames} frames)"),
    ));
    m.push(metric(
        "service.elapsed_us",
        median(elapsed),
        "us",
        format!("(reply elapsed_us, n={})", elapsed.len()),
    ));
    layer(&mut m, "service.dispatch_us", "service.dispatch", false);
    let pg_rt_ms = median(&inp.live.pg_ms);
    m.push(metric(
        "pgwire.overhead_ms",
        pg_rt_ms - median(&rp.panel_dispatch_ms),
        "ms",
        format!(
            "(pgwire round trip {pg_rt_ms:.3} ms - in-process panel dispatch {:.3} ms)",
            median(&rp.panel_dispatch_ms)
        ),
    ));

    // Query layers.
    layer(&mut m, "sql.parse_us", "sql.parse", false);
    layer(&mut m, "catalog.selection_us", "catalog.selection", false);
    let hits = delta(s0.cache.hits, s1.cache.hits);
    let probes = hits + delta(s0.cache.misses, s1.cache.misses);
    m.push(metric(
        "catalog.cache_hit_ratio",
        hits / probes.max(1.0),
        "ratio",
        format!("(stats, {hits} hits / {probes} probes)"),
    ));
    m.push(metric(
        "catalog.cache_evictions",
        delta(s0.cache.evictions, s1.cache.evictions),
        "count",
        "(stats, untraced window)".into(),
    ));
    layer(&mut m, "catalog.append_us", "catalog.append", false);
    m.push(metric(
        "catalog.refrozen_per_append",
        mean(&rp.refrozen),
        "count",
        format!("(replay, mean over {} batches)", rp.refrozen.len()),
    ));
    m.push(metric(
        "catalog.fallback_ratio",
        rp.fallbacks as f64 / ((rp.fallbacks + rp.refreezes) as f64).max(1.0),
        "ratio",
        format!(
            "(replay, {} fallbacks, {} refreezes)",
            rp.fallbacks, rp.refreezes
        ),
    ));
    layer(&mut m, "columnar.select_us", "columnar.select", false);
    m.push(metric(
        "columnar.projection_builds",
        delta(s0.projection.builds, s1.projection.builds),
        "count",
        "(stats, untraced window)".into(),
    ));
    m.push(metric(
        "columnar.projection_bytes",
        s1.projection.bytes as f64,
        "bytes",
        "(stats)".into(),
    ));
    layer(&mut m, "csv.parse_us", "csv.parse", false);
    layer(&mut m, "profile.freeze_us", "profile.freeze", false);
    layer(&mut m, "profile.refreeze_us", "profile.refreeze", false);
    m.push(metric(
        "profile.cache_bytes",
        s1.cache.bytes as f64,
        "bytes",
        "(stats)".into(),
    ));
    layer(&mut m, "bucket.partition_us", "bucket.partition", false);
    layer(&mut m, "species.ladder_us", "species.ladder", false);
    layer(&mut m, "engine.fanout_us", "engine.fanout", false);
    layer(
        &mut m,
        "montecarlo.estimate_ms",
        "montecarlo.estimate",
        true,
    );
    m.push(metric(
        "exec.tasks",
        delta(s0.exec.tasks, s1.exec.tasks),
        "count",
        "(stats, untraced window)".into(),
    ));
    m.push(metric(
        "exec.steals",
        delta(s0.exec.steals, s1.exec.steals),
        "count",
        "(stats, untraced window)".into(),
    ));
    m.push(metric(
        "exec.peak_workers",
        s1.exec.peak_workers as f64,
        "count",
        "(stats)".into(),
    ));

    // Storage: the server's counters over its streamed batches: the
    // window's on `ingest`, the write probe's elsewhere.
    let (st0, st1, appends, rows) = if plan.kind == Kind::Ingest {
        (
            s0,
            s1,
            inp.plain.append_ns.len() as f64,
            inp.plain.append_rows.iter().sum::<u64>() as f64,
        )
    } else {
        let probe = &plan.batches[..plan.probe_len];
        (
            inp.probe_stats.0,
            inp.probe_stats.1,
            probe.len() as f64,
            probe.iter().map(|b| b.rows).sum::<u64>() as f64,
        )
    };
    layer(&mut m, "store.wal_append_us", "store.wal_append", false);
    m.push(metric(
        "store.fsyncs_per_append",
        delta(st0.storage.fsyncs, st1.storage.fsyncs) / appends.max(1.0),
        "count",
        format!("(stats, over {appends} appends)"),
    ));
    m.push(metric(
        "store.checkpoint_ms",
        median(&rp.checkpoint_ms),
        "ms",
        format!("(replay, n={})", rp.checkpoint_ms.len()),
    ));
    m.push(metric(
        "store.checkpoints",
        delta(st0.storage.checkpoints, st1.storage.checkpoints),
        "count",
        format!("(stats, over {appends} appends)"),
    ));
    m.push(metric(
        "store.wal_bytes_per_row",
        delta(st0.storage.wal_bytes, st1.storage.wal_bytes) / rows.max(1.0),
        "bytes",
        format!("(stats, over {rows} rows)"),
    ));
    m.push(metric(
        "store.recover_ms",
        median(&rp.recover_ms),
        "ms",
        format!("(replay, n={})", rp.recover_ms.len()),
    ));

    m.push(metric(
        "server.peak_rss_mb",
        inp.peak_rss_mb,
        "MB",
        "(server VmHWM at the end of the windows)".into(),
    ));
    m.push(metric(
        "store.restart_s",
        inp.restart_s,
        "s",
        "(SIGKILL restart of the durable state to the first answer, lower quartile)".into(),
    ));

    // CPU per operation of each end, untraced window.
    let per_op = |ns: u64| ns as f64 / 1e3 / inp.plain.ops().max(1) as f64;
    m.push(metric(
        "server.cpu_us_per_op",
        per_op(inp.plain.server_cpu_ns),
        "us",
        "(server process CPU over the untraced window, raw)".into(),
    ));
    m.push(metric(
        "client.cpu_us_per_op",
        per_op(inp.plain.client_cpu_ns),
        "us",
        "(load threads' CPU inside their calls, untraced window, raw)".into(),
    ));

    // Tracing itself: CPU per operation, traced against untraced.
    let (plain_cpu, traced_cpu) = (inp.plain.cpu_us_per_op(), inp.traced.cpu_us_per_op());
    m.push(metric(
        "trace.overhead_pct",
        (traced_cpu - plain_cpu) / plain_cpu * 100.0,
        "%",
        format!("(untraced {plain_cpu:.2} us, traced {traced_cpu:.2} us CPU per op)"),
    ));
    println!("tiling: over {roots} traced round trips, |sum of layer self times - round trip| <= {gap_ns} ns");
    let (rest, rest_n) = n("service.request");
    if rest_n > 0 {
        println!("unattributed remainder (server time outside its stages): median {rest:.2} us, n={rest_n}");
    }
    println!(
        "self time by span (window spans: {window_spans}, total: {}):",
        tr.spans.len()
    );
    for (name, v) in &by_name {
        let total: u64 = v.iter().sum();
        println!(
            "  {name:<28} n={:<7} median={:>10.2} us  total={:>10.1} ms",
            v.len(),
            median(&us(v)),
            total as f64 / 1e6
        );
    }
    Ok(m)
}
