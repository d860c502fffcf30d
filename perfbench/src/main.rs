//! End-to-end benchmark of the estimation server.
//!
//! ```text
//! perfbench --server PATH --workload dashboard|explore|ingest|bi
//!           --seed N --seconds S --trace 0|1
//!           [--rustc VERSION] [--commit ID]
//!           [--inject-delay-us N] [--inject-start-ms N]
//! ```
//!
//! One process drives the release `uu-server`, started as a child process
//! on loopback, with closed-loop connections replaying request lists
//! generated from the seed. Every answer is checked against an in-process
//! oracle; after the window the server is killed with SIGKILL, restarted on
//! its data directory, and must still hold every acknowledged batch.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is non-zero when any answer is wrong or an operation failed. Apart from
//! `setup_s`, the timed metrics are CPU times of both ends, scaled to a
//! reference core speed (see `host`): a shared host's wall-clock speed
//! moves by a factor of two from minute to minute. Wall-clock latencies and
//! rates are printed beside them as `info` lines.
//!
//! `--inject-delay-us` adds a synthetic delay to every request the
//! benchmark sends, `--inject-start-ms` to every server start it times; both
//! sit in the benchmark's own client path, never in the server. The
//! self-test uses them to show that the comparison flags a slowdown of each
//! bound's size.

mod client;
mod data;
mod host;
mod layers;
mod oracle;
mod plan;
mod proc;
mod report;
mod trace;
mod window;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use uu_server::pgwire::PgClient;
use uu_server::protocol::{LoadCsvRequest, Request, Response, StatsReply};

use crate::client::{query, spin, JsonConn};
use crate::data::{Batch, Sel, COLUMNS, ENTITY_COLUMN, SOURCE_COLUMN, TABLE};
use crate::oracle::{fingerprint, Replica};
use crate::plan::{Kind, Plan};
use crate::proc::ServerProc;
use crate::report::{json_num, json_str, lower_quartile, median, metric, percentile, us, Metric};
use crate::window::{Conn, Ctx, Lockstep, Role, Worker};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Timed restarts of the durable state; `recover_s` is their lower quartile.
const RESTARTS: usize = 9;
/// Per-run scratch (data directories) and span dumps, relative to the
/// checkout the benchmark runs in.
const OUT_DIR: &str = ".bench_run";
/// Pings behind the transport floor.
const PINGS: usize = 200;

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustc: String,
    commit: String,
    delay: Duration,
    start_delay: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        server: PathBuf::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rustc: "unknown".into(),
        commit: "unknown".into(),
        delay: Duration::ZERO,
        start_delay: Duration::ZERO,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag} expects a number"))
        };
        match flag.as_str() {
            "--server" => a.server = PathBuf::from(value),
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => a.seconds = num(&value)?,
            "--trace" => a.trace = value == "1",
            "--rustc" => a.rustc = value,
            "--commit" => a.commit = value,
            "--inject-delay-us" => a.delay = Duration::from_secs_f64(num(&value)? / 1e6),
            "--inject-start-ms" => a.start_delay = Duration::from_secs_f64(num(&value)? / 1e3),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.server.as_os_str().is_empty() || !a.server.is_file() {
        return Err(format!("server binary {:?} not found", a.server));
    }
    if a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

fn load_request(csv: &str) -> Request {
    Request::LoadCsv(LoadCsvRequest {
        table: TABLE.into(),
        columns: COLUMNS
            .iter()
            .map(|(n, t)| (n.to_string(), t.to_string()))
            .collect(),
        entity_column: ENTITY_COLUMN.into(),
        source_column: SOURCE_COLUMN.into(),
        csv: csv.to_string(),
        append: false,
    })
}

fn append_request(batch: &Batch) -> Request {
    Request::AppendStream {
        table: TABLE.into(),
        source_column: SOURCE_COLUMN.into(),
        csv: batch.csv.clone(),
    }
}

fn stats(conn: &mut JsonConn) -> Result<StatsReply, String> {
    match conn.call_ok(&Request::Stats)?.response {
        Response::Stats(s) => Ok(*s),
        other => Err(format!("stats answered {}", other.encode())),
    }
}

/// A server that finished set-up, with what set-up measured.
struct Ready {
    server: ServerProc,
    control: JsonConn,
    setup_s: Vec<f64>,
    probe: Probe,
    /// Server counters around the write probe.
    probe_stats: (StatsReply, StatsReply),
}

/// The write probe: `probe_len` back-to-back `append_stream` batches
/// against a warmed set-up server, so each append re-freezes the
/// workload's cached selections, as `ingest`'s window appends do.
struct Probe {
    /// CPU µs per batch, both ends, at the reference core speed.
    cpu_us: f64,
    /// The host's slowdown against the reference during the probe.
    slow: f64,
    /// Wall-clock round trips, µs.
    round_trip_us: Vec<f64>,
}

/// Starts the server, loads the initial 70 % and warms the panel,
/// `SETUP_REPS` times on a fresh data directory, keeping the last server;
/// `setup_s` is the wall time of each. The first set-up's server then runs
/// the write probe, so the window's server starts from the set-up state.
fn setup(args: &Args, plan: &Plan, data_dir: &Path, tally: &mut Tally) -> Result<Ready, String> {
    let initial_csv = plan.data.initial_csv();
    let initial_rows = plan.data.initial as u64;
    let mut kept = None;
    let mut setup_s = Vec::new();
    let warm = |control: &mut JsonConn, tally: &mut Tally| -> Result<(), String> {
        for sql in &plan.warm {
            let ex = control.call_ok(&Request::Warm { sql: sql.clone() })?;
            tally.check(
                matches!(ex.response, Response::Warmed { .. }),
                "warm answered",
            );
        }
        Ok(())
    };
    let mut probed = None;
    for rep in 0..SETUP_REPS {
        if let Some((server, _)) = kept.take() {
            ServerProc::kill9(server);
        }
        let _ = std::fs::remove_dir_all(data_dir);
        let t0 = Instant::now();
        spin(args.start_delay);
        let server = ServerProc::start(&args.server, data_dir, plan.fsync, plan.checkpoint_rows)?;
        let mut control = JsonConn::connect(server.addr, args.delay)?;
        let loaded = control.call_ok(&load_request(&initial_csv))?;
        tally.check(
            matches!(loaded.response, Response::Loaded { observations, .. } if observations == initial_rows),
            "load_csv acknowledged every row",
        );
        warm(&mut control, tally)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep == 0 {
            probed = Some(write_probe(plan, &server, &mut control, tally)?);
        }
        kept = Some((server, control));
    }
    let (server, control) = kept.expect("SETUP_REPS is positive");
    let (probe, probe_stats) = probed.expect("SETUP_REPS is positive");
    Ok(Ready {
        server,
        control,
        setup_s,
        probe,
        probe_stats,
    })
}

/// Runs the write probe on a set-up server; returns what it measured and
/// the server's counters around it.
fn write_probe(
    plan: &Plan,
    server: &ServerProc,
    control: &mut JsonConn,
    tally: &mut Tally,
) -> Result<(Probe, (StatsReply, StatsReply)), String> {
    let before = stats(control)?;
    let (mut round_trip_us, mut probes) = (Vec::new(), Vec::new());
    let mut client_ns = 0;
    let server_cpu = || {
        host::process_cpu_ns(server.pid())
            .ok_or_else(|| "cannot read the server's CPU time from /proc".to_string())
    };
    let server0 = server_cpu()?;
    for batch in &plan.batches[..plan.probe_len] {
        probes.push(host::speed_probe());
        let c0 = host::thread_cpu_ns();
        let ex = control.call_ok(&append_request(batch))?;
        client_ns += host::thread_cpu_ns() - c0;
        tally.check(
            matches!(ex.response, Response::Appended { observations, .. } if observations == batch.rows),
            "probe append acknowledged every row",
        );
        round_trip_us.push(ex.round_trip().as_secs_f64() * 1e6);
    }
    let server_ns = server_cpu()?.saturating_sub(server0);
    let probe_stats = (before, stats(control)?);
    let slow = host::slowdown(&probes);
    let probe = Probe {
        cpu_us: (server_ns + client_ns) as f64 / 1e3 / plan.probe_len as f64 / slow,
        slow,
        round_trip_us,
    };
    Ok((probe, probe_stats))
}

/// Restarts the workload's server (already killed with SIGKILL) on its data
/// directory and checks the accuracy panel: every answer must equal the
/// replica's, so every acknowledged batch survived.
fn verify_after_kill(
    args: &Args,
    plan: &Plan,
    data_dir: &Path,
    replica: &Replica,
    tally: &mut Tally,
) -> Result<(), String> {
    replica.forget_selections();
    let server = ServerProc::start(&args.server, data_dir, plan.fsync, plan.checkpoint_rows)?;
    let mut conn = JsonConn::connect(server.addr, args.delay)?;
    for sel in data::accuracy_panel(plan.data.max_value()) {
        let expected = replica.groups(&sel.sql(), &["bucket"])?;
        let reply = conn.call_ok(&query(&sel.sql(), &["bucket"]))?.response;
        let ok = matches!(&reply, Response::Query(r) if fingerprint(&r.groups) == fingerprint(&expected));
        tally.check(
            ok,
            &format!(
                "after SIGKILL and restart, {} matches the replica",
                sel.sql()
            ),
        );
    }
    server.kill9();
    Ok(())
}

/// What the canonical durable state measured.
struct Durable {
    /// Data directory bytes per acknowledged CSV byte.
    store_ratio: f64,
    /// Restarts, each timed to the first answered query.
    recover_s: Vec<f64>,
    /// Relative errors of the accuracy panel against the ground truth, %.
    errors: Vec<f64>,
}

/// Storage cost and recovery time on a canonical state built the same way
/// in every run, so neither depends on how far the window got: a fresh data
/// directory with the set-up load, a fixed prefix of the stream
/// (`Plan::durable_prefix` batches), four whole-table selections cached
/// (the same on every seed), a checkpoint, then
/// `TAIL_BATCHES` more batches left in the WAL. The server is killed with
/// SIGKILL and restarted `RESTARTS` times; each restart is timed to the
/// first answered query, which must match the replica; the accuracy panel
/// then runs once against this state, the same on every run of a seed.
fn durability(args: &Args, plan: &Plan, dir: &Path, tally: &mut Tally) -> Result<Durable, String> {
    let prefix = plan.durable_prefix;
    let streamed = &plan.batches[..prefix + plan::TAIL_BATCHES];
    let initial = plan.data.initial_csv();
    let _ = std::fs::remove_dir_all(dir);
    let server = ServerProc::start(&args.server, dir, plan.fsync, plan.checkpoint_rows)?;
    let mut conn = JsonConn::connect(server.addr, Duration::ZERO)?;
    conn.call_ok(&load_request(&initial))?;
    let mut replica = Replica::new(&initial)?;
    for (i, batch) in streamed.iter().enumerate() {
        if i == prefix {
            for sel in data::durable_selections() {
                conn.call_ok(&Request::Warm { sql: sel.sql() })?;
            }
            conn.call_ok(&Request::Checkpoint)?;
        }
        let ex = conn.call_ok(&append_request(batch))?;
        tally.check(
            matches!(ex.response, Response::Appended { observations, .. } if observations == batch.rows),
            "durable-state append acknowledged every row",
        );
        replica.append(&batch.csv)?;
    }
    let input: usize = initial.len() + streamed.iter().map(|b| b.csv.len()).sum::<usize>();
    let ratio = proc::dir_bytes(dir) as f64 / input as f64;
    server.kill9();

    let panel = data::accuracy_panel(plan.data.max_value());
    let probe = &panel[0];
    let expected = fingerprint(&replica.groups(&probe.sql(), &["bucket"])?);
    let (mut recover, mut errors) = (Vec::new(), Vec::new());
    for _ in 0..RESTARTS {
        let t0 = Instant::now();
        spin(args.start_delay);
        let server = ServerProc::start(&args.server, dir, plan.fsync, plan.checkpoint_rows)?;
        let mut conn = JsonConn::connect(server.addr, args.delay)?;
        let ex = conn.call_ok(&query(&probe.sql(), &["bucket"]))?;
        recover.push(t0.elapsed().as_secs_f64());
        let Response::Query(reply) = ex.response else {
            tally.check(false, "recovery query answered");
            continue;
        };
        tally.check(
            fingerprint(&reply.groups) == expected,
            "after SIGKILL and restart, the durable state matches the replica",
        );
        if errors.is_empty() {
            for sel in &panel {
                let reply = conn.call_ok(&query(&sel.sql(), &["bucket"]))?.response;
                match reply {
                    Response::Query(r) => errors.extend(relative_errors(plan, sel, &r.groups)),
                    other => return Err(format!("accuracy query answered {}", other.encode())),
                }
            }
        }
        server.kill9();
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(Durable {
        store_ratio: ratio,
        recover_s: recover,
        errors,
    })
}

/// |bucket-corrected answer − truth| / truth, in %, per group.
fn relative_errors(plan: &Plan, sel: &Sel, groups: &[uu_server::protocol::GroupReply]) -> Vec<f64> {
    let truth: BTreeMap<Option<u64>, f64> = sel.truth(&plan.data).into_iter().collect();
    groups
        .iter()
        .filter_map(|g| {
            let key = match g.key.0 {
                uu_query::value::Value::Int(k) => Some(k as u64),
                _ => None,
            };
            let t = *truth.get(&key)?;
            let est = g.result.corrected.unwrap_or(g.result.observed);
            (t != 0.0).then(|| (est - t).abs() / t * 100.0)
        })
        .collect()
}

/// Checks `ingest`'s concurrent query replies: each must equal the oracle
/// at a table state its send/receive window allows. Advances `replica` to
/// the final acknowledged state.
fn verify_ingest(
    plan: &Plan,
    acked: usize,
    observed: &[&window::Observed],
    replica: &mut Replica,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut matched = vec![false; observed.len()];
    for k in 0..=acked {
        if k > 0 {
            replica.append(&plan.batches[k - 1].csv)?;
        }
        replica.forget_selections();
        let mut at_k: BTreeMap<usize, u64> = BTreeMap::new();
        for (o, m) in observed.iter().zip(matched.iter_mut()) {
            if *m || k < o.lo || k > o.hi + 1 {
                continue;
            }
            let fp = match at_k.get(&o.sel) {
                Some(fp) => *fp,
                None => {
                    let fp = fingerprint(
                        &replica.groups(&plan.sels[o.sel].sql(), plan::JSON_ESTIMATORS)?,
                    );
                    at_k.insert(o.sel, fp);
                    fp
                }
            };
            *m = fp == o.fp;
        }
    }
    for (o, m) in observed.iter().zip(&matched) {
        tally.check(
            *m,
            &format!(
                "ingest reply to {} matches a state in [{}, {}]",
                plan.sels[o.sel].sql(),
                o.lo,
                o.hi + 1
            ),
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = Kind::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    match run(&args, kind) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, kind: Kind) -> Result<bool, String> {
    let run_dir = Path::new(OUT_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = run_in(args, kind, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn run_in(args: &Args, kind: Kind, run_dir: &Path) -> Result<bool, String> {
    let data_dir = run_dir.join("data");
    let plan = Plan::new(kind, args.seed);
    let mut tally = Tally::default();

    // Oracle answers for the window, computed before anything is timed.
    let mut replica = Replica::new(&plan.data.initial_csv())?;
    let expect: Option<Vec<u64>> = match kind {
        Kind::Ingest => None,
        Kind::Bi => Some(
            plan.sels
                .iter()
                .map(|s| {
                    replica
                        .pg_rows(&s.sql())
                        .map(|(c, r)| oracle::pg_fingerprint(&c, &r))
                })
                .collect::<Result<_, _>>()?,
        ),
        _ => Some(
            plan.sels
                .iter()
                .map(|s| {
                    replica
                        .groups(&s.sql(), plan::JSON_ESTIMATORS)
                        .map(|g| fingerprint(&g))
                })
                .collect::<Result<_, _>>()?,
        ),
    };

    let mut ready = setup(args, &plan, &data_dir, &mut tally)?;
    let mut pings = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        pings.push(
            ready
                .control
                .call_ok(&Request::Ping)?
                .round_trip()
                .as_secs_f64()
                * 1e6,
        );
    }
    let ping_us = median(&pings);

    let mut workers = Vec::new();
    for (i, seq) in plan.seqs.iter().enumerate() {
        let conn = if plan.pgwire {
            Conn::Pg(PgClient::connect(ready.server.pg_addr)?)
        } else {
            Conn::Json(JsonConn::connect(ready.server.addr, args.delay)?)
        };
        workers.push(Worker {
            id: i as u64,
            conn,
            role: Role::Query {
                seq: seq.clone(),
                pos: 0,
            },
        });
    }
    if kind == Kind::Ingest {
        workers.insert(
            0,
            Worker {
                id: 9,
                conn: Conn::Json(JsonConn::connect(ready.server.addr, args.delay)?),
                role: Role::Append { pos: 0 },
            },
        );
    }
    let step = Lockstep::default();
    let epoch = Instant::now();
    let ctx = |traced| Ctx {
        plan: &plan,
        expect: expect.as_deref(),
        step: &step,
        delay: args.delay,
        traced,
        epoch,
        server_pid: ready.server.pid(),
    };

    let stats0 = stats(&mut ready.control)?;
    let window_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = window::run(&mut workers, &ctx(false), window_s);
    let stats1 = stats(&mut ready.control)?;
    let mut traced = if args.trace {
        Some(window::run(&mut workers, &ctx(true), window_s))
    } else {
        None
    };
    drop(workers);
    let live = if args.trace {
        layers::live_probe(&plan, ready.server.addr, ready.server.pg_addr)?
    } else {
        layers::LiveProbe::default()
    };
    let peak_rss_mb = ready.server.peak_rss_mb().unwrap_or(f64::NAN);
    let acked_n = step.acked.load(std::sync::atomic::Ordering::SeqCst);
    for w in std::iter::once(&plain).chain(traced.as_ref()) {
        tally.attempted += w.attempted;
        tally.failed += w.failed;
    }
    if kind == Kind::Ingest {
        let observed: Vec<&window::Observed> = std::iter::once(&plain)
            .chain(traced.as_ref())
            .flat_map(|w| w.observed.iter())
            .collect();
        verify_ingest(&plan, acked_n, &observed, &mut replica, &mut tally)?;
    }
    let appended = &plan.batches[..acked_n];
    let Ready {
        server,
        setup_s,
        probe,
        probe_stats,
        ..
    } = ready;
    server.kill9();
    verify_after_kill(args, &plan, &data_dir, &replica, &mut tally)?;
    let durable = durability(args, &plan, &run_dir.join("durable"), &mut tally)?;

    // Measured on every run but not gated: their spread across seeds on a
    // shared host reaches the largest bound (see README), so the traced run
    // reports them among the per-layer metrics.
    let restart_s = lower_quartile(&durable.recover_s);
    println!(
        "info peak_rss_mb = {} MB (server VmHWM)",
        json_num(peak_rss_mb)
    );
    println!(
        "info recover_s = {} s (lower quartile of {} SIGKILL restarts of the durable state)",
        json_num(restart_s),
        durable.recover_s.len()
    );
    let metrics = match traced.as_mut() {
        Some(traced) => {
            let mut tracer = traced
                .tracer
                .take()
                .unwrap_or_else(|| trace::Tracer::new(epoch));
            let inputs = layers::Inputs {
                plan: &plan,
                plain: &plain,
                traced,
                stats0: &stats0,
                stats1: &stats1,
                probe_stats: (&probe_stats.0, &probe_stats.1),
                ping_us,
                live: &live,
                run_dir,
                peak_rss_mb,
                restart_s,
            };
            let m = layers::per_layer(&inputs, &mut tracer)?;
            let path =
                Path::new(OUT_DIR).join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
            tracer
                .write(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "spans written to {} ({} spans)",
                path.display(),
                tracer.spans.len()
            );
            m
        }
        None => end_to_end(&plain, &setup_s, &probe, &durable),
    };

    let correct = tally.failed == 0;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "stamp {{\"workload\":{},\"seed\":{},\"nproc\":{nproc},\"ping_floor_us\":{},\"fsync\":{},\"checkpoint_rows\":{},\"commit\":{},\"rustc\":{},\"trace\":{},\"seconds\":{},\"inject_delay_us\":{},\"inject_start_ms\":{}}}",
        json_str(&args.workload),
        args.seed,
        json_num(ping_us),
        json_str(plan.fsync),
        plan.checkpoint_rows.map_or("null".to_string(), |r| r.to_string()),
        json_str(&args.commit),
        json_str(&args.rustc),
        u8::from(args.trace),
        json_num(args.seconds),
        json_num(args.delay.as_secs_f64() * 1e6),
        json_num(args.start_delay.as_secs_f64() * 1e3),
    );
    println!(
        "data entities={} observations={} initial_rows={} streamed_batches={} reobserved_share={:.3} selections={} connections={} front={}",
        plan.data.population.len(),
        plan.data.rows.len(),
        plan.data.initial,
        appended.len(),
        plan.data.reobserved_share(),
        plan.sels.len(),
        plan.seqs.len() + usize::from(kind == Kind::Ingest),
        if plan.pgwire { "pgwire" } else { "json" },
    );
    println!(
        "checks attempted={} failed={} failed_pct={:.4}",
        tally.attempted,
        tally.failed,
        100.0 * tally.failed as f64 / tally.attempted.max(1) as f64
    );
    for m in &metrics {
        println!(
            "metric {} = {} {} {}",
            m.name,
            json_num(m.value),
            m.unit,
            m.note
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    Ok(correct)
}

fn end_to_end(
    w: &window::WindowOut,
    setup_s: &[f64],
    probe: &Probe,
    durable: &Durable,
) -> Vec<Metric> {
    // Wall-clock figures: what a user of this host saw during the run, but
    // too dependent on the host's CPU steal to compare runs by.
    let q = us(&w.query_ns);
    let ops = w.ops();
    println!(
        "info wall ops_per_s = {} 1/s, query_p50_us = {} us, query_p90_us = {} us (n={}, window {:.1} s, host CPU steal {:.1} %)",
        json_num(ops as f64 / w.elapsed.as_secs_f64()),
        json_num(median(&q)),
        json_num(percentile(&q, 90.0)),
        q.len(),
        w.elapsed.as_secs_f64(),
        w.steal * 100.0
    );
    if !w.append_ns.is_empty() {
        let a = us(&w.append_ns);
        println!(
            "info wall window append_p50_us = {} us, append_p90_us = {} us (n={})",
            json_num(median(&a)),
            json_num(percentile(&a, 90.0)),
            a.len()
        );
    }
    println!(
        "info wall probe append_p50_us = {} us, append_p90_us = {} us (n={})",
        json_num(median(&probe.round_trip_us)),
        json_num(percentile(&probe.round_trip_us, 90.0)),
        probe.round_trip_us.len()
    );
    let slow = host::slowdown(&w.probes);
    let errors = &durable.errors;
    vec![
        metric(
            "setup_s",
            median(setup_s),
            "s",
            format!("(wall; median of {} set-ups)", setup_s.len()),
        ),
        metric(
            "op_cpu_us",
            w.cpu_us_per_op(),
            "us",
            format!(
                "(raw {:.4}: server {:.2} + client {:.2}; host {slow:.3}x reference; {ops} ops in the window)",
                w.cpu_us_per_op() * slow,
                w.server_cpu_ns as f64 / 1e3 / ops.max(1) as f64,
                w.client_cpu_ns as f64 / 1e3 / ops.max(1) as f64,
            ),
        ),
        metric(
            "append_cpu_us",
            probe.cpu_us,
            "us",
            format!(
                "(raw {:.4}; host {:.3}x reference; write probe of {} batches on a warmed set-up server)",
                probe.cpu_us * probe.slow,
                probe.slow,
                probe.round_trip_us.len()
            ),
        ),
        metric(
            "estimate_err_pct",
            median(errors),
            "%",
            format!("(median over {} panel items)", errors.len()),
        ),
        metric(
            "store_bytes_per_input_byte",
            durable.store_ratio,
            "ratio",
            "(canonical durable state: data directory bytes / acknowledged CSV bytes)".into(),
        ),
    ]
}
