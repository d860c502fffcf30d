//! The timed window: closed-loop connections replaying the plan's request
//! lists until the deadline, each reply checked against the oracle.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use uu_server::pgwire::PgClient;
use uu_server::protocol::{QueryRequest, Request, Response};

use crate::client::{record_exchange, spin, JsonConn};
use crate::data::{SOURCE_COLUMN, TABLE};
use crate::host;
use crate::oracle::{fingerprint, pg_fingerprint};
use crate::plan::{Kind, Plan, JSON_ESTIMATORS, READS_PER_BATCH};
use crate::trace::Tracer;

pub enum Conn {
    Json(JsonConn),
    Pg(PgClient),
}

pub enum Role {
    /// Replays `seq` (indices into the plan's selections) from `pos`.
    Query { seq: Vec<usize>, pos: usize },
    /// Streams the plan's batches from `pos`.
    Append { pos: usize },
}

pub struct Worker {
    pub id: u64,
    pub conn: Conn,
    pub role: Role,
}

/// A query reply of `ingest`, checked after the run: the reply must equal
/// the oracle at some table state between the batches acknowledged when it
/// was sent (`lo`) and when it came back (`hi`), plus the one append that
/// may have been in flight.
pub struct Observed {
    pub sel: usize,
    pub lo: usize,
    pub hi: usize,
    pub fp: u64,
}

#[derive(Default)]
pub struct WindowOut {
    pub elapsed: Duration,
    pub query_ns: Vec<u64>,
    pub append_ns: Vec<u64>,
    /// Rows of each acknowledged append.
    pub append_rows: Vec<u64>,
    /// CPU ns the server process ran during the window.
    pub server_cpu_ns: u64,
    /// CPU ns the load threads ran inside their calls (encode, write, read,
    /// decode; not the answer checks, not the lockstep waits).
    pub client_cpu_ns: u64,
    /// `host::speed_probe` samples taken through the window.
    pub probes: Vec<u64>,
    /// Host CPU steal share over the window.
    pub steal: f64,
    pub attempted: u64,
    pub failed: u64,
    /// JSON queries: client-observed wait minus the server's `elapsed_us`.
    pub wire_us: Vec<f64>,
    pub elapsed_us: Vec<f64>,
    pub reply_bytes: Vec<f64>,
    pub observed: Vec<Observed>,
    pub tracer: Option<Tracer>,
}

impl WindowOut {
    pub fn ops(&self) -> usize {
        self.query_ns.len() + self.append_ns.len()
    }

    /// CPU µs per completed operation, both ends, at the reference core
    /// speed (see `host`).
    pub fn cpu_us_per_op(&self) -> f64 {
        let ns = (self.server_cpu_ns + self.client_cpu_ns) as f64;
        ns / 1e3 / self.ops().max(1) as f64 / host::slowdown(&self.probes)
    }

    fn merge(&mut self, o: WindowOut) {
        self.query_ns.extend(o.query_ns);
        self.append_ns.extend(o.append_ns);
        self.append_rows.extend(o.append_rows);
        self.client_cpu_ns += o.client_cpu_ns;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wire_us.extend(o.wire_us);
        self.elapsed_us.extend(o.elapsed_us);
        self.reply_bytes.extend(o.reply_bytes);
        self.observed.extend(o.observed);
        if let Some(t) = o.tracer {
            match &mut self.tracer {
                Some(mine) => mine.absorb(t),
                None => self.tracer = Some(t),
            }
        }
    }
}

/// `ingest`'s lockstep between its appender and its reader: window batch
/// `k` is sent once the reader has completed `k × READS_PER_BATCH` queries,
/// and query `i` once `i / READS_PER_BATCH` batches are acknowledged. Every
/// batch so has the same number of panel queries beside it, and a window
/// does the same mix of work however fast the host runs.
#[derive(Default)]
pub struct Lockstep {
    /// Window batches acknowledged so far.
    pub acked: AtomicUsize,
    /// Window queries completed so far.
    read: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Lockstep {
    /// Waits until `ready` holds; false when `deadline` passes first.
    fn wait(&self, deadline: Instant, ready: impl Fn(&Self) -> bool) -> bool {
        let mut guard = self.lock.lock().expect("lockstep lock");
        while !ready(self) {
            if Instant::now() >= deadline {
                return false;
            }
            guard = self
                .wake
                .wait_timeout(guard, Duration::from_millis(5))
                .expect("lockstep lock")
                .0;
        }
        true
    }

    fn bump(&self, counter: &AtomicUsize) {
        counter.fetch_add(1, Ordering::SeqCst);
        let _guard = self.lock.lock().expect("lockstep lock");
        self.wake.notify_all();
    }
}

pub struct Ctx<'a> {
    pub plan: &'a Plan,
    /// Oracle fingerprint per selection, for read-only workloads.
    pub expect: Option<&'a [u64]>,
    /// `ingest`'s appender/reader coordination (idle on the others).
    pub step: &'a Lockstep,
    pub delay: Duration,
    pub traced: bool,
    pub epoch: Instant,
    pub server_pid: u32,
}

/// Interval of the speed probes.
const PROBE_EVERY: Duration = Duration::from_millis(50);

/// Runs every worker until `deadline`; returns the merged measurements.
pub fn run(workers: &mut [Worker], ctx: &Ctx, seconds: f64) -> WindowOut {
    let jiffies0 = host::cpu_jiffies();
    let server0 = host::process_cpu_ns(ctx.server_pid);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut probes = Vec::new();
    let outs: Vec<WindowOut> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| s.spawn(move || work(w, ctx, deadline)))
            .collect();
        while handles.iter().any(|h| !h.is_finished()) {
            probes.push(host::speed_probe());
            std::thread::sleep(PROBE_EVERY);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let server1 = host::process_cpu_ns(ctx.server_pid);
    let mut out = WindowOut {
        elapsed,
        server_cpu_ns: server1.zip(server0).map_or(0, |(b, a)| b.saturating_sub(a)),
        probes,
        steal: host::steal_share(jiffies0, host::cpu_jiffies()),
        ..WindowOut::default()
    };
    for o in outs {
        out.merge(o);
    }
    out
}

/// Runs `f` and adds the thread CPU time it took to `cpu_ns`.
fn timed_cpu<T>(cpu_ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let c0 = host::thread_cpu_ns();
    let out = f();
    *cpu_ns += host::thread_cpu_ns() - c0;
    out
}

fn work(w: &mut Worker, ctx: &Ctx, deadline: Instant) -> WindowOut {
    let mut out = WindowOut {
        tracer: ctx.traced.then(|| Tracer::new(ctx.epoch)),
        ..WindowOut::default()
    };
    let lockstep = ctx.plan.kind == Kind::Ingest;
    let step = ctx.step;
    let mut req_no = 0u64;
    while Instant::now() < deadline {
        let ready = match &w.role {
            _ if !lockstep => true,
            Role::Append { pos } => step.wait(deadline, |s| {
                s.read.load(Ordering::SeqCst) >= *pos * READS_PER_BATCH
            }),
            Role::Query { .. } => {
                let i = step.read.load(Ordering::SeqCst);
                step.wait(deadline, |s| {
                    s.acked.load(Ordering::SeqCst) >= i / READS_PER_BATCH
                })
            }
        };
        if !ready || Instant::now() >= deadline {
            break;
        }
        req_no += 1;
        let req_id = (w.id << 40) | req_no;
        match (&mut w.role, &mut w.conn) {
            (Role::Append { pos }, Conn::Json(conn)) => {
                let Some(batch) = ctx.plan.batches.get(*pos) else {
                    break;
                };
                out.attempted += 1;
                let request = Request::AppendStream {
                    table: TABLE.to_string(),
                    source_column: SOURCE_COLUMN.to_string(),
                    csv: batch.csv.clone(),
                };
                match timed_cpu(&mut out.client_cpu_ns, || conn.call(&request)) {
                    Ok(ex) => {
                        if let Some(t) = out.tracer.as_mut() {
                            record_exchange(t, req_id, &ex, None);
                        }
                        match ex.response {
                            Response::Appended { observations, .. }
                                if observations == batch.rows =>
                            {
                                out.append_ns.push(ex.round_trip().as_nanos() as u64);
                                out.append_rows.push(batch.rows);
                                *pos += 1;
                                step.bump(&step.acked);
                            }
                            other => {
                                eprintln!("append {pos} failed: {}", other.encode());
                                out.failed += 1;
                                break;
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("append {pos} failed: {e}");
                        out.failed += 1;
                        break;
                    }
                }
            }
            (Role::Query { seq, pos }, Conn::Json(conn)) => {
                let sel = seq[*pos % seq.len()];
                *pos += 1;
                out.attempted += 1;
                let request = Request::Query(QueryRequest {
                    sql: ctx.plan.sels[sel].sql(),
                    estimators: JSON_ESTIMATORS.iter().map(|s| s.to_string()).collect(),
                    cached: true,
                    trace: ctx.traced,
                });
                let lo = step.acked.load(Ordering::SeqCst);
                let ex = match timed_cpu(&mut out.client_cpu_ns, || conn.call(&request)) {
                    Ok(ex) => ex,
                    Err(e) => {
                        eprintln!("query failed: {e}");
                        out.failed += 1;
                        break;
                    }
                };
                let hi = step.acked.load(Ordering::SeqCst);
                let rt = ex.round_trip();
                let Response::Query(reply) = &ex.response else {
                    eprintln!("query answered {}", ex.response.encode());
                    out.failed += 1;
                    continue;
                };
                out.query_ns.push(rt.as_nanos() as u64);
                if lockstep {
                    step.bump(&step.read);
                }
                out.wire_us
                    .push(rt.as_secs_f64() * 1e6 - reply.elapsed_us as f64);
                out.elapsed_us.push(reply.elapsed_us as f64);
                out.reply_bytes.push(ex.reply_bytes as f64);
                if let Some(t) = out.tracer.as_mut() {
                    record_exchange(t, req_id, &ex, reply.trace.as_deref());
                }
                let fp = fingerprint(&reply.groups);
                match ctx.expect {
                    Some(expect) => {
                        if expect[sel] != fp {
                            eprintln!("mismatch: {}", request.encode());
                            out.failed += 1;
                        }
                    }
                    None => out.observed.push(Observed { sel, lo, hi, fp }),
                }
            }
            (Role::Query { seq, pos }, Conn::Pg(pg)) => {
                let sel = seq[*pos % seq.len()];
                *pos += 1;
                out.attempted += 1;
                let sql = ctx.plan.sels[sel].sql();
                let (t0, result, t1) = timed_cpu(&mut out.client_cpu_ns, || {
                    let t0 = Instant::now();
                    spin(ctx.delay);
                    let result = pg.simple_query(&sql);
                    (t0, result, Instant::now())
                });
                match result {
                    Ok(rows) => {
                        out.query_ns.push((t1 - t0).as_nanos() as u64);
                        if let Some(t) = out.tracer.as_mut() {
                            let root = t.record("rt", t0, t1, None, req_id);
                            t.record("pgwire.query", t0, t1, Some(root), req_id);
                        }
                        let fp = pg_fingerprint(&rows.columns, &rows.rows);
                        if ctx.expect.map(|e| e[sel]) != Some(fp) {
                            eprintln!("mismatch (pgwire): {sql}");
                            out.failed += 1;
                        }
                    }
                    Err(e) => {
                        eprintln!("pgwire query failed: {} {}", e.sqlstate, e.message);
                        out.failed += 1;
                        break;
                    }
                }
            }
            (Role::Append { .. }, Conn::Pg(_)) => unreachable!("appends travel over JSON"),
        }
    }
    out
}
