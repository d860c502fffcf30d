//! The benchmark's own JSON client: the same encode → write → read → decode
//! steps as `uu_server::Client`, split so each step can be timed and, in the
//! traced run, recorded as a span. An optional synthetic delay sits in this
//! client path (never in the server) for the benchmark's self-test.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use uu_server::protocol::{QueryRequest, Request, Response, WireSpan};

use crate::trace::Tracer;

/// A cached, untraced `query` request.
pub fn query(sql: &str, estimators: &[&str]) -> Request {
    Request::Query(QueryRequest {
        sql: sql.to_string(),
        estimators: estimators.iter().map(|s| s.to_string()).collect(),
        cached: true,
        trace: false,
    })
}

/// One completed exchange.
pub struct Exchange {
    pub response: Response,
    /// Before encode, after encode, after the reply line arrived, after
    /// decode.
    pub t: [Instant; 4],
    pub reply_bytes: usize,
}

impl Exchange {
    pub fn round_trip(&self) -> Duration {
        self.t[3] - self.t[0]
    }
}

pub struct JsonConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    delay: Duration,
}

/// Busy-waits `d`: precise at microsecond scale, unlike a sleep.
pub fn spin(d: Duration) {
    if d.is_zero() {
        return;
    }
    let until = Instant::now() + d;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

impl JsonConn {
    pub fn connect(addr: SocketAddr, delay: Duration) -> Result<JsonConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(JsonConn {
            reader,
            writer: stream,
            line: String::new(),
            delay,
        })
    }

    pub fn call(&mut self, request: &Request) -> Result<Exchange, String> {
        let t0 = Instant::now();
        spin(self.delay);
        let mut frame = request.encode();
        frame.push('\n');
        let t1 = Instant::now();
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        let t2 = Instant::now();
        let response = Response::decode(self.line.trim_end()).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        Ok(Exchange {
            response,
            t: [t0, t1, t2, t3],
            reply_bytes: n,
        })
    }

    /// A call that must succeed with a non-error response.
    pub fn call_ok(&mut self, request: &Request) -> Result<Exchange, String> {
        let ex = self.call(request)?;
        if let Response::Error(e) = &ex.response {
            return Err(format!("server error [{}]: {}", e.code.as_str(), e.message));
        }
        Ok(ex)
    }
}

/// Records one exchange as a span tree: `rt` (the client round trip) with
/// children `protocol.encode`, `reactor.wire` and `protocol.decode`. When
/// the reply carries the server's own span tree, its queue wait and its
/// `request` span with that span's direct stages are grafted under
/// `reactor.wire`, so `reactor.wire`'s self time is transport plus reactor.
pub fn record_exchange(tr: &mut Tracer, req: u64, ex: &Exchange, server: Option<&[WireSpan]>) {
    let [t0, t1, t2, t3] = ex.t;
    let root = tr.record("rt", t0, t3, None, req);
    tr.record("protocol.encode", t0, t1, Some(root), req);
    let wire = tr.record("reactor.wire", t1, t2, Some(root), req);
    tr.record("protocol.decode", t2, t3, Some(root), req);
    let Some(spans) = server else { return };
    let queue: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.stage == "queue_wait")
        .map(|s| s.dur_ns)
        .sum();
    let Some((ri, request)) = spans
        .iter()
        .enumerate()
        .find(|(_, s)| s.parent.is_none() && s.stage == "request")
    else {
        return;
    };
    let (ws, we) = (tr.ns(t1), tr.ns(t2));
    let extent = queue + request.dur_ns;
    // Centre the server's extent inside the client's wait; the server clock
    // is not shared, only durations are.
    let base = ws + (we - ws).saturating_sub(extent) / 2;
    let clip = |x: u64| x.min(we);
    if queue > 0 {
        tr.record_ns(
            "reactor.queue_wait",
            clip(base),
            clip(base + queue),
            Some(wire),
            req,
        );
    }
    let rs = base + queue;
    let rspan = tr.record_ns(
        "service.request",
        clip(rs),
        clip(rs + request.dur_ns),
        Some(wire),
        req,
    );
    for s in spans.iter().filter(|s| s.parent == Some(ri as u64)) {
        let off = s.start_ns.saturating_sub(request.start_ns);
        let name = format!("service.{}", s.stage);
        tr.record_ns(
            &name,
            clip(rs + off),
            clip(rs + off + s.dur_ns),
            Some(rspan),
            req,
        );
    }
}
