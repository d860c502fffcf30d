//! Spans kept in memory during the traced run and written when it ends:
//! name, start, end, parent and request id. A span's self time is its
//! duration minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds from the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// A per-thread span buffer.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.record_ns(name, start_ns, end_ns, parent, req)
    }

    pub fn record_ns(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Moves every span of `other` into this buffer, re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            self.spans.push(s);
        }
    }

    /// Self time of every span, in nanoseconds.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self times grouped by span name (nanoseconds).
    pub fn self_by_name(&self) -> BTreeMap<String, Vec<u64>> {
        let mut out: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            out.entry(s.name.clone()).or_default().push(t);
        }
        out
    }

    /// For every root named `root`: |Σ self times of its subtree − its
    /// duration|, the largest over all such roots (nanoseconds), and the
    /// number of roots checked. Zero means the layers plus the unattributed
    /// remainder tile the round trip exactly.
    pub fn tiling_gap(&self, root: &str) -> (u64, usize) {
        let self_t = self.self_times();
        let mut root_of: Vec<usize> = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            // Parents always precede children in the buffer.
            root_of.push(match s.parent {
                Some(p) => root_of[p],
                None => i,
            });
        }
        let mut sums: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, t) in self_t.iter().enumerate() {
            *sums.entry(root_of[i]).or_default() += t;
        }
        let mut worst = 0u64;
        let mut n = 0usize;
        for (r, sum) in sums {
            let s = &self.spans[r];
            if s.name == root {
                n += 1;
                worst = worst.max(sum.abs_diff(s.end_ns - s.start_ns));
            }
        }
        (worst, n)
    }

    /// Writes the spans as tab-separated lines:
    /// `req  id  parent  name  start_ns  end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "req\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
