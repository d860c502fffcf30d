//! The four traffic mixes, generated from the seed. Each run replays a
//! fixed list of requests, so two builds measured on the same seed do
//! identical work.

use uu_stats::rng::Rng;

use crate::data::{self, Batch, Dataset, Sel};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Dashboard,
    Explore,
    Ingest,
    Bi,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "dashboard" => Some(Kind::Dashboard),
            "explore" => Some(Kind::Explore),
            "ingest" => Some(Kind::Ingest),
            "bi" => Some(Kind::Bi),
            _ => None,
        }
    }
}

/// Estimators the JSON workloads ask for.
pub const JSON_ESTIMATORS: &[&str] = &["bucket", "naive", "freq"];
/// Batches of the write probe every workload runs on one of its set-up
/// servers, so every workload measures the write path; `bi`'s appends to
/// its small table are cheap, so it sends more to measure a CPU time well
/// above the kernel's 10 ms accounting tick.
pub const PROBE_BATCHES: usize = 80;
pub const BI_PROBE_BATCHES: usize = 320;
/// Streamed batches of the canonical durable state before its checkpoint.
pub const DURABLE_PREFIX: usize = 80;
pub const INGEST_DURABLE_PREFIX: usize = 100;
/// Batches left in the WAL of the canonical durable state.
pub const TAIL_BATCHES: usize = 5;
/// Panel queries `ingest`'s reader sends beside each streamed batch (see
/// `window::Lockstep`): a dashboard refreshing while a pipeline delivers.
pub const READS_PER_BATCH: usize = 8;
/// Batches generated for `ingest`: far more than a window can send.
pub const INGEST_BATCHES: usize = 4000;
/// Distinct range selections of `explore` (4× the 128-entry cache).
pub const EXPLORE_SELECTIONS: usize = 512;

pub struct Plan {
    pub kind: Kind,
    pub data: Dataset,
    /// Distinct selections the window queries.
    pub sels: Vec<Sel>,
    /// Per query connection: indices into `sels`, replayed cyclically.
    pub seqs: Vec<Vec<usize>>,
    /// SQL warmed during set-up.
    pub warm: Vec<String>,
    /// Streamed batches in order. The write probe sends the first
    /// `probe_len` to its own server; the `ingest` window streams them from
    /// the start to the window's server; the canonical durable state logs
    /// the first `durable_prefix`, then `TAIL_BATCHES` more.
    pub batches: Vec<Batch>,
    pub probe_len: usize,
    pub durable_prefix: usize,
    /// Whether the window's queries travel over pgwire.
    pub pgwire: bool,
    /// WAL sync policy and checkpoint trigger (rows) of the server.
    /// `ingest`, whose window is about durable writes, syncs every record
    /// and checkpoints every 300 rows, so a window completes several
    /// checkpoints; the other workloads keep the server's defaults (`batch`,
    /// 50 000 rows), so their write probe times the append path rather than
    /// the disk.
    pub fsync: &'static str,
    pub checkpoint_rows: Option<u64>,
    /// SQL of the traced run's serial pgwire probe: the panel on `bi`, a
    /// narrow selection elsewhere (every pgwire query fans out to all
    /// estimators, Monte-Carlo included).
    pub pg_probe: Vec<String>,
}

impl Plan {
    pub fn new(kind: Kind, seed: u64) -> Plan {
        let (entities, per_source) = match kind {
            Kind::Bi => (500, 30),
            _ => (5000, 300),
        };
        let data = Dataset::generate(seed, entities, 40, per_source);
        let max = data.max_value();
        let mut rng = Rng::new(seed ^ 0x9E1A_D5EE);
        let (sels, seqs, warm) = match kind {
            Kind::Dashboard | Kind::Ingest => {
                let panel = data::hot_panel(max);
                let warm = panel.iter().map(Sel::sql).collect();
                let conns = if kind == Kind::Ingest { 1 } else { 2 };
                let seqs = (0..conns)
                    .map(|_| data::zipf_sequence(&mut rng, panel.len(), 8192))
                    .collect();
                (panel, seqs, warm)
            }
            Kind::Explore => {
                let sels = data::range_selections(&mut rng, max, EXPLORE_SELECTIONS);
                let seqs = (0..2)
                    .map(|c| (0..sels.len()).filter(|i| i % 2 == c).collect())
                    .collect();
                (
                    sels,
                    seqs,
                    vec![format!("SELECT SUM(v) FROM {}", data::TABLE)],
                )
            }
            Kind::Bi => {
                let panel = data::bi_panel(max);
                let warm = panel.iter().map(Sel::sql).collect();
                let seqs = (0..2)
                    .map(|_| data::zipf_sequence(&mut rng, panel.len(), 1024))
                    .collect();
                (panel, seqs, warm)
            }
        };
        let (probe_len, durable_prefix) = match kind {
            Kind::Bi => (BI_PROBE_BATCHES, DURABLE_PREFIX),
            Kind::Ingest => (PROBE_BATCHES, INGEST_DURABLE_PREFIX),
            _ => (PROBE_BATCHES, DURABLE_PREFIX),
        };
        let batches = data.batches(if kind == Kind::Ingest {
            INGEST_BATCHES
        } else {
            probe_len.max(durable_prefix + TAIL_BATCHES)
        });
        let pg_probe = if kind == Kind::Bi {
            (0..3).flat_map(|_| sels.iter().map(Sel::sql)).collect()
        } else {
            let narrow = format!(
                "SELECT SUM(v) FROM {} WHERE v <= {}",
                data::TABLE,
                max * 0.02
            );
            vec![narrow; 10]
        };
        Plan {
            kind,
            data,
            sels,
            seqs,
            warm,
            batches,
            probe_len,
            durable_prefix,
            pgwire: kind == Kind::Bi,
            fsync: if kind == Kind::Ingest {
                "always"
            } else {
                "batch"
            },
            checkpoint_rows: (kind == Kind::Ingest).then_some(300),
            pg_probe,
        }
    }
}
