//! Inputs generated from the seed: the population, the integrated
//! observation stream, the selections each workload asks for, and the
//! ground truth those selections have over the population.
//!
//! The population and which source saw which entity come from a fixed
//! `DATA_SEED`: what an append or a query costs depends on that sample, by
//! up to a third between samples, so a seed-drawn sample would make runs of
//! different seeds do different amounts of work. The run's seed relabels
//! the entities and the sources, and draws the request lists; an entity's
//! group follows the entity, not its label, so every group holds the same
//! entities on every seed.

use uu_datagen::integration::{ArrivalOrder, IntegratedSample};
use uu_datagen::population::{Population, Publicity, ValueSpec};
use uu_stats::rng::Rng;

/// The single table every workload queries.
pub const TABLE: &str = "t";
/// Schema columns as the `load_csv` verb spells them.
pub const COLUMNS: [(&str, &str); 3] = [("id", "int"), ("v", "float"), ("g", "int")];
/// Entity column and source column of the CSV.
pub const ENTITY_COLUMN: &str = "id";
pub const SOURCE_COLUMN: &str = "src";
/// Number of `g` groups.
pub const GROUPS: u64 = 16;
/// Rows per `append_stream` batch.
pub const BATCH_ROWS: usize = 20;
/// Share of the integrated stream loaded during set-up.
pub const INITIAL_SHARE: f64 = 0.7;
/// Seed of the population and its integrated sample.
pub const DATA_SEED: u64 = 7;

/// One observation: source `src` mentions entity `id` (value `v`, group `g`).
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub src: u32,
    pub id: u64,
    pub v: f64,
    pub g: u64,
}

/// The group of population item `item`. A multiplicative hash keeps groups
/// independent of the value order.
pub fn group_of(item: u64) -> u64 {
    (item.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % GROUPS
}

/// Population plus its integrated stream, split into the set-up load and the
/// batches streamed afterwards.
pub struct Dataset {
    pub population: Population,
    pub rows: Vec<Row>,
    pub initial: usize,
    pub sources: u32,
}

impl Dataset {
    /// `entities` entities with values `10, 20, …`, exponential publicity
    /// (λ = 4) correlated with value (ρ = 0.5), sampled by `sources`
    /// sources of `per_source` entities each, integrated round-robin; the
    /// entities and sources relabelled by a permutation drawn from `seed`.
    pub fn generate(seed: u64, entities: usize, sources: usize, per_source: usize) -> Dataset {
        let population = Population::builder(entities)
            .values(ValueSpec::Arithmetic {
                start: 10.0,
                step: 10.0,
            })
            .publicity(Publicity::Exponential { lambda: 4.0 })
            .correlation(0.5)
            .build(DATA_SEED);
        let mut rng = Rng::new(DATA_SEED ^ 0xB3EC_0001);
        let sizes = vec![per_source.min(entities); sources];
        let sample =
            IntegratedSample::integrate(&population, &sizes, ArrivalOrder::RoundRobin, &mut rng);
        let mut relabel = Rng::new(seed ^ 0x1D5_0F_1D5);
        let ids: Vec<u64> = permutation(&mut relabel, entities)
            .into_iter()
            .map(|i| i as u64)
            .collect();
        let srcs = permutation(&mut relabel, sources);
        let rows: Vec<Row> = sample
            .observations()
            .iter()
            .map(|o| Row {
                src: srcs[o.source_id] as u32,
                id: ids[o.item_id],
                v: population.value(o.item_id),
                g: group_of(o.item_id as u64),
            })
            .collect();
        let initial = (rows.len() as f64 * INITIAL_SHARE) as usize;
        Dataset {
            population,
            rows,
            initial,
            sources: sources as u32,
        }
    }

    /// The set-up load as one CSV document.
    pub fn initial_csv(&self) -> String {
        csv(&self.rows[..self.initial])
    }

    /// `count` `append_stream` batches: the rest of the stream in arrival
    /// order, then the same rows again as observations of fresh sources
    /// (source ids shifted by the source count per pass), so a fast server
    /// never runs out of input.
    pub fn batches(&self, count: usize) -> Vec<Batch> {
        let tail = &self.rows[self.initial..];
        let chunks: Vec<&[Row]> = tail.chunks(BATCH_ROWS).collect();
        (0..count)
            .map(|k| {
                let pass = (k / chunks.len()) as u32;
                let rows: Vec<Row> = chunks[k % chunks.len()]
                    .iter()
                    .map(|r| Row {
                        src: r.src + pass * self.sources,
                        ..*r
                    })
                    .collect();
                Batch {
                    csv: csv(&rows),
                    rows: rows.len() as u64,
                }
            })
            .collect()
    }

    /// Share of the streamed rows that re-observe an entity already seen
    /// earlier in the stream.
    pub fn reobserved_share(&self) -> f64 {
        let mut seen = vec![false; self.population.len()];
        for r in &self.rows[..self.initial] {
            seen[r.id as usize] = true;
        }
        let tail = &self.rows[self.initial..];
        let mut again = 0usize;
        for r in tail {
            if seen[r.id as usize] {
                again += 1;
            }
            seen[r.id as usize] = true;
        }
        again as f64 / tail.len().max(1) as f64
    }

    /// Largest attribute value.
    pub fn max_value(&self) -> f64 {
        self.population.len() as f64 * 10.0
    }
}

/// One `append_stream` payload.
#[derive(Debug, Clone)]
pub struct Batch {
    pub csv: String,
    pub rows: u64,
}

fn csv(rows: &[Row]) -> String {
    let mut out = String::with_capacity(24 * rows.len() + 16);
    out.push_str("src,id,v,g\n");
    for r in rows {
        out.push_str(&format!("{},{},{:.1},{}\n", r.src, r.id, r.v, r.g));
    }
    out
}

/// Aggregates the selections use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Sum,
    Avg,
    Count,
}

/// Predicate atoms over `v` (value range) and `g` (group).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cond {
    VGe(f64),
    VLe(f64),
    GEq(u64),
    GLt(u64),
}

impl Cond {
    fn holds(self, v: f64, g: u64) -> bool {
        match self {
            Cond::VGe(x) => v >= x,
            Cond::VLe(x) => v <= x,
            Cond::GEq(k) => g == k,
            Cond::GLt(k) => g < k,
        }
    }

    fn sql(self) -> String {
        match self {
            Cond::VGe(x) => format!("v >= {x}"),
            Cond::VLe(x) => format!("v <= {x}"),
            Cond::GEq(k) => format!("g = {k}"),
            Cond::GLt(k) => format!("g < {k}"),
        }
    }
}

/// One aggregate selection over the table.
#[derive(Debug, Clone, PartialEq)]
pub struct Sel {
    pub agg: Agg,
    pub conds: Vec<Cond>,
    pub grouped: bool,
}

impl Sel {
    pub fn new(agg: Agg, conds: &[Cond], grouped: bool) -> Sel {
        Sel {
            agg,
            conds: conds.to_vec(),
            grouped,
        }
    }

    pub fn sql(&self) -> String {
        let agg = match self.agg {
            Agg::Sum => "SUM(v)",
            Agg::Avg => "AVG(v)",
            Agg::Count => "COUNT(*)",
        };
        let mut sql = format!("SELECT {agg} FROM {TABLE}");
        if !self.conds.is_empty() {
            let conds: Vec<String> = self.conds.iter().map(|c| c.sql()).collect();
            sql.push_str(" WHERE ");
            sql.push_str(&conds.join(" AND "));
        }
        if self.grouped {
            sql.push_str(" GROUP BY g");
        }
        sql
    }

    /// The aggregate over the whole population, per group (ascending `g`)
    /// for grouped selections. Groups with no qualifying entity are absent.
    pub fn truth(&self, data: &Dataset) -> Vec<(Option<u64>, f64)> {
        let mut acc: std::collections::BTreeMap<Option<u64>, (f64, u64)> = Default::default();
        for item in data.population.items() {
            let g = group_of(item.id as u64);
            if self.conds.iter().all(|c| c.holds(item.value, g)) {
                let key = self.grouped.then_some(g);
                let e = acc.entry(key).or_insert((0.0, 0));
                e.0 += item.value;
                e.1 += 1;
            }
        }
        acc.into_iter()
            .map(|(k, (sum, n))| {
                let value = match self.agg {
                    Agg::Sum => sum,
                    Agg::Avg => sum / n as f64,
                    Agg::Count => n as f64,
                };
                (k, value)
            })
            .collect()
    }
}

/// A uniformly drawn permutation of `0..n` (Fisher–Yates).
fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_f64() * (i + 1) as f64) as usize;
        p.swap(i, j.min(i));
    }
    p
}

/// Rounds a value to a whole multiple of 10 so predicates read cleanly.
fn bound(x: f64) -> f64 {
    (x / 10.0).round() * 10.0
}

/// The 12-selection hot panel, in Zipf rank order (rank 1 first). Shapes
/// and constants are fixed, so every seed asks for the same mix of work;
/// the seed moves the data and the request order.
pub fn hot_panel(max_value: f64) -> Vec<Sel> {
    let at = |share: f64| bound(max_value * share);
    let (a, a2, b, lo, hi) = (at(0.4), at(0.2), at(0.65), at(0.2), at(0.75));
    let k = GROUPS / 2;
    use Agg::*;
    use Cond::*;
    vec![
        Sel::new(Sum, &[], false),
        Sel::new(Sum, &[], true),
        Sel::new(Avg, &[VGe(a)], false),
        Sel::new(Count, &[], true),
        Sel::new(Sum, &[VLe(b)], false),
        Sel::new(Count, &[GEq(k)], false),
        Sel::new(Avg, &[VGe(a2)], true),
        Sel::new(Sum, &[VGe(lo), VLe(hi)], false),
        Sel::new(Count, &[VGe(a)], false),
        Sel::new(Sum, &[VLe(b)], true),
        Sel::new(Avg, &[GLt(k)], false),
        Sel::new(Sum, &[GEq(k), VGe(a2)], false),
    ]
}

/// `n` distinct range selections `v >= lo AND v <= hi` of 5–60 % of the
/// value domain; every fourth is grouped, aggregates rotate.
pub fn range_selections(rng: &mut Rng, max_value: f64, n: usize) -> Vec<Sel> {
    let mut out: Vec<Sel> = Vec::with_capacity(n);
    while out.len() < n {
        let width = rng.next_range_f64(0.05, 0.6) * max_value;
        let lo = bound(rng.next_range_f64(0.0, max_value - width));
        let hi = bound(lo + width);
        let agg = [Agg::Sum, Agg::Avg, Agg::Count][out.len() % 3];
        let sel = Sel::new(agg, &[Cond::VGe(lo), Cond::VLe(hi)], out.len() % 4 == 3);
        if !out.contains(&sel) {
            out.push(sel);
        }
    }
    out
}

/// The small, fixed panel of the pgwire workload: one query per aggregate,
/// each over nearly the whole table, so every query costs about the same
/// and the latency median does not sit between two query types.
pub fn bi_panel(max_value: f64) -> Vec<Sel> {
    vec![
        Sel::new(Agg::Sum, &[], false),
        Sel::new(Agg::Avg, &[Cond::VGe(bound(max_value * 0.05))], false),
        Sel::new(Agg::Count, &[Cond::GLt(GROUPS - 1)], false),
        Sel::new(Agg::Sum, &[Cond::VLe(bound(max_value * 0.95))], false),
    ]
}

/// The end-of-run accuracy panel: SUM and COUNT over the whole table and
/// per group, plus SUM over each of 64 equal value ranges — 98
/// (selection, group) items, most of them over disjoint entities, so their
/// median error is steady across seeds.
pub fn accuracy_panel(max_value: f64) -> Vec<Sel> {
    let mut panel = vec![
        Sel::new(Agg::Sum, &[], false),
        Sel::new(Agg::Count, &[], false),
        Sel::new(Agg::Sum, &[], true),
        Sel::new(Agg::Count, &[], true),
    ];
    let step = max_value / 64.0;
    for i in 0..64 {
        let lo = bound(i as f64 * step);
        let hi = bound((i + 1) as f64 * step) - 10.0;
        panel.push(Sel::new(Agg::Sum, &[Cond::VGe(lo), Cond::VLe(hi)], false));
    }
    panel
}

/// Whole-table selections, free of seed-drawn constants, cached in the
/// canonical durable state so its snapshot has the same shape on every seed.
pub fn durable_selections() -> Vec<Sel> {
    vec![
        Sel::new(Agg::Sum, &[], false),
        Sel::new(Agg::Count, &[], false),
        Sel::new(Agg::Sum, &[], true),
        Sel::new(Agg::Avg, &[], true),
    ]
}

/// A request sequence of `len` panel indices drawn with Zipf(1) popularity
/// over the panel's rank order.
pub fn zipf_sequence(rng: &mut Rng, panel_len: usize, len: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=panel_len).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    (0..len)
        .map(|_| {
            let mut u = rng.next_f64() * total;
            for (i, w) in weights.iter().enumerate() {
                if u < *w {
                    return i;
                }
                u -= w;
            }
            panel_len - 1
        })
        .collect()
}
