//! The in-process answer oracle: a `Catalog` fed the same generated inputs
//! as the server, evaluated outside every timed window, plus the
//! bit-for-bit fingerprints replies are compared by.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use uu_core::engine::{EstimationSession, EstimatorKind};
use uu_query::catalog::Catalog;
use uu_query::csv::parse_observations;
use uu_query::exec::{results_from_selection, CorrectionMethod};
use uu_query::schema::{ColumnType, Schema};
use uu_query::sql::parse;
use uu_query::table::IntegratedTable;
use uu_query::value::Value;
use uu_server::pgwire::{panel_rows, PgRow};
use uu_server::protocol::{GroupReply, QueryReply, WireEstimate, WireResult, WireValue};

use crate::data::{COLUMNS, ENTITY_COLUMN, SOURCE_COLUMN, TABLE};

/// The table schema as typed columns.
pub fn schema() -> Schema {
    Schema::new(COLUMNS.iter().map(|(name, ty)| {
        let ty = match *ty {
            "int" => ColumnType::Int,
            "float" => ColumnType::Float,
            _ => ColumnType::Str,
        };
        (name.to_string(), ty)
    }))
}

/// A replica catalog built by the same ingestion steps the server runs.
pub struct Replica {
    pub catalog: Catalog,
}

impl Replica {
    /// A replica holding the set-up load.
    pub fn new(initial_csv: &str) -> Result<Replica, String> {
        let mut table =
            IntegratedTable::new(TABLE, schema(), ENTITY_COLUMN).map_err(|e| e.to_string())?;
        let batch = parse_observations(table.schema(), initial_csv, SOURCE_COLUMN)
            .map_err(|e| e.to_string())?;
        for (source, values) in batch {
            table
                .insert_observation(source, values)
                .map_err(|e| e.to_string())?;
        }
        let mut catalog = Catalog::new();
        catalog.register(table).map_err(|e| e.to_string())?;
        Ok(Replica { catalog })
    }

    /// Applies one streamed batch through the catalog's append path.
    pub fn append(&mut self, csv: &str) -> Result<(), String> {
        let batch = parse_observations(&schema(), csv, SOURCE_COLUMN).map_err(|e| e.to_string())?;
        self.catalog
            .append_observations(TABLE, batch)
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    /// Drops every cached selection, so the next answer is a fresh freeze
    /// of the current table state rather than a re-frozen one.
    pub fn forget_selections(&self) {
        self.catalog.cache().clear();
    }

    /// The groups a cached JSON `query` of `sql` with `estimators` answers.
    pub fn groups(&self, sql: &str, estimators: &[&str]) -> Result<Vec<GroupReply>, String> {
        let query = parse(sql).map_err(|e| e.to_string())?;
        let kinds = estimators
            .iter()
            .map(|n| EstimatorKind::by_name(n))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let method = kinds
            .first()
            .map(|k| correction(*k))
            .unwrap_or(CorrectionMethod::None);
        let (snapshots, _) = self
            .catalog
            .selection_query(&query)
            .map_err(|e| e.to_string())?;
        let rows = results_from_selection(&query, &snapshots, method);
        let session = EstimationSession::new(kinds.clone());
        Ok(rows
            .into_iter()
            .zip(snapshots.iter())
            .map(|(row, (_, snapshot))| {
                let estimates = if kinds.is_empty() {
                    Vec::new()
                } else {
                    session
                        .run_profiled(&snapshot.profile())
                        .iter()
                        .map(WireEstimate::from_named)
                        .collect()
                };
                GroupReply {
                    key: WireValue(row.key),
                    result: WireResult::from_result(&row.result, estimates),
                }
            })
            .collect())
    }

    /// The text rows the pgwire front answers for `sql`: one query per
    /// registry estimator, laid out by the front's own row renderer.
    pub fn pg_rows(&self, sql: &str) -> Result<(Vec<String>, Vec<PgRow>), String> {
        let grouped = parse(sql).map_err(|e| e.to_string())?.group_by.is_some();
        let mut replies = Vec::new();
        for kind in EstimatorKind::all() {
            let groups = self.groups(sql, &[kind.name()])?;
            replies.push((
                kind.name(),
                QueryReply {
                    sql: sql.to_string(),
                    cache_hit: true,
                    elapsed_us: 0,
                    grouped,
                    groups,
                    trace: None,
                },
            ));
        }
        Ok(panel_rows(&replies))
    }
}

/// The primary correction a registry kind applies (the service's mapping).
fn correction(kind: EstimatorKind) -> CorrectionMethod {
    match kind {
        EstimatorKind::Naive => CorrectionMethod::Naive,
        EstimatorKind::Frequency => CorrectionMethod::Frequency,
        EstimatorKind::Bucket => CorrectionMethod::Bucket,
        EstimatorKind::MonteCarlo(cfg) => CorrectionMethod::MonteCarlo(cfg),
        EstimatorKind::Policy => CorrectionMethod::Auto,
    }
}

fn hash_opt(h: &mut DefaultHasher, v: Option<f64>) {
    v.map(f64::to_bits).hash(h);
}

fn hash_value(h: &mut DefaultHasher, v: &Value) {
    match v {
        Value::Null => 0u8.hash(h),
        Value::Int(i) => (1u8, *i).hash(h),
        Value::Float(f) => (2u8, f.to_bits()).hash(h),
        Value::Str(s) => (3u8, s).hash(h),
    }
}

/// A bit-exact fingerprint of a reply's groups: every float by its bits,
/// every string and count as is. Equal fingerprints ⇔ equal answers (up to
/// 64-bit collisions).
pub fn fingerprint(groups: &[GroupReply]) -> u64 {
    let mut h = DefaultHasher::new();
    groups.len().hash(&mut h);
    for g in groups {
        hash_value(&mut h, &g.key.0);
        let r = &g.result;
        r.query.hash(&mut h);
        r.observed.to_bits().hash(&mut h);
        hash_opt(&mut h, r.corrected);
        r.method.hash(&mut h);
        hash_opt(&mut h, r.n_hat);
        hash_opt(&mut h, r.upper_bound);
        match &r.extreme {
            None => 0u8.hash(&mut h),
            Some(e) => {
                (1u8, e.trusted, e.observed.to_bits()).hash(&mut h);
                hash_opt(&mut h, e.estimated_missing);
            }
        }
        hash_opt(&mut h, r.diagnostics.coverage);
        r.diagnostics.contributing_sources.hash(&mut h);
        hash_opt(&mut h, r.diagnostics.max_source_share);
        hash_opt(&mut h, r.diagnostics.source_gini);
        r.recommendation.hash(&mut h);
        r.estimates.len().hash(&mut h);
        for e in &r.estimates {
            e.name.hash(&mut h);
            hash_opt(&mut h, e.delta);
            hash_opt(&mut h, e.n_hat);
            hash_opt(&mut h, e.corrected);
        }
    }
    h.finish()
}

/// Fingerprint of a pgwire answer (columns and text rows).
pub fn pg_fingerprint(columns: &[String], rows: &[PgRow]) -> u64 {
    let mut h = DefaultHasher::new();
    columns.hash(&mut h);
    rows.hash(&mut h);
    h.finish()
}
