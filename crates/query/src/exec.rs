//! Open-world query execution.
//!
//! [`execute`] evaluates an aggregate query twice: once under the closed
//! world assumption (the answer a classical RDBMS would give over the
//! integrated table), and once corrected for unknown unknowns with the
//! estimator selected by [`CorrectionMethod`]. SUM queries additionally carry
//! the §4 upper bound, MIN/MAX queries carry the §5 trust report, and every
//! result carries the §6.5 diagnostics and recommendation.
//!
//! Each estimation universe (one group of a `GROUP BY`; an ungrouped query
//! is the one-group case, keyed by NULL) gets exactly one [`ViewProfile`]:
//! the diagnostics, the recommendation, the species estimates and the
//! bucket partition behind the corrected answer are computed once and
//! shared between the correction, the AVG/MIN/MAX strategies and the result
//! metadata. Every query path takes its universes from one extraction,
//! [`IntegratedTable::universes`], and evaluates them on the shared
//! work-stealing executor (`uu_core::exec`), whose thread budget
//! `UU_THREADS` sets (results are identical and in the same group order at
//! every budget, `UU_THREADS=1` included); nested parallel work inside a
//! group — the session fan-out, the Monte-Carlo grid — runs inline on the
//! group's worker, so a grouped Monte-Carlo workload never exceeds the
//! executor's thread budget.
//!
//! For repeated-query workloads, [`execute_cached`] /
//! [`execute_grouped_cached`] consult a [`QueryProfileCache`] before building
//! anything: on a hit the selection's [`ProfileSnapshot`]s (frozen, fully
//! warmed per-universe statistics, keyed by table version + predicate
//! fingerprint + group key) are thawed instead of re-deriving the views and
//! their statistics from the table. Results are bit-for-bit identical to the
//! uncached paths.

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::predicate::Predicate;
use crate::query::{AggregateFunction, AggregateQuery};
use crate::sql::{parse, ParseError};
use crate::table::{AppendDelta, IntegratedTable, TableError, Universe};
use crate::value::Value;
use uu_core::aggregates::{
    avg_estimate_profiled, max_report_profiled, min_report_profiled, ExtremeReport,
    EXTREME_TRUST_THRESHOLD,
};
use uu_core::bound::{sum_upper_bound, UpperBoundConfig};
use uu_core::engine::EstimatorKind;
use uu_core::montecarlo::MonteCarloConfig;
use uu_core::profile::{ProfileCache, ProfileKey, ProfileSnapshot, ViewProfile};
use uu_core::recommend::{Diagnostics, Recommendation};
use uu_core::sample::{ObservedItem, SampleView};

/// One cached selection: every estimation universe of a (table state,
/// column, predicate, grouping) combination — a single `(Null, snapshot)`
/// pair for ungrouped queries, one pair per group value otherwise — plus
/// what [`refreeze_selection`] needs to absorb an append without a rebuild:
/// the query shape that defined the selection and, for ungrouped queries,
/// the row-membership bitmap at freeze time. Derefs to the snapshot slice,
/// so consumers index and iterate it like the plain vector it once was.
#[derive(Debug)]
pub struct CachedSelection {
    /// The aggregate column of the query, verbatim (`None` = `COUNT(*)`).
    column: Option<String>,
    /// The predicate whose truth (ANDed with attribute validity) decided
    /// membership.
    predicate: Predicate,
    /// The `GROUP BY` column, verbatim.
    group_by: Option<String>,
    /// Ungrouped selections: bit `i` set ⇔ table row `i` contributed an
    /// item, in table order — the membership bitmap
    /// [`IntegratedTable::universes`] returned at freeze time. Empty for
    /// grouped selections, which re-derive delta membership per group
    /// instead.
    mask: Vec<u64>,
    /// One frozen universe per group (a single `Null`-keyed entry when
    /// ungrouped).
    snapshots: Vec<(Value, ProfileSnapshot)>,
}

impl CachedSelection {
    /// Rebuilds a selection from persisted parts — the durable store's
    /// recovery path. The parts must be exactly what the accessors of a
    /// live selection exported; the result is indistinguishable from the
    /// original freeze.
    pub fn from_parts(
        column: Option<String>,
        predicate: Predicate,
        group_by: Option<String>,
        mask: Vec<u64>,
        snapshots: Vec<(Value, ProfileSnapshot)>,
    ) -> CachedSelection {
        CachedSelection {
            column,
            predicate,
            group_by,
            mask,
            snapshots,
        }
    }

    /// The aggregate column of the defining query (`None` = `COUNT(*)`).
    pub fn column(&self) -> Option<&str> {
        self.column.as_deref()
    }

    /// The membership predicate of the defining query.
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }

    /// The `GROUP BY` column of the defining query.
    pub fn group_by(&self) -> Option<&str> {
        self.group_by.as_deref()
    }

    /// The row-membership bitmap (ungrouped selections; empty otherwise).
    pub fn mask(&self) -> &[u64] {
        &self.mask
    }
}

impl Deref for CachedSelection {
    type Target = [(Value, ProfileSnapshot)];

    fn deref(&self) -> &Self::Target {
        &self.snapshots
    }
}

/// Shared handle to a [`CachedSelection`], the unit the profile cache
/// stores.
pub type SelectionSnapshots = Arc<CachedSelection>;

/// The cross-query profile cache consulted by [`execute_cached`] and
/// [`execute_grouped_cached`] (embedded in `Catalog`).
pub type QueryProfileCache = ProfileCache<SelectionSnapshots>;

/// Which unknown-unknowns correction to apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorrectionMethod {
    /// Closed-world only (no correction).
    None,
    /// Naïve estimator (§3.1).
    Naive,
    /// Frequency estimator (§3.2).
    Frequency,
    /// Dynamic bucket estimator (§3.3) — the paper's default recommendation.
    Bucket,
    /// Monte-Carlo estimator (§3.4) with explicit configuration.
    MonteCarlo(MonteCarloConfig),
    /// Follow the §6.5 policy: bucket when sources are plentiful and even,
    /// Monte-Carlo under streakers/few sources, nothing below the coverage
    /// gate.
    Auto,
}

/// Errors from query execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The query references a different table than the one supplied.
    TableNameMismatch {
        /// Table the query names.
        requested: String,
        /// Table that was supplied.
        actual: String,
    },
    /// Schema/column/predicate problem.
    Table(TableError),
    /// SQL text failed to parse.
    Parse(ParseError),
    /// The query has a GROUP BY clause; use [`execute_grouped`].
    GroupedQuery,
    /// The referenced table is not registered (catalog dispatch).
    UnknownTable(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::TableNameMismatch { requested, actual } => {
                write!(f, "query targets table {requested:?} but got {actual:?}")
            }
            ExecError::Table(e) => write!(f, "{e}"),
            ExecError::Parse(e) => write!(f, "{e}"),
            ExecError::GroupedQuery => {
                write!(
                    f,
                    "query has GROUP BY; use execute_grouped/execute_sql_grouped"
                )
            }
            ExecError::UnknownTable(name) => write!(f, "unknown table {name:?}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<TableError> for ExecError {
    fn from(e: TableError) -> Self {
        ExecError::Table(e)
    }
}

impl From<ParseError> for ExecError {
    fn from(e: ParseError) -> Self {
        ExecError::Parse(e)
    }
}

/// The dual closed-world / open-world answer.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The executed query, pretty-printed.
    pub query: String,
    /// Closed-world answer over the integrated table. For AVG/MIN/MAX over an
    /// empty selection this is `NaN` (SQL would return NULL).
    pub observed: f64,
    /// Unknown-unknowns-corrected answer; `None` when no correction was
    /// requested, the estimator is undefined for this sample, or the Auto
    /// policy withheld the estimate (coverage below 40%).
    pub corrected: Option<f64>,
    /// Name of the estimator that produced `corrected`.
    pub method: &'static str,
    /// Estimated population richness `N̂` where applicable.
    pub n_hat: Option<f64>,
    /// §4 upper bound on the ground-truth SUM (SUM queries only).
    pub upper_bound: Option<f64>,
    /// §5 trust report (MIN/MAX queries only).
    pub extreme: Option<ExtremeReport>,
    /// §6.5 sample diagnostics.
    pub diagnostics: Diagnostics,
    /// §6.5 estimator recommendation.
    pub recommendation: Recommendation,
}

impl CorrectionMethod {
    /// Lowers the method onto the engine registry: the [`EstimatorKind`] to
    /// build, or `None` for no correction. [`CorrectionMethod::Auto`] must be
    /// resolved through [`CorrectionMethod::resolve_auto`] first.
    fn kind(self) -> Option<EstimatorKind> {
        match self {
            CorrectionMethod::None => None,
            CorrectionMethod::Naive => Some(EstimatorKind::Naive),
            CorrectionMethod::Frequency => Some(EstimatorKind::Frequency),
            CorrectionMethod::Bucket => Some(EstimatorKind::Bucket),
            CorrectionMethod::MonteCarlo(cfg) => Some(EstimatorKind::MonteCarlo(cfg)),
            CorrectionMethod::Auto => unreachable!("Auto is resolved before this point"),
        }
    }

    /// Resolves `Auto` against the §6.5 recommendation (memoized in the
    /// universe's profile); the flag reports whether the estimate was
    /// withheld by the coverage gate.
    fn resolve_auto(self, profile: &ViewProfile<'_>) -> (CorrectionMethod, bool) {
        match self {
            CorrectionMethod::Auto => match profile.recommendation() {
                Recommendation::Bucket => (CorrectionMethod::Bucket, false),
                Recommendation::MonteCarlo => (
                    CorrectionMethod::MonteCarlo(MonteCarloConfig::default()),
                    false,
                ),
                Recommendation::CollectMoreData => (CorrectionMethod::None, true),
            },
            m => (m, false),
        }
    }
}

/// Executes `query` against `table` with the chosen correction: the
/// one-universe case of [`execute_grouped`].
///
/// Queries with a `GROUP BY` clause must go through [`execute_grouped`].
pub fn execute(
    table: &IntegratedTable,
    query: &AggregateQuery,
    method: CorrectionMethod,
) -> Result<QueryResult, ExecError> {
    check_table(table, query)?;
    if query.group_by.is_some() {
        return Err(ExecError::GroupedQuery);
    }
    Ok(execute_grouped(table, query, method)?
        .pop()
        .expect("ungrouped queries have exactly one universe")
        .result)
}

fn check_table(table: &IntegratedTable, query: &AggregateQuery) -> Result<(), ExecError> {
    if !query.table.eq_ignore_ascii_case(table.name()) {
        return Err(ExecError::TableNameMismatch {
            requested: query.table.clone(),
            actual: table.name().to_string(),
        });
    }
    Ok(())
}

/// One result row of a grouped query.
#[derive(Debug, Clone)]
pub struct GroupResult {
    /// The group's key value.
    pub key: crate::value::Value,
    /// The corrected aggregate over this group's estimation universe
    /// (entities satisfying the predicate with this group value).
    pub result: QueryResult,
}

/// Executes a `GROUP BY` query: one open-world-corrected aggregate per
/// distinct group value, each group treated as its own estimation universe.
///
/// Also accepts queries without `GROUP BY` (returns a single group keyed by
/// NULL).
pub fn execute_grouped(
    table: &IntegratedTable,
    query: &AggregateQuery,
    method: CorrectionMethod,
) -> Result<Vec<GroupResult>, ExecError> {
    check_table(table, query)?;
    let (_, universes) = table.universes(
        query.column.as_deref(),
        &query.predicate,
        query.group_by.as_deref(),
    )?;
    Ok(results_from_universes(query, &universes, method))
}

/// Parses and executes a `GROUP BY` SQL string.
pub fn execute_sql_grouped(
    table: &IntegratedTable,
    sql: &str,
    method: CorrectionMethod,
) -> Result<Vec<GroupResult>, ExecError> {
    let query = parse(sql)?;
    execute_grouped(table, &query, method)
}

/// Canonical predicate fingerprint for cache keys: column names are
/// lower-cased (predicate evaluation is case-insensitive on columns, so
/// `WHERE X = 1` and `WHERE x = 1` denote the same universe), literals and
/// operators render explicitly. Unlike a `Debug` dump, the format is owned
/// by this function, so derive-output churn can't silently change cache
/// identities.
fn predicate_fingerprint(p: &crate::predicate::Predicate) -> String {
    use crate::predicate::Predicate;
    match p {
        Predicate::True => "true".to_string(),
        Predicate::Cmp { column, op, value } => {
            format!("({} {op} {value:?})", column.to_ascii_lowercase())
        }
        Predicate::And(a, b) => format!(
            "(and {} {})",
            predicate_fingerprint(a),
            predicate_fingerprint(b)
        ),
        Predicate::Or(a, b) => format!(
            "(or {} {})",
            predicate_fingerprint(a),
            predicate_fingerprint(b)
        ),
        Predicate::Not(inner) => format!("(not {})", predicate_fingerprint(inner)),
    }
}

/// The cache identity of a query's estimation universes over one table
/// state. Everything that shapes the [`SampleView`]s enters the key; the
/// aggregate function and the correction method don't (they consume the
/// cached statistics, they don't change them).
fn profile_key(table: &IntegratedTable, query: &AggregateQuery) -> ProfileKey {
    ProfileKey {
        table: table.name().to_ascii_lowercase(),
        instance: table.instance(),
        version: table.version(),
        column: query.column.as_deref().map(str::to_ascii_lowercase),
        predicate: predicate_fingerprint(&query.predicate),
        group_by: query.group_by.as_deref().map(str::to_ascii_lowercase),
    }
}

/// The cache identity of an existing selection against `table`'s *current*
/// state — the key a query of the same shape gets, rebuilt from the
/// selection's own query shape instead of a parsed query. Recovery uses this to re-insert persisted
/// selections under the restored table's fresh instance id.
pub fn selection_key(table: &IntegratedTable, selection: &CachedSelection) -> ProfileKey {
    ProfileKey {
        table: table.name().to_ascii_lowercase(),
        instance: table.instance(),
        version: table.version(),
        column: selection.column.as_deref().map(str::to_ascii_lowercase),
        predicate: predicate_fingerprint(&selection.predicate),
        group_by: selection.group_by.as_deref().map(str::to_ascii_lowercase),
    }
}

/// The accounted cache weight of a selection: the summed approximate byte
/// footprint of its per-universe snapshots. This is what the byte-budget
/// mode of [`QueryProfileCache`] sizes evictions with.
pub fn selection_bytes(selection: &SelectionSnapshots) -> usize {
    std::mem::size_of_val(selection.mask.as_slice())
        + selection
            .iter()
            .map(|(group, snapshot)| {
                snapshot.approx_bytes()
                    + match group {
                        crate::value::Value::Str(s) => s.len(),
                        _ => 0,
                    }
            })
            .sum::<usize>()
}

/// The query's estimation universes as cached snapshots, plus whether they
/// were served from `cache` (`true` = hit). On a miss the universes are
/// built from the table, frozen (one fully-warmed [`ProfileSnapshot`] per
/// universe, captured on the shared executor) and inserted with their byte
/// weight ([`selection_bytes`]).
///
/// This is the public fetch-once surface for server frontends: fetch the
/// selection, derive the corrected aggregate *and* any per-estimator session
/// fan-out from the same snapshots, and pre-warm hot queries without
/// computing an aggregate at all.
pub fn selection(
    table: &IntegratedTable,
    query: &AggregateQuery,
    cache: &QueryProfileCache,
) -> Result<(SelectionSnapshots, bool), ExecError> {
    // The span covers the whole fetch: a hit is a bare map lookup, a miss
    // additionally carries the build + freeze (whose kernels appear as
    // child spans in a trace).
    let _span = uu_core::obs::span(uu_core::obs::Stage::CacheProbe);
    let key = profile_key(table, query);
    if let Some(hit) = cache.get(&key) {
        return Ok((hit, true));
    }
    let (mask, universes) = table.universes(
        query.column.as_deref(),
        &query.predicate,
        query.group_by.as_deref(),
    )?;
    let snapshots = uu_core::exec::global().map_indexed(universes, |_, (group, view, sorted)| {
        (group, ProfileSnapshot::capture_presorted(view, sorted))
    });
    // Ungrouped selections remember their row membership so a later append
    // can extend it instead of rescanning; grouped selections re-derive
    // delta membership per group at refreeze time.
    let mask = match query.group_by {
        None => mask,
        Some(_) => Vec::new(),
    };
    let selection = Arc::new(CachedSelection {
        column: query.column.clone(),
        predicate: query.predicate.clone(),
        group_by: query.group_by.clone(),
        mask,
        snapshots,
    });
    cache.insert_weighted(key, Arc::clone(&selection), selection_bytes(&selection));
    Ok((selection, false))
}

/// Re-freezes a cached selection after an append, from the delta rows
/// alone: touched rows bump their items' multiplicities in place, delta
/// rows passing the predicate become new items (appended at the end of
/// their universe, where a rebuild would put them), and every affected
/// snapshot's statistics re-freeze through
/// [`ProfileSnapshot::refreeze`]. Reads only the table's entities and the
/// stored mask, never its columnar projection, so it works whether or not
/// the append grew the projection. Returns `None` when the selection cannot
/// be maintained incrementally — the predicate no longer evaluates, or a
/// grouped selection had a touched row inside it — in which case the caller
/// drops the entry and the next query rebuilds. A `Some` result is
/// bit-for-bit what a from-scratch freeze at the new version would produce.
pub fn refreeze_selection(
    table: &IntegratedTable,
    selection: &CachedSelection,
    delta: &AppendDelta,
) -> Option<CachedSelection> {
    let schema = table.schema();
    let attr_idx = match &selection.column {
        Some(name) => Some(schema.index_of(name)?),
        None => None,
    };
    match selection.group_by.clone() {
        None => refreeze_ungrouped(table, selection, delta, attr_idx),
        Some(group_column) => refreeze_grouped(table, selection, delta, attr_idx, &group_column),
    }
}

/// True when bit `row` of the membership bitmap is set.
fn mask_bit(mask: &[u64], row: usize) -> bool {
    mask[row / 64] >> (row % 64) & 1 == 1
}

/// Number of set bits strictly before `row` — a member row's item index.
fn popcount_before(mask: &[u64], row: usize) -> usize {
    let w = row / 64;
    mask[..w]
        .iter()
        .map(|x| x.count_ones() as usize)
        .sum::<usize>()
        + (mask[w] & ((1u64 << (row % 64)) - 1)).count_ones() as usize
}

/// The delta item a selected row contributes, mirroring the columnar item
/// construction exactly (`as_f64` widening, `0.0` for `COUNT(*)`). `None`
/// when the row's attribute is NULL (excluded from the aggregate).
fn delta_item(entity: &crate::table::Entity, attr_idx: Option<usize>) -> Option<ObservedItem> {
    let value = match attr_idx {
        Some(idx) => entity.record.value(idx).as_f64()?,
        None => 0.0,
    };
    Some(ObservedItem {
        value,
        multiplicity: entity.multiplicity(),
        source_counts: entity.source_counts.clone(),
    })
}

fn refreeze_ungrouped(
    table: &IntegratedTable,
    selection: &CachedSelection,
    delta: &AppendDelta,
    attr_idx: Option<usize>,
) -> Option<CachedSelection> {
    let schema = table.schema();
    let (group, snapshot) = selection.snapshots.first()?;
    let items = snapshot.view().items();
    // Re-observed rows: their records (hence values and membership) are
    // unchanged, only the lineage grew. The stored mask locates each row's
    // item by popcount.
    let mut bumps = Vec::new();
    for &row in &delta.touched {
        let row = row as usize;
        if !mask_bit(&selection.mask, row) {
            continue;
        }
        let entity = table.entity_at(row);
        let idx = popcount_before(&selection.mask, row);
        bumps.push((
            idx,
            ObservedItem {
                value: items[idx].value,
                multiplicity: entity.multiplicity(),
                source_counts: entity.source_counts.clone(),
            },
        ));
    }
    // Delta rows: scalar predicate evaluation over k records (parity with
    // the vectorized kernels is pinned by the columnar suite), extending
    // the membership mask as we go.
    let mut mask = selection.mask.clone();
    mask.resize(delta.rows_after.div_ceil(64), 0);
    let mut appended = Vec::new();
    for row in delta.rows_before..delta.rows_after {
        let entity = table.entity_at(row);
        match selection.predicate.eval(schema, &entity.record) {
            Ok(true) => {}
            Ok(false) => continue,
            // The predicate no longer evaluates (e.g. it referenced an
            // unknown column and the table was empty at freeze time): let
            // the query path surface the error.
            Err(_) => return None,
        }
        let Some(item) = delta_item(entity, attr_idx) else {
            continue;
        };
        mask[row / 64] |= 1 << (row % 64);
        appended.push(item);
    }
    let refrozen = snapshot.refreeze(&bumps, appended);
    Some(CachedSelection {
        column: selection.column.clone(),
        predicate: selection.predicate.clone(),
        group_by: None,
        mask,
        snapshots: vec![(group.clone(), refrozen)],
    })
}

fn refreeze_grouped(
    table: &IntegratedTable,
    selection: &CachedSelection,
    delta: &AppendDelta,
    attr_idx: Option<usize>,
    group_column: &str,
) -> Option<CachedSelection> {
    let schema = table.schema();
    let group_idx = schema.index_of(group_column)?;
    // A touched row *inside* the selection would bump a multiplicity in the
    // middle of some group's item list; grouped selections store no
    // per-group membership, so that case falls back to a rebuild.
    for &row in &delta.touched {
        let entity = table.entity_at(row as usize);
        match selection.predicate.eval(schema, &entity.record) {
            Ok(true) => {
                let in_selection = match attr_idx {
                    Some(idx) => entity.record.value(idx).as_f64().is_some(),
                    None => true,
                };
                if in_selection {
                    return None;
                }
            }
            Ok(false) => {}
            Err(_) => return None,
        }
    }
    // Route each selected delta row to its group by entity key — the exact
    // identity both the columnar and the row grouping paths key on.
    let mut by_key: HashMap<String, (bool, usize)> = HashMap::new();
    for (i, (value, _)) in selection.snapshots.iter().enumerate() {
        by_key.insert(value.entity_key(), (false, i));
    }
    let mut existing_appends: Vec<Vec<ObservedItem>> = vec![Vec::new(); selection.snapshots.len()];
    let mut new_groups: Vec<(Value, Vec<ObservedItem>)> = Vec::new();
    for row in delta.rows_before..delta.rows_after {
        let entity = table.entity_at(row);
        match selection.predicate.eval(schema, &entity.record) {
            Ok(true) => {}
            Ok(false) => continue,
            Err(_) => return None,
        }
        let Some(item) = delta_item(entity, attr_idx) else {
            continue;
        };
        let group_value = entity.record.value(group_idx);
        match by_key.get(&group_value.entity_key()) {
            Some(&(false, i)) => existing_appends[i].push(item),
            Some(&(true, i)) => new_groups[i].1.push(item),
            None => {
                by_key.insert(group_value.entity_key(), (true, new_groups.len()));
                new_groups.push((group_value.clone(), vec![item]));
            }
        }
    }
    let mut snapshots: Vec<(Value, ProfileSnapshot)> = selection
        .snapshots
        .iter()
        .zip(existing_appends)
        .map(|((value, snapshot), appended)| {
            if appended.is_empty() {
                (value.clone(), snapshot.clone())
            } else {
                // Delta rows carry the highest row indices, so a rebuild
                // would place their items at the end of the group — exactly
                // where refreeze appends them.
                (value.clone(), snapshot.refreeze(&[], appended))
            }
        })
        .collect();
    for (value, items) in new_groups {
        // A group born entirely from the delta freezes from scratch — it is
        // exact by construction, not an approximation.
        let mut sorted: Vec<u32> = (0..items.len() as u32).collect();
        sorted.sort_by(|&a, &b| items[a as usize].value.total_cmp(&items[b as usize].value));
        let view = SampleView::from_observed_items(items);
        snapshots.push((value, ProfileSnapshot::capture_presorted(view, sorted)));
    }
    // Existing groups are already in entity-key order; a stable sort slots
    // the new ones in, matching the grouped build's output order.
    snapshots.sort_by_key(|(value, _)| value.entity_key());
    Some(CachedSelection {
        column: selection.column.clone(),
        predicate: selection.predicate.clone(),
        group_by: Some(group_column.to_string()),
        mask: Vec::new(),
        snapshots,
    })
}

/// [`selection`] without the hit flag — the internal shape the `*_cached`
/// execution paths consume.
fn cached_selection(
    table: &IntegratedTable,
    query: &AggregateQuery,
    cache: &QueryProfileCache,
) -> Result<SelectionSnapshots, ExecError> {
    selection(table, query, cache).map(|(snapshots, _)| snapshots)
}

/// [`execute`] through a cross-query [`QueryProfileCache`]: a repeated query
/// against an unchanged table skips the view extraction and every statistics
/// build, thawing the cached [`ProfileSnapshot`] instead. Results are
/// bit-for-bit identical to [`execute`].
pub fn execute_cached(
    table: &IntegratedTable,
    query: &AggregateQuery,
    method: CorrectionMethod,
    cache: &QueryProfileCache,
) -> Result<QueryResult, ExecError> {
    check_table(table, query)?;
    if query.group_by.is_some() {
        return Err(ExecError::GroupedQuery);
    }
    let snapshots = cached_selection(table, query, cache)?;
    Ok(results_from_selection(query, &snapshots, method)
        .pop()
        .expect("ungrouped selections hold exactly one universe")
        .result)
}

/// Evaluates `query` over an already-fetched selection (see [`selection`]),
/// one [`GroupResult`] per universe in selection order (a single
/// `Null`-keyed row for ungrouped queries). This is the computation step of
/// [`execute_cached`] / [`execute_grouped_cached`] — callers that fetched
/// the selection themselves (e.g. a server that also fans an estimation
/// session over the same snapshots) get identical results without a second
/// cache lookup.
pub fn results_from_selection(
    query: &AggregateQuery,
    snapshots: &SelectionSnapshots,
    method: CorrectionMethod,
) -> Vec<GroupResult> {
    results(query, snapshots, method, |(key, snapshot)| {
        (key, snapshot.profile())
    })
}

/// Evaluates `query` over freshly extracted universes (see
/// [`IntegratedTable::universes`]), one [`GroupResult`] per universe in
/// order. Each universe gets a fresh [`ViewProfile`] whose value sort is
/// pre-filled from the universe's permutation, so no estimation path
/// re-sorts. This is the computation step of [`execute_grouped`]; callers
/// that extracted the universes themselves (e.g. a server that also fans
/// an estimation session over the same views) reuse it without a second
/// extraction.
pub fn results_from_universes(
    query: &AggregateQuery,
    universes: &[Universe],
    method: CorrectionMethod,
) -> Vec<GroupResult> {
    results(query, universes, method, |(key, view, sorted)| {
        (key, ViewProfile::with_sorted_indices(view, sorted))
    })
}

/// One [`GroupResult`] per universe, computed on the shared executor —
/// work-stealing balances skewed group sizes, and results come back in
/// universe order regardless of scheduling. `profile` yields a universe's
/// group key and the profile its statistics come from.
fn results<U: Sync>(
    query: &AggregateQuery,
    universes: &[U],
    method: CorrectionMethod,
    profile: impl Fn(&U) -> (&Value, ViewProfile<'_>) + Sync,
) -> Vec<GroupResult> {
    let indices: Vec<usize> = (0..universes.len()).collect();
    uu_core::exec::global().map_indexed(indices, |_, i| {
        let (key, profile) = profile(&universes[i]);
        let label = match query.group_by.as_deref() {
            Some(group_column) => format!("{query} [{group_column} = {key}]"),
            None => query.to_string(),
        };
        GroupResult {
            key: key.clone(),
            result: compute(label, query.agg, &profile, method),
        }
    })
}

/// [`execute_grouped`] through a cross-query [`QueryProfileCache`]; groups
/// are evaluated from their cached snapshots on the shared executor. Results
/// are bit-for-bit identical to [`execute_grouped`].
pub fn execute_grouped_cached(
    table: &IntegratedTable,
    query: &AggregateQuery,
    method: CorrectionMethod,
    cache: &QueryProfileCache,
) -> Result<Vec<GroupResult>, ExecError> {
    check_table(table, query)?;
    let snapshots = cached_selection(table, query, cache)?;
    Ok(results_from_selection(query, &snapshots, method))
}

/// Computes the dual answer for one estimation universe, sharing one
/// [`ViewProfile`] between the correction, the §5 strategies and the result
/// metadata. The profile is either thawed from a [`ProfileSnapshot`] or
/// built fresh with its value sort pre-filled from the universe's
/// permutation.
fn compute(
    query_display: String,
    agg: AggregateFunction,
    profile: &ViewProfile<'_>,
    method: CorrectionMethod,
) -> QueryResult {
    let view = profile.view();
    let diagnostics = profile.diagnostics();
    let recommendation = profile.recommendation();

    let (method, withheld) = method.resolve_auto(profile);

    let mut result = QueryResult {
        query: query_display,
        observed: f64::NAN,
        corrected: None,
        method: if withheld {
            "withheld(coverage<40%)"
        } else {
            "none"
        },
        n_hat: None,
        upper_bound: None,
        extreme: None,
        diagnostics,
        recommendation,
    };

    match agg {
        AggregateFunction::Sum => {
            result.observed = view.observed_sum();
            result.upper_bound =
                sum_upper_bound(view, UpperBoundConfig::default()).map(|b| b.phi_d_bound);
            if let Some(kind) = method.kind() {
                let est = kind.build();
                let d = est.estimate_delta_profiled(profile);
                result.corrected = d.delta.map(|delta| view.observed_sum() + delta);
                result.n_hat = d.n_hat;
                result.method = est.name();
            }
        }
        AggregateFunction::Count => {
            result.observed = view.c() as f64;
            let n_hat = method.kind().and_then(|kind| {
                result.method = kind.count_method_name();
                kind.estimate_count_profiled(profile)
            });
            result.corrected = n_hat;
            result.n_hat = n_hat;
        }
        AggregateFunction::Avg => {
            result.observed = view.mean_value().unwrap_or(f64::NAN);
            if method != CorrectionMethod::None {
                // Only the bucket approach moves AVG off the observed value
                // (§5); all other estimators reproduce the observed mean.
                if let Some(avg) = avg_estimate_profiled(profile) {
                    result.corrected = Some(avg.corrected);
                    result.method = "bucket-avg";
                }
            }
        }
        AggregateFunction::Min | AggregateFunction::Max => {
            let is_max = agg == AggregateFunction::Max;
            result.observed = if is_max {
                view.max_value().unwrap_or(f64::NAN)
            } else {
                view.min_value().unwrap_or(f64::NAN)
            };
            if method != CorrectionMethod::None {
                let report = if is_max {
                    max_report_profiled(profile, EXTREME_TRUST_THRESHOLD)
                } else {
                    min_report_profiled(profile, EXTREME_TRUST_THRESHOLD)
                };
                if let Some(r) = report {
                    // An endorsed extreme is the corrected answer; an
                    // unendorsed one stays observation-only.
                    if r.is_trusted() {
                        result.corrected = Some(r.observed());
                    }
                    result.extreme = Some(r);
                    result.method = "bucket-extreme";
                }
            }
        }
    }
    result
}

/// Parses and executes a SQL string against `table`.
pub fn execute_sql(
    table: &IntegratedTable,
    sql: &str,
    method: CorrectionMethod,
) -> Result<QueryResult, ExecError> {
    let query = parse(sql)?;
    execute(table, &query, method)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use crate::value::Value;

    /// The toy example table (Appendix F), after s5 = {A, E}.
    fn toy_table() -> IntegratedTable {
        let schema = Schema::new([
            ("company", ColumnType::Str),
            ("employees", ColumnType::Float),
        ]);
        let mut t = IntegratedTable::new("companies", schema, "company").unwrap();
        let observations: [(u32, &str, f64); 9] = [
            (0, "A", 1000.0),
            (0, "B", 2000.0),
            (0, "D", 10_000.0),
            (1, "B", 2000.0),
            (1, "D", 10_000.0),
            (2, "D", 10_000.0),
            (3, "D", 10_000.0),
            (4, "A", 1000.0),
            (4, "E", 300.0),
        ];
        for (src, name, emp) in observations {
            t.insert_observation(src, vec![Value::from(name), Value::from(emp)])
                .unwrap();
        }
        t
    }

    #[test]
    fn sum_with_all_estimators_matches_table2() {
        let t = toy_table();
        let sql = "SELECT SUM(employees) FROM companies";
        let naive = execute_sql(&t, sql, CorrectionMethod::Naive).unwrap();
        assert_eq!(naive.observed, 13_300.0);
        assert!((naive.corrected.unwrap() - 14_962.5).abs() < 1e-6);
        let freq = execute_sql(&t, sql, CorrectionMethod::Frequency).unwrap();
        assert!((freq.corrected.unwrap() - 13_450.0).abs() < 1e-6);
        let bucket = execute_sql(&t, sql, CorrectionMethod::Bucket).unwrap();
        assert!((bucket.corrected.unwrap() - 13_950.0).abs() < 1e-6);
    }

    #[test]
    fn none_method_reports_observed_only() {
        let t = toy_table();
        let r = execute_sql(
            &t,
            "SELECT SUM(employees) FROM companies",
            CorrectionMethod::None,
        )
        .unwrap();
        assert_eq!(r.observed, 13_300.0);
        assert_eq!(r.corrected, None);
        assert_eq!(r.method, "none");
    }

    #[test]
    fn count_estimates() {
        let t = toy_table();
        let sql = "SELECT COUNT(*) FROM companies";
        let r = execute_sql(&t, sql, CorrectionMethod::Naive).unwrap();
        assert_eq!(r.observed, 4.0);
        assert!((r.corrected.unwrap() - 4.5).abs() < 1e-9); // Chao92
    }

    #[test]
    fn avg_is_corrected_downwards_here() {
        let t = toy_table();
        let r = execute_sql(
            &t,
            "SELECT AVG(employees) FROM companies",
            CorrectionMethod::Bucket,
        )
        .unwrap();
        assert!((r.observed - 3325.0).abs() < 1e-9);
        assert!(r.corrected.unwrap() < r.observed);
    }

    #[test]
    fn max_trusted_min_not() {
        let t = toy_table();
        let max = execute_sql(
            &t,
            "SELECT MAX(employees) FROM companies",
            CorrectionMethod::Bucket,
        )
        .unwrap();
        assert_eq!(max.observed, 10_000.0);
        assert_eq!(max.corrected, Some(10_000.0));
        assert!(max.extreme.unwrap().is_trusted());

        let min = execute_sql(
            &t,
            "SELECT MIN(employees) FROM companies",
            CorrectionMethod::Bucket,
        )
        .unwrap();
        assert_eq!(min.observed, 300.0);
        assert_eq!(
            min.corrected, None,
            "incomplete low bucket must not be endorsed"
        );
        assert!(!min.extreme.unwrap().is_trusted());
    }

    #[test]
    fn predicates_narrow_the_estimation_universe() {
        let t = toy_table();
        let r = execute_sql(
            &t,
            "SELECT SUM(employees) FROM companies WHERE employees < 5000",
            CorrectionMethod::Naive,
        )
        .unwrap();
        assert_eq!(r.observed, 3300.0);
        // c = 3 (A, B, E), n = 5, f1 = 1 (E).
        assert!(r.corrected.unwrap() > r.observed);
    }

    #[test]
    fn table_name_is_checked() {
        let t = toy_table();
        let err = execute_sql(
            &t,
            "SELECT SUM(employees) FROM wrong",
            CorrectionMethod::None,
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::TableNameMismatch { .. }));
    }

    #[test]
    fn parse_and_schema_errors_propagate() {
        let t = toy_table();
        assert!(matches!(
            execute_sql(&t, "SELEKT", CorrectionMethod::None),
            Err(ExecError::Parse(_))
        ));
        assert!(matches!(
            execute_sql(
                &t,
                "SELECT SUM(nope) FROM companies",
                CorrectionMethod::None
            ),
            Err(ExecError::Table(TableError::UnknownColumn(_)))
        ));
    }

    #[test]
    fn auto_resolves_to_monte_carlo_for_few_sources() {
        // Only 2 sources ⇒ policy says Monte-Carlo (needs high coverage to
        // get past the gate, so observe everything twice).
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Float)]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        for src in 0..2u32 {
            for i in 0..10 {
                t.insert_observation(
                    src,
                    vec![Value::from(format!("e{i}")), Value::from(i as f64)],
                )
                .unwrap();
            }
        }
        let r = execute_sql(&t, "SELECT SUM(v) FROM t", CorrectionMethod::Auto).unwrap();
        assert_eq!(r.recommendation, Recommendation::MonteCarlo);
        assert_eq!(r.method, "monte-carlo");
    }

    #[test]
    fn auto_withholds_below_coverage_gate() {
        // All singletons: coverage 0 ⇒ Auto refuses to correct.
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Float)]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        for i in 0..10 {
            t.insert_observation(
                i % 6,
                vec![Value::from(format!("e{i}")), Value::from(i as f64)],
            )
            .unwrap();
        }
        let r = execute_sql(&t, "SELECT SUM(v) FROM t", CorrectionMethod::Auto).unwrap();
        assert_eq!(r.corrected, None);
        assert_eq!(r.method, "withheld(coverage<40%)");
        assert_eq!(r.recommendation, Recommendation::CollectMoreData);
    }

    #[test]
    fn upper_bound_attached_to_sums_when_defined() {
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Float)]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        for src in 0..8u32 {
            for i in 0..60 {
                t.insert_observation(
                    src,
                    vec![Value::from(format!("e{i}")), Value::from(i as f64)],
                )
                .unwrap();
            }
        }
        let r = execute_sql(&t, "SELECT SUM(v) FROM t", CorrectionMethod::Bucket).unwrap();
        let bound = r.upper_bound.expect("bound defined for n=480");
        assert!(bound >= r.observed);
        assert!(bound >= r.corrected.unwrap());
    }

    #[test]
    fn empty_selection_yields_nan_for_avg() {
        let t = toy_table();
        let r = execute_sql(
            &t,
            "SELECT AVG(employees) FROM companies WHERE employees > 99999",
            CorrectionMethod::Bucket,
        )
        .unwrap();
        assert!(r.observed.is_nan());
        assert_eq!(r.corrected, None);
    }

    #[test]
    fn grouped_execution_partitions_the_universe() {
        // Re-create the toy table with a state column so grouping is useful.
        let schema = Schema::new([
            ("company", ColumnType::Str),
            ("employees", ColumnType::Float),
            ("state", ColumnType::Str),
        ]);
        let mut t = IntegratedTable::new("companies", schema, "company").unwrap();
        let rows: [(u32, &str, f64, &str); 9] = [
            (0, "A", 1000.0, "CA"),
            (0, "B", 2000.0, "CA"),
            (0, "D", 10_000.0, "WA"),
            (1, "B", 2000.0, "CA"),
            (1, "D", 10_000.0, "WA"),
            (2, "D", 10_000.0, "WA"),
            (3, "D", 10_000.0, "WA"),
            (4, "A", 1000.0, "CA"),
            (4, "E", 300.0, "CA"),
        ];
        for (src, name, emp, state) in rows {
            t.insert_observation(
                src,
                vec![Value::from(name), Value::from(emp), Value::from(state)],
            )
            .unwrap();
        }
        let groups = super::execute_sql_grouped(
            &t,
            "SELECT SUM(employees) FROM companies GROUP BY state",
            CorrectionMethod::Naive,
        )
        .unwrap();
        assert_eq!(groups.len(), 2);
        let ca = &groups[0];
        assert_eq!(ca.key, Value::from("CA"));
        assert_eq!(ca.result.observed, 3300.0);
        // CA group: A:2, B:2, E:1 → n=5, c=3, f1=1, Chao92 defined.
        assert!(ca.result.corrected.unwrap() > 3300.0);
        let wa = &groups[1];
        assert_eq!(wa.key, Value::from("WA"));
        assert_eq!(wa.result.observed, 10_000.0);
        // WA group: only D, seen 4 times — complete, Δ = 0.
        assert_eq!(wa.result.corrected, Some(10_000.0));
        // The group label names the group.
        assert!(
            ca.result.query.contains("state = 'CA'"),
            "{}",
            ca.result.query
        );
    }

    #[test]
    fn grouped_query_through_plain_execute_is_an_error() {
        let t = toy_table();
        let err = execute_sql(
            &t,
            "SELECT SUM(employees) FROM companies GROUP BY company",
            CorrectionMethod::None,
        )
        .unwrap_err();
        assert_eq!(err, ExecError::GroupedQuery);
    }

    #[test]
    fn ungrouped_query_through_grouped_exec_is_a_single_null_group() {
        let t = toy_table();
        let groups = super::execute_sql_grouped(
            &t,
            "SELECT SUM(employees) FROM companies",
            CorrectionMethod::Bucket,
        )
        .unwrap();
        assert_eq!(groups.len(), 1);
        assert!(groups[0].key.is_null());
        assert!((groups[0].result.corrected.unwrap() - 13_950.0).abs() < 1e-6);
    }
}
