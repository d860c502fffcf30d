//! Integrated tables: entity-deduplicated storage with observation lineage.
//!
//! An [`IntegratedTable`] is the paper's `K` (one row per unique entity)
//! together with the information that defines the multiset `S`: how many
//! times each entity was observed, by which source. The end user queries the
//! deduplicated view; the estimators consume the lineage.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::columnar::{self, GroupKey, Projection};
use crate::predicate::{Predicate, PredicateError};
use crate::record::{Record, RecordError};
use crate::schema::{ColumnType, Schema};
use crate::value::Value;
use uu_core::sample::{ObservedItem, SampleView};

/// Errors raised by table operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    /// The designated entity-key column does not exist.
    UnknownKeyColumn(String),
    /// A record failed schema validation.
    Record(RecordError),
    /// The entity key of a record is NULL.
    NullKey,
    /// A column referenced by a query does not exist.
    UnknownColumn(String),
    /// The aggregate attribute column is not numeric.
    NonNumericColumn(String),
    /// A predicate failed to evaluate.
    Predicate(PredicateError),
    /// Persisted rows handed to [`IntegratedTable::restore`] repeat an
    /// entity key — live tables are entity-deduplicated, so the snapshot
    /// does not describe a table this code wrote.
    DuplicateEntity(String),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::UnknownKeyColumn(c) => write!(f, "unknown key column {c:?}"),
            TableError::Record(e) => write!(f, "invalid record: {e}"),
            TableError::NullKey => write!(f, "entity key must not be NULL"),
            TableError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            TableError::NonNumericColumn(c) => {
                write!(
                    f,
                    "column {c:?} is not numeric; aggregates need INT or FLOAT"
                )
            }
            TableError::Predicate(e) => write!(f, "predicate error: {e}"),
            TableError::DuplicateEntity(k) => {
                write!(f, "persisted rows repeat entity key {k:?}")
            }
        }
    }
}

impl std::error::Error for TableError {}

impl From<RecordError> for TableError {
    fn from(e: RecordError) -> Self {
        TableError::Record(e)
    }
}

impl From<PredicateError> for TableError {
    fn from(e: PredicateError) -> Self {
        TableError::Predicate(e)
    }
}

/// One unique entity with its lineage.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    /// The record under the table schema (first observation wins; upstream
    /// data cleaning is assumed, per the paper's §2).
    pub record: Record,
    /// `(source_id, observation_count)` — sorted by source id.
    pub source_counts: Vec<(u32, u32)>,
}

impl Entity {
    /// Total observations of this entity across sources.
    pub fn multiplicity(&self) -> u64 {
        self.source_counts.iter().map(|&(_, k)| k as u64).sum()
    }
}

/// What an accepted append batch changed, in terms every delta-maintained
/// cache layer needs: the version window, the row window, and which
/// pre-existing rows had their lineage (hence multiplicity) bumped by
/// duplicate keys in the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendDelta {
    /// Table version before the batch was applied.
    pub version_before: u64,
    /// Table version after (`version_before` + accepted observations).
    pub version_after: u64,
    /// Entity count before the batch.
    pub rows_before: usize,
    /// Entity count after.
    pub rows_after: usize,
    /// Indices (< `rows_before`, ascending, deduplicated) of pre-existing
    /// entities the batch re-observed. Their records are unchanged — first
    /// record wins — but their multiplicities grew.
    pub touched: Vec<u32>,
    /// Sort permutations absorbed by merge instead of a re-sort.
    pub perm_merges: u64,
    /// The cached columnar projection was extended in place rather than
    /// dropped (also true when none was cached). False only when an
    /// outside reference held the projection across the append, so the
    /// next read rebuilds it.
    pub incremental: bool,
}

/// Process-unique table-instance ids, so profile-cache keys can tell two
/// same-named tables apart (a per-instance insert counter alone could
/// coincide).
static TABLE_INSTANCES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn next_instance() -> u64 {
    TABLE_INSTANCES.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// One estimation universe: its group value (`Value::Null` when the query
/// is ungrouped), its sample view, and the view's value-sort permutation
/// (indices into the view's items, ascending, stable).
pub type Universe = (Value, SampleView, Vec<u32>);

/// Persisted entity rows: `(record values, (source, count) lineage)` in
/// original row order — the shape [`IntegratedTable::restore`] consumes
/// and checkpoints produce.
pub type EntityRows = Vec<(Vec<Value>, Vec<(u32, u32)>)>;

/// An integrated, entity-deduplicated table with lineage.
#[derive(Debug)]
pub struct IntegratedTable {
    name: String,
    schema: Schema,
    key_col: usize,
    entities: Vec<Entity>,
    index: HashMap<String, usize>,
    /// Mutation counter: bumped by every accepted observation. Part of the
    /// cross-query [`uu_core::profile::ProfileKey`], so cached profiles of an
    /// older table state can never be returned.
    version: u64,
    /// Process-unique identity (fresh per constructor call *and* per clone),
    /// also part of the cache key: two distinct tables that happen to share a
    /// name and a version can never serve each other's cached profiles.
    instance: u64,
    /// The cached columnar [`Projection`] of the current version, built
    /// lazily on the first cold read and shared by every query until the
    /// next mutation invalidates it.
    projection: Mutex<Option<Arc<Projection>>>,
    /// Projections built (cold reads after a mutation or on a fresh table).
    projection_builds: AtomicU64,
    /// Reads served by the cached projection.
    projection_reuses: AtomicU64,
}

impl Clone for IntegratedTable {
    /// Clones the contents but assigns a **fresh instance id**: the clone is
    /// a different table that may diverge from the original, so it must not
    /// share cached profiles with it. The columnar projection and its
    /// counters start cold.
    fn clone(&self) -> Self {
        IntegratedTable {
            name: self.name.clone(),
            schema: self.schema.clone(),
            key_col: self.key_col,
            entities: self.entities.clone(),
            index: self.index.clone(),
            version: self.version,
            instance: next_instance(),
            projection: Mutex::new(None),
            projection_builds: AtomicU64::new(0),
            projection_reuses: AtomicU64::new(0),
        }
    }
}

impl IntegratedTable {
    /// Creates an empty table. `key_column` names the column whose value
    /// identifies an entity (entity resolution is assumed done upstream).
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        key_column: &str,
    ) -> Result<Self, TableError> {
        let key_col = schema
            .index_of(key_column)
            .ok_or_else(|| TableError::UnknownKeyColumn(key_column.to_string()))?;
        Ok(IntegratedTable {
            name: name.into(),
            schema,
            key_col,
            entities: Vec::new(),
            index: HashMap::new(),
            version: 0,
            instance: next_instance(),
            projection: Mutex::new(None),
            projection_builds: AtomicU64::new(0),
            projection_reuses: AtomicU64::new(0),
        })
    }

    /// Table name (matched case-insensitively by the executor).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The mutation counter: 0 for a fresh table, +1 per accepted
    /// observation. Together with [`IntegratedTable::instance`] it identifies
    /// a table *state* in profile-cache keys.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Process-unique identity of this table object (fresh per construction
    /// and per clone).
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The entity-key column's name.
    pub fn key_column(&self) -> &str {
        &self.schema.columns()[self.key_col].name
    }

    /// Rebuilds a table from persisted state: entities in their original
    /// row order (values + per-source lineage counts) and the version
    /// counter they were persisted at. Row order matters — selection masks
    /// and sort permutations persisted alongside the table index into it.
    /// The instance id is fresh (this is a new table object); the caller
    /// re-keys any persisted cache entries against it.
    pub fn restore(
        name: impl Into<String>,
        schema: Schema,
        key_column: &str,
        entities: EntityRows,
        version: u64,
    ) -> Result<Self, TableError> {
        let mut table = IntegratedTable::new(name, schema, key_column)?;
        for (values, source_counts) in entities {
            let key = table.checked_key(&values)?.entity_key();
            if table.index.contains_key(&key) {
                return Err(TableError::DuplicateEntity(key));
            }
            table.entities.push(Entity {
                record: Record::checked(values),
                source_counts,
            });
            table.index.insert(key, table.entities.len() - 1);
        }
        table.version = version;
        Ok(table)
    }

    /// Validates one observation's values against the schema and returns
    /// its entity-key value, which must not be NULL.
    fn checked_key<'v>(&self, values: &'v [Value]) -> Result<&'v Value, TableError> {
        Record::check(&self.schema, values)?;
        let key = &values[self.key_col];
        if key.is_null() {
            return Err(TableError::NullKey);
        }
        Ok(key)
    }

    /// Checks every observation of `batch` the way [`IntegratedTable::append_batch`]
    /// does, without applying anything: `Ok` means the append will be
    /// accepted, an error is the one the append would return. Lets a
    /// caller log a batch durably only once it is known to apply.
    pub fn validate_batch(&self, batch: &[(u32, Vec<Value>)]) -> Result<(), TableError> {
        batch
            .iter()
            .try_for_each(|(_, values)| self.checked_key(values).map(drop))
    }

    /// The lineage step shared by every mutation: records that `source_id`
    /// observed the (already validated) row `values` and returns the
    /// entity's row index. A new key stores the record; a known one only
    /// bumps its lineage (first record wins — the paper assumes upstream
    /// fusion resolved value conflicts).
    fn observe(&mut self, source_id: u32, values: Vec<Value>) -> usize {
        let key = values[self.key_col].entity_key();
        let idx = match self.index.get(&key) {
            Some(&i) => i,
            None => {
                self.entities.push(Entity {
                    record: Record::checked(values),
                    source_counts: Vec::new(),
                });
                let i = self.entities.len() - 1;
                self.index.insert(key, i);
                i
            }
        };
        let entity = &mut self.entities[idx];
        match entity
            .source_counts
            .binary_search_by_key(&source_id, |&(s, _)| s)
        {
            Ok(pos) => entity.source_counts[pos].1 += 1,
            Err(pos) => entity.source_counts.insert(pos, (source_id, 1)),
        }
        idx
    }

    /// Records that `source_id` mentioned the entity described by `values`.
    ///
    /// If the entity (by key column) is new, the record is stored; otherwise
    /// only the lineage is updated (first record wins). Unlike
    /// [`IntegratedTable::append_batch`], this drops the cached projection.
    pub fn insert_observation(
        &mut self,
        source_id: u32,
        values: Vec<Value>,
    ) -> Result<(), TableError> {
        self.checked_key(&values)?;
        self.observe(source_id, values);
        self.version += 1;
        // Drop the now-stale projection eagerly (reads would reject it by
        // version anyway; this just frees the buffers sooner).
        *self.projection.get_mut().expect("projection lock") = None;
        Ok(())
    }

    /// Applies a batch of observations as an *append*: the version bumps
    /// once per accepted observation (exactly as repeated
    /// [`IntegratedTable::insert_observation`] calls would), but instead of
    /// dropping warm state the cached columnar projection grows in place —
    /// buffers extend, dictionaries widen, built sort permutations absorb
    /// the delta by sorted merge. The returned [`AppendDelta`] tells
    /// downstream caches (profile snapshots, selection masks) what changed.
    ///
    /// Every load and append goes through here. The batch is validated in
    /// full (see [`IntegratedTable::validate_batch`]) before anything is
    /// applied: on error the table is unchanged. An empty batch changes
    /// nothing, the projection included. Only when an outside
    /// reference holds the projection across the append is it dropped
    /// instead of grown; the next read rebuilds it.
    pub fn append_batch(
        &mut self,
        batch: Vec<(u32, Vec<Value>)>,
    ) -> Result<AppendDelta, TableError> {
        self.validate_batch(&batch)?;
        let version_before = self.version;
        let rows_before = self.entities.len();
        let mut touched: Vec<u32> = Vec::new();
        self.version += batch.len() as u64;
        for (source_id, values) in batch {
            let row = self.observe(source_id, values);
            if row < rows_before {
                touched.push(row as u32);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let mut perm_merges = 0u64;
        let guard = self.projection.get_mut().expect("projection lock");
        let grown = match guard.as_mut() {
            // An empty batch leaves the projection current as it is.
            _ if self.version == version_before => true,
            Some(arc) if arc.version() == version_before => {
                // During an append the table is held exclusively, so the
                // cache's Arc is normally the only one left; a surviving
                // outside reference forces a rebuild-on-next-read.
                match Arc::get_mut(arc) {
                    Some(proj) => {
                        perm_merges = proj.extend_for_append(
                            &self.schema,
                            &self.entities,
                            &touched,
                            self.version,
                        ) as u64;
                        true
                    }
                    None => false,
                }
            }
            Some(_) => false,
            // Nothing cached: nothing to grow, nothing stale to drop.
            None => true,
        };
        if !grown {
            *guard = None;
        }
        Ok(AppendDelta {
            version_before,
            version_after: self.version,
            rows_before,
            rows_after: self.entities.len(),
            touched,
            perm_merges,
            incremental: grown,
        })
    }

    /// The entity at row index `row` (table order).
    pub fn entity_at(&self, row: usize) -> &Entity {
        &self.entities[row]
    }

    /// Number of unique entities (`c = |K|`).
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// True when the table has no entities.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Total observations across all sources (`n = |S|`).
    pub fn total_observations(&self) -> u64 {
        self.entities.iter().map(Entity::multiplicity).sum()
    }

    /// Iterates over the unique entities.
    pub fn entities(&self) -> impl Iterator<Item = &Entity> {
        self.entities.iter()
    }

    /// Looks up an entity by its key value.
    pub fn entity(&self, key: &Value) -> Option<&Entity> {
        self.index
            .get(&key.entity_key())
            .map(|&i| &self.entities[i])
    }

    /// Resolves and validates the aggregate attribute column.
    fn checked_attr(&self, attr_column: Option<&str>) -> Result<Option<usize>, TableError> {
        match attr_column {
            Some(name) => {
                let idx = self
                    .schema
                    .index_of(name)
                    .ok_or_else(|| TableError::UnknownColumn(name.to_string()))?;
                match self.schema.column(idx).ty {
                    ColumnType::Int | ColumnType::Float => Ok(Some(idx)),
                    ColumnType::Str => Err(TableError::NonNumericColumn(name.to_string())),
                }
            }
            None => Ok(None), // COUNT(*): values are irrelevant
        }
    }

    /// The columnar [`Projection`] of the current table state, building and
    /// caching it when the cache is cold or a mutation made it stale.
    pub fn projection(&self) -> Arc<Projection> {
        let mut guard = self.projection.lock().expect("projection lock");
        if let Some(p) = guard.as_ref() {
            if p.version() == self.version {
                self.projection_reuses.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(p);
            }
        }
        let _span = uu_core::obs::span(uu_core::obs::Stage::ProjectionBuild);
        let p = Arc::new(Projection::build(
            &self.schema,
            &self.entities,
            self.version,
        ));
        self.projection_builds.fetch_add(1, Ordering::Relaxed);
        *guard = Some(Arc::clone(&p));
        p
    }

    /// `(builds, reuses)` of the projection cache since construction.
    pub fn projection_metrics(&self) -> (u64, u64) {
        (
            self.projection_builds.load(Ordering::Relaxed),
            self.projection_reuses.load(Ordering::Relaxed),
        )
    }

    /// Heap bytes held by the materialized projection, 0 when none is
    /// cached for the current version.
    pub fn projection_bytes(&self) -> usize {
        self.projection
            .lock()
            .expect("projection lock")
            .as_ref()
            .filter(|p| p.version() == self.version)
            .map_or(0, |p| p.approx_bytes())
    }

    /// Pre-builds the columnar projection and, when an aggregate column is
    /// given, its sort permutation, so a later cold query finds both ready.
    pub fn warm_projection(&self, attr_column: Option<&str>) -> Result<(), TableError> {
        let attr_idx = self.checked_attr(attr_column)?;
        if self.entities.is_empty() {
            return Ok(());
        }
        let proj = self.projection();
        if let Some(idx) = attr_idx {
            let _ = proj.sort_perm(idx);
        }
        Ok(())
    }

    /// Builds the estimator input for `AGG(attr_column) WHERE predicate`:
    /// entities passing the predicate, with the attribute as the value and
    /// full lineage. Entities whose attribute is NULL are skipped (SQL
    /// aggregate semantics).
    ///
    /// The one-universe case of [`IntegratedTable::universes`]; results are
    /// bit-for-bit those of the per-record reference path
    /// [`IntegratedTable::sample_view_rows`].
    pub fn sample_view(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
    ) -> Result<SampleView, TableError> {
        Ok(self.sample_view_with_sorted(attr_column, predicate)?.0)
    }

    /// [`IntegratedTable::sample_view`] plus the selection's value-sort
    /// permutation (indices into the view's items, ascending, stable),
    /// derived from the projection's memoized full-column sort — the input
    /// to [`uu_core::profile::ProfileSnapshot::capture_presorted`].
    pub fn sample_view_with_sorted(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
    ) -> Result<(SampleView, Vec<u32>), TableError> {
        let (_, universes) = self.universes(attr_column, predicate, None)?;
        let (_, view, sorted) = universes
            .into_iter()
            .next()
            .expect("an ungrouped selection is one universe");
        Ok((view, sorted))
    }

    /// The estimation universes of `AGG(attr_column) WHERE predicate
    /// [GROUP BY group_column]` over the columnar projection, plus the
    /// membership bitmap they were drawn from.
    ///
    /// The bitmap is the predicate's truth ANDed with the aggregate
    /// column's validity: bit `i` set ⇔ entity `i` contributes an item, in
    /// table order — exactly the membership a cached selection remembers to
    /// place delta items without rescanning. It is empty for an empty table,
    /// and for a group column the projection cannot key exactly (an INT
    /// beyond 2^53 widened into a FLOAT column), which groups through
    /// [`IntegratedTable::grouped_sample_views_rows`] instead.
    ///
    /// Each [`Universe`] carries its group value, its view, and the view's
    /// value-sort permutation, scattered from the projection's memoized
    /// column sort. Universes come sorted by the group value's entity
    /// representation; entities whose group value is NULL form their own
    /// group (SQL groups NULLs together). An ungrouped query is the
    /// one-group case: a single `Value::Null` universe, present even when
    /// the selection or the table is empty.
    ///
    /// Errors name an unknown group column first, then a bad aggregate
    /// column, then the predicate (which an empty table never evaluates).
    pub fn universes(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
        group_column: Option<&str>,
    ) -> Result<(Vec<u64>, Vec<Universe>), TableError> {
        let group_idx = group_column
            .map(|name| {
                self.schema
                    .index_of(name)
                    .ok_or_else(|| TableError::UnknownColumn(name.to_string()))
            })
            .transpose()?;
        let attr_idx = self.checked_attr(attr_column)?;
        // The ungrouped case starts with its one universe, so an empty
        // selection still yields it.
        let mut reps: Vec<Value> = Vec::new();
        let mut buckets: Vec<Vec<ObservedItem>> = Vec::new();
        if group_idx.is_none() {
            reps.push(Value::Null);
            buckets.push(Vec::new());
        }
        // An empty table evaluates the predicate on no record, so even an
        // unknown predicate column is not an error there — skip compilation
        // to match.
        if self.entities.is_empty() {
            let universes = reps
                .into_iter()
                .map(|value| {
                    (
                        value,
                        SampleView::from_observed_items(Vec::new()),
                        Vec::new(),
                    )
                })
                .collect();
            return Ok((Vec::new(), universes));
        }
        let proj = self.projection();
        if let Some(g) = group_idx.filter(|&g| proj.lossy_ints(g)) {
            // The group column holds an INT beyond 2^53: entity-key grouping
            // keys on the exact decimal string, which the widened floats
            // cannot reproduce — group via the row path and argsort each
            // group's items (the same stable sort `capture` performs).
            let group_column = self.schema.column(g).name.as_str();
            let groups = self.grouped_sample_views_rows(attr_column, predicate, group_column)?;
            let universes = groups
                .into_iter()
                .map(|(value, view)| {
                    let sorted = argsort_items(&view);
                    (value, view, sorted)
                })
                .collect();
            return Ok((Vec::new(), universes));
        }
        let selected = {
            let _span = uu_core::obs::span(uu_core::obs::Stage::SelectionKernel);
            let mut selected = proj.selection_mask(&self.schema, predicate)?;
            if let Some(idx) = attr_idx {
                // NULL attributes are excluded from AGG.
                columnar::and_in_place(&mut selected, proj.valid_bits(idx));
            }
            selected
        };
        // One pass over the selected rows assigns groups; each row remembers
        // its group and its item index within it, so the memoized column
        // sort can be scattered into per-group permutations in a second
        // single pass.
        let rows = self.entities.len();
        let mut row_group = vec![u32::MAX; rows];
        let mut row_slot = vec![0u32; rows];
        let mut by_key: HashMap<GroupKey, u32> = HashMap::new();
        columnar::for_each_set(&selected, |row| {
            let g = match group_idx {
                None => 0,
                Some(col) => *by_key.entry(proj.group_key(col, row)).or_insert_with(|| {
                    reps.push(self.entities[row].record.value(col).clone());
                    buckets.push(Vec::new());
                    (reps.len() - 1) as u32
                }),
            };
            let bucket = &mut buckets[g as usize];
            row_group[row] = g;
            row_slot[row] = bucket.len() as u32;
            let value = attr_idx.map_or(0.0, |c| proj.float_at(c, row));
            bucket.push(ObservedItem {
                value,
                multiplicity: proj.mults()[row],
                source_counts: self.entities[row].source_counts.clone(),
            });
        });
        let sorted: Vec<Vec<u32>> = {
            let _span = uu_core::obs::span(uu_core::obs::Stage::PresortedFilter);
            match attr_idx {
                // No aggregate column: every value ties, stable order is
                // item order.
                None => buckets
                    .iter()
                    .map(|b| (0..b.len() as u32).collect())
                    .collect(),
                Some(c) => {
                    let mut sorted: Vec<Vec<u32>> = buckets
                        .iter()
                        .map(|b| Vec::with_capacity(b.len()))
                        .collect();
                    for &r in proj.sort_perm(c) {
                        let row = r as usize;
                        if row_group[row] != u32::MAX {
                            sorted[row_group[row] as usize].push(row_slot[row]);
                        }
                    }
                    sorted
                }
            }
        };
        let mut universes: Vec<Universe> = reps
            .into_iter()
            .zip(buckets.into_iter().map(SampleView::from_observed_items))
            .zip(sorted)
            .map(|((value, view), idx)| (value, view, idx))
            .collect();
        universes.sort_by_key(|(value, _, _)| value.entity_key());
        Ok((selected, universes))
    }

    /// Per-record reference implementation of [`IntegratedTable::sample_view`]
    /// (the pre-columnar code path, kept for parity tests).
    pub fn sample_view_rows(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
    ) -> Result<SampleView, TableError> {
        let attr_idx = self.checked_attr(attr_column)?;
        let mut items = Vec::new();
        for entity in &self.entities {
            if !predicate.eval(&self.schema, &entity.record)? {
                continue;
            }
            let value = match attr_idx {
                Some(idx) => match entity.record.value(idx).as_f64() {
                    Some(v) => v,
                    None => continue, // NULL attribute: excluded from AGG
                },
                None => 0.0,
            };
            items.push(ObservedItem {
                value,
                multiplicity: entity.multiplicity(),
                source_counts: entity.source_counts.clone(),
            });
        }
        Ok(SampleView::from_observed_items(items))
    }

    /// Like [`IntegratedTable::sample_view`], but partitioned by the distinct
    /// values of `group_column`. Returns `(group value, view)` pairs sorted
    /// by the group key's entity representation.
    ///
    /// Entities whose group value is NULL form their own group (SQL groups
    /// NULLs together).
    pub fn grouped_sample_views(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
        group_column: &str,
    ) -> Result<Vec<(Value, SampleView)>, TableError> {
        Ok(self
            .grouped_sample_views_with_sorted(attr_column, predicate, group_column)?
            .into_iter()
            .map(|(value, view, _)| (value, view))
            .collect())
    }

    /// [`IntegratedTable::grouped_sample_views`] plus each group's
    /// value-sort permutation (see
    /// [`IntegratedTable::sample_view_with_sorted`]).
    pub fn grouped_sample_views_with_sorted(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
        group_column: &str,
    ) -> Result<Vec<Universe>, TableError> {
        Ok(self
            .universes(attr_column, predicate, Some(group_column))?
            .1)
    }

    /// Per-record reference implementation of
    /// [`IntegratedTable::grouped_sample_views`] (kept for parity tests and
    /// as the exact-grouping fallback).
    pub fn grouped_sample_views_rows(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
        group_column: &str,
    ) -> Result<Vec<(Value, SampleView)>, TableError> {
        let group_idx = self
            .schema
            .index_of(group_column)
            .ok_or_else(|| TableError::UnknownColumn(group_column.to_string()))?;
        let attr_idx = self.checked_attr(attr_column)?;
        // Group key (canonical string) → (representative value, items).
        let mut groups: HashMap<String, (Value, Vec<ObservedItem>)> = HashMap::new();
        for entity in &self.entities {
            if !predicate.eval(&self.schema, &entity.record)? {
                continue;
            }
            let value = match attr_idx {
                Some(idx) => match entity.record.value(idx).as_f64() {
                    Some(v) => v,
                    None => continue,
                },
                None => 0.0,
            };
            let group_value = entity.record.value(group_idx);
            let entry = groups
                .entry(group_value.entity_key())
                .or_insert_with(|| (group_value.clone(), Vec::new()));
            entry.1.push(ObservedItem {
                value,
                multiplicity: entity.multiplicity(),
                source_counts: entity.source_counts.clone(),
            });
        }
        let mut out: Vec<(Value, SampleView)> = groups
            .into_iter()
            .map(|(_, (value, items))| (value, SampleView::from_observed_items(items)))
            .collect();
        out.sort_by_key(|(value, _)| value.entity_key());
        Ok(out)
    }
}

/// Stable ascending argsort of a view's items by value — the permutation
/// `items_sorted_by_value` realises.
fn argsort_items(view: &SampleView) -> Vec<u32> {
    let items = view.items();
    let mut idx: Vec<u32> = (0..items.len() as u32).collect();
    idx.sort_by(|&a, &b| items[a as usize].value.total_cmp(&items[b as usize].value));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;

    fn tech_table() -> IntegratedTable {
        let schema = Schema::new([
            ("company", ColumnType::Str),
            ("employees", ColumnType::Float),
            ("state", ColumnType::Str),
        ]);
        let mut t = IntegratedTable::new("us_tech_companies", schema, "company").unwrap();
        let rows = [
            (0u32, "A", 1000.0, "CA"),
            (0, "B", 2000.0, "CA"),
            (0, "D", 10_000.0, "WA"),
            (1, "B", 2000.0, "CA"),
            (1, "D", 10_000.0, "WA"),
            (2, "D", 10_000.0, "WA"),
            (3, "D", 10_000.0, "WA"),
        ];
        for (src, name, emp, state) in rows {
            t.insert_observation(
                src,
                vec![Value::from(name), Value::from(emp), Value::from(state)],
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn version_counts_accepted_observations_only() {
        let schema = Schema::new([("k", ColumnType::Str), ("x", ColumnType::Float)]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        assert_eq!(t.version(), 0);
        t.insert_observation(0, vec![Value::from("a"), Value::from(1.0)])
            .unwrap();
        t.insert_observation(1, vec![Value::from("a"), Value::from(1.0)])
            .unwrap();
        assert_eq!(t.version(), 2);
        // A rejected observation must not bump the version.
        let _ = t.insert_observation(0, vec![Value::Null, Value::from(1.0)]);
        assert_eq!(t.version(), 2);
    }

    #[test]
    fn deduplicates_entities_and_tracks_lineage() {
        let t = tech_table();
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_observations(), 7);
        let d = t.entity(&Value::from("D")).unwrap();
        assert_eq!(d.multiplicity(), 4);
        assert_eq!(d.source_counts, vec![(0, 1), (1, 1), (2, 1), (3, 1)]);
    }

    #[test]
    fn first_record_wins_on_conflict() {
        let mut t = tech_table();
        t.insert_observation(
            5,
            vec![Value::from("A"), Value::from(9_999.0), Value::from("NY")],
        )
        .unwrap();
        let a = t.entity(&Value::from("A")).unwrap();
        assert_eq!(a.record.value(1).as_f64(), Some(1000.0));
        assert_eq!(a.multiplicity(), 2);
    }

    #[test]
    fn sample_view_matches_toy_example() {
        let t = tech_table();
        let v = t.sample_view(Some("employees"), &Predicate::True).unwrap();
        assert_eq!(v.n(), 7);
        assert_eq!(v.c(), 3);
        assert_eq!(v.observed_sum(), 13_000.0);
        assert_eq!(v.source_sizes(), &[3, 2, 1, 1]);
    }

    #[test]
    fn sample_view_with_predicate() {
        let t = tech_table();
        let pred = Predicate::cmp("state", CmpOp::Eq, Value::from("CA"));
        let v = t.sample_view(Some("employees"), &pred).unwrap();
        assert_eq!(v.c(), 2);
        assert_eq!(v.observed_sum(), 3000.0);
    }

    #[test]
    fn sample_view_errors() {
        let t = tech_table();
        assert!(matches!(
            t.sample_view(Some("missing"), &Predicate::True),
            Err(TableError::UnknownColumn(_))
        ));
        assert!(matches!(
            t.sample_view(Some("company"), &Predicate::True),
            Err(TableError::NonNumericColumn(_))
        ));
    }

    #[test]
    fn count_star_view_needs_no_column() {
        let t = tech_table();
        let v = t.sample_view(None, &Predicate::True).unwrap();
        assert_eq!(v.c(), 3);
        assert_eq!(v.n(), 7);
    }

    #[test]
    fn null_attributes_are_skipped() {
        let schema = Schema::new([("k", ColumnType::Str), ("x", ColumnType::Float)]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        t.insert_observation(0, vec![Value::from("a"), Value::from(1.0)])
            .unwrap();
        t.insert_observation(0, vec![Value::from("b"), Value::Null])
            .unwrap();
        let v = t.sample_view(Some("x"), &Predicate::True).unwrap();
        assert_eq!(v.c(), 1);
        // COUNT(*) still sees both entities.
        let all = t.sample_view(None, &Predicate::True).unwrap();
        assert_eq!(all.c(), 2);
    }

    #[test]
    fn null_keys_are_rejected() {
        let schema = Schema::new([("k", ColumnType::Str), ("x", ColumnType::Float)]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        let err = t
            .insert_observation(0, vec![Value::Null, Value::from(1.0)])
            .unwrap_err();
        assert_eq!(err, TableError::NullKey);
    }

    #[test]
    fn unknown_key_column_is_rejected() {
        let schema = Schema::new([("k", ColumnType::Str)]);
        assert!(matches!(
            IntegratedTable::new("t", schema, "nope"),
            Err(TableError::UnknownKeyColumn(_))
        ));
    }

    #[test]
    fn grouped_views_partition_by_column() {
        let t = tech_table();
        let groups = t
            .grouped_sample_views(Some("employees"), &Predicate::True, "state")
            .unwrap();
        assert_eq!(groups.len(), 2);
        // Sorted by key: CA before WA.
        assert_eq!(groups[0].0, Value::from("CA"));
        assert_eq!(groups[0].1.c(), 2);
        assert_eq!(groups[0].1.observed_sum(), 3000.0);
        assert_eq!(groups[1].0, Value::from("WA"));
        assert_eq!(groups[1].1.n(), 4);
    }

    #[test]
    fn grouped_views_respect_predicate_and_errors() {
        let t = tech_table();
        let pred = Predicate::cmp("employees", CmpOp::Gt, Value::from(1500.0));
        let groups = t
            .grouped_sample_views(Some("employees"), &pred, "state")
            .unwrap();
        let total: u64 = groups.iter().map(|(_, v)| v.c()).sum();
        assert_eq!(total, 2); // B and D survive
        assert!(matches!(
            t.grouped_sample_views(Some("employees"), &Predicate::True, "nope"),
            Err(TableError::UnknownColumn(_))
        ));
    }

    #[test]
    fn null_group_values_form_their_own_group() {
        let schema = Schema::new([
            ("k", ColumnType::Str),
            ("v", ColumnType::Float),
            ("g", ColumnType::Str),
        ]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        t.insert_observation(
            0,
            vec![Value::from("a"), Value::from(1.0), Value::from("x")],
        )
        .unwrap();
        t.insert_observation(0, vec![Value::from("b"), Value::from(2.0), Value::Null])
            .unwrap();
        t.insert_observation(1, vec![Value::from("c"), Value::from(3.0), Value::Null])
            .unwrap();
        let groups = t
            .grouped_sample_views(Some("v"), &Predicate::True, "g")
            .unwrap();
        assert_eq!(groups.len(), 2);
        let null_group = groups.iter().find(|(k, _)| k.is_null()).unwrap();
        assert_eq!(null_group.1.c(), 2);
    }

    #[test]
    fn columnar_path_matches_rows_and_caches_the_projection() {
        let t = tech_table();
        let pred = Predicate::cmp("state", CmpOp::Eq, Value::from("CA")).or(Predicate::cmp(
            "employees",
            CmpOp::Ge,
            Value::from(10_000.0),
        )
        .not());
        let columnar = t.sample_view(Some("employees"), &pred).unwrap();
        let rows = t.sample_view_rows(Some("employees"), &pred).unwrap();
        assert_eq!(columnar, rows);
        // One build on the first read, reuses afterwards.
        let _ = t.sample_view(None, &Predicate::True).unwrap();
        let (builds, reuses) = t.projection_metrics();
        assert_eq!(builds, 1);
        assert!(reuses >= 1);
        assert!(t.projection_bytes() > 0);
    }

    #[test]
    fn mutation_invalidates_the_projection() {
        let mut t = tech_table();
        let _ = t.sample_view(None, &Predicate::True).unwrap();
        assert_eq!(t.projection_metrics().0, 1);
        t.insert_observation(
            4,
            vec![Value::from("E"), Value::from(50.0), Value::from("NY")],
        )
        .unwrap();
        assert_eq!(t.projection_bytes(), 0);
        let v = t.sample_view(Some("employees"), &Predicate::True).unwrap();
        assert_eq!(v.c(), 4);
        assert_eq!(t.projection_metrics().0, 2);
    }

    #[test]
    fn sorted_permutation_matches_items_sorted_by_value() {
        let t = tech_table();
        let pred = Predicate::cmp("employees", CmpOp::Lt, Value::from(10_000.0));
        let (view, sorted) = t.sample_view_with_sorted(Some("employees"), &pred).unwrap();
        let items = view.items();
        let via_perm: Vec<f64> = sorted.iter().map(|&i| items[i as usize].value).collect();
        let reference: Vec<f64> = view
            .items_sorted_by_value()
            .iter()
            .map(|i| i.value)
            .collect();
        assert_eq!(via_perm, reference);
        // COUNT(*): all values tie, the stable order is item order.
        let (view, sorted) = t.sample_view_with_sorted(None, &Predicate::True).unwrap();
        assert_eq!(sorted, (0..view.items().len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn grouped_with_sorted_matches_rows() {
        let t = tech_table();
        let grouped = t
            .grouped_sample_views_with_sorted(Some("employees"), &Predicate::True, "state")
            .unwrap();
        let reference = t
            .grouped_sample_views_rows(Some("employees"), &Predicate::True, "state")
            .unwrap();
        assert_eq!(grouped.len(), reference.len());
        for ((value, view, sorted), (rvalue, rview)) in grouped.iter().zip(&reference) {
            assert_eq!(value, rvalue);
            assert_eq!(view, rview);
            let via_perm: Vec<f64> = sorted
                .iter()
                .map(|&i| view.items()[i as usize].value)
                .collect();
            let want: Vec<f64> = view
                .items_sorted_by_value()
                .iter()
                .map(|i| i.value)
                .collect();
            assert_eq!(via_perm, want);
        }
    }

    #[test]
    fn empty_table_ignores_unknown_predicate_columns() {
        let schema = Schema::new([("k", ColumnType::Str), ("x", ColumnType::Float)]);
        let t = IntegratedTable::new("t", schema, "k").unwrap();
        let pred = Predicate::cmp("missing", CmpOp::Eq, Value::Int(1));
        // The row path never evaluates the predicate on an empty table, so
        // the columnar path must not error either.
        assert!(t.sample_view(Some("x"), &pred).unwrap().is_empty());
        assert!(t.sample_view_rows(Some("x"), &pred).unwrap().is_empty());
    }

    #[test]
    fn lossy_int_group_column_falls_back_to_exact_grouping() {
        let schema = Schema::new([("k", ColumnType::Str), ("g", ColumnType::Float)]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        // Two INTs beyond 2^53 that collide once widened to f64.
        let a = (1i64 << 53) + 1;
        let b = 1i64 << 53;
        t.insert_observation(0, vec![Value::from("a"), Value::Int(a)])
            .unwrap();
        t.insert_observation(0, vec![Value::from("b"), Value::Int(b)])
            .unwrap();
        let grouped = t.grouped_sample_views(None, &Predicate::True, "g").unwrap();
        let reference = t
            .grouped_sample_views_rows(None, &Predicate::True, "g")
            .unwrap();
        assert_eq!(grouped, reference);
        assert_eq!(grouped.len(), 2);
    }

    #[test]
    fn warm_projection_builds_buffers_and_checks_columns() {
        let t = tech_table();
        t.warm_projection(Some("employees")).unwrap();
        assert_eq!(t.projection_metrics().0, 1);
        assert!(t.projection_bytes() > 0);
        // A warmed table serves reads without another build.
        let _ = t.sample_view(Some("employees"), &Predicate::True).unwrap();
        let (builds, reuses) = t.projection_metrics();
        assert_eq!((builds, reuses), (1, 1));
        assert!(matches!(
            t.warm_projection(Some("missing")),
            Err(TableError::UnknownColumn(_))
        ));
        assert!(matches!(
            t.warm_projection(Some("company")),
            Err(TableError::NonNumericColumn(_))
        ));
    }

    #[test]
    fn append_batch_matches_repeated_inserts_without_a_rebuild() {
        let mut incremental = tech_table();
        let mut oracle = incremental.clone();
        // Warm the projection and its sort permutation on both tables.
        incremental.warm_projection(Some("employees")).unwrap();
        oracle.warm_projection(Some("employees")).unwrap();
        let batch: Vec<(u32, Vec<Value>)> = vec![
            // New entity, duplicate of "D" (touched row), new entity.
            (
                4,
                vec![Value::from("E"), Value::from(50.0), Value::from("NY")],
            ),
            (
                4,
                vec![Value::from("D"), Value::from(1.0), Value::from("??")],
            ),
            (5, vec![Value::from("F"), Value::Null, Value::from("NY")]),
        ];
        let delta = incremental.append_batch(batch.clone()).unwrap();
        assert_eq!(delta.version_before, 7);
        assert_eq!(delta.version_after, 10);
        assert_eq!((delta.rows_before, delta.rows_after), (3, 5));
        assert_eq!(delta.touched, vec![2]); // "D" is row 2
        assert!(delta.incremental);
        assert_eq!(delta.perm_merges, 1);
        // The projection was grown, not rebuilt.
        assert_eq!(incremental.projection_metrics().0, 1);
        assert!(incremental.projection_bytes() > 0);
        for (src, values) in batch {
            oracle.insert_observation(src, values).unwrap();
        }
        assert_eq!(incremental.version(), oracle.version());
        let inc = incremental
            .sample_view_with_sorted(Some("employees"), &Predicate::True)
            .unwrap();
        let want = oracle
            .sample_view_with_sorted(Some("employees"), &Predicate::True)
            .unwrap();
        assert_eq!(inc, want);
        // First record still wins: D's original record survived the append.
        let d = incremental.entity(&Value::from("D")).unwrap();
        assert_eq!(d.record.value(1).as_f64(), Some(10_000.0));
        assert_eq!(d.multiplicity(), 5);
    }

    #[test]
    fn append_batch_validates_before_applying_anything() {
        let mut t = tech_table();
        let before = t.version();
        let batch = vec![
            (
                0,
                vec![Value::from("G"), Value::from(1.0), Value::from("TX")],
            ),
            (0, vec![Value::Null, Value::from(2.0), Value::from("TX")]),
        ];
        // The staging half alone reports the error the append returns.
        assert_eq!(t.validate_batch(&batch), Err(TableError::NullKey));
        assert_eq!(t.validate_batch(&batch[..1]), Ok(()));
        let err = t.append_batch(batch).unwrap_err();
        assert_eq!(err, TableError::NullKey);
        assert_eq!(t.version(), before);
        assert_eq!(t.len(), 3);
        assert!(t.entity(&Value::from("G")).is_none());
    }

    #[test]
    fn append_batch_with_a_pinned_projection_drops_warm_state() {
        let mut t = tech_table();
        t.warm_projection(Some("employees")).unwrap();
        // An outside reference held across the append keeps the projection
        // from growing in place: the append drops it instead.
        let _pin = t.projection();
        let delta = t
            .append_batch(vec![(
                4,
                vec![Value::from("E"), Value::from(50.0), Value::from("NY")],
            )])
            .unwrap();
        assert!(!delta.incremental);
        assert_eq!(delta.perm_merges, 0);
        assert_eq!(t.projection_bytes(), 0);
        // Parity holds regardless: the next read rebuilds from scratch.
        let v = t.sample_view(Some("employees"), &Predicate::True).unwrap();
        assert_eq!(v.c(), 4);
        assert_eq!(t.projection_metrics().0, 2);
    }

    #[test]
    fn universes_mask_mirrors_sample_view_membership() {
        let t = tech_table();
        let pred = Predicate::cmp("state", CmpOp::Eq, Value::from("CA"));
        let (mask, universes) = t.universes(Some("employees"), &pred, None).unwrap();
        // Rows 0 ("A") and 1 ("B") are CA with non-NULL employees.
        assert_eq!(mask, vec![0b011]);
        assert_eq!(universes.len(), 1);
        assert!(universes[0].0.is_null());
        assert_eq!(universes[0].1.c(), 2);
        // Grouping draws from the same membership.
        let (grouped_mask, groups) = t
            .universes(Some("employees"), &pred, Some("state"))
            .unwrap();
        assert_eq!(grouped_mask, mask);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].0, Value::from("CA"));
    }

    #[test]
    fn an_ungrouped_selection_is_always_one_universe() {
        let t = tech_table();
        let none = Predicate::cmp("employees", CmpOp::Gt, Value::from(1e9));
        let (_, universes) = t.universes(Some("employees"), &none, None).unwrap();
        assert_eq!(universes.len(), 1);
        assert!(universes[0].0.is_null() && universes[0].1.is_empty());
        let empty = IntegratedTable::new("e", Schema::new([("k", ColumnType::Str)]), "k").unwrap();
        let (mask, universes) = empty.universes(None, &Predicate::True, None).unwrap();
        assert!(mask.is_empty());
        assert_eq!(universes.len(), 1);
        assert!(universes[0].0.is_null() && universes[0].1.is_empty());
        let (_, groups) = empty.universes(None, &Predicate::True, Some("k")).unwrap();
        assert!(groups.is_empty());
    }

    #[test]
    fn bad_records_are_rejected() {
        let mut t = tech_table();
        let err = t.insert_observation(0, vec![Value::from("X")]).unwrap_err();
        assert!(matches!(
            err,
            TableError::Record(RecordError::ArityMismatch { .. })
        ));
    }
}
