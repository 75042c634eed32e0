//! Hash indexes over relation rows, built once per database.
//!
//! An [`Index`] buckets a relation's rows by a 64-bit hash of the values at
//! a fixed set of columns, with every bucket's row ids stored contiguously
//! (ascending). A probe returns the bucket of a key's hash; callers re-check
//! each row's values, so a collision costs a wasted row, never a wrong
//! answer. Each database hashes under its own random seed, so values
//! crafted to collide cannot be chosen in advance; nothing a query returns
//! depends on the seed.
//!
//! A database keeps one index per (relation, column set), built on first
//! use ([`crate::Database::index`]) and shared by every evaluation over
//! it, on any thread. Inserting into a relation drops that relation's
//! indexes. An index's table is sized by its distinct keys, not its rows:
//! a resident index over a column with few values stays small.

use crate::relation::Relation;
use crate::value::Value;
use shapdb_metrics::counters::QUERY_INDEXES_BUILT;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

const MUL: u64 = 0x517c_c1b7_2722_0a95;

fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(MUL)
}

/// Mixes `bytes` in eight-byte words, the last one zero-padded.
fn mix_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(h, |h, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        mix(h, u64::from_le_bytes(word))
    })
}

fn mix_value(h: u64, v: &Value) -> u64 {
    match v {
        Value::Int(i) => mix(h, *i as u64),
        // The length with the top bit set tags the string variant.
        Value::Str(s) => mix_bytes(mix(h, s.len() as u64 | 1 << 63), s.as_bytes()),
    }
}

/// The hash of a key under `seed`: `values` in ascending column order.
/// Never 0, which marks an empty slot.
fn key_hash<'v>(seed: u64, values: impl IntoIterator<Item = &'v Value>) -> u64 {
    let mut h = values.into_iter().fold(seed, mix_value);
    // Avalanche, so the table can index by the low bits.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h.max(1)
}

/// The slot of `hash` in a linear-probing table of key hashes
/// (power-of-two length, 0 = empty), or of the empty slot that ends its
/// probe.
fn find(hashes: &[u64], hash: u64) -> usize {
    let mask = hashes.len() - 1;
    let mut i = hash as usize & mask;
    while hashes[i] != hash && hashes[i] != 0 {
        i = (i + 1) & mask;
    }
    i
}

/// Slots for `keys` keys at load ≤ 2/3, always with one empty slot to end
/// a probe.
fn capacity(keys: usize) -> usize {
    (keys + keys / 2 + 1).next_power_of_two()
}

/// A relation's rows bucketed by the hash of the values at some columns.
pub struct Index {
    seed: u64,
    /// Linear-probing table of key hashes sized by [`Index::distinct`].
    hashes: Vec<u64>,
    /// Slot `i`'s bucket is `rows[starts[i]..starts[i + 1]]`, empty for an
    /// empty slot.
    starts: Vec<u32>,
    /// Row ids grouped by bucket, ascending within each bucket.
    rows: Vec<u32>,
    /// Distinct key hashes: the planner's distinct-value count.
    distinct: usize,
}

impl Index {
    /// Buckets every row of `rel` by its values at the columns of `cols`
    /// (a bitmask of positions).
    ///
    /// The rows are counted into a table sized by the row count, whose
    /// occupied slots then move to one sized by the distinct keys; the
    /// first table and each row's slot in it are freed on return.
    fn build(rel: &Relation, cols: u64, seed: u64) -> Index {
        let n = rel.len();
        let positions: Vec<usize> = (0..64).filter(|&i| cols >> i & 1 == 1).collect();
        let mut counted = vec![0u64; capacity(n)];
        let mut counts = vec![0u32; counted.len()];
        let mut slot_of: Vec<u32> = Vec::with_capacity(n);
        let mut distinct = 0;
        for fact in rel.facts() {
            let h = key_hash(seed, positions.iter().map(|&i| &fact.values[i]));
            let i = find(&counted, h);
            if counted[i] == 0 {
                counted[i] = h;
                distinct += 1;
            }
            counts[i] += 1;
            slot_of.push(i as u32);
        }
        // Each bucket's length goes to its slot in the final table, and
        // `counts` then maps a counted slot to that slot.
        let mut hashes = vec![0u64; capacity(distinct)];
        let mut starts = vec![0u32; hashes.len() + 1];
        for (&h, count) in counted.iter().zip(&mut counts).filter(|(&h, _)| h != 0) {
            let i = find(&hashes, h);
            hashes[i] = h;
            starts[i] = *count;
            *count = i as u32;
        }
        // Bucket ends first; filling backwards leaves each slot's start
        // there and each bucket ascending.
        let mut end = 0;
        for s in &mut starts {
            end += *s;
            *s = end;
        }
        let mut rows = vec![0; n];
        for (row, &i) in slot_of.iter().enumerate().rev() {
            let s = &mut starts[counts[i as usize] as usize];
            *s -= 1;
            rows[*s as usize] = row as u32;
        }
        Index {
            seed,
            hashes,
            starts,
            rows,
            distinct,
        }
    }

    /// The slot of `values`' key (an empty one if no row has its hash).
    fn slot<'v>(&self, values: impl IntoIterator<Item = &'v Value>) -> usize {
        find(&self.hashes, key_hash(self.seed, values))
    }

    /// Row ids whose key hashes like `values` (in ascending column order):
    /// a superset of the rows holding exactly those values, ascending.
    pub fn probe<'v>(&self, values: impl IntoIterator<Item = &'v Value>) -> &[u32] {
        let i = self.slot(values);
        &self.rows[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// How many rows [`Index::probe`] returns for `values`.
    pub fn bucket_len<'v>(&self, values: impl IntoIterator<Item = &'v Value>) -> usize {
        let i = self.slot(values);
        (self.starts[i + 1] - self.starts[i]) as usize
    }

    /// Number of distinct keys (up to hash collisions).
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// Slots in the table: at most `3 · distinct + 1`, whatever the row
    /// count.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.hashes.len()
    }

    /// Bytes the index holds resident: its table and its row ids.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.hashes.capacity() * size_of::<u64>()
            + (self.starts.capacity() + self.rows.capacity()) * size_of::<u32>()
    }
}

/// One index, built by the first thread that asks for it.
type Entry = Arc<OnceLock<Arc<Index>>>;

/// A database's indexes: one per (relation, column set), under one seed.
pub(crate) struct Indexes {
    seed: u64,
    built: Mutex<HashMap<(usize, u64), Entry>>,
}

impl Default for Indexes {
    fn default() -> Self {
        Indexes {
            seed: RandomState::new().hash_one(0u8),
            built: Mutex::new(HashMap::new()),
        }
    }
}

impl Indexes {
    /// The index on `rel` (relation number `id`) keyed by the columns of
    /// `cols`, built on first use. Threads asking for an index under
    /// construction wait for it, so each is built once.
    pub(crate) fn get(&self, rel: &Relation, id: usize, cols: u64) -> Arc<Index> {
        let entry = Arc::clone(self.lock().entry((id, cols)).or_default());
        let index = entry.get_or_init(|| {
            QUERY_INDEXES_BUILT.incr();
            Arc::new(Index::build(rel, cols, self.seed))
        });
        Arc::clone(index)
    }

    /// Drops every index on relation number `id`.
    pub(crate) fn drop_relation(&mut self, id: usize) {
        self.built
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|&(rel, _), _| rel != id);
    }

    /// The column sets of the built indexes on relation number `id`,
    /// ascending.
    pub(crate) fn columns(&self, id: usize) -> Vec<u64> {
        let mut cols: Vec<u64> = self
            .built_indexes()
            .into_iter()
            .filter(|&((rel, _), _)| rel == id)
            .map(|((_, cols), _)| cols)
            .collect();
        cols.sort_unstable();
        cols
    }

    /// Bytes every built index holds resident.
    pub(crate) fn bytes(&self) -> usize {
        self.built_indexes()
            .iter()
            .map(|(_, index)| index.bytes())
            .sum()
    }

    /// Every built index, by (relation number, columns).
    fn built_indexes(&self) -> Vec<((usize, u64), Arc<Index>)> {
        self.lock()
            .iter()
            .filter_map(|(&key, entry)| Some((key, Arc::clone(entry.get()?))))
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<(usize, u64), Entry>> {
        // A panic while the map is locked leaves it consistent: entries
        // are only inserted or read under the lock.
        self.built.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;

    #[test]
    fn buckets_hold_every_matching_row_in_ascending_order() {
        let mut db = Database::new();
        db.create_relation("R", &["a", "b"]);
        for i in 0..50 {
            db.insert_endo(
                "R",
                vec![Value::int(i % 7), Value::str(&format!("s{}", i % 3))],
            );
        }
        let first = db.index(0, 0b01);
        let both = db.index(0, 0b11);
        assert!(
            Arc::ptr_eq(&db.index(0, 0b11), &both),
            "built once per column set"
        );
        assert_eq!(db.indexed_columns(0), vec![0b01, 0b11]);
        assert_eq!(first.distinct(), 7);
        assert_eq!(both.distinct(), 21);
        let facts = db.relations()[0].facts();
        for a in 0..8 {
            let key = [Value::int(a), Value::str("s1")];
            let rows = both.probe(&key);
            assert_eq!(both.bucket_len(&key), rows.len());
            let matching: Vec<u32> = (0..50u32)
                .filter(|&r| *facts[r as usize].values == key)
                .collect();
            let hits: Vec<u32> = rows
                .iter()
                .copied()
                .filter(|&r| *facts[r as usize].values == key)
                .collect();
            assert_eq!(hits, matching);
            assert!(rows.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn int_and_string_keys_differ() {
        let seed = Indexes::default().seed;
        assert_ne!(
            key_hash(seed, &[Value::int(1)]),
            key_hash(seed, &[Value::str("1")])
        );
        assert_ne!(key_hash(seed, &[] as &[Value]), 0);
    }

    #[test]
    fn table_capacity_is_bounded_by_distinct_keys_not_rows() {
        let mut db = Database::new();
        db.create_relation("R", &["a", "b"]);
        for i in 0..10_000 {
            db.insert_exo("R", vec![Value::int(i % 4), Value::int(i)]);
        }
        let few = db.index(0, 0b01);
        assert_eq!(few.distinct(), 4);
        assert_eq!(few.capacity(), 8, "4 keys at load ≤ 2/3");
        assert_eq!(few.bucket_len(&[Value::int(3)]), 2_500);
        let many = db.index(0, 0b10);
        assert_eq!(many.distinct(), 10_000);
        assert!(many.capacity() <= 3 * many.distinct() + 1);
        assert_eq!(
            db.index_bytes(),
            few.bytes() + many.bytes(),
            "the resident bytes are the built indexes'"
        );
        assert_eq!(few.bytes(), 8 * 8 + 9 * 4 + 10_000 * 4);
    }

    #[test]
    fn an_index_over_an_empty_relation_finds_nothing() {
        let mut db = Database::new();
        db.create_relation("R", &["a"]);
        let index = db.index(0, 0b1);
        assert_eq!(index.distinct(), 0);
        assert_eq!(index.capacity(), 1);
        assert!(index.probe(&[Value::int(1)]).is_empty());
        assert_eq!(index.bucket_len(&[Value::int(1)]), 0);
    }

    #[test]
    fn insert_drops_only_the_relations_indexes() {
        let mut db = Database::new();
        db.create_relation("R", &["a"]);
        db.create_relation("S", &["a"]);
        db.insert_endo("R", vec![Value::int(1)]);
        db.insert_endo("S", vec![Value::int(1)]);
        let (r, s) = (db.index(0, 1), db.index(1, 1));
        db.insert_endo("R", vec![Value::int(2)]);
        assert!(db.indexed_columns(0).is_empty());
        assert_eq!(db.indexed_columns(1), vec![1]);
        assert!(Arc::ptr_eq(&db.index(1, 1), &s), "S keeps its index");
        let rebuilt = db.index(0, 1);
        assert!(!Arc::ptr_eq(&rebuilt, &r));
        assert_eq!((r.distinct(), rebuilt.distinct()), (1, 2));
        assert_eq!(rebuilt.probe(&[Value::int(2)]), &[1]);
    }

    #[test]
    fn a_clone_starts_with_no_indexes() {
        let mut db = Database::new();
        db.create_relation("R", &["a"]);
        db.insert_endo("R", vec![Value::int(1)]);
        let _ = db.index(0, 1);
        assert!(db.index_bytes() > 0);
        let copy = db.clone();
        assert_eq!(copy.index_bytes(), 0);
        assert!(copy.indexed_columns(0).is_empty());
        assert_eq!(copy.index(0, 1).probe(&[Value::int(1)]), &[0]);
    }

    #[test]
    fn concurrent_callers_build_each_index_once() {
        use shapdb_metrics::Profile;
        let mut db = Database::new();
        db.create_relation("R", &["a", "b"]);
        for i in 0..2_000 {
            db.insert_endo("R", vec![Value::int(i % 13), Value::int(i)]);
        }
        let profile = Arc::new(Profile::new());
        let start = std::sync::Barrier::new(4);
        let got: Vec<Vec<usize>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let _scope = profile.enter();
                        start.wait();
                        [0b01, 0b10, 0b11, 0b01]
                            .iter()
                            .map(|&cols| db.index(0, cols).distinct())
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(got.iter().all(|g| *g == vec![13, 2_000, 2_000, 13]));
        assert_eq!(profile.get(&QUERY_INDEXES_BUILT), 3);
    }
}
