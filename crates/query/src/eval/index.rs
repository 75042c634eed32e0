//! Call-scoped hash indexes over relation rows.
//!
//! An [`Index`] buckets a relation's rows by a 64-bit hash of the values at
//! a fixed set of columns, with every bucket's row ids stored contiguously
//! (ascending). A probe returns the bucket of a key's hash; callers re-check
//! each row's values, so a collision costs a wasted row, never a wrong
//! answer. Each call hashes under its own random seed, so values crafted
//! to collide cannot be chosen in advance; nothing a call returns depends
//! on the seed.

use shapdb_data::{Database, Relation, Value};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

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

/// One open-addressing slot: a key hash and its bucket in `Index::rows`.
#[derive(Clone, Copy, Default)]
struct Slot {
    hash: u64,
    start: u32,
    len: u32,
}

/// A relation's rows bucketed by the hash of the values at some columns.
///
/// Counting the buckets is enough for the planner's statistics; only an
/// index a plan probes lays its row ids out ([`Indexes::probed`]).
pub(crate) struct Index {
    /// Linear-probing table, power-of-two capacity, `hash == 0` empty.
    slots: Vec<Slot>,
    /// Each row's slot, until the buckets are laid out.
    slot_of: Vec<u32>,
    /// Row ids grouped by bucket, ascending within each bucket, once laid
    /// out.
    rows: Vec<u32>,
    /// Distinct key hashes: the planner's distinct-value count.
    distinct: usize,
}

impl Index {
    /// Counts every row of `rel` into the bucket of its values at the
    /// columns of `cols` (a bitmask of positions).
    fn count(rel: &Relation, cols: u64, seed: u64) -> Index {
        let n = rel.len();
        let positions: Vec<usize> = (0..64).filter(|&i| cols >> i & 1 == 1).collect();
        // Load ≤ 2/3, and always one empty slot to end a probe.
        let mask = (n + n / 2 + 1).next_power_of_two() - 1;
        let mut slots = vec![Slot::default(); mask + 1];
        let mut slot_of: Vec<u32> = Vec::with_capacity(n);
        let mut distinct = 0;
        for fact in rel.facts() {
            let h = key_hash(seed, positions.iter().map(|&i| &fact.values[i]));
            let mut i = h as usize & mask;
            while slots[i].hash != h {
                if slots[i].hash == 0 {
                    slots[i].hash = h;
                    distinct += 1;
                    break;
                }
                i = (i + 1) & mask;
            }
            slots[i].len += 1;
            slot_of.push(i as u32);
        }
        Index {
            slots,
            slot_of,
            rows: Vec::new(),
            distinct,
        }
    }

    /// Lays the row ids out bucket by bucket (once).
    fn lay_out(&mut self) {
        if self.slot_of.is_empty() {
            return;
        }
        // Bucket ends first; filling backwards leaves each bucket ascending.
        let mut end = 0;
        for s in &mut self.slots {
            end += s.len;
            s.start = end;
        }
        self.rows = vec![0; self.slot_of.len()];
        for (row, &i) in self.slot_of.iter().enumerate().rev() {
            let s = &mut self.slots[i as usize];
            s.start -= 1;
            self.rows[s.start as usize] = row as u32;
        }
        self.slot_of = Vec::new();
    }

    fn slot(&self, hash: u64) -> Option<Slot> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let s = self.slots[i];
            if s.hash == hash {
                return Some(s);
            }
            if s.hash == 0 {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Row ids whose key hashes to `hash` (a superset of the matches).
    pub(crate) fn probe(&self, hash: u64) -> &[u32] {
        debug_assert!(self.slot_of.is_empty(), "probing an index not laid out");
        self.slot(hash).map_or(&[], |s| {
            &self.rows[s.start as usize..(s.start + s.len) as usize]
        })
    }

    /// How many rows [`Index::probe`] returns for `hash`.
    pub(crate) fn bucket_len(&self, hash: u64) -> usize {
        self.slot(hash).map_or(0, |s| s.len as usize)
    }

    /// Number of distinct keys (up to hash collisions).
    pub(crate) fn distinct(&self) -> usize {
        self.distinct
    }
}

/// The indexes one evaluation call builds, shared by all of its plans and
/// dropped with it.
pub(crate) struct Indexes {
    seed: u64,
    ids: HashMap<(usize, u64), usize>,
    list: Vec<Index>,
}

impl Default for Indexes {
    fn default() -> Self {
        Indexes {
            seed: RandomState::new().hash_one(0u8),
            ids: HashMap::new(),
            list: Vec::new(),
        }
    }
}

impl Indexes {
    /// The hash of a probe key: `values` in ascending column order.
    pub(crate) fn hash<'v>(&self, values: impl IntoIterator<Item = &'v Value>) -> u64 {
        key_hash(self.seed, values)
    }

    /// The id of the index on relation `rel` (its position in
    /// `db.relations()`) keyed by the columns of `cols`, counted on first
    /// use: enough for [`Index::distinct`] and [`Index::bucket_len`].
    pub(crate) fn counted(&mut self, db: &Database, rel: usize, cols: u64) -> usize {
        let (list, seed) = (&mut self.list, self.seed);
        *self.ids.entry((rel, cols)).or_insert_with(|| {
            list.push(Index::count(&db.relations()[rel], cols, seed));
            list.len() - 1
        })
    }

    /// [`Indexes::counted`], laid out for [`Index::probe`].
    pub(crate) fn probed(&mut self, db: &Database, rel: usize, cols: u64) -> usize {
        let id = self.counted(db, rel, cols);
        self.list[id].lay_out();
        id
    }

    pub(crate) fn get(&self, id: usize) -> &Index {
        &self.list[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut indexes = Indexes::default();
        let first = indexes.counted(&db, 0, 0b01);
        let both = indexes.probed(&db, 0, 0b11);
        assert_eq!(
            indexes.counted(&db, 0, 0b11),
            both,
            "built once per column set"
        );
        assert_eq!(indexes.get(first).distinct(), 7);
        assert_eq!(indexes.get(both).distinct(), 21);
        let facts = db.relations()[0].facts();
        for a in 0..8 {
            let key = [Value::int(a), Value::str("s1")];
            let rows = indexes.get(both).probe(indexes.hash(&key));
            assert_eq!(indexes.get(both).bucket_len(indexes.hash(&key)), rows.len());
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
        let indexes = Indexes::default();
        assert_ne!(
            indexes.hash(&[Value::int(1)]),
            indexes.hash(&[Value::str("1")])
        );
        assert_ne!(indexes.hash(&[] as &[Value]), 0);
    }
}
