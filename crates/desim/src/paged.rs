//! A sparse table keyed by small integer ids (rank ids), stored in fixed
//! 16-entry pages.
//!
//! A simulated machine materializes ranks lazily (DESIGN.md §15): a million-
//! rank run may touch 256 ranks or every one of them, so a rank table must
//! cost nothing for the ids never touched and little for the ones that are.
//! A plain `FxHashMap<usize, V>` does the first but pays one bucket per id
//! — a cache miss per lookup and rehashes in 2¹⁹-bucket waves on a dense
//! run. [`PagedMap`] keeps one hash entry per *page* of 16 consecutive ids:
//! a dense run hashes 16× fewer keys and neighbours share a page, while a
//! sparse one pays one page per touched id (16 slots — 128 B for an `Rc`).
//! The pages sit back to back in one `Vec`, in the order they were first
//! touched, so a page costs no allocation of its own; the directory from
//! page number to position is an `FxHashMap`, because a dense directory
//! would put O(p) bytes into every sparse run.
//!
//! Iteration is in ascending id order (it sorts the page numbers, not the
//! ids), so deterministic consumers need no sort of their own.

use crate::FxHashMap;

/// Ids per page.
const PAGE: usize = 16;

type Page<V> = [Option<V>; PAGE];

/// A map from `usize` ids to `V`, stored in 16-entry pages found by page
/// number (see the module docs).
pub struct PagedMap<V> {
    /// Page number → index into `pages`.
    dir: FxHashMap<usize, usize>,
    pages: Vec<Page<V>>,
    len: usize,
}

impl<V> Default for PagedMap<V> {
    fn default() -> Self {
        PagedMap {
            dir: FxHashMap::default(),
            pages: Vec::new(),
            len: 0,
        }
    }
}

impl<V> PagedMap<V> {
    /// An empty map; allocates nothing until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value stored under `id`.
    #[inline]
    pub fn get(&self, id: usize) -> Option<&V> {
        let &at = self.dir.get(&(id / PAGE))?;
        self.pages[at][id % PAGE].as_ref()
    }

    /// True when a value is stored under `id`.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        self.get(id).is_some()
    }

    /// Store `v` under `id`, returning the value it replaces.
    pub fn insert(&mut self, id: usize, v: V) -> Option<V> {
        let pages = &mut self.pages;
        let &mut at = self.dir.entry(id / PAGE).or_insert_with(|| {
            pages.push(std::array::from_fn(|_| None));
            pages.len() - 1
        });
        let old = self.pages[at][id % PAGE].replace(v);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Number of ids with a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no id has a value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &V)> {
        let mut order: Vec<(usize, usize)> = self.dir.iter().map(|(&n, &at)| (n, at)).collect();
        order.sort_unstable();
        order.into_iter().flat_map(move |(n, at)| {
            self.pages[at]
                .iter()
                .enumerate()
                .filter_map(move |(i, v)| Some((n * PAGE + i, v.as_ref()?)))
        })
    }

    /// The values, in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_hold_neighbours_and_iterate_ascending() {
        let mut m = PagedMap::new();
        assert!(m.is_empty());
        for id in [40, 3, 17, 0, 15, 16] {
            assert_eq!(m.insert(id, id * 10), None);
        }
        assert_eq!(m.insert(17, 7), Some(170), "replace keeps the length");
        assert_eq!(m.len(), 6);
        assert_eq!(m.pages.len(), 3, "ids 0..16, 16..32 and 32..48");
        assert_eq!(m.get(17), Some(&7));
        assert_eq!(m.get(18), None);
        assert!(!m.contains(1_000_000));
        let ids: Vec<usize> = m.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 3, 15, 16, 17, 40]);
        assert_eq!(m.values().sum::<usize>(), 30 + 150 + 160 + 7 + 400);
    }
}
