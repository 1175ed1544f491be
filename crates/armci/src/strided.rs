//! Uniformly non-contiguous (strided) datatype descriptors (§III-C2).
//!
//! ARMCI represents multi-dimensional patch transfers compactly: a base
//! offset, the contiguous chunk size `l0` (`count[0]` bytes), and per-level
//! repetition counts and byte strides. [`Strided::chunks`] enumerates the
//! contiguous pieces, which the runtime either ships as a list of
//! non-blocking RDMA operations (zero-copy, Eq. 9) or through the packed
//! typed-datatype path for tall-skinny shapes. Enumeration is an iterator
//! over the descriptor — no chunk list is built unless one has to travel
//! inside a work item ([`Strided::chunk_list`]).

use pami_sim::Side;

/// A uniformly strided transfer descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Strided {
    /// Byte offset of the first chunk.
    pub offset: usize,
    /// Bytes per contiguous chunk (`l0 = count[0]`).
    pub chunk: usize,
    /// Repetition count per stride level (`count[1..]`), innermost first.
    pub counts: Vec<usize>,
    /// Byte stride per level, innermost first. `strides.len() == counts.len()`.
    pub strides: Vec<usize>,
}

impl Strided {
    /// A fully contiguous descriptor.
    pub fn contiguous(offset: usize, len: usize) -> Strided {
        Strided {
            offset,
            chunk: len,
            counts: Vec::new(),
            strides: Vec::new(),
        }
    }

    /// A 2D patch: `rows` rows of `row_bytes`, consecutive rows `ld_bytes`
    /// apart (the leading dimension), starting at `offset`. This is the
    /// common case for patches of block-distributed dense matrices.
    pub fn patch2d(offset: usize, row_bytes: usize, rows: usize, ld_bytes: usize) -> Strided {
        assert!(ld_bytes >= row_bytes, "leading dimension smaller than row");
        Strided {
            offset,
            chunk: row_bytes,
            counts: vec![rows],
            strides: vec![ld_bytes],
        }
    }

    /// Number of stride levels (`s-1` in the paper's notation).
    pub fn levels(&self) -> usize {
        self.counts.len()
    }

    /// Number of contiguous chunks (`m / l0`); zero when any count is zero.
    pub fn nchunks(&self) -> usize {
        self.counts.iter().product()
    }

    /// Total payload bytes (`m`).
    pub fn total_bytes(&self) -> usize {
        self.chunk * self.nchunks()
    }

    /// Collapse levels whose stride equals the extent below them (dense
    /// packing): e.g. a 2D patch whose leading dimension equals the row
    /// length is really one contiguous chunk. ARMCI performs the same
    /// coalescing before building its chunk list.
    pub fn normalized(&self) -> Strided {
        let (dense, chunk) = self.dense_prefix();
        Strided {
            offset: self.offset,
            chunk,
            counts: self.counts[dense..].to_vec(),
            strides: self.strides[dense..].to_vec(),
        }
    }

    /// How many innermost levels are dense (stride equal to the extent below
    /// them), and the contiguous chunk they coalesce into.
    pub(crate) fn dense_prefix(&self) -> (usize, usize) {
        let mut chunk = self.chunk;
        let mut dense = 0;
        while dense < self.counts.len().min(self.strides.len()) && self.strides[dense] == chunk {
            chunk *= self.counts[dense];
            dense += 1;
        }
        (dense, chunk)
    }

    /// Enumerate the `(offset, len)` of every contiguous chunk, in canonical
    /// (innermost-level-fastest) order. Dense levels are coalesced first.
    pub fn chunks(&self) -> Chunks<'_> {
        assert_eq!(
            self.counts.len(),
            self.strides.len(),
            "counts/strides length mismatch"
        );
        let (dense, chunk) = self.dense_prefix();
        let counts = &self.counts[dense..];
        let left = if self.nchunks() == 0 {
            0
        } else {
            counts.iter().product()
        };
        Chunks {
            counts,
            strides: &self.strides[dense..],
            base: self.offset,
            chunk,
            k: 0,
            left,
            i0: 0,
            off: self.offset,
        }
    }

    /// This descriptor as one side of a chunk train of `len`-byte pieces: its
    /// levels after dense coalescing, below them a level splitting each
    /// coalesced chunk into pieces. `None` when `len` does not divide that
    /// chunk or the levels do not fit a [`Side`].
    pub(crate) fn train_side(&self, len: usize) -> Option<Side> {
        let (dense, chunk) = self.dense_prefix();
        if len == 0 || !chunk.is_multiple_of(len) {
            return None;
        }
        let split = (chunk > len).then_some((chunk / len, len));
        let levels = self.counts[dense..].iter().zip(&self.strides[dense..]);
        Side::new(
            self.offset,
            split.into_iter().chain(levels.map(|(&c, &s)| (c, s))),
        )
    }

    /// [`Strided::chunks`] collected, for a chunk list that travels inside a
    /// work item.
    pub fn chunk_list(&self) -> Vec<(usize, usize)> {
        self.chunks().collect()
    }

    /// True when two descriptors describe transfers of the same total size
    /// (the local and remote sides of one strided call; chunk boundaries may
    /// differ — [`Strided::pair_chunks`] re-splits them).
    pub fn compatible(&self, other: &Strided) -> bool {
        self.total_bytes() == other.total_bytes()
    }

    /// Pair up the contiguous pieces of two shape-compatible descriptors,
    /// splitting at common boundaries so each pair has equal length (needed
    /// when dense coalescing merges chunks on one side only). Yields
    /// `((local_off, len), (remote_off, len))` pairs in canonical order.
    ///
    /// # Panics
    /// The iterator panics when one side runs out before the other
    /// (descriptors of different total sizes).
    pub fn pair_chunks<'a>(a: &'a Strided, b: &'a Strided) -> PairChunks<'a> {
        let (mut a, mut b) = (a.chunks(), b.chunks());
        PairChunks {
            cur_a: a.next(),
            cur_b: b.next(),
            a,
            b,
        }
    }
}

/// Iterator over a descriptor's contiguous chunks ([`Strided::chunks`]).
/// The odometer is inline: a running offset and the innermost level's
/// position; a wrap of the innermost level recomputes the offset from the
/// chunk number, so any number of levels costs no per-level state.
#[derive(Debug, Clone)]
pub struct Chunks<'a> {
    /// Counts and strides of the levels left after dense coalescing.
    counts: &'a [usize],
    strides: &'a [usize],
    base: usize,
    chunk: usize,
    /// Chunks yielded so far, and still to come.
    k: usize,
    left: usize,
    /// Position within the innermost level, and chunk `k`'s offset.
    i0: usize,
    off: usize,
}

impl Chunks<'_> {
    /// Offset of chunk `k`: its mixed-radix digits times the strides.
    fn offset_of(&self, mut k: usize) -> usize {
        let mut off = self.base;
        for (&c, &s) in self.counts.iter().zip(self.strides) {
            off += (k % c) * s;
            k /= c;
        }
        off
    }
}

impl Iterator for Chunks<'_> {
    type Item = (usize, usize);

    // Inline: called once per chunk by the loop that records a chunk train.
    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        if self.left == 0 {
            return None;
        }
        let out = (self.off, self.chunk);
        self.left -= 1;
        self.k += 1;
        self.i0 += 1;
        if self.counts.first().is_some_and(|&c0| self.i0 < c0) {
            self.off += self.strides[0];
        } else if self.left > 0 {
            self.i0 = 0;
            self.off = self.offset_of(self.k);
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Chunks<'_> {}

/// Iterator over the equal-length pieces of two descriptors
/// ([`Strided::pair_chunks`]).
#[derive(Debug, Clone)]
pub struct PairChunks<'a> {
    a: Chunks<'a>,
    b: Chunks<'a>,
    /// The unconsumed rest of each side's current chunk.
    cur_a: Option<(usize, usize)>,
    cur_b: Option<(usize, usize)>,
}

impl Iterator for PairChunks<'_> {
    type Item = ((usize, usize), (usize, usize));

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let (Some((aoff, alen)), Some((boff, blen))) = (self.cur_a, self.cur_b) else {
            assert!(
                self.cur_a.is_none() && self.cur_b.is_none(),
                "descriptors have different total sizes"
            );
            return None;
        };
        let take = alen.min(blen);
        self.cur_a = if alen == take {
            self.a.next()
        } else {
            Some((aoff + take, alen - take))
        };
        self.cur_b = if blen == take {
            self.b.next()
        } else {
            Some((boff + take, blen - take))
        };
        Some(((aoff, take), (boff, take)))
    }

    /// Each piece ends at a chunk boundary of one side or both, and the
    /// last piece ends at both sides' last boundary: at least the larger
    /// side's remaining chunk count, at most the sum less one.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left =
            |cur: Option<(usize, usize)>, rest: &Chunks<'_>| cur.map_or(0, |_| 1 + rest.len());
        match (left(self.cur_a, &self.a), left(self.cur_b, &self.b)) {
            (0, _) | (_, 0) => (0, Some(0)),
            (a, b) => (a.max(b), Some(a + b - 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_is_one_chunk() {
        let s = Strided::contiguous(64, 4096);
        assert_eq!(s.nchunks(), 1);
        assert_eq!(s.total_bytes(), 4096);
        assert_eq!(s.chunk_list(), vec![(64, 4096)]);
        assert_eq!(s.levels(), 0);
    }

    #[test]
    fn patch2d_chunks() {
        // 3 rows of 16 bytes, leading dimension 100.
        let s = Strided::patch2d(1000, 16, 3, 100);
        assert_eq!(s.nchunks(), 3);
        assert_eq!(s.total_bytes(), 48);
        assert_eq!(s.chunk_list(), vec![(1000, 16), (1100, 16), (1200, 16)]);
    }

    #[test]
    fn three_level_odometer_order() {
        let s = Strided {
            offset: 0,
            chunk: 4,
            counts: vec![2, 3],
            strides: vec![10, 100],
        };
        assert_eq!(s.nchunks(), 6);
        assert_eq!(
            s.chunk_list(),
            vec![(0, 4), (10, 4), (100, 4), (110, 4), (200, 4), (210, 4)]
        );
    }

    #[test]
    fn four_levels_with_a_dense_innermost_one() {
        // Level 0 is dense (stride == chunk) and coalesces; the other three
        // run the odometer through every wrap.
        let s = Strided {
            offset: 7,
            chunk: 4,
            counts: vec![2, 2, 3, 2],
            strides: vec![4, 20, 100, 1000],
        };
        let mut expect = Vec::new();
        for i3 in 0..2 {
            for i2 in 0..3 {
                for i1 in 0..2 {
                    expect.push((7 + i1 * 20 + i2 * 100 + i3 * 1000, 8));
                }
            }
        }
        assert_eq!(s.chunks().len(), 12);
        assert_eq!(s.chunk_list(), expect);
        assert_eq!(s.chunk_list(), s.normalized().chunk_list());
    }

    #[test]
    fn zero_count_is_empty() {
        // No rows: no chunk, no byte.
        let none = Strided::patch2d(64, 16, 0, 100);
        assert_eq!((none.nchunks(), none.total_bytes()), (0, 0));
        assert_eq!(none.chunks().next(), None);
        // A zero at any level empties the whole descriptor, also behind a
        // level that coalesces.
        for (counts, strides) in [(vec![3, 0], vec![10, 100]), (vec![3, 0], vec![8, 100])] {
            let s = Strided {
                offset: 0,
                chunk: 8,
                counts,
                strides,
            };
            assert_eq!((s.nchunks(), s.total_bytes()), (0, 0));
            assert_eq!(s.chunk_list(), vec![]);
            assert!(s.compatible(&none));
            assert!(!s.compatible(&Strided::contiguous(0, 24)));
        }
    }

    #[test]
    fn pair_chunks_resplits_at_common_boundaries() {
        // Dense on one side (one 48-byte chunk), three rows on the other.
        let dense = Strided::patch2d(0, 16, 3, 16);
        let rows = Strided::patch2d(1000, 16, 3, 100);
        let pairs: Vec<_> = Strided::pair_chunks(&dense, &rows).collect();
        assert_eq!(
            pairs,
            vec![
                ((0, 16), (1000, 16)),
                ((16, 16), (1100, 16)),
                ((32, 16), (1200, 16)),
            ]
        );
    }

    #[test]
    fn pair_chunks_size_hint_brackets_the_pieces_left() {
        for seed in 1..=64 {
            let mut rng = desim::SimRng::new(seed);
            // Same total bytes, independently dense or gapped levels per side.
            let counts: Vec<usize> = (0..1 + rng.next_below(3))
                .map(|_| 1 + rng.next_below(5) as usize)
                .collect();
            let chunk = 8 * (1 + rng.next_below(4) as usize);
            let side = |rng: &mut desim::SimRng| {
                let mut extent = chunk;
                let strides = counts
                    .iter()
                    .map(|&c| {
                        let stride = extent + 8 * rng.next_below(2) as usize;
                        extent = stride * c;
                        stride
                    })
                    .collect();
                Strided {
                    offset: 0,
                    chunk,
                    counts: counts.clone(),
                    strides,
                }
            };
            let (a, b) = (side(&mut rng), side(&mut rng));
            let mut pairs = Strided::pair_chunks(&a, &b);
            let mut left = pairs.clone().count();
            loop {
                let (lo, hi) = pairs.size_hint();
                assert!(
                    lo <= left && Some(left) <= hi,
                    "seed {seed}: {left} in {lo}..={hi:?}"
                );
                if pairs.next().is_none() {
                    break;
                }
                left -= 1;
            }
            assert_eq!(left, 0, "seed {seed}");
        }
    }

    #[test]
    fn pair_chunks_of_two_empty_sides_is_empty() {
        let a = Strided::patch2d(0, 16, 0, 16);
        let b = Strided::patch2d(512, 32, 0, 64);
        assert_eq!(Strided::pair_chunks(&a, &b).next(), None);
    }

    #[test]
    #[should_panic(expected = "different total sizes")]
    fn pair_chunks_with_one_empty_side_panics() {
        let a = Strided::patch2d(0, 16, 0, 16);
        let b = Strided::patch2d(512, 16, 2, 64);
        Strided::pair_chunks(&a, &b).for_each(drop);
    }

    #[test]
    fn compatibility() {
        let a = Strided::patch2d(0, 8, 4, 32);
        let b = Strided::patch2d(512, 8, 4, 64);
        let c = Strided::patch2d(0, 16, 4, 64);
        assert!(a.compatible(&b));
        assert!(!a.compatible(&c));
    }

    #[test]
    #[should_panic(expected = "leading dimension")]
    fn patch2d_validates_ld() {
        Strided::patch2d(0, 100, 2, 50);
    }

    #[test]
    fn train_sides_enumerate_the_paired_pieces() {
        let s = |offset, chunk, counts: &[usize], strides: &[usize]| Strided {
            offset,
            chunk,
            counts: counts.to_vec(),
            strides: strides.to_vec(),
        };
        // Same rows; a dense side split into the other's rows; a coalesced
        // level on one side; two levels against one.
        let pairs = [
            (s(0, 16, &[3], &[24]), s(500, 16, &[3], &[40])),
            (
                Strided::patch2d(0, 368, 8, 368),
                Strided::patch2d(4096, 368, 8, 1024),
            ),
            (s(8, 4, &[2, 3], &[4, 100]), s(900, 8, &[3], &[50])),
            (s(0, 8, &[2, 3], &[16, 64]), s(700, 8, &[6], &[24])),
        ];
        for (local, remote) in &pairs {
            let len = local.dense_prefix().1.min(remote.dense_prefix().1);
            let (l, r) = (
                local.train_side(len).unwrap(),
                remote.train_side(len).unwrap(),
            );
            let paired: Vec<_> = Strided::pair_chunks(local, remote)
                .map(|((lo, len), (ro, _))| (lo, ro, len))
                .collect();
            assert_eq!(l.pieces(), paired.len());
            let read: Vec<_> = (0..l.pieces()).map(|k| (l.at(k), r.at(k), len)).collect();
            assert_eq!(read, paired, "{local:?} / {remote:?}");
        }
        // Chunks of 12 and 8 bytes split into pieces of 8 and 4: no one
        // length, so the train gets a list instead.
        assert!(s(0, 12, &[2], &[20]).train_side(8).is_none());
        // A split level on top of four levels is one too many.
        let deep = s(0, 16, &[2; 4], &[32, 64, 128, 256]);
        assert!(deep.train_side(8).is_none());
        assert!(deep.train_side(16).is_some());
    }
}
