//! 2D block distribution of a dense matrix over a process grid.

/// A rank whose block intersects a requested patch: `(rank, (row_lo,
/// row_hi), (col_lo, col_hi))` of the intersection rectangle.
pub type PatchOwner = (usize, (usize, usize), (usize, usize));

/// Block distribution of an `rows × cols` matrix over `p` processes arranged
/// in a `pr × pc` grid (chosen as close to square as divides `p`). Process
/// `(gi, gj)` (rank `gi·pc + gj`) owns the contiguous block of rows
/// `row_range(gi)` and columns `col_range(gj)`; remainders go to the leading
/// blocks, so block sizes differ by at most one row/column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDist {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Process-grid rows.
    pub pr: usize,
    /// Process-grid columns.
    pub pc: usize,
}

impl BlockDist {
    /// Build a distribution for `p` processes, choosing the most square
    /// `pr × pc = p` factorization.
    pub fn new(rows: usize, cols: usize, p: usize) -> BlockDist {
        assert!(rows > 0 && cols > 0 && p > 0);
        let mut pr = (p as f64).sqrt() as usize;
        while pr > 1 && !p.is_multiple_of(pr) {
            pr -= 1;
        }
        let pr = pr.max(1);
        BlockDist {
            rows,
            cols,
            pr,
            pc: p / pr,
        }
    }

    /// Number of processes in the grid.
    pub fn nprocs(&self) -> usize {
        self.pr * self.pc
    }

    fn split(extent: usize, parts: usize, idx: usize) -> (usize, usize) {
        // Leading `extent % parts` blocks get one extra element.
        let base = extent / parts;
        let extra = extent % parts;
        let lo = idx * base + idx.min(extra);
        let size = base + usize::from(idx < extra);
        (lo, lo + size)
    }

    /// `[lo, hi)` rows owned by grid-row `gi`.
    pub fn row_range(&self, gi: usize) -> (usize, usize) {
        Self::split(self.rows, self.pr, gi)
    }

    /// `[lo, hi)` columns owned by grid-column `gj`.
    pub fn col_range(&self, gj: usize) -> (usize, usize) {
        Self::split(self.cols, self.pc, gj)
    }

    /// Rank owning element `(i, j)`.
    pub fn owner_of(&self, i: usize, j: usize) -> usize {
        assert!(i < self.rows && j < self.cols);
        let gi = Self::index_of(self.rows, self.pr, i);
        let gj = Self::index_of(self.cols, self.pc, j);
        gi * self.pc + gj
    }

    fn index_of(extent: usize, parts: usize, x: usize) -> usize {
        let base = extent / parts;
        let extra = extent % parts;
        let boundary = extra * (base + 1);
        if x < boundary {
            x / (base + 1)
        } else {
            match (x - boundary).checked_div(base) {
                Some(q) => extra + q,
                None => parts - 1, // base == 0: everything past goes last
            }
        }
    }

    /// The row/column ranges owned by `rank`: `((rlo, rhi), (clo, chi))`.
    pub fn block_of(&self, rank: usize) -> ((usize, usize), (usize, usize)) {
        assert!(rank < self.nprocs());
        let gi = rank / self.pc;
        let gj = rank % self.pc;
        (self.row_range(gi), self.col_range(gj))
    }

    /// Number of f64 elements owned by `rank`.
    pub fn local_elems(&self, rank: usize) -> usize {
        let ((rlo, rhi), (clo, chi)) = self.block_of(rank);
        (rhi - rlo) * (chi - clo)
    }

    /// Iterate over the ranks whose blocks intersect the patch
    /// `[rlo, rhi) × [clo, chi)`, with the intersection rectangle.
    pub fn owners_of_patch(
        &self,
        rlo: usize,
        rhi: usize,
        clo: usize,
        chi: usize,
    ) -> Vec<PatchOwner> {
        assert!(rlo < rhi && rhi <= self.rows, "bad row patch {rlo}..{rhi}");
        assert!(clo < chi && chi <= self.cols, "bad col patch {clo}..{chi}");
        let gi_lo = Self::index_of(self.rows, self.pr, rlo);
        let gi_hi = Self::index_of(self.rows, self.pr, rhi - 1);
        let gj_lo = Self::index_of(self.cols, self.pc, clo);
        let gj_hi = Self::index_of(self.cols, self.pc, chi - 1);
        let mut out = Vec::new();
        for gi in gi_lo..=gi_hi {
            let (brlo, brhi) = self.row_range(gi);
            for gj in gj_lo..=gj_hi {
                let (bclo, bchi) = self.col_range(gj);
                let r = (rlo.max(brlo), rhi.min(brhi));
                let c = (clo.max(bclo), chi.min(bchi));
                if r.0 < r.1 && c.0 < c.1 {
                    out.push((gi * self.pc + gj, r, c));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_near_square() {
        let d = BlockDist::new(100, 100, 16);
        assert_eq!((d.pr, d.pc), (4, 4));
        let d = BlockDist::new(100, 100, 8);
        assert_eq!(d.pr * d.pc, 8);
        assert!(d.pr == 2 && d.pc == 4);
        let d = BlockDist::new(100, 100, 7);
        assert_eq!((d.pr, d.pc), (1, 7));
    }

    #[test]
    fn ranges_partition_exactly() {
        let d = BlockDist::new(103, 57, 12);
        let mut total_rows = 0;
        for gi in 0..d.pr {
            let (lo, hi) = d.row_range(gi);
            assert_eq!(lo, total_rows);
            total_rows = hi;
        }
        assert_eq!(total_rows, 103);
        let mut total_cols = 0;
        for gj in 0..d.pc {
            let (lo, hi) = d.col_range(gj);
            assert_eq!(lo, total_cols);
            total_cols = hi;
        }
        assert_eq!(total_cols, 57);
    }

    #[test]
    fn owner_of_consistent_with_block_of() {
        let d = BlockDist::new(29, 31, 6);
        for i in 0..29 {
            for j in 0..31 {
                let r = d.owner_of(i, j);
                let ((rlo, rhi), (clo, chi)) = d.block_of(r);
                assert!((rlo..rhi).contains(&i), "i={i} j={j} rank={r}");
                assert!((clo..chi).contains(&j), "i={i} j={j} rank={r}");
            }
        }
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // membership only: order never read
    fn patch_owners_cover_patch_exactly() {
        let d = BlockDist::new(64, 64, 16);
        let owners = d.owners_of_patch(10, 40, 20, 50);
        let mut covered = std::collections::HashSet::new();
        for (rank, (rlo, rhi), (clo, chi)) in owners {
            let ((brlo, brhi), (bclo, bchi)) = d.block_of(rank);
            assert!(brlo <= rlo && rhi <= brhi);
            assert!(bclo <= clo && chi <= bchi);
            for i in rlo..rhi {
                for j in clo..chi {
                    assert!(covered.insert((i, j)), "overlap at ({i},{j})");
                }
            }
        }
        for i in 0..64 {
            for j in 0..64 {
                assert_eq!(
                    covered.contains(&(i, j)),
                    (10..40).contains(&i) && (20..50).contains(&j),
                    "coverage wrong at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn single_process_owns_everything() {
        let d = BlockDist::new(10, 10, 1);
        assert_eq!(d.owner_of(9, 9), 0);
        assert_eq!(d.block_of(0), ((0, 10), (0, 10)));
        assert_eq!(d.local_elems(0), 100);
    }

    #[test]
    fn more_procs_than_rows() {
        let d = BlockDist::new(2, 2, 4);
        // 2x2 grid over a 2x2 matrix: one element each.
        for r in 0..4 {
            assert_eq!(d.local_elems(r), 1);
        }
    }
}
