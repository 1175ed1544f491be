//! Randomized tests of the strided datatype machinery: decompositions tile
//! the described bytes exactly, coalescing preserves them, and paired chunk
//! lists re-split consistently. Driven by the deterministic [`SimRng`].

use armci::Strided;
use desim::SimRng;

/// Well-formed random descriptor: strides at least the extent below them,
/// so chunks never overlap.
fn arb_strided(rng: &mut SimRng) -> Strided {
    let chunk = rng.range(1, 64) as usize;
    let offset = rng.next_below(512) as usize;
    let nlevels = rng.next_below(3) as usize;
    let mut counts = Vec::new();
    let mut strides = Vec::new();
    let mut extent = chunk;
    for _ in 0..nlevels {
        let count = rng.range(1, 5) as usize;
        let gap = rng.next_below(16) as usize;
        let stride = extent + gap;
        counts.push(count);
        strides.push(stride);
        extent = stride * count;
    }
    Strided {
        offset,
        chunk,
        counts,
        strides,
    }
}

fn byte_set(s: &Strided) -> Vec<usize> {
    let mut v: Vec<usize> = s.chunks().flat_map(|(off, len)| off..off + len).collect();
    v.sort_unstable();
    v
}

#[test]
fn chunks_cover_total_bytes_exactly() {
    let mut rng = SimRng::new(11);
    for _ in 0..128 {
        let s = arb_strided(&mut rng);
        let total: usize = s.chunks().map(|(_, l)| l).sum();
        assert_eq!(total, s.total_bytes());
        // No overlap: the byte set has no duplicates.
        let bytes = byte_set(&s);
        let mut dedup = bytes.clone();
        dedup.dedup();
        assert_eq!(bytes.len(), dedup.len(), "overlapping chunks");
    }
}

#[test]
fn normalization_preserves_byte_set() {
    let mut rng = SimRng::new(12);
    for _ in 0..128 {
        let s = arb_strided(&mut rng);
        let n = s.normalized();
        assert_eq!(byte_set(&s), byte_set(&n));
        assert_eq!(s.total_bytes(), n.total_bytes());
    }
}

#[test]
fn pair_chunks_is_a_consistent_resplit() {
    let mut rng = SimRng::new(13);
    for _ in 0..64 {
        let rows = rng.range(1, 16) as usize;
        let row = rng.range(1, 64) as usize;
        let lgap = rng.next_below(32) as usize;
        let rgap = rng.next_below(32) as usize;
        let local = Strided::patch2d(0, row, rows, row + lgap);
        let remote = Strided::patch2d(10_000, row, rows, row + rgap);
        let pairs: Vec<_> = Strided::pair_chunks(&local, &remote).collect();
        // Pair lengths match on both sides and sum to the total.
        let mut ltotal = 0;
        let mut rtotal = 0;
        for ((_, ll), (_, rl)) in &pairs {
            assert_eq!(ll, rl);
            ltotal += ll;
            rtotal += rl;
        }
        assert_eq!(ltotal, local.total_bytes());
        assert_eq!(rtotal, remote.total_bytes());
        // Walking the pairs visits each side's bytes in canonical order.
        let mut lbytes = Vec::new();
        let mut rbytes = Vec::new();
        for ((lo, ll), (ro, rl)) in &pairs {
            lbytes.extend(*lo..lo + ll);
            rbytes.extend(*ro..ro + rl);
        }
        let lref: Vec<usize> = local.chunks().flat_map(|(o, l)| o..o + l).collect();
        let rref: Vec<usize> = remote.chunks().flat_map(|(o, l)| o..o + l).collect();
        assert_eq!(lbytes, lref);
        assert_eq!(rbytes, rref);
    }
}

#[test]
fn dense_patch_coalesces_to_one_chunk() {
    let mut rng = SimRng::new(14);
    for _ in 0..64 {
        let rows = rng.range(1, 32) as usize;
        let row = rng.range(1, 128) as usize;
        let off = rng.next_below(256) as usize;
        let s = Strided::patch2d(off, row, rows, row); // ld == row: dense
        let chunks = s.chunk_list();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0], (off, rows * row));
    }
}

#[test]
fn patch2d_chunk_count() {
    let mut rng = SimRng::new(15);
    for _ in 0..64 {
        let rows = rng.range(1, 32) as usize;
        let row = rng.range(1, 64) as usize;
        let gap = rng.range(1, 32) as usize;
        let s = Strided::patch2d(0, row, rows, row + gap);
        assert_eq!(s.chunks().len(), rows);
        assert_eq!(s.nchunks(), rows);
    }
}
