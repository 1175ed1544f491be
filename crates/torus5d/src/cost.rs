//! LogGP-style cost constants and closed-form latency references.
//!
//! The constants are calibrated so the *simulated* microbenchmarks reproduce
//! the paper's published numbers (§IV, Table II):
//!
//! * adjacent-node blocking get (16 B): **2.89 µs** (Fig 3)
//! * adjacent-node blocking put (16 B): **2.70 µs** (Fig 3)
//! * latency drop at the 256 B cache-alignment boundary (Fig 3)
//! * ~35 ns per torus hop (Fig 7, and Chen et al.)
//! * peak bandwidth ≈ **1775 MB/s** of the 1.8 GB/s available (Fig 4)
//! * α = 4 B, β = 0.3 µs, γ = 8 B, δ = 43 µs, context create ≈ 3.8–4.3 ms
//!   (Table II)
//!
//! The closed-form functions here implement the paper's Eq. 7 (RDMA get),
//! Eq. 8 (active-message fall-back) and Eq. 9 (strided) latency models; the
//! event-level simulation in `pami-sim` composes the same terms and the unit
//! tests cross-check the two.

use desim::SimDuration;

/// Cost-model constants for the simulated Blue Gene/Q.
#[derive(Debug, Clone)]
pub struct BgqParams {
    // ---- network ----
    /// One-way per-hop router latency (35 ns, Chen et al. / paper §IV-B1).
    pub hop_latency: SimDuration,
    /// One-way fixed wire + NIC latency (excluding hops and payload).
    pub base_latency: SimDuration,
    /// Payload serialization time per byte on a torus link, in picoseconds
    /// (563 ps/B ⇒ ≈1776 MB/s achieved of the 1.8 GB/s available).
    pub byte_time_ps: u64,
    /// Available (protocol-limited) bandwidth the paper normalizes against.
    pub available_bw_mbs: f64,
    // ---- intra-node (shared memory) ----
    /// Fixed latency between two ranks on the same node.
    pub intranode_latency: SimDuration,
    /// Per-byte copy time within a node, picoseconds.
    pub intranode_byte_time_ps: u64,
    // ---- processor overheads (LogGP "o") ----
    /// Software overhead to post an RMA operation.
    pub o_send: SimDuration,
    /// Software overhead to process a get completion.
    pub o_recv: SimDuration,
    /// Software overhead to retire a put's local completion.
    pub o_put_local: SimDuration,
    /// NIC RDMA engine per-operation setup.
    pub rdma_engine: SimDuration,
    /// Extra cost for cache-unaligned (small) transfers.
    pub unaligned_penalty: SimDuration,
    /// Transfers of at least this many bytes are cache-aligned (256 on BG/Q).
    pub align_threshold: usize,
    // ---- software (active-message) path ----
    /// Target CPU time to dispatch an active-message handler.
    pub am_dispatch: SimDuration,
    /// Target CPU time to service one atomic memory operation.
    pub rmw_service: SimDuration,
    /// Target CPU time per f64 element applied by an accumulate handler,
    /// picoseconds.
    pub acc_elem_time_ps: u64,
    /// Wire overhead bytes added to each active message (header/packetization).
    pub am_header_bytes: usize,
    /// Sender CPU cost to append one active message to a per-destination
    /// aggregation buffer (a cache-resident copy plus bookkeeping — far below
    /// the full NIC post overhead `o_send`, which is the source of the
    /// batching win for small messages).
    pub am_enqueue: SimDuration,
    /// CPU pack/unpack copy rate for the typed/packed datatype path,
    /// picoseconds per byte (≈6.7 GB/s memcpy).
    pub pack_byte_time_ps: u64,
    // ---- PAMI object costs (Table II) ----
    /// Endpoint space utilization α (4 bytes).
    pub endpoint_bytes: usize,
    /// Endpoint creation time β (0.3 µs).
    pub endpoint_create: SimDuration,
    /// Memory-region space utilization γ (8 bytes).
    pub memregion_bytes: usize,
    /// Memory-region creation time δ (43 µs).
    pub memregion_create: SimDuration,
    /// Context space utilization ε ("varies"; representative value).
    pub context_bytes: usize,
    /// Context creation time (3821–4271 µs measured; midpoint used).
    pub context_create: SimDuration,
    // ---- asynchronous progress thread ----
    /// Wake-up overhead of the SMT progress thread per service batch.
    pub at_wakeup: SimDuration,
    // ---- collectives ----
    /// Base cost of the hardware-assisted barrier network.
    pub barrier_base: SimDuration,
    /// Additional barrier cost per log2(p).
    pub barrier_per_log2p: SimDuration,
}

impl Default for BgqParams {
    fn default() -> Self {
        BgqParams {
            hop_latency: SimDuration::from_ns(35),
            base_latency: SimDuration::from_ns(780),
            byte_time_ps: 563,
            available_bw_mbs: 1800.0,
            intranode_latency: SimDuration::from_ns(450),
            intranode_byte_time_ps: 100,
            o_send: SimDuration::from_ns(500),
            o_recv: SimDuration::from_ns(300),
            o_put_local: SimDuration::from_ns(110),
            rdma_engine: SimDuration::from_ns(200),
            unaligned_penalty: SimDuration::from_ns(250),
            align_threshold: 256,
            am_dispatch: SimDuration::from_ns(350),
            rmw_service: SimDuration::from_ns(150),
            acc_elem_time_ps: 250,
            am_header_bytes: 32,
            am_enqueue: SimDuration::from_ns(110),
            pack_byte_time_ps: 150,
            endpoint_bytes: 4,
            endpoint_create: SimDuration::from_ns(300),
            memregion_bytes: 8,
            memregion_create: SimDuration::from_us(43),
            context_bytes: 16 * 1024,
            context_create: SimDuration::from_us(4046),
            at_wakeup: SimDuration::from_ns(200),
            barrier_base: SimDuration::from_us_f64(1.5),
            barrier_per_log2p: SimDuration::from_ns(50),
        }
    }
}

impl BgqParams {
    /// Payload serialization time for `bytes` on a torus link.
    #[inline]
    pub fn wire_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_ps(bytes as u64 * self.byte_time_ps)
    }

    /// Copy time for `bytes` through shared memory within a node.
    #[inline]
    pub fn intranode_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_ps(bytes as u64 * self.intranode_byte_time_ps)
    }

    /// One-way network latency for a header-only packet over `hops` hops
    /// (`hops == 0` means intra-node).
    #[inline]
    pub fn oneway_header(&self, hops: u32) -> SimDuration {
        if hops == 0 {
            self.intranode_latency
        } else {
            self.base_latency + self.hop_latency * u64::from(hops)
        }
    }

    /// One-way network time for `bytes` of payload over `hops` hops.
    #[inline]
    pub fn oneway(&self, hops: u32, bytes: usize) -> SimDuration {
        if hops == 0 {
            self.intranode_latency + self.intranode_time(bytes)
        } else {
            self.oneway_header(hops) + self.wire_time(bytes)
        }
    }

    /// Alignment penalty: transfers below [`BgqParams::align_threshold`] are
    /// cache-unaligned and slower (the Fig 3 "drop at 256 bytes").
    #[inline]
    pub fn align_penalty(&self, bytes: usize) -> SimDuration {
        if bytes < self.align_threshold {
            self.unaligned_penalty
        } else {
            SimDuration::ZERO
        }
    }

    /// Closed-form blocking RDMA **get** latency (the paper's Eq. 7 with the
    /// round trip made explicit):
    /// `o_send + rdma + L_req + (L + m·G)_resp + o_recv + align`.
    pub fn model_rdma_get(&self, hops: u32, bytes: usize) -> SimDuration {
        self.o_send
            + self.rdma_engine
            + self.oneway_header(hops)
            + self.oneway(hops, bytes)
            + self.o_recv
            + self.align_penalty(bytes)
    }

    /// Closed-form blocking RDMA **put** latency, as observed by the caller
    /// (BG/Q put local completion requires the hardware ack round trip):
    /// `o_send + rdma + (L + m·G) + L_ack + o_put_local + align`.
    pub fn model_rdma_put(&self, hops: u32, bytes: usize) -> SimDuration {
        self.o_send
            + self.rdma_engine
            + self.oneway(hops, bytes)
            + self.oneway_header(hops)
            + self.o_put_local
            + self.align_penalty(bytes)
    }

    /// Closed-form fall-back (active message) get latency — the paper's
    /// Eq. 8: one extra `o` (the remote dispatch) over Eq. 7, **plus** it only
    /// holds if the target is making progress; queueing at a busy target is
    /// what the event simulation adds on top.
    pub fn model_fallback_get(&self, hops: u32, bytes: usize) -> SimDuration {
        self.o_send
            + self.oneway_header(hops)
            + self.am_dispatch
            + self.oneway(hops, bytes)
            + self.o_recv
            + self.align_penalty(bytes)
    }

    /// Closed-form strided transfer latency — the paper's Eq. 9:
    /// `o·(m/l0) + m·G` for `chunks = m/l0` chunks of `l0` contiguous bytes,
    /// issued as independent non-blocking RDMA operations.
    pub fn model_strided(&self, hops: u32, chunk_bytes: usize, chunks: usize) -> SimDuration {
        let per_chunk_o = self.o_send + self.rdma_engine;
        let total = chunk_bytes * chunks;
        per_chunk_o * chunks as u64 + self.oneway_header(hops) + self.wire_time(total)
    }

    /// Hardware barrier cost for `p` processes.
    pub fn barrier_cost(&self, p: usize) -> SimDuration {
        let log2p = usize::BITS - p.max(1).leading_zeros() - 1;
        self.barrier_base + self.barrier_per_log2p * u64::from(log2p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_paper_headline_numbers() {
        let p = BgqParams::default();
        // Fig 3: adjacent-node (1 hop) 16-byte get = 2.89 us, put = 2.70 us.
        let get = p.model_rdma_get(1, 16).as_us();
        let put = p.model_rdma_put(1, 16).as_us();
        assert!((get - 2.89).abs() < 0.02, "get 16B = {get}");
        assert!((put - 2.70).abs() < 0.02, "put 16B = {put}");
    }

    #[test]
    fn latency_drops_at_alignment_boundary() {
        let p = BgqParams::default();
        let l128 = p.model_rdma_get(1, 128);
        let l256 = p.model_rdma_get(1, 256);
        assert!(l256 < l128, "aligned 256B must be faster than 128B");
    }

    #[test]
    fn per_hop_increment_is_35ns_oneway() {
        let p = BgqParams::default();
        let l1 = p.model_rdma_get(1, 16);
        let l7 = p.model_rdma_get(7, 16);
        let per_hop_roundtrip = (l7 - l1).as_ns() / (6.0 * 2.0);
        assert!(
            (per_hop_roundtrip - 35.0).abs() < 0.5,
            "{per_hop_roundtrip}"
        );
    }

    #[test]
    fn asymptotic_bandwidth_near_1775() {
        let p = BgqParams::default();
        let m = 1 << 20; // 1 MB
        let wire = p.wire_time(m);
        let bw = m as f64 / wire.as_secs() / 1.0e6;
        assert!((1750.0..1800.0).contains(&bw), "wire-limited bw = {bw}");
    }

    #[test]
    fn fallback_slower_than_rdma() {
        let p = BgqParams::default();
        for m in [16usize, 256, 4096, 1 << 20] {
            assert!(p.model_fallback_get(3, m) > p.model_rdma_get(3, m), "m={m}");
        }
    }

    #[test]
    fn strided_latency_inverse_in_chunk_size() {
        let p = BgqParams::default();
        let total = 1 << 20;
        // Eq. 9: bigger l0 (fewer chunks) => lower latency for fixed m.
        let coarse = p.model_strided(2, 64 * 1024, total / (64 * 1024));
        let fine = p.model_strided(2, 1024, total / 1024);
        assert!(coarse < fine);
    }

    #[test]
    fn intranode_faster_than_internode() {
        let p = BgqParams::default();
        assert!(p.oneway(0, 1024) < p.oneway(1, 1024));
    }

    #[test]
    fn barrier_cost_grows_slowly() {
        let p = BgqParams::default();
        let b2 = p.barrier_cost(2);
        let b4096 = p.barrier_cost(4096);
        assert!(b4096 > b2);
        assert!(b4096.as_us() < 3.0, "HW barrier stays a few us");
    }
}
