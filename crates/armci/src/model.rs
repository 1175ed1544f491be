//! Time–space complexity models of the communication subsystem
//! (paper §III-B, Table I, Eqs. 1–6).
//!
//! These closed forms are used by tests to validate that the implementation's
//! per-rank object space (see `pami_sim::Machine::space`) matches the paper's
//! models, and by the Table II bench to print the space-model examples.
//!
//! | # | Property | Symbol |
//! |---|----------|--------|
//! | 1 | Message size for data transfer | `m` |
//! | 2 | Total number of processes | `p` |
//! | 3 | Processes per node | `c` |
//! | 4 | Endpoint space utilization | `α` |
//! | 5 | Endpoint creation time | `β` |
//! | 6 | Memory region space utilization | `γ` |
//! | 7 | Memory region creation time | `δ` |
//! | 8 | Context space utilization | `ε` |
//! | 9 | Context creation time | (`ρ` row 9) |
//! | 10 | Number of contexts | `ρ` |
//! | 11 | Communication clique | `ζ` |
//! | 12 | Active global address structures | `σ` |
//! | 13 | Local communication buffers | `τ` |

use desim::SimDuration;

/// Eq. 1 — context space per process: `M_c = ε·ρ`.
pub fn context_space(eps: usize, rho: usize) -> usize {
    eps * rho
}

/// Eq. 3 — endpoint space for communication clique ζ: `M_e = ζ·α·ρ`.
pub fn endpoint_space(zeta: usize, alpha: usize, rho: usize) -> usize {
    zeta * alpha * rho
}

/// Eq. 4 — endpoint creation time for clique ζ: `T_e = ζ·β·ρ`.
pub fn endpoint_time(zeta: usize, beta: SimDuration, rho: usize) -> SimDuration {
    beta * (zeta * rho) as u64
}

/// Eq. 5 — memory-region space: `M_r = τ·γ + σ·ζ·γ` (local buffers plus the
/// cached clique metadata for σ active structures).
pub fn region_space(tau: usize, gamma: usize, sigma: usize, zeta: usize) -> usize {
    tau * gamma + sigma * zeta * gamma
}

/// Eq. 6 — memory-region creation time: `T_r = τ·δ + σ·δ` (each local buffer
/// and each local piece of an active structure is registered once).
pub fn region_time(tau: usize, sigma: usize, delta: SimDuration) -> SimDuration {
    delta * (tau + sigma) as u64
}

/// Failure-handling mode surfaced to ARMCI users — re-exported from the
/// PAMI layer, where the timeout/backoff/retry machinery lives.
pub use pami_sim::FailureMode;
/// Timeout/backoff/bounded-retry policy surfaced to ARMCI users.
pub use pami_sim::RetryPolicy;

#[cfg(test)]
mod tests {
    use super::*;
    use torus5d::BgqParams;

    #[test]
    fn equations_match_paper_examples() {
        let p = BgqParams::default();
        // M_c with one context and ~16KB contexts.
        assert_eq!(context_space(p.context_bytes, 1), p.context_bytes);
        assert_eq!(context_space(p.context_bytes, 2), 2 * p.context_bytes);
        // M_e for a full clique of 4096 with alpha=4: 16 KB/rank — "highly
        // scalable" per the paper.
        assert_eq!(endpoint_space(4096, 4, 1), 16 * 1024);
        // T_e = zeta * beta.
        assert_eq!(
            endpoint_time(100, p.endpoint_create, 1),
            p.endpoint_create * 100
        );
        // M_r with tau=3 local buffers, sigma=7 structures, clique 4096.
        assert_eq!(region_space(3, 8, 7, 4096), 3 * 8 + 7 * 4096 * 8);
        // T_r.
        assert_eq!(
            region_time(3, 7, p.memregion_create),
            p.memregion_create * 10
        );
    }
}
