//! Time–space complexity models of the communication subsystem
//! (paper §III-B, Table I, Eqs. 1–6).
//!
//! These closed forms are used by tests to validate that the implementation's
//! per-rank object space (see `pami_sim::Machine::space`) matches the paper's
//! models, and by the Table II bench to print predicted-vs-measured rows.
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
use torus5d::BgqParams;

/// Eq. 1 — context space per process: `M_c = ε·ρ`.
pub fn context_space(eps: usize, rho: usize) -> usize {
    eps * rho
}

/// Eq. 2 — context creation time per process: `T_c = ρ·t_ctx`.
pub fn context_time(t_ctx: SimDuration, rho: usize) -> SimDuration {
    t_ctx * rho as u64
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

/// Closed form for the wait a single attempt spends before retransmit
/// number `k+1` goes out: `timeout + backoff·2^k` (see
/// [`RetryPolicy::backoff_delay`]).
pub fn retry_attempt_delay(p: &RetryPolicy, k: u32) -> SimDuration {
    p.timeout + p.backoff_delay(k)
}

/// Closed form for the total delay an operation accumulates after `k`
/// consecutive drops: `Σ_{i<k} (timeout + backoff·2^i)
/// = k·timeout + backoff·(2^k − 1)`. This is the worst-case latency added
/// by the resilience layer before either the `k`-th retransmit succeeds or
/// the policy gives up (`k = max_retries + 1`).
pub fn retry_total_delay(p: &RetryPolicy, k: u32) -> SimDuration {
    (0..k).fold(SimDuration::ZERO, |acc, i| acc + retry_attempt_delay(p, i))
}

/// All Table-II style attribute values for a parameter set, as
/// `(name, value)` rows for reporting.
pub fn attribute_rows(p: &BgqParams, rho: usize) -> Vec<(&'static str, String)> {
    vec![
        (
            "Endpoint Space Utilization (alpha)",
            format!("{} Bytes", p.endpoint_bytes),
        ),
        (
            "Endpoint Creation Time (beta)",
            format!("{}", p.endpoint_create),
        ),
        (
            "Memory Region Space Utilization (gamma)",
            format!("{} Bytes", p.memregion_bytes),
        ),
        (
            "Memory Region Creation Time (delta)",
            format!("{}", p.memregion_create),
        ),
        (
            "Context Space Utilization (epsilon)",
            format!("{} Bytes", p.context_bytes),
        ),
        ("Context Creation Time", format!("{}", p.context_create)),
        ("Number of Contexts (rho)", format!("{rho}")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn retry_delay_closed_form_matches_geometric_sum() {
        let p = RetryPolicy::default();
        // k·timeout + backoff·(2^k − 1), for the default 30us/5us policy.
        for k in 0..6u32 {
            let closed = p.timeout * k as u64 + p.backoff * ((1u64 << k) - 1);
            assert_eq!(retry_total_delay(&p, k), closed, "k={k}");
        }
        assert_eq!(retry_total_delay(&p, 0), SimDuration::ZERO);
        assert_eq!(retry_attempt_delay(&p, 2), p.timeout + p.backoff * 4);
    }

    #[test]
    fn attribute_rows_cover_table2() {
        let rows = attribute_rows(&BgqParams::default(), 2);
        assert_eq!(rows.len(), 7);
        assert!(rows
            .iter()
            .any(|(n, v)| n.contains("alpha") && v == "4 Bytes"));
        assert!(rows
            .iter()
            .any(|(n, v)| n.contains("delta") && v == "43.000us"));
    }
}
