//! Per-rank space of PAMI objects.
//!
//! The paper models memory consumption of the communication subsystem with
//! Eqs. (1)–(6): contexts (`M_c = ε·ρ`), endpoints (`M_e = ζ·α·ρ`) and memory
//! regions (`M_r = τ·γ + σ·ζ·γ`). [`crate::Machine::space`] reads the bytes
//! off the objects a rank holds, so tests can validate those equations
//! against the implementation.

/// The bytes of one rank's PAMI objects, by category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpaceSnapshot {
    /// Bytes consumed by communication contexts (ε each).
    pub contexts: usize,
    /// Bytes consumed by cached endpoints (α each).
    pub endpoints: usize,
    /// Bytes consumed by memory-region metadata (γ each).
    pub regions: usize,
}

impl SpaceSnapshot {
    /// Total bytes across all categories.
    pub fn total(&self) -> usize {
        self.contexts + self.endpoints + self.regions
    }
}
