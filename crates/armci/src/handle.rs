//! Non-blocking request handles.
//!
//! ARMCI supports non-blocking communication with explicit handles (waited
//! individually) and implicit requests (collected by `wait_all`), with
//! MPI-style buffer-reuse semantics: a put's handle completes when the local
//! buffer is reusable, a get's when the data has landed locally.

use desim::{Completion, OpId};

use crate::optable::OpDesc;

/// What kind of operation a handle tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A get (read): completion = data arrived locally.
    Get,
    /// A put (write): completion = local buffer reusable.
    Put,
    /// An accumulate: completion = local buffer reusable.
    Acc,
    /// An atomic read-modify-write: blocking, completion = old value fetched.
    Rmw,
}

/// Explicit handle for one non-blocking ARMCI operation.
#[derive(Clone)]
pub struct NbHandle {
    /// The operation's table row (decides what `wait` charges and records).
    pub desc: &'static OpDesc,
    /// Target rank of the operation.
    pub target: usize,
    /// The caller-visible completion (see [`OpKind`] for what it means).
    pub done: Completion<()>,
    /// Remote (target-side) completion for writes, used by fences; `None`
    /// for gets.
    pub remote: Option<Completion<()>>,
    /// Lifecycle operation id, when lifecycle attribution was on at issue
    /// time. The matching `wait` ends the op.
    pub op: Option<OpId>,
}

impl NbHandle {
    /// True once the caller-visible completion fired (non-blocking test).
    pub fn test(&self) -> bool {
        self.done.is_complete()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_reflects_completion() {
        let h = NbHandle {
            desc: &crate::optable::GET,
            target: 3,
            done: Completion::new(),
            remote: None,
            op: None,
        };
        assert!(!h.test());
        h.done.complete(());
        assert!(h.test());
    }
}
