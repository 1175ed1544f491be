//! Per-operation deadlines: timeout → exponential backoff → bounded retry.
//!
//! When a fault plan is installed on the machine, every network leg a PAMI
//! operation issues is wrapped in this state machine: an attempt that the
//! fault layer drops is noticed after [`RetryPolicy::timeout`], the sender
//! backs off exponentially ([`RetryPolicy::backoff`] · 2^attempt) and
//! re-injects, up to [`RetryPolicy::max_retries`] times. Retransmits go
//! through the normal delivery path, so they still respect per-pair
//! ordering: a retried put clamps behind any younger put to the same target
//! that was delivered in the meantime (the pair front only advances on
//! *delivery*, never on a drop).
//!
//! On a simulated network the sender learns the drop outcome synchronously,
//! so the timeout needs no timer bookkeeping: the retry wait is modelled as
//! one sleep to `inject + timeout + backoff·2^attempt`, recorded as a
//! `retry`-category lifecycle segment for the critical-path analyzer.
//!
//! The state machine is one plain function, `attempt`: it records every
//! retry probe row and owns the give-up policy. Its two
//! drivers differ only in how they wait out an `Attempt::Backoff` — an
//! initiator's request leg `await`s it, a target's response leg schedules a
//! closure so the progress engine keeps running meanwhile.

use desim::{OpId, Probe, SegCategory, SimDuration, SimTime};
use torus5d::{Delivery, MsgClass};

use crate::machine::Machine;

static RETRIES: Probe = Probe::new().count("pami.retries").series("pami.retries");
static TIMEOUTS: Probe = Probe::new().count("pami.timeouts").series("pami.timeouts");
static OP_RETRIES: Probe = Probe::new().hist("pami.op_retries");
static GAVE_UP: Probe = Probe::new().count("pami.gave_up");
/// The timeout plus backoff an attempt waits before its retransmit.
static RETRY: Probe = Probe::new().segment(SegCategory::Retry, "pami.retry");
/// Retransmits scheduled but not yet sent.
static BACKLOG: Probe = Probe::new().gauge("pami.retry_backlog");

/// What happens when an operation exhausts its retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// Panic with a diagnostic — the run is considered broken. The right
    /// default for calibration workloads, where losing data silently would
    /// corrupt results.
    FailFast,
    /// Complete the operation without its data effect and count it in
    /// `pami.gave_up` — the run limps on, modelling an application-level
    /// resilience layer above the runtime.
    BestEffort,
}

/// Timeout/backoff/bounded-retry parameters for one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How long after injection an unacknowledged attempt is declared lost.
    pub timeout: SimDuration,
    /// Base backoff added after the timeout; doubles per attempt.
    pub backoff: SimDuration,
    /// Retransmit attempts before giving up (0 = never retransmit).
    pub max_retries: u32,
    /// Behavior on retry exhaustion.
    pub failure: FailureMode,
}

impl Default for RetryPolicy {
    /// 30 µs timeout, 5 µs base backoff, 8 retries, fail-fast.
    fn default() -> RetryPolicy {
        RetryPolicy {
            timeout: SimDuration::from_us(30),
            backoff: SimDuration::from_us(5),
            max_retries: 8,
            failure: FailureMode::FailFast,
        }
    }
}

impl RetryPolicy {
    /// Backoff after attempt number `attempt` (0-based): `backoff · 2^attempt`,
    /// with the shift clamped so pathological policies cannot overflow.
    pub fn backoff_delay(&self, attempt: u32) -> SimDuration {
        self.backoff * (1u64 << attempt.min(20))
    }

    /// When the retransmit of an attempt injected at `inject` goes out:
    /// after the timeout expires plus the attempt's backoff.
    pub fn resume_at(&self, inject: SimTime, attempt: u32) -> SimTime {
        inject + self.timeout + self.backoff_delay(attempt)
    }
}

/// What stays the same across the retransmissions of one network leg.
#[derive(Clone, Copy)]
pub(crate) struct Leg {
    pub src: usize,
    pub dst: usize,
    pub payload: usize,
    pub class: MsgClass,
    pub op: Option<OpId>,
}

/// Outcome of one [`attempt`] at a leg.
pub(crate) enum Attempt {
    /// Delivered: the message reaches the destination NIC at this time.
    Arrived(SimTime),
    /// Retries exhausted under [`FailureMode::BestEffort`]: the operation
    /// completes at this time without its data effect.
    GaveUp(SimTime),
    /// Dropped: retransmit at this time, as attempt number `attempt + 1`.
    Backoff(SimTime),
}

/// Inject `leg` at `inject` under the active fault plan, as transmission
/// number `attempt` (0 = the original; a retransmit is injected at the
/// resume time its predecessor's [`Attempt::Backoff`] named).
pub(crate) fn attempt(m: &Machine, inject: SimTime, leg: &Leg, attempt: u32) -> Attempt {
    let p = m.sim().probes();
    if attempt > 0 {
        p.count(&RETRIES, inject, 1);
        p.level(&BACKLOG, inject, -1);
    }
    let Leg { src, dst, op, .. } = *leg;
    let outcome = {
        // The kernel clock is the delivery floor, as in `rank::deliver`.
        let mut net = m.inner.net.borrow_mut();
        net.raise_floor(m.sim().now());
        net.try_deliver_op(inject, src, dst, leg.payload, leg.class, op)
    };
    match outcome {
        Delivery::Delivered(arrival) => {
            if attempt > 0 {
                p.count(&OP_RETRIES, inject, attempt as u64);
            }
            Attempt::Arrived(arrival)
        }
        Delivery::Dropped { .. } => {
            p.count(&TIMEOUTS, inject, 1);
            // The sender notices after the timeout plus this attempt's
            // backoff. A retransmit goes through the normal delivery path,
            // so pair ordering still holds: the pair front only advanced on
            // deliveries, never on this drop.
            let policy = m.retry_policy();
            let resume = policy.resume_at(inject, attempt);
            if attempt >= policy.max_retries {
                return match policy.failure {
                    FailureMode::FailFast => panic!(
                        "rank {src} -> {dst}: message lost after {attempt} retries \
                         (fault plan too hostile for the retry policy)"
                    ),
                    FailureMode::BestEffort => {
                        p.count(&GAVE_UP, inject, 1);
                        Attempt::GaveUp(resume)
                    }
                };
            }
            p.span(&RETRY, op, inject, resume, 0);
            p.level(&BACKLOG, inject, 1);
            Attempt::Backoff(resume)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_attempt() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_delay(0), SimDuration::from_us(5));
        assert_eq!(p.backoff_delay(1), SimDuration::from_us(10));
        assert_eq!(p.backoff_delay(3), SimDuration::from_us(40));
        // Clamped shift: no overflow for absurd attempt counts.
        assert_eq!(p.backoff_delay(64), p.backoff_delay(20));
    }

    #[test]
    fn resume_is_timeout_plus_backoff() {
        let p = RetryPolicy::default();
        let t0 = SimTime::ZERO + SimDuration::from_us(100);
        assert_eq!(
            p.resume_at(t0, 0),
            t0 + SimDuration::from_us(30) + SimDuration::from_us(5)
        );
        assert!(p.resume_at(t0, 2) > p.resume_at(t0, 1));
    }
}
