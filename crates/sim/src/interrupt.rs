//! Cooperative interruption of a synthesis run.
//!
//! A run has one control: the [`SimInterrupt`] installed on its thread, a
//! stop flag and an optional deadline. The batch engine installs one
//! around each job, holding the batch's stop flag, the job's budget and
//! the batch deadline. Everything the run does polls it: the flow and the
//! case runner at their phase boundaries, the solver loops once per
//! Newton iteration and transient step, so a hung solve cannot outlive
//! its budget. Living in a thread local, the control needs no handle in
//! any options struct or solver signature.
//!
//! With nothing installed, [`poll`] is one thread-local read — cheap next
//! to the LU factorisation every iteration performs anyway. Interruption
//! surfaces as [`crate::dc::DcError::Interrupted`], which the continuation
//! ladder propagates instead of swallowing into the next fallback.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a solve was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupted {
    /// The stop flag was raised (batch cancellation).
    Cancelled,
    /// The deadline passed (per-job budget).
    TimedOut,
}

impl fmt::Display for Interrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupted::Cancelled => write!(f, "cancelled"),
            Interrupted::TimedOut => write!(f, "timed out"),
        }
    }
}

/// A stop flag and/or deadline the solver loops poll cooperatively.
#[derive(Debug, Clone, Default)]
pub struct SimInterrupt {
    stop: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

impl SimInterrupt {
    /// No stop flag, no deadline — polling always succeeds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interrupt (as `Cancelled`) once `stop` turns true.
    pub fn with_stop(mut self, stop: Arc<AtomicBool>) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Interrupt (as `TimedOut`) once `deadline` passes.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Interrupt at `deadline` or at the deadline already set, whichever
    /// comes first: the merge rule for limits from different layers (a
    /// job's budget under a batch's or a request's deadline). The order
    /// of the calls does not matter.
    #[must_use]
    pub fn with_deadline_earliest(mut self, deadline: Instant) -> Self {
        self.deadline = Some(self.deadline.map_or(deadline, |d| d.min(deadline)));
        self
    }

    /// Check the flag and the clock. The stop flag wins when both apply.
    ///
    /// # Errors
    ///
    /// Returns the interruption reason when the flag is raised or the
    /// deadline has passed.
    pub fn check(&self) -> Result<(), Interrupted> {
        if let Some(stop) = &self.stop {
            if stop.load(Ordering::Relaxed) {
                return Err(Interrupted::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Interrupted::TimedOut);
            }
        }
        Ok(())
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<SimInterrupt>> = const { RefCell::new(None) };
}

/// Uninstalls (restoring any previously installed interrupt) on drop.
#[must_use = "the interrupt is uninstalled when the guard drops"]
#[derive(Debug)]
pub struct InterruptGuard {
    prev: Option<SimInterrupt>,
}

impl Drop for InterruptGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| *a.borrow_mut() = self.prev.take());
    }
}

/// Install `interrupt` for the current thread until the guard drops.
/// Nesting is fine: the previous interrupt is restored on drop.
pub fn install(interrupt: SimInterrupt) -> InterruptGuard {
    let prev = ACTIVE.with(|a| a.borrow_mut().replace(interrupt));
    InterruptGuard { prev }
}

/// Set this thread's interrupt aside until the guard drops, as if none
/// were installed here.
pub fn suspend() -> InterruptGuard {
    InterruptGuard {
        prev: ACTIVE.with(|a| a.borrow_mut().take()),
    }
}

/// Poll the installed interrupt; `Ok(())` when none is installed.
///
/// # Errors
///
/// Returns the interruption reason when the installed interrupt fires.
pub fn poll() -> Result<(), Interrupted> {
    ACTIVE.with(|a| match &*a.borrow() {
        Some(i) => i.check(),
        None => Ok(()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn poll_without_install_is_ok() {
        assert_eq!(poll(), Ok(()));
    }

    #[test]
    fn stop_flag_cancels() {
        let flag = Arc::new(AtomicBool::new(false));
        let _g = install(SimInterrupt::new().with_stop(flag.clone()));
        assert_eq!(poll(), Ok(()));
        flag.store(true, Ordering::Relaxed);
        assert_eq!(poll(), Err(Interrupted::Cancelled));
    }

    #[test]
    fn past_deadline_times_out() {
        let _g =
            install(SimInterrupt::new().with_deadline(Instant::now() - Duration::from_millis(1)));
        assert_eq!(poll(), Err(Interrupted::TimedOut));
    }

    #[test]
    fn the_earliest_deadline_wins_in_either_order() {
        let now = Instant::now();
        let (soon, late) = (now + Duration::from_secs(1), now + Duration::from_secs(60));
        // A job budget due before the batch deadline, then one due after.
        for (budget, batch) in [(soon, late), (late, soon)] {
            let budget_first = SimInterrupt::new()
                .with_deadline_earliest(budget)
                .with_deadline_earliest(batch);
            let batch_first = SimInterrupt::new()
                .with_deadline_earliest(batch)
                .with_deadline_earliest(budget);
            let budget_set = SimInterrupt::new()
                .with_deadline(budget)
                .with_deadline_earliest(batch);
            for merged in [budget_first, batch_first, budget_set] {
                assert_eq!(merged.deadline, Some(soon));
            }
        }
    }

    #[test]
    fn guard_restores_previous() {
        let flag = Arc::new(AtomicBool::new(true));
        let _outer = install(SimInterrupt::new().with_stop(flag));
        {
            let _inner = install(SimInterrupt::new());
            assert_eq!(poll(), Ok(()), "inner interrupt shadows the outer one");
        }
        assert_eq!(poll(), Err(Interrupted::Cancelled));
    }

    #[test]
    fn suspend_sets_the_interrupt_aside_until_the_guard_drops() {
        let _g = install(SimInterrupt::new().with_stop(Arc::new(AtomicBool::new(true))));
        {
            let _s = suspend();
            assert_eq!(poll(), Ok(()));
        }
        assert_eq!(poll(), Err(Interrupted::Cancelled));
    }
}
