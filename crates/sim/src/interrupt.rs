//! Cooperative interruption of long solver loops.
//!
//! The batch engine gives each job a stop flag and an optional deadline
//! (`losac-core`'s `FlowControl`), but those used to be polled only at
//! phase boundaries — a Newton iteration that refuses to converge, or a
//! continuation ladder grinding through its rungs, could blow far past a
//! job's budget. This module closes that hole without threading a control
//! handle through every solver signature (the option structs are `Copy`
//! and public): the controller installs a [`SimInterrupt`] in a thread
//! local, and the inner loops call [`poll`] once per Newton iteration /
//! transient step.
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

    /// Whether polling can ever fail.
    pub fn is_armed(&self) -> bool {
        self.stop.is_some() || self.deadline.is_some()
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

/// The interrupt installed on this thread, if any — used to re-install it
/// on worker threads a solver or evaluator spawns, so budgets follow the
/// work across threads.
pub fn current() -> Option<SimInterrupt> {
    ACTIVE.with(|a| a.borrow().clone())
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
            assert!(current().is_none());
            assert_eq!(poll(), Ok(()));
        }
        assert_eq!(poll(), Err(Interrupted::Cancelled));
    }

    #[test]
    fn current_clones_the_installed_interrupt() {
        assert!(current().is_none());
        let _g = install(SimInterrupt::new().with_deadline(Instant::now()));
        assert!(current().is_some_and(|i| i.is_armed()));
    }
}
