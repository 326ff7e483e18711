//! Named fault-injection points.
//!
//! A fail point is a named site inside production code — `sim.dc.newton`,
//! `sizing.evaluate`, `flow.layout_call` — at which a test can inject a
//! failure: an analysis error, poisoned NaN numbers, a panic, or an
//! artificial delay (a "hung solver"). The chaos suite in `losac-engine`
//! drives batches through seeded schedules of these injections to prove
//! that failures come back typed, panics stay inside their job and
//! deadlines stop hung solvers.
//!
//! ## Determinism
//!
//! The registry is **thread-local**: a [`FailPlan`] installed by a worker
//! only fires on that worker's thread, so a job's injected faults are a
//! pure function of its own plan and completely independent of how jobs
//! are scheduled across workers. That is what lets the chaos suite assert
//! bitwise-identical batch outcomes at 1 and 4 workers.
//!
//! ## Cost when unarmed
//!
//! Sites are written as
//!
//! ```ignore
//! if let Some(action) = losac_obs::failpoint::hit("sim.dc.newton") { ... }
//! ```
//!
//! and are always compiled. [`hit`] first reads a process-wide count of
//! installed plans; while it is zero — every production run — a site
//! costs that one relaxed load, the same as a disabled span. A `Relaxed`
//! load suffices because a plan only fires on the thread that installed
//! it, and a thread always sees its own increment.

use crate::Counter;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Injections that actually fired (any action, any site).
static FAILPOINT_FIRED: Counter = Counter::new("obs.failpoint.fired");

/// What an armed fail point does when execution reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// The site returns its natural failure (a singular system, a failed
    /// analysis, …). Interpretation is up to the site.
    Fail,
    /// The site poisons its numbers with NaN where it can; sites with no
    /// numeric channel treat this like [`FailAction::Fail`].
    Nan,
    /// Panic at the site (handled inside [`hit`], which never returns).
    Panic,
    /// Sleep for the given duration, then continue normally — a hung
    /// solver, handled inside [`hit`], which returns `None` afterwards.
    Delay(Duration),
}

/// One armed injection: fire `action` at `site`, after letting the first
/// `skip` hits pass, for the next `count` hits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailSpec {
    /// Dotted site name, e.g. `sim.dc.newton` (crate.module.site).
    pub site: String,
    /// What to do when the window is open.
    pub action: FailAction,
    /// Hits to let through before firing.
    pub skip: u64,
    /// Hits to fire on once armed (`u64::MAX` = forever).
    pub count: u64,
}

/// A schedule of injections, installed per thread with [`install`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailPlan {
    specs: Vec<FailSpec>,
}

impl FailPlan {
    /// An empty plan (installing it still clears any previous plan).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fire `action` on every hit of `site`.
    pub fn always(self, site: &str, action: FailAction) -> Self {
        self.window(site, action, 0, u64::MAX)
    }

    /// Fire `action` on the first hit of `site` only.
    pub fn once(self, site: &str, action: FailAction) -> Self {
        self.window(site, action, 0, 1)
    }

    /// Fire `action` on hits `skip .. skip + count` of `site`.
    pub fn window(mut self, site: &str, action: FailAction, skip: u64, count: u64) -> Self {
        self.specs.push(FailSpec {
            site: site.to_owned(),
            action,
            skip,
            count,
        });
        self
    }

    /// Number of armed specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// A spec plus its per-installation hit counter.
#[derive(Debug)]
struct Armed {
    spec: FailSpec,
    hits: u64,
}

thread_local! {
    static ACTIVE: RefCell<Vec<Armed>> = const { RefCell::new(Vec::new()) };
}

/// Plans installed and not yet uninstalled, over all threads.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

/// Uninstalls the plan (restoring whatever was active before) on drop.
#[must_use = "the plan is uninstalled when the guard drops"]
#[derive(Debug)]
pub struct FailGuard {
    prev: Vec<Armed>,
}

impl Drop for FailGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| *a.borrow_mut() = std::mem::take(&mut self.prev));
        INSTALLED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Install `plan` on the current thread, replacing (and on guard drop
/// restoring) any previously installed plan. Hit counters start at zero
/// and persist across every [`hit`] until the guard drops — so a
/// `once(..)` spec fires on the first hit of the job that installed it
/// and never again within that job.
pub fn install(plan: FailPlan) -> FailGuard {
    let armed = plan
        .specs
        .into_iter()
        .map(|spec| Armed { spec, hits: 0 })
        .collect();
    let prev = ACTIVE.with(|a| std::mem::replace(&mut *a.borrow_mut(), armed));
    INSTALLED.fetch_add(1, Ordering::Relaxed);
    FailGuard { prev }
}

/// Set this thread's plan aside until the guard drops, as if none were
/// installed here. Unlike installing an empty plan, this leaves the
/// process-wide count of installed plans alone, so it sends no [`hit`]
/// down the armed path. The plan comes back with its hit counters.
pub fn suspend() -> SuspendGuard {
    SuspendGuard {
        plan: ACTIVE.with(|a| std::mem::take(&mut *a.borrow_mut())),
    }
}

/// Restores the plan [`suspend`] set aside, on drop.
#[must_use = "the plan is restored when the guard drops"]
#[derive(Debug)]
pub struct SuspendGuard {
    plan: Vec<Armed>,
}

impl Drop for SuspendGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| *a.borrow_mut() = std::mem::take(&mut self.plan));
    }
}

/// Evaluate the fail point `site` on the current thread.
///
/// Returns `Some(Fail | Nan)` when an armed spec's window covers this
/// hit; [`FailAction::Delay`] sleeps here and returns `None`;
/// [`FailAction::Panic`] panics here (with a message naming the site).
/// With no plan installed on any thread this is one relaxed load.
#[inline]
pub fn hit(site: &str) -> Option<FailAction> {
    if INSTALLED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    hit_armed(site)
}

/// [`hit`] while some thread has a plan installed: match `site` against
/// this thread's plan and act on the first open window.
#[cold]
#[inline(never)]
fn hit_armed(site: &str) -> Option<FailAction> {
    let action = ACTIVE.with(|a| {
        let mut armed = a.borrow_mut();
        let mut fired = None;
        for spec in armed.iter_mut().filter(|s| s.spec.site == site) {
            let n = spec.hits;
            spec.hits += 1;
            let open = n >= spec.spec.skip && n - spec.spec.skip < spec.spec.count;
            if open && fired.is_none() {
                fired = Some(spec.spec.action);
            }
        }
        fired
    })?;
    FAILPOINT_FIRED.incr();
    match action {
        FailAction::Panic => panic!("failpoint `{site}`: injected panic"),
        FailAction::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        other => Some(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_plan_is_silent() {
        assert_eq!(hit("obs.test.nowhere"), None);
    }

    #[test]
    fn window_skips_then_fires_then_expires() {
        let _g = install(FailPlan::new().window("obs.test.site", FailAction::Fail, 1, 2));
        assert_eq!(hit("obs.test.site"), None, "skip the first hit");
        assert_eq!(hit("obs.test.site"), Some(FailAction::Fail));
        assert_eq!(hit("obs.test.site"), Some(FailAction::Fail));
        assert_eq!(hit("obs.test.site"), None, "window spent");
        assert_eq!(hit("obs.test.other"), None, "other sites untouched");
    }

    #[test]
    fn guard_restores_previous_plan() {
        let _outer = install(FailPlan::new().always("obs.test.outer", FailAction::Fail));
        {
            let _inner = install(FailPlan::new());
            assert_eq!(hit("obs.test.outer"), None, "inner plan shadows outer");
        }
        assert_eq!(hit("obs.test.outer"), Some(FailAction::Fail));
    }

    #[test]
    fn a_suspended_plan_comes_back_with_its_hits() {
        let _g = install(FailPlan::new().window("obs.test.suspend", FailAction::Fail, 1, 1));
        assert_eq!(hit("obs.test.suspend"), None, "skip the first hit");
        {
            let _s = suspend();
            assert_eq!(hit("obs.test.suspend"), None, "no plan while suspended");
        }
        assert_eq!(hit("obs.test.suspend"), Some(FailAction::Fail));
    }

    #[test]
    fn delay_sleeps_and_continues() {
        let _g = install(FailPlan::new().once(
            "obs.test.delay",
            FailAction::Delay(Duration::from_millis(5)),
        ));
        let t0 = std::time::Instant::now();
        assert_eq!(hit("obs.test.delay"), None);
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(hit("obs.test.delay"), None, "one-shot delay spent");
    }

    #[test]
    #[should_panic(expected = "injected panic")]
    fn panic_action_panics_with_site_name() {
        let _g = install(FailPlan::new().once("obs.test.panic", FailAction::Panic));
        let _ = hit("obs.test.panic");
    }
}
