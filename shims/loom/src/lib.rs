//! Offline loom-style bounded model checker (API subset).
//!
//! This shim reproduces the parts of the `loom` crate the workspace's
//! concurrency kernels need — [`model`], [`thread::spawn`],
//! [`sync::atomic`], [`sync::Mutex`] and [`cell::UnsafeCell`] — backed by an in-tree explorer instead of the
//! upstream crate, so model checking works without network access.
//!
//! # How it works
//!
//! [`Builder::check`] runs the model body repeatedly, once per *schedule*.
//! Each run executes on real OS threads serialized by a token: before every
//! visible operation (atomic access, fence, lock, `UnsafeCell` access) the
//! running thread asks the scheduler which thread performs the next
//! operation. Each such decision — and each choice of *which store a load
//! observes* under the C11-style weak-memory rules — is a branch point in a
//! depth-first search over all schedules, bounded by a preemption budget
//! and pruned with seen-state hashing.
//!
//! While executing, the runtime maintains:
//!
//! * **vector clocks** per thread, with release/acquire edges from atomics,
//!   fences (release-fence → relaxed-store and relaxed-load →
//!   acquire-fence synchronization), locks and thread spawn/join;
//! * **per-location store histories**, so relaxed and acquire loads may
//!   observe any coherence-eligible store, not just the latest — this is
//!   what lets the checker catch missing-fence bugs (e.g. a seqlock torn
//!   read) that a sequentially-consistent simulator can never produce;
//! * **FastTrack-style access epochs** per [`cell::UnsafeCell`], reporting
//!   a data race whenever two threads touch a cell without a
//!   happens-before edge and at least one access is a write.
//!
//! A detected race, deadlock, or a panic escaping the model body fails the
//! whole check with the offending schedule's failure message.
//!
//! # Differences from upstream loom
//!
//! * `sync::Mutex::lock` returns its guard directly (`parking_lot` style,
//!   no poison `Result`), matching the workspace's lock shim.
//! * [`cell::UnsafeCell`] adds `with_racy`, an intentionally unchecked read
//!   for seqlock-style readers whose races are resolved by validation.
//! * Outside a model run every primitive degrades to its plain `std`
//!   behaviour (passthrough), so crates compiled with their `model` feature
//!   still pass their ordinary test suites.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod cell;
mod rt;
pub mod sync;
pub mod thread;

pub use rt::{Builder, Report};

/// Runs `body` under the default [`Builder`], panicking on any failure.
///
/// Mirrors `loom::model`. Use [`Builder::check`] to tune bounds or to
/// inspect how many schedules were explored.
pub fn model<F>(body: F)
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::default().check(body);
}

/// Whether a caught panic payload is the checker's internal
/// schedule-abort sentinel.
///
/// Model code that uses `std::panic::catch_unwind` around an *expected*
/// panic (e.g. asserting a contract violation fires) must re-raise the
/// payload when this returns `true`, or aborted schedules would be
/// swallowed:
///
/// ```ignore
/// if let Err(e) = std::panic::catch_unwind(|| enter()) {
///     if loom::is_abort(&e) {
///         std::panic::resume_unwind(e);
///     }
/// }
/// ```
pub fn is_abort(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.downcast_ref::<rt::AbortSchedule>().is_some()
}

/// Whether the current thread is executing inside a model run.
///
/// Lets instrumented code keep model-only assertions (which rely on the
/// explorer's deterministic memory semantics) out of passthrough
/// executions of the same `--features model` build.
pub fn is_modeling() -> bool {
    rt::in_model()
}
