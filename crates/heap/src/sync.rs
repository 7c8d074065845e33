//! std-vs-loom indirection for this crate's concurrency kernels (the
//! heap entry flag, the GC mark words and the context stripe table).
//!
//! Re-exports `chameleon_telemetry::sync` (atomics, fences,
//! [`UnsafeCell`](chameleon_telemetry::sync::UnsafeCell)) and adds the
//! stripe table's `RwLock`: `parking_lot` normally, the loom shim's
//! scheduling-aware equivalent under `--features model`. The `model`
//! feature of this crate enables `chameleon-telemetry/model`, so both
//! halves always agree.

pub(crate) use chameleon_telemetry::sync::{
    AtomicBool, AtomicU32, AtomicU64, Ordering, UnsafeCell,
};

#[cfg(feature = "model")]
pub(crate) use loom::sync::RwLock;

#[cfg(not(feature = "model"))]
pub(crate) use parking_lot::RwLock;
