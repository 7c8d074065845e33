//! std-vs-loom indirection for this crate's concurrency kernels (the
//! heap entry flag and the GC mark words).
//!
//! Re-exports `chameleon_telemetry::sync` (atomics and
//! [`UnsafeCell`](chameleon_telemetry::sync::UnsafeCell)); the `model`
//! feature of this crate enables `chameleon-telemetry/model`, so the
//! re-exports switch to the loom shim's scheduling-aware types together.

pub(crate) use chameleon_telemetry::sync::{AtomicBool, AtomicU32, Ordering, UnsafeCell};
