//! Model-checking runtime: cooperative scheduler, DFS schedule explorer,
//! C11-style weak-memory store histories and vector-clock race detection.
//!
//! One [`Rt`] instance lives per *execution* (one explored schedule). Real
//! OS threads run the model code, serialized by a token: exactly one
//! thread is `active` at any moment, and every visible operation passes
//! through [`Rt::op`], which performs the operation under the state lock
//! and then picks which thread runs next. Each pick — and each choice of
//! which store a load observes — is recorded as a [`Branch`]; after the
//! execution finishes the driver advances the deepest incomplete branch
//! and replays, depth-first, until the tree is exhausted.

use std::any::Any;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};

/// Maximum model threads per execution (including the body thread).
pub(crate) const MAX_THREADS: usize = 8;

/// How many of the newest coherence-eligible stores a relaxed/acquire load
/// may observe. One stale generation is enough to exhibit every
/// missing-fence bug the kernels can have; a wider window only multiplies
/// the schedule count.
const ELIGIBLE_WINDOW: usize = 3;

/// Vector clock: one component per model thread.
pub(crate) type VClock = [u32; MAX_THREADS];

fn join(dst: &mut VClock, src: &VClock) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = (*d).max(*s);
    }
}

/// Sentinel panic payload used to unwind a thread out of an aborted
/// schedule. Never reported as a model failure.
pub(crate) struct AbortSchedule;

fn panic_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

// ---------------------------------------------------------------------------
// Thread-local model context
// ---------------------------------------------------------------------------

thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<Rt>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// Whether the calling OS thread is currently a model thread.
pub(crate) fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

pub(crate) fn ctx() -> Option<(Arc<Rt>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(rt: Arc<Rt>, tid: usize) {
    CTX.with(|c| *c.borrow_mut() = Some((rt, tid)));
}

fn clear_ctx() {
    CTX.with(|c| *c.borrow_mut() = None);
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

/// One recorded decision: `chosen` out of `total` alternatives. `total ==
/// 1` marks forced or pruned points that DFS never revisits.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Branch {
    chosen: usize,
    total: usize,
}

/// One store in a location's history.
#[derive(Clone)]
struct Store {
    value: u64,
    tid: usize,
    /// The storing thread's own clock component at store time; `clock[tid]
    /// >= stamp` means the store is in the observer's causal past.
    stamp: u32,
    /// Clock an acquire-load of this store joins (release store: the full
    /// clock; relaxed store: the clock at the last release fence).
    rel: VClock,
}

struct LocState {
    stores: Vec<Store>,
    /// Per-thread index of the newest observed store (coherence floor).
    last_seen: [usize; MAX_THREADS],
}

/// FastTrack-style access epochs for one `UnsafeCell`.
#[derive(Default)]
struct CellState {
    write: Option<(usize, u32)>,
    reads: [u32; MAX_THREADS],
}

#[derive(Default)]
struct MutexState {
    owner: Option<usize>,
    /// Join of every past releaser's clock; the next owner acquires it.
    release: VClock,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Block {
    Mutex(usize),
    Join(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Status {
    Ready,
    Blocked(Block),
    Finished,
}

struct ThreadState {
    status: Status,
    clock: VClock,
    /// Clock snapshot at the last `fence(Release)`; attached to subsequent
    /// relaxed stores.
    rel_fence: VClock,
    /// Accumulated release clocks of relaxed loads; joined into the clock
    /// at the next `fence(Acquire)`.
    acq_pending: VClock,
}

pub(crate) struct RtState {
    threads: Vec<ThreadState>,
    active: usize,
    path: Vec<Branch>,
    prefix: Vec<Branch>,
    preemptions: usize,
    preemption_bound: usize,
    locations: Vec<LocState>,
    cells: Vec<CellState>,
    mutexes: Vec<MutexState>,
    failure: Option<String>,
    seen: HashSet<u64>,
    prune: bool,
    pruned: u64,
    ops_total: u64,
    max_ops: u64,
}

impl RtState {
    fn fail(&mut self, msg: String) {
        if self.failure.is_none() {
            self.failure = Some(msg);
        }
    }

    /// Records one decision with `total` alternatives, following the replay
    /// prefix when still inside it. Returns the chosen index.
    fn decide(&mut self, total: usize) -> usize {
        if total <= 1 {
            return 0;
        }
        let at = self.path.len();
        if at < self.prefix.len() {
            let b = self.prefix[at];
            if b.total != total {
                self.fail(format!(
                    "internal: schedule replay diverged at decision {at} \
                     (recorded {} alternatives, now {total}); the model body \
                     must be deterministic apart from scheduling",
                    b.total
                ));
                self.path.push(Branch { chosen: 0, total });
                return 0;
            }
            self.path.push(b);
            b.chosen
        } else {
            self.path.push(Branch { chosen: 0, total });
            0
        }
    }

    /// Records a scheduling decision. Unlike [`RtState::decide`], replay
    /// takes the recorded branch verbatim without re-deriving the
    /// alternative count: whether a point was forced (preemption budget)
    /// or pruned (seen state) depends on sets that differ between
    /// executions, but the recorded branch is always valid to follow.
    fn decide_sched(&mut self, total: usize) -> usize {
        let at = self.path.len();
        if at < self.prefix.len() {
            let b = self.prefix[at];
            self.path.push(b);
            b.chosen
        } else {
            self.path.push(Branch { chosen: 0, total });
            0
        }
    }

    /// Hash of the scheduler-visible state, used to prune already-seen
    /// states. Cross-thread clock components are deliberately excluded
    /// (they encode history, which would defeat pruning), so pruning is a
    /// heuristic: it can skip interleavings whose only difference is the
    /// happens-before relation. Disable it via `Builder::state_pruning`
    /// when exhaustiveness matters more than speed.
    fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.active.hash(&mut h);
        self.preemptions.hash(&mut h);
        for (i, t) in self.threads.iter().enumerate() {
            t.status.hash(&mut h);
            t.clock[i].hash(&mut h);
        }
        for l in &self.locations {
            l.stores.len().hash(&mut h);
            if let Some(s) = l.stores.last() {
                s.value.hash(&mut h);
            }
            l.last_seen.hash(&mut h);
        }
        for c in &self.cells {
            c.write.hash(&mut h);
            c.reads.hash(&mut h);
        }
        for m in &self.mutexes {
            m.owner.hash(&mut h);
        }
        h.finish()
    }

    fn all_finished(&self) -> bool {
        self.threads
            .iter()
            .all(|t| matches!(t.status, Status::Finished))
    }

    // --- registration -----------------------------------------------------

    fn register_thread(&mut self, parent: usize) -> usize {
        let tid = self.threads.len();
        assert!(
            tid < MAX_THREADS,
            "model supports at most {MAX_THREADS} threads"
        );
        let clock = self.threads[parent].clock;
        self.threads.push(ThreadState {
            status: Status::Ready,
            clock,
            rel_fence: [0; MAX_THREADS],
            acq_pending: [0; MAX_THREADS],
        });
        tid
    }

    fn register_loc(&mut self, init: u64, me: usize) -> usize {
        let id = self.locations.len();
        let t = &self.threads[me];
        self.locations.push(LocState {
            stores: vec![Store {
                value: init,
                tid: me,
                stamp: t.clock[me],
                rel: t.clock,
            }],
            last_seen: [0; MAX_THREADS],
        });
        id
    }

    // --- atomics ----------------------------------------------------------

    fn load_reads_acquire(&mut self, me: usize, order: Ordering, rel: VClock) {
        let t = &mut self.threads[me];
        match order {
            Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst => join(&mut t.clock, &rel),
            _ => join(&mut t.acq_pending, &rel),
        }
    }

    fn atomic_load(&mut self, loc: usize, order: Ordering, me: usize) -> u64 {
        let n = self.locations[loc].stores.len();
        let lo = if matches!(order, Ordering::SeqCst) {
            n - 1
        } else {
            // Coherence floor: never older than already observed, never
            // older than a store that happens-before this load.
            let clock = self.threads[me].clock;
            let l = &self.locations[loc];
            let mut floor = l.last_seen[me];
            for (j, s) in l.stores.iter().enumerate().skip(floor + 1) {
                if clock[s.tid] >= s.stamp {
                    floor = j;
                }
            }
            floor.max(n.saturating_sub(ELIGIBLE_WINDOW))
        };
        // Choice 0 reads the newest store, so the first DFS path is the
        // sequentially-consistent execution.
        let pick = self.decide(n - lo);
        let idx = n - 1 - pick;
        self.locations[loc].last_seen[me] = idx;
        let s = self.locations[loc].stores[idx].clone();
        self.load_reads_acquire(me, order, s.rel);
        s.value
    }

    fn store_rel_clock(&self, me: usize, order: Ordering) -> VClock {
        let t = &self.threads[me];
        match order {
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst => t.clock,
            _ => t.rel_fence,
        }
    }

    fn atomic_store(&mut self, loc: usize, value: u64, order: Ordering, me: usize) {
        let rel = self.store_rel_clock(me, order);
        let stamp = self.threads[me].clock[me];
        let l = &mut self.locations[loc];
        l.last_seen[me] = l.stores.len();
        l.stores.push(Store {
            value,
            tid: me,
            stamp,
            rel,
        });
    }

    fn atomic_rmw(
        &mut self,
        loc: usize,
        order: Ordering,
        me: usize,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        // Atomicity: an RMW always reads the latest store.
        let prev = self.locations[loc].stores.last().unwrap().clone();
        self.load_reads_acquire(me, order, prev.rel);
        // Release-sequence continuation: the new store carries the read
        // store's release clock in addition to its own.
        let mut rel = self.store_rel_clock(me, order);
        join(&mut rel, &prev.rel);
        let stamp = self.threads[me].clock[me];
        let l = &mut self.locations[loc];
        l.last_seen[me] = l.stores.len();
        l.stores.push(Store {
            value: f(prev.value),
            tid: me,
            stamp,
            rel,
        });
        prev.value
    }

    fn fence(&mut self, order: Ordering, me: usize) {
        let t = &mut self.threads[me];
        if matches!(
            order,
            Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
        ) {
            let pending = t.acq_pending;
            join(&mut t.clock, &pending);
        }
        if matches!(
            order,
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
        ) {
            t.rel_fence = t.clock;
        }
    }

    // --- UnsafeCell race detection ---------------------------------------

    fn cell_access(&mut self, cell: usize, write: bool, me: usize) {
        let clock = self.threads[me].clock;
        let c = &mut self.cells[cell];
        if let Some((t, stamp)) = c.write {
            if t != me && clock[t] < stamp {
                self.fail(format!(
                    "data race: thread {me} {} UnsafeCell #{cell} concurrently \
                     with thread {t}'s write (no happens-before edge)",
                    if write { "writes" } else { "reads" }
                ));
                return;
            }
        }
        if write {
            for (u, c_read) in c.reads.iter().enumerate() {
                if u != me && *c_read > clock[u] {
                    self.fail(format!(
                        "data race: thread {me} writes UnsafeCell #{cell} \
                         concurrently with thread {u}'s read (no happens-before edge)"
                    ));
                    return;
                }
            }
            c.write = Some((me, clock[me]));
            c.reads = [0; MAX_THREADS];
        } else {
            c.reads[me] = clock[me];
        }
    }
}

// ---------------------------------------------------------------------------
// The runtime proper
// ---------------------------------------------------------------------------

pub(crate) struct Rt {
    state: Mutex<RtState>,
    cv: Condvar,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Rt {
    fn new(b: &Builder, prefix: Vec<Branch>, seen: HashSet<u64>) -> Rt {
        Rt {
            state: Mutex::new(RtState {
                threads: vec![ThreadState {
                    status: Status::Ready,
                    clock: [0; MAX_THREADS],
                    rel_fence: [0; MAX_THREADS],
                    acq_pending: [0; MAX_THREADS],
                }],
                active: 0,
                path: Vec::new(),
                prefix,
                preemptions: 0,
                preemption_bound: b.preemption_bound,
                locations: Vec::new(),
                cells: Vec::new(),
                mutexes: Vec::new(),
                failure: None,
                seen,
                prune: b.state_pruning,
                pruned: 0,
                ops_total: 0,
                max_ops: b.max_ops,
            }),
            cv: Condvar::new(),
            handles: Mutex::new(Vec::new()),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, RtState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn abort(&self, st: MutexGuard<'_, RtState>) -> ! {
        self.cv.notify_all();
        drop(st);
        panic::panic_any(AbortSchedule);
    }

    /// Executes one visible operation under the token discipline: wait for
    /// the token, advance the clock, run `f` against the state, then pick
    /// the next thread to run. Panics with [`AbortSchedule`] when the
    /// schedule has failed.
    pub(crate) fn op<R>(self: &Arc<Self>, f: impl FnOnce(&mut RtState, usize) -> R) -> R {
        let (_, me) = ctx().expect("model operation outside a model thread");
        let mut st = self.lock_state();
        let mut dead = false;
        loop {
            if st.failure.is_some() {
                // A panicking thread must not panic again from a drop-path
                // operation (that would abort the process): once the
                // schedule has failed, run its remaining drop-path ops
                // unscheduled — the execution's results are discarded.
                if std::thread::panicking() {
                    dead = true;
                    break;
                }
                self.abort(st);
            }
            if st.active == me {
                break;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.threads[me].clock[me] += 1;
        st.ops_total += 1;
        if st.ops_total > st.max_ops {
            let cap = st.max_ops;
            st.fail(format!(
                "model execution exceeded {cap} operations; the body likely \
                 spins on a condition the scheduler never satisfies"
            ));
        }
        let r = f(&mut st, me);
        if dead {
            self.cv.notify_all();
            drop(st);
            return r;
        }
        if st.failure.is_some() {
            self.abort(st);
        }
        self.pick_next(&mut st, me);
        self.cv.notify_all();
        drop(st);
        r
    }

    /// Chooses which thread performs the next operation. A switch away
    /// from a still-runnable thread consumes preemption budget; with the
    /// budget exhausted the current thread keeps running.
    fn pick_next(&self, st: &mut RtState, me: usize) {
        let me_ready = matches!(st.threads[me].status, Status::Ready);
        // Candidate order: current thread first (choice 0 = run on), then
        // the rest by id, so the first DFS path is the no-preemption one.
        let mut candidates: Vec<usize> = Vec::new();
        if me_ready {
            candidates.push(me);
        }
        for (i, t) in st.threads.iter().enumerate() {
            if i != me && matches!(t.status, Status::Ready) {
                candidates.push(i);
            }
        }
        if candidates.is_empty() {
            if st
                .threads
                .iter()
                .any(|t| matches!(t.status, Status::Blocked(_)))
            {
                let waits: Vec<String> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| match t.status {
                        Status::Blocked(b) => Some(format!("thread {i} on {b:?}")),
                        _ => None,
                    })
                    .collect();
                st.fail(format!("deadlock: {}", waits.join(", ")));
            }
            return;
        }
        let forced = me_ready && st.preemptions >= st.preemption_bound;
        let mut total = candidates.len();
        if forced {
            total = 1;
        } else if total > 1 && st.prune && st.path.len() >= st.prefix.len() {
            let fp = st.fingerprint();
            if !st.seen.insert(fp) {
                st.pruned += 1;
                total = 1;
            }
        }
        let chosen = st.decide_sched(total);
        let next = candidates[chosen.min(candidates.len() - 1)];
        if next != me && me_ready {
            st.preemptions += 1;
        }
        st.active = next;
    }

    // --- blocking primitives ---------------------------------------------

    pub(crate) fn mutex_lock(self: &Arc<Self>, id: usize) {
        loop {
            let acquired = self.op(|st, me| {
                if st.mutexes[id].owner.is_none() {
                    st.mutexes[id].owner = Some(me);
                    let rel = st.mutexes[id].release;
                    join(&mut st.threads[me].clock, &rel);
                    true
                } else {
                    st.threads[me].status = Status::Blocked(Block::Mutex(id));
                    false
                }
            });
            if acquired {
                return;
            }
        }
    }

    pub(crate) fn mutex_try_lock(self: &Arc<Self>, id: usize) -> bool {
        self.op(|st, me| {
            if st.mutexes[id].owner.is_none() {
                st.mutexes[id].owner = Some(me);
                let rel = st.mutexes[id].release;
                join(&mut st.threads[me].clock, &rel);
                true
            } else {
                false
            }
        })
    }

    pub(crate) fn mutex_unlock(self: &Arc<Self>, id: usize) {
        self.op(|st, me| {
            debug_assert_eq!(st.mutexes[id].owner, Some(me));
            st.mutexes[id].owner = None;
            let clock = st.threads[me].clock;
            join(&mut st.mutexes[id].release, &clock);
            wake(st, Block::Mutex(id));
        });
    }

    pub(crate) fn join_thread(self: &Arc<Self>, tid: usize) {
        loop {
            let done = self.op(|st, me| {
                if matches!(st.threads[tid].status, Status::Finished) {
                    let c = st.threads[tid].clock;
                    join(&mut st.threads[me].clock, &c);
                    true
                } else {
                    st.threads[me].status = Status::Blocked(Block::Join(tid));
                    false
                }
            });
            if done {
                return;
            }
        }
    }

    /// Marks `tid` finished. Consumes the thread's panic payload, if any:
    /// a real panic fails the schedule, the [`AbortSchedule`] sentinel does
    /// not.
    fn finish_thread(self: &Arc<Self>, tid: usize, payload: Option<Box<dyn Any + Send>>) {
        let mut st = self.lock_state();
        if let Some(p) = payload {
            if p.downcast_ref::<AbortSchedule>().is_none() {
                let msg = panic_message(p.as_ref());
                st.fail(format!("thread {tid} panicked: {msg}"));
            }
        }
        loop {
            if st.failure.is_some() {
                st.threads[tid].status = Status::Finished;
                self.cv.notify_all();
                return;
            }
            if st.active == tid {
                break;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.threads[tid].status = Status::Finished;
        wake(&mut st, Block::Join(tid));
        self.pick_next(&mut st, tid);
        self.cv.notify_all();
    }
}

fn wake(st: &mut RtState, reason: Block) {
    for t in st.threads.iter_mut() {
        if t.status == Status::Blocked(reason) {
            t.status = Status::Ready;
        }
    }
}

// ---------------------------------------------------------------------------
// Public helpers used by sync/cell/thread modules
// ---------------------------------------------------------------------------

/// Lazily resolves an object's runtime id through `slot` (0 = not yet
/// registered, otherwise id + 1), registering inside a single scheduled op
/// the first time. Registration must not go through a blocking std
/// primitive such as `OnceLock::get_or_init`: the initializer would perform
/// a scheduling op and deschedule mid-initialization, and a second model
/// thread reaching the same `OnceLock` then blocks at OS level while
/// holding the scheduler token — deadlocking the whole run. The sentinel
/// plus the in-op double check serializes racing registrations through the
/// scheduler instead.
fn lazy_id(
    slot: &std::sync::atomic::AtomicUsize,
    register: impl FnOnce(&mut RtState, usize) -> usize,
) -> Option<usize> {
    let (rt, _) = ctx()?;
    match slot.load(Ordering::Relaxed) {
        0 => Some(rt.op(|st, me| match slot.load(Ordering::Relaxed) {
            0 => {
                let id = register(st, me);
                slot.store(id + 1, Ordering::Relaxed);
                id
            }
            n => n - 1,
        })),
        n => Some(n - 1),
    }
}

pub(crate) fn lazy_loc(
    slot: &std::sync::atomic::AtomicUsize,
    init: impl FnOnce() -> u64,
) -> Option<usize> {
    lazy_id(slot, |st, me| st.register_loc(init(), me))
}

pub(crate) fn lazy_mutex(slot: &std::sync::atomic::AtomicUsize) -> Option<usize> {
    lazy_id(slot, |st, _| {
        st.mutexes.push(MutexState::default());
        st.mutexes.len() - 1
    })
}

pub(crate) fn lazy_cell(slot: &std::sync::atomic::AtomicUsize) -> Option<usize> {
    lazy_id(slot, |st, _| {
        st.cells.push(CellState::default());
        st.cells.len() - 1
    })
}

pub(crate) fn load(loc: usize, order: Ordering) -> u64 {
    let (rt, _) = ctx().expect("model atomic used outside a model run");
    rt.op(|st, me| st.atomic_load(loc, order, me))
}

pub(crate) fn store(loc: usize, value: u64, order: Ordering) {
    let (rt, _) = ctx().expect("model atomic used outside a model run");
    rt.op(|st, me| st.atomic_store(loc, value, order, me));
}

pub(crate) fn rmw(loc: usize, order: Ordering, f: impl FnOnce(u64) -> u64) -> u64 {
    let (rt, _) = ctx().expect("model atomic used outside a model run");
    rt.op(|st, me| st.atomic_rmw(loc, order, me, f))
}

pub(crate) fn fence(order: Ordering) {
    if let Some((rt, _)) = ctx() {
        rt.op(|st, me| st.fence(order, me));
    } else {
        std::sync::atomic::fence(order);
    }
}

pub(crate) fn cell_access(cell: usize, write: bool) {
    let (rt, _) = ctx().expect("model cell used outside a model run");
    rt.op(|st, me| st.cell_access(cell, write, me));
}

/// A scheduling point without any memory effect: used for racy-by-design
/// reads (seqlock readers) and `thread::yield_now`.
pub(crate) fn yield_point() {
    let (rt, _) = ctx().expect("model yield outside a model run");
    rt.op(|_, _| ());
}

pub(crate) fn lock_mutex(id: usize) {
    let (rt, _) = ctx().expect("model mutex used outside a model run");
    rt.mutex_lock(id);
}

pub(crate) fn try_lock_mutex(id: usize) -> bool {
    let (rt, _) = ctx().expect("model mutex used outside a model run");
    rt.mutex_try_lock(id)
}

pub(crate) fn unlock_mutex(id: usize) {
    let (rt, _) = ctx().expect("model mutex used outside a model run");
    rt.mutex_unlock(id);
}

/// Spawns a model thread running `f`; returns its tid. Used by
/// `thread::spawn` (which also wires the result slot).
pub(crate) fn spawn_model(f: impl FnOnce() + Send + 'static) -> usize {
    let (rt, _) = ctx().expect("spawn_model outside a model run");
    let tid = rt.op(|st, me| st.register_thread(me));
    let rt2 = Arc::clone(&rt);
    let handle = std::thread::spawn(move || {
        set_ctx(Arc::clone(&rt2), tid);
        let out = panic::catch_unwind(AssertUnwindSafe(f));
        rt2.finish_thread(tid, out.err());
        clear_ctx();
    });
    rt.handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(handle);
    tid
}

pub(crate) fn join_model(tid: usize) {
    let (rt, _) = ctx().expect("join outside a model run");
    rt.join_thread(tid);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Exploration statistics returned by [`Builder::check`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Report {
    /// Distinct schedules executed to completion.
    pub schedules: u64,
    /// Scheduling points where a previously seen state suppressed
    /// branching.
    pub pruned: u64,
}

/// Configures and runs a bounded model check.
#[derive(Debug, Clone)]
pub struct Builder {
    /// Maximum voluntary context switches away from a runnable thread per
    /// execution. 2–3 catches virtually all mutual-exclusion and ordering
    /// bugs; each increment multiplies the schedule count.
    pub preemption_bound: usize,
    /// Hard cap on explored schedules (safety valve, not a target).
    pub max_schedules: u64,
    /// Per-execution operation budget; exceeding it fails the check
    /// (catches schedules that livelock).
    pub max_ops: u64,
    /// Seen-state hash pruning (see `RtState::fingerprint`). On by
    /// default; switch off to force a fully exhaustive bounded search.
    pub state_pruning: bool,
}

impl Default for Builder {
    fn default() -> Self {
        Builder {
            preemption_bound: 2,
            max_schedules: 500_000,
            max_ops: 100_000,
            state_pruning: true,
        }
    }
}

/// Computes the next DFS prefix: advance the deepest incomplete decision,
/// dropping everything beneath it. `None` when the tree is exhausted.
fn advance(mut path: Vec<Branch>) -> Option<Vec<Branch>> {
    while let Some(b) = path.pop() {
        if b.chosen + 1 < b.total {
            path.push(Branch {
                chosen: b.chosen + 1,
                total: b.total,
            });
            return Some(path);
        }
    }
    None
}

/// Silences the default panic printer on model threads: expected contract
/// panics and schedule aborts fire on every explored schedule, and the
/// driver reports real failures itself.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !in_model() {
                prev(info);
            }
        }));
    });
}

impl Builder {
    /// Runs `body` once per schedule until the DFS tree is exhausted.
    ///
    /// # Panics
    ///
    /// Panics with the failing schedule's diagnostic when any schedule
    /// detects a data race, deadlock, divergence, or a model-thread panic.
    pub fn check<F>(&self, body: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        assert!(
            !in_model(),
            "nested loom::model calls are not supported by this shim"
        );
        install_quiet_hook();
        let body = Arc::new(body);
        let mut prefix: Vec<Branch> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        let mut report = Report::default();
        loop {
            report.schedules += 1;
            let rt = Arc::new(Rt::new(
                self,
                std::mem::take(&mut prefix),
                std::mem::take(&mut seen),
            ));
            let rt_body = Arc::clone(&rt);
            let b = Arc::clone(&body);
            let handle = std::thread::spawn(move || {
                set_ctx(Arc::clone(&rt_body), 0);
                let out = panic::catch_unwind(AssertUnwindSafe(|| b()));
                rt_body.finish_thread(0, out.err());
                clear_ctx();
            });
            rt.handles
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(handle);
            {
                let mut st = rt.lock_state();
                while !st.all_finished() {
                    st = rt.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            }
            let handles: Vec<_> = rt
                .handles
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .drain(..)
                .collect();
            for h in handles {
                let _ = h.join();
            }
            let (path, failure) = {
                let mut st = rt.lock_state();
                seen = std::mem::take(&mut st.seen);
                report.pruned += st.pruned;
                (std::mem::take(&mut st.path), st.failure.take())
            };
            if let Some(msg) = failure {
                panic!("model check failed on schedule {}: {msg}", report.schedules);
            }
            match advance(path) {
                Some(p) if report.schedules < self.max_schedules => prefix = p,
                _ => return report,
            }
        }
    }
}
