//! Offline stand-in for the `rayon` crate.
//!
//! This workspace builds hermetically, so it ships a minimal
//! API-compatible subset of rayon:
//!
//! - `(0..n).into_par_iter().map(f).collect::<Vec<_>>()` and
//!   `.for_each(f)` over `Range<usize>`,
//! - `items.par_iter().map(f).collect::<Vec<_>>()` over slices,
//! - [`join`] for two-way fork-join,
//! - [`spawn`] for detached fire-and-forget tasks (on a separate
//!   long-lived task executor, so blocking tasks cannot starve the
//!   data-parallel pool),
//! - [`current_num_threads`].
//!
//! # The parallelism model
//!
//! Parallel calls execute on a **persistent worker pool** (like the
//! real rayon's global pool): `current_num_threads() - 1` long-lived
//! worker threads are spawned lazily on the first parallel call and
//! then reused, so a parallel call costs a job publish instead of an
//! OS thread spawn. That removes the per-call overhead that previously
//! forced callers (the solver engine's `MIN_PARALLEL_WORK` threshold)
//! to keep moderate sweeps serial.
//!
//! Idle workers **spin, then park**: after a job (or on finding none) a
//! worker busy-polls the published-job generation for a short window
//! (yielding every few dozen polls) before it blocks on a condvar, and
//! a submitter likewise polls its job's drain before blocking. Back-to-
//! back parallel calls — solver column sweeps, a reader's slab stream —
//! therefore find their second thread already awake instead of paying
//! a futex wake-up (up to a scheduler slice under load). A job publish
//! notifies the condvar only when some worker is actually parked.
//!
//! Work is split into **chunks finer than one block per worker**
//! (see [`scheduling`]); idle workers claim the next unclaimed chunk
//! from a shared cursor until none remain. Skewed workloads — items
//! with very different costs, e.g. mixed deployment sizes inside one
//! `UpdateService::run_cycle` — therefore balance across workers
//! instead of waiting on the most expensive contiguous block. Results
//! are reassembled **in input order**, so every `collect` returns the
//! same `Vec` a serial loop would produce, at any worker count.
//!
//! Two properties callers rely on:
//!
//! - **Determinism**: chunk *claiming* is racy by design, but each
//!   chunk's output is written back by chunk index, so the assembled
//!   result is identical for 1, 2 or N workers. (Side-effecting
//!   `for_each` closures still observe arbitrary execution order, as
//!   with the real rayon.)
//! - **Nesting is deadlock-free**: the thread that submits a job also
//!   participates in executing it, so a nested parallel call issued
//!   from inside a worker completes even when every other worker is
//!   busy.
//!
//! A closure panic is caught on the executing worker, the remaining
//! chunks are abandoned, and the panic resumes on the submitting
//! thread once in-flight chunks drain.
//!
//! The pool size is `RAYON_NUM_THREADS` if set, else the machine's
//! available parallelism, read **once** and cached. Tests may pin a
//! different width with the `#[doc(hidden)]`
//! [`set_num_threads_for_tests`] override (useful to exercise the
//! parallel code paths deterministically on single-CPU CI). Swapping
//! in the real rayon later requires no call-site changes.

#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Test-only pool-width override; 0 means "not overridden".
static TEST_THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Number of worker threads used for parallel execution (respects
/// `RAYON_NUM_THREADS`, else the machine's available parallelism).
/// Read once and cached — like the real rayon's global pool size, it
/// does not react to environment changes after first use, and hot
/// loops avoid repeated `getenv` calls.
pub fn current_num_threads() -> usize {
    let o = TEST_THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Pins [`current_num_threads`] to `n` for the rest of the process
/// (pass 0 to remove the pin). Unlike `RAYON_NUM_THREADS`, this works
/// after threads exist and without mutating the process environment
/// (which is UB in threaded programs), so single-CPU CI can force the
/// parallel code paths. The pool grows to the largest width ever
/// requested and never shrinks; results are identical at any width.
///
/// Test-only: not part of the real rayon API. Prefer setting it once
/// per test binary — it is process-global state.
#[doc(hidden)]
pub fn set_num_threads_for_tests(n: usize) {
    TEST_THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Runs `a` and `b` potentially in parallel, returning both results.
///
/// Rare in this workspace, so it takes the simple route (one scoped
/// spawn) rather than going through the worker pool.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() < 2 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("rayon-shim join worker panicked"))
    })
}

// ---------------------------------------------------------------------------
// Detached task spawning (long-lived task executor).
// ---------------------------------------------------------------------------

/// A spawned task: boxed so it can cross to a task-worker thread.
type SpawnedTask = Box<dyn FnOnce() + Send + 'static>;

/// The task executor behind [`spawn`]: a registry of idle task-worker
/// threads. Kept separate from the data-parallel worker pool above on
/// purpose — spawned tasks may *block* for long stretches (a service
/// gateway's drive loop parks on a channel between commands), which
/// would starve the chunk-claiming pool if they occupied its workers.
/// The same separation the real rayon achieves by running `spawn`ed
/// work as asynchronous pool jobs, and bevy_tasks with its dedicated
/// compute/IO pools.
struct TaskExecutor {
    /// Senders of parked task workers, ready to be handed a new task.
    idle: Mutex<Vec<std::sync::mpsc::Sender<SpawnedTask>>>,
}

impl TaskExecutor {
    fn global() -> &'static TaskExecutor {
        static EXECUTOR: OnceLock<TaskExecutor> = OnceLock::new();
        EXECUTOR.get_or_init(|| TaskExecutor {
            idle: Mutex::new(Vec::new()),
        })
    }

    /// Runs `task` on a parked worker if one is idle, else on a fresh
    /// worker thread.
    fn spawn(&'static self, task: SpawnedTask) {
        let recycled = self
            .idle
            .lock()
            .expect("task executor mutex poisoned")
            .pop();
        match recycled {
            // A parked worker can only disappear if its task panicked
            // while unparked (send then fails); fall back to a new thread.
            Some(tx) => {
                if let Err(std::sync::mpsc::SendError(task)) = tx.send(task) {
                    self.start_worker(task);
                }
            }
            None => self.start_worker(task),
        }
    }

    /// Starts a fresh task-worker thread whose first job is `task`.
    /// After each job the worker re-registers itself as idle and parks
    /// on its channel; the thread is reused for later [`spawn`]s and
    /// never dies on its own.
    fn start_worker(&'static self, task: SpawnedTask) {
        let (tx, rx) = std::sync::mpsc::channel::<SpawnedTask>();
        std::thread::Builder::new()
            .name("rayon-shim-task".into())
            .spawn(move || {
                let mut next = task;
                loop {
                    // A panicking task must not take the executor down:
                    // catch it, drop the payload, and keep the worker.
                    let _ = catch_unwind(AssertUnwindSafe(next));
                    self.idle
                        .lock()
                        .expect("task executor mutex poisoned")
                        .push(tx.clone());
                    match rx.recv() {
                        Ok(t) => next = t,
                        Err(_) => return,
                    }
                }
            })
            .expect("spawn task worker");
    }
}

/// Fires `f` off on a long-lived task-worker thread and returns
/// immediately (the real rayon's `spawn` signature: detached,
/// fire-and-forget). Workers are reused across calls: a finished
/// worker parks and picks up the next `spawn`, so steady-state use
/// costs a channel send instead of an OS thread spawn. A panicking
/// task is caught and discarded without poisoning the executor.
///
/// Unlike the chunk-claiming data-parallel pool, spawned tasks may
/// block indefinitely (channel recv loops, long drives); each runs on
/// its own thread, so they cannot starve `par_iter` work.
pub fn spawn<F>(f: F)
where
    F: FnOnce() + Send + 'static,
{
    TaskExecutor::global().spawn(Box::new(f));
}

// ---------------------------------------------------------------------------
// The persistent worker pool.
// ---------------------------------------------------------------------------

/// Type-erased pointer to a job's chunk loop. Workers call it once; it
/// returns when no unclaimed chunks remain.
///
/// The pointee lives on the submitting thread's stack. Validity is
/// guaranteed by the submission protocol: [`Pool::run`] does not
/// return until (a) the job is withdrawn from the slot, so no new
/// worker can enter it, and (b) every worker that entered has left.
struct TaskPtr(*const (dyn Fn() + Sync + 'static));

// SAFETY: sending the raw pointer to worker threads is sound because
// the pointee outlives every use of it: `Pool::run` keeps the closure
// alive on the submitting thread's stack and does not return until the
// job slot is withdrawn and every worker that entered has left
// (close-then-drain), so no worker can hold the pointer past the
// pointee's lifetime.
unsafe impl Send for TaskPtr {}
// SAFETY: several workers call the pointee concurrently through
// shared references, which is exactly what its `dyn Fn() + Sync`
// bound permits; validity of the pointer itself is bounded by the same
// close-then-drain protocol as for `Send` above.
unsafe impl Sync for TaskPtr {}

/// How long an idle pool thread busy-polls for new work before it
/// blocks: a worker after its job (or on finding none) before parking
/// on the `work` condvar, and a submitter before blocking on its job's
/// drain. Long enough to cover the gap between the back-to-back
/// parallel calls of a solver sweep or a reader's slab stream, so the
/// second thread joins without a futex wake-up; short enough that an
/// idle pool costs nothing measurable.
const SPIN_BEFORE_PARK_US: u64 = 100;

/// Polls between `yield_now` calls (and clock reads) while spinning, so
/// a host with more runnable threads than CPUs still schedules them.
const SPIN_POLLS_PER_YIELD: u32 = 32;

/// Busy-polls `ready` for up to [`SPIN_BEFORE_PARK_US`]; returns
/// whether it became true.
fn spin_until(mut ready: impl FnMut() -> bool) -> bool {
    let start = std::time::Instant::now();
    let window = std::time::Duration::from_micros(SPIN_BEFORE_PARK_US);
    let mut polls = 0u32;
    loop {
        if ready() {
            return true;
        }
        std::hint::spin_loop();
        polls += 1;
        if polls.is_multiple_of(SPIN_POLLS_PER_YIELD) {
            std::thread::yield_now();
            if start.elapsed() >= window {
                return false;
            }
        }
    }
}

/// Per-job bookkeeping: how many workers entered / left the job.
struct JobTracker {
    task: TaskPtr,
    /// `(entered, finished)`; `entered` only increments while the pool
    /// mutex is held, which is what makes the close-then-drain
    /// protocol in [`Pool::run`] race-free.
    counts: Mutex<(usize, usize)>,
    done: Condvar,
}

/// Pool state behind the mutex: the published job (if any) with its
/// generation, how many workers were spawned so far, and how many of
/// them are parked on the `work` condvar.
struct PoolState {
    job: Option<(u64, Arc<JobTracker>)>,
    spawned: usize,
    sleeping: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Generation of the most recently published job. Written only
    /// with the state mutex held; spinning workers poll it without the
    /// lock to notice a new job. The `Release` store pairs with the
    /// spinners' `Acquire` load, though a worker reads the job itself
    /// only under the mutex, so the atomic carries just the signal.
    published: AtomicU64,
    /// Wakes parked workers when a job is published.
    work: Condvar,
}

/// The process-wide persistent worker pool.
struct Pool {
    shared: Arc<PoolShared>,
}

impl Pool {
    /// The global pool, created on first parallel call.
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    job: None,
                    spawned: 0,
                    sleeping: 0,
                }),
                published: AtomicU64::new(0),
                work: Condvar::new(),
            }),
        })
    }

    /// Grows the worker set to `current_num_threads() - 1` threads
    /// (never shrinks). Called with the state lock held.
    fn ensure_workers(&self, st: &mut PoolState) {
        let target = current_num_threads().saturating_sub(1);
        while st.spawned < target {
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("rayon-shim-worker-{}", st.spawned))
                .spawn(move || worker_loop(&shared));
            if spawned.is_err() {
                // Out of threads: run with what we have (the submitter
                // always participates, so jobs still complete).
                break;
            }
            st.spawned += 1;
        }
    }

    /// Publishes `task` to the pool, participates in executing it, and
    /// returns once every participant has left the job. `task` must be
    /// a chunk loop: callable concurrently from many threads, each
    /// call returning when no work remains.
    fn run(&self, task: &(dyn Fn() + Sync)) {
        let tracker = Arc::new(JobTracker {
            // SAFETY: fat-pointer transmute only erases the lifetime;
            // see `TaskPtr` for why the pointee outlives all uses.
            task: TaskPtr(unsafe {
                std::mem::transmute::<*const (dyn Fn() + Sync), *const (dyn Fn() + Sync + 'static)>(
                    task,
                )
            }),
            counts: Mutex::new((0, 0)),
            done: Condvar::new(),
        });
        {
            let mut st = self.shared.state.lock().expect("pool mutex poisoned");
            let generation = self.shared.published.load(Ordering::Relaxed) + 1;
            st.job = Some((generation, Arc::clone(&tracker)));
            self.ensure_workers(&mut st);
            self.shared.published.store(generation, Ordering::Release);
            // No wake-up can be lost: a worker checks the job slot and
            // counts itself in `sleeping` within one hold of this mutex,
            // which `Condvar::wait` releases only once the worker is
            // queued on `work`. So either that check ran after the job
            // above was published (the worker enters it), or the
            // worker is already queued and counted here. Spinning
            // workers are not counted; they see `published` move.
            if st.sleeping > 0 {
                self.shared.work.notify_all();
            }
        }

        // Participate. `task` is expected to be panic-safe (the chunk
        // schedulers below catch per chunk), but stay robust anyway.
        let participation = catch_unwind(AssertUnwindSafe(task));

        // Withdraw the job (unless a nested/concurrent submission
        // already replaced it) so no new worker can enter…
        {
            let mut st = self.shared.state.lock().expect("pool mutex poisoned");
            if let Some((_, t)) = &st.job {
                if Arc::ptr_eq(t, &tracker) {
                    st.job = None;
                }
            }
        }
        // …then drain the workers that did enter, spinning first: they
        // are usually finishing their last chunk. After this no thread
        // holds the task pointer, so the borrow may end.
        let drained = || {
            let counts = tracker.counts.lock().expect("job mutex poisoned");
            counts.1 >= counts.0
        };
        if !spin_until(drained) {
            let mut counts = tracker.counts.lock().expect("job mutex poisoned");
            while counts.1 < counts.0 {
                counts = tracker.done.wait(counts).expect("job mutex poisoned");
            }
        }
        if let Err(p) = participation {
            resume_unwind(p);
        }
    }
}

/// Enters the published job if this worker has not entered it yet
/// (`last_seen` is the generation it entered last). Must be called
/// with the state mutex held, which keeps `entered` race-free against
/// the close-then-drain in [`Pool::run`].
fn try_enter(st: &PoolState, last_seen: &mut u64) -> Option<Arc<JobTracker>> {
    match &st.job {
        Some((generation, tracker)) if *generation != *last_seen => {
            *last_seen = *generation;
            tracker.counts.lock().expect("job mutex poisoned").0 += 1;
            Some(Arc::clone(tracker))
        }
        _ => None,
    }
}

/// Waits for a job this worker has not entered yet and enters it:
/// first by spinning on the published generation for up to
/// [`SPIN_BEFORE_PARK_US`], then by parking on the `work` condvar.
fn next_job(shared: &PoolShared, last_seen: &mut u64) -> Arc<JobTracker> {
    let st = shared.state.lock().expect("pool mutex poisoned");
    if let Some(tracker) = try_enter(&st, last_seen) {
        return tracker;
    }
    let observed = shared.published.load(Ordering::Relaxed);
    drop(st);
    spin_until(|| shared.published.load(Ordering::Acquire) != observed);
    let mut st = shared.state.lock().expect("pool mutex poisoned");
    loop {
        if let Some(tracker) = try_enter(&st, last_seen) {
            return tracker;
        }
        st.sleeping += 1;
        st = shared.work.wait(st).expect("pool mutex poisoned");
        st.sleeping -= 1;
    }
}

/// What every pool worker runs forever: wait for an unseen job, enter
/// it, execute its chunk loop, mark it left, repeat.
fn worker_loop(shared: &PoolShared) {
    let mut last_seen = 0u64;
    loop {
        let tracker = next_job(shared, &mut last_seen);
        // SAFETY: entering happened under the pool mutex while the job
        // was still published, so `Pool::run` is drain-waiting on us
        // and the pointee is alive.
        let task = unsafe { &*tracker.task.0 };
        // Panics are already caught per chunk; a panic that still
        // reaches here must not take down the worker.
        let _ = catch_unwind(AssertUnwindSafe(task));
        let mut counts = tracker.counts.lock().expect("job mutex poisoned");
        counts.1 += 1;
        tracker.done.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Chunk schedulers.
// ---------------------------------------------------------------------------

/// The two chunk schedulers the pool can drive, exposed for the
/// scheduling property tests. Not part of the real rayon API.
#[doc(hidden)]
pub mod scheduling {
    use super::*;

    /// Chunks per worker used by the stealing scheduler: fine enough
    /// that a skewed chunk can be compensated by others, coarse enough
    /// that the per-chunk locking stays negligible.
    pub const CHUNKS_PER_WORKER: usize = 4;

    /// Splits `len` items into at most `pieces` contiguous
    /// `(start, end)` blocks of near-equal size, in index order.
    pub fn split_even(len: usize, pieces: usize) -> Vec<(usize, usize)> {
        let pieces = pieces.clamp(1, len.max(1));
        let base = len / pieces;
        let extra = len % pieces;
        let mut out = Vec::with_capacity(pieces);
        let mut start = 0;
        for t in 0..pieces {
            let size = base + usize::from(t < extra);
            out.push((start, start + size));
            start += size;
        }
        out
    }

    /// Runs `f(i)` for every `i` in `[0, len)` over the given chunk
    /// table on the persistent pool: workers claim the next unclaimed
    /// chunk from a shared cursor until none remain. Results come back
    /// in input order regardless of claim order or worker count.
    fn run_chunked<T, F>(len: usize, chunks: &[(usize, usize)], f: &F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let cursor = AtomicUsize::new(0);
        let parts: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::with_capacity(chunks.len()));
        let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let task = || loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= chunks.len() {
                break;
            }
            let (lo, hi) = chunks[c];
            match catch_unwind(AssertUnwindSafe(|| (lo..hi).map(f).collect::<Vec<T>>())) {
                Ok(part) => parts.lock().expect("parts mutex poisoned").push((c, part)),
                Err(p) => {
                    *panic_slot.lock().expect("panic mutex poisoned") = Some(p);
                    // Abandon the remaining chunks.
                    cursor.store(chunks.len(), Ordering::Relaxed);
                }
            }
        };
        Pool::global().run(&task);
        if let Some(p) = panic_slot.into_inner().expect("panic mutex poisoned") {
            resume_unwind(p);
        }
        let mut parts = parts.into_inner().expect("parts mutex poisoned");
        parts.sort_unstable_by_key(|&(c, _)| c);
        let mut out = Vec::with_capacity(len);
        for (_, mut part) in parts {
            out.append(&mut part);
        }
        out
    }

    /// Work-stealing schedule: `threads * CHUNKS_PER_WORKER` chunks
    /// claimed dynamically. This is what the `par_iter` adapters use.
    pub fn run_stealing<T, F>(len: usize, threads: usize, f: &F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let chunks = split_even(len, threads.saturating_mul(CHUNKS_PER_WORKER));
        run_chunked(len, &chunks, f)
    }

    /// Historical contiguous-block schedule: exactly one near-equal
    /// block per worker, still claimed from the shared cursor. Kept as
    /// the reference the scheduling property tests compare against
    /// (and to measure stealing's benefit on skewed loads).
    pub fn run_contiguous<T, F>(len: usize, threads: usize, f: &F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let chunks = split_even(len, threads);
        run_chunked(len, &chunks, f)
    }
}

/// Runs `f(i)` for every index in `[0, len)`, collecting results in
/// input order — serially below the parallel threshold, else on the
/// persistent pool with the stealing scheduler.
fn run_indexed<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = current_num_threads();
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    scheduling::run_stealing(len, threads, &f)
}

// ---------------------------------------------------------------------------
// The `par_iter` API subset.
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator (subset of rayon's trait).
pub trait IntoParallelIterator {
    /// Element type.
    type Item;
    /// Iterator type.
    type Iter;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

/// Borrowing conversion (subset of rayon's `IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'a> {
    /// Element type (a reference).
    type Item;
    /// Iterator type.
    type Iter;
    /// Converts `&self`.
    fn par_iter(&'a self) -> Self::Iter;
}

/// Parallel iterator over `Range<usize>`.
pub struct ParRange {
    start: usize,
    end: usize,
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange {
            start: self.start,
            end: self.end.max(self.start),
        }
    }
}

impl ParRange {
    fn len(&self) -> usize {
        self.end - self.start
    }

    /// Maps each index through `f` (lazily; drive with `collect` or
    /// `for_each` on the returned adapter).
    pub fn map<T, F>(self, f: F) -> ParRangeMap<F>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        ParRangeMap { range: self, f }
    }

    /// Runs `f` on every index across the worker pool.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let start = self.start;
        run_indexed(self.len(), |i| f(start + i));
    }
}

/// Map adapter over [`ParRange`].
pub struct ParRangeMap<F> {
    range: ParRange,
    f: F,
}

impl<F> ParRangeMap<F> {
    /// Computes all mapped values in input order.
    pub fn collect<C, T>(self) -> C
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        C: From<Vec<T>>,
    {
        let start = self.range.start;
        let f = self.f;
        run_indexed(self.range.len(), |i| f(start + i)).into()
    }
}

/// Parallel iterator over a slice.
pub struct ParSlice<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { items: self }
    }
}

impl<'a, T: Sync> ParSlice<'a, T> {
    /// Maps each element reference through `f`.
    pub fn map<O, F>(self, f: F) -> ParSliceMap<'a, T, F>
    where
        O: Send,
        F: Fn(&'a T) -> O + Sync,
    {
        ParSliceMap {
            items: self.items,
            f,
        }
    }

    /// Runs `f` on every element across the worker pool.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        let items = self.items;
        run_indexed(items.len(), |i| f(&items[i]));
    }
}

/// Map adapter over [`ParSlice`].
pub struct ParSliceMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> ParSliceMap<'a, T, F> {
    /// Computes all mapped values in input order.
    pub fn collect<C, O>(self) -> C
    where
        O: Send,
        F: Fn(&'a T) -> O + Sync,
        C: From<Vec<O>>,
    {
        let items = self.items;
        let f = self.f;
        run_indexed(items.len(), |i| f(&items[i])).into()
    }
}

/// The rayon prelude: import `rayon::prelude::*` at call sites.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
    use std::time::{Duration, Instant};

    /// Tests that use the pool share it; the park/wake test takes it
    /// exclusively, so no other test's job can occupy the workers.
    static POOL_USERS: RwLock<()> = RwLock::new(());

    /// Pins the pool width to 4 (once, same value from every test) so
    /// the parallel paths are exercised even on single-CPU CI, and
    /// holds the pool shared for the rest of the test.
    fn force_pool() -> RwLockReadGuard<'static, ()> {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| super::set_num_threads_for_tests(4));
        POOL_USERS.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`force_pool`], but holding the pool exclusively.
    fn force_pool_exclusive() -> RwLockWriteGuard<'static, ()> {
        drop(force_pool());
        POOL_USERS.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn spin_window() -> Duration {
        Duration::from_micros(super::SPIN_BEFORE_PARK_US)
    }

    #[test]
    fn range_map_collect_preserves_order() {
        let _pool = force_pool();
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn slice_map_collect_preserves_order() {
        let _pool = force_pool();
        let input: Vec<f64> = (0..257).map(|i| i as f64).collect();
        let out: Vec<f64> = input.par_iter().map(|&x| x + 0.5).collect();
        assert_eq!(out.len(), 257);
        assert!(out.iter().enumerate().all(|(i, &x)| x == i as f64 + 0.5));
    }

    #[test]
    fn for_each_visits_everything() {
        let _pool = force_pool();
        let hits = AtomicUsize::new(0);
        (0..123).into_par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 123);
    }

    #[test]
    fn spawn_runs_detached_tasks() {
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..8 {
            let tx = tx.clone();
            super::spawn(move || tx.send(i).expect("receiver alive"));
        }
        let mut got: Vec<usize> = rx.iter().take(8).collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn spawn_reuses_parked_task_workers() {
        // A test-local executor: no other test's spawn can claim its
        // parked worker.
        let exec: &'static super::TaskExecutor = Box::leak(Box::new(super::TaskExecutor {
            idle: std::sync::Mutex::new(Vec::new()),
        }));
        let run = || {
            let (tx, rx) = std::sync::mpsc::channel();
            exec.spawn(Box::new(move || {
                tx.send(std::thread::current().id())
                    .expect("receiver alive");
            }));
            let id = rx.recv().expect("task ran");
            // The worker parks only after its task returns: wait until
            // it is observably idle before the next spawn.
            while exec.idle.lock().expect("idle list").is_empty() {
                std::thread::yield_now();
            }
            id
        };
        let first = run();
        assert_eq!(
            run(),
            first,
            "the second spawn must reuse the parked worker"
        );
        assert_eq!(exec.idle.lock().expect("idle list").len(), 1);
    }

    #[test]
    fn spawn_survives_a_panicking_task() {
        let (panicked_tx, panicked_rx) = std::sync::mpsc::channel::<()>();
        super::spawn(move || {
            // Dropping the sender signals "the task ran" even though
            // it then unwinds.
            drop(panicked_tx);
            panic!("deliberate task panic");
        });
        assert!(panicked_rx.recv().is_err(), "panicking task never ran");
        // The executor must still accept and run new tasks.
        let (tx, rx) = std::sync::mpsc::channel();
        super::spawn(move || tx.send(41 + 1).expect("receiver alive"));
        assert_eq!(rx.recv(), Ok(42));
    }

    #[test]
    fn join_returns_both() {
        let _pool = force_pool();
        let (a, b) = super::join(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
    }

    #[test]
    fn empty_and_single() {
        let _pool = force_pool();
        let v: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
        let v: Vec<usize> = (7..8).into_par_iter().map(|i| i).collect();
        assert_eq!(v, vec![7]);
    }

    #[test]
    fn split_even_covers_exactly() {
        let _pool = force_pool();
        for len in [0usize, 1, 2, 7, 16, 33] {
            for pieces in [1usize, 2, 3, 8] {
                let b = super::scheduling::split_even(len, pieces);
                let mut expect = 0;
                for (lo, hi) in b {
                    assert_eq!(lo, expect);
                    assert!(hi >= lo);
                    expect = hi;
                }
                assert_eq!(expect, len);
            }
        }
    }

    #[test]
    fn pool_is_reused_across_many_calls() {
        let _pool = force_pool();
        // Thousands of parallel calls must not accumulate OS threads
        // (the pre-pool shim spawned per call; the pool reuses its
        // workers). Smoke-tested by wall-clock sanity: this loop used
        // to cost ~100µs * 2000 in spawns alone.
        for round in 0..2000usize {
            let v: Vec<usize> = (0..64).into_par_iter().map(|i| i + round).collect();
            assert_eq!(v[63], 63 + round);
        }
    }

    #[test]
    fn nested_parallel_calls_complete() {
        let _pool = force_pool();
        // A parallel call inside a parallel call (the service runs
        // parallel solver sweeps inside its parallel deployment loop).
        let outer: Vec<usize> = (0..8)
            .into_par_iter()
            .map(|i| {
                let inner: Vec<usize> = (0..50).into_par_iter().map(|j| i * j).collect();
                inner.iter().sum()
            })
            .collect();
        for (i, &s) in outer.iter().enumerate() {
            assert_eq!(s, i * (49 * 50) / 2);
        }
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let _pool = force_pool();
        let result = std::panic::catch_unwind(|| {
            let _: Vec<usize> = (0..100)
                .into_par_iter()
                .map(|i| {
                    if i == 37 {
                        panic!("boom at {i}");
                    }
                    i
                })
                .collect();
        });
        assert!(result.is_err(), "panic must reach the submitting thread");
        // …and the pool must still be usable afterwards.
        let v: Vec<usize> = (0..10).into_par_iter().map(|i| i).collect();
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn concurrent_submitters_collect_in_order_across_the_spin_window() {
        let _pool = force_pool();
        let window = spin_window();
        // Gaps between jobs inside the window (workers still spinning)
        // and past it (workers parked, so each job needs a wake-up).
        let gaps = [Duration::ZERO, window / 4, window * 3, window * 20];
        std::thread::scope(|s| {
            for t in 0..2usize {
                s.spawn(move || {
                    for round in 0..300usize {
                        let gap = gaps[(round + t) % gaps.len()];
                        if gap < window {
                            let start = Instant::now();
                            while start.elapsed() < gap {
                                std::hint::spin_loop();
                            }
                        } else {
                            std::thread::sleep(gap);
                        }
                        let len = 2 + (round * 7 + t) % 61;
                        let got: Vec<usize> = (0..len)
                            .into_par_iter()
                            .map(|i| i * 3 + round + t)
                            .collect();
                        let want: Vec<usize> = (0..len).map(|i| i * 3 + round + t).collect();
                        assert_eq!(got, want, "submitter {t}, round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn parked_workers_wake_for_a_rendezvous_job() {
        let _pool = force_pool_exclusive();
        let shared = &super::Pool::global().shared;
        // Spawn the workers.
        let _: Vec<usize> = (0..64).into_par_iter().map(|i| i).collect();
        for round in 0..20 {
            // Idle past the spin window until every worker is parked;
            // this also proves the spin ends.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let st = shared.state.lock().expect("pool mutex poisoned");
                if st.spawned > 0 && st.sleeping == st.spawned {
                    break;
                }
                drop(st);
                assert!(
                    Instant::now() < deadline,
                    "round {round}: workers never parked"
                );
                std::thread::sleep(spin_window());
            }
            // Two chunks that finish only together: the submitter runs
            // one, so a parked worker must be woken for the other. The
            // timed wait turns a lost wake-up into a failure, not a hang.
            let arrived = (Mutex::new(0usize), Condvar::new());
            let met: Vec<bool> = (0..2)
                .into_par_iter()
                .map(|_| {
                    let (count, cv) = &arrived;
                    let mut n = count.lock().expect("rendezvous mutex poisoned");
                    *n += 1;
                    cv.notify_all();
                    let (_n, wait) = cv
                        .wait_timeout_while(n, Duration::from_secs(10), |n| *n < 2)
                        .expect("rendezvous mutex poisoned");
                    !wait.timed_out()
                })
                .collect();
            assert_eq!(
                met,
                [true, true],
                "round {round}: a parked worker never woke"
            );
        }
    }
}
