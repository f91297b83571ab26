//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no registry access, so this crate provides
//! the (small) rayon surface the workspace uses: `into_par_iter()` /
//! `par_iter()` with `map`, `map_init`, `sum` and `collect`, plus
//! [`current_num_threads`]. Semantics match rayon where it matters
//! here:
//!
//! * results are collected **in input order**, so everything downstream
//!   is deterministic regardless of scheduling;
//! * work really runs on multiple OS threads: one process-wide pool of
//!   [`current_num_threads`] workers, started on the first parallel
//!   call and parked on a condition variable between calls, so a
//!   parallel call costs a wake-up and a hand-back, not a thread spawn
//!   and join. Each worker maps one contiguous chunk of the items, and
//!   a region wakes only the workers that have a chunk;
//! * the pool runs **one parallel region at a time**, and the caller
//!   blocks while the workers run it, doing none of its items (a caller
//!   that also ran items would touch a third malloc arena and hold its
//!   memory). A call made from a pool worker, or while another region
//!   is running, runs inline on its own thread, in order — so nested
//!   parallel calls never wait on each other;
//! * `map_init` creates one `init()` value per participating thread and
//!   threads it through that thread's chunk, like rayon's;
//! * a panicking item re-panics in the caller with its payload once the
//!   region has finished, and the pool stays usable.
//!
//! Not implemented: work stealing, nested pools, the full
//! `ParallelIterator` trait zoo. Add methods as call sites need them.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

/// Number of worker threads a parallel call will use. Read once: on
/// Linux `available_parallelism` re-reads the cgroup quota files on
/// every call.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The commonly-imported surface, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

/// One parallel region as the workers see it: each taking part worker
/// `w` runs `job(w)` once.
type Job<'a> = dyn Fn(usize) + Sync + 'a;

/// What the workers and the caller of the running region share.
struct State {
    /// The running region's job. Its true lifetime is the caller's
    /// stack frame in [`Pool::run`]; see the `SAFETY` note there.
    job: Option<&'static Job<'static>>,
    /// Bumped once per region, so a woken worker can tell a new region
    /// from a spurious wake-up.
    generation: u64,
    /// Workers `0..active` take part in the latest region; the rest
    /// stay parked.
    active: usize,
    /// Taking part workers that have not yet finished the running
    /// region.
    pending: usize,
    /// The first panic payload an item of the running region raised.
    panic: Option<Box<dyn Any + Send>>,
}

/// The process-wide set of parked workers.
struct Pool {
    state: Mutex<State>,
    /// One per worker: signalled when a region it takes part in is
    /// posted.
    posted: Vec<Condvar>,
    /// Signalled when the last worker finishes a region.
    finished: Condvar,
}

thread_local! {
    /// Set on pool workers: their parallel calls run inline.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

impl Pool {
    /// The pool, its workers started on first use. They live for the
    /// rest of the process, parked while no region runs.
    fn get() -> &'static Pool {
        static POOL: OnceLock<&'static Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let pool = Pool::new(current_num_threads());
            for w in 0..pool.workers() {
                thread::Builder::new()
                    .name(format!("rayon-shim-{w}"))
                    .spawn(move || pool.work(w))
                    .expect("spawning a shim pool worker");
            }
            pool
        })
    }

    /// A pool with `workers` worker slots and no threads yet: each slot
    /// `w` is served by a thread running [`Pool::work`]`(w)`.
    fn new(workers: usize) -> &'static Pool {
        Box::leak(Box::new(Pool {
            state: Mutex::new(State {
                job: None,
                generation: 0,
                active: 0,
                pending: 0,
                panic: None,
            }),
            posted: (0..workers).map(|_| Condvar::new()).collect(),
            finished: Condvar::new(),
        }))
    }

    fn workers(&self) -> usize {
        self.posted.len()
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Items run outside the lock and their panics are caught, so
        // the lock is never held across a panic.
        self.state
            .lock()
            .expect("shim pool state is never poisoned")
    }

    /// Worker `w`'s loop: wait for a region it takes part in, run its
    /// job, report back.
    fn work(&self, w: usize) {
        IS_WORKER.with(|c| c.set(true));
        let mut seen = 0u64;
        loop {
            let job = {
                let mut st = self.lock();
                while st.generation == seen || w >= st.active {
                    st = self.posted[w].wait(st).expect("shim pool wait");
                }
                seen = st.generation;
                st.job.expect("a posted region carries its job")
            };
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| job(w)));
            let mut st = self.lock();
            if let Err(payload) = outcome {
                st.panic.get_or_insert(payload);
            }
            st.pending -= 1;
            if st.pending == 0 {
                self.finished.notify_one();
            }
        }
    }

    /// Run `job(w)` once on each worker `w < active`, waking only those,
    /// and return when they have finished, re-raising an item's panic.
    /// Returns `false` without running anything when another region
    /// holds the pool.
    fn run(&self, job: &Job<'_>, active: usize) -> bool {
        assert!(active <= self.workers(), "more chunks than workers");
        let mut st = self.lock();
        if st.job.is_some() {
            return false;
        }
        // SAFETY: the `'static` reference never outlives this call:
        // a worker reads `job` only under the lock after seeing a new
        // generation that it takes part in, drops its copy before
        // decrementing `pending`,
        // and this function clears `job` and returns only once
        // `pending` is zero. Items are caught with `catch_unwind`, and
        // nothing below can unwind before that wait completes.
        let job = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
        st.job = Some(job);
        st.generation += 1;
        st.active = active;
        st.pending = active;
        for posted in &self.posted[..active] {
            posted.notify_one();
        }
        while st.pending > 0 {
            st = self.finished.wait(st).expect("shim pool wait");
        }
        st.job = None;
        let panic = st.panic.take();
        drop(st);
        if let Some(payload) = panic {
            panic::resume_unwind(payload);
        }
        true
    }
}

/// An eager "parallel iterator": the items are materialized and each
/// adapter runs them across threads, preserving order.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// Conversion into a [`ParIter`] by value (`0..n`, vectors, …).
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<I> IntoParallelIterator for I
where
    I: IntoIterator,
    I::Item: Send,
{
    type Item = I::Item;
    fn into_par_iter(self) -> ParIter<I::Item> {
        ParIter {
            items: self.into_iter().collect(),
        }
    }
}

/// Conversion into a [`ParIter`] over references (`slice.par_iter()`).
pub trait IntoParallelRefIterator<'data> {
    type Item: Send + 'data;
    fn par_iter(&'data self) -> ParIter<Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// Order-preserving parallel map with one `init()` state per
/// participating thread: on the pool when it is free and there is more
/// than one item, inline on the caller otherwise.
fn par_map_init<T, S, R, INIT, F>(items: Vec<T>, init: INIT, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    if items.len() <= 1 || current_num_threads() <= 1 || IS_WORKER.with(Cell::get) {
        return map_inline(items, &init, &f);
    }
    map_on(Pool::get(), items, init, f)
}

/// Map every item on the calling thread, with one `init()` state.
fn map_inline<T, S, R>(items: Vec<T>, init: impl Fn() -> S, f: impl Fn(&mut S, T) -> R) -> Vec<R> {
    let mut state = init();
    items.into_iter().map(|x| f(&mut state, x)).collect()
}

/// Map `items` on `pool`, one contiguous chunk per taking part worker,
/// or inline when another region holds the pool.
fn map_on<T, S, R, INIT, F>(pool: &Pool, items: Vec<T>, init: INIT, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let len = items.len();
    let chunk = len.div_ceil(pool.workers().min(len).max(1));
    let mut source = items.into_iter();
    let mut inputs: Vec<Mutex<Vec<T>>> = Vec::with_capacity(pool.workers());
    while source.len() > 0 {
        inputs.push(Mutex::new(source.by_ref().take(chunk).collect()));
    }
    let outputs: Vec<Mutex<Vec<R>>> = inputs.iter().map(|_| Mutex::new(Vec::new())).collect();
    let job = |w: usize| {
        let (input, output) = (&inputs[w], &outputs[w]);
        let input = std::mem::take(&mut *input.lock().expect("no panic while a chunk is locked"));
        let mut state = init();
        let mapped = input.into_iter().map(|x| f(&mut state, x)).collect();
        *output.lock().expect("no panic while a chunk is locked") = mapped;
    };
    if pool.run(&job, inputs.len()) {
        return outputs
            .into_iter()
            .flat_map(|o| o.into_inner().expect("no panic while a chunk is locked"))
            .collect();
    }
    // Another region holds the pool: this call runs inline, in order.
    map_inline(
        inputs
            .into_iter()
            .flat_map(|i| i.into_inner().expect("no panic while a chunk is locked"))
            .collect(),
        init,
        f,
    )
}

impl<T: Send> ParIter<T> {
    /// Parallel map; results keep input order.
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter {
            items: par_map_init(self.items, || (), |(), x| f(x)),
        }
    }

    /// Parallel map with a per-thread mutable state created by `init`.
    pub fn map_init<S, R, INIT, F>(self, init: INIT, f: F) -> ParIter<R>
    where
        R: Send,
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> R + Sync,
    {
        ParIter {
            items: par_map_init(self.items, init, f),
        }
    }

    /// Collect the (already computed) results.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Sum the results.
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::mpsc;
    use std::thread::ThreadId;

    /// Serializes the tests: the pool is process-wide, the harness runs
    /// tests concurrently, and some tests assert which thread ran an
    /// item.
    static POOL_STATE: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        POOL_STATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn me() -> ThreadId {
        thread::current().id()
    }

    #[test]
    fn map_preserves_order() {
        let _serial = exclusive();
        let out: Vec<u32> = (0u32..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0u32..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_over_slice_and_vec() {
        let _serial = exclusive();
        let v = vec![1.0f64, 2.0, 3.0];
        let s: f64 = v.par_iter().map(|x| x * x).sum();
        assert_eq!(s, 14.0);
        let slice: &[f64] = &v;
        let s2: f64 = slice.par_iter().map(|x| x * x).sum();
        assert_eq!(s2, 14.0);
    }

    #[test]
    fn map_init_threads_state_per_worker() {
        let _serial = exclusive();
        let out: Vec<usize> = vec![1usize; 64]
            .par_iter()
            .map_init(Vec::<usize>::new, |scratch, &x| {
                scratch.push(x);
                x
            })
            .collect();
        assert_eq!(out.len(), 64);
        assert!(out.iter().all(|&x| x == 1));
    }

    #[test]
    fn threads_reported() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn nested_par_iter_keeps_input_order() {
        let _serial = exclusive();
        let out: Vec<Vec<u64>> = (0u64..9)
            .into_par_iter()
            .map(|i| (0u64..17).into_par_iter().map(|j| i * 100 + j).collect())
            .collect();
        let want: Vec<Vec<u64>> = (0u64..9)
            .map(|i| (0u64..17).map(|j| i * 100 + j).collect())
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn concurrent_callers_get_ordered_results() {
        let _serial = exclusive();
        let callers: Vec<_> = (0u64..4)
            .map(|c| {
                thread::spawn(move || {
                    for round in 0..50u64 {
                        let out: Vec<u64> = (0u64..33)
                            .into_par_iter()
                            .map(|i| c * 1_000_000 + round * 1000 + i)
                            .collect();
                        let want: Vec<u64> = (0u64..33)
                            .map(|i| c * 1_000_000 + round * 1000 + i)
                            .collect();
                        assert_eq!(out, want);
                    }
                })
            })
            .collect();
        for h in callers {
            h.join().expect("caller thread");
        }
    }

    #[test]
    fn caller_that_finds_the_pool_busy_runs_inline() {
        if current_num_threads() < 2 {
            return;
        }
        let _serial = exclusive();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
        thread::scope(|s| {
            // A region whose first item holds the pool until the
            // second caller is done.
            let busy = s.spawn(|| {
                let first_caller = me();
                let ran_on: Vec<ThreadId> = (0..2)
                    .into_par_iter()
                    .map(|i| {
                        if i == 0 {
                            entered_tx.lock().unwrap().send(()).unwrap();
                            release_rx.lock().unwrap().recv().unwrap();
                        }
                        me()
                    })
                    .collect();
                assert!(ran_on.iter().all(|&t| t != first_caller), "pool not used");
            });
            entered_rx.recv().unwrap();
            let second_caller = me();
            let out: Vec<(usize, ThreadId)> = (0..8).into_par_iter().map(|i| (i, me())).collect();
            assert_eq!(
                out.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                (0..8).collect::<Vec<_>>()
            );
            assert!(
                out.iter().all(|&(_, t)| t == second_caller),
                "ran off the caller"
            );
            release_tx.send(()).unwrap();
            busy.join().unwrap();
        });
    }

    #[test]
    fn a_region_waits_only_for_the_workers_that_have_a_chunk() {
        // Four worker slots, threads for only the first two: a two-item
        // call must complete on those two and never wait for the rest.
        let pool = Pool::new(4);
        for w in 0..2 {
            thread::spawn(move || pool.work(w));
        }
        let (done_tx, done_rx) = mpsc::channel();
        thread::spawn(move || {
            let caller = me();
            let out = map_on(pool, vec![10u32, 20], || (), |(), x| (x, me()));
            done_tx.send((caller, out)).unwrap();
        });
        let (caller, out) = done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the region waited for a worker without a chunk");
        assert_eq!(out.iter().map(|&(x, _)| x).collect::<Vec<_>>(), [10, 20]);
        assert!(out[0].1 != out[1].1, "one chunk per worker");
        assert!(out.iter().all(|&(_, t)| t != caller), "pool not used");
    }

    #[test]
    fn item_panic_reaches_the_caller_and_the_pool_survives() {
        let _serial = exclusive();
        let caught = panic::catch_unwind(|| {
            (0u32..8)
                .into_par_iter()
                .map(|i| {
                    if i == 5 {
                        panic!("item {i} failed");
                    }
                    i
                })
                .collect::<Vec<_>>()
        })
        .expect_err("the item's panic reaches the caller");
        let msg = caught
            .downcast_ref::<String>()
            .expect("formatted panic payload");
        assert_eq!(msg, "item 5 failed");
        let caller = me();
        let out: Vec<(u32, ThreadId)> = (0u32..8).into_par_iter().map(|i| (i, me())).collect();
        assert_eq!(
            out.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        if current_num_threads() >= 2 {
            assert!(out.iter().all(|&(_, t)| t != caller), "pool not used");
        }
    }

    #[test]
    fn map_init_builds_at_most_one_state_per_thread() {
        let _serial = exclusive();
        for len in [1usize, 2, 3, 64] {
            let inits = Mutex::new(Vec::new());
            let out: Vec<(usize, usize)> = (0..len)
                .into_par_iter()
                .map_init(
                    || {
                        inits.lock().unwrap().push(me());
                        0usize
                    },
                    |seen, i| {
                        *seen += 1;
                        (i, *seen)
                    },
                )
                .collect();
            assert_eq!(
                out.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                (0..len).collect::<Vec<_>>()
            );
            let mut ids = inits.into_inner().unwrap();
            let states = ids.len();
            assert!(states >= 1 && states <= current_num_threads().min(len));
            ids.sort_by_key(|t| format!("{t:?}"));
            ids.dedup();
            assert_eq!(ids.len(), states, "two states on one thread");
        }
    }
}
