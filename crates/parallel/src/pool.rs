//! A persistent worker pool for the wall-clock engine.
//!
//! [`ParallelEngine`](crate::ParallelEngine) used to re-spawn a
//! `thread::scope` of workers and a fresh [`std::sync::Barrier`] on
//! every solve. That cost is invisible on one big table but multiplies
//! across a §V-A tuner sweep (one solve per candidate point) and across
//! every batched request the serving path executes. [`WorkerPool`]
//! keeps the threads alive instead: created once, a pool dispatches an
//! arbitrary number of jobs to its workers, each job synchronizing its
//! waves on a reusable [`SenseBarrier`] rather than a freshly allocated
//! one.
//!
//! Dispatch protocol: [`WorkerPool::run`] publishes a job (a
//! `Fn(worker_index)` closure) under a generation counter, wakes all
//! workers, and blocks until every worker — active or not — has
//! acknowledged the generation. Because `run` does not return until the
//! last worker is done with the closure, the closure's borrows stay
//! live for exactly as long as the workers can touch them, which is
//! what makes the internal lifetime erasure sound.

use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Why a pooled run did not complete cleanly.
///
/// The two cases demand different reactions, which is exactly why they
/// are separate: a [`PoolError::JobPanicked`] poisons only *that job* —
/// the barrier re-arms and the next [`WorkerPool::try_run`] proceeds
/// normally — while [`PoolError::PoolUnusable`] means worker threads
/// are gone and the pool refuses further jobs until
/// [`WorkerPool::heal`] respawns them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The job closure panicked on at least one worker. The panic was
    /// contained: all workers unwound to the dispatch loop and the pool
    /// remains usable.
    JobPanicked,
    /// `dead` worker threads have terminated (e.g. a panic payload
    /// whose `Drop` itself panicked escaped the per-job isolation).
    /// The pool cannot run barrier jobs until healed.
    PoolUnusable {
        /// Number of dead worker threads.
        dead: usize,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::JobPanicked => {
                write!(
                    f,
                    "a worker panicked while running the job; the pool re-armed"
                )
            }
            PoolError::PoolUnusable { dead } => {
                write!(f, "{dead} pool worker(s) died; heal() must respawn them")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// The contiguous sub-range of `0..len` owned by worker `t` of `n`,
/// with every *interior* boundary rounded down to a multiple of
/// `align`. With `align = 1` this is the plain balanced split (chunks
/// differ by at most one element); with the SIMD tier's lane width it
/// keeps each worker's slice of a wave starting on a lane boundary, so
/// at most one partial vector per (worker, wave) is peeled instead of
/// one per chunk seam. The first boundary stays 0 and the last stays
/// `len`, so the chunks always tile `0..len` exactly; when `len` is
/// small relative to `n * align`, leading chunks may round to empty.
#[inline]
pub fn chunk_aligned(t: usize, n: usize, len: usize, align: usize) -> Range<usize> {
    let align = align.max(1);
    let bound = |t: usize| -> usize {
        if t >= n {
            return len;
        }
        let base = len / n;
        let extra = len % n;
        let ideal = t * base + t.min(extra);
        ideal / align * align
    };
    bound(t)..bound(t + 1)
}

/// A reusable sense-reversing spin barrier.
///
/// The classic centralized barrier: arrivals count up on a shared
/// counter, the last arrival resets the counter and flips the global
/// *sense* (an epoch counter here), and everyone else spins on the
/// sense. Reversing the sense each round is what lets the same barrier
/// object be reused wave after wave with no re-initialization — the
/// property the pool needs. Spinning (with a `yield_now` fallback) fits
/// the engine's workload: inter-wave gaps are short, and the heavy
/// threads have nothing better to do than wait.
pub struct SenseBarrier {
    count: AtomicUsize,
    parties: AtomicUsize,
    epoch: AtomicUsize,
    poisoned: AtomicBool,
}

impl SenseBarrier {
    fn new() -> SenseBarrier {
        SenseBarrier {
            count: AtomicUsize::new(0),
            parties: AtomicUsize::new(1),
            epoch: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Re-arms the barrier for `parties` participants. Only sound while
    /// no thread is inside [`SenseBarrier::wait`] — the pool calls it
    /// between jobs, under the run lock.
    fn reset(&self, parties: usize) {
        self.parties.store(parties.max(1), Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
        self.poisoned.store(false, Ordering::Relaxed);
    }

    /// Marks the barrier unusable; spinning waiters panic out instead
    /// of spinning forever on a participant that will never arrive.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Blocks until all participants of the current round have arrived.
    ///
    /// # Panics
    /// Panics if another participant poisoned the barrier (it panicked
    /// mid-job and can never arrive).
    pub fn wait(&self) {
        let epoch = self.epoch.load(Ordering::Acquire);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.parties.load(Ordering::Relaxed) {
            // Last arrival: reset the counter *before* releasing the
            // epoch, so waiters released by the epoch see a clean count.
            self.count.store(0, Ordering::Relaxed);
            self.epoch.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.epoch.load(Ordering::Acquire) == epoch {
                if self.poisoned.load(Ordering::Acquire) {
                    panic!("barrier poisoned: a pool worker panicked mid-job");
                }
                spins = spins.saturating_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Lifetime-erased job pointer. Sound because [`WorkerPool::run`]
/// blocks until every worker has acknowledged the job before the
/// borrow it erases can expire.
#[derive(Clone, Copy)]
struct JobCell(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many workers are
// fine) and the pointer only crosses threads inside the run/ack
// protocol that keeps the underlying borrow alive.
unsafe impl Send for JobCell {}

struct PoolState {
    generation: u64,
    active: usize,
    job: Option<JobCell>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    job_cv: Condvar,
    done: Mutex<usize>,
    done_cv: Condvar,
    barrier: SenseBarrier,
    panicked: AtomicBool,
    /// Worker threads that terminated instead of returning to the
    /// dispatch loop. Non-zero means the pool is unusable until healed.
    dead: AtomicUsize,
    /// Indices of the dead workers, for [`WorkerPool::heal`] to respawn.
    dead_list: Mutex<Vec<usize>>,
    threads: usize,
}

/// Runs when a worker thread *terminates* by unwinding (a panic escaped
/// the per-job isolation, e.g. out of a panic payload's own `Drop`).
/// Records the death and wakes the dispatcher so `try_run` reports
/// [`PoolError::PoolUnusable`] instead of hanging on a done-count that
/// can never be reached.
struct DeathSentinel {
    shared: Arc<PoolShared>,
    t: usize,
    armed: bool,
}

impl Drop for DeathSentinel {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.shared.barrier.poison();
        self.shared.panicked.store(true, Ordering::Release);
        self.shared
            .dead_list
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(self.t);
        self.shared.dead.fetch_add(1, Ordering::AcqRel);
        let _done = self.shared.done.lock().unwrap_or_else(|e| e.into_inner());
        self.shared.done_cv.notify_all();
    }
}

fn spawn_worker(shared: &Arc<PoolShared>, t: usize, start_gen: u64) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("lddp-pool-{t}"))
        .spawn(move || {
            let mut sentinel = DeathSentinel {
                shared: Arc::clone(&shared),
                t,
                armed: true,
            };
            shared.worker_loop(t, start_gen);
            sentinel.armed = false; // clean shutdown exit
        })
        .expect("spawning pool worker")
}

impl PoolShared {
    fn worker_loop(&self, t: usize, start_gen: u64) {
        let mut last_gen = start_gen;
        loop {
            let (job, active) = {
                let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.generation != last_gen {
                        last_gen = st.generation;
                        break (st.job, st.active);
                    }
                    st = self.job_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            if t < active {
                if let Some(JobCell(ptr)) = job {
                    // SAFETY: `run` keeps the closure borrow alive until
                    // this worker (and all others) signals done below.
                    let f = unsafe { &*ptr };
                    if catch_unwind(AssertUnwindSafe(|| f(t))).is_err() {
                        self.panicked.store(true, Ordering::Release);
                        self.barrier.poison();
                    }
                }
            }
            let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
            *done += 1;
            if *done + self.dead.load(Ordering::Acquire) >= self.threads {
                self.done_cv.notify_all();
            }
        }
    }
}

/// A fixed-size pool of long-lived worker threads with a reusable
/// inter-wave [`SenseBarrier`]. See the module docs for the protocol.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Serializes concurrent `run` callers: the pool executes one job
    /// at a time (the job itself is what's parallel).
    run_lock: Mutex<()>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (min 1), named `lddp-pool-<t>`.
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                generation: 0,
                active: 0,
                job: None,
                shutdown: false,
            }),
            job_cv: Condvar::new(),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            barrier: SenseBarrier::new(),
            panicked: AtomicBool::new(false),
            dead: AtomicUsize::new(0),
            dead_list: Mutex::new(Vec::new()),
            threads,
        });
        let handles = (0..threads).map(|t| spawn_worker(&shared, t, 0)).collect();
        WorkerPool {
            shared,
            run_lock: Mutex::new(()),
            handles: Mutex::new(handles),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// The pool's inter-wave barrier, re-armed for each job's active
    /// worker count. Only the active workers of the current job may
    /// wait on it.
    pub fn barrier(&self) -> &SenseBarrier {
        &self.shared.barrier
    }

    /// Runs `job(t)` on workers `t` in `0..active` (clamped to the pool
    /// size) and blocks until all of them finish. Jobs from concurrent
    /// callers are serialized. Must not be called from inside a pool
    /// job (it would deadlock on the run lock).
    ///
    /// # Panics
    /// Panics if any worker panicked inside `job` (after all workers
    /// have unwound — the pool itself stays usable) or if the pool has
    /// dead workers. Use [`WorkerPool::try_run`] for the non-panicking
    /// form.
    pub fn run(&self, active: usize, job: &(dyn Fn(usize) + Sync)) {
        match self.try_run(active, job) {
            Ok(()) => {}
            Err(PoolError::JobPanicked) => panic!("worker panicked during a pooled run"),
            Err(e @ PoolError::PoolUnusable { .. }) => panic!("{e}"),
        }
    }

    /// Like [`WorkerPool::run`] but reports failure as a value: a
    /// panicking job yields [`PoolError::JobPanicked`] (and the pool
    /// stays usable), dead worker threads yield
    /// [`PoolError::PoolUnusable`] (and the pool refuses jobs until
    /// [`WorkerPool::heal`] respawns them).
    pub fn try_run(&self, active: usize, job: &(dyn Fn(usize) + Sync)) -> Result<(), PoolError> {
        let active = active.clamp(1, self.shared.threads);
        let _serialized = self.run_lock.lock().unwrap_or_else(|e| e.into_inner());
        let dead = self.shared.dead.load(Ordering::Acquire);
        if dead > 0 {
            // A missing participant would leave live workers spinning
            // on the barrier forever; refuse up front.
            return Err(PoolError::PoolUnusable { dead });
        }
        self.shared.barrier.reset(active);
        self.shared.panicked.store(false, Ordering::Relaxed);
        // SAFETY(lifetime erasure): the raw pointer outlives its use —
        // we block below until every worker acknowledged the job.
        let raw: *const (dyn Fn(usize) + Sync) = job;
        let raw: JobCell = JobCell(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(raw)
        });
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.generation += 1;
            st.active = active;
            st.job = Some(raw);
            self.shared.job_cv.notify_all();
        }
        {
            let mut done = self.shared.done.lock().unwrap_or_else(|e| e.into_inner());
            // Dead workers can never acknowledge; their sentinel bumps
            // `dead` and wakes us so the sum still completes.
            while *done + self.shared.dead.load(Ordering::Acquire) < self.shared.threads {
                done = self
                    .shared
                    .done_cv
                    .wait(done)
                    .unwrap_or_else(|e| e.into_inner());
            }
            *done = 0;
        }
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .job = None;
        let dead = self.shared.dead.load(Ordering::Acquire);
        if dead > 0 {
            Err(PoolError::PoolUnusable { dead })
        } else if self.shared.panicked.load(Ordering::Acquire) {
            Err(PoolError::JobPanicked)
        } else {
            Ok(())
        }
    }

    /// Number of worker threads that have terminated and not yet been
    /// respawned.
    pub fn dead_workers(&self) -> usize {
        self.shared.dead.load(Ordering::Acquire)
    }

    /// Respawns any dead worker threads, restoring the pool after
    /// [`PoolError::PoolUnusable`]. Returns how many workers were
    /// respawned (0 on a healthy pool). Safe to call at any time; jobs
    /// are excluded while healing runs.
    pub fn heal(&self) -> usize {
        let _serialized = self.run_lock.lock().unwrap_or_else(|e| e.into_inner());
        let dead: Vec<usize> = {
            let mut list = self
                .shared
                .dead_list
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            list.drain(..).collect()
        };
        if dead.is_empty() {
            return 0;
        }
        // New workers must ignore the generation that was current when
        // they died, or they would try to run a job that is long gone.
        let gen = self
            .shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .generation;
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        for &t in &dead {
            let old = std::mem::replace(&mut handles[t], spawn_worker(&self.shared, t, gen));
            let _ = old.join();
        }
        self.shared.dead.fetch_sub(dead.len(), Ordering::AcqRel);
        dead.len()
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.shared.threads)
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            self.shared.job_cv.notify_all();
        }
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn aligned_chunks_tile_and_respect_lane_boundaries() {
        for n in 1..7 {
            for len in [0usize, 1, 5, 8, 24, 100, 1023] {
                for align in [1usize, 4, 8] {
                    let mut next = 0;
                    for t in 0..n {
                        let c = chunk_aligned(t, n, len, align);
                        assert_eq!(c.start, next, "n={n} len={len} align={align} t={t}");
                        assert!(
                            t + 1 == n || c.end.is_multiple_of(align),
                            "interior boundary must be lane-aligned"
                        );
                        next = c.end;
                    }
                    assert_eq!(next, len, "chunks must tile 0..len");
                }
            }
        }
        // align = 0 clamps to 1 and behaves like the unaligned split.
        assert_eq!(chunk_aligned(0, 2, 5, 0), 0..3);
        assert_eq!(chunk_aligned(1, 2, 5, 0), 3..5);
    }

    #[test]
    fn runs_exactly_the_active_workers() {
        let pool = WorkerPool::new(4);
        let hits = AtomicUsize::new(0);
        let mask = AtomicUsize::new(0);
        pool.run(3, &|t| {
            hits.fetch_add(1, Ordering::SeqCst);
            mask.fetch_or(1 << t, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        assert_eq!(mask.load(Ordering::SeqCst), 0b111);
    }

    #[test]
    fn active_count_is_clamped_to_pool_size() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.run(64, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        pool.run(0, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3, "active clamps up to 1");
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(3, &|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 300);
    }

    #[test]
    fn barrier_orders_phases_within_a_job() {
        // Each worker adds its contribution to phase A, crosses the
        // barrier, then reads the full phase-A sum — a data flow that is
        // only correct if the barrier really separates the phases.
        let pool = WorkerPool::new(4);
        let phase_a = AtomicU64::new(0);
        let seen: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        for round in 0..50u64 {
            phase_a.store(0, Ordering::SeqCst);
            pool.run(4, &|t| {
                phase_a.fetch_add(1 + t as u64, Ordering::SeqCst);
                pool.barrier().wait();
                seen[t].store(phase_a.load(Ordering::SeqCst), Ordering::SeqCst);
            });
            for s in &seen {
                assert_eq!(s.load(Ordering::SeqCst), 1 + 2 + 3 + 4, "round {round}");
            }
        }
    }

    #[test]
    fn barrier_reuse_across_waves() {
        let pool = WorkerPool::new(3);
        let counter = AtomicU64::new(0);
        let violations = AtomicUsize::new(0);
        pool.run(3, &|_| {
            for wave in 0..200u64 {
                counter.fetch_add(1, Ordering::SeqCst);
                pool.barrier().wait();
                // Between barriers, every worker must observe the same
                // completed wave count.
                if counter.load(Ordering::SeqCst) < 3 * (wave + 1) {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
                pool.barrier().wait();
            }
        });
        assert_eq!(violations.load(Ordering::SeqCst), 0);
        assert_eq!(counter.load(Ordering::SeqCst), 600);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(3);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, &|t| {
                if t == 1 {
                    panic!("boom");
                }
                // The other workers head for the barrier and must be
                // released by poisoning rather than spinning forever.
                pool.barrier().wait();
            });
        }));
        assert!(caught.is_err(), "panic must propagate to the caller");
        // The pool re-arms and keeps working.
        let ok = AtomicUsize::new(0);
        pool.run(3, &|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn try_run_reports_job_panic_without_panicking_and_pool_reuses() {
        let pool = WorkerPool::new(3);
        let r = pool.try_run(3, &|t| {
            if t == 2 {
                panic!("injected");
            }
            pool.barrier().wait();
        });
        assert_eq!(r, Err(PoolError::JobPanicked));
        assert_eq!(pool.dead_workers(), 0);
        // A second solve on the same pool must succeed (satellite
        // regression: panicking kernel fails the request, not the pool).
        let ok = AtomicUsize::new(0);
        assert_eq!(
            pool.try_run(3, &|_| {
                ok.fetch_add(1, Ordering::SeqCst);
            }),
            Ok(())
        );
        assert_eq!(ok.load(Ordering::SeqCst), 3);
    }

    /// A panic payload whose own `Drop` panics escapes the per-job
    /// `catch_unwind` and terminates the worker thread — the one way a
    /// pool worker can actually die.
    struct DropBomb;

    impl Drop for DropBomb {
        fn drop(&mut self) {
            panic!("payload bomb");
        }
    }

    #[test]
    fn dead_worker_is_detected_and_heal_respawns_it() {
        let pool = WorkerPool::new(3);
        let r = pool.try_run(3, &|t| {
            if t == 1 {
                std::panic::panic_any(DropBomb);
            }
            pool.barrier().wait();
        });
        assert_eq!(r, Err(PoolError::PoolUnusable { dead: 1 }));
        assert_eq!(pool.dead_workers(), 1);
        // Unusable pools refuse further jobs rather than hanging.
        assert_eq!(
            pool.try_run(3, &|_| {}),
            Err(PoolError::PoolUnusable { dead: 1 })
        );
        assert_eq!(pool.heal(), 1);
        assert_eq!(pool.dead_workers(), 0);
        let ok = AtomicUsize::new(0);
        assert_eq!(
            pool.try_run(3, &|_| {
                ok.fetch_add(1, Ordering::SeqCst);
                pool.barrier().wait();
            }),
            Ok(())
        );
        assert_eq!(ok.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn heal_on_a_healthy_pool_is_a_noop() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.heal(), 0);
        pool.run(2, &|_| {});
        assert_eq!(pool.heal(), 0);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(4);
        pool.run(4, &|_| {});
        drop(pool); // must not hang
    }

    #[test]
    fn debug_and_threads_accessors() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert!(format!("{pool:?}").contains("threads"));
    }
}
