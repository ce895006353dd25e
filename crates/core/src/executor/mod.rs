//! The async discipline executor: 1000+ retrieval queues on a handful of
//! OS threads.
//!
//! The thread backend ([`crate::realtime::Metronome`]) spawns one OS
//! thread per worker, which caps scenario scale at what the host can
//! schedule. This module runs the *same* [`RetrievalDiscipline`] state
//! machines as cooperative tasks over a hand-rolled, vruntime-weighted
//! executor — no external async runtime, consistent with the offline
//! vendoring policy. A worker set of `W` tasks runs on `shards` executor
//! threads; each shard owns
//!
//! * a **run queue** ordered by accumulated virtual runtime (the CFS
//!   idea: the task that has consumed the least weighted CPU runs next,
//!   so a saturated drain cannot starve its shard-mates);
//! * a **hierarchical [`TimerWheel`]** absorbing every `Verdict::Sleep` /
//!   `Verdict::Wait` deadline — thousands of concurrent `r_sleep` timers
//!   become one coalesced deadline store per shard instead of one parked
//!   OS thread each;
//! * an **injector** that [`std::task::Waker`]s push woken tasks through:
//!   a `Verdict::Park` registers the task's waker on its queue's
//!   [`Doorbell`] (via the same lost-wakeup-safe arming protocol the
//!   condvar path uses, [`crate::discipline::ParkToken::arm`]), so a
//!   parked task costs zero CPU until a producer's ring fires the waker.
//!
//! Verdict → scheduling map (the async mirror of
//! `crate::realtime::run_worker`):
//!
//! | [`Verdict`]  | thread backend              | executor                          |
//! |--------------|-----------------------------|-----------------------------------|
//! | `Continue`   | loop again                  | same slice until the turn budget  |
//! | `Yield`      | stop-check + `spin_loop`    | requeue by vruntime               |
//! | `Sleep(d)`   | `PreciseSleeper::sleep(d)`  | timer-wheel entry, oversleep kept |
//! | `Wait(d)`    | precise sleep, no oversleep | timer-wheel entry                 |
//! | `Park(tok)`  | condvar wait on the bell    | waker registered on the bell      |
//!
//! Accounting is shared wholesale: tasks run over the identical
//! [`RealtimeBackend`] / `SharedState` substrate (controller, trylocks,
//! processed counters, doorbells) and publish through the same
//! [`TelemetrySink`] calls at the same protocol boundaries, so a report
//! produced on this backend is directly comparable to the thread
//! backend's — that is what the thread-vs-async parity tests pin down.

mod wheel;

pub use wheel::{TimerEntry, TimerWheel};

use crate::config::MetronomeConfig;
use crate::discipline::{DisciplineSpec, Doorbell, ParkToken, RetrievalDiscipline, Verdict};
use crate::policy::ThreadPolicy;
use crate::realtime::{
    collect_stats, spin_tail, Metronome, RealtimeBackend, RealtimeStats, SharedState,
};
use crate::rxqueue::RxQueue;
use crossbeam::queue::ArrayQueue;
use metronome_sim::Nanos;
use metronome_telemetry::{
    NullSink, NullTrace, TelemetryHub, TelemetrySink, TraceHub, TraceSink, TraceVerdict, TracedSink,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};

/// Wheel tick: ≈16 µs coalescing grain, fine enough that Metronome's
/// adaptive `TS` (tens of µs and up) keeps µs-class resolution.
const TICK_NS: u64 = 16_384;

/// Consecutive `Verdict::Continue` turns a task may run before it is
/// requeued (64 turns × a 32-packet burst ≈ 2k packets per slice): the
/// preemption grain that keeps one saturated queue from starving its
/// shard-mates.
const TURN_BUDGET: u32 = 64;

/// Upper bound on one idle block (bounds wheel catch-up work and stop
/// latency even if a notification is somehow missed).
const MAX_IDLE_WAIT: Duration = Duration::from_millis(20);

/// Defensive re-poll cadence for parked tasks. The waker protocol is
/// lost-wakeup-free on its own; this fallback timer (cancelled by the
/// wake's generation bump — "cancel on wake") merely bounds the damage
/// of a producer that forgets to ring. Long on purpose: parked tasks are
/// supposed to cost ~zero CPU.
const PARK_RECHECK: Duration = Duration::from_millis(50);

/// The CFS nice-0 weight; every task currently runs at it, so vruntime
/// degenerates to fair round-robin by consumed CPU. The division is kept
/// in the charge path so per-discipline weights are a one-line change.
const NICE0_WEIGHT: u64 = 1024;

// ---------------------------------------------------------------------------
// Injector: waker → shard hand-off
// ---------------------------------------------------------------------------

/// Where wakers deposit woken tasks and where an idle shard blocks.
struct Injector {
    state: Mutex<InjectorState>,
    cv: Condvar,
    /// Lock-free "something happened" flag for the spin tail of precise
    /// waits; cleared when the shard drains.
    hot: AtomicBool,
}

#[derive(Default)]
struct InjectorState {
    woken: Vec<usize>,
    notified: bool,
}

impl Injector {
    fn new() -> Arc<Self> {
        Arc::new(Injector {
            state: Mutex::new(InjectorState::default()),
            cv: Condvar::new(),
            hot: AtomicBool::new(false),
        })
    }

    /// Push a woken task (waker side) and rouse the shard.
    fn push(&self, task: usize) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.woken.push(task);
        st.notified = true;
        drop(st);
        self.hot.store(true, Ordering::Release);
        self.cv.notify_one();
    }

    /// Rouse the shard without a task (stop propagation).
    fn notify(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.notified = true;
        drop(st);
        self.hot.store(true, Ordering::Release);
        self.cv.notify_one();
    }

    /// Move all woken tasks into `out` and re-arm the notification flags.
    fn drain_into(&self, out: &mut Vec<usize>) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        out.append(&mut st.woken);
        st.notified = false;
        drop(st);
        self.hot.store(false, Ordering::Release);
    }

    /// Block until something is pushed/notified or `timeout` elapses.
    fn wait(&self, timeout: Duration) {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.notified || !st.woken.is_empty() {
            return;
        }
        let _ = self
            .cv
            .wait_timeout(st, timeout)
            .unwrap_or_else(|e| e.into_inner());
    }

    fn is_hot(&self) -> bool {
        self.hot.load(Ordering::Acquire)
    }
}

/// The per-task waker a `Verdict::Park` leaves on a [`Doorbell`]: firing
/// it pushes the task into its shard's injector. One waker is built per
/// task at spawn and reused for every park, so [`Waker::will_wake`]
/// dedupe on the bell works by pointer identity.
struct TaskWaker {
    injector: Arc<Injector>,
    task: usize,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.injector.push(self.task);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.injector.push(self.task);
    }
}

// ---------------------------------------------------------------------------
// Tasks and the shard loop
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RunState {
    /// In the run queue (or currently running).
    Runnable,
    /// Waiting on a timer-wheel deadline (`Sleep`/`Wait`).
    Sleeping,
    /// Waker registered on a doorbell (`Park`); fallback timer armed.
    Parked,
}

/// One cooperative task: a discipline state machine plus its private
/// backend, sink and scheduling bookkeeping.
struct Task<T: Send + 'static, P, Q: RxQueue<T>, S> {
    /// Global worker index (hub slot / stats order — identical to the
    /// thread backend's worker numbering).
    id: usize,
    discipline: crate::discipline::AnyDiscipline,
    backend: RealtimeBackend<T, P, Q>,
    sink: S,
    waker: Waker,
    state: RunState,
    /// Accumulated weighted CPU (CFS virtual runtime).
    vruntime: u64,
    weight: u64,
    /// Arming generation: bumped whenever a pending timer becomes stale
    /// (doorbell wake, new sleep), which is how timers cancel in O(1).
    gen: u64,
    /// When the current idle period (sleep or park) began.
    idle_from: Option<Instant>,
    /// Requested wake-up instant of the current sleep, when oversleep is
    /// part of the verdict's contract (`Sleep` yes, `Wait`/`Park` no).
    oversleep_deadline: Option<Instant>,
    /// Requested duration of the current timed sleep (trace event datum;
    /// `None` while parked or runnable).
    sleep_requested: Option<Nanos>,
    /// When the task last became runnable — the scheduler-delay clock a
    /// vruntime pick closes.
    ready_at: Option<Instant>,
    /// The task's next pick follows a doorbell wake: its scheduler delay
    /// is also the wake-to-first-poll latency.
    woke_from_park: bool,
}

impl<T, P, Q, S> Task<T, P, Q, S>
where
    T: Send + 'static,
    P: FnMut(usize, &mut Vec<T>),
    Q: RxQueue<T>,
    S: TelemetrySink,
{
    /// Close the current idle period: record the slept span and, for
    /// oversleep-bearing sleeps, how far past the requested deadline the
    /// task actually woke (the wheel-tick quantization shows up here,
    /// exactly as `PreciseSleeper` imprecision does on the thread path).
    ///
    /// The tracer sees the same values the sink does: a timed sleep
    /// becomes one sleep event carrying requested/actual/oversleep (so
    /// the trace oversleep histogram sums to the hub counter), a park
    /// becomes an unpark event carrying the parked span.
    fn finish_idle(&mut self, tracer: &impl TraceSink) {
        let actual = self.idle_from.take().map(|from| {
            let slept = Nanos(from.elapsed().as_nanos() as u64);
            self.sink.slept(slept);
            slept
        });
        let over = self.oversleep_deadline.take().map(|deadline| {
            let over = Nanos(
                Instant::now()
                    .saturating_duration_since(deadline)
                    .as_nanos() as u64,
            );
            self.sink.overslept(over);
            over
        });
        match (self.sleep_requested.take(), actual) {
            (Some(requested), Some(actual)) => {
                tracer.sleep(requested, actual, over.unwrap_or(Nanos::ZERO));
            }
            (None, Some(parked)) if self.state == RunState::Parked => tracer.unpark(parked),
            _ => {}
        }
    }
}

/// What a slice ended with (the non-`Continue` verdict that closed it,
/// or budget exhaustion).
enum SliceEnd {
    Requeue,
    Timed { dur: Nanos, oversleep: bool },
    Park(ParkToken),
}

/// Run one task until it yields, sleeps, parks or exhausts its turn
/// budget; charge the elapsed wall time to its busy telemetry and its
/// vruntime. The tracer brackets the slice with begin/end events, sees
/// every turn verdict, and — via the [`TracedSink`] wrapper — every
/// drained burst the discipline reports inside the slice.
fn run_slice<T, P, Q, S, R>(task: &mut Task<T, P, Q, S>, stop: &AtomicBool, tracer: &R) -> SliceEnd
where
    T: Send + 'static,
    P: FnMut(usize, &mut Vec<T>),
    Q: RxQueue<T>,
    S: TelemetrySink,
    R: TraceSink,
{
    tracer.slice_begin(task.id, task.vruntime);
    let sink = TracedSink::new(&task.sink, tracer);
    let from = Instant::now();
    let mut turns = 0u32;
    let end = loop {
        match task.discipline.turn(&mut task.backend, &sink) {
            Verdict::Continue => {
                tracer.turn_verdict(TraceVerdict::Continue);
                turns += 1;
                if turns >= TURN_BUDGET || stop.load(Ordering::Relaxed) {
                    break SliceEnd::Requeue;
                }
            }
            Verdict::Yield => {
                tracer.turn_verdict(TraceVerdict::Yield);
                break SliceEnd::Requeue;
            }
            Verdict::Sleep(dur) => {
                tracer.turn_verdict(TraceVerdict::Sleep);
                break SliceEnd::Timed {
                    dur,
                    oversleep: true,
                };
            }
            Verdict::Wait(dur) => {
                tracer.turn_verdict(TraceVerdict::Wait);
                break SliceEnd::Timed {
                    dur,
                    oversleep: false,
                };
            }
            Verdict::Park(token) => {
                tracer.turn_verdict(TraceVerdict::Park);
                break SliceEnd::Park(token);
            }
        }
    };
    let elapsed = from.elapsed().as_nanos() as u64;
    task.sink.busy(Nanos(elapsed));
    tracer.slice_end(task.id, Nanos(elapsed));
    task.vruntime = task
        .vruntime
        .saturating_add(elapsed.max(1) * NICE0_WEIGHT / task.weight);
    end
}

/// One executor shard: the scheduler loop over its owned task set.
///
/// The shard owns one `tracer` (its flight-recorder ring slot): besides
/// the per-slice events [`run_slice`] records, the loop itself records
/// doorbell unparks, vruntime picks with their scheduler delay,
/// wake-to-first-poll latencies, and every timer-wheel insert, cascade
/// batch, and fire (live or cancelled).
fn run_shard<T, P, Q, S, R>(
    mut tasks: Vec<Task<T, P, Q, S>>,
    injector: Arc<Injector>,
    stop: Arc<AtomicBool>,
    tracer: R,
) -> Vec<(usize, ThreadPolicy)>
where
    T: Send + 'static,
    P: FnMut(usize, &mut Vec<T>),
    Q: RxQueue<T>,
    S: TelemetrySink,
    R: TraceSink,
{
    let epoch = Instant::now();
    let mut wheel = TimerWheel::new(TICK_NS);
    // Min-heap on (vruntime, local index): the least-served task runs
    // next. A task is in the heap iff its state is Runnable and it is
    // not currently running.
    let mut run_queue: BinaryHeap<Reverse<(u64, usize)>> =
        (0..tasks.len()).map(|idx| Reverse((0u64, idx))).collect();
    let mut woken: Vec<usize> = Vec::new();
    let mut expired: Vec<TimerEntry> = Vec::new();

    while !stop.load(Ordering::Relaxed) {
        // 1. Doorbell wakes: parked tasks whose waker fired become
        //    runnable; the generation bump cancels their fallback timer.
        injector.drain_into(&mut woken);
        for idx in woken.drain(..) {
            let task = &mut tasks[idx];
            if task.state == RunState::Parked {
                task.gen = task.gen.wrapping_add(1);
                task.finish_idle(&tracer);
                task.state = RunState::Runnable;
                task.ready_at = Some(Instant::now());
                task.woke_from_park = true;
                run_queue.push(Reverse((task.vruntime, idx)));
            }
        }
        // 2. Timer expiries (coalesced: every deadline in a tick fires in
        //    one advance).
        let cascaded_before = wheel.cascaded();
        wheel.advance(epoch.elapsed().as_nanos() as u64, &mut |e| {
            expired.push(e);
        });
        let cascaded = wheel.cascaded() - cascaded_before;
        if cascaded > 0 {
            tracer.wheel_cascade(cascaded);
        }
        for e in expired.drain(..) {
            let task = &mut tasks[e.task];
            let live = task.gen == e.gen && task.state != RunState::Runnable;
            tracer.wheel_fire(task.id, live);
            if !live {
                continue; // cancelled on wake
            }
            task.finish_idle(&tracer);
            // A fired park-fallback timer is a wake too: its next pick's
            // delay doubles as wake-to-first-poll latency.
            task.woke_from_park = task.state == RunState::Parked;
            task.state = RunState::Runnable;
            task.ready_at = Some(Instant::now());
            run_queue.push(Reverse((task.vruntime, e.task)));
        }
        // 3. Run the least-served runnable task for one slice.
        let Some(Reverse((_, idx))) = run_queue.pop() else {
            idle_wait(&wheel, &injector, &stop, epoch);
            continue;
        };
        {
            let task = &mut tasks[idx];
            if let Some(ready) = task.ready_at.take() {
                let delay = Nanos(ready.elapsed().as_nanos() as u64);
                tracer.sched_pick(task.id, delay);
                if std::mem::take(&mut task.woke_from_park) {
                    tracer.first_poll(delay);
                }
            }
        }
        let end = run_slice(&mut tasks[idx], &stop, &tracer);
        let now_ns = epoch.elapsed().as_nanos() as u64;
        let task = &mut tasks[idx];
        match end {
            SliceEnd::Requeue => {
                task.ready_at = Some(Instant::now());
                run_queue.push(Reverse((task.vruntime, idx)));
            }
            SliceEnd::Timed { dur, oversleep } => {
                if dur.is_zero() {
                    task.ready_at = Some(Instant::now());
                    run_queue.push(Reverse((task.vruntime, idx)));
                } else {
                    task.gen = task.gen.wrapping_add(1);
                    task.state = RunState::Sleeping;
                    let now = Instant::now();
                    task.idle_from = Some(now);
                    task.oversleep_deadline =
                        oversleep.then(|| now + Duration::from_nanos(dur.as_nanos()));
                    task.sleep_requested = Some(dur);
                    let deadline_ns = now_ns + dur.as_nanos();
                    tracer.wheel_insert(task.id, deadline_ns);
                    wheel.insert(
                        deadline_ns,
                        TimerEntry {
                            task: idx,
                            gen: task.gen,
                        },
                    );
                }
            }
            SliceEnd::Park(token) => {
                // The waker lands on the bell only if the bell still sits
                // at the token's pre-poll sample; otherwise the ring we
                // would have parked through already happened — re-poll.
                if token.subscribe(&task.waker) {
                    task.gen = task.gen.wrapping_add(1);
                    task.state = RunState::Parked;
                    task.idle_from = Some(Instant::now());
                    tracer.park();
                    let deadline_ns = now_ns + PARK_RECHECK.as_nanos() as u64;
                    tracer.wheel_insert(task.id, deadline_ns);
                    wheel.insert(
                        deadline_ns,
                        TimerEntry {
                            task: idx,
                            gen: task.gen,
                        },
                    );
                } else {
                    task.ready_at = Some(Instant::now());
                    run_queue.push(Reverse((task.vruntime, idx)));
                }
            }
        }
    }

    // Stop: mirror the thread backend's exit discipline. A runnable task
    // may sit mid-drain (holding a queue trylock after a budget-exhausted
    // slice); drive it to its next verdict boundary so locks release and
    // the final drain lands on the books. Idle tasks just close their
    // sleep accounting.
    for task in &mut tasks {
        match task.state {
            RunState::Runnable => {
                let from = Instant::now();
                while let Verdict::Continue = task.discipline.turn(&mut task.backend, &task.sink) {}
                task.sink.busy(Nanos(from.elapsed().as_nanos() as u64));
            }
            RunState::Sleeping | RunState::Parked => task.finish_idle(&tracer),
        }
    }
    tasks
        .into_iter()
        .map(|t| (t.id, t.discipline.into_policy()))
        .collect()
}

/// Empty run queue: block toward the next wheel deadline (or a bounded
/// default), spinning the final [`spin_tail`] for µs-class wake
/// precision — the same policy, and the same 1 ns timer slack on the
/// blocking wait, as [`PreciseSleeper`], at shard rather than worker
/// grain.
///
/// [`PreciseSleeper`]: crate::realtime::PreciseSleeper
fn idle_wait(wheel: &TimerWheel, injector: &Injector, stop: &AtomicBool, epoch: Instant) {
    let now_ns = epoch.elapsed().as_nanos() as u64;
    match wheel.next_deadline_ns() {
        Some(d) if d <= now_ns => {} // due: return to expire it
        Some(d) => {
            let until = Duration::from_nanos(d - now_ns);
            let tail = spin_tail();
            if until > tail {
                injector.wait((until - tail).min(MAX_IDLE_WAIT));
            } else {
                while (epoch.elapsed().as_nanos() as u64) < d {
                    if injector.is_hot() || stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::hint::spin_loop();
                }
            }
        }
        None => injector.wait(MAX_IDLE_WAIT),
    }
}

// ---------------------------------------------------------------------------
// AsyncMetronome: the executor-backed worker set
// ---------------------------------------------------------------------------

/// A running worker set on the async executor — the drop-in counterpart
/// of [`Metronome`], same construction and observation surface, with the
/// worker-per-thread model replaced by `shards` executor threads.
pub struct AsyncMetronome<T: Send + 'static, Q: RxQueue<T> = Arc<ArrayQueue<T>>> {
    queues: Vec<Q>,
    stop: Arc<AtomicBool>,
    injectors: Vec<Arc<Injector>>,
    handles: Vec<std::thread::JoinHandle<Vec<(usize, ThreadPolicy)>>>,
    shared: Arc<SharedState>,
    cfg: MetronomeConfig,
    _item: PhantomData<fn() -> T>,
}

impl<T: Send + 'static, Q: RxQueue<T>> AsyncMetronome<T, Q> {
    /// Start `spec`'s worker set as cooperative tasks on `shards`
    /// executor threads (clamped to `[1, worker count]`), with a
    /// per-worker process factory — the async counterpart of
    /// [`Metronome::start_discipline_scoped`].
    pub fn start_discipline_scoped<P>(
        cfg: MetronomeConfig,
        spec: DisciplineSpec,
        queues: Vec<Q>,
        make_process: impl FnMut(usize) -> P,
        shards: usize,
    ) -> Self
    where
        P: FnMut(usize, &mut Vec<T>) + Send + 'static,
    {
        Self::start_with_sinks(
            cfg,
            spec,
            queues,
            make_process,
            |_worker| NullSink,
            |_shard| NullTrace,
            shards,
        )
    }

    /// [`AsyncMetronome::start_discipline_scoped`] with telemetry. The
    /// hub needs one worker slot per *task* (not per shard) — worker
    /// numbering and labeling are identical to the thread backend's, so
    /// reports stay comparable across backends.
    pub fn start_discipline_scoped_with_telemetry<P>(
        cfg: MetronomeConfig,
        spec: DisciplineSpec,
        queues: Vec<Q>,
        make_process: impl FnMut(usize) -> P,
        hub: &Arc<TelemetryHub>,
        shards: usize,
    ) -> Self
    where
        P: FnMut(usize, &mut Vec<T>) + Send + 'static,
    {
        assert_eq!(
            hub.n_workers(),
            spec.workers(cfg.m_threads, cfg.n_queues),
            "hub/config worker mismatch"
        );
        assert_eq!(hub.n_queues(), cfg.n_queues, "hub/config queue mismatch");
        let hub = Arc::clone(hub);
        Self::start_with_sinks(
            cfg,
            spec,
            queues,
            make_process,
            move |worker| hub.worker_sink(worker),
            |_shard| NullTrace,
            shards,
        )
    }

    /// [`AsyncMetronome::start_discipline_scoped_with_telemetry`] with
    /// flight-recorder tracing. Unlike the thread backend (one recorder
    /// per worker), the executor records at *shard* grain: each shard
    /// thread owns one ring slot of `trace` and logs its scheduler events
    /// (slices, vruntime picks, wheel activity) alongside the per-task
    /// verdicts, with the global worker id carried in the event payloads.
    /// The trace hub must have at least `shards` recorder slots (after
    /// clamping to `[1, worker count]`).
    pub fn start_discipline_scoped_traced<P>(
        cfg: MetronomeConfig,
        spec: DisciplineSpec,
        queues: Vec<Q>,
        make_process: impl FnMut(usize) -> P,
        hub: &Arc<TelemetryHub>,
        trace: &Arc<TraceHub>,
        shards: usize,
    ) -> Self
    where
        P: FnMut(usize, &mut Vec<T>) + Send + 'static,
    {
        let workers = spec.workers(cfg.m_threads, cfg.n_queues);
        assert_eq!(hub.n_workers(), workers, "hub/config worker mismatch");
        assert_eq!(hub.n_queues(), cfg.n_queues, "hub/config queue mismatch");
        assert!(
            trace.n_recorders() >= shards.clamp(1, workers.max(1)),
            "trace hub has {} recorder slots for {} shards",
            trace.n_recorders(),
            shards.clamp(1, workers.max(1))
        );
        let hub = Arc::clone(hub);
        let trace = Arc::clone(trace);
        Self::start_with_sinks(
            cfg,
            spec,
            queues,
            make_process,
            move |worker| hub.worker_sink(worker),
            move |shard| trace.recorder(shard),
            shards,
        )
    }

    fn start_with_sinks<P, S, R>(
        cfg: MetronomeConfig,
        spec: DisciplineSpec,
        queues: Vec<Q>,
        mut make_process: impl FnMut(usize) -> P,
        make_sink: impl Fn(usize) -> S,
        make_tracer: impl Fn(usize) -> R,
        shards: usize,
    ) -> Self
    where
        P: FnMut(usize, &mut Vec<T>) + Send + 'static,
        S: TelemetrySink + Send + 'static,
        R: TraceSink + Send + 'static,
    {
        cfg.validate().expect("invalid Metronome configuration");
        assert_eq!(queues.len(), cfg.n_queues, "queue count mismatch");
        let n_tasks = spec.workers(cfg.m_threads, cfg.n_queues);
        let shards = shards.clamp(1, n_tasks.max(1));
        let shared = SharedState::new(&cfg);
        let stop = Arc::new(AtomicBool::new(false));
        let label = spec.kind().label();
        let injectors: Vec<_> = (0..shards).map(|_| Injector::new()).collect();
        let mut per_shard: Vec<Vec<Task<T, P, Q, S>>> = (0..shards).map(|_| Vec::new()).collect();
        for worker in 0..n_tasks {
            let shard = worker % shards;
            let local = per_shard[shard].len();
            let waker = Waker::from(Arc::new(TaskWaker {
                injector: Arc::clone(&injectors[shard]),
                task: local,
            }));
            per_shard[shard].push(Task {
                id: worker,
                discipline: spec.build(worker, cfg.n_queues, cfg.burst, &shared.doorbells),
                backend: RealtimeBackend::new(
                    queues.clone(),
                    Arc::clone(&shared),
                    make_process(worker),
                ),
                sink: make_sink(worker),
                waker,
                state: RunState::Runnable,
                vruntime: 0,
                weight: NICE0_WEIGHT,
                gen: 0,
                idle_from: None,
                oversleep_deadline: None,
                sleep_requested: None,
                ready_at: None,
                woke_from_park: false,
            });
        }
        let handles = per_shard
            .into_iter()
            .enumerate()
            .map(|(s, tasks)| {
                let injector = Arc::clone(&injectors[s]);
                let stop = Arc::clone(&stop);
                let tracer = make_tracer(s);
                std::thread::Builder::new()
                    .name(format!("{label}-exec-{s}"))
                    .spawn(move || run_shard(tasks, injector, stop, tracer))
                    .expect("spawn executor shard")
            })
            .collect();
        AsyncMetronome {
            queues,
            stop,
            injectors,
            handles,
            shared,
            cfg,
            _item: PhantomData,
        }
    }

    /// The Rx queues (for producers to push into).
    pub fn queues(&self) -> &[Q] {
        &self.queues
    }

    /// Number of executor shard threads.
    pub fn shards(&self) -> usize {
        self.injectors.len()
    }

    /// Queue `q`'s wake-up doorbell (see [`Metronome::doorbell`]).
    pub fn doorbell(&self, q: usize) -> &Arc<Doorbell> {
        &self.shared.doorbells[q]
    }

    /// Items processed so far on a queue.
    pub fn processed(&self, queue: usize) -> u64 {
        self.shared.processed[queue].load(Ordering::Relaxed)
    }

    /// Current smoothed load estimate of a queue.
    pub fn rho(&self, queue: usize) -> f64 {
        self.shared.controller.lock().rho(queue)
    }

    /// Current adaptive TS of a queue.
    pub fn ts(&self, queue: usize) -> Nanos {
        self.shared.controller.lock().ts(queue)
    }

    /// Stop all shards and collect final statistics, in the same global
    /// worker order the thread backend reports.
    pub fn stop(self) -> RealtimeStats {
        self.stop.store(true, Ordering::Relaxed);
        for injector in &self.injectors {
            injector.notify();
        }
        let mut policies: Vec<(usize, ThreadPolicy)> = self
            .handles
            .into_iter()
            .flat_map(|h| h.join().expect("executor shard panicked"))
            .collect();
        policies.sort_by_key(|&(id, _)| id);
        collect_stats(
            &self.shared,
            self.cfg.n_queues,
            policies.into_iter().map(|(_, p)| p).collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// ExecBackend + WorkerSet: runtime-selectable backend
// ---------------------------------------------------------------------------

/// Which execution backend a worker set runs on: one OS thread per
/// worker (the paper's model) or cooperative tasks on a sharded async
/// executor (the 1000+-queue scale path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecBackend {
    /// One OS thread per worker ([`Metronome`]).
    #[default]
    Threads,
    /// Cooperative tasks on `shards` executor threads
    /// ([`AsyncMetronome`]); `shards` is clamped to `[1, worker count]`.
    Async {
        /// Executor threads to spread the task set over.
        shards: usize,
    },
}

impl ExecBackend {
    /// Stable lowercase label ("threads" / "async") for protocols and
    /// reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecBackend::Threads => "threads",
            ExecBackend::Async { .. } => "async",
        }
    }
}

/// A running worker set on either backend: the one handle the realtime
/// runner and the daemon hold, delegating the shared observation surface
/// ([`queues`](WorkerSet::queues), [`doorbell`](WorkerSet::doorbell),
/// [`processed`](WorkerSet::processed), …) to whichever backend is live.
pub enum WorkerSet<T: Send + 'static, Q: RxQueue<T> = Arc<ArrayQueue<T>>> {
    /// One OS thread per worker.
    Threads(Metronome<T, Q>),
    /// Cooperative tasks on executor shards.
    Async(AsyncMetronome<T, Q>),
}

impl<T: Send + 'static, Q: RxQueue<T>> WorkerSet<T, Q> {
    /// Start `spec`'s worker set on `exec`, with a per-worker process
    /// factory (see [`Metronome::start_discipline_scoped`]).
    pub fn start_discipline_scoped<P>(
        exec: ExecBackend,
        cfg: MetronomeConfig,
        spec: DisciplineSpec,
        queues: Vec<Q>,
        make_process: impl FnMut(usize) -> P,
    ) -> Self
    where
        P: FnMut(usize, &mut Vec<T>) + Send + 'static,
    {
        match exec {
            ExecBackend::Threads => WorkerSet::Threads(Metronome::start_discipline_scoped(
                cfg,
                spec,
                queues,
                make_process,
            )),
            ExecBackend::Async { shards } => WorkerSet::Async(
                AsyncMetronome::start_discipline_scoped(cfg, spec, queues, make_process, shards),
            ),
        }
    }

    /// [`WorkerSet::start_discipline_scoped`] with telemetry; the hub
    /// needs one worker slot per worker on either backend.
    pub fn start_discipline_scoped_with_telemetry<P>(
        exec: ExecBackend,
        cfg: MetronomeConfig,
        spec: DisciplineSpec,
        queues: Vec<Q>,
        make_process: impl FnMut(usize) -> P,
        hub: &Arc<TelemetryHub>,
    ) -> Self
    where
        P: FnMut(usize, &mut Vec<T>) + Send + 'static,
    {
        match exec {
            ExecBackend::Threads => {
                WorkerSet::Threads(Metronome::start_discipline_scoped_with_telemetry(
                    cfg,
                    spec,
                    queues,
                    make_process,
                    hub,
                ))
            }
            ExecBackend::Async { shards } => {
                WorkerSet::Async(AsyncMetronome::start_discipline_scoped_with_telemetry(
                    cfg,
                    spec,
                    queues,
                    make_process,
                    hub,
                    shards,
                ))
            }
        }
    }

    /// [`WorkerSet::start_discipline_scoped_with_telemetry`] with
    /// flight-recorder tracing. Recorder grain follows the backend: one
    /// ring per worker on [`ExecBackend::Threads`], one ring per shard on
    /// [`ExecBackend::Async`] — size the trace hub with
    /// [`ExecBackend`]-aware arithmetic (see
    /// [`WorkerSet::trace_recorders`]).
    pub fn start_discipline_scoped_traced<P>(
        exec: ExecBackend,
        cfg: MetronomeConfig,
        spec: DisciplineSpec,
        queues: Vec<Q>,
        make_process: impl FnMut(usize) -> P,
        hub: &Arc<TelemetryHub>,
        trace: &Arc<TraceHub>,
    ) -> Self
    where
        P: FnMut(usize, &mut Vec<T>) + Send + 'static,
    {
        match exec {
            ExecBackend::Threads => WorkerSet::Threads(Metronome::start_discipline_scoped_traced(
                cfg,
                spec,
                queues,
                make_process,
                hub,
                trace,
            )),
            ExecBackend::Async { shards } => {
                WorkerSet::Async(AsyncMetronome::start_discipline_scoped_traced(
                    cfg,
                    spec,
                    queues,
                    make_process,
                    hub,
                    trace,
                    shards,
                ))
            }
        }
    }

    /// How many trace-ring recorder slots a worker set on `exec` records
    /// into: one per worker on the thread backend, one per shard (after
    /// clamping to the worker count) on the executor.
    pub fn trace_recorders(
        exec: ExecBackend,
        cfg: &MetronomeConfig,
        spec: DisciplineSpec,
    ) -> usize {
        let workers = spec.workers(cfg.m_threads, cfg.n_queues);
        match exec {
            ExecBackend::Threads => workers,
            ExecBackend::Async { shards } => shards.clamp(1, workers.max(1)),
        }
    }

    /// Which backend this set runs on.
    pub fn exec(&self) -> ExecBackend {
        match self {
            WorkerSet::Threads(_) => ExecBackend::Threads,
            WorkerSet::Async(a) => ExecBackend::Async { shards: a.shards() },
        }
    }

    /// The Rx queues (for producers to push into).
    pub fn queues(&self) -> &[Q] {
        match self {
            WorkerSet::Threads(m) => m.queues(),
            WorkerSet::Async(a) => a.queues(),
        }
    }

    /// Queue `q`'s wake-up doorbell.
    pub fn doorbell(&self, q: usize) -> &Arc<Doorbell> {
        match self {
            WorkerSet::Threads(m) => m.doorbell(q),
            WorkerSet::Async(a) => a.doorbell(q),
        }
    }

    /// Items processed so far on a queue.
    pub fn processed(&self, queue: usize) -> u64 {
        match self {
            WorkerSet::Threads(m) => m.processed(queue),
            WorkerSet::Async(a) => a.processed(queue),
        }
    }

    /// Current smoothed load estimate of a queue.
    pub fn rho(&self, queue: usize) -> f64 {
        match self {
            WorkerSet::Threads(m) => m.rho(queue),
            WorkerSet::Async(a) => a.rho(queue),
        }
    }

    /// Current adaptive TS of a queue.
    pub fn ts(&self, queue: usize) -> Nanos {
        match self {
            WorkerSet::Threads(m) => m.ts(queue),
            WorkerSet::Async(a) => a.ts(queue),
        }
    }

    /// Stop all workers and collect final statistics.
    pub fn stop(self) -> RealtimeStats {
        match self {
            WorkerSet::Threads(m) => m.stop(),
            WorkerSet::Async(a) => a.stop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::ModerationConfig;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn async_processes_everything_exactly_once() {
        // Mirror of realtime::tests::processes_everything_exactly_once,
        // on 2 executor shards instead of 3 OS threads.
        let cfg = MetronomeConfig {
            m_threads: 3,
            n_queues: 2,
            ..MetronomeConfig::default()
        };
        let queues: Vec<_> = (0..2)
            .map(|_| Arc::new(ArrayQueue::<u64>::new(4096)))
            .collect();
        let seen = Arc::new(AtomicU64::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        let m = {
            let seen = Arc::clone(&seen);
            let sum = Arc::clone(&sum);
            AsyncMetronome::start_discipline_scoped(
                cfg,
                DisciplineSpec::Metronome,
                queues.clone(),
                move |_worker| {
                    let seen = Arc::clone(&seen);
                    let sum = Arc::clone(&sum);
                    move |_q: usize, burst: &mut Vec<u64>| {
                        for item in burst.drain(..) {
                            seen.fetch_add(1, Ordering::Relaxed);
                            sum.fetch_add(item, Ordering::Relaxed);
                        }
                    }
                },
                2,
            )
        };
        assert_eq!(m.shards(), 2);
        let n: u64 = 10_000;
        for i in 0..n {
            let q = (i % 2) as usize;
            let mut item = i;
            loop {
                match m.queues()[q].push(item) {
                    Ok(()) => break,
                    Err(v) => {
                        item = v;
                        std::thread::yield_now();
                    }
                }
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while seen.load(Ordering::Relaxed) < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = m.stop();
        assert_eq!(seen.load(Ordering::Relaxed), n, "lost or stalled items");
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2, "duplicates");
        assert_eq!(stats.total_processed(), n);
        // Stats arrive in global worker order: one policy per *task*.
        assert_eq!(stats.wakes.len(), 3);
    }

    /// Drive one discipline end-to-end on the executor; mirror of the
    /// thread backend's run_discipline_once.
    fn run_discipline_once(spec: DisciplineSpec, ring: bool) -> RealtimeStats {
        let cfg = MetronomeConfig {
            m_threads: 2,
            n_queues: 2,
            ..MetronomeConfig::default()
        };
        let queues: Vec<_> = (0..2)
            .map(|_| Arc::new(ArrayQueue::<u64>::new(4096)))
            .collect();
        let seen = Arc::new(AtomicU64::new(0));
        let m = {
            let seen = Arc::clone(&seen);
            AsyncMetronome::start_discipline_scoped(
                cfg,
                spec,
                queues.clone(),
                move |_worker| {
                    let seen = Arc::clone(&seen);
                    move |_q: usize, burst: &mut Vec<u64>| {
                        seen.fetch_add(burst.drain(..).count() as u64, Ordering::Relaxed);
                    }
                },
                2,
            )
        };
        let n: u64 = 4_000;
        for i in 0..n {
            let q = (i % 2) as usize;
            let mut item = i;
            loop {
                match m.queues()[q].push(item) {
                    Ok(()) => break,
                    Err(v) => {
                        item = v;
                        std::thread::yield_now();
                    }
                }
            }
            if ring && i % 32 == 0 {
                m.doorbell(q).ring();
            }
        }
        if ring {
            m.doorbell(0).ring();
            m.doorbell(1).ring();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while seen.load(Ordering::Relaxed) < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = m.stop();
        assert_eq!(seen.load(Ordering::Relaxed), n, "lost or stalled items");
        assert_eq!(stats.total_processed(), n);
        stats
    }

    #[test]
    fn busy_poll_runs_cooperatively_without_starvation() {
        // Two spinning pollers share two shards; vruntime requeueing must
        // let both make progress.
        let stats = run_discipline_once(DisciplineSpec::BusyPoll, false);
        assert_eq!(stats.wakes.iter().sum::<u64>(), 0);
        assert!(stats.processed.iter().all(|&p| p > 0), "a queue starved");
    }

    #[test]
    fn const_sleep_wakes_through_the_timer_wheel() {
        let stats = run_discipline_once(DisciplineSpec::ConstSleep(Nanos::from_micros(200)), false);
        assert!(stats.wakes.iter().sum::<u64>() > 0);
    }

    #[test]
    fn interrupt_parks_on_wakers_and_wakes_on_ring() {
        let stats = run_discipline_once(
            DisciplineSpec::InterruptLike(ModerationConfig::default()),
            true,
        );
        assert!(stats.wakes.iter().sum::<u64>() > 0);
    }

    #[test]
    fn parked_executor_stops_promptly() {
        // Idle interrupt tasks are parked on wakers with only the long
        // fallback timer armed; stop() must not wait for it.
        let cfg = MetronomeConfig {
            m_threads: 1,
            n_queues: 1,
            ..MetronomeConfig::default()
        };
        let queues = vec![Arc::new(ArrayQueue::<u64>::new(64))];
        let m = AsyncMetronome::start_discipline_scoped(
            cfg,
            DisciplineSpec::InterruptLike(ModerationConfig::default()),
            queues,
            |_worker| |_q: usize, _b: &mut Vec<u64>| {},
            1,
        );
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        let stats = m.stop();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "parked shard did not observe stop"
        );
        assert_eq!(stats.total_processed(), 0);
    }

    #[test]
    fn traced_executor_records_scheduler_and_wheel_events() {
        use metronome_telemetry::TraceEventKind;
        let cfg = MetronomeConfig {
            m_threads: 3,
            n_queues: 2,
            ..MetronomeConfig::default()
        };
        let hub = TelemetryHub::new(3, 2);
        let trace = Arc::new(TraceHub::new(2, 4096));
        let queues: Vec<_> = (0..2)
            .map(|_| Arc::new(ArrayQueue::<u64>::new(4096)))
            .collect();
        let m = AsyncMetronome::start_discipline_scoped_traced(
            cfg,
            DisciplineSpec::Metronome,
            queues.clone(),
            |_worker| {
                |_q: usize, burst: &mut Vec<u64>| {
                    burst.drain(..);
                }
            },
            &hub,
            &trace,
            2,
        );
        let n = 4_000u64;
        for i in 0..n {
            let q = (i % 2) as usize;
            let mut item = i;
            loop {
                match m.queues()[q].push(item) {
                    Ok(()) => break,
                    Err(v) => {
                        item = v;
                        std::thread::yield_now();
                    }
                }
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while m.processed(0) + m.processed(1) < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        m.stop();
        let dump = trace.dump();
        // Both shard rings saw activity.
        for w in &dump.workers {
            assert!(
                w.events.len() as u64 + w.dropped > 0,
                "shard {} recorded nothing",
                w.worker
            );
        }
        // Scheduler introspection: slices bracket, vruntime picks carry
        // their delay, and Metronome sleeps ride the timer wheel.
        assert!(dump.kind_count(TraceEventKind::SliceBegin) > 0);
        assert!(dump.kind_count(TraceEventKind::SliceEnd) > 0);
        assert!(dump.kind_count(TraceEventKind::SchedPick) > 0);
        assert!(dump.kind_count(TraceEventKind::WheelInsert) > 0);
        assert!(dump.kind_count(TraceEventKind::WheelFire) > 0);
        // Burst reconciliation holds on the executor path too.
        let hub_bursts: u64 = (0..2)
            .map(|q| hub.queue(q).bursts.load(Ordering::Relaxed))
            .sum();
        assert_eq!(dump.kind_count(TraceEventKind::Burst), hub_bursts);
        let hub_oversleep: u64 = (0..3)
            .map(|w| hub.worker(w).oversleep_nanos.load(Ordering::Relaxed))
            .sum();
        assert_eq!(dump.oversleep().sum(), hub_oversleep as u128);
    }

    #[test]
    fn worker_set_dispatches_both_backends() {
        for exec in [ExecBackend::Threads, ExecBackend::Async { shards: 1 }] {
            let queues = vec![Arc::new(ArrayQueue::<u64>::new(256))];
            let seen = Arc::new(AtomicU64::new(0));
            let ws = {
                let seen = Arc::clone(&seen);
                WorkerSet::start_discipline_scoped(
                    exec,
                    MetronomeConfig::default(),
                    DisciplineSpec::Metronome,
                    queues.clone(),
                    move |_worker| {
                        let seen = Arc::clone(&seen);
                        move |_q: usize, burst: &mut Vec<u64>| {
                            seen.fetch_add(burst.drain(..).count() as u64, Ordering::Relaxed);
                        }
                    },
                )
            };
            assert_eq!(ws.exec().label(), exec.label());
            for i in 0..100u64 {
                let _ = ws.queues()[0].push(i);
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while seen.load(Ordering::Relaxed) < 100 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            let stats = ws.stop();
            assert_eq!(stats.total_processed(), 100, "{} backend", exec.label());
        }
    }
}
