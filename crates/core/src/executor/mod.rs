//! The async discipline executor: 1000+ retrieval queues on a handful of
//! OS threads.
//!
//! The thread backend ([`crate::realtime`]) spawns one OS thread per
//! worker, which caps scenario scale at what the host can schedule. This
//! module runs the *same* [`RetrievalDiscipline`] state
//! machines as cooperative tasks over a hand-rolled, vruntime-weighted
//! executor — no external async runtime, consistent with the offline
//! vendoring policy. A worker set of `W` tasks runs on `shards` executor
//! threads; each shard owns
//!
//! * a **run queue** ordered by accumulated virtual runtime (the CFS
//!   idea: the task that has consumed the least weighted CPU runs next,
//!   so a saturated drain cannot starve its shard-mates);
//! * a **deadline min-heap** absorbing every `Verdict::Sleep` /
//!   `Verdict::Wait` deadline — thousands of concurrent `r_sleep` timers
//!   become one deadline store per shard instead of one parked OS thread
//!   each, and every timer fires at its own nanosecond deadline, as
//!   `PreciseSleeper` wakes a thread worker;
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
//! | `Sleep(d)`   | `PreciseSleeper::sleep(d)`  | deadline timer, oversleep kept    |
//! | `Wait(d)`    | precise sleep, no oversleep | deadline timer                    |
//! | `Park(tok)`  | condvar wait on the bell    | waker registered on the bell      |
//!
//! Accounting is shared wholesale: tasks run over the identical
//! [`RealtimeBackend`] / `SharedState` substrate (controller, trylocks,
//! processed counters, doorbells) and publish through the same
//! [`TelemetrySink`] calls at the same protocol boundaries, so a report
//! produced on this backend is directly comparable to the thread
//! backend's — that is what the thread-vs-async parity tests pin down.
//!
//! [`WorkerSet::start`] is the one way to start retrieval workers on
//! either backend; [`WorkerSpec`] says which.

use crate::config::MetronomeConfig;
use crate::discipline::{DisciplineSpec, Doorbell, ParkToken, RetrievalDiscipline, Verdict};
use crate::policy::ThreadPolicy;
use crate::realtime::{spawn_worker, spin_tail, RealtimeBackend, RealtimeStats, SharedState};
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
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Consecutive `Verdict::Continue` turns a task may run before it is
/// requeued (64 turns × a 32-packet burst ≈ 2k packets per slice): the
/// preemption grain that keeps one saturated queue from starving its
/// shard-mates.
const TURN_BUDGET: u32 = 64;

/// Upper bound on one idle block (bounds stop latency even if a
/// notification is somehow missed).
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
// Timers: the shard's deadline store
// ---------------------------------------------------------------------------

/// An armed timer: which task to wake and the generation it was armed
/// under. A fired entry whose generation no longer matches the task's
/// current one is a cancelled timer and must be ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct TimerEntry {
    /// Shard-local index of the task to wake.
    task: usize,
    /// The task's arming generation when this timer was armed.
    gen: u64,
}

/// One shard's armed timers: a min-heap of exact deadlines (nanoseconds
/// on the shard's clock). Every timer fires at its own deadline, never
/// rounded to a coarser grain: Metronome's `TS` is computed so that the
/// mean vacation hits its target, which only holds on a precise sleep.
///
/// Cancellation is by *generation*: the executor bumps a task's
/// generation when a doorbell wake (or a new sleep) obsoletes a pending
/// timer. Stale entries still surface from [`Timers::expire`] and the
/// caller discards them by generation — O(1) cancel with no search.
///
/// Clock-free: callers pass `now` explicitly, so the store is
/// unit-testable without real time.
#[derive(Debug, Default)]
struct Timers {
    heap: BinaryHeap<Reverse<(u64, TimerEntry)>>,
}

impl Timers {
    /// Arm a timer firing at `deadline_ns`.
    fn arm(&mut self, deadline_ns: u64, entry: TimerEntry) {
        self.heap.push(Reverse((deadline_ns, entry)));
    }

    /// The earliest armed deadline (stale entries included) — what the
    /// shard's idle wait sleeps toward.
    fn next_deadline(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((deadline, _))| *deadline)
    }

    /// Pop every entry whose deadline is at or before `now_ns`, earliest
    /// first, and hand it to `fire`.
    fn expire(&mut self, now_ns: u64, mut fire: impl FnMut(TimerEntry)) {
        while let Some(&Reverse((deadline, entry))) = self.heap.peek() {
            if deadline > now_ns {
                break;
            }
            self.heap.pop();
            fire(entry);
        }
    }
}

// ---------------------------------------------------------------------------
// Tasks and the shard loop
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RunState {
    /// In the run queue (or currently running).
    Runnable,
    /// Waiting on a timer deadline (`Sleep`/`Wait`).
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
    /// task actually woke (the shard's wake imprecision shows up here,
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
/// wake-to-first-poll latencies, and every timer arm and fire (live or
/// cancelled).
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
    let mut timers = Timers::default();
    // Min-heap on (vruntime, local index): the least-served task runs
    // next. A task is in the heap iff its state is Runnable and it is
    // not currently running.
    let mut run_queue: BinaryHeap<Reverse<(u64, usize)>> =
        (0..tasks.len()).map(|idx| Reverse((0u64, idx))).collect();
    let mut woken: Vec<usize> = Vec::new();

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
        // 2. Timer expiries, each at its own deadline.
        timers.expire(epoch.elapsed().as_nanos() as u64, |e| {
            let task = &mut tasks[e.task];
            let live = task.gen == e.gen && task.state != RunState::Runnable;
            tracer.wheel_fire(task.id, live);
            if !live {
                return; // cancelled on wake
            }
            task.finish_idle(&tracer);
            // A fired park-fallback timer is a wake too: its next pick's
            // delay doubles as wake-to-first-poll latency.
            task.woke_from_park = task.state == RunState::Parked;
            task.state = RunState::Runnable;
            task.ready_at = Some(Instant::now());
            run_queue.push(Reverse((task.vruntime, e.task)));
        });
        // 3. Run the least-served runnable task for one slice.
        let Some(Reverse((_, idx))) = run_queue.pop() else {
            idle_wait(timers.next_deadline(), &injector, &stop, epoch);
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
                    timers.arm(
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
                    timers.arm(
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

/// Empty run queue: block toward the next timer deadline (or a bounded
/// default), spinning the final [`spin_tail`] for µs-class wake
/// precision — the same policy, and the same 1 ns timer slack on the
/// blocking wait, as [`PreciseSleeper`], at shard rather than worker
/// grain.
///
/// [`PreciseSleeper`]: crate::realtime::PreciseSleeper
fn idle_wait(next_deadline: Option<u64>, injector: &Injector, stop: &AtomicBool, epoch: Instant) {
    let now_ns = epoch.elapsed().as_nanos() as u64;
    match next_deadline {
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
// WorkerSet: the one way to start retrieval workers, on either backend
// ---------------------------------------------------------------------------

/// Which execution backend a worker set runs on: one OS thread per
/// worker (the paper's model) or cooperative tasks on a sharded async
/// executor (the 1000+-queue scale path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecBackend {
    /// One OS thread per worker.
    #[default]
    Threads,
    /// Cooperative tasks on `shards` executor threads; `shards` is
    /// clamped to `[1, worker count]`.
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

    /// How many trace-ring recorder slots a worker set on this backend
    /// records into: one per worker on the thread backend, one per shard
    /// (after clamping to the worker count) on the executor — which is
    /// also how many executor threads it spawns.
    pub fn trace_recorders(self, cfg: &MetronomeConfig, spec: &DisciplineSpec) -> usize {
        let workers = spec.workers(cfg.m_threads, cfg.n_queues);
        match self {
            ExecBackend::Threads => workers,
            ExecBackend::Async { shards } => shards.clamp(1, workers.max(1)),
        }
    }
}

/// What [`WorkerSet::start`] runs: a retrieval discipline on a backend,
/// and the telemetry hub and flight recorder its workers publish into.
#[derive(Default)]
pub struct WorkerSpec {
    /// The backend the workers run on.
    pub exec: ExecBackend,
    /// Worker count (`m_threads`, for Metronome), queue count, burst and
    /// the adaptive-timeout tunables.
    pub cfg: MetronomeConfig,
    /// The discipline every worker runs: `cfg.m_threads` racing workers
    /// for [`DisciplineSpec::Metronome`], one pinned worker per queue for
    /// the baselines (which have no queue race).
    pub discipline: DisciplineSpec,
    /// Telemetry: every worker publishes wakes, busy/sleep time, drained
    /// bursts and `TS` updates into it (relaxed-atomic increments at
    /// protocol grain). Needs one worker slot per worker — per task, not
    /// per shard, on the executor — and `cfg.n_queues` queue slots.
    pub hub: Option<Arc<TelemetryHub>>,
    /// Flight-recorder tracing (needs `hub`): turn verdicts, sleep
    /// precision, park/unpark and drained bursts in per-recorder rings,
    /// plus wake-latency and oversleep histograms. Needs at least
    /// [`ExecBackend::trace_recorders`] slots; extra slots stay empty
    /// (callers may reserve them for control-plane markers). On the
    /// executor each shard records its scheduler events too, with the
    /// global worker id in the event payloads.
    pub trace: Option<Arc<TraceHub>>,
}

/// A running retrieval worker set on either backend: the one handle the
/// realtime runner, the daemon and the bench harness hold.
pub struct WorkerSet<T: Send + 'static, Q: RxQueue<T> = Arc<ArrayQueue<T>>> {
    queues: Vec<Q>,
    stop: Arc<AtomicBool>,
    shared: Arc<SharedState>,
    cfg: MetronomeConfig,
    joins: Joins,
    _item: PhantomData<fn() -> T>,
}

/// The backend-specific part of a running set: what `stop` joins.
enum Joins {
    /// One thread per worker, each returning its policy.
    Threads(Vec<JoinHandle<ThreadPolicy>>),
    /// Executor shards, each returning its tasks' policies keyed by
    /// global worker id, and the injectors that rouse them at stop.
    Async {
        injectors: Vec<Arc<Injector>>,
        handles: Vec<JoinHandle<Vec<(usize, ThreadPolicy)>>>,
    },
}

impl<T: Send + 'static, Q: RxQueue<T>> WorkerSet<T, Q> {
    /// Start `spec`'s workers over `queues`. `make_process(worker)` is
    /// called once per worker and the returned closure is moved onto that
    /// worker, so per-worker state (a mempool cache, a flow-table shard)
    /// rides into the hot path with no synchronization; callers sharing
    /// one closure write `|_| …`.
    ///
    /// # Panics
    /// If `spec.cfg` is invalid, `queues` does not hold `cfg.n_queues`
    /// queues, the hub or trace hub is sized wrong for the set (see
    /// [`WorkerSpec`]), or a trace hub comes without a telemetry hub.
    pub fn start<P>(spec: WorkerSpec, queues: Vec<Q>, make_process: impl FnMut(usize) -> P) -> Self
    where
        P: FnMut(usize, &mut Vec<T>) + Send + 'static,
    {
        let WorkerSpec {
            exec,
            cfg,
            discipline,
            hub,
            trace,
        } = spec;
        cfg.validate().expect("invalid Metronome configuration");
        assert_eq!(queues.len(), cfg.n_queues, "queue count mismatch");
        if let Some(hub) = &hub {
            let workers = discipline.workers(cfg.m_threads, cfg.n_queues);
            assert_eq!(hub.n_workers(), workers, "hub/config worker mismatch");
            assert_eq!(hub.n_queues(), cfg.n_queues, "hub/config queue mismatch");
        }
        if let Some(trace) = &trace {
            let slots = exec.trace_recorders(&cfg, &discipline);
            assert!(
                trace.n_recorders() >= slots,
                "trace hub has {} recorder slots; the {} backend records into {slots}",
                trace.n_recorders(),
                exec.label()
            );
        }
        let mut set = WorkerSet {
            queues,
            stop: Arc::new(AtomicBool::new(false)),
            shared: SharedState::new(&cfg),
            cfg,
            joins: Joins::Threads(Vec::new()),
            _item: PhantomData,
        };
        // NullSink / NullTrace when telemetry / tracing is off: such a
        // worker monomorphizes to a loop with zero record-path cost.
        set.joins = match (hub, trace) {
            (None, None) => set.spawn(exec, &discipline, make_process, |_| NullSink, |_| NullTrace),
            (Some(hub), None) => set.spawn(
                exec,
                &discipline,
                make_process,
                move |worker| hub.worker_sink(worker),
                |_| NullTrace,
            ),
            (Some(hub), Some(trace)) => set.spawn(
                exec,
                &discipline,
                make_process,
                move |worker| hub.worker_sink(worker),
                move |recorder| trace.recorder(recorder),
            ),
            (None, Some(_)) => panic!("a trace hub needs a telemetry hub"),
        };
        set
    }

    /// Spawn the workers: `make_process` and `make_sink` build each
    /// worker's owned process closure and telemetry view, `make_tracer`
    /// each recorder's flight-recorder view (per worker on threads, per
    /// shard on the executor).
    fn spawn<P, S, R>(
        &self,
        exec: ExecBackend,
        discipline: &DisciplineSpec,
        mut make_process: impl FnMut(usize) -> P,
        make_sink: impl Fn(usize) -> S,
        make_tracer: impl Fn(usize) -> R,
    ) -> Joins
    where
        P: FnMut(usize, &mut Vec<T>) + Send + 'static,
        S: TelemetrySink + Send + 'static,
        R: TraceSink + Send + 'static,
    {
        let label = discipline.kind().label();
        let n_workers = discipline.workers(self.cfg.m_threads, self.cfg.n_queues);
        // Both backends run the same RealtimeBackend the single-threaded
        // harness hands out (the parity test drives exactly this
        // substrate), each with its worker's own process closure.
        let mut backend = |worker| {
            RealtimeBackend::new(
                self.queues.clone(),
                Arc::clone(&self.shared),
                make_process(worker),
            )
        };
        let build = |worker| {
            discipline.build(
                worker,
                self.cfg.n_queues,
                self.cfg.burst,
                &self.shared.doorbells,
            )
        };
        match exec {
            ExecBackend::Threads => Joins::Threads(
                (0..n_workers)
                    .map(|worker| {
                        spawn_worker(
                            format!("{label}-{worker}"),
                            build(worker),
                            backend(worker),
                            make_sink(worker),
                            make_tracer(worker),
                            Arc::clone(&self.stop),
                        )
                    })
                    .collect(),
            ),
            ExecBackend::Async { .. } => {
                let shards = exec.trace_recorders(&self.cfg, discipline);
                let injectors: Vec<_> = (0..shards).map(|_| Injector::new()).collect();
                let mut per_shard: Vec<Vec<Task<T, P, Q, S>>> =
                    (0..shards).map(|_| Vec::new()).collect();
                for worker in 0..n_workers {
                    let shard = worker % shards;
                    let waker = Waker::from(Arc::new(TaskWaker {
                        injector: Arc::clone(&injectors[shard]),
                        task: per_shard[shard].len(),
                    }));
                    per_shard[shard].push(Task {
                        id: worker,
                        discipline: build(worker),
                        backend: backend(worker),
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
                    .zip(&injectors)
                    .enumerate()
                    .map(|(s, (tasks, injector))| {
                        let injector = Arc::clone(injector);
                        let stop = Arc::clone(&self.stop);
                        let tracer = make_tracer(s);
                        std::thread::Builder::new()
                            .name(format!("{label}-exec-{s}"))
                            .spawn(move || run_shard(tasks, injector, stop, tracer))
                            .expect("spawn executor shard")
                    })
                    .collect();
                Joins::Async { injectors, handles }
            }
        }
    }

    /// Which backend this set runs on (the executor's shard count after
    /// clamping).
    pub fn exec(&self) -> ExecBackend {
        match &self.joins {
            Joins::Threads(_) => ExecBackend::Threads,
            Joins::Async { injectors, .. } => ExecBackend::Async {
                shards: injectors.len(),
            },
        }
    }

    /// The Rx queues (for producers to push into).
    pub fn queues(&self) -> &[Q] {
        &self.queues
    }

    /// Queue `q`'s wake-up doorbell. A producer feeding an InterruptLike
    /// worker set must ring it after enqueuing (once per burst); for the
    /// other disciplines ringing is harmless and ignored.
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

    /// Stop all workers and collect final statistics, in global worker
    /// order on either backend.
    pub fn stop(self) -> RealtimeStats {
        self.stop.store(true, Ordering::Relaxed);
        let policies: Vec<ThreadPolicy> = match self.joins {
            Joins::Threads(handles) => handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect(),
            Joins::Async { injectors, handles } => {
                for injector in &injectors {
                    injector.notify();
                }
                let mut tagged: Vec<(usize, ThreadPolicy)> = handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("executor shard panicked"))
                    .collect();
                tagged.sort_by_key(|&(id, _)| id);
                tagged.into_iter().map(|(_, p)| p).collect()
            }
        };
        let mut stats = RealtimeStats::default();
        for policy in policies {
            stats.wakes.push(policy.wakes);
            stats.races_won.push(policy.races_won);
            stats.races_lost.push(policy.races_lost);
        }
        // Counters are read only after every worker joined: a worker that
        // was mid-turn when the flag rose finishes its drain first, and
        // those packets must be on the books (the realtime runner asserts
        // offered = processed + dropped against these).
        stats.processed = self
            .shared
            .processed
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .collect();
        let ctrl = self.shared.controller.lock();
        for q in 0..self.cfg.n_queues {
            stats.rho.push(ctrl.rho(q));
            stats.ts.push(ctrl.ts(q));
        }
        stats.controller = Some(ctrl.clone());
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::ModerationConfig;
    use std::sync::atomic::AtomicU64;

    /// A Metronome worker set for `cfg` on `shards` executor threads.
    fn on_shards(cfg: MetronomeConfig, shards: usize) -> WorkerSpec {
        WorkerSpec {
            exec: ExecBackend::Async { shards },
            cfg,
            ..WorkerSpec::default()
        }
    }

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
            WorkerSet::start(on_shards(cfg, 2), queues.clone(), move |_worker| {
                let seen = Arc::clone(&seen);
                let sum = Arc::clone(&sum);
                move |_q: usize, burst: &mut Vec<u64>| {
                    for item in burst.drain(..) {
                        seen.fetch_add(1, Ordering::Relaxed);
                        sum.fetch_add(item, Ordering::Relaxed);
                    }
                }
            })
        };
        assert_eq!(m.exec(), ExecBackend::Async { shards: 2 });
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
            let spec = WorkerSpec {
                discipline: spec,
                ..on_shards(cfg, 2)
            };
            WorkerSet::start(spec, queues.clone(), move |_worker| {
                let seen = Arc::clone(&seen);
                move |_q: usize, burst: &mut Vec<u64>| {
                    seen.fetch_add(burst.drain(..).count() as u64, Ordering::Relaxed);
                }
            })
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
    fn const_sleep_wakes_through_the_deadline_timers() {
        let stats = run_discipline_once(DisciplineSpec::ConstSleep(Nanos::from_micros(200)), false);
        assert!(stats.wakes.iter().sum::<u64>() > 0);
    }

    #[test]
    fn async_sleeps_wake_at_their_own_deadline() {
        // Timers fire at their exact deadline, so an executor sleep is as
        // precise as the shard's spin tail makes it: well under the ≈7 µs
        // median a 16 µs timer grain adds by rounding each deadline up.
        // The median, not the mean, so a test-harness neighbour preempting
        // the shard for a few sleeps cannot decide the verdict.
        let cfg = MetronomeConfig {
            m_threads: 1,
            n_queues: 1,
            ..MetronomeConfig::default()
        };
        let hub = TelemetryHub::new(1, 1);
        let trace = Arc::new(TraceHub::new(1, 64));
        let spec = WorkerSpec {
            discipline: DisciplineSpec::ConstSleep(Nanos::from_micros(40)),
            hub: Some(Arc::clone(&hub)),
            trace: Some(Arc::clone(&trace)),
            ..on_shards(cfg, 1)
        };
        let queues = vec![Arc::new(ArrayQueue::<u64>::new(64))];
        let m = WorkerSet::start(spec, queues, |_worker| |_q: usize, _b: &mut Vec<u64>| {});
        std::thread::sleep(Duration::from_millis(50));
        m.stop();
        let sleeps = hub.worker(0).sleeps_fixed.load(Ordering::Relaxed);
        let oversleep = trace.dump().oversleep();
        assert_eq!(oversleep.count(), sleeps, "one oversleep sample per sleep");
        assert!(sleeps > 20, "only {sleeps} sleeps in 50 ms");
        let median = oversleep.median().expect("sleeps were recorded");
        assert!(
            median < 4_000,
            "median oversleep {median} ns per 40 µs sleep (mean {:.0} ns)",
            oversleep.mean()
        );
    }

    #[test]
    fn timers_never_fire_before_their_deadline() {
        let mut t = Timers::default();
        t.arm(5_000, TimerEntry { task: 0, gen: 0 });
        let mut fired = Vec::new();
        t.expire(4_999, |e| fired.push(e));
        assert!(fired.is_empty(), "fired before the deadline");
        assert_eq!(t.next_deadline(), Some(5_000));
    }

    #[test]
    fn timers_fire_at_their_exact_deadline() {
        // No tick grain: a deadline 1 ns past a round number fires at
        // that nanosecond, not at the next boundary.
        let mut t = Timers::default();
        t.arm(16_385, TimerEntry { task: 3, gen: 7 });
        let mut fired = Vec::new();
        t.expire(16_384, |e| fired.push(e));
        assert!(fired.is_empty());
        t.expire(16_385, |e| fired.push(e));
        assert_eq!(fired, vec![TimerEntry { task: 3, gen: 7 }]);
        assert_eq!(t.next_deadline(), None);
    }

    #[test]
    fn timers_fire_earliest_first() {
        let mut t = Timers::default();
        for (task, deadline) in [(0, 900), (1, 100), (2, 2_000), (3, 400)] {
            t.arm(deadline, TimerEntry { task, gen: 0 });
        }
        let mut fired = Vec::new();
        t.expire(1_000, |e| fired.push(e.task));
        assert_eq!(fired, vec![1, 3, 0], "deadline order, later one left");
        t.expire(u64::MAX, |e| fired.push(e.task));
        assert_eq!(fired, vec![1, 3, 0, 2]);
    }

    #[test]
    fn timers_surface_stale_generations_to_the_caller() {
        // The executor's cancellation protocol: a doorbell wake bumps the
        // task's generation, orphaning the armed fallback timer. The stale
        // entry still pops out; the caller's generation check drops it.
        let mut t = Timers::default();
        t.arm(5_000, TimerEntry { task: 4, gen: 1 });
        let mut fired = Vec::new();
        t.expire(10_000, |e| fired.push(e));
        assert_eq!(fired, vec![TimerEntry { task: 4, gen: 1 }]);
        assert_eq!(t.next_deadline(), None, "the stale entry left the store");
    }

    #[test]
    fn timers_next_deadline_is_the_minimum_armed() {
        let mut t = Timers::default();
        assert_eq!(t.next_deadline(), None);
        t.arm(90_000, TimerEntry { task: 0, gen: 0 });
        t.arm(7_000, TimerEntry { task: 1, gen: 0 });
        t.arm(2_000_000, TimerEntry { task: 2, gen: 0 });
        assert_eq!(t.next_deadline(), Some(7_000));
        t.expire(10_000, |_| {});
        assert_eq!(t.next_deadline(), Some(90_000));
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
        let spec = WorkerSpec {
            discipline: DisciplineSpec::InterruptLike(ModerationConfig::default()),
            ..on_shards(cfg, 1)
        };
        let m = WorkerSet::start(spec, queues, |_worker| |_q: usize, _b: &mut Vec<u64>| {});
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
        let spec = WorkerSpec {
            hub: Some(Arc::clone(&hub)),
            trace: Some(Arc::clone(&trace)),
            ..on_shards(cfg, 2)
        };
        let m = WorkerSet::start(spec, queues.clone(), |_worker| {
            |_q: usize, burst: &mut Vec<u64>| {
                burst.drain(..);
            }
        });
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
        // their delay, and Metronome sleeps ride the shard's timers.
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
                let spec = WorkerSpec {
                    exec,
                    ..WorkerSpec::default()
                };
                WorkerSet::start(spec, queues.clone(), move |_worker| {
                    let seen = Arc::clone(&seen);
                    move |_q: usize, burst: &mut Vec<u64>| {
                        seen.fetch_add(burst.drain(..).count() as u64, Ordering::Relaxed);
                    }
                })
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

    /// Start and stop a two-worker, one-queue Metronome set on `exec`
    /// with the given hubs. The sizing asserts fire before any worker
    /// spawns.
    fn start_sized(
        exec: ExecBackend,
        hub: Option<Arc<TelemetryHub>>,
        trace: Option<Arc<TraceHub>>,
    ) {
        let cfg = MetronomeConfig {
            m_threads: 2,
            n_queues: 1,
            ..MetronomeConfig::default()
        };
        let spec = WorkerSpec {
            exec,
            cfg,
            hub,
            trace,
            ..WorkerSpec::default()
        };
        let queues = vec![Arc::new(ArrayQueue::<u64>::new(8))];
        WorkerSet::start(spec, queues, |_| |_q: usize, _b: &mut Vec<u64>| {}).stop();
    }

    const ASYNC: ExecBackend = ExecBackend::Async { shards: 2 };

    #[test]
    #[should_panic(expected = "hub/config worker mismatch")]
    fn threads_reject_a_hub_with_the_wrong_worker_count() {
        start_sized(ExecBackend::Threads, Some(TelemetryHub::new(3, 1)), None);
    }

    #[test]
    #[should_panic(expected = "hub/config worker mismatch")]
    fn async_rejects_a_hub_with_the_wrong_worker_count() {
        // One slot per task, not per shard: a shard-sized hub is wrong.
        start_sized(ASYNC, Some(TelemetryHub::new(1, 1)), None);
    }

    #[test]
    #[should_panic(expected = "hub/config queue mismatch")]
    fn threads_reject_a_hub_with_the_wrong_queue_count() {
        start_sized(ExecBackend::Threads, Some(TelemetryHub::new(2, 2)), None);
    }

    #[test]
    #[should_panic(expected = "hub/config queue mismatch")]
    fn async_rejects_a_hub_with_the_wrong_queue_count() {
        start_sized(ASYNC, Some(TelemetryHub::new(2, 2)), None);
    }

    #[test]
    #[should_panic(expected = "trace hub has 1 recorder slots; the threads backend records into 2")]
    fn threads_reject_a_trace_hub_with_too_few_recorders() {
        let trace = Arc::new(TraceHub::new(1, 64));
        start_sized(
            ExecBackend::Threads,
            Some(TelemetryHub::new(2, 1)),
            Some(trace),
        );
    }

    #[test]
    #[should_panic(expected = "trace hub has 1 recorder slots; the async backend records into 2")]
    fn async_rejects_a_trace_hub_with_too_few_recorders() {
        let trace = Arc::new(TraceHub::new(1, 64));
        start_sized(ASYNC, Some(TelemetryHub::new(2, 1)), Some(trace));
    }

    #[test]
    #[should_panic(expected = "a trace hub needs a telemetry hub")]
    fn a_trace_hub_without_a_telemetry_hub_is_rejected() {
        start_sized(
            ExecBackend::Threads,
            None,
            Some(Arc::new(TraceHub::new(2, 64))),
        );
    }

    #[test]
    fn recorder_slots_follow_the_backend() {
        let cfg = MetronomeConfig {
            m_threads: 3,
            ..MetronomeConfig::default()
        };
        let spec = DisciplineSpec::Metronome;
        assert_eq!(ExecBackend::Threads.trace_recorders(&cfg, &spec), 3);
        assert_eq!(ASYNC.trace_recorders(&cfg, &spec), 2);
        // Shards clamp to [1, worker count].
        let many = ExecBackend::Async { shards: 8 };
        assert_eq!(many.trace_recorders(&cfg, &spec), 3);
        assert_eq!(
            ExecBackend::Async { shards: 0 }.trace_recorders(&cfg, &spec),
            1
        );
    }
}
