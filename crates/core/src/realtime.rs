//! Real-thread packet retrieval: the paper's Listing 2 — and its
//! comparative baselines — on actual OS threads.
//!
//! This module is the thread backend of
//! [`WorkerSet::start`](crate::executor::WorkerSet::start): it runs a
//! [`RetrievalDiscipline`] worker set (the shared
//! [`crate::engine::MetronomeEngine`]: trylock racing, primary/backup
//! timeouts, adaptive `TS`; or the BusyPoll / InterruptLike / ConstSleep
//! baselines) with `std::thread` workers against in-process lock-free
//! queues. Each worker owns a
//! [`RealtimeBackend`] that realizes the engine's [`Backend`]
//! capabilities with real primitives:
//!
//! | engine capability | simulation realization | real-thread realization |
//! |---|---|---|
//! | race primitive    | owner slot on the sim queue | CMPXCHG [`TryLock`] |
//! | receive burst     | counting descriptor ring    | any [`RxQueue`] (locked `ArrayQueue`, lock-free SPSC/MPSC ring consumer) drained batched into a reusable scratch buffer, one app call per burst |
//! | sleep service     | calibrated `hr_sleep` model | [`PreciseSleeper`]  |
//! | entropy           | seeded xoshiro stream       | SplitMix64 counter  |
//! | clock             | virtual `Nanos`             | `std::time::Instant` |
//! | step costs        | calibrated cycle charges    | zero (hardware pays) |
//!
//! **`hr_sleep()` substitution.** The paper's precision comes from a custom
//! kernel sleep service we cannot ship from user space. [`PreciseSleeper`]
//! stands in with the configuration the paper measures next to it (§III-A,
//! Fig. 1): a plain `nanosleep` on a thread whose timer slack is lowered
//! to 1 ns ([`lower_timer_slack`]), plus a short spin-wait over the final
//! stretch of the interval (20 µs) for the wake-up latency the kernel
//! still adds. The sleep costs no CPU; only the tail does (documented in
//! DESIGN.md as a substitution).

use crate::config::MetronomeConfig;
use crate::controller::AdaptiveController;
use crate::discipline::{Doorbell, RetrievalDiscipline, Verdict};
use crate::engine::Backend;
use crate::policy::ThreadPolicy;
use crate::rxqueue::RxQueue;
use crate::trylock::TryLock;
use crossbeam::queue::ArrayQueue;
use metronome_sim::Nanos;
use metronome_telemetry::{TelemetrySink, TraceSink, TraceVerdict, TracedSink};
use parking_lot::Mutex;
use std::cell::OnceCell;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a parked worker waits on its doorbell before re-checking the
/// stop flag (bounds shutdown latency of idle InterruptLike workers).
const PARK_STOP_CHECK: Duration = Duration::from_millis(1);

/// Spin tail on a thread whose timer slack was lowered to 1 ns: covers
/// the kernel's wake-up latency, which oversleeps 5–200 µs requests by a
/// p50 of 5–8 µs and a p99 of 7–16 µs on a 2-vCPU guest.
const TAIL_AT_MIN_SLACK: Duration = Duration::from_micros(20);

/// Spin tail when the slack stays at the kernel's 50 µs default, where
/// `nanosleep` and `Condvar::wait_timeout` oversleep by a p50 of ≈56 µs.
const TAIL_AT_DEFAULT_SLACK: Duration = Duration::from_micros(120);

/// Lower the calling thread's timer slack to 1 ns, once per thread, and
/// report whether it is lowered.
///
/// This is `prctl(PR_SET_TIMERSLACK, 1)` — the `nanosleep` configuration
/// the paper's Fig. 1 finds within ≈0.02 µs of `hr_sleep()`, and the one
/// the simulator models as `metronome_os::config::TimerSlack::MinimalOneMicro`.
/// The crate forbids `unsafe`, so instead of the syscall it writes `1` to
/// `/proc/<tid>/timerslack_ns`, `<tid>` being the last component of the
/// `/proc/thread-self` link (procfs has no `thread-self/timerslack_ns`).
/// The outcome is cached in a thread-local, so every later call is one
/// TLS read. Without procfs, or where the write is refused, the thread
/// keeps the default slack and this returns `false`.
pub fn lower_timer_slack() -> bool {
    thread_local! {
        static LOWERED: OnceCell<bool> = const { OnceCell::new() };
    }
    LOWERED.with(|lowered| {
        *lowered.get_or_init(|| {
            timer_slack_path().is_some_and(|path| std::fs::write(path, b"1").is_ok())
        })
    })
}

/// The calling thread's `timerslack_ns` file, if procfs is mounted.
fn timer_slack_path() -> Option<PathBuf> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    Some(
        Path::new("/proc")
            .join(link.file_name()?)
            .join("timerslack_ns"),
    )
}

/// How much of a timed wait's end the calling thread spins instead of
/// blocking: 20 µs once [`lower_timer_slack`] succeeded, 120 µs if it
/// failed. The single precision-versus-CPU policy of every realtime wait
/// ([`PreciseSleeper::default`] and the async executor's idle wait).
pub(crate) fn spin_tail() -> Duration {
    if lower_timer_slack() {
        TAIL_AT_MIN_SLACK
    } else {
        TAIL_AT_DEFAULT_SLACK
    }
}

/// Hybrid sleep: a slack-free OS sleep for the bulk, a spin for the tail.
///
/// Every `sleep()` first lowers the thread's timer slack to 1 ns
/// ([`lower_timer_slack`]). The default sleeper then spins the final
/// 20 µs (120 µs where the slack stays at 50 µs); an explicit
/// [`PreciseSleeper::with_spin_threshold`] spins exactly that.
///
/// **Accounting semantic.** A `sleep()` call — including its spun tail,
/// which for intervals at or below the tail is the *whole* interval —
/// counts as sleep time in telemetry, not busy time. The sleeper stands
/// in for the paper's kernel `hr_sleep()`, whose sleeps are genuinely
/// CPU-free; charging its user-space spin to the worker would report the
/// substitution artifact instead of the protocol's cost. Every retrieval
/// discipline goes through the same sleeper with the same tail, so
/// cross-discipline duty-cycle comparisons stay apples-to-apples *under
/// the `hr_sleep` model*; the real spin cost of the substitution is
/// documented in DESIGN.md §2 and measurable by dropping the threshold to
/// zero (the 1 ns-slack `nanosleep` ablation).
#[derive(Clone, Copy, Debug, Default)]
pub struct PreciseSleeper {
    /// Portion of the interval spun instead of slept; `None` spins
    /// [`spin_tail`], decided on the sleeping thread.
    spin_threshold: Option<Duration>,
}

impl PreciseSleeper {
    /// A sleeper spinning the final `spin_threshold` of every interval.
    /// Larger thresholds buy wake precision with CPU; zero degrades to a
    /// plain `thread::sleep` at 1 ns slack (the `nanosleep` ablation).
    pub fn with_spin_threshold(spin_threshold: Duration) -> Self {
        PreciseSleeper {
            spin_threshold: Some(spin_threshold),
        }
    }

    /// Sleep for at least `dur`, waking within spin precision of the
    /// deadline (sub-microsecond on an unloaded core). Returns the
    /// measured oversleep — how far past the requested deadline the call
    /// actually returned — so callers can feed telemetry's sleep-
    /// precision counters.
    pub fn sleep(&self, dur: Duration) -> Duration {
        let start = Instant::now();
        let deadline = start + dur;
        let tail = match self.spin_threshold {
            Some(threshold) => {
                lower_timer_slack();
                threshold
            }
            None => spin_tail(),
        };
        if dur > tail {
            std::thread::sleep(dur - tail);
        }
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
        start.elapsed().saturating_sub(dur)
    }
}

/// Aggregated counters of a real-thread run.
#[derive(Clone, Debug, Default)]
pub struct RealtimeStats {
    /// Items processed per queue.
    pub processed: Vec<u64>,
    /// Per-thread wake counts.
    pub wakes: Vec<u64>,
    /// Per-thread won races.
    pub races_won: Vec<u64>,
    /// Per-thread lost races (busy tries).
    pub races_lost: Vec<u64>,
    /// Final smoothed ρ per queue.
    pub rho: Vec<f64>,
    /// Final TS per queue.
    pub ts: Vec<Nanos>,
    /// Snapshot of the adaptive controller after all workers joined:
    /// per-queue try accounting and renewal-cycle sums for reports.
    pub controller: Option<AdaptiveController>,
}

impl RealtimeStats {
    /// Total items processed across queues.
    pub fn total_processed(&self) -> u64 {
        self.processed.iter().sum()
    }

    /// Total busy tries across threads.
    pub fn total_busy_tries(&self) -> u64 {
        self.races_lost.iter().sum()
    }
}

/// State shared by every worker of one worker set, on either backend —
/// which is what keeps the two backends' accounting identical.
pub(crate) struct SharedState {
    pub(crate) controller: Mutex<AdaptiveController>,
    locks: Vec<TryLock>,
    /// Instant each queue's lock was last released (vacation measurement).
    last_release: Vec<Mutex<Option<Instant>>>,
    pub(crate) processed: Vec<AtomicU64>,
    rand_state: AtomicU64,
    /// `TL` is fixed (§IV-E), so workers read it without the controller
    /// lock.
    t_long: Nanos,
    /// One wake-up doorbell per queue. Only the InterruptLike discipline
    /// parks on them; producers may ring unconditionally (a ring with no
    /// waiter is one uncontended mutex bump).
    pub(crate) doorbells: Vec<Arc<Doorbell>>,
}

impl SharedState {
    pub(crate) fn new(cfg: &MetronomeConfig) -> Arc<Self> {
        Arc::new(SharedState {
            controller: Mutex::new(AdaptiveController::new(cfg.clone())),
            locks: (0..cfg.n_queues).map(|_| TryLock::new()).collect(),
            last_release: (0..cfg.n_queues).map(|_| Mutex::new(None)).collect(),
            processed: (0..cfg.n_queues).map(|_| AtomicU64::new(0)).collect(),
            rand_state: AtomicU64::new(0x4D3),
            t_long: cfg.t_long,
            doorbells: (0..cfg.n_queues).map(|_| Doorbell::new()).collect(),
        })
    }
}

impl SharedState {
    /// SplitMix64 over a shared counter — the `rte_random` role.
    fn draw(&self) -> u64 {
        let s = self
            .rand_state
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The real-thread realization of the engine's [`Backend`] capabilities:
/// CMPXCHG trylock, [`RxQueue`] receive bursts drained batched into a
/// reusable scratch buffer and processed one application call per burst,
/// wall-clock vacation measurement, and a shared SplitMix64 entropy
/// counter. One backend instance belongs to one worker thread, and its
/// process closure is `FnMut` *owned by that worker* — per-thread state
/// (a mempool cache, a flow table shard) lives right in the closure with
/// no locks around it.
pub struct RealtimeBackend<T: Send + 'static, P, Q: RxQueue<T> = Arc<ArrayQueue<T>>> {
    queues: Vec<Q>,
    shared: Arc<SharedState>,
    process: P,
    /// Reusable burst buffer: filled by `rx_burst`, handed to the process
    /// closure, cleared after — the hot path allocates only until the
    /// buffer's capacity has grown to the configured burst size once.
    scratch: Vec<T>,
    /// Acquire instant of the currently held lock (busy-period start).
    acquired_at: Option<Instant>,
    /// Vacation that ended at the current acquire, if measurable.
    pending_vacation: Option<Duration>,
}

impl<T, P, Q> RealtimeBackend<T, P, Q>
where
    T: Send + 'static,
    P: FnMut(usize, &mut Vec<T>),
    Q: RxQueue<T>,
{
    pub(crate) fn new(queues: Vec<Q>, shared: Arc<SharedState>, process: P) -> Self {
        RealtimeBackend {
            queues,
            shared,
            process,
            scratch: Vec::new(),
            acquired_at: None,
            pending_vacation: None,
        }
    }
}

impl<T, P, Q> Backend for RealtimeBackend<T, P, Q>
where
    T: Send + 'static,
    P: FnMut(usize, &mut Vec<T>),
    Q: RxQueue<T>,
{
    fn n_queues(&self) -> usize {
        self.queues.len()
    }

    fn draw(&mut self) -> u64 {
        self.shared.draw()
    }

    fn try_acquire(&mut self, q: usize) -> bool {
        if !self.shared.locks[q].try_lock() {
            self.shared.controller.lock().record_busy_try(q);
            return false;
        }
        // Lock held: measure the vacation that just ended. The controller
        // is deliberately NOT touched here — contending its mutex while
        // holding the queue lock would extend the queue's unavailability
        // and inflate the measured busy period; the acquisition is
        // recorded in release()'s single critical section instead.
        let now = Instant::now();
        self.acquired_at = Some(now);
        self.pending_vacation =
            (*self.shared.last_release[q].lock()).map(|released| now.duration_since(released));
        true
    }

    fn rx_burst(&mut self, q: usize, burst: u32) -> u64 {
        // Drain up to `burst` items into the reusable scratch buffer with
        // one batched dequeue, then hand the application the whole burst
        // at once (the rx_burst → process-array shape of a DPDK lcore
        // loop). The actual drained count — not the requested burst — is
        // what the engine's Chunk phase and the cost model see.
        debug_assert!(self.scratch.is_empty(), "scratch not cleared");
        let taken = self.queues[q].pop_burst(&mut self.scratch, burst as usize) as u64;
        if taken > 0 {
            (self.process)(q, &mut self.scratch);
            // The closure may have consumed the items (e.g. recycled them
            // to a mempool); drop whatever it left behind.
            self.scratch.clear();
            self.shared.processed[q].fetch_add(taken, Ordering::Relaxed);
        }
        taken
    }

    fn release(&mut self, q: usize) -> Nanos {
        let acquired = self
            .acquired_at
            .take()
            .expect("release without matching acquire");
        let busy = acquired.elapsed();
        *self.shared.last_release[q].lock() = Some(Instant::now());
        self.shared.locks[q].unlock();
        // One controller critical section per winning turn: record the
        // acquisition and the completed renewal cycle, read the new TS.
        let mut ctrl = self.shared.controller.lock();
        ctrl.record_acquired(q);
        if let Some(vacation) = self.pending_vacation.take() {
            ctrl.record_cycle(
                q,
                Nanos(vacation.as_nanos() as u64),
                Nanos(busy.as_nanos() as u64),
            );
        }
        ctrl.ts(q)
    }

    fn ts(&self, q: usize) -> Nanos {
        self.shared.controller.lock().ts(q)
    }

    fn tl(&self) -> Nanos {
        self.shared.t_long
    }
}

/// A single-threaded harness over the realtime backend components.
///
/// Spawns no threads: it builds the same `SharedState` a running
/// [`WorkerSet`](crate::executor::WorkerSet) uses and hands out per-worker [`RealtimeBackend`]s that a
/// test can drive step by step. This is what the sim-vs-realtime parity
/// test uses to execute both backends under one deterministic schedule.
pub struct RealtimeHarness<T: Send + 'static, F, Q: RxQueue<T> = Arc<ArrayQueue<T>>> {
    queues: Vec<Q>,
    shared: Arc<SharedState>,
    process: Arc<F>,
    _item: PhantomData<fn() -> T>,
}

impl<T, F, Q> RealtimeHarness<T, F, Q>
where
    T: Send + 'static,
    F: Fn(usize, &mut Vec<T>) + Send + Sync + 'static,
    Q: RxQueue<T>,
{
    /// Build the shared state for `cfg` over the given queues.
    pub fn new(cfg: MetronomeConfig, queues: Vec<Q>, process: F) -> Self {
        cfg.validate().expect("invalid Metronome configuration");
        assert_eq!(queues.len(), cfg.n_queues, "queue count mismatch");
        RealtimeHarness {
            shared: SharedState::new(&cfg),
            queues,
            process: Arc::new(process),
            _item: PhantomData,
        }
    }

    /// A worker backend sharing this harness's state (all backends call
    /// the one shared process closure).
    pub fn backend(
        &self,
    ) -> RealtimeBackend<T, impl FnMut(usize, &mut Vec<T>) + Send + Sync + 'static, Q> {
        let process = Arc::clone(&self.process);
        RealtimeBackend::new(
            self.queues.clone(),
            Arc::clone(&self.shared),
            move |q, burst: &mut Vec<T>| process(q, burst),
        )
    }

    /// Items processed so far on a queue.
    pub fn processed(&self, queue: usize) -> u64 {
        self.shared.processed[queue].load(Ordering::Relaxed)
    }

    /// Successful acquisitions recorded on a queue.
    pub fn total_tries(&self, queue: usize) -> u64 {
        self.shared.controller.lock().queue(queue).total_tries
    }

    /// Busy tries recorded on a queue.
    pub fn busy_tries(&self, queue: usize) -> u64 {
        self.shared.controller.lock().queue(queue).busy_tries
    }
}

/// Spawn one retrieval worker thread: [`run_worker`] at the default
/// [`PreciseSleeper`] until `stop` is raised. The thread backend of
/// [`WorkerSet::start`](crate::executor::WorkerSet::start).
pub(crate) fn spawn_worker<B, D, S, R>(
    name: String,
    discipline: D,
    backend: B,
    sink: S,
    tracer: R,
    stop: Arc<AtomicBool>,
) -> JoinHandle<ThreadPolicy>
where
    B: Backend + Send + 'static,
    D: RetrievalDiscipline + Send + 'static,
    S: TelemetrySink + Send + 'static,
    R: TraceSink + Send + 'static,
{
    let sleeper = PreciseSleeper::default();
    std::thread::Builder::new()
        .name(name)
        .spawn(move || run_worker(discipline, backend, sleeper, sink, tracer, &stop))
        .expect("spawn retrieval worker")
}

/// Drive one retrieval discipline with real sleeps, spins and doorbell
/// parks until `stop` is raised.
///
/// This is the whole worker body: the protocol lives in the discipline's
/// [`RetrievalDiscipline::turn`]; here we only execute the verdicts it
/// yields. Busy/sleep accounting happens at verdict boundaries (never per
/// packet); spans of a worker that never reaches a sleep/park boundary —
/// a spinning busy poller, or any discipline held in a long drain streak
/// by sustained load — are flushed every `SPAN_FLUSH_MASK + 1` turns so
/// windowed duty-cycle sampling stays live without an `Instant` read per
/// turn.
///
/// `tracer` is the worker's flight-recorder view. It sees every verdict,
/// every sleep with its requested/actual/oversleep split (exactly the
/// values the telemetry sink is fed, so trace histograms reconcile with
/// hub counters), every park/unpark with the wake-to-first-poll latency,
/// and — via the [`TracedSink`] wrapper around `sink` — every drained
/// burst the discipline reports. With [`NullTrace`] all of it
/// monomorphizes away.
fn run_worker<B, D, S, R>(
    mut discipline: D,
    mut backend: B,
    sleeper: PreciseSleeper,
    sink: S,
    tracer: R,
    stop: &AtomicBool,
) -> ThreadPolicy
where
    B: Backend,
    D: RetrievalDiscipline,
    S: TelemetrySink,
    R: TraceSink,
{
    /// Boundary-less turns (empty spins or non-empty drains) between
    /// busy-span flushes.
    const SPAN_FLUSH_MASK: u32 = 0x3F;

    // Mirror discipline-internal `retrieved` reports into burst trace
    // events (1:1 with the hub's `bursts` counter by construction).
    let sink = TracedSink::new(sink, &tracer);
    let mut awake_since = Instant::now();
    let mut streak: u32 = 0;
    // Set when a park wake was just recorded; consumed at the top of the
    // next turn as the wake-to-first-poll latency.
    let mut woke_at: Option<Instant> = None;
    loop {
        if let Some(woke) = woke_at.take() {
            tracer.first_poll(Nanos(woke.elapsed().as_nanos() as u64));
        }
        match discipline.turn(&mut backend, &sink) {
            // Real cycles were already spent doing the step; flush the
            // running busy span periodically so a saturated worker's duty
            // cycle shows up in the window it was earned, not in one
            // spike at the streak's end.
            Verdict::Continue => {
                tracer.turn_verdict(TraceVerdict::Continue);
                streak = streak.wrapping_add(1);
                if streak & SPAN_FLUSH_MASK == 0 {
                    sink.busy(Nanos(awake_since.elapsed().as_nanos() as u64));
                    awake_since = Instant::now();
                }
            }
            Verdict::Yield => {
                tracer.turn_verdict(TraceVerdict::Yield);
                // Spin boundary (busy polling): no queue lock is held, so
                // exiting here cannot strand anything.
                if stop.load(Ordering::Relaxed) {
                    sink.busy(Nanos(awake_since.elapsed().as_nanos() as u64));
                    return discipline.into_policy();
                }
                streak = streak.wrapping_add(1);
                if streak & SPAN_FLUSH_MASK == 0 {
                    sink.busy(Nanos(awake_since.elapsed().as_nanos() as u64));
                    awake_since = Instant::now();
                }
                std::hint::spin_loop();
            }
            Verdict::Sleep(dur) => {
                tracer.turn_verdict(TraceVerdict::Sleep);
                sink.busy(Nanos(awake_since.elapsed().as_nanos() as u64));
                // Sleep points are turn boundaries: the queue lock is never
                // held here, so exiting now cannot strand a TryLock or drop
                // an in-flight renewal cycle mid-drain.
                if stop.load(Ordering::Relaxed) {
                    return discipline.into_policy();
                }
                if !dur.is_zero() {
                    let slept_from = Instant::now();
                    let oversleep = sleeper.sleep(Duration::from_nanos(dur.as_nanos()));
                    let measured = Nanos(slept_from.elapsed().as_nanos() as u64);
                    let over = Nanos(oversleep.as_nanos() as u64);
                    sink.slept(measured);
                    sink.overslept(over);
                    // Same values the sink just saw: the trace oversleep
                    // histogram's sum equals the hub's oversleep counter.
                    tracer.sleep(dur, measured, over);
                }
                awake_since = Instant::now();
            }
            Verdict::Wait(dur) => {
                tracer.turn_verdict(TraceVerdict::Wait);
                // Start-up stagger: an exact idle wait with no oversleep
                // semantics (and none recorded — the trace event carries a
                // zero oversleep, keeping histogram sums reconciled).
                sink.busy(Nanos(awake_since.elapsed().as_nanos() as u64));
                if stop.load(Ordering::Relaxed) {
                    return discipline.into_policy();
                }
                if !dur.is_zero() {
                    let slept_from = Instant::now();
                    sleeper.sleep(Duration::from_nanos(dur.as_nanos()));
                    let measured = Nanos(slept_from.elapsed().as_nanos() as u64);
                    sink.slept(measured);
                    tracer.sleep(dur, measured, Nanos::ZERO);
                }
                awake_since = Instant::now();
            }
            Verdict::Park(token) => {
                tracer.turn_verdict(TraceVerdict::Park);
                sink.busy(Nanos(awake_since.elapsed().as_nanos() as u64));
                tracer.park();
                let parked_from = Instant::now();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        sink.slept(Nanos(parked_from.elapsed().as_nanos() as u64));
                        return discipline.into_policy();
                    }
                    if token.wait(PARK_STOP_CHECK) {
                        break;
                    }
                }
                let parked = Nanos(parked_from.elapsed().as_nanos() as u64);
                sink.slept(parked);
                tracer.unpark(parked);
                woke_at = Some(Instant::now());
                awake_since = Instant::now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::DisciplineSpec;
    use crate::executor::{WorkerSet, WorkerSpec};
    use metronome_telemetry::{TelemetryHub, TraceHub};

    /// A thread-backend Metronome worker set for `cfg`.
    fn threads(cfg: MetronomeConfig) -> WorkerSpec {
        WorkerSpec {
            cfg,
            ..WorkerSpec::default()
        }
    }

    #[test]
    fn precise_sleeper_hits_deadline() {
        let s = PreciseSleeper::default();
        for (i, req_us) in [50u64, 200, 1_000].into_iter().enumerate() {
            let req = Duration::from_micros(req_us);
            let t0 = Instant::now();
            s.sleep(req);
            let actual = t0.elapsed();
            assert!(actual >= req, "woke early: {actual:?} < {req:?}");
            // Generous bound for shared CI machines.
            assert!(
                actual < req + Duration::from_millis(20),
                "woke far too late: {actual:?} for request {req:?}"
            );
            if i == 0 {
                // Read before asking `lower_timer_slack`, which would
                // itself lower a slack the sleep left alone.
                let slack = timer_slack_path().and_then(|p| std::fs::read_to_string(p).ok());
                if lower_timer_slack() {
                    assert_eq!(
                        slack.as_deref().map(str::trim),
                        Some("1"),
                        "timer slack after the first sleep"
                    );
                }
            }
        }
    }

    /// The sleeper's real CPU cost: the OS-sleep part is free, so on-CPU
    /// time over wall time is about the spin tail's share of the interval
    /// (20 µs of 200 µs), not the whole interval.
    #[test]
    fn precise_sleeper_cpu_stays_a_fraction_of_wall() {
        // First field of schedstat: the thread's on-CPU time in ns.
        let on_cpu_ns = || -> Option<u64> {
            let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
            stat.split_whitespace().next()?.parse().ok()
        };
        let Some(cpu0) = on_cpu_ns() else {
            println!("skipped: /proc/thread-self/schedstat is not readable");
            return;
        };
        if !lower_timer_slack() {
            println!("skipped: the thread's timer slack could not be lowered");
            return;
        }
        let s = PreciseSleeper::default();
        let t0 = Instant::now();
        for _ in 0..1_000 {
            s.sleep(Duration::from_micros(200));
        }
        let wall = t0.elapsed().as_nanos() as f64;
        let cpu = (on_cpu_ns().expect("schedstat readable") - cpu0) as f64;
        let ratio = cpu / wall;
        assert!(ratio <= 0.20, "sleeper CPU/wall {ratio:.3} > 0.20");
    }

    #[test]
    fn processes_everything_exactly_once() {
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
            WorkerSet::start(threads(cfg), queues.clone(), move |_| {
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
        // Feed 10k items split across queues.
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
        // Wait for drain (bounded).
        let deadline = Instant::now() + Duration::from_secs(10);
        while seen.load(Ordering::Relaxed) < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = m.stop();
        assert_eq!(seen.load(Ordering::Relaxed), n, "lost or stalled items");
        assert_eq!(
            sum.load(Ordering::Relaxed),
            n * (n - 1) / 2,
            "duplicated items"
        );
        assert_eq!(stats.total_processed(), n);
        assert_eq!(stats.wakes.len(), 3);
    }

    #[test]
    fn adaptation_reacts_to_idle() {
        // With no traffic the estimator must stay at/near zero and TS at
        // its maximal (M·V̄ for single queue) value.
        let cfg = MetronomeConfig::default(); // M=3, N=1, V̄=10µs
        let queues = vec![Arc::new(ArrayQueue::<u64>::new(64))];
        let m = WorkerSet::start(threads(cfg), queues, |_| |_q: usize, _b: &mut Vec<u64>| {});
        std::thread::sleep(Duration::from_millis(300));
        let rho = m.rho(0);
        let ts = m.ts(0);
        let stats = m.stop();
        assert!(rho < 0.2, "idle rho {rho}");
        // TS near M·V̄ = 30µs.
        assert!(
            ts >= Nanos::from_micros(20),
            "idle TS {ts} should be near M·V̄"
        );
        assert!(stats.total_processed() == 0);
        // Threads were actually waking and racing.
        assert!(stats.wakes.iter().sum::<u64>() > 100);
    }

    #[test]
    fn stop_counters_include_the_final_drain() {
        // Stop while workers are mid-turn: a worker only observes the flag
        // at its next sleep boundary, so it finishes draining first — and
        // stop() must report those packets. With a slow processor the
        // final drain is long, which made the old snapshot-before-join
        // bookkeeping visibly undercount.
        let cfg = MetronomeConfig {
            m_threads: 2,
            ..MetronomeConfig::default()
        };
        let queues = vec![Arc::new(ArrayQueue::<u64>::new(1024))];
        let m = WorkerSet::start(threads(cfg), queues.clone(), |_| {
            |_q: usize, burst: &mut Vec<u64>| {
                // 50 µs of spinning per item, so the final drain is long.
                for _ in burst.drain(..) {
                    let t0 = Instant::now();
                    while t0.elapsed() < Duration::from_micros(50) {
                        std::hint::spin_loop();
                    }
                }
            }
        });
        let n = 512u64;
        for i in 0..n {
            let _ = queues[0].push(i);
        }
        // Give a worker time to win the race and get deep into the burst.
        std::thread::sleep(Duration::from_millis(5));
        let stats = m.stop();
        let mut leftover = 0u64;
        while queues[0].pop().is_some() {
            leftover += 1;
        }
        assert_eq!(
            stats.total_processed() + leftover,
            n,
            "stop() lost the packets processed during the final drain"
        );
    }

    #[test]
    fn stats_expose_race_outcomes() {
        let cfg = MetronomeConfig::default();
        let queues = vec![Arc::new(ArrayQueue::<u64>::new(64))];
        let m = WorkerSet::start(threads(cfg), queues, |_| |_q: usize, _b: &mut Vec<u64>| {});
        std::thread::sleep(Duration::from_millis(200));
        let stats = m.stop();
        let won: u64 = stats.races_won.iter().sum();
        assert!(won > 0, "nobody ever acquired the queue");
        assert_eq!(stats.rho.len(), 1);
        assert_eq!(stats.ts.len(), 1);
        let ctrl = stats.controller.expect("controller snapshot");
        assert_eq!(ctrl.queue(0).total_tries, won);
    }

    #[test]
    fn telemetry_hub_tracks_a_realtime_run() {
        let cfg = MetronomeConfig {
            m_threads: 2,
            n_queues: 1,
            ..MetronomeConfig::default()
        };
        let hub = TelemetryHub::new(2, 1);
        let queues = vec![Arc::new(ArrayQueue::<u64>::new(1024))];
        let spec = WorkerSpec {
            hub: Some(Arc::clone(&hub)),
            ..threads(cfg)
        };
        let m = WorkerSet::start(spec, queues.clone(), |_| {
            |_q: usize, burst: &mut Vec<u64>| {
                burst.drain(..);
            }
        });
        let n = 2_000u64;
        for i in 0..n {
            let mut item = i;
            loop {
                match m.queues()[0].push(item) {
                    Ok(()) => break,
                    Err(v) => {
                        item = v;
                        std::thread::yield_now();
                    }
                }
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while m.processed(0) < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = m.stop();
        // The hub saw exactly what the engine processed and how often the
        // workers woke — same events, counted on two independent paths.
        assert_eq!(hub.total_retrieved(), stats.total_processed());
        assert_eq!(hub.total_wakeups(), stats.wakes.iter().sum::<u64>());
        // Busy/sleep spans were measured and the TS gauge is live.
        assert!(hub.worker(0).busy_nanos.load(Ordering::Relaxed) > 0);
        assert!(
            hub.worker(0).sleep_nanos.load(Ordering::Relaxed)
                + hub.worker(1).sleep_nanos.load(Ordering::Relaxed)
                > 0
        );
        assert!(hub.queue(0).ts_ns.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn precise_sleeper_reports_oversleep() {
        let s = PreciseSleeper::with_spin_threshold(Duration::from_micros(200));
        let req = Duration::from_micros(300);
        let t0 = Instant::now();
        let over = s.sleep(req);
        let actual = t0.elapsed();
        // The report must equal the measured lateness (within the cost of
        // the two Instant reads).
        assert!(actual >= req);
        assert!(
            over <= actual.saturating_sub(req) + Duration::from_micros(50),
            "oversleep {over:?} inconsistent with actual {actual:?}"
        );
    }

    #[test]
    fn traced_run_reconciles_with_hub_counters() {
        let cfg = MetronomeConfig {
            m_threads: 2,
            n_queues: 1,
            ..MetronomeConfig::default()
        };
        let hub = TelemetryHub::new(2, 1);
        let trace = Arc::new(TraceHub::new(2, 4096));
        let queues = vec![Arc::new(ArrayQueue::<u64>::new(1024))];
        let spec = WorkerSpec {
            hub: Some(Arc::clone(&hub)),
            trace: Some(Arc::clone(&trace)),
            ..threads(cfg)
        };
        let m = WorkerSet::start(spec, queues.clone(), |_| {
            |_q: usize, burst: &mut Vec<u64>| {
                burst.drain(..);
            }
        });
        let n = 2_000u64;
        for i in 0..n {
            let mut item = i;
            loop {
                match m.queues()[0].push(item) {
                    Ok(()) => break,
                    Err(v) => {
                        item = v;
                        std::thread::yield_now();
                    }
                }
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while m.processed(0) < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        m.stop();
        let dump = trace.dump();
        // Every worker recorded something.
        assert!(dump.total_events() > 0);
        for w in &dump.workers {
            assert!(
                w.events.len() as u64 + w.dropped > 0,
                "worker {} recorded nothing",
                w.worker
            );
        }
        // Burst trace events mirror the hub's bursts counter 1:1, and the
        // trace oversleep histogram sums to the hub's oversleep counter —
        // same events, counted on two independent paths.
        use metronome_telemetry::TraceEventKind;
        assert_eq!(
            dump.kind_count(TraceEventKind::Burst),
            hub.queue(0).bursts.load(Ordering::Relaxed),
            "burst events must reconcile with the hub counter"
        );
        let hub_oversleep: u64 = (0..2)
            .map(|w| hub.worker(w).oversleep_nanos.load(Ordering::Relaxed))
            .sum();
        assert_eq!(dump.oversleep().sum(), hub_oversleep as u128);
        // Metronome workers sleep between turns: sleep events carry the
        // requested-vs-actual split.
        assert!(dump.kind_count(TraceEventKind::Sleep) > 0);
    }

    /// Run one baseline discipline end-to-end on real threads: feed items,
    /// assert exactly-once processing, return the final stats.
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
                ..threads(cfg)
            };
            WorkerSet::start(spec, queues.clone(), move |_| {
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
    fn busy_poll_discipline_processes_on_real_threads() {
        let stats = run_discipline_once(DisciplineSpec::BusyPoll, false);
        // Busy pollers never sleep, so they record no wakes.
        assert_eq!(stats.wakes.iter().sum::<u64>(), 0);
        assert_eq!(stats.processed.len(), 2);
    }

    #[test]
    fn const_sleep_discipline_processes_on_real_threads() {
        let stats = run_discipline_once(DisciplineSpec::ConstSleep(Nanos::from_micros(200)), false);
        // Fixed-period retrieval wakes on its timer.
        assert!(stats.wakes.iter().sum::<u64>() > 0);
    }

    #[test]
    fn interrupt_discipline_parks_and_wakes_on_doorbell() {
        let stats = run_discipline_once(
            DisciplineSpec::InterruptLike(crate::discipline::ModerationConfig::default()),
            true,
        );
        // Every retrieval episode was interrupt-initiated.
        assert!(stats.wakes.iter().sum::<u64>() > 0);
    }

    #[test]
    fn interrupt_discipline_stop_while_parked_exits() {
        // No traffic, no rings: both workers park. stop() must still join
        // them promptly via the bounded doorbell wait.
        let cfg = MetronomeConfig {
            m_threads: 1,
            n_queues: 1,
            ..MetronomeConfig::default()
        };
        let queues = vec![Arc::new(ArrayQueue::<u64>::new(64))];
        let spec = WorkerSpec {
            discipline: DisciplineSpec::InterruptLike(
                crate::discipline::ModerationConfig::default(),
            ),
            ..threads(cfg)
        };
        let m = WorkerSet::start(spec, queues, |_| |_q: usize, _b: &mut Vec<u64>| {});
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        let stats = m.stop();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "parked worker did not observe stop"
        );
        assert_eq!(stats.total_processed(), 0);
    }

    #[test]
    fn backend_is_drivable_single_threaded() {
        // The Backend surface must be usable without spawning threads —
        // this is what the sim-vs-realtime parity test leans on.
        let queues = vec![Arc::new(ArrayQueue::<u64>::new(16))];
        let harness = RealtimeHarness::new(
            MetronomeConfig::default(),
            queues.clone(),
            |_q, _burst: &mut Vec<u64>| {},
        );
        let mut b = harness.backend();
        queues[0].push(7).unwrap();
        assert!(b.try_acquire(0));
        assert!(!b.try_acquire(0), "second acquire must lose the race");
        assert_eq!(b.rx_burst(0, 32), 1);
        let ts = b.release(0);
        assert!(!ts.is_zero(), "release must return the adaptive TS");
        assert!(b.try_acquire(0), "released lock must be re-acquirable");
        b.release(0);
        assert_eq!(harness.processed(0), 1);
        assert_eq!(harness.total_tries(0), 2);
        assert_eq!(harness.busy_tries(0), 1);
    }
}
