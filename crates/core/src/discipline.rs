//! Retrieval disciplines: *how* a worker thread decides when to look at
//! its Rx queues.
//!
//! The paper's comparative claims (Figs. 10, 15, 16) pit Metronome's
//! adaptive sleep&wake scheme against classic busy-polling DPDK and
//! interrupt-driven XDP. To run those baselines on real threads — not
//! just in the simulator — the *discipline* is factored out of the worker
//! loop: the Listing 2 Metronome protocol becomes one implementation of
//! [`RetrievalDiscipline`], alongside
//!
//! * [`BusyPoll`] — one pinned spinning worker per queue, never sleeps
//!   (the classic `rte_eth_rx_burst` lcore loop, paper Listing 1);
//! * [`InterruptLike`] — workers park on a per-queue [`Doorbell`] the
//!   producer rings, with an adaptive interrupt-moderation window (the
//!   XDP/NAPI analogue: zero CPU at idle, batched wake-ups under load);
//! * [`ConstSleep`] — fixed-period retrieval (`r_sleep(P)` between
//!   drains), the naive strawman whose fixed timeout Metronome's
//!   adaptive `TS` beats.
//!
//! A discipline is a pure state machine over the same [`Backend`]
//! capability trait the engine uses: each [`RetrievalDiscipline::turn`]
//! performs one protocol step and yields a [`Verdict`] telling the
//! driver what to do before the next turn (continue, yield, sleep, park,
//! wait). The realtime driver (`crate::realtime`) executes verdicts with
//! real sleeps and condvar parks; because disciplines never touch a
//! clock or a thread primitive directly, they remain testable
//! single-threaded against a scripted backend.

use crate::engine::{Backend, EngineOp, MetronomeEngine};
use crate::policy::ThreadPolicy;
use metronome_sim::Nanos;
use metronome_telemetry::{PhaseKind, SleepKind, TelemetrySink};
use std::sync::{Arc, Condvar, Mutex};
use std::task::Waker;
use std::time::Duration;

/// The state behind a [`Doorbell`]'s mutex: the monotone ring sequence
/// plus the wakers of async tasks parked on the bell. Keeping both under
/// one lock is what makes waker registration race-free: `register`
/// re-checks the sequence under the same lock `ring` bumps it under.
#[derive(Debug, Default)]
struct BellState {
    seq: u64,
    wakers: Vec<Waker>,
}

/// A per-queue wake-up doorbell: the producer rings it after enqueuing,
/// parked [`InterruptLike`] workers wait on it (the IRQ line of the
/// XDP/NAPI analogue).
///
/// The bell is a monotone sequence number behind a mutex/condvar pair.
/// Waiters sample the counter *before* their final empty poll and then
/// wait for it to move past that sample — so a ring that races the poll
/// is never lost, only delivered immediately. Two kinds of waiter share
/// the same protocol: OS threads block on the condvar ([`wait_past`]),
/// and async executor tasks leave a [`Waker`] behind ([`register`])
/// that the next ring fires.
///
/// [`wait_past`]: Doorbell::wait_past
/// [`register`]: Doorbell::register
#[derive(Debug, Default)]
pub struct Doorbell {
    state: Mutex<BellState>,
    cv: Condvar,
}

impl Doorbell {
    /// A fresh, unrung doorbell.
    pub fn new() -> Arc<Self> {
        Arc::new(Doorbell::default())
    }

    /// Ring the bell (producer side): bump the sequence, wake every
    /// condvar waiter and fire every registered waker. One short
    /// uncontended critical section per call — ring once per *burst*,
    /// not per packet. Wakers fire outside the lock.
    pub fn ring(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.seq = st.seq.wrapping_add(1);
        let wakers = std::mem::take(&mut st.wakers);
        drop(st);
        self.cv.notify_all();
        for waker in wakers {
            waker.wake();
        }
    }

    /// The current sequence number. Sample it **before** the final empty
    /// poll that precedes a park.
    pub fn counter(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).seq
    }

    /// Park until the bell has been rung past `seen` or `timeout`
    /// elapses; returns whether it was rung. Spurious wake-ups are
    /// absorbed by the sequence check. The timeout runs at 1 ns timer
    /// slack ([`lower_timer_slack`]): at the default 50 µs slack each
    /// timed wait oversleeps by ≈56 µs, far past InterruptLike's 12 µs
    /// moderation floor.
    ///
    /// [`lower_timer_slack`]: crate::realtime::lower_timer_slack
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> bool {
        crate::realtime::lower_timer_slack();
        let guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if guard.seq != seen {
            return true;
        }
        let (guard, _timed_out) = self
            .cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(|e| e.into_inner());
        guard.seq != seen
    }

    /// Register `waker` to fire on the next ring, **iff** the bell still
    /// sits at `seen` — the async analogue of [`Doorbell::wait_past`].
    /// Returns `false` when the bell has already moved past the sample,
    /// in which case the caller must *not* park but re-poll instead (the
    /// ring it would have missed already happened). Registering the same
    /// waker twice is idempotent ([`Waker::will_wake`]).
    pub fn register(&self, seen: u64, waker: &Waker) -> bool {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.seq != seen {
            return false;
        }
        if !st.wakers.iter().any(|w| w.will_wake(waker)) {
            st.wakers.push(waker.clone());
        }
        true
    }
}

/// A parked wait handed from a discipline to its driver: the doorbell to
/// block on and the sequence sampled before the final empty poll.
#[derive(Clone, Debug)]
pub struct ParkToken {
    doorbell: Arc<Doorbell>,
    seen: u64,
}

impl ParkToken {
    /// The lost-wakeup-safe arming protocol, shared by every driver that
    /// parks on a [`Doorbell`]: sample the sequence, run the caller's
    /// **final** poll, and hand back a token pinned to the *pre-poll*
    /// sample only when the poll found nothing. A producer that slips in
    /// between the poll and the park must ring *after* the sample, so a
    /// subsequent [`wait`](ParkToken::wait) returns immediately and a
    /// [`subscribe`](ParkToken::subscribe) refuses to arm.
    ///
    /// `final_poll_found_work` performs the empty-check poll and returns
    /// whether anything turned up; when it does, no token is produced and
    /// the caller keeps draining.
    pub fn arm(
        doorbell: &Arc<Doorbell>,
        final_poll_found_work: impl FnOnce() -> bool,
    ) -> Option<ParkToken> {
        let seen = doorbell.counter();
        if final_poll_found_work() {
            None
        } else {
            Some(ParkToken {
                doorbell: Arc::clone(doorbell),
                seen,
            })
        }
    }

    /// Block for up to `timeout`, returning whether the bell rang. The
    /// driver calls this in a loop so it can interleave stop-flag checks.
    pub fn wait(&self, timeout: Duration) -> bool {
        self.doorbell.wait_past(self.seen, timeout)
    }

    /// Async-executor parking: register `waker` to fire on the next ring.
    /// Returns `false` when the bell already moved past the token's
    /// sample — the task must be re-queued for an immediate re-poll
    /// instead of parking (see [`Doorbell::register`]).
    pub fn subscribe(&self, waker: &Waker) -> bool {
        self.doorbell.register(self.seen, waker)
    }
}

/// What a discipline asks its driver to do after one turn.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Protocol work happened; call [`RetrievalDiscipline::turn`] again
    /// immediately.
    Continue,
    /// A spin boundary: the discipline found nothing to do but will not
    /// sleep (busy polling). The driver checks its stop flag and spins on.
    Yield,
    /// Sleep for (at least) the given duration through the driver's sleep
    /// service, then turn again.
    Sleep(Nanos),
    /// Block on the token's doorbell until the producer rings (or the
    /// driver decides to stop), then turn again.
    Park(ParkToken),
    /// Idle exactly this long (start-up stagger; no oversleep semantics).
    Wait(Nanos),
}

/// Which retrieval discipline a worker runs — the label shared by
/// telemetry, reports and thread names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DisciplineKind {
    /// The paper's adaptive sleep&wake protocol (Listing 2).
    Metronome,
    /// Classic DPDK busy polling (Listing 1).
    BusyPoll,
    /// Interrupt-driven retrieval with adaptive moderation (XDP/NAPI).
    InterruptLike,
    /// Fixed-period retrieval (the constant `r_sleep` strawman).
    ConstSleep,
}

impl DisciplineKind {
    /// Stable lowercase label ("metronome", "busy-poll", "interrupt",
    /// "const-sleep") used by telemetry hubs and exported series.
    pub fn label(self) -> &'static str {
        match self {
            DisciplineKind::Metronome => "metronome",
            DisciplineKind::BusyPoll => "busy-poll",
            DisciplineKind::InterruptLike => "interrupt",
            DisciplineKind::ConstSleep => "const-sleep",
        }
    }
}

/// One worker thread's retrieval discipline: a resumable state machine
/// over the [`Backend`] capability trait.
///
/// The contract mirrors the engine's: `turn` performs **one** protocol
/// step (at most one queue operation) and never blocks — blocking is the
/// driver's job, directed by the returned [`Verdict`]. Implementations
/// publish their own telemetry (retrieved bursts, planned sleeps, phase
/// transitions) into the sink at protocol grain.
pub trait RetrievalDiscipline {
    /// Which discipline this is (telemetry/report label).
    fn kind(&self) -> DisciplineKind;

    /// Advance the protocol by one step.
    fn turn<B: Backend, S: TelemetrySink>(&mut self, backend: &mut B, sink: &S) -> Verdict;

    /// The per-thread policy counters (wakes, races, empty polls).
    fn policy(&self) -> &ThreadPolicy;

    /// Consume the discipline, yielding its final policy statistics.
    fn into_policy(self) -> ThreadPolicy;
}

// ---------------------------------------------------------------------------
// Metronome (the Listing 2 engine, adapted)
// ---------------------------------------------------------------------------

/// The paper's protocol as a discipline: a thin adapter over
/// [`MetronomeEngine`] mapping [`EngineOp`]s onto [`Verdict`]s.
#[derive(Clone, Debug)]
pub struct MetronomeDiscipline {
    engine: MetronomeEngine,
}

impl MetronomeDiscipline {
    /// Engine for a thread initially contending `initial_queue`, draining
    /// bursts of `burst`.
    pub fn new(initial_queue: usize, burst: u32) -> Self {
        MetronomeDiscipline {
            engine: MetronomeEngine::new(initial_queue, burst),
        }
    }
}

impl RetrievalDiscipline for MetronomeDiscipline {
    fn kind(&self) -> DisciplineKind {
        DisciplineKind::Metronome
    }

    fn turn<B: Backend, S: TelemetrySink>(&mut self, backend: &mut B, sink: &S) -> Verdict {
        match self.engine.step_with(backend, sink) {
            // Real cycles were already spent doing the step.
            EngineOp::Work(_) => Verdict::Continue,
            EngineOp::Sleep(dur) => Verdict::Sleep(dur),
            EngineOp::Wait(dur) => Verdict::Wait(dur),
        }
    }

    fn policy(&self) -> &ThreadPolicy {
        self.engine.policy()
    }

    fn into_policy(self) -> ThreadPolicy {
        self.engine.into_policy()
    }
}

// ---------------------------------------------------------------------------
// BusyPoll (paper Listing 1)
// ---------------------------------------------------------------------------

/// Classic DPDK busy polling: one worker owns one queue exclusively and
/// spins on it forever. No trylock, no controller, no sleeps — CPU is
/// pinned at 100% per queue regardless of load, which is precisely the
/// baseline cost Metronome exists to reclaim.
#[derive(Clone, Debug)]
pub struct BusyPoll {
    q: usize,
    burst: u32,
    policy: ThreadPolicy,
}

impl BusyPoll {
    /// Poller bound to queue `q`, draining bursts of `burst`.
    pub fn new(q: usize, burst: u32) -> Self {
        BusyPoll {
            q,
            burst: burst.max(1),
            policy: ThreadPolicy::new(q),
        }
    }
}

impl RetrievalDiscipline for BusyPoll {
    fn kind(&self) -> DisciplineKind {
        DisciplineKind::BusyPoll
    }

    fn turn<B: Backend, S: TelemetrySink>(&mut self, backend: &mut B, sink: &S) -> Verdict {
        let taken = backend.rx_burst(self.q, self.burst);
        if taken > 0 {
            sink.retrieved(self.q, taken);
            Verdict::Continue
        } else {
            self.policy.on_empty_poll();
            Verdict::Yield
        }
    }

    fn policy(&self) -> &ThreadPolicy {
        &self.policy
    }

    fn into_policy(self) -> ThreadPolicy {
        self.policy
    }
}

// ---------------------------------------------------------------------------
// ConstSleep (fixed-period retrieval)
// ---------------------------------------------------------------------------

/// Fixed-period retrieval: drain the queue dry, sleep exactly `period`,
/// repeat. The naive sleep&wake strawman — its fixed timeout either
/// oversleeps the queue at high rates (loss) or wakes pointlessly at low
/// ones (CPU); Metronome's adaptive `TS` (eq. 13) is the fix.
#[derive(Clone, Debug)]
pub struct ConstSleep {
    q: usize,
    burst: u32,
    period: Nanos,
    policy: ThreadPolicy,
    drained_any: bool,
    asleep: bool,
}

impl ConstSleep {
    /// Fixed-period retriever for queue `q`: sleep `period` between
    /// drain episodes, draining bursts of `burst`.
    pub fn new(q: usize, burst: u32, period: Nanos) -> Self {
        ConstSleep {
            q,
            burst: burst.max(1),
            period: Nanos(period.as_nanos().max(1)),
            policy: ThreadPolicy::new(q),
            drained_any: false,
            asleep: false,
        }
    }

    /// The fixed retrieval period.
    pub fn period(&self) -> Nanos {
        self.period
    }
}

impl RetrievalDiscipline for ConstSleep {
    fn kind(&self) -> DisciplineKind {
        DisciplineKind::ConstSleep
    }

    fn turn<B: Backend, S: TelemetrySink>(&mut self, backend: &mut B, sink: &S) -> Verdict {
        if self.asleep {
            self.asleep = false;
            self.policy.on_wake();
            sink.wake();
            sink.phase(PhaseKind::Wake);
        }
        let taken = backend.rx_burst(self.q, self.burst);
        if taken > 0 {
            self.drained_any = true;
            sink.retrieved(self.q, taken);
            return Verdict::Continue;
        }
        if !self.drained_any {
            self.policy.on_empty_poll();
        }
        self.drained_any = false;
        self.asleep = true;
        sink.sleep_planned(SleepKind::Fixed, self.period);
        sink.phase(PhaseKind::Sleep);
        Verdict::Sleep(self.period)
    }

    fn policy(&self) -> &ThreadPolicy {
        &self.policy
    }

    fn into_policy(self) -> ThreadPolicy {
        self.policy
    }
}

// ---------------------------------------------------------------------------
// InterruptLike (XDP/NAPI analogue)
// ---------------------------------------------------------------------------

/// Bounds of the adaptive interrupt-moderation window.
#[derive(Clone, Copy, Debug)]
pub struct ModerationConfig {
    /// Smallest moderation window (light load: react fast).
    pub min: Nanos,
    /// Largest moderation window (sustained load: batch aggressively).
    pub max: Nanos,
}

impl Default for ModerationConfig {
    fn default() -> Self {
        // Same order as the simulator's calibrated XDP ITR windows
        // (12 µs light / 50 µs loaded, runtime::calib).
        ModerationConfig {
            min: Nanos::from_micros(12),
            max: Nanos::from_micros(500),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum IrqPhase {
    /// Just woke (doorbell or moderation timer); about to drain.
    Wake,
    /// Draining the queue.
    Drain,
    /// The moderation window just elapsed; one more poll decides between
    /// staying in polling mode and re-arming the doorbell.
    Moderate,
    /// Queue verified empty; arm the doorbell and park.
    Arm,
}

/// Interrupt-driven retrieval, the XDP/NAPI analogue: the worker parks on
/// its queue's [`Doorbell`] (zero CPU while idle — "the IRQ line"), and a
/// producer ring wakes it. After draining, instead of re-arming
/// immediately it lingers for an adaptive moderation window — NAPI's
/// polling mode / NIC interrupt moderation — so sustained load coalesces
/// many arrivals into one wake-up. The window doubles whenever the
/// post-window poll finds more packets (batching pays) and halves when it
/// doesn't, clamped to [`ModerationConfig`].
#[derive(Clone, Debug)]
pub struct InterruptLike {
    q: usize,
    burst: u32,
    doorbell: Arc<Doorbell>,
    moderation: ModerationConfig,
    window: Nanos,
    policy: ThreadPolicy,
    phase: IrqPhase,
}

impl InterruptLike {
    /// Handler for queue `q` parking on `doorbell`, draining bursts of
    /// `burst`.
    pub fn new(
        q: usize,
        burst: u32,
        doorbell: Arc<Doorbell>,
        moderation: ModerationConfig,
    ) -> Self {
        InterruptLike {
            q,
            burst: burst.max(1),
            doorbell,
            window: moderation.min,
            moderation,
            policy: ThreadPolicy::new(q),
            phase: IrqPhase::Wake,
        }
    }

    /// The current adaptive moderation window.
    pub fn window(&self) -> Nanos {
        self.window
    }
}

impl RetrievalDiscipline for InterruptLike {
    fn kind(&self) -> DisciplineKind {
        DisciplineKind::InterruptLike
    }

    fn turn<B: Backend, S: TelemetrySink>(&mut self, backend: &mut B, sink: &S) -> Verdict {
        match self.phase {
            IrqPhase::Wake => {
                self.policy.on_wake();
                sink.wake();
                sink.phase(PhaseKind::Wake);
                self.phase = IrqPhase::Drain;
                Verdict::Continue
            }
            IrqPhase::Drain => {
                let taken = backend.rx_burst(self.q, self.burst);
                if taken > 0 {
                    sink.retrieved(self.q, taken);
                    return Verdict::Continue;
                }
                // Queue drained: moderate before re-arming, like a NIC
                // holding its IRQ down for the ITR window.
                self.phase = IrqPhase::Moderate;
                sink.sleep_planned(SleepKind::Fixed, self.window);
                sink.phase(PhaseKind::Sleep);
                Verdict::Sleep(self.window)
            }
            IrqPhase::Moderate => {
                let taken = backend.rx_burst(self.q, self.burst);
                if taken > 0 {
                    // Load is sustained: stay in polling mode, widen the
                    // window (more batching per wake).
                    self.window =
                        Nanos((self.window.as_nanos() * 2).min(self.moderation.max.as_nanos()));
                    sink.retrieved(self.q, taken);
                    self.phase = IrqPhase::Drain;
                    return Verdict::Continue;
                }
                // The window bought nothing: shrink it and park.
                self.window =
                    Nanos((self.window.as_nanos() / 2).max(self.moderation.min.as_nanos()));
                self.phase = IrqPhase::Arm;
                Verdict::Continue
            }
            IrqPhase::Arm => {
                // Lost-wakeup-safe arming order (ParkToken::arm): sample
                // the bell, then verify the queue is still empty, then
                // park past the sample. A producer that slips between the
                // poll and the park must ring after our sample, so the
                // park returns immediately.
                let mut taken = 0;
                let token = ParkToken::arm(&self.doorbell, || {
                    taken = backend.rx_burst(self.q, self.burst);
                    taken > 0
                });
                match token {
                    None => {
                        sink.retrieved(self.q, taken);
                        self.phase = IrqPhase::Drain;
                        Verdict::Continue
                    }
                    Some(token) => {
                        self.policy.on_empty_poll();
                        sink.phase(PhaseKind::Sleep);
                        self.phase = IrqPhase::Wake;
                        Verdict::Park(token)
                    }
                }
            }
        }
    }

    fn policy(&self) -> &ThreadPolicy {
        &self.policy
    }

    fn into_policy(self) -> ThreadPolicy {
        self.policy
    }
}

// ---------------------------------------------------------------------------
// Runtime dispatch
// ---------------------------------------------------------------------------

/// A discipline choice a runner can make at runtime (the realtime
/// counterpart of `SystemKind`): how many workers to spawn and which
/// state machine each runs.
#[derive(Clone, Debug, Default)]
pub enum DisciplineSpec {
    /// `M` Metronome threads racing over `N` queues (Listing 2).
    #[default]
    Metronome,
    /// One busy-polling worker pinned per queue.
    BusyPoll,
    /// One doorbell-parked worker per queue with adaptive moderation.
    InterruptLike(ModerationConfig),
    /// One fixed-period worker per queue.
    ConstSleep(Nanos),
}

impl DisciplineSpec {
    /// The discipline this spec builds.
    pub fn kind(&self) -> DisciplineKind {
        match self {
            DisciplineSpec::Metronome => DisciplineKind::Metronome,
            DisciplineSpec::BusyPoll => DisciplineKind::BusyPoll,
            DisciplineSpec::InterruptLike(_) => DisciplineKind::InterruptLike,
            DisciplineSpec::ConstSleep(_) => DisciplineKind::ConstSleep,
        }
    }

    /// How many workers this spec spawns for a given configuration:
    /// `m_threads` for Metronome (threads race over queues), one pinned
    /// worker per queue for every baseline.
    pub fn workers(&self, m_threads: usize, n_queues: usize) -> usize {
        match self {
            DisciplineSpec::Metronome => m_threads,
            _ => n_queues,
        }
    }

    /// Build worker `w`'s discipline state. `doorbells` must hold one
    /// bell per queue (only [`DisciplineSpec::InterruptLike`] reads it).
    pub fn build(
        &self,
        worker: usize,
        n_queues: usize,
        burst: u32,
        doorbells: &[Arc<Doorbell>],
    ) -> AnyDiscipline {
        match self {
            DisciplineSpec::Metronome => {
                AnyDiscipline::Metronome(MetronomeDiscipline::new(worker % n_queues, burst))
            }
            DisciplineSpec::BusyPoll => AnyDiscipline::BusyPoll(BusyPoll::new(worker, burst)),
            DisciplineSpec::InterruptLike(moderation) => AnyDiscipline::InterruptLike(
                InterruptLike::new(worker, burst, Arc::clone(&doorbells[worker]), *moderation),
            ),
            DisciplineSpec::ConstSleep(period) => {
                AnyDiscipline::ConstSleep(ConstSleep::new(worker, burst, *period))
            }
        }
    }
}

/// Runtime-dispatched discipline (what a spawned worker actually runs;
/// the enum keeps worker threads monomorphic while the spec is chosen at
/// runtime).
#[derive(Clone, Debug)]
pub enum AnyDiscipline {
    /// Listing 2.
    Metronome(MetronomeDiscipline),
    /// Listing 1.
    BusyPoll(BusyPoll),
    /// XDP/NAPI analogue.
    InterruptLike(InterruptLike),
    /// Fixed-period strawman.
    ConstSleep(ConstSleep),
}

impl RetrievalDiscipline for AnyDiscipline {
    fn kind(&self) -> DisciplineKind {
        match self {
            AnyDiscipline::Metronome(d) => d.kind(),
            AnyDiscipline::BusyPoll(d) => d.kind(),
            AnyDiscipline::InterruptLike(d) => d.kind(),
            AnyDiscipline::ConstSleep(d) => d.kind(),
        }
    }

    fn turn<B: Backend, S: TelemetrySink>(&mut self, backend: &mut B, sink: &S) -> Verdict {
        match self {
            AnyDiscipline::Metronome(d) => d.turn(backend, sink),
            AnyDiscipline::BusyPoll(d) => d.turn(backend, sink),
            AnyDiscipline::InterruptLike(d) => d.turn(backend, sink),
            AnyDiscipline::ConstSleep(d) => d.turn(backend, sink),
        }
    }

    fn policy(&self) -> &ThreadPolicy {
        match self {
            AnyDiscipline::Metronome(d) => d.policy(),
            AnyDiscipline::BusyPoll(d) => d.policy(),
            AnyDiscipline::InterruptLike(d) => d.policy(),
            AnyDiscipline::ConstSleep(d) => d.policy(),
        }
    }

    fn into_policy(self) -> ThreadPolicy {
        match self {
            AnyDiscipline::Metronome(d) => d.into_policy(),
            AnyDiscipline::BusyPoll(d) => d.into_policy(),
            AnyDiscipline::InterruptLike(d) => d.into_policy(),
            AnyDiscipline::ConstSleep(d) => d.into_policy(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metronome_telemetry::NullSink;
    use std::collections::VecDeque;

    /// Scripted single-queue backend (no locks needed: the baselines
    /// never race).
    struct ScriptBackend {
        queued: VecDeque<u64>,
        processed: u64,
    }

    impl ScriptBackend {
        fn new() -> Self {
            ScriptBackend {
                queued: VecDeque::new(),
                processed: 0,
            }
        }
    }

    impl Backend for ScriptBackend {
        fn n_queues(&self) -> usize {
            1
        }

        fn draw(&mut self) -> u64 {
            0
        }

        fn try_acquire(&mut self, _q: usize) -> bool {
            true
        }

        fn rx_burst(&mut self, _q: usize, burst: u32) -> u64 {
            let mut taken = 0;
            while taken < burst as u64 && self.queued.pop_front().is_some() {
                taken += 1;
                self.processed += 1;
            }
            taken
        }

        fn release(&mut self, _q: usize) -> Nanos {
            Nanos::from_micros(30)
        }

        fn ts(&self, _q: usize) -> Nanos {
            Nanos::from_micros(30)
        }

        fn tl(&self) -> Nanos {
            Nanos::from_micros(500)
        }
    }

    #[test]
    fn busy_poll_drains_and_yields() {
        let mut b = ScriptBackend::new();
        b.queued.extend(0..40u64);
        let mut d = BusyPoll::new(0, 32);
        assert!(matches!(d.turn(&mut b, &NullSink), Verdict::Continue));
        assert!(matches!(d.turn(&mut b, &NullSink), Verdict::Continue));
        assert_eq!(b.processed, 40);
        // Empty queue: yield, never sleep.
        for _ in 0..10 {
            assert!(matches!(d.turn(&mut b, &NullSink), Verdict::Yield));
        }
        assert_eq!(d.policy().empty_polls, 10);
        assert_eq!(d.kind().label(), "busy-poll");
    }

    #[test]
    fn const_sleep_alternates_drain_and_fixed_sleep() {
        let period = Nanos::from_micros(100);
        let mut b = ScriptBackend::new();
        b.queued.extend(0..40u64);
        let mut d = ConstSleep::new(0, 32, period);
        assert!(matches!(d.turn(&mut b, &NullSink), Verdict::Continue));
        assert!(matches!(d.turn(&mut b, &NullSink), Verdict::Continue));
        match d.turn(&mut b, &NullSink) {
            Verdict::Sleep(dur) => assert_eq!(dur, period),
            other => panic!("expected fixed sleep, got {other:?}"),
        }
        // Wake with an empty queue: one empty poll, then sleep again.
        match d.turn(&mut b, &NullSink) {
            Verdict::Sleep(dur) => assert_eq!(dur, period),
            other => panic!("expected fixed sleep, got {other:?}"),
        }
        assert_eq!(d.policy().wakes, 1);
        assert_eq!(d.policy().empty_polls, 1);
        assert_eq!(b.processed, 40);
    }

    #[test]
    fn interrupt_like_parks_when_idle_and_wakes_on_ring() {
        let bell = Doorbell::new();
        let mut b = ScriptBackend::new();
        let mut d = InterruptLike::new(0, 32, Arc::clone(&bell), ModerationConfig::default());
        // First wake finds nothing: drain-empty → moderate → arm → park.
        assert!(matches!(d.turn(&mut b, &NullSink), Verdict::Continue)); // wake
        assert!(matches!(d.turn(&mut b, &NullSink), Verdict::Sleep(_))); // moderation
        assert!(matches!(d.turn(&mut b, &NullSink), Verdict::Continue)); // moderate→arm
        let token = match d.turn(&mut b, &NullSink) {
            Verdict::Park(t) => t,
            other => panic!("expected park, got {other:?}"),
        };
        // Unrung bell: the park would block (times out).
        assert!(!token.wait(Duration::from_millis(1)));
        // Producer enqueues then rings: the park returns immediately.
        b.queued.extend(0..5u64);
        bell.ring();
        assert!(token.wait(Duration::from_millis(100)));
        // The next turns drain what arrived.
        assert!(matches!(d.turn(&mut b, &NullSink), Verdict::Continue)); // wake
        assert!(matches!(d.turn(&mut b, &NullSink), Verdict::Continue)); // drain
        assert_eq!(b.processed, 5);
        assert_eq!(d.policy().wakes, 2);
    }

    #[test]
    fn interrupt_ring_between_poll_and_park_is_not_lost() {
        let bell = Doorbell::new();
        let mut b = ScriptBackend::new();
        let mut d = InterruptLike::new(0, 32, Arc::clone(&bell), ModerationConfig::default());
        d.turn(&mut b, &NullSink); // wake
        d.turn(&mut b, &NullSink); // drain-empty → moderation sleep
        d.turn(&mut b, &NullSink); // moderate → arm
                                   // The arm turn samples the bell, then polls. Ring *after* the
                                   // token is produced (the racy window): the wait must not block.
        let token = match d.turn(&mut b, &NullSink) {
            Verdict::Park(t) => t,
            other => panic!("expected park, got {other:?}"),
        };
        bell.ring();
        assert!(token.wait(Duration::from_millis(1)), "lost wakeup");
    }

    #[test]
    fn moderation_window_adapts_and_clamps() {
        let bell = Doorbell::new();
        let cfg = ModerationConfig {
            min: Nanos::from_micros(10),
            max: Nanos::from_micros(80),
        };
        let mut b = ScriptBackend::new();
        let mut d = InterruptLike::new(0, 32, bell, cfg);
        assert_eq!(d.window(), cfg.min);
        // Sustained load: every moderation poll finds packets → doubles.
        d.turn(&mut b, &NullSink); // wake
        for _ in 0..5 {
            d.turn(&mut b, &NullSink); // drain (empty) → moderation sleep
            b.queued.extend(0..4u64);
            d.turn(&mut b, &NullSink); // moderate: finds packets, grows
        }
        assert_eq!(d.window(), cfg.max, "window must clamp at max");
        // Idle: empty moderation polls halve it back down to min.
        for _ in 0..5 {
            d.turn(&mut b, &NullSink); // drain empty → moderation sleep
            d.turn(&mut b, &NullSink); // moderate: empty, shrinks → arm
            match d.turn(&mut b, &NullSink) {
                Verdict::Park(_) => {}
                other => panic!("expected park, got {other:?}"),
            }
            d.turn(&mut b, &NullSink); // wake
        }
        assert_eq!(d.window(), cfg.min, "window must clamp at min");
    }

    #[test]
    fn metronome_discipline_mirrors_engine() {
        // The adapter must behave exactly like driving the engine raw.
        let mut b = ScriptBackend::new();
        b.queued.extend(0..10u64);
        let mut d = MetronomeDiscipline::new(0, 32);
        assert!(matches!(d.turn(&mut b, &NullSink), Verdict::Wait(_))); // stagger
        let mut sleeps = 0;
        for _ in 0..20 {
            match d.turn(&mut b, &NullSink) {
                Verdict::Sleep(_) => sleeps += 1,
                Verdict::Continue => {}
                other => panic!("unexpected {other:?}"),
            }
            if sleeps > 0 {
                break;
            }
        }
        assert_eq!(b.processed, 10);
        assert_eq!(d.policy().races_won, 1);
    }

    /// Counting test waker: each `wake`/`wake_by_ref` bumps the counter.
    struct CountingWaker(std::sync::atomic::AtomicU64);

    impl std::task::Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountingWaker>, std::task::Waker) {
        let counter = Arc::new(CountingWaker(std::sync::atomic::AtomicU64::new(0)));
        let waker = std::task::Waker::from(Arc::clone(&counter));
        (counter, waker)
    }

    #[test]
    fn arm_skips_the_park_when_the_final_poll_finds_work() {
        let bell = Doorbell::new();
        assert!(ParkToken::arm(&bell, || true).is_none());
        assert!(ParkToken::arm(&bell, || false).is_some());
    }

    #[test]
    fn ring_between_sample_and_subscribe_refuses_registration() {
        // The async half of the racy window the condvar test covers: a
        // producer rings after the token was armed but before the task's
        // waker lands on the bell. subscribe must refuse, forcing a
        // re-poll, and the waker must never be held (a later ring fires
        // nothing).
        let bell = Doorbell::new();
        let token = ParkToken::arm(&bell, || false).expect("empty poll arms");
        bell.ring();
        let (count, waker) = counting_waker();
        assert!(!token.subscribe(&waker), "stale sample must refuse to arm");
        bell.ring();
        assert_eq!(
            count.0.load(std::sync::atomic::Ordering::SeqCst),
            0,
            "a refused registration must not leave a waker behind"
        );
    }

    #[test]
    fn subscribed_waker_fires_on_ring_exactly_once() {
        let bell = Doorbell::new();
        let token = ParkToken::arm(&bell, || false).expect("empty poll arms");
        let (count, waker) = counting_waker();
        // Double registration is idempotent (Waker::will_wake dedupe).
        assert!(token.subscribe(&waker));
        assert!(token.subscribe(&waker));
        bell.ring();
        assert_eq!(count.0.load(std::sync::atomic::Ordering::SeqCst), 1);
        // The ring drained the registration: another ring fires nothing.
        bell.ring();
        assert_eq!(count.0.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_rings_never_lose_a_subscribed_waker() {
        // Hammer the arm → subscribe → ring protocol from a real producer
        // thread: every armed registration must either be refused (bell
        // moved first — caller re-polls) or fire. A round that neither
        // fires nor refuses is a lost wakeup.
        let bell = Doorbell::new();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let producer = {
            let bell = Arc::clone(&bell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    bell.ring();
                    std::hint::spin_loop();
                }
            })
        };
        for _ in 0..2_000 {
            let token = ParkToken::arm(&bell, || false).expect("empty poll arms");
            let (count, waker) = counting_waker();
            if token.subscribe(&waker) {
                let deadline = std::time::Instant::now() + Duration::from_secs(5);
                while count.0.load(std::sync::atomic::Ordering::SeqCst) == 0 {
                    assert!(std::time::Instant::now() < deadline, "lost wakeup");
                    std::hint::spin_loop();
                }
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        producer.join().unwrap();
    }

    #[test]
    fn spec_builds_the_right_worker_set() {
        let doorbells: Vec<_> = (0..2).map(|_| Doorbell::new()).collect();
        assert_eq!(DisciplineSpec::Metronome.workers(5, 2), 5);
        assert_eq!(DisciplineSpec::BusyPoll.workers(5, 2), 2);
        let d =
            DisciplineSpec::InterruptLike(ModerationConfig::default()).build(1, 2, 32, &doorbells);
        assert_eq!(d.kind(), DisciplineKind::InterruptLike);
        let d = DisciplineSpec::ConstSleep(Nanos::from_micros(50)).build(0, 2, 32, &doorbells);
        assert_eq!(d.kind(), DisciplineKind::ConstSleep);
        assert_eq!(d.kind().label(), "const-sleep");
    }
}
