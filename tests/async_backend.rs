//! The async executor backend, end to end.
//!
//! Three layers of evidence that the cooperative backend is the thread
//! backend's equal:
//!
//! 1. **Lockstep parity** — the async executor dispatches disciplines one
//!    `turn()` per scheduler visit. Driving `MetronomeDiscipline::turn`
//!    at exactly that granularity, single-threaded and in lockstep with
//!    the discrete-event simulator under identical arrivals and entropy,
//!    must reproduce every schedule-determined policy statistic — the
//!    async dispatch rule cannot perturb the protocol.
//! 2. **Scale** — 1024 queues with 1024 Metronome tasks on 2 executor
//!    shards: exact conservation and nonzero per-queue throughput, the
//!    workload the thread backend would need 1024 OS threads for.
//! 3. **Pipeline agreement** — `run_realtime` on `ExecBackend::Async`
//!    produces the same conservation identity, report shape, and (for the
//!    interrupt discipline) waker-driven parking as the thread backend.
//!
//! All assertions are correctness-based, never timing-based, so they hold
//! on loaded 1-core machines.

mod common;

use common::{push_all, serial};
use crossbeam::queue::ArrayQueue;
use metronome_repro::core::config::MetronomeConfig;
use metronome_repro::core::controller::AdaptiveController;
use metronome_repro::core::discipline::{MetronomeDiscipline, RetrievalDiscipline, Verdict};
use metronome_repro::core::engine::{Backend, EngineOp, MetronomeEngine, StepCosts};
use metronome_repro::core::realtime::RealtimeHarness;
use metronome_repro::core::{ExecBackend, Role, WorkerSet, WorkerSpec};
use metronome_repro::runtime::{
    run_realtime, AppProfile, Scenario, SimQueue, TrafficSpec, World, WorldBackend,
};
use metronome_repro::sim::{Nanos, Rng};
use metronome_repro::telemetry::NullSink;
use metronome_repro::traffic::Cbr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wraps any backend, overriding only its entropy source so the sim and
/// async sides draw the same backup-queue picks (the same harness
/// `tests/engine_parity.rs` uses).
struct FixedEntropy<'a, B> {
    inner: B,
    draws: &'a mut Rng,
}

impl<B: Backend> Backend for FixedEntropy<'_, B> {
    fn n_queues(&self) -> usize {
        self.inner.n_queues()
    }

    fn draw(&mut self) -> u64 {
        self.draws.next_u64()
    }

    fn try_acquire(&mut self, q: usize) -> bool {
        self.inner.try_acquire(q)
    }

    fn rx_burst(&mut self, q: usize, burst: u32) -> u64 {
        self.inner.rx_burst(q, burst)
    }

    fn chunk_cost(&self, k: u64) -> u64 {
        self.inner.chunk_cost(k)
    }

    fn chunk_done(&mut self, q: usize, k: u64) {
        self.inner.chunk_done(q, k)
    }

    fn release(&mut self, q: usize) -> Nanos {
        self.inner.release(q)
    }

    fn before_contend(&mut self, q: usize) {
        self.inner.before_contend(q)
    }

    fn ts(&self, q: usize) -> Nanos {
        self.inner.ts(q)
    }

    fn tl(&self) -> Nanos {
        self.inner.tl()
    }

    fn equal_timeouts(&self) -> bool {
        self.inner.equal_timeouts()
    }

    fn stagger(&mut self) -> Nanos {
        self.inner.stagger()
    }

    fn costs(&self) -> StepCosts {
        self.inner.costs()
    }
}

const M_THREADS: usize = 3;
const N_QUEUES: usize = 2;
const PPS_PER_QUEUE: u64 = 100_000;
const STEPS: u64 = 20_000; // 20 ms of 1 µs lockstep ticks
const CAPACITY: usize = 4096;

/// The async executor's dispatch granularity — one `turn()` per
/// scheduler visit, requeue on `Continue` — produces bit-identical
/// policy statistics to the simulator under a deterministic lockstep
/// schedule. This is the sim-vs-async counterpart of
/// `sim_and_realtime_backends_agree_on_policy_statistics`.
#[test]
fn async_turn_granularity_matches_the_sim_in_lockstep() {
    let cfg = MetronomeConfig {
        m_threads: M_THREADS,
        n_queues: N_QUEUES,
        ..MetronomeConfig::default()
    };

    // --- sim side: the discrete-event world ------------------------------
    let queues: Vec<SimQueue> = (0..N_QUEUES)
        .map(|_| {
            SimQueue::new(
                CAPACITY,
                Box::new(Cbr::new(PPS_PER_QUEUE as f64, Nanos::ZERO)),
                32,
                0,
            )
        })
        .collect();
    let mut world = World::new(
        queues,
        AdaptiveController::new(cfg.clone()),
        Nanos::ZERO,
        0xDE7,
    );
    let mut sim_rng = Rng::new(0x51A7);
    let app = AppProfile::l3fwd();

    // --- async side: disciplines over trylocks + ArrayQueues, no threads --
    let rt_queues: Vec<Arc<ArrayQueue<u64>>> = (0..N_QUEUES)
        .map(|_| Arc::new(ArrayQueue::new(CAPACITY)))
        .collect();
    let harness = RealtimeHarness::new(cfg.clone(), rt_queues.clone(), |_q, _b: &mut Vec<u64>| {});
    let mut rt_backends: Vec<_> = (0..M_THREADS).map(|_| harness.backend()).collect();

    let mut sim_engines: Vec<_> = (0..M_THREADS)
        .map(|i| MetronomeEngine::new(i % N_QUEUES, cfg.burst))
        .collect();
    // The async backend's task state: the *discipline* adapter, turned
    // exactly once per visit like `run_shard` does.
    let mut rt_tasks: Vec<_> = (0..M_THREADS)
        .map(|i| MetronomeDiscipline::new(i % N_QUEUES, cfg.burst))
        .collect();
    let mut sim_draws = Rng::new(0xE417_0911);
    let mut rt_draws = Rng::new(0xE417_0911);

    // --- one deterministic schedule: lockstep round-robin ----------------
    let mut mirrored = [0u64; N_QUEUES];
    for tick in 1..=STEPS {
        let now = Nanos::from_micros(tick);
        let due = tick / 10 + 1;
        for (q, rt_queue) in rt_queues.iter().enumerate() {
            while mirrored[q] < due {
                rt_queue
                    .push(mirrored[q])
                    .expect("mirror queue must not overflow");
                mirrored[q] += 1;
            }
        }
        for i in 0..M_THREADS {
            let world_backend = WorldBackend {
                world: &mut world,
                rng: &mut sim_rng,
                now,
                tid: i,
                app,
            };
            sim_engines[i].step(&mut FixedEntropy {
                inner: world_backend,
                draws: &mut sim_draws,
            });
            rt_tasks[i].turn(
                &mut FixedEntropy {
                    inner: &mut rt_backends[i],
                    draws: &mut rt_draws,
                },
                &NullSink,
            );
        }
    }

    // Settle both sides to the next turn boundary (a sleep decision), so
    // every turn is fully on the controller's books. One engine step maps
    // onto one discipline turn (Work↔Continue, Sleep↔Sleep, Wait↔Wait),
    // so the verdict kind must track the op kind step for step.
    let now = Nanos::from_micros(STEPS);
    for i in 0..M_THREADS {
        loop {
            let sim_op = sim_engines[i].step(&mut FixedEntropy {
                inner: WorldBackend {
                    world: &mut world,
                    rng: &mut sim_rng,
                    now,
                    tid: i,
                    app,
                },
                draws: &mut sim_draws,
            });
            let rt_verdict = rt_tasks[i].turn(
                &mut FixedEntropy {
                    inner: &mut rt_backends[i],
                    draws: &mut rt_draws,
                },
                &NullSink,
            );
            match (&sim_op, &rt_verdict) {
                (EngineOp::Work(_), Verdict::Continue)
                | (EngineOp::Sleep(_), Verdict::Sleep(_))
                | (EngineOp::Wait(_), Verdict::Wait(_)) => {}
                other => panic!("task {i} diverged while settling: {other:?}"),
            }
            if matches!(sim_op, EngineOp::Sleep(_)) {
                break;
            }
        }
    }

    // --- the schedule must actually have exercised the protocol ----------
    let total_won: u64 = sim_engines.iter().map(|e| e.policy().races_won).sum();
    let total_lost: u64 = sim_engines.iter().map(|e| e.policy().races_lost).sum();
    assert!(
        total_won > 100,
        "schedule produced too few wins: {total_won}"
    );
    assert!(total_lost > 0, "schedule never exercised a lost race");
    assert!(
        sim_engines
            .iter()
            .any(|e| e.policy().role() == Role::Primary),
        "somebody must end primary"
    );

    // --- per-task policy parity -------------------------------------------
    for (i, (sim, rt)) in sim_engines.iter().zip(&rt_tasks).enumerate() {
        let (s, r) = (sim.policy(), rt.policy());
        assert_eq!(s.wakes, r.wakes, "task {i} wakes diverged");
        assert_eq!(s.races_won, r.races_won, "task {i} wins diverged");
        assert_eq!(s.races_lost, r.races_lost, "task {i} losses diverged");
        assert_eq!(
            s.empty_polls, r.empty_polls,
            "task {i} empty polls diverged"
        );
        assert_eq!(
            s.role_transitions, r.role_transitions,
            "task {i} role transitions diverged"
        );
        assert_eq!(s.role(), r.role(), "task {i} final role diverged");
        assert_eq!(
            s.queue_to_contend(),
            r.queue_to_contend(),
            "task {i} next queue diverged"
        );
    }

    // --- controller and drain parity --------------------------------------
    for q in 0..N_QUEUES {
        assert_eq!(
            world.controller.queue(q).total_tries,
            harness.total_tries(q),
            "queue {q} acquisitions diverged"
        );
        assert_eq!(
            world.controller.queue(q).busy_tries,
            harness.busy_tries(q),
            "queue {q} busy tries diverged"
        );
        assert_eq!(
            world.queues[q].drained_total(),
            harness.processed(q),
            "queue {q} drained counts diverged"
        );
    }
}

/// 1024 queues, 1024 Metronome tasks, 2 executor shards: every queue
/// drains completely (nonzero per-queue throughput) and conservation is
/// exact. The thread backend would need 1024 OS threads for this shape.
#[test]
fn a_thousand_queues_conserve_on_two_shards() {
    let _guard = serial();
    const N: usize = 1024;
    const PER_QUEUE: u64 = 32;
    let cfg = MetronomeConfig {
        m_threads: N,
        n_queues: N,
        ..MetronomeConfig::default()
    };
    let queues: Vec<Arc<ArrayQueue<u64>>> = (0..N).map(|_| Arc::new(ArrayQueue::new(64))).collect();
    for (q, queue) in queues.iter().enumerate() {
        push_all(queue, (0..PER_QUEUE).map(|i| q as u64 * PER_QUEUE + i));
    }
    let spec = WorkerSpec {
        exec: ExecBackend::Async { shards: 2 },
        cfg,
        ..WorkerSpec::default()
    };
    let m = WorkerSet::start(spec, queues.clone(), |_worker| {
        |_q: usize, burst: &mut Vec<u64>| burst.clear()
    });
    let offered = N as u64 * PER_QUEUE;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let processed: u64 = (0..N).map(|q| m.processed(q)).sum();
        if processed >= offered || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = m.stop();
    assert_eq!(
        stats.total_processed(),
        offered,
        "conservation: every offered item processed exactly once"
    );
    for q in 0..N {
        assert_eq!(
            stats.processed[q], PER_QUEUE,
            "queue {q} did not drain completely"
        );
    }
    assert!(queues.iter().all(|q| q.is_empty()), "items left behind");
}

/// The same small scenario through `run_realtime` on both backends: the
/// async report must carry the thread report's shape and satisfy the same
/// conservation identity with zero loss at this load.
#[test]
fn thread_and_async_backends_agree_end_to_end() {
    let _guard = serial();
    let make = |name: &str| {
        Scenario::metronome(
            name,
            MetronomeConfig::multiqueue(2, 2),
            TrafficSpec::CbrPps(40_000.0),
        )
        .with_duration(Nanos::from_millis(200))
        .with_seed(0xA51)
    };
    let threads = run_realtime(&make("rt-exec-threads"));
    let asynced = run_realtime(&make("rt-exec-async").with_async_backend(2));

    for r in [&threads, &asynced] {
        assert!(r.forwarded > 0, "{}: no packets processed", r.name);
        assert_eq!(r.offered, r.forwarded + r.dropped, "{}: leaked", r.name);
        assert_eq!(r.dropped, 0, "{}: unexpected drops at 40 kpps", r.name);
        assert_eq!(r.queues.len(), 2, "{}: queue columns", r.name);
    }
    // Identical seeds and schedules: both backends saw the same offered
    // load, and the report keeps one CPU column per worker either way.
    assert_eq!(threads.offered, asynced.offered, "offered load diverged");
    assert_eq!(
        threads.cpu_per_thread_pct.len(),
        asynced.cpu_per_thread_pct.len(),
        "worker accounting columns diverged"
    );
    assert!(asynced.total_wakes > 0, "async workers never slept/woke");
}

/// The interrupt discipline on the async backend: workers park as waker
/// registrations on the ring doorbells, the producer-side wake hook fires
/// them, and the full pipeline still conserves with zero loss.
#[test]
fn interrupt_discipline_parks_through_wakers_end_to_end() {
    let _guard = serial();
    // A deep ring: at 40 kpps the default 512-slot ring overflows if the
    // shard thread is descheduled for ~13 ms, which a loaded 1-core host
    // does occasionally. 4096 slots buy ~100 ms of scheduling slack so
    // the zero-drop assertion tests the wake path, not the host's mood.
    let sc = Scenario::xdp("rt-async-interrupt", 1, TrafficSpec::CbrPps(40_000.0))
        .with_duration(Nanos::from_millis(200))
        .with_seed(0x1D1F)
        .with_ring(4096)
        .with_async_backend(1);
    let r = run_realtime(&sc);
    assert!(r.forwarded > 0, "no packets processed");
    assert_eq!(r.offered, r.forwarded + r.dropped, "packets leaked");
    assert_eq!(r.dropped, 0, "unexpected drops at 40 kpps");
    assert!(r.total_wakes > 0, "doorbells never woke a parked task");

    // And with no traffic at all, a parked task costs ~nothing: the waker
    // registration replaces the blocked OS thread, same CPU bar as the
    // thread backend's idle interrupt worker.
    let idle = Scenario::xdp("rt-async-interrupt-idle", 1, TrafficSpec::Silent)
        .with_duration(Nanos::from_millis(200))
        .with_seed(0x1D20)
        .with_async_backend(1);
    let r = run_realtime(&idle);
    assert_eq!(r.offered, 0);
    assert_eq!(r.forwarded, 0);
    assert!(
        r.cpu_total_pct < 5.0,
        "parked async worker should be ~free, got {:.2}%",
        r.cpu_total_pct
    );
}
