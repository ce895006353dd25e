//! Realtime scenario execution: `run(Scenario) -> RunReport` on real
//! `std::thread`s.
//!
//! The same [`Scenario`] the discrete-event simulator executes runs here
//! against the machine instead of a model, stage for stage:
//!
//! ```text
//! ArrivalProcess ──wall-clock──▶ mempool alloc ──Toeplitz RSS──▶ mbuf rings
//!   (PacedArrivals)               (template refill)               (RssPort)
//!        ──▶ retrieval workers ──▶ PacketProcessor bursts ──▶ mempool free
//!          (discipline per SystemKind)  (process_burst + latency)
//! ```
//!
//! * **Load generation** — the scenario's [`crate::scenario::TrafficSpec`] builds
//!   `gen_shards` [`metronome_traffic::ArrivalProcess`] slices, each
//!   replayed in real time by a [`PacedArrivals`] (MoonGen's role — and
//!   MoonGen's multi-core scaling recipe: flows are partitioned across
//!   shards, so per-flow order is preserved while shards produce
//!   concurrently onto the multi-producer ring path) in bounded batches
//!   against one shared [`WallClock`]. Each arrival takes a pre-allocated
//!   buffer from the shared [`Mempool`] through a per-shard cache and
//!   refills it from its flow's template frame — **zero heap allocation
//!   per packet**; a batch's buffers come out of the pool in one burst
//!   (`alloc_burst`), an exhausted pool is a counted drop cause of its
//!   own (distinct from ring tail-drop), and each batch scatters to its
//!   target queues through a [`QueueScatter`] counting-sort arena in
//!   `O(batch + touched queues)` — independent of the queue count. Every
//!   batch also records its offered-vs-scheduled lateness into a
//!   per-shard jitter histogram (the P4TG-style always-on pacing check),
//!   timestamped by a [`CoarseClock`] that reads the OS clock once per
//!   batch, not per packet.
//! * **RSS dispatch** — the frame's flow steers it through a real Toeplitz
//!   hash onto one of `N` bounded mbuf rings ([`RssPort`]), offered ring
//!   by ring in bursts (`offer_burst`); a full ring tail-drops with
//!   per-queue accounting, and the dropped frames' buffers recycle
//!   straight back to the pool.
//! * **Retrieval** — every [`SystemKind`] maps onto a
//!   `metronome_core::discipline` worker set ([`WorkerSet`] spawns it on
//!   the scenario's [`metronome_core::ExecBackend`] — one OS thread per
//!   worker, or cooperative tasks on a sharded async executor):
//!   Metronome threads race trylocks and sleep adaptive timeouts
//!   (Listing 2); `StaticDpdk` pins one spinning `BusyPoll` worker per
//!   queue; `Xdp` parks one `InterruptLike` worker per queue on a
//!   [`metronome_core::discipline::Doorbell`] the RSS port rings on every
//!   accepted burst (adaptive moderation window included); `ConstSleep`
//!   retrieves on a fixed period; `Idle` spawns nothing. Same rings, same
//!   apps, same report — only the retrieval discipline differs, which is
//!   exactly what the paper's comparative figures vary.
//! * **Processing & measurement** — each frame passes through a functional
//!   [`PacketProcessor`] (per-queue instance, so concurrent queues never
//!   contend), and its scheduled-arrival → completion latency is recorded
//!   in a per-queue log-linear [`Histogram`] (P4TG-style data-plane
//!   histograms rather than sampled reservoirs: recording is O(1), so
//!   every packet is measured).
//!
//! The result is assembled into the same [`RunReport`] the simulator
//! emits (via [`RunReport::from_counts`]), with the fields a wall-clock
//! run cannot observe documented per field below. Packet conservation is
//! exact and asserted: `offered = forwarded + dropped`, where `dropped`
//! breaks down into ring tail-drops, mempool-exhaustion drops, and frames
//! stranded in rings at shutdown (normally zero — the runner drains
//! before stopping; under `Idle` every accepted frame is stranded by
//! construction and counted).
//!
//! A scenario the runner cannot execute (an app profile with no
//! functional processor, a queue-count mismatch) is rejected with a typed
//! [`RealtimeError`] through [`try_run_realtime`]; the panicking
//! [`run_realtime`] convenience wrapper merely unwraps it.

use crate::report::{QueueReport, RunReport};
use crate::scenario::{Scenario, SystemKind};
use metronome_apps::processor::PacketProcessor;
use metronome_apps::{FloWatcher, IpsecGateway, L3Fwd};
use metronome_core::discipline::{DisciplineSpec, ModerationConfig};
use metronome_core::executor::{WorkerSet, WorkerSpec};
use metronome_core::rxqueue::RxQueue;
use metronome_core::{AdaptiveController, MetronomeConfig};
use metronome_dpdk::{Mbuf, Mempool, QueueScatter, RingConsumer, RingPath, RssPort};
use metronome_net::headers::{build_udp_frame, Mac, MIN_FRAME_NO_FCS};
use metronome_sim::stats::Histogram;
use metronome_sim::CoarseClock;
use metronome_sim::Nanos;
use metronome_sim::Rng;
use metronome_telemetry::{
    CounterSnapshot, DropCause, Sampler, TelemetryHub, TelemetrySink, TraceHub,
    DEFAULT_RING_CAPACITY,
};
use metronome_traffic::{FlowSet, InjectionStats, PacedArrivals, PlannedFaults, WallClock};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Flows in the generated population (enough for RSS to spread evenly).
const FLOWS_PER_RUN: usize = 256;

/// Destination subnets, matching `L3Fwd::with_sample_routes(4)`.
const L3FWD_SUBNETS: usize = 4;

/// Mbuf dataroom of the run's pool (DPDK's default; far above the
/// templates' minimal frames).
const MBUF_DATAROOM: usize = 2048;

/// Largest arrival batch the generator requests from the pool at once
/// (bounds how many buffers a catch-up backlog can demand before any
/// recycle).
const GEN_BATCH: usize = 256;

/// How long after the traffic horizon the runner waits for workers to
/// drain the rings before declaring leftovers stranded.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Why the realtime runner refused to execute a scenario. Returned by
/// [`try_run_realtime`] instead of panicking, so callers sweeping over
/// generated scenario sets can report and skip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RealtimeError {
    /// The Metronome config's queue count disagrees with the scenario's.
    QueueMismatch {
        /// Queues in the `MetronomeConfig`.
        config: usize,
        /// Queues in the `Scenario`.
        scenario: usize,
    },
    /// The scenario's app profile has no functional processor wired
    /// (cost-model-only profiles exist in the simulator).
    NoProcessor {
        /// The app profile name.
        app: &'static str,
    },
}

impl std::fmt::Display for RealtimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RealtimeError::QueueMismatch { config, scenario } => write!(
                f,
                "Metronome config has {config} queues but the scenario has {scenario}"
            ),
            RealtimeError::NoProcessor { app } => {
                write!(f, "no functional processor wired for app profile '{app}'")
            }
        }
    }
}

impl std::error::Error for RealtimeError {}

/// Builds the functional packet processor for one queue. Factories run
/// once per queue at startup; each queue owns its instance, so processor
/// state (route tables, flow tables, SA counters) is per-queue like DPDK's
/// per-lcore state.
pub type ProcessorFactory<'a> = dyn Fn(usize) -> Box<dyn PacketProcessor> + 'a;

/// The functional processor wired to an app profile name, if one exists
/// (the realtime counterpart of the cost-only
/// [`crate::apps_profile::AppProfile`]).
pub fn processor_for(app_name: &str) -> Option<Box<dyn PacketProcessor>> {
    match app_name {
        "l3fwd-lpm" => Some(Box::new(L3Fwd::with_sample_routes(L3FWD_SUBNETS))),
        "ipsec-secgw-out" => Some(Box::new(IpsecGateway::outbound())),
        "flowatcher" => Some(Box::new(FloWatcher::new(65_536))),
        _ => None,
    }
}

/// [`processor_for`], panicking when the profile has no functional
/// implementation.
///
/// # Panics
/// If the profile has no functional implementation.
pub fn default_processor(app_name: &str) -> Box<dyn PacketProcessor> {
    processor_for(app_name)
        .unwrap_or_else(|| panic!("no functional processor wired for app profile '{app_name}'"))
}

/// The Rx-queue capability realized by a DPDK-like ring consumer: the
/// glue between `metronome_core`'s [`RxQueue`] seam and
/// `metronome_dpdk`'s [`RingConsumer`] (a newtype, since both the trait
/// and the type live in other crates). On the default SPSC ring path a
/// worker's burst drain is one batched acquire/release index update.
#[derive(Clone, Debug)]
pub struct WorkerRing(pub RingConsumer);

impl RxQueue<Mbuf> for WorkerRing {
    fn pop(&self) -> Option<Mbuf> {
        self.0.pop()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn pop_burst(&self, out: &mut Vec<Mbuf>, max: usize) -> usize {
        self.0.pop_burst(out, max)
    }
}

/// Per-queue application state: the processor plus its latency histogram,
/// behind one mutex taken **once per burst**, not per packet. Uncontended
/// by construction — only one worker drains a queue at a time (the
/// Metronome trylock, or 1:1 worker/queue pinning in the baselines).
struct QueueApp {
    proc: Box<dyn PacketProcessor>,
    latency_ns: Histogram,
}

/// The worker configuration and discipline a [`SystemKind`] maps onto:
/// `None` for [`SystemKind::Idle`] (no workers at all).
fn discipline_for(
    sc: &Scenario,
) -> Result<Option<(MetronomeConfig, DisciplineSpec)>, RealtimeError> {
    let baseline_cfg = || MetronomeConfig {
        m_threads: sc.n_queues,
        n_queues: sc.n_queues,
        ..MetronomeConfig::default()
    };
    match &sc.system {
        SystemKind::Metronome(cfg) => {
            if cfg.n_queues != sc.n_queues {
                return Err(RealtimeError::QueueMismatch {
                    config: cfg.n_queues,
                    scenario: sc.n_queues,
                });
            }
            Ok(Some((cfg.clone(), DisciplineSpec::Metronome)))
        }
        SystemKind::StaticDpdk => Ok(Some((baseline_cfg(), DisciplineSpec::BusyPoll))),
        SystemKind::Xdp => Ok(Some((
            baseline_cfg(),
            DisciplineSpec::InterruptLike(ModerationConfig::default()),
        ))),
        SystemKind::ConstSleep { period } => {
            Ok(Some((baseline_cfg(), DisciplineSpec::ConstSleep(*period))))
        }
        SystemKind::Idle => Ok(None),
    }
}

/// Execute a scenario end-to-end on real threads, with the app profile's
/// default functional processor. Every [`SystemKind`] executes (each maps
/// onto a retrieval discipline; `Idle` runs the pipeline with no
/// consumers).
///
/// # Panics
/// If the scenario is rejected (see [`try_run_realtime`] for the
/// non-panicking form).
pub fn run_realtime(sc: &Scenario) -> RunReport {
    try_run_realtime(sc).unwrap_or_else(|e| panic!("realtime scenario rejected: {e}"))
}

/// [`run_realtime`] with a custom per-queue processor factory (tests use
/// this to inject instrumented or deliberately slow applications).
///
/// # Panics
/// If the scenario is rejected (see [`try_run_realtime_with`]).
pub fn run_realtime_with(sc: &Scenario, make_app: &ProcessorFactory) -> RunReport {
    try_run_realtime_with(sc, make_app)
        .unwrap_or_else(|e| panic!("realtime scenario rejected: {e}"))
}

/// Fallible [`run_realtime`]: a scenario the runner cannot execute comes
/// back as a typed [`RealtimeError`] instead of a panic.
pub fn try_run_realtime(sc: &Scenario) -> Result<RunReport, RealtimeError> {
    // Resolve the processor up front so the factory below cannot panic on
    // user input.
    if processor_for(sc.app.name).is_none() {
        return Err(RealtimeError::NoProcessor { app: sc.app.name });
    }
    try_run_realtime_with(sc, &|_q| default_processor(sc.app.name))
}

/// Fallible [`run_realtime_with`].
pub fn try_run_realtime_with(
    sc: &Scenario,
    make_app: &ProcessorFactory,
) -> Result<RunReport, RealtimeError> {
    let dispatch = discipline_for(sc)?;

    // ---- generator shards -------------------------------------------------
    // Flows are partitioned across shards, so a shard count above the flow
    // population would leave shards with nothing to emit: clamp (a run
    // has FLOWS_PER_RUN flows, far above any sensible shard count).
    let gen_shards = sc.gen_shards.clamp(1, FLOWS_PER_RUN);
    // Concurrent producers need a multi-producer transport: the default
    // SPSC path auto-upgrades to the MPSC (Vyukov) path. An explicit
    // Locked choice is honored — the locked ring is MPMC already. (SPSC
    // with G > 1 would be *safe* — the producer side is guarded — but
    // the guard serializes the shards, defeating the point.)
    let ring_path = if gen_shards > 1 && sc.ring_path == RingPath::Spsc {
        RingPath::Mpsc
    } else {
        sc.ring_path
    };

    // ---- receive side: RSS port over bounded mbuf rings ------------------
    let mut port = RssPort::with_path(sc.n_queues, sc.ring_size, ring_path);

    // ---- worker shape ----------------------------------------------------
    // The worker config sizes the shared state (controller, locks,
    // doorbells) even when no workers spawn, so the report's per-queue
    // columns keep their shape under `Idle`.
    let worker_cfg = dispatch
        .as_ref()
        .map(|(cfg, _)| cfg.clone())
        .unwrap_or_else(|| MetronomeConfig {
            m_threads: sc.n_queues.max(1),
            n_queues: sc.n_queues,
            ..MetronomeConfig::default()
        });
    let n_workers = dispatch
        .as_ref()
        .map_or(0, |(cfg, spec)| spec.workers(cfg.m_threads, cfg.n_queues));

    // ---- the shared mbuf pool --------------------------------------------
    // Default population: every ring full twice over, plus each producer
    // shard's cache high-water mark and each worker cache's (a cache of
    // size C holds at most 2C before spilling) — generous enough that
    // a correctly sized run never sees pool exhaustion, small enough that
    // a deliberate `with_mbuf_pool` undersizing bites immediately.
    let population = sc.mbuf_pool.unwrap_or_else(|| {
        2 * sc.n_queues * sc.ring_size
            + gen_shards * 2 * GEN_BATCH
            + n_workers.max(1) * 2 * worker_cfg.burst as usize
    });
    let pool = Mempool::new(population, MBUF_DATAROOM);

    // ---- frame templates: routable flows, RSS resolved once per flow -----
    let flows = FlowSet::routable(FLOWS_PER_RUN, L3FWD_SUBNETS, sc.seed);
    let templates: Vec<(bytes::BytesMut, usize, u32)> = flows
        .flows()
        .iter()
        .map(|t| {
            let frame = build_udp_frame(Mac::local(1), Mac::local(2), t, &[], MIN_FRAME_NO_FCS);
            let input = t.rss_input();
            (frame, port.queue_for(&input), port.rss_hash(&input))
        })
        .collect();

    // ---- per-queue functional applications -------------------------------
    let apps: Arc<Vec<Mutex<QueueApp>>> = Arc::new(
        (0..sc.n_queues)
            .map(|q| {
                Mutex::new(QueueApp {
                    proc: make_app(q),
                    latency_ns: Histogram::latency(),
                })
            })
            .collect(),
    );

    // ---- telemetry: counters always on, sampling on request --------------
    // Workers bump the hub's relaxed atomics at protocol grain; the
    // producer side accounts drops by cause through the same hub, so a
    // sampler thread (below) sees one coherent counter surface. The hub
    // carries the discipline label so exported series from different
    // systems stay distinguishable.
    let hub = TelemetryHub::labeled(n_workers, sc.n_queues, sc.system.label());

    // Per-shard generator jitter histograms (offered-vs-scheduled lateness
    // per packet): each shard locks its own slot once per batch, the
    // sampler and the report merge them. Always on — pacing fidelity is a
    // first-class measurement, not a tracing extra.
    let gen_jitter: Arc<Vec<Mutex<Histogram>>> = Arc::new(
        (0..gen_shards)
            .map(|_| Mutex::new(Histogram::latency()))
            .collect(),
    );

    // ---- workers: the scenario's retrieval discipline on real threads ----
    // The latency clock is anchored only after the workers are up (the
    // cell is filled below): anchoring before the spawn would stamp the
    // arrivals falling due during thread creation with scheduled times
    // milliseconds in the past and inflate the latency tail. No packet
    // can be processed before the cell is set — generation starts after.
    let clock_cell: Arc<std::sync::OnceLock<WallClock>> = Arc::new(std::sync::OnceLock::new());
    let measure_latency = sc.latency_stride > 0;
    let run_start = Instant::now();
    // Flight-recorder tracing (opt-in): one ring per worker on the thread
    // backend, one per shard on the executor. The untraced start path
    // passes NullTrace, so a `trace: false` scenario records nothing and
    // pays nothing on the record path.
    let trace_hub: Option<Arc<TraceHub>> = match (&dispatch, sc.trace) {
        (Some((cfg, spec)), true) => Some(Arc::new(TraceHub::labeled(
            sc.exec.trace_recorders(cfg, spec),
            DEFAULT_RING_CAPACITY,
            sc.system.label(),
        ))),
        _ => None,
    };
    let metronome = dispatch.map(|(cfg, spec)| {
        let worker_burst = cfg.burst as usize;
        let make_process = {
            let apps = &apps;
            let clock_cell = &clock_cell;
            let pool = &pool;
            move |_worker: usize| {
                let apps = Arc::clone(apps);
                let clock_cell = Arc::clone(clock_cell);
                // Each worker owns a burst-sized mempool cache: a
                // recycled burst is a thread-local stack push, not a
                // freelist lock. The cache rides into the worker's
                // closure and flushes when the thread exits (before
                // join returns), so the post-run pool audit still
                // balances.
                let mut cache = pool.cache(worker_burst);
                move |q: usize, burst: &mut Vec<Mbuf>| {
                    // One lock, one process_burst, one histogram pass,
                    // one free_burst — per burst, never per packet.
                    let mut slot = apps[q].lock();
                    let _verdicts = slot.proc.process_burst(burst);
                    if measure_latency {
                        if let Some(clock) = clock_cell.get() {
                            let done = clock.now();
                            for mbuf in burst.iter() {
                                let lat = done.saturating_sub(mbuf.arrival);
                                slot.latency_ns.record(lat.as_nanos());
                            }
                        }
                    }
                    drop(slot);
                    cache.free_burst(burst.drain(..));
                }
            }
        };
        let consumers: Vec<WorkerRing> = port.consumers().into_iter().map(WorkerRing).collect();
        let worker_spec = WorkerSpec {
            exec: sc.exec,
            cfg,
            discipline: spec.clone(),
            hub: Some(Arc::clone(&hub)),
            trace: trace_hub.clone(),
        };
        let worker_set = WorkerSet::start(worker_spec, consumers, make_process);
        // Interrupt-driven workers park on per-queue doorbells; arm the
        // RSS port's producer-side hook so every accepted burst rings the
        // queue's bell (the "raise the IRQ" edge). The hook is installed
        // before generation starts, so no accepted frame can pre-date it.
        if matches!(spec, DisciplineSpec::InterruptLike(_)) {
            for q in 0..sc.n_queues {
                let bell = Arc::clone(worker_set.doorbell(q));
                port.set_wake_hook(q, Arc::new(move || bell.ring()));
            }
        }
        worker_set
    });
    let port = Arc::new(port);

    // ---- sampler thread (the realtime counterpart of the simulation's
    // scheduled sampling events): every `series_every` it snapshots the
    // hub's cumulative counters plus the ring/pool occupancy gauges, and
    // takes one final snapshot after shutdown accounting settles so the
    // windowed series telescopes exactly to the report's totals.
    let sampler_stop = Arc::new(AtomicBool::new(false));
    let sampler_thread = sc.series_every.map(|every| {
        let hub = Arc::clone(&hub);
        let port = Arc::clone(&port);
        let pool = pool.clone();
        let apps = Arc::clone(&apps);
        let stop = Arc::clone(&sampler_stop);
        let trace_hub = trace_hub.clone();
        let gen_jitter = Arc::clone(&gen_jitter);
        let interval = Duration::from_nanos(every.as_nanos());
        std::thread::Builder::new()
            .name("metronome-sampler".into())
            .spawn(move || {
                let mut sampler = Sampler::new(every);
                let mut last = Instant::now();
                loop {
                    // Acquire pairs with the Release store below: once the
                    // flag reads true, every counter write the main thread
                    // made before raising it (worker counters settled by
                    // join, stranded-frame mirrors) is visible here — the
                    // final snapshot must telescope exactly.
                    while last.elapsed() < interval && !stop.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let stopping = stop.load(Ordering::Acquire);
                    let mut snap =
                        CounterSnapshot::new(Nanos(run_start.elapsed().as_nanos() as u64));
                    hub.fill_snapshot(&mut snap);
                    snap.offered = port.total_offered() + snap.dropped_pool + snap.dropped_fault;
                    snap.occupancy = port.occupancies();
                    snap.pool_in_use = pool.in_use() as u64;
                    snap.pool_cached = pool.cached() as u64;
                    if measure_latency {
                        // Merging the per-queue histograms takes each app
                        // mutex briefly; workers hold it once per burst,
                        // so contention is rare and bounded.
                        let mut merged = Histogram::latency();
                        for app in apps.iter() {
                            merged.merge(&app.lock().latency_ns);
                        }
                        snap.latency = Some(merged);
                    }
                    if let Some(trace) = &trace_hub {
                        // Recorders publish opportunistically (every flush
                        // batch and at drop), so a live window sees the
                        // state as of the last flush; the final snapshot
                        // after join sees everything.
                        let dump = trace.dump();
                        snap.wake_latency = Some(dump.wake_latency());
                        snap.oversleep_hist = Some(dump.oversleep());
                        snap.sched_delay = Some(dump.sched_delay());
                    }
                    // Generator pacing jitter, merged over shards. Each
                    // shard's lock is held per batch, so contention here
                    // is brief and bounded like the app mutexes above.
                    let mut jitter = Histogram::latency();
                    for shard in gen_jitter.iter() {
                        jitter.merge(&shard.lock());
                    }
                    snap.gen_jitter = Some(jitter);
                    sampler.sample(snap);
                    last = Instant::now();
                    if stopping {
                        return sampler.into_series();
                    }
                }
            })
            .expect("spawn sampler thread")
    });

    // ---- traffic: G flow-sharded arrival slices, wall-clock paced --------
    // `TrafficSpec::build(gen_shards, ...)` splits the aggregate rate into
    // `G` phase-staggered slices; every slice paces against ONE shared
    // clock, so interleaved arrival timestamps stay mutually comparable
    // and latency/jitter measurements reference the same zero. Under a
    // fault plan each shard's source passes through its own seeded
    // injector (independent sub-streams of the master seed; spikes
    // duplicate, stalls hold, starvation and jitter suppress). Suppressed
    // packets never reach the pool or the rings, so each shard mirrors
    // its own injector's counts into the hub as `DropCause::Fault`
    // (attributed to queue 0 — injection happens before RSS picks a
    // queue).
    let gen_clock = WallClock::start();
    clock_cell
        .set(gen_clock)
        .expect("latency clock anchored twice");
    let mut fault_stats: Vec<InjectionStats> = Vec::new();
    let pacers: Vec<PacedArrivals> = sc
        .traffic
        .build(gen_shards, &sc.nic, sc.seed)
        .into_iter()
        .enumerate()
        .map(|(s, mut source)| {
            if let Some(plan) = &sc.faults {
                let pf = PlannedFaults::new(
                    source,
                    plan.clone(),
                    Rng::new(sc.seed).stream(0xFA + s as u64),
                );
                fault_stats.push(pf.stats());
                source = Box::new(pf);
            }
            PacedArrivals::with_clock(source, sc.duration, gen_clock).with_max_batch(GEN_BATCH)
        })
        .collect();

    // ---- load generation --------------------------------------------------
    // Flow → shard assignment: flow `i` belongs to shard `i mod G`. Each
    // flow is produced by exactly one shard and each shard emits its slice
    // in schedule order, so per-flow packet order is preserved — the same
    // partitioning argument RSS itself makes on the receive side. `G = 1`
    // runs inline on this thread (the classic path, no spawn); `G > 1`
    // runs every shard on its own scoped producer thread, all offering
    // concurrently onto the multi-producer ring path.
    let shard_templates: Vec<Vec<(bytes::BytesMut, usize, u32)>> = (0..gen_shards)
        .map(|s| {
            templates
                .iter()
                .enumerate()
                .filter(|(i, _)| i % gen_shards == s)
                .map(|(_, t)| t.clone())
                .collect()
        })
        .collect();
    {
        let mut shards: Vec<_> = pacers
            .into_iter()
            .zip(shard_templates.iter())
            .enumerate()
            .map(|(s, (paced, templates))| GenShard {
                paced,
                templates,
                fault_stats: fault_stats.get(s).cloned(),
                jitter: &gen_jitter[s],
            })
            .collect();
        if gen_shards == 1 {
            run_gen_shard(shards.pop().expect("one shard"), &port, &pool, &hub);
        } else {
            let (port_ref, pool_ref, hub_ref) = (&*port, &pool, &*hub);
            std::thread::scope(|scope| {
                for (s, shard) in shards.into_iter().enumerate() {
                    std::thread::Builder::new()
                        .name(format!("metronome-gen{s}"))
                        .spawn_scoped(scope, move || {
                            run_gen_shard(shard, port_ref, pool_ref, hub_ref);
                        })
                        .expect("spawn generator shard");
                }
            });
        }
    }

    // ---- run out the horizon ----------------------------------------------
    // A source can dry up before the scenario ends (Silent traffic, an
    // OnOff off-tail): the workers must still run their idle sleep/wake
    // loop for the full configured duration, or idle-cost measurements
    // (wakes, busy fraction) would cover a spawn/teardown window instead
    // of the scenario — the sim runs the same horizon unconditionally.
    let elapsed = gen_clock.now();
    if elapsed < sc.duration {
        std::thread::sleep(Duration::from_nanos((sc.duration - elapsed).as_nanos()));
    }

    // ---- drain and stop ---------------------------------------------------
    // Generation is over, so `accepted` is final; wait for the workers to
    // catch up before stopping, bounded by a grace period. With no
    // workers (`Idle`) there is nothing to wait for: everything accepted
    // is stranded by construction.
    if let Some(m) = &metronome {
        let deadline = Instant::now() + DRAIN_GRACE;
        loop {
            let processed: u64 = (0..sc.n_queues).map(|q| m.processed(q)).sum();
            if processed >= port.total_accepted() || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let stats = metronome.map(WorkerSet::stop).unwrap_or_default();
    // Busy time accrues from worker start to join — including the drain
    // tail past the traffic horizon — so CPU% must be normalized by the
    // same span, not by the scenario duration.
    let actual_wall = run_start.elapsed().as_secs_f64();
    // Anything still queued was accepted but never retrieved (only possible
    // if the grace period expired, or always under `Idle`): count it as
    // dropped so conservation stays exact — and recycle the buffers, so
    // the pool audit below still balances.
    let mut stranded_scratch: Vec<Mbuf> = Vec::new();
    let stranded: Vec<u64> = port
        .rings()
        .iter()
        .enumerate()
        .map(|(q, ring)| {
            let mut n = 0u64;
            while ring.pop_burst(&mut stranded_scratch, GEN_BATCH) > 0 {
                n += stranded_scratch.len() as u64;
                pool.free_burst(stranded_scratch.drain(..));
            }
            hub.dropped(q, DropCause::Ring, n);
            n
        })
        .collect();

    // Every buffer the pool handed out must be home again: the workers
    // recycle after each burst and each generator shard after each offer
    // (the shard caches flushed when `run_gen_shard` returned, the worker
    // caches when their threads exited), so a leak here is a real
    // datapath bug, not a timing artifact.
    debug_assert_eq!(pool.in_use(), 0, "mbuf leak: pool buffers unaccounted");
    debug_assert_eq!(pool.cached(), 0, "worker caches not flushed at exit");

    // Shutdown accounting is settled: release the sampler for its final
    // snapshot, so the series totals match the report's counters exactly.
    let timeseries = sampler_thread.map(|handle| {
        sampler_stop.store(true, Ordering::Release);
        handle.join().expect("sampler thread panicked")
    });
    let pool_drops: Vec<u64> = (0..sc.n_queues)
        .map(|q| hub.queue(q).dropped_pool.load(Ordering::Relaxed))
        .collect();

    // The Metronome discipline snapshots its adaptive controller at stop;
    // the lock-free baselines (and `Idle`) never touch one, so their
    // per-queue race/vacation columns read zero from a fresh instance.
    let ctrl = stats
        .controller
        .clone()
        .unwrap_or_else(|| AdaptiveController::new(worker_cfg.clone()));
    let forwarded = stats.total_processed();
    let dropped_pool: u64 = pool_drops.iter().sum();
    let dropped_ring = port.total_dropped() + stranded.iter().sum::<u64>();
    let dropped_fault: u64 = (0..sc.n_queues)
        .map(|q| hub.queue(q).dropped_fault.load(Ordering::Relaxed))
        .sum();
    let dropped = dropped_ring + dropped_pool + dropped_fault;
    let offered = port.total_offered() + dropped_pool + dropped_fault;
    assert_eq!(
        offered,
        forwarded + dropped,
        "packet conservation violated in the realtime pipeline"
    );

    // ---- report: same columns as the simulator ----------------------------
    let mut report =
        RunReport::from_counts(sc.name.clone(), sc.duration, offered, forwarded, dropped);
    report.dropped_ring = dropped_ring;
    report.dropped_pool = dropped_pool;
    report.dropped_fault = dropped_fault;
    report.mempool = Some(pool.stats());
    report.timeseries = timeseries;
    report.queues = (0..sc.n_queues)
        .map(|q| {
            let st = ctrl.queue(q);
            QueueReport {
                mean_vacation_us: st.mean_vacation().map_or(0.0, |v| v.as_micros_f64()),
                mean_busy_us: st.mean_busy().map_or(0.0, |b| b.as_micros_f64()),
                // NV (packets found queued at acquire) is not instrumented
                // on the hot path; the sim reports it.
                nv: 0.0,
                rho: ctrl.rho(q),
                total_tries: st.total_tries,
                busy_tries: st.busy_tries,
                busy_try_fraction: st.busy_try_fraction(),
                drained: stats.processed.get(q).copied().unwrap_or(0),
                dropped: port.rings()[q].dropped() + stranded[q] + pool_drops[q],
                dropped_pool: pool_drops[q],
            }
        })
        .collect();
    // CPU: the workers' own measured awake time (the telemetry hub's busy
    // spans, flushed at every sleep/park/spin boundary) over the actual
    // wall span — comparable across disciplines: a busy poller reads
    // ≈100% per queue, a parked interrupt worker ≈0 at idle, Metronome in
    // between and proportional to load. This measures *occupancy*, not
    // scheduler CPU time: on an oversubscribed host a spinning worker's
    // involuntary descheduling still counts as busy, exactly like the
    // "burned core" the paper charges to static DPDK. Real deployments
    // would read /proc; the sim charges calibrated cycle costs instead.
    report.cpu_per_thread_pct = (0..n_workers)
        .map(|w| {
            hub.worker(w).busy_nanos.load(Ordering::Relaxed) as f64
                / 1e9
                / actual_wall.max(f64::MIN_POSITIVE)
                * 100.0
        })
        .collect();
    report.cpu_total_pct = report.cpu_per_thread_pct.iter().sum();
    report.busy_try_fraction = ctrl.busy_try_fraction();
    report.total_wakes = stats.wakes.iter().sum();
    if measure_latency {
        let mut merged = Histogram::latency();
        for app in apps.iter() {
            merged.merge(&app.lock().latency_ns);
        }
        report.latency_us = merged.boxplot_scaled(1e-3);
    }
    // Pacing fidelity, merged over generator shards (always measured).
    let mut jitter_merged = Histogram::latency();
    for shard in gen_jitter.iter() {
        jitter_merged.merge(&shard.lock());
    }
    report.gen_jitter_us = jitter_merged.boxplot_scaled(1e-3);
    // Workers joined above, so every recorder has deposited its final
    // ring state: this dump is the complete flight record of the run.
    report.trace = trace_hub.as_ref().map(|t| t.dump());
    Ok(report)
}

/// One generator shard's working set: its arrival-slice pacer, its flow
/// templates (the `i mod G == s` partition), its injector stats (when a
/// fault plan is armed) and its jitter-histogram slot.
struct GenShard<'a> {
    paced: PacedArrivals,
    templates: &'a [(bytes::BytesMut, usize, u32)],
    fault_stats: Option<InjectionStats>,
    jitter: &'a Mutex<Histogram>,
}

/// Produce one shard's arrival slice to exhaustion: pace, stamp, scatter,
/// offer, recycle. Runs inline for `gen_shards = 1` and on a scoped
/// producer thread per shard otherwise; every counter it touches is
/// shard-additive (hub atomics, ring counters, pool accounting), so the
/// aggregate is exact regardless of interleaving.
fn run_gen_shard(shard: GenShard<'_>, port: &RssPort, pool: &Mempool, hub: &TelemetryHub) {
    let GenShard {
        mut paced,
        templates,
        fault_stats,
        jitter,
    } = shard;
    // Per-shard working set: a mempool cache (burst alloc/free is a
    // thread-local stack drain, no freelist lock), a scatter arena
    // (counting sort to per-queue runs, no per-queue Vec churn), and a
    // coarse clock on the pacer's timeline (ONE precise read per batch —
    // the per-packet jitter stamps reuse it).
    let mut cache = pool.cache(GEN_BATCH);
    let mut scatter = QueueScatter::new(port.n_queues());
    let coarse = CoarseClock::from_epoch(paced.clock().anchor());
    let mut blanks: Vec<Mbuf> = Vec::with_capacity(GEN_BATCH);
    let mut seq = 0usize;
    let mut mirrored_fault = 0u64;
    while let Some(batch) = paced.next_batch() {
        // Mirror the injector's suppressions into the hub incrementally,
        // so a live sampler sees fault drops as they happen rather than
        // in one end-of-run burst.
        if let Some(stats) = &fault_stats {
            let total = stats.drops();
            if total > mirrored_fault {
                hub.dropped(0, DropCause::Fault, total - mirrored_fault);
                mirrored_fault = total;
            }
        }
        // Offered-vs-scheduled lateness of the whole batch against one
        // amortized timestamp. A batch IS one emission instant — the
        // per-packet vDSO reads the coarse clock removes were measuring
        // the clock, not the pacing.
        let now = coarse.tick();
        {
            let mut j = jitter.lock();
            for &t in batch {
                j.record(now.saturating_sub(t).as_nanos());
            }
        }
        cache.alloc_burst(batch.len(), &mut blanks);
        for &t in batch {
            let (frame, q, hash) = &templates[seq % templates.len()];
            seq += 1;
            match blanks.pop() {
                Some(mut mbuf) => {
                    mbuf.refill(frame);
                    mbuf.queue = *q as u16;
                    mbuf.rss_hash = *hash;
                    mbuf.arrival = t;
                    scatter.push(*q, mbuf);
                }
                // Pool exhausted: the NIC has a descriptor but no buffer
                // to DMA into — a drop cause of its own.
                None => hub.dropped(*q, DropCause::Pool, 1),
            }
        }
        scatter.dispatch(|q, frames| {
            port.offer_burst(q, frames);
            // Whatever the ring rejected is tail-dropped (already counted
            // by the ring; mirrored into the telemetry hub): recycle the
            // buffers in one cache transaction.
            hub.dropped(q, DropCause::Ring, frames.len() as u64);
            cache.free_burst(frames.drain(..));
        });
    }
    // This shard's slice is over: sweep up its injector's remaining
    // suppressions, plus any packets a queue stall still holds past the
    // horizon — those are stranded upstream of the NIC and will never be
    // offered, so they close the conservation identity as fault drops.
    if let Some(stats) = &fault_stats {
        let total = stats.drops() + stats.held();
        if total > mirrored_fault {
            hub.dropped(0, DropCause::Fault, total - mirrored_fault);
        }
    }
    // The shard cache flushes on drop, before the scoped join — the
    // post-run pool audit sees everything home.
}
