//! The service engine behind `metronomed`: a persistent realtime
//! pipeline (mempool → RSS port → retrieval workers) that outlives any
//! single scenario, with live reconfiguration and scheduled fault
//! injection.
//!
//! Where [`metronome_runtime::realtime_runner`] executes one scenario
//! start-to-finish and tears everything down, the engine keeps the
//! infrastructure up between scenarios:
//!
//! * **Submit** builds a fresh [`RssPort`] and worker set over the shared
//!   [`Mempool`] and spawns a rate-driven generator thread.
//! * **Reconfigure** adjusts the offered rate through one atomic store
//!   (the generator reads it every tick), or re-arms the worker set for a
//!   new discipline / `M` without stopping the generator — counters stay
//!   monotone because the retiring hub's totals fold into a cumulative
//!   base before the fresh hub takes over.
//! * **Drain** runs the shutdown state machine: stop the generator (it
//!   releases any fault state it holds on exit), wait for the workers to
//!   catch up with everything the rings accepted, join them (their
//!   mempool caches flush on exit), sweep anything stranded, and audit
//!   the pool — `in_use == 0`, `cached == 0`, `allocs == frees` — before
//!   reporting exact conservation: `offered == processed + dropped`.
//!
//! Fault realization in service mode (the arrival-side realization lives
//! in [`metronome_traffic::PlannedFaults`]; the daemon realizes the same
//! [`FaultPlan`] against real infrastructure):
//!
//! | kind           | realization                                         | shows up as |
//! |----------------|-----------------------------------------------------|-------------|
//! | `rate-spike`   | generator multiplies the offered rate               | ring drops under overload |
//! | `queue-stall`  | workers pause in the process closure; rings back up | ring drops |
//! | `pool-starve`  | generator confiscates pool buffers for the window   | pool drops |
//! | `jitter-burst` | generator coin-flips packet suppression             | fault drops |

use crate::protocol::{self, DisciplineChoice, ReconfigureSpec, Request, SubmitSpec};
use bytes::BytesMut;
use metronome_apps::processor::PacketProcessor;
use metronome_core::discipline::{DisciplineSpec, Doorbell, ModerationConfig};
use metronome_core::executor::{WorkerSet, WorkerSpec};
use metronome_core::realtime::lower_timer_slack;
use metronome_core::{ExecBackend, MetronomeConfig};
use metronome_dpdk::shared_ring::RingPath;
use metronome_dpdk::{Mbuf, Mempool, QueueScatter, RssPort};
use metronome_net::headers::{build_udp_frame, Mac, MIN_FRAME_NO_FCS};
use metronome_runtime::realtime_runner::{processor_for, WorkerRing};
use metronome_sim::stats::Histogram;
use metronome_sim::{Nanos, Rng};
use metronome_telemetry::export::prometheus::{render, snapshot_metrics};
use metronome_telemetry::{
    CounterSnapshot, DropCause, Json, MarkerKind, TelemetryHub, TelemetrySink, TraceHub,
    TraceRecorder, TraceSink, DEFAULT_RING_CAPACITY,
};
use metronome_traffic::{FaultPlan, FlowSet, WallClock};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generator wake-up period: batch sizes follow from rate × tick.
const GEN_TICK: Duration = Duration::from_micros(500);

/// Hard cap on one tick's batch (bounds pool demand during catch-up; the
/// clipped remainder is shed, not owed — a daemon must not build debt).
const GEN_MAX_BATCH: usize = 2048;

/// How long the process closure naps between stall-flag polls.
const STALL_POLL: Duration = Duration::from_micros(100);

/// How long `drain` waits for the workers to catch up with everything
/// the rings accepted before sweeping leftovers as stranded.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Flows in the generated population (matches the realtime runner).
const FLOWS_PER_RUN: usize = 256;

/// Destination subnets, matching `L3Fwd::with_sample_routes(4)`.
const L3FWD_SUBNETS: usize = 4;

/// Mbuf dataroom of the daemon's pool.
const MBUF_DATAROOM: usize = 2048;

/// Fixed infrastructure the daemon owns for its whole lifetime.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Rx queues of every scenario the daemon runs.
    pub n_queues: usize,
    /// Descriptors per Rx ring.
    pub ring_size: usize,
    /// Mbuf pool population (`None`: sized for rings + generator bursts).
    pub pool_population: Option<usize>,
    /// App profile every queue processes with (must have a functional
    /// processor — see `processor_for`).
    pub app: &'static str,
    /// Seed for flow population and fault coin flips.
    pub seed: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            n_queues: 2,
            ring_size: 512,
            pool_population: None,
            app: "l3fwd-lpm",
            seed: 1,
        }
    }
}

/// Counter totals folded out of retired telemetry hubs and finished
/// ports, so exported counters stay monotone across reconfigures and
/// scenarios. All fields are lifetime-cumulative.
#[derive(Clone, Copy, Debug, Default)]
struct Totals {
    retrieved: u64,
    wakeups: u64,
    busy_nanos: u64,
    sleep_nanos: u64,
    oversleep_nanos: u64,
    dropped_ring: u64,
    dropped_pool: u64,
    dropped_fault: u64,
    /// Frames offered to retired ports (a port lives for one scenario).
    port_offered: u64,
}

impl Totals {
    /// Fold a hub's counters in (call only after its writers stopped).
    fn fold_hub(&mut self, hub: &TelemetryHub) {
        let mut snap = CounterSnapshot::new(Nanos::ZERO);
        hub.fill_snapshot(&mut snap);
        self.retrieved += snap.retrieved;
        self.wakeups += snap.wakeups;
        self.busy_nanos += snap.busy_nanos;
        self.sleep_nanos += snap.sleep_nanos;
        self.oversleep_nanos += snap.oversleep_nanos;
        self.dropped_ring += snap.dropped_ring;
        self.dropped_pool += snap.dropped_pool;
        self.dropped_fault += snap.dropped_fault;
    }
}

/// What the generator shards share with the engine: the stop flag, the
/// live-reconfigurable rate, and the consumer-pause flag shard 0 drives
/// from the plan's stall windows (the same atomic the process closures
/// poll). One instance per generator generation — a `gen_shards`
/// reconfigure retires it (stop + join) and spawns a fresh one carrying
/// the live rate over.
struct GenShared {
    stop: AtomicBool,
    /// Offered rate as `f64` bits — reconfiguring the rate is one store.
    rate_bits: AtomicU64,
    stall: Arc<AtomicBool>,
}

/// Everything one generator shard thread owns: its slice of the flow
/// population (template index `i % n_shards == shard`), its RNG stream,
/// and its jitter-histogram slot. Shard 0 additionally realizes the
/// run-wide fault state (stall flag, pool confiscation).
struct GenShardCtx {
    shared: Arc<GenShared>,
    port: Arc<RssPort>,
    pool: Mempool,
    plan: FaultPlan,
    gen_hub: Arc<Mutex<Arc<TelemetryHub>>>,
    templates: Arc<Vec<(BytesMut, usize, u32)>>,
    rng: Rng,
    shard: usize,
    n_shards: usize,
    jitter: Arc<Vec<Mutex<Histogram>>>,
}

/// One armed worker set (discipline + hub + halt flag), replaced
/// wholesale on a discipline/M reconfigure.
struct Arm {
    workers: WorkerSet<Mbuf, WorkerRing>,
    hub: Arc<TelemetryHub>,
    /// Overrides the stall pause so a re-arm can join workers that are
    /// mid-stall without waiting out the fault window.
    halt: Arc<AtomicBool>,
    discipline: DisciplineChoice,
    m_threads: usize,
    exec: ExecBackend,
}

/// The flight recorder of a running scenario: the hub the workers'
/// per-worker/per-shard recorders publish into, plus one extra
/// **control recorder** (the hub's last slot) for the daemon's own
/// reconfigure / fault-plan markers. The hub outlives re-arms — a new
/// worker set takes fresh recorders over the same slots — so one
/// `trace` dump shows the marker *and* the behaviour change after it.
struct TraceArm {
    hub: Arc<TraceHub>,
    /// Control-plane recorder (recorders are `Send`, not `Sync`; marker
    /// rates are a few per reconfigure, so a mutex is fine here).
    control: Mutex<TraceRecorder>,
}

impl TraceArm {
    /// A hub sized for `worker_slots` worker/shard recorders plus the
    /// control slot.
    fn new(worker_slots: usize, label: &str) -> TraceArm {
        let hub = Arc::new(TraceHub::labeled(
            worker_slots + 1,
            DEFAULT_RING_CAPACITY,
            label,
        ));
        let control = Mutex::new(hub.recorder(worker_slots));
        TraceArm { hub, control }
    }

    /// Record a control-plane marker and publish it immediately (markers
    /// are rare; a blocking flush here costs nothing).
    fn marker(&self, kind: MarkerKind, a: u64) {
        let control = self.control.lock();
        control.marker(kind, a);
        control.flush();
    }

    /// Worker/shard recorder slots (everything but the control slot).
    fn worker_slots(&self) -> usize {
        self.hub.n_recorders() - 1
    }
}

/// A running scenario on the persistent pipeline.
struct RunState {
    name: String,
    port: Arc<RssPort>,
    arm: Option<Arm>,
    /// Flight recorder, armed at submit (`None` when the scenario opted
    /// out with `"trace": false`).
    trace: Option<TraceArm>,
    gen: Option<(Arc<GenShared>, Vec<std::thread::JoinHandle<()>>)>,
    /// Producer shard count of the live generator set.
    gen_shards: usize,
    /// Frame templates the generator shards slice up (kept so a
    /// `gen_shards` reconfigure can respawn the set without rebuilding
    /// the flow population).
    gen_templates: Arc<Vec<(BytesMut, usize, u32)>>,
    /// The scenario's fault plan (respawned shards re-realize it).
    faults: FaultPlan,
    /// Submit seed (shard RNG streams derive from it).
    seed: u64,
    /// Per-shard generator tick-lateness histograms, merged into
    /// `snapshot()` as `gen_jitter`.
    gen_jitter: Arc<Vec<Mutex<Histogram>>>,
    /// The generator's view of the current hub (swapped on re-arm so no
    /// drop is ever counted against a retired hub after it was folded).
    gen_hub: Arc<Mutex<Arc<TelemetryHub>>>,
    /// Per-queue doorbell slots the port's wake hooks ring through
    /// (re-pointed at the new worker set on re-arm).
    bells: Vec<Arc<Mutex<Option<Arc<Doorbell>>>>>,
    apps: Arc<Vec<Mutex<Box<dyn PacketProcessor>>>>,
    stall: Arc<AtomicBool>,
}

struct EngineState {
    run: Option<RunState>,
    base: Totals,
    /// Scenarios drained to completion since startup.
    completed: u64,
}

/// The daemon's command engine: one per process, shared by the control
/// socket and the metrics listener.
pub struct ServiceEngine {
    cfg: DaemonConfig,
    pool: Mempool,
    started: Instant,
    state: Mutex<EngineState>,
    shutdown: AtomicBool,
}

impl ServiceEngine {
    /// Build the engine and its persistent mempool. Panics if `cfg.app`
    /// has no functional processor — that is a deployment error, not
    /// request input.
    pub fn new(cfg: DaemonConfig) -> ServiceEngine {
        assert!(cfg.n_queues > 0, "need at least one queue");
        assert!(
            processor_for(cfg.app).is_some(),
            "no functional processor wired for app profile '{}'",
            cfg.app
        );
        let population = cfg
            .pool_population
            .unwrap_or(2 * cfg.n_queues * cfg.ring_size + 4 * GEN_MAX_BATCH);
        let pool = Mempool::new(population, MBUF_DATAROOM);
        ServiceEngine {
            cfg,
            pool,
            started: Instant::now(),
            state: Mutex::new(EngineState {
                run: None,
                base: Totals::default(),
                completed: 0,
            }),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The daemon's fixed configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.cfg
    }

    /// Whether `shutdown` has been requested (servers drain their accept
    /// loops once this reads true).
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Parse one request line and execute it: the single entry point for
    /// control connections. Malformed input becomes an error reply.
    pub fn dispatch(&self, line: &str) -> Json {
        match Request::parse(line) {
            Ok(req) => self.handle(req),
            Err(e) => protocol::err(e),
        }
    }

    /// Execute one parsed request.
    pub fn handle(&self, req: Request) -> Json {
        match req {
            Request::Ping => protocol::ok()
                .with("reply", "pong")
                .with("state", self.state_label()),
            Request::Stats => self.stats_reply(),
            Request::Trace { path } => self.trace_reply(path),
            Request::Submit(spec) => self.submit(spec),
            Request::Reconfigure(spec) => self.reconfigure(spec),
            Request::Drain => {
                let mut st = self.state.lock();
                self.drain_locked(&mut st)
            }
            // Shutdown is drain + flag, and idempotent: a second call
            // finds no run, drains trivially, and still replies ok.
            Request::Shutdown => {
                let mut st = self.state.lock();
                let reply = self.drain_locked(&mut st);
                self.shutdown.store(true, Ordering::Release);
                reply.with("shutdown", true)
            }
        }
    }

    fn state_label(&self) -> &'static str {
        if self.is_shutdown() {
            "shutdown"
        } else if self.state.lock().run.is_some() {
            "running"
        } else {
            "idle"
        }
    }

    // ---- worker arming ---------------------------------------------------

    fn worker_shape(
        &self,
        choice: DisciplineChoice,
        m_threads: usize,
    ) -> Result<(MetronomeConfig, DisciplineSpec), String> {
        let cfg = MetronomeConfig {
            m_threads,
            n_queues: self.cfg.n_queues,
            ..MetronomeConfig::default()
        };
        let spec = match choice {
            DisciplineChoice::Metronome => DisciplineSpec::Metronome,
            DisciplineChoice::BusyPoll => DisciplineSpec::BusyPoll,
            DisciplineChoice::InterruptLike => {
                DisciplineSpec::InterruptLike(ModerationConfig::default())
            }
            DisciplineChoice::ConstSleep(p) => DisciplineSpec::ConstSleep(p),
        };
        cfg.validate()?;
        Ok((cfg, spec))
    }

    /// The telemetry hub a worker set of this shape writes into. Created
    /// by the caller (not by [`ServiceEngine::arm_workers`]) so a re-arm
    /// can hand the generator the new hub *before* the old one is folded
    /// — no drop is ever mirrored into an already-folded hub.
    fn hub_for(
        &self,
        choice: DisciplineChoice,
        cfg: &MetronomeConfig,
        spec: &DisciplineSpec,
    ) -> Arc<TelemetryHub> {
        let n_workers = spec.workers(cfg.m_threads, cfg.n_queues);
        TelemetryHub::labeled(n_workers, cfg.n_queues, choice.label())
    }

    /// Spawn a worker set over `port`'s consumers and point the per-queue
    /// doorbell slots at it. The process closure pauses while the stall
    /// flag is up (unless this arm's halt flag overrides it — see
    /// [`Arm::halt`]) and recycles every burst through a worker-local
    /// mempool cache.
    #[allow(clippy::too_many_arguments)]
    fn arm_workers(
        &self,
        port: &Arc<RssPort>,
        apps: &Arc<Vec<Mutex<Box<dyn PacketProcessor>>>>,
        stall: &Arc<AtomicBool>,
        bells: &[Arc<Mutex<Option<Arc<Doorbell>>>>],
        choice: DisciplineChoice,
        cfg: MetronomeConfig,
        spec: DisciplineSpec,
        hub: Arc<TelemetryHub>,
        exec: ExecBackend,
        trace: Option<&Arc<TraceHub>>,
    ) -> Arm {
        let halt = Arc::new(AtomicBool::new(false));
        let worker_burst = cfg.burst as usize;
        let m_threads = cfg.m_threads;
        let consumers: Vec<WorkerRing> = port.consumers().into_iter().map(WorkerRing).collect();
        let make_process = {
            let pool = &self.pool;
            let halt = &halt;
            move |_worker| {
                let apps = Arc::clone(apps);
                let stall = Arc::clone(stall);
                let halt = Arc::clone(halt);
                let mut cache = pool.cache(worker_burst);
                move |q: usize, burst: &mut Vec<Mbuf>| {
                    // A stall window pauses retrieval mid-pipeline:
                    // the rings back up behind this nap and tail-drop,
                    // which is exactly the fault being modeled.
                    while stall.load(Ordering::Relaxed) && !halt.load(Ordering::Relaxed) {
                        std::thread::sleep(STALL_POLL);
                    }
                    let mut slot = apps[q].lock();
                    let _verdicts = slot.process_burst(burst);
                    drop(slot);
                    cache.free_burst(burst.drain(..));
                }
            }
        };
        let worker_spec = WorkerSpec {
            exec,
            cfg,
            discipline: spec.clone(),
            hub: Some(Arc::clone(&hub)),
            trace: trace.cloned(),
        };
        let workers = WorkerSet::start(worker_spec, consumers, make_process);
        for (q, slot) in bells.iter().enumerate() {
            *slot.lock() = match spec {
                DisciplineSpec::InterruptLike(_) => Some(Arc::clone(workers.doorbell(q))),
                _ => None,
            };
        }
        Arm {
            workers,
            hub,
            halt,
            discipline: choice,
            m_threads,
            exec,
        }
    }

    // ---- submit ----------------------------------------------------------

    fn submit(&self, spec: SubmitSpec) -> Json {
        if self.is_shutdown() {
            return protocol::err("daemon is shutting down");
        }
        let mut st = self.state.lock();
        if st.run.is_some() {
            return protocol::err("a scenario is already running; reconfigure it or drain first");
        }
        let m_threads = if spec.m_threads == 0 {
            self.cfg.n_queues
        } else {
            spec.m_threads
        };
        let (cfg, disc_spec) = match self.worker_shape(spec.discipline, m_threads) {
            Ok(pair) => pair,
            Err(e) => return protocol::err(e),
        };

        // Shards split the flow population by template index; more
        // shards than flows would leave producers with nothing to send.
        let gen_shards = spec.gen_shards.clamp(1, FLOWS_PER_RUN);
        // Concurrent producers need a multi-producer ring: silently
        // upgrade the default SPSC path (an explicit `locked` is
        // honored — the caller asked to measure that path).
        let ring_path = if gen_shards > 1 && spec.ring_path == RingPath::Spsc {
            RingPath::Mpsc
        } else {
            spec.ring_path
        };

        // Port + doorbell slots. Hooks are installed before the port is
        // shared and ring through a slot, so a re-arm can re-point them
        // without `&mut` access to the port.
        let mut port = RssPort::with_path(self.cfg.n_queues, self.cfg.ring_size, ring_path);
        let bells: Vec<Arc<Mutex<Option<Arc<Doorbell>>>>> = (0..self.cfg.n_queues)
            .map(|_| Arc::new(Mutex::new(None)))
            .collect();
        for (q, slot) in bells.iter().enumerate() {
            let slot = Arc::clone(slot);
            port.set_wake_hook(
                q,
                Arc::new(move || {
                    if let Some(bell) = slot.lock().as_ref() {
                        bell.ring();
                    }
                }),
            );
        }
        let port = Arc::new(port);

        let apps: Arc<Vec<Mutex<Box<dyn PacketProcessor>>>> = Arc::new(
            (0..self.cfg.n_queues)
                .map(|_| Mutex::new(processor_for(self.cfg.app).expect("app checked at startup")))
                .collect(),
        );
        let stall = Arc::new(AtomicBool::new(false));
        let hub = self.hub_for(spec.discipline, &cfg, &disc_spec);
        let trace = spec
            .trace
            .then(|| TraceArm::new(spec.exec.trace_recorders(&cfg, &disc_spec), &spec.name));
        if let Some(trace) = &trace {
            // Stamp the armed fault plan into the recorder so a later
            // dump shows what was scheduled before what happened.
            if !spec.faults.is_empty() {
                trace.marker(MarkerKind::FaultPlan, spec.faults.len() as u64);
            }
        }
        let arm = self.arm_workers(
            &port,
            &apps,
            &stall,
            &bells,
            spec.discipline,
            cfg,
            disc_spec,
            hub,
            spec.exec,
            trace.as_ref().map(|t| &t.hub),
        );
        let gen_hub = Arc::new(Mutex::new(Arc::clone(&arm.hub)));

        // Frame templates: routable flows, RSS resolved once per flow.
        let flows = FlowSet::routable(FLOWS_PER_RUN, L3FWD_SUBNETS, spec.seed);
        let templates: Arc<Vec<(BytesMut, usize, u32)>> = Arc::new(
            flows
                .flows()
                .iter()
                .map(|t| {
                    let frame =
                        build_udp_frame(Mac::local(1), Mac::local(2), t, &[], MIN_FRAME_NO_FCS);
                    let input = t.rss_input();
                    (frame, port.queue_for(&input), port.rss_hash(&input))
                })
                .collect(),
        );

        let gen_jitter: Arc<Vec<Mutex<Histogram>>> = Arc::new(
            (0..gen_shards)
                .map(|_| Mutex::new(Histogram::latency()))
                .collect(),
        );
        let shared = Arc::new(GenShared {
            stop: AtomicBool::new(false),
            rate_bits: AtomicU64::new(spec.rate_pps.to_bits()),
            stall: Arc::clone(&stall),
        });
        let handles = self.spawn_generators(
            &shared,
            &port,
            &spec.faults,
            &gen_hub,
            &templates,
            &gen_jitter,
            spec.seed,
            gen_shards,
        );

        let name = spec.name.clone();
        let reply = protocol::ok()
            .with("submitted", name.as_str())
            .with("discipline", spec.discipline.label())
            .with("exec", spec.exec.label())
            .with("ring_path", ring_path.label())
            .with("workers", arm.workers_len() as u64)
            .with("gen_shards", gen_shards as u64)
            .with("rate_pps", spec.rate_pps)
            .with("fault_events", spec.faults.len() as u64)
            .with("fault_kinds", spec.faults.distinct_kinds() as u64)
            .with("trace", trace.is_some());
        st.run = Some(RunState {
            name,
            port,
            arm: Some(arm),
            trace,
            gen: Some((shared, handles)),
            gen_shards,
            gen_templates: templates,
            faults: spec.faults,
            seed: spec.seed,
            gen_jitter,
            gen_hub,
            bells,
            apps,
            stall,
        });
        reply
    }

    /// Spawn one generator thread per shard, each owning its slice of
    /// the flow population and producing concurrently onto the port's Rx
    /// rings (submit with `"ring_path": "mpsc"` or `"locked"` for
    /// multi-producer offers on shared rings).
    #[allow(clippy::too_many_arguments)]
    fn spawn_generators(
        &self,
        shared: &Arc<GenShared>,
        port: &Arc<RssPort>,
        plan: &FaultPlan,
        gen_hub: &Arc<Mutex<Arc<TelemetryHub>>>,
        templates: &Arc<Vec<(BytesMut, usize, u32)>>,
        jitter: &Arc<Vec<Mutex<Histogram>>>,
        seed: u64,
        n_shards: usize,
    ) -> Vec<std::thread::JoinHandle<()>> {
        (0..n_shards)
            .map(|shard| {
                let ctx = GenShardCtx {
                    shared: Arc::clone(shared),
                    port: Arc::clone(port),
                    pool: self.pool.clone(),
                    plan: plan.clone(),
                    gen_hub: Arc::clone(gen_hub),
                    templates: Arc::clone(templates),
                    rng: Rng::new(seed ^ 0x0D4E_3019).stream(7 + shard as u64),
                    shard,
                    n_shards,
                    jitter: Arc::clone(jitter),
                };
                std::thread::Builder::new()
                    .name(format!("metronomed-gen{shard}"))
                    .spawn(move || generator(ctx))
                    .expect("spawn generator thread")
            })
            .collect()
    }

    // ---- reconfigure -----------------------------------------------------

    fn reconfigure(&self, spec: ReconfigureSpec) -> Json {
        let mut st = self.state.lock();
        let Some(run) = st.run.as_mut() else {
            return protocol::err("no scenario is running; submit one first");
        };
        // Validate before anything is applied, so an error reply always
        // means "nothing changed". The port persists across re-arms, so
        // its ring path cannot follow a widening generator: concurrent
        // producers on SPSC rings would break the single-producer
        // contract.
        if spec.gen_shards.is_some_and(|g| g > 1) && run.port.rings()[0].path() == RingPath::Spsc {
            return protocol::err(
                "gen_shards > 1 needs a multi-producer ring path and the port persists \
                 across re-arms; drain and submit with \"ring_path\": \"mpsc\" or \"locked\"",
            );
        }
        let mut changed: Vec<&'static str> = Vec::new();

        if let Some(rate) = spec.rate_pps {
            if let Some((shared, _)) = &run.gen {
                shared.rate_bits.store(rate.to_bits(), Ordering::Relaxed);
                changed.push("rate_pps");
            }
        }

        let rearm = spec.discipline.is_some() || spec.m_threads.is_some() || spec.exec.is_some();
        if rearm {
            let old = run.arm.take().expect("running scenario always has an arm");
            let choice = spec.discipline.unwrap_or(old.discipline);
            let m_threads = spec.m_threads.unwrap_or(old.m_threads);
            let exec = spec.exec.unwrap_or(old.exec);
            let (cfg, disc_spec) = match self.worker_shape(choice, m_threads) {
                Ok(pair) => pair,
                Err(e) => {
                    // Invalid request: keep the old arm running untouched.
                    run.arm = Some(old);
                    return protocol::err(e);
                }
            };
            // Re-arm sequence, ordered so no count is ever lost:
            // 1. swap the generator onto the fresh hub (its next mirrored
            // drop lands there), 2. let mid-stall workers fall through,
            // 3. join them — only now is the retired hub quiescent —
            // 4. fold it, 5. spawn the new set over fresh consumer
            // handles, writing into the hub the generator already holds.
            let new_hub = self.hub_for(choice, &cfg, &disc_spec);
            *run.gen_hub.lock() = Arc::clone(&new_hub);
            old.halt.store(true, Ordering::Release);
            let old_hub = Arc::clone(&old.hub);
            let _stats = old.workers.stop();
            st.base.fold_hub(&old_hub);
            let run = st.run.as_mut().expect("checked above");
            // The trace hub persists across re-arms (markers and recent
            // history survive; the fresh workers take recorders over the
            // same slots) — unless the new shape needs more slots than
            // the hub has, in which case it is rebuilt larger.
            let recorders = exec.trace_recorders(&cfg, &disc_spec);
            if let Some(trace) = &run.trace {
                if trace.worker_slots() < recorders {
                    run.trace = Some(TraceArm::new(recorders, &run.name));
                }
            }
            let arm = self.arm_workers(
                &run.port,
                &run.apps,
                &run.stall,
                &run.bells,
                choice,
                cfg,
                disc_spec,
                new_hub,
                exec,
                run.trace.as_ref().map(|t| &t.hub),
            );
            run.arm = Some(arm);
            if spec.discipline.is_some() {
                changed.push("discipline");
            }
            if spec.m_threads.is_some() {
                changed.push("m");
            }
            if spec.exec.is_some() {
                changed.push("exec");
            }
        }

        if let Some(g) = spec.gen_shards {
            let g = g.clamp(1, FLOWS_PER_RUN);
            let run = st.run.as_mut().expect("checked above");
            if g != run.gen_shards {
                // Retire the old generator set (stop + join; shard 0
                // releases confiscated buffers and the stall flag on
                // exit), then respawn at the new width carrying the live
                // rate over. Jitter history folds into the new slot 0 so
                // the exported histogram stays cumulative for the run.
                let rate_bits = match run.gen.take() {
                    Some((old, handles)) => {
                        old.stop.store(true, Ordering::Release);
                        for h in handles {
                            let _ = h.join();
                        }
                        old.rate_bits.load(Ordering::Relaxed)
                    }
                    None => spec
                        .rate_pps
                        .unwrap_or(protocol::DEFAULT_RATE_PPS)
                        .to_bits(),
                };
                let jitter: Arc<Vec<Mutex<Histogram>>> =
                    Arc::new((0..g).map(|_| Mutex::new(Histogram::latency())).collect());
                {
                    let mut base = jitter[0].lock();
                    for shard in run.gen_jitter.iter() {
                        base.merge(&shard.lock());
                    }
                }
                let shared = Arc::new(GenShared {
                    stop: AtomicBool::new(false),
                    rate_bits: AtomicU64::new(rate_bits),
                    stall: Arc::clone(&run.stall),
                });
                let handles = self.spawn_generators(
                    &shared,
                    &run.port,
                    &run.faults,
                    &run.gen_hub,
                    &run.gen_templates,
                    &jitter,
                    run.seed,
                    g,
                );
                run.gen = Some((shared, handles));
                run.gen_shards = g;
                run.gen_jitter = jitter;
            }
            changed.push("gen_shards");
        }

        let run = st.run.as_ref().expect("checked above");
        let arm = run.arm.as_ref().expect("re-armed above");
        // Stamp the reconfigure into the flight recorder so a later dump
        // correlates the marker with the behaviour change around it.
        if let Some(trace) = &run.trace {
            trace.marker(MarkerKind::Reconfigure, changed.len() as u64);
        }
        protocol::ok()
            .with(
                "changed",
                Json::Arr(changed.into_iter().map(Json::from).collect()),
            )
            .with("discipline", arm.discipline.label())
            .with("m", arm.m_threads as u64)
            .with("exec", arm.exec.label())
            .with("gen_shards", run.gen_shards as u64)
            .with(
                "rate_pps",
                run.gen.as_ref().map_or(0.0, |(s, _)| {
                    f64::from_bits(s.rate_bits.load(Ordering::Relaxed))
                }),
            )
    }

    // ---- drain -----------------------------------------------------------

    /// The drain state machine. Idempotent: with nothing running it
    /// reports the (clean) pool audit and `"state": "idle"`.
    fn drain_locked(&self, st: &mut EngineState) -> Json {
        let Some(mut run) = st.run.take() else {
            let (allocs, frees) = self.pool.counters();
            return protocol::ok()
                .with("state", "idle")
                .with("already_drained", true)
                .with("pool_in_use", self.pool.in_use() as u64)
                .with("pool_cached", self.pool.cached() as u64)
                .with("allocs", allocs)
                .with("frees", frees)
                .with(
                    "pool_balanced",
                    self.pool.in_use() == 0 && self.pool.cached() == 0,
                );
        };

        // 1. Stop the generator shards; on exit shard 0 frees confiscated
        //    buffers and clears the stall flag, every shard flushes its
        //    cache.
        if let Some((shared, handles)) = run.gen.take() {
            shared.stop.store(true, Ordering::Release);
            for handle in handles {
                let _ = handle.join();
            }
        }

        // 2. Generation is over, so `accepted` is final; wait for the
        //    workers to catch up, bounded by a grace period.
        let accepted = run.port.total_accepted();
        if let Some(arm) = &run.arm {
            let deadline = Instant::now() + DRAIN_GRACE;
            while arm.hub.total_retrieved() < accepted && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        // 3. Join the workers: counters settle, caches flush.
        let mut stranded = 0u64;
        if let Some(arm) = run.arm.take() {
            arm.halt.store(true, Ordering::Release);
            let hub = Arc::clone(&arm.hub);
            let _stats = arm.workers.stop();
            st.base.fold_hub(&hub);
        }

        // 4. Sweep anything still queued (only possible if the grace
        //    period expired): accepted but never retrieved, counted as
        //    ring drops so conservation stays exact.
        let mut scratch: Vec<Mbuf> = Vec::new();
        for ring in run.port.rings() {
            while ring.pop_burst(&mut scratch, GEN_MAX_BATCH) > 0 {
                stranded += scratch.len() as u64;
                self.pool.free_burst(scratch.drain(..));
            }
        }
        st.base.dropped_ring += stranded;
        st.base.port_offered += run.port.total_offered();
        st.completed += 1;

        // 5. Audit: every buffer home, every packet accounted.
        let (allocs, frees) = self.pool.counters();
        let offered = st.base.port_offered + st.base.dropped_pool + st.base.dropped_fault;
        let dropped = st.base.dropped_ring + st.base.dropped_pool + st.base.dropped_fault;
        let conserved = offered == st.base.retrieved + dropped;
        let pool_balanced = self.pool.in_use() == 0 && self.pool.cached() == 0 && allocs == frees;
        protocol::ok()
            .with("state", "drained")
            .with("scenario", run.name.as_str())
            .with("offered", offered)
            .with("processed", st.base.retrieved)
            .with("dropped", dropped)
            .with("dropped_ring", st.base.dropped_ring)
            .with("dropped_pool", st.base.dropped_pool)
            .with("dropped_fault", st.base.dropped_fault)
            .with("stranded", stranded)
            .with("conserved", conserved)
            .with("pool_in_use", self.pool.in_use() as u64)
            .with("pool_cached", self.pool.cached() as u64)
            .with("allocs", allocs)
            .with("frees", frees)
            .with("pool_balanced", pool_balanced)
    }

    // ---- observability ---------------------------------------------------

    /// One coherent counter snapshot: the live hub plus the cumulative
    /// base, gauges from the live port and pool. This is what both the
    /// `stats` command and the Prometheus endpoint export.
    pub fn snapshot(&self) -> CounterSnapshot {
        let st = self.state.lock();
        let uptime = Nanos(self.started.elapsed().as_nanos() as u64);
        let mut snap = CounterSnapshot::new(uptime);
        let mut port_offered = st.base.port_offered;
        if let Some(run) = &st.run {
            if let Some(arm) = &run.arm {
                arm.hub.fill_snapshot(&mut snap);
                snap.rho = (0..self.cfg.n_queues).map(|q| arm.workers.rho(q)).collect();
            }
            snap.occupancy = run.port.occupancies();
            port_offered += run.port.total_offered();
            // Flight-recorder histograms ride along when tracing is
            // armed, so `/metrics` grows wake-latency / oversleep /
            // scheduler-delay histogram series mid-run.
            if let Some(trace) = &run.trace {
                let dump = trace.hub.dump();
                snap.wake_latency = Some(dump.wake_latency());
                snap.oversleep_hist = Some(dump.oversleep());
                snap.sched_delay = Some(dump.sched_delay());
            }
            // Generator tick lateness, merged across the producer shards
            // (`metronome_gen_jitter_seconds` on /metrics).
            let mut jitter = Histogram::latency();
            for shard in run.gen_jitter.iter() {
                jitter.merge(&shard.lock());
            }
            snap.gen_jitter = Some(jitter);
        }
        snap.retrieved += st.base.retrieved;
        snap.wakeups += st.base.wakeups;
        snap.busy_nanos += st.base.busy_nanos;
        snap.sleep_nanos += st.base.sleep_nanos;
        snap.oversleep_nanos += st.base.oversleep_nanos;
        snap.dropped_ring += st.base.dropped_ring;
        snap.dropped_pool += st.base.dropped_pool;
        snap.dropped_fault += st.base.dropped_fault;
        snap.offered = port_offered + snap.dropped_pool + snap.dropped_fault;
        snap.pool_in_use = self.pool.in_use() as u64;
        snap.pool_cached = self.pool.cached() as u64;
        snap
    }

    /// The Prometheus text exposition of [`ServiceEngine::snapshot`]
    /// (what the HTTP listener serves on `/metrics`).
    pub fn prometheus_text(&self) -> String {
        render(&snapshot_metrics(&self.snapshot()))
    }

    /// The `/healthz` reply body: liveness plus coarse state, cheap
    /// enough for an aggressive prober (no counter walk, no port poll).
    pub fn health_json(&self) -> Json {
        let st = self.state.lock();
        Json::obj()
            .with("status", "ok")
            .with("state", self.state_label_locked(&st))
            .with("uptime_ms", self.started.elapsed().as_millis() as u64)
            .with("completed_runs", st.completed)
    }

    /// The `trace` command: dump the running scenario's flight recorder.
    /// The summary (per-ring event/drop counts, histogram quantiles) is
    /// always inline; the full Chrome trace-event JSON goes inline when
    /// no `path` was named, else to the file at `path`.
    fn trace_reply(&self, path: Option<String>) -> Json {
        let st = self.state.lock();
        let Some(run) = st.run.as_ref() else {
            return protocol::err("no scenario is running; submit one first");
        };
        let Some(trace) = &run.trace else {
            return protocol::err(
                "tracing is disabled for this scenario (it was submitted with \"trace\": false)",
            );
        };
        // Publish any still-buffered control markers; worker recorders
        // flush opportunistically, so their rings may trail by up to one
        // flush interval — the dump is a snapshot, not a barrier.
        trace.control.lock().flush();
        let dump = trace.hub.dump();
        let mut reply = protocol::ok()
            .with("scenario", run.name.as_str())
            .with("workers", dump.workers.len() as u64)
            .with("events", dump.total_events() as u64)
            .with("dropped_events", dump.total_dropped())
            .with("summary", dump.summary_json());
        match path {
            Some(p) => {
                let chrome = dump.chrome_json().render();
                if let Err(e) = std::fs::write(&p, chrome.as_bytes()) {
                    return protocol::err(format!("cannot write {p:?}: {e}"));
                }
                reply.push("written", p.as_str());
                reply.push("bytes", chrome.len() as u64);
            }
            None => {
                reply.push("chrome", dump.chrome_json());
            }
        }
        reply
    }

    fn stats_reply(&self) -> Json {
        let snap = self.snapshot();
        let st = self.state.lock();
        // Effective backend of the live arm (post-clamp shard count from
        // the worker set itself, not the requested figure); idle daemons
        // report "none" / 0 so the fields are always present.
        let (exec_backend, shards) =
            st.run
                .as_ref()
                .and_then(|r| r.arm.as_ref())
                .map_or(("none", 0u64), |arm| match arm.workers.exec() {
                    ExecBackend::Threads => ("threads", 0),
                    ExecBackend::Async { shards } => ("async", shards as u64),
                });
        let mut reply = protocol::ok()
            .with("state", self.state_label_locked(&st))
            .with("uptime_s", snap.at.as_secs_f64())
            .with("uptime_ms", snap.at.as_nanos() / 1_000_000)
            .with("exec_backend", exec_backend)
            .with("shards", shards)
            .with(
                "gen_shards",
                st.run.as_ref().map_or(0u64, |r| r.gen_shards as u64),
            )
            .with("completed_runs", st.completed)
            .with("offered", snap.offered)
            .with("processed", snap.retrieved)
            .with(
                "dropped",
                snap.dropped_ring + snap.dropped_pool + snap.dropped_fault,
            )
            .with("dropped_ring", snap.dropped_ring)
            .with("dropped_pool", snap.dropped_pool)
            .with("dropped_fault", snap.dropped_fault)
            .with("wakeups", snap.wakeups)
            .with("busy_nanos", snap.busy_nanos)
            .with("pool_in_use", snap.pool_in_use)
            .with("pool_cached", snap.pool_cached)
            .with(
                "occupancy",
                Json::Arr(snap.occupancy.iter().map(|&o| o.into()).collect()),
            );
        if let Some(run) = &st.run {
            reply.push("scenario", run.name.as_str());
            reply.push("trace", run.trace.is_some());
            if let Some(arm) = &run.arm {
                reply.push("discipline", arm.discipline.label());
                reply.push("m", arm.m_threads as u64);
                reply.push("exec", arm.exec.label());
            }
            if let Some((shared, _)) = &run.gen {
                reply.push(
                    "rate_pps",
                    f64::from_bits(shared.rate_bits.load(Ordering::Relaxed)),
                );
                reply.push("stalled", shared.stall.load(Ordering::Relaxed));
            }
        }
        reply
    }

    fn state_label_locked(&self, st: &EngineState) -> &'static str {
        if self.is_shutdown() {
            "shutdown"
        } else if st.run.is_some() {
            "running"
        } else {
            "idle"
        }
    }
}

impl Arm {
    fn workers_len(&self) -> usize {
        match self.discipline {
            DisciplineChoice::Metronome => self.m_threads,
            _ => self.hub.n_queues(),
        }
    }
}

/// One generator shard thread: MoonGen's role as a long-running service,
/// split `n_shards` ways by flow. Every tick the shard derives its batch
/// from the live rate × the plan's spike factor (divided evenly across
/// shards), suppresses jitter-burst losses with its own RNG stream, and
/// offers the rest through RSS via a [`QueueScatter`] bucket sort —
/// mirroring every drop into the current hub by cause. Shard 0
/// additionally realizes the run-wide fault state (stall flag, pool
/// confiscation): a single owner keeps those counts exact. On exit
/// (drain or a `gen_shards` re-arm) every shard releases what it holds
/// so the pool audit balances.
fn generator(ctx: GenShardCtx) {
    let GenShardCtx {
        shared,
        port,
        pool,
        plan,
        gen_hub,
        templates,
        mut rng,
        shard,
        n_shards,
        jitter,
    } = ctx;
    let clock = WallClock::start();
    let population = pool.population();
    let mut cache = pool.cache(256);
    let mut confiscated: Vec<Mbuf> = Vec::new();
    let mut carry = 0.0f64;
    let mut last = clock.now();
    let mut seq = 0usize;
    // Per-shard batch cap so the aggregate pool demand during catch-up
    // stays bounded by `GEN_MAX_BATCH` no matter how many shards run.
    let shard_batch = (GEN_MAX_BATCH / n_shards).max(1);
    let mut blanks: Vec<Mbuf> = Vec::with_capacity(shard_batch);
    let mut scatter = QueueScatter::new(port.n_queues());
    // This shard's slice of the flow population. Flow → shard is a pure
    // function of the template index, so every flow has exactly one
    // producer and per-flow order is a single-producer property.
    let my: Vec<usize> = (0..templates.len())
        .filter(|i| i % n_shards == shard)
        .collect();
    let jitter = &jitter[shard];
    // At the default 50 µs timer slack every tick oversleeps by ≈56 µs and
    // the jitter histogram records slack rather than pacing.
    lower_timer_slack();

    while !shared.stop.load(Ordering::Acquire) {
        std::thread::sleep(GEN_TICK);
        let now = clock.now();

        // Fault state first, so this tick's packets see this tick's
        // world. Shard 0 owns it; the others read the same plan for
        // their rate factor and jitter windows.
        if shard == 0 {
            shared.stall.store(plan.stalled(now), Ordering::Release);
            let want = (plan.starve_fraction(now) * population as f64) as usize;
            match want.cmp(&confiscated.len()) {
                std::cmp::Ordering::Greater => {
                    // Starvation window (deepening): confiscate straight
                    // from the shared freelist, bypassing the cache, so
                    // the count is exact.
                    let _ = pool.alloc_burst(want - confiscated.len(), &mut confiscated);
                }
                std::cmp::Ordering::Less => {
                    pool.free_burst(confiscated.drain(want..));
                }
                std::cmp::Ordering::Equal => {}
            }
        }

        let rate = f64::from_bits(shared.rate_bits.load(Ordering::Relaxed)).max(0.0)
            * plan.rate_factor(now)
            / n_shards as f64;
        let dt = now.saturating_sub(last);
        last = now;
        // Generator jitter: how far past its nominal period this tick
        // fired (scheduler preemption, a long previous tick). Recorded
        // per shard, merged into `metronome_gen_jitter_seconds`.
        jitter
            .lock()
            .record(dt.as_nanos().saturating_sub(GEN_TICK.as_nanos() as u64));
        let exact = rate * dt.as_secs_f64() + carry;
        let mut n = exact.floor().max(0.0) as usize;
        carry = exact - n as f64;
        if n > shard_batch {
            n = shard_batch;
            carry = 0.0;
        }
        if n == 0 {
            continue;
        }

        let jitter_drop = plan.jitter_at(now).map_or(0.0, |(_, p)| p);
        let hub = Arc::clone(&gen_hub.lock());
        cache.alloc_burst(n, &mut blanks);
        for _ in 0..n {
            let (frame, q, hash) = &templates[my[seq % my.len()]];
            seq += 1;
            // Jitter-burst suppression: offered load that never reaches
            // the NIC, counted under its own cause so fault windows
            // reconcile exactly.
            if jitter_drop > 0.0 && rng.chance(jitter_drop) {
                hub.dropped(*q, DropCause::Fault, 1);
                continue;
            }
            match blanks.pop() {
                Some(mut mbuf) => {
                    mbuf.refill(frame);
                    mbuf.queue = *q as u16;
                    mbuf.rss_hash = *hash;
                    mbuf.arrival = now;
                    scatter.push(*q, mbuf);
                }
                // Pool exhausted (possibly by a starvation window): a
                // drop cause of its own.
                None => hub.dropped(*q, DropCause::Pool, 1),
            }
        }
        // Blanks not consumed (jitter suppressions) go straight back.
        cache.free_burst(blanks.drain(..));
        scatter.dispatch(|q, frames| {
            port.offer_burst(q, frames);
            // Whatever the ring rejected is tail-dropped; recycle.
            hub.dropped(q, DropCause::Ring, frames.len() as u64);
            cache.free_burst(frames.drain(..));
        });
    }

    // Drain handshake: release everything this thread holds so the
    // post-drain audit sees the pool whole and the workers unstalled.
    if shard == 0 {
        shared.stall.store(false, Ordering::Release);
    }
    pool.free_burst(confiscated.drain(..));
    // `cache` flushes on drop.
}
