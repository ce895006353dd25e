//! Microbenchmarks of single layers through their public functions.
//!
//! Each bench measures one repetition and reports per-unit costs; the
//! harness runs the benches round-robin (the starting bench rotates every
//! round) until the time budget is spent, and reports each cost's median
//! over rounds. Interleaving spreads host noise over every bench instead
//! of letting one burst of it land on a single layer.

use crate::cpu::thread_cpu;
use metronome_apps::PacketProcessor;
use metronome_core::{MetronomeConfig, PreciseSleeper};
use metronome_dpdk::{Mbuf, Mempool, MempoolCache, QueueScatter, RingConsumer, RssPort};
use metronome_net::headers::{build_udp_frame, Mac, MIN_FRAME_NO_FCS};
use metronome_runtime::realtime_runner::processor_for;
use metronome_runtime::Scenario;
use metronome_sim::stats::Histogram;
use metronome_sim::{Nanos, Rng};
use metronome_traffic::{ArrivalProcess, FlowSet};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Destination subnets of the flow population (the runner's l3fwd routes).
const SUBNETS: usize = 4;
/// Generator batch, as the realtime runner requests from its pool cache.
const GEN_BATCH: usize = 256;
/// Retrieval burst.
const BURST: usize = 32;
/// Rounds run even when the budget is spent sooner.
const MIN_ROUNDS: usize = 5;

/// Per-unit costs keyed by metric name, one sample per round.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

trait Bench {
    fn round(&mut self, out: &mut Samples);
}

fn push(out: &mut Samples, key: &'static str, v: f64) {
    out.entry(key).or_default().push(v);
}

fn ns_per(elapsed: Duration, units: usize) -> f64 {
    elapsed.as_nanos() as f64 / units as f64
}

/// Template frames and their RSS queues, as the runner builds them.
fn templates(port: &RssPort, seed: u64) -> Vec<(Vec<u8>, usize)> {
    FlowSet::routable(256, SUBNETS, seed)
        .flows()
        .iter()
        .map(|t| {
            let frame = build_udp_frame(Mac::local(1), Mac::local(2), t, &[], MIN_FRAME_NO_FCS);
            (frame.to_vec(), port.queue_for(&t.rss_input()))
        })
        .collect()
}

/// The generator-to-worker chain of the `dpdk` layer, one stage timed at
/// a time: pool alloc (generator cache), scatter, ring offer, ring pop,
/// pool free (worker cache).
struct DpdkChain {
    gen: MempoolCache,
    worker: MempoolCache,
    scatter: QueueScatter,
    port: RssPort,
    consumers: Vec<RingConsumer>,
    templates: Vec<(Vec<u8>, usize)>,
    blanks: Vec<Mbuf>,
    staged: Vec<Vec<Mbuf>>,
    bursts: Vec<Vec<Mbuf>>,
    spare: Vec<Vec<Mbuf>>,
    seq: usize,
}

impl DpdkChain {
    fn new(n_queues: usize, ring_size: usize, seed: u64) -> DpdkChain {
        let pool = Mempool::new(8 * GEN_BATCH + 4 * BURST, 2048);
        let port = RssPort::new(n_queues, ring_size.max(GEN_BATCH));
        DpdkChain {
            gen: pool.cache(GEN_BATCH),
            worker: pool.cache(BURST),
            scatter: QueueScatter::new(n_queues),
            consumers: port.consumers(),
            templates: templates(&port, seed),
            port,
            blanks: Vec::with_capacity(GEN_BATCH),
            staged: (0..n_queues)
                .map(|_| Vec::with_capacity(GEN_BATCH))
                .collect(),
            bursts: Vec::with_capacity(GEN_BATCH),
            spare: (0..GEN_BATCH).map(|_| Vec::with_capacity(BURST)).collect(),
            seq: 0,
        }
    }
}

impl Bench for DpdkChain {
    fn round(&mut self, out: &mut Samples) {
        const BATCHES: usize = 8;
        let mut t = [Duration::ZERO; 5];
        for _ in 0..BATCHES {
            let t0 = Instant::now();
            let got = self.gen.alloc_burst(GEN_BATCH, &mut self.blanks);
            let t1 = Instant::now();
            assert_eq!(got, GEN_BATCH, "bench pool exhausted");
            let mut batch: Vec<(usize, Mbuf)> = Vec::with_capacity(GEN_BATCH);
            for mut mbuf in self.blanks.drain(..) {
                let (frame, q) = &self.templates[self.seq % self.templates.len()];
                self.seq += 1;
                mbuf.refill(frame);
                mbuf.queue = *q as u16;
                batch.push((*q, mbuf));
            }
            let t2 = Instant::now();
            for (q, mbuf) in batch {
                self.scatter.push(q, mbuf);
            }
            let staged = &mut self.staged;
            self.scatter.dispatch(|q, frames| staged[q].append(frames));
            let t3 = Instant::now();
            for (q, frames) in self.staged.iter_mut().enumerate() {
                if !frames.is_empty() {
                    self.port.offer_burst(q, frames);
                    assert!(frames.is_empty(), "bench ring overflowed");
                }
            }
            let t4 = Instant::now();
            for c in &self.consumers {
                loop {
                    let mut burst = self.spare.pop().expect("spare burst vectors");
                    if c.pop_burst(&mut burst, BURST) == 0 {
                        self.spare.push(burst);
                        break;
                    }
                    self.bursts.push(burst);
                }
            }
            let t5 = Instant::now();
            for mut burst in self.bursts.drain(..) {
                self.worker.free_burst(burst.drain(..));
                self.spare.push(burst);
            }
            let t6 = Instant::now();
            t[0] += t1 - t0;
            t[1] += t3 - t2;
            t[2] += t4 - t3;
            t[3] += t5 - t4;
            t[4] += t6 - t5;
        }
        let pkts = BATCHES * GEN_BATCH;
        push(out, "dpdk.pool_alloc_ns_per_pkt", ns_per(t[0], pkts));
        push(out, "dpdk.scatter_ns_per_pkt", ns_per(t[1], pkts));
        push(out, "dpdk.ring_offer_ns_per_pkt", ns_per(t[2], pkts));
        push(out, "dpdk.ring_pop_ns_per_pkt", ns_per(t[3], pkts));
        push(out, "dpdk.pool_free_ns_per_pkt", ns_per(t[4], pkts));
    }
}

/// `process_burst` of one application over pre-filled 32-frame bursts.
struct AppBench {
    key: &'static str,
    proc: Box<dyn PacketProcessor>,
    pool: Mempool,
    templates: Vec<(Vec<u8>, usize)>,
    bursts: Vec<Vec<Mbuf>>,
    seq: usize,
}

impl AppBench {
    fn new(key: &'static str, app: &str, n_bursts: usize, seed: u64) -> AppBench {
        let pool = Mempool::new(n_bursts * BURST, 2048);
        let bursts = (0..n_bursts)
            .map(|_| {
                let mut b = Vec::with_capacity(BURST);
                pool.alloc_burst(BURST, &mut b);
                b
            })
            .collect();
        AppBench {
            key,
            proc: processor_for(app).expect("app has a functional processor"),
            templates: templates(&RssPort::new(1, 64), seed),
            pool,
            bursts,
            seq: 0,
        }
    }
}

impl Bench for AppBench {
    fn round(&mut self, out: &mut Samples) {
        // Apps rewrite frames (TTL, ESP encapsulation): refill untimed.
        for burst in &mut self.bursts {
            for mbuf in burst.iter_mut() {
                mbuf.refill(&self.templates[self.seq % self.templates.len()].0);
                self.seq += 1;
            }
        }
        let t0 = Instant::now();
        for burst in &mut self.bursts {
            black_box(self.proc.process_burst(burst));
        }
        let pkts = self.bursts.len() * BURST;
        push(out, self.key, ns_per(t0.elapsed(), pkts));
    }
}

impl Drop for AppBench {
    fn drop(&mut self) {
        for burst in &mut self.bursts {
            self.pool.free_burst(burst.drain(..));
        }
    }
}

/// `Histogram::record` of latency-like values.
struct HistBench {
    values: Vec<u64>,
}

impl Bench for HistBench {
    fn round(&mut self, out: &mut Samples) {
        let mut h = Histogram::latency();
        let t0 = Instant::now();
        for &v in &self.values {
            h.record(black_box(v));
        }
        let elapsed = t0.elapsed();
        black_box(&h);
        push(
            out,
            "sim.histogram_record_ns",
            ns_per(elapsed, self.values.len()),
        );
    }
}

/// The workload's arrival process, drained with timestamps.
struct ArrivalBench {
    source: Box<dyn ArrivalProcess>,
    step: Nanos,
    until: Nanos,
    stamps: Vec<Nanos>,
}

impl Bench for ArrivalBench {
    fn round(&mut self, out: &mut Samples) {
        self.stamps.clear();
        self.until += self.step;
        let t0 = Instant::now();
        let n = self.source.drain(self.until, Some(&mut self.stamps));
        let elapsed = t0.elapsed();
        push(
            out,
            "traffic.arrivals_ns_per_pkt",
            ns_per(elapsed, n.max(1) as usize),
        );
    }
}

/// Thread CPU over wall across `PreciseSleeper::sleep`: equal wall time at
/// `TS` (many short sleeps) and at `TL` (one long sleep).
struct SleepBench {
    sleeper: PreciseSleeper,
    ts: Duration,
    tl: Duration,
}

impl Bench for SleepBench {
    fn round(&mut self, out: &mut Samples) {
        let short_sleeps = (self.tl.as_nanos() / self.ts.as_nanos().max(1)).max(1);
        let cpu0 = thread_cpu();
        let t0 = Instant::now();
        for _ in 0..short_sleeps {
            self.sleeper.sleep(self.ts);
        }
        self.sleeper.sleep(self.tl);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = (thread_cpu() - cpu0).as_secs_f64();
        push(out, "core.sleep_cpu_ratio", cpu / wall);
    }
}

/// Run every layer's microbenchmark for about `budget`, interleaved, and
/// return each cost's median over rounds. The sleep bench uses the
/// configuration's `V̄` for `TS` and its `TL`.
pub fn run(sc: &Scenario, cfg: &MetronomeConfig, budget: Duration) -> Vec<(&'static str, f64)> {
    let as_duration = |n: Nanos| Duration::from_nanos(n.as_nanos());
    let seed = sc.seed;
    let mut rng = Rng::new(seed).stream(0xBE);
    let values = (0..16_384)
        .map(|_| (1_000u64 << rng.below(10)) + rng.below(1_000))
        .collect();
    let source = sc
        .traffic
        .build(1, &sc.nic, seed)
        .pop()
        .expect("one source");
    let rate = sc.traffic.nominal_pps(Nanos::ZERO).max(1.0);
    let mut benches: Vec<Box<dyn Bench>> = vec![
        Box::new(DpdkChain::new(sc.n_queues, sc.ring_size, seed)),
        Box::new(AppBench::new(
            "apps.l3fwd_ns_per_pkt",
            "l3fwd-lpm",
            64,
            seed,
        )),
        Box::new(AppBench::new(
            "apps.ipsec_ns_per_pkt",
            "ipsec-secgw-out",
            8,
            seed,
        )),
        Box::new(HistBench { values }),
        Box::new(ArrivalBench {
            source,
            step: Nanos::from_secs_f64(8_192.0 / rate),
            until: Nanos::ZERO,
            stamps: Vec::with_capacity(16_384),
        }),
        Box::new(SleepBench {
            sleeper: PreciseSleeper::default(),
            ts: as_duration(cfg.v_target),
            tl: as_duration(cfg.t_long),
        }),
    ];
    let mut samples = Samples::new();
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed() < budget {
        let n = benches.len();
        for i in 0..n {
            benches[(round + i) % n].round(&mut samples);
        }
        round += 1;
    }
    samples
        .into_iter()
        .map(|(k, v)| (k, crate::median(&v)))
        .collect()
}
