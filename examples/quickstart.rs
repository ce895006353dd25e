//! Quickstart: Metronome on real threads.
//!
//! Runs the paper's Listing 2 loop on actual `std::thread` workers over
//! in-process lock-free queues: M = 3 threads share one Rx queue through a
//! CMPXCHG trylock, the winner drains, everyone sleeps adaptive timeouts
//! through the spin-assisted precise sleeper. A producer thread plays the
//! NIC, pushing packets at a configurable rate.
//!
//! ```text
//! cargo run --release --example quickstart [pps] [seconds]
//! ```

use crossbeam::queue::ArrayQueue;
use metronome_repro::core::{WorkerSet, WorkerSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let mut args = std::env::args().skip(1);
    let pps: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(200_000);
    let seconds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(3);

    println!("Metronome quickstart: {pps} pps for {seconds} s, M = 3 threads, 1 queue");

    let queues = vec![Arc::new(ArrayQueue::<u64>::new(4096))];
    // Metronome on std::thread workers: M = 3, V̄ = 10 µs, TL = 500 µs.
    let spec = WorkerSpec::default();

    let m = WorkerSet::start(spec, queues.clone(), |_worker| {
        |_queue: usize, burst: &mut Vec<u64>| {
            // A real application would forward/inspect the burst here (the
            // worker hands over each drained burst in one call, DPDK-style).
            for packet in burst.drain(..) {
                std::hint::black_box(packet);
            }
        }
    });

    // Give the workers a moment to spawn before offering load, like a NIC
    // coming up after the app's EAL init.
    std::thread::sleep(Duration::from_millis(100));

    // Producer: paced pushes at the requested rate, in bursts of 32 like a
    // NIC DMA engine.
    let stop = Arc::new(AtomicBool::new(false));
    let producer = {
        let q = Arc::clone(&queues[0]);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let burst = 32u64;
            let gap = Duration::from_nanos(1_000_000_000 * burst / pps.max(1));
            let mut seq = 0u64;
            let mut dropped = 0u64;
            let mut next = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..burst {
                    if q.push(seq).is_err() {
                        dropped += 1;
                    }
                    seq += 1;
                }
                next += gap;
                while Instant::now() < next {
                    std::hint::spin_loop();
                }
            }
            (seq, dropped)
        })
    };

    for s in 1..=seconds {
        std::thread::sleep(Duration::from_secs(1));
        println!(
            "  t={s:2}s  processed={:9}  rho={:.3}  TS={}",
            m.processed(0),
            m.rho(0),
            m.ts(0),
        );
    }

    stop.store(true, Ordering::Relaxed);
    let (offered, q_dropped) = producer.join().expect("producer");
    std::thread::sleep(Duration::from_millis(50)); // drain the tail
    let stats = m.stop();

    println!("\n--- results -------------------------------------------");
    println!("offered:        {offered}");
    println!("queue drops:    {q_dropped}");
    println!("processed:      {}", stats.total_processed());
    println!("busy tries:     {}", stats.total_busy_tries());
    println!("final rho:      {:.4}", stats.rho[0]);
    println!("final TS:       {}", stats.ts[0]);
    for (i, (w, won)) in stats.wakes.iter().zip(&stats.races_won).enumerate() {
        println!("thread {i}: wakes={w} races_won={won}");
    }
    let loss = q_dropped as f64 / offered.max(1) as f64;
    println!(
        "loss: {:.4}% — the sleep&wake loop kept up with the load using \
         sleeps instead of busy polling",
        loss * 100.0
    );
}
