//! # metronome-dpdk — the DPDK-like substrate
//!
//! A from-scratch stand-in for the slice of DPDK the Metronome paper
//! depends on. Real DPDK binds physical NICs via userspace drivers; this
//! crate reproduces the *interfaces and semantics* that Metronome's
//! algorithm and the paper's evaluation observe:
//!
//! * [`mbuf::Mbuf`] — packet buffers with Rx metadata (port, queue,
//!   RSS hash, arrival timestamp).
//! * [`mempool::Mempool`] — bounded pre-allocated buffer pools with
//!   exhaustion accounting: `Arc`-shared handles, atomic counters, and
//!   burst alloc/free that take the freelist lock once per burst (the
//!   per-lcore-cache amortization of `rte_mempool`).
//! * [`ring::RxRingModel`] — the allocation-free Rx descriptor-ring
//!   occupancy model the discrete-event simulator uses, property-tested
//!   to agree with [`ring::Ring`], a functional ring with burst dequeue
//!   and tail-drop.
//! * [`nic`] — framing math (64 B ⇒ 14.88 Mpps at 10 G) and device
//!   profiles (X520, XL710 with its 37 Mpps silicon cap).
//! * [`random::RteRand`] — the lock-free shared PRNG backup threads use to
//!   pick their next queue (paper Appendix II).
//! * [`shared_ring`] — the concurrent Rx side for the real-thread
//!   pipeline: [`shared_ring::SharedRing`] (bounded mbuf ring with
//!   tail-drop accounting and `offer_burst`/`pop_burst` batch APIs that
//!   hand rejected buffers back for recycling, lock-free SPSC/MPSC fast
//!   paths and a locked fallback) and [`shared_ring::RssPort`] (`N`
//!   rings behind one Toeplitz hasher).
//! * [`fastring`] — the lock-free bounded rings behind those fast paths
//!   ([`fastring::SpscRing`], [`fastring::MpscRing`]), `rte_ring`'s
//!   batched acquire/release head/tail design.
//! * [`scatter::QueueScatter`] — the generator-side scatter arena: one
//!   stable counting sort maps a produced batch onto per-queue bursts in
//!   `O(batch + touched_queues)`, independent of the queue count.

#![warn(missing_docs)]
// Everything except `fastring` is unsafe-free. That one module holds the
// `rte_ring`-style lock-free rings, whose slot ownership argument the
// borrow checker cannot express; its invariants are documented inline and
// it alone carries `#![allow(unsafe_code)]`.
#![deny(unsafe_code)]

pub mod fastring;
pub mod mbuf;
pub mod mempool;
pub mod nic;
pub mod random;
pub mod ring;
pub mod scatter;
pub mod shared_ring;

pub use mbuf::Mbuf;
pub use mempool::{Mempool, MempoolCache, MempoolStats};
pub use nic::NicProfile;
pub use random::RteRand;
pub use ring::{Ring, RxRingModel};
pub use scatter::QueueScatter;
pub use shared_ring::{RingConsumer, RingPath, RssPort, SharedRing};
