//! # metronome-repro — reproduction of *Metronome* (CoNEXT 2020)
//!
//! Faltelli, Belocchi, Quaglia, Pontarelli, Bianchi: **"Metronome: adaptive
//! and precise intermittent packet retrieval in DPDK"** — reproduced as a
//! pure-Rust workspace. This facade crate re-exports every layer; see
//! `README.md` for the architecture tour, `DESIGN.md` for the system
//! inventory and experiment index, and `EXPERIMENTS.md` for paper-vs-
//! measured results.
//!
//! ## Layers
//!
//! * [`sim`] — deterministic discrete-event engine (time, events, PRNG,
//!   statistics).
//! * [`net`] — protocol substrate: headers, Toeplitz RSS, DIR-24-8 LPM,
//!   exact match, AES-128-CBC + ESP.
//! * [`dpdk`] — DPDK-like substrate: mbufs, mempools, descriptor rings,
//!   NIC models (X520/XL710).
//! * [`os`] — OS model: CFS-like scheduler, hr_sleep/nanosleep, governors,
//!   RAPL-style power.
//! * [`traffic`] — MoonGen-like workloads: CBR (paced and bursty),
//!   Poisson, ramps, the Table III unbalanced trace.
//! * [`core`] — **the paper's contribution**: trylock racing,
//!   primary/backup timeouts, the analytical model (eqs. 1–14), the
//!   adaptive `TS` controller, and a real-`std::thread` runtime.
//! * [`apps`] — l3fwd, IPsec gateway, FloWatcher, the ferret co-tenant.
//! * [`runtime`] — whole-system scenarios: Metronome vs static DPDK vs
//!   XDP under any workload, with CPU/power/latency/loss reporting.
//! * [`telemetry`] — windowed time-series metrics on both backends:
//!   lock-light counters, a fixed-interval sampler, CSV/JSON/Prometheus
//!   exporters.
//!
//! ## Quick start
//!
//! Simulated (deterministic, no threads):
//!
//! ```
//! use metronome_repro::runtime::{run, Scenario, TrafficSpec};
//! use metronome_repro::core::MetronomeConfig;
//! use metronome_repro::sim::Nanos;
//!
//! let scenario = Scenario::metronome(
//!     "demo",
//!     MetronomeConfig::default(),
//!     TrafficSpec::CbrGbps(10.0),
//! )
//! .with_duration(Nanos::from_millis(200));
//! let report = run(&scenario);
//! assert!(report.loss < 1e-3);
//! assert!(report.cpu_total_pct < 100.0); // line rate on less than a core
//! ```
//!
//! Real threads: see [`core::WorkerSet::start`] and
//! `examples/quickstart.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use metronome_apps as apps;
pub use metronome_core as core;
pub use metronome_dpdk as dpdk;
pub use metronome_net as net;
pub use metronome_os as os;
pub use metronome_runtime as runtime;
pub use metronome_sim as sim;
pub use metronome_telemetry as telemetry;
pub use metronome_traffic as traffic;
