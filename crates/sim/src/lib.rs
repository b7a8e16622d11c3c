//! Simulation substrate for the Compressionless Routing reproduction.
//!
//! This crate holds the small, dependency-light building blocks shared by
//! every other crate in the workspace:
//!
//! * [`ids`] — strongly-typed identifiers for nodes, links, ports,
//!   virtual channels and messages ([`NodeId`], [`LinkId`], …).
//! * [`cycle`] — the [`Cycle`] newtype used as the simulation clock.
//! * [`rng`] — deterministic, splittable random-number generation
//!   ([`SimRng`], backed by an in-repo ChaCha8 keystream): every
//!   experiment in the reproduction is exactly reproducible from a
//!   single 64-bit seed.
//! * [`json`] — a minimal JSON value/writer/parser for result dumps.
//! * [`check`] — a seeded property-testing mini-framework with
//!   shrinking, used by the workspace's `tests/properties.rs` suites.
//! * [`pool`] — a scoped task pool, used by the experiment harness to
//!   run sweep points in parallel while keeping results in submission
//!   order (bit-identical to serial), and the persistent worker team
//!   ([`pool::Team`]) the sharded stepper fans out on.
//! * [`sched`] — generation-stamped active sets ([`sched::ActiveSet`])
//!   backing the network's skip-the-idle cycle scheduler.
//! * [`shard`] — the spatial partition of one simulation into
//!   contiguous node-id ranges ([`shard::Plan`]) and the resolution of
//!   the shard count ([`shard::effective_shards`]).
//! * [`trace`] — typed protocol events ([`trace::Event`]) behind a
//!   bounded ring-buffer sink ([`trace::TraceSink`]) that is a no-op
//!   when disabled; the observability layer of the protocol crates.
//!
//! The crate depends on nothing outside `std` — it is the bottom of a
//! fully hermetic, offline-buildable workspace.
//!
//! # Examples
//!
//! ```
//! use cr_sim::{Cycle, NodeId, Rng, SimRng};
//!
//! let mut rng = SimRng::from_seed(42);
//! let node = NodeId::new(rng.gen_range(0..64u32));
//! assert!(node.index() < 64);
//!
//! let t = Cycle::ZERO + 10;
//! assert_eq!(t.as_u64(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chacha;
pub mod check;
pub mod cycle;
pub mod ids;
pub mod json;
pub mod pool;
pub mod rng;
pub mod sched;
pub mod shard;
pub mod trace;

pub use cycle::Cycle;
pub use ids::{LinkId, MessageId, NodeId, PortId, VcId};
pub use json::Json;
pub use rng::{Rng, SimRng};
