//! Live deployment mode for the MHRP reproduction: the same sans-io
//! protocol cores that run inside the deterministic simulator, driven
//! as real UDP endpoints on 127.0.0.1.
//!
//! The simulator proves properties of the *protocol under a model*;
//! this crate closes the loop by executing the identical state machines
//! over an actual network substrate and machine-checking that nothing
//! about the model was leaking into the protocol. Three pieces:
//!
//! * **Agents** ([`agent`]) — every Figure 1 node (routers, home/foreign
//!   agents, the correspondent S, the mobile hosts) becomes a
//!   [`netsim::NodeHarness`] on an OS thread of its own, fed by real
//!   sockets via the datagram framing in [`wire`], with timers driven by
//!   a wall [`clock`], and a [`switchboard`] playing the role of
//!   broadcast segments and radio cells.
//! * **The shared scenario** ([`scenario`]) — one description of the
//!   topology, probe timetable and mobility plan that both runtimes
//!   compile ([`sim::run_sim`] into a `World`, [`run::run_live`] into a
//!   socket fleet).
//! * **Cross-validation** ([`outcome`]) — per-probe hop sequences are
//!   reconstructed from structured telemetry on both sides and compared
//!   exactly; SLOs are evaluated with the same
//!   [`workload::SloThresholds`] machinery the soak suite uses.
//!
//! See DESIGN.md §11 for the trait surface and what "determinism"
//! means across the sim/live boundary, and `src/bin/mhrp-live.rs` for
//! the runnable harness (`cargo run --release -p live --bin mhrp-live
//! -- --agents 4`).

#![deny(missing_docs)]

pub mod agent;
pub mod clock;
pub mod outcome;
pub mod run;
pub mod scenario;
pub mod sim;
pub mod switchboard;
pub mod wire;

pub use agent::{Agent, AgentReport, Cmd, LiveIo, Role};
pub use clock::WallClock;
pub use outcome::{cross_validate, CrossValidation, ProbeOutcome, RunOutcome};
pub use run::run_live;
pub use scenario::{LoopbackScenario, ProbePoint, PROBE_LEN, PROBE_PORT};
pub use sim::run_sim;
pub use switchboard::{Port, Switchboard};
pub use wire::{LiveDatagram, WireError};
