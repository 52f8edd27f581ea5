//! td-server: the overload-safe serving front-end.
//!
//! Everything upstream of this crate computes answers; this crate decides
//! *which* requests get to compute and *how much* they may spend, so that
//! overload degrades service along a typed, observable ladder instead of
//! collapsing it:
//!
//! ```text
//! submit(s, d, t, deadline)
//!    │  admission (O(µs)): shutdown / expired deadline / shedding mode
//!    ▼
//! bounded queue ──▶ N workers, each: grab ▶ per-slot budgets ▶ run inline
//!    │ full ⇒ Rejected::QueueFull       │ deadline rides into the search
//!    ▼                                  ▼
//! typed refusal                 exactly-one terminal reply per admission
//! ```
//!
//! The pieces, each its own module:
//!
//! * [`request`](Rejected) — the request lifecycle: typed rejections,
//!   [`ServeError`], the write-once reply slot behind [`RequestHandle`].
//! * [`queue`](TdServer) — the bounded MPMC admission queue (producers
//!   never block; depth is capped by construction).
//! * [`config`](ServerConfig) — the three values a deployment sizes to its
//!   traffic (`workers`, `queue_capacity`, `max_batch`); every other value
//!   the server decides by is a constant beside the one function that reads
//!   it.
//! * [`control`](OverloadMode) — the pure control plane: the grab-size rule
//!   and the Normal → Degraded → Shedding state machine with hysteresis,
//!   watermarks and settle caps included.
//! * [`server`](TdServer) — the work-conserving, run-to-completion serving
//!   workers (no timer on the request path: a worker pops, takes its share
//!   of what is queued and runs it), the single bounded panic retry, and
//!   the supervised live-update lane.
//! * [`fault`](FaultPlan) / [`soak`](run_soak) — deterministic fault
//!   injection and the time-boxed chaos harness that proves the invariants
//!   under the full storm.
//!
//! Locks on the serving path recover from poisoning (see `sync`); every
//! recovery is counted in `td_server_lock_recoveries_total`.

#![forbid(unsafe_code)]

mod config;
mod control;
mod fault;
mod queue;
mod request;
mod server;
mod soak;
mod sync;
mod update;

pub use config::ServerConfig;
pub use control::{
    admission_decision, grab_size, next_mode, settle_cap, slot_budget, OverloadMode, Window,
};
pub use fault::{
    silence_contained_panics, splitmix64, FaultPlan, HostileIndex, PanicSilence, INJECTED_PANIC,
};
pub use request::{Rejected, RequestHandle, ServeError, ServeResult};
pub use server::{ServerStats, TdServer};
pub use soak::{run_soak, run_soak_fixed, SoakConfig, SoakReport};
pub use update::UpdateRejected;
