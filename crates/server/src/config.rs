//! Server tuning knobs.

use std::time::Duration;

use crate::control::OverloadPolicy;

/// Configuration of a [`crate::TdServer`]. `Default` is sized for tests and
/// small deployments; production fronts tune the queue and batch shape to
/// their traffic.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Serving worker threads (0 = all cores, resolved once at start).
    pub workers: usize,
    /// Admission queue capacity — the hard bound on queued requests.
    pub queue_capacity: usize,
    /// Maximum requests one worker takes from the queue in one grab.
    pub max_batch: usize,
    /// The period of the shared boundaries a burst assembles to: a worker
    /// that pops a request and finds more queued behind it sleeps until the
    /// next multiple of this on the server's clock before taking its share.
    /// A lone request is never held, and no request is held across more
    /// than one boundary (a backlogged server does not pause), so this adds
    /// less than itself to a request's latency. Zero turns the wait off.
    pub coalesce_window: Duration,
    /// Settle cap per query in Normal mode (`u64::MAX` = uncapped).
    pub normal_settles: u64,
    /// Settle cap per query in Degraded/Shedding mode — the
    /// approximate-first budget.
    pub degraded_settles: u64,
    /// Bounded retries for [`td_api::QueryError::Panicked`] slots.
    /// Deterministic failures (`InvalidQuery`, `BudgetExhausted`) are never
    /// retried.
    pub panic_retries: u32,
    /// Overload controller watermarks and windows.
    pub overload: OverloadPolicy,
    /// Pending live-update batches the update lane buffers before shedding.
    pub update_queue_capacity: usize,
    /// How long one `try_apply` may run before the watchdog declares the
    /// update lane stuck and sheds further updates (query service is never
    /// paused either way).
    pub update_watchdog: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            queue_capacity: 1024,
            max_batch: 64,
            coalesce_window: Duration::from_micros(500),
            normal_settles: u64::MAX,
            degraded_settles: 20_000,
            panic_retries: 1,
            overload: OverloadPolicy::default(),
            update_queue_capacity: 64,
            update_watchdog: Duration::from_secs(2),
        }
    }
}
