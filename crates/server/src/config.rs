//! The four values a deployment sizes to its traffic. Everything else the
//! server decides by is a constant beside the one function that reads it:
//! the overload watermarks and settle caps in `control`, the panic-retry
//! bound and the update lane's capacity and watchdog in `server`.

use std::time::Duration;

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
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            queue_capacity: 1024,
            max_batch: 64,
            coalesce_window: Duration::from_micros(500),
        }
    }
}
