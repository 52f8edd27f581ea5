//! The three values a deployment sizes to its traffic. Everything else the
//! server decides by is a constant beside the one function that reads it:
//! the overload watermarks and settle caps in `control`, the panic-retry
//! bound and the update lane's capacity and watchdog in `server`. There is
//! no timer on the request path to configure: a worker serves what it finds
//! queued the moment it pops.

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
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            queue_capacity: 1024,
            max_batch: 64,
        }
    }
}
