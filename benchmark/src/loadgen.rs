//! The load generator for the serving workload: an open-loop schedule with
//! lateness accounting, a closed-loop driver, and the SLO rung picker.
//!
//! Open loop = independent users: request `i` is *due* at `i / rate` whether
//! or not earlier replies have arrived, and its latency is counted from that
//! due time, so a stall is charged to every request it delays. Closed loop =
//! callers that each wait for their replies before sending more.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::adapter::{Query, Reply, Server, Ticket};

pub trait Clock {
    /// Time since the clock's origin.
    fn now(&self) -> Duration;
    /// Blocks until about `t`. May return late.
    fn sleep_until(&self, t: Duration);
}

pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    /// Sleeps rather than spins: on the two cores this runs on, a spinning
    /// sender would take half the machine from the server under test. The
    /// ~60 µs a wake-up runs late is charged to the request (latency is
    /// counted from its due time) and reported as generator lag.
    fn sleep_until(&self, t: Duration) {
        if let Some(wait) = t.checked_sub(self.0.elapsed()) {
            std::thread::sleep(wait);
        }
    }
}

/// A fixed-rate arrival schedule.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    rate_per_s: f64,
    pub count: usize,
}

impl Schedule {
    pub fn new(rate_per_s: f64, duration: Duration) -> Schedule {
        assert!(rate_per_s > 0.0);
        Schedule {
            rate_per_s,
            count: (rate_per_s * duration.as_secs_f64()).floor() as usize,
        }
    }

    /// When request `i` is due. Computed from `i`, not accumulated, so the
    /// schedule does not drift and never bends to the sender's pace.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate_per_s)
    }
}

/// Sends every request of `schedule` no earlier than it is due, calling
/// `send(i, due, sent_at)`. A late sender does not skip or re-time
/// requests: it sends the overdue ones back to back until it has caught up.
pub fn pace<C: Clock>(
    clock: &C,
    schedule: &Schedule,
    mut send: impl FnMut(usize, Duration, Duration),
) {
    for i in 0..schedule.count {
        let due = schedule.due(i);
        while clock.now() < due {
            clock.sleep_until(due);
        }
        send(i, due, clock.now());
    }
}

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Exact and equal to the oracle.
    Correct,
    /// Exact but not the oracle's answer.
    Wrong,
    /// Admitted, answered with an interval or a typed error.
    NotExact,
    /// Refused at admission.
    Rejected,
}

/// Client-side stamps of one request, nanoseconds since the run's origin.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// Position in the query list.
    pub query: u32,
    pub due_ns: u64,
    /// When the sender called `submit`.
    pub sent_ns: u64,
    /// When `submit` returned.
    pub submitted_ns: u64,
    /// When the reply was in the client's hands (`submitted_ns` if rejected).
    pub done_ns: u64,
    pub verdict: Verdict,
}

impl Record {
    /// Latency from the due time.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    pub fn failed(&self) -> bool {
        self.verdict != Verdict::Correct
    }
}

/// `(attempted, failed, wrong)` of a run's records: every request was
/// attempted; all but the correct ones failed; of those, the exact answers
/// that disagree with the oracle are wrong.
pub fn tally(records: &[Record]) -> (u64, u64, u64) {
    let failed = records.iter().filter(|r| r.failed()).count();
    let wrong = records
        .iter()
        .filter(|r| r.verdict == Verdict::Wrong)
        .count();
    (records.len() as u64, failed as u64, wrong as u64)
}

pub struct OpenLoopRun {
    pub origin: Instant,
    pub records: Vec<Record>,
    /// Admitted requests whose reply had not been collected when the last
    /// request of the schedule was sent — the backlog at the end of the run.
    pub outstanding_at_end: usize,
}

impl OpenLoopRun {
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.failed()).count()
    }

    /// Latencies of the admitted requests (a rejected one has no latency; it
    /// counts as failed and as missing the SLO through `failed`).
    pub fn latencies_ns(&self) -> Vec<u32> {
        self.records
            .iter()
            .filter(|r| r.verdict != Verdict::Rejected)
            .map(|r| clamp_ns(r.latency_ns()))
            .collect()
    }
}

pub fn clamp_ns(ns: u64) -> u32 {
    ns.min(u64::from(u32::MAX)) as u32
}

fn judge(
    reply: Reply,
    query: usize,
    check: &(dyn Fn(usize, Option<f64>) -> bool + Sync),
) -> Verdict {
    match reply {
        Reply::Exact(v) if check(query, v) => Verdict::Correct,
        Reply::Exact(_) => Verdict::Wrong,
        Reply::Approximate | Reply::Error => Verdict::NotExact,
    }
}

/// Drives `server` open loop: one paced sender (this thread) and one
/// collector thread that waits for the replies in submit order. The server
/// fulfils replies in submit order, so the collector's stamp is taken as
/// soon as each reply exists. Request `i` asks `queries[(first + i) % len]`
/// and `check` is given that position, so consecutive runs can walk on
/// through the list.
pub fn open_loop(
    server: &Server,
    queries: &[Query],
    first: usize,
    rate_per_s: f64,
    duration: Duration,
    check: &(dyn Fn(usize, Option<f64>) -> bool + Sync),
) -> OpenLoopRun {
    let schedule = Schedule::new(rate_per_s, duration);
    let clock = WallClock::start();
    let origin = clock.0;
    let collected = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(Record, Ticket)>();
    let mut rejected: Vec<Record> = Vec::new();
    let mut admitted = 0usize;
    let mut outstanding_at_end = 0usize;
    let mut records = std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut records: Vec<Record> = Vec::with_capacity(schedule.count);
            for (mut record, ticket) in rx {
                let reply = ticket.wait();
                record.done_ns = origin.elapsed().as_nanos() as u64;
                record.verdict = judge(reply, record.query as usize, check);
                records.push(record);
                collected.fetch_add(1, Ordering::Relaxed);
            }
            records
        });
        pace(&clock, &schedule, |i, due, sent| {
            let query = (first + i) % queries.len();
            let outcome = server.submit(queries[query]);
            let submitted_ns = origin.elapsed().as_nanos() as u64;
            let record = Record {
                query: query as u32,
                due_ns: due.as_nanos() as u64,
                sent_ns: sent.as_nanos() as u64,
                submitted_ns,
                done_ns: submitted_ns,
                verdict: Verdict::Rejected,
            };
            match outcome {
                Ok(ticket) => {
                    admitted += 1;
                    tx.send((record, ticket))
                        .expect("collector outlives the sender");
                }
                Err(()) => rejected.push(record),
            }
        });
        outstanding_at_end = admitted - collected.load(Ordering::Relaxed);
        drop(tx);
        collector.join().expect("collector thread")
    });
    records.append(&mut rejected);
    records.sort_unstable_by_key(|r| r.due_ns);
    OpenLoopRun {
        origin,
        records,
        outstanding_at_end,
    }
}

pub struct ClosedLoopRun {
    pub origin: Instant,
    pub records: Vec<Record>,
    pub elapsed: Duration,
}

impl ClosedLoopRun {
    pub fn correct(&self) -> usize {
        self.records.iter().filter(|r| !r.failed()).count()
    }

    /// Correct replies per wall-second.
    pub fn throughput(&self) -> f64 {
        self.correct() as f64 / self.elapsed.as_secs_f64()
    }
}

/// When a closed-loop run ends.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// No new burst starts after this long.
    After(Duration),
    /// Every query of the list has been sent once.
    OncePerQuery,
}

/// Drives `server` closed loop: `clients` threads, each sending `burst`
/// requests and waiting for all of them before the next burst. A request is
/// due when it is sent (`due_ns == sent_ns`).
pub fn closed_loop(
    server: &Server,
    queries: &[Query],
    first: usize,
    clients: usize,
    burst: usize,
    stop: Stop,
    check: &(dyn Fn(usize, Option<f64>) -> bool + Sync),
) -> ClosedLoopRun {
    let origin = Instant::now();
    let next = AtomicUsize::new(0);
    let go_on = |sent: usize| match stop {
        Stop::After(duration) => origin.elapsed() < duration,
        Stop::OncePerQuery => sent < queries.len(),
    };
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut records: Vec<Record> = Vec::new();
                    let mut tickets: Vec<(usize, Ticket)> = Vec::with_capacity(burst);
                    while go_on(next.load(Ordering::Relaxed)) {
                        for _ in 0..burst {
                            let sent = next.fetch_add(1, Ordering::Relaxed);
                            if !go_on(sent) {
                                break;
                            }
                            let query = (first + sent) % queries.len();
                            let sent_ns = now_ns();
                            let outcome = server.submit(queries[query]);
                            let submitted_ns = now_ns();
                            records.push(Record {
                                query: query as u32,
                                due_ns: sent_ns,
                                sent_ns,
                                submitted_ns,
                                done_ns: submitted_ns,
                                verdict: Verdict::Rejected,
                            });
                            if let Ok(ticket) = outcome {
                                tickets.push((records.len() - 1, ticket));
                            }
                        }
                        for (slot, ticket) in tickets.drain(..) {
                            let reply = ticket.wait();
                            let record = &mut records[slot];
                            record.done_ns = now_ns();
                            record.verdict = judge(reply, record.query as usize, check);
                        }
                    }
                    records
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    let elapsed = origin.elapsed();
    records.sort_unstable_by_key(|r| r.due_ns);
    ClosedLoopRun {
        origin,
        records,
        elapsed,
    }
}

/// What one rung of the rate ladder measured.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    pub rate_per_s: f64,
    /// `None` when the rung had too few samples for a p99.
    pub p99_us: Option<f64>,
    pub failed_share: f64,
    pub outstanding_at_end: usize,
}

/// The service-level objective a rung must meet.
#[derive(Clone, Copy, Debug)]
pub struct Slo {
    pub p99_us: f64,
    pub failed_share: f64,
    /// Backlog allowed at the end of the rung; more means the queue was
    /// still growing when the rung stopped.
    pub outstanding: usize,
}

impl Slo {
    pub fn met_by(&self, rung: &Rung) -> bool {
        rung.p99_us.is_some_and(|p| p <= self.p99_us)
            && rung.failed_share <= self.failed_share
            && rung.outstanding_at_end <= self.outstanding
    }
}

/// The highest rate such that it and every lower rung meet `slo`; 0 when
/// even the lowest rung misses it. A rung that passes above a failed one
/// does not count: capacity is where the ladder first breaks.
pub fn max_rate_in_slo(rungs: &[Rung], slo: &Slo) -> f64 {
    let mut sorted: Vec<&Rung> = rungs.iter().collect();
    sorted.sort_by(|a, b| a.rate_per_s.total_cmp(&b.rate_per_s));
    sorted
        .into_iter()
        .take_while(|r| slo.met_by(r))
        .last()
        .map_or(0.0, |r| r.rate_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when slept on (or when a test moves it), and
    /// oversleeps by a fixed amount.
    struct FakeClock {
        now: Cell<Duration>,
        oversleep: Duration,
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.now.get()
        }
        fn sleep_until(&self, t: Duration) {
            self.now.set(self.now.get().max(t) + self.oversleep);
        }
    }

    #[test]
    fn schedule_is_fixed_rate_and_drift_free() {
        let s = Schedule::new(6000.0, Duration::from_secs(4));
        assert_eq!(s.count, 24_000);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(6000), Duration::from_secs(1));
        assert_eq!(s.due(3), Duration::from_micros(500));
    }

    #[test]
    fn lateness_is_charged_from_the_due_time() {
        let clock = FakeClock {
            now: Cell::new(Duration::ZERO),
            oversleep: Duration::from_micros(60),
        };
        let schedule = Schedule::new(1000.0, Duration::from_millis(5));
        let mut lags = Vec::new();
        pace(&clock, &schedule, |i, due, sent| {
            assert_eq!(due, Duration::from_millis(i as u64));
            lags.push(sent - due);
        });
        // Request 0 is due at once; every later one wakes 60 µs late.
        assert_eq!(lags[0], Duration::ZERO);
        assert!(lags[1..].iter().all(|&l| l == Duration::from_micros(60)));
    }

    #[test]
    fn a_stalled_sender_catches_up_without_retiming_requests() {
        let clock = FakeClock {
            now: Cell::new(Duration::ZERO),
            oversleep: Duration::ZERO,
        };
        let schedule = Schedule::new(1000.0, Duration::from_millis(10));
        let mut sent_at = Vec::new();
        pace(&clock, &schedule, |i, due, sent| {
            sent_at.push((due, sent));
            if i == 2 {
                // The send of request 2 blocks for 4.5 ms.
                clock.now.set(clock.now.get() + Duration::from_micros(4500));
            }
        });
        assert_eq!(sent_at.len(), 10);
        // Requests 3..=6 were due during the stall: sent back to back at
        // 6.5 ms, each late by the time since its own due point.
        for (i, &(due, sent)) in sent_at.iter().enumerate().take(7).skip(3) {
            assert_eq!(due, Duration::from_millis(i as u64));
            assert_eq!(sent, Duration::from_micros(6500));
        }
        // Request 7 is on time again.
        assert_eq!(
            sent_at[7],
            (Duration::from_millis(7), Duration::from_millis(7))
        );
    }

    #[test]
    fn record_latency_counts_from_due_not_from_send() {
        let r = Record {
            query: 0,
            due_ns: 1_000,
            sent_ns: 1_060,
            submitted_ns: 1_100,
            done_ns: 1_700,
            verdict: Verdict::Correct,
        };
        assert_eq!(r.latency_ns(), 700);
        assert!(!r.failed());
        assert!(Record {
            verdict: Verdict::Rejected,
            ..r
        }
        .failed());
        assert!(Record {
            verdict: Verdict::NotExact,
            ..r
        }
        .failed());
    }

    fn rung(rate_per_s: f64, p99_us: f64, failed_share: f64, outstanding_at_end: usize) -> Rung {
        Rung {
            rate_per_s,
            p99_us: Some(p99_us),
            failed_share,
            outstanding_at_end,
        }
    }

    const SLO: Slo = Slo {
        p99_us: 5000.0,
        failed_share: 0.001,
        outstanding: 128,
    };

    #[test]
    fn slo_rung_is_the_highest_before_the_first_miss() {
        let ladder = [
            rung(3e3, 900.0, 0.0, 2),
            rung(6e3, 950.0, 0.0, 3),
            rung(12e3, 1100.0, 0.0, 9),
            rung(24e3, 1800.0, 0.0005, 40),
            rung(48e3, 9000.0, 0.2, 900),
            rung(96e3, 9500.0, 0.6, 1000),
        ];
        assert_eq!(max_rate_in_slo(&ladder, &SLO), 24e3);
        // Order of measurement does not matter.
        let mut reversed = ladder;
        reversed.reverse();
        assert_eq!(max_rate_in_slo(&reversed, &SLO), 24e3);
    }

    #[test]
    fn each_slo_clause_can_fail_a_rung() {
        assert_eq!(max_rate_in_slo(&[rung(3e3, 5001.0, 0.0, 0)], &SLO), 0.0);
        assert_eq!(max_rate_in_slo(&[rung(3e3, 10.0, 0.002, 0)], &SLO), 0.0);
        assert_eq!(max_rate_in_slo(&[rung(3e3, 10.0, 0.0, 129)], &SLO), 0.0);
        assert_eq!(max_rate_in_slo(&[rung(3e3, 5000.0, 0.001, 128)], &SLO), 3e3);
        // Too few samples for a p99 is a miss, not a pass.
        let unsupported = Rung {
            p99_us: None,
            ..rung(3e3, 0.0, 0.0, 0)
        };
        assert_eq!(max_rate_in_slo(&[unsupported], &SLO), 0.0);
    }

    #[test]
    fn a_pass_above_a_miss_does_not_count() {
        let ladder = [
            rung(3e3, 900.0, 0.0, 0),
            rung(6e3, 7000.0, 0.0, 0),
            rung(12e3, 900.0, 0.0, 0),
        ];
        assert_eq!(max_rate_in_slo(&ladder, &SLO), 3e3);
    }
}
