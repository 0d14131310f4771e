//! Open-loop request generation, and the HTTP client it drives.
//!
//! Request `i` is *due* at `i / rate` seconds after the start, whether
//! or not earlier requests have completed. A small pool of client
//! threads picks requests in order; a request starts when a thread is
//! free and its due time has come. Latency is timed from the due time,
//! so a stall also charges the wait it imposes on every request queued
//! behind it; how late the generator itself ran is reported apart.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One completed request.
#[derive(Clone, Debug)]
pub struct Sample<R> {
    /// Position in the schedule.
    pub idx: usize,
    /// When it was due (ns since the stream started).
    pub due: u64,
    /// When a client thread sent it.
    pub start: u64,
    /// When its response was complete.
    pub end: u64,
    /// What the request returned.
    pub outcome: R,
}

impl<R> Sample<R> {
    /// Due → complete, in ms: the open-loop latency.
    pub fn latency_ms(&self) -> f64 {
        self.end.saturating_sub(self.due) as f64 / 1e6
    }

    /// How late the generator sent it, in ms.
    pub fn late_ms(&self) -> f64 {
        self.start.saturating_sub(self.due) as f64 / 1e6
    }
}

/// Runs `items` open-loop at `rate` per second on `threads` client
/// threads, stopping at the first request due at or after `window`.
/// Returns the completed samples in schedule order.
pub fn open_loop<T: Sync, R: Send>(
    items: &[T],
    rate: f64,
    threads: usize,
    window: Duration,
    send: impl Fn(&T) -> R + Sync,
) -> Vec<Sample<R>> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Sample<R>>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let window_ns = window.as_nanos() as u64;
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let due = (idx as f64 * 1e9 / rate) as u64;
                    let Some(item) = items.get(idx) else { break };
                    if due >= window_ns {
                        break;
                    }
                    let now = t0.elapsed().as_nanos() as u64;
                    if now < due {
                        std::thread::sleep(Duration::from_nanos(due - now));
                    }
                    let start = t0.elapsed().as_nanos() as u64;
                    let outcome = send(item);
                    let end = t0.elapsed().as_nanos() as u64;
                    mine.push(Sample {
                        idx,
                        due,
                        start,
                        end,
                        outcome,
                    });
                }
                // One extend per thread: the vector is whole even after a
                // panic elsewhere.
                out.lock().unwrap_or_else(|e| e.into_inner()).extend(mine);
            });
        }
    });
    let mut samples = out.into_inner().unwrap_or_else(|e| e.into_inner());
    samples.sort_by_key(|s| s.idx);
    samples
}

/// What one HTTP exchange returned.
#[derive(Clone, Debug)]
pub enum Reply {
    /// A response with its status and body.
    Http(u16, String),
    /// A transport failure.
    Error(String),
}

/// `GET target` over a fresh connection (the daemon closes after each
/// response), with the synth crate's measurement client.
pub fn http_get(addr: SocketAddr, target: &str) -> Reply {
    match v6census_synth::chaos::http_get(addr, target, Duration::from_secs(10)) {
        Ok((code, body)) => Reply::Http(code, body),
        Err(e) => Reply::Error(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_requests_queued_behind_it() {
        // 1 thread, one request every 2 ms; request 0 stalls 30 ms.
        let items: Vec<u64> = (0..8).collect();
        let samples = open_loop(&items, 500.0, 1, Duration::from_secs(1), |&i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        assert_eq!(samples.len(), 8);
        for s in &samples {
            assert_eq!(s.due, s.idx as u64 * 2_000_000);
            assert!(s.start >= s.due, "never sent early");
        }
        // Request 1 was due at 2 ms but could not start before ~30 ms:
        // the generator ran late, and the wait counts in its latency
        // though its own round trip was near zero.
        let s1 = &samples[1];
        assert!(s1.late_ms() >= 25.0, "late {}", s1.late_ms());
        assert!(s1.latency_ms() >= 25.0);
        assert!(
            (s1.end - s1.start) as f64 / 1e6 < 5.0,
            "round trip near zero"
        );
        // Lateness decreases along the backlog by the 2 ms spacing.
        assert!(samples[7].late_ms() < s1.late_ms());
    }

    #[test]
    fn a_second_thread_absorbs_one_stall() {
        let items: Vec<u64> = (0..6).collect();
        let samples = open_loop(&items, 200.0, 2, Duration::from_secs(1), |&i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(40));
            }
        });
        // The other thread keeps the schedule: request 1 is on time.
        assert!(samples[1].late_ms() < 4.0, "late {}", samples[1].late_ms());
    }

    #[test]
    fn the_window_bounds_the_schedule() {
        let items: Vec<u64> = (0..1000).collect();
        let samples = open_loop(&items, 1000.0, 1, Duration::from_millis(20), |_| ());
        assert_eq!(samples.len(), 20);
    }
}
