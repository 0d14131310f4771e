//! Load-tests the `v6census serve` daemon at two (or more) concurrency
//! points against an in-process instance with a deliberately small
//! connection cap, and emits a `BENCH_serve.json` point recording p50
//! and p99 latency plus the shed rate at each point. The low-concurrency
//! point characterises happy-path latency; the high point pushes past
//! `max_connections` so the shed path (503 + Retry-After) shows up in
//! the numbers instead of hiding as unbounded queueing.
//!
//! `BENCH_QUICK=1` trims the request count for CI smoke runs.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use v6census_bench::{samples, Opts};
use v6census_census::serve::{spawn, ServeConfig};
use v6census_synth::chaos::http_get;
use v6census_synth::faults::day_file_name;
use v6census_synth::world::epochs;

const DAYS: i32 = 5;
const MAX_CONNECTIONS: usize = 16;
const CLIENT_AXIS: [usize; 3] = [4, 16, 32];

/// One client's eye view of one request.
enum Sample {
    /// 200 with the round-trip wall time.
    Ok(f64),
    /// Explicit 503 shed.
    Shed,
    /// Any other status.
    Other(u16),
    /// Transport-level failure (refused, reset, timed out).
    Error,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let opts = Opts::parse();
    let world = opts.world();

    let dir = std::env::temp_dir().join(format!("v6census-servebench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create log dir");
    eprintln!(
        "[serve_load] writing {DAYS} day logs at scale {}…",
        opts.scale
    );
    for offset in 0..DAYS {
        let day = epochs::mar2015() + offset;
        std::fs::write(dir.join(day_file_name(day)), world.day_log(day).to_text())
            .expect("write day log");
    }

    let cfg = ServeConfig {
        source_dir: dir.clone(),
        max_connections: MAX_CONNECTIONS,
        poll_interval: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let handle = spawn(cfg).expect("daemon must start");
    let addr = handle.addr();
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.snapshot().generation < DAYS as u64 {
        assert!(Instant::now() < deadline, "daemon never ingested the world");
        std::thread::sleep(Duration::from_millis(10));
    }

    let per_client = samples(10, 60);
    let paths = [
        "/stats",
        "/stable/2001:db8::1",
        "/classify/2001:db8::/32",
        "/healthz",
    ];

    // clients, total, ok, shed, errors, p50, p99
    let mut points: Vec<(usize, usize, usize, usize, usize, f64, f64)> = Vec::new();
    for &clients in &CLIENT_AXIS {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut samples = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let path = paths[(c + i) % paths.len()];
                        let start = Instant::now();
                        let sample = match http_get(addr, path, Duration::from_secs(5)) {
                            Ok((200, _)) => Sample::Ok(start.elapsed().as_secs_f64() * 1e3),
                            Ok((503, _)) => Sample::Shed,
                            Ok((status, _)) => Sample::Other(status),
                            Err(_) => Sample::Error,
                        };
                        samples.push(sample);
                    }
                    samples
                })
            })
            .collect();
        let samples: Vec<Sample> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread must not panic"))
            .collect();

        let mut latencies: Vec<f64> = Vec::new();
        let (mut shed, mut errors) = (0usize, 0usize);
        for s in &samples {
            match s {
                Sample::Ok(ms) => latencies.push(*ms),
                Sample::Shed => shed += 1,
                Sample::Other(status) => panic!("well-formed query drew {status}"),
                Sample::Error => errors += 1,
            }
        }
        latencies.sort_by(|a, b| a.total_cmp(b));
        let (p50, p99) = (percentile(&latencies, 0.50), percentile(&latencies, 0.99));
        let total = samples.len();
        println!(
            "clients={clients:<3} requests={total:<5} ok={:<5} shed={shed:<4} errors={errors:<3} p50 {p50:>8.3}ms   p99 {p99:>8.3}ms",
            latencies.len()
        );
        points.push((clients, total, latencies.len(), shed, errors, p50, p99));
        // Let lingering connections from this burst fully close before
        // the next point so sheds attribute to their own concurrency.
        std::thread::sleep(Duration::from_millis(200));
    }

    let report = handle.shutdown();
    println!(
        "daemon drain: {} (shed {} over the whole run)",
        if report.clean {
            "clean"
        } else {
            "abandoned connections"
        },
        report.metrics.shed
    );

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"serve_load\",");
    let _ = writeln!(json, "  \"scale\": {},", opts.scale);
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"days\": {DAYS},");
    let _ = writeln!(json, "  \"requests_per_client\": {per_client},");
    let _ = writeln!(json, "  \"max_connections\": {MAX_CONNECTIONS},");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"points\": [");
    for (i, (clients, total, ok, shed, errors, p50, p99)) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let shed_rate = *shed as f64 / (*total).max(1) as f64;
        let _ = writeln!(
            json,
            "    {{\"clients\": {clients}, \"requests\": {total}, \"ok\": {ok}, \"shed\": {shed}, \"errors\": {errors}, \"shed_rate\": {shed_rate:.4}, \"p50_ms\": {p50:.3}, \"p99_ms\": {p99:.3}}}{comma}"
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    opts.emit("BENCH_serve.json", &json);
    v6census_bench::write_baseline("BENCH_serve.json", &json);

    let _ = std::fs::remove_dir_all(&dir);
}
