//! `serve-query` and `serve-follow`: the daemon in-process via
//! `census::serve::spawn`, queried over HTTP by an open-loop stream.
//!
//! * `serve-query` warms the daemon (no state directory) to generation
//!   15 during setup, then runs a pure read stream at [`QUERY_RATE`].
//! * `serve-follow` starts the daemon with a state directory over an
//!   empty source directory and lands the 15 day files by atomic rename
//!   every [`FOLLOW_CADENCE`], beside a light query stream.

use crate::inputs;
use crate::layers;
use crate::loadgen::{self, http_get, Reply, Sample};
use crate::oracle::{self, ProfileMemo, Query, Tally};
use crate::probe::{self, CountingFs};
use crate::stats::{self, Rng};
use crate::trace::{Span, Tracer};
use crate::{census_batch, Args, Outcome};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use v6census_addr::{Addr, Prefix};
use v6census_census::serve::{spawn, write_journal, ServeConfig, ServeHandle};
use v6census_census::{Census, IngestConfig, Snapshot, SnapshotCell, StreamIngestor};
use v6census_core::query::{days_seen, prefix_profile};
use v6census_core::vfs::{RealFs, Vfs};

/// `serve-query` requests per second.
pub const QUERY_RATE: f64 = 200.0;
/// `serve-follow` requests per second.
pub const FOLLOW_RATE: f64 = 20.0;
/// Time between two day files landing in `serve-follow`.
pub const FOLLOW_CADENCE: Duration = Duration::from_millis(800);
/// Client threads of the generator (the box's CPU count).
const CLIENTS: usize = 2;
/// How often the daemon rescans its source directory.
const POLL: Duration = Duration::from_millis(10);

fn config(src: &Path, state: Option<&Path>) -> ServeConfig {
    ServeConfig {
        source_dir: src.to_path_buf(),
        state_dir: state.map(Path::to_path_buf),
        poll_interval: POLL,
        ..ServeConfig::default()
    }
}

fn start(cfg: ServeConfig) -> Result<ServeHandle, String> {
    spawn(cfg).map_err(|e| format!("serve::spawn: {e}"))
}

/// Polls the published generation every `step` until it reaches `g`.
fn wait_generation(h: &ServeHandle, g: u64, step: Duration) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(120);
    while h.snapshot().generation < g {
        if Instant::now() > deadline {
            return Err(format!(
                "daemon stuck at generation {} (< {g})",
                h.snapshot().generation
            ));
        }
        std::thread::sleep(step);
    }
    Ok(())
}

/// Every address of one day file, read as text and parsed by `std`.
fn picks(path: &Path) -> Result<Vec<u128>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let picks: Vec<u128> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_whitespace().next()?.parse::<Ipv6Addr>().ok())
        .map(u128::from)
        .collect();
    if picks.is_empty() {
        return Err(format!("{}: no addresses to query", path.display()));
    }
    Ok(picks)
}

/// The seeded query stream. `wide` adds `/classify` of /12–/32 blocks.
/// One `/stable` in eight asks for an address in 2001:db8::/32, which
/// no synth network uses.
fn mix(seed: u64, picks: &[u128], n: usize, wide: bool) -> Vec<Query> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            let a = picks[rng.below(picks.len())];
            let r = rng.below(100);
            let (stable, narrow, wide_end) = if wide { (55, 88, 96) } else { (60, 90, 90) };
            if r < stable {
                if rng.below(8) == 0 {
                    let low = u128::from(rng.next_u64()) << 32 | u128::from(rng.next_u64() as u32);
                    Query::Stable(0x2001_0db8 << 96 | low)
                } else {
                    Query::Stable(a)
                }
            } else if r < narrow {
                Query::classify(a, 48 + rng.below(17) as u8)
            } else if r < wide_end {
                Query::classify(a, 12 + rng.below(21) as u8)
            } else {
                Query::Stats
            }
        })
        .collect()
}

fn run_stream(
    addr: std::net::SocketAddr,
    queries: &[Query],
    rate: f64,
    threads: usize,
    window: Duration,
) -> Vec<Sample<Reply>> {
    loadgen::open_loop(queries, rate, threads, window, |q| {
        http_get(addr, &q.target())
    })
}

/// Checks samples that all came from one snapshot.
fn check_samples<'a>(
    queries: &[Query],
    samples: impl IntoIterator<Item = &'a Sample<Reply>>,
    snap: &Snapshot,
    t: &mut Tally,
) {
    let mut memo = ProfileMemo::new();
    for s in samples {
        let r = oracle::check_reply(&queries[s.idx], &s.outcome, snap, &mut memo);
        t.check(r.is_ok(), || r.err().unwrap_or_default());
    }
}

/// Checks samples taken while days were landing: each against the
/// snapshot of the generation it reports, rebuilt from `last`'s days.
fn check_by_generation(
    queries: &[Query],
    samples: &[Sample<Reply>],
    last: &Snapshot,
    t: &mut Tally,
) {
    let mut by_gen: BTreeMap<u64, Vec<&Sample<Reply>>> = BTreeMap::new();
    for s in samples {
        match oracle::generation(&s.outcome) {
            Some(g) => by_gen.entry(g).or_default().push(s),
            None => {
                let r =
                    oracle::check_reply(&queries[s.idx], &s.outcome, last, &mut ProfileMemo::new());
                t.check(r.is_ok(), || r.err().unwrap_or_default());
            }
        }
    }
    let mut days: Vec<_> = last.census.summaries().iter().collect();
    days.sort_by_key(|s| s.day);
    let mut census = Census::new_empty();
    for g in 0..=days.len() {
        if g > 0 {
            census.ingest_summary(days[g - 1].clone());
        }
        if let Some(list) = by_gen.remove(&(g as u64)) {
            let snap = Snapshot::build(census.clone(), last.params, last.dense_class);
            check_samples(queries, list, &snap, t);
        }
    }
    for (g, list) in by_gen {
        for _ in list {
            t.check(false, || {
                format!("response claims generation {g} beyond the last")
            });
        }
    }
}

fn latencies(samples: &[Sample<Reply>]) -> Vec<f64> {
    samples.iter().map(Sample::latency_ms).collect()
}

fn note_queries(out: &mut Outcome, label: &str, samples: &[Sample<Reply>]) {
    let lat = latencies(samples);
    let late: Vec<f64> = samples.iter().map(Sample::late_ms).collect();
    if let (Some(p50), Some((tail, which))) = (stats::median(&lat), stats::tail(&lat)) {
        out.notes.push(format!(
            "{label}: n={} p50={p50:.3}ms {which}={tail:.3}ms generator-late p99={:.3}ms",
            lat.len(),
            stats::percentile(&late, 99.0).unwrap_or(0.0)
        ));
    }
}

fn counters(out: &mut Outcome, h: &ServeHandle) {
    let m = h.metrics();
    out.set("serve.accepted", m.accepted as f64);
    out.set("serve.served", m.served as f64);
    out.set("serve.shed", m.shed as f64);
    out.set("serve.bad_queries", m.bad_queries as f64);
}

fn shutdown(h: ServeHandle, t: &mut Tally) {
    let drain = h.shutdown();
    t.check(drain.clean, || {
        format!("unclean drain: {} abandoned", drain.abandoned)
    });
}

// ---------------------------------------------------------------------------
// serve-query
// ---------------------------------------------------------------------------

/// Starts a daemon on `days` with no state directory and waits until it
/// has published every day; returns it and the seconds that took.
fn warm(days: &Path) -> Result<(ServeHandle, f64), String> {
    let t0 = Instant::now();
    let h = start(config(days, None))?;
    wait_generation(&h, u64::from(inputs::DAYS), Duration::from_millis(2))?;
    Ok((h, t0.elapsed().as_secs_f64()))
}

/// The `warm DAYS` child: one cold start to generation 15 in a fresh
/// process. Prints the seconds it took.
pub fn warm_child(argv: &[String]) -> Result<String, String> {
    let [days] = argv else {
        return Err("usage: warm DAYS".into());
    };
    let (h, secs) = warm(Path::new(days))?;
    let mut t = Tally::default();
    shutdown(h, &mut t);
    Ok(secs.to_string())
}

/// Runs `serve-query`. Setup is synth plus a cold start to generation
/// 15; all but the last repetition warm in a child process, so this
/// process only ever holds the one daemon it measures.
pub fn query(args: &Args, work: &Path) -> Result<Outcome, String> {
    let days = work.join("days");
    let reps = if args.trace { 1 } else { crate::SETUP_REPS };
    let mut setups = Vec::new();
    let mut out = Outcome::default();
    for _ in 1..reps {
        let generate = inputs::timed_generate(args.seed, &days)?;
        let secs = inputs::run_child("warm", &[days.as_os_str()])?;
        let secs: f64 = secs
            .trim()
            .parse()
            .map_err(|_| format!("bad warm output {secs:?}"))?;
        setups.push(generate + secs);
    }
    let generate = inputs::timed_generate(args.seed, &days)?;
    let (h, secs) = warm(&days)?;
    setups.push(generate + secs);
    let picks = picks(&inputs::day_file(&days, inputs::last_day()))?;
    let n = (QUERY_RATE * args.window().as_secs_f64()) as usize + 1;
    let queries = mix(args.seed, &picks, n, true);
    let snap = h.snapshot();

    let samples = run_stream(h.addr(), &queries, QUERY_RATE, CLIENTS, args.window());
    if args.trace {
        check_samples(&queries, &samples, &snap, &mut out.tally);
        counters(&mut out, &h);
        let spans = traced_queries(&mut out, &queries, &samples, &snap);
        layers::write_trace(args, &spans)?;
        // The spans are built after the stream from its samples, so the
        // measured requests ran untraced: tracing adds nothing to them.
        out.set("trace.overhead_pct", 0.0);
        let late: Vec<f64> = samples.iter().map(Sample::late_ms).collect();
        out.set(
            "loadgen.late_ms",
            stats::percentile(&late, 99.0).unwrap_or(0.0),
        );
        layers::trie_probe(&mut out, &snap.active, snap.dense_class);
        shutdown(h, &mut out.tally);
        return Ok(out);
    }
    out.set("peak_rss_mb", probe::peak_rss_mb());
    shutdown(h, &mut out.tally);
    check_samples(&queries, &samples, &snap, &mut out.tally);
    out.e2e_timing(&latencies(&samples), "query (due → full response)");
    note_queries(&mut out, "queries", &samples);
    out.set("setup_s", stats::median(&setups).unwrap_or(0.0));
    Ok(out)
}

/// `e2ebench saturate`: the daemon's saturation rate on this machine,
/// from which [`QUERY_RATE`] and [`FOLLOW_RATE`] were set. A daemon
/// warmed as in `serve-query` answers the serve-query mix closed-loop
/// (each client thread sends its next request as soon as the last one
/// completes) from [`CLIENTS`] threads for the window. Prints the
/// completed requests per second and the median round trip.
pub fn saturate(args: &Args, work: &Path) -> Result<String, String> {
    let days = work.join("days");
    inputs::timed_generate(args.seed, &days)?;
    let (h, _) = warm(&days)?;
    let picks = picks(&inputs::day_file(&days, inputs::last_day()))?;
    let queries = mix(args.seed, &picks, 100_000, true);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let t0 = Instant::now();
    let rtts: Vec<f64> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut rtts = Vec::new();
                    while t0.elapsed() < args.window() {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let t = Instant::now();
                        let reply = http_get(h.addr(), &queries[i % queries.len()].target());
                        if matches!(reply, Reply::Http(200, _)) {
                            rtts.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    rtts
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap_or_default())
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut t = Tally::default();
    shutdown(h, &mut t);
    Ok(format!(
        "saturation: {:.0} requests/s ({} ok in {secs:.1} s, {CLIENTS} closed-loop clients), rtt p50 {:.3} ms",
        rtts.len() as f64 / secs,
        rtts.len(),
        stats::median(&rtts).unwrap_or(0.0)
    ))
}

/// The work the daemon's handler does for `q`, run on the same snapshot:
/// parse the target, look up, and format the body. Returns the members
/// a `/classify` found.
fn handle_in_process(q: &Query, snap: &Snapshot) -> usize {
    let target = q.target();
    match q {
        Query::Stable(_) => {
            let raw = target.trim_start_matches("/stable/");
            let Ok(a) = raw.parse::<Addr>() else { return 0 };
            let body = format!(
                "{}{}{}",
                snap.active.contains(a),
                snap.stable.contains(a),
                days_seen(snap.census.other_daily(), a).len()
            );
            std::hint::black_box(body);
            0
        }
        Query::Classify(..) => {
            let raw = target.trim_start_matches("/classify/");
            let Ok(p) = Prefix::from_str_lossy(raw) else {
                return 0;
            };
            let profile = prefix_profile(&snap.active, p, snap.dense_class);
            std::hint::black_box(format!("{profile:?}"));
            profile.members
        }
        Query::Stats => {
            let daily: Vec<String> = snap
                .stats
                .daily
                .iter()
                .map(|d| format!("{}{}{}", d.day, d.active, d.stable))
                .collect();
            std::hint::black_box((snap.active.len(), snap.stable.len(), daily));
            0
        }
    }
}

/// Request spans with a handler span each: the handler is measured by
/// running the same query on the published snapshot and is placed at
/// the start of its request, so the request's self time is transport.
fn traced_queries(
    out: &mut Outcome,
    queries: &[Query],
    samples: &[Sample<Reply>],
    snap: &Snapshot,
) -> Vec<Span> {
    let tracer = Tracer::new();
    let (mut narrow, mut wide, mut members) = (Vec::new(), Vec::new(), Vec::new());
    for s in samples {
        let q = &queries[s.idx];
        let (name, band) = match q {
            Query::Stable(_) => ("query.stable", None),
            Query::Classify(_, len) if *len >= 48 => ("query.profile", Some(&mut narrow)),
            Query::Classify(..) => ("query.profile", Some(&mut wide)),
            Query::Stats => ("query.stats", None),
        };
        let t0 = Instant::now();
        let m = handle_in_process(q, snap);
        let d = t0.elapsed().as_nanos() as u64;
        if let Some(band) = band {
            band.push(d as f64 / 1e6);
            members.push(m as f64);
        }
        let id = s.idx as u64;
        let req = tracer.record(Span {
            name: "serve.request",
            start: s.start,
            end: s.end,
            parent: None,
            id,
        });
        tracer.record(Span {
            name,
            start: s.start,
            end: s.start + d,
            parent: Some(req),
            id,
        });
    }
    let spans = tracer.spans();
    let selfs = crate::trace::self_times(&spans);
    let transport: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.parent.is_none())
        .map(|(_, &v)| v as f64 / 1e6)
        .collect();
    out.set(
        "serve.transport_ms",
        stats::median(&transport).unwrap_or(0.0),
    );
    out.set(
        "query.profile_narrow_ms",
        stats::median(&narrow).unwrap_or(0.0),
    );
    out.set("query.profile_wide_ms", stats::median(&wide).unwrap_or(0.0));
    out.set("query.members", stats::mean(&members));
    layers::coverage_metrics(out, &spans);
    note_queries(out, "traced queries", samples);
    spans
}

// ---------------------------------------------------------------------------
// serve-follow
// ---------------------------------------------------------------------------

/// What a follow round measured.
struct Round {
    lags: Vec<f64>,
    samples: Vec<Sample<Reply>>,
}

/// A fresh daemon with a fresh state directory; the pool's day files
/// land one per cadence tick while queries run. Records the peak RSS
/// before the responses are checked.
fn follow_round(
    work: &Path,
    pool: &[PathBuf],
    queries: &[Query],
    out: &mut Outcome,
) -> Result<Round, String> {
    let dir = work.join("follow");
    let (src, stage, state) = (dir.join("src"), dir.join("stage"), dir.join("state"));
    for d in [&src, &stage] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let h = start(config(&src, Some(&state)))?;
    let addr = h.addr();
    let window = FOLLOW_CADENCE * pool.len() as u32;
    let mut lags = Vec::new();
    let samples = std::thread::scope(|scope| -> Result<_, String> {
        let stream = scope.spawn(|| run_stream(addr, queries, FOLLOW_RATE, 1, window));
        let t0 = Instant::now();
        for (i, file) in pool.iter().enumerate() {
            let due = FOLLOW_CADENCE * i as u32;
            if let Some(wait) = due.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            let name = file.file_name().ok_or("day file without a name")?;
            let (staged, landed) = (stage.join(name), src.join(name));
            if std::fs::hard_link(file, &staged).is_err() {
                std::fs::copy(file, &staged)
                    .map_err(|e| format!("stage {}: {e}", staged.display()))?;
            }
            std::fs::rename(&staged, &landed)
                .map_err(|e| format!("land {}: {e}", landed.display()))?;
            let arrived = Instant::now();
            wait_generation(&h, i as u64 + 1, Duration::from_micros(500))?;
            lags.push(arrived.elapsed().as_secs_f64() * 1e3);
            out.tally.check(true, String::new);
        }
        stream
            .join()
            .map_err(|_| "query thread panicked".to_string())
    })?;
    out.set("peak_rss_mb", probe::peak_rss_mb());
    let last = h.snapshot();
    out.tally.check(last.generation == pool.len() as u64, || {
        format!("follow ended at generation {}", last.generation)
    });
    counters(out, &h);
    shutdown(h, &mut out.tally);
    check_by_generation(queries, &samples, &last, &mut out.tally);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(Round { lags, samples })
}

/// Runs `serve-follow`: two rounds of 15 landings at the fixed cadence
/// (one in a traced run).
pub fn follow(args: &Args, work: &Path) -> Result<Outcome, String> {
    let pool_dir = work.join("pool");
    let reps = if args.trace { 1 } else { crate::SETUP_REPS };
    let mut setups = Vec::new();
    for _ in 0..reps {
        setups.push(inputs::timed_generate(args.seed, &pool_dir)?);
    }
    let pool = census_batch::day_files(&pool_dir);
    let picks = picks(&inputs::day_file(&pool_dir, inputs::reference_day()))?;
    let n = (FOLLOW_RATE * (FOLLOW_CADENCE * pool.len() as u32).as_secs_f64()) as usize + 1;
    let queries = mix(args.seed, &picks, n, false);
    let mut out = Outcome::default();
    let Round {
        mut lags,
        mut samples,
    } = follow_round(work, &pool, &queries, &mut out)?;
    if !args.trace {
        // A second round doubles the lag samples. Its daemon starts in a
        // process whose allocator already holds the first one's freed
        // memory, so the peak stays the first round's.
        let peak = out.get("peak_rss_mb");
        let more = follow_round(work, &pool, &queries, &mut out)?;
        lags.extend(more.lags);
        samples.extend(more.samples);
        out.set("peak_rss_mb", peak);
    }
    if args.trace {
        let late: Vec<f64> = samples.iter().map(Sample::late_ms).collect();
        out.set(
            "loadgen.late_ms",
            stats::percentile(&late, 99.0).unwrap_or(0.0),
        );
        replay_days(args, work, &pool, &mut out)?;
        layers::parse_probe(&mut out, &pool)?;
        return Ok(out);
    }
    out.e2e_timing(&lags, "day ingest lag (arrival → publication)");
    note_queries(&mut out, "queries beside ingest", &samples);
    out.set("setup_s", stats::median(&setups).unwrap_or(0.0));
    Ok(out)
}

/// What one replay of the daemon's per-day loop measured.
struct DayReplay {
    /// Wall time of each day's loop body.
    day_ms: Vec<f64>,
    /// Allocations inside `parse_file`.
    parse_allocs: u64,
    /// Data lines parsed.
    lines: usize,
}

/// Replays the daemon's per-day loop through public calls, each inside
/// a span of `t`: parse → commit (with checkpoint, through `vfs`) →
/// journal → clone → build → publish, into a fresh state directory.
fn replay_loop(
    pool: &[PathBuf],
    state: &Path,
    t: &Tracer,
    vfs: Arc<dyn Vfs>,
    out: &mut Outcome,
) -> Result<DayReplay, String> {
    if state.exists() {
        std::fs::remove_dir_all(state).map_err(|e| format!("{}: {e}", state.display()))?;
    }
    vfs.create_dir_all(state).map_err(|e| e.to_string())?;
    let ingestor = StreamIngestor::new(IngestConfig {
        checkpoint_dir: Some(state.to_path_buf()),
        vfs: Arc::clone(&vfs),
        ..IngestConfig::default()
    });
    let daemon = ServeConfig::default();
    let (params, class) = (daemon.params, daemon.dense_class);
    let cell = SnapshotCell::new(Snapshot::build(Census::new_empty(), params, class));
    let mut census = Census::new_empty();
    let mut committed = Vec::new();
    let mut r = DayReplay {
        day_ms: Vec::new(),
        parse_allocs: 0,
        lines: 0,
    };
    for (i, path) in pool.iter().enumerate() {
        let t0 = Instant::now();
        t.span("day", Some(i as u64), || -> Result<(), String> {
            let a0 = probe::allocs();
            let parsed = t.span("stream.parse_file", None, || ingestor.parse_file(path));
            r.parse_allocs += probe::allocs() - a0;
            let parsed = parsed.map_err(|e| e.to_string())?;
            r.lines += parsed.report.data_lines;
            t.span("ingest.commit", None, || {
                ingestor.commit_parsed(parsed, &mut census, &mut committed)
            })
            .map_err(|e| e.to_string())?;
            t.span("serve.journal", None, || {
                write_journal(vfs.as_ref(), state, &committed)
            })
            .map_err(|e| e.to_string())?;
            let copy = t.span("snapshot.clone", None, || census.clone());
            let snap = t.span("snapshot.build", None, || {
                Snapshot::build(copy, params, class)
            });
            t.span("snapshot.publish", None, || cell.publish(snap));
            Ok(())
        })?;
        r.day_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out.tally
        .check(cell.load().generation == pool.len() as u64, || {
            "replay did not reach the last generation".into()
        });
    out.tally.check(census.days().count() == pool.len(), || {
        format!(
            "replay ingested {} of {} days",
            census.days().count(),
            pool.len()
        )
    });
    Ok(r)
}

/// `stable_on` as `Snapshot::build` calls it after each day: once per
/// ingested day and once for the reference (the last day). Returns the
/// total ns and the call count over every prefix of the pool.
fn stable_on_probe(pool: &[PathBuf]) -> Result<(u64, u64), String> {
    let ingestor = StreamIngestor::new(IngestConfig::default());
    let params = ServeConfig::default().params;
    let mut census = Census::new_empty();
    let mut committed = Vec::new();
    let (mut ns, mut calls) = (0, 0);
    for path in pool {
        let parsed = ingestor.parse_file(path).map_err(|e| e.to_string())?;
        ingestor
            .commit_parsed(parsed, &mut census, &mut committed)
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let obs = census.other_daily();
        for d in census.days().chain(census.days().last()) {
            std::hint::black_box(obs.stable_on(d, &params));
            calls += 1;
        }
        ns += t0.elapsed().as_nanos() as u64;
    }
    Ok((ns, calls))
}

/// Pairs of untraced and traced replays of the daemon's per-day loop;
/// the tracing overhead compares their median day times.
const REPLAY_PAIRS: usize = 2;

/// The traced replay of the daemon's per-day loop, alternating with
/// untraced replays of the same loop for the overhead baseline, then
/// the `stable_on` probe.
fn replay_days(
    args: &Args,
    work: &Path,
    pool: &[PathBuf],
    out: &mut Outcome,
) -> Result<(), String> {
    let state = work.join("replay-state");
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..REPLAY_PAIRS {
        let r = replay_loop(pool, &state, &Tracer::off(), Arc::new(RealFs), out)?;
        untraced.extend(r.day_ms);
        let tracer = Tracer::new();
        let fs = CountingFs::new(Some(Arc::clone(&tracer)));
        let r = replay_loop(pool, &state, &tracer, Arc::new(fs.clone()), out)?;
        traced.extend(r.day_ms.iter().copied());
        last = Some((r, tracer, fs));
    }
    let (r, tracer, fs) = last.ok_or("no traced replay")?;
    let spans = tracer.spans();
    layers::span_metrics(out, &spans, &fs, r.lines);
    out.set(
        "stream.allocs_per_line",
        r.parse_allocs as f64 / r.lines.max(1) as f64,
    );
    layers::overhead(out, &untraced, &traced);
    let (stable_ns, stable_calls) = stable_on_probe(pool)?;
    out.set("temporal.stable_on_ms", stable_ns as f64 / 1e6);
    out.set("temporal.stable_on_calls", stable_calls as f64);
    layers::write_trace(args, &spans)?;
    std::fs::remove_dir_all(&state).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_and_covers_every_kind() {
        let picks: Vec<u128> = (0..50u128).map(|i| 0x2600 << 112 | i << 64 | i).collect();
        let a = mix(1, &picks, 2000, true);
        let b = mix(1, &picks, 2000, true);
        assert_eq!(
            a.iter().map(Query::target).collect::<Vec<_>>(),
            b.iter().map(Query::target).collect::<Vec<_>>()
        );
        let count = |f: fn(&Query) -> bool| a.iter().filter(|q| f(q)).count();
        assert!(count(|q| matches!(q, Query::Stable(_))) > 900);
        assert!(count(|q| matches!(q, Query::Classify(_, l) if *l >= 48)) > 500);
        assert!(count(|q| matches!(q, Query::Classify(_, l) if *l <= 32)) > 80);
        assert!(count(|q| matches!(q, Query::Stats)) > 30);
        let light = mix(1, &picks, 2000, false);
        assert!(!light
            .iter()
            .any(|q| matches!(q, Query::Classify(_, l) if *l <= 32)));
    }
}
