//! `loopbench` — the repository benchmark.
//!
//! One run starts the stock server in-process (a 4-shard
//! `BlobMap<FraserOptSkipList>` behind `BlobOrderedStore`, hot-key engine
//! at k = 16, 2 workers), drives one named workload at it over loopback
//! from 2 connections on 2 threads, and validates every reply.
//!
//! ```text
//! cargo run --release --manifest-path loopbench/Cargo.toml -- \
//!     --workload hot_read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off: set-up
//! time, closed-loop throughput, open-loop (coordinated-omission-free)
//! per-verb latency, hit ratio and peak RSS. The run alternates one-second
//! closed-loop and open-loop slices and reports the fast quartile of them,
//! because on a shared 2-vCPU virtual machine the host's load slows
//! wall-clock speed for seconds at a time.
//! `--trace 1` adds client spans and then replays the traced wire run's op
//! stream rung by rung (bare skip list → `ShardedMap` → `BlobMap` → cache
//! tier → hot-key engine → `KvStore`, plus the codec) for the per-layer
//! metrics. Human-readable lines come first; the last line of stdout is
//! one JSON object.

mod ladder;
mod trace;
mod wire;
mod workload;

use std::io;
use std::net::SocketAddr;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ascylib::skiplist::FraserOptSkipList;
use ascylib_server::{BlobOrderedStore, Family, Phase, Server, ServerConfig, ServerHandle};
use ascylib_shard::ShardedMap;

use ladder::{Blob, Stepper, VerbCost, SHARDS};
use trace::{calmest, gap_pct, median_f64, quantile, quantile_f64, ratio, self_times};
use wire::{OpenResult, RoundTrips, Schedule, Tally};
use workload::{find, mix64, Verb, Workload, Zipf, WORKLOADS};

/// Independent trials of an untraced run. Each builds the stack afresh
/// (`setup_s` is the median set-up) and measures a third of the run.
const TRIALS: usize = 3;
/// Target length of one slice of an untraced run, in seconds. A trial
/// alternates closed-loop and open-loop slices, each on fresh connections
/// and its own part of the op stream, so both loops see the same host
/// conditions.
const SLICE_S: f64 = 1.0;
/// Throughput and latency are read off the fast quartile of a run's
/// slices: the upper quartile of slice throughputs, the lower quartile of
/// slice latencies. A busy host only ever slows a slice, and on a shared
/// 2-vCPU virtual machine it does so for seconds at a time, so the fast
/// quartile tracks the program where the median tracks the neighbours.
const FAST_QUARTILE: f64 = 0.25;
/// Client connections, one thread each.
const CONNS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Untimed closed-loop requests before the clock starts.
const WIRE_WARM: Duration = Duration::from_millis(100);
/// Generator lateness (median of a slice or window) beyond which it
/// measured the generator rather than the server. The polling generator
/// sends with a median lateness of 1-10 us on a 2-vCPU Xeon VM; one that
/// rounds its waits to whole milliseconds, about 500 us.
const LATE_BOUND_US: f64 = 100.0;
/// Most ops of each connection's stream a ladder rung replays.
const REPLAY_CAP: u64 = 250_000;
/// A run with more stale reads than this share of its requests is not
/// correct, although each stale key was present again when re-read.
const MAX_STALE_RATIO: f64 = 1e-3;
/// The hot-path GET self times (socket and event loop, codec, store,
/// hot-key, cache, blob, map, core) must sum to the measured depth-1
/// round trip within this share.
const BREAKDOWN_TOLERANCE_PCT: f64 = 15.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(find(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => return Err(format!("--seconds must be 1..=600, got {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "loopbench: {e}\nusage: loopbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loopbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The server and the store behind it.
struct Stack {
    map: Arc<Blob>,
    server: ServerHandle,
    warm_ops: u64,
}

impl Stack {
    /// Builds and fills the stock store, warms it, and starts the server.
    fn build(w: &'static Workload, seed: u64) -> io::Result<Stack> {
        let map = Arc::new(ladder::blob_map(w, true, true));
        ladder::prefill(&*map, w, seed);
        let warm_ops = ladder::warm_stock(&map, w, seed);
        let config = ServerConfig { workers: WORKERS, ..ServerConfig::default() };
        let server = Server::start("127.0.0.1:0", BlobOrderedStore::new(Arc::clone(&map)), config)?;
        Ok(Stack { map, server, warm_ops })
    }

    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// One printed metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: Option<u64>,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn add(&mut self, name: &str, unit: &'static str, value: f64, samples: Option<u64>) {
        self.metrics.push(Metric { name: name.to_string(), unit, value, samples });
    }

    fn print(&self) {
        for m in &self.metrics {
            match m.samples {
                Some(n) => println!("  {:<34} {:>16.6} {:<6} (n={n})", m.name, m.value, m.unit),
                None => println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit),
            }
        }
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

fn stepper(w: &'static Workload, seed: u64, conn: usize, zipf: &Option<Arc<Zipf>>) -> Stepper {
    Stepper::new(w.generator(seed, conn as u32, CONNS as u32, zipf.clone()))
}

/// A closed-loop phase over all connections.
struct Closed {
    tally: Tally,
    /// Replies per [`wire::WINDOW`], summed over connections; only whole
    /// windows.
    windows: Vec<u64>,
    /// Clock ticks the hypervisor took from this guest in each window.
    steal: Vec<u64>,
    /// Requests each connection sent, warm-up included.
    prefix: Vec<u64>,
    spans: wire::BatchSpans,
    pending_peak: u64,
}

impl Closed {
    fn calm_window(&self, pick: impl Fn(usize) -> bool) -> f64 {
        let picked: Vec<usize> = (0..self.windows.len()).filter(|&i| pick(i)).collect();
        let steal: Vec<u64> = picked.iter().map(|&i| self.steal[i]).collect();
        let mut per_s: Vec<f64> = picked
            .iter()
            .zip(calmest(&steal, CALM_SHARE))
            .filter(|(_, calm)| *calm)
            .map(|(&i, _)| self.windows[i] as f64 / wire::WINDOW.as_secs_f64())
            .collect();
        median_f64(&mut per_s)
    }

    /// Throughput lost to tracing: calm traced (odd) windows against calm
    /// untraced (even) windows, in percent.
    fn trace_overhead_pct(&self) -> f64 {
        let untraced = self.calm_window(|i| i % 2 == 0);
        ratio(untraced - self.calm_window(|i| i % 2 == 1), untraced) * 100.0
    }
}

/// Runs `f(conn)` on one thread per connection, and `meanwhile` on this
/// thread, then collects the connections' results in order.
fn per_conn<T: Send>(
    f: impl Fn(usize) -> io::Result<T> + Sync,
    meanwhile: impl FnOnce(),
) -> io::Result<Vec<T>> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..CONNS).map(|c| s.spawn(move || f(c))).collect();
        meanwhile();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

fn closed_phase(
    stack: &Stack,
    a: &Args,
    seed: u64,
    zipf: &Option<Arc<Zipf>>,
    secs: f64,
    traced: bool,
) -> io::Result<Closed> {
    let start = Instant::now() + WIRE_WARM;
    let end = start + Duration::from_secs_f64(secs);
    let addr = stack.addr();
    let mut pending_peak = 0;
    let mut steal = StealLog::default();
    let results = per_conn(
        |c| {
            let mut spans = wire::BatchSpans::default();
            let st = stepper(a.workload, seed, c, zipf);
            let (t, windows, n) =
                wire::closed_loop(addr, st, start, end, traced.then_some(&mut spans))?;
            Ok((t, windows, n, spans))
        },
        // The ssmem retire backlog of the server's workers and the host's
        // steal counter, sampled while a traced load runs (this thread
        // sends nothing).
        || {
            if traced {
                steal.record_until(end, || {
                    pending_peak = pending_peak.max(stack.server.concurrency().ssmem.pending)
                })
            }
        },
    )?;
    let whole = ((secs / wire::WINDOW.as_secs_f64()).floor() as usize).max(1);
    let mut out = Closed {
        tally: Tally::default(),
        windows: vec![0; whole],
        steal: steal.per_window(start, whole),
        prefix: Vec::new(),
        spans: Default::default(),
        pending_peak,
    };
    for (t, windows, n, spans) in results {
        out.tally.merge(&t);
        for (dst, src) in out.windows.iter_mut().zip(windows) {
            *dst += src;
        }
        out.prefix.push(n);
        out.spans.encode_ns.extend(spans.encode_ns);
        out.spans.wait_ns.extend(spans.wait_ns);
    }
    Ok(out)
}

/// Sub-seed of the arrival schedules.
const SCHEDULE_SEED: u64 = 0x4F50_454E;

fn open_phase(
    stack: &Stack,
    a: &Args,
    seed: u64,
    zipf: &Option<Arc<Zipf>>,
    secs: f64,
) -> io::Result<OpenResult> {
    // Time to connect before the first arrival is due.
    let start = Instant::now() + Duration::from_millis(100);
    let end = start + Duration::from_secs_f64(secs);
    let rate = a.workload.open_rate / CONNS as f64;
    let streams = (0..CONNS)
        .map(|c| {
            let sched = Schedule::new(mix64(seed ^ SCHEDULE_SEED ^ c as u64), rate);
            (stepper(a.workload, seed, c, zipf), sched)
        })
        .collect();
    let addr = stack.addr();
    std::thread::scope(|s| {
        s.spawn(move || wire::open_loop(addr, streams, start, end))
            .join()
            .expect("open-loop thread panicked")
    })
}

/// The traced run's tracing overhead compares the calmest 1/`CALM_SHARE`
/// of its windows by host steal.
const CALM_SHARE: usize = 3;

/// The open-loop slices of a run (a traced run has one). A slice in which
/// the generator sent its median request more than [`LATE_BOUND_US`] late
/// measured the generator, not the server, and is invalid.
#[derive(Default)]
struct OpenSlices {
    slices: Vec<OpenResult>,
    /// Median lateness of each slice, ns.
    late_p50: Vec<u64>,
}

impl OpenSlices {
    fn push(&mut self, open: OpenResult) {
        let mut late: Vec<u64> = open.late.iter().map(|l| l.1).collect();
        self.late_p50.push(quantile(&mut late, 0.5));
        self.slices.push(open);
    }

    fn valid(&self) -> impl Iterator<Item = &OpenResult> {
        let bound = (LATE_BOUND_US * 1e3) as u64;
        self.slices.iter().zip(&self.late_p50).filter(move |l| *l.1 <= bound).map(|l| l.0)
    }

    /// The number of valid slices; the run is invalid, not slow, when
    /// they are fewer than half.
    fn check_valid(&self) -> io::Result<usize> {
        let valid = self.valid().count();
        if 2 * valid < self.slices.len() {
            return Err(io::Error::other(format!(
                "invalid run: the load generator's median send ran over {LATE_BOUND_US} us late in {} of {} open-loop slices",
                self.slices.len() - valid,
                self.slices.len()
            )));
        }
        Ok(valid)
    }

    /// The fast quartile over valid slices of each slice's `q`-quantile
    /// latency of `verbs`, in µs, with the samples behind it.
    fn quantile_us(&self, verbs: &[Verb], q: f64) -> (f64, u64) {
        let (mut per_slice, mut n) = (Vec::new(), 0);
        for s in self.valid() {
            let mut pooled: Vec<u64> =
                verbs.iter().flat_map(|v| &s.latency[v.index()]).map(|l| l.1).collect();
            if !pooled.is_empty() {
                n += pooled.len() as u64;
                per_slice.push(quantile(&mut pooled, q) as f64 / 1e3);
            }
        }
        (quantile_f64(&mut per_slice, FAST_QUARTILE), n)
    }

    /// Generator lateness p99 over every slice, valid or not.
    fn late_p99_us(&self) -> (f64, u64) {
        let mut late: Vec<u64> = self.slices.iter().flat_map(|s| &s.late).map(|l| l.1).collect();
        (quantile(&mut late, 0.99) as f64 / 1e3, late.len() as u64)
    }
}

/// The stream seed of slice `slice` of trial `trial`: every slice runs a
/// different part of the workload, all of it fixed by the run's seed.
fn slice_seed(seed: u64, trial: usize, slice: usize) -> u64 {
    mix64(seed ^ mix64(((trial as u64) << 32 | slice as u64) + 1))
}

fn round_trip_phase(
    stack: &Stack,
    a: &Args,
    zipf: &Option<Arc<Zipf>>,
    secs: f64,
) -> io::Result<RoundTrips> {
    let end = Instant::now() + Duration::from_secs_f64(secs);
    let results = per_conn(
        |c| wire::round_trips(stack.addr(), stepper(a.workload, a.seed, c, zipf), end),
        || (),
    )?;
    let mut out = RoundTrips::default();
    for r in results {
        out.tally.merge(&r.tally);
        for (dst, src) in out.rtt.iter_mut().zip(r.rtt) {
            dst.extend(src);
        }
        out.ping.extend(r.ping);
    }
    Ok(out)
}

/// CPU time the hypervisor gave to other guests (`steal` in /proc/stat),
/// in clock ticks summed over CPUs; `None` where it is not reported.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// The host's steal counter, sampled while a phase runs.
#[derive(Default)]
struct StealLog(Vec<(Instant, Option<u64>)>);

impl StealLog {
    /// Samples every 5 ms until `end`, calling `also` at each sample.
    fn record_until(&mut self, end: Instant, mut also: impl FnMut()) {
        while Instant::now() < end {
            also();
            self.0.push((Instant::now(), steal_ticks()));
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Steal ticks in each of the `n` windows after `start`: the counter's
    /// rise between the samples nearest each window's ends.
    fn per_window(&self, start: Instant, n: usize) -> Vec<u64> {
        let at = |t: Instant| {
            self.0.iter().rev().find(|s| s.0 <= t).or(self.0.first()).and_then(|s| s.1)
        };
        (0..n as u32)
            .map(|i| {
                let lo = at(start + wire::WINDOW * i);
                let hi = at(start + wire::WINDOW * (i + 1));
                lo.zip(hi).map_or(0, |(lo, hi)| hi.saturating_sub(lo))
            })
            .collect()
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_stamp(a: &Args) {
    let w = a.workload;
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "loopbench workload={} seed={} seconds={} trace={}",
        w.name, a.seed, a.seconds, a.trace as u8
    );
    println!("machine: nproc={nproc} cpu=\"{cpu}\"");
    println!(
        "build: {} commit={}",
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"])
    );
    println!(
        "stack: {SHARDS}-shard BlobMap<FraserOptSkipList> behind BlobOrderedStore, hot-key k={}, budget={}, {WORKERS} workers",
        ladder::HOT_K,
        w.budget.map_or("none".to_string(), |b| format!("{} MiB", b >> 20))
    );
    let [g, s, d, c] = w.mix;
    println!(
        "workload: GET {}% SET {}% DEL {}% SCAN {}%, {} keys, {}; open loop {} req/s Poisson; closed loop {CONNS} conns x depth {}",
        g / 10,
        s / 10,
        d / 10,
        c / 10,
        w.keys,
        w.zipf_theta.map_or("uniform".to_string(), |t| format!("zipf({t})")),
        w.open_rate,
        wire::DEPTH
    );
    println!("  why: {}", w.why);
    println!("  stresses: {}", w.stresses);
    println!("  bypasses: {}", w.bypasses);
}

fn run(a: &Args) -> io::Result<()> {
    let w = a.workload;
    print_stamp(a);
    let zipf = w.zipf();
    let secs = a.seconds as f64;
    let mut report = Report::default();
    let mut all = Tally::default();
    if a.trace {
        let t = Instant::now();
        let stack = Stack::build(w, a.seed)?;
        println!(
            "setup: {:.3} s, {} keys present, {} warm-up ops",
            t.elapsed().as_secs_f64(),
            stack.map.len(),
            stack.warm_ops
        );
        traced_run(a, stack, &zipf, &mut report, &mut all)?;
        println!("per-layer (traced run):");
        report.print();
    } else {
        let share = secs / TRIALS as f64;
        let pairs = ((share / (2.0 * SLICE_S)).round() as usize).max(1);
        let slice_s = share / (2 * pairs) as f64;
        let (mut setups, mut rates, mut open) = (Vec::new(), Vec::new(), OpenSlices::default());
        let mut closed_answered = 0;
        for trial in 0..TRIALS {
            let t = Instant::now();
            let stack = Stack::build(w, a.seed)?;
            let setup_s = t.elapsed().as_secs_f64();
            setups.push(setup_s);
            let mut tally = Tally::default();
            let (mut closed_kps, mut open_p50) = (Vec::new(), Vec::new());
            for slice in 0..pairs {
                let seed = slice_seed(a.seed, trial, 2 * slice);
                let closed = closed_phase(&stack, a, seed, &zipf, slice_s, false)?;
                let seed = slice_seed(a.seed, trial, 2 * slice + 1);
                let o = open_phase(&stack, a, seed, &zipf, slice_s)?;
                closed_answered += closed.tally.answered;
                tally.merge(&closed.tally);
                tally.merge(&o.tally);
                // Replies to the requests sent in the slice, per second.
                let rate = closed.tally.answered as f64 / slice_s;
                rates.push(rate);
                closed_kps.push(format!("{:.0}", rate / 1e3));
                let mut get: Vec<u64> = o.latency[Verb::Get.index()].iter().map(|l| l.1).collect();
                let mut late: Vec<u64> = o.late.iter().map(|l| l.1).collect();
                open_p50.push(format!(
                    "{:.0}/{:.0}",
                    quantile(&mut get, 0.5) as f64 / 1e3,
                    quantile(&mut late, 0.5) as f64 / 1e3
                ));
                open.push(o);
            }
            // With the load stopped, every stale key must be back.
            tally.recheck(|key, out| stack.map.get(key, out));
            all.merge(&tally);
            println!(
                "trial {}: setup {setup_s:.3} s, {} keys present, {} warm-up ops",
                trial + 1,
                stack.map.len(),
                stack.warm_ops
            );
            println!("  closed loop k replies/s per slice: {}", closed_kps.join(" "));
            println!(
                "  open loop GET p50 / generator lateness p50 (us) per slice: {}",
                open_p50.join(" ")
            );
        }
        let valid = open.check_valid()?;
        report.add("setup_s", "s", median_f64(&mut setups), Some(TRIALS as u64));
        let throughput = quantile_f64(&mut rates, 1.0 - FAST_QUARTILE);
        report.add("throughput_ops_s", "ops/s", throughput, Some(closed_answered));
        let mut tail = Report::default();
        let verbs: [(&str, &[Verb]); 3] =
            [("get", &[Verb::Get]), ("set", &[Verb::Set, Verb::Fill]), ("scan", &[Verb::Scan])];
        for (name, verbs) in verbs {
            if verbs.iter().all(|v| all.by_verb[v.index()] == 0) {
                continue;
            }
            for (q, tag) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
                let (v, n) = open.quantile_us(verbs, q);
                let dst = if name == "scan" || tag != "p50" { &mut tail } else { &mut report };
                dst.add(&format!("{name}_{tag}_us"), "us", v, Some(n));
            }
        }
        let (late, n_late) = open.late_p99_us();
        tail.add("bench.gen_late_p99_us", "us", late, Some(n_late));
        report.add("hit_ratio", "ratio", ratio(all.hits as f64, all.gets as f64), Some(all.gets));
        report.add("peak_rss_mib", "MiB", peak_rss_mib(), None);
        // The p90s and p99s are printed but not in the JSON result: on a
        // shared 2-vCPU virtual machine their run-to-run spread exceeds
        // any usable bound.
        tail.add(
            "failed_ratio",
            "ratio",
            ratio(all.failed() as f64, all.sent as f64),
            Some(all.sent),
        );
        println!(
            "end-to-end (tracing off; fast quartile of {} closed-loop and {valid} valid open-loop slices of {slice_s:.3} s, median set-up):",
            rates.len()
        );
        report.print();
        println!("also measured (not in the result):");
        tail.print();
    }
    println!(
        "requests: attempted={} errors={} unanswered={} wrong={} lost={}; stale reads {} (never-deleted keys missed by {} of {} GETs and skipped {} times by SCAN, present again when re-read)",
        all.sent,
        all.errors,
        all.unanswered,
        all.wrong,
        all.lost,
        all.stale_reads(),
        all.stable_misses,
        all.stable_gets,
        all.stable_skips
    );
    let correct =
        all.failed() == 0 && ratio(all.stale_reads() as f64, all.sent as f64) <= MAX_STALE_RATIO;
    println!("{}", report.json(correct, all.sent.max(1), all.failed()));
    Ok(())
}

fn traced_run(
    a: &Args,
    stack: Stack,
    zipf: &Option<Arc<Zipf>>,
    report: &mut Report,
    all: &mut Tally,
) -> io::Result<()> {
    let w = a.workload;
    let secs = a.seconds as f64;
    let stats0 = stack.server.stats();
    let conc0 = stack.server.concurrency();
    let hot0 = stack.map.hotkey_stats().unwrap_or_default();
    let cache0 = stack.map.cache_stats();
    let arena0 = stack.map.total_arena_stats();
    let traced = closed_phase(&stack, a, a.seed, zipf, 0.4 * secs, true)?;
    println!(
        "closed loop: replies (k/s) and host steal (ticks) per {:?} window: {}",
        wire::WINDOW,
        traced
            .windows
            .iter()
            .zip(&traced.steal)
            .map(|(&n, st)| format!(
                "{}/{st}",
                (n as f64 / wire::WINDOW.as_secs_f64() / 1e3).round()
            ))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let stats1 = stack.server.stats();
    let conc1 = stack.server.concurrency();
    let hot1 = stack.map.hotkey_stats().unwrap_or_default();
    let cache1 = stack.map.cache_stats();
    let arena1 = stack.map.total_arena_stats();

    let mut open = OpenSlices::default();
    open.push(open_phase(&stack, a, a.seed, zipf, 0.3 * secs)?);
    open.check_valid()?;
    let tel0 = stack.server.telemetry();
    let mut rt = round_trip_phase(&stack, a, zipf, 0.3 * secs)?;
    let tel1 = stack.server.telemetry();
    for t in [&traced.tally, &open.slices[0].tally, &rt.tally] {
        all.merge(t);
    }
    all.recheck(|key, out| stack.map.get(key, out));
    let warm_ops = stack.warm_ops;
    drop(stack);

    // The ladder: every rung replays the traced closed loop's op stream,
    // up to REPLAY_CAP ops of each connection.
    let counts: Vec<u64> = traced.prefix.iter().map(|&n| n.min(REPLAY_CAP)).collect();
    let counts = &counts;
    let timer = ladder::timer_ns();
    let rung = |name: &str, cost: &VerbCost| {
        println!(
            "rung {name:<6} get {:>9.1} ns  write {:>9.1} ns  del {:>9.1} ns  scan {:>9.1} ns  (ops {}, GET hits {}/{})",
            cost.per_op(Verb::Get, timer),
            cost.write_per_op(timer),
            cost.per_op(Verb::Del, timer),
            cost.per_op(Verb::Scan, timer),
            cost.ops.iter().sum::<u64>(),
            cost.hits,
            cost.gets
        );
    };
    let prepared = |r: &dyn ladder::Rung| {
        ladder::prefill(r, w, a.seed);
        ladder::warm(r, w, a.seed, |done| done < warm_ops);
    };
    let core_counters;
    let core = {
        let sl = FraserOptSkipList::new();
        prepared(&sl);
        let (cost, ops) = ladder::run_rung(&sl, w, a.seed, counts);
        core_counters = ops;
        cost
    };
    rung("core", &core);
    let map = {
        let m = ShardedMap::new(SHARDS, |_| FraserOptSkipList::new());
        prepared(&m);
        ladder::run_rung(&m, w, a.seed, counts).0
    };
    rung("map", &map);
    let blob_rung = |hot: bool, budgeted: bool| {
        let m = ladder::blob_map(w, hot, budgeted);
        prepared(&m);
        ladder::run_rung(&m, w, a.seed, counts).0
    };
    let blob = blob_rung(false, false);
    rung("blob", &blob);
    let cache = w.budget.map(|_| blob_rung(false, true));
    if let Some(c) = &cache {
        rung("cache", c);
    }
    let hot = blob_rung(true, true);
    rung("hot", &hot);
    let store = {
        let s = BlobOrderedStore::new(Arc::new(ladder::blob_map(w, true, true)));
        prepared(&s);
        ladder::run_rung(&s, w, a.seed, counts).0
    };
    rung("store", &store);
    let (codec, codec_ops) = ladder::codec_costs(w, a.seed, counts[0].min(200_000));

    // server.*: event loop, worker hand-off and socket.
    let frames = stats1.frames.saturating_sub(stats0.frames) as f64;
    let wakeups = stats1.wakeups.saturating_sub(stats0.wakeups) as f64;
    let partial = stats1.partial_writes.saturating_sub(stats0.partial_writes) as f64;
    let bytes_out = stats1.bytes_out.saturating_sub(stats0.bytes_out) as f64;
    let fam = |f: Family| tel1.family(f).hist.delta_since(&tel0.family(f).hist);
    let phase = |p: Phase| tel1.phases[p.index()].delta_since(&tel0.phases[p.index()]);
    let service_get = fam(Family::Get);
    let service_set = fam(Family::Set);
    let get_codec = codec[Verb::Get.index()].total();
    let n_get_rtt = rt.rtt[Verb::Get.index()].len() as u64;
    let get_rtt = quantile(&mut rt.rtt[Verb::Get.index()], 0.5) as f64;
    let n_ping = rt.ping.len() as u64;
    let ping_rtt = quantile(&mut rt.ping, 0.5) as f64;
    report.add("server.frames_per_wakeup", "ratio", ratio(frames, wakeups), Some(wakeups as u64));
    report.add(
        "server.wire_wait_p50_us",
        "us",
        (get_rtt - service_get.quantile(0.5) as f64 - get_codec) / 1e3,
        Some(n_get_rtt),
    );
    report.add(
        "server.service_get_p50_ns",
        "ns",
        service_get.quantile(0.5) as f64,
        Some(service_get.count()),
    );
    report.add(
        "server.service_set_p50_ns",
        "ns",
        service_set.quantile(0.5) as f64,
        Some(service_set.count()),
    );
    for (p, name) in [(Phase::Parse, "parse"), (Phase::Execute, "execute"), (Phase::Flush, "flush")]
    {
        let h = phase(p);
        report.add(&format!("server.{name}_p50_ns"), "ns", h.quantile(0.5) as f64, Some(h.count()));
    }
    report.add(
        "server.partial_writes_per_kframe",
        "count",
        ratio(partial * 1e3, frames),
        Some(frames as u64),
    );
    report.add("server.bytes_out_per_frame", "B", ratio(bytes_out, frames), Some(frames as u64));

    // server.protocol.*: mix-weighted over the workload's own frames.
    let total_ops: u64 = codec_ops.iter().sum();
    let mixed = |f: fn(&ladder::CodecCost) -> f64| {
        Verb::ALL.iter().map(|v| f(&codec[v.index()]) * codec_ops[v.index()] as f64).sum::<f64>()
            / total_ops as f64
    };
    report.add("server.protocol.parse_ns", "ns", mixed(|c| c.parse_request), Some(total_ops));
    report.add("server.protocol.encode_reply_ns", "ns", mixed(|c| c.encode_reply), Some(total_ops));
    report.add("server.protocol.parse_reply_ns", "ns", mixed(|c| c.parse_reply), Some(total_ops));
    report.add(
        "server.protocol.encode_request_ns",
        "ns",
        mixed(|c| c.encode_request),
        Some(total_ops),
    );

    let gets = |c: &VerbCost| Some(c.ops[Verb::Get.index()]);
    let writes = |c: &VerbCost| Some(c.ops[Verb::Set.index()] + c.ops[Verb::Fill.index()]);
    report.add("server.store.get_ns", "ns", store.per_op(Verb::Get, timer), gets(&store));
    report.add("server.store.set_ns", "ns", store.write_per_op(timer), writes(&store));
    report.add(
        "server.store.scan_ns",
        "ns",
        store.per_op(Verb::Scan, timer),
        Some(store.ops[Verb::Scan.index()]),
    );

    // shard.hotkey.*: counters over the traced wire run; the delta is the
    // hot rung minus the same map without the engine.
    let below_hot = cache.as_ref().unwrap_or(&blob);
    let wire_gets = traced.tally.gets as f64;
    let wire_writes =
        (traced.tally.by_verb[Verb::Set.index()] + traced.tally.by_verb[Verb::Fill.index()]) as f64;
    let front = (hot1.front_hits + hot1.front_absent)
        .saturating_sub(hot0.front_hits + hot0.front_absent) as f64;
    let delegated = hot1.delegated.saturating_sub(hot0.delegated) as f64;
    let batches = hot1.combined_batches.saturating_sub(hot0.combined_batches) as f64;
    report.add(
        "shard.hotkey.front_hit_ratio",
        "ratio",
        ratio(front, wire_gets),
        Some(wire_gets as u64),
    );
    report.add(
        "shard.hotkey.delegated_ratio",
        "ratio",
        ratio(delegated, wire_writes),
        Some(wire_writes as u64),
    );
    report.add("shard.hotkey.avg_batch", "count", ratio(delegated, batches), Some(batches as u64));
    report.add(
        "shard.hotkey.get_ns_delta",
        "ns",
        hot.per_op(Verb::Get, timer) - below_hot.per_op(Verb::Get, timer),
        gets(&hot),
    );

    // shard.cache.*: the tier is inert without a budget, so its delta is 0.
    let evictions = cache1.evictions.saturating_sub(cache0.evictions) as f64;
    let forced = cache1.forced.saturating_sub(cache0.forced) as f64;
    report.add(
        "shard.cache.evictions_per_fill",
        "ratio",
        ratio(evictions, wire_writes),
        Some(wire_writes as u64),
    );
    report.add(
        "shard.cache.forced_ratio",
        "ratio",
        ratio(forced, wire_writes),
        Some(wire_writes as u64),
    );
    report.add(
        "shard.cache.set_ns_delta",
        "ns",
        cache.as_ref().map_or(0.0, |c| c.write_per_op(timer) - blob.write_per_op(timer)),
        writes(cache.as_ref().unwrap_or(&blob)),
    );
    report.add(
        "shard.cache.live_over_budget",
        "ratio",
        ratio(cache1.live_bytes as f64, cache1.budget_bytes as f64),
        None,
    );

    // shard.blob.*
    let retired = arena1.blobs_retired.saturating_sub(arena0.blobs_retired) as f64;
    report.add("shard.blob.get_ns", "ns", blob.per_op(Verb::Get, timer), gets(&blob));
    report.add("shard.blob.set_ns", "ns", blob.write_per_op(timer), writes(&blob));
    report.add(
        "shard.blob.retired_per_set",
        "ratio",
        ratio(retired, wire_writes),
        Some(wire_writes as u64),
    );
    report.add(
        "shard.blob.false_miss_ratio",
        "ratio",
        ratio(all.stable_misses as f64, all.stable_gets as f64),
        Some(all.stable_gets),
    );

    // ssmem.*: the server workers' allocators over the traced wire run.
    let (s0, s1) = (conc0.ssmem, conc1.ssmem);
    let kops = traced.tally.sent as f64 / 1e3;
    let allocs = s1.allocations.saturating_sub(s0.allocations) as f64;
    report.add("ssmem.pending_peak", "count", traced.pending_peak as f64, None);
    report.add(
        "ssmem.reclaimed_per_kop",
        "count",
        ratio(s1.reclaimed.saturating_sub(s0.reclaimed) as f64, kops),
        Some(traced.tally.sent),
    );
    report.add(
        "ssmem.reuse_ratio",
        "ratio",
        ratio(s1.reused.saturating_sub(s0.reused) as f64, allocs),
        Some(allocs as u64),
    );
    report.add(
        "ssmem.gc_passes_per_kop",
        "count",
        ratio(s1.gc_passes.saturating_sub(s0.gc_passes) as f64, kops),
        Some(traced.tally.sent),
    );

    // shard.map.* and core.*
    report.add("shard.map.get_ns", "ns", map.per_op(Verb::Get, timer), gets(&map));
    report.add("shard.map.insert_ns", "ns", map.write_per_op(timer), writes(&map));
    let oc = core_counters;
    let core_ops = oc.operations as f64;
    report.add("core.get_ns", "ns", core.per_op(Verb::Get, timer), gets(&core));
    report.add("core.insert_ns", "ns", core.write_per_op(timer), writes(&core));
    report.add(
        "core.nodes_per_op",
        "count",
        ratio(oc.nodes_traversed as f64, core_ops),
        Some(oc.operations),
    );
    report.add("core.atomics_per_op", "count", oc.atomics_per_operation(), Some(oc.operations));
    report.add(
        "core.cas_fail_ratio",
        "ratio",
        ratio(oc.atomic_failures as f64, oc.atomic_ops as f64),
        Some(oc.atomic_ops),
    );
    report.add(
        "core.restarts_per_op",
        "count",
        ratio(oc.restarts as f64, core_ops),
        Some(oc.operations),
    );
    report.add("core.transfers_per_op", "count", oc.transfers_per_operation(), Some(oc.operations));

    // bench.*: the load generator itself, and the GET self-time breakdown.
    let mut inclusive = vec![
        core.per_op(Verb::Get, timer),
        map.per_op(Verb::Get, timer),
        blob.per_op(Verb::Get, timer),
    ];
    if let Some(c) = &cache {
        inclusive.push(c.per_op(Verb::Get, timer));
    }
    inclusive.push(hot.per_op(Verb::Get, timer));
    inclusive.push(store.per_op(Verb::Get, timer));
    let own = self_times(&inclusive);
    let mut layers = vec![("core", own[0]), ("map", own[1]), ("blob", own[2])];
    let mut i = 3;
    layers.push((
        "cache",
        if cache.is_some() {
            i += 1;
            own[i - 1]
        } else {
            0.0
        },
    ));
    layers.push(("hotkey", own[i]));
    layers.push(("store", own[i + 1]));
    let mut parts: Vec<f64> = layers.iter().map(|l| l.1).collect();
    parts.push(get_codec);
    parts.push(ping_rtt);
    let gap = gap_pct(&parts, get_rtt);
    let (late_p99_us, n_late) = open.late_p99_us();
    report.add("bench.gen_late_p99_us", "us", late_p99_us, Some(n_late));
    report.add("bench.timer_ns", "ns", timer, None);
    report.add(
        "bench.trace_overhead_pct",
        "%",
        traced.trace_overhead_pct(),
        Some(traced.tally.answered),
    );
    report.add(
        "bench.failed_ratio",
        "ratio",
        ratio(all.failed() as f64, all.sent as f64),
        Some(all.sent),
    );
    report.add("bench.get_rtt_us", "us", get_rtt / 1e3, Some(n_get_rtt));
    report.add("bench.self.socket_us", "us", ping_rtt / 1e3, Some(n_ping));
    report.add("bench.self.codec_ns", "ns", get_codec, Some(codec_ops[Verb::Get.index()]));
    for (name, ns) in layers.iter().rev() {
        report.add(&format!("bench.self.{name}_ns"), "ns", *ns, gets(&store));
    }
    report.add("bench.breakdown_gap_pct", "%", gap.abs(), None);
    let mut enc = traced.spans.encode_ns.clone();
    let mut wait = traced.spans.wait_ns.clone();
    println!(
        "client spans (1 batch in {}): encode p50 {} ns, write-to-last-reply p50 {} ns over {} batches",
        wire::SPAN_EVERY,
        quantile(&mut enc, 0.5),
        quantile(&mut wait, 0.5),
        enc.len()
    );
    println!(
        "GET breakdown: socket+event loop {:.0} ns + codec {get_codec:.0} ns + {} = {:.0} ns vs depth-1 round trip {get_rtt:.0} ns: gap {gap:+.1}% ({} the {BREAKDOWN_TOLERANCE_PCT}% tolerance)",
        ping_rtt,
        layers.iter().rev().map(|(n, v)| format!("{n} {v:.0}")).collect::<Vec<_>>().join(" + "),
        parts.iter().sum::<f64>(),
        if gap.abs() <= BREAKDOWN_TOLERANCE_PCT { "within" } else { "OUTSIDE" }
    );
    Ok(())
}
