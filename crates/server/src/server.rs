//! The TCP serving tier: worker-owned, level-triggered event loops.
//!
//! [`Server::start`] binds a nonblocking listener and spawns one
//! **acceptor** thread plus `N` **worker** threads. Each worker owns
//! everything its connections need and shares none of it on the request
//! path: a private level-triggered [`Poller`] (epoll on Linux, poll(2)
//! elsewhere — see `vendor/polling`), a plain slab of its connections, a
//! yield queue and an idle timer wheel. A request is read, parsed,
//! executed and answered by the thread that `epoll_wait`ed for it, with no
//! lock taken and no thread crossed on the way.
//!
//! **Accepting:** the acceptor owns only the listener. It hands each
//! accepted socket, round-robin in accept order, to the next worker's
//! inbox (one mutex-guarded vector per worker) and wakes that worker with
//! [`Poller::notify`]. The worker adopts it into its slab and registers
//! the descriptor once, for readability, in its own poller.
//!
//! **Why no oneshot:** a descriptor lives in exactly one worker's poller
//! and only that worker waits on it, so two threads can never advance the
//! same connection. Readiness can therefore stay level-triggered: the
//! worker changes a registration (`epoll_ctl` MOD) only when what the
//! connection waits for changes — readable ↔ writable on a blocked flush —
//! never once per event. While a flush is blocked the registration asks
//! for writability alone, so a peer that stops reading stops being read
//! and cannot spin the loop.
//!
//! **Tokens:** a token packs `(worker << 48) | (generation << 32) |
//! slab index`. The worker bits route cross-thread wakes (`MONITOR`
//! subscribers are woken through their owner's inbox); the generation
//! bumps whenever a slot's connection closes, so a stale token — in the
//! yield queue, the timer wheel or an inbox — fails the check and is
//! dropped instead of touching a recycled slot.
//!
//! **Idle eviction:** each worker files one deadline per connection in a
//! coarse timer wheel (`timer.rs`) and lazily re-checks `last_active` when
//! it comes due — active connections just reschedule, idle ones (and
//! slow-loris trickles that never complete a frame... which *do* update
//! `last_active`, so "idle" means no socket progress at all) are closed
//! and counted in `timeouts`.
//!
//! **Shutdown** ([`ServerHandle::shutdown`]) is graceful and bounded: it
//! notifies the acceptor and every worker; the acceptor stops accepting,
//! and each worker best-effort flushes its own connections' buffered
//! replies and closes them. [`ServerHandle::join`] (or dropping the
//! handle) blocks until every thread has exited.
//!
//! Per-worker counters live in cache-line-padded blocks
//! ([`crate::stats::WorkerStats`]); `wakeups` counts the events each
//! worker's poller delivered.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ascylib_telemetry::window::{
    DEFAULT_WINDOW_CAPACITY, DEFAULT_WINDOW_INTERVAL_NS, DEFAULT_WINDOW_NS,
};
use ascylib_telemetry::{SlowOp, TelemetrySnapshot, WindowDelta, WindowRing, WindowSample, WorkerTelemetry};
use crossbeam_utils::CachePadded;
use polling::{Events, Interest, Poller};

use crate::conn::{
    unix_ms_now, Advance, ConnCtx, Connection, TelemetryHub, WIN_BYTES_IN, WIN_BYTES_OUT,
    WIN_CAS_FAILS, WIN_COUNTERS, WIN_ERRORS, WIN_OPS, WIN_RESTARTS,
};
use crate::monitor::{MonitorHub, MonitorStats};
use crate::stats::{ConcurrencySnapshot, ConcurrencyStats, ServerStatsSnapshot, WorkerStats};
use crate::store::KvStore;
use crate::timer::TimerWheel;

/// Tunables for [`Server::start`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads executing ready connections. Decoupled from the
    /// connection count: a few workers serve thousands of connections.
    pub workers: usize,
    /// Most frames executed per pipelining batch.
    pub max_pipeline: usize,
    /// Close connections with no socket progress for this long (`None`
    /// disables eviction). Enforced lazily at timer-wheel granularity
    /// (about an eighth of the timeout), so eviction can run a tick late.
    pub idle_timeout: Option<Duration>,
    /// Latency recording (histograms, phase timings, slow-op capture).
    /// Always on by default; turning it off removes every clock reading
    /// from the serving loop (the `fig15_observability` bench measures
    /// exactly this delta). The `INFO`/`SLOWLOG`/`METRICS` verbs answer
    /// either way — with zeroed latency data when recording is off.
    pub telemetry: bool,
    /// Requests with service time (execute phase) at or above this are
    /// captured in the per-worker slow-op rings.
    pub slowlog_threshold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_pipeline: 128,
            idle_timeout: Some(Duration::from_secs(60)),
            telemetry: true,
            slowlog_threshold: Duration::from_millis(10),
        }
    }
}

impl ServerConfig {
    /// A config sized to serve `n` concurrent connections. The event-driven
    /// tier decouples workers from connections, so this only nudges the
    /// worker count up for parallel execution — it is *not* a capacity
    /// limit the way it was for the thread-per-connection design.
    pub fn for_connections(n: usize) -> Self {
        Self { workers: n.clamp(1, 8), ..Self::default() }
    }
}

/// Most workers a server runs: the worker index fills a token's top 16
/// bits, and this cap keeps every token clear of the poller's reserved
/// `u64::MAX`.
const MAX_WORKERS: usize = 1 << 12;

#[inline]
fn make_token(worker: usize, idx: u32, gen: u16) -> u64 {
    ((worker as u64) << 48) | ((gen as u64) << 32) | idx as u64
}

#[inline]
fn token_worker(token: u64) -> usize {
    (token >> 48) as usize
}

#[inline]
fn split_token(token: u64) -> (u32, u16) {
    (token as u32, (token >> 32) as u16)
}

/// What the acceptor and other workers hand a worker through its inbox.
enum Handoff {
    /// A freshly accepted socket to adopt.
    Conn(TcpStream),
    /// A `MONITOR` subscriber's sink went non-empty: advance its
    /// connection.
    Wake(u64),
}

/// The cross-thread face of one worker: its poller (so others can wake
/// it), its inbox, and its open-connection gauge. Everything else a worker
/// uses is local to its thread.
struct WorkerPort {
    poller: Poller,
    inbox: Mutex<Vec<Handoff>>,
    /// Set after every push, so the worker takes the inbox lock only when
    /// there is mail — never on a plain readiness wakeup.
    mail: AtomicBool,
    /// Connections this worker currently owns.
    conns: AtomicU64,
}

impl WorkerPort {
    fn send(&self, msg: Handoff) {
        self.inbox.lock().expect("inbox poisoned").push(msg);
        self.mail.store(true, Ordering::Release);
        let _ = self.poller.notify();
    }

    /// Moves any pending hand-offs into `out` (empty on return otherwise).
    fn take_mail(&self, out: &mut Vec<Handoff>) {
        if self.mail.load(Ordering::Relaxed) && self.mail.swap(false, Ordering::Acquire) {
            std::mem::swap(&mut *self.inbox.lock().expect("inbox poisoned"), out);
        }
    }
}

/// State shared by the acceptor, the workers, and the handle. Nothing in
/// here is touched per request except the worker's own padded blocks.
struct Shared {
    store: Arc<dyn KvStore>,
    shutdown: AtomicBool,
    /// The acceptor's poller: the listener only.
    acceptor: Poller,
    ports: Box<[CachePadded<WorkerPort>]>,
    /// One counter block per worker.
    stats: Box<[CachePadded<WorkerStats>]>,
    /// One telemetry block per worker.
    tel: Box<[CachePadded<WorkerTelemetry>]>,
    /// One structure-level concurrency block per worker: each worker
    /// drains its thread-local [`ascylib::stats::OpCounters`] delta and
    /// refreshes its allocator view here after every connection pass.
    conc: Box<[CachePadded<ConcurrencyStats>]>,
    /// Cumulative-sample ring behind the windowed rates and quantiles.
    /// Rotation is reader-driven: scrapes elect one sampler, the serving
    /// hot path never touches it.
    window: WindowRing,
    /// The `MONITOR` broadcast hub.
    monitor: MonitorHub,
    started: Instant,
    config: ServerConfig,
}

impl Shared {
    fn totals(&self) -> ServerStatsSnapshot {
        let mut total = ServerStatsSnapshot::default();
        for s in self.stats.iter() {
            total.merge_counters(&s.snapshot());
        }
        // Gauge contract (see `stats.rs`): the merge leaves the gauge at
        // zero; the aggregator overwrites it from the live source.
        total.curr_connections = self.worker_conns().iter().sum();
        total
    }
}

impl TelemetryHub for Shared {
    fn telemetry_totals(&self) -> TelemetrySnapshot {
        let mut total = TelemetrySnapshot::default();
        for t in self.tel.iter() {
            total.merge(&t.snapshot());
        }
        total
    }

    fn slow_ops(&self) -> Vec<SlowOp> {
        let mut ops: Vec<SlowOp> = self.tel.iter().flat_map(|t| t.slow_ops()).collect();
        // Newest first across workers (each ring is oldest-first locally).
        ops.sort_by_key(|op| std::cmp::Reverse(op.unix_ms));
        ops
    }

    fn slow_reset(&self) {
        for t in self.tel.iter() {
            t.slow_reset();
        }
    }

    fn slow_len(&self) -> u64 {
        self.tel.iter().map(|t| t.slow_len() as u64).sum()
    }

    fn workers(&self) -> usize {
        self.config.workers
    }

    fn worker_conns(&self) -> Vec<u64> {
        self.ports.iter().map(|p| p.conns.load(Ordering::Relaxed)).collect()
    }

    fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis().min(u64::MAX as u128) as u64
    }

    fn concurrency_totals(&self) -> ConcurrencySnapshot {
        let mut total = ConcurrencySnapshot::default();
        for c in self.conc.iter() {
            total.merge(&c.snapshot());
        }
        total
    }

    fn window(&self) -> Option<WindowDelta> {
        // Reader-driven rotation: a scrape landing past the interval takes
        // a whole-server cumulative sample (`rotate` elects exactly one
        // contender under concurrent scrapes). The monotonic clock is the
        // server's uptime — `Instant`-based, so it needs no calibration
        // and works with telemetry recording off.
        let mono_ns = self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if self.window.due(mono_ns) {
            let totals = self.totals();
            let conc = self.concurrency_totals();
            let mut counters = vec![0u64; WIN_COUNTERS];
            counters[WIN_OPS] = totals.ops;
            counters[WIN_BYTES_IN] = totals.bytes_in;
            counters[WIN_BYTES_OUT] = totals.bytes_out;
            counters[WIN_ERRORS] = totals.errors;
            counters[WIN_CAS_FAILS] = conc.ops.atomic_failures;
            counters[WIN_RESTARTS] = conc.ops.restarts;
            self.window.rotate(WindowSample {
                unix_ms: unix_ms_now(),
                mono_ns,
                counters,
                hist: self.telemetry_totals().data_requests(),
            });
        }
        self.window.delta(DEFAULT_WINDOW_NS)
    }
}


/// The serving tier. Construct with [`Server::start`]; the returned
/// [`ServerHandle`] owns the threads.
pub struct Server;

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port — the bound address
    /// is on the handle) and starts the acceptor + worker threads serving
    /// `store`. At most 4096 workers are started.
    pub fn start<S: KvStore>(
        addr: impl ToSocketAddrs,
        store: S,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        // Calibrate the telemetry fast clock before any request is timed,
        // so the one-time spin (~200 µs) never lands on a served frame.
        if config.telemetry {
            ascylib_telemetry::clock::calibrate();
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let workers = config.workers.clamp(1, MAX_WORKERS);
        let acceptor = Poller::new()?;
        acceptor.register(listener.as_raw_fd(), 0, Interest::READABLE)?;
        let ports = (0..workers)
            .map(|_| {
                Ok(CachePadded::new(WorkerPort {
                    poller: Poller::new()?,
                    inbox: Mutex::new(Vec::new()),
                    mail: AtomicBool::new(false),
                    conns: AtomicU64::new(0),
                }))
            })
            .collect::<io::Result<_>>()?;
        let shared = Arc::new(Shared {
            store: Arc::new(store),
            shutdown: AtomicBool::new(false),
            acceptor,
            ports,
            stats: (0..workers).map(|_| CachePadded::new(WorkerStats::default())).collect(),
            tel: (0..workers).map(|_| CachePadded::new(WorkerTelemetry::new())).collect(),
            conc: (0..workers).map(|_| CachePadded::new(ConcurrencyStats::default())).collect(),
            window: WindowRing::new(DEFAULT_WINDOW_INTERVAL_NS, DEFAULT_WINDOW_CAPACITY),
            monitor: MonitorHub::default(),
            started: Instant::now(),
            config: ServerConfig { workers, ..config },
        });

        let mut threads = Vec::with_capacity(workers + 1);
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("ascy-accept".into())
                    .spawn(move || accept_loop(listener, &shared))?,
            );
        }
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ascy-worker-{i}"))
                    .spawn(move || worker_loop(i, &shared))?,
            );
        }
        Ok(ServerHandle { addr: local, shared, threads })
    }
}

/// The acceptor: drains the listener on every readiness event and deals
/// the sockets out round-robin, in accept order.
fn accept_loop(listener: TcpListener, shared: &Shared) {
    let mut events = Events::new();
    let mut next = 0;
    while !shared.shutdown.load(Ordering::Acquire) {
        if shared.acceptor.wait(&mut events, None).is_err() {
            break;
        }
        // Until WouldBlock (drained). Any other error (e.g. an aborted
        // handshake) is transient: a still-pending connection keeps the
        // listener readable, so the next wait retries.
        while let Ok((stream, _peer)) = listener.accept() {
            shared.ports[next].send(Handoff::Conn(stream));
            next = (next + 1) % shared.ports.len();
        }
    }
    // Dropping the listener here closes the accept socket.
}

/// One slab entry: the connection, if the slot is live, the generation
/// its token must carry to be current, and the interest it is registered
/// with.
struct Slot {
    gen: u16,
    conn: Option<Connection>,
    interest: Interest,
}

/// A worker's thread-local state. Only its own thread ever touches it.
struct Worker<'a> {
    me: usize,
    shared: &'a Shared,
    port: &'a WorkerPort,
    stats: &'a WorkerStats,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Connections that yielded with work still buffered; advanced again
    /// on the next loop turn.
    yielded: Vec<u64>,
    wheel: Option<TimerWheel>,
    chunk: Vec<u8>,
}

fn worker_loop(me: usize, shared: &Shared) {
    let stats = &shared.stats[me];
    let totals = || shared.totals();
    let ctx = ConnCtx {
        store: &*shared.store,
        max_pipeline: shared.config.max_pipeline,
        stats,
        totals: &totals,
        tel: &shared.tel[me],
        hub: shared,
        recording: shared.config.telemetry,
        slow_ns: shared.config.slowlog_threshold.as_nanos().min(u64::MAX as u128) as u64,
        worker: me as u32,
        monitor: &shared.monitor,
    };
    let idle = shared.config.idle_timeout;
    let mut w = Worker {
        me,
        shared,
        port: &shared.ports[me],
        stats,
        slots: Vec::new(),
        free: Vec::new(),
        yielded: Vec::new(),
        wheel: idle.map(|t| {
            let gran = (t / 8).clamp(Duration::from_millis(5), Duration::from_millis(500));
            TimerWheel::new(t, gran, Instant::now())
        }),
        chunk: vec![0u8; 16 * 1024],
    };
    let tick = w.wheel.as_ref().map(TimerWheel::granularity);
    let mut events = Events::new();
    let mut inbox = Vec::new();
    let mut yielded = Vec::new();
    let mut expired = Vec::new();

    while !shared.shutdown.load(Ordering::Acquire) {
        let timeout = if w.yielded.is_empty() { tick } else { Some(Duration::ZERO) };
        if w.port.poller.wait(&mut events, timeout).is_err() {
            break;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        w.port.take_mail(&mut inbox);
        for msg in inbox.drain(..) {
            match msg {
                Handoff::Conn(stream) => w.adopt(stream),
                Handoff::Wake(token) => w.run(&ctx, token),
            }
        }
        WorkerStats::bump(&stats.wakeups, events.len() as u64);
        for ev in events.iter() {
            w.run(&ctx, ev.token);
        }
        std::mem::swap(&mut w.yielded, &mut yielded);
        for token in yielded.drain(..) {
            w.run(&ctx, token);
        }
        if let (Some(wheel), Some(idle)) = (w.wheel.as_mut(), idle) {
            wheel.advance(Instant::now(), &mut expired);
            for token in expired.drain(..) {
                w.check_idle(token, idle);
            }
        }
    }

    // Final sweep: flush what was already computed, close everything. Swept
    // connections count as served so accept/close bookkeeping balances;
    // sockets still in the inbox were never adopted and just close.
    for idx in 0..w.slots.len() {
        if let Some(conn) = w.slots[idx].conn.as_mut() {
            conn.final_flush(stats);
            w.close(idx as u32);
        }
    }
    w.port.inbox.lock().expect("inbox poisoned").clear();
}

impl Worker<'_> {
    /// Takes ownership of an accepted socket: a slab slot, a readable
    /// registration in this worker's poller, an idle deadline.
    fn adopt(&mut self, stream: TcpStream) {
        let Ok(conn) = Connection::new(stream) else { return };
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot { gen: 0, conn: None, interest: Interest::READABLE });
            (self.slots.len() - 1) as u32
        });
        let slot = &mut self.slots[idx as usize];
        let token = make_token(self.me, idx, slot.gen);
        if self.port.poller.register(conn.fd(), token, Interest::READABLE).is_err() {
            self.free.push(idx);
            return;
        }
        slot.conn = Some(conn);
        slot.interest = Interest::READABLE;
        WorkerStats::bump(&self.stats.accepted, 1);
        self.port.conns.fetch_add(1, Ordering::Relaxed);
        if let (Some(wheel), Some(idle)) = (self.wheel.as_mut(), self.shared.config.idle_timeout)
        {
            wheel.schedule(token, Instant::now() + idle);
        }
    }

    /// Advances the connection behind `token` (if it is still current) as
    /// far as its socket allows, then files it for what it waits on next.
    fn run(&mut self, ctx: &ConnCtx<'_>, token: u64) {
        let (idx, gen) = split_token(token);
        let Some(slot) = self.slots.get_mut(idx as usize) else { return };
        if slot.gen != gen {
            return; // stale: the connection this token named is gone
        }
        let Some(conn) = slot.conn.as_mut() else { return };
        let outcome = conn.advance(ctx, &mut self.chunk);
        // A MONITOR frame executed this pass: subscribe under this token,
        // which routes the hub's wakes back to this worker.
        if let Some(sample) = conn.take_pending_monitor() {
            conn.attach_monitor(self.shared.monitor.subscribe(token, sample));
        }
        let keep = match outcome {
            Advance::Arm(interest) if interest == slot.interest => true,
            // The one steady-state `epoll_ctl`: a flush blocked (or
            // unblocked), so the connection now waits for the other
            // direction.
            Advance::Arm(interest) => {
                slot.interest = interest;
                self.port.poller.modify(conn.fd(), token, interest).is_ok()
            }
            Advance::Yield => {
                self.yielded.push(token);
                true
            }
            Advance::Close(_exit) => false,
        };
        if !keep {
            self.close(idx);
        }
        // Per-pass drain: fold the structure-level counter deltas this
        // pass generated (the store work ran on this thread) into the
        // worker's padded block, and refresh the allocator absolutes.
        self.shared.conc[self.me].fold_ops(&ascylib::stats::drain_delta());
        self.shared.conc[self.me].set_ssmem(&ascylib_ssmem::thread_stats());
        // Wake subscribers whose monitor sinks went non-empty under this
        // pass's publishes, each on the worker that owns it.
        for wake in self.shared.monitor.take_wakes() {
            match token_worker(wake) {
                owner if owner == self.me => self.yielded.push(wake),
                owner => self.shared.ports[owner].send(Handoff::Wake(wake)),
            }
        }
    }

    /// A wheel deadline came due: evict if the connection really made no
    /// progress for the whole timeout, otherwise reschedule from its actual
    /// last activity (the lazy re-check that keeps activity O(1)).
    fn check_idle(&mut self, token: u64, idle: Duration) {
        let (idx, gen) = split_token(token);
        let Some(slot) = self.slots.get(idx as usize) else { return };
        let Some(conn) = slot.conn.as_ref().filter(|_| slot.gen == gen) else { return };
        let deadline = conn.last_active + idle;
        if Instant::now() >= deadline {
            self.close(idx);
            WorkerStats::bump(&self.stats.timeouts, 1);
        } else if let Some(wheel) = self.wheel.as_mut() {
            wheel.schedule(token, deadline);
        }
    }

    /// Deregisters and closes the slot's connection, counts it served, and
    /// recycles the slot under a new generation.
    fn close(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        if let Some(conn) = slot.conn.take() {
            let _ = self.port.poller.deregister(conn.fd());
            drop(conn);
            self.port.conns.fetch_sub(1, Ordering::Relaxed);
            WorkerStats::bump(&self.stats.connections, 1);
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(idx);
        }
    }
}

/// Handle to a running server: its bound address, live statistics, and
/// shutdown/join control. Dropping the handle shuts the server down and
/// joins its threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Aggregated per-worker counters (plus the current-connection gauge).
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.shared.totals()
    }

    /// Elements currently in the served store.
    pub fn store_size(&self) -> usize {
        self.shared.store.size()
    }

    /// Merged server-side telemetry (per-family/per-phase histograms and
    /// hit/miss counters) across every worker.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.shared.telemetry_totals()
    }

    /// Slow-op entries across every worker, newest first.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        TelemetryHub::slow_ops(&*self.shared)
    }

    /// Summed structure-level concurrency counters (coherence events plus
    /// ssmem allocator state) across every worker block.
    pub fn concurrency(&self) -> ConcurrencySnapshot {
        self.shared.concurrency_totals()
    }

    /// `MONITOR` broadcast counters: live subscribers, events published,
    /// events dropped on full subscriber sinks.
    pub fn monitor_stats(&self) -> MonitorStats {
        self.shared.monitor.stats()
    }

    /// Signals shutdown (idempotent, non-blocking): stop accepting, flush
    /// buffered replies, close connections.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let _ = self.shared.acceptor.notify();
        for port in self.shared.ports.iter() {
            let _ = port.poller.notify();
        }
    }

    /// Shuts down, blocks until the acceptor and every worker exited, and
    /// returns the final (race-free: all threads joined) counters.
    pub fn join(mut self) -> ServerStatsSnapshot {
        self.join_inner();
        self.shared.totals()
    }

    fn join_inner(&mut self) {
        self.shutdown();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.join_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::BlobStore;
    use ascylib::hashtable::ClhtLb;
    use ascylib_shard::BlobMap;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn tiny_server(workers: usize) -> ServerHandle {
        let map = Arc::new(BlobMap::new(2, |_| ClhtLb::with_capacity(64)));
        Server::start(
            "127.0.0.1:0",
            BlobStore::new(map),
            ServerConfig { workers, ..ServerConfig::default() },
        )
        .expect("bind ephemeral")
    }

    #[test]
    fn starts_serves_raw_frames_and_shuts_down() {
        let server = tiny_server(2);
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"SET 5 2\r\n50\r\nGET 5\r\nGET 6\r\nbogus\r\nPING\r\nQUIT\r\n").unwrap();
        let mut reply = String::new();
        s.read_to_string(&mut reply).unwrap();
        assert_eq!(reply, ":1\r\n$2\r\n50\r\n_\r\n-ERR unknown verb\r\n+PONG\r\n+BYE\r\n");
        assert_eq!(server.store_size(), 1);
        let stats = server.join();
        assert_eq!(stats.connections, 1, "QUIT closes and the worker records the connection");
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.frames, 5, "bogus line is an error, not a frame");
        assert_eq!(stats.errors, 1);
        assert!(stats.wakeups >= 1, "serving required at least one readiness dispatch");
        assert_eq!(stats.curr_connections, 0, "nothing left open after join");
        assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    }

    #[test]
    fn shutdown_unblocks_idle_connections_and_workers() {
        let server = tiny_server(2);
        // One idle connection parked in the poller.
        let mut idle = TcpStream::connect(server.addr()).unwrap();
        idle.write_all(b"PING\r\n").unwrap();
        let mut buf = [0u8; 16];
        let n = idle.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"+PONG\r\n");
        let addr = server.addr();
        server.join(); // must not hang on the idle connection
        // The listener is gone after join.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn one_worker_serves_many_connections_concurrently() {
        // The event-driven refactor's point: with a single worker there is
        // no head-of-line blocking — an open idle connection does not stop
        // later connections from being served.
        let server = tiny_server(1);
        let mut held: Vec<TcpStream> = (0..8)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        // All eight get answered while all eight stay open.
        for s in held.iter_mut() {
            s.write_all(b"PING\r\n").unwrap();
        }
        let mut buf = [0u8; 16];
        for s in held.iter_mut() {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let n = s.read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"+PONG\r\n");
        }
        let open = server.stats().curr_connections;
        assert_eq!(open, 8, "all connections stay open at once on one worker");
        drop(held);
        server.join();
    }

    #[test]
    fn monitor_streams_trace_events_to_a_tcp_subscriber() {
        let server = tiny_server(2);
        let mut sub = TcpStream::connect(server.addr()).unwrap();
        sub.write_all(b"MONITOR\r\n").unwrap();
        sub.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 4096];
        let n = sub.read(&mut buf).unwrap();
        assert!(
            String::from_utf8_lossy(&buf[..n]).starts_with("+OK\r\n"),
            "MONITOR must be acknowledged first"
        );

        // Traffic on a second connection; keep sending until a trace frame
        // reaches the subscriber (the subscription activates just after the
        // +OK flush, so the first few events can legitimately miss it).
        let mut data = TcpStream::connect(server.addr()).unwrap();
        data.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sub.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !String::from_utf8_lossy(&got).contains("+monitor ") {
            data.write_all(b"SET 7 1\r\nx\r\n").unwrap();
            let n = data.read(&mut buf).unwrap();
            assert!(n > 0, "data connection must keep being served");
            if let Ok(n) = sub.read(&mut buf) {
                got.extend_from_slice(&buf[..n]);
            }
            assert!(Instant::now() < deadline, "no trace frame arrived: {got:?}");
        }
        let text = String::from_utf8_lossy(&got);
        assert!(text.contains("family=set"), "{text}");
        assert!(text.contains("key=7"), "{text}");
        let mon = server.monitor_stats();
        assert_eq!(mon.subscribers, 1);
        assert!(mon.events >= 1);

        // The served traffic also moved the structure-level counters.
        let conc = server.concurrency();
        assert!(conc.ops.operations > 0, "worker folds must surface: {conc:?}");

        // Clean disconnect: QUIT answers +BYE in-band even mid-stream.
        sub.write_all(b"QUIT\r\n").unwrap();
        sub.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut bye = Vec::new();
        sub.read_to_end(&mut bye).unwrap();
        assert!(String::from_utf8_lossy(&bye).contains("+BYE\r\n"));
        // The hub prunes the dead sink at the next publish or scrape.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.monitor_stats().subscribers != 0 {
            assert!(Instant::now() < deadline, "dead subscriber never pruned");
            std::thread::sleep(Duration::from_millis(5));
        }
        server.join();
    }
}
