//! The loopback load generator: closed loop, open loop and depth-1 traced
//! runs over plain `TcpStream`s, validating every reply.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ascylib_server::protocol::{ReplyParser, Request};
use ascylib_server::Reply;

use crate::ladder::{encode_op, payload_for, Stepper};
use crate::workload::{check_payload, Op, Rng, Verb, Workload};

/// Per-connection outcome counts of one phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub answered: u64,
    /// Error replies.
    pub errors: u64,
    /// Replies that contradict the data: a corrupt or foreign payload, a
    /// malformed SCAN page.
    pub wrong: u64,
    pub unanswered: u64,
    /// GET misses and SCAN skips of never-deleted keys that were still
    /// absent (or corrupt) when re-read with the load stopped: lost data.
    pub lost: u64,
    pub gets: u64,
    pub hits: u64,
    /// GETs of never-deleted keys, and how many of them missed.
    pub stable_gets: u64,
    pub stable_misses: u64,
    /// Never-deleted keys that SCAN pages skipped.
    pub stable_skips: u64,
    /// The keys of those misses and skips, awaiting [`Tally::recheck`].
    pub stale_keys: Vec<u64>,
    pub by_verb: [u64; 5],
}

impl Tally {
    pub fn merge(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.answered += o.answered;
        self.errors += o.errors;
        self.wrong += o.wrong;
        self.unanswered += o.unanswered;
        self.lost += o.lost;
        self.gets += o.gets;
        self.hits += o.hits;
        self.stable_gets += o.stable_gets;
        self.stable_misses += o.stable_misses;
        self.stable_skips += o.stable_skips;
        self.stale_keys.extend_from_slice(&o.stale_keys);
        for i in 0..5 {
            self.by_verb[i] += o.by_verb[i];
        }
    }

    /// Errors, unanswered requests, wrong answers and lost keys.
    pub fn failed(&self) -> u64 {
        self.errors + self.unanswered + self.wrong + self.lost
    }

    /// Misses and skips of never-deleted keys whose key was present again
    /// on the re-read: reads that landed inside an overwrite's
    /// remove-then-insert window (`BlobMap::set`), counted apart from
    /// failures because they come and go with thread timing.
    pub fn stale_reads(&self) -> u64 {
        (self.stable_misses + self.stable_skips).saturating_sub(self.lost)
    }

    /// Checks one reply against the request it answers; returns `true`
    /// for a GET hit. A miss or skip of a never-deleted key is recorded
    /// for [`Tally::recheck`].
    pub fn check(&mut self, w: &Workload, op: Op, reply: Reply) -> bool {
        self.answered += 1;
        if let Reply::Error(_) = reply {
            self.errors += 1;
            return false;
        }
        let ok = match (op.verb, reply) {
            (Verb::Get, reply) => {
                self.gets += 1;
                let stable = w.never_deleted(op.key);
                self.stable_gets += stable as u64;
                match reply {
                    Reply::Bulk(p) if check_payload(op.key, &p).is_ok() => {
                        self.hits += 1;
                        return true;
                    }
                    Reply::Null => {
                        if stable {
                            self.stable_misses += 1;
                            self.stale_keys.push(op.key);
                        }
                        true
                    }
                    _ => false,
                }
            }
            (Verb::Set | Verb::Fill | Verb::Del, Reply::Int(n)) => n <= 1,
            (Verb::Scan, Reply::Array(items)) => match scan_page(w, op, &items) {
                Some(skipped) => {
                    self.stable_skips += skipped.len() as u64;
                    self.stale_keys.extend(skipped);
                    true
                }
                None => false,
            },
            _ => false,
        };
        self.wrong += !ok as u64;
        false
    }

    /// Re-reads through `read`, with no load running, every never-deleted
    /// key a GET missed or a SCAN skipped; each miss or skip of a key still
    /// absent, or present with a payload that fails its check, is lost.
    pub fn recheck(&mut self, read: impl Fn(u64, &mut Vec<u8>) -> bool) {
        let mut keys = std::mem::take(&mut self.stale_keys);
        keys.sort_unstable();
        let mut out = Vec::new();
        for same in keys.chunk_by(|a, b| a == b) {
            if !read(same[0], &mut out) || check_payload(same[0], &out).is_err() {
                self.lost += same.len() as u64;
            }
        }
    }
}

/// Most never-deleted keys one SCAN page may skip and still be a stale
/// read rather than a malformed page. Only the other worker writes while a
/// page is merged, one key at a time.
const MAX_SKIPPED: usize = 2;

/// The never-deleted keys of `w` in `[lo, hi]`, or `None` if there are
/// more than [`MAX_SKIPPED`].
fn stable_keys_in(w: &Workload, lo: u64, hi: u64) -> Option<Vec<u64>> {
    let mut out = Vec::new();
    for k in (lo..=hi.min(w.keys)).filter(|&k| w.never_deleted(k)) {
        if out.len() == MAX_SKIPPED {
            return None;
        }
        out.push(k);
    }
    Some(out)
}

/// Checks a SCAN page: its keys ascend from `from`, it holds at most
/// `count` intact payloads, and it skips at most [`MAX_SKIPPED`]
/// never-deleted keys in the range it covers (to the keyspace end when the
/// page is short). Returns the skipped never-deleted keys, or `None` if the
/// page is malformed.
pub fn scan_page(w: &Workload, op: Op, items: &[Reply]) -> Option<Vec<u64>> {
    if items.len() > op.arg as usize {
        return None;
    }
    let mut next = op.key;
    let mut skipped = Vec::new();
    for item in items {
        let Reply::Pair(k, p) = item else {
            return None;
        };
        if *k < next || check_payload(*k, p).is_err() {
            return None;
        }
        skipped.extend(stable_keys_in(w, next, k - 1)?);
        next = k + 1;
    }
    if items.len() < op.arg as usize {
        skipped.extend(stable_keys_in(w, next, w.keys)?);
    }
    (skipped.len() <= MAX_SKIPPED).then_some(skipped)
}

/// One client connection with its reply parser and buffers.
struct Conn {
    stream: TcpStream,
    parser: ReplyParser,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    val: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            parser: ReplyParser::new(),
            rbuf: vec![0; 256 * 1024],
            wbuf: Vec::with_capacity(64 * 1024),
            val: Vec::new(),
        })
    }

    fn push(&mut self, w: &Workload, op: Op) {
        if matches!(op.verb, Verb::Set | Verb::Fill) {
            payload_for(w, op, &mut self.val);
        }
        encode_op(op, &self.val, &mut self.wbuf);
    }

    /// Blocks until one more reply is parsed.
    fn next_reply(&mut self) -> io::Result<Reply> {
        loop {
            if let Some(r) = self.parser.next() {
                return r.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
            let n = self.stream.read(&mut self.rbuf)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.parser.feed(&self.rbuf[..n]);
        }
    }
}

/// Requests kept in flight per connection by the closed loop. Each batch
/// waits on three thread wake-ups (event loop, worker, client), whose cost
/// on a shared virtual machine swings with the host's load; at a depth of
/// 16 they set the throughput, at 64 the requests do.
pub const DEPTH: usize = 64;

/// Client-side spans of a traced closed loop: per sampled batch in the odd
/// windows, the time to encode its requests and the time from the write to
/// the last reply.
#[derive(Debug, Clone, Default)]
pub struct BatchSpans {
    pub encode_ns: Vec<u64>,
    pub wait_ns: Vec<u64>,
}

/// Sample one batch in this many when tracing.
pub const SPAN_EVERY: u64 = 8;

/// Length of the windows a closed loop is cut into. A traced loop traces
/// its odd windows only, so the even ones price the tracing.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Closed loop: `DEPTH` requests written together, then every reply read
/// and checked before the next batch. Requests before `start` warm the
/// connection and are not counted; the loop ends at `end`. Also returns
/// the replies received in each [`WINDOW`] after `start`, and the requests
/// sent in all, warm-up included: the stream prefix it ran.
pub fn closed_loop(
    addr: SocketAddr,
    mut st: Stepper,
    start: Instant,
    end: Instant,
    mut spans: Option<&mut BatchSpans>,
) -> io::Result<(Tally, Vec<u64>, u64)> {
    let w = st.workload();
    let mut c = Conn::connect(addr)?;
    let mut t = Tally::default();
    let mut total = 0u64;
    let mut windows = Vec::new();
    let mut batch = Vec::with_capacity(DEPTH);
    let mut fills: Vec<u64> = Vec::new();
    let mut n_batch = 0u64;
    loop {
        let now = Instant::now();
        if now >= end {
            return Ok((t, windows, total));
        }
        let window =
            now.checked_duration_since(start).map(|d| (d.as_nanos() / WINDOW.as_nanos()) as usize);
        if window.is_none() {
            t = Tally::default();
        }
        // Tracing runs in odd windows only, so even ones price it.
        let traced = spans.is_some()
            && window.is_some_and(|w| w % 2 == 1)
            && n_batch.is_multiple_of(SPAN_EVERY);
        n_batch += 1;
        c.wbuf.clear();
        batch.clear();
        for key in fills.drain(..) {
            st.answered_get(key, false);
            let op = st.next_op();
            batch.push(op);
            c.push(w, op);
        }
        while batch.len() < DEPTH {
            let op = st.next_op();
            batch.push(op);
            c.push(w, op);
        }
        let encoded = traced.then(Instant::now);
        t.sent += batch.len() as u64;
        total += batch.len() as u64;
        c.stream.write_all(&c.wbuf)?;
        for &op in &batch {
            t.by_verb[op.verb.index()] += 1;
            let reply = c.next_reply()?;
            let hit = t.check(w, op, reply);
            if op.verb == Verb::Get && !hit && w.kind == crate::workload::Kind::CacheAside {
                fills.push(op.key);
            }
        }
        if let Some(i) = window {
            if windows.len() <= i {
                windows.resize(i + 1, 0);
            }
            windows[i] += batch.len() as u64;
        }
        if let (Some(enc), Some(s)) = (encoded, spans.as_deref_mut()) {
            s.encode_ns.push((enc - now).as_nanos() as u64);
            s.wait_ns.push(enc.elapsed().as_nanos() as u64);
        }
    }
}

/// Poisson arrival times: `n`-th due time in ns after the start, mean gap
/// `1e9 / rate`.
#[derive(Debug)]
pub struct Schedule {
    rng: Rng,
    mean_gap_ns: f64,
    next_ns: f64,
}

impl Schedule {
    pub fn new(seed: u64, rate: f64) -> Self {
        let mut s = Schedule { rng: Rng::new(seed), mean_gap_ns: 1e9 / rate, next_ns: 0.0 };
        s.next_ns = s.gap();
        s
    }

    fn gap(&mut self) -> f64 {
        -(1.0 - self.rng.unit()).ln() * self.mean_gap_ns
    }

    /// The next due time, in ns from the start.
    pub fn peek(&self) -> u64 {
        self.next_ns as u64
    }

    pub fn advance(&mut self) {
        self.next_ns += self.gap();
    }
}

/// Samples of an open-loop run, each `(due time, ns)` with due times in
/// ns from the start.
#[derive(Debug, Clone, Default)]
pub struct OpenResult {
    pub tally: Tally,
    /// Per verb: reply time minus due time.
    pub latency: [Vec<(u64, u64)>; 5],
    /// Send time minus due time, per request.
    pub late: Vec<(u64, u64)>,
}

/// Longest the open loop waits for replies after its last send.
const DRAIN: Duration = Duration::from_secs(2);

/// One open-loop connection: its stream, arrivals and requests in flight.
struct OpenConn {
    c: Conn,
    st: Stepper,
    sched: Schedule,
    inflight: VecDeque<(Op, u64)>,
    wpos: usize,
    /// Keys of cache-aside misses awaiting their fill, with the fill's due
    /// time (when the miss arrived).
    fills: VecDeque<(u64, u64)>,
}

impl OpenConn {
    /// Queues everything due by `now`; a fill first, as it was due earliest.
    fn send_due(&mut self, now: u64, res: &mut OpenResult) {
        let w = self.st.workload();
        loop {
            let (op, due) = if let Some((key, due)) = self.fills.pop_front() {
                self.st.answered_get(key, false);
                (self.st.next_op(), due)
            } else if self.sched.peek() <= now {
                let due = self.sched.peek();
                self.sched.advance();
                (self.st.next_op(), due)
            } else {
                return;
            };
            self.c.push(w, op);
            res.tally.sent += 1;
            res.tally.by_verb[op.verb.index()] += 1;
            res.late.push((due, now - due));
            self.inflight.push_back((op, due));
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.c.wbuf.len() {
            match self.c.stream.write(&self.c.wbuf[self.wpos..]) {
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        self.c.wbuf.clear();
        self.wpos = 0;
        Ok(())
    }

    /// Checks the replies that have arrived.
    fn receive(&mut self, start: Instant, span_ns: u64, res: &mut OpenResult) -> io::Result<()> {
        let w = self.st.workload();
        let n = match self.c.stream.read(&mut self.c.rbuf) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) => return Err(e),
        };
        let at = start.elapsed().as_nanos() as u64;
        self.c.parser.feed(&self.c.rbuf[..n]);
        while let Some(reply) = self.c.parser.next() {
            let reply =
                reply.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let (op, due) = self.inflight.pop_front().expect("a reply answers a sent request");
            res.latency[op.verb.index()].push((due, at.saturating_sub(due)));
            let hit = res.tally.check(w, op, reply);
            if op.verb == Verb::Get
                && !hit
                && w.kind == crate::workload::Kind::CacheAside
                && at < span_ns
            {
                self.fills.push_back((op.key, at));
            }
        }
        Ok(())
    }
}

mod sys {
    pub const SCHED_IDLE: i32 = 5;
    extern "C" {
        pub fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
}

/// Moves the calling thread to `SCHED_IDLE`: it runs only when no other
/// thread wants the CPU, and any waking thread preempts it at once.
fn idle_priority() -> io::Result<()> {
    let priority = 0i32;
    // SAFETY: pid 0 names the calling thread; the parameter is a live i32
    // (`struct sched_param` holds only the priority, 0 for SCHED_IDLE).
    match unsafe { sys::sched_setscheduler(0, sys::SCHED_IDLE, &priority) } {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

/// Open loop: requests go out at their Poisson due times whatever the
/// server's progress, and each is timed from its due time, so a stall is
/// charged to every request it delays. Cache-aside fills are due when the
/// miss that calls for them arrives. One thread drives every connection
/// (one stream and schedule each) and polls their sockets without
/// sleeping: a virtual CPU left idle takes tens of microseconds to wake,
/// which would be charged to the server, and a send is never held past
/// its due time by a timer. The thread polls at `SCHED_IDLE` priority so
/// that it never delays a server thread; run it on a thread of its own,
/// as the priority stays.
pub fn open_loop(
    addr: SocketAddr,
    streams: Vec<(Stepper, Schedule)>,
    start: Instant,
    end: Instant,
) -> io::Result<OpenResult> {
    idle_priority()?;
    let mut conns = Vec::with_capacity(streams.len());
    for (st, sched) in streams {
        let c = Conn::connect(addr)?;
        c.stream.set_nonblocking(true)?;
        conns.push(OpenConn {
            c,
            st,
            sched,
            inflight: VecDeque::new(),
            wpos: 0,
            fills: VecDeque::new(),
        });
    }
    if let Some(left) = start.checked_duration_since(Instant::now()) {
        std::thread::sleep(left);
    }
    let span_ns = (end - start).as_nanos() as u64;
    let drain_end = span_ns + DRAIN.as_nanos() as u64;
    let mut res = OpenResult::default();
    loop {
        let now = start.elapsed().as_nanos() as u64;
        for oc in &mut conns {
            if now < span_ns {
                oc.send_due(now, &mut res);
            }
            oc.flush()?;
            oc.receive(start, span_ns, &mut res)?;
        }
        if now >= span_ns && (now >= drain_end || conns.iter().all(|oc| oc.inflight.is_empty())) {
            break;
        }
    }
    res.tally.unanswered += conns.iter().map(|oc| oc.inflight.len() as u64).sum::<u64>();
    Ok(res)
}

/// Depth-1 round trips: each request is timed from before its encoding
/// to after its reply is parsed.
#[derive(Debug, Clone, Default)]
pub struct RoundTrips {
    pub tally: Tally,
    pub rtt: [Vec<u64>; 5],
    /// PINGs: round trips with no store work, interleaved with the stream.
    pub ping: Vec<u64>,
}

/// Every this many depth-1 requests, one is a PING.
pub const PING_EVERY: u64 = 8;

/// Runs depth-1 requests of the stream until `end`, with a PING in place
/// of every [`PING_EVERY`]-th so both see the same host conditions.
pub fn round_trips(addr: SocketAddr, mut st: Stepper, end: Instant) -> io::Result<RoundTrips> {
    let w = st.workload();
    let mut c = Conn::connect(addr)?;
    let mut res = RoundTrips::default();
    for i in 0.. {
        if Instant::now() >= end {
            break;
        }
        let t0 = Instant::now();
        c.wbuf.clear();
        res.tally.sent += 1;
        if i % PING_EVERY == PING_EVERY - 1 {
            ascylib_server::protocol::encode_request(&Request::Ping, &mut c.wbuf);
            c.stream.write_all(&c.wbuf)?;
            let reply = c.next_reply()?;
            res.ping.push(t0.elapsed().as_nanos() as u64);
            res.tally.answered += 1;
            match reply {
                Reply::Simple(_) => {}
                Reply::Error(_) => res.tally.errors += 1,
                _ => res.tally.wrong += 1,
            }
            continue;
        }
        let op = st.next_op();
        c.push(w, op);
        c.stream.write_all(&c.wbuf)?;
        res.tally.by_verb[op.verb.index()] += 1;
        let reply = c.next_reply()?;
        let hit = res.tally.check(w, op, reply);
        res.rtt[op.verb.index()].push(t0.elapsed().as_nanos() as u64);
        if op.verb == Verb::Get {
            st.answered_get(op.key, hit);
        }
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{fill_payload, find};

    #[test]
    fn schedule_is_seeded_increasing_and_poisson_paced() {
        let mut a = Schedule::new(3, 50_000.0);
        let mut b = Schedule::new(3, 50_000.0);
        let mut last = 0;
        let n = 100_000;
        let mut gaps = Vec::with_capacity(n);
        for _ in 0..n {
            assert_eq!(a.peek(), b.peek());
            assert!(a.peek() >= last);
            gaps.push((a.peek() - last) as f64);
            last = a.peek();
            a.advance();
            b.advance();
        }
        // 50k/s: mean gap 20 µs, and an exponential's sd equals its mean.
        let mean = gaps.iter().sum::<f64>() / n as f64;
        let sd = (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!((mean - 20_000.0).abs() < 400.0, "mean gap {mean}");
        assert!((sd / mean - 1.0).abs() < 0.05, "cv {}", sd / mean);
        assert_ne!(Schedule::new(4, 50_000.0).peek(), Schedule::new(3, 50_000.0).peek());
    }

    #[test]
    fn replies_are_checked_against_their_requests() {
        let w = find("churn_write").unwrap();
        let get = |key| Op { verb: Verb::Get, key, arg: 0 };
        let mut good = Vec::new();
        fill_payload(&mut good, 7, 2, 16);
        let mut foreign = Vec::new();
        fill_payload(&mut foreign, 9, 2, 16);
        let mut corrupt = good.clone();
        corrupt[15] ^= 0x80;

        let mut t = Tally::default();
        assert!(t.check(w, get(7), Reply::Bulk(good.clone())));
        assert!(!t.check(w, get(7), Reply::Bulk(foreign)));
        assert!(!t.check(w, get(7), Reply::Bulk(corrupt.clone())));
        // Key 7 is never deleted, key 8 is volatile: only 7's miss awaits
        // the re-read.
        assert!(!t.check(w, get(7), Reply::Null));
        assert!(!t.check(w, get(7), Reply::Null));
        assert!(!t.check(w, get(8), Reply::Null));
        assert!(!t.check(w, get(8), Reply::Error("ERR x".into())));
        assert_eq!((t.hits, t.wrong, t.errors, t.stable_misses), (1, 2, 1, 2));
        assert_eq!(t.stale_keys, vec![7, 7]);
        assert_eq!(t.failed(), 3);

        // Present again once the load stops: a stale read, not a failure.
        let mut stale = t.clone();
        stale.recheck(|_, out| {
            out.clone_from(&good);
            true
        });
        assert_eq!((stale.lost, stale.stale_reads(), stale.failed()), (0, 2, 3));
        assert!(stale.stale_keys.is_empty());
        // Still absent, or back with a corrupt payload: lost.
        for read_back in [None, Some(corrupt)] {
            let mut gone = t.clone();
            gone.recheck(|_, out| match &read_back {
                Some(p) => {
                    out.clone_from(p);
                    true
                }
                None => false,
            });
            assert_eq!((gone.lost, gone.stale_reads(), gone.failed()), (2, 0, 5));
        }
    }

    #[test]
    fn scan_pages_must_be_ordered_intact_and_complete() {
        let w = find("churn_write").unwrap();
        let pair = |k: u64| {
            let mut p = Vec::new();
            fill_payload(&mut p, k, 0, 16);
            Reply::Pair(k, p)
        };
        let scan = |key, n| Op { verb: Verb::Scan, key, arg: n };
        // Volatile key 4 may be absent; a skipped stable key (5, 7, 9) is
        // returned for the re-read.
        assert_eq!(scan_page(w, scan(3, 2), &[pair(3), pair(5)]), Some(vec![]));
        assert_eq!(scan_page(w, scan(2, 3), &[pair(3), pair(4), pair(5)]), Some(vec![]));
        assert_eq!(scan_page(w, scan(3, 2), &[pair(3), pair(7)]), Some(vec![5]));
        assert_eq!(scan_page(w, scan(3, 2), &[pair(3), pair(9)]), Some(vec![5, 7]));
        // More skipped stable keys than one racing writer explains.
        assert_eq!(scan_page(w, scan(3, 2), &[pair(3), pair(11)]), None);
        assert_eq!(scan_page(w, scan(3, 4), &[pair(3), pair(7), pair(11), pair(15)]), None);
        assert_eq!(scan_page(w, scan(3, 2), &[pair(5), pair(3)]), None);
        assert_eq!(scan_page(w, scan(4, 2), &[pair(3), pair(5)]), None);
        assert_eq!(scan_page(w, scan(3, 1), &[pair(3), pair(5)]), None);
        // A short page must reach the end of the keyspace.
        assert_eq!(scan_page(w, scan(3, 4), &[pair(3), pair(5)]), None);
        let last = w.keys - 1;
        assert_eq!(scan_page(w, scan(last, 4), &[pair(last)]), Some(vec![]));
        assert_eq!(scan_page(w, scan(last - 2, 4), &[pair(last)]), Some(vec![last - 2]));
        let mut bad = pair(3);
        if let Reply::Pair(_, p) = &mut bad {
            p[10] ^= 1;
        }
        assert_eq!(scan_page(w, scan(3, 1), &[bad]), None);
    }
}
