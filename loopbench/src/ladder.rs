//! The stock stack and the layer ladder.
//!
//! Each rung is one layer of the serving stack, from a bare skip list up to
//! the `KvStore` the server calls. Every rung is prefilled and warmed the
//! way the server's store was, then replays the wire run's op stream at the
//! wire run's thread count, so the difference between adjacent rungs is the
//! cost of the layer between them.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use ascylib::skiplist::FraserOptSkipList;
use ascylib::stats::OpCounters;
use ascylib::{ConcurrentMap, OrderedMap};
use ascylib_server::protocol::{self, wire, ReplyParser, Request, RequestParser};
use ascylib_server::{BlobOrderedStore, KvStore};
use ascylib_shard::{BlobMap, CacheConfig, HotKeyConfig, ShardedMap};

use crate::workload::{fill_payload, mix64, Kind, Op, OpGen, Verb, Workload, FILL_TTL_SECS};

pub const SHARDS: usize = 4;
pub const HOT_K: usize = 16;

pub type Blob = BlobMap<FraserOptSkipList>;

/// A blob map over the stock backing; `hot` attaches the hot-key engine,
/// `budgeted` applies the workload's byte budget.
pub fn blob_map(w: &Workload, hot: bool, budgeted: bool) -> Blob {
    let cache = match w.budget {
        Some(b) if budgeted => CacheConfig::unbounded().with_budget(b),
        _ => CacheConfig::unbounded(),
    };
    let hk = HotKeyConfig::with_k(if hot { HOT_K } else { 0 });
    BlobMap::with_config(SHARDS, hk, cache, |_| FraserOptSkipList::new())
}

/// One layer under test, driven with the workload's verbs.
pub trait Rung: Sync {
    /// `true` on a hit; blob rungs copy the value into `out`.
    fn get(&self, key: u64, out: &mut Vec<u8>) -> bool;
    /// SET or cache-aside fill of `payload` (integer rungs store the version).
    fn set(&self, op: Op, payload: &[u8]);
    fn del(&self, key: u64);
    /// Pairs returned.
    fn scan(&self, from: u64, n: usize) -> usize;
}

/// Upsert on a raw map, the way `BlobMap::set` does it: remove, then insert.
fn upsert<M: ConcurrentMap>(m: &M, key: u64, value: u64) {
    while !m.insert(key, value) {
        m.remove(key);
    }
}

impl Rung for FraserOptSkipList {
    fn get(&self, key: u64, _out: &mut Vec<u8>) -> bool {
        self.search(key).is_some()
    }
    fn set(&self, op: Op, _payload: &[u8]) {
        upsert(self, op.key, op.arg as u64 + 1);
    }
    fn del(&self, key: u64) {
        self.remove(key);
    }
    fn scan(&self, from: u64, n: usize) -> usize {
        OrderedMap::scan(self, from, n).len()
    }
}

impl Rung for ShardedMap<FraserOptSkipList> {
    fn get(&self, key: u64, _out: &mut Vec<u8>) -> bool {
        self.search(key).is_some()
    }
    fn set(&self, op: Op, _payload: &[u8]) {
        upsert(self, op.key, op.arg as u64 + 1);
    }
    fn del(&self, key: u64) {
        self.remove(key);
    }
    fn scan(&self, from: u64, n: usize) -> usize {
        OrderedMap::scan(self, from, n).len()
    }
}

impl Rung for Blob {
    fn get(&self, key: u64, out: &mut Vec<u8>) -> bool {
        BlobMap::get(self, key, out)
    }
    fn set(&self, op: Op, payload: &[u8]) {
        if op.verb == Verb::Fill {
            self.set_ex(op.key, payload, FILL_TTL_SECS * 1000);
        } else {
            BlobMap::set(self, op.key, payload);
        }
    }
    fn del(&self, key: u64) {
        BlobMap::del(self, key);
    }
    fn scan(&self, from: u64, n: usize) -> usize {
        BlobMap::scan(self, from, n).len()
    }
}

impl Rung for BlobOrderedStore<FraserOptSkipList> {
    fn get(&self, key: u64, out: &mut Vec<u8>) -> bool {
        KvStore::get(self, key, out)
    }
    fn set(&self, op: Op, payload: &[u8]) {
        if op.verb == Verb::Fill {
            self.set_ex(op.key, payload, FILL_TTL_SECS * 1000);
        } else {
            KvStore::set(self, op.key, payload);
        }
    }
    fn del(&self, key: u64) {
        KvStore::del(self, key);
    }
    fn scan(&self, from: u64, n: usize) -> usize {
        KvStore::scan(self, from, n).map_or(0, |v| v.len())
    }
}

/// An op stream plus the cache-aside rule: a GET miss is followed by a fill.
#[derive(Debug)]
pub struct Stepper {
    gen: OpGen,
    fill: Option<Op>,
}

impl Stepper {
    pub fn new(gen: OpGen) -> Self {
        Stepper { gen, fill: None }
    }

    pub fn next_op(&mut self) -> Op {
        self.fill.take().unwrap_or_else(|| self.gen.next_op())
    }

    /// Reports the outcome of a GET; queues the fill a miss calls for.
    pub fn answered_get(&mut self, key: u64, hit: bool) {
        if !hit && self.gen.workload().kind == Kind::CacheAside {
            self.fill = Some(self.gen.fill(key));
        }
    }

    pub fn workload(&self) -> &'static Workload {
        self.gen.workload()
    }
}

/// Writes the payload `op` stores into `val` (SET and fill only).
pub fn payload_for(w: &Workload, op: Op, val: &mut Vec<u8>) {
    fill_payload(val, op.key, op.arg, w.value_len(op.key, op.arg));
}

/// Executes `op` (its payload already in `val`); `true` if a GET hit.
fn exec<R: Rung + ?Sized>(r: &R, op: Op, val: &[u8], out: &mut Vec<u8>) -> bool {
    match op.verb {
        Verb::Get => return r.get(op.key, out),
        Verb::Set | Verb::Fill => r.set(op, val),
        Verb::Del => r.del(op.key),
        Verb::Scan => {
            r.scan(op.key, op.arg as usize);
        }
    }
    false
}

/// Loads the workload's prefill into `r` (version 0 of every key). One
/// thread: ssmem pools memory per thread, so repeated set-ups on the same
/// thread reuse it instead of growing the process.
pub fn prefill<R: Rung + ?Sized>(r: &R, w: &Workload, seed: u64) {
    let mut val = Vec::new();
    for key in w.prefill_keys(seed) {
        let op = Op { verb: Verb::Set, key, arg: 0 };
        payload_for(w, op, &mut val);
        r.set(op, &val);
    }
}

/// Sub-seed of the warm-up stream, distinct from every connection's.
const WARM_SEED: u64 = 0x5741_524D;

/// Runs the warm-up stream on one thread while `more(ops_done)` holds;
/// returns the ops run.
pub fn warm<R: Rung + ?Sized>(
    r: &R,
    w: &'static Workload,
    seed: u64,
    mut more: impl FnMut(u64) -> bool,
) -> u64 {
    let mut st = Stepper::new(w.generator(mix64(seed ^ WARM_SEED), 0, 1, w.zipf()));
    let (mut val, mut out) = (Vec::new(), Vec::new());
    let mut done = 0;
    while more(done) {
        let op = st.next_op();
        if matches!(op.verb, Verb::Set | Verb::Fill) {
            payload_for(w, op, &mut val);
        }
        let hit = exec(r, op, &val, &mut out);
        if op.verb == Verb::Get {
            st.answered_get(op.key, hit);
        }
        done += 1;
    }
    done
}

/// The warm-up the server's store gets: `hot_read` trains the hot-key
/// engine; `cache_aside` reads through until CLOCK has evicted as many
/// values as the budget held when evictions began (one full turnover).
pub fn warm_stock(map: &Blob, w: &'static Workload, seed: u64) -> u64 {
    match w.kind {
        Kind::HotRead => warm(map, w, seed, |done| done < 4 * w.keys),
        Kind::ChurnWrite => 0,
        Kind::CacheAside => {
            let mut target = None;
            warm(map, w, seed, |done| {
                if done % 1024 != 0 {
                    return true;
                }
                let c = map.cache_stats();
                match target {
                    None if c.evictions > 0 => {
                        target = Some(c.evictions + map.len() as u64);
                        true
                    }
                    None => true,
                    Some(t) => c.evictions < t,
                }
            })
        }
    }
}

/// Summed chunk times per verb, from the chunked replay timer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VerbCost {
    pub ns: [u64; 5],
    pub ops: [u64; 5],
    pub chunks: [u64; 5],
    pub gets: u64,
    pub hits: u64,
}

/// Most same-verb ops timed as one chunk.
pub const CHUNK: u32 = 64;

impl VerbCost {
    pub fn merge(&mut self, o: &VerbCost) {
        for i in 0..5 {
            self.ns[i] += o.ns[i];
            self.ops[i] += o.ops[i];
            self.chunks[i] += o.chunks[i];
        }
        self.gets += o.gets;
        self.hits += o.hits;
    }

    fn add(&mut self, v: Verb, ops: u32, d: Duration) {
        self.ns[v.index()] += d.as_nanos() as u64;
        self.ops[v.index()] += ops as u64;
        self.chunks[v.index()] += 1;
    }

    /// Mean ns per op of `v`, with one timer read per chunk taken off.
    pub fn per_op(&self, v: Verb, timer_ns: f64) -> f64 {
        let i = v.index();
        if self.ops[i] == 0 {
            return 0.0;
        }
        (self.ns[i] as f64 - timer_ns * self.chunks[i] as f64) / self.ops[i] as f64
    }

    /// SET and fill together: the write path of the workload.
    pub fn write_per_op(&self, timer_ns: f64) -> f64 {
        let (s, f) = (Verb::Set.index(), Verb::Fill.index());
        let ops = self.ops[s] + self.ops[f];
        if ops == 0 {
            return 0.0;
        }
        let ns = (self.ns[s] + self.ns[f]) as f64;
        (ns - timer_ns * (self.chunks[s] + self.chunks[f]) as f64) / ops as f64
    }
}

/// Replays `n` ops of one connection's stream, timing runs of up to
/// [`CHUNK`] consecutive same-verb ops with one clock read per boundary.
/// Writes are single-op chunks whose timer starts after the payload is
/// built, so payload generation is never charged to the layer.
pub fn replay<R: Rung + ?Sized>(r: &R, mut st: Stepper, n: u64) -> VerbCost {
    let w = st.workload();
    let (mut val, mut out) = (Vec::new(), Vec::new());
    let mut cost = VerbCost::default();
    let mut chunk: Option<(Verb, u32)> = None;
    let mut t0 = Instant::now();
    for _ in 0..n {
        let op = st.next_op();
        let writes = matches!(op.verb, Verb::Set | Verb::Fill);
        let extends = matches!(chunk, Some((v, len)) if !writes && v == op.verb && len < CHUNK);
        if !extends {
            let t = Instant::now();
            if let Some((v, len)) = chunk {
                cost.add(v, len, t - t0);
            }
            t0 = t;
            if writes {
                payload_for(w, op, &mut val);
                t0 = Instant::now();
            }
            chunk = Some((op.verb, 0));
        }
        let hit = exec(r, op, &val, &mut out);
        if let Some((_, len)) = chunk.as_mut() {
            *len += 1;
        }
        if op.verb == Verb::Get {
            cost.gets += 1;
            cost.hits += hit as u64;
            st.answered_get(op.key, hit);
        }
    }
    if let Some((v, len)) = chunk {
        cost.add(v, len, t0.elapsed());
    }
    cost
}

/// Replays every connection's stream on its own thread, all released by
/// one barrier; returns the merged cost and the structure counters
/// (`ascylib::stats`) the replay threads recorded.
pub fn run_rung<R: Rung + ?Sized>(
    r: &R,
    w: &'static Workload,
    seed: u64,
    counts: &[u64],
) -> (VerbCost, OpCounters) {
    let conns = counts.len() as u32;
    let barrier = Barrier::new(counts.len());
    let zipf = w.zipf();
    let results: Vec<(VerbCost, OpCounters)> = std::thread::scope(|s| {
        let handles: Vec<_> = counts
            .iter()
            .enumerate()
            .map(|(c, &n)| {
                let st = Stepper::new(w.generator(seed, c as u32, conns, zipf.clone()));
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let before = ascylib::stats::snapshot();
                    let cost = replay(r, st, n);
                    (cost, ascylib::stats::snapshot().saturating_sub(&before))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread panicked")).collect()
    });
    let mut cost = VerbCost::default();
    let mut ops = OpCounters::default();
    for (c, o) in &results {
        cost.merge(c);
        ops.merge(o);
    }
    (cost, ops)
}

/// Cost of one `Instant::now()` read, the median of several estimates.
pub fn timer_ns() -> f64 {
    let mut est: Vec<f64> = (0..7)
        .map(|_| {
            let n = 200_000;
            let t = Instant::now();
            for _ in 0..n {
                std::hint::black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    est.sort_by(f64::total_cmp);
    est[est.len() / 2]
}

/// Nanoseconds per op of each codec stage, for one verb or all verbs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CodecCost {
    pub encode_request: f64,
    pub parse_request: f64,
    pub encode_reply: f64,
    pub parse_reply: f64,
}

impl CodecCost {
    pub fn total(&self) -> f64 {
        self.encode_request + self.parse_request + self.encode_reply + self.parse_reply
    }
}

/// Encodes the request frame of `op` (payload in `val` for writes), as the
/// benchmark's client sends it.
pub fn encode_op(op: Op, val: &[u8], out: &mut Vec<u8>) {
    match op.verb {
        Verb::Get => protocol::encode_request(&Request::Get(op.key), out),
        Verb::Set => protocol::encode_set(out, op.key, val),
        Verb::Fill => protocol::encode_set_ex(out, op.key, val, FILL_TTL_SECS),
        Verb::Del => protocol::encode_request(&Request::Del(op.key), out),
        Verb::Scan => protocol::encode_request(&Request::Scan(op.key, op.arg as usize), out),
    }
}

/// The reply body the server would send for `op`: a hit for GETs and a
/// full page of prefill payloads for SCANs.
enum Body {
    Bulk(Vec<u8>),
    Int,
    Pairs(Vec<(u64, Vec<u8>)>),
}

fn reply_body(w: &Workload, op: Op) -> Body {
    let payload = |k: u64| {
        let mut p = Vec::new();
        fill_payload(&mut p, k, 0, w.value_len(k, 0));
        p
    };
    match op.verb {
        Verb::Get => Body::Bulk(payload(op.key)),
        Verb::Set | Verb::Fill | Verb::Del => Body::Int,
        Verb::Scan => {
            Body::Pairs((op.key..op.key + op.arg as u64).map(|k| (k, payload(k))).collect())
        }
    }
}

fn encode_reply(body: &Body, out: &mut Vec<u8>) {
    match body {
        Body::Bulk(p) => wire::bulk(out, p),
        Body::Int => wire::int(out, 1),
        Body::Pairs(pairs) => {
            wire::array_header(out, pairs.len());
            for (k, p) in pairs {
                wire::pair(out, *k, p);
            }
        }
    }
}

/// Times the four codec stages over `n` ops of connection 0's stream, in
/// blocks of 1024 ops grouped by verb (codec work is stateless, so order
/// within a block does not matter). Reply bodies are built untimed first;
/// only each stage's own loop is inside the clock.
pub fn codec_costs(w: &'static Workload, seed: u64, n: u64) -> ([CodecCost; 5], [u64; 5]) {
    let mut gen = w.generator(seed, 0, 2, w.zipf());
    let mut ns = [[0u64; 4]; 5];
    let mut ops = [0u64; 5];
    let mut val = Vec::new();
    let mut done = 0;
    while done < n {
        let block: Vec<Op> = (0..1024).map(|_| gen.next_op()).collect();
        done += block.len() as u64;
        for v in Verb::ALL {
            let mine: Vec<Op> = block.iter().copied().filter(|o| o.verb == v).collect();
            if mine.is_empty() {
                continue;
            }
            let vals: Vec<Vec<u8>> = mine
                .iter()
                .map(|&op| {
                    if matches!(op.verb, Verb::Set | Verb::Fill) {
                        payload_for(w, op, &mut val);
                        val.clone()
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            let bodies: Vec<Body> = mine.iter().map(|&op| reply_body(w, op)).collect();
            let i = v.index();
            ops[i] += mine.len() as u64;

            let mut req = Vec::with_capacity(64 * mine.len());
            let t = Instant::now();
            for (op, val) in mine.iter().zip(&vals) {
                encode_op(*op, val, &mut req);
            }
            ns[i][0] += t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            let mut parser = RequestParser::new();
            parser.feed(&req);
            let mut parsed = 0;
            while let Some(r) = parser.next() {
                std::hint::black_box(r.expect("own request frames parse"));
                parsed += 1;
            }
            ns[i][1] += t.elapsed().as_nanos() as u64;
            assert_eq!(parsed, mine.len(), "request frames lost in parsing");

            let mut out = Vec::with_capacity(req.len() + 64 * mine.len());
            let t = Instant::now();
            for body in &bodies {
                encode_reply(body, &mut out);
            }
            ns[i][2] += t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            let mut rp = ReplyParser::new();
            rp.feed(&out);
            let mut parsed = 0;
            while let Some(r) = rp.next() {
                std::hint::black_box(r.expect("own reply frames parse"));
                parsed += 1;
            }
            ns[i][3] += t.elapsed().as_nanos() as u64;
            assert_eq!(parsed, mine.len(), "reply frames lost in parsing");
        }
    }
    let mut costs = [CodecCost::default(); 5];
    for v in Verb::ALL {
        let i = v.index();
        if ops[i] > 0 {
            let per = |s: usize| ns[i][s] as f64 / ops[i] as f64;
            costs[i] = CodecCost {
                encode_request: per(0),
                parse_request: per(1),
                encode_reply: per(2),
                parse_reply: per(3),
            };
        }
    }
    (costs, ops)
}
