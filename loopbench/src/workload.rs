//! Workloads, seeded op streams, and self-validating payloads.
//!
//! Every input the benchmark feeds the program comes from here and is a
//! pure function of the seed, so the wire run and every ladder rung can
//! replay the exact same op stream.

use std::sync::Arc;

/// SplitMix64: small, fast, and good enough for load generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, n)` (Lemire's multiply-shift reduction).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The SplitMix64 finalizer, also used to derive checksums and sub-seeds.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf(theta) over ranks `0..n`, sampled in O(1) from a Vose alias table.
#[derive(Debug)]
pub struct Zipf {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0u32; n];
        let mut prob = vec![1.0f64; n];
        let (mut small, mut large): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| scaled[i] < 1.0);
        while let (Some(s), Some(&l)) = (small.pop(), large.last()) {
            prob[s] = scaled[s];
            alias[s] = l as u32;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        Zipf { prob, alias }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let i = rng.below(self.prob.len() as u64) as usize;
        if rng.unit() < self.prob[i] {
            i as u64
        } else {
            self.alias[i] as u64
        }
    }
}

/// Maps a popularity rank onto a key in `1..=2^bits`, a bijection that
/// scatters hot ranks across shards and skip-list positions.
pub fn scatter(rank: u64, bits: u32) -> u64 {
    let mask = (1u64 << bits) - 1;
    let mut x = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;
    x ^= x >> (bits / 2).max(1);
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93) & mask;
    x + 1
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotRead,
    ChurnWrite,
    CacheAside,
}

/// One named traffic mix.
#[derive(Debug)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    pub stresses: &'static str,
    pub bypasses: &'static str,
    /// Keyspace size, a power of two; keys are `1..=keys`.
    pub keys: u64,
    pub zipf_theta: Option<f64>,
    /// Per-mille shares of GET, SET, DEL, SCAN.
    pub mix: [u32; 4],
    /// Total byte budget of the cache tier (`None` = unbounded).
    pub budget: Option<u64>,
    /// Open-loop arrival rate over both connections, requests per second:
    /// 1/15 to 1/30 of the closed-loop throughput on a 2-vCPU Xeon VM, so
    /// that the unpipelined requests stay far from saturating the server
    /// even while the host takes half of the guest's CPU.
    pub open_rate: f64,
}

/// TTL of cache-aside fills; outlives any run.
pub const FILL_TTL_SECS: u64 = 300;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        kind: Kind::HotRead,
        name: "hot_read",
        why: "tiny skewed reads: the hot-key front serves most GETs, so event loop and codec dominate",
        stresses: "server event loop, protocol codec, shard.hotkey front cache",
        bypasses: "shard.cache (no budget), DEL and SCAN paths",
        keys: 1 << 16,
        zipf_theta: Some(1.2),
        mix: [950, 50, 0, 0],
        budget: None,
        open_rate: 10_000.0,
    },
    Workload {
        kind: Kind::ChurnWrite,
        name: "churn_write",
        why: "write-heavy uniform churn over a working set larger than the LLC",
        stresses: "BlobMap overwrite, ssmem retirement, skip-list traversal, cross-shard scan merge",
        bypasses: "shard.hotkey (uniform keys never promote), shard.cache (no budget)",
        keys: 1 << 20,
        zipf_theta: None,
        mix: [500, 400, 50, 50],
        budget: None,
        open_rate: 10_000.0,
    },
    Workload {
        kind: Kind::CacheAside,
        name: "cache_aside",
        why: "read-through cache: 256 MiB of 1 KiB values against a 64 MiB budget",
        stresses: "shard.cache CLOCK eviction and budget ledger on every fill, payload copies",
        bypasses: "shard.hotkey front (TTL values are never fronted), DEL and SCAN paths",
        keys: 1 << 18,
        zipf_theta: Some(0.99),
        mix: [1000, 0, 0, 0],
        budget: Some(64 << 20),
        open_rate: 10_000.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Steady-state occupancy of `churn_write`'s volatile half: a volatile key
/// is set at rate 400/N and deleted at rate 50/(N/2), so it is present
/// 400 / (400 + 100) of the time.
pub const VOLATILE_OCCUPANCY: f64 = 0.8;

impl Workload {
    fn bits(&self) -> u32 {
        self.keys.trailing_zeros()
    }

    /// `true` if a GET miss on `key` is a wrong answer: the key was
    /// prefilled and no op ever deletes it.
    pub fn never_deleted(&self, key: u64) -> bool {
        match self.kind {
            Kind::HotRead => true,
            Kind::ChurnWrite => key % 2 == 1,
            Kind::CacheAside => false,
        }
    }

    /// Length of the value written for `key` at `version`. A pure function
    /// of its inputs, so every rung of a replay writes the same bytes.
    pub fn value_len(&self, key: u64, version: u32) -> usize {
        match self.kind {
            Kind::HotRead => 64,
            Kind::ChurnWrite => {
                if mix64(key ^ ((version as u64) << 40)).is_multiple_of(10) {
                    256
                } else {
                    16
                }
            }
            Kind::CacheAside => 1024,
        }
    }

    /// Keys present before timing starts, in a seeded insertion order (so
    /// node addresses do not follow key order). The `churn_write` volatile
    /// half is filled at its steady-state occupancy.
    pub fn prefill_keys(&self, seed: u64) -> Vec<u64> {
        let mut rng = Rng::new(mix64(seed ^ 0x5052_4546));
        let mut keys: Vec<u64> = match self.kind {
            Kind::HotRead => (1..=self.keys).collect(),
            Kind::ChurnWrite => {
                (1..=self.keys).filter(|k| k % 2 == 1 || rng.unit() < VOLATILE_OCCUPANCY).collect()
            }
            Kind::CacheAside => Vec::new(),
        };
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below(i as u64 + 1) as usize);
        }
        keys
    }

    /// A fresh generator for connection `conn` of `conns`. Generators with
    /// equal arguments yield equal streams.
    pub fn generator(
        &'static self,
        seed: u64,
        conn: u32,
        conns: u32,
        zipf: Option<Arc<Zipf>>,
    ) -> OpGen {
        OpGen {
            w: self,
            rng: Rng::new(mix64(seed ^ mix64(conn as u64 + 1))),
            zipf,
            next_version: conn + 1,
            stride: conns,
        }
    }

    /// The popularity table this workload samples from, if skewed.
    pub fn zipf(&self) -> Option<Arc<Zipf>> {
        self.zipf_theta.map(|t| Arc::new(Zipf::new(self.keys as usize, t)))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Get,
    Set,
    Del,
    Scan,
    /// A cache-aside fill (`SET … EX`), issued after a GET miss.
    Fill,
}

impl Verb {
    pub const ALL: [Verb; 5] = [Verb::Get, Verb::Set, Verb::Del, Verb::Scan, Verb::Fill];

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One request: for SET/Fill `arg` is the write version, for SCAN the count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub verb: Verb,
    pub key: u64,
    pub arg: u32,
}

/// A seeded op stream of one connection.
#[derive(Debug)]
pub struct OpGen {
    w: &'static Workload,
    rng: Rng,
    zipf: Option<Arc<Zipf>>,
    next_version: u32,
    stride: u32,
}

impl OpGen {
    pub fn workload(&self) -> &'static Workload {
        self.w
    }

    fn key(&mut self) -> u64 {
        match &self.zipf {
            Some(z) => scatter(z.sample(&mut self.rng), self.w.bits()),
            None => self.rng.below(self.w.keys) + 1,
        }
    }

    /// A version no other connection uses.
    pub fn version(&mut self) -> u32 {
        let v = self.next_version;
        self.next_version = self.next_version.wrapping_add(self.stride);
        v
    }

    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(1000) as u32;
        let [get, set, del, _] = self.w.mix;
        if roll < get {
            Op { verb: Verb::Get, key: self.key(), arg: 0 }
        } else if roll < get + set {
            let key = self.key();
            Op { verb: Verb::Set, key, arg: self.version() }
        } else if roll < get + set + del {
            // Only the volatile (even) half is ever deleted.
            let key = 2 * (self.rng.below(self.w.keys / 2) + 1);
            Op { verb: Verb::Del, key, arg: 0 }
        } else {
            let key = self.key();
            Op { verb: Verb::Scan, key, arg: self.rng.below(16) as u32 + 1 }
        }
    }

    /// The fill that follows a cache-aside GET miss on `key`.
    pub fn fill(&mut self, key: u64) -> Op {
        Op { verb: Verb::Fill, key, arg: self.version() }
    }
}

/// Payload layout: key (8 B LE), write version (4 B LE), checksum of
/// `(key, version, length)` (4 B LE), then filler derived from the
/// checksum. A payload read back is valid only for its own key, and any
/// flipped, dropped or foreign byte breaks the checksum or the filler.
pub const HEADER: usize = 16;

fn checksum(key: u64, version: u32, len: usize) -> u32 {
    (mix64(key ^ ((version as u64) << 32) ^ (len as u64).wrapping_mul(0xA24B_AED4_963E_E407)) >> 32)
        as u32
}

/// The filler word stream seeded by a payload's checksum (xorshift64).
fn filler_words(sum: u32, key: u64) -> impl Iterator<Item = u64> {
    let mut state = mix64(key ^ ((sum as u64) << 17)) | 1;
    std::iter::repeat_with(move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    })
}

/// Writes the payload of `key` at `version` (`len >= HEADER`) into `out`.
pub fn fill_payload(out: &mut Vec<u8>, key: u64, version: u32, len: usize) {
    assert!(len >= HEADER, "payloads carry a {HEADER}-byte header");
    let sum = checksum(key, version, len);
    out.clear();
    out.resize(len, 0);
    out[0..8].copy_from_slice(&key.to_le_bytes());
    out[8..12].copy_from_slice(&version.to_le_bytes());
    out[12..16].copy_from_slice(&sum.to_le_bytes());
    for (chunk, word) in out[HEADER..].chunks_mut(8).zip(filler_words(sum, key)) {
        chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BadPayload {
    Short(usize),
    WrongKey(u64),
    Checksum,
    Filler,
}

/// Checks that `p` is an intact payload written for `key`; returns its
/// write version.
pub fn check_payload(key: u64, p: &[u8]) -> Result<u32, BadPayload> {
    if p.len() < HEADER {
        return Err(BadPayload::Short(p.len()));
    }
    let found = u64::from_le_bytes(p[0..8].try_into().expect("8-byte slice"));
    if found != key {
        return Err(BadPayload::WrongKey(found));
    }
    let version = u32::from_le_bytes(p[8..12].try_into().expect("4-byte slice"));
    let sum = u32::from_le_bytes(p[12..16].try_into().expect("4-byte slice"));
    if sum != checksum(key, version, p.len()) {
        return Err(BadPayload::Checksum);
    }
    for (chunk, word) in p[HEADER..].chunks(8).zip(filler_words(sum, key)) {
        if chunk != &word.to_le_bytes()[..chunk.len()] {
            return Err(BadPayload::Filler);
        }
    }
    Ok(version)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_round_trip_for_every_workload_length() {
        let mut buf = Vec::new();
        for w in &WORKLOADS {
            for (key, version) in [(1u64, 0u32), (w.keys, 7), (12345 % w.keys + 1, u32::MAX)] {
                fill_payload(&mut buf, key, version, w.value_len(key, version));
                assert_eq!(check_payload(key, &buf), Ok(version));
            }
        }
    }

    #[test]
    fn validator_rejects_corrupted_truncated_and_foreign_payloads() {
        let mut buf = Vec::new();
        fill_payload(&mut buf, 42, 3, 64);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            assert!(check_payload(42, &bad).is_err(), "flipped byte {i} passed");
        }
        assert_eq!(check_payload(42, &buf[..HEADER - 1]), Err(BadPayload::Short(HEADER - 1)));
        assert!(check_payload(42, &buf[..40]).is_err());
        let mut other = Vec::new();
        fill_payload(&mut other, 43, 3, 64);
        assert_eq!(check_payload(42, &other), Err(BadPayload::WrongKey(43)));
        // A foreign payload relabelled with this key still fails.
        other[0..8].copy_from_slice(&42u64.to_le_bytes());
        assert!(check_payload(42, &other).is_err());
    }

    #[test]
    fn streams_are_pure_functions_of_seed_and_connection() {
        let w = find("churn_write").unwrap();
        let take = |seed, conn| {
            let mut g = w.generator(seed, conn, 2, w.zipf());
            (0..1000).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(1, 1));
        assert_ne!(take(1, 0), take(2, 0));
    }

    #[test]
    fn mixes_match_their_shares_and_deletes_stay_volatile() {
        let w = find("churn_write").unwrap();
        let mut g = w.generator(9, 0, 2, None);
        let mut counts = [0u32; 5];
        for _ in 0..100_000 {
            let op = g.next_op();
            counts[op.verb.index()] += 1;
            assert!((1..=w.keys).contains(&op.key));
            if op.verb == Verb::Del {
                assert!(!w.never_deleted(op.key));
            }
            if op.verb == Verb::Scan {
                assert!((1..=16).contains(&op.arg));
            }
        }
        for (i, share) in w.mix.iter().enumerate() {
            let got = counts[i] as f64 / 100.0;
            assert!((got - *share as f64).abs() < 10.0, "verb {i}: {got} per mille");
        }
    }

    #[test]
    fn versions_are_unique_across_connections() {
        let w = find("hot_read").unwrap();
        let mut a = w.generator(1, 0, 2, None);
        let mut b = w.generator(1, 1, 2, None);
        let va: Vec<u32> = (0..100).map(|_| a.version()).collect();
        let vb: Vec<u32> = (0..100).map(|_| b.version()).collect();
        assert!(va.iter().all(|v| !vb.contains(v) && *v != 0));
    }

    #[test]
    fn scatter_is_a_bijection_onto_the_keyspace() {
        let bits = 12;
        let mut seen = vec![false; 1 << bits];
        for r in 0..(1u64 << bits) {
            let k = scatter(r, bits);
            assert!((1..=1 << bits).contains(&k));
            assert!(!std::mem::replace(&mut seen[(k - 1) as usize], true));
        }
    }

    #[test]
    fn zipf_head_carries_its_expected_share() {
        let z = Zipf::new(1 << 16, 1.2);
        let mut rng = Rng::new(5);
        let n = 200_000;
        let top = (0..n).filter(|_| z.sample(&mut rng) == 0).count() as f64 / n as f64;
        let h: f64 = (1..=(1 << 16)).map(|r| 1.0 / (r as f64).powf(1.2)).sum();
        assert!((top - 1.0 / h).abs() < 0.01, "rank-0 share {top}");
    }
}
