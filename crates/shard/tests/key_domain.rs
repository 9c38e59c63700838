//! The key domain is enforced at the safe sharded entry points in every
//! build profile: keys `0` and `u64::MAX` are the structures' sentinels,
//! and letting one through is memory corruption in release builds, not a
//! wrong answer. Each case must panic with the range message instead.

use ascylib::api::ConcurrentMap;
use ascylib::hashtable::ClhtLb;
use ascylib::skiplist::FraserOptSkipList;
use ascylib_shard::{BlobMap, ShardedMap};

const MSG: &str = "keys must be in [1, 18446744073709551614]";

fn sharded() -> ShardedMap<FraserOptSkipList> {
    ShardedMap::new(2, |_| FraserOptSkipList::new())
}

fn blob() -> BlobMap<FraserOptSkipList> {
    BlobMap::new(2, |_| FraserOptSkipList::new())
}

#[test]
#[should_panic(expected = "keys must be in [1, 18446744073709551614], got 0")]
fn sharded_map_rejects_key_zero() {
    let map = sharded();
    map.insert(0, 1);
    map.search(0);
}

#[test]
#[should_panic(expected = "got 18446744073709551615")]
fn sharded_map_rejects_key_max() {
    sharded().search(u64::MAX);
}

#[test]
#[should_panic(expected = "keys must be in")]
fn sharded_map_batches_reject_out_of_range_keys() {
    sharded().multi_get(&[5, 0]);
}

#[test]
#[should_panic(expected = "keys must be in [1, 18446744073709551614], got 0")]
fn blob_map_rejects_key_zero() {
    let map = blob();
    map.set(0, b"x");
    let mut v = Vec::new();
    map.get(0, &mut v);
}

#[test]
#[should_panic(expected = "got 18446744073709551615")]
fn blob_map_rejects_key_max() {
    let mut v = Vec::new();
    blob().get(u64::MAX, &mut v);
}

#[test]
#[should_panic(expected = "keys must be in")]
fn blob_map_batches_reject_out_of_range_keys() {
    blob().multi_get(&[u64::MAX]);
}

/// Runs `verb` and asserts it panicked with the key-range message.
fn assert_range_panic<R: std::fmt::Debug>(name: &str, key: u64, verb: impl FnOnce() -> R) {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(verb))
        .expect_err(&format!("{name}({key}) must panic"));
    let msg = err.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
    assert!(msg.starts_with(MSG), "{name}({key}): {msg:?}");
}

#[test]
fn every_blob_verb_checks_both_boundaries() {
    let map = BlobMap::new(1, |_| ClhtLb::with_capacity(16));
    for key in [0, u64::MAX] {
        assert_range_panic("set", key, || map.set(key, b"x"));
        assert_range_panic("set_ex", key, || map.set_ex(key, b"x", 10));
        assert_range_panic("contains", key, || map.contains(key));
        assert_range_panic("del", key, || map.del(key));
        assert_range_panic("expire", key, || map.expire(key, 10));
        assert_range_panic("persist", key, || map.persist(key));
        assert_range_panic("ttl_ms", key, || map.ttl_ms(key));
    }
    // The boundaries themselves are fine.
    assert!(map.set(1, b"lo") && map.set(u64::MAX - 1, b"hi"));
    assert_eq!(map.len(), 2);
}
