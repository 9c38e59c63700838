//! The worker-owned event loops: placement of connections on workers,
//! cross-worker `MONITOR` wakes, level-triggered write backpressure that
//! does not spin, and shutdown with connections parked on every worker.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ascylib::skiplist::FraserOptSkipList;
use ascylib_server::protocol::{Reply, ReplyParser};
use ascylib_server::{BlobOrderedStore, Client, Server, ServerConfig, ServerHandle};
use ascylib_shard::BlobMap;

fn start(workers: usize) -> ServerHandle {
    let map = Arc::new(BlobMap::new(4, |_| FraserOptSkipList::new()));
    let config = ServerConfig { workers, ..ServerConfig::default() };
    Server::start("127.0.0.1:0", BlobOrderedStore::new(map), config).expect("bind ephemeral port")
}

/// The `worker_conns:` line of `INFO server`.
fn worker_conns(client: &mut Client) -> String {
    let info = client.info(Some("server")).expect("INFO server");
    info.lines()
        .find_map(|l| l.strip_prefix("worker_conns:"))
        .unwrap_or_else(|| panic!("no worker_conns line in {info}"))
        .to_string()
}

/// Polls `cond` every few milliseconds for up to five seconds.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Round-robin hand-off in accept order: two connections on a two-worker
/// server sit on different workers, and the placement gauge says so on
/// both scrape surfaces.
#[test]
fn two_connections_land_on_different_workers() {
    let server = start(2);
    let mut a = Client::connect(server.addr()).expect("connect a");
    a.ping().expect("a served");
    let mut b = Client::connect(server.addr()).expect("connect b");
    b.ping().expect("b served");
    assert_eq!(worker_conns(&mut a), "1,1");
    let metrics = b.metrics().expect("METRICS");
    assert!(metrics.contains("ascy_worker_connections{worker=\"0\"} 1"), "{metrics}");
    assert!(metrics.contains("ascy_worker_connections{worker=\"1\"} 1"), "{metrics}");
    ascylib_telemetry::expo::validate(&metrics).expect("valid exposition");

    // A third connection goes back to worker 0; closing one rebalances
    // the gauge, not the placement.
    let mut c = Client::connect(server.addr()).expect("connect c");
    c.ping().expect("c served");
    assert_eq!(worker_conns(&mut c), "2,1");
    a.quit().expect("quit a");
    eventually("a's worker to retire it", || worker_conns(&mut c) == "1,1");
    drop((b, c));
    let stats = server.join();
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.connections, 3);
    assert_eq!(stats.curr_connections, 0);
}

/// Writes `n` pipelined `MGET <key>` frames (always timed, so each one
/// publishes a trace event) and reads back their `n` replies.
fn traced_burst(data: &mut TcpStream, n: usize) {
    let frames = "MGET 7\r\n".repeat(n);
    data.write_all(frames.as_bytes()).expect("write burst");
    let mut parser = ReplyParser::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut seen = 0;
    while seen < n {
        let got = data.read(&mut buf).expect("read burst replies");
        assert!(got > 0, "data connection closed mid-burst");
        parser.feed(&buf[..got]);
        while let Some(reply) = parser.next() {
            reply.expect("well-formed reply");
            seen += 1;
        }
    }
}

/// A subscriber on worker 0 is fed by traffic on worker 1: the publishing
/// worker routes the wake through the subscriber's inbox. When the
/// subscriber stops reading, the cross-worker eviction still closes it
/// in-band.
#[test]
fn monitor_wakes_and_evictions_cross_workers() {
    let server = start(2);
    let mut sub = TcpStream::connect(server.addr()).expect("connect subscriber");
    sub.write_all(b"MONITOR\r\n").expect("MONITOR");
    let mut ok = [0u8; 5];
    sub.read_exact(&mut ok).expect("MONITOR ack");
    assert_eq!(&ok, b"+OK\r\n");
    let mut data = TcpStream::connect(server.addr()).expect("connect data");
    data.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Live stream: events published on worker 1 reach worker 0's socket.
    sub.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    while !String::from_utf8_lossy(&got).contains("worker=1") {
        traced_burst(&mut data, 1);
        if let Ok(n) = sub.read(&mut buf) {
            got.extend_from_slice(&buf[..n]);
        }
        assert!(Instant::now() < deadline, "no cross-worker trace event: {got:?}");
    }
    let text = String::from_utf8_lossy(&got);
    assert!(text.contains("family=mget") && text.contains("key=7"), "{text}");
    assert!(!text.contains("worker=0"), "only worker 1 served traffic: {text}");

    // Stalled subscriber: keep publishing until its sink is evicted.
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.monitor_stats().dropped < 4096 {
        traced_burst(&mut data, 2000);
        assert!(Instant::now() < deadline, "sink never overflowed: {:?}", server.monitor_stats());
    }
    // The eviction closes the subscriber in-band once it reads again.
    sub.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut tail = Vec::new();
    sub.read_to_end(&mut tail).expect("subscriber drains to EOF");
    let tail = String::from_utf8_lossy(&tail);
    assert!(tail.contains("-ERR monitor stream lagged"), "{}", &tail[tail.len().saturating_sub(300)..]);
    eventually("the evicted subscriber to be pruned", || server.monitor_stats().subscribers == 0);
    traced_burst(&mut data, 1); // the publisher is unaffected
    drop(data);
    server.join();
}

/// A peer that stops reading parks its connection on writability: the
/// worker stops reading it, does not spin on the level-triggered socket,
/// and resumes when the peer drains.
#[test]
fn blocked_flush_waits_for_writability_without_spinning() {
    const GETS: usize = 200;
    let server = start(1);
    let mut setup = Client::connect(server.addr()).expect("connect setup");
    let value = vec![b'v'; 60_000];
    setup.set(9, &value).expect("SET big value");

    let mut peer = TcpStream::connect(server.addr()).expect("connect peer");
    // 200 x 60 KB of replies outgrow any loopback socket buffering.
    peer.write_all("GET 9\r\n".repeat(GETS).as_bytes()).expect("pipeline GETs");
    eventually("the flush to block", || server.stats().partial_writes > 0);

    // Settle, then watch: no readiness events while the peer is stalled,
    // and frames sent now stay unread.
    std::thread::sleep(Duration::from_millis(50));
    let before = server.stats();
    peer.write_all(b"PING\r\n").expect("PING while blocked");
    std::thread::sleep(Duration::from_millis(300));
    let blocked = server.stats();
    assert!(
        blocked.wakeups - before.wakeups <= 4,
        "level-triggered busy loop: {} wakeups in 300 ms",
        blocked.wakeups - before.wakeups
    );
    assert_eq!(blocked.bytes_in, before.bytes_in, "a blocked connection is not read");
    assert_eq!(blocked.frames, before.frames);

    // Drain: every reply arrives, in order, and the PING is served last.
    peer.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut parser = ReplyParser::new();
    let mut buf = vec![0u8; 256 * 1024];
    let mut replies = Vec::new();
    while replies.len() < GETS + 1 {
        let n = match peer.read(&mut buf) {
            Ok(0) => panic!("server closed the connection"),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => panic!("drain stalled after {} replies: {e}", replies.len()),
        };
        parser.feed(&buf[..n]);
        while let Some(reply) = parser.next() {
            replies.push(reply.expect("well-formed reply"));
        }
    }
    assert!(replies[..GETS].iter().all(|r| matches!(r, Reply::Bulk(v) if v.len() == value.len())));
    assert!(matches!(&replies[GETS], Reply::Simple(s) if s == "PONG"), "{:?}", replies[GETS]);
    let end = server.stats();
    assert!(end.bytes_in > blocked.bytes_in, "reading resumed after the drain");
    drop((setup, peer));
    server.join();
}

/// Shutdown reaches every worker's loop: idle connections parked on all of
/// them do not hold `join` up, and each one sees its socket close.
#[test]
fn join_returns_promptly_with_idle_connections_on_every_worker() {
    let server = start(4);
    let mut idle: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut s = TcpStream::connect(server.addr()).expect("connect idler");
            s.write_all(b"PING\r\n").expect("PING");
            let mut pong = [0u8; 7];
            s.read_exact(&mut pong).expect("PONG");
            s
        })
        .collect();
    let mut probe = Client::connect(server.addr()).expect("connect probe");
    assert_eq!(worker_conns(&mut probe), "3,2,2,2");
    drop(probe);

    let started = Instant::now();
    let stats = server.join();
    assert!(started.elapsed() < Duration::from_secs(2), "join took {:?}", started.elapsed());
    assert_eq!(stats.curr_connections, 0);
    assert_eq!(stats.connections, stats.accepted);
    for s in idle.iter_mut() {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 8];
        match s.read(&mut buf) {
            Ok(0) => {}
            Err(e) if matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe) => {}
            other => panic!("idle connection not closed by shutdown: {other:?}"),
        }
    }
}
