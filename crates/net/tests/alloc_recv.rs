//! Allocation accounting for the transports' frame-buffer circulation: the
//! UDP transport's receive path, and a whole [`NetRuntime`] over the
//! in-memory mesh.
//!
//! The UDP transport copies each datagram into the caller's buffer: a
//! caller's buffer is reused; nothing allocates per frame. Over a window of
//! paced frames the allocator must not be touched at all.
//!
//! The mesh circulates buffers instead (`send` fills a spare, `try_recv`
//! swaps), and a runtime over it must be allocation-free in steady state
//! end to end: timers, encode, mesh, decode, node exchange.
//!
//! The byte total pins the other way a queue can misuse the allocator: a
//! timer ring sized by the period is a single call for hundreds of MiB.
//!
//! Kept in its own integration-test binary because the `#[global_allocator]`
//! is process-wide; the tests take [`WINDOW`] so that no measurement window
//! sees another test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pss_core::{NodeId, PeerSamplingNode, PolicyTriple, ProtocolConfig};
use pss_net::{MemNetwork, NetAddr, NetConfig, NetRuntime, Transport, UdpTransport};
use pss_sim::LatencyModel;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested, over all calls: one huge allocation is one call.
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the system allocator; the counters are the
// only addition and are atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Serializes the tests: the counter is process-wide.
static WINDOW: Mutex<()> = Mutex::new(());

/// Sends one frame a → b and spins until b yields it into `buf`.
fn roundtrip(a: &mut UdpTransport, b: &mut UdpTransport, buf: &mut Vec<u8>, frame: &[u8]) {
    assert!(a.send(b.local_addr(), frame));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if b.try_recv(buf).is_some() {
            assert_eq!(buf, frame);
            return;
        }
        assert!(Instant::now() < deadline, "frame never arrived");
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[test]
fn steady_state_udp_receive_is_allocation_free() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let mut a = UdpTransport::bind("127.0.0.1:0").expect("bind a");
    let mut b = UdpTransport::bind("127.0.0.1:0").expect("bind b");
    let frame = [0xabu8; 900]; // a typical c = 30 frame size
    let mut buf = Vec::new();

    // Warm up: the caller's buffer grows to frame size.
    for _ in 0..32 {
        roundtrip(&mut a, &mut b, &mut buf, &frame);
    }

    const FRAMES: u64 = 200;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..FRAMES {
        roundtrip(&mut a, &mut b, &mut buf, &frame);
    }
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        during, 0,
        "{during} allocations for {FRAMES} frames — the UDP receive path allocates again"
    );
}

#[test]
fn steady_state_mem_runtime_is_allocation_free() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    const NODES: u64 = 200;
    // A short period keeps the timer wheel small (256 buckets), so its
    // buckets are all in use well before the window opens.
    let config = NetConfig {
        period: 30,
        jitter: 3,
    };
    let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 30).expect("valid");
    let net = MemNetwork::new(11, LatencyModel::Uniform { min: 1, max: 6 }, 0.0).expect("valid");
    let transport = net.endpoint();
    let addr = transport.net_addr();
    let mut rt = NetRuntime::new(transport, config, 12).expect("valid");
    for i in 0..NODES {
        let introducers: Vec<(NodeId, NetAddr)> = if i == 0 {
            Vec::new()
        } else {
            vec![(NodeId::new(i / 2), addr)]
        };
        let node = PeerSamplingNode::with_seed(NodeId::new(i), protocol.clone(), i * 31 + 5);
        rt.add_node(node, &introducers);
    }

    // Warm up: views fill, every circulating buffer grows to frame size,
    // the book learns every id, queue footprints stabilize.
    for _ in 0..20 {
        rt.run_period();
    }
    let warm = rt.stats();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..5 {
        rt.run_period();
    }
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let stats = rt.stats();
    let exchanges = stats.exchanges_completed - warm.exchanges_completed;
    assert!(
        exchanges >= 4 * NODES,
        "only {exchanges} exchanges measured"
    );
    assert_eq!(stats.book_entries, NODES);
    // A copying mesh allocates one buffer per frame, two per exchange. What
    // remains is growth to a new high-water mark — one more buffer in
    // flight than ever before, a fuller wheel bucket — a few per period and
    // thinning out; one per twenty exchanges is far above that and far
    // below one per frame.
    assert!(
        during * 20 <= exchanges,
        "{during} allocations over {exchanges} exchanges — the mem path allocates per frame again"
    );
}

#[test]
fn a_long_period_does_not_size_memory() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    const NODES: u64 = 8;
    // One hour in the cluster's 1 ms ticks: passes `validate()`, reachable
    // through `ClusterConfig::period_ms`. A ring with one slot per tick of
    // the backed-off horizon would be 2²⁵ slots, ≈ 805 MB, before the first
    // frame.
    let config = NetConfig {
        period: 3_600_000,
        jitter: 0,
    };
    config.validate().expect("a valid configuration");
    let net = MemNetwork::new(3, LatencyModel::Uniform { min: 1, max: 6 }, 0.0).expect("valid");
    let transport = net.endpoint();
    let addr = transport.net_addr();

    let before = BYTES.load(Ordering::Relaxed);
    let mut rt: NetRuntime<_, PeerSamplingNode> =
        NetRuntime::new(transport, config, 4).expect("valid");
    let requested = BYTES.load(Ordering::Relaxed) - before;
    assert!(
        requested < 4 << 20,
        "constructing the runtime requested {requested} bytes — the period sizes memory again"
    );

    let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 8).expect("valid");
    for i in 0..NODES {
        let introducers: Vec<(NodeId, NetAddr)> = if i == 0 {
            Vec::new()
        } else {
            vec![(NodeId::new(i - 1), addr)]
        };
        let node = PeerSamplingNode::with_seed(NodeId::new(i), protocol.clone(), i + 1);
        rt.add_node(node, &introducers);
    }
    // Every timer re-arms a period ahead, far beyond the ring: it waits in
    // the queue's overflow map and still fires on its tick. Without jitter
    // a node fires exactly one period after its last, so two periods hold
    // two fires of every node and no third of any.
    rt.run_period();
    assert_eq!(rt.stats().timers_fired, NODES);
    rt.run_period();
    assert_eq!(rt.stats().timers_fired, 2 * NODES);
    assert!(rt.stats().exchanges_completed > 0);
}
