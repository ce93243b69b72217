//! The UDP transport: one socket per runtime, many virtual nodes.
//!
//! A [`UdpTransport`] owns one `std::net::UdpSocket` plus a background
//! receive thread. The thread blocks on the socket (with a short timeout so
//! shutdown is prompt) and parks each datagram — one wire frame, see
//! [`pss_core::wire`] — in the **receive ring**: a pair of deques of owned,
//! prewarmed buffers shared with the runtime thread.
//!
//! # The receive ring
//!
//! `frames` holds filled buffers travelling thread → runtime; `spent` holds
//! empty ones travelling back. The receive thread reads every datagram
//! into one buffer of its own, of [`pss_core::wire::MAX_FRAME_LEN`] bytes
//! and zeroed once, and copies its `n` bytes into a spent buffer — a frame
//! costs a copy of itself, not a clear of the whole maximum-length buffer.
//! [`Transport::try_recv`] hands a frame over by **pointer swap**
//! (`mem::swap` with the caller's buffer — no byte copy), and the caller's
//! previous buffer drops into `spent` for the receive thread to fill next.
//! The ring is prewarmed to its configured depth at bind time, so in
//! steady state the datagram path allocates nothing: every buffer in
//! circulation was created before the first frame (an empty buffer a
//! caller swaps in grows once, on its first fill). If the runtime falls
//! behind and the receive thread finds `spent` dry, it allocates a fresh
//! buffer and counts a **ring-empty event**
//! ([`UdpTransport::ring_empty_events`], surfaced as
//! [`crate::RuntimeStats::recv_ring_empty`]) — the signal to raise the
//! depth. Earlier revisions recycled over `mpsc` channels, which silently
//! fell back to a fresh 8 KB allocation per frame whenever the return
//! channel raced the receive thread, and copied every frame once more on
//! the runtime side.
//!
//! Virtual-node multiplexing happens one layer up: frames carry their own
//! destination node id, the runtime routes them. The transport never looks
//! inside a frame.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use pss_core::wire::NetAddr;

use crate::transport::Transport;

/// Largest datagram the receive loop accepts: the codec's own frame bound,
/// so every frame `wire::encode` can legally produce fits (~32 KB at
/// `MAX_DESCRIPTORS`; typical frames are ~1 KB at the paper's c = 30).
/// Larger datagrams are truncated by the OS and then rejected by the
/// codec's length check, which the runtime counts as a decode failure.
const RECV_BUFFER_LEN: usize = pss_core::wire::MAX_FRAME_LEN;

/// Default receive-ring depth: buffers prewarmed at bind time and the cap
/// on parked spent buffers. One runtime drains its transport every tick,
/// so the ring only needs to cover the frames arriving within one tick.
pub const DEFAULT_RING_DEPTH: usize = 16;

/// The two directions of the receive ring plus its diagnostics; shared by
/// the socket thread and the runtime thread.
struct Ring {
    /// Filled buffers: receive thread → runtime.
    frames: Mutex<VecDeque<(SocketAddr, Vec<u8>)>>,
    /// Empty buffers riding back: runtime → receive thread.
    spent: Mutex<VecDeque<Vec<u8>>>,
    /// Times the receive thread found `spent` dry and had to allocate.
    ring_empty: AtomicU64,
    /// Cap on parked spent buffers (= the prewarm depth).
    depth: usize,
}

/// Ring locks are held for single push/pop operations only; recovering
/// from poisoning keeps one panicking thread from wedging the other.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// See the [module docs](self).
pub struct UdpTransport {
    socket: UdpSocket,
    local: SocketAddr,
    ring: Arc<Ring>,
    stop: Arc<AtomicBool>,
    recv_thread: Option<JoinHandle<()>>,
}

impl UdpTransport {
    /// Binds a socket (`"127.0.0.1:0"` for an ephemeral loopback port) and
    /// starts the receive thread, with the ring prewarmed to
    /// [`DEFAULT_RING_DEPTH`] buffers.
    ///
    /// # Errors
    ///
    /// Any socket-level error from binding or configuring the socket.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::bind_with_ring_depth(addr, DEFAULT_RING_DEPTH)
    }

    /// [`UdpTransport::bind`] with an explicit ring depth: `depth` receive
    /// buffers (of the maximum frame length each) are allocated up front,
    /// and at most `depth` spent buffers are kept parked. A depth of zero
    /// disables pooling entirely (every frame allocates — only useful to
    /// measure the ring's effect).
    ///
    /// # Errors
    ///
    /// Any socket-level error from binding or configuring the socket.
    pub fn bind_with_ring_depth(addr: impl ToSocketAddrs, depth: usize) -> io::Result<Self> {
        let socket = UdpSocket::bind(addr)?;
        let local = socket.local_addr()?;
        let reader = socket.try_clone()?;
        // A finite read timeout lets the receive thread notice `stop`
        // without any platform-specific socket shutdown dance.
        reader.set_read_timeout(Some(Duration::from_millis(25)))?;
        let ring = Arc::new(Ring {
            frames: Mutex::new(VecDeque::with_capacity(depth)),
            // Prewarm: every steady-state buffer exists before frame one.
            spent: Mutex::new(
                (0..depth)
                    .map(|_| Vec::with_capacity(RECV_BUFFER_LEN))
                    .collect(),
            ),
            ring_empty: AtomicU64::new(0),
            depth,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let thread_ring = Arc::clone(&ring);
        let thread_stop = Arc::clone(&stop);
        let recv_thread = std::thread::spawn(move || {
            recv_loop(&reader, &thread_ring, &thread_stop);
        });
        Ok(UdpTransport {
            socket,
            local,
            ring,
            stop,
            recv_thread: Some(recv_thread),
        })
    }

    /// The bound socket address.
    pub fn local_socket_addr(&self) -> SocketAddr {
        self.local
    }

    /// The bound address as a [`NetAddr`] (what peers put in frames).
    pub fn net_addr(&self) -> NetAddr {
        NetAddr::Sock(self.local)
    }

    /// Times the receive thread found the spent ring dry and allocated a
    /// fresh buffer. Zero in steady state; a growing count means the ring
    /// depth is too small for the frame rate.
    pub fn ring_empty_events(&self) -> u64 {
        self.ring.ring_empty.load(Ordering::Relaxed)
    }

    /// Spent buffers currently parked in the ring (diagnostic).
    pub fn pooled_buffers(&self) -> usize {
        lock(&self.ring.spent).len()
    }
}

fn recv_loop(socket: &UdpSocket, ring: &Ring, stop: &AtomicBool) {
    // The socket reads into this one thread-owned buffer, zeroed once;
    // each datagram's `n` bytes are then copied into a ring buffer.
    let mut datagram = vec![0u8; RECV_BUFFER_LEN];
    while !stop.load(Ordering::Relaxed) {
        // Idle wakeups (`WouldBlock`/`TimedOut`) and transient
        // ICMP-induced errors (e.g. a peer's port closed, on some
        // platforms) alike: keep receiving.
        let Ok((n, from)) = socket.recv_from(&mut datagram) else {
            continue;
        };
        // Reuse a spent buffer; falling back to a fresh allocation is the
        // ring-empty event the stats surface.
        let mut buf = lock(&ring.spent).pop_front().unwrap_or_else(|| {
            ring.ring_empty.fetch_add(1, Ordering::Relaxed);
            Vec::with_capacity(RECV_BUFFER_LEN)
        });
        buf.clear();
        buf.extend_from_slice(&datagram[..n]);
        lock(&ring.frames).push_back((from, buf));
    }
}

/// Returns a buffer to the spent ring, dropping it if the ring is full
/// (the depth bounds idle memory).
fn park_spent(ring: &Ring, buffer: Vec<u8>) {
    let mut spent = lock(&ring.spent);
    if spent.len() < ring.depth {
        spent.push_back(buffer);
    }
}

impl Transport for UdpTransport {
    fn local_addr(&self) -> NetAddr {
        NetAddr::Sock(self.local)
    }

    fn send(&mut self, to: NetAddr, frame: &[u8]) -> bool {
        match to {
            NetAddr::Sock(addr) => {
                matches!(self.socket.send_to(frame, addr), Ok(n) if n == frame.len())
            }
            NetAddr::Virtual(_) => false,
        }
    }

    fn try_recv(&mut self, buf: &mut Vec<u8>) -> Option<NetAddr> {
        let (from, mut bytes) = lock(&self.ring.frames).pop_front()?;
        // Zero-copy handoff: the caller takes ownership of the filled
        // buffer by pointer swap, and the caller's previous buffer rides
        // back to the receive thread as ring capacity.
        core::mem::swap(buf, &mut bytes);
        park_spent(&self.ring, bytes);
        Some(NetAddr::Sock(from))
    }

    fn recv_ring_empty(&self) -> u64 {
        self.ring_empty_events()
    }
}

impl Drop for UdpTransport {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.recv_thread.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_roundtrip_and_recycling() {
        let mut a = UdpTransport::bind("127.0.0.1:0").expect("bind a");
        let mut b = UdpTransport::bind("127.0.0.1:0").expect("bind b");
        assert!(a.send(b.net_addr(), b"frame-1"));
        assert!(a.send(b.net_addr(), b"frame-2"));
        let mut buf = Vec::new();
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.len() < 2 && std::time::Instant::now() < deadline {
            match b.try_recv(&mut buf) {
                Some(from) => {
                    assert_eq!(from, a.net_addr());
                    got.push(buf.clone());
                }
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        got.sort();
        assert_eq!(got, vec![b"frame-1".to_vec(), b"frame-2".to_vec()]);
        // The prewarmed ring absorbed both frames without allocating.
        assert_eq!(b.ring_empty_events(), 0);
    }

    #[test]
    fn ring_is_prewarmed_to_the_configured_depth() {
        let t = UdpTransport::bind_with_ring_depth("127.0.0.1:0", 4).expect("bind");
        // The receive thread holds at most one buffer while blocked in
        // recv_from; the rest stay parked.
        assert!(t.pooled_buffers() >= 3, "{}", t.pooled_buffers());
        assert_eq!(t.ring_empty_events(), 0);
    }

    #[test]
    fn zero_depth_ring_counts_every_allocation() {
        let mut a = UdpTransport::bind("127.0.0.1:0").expect("bind a");
        let mut b = UdpTransport::bind_with_ring_depth("127.0.0.1:0", 0).expect("bind b");
        assert_eq!(b.pooled_buffers(), 0);
        assert!(a.send(b.net_addr(), b"x"));
        let mut buf = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while b.try_recv(&mut buf).is_none() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(buf, b"x");
        // With no prewarmed buffers, the very first receive had to allocate.
        assert!(b.ring_empty_events() >= 1);
    }

    #[test]
    fn swapped_out_caller_buffers_flow_back_to_the_ring() {
        let mut a = UdpTransport::bind("127.0.0.1:0").expect("bind a");
        let mut b = UdpTransport::bind_with_ring_depth("127.0.0.1:0", 2).expect("bind b");
        let mut buf = Vec::new();
        for i in 0..10u8 {
            assert!(a.send(b.net_addr(), &[i; 3]));
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while b.try_recv(&mut buf).is_none() && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(buf, [i; 3]);
        }
        // Capacity kept circulating: at most the one cold-start allocation
        // (the caller's initial zero-capacity buffer entering the ring).
        assert!(b.ring_empty_events() <= 1, "{}", b.ring_empty_events());
    }

    #[test]
    fn virtual_addresses_are_unroutable() {
        let mut a = UdpTransport::bind("127.0.0.1:0").expect("bind");
        assert!(!a.send(NetAddr::Virtual(3), b"x"));
    }

    #[test]
    fn drop_joins_the_receive_thread() {
        let t = UdpTransport::bind("127.0.0.1:0").expect("bind");
        let started = std::time::Instant::now();
        drop(t);
        assert!(started.elapsed() < Duration::from_secs(2));
    }
}
