//! The UDP transport: one socket per runtime, many virtual nodes.
//!
//! A [`UdpTransport`] is one non-blocking `std::net::UdpSocket` and no
//! thread: the runtime thread reads the socket itself, inside
//! [`Transport::try_recv`], when a tick drains its frames (see
//! [`crate::NetRuntime`]'s per-tick batch), and a `WouldBlock` ends the
//! drain until the next tick. Each datagram — one wire frame, see
//! [`pss_core::wire`] — is read into one buffer of
//! [`pss_core::wire::MAX_FRAME_LEN`] bytes, zeroed once at bind time, and
//! its `n` bytes are copied into the caller's buffer: one copy per frame,
//! and no allocation once the caller's buffer has grown to frame size.
//!
//! # The kernel's receive buffer is the queue
//!
//! Between two drains, frames wait in the socket's kernel receive buffer.
//! At ≈ 20 000 frames/s (a 1 000-node runtime at 10 exchanges per node
//! and second) a 1 ms tick leaves ≈ 20 frames of ≈ 1 KB there, against
//! Linux's default 212 992-byte `rmem`; a runtime that stalls far longer
//! loses datagrams, which the protocol tolerates like any other loss. A
//! send that would block fails and is counted like any other send failure.
//! No receive thread: one blocked in `recv_from` is woken per datagram, and
//! the sender pays for the wake-up, while frames are read only at ticks.
//!
//! Virtual-node multiplexing happens one layer up: frames carry their own
//! destination node id, the runtime routes them. The transport never looks
//! inside a frame.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};

use pss_core::wire::{NetAddr, MAX_FRAME_LEN};

use crate::transport::Transport;

/// See the [module docs](self).
pub struct UdpTransport {
    socket: UdpSocket,
    local: SocketAddr,
    /// Every datagram lands here before its bytes are copied out. It holds
    /// the codec's own frame bound, so every frame `wire::encode` can
    /// produce fits (~32 KB; typical frames are ~1 KB at the paper's
    /// c = 30). Larger datagrams are truncated by the OS and then rejected
    /// by the codec's length check, which the runtime counts.
    datagram: Vec<u8>,
}

impl UdpTransport {
    /// Binds a non-blocking socket (`"127.0.0.1:0"` for an ephemeral
    /// loopback port).
    ///
    /// # Errors
    ///
    /// Any socket-level error from binding or configuring the socket.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        Ok(UdpTransport {
            local: socket.local_addr()?,
            socket,
            datagram: vec![0; MAX_FRAME_LEN],
        })
    }

    /// The bound address as a [`NetAddr`] (what peers put in frames).
    pub fn net_addr(&self) -> NetAddr {
        NetAddr::Sock(self.local)
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
        // Nothing pending (`WouldBlock`) and transient errors (a peer's
        // port closed, on some platforms) alike end the drain until a tick.
        let (n, from) = self.socket.recv_from(&mut self.datagram).ok()?;
        buf.clear();
        buf.extend_from_slice(&self.datagram[..n]);
        Some(NetAddr::Sock(from))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Polls `t` until a frame lands in `buf`, for up to five seconds.
    fn recv_within(t: &mut UdpTransport, buf: &mut Vec<u8>) -> Option<NetAddr> {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Some(from) = t.try_recv(buf) {
                return Some(from);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        None
    }

    /// Sends `len` bytes of a pattern that no shift of itself matches
    /// between two fresh transports; returns them and what arrived.
    fn deliver(len: usize) -> (Vec<u8>, Vec<u8>) {
        let mut a = UdpTransport::bind("127.0.0.1:0").expect("bind a");
        let mut b = UdpTransport::bind("127.0.0.1:0").expect("bind b");
        let sent: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        assert!(a.send(b.net_addr(), &sent));
        let mut got = Vec::new();
        assert_eq!(recv_within(&mut b, &mut got), Some(a.net_addr()));
        (sent, got)
    }

    #[test]
    fn idle_socket_yields_nothing_at_once() {
        let mut t = UdpTransport::bind("127.0.0.1:0").expect("bind");
        let started = Instant::now();
        assert_eq!(t.try_recv(&mut Vec::new()), None);
        assert!(started.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn a_max_length_frame_arrives_byte_for_byte() {
        let (sent, got) = deliver(MAX_FRAME_LEN);
        assert_eq!(got, sent);
    }

    #[test]
    fn an_oversized_datagram_arrives_truncated_to_the_frame_bound() {
        let (sent, got) = deliver(MAX_FRAME_LEN + 100);
        assert_eq!(got, sent[..MAX_FRAME_LEN]);
    }

    #[test]
    fn loopback_roundtrip() {
        let mut a = UdpTransport::bind("127.0.0.1:0").expect("bind a");
        let mut b = UdpTransport::bind("127.0.0.1:0").expect("bind b");
        assert!(a.send(b.net_addr(), b"frame-1"));
        assert!(a.send(b.net_addr(), b"frame-2"));
        let mut buf = Vec::new();
        let mut got = Vec::new();
        while got.len() < 2 {
            assert_eq!(recv_within(&mut b, &mut buf), Some(a.net_addr()));
            got.push(buf.clone());
        }
        got.sort();
        assert_eq!(got, vec![b"frame-1".to_vec(), b"frame-2".to_vec()]);
    }

    #[test]
    fn virtual_addresses_are_unroutable() {
        let mut a = UdpTransport::bind("127.0.0.1:0").expect("bind");
        assert!(!a.send(NetAddr::Virtual(3), b"x"));
    }
}
