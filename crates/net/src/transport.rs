//! The transport abstraction the runtime is generic over.

use pss_core::wire::NetAddr;

/// A framed-datagram transport: one endpoint multiplexing many virtual
/// nodes (frames carry their own destination node id, see
/// [`pss_core::wire`]).
///
/// Implementations are message-oriented (one `send` = one frame = one
/// `try_recv`), best-effort (frames may be lost; the protocol tolerates
/// loss by design), and non-blocking on the receive side — the runtime
/// polls between timer ticks.
pub trait Transport {
    /// This endpoint's address, as other endpoints should send to it.
    fn local_addr(&self) -> NetAddr;

    /// Sends one frame to `to`. Returns false if the transport could not
    /// hand the frame off at all (unroutable address, socket error); losses
    /// *in transit* still return true — senders cannot observe them, just
    /// as on a real network.
    fn send(&mut self, to: NetAddr, frame: &[u8]) -> bool;

    /// Puts the next pending received frame into `buf`, replacing its
    /// contents, and returns the sender's transport address, or `None` if
    /// nothing is pending. Never blocks. `buf` may be any buffer, and
    /// neither transport here allocates per frame once it has grown to
    /// frame size: UDP copies the datagram into it, the in-memory mesh
    /// swaps buffers and keeps the caller's old allocation as capacity for
    /// a later frame.
    fn try_recv(&mut self, buf: &mut Vec<u8>) -> Option<NetAddr>;

    /// Advances transport-virtual time to `now` ticks. Real-time transports
    /// ignore this (delivery is governed by the wall clock); the
    /// deterministic in-memory mesh releases frames whose simulated latency
    /// has elapsed.
    fn advance_to(&mut self, now: u64) {
        let _ = now;
    }
}
