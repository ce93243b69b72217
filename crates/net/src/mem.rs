//! Deterministic in-memory transport mesh.
//!
//! [`MemNetwork`] is a seeded message switch connecting any number of
//! [`MemTransport`] endpoints. Every frame drawn through it pays a
//! uniform-random latency and a loss draw from the mesh's own RNG — the
//! same per-message model as the event engine's
//! [`pss_sim::EventConfig`]/[`pss_sim::LatencyModel`], which is exactly
//! what lets the differential tests pin [`crate::NetRuntime`] behavior
//! statistically against the 1-shard [`pss_sim::ShardedEventSimulation`] at
//! equal `(seed, latency, loss)`.
//!
//! Frames cross the mesh as **encoded bytes**: the in-memory path exercises
//! the identical [`pss_core::wire`] codec the UDP transport puts on real
//! sockets, so a codec regression fails the deterministic tests before it
//! ever reaches a socket.
//!
//! # Frame buffers circulate
//!
//! The mesh hands frames over by pointer swap and recycles what comes
//! back: [`Transport::send`] copies the frame into a spare buffer,
//! [`Transport::try_recv`] swaps the delivered buffer with the caller's
//! and parks the caller's old one as the next spare. Once every buffer in
//! circulation has grown to frame size, a [`crate::NetRuntime`] over the
//! mesh allocates nothing per frame.
//! The spare stack is bounded ([`MAX_SPARES`]); a buffer returned to a full
//! stack is freed.
//!
//! # Determinism
//!
//! All randomness (latency, loss) comes from the construction seed, and
//! delivery order is `(deliver-at, send order)`: frames in flight wait in a
//! [`TickQueue`] — the event engine's per-tick FIFO calendar queue, its ring
//! as long as the latency model's maximum. Runs are bit-reproducible
//! when endpoints are driven from a single thread in a fixed order — the
//! harness pattern used by the tests. (The mesh is `Mutex`-guarded, so
//! multi-threaded drivers are safe but trade the reproducibility away,
//! exactly like a real network.)

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use pss_core::wire::NetAddr;
use pss_sim::{EventConfig, EventConfigError, LatencyModel, TickQueue};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::transport::Transport;

/// A frame in flight.
struct Flight {
    dst: usize,
    from: NetAddr,
    bytes: Vec<u8>,
}

/// Spare frame buffers kept for reuse, mesh-wide. The stack never holds
/// more than the most frames ever in flight at once (a send takes a spare,
/// a receive returns one) — about a thousand for 20 000 nodes at the
/// default period and latency. The bound only matters after a burst far
/// beyond that: at ≈ 1 KiB a frame it caps idle memory near 8 MiB.
const MAX_SPARES: usize = 8192;

struct Inner {
    rng: SmallRng,
    latency: LatencyModel,
    loss: f64,
    now: u64,
    in_flight: TickQueue<Flight>,
    /// Drain buffer: swapped against the queue slot of the tick landing.
    landing: Vec<Flight>,
    inboxes: Vec<VecDeque<(NetAddr, Vec<u8>)>>,
    /// Recycled frame buffers (contents stale), at most [`MAX_SPARES`].
    spares: Vec<Vec<u8>>,
    lost: u64,
    unroutable: u64,
}

/// The shared mesh; clone-cheap handle. See the `mem.rs` module docs.
#[derive(Clone)]
pub struct MemNetwork {
    inner: Arc<Mutex<Inner>>,
}

impl MemNetwork {
    /// Creates a mesh with the given latency model and loss probability.
    ///
    /// # Errors
    ///
    /// [`EventConfigError::InvalidLossProbability`] if `loss` is outside
    /// `[0, 1]`.
    pub fn new(seed: u64, latency: LatencyModel, loss: f64) -> Result<Self, EventConfigError> {
        if !(0.0..=1.0).contains(&loss) {
            return Err(EventConfigError::InvalidLossProbability(loss));
        }
        Ok(MemNetwork {
            inner: Arc::new(Mutex::new(Inner {
                rng: SmallRng::seed_from_u64(seed),
                latency,
                loss,
                now: 0,
                in_flight: TickQueue::new(latency.maximum()),
                landing: Vec::new(),
                inboxes: Vec::new(),
                spares: Vec::new(),
                lost: 0,
                unroutable: 0,
            })),
        })
    }

    /// Creates a mesh taking its latency model and loss probability from an
    /// event-engine configuration — the mirrored-semantics constructor used
    /// by the differential tests (the config's `period`/`jitter` belong to
    /// the runtime side, see [`crate::NetConfig::from_event`]).
    ///
    /// # Errors
    ///
    /// [`EventConfigError`] if the configuration is invalid.
    pub fn from_event(seed: u64, config: &EventConfig) -> Result<Self, EventConfigError> {
        config.validate()?;
        Self::new(seed, config.latency, config.loss_probability)
    }

    /// Registers a new endpoint on the mesh and returns its transport.
    pub fn endpoint(&self) -> MemTransport {
        let mut inner = self.inner.lock().expect("mesh lock");
        let id = inner.inboxes.len() as u64;
        inner.inboxes.push(VecDeque::new());
        MemTransport {
            inner: Arc::clone(&self.inner),
            id,
        }
    }

    /// Frames dropped by the loss model so far.
    pub fn lost(&self) -> u64 {
        self.inner.lock().expect("mesh lock").lost
    }

    /// Frames sent to addresses no endpoint owns.
    pub fn unroutable(&self) -> u64 {
        self.inner.lock().expect("mesh lock").unroutable
    }

    /// Frames currently in flight (sent, not yet delivered).
    pub fn in_flight(&self) -> usize {
        self.inner.lock().expect("mesh lock").in_flight.len()
    }
}

/// One endpoint of a [`MemNetwork`]; addressed as
/// [`NetAddr::Virtual`]`(endpoint index)`.
pub struct MemTransport {
    inner: Arc<Mutex<Inner>>,
    id: u64,
}

impl MemTransport {
    /// This endpoint's mesh address.
    pub fn net_addr(&self) -> NetAddr {
        NetAddr::Virtual(self.id)
    }
}

impl Transport for MemTransport {
    fn local_addr(&self) -> NetAddr {
        NetAddr::Virtual(self.id)
    }

    fn send(&mut self, to: NetAddr, frame: &[u8]) -> bool {
        let mut inner = self.inner.lock().expect("mesh lock");
        let dst = match to {
            NetAddr::Virtual(v) if (v as usize) < inner.inboxes.len() => v as usize,
            _ => {
                inner.unroutable += 1;
                return false;
            }
        };
        // Sender-side draws, in send order — the event engine's model.
        if inner.loss > 0.0 && inner.rng.random::<f64>() < inner.loss {
            inner.lost += 1;
            return true; // handed off; lost in transit, invisibly to the sender
        }
        let latency = inner.latency.sample(&mut inner.rng);
        let at = inner.now + latency;
        let mut bytes = inner.spares.pop().unwrap_or_default();
        bytes.clear();
        bytes.extend_from_slice(frame);
        let flight = Flight {
            dst,
            from: NetAddr::Virtual(self.id),
            bytes,
        };
        inner.in_flight.push(at, flight);
        true
    }

    fn try_recv(&mut self, buf: &mut Vec<u8>) -> Option<NetAddr> {
        let mut inner = self.inner.lock().expect("mesh lock");
        let (from, mut bytes) = inner.inboxes[self.id as usize].pop_front()?;
        // The caller takes the delivered buffer; its previous one becomes
        // a spare for a later send.
        core::mem::swap(buf, &mut bytes);
        if inner.spares.len() < MAX_SPARES {
            inner.spares.push(bytes);
        }
        Some(from)
    }

    fn advance_to(&mut self, now: u64) {
        let mut guard = self.inner.lock().expect("mesh lock");
        let inner = &mut *guard;
        if now > inner.now {
            inner.now = now;
        }
        while inner
            .in_flight
            .take_tick(inner.now, &mut inner.landing)
            .is_some()
        {
            for flight in inner.landing.drain(..) {
                inner.inboxes[flight.dst].push_back((flight.from, flight.bytes));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(latency: LatencyModel, loss: f64) -> MemNetwork {
        MemNetwork::new(9, latency, loss).expect("valid")
    }

    #[test]
    fn rejects_invalid_loss() {
        assert_eq!(
            MemNetwork::new(1, LatencyModel::Zero, 1.5).err(),
            Some(EventConfigError::InvalidLossProbability(1.5))
        );
    }

    #[test]
    fn delivers_after_latency_in_order() {
        let net = mesh(LatencyModel::Uniform { min: 5, max: 5 }, 0.0);
        let mut a = net.endpoint();
        let mut b = net.endpoint();
        assert!(a.send(b.net_addr(), b"one"));
        assert!(a.send(b.net_addr(), b"two"));
        let mut buf = Vec::new();
        // Nothing before the latency has elapsed.
        b.advance_to(4);
        assert!(b.try_recv(&mut buf).is_none());
        b.advance_to(5);
        assert_eq!(b.try_recv(&mut buf), Some(a.net_addr()));
        assert_eq!(buf, b"one");
        assert_eq!(b.try_recv(&mut buf), Some(a.net_addr()));
        assert_eq!(buf, b"two", "equal-latency frames keep send order");
        assert!(b.try_recv(&mut buf).is_none());
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn total_loss_drops_everything_silently() {
        let net = mesh(LatencyModel::Zero, 1.0);
        let mut a = net.endpoint();
        let mut b = net.endpoint();
        assert!(a.send(b.net_addr(), b"x"), "loss is invisible to senders");
        b.advance_to(100);
        assert!(b.try_recv(&mut Vec::new()).is_none());
        assert_eq!(net.lost(), 1);
    }

    #[test]
    fn unroutable_addresses_fail_the_send() {
        let net = mesh(LatencyModel::Zero, 0.0);
        let mut a = net.endpoint();
        assert!(!a.send(NetAddr::Virtual(99), b"x"));
        let sock: std::net::SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(!a.send(NetAddr::Sock(sock), b"x"));
        assert_eq!(net.unroutable(), 2);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let run = || {
            let net = mesh(LatencyModel::Uniform { min: 1, max: 30 }, 0.3);
            let mut a = net.endpoint();
            let mut b = net.endpoint();
            for i in 0..50u8 {
                a.send(b.net_addr(), &[i]);
            }
            b.advance_to(40);
            let mut got = Vec::new();
            let mut buf = Vec::new();
            while b.try_recv(&mut buf).is_some() {
                got.push(buf[0]);
            }
            got
        };
        let first = run();
        assert_eq!(first, run());
        assert!(!first.is_empty());
    }
}
