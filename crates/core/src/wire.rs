//! The wire codec: a versioned, length-prefixed binary frame format for
//! [`Request`](crate::Request)/[`Reply`](crate::Reply) messages carried
//! over real transports.
//!
//! The simulators move [`crate::Request`]/[`crate::Reply`] values between
//! nodes in-process; a deployment has to put them on a wire. This module
//! defines that wire form — used by the `pss-net` crate's UDP and in-memory
//! transports — with three properties the in-process types do not need:
//!
//! 1. **Addresses travel with descriptors.** In the paper's system model a
//!    descriptor *is* an address ("an address that is needed for sending a
//!    message to that node"); in-process the opaque [`NodeId`] plays that
//!    role. On the wire every descriptor carries `(id, age, address)` — a
//!    [`NetAddr`] — so receivers learn how to reach every node they hear
//!    about, exactly as gossip membership requires. Addresses cross the
//!    codec's boundary in their 19-byte wire form, a [`WireAddr`]:
//!    [`encode`] copies the form its resolver returns, and
//!    [`read_descriptors`] hands its `learn` callback the bytes as
//!    received, with the tag byte checked. A caller that keeps the wire
//!    form of every address it knows compares 19 bytes per descriptor and
//!    parses only an address it has not seen.
//! 2. **Strict decoding.** Frames from a network are untrusted:
//!    [`decode`] and [`read_descriptors`] are bounds-checked everywhere and
//!    reject truncated, oversized, length-mismatched, bad-magic/-version,
//!    and duplicate-id frames with a typed [`DecodeError`] instead of
//!    panicking or silently truncating. A rejected body teaches nothing:
//!    [`read_descriptors`] validates every descriptor before it hands
//!    the first address to `learn`.
//! 3. **Zero-copy decode into staging buffers.** [`read_descriptors`]
//!    appends straight into a caller-provided buffer (in practice a
//!    recycled [`crate::staging`] message buffer), so a received frame is
//!    absorbed by the fused [`crate::View::merge_select_from_slice`] path
//!    without any intermediate allocation.
//!
//! # Frame layout
//!
//! All multi-byte integers are **little-endian**. One frame:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length: bytes after this field (u32 LE)
//! 4       4     magic "PSSW"
//! 8       1     version (2; decoders accept exactly this)
//! 9       1     kind: 1 = request, 2 = reply, 3 = app
//! 10      1     flags: bit 0 = wants_reply (requests only; else 0)
//! 11      1     reserved (0)
//! 12      8     source node id (u64 LE)
//! 20      8     destination node id (u64 LE)
//! 28      19    source address (see below)
//! 47      2     descriptor count (u16 LE)
//! 49      31×n  descriptors
//! ```
//!
//! One descriptor (31 bytes):
//!
//! ```text
//! offset  size  field
//! 0       8     node id (u64 LE)
//! 8       4     age / hop count (u32 LE)
//! 12      19    address
//! ```
//!
//! The age field carries whatever age dimension the deployment runs
//! ([`crate::Freshness`] — hop counts by default, clock-derived timestamp
//! ages under [`crate::Freshness::Timestamp`]); the bytes are identical
//! either way.
//!
//! One address (19 bytes): a tag byte, 16 address bytes, and a port:
//!
//! ```text
//! tag 4: IPv4 — 4 address bytes, 12 zero bytes, u16 LE port
//! tag 6: IPv6 — 16 address bytes, u16 LE port
//! tag 0: virtual endpoint — u64 LE endpoint id, 8 zero bytes, zero port
//! ```
//!
//! The virtual tag exists for deterministic in-memory transports, which
//! address endpoints by integer id; it round-trips through the identical
//! codec so the in-memory mesh exercises the exact bytes the UDP transport
//! sends.

use core::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

use crate::{NodeDescriptor, NodeId};

/// Frame magic: the first four payload bytes of every frame.
pub const MAGIC: [u8; 4] = *b"PSSW";

/// Codec version: the only one encoders emit and decoders accept. Version
/// 2 added the [`FrameKind::App`] application frame.
pub const VERSION: u8 = 2;

/// Encoded size of a [`NetAddr`].
pub const ADDR_LEN: usize = 19;

/// Encoded size of one descriptor: id (8) + age (4) + address (19).
pub const DESCRIPTOR_LEN: usize = 8 + 4 + ADDR_LEN;

/// Full header size, including the 4-byte length prefix.
pub const HEADER_LEN: usize = 4 + 4 + 1 + 1 + 1 + 1 + 8 + 8 + ADDR_LEN + 2;

/// Upper bound on descriptors per frame; decoding rejects larger counts.
/// Generous relative to practical view sizes (the paper uses c ≤ 30), tight
/// enough to bound the decode cost of a hostile frame.
pub const MAX_DESCRIPTORS: usize = 1024;

/// Largest possible frame in bytes.
pub const MAX_FRAME_LEN: usize = HEADER_LEN + MAX_DESCRIPTORS * DESCRIPTOR_LEN;

/// A transport-level address, as carried on the wire.
///
/// Real transports use socket addresses; deterministic in-memory transports
/// address endpoints by integer id. Virtual node ids ([`NodeId`]) map to
/// `NetAddr`s through the runtime's address book, which is populated from
/// bootstrap introducers and from every received descriptor.
///
/// IPv6 addresses are carried as octets + port only: `scope_id` and
/// `flowinfo` are not encoded, so a link-local address round-trips with
/// scope 0. Cross-host deployment over link-local scopes needs a wire
/// revision (tracked in the ROADMAP alongside NAT-safe address learning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetAddr {
    /// A real socket address (UDP in `pss-net`).
    Sock(SocketAddr),
    /// A virtual endpoint id (in-memory transport mesh).
    Virtual(u64),
}

impl fmt::Display for NetAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetAddr::Sock(s) => write!(f, "{s}"),
            NetAddr::Virtual(v) => write!(f, "mem:{v}"),
        }
    }
}

/// Address tag bytes.
const TAG_VIRTUAL: u8 = 0;
const TAG_V4: u8 = 4;
const TAG_V6: u8 = 6;

/// A [`NetAddr`] in its 19-byte wire form (see the module docs' address
/// layout), with a tag byte the codec accepts.
///
/// The two ways to get one are converting a [`NetAddr`], which writes the
/// canonical form (zero padding), and [`read_descriptors`], which hands
/// over a received address's bytes after checking the tag. Equality is
/// byte equality. A sender may put nonzero bytes in an address's padding,
/// so two unequal wire forms can still name the same [`NetAddr`]; compare
/// the parsed addresses when that matters.
///
/// The bytes are held as three little-endian words (bytes 0–7, 8–15 and
/// 16–18), so moving or comparing one is three word operations. Held as a
/// 19-byte array, filled and read through the stack, the copies and
/// compares on the runtime's frame path cost more than the parsing and
/// re-encoding the wire form replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WireAddr([u64; 3]);

impl WireAddr {
    /// The address at the start of `b` (at least [`ADDR_LEN`] bytes), tag
    /// unchecked.
    fn read(b: &[u8]) -> Self {
        // Bytes 15..19 in one load; byte 15 is the second word's top.
        let tail = get_u32(&b[15..19]) >> 8;
        WireAddr([get_u64(&b[0..8]), get_u64(&b[8..16]), tail as u64])
    }

    /// Writes the 19 bytes, as they go on the wire, to `out[..ADDR_LEN]`.
    fn write(self, out: &mut [u8]) {
        out[0..8].copy_from_slice(&self.0[0].to_le_bytes());
        out[8..16].copy_from_slice(&self.0[1].to_le_bytes());
        out[16..19].copy_from_slice(&self.0[2].to_le_bytes()[..3]);
    }
}

// Both conversions work on the words directly (byte `i` of the wire form
// is bits `8 × (i % 8)..` of word `i / 8`): going through a byte array
// would make each word load wait on the byte stores that filled it.

impl From<NetAddr> for WireAddr {
    fn from(addr: NetAddr) -> Self {
        match addr {
            NetAddr::Sock(SocketAddr::V4(s)) => {
                let ip = u32::from_le_bytes(s.ip().octets()) as u64;
                WireAddr([TAG_V4 as u64 | ip << 8, 0, (s.port() as u64) << 8])
            }
            NetAddr::Sock(SocketAddr::V6(s)) => {
                let ip = u128::from_le_bytes(s.ip().octets());
                WireAddr([
                    TAG_V6 as u64 | (ip as u64) << 8,
                    (ip >> 56) as u64,
                    (ip >> 120) as u64 | (s.port() as u64) << 8,
                ])
            }
            NetAddr::Virtual(v) => WireAddr([TAG_VIRTUAL as u64 | v << 8, v >> 56, 0]),
        }
    }
}

impl From<WireAddr> for NetAddr {
    /// Parses the wire form; padding bytes are ignored.
    fn from(wire: WireAddr) -> Self {
        let [low, mid, high] = wire.0;
        let port = (high >> 8) as u16;
        match low as u8 {
            TAG_V4 => {
                let ip = Ipv4Addr::from(((low >> 8) as u32).to_le_bytes());
                NetAddr::Sock(SocketAddr::new(IpAddr::V4(ip), port))
            }
            TAG_V6 => {
                let ip = (low >> 8) as u128 | (mid as u128) << 56 | ((high & 0xff) as u128) << 120;
                let ip = Ipv6Addr::from(ip.to_le_bytes());
                NetAddr::Sock(SocketAddr::new(IpAddr::V6(ip), port))
            }
            // Every WireAddr carries one of the three tags.
            _ => NetAddr::Virtual(low >> 8 | mid << 56),
        }
    }
}

/// Frame kind: which protocol message the frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An active-thread request ([`crate::Request`]).
    Request,
    /// A passive-thread reply ([`crate::Reply`]).
    Reply,
    /// An application payload riding the gossip wire:
    /// same length-prefixed header, and the descriptor region is free for
    /// app use (the broadcast storm sends it empty — the frame itself is
    /// the rumor). App frames never want a reply and carry zero flags.
    App,
}

const KIND_REQUEST: u8 = 1;
const KIND_REPLY: u8 = 2;
const KIND_APP: u8 = 3;
const FLAG_WANTS_REPLY: u8 = 0b0000_0001;

/// Why a frame could not be encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// More descriptors than [`MAX_DESCRIPTORS`].
    TooManyDescriptors(usize),
    /// The address book has no address for a view entry — the caller must
    /// skip the send (it has nobody to route the descriptor to).
    MissingAddress(NodeId),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::TooManyDescriptors(n) => {
                write!(
                    f,
                    "{n} descriptors exceed the frame limit {MAX_DESCRIPTORS}"
                )
            }
            EncodeError::MissingAddress(id) => write!(f, "no known address for {id}"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Why a frame was rejected by [`decode`] or [`read_descriptors`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than a full header.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes present.
        have: usize,
    },
    /// The magic bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported codec version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Flag bits outside the defined set, or `wants_reply` on a reply.
    BadFlags(u8),
    /// The length prefix disagrees with the actual byte count.
    LengthMismatch {
        /// Payload length the prefix declares.
        declared: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The descriptor count exceeds [`MAX_DESCRIPTORS`].
    Oversized {
        /// The declared count.
        count: usize,
    },
    /// The descriptor region size is not `count × DESCRIPTOR_LEN`.
    BodySizeMismatch {
        /// Declared descriptor count.
        count: usize,
        /// Bytes in the descriptor region.
        body: usize,
    },
    /// An address tag byte is not 0/4/6.
    BadAddrTag(u8),
    /// The same node id appears in two descriptors — valid view content
    /// holds at most one descriptor per node.
    DuplicateId(NodeId),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::BadFlags(b) => write!(f, "invalid flags {b:#010b}"),
            DecodeError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "length prefix says {declared} payload bytes, found {actual}"
                )
            }
            DecodeError::Oversized { count } => {
                write!(
                    f,
                    "{count} descriptors exceed the frame limit {MAX_DESCRIPTORS}"
                )
            }
            DecodeError::BodySizeMismatch { count, body } => write!(
                f,
                "descriptor region is {body} bytes, expected {count} × {DESCRIPTOR_LEN}"
            ),
            DecodeError::BadAddrTag(t) => write!(f, "unknown address tag {t}"),
            DecodeError::DuplicateId(id) => write!(f, "duplicate descriptor id {id}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A decoded frame header plus its (validated-size) descriptor region.
///
/// Produced by [`decode`]; borrow of the receive buffer, nothing copied.
/// Descriptor *contents* (address tags, duplicate ids) are validated by
/// [`read_descriptors`], which is the copying step.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// Request or reply.
    pub kind: FrameKind,
    /// For requests: must the receiver answer with its own view?
    pub wants_reply: bool,
    /// Sending node.
    pub src: NodeId,
    /// Destination node (one transport endpoint multiplexes many).
    pub dst: NodeId,
    /// The sender's transport address, for replying and address learning.
    pub src_addr: NetAddr,
    /// Number of descriptors carried.
    pub count: usize,
    /// The raw descriptor region, exactly `count × DESCRIPTOR_LEN` bytes.
    body: &'a [u8],
}

fn get_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn get_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn get_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Accepts the three address tags.
fn check_tag(tag: u8) -> Result<(), DecodeError> {
    match tag {
        TAG_VIRTUAL | TAG_V4 | TAG_V6 => Ok(()),
        tag => Err(DecodeError::BadAddrTag(tag)),
    }
}

/// Encodes one frame into `buf` (cleared first, so a reused buffer is
/// allocation-free in steady state).
///
/// `addr_of` resolves each descriptor's transport address — the caller's
/// address book. Protocol invariants guarantee the book covers every view
/// entry (entries only arrive via decoded frames or bootstrap introducers,
/// both of which feed the book), so [`EncodeError::MissingAddress`] means a
/// caller-side bookkeeping bug; callers count it and skip the send.
///
/// A frame's addresses — `src_addr` and every one `addr_of` returns — come
/// in one form `A`: [`NetAddr`]s are encoded, [`WireAddr`]s copied as they
/// are. A caller that keeps its addresses' wire forms skips the encoding
/// (the runtime's peer table does); the bytes are the same either way.
///
/// # Errors
///
/// [`EncodeError::TooManyDescriptors`] above [`MAX_DESCRIPTORS`], or
/// [`EncodeError::MissingAddress`] from `addr_of`.
#[allow(clippy::too_many_arguments)]
pub fn encode<A: Into<WireAddr>>(
    buf: &mut Vec<u8>,
    kind: FrameKind,
    wants_reply: bool,
    src: NodeId,
    dst: NodeId,
    src_addr: A,
    descriptors: &[NodeDescriptor],
    mut addr_of: impl FnMut(NodeId) -> Option<A>,
) -> Result<(), EncodeError> {
    if descriptors.len() > MAX_DESCRIPTORS {
        return Err(EncodeError::TooManyDescriptors(descriptors.len()));
    }
    buf.clear();
    buf.reserve(HEADER_LEN + descriptors.len() * DESCRIPTOR_LEN);
    let payload = (HEADER_LEN - 4) + descriptors.len() * DESCRIPTOR_LEN;
    // Header and descriptors are each built as one fixed-size record and
    // appended whole: one capacity check per record, not one per field.
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&(payload as u32).to_le_bytes());
    header[4..8].copy_from_slice(&MAGIC);
    header[8] = VERSION;
    header[9] = match kind {
        FrameKind::Request => KIND_REQUEST,
        FrameKind::Reply => KIND_REPLY,
        FrameKind::App => KIND_APP,
    };
    if wants_reply && kind == FrameKind::Request {
        header[10] = FLAG_WANTS_REPLY;
    }
    // header[11] is reserved (0).
    header[12..20].copy_from_slice(&src.as_u64().to_le_bytes());
    header[20..28].copy_from_slice(&dst.as_u64().to_le_bytes());
    src_addr.into().write(&mut header[28..47]);
    header[47..49].copy_from_slice(&(descriptors.len() as u16).to_le_bytes());
    buf.extend_from_slice(&header);
    for d in descriptors {
        let addr: WireAddr = addr_of(d.id())
            .ok_or(EncodeError::MissingAddress(d.id()))?
            .into();
        let mut record = [0u8; DESCRIPTOR_LEN];
        record[0..8].copy_from_slice(&d.id().as_u64().to_le_bytes());
        record[8..12].copy_from_slice(&d.hop_count().to_le_bytes());
        addr.write(&mut record[12..]);
        buf.extend_from_slice(&record);
    }
    debug_assert_eq!(buf.len(), payload + 4);
    Ok(())
}

/// The destination node id a frame's header names, read without
/// validating anything else: `None` only below [`HEADER_LEN`] bytes.
///
/// A receiver's lookahead hint — it lets the destination's state start
/// loading before [`decode`] runs. Garbage in gives an arbitrary id out, so
/// nothing may be routed on it; routing comes from [`decode`].
pub fn peek_dst(bytes: &[u8]) -> Option<NodeId> {
    (bytes.len() >= HEADER_LEN).then(|| NodeId::new(get_u64(&bytes[20..28])))
}

/// Decodes and validates a frame header from one received datagram/frame.
///
/// `bytes` must be exactly one frame (datagram transports deliver framed
/// messages; stream transports split on the length prefix first). The
/// descriptor region's *size* is validated here; its contents are validated
/// by [`read_descriptors`].
///
/// # Errors
///
/// Any [`DecodeError`] except [`DecodeError::DuplicateId`], which only
/// [`read_descriptors`] can produce. ([`DecodeError::BadAddrTag`] can come
/// from either step: here for a corrupt header source address, from
/// `read_descriptors` for a corrupt descriptor address.)
pub fn decode(bytes: &[u8]) -> Result<Frame<'_>, DecodeError> {
    if bytes.len() < HEADER_LEN {
        return Err(DecodeError::Truncated {
            need: HEADER_LEN,
            have: bytes.len(),
        });
    }
    let declared = get_u32(&bytes[0..4]) as usize;
    let actual = bytes.len() - 4;
    if declared != actual {
        return Err(DecodeError::LengthMismatch { declared, actual });
    }
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&bytes[4..8]);
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    if bytes[8] != VERSION {
        return Err(DecodeError::BadVersion(bytes[8]));
    }
    let kind = match bytes[9] {
        KIND_REQUEST => FrameKind::Request,
        KIND_REPLY => FrameKind::Reply,
        KIND_APP => FrameKind::App,
        k => return Err(DecodeError::BadKind(k)),
    };
    let flags = bytes[10];
    if flags & !FLAG_WANTS_REPLY != 0 || (kind != FrameKind::Request && flags != 0) {
        return Err(DecodeError::BadFlags(flags));
    }
    let src = NodeId::new(get_u64(&bytes[12..20]));
    let dst = NodeId::new(get_u64(&bytes[20..28]));
    check_tag(bytes[28])?;
    let src_addr = NetAddr::from(WireAddr::read(&bytes[28..]));
    let count = get_u16(&bytes[47..49]) as usize;
    if count > MAX_DESCRIPTORS {
        return Err(DecodeError::Oversized { count });
    }
    let body = &bytes[HEADER_LEN..];
    if body.len() != count * DESCRIPTOR_LEN {
        return Err(DecodeError::BodySizeMismatch {
            count,
            body: body.len(),
        });
    }
    Ok(Frame {
        kind,
        wants_reply: flags & FLAG_WANTS_REPLY != 0,
        src,
        dst,
        src_addr,
        count,
        body,
    })
}

/// Reusable duplicate-id detection table for [`read_descriptors`]: an
/// epoch-stamped open-addressing set, so repeated decodes share one
/// allocation and never pay a clear.
#[derive(Default)]
pub struct DecodeScratch {
    /// `(key, epoch stamp)` pairs: a probe reads one cache line, not one
    /// in a key array and another in a stamp array.
    slots: Vec<(u64, u32)>,
    epoch: u32,
}

impl DecodeScratch {
    /// Creates an empty scratch; it sizes itself on first use.
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// Prepares the table for `n` insertions and bumps the epoch.
    fn begin(&mut self, n: usize) {
        let capacity = (n * 4).next_power_of_two().max(64);
        if self.slots.len() < capacity {
            self.slots = vec![(0, 0); capacity];
            self.epoch = 0;
        }
        if self.epoch == u32::MAX {
            self.slots.fill((0, 0));
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Inserts `key`; false if it was already present this epoch.
    fn insert(&mut self, key: u64) -> bool {
        let mask = self.slots.len() - 1;
        // SplitMix64-style scramble for the probe start.
        let mut h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
        let mut i = (h as usize) & mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.1 != self.epoch {
                *slot = (key, self.epoch);
                return true;
            }
            if slot.0 == key {
                return false;
            }
            i = (i + 1) & mask;
        }
    }
}

/// Validates and copies a frame's descriptors into `out`, then hands every
/// `(id, address)` pair to `learn` (the caller's address book), the address
/// in its wire form.
///
/// `learn` runs only once the whole body has passed: a frame rejected for
/// its last descriptor teaches nothing about its first. Each address's tag
/// byte is checked; its other bytes are handed over as received, so a
/// caller that already knows the address compares bytes instead of parsing
/// (see [`WireAddr`] on padding).
///
/// `out` is cleared first: pass a recycled [`crate::staging`] message
/// buffer and the whole receive path — decode, absorb via
/// [`crate::View::merge_select_from_slice`], recycle — is allocation-free
/// in steady state. Descriptors are appended exactly as sent (un-aged);
/// receivers age them during the absorb, as the protocol skeleton
/// specifies.
///
/// # Errors
///
/// [`DecodeError::BadAddrTag`] or [`DecodeError::DuplicateId`]; `out` is
/// left cleared on error so a rejected frame cannot leak partial content,
/// and `learn` is not called.
pub fn read_descriptors(
    frame: &Frame<'_>,
    out: &mut Vec<NodeDescriptor>,
    scratch: &mut DecodeScratch,
    mut learn: impl FnMut(NodeId, WireAddr),
) -> Result<(), DecodeError> {
    out.clear();
    scratch.begin(frame.count);
    for chunk in frame.body.chunks_exact(DESCRIPTOR_LEN) {
        let id = NodeId::new(get_u64(&chunk[0..8]));
        let age = get_u32(&chunk[8..12]);
        if let Err(e) = check_tag(chunk[12]) {
            out.clear();
            return Err(e);
        }
        if !scratch.insert(id.as_u64()) {
            out.clear();
            return Err(DecodeError::DuplicateId(id));
        }
        out.push(NodeDescriptor::new(id, age));
    }
    for (d, chunk) in out.iter().zip(frame.body.chunks_exact(DESCRIPTOR_LEN)) {
        learn(d.id(), WireAddr::read(&chunk[12..]));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4(port: u16) -> NetAddr {
        NetAddr::Sock(SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), port))
    }

    fn sample_frame(descriptors: &[NodeDescriptor]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode(
            &mut buf,
            FrameKind::Request,
            true,
            NodeId::new(7),
            NodeId::new(9),
            v4(4100),
            descriptors,
            |id| Some(v4(5000 + id.as_u64() as u16)),
        )
        .expect("encodes");
        buf
    }

    #[test]
    fn header_roundtrip() {
        let buf = sample_frame(&[]);
        assert_eq!(buf.len(), HEADER_LEN);
        let frame = decode(&buf).unwrap();
        assert_eq!(frame.kind, FrameKind::Request);
        assert!(frame.wants_reply);
        assert_eq!(frame.src, NodeId::new(7));
        assert_eq!(frame.dst, NodeId::new(9));
        assert_eq!(frame.src_addr, v4(4100));
        assert_eq!(frame.count, 0);
    }

    #[test]
    fn descriptor_roundtrip_with_addresses() {
        let ds = [
            NodeDescriptor::new(NodeId::new(1), 0),
            NodeDescriptor::new(NodeId::new(2), 3),
            NodeDescriptor::new(NodeId::new(40), 9),
        ];
        let buf = sample_frame(&ds);
        let frame = decode(&buf).unwrap();
        assert_eq!(frame.count, 3);
        let mut out = Vec::new();
        let mut learned = Vec::new();
        read_descriptors(&frame, &mut out, &mut DecodeScratch::new(), |id, addr| {
            learned.push((id, NetAddr::from(addr)))
        })
        .unwrap();
        assert_eq!(out, ds);
        assert_eq!(learned[0], (NodeId::new(1), v4(5001)));
        assert_eq!(learned[2], (NodeId::new(40), v4(5040)));
    }

    #[test]
    fn all_address_families_roundtrip() {
        let addrs = [
            v4(80),
            NetAddr::Sock(SocketAddr::new(
                IpAddr::V6(Ipv6Addr::new(0xfe80, 0, 0, 0, 1, 2, 3, 4)),
                6000,
            )),
            NetAddr::Virtual(0xdead_beef_1234_5678),
        ];
        for addr in addrs {
            assert_eq!(NetAddr::from(WireAddr::from(addr)), addr);
        }
    }

    #[test]
    fn peek_dst_reads_the_header_without_validating() {
        let buf = sample_frame(&[NodeDescriptor::new(NodeId::new(1), 2)]);
        assert_eq!(peek_dst(&buf), Some(decode(&buf).unwrap().dst));
        // Only the length is checked: a header-sized buffer of garbage
        // still yields an id, one byte less yields none.
        let mut garbage = buf[..HEADER_LEN].to_vec();
        garbage[4] = b'X';
        assert!(decode(&garbage).is_err());
        assert_eq!(peek_dst(&garbage), Some(NodeId::new(9)));
        assert_eq!(peek_dst(&buf[..HEADER_LEN - 1]), None);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact bytes of one frame of each kind, every address family
    /// included. A round trip cannot see a change made to both encoder and
    /// decoder; this can.
    #[test]
    fn encode_emits_the_recorded_bytes() {
        let v6 = NetAddr::Sock(SocketAddr::new(
            IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0xa, 0xbc)),
            0x1f90,
        ));
        let src = NetAddr::Sock(SocketAddr::new(
            IpAddr::V4(Ipv4Addr::new(192, 168, 7, 21)),
            0x2345,
        ));
        let ds = [
            NodeDescriptor::new(NodeId::new(0x0102_0304_0506_0708), 3),
            NodeDescriptor::new(NodeId::new(0x11), 0x0a0b_0c0d),
            NodeDescriptor::new(NodeId::new(0xfeed), 0),
        ];
        let addr_of = |id: NodeId| {
            Some(match id.as_u64() {
                0x11 => v6,
                0xfeed => NetAddr::Virtual(0xdead_beef_0042),
                _ => v4(4100),
            })
        };
        let mut buf = Vec::new();
        let mut frame = |kind, wants_reply, ds: &[NodeDescriptor]| {
            encode(
                &mut buf,
                kind,
                wants_reply,
                NodeId::new(0x77),
                NodeId::new(0x0bad_cafe),
                src,
                ds,
                addr_of,
            )
            .expect("encodes");
            hex(&buf)
        };
        // Length, magic, version, kind, flags, reserved, source and
        // destination ids, the IPv4 source address, descriptor count.
        let header = |len: &str, kind: &str, flags: &str, count: &str| {
            let ids = "7700000000000000fecaad0b00000000";
            let src = "04c0a807150000000000000000000000004523";
            [len, "50535357", "02", kind, flags, "00", ids, src, count].concat()
        };
        // Descriptors: id, age, address — IPv4, IPv6, virtual.
        let d_v4 = "080706050403020103000000047f0000010000000000000000000000000410";
        let d_v6 = "11000000000000000d0c0b0a0620010db80000000000000000000a00bc901f";
        let d_virtual = "edfe00000000000000000000004200efbeadde000000000000000000000000";
        assert_eq!(
            frame(FrameKind::Request, true, &ds),
            header("8a000000", "01", "01", "0300") + d_v4 + d_v6 + d_virtual
        );
        assert_eq!(
            frame(FrameKind::Reply, false, &ds[1..]),
            header("6b000000", "02", "00", "0200") + d_v6 + d_virtual
        );
        assert_eq!(
            frame(FrameKind::App, false, &[]),
            header("2d000000", "03", "00", "0000")
        );
    }

    #[test]
    fn reply_flags_must_be_zero() {
        let mut buf = Vec::new();
        encode(
            &mut buf,
            FrameKind::Reply,
            true, // ignored for replies
            NodeId::new(1),
            NodeId::new(2),
            v4(1),
            &[],
            |_| Some(v4(1)),
        )
        .unwrap();
        let frame = decode(&buf).unwrap();
        assert_eq!(frame.kind, FrameKind::Reply);
        assert!(!frame.wants_reply);
    }

    #[test]
    fn app_frames_roundtrip_and_are_version_gated() {
        let mut buf = Vec::new();
        encode(
            &mut buf,
            FrameKind::App,
            true, // ignored for app frames
            NodeId::new(3),
            NodeId::new(8),
            v4(4100),
            &[],
            |_| Some(v4(1)),
        )
        .unwrap();
        let frame = decode(&buf).unwrap();
        assert_eq!(frame.kind, FrameKind::App);
        assert!(!frame.wants_reply);
        assert_eq!(frame.count, 0);

        // A version-1 frame is refused before its kind is read…
        let mut v1 = buf.clone();
        v1[8] = 1;
        assert_eq!(decode(&v1).unwrap_err(), DecodeError::BadVersion(1));
        // …and app flags must be zero.
        let mut flagged = buf.clone();
        flagged[10] = FLAG_WANTS_REPLY;
        assert!(matches!(decode(&flagged), Err(DecodeError::BadFlags(_))));
    }

    #[test]
    fn version_1_frames_are_bad_version() {
        // No encoder emits version 1 any more, so its frames — whose age
        // fields could only be hop counts — are refused outright.
        let mut buf = sample_frame(&[NodeDescriptor::new(NodeId::new(1), 2)]);
        for version in [0, 1, VERSION + 1] {
            buf[8] = version;
            assert_eq!(decode(&buf).unwrap_err(), DecodeError::BadVersion(version));
        }
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let buf = sample_frame(&[NodeDescriptor::new(NodeId::new(1), 2)]);
        for cut in 0..buf.len() {
            assert!(decode(&buf[..cut]).is_err(), "cut at {cut} must fail");
        }
        assert!(decode(&buf).is_ok());
    }

    #[test]
    fn rejects_corrupt_header_fields() {
        let good = sample_frame(&[]);
        let mutate = |at: usize, to: u8| {
            let mut b = good.clone();
            b[at] = to;
            decode(&b).expect_err("must reject")
        };
        assert!(matches!(mutate(4, b'X'), DecodeError::BadMagic(_)));
        assert!(matches!(mutate(8, 9), DecodeError::BadVersion(9)));
        assert!(matches!(mutate(9, 7), DecodeError::BadKind(7)));
        assert!(matches!(mutate(10, 0b10), DecodeError::BadFlags(_)));
        assert!(matches!(mutate(0, 1), DecodeError::LengthMismatch { .. }));
        // Declared count without the bytes to back it.
        assert!(matches!(
            mutate(47, 2),
            DecodeError::BodySizeMismatch { .. }
        ));
    }

    #[test]
    fn rejects_oversized_count() {
        let mut buf = sample_frame(&[]);
        let count = (MAX_DESCRIPTORS + 1) as u16;
        buf[47..49].copy_from_slice(&count.to_le_bytes());
        // Fix the length prefix so the oversize check itself is reached.
        let payload = (HEADER_LEN - 4) + (count as usize) * DESCRIPTOR_LEN;
        let mut b = buf.clone();
        b.resize(HEADER_LEN + count as usize * DESCRIPTOR_LEN, 0);
        b[0..4].copy_from_slice(&(payload as u32).to_le_bytes());
        assert!(matches!(
            decode(&b),
            Err(DecodeError::Oversized { count: c }) if c == count as usize
        ));
    }

    #[test]
    fn rejects_duplicate_ids_and_clears_out() {
        let ds = [
            NodeDescriptor::new(NodeId::new(3), 0),
            NodeDescriptor::new(NodeId::new(4), 1),
            NodeDescriptor::new(NodeId::new(3), 5),
        ];
        let buf = sample_frame(&ds);
        let frame = decode(&buf).unwrap();
        let mut out = vec![NodeDescriptor::fresh(NodeId::new(99))];
        let mut learned = 0;
        let err = read_descriptors(&frame, &mut out, &mut DecodeScratch::new(), |_, _| {
            learned += 1
        })
        .expect_err("duplicate must be rejected");
        assert_eq!(err, DecodeError::DuplicateId(NodeId::new(3)));
        assert!(out.is_empty(), "partial content must not leak");
        assert_eq!(learned, 0, "a rejected body must teach nothing");
    }

    /// Padding bytes travel as received: the wire forms differ, the
    /// parsed addresses do not.
    #[test]
    fn padding_reaches_the_wire_form_but_not_the_address() {
        let buf = sample_frame(&[NodeDescriptor::new(NodeId::new(1), 2)]);
        let mut padded = buf.clone();
        padded[HEADER_LEN + 12 + 10] = 0xff; // an IPv4 padding byte
        let mut learned = Vec::new();
        for bytes in [&buf, &padded] {
            let frame = decode(bytes).unwrap();
            read_descriptors(
                &frame,
                &mut Vec::new(),
                &mut DecodeScratch::new(),
                |_, a| learned.push(a),
            )
            .unwrap();
        }
        assert_ne!(learned[0], learned[1]);
        assert_eq!(learned[0], WireAddr::from(v4(5001)));
        assert_eq!(NetAddr::from(learned[1]), v4(5001));
    }

    #[test]
    fn rejects_bad_address_tag() {
        let buf = sample_frame(&[NodeDescriptor::new(NodeId::new(1), 2)]);
        let mut b = buf.clone();
        b[HEADER_LEN + 12] = 9; // descriptor address tag
        let frame = decode(&b).unwrap();
        let err = read_descriptors(
            &frame,
            &mut Vec::new(),
            &mut DecodeScratch::new(),
            |_, _| {},
        )
        .expect_err("bad tag must be rejected");
        assert_eq!(err, DecodeError::BadAddrTag(9));
        // Header-level address tag is checked by decode itself.
        let mut h = buf;
        h[28] = 9;
        assert_eq!(decode(&h).unwrap_err(), DecodeError::BadAddrTag(9));
    }

    #[test]
    fn missing_address_is_an_encode_error() {
        let mut buf = Vec::new();
        let err = encode(
            &mut buf,
            FrameKind::Request,
            false,
            NodeId::new(1),
            NodeId::new(2),
            v4(1),
            &[NodeDescriptor::fresh(NodeId::new(50))],
            |_| None,
        )
        .expect_err("must surface the missing address");
        assert_eq!(err, EncodeError::MissingAddress(NodeId::new(50)));
    }

    #[test]
    fn scratch_is_reusable_across_epochs() {
        let mut scratch = DecodeScratch::new();
        let ds = [
            NodeDescriptor::new(NodeId::new(3), 0),
            NodeDescriptor::new(NodeId::new(4), 1),
        ];
        let buf = sample_frame(&ds);
        let frame = decode(&buf).unwrap();
        let mut out = Vec::new();
        for _ in 0..100 {
            read_descriptors(&frame, &mut out, &mut scratch, |_, _| {}).unwrap();
            assert_eq!(out.len(), 2);
        }
    }

    #[test]
    fn errors_display() {
        assert!(EncodeError::TooManyDescriptors(9999)
            .to_string()
            .contains("9999"));
        assert!(EncodeError::MissingAddress(NodeId::new(5))
            .to_string()
            .contains("n5"));
        assert!(DecodeError::BadVersion(3).to_string().contains('3'));
        assert!(DecodeError::DuplicateId(NodeId::new(8))
            .to_string()
            .contains("n8"));
        assert!(NetAddr::Virtual(4).to_string().contains("mem:4"));
        assert!(v4(80).to_string().contains("127.0.0.1:80"));
    }
}
