//! Property-based tests for the wire codec: encode → decode is the
//! identity on arbitrary valid view content, and malformed frames are
//! rejected — never mis-decoded, never panicking.

use proptest::prelude::*;
use pss_core::wire::{
    self, DecodeError, DecodeScratch, FrameKind, NetAddr, WireAddr, DESCRIPTOR_LEN, HEADER_LEN,
};
use pss_core::{NodeDescriptor, NodeId};

/// An arbitrary transport address across all three families.
fn addr_strategy() -> impl Strategy<Value = NetAddr> {
    (0u8..3, 0u64..u64::MAX, 0u16..u16::MAX).prop_map(|(family, raw, port)| match family {
        0 => NetAddr::Sock(std::net::SocketAddr::new(
            std::net::IpAddr::V4(std::net::Ipv4Addr::from((raw >> 32) as u32)),
            port,
        )),
        1 => NetAddr::Sock(std::net::SocketAddr::new(
            std::net::IpAddr::V6(std::net::Ipv6Addr::from((raw as u128) << 43 | port as u128)),
            port,
        )),
        _ => NetAddr::Virtual(raw),
    })
}

/// Arbitrary valid view content: distinct ids, arbitrary ages, an address
/// per descriptor.
fn view_content(max: usize) -> impl Strategy<Value = Vec<(NodeDescriptor, NetAddr)>> {
    prop::collection::vec(((0u64..500, 0u32..2000), addr_strategy()), 0..max).prop_map(|raw| {
        let mut seen = std::collections::HashSet::new();
        raw.into_iter()
            .filter(|((id, _), _)| seen.insert(*id))
            .map(|((id, age), addr)| (NodeDescriptor::new(NodeId::new(id), age), addr))
            .collect()
    })
}

fn encode_frame(
    kind: FrameKind,
    wants_reply: bool,
    src: u64,
    dst: u64,
    src_addr: NetAddr,
    content: &[(NodeDescriptor, NetAddr)],
) -> Vec<u8> {
    let descriptors: Vec<NodeDescriptor> = content.iter().map(|&(d, _)| d).collect();
    let mut buf = Vec::new();
    wire::encode(
        &mut buf,
        kind,
        wants_reply,
        NodeId::new(src),
        NodeId::new(dst),
        src_addr,
        &descriptors,
        |id| {
            content
                .iter()
                .find(|(d, _)| d.id() == id)
                .map(|&(_, addr)| addr)
        },
    )
    .expect("valid content encodes");
    buf
}

proptest! {
    /// The wire form hides nothing: it parses back to the address it was
    /// made from, and a frame encoded from wire forms is byte for byte the
    /// frame encoded from the addresses.
    #[test]
    fn wire_forms_parse_back_and_encode_the_same_bytes(
        content in view_content(40),
        src_addr in addr_strategy(),
        is_request in (0u8..2).prop_map(|b| b == 1),
    ) {
        for &(_, addr) in &content {
            prop_assert_eq!(NetAddr::from(WireAddr::from(addr)), addr);
        }
        prop_assert_eq!(NetAddr::from(WireAddr::from(src_addr)), src_addr);
        let kind = if is_request { FrameKind::Request } else { FrameKind::Reply };
        let via_addr = encode_frame(kind, true, 3, 4, src_addr, &content);
        let descriptors: Vec<NodeDescriptor> = content.iter().map(|&(d, _)| d).collect();
        let mut via_wire = Vec::new();
        wire::encode(
            &mut via_wire,
            kind,
            true,
            NodeId::new(3),
            NodeId::new(4),
            WireAddr::from(src_addr),
            &descriptors,
            |id| {
                content
                    .iter()
                    .find(|(d, _)| d.id() == id)
                    .map(|&(_, addr)| WireAddr::from(addr))
            },
        )
        .expect("valid content encodes");
        prop_assert_eq!(via_wire, via_addr);
    }

    #[test]
    fn roundtrip_is_identity(
        content in view_content(40),
        wants_reply in (0u8..2).prop_map(|b| b == 1),
        src in 0u64..1000,
        dst in 0u64..1000,
        src_addr in addr_strategy(),
        is_request in (0u8..2).prop_map(|b| b == 1),
    ) {
        let kind = if is_request { FrameKind::Request } else { FrameKind::Reply };
        let buf = encode_frame(kind, wants_reply, src, dst, src_addr, &content);
        prop_assert_eq!(buf.len(), HEADER_LEN + content.len() * DESCRIPTOR_LEN);

        let frame = wire::decode(&buf).expect("own frames decode");
        prop_assert_eq!(frame.kind, kind);
        prop_assert_eq!(frame.wants_reply, wants_reply && is_request);
        prop_assert_eq!(frame.src, NodeId::new(src));
        prop_assert_eq!(frame.dst, NodeId::new(dst));
        prop_assert_eq!(frame.src_addr, src_addr);
        prop_assert_eq!(frame.count, content.len());

        let mut out = Vec::new();
        let mut learned = Vec::new();
        wire::read_descriptors(&frame, &mut out, &mut DecodeScratch::new(), |id, addr| {
            learned.push((id, NetAddr::from(addr)));
        })
        .expect("own frames read");
        let expect_ds: Vec<NodeDescriptor> = content.iter().map(|&(d, _)| d).collect();
        let expect_addrs: Vec<(NodeId, NetAddr)> =
            content.iter().map(|&(d, a)| (d.id(), a)).collect();
        prop_assert_eq!(out, expect_ds);
        prop_assert_eq!(learned, expect_addrs);
    }

    #[test]
    fn any_truncation_is_rejected(
        content in view_content(20),
        cut_fraction in 0.0f64..1.0,
    ) {
        let buf = encode_frame(
            FrameKind::Request,
            true,
            1,
            2,
            NetAddr::Virtual(9),
            &content,
        );
        let cut = ((buf.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < buf.len());
        prop_assert!(wire::decode(&buf[..cut]).is_err());
    }

    #[test]
    fn duplicate_ids_are_always_rejected(
        content in view_content(20),
        dup_age in 0u32..100,
    ) {
        prop_assume!(!content.is_empty());
        // Re-append the first descriptor with a different age: still a
        // well-formed frame shape, but invalid view content.
        let mut poisoned = content.clone();
        let (first, addr) = poisoned[0];
        poisoned.push((NodeDescriptor::new(first.id(), dup_age), addr));
        let buf = encode_frame(
            FrameKind::Reply,
            false,
            1,
            2,
            NetAddr::Virtual(9),
            &poisoned,
        );
        let frame = wire::decode(&buf).expect("shape is valid");
        let mut out = Vec::new();
        let err = wire::read_descriptors(&frame, &mut out, &mut DecodeScratch::new(), |_, _| {})
            .expect_err("duplicate ids must be rejected");
        prop_assert_eq!(err, DecodeError::DuplicateId(first.id()));
        prop_assert!(out.is_empty());
    }

    /// Fuzz-style mutation: XOR a handful of random bytes at random
    /// offsets of a valid frame. Decoding must stay *total* — every
    /// mutant either still parses (and then content reads are total too)
    /// or is rejected with a typed [`DecodeError`]; nothing panics, and a
    /// mutation set that cancels itself out must still round-trip.
    #[test]
    fn random_byte_mutations_never_panic_and_decode_stays_total(
        content in view_content(12),
        wants_reply in (0u8..2).prop_map(|b| b == 1),
        is_request in (0u8..2).prop_map(|b| b == 1),
        mutations in prop::collection::vec((0usize..4096, 1u16..256), 1..8),
    ) {
        let kind = if is_request { FrameKind::Request } else { FrameKind::Reply };
        let original = encode_frame(kind, wants_reply, 1, 2, NetAddr::Virtual(9), &content);
        let mut buf = original.clone();
        for &(offset, xor) in &mutations {
            let i = offset % buf.len();
            buf[i] ^= xor as u8;
        }
        match wire::decode(&buf) {
            Ok(frame) => {
                let mut out = Vec::new();
                let read = wire::read_descriptors(
                    &frame,
                    &mut out,
                    &mut DecodeScratch::new(),
                    |_, _| {},
                );
                if buf == original {
                    // The XORs cancelled out: this is the valid frame and
                    // the full round-trip must hold.
                    prop_assert_eq!(frame.kind, kind);
                    prop_assert_eq!(frame.count, content.len());
                    prop_assert!(read.is_ok());
                    let expect: Vec<NodeDescriptor> =
                        content.iter().map(|&(d, _)| d).collect();
                    prop_assert_eq!(out, expect);
                } else if let Err(err) = read {
                    // Mutants that survive the frame checks but carry
                    // poisoned content fail with a typed error and leave
                    // no partial output behind.
                    let _: DecodeError = err;
                    prop_assert!(out.is_empty(), "partial output after {err:?}");
                }
            }
            // Rejected mutants carry a typed error — reaching here at all
            // (rather than unwinding) is the property.
            Err(err) => { let _: DecodeError = err; }
        }
    }

    #[test]
    fn corrupting_the_length_or_magic_is_rejected(
        content in view_content(10),
        byte in 0usize..8,
        xor in 1u16..256,
    ) {
        // Bytes 0..8 are the length prefix and magic: any single-bit damage
        // there must be fatal.
        let mut buf = encode_frame(
            FrameKind::Request,
            false,
            1,
            2,
            NetAddr::Virtual(9),
            &content,
        );
        buf[byte] ^= xor as u8;
        prop_assert!(wire::decode(&buf).is_err());
    }
}

#[test]
fn oversized_frames_are_rejected() {
    // A descriptor count over the limit with a consistent length prefix
    // and body size: only the explicit bound can reject it.
    let count = wire::MAX_DESCRIPTORS + 1;
    let mut buf = encode_frame(FrameKind::Request, false, 1, 2, NetAddr::Virtual(9), &[]);
    buf[47..49].copy_from_slice(&(count as u16).to_le_bytes());
    buf.resize(HEADER_LEN + count * DESCRIPTOR_LEN, 0);
    let payload = (buf.len() - 4) as u32;
    buf[0..4].copy_from_slice(&payload.to_le_bytes());
    assert!(matches!(
        wire::decode(&buf),
        Err(DecodeError::Oversized { count: c }) if c == count
    ));
}

/// Every frame kind over every address family, and over views that mix
/// them, folded into one FNV-1a digest of the encoded bytes. Any change to
/// the bytes an encoder emits — a field, a padding byte, a family's
/// layout — moves it.
#[test]
fn encoded_frames_match_the_recorded_digest() {
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};
    let v4 = |k: u64| {
        NetAddr::Sock(SocketAddr::new(
            IpAddr::V4(Ipv4Addr::from(
                0x0a00_0000 | (k as u32).wrapping_mul(0x0101_0107),
            )),
            (k as u16).wrapping_add(4000),
        ))
    };
    let v6 = |k: u64| {
        NetAddr::Sock(SocketAddr::new(
            IpAddr::V6(Ipv6Addr::from(
                0x2001_0db8_u128 << 96 | (k as u128).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            )),
            0xf000 | k as u16,
        ))
    };
    let virt = |k: u64| NetAddr::Virtual(k.wrapping_mul(0xdead_beef_0042) ^ k);
    let families: [&dyn Fn(u64) -> NetAddr; 3] = [&v4, &v6, &virt];
    let ids: Vec<u64> = vec![0, 1, 7, 0x0102_0304_0506_0708, u64::MAX, 513];
    let descriptors: Vec<NodeDescriptor> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| NodeDescriptor::new(NodeId::new(id), (i as u32) * 0x0101_0101))
        .collect();
    let kinds = [
        (FrameKind::Request, true),
        (FrameKind::Request, false),
        (FrameKind::Reply, false),
        (FrameKind::App, false),
    ];
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut buf = Vec::new();
    for (kind, wants_reply) in kinds {
        for take in [0, 1, descriptors.len()] {
            let ds = &descriptors[..take];
            // One family throughout: the source and every descriptor.
            for (f, family) in families.iter().enumerate() {
                wire::encode(
                    &mut buf,
                    kind,
                    wants_reply,
                    NodeId::new(0x77 + f as u64),
                    NodeId::new(0x0bad_cafe),
                    family(f as u64),
                    ds,
                    |id| Some(family(id.as_u64())),
                )
                .expect("encodes");
                fold(&buf);
            }
            // Mixed views: descriptor i takes family (i + shift) % 3,
            // the source family `shift`.
            for (shift, family) in families.iter().enumerate() {
                wire::encode(
                    &mut buf,
                    kind,
                    wants_reply,
                    NodeId::new(0x99),
                    NodeId::new(shift as u64),
                    family(0x55),
                    ds,
                    |id| {
                        let i = ids.iter().position(|&x| x == id.as_u64())?;
                        Some(families[(i + shift) % 3](id.as_u64()))
                    },
                )
                .expect("encodes");
                fold(&buf);
            }
        }
    }
    assert_eq!(digest, 0x118a_b54c_fc6a_672d, "{digest:#018x}");
}
