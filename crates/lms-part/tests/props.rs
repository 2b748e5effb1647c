//! Property tests for partition invariants on triangle meshes, across
//! every method and arbitrary perturbed grids (`part_props3.rs` runs the
//! same checks on tetrahedral meshes):
//!
//! * parts are disjoint and cover the vertex set, sizes within one
//!   (count-balanced methods; the area-weighted splitter balances weight);
//! * interior + interface = owned, and the interface flag is exactly
//!   "has a cross-part neighbour";
//! * halos are exactly the out-of-part 1-ring closure of the interfaces;
//! * the ghost-vertex map is a bijection onto owned-then-halo locals;
//! * the edge cut matches a recount over the element-derived edge list;
//! * the halo-exchange schedule delivers to every halo slot exactly once
//!   — it covers exactly the 1-ring-of-interface closure — and the
//!   message plan regroups it per part pair.
//!
//! Then the wire format: frames roundtrip arbitrary bit patterns and are
//! rejected, never misread, when truncated, fragmented or corrupted.

mod partition_checks;

use lms_mesh::TriMesh;
use partition_checks::*;
use proptest::prelude::*;

fn arb_mesh() -> impl Strategy<Value = TriMesh> {
    (4usize..16, 4usize..16, 0u64..1000, 0..40u32).prop_map(|(nx, ny, seed, jit)| {
        lms_mesh::generators::perturbed_grid(nx, ny, jit as f64 / 100.0, seed)
    })
}

partition_properties!(arb_mesh(), 48);

/// Random `f64` bit patterns — NaNs (quiet and signalling patterns),
/// ±0, infinities, subnormals all included by construction.
fn arb_bits(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), len)
}

/// A reader that fragments its byte stream: each `read` call hands out
/// at most the next cap from a cycling list — the socket-stream reality
/// (and the scripted short-write fault) where `read(2)` returns
/// whatever happens to have arrived, one byte included.
struct Dribble<'a> {
    data: &'a [u8],
    pos: usize,
    caps: Vec<usize>,
    turn: usize,
}

impl std::io::Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let cap = self.caps[self.turn % self.caps.len()];
        self.turn += 1;
        let n = buf.len().min(cap).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A small wire-v5 block frame over arbitrary sections, bits and values.
fn block_frame(part: u32, slots: &[u32], bits: &[u64]) -> lms_part::wire::Frame {
    lms_part::wire::Frame::Block {
        part,
        num_parts: part.wrapping_add(1),
        corners: (part % 5) as u8,
        sections: vec![slots.to_vec(), Vec::new(), slots.iter().rev().copied().collect()],
        bits: bits.to_vec(),
        values: bits.iter().map(|&b| f64::from_bits(b)).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The version this suite's frames are pinned to: v5 added the block
    /// frame, and a `Hello` of any other version is refused.
    #[test]
    fn wire_version_pin(version in any::<u16>()) {
        use lms_part::wire::{Frame, WireError, WIRE_VERSION};
        prop_assert_eq!(WIRE_VERSION, 5);
        let hello = Frame::Hello { version, dim: 2, rank: 0, profile: false };
        let decoded = Frame::decode(&hello.encode());
        if version == WIRE_VERSION {
            prop_assert!(decoded.is_ok());
        } else {
            prop_assert!(matches!(decoded, Err(WireError::Version { got }) if got == version));
        }
    }

    /// Wire-format roundtrip over arbitrary bit patterns: every frame
    /// type carrying `f64` payloads survives encode→decode with the
    /// exact bits, and stream framing (`write_to`/`read_from`) is
    /// lossless for frame sequences.
    #[test]
    fn wire_frames_roundtrip_arbitrary_bit_patterns(
        coord_bits in arb_bits(0..40),
        score_bits in arb_bits(0..20),
        slots in proptest::collection::vec(any::<u32>(), 0..20),
        part in any::<u32>(),
        color in any::<u32>(),
        delta_bits in any::<u64>(),
    ) {
        use lms_part::wire::Frame;
        let coords: Vec<f64> = coord_bits.iter().map(|&b| f64::from_bits(b)).collect();
        let scores: Vec<(f64, bool)> =
            score_bits.iter().map(|&b| (f64::from_bits(b), b % 2 == 0)).collect();
        let frames = vec![
            Frame::Gather { coords: coords.clone(), scores },
            Frame::ColorStep { color },
            Frame::HaloDelta {
                part,
                slots: slots.clone(),
                coords: coords.iter().copied().cycle().take(slots.len() * 2).collect(),
            },
            Frame::Report {
                delta: f64::from_bits(delta_bits),
                phases: lms_trace::RankPhaseNanos {
                    interior_ns: delta_bits,
                    color_ns: delta_bits.rotate_left(17),
                    finish_ns: part as u64,
                    moved: color as u64,
                },
            },
            Frame::Scatter { coords },
            block_frame(part, &slots, &coord_bits),
            Frame::RoundDone,
            Frame::Shutdown,
        ];
        let mut stream = Vec::new();
        for frame in &frames {
            frame.write_to(&mut stream).unwrap();
        }
        let mut cursor: &[u8] = &stream;
        for frame in &frames {
            let back = Frame::read_from(&mut cursor).expect("stream decode");
            // NaN payloads make PartialEq useless; exact-bit equality is
            // what the protocol guarantees, so compare re-encodings
            prop_assert_eq!(frame.encode(), back.encode());
        }
        prop_assert!(cursor.is_empty(), "stream must be fully consumed");
    }

    /// Stream fragmentation is invisible to frame decode: reading the
    /// same encoded stream through a reader that dribbles out arbitrary
    /// small chunks per syscall — down to one byte at a time, the
    /// worst case a TCP stream (or a scripted short-write fault) can
    /// present — yields exactly the frames a whole-buffer decode does.
    #[test]
    fn frames_decode_identically_through_any_fragmentation(
        coord_bits in arb_bits(0..24),
        slots in proptest::collection::vec(any::<u32>(), 0..12),
        part in any::<u32>(),
        color in any::<u32>(),
        chunks in proptest::collection::vec(1usize..7, 1..6),
    ) {
        use lms_part::wire::Frame;
        let coords: Vec<f64> = coord_bits.iter().map(|&b| f64::from_bits(b)).collect();
        let frames = vec![
            Frame::Gather {
                coords: coords.clone(),
                scores: coord_bits.iter().map(|&b| (f64::from_bits(b), b % 3 == 0)).collect(),
            },
            Frame::ColorStep { color },
            Frame::HaloDelta {
                part,
                slots: slots.clone(),
                coords: coords.iter().copied().cycle().take(slots.len() * 2).collect(),
            },
            block_frame(part, &slots, &coord_bits),
            Frame::RoundDone,
            Frame::Shutdown,
        ];
        let mut stream = Vec::new();
        for frame in &frames {
            frame.write_to(&mut stream).unwrap();
        }
        // arbitrary split points (cycling chunk caps), then the
        // maximally fragmented stream: one byte per read
        for caps in [chunks.clone(), vec![1]] {
            let mut rd = Dribble { data: &stream, pos: 0, caps: caps.clone(), turn: 0 };
            for frame in &frames {
                let back = Frame::read_from(&mut rd).expect("fragmented decode");
                prop_assert_eq!(frame.encode(), back.encode(), "caps {:?}", caps);
            }
            prop_assert_eq!(rd.pos, stream.len(), "stream fully consumed");
        }
    }

    /// Truncating an encoded frame at ANY point — mid length prefix,
    /// mid checksum, mid payload — makes `read_from` return a typed
    /// error (never a panic, never a bogus frame), whether the bytes
    /// arrive whole or dribbled.
    #[test]
    fn truncated_streams_are_rejected_never_panic(
        coord_bits in arb_bits(1..8),
        part in any::<u32>(),
    ) {
        use lms_part::wire::Frame;
        let slots: Vec<u32> = (0..coord_bits.len() as u32 / 2).collect();
        for frame in [
            Frame::HaloDelta {
                part,
                slots: slots.clone(),
                coords: coord_bits.iter().map(|&b| f64::from_bits(b)).collect(),
            },
            block_frame(part, &slots, &coord_bits),
        ] {
        let mut stream = Vec::new();
        frame.write_to(&mut stream).unwrap();
        // exhaustive over cut points for this payload
        for cut in 0..stream.len() {
            let torn = &stream[..cut];
            prop_assert!(
                Frame::read_from(&mut &torn[..]).is_err(),
                "cut at {} of {} must be rejected",
                cut,
                stream.len()
            );
            let mut rd = Dribble { data: torn, pos: 0, caps: vec![1], turn: 0 };
            prop_assert!(
                Frame::read_from(&mut rd).is_err(),
                "dribbled cut at {} must be rejected",
                cut
            );
        }
        }
    }

    /// The overlap multiplexer's arrival model: several ranks' streams
    /// dribble into per-rank [`Reassembly`] buffers in an arbitrary
    /// global interleaving, partial frames included — exactly what one
    /// `poll(2)` pass over all rank fds produces. Whatever the
    /// interleaving and chunk sizes, every stream decodes to exactly
    /// the frames a sequential whole-buffer decode yields, in order,
    /// with no frame lost, duplicated, misrouted across streams, or
    /// left stalled in a buffer once all bytes have arrived.
    #[test]
    fn interleaved_multiplexed_arrival_decodes_like_sequential(
        coord_bits in arb_bits(0..16),
        parts_frames in proptest::collection::vec(1usize..6, 2..5),
        chunk_caps in proptest::collection::vec(1usize..23, 1..8),
        order_seed in any::<u64>(),
    ) {
        use lms_part::wire::{Frame, Reassembly};
        let nstreams = parts_frames.len();
        // per-stream frame sequences with distinguishable payloads
        let streams: Vec<Vec<Frame>> = parts_frames
            .iter()
            .enumerate()
            .map(|(s, &n)| {
                (0..n)
                    .map(|i| {
                        let slots: Vec<u32> = (0..(i as u32 % 5)).collect();
                        Frame::HaloDelta {
                            part: (s * 100 + i) as u32,
                            coords: coord_bits
                                .iter()
                                .map(|&b| f64::from_bits(b))
                                .cycle()
                                .take(slots.len() * 2)
                                .collect(),
                            slots,
                        }
                    })
                    .chain(std::iter::once(Frame::RoundDone))
                    .collect()
            })
            .collect();
        let encoded: Vec<Vec<u8>> = streams
            .iter()
            .map(|fs| {
                let mut buf = Vec::new();
                for f in fs {
                    f.write_to(&mut buf).unwrap();
                }
                buf
            })
            .collect();
        // interleave: a cheap LCG picks which stream dribbles its next
        // chunk; chunk sizes cycle through the cap list so cuts land
        // mid length-prefix, mid checksum, mid payload
        let mut pos = vec![0usize; nstreams];
        let mut reasm: Vec<Reassembly> = (0..nstreams).map(|_| Reassembly::new()).collect();
        let mut decoded: Vec<Vec<Frame>> = vec![Vec::new(); nstreams];
        let mut rng = order_seed | 1;
        let mut turn = 0usize;
        while (0..nstreams).any(|s| pos[s] < encoded[s].len()) {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick = (rng >> 33) as usize % nstreams;
            let s = (0..nstreams)
                .map(|d| (pick + d) % nstreams)
                .find(|&s| pos[s] < encoded[s].len())
                .unwrap();
            let cap = chunk_caps[turn % chunk_caps.len()];
            turn += 1;
            let n = cap.min(encoded[s].len() - pos[s]);
            reasm[s].extend(&encoded[s][pos[s]..pos[s] + n]);
            pos[s] += n;
            // drain every stream's complete frames after each chunk —
            // the multiplexer decodes eagerly, mid-arrival
            for q in 0..nstreams {
                while let Some(f) = reasm[q].next_frame().expect("interleaved decode") {
                    decoded[q].push(f);
                }
            }
        }
        for s in 0..nstreams {
            prop_assert!(reasm[s].is_empty(), "stream {} stalled {} bytes", s, reasm[s].buffered());
            prop_assert_eq!(decoded[s].len(), streams[s].len(), "stream {} frame count", s);
            for (a, b) in streams[s].iter().zip(&decoded[s]) {
                prop_assert_eq!(a.encode(), b.encode(), "stream {} frame mismatch", s);
            }
        }
    }

    /// Corrupting ANY single byte of an encoded frame — length prefix,
    /// checksum, or payload, any bit — is rejected by `read_from` with a
    /// typed `WireError`: the CRC32c covers the length prefix and the
    /// payload, so no single-byte corruption can yield a decoded frame.
    #[test]
    fn corrupting_any_single_byte_of_a_frame_is_rejected(
        coord_bits in arb_bits(1..12),
        slots in proptest::collection::vec(any::<u32>(), 1..8),
        part in any::<u32>(),
        mask in 1u8..=255,
    ) {
        use lms_part::wire::Frame;
        let frames = vec![
            Frame::HaloDelta {
                part,
                slots: slots.clone(),
                coords: coord_bits
                    .iter()
                    .map(|&b| f64::from_bits(b))
                    .cycle()
                    .take(slots.len() * 2)
                    .collect(),
            },
            Frame::Gather {
                coords: coord_bits.iter().map(|&b| f64::from_bits(b)).collect(),
                scores: coord_bits.iter().map(|&b| (f64::from_bits(b), b % 2 == 0)).collect(),
            },
            Frame::Hello {
                version: lms_part::wire::WIRE_VERSION,
                dim: 2,
                rank: part,
                profile: part.is_multiple_of(2),
            },
            Frame::Report {
                delta: f64::from_bits(coord_bits[0]),
                phases: lms_trace::RankPhaseNanos::default(),
            },
            block_frame(part, &slots, &coord_bits),
        ];
        for frame in &frames {
            let mut stream = Vec::new();
            frame.write_to(&mut stream).unwrap();
            // exhaustive over byte positions for this (frame, mask) pair
            for i in 0..stream.len() {
                let mut torn = stream.clone();
                torn[i] ^= mask;
                prop_assert!(
                    Frame::read_from(&mut torn.as_slice()).is_err(),
                    "flipping byte {} with mask {:#04x} must be rejected",
                    i,
                    mask
                );
            }
        }
    }
}
