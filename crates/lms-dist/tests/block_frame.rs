//! The `Block` wire frame: every rank's resident block and its row of the
//! exchange schedule, encoded from the coordinator's own block and
//! decoded with validation on the rank. A decoded block must compare
//! equal to the one that was written, for every part of 2D and 3D
//! engines over every partition method; a truncated, corrupted or
//! malformed frame must decode to a typed `WireError`, never a panic.

use lms_mesh3d::{ResidentEngine3, SmoothParams3};
use lms_part::wire::{Frame, WireError};
use lms_part::{ExchangeSchedule, MessagePlan, PartitionMethod};
use lms_smooth::resident::ResidentBlock;
use lms_smooth::{ResidentEngine, SmoothMesh, SmoothParams};

/// Write part `p`'s frame and read it back through the stream decoder.
fn frame_of<const C: usize>(
    block: &ResidentBlock<C>,
    p: u32,
    schedule: &ExchangeSchedule,
) -> Vec<u8> {
    let mut bytes = Vec::new();
    block.write_frame(&mut bytes, p, schedule).expect("a Vec takes any frame");
    bytes
}

/// Decode `bytes` as part `p`'s block frame of a mesh with `n` vertices
/// and `t` elements.
fn decode<const C: usize>(
    bytes: &[u8],
    p: u32,
    n: usize,
    t: usize,
) -> Result<(ResidentBlock<C>, ExchangeSchedule), WireError> {
    ResidentBlock::<C>::from_frame(Frame::read_from(&mut &bytes[..])?, p, n, t)
}

/// Every part of `blocks` survives its frame: the decoded block equals
/// it, and the decoded schedule row and message-plan row equal the
/// coordinator's.
fn assert_round_trips<const C: usize>(
    blocks: &[ResidentBlock<C>],
    schedule: &ExchangeSchedule,
    n: usize,
    t: usize,
    what: &str,
) {
    let plan = MessagePlan::build(schedule);
    for (p, block) in blocks.iter().enumerate() {
        let p = p as u32;
        let (back, row) = decode::<C>(&frame_of(block, p, schedule), p, n, t)
            .unwrap_or_else(|e| panic!("{what}, part {p}: {e}"));
        assert!(back == *block, "{what}, part {p}: decoded block differs");
        assert_eq!(row.row(p), schedule.row(p), "{what}, part {p}: schedule row");
        let rank_plan = MessagePlan::build(&row);
        assert_eq!(rank_plan.neighbors(p), plan.neighbors(p), "{what}, part {p}");
        assert_eq!(rank_plan.pair_entry_counts(p), plan.pair_entry_counts(p), "{what}, part {p}");
    }
}

#[test]
fn block_frames_round_trip_every_part_in_2d_and_3d() {
    let mesh = lms_mesh::generators::perturbed_grid(17, 14, 0.35, 3);
    let mesh3 = lms_mesh3d::generators::perturbed_tet_grid(6, 5, 6, 0.3, 8);
    for method in PartitionMethod::ALL {
        for parts in [1usize, 4] {
            let engine = ResidentEngine::by_method(&mesh, SmoothParams::paper(), parts, method);
            let (n, t) = (mesh.num_vertices(), mesh.elements().len());
            let what = format!("2D {method:?} x{parts}");
            assert_round_trips(engine.blocks(), engine.exchange_schedule(), n, t, &what);

            let engine3 = ResidentEngine3::by_method(&mesh3, SmoothParams3::paper(), parts, method);
            let (n3, t3) = (mesh3.num_vertices(), mesh3.elements().len());
            let what = format!("3D {method:?} x{parts}");
            assert_round_trips(engine3.blocks(), engine3.exchange_schedule(), n3, t3, &what);
        }
    }
}

/// Re-encode part 1's frame of a 4-part 2D engine after `edit` changed
/// its fields, and decode it.
fn decode_edited(
    edit: impl FnOnce(&mut u32, &mut u32, &mut u8, &mut Vec<Vec<u32>>, &mut Vec<u64>, &mut Vec<f64>),
) -> Result<(ResidentBlock<3>, ExchangeSchedule), WireError> {
    let mesh = lms_mesh::generators::perturbed_grid(17, 14, 0.35, 3);
    let engine = ResidentEngine::by_method(&mesh, SmoothParams::paper(), 4, PartitionMethod::Rcb);
    let bytes = frame_of(&engine.blocks()[1], 1, engine.exchange_schedule());
    let Ok(Frame::Block {
        mut part,
        mut num_parts,
        mut corners,
        mut sections,
        mut bits,
        mut values,
    }) = Frame::read_from(&mut &bytes[..])
    else {
        panic!("a block frame reads back as one");
    };
    edit(&mut part, &mut num_parts, &mut corners, &mut sections, &mut bits, &mut values);
    let mut edited = Vec::new();
    Frame::Block { part, num_parts, corners, sections, bits, values }
        .write_to(&mut edited)
        .expect("a Vec takes any frame");
    decode::<3>(&edited, 1, mesh.num_vertices(), mesh.elements().len())
}

fn rejected(result: Result<(ResidentBlock<3>, ExchangeSchedule), WireError>, what: &str) {
    match result {
        Err(WireError::BadBlock(_)) => {}
        other => panic!("{what}: expected BadBlock, got {:?}", other.map(|_| "a block")),
    }
}

#[test]
fn inconsistent_or_out_of_range_block_frames_are_typed_errors() {
    assert!(decode_edited(|_, _, _, _, _, _| {}).is_ok(), "the unedited frame decodes");
    // section indices: 0 owned, 1 halo, 2 int_locals, 3 int_nbr_offsets,
    // 4 int_nbrs, 5 int_vt_offsets, 6 int_vt, 7 ifc_color_offsets,
    // 8 ifc_locals, 13 elem_globals, 14 halo_vt_offsets, 15 halo_vt,
    // 16 corners, 17 schedule offsets, 18 schedule entries
    rejected(decode_edited(|part, _, _, _, _, _| *part = 2), "frame for another part");
    rejected(decode_edited(|_, k, _, _, _, _| *k = 1), "part id past the part count");
    rejected(decode_edited(|_, _, c, _, _, _| *c = 4), "corner count");
    rejected(
        decode_edited(|_, _, _, s, _, _| {
            s.pop();
        }),
        "section count",
    );
    rejected(
        decode_edited(|_, _, _, s, _, _| {
            s[4].pop();
        }),
        "short neighbour rows",
    );
    rejected(decode_edited(|_, _, _, s, _, _| s[3].reverse()), "unsorted row offsets");
    rejected(decode_edited(|_, _, _, s, _, _| s[7].clear()), "no color offsets");
    rejected(
        decode_edited(|_, _, _, s, _, _| {
            s[16].pop();
        }),
        "ragged corner table",
    );
    rejected(decode_edited(|_, _, _, _, b, _| b.push(0)), "stat bit count");
    rejected(
        decode_edited(|_, _, _, _, _, v| {
            v.pop();
        }),
        "inverse degree count",
    );
    rejected(
        decode_edited(|_, _, _, s, _, _| {
            s[17].pop();
        }),
        "schedule offsets",
    );
    rejected(
        decode_edited(|_, _, _, s, _, _| {
            s[18].pop();
        }),
        "odd schedule entries",
    );
    rejected(
        decode_edited(|_, _, _, s, _, _| {
            let local = (s[0].len() + s[1].len()) as u32;
            s[16][0] = local;
        }),
        "corner id past the local vertices",
    );
    rejected(
        decode_edited(|_, _, _, s, _, _| {
            let local = (s[0].len() + s[1].len()) as u32;
            s[4][0] = local;
        }),
        "neighbour id past the local vertices",
    );
    rejected(
        decode_edited(|_, _, _, s, _, _| {
            let elements = s[13].len() as u32;
            s[6][0] = elements;
        }),
        "incident element past the local elements",
    );
    rejected(
        decode_edited(|_, _, _, s, _, _| {
            let owned = s[0].len() as u32;
            s[2][0] = owned;
        }),
        "sweep vertex not owned",
    );
    rejected(decode_edited(|_, _, _, s, _, _| *s[0].last_mut().unwrap() = u32::MAX), "vertex id");
    rejected(decode_edited(|_, _, _, s, _, _| s[1].reverse()), "unsorted halo");
    rejected(decode_edited(|_, _, _, s, _, _| *s[13].last_mut().unwrap() = u32::MAX), "element id");
    rejected(
        decode_edited(|_, k, _, s, _, _| {
            if let Some(q) = s[18].first_mut() {
                *q = *k;
            }
        }),
        "schedule entry for no part",
    );
    rejected(
        decode_edited(|_, _, _, _, b, _| {
            if let Some(w) = b.last_mut() {
                *w = u64::MAX;
            }
        }),
        "stat bits past the element count",
    );
    // a frame of another kind where the block is due
    let not_a_block = ResidentBlock::<3>::from_frame(Frame::Interior, 0, 10, 10);
    rejected(not_a_block, "not a block frame");
}

#[test]
fn truncated_or_corrupted_block_frames_are_typed_errors() {
    let mesh = lms_mesh::generators::perturbed_grid(12, 11, 0.35, 9);
    let engine = ResidentEngine::by_method(&mesh, SmoothParams::paper(), 3, PartitionMethod::Rcb);
    let bytes = frame_of(&engine.blocks()[0], 0, engine.exchange_schedule());
    let (n, t) = (mesh.num_vertices(), mesh.elements().len());
    // every cut of the stream fails to read, never panics
    for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
        assert!(decode::<3>(&bytes[..cut], 0, n, t).is_err(), "cut at {cut}");
    }
    // flipping any payload byte is caught, as a checksum failure
    for at in (8..bytes.len()).step_by(53) {
        let mut torn = bytes.clone();
        torn[at] ^= 0x24;
        match decode::<3>(&torn, 0, n, t) {
            Err(WireError::BadChecksum { expected, got }) => assert_ne!(expected, got),
            other => panic!("byte {at}: expected BadChecksum, got {:?}", other.map(|_| "a block")),
        }
    }
    // a corrupted length prefix or checksum stamp is caught too
    for at in 0..8 {
        let mut torn = bytes.clone();
        torn[at] ^= 0x01;
        assert!(decode::<3>(&torn, 0, n, t).is_err(), "header byte {at}");
    }
}
