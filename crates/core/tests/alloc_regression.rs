//! Tier-2 allocation-regression pin for the scratch stream-encode path.
//!
//! The whole point of the scratch refactor is that a streaming session's
//! steady state performs **zero** heap allocation per frame: tile gathers,
//! ellipsoids, axis candidates, the adjusted frame in both color spaces
//! and the packed bitstream all live in buffers that warm up once and are
//! reused for the rest of the session. This test pins that property with
//! a counting global allocator so it cannot silently rot. Both ends of the
//! wire are pinned: intra and temporal (Skip/Delta/keyframe) sessions
//! encode, and `BdDecoder::decode_frame_into` decodes every payload into
//! a warm frame, all in the same measured window. The producer side of a
//! stream frame is pinned too: rendering a scene into a recycled pool
//! buffer must not allocate either (the noise cursors and the renderer's
//! column strips live on the stack).
//!
//! The counter is per thread, as in `crates/bdc/tests/bitstream_adversarial.rs`:
//! every measured call runs on the test's own thread, while the test
//! harness's main thread allocates for its own bookkeeping just after it
//! starts the test. A process-global counter caught those allocations in
//! the first measured window when the machine was loaded (4 events, in 17
//! of 60 runs next to two busy loops). The test still lives alone in its
//! own integration-test binary, since the global allocator is the
//! binary's.

use pvc_bdc::{BdDecoder, FrameKind};
use pvc_color::{Srgb8, SyntheticDiscriminationModel};
use pvc_core::{BatchEncoder, EncoderConfig, StreamScratch, TemporalConfig};
use pvc_fovea::{DisplayGeometry, GazePoint};
use pvc_frame::{Dimensions, SrgbFrame};
use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};
use pvc_trace::{Marker, Recorder, Stage, TraceEpoch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

thread_local! {
    /// Allocation / reallocation events on this thread since it started.
    /// A const-initialized `Cell<u64>` has no drop glue, so touching it
    /// from inside the allocator never allocates or recurses.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation / reallocation events on the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The system allocator with an event counter in front.
struct CountingAllocator;

// SAFETY: delegates every operation verbatim to the system allocator; the
// counter has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Renders every scene into an already-sized frame, as a shard producer
/// does with a recycled pool buffer, and asserts zero allocation events.
/// The sizes cover a stereo frame and frames several of the renderer's
/// 32-pixel column strips wide, one of them ending in a partial strip.
fn assert_rendering_into_a_sized_frame_does_not_allocate() {
    let configs = [
        SceneConfig::new(Dimensions::new(96, 64)),
        SceneConfig::stereo(Dimensions::new(128, 64)),
        SceneConfig::new(Dimensions::new(203, 21)),
    ];
    for config in configs {
        let renderers = SceneId::ALL.map(|scene| SceneRenderer::new(scene, config));
        let mut frame = renderers[0].render_linear(0);
        let before = allocations();
        for renderer in &renderers {
            for index in [0, 1, 23] {
                renderer.render_linear_into(index, &mut frame);
            }
        }
        let allocations = allocations() - before;
        assert_eq!(frame.dimensions(), config.dimensions);
        assert_eq!(
            allocations, 0,
            "rendering into a sized frame must not allocate \
             ({allocations} allocation events over 18 renders, {config:?})"
        );
    }
}

#[test]
fn steady_state_stream_frames_do_not_allocate() {
    assert_rendering_into_a_sized_frame_does_not_allocate();

    let dims = Dimensions::new(96, 64);
    let renderer = SceneRenderer::new(SceneId::Office, SceneConfig::new(dims));
    let frames: Vec<_> = (0..4).map(|t| renderer.render_linear(t)).collect();
    // Two gazes so the warm-up also populates the eccentricity-map cache
    // for every gaze the measured pass will request.
    let gazes = [GazePoint::center_of(dims), GazePoint::new(10.0, 12.0)];

    let mut session = BatchEncoder::new(
        SyntheticDiscriminationModel::default(),
        EncoderConfig::default(),
        DisplayGeometry::quest2_like(dims),
    );
    let mut scratch = StreamScratch::new();
    let mut bitstream = Vec::new();
    let mut decoder = BdDecoder::new();
    let mut decoded = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());

    // A temporal session with its own scratch, payload and decoder: a
    // keyframe every third frame, predicted frames in between.
    let mut temporal = BatchEncoder::new(
        SyntheticDiscriminationModel::default(),
        EncoderConfig::default().with_temporal(TemporalConfig::every(3)),
        DisplayGeometry::quest2_like(dims),
    );
    let mut temporal_scratch = StreamScratch::new();
    let mut temporal_bitstream = Vec::new();
    let mut temporal_decoder = BdDecoder::new();
    let mut temporal_decoded = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
    let mut predicted_frames = 0u32;

    // Tracing stays ON through the measured pass: the pin also covers the
    // pvc_trace recording path. The tiny ring capacity (4) forces the
    // overwrite-oldest wrap branch, the one that runs in steady state.
    let epoch = TraceEpoch::now();
    let mut recorder = Recorder::new(epoch, 4);
    recorder.mark(Marker::Admit, 0, 1);

    // Warm-up: builds the eccentricity maps and grows every scratch buffer,
    // decoded frame and temporal reference to its steady-state size.
    let mut warmup_bytes = 0usize;
    for frame in &frames {
        for &gaze in &gazes {
            session.encode_frame_stream_into(frame, gaze, &mut scratch, &mut bitstream);
            decoder
                .decode_frame_into(&bitstream, &mut decoded)
                .expect("intra payloads decode");
            warmup_bytes += bitstream.len();
            temporal.encode_frame_stream_into(
                frame,
                gaze,
                &mut temporal_scratch,
                &mut temporal_bitstream,
            );
            temporal_decoder
                .decode_frame_into(&temporal_bitstream, &mut temporal_decoded)
                .expect("temporal payloads decode");
        }
    }
    assert!(warmup_bytes > 0, "the warm-up must produce real bitstreams");

    // Measured steady state: the exact same frame/gaze schedule again,
    // now recording the same spans a tracing shard worker records.
    let before = allocations();
    let mut measured_bytes = 0usize;
    let mut frame_index = 0u32;
    let mut decode_ok = true;
    for frame in &frames {
        for &gaze in &gazes {
            let started = Instant::now();
            session.encode_frame_stream_into(frame, gaze, &mut scratch, &mut bitstream);
            let timing = scratch.last_timing();
            recorder.span_nanos(Stage::Adjust, 0, 1, frame_index, 0, timing.adjust);
            recorder.span_nanos(Stage::Gamma, 0, 1, frame_index, 0, timing.gamma);
            recorder.span_nanos(Stage::BdEncode, 0, 1, frame_index, 0, timing.bd_encode);
            recorder.span(Stage::WireEmit, 0, 1, frame_index, started);
            measured_bytes += bitstream.len();
            let decode = decoder.decode_frame_into(&bitstream, &mut decoded);
            decode_ok &= decode == Ok(FrameKind::Key);
            temporal.encode_frame_stream_into(
                frame,
                gaze,
                &mut temporal_scratch,
                &mut temporal_bitstream,
            );
            let decode =
                temporal_decoder.decode_frame_into(&temporal_bitstream, &mut temporal_decoded);
            decode_ok &= decode.is_ok();
            predicted_frames += u32::from(decode == Ok(FrameKind::Predicted));
            frame_index += 1;
        }
    }
    let allocations = allocations() - before;

    assert_eq!(measured_bytes, warmup_bytes, "the workload must repeat");
    assert!(decode_ok, "every measured payload must decode");
    assert!(
        predicted_frames > 0,
        "the temporal session must emit predicted frames in the measured pass"
    );
    assert_eq!(
        allocations, 0,
        "steady-state stream frames must not allocate, tracing, decode and \
         temporal coding included ({allocations} allocation events over 8 frames)"
    );
    assert_eq!(
        recorder.tables().total_count(),
        4 * u64::from(frame_index),
        "every measured span must have landed in the stage tables"
    );
    assert!(
        recorder.recorded() > 4,
        "the measured pass must have wrapped the 4-event ring"
    );
}
