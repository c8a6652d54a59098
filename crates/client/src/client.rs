//! The decode side of one session: wire records in, displayed frames and
//! delivery accounting out.

use crate::link::LinkModel;
use pvc_bdc::{BdDecoder, BitstreamError, FrameKind};
use pvc_color::Srgb8;
use pvc_frame::{Dimensions, SrgbFrame};
use pvc_metrics::{DeliveryReport, QualityReport};
use pvc_stream::{WireError, WireReader, WireRecord, WireSessionHeader};
use pvc_trace::{Recorder, Stage};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Errors produced while consuming a session's wire stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The wire framing was malformed.
    Wire(WireError),
    /// A frame payload failed to decode.
    Decode {
        /// Index of the offending frame.
        frame_index: u32,
        /// The decoder's error.
        error: BitstreamError,
    },
    /// The stream did not start with a session header record.
    MissingHeader,
    /// A second session header appeared mid-stream.
    DuplicateHeader,
    /// A frame record appeared after the end record.
    RecordAfterEnd,
    /// Frame indices were not consecutive from zero.
    FrameIndexMismatch {
        /// The index the client expected next.
        expected: u32,
        /// The index the record carried.
        found: u32,
    },
    /// A frame's decoded dimensions differ from the session header's.
    DimensionMismatch {
        /// Index of the offending frame.
        frame_index: u32,
    },
    /// The wire record's keyframe flag disagrees with the payload's
    /// actual frame type (an intra payload flagged predicted, or vice
    /// versa) — loss concealment would make the wrong call on it.
    FrameTypeMismatch {
        /// Index of the offending frame.
        frame_index: u32,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(err) => write!(f, "wire framing error: {err}"),
            ClientError::Decode { frame_index, error } => {
                write!(f, "frame {frame_index} failed to decode: {error}")
            }
            ClientError::MissingHeader => write!(f, "stream has no session header"),
            ClientError::DuplicateHeader => write!(f, "second session header mid-stream"),
            ClientError::RecordAfterEnd => write!(f, "record after the end record"),
            ClientError::FrameIndexMismatch { expected, found } => {
                write!(f, "expected frame index {expected}, found {found}")
            }
            ClientError::DimensionMismatch { frame_index } => {
                write!(
                    f,
                    "frame {frame_index} does not match the header dimensions"
                )
            }
            ClientError::FrameTypeMismatch { frame_index } => {
                write!(
                    f,
                    "frame {frame_index}'s keyframe flag disagrees with its payload"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(err: WireError) -> Self {
        ClientError::Wire(err)
    }
}

/// What one session's client observed over its whole stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientReport {
    /// The session header the stream opened with.
    pub header: WireSessionHeader,
    /// True when the worker flagged the stream as hard-cancelled.
    pub cancelled: bool,
    /// True when the stream carried a proper end record (a stream cut off
    /// mid-transfer has `terminated = false`).
    pub terminated: bool,
    /// Number of mid-stream tier-change records (controller sheds). Every
    /// frame after a change is decoded, deadline-checked, and billed
    /// against the link at the *new* tier, not the admission-time one.
    pub tier_changes: u32,
    /// Per-frame delivery and displayed-quality accounting.
    pub delivery: DeliveryReport,
}

/// A client that consumes session wire streams: parses the framing,
/// simulates the link, decodes every frame that survives it, and accounts
/// delivery against the tier's refresh deadline.
///
/// The two internal frames (`current` decode target and `displayed` panel
/// content) are scratch, recycled across frames *and* across sessions —
/// the per-frame decode path performs no allocation once they have warmed
/// up, mirroring the encoder workers' scratch discipline.
///
/// # Examples
///
/// ```
/// use pvc_client::{LinkModel, SessionClient};
/// use pvc_frame::Dimensions;
/// use pvc_stream::{ServiceConfig, StreamService};
///
/// let mut service = StreamService::new(ServiceConfig::default().with_collect_wire(true));
/// service.admit_synthetic(1, Dimensions::new(16, 16), 2);
/// let report = service.run();
///
/// let wire = report.sessions[0].wire_stream.as_ref().expect("collected");
/// let mut client = SessionClient::new(LinkModel::lossless());
/// let seen = client.consume(wire).expect("well-formed stream");
/// assert_eq!(seen.delivery.frames_sent, 2);
/// assert_eq!(seen.delivery.frames_delivered, 2);
/// assert!(seen.delivery.psnr_db().is_infinite(), "lossless link, lossless codec");
/// ```
#[derive(Debug, Clone)]
pub struct SessionClient {
    link: LinkModel,
    decoder: BdDecoder,
    current: SrgbFrame,
    displayed: SrgbFrame,
    /// When present, decode spans (wall time) and link-transit spans
    /// (simulated stream time) are recorded per consumed frame.
    recorder: Option<Recorder>,
}

impl SessionClient {
    /// Creates a client that receives over `link`.
    pub fn new(link: LinkModel) -> Self {
        SessionClient {
            link,
            decoder: BdDecoder::new(),
            current: SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default()),
            displayed: SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default()),
            recorder: None,
        }
    }

    /// Returns the client with per-frame tracing: each consumed frame
    /// records a decode span (wall time) and a link-transit span.
    ///
    /// The link is simulated, so its transit span lives in the *stream's*
    /// own virtual timeline (seconds since the stream started, as
    /// nanoseconds) rather than wall time — useful for seeing pipe
    /// serialization and deadline misses, not for comparing against the
    /// serving threads' wall-clock spans.
    pub fn with_trace(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Takes the recorder back (e.g. to seal it into a
    /// [`pvc_trace::ThreadTrace`] after replaying a batch of streams),
    /// leaving tracing disabled.
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.recorder.take()
    }

    /// The client's link model.
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// Consumes one session's wire stream, returning the delivery report.
    ///
    /// # Errors
    ///
    /// Returns a [`ClientError`] when the framing, a payload, or the
    /// record sequence is malformed.
    pub fn consume(&mut self, bytes: &[u8]) -> Result<ClientReport, ClientError> {
        self.consume_with(bytes, |_, _| {})
    }

    /// Like [`consume`](Self::consume), invoking `on_frame` with every
    /// frame the client can actually reconstruct (on time or late; not
    /// dropped, and not stranded behind a prediction chain a dropped
    /// frame broke), in frame order, with its decoded pixels.
    pub fn consume_with<F>(
        &mut self,
        bytes: &[u8],
        mut on_frame: F,
    ) -> Result<ClientReport, ClientError>
    where
        F: FnMut(u32, &SrgbFrame),
    {
        let mut reader = WireReader::new(bytes);
        let header = match reader.next_record() {
            Some(Ok(WireRecord::Header(header))) => header,
            Some(Ok(_)) | None => return Err(ClientError::MissingHeader),
            Some(Err(err)) => return Err(err.into()),
        };
        // The session's *current* geometry. A mid-stream tier-change
        // record re-keys all three, so decode checks, deadlines, and
        // link billing always follow the tier each frame was actually
        // encoded under — not the admission-time tier.
        let mut tier = header.tier;
        let mut dimensions = Dimensions::new(header.width, header.height);
        let mut period = 1.0 / f64::from(tier.refresh_hz());
        let latency = self.link.latency_seconds();
        let mut coin = ChaCha8Rng::seed_from_u64(self.link.seed ^ header.session);
        let mut delivery = DeliveryReport::default();
        let mut cancelled = false;
        let mut terminated = false;
        let mut tier_changes = 0u32;
        let mut expected_index = 0u32;
        // Send slots accumulate one (current-tier) period per frame, so a
        // downgrade mid-stream shifts the cadence from its switch point.
        let mut next_send = 0.0f64;
        // The link is a serialized pipe: a frame's transmission cannot
        // start before the previous one's finished.
        let mut link_free = 0.0f64;
        let mut has_displayed = false;
        // True while a dropped frame has the prediction chain broken: the
        // real client cannot reconstruct any predicted frame until the
        // next keyframe, however intact those frames arrive.
        let mut chain_broken = false;
        // The decoder is recycled across sessions; a new stream must not
        // inherit the previous stream's last frame as a reference.
        self.decoder.invalidate_reference();
        while let Some(record) = reader.next_record() {
            match record? {
                WireRecord::Header(_) => return Err(ClientError::DuplicateHeader),
                WireRecord::Frame {
                    frame_index,
                    keyframe,
                    payload,
                } => {
                    if terminated {
                        return Err(ClientError::RecordAfterEnd);
                    }
                    if frame_index != expected_index {
                        return Err(ClientError::FrameIndexMismatch {
                            expected: expected_index,
                            found: frame_index,
                        });
                    }
                    expected_index += 1;
                    // Decode first — every frame, even ones the link will
                    // drop: the stateful decoder is the simulation's ground
                    // truth oracle (BD is lossless, so `current` *is* the
                    // worker's adjusted frame), and predicted frames need
                    // the reference chain to stay linear. Whether the real
                    // client could reconstruct the frame is tracked
                    // separately via `chain_broken`.
                    let decode_start = Instant::now();
                    let kind = self
                        .decoder
                        .decode_frame_into(payload, &mut self.current)
                        .map_err(|error| ClientError::Decode { frame_index, error })?;
                    if (kind == FrameKind::Key) != keyframe {
                        return Err(ClientError::FrameTypeMismatch { frame_index });
                    }
                    if let Some(recorder) = self.recorder.as_mut() {
                        recorder.span(
                            Stage::Decode,
                            tier.class_index(),
                            header.session,
                            frame_index,
                            decode_start,
                        );
                    }
                    if self.current.dimensions() != dimensions {
                        return Err(ClientError::DimensionMismatch { frame_index });
                    }
                    // Link simulation. The drop coin is flipped for every
                    // frame so the loss pattern is independent of the
                    // bandwidth/latency settings.
                    let dropped = coin.gen::<f64>() < self.link.drop_probability;
                    let send = next_send;
                    next_send += period;
                    let deadline = send + period;
                    let start = send.max(link_free);
                    link_free = start + self.link.transmission_seconds(tier, payload.len() as u64);
                    let arrival = link_free + latency;
                    if let Some(recorder) = self.recorder.as_mut() {
                        // Virtual stream time, not wall time: the span
                        // covers transmission-start → arrival on the
                        // simulated pipe, so serialized backlog shows up
                        // as spans stacking past their frame slots.
                        recorder.span_nanos(
                            Stage::LinkTransit,
                            tier.class_index(),
                            header.session,
                            frame_index,
                            (start * 1e9) as u64,
                            ((arrival - start).max(0.0) * 1e9) as u64,
                        );
                    }
                    let payload_bytes = payload.len() as u64;
                    if dropped {
                        delivery.record_dropped(payload_bytes);
                        self.account_slot(&mut delivery, has_displayed);
                        // The real client never got this frame, so every
                        // predicted frame from here to the next keyframe
                        // has lost its reference.
                        chain_broken = true;
                    } else {
                        // A keyframe needs no reference: it repairs the
                        // chain whether it is on time or late. A predicted
                        // frame behind a break is intact on the wire but
                        // unreconstructable — stale until the next key.
                        let displayable = keyframe || !chain_broken;
                        if keyframe {
                            chain_broken = false;
                        }
                        if arrival <= deadline {
                            delivery.record_delivered(payload_bytes);
                            if displayable {
                                // The slot shows exactly its own frame:
                                // zero error over the slot's samples.
                                delivery.accumulate_error(0.0, 3 * dimensions.pixel_count() as u64);
                                std::mem::swap(&mut self.current, &mut self.displayed);
                                has_displayed = true;
                                on_frame(frame_index, &self.displayed);
                            } else {
                                delivery.stale_frames += 1;
                                self.account_slot(&mut delivery, has_displayed);
                            }
                        } else {
                            delivery.record_late(payload_bytes);
                            self.account_slot(&mut delivery, has_displayed);
                            if displayable {
                                // A late frame still reaches the panel for
                                // the *next* slots.
                                std::mem::swap(&mut self.current, &mut self.displayed);
                                has_displayed = true;
                                on_frame(frame_index, &self.displayed);
                            } else {
                                delivery.stale_frames += 1;
                            }
                        }
                    }
                }
                WireRecord::TierChange(change) => {
                    if terminated {
                        return Err(ClientError::RecordAfterEnd);
                    }
                    if change.frame_index != expected_index {
                        return Err(ClientError::FrameIndexMismatch {
                            expected: expected_index,
                            found: change.frame_index,
                        });
                    }
                    tier = change.tier;
                    dimensions = Dimensions::new(change.width, change.height);
                    period = 1.0 / f64::from(tier.refresh_hz());
                    // The panel geometry changed: the previously displayed
                    // frame can no longer fill a slot, so missed slots show
                    // blank until the first post-change frame lands.
                    has_displayed = false;
                    tier_changes += 1;
                }
                WireRecord::End {
                    frames,
                    cancelled: end_cancelled,
                } => {
                    if terminated {
                        return Err(ClientError::RecordAfterEnd);
                    }
                    if frames != expected_index {
                        return Err(ClientError::FrameIndexMismatch {
                            expected: expected_index,
                            found: frames,
                        });
                    }
                    terminated = true;
                    cancelled = end_cancelled;
                }
            }
        }
        delivery.stream_seconds = next_send;
        Ok(ClientReport {
            header,
            cancelled,
            terminated,
            tier_changes,
            delivery,
        })
    }

    /// Accounts a slot whose own frame missed it: the panel keeps showing
    /// the previous frame (stale error) or stays blank.
    fn account_slot(&self, delivery: &mut DeliveryReport, has_displayed: bool) {
        if has_displayed {
            let quality = QualityReport::compare(&self.current, &self.displayed)
                .expect("same session, same dimensions");
            let samples = 3 * self.current.dimensions().pixel_count() as u64;
            delivery.accumulate_error(quality.mse * samples as f64, samples);
        } else {
            delivery.blank_slots += 1;
        }
    }
}
