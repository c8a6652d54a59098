//! The closed taxonomy of pipeline stages and control-plane markers.

/// One stage of the serving pipeline, from the producer's render to the
/// client's decode.
///
/// The set is closed on purpose: every histogram table is a fixed
/// `TIER_CLASS_COUNT × Stage::COUNT` grid allocated up front, so adding a
/// stage is a deliberate schema change, not an ad-hoc string key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Producer: rendering one linear frame for a session.
    Render,
    /// Producer: popping (or waiting on) the recycled frame pool.
    PoolRecycle,
    /// Time a frame job sat in the bounded queue before the worker
    /// dequeued it (enqueue → dequeue).
    QueueWait,
    /// Worker: the whole serving encode of one frame. Adjust → quantize
    /// → BD pack run tile by tile in one loop
    /// (`PerceptualEncoder::encode_frame_stream_into`), so this one span
    /// covers all three.
    Adjust,
    /// Linear → sRGB gamma conversion, when timed as its own pass. The
    /// shard worker does not record it: its encode is one
    /// [`Stage::Adjust`] span.
    Gamma,
    /// BD entropy encode into the bitstream, when timed as its own pass.
    /// The shard worker does not record it (see [`Stage::Gamma`]).
    BdEncode,
    /// Worker: framing the payload into digest/payload/wire sinks.
    WireEmit,
    /// Client: simulated link occupancy (stream time, not wall time).
    LinkTransit,
    /// Client: BD decode of a received payload.
    Decode,
}

impl Stage {
    /// How many stages exist; the row width of every stage table.
    pub const COUNT: usize = 9;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Render,
        Stage::PoolRecycle,
        Stage::QueueWait,
        Stage::Adjust,
        Stage::Gamma,
        Stage::BdEncode,
        Stage::WireEmit,
        Stage::LinkTransit,
        Stage::Decode,
    ];

    /// The stage's position in [`Stage::ALL`].
    pub fn index(self) -> usize {
        match self {
            Stage::Render => 0,
            Stage::PoolRecycle => 1,
            Stage::QueueWait => 2,
            Stage::Adjust => 3,
            Stage::Gamma => 4,
            Stage::BdEncode => 5,
            Stage::WireEmit => 6,
            Stage::LinkTransit => 7,
            Stage::Decode => 8,
        }
    }

    /// Stable snake_case name, used for table rows and trace export.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Render => "render",
            Stage::PoolRecycle => "pool_recycle",
            Stage::QueueWait => "queue_wait",
            Stage::Adjust => "adjust",
            Stage::Gamma => "gamma",
            Stage::BdEncode => "bd_encode",
            Stage::WireEmit => "wire_emit",
            Stage::LinkTransit => "link_transit",
            Stage::Decode => "decode",
        }
    }
}

/// A control-plane moment with no duration: rendered as an instant event
/// in the Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Marker {
    /// A session was admitted to a shard.
    Admit,
    /// A session was asked to retire after its current frame.
    Retire,
    /// A session was hard-cancelled mid-stream.
    Cancel,
    /// A session was downgraded a resolution tier to shed load.
    Shed,
    /// A session was migrated between shards.
    Migrate,
    /// The autoscaler spawned a shard (`session` carries the shard index).
    ShardSpawn,
    /// The autoscaler drained a shard (`session` carries the shard index).
    ShardDrain,
}

impl Marker {
    /// Every marker.
    pub const ALL: [Marker; 7] = [
        Marker::Admit,
        Marker::Retire,
        Marker::Cancel,
        Marker::Shed,
        Marker::Migrate,
        Marker::ShardSpawn,
        Marker::ShardDrain,
    ];

    /// Stable snake_case name for trace export.
    pub fn name(self) -> &'static str {
        match self {
            Marker::Admit => "admit",
            Marker::Retire => "retire",
            Marker::Cancel => "cancel",
            Marker::Shed => "shed",
            Marker::Migrate => "migrate",
            Marker::ShardSpawn => "shard_spawn",
            Marker::ShardDrain => "shard_drain",
        }
    }
}

/// How many tier classes a stage table distinguishes: one per
/// `ResolutionTier` (in `ResolutionTier::ALL` order) plus [`CLASS_OTHER`].
pub const TIER_CLASS_COUNT: usize = 4;

/// The catch-all tier class for events with no session tier (control-plane
/// spans, untyped sessions). Classes `>= CLASS_OTHER` are clamped here.
pub const CLASS_OTHER: u8 = 3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_all_order() {
        for (position, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), position);
        }
    }

    #[test]
    fn names_are_unique() {
        for a in Stage::ALL {
            for b in Stage::ALL {
                if a != b {
                    assert_ne!(a.name(), b.name());
                }
            }
        }
        for a in Marker::ALL {
            for b in Marker::ALL {
                if a != b {
                    assert_ne!(a.name(), b.name());
                }
            }
        }
    }

    #[test]
    fn other_class_is_last() {
        assert_eq!(CLASS_OTHER as usize, TIER_CLASS_COUNT - 1);
    }
}
