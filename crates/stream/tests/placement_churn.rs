//! Property pins for the elastic control plane's invariants:
//!
//! * No placement policy ever routes an admission onto a draining shard,
//!   for arbitrary fleet load shapes (as long as one serving shard
//!   exists — the controller guarantees that by construction, since it
//!   never drains the last shard).
//! * The per-shard commitment gauges (live sessions, committed pixels,
//!   remaining pixels) return to exactly zero after an
//!   admit → migrate → shed → retire (graceful or hard-cancel) lifecycle,
//!   for arbitrary session shapes and tiers — the leak-freedom the
//!   admission budget depends on.

use proptest::prelude::*;
use pvc_frame::Dimensions;
use pvc_stream::{
    LeastLoaded, Placement, PowerOfTwoChoices, Predictive, ResolutionTier, ServiceConfig,
    SessionConfig, SessionProfile, ShardLoad, Static, StreamRuntime,
};

/// Arbitrary fleet snapshots: up to 8 shards with independent gauge
/// values and draining flags, with shard 0 forced to stay serving.
fn load_strategy() -> impl Strategy<Value = Vec<ShardLoad>> {
    proptest::collection::vec(
        (
            (0u32..6, 0u32..100_000),
            (0u32..100_000, 0u32..8),
            (0u32..100_000, any::<bool>()),
        ),
        1..8,
    )
    .prop_map(|entries| {
        let mut loads: Vec<ShardLoad> = entries
            .into_iter()
            .enumerate()
            .map(|(shard, entry)| {
                let (
                    (sessions, session_pixels),
                    (remaining_pixels, queue_depth),
                    (queued_pixels, draining),
                ) = entry;
                ShardLoad {
                    shard,
                    sessions: sessions as usize,
                    queue_depth: queue_depth as usize,
                    session_pixels: u64::from(session_pixels),
                    queued_pixels: u64::from(queued_pixels),
                    remaining_pixels: u64::from(remaining_pixels),
                    draining,
                }
            })
            .collect();
        loads[0].draining = false;
        loads
    })
}

proptest! {
    #[test]
    fn no_policy_places_onto_a_draining_shard(
        loads in load_strategy(),
        session_id in 0u32..64,
    ) {
        let session_id = session_id as usize;
        let config = SessionConfig::synthetic(session_id, Dimensions::new(16, 16), 4);
        let policies: Vec<Box<dyn Placement>> = vec![
            Box::new(Static),
            Box::new(PowerOfTwoChoices::default()),
            Box::new(LeastLoaded),
            Box::new(Predictive),
        ];
        for mut policy in policies {
            let chosen = policy.place(session_id, &config, &loads);
            let load = loads
                .iter()
                .find(|load| load.shard == chosen)
                .expect("policies must choose a listed shard");
            prop_assert!(
                !load.draining,
                "{} routed session {} onto draining shard {}",
                policy.name(),
                session_id,
                chosen
            );
        }
    }
}

proptest! {
    #[test]
    fn gauges_return_to_zero_after_admit_migrate_retire(
        frames in 20u32..120,
        side in 8u32..32,
        tier in 0u32..3,
        shed in any::<bool>(),
        cancel in any::<bool>(),
    ) {
        let dims = Dimensions::new(side, side);
        let profile = SessionProfile::for_tier(ResolutionTier::ALL[tier as usize], dims, frames);
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
        let id = runtime.admit(SessionConfig::synthetic(0, dims, frames).with_profile(profile));
        let from = runtime.assignment(id).expect("just admitted");
        // A fast stream may finish before a verb lands (migrate and shed
        // then return false); the gauges must zero out either way.
        let _ = runtime.migrate(id, 1 - from);
        let lower = profile.downgraded().filter(|_| shed);
        let shed_landed = lower.is_some_and(|lower| runtime.shed(id, lower));
        let report = if cancel { runtime.retire_now(id) } else { runtime.retire(id) };
        let budget = match lower {
            Some(lower) if shed_landed => lower.frames,
            _ => profile.frames,
        };
        if cancel {
            prop_assert!(report.throughput.frames <= u64::from(budget));
        } else {
            prop_assert_eq!(report.throughput.frames, u64::from(budget));
        }
        for load in runtime.shard_loads() {
            prop_assert_eq!(load.sessions, 0, "live sessions leaked on shard {}", load.shard);
            prop_assert_eq!(load.session_pixels, 0, "committed pixels leaked on shard {}", load.shard);
            prop_assert_eq!(load.remaining_pixels, 0, "remaining pixels leaked on shard {}", load.shard);
        }
        runtime.shutdown();
    }
}
