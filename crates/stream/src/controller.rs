//! The elastic control plane: admission gating, tier-shedding, shard
//! autoscaling, and rebalancing migration over a live [`StreamRuntime`].
//!
//! The runtime executes verbs (admit, retire, shed, migrate, spawn,
//! drain); this module decides *when* to issue them. An
//! [`ElasticController`] wraps a started runtime and exposes two entry
//! points:
//!
//! * [`ElasticController::submit`] — admission control. Every incoming
//!   [`SessionConfig`] is gated against the fleet-wide pixel budget
//!   ([`ElasticConfig::fleet_pixel_budget`], summed over all live
//!   sessions' per-frame pixel cost). Sessions that fit are admitted
//!   immediately; sessions that don't are queued FIFO up to
//!   [`ElasticConfig::queue_capacity`], and rejected beyond it (or when
//!   a single session could never fit the budget at all).
//! * [`ElasticController::tick`] — the periodic control loop. One tick
//!   promotes queued sessions as budget frees, sheds the most expensive
//!   downgradable session after [`ElasticConfig::shed_after_ticks`]
//!   consecutive overloaded ticks, scales the shard fleet on remaining-
//!   work hysteresis thresholds, and executes at most one rebalancing
//!   migration per tick via [`crate::placement::plan_migration`].
//!
//! Every decision reads only deterministic-commitment gauges (committed
//! and remaining pixels), never wall-clock rates, so a controller
//! trajectory is reproducible for a fixed submission order even though
//! the *encoded streams* are bit-identical regardless of what the
//! controller does — shedding and migration preserve the per-session
//! determinism contract (see [`crate::runtime`]'s determinism notes).
//!
//! # Examples
//!
//! ```
//! use pvc_frame::Dimensions;
//! use pvc_stream::{
//!     Admission, ElasticConfig, ElasticController, ServiceConfig, SessionConfig, StreamRuntime,
//! };
//!
//! // Budget: one 32×32 session's per-frame pixels. The second submission
//! // queues, the third (queue capacity 1) is rejected.
//! let runtime = StreamRuntime::start_static(ServiceConfig::default());
//! let elastic = ElasticConfig::new(32 * 32).with_queue_capacity(1);
//! let mut controller = ElasticController::new(runtime, elastic);
//!
//! let first = controller.submit(SessionConfig::synthetic(0, Dimensions::new(32, 32), 2));
//! assert!(matches!(first, Admission::Admitted(0)));
//! assert_eq!(
//!     controller.submit(SessionConfig::synthetic(1, Dimensions::new(32, 32), 2)),
//!     Admission::Queued
//! );
//! assert_eq!(
//!     controller.submit(SessionConfig::synthetic(2, Dimensions::new(32, 32), 2)),
//!     Admission::Rejected
//! );
//!
//! // Once the first stream finishes, a tick promotes the queued one.
//! controller.drain();
//! let actions = controller.tick();
//! assert_eq!(actions.admitted, vec![1]);
//!
//! controller.drain();
//! let report = controller.shutdown();
//! assert_eq!(report.churn.admitted, 2);
//! assert_eq!(report.elasticity.queued, 1);
//! assert_eq!(report.elasticity.rejected, 1);
//! ```

use crate::placement::plan_migration;
use crate::runtime::StreamRuntime;
use crate::service::{ServiceReport, ShardReport};
use crate::session::{SessionConfig, SessionProfile, SessionReport};
use pvc_metrics::ElasticityCounters;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Tuning knobs of the elastic control plane.
///
/// All thresholds are in *pixels* — per-frame committed pixels for the
/// admission budget, total remaining pixels for the autoscaler — so the
/// controller's decisions are pure functions of workload shape, not
/// timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ElasticConfig {
    /// Fleet-wide admission budget: the sum of live sessions' per-frame
    /// pixel costs may not exceed this.
    pub fleet_pixel_budget: u64,
    /// How many sessions may wait in the admission queue before further
    /// submissions are rejected outright.
    pub queue_capacity: usize,
    /// Spawn a shard when remaining work *per serving shard* exceeds
    /// this many pixels (up to [`Self::max_shards`]).
    pub scale_up: u64,
    /// Drain the coldest shard when remaining work per serving shard
    /// falls below this many pixels (down to [`Self::min_shards`]).
    /// Must be strictly below [`Self::scale_up`] — the gap is the
    /// hysteresis band that keeps the fleet from thrashing.
    pub scale_down: u64,
    /// The autoscaler never drains below this many shards.
    pub min_shards: usize,
    /// The autoscaler never spawns above this many shards.
    pub max_shards: usize,
    /// Shed a session's tier after this many *consecutive* overloaded
    /// ticks (ticks that end with the admission queue still non-empty).
    pub shed_after_ticks: u32,
}

impl ElasticConfig {
    /// A controller that only gates admissions: autoscaling thresholds
    /// that never fire, a queue of 8, shedding after 3 overloaded ticks.
    pub fn new(fleet_pixel_budget: u64) -> ElasticConfig {
        ElasticConfig {
            fleet_pixel_budget,
            queue_capacity: 8,
            scale_up: u64::MAX,
            scale_down: 0,
            min_shards: 1,
            max_shards: usize::MAX,
            shed_after_ticks: 3,
        }
    }

    /// Returns the config with a different admission-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> ElasticConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Returns the config with autoscaling hysteresis thresholds
    /// (remaining pixels per serving shard).
    pub fn with_scale_thresholds(mut self, scale_up: u64, scale_down: u64) -> ElasticConfig {
        self.scale_up = scale_up;
        self.scale_down = scale_down;
        self
    }

    /// Returns the config with shard-count bounds for the autoscaler.
    pub fn with_shard_bounds(mut self, min_shards: usize, max_shards: usize) -> ElasticConfig {
        self.min_shards = min_shards;
        self.max_shards = max_shards;
        self
    }

    /// Returns the config with a different overload patience before a
    /// tier shed.
    pub fn with_shed_after_ticks(mut self, ticks: u32) -> ElasticConfig {
        self.shed_after_ticks = ticks;
        self
    }
}

/// The controller's verdict on one submitted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Admission {
    /// Admitted immediately; carries the session id the runtime assigned.
    Admitted(usize),
    /// The fleet is at budget: the session waits in the admission queue
    /// and will be promoted by a later [`ElasticController::tick`].
    Queued,
    /// Refused: the queue is full, or the session could never fit the
    /// fleet budget even alone.
    Rejected,
}

/// What one control tick actually did — the bench binaries log these as
/// the controller trajectory.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TickActions {
    /// Queued sessions promoted to the runtime this tick, in FIFO order.
    pub admitted: Vec<usize>,
    /// Session shed one resolution tier down, if any.
    pub shed: Option<usize>,
    /// Stable id of a shard spawned this tick, if any.
    pub spawned: Option<usize>,
    /// Stable id of a shard drained this tick, if any.
    pub drained: Option<usize>,
    /// A rebalancing migration `(session, from, to)`, if any.
    pub migrated: Option<(usize, usize, usize)>,
}

impl TickActions {
    /// True when the tick changed nothing.
    pub fn is_idle(&self) -> bool {
        self.admitted.is_empty()
            && self.shed.is_none()
            && self.spawned.is_none()
            && self.drained.is_none()
            && self.migrated.is_none()
    }
}

/// The elastic control plane over a started [`StreamRuntime`] — see the
/// [module docs](self) for the policy and an example.
#[derive(Debug)]
pub struct ElasticController {
    runtime: StreamRuntime,
    config: ElasticConfig,
    pending: VecDeque<SessionConfig>,
    /// Profiles of controller-submitted live sessions (pruned each tick);
    /// the shed policy picks its victim from these.
    sessions: BTreeMap<usize, SessionProfile>,
    /// Admission-side counters (rejected/queued); the runtime counts the
    /// verbs it executes itself, and [`Self::shutdown`] merges the two.
    counters: ElasticityCounters,
    overload_ticks: u32,
    /// The last rebalancing migration `(session, from, to)`. The load
    /// gauges transfer only when the destination worker applies the
    /// verb, so for a few ticks the planner sees a pre-migration
    /// snapshot and would undo the move it just made; refusing the
    /// exact reversal breaks that ping-pong.
    last_migration: Option<(usize, usize, usize)>,
}

impl ElasticController {
    /// Wraps a started runtime in the control plane.
    ///
    /// # Panics
    ///
    /// Panics when `config` is inconsistent: `scale_up <= scale_down`
    /// (no hysteresis band), `min_shards == 0`, or
    /// `max_shards < min_shards`.
    pub fn new(runtime: StreamRuntime, config: ElasticConfig) -> ElasticController {
        assert!(
            config.scale_up > config.scale_down,
            "scale_up must exceed scale_down: equal thresholds make the autoscaler thrash"
        );
        assert!(config.min_shards >= 1, "the fleet needs a serving shard");
        assert!(
            config.max_shards >= config.min_shards,
            "max_shards must be at least min_shards"
        );
        ElasticController {
            runtime,
            config,
            pending: VecDeque::new(),
            sessions: BTreeMap::new(),
            counters: ElasticityCounters::default(),
            overload_ticks: 0,
            last_migration: None,
        }
    }

    /// The wrapped runtime (for load/assignment introspection).
    pub fn runtime(&self) -> &StreamRuntime {
        &self.runtime
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ElasticConfig {
        &self.config
    }

    /// Number of sessions waiting in the admission queue.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Elasticity counters so far: the runtime's executed verbs merged
    /// with the controller's admission-side decisions.
    pub fn elasticity(&self) -> ElasticityCounters {
        let mut counters = self.runtime.elasticity();
        counters.merge(&self.counters);
        counters
    }

    /// Per-frame pixels currently committed across the fleet.
    pub fn committed_pixels(&self) -> u64 {
        self.runtime
            .shard_loads()
            .iter()
            .map(|load| load.session_pixels)
            .sum()
    }

    /// Gates one session against the fleet budget: admit, queue, or
    /// reject. Queued sessions keep FIFO order — a submission never
    /// jumps ahead of an earlier one already waiting.
    pub fn submit(&mut self, config: SessionConfig) -> Admission {
        let cost = config.pixel_cost();
        if cost > self.config.fleet_pixel_budget {
            self.counters.record_rejection();
            return Admission::Rejected;
        }
        if self.pending.is_empty()
            && self.committed_pixels() + cost <= self.config.fleet_pixel_budget
        {
            return Admission::Admitted(self.admit_now(config));
        }
        if self.pending.len() < self.config.queue_capacity {
            self.counters.record_queued();
            self.pending.push_back(config);
            return Admission::Queued;
        }
        self.counters.record_rejection();
        Admission::Rejected
    }

    /// One pass of the control loop; returns what it did. See the
    /// [module docs](self) for the step order (promote → shed →
    /// autoscale → rebalance).
    pub fn tick(&mut self) -> TickActions {
        let mut actions = TickActions::default();
        let live: BTreeSet<usize> = self.runtime.live_sessions().into_iter().collect();
        self.sessions.retain(|id, _| live.contains(id));

        // Promote queued sessions while the freed budget holds them.
        while let Some(front) = self.pending.front() {
            if self.committed_pixels() + front.pixel_cost() > self.config.fleet_pixel_budget {
                break;
            }
            let config = self.pending.pop_front().expect("front() just succeeded");
            actions.admitted.push(self.admit_now(config));
        }

        // Sustained overload sheds the most expensive downgradable
        // session one tier; its freed pixels let a later tick promote.
        if self.pending.is_empty() {
            self.overload_ticks = 0;
        } else {
            self.overload_ticks += 1;
            if self.overload_ticks >= self.config.shed_after_ticks {
                if let Some(victim) = self.shed_victim() {
                    let lower = self.sessions[&victim]
                        .downgraded()
                        .expect("shed_victim only picks downgradable sessions");
                    if self.runtime.shed(victim, lower) {
                        self.sessions.insert(victim, lower);
                        actions.shed = Some(victim);
                    }
                }
                self.overload_ticks = 0;
            }
        }

        // Autoscale on remaining work per serving shard, inside the
        // hysteresis band.
        let loads = self.runtime.shard_loads();
        let shards = loads.len().max(1);
        let remaining: u64 = loads.iter().map(|load| load.remaining_pixels).sum();
        let per_shard = remaining / shards as u64;
        if per_shard > self.config.scale_up && shards < self.config.max_shards {
            actions.spawned = Some(self.runtime.spawn_shard());
        } else if per_shard < self.config.scale_down && shards > self.config.min_shards {
            let coldest = loads
                .iter()
                .min_by_key(|load| (load.remaining_pixels, load.shard))
                .expect("a serving shard exists")
                .shard;
            self.runtime.drain_shard(coldest);
            actions.drained = Some(coldest);
        }

        // At most one rebalancing migration per tick keeps churn bounded.
        if let Some(plan) = plan_migration(&self.runtime.shard_loads()) {
            let mover = self
                .sessions
                .keys()
                .copied()
                .find(|id| self.runtime.assignment(*id) == Some(plan.from));
            if let Some(session) = mover {
                let reversal = self.last_migration == Some((session, plan.to, plan.from));
                if !reversal && self.runtime.migrate(session, plan.to) {
                    actions.migrated = Some((session, plan.from, plan.to));
                    self.last_migration = actions.migrated;
                }
            }
        }
        actions
    }

    /// Gracefully retires one session (see [`StreamRuntime::retire`]).
    pub fn retire(&mut self, session: usize) -> SessionReport {
        self.sessions.remove(&session);
        self.runtime.retire(session)
    }

    /// Hard-cancels one session (see [`StreamRuntime::retire_now`]).
    pub fn retire_now(&mut self, session: usize) -> SessionReport {
        self.sessions.remove(&session);
        self.runtime.retire_now(session)
    }

    /// Waits for every *admitted* session to finish (queued sessions
    /// stay queued; run [`Self::tick`] to promote them).
    pub fn drain(&mut self) {
        self.runtime.drain();
    }

    /// Drains a specific shard through the runtime (members migrate to
    /// the surviving shards first).
    pub fn drain_shard(&mut self, shard: usize) -> ShardReport {
        self.runtime.drain_shard(shard)
    }

    /// Shuts the fleet down and returns the final report, with the
    /// controller's admission-side counters merged into
    /// [`ServiceReport::elasticity`]. Sessions still waiting in the
    /// admission queue are discarded (they were never admitted, and
    /// stay counted under `queued`).
    pub fn shutdown(self) -> ServiceReport {
        let mut report = self.runtime.shutdown();
        report.elasticity.merge(&self.counters);
        report
    }

    fn admit_now(&mut self, config: SessionConfig) -> usize {
        let profile = config.profile;
        let id = self.runtime.admit(config);
        self.sessions.insert(id, profile);
        id
    }

    /// The most expensive live session that still has a lower tier to
    /// shed to (ties break toward the lowest session id).
    fn shed_victim(&self) -> Option<usize> {
        self.sessions
            .iter()
            .filter(|(_, profile)| profile.downgraded().is_some())
            .max_by_key(|(id, profile)| (profile.pixel_cost(), Reverse(**id)))
            .map(|(id, _)| *id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::session::ResolutionTier;
    use pvc_frame::Dimensions;

    fn dims() -> Dimensions {
        Dimensions::new(32, 32)
    }

    fn controller(budget: u64) -> ElasticController {
        ElasticController::new(
            StreamRuntime::start_static(ServiceConfig::default()),
            ElasticConfig::new(budget),
        )
    }

    #[test]
    fn admission_gates_queue_and_reject_against_the_budget() {
        // Budget: exactly one 32×32 session.
        let mut controller = controller(32 * 32);
        assert_eq!(
            controller.submit(SessionConfig::synthetic(0, dims(), 2)),
            Admission::Admitted(0)
        );
        for queued in 0..controller.config().queue_capacity {
            assert_eq!(
                controller.submit(SessionConfig::synthetic(1 + queued, dims(), 2)),
                Admission::Queued
            );
        }
        assert_eq!(
            controller.submit(SessionConfig::synthetic(99, dims(), 2)),
            Admission::Rejected,
            "a full queue rejects"
        );
        assert_eq!(
            controller.submit(SessionConfig::synthetic(100, Dimensions::new(64, 64), 2)),
            Admission::Rejected,
            "a session over the whole budget can never fit"
        );
        let queued = controller.pending_len();
        // As streams finish, ticks promote the queue FIFO one budget
        // slot at a time.
        let mut promoted = Vec::new();
        while promoted.len() < queued {
            controller.drain();
            promoted.extend(controller.tick().admitted);
        }
        assert_eq!(promoted, (1..=queued).collect::<Vec<_>>());
        controller.drain();
        let report = controller.shutdown();
        assert_eq!(report.churn.admitted, 1 + queued as u64);
        assert_eq!(report.elasticity.queued, queued as u64);
        assert_eq!(report.elasticity.rejected, 2);
    }

    #[test]
    fn sustained_overload_sheds_the_most_expensive_tier() {
        let vision = SessionProfile::for_tier(ResolutionTier::VisionClass, dims(), 600);
        let vision_cost = vision.pixel_cost();
        let quest = SessionConfig::synthetic(1, dims(), 2);
        // Budget fits the Vision session alone, not the Quest-2 one too —
        // but fits both once the Vision session sheds a tier.
        let budget = vision_cost + quest.pixel_cost() - 1;
        assert!(vision.downgraded().unwrap().pixel_cost() + quest.pixel_cost() <= budget);
        let mut controller = ElasticController::new(
            StreamRuntime::start_static(ServiceConfig::default()),
            ElasticConfig::new(budget).with_shed_after_ticks(2),
        );
        let admitted =
            controller.submit(SessionConfig::synthetic(0, dims(), 600).with_profile(vision));
        assert_eq!(admitted, Admission::Admitted(0));
        assert_eq!(controller.submit(quest), Admission::Queued);

        assert!(controller.tick().is_idle(), "one overloaded tick: patience");
        let actions = controller.tick();
        assert_eq!(actions.shed, Some(0), "two overloaded ticks: shed");
        // Shedding blocks until the downgrade lands, so the victim's
        // committed pixels are already released for the next tick.
        assert!(controller.committed_pixels() < vision_cost);
        let after = controller.tick();
        assert_eq!(after.admitted, vec![1], "freed pixels promote the queue");

        controller.drain();
        let report = controller.shutdown();
        assert_eq!(report.elasticity.shed, 1);
        assert_eq!(report.elasticity.queued, 1);
        let victim = &report.sessions[0];
        assert_eq!(victim.downgraded_from, Some(ResolutionTier::VisionClass));
    }

    #[test]
    fn autoscaler_spawns_under_load_and_drains_when_idle() {
        let mut controller = ElasticController::new(
            StreamRuntime::start_static(ServiceConfig::default()),
            ElasticConfig::new(u64::MAX)
                .with_scale_thresholds(32 * 32 * 100, 32 * 32)
                .with_shard_bounds(1, 2),
        );
        // Far more remaining work per shard than the scale-up threshold.
        assert_eq!(
            controller.submit(SessionConfig::synthetic(0, dims(), 100_000)),
            Admission::Admitted(0)
        );
        let actions = controller.tick();
        assert_eq!(actions.spawned, Some(1));
        assert_eq!(controller.runtime().shard_count(), 2);
        assert!(
            controller.tick().spawned.is_none(),
            "max_shards bounds the fleet"
        );
        // Cut the stream short: remaining work collapses below the
        // scale-down threshold, so the next tick drains a shard.
        let _ = controller.retire_now(0);
        let actions = controller.tick();
        assert!(actions.drained.is_some());
        assert_eq!(controller.runtime().shard_count(), 1);
        assert!(
            controller.tick().drained.is_none(),
            "min_shards keeps the last shard"
        );
        let report = controller.shutdown();
        assert_eq!(report.elasticity.shards_spawned, 1);
        assert_eq!(report.elasticity.shards_drained, 1);
    }

    #[test]
    fn tick_rebalances_a_skewed_fleet_by_migration() {
        let mut controller = ElasticController::new(
            StreamRuntime::start_static(ServiceConfig::default().with_shards(2)),
            ElasticConfig::new(u64::MAX),
        );
        // Static placement: ids 0 and 2 land on shard 0 with huge
        // remaining budgets; id 1 lands on shard 1 and finishes fast.
        assert_eq!(
            controller.submit(SessionConfig::synthetic(0, dims(), 100_000)),
            Admission::Admitted(0)
        );
        assert_eq!(
            controller.submit(SessionConfig::synthetic(1, dims(), 2)),
            Admission::Admitted(1)
        );
        assert_eq!(
            controller.submit(SessionConfig::synthetic(2, dims(), 100_000)),
            Admission::Admitted(2)
        );
        let actions = controller.tick();
        assert_eq!(
            actions.migrated,
            Some((0, 0, 1)),
            "the lowest-id session moves off the hot shard"
        );
        assert_eq!(controller.runtime().assignment(0), Some(1));
        let _ = controller.retire_now(0);
        let _ = controller.retire_now(2);
        controller.drain();
        let report = controller.shutdown();
        assert_eq!(report.elasticity.migrated, 1);
    }

    #[test]
    #[should_panic(expected = "scale_up must exceed scale_down")]
    fn inverted_hysteresis_band_panics() {
        let runtime = StreamRuntime::start_static(ServiceConfig::default());
        let _ = ElasticController::new(
            runtime,
            ElasticConfig::new(1_000).with_scale_thresholds(10, 10),
        );
    }
}
