//! Elastic control plane benchmark: admission gating, tier-shedding,
//! shard autoscaling and rebalancing migration under a burst arrival.
//!
//! Wraps a [`StreamRuntime`] in an [`ElasticController`] with a fleet
//! pixel budget sized so a burst of submissions overcommits it: the
//! first sessions admit, the next wait in the admission queue, the tail
//! is rejected outright. The control loop then runs at a fixed 1 ms
//! tick until the fleet drains, logging every non-idle tick as the
//! controller *trajectory*: queued sessions promoted as budget frees,
//! the most expensive session shed a resolution tier under sustained
//! overload, shards spawned/drained on the remaining-work hysteresis
//! band, and skew rebalanced by live migration.
//!
//! The workload leads with one Vision-class whale (the shed victim and
//! the migration mover) followed by baseline Quest-2 sessions. Under
//! the default presets every elasticity counter is exercised at least
//! once, and the run asserts that; overriding a workload or controller
//! knob lifts the assertions (the trajectory is then yours to shape).
//!
//! `--shards` pins a fixed fleet size and conflicts with the
//! autoscaler knobs (`--scale-up`, `--scale-down`, `--min-shards`,
//! `--max-shards`) — mixing them exits with a usage error.
//!
//! ```text
//! cargo run --release -p pvc_bench --bin fleet_elastic -- --quick
//! cargo run --release -p pvc_bench --bin fleet_elastic -- \
//!     --sessions 24 --frames 2000 --fleet-budget 80000 \
//!     --queue-capacity 4 --max-shards 4 --placement predictive
//! ```

use pvc_bench::cli::{exit_with_usage, placement_option, ArgSpec, CliError, ParsedArgs};
use pvc_bench::fleet_report::{print_parameters, FleetRun};
use pvc_bench::json::{self, Json};
use pvc_frame::Dimensions;
use pvc_stream::{
    ElasticConfig, ElasticController, ResolutionTier, ServiceConfig, SessionConfig, SessionProfile,
    StreamRuntime, TickActions, TraceConfig,
};
use std::time::Duration;

const SPEC: ArgSpec = ArgSpec {
    flags: &["--quick"],
    options: &[
        "--sessions",
        "--frames",
        "--width",
        "--height",
        "--shards",
        "--queue-depth",
        "--placement",
        "--fleet-budget",
        "--queue-capacity",
        "--scale-up",
        "--scale-down",
        "--min-shards",
        "--max-shards",
        "--shed-after",
        "--json",
        "--trace",
    ],
};

const USAGE: &str = "[--quick] [--sessions N] [--frames N] [--width PX] [--height PX] \
                     [--shards N] [--queue-depth N] \
                     [--placement static|p2c|least-loaded|predictive] \
                     [--fleet-budget PIXELS] [--queue-capacity N] \
                     [--scale-up PIXELS] [--scale-down PIXELS] \
                     [--min-shards N] [--max-shards N] [--shed-after TICKS] \
                     [--json PATH] [--trace PATH]";

/// Options that leave the preset workload and controller alone.
/// Overriding any other option lifts the trajectory assertions: the
/// every-counter-fires guarantee only holds for the built-in presets.
const TRAJECTORY_NEUTRAL: &[&str] = &["--queue-depth", "--placement", "--json", "--trace"];

/// The workload and controller shape, after the preset and overrides.
struct RunConfig {
    sessions: usize,
    frames: u32,
    dimensions: Dimensions,
    queue_depth: usize,
    /// `Some(n)` pins the fleet at `n` shards and disables autoscaling.
    fixed_shards: Option<usize>,
    fleet_budget: u64,
    queue_capacity: usize,
    scale_up: u64,
    scale_down: u64,
    min_shards: usize,
    max_shards: usize,
    shed_after: u32,
}

fn run_config(parsed: &ParsedArgs) -> Result<RunConfig, CliError> {
    // A fixed shard count and the autoscaler are mutually exclusive by
    // construction: pinning the fleet is exactly turning scaling off.
    if parsed.value("--shards").is_some() {
        for knob in ["--scale-up", "--scale-down", "--min-shards", "--max-shards"] {
            if parsed.value(knob).is_some() {
                return Err(CliError::Conflicting {
                    first: "--shards".to_string(),
                    second: knob.to_string(),
                    reason: "a fixed shard count disables the autoscaler".to_string(),
                });
            }
        }
    }

    let quick = parsed.has("--quick");
    let (sessions, frames, side, queue_capacity, shed_after) = if quick {
        (8, 250, 64, 2, 2)
    } else {
        (16, 1_200, 96, 3, 3)
    };
    let sessions = parsed.positive_usize("--sessions")?.unwrap_or(sessions);
    let frames = parsed.positive_u32("--frames")?.unwrap_or(frames);
    let dimensions = Dimensions::new(
        parsed.positive_u32("--width")?.unwrap_or(side),
        parsed.positive_u32("--height")?.unwrap_or(side),
    );

    // The default budget fits the Vision-class whale plus two baseline
    // sessions exactly — the rest of the burst queues and then rejects.
    let whale = SessionProfile::for_tier(ResolutionTier::VisionClass, dimensions, frames);
    let fleet_budget = parsed
        .u64_value("--fleet-budget")?
        .unwrap_or(whale.pixel_cost() + 2 * dimensions.pixel_count() as u64);
    // Remaining-work thresholds sit far below the burst's initial backlog
    // (roughly budget x frames) and above its tail, so the fleet expands
    // early and contracts as the work drains.
    let backlog = fleet_budget * u64::from(frames);
    let min_shards = parsed.positive_usize("--min-shards")?.unwrap_or(1);
    let max_shards = if quick {
        2
    } else {
        pvc_parallel::available_threads().clamp(2, 4)
    };
    Ok(RunConfig {
        sessions,
        frames,
        dimensions,
        queue_depth: parsed.positive_usize("--queue-depth")?.unwrap_or(4),
        fixed_shards: parsed.positive_usize("--shards")?,
        fleet_budget,
        queue_capacity: parsed
            .positive_usize("--queue-capacity")?
            .unwrap_or(queue_capacity),
        scale_up: parsed.u64_value("--scale-up")?.unwrap_or(backlog / 4),
        scale_down: parsed.u64_value("--scale-down")?.unwrap_or(backlog / 8),
        min_shards,
        max_shards: parsed
            .positive_usize("--max-shards")?
            .map_or(max_shards, |value| value.max(min_shards)),
        shed_after: parsed.positive_u32("--shed-after")?.unwrap_or(shed_after),
    })
}

/// One Vision-class whale (submitted first: the shed victim and the
/// migration mover) followed by baseline Quest-2 sessions.
fn burst(config: &RunConfig) -> Vec<SessionConfig> {
    let whale = SessionProfile::for_tier(
        ResolutionTier::VisionClass,
        config.dimensions,
        config.frames,
    );
    (0..config.sessions)
        .map(|index| {
            let session = SessionConfig::synthetic(index, config.dimensions, config.frames);
            if index == 0 {
                session.with_profile(whale)
            } else {
                session
            }
        })
        .collect()
}

fn tick_json(tick: u64, actions: &TickActions) -> Json {
    let verb = |value: Option<usize>| value.map_or(Json::Null, Json::from);
    json::object([
        ("tick", tick.into()),
        (
            "admitted",
            Json::Array(actions.admitted.iter().map(|&id| id.into()).collect()),
        ),
        ("shed", verb(actions.shed)),
        ("spawned", verb(actions.spawned)),
        ("drained", verb(actions.drained)),
        (
            "migrated",
            actions.migrated.map_or(Json::Null, |(session, from, to)| {
                Json::Array(vec![session.into(), from.into(), to.into()])
            }),
        ),
    ])
}

/// A trajectory entry's actions for the log, e.g. `shed 0, spawned 1`.
fn describe(entry: &Json) -> String {
    let Json::Object(fields) = entry else {
        unreachable!("tick_json builds an object")
    };
    let actions: Vec<String> = fields[1..]
        .iter()
        .filter(|(_, value)| !matches!(value, Json::Null) && *value != Json::Array(Vec::new()))
        .map(|(action, value)| format!("{action} {}", value.render()))
        .collect();
    actions.join(", ")
}

fn main() {
    let parsed = SPEC
        .parse(std::env::args().skip(1))
        .unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    let config = run_config(&parsed).unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    // Predictive placement is the natural default here: the controller's
    // migration planner scores the same remaining-work gauge.
    let placement =
        placement_option(&parsed, "predictive").unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    let parameters = [
        ("sessions", config.sessions.into()),
        ("frames", u64::from(config.frames).into()),
        ("width", u64::from(config.dimensions.width).into()),
        ("height", u64::from(config.dimensions.height).into()),
        ("fleet_budget", config.fleet_budget.into()),
        ("queue_capacity", config.queue_capacity.into()),
        (
            "fixed_shards",
            config.fixed_shards.map_or(Json::Null, Json::from),
        ),
        ("scale_up", config.scale_up.into()),
        ("scale_down", config.scale_down.into()),
        ("min_shards", config.min_shards.into()),
        ("max_shards", config.max_shards.into()),
        ("shed_after_ticks", u64::from(config.shed_after).into()),
        ("placement", placement.name().into()),
        ("quick", Json::Bool(parsed.has("--quick"))),
    ];
    print_parameters("fleet_elastic", &parameters);

    let runtime = StreamRuntime::start(
        ServiceConfig::default()
            .with_shards(config.fixed_shards.unwrap_or(config.min_shards))
            .with_queue_depth(config.queue_depth)
            // Tracing is always on (allocation-free on the hot path);
            // `--trace` only controls the Chrome export.
            .with_trace(TraceConfig::default()),
        placement,
    );
    let mut elastic = ElasticConfig::new(config.fleet_budget)
        .with_queue_capacity(config.queue_capacity)
        .with_shed_after_ticks(config.shed_after);
    if config.fixed_shards.is_none() {
        elastic = elastic
            .with_scale_thresholds(config.scale_up, config.scale_down)
            .with_shard_bounds(config.min_shards, config.max_shards);
    }
    let mut controller = ElasticController::new(runtime, elastic);

    println!();
    for session in burst(&config) {
        let cost = session.pixel_cost();
        let verdict = controller.submit(session);
        println!("submit {cost:>6} px/frame -> {verdict:?}");
    }

    // The control loop: 1 ms ticks until the fleet drains and, in
    // autoscale mode, contracts back to the floor.
    let mut trajectory = Vec::new();
    let mut ticks = 0u64;
    println!();
    loop {
        std::thread::sleep(Duration::from_millis(1));
        ticks += 1;
        let actions = controller.tick();
        if !actions.is_idle() {
            let entry = tick_json(ticks, &actions);
            println!("tick {ticks:>4}: {}", describe(&entry));
            trajectory.push(entry);
        }
        let drained = controller.pending_len() == 0
            && controller.runtime().churn().in_flight() == 0
            && (config.fixed_shards.is_some()
                || controller.runtime().shard_count() == config.min_shards);
        if drained {
            break;
        }
        assert!(
            ticks < 120_000,
            "the fleet failed to drain within the tick budget"
        );
    }
    println!("(drained after {ticks} ticks)");

    let run = FleetRun::new(controller.shutdown(), Vec::new(), None);
    run.print();
    let report = &run.report;

    let elasticity = &report.elasticity;
    let counters = [
        ("rejected", elasticity.rejected),
        ("queued", elasticity.queued),
        ("shed", elasticity.shed),
        ("migrated", elasticity.migrated),
        ("shards_spawned", elasticity.shards_spawned),
        ("shards_drained", elasticity.shards_drained),
    ];
    println!("\nelasticity:");
    for (label, count) in counters {
        println!("  {label:<19} {count}");
    }

    let churn = &report.churn;
    let cores = pvc_parallel::available_threads();
    println!(
        "  sessions per core   {:.2} ({} completed / {} cores)",
        churn.completed as f64 / cores as f64,
        churn.completed,
        cores,
    );

    assert_eq!(
        churn.completed, churn.admitted,
        "every admitted stream must finish"
    );
    // Queued submissions are promoted later and end up admitted too, so
    // the burst partitions into (eventually) admitted and rejected.
    assert_eq!(
        churn.admitted + elasticity.rejected,
        config.sessions as u64,
        "every submission is eventually admitted or rejected exactly once"
    );

    // Under the built-in presets the trajectory is guaranteed: the burst
    // overcommits the budget (queue + reject), sustained overload sheds
    // the whale, the backlog expands the fleet and the drain contracts
    // it, and the post-spawn skew triggers a rebalancing migration.
    let organic = SPEC
        .options
        .iter()
        .all(|knob| TRAJECTORY_NEUTRAL.contains(knob) || parsed.value(knob).is_none());
    if organic {
        for (label, count) in counters {
            assert!(
                count >= 1,
                "the preset trajectory must exercise `{label}` at least once"
            );
        }
    }

    run.write_outputs(&parsed, || {
        let controller = json::object([
            ("tick_ms", 1u64.into()),
            ("ticks", ticks.into()),
            ("trajectory", Json::Array(trajectory)),
        ]);
        json::with_field(
            run.json("fleet_elastic", &parameters),
            "controller",
            controller,
        )
    });
}
