//! The fleet report's JSON covers every session a run served: sessions
//! handed out by `retire`/`retire_now` count next to the survivors the
//! runtime's own report keeps.

use pvc_bench::fleet_report::FleetRun;
use pvc_bench::json::Json;
use pvc_frame::Dimensions;
use pvc_stream::{ServiceConfig, SessionConfig, StreamRuntime, WorkloadMix};

fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
    match json {
        Json::Object(entries) => entries
            .iter()
            .find(|(name, _)| name == key)
            .map(|(_, value)| value)
            .unwrap_or_else(|| panic!("no field {key}")),
        other => panic!("{other:?} is not an object"),
    }
}

fn array(json: &Json) -> &[Json] {
    match json {
        Json::Array(items) => items,
        other => panic!("{other:?} is not an array"),
    }
}

#[test]
fn json_covers_the_headline_numbers() {
    let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
    for index in 0..3 {
        runtime.admit(SessionConfig::synthetic(index, Dimensions::new(32, 32), 2));
    }
    runtime.drain();
    let run = FleetRun::new(runtime.shutdown(), Vec::new(), None);
    let rendered = run
        .json("test_bench", &[("sessions", 3usize.into())])
        .render();
    for needle in [
        r#""bench":"test_bench""#,
        r#""parameters":{"sessions":3}"#,
        r#""frames":6"#,
        r#""hit_rate":"#,
        r#""shards":[{"shard":0"#,
        r#""queue_enqueued":"#,
        r#""render_utilization":"#,
        r#""churn":{"admitted":3"#,
        r#""elasticity":{"rejected":0"#,
        r#""downgraded_from":null"#,
        r#""tiers":[{"tier":"quest2""#,
    ] {
        assert!(rendered.contains(needle), "missing {needle} in {rendered}");
    }
}

#[test]
fn report_counts_retired_and_cancelled_sessions() {
    let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
    let dims = Dimensions::new(16, 16);
    let mut ids = Vec::new();
    for index in 0..4 {
        // Session 1 cannot finish before it is hard-cancelled.
        let frames = if index == 1 { 100_000 } else { 3 };
        let mix = WorkloadMix::Bimodal;
        ids.push(runtime.admit(SessionConfig::synthetic_mixed(index, mix, dims, frames)));
    }
    let retired = vec![runtime.retire(ids[0]), runtime.retire_now(ids[1])];
    assert!(retired[1].cancelled);
    runtime.drain();
    let report = runtime.shutdown();
    assert_eq!(report.sessions.len(), 2, "retire handed two reports out");
    let frames = report.totals.frames;

    let document = FleetRun::new(report, retired, None).json("test_bench", &[]);
    let sessions = array(field(&document, "sessions"));
    let ids: Vec<Json> = sessions
        .iter()
        .map(|s| field(s, "session").clone())
        .collect();
    let admitted: Vec<Json> = (0..4u64).map(Json::U64).collect();
    assert_eq!(ids, admitted, "one entry per admitted session");
    assert_eq!(field(&sessions[1], "cancelled"), &Json::Bool(true));
    let tier_frames: u64 = array(field(&document, "tiers"))
        .iter()
        .map(|tier| match field(field(tier, "throughput"), "frames") {
            Json::U64(frames) => *frames,
            other => panic!("frames is {other:?}"),
        })
        .sum();
    assert_eq!(tier_frames, frames, "tiers cover every frame encoded");
    assert_eq!(field(field(&document, "churn"), "cancelled"), &Json::U64(1));
}
