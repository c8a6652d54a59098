//! The client side of the streaming service: what a headset does with
//! the bytes.
//!
//! The serving crates (`pvc_stream`) end at a framed byte stream per
//! session; this crate closes the loop. A [`SessionClient`] consumes one
//! session's wire stream record by record: it simulates the downlink with
//! a deterministic, seeded [`LinkModel`] (bandwidth cap, latency, drop
//! probability — the paper's Fig. 10 constrained-link scenario), decodes
//! every frame that survives the link with the reusable-scratch
//! [`pvc_bdc::BdDecoder`], and accounts each frame against its tier's
//! refresh deadline. The result is a [`ClientReport`] with the
//! decode-side quality numbers ([`pvc_metrics::DeliveryReport`]):
//! on-time/late/dropped frames, delivered FPS, goodput, and the PSNR of
//! what the panel actually showed.
//!
//! Because both the codec and a [`LinkModel::lossless`] link are
//! lossless, client-decoded frames on an ideal link are **bit-identical**
//! to the worker's adjusted frames — the end-to-end round-trip pin the
//! stream tests assert across shard counts and placement policies.
//!
//! # Examples
//!
//! ```
//! use pvc_client::{LinkModel, SessionClient};
//! use pvc_frame::Dimensions;
//! use pvc_stream::{ServiceConfig, SessionConfig, StreamRuntime};
//!
//! // Serve two tiny sessions, keeping their wire streams.
//! let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_collect_wire(true));
//! for index in 0..2 {
//!     runtime.admit(SessionConfig::synthetic(index, Dimensions::new(16, 16), 3));
//! }
//! runtime.drain();
//! let report = runtime.shutdown();
//!
//! // Replay each stream through a constrained link.
//! let mut client = SessionClient::new(LinkModel::capped());
//! for session in &report.sessions {
//!     let wire = session.wire_stream.as_ref().expect("collected");
//!     let seen = client.consume(wire).expect("well-formed stream");
//!     assert_eq!(seen.delivery.frames_sent, 3);
//!     assert_eq!(seen.header.session, session.session as u64);
//!     assert!(seen.terminated);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod link;

pub use client::{ClientError, ClientReport, SessionClient};
pub use link::{LinkModel, DEFAULT_LINK_SEED};
