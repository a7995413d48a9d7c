//! Networked continuous analytics: wire protocol, server and client.
//!
//! The paper's deployment model ("always-on" services fed by many
//! producers and watched by many dashboards, §1) needs more than an
//! embedded engine: this crate puts [`streamrel_core::Db`] on a TCP
//! socket. The server is a single-threaded readiness reactor ([`server`])
//! that multiplexes every connection — and many logical subscriptions
//! per connection — over one poll loop, and **pushes** continuous query
//! results: a subscriber never polls; window results stream out as
//! windows close, encoded once per window no matter how many subscribers
//! share the query (serialize-once fan-out). Framing is length-prefixed
//! binary ([`frame`]), and payloads reuse the storage codec ([`wire`])
//! so the wire format equals the WAL format.

#![deny(unsafe_code)]

pub mod bridge;
pub mod client;
pub mod frame;
pub mod server;
pub mod wire;

pub use bridge::{Bridge, BridgeOptions, UnionIngest};
pub use client::{Client, NetError, NetResult, SubscriptionStream};
pub use frame::{Frame, FrameDecoder, FrameType, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use server::{Server, ServerOptions};
