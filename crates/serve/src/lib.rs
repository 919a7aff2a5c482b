//! # autofj-serve
//!
//! A long-lived, multi-threaded TCP service answering fuzzy-join lookups
//! from a snapshotted [`autofj_store::ServingState`].
//!
//! The wire protocol is newline-delimited JSON ([`protocol`]); the server
//! ([`server::Server`]) runs thread-per-core accept loops over `std::net`
//! and swaps epoch-versioned immutable state views on append, so readers
//! never block behind a writer.  A small blocking [`client::Client`] covers
//! the full protocol.
//!
//! ```no_run
//! use autofj_core::AutoFjOptions;
//! use autofj_serve::{Client, Server};
//! use autofj_store::ServingState;
//! use autofj_text::JoinFunctionSpace;
//!
//! let left: Vec<String> = vec!["2007 LSU Tigers football team".into()];
//! let right: Vec<String> = vec!["2007 LSU Tigers football".into()];
//! let (state, _) = ServingState::learn(
//!     &left, &right, &JoinFunctionSpace::reduced24(), &AutoFjOptions::default());
//!
//! let server = Server::bind("127.0.0.1:0", state).unwrap();
//! let addr = server.local_addr().unwrap();
//! std::thread::scope(|scope| {
//!     scope.spawn(|| server.run(4));
//!     let mut client = Client::connect(addr).unwrap();
//!     let matched = client.join("2007 LSU Tigers football").unwrap();
//!     println!("matched: {matched:?}");
//!     client.shutdown().unwrap();
//! });
//! ```

pub mod client;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use protocol::{Request, Response, ServerStats};
pub use server::{Server, MAX_REQUEST_LINE};
