//! Serving front-end: a long-running, micro-batching query server.
//!
//! Re-exports [`cdat_server`]. The server accepts newline-delimited JSON
//! requests (a tree or suite inline, one of the six queries, an optional
//! solver hint, an optional witness opt-in) over stdio or TCP, keeps
//! repeatedly sent trees parsed in a byte-budgeted tree memo,
//! accumulates them into micro-batches, routes every request to the
//! worker shard owning its slice of the front cache (partitioned by the
//! canonical structural hash), bounds cache memory with LRU eviction, and
//! streams JSON-lines responses correlated by request id. Witnessed
//! responses carry attacks in the requesting document's own BAS numbering
//! (cached fronts are canonically translated; see [`cdat_engine`]).
//!
//! From the command line: `cdat serve` / `cdat query --connect`. From the
//! library:
//!
//! ```
//! use std::sync::Arc;
//! use cdat::serve::{Router, RouterConfig, RouteRequest};
//! use cdat::solve::{Query, SolverHint};
//!
//! let config = RouterConfig { shards: 2, ..RouterConfig::default() };
//! let router = Router::new(config).unwrap(); // only a store can fail to open
//! let request = RouteRequest {
//!     tree: Arc::new(cdat_models::factory_cdp()),
//!     query: Query::Cdpf,
//!     hint: SolverHint::Auto,
//!     witnesses: true,
//!     prefix: "{\"id\":0".into(),
//!     hash: None, // the router hashes the tree itself
//! };
//! let lines = router.solve(vec![request]);
//! assert_eq!(
//!     lines[0],
//!     "{\"id\":0,\"front\":[[0,0],[1,200],[3,210],[5,310]],\
//!      \"witnesses\":[[],[0],[0,2],[1,2]]}"
//! );
//! ```

pub use cdat_server::{
    protocol, serve_stdio, serve_tcp, DeltaRouteRequest, DispatchMetrics, MemoSnapshot, Reply,
    RouteRequest, Router, RouterConfig, ServeConfig, ServerSnapshot, ShardTelemetry,
    TREE_MEMO_BUDGET,
};
