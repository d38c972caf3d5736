//! Knowledge-base graph substrate for Structural Query Expansion.
//!
//! A knowledge base (KB) is modelled after Wikipedia's link structure, as
//! described in Section 2 of *Structural Query Expansion via motifs from
//! Wikipedia* (ExploreDB'17): the graph has two node types — **articles**
//! and **categories** — and four directed edge sets:
//!
//! * article → article hyperlinks,
//! * article → category membership links,
//! * category → article links (maintained as the reverse of membership),
//! * category → category links (sub-category → parent).
//!
//! The crate provides:
//!
//! * [`GraphBuilder`] — an incremental builder that deduplicates nodes and
//!   edges and produces an immutable [`KbGraph`],
//! * [`KbGraph`] — a compressed sparse row (CSR) representation with
//!   forward and reverse adjacency and `O(log d)` membership queries,
//! * [`cycles`] — anchored enumeration of the short mixed cycles
//!   (length 3, 4 and 5) whose statistics drive the paper's Section 2.1
//!   structural analysis (Figure 2),
//! * [`stats`] — whole-graph statistics mirroring the corpus numbers the
//!   paper reports for the July 2012 Wikipedia dump.
//!
//! # Example
//!
//! ```
//! use kbgraph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! let cable_car = b.add_article("cable car");
//! let funicular = b.add_article("funicular");
//! let transport = b.add_category("rail transport");
//! b.add_article_link(cable_car, funicular);
//! b.add_article_link(funicular, cable_car);
//! b.add_membership(cable_car, transport);
//! b.add_membership(funicular, transport);
//! let g = b.build();
//!
//! assert!(g.doubly_linked(cable_car, funicular));
//! assert_eq!(g.categories_of(cable_car), &[transport.index() as u32]);
//! ```

#[cfg(feature = "validate")]
pub mod audit;
pub mod builder;
pub mod csr;
pub mod cycles;
pub mod dot;
pub mod graph;
pub mod ids;
pub mod paths;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::{Csr, CsrShapeError};
pub use cycles::{Cycle, CycleFinder, CycleLimits};
pub use graph::{GraphShapeError, KbGraph};
pub use ids::{ArticleId, CategoryId, Node};
pub use paths::{bfs_distances, distance, distance_histogram};
pub use stats::GraphStats;
