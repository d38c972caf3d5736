//! Structural Query Expansion (SQE) — the paper's core contribution.
//!
//! SQE (Guisado-Gámez, Prat-Pérez, Larriba-Pey, ExploreDB'17) expands a
//! keyword query using only the *structure* of a knowledge-base graph:
//!
//! 1. an offline **structural analysis** of the KB relates ground-truth
//!    optimal query graphs to short mixed cycles (length 3–5) with ≈⅓
//!    category nodes and high extra-edge density ([`analysis`]);
//! 2. those characteristics are materialized as **motifs** — points of
//!    the generalized [`spec::MotifSpec`] space (the paper's triangular
//!    and square are [`spec::MotifSpec::triangular`] and
//!    [`spec::MotifSpec::square`]) — that, anchored at a query node,
//!    enumerate expansion articles ([`spec`]);
//! 3. the **query graph builder** unions motif hits over all query nodes,
//!    counting for every article `a` the number of motifs `|m_a|` it
//!    appears in ([`query_graph`]);
//! 4. the **query builder** emits a weighted three-part structured query:
//!    the user's text, the query-node titles (phrases), and the
//!    expansion-node titles weighted ∝ `|m_a|` ([`expand`]);
//! 5. **SQE_C** stitches the ranked lists of several motif configurations
//!    by rank range (1–5 from T, 6–200 from T&S, 201+ from S)
//!    ([`combine`]);
//! 6. [`pipeline`] wires everything against a concrete index and entity
//!    linker.
//!
//! Beyond the paper's published system, the [`spec`] space makes the
//! motif family enumerable and [`learn`] implements the conclusion's
//! future work: identifying the right motifs automatically from
//! ground-truth query graphs. The [`serve`] module
//! (with [`cache`] and [`metrics`]) wraps the pipeline in a concurrent
//! query service over one or more shards — work-stealing batch
//! execution, LRU expansion caching, live ingestion over segmented
//! indexes (documents buffer, seal into immutable segments, and publish
//! atomically), and injected-clock latency metrics — that stays
//! byte-identical to the sequential pipeline regardless of how the
//! corpus is partitioned into shards and segments.

pub mod analysis;
pub mod cache;
pub mod combine;
pub mod expand;
pub mod learn;
pub mod metrics;
pub mod pipeline;
pub mod query_graph;
pub mod serve;
pub mod spec;

pub use cache::{CacheKey, ExpansionCache, LruCache};
pub use combine::{combine_rankings, RankSegment};
pub use expand::{ExpandConfig, ExpandedQuery};
pub use learn::{learn_motifs, Example, LearnedMotif, Objective};
pub use metrics::{
    Clock, HistogramSnapshot, IngestHistograms, LadderMetrics, LatencyHistogram, ManualClock,
    MetricsSnapshot, MonotonicClock, NullClock, ServeMetrics, INGEST_STAGE_NAMES, STAGE_NAMES,
};
pub use pipeline::{SqeConfig, SqePipeline, SqeScratch};
pub use query_graph::{QueryGraph, QueryGraphBuilder, QueryGraphScratch};
pub use serve::{run_indexed, QueryService, ServeConfig, ServeRequest, ShardedService};
pub use spec::{
    CategoryScope, LinkCondition, MotifFingerprint, MotifLadder, MotifRung, MotifSet, MotifSpec,
    WeightRule,
};
// The admission subsystem's vocabulary types, re-exported so serving
// callers need only the `sqe` crate.
pub use sqe_admission::{
    select_rung, AdmissionConfig, AdmissionController, Deadline, RungId, ServeOutcome, ShedReason,
    Stage, Ticket,
};
