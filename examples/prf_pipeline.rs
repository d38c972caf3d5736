//! SQE ⊕ PRF orthogonality demo (the paper's Section 4.3): run the same
//! query unexpanded, with pure relevance-model feedback, with SQE, and
//! with PRF on top of the SQE-expanded query, and compare what each
//! retrieves on the synthetic CHiC-like collection.
//!
//! ```text
//! cargo run --release --example prf_pipeline
//! ```

use ireval::precision::precision_at;
use rustc_hash::FxHashSet;
use searchlite::prf::{self, PrfParams};
use searchlite::{Analyzer, IndexBuilder, QlParams};
use sqe::{MotifSet, SqeConfig, SqePipeline};
use synthwiki::{TestBed, TestBedConfig};

fn main() {
    let bed = TestBed::generate(&TestBedConfig::small());
    let dataset = bed.dataset("chic2013");
    let collection = bed.collection_of(dataset);
    let mut builder = IndexBuilder::new(Analyzer::english());
    for d in &collection.docs {
        builder
            .add_document(&d.id, &d.text)
            .expect("generated ids are unique");
    }
    let index = builder.build();
    let ql = QlParams { mu: 15.0 };
    let pipeline = SqePipeline::from_index(
        &bed.kb.graph,
        &index,
        SqeConfig {
            ql,
            ..SqeConfig::default()
        },
    );

    // First query with relevant documents.
    let query = dataset
        .queries
        .iter()
        .find(|q| !dataset.relevant[&q.id].is_empty())
        .expect("dataset has non-empty queries");
    let relevant: FxHashSet<String> = dataset.relevant[&query.id].iter().cloned().collect();
    let nodes: Vec<_> = query
        .targets
        .iter()
        .map(|&e| bed.kb.article_of[e])
        .collect();
    println!(
        "query {}: \"{}\" ({} relevant docs)",
        query.id,
        query.text,
        relevant.len()
    );

    let show = |name: &str, ids: Vec<String>| {
        let p10 = precision_at(&ids, &relevant, 10);
        println!(
            "{name:<18} P@10 = {p10:.2}   top: {:?}",
            &ids[..ids.len().min(3)]
        );
    };

    // 1. Unexpanded.
    let hits = pipeline.rank_user(&query.text);
    show("QL (unexpanded)", pipeline.external_ids(&hits));

    // 2. Pure relevance-model PRF on the user query (the paper's failing
    //    comparator: new concepts only).
    let user = sqe::expand::user_part(&query.text, index.analyzer());
    let prf_params = PrfParams {
        fb_docs: 10,
        fb_terms: 20,
        orig_weight: 0.0,
        exclude_base_terms: true,
        ql,
    };
    let hits = prf::rank_with_prf(pipeline.searcher(), &user, prf_params, 1000);
    show("PRF alone", pipeline.external_ids(&hits));

    // 3. SQE (both motifs).
    let (hits, qg) = pipeline.rank_sqe(&query.text, &nodes, &MotifSet::t_and_s());
    println!("    (SQE found {} expansion features)", qg.num_expansions());
    show("SQE", pipeline.external_ids(&hits));

    // 4. SQE then PRF: feedback over the SQE-expanded query (RM3).
    let expanded = pipeline.expand(&query.text, &nodes, &MotifSet::t_and_s());
    let rm3 = PrfParams {
        orig_weight: 0.5,
        exclude_base_terms: false,
        ..prf_params
    };
    let hits = prf::rank_with_prf(pipeline.searcher(), &expanded.query, rm3, 1000);
    show("SQE then PRF", pipeline.external_ids(&hits));
}
