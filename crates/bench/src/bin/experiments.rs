//! Regenerates every table and figure of the paper, and load-tests the
//! concurrent query service.
//!
//! ```text
//! experiments [--small] [fig2|table1|fig5|table2|fig6|table3|table4|ablation|sensitivity|stats|export|query <text>|all]
//! experiments serve-bench [--smoke] [--threads=1,2,8] [--shards=N] [--out=BENCH_serve.json]
//! experiments load-bench [--smoke] [--rate=R1,R2] [--threads=N] [--shards=N] [--out=BENCH_load.json]
//! experiments motif-search [--smoke] [--out=BENCH_motif.json]
//! experiments ingest-bench [--smoke] [--out=BENCH_ingest.json]
//! experiments ingest-bench --articles=N [--shards=M] [--smoke] [--out=BENCH_ingest.json]
//! experiments snapshot write|verify|info [--small] [--file=world.snap]
//! experiments store-bench [--smoke] [--out=BENCH_store.json]
//! ```

use sqe::MotifSet;
use sqe_bench::{
    figures, ingest_bench, load_bench, motif_search, serve_bench, store_bench, tables, timing,
    ExperimentContext,
};

fn print_stats(ctx: &ExperimentContext) {
    let stats = ctx.bed.kb.graph.stats();
    println!("=== Test-bed statistics ===");
    println!(
        "KB: {} articles, {} categories, {} article links, {} memberships, {} category links, {} reciprocal pairs",
        stats.num_articles,
        stats.num_categories,
        stats.num_article_links,
        stats.num_membership_links,
        stats.num_category_links,
        stats.num_reciprocal_pairs
    );
    for d in ["imageclef", "chic2012", "chic2013"] {
        let ds = ctx.bed.dataset(d);
        let coll = ctx.bed.collection_of(ds);
        println!(
            "{d}: {} docs, {} queries, avg relevant/query {:.2}, zero-relevant queries {}",
            coll.docs.len(),
            ds.queries.len(),
            ds.avg_relevant_per_query(),
            ds.num_zero_relevant()
        );
        println!(
            "  linker precision (≥1 true target linked): {:.1}%",
            ctx.linker_precision(d) * 100.0
        );
    }
}

fn debug_top(ctx: &ExperimentContext, dataset: &str, nqueries: usize) {
    let r = ctx.runner(dataset);
    let ds = r.dataset();
    let p = r.pipeline();
    for q in ds.queries.iter().take(nqueries) {
        let nodes = r.manual_nodes(q);
        println!("--- {}: '{}' targets={:?}", q.id, q.text, nodes);
        let (hits, qg) = p.rank_sqe(&q.text, &nodes, &MotifSet::t_and_s());
        println!("    expansions: {}", qg.num_expansions());
        let rel = &ds.relevant[&q.id];
        for h in hits.iter().take(10) {
            let id = p.searcher().external_id(h.doc);
            let coll = ctx.bed.collection_of(ds);
            let doc = coll.docs.iter().find(|d| d.id == id).unwrap();
            println!(
                "    {:.3} {} rel={} about={:?} | {}",
                h.score,
                id,
                rel.contains(id),
                doc.about,
                doc.text
            );
        }
    }
}

/// Runs an ad-hoc query through the whole pipeline: entity linking,
/// expansion with both motifs, retrieval — the interactive demo path.
fn adhoc_query(ctx: &ExperimentContext, text: &str) {
    let r = ctx.runner("imageclef");
    let p = r.pipeline();
    let links = ctx.linker.link(text);
    println!("query: \"{text}\"");
    if links.is_empty() {
        println!("no entities linked; retrieval falls back to the raw keywords");
    }
    let nodes: Vec<kbgraph::ArticleId> = links.iter().take(3).map(|l| l.article).collect();
    for l in &links {
        println!(
            "  linked '{}' → \"{}\" (commonness {:.2}{})",
            l.surface,
            ctx.bed.kb.graph.article_title(l.article),
            l.commonness,
            if l.from_fallback { ", fallback" } else { "" }
        );
    }
    let expanded = p.expand(text, &nodes, &MotifSet::t_and_s());
    println!("expansion features ({}):", expanded.query_graph.num_expansions());
    for &(a, m) in expanded.query_graph.expansions.iter().take(10) {
        println!("  {} (|m_a| = {m})", ctx.bed.kb.graph.article_title(a));
    }
    let (hits, _) = p.rank_sqe(text, &nodes, &MotifSet::t_and_s());
    println!("top documents:");
    for h in hits.iter().take(10) {
        println!("  {:>9.3}  {}", h.score, p.searcher().external_id(h.doc));
    }
}

/// Why a subcommand failed, as the process exit code: 1 for a failed
/// write or read, 2 for a usage error.
type CliResult = Result<(), u8>;

/// Reports the outcome of writing a report to `out`.
fn written(out: &str, result: std::io::Result<()>) -> CliResult {
    match result {
        Ok(()) => {
            eprintln!("wrote {out}");
            Ok(())
        }
        Err(e) => {
            eprintln!("writing {out} failed: {e}");
            Err(1)
        }
    }
}

/// Runs the serve-bench load generator and writes `BENCH_serve.json`.
fn run_serve_bench_cli(ctx: &ExperimentContext, context_name: &str, args: &[String]) -> CliResult {
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut opts = if smoke {
        serve_bench::ServeBenchOptions::smoke()
    } else {
        serve_bench::ServeBenchOptions::default()
    };
    if let Some(list) = args.iter().find_map(|a| a.strip_prefix("--threads=")) {
        let counts: Vec<usize> = list.split(',').filter_map(|t| t.trim().parse().ok()).collect();
        if counts.is_empty() {
            eprintln!("--threads: expected a comma-separated list of worker counts, got '{list}'");
            return Err(2);
        }
        opts.thread_counts = counts;
    }
    if let Some(n) = args.iter().find_map(|a| a.strip_prefix("--shards=")) {
        match n.trim().parse::<usize>() {
            Ok(shards) if shards >= 1 => opts.shards = shards,
            _ => {
                eprintln!("--shards: expected a positive integer, got '{n}'");
                return Err(2);
            }
        }
    }
    let out = args
        .iter()
        .find_map(|a| a.strip_prefix("--out="))
        .unwrap_or("BENCH_serve.json");
    let report = serve_bench::run_serve_bench(ctx, context_name, &opts);
    print!("{}", serve_bench::format_report(&report));
    written(out, serve_bench::write_report(&report, std::path::Path::new(out)))
}

/// Enumerates the generalized motif space against the planted optimal
/// query graphs and writes `BENCH_motif.json`.
fn run_motif_search_cli(ctx: &ExperimentContext, context_name: &str, args: &[String]) -> CliResult {
    let smoke = args.iter().any(|a| a == "--smoke");
    let opts = if smoke {
        motif_search::MotifSearchOptions::smoke()
    } else {
        motif_search::MotifSearchOptions::default()
    };
    let out = args
        .iter()
        .find_map(|a| a.strip_prefix("--out="))
        .unwrap_or("BENCH_motif.json");
    let report = motif_search::run_motif_search(ctx, context_name, &opts);
    print!("{}", motif_search::format_report(&report));
    written(out, motif_search::write_report(&report, std::path::Path::new(out)))
}

/// Runs the open-loop admission/deadline load generator and writes
/// `BENCH_load.json`.
fn run_load_bench_cli(ctx: &ExperimentContext, context_name: &str, args: &[String]) -> CliResult {
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut opts = if smoke {
        load_bench::LoadBenchOptions::smoke()
    } else {
        load_bench::LoadBenchOptions::default()
    };
    if let Some(list) = args.iter().find_map(|a| a.strip_prefix("--rate=")) {
        let rates: Vec<f64> = list
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .filter(|&r: &f64| r > 0.0)
            .collect();
        if rates.is_empty() {
            eprintln!("--rate: expected a comma-separated list of positive qps values, got '{list}'");
            return Err(2);
        }
        opts.explicit_rates = rates;
    }
    if let Some(n) = args.iter().find_map(|a| a.strip_prefix("--threads=")) {
        match n.trim().parse::<usize>() {
            Ok(workers) if workers >= 1 => opts.workers = workers,
            _ => {
                eprintln!("--threads: expected a positive integer, got '{n}'");
                return Err(2);
            }
        }
    }
    if let Some(n) = args.iter().find_map(|a| a.strip_prefix("--shards=")) {
        match n.trim().parse::<usize>() {
            Ok(shards) if shards >= 1 => opts.shards = shards,
            _ => {
                eprintln!("--shards: expected a positive integer, got '{n}'");
                return Err(2);
            }
        }
    }
    let out = args
        .iter()
        .find_map(|a| a.strip_prefix("--out="))
        .unwrap_or("BENCH_load.json");
    let report = load_bench::run_load_bench(ctx, context_name, &opts);
    print!("{}", load_bench::format_report(&report));
    written(out, load_bench::write_report(&report, std::path::Path::new(out)))
}

/// Runs the live-ingestion benchmark and writes `BENCH_ingest.json`.
fn run_ingest_bench_cli(ctx: &ExperimentContext, context_name: &str, args: &[String]) -> CliResult {
    let smoke = args.iter().any(|a| a == "--smoke");
    let opts = if smoke {
        ingest_bench::IngestBenchOptions::smoke()
    } else {
        ingest_bench::IngestBenchOptions::default()
    };
    let out = args
        .iter()
        .find_map(|a| a.strip_prefix("--out="))
        .unwrap_or("BENCH_ingest.json");
    let report = ingest_bench::run_ingest_bench(ctx, context_name, &opts);
    print!("{}", ingest_bench::format_report(&report));
    written(out, ingest_bench::write_report(&report, std::path::Path::new(out)))
}

/// `experiments ingest-bench --articles=N [--shards=M]`: streams an
/// N-article bed straight into sharded services with bounded memory
/// (no in-memory corpus) and reports build time + post-build QPS.
fn run_streaming_ingest_cli(args: &[String]) -> CliResult {
    let Some(articles) = args
        .iter()
        .find_map(|a| a.strip_prefix("--articles="))
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 10)
    else {
        eprintln!("--articles: expected an integer >= 10");
        return Err(2);
    };
    let shards = match args.iter().find_map(|a| a.strip_prefix("--shards=")) {
        None => 4,
        Some(v) => match v.trim().parse::<usize>() {
            Ok(s) if s >= 1 => s,
            _ => {
                eprintln!("--shards: expected a positive integer, got '{v}'");
                return Err(2);
            }
        },
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let opts = if smoke {
        ingest_bench::StreamingIngestOptions::smoke(articles, shards)
    } else {
        ingest_bench::StreamingIngestOptions::new(articles, shards)
    };
    let cfg = synthwiki::TestBedConfig::streaming(articles);
    let out = args
        .iter()
        .find_map(|a| a.strip_prefix("--out="))
        .unwrap_or("BENCH_ingest.json");
    eprintln!("streaming {articles} articles into {shards} shard(s) per collection...");
    let report = ingest_bench::run_streaming_ingest_bench(&cfg, &opts);
    print!("{}", ingest_bench::format_streaming_report(&report));
    written(out, ingest_bench::write_streaming_report(&report, std::path::Path::new(out)))
}

fn print_snapshot_info(info: &sqe_store::SnapshotInfo) {
    println!(
        "snapshot v{}: {} bytes, written by {}",
        info.version, info.file_len, info.writer
    );
    println!("collections: {}", info.collections.join(", "));
    for (id, len, crc) in &info.sections {
        println!("  section {id:#06x}: {len:>12} bytes  crc32 {crc:#010x}");
    }
}

/// `experiments snapshot write|verify|info [--file=world.snap]`.
/// `verify` and `info` read the file without building any test bed.
fn run_snapshot_cli(args: &[String], small: bool, verb: Option<&str>) -> CliResult {
    let file = args
        .iter()
        .find_map(|a| a.strip_prefix("--file="))
        .unwrap_or("world.snap");
    let path = std::path::Path::new(file);
    match verb {
        Some("write") => {
            eprintln!(
                "building {} test bed (generation + indexing)...",
                if small { "small" } else { "full" }
            );
            let ctx = if small {
                ExperimentContext::small()
            } else {
                ExperimentContext::full()
            };
            let names: Vec<&str> = ctx.bed.collections.iter().map(|c| c.name.as_str()).collect();
            let segment_slices: Vec<Vec<&searchlite::Index>> =
                ctx.indexes.iter().map(|i| vec![i]).collect();
            let named: Vec<(&str, &[&searchlite::Index])> = names
                .into_iter()
                .zip(segment_slices.iter().map(Vec::as_slice))
                .collect();
            let contents = sqe_store::SnapshotContents {
                graph: &ctx.bed.kb.graph,
                collections: &named,
                dict: ctx.linker.dictionary(),
            };
            match sqe_store::write_snapshot(path, &contents) {
                Ok(bytes) => {
                    eprintln!("wrote {file} ({bytes} bytes)");
                    Ok(())
                }
                Err(e) => {
                    eprintln!("snapshot write failed: {e}");
                    Err(1)
                }
            }
        }
        Some(v @ ("verify" | "info")) => {
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("reading {file} failed: {e}");
                    return Err(1);
                }
            };
            let result = if v == "verify" {
                sqe_store::Snapshot::verify(&bytes)
            } else {
                sqe_store::Snapshot::info(&bytes)
            };
            match result {
                Ok(info) => {
                    print_snapshot_info(&info);
                    if v == "verify" {
                        eprintln!("{file}: OK (checksums, shapes and audits all pass)");
                    }
                    Ok(())
                }
                Err(e) => {
                    eprintln!("{file}: {e}");
                    Err(1)
                }
            }
        }
        _ => {
            eprintln!("usage: experiments snapshot write|verify|info [--small] [--file=world.snap]");
            Err(2)
        }
    }
}

/// `experiments store-bench [--smoke] [--out=BENCH_store.json]`: measures
/// the cold-start paths (regenerating internally — no shared context).
fn run_store_bench_cli(args: &[String], small: bool) -> CliResult {
    let smoke = args.iter().any(|a| a == "--smoke");
    let opts = if smoke {
        store_bench::StoreBenchOptions::smoke()
    } else {
        store_bench::StoreBenchOptions::default()
    };
    let cfg = if small {
        synthwiki::TestBedConfig::small()
    } else {
        synthwiki::TestBedConfig::full()
    };
    let out = args
        .iter()
        .find_map(|a| a.strip_prefix("--out="))
        .unwrap_or("BENCH_store.json");
    let report = store_bench::run_store_bench(&cfg, if small { "small" } else { "full" }, &opts);
    print!("{}", store_bench::format_report(&report));
    written(out, store_bench::write_report(&report, std::path::Path::new(out)))
}

fn main() -> std::process::ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(code) => std::process::ExitCode::from(code),
    }
}

fn run(args: Vec<String>) -> CliResult {
    // serve-bench --smoke implies the small test bed.
    let small = args.iter().any(|a| a == "--small" || a == "--smoke");
    let what: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    // `query <text...>`: everything after the keyword is the query.
    if what.first() == Some(&"query") {
        let text = what[1..].join(" ");
        let ctx = if small {
            ExperimentContext::small()
        } else {
            ExperimentContext::full()
        };
        adhoc_query(&ctx, &text);
        return Ok(());
    }
    // `snapshot` and `store-bench` manage their own contexts: verify/info
    // must not pay for a test-bed build, and store-bench times the build.
    if what.first() == Some(&"snapshot") {
        return run_snapshot_cli(&args, small, what.get(1).copied());
    }
    if what.first() == Some(&"store-bench") {
        return run_store_bench_cli(&args, small);
    }
    // `ingest-bench --articles=N` is the streaming sharded build: the
    // corpus never exists in memory, so it must not build a context.
    if what.first() == Some(&"ingest-bench") && args.iter().any(|a| a.starts_with("--articles=")) {
        return run_streaming_ingest_cli(&args);
    }
    let what = if what.is_empty() { vec!["all"] } else { what };

    eprintln!(
        "building {} test bed (generation + indexing)...",
        if small { "small" } else { "full" }
    );
    let start = std::time::Instant::now();
    let ctx = if small {
        ExperimentContext::small()
    } else {
        ExperimentContext::full()
    };
    eprintln!("ready in {:.1}s", start.elapsed().as_secs_f64());

    for w in what {
        match w {
            "stats" => print_stats(&ctx),
            "debug" => debug_top(&ctx, "imageclef", 4),
            "export" => {
                for d in ["imageclef", "chic2012", "chic2013"] {
                    let dir = std::path::PathBuf::from("export").join(d);
                    match sqe_bench::export::export_dataset(&ctx, d, &dir) {
                        Ok(files) => eprintln!("wrote {} files to {}", files.len(), dir.display()),
                        Err(e) => eprintln!("export {d} failed: {e}"),
                    }
                }
            }
            "fig2" => print!("{}", figures::figure2(&ctx)),
            "table1" => print!("{}", tables::table1(&ctx)),
            "fig5" => print!("{}", figures::figure5(&ctx)),
            "table2" => print!("{}", tables::table2_all(&ctx)),
            "fig6" => print!("{}", figures::figure6_all(&ctx)),
            "table3" => print!("{}", tables::table3_all(&ctx)),
            "table4" => print!("{}", timing::table4(&ctx)),
            "serve-bench" => {
                run_serve_bench_cli(&ctx, if small { "small" } else { "full" }, &args)?
            }
            "load-bench" => {
                run_load_bench_cli(&ctx, if small { "small" } else { "full" }, &args)?
            }
            "motif-search" => {
                run_motif_search_cli(&ctx, if small { "small" } else { "full" }, &args)?
            }
            "ingest-bench" => {
                run_ingest_bench_cli(&ctx, if small { "small" } else { "full" }, &args)?
            }
            "ablation" => print!("{}", tables::ablation(&ctx)),
            "sensitivity" => {
                print!("{}", tables::sensitivity(&ctx));
                print!("{}", tables::mu_sweep(&ctx));
            }
            "all" => {
                print_stats(&ctx);
                println!();
                print!("{}", figures::figure2(&ctx));
                println!();
                print!("{}", tables::table1(&ctx));
                println!();
                print!("{}", figures::figure5(&ctx));
                println!();
                print!("{}", tables::table2_all(&ctx));
                print!("{}", figures::figure6_all(&ctx));
                print!("{}", tables::table3_all(&ctx));
                print!("{}", timing::table4(&ctx));
                println!();
                print!("{}", tables::ablation(&ctx));
                println!();
                print!("{}", tables::sensitivity(&ctx));
                print!("{}", tables::mu_sweep(&ctx));
            }
            other => {
                eprintln!("unknown experiment '{other}'");
                eprintln!("usage: experiments [--small] [fig2|table1|fig5|table2|fig6|table3|table4|ablation|sensitivity|stats|export|query <text>|all]");
                eprintln!("       experiments serve-bench [--smoke] [--threads=1,2,8] [--shards=N] [--out=BENCH_serve.json]");
                eprintln!("       experiments load-bench [--smoke] [--rate=R1,R2] [--threads=N] [--shards=N] [--out=BENCH_load.json]");
                eprintln!("       experiments motif-search [--smoke] [--out=BENCH_motif.json]");
                eprintln!("       experiments ingest-bench [--smoke] [--out=BENCH_ingest.json]");
                eprintln!("       experiments ingest-bench --articles=N [--shards=M] [--smoke] [--out=BENCH_ingest.json]");
                eprintln!("       experiments snapshot write|verify|info [--small] [--file=world.snap]");
                eprintln!("       experiments store-bench [--smoke] [--out=BENCH_store.json]");
                return Err(2);
            }
        }
    }
    Ok(())
}
