//! Regenerates every table and figure of the paper, searches the motif
//! space, and writes and checks binary snapshots.
//!
//! ```text
//! experiments [--small] [fig2|table1|fig5|table2|fig6|table3|table4|ablation|sensitivity|stats|export|query <text>|all]
//! experiments motif-search [--smoke] [--out=BENCH_motif.json]
//! experiments snapshot write|verify|info [--small] [--file=world.snap]
//! ```

use sqe::MotifSet;
use sqe_bench::{figures, motif_search, tables, timing, ExperimentContext};

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
    println!(
        "expansion features ({}):",
        expanded.query_graph.num_expansions()
    );
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
    written(
        out,
        motif_search::write_report(&report, std::path::Path::new(out)),
    )
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
            let names: Vec<&str> = ctx
                .bed
                .collections
                .iter()
                .map(|c| c.name.as_str())
                .collect();
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
            eprintln!(
                "usage: experiments snapshot write|verify|info [--small] [--file=world.snap]"
            );
            Err(2)
        }
    }
}

fn main() -> std::process::ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(code) => std::process::ExitCode::from(code),
    }
}

fn run(args: Vec<String>) -> CliResult {
    // --smoke implies the small test bed.
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
    // `snapshot` manages its own context: verify/info must not pay for a
    // test-bed build.
    if what.first() == Some(&"snapshot") {
        return run_snapshot_cli(&args, small, what.get(1).copied());
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
            "motif-search" => {
                run_motif_search_cli(&ctx, if small { "small" } else { "full" }, &args)?
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
                eprintln!("       experiments motif-search [--smoke] [--out=BENCH_motif.json]");
                eprintln!(
                    "       experiments snapshot write|verify|info [--small] [--file=world.snap]"
                );
                return Err(2);
            }
        }
    }
    Ok(())
}
