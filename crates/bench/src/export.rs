//! Export runs and qrels in trec_eval format plus a JSON summary, so the
//! reproduction can be cross-checked with the real evaluation toolchain.

use std::fs;
use std::io;
use std::path::Path;

use ireval::precision::{PrecisionTable, TREC_CUTOFFS};
use ireval::trec;

use crate::context::ExperimentContext;
use crate::runs::PrfBase;

/// Exports one dataset: `qrels.txt`, one `run.<name>.txt` per
/// configuration, and `summary.json` with the mean precisions.
pub fn export_dataset(
    ctx: &ExperimentContext,
    dataset: &str,
    dir: &Path,
) -> io::Result<Vec<String>> {
    fs::create_dir_all(dir)?;
    let runner = ctx.runner(dataset);
    let qrels = ctx.qrels(dataset);
    fs::write(dir.join("qrels.txt"), trec::write_qrels(&qrels))?;

    let runs = vec![
        runner.run_ql_q(),
        runner.run_ql_e(false),
        runner.run_ql_e(true),
        runner.run_ql_qe(false),
        runner.run_ql_qe(true),
        runner.run_ql_x(),
        runner.run_sqe(&sqe::MotifSet::triangular(), false),
        runner.run_sqe(&sqe::MotifSet::t_and_s(), false),
        runner.run_sqe(&sqe::MotifSet::square(), false),
        runner.run_sqe_c(false),
        runner.run_sqe_c(true),
        runner.run_prf(PrfBase::UserQuery),
        runner.run_sqe_c_prf(),
    ];

    let mut written = Vec::new();
    let mut summary = serde_json::Map::new();
    for run in &runs {
        let slug: String = run
            .name()
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let file = format!("run.{slug}.txt");
        fs::write(dir.join(&file), trec::write_run(run))?;
        written.push(file);
        let table = PrecisionTable::evaluate(run, &qrels);
        let values: serde_json::Map<String, serde_json::Value> = TREC_CUTOFFS
            .iter()
            .map(|&k| {
                (
                    format!("P@{k}"),
                    serde_json::json!((table.at(k) * 1000.0).round() / 1000.0),
                )
            })
            .collect();
        summary.insert(run.name().to_owned(), serde_json::Value::Object(values));
    }
    fs::write(
        dir.join("summary.json"),
        serde_json::to_string_pretty(&serde_json::Value::Object(summary))?,
    )?;
    written.push("qrels.txt".to_owned());
    written.push("summary.json".to_owned());
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ireval::precision::mean_precision;

    #[test]
    fn export_roundtrips_through_trec_format() {
        let ctx = ExperimentContext::small();
        let dir = std::env::temp_dir().join("sqe_export_test");
        let files = export_dataset(&ctx, "imageclef", &dir).unwrap();
        assert!(files.iter().any(|f| f.contains("SQE_C")));
        assert!(dir.join("qrels.txt").exists());
        assert!(dir.join("summary.json").exists());

        // Re-parse and re-evaluate: identical precision.
        let qrels_text = fs::read_to_string(dir.join("qrels.txt")).unwrap();
        let qrels = ireval::trec::parse_qrels(&qrels_text).unwrap();
        let run_text = fs::read_to_string(dir.join("run.SQE_C__M_.txt")).unwrap();
        let run = ireval::trec::parse_run(&run_text, "SQE_C (M)").unwrap();
        let reparsed = mean_precision(&run, &qrels, 10);
        let direct_qrels = ctx.qrels("imageclef");
        let direct = mean_precision(&ctx.runner("imageclef").run_sqe_c(false), &direct_qrels, 10);
        // Written qrels drop zero-relevant queries (standard trec format);
        // imageclef has none, so the values must agree exactly.
        assert!((reparsed - direct).abs() < 1e-12, "{reparsed} vs {direct}");
        let summary: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(dir.join("summary.json")).unwrap()).unwrap();
        assert!(summary.get("SQE_C (M)").is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}
