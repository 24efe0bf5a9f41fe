//! The correctness reference: the same documents and queries answered by
//! `cdat batch`, a different entry point from the server, normalised the
//! way the serve smoke test does it.

use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, Stdio};

use cdat_engine::Query;
use cdat_format::json;
use cdat_server::protocol;

/// One answer to look up: a document, a query, and the witness opt-in.
#[derive(Clone, Copy, Debug)]
pub struct Item {
    /// Index into the document table.
    pub doc: usize,
    /// The query.
    pub query: Query,
    /// Whether the answer carries witnesses.
    pub witnesses: bool,
}

/// Strips a batch line's `{"doc":N,` opening and its `"cache":...,` field,
/// leaving the part a served line carries after its `{"id":N,` (and
/// `"variant":K,`) opening.
pub fn normalise_batch_line(line: &str) -> Option<String> {
    let rest = line.strip_prefix("{\"doc\":")?;
    let rest = &rest[rest.find(',')? + 1..];
    for cache in ["\"cache\":\"hit\",", "\"cache\":\"miss\","] {
        if let Some(at) = rest.find(cache) {
            return Some(format!("{}{}", &rest[..at], &rest[at + cache.len()..]));
        }
    }
    None
}

/// The batch flag(s) of one query, e.g. `["--dgc", "5"]`.
fn flag(query: Query) -> Vec<String> {
    let (name, arg) = protocol::query_name(query);
    let mut flag = vec![format!("--{name}")];
    flag.extend(arg.map(json::num));
    flag
}

/// Answers every item through `cdat batch --workers 2`, one invocation per
/// (witnesses, query name) group, and returns the normalised line of each
/// item in order.
pub fn answer(
    cdat: &Path,
    work: &Path,
    docs: &[String],
    items: &[Item],
) -> Result<Vec<String>, String> {
    // Group items; within a group every document meets every distinct
    // query (extra answers come from the same cached front).
    let mut groups: Vec<((bool, &'static str), Vec<usize>)> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let key = (item.witnesses, protocol::query_name(item.query).0);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let mut answers = vec![String::new(); items.len()];
    for (group, ((witnesses, _), members)) in groups.iter().enumerate() {
        let mut doc_pos: HashMap<usize, usize> = HashMap::new();
        let mut suite = String::new();
        let mut queries: Vec<Vec<String>> = Vec::new();
        for &i in members {
            let item = items[i];
            if !doc_pos.contains_key(&item.doc) {
                doc_pos.insert(item.doc, doc_pos.len());
                suite.push_str("---\n");
                suite.push_str(&docs[item.doc]);
                if !suite.ends_with('\n') {
                    suite.push('\n');
                }
            }
            let f = flag(item.query);
            if !queries.contains(&f) {
                queries.push(f);
            }
        }
        let path = work.join(format!("reference-{group}.cdat"));
        std::fs::write(&path, &suite)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let mut command = Command::new(cdat);
        command.arg("batch").arg(&path).args(["--workers", "2"]);
        for f in &queries {
            command.args(f);
        }
        if *witnesses {
            command.arg("--witnesses");
        }
        let output = command
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .map_err(|e| format!("cannot run cdat batch: {e}"))?;
        if !output.status.success() {
            return Err(format!("cdat batch failed with {}", output.status));
        }
        let text = String::from_utf8(output.stdout).map_err(|_| "cdat batch printed non-UTF-8")?;
        let lines: Vec<&str> = text.lines().collect();
        if lines.len() != doc_pos.len() * queries.len() {
            return Err(format!(
                "cdat batch printed {} lines for {} documents x {} queries",
                lines.len(),
                doc_pos.len(),
                queries.len()
            ));
        }
        for &i in members {
            let item = items[i];
            let q = queries.iter().position(|f| *f == flag(item.query)).expect("query listed");
            let line = lines[doc_pos[&item.doc] * queries.len() + q];
            let normalised = normalise_batch_line(line)
                .ok_or_else(|| format!("unexpected cdat batch line {line:?}"))?;
            if normalised.contains("\"error\":") {
                return Err(format!("the workload asks a query the reference rejects: {line}"));
            }
            answers[i] = normalised;
        }
        let _ = std::fs::remove_file(&path);
    }
    Ok(answers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_lines_normalise_to_the_served_suffix() {
        assert_eq!(
            normalise_batch_line(r#"{"doc":12,"query":"dgc","arg":5,"cache":"hit","point":[1,2]}"#)
                .as_deref(),
            Some(r#""query":"dgc","arg":5,"point":[1,2]}"#)
        );
        assert_eq!(
            normalise_batch_line(r#"{"doc":0,"query":"cdpf","cache":"miss","front":[[0,0]]}"#)
                .as_deref(),
            Some(r#""query":"cdpf","front":[[0,0]]}"#)
        );
        assert_eq!(normalise_batch_line(r#"{"id":0,"query":"cdpf"}"#), None);
    }
}
