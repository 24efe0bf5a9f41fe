//! End-to-end tests of the serving subsystem: `cdat serve` (stdio and
//! TCP), the `cdat query` client, micro-batching determinism and the
//! cache budget.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

use cdat::format::json;

fn cdat_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cdat"))
}

fn unique_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cdat-serve-{tag}-{}-{n}.cdat", std::process::id()))
}

/// A mixed suite: 105 treelike cdp-ATs plus 5 DAG-like ones, so both
/// solver backends and the probabilistic-DAG error path are exercised.
fn mixed_suite() -> Vec<(String, cdat::CdpAttackTree)> {
    use rand::prelude::*;
    use rand::rngs::StdRng;
    let mut rng = StdRng::seed_from_u64(91);
    let mut docs: Vec<(String, cdat::CdpAttackTree)> = Vec::new();
    let trees = cdat_gen::generate_suite(cdat_gen::SuiteConfig {
        treelike: true,
        max_target: 35,
        per_target: 3,
        seed: 90,
    });
    for (i, tree) in trees.into_iter().enumerate() {
        docs.push((format!("t{i}"), cdat_gen::decorate_prob(tree, &mut rng)));
    }
    let dags = cdat_gen::generate_suite(cdat_gen::SuiteConfig {
        treelike: false,
        max_target: 12,
        per_target: 1,
        seed: 93,
    });
    for (i, tree) in dags.into_iter().take(5).enumerate() {
        docs.push((format!("d{i}"), cdat_gen::decorate_prob(tree, &mut rng)));
    }
    docs
}

fn write_suite(docs: &[(String, cdat::CdpAttackTree)]) -> PathBuf {
    let text = cdat_format::write_multi(docs.iter().map(|(n, t)| (Some(n.as_str()), t)));
    let path = unique_path("suite");
    std::fs::write(&path, text).expect("temp file writable");
    path
}

/// Spawns `cdat serve --stdio`, feeds it `input`, and returns all response
/// lines (completion order). Stdin is written from a thread so a filling
/// stdout pipe can never deadlock the test.
fn serve_stdio(args: &[&str], input: String) -> Vec<String> {
    let mut child = cdat_bin()
        .arg("serve")
        .arg("--stdio")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let feeder = std::thread::spawn(move || {
        let _ = stdin.write_all(input.as_bytes());
        // Dropping stdin sends EOF: the server flushes and exits.
    });
    let output = child.wait_with_output().expect("serve exits at EOF");
    feeder.join().unwrap();
    assert!(output.status.success(), "serve exited with {:?}", output.status);
    String::from_utf8(output.stdout).unwrap().lines().map(str::to_owned).collect()
}

/// Extracts the integer after `"<field>":` (requests in these tests use
/// numeric ids).
fn int_field(line: &str, field: &str) -> u64 {
    let needle = format!("\"{field}\":");
    let at = line.find(&needle).unwrap_or_else(|| panic!("no {field} in {line}"));
    line[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {field} in {line}"))
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("binary runs")
}

/// The acceptance criterion: a 210-request mixed suite served through
/// `cdat serve` yields byte-identical response bodies to `cdat batch` on
/// the same suite, regardless of shard count and batch window.
#[test]
fn serve_matches_batch_bytes_across_shards_and_windows() {
    let docs = mixed_suite();
    let path = write_suite(&docs);
    let path_str = path.to_str().unwrap();

    // Reference: batch output, normalized by dropping the doc/name/cache
    // fields (serve responses carry the id instead).
    let out = run(cdat_bin().args(["batch", path_str, "--cdpf", "--cedpf"]));
    assert!(out.status.success());
    let reference: Vec<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|line| {
            let rest = &line[line.find("\"query\"").unwrap()..];
            let rest = rest.replacen("\"cache\":\"hit\",", "", 1);
            let rest = rest.replacen("\"cache\":\"miss\",", "", 1);
            format!("{{{rest}")
        })
        .collect();
    assert_eq!(reference.len(), 220, "110 documents x 2 queries");

    // The same 220 requests as individual tree requests, ids in batch
    // order (doc-major, then query).
    let mut input = String::new();
    for (doc, (_, tree)) in docs.iter().enumerate() {
        let text = json::escape(&cdat_format::write(tree));
        for (qi, query) in ["cdpf", "cedpf"].iter().enumerate() {
            input.push_str(&format!(
                "{{\"id\":{},\"tree\":\"{text}\",\"query\":\"{query}\"}}\n",
                2 * doc + qi
            ));
        }
    }

    for (shards, window_us) in [("1", "1000"), ("2", "0"), ("8", "3000")] {
        let mut lines = serve_stdio(
            &["--workers", shards, "--batch-window-us", window_us, "--batch-max", "32"],
            input.clone(),
        );
        assert_eq!(lines.len(), reference.len(), "workers={shards}");
        lines.sort_by_key(|line| int_field(line, "id"));
        for (i, (line, expect)) in lines.iter().zip(&reference).enumerate() {
            let body = &line[line.find("\"query\"").unwrap()..];
            let expect_body = &expect[expect.find("\"query\"").unwrap()..];
            assert_eq!(body, expect_body, "request {i}, workers={shards} window={window_us}us");
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Witnessed serving matches witnessed batch byte-for-byte: `cdat batch
/// --witnesses` and serve requests with `"witnesses":true` carry identical
/// response bodies on a mixed suite (and the witness arrays actually
/// appear on every front).
#[test]
fn witnessed_serve_matches_witnessed_batch_bytes() {
    let docs = mixed_suite();
    let docs = &docs[..40];
    let path = write_suite(docs);
    let path_str = path.to_str().unwrap();

    let out = run(cdat_bin().args(["batch", path_str, "--cdpf", "--dgc", "6", "--witnesses"]));
    assert!(out.status.success());
    let reference: Vec<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|line| {
            let rest = &line[line.find("\"query\"").unwrap()..];
            let rest = rest.replacen("\"cache\":\"hit\",", "", 1);
            let rest = rest.replacen("\"cache\":\"miss\",", "", 1);
            format!("{{{rest}")
        })
        .collect();
    assert_eq!(reference.len(), 80, "40 documents x 2 queries");
    let witnessed = reference.iter().filter(|l| l.contains("\"witnesses\":[")).count();
    assert_eq!(witnessed, 40, "every front response must carry a witnesses array");

    let mut input = String::new();
    for (doc, (_, tree)) in docs.iter().enumerate() {
        let text = json::escape(&cdat_format::write(tree));
        input.push_str(&format!(
            "{{\"id\":{},\"tree\":\"{text}\",\"query\":\"cdpf\",\"witnesses\":true}}\n",
            2 * doc
        ));
        input.push_str(&format!(
            "{{\"id\":{},\"tree\":\"{text}\",\"query\":\"dgc\",\"arg\":6,\"witnesses\":true}}\n",
            2 * doc + 1
        ));
    }
    let mut lines =
        serve_stdio(&["--workers", "4", "--batch-window-us", "500", "--batch-max", "16"], input);
    assert_eq!(lines.len(), reference.len());
    lines.sort_by_key(|line| int_field(line, "id"));
    for (i, (line, expect)) in lines.iter().zip(&reference).enumerate() {
        let body = &line[line.find("\"query\"").unwrap()..];
        let expect_body = &expect[expect.find("\"query\"").unwrap()..];
        assert_eq!(body, expect_body, "request {i}: witnessed serve and batch bytes differ");
    }
    let _ = std::fs::remove_file(&path);
}

/// The cache budget holds while serving: after every wave of requests the
/// total cached points stay within `--cache-budget`, and a stream of
/// distinct trees forces evictions.
#[test]
fn serve_cache_budget_bounds_points_and_evicts() {
    use rand::prelude::*;
    use rand::rngs::StdRng;

    let budget = 64u64;
    let mut child = cdat_bin()
        .args(["serve", "--stdio", "--workers", "4", "--batch-window-us", "0"])
        .args(["--cache-budget", &budget.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut lines = stdout.lines();
    let mut next_line = || lines.next().expect("line available").expect("utf-8 line");

    let mut rng = StdRng::seed_from_u64(77);
    let mut evictions_seen = 0u64;
    for wave in 0..6 {
        // 12 distinct random trees per wave, answered before the next wave
        // is sent (so the stats snapshot below sees a quiet server).
        let mut input = String::new();
        for i in 0..12 {
            let tree = cdat_gen::random_small(&mut rng, 7, true);
            let cdp = cdat_gen::decorate_prob(tree, &mut rng);
            let text = json::escape(&cdat_format::write(&cdp));
            input.push_str(&format!("{{\"id\":{i},\"tree\":\"{text}\"}}\n"));
        }
        stdin.write_all(input.as_bytes()).unwrap();
        stdin.flush().unwrap();
        for _ in 0..12 {
            let line = next_line();
            assert!(line.contains("\"front\":"), "wave {wave}: {line}");
        }

        stdin.write_all(b"{\"op\":\"stats\",\"id\":99}\n").unwrap();
        stdin.flush().unwrap();
        let stats_line = next_line();
        let value = json::parse(&stats_line).expect("stats line is JSON");
        let stats = value.get("stats").expect("stats object");
        let points = stats.get("points").and_then(json::Value::as_f64).unwrap() as u64;
        evictions_seen = stats.get("evictions").and_then(json::Value::as_f64).unwrap() as u64;
        assert!(points <= budget, "wave {wave}: {points} points exceed budget {budget}");
    }
    assert!(evictions_seen > 0, "72 distinct trees against {budget} points must evict");

    drop(stdin);
    assert!(child.wait().expect("serve exits").success());
}

/// TCP serving: `cdat query --connect` against a live `cdat serve --addr`
/// reproduces `cdat batch` bytes on the same suite.
#[test]
fn tcp_serve_and_query_client_match_batch() {
    let docs = mixed_suite();
    let path = write_suite(&docs[..20]); // a lighter suite keeps this quick
    let path_str = path.to_str().unwrap();

    let mut child: Child = cdat_bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2", "--batch-window-us", "200"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let announce = stderr.lines().next().expect("announce line").expect("utf-8");
    let addr = announce.strip_prefix("cdat-serve: listening on ").expect("announce format");

    let out = run(cdat_bin().args([
        "query",
        "--connect",
        addr,
        path_str,
        "--cdpf",
        "--dgc",
        "4",
        "--witnesses",
    ]));
    let _ = child.kill();
    let _ = child.wait();
    assert!(out.status.success(), "query failed: {}", String::from_utf8_lossy(&out.stderr));
    let served = String::from_utf8(out.stdout).unwrap();
    let witnessed = served.lines().filter(|l| l.contains("\"witnesses\":[")).count();
    assert_eq!(witnessed, 20, "--witnesses must reach every front response");

    let batch = run(cdat_bin().args(["batch", path_str, "--cdpf", "--dgc", "4", "--witnesses"]));
    assert!(batch.status.success());
    let batch = String::from_utf8(batch.stdout).unwrap();

    // Same multiset of (doc, name, query, body): normalize both sides to
    // `doc...` (drop the id on served lines, the cache field on batch
    // lines) and compare as sorted sets.
    let mut served: Vec<String> = served
        .lines()
        .map(|l| l[l.find("\"doc\"").unwrap_or_else(|| panic!("no doc in {l}"))..].to_owned())
        .collect();
    let mut expected: Vec<String> = batch
        .lines()
        .map(|l| {
            let l = l.replacen("\"cache\":\"hit\",", "", 1);
            let l = l.replacen("\"cache\":\"miss\",", "", 1);
            l[l.find("\"doc\"").unwrap()..].to_owned()
        })
        .collect();
    served.sort();
    expected.sort();
    assert_eq!(served.len(), 40, "20 documents x 2 queries");
    assert_eq!(served, expected);
    let _ = std::fs::remove_file(&path);
}

/// Protocol-level odds and ends over stdio: solver hints, parse errors
/// with echoed ids, suite requests, and the stats op shape.
#[test]
fn stdio_protocol_handles_hints_errors_and_suites() {
    let input = concat!(
        // Force BILP on a treelike tree: same front as auto.
        r#"{"id":0,"tree":"or g damage=7\n  bas x cost=3\n","solver":"bilp"}"#,
        "\n",
        r#"{"id":1,"tree":"or g damage=7\n  bas x cost=3\n"}"#,
        "\n",
        // Bottom-up on a DAG: a per-request error, served in-band.
        r#"{"id":2,"tree":"or r\n  and g1\n    bas x cost=1\n    bas y\n  and g2\n    ref x\n    bas z\n","solver":"bottomup"}"#,
        "\n",
        // A parse error inside a suite carries whole-file line numbers.
        r#"{"id":3,"suite":"--- ok\nor a damage=1\n  bas b cost=1\n--- broken\nzap\n"}"#,
        "\n",
        // A two-document suite fans out.
        r#"{"id":4,"suite":"--- p\nor g damage=1\n  bas x cost=2\n--- q\nor h damage=3\n  bas y cost=4\n"}"#,
        "\n",
    );
    let mut lines = serve_stdio(&["--workers", "2"], input.to_owned());
    lines.sort_by_key(|line| int_field(line, "id"));
    assert_eq!(lines.len(), 6);
    assert_eq!(lines[0], "{\"id\":0,\"query\":\"cdpf\",\"front\":[[0,0],[3,7]]}");
    assert_eq!(lines[1], "{\"id\":1,\"query\":\"cdpf\",\"front\":[[0,0],[3,7]]}");
    assert!(lines[2].contains("\"error\":\"the bottom-up solver requires"), "{}", lines[2]);
    assert!(lines[3].contains("\"error\":\"suite: line 5:"), "{}", lines[3]);
    assert_eq!(
        lines[4],
        "{\"id\":4,\"doc\":0,\"name\":\"p\",\"query\":\"cdpf\",\"front\":[[0,0],[2,1]]}"
    );
    assert_eq!(
        lines[5],
        "{\"id\":4,\"doc\":1,\"name\":\"q\",\"query\":\"cdpf\",\"front\":[[0,0],[4,3]]}"
    );
}

// ---------------------------------------------------------------------------
// The tree memo: repeated tree texts answer from parsed, memoized trees with
// exactly the bytes `cdat batch` prints for the same documents.
// ---------------------------------------------------------------------------

/// `cdat batch <docs as a suite> <flags>` as response bodies: everything
/// from `"query"` on, with the `cache` field dropped, in batch order
/// (document-major, then flag order).
fn batch_bodies(docs: &[&str], flags: &[&str]) -> Vec<String> {
    let suite: String =
        docs.iter().enumerate().map(|(i, doc)| format!("--- d{i}\n{doc}")).collect();
    let path = unique_path("memo-suite");
    std::fs::write(&path, suite).expect("temp file writable");
    let out = run(cdat_bin().arg("batch").arg(&path).args(flags));
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "batch failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|line| {
            let line = line.replacen("\"cache\":\"hit\",", "", 1);
            line.replacen("\"cache\":\"miss\",", "", 1)
        })
        .map(|line| body(&line).to_owned())
        .collect()
}

/// A response line from its `"query"` field on (the part that must equal
/// the batch line).
fn body(line: &str) -> &str {
    &line[line.find("\"query\"").unwrap_or_else(|| panic!("no query in {line}"))..]
}

/// One sample of the `metrics` op's exposition, from its response line.
fn metric(metrics_line: &str, name: &str) -> u64 {
    let value = json::parse(metrics_line).expect("metrics line is JSON");
    let text = value.get("metrics").and_then(json::Value::as_str).expect("metrics string");
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {name} in {text}"))
        .parse()
        .expect("integer sample")
}

/// Splits a session's output into solve lines by id and the one metrics
/// line.
fn split_metrics(lines: Vec<String>) -> (Vec<String>, String) {
    let (metrics, mut solves): (Vec<String>, Vec<String>) =
        lines.into_iter().partition(|l| l.contains("\"metrics\":"));
    solves.sort_by_key(|line| int_field(line, "id"));
    (solves, metrics.into_iter().next().expect("one metrics line"))
}

/// The eight query families, as request fields and as batch flags.
const FAMILIES: [(&str, &str); 8] = [
    ("\"query\":\"cdpf\"", "--cdpf"),
    ("\"query\":\"cedpf\"", "--cedpf"),
    ("\"query\":\"dgc\",\"arg\":4", "--dgc 4"),
    ("\"query\":\"cgd\",\"arg\":5", "--cgd 5"),
    ("\"query\":\"edgc\",\"arg\":4", "--edgc 4"),
    ("\"query\":\"cged\",\"arg\":5", "--cged 5"),
    ("\"query\":\"min-time\"", "--min-time"),
    ("\"query\":\"max-prob\"", "--max-prob"),
];

/// Every family, cold then warm: each document's text is re-sent with
/// fresh ids over three rounds (the first sighting parses, the second
/// admits, every later one is a memo hit), and every answer equals the
/// batch line.
#[test]
fn memoized_trees_answer_every_family_with_batch_bytes() {
    let suite = mixed_suite();
    let texts: Vec<String> = suite[..10]
        .iter()
        .chain(&suite[105..107])
        .map(|(_, tree)| cdat_format::write(tree))
        .collect();
    let docs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let flags: Vec<&str> = FAMILIES.iter().flat_map(|(_, f)| f.split(' ')).collect();
    let reference = batch_bodies(&docs, &flags);
    assert_eq!(reference.len(), docs.len() * FAMILIES.len());

    let mut input = String::new();
    for round in 0..3 {
        for (d, doc) in docs.iter().enumerate() {
            for (q, (fields, _)) in FAMILIES.iter().enumerate() {
                let id = 1000 * round + 10 * d + q;
                input.push_str(&format!(
                    "{{\"id\":{id},\"tree\":\"{}\",{fields}}}\n",
                    json::escape(doc)
                ));
            }
        }
    }
    input.push_str("{\"op\":\"metrics\",\"id\":999999}\n");
    let (lines, metrics) = split_metrics(serve_stdio(&["--workers", "3"], input));
    assert_eq!(lines.len(), 3 * reference.len());
    for (k, line) in lines.iter().enumerate() {
        let id = int_field(line, "id") as usize;
        let (d, q) = ((id % 1000) / 10, id % 10);
        assert_eq!(body(line), reference[d * FAMILIES.len() + q], "request {k} (id {id})");
    }
    // Per document: one first sighting, one admitting parse, then hits.
    let (hits, misses) = (
        metric(&metrics, "cdat_tree_memo_hits_total"),
        metric(&metrics, "cdat_tree_memo_misses_total"),
    );
    assert_eq!(misses, 2 * docs.len() as u64);
    assert_eq!(hits + misses, lines.len() as u64, "one lookup per tree-carrying request");
    assert_eq!(metric(&metrics, "cdat_tree_memo_admissions_total"), docs.len() as u64);
}

/// The memo keys on the decoded text: the same tree spelled with `\u000a`
/// line breaks or `\/` slashes is the same entry; an isomorphic copy with
/// renamed, reordered BASs is another entry whose witnesses still come
/// back in its own numbering.
#[test]
fn memo_hits_across_escape_spellings_and_keeps_renamed_copies_apart() {
    let base = "or \"goal/x\" damage=200\n  bas cyberattack cost=1 prob=0.2\n  and \"destroy/robot\" damage=100\n    bas \"place bomb\" cost=3 prob=0.4\n    bas \"force door\" cost=2 damage=10 prob=0.9\n";
    let renamed = "or top damage=200\n  and robot damage=100\n    bas door cost=2 damage=10 prob=0.9\n    bas bomb cost=3 prob=0.4\n  bas cyber cost=1 prob=0.2\n";
    let reference =
        batch_bodies(&[base, renamed], &["--cdpf", "--cedpf", "--dgc", "3", "--witnesses"]);
    let plain = json::escape(base);
    let spellings = [
        plain.clone(),
        plain.replace("\\n", "\\u000a"),
        plain.replace('/', "\\/"),
        plain.replace("\\n", "\\u000A").replace('/', "\\/"),
    ];
    let queries = ["\"query\":\"cdpf\"", "\"query\":\"cedpf\"", "\"query\":\"dgc\",\"arg\":3"];
    let mut input = String::new();
    let mut expected = Vec::new();
    let mut id = 100;
    for (spelling, doc) in spellings.iter().map(|s| (s.clone(), 0)).chain([
        (json::escape(renamed), 1),
        (json::escape(renamed), 1),
        (json::escape(renamed), 1),
    ]) {
        for (q, fields) in queries.iter().enumerate() {
            input.push_str(&format!(
                "{{\"id\":{id},\"tree\":\"{spelling}\",{fields},\"witnesses\":true}}\n"
            ));
            expected.push(reference[doc * queries.len() + q].clone());
            id += 1;
        }
    }
    input.push_str("{\"op\":\"metrics\",\"id\":999}\n");
    let (lines, metrics) = split_metrics(serve_stdio(&["--workers", "2"], input));
    let bodies: Vec<&str> = lines.iter().map(|l| body(l)).collect();
    assert_eq!(bodies, expected);
    assert_ne!(reference[0], reference[3], "the copies number their witnesses differently");
    // Two texts, each parsed twice (first and admitting sighting); every
    // other lookup — all four spellings included — is a hit.
    assert_eq!(metric(&metrics, "cdat_tree_memo_misses_total"), 4);
    assert_eq!(metric(&metrics, "cdat_tree_memo_hits_total"), lines.len() as u64 - 4);
    assert_eq!(metric(&metrics, "cdat_tree_memo_admissions_total"), 2);
}

/// An unparseable tree answers the same error every time it is sent and
/// never takes a memo slot.
#[test]
fn unparseable_trees_answer_the_same_error_and_are_never_admitted() {
    let text = "or goal damage=10\n  zap pick-lock cost=5\n";
    let expected = format!("tree: {}", cdat_format::parse(text).unwrap_err());
    let request = |id: usize| format!("{{\"id\":{id},\"tree\":\"{}\"}}\n", json::escape(text));
    let input =
        format!("{}{}{}{{\"op\":\"metrics\",\"id\":9}}\n", request(1), request(2), request(3));
    let (lines, metrics) = split_metrics(serve_stdio(&["--workers", "2"], input));
    for (i, line) in lines.iter().enumerate() {
        let id = i + 1;
        assert_eq!(*line, format!("{{\"id\":{id},\"error\":\"{}\"}}", json::escape(&expected)));
    }
    assert_eq!(metric(&metrics, "cdat_tree_memo_misses_total"), 3);
    assert_eq!(metric(&metrics, "cdat_tree_memo_hits_total"), 0);
    assert_eq!(metric(&metrics, "cdat_tree_memo_admissions_total"), 0);
    assert_eq!(metric(&metrics, "cdat_tree_memo_bytes"), 0);
}

/// More distinct repeated trees than the memo's byte budget holds: the
/// memo evicts, never charges more than its budget, and every answer
/// still equals the batch line.
#[test]
fn memo_overflowing_its_budget_evicts_with_batch_bytes() {
    let probe = &cdat_gen::decorated_dag_suite(1, 1500, 0.0, 0.2, 41)[0];
    let charge = cdat_format::write(probe).len() + probe.heap_bytes();
    let count = cdat::serve::TREE_MEMO_BUDGET / charge + 4;
    let texts: Vec<String> = cdat_gen::decorated_dag_suite(count, 1500, 0.0, 0.2, 41)
        .iter()
        .map(cdat_format::write)
        .collect();
    let docs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let reference = batch_bodies(&docs, &["--min-time"]);

    // Every tree twice (admitting it), then all of them once more.
    let mut input = String::new();
    let order = (0..count).flat_map(|d| [d, d]).chain(0..count);
    for (k, d) in order.enumerate() {
        let id = 10_000 * k + d;
        input.push_str(&format!(
            "{{\"id\":{id},\"tree\":\"{}\",\"query\":\"min-time\"}}\n",
            json::escape(docs[d])
        ));
    }
    input.push_str("{\"op\":\"metrics\",\"id\":1}\n");
    let (lines, metrics) = split_metrics(serve_stdio(&["--workers", "2"], input));
    assert_eq!(lines.len(), 3 * count);
    for line in &lines {
        let d = int_field(line, "id") as usize % 10_000;
        assert_eq!(body(line), reference[d], "tree {d}");
    }
    assert_eq!(metric(&metrics, "cdat_tree_memo_admissions_total"), count as u64);
    assert!(metric(&metrics, "cdat_tree_memo_evictions_total") > 0);
    let bytes = metric(&metrics, "cdat_tree_memo_bytes");
    assert!(bytes > 0 && bytes <= cdat::serve::TREE_MEMO_BUDGET as u64, "{bytes}");
}

/// A sweep whose base tree is memoized (admitted by two plain solves)
/// answers every variant with the batch bytes of the materialized variant.
#[test]
fn sweeps_over_a_memoized_base_tree_answer_batch_bytes() {
    let doc = |pick: &str, smash: &str| {
        format!("or goal damage=10\n  bas pick-lock cost={pick}\n  bas smash-window cost={smash} damage=2\n")
    };
    let base = doc("5", "1");
    let variants = [doc("0.5", "1"), doc("5", "7"), doc("2", "2")];
    let variant_refs: Vec<&str> = variants.iter().map(String::as_str).collect();
    let reference = batch_bodies(&variant_refs, &["--cdpf", "--witnesses"]);
    let tree = json::escape(&base);
    let input = format!(
        "{{\"id\":1,\"tree\":\"{tree}\"}}\n{{\"id\":2,\"tree\":\"{tree}\"}}\n\
         {{\"op\":\"sweep\",\"id\":3,\"tree\":\"{tree}\",\"witnesses\":true,\"patches\":[\
         {{\"cost\":{{\"pick-lock\":0.5}}}},{{\"cost\":{{\"smash-window\":7}}}},\
         {{\"cost\":{{\"pick-lock\":2,\"smash-window\":2}}}}]}}\n\
         {{\"op\":\"metrics\",\"id\":4}}\n"
    );
    let (lines, metrics) = split_metrics(serve_stdio(&["--workers", "2"], input));
    let sweep: Vec<&String> = lines.iter().filter(|l| l.contains("\"variant\":")).collect();
    assert_eq!(sweep.len(), 3);
    for line in sweep {
        let k = int_field(line, "variant") as usize;
        assert_eq!(body(line), reference[k], "variant {k}");
    }
    assert_eq!(metric(&metrics, "cdat_tree_memo_hits_total"), 1, "the sweep's base hit");
}

/// Two TCP connections share one memo: a tree admitted on one connection
/// answers from the memo on the other, with the batch bytes.
#[test]
fn tcp_connections_share_the_tree_memo() {
    use std::net::TcpStream;
    let mut child: Child = cdat_bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let announce = stderr.lines().next().expect("announce line").expect("utf-8");
    let addr = announce.strip_prefix("cdat-serve: listening on ").expect("announce format");

    let text = "or goal damage=10\n  bas pick-lock cost=5\n  bas smash-window cost=1 damage=2\n";
    let reference = batch_bodies(&[text], &["--cdpf", "--dgc", "3"]);
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        (BufReader::new(stream.try_clone().expect("clone")), stream)
    };
    let ask = |conn: &mut (BufReader<TcpStream>, TcpStream), request: String| {
        conn.1.write_all(request.as_bytes()).expect("send");
        let mut line = String::new();
        conn.0.read_line(&mut line).expect("answer");
        line.trim_end().to_owned()
    };
    let tree = json::escape(text);
    let mut conns = [connect(), connect()];
    for (conn, id, query) in [
        (0, 1, "\"query\":\"cdpf\""),
        (0, 2, "\"query\":\"dgc\",\"arg\":3"),
        (1, 3, "\"query\":\"cdpf\""),
        (1, 4, "\"query\":\"dgc\",\"arg\":3"),
    ] {
        let line = ask(&mut conns[conn], format!("{{\"id\":{id},\"tree\":\"{tree}\",{query}}}\n"));
        assert_eq!(body(&line), reference[(id + 1) % 2], "id {id}");
    }
    let metrics = ask(&mut conns[0], "{\"op\":\"metrics\",\"id\":5}\n".into());
    let _ = child.kill();
    let _ = child.wait();
    assert_eq!(metric(&metrics, "cdat_tree_memo_hits_total"), 2, "connection b hit a's entry");
    assert_eq!(metric(&metrics, "cdat_tree_memo_admissions_total"), 1);
}
