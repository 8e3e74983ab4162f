//! Stress-tier size-doubling guard for the parser: a string-heavy
//! document of about 2 MB must parse in under 3× the time of one of
//! about 1 MB, and (in release builds) at 50 MB/s or more. A decoder
//! that re-scans the rest of the input per character fails both.
//!
//! Ignored by default; run it with
//! `cargo test --release -p dynaplace-json --test parse_scaling -- --ignored`.

use dynaplace_json::Json;
use std::time::{Duration, Instant};

/// A JSON array of records whose strings mix ASCII, multibyte text and
/// escapes, grown until it reaches `target_bytes`.
fn string_heavy_document(target_bytes: usize) -> String {
    let mut records = Vec::new();
    let mut size = 0;
    let mut i = 0usize;
    while size < target_bytes {
        let record = Json::Obj(vec![
            ("name".to_string(), Json::Str(format!("job-{i:06} é✓𝄞"))),
            (
                "note".to_string(),
                Json::Str(format!(
                    "record {i}: \"quoted\" text\twith a tab, a back\\slash, Ж and 𝄞; {}",
                    "plain filler text ".repeat(8)
                )),
            ),
            ("size".to_string(), Json::Num(i as f64)),
        ]);
        size += record.compact().len() + 1;
        records.push(record);
        i += 1;
    }
    Json::Arr(records).compact()
}

/// Minimum wall time of five parses.
fn min_parse_time(text: &str) -> Duration {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let v = Json::parse(text).expect("generated document parses");
            let elapsed = start.elapsed();
            assert!(matches!(v, Json::Arr(_)));
            elapsed
        })
        .min()
        .expect("five runs")
}

#[test]
#[ignore = "stress tier: run with --release -- --ignored"]
fn parse_time_scales_linearly() {
    let small = string_heavy_document(1 << 20);
    let large = string_heavy_document(2 << 20);
    let t_small = min_parse_time(&small).as_secs_f64();
    let t_large = min_parse_time(&large).as_secs_f64();
    let ratio = t_large / t_small;
    let mb_per_s = large.len() as f64 / 1e6 / t_large;
    println!(
        "{} B: {t_small:.4} s; {} B: {t_large:.4} s; ratio {ratio:.2}; {mb_per_s:.0} MB/s",
        small.len(),
        large.len()
    );
    assert!(ratio < 3.0, "doubling the input took {ratio:.2}× as long");
    if !cfg!(debug_assertions) {
        assert!(mb_per_s >= 50.0, "parse throughput {mb_per_s:.1} MB/s < 50");
    }
}
