//! Round-trip property suite: `parse ∘ render == identity` on generated
//! values, for both the compact and the pretty printer.
//!
//! String generation deliberately over-samples the hostile corners of
//! the escape path: control characters (the `\u00XX` escape route),
//! quotes, backslashes, forward slashes, DEL, and multi-byte Unicode up
//! to astral-plane code points. Numbers cover integers, subnormals, and
//! extreme exponents — the printer promises shortest-round-trip
//! formatting for every finite `f64`.

use dynaplace_json::Json;
use proptest::prelude::*;

/// Character palette biased toward escape-path edge cases.
const PALETTE: [char; 24] = [
    '\u{0}', '\u{1}', '\u{8}', '\t', '\n', '\u{b}', '\u{c}', '\r', '\u{e}',
    '\u{1f}', // controls
    '"', '\\', '/', ' ', 'a', 'Z', '0', '_', '\u{7f}', 'é', 'Ж', '✓', '\u{fffd}', '𝄞',
];

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..PALETTE.len()).prop_map(|i| PALETTE[i]), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

fn arb_number() -> BoxedStrategy<f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::MIN_POSITIVE),
        Just(f64::MAX),
        Just(f64::EPSILON),
        Just(1e-300),
        Just(-123_456_789.123_456),
        -1e9..1e9f64,
        -1e-6..1e-6f64,
        (0u64..1_000_000).prop_map(|n| n as f64),
    ]
    .boxed()
}

fn arb_json(depth: u32) -> BoxedStrategy<Json> {
    let scalar = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        arb_number().prop_map(Json::Num),
        arb_string().prop_map(Json::Str),
    ]
    .boxed();
    if depth == 0 {
        return scalar;
    }
    prop_oneof![
        scalar,
        proptest::collection::vec(arb_json(depth - 1), 0..4).prop_map(Json::Arr),
        proptest::collection::vec((arb_string(), arb_json(depth - 1)), 0..4).prop_map(Json::Obj),
    ]
    .boxed()
}

/// Any Unicode scalar value: ASCII, the BMP and the full range each a
/// third of the time (surrogate code points map to U+FFFD), so runs of
/// plain text mix 1- to 4-byte encodings with escaped characters.
fn arb_unicode_string() -> impl Strategy<Value = String> {
    let scalar = prop_oneof![0u32..0x80, 0u32..0x1_0000, 0u32..0x11_0000]
        .prop_map(|code| char::from_u32(code).unwrap_or('\u{fffd}'));
    proptest::collection::vec(scalar, 0..40).prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary Unicode survives both printers as a value and as an
    /// object key.
    #[test]
    fn unicode_strings_round_trip(value in arb_unicode_string(), key in arb_unicode_string()) {
        let keyed = Json::Obj(vec![(key, Json::Str(value.clone()))]);
        for v in [Json::Str(value), keyed] {
            prop_assert_eq!(Json::parse(&v.compact()).unwrap(), v.clone());
            prop_assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
        }
    }

    /// `parse(compact(v)) == v` for arbitrary nested values.
    #[test]
    fn compact_round_trips(v in arb_json(3)) {
        let text = v.compact();
        let back = Json::parse(&text).unwrap_or_else(|e| {
            panic!("compact output failed to parse: {e}\n{text}")
        });
        prop_assert_eq!(back, v);
    }

    /// `parse(pretty(v)) == v` for arbitrary nested values.
    #[test]
    fn pretty_round_trips(v in arb_json(3)) {
        let text = v.pretty();
        let back = Json::parse(&text).unwrap_or_else(|e| {
            panic!("pretty output failed to parse: {e}\n{text}")
        });
        prop_assert_eq!(back, v);
    }

    /// Strings survive alone too (the densest escape coverage, since
    /// nothing else in the document dilutes the hostile characters).
    #[test]
    fn hostile_strings_round_trip(s in arb_string()) {
        let v = Json::Str(s);
        prop_assert_eq!(Json::parse(&v.compact()).unwrap(), v.clone());
        prop_assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }
}

/// Every control character (the full `\u00XX` range) escapes to
/// something the parser accepts and maps back to the same code point.
#[test]
fn all_control_characters_round_trip() {
    for code in 0u32..0x20 {
        let c = char::from_u32(code).unwrap();
        let v = Json::Str(format!("a{c}b"));
        let text = v.compact();
        assert_eq!(
            Json::parse(&text).unwrap(),
            v,
            "control char U+{code:04X} failed through {text:?}"
        );
    }
}

/// Explicit `\uXXXX` escapes in the input — including surrogate pairs
/// and lone surrogates — and escapes next to multibyte text parse to the
/// right scalar values and survive re-rendering.
#[test]
fn unicode_escape_forms_parse_and_round_trip() {
    let cases = [
        (r#""""#, ""),
        (r#""\u0000""#, "\u{0}"),
        (r#""\u001F""#, "\u{1f}"),
        (r#""\u0041""#, "A"),
        (r#""\u00e9""#, "\u{e9}"),
        (r#""\u2713""#, "\u{2713}"),
        (r#""\uD834\uDD1E""#, "\u{1d11e}"), // surrogate pair
        (r#""a\ud83d\ude00b""#, "a\u{1f600}b"),
        // Lone surrogates, high or low, and a high one followed by a
        // non-surrogate escape each decode to U+FFFD.
        (r#""\uD800""#, "\u{fffd}"),
        (r#""x\uDC00y""#, "x\u{fffd}y"),
        (r#""\uD800\u0041""#, "\u{fffd}A"),
        // Multibyte runs directly before and after escapes.
        (r#""é\nЖ""#, "é\nЖ"),
        (r#""\t✓𝄞\\""#, "\t✓𝄞\\"),
        (r#""𝄞\"𝄞\/""#, "𝄞\"𝄞/"),
        (r#""Ж\u00e9Ж""#, "ЖéЖ"),
    ];
    for (input, expected) in cases {
        let v = Json::parse(input).unwrap_or_else(|e| panic!("{input}: {e}"));
        assert_eq!(v, Json::Str(expected.to_string()), "{input}");
        assert_eq!(Json::parse(&v.compact()).unwrap(), v, "{input}");
    }
}
