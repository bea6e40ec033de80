//! Property tests of the NDJSON protocol: every frame round-trips exactly,
//! and malformed or truncated input is always a clean error — parsing never
//! panics, whatever the bytes.

use chain2l_service::json::{parse_object, ObjectBuilder, Value};
use chain2l_service::protocol::{
    best_effort_id, encode_request, encode_response, parse_request, parse_response, Request,
    Response, SolveResult, SolveSpec,
};
use proptest::prelude::*;

/// Arbitrary strings exercising escapes, unicode and JSON-lookalike noise.
fn wire_string() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("hera".to_string()),
        Just("a \"quoted\" name".to_string()),
        Just("back\\slash and \n newline \t tab".to_string()),
        Just("ünïcode 🧠 {\"op\":\"solve\"}".to_string()),
        proptest::collection::vec(0u32..0xD7FF, 0..12)
            .prop_map(|codes| { codes.into_iter().filter_map(char::from_u32).collect::<String>() }),
    ]
}

/// Strings dense in what the JSON writer must escape or pass through:
/// quotes, backslashes, control characters, non-ASCII characters and
/// characters outside the Basic Multilingual Plane (UTF-16 surrogate pairs).
fn escape_heavy_string() -> impl Strategy<Value = String> {
    let any_char = |codes: std::ops::Range<u32>| {
        codes.prop_map(|code| char::from_u32(code).unwrap_or('\u{FFFD}'))
    };
    let piece = prop_oneof![
        Just('"'),
        Just('\\'),
        any_char(0..0x20),
        any_char(0x20..0x7F),
        any_char(0x80..0xD800),
        any_char(0xE000..0x1_0000),
        any_char(0x1_0000..0x11_0000),
    ];
    proptest::collection::vec(piece, 0..24).prop_map(|chars| chars.into_iter().collect())
}

fn solve_spec() -> impl Strategy<Value = SolveSpec> {
    (wire_string(), wire_string(), 0usize..10_000, -1.0e9f64..1.0e9, wire_string()).prop_map(
        |(platform, pattern, tasks, weight, algorithm)| SolveSpec {
            platform,
            pattern,
            tasks,
            weight,
            algorithm,
        },
    )
}

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

    #[test]
    fn solve_requests_round_trip(id in 0u64..u64::MAX, spec in solve_spec()) {
        let line = encode_request(&Request::Solve { id, spec: spec.clone() });
        match parse_request(&line) {
            Ok(Request::Solve { id: back_id, spec: back }) => {
                prop_assert_eq!(back_id, id);
                prop_assert_eq!(&back.platform, &spec.platform);
                prop_assert_eq!(&back.pattern, &spec.pattern);
                prop_assert_eq!(back.tasks, spec.tasks);
                prop_assert_eq!(back.weight.to_bits(), spec.weight.to_bits());
                prop_assert_eq!(&back.algorithm, &spec.algorithm);
            }
            other => prop_assert!(false, "round trip failed: {:?} for {}", other, line),
        }
        prop_assert_eq!(best_effort_id(&line), id);
    }

    #[test]
    fn solve_responses_round_trip_bit_exactly(
        id in 0u64..u64::MAX,
        makespan in -1.0e12f64..1.0e12,
        normalized in -1.0e3f64..1.0e3,
        disk in 0u64..u64::MAX,
        memory in 0u64..u64::MAX,
        guaranteed in 0u64..u64::MAX,
        partial in 0u64..u64::MAX,
    ) {
        let result = SolveResult {
            expected_makespan: makespan,
            normalized_makespan: normalized,
            disk, memory, guaranteed, partial,
        };
        let line = encode_response(&Response::Solve { id, result });
        match parse_response(&line) {
            Ok(Response::Solve { id: back_id, result: back }) => {
                prop_assert_eq!(back_id, id);
                prop_assert_eq!(back.expected_makespan.to_bits(), makespan.to_bits());
                prop_assert_eq!(back.normalized_makespan.to_bits(), normalized.to_bits());
                prop_assert_eq!(
                    (back.disk, back.memory, back.guaranteed, back.partial),
                    (disk, memory, guaranteed, partial)
                );
            }
            other => prop_assert!(false, "round trip failed: {:?} for {}", other, line),
        }
    }

    #[test]
    fn error_responses_round_trip(id in 0u64..u64::MAX, message in wire_string()) {
        let line = encode_response(&Response::Error { id, message: message.clone() });
        match parse_response(&line) {
            Ok(Response::Error { id: back_id, message: back }) => {
                prop_assert_eq!(back_id, id);
                prop_assert_eq!(back, message);
            }
            other => prop_assert!(false, "round trip failed: {:?} for {}", other, line),
        }
    }

    #[test]
    fn escaped_strings_survive_the_writer_and_the_parser(
        key in escape_heavy_string(),
        value in escape_heavy_string(),
    ) {
        // Strings with nothing to escape come back borrowed from the line,
        // the others decoded into owned copies: both paths must round-trip.
        let line = ObjectBuilder::new().str(&key, &value).finish();
        match parse_object(&line) {
            Ok(object) => {
                prop_assert_eq!(object.get(&key).and_then(Value::as_str), Some(value.as_str()));
            }
            Err(e) => prop_assert!(false, "`{}` did not parse: {}", line, e),
        }
    }

    #[test]
    fn arbitrary_junk_never_panics_the_parsers(line in wire_string()) {
        // Any outcome is fine; panicking or hanging is not.
        let _ = parse_request(&line);
        let _ = parse_response(&line);
        let _ = best_effort_id(&line);
    }

    #[test]
    fn truncated_frames_are_clean_errors(
        spec in solve_spec(),
        keep_fraction in 0.0f64..1.0,
    ) {
        let line = encode_request(&Request::Solve { id: 3, spec });
        let keep = ((line.chars().count() as f64) * keep_fraction) as usize;
        let truncated: String = line.chars().take(keep).collect();
        if truncated.len() < line.len() {
            prop_assert!(parse_request(&truncated).is_err(), "truncated `{}` parsed", truncated);
        }
        let _ = best_effort_id(&truncated);
    }
}

#[test]
fn control_frames_round_trip() {
    for request in [Request::Stats { id: 1 }, Request::Ping { id: 2 }, Request::Shutdown { id: 3 }]
    {
        assert_eq!(parse_request(&encode_request(&request)).unwrap(), request);
    }
    for response in [
        Response::Pong { id: 4 },
        Response::ShuttingDown { id: 5 },
        Response::Stats { id: 6, shards: 4, detail: "shard 0: …\nshard 1: …".to_string() },
    ] {
        let line = encode_response(&response);
        let back = parse_response(&line).unwrap();
        assert_eq!(back.id(), response.id(), "{line}");
    }
}
