//! Property tests for the JSON parser, which reads sweep reports from
//! outside the process (`hvcsim table`): arbitrary bytes and deep
//! nesting are errors, never panics or stack overflows, and every value
//! the serializer writes parses back to itself.

use hvc_runner::json::{parse, Value, MAX_DEPTH};
use proptest::prelude::*;

/// Syntax fragments, so cases reach the string, escape, number and
/// container branches rather than failing on the first byte.
const FRAGMENTS: &[&str] = &[
    "[", "]", "{", "}", ",", ":", "\"", "\"k\"", "\\", "\\u", "\\ud800", "\\u00e9", "\\x", "null",
    "nul", "true", "false", "0", "-", "-0", "1.", ".5", "1e", "1e+", "1e999", " ", "\n", "é",
];

/// Strings of characters the serializer escapes, non-ASCII ones, and
/// any other scalar value.
fn json_string() -> impl Strategy<Value = String> {
    let c = prop_oneof![
        prop::sample::select(vec!['"', '\\', '\n', '\t', '\u{0}', '\u{1f}', 'é', '𝄞']),
        any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}')),
    ];
    prop::collection::vec(c, 0..8).prop_map(|cs| cs.into_iter().collect())
}

/// A value tree built by a stack program: each step pushes a leaf or
/// wraps up to three of the newest values into an array or an object,
/// and what is left becomes a top-level array. Floats are finite (the
/// serializer writes the others as `null`); some are whole numbers.
fn json_value() -> impl Strategy<Value = Value> {
    let step = (
        0u8..10,
        any::<u64>(),
        -1e300f64..1e300,
        json_string(),
        0usize..4,
    );
    prop::collection::vec(step, 0..40).prop_map(|steps| {
        let mut stack = Vec::new();
        for (op, n, f, s, take) in steps {
            let value = match op {
                0 => Value::Null,
                1 => Value::Bool(n % 2 == 0),
                2 => Value::UInt(n),
                3 => Value::Float(f),
                4 => Value::Float(-f64::from(n as u32)),
                5 => Value::Str(s),
                _ => {
                    let items = stack.split_off(stack.len() - take.min(stack.len()));
                    if op < 8 {
                        Value::Array(items)
                    } else {
                        Value::Object(items.into_iter().map(|v| (s.clone(), v)).collect())
                    }
                }
            };
            stack.push(value);
        }
        Value::Array(stack)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn parse_never_panics_on_arbitrary_or_json_shaped_text(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        parts in prop::collection::vec(prop::sample::select(FRAGMENTS.to_vec()), 0..48),
    ) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
        let _ = parse(&parts.concat());
    }

    /// Arrays and objects nested to any depth parse up to `MAX_DEPTH`
    /// and are an error beyond it; any proper prefix is an error.
    #[test]
    fn nesting_is_accepted_up_to_the_bound_and_rejected_beyond(
        arrays in prop::collection::vec(any::<bool>(), 0..(3 * MAX_DEPTH)),
        cut in any::<usize>(),
    ) {
        let open: String = arrays.iter().map(|&a| if a { "[" } else { "{\"k\":" }).collect();
        let close: String = arrays.iter().rev().map(|&a| if a { ']' } else { '}' }).collect();
        let text = format!("{open}0{close}");
        prop_assert_eq!(parse(&text).is_ok(), arrays.len() <= MAX_DEPTH);
        prop_assert!(parse(&text[..cut % text.len()]).is_err());
    }

    /// `parse` reads back exactly what `to_compact` and `to_pretty`
    /// write, and any proper prefix of the compact form is an error.
    #[test]
    fn serialized_values_parse_back_to_themselves(v in json_value(), cut in any::<usize>()) {
        let compact = v.to_compact();
        prop_assert_eq!(&parse(&compact).expect("compact form parses"), &v);
        prop_assert_eq!(&parse(&v.to_pretty()).expect("pretty form parses"), &v);
        let cut = (0..=cut % compact.len()).rev().find(|&i| compact.is_char_boundary(i));
        prop_assert!(parse(&compact[..cut.unwrap_or(0)]).is_err());
    }
}
