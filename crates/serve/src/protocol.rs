//! The wire protocol: one JSON object per line (jsonl), hand-rolled in
//! both directions against a fixed schema.
//!
//! A submission line looks like
//!
//! ```text
//! {"id": 7, "arrival": 1200, "work": 35}
//! {"id": 8, "arrival": 1260, "work": 90, "poison": true}
//! ```
//!
//! `id` is the client-chosen idempotency key: re-sending a line with an id
//! the service has already admitted or completed is a no-op (counted, never
//! double-executed). `arrival` is the submission's virtual-time stamp in
//! ticks and must be non-decreasing within a stream — the admission ledger
//! clamps regressions and counts them. `work` is the job's service demand
//! in work units. `poison` is a chaos hook: the worker that picks the job
//! up dies mid-execution without acknowledging it (the job is re-admitted
//! with the poison stripped, so it still completes exactly once).
//!
//! The parser reads the object's top-level members in one pass and
//! allocates nothing on a good line. It accepts exactly:
//!
//! * a line that, trimmed, is `{` … `}`, holding `"key": value` members
//!   separated by commas outside strings and brackets (no trailing comma),
//!   with any whitespace around keys, colons and values;
//! * only top-level keys count, compared byte for byte with the four
//!   above — a key nested in another field's value, or spelt with escapes,
//!   is not one of them;
//! * `id`, `arrival` and `work` are required, and each value is ASCII
//!   digits fitting a `u64`; `poison` is `true` or `false` and defaults to
//!   `false`. The value is everything up to the next member or the closing
//!   `}`, so `3.5`, `3e2`, `-3`, `"3"` and `trueish` are errors, and so is
//!   a known key given twice;
//! * any other key is skipped with its value, which must be non-empty with
//!   its strings (escapes honoured) and brackets closed — so a field of any
//!   JSON type passes, and new optional fields never break old readers.
//!
//! Any other line is a [`ParseError`], which the ingest layer counts and
//! skips — a malformed line must never take down the service.

use parflow_time::{Ticks, Work};

/// One job submission, decoded from a jsonl line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Submission {
    /// Client-chosen idempotency key.
    pub id: u64,
    /// Virtual arrival time in ticks (non-decreasing within a stream).
    pub arrival: Ticks,
    /// Service demand in work units.
    pub work: Work,
    /// Chaos hook: kill the executing worker mid-job (first attempt only).
    pub poison: bool,
}

impl Submission {
    /// Serialize as one jsonl line (no trailing newline). Round-trips
    /// through [`parse_submission`]; `poison` is emitted only when set so
    /// ordinary traffic stays minimal.
    pub fn to_jsonl(&self) -> String {
        if self.poison {
            format!(
                "{{\"id\": {}, \"arrival\": {}, \"work\": {}, \"poison\": true}}",
                self.id, self.arrival, self.work
            )
        } else {
            format!(
                "{{\"id\": {}, \"arrival\": {}, \"work\": {}}}",
                self.id, self.arrival, self.work
            )
        }
    }
}

/// Why a line failed to decode (message is user-facing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad submission line: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn bad(what: &str) -> ParseError {
    ParseError(what.into())
}

/// The known keys, in [`Submission`] field order (`poison` held as 0 / 1).
const KEYS: [&str; 4] = ["id", "arrival", "work", "poison"];

/// Split `s` at its first `delim` outside strings (escapes honoured) and
/// brackets: `(before, after)`, `after` being `None` when there is no such
/// `delim`. `None` when a string or bracket of `s` never closes.
fn split_top(s: &[u8], delim: u8) -> Option<(&[u8], Option<&[u8]>)> {
    let (mut depth, mut quoted, mut escaped) = (0usize, false, false);
    for (i, &b) in s.iter().enumerate() {
        if quoted {
            quoted = escaped || b != b'"';
            escaped = !escaped && b == b'\\';
        } else if b == delim && depth == 0 {
            let (before, after) = s.split_at(i);
            return Some((before, after.get(1..)));
        } else if b == b'"' {
            quoted = true;
        } else if b == b'{' || b == b'[' {
            depth += 1;
        } else if b == b'}' || b == b']' {
            depth = depth.checked_sub(1)?;
        }
    }
    (depth == 0 && !quoted).then_some((s, None))
}

/// ASCII digits only (no sign, fraction or exponent), fitting a `u64`.
fn whole_number(value: &[u8]) -> Option<u64> {
    let digit = |n: u64, &d: &u8| {
        let d = d.is_ascii_digit().then(|| u64::from(d - b'0'))?;
        n.checked_mul(10)?.checked_add(d)
    };
    value.first()?;
    value.iter().try_fold(0, digit)
}

/// Decode one jsonl line in one pass over its top-level `"key": value`
/// members; see the module docs for the acceptance rules. Allocates only
/// to report an error.
pub fn parse_submission(line: &str) -> Result<Submission, ParseError> {
    let object = line.trim().as_bytes().strip_prefix(b"{");
    let members = object.and_then(|o| o.strip_suffix(b"}"));
    let members = members.ok_or_else(|| bad("expected a JSON object"))?;
    let named = |what: &str, key: &str| ParseError(format!("{what} \"{key}\""));
    let mut fields = [None; 4];
    let mut rest = Some(members).filter(|m| !m.trim_ascii().is_empty());
    while let Some(members) = rest {
        let split = split_top(members, b',');
        let (member, tail) = split.ok_or_else(|| bad("unbalanced string or bracket"))?;
        rest = tail;
        let Some((key, Some(value))) = split_top(member, b':') else {
            return Err(bad("expected \"key\": value"));
        };
        let key = key.trim_ascii().strip_prefix(b"\"");
        let key = key.and_then(|k| k.strip_suffix(b"\""));
        let key = key.ok_or_else(|| bad("expected a \"key\""))?;
        let value = value.trim_ascii();
        let mut known = KEYS.iter().zip(&mut fields);
        let Some((&key, slot)) = known.find(|(k, _)| k.as_bytes() == key) else {
            // An unknown key: its value is skipped, whatever its type.
            if value.is_empty() {
                return Err(bad("expected a value"));
            }
            continue;
        };
        let parsed = match (key, value) {
            ("poison", b"true") => Some(1),
            ("poison", b"false") => Some(0),
            ("poison", _) => None,
            _ => whole_number(value),
        };
        match (slot.is_some(), parsed) {
            (false, Some(v)) => *slot = Some(v),
            (true, _) => return Err(named("repeated", key)),
            (false, None) => return Err(named("missing or bad", key)),
        }
    }
    let [id, arrival, work, poison] = fields;
    let need = |v: Option<u64>, key| v.ok_or_else(|| named("missing or bad", key));
    Ok(Submission {
        id: need(id, "id")?,
        arrival: need(arrival, "arrival")?,
        work: need(work, "work")?,
        poison: poison == Some(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for sub in [
            Submission {
                id: 0,
                arrival: 0,
                work: 1,
                poison: false,
            },
            Submission {
                id: u64::MAX,
                arrival: 123_456,
                work: 99,
                poison: true,
            },
        ] {
            assert_eq!(parse_submission(&sub.to_jsonl()), Ok(sub));
        }
    }

    #[test]
    fn tolerant_of_whitespace_order_and_unknown_fields() {
        let line = r#"  { "work":5 ,"future_field": [1,2], "arrival" : 10, "id": 3 }  "#;
        assert_eq!(
            parse_submission(line),
            Ok(Submission {
                id: 3,
                arrival: 10,
                work: 5,
                poison: false,
            })
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"id": 1, "arrival": 2}"#,
            r#"{"id": -1, "arrival": 2, "work": 3}"#,
            r#"{"id": "x", "arrival": 2, "work": 3}"#,
        ] {
            assert!(parse_submission(bad).is_err(), "accepted: {bad:?}");
        }
    }

    const WANT: Submission = Submission {
        id: 1,
        arrival: 2,
        work: 3,
        poison: false,
    };

    #[test]
    fn a_string_value_equal_to_a_key_is_not_that_key() {
        let line = r#"{"tag": "work", "id": 1, "arrival": 2, "work": 3}"#;
        assert_eq!(parse_submission(line), Ok(WANT));
    }

    #[test]
    fn only_top_level_keys_count() {
        for line in [
            r#"{"meta": {"id": 9}, "id": 1, "arrival": 2, "work": 3}"#,
            r#"{"id": 1, "meta": [{"id": 9, "work": [4]}], "arrival": 2, "work": 3}"#,
            r#"{"note": "\"id\": 9, {", "id": 1, "arrival": 2, "work": 3}"#,
        ] {
            assert_eq!(parse_submission(line), Ok(WANT), "{line}");
        }
    }

    #[test]
    fn unknown_fields_of_every_type_are_skipped() {
        let line = r#"{"s": "a\\\"b}", "n": -1.5e3, "t": true, "f": false, "z": null,
                       "o": {}, "a": [], "deep": {"x": [1, {"y": "]"}]},
                       "id": 1, "arrival": 2, "work": 3}"#;
        assert_eq!(parse_submission(&line.replace('\n', " ")), Ok(WANT));
    }

    #[test]
    fn numbers_must_be_whole_and_end_at_a_delimiter() {
        for work in [
            "3.5",
            "3e2",
            "3E2",
            "-3",
            "+3",
            "3x",
            "\"3\"",
            "18446744073709551616",
        ] {
            let line = format!(r#"{{"id": 1, "arrival": 2, "work": {work}}}"#);
            assert_eq!(
                parse_submission(&line),
                Err(ParseError("missing or bad \"work\"".into())),
                "{line}"
            );
        }
        let max = format!(r#"{{"id": {}, "arrival": 2, "work": 3}}"#, u64::MAX);
        assert_eq!(parse_submission(&max).map(|s| s.id), Ok(u64::MAX));
    }

    #[test]
    fn poison_must_be_a_boolean() {
        for value in ["trueish", "1", "\"true\"", "null", "True"] {
            let line = format!(r#"{{"id": 1, "arrival": 2, "work": 3, "poison": {value}}}"#);
            assert!(parse_submission(&line).is_err(), "{line}");
        }
    }

    #[test]
    fn a_repeated_known_key_is_an_error() {
        let line = r#"{"id": 1, "arrival": 2, "work": 3, "id": 4}"#;
        assert_eq!(
            parse_submission(line),
            Err(ParseError("repeated \"id\"".into()))
        );
        // Unknown keys may repeat.
        let line = r#"{"x": 1, "id": 1, "x": 2, "arrival": 2, "work": 3}"#;
        assert_eq!(parse_submission(line), Ok(WANT));
    }

    #[test]
    fn rejects_broken_structure() {
        for bad in [
            r#"{"id": 1, "arrival": 2, "work": 3,}"#,
            r#"{"id": 1 "arrival": 2, "work": 3}"#,
            r#"{"id" 1, "arrival": 2, "work": 3}"#,
            r#"{id: 1, "arrival": 2, "work": 3}"#,
            r#"{"id": 1, "arrival": 2, "work": 3}}"#,
            r#"{"x": {"y": 1, "id": 1, "arrival": 2, "work": 3}"#,
            r#"{"x": "open, "id": 1, "arrival": 2, "work": 3}"#,
            r#"{"x": , "id": 1, "arrival": 2, "work": 3}"#,
            r#"{, "id": 1, "arrival": 2, "work": 3}"#,
        ] {
            assert!(parse_submission(bad).is_err(), "accepted: {bad}");
        }
    }

    proptest::proptest! {
        #[test]
        fn to_jsonl_round_trips(
            id in proptest::prelude::any::<u64>(),
            arrival in proptest::prelude::any::<u64>(),
            work in proptest::prelude::any::<u64>(),
            poison in proptest::prelude::any::<bool>()
        ) {
            let sub = Submission { id, arrival, work, poison };
            proptest::prop_assert_eq!(parse_submission(&sub.to_jsonl()), Ok(sub));
        }
    }

    #[test]
    fn poison_variants() {
        assert!(
            !parse_submission(r#"{"id":1,"arrival":2,"work":3,"poison":false}"#)
                .map(|s| s.poison)
                .unwrap_or(true)
        );
        assert!(
            parse_submission(r#"{"id":1,"arrival":2,"work":3,"poison": true}"#)
                .map(|s| s.poison)
                .unwrap_or(false)
        );
    }
}
