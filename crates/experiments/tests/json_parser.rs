//! The vendored JSON parser behind `repro --check-trace`, scenario files
//! and sweep ledgers: multi-byte text round-trips, malformed UTF-8 is a
//! typed error rather than a panic, and parse time is linear in the
//! length of a string.

use serde::Value;

#[test]
fn multi_byte_chars_round_trip() {
    let text = "héllo — 世界 🚦 \u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}";
    let json = serde_json::to_string(&text.to_string()).unwrap();
    let back: String = serde_json::from_str(&json).unwrap();
    assert_eq!(back, text);
    let doc = serde_json::from_slice_value(json.as_bytes()).unwrap();
    assert_eq!(doc, Value::Str(text.to_string()));
}

#[test]
fn invalid_utf8_inside_a_string_is_a_typed_error() {
    let cases: [&[u8]; 6] = [
        b"\"ab\xffcd\"",         // a byte that never starts a char
        b"\"ab\x80cd\"",         // a lone continuation byte
        b"\"ab\xc3(cd\"",        // a lead byte without its continuation
        b"\"ab\xed\xa0\x80cd\"", // an encoded surrogate
        b"\"ab\xf0\x9f\x9a\"",   // a four-byte char cut short by the quote
        b"\"ab\xe4\xb8",         // a char cut short by the end of input
    ];
    for bytes in cases {
        let err = serde_json::from_slice_value(bytes).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("invalid utf-8") || msg.contains("unterminated"),
            "{bytes:?}: {msg}"
        );
    }
    let err = serde_json::from_slice_value(b"\"ab\xffcd\"").unwrap_err();
    assert_eq!(err.to_string(), "invalid utf-8 at byte 3");
}

#[test]
fn multi_megabyte_string_parses_in_linear_time() {
    // 8 MiB of mixed one- to four-byte chars in one string. Re-validating
    // the rest of the buffer per char would take hours; a linear parse
    // takes well under a second even in a debug build.
    let unit = "abcdefgh é 世 🚦 ";
    let body = unit.repeat(8 * 1024 * 1024 / unit.len());
    let json = format!("{{\"s\":\"{body}\"}}");
    let started = std::time::Instant::now();
    let doc = serde_json::from_str_value(&json).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(doc.get("s"), Some(&Value::Str(body)));
    assert!(elapsed.as_secs_f64() < 20.0, "parse took {elapsed:?}");
}

/// A JSON `\u` escape of one UTF-16 code unit, given as four hex digits.
fn esc(hex: &str) -> String {
    format!("\\u{hex}")
}

#[test]
fn surrogate_pair_escape_decodes_to_one_char() {
    // U+1F6A6 spelled as a UTF-16 surrogate pair, next to BMP escapes:
    // each decodes to the char its raw UTF-8 spells.
    let json = format!(
        "[\"{}{}\", \"a{}{}b\"]",
        esc("d83d"),
        esc("dea6"),
        esc("00e9"),
        esc("4e16")
    );
    let doc = serde_json::from_str_value(&json).unwrap();
    assert_eq!(
        doc,
        Value::Array(vec![
            Value::Str("\u{1f6a6}".into()),
            Value::Str("a\u{e9}\u{4e16}b".into())
        ])
    );
}

#[test]
fn lone_surrogate_escapes_are_typed_errors() {
    let (high, low) = (esc("d83d"), esc("dea6"));
    let cases = [
        format!("\"{high}\""),                // a high half at the end of the string
        format!("\"{high}x\""),               // a high half followed by a plain char
        format!("\"{high}{}\"", esc("0041")), // a high half followed by a non-surrogate
        format!("\"{low}\""),                 // a low half on its own
        format!("\"{}", &high[..5]),          // an escape cut short by the end of input
    ];
    for json in &cases {
        let err = serde_json::from_str_value(json).unwrap_err();
        assert!(err.to_string().contains(" at byte "), "{json}: {err}");
    }
    let err = serde_json::from_str_value(&cases[2]).unwrap_err();
    assert_eq!(err.to_string(), "invalid low surrogate at byte 13");
}
