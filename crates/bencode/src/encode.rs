//! Canonical bencode encoding.

use crate::Value;

/// Appends the canonical encoding of `value` to `out`.
pub fn encode_into(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Bytes(b) => {
            push_usize(b.len(), out);
            out.push(b':');
            out.extend_from_slice(b);
        }
        Value::Int(i) => {
            out.push(b'i');
            out.extend_from_slice(i.to_string().as_bytes());
            out.push(b'e');
        }
        Value::List(items) => {
            out.push(b'l');
            for item in items {
                encode_into(item, out);
            }
            out.push(b'e');
        }
        Value::Dict(entries) => {
            out.push(b'd');
            // BTreeMap iteration order is the lexicographic key order the
            // bencode spec requires, so no sort is needed here.
            for (k, v) in entries {
                push_usize(k.len(), out);
                out.push(b':');
                out.extend_from_slice(k);
                encode_into(v, out);
            }
            out.push(b'e');
        }
    }
}

/// Returns the exact number of bytes [`encode_into`] will produce.
///
/// Used to pre-size buffers when encoding large announce responses.
pub fn encoded_len(value: &Value) -> usize {
    match value {
        Value::Bytes(b) => decimal_digits(b.len() as u64) + 1 + b.len(),
        Value::Int(i) => {
            let digits = decimal_digits(i.unsigned_abs()) + usize::from(*i < 0);
            2 + digits
        }
        Value::List(items) => 2 + items.iter().map(encoded_len).sum::<usize>(),
        Value::Dict(entries) => {
            2 + entries
                .iter()
                .map(|(k, v)| decimal_digits(k.len() as u64) + 1 + k.len() + encoded_len(v))
                .sum::<usize>()
        }
    }
}

fn push_usize(n: usize, out: &mut Vec<u8>) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut n = n;
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

fn decimal_digits(mut n: u64) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(v: &Value) -> Vec<u8> {
        v.encode()
    }

    #[test]
    fn encodes_strings() {
        assert_eq!(enc(&Value::from("spam")), b"4:spam");
        assert_eq!(enc(&Value::from("")), b"0:");
    }

    #[test]
    fn encodes_integers() {
        assert_eq!(enc(&Value::Int(42)), b"i42e");
        assert_eq!(enc(&Value::Int(0)), b"i0e");
        assert_eq!(enc(&Value::Int(-7)), b"i-7e");
        assert_eq!(enc(&Value::Int(i64::MIN)), b"i-9223372036854775808e");
        assert_eq!(enc(&Value::Int(i64::MAX)), b"i9223372036854775807e");
    }

    #[test]
    fn encodes_lists() {
        let v = Value::list([Value::from("spam"), Value::Int(42)]);
        assert_eq!(enc(&v), b"l4:spami42ee");
        assert_eq!(enc(&Value::list([])), b"le");
    }

    #[test]
    fn encodes_dicts_sorted() {
        let v = Value::dict([("spam", Value::from("eggs")), ("cow", Value::from("moo"))]);
        assert_eq!(enc(&v), b"d3:cow3:moo4:spam4:eggse");
        assert_eq!(enc(&Value::dict::<&str, _>([])), b"de");
    }

    #[test]
    fn encoded_len_matches_actual_length() {
        let samples = [
            Value::from(""),
            Value::from("x".repeat(1000)),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::list([Value::Int(1), Value::from("ab")]),
            Value::dict([("a", Value::Int(9)), ("bb", Value::list([]))]),
        ];
        for v in &samples {
            assert_eq!(encoded_len(v), enc(v).len(), "mismatch for {v:?}");
        }
    }

    #[test]
    fn binary_keys_encode_raw() {
        let v = Value::Dict([(vec![0xff, 0x00], Value::Int(1))].into_iter().collect());
        assert_eq!(enc(&v), b"d2:\xff\x00i1ee");
    }

    #[test]
    fn nested_structures_roundtrip_by_length() {
        let v = Value::dict([(
            "info",
            Value::dict([
                ("pieces", Value::Bytes(vec![0u8; 40])),
                (
                    "files",
                    Value::list([Value::dict([("length", Value::Int(5))])]),
                ),
            ]),
        )]);
        assert_eq!(encoded_len(&v), enc(&v).len());
    }
}
