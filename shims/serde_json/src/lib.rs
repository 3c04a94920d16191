//! Offline shim for the subset of `serde_json` used by this workspace:
//! [`to_string`], [`from_str`] and [`from_str_value`].
//!
//! Both directions live in the `serde` shim, on the text itself: its
//! [`Serialize`] appends compact JSON to a `String` (its crate docs give
//! the number and string formatting), and its byte-indexed [`Parser`]
//! walks the input by index — numbers are classified where they stand,
//! the unescaped runs of a string are borrowed or copied as slices. This
//! crate holds the entry points. [`from_str`] decodes a type straight off
//! the parser through [`Deserialize::read_json`]; no [`Value`] tree is
//! built. [`from_str_value`] builds that tree, for readers that have no
//! type to decode into.
//!
//! Input is untrusted (ingest lines, history payloads, event files):
//! every malformed document is an [`Error`] naming the byte position (and,
//! for a typed decode, the path of keys and indices to the failing value),
//! and arrays and objects may nest at most [`MAX_DEPTH`] deep, so no input
//! can exhaust the stack.

use serde::{Deserialize, Parser, Serialize, Value};
pub use serde::{Error, MAX_DEPTH};

#[cfg(test)]
mod reference;

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Decodes a JSON document into any `Deserialize` type.
///
/// A document that is not JSON is reported as such, wherever its fault
/// lies: when decoding stops early at a value of the wrong shape, the rest
/// of the document is still checked, and its first syntax error (or
/// nesting past [`MAX_DEPTH`]) is the error returned.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    let mut parser = Parser::new(input);
    let decoded = T::read_json(&mut parser).and_then(|value| {
        parser.finish()?;
        Ok(value)
    });
    decoded.map_err(|err| match check_syntax(input) {
        Err(syntax) if syntax.byte() != err.byte() => syntax,
        _ => err,
    })
}

/// Checks that `input` is one JSON document, building nothing.
fn check_syntax(input: &str) -> Result<(), Error> {
    let mut parser = Parser::new(input);
    parser.skip()?;
    parser.finish()
}

/// Parses a JSON document into a raw [`Value`] tree.
pub fn from_str_value(input: &str) -> Result<Value, Error> {
    let mut parser = Parser::new(input);
    let value = parser.value()?;
    parser.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&5u32).unwrap(), "5");
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&600.0f64).unwrap(), "600.0");
        assert_eq!(from_str::<u32>("5").unwrap(), 5);
        assert_eq!(from_str::<f64>("600.0").unwrap(), 600.0);
        assert!(from_str::<bool>("true").unwrap());
    }

    #[test]
    fn infinities_round_trip() {
        let json = to_string(&f64::INFINITY).unwrap();
        assert_eq!(from_str::<f64>(&json).unwrap(), f64::INFINITY);
        let json = to_string(&f64::NEG_INFINITY).unwrap();
        assert_eq!(from_str::<f64>(&json).unwrap(), f64::NEG_INFINITY);
    }

    #[test]
    fn strings_escape_and_parse() {
        let original = "line\n\"quoted\"\tünïcode \\ end".to_string();
        let json = to_string(&original).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), original);
        assert_eq!(from_str::<String>(r#""A😀""#).unwrap(), "A😀");
    }

    #[test]
    fn vectors_and_tuples_round_trip() {
        let xs: Vec<(u64, f64)> = vec![(1, 0.5), (2, 1.25)];
        let json = to_string(&xs).unwrap();
        assert_eq!(from_str::<Vec<(u64, f64)>>(&json).unwrap(), xs);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v: Vec<u32> = from_str(" [ 1 , 2 ,\n 3 ] ").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        assert!(from_str::<u32>("5 x").is_err());
        assert!(from_str::<Vec<u32>>("[1,]").is_err());
    }

    #[test]
    fn errors_name_the_byte_and_what_stands_there() {
        let err = |input: &str| from_str_value(input).unwrap_err().to_string();
        assert_eq!(
            err("[1 2]"),
            "expected `,` or `]` in array, found `2` at byte 3"
        );
        assert_eq!(err("{\"a\" 1}"), "expected `:`, found `1` at byte 5");
        assert_eq!(
            err("{\"a\":1"),
            "expected `,` or `}` in object, found end of input at byte 6"
        );
        assert_eq!(err("[é]"), "unexpected character `é` at byte 1");
        assert_eq!(err("\"\\x\""), "invalid escape `x` at byte 2");
        assert_eq!(err("[1, -]"), "invalid number `-` at byte 4");
        assert_eq!(err("nul"), "invalid literal `nul` at byte 0");
        assert_eq!(err("\"abc"), "unterminated string at byte 4");
        assert_eq!(err(""), "unexpected end of input at byte 0");
        assert_eq!(err("1 1"), "trailing characters after JSON value at byte 2");
    }

    #[test]
    fn nesting_is_bounded_and_the_bound_is_an_ordinary_error() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let at_limit = if open == "[" {
                nest(open, close, MAX_DEPTH)
            } else {
                nest(open, close, MAX_DEPTH - 1).replace(":}", ":[]}")
            };
            assert!(from_str_value(&at_limit).is_ok(), "{at_limit}");
        }
        let err = from_str_value(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "nesting deeper than 128 levels at byte 128"
        );
        // What used to overflow the stack: unclosed, mixed, and very deep.
        for hostile in ["[".repeat(100_000), "{\"a\":[".repeat(100_000)] {
            let err = from_str_value(&hostile).unwrap_err().to_string();
            assert!(err.starts_with("nesting deeper than 128 levels"), "{err}");
        }
        // Depth is nesting, not a count of containers.
        assert!(from_str_value(&format!("[{}[]]", "[],".repeat(1_000))).is_ok());
    }

    // ---- the writer against the `Value`-tree writer it replaced ----------

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Unit;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Newtype(u32);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Pair(i64, String);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Empty {}

    fn seven() -> u8 {
        7
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Named {
        id: u64,
        name: String,
        opt: Option<f64>,
        boxed: Box<Newtype>,
        nested: Vec<Vec<Pair>>,
        tuple: (u8, bool),
        array: [i16; 3],
        unit: Unit,
        #[serde(default)]
        extra: u32,
        #[serde(default = "seven")]
        seven: u8,
    }

    /// The integer-array shapes a checkpoint is made of.
    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Indices {
        replicas: Vec<Vec<usize>>,
        triple: [i32; 3],
        bytes: Option<Vec<u8>>,
        absent: Option<Vec<u8>>,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Dot,
        Circle(f64),
        Segment(i8, String),
        Group {
            label: char,
            inner: Option<Box<Shape>>,
        },
    }

    fn u(x: u64) -> Value {
        Value::U64(x)
    }

    /// The tree the reference writer renders an integer array from.
    fn ints<T: Copy>(items: &[T]) -> Value
    where
        i128: TryFrom<T>,
    {
        let item = |x: T| match i128::try_from(x).ok().unwrap() {
            x if x >= 0 => u(u64::try_from(x).unwrap()),
            x => Value::I64(i64::try_from(x).unwrap()),
        };
        Value::Array(items.iter().map(|&x| item(x)).collect())
    }

    fn s(x: &str) -> Value {
        Value::Str(x.to_string())
    }

    fn object(fields: &[(&str, Value)]) -> Value {
        Value::Object(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    /// `x` serializes to exactly the bytes the reference writer renders
    /// for `tree` — the `Value` the old `Serialize` lowered `x` to — the
    /// tree writes itself the same way, and the bytes parse back to both.
    fn same_bytes<T: Serialize + Deserialize + PartialEq + Debug>(x: &T, tree: Value) -> String {
        let json = to_string(x).unwrap();
        let mut reference = String::new();
        reference::write_value(&tree, &mut reference);
        assert_eq!(json, reference, "{x:?}");
        assert_eq!(to_string(&tree).unwrap(), reference, "{tree:?}");
        assert_eq!(from_str_value(&json).unwrap(), tree, "{json}");
        assert_eq!(&from_str::<T>(&json).unwrap(), x, "{json}");
        json
    }

    #[test]
    fn every_derive_shape_writes_the_reference_bytes() {
        assert_eq!(same_bytes(&Unit, Value::Null), "null");
        assert_eq!(same_bytes(&Newtype(9), u(9)), "9");
        same_bytes(
            &Pair(-4, "x".into()),
            Value::Array(vec![Value::I64(-4), s("x")]),
        );
        assert_eq!(same_bytes(&Empty {}, object(&[])), "{}");
        let named = Named {
            id: u64::MAX,
            name: "quo\"te".into(),
            opt: None,
            boxed: Box::new(Newtype(1)),
            nested: vec![
                vec![],
                vec![Pair(0, String::new()), Pair(i64::MIN, "é".into())],
            ],
            tuple: (255, false),
            array: [-1, 0, 1],
            unit: Unit,
            extra: 3,
            seven: 8,
        };
        let pair = |a: Value, b: &str| Value::Array(vec![a, s(b)]);
        let json = same_bytes(
            &named,
            object(&[
                ("id", u(u64::MAX)),
                ("name", s("quo\"te")),
                ("opt", Value::Null),
                ("boxed", u(1)),
                (
                    "nested",
                    Value::Array(vec![
                        Value::Array(vec![]),
                        Value::Array(vec![pair(u(0), ""), pair(Value::I64(i64::MIN), "é")]),
                    ]),
                ),
                ("tuple", Value::Array(vec![u(255), Value::Bool(false)])),
                ("array", Value::Array(vec![Value::I64(-1), u(0), u(1)])),
                ("unit", Value::Null),
                ("extra", u(3)),
                ("seven", u(8)),
            ]),
        );
        assert!(
            json.starts_with("{\"id\":18446744073709551615,\"name\":\"quo\\\"te\",\"opt\":null,")
        );
        // A missing `#[serde(default)]` key takes its default, a missing
        // `Option` reads as `None`; any other missing key is an error.
        let sparse = json
            .replace(",\"extra\":3,\"seven\":8", "")
            .replace("\"opt\":null,", "");
        let back: Named = from_str(&sparse).unwrap();
        assert_eq!((back.extra, back.seven, back.opt), (0, 7, None));
        assert!(from_str::<Named>(&sparse.replace("\"id\":18446744073709551615,", "")).is_err());

        same_bytes(&Shape::Dot, s("Dot"));
        same_bytes(&Shape::Circle(0.5), object(&[("Circle", Value::F64(0.5))]));
        same_bytes(
            &Shape::Segment(-3, "ab".into()),
            object(&[("Segment", Value::Array(vec![Value::I64(-3), s("ab")]))]),
        );
        let group =
            |inner: Value| object(&[("Group", object(&[("label", s("→")), ("inner", inner)]))]);
        same_bytes(
            &Shape::Group {
                label: '→',
                inner: Some(Box::new(Shape::Group {
                    label: '→',
                    inner: Some(Box::new(Shape::Dot)),
                })),
            },
            group(group(s("Dot"))),
        );
        same_bytes(
            &Shape::Group {
                label: '→',
                inner: None,
            },
            group(Value::Null),
        );
        same_bytes(
            &vec![Some(Shape::Dot), None],
            Value::Array(vec![s("Dot"), Value::Null]),
        );

        // Integer arrays inside other shapes go through the chunked writer.
        let long: Vec<usize> = (0..2_500).map(|i| i * 7_919).collect();
        let replicas = vec![vec![], vec![0, usize::MAX], long.clone()];
        let replicas_tree = Value::Array(vec![ints::<usize>(&[]), ints(&replicas[1]), ints(&long)]);
        same_bytes(&replicas, replicas_tree.clone());
        let triple = [i32::MIN, -1, i32::MAX];
        assert_eq!(
            same_bytes(&triple, ints(&triple)),
            "[-2147483648,-1,2147483647]"
        );
        same_bytes(&Some(vec![0u8, 9, 10, 255]), ints(&[0u8, 9, 10, 255]));
        same_bytes(&None::<Vec<u8>>, Value::Null);
        let indices = Indices {
            replicas,
            triple,
            bytes: Some(vec![7, 0, 255]),
            absent: None,
        };
        same_bytes(
            &indices,
            object(&[
                ("replicas", replicas_tree),
                ("triple", ints(&triple)),
                ("bytes", ints(&[7u8, 0, 255])),
                ("absent", Value::Null),
            ]),
        );
    }

    /// Every integer that sits on an edge of some width: zero, ±1, each
    /// width's `MIN` and `MAX`, and both sides of every digit-count
    /// boundary up to 10¹⁹, negated too.
    fn integer_edges() -> Vec<i128> {
        let mut edges = vec![0, 1, -1];
        for k in 1..=19 {
            let power = 10i128.pow(k);
            edges.extend([power - 1, power, 1 - power, -power]);
        }
        for (min, max) in [
            (i128::from(i8::MIN), i128::from(u8::MAX)),
            (i128::from(i16::MIN), i128::from(u16::MAX)),
            (i128::from(i32::MIN), i128::from(u32::MAX)),
            (i128::from(i64::MIN), i128::from(u64::MAX)),
        ] {
            edges.extend([min, min + 1, max / 2, max / 2 + 1, max - 1, max]);
        }
        edges
    }

    /// Sequences of one integer width against the reference bytes: empty,
    /// each edge alone, all edges in one array, and a run long enough
    /// that several chunk flushes fall mid-array.
    fn integer_sequences_write_the_reference_bytes<T>()
    where
        T: Copy + TryFrom<i128> + Serialize + Deserialize + PartialEq + Debug,
        i128: TryFrom<T>,
    {
        let edges: Vec<T> = integer_edges()
            .into_iter()
            .filter_map(|x| T::try_from(x).ok())
            .collect();
        assert_eq!(same_bytes(&Vec::<T>::new(), ints::<T>(&[])), "[]");
        for &x in &edges {
            let one = same_bytes(&vec![x], ints(&[x]));
            assert_eq!(one, format!("[{}]", to_string(&x).unwrap()));
        }
        same_bytes(&edges, ints(&edges));
        let long: Vec<T> = edges.iter().copied().cycle().take(4_001).collect();
        let json = same_bytes(&long, ints(&long));
        assert!(json.len() > 2 * 4_096, "{} bytes", json.len());
        // A slice writes as the `Vec` it was cut from.
        assert_eq!(to_string(&long[..]).unwrap(), json);
    }

    #[test]
    fn scalar_edge_cases_write_the_reference_bytes() {
        for x in [
            0,
            1,
            9,
            10,
            99,
            100,
            12_345,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            same_bytes(&x, u(x));
        }
        for x in [
            0,
            1,
            -1,
            -9,
            -10,
            127,
            i64::from(i32::MIN),
            i64::MAX,
            i64::MIN + 1,
            i64::MIN,
        ] {
            let tree = u64::try_from(x).map_or(Value::I64(x), u);
            same_bytes(&x, tree);
        }
        same_bytes(&u8::MAX, u(255));
        same_bytes(&i8::MIN, Value::I64(-128));
        same_bytes(&usize::MAX, u(usize::MAX as u64));
        let floats = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.1,
            1e-7,
            5e-324,
            f64::MIN_POSITIVE,
            1e15,
            1e16,
            1e21,
            123_456_789.125,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for x in floats {
            let json = same_bytes(&x, Value::F64(x));
            // `-0.0 == 0.0`: the sign has to survive too.
            assert_eq!(
                from_str::<f64>(&json).unwrap().to_bits(),
                x.to_bits(),
                "{json}"
            );
        }
        assert_eq!(to_string(&-0.0f64).unwrap(), "-0.0");
        assert_eq!(to_string(&5e-324f64).unwrap(), "5e-324");
        assert_eq!(to_string(&1e21f64).unwrap(), "1e21");
        same_bytes(&1.5f32, Value::F64(1.5));
        // NaN has no JSON form and is not equal to itself: bytes only.
        let mut reference = String::new();
        reference::write_value(&Value::F64(f64::NAN), &mut reference);
        assert_eq!(to_string(&f64::NAN).unwrap(), reference);
        assert_eq!(reference, "null");
        same_bytes(&true, Value::Bool(true));
        same_bytes(&false, Value::Bool(false));

        integer_sequences_write_the_reference_bytes::<u8>();
        integer_sequences_write_the_reference_bytes::<u16>();
        integer_sequences_write_the_reference_bytes::<u32>();
        integer_sequences_write_the_reference_bytes::<u64>();
        integer_sequences_write_the_reference_bytes::<usize>();
        integer_sequences_write_the_reference_bytes::<i8>();
        integer_sequences_write_the_reference_bytes::<i16>();
        integer_sequences_write_the_reference_bytes::<i32>();
        integer_sequences_write_the_reference_bytes::<i64>();
        integer_sequences_write_the_reference_bytes::<isize>();
    }

    #[test]
    fn every_string_escape_writes_the_reference_bytes() {
        // Each ASCII character alone and flanked, then all of them at once:
        // the named escapes, `\u00XX` for the other controls, DEL as itself.
        let mut all = String::new();
        for c in (0u8..=0x7f).map(char::from) {
            same_bytes(&c, s(&c.to_string()));
            same_bytes(&format!("a{c}é{c}"), s(&format!("a{c}é{c}")));
            all.push(c);
        }
        let json = same_bytes(&all, s(&all));
        assert!(json.contains("\\u001f"), "{json}");
        assert!(json.contains("\\b\\t\\n\\u000b\\f\\r"), "{json}");
        for text in [
            "",
            "é",
            "→😀",
            "日本語\u{7f}\u{80}\u{10ffff}",
            "\\\\\"\"",
            "tail\\",
        ] {
            same_bytes(&text.to_string(), s(text));
        }
        assert_eq!(to_string("a\u{1f}b").unwrap(), "\"a\\u001fb\"");
        // Keys take the same path as values.
        let keyed = object(&[("k\n\"", u(1))]);
        let mut reference = String::new();
        reference::write_value(&keyed, &mut reference);
        assert_eq!(to_string(&keyed).unwrap(), reference);
        assert_eq!(from_str_value(&reference).unwrap(), keyed);
    }

    // ---- the parser against the parser it replaced -----------------------

    /// SplitMix64: the tests need a reproducible stream, not a dependency.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    /// Same verdict, and on success the same tree. Inputs stay far below
    /// `MAX_DEPTH` levels, the one place the two parsers differ by design
    /// (and where the reference would overflow the stack).
    fn parsers_agree(input: &str) {
        match (reference::parse(input), from_str_value(input)) {
            (Ok(old), Ok(new)) => assert_eq!(old, new, "{input:?}"),
            (Err(_), Err(_)) => {}
            (old, new) => panic!("{input:?}: reference {old:?}, parser {new:?}"),
        }
    }

    const FRAGMENTS: &[&str] = &[
        "[",
        "]",
        "{",
        "}",
        ",",
        ":",
        "\"",
        "\\",
        " ",
        "\n",
        "\t",
        "\r",
        "-",
        "+",
        ".",
        "e",
        "E",
        "0",
        "1",
        "9",
        "00",
        "1.5",
        "-0",
        "1e999",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "-9223372036854775809",
        "null",
        "true",
        "false",
        "nul",
        "\"a\"",
        "\"k\":",
        "\\u00e9",
        "\\ud83d\\ude00",
        "\\ud83d",
        "\\udc00",
        "\\u12",
        "\\n",
        "\\/",
        "\\x",
        "é",
        "😀",
        "\u{0}",
        "\u{1f}",
        "a",
        "u",
        "/",
    ];

    #[test]
    fn parser_matches_the_reference_on_soup() {
        let mut rng = Mix(1);
        for _ in 0..20_000 {
            let len = rng.below(24);
            let soup: String = (0..len).map(|_| rng.pick(FRAGMENTS)).collect();
            parsers_agree(&soup);
        }
        for _ in 0..5_000 {
            let len = rng.below(96);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            parsers_agree(&String::from_utf8_lossy(&bytes));
        }
    }

    fn random_tree(rng: &mut Mix, depth: usize) -> Value {
        let scalars = 6;
        match rng.below(if depth == 0 { scalars } else { scalars + 2 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 0),
            2 => Value::U64(rng.next() >> rng.below(64)),
            3 => Value::I64(-((rng.next() >> (1 + rng.below(63))) as i64) - 1),
            4 => Value::F64(f64::from_bits(rng.next())),
            5 => Value::Str((0..rng.below(6)).map(|_| rng.pick(FRAGMENTS)).collect()),
            6 => Value::Array(
                (0..rng.below(4))
                    .map(|_| random_tree(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.below(4))
                    .map(|_| (rng.pick(FRAGMENTS).to_string(), random_tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn parser_matches_the_reference_on_documents_and_their_mutations() {
        let mut rng = Mix(2);
        for _ in 0..4_000 {
            let tree = random_tree(&mut rng, 4);
            let json = to_string(&tree).unwrap();
            let mut reference = String::new();
            reference::write_value(&tree, &mut reference);
            assert_eq!(json, reference, "{tree:?}");
            parsers_agree(&json);
            // NaN writes as `null`, so only NaN-free trees come back equal.
            if !json.contains("null") {
                assert_eq!(from_str_value(&json).unwrap(), tree, "{json}");
            }
            // One edit away from valid: where the interesting errors live.
            let mut chars: Vec<char> = json.chars().collect();
            for _ in 0..8 {
                let at = rng.below(chars.len());
                match rng.below(3) {
                    0 => drop(chars.remove(at)),
                    1 => chars.insert(at, rng.pick(FRAGMENTS).chars().next().unwrap_or(' ')),
                    _ => {
                        let other = rng.below(chars.len());
                        chars.swap(at, other);
                    }
                }
                if chars.is_empty() {
                    break;
                }
                parsers_agree(&chars.iter().collect::<String>());
            }
            // Whitespace anywhere between tokens changes nothing.
            let spaced = json.replace(',', " ,\n").replace(':', "\t: ");
            if !json.contains('"') {
                assert_eq!(from_str_value(&spaced), from_str_value(&json));
            }
            parsers_agree(&spaced);
        }
    }

    #[test]
    fn parser_matches_the_reference_on_the_repositorys_own_json() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let manifest = std::fs::read_to_string(format!("{root}/BENCHMARK.json")).unwrap();
        assert!(from_str_value(&manifest).is_ok());
        parsers_agree(&manifest);
        let mut lines = 0;
        for entry in std::fs::read_dir(format!("{root}/results")).unwrap() {
            let path = entry.unwrap().path();
            if path.to_string_lossy().ends_with(".events.jsonl") {
                for line in std::fs::read_to_string(&path).unwrap().lines() {
                    assert!(from_str_value(line).is_ok(), "{line}");
                    parsers_agree(line);
                    lines += 1;
                }
            }
        }
        assert!(lines > 1_000, "only {lines} event lines under results/");
    }
}
