//! Hostile input: deep nesting and random bytes give a parse error,
//! never a panic or a stack overflow.

use proptest::prelude::*;

/// `(prefix, core, suffix)`: `prefix × n`, `core`, `suffix × n`.
type Shape = (&'static str, &'static str, &'static str);

/// `(wrap, shapes)`: each shape nests inside the wrap's `{}`.
const SHAPES: &[(&str, &[Shape])] = &[
    (
        "class C { void M() { x = {}; } }",
        &[
            ("(", "a", ")"),
            ("!", "a", ""),
            ("a = ", "a", ""),
            ("a + ", "a", ""),
            ("a ?? ", "a", ""),
            ("", "a", ".b"),
            ("", "f", "()"),
            ("f(", "a", ")"),
            ("a[", "0", "]"),
            ("a ? a : ", "a", ""),
            ("y => ", "y", ""),
        ],
    ),
    (
        "class C { void M() { {} } }",
        &[
            ("{", "", "}"),
            ("if (a) ", "x = 1;", ""),
            ("while (a) ", "x = 1;", ""),
        ],
    ),
    (
        "class C { {} f; }",
        &[("A<", "T", "> "), ("", "int", "[]"), ("", "int", "? ")],
    ),
];

const OPENERS: &[&str] = &[
    "class C { void M() {",
    "(",
    "{",
    "!",
    "a.",
    "a??",
    "f(",
    "A<",
    ")",
    "}",
    ";",
];

/// How often each construct repeats: far past any nesting cap, and far
/// past what a 2 MiB stack survives without one.
const DEEP: usize = 20_000;

/// Parses `src` on a thread with a spawned worker's default 2 MiB stack
/// (what a serve worker gets), so an unbounded recursion would abort the
/// test binary instead of passing by luck on a big main-thread stack.
fn parse_on_worker_stack(src: String) -> Result<(), String> {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            pigeon_csharp::parse(&src)
                .map(|_| ())
                .map_err(|e| e.message)
        })
        .expect("spawns a parser thread")
        .join()
        .expect("parsing never panics")
}

/// `shape` nested `n` deep, inside `wrap`'s `{}`.
fn nest(wrap: &str, (prefix, core, suffix): Shape, n: usize) -> String {
    let body = format!("{}{core}{}", prefix.repeat(n), suffix.repeat(n));
    wrap.replacen("{}", &body, 1)
}

#[test]
fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
    for (wrap, shapes) in SHAPES {
        for &shape in *shapes {
            let err = parse_on_worker_stack(nest(wrap, shape, DEEP))
                .expect_err("nesting past the cap must not parse");
            assert!(
                err.contains("nesting deeper than"),
                "{shape:?} in {wrap:?} failed for another reason: {err}"
            );
        }
    }
}

#[test]
fn moderate_nesting_still_parses() {
    for (wrap, shapes) in SHAPES {
        for &shape in *shapes {
            if let Err(e) = parse_on_worker_stack(nest(wrap, shape, 40)) {
                panic!("{shape:?} nested 40 deep in {wrap:?} must parse: {e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (lossily decoded, as a request body would be)
    /// give `Ok` or `Err`, never a panic.
    #[test]
    fn parse_never_panics_on_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = pigeon_csharp::parse(&String::from_utf8_lossy(&bytes));
    }

    /// Runs of nesting tokens in random order and amounts.
    #[test]
    fn parse_never_panics_on_random_bracket_runs(
        runs in prop::collection::vec((0usize..OPENERS.len(), 1usize..600), 0..12)
    ) {
        let src: String = runs.iter().map(|&(i, n)| OPENERS[i].repeat(n)).collect();
        let _ = parse_on_worker_stack(src);
    }
}
