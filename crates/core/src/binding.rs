//! Query bindings, declared once. A query's `Params` struct is one
//! [`query_params!`](crate::query_params) declaration that names each
//! field's type and its spec key (`start_date: Date = "startDate"`); it
//! derives the wire codec (through [`crate::bytes`]) and the
//! substitution-file JSON object (spec §2.3.4.4), both in declaration
//! order. A query table's enum (`BiParams`, `IcParams`) is one
//! [`query_enum!`](crate::query_enum) declaration.
//!
//! A field is one of six [`Field`] types: `Date`, `String`,
//! `Vec<String>`, `i32`, `u32` and `u64`. The JSON reader takes a flat
//! object of strings, integers and string arrays, its keys in any order,
//! and answers anything else with a [`Malformed`], never a panic.

use std::fmt::Write as _;

use crate::bytes::{put_i32, put_str, put_strs, put_u32, put_u64, Malformed, Reader};
use crate::Date;

/// One field type of a query binding: its wire form and its JSON form.
pub trait Field {
    /// Appends the wire form.
    fn put(&self, buf: &mut Vec<u8>);
    /// Reads the wire form.
    fn get(r: &mut Reader<'_>) -> Result<Self, Malformed>
    where
        Self: Sized;
    /// Appends the JSON form.
    fn write_json(&self, out: &mut String);
    /// Reads the JSON form.
    fn read_json(p: &mut JsonReader<'_>) -> Result<Self, Malformed>
    where
        Self: Sized;
}

impl Field for Date {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_i32(buf, self.0);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, Malformed> {
        r.i32().map(Date)
    }
    fn write_json(&self, out: &mut String) {
        write_str(out, &self.to_string());
    }
    fn read_json(p: &mut JsonReader<'_>) -> Result<Self, Malformed> {
        let s = p.string()?;
        Date::parse(&s).ok_or_else(|| Malformed(format!("{s:?} is not a yyyy-mm-dd date")))
    }
}

impl Field for String {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_str(buf, self);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, Malformed> {
        r.string()
    }
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
    fn read_json(p: &mut JsonReader<'_>) -> Result<Self, Malformed> {
        p.string()
    }
}

impl Field for Vec<String> {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_strs(buf, self);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, Malformed> {
        r.strings()
    }
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, s) in self.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { ", " });
            write_str(out, s);
        }
        out.push(']');
    }
    fn read_json(p: &mut JsonReader<'_>) -> Result<Self, Malformed> {
        p.expect(b'[')?;
        p.list(b']', JsonReader::string)
    }
}

/// The integer fields: little-endian on the wire, decimal in JSON.
macro_rules! integer_fields {
    ($($t:ty: $put:ident, $get:ident;)*) => {$(
        impl Field for $t {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                $put(buf, *self);
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, Malformed> {
                r.$get()
            }
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read_json(p: &mut JsonReader<'_>) -> Result<Self, Malformed> {
                let text = p.integer()?;
                text.parse().map_err(|e| Malformed(format!("{text} as {}: {e}", stringify!($t))))
            }
        }
    )*};
}

integer_fields! {
    i32: put_i32, i32;
    u32: put_u32, u32;
    u64: put_u64, u64;
}

/// Appends `s` as a JSON string: `"` and `\` escaped, control characters
/// as `\u00XX`.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a flat JSON object, its `"key": value` pairs in order and
/// separated by `, `.
pub fn write_object(out: &mut String, pairs: &[(&str, &dyn Field)]) {
    out.push('{');
    for (i, (key, value)) in pairs.iter().enumerate() {
        out.push_str(if i == 0 { "" } else { ", " });
        write_str(out, key);
        out.push_str(": ");
        value.write_json(out);
    }
    out.push('}');
}

/// Reads a line holding one flat JSON object and nothing else but
/// whitespace, handing each key, with the reader at its value, to `each`.
pub fn read_object(
    line: &str,
    mut each: impl FnMut(&str, &mut JsonReader<'_>) -> Result<(), Malformed>,
) -> Result<(), Malformed> {
    let mut p = JsonReader { s: line, pos: 0 };
    p.expect(b'{')?;
    p.list(b'}', |p| {
        let key = p.string()?;
        p.expect(b':')?;
        each(&key, p).map_err(|e| Malformed(format!("{key:?}: {}", e.0)))
    })?;
    match line[p.pos..].trim_start().len() {
        0 => Ok(()),
        n => Err(Malformed(format!("{n} trailing bytes after the object"))),
    }
}

/// Reads one key's value into `slot`, refusing a key given twice.
pub fn read_once<F: Field>(slot: &mut Option<F>, p: &mut JsonReader<'_>) -> Result<(), Malformed> {
    if slot.is_some() {
        return Err(Malformed("repeated key".into()));
    }
    *slot = Some(F::read_json(p)?);
    Ok(())
}

/// A read cursor over one JSON line. It stops only before or after an
/// ASCII byte, so every slice it takes lies on character boundaries.
pub struct JsonReader<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> JsonReader<'a> {
    fn fail<T>(&self, what: &str) -> Result<T, Malformed> {
        Err(Malformed(format!("{what} at byte {}", self.pos)))
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then moves past `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_whitespace();
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), Malformed> {
        if self.eat(b) {
            return Ok(());
        }
        self.fail(&format!("expected '{}'", b as char))
    }

    /// The `,`-separated items up to `close`.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, Malformed>,
    ) -> Result<Vec<T>, Malformed> {
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(b',')?;
        }
    }

    /// An integer's decimal text: an optional `-`, then digits.
    fn integer(&mut self) -> Result<&'a str, Malformed> {
        self.skip_whitespace();
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        match &self.s[start..self.pos] {
            "" | "-" => self.fail("expected an integer"),
            text => Ok(text),
        }
    }

    fn string(&mut self) -> Result<String, Malformed> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.s[self.pos..];
            let run =
                rest.find(|c: char| matches!(c, '"' | '\\' | '\0'..='\x1f')).unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            match rest.as_bytes().get(run) {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return self.fail("raw control character in string"),
                None => return self.fail("unterminated string"),
            }
        }
    }

    /// The character of the escape after a `\`.
    fn escape(&mut self) -> Result<char, Malformed> {
        let c = match self.peek() {
            Some(b'u') => {
                let hex = self.s.get(self.pos + 1..self.pos + 5);
                let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                self.pos += 4;
                hex.and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?))
            }
            Some(b @ (b'"' | b'\\' | b'/')) => Some(b as char),
            Some(b'b') => Some('\u{8}'),
            Some(b'f') => Some('\u{c}'),
            Some(b'n') => Some('\n'),
            Some(b'r') => Some('\r'),
            Some(b't') => Some('\t'),
            _ => None,
        };
        self.pos += 1;
        c.map_or_else(|| self.fail("bad escape"), Ok)
    }
}

/// Declares a query's `Params` struct (always `Clone` and `Debug`), each
/// field with its spec key, and derives from the declaration, field by
/// field in declaration order: `put` / `get`, the wire form, and
/// `write_json` / `read_json`, the substitution-file object.
#[macro_export]
macro_rules! query_params {
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            $( $(#[$field_doc:meta])* $field:ident: $ty:ty = $key:literal, )*
        }
    ) => {
        $(#[$attr])*
        #[derive(Clone, Debug)]
        pub struct $name {
            $( $(#[$field_doc])* pub $field: $ty, )*
        }

        impl $name {
            /// Appends the wire form.
            #[inline]
            pub fn put(&self, buf: &mut Vec<u8>) {
                $( $crate::binding::Field::put(&self.$field, buf); )*
            }

            /// Reads the wire form.
            #[inline]
            pub fn get(
                r: &mut $crate::bytes::Reader<'_>,
            ) -> Result<Self, $crate::bytes::Malformed> {
                Ok($name { $( $field: $crate::binding::Field::get(r)?, )* })
            }

            /// Appends the substitution-file object.
            pub fn write_json(&self, out: &mut String) {
                $crate::binding::write_object(out, &[$( ($key, &self.$field), )*]);
            }

            /// Reads a substitution-file line: every key once, no other.
            pub fn read_json(line: &str) -> Result<Self, $crate::bytes::Malformed> {
                $( let mut $field = None; )*
                $crate::binding::read_object(line, |key, p| match key {
                    $( $key => $crate::binding::read_once(&mut $field, p), )*
                    _ => Err($crate::bytes::Malformed("unknown key".into())),
                })?;
                let missing = |key: &str| $crate::bytes::Malformed(format!("missing key {key:?}"));
                Ok($name { $( $field: $field.ok_or_else(|| missing($key))?, )* })
            }
        }
    };
}

/// Declares a query table's binding enum, one `number => Variant(module)`
/// per query, the variant holding `module::Params`, and derives `query()`
/// and the dispatching wire codec (`put` / `get`) and substitution-file
/// line (`to_json` / `from_json`).
#[macro_export]
macro_rules! query_enum {
    (
        $(#[$attr:meta])*
        pub enum $name:ident = $workload:literal {
            $( $n:literal => $variant:ident($module:ident), )*
        }
    ) => {
        $(#[$attr])*
        #[derive(Clone, Debug)]
        pub enum $name {
            $(
                #[doc = concat!($workload, " ", $n, " parameters.")]
                $variant($module::Params),
            )*
        }

        impl $name {
            /// The query number.
            pub fn query(&self) -> u8 {
                match self {
                    $( $name::$variant(_) => $n, )*
                }
            }

            /// Appends the fields' wire form (the query number is the
            /// caller's).
            pub fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $( $name::$variant(p) => p.put(buf), )*
                }
            }

            /// Reads query `query`'s fields in their wire form.
            // BI and IC bindings are decoded on lane workers and are kept
            // out of line, so the IS decode the reactor runs stays a few
            // straight reads.
            #[inline(never)]
            pub fn get(
                query: u8,
                r: &mut $crate::bytes::Reader<'_>,
            ) -> Result<Self, $crate::bytes::Malformed> {
                Ok(match query {
                    $( $n => $name::$variant($module::Params::get(r)?), )*
                    _ => return Err($name::unknown(query)),
                })
            }

            /// The binding as one substitution-file line.
            pub fn to_json(&self) -> String {
                let mut out = String::new();
                match self {
                    $( $name::$variant(p) => p.write_json(&mut out), )*
                }
                out
            }

            /// Reads a substitution-file line of query `query`.
            pub fn from_json(query: u8, line: &str) -> Result<Self, $crate::bytes::Malformed> {
                Ok(match query {
                    $( $n => $name::$variant($module::Params::read_json(line)?), )*
                    _ => return Err($name::unknown(query)),
                })
            }

            fn unknown(query: u8) -> $crate::bytes::Malformed {
                $crate::bytes::Malformed(format!(concat!("unknown ", $workload, " query {}"), query))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    mod q {
        crate::query_params! {
            /// Every field type once.
            #[derive(PartialEq)]
            pub struct Params {
                /// A date.
                date: crate::Date = "date",
                /// A string.
                name: String = "name",
                /// A string list.
                names: Vec<String> = "names",
                /// A signed integer.
                year: i32 = "year",
                /// An unsigned integer.
                month: u32 = "month",
                /// An id.
                id: u64 = "id",
            }
        }
    }

    fn sample() -> q::Params {
        q::Params {
            date: Date::from_ymd(2012, 2, 29),
            name: "quote \" back \\ tab \t é 😀".into(),
            names: vec!["a".into(), String::new()],
            year: -3,
            month: 12,
            id: u64::MAX,
        }
    }

    #[test]
    fn every_field_type_round_trips_wire_and_json() {
        let p = sample();
        let mut buf = Vec::new();
        p.put(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(q::Params::get(&mut r).unwrap(), p);
        r.finish().unwrap();
        let mut line = String::new();
        p.write_json(&mut line);
        assert_eq!(
            line,
            r#"{"date": "2012-02-29", "name": "quote \" back \\ tab \u0009 é 😀", "names": ["a", ""], "year": -3, "month": 12, "id": 18446744073709551615}"#
        );
        assert_eq!(q::Params::read_json(&line).unwrap(), p);
        // Key order, whitespace and the other escapes are the reader's.
        let shuffled =
            " {\"id\":18446744073709551615,\"month\":12,\"year\":-3,\"names\":[ \"a\" , \"\" ],\
            \"name\":\"quote \\\" back \\\\ tab \\t \\u00e9 😀\",\"date\":\"2012-02-29\"} ";
        assert_eq!(q::Params::read_json(shuffled).unwrap(), p);
    }

    #[test]
    fn hostile_lines_are_typed_errors() {
        let mut line = String::new();
        sample().write_json(&mut line);
        let cases = [
            (line.replace(r#""year": -3, "#, ""), "missing key \"year\""),
            (line.replace('}', r#", "extra": 1}"#), "\"extra\": unknown key"),
            (line.replace(r#""month": 12"#, r#""month": "12""#), "\"month\": expected an integer"),
            (line.replace(r#""name": "quote"#, r#""name": ["quote"#), "\"name\": expected '\"'"),
            (line.replace(r#"["a", ""]"#, "7"), "\"names\": expected '['"),
            (line.replace(r#""month": 12"#, r#""month": 4294967296"#), "as u32"),
            (line.replace(r#""year": -3"#, r#""year": -"#), "expected an integer"),
            (
                line.replace(r#""id": 18446744073709551615"#, r#""id": 18446744073709551616"#),
                "as u64",
            ),
            (line.replace(r#""month": 12"#, r#""month": 1.5"#), "expected ','"),
            (line.replace("2012-02-29", "2012-02-30"), "not a yyyy-mm-dd date"),
            (line[..line.len() - 2].to_string(), "expected ','"),
            (r#"{"name": "open"#.into(), "unterminated string"),
            (line.replace(r"\u0009", r"\u00g9"), "bad escape"),
            (line.replace(r"\u0009", r"\ud800"), "bad escape"),
            (line.replace(r"\u0009", r"\u00"), "bad escape"),
            (line.replace(r"\u0009", r"\x"), "bad escape"),
            (line.replace(r"\u0009", "\t"), "raw control character"),
            (format!("{line} {{}}"), "trailing bytes"),
            (format!("{line}x"), "trailing bytes"),
            (
                line.replace(r#""month": 12"#, r#""month": 12, "month": 12"#),
                "\"month\": repeated key",
            ),
            (String::new(), "expected '{'"),
            ("{ }".into(), "missing key \"date\""),
            ("é".into(), "expected '{'"),
        ];
        for (hostile, want) in cases {
            let err = q::Params::read_json(&hostile).expect_err(&hostile);
            assert!(err.0.contains(want), "{hostile}: {err:?} lacks {want:?}");
        }
        // Cut anywhere, the line fails instead of misreading.
        for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
            assert!(q::Params::read_json(&line[..cut]).is_err(), "cut at {cut}");
        }
    }
}
