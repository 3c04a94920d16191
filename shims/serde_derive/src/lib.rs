//! Offline shim for `serde_derive`: `#[derive(Serialize, Deserialize)]`
//! implemented directly on `proc_macro` token streams (no `syn`/`quote`,
//! which are unavailable in this offline build).
//!
//! The macros only need the *shape* of an item — its name, its field
//! names, and its variants — because the companion `serde` shim resolves
//! field types through inference (`Deserialize::from_value(...)` in a
//! struct literal, `Serialize::write_json(&self.field, ..)`). Type tokens
//! are therefore skipped, not parsed.
//!
//! `Serialize` expands to straight-line code that appends compact JSON to
//! a `String`: the punctuation and field names of the shape are string
//! literals joined at expansion time (`{"a":`, `,"b":`, `}`), with one
//! `write_json` call per field between them.
//!
//! Supported shapes (everything the workspace derives): unit structs,
//! tuple structs, named-field structs, and enums whose variants are
//! unit, tuple, or named-field. Generic items are rejected with a
//! compile error. Of the `#[serde(...)]` attributes, field-level
//! `default` / `default = "path"` are honoured (a missing key falls back
//! to `Default::default()` or `path()`, matching upstream); the rest are
//! accepted and ignored — the only other one the workspace uses is
//! `#[serde(transparent)]` on newtype structs, and newtype structs
//! already serialize transparently (as their inner value, matching
//! upstream serde's newtype behaviour).

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};
use std::iter::Peekable;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Which {
    Serialize,
    Deserialize,
}

struct Item {
    name: String,
    kind: Kind,
}

enum Kind {
    UnitStruct,
    TupleStruct { arity: usize },
    NamedStruct { fields: Vec<Field> },
    Enum { variants: Vec<Variant> },
}

struct Field {
    name: String,
    /// `#[serde(default)]` → `Some(None)`; `#[serde(default = "path")]`
    /// → `Some(Some(path))`; no default attribute → `None`.
    default: Option<Option<String>>,
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

fn expand(input: TokenStream, which: Which) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(msg) => {
            return format!("compile_error!({msg:?});").parse().unwrap();
        }
    };
    let body = match which {
        Which::Serialize => gen_serialize(&item),
        Which::Deserialize => gen_deserialize(&item),
    };
    body.parse().unwrap()
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

type Tokens = Peekable<proc_macro::token_stream::IntoIter>;

/// Skips outer attributes (`#[...]`, including expanded doc comments) and
/// a visibility qualifier (`pub`, `pub(crate)`, ...). Returns the field
/// default captured from a `#[serde(default)]` attribute, if any.
fn skip_attrs_and_vis(tokens: &mut Tokens) -> Option<Option<String>> {
    let mut default = None;
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                // The attribute body `[...]`.
                if let Some(TokenTree::Group(g)) = tokens.next() {
                    if let Some(d) = serde_default_attr(&g) {
                        default = Some(d);
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                tokens.next();
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
            }
            _ => return default,
        }
    }
}

/// Recognizes `serde(default)` / `serde(default = "path")` inside an
/// attribute body, returning `None` for any other attribute.
fn serde_default_attr(attr: &Group) -> Option<Option<String>> {
    let mut tokens = attr.stream().into_iter().peekable();
    match tokens.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return None,
    }
    let args = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => g,
        _ => return None,
    };
    let mut inner = args.stream().into_iter().peekable();
    while let Some(tok) = inner.next() {
        let TokenTree::Ident(id) = &tok else { continue };
        if id.to_string() != "default" {
            continue;
        }
        match inner.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                inner.next();
                if let Some(TokenTree::Literal(lit)) = inner.next() {
                    let path = lit.to_string();
                    return Some(Some(path.trim_matches('"').to_string()));
                }
                return None;
            }
            _ => return Some(None),
        }
    }
    None
}

fn next_ident(tokens: &mut Tokens, what: &str) -> Result<String, String> {
    match tokens.next() {
        Some(TokenTree::Ident(id)) => Ok(id.to_string()),
        other => Err(format!(
            "serde shim derive: expected {what}, found {other:?}"
        )),
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut tokens = input.into_iter().peekable();
    let _ = skip_attrs_and_vis(&mut tokens);
    let keyword = next_ident(&mut tokens, "`struct` or `enum`")?;
    let name = next_ident(&mut tokens, "item name")?;
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            return Err("serde shim derive: generic types are not supported".into());
        }
    }
    let kind = match (keyword.as_str(), tokens.next()) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Kind::NamedStruct {
                fields: parse_named_fields(&g)?,
            }
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Kind::TupleStruct {
                arity: tuple_arity(&g),
            }
        }
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => Kind::UnitStruct,
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => Kind::Enum {
            variants: parse_variants(&g)?,
        },
        (kw, other) => {
            return Err(format!(
                "serde shim derive: unsupported item shape ({kw}, next token {other:?})"
            ));
        }
    };
    Ok(Item { name, kind })
}

/// Extracts field names (and any `#[serde(default)]` markers) from a
/// `{ ... }` group, skipping each field's type tokens (balanced over
/// `<`/`>`) up to the next top-level comma.
fn parse_named_fields(group: &Group) -> Result<Vec<Field>, String> {
    let mut tokens = group.stream().into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let default = skip_attrs_and_vis(&mut tokens);
        let name = match tokens.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("serde shim derive: expected field, got {other:?}")),
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("serde shim derive: expected `:`, got {other:?}")),
        }
        skip_type(&mut tokens);
        fields.push(Field { name, default });
    }
    Ok(fields)
}

/// Consumes type tokens until (and including) a comma at angle-bracket
/// depth zero, or the end of the stream.
fn skip_type(tokens: &mut Tokens) {
    let mut depth = 0i32;
    for tok in tokens.by_ref() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => return,
                _ => {}
            }
        }
    }
}

/// Counts the fields of a tuple struct / tuple variant: the number of
/// non-empty top-level comma-separated segments.
fn tuple_arity(group: &Group) -> usize {
    let mut depth = 0i32;
    let mut segments = 0usize;
    let mut segment_has_tokens = false;
    for tok in group.stream() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    if segment_has_tokens {
                        segments += 1;
                    }
                    segment_has_tokens = false;
                    continue;
                }
                _ => {}
            }
        }
        segment_has_tokens = true;
    }
    if segment_has_tokens {
        segments += 1;
    }
    segments
}

fn parse_variants(group: &Group) -> Result<Vec<Variant>, String> {
    let mut tokens = group.stream().into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        let _ = skip_attrs_and_vis(&mut tokens);
        let name = match tokens.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => {
                return Err(format!(
                    "serde shim derive: expected variant, got {other:?}"
                ))
            }
        };
        let shape = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = tuple_arity(g);
                tokens.next();
                Shape::Tuple(arity)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g)?;
                tokens.next();
                Shape::Named(fields)
            }
            _ => Shape::Unit,
        };
        // Skip an explicit discriminant and/or the separating comma.
        let mut depth = 0i32;
        while let Some(tok) = tokens.peek() {
            if let TokenTree::Punct(p) = tok {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => {
                        tokens.next();
                        break;
                    }
                    _ => {}
                }
            }
            tokens.next();
        }
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation.
// ---------------------------------------------------------------------------

const D: &str = "::serde::Deserialize::from_value";

/// Builds the body of `write_json`: literal JSON text accumulates in
/// `pending` and is emitted as one `push_str` when a value write (or the
/// end of the body) interrupts it, so `{"a":` / `,"b":` / `}` each cost a
/// single call.
#[derive(Default)]
struct JsonBody {
    code: String,
    pending: String,
}

impl JsonBody {
    fn text(&mut self, json: &str) {
        self.pending.push_str(json);
    }

    /// `expr` must evaluate to a reference to a `Serialize` value.
    fn value(&mut self, expr: &str) {
        self.flush();
        self.code
            .push_str(&format!("::serde::Serialize::write_json({expr}, __out);\n"));
    }

    /// `{"a":<a>,"b":<b>}` over `(field name, expression)` pairs.
    fn object<'a>(&mut self, fields: impl Iterator<Item = (&'a str, String)>) {
        self.text("{");
        for (i, (name, expr)) in fields.enumerate() {
            self.text(&format!("{}\"{name}\":", if i > 0 { "," } else { "" }));
            self.value(&expr);
        }
        self.text("}");
    }

    /// `[<a>,<b>]`.
    fn array(&mut self, items: impl Iterator<Item = String>) {
        self.text("[");
        for (i, expr) in items.enumerate() {
            if i > 0 {
                self.text(",");
            }
            self.value(&expr);
        }
        self.text("]");
    }

    fn flush(&mut self) {
        if !self.pending.is_empty() {
            // `{:?}` of a `str` is a valid Rust string literal.
            self.code
                .push_str(&format!("__out.push_str({:?});\n", self.pending));
            self.pending.clear();
        }
    }

    fn finish(mut self) -> String {
        self.flush();
        self.code
    }
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let mut body = JsonBody::default();
    match &item.kind {
        Kind::UnitStruct => body.text("null"),
        Kind::TupleStruct { arity: 1 } => body.value("&self.0"),
        Kind::TupleStruct { arity } => body.array((0..*arity).map(|i| format!("&self.{i}"))),
        Kind::NamedStruct { fields } => body.object(
            fields
                .iter()
                .map(|f| (f.name.as_str(), format!("&self.{}", f.name))),
        ),
        Kind::Enum { variants } => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                let mut arm = JsonBody::default();
                let pattern = match &v.shape {
                    Shape::Unit => {
                        arm.text(&format!("\"{vname}\""));
                        String::new()
                    }
                    Shape::Tuple(arity) => {
                        let binders: Vec<String> = (0..*arity).map(|i| format!("__f{i}")).collect();
                        arm.text(&format!("{{\"{vname}\":"));
                        match binders.as_slice() {
                            [only] => arm.value(only),
                            many => arm.array(many.iter().cloned()),
                        }
                        arm.text("}");
                        format!("({})", binders.join(", "))
                    }
                    Shape::Named(fields) => {
                        arm.text(&format!("{{\"{vname}\":"));
                        arm.object(fields.iter().map(|f| (f.name.as_str(), f.name.clone())));
                        arm.text("}");
                        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        format!(" {{ {} }}", names.join(", "))
                    }
                };
                arms.push_str(&format!(
                    "{name}::{vname}{pattern} => {{ {} }}\n",
                    arm.finish()
                ));
            }
            body.code = format!("match self {{ {arms} }}");
        }
    }
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn write_json(&self, __out: &mut ::std::string::String) {{ {} }}\n\
         }}",
        body.finish()
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::UnitStruct => {
            format!("let _ = __v; ::std::result::Result::Ok({name})")
        }
        Kind::TupleStruct { arity: 1 } => {
            format!("::std::result::Result::Ok({name}({D}(__v)?))")
        }
        Kind::TupleStruct { arity } => {
            let items: Vec<String> = (0..*arity)
                .map(|i| format!("{D}(&__items[{i}])?"))
                .collect();
            format!(
                "let __items = ::serde::expect_array(__v, \"{name}\", {arity})?;\n\
                 ::std::result::Result::Ok({name}({}))",
                items.join(", ")
            )
        }
        Kind::NamedStruct { fields } => {
            let inits: Vec<String> = fields.iter().map(field_init).collect();
            format!(
                "let __fields = ::serde::expect_object(__v, \"{name}\")?;\n\
                 ::std::result::Result::Ok({name} {{ {} }})",
                inits.join("\n")
            )
        }
        Kind::Enum { variants } => gen_enum_deserialize(name, variants),
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {body}\n\
         }}\n\
         }}"
    )
}

/// One `field: <expr>,` initializer for a named field. Fields without a
/// default go through `get_field` (missing → `Null`, so `Option` fields
/// still read as `None`); `#[serde(default)]` fields distinguish a
/// missing key and fall back to `Default::default()` or the named path.
fn field_init(f: &Field) -> String {
    let name = &f.name;
    match &f.default {
        None => format!("{name}: {D}(::serde::get_field(__fields, \"{name}\"))?,"),
        Some(default) => {
            let fallback = match default {
                None => "::std::default::Default::default()".to_string(),
                Some(path) => format!("{path}()"),
            };
            format!(
                "{name}: match ::serde::find_field(__fields, \"{name}\") {{\n\
                 ::std::option::Option::Some(__dv) => {D}(__dv)?,\n\
                 ::std::option::Option::None => {fallback},\n\
                 }},"
            )
        }
    }
}

fn gen_enum_deserialize(name: &str, variants: &[Variant]) -> String {
    let unit_arms: Vec<String> = variants
        .iter()
        .filter(|v| matches!(v.shape, Shape::Unit))
        .map(|v| format!("\"{0}\" => ::std::result::Result::Ok({name}::{0}),", v.name))
        .collect();
    let mut data_arms = Vec::new();
    for v in variants {
        let vname = &v.name;
        let arm = match &v.shape {
            Shape::Unit => continue,
            Shape::Tuple(1) => {
                format!("\"{vname}\" => ::std::result::Result::Ok({name}::{vname}({D}(__inner)?)),")
            }
            Shape::Tuple(arity) => {
                let items: Vec<String> = (0..*arity)
                    .map(|i| format!("{D}(&__items[{i}])?"))
                    .collect();
                format!(
                    "\"{vname}\" => {{\n\
                     let __items = ::serde::expect_array(__inner, \"{name}::{vname}\", {arity})?;\n\
                     ::std::result::Result::Ok({name}::{vname}({}))\n\
                     }}",
                    items.join(", ")
                )
            }
            Shape::Named(fields) => {
                let inits: Vec<String> = fields.iter().map(field_init).collect();
                format!(
                    "\"{vname}\" => {{\n\
                     let __fields = ::serde::expect_object(__inner, \"{name}::{vname}\")?;\n\
                     ::std::result::Result::Ok({name}::{vname} {{ {} }})\n\
                     }}",
                    inits.join("\n")
                )
            }
        };
        data_arms.push(arm);
    }
    let mut match_arms = Vec::new();
    if !unit_arms.is_empty() {
        match_arms.push(format!(
            "::serde::Value::Str(__s) => match __s.as_str() {{\n\
             {}\n\
             __other => ::std::result::Result::Err(::serde::unknown_variant(\"{name}\", __other)),\n\
             }},",
            unit_arms.join("\n")
        ));
    }
    if !data_arms.is_empty() {
        match_arms.push(format!(
            "::serde::Value::Object(__pairs) if __pairs.len() == 1 => {{\n\
             let (__tag, __inner) = &__pairs[0];\n\
             match __tag.as_str() {{\n\
             {}\n\
             __other => ::std::result::Result::Err(::serde::unknown_variant(\"{name}\", __other)),\n\
             }}\n\
             }},",
            data_arms.join("\n")
        ));
    }
    match_arms.push(format!(
        "__other => ::std::result::Result::Err(::serde::Error::expected(\"{name}\", __other)),"
    ));
    format!("match __v {{ {} }}", match_arms.join("\n"))
}
