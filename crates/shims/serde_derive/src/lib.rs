//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! vendored serde facade. The container has no syn/quote, so the item is
//! parsed directly from the raw token stream and impls are emitted as
//! formatted strings. Supported shapes cover everything this workspace
//! derives: non-generic structs (named / tuple / unit) and enums with unit,
//! tuple, and struct variants, plus `#[serde(rename_all = "...")]`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Deserialize)
}

enum Which {
    Serialize,
    Deserialize,
}

fn expand(input: TokenStream, which: Which) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(msg) => {
            return format!("compile_error!({msg:?});").parse().unwrap();
        }
    };
    let code = match which {
        Which::Serialize => gen_serialize(&item),
        Which::Deserialize => gen_deserialize(&item),
    };
    code.parse().unwrap()
}

// ---------------------------------------------------------------- parsing

struct Item {
    name: String,
    rename_all: Option<String>,
    body: Body,
}

enum Body {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Cursor {
    toks: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(ts: TokenStream) -> Self {
        Cursor {
            toks: ts.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Skip a run of outer attributes, returning any `rename_all` value seen.
    fn skip_attrs(&mut self) -> Option<String> {
        let mut rename_all = None;
        while let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() != '#' {
                break;
            }
            self.next();
            if let Some(TokenTree::Group(g)) = self.next() {
                if let Some(r) = extract_rename_all(g.stream()) {
                    rename_all = Some(r);
                }
            }
        }
        rename_all
    }

    fn skip_visibility(&mut self) {
        if let Some(TokenTree::Ident(id)) = self.peek() {
            if id.to_string() == "pub" {
                self.next();
                if let Some(TokenTree::Group(g)) = self.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        self.next();
                    }
                }
            }
        }
    }

    /// Skip tokens of a type (or discriminant expression) until a top-level
    /// comma or end of stream. Groups are atomic; only `<`/`>` need counting.
    fn skip_until_comma(&mut self) {
        let mut angle: i32 = 0;
        while let Some(t) = self.peek() {
            match t {
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => return,
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                _ => {}
            }
            self.next();
        }
    }
}

fn extract_rename_all(attr: TokenStream) -> Option<String> {
    // Matches `serde ( ... rename_all = "RULE" ... )`.
    let mut toks = attr.into_iter();
    match toks.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return None,
    }
    let inner = match toks.next() {
        Some(TokenTree::Group(g)) => g.stream(),
        _ => return None,
    };
    let inner: Vec<TokenTree> = inner.into_iter().collect();
    for (i, t) in inner.iter().enumerate() {
        if let TokenTree::Ident(id) = t {
            if id.to_string() == "rename_all" {
                if let Some(TokenTree::Literal(lit)) = inner.get(i + 2) {
                    return Some(lit.to_string().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut c = Cursor::new(input);
    let rename_all = c.skip_attrs();
    c.skip_visibility();

    let kw = match c.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        t => {
            return Err(format!(
                "serde shim derive: expected struct/enum, got {t:?}"
            ))
        }
    };
    let name = match c.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        t => return Err(format!("serde shim derive: expected type name, got {t:?}")),
    };
    if let Some(TokenTree::Punct(p)) = c.peek() {
        if p.as_char() == '<' {
            return Err(format!(
                "serde shim derive: generic type {name} not supported"
            ));
        }
    }

    let body = match kw.as_str() {
        "struct" => match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::NamedStruct(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::UnitStruct,
            t => return Err(format!("serde shim derive: bad struct body {t:?}")),
        },
        "enum" => match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream())?)
            }
            t => return Err(format!("serde shim derive: bad enum body {t:?}")),
        },
        other => return Err(format!("serde shim derive: cannot derive for {other}")),
    };

    Ok(Item {
        name,
        rename_all,
        body,
    })
}

fn parse_named_fields(ts: TokenStream) -> Result<Vec<String>, String> {
    let mut c = Cursor::new(ts);
    let mut fields = Vec::new();
    loop {
        c.skip_attrs();
        c.skip_visibility();
        if c.at_end() {
            break;
        }
        let name = match c.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            t => return Err(format!("serde shim derive: expected field name, got {t:?}")),
        };
        match c.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            t => return Err(format!("serde shim derive: expected ':', got {t:?}")),
        }
        c.skip_until_comma();
        c.next(); // consume the comma, if any
        fields.push(name);
    }
    Ok(fields)
}

fn count_tuple_fields(ts: TokenStream) -> usize {
    let mut c = Cursor::new(ts);
    if c.at_end() {
        return 0;
    }
    let mut count = 1;
    let mut angle: i32 = 0;
    let mut saw_token_since_comma = false;
    while let Some(t) = c.next() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                saw_token_since_comma = false;
                count += 1;
                continue;
            }
            _ => {}
        }
        saw_token_since_comma = true;
    }
    // Trailing comma adds a phantom field; drop it.
    if !saw_token_since_comma {
        count -= 1;
    }
    count
}

fn parse_variants(ts: TokenStream) -> Result<Vec<Variant>, String> {
    let mut c = Cursor::new(ts);
    let mut variants = Vec::new();
    loop {
        c.skip_attrs();
        if c.at_end() {
            break;
        }
        let name = match c.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            t => {
                return Err(format!(
                    "serde shim derive: expected variant name, got {t:?}"
                ))
            }
        };
        let kind = match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                c.next();
                VariantKind::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                c.next();
                VariantKind::Named(fields)
            }
            _ => VariantKind::Unit,
        };
        // Skip an optional discriminant, then the separating comma.
        c.skip_until_comma();
        c.next();
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

// ------------------------------------------------------------- renaming

fn apply_rename(name: &str, rule: Option<&str>) -> String {
    let Some(rule) = rule else {
        return name.to_string();
    };
    let words = split_words(name);
    match rule {
        "lowercase" => name.to_lowercase(),
        "UPPERCASE" => name.to_uppercase(),
        "snake_case" => words.join("_"),
        "SCREAMING_SNAKE_CASE" => words.join("_").to_uppercase(),
        "kebab-case" => words.join("-"),
        "camelCase" => {
            let mut out = String::new();
            for (i, w) in words.iter().enumerate() {
                if i == 0 {
                    out.push_str(w);
                } else {
                    out.push_str(&capitalize(w));
                }
            }
            out
        }
        "PascalCase" => words.iter().map(|w| capitalize(w)).collect(),
        _ => name.to_string(),
    }
}

fn split_words(name: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut cur = String::new();
    for ch in name.chars() {
        if ch == '_' {
            if !cur.is_empty() {
                words.push(cur.clone());
                cur.clear();
            }
        } else if ch.is_uppercase() && !cur.is_empty() {
            words.push(cur.clone());
            cur.clear();
            cur.push(ch.to_ascii_lowercase());
        } else {
            cur.push(ch.to_ascii_lowercase());
        }
    }
    if !cur.is_empty() {
        words.push(cur);
    }
    words
}

fn capitalize(w: &str) -> String {
    let mut cs = w.chars();
    match cs.next() {
        Some(c) => c.to_uppercase().collect::<String>() + cs.as_str(),
        None => String::new(),
    }
}

// ------------------------------------------------------------ generation
//
// Each derive emits two paths. The value path (`serialize`/`deserialize`)
// builds or consumes a `Value` tree and moves every field out of it. The
// direct path (`write_json`/`read_json`) writes and reads JSON text with
// no tree; it writes object keys in byte order, as the tree's sorted map
// does, so both paths produce the same bytes.

const VALUE: &str = "::serde::__private::Value";
const MAP: &str = "::serde::__private::Map";
const TO_VALUE: &str = "::serde::__private::to_value";
const FROM_VALUE: &str = "::serde::__private::from_value";
const WRITE: &str = "::serde::Serialize::write_json";
const READ: &str = "::serde::Deserialize::read_json";
const OK: &str = "::core::result::Result::Ok";
const ERR: &str = "::core::result::Result::Err";
const SOME: &str = "::core::option::Option::Some";

/// Fields paired with their wire keys, in the byte order of the keys.
fn keyed_fields<'a>(fields: &'a [String], rule: Option<&str>) -> Vec<(String, &'a str)> {
    let mut keyed: Vec<(String, &str)> = fields
        .iter()
        .map(|f| (apply_rename(f, rule), f.as_str()))
        .collect();
    keyed.sort();
    keyed
}

fn de_err(item: &str, what: &str) -> String {
    format!(
        "return {ERR}(<__D::Error as ::serde::de::Error>::custom(\
         ::std::format!(\"{item}: {what}\")))"
    )
}

/// Value path: `from_value(expr)`, returning early with `ctx` on error.
fn from_value_or_return(expr: &str, ctx: &str) -> String {
    format!(
        "match {FROM_VALUE}({expr}) {{\n\
         {OK}(v) => v,\n\
         {ERR}(e) => return {ERR}(<__D::Error as ::serde::de::Error>::custom(\
         ::std::format!(\"{ctx}: {{}}\", e))),\n}}"
    )
}

/// Value path: a named-field constructor moving each field out of `__o`.
fn value_named(ctor: &str, ctx: &str, keyed: &[(String, &str)]) -> String {
    let inits: String = keyed
        .iter()
        .map(|(key, f)| {
            let expr = format!("__o.remove({key:?}).unwrap_or({VALUE}::Null)");
            format!(
                "{f}: {},\n",
                from_value_or_return(&expr, &format!("{ctx}.{f}"))
            )
        })
        .collect();
    format!("{ctor} {{\n{inits}}}")
}

/// Value path: a tuple constructor over `__v`, which must be an array of `n`.
fn value_tuple(ctor: &str, ctx: &str, n: usize) -> String {
    let elems: Vec<String> = (0..n)
        .map(|i| from_value_or_return("__a.next().unwrap_or_default()", &format!("{ctx}.{i}")))
        .collect();
    format!(
        "let mut __a = match __v {{\n\
         {VALUE}::Array(a) if a.len() == {n} => a.into_iter(),\n\
         _ => {err},\n}};\n\
         {OK}({ctor}({elems}))",
        err = de_err(ctx, &format!("expected array of {n}")),
        elems = elems.join(", ")
    )
}

/// Direct path: write the named fields as one object.
fn write_named(keyed: &[(String, &str)], access: impl Fn(&str) -> String) -> String {
    let mut s = String::from("__w.begin_object();\n");
    for (key, f) in keyed {
        s.push_str(&format!(
            "__w.key({key:?});\n{WRITE}({}, __w);\n",
            access(f)
        ));
    }
    s.push_str("__w.end_object();\n");
    s
}

/// Direct path: write the expressions as one array.
fn write_tuple(elems: &[String]) -> String {
    let mut s = String::from("__w.begin_array();\n");
    for e in elems {
        s.push_str(&format!("{WRITE}({e}, __w);\n"));
    }
    s.push_str("__w.end_array();\n");
    s
}

/// Direct path: read an object into a named-field constructor.
fn read_named(ctor: &str, ctx: &str, keyed: &[(String, &str)]) -> String {
    let mut s = String::new();
    for i in 0..keyed.len() {
        s.push_str(&format!("let mut __f{i} = ::core::option::Option::None;\n"));
    }
    s.push_str(
        "__r.begin_object()?;\n\
         while let ::core::option::Option::Some(__k) = __r.next_key()? {\n\
         match &*__k {\n",
    );
    for (i, (key, _)) in keyed.iter().enumerate() {
        s.push_str(&format!(
            "{key:?} => __f{i} = {SOME}(__r.read_or_skip()?),\n"
        ));
    }
    s.push_str("_ => __r.skip_value()?,\n}\n}\n");
    let inits: String = keyed
        .iter()
        .enumerate()
        .map(|(i, (_, f))| format!("{f}: ::serde::__private::field(__f{i}, \"{ctx}.{f}\")?,\n"))
        .collect();
    s.push_str(&format!("{OK}({ctor} {{\n{inits}}})"));
    s
}

/// Direct path: read an array of exactly `n` into a tuple constructor.
fn read_tuple(ctor: &str, ctx: &str, n: usize) -> String {
    let elems: Vec<String> = (0..n)
        .map(|i| format!("__r.element(\"{ctx}.{i}\")?"))
        .collect();
    format!(
        "__r.begin_array()?;\n\
         let __x = {ctor}({});\n\
         __r.end_array({n})?;\n\
         {OK}(__x)",
        elems.join(", ")
    )
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let rule = item.rename_all.as_deref();
    let (to_value, write) = match &item.body {
        Body::NamedStruct(fields) => {
            let keyed = keyed_fields(fields, rule);
            let mut s = format!("let mut __m = {MAP}::new();\n");
            for (key, f) in &keyed {
                s.push_str(&format!(
                    "__m.insert(::std::string::String::from({key:?}), {TO_VALUE}(&self.{f}));\n"
                ));
            }
            s.push_str(&format!("{VALUE}::Object(__m)"));
            (s, write_named(&keyed, |f| format!("&self.{f}")))
        }
        Body::TupleStruct(1) => (
            format!("{TO_VALUE}(&self.0)"),
            format!("{WRITE}(&self.0, __w)"),
        ),
        Body::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
            let values: Vec<String> = elems.iter().map(|e| format!("{TO_VALUE}({e})")).collect();
            (
                format!("{VALUE}::Array(::std::vec![{}])", values.join(", ")),
                write_tuple(&elems),
            )
        }
        Body::UnitStruct => (format!("{VALUE}::Null"), "__w.null()".to_string()),
        Body::Enum(variants) => {
            let mut value_arms = String::new();
            let mut write_arms = String::new();
            for v in variants {
                let vname = &v.name;
                let wire = apply_rename(vname, rule);
                let (pattern, content, write_content) = match &v.kind {
                    VariantKind::Unit => {
                        value_arms.push_str(&format!(
                            "{name}::{vname} => {VALUE}::String(::std::string::String::from({wire:?})),\n"
                        ));
                        write_arms.push_str(&format!("{name}::{vname} => __w.str({wire:?}),\n"));
                        continue;
                    }
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let pattern = format!("{name}::{vname}({})", binds.join(", "));
                        if *n == 1 {
                            (
                                pattern,
                                format!("{TO_VALUE}(__f0)"),
                                format!("{WRITE}(__f0, __w);\n"),
                            )
                        } else {
                            let values: Vec<String> =
                                binds.iter().map(|b| format!("{TO_VALUE}({b})")).collect();
                            (
                                pattern,
                                format!("{VALUE}::Array(::std::vec![{}])", values.join(", ")),
                                write_tuple(&binds),
                            )
                        }
                    }
                    VariantKind::Named(fields) => {
                        // Variant fields keep their Rust names on the wire.
                        let keyed = keyed_fields(fields, None);
                        let mut inner = format!("{{\nlet mut __inner = {MAP}::new();\n");
                        for (key, f) in &keyed {
                            inner.push_str(&format!(
                                "__inner.insert(::std::string::String::from({key:?}), {TO_VALUE}({f}));\n"
                            ));
                        }
                        inner.push_str(&format!("{VALUE}::Object(__inner)\n}}"));
                        (
                            format!("{name}::{vname} {{ {} }}", fields.join(", ")),
                            inner,
                            write_named(&keyed, str::to_string),
                        )
                    }
                };
                value_arms.push_str(&format!(
                    "{pattern} => {{\n\
                     let mut __m = {MAP}::new();\n\
                     __m.insert(::std::string::String::from({wire:?}), {content});\n\
                     {VALUE}::Object(__m)\n}}\n"
                ));
                write_arms.push_str(&format!(
                    "{pattern} => {{\n\
                     __w.begin_object();\n\
                     __w.key({wire:?});\n\
                     {write_content}\
                     __w.end_object();\n}}\n"
                ));
            }
            (
                format!("match self {{\n{value_arms}}}"),
                format!("match self {{\n{write_arms}}}"),
            )
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize<__S: ::serde::Serializer>(&self, __serializer: __S) \
         -> ::core::result::Result<__S::Ok, __S::Error> {{\n\
         __serializer.serialize_value({{\n{to_value}\n}})\n}}\n\
         fn write_json(&self, __w: &mut ::serde::__private::JsonWriter) {{\n{write}\n}}\n}}\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let rule = item.rename_all.as_deref();
    let (from_value, read) = match &item.body {
        Body::NamedStruct(fields) => {
            let keyed = keyed_fields(fields, rule);
            (
                format!(
                    "let mut __o = match __v {{\n\
                     {VALUE}::Object(m) => m,\n\
                     _ => {err},\n}};\n\
                     {OK}({ctor})",
                    err = de_err(name, "expected object"),
                    ctor = value_named(name, name, &keyed),
                ),
                read_named(name, name, &keyed),
            )
        }
        Body::TupleStruct(1) => (
            format!("{OK}({name}({}))", from_value_or_return("__v", name)),
            format!("{OK}({name}(::serde::__private::context({READ}(__r), {name:?})?))"),
        ),
        Body::TupleStruct(n) => (value_tuple(name, name, *n), read_tuple(name, name, *n)),
        Body::UnitStruct => (
            format!("let _ = __v;\n{OK}({name})"),
            format!("__r.skip_value()?;\n{OK}({name})"),
        ),
        Body::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut value_arms = String::new();
            let mut read_arms = String::new();
            for v in variants {
                let vname = &v.name;
                let wire = apply_rename(vname, rule);
                let ctor = format!("{name}::{vname}");
                match &v.kind {
                    VariantKind::Unit => {
                        unit_arms.push_str(&format!("{wire:?} => {OK}({ctor}),\n"));
                        // The `{"Variant": <anything>}` object form is accepted too.
                        value_arms.push_str(&format!("{wire:?} => {OK}({ctor}),\n"));
                        read_arms.push_str(&format!(
                            "{wire:?} => {{\n__r.skip_value()?;\n{OK}({ctor})\n}}\n"
                        ));
                    }
                    VariantKind::Tuple(1) => {
                        value_arms.push_str(&format!(
                            "{wire:?} => {OK}({ctor}({})),\n",
                            from_value_or_return("__v", &ctor)
                        ));
                        read_arms.push_str(&format!(
                            "{wire:?} => __r.read_or_skip_with(|__r| {OK}({ctor}(\
                             ::serde::__private::context({READ}(__r), {ctor:?})?)))?,\n"
                        ));
                    }
                    VariantKind::Tuple(n) => {
                        value_arms.push_str(&format!(
                            "{wire:?} => {{\n{}\n}}\n",
                            value_tuple(&ctor, &ctor, *n)
                        ));
                        read_arms.push_str(&format!(
                            "{wire:?} => __r.read_or_skip_with(|__r| {{\n{}\n}})?,\n",
                            read_tuple(&ctor, &ctor, *n)
                        ));
                    }
                    VariantKind::Named(fields) => {
                        let keyed = keyed_fields(fields, None);
                        value_arms.push_str(&format!(
                            "{wire:?} => {{\n\
                             let mut __o = match __v {{\n\
                             {VALUE}::Object(m) => m,\n\
                             _ => {err},\n}};\n\
                             {OK}({})\n}}\n",
                            value_named(&ctor, &ctor, &keyed),
                            err = de_err(&ctor, "expected object"),
                        ));
                        read_arms.push_str(&format!(
                            "{wire:?} => __r.read_or_skip_with(|__r| {{\n{}\n}})?,\n",
                            read_named(&ctor, &ctor, &keyed)
                        ));
                    }
                }
            }
            let unknown =
                |var: &str| format!("::std::format!(\"{name}: unknown variant {{:?}}\", {var})");
            (
                format!(
                    "match __v {{\n\
                     {VALUE}::String(__s) => match __s.as_str() {{\n{unit_arms}\
                     __other => {ERR}(<__D::Error as ::serde::de::Error>::custom({unknown_s})),\n}},\n\
                     {VALUE}::Object(__m) => {{\n\
                     if __m.len() != 1 {{\n\
                     {err_keys}\n}}\n\
                     let (__tag, __v) = match __m.into_iter().next() {{\n\
                     {SOME}(kv) => kv,\n\
                     ::core::option::Option::None => {err_shape},\n}};\n\
                     match __tag.as_str() {{\n{value_arms}\
                     __other => {ERR}(<__D::Error as ::serde::de::Error>::custom({unknown_o})),\n}}\n}},\n\
                     _ => {err_shape},\n}}",
                    unknown_s = unknown("__other"),
                    unknown_o = unknown("__other"),
                    err_keys = format!(
                        "return {ERR}(<__D::Error as ::serde::de::Error>::custom(\
                         ::std::format!(\"{name}: expected a single-key object, got {{}} keys\", __m.len())))"
                    ),
                    err_shape = de_err(name, "expected string or single-key object"),
                ),
                format!(
                    "match __r.peek_token() {{\n\
                     {SOME}(b'\"') => {{\n\
                     let __s = __r.str()?;\n\
                     match &*__s {{\n{unit_arms}\
                     __other => {ERR}(__r.error({unknown_s})),\n}}\n}}\n\
                     {SOME}(b'{{') => {{\n\
                     __r.begin_object()?;\n\
                     let mut __tag = ::core::option::Option::None;\n\
                     let mut __v = ::core::option::Option::None;\n\
                     // A repeated tag replaces the content; any other key is an error.\n\
                     while let {SOME}(__k) = __r.next_key()? {{\n\
                     if let {SOME}(__t) = &__tag {{\n\
                     if *__t != __k {{\n\
                     return {ERR}(__r.error(::std::format!(\
                     \"{name}: expected a single-key object, got keys {{:?}} and {{:?}}\", __t, __k)));\n\
                     }}\n}}\n\
                     __v = {SOME}(match &*__k {{\n{read_arms}\
                     __other => return {ERR}(__r.error({unknown_s})),\n}});\n\
                     __tag = {SOME}(__k);\n}}\n\
                     match __v {{\n\
                     {SOME}(v) => v,\n\
                     ::core::option::Option::None => {ERR}(__r.error(\"{name}: empty enum object\")),\n}}\n}}\n\
                     _ => {ERR}(__r.expected(\"{name} (string or single-key object)\")),\n}}",
                    unknown_s = unknown("__other"),
                ),
            )
        }
    };
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
         fn deserialize<__D: ::serde::Deserializer<'de>>(__deserializer: __D) \
         -> ::core::result::Result<Self, __D::Error> {{\n\
         let __v = __deserializer.into_value()?;\n{from_value}\n}}\n\
         fn read_json(__r: &mut ::serde::__private::JsonReader<'_>) \
         -> ::core::result::Result<Self, ::serde::__private::Error> {{\n{read}\n}}\n}}\n"
    )
}
