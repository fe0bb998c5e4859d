//! A hand-rolled Rust token scanner (no registry access means no `syn`, so
//! the lint suite works on a token stream, not a syntax tree).
//!
//! The scanner understands exactly as much Rust as the lints need: idents,
//! numbers, string/char literals (including raw strings and byte strings),
//! lifetimes, nested block comments, and a small set of multi-character
//! operators (`::`, `=>`, `==`, `!=`, `->`, `..`, `<=`, `>=`, `&&`, `||`).
//! Everything else is a single-character punct. Comments are returned
//! separately so the waiver parser can read them; they never appear in the
//! token stream, which means prose like "Instant of the next event" can
//! never trip a lint.

/// What kind of lexeme a [`Token`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `HashMap`, `set_timer`, ...).
    Ident,
    /// A numeric literal (dots are *not* consumed: `1.5` lexes as three
    /// tokens, which is fine — no lint reads float values).
    Number,
    /// A string literal (regular, raw, byte or raw-byte). Text is the
    /// contents without quotes.
    Str,
    /// A character literal.
    CharLit,
    /// A lifetime (`'a`).
    Lifetime,
    /// An operator or delimiter; multi-character for the handful of
    /// compound operators the lints match on.
    Punct,
}

/// One lexed token with its source line (1-based).
#[derive(Clone, Debug)]
pub struct Token {
    /// Lexeme class.
    pub kind: TokKind,
    /// Lexeme text (contents only for strings).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
    /// True when the token sits inside `#[cfg(test)]` / `#[test]` items or
    /// a `mod tests { ... }` block (marked in a post-pass, see
    /// [`mark_test_code`]).
    pub in_test: bool,
}

/// A comment (line or block) with the line it starts on.
#[derive(Clone, Debug)]
pub struct Comment {
    /// Comment text without the `//` / `/* */` markers.
    pub text: String,
    /// 1-based source line the comment starts on.
    pub line: u32,
}

/// Lex `src` into tokens and comments.
pub fn lex(src: &str) -> (Vec<Token>, Vec<Comment>) {
    let bytes: Vec<char> = src.chars().collect();
    let mut tokens = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = bytes.len();

    let push = |tokens: &mut Vec<Token>, kind: TokKind, text: String, line: u32| {
        tokens.push(Token {
            kind,
            text,
            line,
            in_test: false,
        });
    };

    while i < n {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                let start = i + 2;
                let mut j = start;
                while j < n && bytes[j] != '\n' {
                    j += 1;
                }
                comments.push(Comment {
                    text: bytes[start..j].iter().collect(),
                    line,
                });
                i = j;
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1;
                let mut j = start;
                while j < n && depth > 0 {
                    if bytes[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if j + 1 < n && bytes[j] == '/' && bytes[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                    } else if j + 1 < n && bytes[j] == '*' && bytes[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                comments.push(Comment {
                    text: bytes[start..j.saturating_sub(2).max(start)]
                        .iter()
                        .collect(),
                    line: start_line,
                });
                i = j;
            }
            '"' => {
                let (text, nl, j) = scan_string(&bytes, i + 1);
                push(&mut tokens, TokKind::Str, text, line);
                line += nl;
                i = j;
            }
            '\'' => {
                // Lifetime vs char literal: `'ident` not followed by a
                // closing quote is a lifetime.
                if i + 1 < n && (bytes[i + 1].is_alphanumeric() || bytes[i + 1] == '_') {
                    let mut j = i + 1;
                    while j < n && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                        j += 1;
                    }
                    if j < n && bytes[j] == '\'' {
                        // `'a'` — a char literal.
                        push(
                            &mut tokens,
                            TokKind::CharLit,
                            bytes[i + 1..j].iter().collect(),
                            line,
                        );
                        i = j + 1;
                    } else {
                        push(
                            &mut tokens,
                            TokKind::Lifetime,
                            bytes[i + 1..j].iter().collect(),
                            line,
                        );
                        i = j;
                    }
                } else if i + 1 < n && bytes[i + 1] == '\\' {
                    // Escaped char literal `'\n'`, `'\''`, `'\u{...}'`.
                    let mut j = i + 2;
                    if j < n {
                        j += 1; // the escaped character
                    }
                    if j < n && bytes[j - 1] == 'u' && bytes[j] == '{' {
                        while j < n && bytes[j] != '}' {
                            j += 1;
                        }
                        j += 1;
                    }
                    while j < n && bytes[j] != '\'' {
                        j += 1;
                    }
                    push(&mut tokens, TokKind::CharLit, String::new(), line);
                    i = j + 1;
                } else {
                    // Bare quote (shouldn't happen in valid Rust): skip.
                    i += 1;
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < n && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                    j += 1;
                }
                let word: String = bytes[i..j].iter().collect();
                // Raw / byte string prefixes: r"..", r#".."#, b"..", br#"..
                let is_raw_prefix = matches!(word.as_str(), "r" | "b" | "br" | "rb");
                if is_raw_prefix && j < n && (bytes[j] == '"' || bytes[j] == '#') {
                    let mut hashes = 0usize;
                    let mut k = j;
                    while k < n && bytes[k] == '#' {
                        hashes += 1;
                        k += 1;
                    }
                    if k < n && bytes[k] == '"' {
                        let raw = word.contains('r');
                        if raw {
                            let (text, nl, end) = scan_raw_string(&bytes, k + 1, hashes);
                            push(&mut tokens, TokKind::Str, text, line);
                            line += nl;
                            i = end;
                        } else {
                            let (text, nl, end) = scan_string(&bytes, k + 1);
                            push(&mut tokens, TokKind::Str, text, line);
                            line += nl;
                            i = end;
                        }
                        continue;
                    }
                    // `r#ident` raw identifier.
                    if hashes == 1 && k < n && (bytes[k].is_alphabetic() || bytes[k] == '_') {
                        let mut m = k;
                        while m < n && (bytes[m].is_alphanumeric() || bytes[m] == '_') {
                            m += 1;
                        }
                        push(
                            &mut tokens,
                            TokKind::Ident,
                            bytes[k..m].iter().collect(),
                            line,
                        );
                        i = m;
                        continue;
                    }
                }
                push(&mut tokens, TokKind::Ident, word, line);
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < n && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                    j += 1;
                }
                push(
                    &mut tokens,
                    TokKind::Number,
                    bytes[i..j].iter().collect(),
                    line,
                );
                i = j;
            }
            _ => {
                // Compound operators the lints care about; everything else
                // is a single character.
                let two: String = bytes[i..n.min(i + 2)].iter().collect();
                let op = match two.as_str() {
                    "::" | "=>" | "==" | "!=" | "->" | ".." | "<=" | ">=" | "&&" | "||" => {
                        Some(two)
                    }
                    _ => None,
                };
                if let Some(op) = op {
                    push(&mut tokens, TokKind::Punct, op, line);
                    i += 2;
                } else {
                    push(&mut tokens, TokKind::Punct, c.to_string(), line);
                    i += 1;
                }
            }
        }
    }
    (tokens, comments)
}

/// Scan a regular (escaped) string starting just after the opening quote.
/// Returns (contents, newlines consumed, index just past the closing quote).
fn scan_string(bytes: &[char], start: usize) -> (String, u32, usize) {
    let mut j = start;
    let mut newlines = 0u32;
    let n = bytes.len();
    let mut text = String::new();
    while j < n {
        match bytes[j] {
            '\\' => {
                j += 2; // skip the escaped character (good enough: `\"`, `\\`, ...)
            }
            '"' => {
                return (text, newlines, j + 1);
            }
            c => {
                if c == '\n' {
                    newlines += 1;
                }
                text.push(c);
                j += 1;
            }
        }
    }
    (text, newlines, j)
}

/// Scan a raw string with `hashes` trailing hash marks, starting just after
/// the opening quote.
fn scan_raw_string(bytes: &[char], start: usize, hashes: usize) -> (String, u32, usize) {
    let n = bytes.len();
    let mut j = start;
    let mut newlines = 0u32;
    let mut text = String::new();
    while j < n {
        if bytes[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < n && bytes[k] == '#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (text, newlines, k);
            }
        }
        if bytes[j] == '\n' {
            newlines += 1;
        }
        text.push(bytes[j]);
        j += 1;
    }
    (text, newlines, j)
}

/// Mark tokens inside test-only code: `#[cfg(test)]` items, `#[test]`
/// functions and `mod tests { ... }` blocks. Lints skip marked tokens —
/// tests may legitimately use wall clocks, unordered iteration, or
/// construct unhandled message variants.
pub fn mark_test_code(tokens: &mut [Token]) {
    let mut i = 0usize;
    while i < tokens.len() {
        let is_cfg_test = tokens[i].text == "#"
            && matches_seq(tokens, i + 1, &["[", "cfg", "(", "test", ")", "]"]);
        let is_test_attr = tokens[i].text == "#" && matches_seq(tokens, i + 1, &["[", "test", "]"]);
        let is_mod_tests = tokens[i].kind == TokKind::Ident
            && tokens[i].text == "mod"
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokKind::Ident && t.text == "tests")
            && tokens.get(i + 2).is_some_and(|t| t.text == "{");
        if is_cfg_test || is_test_attr {
            // Skip past this attribute and any further attributes, then
            // mark through the end of the item (`;` or the matching brace).
            let mut j = skip_attr(tokens, i);
            while j < tokens.len() && tokens[j].text == "#" {
                j = skip_attr(tokens, j);
            }
            let end = item_end(tokens, j);
            for t in tokens[i..end].iter_mut() {
                t.in_test = true;
            }
            i = end;
        } else if is_mod_tests {
            let end = item_end(tokens, i);
            for t in tokens[i..end].iter_mut() {
                t.in_test = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
}

/// True when `tokens[at..]` begins with exactly the given texts.
fn matches_seq(tokens: &[Token], at: usize, texts: &[&str]) -> bool {
    texts
        .iter()
        .enumerate()
        .all(|(k, want)| tokens.get(at + k).is_some_and(|t| t.text == *want))
}

/// Index just past an attribute starting at `#`.
fn skip_attr(tokens: &[Token], at: usize) -> usize {
    let mut j = at + 1; // at the `[`
    if tokens.get(j).map(|t| t.text.as_str()) != Some("[") {
        return at + 1;
    }
    let mut depth = 0i32;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Index just past the item starting at `at`: either just past the first
/// top-level `;`, or just past the matching `}` of the first brace block.
fn item_end(tokens: &[Token], at: usize) -> usize {
    let mut j = at;
    let mut depth = 0i32;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            ";" if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Index just past a balanced group opening at `at` (which must be `(`,
/// `[` or `{`); `at + 1` if the token there is not an opener.
pub fn skip_group(tokens: &[Token], at: usize) -> usize {
    let (open, close) = match tokens.get(at).map(|t| t.text.as_str()) {
        Some("(") => ("(", ")"),
        Some("[") => ("[", "]"),
        Some("{") => ("{", "}"),
        _ => return at + 1,
    };
    let mut depth = 0i32;
    let mut j = at;
    while j < tokens.len() {
        if tokens[j].text == open {
            depth += 1;
        } else if tokens[j].text == close {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).0.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_ops_and_paths() {
        assert_eq!(
            texts("std::time::Instant::now()"),
            vec!["std", "::", "time", "::", "Instant", "::", "now", "(", ")"]
        );
        assert_eq!(
            texts("a => b | c == d"),
            vec!["a", "=>", "b", "|", "c", "==", "d"]
        );
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let (tokens, comments) = lex("// Instant of the next event\nlet x = 1; /* block\nmore */");
        assert!(tokens.iter().all(|t| t.text != "Instant"));
        assert_eq!(comments.len(), 2);
        assert_eq!(comments[0].line, 1);
        assert!(comments[0].text.contains("Instant"));
        assert_eq!(comments[1].line, 2);
    }

    #[test]
    fn strings_and_chars_and_lifetimes() {
        let (tokens, _) =
            lex(r#"let s = "Instant \" quoted"; let c = 'x'; fn f<'a>(v: &'a str) {}"#);
        let strs: Vec<_> = tokens.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(tokens.iter().any(|t| t.kind == TokKind::CharLit));
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        // The `Instant` inside the string literal is not an ident token.
        assert!(!tokens
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "Instant"));
    }

    #[test]
    fn raw_strings() {
        let (tokens, _) = lex(r##"let s = r#"Instant "raw" text"#; let t = r"plain";"##);
        let strs: Vec<_> = tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(strs.len(), 2);
        assert!(strs[0].contains("Instant"));
        assert!(!tokens
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "Instant"));
    }

    #[test]
    fn lines_are_tracked() {
        let (tokens, _) = lex("a\nb\n\nc");
        let lines: Vec<u32> = tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn test_code_is_marked() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { let x = 1; }\n}\nfn live2() {}";
        let (mut tokens, _) = lex(src);
        mark_test_code(&mut tokens);
        let live: Vec<_> = tokens
            .iter()
            .filter(|t| !t.in_test)
            .map(|t| t.text.clone())
            .collect();
        assert!(live.contains(&"live".to_string()));
        assert!(live.contains(&"live2".to_string()));
        assert!(!live.contains(&"x".to_string()));
    }

    #[test]
    fn test_attr_marks_single_fn() {
        let src = "#[test]\nfn t() { wall(); }\nfn live() {}";
        let (mut tokens, _) = lex(src);
        mark_test_code(&mut tokens);
        assert!(tokens.iter().any(|t| t.text == "wall" && t.in_test));
        assert!(tokens.iter().any(|t| t.text == "live" && !t.in_test));
    }

    #[test]
    fn skip_group_balances() {
        let (tokens, _) = lex("(a, (b, c), d) e");
        let end = skip_group(&tokens, 0);
        assert_eq!(tokens[end].text, "e");
    }
}
