//! Where a file sits in the workspace, and which of its tokens are test
//! code.
//!
//! [`FileContext`] classifies a repo-relative path into crate + section so
//! rules can scope themselves ("artifact-producing crates only", "the
//! serve request path"). [`SourceFile`] bundles the text, the token
//! stream, and a per-token *test mask*: tokens inside `#[cfg(test)]` /
//! `#[test]` items are excluded from every rule, because the contracts
//! cover production paths — tests may `unwrap()` and iterate `HashMap`s
//! freely.

use crate::diagnostics::{Diagnostic, Severity};
use crate::lexer::{lex, Token, TokenKind};

/// Which part of a crate a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// `crates/<name>/src/**` (excluding `src/bin`).
    Src,
    /// `crates/<name>/src/bin/**`.
    Bin,
    /// `crates/<name>/tests/**` or the workspace `tests/`.
    Tests,
    /// `crates/<name>/benches/**`.
    Benches,
    /// `crates/<name>/examples/**` or the workspace `examples/`.
    Examples,
    /// Anything else (build scripts, stray files).
    Other,
}

/// Workspace position of one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileContext {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Crate directory name under `crates/` (`"mining"`, `"serve"`, ...);
    /// `None` for workspace-level `tests/` and `examples/`.
    pub krate: Option<String>,
    /// Section within the crate.
    pub section: Section,
    /// Final path component (`"router.rs"`).
    pub file_name: String,
}

impl FileContext {
    /// Classify a repo-relative path (`crates/mining/src/diffset.rs`).
    pub fn classify(rel_path: &str) -> Self {
        let rel_path = rel_path.replace('\\', "/");
        let parts: Vec<&str> = rel_path.split('/').collect();
        let file_name = parts.last().copied().unwrap_or("").to_string();
        let (krate, section) = match parts.as_slice() {
            ["crates", name, "src", "bin", ..] => (Some(*name), Section::Bin),
            ["crates", name, "src", ..] => (Some(*name), Section::Src),
            ["crates", name, "tests", ..] => (Some(*name), Section::Tests),
            ["crates", name, "benches", ..] => (Some(*name), Section::Benches),
            ["crates", name, "examples", ..] => (Some(*name), Section::Examples),
            ["tests", ..] => (None, Section::Tests),
            ["examples", ..] => (None, Section::Examples),
            _ => (None, Section::Other),
        };
        let krate = krate.map(str::to_string);
        FileContext { rel_path, krate, section, file_name }
    }

    /// True when the file is production code (library or binary source).
    pub fn is_production(&self) -> bool {
        matches!(self.section, Section::Src | Section::Bin)
    }
}

/// One lexed source file with its context and test mask, ready for rules.
#[derive(Debug)]
pub struct SourceFile<'a> {
    /// Workspace position.
    pub context: FileContext,
    /// Raw source text.
    pub text: &'a str,
    /// Token stream from [`lex`].
    pub tokens: Vec<Token>,
    /// `in_test[i]` — token `i` is inside a `#[cfg(test)]`/`#[test]` item.
    pub in_test: Vec<bool>,
}

impl<'a> SourceFile<'a> {
    /// Lex `text` and compute the test mask.
    pub fn parse(context: FileContext, text: &'a str) -> Self {
        let tokens = lex(text);
        let in_test = test_mask(text, &tokens);
        SourceFile { context, text, tokens, in_test }
    }

    /// Text of token `i`.
    pub fn tok(&self, i: usize) -> &str {
        let span = self.tokens[i].span;
        &self.text[span.start..span.end]
    }

    /// True when token `i` is an identifier spelling `word`.
    pub fn is_ident(&self, i: usize, word: &str) -> bool {
        self.tokens[i].kind == TokenKind::Ident && self.tok(i) == word
    }

    /// True when token `i` is the punctuation `c`.
    pub fn is_punct(&self, i: usize, c: char) -> bool {
        self.tokens[i].kind == TokenKind::Punct(c)
    }

    /// The trimmed source line containing byte offset `at`.
    pub fn line_snippet(&self, at: usize) -> String {
        let start = self.text[..at].rfind('\n').map_or(0, |p| p + 1);
        let end = self.text[at..].find('\n').map_or(self.text.len(), |p| at + p);
        self.text[start..end].trim().to_string()
    }

    /// Build a [`Diagnostic`] anchored at token `i`.
    pub fn diagnostic(&self, rule: &'static str, i: usize, message: String) -> Diagnostic {
        let span = self.tokens[i].span;
        Diagnostic {
            rule,
            severity: Severity::Error,
            path: self.context.rel_path.clone(),
            line: span.line,
            col: span.col,
            message,
            snippet: self.line_snippet(span.start),
        }
    }
}

/// Compute which tokens sit inside `#[cfg(test)]` / `#[test]` items.
///
/// Token-level heuristic: for every outer attribute whose argument tokens
/// mention `test` under `cfg(...)` — or that is exactly `#[test]` — find
/// the attributed item's body (the first `{` at angle-free depth 0 after
/// the attribute, brace-matched to its close) and mark that whole region.
/// `#[cfg(test)] mod tests { ... }` and `#[test] fn case() { ... }` both
/// land here; false negatives degrade to extra diagnostics (visible),
/// never to silently skipped production code.
fn test_mask(text: &str, tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let tok = |i: usize| {
        let span = tokens[i].span;
        &text[span.start..span.end]
    };
    let mut i = 0;
    while i + 1 < tokens.len() {
        // Outer attribute start: `#` `[` (not the inner `#![...]` form).
        if tokens[i].kind != TokenKind::Punct('#') || tokens[i + 1].kind != TokenKind::Punct('[')
        {
            i += 1;
            continue;
        }
        // Collect the attribute body up to the matching `]`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut attr_idents: Vec<&str> = Vec::new();
        while j < tokens.len() {
            match tokens[j].kind {
                TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident => attr_idents.push(tok(j)),
                _ => {}
            }
            j += 1;
        }
        if j >= tokens.len() {
            break; // unterminated attribute
        }
        let is_test_attr = attr_idents.as_slice() == ["test"]
            || (attr_idents.first() == Some(&"cfg") && attr_idents.contains(&"test"));
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Find the attributed item's block: first `{` at brace depth 0
        // after the attribute (skipping any further attributes), matched to
        // its closing brace. Items without a block (`;`-terminated) end at
        // the `;` instead.
        let mut k = j + 1;
        let mut brace_depth = 0usize;
        let mut body_start = None;
        while k < tokens.len() {
            match tokens[k].kind {
                TokenKind::Punct('{') => {
                    brace_depth += 1;
                    if body_start.is_none() {
                        body_start = Some(k);
                    }
                }
                TokenKind::Punct('}') => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if body_start.is_some() && brace_depth == 0 {
                        break;
                    }
                }
                TokenKind::Punct(';') if body_start.is_none() => break,
                _ => {}
            }
            k += 1;
        }
        let end = k.min(tokens.len().saturating_sub(1));
        for slot in mask.iter_mut().take(end + 1).skip(i) {
            *slot = true;
        }
        i = end + 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(path: &str) -> FileContext {
        FileContext::classify(path)
    }

    #[test]
    fn classification_covers_the_workspace_layout() {
        let c = ctx("crates/mining/src/diffset.rs");
        assert_eq!(c.krate.as_deref(), Some("mining"));
        assert_eq!(c.section, Section::Src);
        assert_eq!(c.file_name, "diffset.rs");

        assert_eq!(ctx("crates/serve/src/bin/serve.rs").section, Section::Bin);
        assert_eq!(ctx("crates/serve/tests/http_properties.rs").section, Section::Tests);
        assert_eq!(ctx("crates/bench/benches/ablation_mining.rs").section, Section::Benches);
        assert_eq!(ctx("tests/determinism.rs").section, Section::Tests);
        assert!(ctx("tests/determinism.rs").krate.is_none());
        assert_eq!(ctx("examples/quickstart.rs").section, Section::Examples);
        assert_eq!(ctx("build.rs").section, Section::Other);
        assert!(ctx("crates/core/src/lib.rs").is_production());
        assert!(!ctx("tests/determinism.rs").is_production());
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let src = "fn prod() { a.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { b.unwrap(); }\n}\n\
                   fn prod2() { c.unwrap(); }";
        let file = SourceFile::parse(ctx("crates/serve/src/x.rs"), src);
        let unwraps: Vec<(usize, bool)> = file
            .tokens
            .iter()
            .enumerate()
            .filter(|(i, t)| t.kind == TokenKind::Ident && file.tok(*i) == "unwrap")
            .map(|(i, _)| (i, file.in_test[i]))
            .collect();
        assert_eq!(unwraps.len(), 3);
        assert!(!unwraps[0].1, "production unwrap before the test mod");
        assert!(unwraps[1].1, "unwrap inside #[cfg(test)] mod");
        assert!(!unwraps[2].1, "production unwrap after the test mod");
    }

    #[test]
    fn test_fns_and_cfg_any_variants_are_masked() {
        let src = "#[test]\nfn case() { x.unwrap(); }\nfn prod() { y.unwrap(); }\n\
                   #[cfg(any(test, feature = \"x\"))]\nfn gated() { z.unwrap(); }";
        let file = SourceFile::parse(ctx("crates/serve/src/x.rs"), src);
        let flags: Vec<bool> = file
            .tokens
            .iter()
            .enumerate()
            .filter(|(i, t)| t.kind == TokenKind::Ident && file.tok(*i) == "unwrap")
            .map(|(i, _)| file.in_test[i])
            .collect();
        assert_eq!(flags, vec![true, false, true]);
    }

    #[test]
    fn non_test_attributes_do_not_mask() {
        let src = "#[derive(Debug)]\nstruct S { x: u32 }\nfn f(s: S) { s.x.unwrap(); }";
        let file = SourceFile::parse(ctx("crates/serve/src/x.rs"), src);
        assert!(file.in_test.iter().all(|&b| !b));
    }
}
