//! `persist-before-ack` — acceptor replies must follow a persist call and
//! wait for the sync that covers it.
//!
//! The durable storage plane's central invariant is that an acceptor never
//! acknowledges a Promise or a vote until the corresponding WAL record is
//! on disk: a `PrepareReply`/`AcceptReply` sent before the `persist_*`
//! call would let the proposer count a quorum member whose state can
//! evaporate in a crash, which is exactly the lost-promise anomaly the WAL
//! exists to rule out. A vote's copy to a member's client (`Msg::VoteCopy`)
//! is an acknowledgement too: the client counts it towards a decision. This
//! lint finds every non-test *construction* of the [`ACKS`] and requires an
//! earlier call to an ident starting with `persist` inside the same
//! function body. Match arms that *destructure* those variants
//! (proposer-side handling) are not constructions and are skipped — a
//! pattern is recognised by a `..` rest inside the braces or a `=>` / `|`
//! after them.
//!
//! A `persist*` call only *appends* the record; one sync per batch of held
//! acknowledgements makes it durable. So the reply must be handed to the
//! release path ([`RELEASE_PATH`]), which holds it until that sync, and a
//! reply that goes straight to `ctx.send` after the append is still a
//! finding: it would leave in the same turn, before any sync. The reply's
//! destination is the call it is an argument of, seen through enum-variant
//! wrappers such as `Msg::Paxos(..)`.
//!
//! In-memory harnesses that deliberately skip durability waive the finding
//! with `lint:allow(persist-before-ack)`, keeping the exception explicit.

use crate::findings::Finding;
use crate::lexer::{self, TokKind, Token};
use crate::source::Workspace;

/// The service's release path for acceptor replies: it sends a reply at
/// once when nothing was appended for it, and otherwise holds it until a
/// sync covers its record.
pub const RELEASE_PATH: &str = "ack_after_sync";

/// The acknowledgements an acceptor sends, as `(enum, variant)`: a promise,
/// a vote, and a vote's copy to a member's client.
pub const ACKS: [(&str, &str); 3] = [
    ("PaxosMsg", "PrepareReply"),
    ("PaxosMsg", "AcceptReply"),
    ("Msg", "VoteCopy"),
];

/// Run the persist-before-ack lint over the workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        let toks = &file.tokens;
        let bodies = fn_body_ranges(toks);
        for i in 0..toks.len() {
            let t = &toks[i];
            // Only the message variants carry the ack; `ProposerEvent::*`
            // constructions are the proposer ingesting replies, not acks.
            let Some(&(enum_name, _)) = ACKS.iter().find(|(enum_name, variant)| {
                t.text == *variant
                    && i >= 2
                    && toks[i - 1].text == "::"
                    && toks[i - 2].text == *enum_name
            }) else {
                continue;
            };
            if t.in_test {
                continue;
            }
            if toks.get(i + 1).is_none_or(|n| n.text != "{") {
                continue;
            }
            let end = lexer::skip_group(toks, i + 1);
            if is_pattern(toks, i + 1, end) {
                continue;
            }
            // Innermost enclosing fn body (closures live inside their fn).
            let Some(&(start, _)) = bodies
                .iter()
                .filter(|(s, e)| *s <= i && i < *e)
                .max_by_key(|(s, _)| *s)
            else {
                continue;
            };
            let persisted = (start..i).any(|k| {
                toks[k].kind == TokKind::Ident
                    && toks[k].text.starts_with("persist")
                    && toks.get(k + 1).is_some_and(|n| n.text == "(")
            });
            let message = if !persisted {
                format!(
                    "`{enum_name}::{}` is constructed with no preceding `persist*(...)` call in this handler — the acceptor must be durable before it acks",
                    t.text
                )
            } else if sent_by_ctx(toks, i - 2, start) {
                format!(
                    "`{enum_name}::{}` goes straight to `ctx.send` after a deferred `persist*(...)` append — hand it to `{RELEASE_PATH}` so it leaves only once a sync covers its record",
                    t.text
                )
            } else {
                continue;
            };
            out.push(Finding {
                lint: super::PERSIST_BEFORE_ACK,
                rel: file.rel.clone(),
                line: t.line,
                message,
            });
        }
    }
    out
}

/// Whether the reply constructed at token `at` (inside the fn body starting
/// at `floor`) is an argument of `ctx.send(..)`, seen through enum-variant
/// wrappers (`Msg::Paxos(..)`, `Some(..)`).
fn sent_by_ctx(toks: &[Token], at: usize, floor: usize) -> bool {
    let mut at = at;
    loop {
        let Some(callee) = unclosed_paren(toks, at, floor).and_then(|open| open.checked_sub(1))
        else {
            return false;
        };
        if toks[callee].kind != TokKind::Ident {
            return false;
        }
        if !toks[callee]
            .text
            .starts_with(|c: char| c.is_ascii_uppercase())
        {
            return callee >= 2
                && toks[callee].text == "send"
                && toks[callee - 1].text == "."
                && toks[callee - 2].text == "ctx";
        }
        at = path_start(toks, callee);
    }
}

/// The innermost `(` left open between `floor` and `at`, unless a `{`,
/// `[` or a statement boundary encloses `at` first.
fn unclosed_paren(toks: &[Token], at: usize, floor: usize) -> Option<usize> {
    let mut depth = 0usize;
    for k in (floor..at).rev() {
        match toks[k].text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" if depth > 0 => depth -= 1,
            "(" => return Some(k),
            "[" | "{" => return None,
            ";" if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// The first token of the `a::b::c` path ending at `at`.
fn path_start(toks: &[Token], at: usize) -> usize {
    let mut start = at;
    while start >= 2 && toks[start - 1].text == "::" && toks[start - 2].kind == TokKind::Ident {
        start -= 2;
    }
    start
}

/// True when the brace group at `open..end` is a match *pattern* rather
/// than a struct-literal construction: a `..` rest pattern inside, or a
/// `=>` / `|` immediately after the closing brace.
fn is_pattern(toks: &[Token], open: usize, end: usize) -> bool {
    if toks[open + 1..end.min(toks.len())]
        .iter()
        .any(|t| t.text == "..")
    {
        return true;
    }
    toks.get(end)
        .is_some_and(|t| t.text == "=>" || t.text == "|")
}

/// Every non-test `fn` body as a token range `(start, end)`.
fn fn_body_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "fn"
            && !toks[i].in_test
            && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
        {
            let mut j = i + 2;
            while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
                if toks[j].text == "(" || toks[j].text == "[" {
                    j = lexer::skip_group(toks, j);
                } else {
                    j += 1;
                }
            }
            if j < toks.len() && toks[j].text == "{" {
                let end = lexer::skip_group(toks, j);
                out.push((j + 1, end.saturating_sub(1)));
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let ws = Workspace::from_sources(&[("crates/core/src/x.rs", src)], &[]);
        run(&ws)
    }

    #[test]
    fn unpersisted_reply_fires() {
        let src = "fn on_prepare(&mut self) {\n\
                   let o = self.acceptor.handle_prepare(g, p, b);\n\
                   self.send(Msg::Paxos(PaxosMsg::PrepareReply { group: g, position: p, ballot: b, promised: o.promised, next_bal: o.next_bal, last_vote: o.last_vote }));\n\
                   }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("PrepareReply"));
        assert!(f[0].message.contains("persist"));
    }

    #[test]
    fn persist_call_before_the_reply_is_clean() {
        let src = "fn on_accept(&mut self) {\n\
                   let ok = !accepted || core.persist_vote(g, p, b, &v);\n\
                   if ok { self.send(Msg::Paxos(PaxosMsg::AcceptReply { group: g, position: p, ballot: b, accepted })); }\n\
                   }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn destructuring_match_arms_are_not_constructions() {
        let src = "fn on_reply(&mut self, m: PaxosMsg) {\n\
                   match m {\n\
                   PaxosMsg::PrepareReply { group, position, ballot, promised, next_bal, last_vote } => self.absorb(group),\n\
                   PaxosMsg::AcceptReply { accepted, .. } => self.tally(accepted),\n\
                   _ => {}\n\
                   }\n\
                   }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn proposer_event_constructions_are_out_of_scope() {
        let src = "fn to_event(&self) -> ProposerEvent {\n\
                   ProposerEvent::PrepareReply { group: g, position: p, ballot: b, promised: true, next_bal: n, last_vote: None }\n\
                   }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn a_reply_handed_to_the_release_path_after_a_deferred_append_is_clean() {
        let src = "fn on_accept(&mut self, ctx: &mut Context<Msg>) {\n\
                   let held = (accepted && core.persist_vote(g, p, b, &v)).then(|| core.incarnation());\n\
                   self.ack_after_sync(ctx, from, held, Msg::Paxos(PaxosMsg::AcceptReply { group: g, position: p, ballot: b, accepted }));\n\
                   }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn a_reply_sent_straight_to_ctx_send_after_a_deferred_append_fires() {
        let src = "fn on_accept(&mut self, ctx: &mut Context<Msg>) {\n\
                   let held = accepted && core.persist_vote(g, p, b, &v);\n\
                   ctx.send(from, Msg::Paxos(PaxosMsg::AcceptReply { group: g, position: p, ballot: b, accepted }));\n\
                   }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("ctx.send"), "{f:?}");
        assert!(f[0].message.contains(RELEASE_PATH), "{f:?}");
    }

    #[test]
    fn a_vote_copy_sent_straight_to_ctx_send_fires_and_one_held_with_the_vote_does_not() {
        let src = "fn on_accept(&mut self, ctx: &mut Context<Msg>) {\n\
                   let held = accepted && core.persist_vote(g, p, b, &v);\n\
                   self.ack_after_sync(ctx, from, held, Msg::Paxos(PaxosMsg::AcceptReply { group: g, position: p, ballot: b, accepted }));\n\
                   self.ack_after_sync(ctx, client, held, Msg::VoteCopy { group: g, position: p, ballot: b, entry: e, promotions: 0 });\n\
                   ctx.send(client, Msg::VoteCopy { group: g, position: p, ballot: b, entry: e, promotions: 0 });\n\
                   }";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Msg::VoteCopy"), "{f:?}");
        assert!(f[0].message.contains("ctx.send"), "{f:?}");
    }

    #[test]
    fn persist_after_the_reply_still_fires() {
        let src = "fn on_prepare(&mut self) {\n\
                   self.send(Msg::Paxos(PaxosMsg::PrepareReply { group: g, position: p, ballot: b, promised: true, next_bal: n, last_vote: None }));\n\
                   core.persist_promise(g, p, b);\n\
                   }";
        assert_eq!(findings(src).len(), 1);
    }
}
