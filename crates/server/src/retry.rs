//! Client-side redirect hint for writes refused by a non-primary.
//!
//! `not_primary` and `fenced` are **terminal-with-redirect**: resending
//! a write to a read-only follower (or a fenced ex-primary) can never
//! succeed no matter how long the client waits — the correct reaction
//! is to re-route to the primary. The refusal's detail may carry the
//! current primary's address as a `(primary=HOST:PORT)` suffix;
//! [`redirect_target`] extracts it so a networked client can reconnect
//! and resubmit the same batch seq (dedupe-protected) without operator
//! help.

/// Extracts the redirect target from a `not_primary`/`fenced` refusal
/// detail. Servers that know the current primary append
/// `(primary=HOST:PORT)` to the detail; a networked client reconnects
/// there and resubmits the same batch seq (the seq-dedupe gate absorbs
/// a duplicate if the original was actually applied).
pub fn redirect_target(detail: &str) -> Option<&str> {
    let start = detail.rfind("(primary=")? + "(primary=".len();
    let rest = &detail[start..];
    let end = rest.find(')')?;
    let addr = &rest[..end];
    if addr.is_empty() {
        None
    } else {
        Some(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redirect_target_parses_the_primary_suffix() {
        assert_eq!(
            redirect_target(
                "read-only follower; route writes to the primary (primary=10.0.0.7:9099)"
            ),
            Some("10.0.0.7:9099")
        );
        assert_eq!(
            redirect_target("fenced at epoch 2 by epoch 3 (primary=127.0.0.1:4000)"),
            Some("127.0.0.1:4000")
        );
        // The *last* suffix wins if a detail nests one in free text.
        assert_eq!(redirect_target("(primary=stale:1) updated (primary=fresh:2)"), Some("fresh:2"));
        assert_eq!(redirect_target("read-only follower"), None, "no hint, no redirect");
        assert_eq!(redirect_target("oops (primary=)"), None, "empty hint is no hint");
        assert_eq!(redirect_target("oops (primary=unterminated"), None);
    }
}
