//! IC 8 — *Recent replies*.
//!
//! The most recent Comments that directly reply to any of the start
//! person's Messages. Sort: comment creation desc, comment id asc;
//! limit 20.

use snb_engine::TopK;
use snb_store::Store;

snb_core::query_params! {
    /// Parameters of IC 8.
    #[derive(Copy)]
    pub struct Params {
        /// Start person (raw id).
        person_id: u64 = "personId",
    }
}

/// One result row of IC 8.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Replier id.
    pub person_id: u64,
    /// Replier first name.
    pub person_first_name: String,
    /// Replier last name.
    pub person_last_name: String,
    /// Comment creation timestamp.
    pub comment_creation_date: snb_core::DateTime,
    /// Comment id.
    pub comment_id: u64,
    /// Comment content.
    pub comment_content: String,
}

const LIMIT: usize = 20;

/// Runs IC 8.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(start) = store.person(params.person_id) else { return Vec::new() };
    let mut tk = TopK::new(LIMIT);
    for m in store.person_messages.targets_of(start) {
        for c in store.message_replies.targets_of(m) {
            let date = store.messages.creation_date[c as usize];
            let cid = store.messages.id[c as usize];
            let key = (std::cmp::Reverse(date), cid);
            if !tk.would_accept(&key) {
                continue;
            }
            let replier = store.messages.creator[c as usize] as usize;
            tk.push(
                key,
                Row {
                    person_id: store.persons.id[replier],
                    person_first_name: store.persons.first_name[replier].to_string(),
                    person_last_name: store.persons.last_name[replier].to_string(),
                    comment_creation_date: date,
                    comment_id: cid,
                    comment_content: store.messages.content[c as usize].to_string(),
                },
            );
        }
    }
    tk.into_sorted()
}

/// Naive reference: full comment scan testing the parent's creator.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    use snb_store::{Ix, NONE};
    let Ok(start) = store.person(params.person_id) else { return Vec::new() };
    let mut items = Vec::new();
    for c in 0..store.messages.len() as Ix {
        let parent = store.messages.reply_of[c as usize];
        if parent == NONE || store.messages.creator[parent as usize] != start {
            continue;
        }
        let replier = store.messages.creator[c as usize] as usize;
        let row = Row {
            person_id: store.persons.id[replier],
            person_first_name: store.persons.first_name[replier].to_string(),
            person_last_name: store.persons.last_name[replier].to_string(),
            comment_creation_date: store.messages.creation_date[c as usize],
            comment_id: store.messages.id[c as usize],
            comment_content: store.messages.content[c as usize].to_string(),
        };
        items.push(((std::cmp::Reverse(row.comment_creation_date), row.comment_id), row));
    }
    snb_engine::topk::sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::store;
    use snb_store::Ix;

    fn replied_person(s: &Store) -> u64 {
        let p = (0..s.persons.len() as Ix)
            .max_by_key(|&p| {
                s.person_messages.targets_of(p).map(|m| s.message_replies.degree(m)).sum::<usize>()
            })
            .unwrap();
        s.persons.id[p as usize]
    }

    #[test]
    fn replies_target_start_persons_messages() {
        let s = store();
        let pid = replied_person(s);
        let start = s.person(pid).unwrap();
        let rows = run(s, &Params { person_id: pid });
        assert!(!rows.is_empty());
        for r in &rows {
            let c = s.message(r.comment_id).unwrap();
            let parent = s.messages.reply_of[c as usize];
            assert_ne!(parent, snb_store::NONE);
            assert_eq!(s.messages.creator[parent as usize], start);
        }
    }

    #[test]
    fn sorted_and_limited() {
        let s = store();
        let rows = run(s, &Params { person_id: replied_person(s) });
        assert!(rows.len() <= 20);
        for w in rows.windows(2) {
            assert!(
                w[0].comment_creation_date > w[1].comment_creation_date
                    || (w[0].comment_creation_date == w[1].comment_creation_date
                        && w[0].comment_id < w[1].comment_id)
            );
        }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = store();
        let p = Params { person_id: replied_person(s) };
        assert_eq!(run(s, &p), run_naive(s, &p));
    }
}
