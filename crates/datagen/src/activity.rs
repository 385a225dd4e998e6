//! Activity generation: forums, posts, comment trees, likes
//! (Figure 2.2 step 6 — "person activities").
//!
//! Reproduced characteristics (spec §2.3.3.2):
//!
//! * activity volume is correlated with friend count — "people with a
//!   larger number of friends have a higher activity";
//! * post timestamps mix a uniform background with *flashmob events*:
//!   random (tag, time, intensity) triples generated up front; flashmob
//!   posts cluster around their event's time and carry its tag;
//! * message tags start from the forum's topics / author's interests and
//!   are enriched through the tag-correlation matrix;
//! * three forum flavours: personal walls (members = friends), image
//!   albums (image posts by the owner), topical groups (members drawn
//!   from the moderator's neighbourhood plus interest-correlated
//!   strangers).
//!
//! The pass is *sink-driven*: every record is emitted through
//! [`ActivitySink`] the moment it is generated, in a deterministic
//! order (forum, then its memberships, then each message immediately
//! followed by its likes). [`RawGraph`] implements the sink by pushing
//! (the classic materialising path used by [`crate::generate`]);
//! `snb-store`'s streaming builder implements it to ingest records
//! directly into columnar form without ever holding the raw activity in
//! memory. Both paths observe the identical record sequence, so the
//! resulting stores are equal.

use rustc_hash::FxHashMap;
use snb_core::datetime::{DateTime, MILLIS_PER_DAY, MILLIS_PER_HOUR};
use snb_core::model::{ForumId, ForumKind, MessageId, MessageKind, PersonId, TagId};
use snb_core::rng::Rng;

use crate::dictionaries::{StaticWorld, COUNTRIES, FILLER_WORDS, TAGS};
use crate::graph::{RawForum, RawGraph, RawKnows, RawLike, RawMembership, RawMessage, RawPerson};
use crate::GeneratorConfig;

const TAG_FLASHMOB: u64 = 20;
const TAG_FORUM: u64 = 21;
const TAG_GROUP: u64 = 22;
const TAG_POST: u64 = 23;

/// Receiver of generated activity records.
///
/// Records arrive in dependency order: a forum strictly before its
/// memberships and messages; a message strictly before its replies and
/// likes; message ids strictly increasing. Consumers may therefore
/// resolve every reference against records they have already seen.
pub trait ActivitySink {
    /// A new forum (wall / album / group).
    fn forum(&mut self, f: RawForum);
    /// A forum membership (its forum has already been emitted).
    fn membership(&mut self, m: RawMembership);
    /// A post or comment (its forum/parent has already been emitted).
    fn message(&mut self, m: RawMessage);
    /// A like (its message has already been emitted).
    fn like(&mut self, l: RawLike);
}

/// The materialising sink: plain pushes into the raw vectors.
impl ActivitySink for RawGraph {
    fn forum(&mut self, f: RawForum) {
        self.forums.push(f);
    }
    fn membership(&mut self, m: RawMembership) {
        self.memberships.push(m);
    }
    fn message(&mut self, m: RawMessage) {
        self.messages.push(m);
    }
    fn like(&mut self, l: RawLike) {
        self.likes.push(l);
    }
}

/// A flashmob event: a topic spike at a point in simulated time.
#[derive(Clone, Copy, Debug)]
pub struct Flashmob {
    /// The trending tag.
    pub tag: TagId,
    /// Peak time.
    pub time: DateTime,
    /// Relative intensity (weight when choosing which event a flashmob
    /// post belongs to).
    pub intensity: f64,
}

/// Generates the flashmob event list for a run.
pub fn generate_flashmobs(config: &GeneratorConfig, world: &StaticWorld) -> Vec<Flashmob> {
    let count = ((config.persons as f64 / 100.0) * config.flashmob_per_100_persons).ceil().max(1.0)
        as usize;
    let mut rng = Rng::derive(config.seed, 0, TAG_FLASHMOB);
    let start = config.start.at_midnight().0;
    let end = config.end.at_midnight().0 - MILLIS_PER_DAY;
    (0..count)
        .map(|_| {
            let country = rng.index(COUNTRIES.len());
            Flashmob {
                tag: world.sample_tag_for_country(country, &mut rng),
                time: DateTime(rng.range_i64(start, end)),
                // Intensity: heavy-tailed so a few events dominate.
                intensity: rng.next_f64().powi(2) * 10.0 + 0.5,
            }
        })
        .collect()
}

struct ActivityState<'a> {
    config: &'a GeneratorConfig,
    world: &'a StaticWorld,
    flashmobs: Vec<Flashmob>,
    flashmob_weights: snb_core::dist::CumulativeTable,
    friends: Vec<Vec<u32>>,
    friend_since: FxHashMap<(u32, u32), DateTime>,
    next_forum: u64,
    next_message: u64,
    end_millis: i64,
}

/// Populates `graph` with forums, memberships, messages and likes
/// (the materialising wrapper over [`generate_activity_into`]).
pub fn generate_activity(config: &GeneratorConfig, world: &StaticWorld, graph: &mut RawGraph) {
    let persons = std::mem::take(&mut graph.persons);
    let knows = std::mem::take(&mut graph.knows);
    generate_activity_into(config, world, &persons, &knows, graph);
    graph.persons = persons;
    graph.knows = knows;
}

/// Generates all activity, emitting each record through `sink` the
/// moment it exists. Only `persons` and `knows` need to be materialised
/// (both are O(persons), tiny next to the message volume); the
/// forums/messages/likes stream through without accumulating.
pub fn generate_activity_into<S: ActivitySink>(
    config: &GeneratorConfig,
    world: &StaticWorld,
    persons: &[RawPerson],
    knows: &[RawKnows],
    sink: &mut S,
) {
    let n = persons.len();
    let mut friends: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut friend_since = FxHashMap::default();
    for k in knows {
        friends[k.a.0 as usize].push(k.b.0 as u32);
        friends[k.b.0 as usize].push(k.a.0 as u32);
        friend_since.insert((k.a.0 as u32, k.b.0 as u32), k.creation_date);
        friend_since.insert((k.b.0 as u32, k.a.0 as u32), k.creation_date);
    }

    let flashmobs = generate_flashmobs(config, world);
    let flashmob_weights = snb_core::dist::CumulativeTable::new(
        &flashmobs.iter().map(|f| f.intensity).collect::<Vec<_>>(),
    );

    let mut state = ActivityState {
        config,
        world,
        flashmobs,
        flashmob_weights,
        friends,
        friend_since,
        next_forum: 0,
        next_message: 0,
        end_millis: config.end.at_midnight().0 - 1,
    };

    generate_walls(&mut state, persons, sink);
    generate_albums(&mut state, persons, sink);
    generate_groups(&mut state, persons, sink);
}

impl ActivityState<'_> {
    fn alloc_forum(&mut self) -> ForumId {
        let id = ForumId(self.next_forum);
        self.next_forum += 1;
        id
    }

    fn alloc_message(&mut self) -> MessageId {
        let id = MessageId(self.next_message);
        self.next_message += 1;
        id
    }

    /// Clamps a timestamp into `(lo, end_of_window]`.
    fn clamp(&self, t: i64, lo: i64) -> DateTime {
        DateTime(t.max(lo).min(self.end_millis))
    }

    /// A timestamp in `[lo, end)`, front-biased (cubic) so activity
    /// concentrates soon after its enabling event — this keeps the
    /// record volume before the 90%-of-time stream cut near 90%, the
    /// spec's bulk/stream proportion (§2.3.4).
    fn uniform_after(&self, rng: &mut Rng, lo: i64) -> DateTime {
        if lo >= self.end_millis {
            DateTime(self.end_millis)
        } else {
            let u = rng.next_f64();
            let span = (self.end_millis - lo) as f64;
            DateTime(lo + (span * u * u * u) as i64)
        }
    }
}

/// Tags for a message: seed tags from the forum/person, enriched with
/// correlated tags through the tag matrix.
fn enrich_tags(world: &StaticWorld, seed_tags: &[TagId], rng: &mut Rng, max: usize) -> Vec<TagId> {
    let mut tags = Vec::with_capacity(max.min(4));
    if !seed_tags.is_empty() {
        tags.push(*rng.pick(seed_tags));
    }
    // With decreasing probability, walk the correlation matrix.
    while !tags.is_empty() && tags.len() < max && rng.chance(0.45) {
        let base = *rng.pick(&tags);
        let corr = &world.tag_correlations[base.0 as usize];
        if corr.is_empty() {
            break;
        }
        let cand = *rng.pick(corr);
        if !tags.contains(&cand) {
            tags.push(cand);
        } else {
            break;
        }
    }
    tags
}

/// Synthesises message content about `tag` with the BI 1 length mixture
/// (short / one-liner / tweet / long).
fn make_content(tag: Option<TagId>, rng: &mut Rng) -> (String, u32) {
    let target: usize = match rng.next_f64() {
        x if x < 0.30 => rng.range_i64(10, 39) as usize,
        x if x < 0.65 => rng.range_i64(40, 79) as usize,
        x if x < 0.90 => rng.range_i64(80, 159) as usize,
        _ => rng.range_i64(160, 500) as usize,
    };
    let mut s = String::with_capacity(target + 24);
    if let Some(t) = tag {
        s.push_str("About ");
        s.push_str(TAGS[t.0 as usize].0);
        s.push_str(": ");
    }
    while s.len() < target {
        s.push_str(FILLER_WORDS[rng.index(FILLER_WORDS.len())]);
        s.push(' ');
    }
    s.truncate(target);
    let len = s.len() as u32;
    (s, len)
}

/// Personal walls: one per person, members are the person's friends.
fn generate_walls<S: ActivitySink>(
    state: &mut ActivityState<'_>,
    persons: &[RawPerson],
    sink: &mut S,
) {
    for pi in 0..persons.len() {
        let (person_id, person_created, title) = {
            let person = &persons[pi];
            (
                person.id,
                person.creation_date,
                format!("Wall of {} {}", person.first_name, person.last_name),
            )
        };
        let mut rng = Rng::derive(state.config.seed, person_id.0, TAG_FORUM);
        let forum_id = state.alloc_forum();
        let creation =
            state.clamp(person_created.0 + rng.range_i64(0, MILLIS_PER_HOUR), person_created.0);
        let mut tags: Vec<TagId> = persons[pi].interests.iter().copied().take(3).collect();
        tags.dedup();
        let forum = RawForum {
            id: forum_id,
            kind: ForumKind::Wall,
            title,
            creation_date: creation,
            moderator: person_id,
            tags,
        };
        sink.forum(forum.clone());

        // Friends join the wall when the friendship forms.
        let mut members: Vec<(PersonId, DateTime)> = Vec::new();
        for &f in &state.friends[pi] {
            let since = state.friend_since[&(pi as u32, f)];
            let join = state.clamp(since.0 + rng.range_i64(0, MILLIS_PER_DAY), creation.0);
            members.push((PersonId(f as u64), join));
        }
        for &(person_m, join_date) in &members {
            sink.membership(RawMembership { forum: forum_id, person: person_m, join_date });
        }

        // Wall posts: by the owner (moderator posts without membership,
        // spec §2.3.2 note) and by members; volume scales with degree.
        let owner_posts =
            1 + rng.geometric(1.0 / (state.config.activity_scale * 2.0 + 1.0)) as usize;
        for _ in 0..owner_posts {
            make_post(state, persons, sink, &forum, person_id, creation, &mut rng, false);
        }
        for &(member, join) in &members {
            let mean = state.config.activity_scale * 0.5;
            let cnt = rng.geometric(1.0 / (mean + 1.0)) as usize;
            for _ in 0..cnt {
                make_post(state, persons, sink, &forum, member, join, &mut rng, false);
            }
        }
    }
}

/// Image albums: 0..=2 per person; only the owner posts (image posts).
fn generate_albums<S: ActivitySink>(
    state: &mut ActivityState<'_>,
    persons: &[RawPerson],
    sink: &mut S,
) {
    for pi in 0..persons.len() {
        let person = &persons[pi];
        let (person_id, person_created, first, last) =
            (person.id, person.creation_date, &person.first_name, &person.last_name);
        let mut rng = Rng::derive(state.config.seed, person_id.0, TAG_FORUM + 100);
        let albums = rng.geometric(0.5).min(2) as usize;
        for ai in 0..albums {
            let forum_id = state.alloc_forum();
            let creation = state.uniform_after(&mut rng, person_created.0);
            let tags = enrich_tags(state.world, &person.interests, &mut rng, 2);
            let forum = RawForum {
                id: forum_id,
                kind: ForumKind::Album,
                title: format!("Album {ai} of {first} {last}"),
                creation_date: creation,
                moderator: person_id,
                tags,
            };
            sink.forum(forum.clone());
            // A subset of friends follows the album.
            let fr = &state.friends[pi];
            let take = rng.index(fr.len().min(8) + 1);
            for &f in fr.iter().take(take) {
                let join = state
                    .uniform_after(&mut rng, creation.0.max(persons[f as usize].creation_date.0));
                sink.membership(RawMembership {
                    forum: forum_id,
                    person: PersonId(f as u64),
                    join_date: join,
                });
            }
            let photos = 3 + rng.geometric(0.2).min(17) as usize;
            for _ in 0..photos {
                make_post(state, persons, sink, &forum, person_id, creation, &mut rng, true);
            }
        }
    }
}

/// Topical groups: ~1 per 10 persons; members come from the moderator's
/// neighbourhood plus interest-correlated strangers.
fn generate_groups<S: ActivitySink>(
    state: &mut ActivityState<'_>,
    persons: &[RawPerson],
    sink: &mut S,
) {
    let n = persons.len();
    if n == 0 {
        return;
    }
    let group_count = (n / 10).max(1);
    // Interest index: tag -> persons interested.
    let mut by_interest: FxHashMap<TagId, Vec<u32>> = FxHashMap::default();
    for (pi, p) in persons.iter().enumerate() {
        for &t in &p.interests {
            by_interest.entry(t).or_default().push(pi as u32);
        }
    }

    for gi in 0..group_count {
        let mut rng = Rng::derive(state.config.seed, gi as u64, TAG_GROUP);
        let moderator_ix = rng.index(n);
        let (moderator_id, moderator_created, topic) = {
            let moderator = &persons[moderator_ix];
            let topic = if moderator.interests.is_empty() {
                state.world.sample_tag_for_country(moderator.country, &mut rng)
            } else {
                *rng.pick(&moderator.interests)
            };
            (moderator.id, moderator.creation_date, topic)
        };
        let forum_id = state.alloc_forum();
        let creation = state.uniform_after(&mut rng, moderator_created.0);
        let tags = enrich_tags(state.world, &[topic], &mut rng, 3);
        let forum = RawForum {
            id: forum_id,
            kind: ForumKind::Group,
            title: format!("Group for {} in {}", TAGS[topic.0 as usize].0, gi),
            creation_date: creation,
            moderator: moderator_id,
            tags,
        };
        sink.forum(forum.clone());

        // Candidate members: moderator's friends + persons sharing the
        // topic interest.
        let mut candidates: Vec<u32> = state.friends[moderator_ix].clone();
        if let Some(interested) = by_interest.get(&topic) {
            candidates.extend_from_slice(interested);
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates.retain(|&c| c as usize != moderator_ix);
        let want = (3 + rng.geometric(0.08)).min(60).min(candidates.len() as u64) as usize;
        let chosen = rng.sample_indices(candidates.len(), want);
        let mut members: Vec<(PersonId, DateTime)> = vec![(moderator_id, creation)];
        for ci in chosen {
            let pix = candidates[ci] as usize;
            let join = state.uniform_after(&mut rng, creation.0.max(persons[pix].creation_date.0));
            members.push((persons[pix].id, join));
        }
        for &(person_m, join_date) in &members {
            sink.membership(RawMembership { forum: forum_id, person: person_m, join_date });
        }

        // Group posts by members, volume scaled by their degree.
        for &(member, join) in &members {
            let deg = state.friends[member.0 as usize].len() as f64;
            let mean = state.config.activity_scale * (1.0 + deg).ln() * 0.4;
            let cnt = rng.geometric(1.0 / (mean + 1.0)) as usize;
            for _ in 0..cnt {
                make_post(state, persons, sink, &forum, member, join, &mut rng, false);
            }
        }
    }
}

/// Creates one Post (plus its comment tree) in `forum` by `author`,
/// no earlier than `not_before`.
#[allow(clippy::too_many_arguments)]
fn make_post<S: ActivitySink>(
    state: &mut ActivityState<'_>,
    persons: &[RawPerson],
    sink: &mut S,
    forum: &RawForum,
    author: PersonId,
    not_before: DateTime,
    rng: &mut Rng,
    image: bool,
) {
    let author_rec = &persons[author.0 as usize];
    let lo = not_before.0.max(forum.creation_date.0).max(author_rec.creation_date.0);

    // Flashmob or uniform background (spec: both kinds of activity)?
    let (creation, flash_tag) =
        if !image && !state.flashmobs.is_empty() && rng.chance(state.config.flashmob_post_fraction)
        {
            let ev = state.flashmobs[state.flashmob_weights.sample(rng)];
            if ev.time.0 >= lo {
                // Cluster within ±36h of the event peak.
                let jitter = rng.range_i64(-36 * MILLIS_PER_HOUR, 36 * MILLIS_PER_HOUR);
                (state.clamp(ev.time.0 + jitter, lo), Some(ev.tag))
            } else {
                (state.uniform_after(rng, lo), None)
            }
        } else {
            (state.uniform_after(rng, lo), None)
        };

    let mut tags = enrich_tags(state.world, &forum.tags, rng, 3);
    if let Some(ft) = flash_tag {
        if !tags.contains(&ft) {
            tags.insert(0, ft);
        }
    }
    if tags.is_empty() {
        tags.push(state.world.sample_tag_for_country(author_rec.country, rng));
    }

    let id = state.alloc_message();
    // Most messages are issued from home; ~5% while travelling (the
    // official generator correlates but does not fix message location).
    let country = if rng.chance(0.05) {
        state.world.country_place[rng.index(COUNTRIES.len())]
    } else {
        state.world.country_place[author_rec.country]
    };
    let (content, length, image_file, language) = if image {
        (String::new(), 0u32, Some(format!("photo{}.jpg", id.0)), None)
    } else {
        let (c, l) = make_content(tags.first().copied(), rng);
        (c, l, None, Some(author_rec.languages[0]))
    };
    let post_tags = tags.clone();
    let post = RawMessage {
        id,
        kind: MessageKind::Post,
        creation_date: creation,
        creator: author,
        country,
        location_ip: author_rec.location_ip.clone(),
        browser: author_rec.browser,
        content,
        length,
        image_file,
        language,
        forum: Some(forum.id),
        reply_of: None,
        root_post: id,
        tags,
    };
    sink.message(post);
    emit_likes(state, persons, sink, id, MessageKind::Post, author, creation);

    if !image {
        make_comment_tree(
            state, persons, sink, id, id, author, author, &post_tags, creation, 0, rng,
        );
    }
}

/// Recursively generates the comment tree under `parent`.
///
/// Parent metadata (`post_creator`, `parent_author`, `parent_tags`) is
/// threaded down the recursion rather than read back out of the emitted
/// records — this is what lets the pass stream: the sink never has to
/// answer lookups.
#[allow(clippy::too_many_arguments)]
fn make_comment_tree<S: ActivitySink>(
    state: &mut ActivityState<'_>,
    persons: &[RawPerson],
    sink: &mut S,
    parent: MessageId,
    root_post: MessageId,
    post_creator: PersonId,
    parent_author: PersonId,
    parent_tags: &[TagId],
    parent_time: DateTime,
    depth: u32,
    rng: &mut Rng,
) {
    if depth >= 6 {
        return;
    }
    // Branching decays with depth; root posts get the most replies.
    let mean = match depth {
        0 => 1.2,
        1 => 0.7,
        _ => 0.35,
    };
    let replies = rng.geometric(1.0 / (mean + 1.0)) as usize;
    if replies == 0 {
        return;
    }
    for _ in 0..replies {
        // Replier: a friend of the post creator or the forum moderator's
        // neighbourhood — approximate with friends of the parent author,
        // falling back to the moderator.
        let candidates = &state.friends[parent_author.0 as usize];
        let replier_ix = if candidates.is_empty() || rng.chance(0.2) {
            post_creator.0 as usize
        } else {
            *rng.pick(candidates) as usize
        };
        let replier = &persons[replier_ix];
        let lo = parent_time.0.max(replier.creation_date.0);
        // Replies cluster after the parent: geometric hours. If the
        // delay would spill past the simulation window, fall back to a
        // uniform draw so timestamps don't pile up on the boundary.
        let delay = (rng.geometric(0.05) as i64 + 1) * MILLIS_PER_HOUR / 4;
        let creation = if lo + delay > state.end_millis {
            state.uniform_after(rng, lo)
        } else {
            state.clamp(lo + delay, lo)
        };

        // Comment tags: subset of the parent's plus correlated ones.
        let mut tags = Vec::new();
        if !parent_tags.is_empty() && rng.chance(0.7) {
            tags.push(*rng.pick(parent_tags));
        }
        let enriched = enrich_tags(state.world, &tags, rng, 2);
        if !enriched.is_empty() {
            tags = enriched;
        }

        let id = state.alloc_message();
        let (content, length) = make_content(tags.first().copied(), rng);
        let comment_country = if rng.chance(0.05) {
            state.world.country_place[rng.index(COUNTRIES.len())]
        } else {
            state.world.country_place[replier.country]
        };
        let comment_tags = tags.clone();
        let replier_id = replier.id;
        let comment = RawMessage {
            id,
            kind: MessageKind::Comment,
            creation_date: creation,
            creator: replier_id,
            country: comment_country,
            location_ip: replier.location_ip.clone(),
            browser: replier.browser,
            content,
            length,
            image_file: None,
            language: None,
            forum: None,
            reply_of: Some(parent),
            root_post,
            tags,
        };
        sink.message(comment);
        emit_likes(state, persons, sink, id, MessageKind::Comment, replier_id, creation);
        make_comment_tree(
            state,
            persons,
            sink,
            id,
            root_post,
            post_creator,
            replier_id,
            &comment_tags,
            creation,
            depth + 1,
            rng,
        );
    }
}

/// Likes for one freshly created message: count scales with thread
/// popularity; likers come from the creator's neighbourhood. Each
/// message's like stream is an independent RNG derived from its id, so
/// emitting inline here produces the identical sequence the
/// pre-streaming layout produced with a dedicated pass over messages in
/// id order.
fn emit_likes<S: ActivitySink>(
    state: &ActivityState<'_>,
    persons: &[RawPerson],
    sink: &mut S,
    id: MessageId,
    kind: MessageKind,
    creator: PersonId,
    created: DateTime,
) {
    let mut rng = Rng::derive(state.config.seed, id.0, TAG_POST + 50);
    let mean = match kind {
        MessageKind::Post => 1.8,
        MessageKind::Comment => 0.5,
    };
    let count = rng.geometric(1.0 / (mean + 1.0)) as usize;
    if count == 0 {
        return;
    }
    let candidates = &state.friends[creator.0 as usize];
    if candidates.is_empty() {
        return;
    }
    let take = count.min(candidates.len());
    let chosen = rng.sample_indices(candidates.len(), take);
    for ci in chosen {
        let liker = &persons[candidates[ci] as usize];
        let lo = created.0.max(liker.creation_date.0);
        let delay = (rng.geometric(0.08) as i64 + 1) * MILLIS_PER_HOUR;
        let creation_date = if lo + delay > state.end_millis {
            state.uniform_after(&mut rng, lo)
        } else {
            state.clamp(lo + delay, lo)
        };
        sink.like(RawLike { person: liker.id, message: id, creation_date });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_core::scale::ScaleFactor;

    fn gen() -> RawGraph {
        let mut c = GeneratorConfig::for_scale(ScaleFactor::by_name("0.001").unwrap());
        c.persons = 120;
        crate::generate(&c)
    }

    #[test]
    fn every_person_has_a_wall() {
        let g = gen();
        let walls = g.forums.iter().filter(|f| f.kind == ForumKind::Wall).count();
        assert_eq!(walls, g.persons.len());
    }

    #[test]
    fn posts_are_in_forums_and_comments_are_not() {
        let g = gen();
        let mut posts = 0;
        let mut comments = 0;
        for m in &g.messages {
            match m.kind {
                MessageKind::Post => {
                    posts += 1;
                    assert!(m.forum.is_some());
                    assert!(m.reply_of.is_none());
                    assert_eq!(m.root_post, m.id);
                }
                MessageKind::Comment => {
                    comments += 1;
                    assert!(m.forum.is_none());
                    assert!(m.reply_of.is_some());
                    assert_ne!(m.root_post, m.id);
                }
            }
        }
        assert!(posts > 0 && comments > 0, "posts {posts} comments {comments}");
    }

    #[test]
    fn image_posts_have_no_content_and_vice_versa() {
        let g = gen();
        let mut images = 0;
        for m in &g.messages {
            match &m.image_file {
                Some(f) => {
                    images += 1;
                    assert!(m.content.is_empty(), "image post with content");
                    assert_eq!(m.length, 0);
                    assert!(f.ends_with(".jpg"));
                }
                None => {
                    assert!(!m.content.is_empty(), "text message without content");
                    assert_eq!(m.length as usize, m.content.len());
                }
            }
        }
        assert!(images > 0, "no image posts generated");
    }

    #[test]
    fn reply_trees_are_well_formed() {
        let g = gen();
        let by_id: FxHashMap<MessageId, &RawMessage> =
            g.messages.iter().map(|m| (m.id, m)).collect();
        for m in &g.messages {
            if let Some(parent) = m.reply_of {
                // Walk to the root; must terminate at a Post equal to
                // root_post.
                let mut cur = parent;
                let mut steps = 0;
                loop {
                    let rec = by_id[&cur];
                    match rec.reply_of {
                        Some(p) => cur = p,
                        None => break,
                    }
                    steps += 1;
                    assert!(steps < 100, "reply cycle");
                }
                assert_eq!(cur, m.root_post);
                assert_eq!(by_id[&cur].kind, MessageKind::Post);
            }
        }
    }

    #[test]
    fn likes_reference_existing_messages() {
        let g = gen();
        assert!(!g.likes.is_empty());
        let max_msg = g.messages.len() as u64;
        for l in &g.likes {
            assert!(l.message.0 < max_msg);
            assert!((l.person.0 as usize) < g.persons.len());
        }
        // No duplicate (person, message) likes.
        let mut pairs: Vec<(u64, u64)> =
            g.likes.iter().map(|l| (l.person.0, l.message.0)).collect();
        let before = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(before, pairs.len(), "duplicate likes");
    }

    #[test]
    fn flashmob_events_concentrate_activity() {
        // Posts carrying a flashmob tag near its event time should make
        // that tag's temporal variance lower than the uniform background.
        let mut c = GeneratorConfig::for_scale(ScaleFactor::by_name("0.001").unwrap());
        c.persons = 200;
        c.flashmob_post_fraction = 0.5;
        let world = StaticWorld::build(c.seed);
        let flashmobs = generate_flashmobs(&c, &world);
        assert!(!flashmobs.is_empty());
        let g = crate::generate(&c);
        // At least some posts must land within 2 days of some event peak
        // while sharing its tag.
        let mut hits = 0;
        for m in g.messages.iter().filter(|m| m.kind == MessageKind::Post) {
            for ev in &flashmobs {
                if m.tags.contains(&ev.tag)
                    && (m.creation_date.0 - ev.time.0).abs() <= 2 * MILLIS_PER_DAY
                {
                    hits += 1;
                    break;
                }
            }
        }
        assert!(hits > 5, "flashmob clustering not observed: {hits}");
    }

    #[test]
    fn membership_pairs_unique_per_forum() {
        let g = gen();
        let mut pairs: Vec<(u64, u64)> =
            g.memberships.iter().map(|m| (m.forum.0, m.person.0)).collect();
        let before = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(before, pairs.len(), "duplicate memberships");
    }

    #[test]
    fn activity_correlates_with_degree() {
        let mut c = GeneratorConfig::for_scale(ScaleFactor::by_name("0.001").unwrap());
        c.persons = 400;
        let g = crate::generate(&c);
        let mut degree = vec![0usize; g.persons.len()];
        for k in &g.knows {
            degree[k.a.0 as usize] += 1;
            degree[k.b.0 as usize] += 1;
        }
        let mut msgs = vec![0usize; g.persons.len()];
        for m in &g.messages {
            msgs[m.creator.0 as usize] += 1;
        }
        // Compare mean messages for the top-degree quartile vs bottom.
        let mut idx: Vec<usize> = (0..g.persons.len()).collect();
        idx.sort_by_key(|&i| degree[i]);
        let q = g.persons.len() / 4;
        let low: f64 = idx[..q].iter().map(|&i| msgs[i] as f64).sum::<f64>() / q as f64;
        let high: f64 =
            idx[idx.len() - q..].iter().map(|&i| msgs[i] as f64).sum::<f64>() / q as f64;
        assert!(high > low * 1.5, "high-degree activity {high} vs low {low}");
    }

    /// The sink contract: forums precede their memberships/messages,
    /// parents precede replies, messages precede their likes, and
    /// message ids are emitted in strictly increasing order.
    #[test]
    fn sink_emission_order_is_dependency_safe() {
        use std::collections::HashSet;
        #[derive(Default)]
        struct OrderCheck {
            forums: HashSet<u64>,
            messages: HashSet<u64>,
            last_message: Option<u64>,
        }
        impl ActivitySink for OrderCheck {
            fn forum(&mut self, f: RawForum) {
                assert!(self.forums.insert(f.id.0), "forum {:?} emitted twice", f.id);
            }
            fn membership(&mut self, m: RawMembership) {
                assert!(self.forums.contains(&m.forum.0), "membership before forum");
            }
            fn message(&mut self, m: RawMessage) {
                if let Some(last) = self.last_message {
                    assert!(m.id.0 > last, "message ids not increasing");
                }
                self.last_message = Some(m.id.0);
                if let Some(f) = m.forum {
                    assert!(self.forums.contains(&f.0), "post before its forum");
                }
                if let Some(p) = m.reply_of {
                    assert!(self.messages.contains(&p.0), "comment before its parent");
                }
                assert!(self.messages.contains(&m.root_post.0) || m.root_post == m.id);
                self.messages.insert(m.id.0);
            }
            fn like(&mut self, l: RawLike) {
                assert!(self.messages.contains(&l.message.0), "like before message");
            }
        }

        let mut c = GeneratorConfig::for_scale(ScaleFactor::by_name("0.001").unwrap());
        c.persons = 150;
        let world = StaticWorld::build(c.seed);
        let persons = crate::person::generate_persons(&c, &world);
        let knows = crate::knows::generate_knows(&c, &persons);
        let mut check = OrderCheck::default();
        generate_activity_into(&c, &world, &persons, &knows, &mut check);
        assert!(check.messages.len() > 100);
    }
}
